//! # uae-core
//!
//! The paper's primary contribution: **UAE**, an unbiased user-attention
//! estimator for music recommendation built on sequential PU-learning,
//! together with every attention baseline it is compared against and an
//! empirical validation of its theory.
//!
//! * [`uae::Uae`] — the dual-estimator model (GRU₁+MLP₁ attention network,
//!   GRU₂+MLP₂ sequential propensity network) trained with alternating
//!   optimization (Algorithm 1); also hosts the SAR baseline variant and,
//!   via [`estimators::EstimatorSpec`], every other risk estimator — the
//!   PN (Eq. 4) and NDB (Eq. 5) baselines are `Uae` with
//!   `EstimatorSpec::Pn` / `EstimatorSpec::Ndb { window }`.
//! * [`estimators`] — the `RiskEstimator` trait: the paper's risks
//!   (Eq. 3/4/5/16/17) plus the related-work schemes (rel-MF, BISER,
//!   automatic-debiased PU) as weight grids over padded session batches,
//!   and [`masked_sequence_bce`], the one loss they all feed.
//! * [`estimator`] — the `AttentionEstimator` trait and EDM.
//! * [`reweight`] — Eq. (18)/(19), attention → downstream confidence
//!   weights, NaN-guarded.
//! * [`theory`] — closed-form and Monte-Carlo checks of Theorems 1–6.
//!
//! # Two traits, two layers
//!
//! [`AttentionEstimator`] is a *model*: `fit` on sessions, `predict` α̂ per
//! event. `Uae` (with any risk) and the training-free `Edm` implement it,
//! and the evaluation harness and benchmark only ever call it.
//! [`RiskEstimator`] is a *weighting scheme* inside one model's training
//! loop: given a padded batch and the current α̂/p̂ grids, it returns the
//! positive/negative weights of the masked BCE. A risk has no parameters to
//! fit or predict with, and EDM has no risk, so neither trait can stand in
//! for the other.
//!
//! ```no_run
//! use uae_core::{AttentionEstimator, Uae, UaeConfig, downstream_weights};
//! use uae_data::{generate, SimConfig};
//!
//! let ds = generate(&SimConfig::product(0.2), 0);
//! let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
//! let mut uae = Uae::new(&ds.schema, UaeConfig::default());
//! uae.fit(&ds, &sessions);
//! let alpha_hat = uae.predict(&ds, &sessions);
//! let weights = downstream_weights(&alpha_hat, 15.0); // feed to uae-models
//! ```

pub mod estimator;
pub mod estimators;
pub mod networks;
pub mod reweight;
pub mod theory;
pub mod uae;

pub use estimator::{AttentionEstimator, Edm, FitReport};
pub use estimators::{
    clipped_inverse_weights, masked_sequence_bce, AdpuRisk, BiserRisk, ClipCounts, ClipPolicy,
    EstimatorSpec, IdealRisk, NdbRisk, OraclePropensityRisk, Phase, PhaseInputs, PnRisk, RelMfRisk,
    RiskEstimator, UaeDualRisk, WeightBuild, WeightCtx, WeightGrid,
};
pub use networks::{AttentionNet, LocalPropensityNet, PropensityNet};
pub use reweight::{downstream_weights, event_pos_neg, reweight, reweight_curve};
pub use uae::{flat_offsets, scatter_sigmoid, HeadKind, Uae, UaeConfig, UaeInference};
