//! # uae — Modeling User Attention in Music Recommendation (ICDE 2024)
//!
//! A from-scratch Rust reproduction of the paper's system: the **UAE**
//! unbiased attention estimator (sequential PU-learning with dual unbiased
//! risks and alternating optimization), every attention baseline it is
//! compared against (the training-free EDM; PN, NDB and SAR as `Uae`
//! variants with a different risk or propensity head), the seven
//! downstream CTR recommenders of Table IV, a behaviour simulator standing in for the
//! paper's proprietary logs, an experiment harness that regenerates
//! every table and figure, and a tape-free batched inference engine
//! (`serve`) for scoring with frozen `.uaem` model snapshots.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name. Depend on the individual crates for finer-grained builds.
//!
//! ```no_run
//! use uae::core::{AttentionEstimator, Uae, UaeConfig, downstream_weights};
//! use uae::data::{generate, split_by_ratio, FlatData, SimConfig};
//! use uae::models::{evaluate, train, LabelMode, ModelConfig, ModelKind, TrainConfig};
//! use uae::tensor::Rng;
//!
//! // 1. Synthesise a Product-like dataset and split it.
//! let ds = generate(&SimConfig::product(0.2), 0);
//! let mut rng = Rng::seed_from_u64(0);
//! let split = split_by_ratio(&ds, 0.8, 0.1, &mut rng);
//!
//! // 2. Fit UAE on the training sessions' observed feedback.
//! let mut uae = Uae::new(&ds.schema, UaeConfig::default());
//! uae.fit(&ds, &split.train);
//! let weights = downstream_weights(&uae.predict(&ds, &split.train), 15.0);
//!
//! // 3. Train a recommender with attention-weighted passive samples.
//! let train_data = FlatData::from_sessions(&ds, &split.train);
//! let test_data = FlatData::from_sessions(&ds, &split.test);
//! let (model, mut params) = ModelKind::DcnV2.build(&ds.schema, &ModelConfig::default(), &mut rng);
//! train(model.as_ref(), &mut params, &train_data, Some(&weights), None,
//!       LabelMode::Observed, &TrainConfig::default());
//! println!("{:?}", evaluate(model.as_ref(), &params, &test_data, LabelMode::Observed, 512));
//! ```

pub use uae_core as core;
pub use uae_data as data;
pub use uae_eval as eval;
pub use uae_metrics as metrics;
pub use uae_models as models;
pub use uae_nn as nn;
pub use uae_obs as obs;
pub use uae_runtime as runtime;
pub use uae_serve as serve;
pub use uae_tensor as tensor;
