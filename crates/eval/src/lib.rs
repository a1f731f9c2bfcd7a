//! # uae-eval
//!
//! The experiment harness reproducing every table and figure of the paper's
//! evaluation (§VI):
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`harness`] | shared plumbing: presets, splits, attention methods |
//! | [`table4`] | Table IV — 7 base models ± UAE, both datasets |
//! | [`table5`] | Table V — AutoInt/DCN-V2 × {EDM, NDB, PN, SAR, UAE} |
//! | [`convergence`] | Fig. 5 — convergence curves with 95% CI bands |
//! | [`gamma`] | Fig. 6 — sensitivity to the re-weight parameter γ |
//! | [`ab`] | Fig. 7 — a paired 7-day online A/B serving simulation |
//! | [`loadgen`] | closed-loop load + chaos generator for the serving daemon |
//! | [`matrix`] | estimator × scenario benchmark matrix (extension) |
//! | [`table`] | plain-text rendering of all of the above |
//!
//! Dataset statistics (Figs. 2–3, Table III) live in `uae-data::stats`; the
//! theorem validations (Thms 1–6) in `uae-core::theory`. The `uae` CLI
//! prints each artifact via these modules (`uae stats`, `uae table4`, …).

pub mod ab;
pub mod convergence;
pub mod gamma;
pub mod harness;
pub mod loadgen;
pub mod matrix;
pub mod table;
pub mod table4;
pub mod table5;

pub use ab::{run_ab_test, AbConfig, AbDay, AbOutcome};
pub use convergence::{run_convergence, Convergence, ConvergenceCurve, EpochPoint};
pub use gamma::{paper_gammas, render_reweight_curves, run_gamma_sweep, GammaPoint, GammaSweep};
pub use harness::{
    derive_recovery_seed, over_seeds, over_seeds_isolated, prepare, run_model, AttentionMethod,
    HarnessConfig, PreparedData, Preset, RunOutcome, SeedFanout, SeedOutcome,
};
pub use loadgen::{run_loadgen, session_pool, LoadReport, LoadgenConfig};
pub use matrix::{run_matrix, MatrixCell, MatrixConfig, MatrixReport};
pub use table::{pct, rela, starred, TextTable};
pub use table4::{run_table4, Table4, Table4Entry};
pub use table5::{
    run_table5, run_table5_with, table5_models, AttentionQuality, Table5, Table5Entry,
};
