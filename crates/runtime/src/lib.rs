//! # uae-runtime
//!
//! Fault-tolerant training runtime for the UAE reproduction: the pieces that
//! keep long table runs alive when a seed diverges, a batch is poisoned, or
//! the process is interrupted.
//!
//! * [`error::UaeError`] — the workspace-wide typed error taxonomy
//!   (data parse, shape mismatch, numerical divergence, checkpoint decode,
//!   seed-thread panic).
//! * [`checkpoint::TrainSnapshot`] — versioned binary checkpoints bundling
//!   parameter arenas, Adam moments, the full RNG state, and trainer
//!   bookkeeping; resuming from one is bit-identical to never stopping.
//! * [`sentinel`] — per-step finiteness checks on loss, gradient norm, and
//!   parameters, ordered so parameters are never silently poisoned.
//! * [`supervisor::Supervisor`] — the one recovery protocol:
//!   [`Supervisor::run`] drives a trainer's epochs, checkpoints after each,
//!   and on anomaly restores the last-good snapshot, halves the learning
//!   rate, tightens gradient clipping, and retries within a bounded budget
//!   before failing with a typed error.
//! * [`backoff::Backoff`] — deterministic exponential backoff shared by the
//!   serving daemon's worker-restart and swap-drain loops.
//!
//! The trainers in `uae-models` and `uae-core` run under it; the
//! evaluation harness in `uae-eval` layers panic-isolated seed fan-out on
//! top (`over_seeds_isolated`), so one bad seed degrades a table to
//! "n−1 seeds + fault report" instead of a crashed run.

pub mod backoff;
pub mod checkpoint;
pub mod error;
pub mod sentinel;
pub mod supervisor;

pub use backoff::Backoff;
pub use checkpoint::{ByteReader, ByteWriter, CheckpointError, TrainSnapshot};
pub use error::UaeError;
pub use sentinel::Anomaly;
pub use supervisor::{FaultEvent, Supervisor, SupervisorConfig, TrainState};
