//! # uae-serve — tape-free batched inference for trained UAE models
//!
//! Only the fit loops record the autodiff tape; every forward-only pass
//! runs the same forward bodies tape-free. This crate freezes a trained
//! model into a compact read-only snapshot and scores request batches
//! through that tape-free forward, one bump-arena generation per batch,
//! **bit-identical** to the live model's `predict`.
//!
//! Artifacts — one `.uaem` container (magic `UAEM`, version 3, the only
//! layout), four variants discriminated by a variant byte, one loader:
//!
//! - [`FrozenModel`] (variants 0, 1 and 3: sequential, local or no
//!   propensity head) — a versioned, self-describing snapshot
//!   of the attention network `g`, the propensity network `h`, the feature
//!   schema they were trained against, the Eq. (19) exponent γ, and the
//!   hashed-embedding config. Every tensor sits in one 16-byte-aligned
//!   `f32` arena at fixed header-recorded offsets, held in memory as one
//!   [`model::ParamArena`]. [`FrozenModel::open`] memory-maps the file and
//!   serves the arena *in place* — cold-start decode is microseconds
//!   regardless of artifact size, and resident memory is only the pages
//!   scoring touches. [`FrozenModel::read_from`] copies the file into an
//!   aligned heap region instead (for files that may be replaced in use).
//!   Copy vs map is only the transport: both parse the same header and
//!   build through the same loader. Exportable from a live
//!   [`uae_core::Uae`] or from a training checkpoint, validated on load
//!   through the existing [`uae_runtime::UaeError`] taxonomy (hostile
//!   offsets, truncations, and bit flips are typed errors on both
//!   transports — fuzz-tested).
//! - [`FrozenRecommender`] (variant 2) — any Table-IV downstream model
//!   (FM … DCN-V2): the [`uae_models::ModelKind`] tag, its
//!   [`uae_models::ModelConfig`], and the trained parameters in the same
//!   header + arena layout.
//! - [`FrozenArtifact`] — sniffs the variant byte once and loads either,
//!   for callers that accept any `.uaem` file.
//!
//! Scoring engines:
//!
//! - [`Scorer`] — buckets sessions by length, pads once per batch, runs the
//!   tape-free UAE forward across the deterministic worker pool, and
//!   returns per-event attention α̂, propensity p̂, and downstream
//!   confidence weights `w = 1 − (α̂ + 1)^(−γ)` in request order,
//!   bit-identical to `Uae::predict`/`predict_propensity`.
//! - [`RecScorer`] — batch-scores flat events through a downstream
//!   recommender's tape-free forward, bit-identical to
//!   `uae_models::predict` at any batch size.
//!
//! Telemetry: when `uae-obs` is enabled, scoring emits `serve.request` /
//! `serve.batch` (and `serve.rec_request` / `serve.rec_batch`) spans plus
//! `serve.sessions` / `serve.events` / `serve.batches` (and `serve.rec_*`)
//! counters and per-batch throughput gauges.
//!
//! The serving daemon (`uae serve`):
//!
//! - [`Daemon`] — a long-running TCP scoring service over a length-prefixed
//!   binary protocol ([`wire`]) that degrades instead of dying: a bounded
//!   [`queue::ServeQueue`] coalesces concurrent requests into micro-batches
//!   under per-request deadlines; overload is shed with typed errors;
//!   panicking scorer workers restart behind deterministic backoff; and
//!   `.uaem` hot-swaps drain in-flight batches and roll back to last-good
//!   on a bad artifact.
//! - [`ServeClient`] — the blocking client, including the raw-byte chaos
//!   helpers the fault-injection harness uses.
//! - [`FaultPlan`] — `UAE_FAULT_*` fault injection (slow-scorer stalls,
//!   scheduled worker panics) for the chaos harness.
//!
//! Knobs: `UAE_SERVE_BATCH` (sessions per batch, default 64) and
//! `UAE_SERVE_MAX_LEN` (optional truncation); the daemon adds
//! `UAE_SERVE_ADDR` / `UAE_SERVE_WORKERS` / `UAE_SERVE_QUEUE` /
//! `UAE_SERVE_DEADLINE_MS` plus the `UAE_FAULT_*` chaos knobs, and the
//! observability layer adds `UAE_TRACE` / `UAE_FLIGHT_RECORDER_N` /
//! `UAE_METRICS_INTERVAL_MS` / `UAE_FLIGHT_RECORDER_DIR` (see
//! [`daemon`]). The thread count comes from the compute backend
//! (`UAE_NUM_THREADS`).

pub mod client;
pub mod daemon;
pub mod fault;
pub mod model;
pub mod queue;
pub mod recommender;
pub mod scorer;
pub mod wire;

pub use client::ServeClient;
pub use daemon::{Daemon, DaemonConfig};
pub use fault::FaultPlan;
pub use model::FrozenModel;
pub use recommender::{FrozenArtifact, FrozenRecommender, RecScorer};
pub use scorer::{ScoreOutput, Scorer, ScorerConfig};
pub use wire::{SessionScores, StatsSnapshot, WireEvent, WireHist, WireSession};
