//! # uae-tensor
//!
//! A minimal, dependency-free dense-tensor and reverse-mode autodiff engine,
//! sized exactly for the models in *"Modeling User Attention in Music
//! Recommendation"* (ICDE 2024): GRUs, MLPs, embedding tables, factorization
//! machines, cross networks, and field self-attention.
//!
//! ## Components
//!
//! * [`matrix::Matrix`] — dense row-major `f32` matrices (2-D, with a packed
//!   convention for batched 3-D used by [`tape::Tape::batched_matmul`]).
//! * [`backend`] — deterministic parallel compute backend: cache-blocked
//!   matmul kernels, a scoped-thread worker pool (`UAE_NUM_THREADS`), and a
//!   scratch-buffer pool recycling matrix allocations across tape steps.
//! * [`rng::Rng`] — deterministic xoshiro256++ PRNG; the sole randomness
//!   source in the workspace.
//! * [`params::Params`] — arena of trainable parameters: registered shapes
//!   and init schemes, values, and gradients once training needs them.
//! * [`tape::Tape`] — eager autodiff tape; one fused
//!   [`tape::Tape::weighted_bce`] op expresses every risk function in the
//!   paper as per-example positive/negative weights.
//! * [`gradcheck`] — finite-difference gradient verification, exported so
//!   downstream crates can check their composed architectures.
//! * [`exec`] — the [`exec::Exec`] op vocabulary: every layer writes its
//!   forward once, generic over the trait; [`tape::Tape`] (training) and
//!   [`exec::ValueExec`] (serving, with operator fusion) both implement it
//!   through the same kernels, so the engines are bit-identical by
//!   construction.
//! * [`arena`] — the tape-free inference arena: a per-batch bump allocator
//!   that makes warmed-up serve scoring allocation-free (CI gates the
//!   heap-alloc counter at zero).
//! * [`mmap`] — read-only [`mmap::MmapRegion`] file mappings backing
//!   [`matrix::Matrix`] storage directly (`.uaem` v3 arenas are served in
//!   place from the page cache; mapped matrices are copy-on-write).
//!
//! ## Example
//!
//! ```
//! use uae_tensor::{Matrix, Params, Rng, Tape};
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let mut params = Params::new();
//! let w = params.add("w", Matrix::randn(2, 1, 0.1, &mut rng));
//!
//! // One gradient step of logistic regression on two examples.
//! let mut tape = Tape::new();
//! let x = tape.input(Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
//! let wv = tape.param(&params, w);
//! let logits = tape.matmul(x, wv);
//! let loss = tape.weighted_bce(logits, &[1.0, 0.0], &[0.0, 1.0], 2.0, false);
//! params.zero_grads();
//! tape.backward(loss, &mut params);
//! assert!(params.grad_norm() > 0.0);
//! ```

pub mod arena;
pub mod backend;
pub mod exec;
pub mod gradcheck;
pub mod matrix;
pub mod mmap;
pub mod params;
pub mod rng;
pub mod serialize;
pub mod tape;

pub use arena::{arena_stats, reset_arena_stats, ArenaStats};
pub use backend::{
    dispatch_stats, emit_backend_telemetry, kernel_latency_histogram, kernel_mode, num_threads,
    reset_dispatch_stats, reset_scratch_stats, scratch_stats, with_kernel_mode, with_num_threads,
    DispatchStats, KernelMode, ScratchStats, ThreadSettings,
};
pub use exec::{
    exec_stats, gru_unroll_steps, reset_exec_stats, with_fusion, ActKind, Exec, ExecStats, GruVars,
    ValueExec,
};
pub use matrix::Matrix;
pub use mmap::MmapRegion;
pub use params::{Init, ParamId, Params};
pub use rng::{Rng, RngState};
pub use serialize::{decode_params, load_params, save_params, DecodeError};
pub use tape::{sigmoid, softplus, Tape, Var};
