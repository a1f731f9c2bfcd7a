//! Execution contexts: one forward implementation, two engines.
//!
//! Every layer in the workspace writes its forward math exactly once, generic
//! over [`Exec`]. Two execution contexts implement the trait:
//!
//! * [`Tape`] — the training engine. Each op records an autodiff node whose
//!   value is computed eagerly; [`Tape::backward`] later walks the nodes.
//! * [`ValueExec`] — the serving engine. The same ops run directly on
//!   [`Matrix`] values with no node bookkeeping and no gradient state.
//!
//! Both contexts dispatch every op through the same value kernels (the
//! private `kernels` module below, which the tape's own op constructors also
//! call), so the two engines are **bit-identical by construction**: there is
//! no second forward implementation that could drift, only a second way of
//! wrapping the first one. End-to-end equivalence suites
//! (`tests/exec_equivalence.rs`) pin the contract at 1 and 4 worker threads.
//!
//! The op vocabulary is exactly what the paper's models need: matmul and the
//! fused `x·W + b`, batched matmul for field self-attention, element-wise
//! arithmetic and activations, row/column broadcasts, concat/slice/reshape,
//! row-sum and row-softmax. Loss ops (`weighted_bce`, `mean_all`, …) stay
//! tape-only — serving never builds a loss.
//!
//! # Operator fusion
//!
//! On top of the primitive vocabulary the trait offers *fusable composites*
//! as default methods: [`Exec::linear_act`], [`Exec::mul_add`],
//! [`Exec::softmax_rows_scaled`], [`Exec::gather_concat`] and the GRU
//! recurrence [`Exec::gru_step`] / [`Exec::gru_unroll`]. The defaults expand
//! to the primitive ops. [`ValueExec`] overrides the first four and
//! [`Exec::gru_unroll`] with single-pass fused kernels whose per-element
//! arithmetic replays the unfused op sequence exactly — fused and unfused
//! outputs are bit-identical, which `tests/exec_equivalence.rs` pins at 1
//! and 4 threads. Fusion is always on in production; [`with_fusion`] turns
//! it off for one scope so the equivalence tests can run the unfused
//! expansions as their oracle. [`Exec::gru_step`] is per-gate on both
//! engines.
//!
//! The tape records every composite as its primitive ops except one:
//! [`Tape`] overrides [`Exec::gru_unroll`] with a single autodiff node for
//! the whole recurrence ([`Tape::gru_unroll`]). Its forward is the same
//! kernel `ValueExec` runs (`kernels::gru_unroll`), split over row blocks
//! and keeping the activations its backward needs; values *and gradients*
//! are bit-identical to the per-step ops it replaces
//! (`crates/tensor/tests/parallel_determinism.rs` pins both, and the
//! tape-free unroll's values, at 1, 2 and 4 threads).

use std::cell::Cell;

use crate::matrix::Matrix;
use crate::params::{ParamId, Params};
use crate::tape::{Tape, Var};

pub use crate::arena;

/// Shared forward kernels. Every function here is the *single* definition of
/// its op's arithmetic: [`Tape`]'s op constructors call these to compute node
/// values, and [`ValueExec`] calls them directly. Keeping one body per op is
/// what makes the tape and value engines bit-identical by construction.
pub(crate) mod kernels {
    use crate::backend;
    use crate::matrix::Matrix;
    use crate::params::{ParamId, Params};
    use crate::tape::sigmoid;

    /// Fused embedding encode: gathers each field's table rows and the dense
    /// block straight into the concatenated output. Pure row copies into the
    /// same positions the unfused gather-then-concat sequence writes, so the
    /// result is bitwise identical while skipping every intermediate
    /// per-field matrix and the staged concat copies.
    // The row index `r` addresses three containers at once; an iterator
    // over any single one of them would obscure that symmetry.
    #[allow(clippy::needless_range_loop)]
    pub fn gather_concat(
        params: &Params,
        tables: &[ParamId],
        ids: &[Vec<usize>],
        dense: &Matrix,
    ) -> Matrix {
        assert_eq!(tables.len(), ids.len(), "gather_concat field count");
        let batch = dense.rows();
        let emb_w: usize = tables.iter().map(|&t| params.value(t).cols()).sum();
        let mut out = Matrix::uninit(batch, emb_w + dense.cols());
        for r in 0..batch {
            let row = out.row_mut(r);
            let mut off = 0;
            for (f, &t) in tables.iter().enumerate() {
                let tab = params.value(t);
                let w = tab.cols();
                row[off..off + w].copy_from_slice(tab.row(ids[f][r]));
                off += w;
            }
            row[off..].copy_from_slice(dense.row(r));
        }
        out
    }

    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        a.matmul(b)
    }

    /// Fused `x·W + b` (bias seeds the matmul accumulators).
    pub fn linear(x: &Matrix, w: &Matrix, b: &Matrix) -> Matrix {
        x.matmul_bias(w, b)
    }

    pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
        a.zip_map(b, |x, y| x + y)
    }

    pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
        a.zip_map(b, |x, y| x - y)
    }

    pub fn mul(a: &Matrix, b: &Matrix) -> Matrix {
        a.zip_map(b, |x, y| x * y)
    }

    /// Fused `a ∘ b + c` in one pass. Per element this is `a*b + c` — the
    /// same two operations, in the same order, as the unfused mul-then-add,
    /// so the fused kernel is bitwise identical.
    pub fn mul_add(a: &Matrix, b: &Matrix, c: &Matrix) -> Matrix {
        assert_eq!(a.shape(), b.shape(), "mul_add shape mismatch");
        assert_eq!(a.shape(), c.shape(), "mul_add shape mismatch");
        let mut out = Matrix::uninit(a.rows(), a.cols());
        for (((o, &x), &y), &z) in out
            .data_mut()
            .iter_mut()
            .zip(a.data())
            .zip(b.data())
            .zip(c.data())
        {
            *o = x * y + z;
        }
        out
    }

    /// `(m×n) + (1×n)` broadcast over rows.
    pub fn add_row(a: &Matrix, bias: &Matrix) -> Matrix {
        let (m, n) = a.shape();
        assert_eq!(bias.shape(), (1, n), "add_row shape mismatch");
        let mut out = Matrix::uninit(m, n);
        for r in 0..m {
            for ((o, &x), &b) in out.row_mut(r).iter_mut().zip(a.row(r)).zip(bias.row(0)) {
                *o = x + b;
            }
        }
        out
    }

    /// `(m×n) ∘ (m×1)` broadcast over columns.
    pub fn mul_col(a: &Matrix, col: &Matrix) -> Matrix {
        let (m, n) = a.shape();
        assert_eq!(col.shape(), (m, 1), "mul_col shape mismatch");
        let mut out = Matrix::uninit(m, n);
        for r in 0..m {
            let s = col.get(r, 0);
            for (o, &x) in out.row_mut(r).iter_mut().zip(a.row(r)) {
                *o = x * s;
            }
        }
        out
    }

    /// `y = mul·x + add` element-wise.
    pub fn affine(x: &Matrix, mul: f32, add: f32) -> Matrix {
        x.map(|v| mul * v + add)
    }

    pub fn sigmoid_map(x: &Matrix) -> Matrix {
        x.map(sigmoid)
    }

    pub fn tanh_map(x: &Matrix) -> Matrix {
        x.map(f32::tanh)
    }

    pub fn relu_map(x: &Matrix) -> Matrix {
        x.map(|v| v.max(0.0))
    }

    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        Matrix::concat_cols(parts)
    }

    pub fn slice_cols(x: &Matrix, start: usize, end: usize) -> Matrix {
        x.slice_cols(start, end)
    }

    /// Row-major reinterpretation (a pooled copy; data order unchanged).
    pub fn reshape(x: &Matrix, rows: usize, cols: usize) -> Matrix {
        assert_eq!(x.len(), rows * cols, "reshape element-count mismatch");
        let mut value = Matrix::uninit(rows, cols);
        value.data_mut().copy_from_slice(x.data());
        value
    }

    /// `(m×n) → (m×1)` summing each row.
    pub fn row_sum(x: &Matrix) -> Matrix {
        Matrix::from_fn(x.rows(), 1, |r, _| x.row(r).iter().sum())
    }

    /// Row-wise softmax (max-subtracted for stability).
    pub fn softmax_rows(v: &Matrix) -> Matrix {
        let mut value = Matrix::uninit(v.rows(), v.cols());
        for r in 0..v.rows() {
            let row = v.row(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for (o, &x) in value.row_mut(r).iter_mut().zip(row) {
                *o = (x - max).exp();
                denom += *o;
            }
            for o in value.row_mut(r) {
                *o /= denom;
            }
        }
        value
    }

    /// Fused scale-then-softmax: one pass instead of materialising the
    /// scaled matrix. Per element it replays `affine(x, s, 0.0)` followed by
    /// [`softmax_rows`] exactly (`s·x + 0.0`, same max/exp/divide order), so
    /// it is bit-identical to the unfused pair.
    pub fn softmax_rows_scaled(v: &Matrix, s: f32) -> Matrix {
        let mut value = Matrix::uninit(v.rows(), v.cols());
        for r in 0..v.rows() {
            let row = v.row(r);
            let max = row
                .iter()
                .map(|&x| s * x + 0.0)
                .fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for (o, &x) in value.row_mut(r).iter_mut().zip(row) {
                *o = ((s * x + 0.0) - max).exp();
                denom += *o;
            }
            for o in value.row_mut(r) {
                *o /= denom;
            }
        }
        value
    }

    /// Batched matrix product over 3-D tensors packed as 2-D matrices; see
    /// [`crate::tape::Tape::batched_matmul`] for the packing convention.
    pub fn batched_matmul(a: &Matrix, b: &Matrix, batch: usize, trans_b: bool) -> Matrix {
        assert!(batch > 0 && a.rows().is_multiple_of(batch) && b.rows().is_multiple_of(batch));
        let m = a.rows() / batch;
        let p = a.cols();
        let (n, out_cols);
        if trans_b {
            assert_eq!(b.cols(), p, "batched_matmul(trans_b) inner dim");
            n = b.rows() / batch;
            out_cols = n;
        } else {
            assert_eq!(b.rows() / batch, p, "batched_matmul inner dim");
            n = b.cols();
            out_cols = n;
        }
        let mut out = Matrix::uninit(batch * m, out_cols);
        backend::batched_matmul(batch, m, p, n, trans_b, a.data(), b.data(), out.data_mut());
        out
    }

    /// A region's row plan: `(rows, flops)` → its worker count and row
    /// ranges `(first_row, row_count)`, as `backend::row_chunks` returns.
    pub type RowPlan = fn(usize, usize) -> (usize, Vec<(usize, usize)>);

    /// What a kept [`gru_unroll`] returns for the tape's backward pass: every
    /// step's gate activations `[r|z|n]` (`batch × 3·hidden`) and `h·U_n`
    /// (`batch × hidden`).
    pub type GruKept = (Vec<Matrix>, Vec<Matrix>);

    /// The fused masked GRU unroll both engines run. Per step and batch
    /// row: `x·[W_r|W_z|W_n] + b`, `h·[U_r|U_z|U_n]`, then one element-wise
    /// pass of the gates and the mask blend `h'∘m + h∘(1−m)`. Batch rows
    /// never interact, so each row block of `plan(rows, flops)` runs the
    /// whole recurrence on its own rows, in one region. Returns every
    /// step's state, and with `keep` the [`GruKept`] activations (else one
    /// gate buffer serves every step). `gates` are `[w_r, u_r, b_r, w_z,
    /// u_z, b_z, w_n, u_n, b_n]`.
    ///
    /// Bit-identical to the per-gate ops of [`crate::exec::Exec::gru_step`]
    /// for any plan: each GEMM element keeps its k-ascending sum, and the
    /// element-wise pass replays the unfused ops (`1 − v` as the `affine`
    /// form `-1.0 * v + 1.0`). Not at `hidden ≤ 1`, where the per-gate
    /// GEMMs take the `n == 1` lane kernel; callers fall back there.
    #[allow(clippy::neg_multiply)]
    pub fn gru_unroll(
        gates: [&Matrix; 9],
        h0: &Matrix,
        xs: &[&Matrix],
        masks: &[&Matrix],
        plan: RowPlan,
        keep: bool,
    ) -> (Vec<Matrix>, Option<GruKept>) {
        assert_eq!(
            xs.len(),
            masks.len(),
            "gru_unroll: xs/masks length mismatch"
        );
        let [w_r, u_r, b_r, w_z, u_z, b_z, w_n, u_n, b_n] = gates;
        let (steps, (batch, hidden), in_dim) = (xs.len(), h0.shape(), w_r.rows());
        let h3 = 3 * hidden;
        assert_eq!(u_r.cols(), hidden, "gru_unroll: h0 width");
        for (t, (x, m)) in xs.iter().zip(masks).enumerate() {
            assert_eq!(x.shape(), (batch, in_dim), "gru_unroll: step {t} input");
            assert_eq!(m.shape(), (batch, 1), "gru_unroll: step {t} mask");
        }
        let w = concat_cols(&[w_r, w_z, w_n]);
        let u = concat_cols(&[u_r, u_z, u_n]);
        let b = concat_cols(&[b_r, b_z, b_n]);
        let per_step = |n: usize, width: usize| -> Vec<Matrix> {
            (0..n).map(|_| Matrix::uninit(batch, width)).collect()
        };
        let kept = if keep { steps } else { 0 };
        let (mut acts, mut hu_n, mut states) = (
            per_step(kept.max(1), h3),
            per_step(kept, hidden),
            per_step(steps, hidden),
        );
        let mut hu = Matrix::uninit(batch, h3);
        let x_d: Vec<&[f32]> = xs.iter().map(|x| x.data()).collect();
        let m_d: Vec<&[f32]> = masks.iter().map(|m| m.data()).collect();
        let (w_d, u_d, b_d, h0_d) = (w.data(), u.data(), b.data(), h0.data());
        let mode = backend::kernel_mode();
        let (workers, chunks) = plan(batch, steps * batch * (in_dim + hidden) * h3);
        let n_acts = acts.len();
        // Each block's rows of the gate buffers, `h·U_n`, every step's
        // state, then of the `h·U` scratch.
        let bufs = (acts.iter_mut().map(|m| (m.data_mut(), h3)))
            .chain(hu_n.iter_mut().map(|m| (m.data_mut(), hidden)))
            .chain(states.iter_mut().map(|m| (m.data_mut(), hidden)))
            .chain([(hu.data_mut(), h3)]);
        let parts: Vec<_> = chunks
            .iter()
            .zip(backend::split_bufs(bufs, &chunks))
            .collect();
        backend::par_parts(parts, workers, &|(&(r0, n), mut rows)| {
            let (g, rest) = rows.split_at_mut(n_acts);
            let (hn, rest) = rest.split_at_mut(kept);
            let (st, hu) = rest.split_at_mut(steps);
            let hu = &mut *hu[0];
            for t in 0..steps {
                let g = &mut *g[t.min(n_acts - 1)];
                backend::matmul_bias_chunk(mode, x_d[t], w_d, b_d, in_dim, h3, r0, g);
                let (done, rest) = st.split_at_mut(t);
                let hp: &[f32] = match done.last() {
                    Some(prev) => prev,
                    None => &h0_d[r0 * hidden..][..n * hidden],
                };
                backend::matmul_chunk(mode, hp, u_d, hidden, h3, 0, hu);
                for i in 0..n {
                    let (mv, row) = (m_d[t][r0 + i], i * hidden);
                    let inv = -1.0 * mv + 1.0;
                    let (g, hur) = (&mut g[i * h3..][..h3], &hu[i * h3..][..h3]);
                    for j in 0..hidden {
                        let (h, k, l) = (hp[row + j], hidden + j, 2 * hidden + j);
                        let r = sigmoid(g[j] + hur[j]);
                        let z = sigmoid(g[k] + hur[k]);
                        let nn = (g[l] + r * hur[l]).tanh();
                        (g[j], g[k], g[l]) = (r, z, nn);
                        rest[0][row + j] = (z * h + (-1.0 * z + 1.0) * nn) * mv + h * inv;
                    }
                }
                if let Some(hn) = hn.get_mut(t) {
                    for (dst, src) in hn.chunks_exact_mut(hidden).zip(hu.chunks_exact(h3)) {
                        dst.copy_from_slice(&src[2 * hidden..]);
                    }
                }
            }
        });
        (states, keep.then_some((acts, hu_n)))
    }
}

// ----------------------------------------------------------- fusion config

thread_local! {
    static FUSION: Cell<bool> = const { Cell::new(true) };
    static PARAM_MATERIALIZATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` with fusion force-enabled or force-disabled for every
/// [`ValueExec::new`] on this thread (scoped, panic-safe). A test-only
/// selector: outside it, fusion is on.
pub fn with_fusion<R>(on: bool, f: impl FnOnce() -> R) -> R {
    crate::backend::with_cell(&FUSION, on, f)
}

/// Inference-engine counters for the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Parameter matrices deep-copied by [`ValueExec::param`]. Hoisted layer
    /// vars make this independent of sequence length, and frozen (shared)
    /// serving params don't count at all — their clones are O(1) handle
    /// copies. The regression counter for per-step/per-batch param memcpys.
    pub param_materializations: u64,
}

/// Snapshot of this thread's [`ExecStats`].
pub fn exec_stats() -> ExecStats {
    ExecStats {
        param_materializations: PARAM_MATERIALIZATIONS.with(Cell::get),
    }
}

/// Zeroes this thread's [`ExecStats`].
pub fn reset_exec_stats() {
    PARAM_MATERIALIZATIONS.with(|c| c.set(0));
}

// -------------------------------------------------------------- fusion types

/// Activation selector for the fused dense layer [`Exec::linear_act`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActKind {
    None,
    Relu,
    Tanh,
    Sigmoid,
}

/// A GRU's nine per-gate parameter handles in the fixed `r, z, n` gate
/// order, pushed into a context once per forward and shared by every step.
#[derive(Debug, Clone)]
pub struct GruVars<V> {
    pub(crate) w_r: V,
    pub(crate) u_r: V,
    pub(crate) b_r: V,
    pub(crate) w_z: V,
    pub(crate) u_z: V,
    pub(crate) b_z: V,
    pub(crate) w_n: V,
    pub(crate) u_n: V,
    pub(crate) b_n: V,
}

impl<V> GruVars<V> {
    /// Wraps the nine handles `[w_r, u_r, b_r, w_z, u_z, b_z, w_n, u_n, b_n]`.
    pub fn new(handles: [V; 9]) -> Self {
        let [w_r, u_r, b_r, w_z, u_z, b_z, w_n, u_n, b_n] = handles;
        GruVars {
            w_r,
            u_r,
            b_r,
            w_z,
            u_z,
            b_z,
            w_n,
            u_n,
            b_n,
        }
    }

    /// The nine handles in [`GruVars::new`]'s order.
    pub(crate) fn handles(&self) -> [&V; 9] {
        [
            &self.w_r, &self.u_r, &self.b_r, &self.w_z, &self.u_z, &self.b_z, &self.w_n, &self.u_n,
            &self.b_n,
        ]
    }
}

/// The per-step GRU unroll: [`Exec::gru_step`] with each step's mask, from
/// `h0`, returning the state after every step. This is [`Exec::gru_unroll`]'s
/// default body; it is public so the tape's one-node override can be
/// checked against it on the same engine.
pub fn gru_unroll_steps<E: Exec + ?Sized>(
    exec: &mut E,
    vars: &GruVars<E::V>,
    h0: &E::V,
    xs: &[E::V],
    masks: &[E::V],
) -> Vec<E::V> {
    assert_eq!(
        xs.len(),
        masks.len(),
        "gru_unroll: xs/masks length mismatch"
    );
    let mut states: Vec<E::V> = Vec::with_capacity(xs.len());
    for (x, m) in xs.iter().zip(masks) {
        let next = exec.gru_step(vars, x, states.last().unwrap_or(h0), Some(m));
        states.push(next);
    }
    states
}

/// An execution context for forward passes.
///
/// `V` is the context's value handle: [`Var`] on a [`Tape`] (a node index
/// whose value lives on the tape), a plain [`Matrix`] under [`ValueExec`].
/// Layers take handles by reference and return fresh handles, so one generic
/// forward body serves both training and tape-free inference.
pub trait Exec {
    /// Value handle (`Var` on the tape, `Matrix` tape-free).
    type V: Clone;

    /// A constant leaf (inputs, masks, …). Never receives gradient.
    fn input(&mut self, value: Matrix) -> Self::V;

    /// A trainable-parameter leaf snapshotted from `params`.
    fn param(&mut self, params: &Params, id: ParamId) -> Self::V;

    /// Gathers `rows` of parameter table `id` (embedding lookup).
    fn gather(&mut self, params: &Params, id: ParamId, rows: &[usize]) -> Self::V;

    /// The forward value behind a handle.
    fn value<'a>(&'a self, x: &'a Self::V) -> &'a Matrix;

    /// Matrix product.
    fn matmul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;

    /// Fused dense layer `x·W + b`.
    fn linear(&mut self, x: &Self::V, w: &Self::V, b: &Self::V) -> Self::V;

    /// Batched matrix product over packed 3-D tensors
    /// (see [`Tape::batched_matmul`] for the packing convention).
    fn batched_matmul(&mut self, a: &Self::V, b: &Self::V, batch: usize, trans_b: bool) -> Self::V;

    /// Element-wise sum.
    fn add(&mut self, a: &Self::V, b: &Self::V) -> Self::V;

    /// Element-wise difference.
    fn sub(&mut self, a: &Self::V, b: &Self::V) -> Self::V;

    /// Element-wise (Hadamard) product.
    fn mul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;

    /// Element-wise square.
    fn square(&mut self, x: &Self::V) -> Self::V {
        self.mul(&x.clone(), x)
    }

    /// Adds a `1×n` row vector to every row of an `m×n` matrix (bias add).
    fn add_row(&mut self, a: &Self::V, row: &Self::V) -> Self::V;

    /// Multiplies every row of an `m×n` matrix by the matching entry of an
    /// `m×1` column (per-sample mask/weight).
    fn mul_col(&mut self, a: &Self::V, col: &Self::V) -> Self::V;

    /// `y = mul·x + add` element-wise.
    fn affine(&mut self, x: &Self::V, mul: f32, add: f32) -> Self::V;

    /// `1 − x` element-wise.
    fn one_minus(&mut self, x: &Self::V) -> Self::V {
        self.affine(x, -1.0, 1.0)
    }

    /// `s · x`.
    fn scale(&mut self, x: &Self::V, s: f32) -> Self::V {
        self.affine(x, s, 0.0)
    }

    fn sigmoid(&mut self, x: &Self::V) -> Self::V;

    fn tanh(&mut self, x: &Self::V) -> Self::V;

    fn relu(&mut self, x: &Self::V) -> Self::V;

    /// Horizontal concatenation (parts are borrowed: no engine needs to
    /// deep-copy a `Matrix` just to concatenate it).
    fn concat_cols(&mut self, parts: &[&Self::V]) -> Self::V;

    /// Copies out columns `[start, end)`.
    fn slice_cols(&mut self, x: &Self::V, start: usize, end: usize) -> Self::V;

    /// Row-major reshape.
    fn reshape(&mut self, x: &Self::V, rows: usize, cols: usize) -> Self::V;

    /// Per-row sum: `(m×n) → (m×1)`.
    fn row_sum(&mut self, x: &Self::V) -> Self::V;

    /// Row-wise softmax.
    fn softmax_rows(&mut self, x: &Self::V) -> Self::V;

    // ------------------------------------------------------ fusable composites

    /// Dense layer followed by an activation. The default expands to
    /// [`Exec::linear`] + the activation op (what the tape records);
    /// [`ValueExec`] fuses the activation into the GEMM output pass.
    fn linear_act(&mut self, x: &Self::V, w: &Self::V, b: &Self::V, act: ActKind) -> Self::V {
        let y = self.linear(x, w, b);
        match act {
            ActKind::None => y,
            ActKind::Relu => self.relu(&y),
            ActKind::Tanh => self.tanh(&y),
            ActKind::Sigmoid => self.sigmoid(&y),
        }
    }

    /// Embedding encode: gathers each field's rows from its table and
    /// concatenates them with the dense block,
    /// `[T₀[ids₀] | … | T_F[ids_F] | dense]`. The default expands to
    /// per-field [`Exec::gather`]s + [`Exec::input`] + one
    /// [`Exec::concat_cols`] (preserving gradient flow into every table on
    /// the tape); [`ValueExec`] fuses the whole encode into one write of the
    /// output buffer — pure row copies, so bitwise identical.
    fn gather_concat(
        &mut self,
        params: &Params,
        tables: &[ParamId],
        ids: &[Vec<usize>],
        dense: &Matrix,
    ) -> Self::V {
        let mut parts: Vec<Self::V> = tables
            .iter()
            .zip(ids)
            .map(|(&t, i)| self.gather(params, t, i))
            .collect();
        parts.push(self.input(dense.clone()));
        let refs: Vec<&Self::V> = parts.iter().collect();
        self.concat_cols(&refs)
    }

    /// `a ∘ b + c` element-wise (the DCN cross-layer residual pattern).
    /// The default expands to [`Exec::mul`] + [`Exec::add`] (what the tape
    /// records); [`ValueExec`] fuses both into a single pass, which is
    /// bitwise identical because each element is `a*b + c` either way.
    fn mul_add(&mut self, a: &Self::V, b: &Self::V, c: &Self::V) -> Self::V {
        let t = self.mul(a, b);
        self.add(&t, c)
    }

    /// `softmax_rows(s · x)`. The default expands to [`Exec::scale`] +
    /// [`Exec::softmax_rows`]; [`ValueExec`] fuses the scale into the
    /// softmax's max/exp passes.
    fn softmax_rows_scaled(&mut self, x: &Self::V, s: f32) -> Self::V {
        let y = self.scale(x, s);
        self.softmax_rows(&y)
    }

    /// One GRU step (`x`: `batch × in`, `h`: `batch × hidden`), optionally
    /// mask-blended (`mask`: `batch × 1`, 1 = real step, 0 = padding that
    /// carries `h` forward): `r = σ(x·W_r+b_r + h·U_r)`,
    /// `z = σ(x·W_z+b_z + h·U_z)`, `n = tanh(x·W_n+b_n + r∘(h·U_n))`,
    /// `h' = z∘h + (1−z)∘n`, then `h'∘m + h∘(1−m)`. The per-gate op
    /// sequence — six GEMMs and the element-wise ops, one tape node each —
    /// is the reference the fused unroll ([`Exec::gru_unroll`]) replays.
    fn gru_step(
        &mut self,
        vars: &GruVars<Self::V>,
        x: &Self::V,
        h: &Self::V,
        mask: Option<&Self::V>,
    ) -> Self::V {
        let xwb = self.linear(x, &vars.w_r, &vars.b_r);
        let hu = self.matmul(h, &vars.u_r);
        let r = self.add(&xwb, &hu);
        let r = self.sigmoid(&r);
        let xwb = self.linear(x, &vars.w_z, &vars.b_z);
        let hu = self.matmul(h, &vars.u_z);
        let z = self.add(&xwb, &hu);
        let z = self.sigmoid(&z);
        // Candidate with reset applied to the recurrent term.
        let xwb = self.linear(x, &vars.w_n, &vars.b_n);
        let hu = self.matmul(h, &vars.u_n);
        let rhu = self.mul(&r, &hu);
        let pre = self.add(&xwb, &rhu);
        let n = self.tanh(&pre);
        // h' = z∘h + (1−z)∘n
        let zh = self.mul(&z, h);
        let omz = self.one_minus(&z);
        let zn = self.mul(&omz, &n);
        let cand = self.add(&zh, &zn);
        match mask {
            None => cand,
            Some(m) => {
                let kept = self.mul_col(&cand, m);
                let inv = self.one_minus(m);
                let carried = self.mul_col(h, &inv);
                self.add(&kept, &carried)
            }
        }
    }

    /// Unrolls a GRU over `xs` (each `batch × in`) with constant per-step
    /// masks (`batch × 1`) from `h0`, returning the state after each step.
    /// The default is the per-step loop ([`gru_unroll_steps`]). Both
    /// engines override it with the one fused unroll kernel, bit-identical
    /// to that loop: [`Tape`] records it as one node whose forward and
    /// backward each run as one parallel region over the batch rows (see
    /// [`Tape::gru_unroll`]); [`ValueExec`] runs it as one row block on the
    /// calling thread, keeping no activations.
    fn gru_unroll(
        &mut self,
        vars: &GruVars<Self::V>,
        h0: &Self::V,
        xs: &[Self::V],
        masks: &[Self::V],
    ) -> Vec<Self::V> {
        gru_unroll_steps(self, vars, h0, xs, masks)
    }
}

/// The training engine: every op records an autodiff node (see [`Tape`]'s
/// inherent methods, which this impl delegates to one-for-one).
impl Exec for Tape {
    type V = Var;

    fn input(&mut self, value: Matrix) -> Var {
        Tape::input(self, value)
    }

    fn param(&mut self, params: &Params, id: ParamId) -> Var {
        Tape::param(self, params, id)
    }

    fn gather(&mut self, params: &Params, id: ParamId, rows: &[usize]) -> Var {
        Tape::gather(self, params, id, rows)
    }

    fn value<'a>(&'a self, x: &'a Var) -> &'a Matrix {
        Tape::value(self, *x)
    }

    fn matmul(&mut self, a: &Var, b: &Var) -> Var {
        Tape::matmul(self, *a, *b)
    }

    fn linear(&mut self, x: &Var, w: &Var, b: &Var) -> Var {
        Tape::linear(self, *x, *w, *b)
    }

    fn batched_matmul(&mut self, a: &Var, b: &Var, batch: usize, trans_b: bool) -> Var {
        Tape::batched_matmul(self, *a, *b, batch, trans_b)
    }

    fn add(&mut self, a: &Var, b: &Var) -> Var {
        Tape::add(self, *a, *b)
    }

    fn sub(&mut self, a: &Var, b: &Var) -> Var {
        Tape::sub(self, *a, *b)
    }

    fn mul(&mut self, a: &Var, b: &Var) -> Var {
        Tape::mul(self, *a, *b)
    }

    fn square(&mut self, x: &Var) -> Var {
        Tape::square(self, *x)
    }

    fn add_row(&mut self, a: &Var, row: &Var) -> Var {
        Tape::add_row(self, *a, *row)
    }

    fn mul_col(&mut self, a: &Var, col: &Var) -> Var {
        Tape::mul_col(self, *a, *col)
    }

    fn affine(&mut self, x: &Var, mul: f32, add: f32) -> Var {
        Tape::affine(self, *x, mul, add)
    }

    fn sigmoid(&mut self, x: &Var) -> Var {
        Tape::sigmoid(self, *x)
    }

    fn tanh(&mut self, x: &Var) -> Var {
        Tape::tanh(self, *x)
    }

    fn relu(&mut self, x: &Var) -> Var {
        Tape::relu(self, *x)
    }

    fn concat_cols(&mut self, parts: &[&Var]) -> Var {
        let vars: Vec<Var> = parts.iter().map(|p| **p).collect();
        Tape::concat_cols(self, &vars)
    }

    fn slice_cols(&mut self, x: &Var, start: usize, end: usize) -> Var {
        Tape::slice_cols(self, *x, start, end)
    }

    fn reshape(&mut self, x: &Var, rows: usize, cols: usize) -> Var {
        Tape::reshape(self, *x, rows, cols)
    }

    fn row_sum(&mut self, x: &Var) -> Var {
        Tape::row_sum(self, *x)
    }

    fn softmax_rows(&mut self, x: &Var) -> Var {
        Tape::softmax_rows(self, *x)
    }

    fn gru_unroll(&mut self, vars: &GruVars<Var>, h0: &Var, xs: &[Var], masks: &[Var]) -> Vec<Var> {
        Tape::gru_unroll(self, vars, *h0, xs, masks)
    }
}

/// The serving engine: ops evaluate directly on [`Matrix`] values through the
/// same kernels the tape uses, with no node allocation and no gradient state.
/// Bit-identical to the tape forward by construction.
///
/// The only state is the fusion flag, snapshotted at construction (on
/// unless a test scopes [`with_fusion`]): when set, the fusable composites
/// ([`Exec::linear_act`], [`Exec::mul_add`], [`Exec::softmax_rows_scaled`],
/// [`Exec::gather_concat`]) and [`Exec::gru_unroll`] run single-pass fused
/// kernels that are bit-identical to their unfused expansions. The GRU
/// unroll is the tape node's own forward kernel, run as one row block on
/// the calling thread and keeping no activations.
#[derive(Debug, Clone, Copy)]
pub struct ValueExec {
    fused: bool,
}

impl ValueExec {
    /// A fusing engine, unless a [`with_fusion`] scope on this thread says
    /// otherwise.
    pub fn new() -> Self {
        ValueExec {
            fused: FUSION.with(Cell::get),
        }
    }
}

impl Default for ValueExec {
    fn default() -> Self {
        ValueExec::new()
    }
}

impl Exec for ValueExec {
    type V = Matrix;

    fn input(&mut self, value: Matrix) -> Matrix {
        value
    }

    fn param(&mut self, params: &Params, id: ParamId) -> Matrix {
        let v = params.value(id);
        if !v.is_shared() {
            // Frozen serving params clone as shared handles — only genuine
            // deep copies count against the materialization budget.
            PARAM_MATERIALIZATIONS.with(|c| c.set(c.get() + 1));
        }
        v.clone()
    }

    fn gather(&mut self, params: &Params, id: ParamId, rows: &[usize]) -> Matrix {
        params.value(id).gather_rows(rows)
    }

    fn value<'a>(&'a self, x: &'a Matrix) -> &'a Matrix {
        x
    }

    fn matmul(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        kernels::matmul(a, b)
    }

    fn linear(&mut self, x: &Matrix, w: &Matrix, b: &Matrix) -> Matrix {
        kernels::linear(x, w, b)
    }

    fn batched_matmul(&mut self, a: &Matrix, b: &Matrix, batch: usize, trans_b: bool) -> Matrix {
        kernels::batched_matmul(a, b, batch, trans_b)
    }

    fn add(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        kernels::add(a, b)
    }

    fn sub(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        kernels::sub(a, b)
    }

    fn mul(&mut self, a: &Matrix, b: &Matrix) -> Matrix {
        kernels::mul(a, b)
    }

    fn square(&mut self, x: &Matrix) -> Matrix {
        kernels::mul(x, x)
    }

    fn add_row(&mut self, a: &Matrix, row: &Matrix) -> Matrix {
        kernels::add_row(a, row)
    }

    fn mul_col(&mut self, a: &Matrix, col: &Matrix) -> Matrix {
        kernels::mul_col(a, col)
    }

    fn affine(&mut self, x: &Matrix, mul: f32, add: f32) -> Matrix {
        kernels::affine(x, mul, add)
    }

    fn sigmoid(&mut self, x: &Matrix) -> Matrix {
        kernels::sigmoid_map(x)
    }

    fn tanh(&mut self, x: &Matrix) -> Matrix {
        kernels::tanh_map(x)
    }

    fn relu(&mut self, x: &Matrix) -> Matrix {
        kernels::relu_map(x)
    }

    fn concat_cols(&mut self, parts: &[&Matrix]) -> Matrix {
        kernels::concat_cols(parts)
    }

    fn slice_cols(&mut self, x: &Matrix, start: usize, end: usize) -> Matrix {
        kernels::slice_cols(x, start, end)
    }

    fn reshape(&mut self, x: &Matrix, rows: usize, cols: usize) -> Matrix {
        kernels::reshape(x, rows, cols)
    }

    fn row_sum(&mut self, x: &Matrix) -> Matrix {
        kernels::row_sum(x)
    }

    fn softmax_rows(&mut self, x: &Matrix) -> Matrix {
        kernels::softmax_rows(x)
    }

    fn linear_act(&mut self, x: &Matrix, w: &Matrix, b: &Matrix, act: ActKind) -> Matrix {
        let mut y = kernels::linear(x, w, b);
        if self.fused {
            // In-place activation on the GEMM output: one matrix instead of
            // two, same per-element functions as the unfused maps.
            match act {
                ActKind::None => {}
                ActKind::Relu => y.apply(|v| v.max(0.0)),
                ActKind::Tanh => y.apply(f32::tanh),
                ActKind::Sigmoid => y.apply(crate::tape::sigmoid),
            }
            y
        } else {
            match act {
                ActKind::None => y,
                ActKind::Relu => kernels::relu_map(&y),
                ActKind::Tanh => kernels::tanh_map(&y),
                ActKind::Sigmoid => kernels::sigmoid_map(&y),
            }
        }
    }

    fn gather_concat(
        &mut self,
        params: &Params,
        tables: &[ParamId],
        ids: &[Vec<usize>],
        dense: &Matrix,
    ) -> Matrix {
        if self.fused {
            kernels::gather_concat(params, tables, ids, dense)
        } else {
            let mut parts: Vec<Matrix> = tables
                .iter()
                .zip(ids)
                .map(|(&t, i)| params.value(t).gather_rows(i))
                .collect();
            parts.push(dense.clone());
            kernels::concat_cols(&parts.iter().collect::<Vec<_>>())
        }
    }

    fn mul_add(&mut self, a: &Matrix, b: &Matrix, c: &Matrix) -> Matrix {
        if self.fused {
            kernels::mul_add(a, b, c)
        } else {
            let t = kernels::mul(a, b);
            kernels::add(&t, c)
        }
    }

    fn softmax_rows_scaled(&mut self, x: &Matrix, s: f32) -> Matrix {
        if self.fused {
            kernels::softmax_rows_scaled(x, s)
        } else {
            let y = kernels::affine(x, s, 0.0);
            kernels::softmax_rows(&y)
        }
    }

    fn gru_unroll(
        &mut self,
        vars: &GruVars<Matrix>,
        h0: &Matrix,
        xs: &[Matrix],
        masks: &[Matrix],
    ) -> Vec<Matrix> {
        // The per-gate steps stay the reference with fusion off, and where
        // the fused kernel is not bit-identical (`hidden ≤ 1`) or idle.
        if !self.fused || vars.u_r.cols() <= 1 || xs.is_empty() {
            return gru_unroll_steps(self, vars, h0, xs, masks);
        }
        let xs: Vec<&Matrix> = xs.iter().collect();
        let masks: Vec<&Matrix> = masks.iter().collect();
        // One row block on the calling thread (DESIGN §13.2): Algorithm 1's
        // propensity-phase producer runs this beside the fitting thread and
        // must not fan out on top of it.
        let one_block = |rows, _| (1, vec![(0, rows)]);
        kernels::gru_unroll(vars.handles(), h0, &xs, &masks, one_block, false).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Runs one composite expression through both engines and compares
    /// bitwise — every op of the vocabulary appears at least once.
    fn run_all_ops<E: Exec>(exec: &mut E, params: &Params, ids: &[ParamId]) -> Vec<Matrix> {
        let x = exec.input(Matrix::from_vec(
            4,
            3,
            vec![
                0.5, -1.0, 2.0, 3.0, 0.0, -0.5, 1.5, 2.5, -2.0, 0.1, 0.2, 0.3,
            ],
        ));
        let w = exec.param(params, ids[0]);
        let b = exec.param(params, ids[1]);
        let col = exec.input(Matrix::col_vector(&[1.0, 0.0, 0.5, 2.0]));
        let g = exec.gather(params, ids[2], &[0, 2, 1, 0]);

        let mm = exec.matmul(&x, &w);
        let lin = exec.linear(&x, &w, &b);
        let la = exec.linear_act(&x, &w, &b, ActKind::Tanh);
        let sum = exec.add(&mm, &lin);
        let diff = exec.sub(&sum, &mm);
        let prod = exec.mul(&diff, &lin);
        let fma = exec.mul_add(&prod, &diff, &lin);
        let sq = exec.square(&fma);
        let biased = exec.add_row(&sq, &b);
        let masked = exec.mul_col(&biased, &col);
        let aff = exec.affine(&masked, 0.3, -0.1);
        let om = exec.one_minus(&aff);
        let sc = exec.scale(&om, 1.7);
        let sg = exec.sigmoid(&sc);
        let th = exec.tanh(&sg);
        let re = exec.relu(&th);
        let cat = exec.concat_cols(&[&re, &g]);
        let sl = exec.slice_cols(&cat, 1, 4);
        let rs = exec.reshape(&sl, 3, 4);
        let row = exec.row_sum(&rs);
        let sm = exec.softmax_rows(&rs);
        let sms = exec.softmax_rows_scaled(&rs, 0.37);
        let bm = exec.batched_matmul(&rs, &rs, 1, true);
        let gc = exec.gather_concat(
            params,
            &[ids[2], ids[2]],
            &[vec![0, 2, 1, 0], vec![1, 1, 0, 2]],
            &Matrix::from_vec(4, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]),
        );
        [cat, sl, row, sm, sms, la, bm, gc]
            .iter()
            .map(|v| exec.value(v).clone())
            .collect()
    }

    #[test]
    fn value_exec_matches_tape_bitwise_across_the_op_vocabulary() {
        let mut rng = Rng::seed_from_u64(42);
        let mut params = Params::new();
        let ids = [
            params.add("w", Matrix::randn(3, 2, 1.0, &mut rng)),
            params.add("b", Matrix::randn(1, 2, 1.0, &mut rng)),
            params.add("emb", Matrix::randn(3, 2, 1.0, &mut rng)),
        ];
        let mut tape = Tape::new();
        let tape_out = run_all_ops(&mut tape, &params, &ids);
        for fused in [false, true] {
            let mut vx = with_fusion(fused, ValueExec::new);
            let value_out = run_all_ops(&mut vx, &params, &ids);
            assert_eq!(tape_out.len(), value_out.len());
            for (i, (t, v)) in tape_out.iter().zip(&value_out).enumerate() {
                assert_eq!(t.shape(), v.shape(), "fused={fused}, output {i}");
                assert_eq!(t.data(), v.data(), "fused={fused}, output {i}");
            }
        }
    }

    #[test]
    fn value_exec_is_one_flag_and_ops_are_pure() {
        // ValueExec carries only the fusion flag — no per-op state, nothing
        // heap-allocated — and ops are pure functions of their inputs.
        assert_eq!(std::mem::size_of::<ValueExec>(), 1);
        let mut vx = ValueExec::new();
        let a = vx.input(Matrix::row_vector(&[1.0, 2.0]));
        let b = vx.input(Matrix::row_vector(&[3.0, 4.0]));
        let s1 = vx.add(&a, &b);
        let s2 = vx.add(&a, &b);
        assert_eq!(s1.data(), s2.data());
    }

    #[test]
    fn fused_linear_act_matches_unfused_bitwise() {
        let mut rng = Rng::seed_from_u64(7);
        // Ragged width 13 exercises lane-kernel tails; 1 output unit
        // exercises the n == 1 matvec path.
        for (k, n) in [(13, 5), (32, 13), (9, 1)] {
            let x = Matrix::randn(6, k, 1.0, &mut rng);
            let w = Matrix::randn(k, n, 1.0, &mut rng);
            let b = Matrix::randn(1, n, 1.0, &mut rng);
            for act in [
                ActKind::None,
                ActKind::Relu,
                ActKind::Tanh,
                ActKind::Sigmoid,
            ] {
                let fused = with_fusion(true, ValueExec::new).linear_act(&x, &w, &b, act);
                let unfused = with_fusion(false, ValueExec::new).linear_act(&x, &w, &b, act);
                assert_eq!(fused.data(), unfused.data(), "k={k} n={n} {act:?}");
            }
        }
    }

    #[test]
    fn fused_scaled_softmax_matches_unfused_bitwise() {
        let mut rng = Rng::seed_from_u64(8);
        for cols in [1, 7, 17] {
            let x = Matrix::randn(5, cols, 2.0, &mut rng);
            for s in [0.25, 1.0, -0.6] {
                let fused = with_fusion(true, ValueExec::new).softmax_rows_scaled(&x, s);
                let unfused = with_fusion(false, ValueExec::new).softmax_rows_scaled(&x, s);
                assert_eq!(fused.data(), unfused.data(), "cols={cols} s={s}");
            }
        }
        // All-zero rows hit the ±0.0 corner of the fused max pass.
        let zeros = Matrix::zeros(2, 4);
        let fused = with_fusion(true, ValueExec::new).softmax_rows_scaled(&zeros, 3.0);
        let unfused = with_fusion(false, ValueExec::new).softmax_rows_scaled(&zeros, 3.0);
        assert_eq!(fused.data(), unfused.data());
    }

    #[test]
    fn frozen_params_skip_materialization_count() {
        let mut rng = Rng::seed_from_u64(21);
        let mut params = Params::new();
        let w = params.add("w", Matrix::randn(4, 4, 1.0, &mut rng));
        let mut exec = ValueExec::new();

        reset_exec_stats();
        let deep = exec.param(&params, w);
        let _ = exec.param(&params, w);
        assert_eq!(exec_stats().param_materializations, 2);

        params.freeze();
        reset_exec_stats();
        let shared = exec.param(&params, w);
        let _ = exec.param(&params, w);
        assert_eq!(
            exec_stats().param_materializations,
            0,
            "frozen params must clone as handles, not memcpys"
        );
        assert!(shared.is_shared());
        assert_eq!(shared, deep, "freezing must not change values");
        reset_exec_stats();
    }
}
