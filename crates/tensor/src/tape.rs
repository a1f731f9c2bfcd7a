//! Eager reverse-mode automatic differentiation.
//!
//! A [`Tape`] is rebuilt for every mini-batch. Each op computes its value at
//! construction time and records an enum node; [`Tape::backward`] walks the
//! nodes in reverse topological order (which is simply reverse insertion
//! order) and accumulates gradients, writing parameter gradients into the
//! [`Params`] arena.
//!
//! The op set is deliberately small: exactly what the paper's models need
//! (MLPs, GRUs, FM interactions, DCN cross layers, AutoInt field
//! self-attention) plus one fused, weight-carrying binary-cross-entropy loss
//! that expresses *every* risk in the paper — PN (Eq. 4), NDB (Eq. 5), the
//! unbiased attention risk (Eq. 16), the unbiased propensity risk (Eq. 17)
//! and the downstream re-weighted recommendation risk (Eq. 18) — as different
//! per-example positive/negative weights. One node covers a whole GRU unroll
//! ([`Tape::gru_unroll`], in `tape/gru.rs`); its values and gradients are
//! bit-identical to the per-step ops it stands for.

use crate::backend;
use crate::exec::kernels;
use crate::matrix::Matrix;
use crate::params::{ParamId, Params};

mod gru;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// Numerically stable `ln(1 + e^x)`.
#[inline]
pub fn softplus(x: f32) -> f32 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[derive(Debug)]
enum Op {
    /// Constant leaf (no gradient flows out).
    Input,
    /// Trainable leaf; backward accumulates into `Params`.
    Param(ParamId),
    /// Rows gathered from a (possibly large) parameter table; backward
    /// scatter-adds into the table's gradient without materialising it.
    GatherParam {
        id: ParamId,
        rows: Vec<usize>,
    },
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// `(m×n) + (1×n)` broadcast over rows.
    AddRow(Var, Var),
    /// Fused dense layer `x·W + b` (bias seeds the matmul accumulators).
    Linear {
        x: Var,
        w: Var,
        b: Var,
    },
    /// `(m×n) ∘ (m×1)` broadcast over columns.
    MulCol(Var, Var),
    /// `y = mul·x + add` element-wise; only the slope matters for backward.
    Affine {
        x: Var,
        mul: f32,
    },
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    ConcatCols(Vec<Var>),
    SliceCols {
        x: Var,
        start: usize,
        end: usize,
    },
    /// Row-major reinterpretation; data order unchanged.
    Reshape(Var),
    MeanAll(Var),
    SumAll(Var),
    /// `(m×n) → (m×1)` summing each row.
    RowSum(Var),
    SoftmaxRows(Var),
    /// Batched product of 3-D tensors packed as 2-D (see [`Tape::batched_matmul`]).
    BatMatMul {
        a: Var,
        b: Var,
        batch: usize,
        trans_b: bool,
    },
    /// Fused weighted binary cross-entropy over logits; see
    /// [`Tape::weighted_bce`].
    WeightedBce {
        logits: Var,
        pos_w: Vec<f32>,
        neg_w: Vec<f32>,
        divisor: f32,
        /// Which elements were clamped in the forward pass (zero gradient).
        clamped: Vec<bool>,
    },
    /// A whole masked GRU unroll (see [`Tape::gru_unroll`]); its per-step
    /// states are the [`Op::GruState`] nodes that follow it.
    GruUnroll(Box<gru::GruUnroll>),
    /// The state after one step of the [`Op::GruUnroll`] node before it. Its
    /// gradient stays in place for that node to read.
    GruState,
}

/// Accumulates `delta` into `grads[target]`. Takes ownership — the common
/// first-visit case stores the buffer instead of cloning it; on later visits
/// the delta's buffer returns to the scratch pool.
fn acc(grads: &mut [Option<Matrix>], target: usize, delta: Matrix) {
    match &mut grads[target] {
        Some(g) => g.add_assign(&delta),
        slot @ None => *slot = Some(delta),
    }
}

struct Node {
    value: Matrix,
    op: Op,
}

/// An autodiff tape. Build it per batch, call ops, then [`Tape::backward`].
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    pub fn new() -> Self {
        Tape { nodes: Vec::new() }
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Drops all nodes but keeps the tape's node arena, so a hot loop can
    /// reuse one `Tape` per batch. Dropped node values return their buffers
    /// to the scratch pool.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    // ---------------------------------------------------------------- leaves

    /// A constant leaf (inputs, masks, labels-as-features, …).
    pub fn input(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Input)
    }

    /// A trainable-parameter leaf; its value is snapshotted from `params`.
    pub fn param(&mut self, params: &Params, id: ParamId) -> Var {
        self.push(params.value(id).clone(), Op::Param(id))
    }

    /// Gathers `rows` of the parameter table `id` (embedding lookup).
    pub fn gather(&mut self, params: &Params, id: ParamId, rows: &[usize]) -> Var {
        let value = params.value(id).gather_rows(rows);
        self.push(
            value,
            Op::GatherParam {
                id,
                rows: rows.to_vec(),
            },
        )
    }

    // ------------------------------------------------------------------- ops

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = kernels::matmul(self.value(a), self.value(b));
        self.push(value, Op::MatMul(a, b))
    }

    /// Element-wise sum of two same-shape nodes.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = kernels::add(self.value(a), self.value(b));
        self.push(value, Op::Add(a, b))
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = kernels::sub(self.value(a), self.value(b));
        self.push(value, Op::Sub(a, b))
    }

    /// Element-wise (Hadamard) product. `a` and `b` may be the same node.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = kernels::mul(self.value(a), self.value(b));
        self.push(value, Op::Mul(a, b))
    }

    /// Element-wise square (`mul(x, x)` with correct double-accumulation).
    pub fn square(&mut self, x: Var) -> Var {
        self.mul(x, x)
    }

    /// Adds a `1×n` row vector to every row of an `m×n` matrix (bias add).
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let value = kernels::add_row(self.value(a), self.value(row));
        self.push(value, Op::AddRow(a, row))
    }

    /// Fused dense layer `x·W + b` — one op, one kernel pass; the bias seeds
    /// the matmul accumulators so no broadcast-add copy is made.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let value = kernels::linear(self.value(x), self.value(w), self.value(b));
        self.push(value, Op::Linear { x, w, b })
    }

    /// Multiplies every row of an `m×n` matrix by the matching entry of an
    /// `m×1` column vector (per-sample mask/weight).
    pub fn mul_col(&mut self, a: Var, col: Var) -> Var {
        let value = kernels::mul_col(self.value(a), self.value(col));
        self.push(value, Op::MulCol(a, col))
    }

    /// `y = mul·x + add` element-wise.
    pub fn affine(&mut self, x: Var, mul: f32, add: f32) -> Var {
        let value = kernels::affine(self.value(x), mul, add);
        self.push(value, Op::Affine { x, mul })
    }

    /// `1 − x` element-wise.
    pub fn one_minus(&mut self, x: Var) -> Var {
        self.affine(x, -1.0, 1.0)
    }

    /// `s · x`.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        self.affine(x, s, 0.0)
    }

    pub fn sigmoid(&mut self, x: Var) -> Var {
        let value = kernels::sigmoid_map(self.value(x));
        self.push(value, Op::Sigmoid(x))
    }

    pub fn tanh(&mut self, x: Var) -> Var {
        let value = kernels::tanh_map(self.value(x));
        self.push(value, Op::Tanh(x))
    }

    pub fn relu(&mut self, x: Var) -> Var {
        let value = kernels::relu_map(self.value(x));
        self.push(value, Op::Relu(x))
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let values: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let value = kernels::concat_cols(&values);
        self.push(value, Op::ConcatCols(parts.to_vec()))
    }

    /// Copies out columns `[start, end)`.
    pub fn slice_cols(&mut self, x: Var, start: usize, end: usize) -> Var {
        let value = kernels::slice_cols(self.value(x), start, end);
        self.push(value, Op::SliceCols { x, start, end })
    }

    /// Row-major reshape (a pooled copy; data order unchanged).
    pub fn reshape(&mut self, x: Var, rows: usize, cols: usize) -> Var {
        let value = kernels::reshape(self.value(x), rows, cols);
        self.push(value, Op::Reshape(x))
    }

    /// Mean of all elements (1×1).
    pub fn mean_all(&mut self, x: Var) -> Var {
        let value = Matrix::scalar(self.value(x).mean());
        self.push(value, Op::MeanAll(x))
    }

    /// Sum of all elements (1×1).
    pub fn sum_all(&mut self, x: Var) -> Var {
        let value = Matrix::scalar(self.value(x).sum());
        self.push(value, Op::SumAll(x))
    }

    /// Per-row sum: `(m×n) → (m×1)`.
    pub fn row_sum(&mut self, x: Var) -> Var {
        let value = kernels::row_sum(self.value(x));
        self.push(value, Op::RowSum(x))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, x: Var) -> Var {
        let value = kernels::softmax_rows(self.value(x));
        self.push(value, Op::SoftmaxRows(x))
    }

    /// Batched matrix product over 3-D tensors packed as 2-D matrices.
    ///
    /// `a` packs `(batch, m, p)` as `(batch·m) × p`.
    /// * `trans_b == false`: `b` packs `(batch, p, n)` as `(batch·p) × n`,
    ///   the result packs `(batch, m, n)` as `(batch·m) × n`.
    /// * `trans_b == true`: `b` packs `(batch, n, p)` as `(batch·n) × p`,
    ///   computing `A·Bᵀ` per batch slice.
    pub fn batched_matmul(&mut self, a: Var, b: Var, batch: usize, trans_b: bool) -> Var {
        let out = kernels::batched_matmul(self.value(a), self.value(b), batch, trans_b);
        self.push(
            out,
            Op::BatMatMul {
                a,
                b,
                batch,
                trans_b,
            },
        )
    }

    /// Fused weighted binary cross-entropy over logits.
    ///
    /// For logits `z` (an `m×1` column), per-example weights `pos_w`/`neg_w`
    /// and a `divisor` (typically the number of *valid*, unpadded examples),
    /// computes
    ///
    /// ```text
    ///   L = (1/divisor) · Σ_i  max(0, pos_w[i]·ℓ⁺(z_i) + neg_w[i]·ℓ⁻(z_i))
    /// ```
    ///
    /// with `ℓ⁺(z) = softplus(−z) = −log σ(z)` and `ℓ⁻(z) = softplus(z) =
    /// −log(1−σ(z))`. The `max(0, ·)` clamp is applied only when
    /// `clamp_nonneg` is set — this is the per-example non-negative-risk
    /// correction the paper adopts ("risk-clipped technique", §VI-A),
    /// needed because the unbiased PU risks put the *negative* coefficient
    /// `1 − e/p̂` on active examples. Clamped elements propagate no gradient.
    pub fn weighted_bce(
        &mut self,
        logits: Var,
        pos_w: &[f32],
        neg_w: &[f32],
        divisor: f32,
        clamp_nonneg: bool,
    ) -> Var {
        let z = self.value(logits);
        assert_eq!(z.cols(), 1, "weighted_bce expects an m×1 logit column");
        assert_eq!(z.rows(), pos_w.len());
        assert_eq!(z.rows(), neg_w.len());
        assert!(divisor > 0.0, "weighted_bce divisor must be positive");
        let mut total = 0.0f64;
        let mut clamped = vec![false; z.rows()];
        for i in 0..z.rows() {
            let zi = z.get(i, 0);
            let li = pos_w[i] * softplus(-zi) + neg_w[i] * softplus(zi);
            if clamp_nonneg && li < 0.0 {
                clamped[i] = true;
            } else {
                total += li as f64;
            }
        }
        let value = Matrix::scalar((total / divisor as f64) as f32);
        self.push(
            value,
            Op::WeightedBce {
                logits,
                pos_w: pos_w.to_vec(),
                neg_w: neg_w.to_vec(),
                divisor,
                clamped,
            },
        )
    }

    fn is_input(&self, v: Var) -> bool {
        matches!(self.nodes[v.0].op, Op::Input)
    }

    // -------------------------------------------------------------- backward

    /// Reverse pass from `loss` (which must be 1×1), accumulating parameter
    /// gradients into `params.grads`. Call `params.zero_grads()` first unless
    /// you intend to accumulate across batches.
    pub fn backward(&self, loss: Var, params: &mut Params) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward from a non-scalar loss"
        );
        let n = self.nodes.len();
        let mut grads: Vec<Option<Matrix>> = (0..n).map(|_| None).collect();
        grads[loss.0] = Some(Matrix::scalar(1.0));

        for idx in (0..n).rev() {
            if let Op::GruUnroll(u) = &self.nodes[idx].op {
                self.gru_unroll_backward(idx, u, &mut grads);
                continue;
            }
            let g = match grads[idx].take() {
                Some(g) => g,
                None => continue,
            };
            match &self.nodes[idx].op {
                Op::Input => {}
                Op::Param(id) => {
                    params.grad_mut(*id).add_assign(&g);
                }
                Op::GatherParam { id, rows } => {
                    let table_grad = params.grad_mut(*id);
                    for (i, &row) in rows.iter().enumerate() {
                        for (t, &s) in table_grad.row_mut(row).iter_mut().zip(g.row(i)) {
                            *t += s;
                        }
                    }
                }
                Op::MatMul(a, b) => {
                    let ga = g.matmul_nt(&self.nodes[b.0].value);
                    let gb = self.nodes[a.0].value.matmul_tn(&g);
                    acc(&mut grads, a.0, ga);
                    acc(&mut grads, b.0, gb);
                }
                Op::Linear { x, w, b } => {
                    let gx = g.matmul_nt(&self.nodes[w.0].value);
                    let gw = self.nodes[x.0].value.matmul_tn(&g);
                    let mut gb = Matrix::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for (o, &v) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                            *o += v;
                        }
                    }
                    acc(&mut grads, x.0, gx);
                    acc(&mut grads, w.0, gw);
                    acc(&mut grads, b.0, gb);
                }
                Op::Add(a, b) => {
                    acc(&mut grads, a.0, g.clone());
                    acc(&mut grads, b.0, g);
                }
                Op::Sub(a, b) => {
                    let mut neg = g.clone();
                    neg.scale_in_place(-1.0);
                    acc(&mut grads, a.0, g);
                    acc(&mut grads, b.0, neg);
                }
                Op::Mul(a, b) => {
                    let ga = g.zip_map(&self.nodes[b.0].value, |x, y| x * y);
                    let mut gb = g;
                    gb.zip_apply(&self.nodes[a.0].value, |x, y| x * y);
                    acc(&mut grads, a.0, ga);
                    acc(&mut grads, b.0, gb);
                }
                Op::AddRow(a, row) => {
                    let mut grow = Matrix::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for (o, &x) in grow.row_mut(0).iter_mut().zip(g.row(r)) {
                            *o += x;
                        }
                    }
                    acc(&mut grads, a.0, g);
                    acc(&mut grads, row.0, grow);
                }
                Op::MulCol(a, col) => {
                    let av = &self.nodes[a.0].value;
                    let mut gcol = Matrix::uninit(g.rows(), 1);
                    for r in 0..g.rows() {
                        let dot: f32 = g.row(r).iter().zip(av.row(r)).map(|(&x, &y)| x * y).sum();
                        gcol.set(r, 0, dot);
                    }
                    let cv = &self.nodes[col.0].value;
                    let mut ga = g;
                    for r in 0..ga.rows() {
                        let s = cv.get(r, 0);
                        for v in ga.row_mut(r) {
                            *v *= s;
                        }
                    }
                    acc(&mut grads, a.0, ga);
                    acc(&mut grads, col.0, gcol);
                }
                Op::Affine { x, mul, .. } => {
                    let mut gx = g;
                    gx.scale_in_place(*mul);
                    acc(&mut grads, x.0, gx);
                }
                Op::Sigmoid(x) => {
                    let mut gx = g;
                    gx.zip_apply(&self.nodes[idx].value, |gi, yi| gi * yi * (1.0 - yi));
                    acc(&mut grads, x.0, gx);
                }
                Op::Tanh(x) => {
                    let mut gx = g;
                    gx.zip_apply(&self.nodes[idx].value, |gi, yi| gi * (1.0 - yi * yi));
                    acc(&mut grads, x.0, gx);
                }
                Op::Relu(x) => {
                    let mut gx = g;
                    gx.zip_apply(
                        &self.nodes[x.0].value,
                        |gi, xi| if xi > 0.0 { gi } else { 0.0 },
                    );
                    acc(&mut grads, x.0, gx);
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let width = self.nodes[p.0].value.cols();
                        let gp = g.slice_cols(offset, offset + width);
                        acc(&mut grads, p.0, gp);
                        offset += width;
                    }
                }
                Op::SliceCols { x, start, end } => {
                    let xv = &self.nodes[x.0].value;
                    let mut gx = Matrix::zeros(xv.rows(), xv.cols());
                    for r in 0..g.rows() {
                        gx.row_mut(r)[*start..*end].copy_from_slice(g.row(r));
                    }
                    acc(&mut grads, x.0, gx);
                }
                Op::Reshape(x) => {
                    let xv = &self.nodes[x.0].value;
                    let mut gx = Matrix::uninit(xv.rows(), xv.cols());
                    gx.data_mut().copy_from_slice(g.data());
                    acc(&mut grads, x.0, gx);
                }
                Op::MeanAll(x) => {
                    let xv = &self.nodes[x.0].value;
                    let gi = g.item() / xv.len() as f32;
                    let gx = Matrix::filled(xv.rows(), xv.cols(), gi);
                    acc(&mut grads, x.0, gx);
                }
                Op::SumAll(x) => {
                    let xv = &self.nodes[x.0].value;
                    let gx = Matrix::filled(xv.rows(), xv.cols(), g.item());
                    acc(&mut grads, x.0, gx);
                }
                Op::RowSum(x) => {
                    let xv = &self.nodes[x.0].value;
                    let gx = Matrix::from_fn(xv.rows(), xv.cols(), |r, _| g.get(r, 0));
                    acc(&mut grads, x.0, gx);
                }
                Op::SoftmaxRows(x) => {
                    let s = &self.nodes[idx].value;
                    let mut gx = Matrix::uninit(s.rows(), s.cols());
                    for r in 0..s.rows() {
                        let dot: f32 = g.row(r).iter().zip(s.row(r)).map(|(&a, &b)| a * b).sum();
                        for c in 0..s.cols() {
                            gx.set(r, c, s.get(r, c) * (g.get(r, c) - dot));
                        }
                    }
                    acc(&mut grads, x.0, gx);
                }
                Op::BatMatMul {
                    a,
                    b,
                    batch,
                    trans_b,
                } => {
                    let av = &self.nodes[a.0].value;
                    let bv = &self.nodes[b.0].value;
                    let m = av.rows() / batch;
                    let p = av.cols();
                    let n = if *trans_b {
                        bv.rows() / batch
                    } else {
                        bv.cols()
                    };
                    let mut ga = Matrix::uninit(av.rows(), av.cols());
                    let mut gb = Matrix::uninit(bv.rows(), bv.cols());
                    backend::batched_matmul_grads(
                        *batch,
                        m,
                        p,
                        n,
                        *trans_b,
                        av.data(),
                        bv.data(),
                        g.data(),
                        ga.data_mut(),
                        gb.data_mut(),
                    );
                    acc(&mut grads, a.0, ga);
                    acc(&mut grads, b.0, gb);
                }
                Op::WeightedBce {
                    logits,
                    pos_w,
                    neg_w,
                    divisor,
                    clamped,
                    ..
                } => {
                    let z = &self.nodes[logits.0].value;
                    let upstream = g.item() / divisor;
                    let gx = Matrix::from_fn(z.rows(), 1, |i, _| {
                        if clamped[i] {
                            0.0
                        } else {
                            let s = sigmoid(z.get(i, 0));
                            upstream * ((pos_w[i] + neg_w[i]) * s - pos_w[i])
                        }
                    });
                    acc(&mut grads, logits.0, gx);
                }
                Op::GruState => grads[idx] = Some(g),
                Op::GruUnroll(_) => unreachable!("handled before the gradient is taken"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softplus_matches_reference() {
        for &x in &[-50.0f32, -2.0, 0.0, 1.5, 30.0] {
            let reference = (1.0f64 + (x as f64).exp()).ln() as f32;
            if x < 20.0 {
                assert!((softplus(x) - reference).abs() < 1e-5, "x={x}");
            } else {
                assert!((softplus(x) - x).abs() < 1e-5);
            }
        }
        assert!(softplus(-1000.0) >= 0.0);
        assert!(softplus(1000.0).is_finite());
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn forward_values_are_computed_eagerly() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::row_vector(&[1.0, 2.0]));
        let y = tape.affine(x, 2.0, 1.0);
        assert_eq!(tape.value(y).data(), &[3.0, 5.0]);
        let z = tape.sigmoid(x);
        assert!((tape.value(z).data()[0] - sigmoid(1.0)).abs() < 1e-6);
    }

    #[test]
    fn linear_regression_gradient_is_exact() {
        // loss = mean((x·w)²) for known x, w — gradient has a closed form.
        let mut params = Params::new();
        let w = params.add("w", Matrix::col_vector(&[2.0]));
        let mut tape = Tape::new();
        let x = tape.input(Matrix::col_vector(&[1.0, 3.0]));
        let wv = tape.param(&params, w);
        let pred = tape.matmul(x, wv); // 2×1
        let sq = tape.square(pred);
        let loss = tape.mean_all(sq);
        // loss = ((1·2)² + (3·2)²)/2 = (4 + 36)/2 = 20
        assert!((tape.value(loss).item() - 20.0).abs() < 1e-5);
        tape.backward(loss, &mut params);
        // dL/dw = mean(2·(x w)·x) = (2·2·1 + 2·6·3)/2 = 20
        assert!((params.grad(w).item() - 20.0).abs() < 1e-4);
    }

    #[test]
    fn gather_param_scatter_adds() {
        let mut params = Params::new();
        let table = params.add("emb", Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        let mut tape = Tape::new();
        let e = tape.gather(&params, table, &[0, 2, 0]);
        assert_eq!(tape.value(e).row(0), &[1., 2.]);
        assert_eq!(tape.value(e).row(1), &[5., 6.]);
        let s = tape.sum_all(e);
        tape.backward(s, &mut params);
        // Row 0 was gathered twice → grad 2; row 1 never → 0; row 2 once → 1.
        assert_eq!(params.grad(table).row(0), &[2.0, 2.0]);
        assert_eq!(params.grad(table).row(1), &[0.0, 0.0]);
        assert_eq!(params.grad(table).row(2), &[1.0, 1.0]);
    }

    #[test]
    fn weighted_bce_matches_manual_log_loss() {
        // With pos_w = y and neg_w = 1−y this is plain BCE-with-logits.
        let mut params = Params::new();
        let mut tape = Tape::new();
        let z = tape.input(Matrix::col_vector(&[0.3, -1.2]));
        let loss = tape.weighted_bce(z, &[1.0, 0.0], &[0.0, 1.0], 2.0, false);
        let expected = (softplus(-0.3) + softplus(-1.2)) / 2.0;
        assert!((tape.value(loss).item() - expected).abs() < 1e-6);
        tape.backward(loss, &mut params); // no params; must not panic
    }

    #[test]
    fn weighted_bce_clamps_negative_elements() {
        let mut tape = Tape::new();
        let z = tape.input(Matrix::col_vector(&[0.0]));
        // pos_w=2, neg_w=-3 at z=0: 2·ln2 − 3·ln2 = −ln2 < 0 → clamped to 0.
        let clamped = tape.weighted_bce(z, &[2.0], &[-3.0], 1.0, true);
        assert_eq!(tape.value(clamped).item(), 0.0);
        let z2 = tape.input(Matrix::col_vector(&[0.0]));
        let raw = tape.weighted_bce(z2, &[2.0], &[-3.0], 1.0, false);
        assert!(tape.value(raw).item() < 0.0);
    }

    #[test]
    fn batched_matmul_matches_per_slice_matmul() {
        let mut rng = crate::rng::Rng::seed_from_u64(5);
        let batch = 3;
        let (m, p, n) = (2, 4, 5);
        let a = Matrix::randn(batch * m, p, 1.0, &mut rng);
        let b = Matrix::randn(batch * p, n, 1.0, &mut rng);
        let mut tape = Tape::new();
        let av = tape.input(a.clone());
        let bv = tape.input(b.clone());
        let c = tape.batched_matmul(av, bv, batch, false);
        for s in 0..batch {
            let a_slice = a.gather_rows(&(s * m..(s + 1) * m).collect::<Vec<_>>());
            let b_slice = b.gather_rows(&(s * p..(s + 1) * p).collect::<Vec<_>>());
            let expect = a_slice.matmul(&b_slice);
            for i in 0..m {
                for j in 0..n {
                    assert!((tape.value(c).get(s * m + i, j) - expect.get(i, j)).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn batched_matmul_trans_b_matches_per_slice() {
        let mut rng = crate::rng::Rng::seed_from_u64(6);
        let batch = 2;
        let (m, p, n) = (3, 4, 3);
        let a = Matrix::randn(batch * m, p, 1.0, &mut rng);
        let b = Matrix::randn(batch * n, p, 1.0, &mut rng);
        let mut tape = Tape::new();
        let av = tape.input(a.clone());
        let bv = tape.input(b.clone());
        let c = tape.batched_matmul(av, bv, batch, true);
        for s in 0..batch {
            let a_slice = a.gather_rows(&(s * m..(s + 1) * m).collect::<Vec<_>>());
            let b_slice = b.gather_rows(&(s * n..(s + 1) * n).collect::<Vec<_>>());
            let expect = a_slice.matmul_nt(&b_slice);
            for i in 0..m {
                for j in 0..n {
                    assert!((tape.value(c).get(s * m + i, j) - expect.get(i, j)).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn linear_matches_matmul_add_row() {
        let mut rng = crate::rng::Rng::seed_from_u64(7);
        let x = Matrix::randn(4, 3, 1.0, &mut rng);
        let w = Matrix::randn(3, 2, 1.0, &mut rng);
        let b = Matrix::randn(1, 2, 1.0, &mut rng);
        let mut params = Params::new();
        let wid = params.add("w", w);
        let bid = params.add("b", b);

        let mut t1 = Tape::new();
        let xv = t1.input(x.clone());
        let wv = t1.param(&params, wid);
        let bv = t1.param(&params, bid);
        let fused = t1.linear(xv, wv, bv);

        let mut t2 = Tape::new();
        let xv2 = t2.input(x.clone());
        let wv2 = t2.param(&params, wid);
        let bv2 = t2.param(&params, bid);
        let mm = t2.matmul(xv2, wv2);
        let unfused = t2.add_row(mm, bv2);

        assert!(t1.value(fused).max_abs_diff(t2.value(unfused)) < 1e-5);

        // Gradients must also agree: sum the outputs and compare w/b grads.
        let l1 = t1.sum_all(fused);
        params.zero_grads();
        t1.backward(l1, &mut params);
        let gw1 = params.grad(wid).clone();
        let gb1 = params.grad(bid).clone();
        let l2 = t2.sum_all(unfused);
        params.zero_grads();
        t2.backward(l2, &mut params);
        assert!(gw1.max_abs_diff(params.grad(wid)) < 1e-5);
        assert!(gb1.max_abs_diff(params.grad(bid)) < 1e-5);
    }

    #[test]
    fn clear_resets_the_tape_for_reuse() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::scalar(1.0));
        let _ = tape.affine(x, 2.0, 0.0);
        assert_eq!(tape.len(), 2);
        tape.clear();
        assert!(tape.is_empty());
        let y = tape.input(Matrix::scalar(4.0));
        assert_eq!(tape.value(y).item(), 4.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_vec(2, 3, vec![1., 2., 3., -5., 0., 5.]));
        let s = tape.softmax_rows(x);
        for r in 0..2 {
            let total: f32 = tape.value(s).row(r).iter().sum();
            assert!((total - 1.0).abs() < 1e-6);
        }
        // Monotone: larger logit → larger probability.
        let row = tape.value(s).row(0);
        assert!(row[0] < row[1] && row[1] < row[2]);
    }
}
