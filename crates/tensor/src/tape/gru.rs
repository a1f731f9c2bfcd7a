//! The tape's GRU unroll node ([`Tape::gru_unroll`]): a whole masked
//! recurrence as one autodiff node, forward (the fused unroll kernel the
//! tape-free engine also runs) and backward each one parallel region over
//! batch rows, bit-identical to the per-step op sequence.

use super::{acc, Op, Tape, Var};
use crate::backend;
use crate::exec::{gru_unroll_steps, kernels, GruVars};
use crate::matrix::Matrix;

/// What a [`Tape::gru_unroll`] node keeps for its backward pass: one
/// `batch`-row matrix per step. Step `t`'s input state is `h0` or the value
/// of state `t−1`'s handle node.
#[derive(Debug)]
pub(super) struct GruUnroll {
    vars: GruVars<Var>,
    xs: Vec<Var>,
    masks: Vec<Var>,
    h0: Var,
    /// Gate activations `[r|z|n]`, `batch × 3·hidden`.
    gates: Vec<Matrix>,
    /// The candidate's recurrent product `h·U_n`, `batch × hidden`.
    hu_n: Vec<Matrix>,
}

/// Row blocks per worker in the unroll's regions: workers claim blocks as
/// they free up, so a worker whose vCPU is busy elsewhere holds up at most
/// one block's worth of the recurrence.
const ROW_BLOCKS: usize = 4;

/// One worker's rows of a step's input gradient, and whether the buffer is
/// fresh (the n-gate product writes it instead of adding to it).
type DxRows<'a> = Option<(&'a mut [f32], bool)>;

impl Tape {
    /// A masked GRU unroll ([`crate::Exec::gru_unroll`]) as one node, plus one
    /// state handle node per step, returned in step order.
    ///
    /// The forward is the fused unroll kernel both engines share
    /// (`exec::kernels::gru_unroll`): one parallel region over batch rows
    /// runs the whole recurrence, each worker on its own rows, keeping every
    /// step's gate activations and `h·U_n`. The backward pass
    /// (`Tape::gru_unroll_backward`) splits the same way, then sums the
    /// weight gradients over steps. Values and gradients are bit-identical
    /// to the per-step op sequence ([`gru_unroll_steps`] on a tape): every
    /// output element keeps its GEMM's k-ascending sum and every gradient
    /// its summation order. Falls back to that sequence when `hidden ≤ 1`,
    /// with no steps, when one input node feeds two steps, or when a mask
    /// is not a constant leaf (masks receive no gradient here).
    pub fn gru_unroll(
        &mut self,
        vars: &GruVars<Var>,
        h0: Var,
        xs: &[Var],
        masks: &[Var],
    ) -> Vec<Var> {
        let hidden = self.value(vars.u_r).cols();
        let mut distinct: Vec<usize> = xs.iter().map(|x| x.0).collect();
        distinct.sort_unstable();
        distinct.dedup();
        if hidden <= 1
            || xs.is_empty()
            || distinct.len() < xs.len()
            || masks.iter().any(|&m| !self.is_input(m))
        {
            return gru_unroll_steps(self, vars, &h0, xs, masks);
        }
        let v = |var: Var| &self.nodes[var.0].value;
        let x_v: Vec<&Matrix> = xs.iter().map(|&x| v(x)).collect();
        let m_v: Vec<&Matrix> = masks.iter().map(|&m| v(m)).collect();
        let plan = |rows, flops| backend::row_chunks(rows, flops, ROW_BLOCKS);
        let (states, kept) =
            kernels::gru_unroll(vars.handles().map(|&g| v(g)), v(h0), &x_v, &m_v, plan, true);
        let (gates, hu_n) = kept.expect("a kept unroll returns its activations");
        let node = GruUnroll {
            vars: vars.clone(),
            xs: xs.to_vec(),
            masks: masks.to_vec(),
            h0,
            gates,
            hu_n,
        };
        self.push(Matrix::uninit(0, 0), Op::GruUnroll(Box::new(node)));
        states
            .into_iter()
            .map(|s| self.push(s, Op::GruState))
            .collect()
    }

    /// Backward of the [`Tape::gru_unroll`] node at `idx`, reading each
    /// step's external gradient from its [`Op::GruState`] node.
    ///
    /// It reproduces the per-step tape's sums in their association. The
    /// gradient reaching state `t` is step `t+1`'s five contributions in
    /// reverse node order (the mask carry, `z∘h`, then `h·U_n`, `h·U_z`,
    /// `h·U_r`), then the external one (the head, which sat between the
    /// two steps). Each step's input gradient is added gate by gate in the
    /// order n, z, r. Each shared weight accumulates its per-step products
    /// latest step first. Steps after the last one with an external gradient
    /// get none, as on the per-step tape.
    ///
    /// One parallel region runs the reverse-time loop and the input
    /// gradients, each worker on its own batch rows; the weight gradients
    /// follow as [`Matrix::matmul_tn_segmented`] sums over the steps.
    // `-1.0 * v + 1.0` replays the per-step tape's `affine(v, -1.0, 1.0)`;
    // one element index addresses several step buffers at once.
    #[allow(clippy::neg_multiply, clippy::needless_range_loop)]
    pub(super) fn gru_unroll_backward(
        &self,
        idx: usize,
        u: &GruUnroll,
        grads: &mut [Option<Matrix>],
    ) {
        let steps = u.xs.len();
        let ext: Vec<Option<Matrix>> = (1..=steps).map(|t| grads[idx + t].take()).collect();
        let Some(last) = ext.iter().rposition(Option::is_some) else {
            return;
        };
        let live = last + 1;
        let v = |var: Var| &self.nodes[var.0].value;
        let (batch, hidden) = v(u.h0).shape();
        let in_dim = v(u.vars.w_r).rows();
        let h3 = 3 * hidden;
        // Step t's incoming state: h0, then state t−1's handle node.
        let h_prev: Vec<&Matrix> = (0..live)
            .map(|t| {
                if t == 0 {
                    v(u.h0)
                } else {
                    &self.nodes[idx + t].value
                }
            })
            .collect();
        // Per step: the three gates' pre-activation gradients (for W, b and
        // x) and that of `h·U_n` (for U_n).
        let per_step =
            || -> Vec<Matrix> { (0..live).map(|_| Matrix::uninit(batch, hidden)).collect() };
        let (mut d_r, mut d_z, mut d_n, mut d_hun) =
            (per_step(), per_step(), per_step(), per_step());
        // Each non-constant input's gradient, taken out of `grads`; `true`
        // marks a fresh buffer the n-gate product writes instead of adds to.
        let mut dx: Vec<Option<(Matrix, bool)>> = u.xs[..live]
            .iter()
            .map(|&x| {
                (!self.is_input(x)).then(|| match grads[x.0].take() {
                    Some(g) => (g, false),
                    None => (Matrix::uninit(batch, in_dim), true),
                })
            })
            .collect();
        let mut dh0 = Matrix::uninit(batch, hidden);
        // Worker scratch: the running state gradient, the next one, and the
        // three `d·Uᵀ` products.
        let mut scratch: Vec<Matrix> = (0..5).map(|_| Matrix::uninit(batch, hidden)).collect();

        let ext_d: Vec<Option<&[f32]>> = ext[..live]
            .iter()
            .map(|e| e.as_ref().map(Matrix::data))
            .collect();
        let gates_d: Vec<&[f32]> = u.gates.iter().map(Matrix::data).collect();
        let hun_d: Vec<&[f32]> = u.hu_n.iter().map(Matrix::data).collect();
        let hp_d: Vec<&[f32]> = h_prev.iter().map(|m| m.data()).collect();
        let m_d: Vec<&[f32]> = u.masks.iter().map(|&m| v(m).data()).collect();
        let weights = [
            u.vars.u_r, u.vars.u_z, u.vars.u_n, u.vars.w_r, u.vars.w_z, u.vars.w_n,
        ]
        .map(&v);
        // The `d·Wᵀ` / `d·Uᵀ` products read each weight packed in panels.
        let panels = weights.map(|w| backend::pack_nt_panels(w.data(), w.rows(), w.cols()));
        let [u_r, u_z, u_n, w_r, w_z, w_n] =
            std::array::from_fn(|g| (weights[g].data(), &panels[g][..]));
        let mode = backend::kernel_mode();
        let (workers, chunks) =
            backend::row_chunks(batch, live * batch * (hidden + in_dim) * h3, ROW_BLOCKS);
        // Each worker's rows of every step's input gradient (none for a
        // constant input), then of the per-step `d` buffers, `dh0` and the
        // scratch.
        let mut dx_parts: Vec<Vec<DxRows>> = chunks.iter().map(|_| Vec::new()).collect();
        for slot in dx.iter_mut() {
            match slot {
                Some((m, fresh)) => {
                    let rows = backend::split_rows(m.data_mut(), in_dim, &chunks);
                    for (part, rows) in dx_parts.iter_mut().zip(rows) {
                        part.push(Some((rows, *fresh)));
                    }
                }
                None => dx_parts.iter_mut().for_each(|part| part.push(None)),
            }
        }
        let bufs = [&mut d_r, &mut d_z, &mut d_n, &mut d_hun]
            .into_iter()
            .flat_map(|d| d.iter_mut())
            .chain(std::iter::once(&mut dh0))
            .chain(scratch.iter_mut())
            .map(|m| (m.data_mut(), hidden));
        let parts: Vec<_> = chunks
            .iter()
            .zip(dx_parts)
            .zip(backend::split_bufs(bufs, &chunks))
            .collect();
        backend::par_parts(parts, workers, &|((&(r0, n), dx), mut rows)| {
            let [dh0, mut rec, mut next, c_n, c_z, c_r]: [&mut [f32]; 6] = rows
                .split_off(4 * live)
                .try_into()
                .expect("dh0 and five scratch buffers");
            let (dr, rest) = rows.split_at_mut(live);
            let (dz, rest) = rest.split_at_mut(live);
            let (dn, dhun) = rest.split_at_mut(live);
            let mut have_rec = false;
            for t in (0..live).rev() {
                let ext = ext_d[t].map(|e| &e[r0 * hidden..][..n * hidden]);
                if let (true, Some(e)) = (have_rec, ext) {
                    for (a, &b) in rec.iter_mut().zip(e) {
                        *a += b;
                    }
                }
                let g: &[f32] = if have_rec {
                    rec
                } else {
                    ext.expect("the last live step has an external gradient")
                };
                for i in 0..n {
                    let (row, a) = (i * hidden, &gates_d[t][(r0 + i) * h3..][..h3]);
                    let (hun, hp) = (
                        &hun_d[t][(r0 + i) * hidden..],
                        &hp_d[t][(r0 + i) * hidden..],
                    );
                    let mv = m_d[t][r0 + i];
                    for j in 0..hidden {
                        let (r, z, nn) = (a[j], a[hidden + j], a[2 * hidden + j]);
                        let gc = g[row + j] * mv;
                        let omz = -1.0 * z + 1.0;
                        let dpre_n = (gc * omz) * (1.0 - nn * nn);
                        let dpre_z = (gc * nn) * -1.0 + gc * hp[j];
                        let dpre_r = dpre_n * hun[j];
                        dn[t][row + j] = dpre_n;
                        dhun[t][row + j] = dpre_n * r;
                        dz[t][row + j] = dpre_z * z * (1.0 - z);
                        dr[t][row + j] = dpre_r * r * (1.0 - r);
                    }
                }
                for (c, d, (uu, ut)) in [
                    (&mut *c_n, &*dhun[t], u_n),
                    (&mut *c_z, &*dz[t], u_z),
                    (&mut *c_r, &*dr[t], u_r),
                ] {
                    backend::matmul_nt_chunk(mode, d, uu, ut, hidden, hidden, 0, n, c, false);
                }
                for i in 0..n {
                    let row = i * hidden;
                    let z = &gates_d[t][(r0 + i) * h3 + hidden..][..hidden];
                    let mv = m_d[t][r0 + i];
                    let inv = -1.0 * mv + 1.0;
                    for j in 0..hidden {
                        let k = row + j;
                        next[k] = g[k] * inv + (g[k] * mv) * z[j] + c_n[k] + c_z[k] + c_r[k];
                    }
                }
                std::mem::swap(&mut rec, &mut next);
                have_rec = true;
            }
            dh0.copy_from_slice(rec);
            for (t, slot) in dx.into_iter().enumerate() {
                if let Some((out, fresh)) = slot {
                    for (d, (w, wt), add) in [
                        (&*dn[t], w_n, !fresh),
                        (&*dz[t], w_z, true),
                        (&*dr[t], w_r, true),
                    ] {
                        backend::matmul_nt_chunk(mode, d, w, wt, hidden, in_dim, 0, n, out, add);
                    }
                }
            }
        });
        acc(grads, u.h0.0, dh0);
        for (&x, slot) in u.xs.iter().zip(dx) {
            if let Some((g, _)) = slot {
                grads[x.0] = Some(g);
            }
        }

        let gates = [
            (u.vars.w_n, u.vars.b_n, u.vars.u_n, &d_n, &d_hun),
            (u.vars.w_z, u.vars.b_z, u.vars.u_z, &d_z, &d_z),
            (u.vars.w_r, u.vars.b_r, u.vars.u_r, &d_r, &d_r),
        ];
        for (w, b, uv, d, d_u) in gates {
            let x_pairs: Vec<(&Matrix, &Matrix)> = (0..live).map(|t| (v(u.xs[t]), &d[t])).collect();
            acc(grads, w.0, Matrix::matmul_tn_segmented(&x_pairs));
            // The per-step `Linear` bias rule: a zero row plus every row in
            // order, then the steps latest first.
            let mut gb: Option<Matrix> = None;
            for step in d.iter().rev() {
                let mut sum = Matrix::zeros(1, hidden);
                for i in 0..batch {
                    for (o, &x) in sum.row_mut(0).iter_mut().zip(step.row(i)) {
                        *o += x;
                    }
                }
                match &mut gb {
                    Some(total) => total.add_assign(&sum),
                    None => gb = Some(sum),
                }
            }
            acc(grads, b.0, gb.expect("at least one live step"));
            let h_pairs: Vec<(&Matrix, &Matrix)> =
                (0..live).map(|t| (h_prev[t], &d_u[t])).collect();
            acc(grads, uv.0, Matrix::matmul_tn_segmented(&h_pairs));
        }
    }
}
