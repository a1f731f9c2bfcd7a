//! Gated recurrent units (Cho et al., 2014) — the sequence encoder used by
//! both of UAE's networks (GRU₁ over feature sequences for the attention
//! model `g`, GRU₂ over feedback history for the propensity model `h`).
//!
//! All recurrence math is generic over [`Exec`]: the same step functions run
//! on the training tape and tape-free for serving, bit-identically.

use uae_tensor::{Exec, GruGates, GruPacked, Init, Matrix, ParamId, Params};

/// A single GRU cell with input dimension `in_dim` and state size `hidden`.
///
/// Update equations (reset gate `r`, update gate `z`, candidate `n`):
///
/// ```text
/// r  = σ(x·W_r + h·U_r + b_r)
/// z  = σ(x·W_z + h·U_z + b_z)
/// n  = tanh(x·W_n + r ∘ (h·U_n) + b_n)
/// h' = z ∘ h + (1 − z) ∘ n
/// ```
#[derive(Debug, Clone)]
pub struct GruCell {
    w_r: ParamId,
    u_r: ParamId,
    b_r: ParamId,
    w_z: ParamId,
    u_z: ParamId,
    b_z: ParamId,
    w_n: ParamId,
    u_n: ParamId,
    b_n: ParamId,
    in_dim: usize,
    hidden: usize,
}

impl GruCell {
    pub fn new(name: &str, in_dim: usize, hidden: usize, params: &mut Params) -> Self {
        let mut gate = |suffix: &str| {
            (
                params.register(
                    format!("{name}.w_{suffix}"),
                    in_dim,
                    hidden,
                    Init::XavierUniform,
                ),
                params.register(
                    format!("{name}.u_{suffix}"),
                    hidden,
                    hidden,
                    Init::XavierUniform,
                ),
                params.register(format!("{name}.b_{suffix}"), 1, hidden, Init::Zeros),
            )
        };
        let (w_r, u_r, b_r) = gate("r");
        let (w_z, u_z, b_z) = gate("z");
        let (w_n, u_n, b_n) = gate("n");
        GruCell {
            w_r,
            u_r,
            b_r,
            w_z,
            u_z,
            b_z,
            w_n,
            u_n,
            b_n,
            in_dim,
            hidden,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Pushes the cell's nine parameter matrices into the context once,
    /// returning handles for repeated [`GruCell::step_with`] calls. A
    /// time-loop that re-pushed parameters every step would snapshot (clone)
    /// all nine matrices per timestep; hoisting makes that once per unroll.
    ///
    /// Also offers the gates to [`Exec::pack_gru`]: a fusing engine returns
    /// column-packed `[r|z|n]` weights and every subsequent step runs the
    /// fused [`Exec::gru_step_packed`] kernel (two GEMMs + one element-wise
    /// pass instead of six GEMMs + a dozen element-wise ops), bit-identically.
    pub fn param_vars<E: Exec>(&self, exec: &mut E, params: &Params) -> GruVars<E::V> {
        let w_r = exec.param(params, self.w_r);
        let u_r = exec.param(params, self.u_r);
        let b_r = exec.param(params, self.b_r);
        let w_z = exec.param(params, self.w_z);
        let u_z = exec.param(params, self.u_z);
        let b_z = exec.param(params, self.b_z);
        let w_n = exec.param(params, self.w_n);
        let u_n = exec.param(params, self.u_n);
        let b_n = exec.param(params, self.b_n);
        let packed = exec.pack_gru(GruGates {
            w_r: &w_r,
            u_r: &u_r,
            b_r: &b_r,
            w_z: &w_z,
            u_z: &u_z,
            b_z: &b_z,
            w_n: &w_n,
            u_n: &u_n,
            b_n: &b_n,
        });
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
            packed,
        }
    }

    /// One recurrence step: `x` is `batch × in_dim`, `h` is `batch × hidden`.
    pub fn step<E: Exec>(&self, exec: &mut E, params: &Params, x: &E::V, h: &E::V) -> E::V {
        let vars = self.param_vars(exec, params);
        self.step_with(exec, &vars, x, h)
    }

    /// One recurrence step against pre-pushed parameter handles.
    pub fn step_with<E: Exec>(
        &self,
        exec: &mut E,
        vars: &GruVars<E::V>,
        x: &E::V,
        h: &E::V,
    ) -> E::V {
        if let Some(p) = &vars.packed {
            return exec.gru_step_packed(p, x, h, None);
        }
        let gate = |exec: &mut E, w: &E::V, u: &E::V, b: &E::V| {
            let xwb = exec.linear(x, w, b);
            let hu = exec.matmul(h, u);
            exec.add(&xwb, &hu)
        };
        let r = gate(exec, &vars.w_r, &vars.u_r, &vars.b_r);
        let r = exec.sigmoid(&r);
        let z = gate(exec, &vars.w_z, &vars.u_z, &vars.b_z);
        let z = exec.sigmoid(&z);
        // Candidate with reset applied to the recurrent term.
        let xwb = exec.linear(x, &vars.w_n, &vars.b_n);
        let hu = exec.matmul(h, &vars.u_n);
        let rhu = exec.mul(&r, &hu);
        let pre = exec.add(&xwb, &rhu);
        let n = exec.tanh(&pre);
        // h' = z∘h + (1−z)∘n
        let zh = exec.mul(&z, h);
        let omz = exec.one_minus(&z);
        let zn = exec.mul(&omz, &n);
        exec.add(&zh, &zn)
    }

    /// One step with a per-sample validity mask (`batch × 1`, 1 = real step,
    /// 0 = padding): padded samples carry their previous state forward
    /// unchanged, so padding never contaminates the recurrence.
    pub fn step_masked<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        x: &E::V,
        h: &E::V,
        mask: &E::V,
    ) -> E::V {
        let vars = self.param_vars(exec, params);
        self.step_masked_with(exec, &vars, x, h, mask)
    }

    /// As [`GruCell::step_masked`] against pre-pushed parameter handles.
    pub fn step_masked_with<E: Exec>(
        &self,
        exec: &mut E,
        vars: &GruVars<E::V>,
        x: &E::V,
        h: &E::V,
        mask: &E::V,
    ) -> E::V {
        if let Some(p) = &vars.packed {
            return exec.gru_step_packed(p, x, h, Some(mask));
        }
        let candidate = self.step_with(exec, vars, x, h);
        let kept = exec.mul_col(&candidate, mask);
        let inv = exec.one_minus(mask);
        let carried = exec.mul_col(h, &inv);
        exec.add(&kept, &carried)
    }

    /// Zero initial state for a batch.
    pub fn zero_state<E: Exec>(&self, exec: &mut E, batch: usize) -> E::V {
        exec.input(Matrix::zeros(batch, self.hidden))
    }

    /// Unrolls the cell over a sequence of `batch × in_dim` inputs with
    /// matching `batch × 1` masks, returning the hidden state *after* each
    /// step. `xs` and `masks` must have equal length.
    pub fn unroll<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        xs: &[E::V],
        masks: &[E::V],
    ) -> Vec<E::V> {
        assert_eq!(xs.len(), masks.len(), "unroll: xs/masks length mismatch");
        let batch = if xs.is_empty() {
            0
        } else {
            exec.value(&xs[0]).rows()
        };
        let vars = self.param_vars(exec, params);
        let h0 = self.zero_state(exec, batch);
        let mut states: Vec<E::V> = Vec::with_capacity(xs.len());
        for (x, m) in xs.iter().zip(masks) {
            let prev = states.last().unwrap_or(&h0);
            let next = self.step_masked_with(exec, &vars, x, prev, m);
            states.push(next);
        }
        states
    }
}

/// Context handles for a [`GruCell`]'s nine parameters, pushed once by
/// [`GruCell::param_vars`] and shared across every timestep of an unroll.
/// When the engine fuses (see [`Exec::pack_gru`]), `packed` additionally
/// holds the column-packed `[r|z|n]` gate matrices.
#[derive(Debug, Clone)]
pub struct GruVars<V> {
    w_r: V,
    u_r: V,
    b_r: V,
    w_z: V,
    u_z: V,
    b_z: V,
    w_n: V,
    u_n: V,
    b_n: V,
    packed: Option<GruPacked<V>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_tensor::gradcheck::check_params;
    use uae_tensor::{Rng, Tape, Var};

    #[test]
    fn step_shapes() {
        let mut rng = Rng::seed_from_u64(1);
        let mut params = Params::new();
        let cell = GruCell::new("g", 3, 4, &mut params);
        params.init(&mut rng);
        let mut tape = Tape::new();
        let x = tape.input(Matrix::randn(5, 3, 1.0, &mut rng));
        let h0 = cell.zero_state(&mut tape, 5);
        let h1 = cell.step(&mut tape, &params, &x, &h0);
        assert_eq!(tape.value(h1).shape(), (5, 4));
    }

    #[test]
    fn hidden_state_stays_bounded() {
        // GRU state is a convex combination of tanh outputs, so |h| ≤ 1.
        let mut rng = Rng::seed_from_u64(2);
        let mut params = Params::new();
        let cell = GruCell::new("g", 2, 3, &mut params);
        params.init(&mut rng);
        let mut tape = Tape::new();
        let mut h = cell.zero_state(&mut tape, 4);
        for _ in 0..20 {
            let x = tape.input(Matrix::randn(4, 2, 3.0, &mut rng));
            h = cell.step(&mut tape, &params, &x, &h);
        }
        assert!(tape.value(h).data().iter().all(|&v| v.abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn masked_step_freezes_padded_rows() {
        let mut rng = Rng::seed_from_u64(3);
        let mut params = Params::new();
        let cell = GruCell::new("g", 2, 3, &mut params);
        params.init(&mut rng);
        let mut tape = Tape::new();
        let x0 = tape.input(Matrix::randn(2, 2, 1.0, &mut rng));
        let h0 = cell.zero_state(&mut tape, 2);
        let h1 = cell.step(&mut tape, &params, &x0, &h0);
        let x1 = tape.input(Matrix::randn(2, 2, 1.0, &mut rng));
        let mask = tape.input(Matrix::col_vector(&[1.0, 0.0]));
        let h2 = cell.step_masked(&mut tape, &params, &x1, &h1, &mask);
        // Row 1 was masked: carried forward unchanged.
        assert_eq!(tape.value(h2).row(1), tape.value(h1).row(1));
        // Row 0 was live: changed.
        assert_ne!(tape.value(h2).row(0), tape.value(h1).row(0));
    }

    #[test]
    fn unroll_returns_one_state_per_step() {
        let mut rng = Rng::seed_from_u64(4);
        let mut params = Params::new();
        let cell = GruCell::new("g", 2, 3, &mut params);
        params.init(&mut rng);
        let mut tape = Tape::new();
        let xs: Vec<Var> = (0..5)
            .map(|_| tape.input(Matrix::randn(3, 2, 1.0, &mut rng)))
            .collect();
        let masks: Vec<Var> = (0..5)
            .map(|_| tape.input(Matrix::filled(3, 1, 1.0)))
            .collect();
        let states = cell.unroll(&mut tape, &params, &xs, &masks);
        assert_eq!(states.len(), 5);
        for s in states {
            assert_eq!(tape.value(s).shape(), (3, 3));
        }
    }

    #[test]
    fn gru_gradients_check_numerically_through_two_steps() {
        let mut rng = Rng::seed_from_u64(5);
        let mut params = Params::new();
        let cell = GruCell::new("g", 2, 3, &mut params);
        params.init(&mut rng);
        let x0 = Matrix::randn(3, 2, 0.8, &mut rng);
        let x1 = Matrix::randn(3, 2, 0.8, &mut rng);
        let mask = Matrix::col_vector(&[1.0, 1.0, 0.0]);
        let check = check_params(&mut params, 5e-3, |tape, params| {
            let x0v = tape.input(x0.clone());
            let x1v = tape.input(x1.clone());
            let m = tape.input(mask.clone());
            let h0 = cell.zero_state(tape, 3);
            let h1 = cell.step(tape, params, &x0v, &h0);
            let h2 = cell.step_masked(tape, params, &x1v, &h1, &m);
            let sq = tape.square(h2);
            tape.mean_all(sq)
        });
        assert!(check.passes(5e-2), "max_rel_err={}", check.max_rel_err);
    }
}
