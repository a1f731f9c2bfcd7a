//! Gated recurrent units (Cho et al., 2014) — the sequence encoder used by
//! both of UAE's networks (GRU₁ over feature sequences for the attention
//! model `g`, GRU₂ over feedback history for the propensity model `h`).
//!
//! A [`GruCell`] owns the parameter registrations; the recurrence math lives
//! in the [`Exec`] composites [`Exec::gru_step`] and [`Exec::gru_unroll`], so
//! the same forward runs on the training tape — which records a whole
//! unroll as one node — and tape-free for serving, bit-identically.

use uae_tensor::{Exec, GruVars, Init, Matrix, ParamId, Params};

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
    /// returning handles for [`Exec::gru_step`] / [`Exec::gru_unroll`]. A
    /// time-loop that re-pushed parameters every step would snapshot (clone)
    /// all nine matrices per timestep; hoisting makes that once per unroll.
    /// Both engines' [`Exec::gru_unroll`] then run the fused unroll kernel
    /// on these handles (two GEMMs and one element-wise pass per step
    /// instead of six GEMMs and a dozen element-wise ops), bit-identically.
    pub fn param_vars<E: Exec>(&self, exec: &mut E, params: &Params) -> GruVars<E::V> {
        let handles = [
            self.w_r, self.u_r, self.b_r, self.w_z, self.u_z, self.b_z, self.w_n, self.u_n,
            self.b_n,
        ]
        .map(|id| exec.param(params, id));
        GruVars::new(handles)
    }

    /// Zero initial state for a batch.
    pub fn zero_state<E: Exec>(&self, exec: &mut E, batch: usize) -> E::V {
        exec.input(Matrix::zeros(batch, self.hidden))
    }
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
        let vars = cell.param_vars(&mut tape, &params);
        let h0 = cell.zero_state(&mut tape, 5);
        let h1 = tape.gru_step(&vars, &x, &h0, None);
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
        let vars = cell.param_vars(&mut tape, &params);
        let mut h = cell.zero_state(&mut tape, 4);
        for _ in 0..20 {
            let x = tape.input(Matrix::randn(4, 2, 3.0, &mut rng));
            h = tape.gru_step(&vars, &x, &h, None);
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
        let vars = cell.param_vars(&mut tape, &params);
        let h0 = cell.zero_state(&mut tape, 2);
        let h1 = tape.gru_step(&vars, &x0, &h0, None);
        let x1 = tape.input(Matrix::randn(2, 2, 1.0, &mut rng));
        let mask = tape.input(Matrix::col_vector(&[1.0, 0.0]));
        let h2 = tape.gru_step(&vars, &x1, &h1, Some(&mask));
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
        let vars = cell.param_vars(&mut tape, &params);
        let h0 = cell.zero_state(&mut tape, 3);
        let states = tape.gru_unroll(&vars, h0, &xs, &masks);
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
            let vars = cell.param_vars(tape, params);
            let h0 = cell.zero_state(tape, 3);
            let h1 = tape.gru_step(&vars, &x0v, &h0, None);
            let h2 = tape.gru_step(&vars, &x1v, &h1, Some(&m));
            let sq = tape.square(h2);
            tape.mean_all(sq)
        });
        assert!(check.passes(5e-2), "max_rel_err={}", check.max_rel_err);
    }
}
