//! Cross layers for DCN (Wang et al., ADKDD 2017) and DCN-V2 (Wang et al.,
//! WWW 2021) — two of the base recommenders in the paper's Table IV, DCN-V2
//! being the strongest one.

use uae_tensor::{Exec, Init, ParamId, Params};

/// DCN-v1 cross layer: `x_{l+1} = x₀ · (x_lᵀ w) + b + x_l`, with a *vector*
/// weight `w ∈ R^d` so the feature crossing is rank-1.
#[derive(Debug, Clone)]
pub struct CrossLayerV1 {
    w: ParamId,
    b: ParamId,
    dim: usize,
}

impl CrossLayerV1 {
    pub fn new(name: &str, dim: usize, params: &mut Params) -> Self {
        CrossLayerV1 {
            w: params.register(format!("{name}.w"), dim, 1, Init::XavierUniform),
            b: params.register(format!("{name}.b"), 1, dim, Init::Zeros),
            dim,
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `x0`, `x` are `batch × dim`.
    pub fn forward<E: Exec>(&self, exec: &mut E, params: &Params, x0: &E::V, x: &E::V) -> E::V {
        let w = exec.param(params, self.w);
        let xw = exec.matmul(x, &w); // batch × 1
        let crossed = exec.mul_col(x0, &xw); // x0 scaled per sample
        let b = exec.param(params, self.b);
        let crossed = exec.add_row(&crossed, &b);
        exec.add(&crossed, x)
    }
}

/// DCN-V2 cross layer: `x_{l+1} = x₀ ∘ (W x_l + b) + x_l`, with a full
/// *matrix* weight `W ∈ R^{d×d}` (the "improved" crossing).
#[derive(Debug, Clone)]
pub struct CrossLayerV2 {
    w: ParamId,
    b: ParamId,
    dim: usize,
}

impl CrossLayerV2 {
    pub fn new(name: &str, dim: usize, params: &mut Params) -> Self {
        CrossLayerV2 {
            w: params.register(format!("{name}.w"), dim, dim, Init::XavierUniform),
            b: params.register(format!("{name}.b"), 1, dim, Init::Zeros),
            dim,
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `x0`, `x` are `batch × dim`.
    pub fn forward<E: Exec>(&self, exec: &mut E, params: &Params, x0: &E::V, x: &E::V) -> E::V {
        let w = exec.param(params, self.w);
        let b = exec.param(params, self.b);
        let xwb = exec.linear(x, &w, &b); // batch × dim
        exec.mul_add(x0, &xwb, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_tensor::gradcheck::check_params;
    use uae_tensor::{Matrix, Rng, Tape};

    #[test]
    fn v1_with_zero_weights_is_identity() {
        let mut rng = Rng::seed_from_u64(1);
        let mut params = Params::new();
        let layer = CrossLayerV1::new("c", 3, &mut params);
        params.init(&mut rng);
        // Zero the weight; bias is already zero.
        let w = params.ids().next().unwrap();
        params.value_mut(w).fill_zero();
        let mut tape = Tape::new();
        let x = tape.input(Matrix::randn(4, 3, 1.0, &mut rng));
        let y = layer.forward(&mut tape, &params, &x, &x);
        assert_eq!(tape.value(y), tape.value(x));
    }

    #[test]
    fn v2_with_zero_weights_is_identity() {
        let mut rng = Rng::seed_from_u64(2);
        let mut params = Params::new();
        let layer = CrossLayerV2::new("c", 3, &mut params);
        params.init(&mut rng);
        let w = params.ids().next().unwrap();
        params.value_mut(w).fill_zero();
        let mut tape = Tape::new();
        let x = tape.input(Matrix::randn(4, 3, 1.0, &mut rng));
        let y = layer.forward(&mut tape, &params, &x, &x);
        assert_eq!(tape.value(y), tape.value(x));
    }

    #[test]
    fn v1_matches_manual_formula() {
        let mut rng = Rng::seed_from_u64(3);
        let mut params = Params::new();
        let layer = CrossLayerV1::new("c", 2, &mut params);
        params.init(&mut rng);
        let ids: Vec<_> = params.ids().collect();
        *params.value_mut(ids[0]) = Matrix::col_vector(&[0.5, -1.0]);
        *params.value_mut(ids[1]) = Matrix::row_vector(&[0.1, 0.2]);
        let x0 = Matrix::row_vector(&[2.0, 3.0]);
        let x = Matrix::row_vector(&[1.0, 4.0]);
        let mut tape = Tape::new();
        let x0v = tape.input(x0);
        let xv = tape.input(x);
        let y = layer.forward(&mut tape, &params, &x0v, &xv);
        // x·w = 0.5 − 4 = −3.5; x0·(−3.5) = (−7, −10.5); +b = (−6.9, −10.3);
        // +x = (−5.9, −6.3)
        let out = tape.value(y).row(0);
        assert!((out[0] - -5.9).abs() < 1e-5, "{out:?}");
        assert!((out[1] - -6.3).abs() < 1e-5, "{out:?}");
    }

    #[test]
    fn both_layers_gradcheck() {
        let mut rng = Rng::seed_from_u64(4);
        let mut params = Params::new();
        let l1 = CrossLayerV1::new("c1", 3, &mut params);
        let l2 = CrossLayerV2::new("c2", 3, &mut params);
        params.init(&mut rng);
        let x = Matrix::randn(4, 3, 0.6, &mut rng);
        let check = check_params(&mut params, 5e-3, |tape, params| {
            let x0 = tape.input(x.clone());
            let h1 = l1.forward(tape, params, &x0, &x0);
            let h2 = l2.forward(tape, params, &x0, &h1);
            let sq = tape.square(h2);
            tape.mean_all(sq)
        });
        assert!(check.passes(4e-2), "max_rel_err={}", check.max_rel_err);
    }

    /// A deep DCN-style tower (v1 → v2 → v1) gradchecks through the single
    /// Exec-generic forward — residual chains must accumulate gradients for
    /// every layer's parameters, not just the last.
    #[test]
    fn stacked_tower_gradcheck() {
        let mut rng = Rng::seed_from_u64(6);
        let mut params = Params::new();
        let l1 = CrossLayerV1::new("t1", 4, &mut params);
        let l2 = CrossLayerV2::new("t2", 4, &mut params);
        let l3 = CrossLayerV1::new("t3", 4, &mut params);
        params.init(&mut rng);
        let x = Matrix::randn(3, 4, 0.5, &mut rng);
        let check = check_params(&mut params, 5e-3, |tape, params| {
            let x0 = tape.input(x.clone());
            let h1 = l1.forward(tape, params, &x0, &x0);
            let h2 = l2.forward(tape, params, &x0, &h1);
            let h3 = l3.forward(tape, params, &x0, &h2);
            let sq = tape.square(h3);
            tape.mean_all(sq)
        });
        assert!(check.passes(4e-2), "max_rel_err={}", check.max_rel_err);
    }

    /// The same forward body runs tape-free via ValueExec, bit-identically.
    #[test]
    fn value_path_matches_tape_bitwise() {
        use uae_tensor::ValueExec;
        let mut rng = Rng::seed_from_u64(5);
        let mut params = Params::new();
        let l1 = CrossLayerV1::new("c1", 3, &mut params);
        let l2 = CrossLayerV2::new("c2", 3, &mut params);
        params.init(&mut rng);
        let x = Matrix::randn(4, 3, 0.6, &mut rng);

        let mut tape = Tape::new();
        let x0 = tape.input(x.clone());
        let h1 = l1.forward(&mut tape, &params, &x0, &x0);
        let h2 = l2.forward(&mut tape, &params, &x0, &h1);

        let mut vx = ValueExec::new();
        let x0v = vx.input(x);
        let h1v = l1.forward(&mut vx, &params, &x0v, &x0v);
        let h2v = l2.forward(&mut vx, &params, &x0v, &h1v);
        assert_eq!(tape.value(h1).data(), h1v.data());
        assert_eq!(tape.value(h2).data(), h2v.data());
    }
}
