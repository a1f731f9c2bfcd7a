//! Multi-head self-attention over feature fields — the interacting layer of
//! AutoInt (Song et al., CIKM 2019), one of the base recommenders the paper
//! enhances with UAE.

use uae_tensor::{Exec, Init, ParamId, Params};

/// One interacting layer: per-head Q/K/V projections over the field axis,
/// scaled dot-product attention among the `F` fields of each sample, head
/// concatenation, a residual projection, and a ReLU.
#[derive(Debug, Clone)]
pub struct InteractingLayer {
    heads: Vec<HeadParams>,
    w_res: ParamId,
    in_dim: usize,
    head_dim: usize,
}

#[derive(Debug, Clone)]
struct HeadParams {
    w_q: ParamId,
    w_k: ParamId,
    w_v: ParamId,
}

impl InteractingLayer {
    pub fn new(
        name: &str,
        in_dim: usize,
        num_heads: usize,
        head_dim: usize,
        params: &mut Params,
    ) -> Self {
        assert!(num_heads > 0 && head_dim > 0);
        let mut xavier =
            |n: String, cols: usize| params.register(n, in_dim, cols, Init::XavierUniform);
        let heads = (0..num_heads)
            .map(|h| HeadParams {
                w_q: xavier(format!("{name}.h{h}.wq"), head_dim),
                w_k: xavier(format!("{name}.h{h}.wk"), head_dim),
                w_v: xavier(format!("{name}.h{h}.wv"), head_dim),
            })
            .collect();
        let w_res = xavier(format!("{name}.wres"), num_heads * head_dim);
        InteractingLayer {
            heads,
            w_res,
            in_dim,
            head_dim,
        }
    }

    /// Output embedding width per field (`num_heads · head_dim`).
    pub fn out_dim(&self) -> usize {
        self.heads.len() * self.head_dim
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// `x` packs `(batch, F, in_dim)` as `(batch·F) × in_dim`; returns the
    /// same packing with width [`InteractingLayer::out_dim`].
    pub fn forward<E: Exec>(&self, exec: &mut E, params: &Params, x: &E::V, batch: usize) -> E::V {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut outs = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let wq = exec.param(params, head.w_q);
            let wk = exec.param(params, head.w_k);
            let wv = exec.param(params, head.w_v);
            let q = exec.matmul(x, &wq);
            let k = exec.matmul(x, &wk);
            let v = exec.matmul(x, &wv);
            let scores = exec.batched_matmul(&q, &k, batch, true);
            let attn = exec.softmax_rows_scaled(&scores, scale);
            outs.push(exec.batched_matmul(&attn, &v, batch, false));
        }
        let multi = exec.concat_cols(&outs.iter().collect::<Vec<_>>());
        let wres = exec.param(params, self.w_res);
        let res = exec.matmul(x, &wres);
        let sum = exec.add(&multi, &res);
        exec.relu(&sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_tensor::gradcheck::check_params;
    use uae_tensor::{Matrix, Rng, Tape};

    #[test]
    fn forward_shape() {
        let mut rng = Rng::seed_from_u64(1);
        let mut params = Params::new();
        let layer = InteractingLayer::new("a", 4, 2, 3, &mut params);
        params.init(&mut rng);
        assert_eq!(layer.out_dim(), 6);
        let batch = 3;
        let fields = 5;
        let mut tape = Tape::new();
        let x = tape.input(Matrix::randn(batch * fields, 4, 1.0, &mut rng));
        let y = layer.forward(&mut tape, &params, &x, batch);
        assert_eq!(tape.value(y).shape(), (batch * fields, 6));
    }

    #[test]
    fn attention_is_per_sample_not_cross_sample() {
        // Changing sample 1's fields must not change sample 0's output.
        let mut rng = Rng::seed_from_u64(2);
        let mut params = Params::new();
        let layer = InteractingLayer::new("a", 3, 1, 3, &mut params);
        params.init(&mut rng);
        let fields = 4;
        let base = Matrix::randn(2 * fields, 3, 1.0, &mut rng);
        let mut tweaked = base.clone();
        for r in fields..2 * fields {
            for c in 0..3 {
                tweaked.set(r, c, tweaked.get(r, c) + 5.0);
            }
        }
        let mut t1 = Tape::new();
        let x1 = t1.input(base);
        let y1 = layer.forward(&mut t1, &params, &x1, 2);
        let mut t2 = Tape::new();
        let x2 = t2.input(tweaked);
        let y2 = layer.forward(&mut t2, &params, &x2, 2);
        for r in 0..fields {
            assert_eq!(t1.value(y1).row(r), t2.value(y2).row(r), "row {r}");
        }
        // Sanity: sample 1 did change.
        assert_ne!(t1.value(y1).row(fields), t2.value(y2).row(fields));
    }

    #[test]
    fn gradients_check_numerically() {
        let mut rng = Rng::seed_from_u64(3);
        let mut params = Params::new();
        let layer = InteractingLayer::new("a", 3, 2, 2, &mut params);
        params.init(&mut rng);
        let x = Matrix::randn(2 * 3, 3, 0.7, &mut rng);
        let check = check_params(&mut params, 5e-3, |tape, params| {
            let xv = tape.input(x.clone());
            let y = layer.forward(tape, params, &xv, 2);
            let sq = tape.square(y);
            tape.mean_all(sq)
        });
        assert!(check.passes(5e-2), "max_rel_err={}", check.max_rel_err);
    }

    /// Two stacked interacting layers (AutoInt with `attn_layers = 2`)
    /// gradcheck through the single Exec-generic forward — softmax, batched
    /// matmuls, residual projection, and ReLU composed twice.
    #[test]
    fn stacked_layers_gradcheck() {
        let mut rng = Rng::seed_from_u64(5);
        let mut params = Params::new();
        let l1 = InteractingLayer::new("a1", 3, 2, 2, &mut params);
        let l2 = InteractingLayer::new("a2", l1.out_dim(), 1, 3, &mut params);
        params.init(&mut rng);
        let x = Matrix::randn(2 * 3, 3, 0.7, &mut rng);
        let check = check_params(&mut params, 5e-3, |tape, params| {
            let xv = tape.input(x.clone());
            let h1 = l1.forward(tape, params, &xv, 2);
            let h2 = l2.forward(tape, params, &h1, 2);
            let sq = tape.square(h2);
            tape.mean_all(sq)
        });
        assert!(check.passes(5e-2), "max_rel_err={}", check.max_rel_err);
    }

    /// The same forward body runs tape-free via ValueExec, bit-identically.
    #[test]
    fn value_path_matches_tape_bitwise() {
        use uae_tensor::ValueExec;
        let mut rng = Rng::seed_from_u64(6);
        let mut params = Params::new();
        let layer = InteractingLayer::new("a", 4, 2, 3, &mut params);
        params.init(&mut rng);
        let x = Matrix::randn(3 * 5, 4, 1.0, &mut rng);

        let mut tape = Tape::new();
        let xt = tape.input(x.clone());
        let yt = layer.forward(&mut tape, &params, &xt, 3);

        let mut vx = ValueExec::new();
        let xv = vx.input(x);
        let yv = layer.forward(&mut vx, &params, &xv, 3);
        assert_eq!(tape.value(yt).data(), yv.data());
    }
}
