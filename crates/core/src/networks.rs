//! The two neural networks of UAE (Fig. 4, right side of the paper).
//!
//! * [`AttentionNet`] (`g`, parameters Θ_g): GRU₁ over the per-step feature
//!   vectors followed by MLP₁ → attention logit per step.
//! * [`PropensityNet`] (`h`, parameters Θ_h): GRU₂ over the observed feedback
//!   history `e_{t-1}` followed by MLP₂ over `z₁(x_t) ⊕ z₂(e_{t-1}) ⊕
//!   e_{t-1}` → propensity logit per step. In Algorithm 1 the propensity
//!   phase optimises Θ_h only: `g` runs tape-free there and `z₁` enters
//!   MLP₂ as constant leaves, so no gradient reaches Θ_g.
//! * [`LocalPropensityNet`]: the SAR baseline's propensity head — an MLP over
//!   the *current* features only (no feedback history), implementing the
//!   classical local-feature labelling assumption the paper argues against.
//!
//! Every forward pass is generic over [`Exec`]: instantiated with a
//! [`Tape`](uae_tensor::Tape) it records autodiff nodes for training;
//! instantiated with [`ValueExec`](uae_tensor::ValueExec) the same code runs
//! tape-free for serving, bit-identically.

use uae_data::{FeatureSchema, SeqBatch};
use uae_nn::{Activation, EmbeddingBank, GruCell, HashConfig, Mlp};
use uae_tensor::{Exec, Matrix, Params, Rng};

/// Per-step outputs of an attention forward pass. `V` is the execution
/// context's value handle ([`Var`](uae_tensor::Var) on the tape,
/// [`Matrix`] tape-free).
pub struct AttentionForward<V> {
    /// `logits[t]`: `batch × 1` attention logits (σ → α̂).
    pub logits: Vec<V>,
    /// `z1[t]`: `batch × hidden` sequence representations (GRU₁ states).
    pub z1: Vec<V>,
}

/// The attention network `g` (GRU₁ + MLP₁).
pub struct AttentionNet {
    emb: EmbeddingBank,
    gru: GruCell,
    head: Mlp,
    num_dense: usize,
}

impl AttentionNet {
    /// Registers the network's parameters (names, shapes, init schemes) in
    /// `params` and draws nothing.
    pub fn register(
        name: &str,
        schema: &FeatureSchema,
        embed_dim: usize,
        gru_hidden: usize,
        mlp_hidden: &[usize],
        hash: Option<HashConfig>,
        params: &mut Params,
    ) -> Self {
        let emb = EmbeddingBank::new(
            &format!("{name}.emb"),
            &schema.cat_cardinalities,
            embed_dim,
            hash,
            params,
        );
        let in_dim = emb.concat_dim() + schema.num_dense();
        let gru = GruCell::new(&format!("{name}.gru1"), in_dim, gru_hidden, params);
        let head = Mlp::new(
            &format!("{name}.mlp1"),
            gru_hidden,
            mlp_hidden,
            1,
            Activation::Relu,
            Activation::None,
            params,
        );
        AttentionNet {
            emb,
            gru,
            head,
            num_dense: schema.num_dense(),
        }
    }

    /// A standalone trainable network: [`AttentionNet::register`], then
    /// [`Params::init`] draws its values from `rng`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        schema: &FeatureSchema,
        embed_dim: usize,
        gru_hidden: usize,
        mlp_hidden: &[usize],
        hash: Option<HashConfig>,
        params: &mut Params,
        rng: &mut Rng,
    ) -> Self {
        let net = Self::register(
            name, schema, embed_dim, gru_hidden, mlp_hidden, hash, params,
        );
        params.init(rng);
        net
    }

    pub fn hidden(&self) -> usize {
        self.gru.hidden()
    }

    /// Builds the per-step input `x_t` (embeddings ⧺ dense). A dense bank
    /// rides the fused gather-concat; a hashed bank expands to multi-hash
    /// gathers — one forward body either way.
    fn step_input<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        batch: &SeqBatch,
        t: usize,
    ) -> E::V {
        debug_assert_eq!(batch.dense[t].cols(), self.num_dense);
        self.emb
            .encode_full(exec, params, &batch.cat[t], &batch.dense[t])
    }

    /// Full forward over a padded session batch: every step's input first,
    /// then the GRU₁ unroll as one composite ([`Exec::gru_unroll`]: a single
    /// tape node in training), then MLP₁ on each state. GRU and head
    /// parameters are pushed into the context once and shared by every
    /// timestep.
    pub fn forward<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        batch: &SeqBatch,
    ) -> AttentionForward<E::V> {
        let gru_vars = self.gru.param_vars(exec, params);
        let head_vars = self.head.param_vars(exec, params);
        let h0 = self.gru.zero_state(exec, batch.batch);
        let xs: Vec<E::V> = (0..batch.steps)
            .map(|t| self.step_input(exec, params, batch, t))
            .collect();
        let masks = step_masks(exec, batch);
        let z1 = exec.gru_unroll(&gru_vars, &h0, &xs, &masks);
        let logits = z1
            .iter()
            .map(|h| self.head.forward_with(exec, &head_vars, h))
            .collect();
        AttentionForward { logits, z1 }
    }
}

/// Each step's validity mask as a `batch × 1` constant.
fn step_masks<E: Exec>(exec: &mut E, batch: &SeqBatch) -> Vec<E::V> {
    batch
        .mask
        .iter()
        .map(|m| exec.input(Matrix::col_vector(m)))
        .collect()
}

/// The sequential propensity network `h` (GRU₂ + MLP₂).
pub struct PropensityNet {
    gru: GruCell,
    head: Mlp,
}

impl PropensityNet {
    pub fn new(
        name: &str,
        attention_hidden: usize,
        gru_hidden: usize,
        mlp_hidden: &[usize],
        params: &mut Params,
    ) -> Self {
        // GRU₂ consumes the scalar e_{t-1}.
        let gru = GruCell::new(&format!("{name}.gru2"), 1, gru_hidden, params);
        let head = Mlp::new(
            &format!("{name}.mlp2"),
            attention_hidden + gru_hidden + 1,
            mlp_hidden,
            1,
            Activation::Relu,
            Activation::None,
            params,
        );
        PropensityNet { gru, head }
    }

    /// Forward over a padded batch. `z1[t]` are the attention network's
    /// `batch × hidden` representations. To train Θ_h alone (the propensity
    /// phase of Algorithm 1, where Θ_g is frozen), pass them as constant
    /// leaves ([`Exec::input`]) so no gradient flows back into `g`.
    pub fn forward<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        batch: &SeqBatch,
        z1: &[E::V],
    ) -> Vec<E::V> {
        assert_eq!(z1.len(), batch.steps);
        let gru_vars = self.gru.param_vars(exec, params);
        let head_vars = self.head.param_vars(exec, params);
        let h0 = self.gru.zero_state(exec, batch.batch);
        let prev_e: Vec<E::V> = batch
            .prev_e
            .iter()
            .map(|e| exec.input(Matrix::col_vector(e)))
            .collect();
        let masks = step_masks(exec, batch);
        let states = exec.gru_unroll(&gru_vars, &h0, &prev_e, &masks);
        z1.iter()
            .zip(&states)
            .zip(&prev_e)
            .map(|((z1, h), e)| {
                let cat = exec.concat_cols(&[z1, h, e]);
                self.head.forward_with(exec, &head_vars, &cat)
            })
            .collect()
    }
}

/// SAR's propensity head: embeddings + MLP over *current* features only.
pub struct LocalPropensityNet {
    emb: EmbeddingBank,
    head: Mlp,
    num_dense: usize,
}

impl LocalPropensityNet {
    pub fn new(
        name: &str,
        schema: &FeatureSchema,
        embed_dim: usize,
        mlp_hidden: &[usize],
        hash: Option<HashConfig>,
        params: &mut Params,
    ) -> Self {
        let emb = EmbeddingBank::new(
            &format!("{name}.emb"),
            &schema.cat_cardinalities,
            embed_dim,
            hash,
            params,
        );
        let head = Mlp::new(
            &format!("{name}.mlp"),
            emb.concat_dim() + schema.num_dense(),
            mlp_hidden,
            1,
            Activation::Relu,
            Activation::None,
            params,
        );
        LocalPropensityNet {
            emb,
            head,
            num_dense: schema.num_dense(),
        }
    }

    /// Per-step logits using only `x_t`.
    pub fn forward<E: Exec>(&self, exec: &mut E, params: &Params, batch: &SeqBatch) -> Vec<E::V> {
        let head_vars = self.head.param_vars(exec, params);
        (0..batch.steps)
            .map(|t| {
                debug_assert_eq!(batch.dense[t].cols(), self.num_dense);
                let x = self
                    .emb
                    .encode_full(exec, params, &batch.cat[t], &batch.dense[t]);
                self.head.forward_with(exec, &head_vars, &x)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::{generate, seq_batches, SimConfig};
    use uae_tensor::{Tape, ValueExec, Var};

    fn batch() -> (uae_data::Dataset, SeqBatch) {
        let ds = generate(&SimConfig::tiny(), 1);
        let sessions: Vec<usize> = (0..4).collect();
        let mut rng = Rng::seed_from_u64(1);
        let mut batches = seq_batches(&ds, &sessions, 4, 12, &mut rng);
        (ds, batches.remove(0))
    }

    #[test]
    fn attention_forward_shapes() {
        let (ds, b) = batch();
        let mut rng = Rng::seed_from_u64(2);
        let mut params = Params::new();
        let net = AttentionNet::new("g", &ds.schema, 4, 8, &[8], None, &mut params, &mut rng);
        let mut tape = Tape::new();
        let out = net.forward(&mut tape, &params, &b);
        assert_eq!(out.logits.len(), b.steps);
        assert_eq!(out.z1.len(), b.steps);
        for t in 0..b.steps {
            assert_eq!(tape.value(out.logits[t]).shape(), (b.batch, 1));
            assert_eq!(tape.value(out.z1[t]).shape(), (b.batch, net.hidden()));
        }
    }

    #[test]
    fn propensity_forward_shapes_and_grad_separation() {
        let (ds, b) = batch();
        let mut rng = Rng::seed_from_u64(3);
        let mut params_g = Params::new();
        let g = AttentionNet::new("g", &ds.schema, 4, 8, &[8], None, &mut params_g, &mut rng);
        let mut params_h = Params::new();
        let h = PropensityNet::new("h", 8, 6, &[8], &mut params_h);
        params_h.init(&mut rng);

        let mut tape = Tape::new();
        let gf = g.forward(&mut tape, &params_g, &b);
        // z1 re-enters as constant leaves, as in the propensity phase.
        let z1: Vec<Var> = gf
            .z1
            .iter()
            .map(|&z| {
                let v = tape.value(z).clone();
                tape.input(v)
            })
            .collect();
        let logits = h.forward(&mut tape, &params_h, &b, &z1);
        assert_eq!(logits.len(), b.steps);
        // Sum all propensity logits and backprop into Θ_h only.
        let mut total = tape.sum_all(logits[0]);
        for &l in &logits[1..] {
            let s = tape.sum_all(l);
            total = tape.add(total, s);
        }
        params_g.zero_grads();
        params_h.zero_grads();
        tape.backward(total, &mut params_h);
        assert!(params_h.grad_norm() > 0.0, "Θ_h got no gradient");
        assert_eq!(params_g.grad_norm(), 0.0, "Θ_g must stay frozen");
    }

    #[test]
    fn one_forward_runs_under_both_engines() {
        // The structural guarantee the per-layer pinning tests used to
        // approximate: the same forward body runs on the tape and tape-free,
        // producing bitwise-equal values (exercised end-to-end and at both
        // thread counts in tests/exec_equivalence.rs).
        let (ds, b) = batch();
        let mut rng = Rng::seed_from_u64(7);
        let mut params = Params::new();
        let g = AttentionNet::new("g", &ds.schema, 4, 8, &[8], None, &mut params, &mut rng);
        let mut tape = Tape::new();
        let gf = g.forward(&mut tape, &params, &b);
        let mut vx = ValueExec::new();
        let gv = g.forward(&mut vx, &params, &b);
        for t in 0..b.steps {
            assert_eq!(
                tape.value(gf.logits[t]).data(),
                gv.logits[t].data(),
                "t={t}"
            );
            assert_eq!(tape.value(gf.z1[t]).data(), gv.z1[t].data(), "z1 t={t}");
        }
    }

    #[test]
    fn local_propensity_ignores_history() {
        // Two batches identical except for feedback history must produce the
        // same local-propensity logits (that is SAR's defining limitation).
        let (ds, b) = batch();
        let mut b2 = b.clone();
        for t in 0..b2.steps {
            for i in 0..b2.batch {
                b2.prev_e[t][i] = 1.0 - b2.prev_e[t][i];
            }
        }
        let mut rng = Rng::seed_from_u64(4);
        let mut params = Params::new();
        let net = LocalPropensityNet::new("sar", &ds.schema, 4, &[8], None, &mut params);
        params.init(&mut rng);
        let mut t1 = Tape::new();
        let l1 = net.forward(&mut t1, &params, &b);
        let mut t2 = Tape::new();
        let l2 = net.forward(&mut t2, &params, &b2);
        for t in 0..b.steps {
            assert_eq!(t1.value(l1[t]).data(), t2.value(l2[t]).data());
        }
    }
}
