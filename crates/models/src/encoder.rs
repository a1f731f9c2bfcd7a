//! Shared input encoding: categorical field embeddings plus dense features.

use uae_data::{FeatureSchema, FlatBatch};
use uae_nn::{EmbeddingBank, HashConfig};
use uae_tensor::{Exec, Init, Params};

/// Embedding-based feature encoder shared by all deep models.
#[derive(Debug, Clone)]
pub struct Encoder {
    emb: EmbeddingBank,
    num_dense: usize,
}

/// The encoded views of a batch that different architectures consume. `V` is
/// the execution context's value handle ([`Var`](uae_tensor::Var) on the
/// tape, [`Matrix`](uae_tensor::Matrix) tape-free).
pub struct Encoded<V> {
    /// Per-field embeddings, each `batch × k`.
    pub fields: Vec<V>,
    /// Concatenated embeddings, `batch × (F·k)`.
    pub emb_concat: V,
    /// Dense features, `batch × d`.
    pub dense: V,
    /// `emb_concat ⧺ dense`, `batch × (F·k + d)` — the usual deep input.
    pub full: V,
    pub batch: usize,
}

impl Encoder {
    pub fn new(
        name: &str,
        schema: &FeatureSchema,
        embed_dim: usize,
        hash: Option<HashConfig>,
        params: &mut Params,
    ) -> Self {
        Encoder {
            emb: EmbeddingBank::new(name, &schema.cat_cardinalities, embed_dim, hash, params),
            num_dense: schema.num_dense(),
        }
    }

    pub fn embed_dim(&self) -> usize {
        self.emb.dim()
    }

    pub fn num_fields(&self) -> usize {
        self.emb.num_fields()
    }

    pub fn num_dense(&self) -> usize {
        self.num_dense
    }

    /// Width of [`Encoded::full`].
    pub fn full_dim(&self) -> usize {
        self.emb.concat_dim() + self.num_dense
    }

    /// Encodes a flat batch in the given execution context.
    pub fn encode<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        batch: &FlatBatch,
    ) -> Encoded<E::V> {
        let fields = self.emb.forward_fields(exec, params, &batch.cat);
        let emb_concat = exec.concat_cols(&fields.iter().collect::<Vec<_>>());
        let dense = exec.input(batch.dense.clone());
        let full = exec.concat_cols(&[&emb_concat, &dense]);
        Encoded {
            fields,
            emb_concat,
            dense,
            full,
            batch: batch.len(),
        }
    }

    /// Encodes only the [`Encoded::full`] view — the fast path for models
    /// that consume nothing else (DCN's cross/deep input, Wide&Deep's deep
    /// tower). A dense bank rides the fused [`Exec::gather_concat`]; a
    /// hashed bank expands to multi-hash gathers. Bitwise identical to
    /// `encode(..).full` either way.
    pub fn encode_full<E: Exec>(&self, exec: &mut E, params: &Params, batch: &FlatBatch) -> E::V {
        self.emb.encode_full(exec, params, &batch.cat, &batch.dense)
    }
}

/// First-order (width-1) embeddings plus a dense linear term and a global
/// bias — the "wide"/linear component of FM, Wide&Deep and DeepFM.
#[derive(Debug, Clone)]
pub struct LinearTerm {
    weights: EmbeddingBank,
    dense_w: uae_tensor::ParamId,
    bias: uae_tensor::ParamId,
}

impl LinearTerm {
    pub fn new(
        name: &str,
        schema: &FeatureSchema,
        hash: Option<HashConfig>,
        params: &mut Params,
    ) -> Self {
        LinearTerm {
            weights: EmbeddingBank::new(
                &format!("{name}.w1"),
                &schema.cat_cardinalities,
                1,
                hash,
                params,
            ),
            dense_w: params.register(
                format!("{name}.dense_w"),
                schema.num_dense().max(1),
                1,
                Init::XavierUniform,
            ),
            bias: params.register(format!("{name}.bias"), 1, 1, Init::Zeros),
        }
    }

    /// `batch × 1` linear logit.
    pub fn forward<E: Exec>(&self, exec: &mut E, params: &Params, batch: &FlatBatch) -> E::V {
        let ones = self.weights.forward_fields(exec, params, &batch.cat);
        // Sum of per-field scalar weights.
        let mut acc = ones[0].clone();
        for f in &ones[1..] {
            acc = exec.add(&acc, f);
        }
        let dense = exec.input(batch.dense.clone());
        let dw = exec.param(params, self.dense_w);
        let dterm = exec.matmul(&dense, &dw);
        let sum = exec.add(&acc, &dterm);
        let b = exec.param(params, self.bias);
        exec.add_row(&sum, &b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::{generate, FlatData, SimConfig};
    use uae_tensor::{Rng, Tape};

    fn batch() -> (uae_data::Dataset, FlatBatch) {
        let ds = generate(&SimConfig::tiny(), 1);
        let flat = FlatData::from_sessions(&ds, &[0, 1]);
        let idx: Vec<usize> = (0..6).collect();
        let b = flat.gather(&idx);
        (ds, b)
    }

    #[test]
    fn encoded_shapes_are_consistent() {
        let (ds, b) = batch();
        let mut rng = Rng::seed_from_u64(2);
        let mut params = Params::new();
        let enc = Encoder::new("e", &ds.schema, 4, None, &mut params);
        params.init(&mut rng);
        let mut tape = Tape::new();
        let out = enc.encode(&mut tape, &params, &b);
        assert_eq!(out.fields.len(), ds.schema.num_cat_fields());
        assert_eq!(
            tape.value(out.emb_concat).shape(),
            (6, 4 * ds.schema.num_cat_fields())
        );
        assert_eq!(tape.value(out.dense).shape(), (6, ds.schema.num_dense()));
        assert_eq!(tape.value(out.full).shape(), (6, enc.full_dim()));
    }

    #[test]
    fn linear_term_is_scalar_per_sample() {
        let (ds, b) = batch();
        let mut rng = Rng::seed_from_u64(3);
        let mut params = Params::new();
        let lin = LinearTerm::new("l", &ds.schema, None, &mut params);
        params.init(&mut rng);
        let mut tape = Tape::new();
        let out = lin.forward(&mut tape, &params, &b);
        assert_eq!(tape.value(out).shape(), (6, 1));
    }
}
