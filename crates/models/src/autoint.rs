//! AutoInt (Song et al., CIKM 2019): automatic feature interaction via
//! multi-head self-attention over feature fields.

use uae_data::{FeatureSchema, FlatBatch};
use uae_nn::{InteractingLayer, Linear};
use uae_tensor::{Exec, Params};

use crate::encoder::Encoder;
use crate::recommender::{ModelConfig, RecommenderForward};

/// AutoInt treats every categorical field as a token; the dense vector is
/// projected into one extra pseudo-field. A stack of interacting layers
/// exchanges information among fields; the flattened result feeds a linear
/// logit head.
pub struct AutoInt {
    encoder: Encoder,
    dense_proj: Linear,
    layers: Vec<InteractingLayer>,
    head: Linear,
    num_tokens: usize,
}

impl AutoInt {
    pub fn new(schema: &FeatureSchema, config: &ModelConfig, params: &mut Params) -> Self {
        let encoder = Encoder::new(
            "autoint.emb",
            schema,
            config.embed_dim,
            config.hash_spec(),
            params,
        );
        let k = config.embed_dim;
        let dense_proj = Linear::new("autoint.dense_proj", encoder.num_dense().max(1), k, params);
        let num_tokens = encoder.num_fields() + 1;
        let mut layers = Vec::with_capacity(config.attn_layers.max(1));
        let mut in_dim = k;
        for i in 0..config.attn_layers.max(1) {
            let layer = InteractingLayer::new(
                &format!("autoint.attn{i}"),
                in_dim,
                config.attn_heads,
                config.attn_head_dim,
                params,
            );
            in_dim = layer.out_dim();
            layers.push(layer);
        }
        let head = Linear::new("autoint.head", num_tokens * in_dim, 1, params);
        AutoInt {
            encoder,
            dense_proj,
            layers,
            head,
            num_tokens,
        }
    }
}

impl RecommenderForward for AutoInt {
    fn name(&self) -> &'static str {
        "AutoInt"
    }

    fn forward_exec<E: Exec>(&self, exec: &mut E, params: &Params, batch: &FlatBatch) -> E::V {
        let enc = self.encoder.encode(exec, params, batch);
        let b = enc.batch;
        let k = self.encoder.embed_dim();
        // Tokens: concatenated field embeddings ⧺ projected dense, reshaped
        // to the packed (batch, tokens, k) layout.
        let dense_tok = self.dense_proj.forward(exec, params, &enc.dense);
        let tokens_flat = exec.concat_cols(&[&enc.emb_concat, &dense_tok]);
        let mut x = exec.reshape(&tokens_flat, b * self.num_tokens, k);
        for layer in &self.layers {
            x = layer.forward(exec, params, &x, b);
        }
        let width = self.layers.last().expect("layers").out_dim();
        let flat = exec.reshape(&x, b, self.num_tokens * width);
        self.head.forward(exec, params, &flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recommender::Recommender;
    use uae_data::{generate, FlatData, SimConfig};
    use uae_tensor::{Rng, Tape};

    #[test]
    fn stacked_layers_change_width_correctly() {
        let ds = generate(&SimConfig::tiny(), 2);
        let flat = FlatData::from_sessions(&ds, &[0]);
        let idx: Vec<usize> = (0..4).collect();
        let batch = flat.gather(&idx);
        let mut rng = Rng::seed_from_u64(3);
        let mut params = Params::new();
        let cfg = ModelConfig {
            attn_layers: 2,
            attn_heads: 2,
            attn_head_dim: 4,
            ..Default::default()
        };
        let model = AutoInt::new(&ds.schema, &cfg, &mut params);
        params.init(&mut rng);
        let mut tape = Tape::new();
        let out = Recommender::forward(&model, &mut tape, &params, &batch);
        assert_eq!(tape.value(out).shape(), (4, 1));
        assert!(tape.value(out).data().iter().all(|v| v.is_finite()));
    }
}
