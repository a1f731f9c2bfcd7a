//! Deep & Cross Network v1 (Wang et al., ADKDD 2017) and DCN-V2 (Wang et
//! al., WWW 2021) — the paper's strongest base model.

use uae_data::{FeatureSchema, FlatBatch};
use uae_nn::{Activation, CrossLayerV1, CrossLayerV2, Linear, Mlp};
use uae_tensor::{Exec, Params};

use crate::encoder::Encoder;
use crate::recommender::{ModelConfig, RecommenderForward};

/// DCN v1: a stack of rank-1 cross layers in parallel with a deep MLP;
/// their outputs are concatenated into a final linear head.
pub struct Dcn {
    encoder: Encoder,
    cross: Vec<CrossLayerV1>,
    deep: Mlp,
    head: Linear,
}

impl Dcn {
    pub fn new(schema: &FeatureSchema, config: &ModelConfig, params: &mut Params) -> Self {
        let encoder = Encoder::new(
            "dcn.emb",
            schema,
            config.embed_dim,
            config.hash_spec(),
            params,
        );
        let dim = encoder.full_dim();
        let cross = (0..config.cross_layers.max(1))
            .map(|i| CrossLayerV1::new(&format!("dcn.cross{i}"), dim, params))
            .collect();
        let deep_out = *config.hidden.last().unwrap_or(&32);
        let deep = Mlp::new(
            "dcn.deep",
            dim,
            &config.hidden[..config.hidden.len().saturating_sub(1)],
            deep_out,
            Activation::Relu,
            Activation::Relu,
            params,
        );
        let head = Linear::new("dcn.head", dim + deep_out, 1, params);
        Dcn {
            encoder,
            cross,
            deep,
            head,
        }
    }
}

impl RecommenderForward for Dcn {
    fn name(&self) -> &'static str {
        "DCN"
    }

    fn forward_exec<E: Exec>(&self, exec: &mut E, params: &Params, batch: &FlatBatch) -> E::V {
        let x0 = self.encoder.encode_full(exec, params, batch);
        let mut x = x0.clone();
        for layer in &self.cross {
            x = layer.forward(exec, params, &x0, &x);
        }
        let deep = self.deep.forward(exec, params, &x0);
        let cat = exec.concat_cols(&[&x, &deep]);
        self.head.forward(exec, params, &cat)
    }
}

/// DCN-V2: same topology with full-matrix cross layers.
pub struct DcnV2 {
    encoder: Encoder,
    cross: Vec<CrossLayerV2>,
    deep: Mlp,
    head: Linear,
}

impl DcnV2 {
    pub fn new(schema: &FeatureSchema, config: &ModelConfig, params: &mut Params) -> Self {
        let encoder = Encoder::new(
            "dcnv2.emb",
            schema,
            config.embed_dim,
            config.hash_spec(),
            params,
        );
        let dim = encoder.full_dim();
        let cross = (0..config.cross_layers.max(1))
            .map(|i| CrossLayerV2::new(&format!("dcnv2.cross{i}"), dim, params))
            .collect();
        let deep_out = *config.hidden.last().unwrap_or(&32);
        let deep = Mlp::new(
            "dcnv2.deep",
            dim,
            &config.hidden[..config.hidden.len().saturating_sub(1)],
            deep_out,
            Activation::Relu,
            Activation::Relu,
            params,
        );
        let head = Linear::new("dcnv2.head", dim + deep_out, 1, params);
        DcnV2 {
            encoder,
            cross,
            deep,
            head,
        }
    }
}

impl RecommenderForward for DcnV2 {
    fn name(&self) -> &'static str {
        "DCN-V2"
    }

    fn forward_exec<E: Exec>(&self, exec: &mut E, params: &Params, batch: &FlatBatch) -> E::V {
        let x0 = self.encoder.encode_full(exec, params, batch);
        let mut x = x0.clone();
        for layer in &self.cross {
            x = layer.forward(exec, params, &x0, &x);
        }
        let deep = self.deep.forward(exec, params, &x0);
        let cat = exec.concat_cols(&[&x, &deep]);
        self.head.forward(exec, params, &cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recommender::Recommender;
    use uae_data::{generate, FlatData, SimConfig};
    use uae_tensor::{Rng, Tape};

    fn batch() -> (uae_data::Dataset, uae_data::FlatBatch) {
        let ds = generate(&SimConfig::tiny(), 8);
        let flat = FlatData::from_sessions(&ds, &[0, 1]);
        let idx: Vec<usize> = (0..6).collect();
        let b = flat.gather(&idx);
        (ds, b)
    }

    #[test]
    fn dcn_v1_forward_shape_and_cross_depth() {
        let (ds, b) = batch();
        let mut rng = Rng::seed_from_u64(1);
        let mut params = Params::new();
        let cfg = ModelConfig {
            cross_layers: 3,
            ..Default::default()
        };
        let model = Dcn::new(&ds.schema, &cfg, &mut params);
        params.init(&mut rng);
        let mut tape = Tape::new();
        let out = Recommender::forward(&model, &mut tape, &params, &b);
        assert_eq!(tape.value(out).shape(), (6, 1));
        assert!(tape.value(out).data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dcn_v2_differs_from_v1_with_same_seed() {
        // The full-matrix cross must genuinely change the function computed.
        let (ds, b) = batch();
        let cfg = ModelConfig::default();
        let mut rng1 = Rng::seed_from_u64(2);
        let mut p1 = Params::new();
        let v1 = Dcn::new(&ds.schema, &cfg, &mut p1);
        p1.init(&mut rng1);
        let mut rng2 = Rng::seed_from_u64(2);
        let mut p2 = Params::new();
        let v2 = DcnV2::new(&ds.schema, &cfg, &mut p2);
        p2.init(&mut rng2);
        // DCN-V2 has strictly more parameters (d×d vs d×1 cross weights).
        assert!(p2.num_scalars() > p1.num_scalars());
        let mut t1 = Tape::new();
        let o1 = Recommender::forward(&v1, &mut t1, &p1, &b);
        let mut t2 = Tape::new();
        let o2 = Recommender::forward(&v2, &mut t2, &p2, &b);
        assert_ne!(t1.value(o1).data(), t2.value(o2).data());
    }

    #[test]
    fn dcn_v2_gradients_reach_all_components() {
        let (ds, b) = batch();
        let mut rng = Rng::seed_from_u64(3);
        let mut params = Params::new();
        let model = DcnV2::new(&ds.schema, &ModelConfig::default(), &mut params);
        params.init(&mut rng);
        let mut tape = Tape::new();
        let logits = Recommender::forward(&model, &mut tape, &params, &b);
        let pos: Vec<f32> = b.label.iter().map(|&y| y as u8 as f32).collect();
        let neg: Vec<f32> = pos.iter().map(|p| 1.0 - p).collect();
        let loss = tape.weighted_bce(logits, &pos, &neg, 6.0, false);
        params.zero_grads();
        tape.backward(loss, &mut params);
        // Cross weights, deep weights, and the head must all receive signal.
        let touched = params
            .ids()
            .filter(|&id| params.grad(id).squared_norm() > 0.0)
            .count();
        assert!(touched > params.count() / 2, "{touched}/{}", params.count());
    }
}
