//! Wide&Deep (Cheng et al., DLRS 2016) and YoutubeNet (Covington et al.,
//! RecSys 2016).

use uae_data::{FeatureSchema, FlatBatch};
use uae_nn::{Activation, Mlp};
use uae_tensor::{Exec, Params};

use crate::encoder::{Encoder, LinearTerm};
use crate::recommender::{ModelConfig, RecommenderForward};

/// Wide&Deep: a memorising linear ("wide") part over raw features plus a
/// generalising MLP ("deep") part over embeddings, summed at the logit.
pub struct WideDeep {
    pub(crate) wide: LinearTerm,
    encoder: Encoder,
    deep: Mlp,
}

impl WideDeep {
    pub fn new(schema: &FeatureSchema, config: &ModelConfig, params: &mut Params) -> Self {
        let encoder = Encoder::new(
            "wd.emb",
            schema,
            config.embed_dim,
            config.hash_spec(),
            params,
        );
        let deep = Mlp::new(
            "wd.deep",
            encoder.full_dim(),
            &config.hidden,
            1,
            Activation::Relu,
            Activation::None,
            params,
        );
        WideDeep {
            wide: LinearTerm::new("wd.wide", schema, config.hash_spec(), params),
            encoder,
            deep,
        }
    }
}

impl RecommenderForward for WideDeep {
    fn name(&self) -> &'static str {
        "Wide&Deep"
    }

    fn forward_exec<E: Exec>(&self, exec: &mut E, params: &Params, batch: &FlatBatch) -> E::V {
        let wide = self.wide.forward(exec, params, batch);
        let full = self.encoder.encode_full(exec, params, batch);
        let deep = self.deep.forward(exec, params, &full);
        exec.add(&wide, &deep)
    }
}

/// YoutubeNet: embeddings + dense features through a deep ReLU tower.
pub struct YoutubeNet {
    encoder: Encoder,
    tower: Mlp,
}

impl YoutubeNet {
    pub fn new(schema: &FeatureSchema, config: &ModelConfig, params: &mut Params) -> Self {
        let encoder = Encoder::new(
            "yt.emb",
            schema,
            config.embed_dim,
            config.hash_spec(),
            params,
        );
        let tower = Mlp::new(
            "yt.tower",
            encoder.full_dim(),
            &config.hidden,
            1,
            Activation::Relu,
            Activation::None,
            params,
        );
        YoutubeNet { encoder, tower }
    }
}

impl RecommenderForward for YoutubeNet {
    fn name(&self) -> &'static str {
        "YoutubeNet"
    }

    fn forward_exec<E: Exec>(&self, exec: &mut E, params: &Params, batch: &FlatBatch) -> E::V {
        let full = self.encoder.encode_full(exec, params, batch);
        self.tower.forward(exec, params, &full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recommender::Recommender;
    use uae_data::{generate, FlatData, SimConfig};
    use uae_tensor::{Rng, Tape};

    fn batch() -> (uae_data::Dataset, uae_data::FlatBatch) {
        let ds = generate(&SimConfig::tiny(), 9);
        let flat = FlatData::from_sessions(&ds, &[0]);
        let idx: Vec<usize> = (0..5).collect();
        let b = flat.gather(&idx);
        (ds, b)
    }

    #[test]
    fn wide_deep_is_sum_of_parts() {
        // With the deep tower zeroed (by zeroing its final layer), Wide&Deep
        // must reduce to its wide component alone.
        let (ds, b) = batch();
        let mut rng = Rng::seed_from_u64(1);
        let mut params = Params::new();
        let model = WideDeep::new(&ds.schema, &ModelConfig::default(), &mut params);
        params.init(&mut rng);
        let mut tape = Tape::new();
        let full = Recommender::forward(&model, &mut tape, &params, &b);
        let full_vals = tape.value(full).clone();
        // Zero the deep output layer (named "wd.deep.out.*").
        for id in params.ids().collect::<Vec<_>>() {
            if params.name(id).starts_with("wd.deep.out") {
                params.value_mut(id).fill_zero();
            }
        }
        let mut t2 = Tape::new();
        let wide_only = Recommender::forward(&model, &mut t2, &params, &b);
        let mut t3 = Tape::new();
        let wide = model.wide.forward(&mut t3, &params, &b);
        assert!(t2.value(wide_only).max_abs_diff(t3.value(wide)) < 1e-6);
        // And the deep part was actually contributing before.
        assert!(full_vals.max_abs_diff(t2.value(wide_only)) > 1e-6);
    }

    #[test]
    fn youtube_net_shapes_and_finiteness() {
        let (ds, b) = batch();
        let mut rng = Rng::seed_from_u64(2);
        let mut params = Params::new();
        let model = YoutubeNet::new(&ds.schema, &ModelConfig::default(), &mut params);
        params.init(&mut rng);
        let mut tape = Tape::new();
        let out = Recommender::forward(&model, &mut tape, &params, &b);
        assert_eq!(tape.value(out).shape(), (5, 1));
        assert!(tape.value(out).data().iter().all(|v| v.is_finite()));
    }
}
