//! The `Recommender` abstraction and the model zoo of the paper's Table IV.
//!
//! Forward math lives in [`RecommenderForward::forward_exec`], written once
//! per model and generic over the [`Exec`] execution context. The object-safe
//! [`Recommender`] trait (what `ModelKind::build` hands back) is derived from
//! it by a blanket impl: [`Recommender::forward`] records on the training
//! tape, [`Recommender::infer`] runs the same code tape-free for every pass
//! that is never differentiated (evaluation, serving, the A/B simulator) —
//! bit-identical by construction.

use uae_data::{FeatureSchema, FlatBatch};
use uae_tensor::{Exec, Matrix, Params, Rng, Tape, ValueExec, Var};

/// Shared hyper-parameters of all base models.
///
/// The paper fixes embedding size 8 and MLP hidden layers (256, 128, 64) at
/// production scale; the defaults here are proportionally smaller to match
/// the scaled-down datasets (and the harness can restore the paper's sizes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    pub embed_dim: usize,
    pub hidden: Vec<usize>,
    pub cross_layers: usize,
    pub attn_heads: usize,
    pub attn_head_dim: usize,
    pub attn_layers: usize,
    /// When nonzero, categorical fields (second- *and* first-order tables)
    /// embed through hashed tables capped at this many buckets (see
    /// [`uae_nn::HashedEmbedding`]). Zero keeps dense tables. Architectural:
    /// a serving artifact must rebuild with the same value.
    pub hash_buckets: usize,
    /// Hash functions per lookup when `hash_buckets > 0`.
    pub hash_k: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            embed_dim: 8,
            hidden: vec![64, 32],
            cross_layers: 2,
            attn_heads: 2,
            attn_head_dim: 8,
            attn_layers: 1,
            hash_buckets: 0,
            hash_k: 2,
        }
    }
}

impl ModelConfig {
    /// The paper's full-size configuration (embedding 8, MLP 256-128-64).
    pub fn paper_scale() -> Self {
        ModelConfig {
            embed_dim: 8,
            hidden: vec![256, 128, 64],
            cross_layers: 3,
            attn_heads: 2,
            attn_head_dim: 16,
            attn_layers: 2,
            hash_buckets: 0,
            hash_k: 2,
        }
    }

    /// The embedding-bank switch derived from `hash_buckets`/`hash_k`
    /// (`None` = dense). Uses the fixed format hash seed, never a run seed.
    pub fn hash_spec(&self) -> Option<uae_nn::HashConfig> {
        if self.hash_buckets == 0 {
            None
        } else {
            Some(uae_nn::HashConfig::new(self.hash_buckets, self.hash_k))
        }
    }
}

/// A CTR-style model's forward pass, written exactly once per architecture
/// and generic over the execution context.
pub trait RecommenderForward {
    /// Model family name as printed in the paper's tables.
    fn name(&self) -> &'static str;

    /// Computes `batch × 1` logits for the events in `batch`.
    fn forward_exec<E: Exec>(&self, exec: &mut E, params: &Params, batch: &FlatBatch) -> E::V;
}

/// Object-safe scoring interface over the model zoo. Every
/// [`RecommenderForward`] implements it via the blanket impl below; both
/// methods run the *same* forward body, so tape and tape-free logits are
/// bit-identical.
pub trait Recommender {
    /// Model family name as printed in the paper's tables.
    fn name(&self) -> &'static str;

    /// Records the forward pass on the training tape.
    fn forward(&self, tape: &mut Tape, params: &Params, batch: &FlatBatch) -> Var;

    /// Tape-free forward pass, bit-identical to [`Self::forward`]: the one
    /// engine of passes that are never differentiated. It opens no arena
    /// generation; a serving caller scopes its batches itself.
    fn infer(&self, params: &Params, batch: &FlatBatch) -> Matrix;
}

impl<T: RecommenderForward> Recommender for T {
    fn name(&self) -> &'static str {
        RecommenderForward::name(self)
    }

    fn forward(&self, tape: &mut Tape, params: &Params, batch: &FlatBatch) -> Var {
        self.forward_exec(tape, params, batch)
    }

    fn infer(&self, params: &Params, batch: &FlatBatch) -> Matrix {
        self.forward_exec(&mut ValueExec::new(), params, batch)
    }
}

/// The seven base models of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    Fm,
    WideDeep,
    DeepFm,
    YoutubeNet,
    Dcn,
    AutoInt,
    DcnV2,
}

impl ModelKind {
    /// All base models, in the column order of Table IV.
    pub fn all() -> [ModelKind; 7] {
        [
            ModelKind::Fm,
            ModelKind::WideDeep,
            ModelKind::DeepFm,
            ModelKind::YoutubeNet,
            ModelKind::Dcn,
            ModelKind::AutoInt,
            ModelKind::DcnV2,
        ]
    }

    /// The display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Fm => "FM",
            ModelKind::WideDeep => "Wide&Deep",
            ModelKind::DeepFm => "DeepFM",
            ModelKind::YoutubeNet => "YoutubeNet",
            ModelKind::Dcn => "DCN",
            ModelKind::AutoInt => "AutoInt",
            ModelKind::DcnV2 => "DCN-V2",
        }
    }

    /// Parses a display or lowercase CLI name back into a kind.
    pub fn parse(s: &str) -> Option<ModelKind> {
        let norm = s.to_ascii_lowercase();
        ModelKind::all()
            .into_iter()
            .find(|k| k.name().to_ascii_lowercase() == norm || k.cli_name() == norm)
    }

    /// A lowercase identifier safe for CLI flags and filenames.
    pub fn cli_name(self) -> &'static str {
        match self {
            ModelKind::Fm => "fm",
            ModelKind::WideDeep => "wide_deep",
            ModelKind::DeepFm => "deepfm",
            ModelKind::YoutubeNet => "youtube_net",
            ModelKind::Dcn => "dcn",
            ModelKind::AutoInt => "autoint",
            ModelKind::DcnV2 => "dcn_v2",
        }
    }

    /// Instantiates the model and draws its initial values from `rng`.
    pub fn build(
        self,
        schema: &FeatureSchema,
        config: &ModelConfig,
        rng: &mut Rng,
    ) -> (Box<dyn Recommender + Send + Sync>, Params) {
        let (model, mut params) = self.construct(schema, config);
        params.init(rng);
        (model, params)
    }

    /// The model [`ModelKind::build`] makes, with stored parameter values
    /// instead of drawn ones: `bind` gets the registered parameters without
    /// values and must give each its value (see [`Params::bind`]). Nothing
    /// is drawn and no gradient buffer is allocated.
    pub fn bind<E>(
        self,
        schema: &FeatureSchema,
        config: &ModelConfig,
        bind: impl FnOnce(&mut Params) -> Result<(), E>,
    ) -> Result<(Box<dyn Recommender + Send + Sync>, Params), E> {
        let (model, mut params) = self.construct(schema, config);
        bind(&mut params)?;
        Ok((model, params))
    }

    /// Registers the model's parameters into a fresh arena; draws nothing.
    fn construct(
        self,
        schema: &FeatureSchema,
        config: &ModelConfig,
    ) -> (Box<dyn Recommender + Send + Sync>, Params) {
        let mut params = Params::new();
        let model: Box<dyn Recommender + Send + Sync> = match self {
            ModelKind::Fm => Box::new(crate::fm::Fm::new(schema, config, &mut params)),
            ModelKind::WideDeep => {
                Box::new(crate::wide_deep::WideDeep::new(schema, config, &mut params))
            }
            ModelKind::DeepFm => Box::new(crate::fm::DeepFm::new(schema, config, &mut params)),
            ModelKind::YoutubeNet => Box::new(crate::wide_deep::YoutubeNet::new(
                schema,
                config,
                &mut params,
            )),
            ModelKind::Dcn => Box::new(crate::dcn::Dcn::new(schema, config, &mut params)),
            ModelKind::AutoInt => {
                Box::new(crate::autoint::AutoInt::new(schema, config, &mut params))
            }
            ModelKind::DcnV2 => Box::new(crate::dcn::DcnV2::new(schema, config, &mut params)),
        };
        (model, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::{generate, FlatData, SimConfig};

    /// Every model must produce finite per-event logits of the right shape
    /// and respond to its parameters (non-zero gradients).
    #[test]
    fn all_models_forward_and_backward() {
        let ds = generate(&SimConfig::tiny(), 5);
        let sessions: Vec<usize> = (0..4).collect();
        let flat = FlatData::from_sessions(&ds, &sessions);
        let idx: Vec<usize> = (0..8).collect();
        let batch = flat.gather(&idx);
        for kind in ModelKind::all() {
            let mut rng = Rng::seed_from_u64(7);
            let (model, mut params) = kind.build(&ds.schema, &ModelConfig::default(), &mut rng);
            assert_eq!(model.name(), kind.name());
            let mut tape = Tape::new();
            let logits = model.forward(&mut tape, &params, &batch);
            assert_eq!(tape.value(logits).shape(), (8, 1), "{}", kind.name());
            assert!(
                tape.value(logits).data().iter().all(|v| v.is_finite()),
                "{}",
                kind.name()
            );
            let pos: Vec<f32> = batch.label.iter().map(|&y| y as u8 as f32).collect();
            let neg: Vec<f32> = pos.iter().map(|p| 1.0 - p).collect();
            let loss = tape.weighted_bce(logits, &pos, &neg, 8.0, false);
            params.zero_grads();
            tape.backward(loss, &mut params);
            assert!(
                params.grad_norm() > 0.0,
                "{} produced zero gradients",
                kind.name()
            );
        }
    }

    /// The structural bit-identity contract: `infer` must reproduce the
    /// tape's forward logits exactly, for every model in the zoo.
    #[test]
    fn infer_matches_tape_forward_for_every_model() {
        let ds = generate(&SimConfig::tiny(), 5);
        let sessions: Vec<usize> = (0..4).collect();
        let flat = FlatData::from_sessions(&ds, &sessions);
        let idx: Vec<usize> = (0..8).collect();
        let batch = flat.gather(&idx);
        for kind in ModelKind::all() {
            let mut rng = Rng::seed_from_u64(11);
            let (model, params) = kind.build(&ds.schema, &ModelConfig::default(), &mut rng);
            let mut tape = Tape::new();
            let logits = model.forward(&mut tape, &params, &batch);
            let free = model.infer(&params, &batch);
            assert_eq!(tape.value(logits).data(), free.data(), "{}", kind.name());
        }
    }

    #[test]
    fn model_names_are_unique() {
        let names: std::collections::HashSet<_> =
            ModelKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn parse_round_trips_cli_names() {
        for kind in ModelKind::all() {
            assert_eq!(ModelKind::parse(kind.cli_name()), Some(kind));
            assert_eq!(ModelKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ModelKind::parse("nope"), None);
    }
}
