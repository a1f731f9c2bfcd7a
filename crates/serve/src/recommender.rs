//! Frozen downstream recommenders: `.uaem` variant 2 and the batched
//! [`RecScorer`].
//!
//! A [`FrozenRecommender`] snapshots any Table-IV model — the feature
//! schema, the [`ModelKind`] tag, the [`ModelConfig`] hyper-parameters, and
//! the parameter arena — in the same `UAEM` v3 container and the same
//! header + arena layout as the sequential UAE snapshot, distinguished by
//! the variant byte, and loads through the same loader. [`FrozenArtifact`]
//! sniffs that byte once so callers that do not know the variant up front
//! (the `score` CLI) can load either.
//!
//! Scoring reuses the one-implementation forward: [`RecScorer`] drives the
//! model's tape-free [`Recommender::infer`] over sequential index-range
//! batches, one arena generation each — the same forward and batching
//! scheme as `uae_models::predict` — so batched scores are bit-identical to
//! `predict` at any batch size (the kernels are row-independent).

use std::path::Path;
use std::sync::Arc;

use uae_data::{FeatureSchema, FlatData};
use uae_models::{ModelConfig, ModelKind, Recommender};
use uae_runtime::checkpoint::{write_atomic, ByteReader, CheckpointError};
use uae_runtime::UaeError;
use uae_tensor::{sigmoid, MmapRegion, Params};

use crate::model::{
    byte_head, cat_rows, check_header, check_plausible, copy_bytes, copy_file, get_schema,
    load_mapped, named, put_header, put_schema, ParamArena, VARIANT_RECOMMENDER,
};
use crate::FrozenModel;

/// Stable on-disk tags for [`ModelKind`] (do not reorder).
const KIND_TAGS: [(ModelKind, u8); 7] = [
    (ModelKind::Fm, 0),
    (ModelKind::WideDeep, 1),
    (ModelKind::DeepFm, 2),
    (ModelKind::YoutubeNet, 3),
    (ModelKind::Dcn, 4),
    (ModelKind::AutoInt, 5),
    (ModelKind::DcnV2, 6),
];

fn kind_tag(kind: ModelKind) -> u8 {
    KIND_TAGS.iter().find(|(k, _)| *k == kind).unwrap().1
}

fn kind_from_tag(tag: u8) -> Result<ModelKind, CheckpointError> {
    KIND_TAGS
        .iter()
        .find(|(_, t)| *t == tag)
        .map(|(k, _)| *k)
        .ok_or(CheckpointError::Corrupt("bad recommender-kind tag"))
}

/// A frozen downstream recommender: everything needed to rebuild a trained
/// Table-IV model for tape-free batched scoring.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenRecommender {
    /// Feature schema the model was trained against.
    pub schema: FeatureSchema,
    /// Which Table-IV architecture the arena belongs to.
    pub kind: ModelKind,
    /// Hyper-parameters needed to rebuild the architecture.
    pub config: ModelConfig,
    /// The parameter arena (one table).
    arena: ParamArena,
}

impl FrozenRecommender {
    /// Freezes a trained recommender's parameters into an arena together
    /// with the architecture recipe that rebuilds it.
    pub fn new(
        schema: &FeatureSchema,
        kind: ModelKind,
        config: &ModelConfig,
        params: &Params,
    ) -> FrozenRecommender {
        FrozenRecommender {
            schema: schema.clone(),
            kind,
            config: config.clone(),
            arena: ParamArena::lay_out(&[named(params)]),
        }
    }

    /// A lower bound on the scalars `kind.build` allocates: the embedding
    /// tables every kind has, plus the kind's MLP, cross or attention
    /// weights.
    fn implied_scalars(&self) -> u64 {
        let c = &self.config;
        let e = c.embed_dim as u64;
        let dim = (self.schema.num_cat_fields() as u64)
            .saturating_mul(e)
            .saturating_add(self.schema.num_dense() as u64);
        let mlp = || {
            let mut prev = dim;
            c.hidden.iter().fold(0u64, |n, &h| {
                let n = n.saturating_add(prev.saturating_mul(h as u64));
                prev = h as u64;
                n
            })
        };
        let layers = |n: usize| n.max(1) as u64;
        let head = match self.kind {
            ModelKind::Fm => 0,
            ModelKind::WideDeep | ModelKind::DeepFm | ModelKind::YoutubeNet => mlp(),
            ModelKind::Dcn | ModelKind::DcnV2 => {
                mlp().saturating_add(layers(c.cross_layers).saturating_mul(dim))
            }
            ModelKind::AutoInt => layers(c.attn_layers)
                .saturating_mul(c.attn_heads as u64)
                .saturating_mul(c.attn_head_dim as u64),
        };
        cat_rows(&self.schema, c.hash_buckets)
            .saturating_mul(e)
            .saturating_add(head)
    }

    /// Rebuilds the model's structure and points its parameters at the
    /// arena, drawing nothing. The loader validates every tensor name and
    /// shape against the registered architecture, so a snapshot exported
    /// from a different schema or config fails with a typed
    /// [`UaeError::Decode`].
    pub fn build(&self) -> Result<(Box<dyn Recommender + Send + Sync>, Params), UaeError> {
        check_plausible(self.implied_scalars(), &self.arena)?;
        self.kind.bind(&self.schema, &self.config, |params| {
            load_mapped(params, &self.arena, 0)
        })
    }

    /// Serializes to `.uaem` bytes (variant 2), in the same header + arena
    /// layout as [`FrozenModel::encode`].
    pub fn encode(&self) -> Vec<u8> {
        let mut w = put_header(VARIANT_RECOMMENDER);
        w.put_u8(kind_tag(self.kind));
        put_schema(&mut w, &self.schema);
        // Architecture.
        w.put_u32(self.config.embed_dim as u32);
        w.put_u32(self.config.hidden.len() as u32);
        for &h in &self.config.hidden {
            w.put_u32(h as u32);
        }
        w.put_u32(self.config.cross_layers as u32);
        w.put_u32(self.config.attn_heads as u32);
        w.put_u32(self.config.attn_head_dim as u32);
        w.put_u32(self.config.attn_layers as u32);
        w.put_u32(self.config.hash_buckets as u32);
        w.put_u32(self.config.hash_k as u32);
        self.arena.put_tables(&mut w);
        self.arena.finish(w)
    }

    /// Decodes `.uaem` bytes; rejects non-recommender variants. Sniff with
    /// [`FrozenArtifact::decode`] when the variant is not known up front.
    pub fn decode(bytes: &[u8]) -> Result<FrozenRecommender, UaeError> {
        FrozenRecommender::load(copy_bytes(bytes))
    }

    fn load(region: Arc<MmapRegion>) -> Result<FrozenRecommender, UaeError> {
        let (mut r, variant) = check_header(region.bytes())?;
        if variant != VARIANT_RECOMMENDER {
            return Err(UaeError::Checkpoint(CheckpointError::Corrupt(
                "not a downstream-recommender artifact; decode via FrozenArtifact",
            )));
        }
        FrozenRecommender::parse(&mut r, &region).map_err(UaeError::Checkpoint)
    }

    /// Parses the body after the variant byte against `region`.
    fn parse(
        r: &mut ByteReader,
        region: &Arc<MmapRegion>,
    ) -> Result<FrozenRecommender, CheckpointError> {
        let kind = kind_from_tag(r.get_u8()?)?;
        let schema = get_schema(r)?;
        let embed_dim = r.get_u32()? as usize;
        let n_hidden = r.get_u32()? as usize;
        let mut hidden = Vec::with_capacity(n_hidden.min(1 << 10));
        for _ in 0..n_hidden {
            hidden.push(r.get_u32()? as usize);
        }
        let config = ModelConfig {
            embed_dim,
            hidden,
            cross_layers: r.get_u32()? as usize,
            attn_heads: r.get_u32()? as usize,
            attn_head_dim: r.get_u32()? as usize,
            attn_layers: r.get_u32()? as usize,
            hash_buckets: r.get_u32()? as usize,
            hash_k: r.get_u32()? as usize,
        };
        let tables = ParamArena::get_tables(r, 1)?;
        Ok(FrozenRecommender {
            schema,
            kind,
            config,
            arena: ParamArena::get_tail(r, region, tables)?,
        })
    }

    /// Writes the snapshot to `path` atomically (sibling `.tmp` + rename).
    pub fn write_to(&self, path: &Path) -> Result<(), UaeError> {
        write_atomic(path, &self.encode()).map_err(UaeError::Checkpoint)
    }

    /// Reads and decodes a snapshot from `path`.
    pub fn read_from(path: &Path) -> Result<FrozenRecommender, UaeError> {
        FrozenRecommender::load(copy_file(path)?)
    }
}

/// Any `.uaem` artifact, discriminated by the container's variant byte.
///
/// Use this when the caller does not know up front whether a file holds a
/// sequential/local UAE snapshot or a downstream recommender (e.g. the
/// `score` CLI, which accepts either).
#[derive(Debug, Clone, PartialEq)]
pub enum FrozenArtifact {
    /// Variants 0, 1 and 3: the attention/propensity model
    /// ([`FrozenModel`]), one byte per propensity head.
    Uae(FrozenModel),
    /// Variant 2: a Table-IV downstream recommender.
    Recommender(FrozenRecommender),
}

impl FrozenArtifact {
    /// Decodes either artifact variant by sniffing the variant byte.
    pub fn decode(bytes: &[u8]) -> Result<FrozenArtifact, UaeError> {
        FrozenArtifact::load(copy_bytes(bytes))
    }

    /// Reads and decodes either artifact variant from `path`.
    pub fn read_from(path: &Path) -> Result<FrozenArtifact, UaeError> {
        FrozenArtifact::load(copy_file(path)?)
    }

    /// Sniffs the variant byte once and parses that variant's body.
    fn load(region: Arc<MmapRegion>) -> Result<FrozenArtifact, UaeError> {
        let (mut r, variant) = check_header(region.bytes())?;
        let artifact = match byte_head(variant) {
            Some(head) => FrozenModel::parse(&mut r, head, &region).map(FrozenArtifact::Uae),
            None if variant == VARIANT_RECOMMENDER => {
                FrozenRecommender::parse(&mut r, &region).map(FrozenArtifact::Recommender)
            }
            None => Err(CheckpointError::Corrupt("bad artifact-variant tag")),
        };
        artifact.map_err(UaeError::Checkpoint)
    }
}

/// The tape-free batched scoring engine for downstream recommenders.
///
/// Scores flat event sets in sequential index-range batches via the
/// model's [`Recommender::infer`], like `uae_models::predict`, but with each
/// batch in its own arena generation. Because the forward kernels are
/// row-independent, the outputs are bit-identical to `predict` at any batch
/// size.
pub struct RecScorer {
    model: Box<dyn Recommender + Send + Sync>,
    params: Params,
    batch_size: usize,
}

impl RecScorer {
    /// Rebuilds the model from a frozen snapshot, with the batch size taken
    /// from `UAE_SERVE_BATCH` (default 64, shared with [`crate::Scorer`]).
    pub fn new(frozen: FrozenRecommender) -> Result<RecScorer, UaeError> {
        RecScorer::with_batch_size(frozen, crate::ScorerConfig::from_env().batch_size)
    }

    /// Rebuilds the model with an explicit batch size.
    pub fn with_batch_size(
        frozen: FrozenRecommender,
        batch_size: usize,
    ) -> Result<RecScorer, UaeError> {
        assert!(batch_size > 0, "batch_size must be positive");
        let (model, params) = frozen.build()?;
        Ok(RecScorer {
            model,
            params,
            batch_size,
        })
    }

    /// Model family name as printed in the paper's tables.
    pub fn model_name(&self) -> &'static str {
        self.model.name()
    }

    /// The number of events scored per forward batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Scores every event in `data`: σ(logits) in event order,
    /// bit-identical to the training-side `predict`.
    pub fn score(&self, data: &FlatData) -> Vec<f32> {
        let _request = uae_obs::span("serve.rec_request");
        let mut scores = Vec::with_capacity(data.len());
        let mut start = 0;
        let mut batches = 0u64;
        while start < data.len() {
            let span = uae_obs::span("serve.rec_batch");
            let end = (start + self.batch_size).min(data.len());
            let idx: Vec<usize> = (start..end).collect();
            let batch = data.gather(&idx);
            // One batch = one arena generation: intermediates bump-allocate
            // and are rewound wholesale on the next batch's entry.
            uae_tensor::arena::scoped(|| {
                let logits = self.model.infer(&self.params, &batch);
                scores.extend(logits.data().iter().map(|&z| sigmoid(z)));
            });
            let micros = span.elapsed().as_micros().max(1) as f64;
            uae_obs::gauge(
                "serve.rec_batch_events_per_sec",
                (end - start) as f64 / (micros / 1e6),
            );
            batches += 1;
            start = end;
        }
        uae_obs::counter("serve.rec_batches", batches);
        uae_obs::counter("serve.rec_events", scores.len() as u64);
        // Publishes this thread's kernel + exec.arena.* counters, so serving
        // dashboards can watch steady-state heap_allocs stay at zero.
        uae_tensor::emit_backend_telemetry();
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::{generate, SimConfig};
    use uae_models::{predict, train, LabelMode, TrainConfig};
    use uae_tensor::Rng;

    fn trained(kind: ModelKind) -> (FlatData, FrozenRecommender, Params) {
        let ds = generate(&SimConfig::tiny(), 9);
        let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
        let flat = FlatData::from_sessions(&ds, &sessions);
        let cfg = ModelConfig::default();
        let mut rng = Rng::seed_from_u64(3);
        let (model, mut params) = kind.build(&ds.schema, &cfg, &mut rng);
        train(
            model.as_ref(),
            &mut params,
            &flat,
            None,
            None,
            LabelMode::Observed,
            &TrainConfig {
                epochs: 1,
                ..TrainConfig::default()
            },
        );
        let frozen = FrozenRecommender::new(&ds.schema, kind, &cfg, &params);
        (flat, frozen, params)
    }

    #[test]
    fn encode_decode_round_trips() {
        let (_flat, frozen, _params) = trained(ModelKind::WideDeep);
        let decoded = FrozenRecommender::decode(&frozen.encode()).unwrap();
        assert_eq!(decoded, frozen);
    }

    #[test]
    fn build_restores_exact_parameter_values() {
        let (_flat, frozen, params) = trained(ModelKind::Dcn);
        let (_model, rebuilt) = frozen.build().unwrap();
        assert_eq!(
            uae_tensor::save_params(&rebuilt),
            uae_tensor::save_params(&params)
        );
    }

    #[test]
    fn scorer_matches_training_predict_bitwise() {
        for kind in [ModelKind::WideDeep, ModelKind::Dcn] {
            let (flat, frozen, params) = trained(kind);
            let (model, _) = frozen.build().unwrap();
            let reference = predict(model.as_ref(), &params, &flat, 64);
            let scorer = RecScorer::with_batch_size(frozen, 64).unwrap();
            assert_eq!(scorer.score(&flat), reference, "{}", kind.name());
        }
    }

    #[test]
    fn batch_size_does_not_change_scores() {
        let (flat, frozen, _params) = trained(ModelKind::AutoInt);
        let base = RecScorer::with_batch_size(frozen.clone(), 64)
            .unwrap()
            .score(&flat);
        for bs in [1usize, 7, 1024] {
            let out = RecScorer::with_batch_size(frozen.clone(), bs)
                .unwrap()
                .score(&flat);
            assert_eq!(out, base, "batch_size={bs}");
        }
    }

    #[test]
    fn artifact_sniffs_both_variants() {
        let (_flat, frozen, _params) = trained(ModelKind::Fm);
        match FrozenArtifact::decode(&frozen.encode()).unwrap() {
            FrozenArtifact::Recommender(r) => assert_eq!(r, frozen),
            other => panic!("expected Recommender variant, got {other:?}"),
        }

        let ds = generate(&SimConfig::tiny(), 5);
        let uae = uae_core::Uae::new(
            &ds.schema,
            uae_core::UaeConfig {
                gru_hidden: 8,
                mlp_hidden: vec![8],
                ..Default::default()
            },
        );
        let fm = FrozenModel::from_uae(&uae, &ds.schema, 15.0);
        match FrozenArtifact::decode(&fm.encode()).unwrap() {
            FrozenArtifact::Uae(m) => assert_eq!(m, fm),
            other => panic!("expected Uae variant, got {other:?}"),
        }
    }

    #[test]
    fn uae_decoder_rejects_recommender_artifact() {
        let (_flat, frozen, _params) = trained(ModelKind::Fm);
        assert!(matches!(
            FrozenModel::decode(&frozen.encode()),
            Err(UaeError::Checkpoint(CheckpointError::Corrupt(_)))
        ));
        let ds = generate(&SimConfig::tiny(), 5);
        let uae = uae_core::Uae::new(
            &ds.schema,
            uae_core::UaeConfig {
                gru_hidden: 8,
                mlp_hidden: vec![8],
                ..Default::default()
            },
        );
        let fm = FrozenModel::from_uae(&uae, &ds.schema, 15.0);
        assert!(matches!(
            FrozenRecommender::decode(&fm.encode()),
            Err(UaeError::Checkpoint(CheckpointError::Corrupt(_)))
        ));
    }

    #[test]
    fn mismatched_schema_fails_with_decode_error() {
        let (_flat, mut frozen, _params) = trained(ModelKind::WideDeep);
        frozen.schema.cat_cardinalities[0] += 7;
        match frozen.build() {
            Err(UaeError::Decode(_)) => {}
            Err(other) => panic!("expected Decode error, got {other:?}"),
            Ok(_) => panic!("expected Decode error, got Ok"),
        }
    }

    #[test]
    fn file_round_trip_is_atomic_and_exact() {
        let (_flat, frozen, _params) = trained(ModelKind::DcnV2);
        let dir = std::env::temp_dir().join(format!("uaem_rec_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rec.uaem");
        frozen.write_to(&path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp file left behind");
        match FrozenArtifact::read_from(&path).unwrap() {
            FrozenArtifact::Recommender(r) => assert_eq!(r, frozen),
            other => panic!("expected Recommender variant, got {other:?}"),
        }
        assert_eq!(FrozenRecommender::read_from(&path).unwrap(), frozen);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
