//! The batched scoring engine: tape-free g/h forward plus Eq. (18–19)
//! reweighting over request batches.
//!
//! A [`Scorer`] owns a rebuilt [`Uae`] and scores *requests* — ordered sets
//! of session feature sequences — without ever touching the autodiff tape:
//!
//! 1. sessions are bucketed by length and padded into batches
//!    ([`uae_data::infer_seq_batches`] — deterministic, no RNG, so batch
//!    composition is a pure function of the request);
//! 2. each batch runs the tape-free forward ([`Uae::infer_batch`]) in one
//!    arena generation, on the blocked kernels and the deterministic
//!    row-partitioned worker pool — outputs are bit-identical to
//!    [`Uae::predict`] at any thread count;
//! 3. σ(logits) are scattered back to flat request order by
//!    [`uae_core::scatter_sigmoid`], the scatter `Uae::predict` uses, and
//!    the passive confidence weights `w = 1 − (α̂ + 1)^(−γ)` (Eq. 19) are
//!    attached.
//!
//! Per-batch latency and throughput are emitted through `uae-obs` as
//! `serve.*` spans/counters/gauges when telemetry is enabled.

use uae_core::{flat_offsets, reweight, scatter_sigmoid, Uae};
use uae_data::{infer_seq_batches, Dataset};
use uae_runtime::UaeError;

use crate::model::FrozenModel;

/// Batching knobs of the scoring engine.
#[derive(Debug, Clone)]
pub struct ScorerConfig {
    /// Sessions per padded batch (`UAE_SERVE_BATCH`, default 64).
    pub batch_size: usize,
    /// Truncate sessions to this many steps (`UAE_SERVE_MAX_LEN`; default
    /// none, matching the training-side `predict` convention — only the
    /// default is bit-comparable to `Uae::predict`).
    pub max_len: Option<usize>,
}

impl Default for ScorerConfig {
    fn default() -> Self {
        ScorerConfig {
            batch_size: 64,
            max_len: None,
        }
    }
}

impl ScorerConfig {
    /// Reads `UAE_SERVE_BATCH` / `UAE_SERVE_MAX_LEN` over the defaults —
    /// the one place either knob is parsed (the daemon reads both through
    /// here). A value counts when it is a trimmed number above zero;
    /// anything else keeps the default (serving knobs must never turn a
    /// request into a panic).
    pub fn from_env() -> ScorerConfig {
        let num = |key: &str| {
            let v = std::env::var(key).ok()?;
            v.trim().parse::<usize>().ok().filter(|&n| n > 0)
        };
        let default = ScorerConfig::default();
        ScorerConfig {
            batch_size: num("UAE_SERVE_BATCH").unwrap_or(default.batch_size),
            max_len: num("UAE_SERVE_MAX_LEN").or(default.max_len),
        }
    }
}

/// Flat per-event scores for one request, in request order (session by
/// session, step by step).
#[derive(Debug, Clone)]
pub struct ScoreOutput {
    /// Estimated attention α̂ = σ(g).
    pub attention: Vec<f32>,
    /// Estimated sequential propensity p̂ = σ(h).
    pub propensity: Vec<f32>,
    /// Eq. (19) confidence weights `w = 1 − (α̂ + 1)^(−γ)` for passive
    /// samples of a downstream recommender (Eq. 18).
    pub weights: Vec<f32>,
}

impl ScoreOutput {
    /// Number of scored events.
    pub fn len(&self) -> usize {
        self.attention.len()
    }

    pub fn is_empty(&self) -> bool {
        self.attention.is_empty()
    }
}

/// The tape-free batched scoring engine.
///
/// ```no_run
/// use uae_data::{generate, SimConfig};
/// use uae_serve::{FrozenModel, Scorer};
///
/// let frozen = FrozenModel::read_from("model.uaem".as_ref())?;
/// let scorer = Scorer::new(frozen)?;
/// let ds = generate(&SimConfig::tiny(), 7);
/// let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
/// let out = scorer.score(&ds, &sessions);
/// assert_eq!(out.len(), ds.num_events());
/// # Ok::<(), uae_runtime::UaeError>(())
/// ```
pub struct Scorer {
    model: Uae,
    gamma: f32,
    cfg: ScorerConfig,
}

impl Scorer {
    /// Rebuilds the model from a frozen snapshot with env-derived batching
    /// knobs (see [`ScorerConfig::from_env`]).
    pub fn new(frozen: FrozenModel) -> Result<Scorer, UaeError> {
        Scorer::with_config(frozen, ScorerConfig::from_env())
    }

    /// Rebuilds the model with explicit batching knobs. The rebuilt
    /// parameters are views of the snapshot's arena, so steady-state
    /// scoring never memcpys a weight matrix.
    pub fn with_config(frozen: FrozenModel, cfg: ScorerConfig) -> Result<Scorer, UaeError> {
        let gamma = frozen.gamma;
        let model = frozen.build()?;
        Ok(Scorer { model, gamma, cfg })
    }

    /// The Eq. (19) exponent this scorer applies.
    pub fn gamma(&self) -> f32 {
        self.gamma
    }

    /// The batching configuration in effect.
    pub fn config(&self) -> &ScorerConfig {
        &self.cfg
    }

    /// Scores a request: α̂, p̂, and Eq. (19) weights for every event of the
    /// listed sessions, in request order. Events beyond a configured
    /// `max_len` keep the neutral α̂ = p̂ = 0.5.
    pub fn score(&self, dataset: &Dataset, sessions: &[usize]) -> ScoreOutput {
        let _request = uae_obs::span("serve.request");
        let offsets = flat_offsets(dataset, sessions);
        let mut attention = vec![0.5f32; offsets[sessions.len()]];
        let mut propensity = attention.clone();

        let batches = infer_seq_batches(dataset, sessions, self.cfg.batch_size, self.cfg.max_len);
        let mut scored = 0u64;
        for b in &batches {
            if b.steps == 0 {
                // A bucket made entirely of zero-event sessions: nothing to
                // run through the GRUs (a wire request may legally carry
                // empty sessions, which simply contribute no scores).
                continue;
            }
            let span = uae_obs::span("serve.batch");
            let inf = self.model.infer_batch(b);
            scatter_sigmoid(&inf.attention_logits, b, &offsets, &mut attention);
            scatter_sigmoid(&inf.propensity_logits, b, &offsets, &mut propensity);
            scored += b.valid_steps() as u64;
            let micros = span.elapsed().as_micros().max(1) as f64;
            uae_obs::gauge(
                "serve.batch_events_per_sec",
                b.valid_steps() as f64 / (micros / 1e6),
            );
        }
        uae_obs::counter("serve.batches", batches.len() as u64);
        uae_obs::counter("serve.sessions", sessions.len() as u64);
        uae_obs::counter("serve.events", scored);
        // Publishes this thread's kernel + exec.arena.* counters, so serving
        // dashboards can watch steady-state heap_allocs stay at zero.
        uae_tensor::emit_backend_telemetry();
        let weights = attention.iter().map(|&a| reweight(a, self.gamma)).collect();
        ScoreOutput {
            attention,
            propensity,
            weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_core::AttentionEstimator;
    use uae_data::{generate, SimConfig};

    fn scorer_and_data() -> (Dataset, Vec<usize>, Uae, Scorer) {
        let ds = generate(&SimConfig::tiny(), 3);
        let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
        let cfg = uae_core::UaeConfig {
            gru_hidden: 8,
            mlp_hidden: vec![8],
            epochs: 1,
            ..Default::default()
        };
        let mut uae = Uae::new(&ds.schema, cfg);
        uae.fit(&ds, &sessions);
        let frozen = FrozenModel::from_uae(&uae, &ds.schema, 15.0);
        let scorer = Scorer::with_config(frozen, ScorerConfig::default()).unwrap();
        (ds, sessions, uae, scorer)
    }

    /// The scorer over the exported snapshot reproduces the live model's
    /// predictions bit for bit.
    #[test]
    fn score_matches_training_predict_bitwise() {
        let (ds, sessions, uae, scorer) = scorer_and_data();
        let out = scorer.score(&ds, &sessions);
        assert_eq!(out.attention, uae.predict(&ds, &sessions));
        assert_eq!(out.propensity, uae.predict_propensity(&ds, &sessions));
    }

    #[test]
    fn weights_follow_eq_19() {
        let (ds, sessions, _uae, scorer) = scorer_and_data();
        let out = scorer.score(&ds, &sessions);
        assert_eq!(out.len(), ds.num_events());
        for (&a, &w) in out.attention.iter().zip(&out.weights) {
            assert_eq!(w, reweight(a, 15.0));
        }
    }

    #[test]
    fn batch_size_does_not_change_scores() {
        let (ds, sessions, _uae, scorer) = scorer_and_data();
        let base = scorer.score(&ds, &sessions);
        for bs in [1usize, 3, 128] {
            let frozen = FrozenModel::from_uae(&scorer.model, &ds.schema, 15.0);
            let s = Scorer::with_config(
                frozen,
                ScorerConfig {
                    batch_size: bs,
                    max_len: None,
                },
            )
            .unwrap();
            let out = s.score(&ds, &sessions);
            assert_eq!(out.attention, base.attention, "batch_size={bs}");
            assert_eq!(out.propensity, base.propensity, "batch_size={bs}");
        }
    }

    #[test]
    fn subset_and_reordered_requests_score_consistently() {
        let (ds, sessions, _uae, scorer) = scorer_and_data();
        let full = scorer.score(&ds, &sessions);
        // Score a reversed subset: each session's block must match the full
        // request's block for that session (row-independent forward).
        let subset: Vec<usize> = sessions.iter().rev().take(3).copied().collect();
        let out = scorer.score(&ds, &subset);
        let mut offset = 0usize;
        for &s in &subset {
            let full_offset: usize = sessions[..s].iter().map(|&x| ds.sessions[x].len()).sum();
            let len = ds.sessions[s].len();
            assert_eq!(
                &out.attention[offset..offset + len],
                &full.attention[full_offset..full_offset + len],
                "session {s}"
            );
            offset += len;
        }
    }

    #[test]
    fn empty_request_returns_empty_scores() {
        let (ds, _sessions, _uae, scorer) = scorer_and_data();
        let out = scorer.score(&ds, &[]);
        assert!(out.is_empty());
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn zero_event_sessions_contribute_empty_blocks_without_disturbing_others() {
        let (mut ds, sessions, _uae, scorer) = scorer_and_data();
        let base = scorer.score(&ds, &sessions);
        // Interleave empty sessions among the real ones.
        let n_real = ds.sessions.len();
        for _ in 0..3 {
            ds.sessions.push(uae_data::Session {
                user: 0,
                day: 0,
                events: vec![],
            });
        }
        let mixed: Vec<usize> = vec![n_real, 0, n_real + 1, 1, 2, n_real + 2];
        let out = scorer.score(&ds, &mixed);
        // Flat length counts only real events; empty sessions add nothing.
        let expect: usize = [0usize, 1, 2].iter().map(|&s| ds.sessions[s].len()).sum();
        assert_eq!(out.len(), expect);
        // And the real sessions' scores are untouched by the empties.
        let alone = scorer.score(&ds, &[0, 1, 2]);
        assert_eq!(out.attention, alone.attention);
        let offset: usize = ds.sessions[0].len() + ds.sessions[1].len() + ds.sessions[2].len();
        assert_eq!(&out.attention[..], &base.attention[..offset]);
        // An all-empty request scores nothing and must not panic.
        let empties = scorer.score(&ds, &[n_real, n_real + 1, n_real + 2]);
        assert!(empties.is_empty());
    }

    #[test]
    fn truncation_leaves_neutral_tail() {
        let (ds, sessions, _uae, scorer) = scorer_and_data();
        let frozen = FrozenModel::from_uae(&scorer.model, &ds.schema, 15.0);
        let s = Scorer::with_config(
            frozen,
            ScorerConfig {
                batch_size: 4,
                max_len: Some(2),
            },
        )
        .unwrap();
        let out = s.score(&ds, &sessions);
        let mut offset = 0usize;
        for &sid in &sessions {
            let len = ds.sessions[sid].len();
            for t in 2..len {
                assert_eq!(out.attention[offset + t], 0.5);
                assert_eq!(out.propensity[offset + t], 0.5);
            }
            offset += len;
        }
    }
}
