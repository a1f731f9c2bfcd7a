//! Shared experiment plumbing: datasets, splits, attention methods, and
//! single training runs.

use uae_core::{downstream_weights, AttentionEstimator, Edm, EstimatorSpec, Uae, UaeConfig};
use uae_data::{generate, split_by_day, split_by_ratio, Dataset, FlatData, SimConfig, Split};
use uae_models::{
    evaluate, train, EvalResult, LabelMode, ModelConfig, ModelKind, TrainConfig, TrainReport,
};
use uae_runtime::UaeError;
use uae_tensor::Rng;

/// Which of the paper's two datasets to synthesise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    ThirtyMusic,
    Product,
}

impl Preset {
    pub fn name(self) -> &'static str {
        match self {
            Preset::ThirtyMusic => "30-Music",
            Preset::Product => "Product",
        }
    }

    pub fn config(self, scale: f64) -> SimConfig {
        match self {
            Preset::ThirtyMusic => SimConfig::thirty_music(scale),
            Preset::Product => SimConfig::product(scale),
        }
    }

    /// The paper's split protocol: 8:1:1 random sessions for 30-Music,
    /// 7+1+1 days for Product.
    pub fn split(self, dataset: &Dataset, rng: &mut Rng) -> Split {
        match self {
            Preset::ThirtyMusic => split_by_ratio(dataset, 0.8, 0.1, rng),
            Preset::Product => split_by_day(dataset, 7, 1),
        }
    }

    pub fn both() -> [Preset; 2] {
        [Preset::ThirtyMusic, Preset::Product]
    }
}

/// Global harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Simulator scale factor (1.0 = the preset's default size).
    pub data_scale: f64,
    /// Seed for dataset generation (fixed across model seeds, as in the
    /// paper: the data is fixed; the model initialisation varies).
    pub data_seed: u64,
    /// Model-training seeds (the paper uses five).
    pub seeds: Vec<u64>,
    /// Eq. (19)'s γ for attention-derived weights.
    pub gamma: f32,
    pub model: ModelConfig,
    pub train: TrainConfig,
    pub uae: UaeConfig,
    /// Evaluation label mode. `Observed` is the paper's offline protocol
    /// (AUC/GAUC against constructed feedback labels); `OraclePreference`
    /// scores against the simulator's true preferences — an extension that
    /// exposes the de-noising mechanism directly (see DESIGN.md §5).
    pub label_mode: LabelMode,
}

impl HarnessConfig {
    /// Full-size harness used by the benches (minutes per table).
    pub fn full() -> Self {
        HarnessConfig {
            data_scale: 0.35,
            data_seed: 2024,
            seeds: vec![11, 22, 33, 44, 55],
            gamma: 15.0,
            model: ModelConfig::default(),
            train: TrainConfig {
                epochs: 8,
                batch_size: 512,
                early_stop_patience: Some(2),
                ..Default::default()
            },
            uae: UaeConfig::default(),
            label_mode: LabelMode::Observed,
        }
    }

    /// Small harness for tests (seconds per table).
    pub fn fast() -> Self {
        HarnessConfig {
            data_scale: 0.08,
            data_seed: 7,
            seeds: vec![1],
            gamma: 15.0,
            model: ModelConfig {
                hidden: vec![32, 16],
                ..Default::default()
            },
            train: TrainConfig {
                epochs: 2,
                batch_size: 256,
                early_stop_patience: None,
                ..Default::default()
            },
            uae: UaeConfig {
                gru_hidden: 12,
                mlp_hidden: vec![12],
                epochs: 1,
                ..Default::default()
            },
            label_mode: LabelMode::OraclePreference,
        }
    }
}

/// A synthesised dataset with its split and flattened views.
pub struct PreparedData {
    pub preset: Preset,
    pub dataset: Dataset,
    pub split: Split,
    pub train: FlatData,
    pub val: FlatData,
    pub test: FlatData,
}

/// Generates, splits, and flattens one preset's dataset.
pub fn prepare(preset: Preset, cfg: &HarnessConfig) -> PreparedData {
    let dataset = generate(&preset.config(cfg.data_scale), cfg.data_seed);
    let mut rng = Rng::seed_from_u64(cfg.data_seed ^ 0x73_706c);
    let split = preset.split(&dataset, &mut rng);
    let train = FlatData::from_sessions(&dataset, &split.train);
    let val = FlatData::from_sessions(&dataset, &split.val);
    let test = FlatData::from_sessions(&dataset, &split.test);
    PreparedData {
        preset,
        dataset,
        split,
        train,
        val,
        test,
    }
}

/// The attention-weighting methods compared in Tables IV–V.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionMethod {
    /// No re-weighting (the "Base" rows).
    Base,
    /// Exponential-decay heuristic.
    Edm,
    /// Negative-sampling heuristic of Zhang et al.
    Ndb,
    /// Naive PU baseline: all passives negative.
    Pn,
    /// PU-learning with local-feature propensities.
    Sar,
    /// The paper's contribution.
    Uae,
    /// Ground-truth attention probabilities (simulator-only upper bound).
    Oracle,
}

impl AttentionMethod {
    pub fn name(self) -> &'static str {
        match self {
            AttentionMethod::Base => "Base",
            AttentionMethod::Edm => "+EDM",
            AttentionMethod::Ndb => "+NDB",
            AttentionMethod::Pn => "+PN",
            AttentionMethod::Sar => "+SAR",
            AttentionMethod::Uae => "+UAE",
            AttentionMethod::Oracle => "+Oracle",
        }
    }

    /// The Table V column order (baselines then ours).
    pub fn table5() -> [AttentionMethod; 6] {
        [
            AttentionMethod::Base,
            AttentionMethod::Edm,
            AttentionMethod::Ndb,
            AttentionMethod::Pn,
            AttentionMethod::Sar,
            AttentionMethod::Uae,
        ]
    }

    /// Estimated attention probabilities `α̂` for every event of each
    /// session list in `on` (flat order each), all from one fit, or `None`
    /// for [`AttentionMethod::Base`].
    ///
    /// Fitting uses only observed feedback of the training sessions; the
    /// oracle method reads the simulator's truth instead.
    pub fn attention_scores<const N: usize>(
        self,
        data: &PreparedData,
        cfg: &HarnessConfig,
        seed: u64,
        on: [&[usize]; N],
    ) -> Option<[Vec<f32>; N]> {
        let ds = &data.dataset;
        let uae_cfg = UaeConfig {
            seed,
            ..cfg.uae.clone()
        };
        let fitted = |mut est: Uae| {
            est.fit(ds, &data.split.train);
            on.map(|s| est.predict(ds, s))
        };
        match self {
            AttentionMethod::Base => None,
            AttentionMethod::Oracle => Some(on.map(|s| FlatData::from_sessions(ds, s).true_alpha)),
            AttentionMethod::Edm => Some(on.map(|s| Edm::default().predict(ds, s))),
            AttentionMethod::Pn => {
                // The paper's PN treats the attention of every unlabeled
                // (passive) sample as exactly zero, i.e. passive events are
                // discarded (w(0; γ) = 0). Active events keep weight 1
                // through Eq. (18) regardless.
                Some(on.map(|s| vec![0.0; s.iter().map(|&i| ds.sessions[i].len()).sum()]))
            }
            AttentionMethod::Ndb => {
                let ndb = UaeConfig {
                    estimator: EstimatorSpec::Ndb { window: 10 },
                    ..uae_cfg
                };
                Some(fitted(Uae::new(&ds.schema, ndb)))
            }
            AttentionMethod::Sar => Some(fitted(Uae::new_sar(&ds.schema, uae_cfg))),
            AttentionMethod::Uae => Some(fitted(Uae::new(&ds.schema, uae_cfg))),
        }
    }

    /// Downstream per-event weights of the training events (Eq. 19 over
    /// [`Self::attention_scores`]).
    pub fn weights(self, data: &PreparedData, cfg: &HarnessConfig, seed: u64) -> Option<Vec<f32>> {
        self.attention_scores(data, cfg, seed, [&data.split.train])
            .map(|[alpha]| downstream_weights(&alpha, cfg.gamma))
    }
}

/// Result of one (model, method, seed) training run.
pub struct RunOutcome {
    pub result: EvalResult,
    pub report: TrainReport,
}

/// Trains `kind` with the given pre-computed weights and evaluates on test.
pub fn run_model(
    kind: ModelKind,
    weights: Option<&[f32]>,
    data: &PreparedData,
    cfg: &HarnessConfig,
    seed: u64,
) -> RunOutcome {
    let mut rng = Rng::seed_from_u64(seed ^ 0x6d6f_6465);
    let (model, mut params) = kind.build(&data.dataset.schema, &cfg.model, &mut rng);
    let train_cfg = TrainConfig {
        seed,
        ..cfg.train.clone()
    };
    let report = train(
        model.as_ref(),
        &mut params,
        &data.train,
        weights,
        Some(&data.val),
        cfg.label_mode,
        &train_cfg,
    );
    let result = evaluate(
        model.as_ref(),
        &params,
        &data.test,
        cfg.label_mode,
        cfg.train.batch_size,
    );
    RunOutcome { result, report }
}

/// What happened to one seed of a panic-isolated fan-out.
#[derive(Debug, Clone)]
pub enum SeedOutcome<T> {
    /// The seed completed on its first attempt.
    Ok(T),
    /// The original seed panicked; a derived recovery seed succeeded.
    Recovered { recovery_seed: u64, value: T },
    /// Both the original seed and its recovery attempt panicked
    /// ([`UaeError::SeedPanic`]).
    Failed(UaeError),
}

impl<T> SeedOutcome<T> {
    /// The produced value, if any attempt succeeded.
    pub fn value(&self) -> Option<&T> {
        match self {
            SeedOutcome::Ok(v) | SeedOutcome::Recovered { value: v, .. } => Some(v),
            SeedOutcome::Failed(_) => None,
        }
    }

    /// Consumes the outcome into its value, if any attempt succeeded.
    pub fn into_value(self) -> Option<T> {
        match self {
            SeedOutcome::Ok(v) | SeedOutcome::Recovered { value: v, .. } => Some(v),
            SeedOutcome::Failed(_) => None,
        }
    }

    /// The typed error of a failed seed.
    pub fn error(&self) -> Option<&UaeError> {
        match self {
            SeedOutcome::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// Per-seed outcomes of [`over_seeds_isolated`], in seed order.
#[derive(Debug)]
pub struct SeedFanout<T> {
    pub seeds: Vec<u64>,
    pub outcomes: Vec<SeedOutcome<T>>,
}

impl<T> SeedFanout<T> {
    /// True when every seed produced a value on its first attempt.
    pub fn all_clean(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(o, SeedOutcome::Ok(_)))
    }

    /// Human-readable fault report: one line per recovered or failed seed
    /// (empty for a clean run).
    pub fn fault_report(&self) -> Vec<String> {
        self.seeds
            .iter()
            .zip(&self.outcomes)
            .filter_map(|(&seed, o)| match o {
                SeedOutcome::Ok(_) => None,
                SeedOutcome::Recovered { recovery_seed, .. } => Some(format!(
                    "seed {seed}: panicked, recovered with derived seed {recovery_seed}"
                )),
                SeedOutcome::Failed(e) => Some(format!("seed {seed}: {e}")),
            })
            .collect()
    }

    /// Surviving values in seed order (failed seeds are dropped, so a table
    /// aggregates over n−k seeds instead of crashing).
    pub fn values(self) -> Vec<T> {
        self.outcomes
            .into_iter()
            .filter_map(SeedOutcome::into_value)
            .collect()
    }
}

/// The replacement seed tried when a seed thread panics: a fixed XOR with
/// the splitmix64 increment, so it is deterministic, never equal to the
/// original, and far away in seed space.
pub fn derive_recovery_seed(seed: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fans `f` out over the harness seeds on scoped threads with panic
/// isolation: a panicking seed is caught, retried once with
/// [`derive_recovery_seed`], and reported as a [`SeedOutcome`] instead of
/// propagating — so one diverged seed degrades a table run gracefully.
pub fn over_seeds_isolated<T: Send>(seeds: &[u64], f: impl Fn(u64) -> T + Sync) -> SeedFanout<T> {
    let f = &f;
    let attempt = move |seed: u64| -> Result<T, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(seed))).map_err(panic_message)
    };
    // Worker threads inherit the caller's telemetry sink (sharing its `seq`
    // counter) so per-seed progress lands in the same JSONL stream.
    let obs = uae_obs::current_handle();
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let obs = obs.clone();
                scope.spawn(move || {
                    let run = move || {
                        uae_obs::emit(|| uae_obs::Event::SeedStart { seed });
                        let outcome = match attempt(seed) {
                            Ok(v) => SeedOutcome::Ok(v),
                            Err(first) => {
                                let recovery_seed = derive_recovery_seed(seed);
                                match attempt(recovery_seed) {
                                    Ok(value) => SeedOutcome::Recovered {
                                        recovery_seed,
                                        value,
                                    },
                                    Err(second) => SeedOutcome::Failed(UaeError::SeedPanic {
                                        seed,
                                        recovery_seed: Some(recovery_seed),
                                        message: format!("{first}; retry: {second}"),
                                    }),
                                }
                            }
                        };
                        uae_obs::emit(|| uae_obs::Event::SeedEnd {
                            seed,
                            outcome: match &outcome {
                                SeedOutcome::Ok(_) => "ok".to_string(),
                                SeedOutcome::Recovered { recovery_seed, .. } => {
                                    format!("recovered with derived seed {recovery_seed}")
                                }
                                SeedOutcome::Failed(e) => format!("failed: {e}"),
                            },
                        });
                        outcome
                    };
                    match obs {
                        Some(h) => uae_obs::with_handle(h, run),
                        None => run(),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .zip(seeds)
            .map(|(h, &seed)| {
                h.join().unwrap_or_else(|payload| {
                    // catch_unwind already fenced the closure; reaching here
                    // means the thread died outside it. Degrade, don't crash.
                    SeedOutcome::Failed(UaeError::SeedPanic {
                        seed,
                        recovery_seed: None,
                        message: panic_message(payload),
                    })
                })
            })
            .collect()
    });
    SeedFanout {
        seeds: seeds.to_vec(),
        outcomes,
    }
}

/// Fans `f` out over the harness seeds on scoped threads, returning results
/// in seed order.
///
/// Legacy strict variant of [`over_seeds_isolated`]: a seed that panics
/// twice (original + recovery attempt) panics here too, with the full fault
/// report in the message.
pub fn over_seeds<T: Send>(seeds: &[u64], f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let fan = over_seeds_isolated(seeds, f);
    if fan.outcomes.iter().any(|o| o.error().is_some()) {
        panic!("seed fan-out failed: {}", fan.fault_report().join("; "));
    }
    fan.values()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_builds_consistent_views() {
        let cfg = HarnessConfig::fast();
        let data = prepare(Preset::Product, &cfg);
        assert_eq!(data.preset.name(), "Product");
        let total = data.train.len() + data.val.len() + data.test.len();
        assert_eq!(total, data.dataset.num_events());
        assert!(data.train.len() > data.test.len());
    }

    #[test]
    fn thirty_music_uses_ratio_split() {
        let cfg = HarnessConfig::fast();
        let data = prepare(Preset::ThirtyMusic, &cfg);
        let n = data.dataset.sessions.len() as f64;
        let frac = data.split.train.len() as f64 / n;
        assert!((frac - 0.8).abs() < 0.05, "train fraction {frac}");
    }

    #[test]
    fn base_method_has_no_weights_and_oracle_uses_truth() {
        let cfg = HarnessConfig::fast();
        let data = prepare(Preset::Product, &cfg);
        assert!(AttentionMethod::Base.weights(&data, &cfg, 0).is_none());
        let [oracle] = AttentionMethod::Oracle
            .attention_scores(&data, &cfg, 0, [&data.split.train])
            .unwrap();
        assert_eq!(oracle, data.train.true_alpha);
    }

    #[test]
    fn run_model_produces_sane_metrics() {
        let cfg = HarnessConfig::fast();
        let data = prepare(Preset::Product, &cfg);
        let out = run_model(ModelKind::Fm, None, &data, &cfg, 1);
        assert!(out.result.auc > 0.4 && out.result.auc < 1.0);
        assert!(out.result.gauc > 0.3 && out.result.gauc <= 1.0);
        assert!(!out.report.history.is_empty());
    }

    #[test]
    fn over_seeds_preserves_order() {
        let out = over_seeds(&[3, 1, 2], |s| s * 10);
        assert_eq!(out, vec![30, 10, 20]);
    }

    #[test]
    fn isolated_fanout_survives_an_injected_panic() {
        // Seed 2 panics; its derived recovery seed succeeds. The other
        // seeds are untouched and order is preserved.
        let fan = over_seeds_isolated(&[1, 2, 3], |s| {
            if s == 2 {
                panic!("injected divergence");
            }
            s.wrapping_mul(10)
        });
        assert!(!fan.all_clean());
        assert!(matches!(fan.outcomes[0], SeedOutcome::Ok(10)));
        assert!(matches!(fan.outcomes[2], SeedOutcome::Ok(30)));
        match &fan.outcomes[1] {
            SeedOutcome::Recovered {
                recovery_seed,
                value,
            } => {
                assert_eq!(*recovery_seed, derive_recovery_seed(2));
                assert_eq!(*value, derive_recovery_seed(2).wrapping_mul(10));
            }
            other => panic!("expected recovery, got {other:?}"),
        }
        let report = fan.fault_report();
        assert_eq!(report.len(), 1);
        assert!(report[0].contains("recovered"), "{}", report[0]);
        assert_eq!(fan.values().len(), 3);
    }

    #[test]
    fn isolated_fanout_degrades_when_recovery_also_panics() {
        let bad = 2u64;
        let fan = over_seeds_isolated(&[1, bad, 3], |s| {
            if s == bad || s == derive_recovery_seed(bad) {
                panic!("hard failure");
            }
            s
        });
        assert!(fan.outcomes[1].error().is_some());
        match fan.outcomes[1].error() {
            Some(UaeError::SeedPanic {
                seed,
                recovery_seed,
                message,
            }) => {
                assert_eq!(*seed, bad);
                assert_eq!(*recovery_seed, Some(derive_recovery_seed(bad)));
                assert!(message.contains("hard failure"));
            }
            other => panic!("expected SeedPanic, got {other:?}"),
        }
        // Surviving seeds still aggregate.
        assert_eq!(fan.values(), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "seed fan-out failed")]
    fn strict_over_seeds_panics_with_fault_report() {
        let bad = 5u64;
        over_seeds(&[bad], |s: u64| -> u64 {
            if s == bad || s == derive_recovery_seed(bad) {
                panic!("boom");
            }
            s
        });
    }

    #[test]
    fn edm_weights_are_valid_probability_weights() {
        let cfg = HarnessConfig::fast();
        let data = prepare(Preset::Product, &cfg);
        let w = AttentionMethod::Edm.weights(&data, &cfg, 0).unwrap();
        assert_eq!(w.len(), data.train.len());
        assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }
}
