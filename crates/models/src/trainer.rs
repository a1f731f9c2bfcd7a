//! Training and evaluation of downstream recommenders with per-event sample
//! weights — Eq. (18) of the paper.
//!
//! Every risk reduces to a weighted binary cross-entropy: an active event
//! always has weight 1; a passive (auto-play) event has weight `w ∈ [0, 1)`
//! supplied by an attention model (UAE or a baseline). `w ≡ 1` recovers the
//! industry-standard "Base" training.

use std::ops::ControlFlow;

use uae_data::FlatData;
use uae_metrics::{auc, gauc};
use uae_nn::{Adam, Optimizer};
use uae_runtime::checkpoint::{ByteReader, ByteWriter, CheckpointError, TrainSnapshot};
use uae_runtime::sentinel;
use uae_runtime::supervisor::{FaultEvent, Supervisor, TrainState};
use uae_runtime::UaeError;
use uae_tensor::{save_params, sigmoid, Params, Rng, Tape};

use crate::recommender::Recommender;

/// Which labels evaluation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelMode {
    /// The observed feedback label `y` (industry construction; noisy for
    /// passive events). This is what the paper's offline protocol measures.
    Observed,
    /// The simulator's ground-truth preference — available only because our
    /// substrate is a simulator; used as the primary harness metric since it
    /// measures what the recommender is actually for.
    OraclePreference,
}

impl LabelMode {
    /// Extracts the evaluation labels for a dataset view.
    pub fn labels(self, data: &FlatData) -> Vec<bool> {
        match self {
            LabelMode::Observed => data.label.clone(),
            LabelMode::OraclePreference => data.true_preference.clone(),
        }
    }
}

/// Hyper-parameters of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    /// Global gradient-norm clip (None = no clipping).
    pub clip_norm: Option<f32>,
    /// Stop after this many epochs without val-AUC improvement and restore
    /// the best parameters (None = always run all epochs).
    pub early_stop_patience: Option<usize>,
    /// Cap on the number of examples used for per-epoch AUC tracking.
    pub eval_subsample: usize,
    pub seed: u64,
    /// Provenance of `sample_weights`: the CLI name of the attention
    /// estimator whose α̂ produced them (`None` for Base / hand-built
    /// weights). Purely observational — recorded as an
    /// `estimator.<name>.downstream_runs` counter so serving telemetry can
    /// attribute downstream models to the estimator that weighted them.
    pub weight_estimator: Option<String>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 512,
            learning_rate: 1e-3,
            clip_norm: Some(10.0),
            early_stop_patience: Some(3),
            eval_subsample: 50_000,
            seed: 0,
            weight_estimator: None,
        }
    }
}

/// Per-epoch measurements (Fig. 5's convergence curves).
#[derive(Debug, Clone, Copy)]
pub struct EpochRecord {
    pub epoch: usize,
    pub train_loss: f64,
    pub train_auc: Option<f64>,
    pub val_auc: Option<f64>,
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    pub history: Vec<EpochRecord>,
    pub best_epoch: usize,
    pub best_val_auc: Option<f64>,
    /// Anomalies the supervisor recovered from during this run (empty when
    /// training ran clean or the supervisor was disabled).
    pub faults: Vec<FaultEvent>,
}

/// Sigmoid scores of `model` over all events of `data`, through the
/// tape-free [`Recommender::infer`] in sequential index-range batches.
pub fn predict(
    model: &dyn Recommender,
    params: &Params,
    data: &FlatData,
    batch_size: usize,
) -> Vec<f32> {
    let mut scores = Vec::with_capacity(data.len());
    let mut start = 0;
    while start < data.len() {
        let end = (start + batch_size).min(data.len());
        let idx: Vec<usize> = (start..end).collect();
        let logits = model.infer(params, &data.gather(&idx));
        scores.extend(logits.data().iter().map(|&z| sigmoid(z)));
        start = end;
    }
    scores
}

/// AUC / GAUC of a model on a dataset view under a label mode.
#[derive(Debug, Clone, Copy)]
pub struct EvalResult {
    pub auc: f64,
    pub gauc: f64,
    pub log_loss: f64,
}

/// Evaluates `model` on `data`.
pub fn evaluate(
    model: &dyn Recommender,
    params: &Params,
    data: &FlatData,
    mode: LabelMode,
    batch_size: usize,
) -> EvalResult {
    let scores = predict(model, params, data, batch_size);
    let labels = mode.labels(data);
    EvalResult {
        auc: auc(&scores, &labels).unwrap_or(0.5),
        gauc: gauc(&scores, &labels, &data.user).unwrap_or(0.5),
        log_loss: uae_metrics::log_loss(&scores, &labels),
    }
}

fn subsampled_auc(
    model: &dyn Recommender,
    params: &Params,
    data: &FlatData,
    mode: LabelMode,
    cap: usize,
    batch_size: usize,
    rng: &mut Rng,
) -> Option<f64> {
    if data.is_empty() {
        return None;
    }
    let labels = mode.labels(data);
    if data.len() <= cap {
        let scores = predict(model, params, data, batch_size);
        return auc(&scores, &labels);
    }
    let mut idx: Vec<usize> = (0..data.len()).collect();
    rng.shuffle(&mut idx);
    idx.truncate(cap);
    let batch = data.gather(&idx);
    let sub = FlatData {
        cat: batch.cat,
        dense: batch.dense,
        label: idx.iter().map(|&i| data.label[i]).collect(),
        active: idx.iter().map(|&i| data.active[i]).collect(),
        user: idx.iter().map(|&i| data.user[i]).collect(),
        true_preference: idx.iter().map(|&i| data.true_preference[i]).collect(),
        true_attention: idx.iter().map(|&i| data.true_attention[i]).collect(),
        true_alpha: idx.iter().map(|&i| data.true_alpha[i]).collect(),
        true_propensity: idx.iter().map(|&i| data.true_propensity[i]).collect(),
        origin: idx.iter().map(|&i| data.origin[i]).collect(),
    };
    let scores = predict(model, params, &sub, batch_size);
    let sub_labels = mode.labels(&sub);
    auc(&scores, &sub_labels)
}

/// One downstream training run's mutable state, and what its checkpoints
/// hold: the parameters, Adam, the RNG, the current (possibly tightened)
/// clip norm, and the history and early-stopping state a resumed (or
/// rolled-back) run needs to replay exactly.
struct TrainRun<'a> {
    params: &'a mut Params,
    opt: Adam,
    rng: Rng,
    clip: Option<f32>,
    history: Vec<EpochRecord>,
    best_val: f64,
    best_epoch: usize,
    bad_epochs: usize,
    /// The best-validation parameters, tracked under early stopping.
    best_params: Option<Params>,
}

impl TrainState for TrainRun<'_> {
    fn arenas(&self) -> Vec<&Params> {
        vec![&*self.params]
    }

    fn capture(&self, epoch: u64, step: u64) -> TrainSnapshot {
        let mut w = ByteWriter::new();
        w.put_u32(self.history.len() as u32);
        for rec in &self.history {
            w.put_u64(rec.epoch as u64);
            w.put_f64(rec.train_loss);
            w.put_opt(rec.train_auc, ByteWriter::put_f64);
            w.put_opt(rec.val_auc, ByteWriter::put_f64);
        }
        w.put_f64(self.best_val);
        w.put_u64(self.best_epoch as u64);
        w.put_u64(self.bad_epochs as u64);
        let best = self.best_params.as_ref().map(save_params);
        w.put_bytes(&best.unwrap_or_default());
        w.put_opt(self.clip, ByteWriter::put_f32);
        let arenas = self.arenas();
        TrainSnapshot::capture(
            epoch,
            step,
            &arenas,
            &[&self.opt],
            &self.rng,
            w.into_bytes(),
        )
    }

    fn restore(&mut self, snap: &TrainSnapshot) -> Result<(), UaeError> {
        snap.restore_arena(0, self.params)?;
        let state = snap
            .optimizers
            .first()
            .cloned()
            .ok_or(CheckpointError::Corrupt("missing optimizer state"))?;
        self.opt.restore(state);
        self.rng.restore(snap.rng);
        let mut r = ByteReader::new(&snap.extra);
        let n = r.get_u32()? as usize;
        self.history = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            self.history.push(EpochRecord {
                epoch: r.get_u64()? as usize,
                train_loss: r.get_f64()?,
                train_auc: r.get_opt(ByteReader::get_f64)?,
                val_auc: r.get_opt(ByteReader::get_f64)?,
            });
        }
        self.best_val = r.get_f64()?;
        self.best_epoch = r.get_u64()? as usize;
        self.bad_epochs = r.get_u64()? as usize;
        let best = r.get_bytes()?;
        self.best_params = if best.is_empty() {
            None
        } else {
            let mut p = self.params.clone();
            uae_tensor::load_params(&mut p, &best)?;
            Some(p)
        };
        self.clip = r.get_opt(ByteReader::get_f32)?;
        Ok(())
    }

    fn scale_learning_rates(&mut self, factor: f32) {
        self.opt
            .set_learning_rate(self.opt.learning_rate() * factor);
    }

    fn clip_mut(&mut self) -> &mut Option<f32> {
        &mut self.clip
    }
}

/// Trains a recommender with Eq. (18)'s weighted cross-entropy.
///
/// `sample_weights[i]` is the confidence weight of event `i` (1.0 for active
/// events under every method; passive events receive the attention-derived
/// weight). `None` means all-ones (the "Base" rows of Tables IV–V).
/// Validation (if provided) is measured under `val_mode` each epoch and
/// drives early stopping.
///
/// Runs without fault tolerance; see [`train_supervised`] for the
/// checkpointed, sentinel-guarded variant. Panics if `sample_weights` has
/// the wrong length.
pub fn train(
    model: &dyn Recommender,
    params: &mut Params,
    train_data: &FlatData,
    sample_weights: Option<&[f32]>,
    val: Option<&FlatData>,
    val_mode: LabelMode,
    cfg: &TrainConfig,
) -> TrainReport {
    let mut sup = Supervisor::disabled();
    train_supervised(
        model,
        params,
        train_data,
        sample_weights,
        val,
        val_mode,
        cfg,
        &mut sup,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// [`train`] under a fault-tolerant [`Supervisor`].
///
/// The epochs run under [`Supervisor::run`], the one recovery protocol.
/// With an enabled supervisor the run additionally:
///
/// * checks loss finiteness after every forward pass (before backward) and
///   gradient-norm finiteness after every backward pass (before the
///   optimizer step), so parameters are never silently poisoned,
/// * has the supervisor check the parameters and checkpoint them with Adam's
///   moments, the RNG and the early-stopping state after every epoch that
///   does not stop early (resuming from such a snapshot via
///   [`Supervisor::with_resume`] is bit-identical to never stopping),
/// * on anomaly rolls back to the last good checkpoint with the learning
///   rate halved and the clip norm tightened (compounding per retry), and
/// * fails with [`UaeError::NumericalDivergence`] once the bounded retry
///   budget is exhausted.
#[allow(clippy::too_many_arguments)]
pub fn train_supervised(
    model: &dyn Recommender,
    params: &mut Params,
    train_data: &FlatData,
    sample_weights: Option<&[f32]>,
    val: Option<&FlatData>,
    val_mode: LabelMode,
    cfg: &TrainConfig,
    sup: &mut Supervisor,
) -> Result<TrainReport, UaeError> {
    if let Some(w) = sample_weights {
        if w.len() != train_data.len() {
            return Err(UaeError::ShapeMismatch {
                context: "sample_weights/event count".into(),
                expected: train_data.len(),
                found: w.len(),
            });
        }
    }
    if let Some(name) = &cfg.weight_estimator {
        uae_obs::counter(&format!("estimator.{name}.downstream_runs"), 1);
    }
    let mut run = TrainRun {
        params,
        opt: Adam::new(cfg.learning_rate),
        rng: Rng::seed_from_u64(cfg.seed ^ 0x7472_6169),
        clip: cfg.clip_norm,
        history: Vec::with_capacity(cfg.epochs),
        best_val: f64::NEG_INFINITY,
        best_epoch: 0,
        bad_epochs: 0,
        best_params: None,
    };
    let guard = sup.enabled();
    // Reused across every batch of the run; cleared per batch so matrix
    // buffers cycle through the scratch pool instead of the allocator.
    let mut tape = Tape::new();
    sup.run(cfg.epochs, &mut run, |run, epoch, step| {
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for idx in uae_data::minibatch_indices(train_data.len(), cfg.batch_size, &mut run.rng) {
            let batch = train_data.gather(&idx);
            let (pos, neg) =
                uae_core::event_pos_neg(sample_weights, &idx, &batch.active, &batch.label);
            tape.clear();
            let logits = model.forward(&mut tape, run.params, &batch);
            let loss = tape.weighted_bce(logits, &pos, &neg, idx.len() as f32, false);
            let loss_val = tape.value(loss).item() as f64;
            // Sentinel 1: a non-finite loss aborts before backward.
            if guard {
                sentinel::check_loss(loss_val)?;
            }
            loss_sum += loss_val;
            batches += 1;
            run.params.zero_grads();
            tape.backward(loss, run.params);
            let norm = match run.clip {
                Some(c) => run.params.clip_grad_norm(c),
                // Telemetry wants the norm too, but only reads it — the
                // update is identical whether or not it is measured.
                None if guard || uae_obs::enabled() => run.params.grad_norm(),
                None => 0.0,
            };
            // Sentinel 2: a non-finite gradient aborts before the step.
            if guard {
                sentinel::check_grad_norm(norm)?;
            }
            run.opt.step(run.params);
            *step += 1;
            uae_obs::emit(|| uae_obs::Event::TrainStep {
                step: *step,
                loss: loss_val,
                grad_norm: norm as f64,
                lr: run.opt.learning_rate() as f64,
            });
        }
        let train_auc = subsampled_auc(
            model,
            run.params,
            train_data,
            LabelMode::Observed,
            cfg.eval_subsample,
            cfg.batch_size,
            &mut run.rng,
        );
        let val_auc = val.and_then(|v| {
            subsampled_auc(
                model,
                run.params,
                v,
                val_mode,
                cfg.eval_subsample,
                cfg.batch_size,
                &mut run.rng,
            )
        });
        let train_loss = loss_sum / batches.max(1) as f64;
        run.history.push(EpochRecord {
            epoch,
            train_loss,
            train_auc,
            val_auc,
        });
        uae_obs::emit(|| uae_obs::Event::Epoch {
            epoch: epoch as u64,
            train_loss,
            train_auc,
            val_auc,
        });
        uae_tensor::emit_backend_telemetry();
        if let Some(v) = val_auc {
            if v > run.best_val {
                run.best_val = v;
                run.best_epoch = epoch;
                run.bad_epochs = 0;
                if cfg.early_stop_patience.is_some() {
                    run.best_params = Some(run.params.clone());
                }
            } else {
                run.bad_epochs += 1;
                if cfg.early_stop_patience.is_some_and(|p| run.bad_epochs > p) {
                    return Ok(ControlFlow::Break(()));
                }
            }
        }
        Ok(ControlFlow::Continue(()))
    })?;
    if let Some(best) = run.best_params {
        *run.params = best;
    }
    Ok(TrainReport {
        history: run.history,
        best_epoch: run.best_epoch,
        best_val_auc: if run.best_val.is_finite() {
            Some(run.best_val)
        } else {
            None
        },
        faults: sup.faults().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recommender::{ModelConfig, ModelKind};
    use uae_data::{generate, split_by_ratio, SimConfig};

    fn small_setup() -> (uae_data::Dataset, FlatData, FlatData) {
        let ds = generate(&SimConfig::product(0.12), 42);
        let mut rng = Rng::seed_from_u64(1);
        let split = split_by_ratio(&ds, 0.8, 0.1, &mut rng);
        let train = FlatData::from_sessions(&ds, &split.train);
        let test = FlatData::from_sessions(&ds, &split.test);
        (ds, train, test)
    }

    #[test]
    fn training_learns_better_than_random() {
        let (ds, train_data, test) = small_setup();
        let mut rng = Rng::seed_from_u64(5);
        let (model, mut params) =
            ModelKind::YoutubeNet.build(&ds.schema, &ModelConfig::default(), &mut rng);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 256,
            early_stop_patience: None,
            ..Default::default()
        };
        let report = train(
            model.as_ref(),
            &mut params,
            &train_data,
            None,
            None,
            LabelMode::Observed,
            &cfg,
        );
        assert_eq!(report.history.len(), 3);
        // Loss decreases over epochs.
        assert!(report.history[2].train_loss < report.history[0].train_loss);
        let result = evaluate(model.as_ref(), &params, &test, LabelMode::Observed, 512);
        assert!(result.auc > 0.55, "auc={}", result.auc);
        assert!(result.log_loss.is_finite());
    }

    #[test]
    fn predict_outputs_probabilities_for_every_event() {
        let (ds, train_data, _) = small_setup();
        let mut rng = Rng::seed_from_u64(6);
        let (model, params) = ModelKind::Fm.build(&ds.schema, &ModelConfig::default(), &mut rng);
        let scores = predict(model.as_ref(), &params, &train_data, 128);
        assert_eq!(scores.len(), train_data.len());
        assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn zero_weights_on_passive_events_change_the_model() {
        let (ds, train_data, _) = small_setup();
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 256,
            early_stop_patience: None,
            ..Default::default()
        };
        let run = |weights: Option<Vec<f32>>| {
            let mut rng = Rng::seed_from_u64(7);
            let (model, mut params) =
                ModelKind::Fm.build(&ds.schema, &ModelConfig::default(), &mut rng);
            train(
                model.as_ref(),
                &mut params,
                &train_data,
                weights.as_deref(),
                None,
                LabelMode::Observed,
                &cfg,
            );
            predict(model.as_ref(), &params, &train_data, 512)
        };
        let base = run(None);
        let zeroed = run(Some(vec![0.0; train_data.len()]));
        let diff: f32 = base
            .iter()
            .zip(&zeroed)
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / base.len() as f32;
        assert!(diff > 1e-4, "weights had no effect: {diff}");
    }

    #[test]
    fn early_stopping_restores_best_parameters() {
        let (ds, train_data, test) = small_setup();
        let mut rng = Rng::seed_from_u64(8);
        let (model, mut params) =
            ModelKind::Fm.build(&ds.schema, &ModelConfig::default(), &mut rng);
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 256,
            early_stop_patience: Some(1),
            ..Default::default()
        };
        let report = train(
            model.as_ref(),
            &mut params,
            &train_data,
            None,
            Some(&test),
            LabelMode::Observed,
            &cfg,
        );
        assert!(report.best_val_auc.is_some());
        assert!(report.best_epoch < report.history.len());
    }

    #[test]
    fn label_modes_pick_different_columns() {
        let (_, train_data, _) = small_setup();
        let observed = LabelMode::Observed.labels(&train_data);
        let oracle = LabelMode::OraclePreference.labels(&train_data);
        assert_eq!(observed.len(), oracle.len());
        // The whole point of the paper: these disagree on many passive events.
        let disagreements = observed.iter().zip(&oracle).filter(|(a, b)| a != b).count();
        assert!(disagreements > observed.len() / 20, "{disagreements}");
    }
}
