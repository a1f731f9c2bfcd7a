//! End-to-end fault-tolerance tests of the training runtime: bit-identical
//! checkpoint/resume (in-memory and across a simulated process boundary),
//! NaN-sentinel rollback recovery, and the UAE alternating loop's resume.

use std::cell::Cell;

use uae::data::{generate, split_by_ratio, FlatBatch, FlatData, SimConfig};
use uae::models::{train_supervised, LabelMode, ModelConfig, ModelKind, Recommender, TrainConfig};
use uae::runtime::{Supervisor, SupervisorConfig, TrainSnapshot, UaeError};
use uae::tensor::{save_params, Matrix, Params, Rng, Tape, Var};

fn setup() -> (uae::data::Dataset, FlatData, FlatData) {
    let ds = generate(&SimConfig::tiny(), 7);
    let mut rng = Rng::seed_from_u64(1);
    let split = split_by_ratio(&ds, 0.8, 0.1, &mut rng);
    let train = FlatData::from_sessions(&ds, &split.train);
    let val = FlatData::from_sessions(&ds, &split.val);
    (ds, train, val)
}

fn train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 64,
        early_stop_patience: None,
        seed: 9,
        ..Default::default()
    }
}

fn checkpointing_supervisor() -> Supervisor {
    Supervisor::new(SupervisorConfig::default(), "fault-tolerance-test")
}

/// Runs `epochs` epochs from a fresh model (optionally resuming from a
/// snapshot) and returns the final params blob, the report, and the final
/// recorded checkpoint (which embeds params, Adam moments, and RNG state).
fn run(
    ds: &uae::data::Dataset,
    train_data: &FlatData,
    val: &FlatData,
    epochs: usize,
    resume: Option<TrainSnapshot>,
) -> (Vec<u8>, uae::models::TrainReport, Vec<u8>) {
    let mut rng = Rng::seed_from_u64(5);
    let (model, mut params) = ModelKind::Fm.build(&ds.schema, &ModelConfig::default(), &mut rng);
    let mut sup = checkpointing_supervisor();
    if let Some(snap) = resume {
        sup = sup.with_resume(snap);
    }
    let report = train_supervised(
        model.as_ref(),
        &mut params,
        train_data,
        None,
        Some(val),
        LabelMode::Observed,
        &train_cfg(epochs),
        &mut sup,
    )
    .expect("training succeeds");
    let last = sup.last_good().expect("checkpoint recorded").encode();
    (save_params(&params), report, last)
}

/// The tentpole guarantee: training 6 epochs straight through equals
/// training 3, snapshotting, and resuming for 3 more — bit for bit, in the
/// parameters, the per-epoch history (incl. validation AUC), and the final
/// checkpoint (which embeds the Adam moments and the RNG state).
#[test]
fn interrupted_training_resumes_bit_identically() {
    let (ds, train_data, val) = setup();
    let (full_params, full_report, full_ckpt) = run(&ds, &train_data, &val, 6, None);

    let (_, half_report, half_ckpt) = run(&ds, &train_data, &val, 3, None);
    assert_eq!(half_report.history.len(), 3);
    let snap = TrainSnapshot::decode(&half_ckpt).expect("decodes");
    assert_eq!(snap.epoch, 3);

    let (resumed_params, resumed_report, resumed_ckpt) = run(&ds, &train_data, &val, 6, Some(snap));
    assert_eq!(
        full_params, resumed_params,
        "resumed params differ from the uninterrupted run"
    );
    assert_eq!(
        full_ckpt, resumed_ckpt,
        "final checkpoints differ (params, Adam moments, or RNG state)"
    );
    assert_eq!(full_report.history.len(), resumed_report.history.len());
    for (a, b) in full_report.history.iter().zip(&resumed_report.history) {
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.train_loss, b.train_loss);
        assert_eq!(a.val_auc, b.val_auc);
    }
    assert_eq!(full_report.best_val_auc, resumed_report.best_val_auc);
}

/// Same guarantee across a simulated process boundary: the snapshot travels
/// through the persisted `latest.uaec` file instead of memory.
#[test]
fn checkpoint_survives_a_process_boundary() {
    let (ds, train_data, val) = setup();
    let (full_params, _, _) = run(&ds, &train_data, &val, 6, None);

    let dir = std::env::temp_dir().join(format!("uae-ft-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    {
        let mut rng = Rng::seed_from_u64(5);
        let (model, mut params) =
            ModelKind::Fm.build(&ds.schema, &ModelConfig::default(), &mut rng);
        let mut sup = Supervisor::new(
            SupervisorConfig {
                persist_dir: Some(dir.clone()),
                ..Default::default()
            },
            "persisting-run",
        );
        train_supervised(
            model.as_ref(),
            &mut params,
            &train_data,
            None,
            Some(&val),
            LabelMode::Observed,
            &train_cfg(3),
            &mut sup,
        )
        .expect("first half trains");
    }
    // "New process": everything is rebuilt from scratch; only the file
    // carries state across.
    let snap = TrainSnapshot::read_from(&dir.join("latest.uaec")).expect("file checkpoint");
    assert_eq!(snap.epoch, 3);
    let (resumed_params, _, _) = run(&ds, &train_data, &val, 6, Some(snap));
    assert_eq!(full_params, resumed_params);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wraps a real model and poisons exactly one forward pass with NaN logits.
struct PoisonOnce<'a> {
    inner: &'a dyn Recommender,
    calls: Cell<usize>,
    poison_at: usize,
}

impl Recommender for PoisonOnce<'_> {
    fn name(&self) -> &'static str {
        "poisoned"
    }

    fn forward(&self, tape: &mut Tape, params: &Params, batch: &FlatBatch) -> Var {
        let out = self.inner.forward(tape, params, batch);
        let n = self.calls.get();
        self.calls.set(n + 1);
        if n == self.poison_at {
            tape.scale(out, f32::NAN)
        } else {
            out
        }
    }

    fn infer(&self, params: &Params, batch: &FlatBatch) -> Matrix {
        self.inner.infer(params, batch)
    }
}

/// The sentinel guarantee: one poisoned batch in epoch 1 trips the loss
/// sentinel, rolls back to the epoch-0 checkpoint, and the retry (with the
/// same data, since the poison is spent) completes the full run with finite
/// parameters and exactly one recorded fault.
#[test]
fn poisoned_batch_rolls_back_and_recovers() {
    let (ds, train_data, _) = setup();
    let cfg = train_cfg(3);
    // Per epoch: ceil(n/b) training forwards + ceil(n/b) train-AUC eval
    // forwards (val is None, data fits under eval_subsample). The first
    // training forward of epoch 1 is therefore call 2·ceil(n/b).
    let nb = train_data.len().div_ceil(cfg.batch_size);
    let mut rng = Rng::seed_from_u64(5);
    let (model, mut params) = ModelKind::Fm.build(&ds.schema, &ModelConfig::default(), &mut rng);
    let poisoned = PoisonOnce {
        inner: model.as_ref(),
        calls: Cell::new(0),
        poison_at: 2 * nb,
    };
    let mut sup = checkpointing_supervisor();
    let report = train_supervised(
        &poisoned,
        &mut params,
        &train_data,
        None,
        None,
        LabelMode::Observed,
        &cfg,
        &mut sup,
    )
    .expect("recovers from the poisoned batch");
    assert_eq!(report.faults.len(), 1, "faults: {:?}", report.faults);
    assert!(report.faults[0].anomaly.contains("non-finite loss"));
    assert!(report.faults[0].action.contains("rollback"));
    assert_eq!(report.history.len(), cfg.epochs);
    assert!(params.values_all_finite());
}

/// Without any checkpoint to roll back to, the same poison becomes a typed
/// error instead of a panic or a silently corrupted model.
#[test]
fn poison_before_any_checkpoint_aborts_with_typed_error() {
    let (ds, train_data, _) = setup();
    let mut rng = Rng::seed_from_u64(5);
    let (model, mut params) = ModelKind::Fm.build(&ds.schema, &ModelConfig::default(), &mut rng);
    let poisoned = PoisonOnce {
        inner: model.as_ref(),
        calls: Cell::new(0),
        poison_at: 0, // very first training batch, epoch 0
    };
    let mut sup = checkpointing_supervisor();
    let err = train_supervised(
        &poisoned,
        &mut params,
        &train_data,
        None,
        None,
        LabelMode::Observed,
        &train_cfg(3),
        &mut sup,
    )
    .expect_err("nothing to roll back to");
    assert!(matches!(
        err,
        uae::runtime::UaeError::NumericalDivergence { .. }
    ));
}

/// The UAE alternating loop (Algorithm 1) has the same resume guarantee:
/// both parameter arenas, both optimizers, the RNG, and the shuffled batch
/// order all round-trip through the checkpoint.
#[test]
fn uae_fit_resumes_bit_identically() {
    use uae::core::{Uae, UaeConfig};

    let ds = generate(&SimConfig::tiny(), 3);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let cfg = UaeConfig {
        embed_dim: 4,
        gru_hidden: 8,
        mlp_hidden: vec![8],
        epochs: 4,
        session_batch: 16,
        max_len: 10,
        seed: 11,
        ..Default::default()
    };

    let fit = |epochs: usize, resume: Option<TrainSnapshot>| {
        let mut model = Uae::new(
            &ds.schema,
            UaeConfig {
                epochs,
                ..cfg.clone()
            },
        );
        let mut sup = checkpointing_supervisor();
        if let Some(snap) = resume {
            sup = sup.with_resume(snap);
        }
        let report = model
            .fit_supervised(&ds, &sessions, &mut sup)
            .expect("fit succeeds");
        let g = save_params(model.attention_params());
        let h = save_params(model.propensity_params());
        let last = sup.last_good().expect("checkpoint recorded").encode();
        (g, h, report, last)
    };

    let (full_g, full_h, full_report, full_ckpt) = fit(4, None);
    let (_, _, _, half_ckpt) = fit(2, None);
    let snap = TrainSnapshot::decode(&half_ckpt).expect("decodes");
    assert_eq!(snap.epoch, 2);
    let (res_g, res_h, res_report, res_ckpt) = fit(4, Some(snap));

    assert_eq!(full_g, res_g, "attention params differ after resume");
    assert_eq!(full_h, res_h, "propensity params differ after resume");
    assert_eq!(full_ckpt, res_ckpt, "final checkpoints differ");
    assert_eq!(full_report.attention_loss, res_report.attention_loss);
    assert_eq!(full_report.propensity_loss, res_report.propensity_loss);
}

/// A sentinel that trips inside Algorithm 1's propensity phase stops the
/// phase mid-pass. With two backend threads, Θ_g's forward for the next
/// batches is then already computed and blocked on the full hand-off; the
/// phase must release and join it. The fit has to return, roll back and
/// finish, with the same faults, losses and parameters whether Θ_g's
/// forward runs inline (one thread) or beside the fitting thread (two).
#[test]
fn propensity_phase_anomaly_rolls_back_identically_at_one_and_two_threads() {
    use std::sync::mpsc;
    use std::time::Duration;
    use uae::core::{Uae, UaeConfig};

    let ds = generate(&SimConfig::tiny(), 3);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let cfg = UaeConfig {
        embed_dim: 4,
        gru_hidden: 8,
        mlp_hidden: vec![8],
        epochs: 1,
        session_batch: 16,
        max_len: 10,
        seed: 11,
        ..Default::default()
    };
    // One clean epoch, checkpointed; then resume from it with Θ_h's Adam
    // learning rate diverging, so the propensity phase's second step sees
    // non-finite values. The rollback's backoff brings the rate to 1.
    let mut warm = Uae::new(&ds.schema, cfg.clone());
    let mut sup = checkpointing_supervisor();
    warm.fit_supervised(&ds, &sessions, &mut sup)
        .expect("clean epoch");
    let mut snap = sup.last_good().expect("checkpoint recorded").clone();
    snap.optimizers[1].lr = 1e30;
    let attention_steps = snap.step as usize / (1 + cfg.n_p);

    let run = |threads: usize| {
        let (ds, sessions, cfg, snap) = (ds.clone(), sessions.clone(), cfg.clone(), snap.clone());
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let out = uae::tensor::with_num_threads(threads, || {
                let mut model = Uae::new(&ds.schema, UaeConfig { epochs: 3, ..cfg });
                let mut sup = Supervisor::new(
                    SupervisorConfig {
                        lr_backoff: 1e-30,
                        ..Default::default()
                    },
                    "propensity-anomaly",
                )
                .with_resume(snap);
                let report = model.fit_supervised(&ds, &sessions, &mut sup);
                (
                    report.map(|r| (r.attention_loss, r.propensity_loss)),
                    sup.faults().to_vec(),
                    save_params(model.attention_params()),
                    save_params(model.propensity_params()),
                )
            });
            let _ = tx.send(out);
        });
        rx.recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("fit did not return at {threads} threads"))
    };

    let one = run(1);
    let (losses, faults, _, _) = &one;
    let (attention_loss, propensity_loss) = losses.as_ref().expect("rolls back and recovers");
    assert_eq!(attention_loss.len(), 3);
    assert_eq!(propensity_loss.len(), 3);
    assert!(propensity_loss.iter().all(|l| l.is_finite()));
    assert_eq!(faults.len(), 1, "one rollback: {faults:?}");
    let fault = &faults[0];
    assert!(fault.action.starts_with("rollback to epoch 1"), "{fault:?}");
    // The resumed epoch's attention phase and first propensity step are done.
    assert_eq!(fault.epoch, 1);
    assert_eq!(fault.step, snap.step as usize + attention_steps + 1);
    assert_eq!(one, run(2), "1 and 2 threads diverged");
}

/// Sentinel 3 through the downstream trainer: one batch per epoch, stepped
/// at an infinite learning rate. That step's loss and gradient are finite;
/// the parameters it leaves are not. Nothing is checkpointed yet, so the
/// supervisor's end-of-epoch parameter check aborts the run.
#[test]
fn non_finite_parameters_abort_the_downstream_trainer() {
    let (ds, train_data, _) = setup();
    let cfg = TrainConfig {
        batch_size: train_data.len(),
        learning_rate: f32::INFINITY,
        ..train_cfg(3)
    };
    let mut rng = Rng::seed_from_u64(5);
    let (model, mut params) = ModelKind::Fm.build(&ds.schema, &ModelConfig::default(), &mut rng);
    let mut sup = Supervisor::new(SupervisorConfig::default(), "sentinel-3-trainer");
    let err = train_supervised(
        model.as_ref(),
        &mut params,
        &train_data,
        None,
        None,
        LabelMode::Observed,
        &cfg,
        &mut sup,
    )
    .expect_err("no checkpoint to roll back to");
    assert_eq!(sup.faults().len(), 1, "faults: {:?}", sup.faults());
    assert_eq!(sup.faults()[0].anomaly, "non-finite parameter values");
    assert!(
        matches!(
            &err,
            UaeError::NumericalDivergence { context, epoch: 0, step: 1, .. }
                if context == "sentinel-3-trainer"
        ),
        "{err:?}"
    );
}

/// Sentinel 3 through Algorithm 1: one batch, one propensity pass, so the
/// epoch's last step is the propensity step, and Θ_h's Adam rate is
/// infinite from the resumed checkpoint on. Each rollback restores that
/// rate (halving ∞ leaves ∞), so the check trips again until the retry
/// budget runs out and the fit fails with a typed error.
#[test]
fn non_finite_parameters_exhaust_the_uae_retry_budget() {
    use uae::core::{Uae, UaeConfig};

    let ds = generate(&SimConfig::tiny(), 3);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let cfg = UaeConfig {
        embed_dim: 4,
        gru_hidden: 8,
        mlp_hidden: vec![8],
        epochs: 1,
        n_p: 1,
        session_batch: sessions.len(),
        max_len: 10,
        seed: 11,
        ..Default::default()
    };
    let mut warm = Uae::new(&ds.schema, cfg.clone());
    let mut sup = checkpointing_supervisor();
    warm.fit_supervised(&ds, &sessions, &mut sup)
        .expect("clean epoch");
    let mut snap = sup.last_good().expect("checkpoint recorded").clone();
    assert_eq!((snap.epoch, snap.step), (1, 2), "one step per phase");
    snap.optimizers[1].lr = f32::INFINITY;

    let mut model = Uae::new(&ds.schema, UaeConfig { epochs: 2, ..cfg });
    let mut sup = Supervisor::new(SupervisorConfig::default(), "sentinel-3-uae").with_resume(snap);
    let err = model
        .fit_supervised(&ds, &sessions, &mut sup)
        .expect_err("every retry diverges");
    let faults = sup.faults();
    assert_eq!(faults.len(), 4, "three rollbacks, then abort: {faults:?}");
    for fault in faults {
        assert_eq!(fault.anomaly, "non-finite parameter values");
        assert_eq!((fault.epoch, fault.step), (1, 4));
    }
    assert!(faults[2].action.starts_with("rollback to epoch 1"));
    assert!(faults[3].action.contains("retry budget exhausted"));
    assert!(
        matches!(
            &err,
            UaeError::NumericalDivergence { context, epoch: 1, step: 4, retries_used: 3, .. }
                if context == "sentinel-3-uae"
        ),
        "{err:?}"
    );
}
