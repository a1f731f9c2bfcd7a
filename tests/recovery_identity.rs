//! Pins the bytes of the training runtime's recovery paths: what a clean
//! supervised run checkpoints, and what a run that rolled back ends with.
//!
//! `refactor_identity` pins the UAE fit's clean checkpoint; nothing else
//! compared checkpoint or rollback bytes across a change to the loops. The
//! fingerprints below were captured before the two trainers' recovery
//! protocol moved into `Supervisor::run`, and are identical at one and four
//! backend threads. Any change to what a snapshot holds, when it is taken,
//! or how a rollback restores and backs off breaks them.

use std::cell::Cell;

use uae::core::{Uae, UaeConfig};
use uae::data::{generate, split_by_ratio, FlatBatch, FlatData, SimConfig};
use uae::models::{train_supervised, LabelMode, ModelConfig, ModelKind, Recommender, TrainConfig};
use uae::runtime::{Supervisor, SupervisorConfig};
use uae::tensor::{save_params, Matrix, Params, Rng, Tape, Var};

/// FNV-1a 64 over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The downstream trainer's last checkpoint after a clean 3-epoch run.
const EXPECT_TRAIN_UAEC: u64 = 0x4c616b20b5d7cf68;
/// The downstream trainer's parameters after one poisoned batch rolled back.
const EXPECT_ROLLBACK_PARAMS: u64 = 0x2cbb0f4ba4bda736;
/// Θ_g and Θ_h after a propensity-phase anomaly rolled Algorithm 1 back.
const EXPECT_UAE_ROLLBACK_G: u64 = 0x8fadd4bda15d9f0d;
const EXPECT_UAE_ROLLBACK_H: u64 = 0x9f0e520444d14980;

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 64,
        early_stop_patience: None,
        seed: 9,
        ..Default::default()
    }
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

/// The clean run's checkpoint bytes and the rolled-back run's parameters
/// (the scenario of `fault_tolerance::poisoned_batch_rolls_back_and_recovers`).
fn downstream_fingerprints() -> (u64, u64) {
    let ds = generate(&SimConfig::tiny(), 7);
    let mut rng = Rng::seed_from_u64(1);
    let split = split_by_ratio(&ds, 0.8, 0.1, &mut rng);
    let train_data = FlatData::from_sessions(&ds, &split.train);
    let val = FlatData::from_sessions(&ds, &split.val);
    let cfg = train_cfg();

    let mut rng = Rng::seed_from_u64(5);
    let (model, mut params) = ModelKind::Fm.build(&ds.schema, &ModelConfig::default(), &mut rng);
    let mut sup = Supervisor::new(SupervisorConfig::default(), "recovery-identity");
    train_supervised(
        model.as_ref(),
        &mut params,
        &train_data,
        None,
        Some(&val),
        LabelMode::Observed,
        &cfg,
        &mut sup,
    )
    .expect("clean run");
    let clean = fnv1a(&sup.last_good().expect("checkpoint recorded").encode());

    let mut rng = Rng::seed_from_u64(5);
    let (model, mut params) = ModelKind::Fm.build(&ds.schema, &ModelConfig::default(), &mut rng);
    let poisoned = PoisonOnce {
        inner: model.as_ref(),
        calls: Cell::new(0),
        poison_at: 2 * train_data.len().div_ceil(cfg.batch_size),
    };
    let mut sup = Supervisor::new(SupervisorConfig::default(), "recovery-identity");
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
    (clean, fnv1a(&save_params(&params)))
}

/// Θ_g and Θ_h after the scenario of
/// `fault_tolerance::propensity_phase_anomaly_rolls_back_identically_at_one_and_two_threads`.
fn uae_rollback_fingerprints() -> (u64, u64) {
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
    let mut warm = Uae::new(&ds.schema, cfg.clone());
    let mut sup = Supervisor::new(SupervisorConfig::default(), "recovery-identity");
    warm.fit_supervised(&ds, &sessions, &mut sup)
        .expect("clean epoch");
    let mut snap = sup.last_good().expect("checkpoint recorded").clone();
    snap.optimizers[1].lr = 1e30;

    let mut model = Uae::new(&ds.schema, UaeConfig { epochs: 3, ..cfg });
    let mut sup = Supervisor::new(
        SupervisorConfig {
            lr_backoff: 1e-30,
            ..Default::default()
        },
        "recovery-identity",
    )
    .with_resume(snap);
    model
        .fit_supervised(&ds, &sessions, &mut sup)
        .expect("rolls back and recovers");
    assert_eq!(sup.faults().len(), 1, "faults: {:?}", sup.faults());
    (
        fnv1a(&save_params(model.attention_params())),
        fnv1a(&save_params(model.propensity_params())),
    )
}

fn assert_pinned(threads: usize) {
    let (clean, rolled_back) = uae::tensor::with_num_threads(threads, downstream_fingerprints);
    let (g, h) = uae::tensor::with_num_threads(threads, uae_rollback_fingerprints);
    assert_eq!(
        clean, EXPECT_TRAIN_UAEC,
        "trainer checkpoint bytes drifted at {threads} threads"
    );
    assert_eq!(
        rolled_back, EXPECT_ROLLBACK_PARAMS,
        "trainer rollback params drifted at {threads} threads"
    );
    assert_eq!(
        g, EXPECT_UAE_ROLLBACK_G,
        "UAE rollback Θ_g drifted at {threads} threads"
    );
    assert_eq!(
        h, EXPECT_UAE_ROLLBACK_H,
        "UAE rollback Θ_h drifted at {threads} threads"
    );
}

#[test]
fn recovery_bytes_match_at_one_thread() {
    assert_pinned(1);
}

#[test]
fn recovery_bytes_match_at_four_threads() {
    assert_pinned(4);
}
