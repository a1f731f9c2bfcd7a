//! The training supervisor: the one recovery protocol every training loop
//! runs under.
//!
//! A trainer hands [`Supervisor::run`] its mutable state (a [`TrainState`])
//! and a closure that runs one epoch. The closure keeps the trainer's own
//! work: batching, the steps with their loss and gradient sentinels,
//! per-epoch telemetry and evaluation. The driver owns everything around it:
//!
//! * **resume** — a snapshot given to [`Supervisor::with_resume`] is
//!   restored before the first epoch and becomes the first last-good state,
//! * **Sentinel 3** — once an epoch completes, every parameter arena must be
//!   finite,
//! * **checkpoint** — the state is then captured as the new last-good
//!   snapshot after every completed epoch (and persisted, if configured),
//! * **rollback** — an anomaly, from a step sentinel or from Sentinel 3,
//!   restores the last-good snapshot, scales the learning rates by
//!   `lr_backoff^retries`, tightens the gradient clip by
//!   `CLIP_BACKOFF^retries` (a run without clipping starts from
//!   `EMERGENCY_CLIP`; never below `MIN_CLIP`) and re-runs from that epoch,
//! * **abort** — with no snapshot to roll back to, or after `MAX_RETRIES`
//!   rollbacks, the run fails with [`UaeError::NumericalDivergence`].
//!
//! An epoch that stops early is neither checked nor checkpointed. A
//! disabled supervisor ([`Supervisor::disabled`]) captures nothing and runs
//! no Sentinel 3, so the plain `fit`/`train` path pays nothing for it.

use std::ops::ControlFlow;
use std::path::PathBuf;

use uae_tensor::Params;

use crate::checkpoint::TrainSnapshot;
use crate::error::UaeError;
use crate::sentinel::{self, Anomaly};

/// Rollback retries before a run aborts.
const MAX_RETRIES: usize = 3;
/// Gradient-clip multiplier per retry (compounds).
const CLIP_BACKOFF: f32 = 0.5;
/// Clip norm switched on when a run configured without clipping diverges.
const EMERGENCY_CLIP: f32 = 5.0;
/// Gradient clipping is never tightened below this.
const MIN_CLIP: f32 = 1e-3;

/// Tunables for the fault-tolerant runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Master switch; `false` makes the supervisor a no-op.
    pub enabled: bool,
    /// Learning-rate multiplier applied per retry (compounds).
    pub lr_backoff: f32,
    /// If set, every recorded snapshot is also written to
    /// `<dir>/latest.uaec` (atomically) for cross-process resume.
    pub persist_dir: Option<PathBuf>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            enabled: true,
            lr_backoff: 0.5,
            persist_dir: None,
        }
    }
}

impl SupervisorConfig {
    /// A configuration whose supervisor does nothing.
    pub fn disabled() -> Self {
        SupervisorConfig {
            enabled: false,
            ..SupervisorConfig::default()
        }
    }
}

/// What [`Supervisor::run`] needs of a trainer's state to check,
/// checkpoint and roll it back.
pub trait TrainState {
    /// The parameter arenas, in snapshot order: what Sentinel 3 checks.
    fn arenas(&self) -> Vec<&Params>;
    /// The state after `epoch` completed epochs and `step` optimizer steps.
    fn capture(&self, epoch: u64, step: u64) -> TrainSnapshot;
    /// Restores everything [`TrainState::capture`] recorded.
    fn restore(&mut self, snapshot: &TrainSnapshot) -> Result<(), UaeError>;
    /// Multiplies every learning rate by `factor`.
    fn scale_learning_rates(&mut self, factor: f32);
    /// The gradient-clip norm (`None` = no clipping).
    fn clip_mut(&mut self) -> &mut Option<f32>;
}

/// One recorded fault, kept for post-hoc reporting in harness tables.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Epoch (zero-based) in which the anomaly fired.
    pub epoch: usize,
    /// Optimizer step within the run at which the anomaly fired.
    pub step: usize,
    /// Human-readable description of what tripped.
    pub anomaly: String,
    /// What the supervisor did about it.
    pub action: String,
}

/// The supervisor's verdict after an anomaly.
#[derive(Debug)]
pub enum Recovery {
    /// Restore the snapshot, scale the learning rate and clip norm by the
    /// given cumulative factors, and continue training.
    Rollback {
        snapshot: TrainSnapshot,
        lr_scale: f32,
        clip_scale: f32,
    },
    /// Retry budget exhausted (or no checkpoint to roll back to).
    Abort(UaeError),
}

/// Per-run fault-tolerance state machine. See the module docs for the
/// protocol [`Supervisor::run`] drives.
#[derive(Debug)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    context: String,
    resume: Option<TrainSnapshot>,
    last_good: Option<TrainSnapshot>,
    retries: usize,
    faults: Vec<FaultEvent>,
}

impl Supervisor {
    /// A supervisor with the given policy, labelled with the trainer name
    /// that appears in error messages (e.g. `"trainer"`, `"uae.fit"`).
    pub fn new(cfg: SupervisorConfig, context: impl Into<String>) -> Self {
        Supervisor {
            cfg,
            context: context.into(),
            resume: None,
            last_good: None,
            retries: 0,
            faults: Vec::new(),
        }
    }

    /// A no-op supervisor: no checkpoints, no sentinels, legacy behaviour.
    pub fn disabled() -> Self {
        Supervisor::new(SupervisorConfig::disabled(), "disabled")
    }

    /// Seeds the supervisor with a snapshot that [`Supervisor::run`]
    /// restores before its first epoch.
    pub fn with_resume(mut self, snapshot: TrainSnapshot) -> Self {
        self.resume = Some(snapshot);
        self
    }

    /// Whether the protocol is on; trainers run their step sentinels only
    /// then.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Runs epochs `0..epochs` of a trainer under the recovery protocol (see
    /// the module docs), resuming first if a snapshot was given.
    ///
    /// `run_epoch(state, epoch, &mut step)` runs one epoch and advances
    /// `step` once per optimizer step. It returns `ControlFlow::Break` to
    /// stop training early, or the anomaly a step sentinel raised.
    pub fn run<S: TrainState>(
        &mut self,
        epochs: usize,
        state: &mut S,
        mut run_epoch: impl FnMut(&mut S, usize, &mut u64) -> Result<ControlFlow<()>, Anomaly>,
    ) -> Result<(), UaeError> {
        let (mut epoch, mut step) = (0, 0);
        if let Some(snap) = self.take_resume() {
            state.restore(&snap)?;
            (epoch, step) = (snap.epoch as usize, snap.step);
        }
        while epoch < epochs {
            let checked = match run_epoch(state, epoch, &mut step) {
                Ok(ControlFlow::Break(())) => break,
                // Sentinel 3: never accept a checkpoint with poisoned arenas.
                Ok(ControlFlow::Continue(())) if self.cfg.enabled => state
                    .arenas()
                    .into_iter()
                    .try_for_each(sentinel::check_params),
                Ok(ControlFlow::Continue(())) => Ok(()),
                Err(anomaly) => Err(anomaly),
            };
            match checked {
                Ok(()) => {
                    epoch += 1;
                    if self.cfg.enabled {
                        self.record(state.capture(epoch as u64, step))?;
                    }
                }
                Err(anomaly) => match self.on_anomaly(epoch, step as usize, &anomaly) {
                    Recovery::Rollback {
                        snapshot,
                        lr_scale,
                        clip_scale,
                    } => {
                        state.restore(&snapshot)?;
                        state.scale_learning_rates(lr_scale);
                        let clip = state.clip_mut();
                        *clip = Some((clip.unwrap_or(EMERGENCY_CLIP) * clip_scale).max(MIN_CLIP));
                        (epoch, step) = (snapshot.epoch as usize, snapshot.step);
                    }
                    Recovery::Abort(e) => return Err(e),
                },
            }
        }
        Ok(())
    }

    /// Hands out the resume snapshot (at most once). The snapshot also
    /// becomes the initial last-good state so an anomaly in the very first
    /// resumed epoch can still roll back.
    fn take_resume(&mut self) -> Option<TrainSnapshot> {
        let snap = self.resume.take()?;
        self.last_good = Some(snap.clone());
        uae_obs::emit(|| uae_obs::Event::Resume {
            epoch: snap.epoch,
            step: snap.step,
        });
        Some(snap)
    }

    /// Accepts a snapshot as the new last-good state and, if configured,
    /// persists it to `<persist_dir>/latest.uaec`: the checkpoint step of
    /// [`Supervisor::run`].
    pub fn record(&mut self, snapshot: TrainSnapshot) -> Result<(), UaeError> {
        if !self.cfg.enabled {
            return Ok(());
        }
        if let Some(dir) = &self.cfg.persist_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| crate::checkpoint::CheckpointError::Io(e.to_string()))?;
            snapshot.write_to(&dir.join("latest.uaec"))?;
        }
        uae_obs::emit(|| uae_obs::Event::Checkpoint {
            epoch: snapshot.epoch,
            step: snapshot.step,
            persisted: self.cfg.persist_dir.is_some(),
        });
        self.last_good = Some(snapshot);
        Ok(())
    }

    /// The most recently accepted snapshot, if any.
    pub fn last_good(&self) -> Option<&TrainSnapshot> {
        self.last_good.as_ref()
    }

    /// Logs an anomaly and decides between rollback and abort: the
    /// decision step of [`Supervisor::run`].
    pub fn on_anomaly(&mut self, epoch: usize, step: usize, anomaly: &Anomaly) -> Recovery {
        self.retries += 1;
        let budget_left = self.retries <= MAX_RETRIES;
        match (&self.last_good, budget_left) {
            (Some(snap), true) => {
                let lr_scale = self.cfg.lr_backoff.powi(self.retries as i32);
                let clip_scale = CLIP_BACKOFF.powi(self.retries as i32);
                let snapshot = snap.clone();
                self.push_fault(FaultEvent {
                    epoch,
                    step,
                    anomaly: anomaly.to_string(),
                    action: format!(
                        "rollback to epoch {} (retry {}/{MAX_RETRIES}, lr ×{lr_scale})",
                        snapshot.epoch, self.retries
                    ),
                });
                Recovery::Rollback {
                    snapshot,
                    lr_scale,
                    clip_scale,
                }
            }
            (last_good, _) => {
                let reason = if last_good.is_none() {
                    "no checkpoint to roll back to"
                } else {
                    "retry budget exhausted"
                };
                self.push_fault(FaultEvent {
                    epoch,
                    step,
                    anomaly: anomaly.to_string(),
                    action: format!("abort ({reason})"),
                });
                Recovery::Abort(UaeError::NumericalDivergence {
                    context: self.context.clone(),
                    epoch,
                    step,
                    detail: anomaly.to_string(),
                    retries_used: self.retries - 1,
                })
            }
        }
    }

    /// Records a fault in the run log and mirrors it to the telemetry sink,
    /// so a rollback is visible in the JSONL stream at the step it happened.
    fn push_fault(&mut self, fault: FaultEvent) {
        uae_obs::emit(|| uae_obs::Event::Fault {
            epoch: fault.epoch as u64,
            step: fault.step as u64,
            anomaly: fault.anomaly.clone(),
            action: fault.action.clone(),
        });
        self.faults.push(fault);
    }

    /// Every fault the supervisor has seen, in order.
    pub fn faults(&self) -> &[FaultEvent] {
        &self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_tensor::{Matrix, Rng, RngState};

    fn snap(epoch: u64) -> TrainSnapshot {
        TrainSnapshot {
            epoch,
            step: epoch * 10,
            arenas: vec![],
            optimizers: vec![],
            rng: Rng::seed_from_u64(epoch).state(),
            extra: vec![],
        }
    }

    #[test]
    fn rollback_backoff_compounds_then_aborts() {
        let mut sup = Supervisor::new(SupervisorConfig::default(), "t");
        sup.record(snap(4)).unwrap();
        let anomaly = Anomaly::NonFiniteLoss { loss: f64::NAN };

        match sup.on_anomaly(5, 51, &anomaly) {
            Recovery::Rollback {
                snapshot, lr_scale, ..
            } => {
                assert_eq!(snapshot.epoch, 4);
                assert_eq!(lr_scale, 0.5);
            }
            other => panic!("expected rollback, got {other:?}"),
        }
        match sup.on_anomaly(5, 51, &anomaly) {
            Recovery::Rollback { lr_scale, .. } => assert_eq!(lr_scale, 0.25),
            other => panic!("expected rollback, got {other:?}"),
        }
        match sup.on_anomaly(5, 51, &anomaly) {
            Recovery::Rollback { lr_scale, .. } => assert_eq!(lr_scale, 0.125),
            other => panic!("expected rollback, got {other:?}"),
        }
        match sup.on_anomaly(5, 51, &anomaly) {
            Recovery::Abort(UaeError::NumericalDivergence { retries_used, .. }) => {
                assert_eq!(retries_used, 3)
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(sup.faults().len(), 4);
        assert!(sup.faults()[3].action.contains("abort"));
    }

    #[test]
    fn anomaly_without_checkpoint_aborts_immediately() {
        let mut sup = Supervisor::new(SupervisorConfig::default(), "t");
        match sup.on_anomaly(0, 3, &Anomaly::NonFiniteParams) {
            Recovery::Abort(UaeError::NumericalDivergence { epoch, step, .. }) => {
                assert_eq!((epoch, step), (0, 3));
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn take_resume_also_seeds_last_good() {
        let mut sup = Supervisor::new(SupervisorConfig::default(), "t").with_resume(snap(7));
        let resumed = sup.take_resume().expect("resume snapshot");
        assert_eq!(resumed.epoch, 7);
        assert!(sup.take_resume().is_none());
        assert_eq!(sup.last_good().map(|s| s.epoch), Some(7));
    }

    #[test]
    fn record_persists_latest_when_configured() {
        let dir = std::env::temp_dir().join(format!(
            "uae-sup-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut sup = Supervisor::new(
            SupervisorConfig {
                persist_dir: Some(dir.clone()),
                ..SupervisorConfig::default()
            },
            "t",
        );
        sup.record(snap(2)).unwrap();
        let loaded = TrainSnapshot::read_from(&dir.join("latest.uaec")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded.epoch, 2);
        let _: RngState = loaded.rng; // field survives the round trip typed
    }

    /// One arena of one scalar, with a learning rate and a clip, that counts
    /// how often the driver checks and captures it.
    struct Toy {
        params: Params,
        lr: f32,
        clip: Option<f32>,
        checks: std::cell::Cell<usize>,
        captures: std::cell::Cell<usize>,
    }

    impl Toy {
        fn new() -> Self {
            let mut params = Params::new();
            params.add("w", Matrix::filled(1, 1, 1.0));
            Toy {
                params,
                lr: 1.0,
                clip: None,
                checks: Default::default(),
                captures: Default::default(),
            }
        }
    }

    impl TrainState for Toy {
        fn arenas(&self) -> Vec<&Params> {
            self.checks.set(self.checks.get() + 1);
            vec![&self.params]
        }

        fn capture(&self, epoch: u64, step: u64) -> TrainSnapshot {
            self.captures.set(self.captures.get() + 1);
            let rng = Rng::seed_from_u64(0);
            TrainSnapshot::capture(epoch, step, &[&self.params], &[], &rng, vec![])
        }

        fn restore(&mut self, snapshot: &TrainSnapshot) -> Result<(), UaeError> {
            snapshot.restore_arena(0, &mut self.params)
        }

        fn scale_learning_rates(&mut self, factor: f32) {
            self.lr *= factor;
        }

        fn clip_mut(&mut self) -> &mut Option<f32> {
            &mut self.clip
        }
    }

    /// Each epoch takes one step and adds one to the weight; epoch 1
    /// poisons it the first time it runs.
    fn toy_epoch(
        poisoned: &mut bool,
    ) -> impl FnMut(&mut Toy, usize, &mut u64) -> Result<ControlFlow<()>, Anomaly> + '_ {
        move |toy, epoch, step| {
            *step += 1;
            let w = toy.params.ids().next().expect("one arena entry");
            let v = &mut toy.params.value_mut(w).data_mut()[0];
            *v = if epoch == 1 && !*poisoned {
                f32::NAN
            } else {
                *v + 1.0
            };
            *poisoned |= epoch == 1;
            Ok(ControlFlow::Continue(()))
        }
    }

    #[test]
    fn sentinel_3_rolls_back_and_backs_off() {
        let mut sup = Supervisor::new(SupervisorConfig::default(), "toy");
        let mut toy = Toy::new();
        let mut poisoned = false;
        sup.run(3, &mut toy, toy_epoch(&mut poisoned)).unwrap();
        assert_eq!(sup.faults().len(), 1, "{:?}", sup.faults());
        assert_eq!(sup.faults()[0].anomaly, "non-finite parameter values");
        assert_eq!((sup.faults()[0].epoch, sup.faults()[0].step), (1, 2));
        assert_eq!(
            (toy.lr, toy.clip),
            (0.5, Some(EMERGENCY_CLIP * CLIP_BACKOFF))
        );
        let last = sup.last_good().expect("checkpointed");
        assert_eq!((last.epoch, last.step), (3, 3));
        assert!(toy.params.values_all_finite());
        assert_eq!((toy.checks.get(), toy.captures.get()), (4, 3));
    }

    #[test]
    fn disabled_run_checks_and_captures_nothing() {
        let mut sup = Supervisor::disabled();
        let mut toy = Toy::new();
        let mut poisoned = false;
        sup.run(3, &mut toy, toy_epoch(&mut poisoned)).unwrap();
        assert!(sup.last_good().is_none() && sup.faults().is_empty());
        assert_eq!((toy.checks.get(), toy.captures.get()), (0, 0));
    }
}
