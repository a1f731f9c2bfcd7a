//! UAE: the Unbiased Attention Estimator with alternating optimization
//! (Algorithm 1 of the paper).

use std::ops::ControlFlow;
use std::sync::mpsc;

use uae_data::{infer_seq_batches, seq_batches, Dataset, SeqBatch};
use uae_nn::{Adam, Optimizer};
use uae_runtime::checkpoint::{ByteReader, ByteWriter, CheckpointError, TrainSnapshot};
use uae_runtime::sentinel::{self, Anomaly};
use uae_runtime::supervisor::{Supervisor, TrainState};
use uae_runtime::UaeError;
use uae_tensor::{sigmoid, Exec, Matrix, Params, Rng, Tape, ValueExec, Var};

use crate::estimator::{AttentionEstimator, FitReport};
use crate::estimators::{
    masked_sequence_bce, ClipCounts, EstimatorSpec, Phase, RiskEstimator, WeightCtx, WeightGrid,
};
use crate::networks::{AttentionNet, LocalPropensityNet, PropensityNet};

/// Hyper-parameters of UAE (defaults follow §VI-A scaled to the simulator:
/// embedding 8, Adam, `N_a = 1`, `N_p = 2`, risk clipping on).
#[derive(Debug, Clone)]
pub struct UaeConfig {
    pub embed_dim: usize,
    /// GRU hidden width (the paper tunes {64, 128, 256} at production scale).
    pub gru_hidden: usize,
    pub mlp_hidden: Vec<usize>,
    pub lr_attention: f32,
    pub lr_propensity: f32,
    /// Outer epochs (`N_e` in Algorithm 1).
    pub epochs: usize,
    /// Attention-minimizer passes per epoch (`N_a`).
    pub n_a: usize,
    /// Propensity-minimizer passes per epoch (`N_p`).
    pub n_p: usize,
    /// Sessions per padded batch.
    pub session_batch: usize,
    /// Sessions are truncated to this many steps during training.
    pub max_len: usize,
    /// Lower clip for estimated propensities in Eq. (16) weights.
    pub propensity_clip: f32,
    /// Lower clip for estimated attention in Eq. (17) weights.
    pub attention_clip: f32,
    /// Per-example non-negative risk correction ("risk-clipped technique").
    pub clamp_nonneg: bool,
    pub grad_clip: Option<f32>,
    pub seed: u64,
    /// When nonzero, categorical fields embed through hashed tables capped
    /// at this many buckets (see [`uae_nn::HashedEmbedding`]). Zero keeps
    /// dense one-row-per-category tables. This is part of the model
    /// architecture: a serving artifact must rebuild with the same value.
    pub hash_buckets: usize,
    /// Hash functions per lookup when `hash_buckets > 0`.
    pub hash_k: usize,
    /// Which [`RiskEstimator`] drives the alternating optimization. The
    /// default is the paper's dual unbiased estimator; see
    /// [`EstimatorSpec`] for the full catalogue (PN, NDB, ideal/oracle,
    /// rel-MF, BISER, ADPU).
    pub estimator: EstimatorSpec,
}

impl Default for UaeConfig {
    fn default() -> Self {
        UaeConfig {
            embed_dim: 8,
            gru_hidden: 32,
            mlp_hidden: vec![32],
            lr_attention: 1e-3,
            lr_propensity: 1e-3,
            epochs: 8,
            n_a: 1,
            n_p: 2,
            session_batch: 64,
            max_len: 30,
            propensity_clip: 0.1,
            attention_clip: 0.1,
            clamp_nonneg: true,
            grad_clip: Some(5.0),
            seed: 0,
            hash_buckets: 0,
            hash_k: 2,
            estimator: EstimatorSpec::default(),
        }
    }
}

impl UaeConfig {
    /// The embedding-bank switch derived from `hash_buckets`/`hash_k`
    /// (`None` = dense). The hash seed is the fixed format constant, never
    /// the training seed: serving must bucket exactly like training.
    pub fn hash_spec(&self) -> Option<uae_nn::HashConfig> {
        if self.hash_buckets == 0 {
            None
        } else {
            Some(uae_nn::HashConfig::new(self.hash_buckets, self.hash_k))
        }
    }
}

/// Which propensity head a [`Uae`] carries: the one fact, beside the
/// shared widths, that decides its architecture, and what a frozen
/// snapshot records to rebuild it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadKind {
    /// UAE: GRU₂ over feedback history + MLP₂ over `z₁ ⊕ z₂ ⊕ e_{t-1}`.
    Sequential,
    /// SAR: MLP over current features only (local labelling assumption).
    Local,
    /// Single-network estimators (PN, NDB, ideal, oracle, rel-MF): no
    /// propensity model is trained at all.
    None,
}

/// The propensity head [`HeadKind`] names, with its network.
pub(crate) enum PropensityHead {
    Sequential(PropensityNet),
    Local(LocalPropensityNet),
    None,
}

impl PropensityHead {
    /// Forward of the head with parameters `params` (Θ_h). `z1` is read
    /// only by the sequential head, as is: on the tape, pass constant
    /// leaves to keep gradient out of Θ_g. A missing head has no logits,
    /// so a scatter over them leaves the 0.5 prior in place.
    fn logits<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        batch: &SeqBatch,
        z1: &[E::V],
    ) -> Vec<E::V> {
        match self {
            PropensityHead::Sequential(net) => net.forward(exec, params, batch, z1),
            PropensityHead::Local(net) => net.forward(exec, params, batch),
            PropensityHead::None => Vec::new(),
        }
    }
}

/// σ of per-step logits as a `[t][i]` grid.
fn probs_grid<E: Exec>(exec: &E, logits: &[E::V]) -> WeightGrid {
    logits
        .iter()
        .map(|l| exec.value(l).data().iter().map(|&z| sigmoid(z)).collect())
        .collect()
}

/// Backpropagates `loss` into `params`, clips the gradient norm to
/// `grad_clip` and takes one `opt` step; returns the loss. With `guard` set,
/// finiteness sentinels run on the loss (before backward) and on the
/// gradient norm (before the optimizer step), so a tripped sentinel leaves
/// the parameters untouched.
fn descend(
    tape: &mut Tape,
    loss: Var,
    params: &mut Params,
    opt: &mut Adam,
    grad_clip: Option<f32>,
    guard: bool,
) -> Result<f64, Anomaly> {
    let value = tape.value(loss).item() as f64;
    if guard {
        sentinel::check_loss(value)?;
    }
    params.zero_grads();
    tape.backward(loss, params);
    let norm = match grad_clip {
        Some(c) => params.clip_grad_norm(c),
        None if guard => params.grad_norm(),
        None => 0.0,
    };
    if guard {
        sentinel::check_grad_norm(norm)?;
    }
    opt.step(params);
    Ok(value)
}

/// What one propensity-phase step reads of Θ_g, computed tape-free. Θ_g is
/// fixed for the whole phase, so these are constants of the step.
struct GOutputs {
    /// α̂, when the estimator's propensity weights read it.
    alpha_hat: Option<WeightGrid>,
    /// `z₁` per step, when the head reads it (empty otherwise).
    z1: Vec<Matrix>,
}

impl GOutputs {
    /// Θ_g's tape-free forward on `batch`, keeping what the phase reads:
    /// α̂ when `alpha_hat`, `z₁` when `z1`.
    fn compute(
        g: &AttentionNet,
        params_g: &Params,
        batch: &SeqBatch,
        alpha_hat: bool,
        z1: bool,
    ) -> Self {
        let vx = &mut ValueExec::new();
        let gf = g.forward(vx, params_g, batch);
        GOutputs {
            alpha_hat: alpha_hat.then(|| probs_grid(vx, &gf.logits)),
            z1: if z1 { gf.z1 } else { Vec::new() },
        }
    }
}

/// Running totals of one phase of an epoch.
#[derive(Default)]
struct PhaseTally {
    /// Sum of the step losses.
    loss: f64,
    /// Steps completed.
    steps: usize,
    /// The estimator's clip tally (telemetry only).
    clip: ClipCounts,
    /// Propensity phase: time the fitting thread waited for Θ_g's outputs,
    /// measured only while telemetry is enabled.
    g_wait: std::time::Duration,
}

/// The fitting side of the propensity phase: everything a step mutates or
/// reads except Θ_g, borrowed apart from it so Θ_g's forward can run on
/// another thread meanwhile.
struct PropensityFit<'a> {
    head: &'a PropensityHead,
    params: &'a mut Params,
    estimator: &'a dyn RiskEstimator,
    cfg: &'a UaeConfig,
    tape: &'a mut Tape,
    opt: &'a mut Adam,
    /// Run the finiteness sentinels (see [`descend`]).
    guard: bool,
}

impl PropensityFit<'_> {
    /// One gradient step of Θ_h on `batch`, given Θ_g's outputs `g`; returns
    /// the loss. `z₁` enters the tape as constant leaves, so the tape holds
    /// `h` alone.
    fn step(
        &mut self,
        batch: &SeqBatch,
        g: &GOutputs,
        clip_counts: &mut ClipCounts,
    ) -> Result<f64, Anomaly> {
        let tape = &mut *self.tape;
        tape.clear();
        let z1: Vec<Var> = g.z1.iter().map(|z| tape.input(z.clone())).collect();
        let h_logits = self.head.logits(tape, self.params, batch, &z1);
        let need = self.estimator.inputs(Phase::Propensity);
        let p_hat = need.p_hat.then(|| probs_grid(tape, &h_logits));
        let wb = self.estimator.weights(
            Phase::Propensity,
            &WeightCtx {
                batch,
                alpha_hat: g.alpha_hat.as_ref(),
                p_hat: p_hat.as_ref(),
            },
        );
        clip_counts.merge(&wb.clip);
        let divisor = batch.valid_steps().max(1) as f32;
        let loss = masked_sequence_bce(
            tape,
            &h_logits,
            &wb.pos,
            &wb.neg,
            divisor,
            self.cfg.clamp_nonneg,
        );
        descend(
            tape,
            loss,
            self.params,
            self.opt,
            self.cfg.grad_clip,
            self.guard,
        )
    }

    /// Steps through `batches[seq[k]]` in order, taking each step's Θ_g
    /// outputs from `g_outs` and handing them to `recycle` once the step is
    /// done. Stops at the first anomaly, or early when `g_outs` ends.
    fn run(
        &mut self,
        batches: &[SeqBatch],
        seq: &[usize],
        mut g_outs: impl Iterator<Item = GOutputs>,
        mut recycle: impl FnMut(GOutputs),
        tally: &mut PhaseTally,
    ) -> Result<(), Anomaly> {
        for &bi in seq {
            let wait = uae_obs::enabled().then(std::time::Instant::now);
            let Some(g) = g_outs.next() else {
                break;
            };
            if let Some(start) = wait {
                tally.g_wait += start.elapsed();
            }
            let loss = self.step(&batches[bi], &g, &mut tally.clip);
            recycle(g);
            tally.loss += loss?;
            tally.steps += 1;
        }
        Ok(())
    }
}

/// The UAE model: attention network `g`, an optional propensity head `h`,
/// and the alternating learning algorithm, driven by a pluggable
/// [`RiskEstimator`] (selected via [`UaeConfig::estimator`]). Also
/// implements the SAR baseline when constructed with [`Uae::new_sar`]
/// (identical algorithm, local propensity head).
pub struct Uae {
    pub(crate) g: AttentionNet,
    pub(crate) params_g: Params,
    pub(crate) h: PropensityHead,
    pub(crate) params_h: Params,
    pub(crate) cfg: UaeConfig,
    estimator: Box<dyn RiskEstimator>,
    name: &'static str,
}

impl Uae {
    /// Builds the model `cfg.estimator` asks for: the paper's UAE by
    /// default, or any other [`RiskEstimator`] from the catalogue. Dual
    /// estimators ([`EstimatorSpec::dual`]) get the sequential head;
    /// single-network ones skip the propensity head entirely.
    pub fn new(schema: &uae_data::FeatureSchema, cfg: UaeConfig) -> Self {
        let head = if cfg.estimator.dual() {
            HeadKind::Sequential
        } else {
            HeadKind::None
        };
        Self::construct(schema, cfg, head).init(0x7561_6531)
    }

    /// Builds the SAR baseline: same alternating optimization (always with
    /// the dual UAE risks — `cfg.estimator` is overridden), but the
    /// propensity depends on the current features only.
    pub fn new_sar(schema: &uae_data::FeatureSchema, cfg: UaeConfig) -> Self {
        Self::construct(schema, cfg, HeadKind::Local).init(0x7361_7233)
    }

    /// The model [`Uae::new`] or [`Uae::new_sar`] builds with propensity
    /// head `head`, with stored parameter values instead of drawn ones:
    /// `bind` gets Θ_g (set 0), then Θ_h (set 1), each registered but
    /// without values, and must give every parameter its value (see
    /// [`Params::bind`]). Nothing is drawn and no gradient buffer is
    /// allocated. A bound model serves; it is not fitted.
    pub fn bind<E>(
        schema: &uae_data::FeatureSchema,
        cfg: UaeConfig,
        head: HeadKind,
        mut bind: impl FnMut(&mut Params, usize) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut uae = Self::construct(schema, cfg, head);
        bind(&mut uae.params_g, 0)?;
        bind(&mut uae.params_h, 1)?;
        Ok(uae)
    }

    /// Registers both networks' parameters and draws nothing.
    fn construct(schema: &uae_data::FeatureSchema, mut cfg: UaeConfig, head: HeadKind) -> Self {
        let sar = head == HeadKind::Local;
        if sar {
            cfg.estimator = EstimatorSpec::UaeDual;
        }
        let estimator = cfg.estimator.build(&cfg);
        let prefix = if sar { "sar" } else { "uae" };
        let mut params_g = Params::new();
        let g = AttentionNet::register(
            &format!("{prefix}.g"),
            schema,
            cfg.embed_dim,
            cfg.gru_hidden,
            &cfg.mlp_hidden,
            cfg.hash_spec(),
            &mut params_g,
        );
        let mut params_h = Params::new();
        let h = match head {
            HeadKind::Local => PropensityHead::Local(LocalPropensityNet::new(
                "sar.h",
                schema,
                cfg.embed_dim,
                &cfg.mlp_hidden,
                cfg.hash_spec(),
                &mut params_h,
            )),
            HeadKind::Sequential => PropensityHead::Sequential(PropensityNet::new(
                "uae.h",
                cfg.gru_hidden,
                cfg.gru_hidden.max(4) / 2,
                &cfg.mlp_hidden,
                &mut params_h,
            )),
            HeadKind::None => PropensityHead::None,
        };
        let name = if sar { "SAR" } else { estimator.name() };
        Uae {
            g,
            params_g,
            h,
            params_h,
            cfg,
            estimator,
            name,
        }
    }

    /// Draws the initial values of Θ_g, then Θ_h, each in registration
    /// order, from one stream seeded by `cfg.seed ^ salt`.
    fn init(mut self, salt: u64) -> Self {
        let mut rng = Rng::seed_from_u64(self.cfg.seed ^ salt);
        self.params_g.init(&mut rng);
        self.params_h.init(&mut rng);
        self
    }

    /// One gradient step of the attention phase on `batch`; returns the
    /// loss (see [`descend`] for the `guard` sentinels).
    ///
    /// `clip_counts` accumulates the estimator's clip tally for this phase
    /// (diagnostic only — it never feeds back into the update).
    fn attention_step(
        &mut self,
        tape: &mut Tape,
        batch: &SeqBatch,
        opt: &mut Adam,
        guard: bool,
        clip_counts: &mut ClipCounts,
    ) -> Result<f64, Anomaly> {
        tape.clear();
        let gf = self.g.forward(tape, &self.params_g, batch);
        let need = self.estimator.inputs(Phase::Attention);
        // Θ_h is fixed in this phase: p̂ is a constant of the step, so `h`
        // runs tape-free on copies of the `z₁` values.
        let p_hat = need.p_hat.then(|| {
            let z1: Vec<Matrix> = if self.head_kind() == HeadKind::Sequential {
                gf.z1.iter().map(|&z| tape.value(z).clone()).collect()
            } else {
                Vec::new()
            };
            let vx = &mut ValueExec::new();
            let h_logits = self.h.logits(vx, &self.params_h, batch, &z1);
            probs_grid(vx, &h_logits)
        });
        let alpha_hat = need.alpha_hat.then(|| probs_grid(tape, &gf.logits));
        let wb = self.estimator.weights(
            Phase::Attention,
            &WeightCtx {
                batch,
                alpha_hat: alpha_hat.as_ref(),
                p_hat: p_hat.as_ref(),
            },
        );
        clip_counts.merge(&wb.clip);
        let divisor = batch.valid_steps().max(1) as f32;
        let loss = masked_sequence_bce(
            tape,
            &gf.logits,
            &wb.pos,
            &wb.neg,
            divisor,
            self.cfg.clamp_nonneg,
        );
        descend(
            tape,
            loss,
            &mut self.params_g,
            opt,
            self.cfg.grad_clip,
            guard,
        )
    }

    /// Runs the propensity phase's steps on `batches[seq[k]]` in order,
    /// stopping at the first anomaly. Only runs for a model with a head.
    ///
    /// Θ_g is fixed for the whole phase, so its tape-free forward for the
    /// next batch runs on a second thread while this one fits Θ_h on the
    /// current batch. The two hand off through a channel of depth 1; every
    /// consumed output goes back to the producing thread to be dropped
    /// there, so its buffers return to that thread's scratch pool. With one
    /// backend thread ([`uae_tensor::num_threads`]) the same producer runs
    /// inline. Either way the parameter updates are identical.
    fn propensity_phase(
        &mut self,
        batches: &[SeqBatch],
        seq: &[usize],
        tape: &mut Tape,
        opt: &mut Adam,
        guard: bool,
        tally: &mut PhaseTally,
    ) -> Result<(), Anomaly> {
        let alpha_hat = self.estimator.inputs(Phase::Propensity).alpha_hat;
        let z1 = self.head_kind() == HeadKind::Sequential;
        let (g, params_g) = (&self.g, &self.params_g);
        let produce = move |bi: usize| GOutputs::compute(g, params_g, &batches[bi], alpha_hat, z1);
        let mut fit = PropensityFit {
            head: &self.h,
            params: &mut self.params_h,
            estimator: self.estimator.as_ref(),
            cfg: &self.cfg,
            tape,
            opt,
            guard,
        };
        if uae_tensor::num_threads() == 1 {
            return fit.run(batches, seq, seq.iter().map(|&bi| produce(bi)), drop, tally);
        }
        let settings = uae_tensor::ThreadSettings::current();
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::sync_channel::<GOutputs>(1);
            let (back_tx, back_rx) = mpsc::channel::<GOutputs>();
            s.spawn(move || {
                settings.apply(|| {
                    for &bi in seq {
                        // Free the outputs the fitting thread is done with
                        // first, so this forward reuses their buffers.
                        back_rx.try_iter().for_each(drop);
                        // A closed channel means the fitting side stopped.
                        if tx.send(produce(bi)).is_err() {
                            break;
                        }
                    }
                    drop(tx);
                    // Until the fitting side hangs up, every output still
                    // comes back here.
                    back_rx.iter().for_each(drop);
                })
            });
            // `run` owns both channel ends and drops them on return, which
            // releases a producer blocked on either channel.
            fit.run(
                batches,
                seq,
                rx.into_iter(),
                move |done| {
                    let _ = back_tx.send(done);
                },
                tally,
            )
        })
    }

    /// The hyper-parameters this model was built with.
    pub fn config(&self) -> &UaeConfig {
        &self.cfg
    }

    /// The propensity head this model carries — what a frozen snapshot
    /// records to rebuild the same architecture.
    pub fn head_kind(&self) -> HeadKind {
        match self.h {
            PropensityHead::Sequential(_) => HeadKind::Sequential,
            PropensityHead::Local(_) => HeadKind::Local,
            PropensityHead::None => HeadKind::None,
        }
    }

    /// Tape-free forward of both networks over one padded batch: the *same*
    /// forward implementations run under [`ValueExec`], so the logits are
    /// bit-identical to the training forward by construction, with no
    /// autodiff tape built. This is the serving path used by `uae-serve`'s
    /// batched `Scorer`; [`Uae::predict`] runs the same forward off the arena.
    /// One batch = one arena generation: every intermediate matrix is
    /// bump-allocated from `uae_tensor::arena` and the whole generation is
    /// rewound on the next batch's entry, so steady-state serving performs
    /// zero heap allocations. The returned logits stay valid after the scope
    /// exits (their leases pin the backing chunks).
    pub fn infer_batch(&self, batch: &SeqBatch) -> UaeInference {
        uae_tensor::arena::scoped(|| {
            let mut vx = ValueExec::new();
            let gf = self.g.forward(&mut vx, &self.params_g, batch);
            let propensity_logits = self.h.logits(&mut vx, &self.params_h, batch, &gf.z1);
            UaeInference {
                attention_logits: gf.logits,
                propensity_logits,
            }
        })
    }

    /// Freezes Θ_g and Θ_h into shared read-only regions (see
    /// [`uae_tensor::Params::freeze`]) so the tape-free forward's per-batch
    /// param clones become O(1) handle copies. Parameters bound to a `.uaem`
    /// arena are already shared views of the same kind; this is for a model
    /// built by [`Uae::new`]. Training afterwards still works (mutation
    /// copies-on-write).
    pub fn freeze_params(&mut self) {
        self.params_g.freeze();
        self.params_h.freeze();
    }

    /// The attention network's parameter arena (Θ_g) — for persistence via
    /// `uae_tensor::save_params` / `load_params`.
    pub fn attention_params(&self) -> &Params {
        &self.params_g
    }

    /// Mutable access to Θ_g (to load persisted parameters).
    pub fn attention_params_mut(&mut self) -> &mut Params {
        &mut self.params_g
    }

    /// The propensity head's parameter arena (Θ_h).
    pub fn propensity_params(&self) -> &Params {
        &self.params_h
    }

    /// Algorithm 1 under a fault-tolerant [`Supervisor`]: the epochs run
    /// under [`Supervisor::run`], the one recovery protocol. With an enabled
    /// supervisor every attention/propensity step is guarded by the loss and
    /// gradient sentinels, and after every epoch the supervisor checks both
    /// networks and checkpoints them (with both Adam states, the RNG, the
    /// batch-order permutation, and the loss history). On anomaly it rolls
    /// back to the last good checkpoint with both learning rates halved and
    /// `grad_clip` tightened, retrying within a bounded budget before
    /// failing with [`UaeError::NumericalDivergence`].
    ///
    /// Resuming from a mid-run snapshot (via [`Supervisor::with_resume`]) is
    /// bit-identical to an uninterrupted run.
    ///
    /// ```no_run
    /// use uae_core::{Uae, UaeConfig};
    /// use uae_data::{generate, SimConfig};
    /// use uae_runtime::{Supervisor, SupervisorConfig, UaeError};
    ///
    /// let ds = generate(&SimConfig::tiny(), 7);
    /// let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    /// let cfg = UaeConfig { epochs: 2, ..Default::default() };
    /// let mut uae = Uae::new(&ds.schema, cfg);
    /// let mut sup = Supervisor::new(SupervisorConfig::default(), "uae.fit");
    /// let report = uae.fit_supervised(&ds, &sessions, &mut sup)?;
    /// assert_eq!(report.attention_loss.len(), 2);
    /// # Ok::<(), UaeError>(())
    /// ```
    pub fn fit_supervised(
        &mut self,
        dataset: &Dataset,
        sessions: &[usize],
        sup: &mut Supervisor,
    ) -> Result<FitReport, UaeError> {
        // Plug-in estimators (e.g. rel-MF) fit their statistics on the
        // observed training split before any gradient step.
        self.estimator.prepare(dataset, sessions);
        // A model without a propensity head has no propensity phase; it
        // inherits that phase's sweep budget so every estimator performs
        // the same number of sweeps per epoch.
        let dual = self.head_kind() != HeadKind::None;
        let att_passes = if dual {
            self.cfg.n_a
        } else {
            (self.cfg.n_a + self.cfg.n_p).max(1)
        };
        let pro_passes = if dual { self.cfg.n_p } else { 0 };
        let est_tag = self.name.to_ascii_lowercase();
        let mut rng = Rng::seed_from_u64(self.cfg.seed ^ 0x6669_7400);
        let batches = seq_batches(
            dataset,
            sessions,
            self.cfg.session_batch,
            self.cfg.max_len,
            &mut rng,
        );
        let epochs = self.cfg.epochs;
        let mut fit = FitState {
            opt_g: Adam::new(self.cfg.lr_attention),
            opt_h: Adam::new(self.cfg.lr_propensity),
            uae: self,
            rng,
            report: FitReport::default(),
            order: (0..batches.len()).collect(),
        };
        let guard = sup.enabled();
        // One tape reused for every step of the alternating optimization;
        // cleared per step so buffers cycle through the scratch pool.
        let mut tape = Tape::new();
        sup.run(epochs, &mut fit, |fit, epoch, step| {
            let mut att = PhaseTally::default();
            let mut pro = PhaseTally::default();
            // Phase 1: attention risk minimizer (lines 3–7).
            uae_obs::emit(|| uae_obs::Event::PhaseStart {
                name: "attention".into(),
                epoch: epoch as u64,
            });
            let phase_start = std::time::Instant::now();
            for _ in 0..att_passes {
                fit.rng.shuffle(&mut fit.order);
                for &bi in &fit.order {
                    att.loss += fit.uae.attention_step(
                        &mut tape,
                        &batches[bi],
                        &mut fit.opt_g,
                        guard,
                        &mut att.clip,
                    )?;
                    att.steps += 1;
                    *step += 1;
                }
            }
            uae_obs::emit(|| uae_obs::Event::PhaseEnd {
                name: "attention".into(),
                epoch: epoch as u64,
                steps: att.steps as u64,
                mean_risk: att.loss / att.steps.max(1) as f64,
                micros: phase_start.elapsed().as_micros() as u64,
            });
            // Phase 2: propensity risk minimizer (lines 8–12) — models with
            // a propensity head only.
            if pro_passes > 0 {
                uae_obs::emit(|| uae_obs::Event::PhaseStart {
                    name: "propensity".into(),
                    epoch: epoch as u64,
                });
                let phase_start = std::time::Instant::now();
                // Only the shuffles draw from `rng`, so all passes' orders
                // are drawn up front; a rollback restores `rng` and `order`
                // from the snapshot anyway.
                let mut seq = Vec::with_capacity(pro_passes * fit.order.len());
                for _ in 0..pro_passes {
                    fit.rng.shuffle(&mut fit.order);
                    seq.extend_from_slice(&fit.order);
                }
                let result = fit.uae.propensity_phase(
                    &batches,
                    &seq,
                    &mut tape,
                    &mut fit.opt_h,
                    guard,
                    &mut pro,
                );
                *step += pro.steps as u64;
                result?;
                uae_obs::emit(|| uae_obs::Event::PhaseEnd {
                    name: "propensity".into(),
                    epoch: epoch as u64,
                    steps: pro.steps as u64,
                    mean_risk: pro.loss / pro.steps.max(1) as f64,
                    micros: phase_start.elapsed().as_micros() as u64,
                });
                uae_obs::emit(|| uae_obs::Event::Gauge {
                    name: "fit.propensity_g_wait_ms".into(),
                    value: pro.g_wait.as_secs_f64() * 1e3,
                });
            }
            let att_risk = att.loss / att.steps.max(1) as f64;
            let pro_risk = pro.loss / pro.steps.max(1) as f64;
            fit.report.attention_loss.push(att_risk);
            fit.report.propensity_loss.push(pro_risk);
            uae_obs::emit(|| uae_obs::Event::FitEpoch {
                epoch: epoch as u64,
                attention_risk: att_risk,
                propensity_risk: pro_risk,
                propensity_clip_rate: att.clip.rate(),
                attention_clip_rate: pro.clip.rate(),
            });
            // Per-estimator telemetry (`estimator.<name>.*`) — what
            // `uae summarize` renders into the estimator table.
            uae_obs::emit(|| uae_obs::Event::Gauge {
                name: format!("estimator.{est_tag}.attention_risk"),
                value: att_risk,
            });
            uae_obs::emit(|| uae_obs::Event::Gauge {
                name: format!("estimator.{est_tag}.clip_rate.attention"),
                value: att.clip.rate(),
            });
            if dual {
                uae_obs::emit(|| uae_obs::Event::Gauge {
                    name: format!("estimator.{est_tag}.propensity_risk"),
                    value: pro_risk,
                });
                uae_obs::emit(|| uae_obs::Event::Gauge {
                    name: format!("estimator.{est_tag}.clip_rate.propensity"),
                    value: pro.clip.rate(),
                });
            }
            uae_obs::emit(|| uae_obs::Event::Counter {
                name: format!("estimator.{est_tag}.epochs"),
                value: (epoch + 1) as u64,
            });
            uae_tensor::emit_backend_telemetry();
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(fit.report)
    }

    /// Predicted propensities `p̂` per event (flat order) — exposed for the
    /// theory benches and diagnostics; downstream recommendation only needs
    /// the attention side (Remark 3). A model without a propensity head
    /// leaves the uninformative 0.5 prior in every slot.
    pub fn predict_propensity(&self, dataset: &Dataset, sessions: &[usize]) -> Vec<f32> {
        self.predict_flat(dataset, sessions, |vx, b| {
            let gf = self.g.forward(vx, &self.params_g, b);
            self.h.logits(vx, &self.params_h, b, &gf.z1)
        })
    }

    /// σ of the per-step logits `forward` computes, per event in flat order
    /// (session by session, step by step), over untruncated
    /// [`infer_seq_batches`] of `cfg.session_batch` sessions. Tape-free and
    /// outside any arena generation: training-side buffers stay in the
    /// scratch pool.
    fn predict_flat(
        &self,
        dataset: &Dataset,
        sessions: &[usize],
        forward: impl Fn(&mut ValueExec, &SeqBatch) -> Vec<Matrix>,
    ) -> Vec<f32> {
        let offsets = flat_offsets(dataset, sessions);
        let mut out = vec![0.5; offsets[sessions.len()]];
        for b in infer_seq_batches(dataset, sessions, self.cfg.session_batch, None) {
            if b.steps == 0 {
                // Only zero-event sessions: no slot to fill.
                continue;
            }
            let logits = forward(&mut ValueExec::new(), &b);
            scatter_sigmoid(&logits, &b, &offsets, &mut out);
        }
        out
    }
}

/// Per-step logits of a tape-free [`Uae::infer_batch`] forward pass.
pub struct UaeInference {
    /// `attention_logits[t]`: `batch × 1` logits of `g` (σ → α̂).
    pub attention_logits: Vec<Matrix>,
    /// `propensity_logits[t]`: `batch × 1` logits of `h` (σ → p̂).
    pub propensity_logits: Vec<Matrix>,
}

/// Algorithm 1's mutable state across epochs, and what its checkpoints
/// hold: both arenas and the clip (through the model), both Adam states,
/// the RNG, the loss history and the batch-order permutation.
struct FitState<'a> {
    uae: &'a mut Uae,
    opt_g: Adam,
    opt_h: Adam,
    rng: Rng,
    report: FitReport,
    /// `Rng::shuffle` permutes in place, so replaying the shuffles
    /// bit-identically requires starting from the same permutation, not
    /// just the same RNG state.
    order: Vec<usize>,
}

impl TrainState for FitState<'_> {
    fn arenas(&self) -> Vec<&Params> {
        vec![&self.uae.params_g, &self.uae.params_h]
    }

    fn capture(&self, epoch: u64, step: u64) -> TrainSnapshot {
        let mut w = ByteWriter::new();
        for losses in [&self.report.attention_loss, &self.report.propensity_loss] {
            w.put_u32(losses.len() as u32);
            for &x in losses {
                w.put_f64(x);
            }
        }
        w.put_u32(self.order.len() as u32);
        for &i in &self.order {
            w.put_u32(i as u32);
        }
        w.put_opt(self.uae.cfg.grad_clip, ByteWriter::put_f32);
        let optimizers = [&self.opt_g, &self.opt_h];
        TrainSnapshot::capture(
            epoch,
            step,
            &self.arenas(),
            &optimizers,
            &self.rng,
            w.into_bytes(),
        )
    }

    fn restore(&mut self, snap: &TrainSnapshot) -> Result<(), UaeError> {
        snap.restore_arena(0, &mut self.uae.params_g)?;
        snap.restore_arena(1, &mut self.uae.params_h)?;
        let missing = CheckpointError::Corrupt("missing optimizer state");
        self.opt_g
            .restore(snap.optimizers.first().cloned().ok_or(missing.clone())?);
        self.opt_h
            .restore(snap.optimizers.get(1).cloned().ok_or(missing)?);
        self.rng.restore(snap.rng);
        let mut r = ByteReader::new(&snap.extra);
        for losses in [
            &mut self.report.attention_loss,
            &mut self.report.propensity_loss,
        ] {
            let n = r.get_u32()? as usize;
            *losses = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                losses.push(r.get_f64()?);
            }
        }
        let n = r.get_u32()? as usize;
        self.order = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            self.order.push(r.get_u32()? as usize);
        }
        self.uae.cfg.grad_clip = r.get_opt(ByteReader::get_f32)?;
        Ok(())
    }

    fn scale_learning_rates(&mut self, factor: f32) {
        for opt in [&mut self.opt_g, &mut self.opt_h] {
            opt.set_learning_rate(opt.learning_rate() * factor);
        }
    }

    fn clip_mut(&mut self) -> &mut Option<f32> {
        &mut self.uae.cfg.grad_clip
    }
}

/// Where each of `sessions`' events starts in flat order (session by
/// session, step by step): `sessions.len() + 1` prefix offsets, the last
/// being the total event count.
pub fn flat_offsets(dataset: &Dataset, sessions: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(sessions.len() + 1);
    let mut acc = 0usize;
    offsets.push(acc);
    for &s in sessions {
        acc += dataset.sessions[s].len();
        offsets.push(acc);
    }
    offsets
}

/// Writes σ(logits) of every valid `(t, i)` slot of `batch` into flat order
/// through the batch's origin map; `offsets` comes from [`flat_offsets`]
/// over the sessions the batch was built from.
pub fn scatter_sigmoid(logits: &[Matrix], batch: &SeqBatch, offsets: &[usize], out: &mut [f32]) {
    for (t, vals) in logits.iter().enumerate() {
        for i in 0..batch.batch {
            if batch.mask[t][i] > 0.0 {
                let (pos, step) = batch.origin[t][i];
                out[offsets[pos] + step] = sigmoid(vals.get(i, 0));
            }
        }
    }
}

impl AttentionEstimator for Uae {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Algorithm 1: per epoch, `N_a` attention passes then `N_p` propensity
    /// passes, each a full sweep over shuffled session batches. Runs without
    /// fault tolerance; see [`Uae::fit_supervised`] for the checkpointed,
    /// sentinel-guarded variant.
    fn fit(&mut self, dataset: &Dataset, sessions: &[usize]) -> FitReport {
        self.fit_supervised(dataset, sessions, &mut Supervisor::disabled())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn predict(&self, dataset: &Dataset, sessions: &[usize]) -> Vec<f32> {
        self.predict_flat(dataset, sessions, |vx, b| {
            self.g.forward(vx, &self.params_g, b).logits
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::{generate, FlatData, SimConfig};

    fn fast_cfg(seed: u64) -> UaeConfig {
        UaeConfig {
            gru_hidden: 12,
            mlp_hidden: vec![12],
            epochs: 2,
            session_batch: 32,
            max_len: 20,
            seed,
            ..Default::default()
        }
    }

    /// One-epoch config training `spec` in place of the dual risks.
    fn spec_cfg(seed: u64, estimator: EstimatorSpec) -> UaeConfig {
        UaeConfig {
            epochs: 1,
            estimator,
            ..fast_cfg(seed)
        }
    }

    fn mean(v: &[f32]) -> f64 {
        v.iter().map(|&p| p as f64).sum::<f64>() / v.len() as f64
    }

    #[test]
    fn pn_underestimates_attention_severely() {
        // PN fits Pr(e=1) ≈ 0.09, not Pr(a=1) ≈ 0.5: its mean estimate must
        // sit far below the true attention rate (the bias the paper proves).
        let ds = generate(&SimConfig::product(0.2), 31);
        let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
        let mut pn = Uae::new(&ds.schema, spec_cfg(1, EstimatorSpec::Pn));
        pn.fit(&ds, &sessions);
        let mean_pred = mean(&pn.predict(&ds, &sessions));
        let flat = FlatData::from_sessions(&ds, &sessions);
        let true_rate =
            flat.true_attention.iter().filter(|&&a| a).count() as f64 / flat.len() as f64;
        assert!(
            mean_pred < true_rate * 0.7,
            "PN mean α̂ = {mean_pred:.3}, true attention rate = {true_rate:.3}"
        );
    }

    #[test]
    fn ndb_estimates_sit_above_pn() {
        let ds = generate(&SimConfig::product(0.2), 32);
        let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
        let mut pn = Uae::new(&ds.schema, spec_cfg(2, EstimatorSpec::Pn));
        pn.fit(&ds, &sessions);
        let ndb_spec = EstimatorSpec::Ndb { window: 10 };
        let mut ndb = Uae::new(&ds.schema, spec_cfg(2, ndb_spec));
        assert_eq!(ndb.name(), "NDB");
        ndb.fit(&ds, &sessions);
        let pn_mean = mean(&pn.predict(&ds, &sessions));
        let ndb_mean = mean(&ndb.predict(&ds, &sessions));
        // NDB discards most passive "negatives", so its estimates are larger
        // than PN's (less pessimistic), though still biased.
        assert!(
            ndb_mean > pn_mean + 0.02,
            "NDB mean {ndb_mean:.3} vs PN mean {pn_mean:.3}"
        );
    }

    #[test]
    fn single_network_spec_has_no_propensity_head() {
        // A single-network risk reports its own name and trains without `h`:
        // predict_propensity is the uninformative 0.5 prior.
        let ds = generate(&SimConfig::tiny(), 33);
        let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
        let mut pn = Uae::new(&ds.schema, spec_cfg(3, EstimatorSpec::Pn));
        assert_eq!(pn.name(), "PN");
        let report = pn.fit(&ds, &sessions);
        assert_eq!(report.attention_loss.len(), 1);
        assert!(pn
            .predict_propensity(&ds, &sessions)
            .iter()
            .all(|&p| p == 0.5));
    }

    #[test]
    fn fit_reduces_attention_risk_and_predicts_in_range() {
        let ds = generate(&SimConfig::product(0.15), 77);
        let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
        let mut uae = Uae::new(&ds.schema, fast_cfg(1));
        let report = uae.fit(&ds, &sessions);
        assert_eq!(report.attention_loss.len(), 2);
        assert_eq!(report.propensity_loss.len(), 2);
        let pred = uae.predict(&ds, &sessions);
        let flat = FlatData::from_sessions(&ds, &sessions);
        assert_eq!(pred.len(), flat.len());
        assert!(pred.iter().all(|&p| (0.0..=1.0).contains(&p)));
        // Predictions must not be constant.
        let (min, max) = pred
            .iter()
            .fold((1.0f32, 0.0f32), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        assert!(max - min > 0.05, "constant predictions: [{min}, {max}]");
    }

    #[test]
    fn learned_attention_beats_chance_against_ground_truth() {
        let ds = generate(&SimConfig::product(0.25), 78);
        let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
        let mut cfg = fast_cfg(2);
        cfg.epochs = 3;
        let mut uae = Uae::new(&ds.schema, cfg);
        uae.fit(&ds, &sessions);
        let pred = uae.predict(&ds, &sessions);
        let flat = FlatData::from_sessions(&ds, &sessions);
        let auc = uae_metrics::auc(&pred, &flat.true_attention).unwrap();
        assert!(auc > 0.6, "UAE attention AUC = {auc}");
    }

    #[test]
    fn sar_variant_trains_and_predicts() {
        let ds = generate(&SimConfig::product(0.1), 79);
        let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
        let mut sar = Uae::new_sar(&ds.schema, fast_cfg(3));
        assert_eq!(sar.name(), "SAR");
        sar.fit(&ds, &sessions);
        let pred = sar.predict(&ds, &sessions);
        assert!(pred.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn propensity_predictions_reflect_sequential_dependence() {
        // After fitting, p̂ should be higher following an active action than
        // following a passive one (Fig. 2(a)'s structure).
        let ds = generate(&SimConfig::product(0.25), 80);
        let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
        let mut cfg = fast_cfg(4);
        cfg.epochs = 3;
        let mut uae = Uae::new(&ds.schema, cfg);
        uae.fit(&ds, &sessions);
        let p_hat = uae.predict_propensity(&ds, &sessions);
        let flat = FlatData::from_sessions(&ds, &sessions);
        let mut after_active = (0.0f64, 0usize);
        let mut after_passive = (0.0f64, 0usize);
        let mut idx = 0usize;
        for &s in &sessions {
            let events = &ds.sessions[s].events;
            for t in 0..events.len() {
                if t > 0 {
                    if events[t - 1].e() {
                        after_active.0 += p_hat[idx] as f64;
                        after_active.1 += 1;
                    } else {
                        after_passive.0 += p_hat[idx] as f64;
                        after_passive.1 += 1;
                    }
                }
                idx += 1;
            }
        }
        assert_eq!(idx, flat.len());
        let a = after_active.0 / after_active.1 as f64;
        let p = after_passive.0 / after_passive.1 as f64;
        assert!(a > p + 0.05, "p̂|active={a:.3} vs p̂|passive={p:.3}");
    }
}
