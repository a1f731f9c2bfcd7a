//! The `RiskEstimator` trait: one interface for every debiasing scheme.
//!
//! Every risk in §III–§IV of the paper and in the related debiasing
//! literature reduces to
//! `Σ_t Σ_i [pos_w[t][i]·ℓ⁺(z_t,i) + neg_w[t][i]·ℓ⁻(z_t,i)] / |S|`:
//! per-step positive/negative [`WeightGrid`]s over a padded session batch,
//! with masked (padded) entries carrying zero weight, summed by
//! [`masked_sequence_bce`]. This module is the single place that weight
//! math lives; [`crate::uae::Uae`]'s alternating optimization calls it.
//!
//! | Estimator | attention-phase weights | propensity phase |
//! |---|---|---|
//! | [`UaeDualRisk`] (Eq. 16/17) | `e/p̂`, `1 − e/p̂` | `e/α̂`, `1 − e/α̂` |
//! | [`PnRisk`] (Eq. 4) | `e`, `1 − e` | — |
//! | [`NdbRisk`] (Eq. 5) | `e`, `d·(1 − e)` | — |
//! | [`IdealRisk`] (Eq. 3) | `α`, `1 − α` | — |
//! | [`OraclePropensityRisk`] | `e/p`, `1 − e/p` (true `p`) | — |
//! | [`RelMfRisk`] | `e/θ̂`, `1 − e/θ̂` (plug-in `θ̂`) | — |
//! | [`BiserRisk`] | IPS ⊕ bilateral pseudo-labels | symmetric |
//! | [`AdpuRisk`] | self-normalized IPS, `neg⁺` | `e/α̂`, `1 − e/α̂` |
//!
//! Estimators whose propensity column is `—` are *single-network*: they
//! train only the attention network `g` and [`crate::uae::Uae`] gives them
//! the propensity phase's sweep budget as extra attention sweeps.

use uae_data::{Dataset, SeqBatch};
use uae_tensor::{Tape, Var};

use crate::uae::UaeConfig;

/// A `[t][i]` grid of per-step weights.
pub type WeightGrid = Vec<Vec<f32>>;

/// Assembles the masked weighted-BCE loss over a sequence batch: one fused
/// BCE per step (scalar), summed on the tape. `divisor` is typically the
/// number of valid steps (`|S|` restricted to the batch).
pub fn masked_sequence_bce(
    tape: &mut Tape,
    logits: &[Var],
    pos_w: &WeightGrid,
    neg_w: &WeightGrid,
    divisor: f32,
    clamp_nonneg: bool,
) -> Var {
    assert_eq!(logits.len(), pos_w.len());
    assert_eq!(logits.len(), neg_w.len());
    assert!(!logits.is_empty(), "empty sequence loss");
    let mut total: Option<Var> = None;
    for (t, &z) in logits.iter().enumerate() {
        let l = tape.weighted_bce(z, &pos_w[t], &neg_w[t], divisor, clamp_nonneg);
        total = Some(match total {
            Some(acc) => tape.add(acc, l),
            None => l,
        });
    }
    total.expect("at least one step")
}

/// Which half of the alternating optimization (Algorithm 1) a weight grid
/// is being produced for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Minimize the attention risk: the loss lands on `g`'s logits.
    Attention,
    /// Minimize the propensity risk: the loss lands on `h`'s logits.
    Propensity,
}

/// A NaN-guarded lower clip for the denominators of inverse-weighting
/// estimators (the variance-control technique of §V-A/§VI-A).
///
/// The naming trap this type retires: in the alternating optimization the
/// *attention* phase divides by p̂ and therefore applies the **propensity**
/// clip, while the *propensity* phase divides by α̂ and applies the
/// **attention** clip. The crossing is encoded once, in
/// [`UaeDualRisk::clip`], instead of at every call site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipPolicy {
    lower: f32,
}

impl ClipPolicy {
    /// A policy clipping estimates from below at `lower`.
    pub fn new(lower: f32) -> Self {
        assert!(
            lower > 0.0 && lower.is_finite(),
            "clip lower bound must be positive and finite, got {lower}"
        );
        ClipPolicy { lower }
    }

    /// The lower bound.
    pub fn lower(&self) -> f32 {
        self.lower
    }

    /// Clamps an estimate from below. NaN-guarded by construction:
    /// `f32::max` returns the *other* operand when one is NaN, so a NaN
    /// estimate comes back as the (finite, positive) lower bound rather
    /// than poisoning the weight grid.
    #[inline]
    pub fn clamp(&self, est: f32) -> f32 {
        est.max(self.lower)
    }

    /// [`ClipPolicy::clamp`] that also tallies how often the clip engaged
    /// (NaN estimates count as clipped — they were rewritten too).
    #[inline]
    pub fn clamp_counted(&self, est: f32, counts: &mut ClipCounts) -> f32 {
        counts.total += 1;
        if est.is_nan() || est < self.lower {
            counts.clipped += 1;
        }
        est.max(self.lower)
    }
}

/// `(clipped, total)` tally of denominator estimates that hit a
/// [`ClipPolicy`] floor — the "how hard are the inverse weights leaning on
/// the clip" diagnostic that debiased-learning ablations track.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClipCounts {
    pub clipped: u64,
    pub total: u64,
}

impl ClipCounts {
    /// Fraction of estimates that were clipped (0 when nothing was seen).
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.clipped as f64 / self.total as f64
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &ClipCounts) {
        self.clipped += other.clipped;
        self.total += other.total;
    }
}

/// Which probability grids an estimator's [`RiskEstimator::weights`] reads
/// in a given phase. The trainer only runs the forward passes that are
/// actually needed (and a single-network model has no `h` to run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseInputs {
    /// σ of `g`'s logits (the current attention estimates α̂).
    pub alpha_hat: bool,
    /// σ of `h`'s logits (the current propensity estimates p̂).
    pub p_hat: bool,
}

/// Everything a [`RiskEstimator`] may consult when producing weights for
/// one batch. Grids are present exactly when the estimator's
/// [`RiskEstimator::inputs`] asked for them.
pub struct WeightCtx<'a> {
    pub batch: &'a SeqBatch,
    /// Current α̂ estimates (`[t][i]`), if requested.
    pub alpha_hat: Option<&'a WeightGrid>,
    /// Current p̂ estimates (`[t][i]`), if requested.
    pub p_hat: Option<&'a WeightGrid>,
}

/// Weight grids for one batch plus the clip tally accrued building them.
pub struct WeightBuild {
    pub pos: WeightGrid,
    pub neg: WeightGrid,
    pub clip: ClipCounts,
}

impl WeightBuild {
    fn unclipped(pos: WeightGrid, neg: WeightGrid) -> Self {
        WeightBuild {
            pos,
            neg,
            clip: ClipCounts::default(),
        }
    }
}

/// A risk estimator: a named scheme that turns a padded session batch (and
/// optionally the two networks' current probability estimates) into the
/// positive/negative weight grids of a masked weighted-BCE risk.
///
/// Implementations must keep padded positions zero-weighted and must never
/// produce NaN weights — inverse weights go through a [`ClipPolicy`], whose
/// `clamp` is the NaN guard.
pub trait RiskEstimator: Send + Sync {
    /// Display name (also the telemetry prefix, lower-cased).
    fn name(&self) -> &'static str;

    /// Which probability grids [`RiskEstimator::weights`] will read in
    /// `phase`.
    fn inputs(&self, phase: Phase) -> PhaseInputs;

    /// The clip policy guarding `phase`'s denominators, if the estimator
    /// clips. Note the crossing for inverse-propensity schemes: the
    /// attention phase clips p̂, the propensity phase clips α̂.
    fn clip(&self, phase: Phase) -> Option<ClipPolicy> {
        let _ = phase;
        None
    }

    /// Weight grids for `phase` on `ctx.batch`. Single-network estimators
    /// only ever see [`Phase::Attention`].
    fn weights(&self, phase: Phase, ctx: &WeightCtx) -> WeightBuild;

    /// Pre-fit hook: plug-in estimators compute their statistics from the
    /// observed training split here (e.g. rel-MF's propensity table).
    fn prepare(&mut self, dataset: &Dataset, sessions: &[usize]) {
        let _ = (dataset, sessions);
    }
}

fn zero_grid(batch: &SeqBatch) -> WeightGrid {
    vec![vec![0.0; batch.batch]; batch.steps]
}

/// The one implementation of clipped inverse weighting: `pos = e/denom⁺`,
/// `neg = 1 − e/denom⁺` with `denom⁺ = clip.clamp(denom[t][i])`. Every
/// inverse-propensity estimator (UAE both phases, the oracle, ADPU's
/// propensity phase) delegates here.
pub fn clipped_inverse_weights(
    batch: &SeqBatch,
    denom: &WeightGrid,
    clip: ClipPolicy,
) -> WeightBuild {
    let mut pos = zero_grid(batch);
    let mut neg = zero_grid(batch);
    let mut counts = ClipCounts::default();
    for t in 0..batch.steps {
        for i in 0..batch.batch {
            if batch.mask[t][i] > 0.0 {
                let inv = batch.e[t][i] / clip.clamp_counted(denom[t][i], &mut counts);
                pos[t][i] = inv;
                neg[t][i] = 1.0 - inv;
            }
        }
    }
    WeightBuild {
        pos,
        neg,
        clip: counts,
    }
}

/// The paper's dual unbiased estimator (Eq. 16/17): inverse-propensity
/// weights in the attention phase, inverse-attention weights in the
/// propensity phase, both clipped.
pub struct UaeDualRisk {
    /// Clips p̂ — engaged in the *attention* phase (Eq. 16).
    p_clip: ClipPolicy,
    /// Clips α̂ — engaged in the *propensity* phase (Eq. 17).
    alpha_clip: ClipPolicy,
}

impl UaeDualRisk {
    pub fn new(p_clip: ClipPolicy, alpha_clip: ClipPolicy) -> Self {
        UaeDualRisk { p_clip, alpha_clip }
    }
}

impl RiskEstimator for UaeDualRisk {
    fn name(&self) -> &'static str {
        "UAE"
    }

    fn inputs(&self, phase: Phase) -> PhaseInputs {
        match phase {
            Phase::Attention => PhaseInputs {
                p_hat: true,
                ..Default::default()
            },
            Phase::Propensity => PhaseInputs {
                alpha_hat: true,
                ..Default::default()
            },
        }
    }

    fn clip(&self, phase: Phase) -> Option<ClipPolicy> {
        // The crossing, stated once: dividing by p̂ means clipping p̂, and
        // the attention phase is the one that divides by p̂.
        Some(match phase {
            Phase::Attention => self.p_clip,
            Phase::Propensity => self.alpha_clip,
        })
    }

    fn weights(&self, phase: Phase, ctx: &WeightCtx) -> WeightBuild {
        match phase {
            Phase::Attention => {
                let p_hat = ctx.p_hat.expect("UAE attention weights need p̂");
                clipped_inverse_weights(ctx.batch, p_hat, self.p_clip)
            }
            Phase::Propensity => {
                let alpha_hat = ctx.alpha_hat.expect("UAE propensity weights need α̂");
                clipped_inverse_weights(ctx.batch, alpha_hat, self.alpha_clip)
            }
        }
    }
}

/// PN (ordinary supervised learning, Eq. 4): all passives are negatives.
pub struct PnRisk;

impl RiskEstimator for PnRisk {
    fn name(&self) -> &'static str {
        "PN"
    }

    fn inputs(&self, _phase: Phase) -> PhaseInputs {
        PhaseInputs::default()
    }

    fn weights(&self, _phase: Phase, ctx: &WeightCtx) -> WeightBuild {
        let batch = ctx.batch;
        let mut pos = zero_grid(batch);
        let mut neg = zero_grid(batch);
        for t in 0..batch.steps {
            for i in 0..batch.batch {
                if batch.mask[t][i] > 0.0 {
                    pos[t][i] = batch.e[t][i];
                    neg[t][i] = 1.0 - batch.e[t][i];
                }
            }
        }
        WeightBuild::unclipped(pos, neg)
    }
}

/// NDB (Eq. 5): a passive step is a negative only when the previous
/// `window` steps were all passive; other passive steps are dropped.
pub struct NdbRisk {
    pub window: usize,
}

impl RiskEstimator for NdbRisk {
    fn name(&self) -> &'static str {
        "NDB"
    }

    fn inputs(&self, _phase: Phase) -> PhaseInputs {
        PhaseInputs::default()
    }

    fn weights(&self, _phase: Phase, ctx: &WeightCtx) -> WeightBuild {
        let batch = ctx.batch;
        let mut pos = zero_grid(batch);
        let mut neg = zero_grid(batch);
        for i in 0..batch.batch {
            let mut run_passive = 0usize; // consecutive passives ending at t-1
            for t in 0..batch.steps {
                if batch.mask[t][i] == 0.0 {
                    continue;
                }
                let e = batch.e[t][i];
                if e > 0.0 {
                    pos[t][i] = 1.0;
                } else if run_passive >= self.window {
                    neg[t][i] = 1.0;
                }
                run_passive = if e > 0.0 { 0 } else { run_passive + 1 };
            }
        }
        WeightBuild::unclipped(pos, neg)
    }
}

/// The infeasible ideal risk (Eq. 3) using the simulator's true α — used to
/// validate Theorem 1 and as an oracle ablation.
pub struct IdealRisk;

impl RiskEstimator for IdealRisk {
    fn name(&self) -> &'static str {
        "Ideal"
    }

    fn inputs(&self, _phase: Phase) -> PhaseInputs {
        PhaseInputs::default()
    }

    fn weights(&self, _phase: Phase, ctx: &WeightCtx) -> WeightBuild {
        let batch = ctx.batch;
        let mut pos = zero_grid(batch);
        let mut neg = zero_grid(batch);
        for t in 0..batch.steps {
            for i in 0..batch.batch {
                if batch.mask[t][i] > 0.0 {
                    pos[t][i] = batch.true_alpha[t][i];
                    neg[t][i] = 1.0 - batch.true_alpha[t][i];
                }
            }
        }
        WeightBuild::unclipped(pos, neg)
    }
}

/// Oracle variant of the attention risk using the *true* propensities — for
/// ablations separating estimator error from weighting-scheme error.
pub struct OraclePropensityRisk {
    clip: ClipPolicy,
}

impl OraclePropensityRisk {
    pub fn new(clip: ClipPolicy) -> Self {
        OraclePropensityRisk { clip }
    }
}

impl RiskEstimator for OraclePropensityRisk {
    fn name(&self) -> &'static str {
        "Oracle-P"
    }

    fn inputs(&self, _phase: Phase) -> PhaseInputs {
        PhaseInputs::default()
    }

    fn clip(&self, _phase: Phase) -> Option<ClipPolicy> {
        Some(self.clip)
    }

    fn weights(&self, _phase: Phase, ctx: &WeightCtx) -> WeightBuild {
        clipped_inverse_weights(ctx.batch, &ctx.batch.true_propensity, self.clip)
    }
}

/// Rank buckets of the rel-MF plug-in propensity table; sessions longer
/// than this share the last bucket.
const RELMF_RANK_BUCKETS: usize = 20;

/// Rel-MF (Saito et al., "Unbiased Recommender Learning from
/// Missing-Not-At-Random Implicit Feedback", arXiv:1909.03601), adapted to
/// sessions: inverse-propensity weighting with a *plug-in* propensity
/// `θ̂ = (rate(cell)/max_cell_rate)^η` estimated per
/// `(previous feedback active?, play-rank bucket)` cell from the observed
/// training split — no propensity network, no alternating phase. η < 1
/// flattens the table exactly like rel-MF's popularity exponent.
pub struct RelMfRisk {
    pub eta: f32,
    clip: ClipPolicy,
    /// `theta[prev_active as usize][rank_bucket]`; `None` before
    /// [`RiskEstimator::prepare`] (all-ones ⇒ degenerates to PN).
    theta: Option<[[f32; RELMF_RANK_BUCKETS]; 2]>,
}

impl RelMfRisk {
    pub fn new(eta: f32, clip: ClipPolicy) -> Self {
        assert!(eta > 0.0 && eta.is_finite(), "rel-MF eta must be positive");
        RelMfRisk {
            eta,
            clip,
            theta: None,
        }
    }

    fn theta_at(&self, prev_active: bool, rank: usize) -> f32 {
        match &self.theta {
            Some(t) => t[prev_active as usize][rank.min(RELMF_RANK_BUCKETS - 1)],
            None => 1.0,
        }
    }
}

impl RiskEstimator for RelMfRisk {
    fn name(&self) -> &'static str {
        "Rel-MF"
    }

    fn inputs(&self, _phase: Phase) -> PhaseInputs {
        PhaseInputs::default()
    }

    fn clip(&self, _phase: Phase) -> Option<ClipPolicy> {
        Some(self.clip)
    }

    fn prepare(&mut self, dataset: &Dataset, sessions: &[usize]) {
        let mut act = [[0u64; RELMF_RANK_BUCKETS]; 2];
        let mut tot = [[0u64; RELMF_RANK_BUCKETS]; 2];
        for &s in sessions {
            let events = &dataset.sessions[s].events;
            for (t, ev) in events.iter().enumerate() {
                let prev = t > 0 && events[t - 1].e();
                let bucket = t.min(RELMF_RANK_BUCKETS - 1);
                tot[prev as usize][bucket] += 1;
                if ev.e() {
                    act[prev as usize][bucket] += 1;
                }
            }
        }
        // Laplace-smoothed cell rates, normalized by the largest observed
        // rate so θ̂ ∈ (0, 1]; empty cells carry θ̂ = 1 (no reweighting).
        let rate = |p: usize, b: usize| (act[p][b] + 1) as f32 / (tot[p][b] + 2) as f32;
        let mut max_rate = 0.0f32;
        for (p, row) in tot.iter().enumerate() {
            for (b, &n) in row.iter().enumerate() {
                if n > 0 {
                    max_rate = max_rate.max(rate(p, b));
                }
            }
        }
        let mut theta = [[1.0f32; RELMF_RANK_BUCKETS]; 2];
        if max_rate > 0.0 {
            for p in 0..2 {
                for b in 0..RELMF_RANK_BUCKETS {
                    if tot[p][b] > 0 {
                        theta[p][b] = (rate(p, b) / max_rate).powf(self.eta);
                    }
                }
            }
        }
        self.theta = Some(theta);
    }

    fn weights(&self, _phase: Phase, ctx: &WeightCtx) -> WeightBuild {
        let batch = ctx.batch;
        let mut pos = zero_grid(batch);
        let mut neg = zero_grid(batch);
        let mut counts = ClipCounts::default();
        for t in 0..batch.steps {
            for i in 0..batch.batch {
                if batch.mask[t][i] > 0.0 {
                    let prev = batch.prev_e[t][i] > 0.5;
                    let (_, step) = batch.origin[t][i];
                    let theta = self.theta_at(prev, step);
                    let inv = batch.e[t][i] / self.clip.clamp_counted(theta, &mut counts);
                    pos[t][i] = inv;
                    neg[t][i] = 1.0 - inv;
                }
            }
        }
        WeightBuild {
            pos,
            neg,
            clip: counts,
        }
    }
}

/// BISER (Lee et al., "Bilateral Self-unbiased Learning from Biased
/// Implicit Feedback", arXiv:2207.12660), adapted to the attention ⊗
/// propensity factorization `E[e] = α·p`: each phase blends the clipped IPS
/// weights of Eq. 16/17 with *bilateral pseudo-labels* — the posterior of
/// one latent given the observation and the other network's estimate.
/// For the attention phase, `P(attending | e=0) = α̂(1−p̂)/(1−α̂p̂)` (an
/// active step is surely attended); the propensity phase is symmetric. The
/// two networks debias each other's targets, damping IPS variance.
pub struct BiserRisk {
    /// Blend weight of the pseudo-label term (`0` ⇒ pure UAE-style IPS).
    pub lambda: f32,
    p_clip: ClipPolicy,
    alpha_clip: ClipPolicy,
}

impl BiserRisk {
    pub fn new(lambda: f32, p_clip: ClipPolicy, alpha_clip: ClipPolicy) -> Self {
        assert!(
            (0.0..=1.0).contains(&lambda),
            "BISER lambda must be in [0, 1]"
        );
        BiserRisk {
            lambda,
            p_clip,
            alpha_clip,
        }
    }
}

impl RiskEstimator for BiserRisk {
    fn name(&self) -> &'static str {
        "BISER"
    }

    fn inputs(&self, _phase: Phase) -> PhaseInputs {
        // The pseudo-label posterior needs both networks in both phases.
        PhaseInputs {
            alpha_hat: true,
            p_hat: true,
        }
    }

    fn clip(&self, phase: Phase) -> Option<ClipPolicy> {
        Some(match phase {
            Phase::Attention => self.p_clip,
            Phase::Propensity => self.alpha_clip,
        })
    }

    fn weights(&self, phase: Phase, ctx: &WeightCtx) -> WeightBuild {
        let batch = ctx.batch;
        let alpha = ctx.alpha_hat.expect("BISER weights need α̂");
        let p = ctx.p_hat.expect("BISER weights need p̂");
        let mut pos = zero_grid(batch);
        let mut neg = zero_grid(batch);
        let mut counts = ClipCounts::default();
        let lam = self.lambda;
        for t in 0..batch.steps {
            for i in 0..batch.batch {
                if batch.mask[t][i] == 0.0 {
                    continue;
                }
                let e = batch.e[t][i];
                let al = alpha[t][i];
                let pr = p[t][i];
                // Joint "no action" mass; floored so the posterior stays
                // finite even when both estimates saturate at 1.
                let denom = (1.0 - al * pr).max(self.p_clip.lower());
                let (inv, post) = match phase {
                    Phase::Attention => {
                        let inv = e / self.p_clip.clamp_counted(pr, &mut counts);
                        let post = if e > 0.0 {
                            1.0
                        } else {
                            (al * (1.0 - pr) / denom).clamp(0.0, 1.0)
                        };
                        (inv, post)
                    }
                    Phase::Propensity => {
                        let inv = e / self.alpha_clip.clamp_counted(al, &mut counts);
                        let post = if e > 0.0 {
                            1.0
                        } else {
                            (pr * (1.0 - al) / denom).clamp(0.0, 1.0)
                        };
                        (inv, post)
                    }
                };
                pos[t][i] = (1.0 - lam) * inv + lam * post;
                neg[t][i] = (1.0 - lam) * (1.0 - inv) + lam * (1.0 - post);
            }
        }
        WeightBuild {
            pos,
            neg,
            clip: counts,
        }
    }
}

/// Automatic-debiased PU + exposure learning (after Kato et al.,
/// "Automatic Debiased Learning from Positive, Unlabeled, and Exposure
/// Data", arXiv:2303.04797): the attention phase uses *self-normalized*
/// inverse-exposure weights — positives carry `(e/p̂) / Z` with `Z` the
/// batch-mean inverse weight among positives, so their average weight is
/// exactly 1 regardless of how miscalibrated p̂ is — plus a non-negative
/// correction (`neg` floored at 0, the nnPU device) that stops the
/// debiasing term from over-subtracting. The propensity head trains with
/// the standard Eq. 17 phase so the exposure model keeps improving.
pub struct AdpuRisk {
    p_clip: ClipPolicy,
    alpha_clip: ClipPolicy,
}

impl AdpuRisk {
    pub fn new(p_clip: ClipPolicy, alpha_clip: ClipPolicy) -> Self {
        AdpuRisk { p_clip, alpha_clip }
    }
}

impl RiskEstimator for AdpuRisk {
    fn name(&self) -> &'static str {
        "ADPU"
    }

    fn inputs(&self, phase: Phase) -> PhaseInputs {
        match phase {
            Phase::Attention => PhaseInputs {
                p_hat: true,
                ..Default::default()
            },
            Phase::Propensity => PhaseInputs {
                alpha_hat: true,
                ..Default::default()
            },
        }
    }

    fn clip(&self, phase: Phase) -> Option<ClipPolicy> {
        Some(match phase {
            Phase::Attention => self.p_clip,
            Phase::Propensity => self.alpha_clip,
        })
    }

    fn weights(&self, phase: Phase, ctx: &WeightCtx) -> WeightBuild {
        let batch = ctx.batch;
        match phase {
            Phase::Attention => {
                let p_hat = ctx.p_hat.expect("ADPU attention weights need p̂");
                let mut raw = clipped_inverse_weights(batch, p_hat, self.p_clip);
                // Self-normalization: scale so positives average weight 1.
                let mut sum = 0.0f64;
                let mut n_pos = 0u64;
                for t in 0..batch.steps {
                    for i in 0..batch.batch {
                        if batch.mask[t][i] > 0.0 && batch.e[t][i] > 0.0 {
                            sum += raw.pos[t][i] as f64;
                            n_pos += 1;
                        }
                    }
                }
                let z = if n_pos > 0 {
                    (sum / n_pos as f64) as f32
                } else {
                    1.0
                };
                for t in 0..batch.steps {
                    for i in 0..batch.batch {
                        if batch.mask[t][i] > 0.0 {
                            let w = raw.pos[t][i] / z;
                            raw.pos[t][i] = w;
                            // Non-negative correction at the weight level.
                            raw.neg[t][i] = (1.0 - w).max(0.0);
                        }
                    }
                }
                raw
            }
            Phase::Propensity => {
                let alpha_hat = ctx.alpha_hat.expect("ADPU propensity weights need α̂");
                clipped_inverse_weights(batch, alpha_hat, self.alpha_clip)
            }
        }
    }
}

/// Which [`RiskEstimator`] a [`UaeConfig`] builds — the CLI-selectable
/// catalogue (`uae fit --estimator <name>`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EstimatorSpec {
    /// The paper's dual unbiased estimator (default).
    #[default]
    UaeDual,
    /// Naive supervised learning (Eq. 4).
    Pn,
    /// Negative-downsampling-by-window heuristic (Eq. 5).
    Ndb { window: usize },
    /// Oracle: weights from the simulator's true α (Eq. 3).
    Ideal,
    /// Oracle: inverse weighting with the true propensities.
    OraclePropensity,
    /// Rel-MF plug-in inverse-propensity weighting.
    RelMf { eta: f32 },
    /// BISER bilateral self-unbiased blending.
    Biser { lambda: f32 },
    /// Automatic-debiased PU + exposure (self-normalized IPS).
    Adpu,
}

impl EstimatorSpec {
    /// NDB's paper default: 10 consecutive passive songs.
    pub const DEFAULT_NDB_WINDOW: usize = 10;
    /// Rel-MF's default propensity exponent.
    pub const DEFAULT_RELMF_ETA: f32 = 0.5;
    /// BISER's default pseudo-label blend.
    pub const DEFAULT_BISER_LAMBDA: f32 = 0.5;

    /// Parses a CLI/config name (case-insensitive; display names accepted).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "uae" => Some(EstimatorSpec::UaeDual),
            "pn" => Some(EstimatorSpec::Pn),
            "ndb" => Some(EstimatorSpec::Ndb {
                window: Self::DEFAULT_NDB_WINDOW,
            }),
            "ideal" => Some(EstimatorSpec::Ideal),
            "oracle" | "oracle-p" | "oracle-propensity" => Some(EstimatorSpec::OraclePropensity),
            "rel-mf" | "relmf" => Some(EstimatorSpec::RelMf {
                eta: Self::DEFAULT_RELMF_ETA,
            }),
            "biser" => Some(EstimatorSpec::Biser {
                lambda: Self::DEFAULT_BISER_LAMBDA,
            }),
            "adpu" | "auto-debiased-pu" => Some(EstimatorSpec::Adpu),
            _ => None,
        }
    }

    /// The canonical CLI name (`EstimatorSpec::parse` round-trips it).
    pub fn cli_name(&self) -> &'static str {
        match self {
            EstimatorSpec::UaeDual => "uae",
            EstimatorSpec::Pn => "pn",
            EstimatorSpec::Ndb { .. } => "ndb",
            EstimatorSpec::Ideal => "ideal",
            EstimatorSpec::OraclePropensity => "oracle",
            EstimatorSpec::RelMf { .. } => "rel-mf",
            EstimatorSpec::Biser { .. } => "biser",
            EstimatorSpec::Adpu => "adpu",
        }
    }

    /// Every spec at its default hyper-parameters, in catalogue order.
    pub fn all() -> Vec<EstimatorSpec> {
        vec![
            EstimatorSpec::UaeDual,
            EstimatorSpec::Pn,
            EstimatorSpec::Ndb {
                window: Self::DEFAULT_NDB_WINDOW,
            },
            EstimatorSpec::Ideal,
            EstimatorSpec::OraclePropensity,
            EstimatorSpec::RelMf {
                eta: Self::DEFAULT_RELMF_ETA,
            },
            EstimatorSpec::Biser {
                lambda: Self::DEFAULT_BISER_LAMBDA,
            },
            EstimatorSpec::Adpu,
        ]
    }

    /// Whether the estimator trains a propensity head `h` in an alternating
    /// propensity phase (the one place this is decided: [`crate::Uae::new`]
    /// builds the sequential head exactly when it holds).
    pub fn dual(&self) -> bool {
        matches!(
            self,
            EstimatorSpec::UaeDual | EstimatorSpec::Biser { .. } | EstimatorSpec::Adpu
        )
    }

    /// Builds the estimator, drawing clip bounds from `cfg`
    /// (`propensity_clip` guards p̂ denominators, `attention_clip` guards
    /// α̂ denominators — see [`ClipPolicy`] for why they cross phases).
    pub fn build(&self, cfg: &UaeConfig) -> Box<dyn RiskEstimator> {
        let p_clip = ClipPolicy::new(cfg.propensity_clip);
        let alpha_clip = ClipPolicy::new(cfg.attention_clip);
        match *self {
            EstimatorSpec::UaeDual => Box::new(UaeDualRisk::new(p_clip, alpha_clip)),
            EstimatorSpec::Pn => Box::new(PnRisk),
            EstimatorSpec::Ndb { window } => Box::new(NdbRisk { window }),
            EstimatorSpec::Ideal => Box::new(IdealRisk),
            EstimatorSpec::OraclePropensity => Box::new(OraclePropensityRisk::new(p_clip)),
            EstimatorSpec::RelMf { eta } => Box::new(RelMfRisk::new(eta, p_clip)),
            EstimatorSpec::Biser { lambda } => Box::new(BiserRisk::new(lambda, p_clip, alpha_clip)),
            EstimatorSpec::Adpu => Box::new(AdpuRisk::new(p_clip, alpha_clip)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::{generate, seq_batches, SimConfig};
    use uae_tensor::Rng;

    fn dataset() -> Dataset {
        generate(&SimConfig::tiny(), 9)
    }

    fn batch(ds: &Dataset) -> SeqBatch {
        let sessions: Vec<usize> = (0..6).collect();
        let mut rng = Rng::seed_from_u64(1);
        seq_batches(ds, &sessions, 6, 15, &mut rng).remove(0)
    }

    fn bare(b: &SeqBatch) -> WeightCtx<'_> {
        WeightCtx {
            batch: b,
            alpha_hat: None,
            p_hat: None,
        }
    }

    #[test]
    fn pn_risk_partitions_valid_steps() {
        let b = batch(&dataset());
        let wb = PnRisk.weights(Phase::Attention, &bare(&b));
        for t in 0..b.steps {
            for i in 0..b.batch {
                if b.mask[t][i] > 0.0 {
                    assert_eq!(wb.pos[t][i] + wb.neg[t][i], 1.0);
                    assert_eq!(wb.pos[t][i], b.e[t][i]);
                } else {
                    assert_eq!(wb.pos[t][i] + wb.neg[t][i], 0.0);
                }
            }
        }
    }

    #[test]
    fn ndb_risk_negatives_require_long_passive_runs() {
        let b = batch(&dataset());
        let wb = NdbRisk { window: 10 }.weights(Phase::Attention, &bare(&b));
        for i in 0..b.batch {
            let mut run = 0usize;
            for t in 0..b.steps {
                if b.mask[t][i] == 0.0 {
                    continue;
                }
                if b.e[t][i] > 0.0 {
                    assert_eq!((wb.pos[t][i], wb.neg[t][i]), (1.0, 0.0));
                    run = 0;
                } else {
                    assert_eq!(wb.pos[t][i], 0.0);
                    let neg = if run >= 10 { 1.0 } else { 0.0 };
                    assert_eq!(wb.neg[t][i], neg, "t={t} i={i}");
                    run += 1;
                }
            }
        }
        // With window 0 NDB degenerates to PN.
        let ndb0 = NdbRisk { window: 0 }.weights(Phase::Attention, &bare(&b));
        let pn = PnRisk.weights(Phase::Attention, &bare(&b));
        assert_eq!(ndb0.pos, pn.pos);
        assert_eq!(ndb0.neg, pn.neg);
    }

    #[test]
    fn ideal_risk_uses_true_alpha() {
        let b = batch(&dataset());
        let wb = IdealRisk.weights(Phase::Attention, &bare(&b));
        for t in 0..b.steps {
            for i in 0..b.batch {
                if b.mask[t][i] > 0.0 {
                    assert_eq!(wb.pos[t][i], b.true_alpha[t][i]);
                    assert!((wb.pos[t][i] + wb.neg[t][i] - 1.0).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn clipping_bounds_inverse_weights() {
        let b = batch(&dataset());
        let p_hat: WeightGrid = vec![vec![1e-6; b.batch]; b.steps];
        let est = UaeDualRisk::new(ClipPolicy::new(0.1), ClipPolicy::new(0.1));
        let ctx = WeightCtx {
            p_hat: Some(&p_hat),
            ..bare(&b)
        };
        let wb = est.weights(Phase::Attention, &ctx);
        assert!(wb.pos.iter().flatten().all(|&w| w <= 10.0 + 1e-5));
        assert!(wb.clip.clipped > 0);
    }

    #[test]
    fn masked_sequence_bce_ignores_padding() {
        // A batch with weights only on valid steps must be insensitive to the
        // logit values at padded slots.
        let b = batch(&dataset());
        let wb = PnRisk.weights(Phase::Attention, &bare(&b));
        let build = |pad_value: f32| {
            let mut tape = Tape::new();
            let logits: Vec<Var> = (0..b.steps)
                .map(|t| {
                    let vals: Vec<f32> = (0..b.batch)
                        .map(|i| if b.mask[t][i] > 0.0 { 0.3 } else { pad_value })
                        .collect();
                    tape.input(uae_tensor::Matrix::col_vector(&vals))
                })
                .collect();
            let divisor = b.valid_steps() as f32;
            let loss = masked_sequence_bce(&mut tape, &logits, &wb.pos, &wb.neg, divisor, false);
            tape.value(loss).item()
        };
        assert!((build(0.0) - build(100.0)).abs() < 1e-6);
    }

    #[test]
    fn clip_policy_is_nan_guarded() {
        let clip = ClipPolicy::new(0.1);
        assert_eq!(clip.clamp(0.5), 0.5);
        assert_eq!(clip.clamp(0.01), 0.1);
        assert_eq!(clip.clamp(f32::NAN), 0.1);
        assert_eq!(clip.clamp(f32::NEG_INFINITY), 0.1);
        let mut counts = ClipCounts::default();
        assert_eq!(clip.clamp_counted(f32::NAN, &mut counts), 0.1);
        assert_eq!(clip.clamp_counted(0.05, &mut counts), 0.1);
        assert_eq!(clip.clamp_counted(0.9, &mut counts), 0.9);
        assert_eq!((counts.clipped, counts.total), (2, 3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn clip_policy_rejects_nonpositive_bounds() {
        ClipPolicy::new(0.0);
    }

    /// The historical naming trap, pinned: the *attention* phase applies
    /// the clip configured as `propensity_clip` (it divides by p̂), and the
    /// *propensity* phase applies `attention_clip` (it divides by α̂).
    #[test]
    fn uae_clip_policies_cross_phases() {
        let cfg = UaeConfig {
            propensity_clip: 0.25,
            attention_clip: 0.0625,
            ..Default::default()
        };
        let est = EstimatorSpec::UaeDual.build(&cfg);
        assert_eq!(est.clip(Phase::Attention).unwrap().lower(), 0.25);
        assert_eq!(est.clip(Phase::Propensity).unwrap().lower(), 0.0625);
    }

    #[test]
    fn uae_dual_matches_the_closed_forms() {
        let ds = dataset();
        let b = batch(&ds);
        let p_hat: WeightGrid = vec![vec![0.25; b.batch]; b.steps];
        let est = UaeDualRisk::new(ClipPolicy::new(0.05), ClipPolicy::new(0.05));
        let ctx = WeightCtx {
            batch: &b,
            alpha_hat: None,
            p_hat: Some(&p_hat),
        };
        let wb = est.weights(Phase::Attention, &ctx);
        for t in 0..b.steps {
            for i in 0..b.batch {
                if b.mask[t][i] == 0.0 {
                    assert_eq!((wb.pos[t][i], wb.neg[t][i]), (0.0, 0.0));
                } else if b.e[t][i] > 0.0 {
                    assert_eq!(wb.pos[t][i], 4.0);
                    assert_eq!(wb.neg[t][i], -3.0);
                } else {
                    assert_eq!((wb.pos[t][i], wb.neg[t][i]), (0.0, 1.0));
                }
            }
        }
        assert_eq!(wb.clip.clipped, 0);
        assert!(wb.clip.total > 0);
    }

    #[test]
    fn relmf_prepare_builds_a_monotone_table() {
        let ds = dataset();
        let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
        let mut est = RelMfRisk::new(0.5, ClipPolicy::new(0.01));
        est.prepare(&ds, &sessions);
        // Fig. 2(a): acting is far likelier right after an active action, so
        // the after-active cells must carry larger plug-in propensities.
        let after_active = est.theta_at(true, 3);
        let after_passive = est.theta_at(false, 3);
        assert!(
            after_active > after_passive,
            "θ̂|active={after_active} θ̂|passive={after_passive}"
        );
        for prev in [false, true] {
            for r in 0..RELMF_RANK_BUCKETS {
                let th = est.theta_at(prev, r);
                assert!(th > 0.0 && th <= 1.0, "θ̂[{prev}][{r}]={th}");
            }
        }
    }

    #[test]
    fn biser_blends_toward_posterior_labels() {
        let ds = dataset();
        let b = batch(&ds);
        let alpha: WeightGrid = vec![vec![0.5; b.batch]; b.steps];
        let p: WeightGrid = vec![vec![0.5; b.batch]; b.steps];
        let ctx = WeightCtx {
            batch: &b,
            alpha_hat: Some(&alpha),
            p_hat: Some(&p),
        };
        // λ = 1: pure pseudo-labels. A passive step's positive weight is the
        // posterior α(1−p)/(1−αp) = 0.25/0.75 = 1/3; an active step's is 1.
        let pure = BiserRisk::new(1.0, ClipPolicy::new(0.1), ClipPolicy::new(0.1));
        let wb = pure.weights(Phase::Attention, &ctx);
        for t in 0..b.steps {
            for i in 0..b.batch {
                if b.mask[t][i] > 0.0 {
                    let expect = if b.e[t][i] > 0.0 { 1.0 } else { 1.0 / 3.0 };
                    assert!((wb.pos[t][i] - expect).abs() < 1e-6);
                    assert!((wb.pos[t][i] + wb.neg[t][i] - 1.0).abs() < 1e-6);
                }
            }
        }
        // λ = 0 degenerates to the UAE IPS weights.
        let ips = BiserRisk::new(0.0, ClipPolicy::new(0.1), ClipPolicy::new(0.1));
        let wb0 = ips.weights(Phase::Attention, &ctx);
        let uae = UaeDualRisk::new(ClipPolicy::new(0.1), ClipPolicy::new(0.1));
        let ref_wb = uae.weights(Phase::Attention, &ctx);
        assert_eq!(wb0.pos, ref_wb.pos);
        assert_eq!(wb0.neg, ref_wb.neg);
    }

    #[test]
    fn adpu_positives_average_to_one() {
        let ds = dataset();
        let b = batch(&ds);
        // A wildly miscalibrated p̂: raw inverse weights would average 10.
        let p: WeightGrid = vec![vec![0.1; b.batch]; b.steps];
        let est = AdpuRisk::new(ClipPolicy::new(0.01), ClipPolicy::new(0.01));
        let ctx = WeightCtx {
            batch: &b,
            alpha_hat: None,
            p_hat: Some(&p),
        };
        let wb = est.weights(Phase::Attention, &ctx);
        let mut sum = 0.0f64;
        let mut n = 0u64;
        for t in 0..b.steps {
            for i in 0..b.batch {
                if b.mask[t][i] > 0.0 {
                    assert!(wb.neg[t][i] >= 0.0, "nnPU floor violated");
                    if b.e[t][i] > 0.0 {
                        sum += wb.pos[t][i] as f64;
                        n += 1;
                    }
                }
            }
        }
        assert!(n > 0);
        assert!(
            (sum / n as f64 - 1.0).abs() < 1e-5,
            "mean={}",
            sum / n as f64
        );
    }

    #[test]
    fn spec_parse_round_trips_canonical_names() {
        for spec in EstimatorSpec::all() {
            let parsed = EstimatorSpec::parse(spec.cli_name()).unwrap();
            assert_eq!(parsed.cli_name(), spec.cli_name());
            assert_eq!(parsed.dual(), spec.dual());
        }
        assert!(EstimatorSpec::parse("UAE").is_some());
        assert!(EstimatorSpec::parse("no-such-estimator").is_none());
    }
}
