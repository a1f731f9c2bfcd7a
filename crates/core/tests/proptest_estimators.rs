//! Property-based tests of every [`RiskEstimator`]'s weight grids: for
//! arbitrary probability-grid inputs and clip settings, the grids an
//! estimator hands the trainer must be structurally safe — finite, with
//! non-negative positive weights bounded by the clip policy, zero weight on
//! padded slots — and exactly reproducible across thread counts.

#![cfg(feature = "proptest")]

use proptest::prelude::*;
use uae_core::WeightGrid;
use uae_core::{EstimatorSpec, Phase, UaeConfig, WeightCtx};
use uae_data::{generate, seq_batches, SeqBatch, SimConfig};
use uae_tensor::Rng;

fn fixed_batch() -> (uae_data::Dataset, SeqBatch) {
    let ds = generate(&SimConfig::tiny(), 13);
    let sessions: Vec<usize> = (0..8).collect();
    let mut rng = Rng::seed_from_u64(3);
    let batch = seq_batches(&ds, &sessions, 8, 15, &mut rng).remove(0);
    (ds, batch)
}

/// Builds each spec's estimator with the given clips and returns the
/// per-phase weight grids it produces for `batch` under `alpha`/`p`.
fn grids_for(
    spec: EstimatorSpec,
    clip: f32,
    ds: &uae_data::Dataset,
    batch: &SeqBatch,
    alpha: &WeightGrid,
    p: &WeightGrid,
) -> Vec<(Phase, WeightGrid, WeightGrid, Option<f32>)> {
    let cfg = UaeConfig {
        estimator: spec,
        propensity_clip: clip,
        attention_clip: clip,
        ..Default::default()
    };
    let mut est = spec.build(&cfg);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    est.prepare(ds, &sessions);
    let mut out = Vec::new();
    let phases: &[Phase] = if spec.dual() {
        &[Phase::Attention, Phase::Propensity]
    } else {
        &[Phase::Attention]
    };
    for &phase in phases {
        let need = est.inputs(phase);
        let ctx = WeightCtx {
            batch,
            alpha_hat: need.alpha_hat.then_some(alpha),
            p_hat: need.p_hat.then_some(p),
        };
        let bound = est.clip(phase).map(|c| 1.0 / c.lower());
        let build = est.weights(phase, &ctx);
        out.push((phase, build.pos, build.neg, bound));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Structural safety of every estimator's grids, for arbitrary
    /// probability inputs and clip floors.
    #[test]
    fn weight_grids_are_safe_for_every_estimator(
        seeds in (any::<u64>(), any::<u64>()),
        clip in 0.01f32..0.5,
    ) {
        let (ds, batch) = fixed_batch();
        // Two independent arbitrary grids derived from the seeds (proptest
        // can't easily generate shape-dependent grids before the batch
        // exists, so generate them here from proptest-supplied seeds).
        let mut rng = Rng::seed_from_u64(seeds.0 ^ seeds.1);
        let mut rand_grid = || -> WeightGrid {
            (0..batch.steps)
                .map(|_| (0..batch.batch).map(|_| rng.uniform_f32().clamp(1e-6, 1.0)).collect())
                .collect()
        };
        let alpha = rand_grid();
        let p = rand_grid();
        for spec in EstimatorSpec::all() {
            for (phase, pos, neg, bound) in grids_for(spec, clip, &ds, &batch, &alpha, &p) {
                prop_assert_eq!(pos.len(), batch.steps);
                prop_assert_eq!(neg.len(), batch.steps);
                // ADPU self-normalizes positives by a data-dependent factor;
                // its per-slot bound is looser than 1/clip but still finite
                // and non-negative, so exempt it from the tight bound only.
                let tight = !matches!(spec, EstimatorSpec::Adpu) ;
                for t in 0..batch.steps {
                    for i in 0..batch.batch {
                        let (pw, nw) = (pos[t][i], neg[t][i]);
                        prop_assert!(pw.is_finite() && nw.is_finite(),
                            "{spec:?} {phase:?} non-finite at [{t}][{i}]: {pw} {nw}");
                        prop_assert!(pw >= 0.0,
                            "{spec:?} {phase:?} negative pos weight {pw}");
                        if batch.mask[t][i] == 0.0 {
                            prop_assert!(pw == 0.0 && nw == 0.0,
                                "{spec:?} {phase:?} leaks weight onto padding");
                        } else if tight {
                            // Inverse weights are bounded by the clip floor;
                            // estimators without a clip emit probabilities.
                            let cap = bound.unwrap_or(1.0) + 1e-4;
                            prop_assert!(pw <= cap,
                                "{spec:?} {phase:?} pos {pw} > cap {cap}");
                            prop_assert!(nw.abs() <= cap,
                                "{spec:?} {phase:?} |neg| {nw} > cap {cap}");
                        }
                    }
                }
            }
        }
    }

    /// Weight math is pure scalar code: the grids must be bit-identical
    /// whether the tensor pool runs 1 thread or 4.
    #[test]
    fn weight_grids_are_thread_count_invariant(seed in any::<u64>(), clip in 0.02f32..0.3) {
        let (ds, batch) = fixed_batch();
        let mut rng = Rng::seed_from_u64(seed);
        let mut rand_grid = || -> WeightGrid {
            (0..batch.steps)
                .map(|_| (0..batch.batch).map(|_| rng.uniform_f32().clamp(1e-6, 1.0)).collect())
                .collect()
        };
        let alpha = rand_grid();
        let p = rand_grid();
        for spec in EstimatorSpec::all() {
            let run = || grids_for(spec, clip, &ds, &batch, &alpha, &p);
            let one = uae_tensor::with_num_threads(1, run);
            let four = uae_tensor::with_num_threads(4, run);
            prop_assert_eq!(one.len(), four.len());
            for ((ph1, pos1, neg1, _), (ph4, pos4, neg4, _)) in one.iter().zip(&four) {
                prop_assert_eq!(ph1, ph4);
                prop_assert_eq!(pos1, pos4, "{:?} pos grids drift across threads", spec);
                prop_assert_eq!(neg1, neg4, "{:?} neg grids drift across threads", spec);
            }
        }
    }
}
