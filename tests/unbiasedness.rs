//! Integration checks of the paper's theory (Theorems 1–5 and §V-A's
//! clipping) against the *actual simulator output*, not a synthetic
//! population: the recorded per-event (α, p) of a generated dataset drive
//! the Monte-Carlo expectations. Theorem 1, PN's bias and §V-A's clipping
//! are checked on every scenario preset.

use uae::core::theory::{
    attention_risk_bias, attention_risk_variance, ideal_attention_risk, ideal_propensity_risk,
    pn_attention_risk, risk_distribution, unbiased_attention_risk, unbiased_propensity_risk,
};
use uae::data::{generate, scenario_names, FlatData, SimConfig};
use uae::tensor::Rng;

/// Fixed predictors and ground truth over one scenario preset's events.
struct Truth {
    /// Fixed attention predictor.
    g: Vec<f32>,
    /// Fixed propensity predictor.
    h: Vec<f32>,
    alpha: Vec<f32>,
    p: Vec<f32>,
}

fn simulated_truth(scenario: &str) -> Truth {
    let sim = SimConfig::scenario(scenario, 0.15).expect("known scenario");
    let ds = generate(&sim, 31337);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let flat = FlatData::from_sessions(&ds, &sessions);
    // One-sided fixed predictors (below 0.5) avoid sign cancellation in the
    // bias sums (see uae-core::theory unit tests).
    let g = flat.true_alpha.iter().map(|&a| 0.08 + 0.35 * a).collect();
    let h = flat
        .true_propensity
        .iter()
        .map(|&p| 0.08 + 0.35 * p)
        .collect();
    Truth {
        g,
        h,
        alpha: flat.true_alpha,
        p: flat.true_propensity,
    }
}

#[test]
fn theorem_1_holds_on_simulated_sessions() {
    for scenario in scenario_names() {
        let t = simulated_truth(scenario);
        let ideal = ideal_attention_risk(&t.g, &t.alpha);
        let mut rng = Rng::seed_from_u64(1);
        let (mean, _) = risk_distribution(&t.alpha, &t.p, 250, &mut rng, |e| {
            unbiased_attention_risk(&t.g, e, &t.p)
        });
        let rel = (mean - ideal).abs() / ideal;
        assert!(
            rel < 0.02,
            "{scenario}: ideal={ideal:.5} mc={mean:.5} rel={rel:.4}"
        );
    }
}

#[test]
fn pn_is_more_biased_than_the_unbiased_estimator() {
    for scenario in scenario_names() {
        let t = simulated_truth(scenario);
        let ideal = ideal_attention_risk(&t.g, &t.alpha);
        let mut rng = Rng::seed_from_u64(2);
        let (unb, _) = risk_distribution(&t.alpha, &t.p, 250, &mut rng, |e| {
            unbiased_attention_risk(&t.g, e, &t.p)
        });
        let (pn, _) = risk_distribution(&t.alpha, &t.p, 250, &mut rng, |e| {
            pn_attention_risk(&t.g, e)
        });
        assert!(
            (pn - ideal).abs() > 5.0 * (unb - ideal).abs(),
            "{scenario}: pn gap {:.5} vs unbiased gap {:.5}",
            (pn - ideal).abs(),
            (unb - ideal).abs()
        );
    }
}

#[test]
fn theorem_2_holds_on_simulated_sessions() {
    let t = simulated_truth("baseline");
    let ideal = ideal_propensity_risk(&t.h, &t.p);
    let mut rng = Rng::seed_from_u64(4);
    let (mean, _) = risk_distribution(&t.alpha, &t.p, 250, &mut rng, |e| {
        unbiased_propensity_risk(&t.h, e, &t.alpha)
    });
    let rel = (mean - ideal).abs() / ideal;
    assert!(rel < 0.02, "ideal={ideal:.5} mc={mean:.5} rel={rel:.4}");
}

#[test]
fn clipping_propensities_reduces_risk_variance() {
    // §V-A: clipping p from below trades a small bias for lower variance.
    for scenario in scenario_names() {
        let t = simulated_truth(scenario);
        let clipped: Vec<f32> = t.p.iter().map(|&x| x.max(0.3)).collect();
        let mut rng = Rng::seed_from_u64(5);
        let (_, raw) = risk_distribution(&t.alpha, &t.p, 250, &mut rng, |e| {
            unbiased_attention_risk(&t.g, e, &t.p)
        });
        let (_, clip) = risk_distribution(&t.alpha, &t.p, 250, &mut rng, |e| {
            unbiased_attention_risk(&t.g, e, &clipped)
        });
        assert!(
            clip < raw,
            "{scenario}: clipped variance {clip:.3e} vs raw {raw:.3e}"
        );
    }
}

#[test]
fn theorem_3_variance_matches_on_simulated_sessions() {
    let t = simulated_truth("baseline");
    let analytic = attention_risk_variance(&t.g, &t.alpha, &t.p);
    let mut rng = Rng::seed_from_u64(3);
    let (_, empirical) = risk_distribution(&t.alpha, &t.p, 1200, &mut rng, |e| {
        unbiased_attention_risk(&t.g, e, &t.p)
    });
    let ratio = empirical / analytic;
    assert!(
        (0.8..1.25).contains(&ratio),
        "analytic {analytic:.3e} empirical {empirical:.3e} ratio {ratio:.3}"
    );
}

#[test]
fn theorem_5_underestimation_hurts_more_on_simulated_sessions() {
    let t = simulated_truth("baseline");
    let over: Vec<f32> = t.p.iter().map(|&x| (x * 1.4).min(0.999)).collect();
    let under: Vec<f32> = t.p.iter().map(|&x| (x / 1.4).max(1e-3)).collect();
    let bias_over = attention_risk_bias(&t.g, &t.alpha, &t.p, &over);
    let bias_under = attention_risk_bias(&t.g, &t.alpha, &t.p, &under);
    assert!(
        bias_under > bias_over,
        "under={bias_under:.5} over={bias_over:.5}"
    );
}

#[test]
fn proposition_1_expectation_identity_on_generated_feedback() {
    // E[e] = p·α over the events the simulator actually emitted.
    let ds = generate(&SimConfig::product(0.3), 555);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let flat = FlatData::from_sessions(&ds, &sessions);
    let expected: f64 = flat
        .true_alpha
        .iter()
        .zip(&flat.true_propensity)
        .map(|(&a, &p)| (a * p) as f64)
        .sum::<f64>()
        / flat.len() as f64;
    let observed = flat.active.iter().filter(|&&e| e).count() as f64 / flat.len() as f64;
    assert!(
        (expected - observed).abs() < 0.01,
        "E[p·α]={expected:.4} vs observed active rate {observed:.4}"
    );
}
