//! Attention estimation deep-dive: compares every attention model (EDM, NDB,
//! PN, SAR, UAE) against the simulator's ground truth — the evaluation the
//! paper *couldn't* run ("it is infeasible to evaluate the accuracy of user
//! attention prediction directly", footnote 4) but our simulated substrate
//! can.
//!
//! Run with: `cargo run --release --example attention_estimation`

use uae::core::{AttentionEstimator, Edm, EstimatorSpec, Uae, UaeConfig};
use uae::data::{generate, split_by_ratio, FlatData, SimConfig};
use uae::metrics::{auc, brier_score, expected_calibration_error, probability_bias};
use uae::tensor::Rng;

fn main() {
    let config = SimConfig::product(0.2);
    let dataset = generate(&config, 2024);
    let mut rng = Rng::seed_from_u64(1);
    let split = split_by_ratio(&dataset, 0.9, 0.0, &mut rng);
    let train_sessions = &split.train;
    let flat = FlatData::from_sessions(&dataset, train_sessions);
    let truth = &flat.true_attention;
    let true_rate = truth.iter().filter(|&&a| a).count() as f64 / truth.len() as f64;
    println!(
        "events: {}   true attention rate: {:.3}   active-feedback rate: {:.3}\n",
        flat.len(),
        true_rate,
        flat.active.iter().filter(|&&e| e).count() as f64 / flat.len() as f64
    );

    let uae_cfg = UaeConfig {
        epochs: 3,
        seed: 5,
        ..Default::default()
    };

    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>9}",
        "method", "attn-AUC", "Brier", "ECE", "bias"
    );
    let report = |name: &str, scores: &[f32]| {
        println!(
            "{:<6} {:>9.4} {:>9.4} {:>9.4} {:>+9.4}",
            name,
            auc(scores, truth).unwrap_or(0.5),
            brier_score(scores, truth),
            expected_calibration_error(scores, truth, 10),
            probability_bias(scores, truth),
        );
    };

    let edm = Edm::default();
    report("EDM", &edm.predict(&dataset, train_sessions));

    // PN and NDB are the same GRU attention network trained with a biased
    // risk (Eq. 4 / Eq. 5) instead of UAE's dual unbiased risks.
    let with_risk = |estimator| UaeConfig {
        estimator,
        ..uae_cfg.clone()
    };
    let mut pn = Uae::new(&dataset.schema, with_risk(EstimatorSpec::Pn));
    pn.fit(&dataset, train_sessions);
    report("PN", &pn.predict(&dataset, train_sessions));

    let mut ndb = Uae::new(
        &dataset.schema,
        with_risk(EstimatorSpec::Ndb { window: 10 }),
    );
    ndb.fit(&dataset, train_sessions);
    report("NDB", &ndb.predict(&dataset, train_sessions));

    let mut sar = Uae::new_sar(&dataset.schema, uae_cfg.clone());
    sar.fit(&dataset, train_sessions);
    report("SAR", &sar.predict(&dataset, train_sessions));

    let mut uae = Uae::new(&dataset.schema, uae_cfg);
    uae.fit(&dataset, train_sessions);
    let alpha_hat = uae.predict(&dataset, train_sessions);
    report("UAE", &alpha_hat);

    // The propensity side (Definition 1): verify the learned sequential
    // dependency — p̂ after an active action should far exceed p̂ after a
    // passive one, mirroring Fig. 2(a).
    let p_hat = uae.predict_propensity(&dataset, train_sessions);
    let mut after = [(0.0f64, 0usize); 2];
    let mut idx = 0;
    for &s in train_sessions {
        let events = &dataset.sessions[s].events;
        for t in 0..events.len() {
            if t > 0 {
                let bucket = events[t - 1].e() as usize;
                after[bucket].0 += p_hat[idx] as f64;
                after[bucket].1 += 1;
            }
            idx += 1;
        }
    }
    println!(
        "\nUAE propensity p̂:  after passive {:.3}   after active {:.3}  (Fig. 2(a) structure)",
        after[0].0 / after[0].1 as f64,
        after[1].0 / after[1].1 as f64
    );
}
