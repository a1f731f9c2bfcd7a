//! Integration tests of the attention-estimation methods against the
//! simulator ground truth, and of the harness-level method behaviours the
//! paper's Table V depends on.

use uae::core::{AttentionEstimator, Edm, EstimatorSpec, Uae, UaeConfig};
use uae::data::{generate, FlatData, SimConfig};
use uae::eval::{prepare, run_model, AttentionMethod, HarnessConfig, Preset};
use uae::metrics::{auc, expected_calibration_error};
use uae::models::{LabelMode, ModelKind};

fn fit_cfg(seed: u64) -> UaeConfig {
    UaeConfig {
        gru_hidden: 16,
        mlp_hidden: vec![16],
        epochs: 4,
        seed,
        ..Default::default()
    }
}

#[test]
fn uae_attention_beats_chance_and_is_reasonably_calibrated() {
    let ds = generate(&SimConfig::product(0.12), 777);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let flat = FlatData::from_sessions(&ds, &sessions);
    let mut uae = Uae::new(&ds.schema, fit_cfg(3));
    uae.fit(&ds, &sessions);
    let scores = uae.predict(&ds, &sessions);
    let a = auc(&scores, &flat.true_attention).unwrap();
    let ece = expected_calibration_error(&scores, &flat.true_attention, 10);
    assert!(a > 0.65, "attention AUC {a:.3}");
    assert!(ece < 0.2, "ECE {ece:.3}");
}

#[test]
fn uae_is_better_calibrated_than_pn() {
    // PN fits Pr(e) ≈ 0.1 instead of Pr(a) ≈ 0.2+: its mean estimate is
    // biased low, while UAE's IPS correction recovers the level.
    let ds = generate(&SimConfig::product(0.12), 778);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let flat = FlatData::from_sessions(&ds, &sessions);
    let true_rate = flat.true_attention.iter().filter(|&&x| x).count() as f64 / flat.len() as f64;

    let pn_cfg = UaeConfig {
        estimator: EstimatorSpec::Pn,
        ..fit_cfg(4)
    };
    let mut pn = Uae::new(&ds.schema, pn_cfg);
    pn.fit(&ds, &sessions);
    let pn_mean = pn
        .predict(&ds, &sessions)
        .iter()
        .map(|&x| x as f64)
        .sum::<f64>()
        / flat.len() as f64;

    let mut uae = Uae::new(&ds.schema, fit_cfg(4));
    uae.fit(&ds, &sessions);
    let uae_mean = uae
        .predict(&ds, &sessions)
        .iter()
        .map(|&x| x as f64)
        .sum::<f64>()
        / flat.len() as f64;

    assert!(
        (uae_mean - true_rate).abs() < (pn_mean - true_rate).abs(),
        "true rate {true_rate:.3}: UAE mean {uae_mean:.3} must beat PN mean {pn_mean:.3}"
    );
}

#[test]
fn edm_decays_are_bounded_and_aligned_with_flat_order() {
    let ds = generate(&SimConfig::thirty_music(0.06), 779);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let flat = FlatData::from_sessions(&ds, &sessions);
    let scores = Edm::default().predict(&ds, &sessions);
    assert_eq!(scores.len(), flat.len());
    // Active events must have score exactly 1 (e = 1 ⇒ a = 1).
    for (s, &e) in scores.iter().zip(&flat.active) {
        if e {
            assert_eq!(*s, 1.0);
        } else {
            assert!(*s < 1.0);
        }
    }
}

#[test]
fn pn_discard_collapses_observed_auc() {
    // The paper's Table V headline: "+PN" (discard all passive samples)
    // destroys observed-label performance (54.65 AUC vs 79.39 base on
    // Product). Reproduce the collapse direction at test scale.
    // The base model must be reasonably trained for the collapse to show;
    // use a mid-size configuration (~30s).
    let mut cfg = HarnessConfig::full();
    cfg.data_scale = 0.15;
    cfg.label_mode = LabelMode::Observed;
    cfg.train.epochs = 6;
    cfg.seeds = vec![1];
    let data = prepare(Preset::Product, &cfg);
    let base = run_model(ModelKind::YoutubeNet, None, &data, &cfg, 1);
    let pn_w = AttentionMethod::Pn.weights(&data, &cfg, 1).unwrap();
    assert!(pn_w.iter().all(|&w| w == 0.0), "PN weights must discard");
    let pn = run_model(ModelKind::YoutubeNet, Some(&pn_w), &data, &cfg, 1);
    assert!(
        pn.result.auc < base.result.auc - 0.1,
        "PN {:.4} must collapse well below base {:.4}",
        pn.result.auc,
        base.result.auc
    );
}

#[test]
fn sar_and_uae_produce_distinct_estimates() {
    // The sequential propensity head must actually change the solution
    // relative to the local-features head.
    let ds = generate(&SimConfig::product(0.1), 780);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let mut uae = Uae::new(&ds.schema, fit_cfg(5));
    uae.fit(&ds, &sessions);
    let mut sar = Uae::new_sar(&ds.schema, fit_cfg(5));
    sar.fit(&ds, &sessions);
    let a = uae.predict(&ds, &sessions);
    let b = sar.predict(&ds, &sessions);
    let mean_abs_diff: f64 = a
        .iter()
        .zip(&b)
        .map(|(&x, &y)| (x - y).abs() as f64)
        .sum::<f64>()
        / a.len() as f64;
    assert!(mean_abs_diff > 0.01, "diff {mean_abs_diff:.4}");
}
