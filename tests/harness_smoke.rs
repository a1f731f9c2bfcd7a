//! Smoke tests of every experiment harness entry point at reduced scale —
//! each paper-artifact command's code path runs end to end.

use uae::eval::{
    paper_gammas, render_reweight_curves, run_ab_test, run_convergence, run_gamma_sweep,
    run_table5_with, AbConfig, AttentionMethod, HarnessConfig, Preset,
};

fn tiny_cfg() -> HarnessConfig {
    let mut cfg = HarnessConfig::fast();
    cfg.data_scale = 0.05;
    cfg
}

#[test]
fn dataset_statistics_paths() {
    let cfg = tiny_cfg();
    for preset in Preset::both() {
        let ds = uae::data::generate(&preset.config(cfg.data_scale), cfg.data_seed);
        let summary = ds.summary();
        assert!(summary.events > 0);
        assert_eq!(
            summary.features,
            if preset == Preset::Product { 44 } else { 12 },
            "Table III feature count must match the paper exactly"
        );
        assert_eq!(
            summary.feedback_types,
            if preset == Preset::Product { 6 } else { 3 }
        );
        let stats = uae::data::transition_matrix(&ds);
        assert!(stats.active_after_active > stats.active_after_passive);
        assert!(!uae::data::feedback_by_rank(&ds, 10).is_empty());
    }
}

#[test]
fn table5_reduced_grid_runs() {
    let mut cfg = tiny_cfg();
    cfg.train.epochs = 1;
    let methods = [
        AttentionMethod::Base,
        AttentionMethod::Pn,
        AttentionMethod::Uae,
    ];
    let table = run_table5_with(&cfg, &methods);
    // 2 datasets × 2 models × 3 methods.
    assert_eq!(table.entries.len(), 12);
    let rendered = table.render(&methods);
    assert!(rendered.contains("+UAE"));
    assert!(rendered.contains("Attn AUC"));
}

#[test]
fn convergence_and_gamma_paths_run() {
    let mut cfg = tiny_cfg();
    cfg.train.epochs = 2;
    let conv = run_convergence(&cfg, 2);
    assert_eq!(conv.base.points.len(), 2);
    let sweep = run_gamma_sweep(&cfg, &[5.0, 15.0]);
    assert_eq!(sweep.points.len(), 2);
    assert!(!render_reweight_curves(&paper_gammas(), 5).is_empty());
}

#[test]
fn ab_test_path_runs_and_is_deterministic() {
    let mut cfg = tiny_cfg();
    cfg.train.epochs = 1;
    let ab = AbConfig {
        days: 1,
        sessions_per_day: 8,
        candidates: 4,
        ..Default::default()
    };
    let a = run_ab_test(&cfg, &ab);
    let b = run_ab_test(&cfg, &ab);
    assert_eq!(a.days.len(), 1);
    assert_eq!(a.days[0].control_play_count, b.days[0].control_play_count);
    assert_eq!(a.days[0].treatment_play_time, b.days[0].treatment_play_time);
}
