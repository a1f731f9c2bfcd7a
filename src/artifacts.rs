//! The paper's §VI artifacts, one `uae` subcommand each: Table III and
//! Figs. 2–3 (`stats`), Tables IV–V, Figs. 5–7, the design ablations and the
//! embedding scale-out report. `main.rs`'s `config` picks each command's
//! settings: the reduced test configuration under `--fast`, otherwise the
//! settings EXPERIMENTS.md records for the archived run.

use std::collections::HashSet;

use uae::core::{AttentionEstimator, Uae, UaeConfig};
use uae::data::{
    active_rate_by_active_count, active_rate_by_pattern, feedback_by_rank, generate, schema_for,
    split_by_ratio, transition_matrix, Dataset, SimConfig, Split,
};
use uae::eval::{
    paper_gammas, prepare, render_reweight_curves, run_ab_test, run_convergence, run_gamma_sweep,
    run_model, run_table4, run_table5, AbConfig, AttentionMethod, HarnessConfig, PreparedData,
    Preset, TextTable,
};
use uae::metrics::{auc, expected_calibration_error};
use uae::models::{LabelMode, ModelKind};
use uae::nn::{HashConfig, HashedEmbedding};
use uae::serve::FrozenModel;
use uae::tensor::{Params, Rng};

/// Both evaluation protocols: the paper's observed-feedback labels, then the
/// simulator's true preferences (DESIGN.md §5).
const PROTOCOLS: [LabelMode; 2] = [LabelMode::Observed, LabelMode::OraclePreference];

/// The run settings every artifact header states.
fn settings(cfg: &HarnessConfig) -> String {
    format!(
        "scale {:.2}, {} seeds, γ = {}, labels: {:?}",
        cfg.data_scale,
        cfg.seeds.len(),
        cfg.gamma,
        cfg.label_mode
    )
}

/// Table III (dataset statistics), Fig. 2(a–c) (feedback-type transitions)
/// and Fig. 3 (feedback rates by play rank, Product preset).
///
/// Paper reference (full-scale logs): 30-Music 455K sessions, 5.5K users,
/// 1.99M songs, 12 features, 3 feedback types; Product 8.47M / 3.75M /
/// 1.73M / 44 / 6. The simulator reproduces the schema (feature and
/// feedback-type counts) exactly and the population proportions at laptop
/// scale.
pub fn stats(cfg: &HarnessConfig) {
    println!(
        "=== Table III: dataset statistics (scale {:.2}) ===\n",
        cfg.data_scale
    );
    let mut t = TextTable::new(&[
        "Dataset",
        "#Sessions",
        "#Users",
        "#Songs",
        "#Features",
        "#Feedback Types",
        "#Events",
        "Active rate",
    ]);
    let mut product = None;
    for preset in Preset::both() {
        let ds = generate(&preset.config(cfg.data_scale), cfg.data_seed);
        let s = ds.summary();
        t.add_row(vec![
            s.name,
            s.sessions.to_string(),
            s.users.to_string(),
            s.songs.to_string(),
            s.features.to_string(),
            s.feedback_types.to_string(),
            s.events.to_string(),
            format!("{:.4}", s.active_rate),
        ]);
        if preset == Preset::Product {
            product = Some(ds);
        }
    }
    println!("{}", t.render());
    println!("Paper (full scale): 30-Music 455K/5.5K/1.99M/12/3; Product 8.47M/3.75M/1.73M/44/6");
    println!("Feature and feedback-type counts match exactly; sizes are proportional.\n");
    let ds = product.expect("Preset::both() includes Product");

    println!("=== Fig. 2(a): feedback-type transition matrix ===\n");
    let stats = transition_matrix(&ds);
    let mut t = TextTable::new(&["", "next active", "next passive"]);
    t.add_row(vec![
        "current active".into(),
        format!("{:.4}", stats.active_after_active),
        format!("{:.4}", stats.passive_after_active),
    ]);
    t.add_row(vec![
        "current passive".into(),
        format!("{:.4}", stats.active_after_passive),
        format!("{:.4}", stats.passive_after_passive),
    ]);
    println!("{}", t.render());
    println!(
        "marginal P(active) = {:.4}   [paper: 0.0876; P(a|a)=0.5588, P(a|p)=0.0488]\n",
        stats.marginal_active
    );

    println!("=== Fig. 2(b): P(active) by previous-6 feedback pattern (top/bottom) ===\n");
    let rows = active_rate_by_pattern(&ds, 6, 30);
    let mut t = TextTable::new(&["pattern (old→new)", "P(active)", "support"]);
    let shown: Vec<_> = rows
        .iter()
        .take(8)
        .chain(rows.iter().rev().take(4).rev())
        .collect();
    for (pat, rate, n) in shown {
        t.add_row(vec![pat.clone(), format!("{rate:.4}"), n.to_string()]);
    }
    println!("{}", t.render());

    println!("=== Fig. 2(c): P(active) by #active actions in the last 6 steps ===\n");
    let mut t = TextTable::new(&["#active in history", "P(active)", "support"]);
    for (k, (rate, n)) in active_rate_by_active_count(&ds, 6).into_iter().enumerate() {
        if n > 0 {
            t.add_row(vec![k.to_string(), format!("{rate:.4}"), n.to_string()]);
        }
    }
    println!("{}", t.render());
    println!("Shape check: P(active) increases with the number of recent active actions.\n");

    println!("=== Fig. 3: feedback rates by play rank ===\n");
    let mut t = TextTable::new(&[
        "Rank",
        "Active rate",
        "Passive rate",
        "Mean true α (ext.)",
        "Support",
    ]);
    for r in feedback_by_rank(&ds, 25) {
        t.add_row(vec![
            r.rank.to_string(),
            format!("{:.4}", r.active_rate),
            format!("{:.4}", r.passive_rate),
            format!("{:.4}", r.mean_attention),
            r.support.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Shape check: active rate and true attention decline with rank; passive dominates everywhere.");
}

/// Table IV: the seven base models trained with and without UAE on both
/// datasets (AUC, GAUC, RelaImpr, paired-t significance over seeds), under
/// both label protocols from one UAE fit per dataset and seed.
pub fn table4(cfg: &mut HarnessConfig) {
    for (mode, table) in PROTOCOLS.into_iter().zip(run_table4(cfg, &PROTOCOLS)) {
        cfg.label_mode = mode;
        println!("=== Table IV: base models ± UAE ({}) ===", settings(cfg));
        println!("{}", table.render());
        println!(
            "+UAE wins {:.0}% of (dataset, model, metric) cells\n",
            100.0 * table.win_rate()
        );
    }
    println!("Paper: +UAE improves every cell; GAUC RelaImpr on Product averages ≈ 2.5%.");
}

/// Table V: AutoInt and DCN-V2 equipped with each attention model (EDM,
/// NDB, PN, SAR, UAE) on both datasets, under both label protocols from one
/// fit per method, dataset and seed, plus every method's intrinsic
/// attention-estimation quality.
pub fn table5(cfg: &mut HarnessConfig) {
    let methods = AttentionMethod::table5();
    for (mode, table) in PROTOCOLS.into_iter().zip(run_table5(cfg, &PROTOCOLS)) {
        cfg.label_mode = mode;
        println!("=== Table V: attention models ({}) ===", settings(cfg));
        println!("{}", table.render(&methods));
    }
    println!("Paper shape: +UAE best, +PN catastrophically worst (AUC ≈ 0.55 on Product),");
    println!("EDM/NDB/SAR between Base and UAE.");
}

/// Fig. 5: DCN-V2 with and without UAE per training epoch, with 95%
/// t-confidence bands over seeds.
pub fn fig5(cfg: &HarnessConfig, epochs: usize) {
    println!(
        "=== Fig. 5: DCN-V2 ± UAE convergence ({epochs} epochs, {}) ===\n",
        settings(cfg)
    );
    let conv = run_convergence(cfg, epochs);
    println!("{}", conv.render());
    println!(
        "UAE arm ends with higher validation AUC: {}",
        conv.uae_ends_higher()
    );
    println!("Paper shape: the +UAE curve dominates with a narrower confidence band.");
}

/// Fig. 6: (a) the Eq. (19) re-weighting curves; (b, c) DCN-V2 + UAE's
/// AUC/GAUC as γ varies, with plain DCN-V2 as the reference.
pub fn fig6(cfg: &HarnessConfig) {
    println!("=== Fig. 6(a): re-weight function w = 1 − (α̂+1)^(−γ) ===\n");
    println!("{}", render_reweight_curves(&paper_gammas(), 10));
    println!(
        "=== Fig. 6(b, c): DCN-V2 + UAE vs. γ ({}) ===\n",
        settings(cfg)
    );
    let sweep = run_gamma_sweep(cfg, &paper_gammas());
    println!("{}", sweep.render());
    println!("best γ by AUC: {}", sweep.best_gamma());
    println!("Paper shape: +UAE ≥ base for γ ≥ 10; optimum near γ = 15; insensitive for large γ.");
}

/// Fig. 7: the seven-day A/B test on simulated traffic, control DCN-V2
/// against treatment DCN-V2 + UAE, on paired session skeletons.
pub fn fig7(cfg: &HarnessConfig, ab: &AbConfig) {
    println!(
        "=== Fig. 7: {}-day A/B test (DCN-V2 vs DCN-V2+UAE, {} sessions/day, slate {}; {}) ===\n",
        ab.days,
        ab.sessions_per_day,
        ab.candidates,
        settings(cfg)
    );
    println!("{}", run_ab_test(cfg, ab).render());
    println!("Paper shape: positive uplift every day, averaging > 2% on both metrics.");
}

/// Attention AUC and calibration of one UAE (or SAR) fit on the training
/// sessions, scored on the held-out test sessions.
fn attn_quality(uae_cfg: UaeConfig, data: &PreparedData, sar: bool) -> (f64, f64) {
    let mut est = if sar {
        Uae::new_sar(&data.dataset.schema, uae_cfg)
    } else {
        Uae::new(&data.dataset.schema, uae_cfg)
    };
    est.fit(&data.dataset, &data.split.train);
    let scores = est.predict(&data.dataset, &data.split.test);
    let truth = &data.test.true_attention;
    (
        auc(&scores, truth).unwrap_or(0.5),
        expected_calibration_error(&scores, truth, 10),
    )
}

/// Ablations of UAE's design choices (DESIGN.md §4, last row):
///
/// 1. **Risk clipping** (§VI-A): non-negative risk correction on/off and the
///    propensity clip level, measured on attention-estimation quality.
/// 2. **Alternating schedule** `N_a/N_p` (Algorithm 1; the paper uses 1/2
///    because the attention estimator converges faster).
/// 3. **Sequential vs. local propensity** (UAE vs. SAR head): the paper's
///    core claim that sequential dependencies matter.
/// 4. **Oracle weighting** (simulator-only upper bound for the downstream
///    task).
pub fn ablations(cfg: &HarnessConfig) {
    let data = prepare(Preset::Product, cfg);
    println!(
        "=== UAE ablations (Product preset, scale {:.2}, {} training events; \
         attention scored on {} held-out test events) ===\n",
        cfg.data_scale,
        data.train.len(),
        data.test.len()
    );
    let seed = 11u64;
    let base_cfg = UaeConfig {
        seed,
        ..cfg.uae.clone()
    };

    // ---- 1. Clipping -------------------------------------------------------
    println!("--- ablation 1: risk clipping (attention-estimation quality) ---");
    let mut t = TextTable::new(&["variant", "attn AUC", "ECE"]);
    for (label, clamp, clip) in [
        ("clamp=on, clip=0.10 (paper)", true, 0.10f32),
        ("clamp=off, clip=0.10", false, 0.10),
        ("clamp=on, clip=0.02", true, 0.02),
        ("clamp=on, clip=0.30", true, 0.30),
    ] {
        let ablated = UaeConfig {
            clamp_nonneg: clamp,
            propensity_clip: clip,
            attention_clip: clip,
            ..base_cfg.clone()
        };
        let (a, e) = attn_quality(ablated, &data, false);
        t.add_row(vec![label.into(), format!("{a:.4}"), format!("{e:.4}")]);
    }
    println!("{}", t.render());

    // ---- 2. N_a / N_p -------------------------------------------------------
    println!("--- ablation 2: alternating schedule N_a/N_p (Algorithm 1) ---");
    let mut t = TextTable::new(&["N_a/N_p", "attn AUC", "ECE"]);
    for (na, np) in [(1usize, 2usize), (1, 1), (2, 1), (2, 2)] {
        let ablated = UaeConfig {
            n_a: na,
            n_p: np,
            // Hold the total number of optimisation passes roughly constant.
            epochs: (base_cfg.epochs * 3 / (na + np)).max(2),
            ..base_cfg.clone()
        };
        let (a, e) = attn_quality(ablated, &data, false);
        t.add_row(vec![
            format!("{na}/{np}"),
            format!("{a:.4}"),
            format!("{e:.4}"),
        ]);
    }
    println!("{}", t.render());

    // ---- 3. Sequential vs local propensity --------------------------------
    println!("--- ablation 3: sequential (UAE) vs local (SAR) propensity head ---");
    let mut t = TextTable::new(&["propensity head", "attn AUC", "ECE"]);
    let (a, e) = attn_quality(base_cfg.clone(), &data, false);
    t.add_row(vec![
        "sequential (GRU₂)".into(),
        format!("{a:.4}"),
        format!("{e:.4}"),
    ]);
    let (a, e) = attn_quality(base_cfg.clone(), &data, true);
    t.add_row(vec![
        "local features (SAR)".into(),
        format!("{a:.4}"),
        format!("{e:.4}"),
    ]);
    println!("{}", t.render());

    // ---- 4. Downstream: UAE vs oracle weights -----------------------------
    println!("--- ablation 4: downstream DCN-V2 with no/UAE/oracle weights ---");
    let mut t = TextTable::new(&["weights", "AUC", "GAUC"]);
    for method in [
        AttentionMethod::Base,
        AttentionMethod::Uae,
        AttentionMethod::Oracle,
    ] {
        let w = method.weights(&data, cfg, seed);
        let out = run_model(ModelKind::DcnV2, w.as_deref(), &data, cfg, seed);
        t.add_row(vec![
            method.name().into(),
            format!("{:.4}", out.result.auc),
            format!("{:.4}", out.result.gauc),
        ]);
    }
    println!("{}", t.render());
    println!("Expected shapes: paper settings near-best in 1–2; sequential > local in 3;");
    println!("Base ≤ UAE ≤ Oracle in 4.");
}

const BUCKETS: usize = 1 << 16;
const NUM_HASHES: usize = 2;

/// Trains a 1-epoch UAE (dense when `hash_buckets == 0`) on the training
/// sessions and returns its attention scores on the test sessions and its
/// `.uaem` size.
fn embed_fit(ds: &Dataset, split: &Split, hash_buckets: usize) -> (Vec<f32>, usize) {
    let cfg = UaeConfig {
        gru_hidden: 16,
        mlp_hidden: vec![16],
        epochs: 1,
        seed: 7,
        hash_buckets,
        ..UaeConfig::default()
    };
    let mut uae = Uae::new(&ds.schema, cfg);
    uae.fit(ds, &split.train);
    let bytes = FrozenModel::from_uae(&uae, &ds.schema, 15.0).encode().len();
    (uae.predict(ds, &split.test), bytes)
}

/// Embedding scale-out report on the million-user preset (`--fast`: the
/// tiny preset).
///
/// `SimConfig::million_users()` has a 1.2M-user id space, so dense per-id
/// embedding tables dominate the artifact. The report prints:
///
/// * **Collision rate**: the fraction of categories per field whose full
///   multi-hash signature collides under the report's bucket config.
/// * **Accuracy cost**: held-out attention AUC (vs simulator ground truth)
///   of a hashed model and an otherwise identical dense model, trained on
///   the `uae fit` split's training sessions. The AUC is also split by
///   whether the event's user occurs in the training sessions: a dense row
///   of a user never trained on is its random initialisation.
/// * **Artifact size**: `.uaem` bytes of the dense and the hashed model.
///
/// Load time and resident memory of the 40 MB artifact are measured by the
/// benchmark's `serve-swap` workload, not here.
pub fn embed_accuracy(fast: bool) {
    let cfg = if fast {
        SimConfig::tiny()
    } else {
        SimConfig::million_users()
    };
    let data_seed = 97;
    let ds = generate(&cfg, data_seed);
    let mut rng = Rng::seed_from_u64(data_seed ^ 0x73_706c);
    let split = split_by_ratio(&ds, 0.8, 0.1, &mut rng);
    println!(
        "=== Embedding scale-out: preset {} ({} users, {} songs; {} sessions, {} events; \
         {} train / {} test sessions) ===\n",
        cfg.name,
        cfg.num_users,
        cfg.num_songs,
        ds.sessions.len(),
        ds.num_events(),
        split.train.len(),
        split.test.len()
    );

    // Collision measurement over the real schema's cardinalities (seeded
    // mapping: independent of init values and training).
    let probe = HashedEmbedding::new(
        "probe",
        &schema_for(&cfg).cat_cardinalities,
        4,
        HashConfig::new(BUCKETS, NUM_HASHES),
        &mut Params::new(),
    );
    let max_collision = probe.collision_rates().iter().cloned().fold(0.0, f64::max);
    println!(
        "collision rate ({BUCKETS} buckets, {NUM_HASHES} hashes): mean {:.6}, max {max_collision:.6}",
        probe.mean_collision_rate()
    );

    // Per held-out event: its attention label and whether its user trained.
    let train_users: HashSet<u32> = split.train.iter().map(|&s| ds.sessions[s].user).collect();
    let (labels, seen): (Vec<bool>, Vec<bool>) = split
        .test
        .iter()
        .flat_map(|&s| {
            let session = &ds.sessions[s];
            let seen = train_users.contains(&session.user);
            session
                .events
                .iter()
                .map(move |e| (e.truth.attention, seen))
        })
        .unzip();
    let seen_events = seen.iter().filter(|&&s| s).count();
    println!(
        "held-out events: {} ({seen_events} of seen users, {} of unseen users)",
        labels.len(),
        labels.len() - seen_events
    );
    let subset_auc = |scores: &[f32], want: bool| {
        let (s, l): (Vec<f32>, Vec<bool>) = scores
            .iter()
            .zip(&labels)
            .zip(&seen)
            .filter(|&(_, &k)| k == want)
            .map(|((&s, &l), _)| (s, l))
            .unzip();
        auc(&s, &l).map_or("n/a".into(), |a| format!("{a:.4}"))
    };
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    let mut sizes = Vec::new();
    for (name, buckets) in [("dense", 0), ("hashed", BUCKETS)] {
        let (scores, bytes) = embed_fit(&ds, &split, buckets);
        println!(
            "{name:<6} held-out attention AUC {:.4} (seen users {}, unseen users {}), artifact {:.1} MiB",
            auc(&scores, &labels).unwrap_or(0.5),
            subset_auc(&scores, true),
            subset_auc(&scores, false),
            mib(bytes)
        );
        sizes.push(bytes);
    }
    println!(
        "hashed artifact is {:.1}x smaller",
        sizes[0] as f64 / sizes[1].max(1) as f64
    );
}
