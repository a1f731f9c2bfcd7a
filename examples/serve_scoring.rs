//! End-to-end serving walkthrough: train UAE offline, freeze it to a
//! `.uaem` snapshot, reload it as a serving fleet would, score sessions
//! through the tape-free batched engine, and feed the Eq. (18–19)
//! confidence weights to a downstream CTR recommender.
//!
//! Run with: `cargo run --release --example serve_scoring`
//!
//! Knobs: `UAE_SERVE_BATCH` / `UAE_SERVE_MAX_LEN` shape the scorer's
//! batching, `UAE_NUM_THREADS` the compute backend — the scores
//! themselves are bit-identical under every setting.

use uae::core::{AttentionEstimator, Uae, UaeConfig};
use uae::data::{generate, split_by_ratio, FlatData, SimConfig};
use uae::models::{evaluate, train, LabelMode, ModelConfig, ModelKind, TrainConfig};
use uae::serve::{FrozenModel, Scorer};
use uae::tensor::Rng;

fn main() {
    // 1. Simulate a Product-like dataset and split it.
    let ds = generate(&SimConfig::product(0.1), 0);
    let mut rng = Rng::seed_from_u64(0);
    let split = split_by_ratio(&ds, 0.8, 0.1, &mut rng);
    println!(
        "{}: {} sessions ({} train)",
        ds.name,
        ds.sessions.len(),
        split.train.len()
    );

    // 2. Train the attention estimator offline.
    let mut uae = Uae::new(
        &ds.schema,
        UaeConfig {
            epochs: 2,
            ..Default::default()
        },
    );
    uae.fit(&ds, &split.train);

    // 3. Freeze to a `.uaem` snapshot — the artifact a serving fleet ships.
    let path = std::env::temp_dir().join("serve_scoring.uaem");
    FrozenModel::from_uae(&uae, &ds.schema, 15.0)
        .write_to(&path)
        .expect("export snapshot");
    println!("exported {}", path.display());

    // 4. Reload and score through the tape-free batched engine.
    let frozen = FrozenModel::read_from(&path).expect("load snapshot");
    let scorer = Scorer::new(frozen).expect("rebuild model");
    let t0 = std::time::Instant::now();
    let out = scorer.score(&ds, &split.train);
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "scored {} events in {:.1} ms ({:.0} events/s, batch size {})",
        out.len(),
        secs * 1e3,
        out.len() as f64 / secs,
        scorer.config().batch_size
    );

    // 5. Downstream CTR with vs without the served confidence weights: the
    //    weights down-rank passive auto-plays the model thinks went unheard.
    let train_data = FlatData::from_sessions(&ds, &split.train);
    let test_data = FlatData::from_sessions(&ds, &split.test);
    let tcfg = TrainConfig::default();
    for (label, weights) in [("base     ", None), ("+UAE w   ", Some(&out.weights[..]))] {
        let mut rng = Rng::seed_from_u64(1);
        let (model, mut params) =
            ModelKind::Fm.build(&ds.schema, &ModelConfig::default(), &mut rng);
        train(
            model.as_ref(),
            &mut params,
            &train_data,
            weights,
            None,
            LabelMode::Observed,
            &tcfg,
        );
        let r = evaluate(
            model.as_ref(),
            &params,
            &test_data,
            LabelMode::Observed,
            512,
        );
        println!("FM {label} test AUC {:.4}  GAUC {:.4}", r.auc, r.gauc);
    }
    std::fs::remove_file(&path).ok();
}
