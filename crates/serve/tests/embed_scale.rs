//! End-to-end contracts of the `.uaem` embedding scale-out: a dense model
//! must score bit-identically whether it is kept in memory, copied from
//! disk or memory-mapped, and hashed artifacts must round-trip with their
//! bucket config intact and encode smaller than their dense twin.

use uae_core::{reweight, AttentionEstimator, Uae, UaeConfig};
use uae_data::{generate, Dataset, SimConfig};
use uae_serve::{FrozenModel, Scorer};

fn trained(hash_buckets: usize) -> (Dataset, Uae) {
    let ds = generate(&SimConfig::tiny(), 17);
    let cfg = UaeConfig {
        gru_hidden: 8,
        mlp_hidden: vec![8],
        epochs: 1,
        hash_buckets,
        ..UaeConfig::default()
    };
    let mut uae = Uae::new(&ds.schema, cfg);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let mut sup = uae_runtime::Supervisor::disabled();
    uae.fit_supervised(&ds, &sessions, &mut sup).unwrap();
    (ds, uae)
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("uae_embed_scale_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The headline format contract: copy vs map is transport, not semantics.
/// One trained model loaded back through the copying `read_from`, the
/// zero-copy `open`, and kept in memory from `from_uae` produces
/// bit-identical attention/propensity scores.
#[test]
fn read_from_open_and_in_memory_score_bit_identically() {
    let (ds, uae) = trained(0);
    let frozen = FrozenModel::from_uae(&uae, &ds.schema, 15.0);
    let dir = scratch("transports");
    let path = dir.join("model.uaem");
    frozen.write_to(&path).unwrap();

    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let score = |frozen: FrozenModel| {
        let out = Scorer::new(frozen).unwrap().score(&ds, &sessions);
        (out.attention, out.propensity, out.weights)
    };
    let mapped = FrozenModel::open(&path).unwrap();
    assert!(
        mapped.arena().is_mapped(),
        "open() should map the file zero-copy"
    );
    let base = score(frozen);
    assert_eq!(
        base,
        score(FrozenModel::read_from(&path).unwrap()),
        "copy load diverged"
    );
    assert_eq!(base, score(mapped), "mapped load diverged");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A hashed model survives the v3 round trip (bucket config is
/// architectural) and the rebuilt artifact scores bit-identically to the
/// live model's predictions and their Eq. (19) weights — including through
/// the mapped path.
#[test]
fn hashed_artifact_round_trips_and_scores_identically() {
    let (ds, uae) = trained(32);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let frozen = FrozenModel::from_uae(&uae, &ds.schema, 15.0);
    assert_eq!(frozen.hash_buckets, 32);

    let dir = scratch("hashed");
    let path = dir.join("hashed.uaem");
    frozen.write_to(&path).unwrap();

    let attention = uae.predict(&ds, &sessions);
    let propensity = uae.predict_propensity(&ds, &sessions);
    let weights: Vec<f32> = attention.iter().map(|&a| reweight(a, 15.0)).collect();
    for frozen in [
        FrozenModel::read_from(&path).unwrap(),
        FrozenModel::open(&path).unwrap(),
    ] {
        assert_eq!(frozen.hash_buckets, 32, "bucket config lost in transit");
        let out = Scorer::new(frozen).unwrap().score(&ds, &sessions);
        assert_eq!(out.attention, attention);
        assert_eq!(out.propensity, propensity);
        assert_eq!(out.weights, weights);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Hashing exists to shrink the artifact: bucketed tables replace the
/// per-id rows, so the hashed `.uaem` encodes strictly smaller than the
/// dense one trained on the same data.
#[test]
fn hashed_artifact_encodes_smaller_than_dense() {
    let encoded = |hash_buckets: usize| {
        let (ds, uae) = trained(hash_buckets);
        FrozenModel::from_uae(&uae, &ds.schema, 15.0).encode().len()
    };
    let (dense, hashed) = (encoded(0), encoded(32));
    assert!(hashed < dense, "hashed {hashed} B >= dense {dense} B");
}

/// Thread count must not perturb hashed scoring (the daemon shards work
/// across per-core workers; scores have to be placement-invariant).
#[test]
fn hashed_scoring_is_thread_count_invariant() {
    let (ds, uae) = trained(32);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let frozen = FrozenModel::from_uae(&uae, &ds.schema, 15.0);
    let run = |threads: usize| {
        uae_tensor::with_num_threads(threads, || {
            Scorer::new(frozen.clone()).unwrap().score(&ds, &sessions)
        })
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.attention, four.attention);
    assert_eq!(one.propensity, four.propensity);
}
