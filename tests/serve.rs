//! Integration tests for the serving path (DESIGN.md §10): a model rebuilt
//! from its `.uaem` snapshot must score bit-identically to the live model's
//! `predict`/`predict_propensity` at every thread count and batch size,
//! snapshots must round-trip through disk exactly, and damaged snapshots
//! must surface typed errors instead of panics.

use uae::core::{AttentionEstimator, Uae, UaeConfig};
use uae::data::{generate, SimConfig};
use uae::runtime::{CheckpointError, UaeError};
use uae::serve::{FrozenModel, Scorer, ScorerConfig};
use uae::tensor::with_num_threads;

fn trained_uae() -> (uae::data::Dataset, Vec<usize>, Uae) {
    let ds = generate(&SimConfig::tiny(), 9);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let cfg = UaeConfig {
        gru_hidden: 8,
        mlp_hidden: vec![8],
        epochs: 1,
        seed: 3,
        ..Default::default()
    };
    let mut uae = Uae::new(&ds.schema, cfg);
    uae.fit(&ds, &sessions);
    (ds, sessions, uae)
}

fn scorer_for(uae: &Uae, ds: &uae::data::Dataset, batch_size: usize) -> Scorer {
    Scorer::with_config(
        FrozenModel::from_uae(uae, &ds.schema, 15.0),
        ScorerConfig {
            batch_size,
            max_len: None,
        },
    )
    .expect("rebuild frozen model")
}

/// The serving acceptance criterion: the batched scorer over a rebuilt
/// snapshot is bit-identical to the live model's predictions, at one thread
/// and at four.
#[test]
fn tape_free_scoring_matches_training_forward_at_1_and_4_threads() {
    let (ds, sessions, uae) = trained_uae();
    let reference_att = uae.predict(&ds, &sessions);
    let reference_prop = uae.predict_propensity(&ds, &sessions);
    for threads in [1usize, 4] {
        with_num_threads(threads, || {
            for batch_size in [1usize, 16] {
                let out = scorer_for(&uae, &ds, batch_size).score(&ds, &sessions);
                assert_eq!(
                    out.attention, reference_att,
                    "attention diverged at threads={threads} batch_size={batch_size}"
                );
                assert_eq!(
                    out.propensity, reference_prop,
                    "propensity diverged at threads={threads} batch_size={batch_size}"
                );
            }
        });
    }
}

#[test]
fn uaem_snapshot_round_trips_through_disk() {
    let (ds, sessions, uae) = trained_uae();
    let frozen = FrozenModel::from_uae(&uae, &ds.schema, 15.0).with_extra("note", b"pr4".to_vec());
    let dir = std::env::temp_dir().join(format!("uae_serve_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.uaem");
    frozen.write_to(&path).unwrap();
    let loaded = FrozenModel::read_from(&path).unwrap();
    assert_eq!(loaded, frozen);
    assert_eq!(loaded.extra("note"), Some(&b"pr4"[..]));

    // The rebuilt model scores exactly like the in-memory original.
    let out = Scorer::with_config(loaded, ScorerConfig::default())
        .unwrap()
        .score(&ds, &sessions);
    assert_eq!(out.attention, uae.predict(&ds, &sessions));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_snapshot_fails_with_typed_checkpoint_error() {
    let (ds, _sessions, uae) = trained_uae();
    let bytes = FrozenModel::from_uae(&uae, &ds.schema, 15.0).encode();
    for cut in [0, 8, 16, bytes.len() / 2, bytes.len() - 1] {
        match FrozenModel::decode(&bytes[..cut]) {
            Err(UaeError::Checkpoint(_)) => {}
            Err(other) => panic!("cut at {cut}: expected Checkpoint error, got {other}"),
            Ok(_) => panic!("cut at {cut}: decode accepted a truncated snapshot"),
        }
    }
}

#[test]
fn mismatched_schema_fails_with_typed_decode_error() {
    let (ds, _sessions, uae) = trained_uae();
    let mut frozen = FrozenModel::from_uae(&uae, &ds.schema, 15.0);
    frozen.schema.cat_cardinalities[0] += 3;
    match frozen.build() {
        Err(UaeError::Decode(_)) => {}
        Err(other) => panic!("expected Decode error, got {other}"),
        Ok(_) => panic!("build accepted a snapshot with a mismatched schema"),
    }
}

#[test]
fn foreign_bytes_fail_with_bad_magic() {
    let (ds, _sessions, uae) = trained_uae();
    let mut bytes = FrozenModel::from_uae(&uae, &ds.schema, 15.0).encode();
    bytes[8] = b'Z'; // first magic byte (after the u64 length prefix)
    assert!(matches!(
        FrozenModel::decode(&bytes),
        Err(UaeError::Checkpoint(CheckpointError::BadMagic))
    ));
}
