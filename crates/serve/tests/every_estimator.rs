//! Every estimator the matrix trains exports and serves: each
//! `EstimatorSpec::all()` model plus SAR, dense and hashed, goes through
//! `FrozenModel::from_uae`, comes back through both the copying `decode`
//! and the mapping `open`, records its own propensity head, scores
//! bit-identically to the live model, and reports a renamed parameter by
//! both names.

use uae_core::{AttentionEstimator, EstimatorSpec, Uae, UaeConfig};
use uae_data::{generate, Dataset, SimConfig};
use uae_runtime::UaeError;
use uae_serve::{FrozenModel, Scorer, ScorerConfig};
use uae_tensor::DecodeError;

/// Every estimator at its defaults, then SAR, each fitted one epoch on the
/// tiny preset with dense (`hash_buckets` 0) or hashed embeddings.
fn trained_models(ds: &Dataset, hash_buckets: usize) -> Vec<Uae> {
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let cfg = |estimator| UaeConfig {
        gru_hidden: 8,
        mlp_hidden: vec![8],
        epochs: 1,
        hash_buckets,
        estimator,
        ..UaeConfig::default()
    };
    let mut models: Vec<Uae> = EstimatorSpec::all()
        .into_iter()
        .map(|spec| Uae::new(&ds.schema, cfg(spec)))
        .collect();
    models.push(Uae::new_sar(&ds.schema, cfg(EstimatorSpec::UaeDual)));
    for uae in &mut models {
        uae.fit(ds, &sessions);
    }
    models
}

/// `bytes` with the first byte of the first stored parameter name changed,
/// plus that name before and after.
fn rename_first_param(bytes: &[u8], uae: &Uae) -> (Vec<u8>, String, String) {
    let params = uae.attention_params();
    let name = params.name(params.ids().next().unwrap()).to_string();
    let mut field = (name.len() as u64).to_le_bytes().to_vec();
    field.extend_from_slice(name.as_bytes());
    let at = bytes
        .windows(field.len())
        .position(|w| w == field)
        .expect("parameter name not found in the header")
        + 8;
    let mut renamed = bytes.to_vec();
    renamed[at] = if renamed[at] == b'x' { b'y' } else { b'x' };
    let found = String::from_utf8(renamed[at..at + name.len()].to_vec()).unwrap();
    (renamed, name, found)
}

fn expect_name_mismatch(built: Result<Uae, UaeError>, expected: &str, found: &str, via: &str) {
    match built {
        Err(UaeError::Decode(DecodeError::NameMismatch {
            expected: e,
            found: f,
        })) => {
            assert_eq!(e, expected, "{via}: expected name");
            assert_eq!(f, found, "{via}: found name");
        }
        Err(other) => panic!("{via}: expected a name mismatch, got {other:?}"),
        Ok(_) => panic!("{via}: a renamed parameter was accepted"),
    }
}

#[test]
fn every_estimator_exports_loads_and_scores_bitwise() {
    let ds = generate(&SimConfig::tiny(), 29);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let dir = std::env::temp_dir().join(format!("uae_every_estimator_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for hash_buckets in [0, 16] {
        for uae in trained_models(&ds, hash_buckets) {
            let tag = format!("{} (hash_buckets {hash_buckets})", uae.name());
            let bytes = FrozenModel::from_uae(&uae, &ds.schema, 15.0).encode();
            let path = dir.join("model.uaem");
            std::fs::write(&path, &bytes).unwrap();
            let attention = uae.predict(&ds, &sessions);
            let propensity = uae.predict_propensity(&ds, &sessions);
            for (via, frozen) in [
                ("decode", FrozenModel::decode(&bytes)),
                ("open", FrozenModel::open(&path)),
            ] {
                let frozen = frozen.unwrap_or_else(|e| panic!("{tag} {via}: {e}"));
                assert_eq!(frozen.head, uae.head_kind(), "{tag} {via}");
                let scorer = Scorer::with_config(frozen, ScorerConfig::default())
                    .unwrap_or_else(|e| panic!("{tag} {via}: {e}"));
                let out = scorer.score(&ds, &sessions);
                assert_eq!(out.attention, attention, "{tag} {via}: attention");
                assert_eq!(out.propensity, propensity, "{tag} {via}: propensity");
            }
            let (renamed, expected, found) = rename_first_param(&bytes, &uae);
            std::fs::write(&path, &renamed).unwrap();
            for (via, frozen) in [
                ("decode", FrozenModel::decode(&renamed)),
                ("open", FrozenModel::open(&path)),
            ] {
                let frozen = frozen.unwrap_or_else(|e| panic!("{tag} {via}: {e}"));
                expect_name_mismatch(frozen.build(), &expected, &found, &format!("{tag} {via}"));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
