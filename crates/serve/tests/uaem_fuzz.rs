//! Corruption fuzzing for the `.uaem` artifact decoder: truncations,
//! bit flips, hostile length fields, and wrong-variant bytes must all
//! come back as typed errors — never a panic, never an unbounded
//! allocation. This is the same decode path the daemon's hot-swap takes,
//! so these tests are the ground truth behind "a corrupt swap rolls back
//! instead of crashing".

use std::panic::{catch_unwind, AssertUnwindSafe};

use uae_core::{EstimatorSpec, HeadKind, Uae, UaeConfig};
use uae_data::{generate, SimConfig};
use uae_models::{ModelConfig, ModelKind};
use uae_runtime::checkpoint::CheckpointError;
use uae_runtime::UaeError;
use uae_serve::{FrozenArtifact, FrozenModel, FrozenRecommender};

fn tiny_uae() -> (uae_data::Dataset, Uae) {
    tiny_uae_with(EstimatorSpec::UaeDual)
}

fn tiny_uae_with(estimator: EstimatorSpec) -> (uae_data::Dataset, Uae) {
    let ds = generate(&SimConfig::tiny(), 41);
    let cfg = UaeConfig {
        gru_hidden: 4,
        mlp_hidden: vec![4],
        estimator,
        ..UaeConfig::default()
    };
    let uae = Uae::new(&ds.schema, cfg);
    (ds, uae)
}

fn tiny_frozen() -> FrozenModel {
    let (ds, uae) = tiny_uae();
    FrozenModel::from_uae(&uae, &ds.schema, 15.0)
}

/// A small variant-2 artifact: an untrained DCN-V2 over the tiny schema.
fn tiny_recommender() -> Vec<u8> {
    let ds = generate(&SimConfig::tiny(), 41);
    let cfg = ModelConfig {
        embed_dim: 4,
        hidden: vec![8],
        cross_layers: 1,
        ..ModelConfig::default()
    };
    let (_model, params) =
        ModelKind::DcnV2.build(&ds.schema, &cfg, &mut uae_tensor::Rng::seed_from_u64(7));
    FrozenRecommender::new(&ds.schema, ModelKind::DcnV2, &cfg, &params).encode()
}

fn tiny_artifact() -> Vec<u8> {
    tiny_frozen().encode()
}

/// A no-head artifact (variant byte 3): a single-network PN model.
fn tiny_no_head_artifact() -> Vec<u8> {
    let (ds, uae) = tiny_uae_with(EstimatorSpec::Pn);
    FrozenModel::from_uae(&uae, &ds.schema, 15.0).encode()
}

/// The sequential-head and the no-head artifact, named.
fn head_artifacts() -> [(&'static str, Vec<u8>); 2] {
    [
        ("sequential", tiny_artifact()),
        ("no-head", tiny_no_head_artifact()),
    ]
}

/// Decode must return `Result`, not unwind, for arbitrary input.
fn decode_never_panics(bytes: &[u8]) -> Option<Result<FrozenModel, UaeError>> {
    catch_unwind(AssertUnwindSafe(|| FrozenModel::decode(bytes))).ok()
}

#[test]
fn every_truncation_is_a_typed_error() {
    for (head, bytes) in head_artifacts() {
        assert!(
            FrozenModel::decode(&bytes).is_ok(),
            "{head}: baseline must decode"
        );
        for cut in 0..bytes.len() {
            match decode_never_panics(&bytes[..cut]) {
                Some(Err(UaeError::Checkpoint(_))) => {}
                Some(Err(other)) => panic!("{head} cut={cut}: unexpected error kind {other:?}"),
                Some(Ok(_)) => panic!("{head} cut={cut}: truncated artifact decoded successfully"),
                None => panic!("{head} cut={cut}: decode panicked"),
            }
        }
    }
}

#[test]
fn single_byte_flips_never_panic_decode_or_build() {
    for (head, bytes) in head_artifacts() {
        // Dense sweep over the header/schema region, strided sweep over the
        // parameter arenas (any arena byte is legal f32 payload, so most
        // flips there still decode — the contract is no panic, in decode OR
        // build).
        let positions: Vec<usize> = (0..64.min(bytes.len()))
            .chain((64..bytes.len()).step_by(37))
            .collect();
        for pos in positions {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0xFF;
            match decode_never_panics(&mutated) {
                Some(Err(UaeError::Checkpoint(_))) => {}
                Some(Err(other)) => panic!("{head} pos={pos}: unexpected error kind {other:?}"),
                Some(Ok(frozen)) => {
                    // The container survived; rebuilding must stay typed too.
                    let built = catch_unwind(AssertUnwindSafe(|| frozen.build()));
                    assert!(built.is_ok(), "{head} pos={pos}: build() panicked");
                }
                None => panic!("{head} pos={pos}: decode panicked"),
            }
        }
    }
}

#[test]
fn oversized_length_fields_fail_fast_without_allocating() {
    let bytes = tiny_artifact();
    // The container opens with `put_bytes(MAGIC)`: a u64 LE length prefix.
    // Claim the magic string is enormous; the reader must refuse (bounds
    // check against remaining bytes), not try to allocate or read past the
    // end.
    for hostile in [u64::MAX, u64::MAX / 2, (bytes.len() as u64) + 1] {
        let mut mutated = bytes.clone();
        mutated[..8].copy_from_slice(&hostile.to_le_bytes());
        match decode_never_panics(&mutated) {
            Some(Err(UaeError::Checkpoint(_))) => {}
            other => panic!("hostile len {hostile}: expected typed error, got {other:?}"),
        }
    }
    // Same attack on the interior v3 length fields: the first parameter
    // table entry's name length, an extras blob's length, and arena_len.
    let (ds, uae) = tiny_uae();
    let extra = vec![0xAB; 24];
    let bytes = FrozenModel::from_uae(&uae, &ds.schema, 15.0)
        .with_extra("fuzz", extra.clone())
        .encode();
    let params = uae.attention_params();
    let first_name = params.name(params.ids().next().unwrap());
    let fields = [
        (
            "param name length",
            len_prefix_of(&bytes, first_name.as_bytes()),
        ),
        ("extras blob length", len_prefix_of(&bytes, &extra)),
        ("arena_len", arena_len_pos(&bytes)),
    ];
    for (field, pos) in fields {
        for hostile in [u64::MAX, u64::MAX / 2, (bytes.len() as u64) + 1] {
            let mut mutated = bytes.clone();
            mutated[pos..pos + 8].copy_from_slice(&hostile.to_le_bytes());
            match decode_never_panics(&mutated) {
                Some(Err(UaeError::Checkpoint(_))) => {}
                other => panic!("{field} = {hostile}: expected typed error, got {other:?}"),
            }
        }
    }
}

/// Byte position of the u64 length prefix written in front of `payload`.
fn len_prefix_of(bytes: &[u8], payload: &[u8]) -> usize {
    let mut field = (payload.len() as u64).to_le_bytes().to_vec();
    field.extend_from_slice(payload);
    bytes
        .windows(field.len())
        .position(|w| w == field)
        .expect("length-prefixed field not found")
}

/// Byte position of the `arena_len` word. It is followed by the 16-aligned
/// `arena_offset`, which points just past the header's zero padding, and the
/// arena runs from there to the end of the file.
fn arena_len_pos(bytes: &[u8]) -> usize {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    (16..=bytes.len())
        .find(|&end| {
            let offset = word(end - 8);
            offset.is_multiple_of(16)
                && (end..end + 16).contains(&offset)
                && offset <= bytes.len()
                && word(end - 16) == bytes.len() - offset
        })
        .expect("arena_len field not found")
        - 16
}

#[test]
fn wrong_variant_bytes_are_rejected_with_guidance() {
    let bytes = tiny_artifact();
    // Layout: u64 len + 4 magic bytes + u32 version + variant byte.
    let variant_pos = 8 + 4 + 4;
    assert!(bytes[variant_pos] <= 1, "layout drifted; update this test");
    // Variant 2 is a downstream-recommender artifact: FrozenModel must
    // refuse and point at FrozenArtifact.
    let mut rec = bytes.clone();
    rec[variant_pos] = 2;
    match FrozenModel::decode(&rec) {
        Err(UaeError::Checkpoint(e)) => {
            assert!(e.to_string().contains("FrozenArtifact"), "{e}")
        }
        other => panic!("{other:?}"),
    }
    // Variant 3 is a model without a propensity head: the sniffing
    // decoder hands it to FrozenModel.
    let no_head = tiny_no_head_artifact();
    assert_eq!(no_head[variant_pos], 3, "layout drifted; update this test");
    match FrozenArtifact::decode(&no_head) {
        Ok(FrozenArtifact::Uae(frozen)) => assert_eq!(frozen.head, HeadKind::None),
        other => panic!("{other:?}"),
    }
    // Every variant from 4 up is flat-out corrupt, through both decoders.
    for variant in 4..=u8::MAX {
        let mut junk = bytes.clone();
        junk[variant_pos] = variant;
        let corrupt = |e| matches!(e, UaeError::Checkpoint(CheckpointError::Corrupt(_)));
        assert!(
            FrozenModel::decode(&junk).is_err_and(corrupt),
            "variant {variant}"
        );
        assert!(
            FrozenArtifact::decode(&junk).is_err_and(corrupt),
            "variant {variant}"
        );
    }
}

#[test]
fn garbage_and_empty_inputs_are_typed_errors() {
    for bytes in [
        vec![],
        vec![0u8],
        vec![0xFF; 16],
        b"not a uaem file at all".to_vec(),
        vec![0u8; 4096],
    ] {
        match decode_never_panics(&bytes) {
            Some(Err(UaeError::Checkpoint(_))) => {}
            other => panic!("{} bytes of garbage: {other:?}", bytes.len()),
        }
    }
}

/// The memory-mapped open path must give the same typed-error guarantees as
/// the byte-slice decoder: truncated files, bit flips, and hostile header
/// fields come back as `Err`, never a panic and never a wild pointer read.
#[test]
fn open_survives_truncations_and_flips() {
    let dir = std::env::temp_dir().join(format!("uaem_fuzz_open_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bytes = tiny_artifact();
    let path = dir.join("fuzz.uaem");

    std::fs::write(&path, &bytes).unwrap();
    let baseline = FrozenModel::open(&path).expect("baseline must open");
    assert!(
        catch_unwind(AssertUnwindSafe(|| baseline.build())).is_ok(),
        "baseline build panicked"
    );

    // Truncations (strided; the dense sweep is covered on the slice path).
    for cut in (0..bytes.len()).step_by(23).chain([bytes.len() - 1]) {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match catch_unwind(AssertUnwindSafe(|| FrozenModel::open(&path))).ok() {
            Some(Err(UaeError::Checkpoint(_))) => {}
            Some(Err(other)) => panic!("cut={cut}: unexpected error kind {other:?}"),
            Some(Ok(_)) => panic!("cut={cut}: truncated file opened"),
            None => panic!("cut={cut}: open panicked"),
        }
    }

    // Bit flips: whatever opens must also build (or error) without panics —
    // a flipped arena offset that slipped validation would fault here.
    for pos in (0..bytes.len()).step_by(41) {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0xFF;
        std::fs::write(&path, &mutated).unwrap();
        match catch_unwind(AssertUnwindSafe(|| FrozenModel::open(&path))).ok() {
            Some(Err(UaeError::Checkpoint(_))) => {}
            Some(Err(other)) => panic!("pos={pos}: unexpected error kind {other:?}"),
            Some(Ok(frozen)) => {
                let built = catch_unwind(AssertUnwindSafe(|| frozen.build()));
                assert!(built.is_ok(), "pos={pos}: build() panicked");
            }
            None => panic!("pos={pos}: open panicked"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_from_missing_or_corrupt_files_is_typed() {
    let dir = std::env::temp_dir().join("uae_serve_uaem_fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    // Missing file.
    assert!(FrozenModel::read_from(&dir.join("does_not_exist.uaem")).is_err());
    // Corrupt file on disk (the exact shape a failed hot-swap sees).
    let path = dir.join("corrupt.uaem");
    let mut bytes = tiny_artifact();
    let mid = bytes.len() / 2;
    bytes.truncate(mid);
    std::fs::write(&path, &bytes).unwrap();
    match FrozenModel::read_from(&path) {
        Err(UaeError::Checkpoint(_)) => {}
        other => panic!("{other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// Variant 2 (downstream recommenders) rides the same loader, so it owes
/// the same guarantees: every truncation, through both the sniffing decoder
/// and the file reader, is a typed error.
#[test]
fn recommender_truncations_are_typed_errors() {
    let bytes = tiny_recommender();
    assert!(matches!(
        FrozenArtifact::decode(&bytes),
        Ok(FrozenArtifact::Recommender(_))
    ));
    let dir = std::env::temp_dir().join(format!("uaem_fuzz_rec_cut_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rec.uaem");
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        for (via, outcome) in [
            (
                "FrozenArtifact::decode",
                catch_unwind(|| FrozenArtifact::decode(&bytes[..cut]).map(drop)),
            ),
            (
                "FrozenRecommender::read_from",
                catch_unwind(|| FrozenRecommender::read_from(&path).map(drop)),
            ),
        ] {
            match outcome {
                Ok(Err(UaeError::Checkpoint(_))) => {}
                Ok(Err(other)) => panic!("{via} cut={cut}: unexpected error kind {other:?}"),
                Ok(Ok(())) => panic!("{via} cut={cut}: truncated artifact decoded"),
                Err(_) => panic!("{via} cut={cut}: panicked"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Strided bit flips of a variant-2 artifact: decoding is typed, and any
/// flipped file that still decodes must build (or fail typed) without a
/// panic — the plausibility gate keeps a flipped width from allocating.
#[test]
fn recommender_bit_flips_never_panic_decode_or_build() {
    let bytes = tiny_recommender();
    let dir = std::env::temp_dir().join(format!("uaem_fuzz_rec_flip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rec.uaem");
    let positions = (0..256.min(bytes.len())).chain((256..bytes.len()).step_by(37));
    for pos in positions {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0xFF;
        std::fs::write(&path, &mutated).unwrap();
        let decoded = catch_unwind(|| match FrozenArtifact::decode(&mutated) {
            Ok(FrozenArtifact::Recommender(r)) => Ok(Some(r)),
            Ok(FrozenArtifact::Uae(_)) => Ok(None),
            Err(e) => Err(e),
        });
        let read = catch_unwind(|| FrozenRecommender::read_from(&path).map(Some));
        for (via, outcome) in [
            ("FrozenArtifact::decode", decoded),
            ("FrozenRecommender::read_from", read),
        ] {
            match outcome {
                Ok(Err(UaeError::Checkpoint(_))) | Ok(Ok(None)) => {}
                Ok(Err(other)) => panic!("{via} pos={pos}: unexpected error kind {other:?}"),
                Ok(Ok(Some(frozen))) => {
                    let built = catch_unwind(AssertUnwindSafe(|| frozen.build().map(drop)));
                    assert!(built.is_ok(), "{via} pos={pos}: build() panicked");
                }
                Err(_) => panic!("{via} pos={pos}: panicked"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
