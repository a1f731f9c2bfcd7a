//! Pins the initial parameter values every model constructor draws.
//!
//! A model is built in two steps: the constructor registers each
//! parameter's name, shape and init scheme, and `Params::init` then draws
//! the values in registration order (Θ_g before Θ_h). The fingerprints
//! below are the FNV-1a of `save_params` of a freshly built model at a fixed
//! seed, captured when every layer still drew its values inside its own
//! constructor: the init step must reproduce that draw order byte for byte,
//! for every network the repository builds.

use uae_core::{EstimatorSpec, Uae, UaeConfig};
use uae_data::{generate, SimConfig};
use uae_models::{ModelConfig, ModelKind};
use uae_tensor::{save_params, Params, Rng};

/// FNV-1a 64 over `save_params` bytes.
fn fingerprint(params: &Params) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in save_params(params) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn small_cfg() -> UaeConfig {
    UaeConfig {
        gru_hidden: 12,
        mlp_hidden: vec![12],
        seed: 5,
        ..Default::default()
    }
}

#[test]
fn uae_constructors_draw_the_pinned_initial_values() {
    let schema = generate(&SimConfig::tiny(), 3).schema;
    let cases = [
        (
            "dual",
            Uae::new(&schema, small_cfg()),
            (0x9b1e1ff25522d9c1, 0x6aaaffcb9c808f6f),
        ),
        (
            "sar",
            Uae::new_sar(&schema, small_cfg()),
            (0x32c3d67bbd18a5cf, 0xed2330e273b90a1f),
        ),
        (
            "pn",
            Uae::new(
                &schema,
                UaeConfig {
                    estimator: EstimatorSpec::Pn,
                    ..small_cfg()
                },
            ),
            (0x9b1e1ff25522d9c1, 0x15220f832bfa0207),
        ),
        (
            "hashed",
            Uae::new(
                &schema,
                UaeConfig {
                    hash_buckets: 16,
                    ..small_cfg()
                },
            ),
            (0xe46ce217ccc446b8, 0x3e31edde06c9fdc3),
        ),
    ];
    for (name, uae, expect) in cases {
        let got = (
            fingerprint(uae.attention_params()),
            fingerprint(uae.propensity_params()),
        );
        assert_eq!(got, expect, "{name}: initial values drifted");
    }
}

#[test]
fn model_kinds_draw_the_pinned_initial_values() {
    let schema = generate(&SimConfig::tiny(), 3).schema;
    let cases = [
        (ModelKind::Fm, 0x231b6646caf7b83c),
        (ModelKind::WideDeep, 0x113a348b2fff6a94),
        (ModelKind::DeepFm, 0xc384c2f43f3c0c80),
        (ModelKind::YoutubeNet, 0x8e39a1d3b60f3551),
        (ModelKind::Dcn, 0xec9c4083965b73fe),
        (ModelKind::AutoInt, 0xe68c42547cef5ac4),
        (ModelKind::DcnV2, 0x12f8beeaf769b653),
    ];
    for (kind, expect) in cases {
        let (_, params) = kind.build(&schema, &ModelConfig::default(), &mut Rng::seed_from_u64(9));
        assert_eq!(
            fingerprint(&params),
            expect,
            "{}: initial values drifted",
            kind.name()
        );
    }
}
