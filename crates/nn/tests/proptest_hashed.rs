//! Property-based tests of the hashed-embedding determinism contract.
//!
//! The bucket/sign mapping is part of the `.uaem` format: a model trained
//! with hashed tables must bucket identically when the serving process
//! rebuilds it — across processes, across runs, and at any thread count.
//! These properties pin that contract against arbitrary configurations.

#![cfg(feature = "proptest")]

use proptest::prelude::*;
use uae_nn::{HashConfig, HashedEmbedding};
use uae_tensor::{with_num_threads, Params, Rng, ValueExec};

/// Builds a hashed table stack and gathers `ids` through every field,
/// returning the raw output values.
fn lookup(
    cards: &[usize],
    dim: usize,
    buckets: usize,
    k: usize,
    init_seed: u64,
    ids: &[usize],
) -> Vec<f32> {
    let mut rng = Rng::seed_from_u64(init_seed);
    let mut params = Params::new();
    let emb = HashedEmbedding::new("p", cards, dim, HashConfig::new(buckets, k), &mut params);
    params.init(&mut rng);
    let mut exec = ValueExec::new();
    let ids_by_field: Vec<Vec<usize>> = cards
        .iter()
        .map(|&c| ids.iter().map(|&i| i % c.max(1)).collect())
        .collect();
    let out = emb.forward_concat(&mut exec, &params, &ids_by_field);
    out.data().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same seed + config ⇒ bit-identical lookups, at 1 and at 4 worker
    /// threads. This is the determinism the sharded daemon workers and the
    /// train/serve split both lean on.
    #[test]
    fn lookups_are_bit_identical_across_builds_and_thread_counts(
        cards in proptest::collection::vec(1usize..500, 1..4),
        dim in 1usize..8,
        buckets in 1usize..64,
        k in 1usize..4,
        init_seed in any::<u64>(),
        ids in proptest::collection::vec(0usize..10_000, 1..32),
    ) {
        let base = with_num_threads(1, || lookup(&cards, dim, buckets, k, init_seed, &ids));
        let rebuilt = with_num_threads(1, || lookup(&cards, dim, buckets, k, init_seed, &ids));
        prop_assert_eq!(&base, &rebuilt, "two builds with the same seed diverged");
        let threaded = with_num_threads(4, || lookup(&cards, dim, buckets, k, init_seed, &ids));
        prop_assert_eq!(&base, &threaded, "thread count changed hashed lookups");
    }

    /// The bucket/sign stream ignores the table-init RNG: two stacks with
    /// different init seeds route every id to the same bucket (their table
    /// *values* differ, but collision structure is seed-independent). Pinned
    /// by checking collision rates, which are pure functions of the mapping.
    #[test]
    fn bucket_mapping_is_independent_of_init_rng(
        cards in proptest::collection::vec(1usize..300, 1..4),
        buckets in 1usize..64,
        k in 1usize..4,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let rates = |seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let mut params = Params::new();
            let emb = HashedEmbedding::new(
                "p", &cards, 2, HashConfig::new(buckets, k), &mut params,);
            params.init(&mut rng);
            emb.collision_rates().to_vec()
        };
        prop_assert_eq!(rates(seed_a), rates(seed_b));
    }
}
