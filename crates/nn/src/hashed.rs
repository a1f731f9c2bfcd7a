//! Hashed embedding tables for high-cardinality categorical features.
//!
//! Dense [`FieldEmbeddings`] allocate one row per category, so model size
//! grows linearly with the user universe — untenable at the "millions of
//! users" scale the roadmap targets. [`HashedEmbedding`] caps each field's
//! table at a configurable bucket count and maps categories in with `k`
//! independent hash functions plus a sign hash (the "hashing trick" with
//! collision mitigation): a category's vector is
//!
//! ```text
//! e(id) = (1/√k) · Σ_j  sign_j(id) · T[bucket_j(id)]
//! ```
//!
//! Two colliding ids only share a *full* representation when all `k`
//! bucket picks **and** all `k` signs agree, which drives the effective
//! collision rate far below `1/buckets`. Hashing is seeded and fully
//! deterministic — the seed is part of the artifact contract (a model
//! trained hashed must hash identically at serve time), so it defaults to a
//! fixed constant rather than any training seed.
//!
//! Collision rates are measured exactly (or by stride-sampling for huge
//! cardinalities) on call, and exported as `nn.hash.*` gauges through
//! [`uae_obs`] at construction when telemetry is on; a build with no sink
//! does O(fields) work, like a dense one.
//!
//! [`EmbeddingBank`] is the switch point: every network embeds through it,
//! and a [`HashConfig`] in the model config flips a field bank from dense
//! to hashed without touching any forward pass.

use uae_tensor::{Exec, Init, Matrix, ParamId, Params};

use crate::embedding::FieldEmbeddings;

/// Default hash seed. **Part of the `.uaem` format contract**: training and
/// serving must bucket identically, so this is a fixed constant, not a
/// function of the run's RNG seed.
pub const DEFAULT_HASH_SEED: u64 = 0x5541_4533_4841_5348; // "UAE3HASH"

/// splitmix64 finalizer — the workspace's standard bit mixer. Public so the
/// serving daemon can shard work by the *same* feature-hash space the
/// embedding tables bucket in.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration for a [`HashedEmbedding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashConfig {
    /// Maximum rows per field table. Fields with cardinality below this
    /// stay exact (a table never allocates more rows than categories).
    pub buckets: usize,
    /// Number of independent hash functions (`k` above). Each adds one
    /// gather per field; 2 is a good default.
    pub num_hashes: usize,
    /// Hash seed; leave at [`DEFAULT_HASH_SEED`] unless deliberately
    /// re-bucketing (which invalidates previously trained weights).
    pub seed: u64,
}

impl HashConfig {
    /// A config with the fixed default seed.
    pub fn new(buckets: usize, num_hashes: usize) -> Self {
        HashConfig {
            buckets,
            num_hashes: num_hashes.max(1),
            seed: DEFAULT_HASH_SEED,
        }
    }
}

/// Multi-hash embedding tables with sign-hash collision mitigation.
///
/// Same [`Exec`]-generic forward interface as [`FieldEmbeddings`], so it
/// trains on the tape and serves tape-free from one forward body.
///
/// ```
/// use uae_nn::hashed::{HashConfig, HashedEmbedding};
/// use uae_tensor::{Params, Rng, Tape, ValueExec};
///
/// let mut params = Params::new();
/// let mut rng = Rng::seed_from_u64(7);
/// // One field of 10_000 categories squeezed into 256 buckets, 2 hashes.
/// let emb = HashedEmbedding::new("e", &[10_000], 8, HashConfig::new(256, 2), &mut params);
/// params.init(&mut rng);
/// assert_eq!(emb.table_rows(), &[256]);
/// // 2 hashes × sign bits: the full-signature space is (256·2)² ≈ 262k,
/// // so 10k categories collide far less than the 1/256 a single hash gives.
/// assert!(emb.collision_rates()[0] < 0.05);
///
/// // The same lookup under both engines is bit-identical.
/// let mut tape = Tape::new();
/// let trained = emb.forward_field(&mut tape, &params, 0, &[3, 9_999]);
/// let mut vx = ValueExec::new();
/// let served = emb.forward_field(&mut vx, &params, 0, &[3, 9_999]);
/// assert_eq!(tape.value(trained).data(), served.data());
/// ```
#[derive(Debug, Clone)]
pub struct HashedEmbedding {
    tables: Vec<ParamId>,
    cardinalities: Vec<usize>,
    rows: Vec<usize>,
    dim: usize,
    config: HashConfig,
}

impl HashedEmbedding {
    /// Registers one `min(buckets, cardinality)`-row table per field. When
    /// telemetry is on, also measures the per-field collision rates and
    /// exports them as `nn.hash.collision_rate.field{f}` gauges.
    pub fn new(
        name: &str,
        cardinalities: &[usize],
        dim: usize,
        config: HashConfig,
        params: &mut Params,
    ) -> Self {
        assert!(config.buckets > 0, "HashConfig.buckets must be positive");
        let config = HashConfig {
            num_hashes: config.num_hashes.max(1),
            ..config
        };
        let rows: Vec<usize> = cardinalities
            .iter()
            .map(|&card| config.buckets.min(card.max(1)))
            .collect();
        let tables = rows
            .iter()
            .enumerate()
            .map(|(f, &r)| params.register(format!("{name}.hashed{f}"), r, dim, Init::Embedding))
            .collect();
        let emb = HashedEmbedding {
            tables,
            cardinalities: cardinalities.to_vec(),
            rows,
            dim,
            config,
        };
        if uae_obs::enabled() {
            let rates = emb.collision_rates();
            for (f, rate) in rates.iter().enumerate() {
                uae_obs::gauge(&format!("nn.hash.collision_rate.field{f}"), *rate);
                uae_obs::gauge(&format!("nn.hash.table_rows.field{f}"), emb.rows[f] as f64);
            }
            uae_obs::gauge("nn.hash.collision_rate.mean", mean(&rates));
        }
        emb
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.tables.len()
    }

    /// Output width of [`HashedEmbedding::forward_concat`].
    pub fn concat_dim(&self) -> usize {
        self.dim * self.tables.len()
    }

    /// Allocated rows per field (`min(buckets, cardinality)`).
    pub fn table_rows(&self) -> &[usize] {
        &self.rows
    }

    /// The hash configuration in force.
    pub fn config(&self) -> &HashConfig {
        &self.config
    }

    /// Fraction of (sampled) categories per field whose full multi-hash
    /// signature collides with an earlier category's. Measured on call:
    /// linear in each hashed field's cardinality (up to a 2M-id sample).
    pub fn collision_rates(&self) -> Vec<f64> {
        (0..self.num_fields())
            .map(|f| self.measure_collision_rate(f))
            .collect()
    }

    /// Mean of [`HashedEmbedding::collision_rates`] over fields.
    pub fn mean_collision_rate(&self) -> f64 {
        mean(&self.collision_rates())
    }

    /// Per-hash stream seed for `(field, hash_j)`.
    #[inline]
    fn stream(&self, field: usize, j: usize) -> u64 {
        mix64(
            self.config
                .seed
                .wrapping_add((field as u64).wrapping_mul(0xA24B_AED4_963E_E407))
                .wrapping_add((j as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25)),
        )
    }

    /// `(bucket, sign)` of `id` under hash function `j` of `field`.
    #[inline]
    fn bucket_sign(&self, field: usize, j: usize, id: usize) -> (usize, f32) {
        let h = mix64(self.stream(field, j) ^ id as u64);
        let bucket = (h % self.rows[field] as u64) as usize;
        let sign = if h >> 63 == 0 { 1.0 } else { -1.0 };
        (bucket, sign)
    }

    /// Exact (or stride-sampled beyond ~2M categories) full-signature
    /// collision rate for one field.
    fn measure_collision_rate(&self, field: usize) -> f64 {
        const EXACT_LIMIT: usize = 1 << 21;
        let card = self.cardinalities[field].max(1);
        if self.rows[field] >= card {
            return 0.0; // exact table: identity-capable, no forced sharing
        }
        let stride = card.div_ceil(EXACT_LIMIT).max(1);
        let mut seen = std::collections::HashSet::new();
        let mut sampled = 0u64;
        let mut collisions = 0u64;
        let mut id = 0usize;
        while id < card {
            // Fold the full signature (all k bucket/sign picks) to a u64.
            let mut sig = 0xcbf2_9ce4_8422_2325u64;
            for j in 0..self.config.num_hashes {
                let (b, s) = self.bucket_sign(field, j, id);
                sig = mix64(sig ^ b as u64 ^ ((s < 0.0) as u64) << 62);
            }
            sampled += 1;
            if !seen.insert(sig) {
                collisions += 1;
            }
            id += stride;
        }
        collisions as f64 / sampled as f64
    }

    /// Gathers one field: `ids[i]` is the category of sample `i`.
    ///
    /// One gather + sign-mask + add per hash function, then a `1/√k`
    /// rescale so the output variance matches a dense lookup.
    pub fn forward_field<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        field: usize,
        ids: &[usize],
    ) -> E::V {
        debug_assert!(ids.iter().all(|&id| id < self.cardinalities[field].max(1)));
        let k = self.config.num_hashes;
        let mut acc: Option<E::V> = None;
        for j in 0..k {
            let mut buckets = Vec::with_capacity(ids.len());
            let mut signs = Vec::with_capacity(ids.len());
            for &id in ids {
                let (b, s) = self.bucket_sign(field, j, id);
                buckets.push(b);
                signs.push(s);
            }
            let gathered = exec.gather(params, self.tables[field], &buckets);
            let sign_col = exec.input(Matrix::col_vector(&signs));
            let term = exec.mul_col(&gathered, &sign_col);
            acc = Some(match acc {
                Some(a) => exec.add(&a, &term),
                None => term,
            });
        }
        let acc = acc.expect("num_hashes >= 1");
        exec.scale(&acc, 1.0 / (k as f32).sqrt())
    }

    /// Gathers every field and concatenates: `batch × (F·dim)`.
    pub fn forward_concat<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        ids_by_field: &[Vec<usize>],
    ) -> E::V {
        assert_eq!(ids_by_field.len(), self.tables.len(), "field count");
        let parts: Vec<E::V> = ids_by_field
            .iter()
            .enumerate()
            .map(|(f, ids)| self.forward_field(exec, params, f, ids))
            .collect();
        exec.concat_cols(&parts.iter().collect::<Vec<_>>())
    }

    /// Gathers every field separately (for FM-style interactions).
    pub fn forward_fields<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        ids_by_field: &[Vec<usize>],
    ) -> Vec<E::V> {
        assert_eq!(ids_by_field.len(), self.tables.len(), "field count");
        ids_by_field
            .iter()
            .enumerate()
            .map(|(f, ids)| self.forward_field(exec, params, f, ids))
            .collect()
    }
}

/// Mean of `rates` (0 for no fields).
fn mean(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        0.0
    } else {
        rates.iter().sum::<f64>() / rates.len() as f64
    }
}

/// A field-embedding bank that is either dense (one row per category) or
/// hashed (bucketed, multi-hash). Networks embed through this enum so a
/// single config switch retargets every model, dense or hashed, with no
/// forward-pass changes.
#[derive(Debug, Clone)]
pub enum EmbeddingBank {
    Dense(FieldEmbeddings),
    Hashed(HashedEmbedding),
}

impl EmbeddingBank {
    /// Builds a dense bank, or a hashed bank when `hash` is set.
    pub fn new(
        name: &str,
        cardinalities: &[usize],
        dim: usize,
        hash: Option<HashConfig>,
        params: &mut Params,
    ) -> Self {
        match hash {
            None => EmbeddingBank::Dense(FieldEmbeddings::new(name, cardinalities, dim, params)),
            Some(cfg) => {
                EmbeddingBank::Hashed(HashedEmbedding::new(name, cardinalities, dim, cfg, params))
            }
        }
    }

    pub fn dim(&self) -> usize {
        match self {
            EmbeddingBank::Dense(e) => e.dim(),
            EmbeddingBank::Hashed(e) => e.dim(),
        }
    }

    pub fn num_fields(&self) -> usize {
        match self {
            EmbeddingBank::Dense(e) => e.num_fields(),
            EmbeddingBank::Hashed(e) => e.num_fields(),
        }
    }

    pub fn concat_dim(&self) -> usize {
        match self {
            EmbeddingBank::Dense(e) => e.concat_dim(),
            EmbeddingBank::Hashed(e) => e.concat_dim(),
        }
    }

    pub fn is_hashed(&self) -> bool {
        matches!(self, EmbeddingBank::Hashed(_))
    }

    pub fn forward_field<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        field: usize,
        ids: &[usize],
    ) -> E::V {
        match self {
            EmbeddingBank::Dense(e) => e.forward_field(exec, params, field, ids),
            EmbeddingBank::Hashed(e) => e.forward_field(exec, params, field, ids),
        }
    }

    pub fn forward_concat<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        ids_by_field: &[Vec<usize>],
    ) -> E::V {
        match self {
            EmbeddingBank::Dense(e) => e.forward_concat(exec, params, ids_by_field),
            EmbeddingBank::Hashed(e) => e.forward_concat(exec, params, ids_by_field),
        }
    }

    pub fn forward_fields<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        ids_by_field: &[Vec<usize>],
    ) -> Vec<E::V> {
        match self {
            EmbeddingBank::Dense(e) => e.forward_fields(exec, params, ids_by_field),
            EmbeddingBank::Hashed(e) => e.forward_fields(exec, params, ids_by_field),
        }
    }

    /// Full encode `[fields… | dense]`. The dense bank rides the fused
    /// [`Exec::gather_concat`] path; the hashed bank expands to per-field
    /// multi-hash gathers plus one concat — both produce
    /// `batch × (F·dim + num_dense)`.
    pub fn encode_full<E: Exec>(
        &self,
        exec: &mut E,
        params: &Params,
        ids_by_field: &[Vec<usize>],
        dense: &Matrix,
    ) -> E::V {
        match self {
            EmbeddingBank::Dense(e) => exec.gather_concat(params, e.tables(), ids_by_field, dense),
            EmbeddingBank::Hashed(e) => {
                let mut parts = e.forward_fields(exec, params, ids_by_field);
                if dense.cols() > 0 {
                    parts.push(exec.input(dense.clone()));
                }
                exec.concat_cols(&parts.iter().collect::<Vec<_>>())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_tensor::{Rng, Tape, ValueExec};

    fn build(buckets: usize, k: usize) -> (HashedEmbedding, Params) {
        let mut rng = Rng::seed_from_u64(5);
        let mut params = Params::new();
        let emb = HashedEmbedding::new(
            "h",
            &[1000, 50],
            4,
            HashConfig::new(buckets, k),
            &mut params,
        );
        params.init(&mut rng);
        (emb, params)
    }

    #[test]
    fn table_rows_cap_at_cardinality() {
        let (emb, _) = build(64, 2);
        assert_eq!(emb.table_rows(), &[64, 50]);
        // Exact field reports zero collisions.
        assert_eq!(emb.collision_rates()[1], 0.0);
        assert!(emb.collision_rates()[0] > 0.0); // 1000 ids into 64 buckets
        assert!(emb.collision_rates()[0] < 0.05); // ...but 2 hashes + signs mitigate
    }

    #[test]
    fn a_build_under_a_sink_emits_the_mean_collision_gauge() {
        let sink = std::sync::Arc::new(uae_obs::MemorySink::new());
        let (emb, _) = uae_obs::with_sink(sink.clone(), || build(64, 2));
        let mean = uae_obs::Event::Gauge {
            name: "nn.hash.collision_rate.mean".into(),
            value: emb.mean_collision_rate(),
        };
        assert!(sink.events().contains(&mean), "{:?}", sink.events());
    }

    #[test]
    fn forward_is_deterministic_and_seed_sensitive() {
        let (emb, params) = build(64, 2);
        let ids = vec![vec![0, 7, 999, 7], vec![3, 3, 49, 0]];
        let mut a = ValueExec::new();
        let out1 = emb.forward_concat(&mut a, &params, &ids);
        let mut b = ValueExec::new();
        let out2 = emb.forward_concat(&mut b, &params, &ids);
        assert_eq!(out1, out2);

        // A different seed re-buckets: same tables, different lookups.
        let mut other = emb.clone();
        other.config.seed ^= 1;
        let mut c = ValueExec::new();
        let out3 = other.forward_concat(&mut c, &params, &ids);
        assert_ne!(out1, out3);
    }

    #[test]
    fn tape_and_value_exec_agree_bitwise() {
        let (emb, params) = build(32, 3);
        let ids = vec![vec![1, 2, 500], vec![0, 49, 25]];
        let mut tape = Tape::new();
        let t = emb.forward_concat(&mut tape, &params, &ids);
        let mut vx = ValueExec::new();
        let v = emb.forward_concat(&mut vx, &params, &ids);
        assert_eq!(tape.value(t).data(), v.data());
        assert_eq!(v.shape(), (3, emb.concat_dim()));
    }

    #[test]
    fn gradients_flow_into_hashed_tables() {
        let (emb, mut params) = build(16, 2);
        let table = emb.tables[0];
        let mut tape = Tape::new();
        let out = emb.forward_field(&mut tape, &params, 0, &[5, 11]);
        let s = tape.sum_all(out);
        params.zero_grads();
        tape.backward(s, &mut params);
        let g = params.grad(table);
        let nonzero = g.data().iter().filter(|v| **v != 0.0).count();
        // Each sample touches k=2 rows (possibly overlapping), dim=4 each.
        assert!(nonzero > 0 && nonzero <= 2 * 2 * 4);
    }

    #[test]
    fn same_signature_means_same_vector() {
        // Two ids that agree on every (bucket, sign) pick must embed
        // identically — the collision the rate metric counts.
        let (emb, params) = build(4, 1);
        let mut sig = std::collections::HashMap::new();
        let mut vx = ValueExec::new();
        for id in 0..1000usize {
            let (b, s) = emb.bucket_sign(0, 0, id);
            let key = (b, s < 0.0);
            let row = emb.forward_field(&mut vx, &params, 0, &[id]);
            let entry = sig.entry(key).or_insert_with(|| row.clone());
            assert_eq!(entry.data(), row.data(), "id {id}");
        }
    }

    #[test]
    fn bank_encode_full_dense_vs_hashed_shapes_match() {
        let mut rng = Rng::seed_from_u64(9);
        let mut params = Params::new();
        let dense_bank = EmbeddingBank::new("d", &[100, 20], 4, None, &mut params);
        let hashed_bank = EmbeddingBank::new(
            "h",
            &[100, 20],
            4,
            Some(HashConfig::new(32, 2)),
            &mut params,
        );
        params.init(&mut rng);
        let ids = vec![vec![0, 99], vec![19, 3]];
        let dense_block = Matrix::from_vec(2, 3, vec![0.1; 6]);
        let mut vx = ValueExec::new();
        let a = dense_bank.encode_full(&mut vx, &params, &ids, &dense_block);
        let b = hashed_bank.encode_full(&mut vx, &params, &ids, &dense_block);
        assert_eq!(a.shape(), (2, 11));
        assert_eq!(b.shape(), (2, 11));
        // Dense tail is carried through unchanged on both paths.
        assert_eq!(&a.row(0)[8..], &[0.1, 0.1, 0.1]);
        assert_eq!(&b.row(0)[8..], &[0.1, 0.1, 0.1]);
        assert!(!dense_bank.is_hashed() && hashed_bank.is_hashed());
    }
}
