//! Embedding scale-out accuracy report on the million-user preset.
//!
//! `SimConfig::million_users()` has a 1.2M-user id space, so dense per-id
//! embedding tables dominate the artifact. Three questions, printed as a
//! report:
//!
//! * **Collision rate** — fraction of categories per field whose full
//!   multi-hash signature collides under the report's bucket config,
//!   straight from [`HashedEmbedding`]'s construction-time measurement.
//! * **Accuracy cost** — attention AUC (vs simulator ground truth) of a
//!   hashed model against an otherwise identical dense model, trained the
//!   same way on the same sessions. With ~2k sessions over 1.2M users,
//!   dense per-id rows are seen at most once or twice and stay noise,
//!   while bucketed rows aggregate across ids — so hashing may *help*.
//! * **Artifact size** — `.uaem` bytes of the dense and the hashed model.
//!
//! Load time and resident memory of the 40 MB artifact are measured by the
//! benchmark's `serve-swap` workload, not here.

use uae_core::{AttentionEstimator, Uae, UaeConfig};
use uae_data::{generate, schema_for, Dataset, SimConfig};
use uae_metrics::auc;
use uae_nn::{HashConfig, HashedEmbedding};
use uae_serve::FrozenModel;
use uae_tensor::Params;

const BUCKETS: usize = 1 << 16;
const NUM_HASHES: usize = 2;

/// Trains a 1-epoch UAE (dense when `hash_buckets == 0`) and returns its
/// attention AUC against simulator ground truth and its `.uaem` size.
fn train(ds: &Dataset, sessions: &[usize], hash_buckets: usize) -> (f64, usize) {
    let cfg = UaeConfig {
        gru_hidden: 16,
        mlp_hidden: vec![16],
        epochs: 1,
        seed: 7,
        hash_buckets,
        ..UaeConfig::default()
    };
    let mut uae = Uae::new(&ds.schema, cfg);
    uae.fit(ds, sessions);
    let scores = uae.predict(ds, sessions);
    let labels: Vec<bool> = sessions
        .iter()
        .flat_map(|&s| ds.sessions[s].events.iter().map(|e| e.truth.attention))
        .collect();
    let bytes = FrozenModel::from_uae(&uae, &ds.schema, 15.0).encode().len();
    (auc(&scores, &labels).unwrap_or(0.5), bytes)
}

fn main() {
    uae_bench::init_telemetry("embed_accuracy");
    let cfg = SimConfig::million_users();
    let ds = generate(&cfg, 97);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    println!(
        "=== Embedding scale-out: preset {} ({} users, {} songs; {} sessions, {} events) ===\n",
        cfg.name,
        cfg.num_users,
        cfg.num_songs,
        sessions.len(),
        ds.num_events()
    );

    // Collision measurement over the real schema's
    // cardinalities (seeded mapping — independent of init values and training).
    let schema = schema_for(&cfg);
    let probe = HashedEmbedding::new(
        "probe",
        &schema.cat_cardinalities,
        4,
        HashConfig::new(BUCKETS, NUM_HASHES),
        &mut Params::new(),
    );
    let max_collision = probe.collision_rates().iter().cloned().fold(0.0, f64::max);
    println!(
        "collision rate ({BUCKETS} buckets, {NUM_HASHES} hashes): mean {:.6}, max {max_collision:.6}",
        probe.mean_collision_rate()
    );

    let (dense_auc, dense_bytes) = train(&ds, &sessions, 0);
    let (hashed_auc, hashed_bytes) = train(&ds, &sessions, BUCKETS);
    println!(
        "attention AUC: dense {dense_auc:.4}, hashed {hashed_auc:.4} (dense − hashed {:+.4})",
        dense_auc - hashed_auc
    );
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    println!(
        "artifact: dense {:.1} MiB, hashed {:.1} MiB ({:.1}x smaller)",
        mib(dense_bytes),
        mib(hashed_bytes),
        dense_bytes as f64 / hashed_bytes.max(1) as f64
    );
    uae_bench::flush_telemetry();
}
