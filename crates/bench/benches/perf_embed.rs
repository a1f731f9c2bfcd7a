//! Embedding scale-out benchmark (perf_embed).
//!
//! Runs the million-user regime the hashed/sharded embedding work exists
//! for: `SimConfig::million_users()` has a 1.2M-user id space, so dense
//! per-id embedding tables dominate the artifact and the load path. Four
//! questions, each answered with a committed number:
//!
//! * **Cold start** — how long until a `.uaem` artifact is decoded?
//!   `read_from` (copy transport: the whole file read into one aligned
//!   heap region) vs `open` (mmap: the file is mapped and pages fault in
//!   lazily). Both parse the same header and point the weight matrices
//!   into their region the same way. The CI gate requires `open` ≥ 5x faster on
//!   the committed full-size run.
//! * **Resident memory** — RSS delta of holding the loaded artifact, for
//!   the copy and mapped paths, each measured in a *fresh child process*
//!   (this same binary re-exec'd with `--rss-probe`) so allocator reuse in
//!   the parent can't mask the cost (`/proc/self/statm`; 0 where absent).
//!   Copy decode pays the artifact size in anonymous pages; the mapped
//!   artifact is file-backed and near-free until pages are touched.
//! * **Collision rate** — fraction of categories per field whose full
//!   multi-hash signature collides under the benchmark bucket config,
//!   straight from [`HashedEmbedding`]'s construction-time measurement.
//! * **Accuracy cost** — attention AUC (vs simulator ground truth) of a
//!   hashed model against an otherwise identical dense model, trained the
//!   same way on the same sessions. The CI gate is one-sided: hashing may
//!   not *cost* more than 0.05 AUC. In this regime it actually helps —
//!   with ~2k sessions over 1.2M users, dense per-id rows are seen at most
//!   once or twice and stay noise, while bucketed rows aggregate across
//!   ids — so the committed delta is negative.
//!
//! Results are spliced into the committed `BENCH_perf.json` as a
//! `perf_embed` section. `UAE_BENCH_SMOKE=1` shrinks the population for
//! the CI smoke step; the committed numbers come from a full run.

use std::io::Write as _;
use std::time::Instant;

use uae_core::{AttentionEstimator, Uae, UaeConfig};
use uae_data::{generate, schema_for, Dataset, SimConfig};
use uae_metrics::auc;
use uae_nn::{HashConfig, HashedEmbedding};
use uae_serve::FrozenModel;
use uae_tensor::{Params, Rng};

fn smoke() -> bool {
    std::env::var("UAE_BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Resident set size in bytes from `/proc/self/statm` (0 where absent, so
/// the bench still runs on non-Linux hosts — the JSON records 0 deltas).
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|p| p.parse::<u64>().ok())
        })
        .map(|pages| pages * 4096)
        .unwrap_or(0)
}

/// Median wall-clock milliseconds of `reps` runs of `f` (no warm-up: cold
/// start is the thing being measured, and the OS page cache is warm for
/// both contestants equally after the file was just written).
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Trains a 1-epoch UAE (dense when `hash_buckets == 0`) and returns it
/// with its attention AUC against simulator ground truth.
fn train_and_auc(ds: &Dataset, sessions: &[usize], hash_buckets: usize) -> (Uae, f64) {
    let cfg = UaeConfig {
        gru_hidden: if smoke() { 8 } else { 16 },
        mlp_hidden: vec![if smoke() { 8 } else { 16 }],
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
    let a = auc(&scores, &labels).unwrap_or(0.5);
    (uae, a)
}

/// Child-process mode: load one artifact via the named path and print the
/// RSS delta the load cost, so the parent gets a clean-heap measurement.
fn rss_probe(mode: &str, path: &str) {
    let path = std::path::Path::new(path);
    let before = rss_bytes();
    let frozen = match mode {
        "copy" => FrozenModel::read_from(path).expect("copy decode"),
        "mmap" => FrozenModel::open(path).expect("mmap open"),
        other => panic!("unknown rss probe mode {other}"),
    };
    let delta = rss_bytes().saturating_sub(before);
    std::hint::black_box(&frozen);
    println!("{delta}");
}

/// Re-execs this binary as an `--rss-probe` child and parses its answer.
fn rss_in_child(mode: &str, path: &std::path::Path) -> u64 {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(exe)
        .args(["--rss-probe", mode])
        .arg(path)
        .output()
        .expect("spawn rss probe child");
    assert!(out.status.success(), "rss probe {mode} failed: {out:?}");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("rss probe output is one integer")
}

fn main() {
    let cli: Vec<String> = std::env::args().collect();
    if cli.len() == 4 && cli[1] == "--rss-probe" {
        rss_probe(&cli[2], &cli[3]);
        return;
    }
    let reps = if smoke() { 3 } else { 7 };
    let cfg = if smoke() {
        // Same shape, shrunk population: wide id space, few sessions.
        let mut c = SimConfig::tiny();
        c.name = "million-users-smoke".into();
        c.num_users = 120_000;
        c
    } else {
        SimConfig::million_users()
    };
    let buckets = if smoke() { 1 << 13 } else { 1 << 16 };
    let num_hashes = 2;

    eprintln!(
        "perf_embed: preset {} ({} users, {} songs), smoke={}",
        cfg.name,
        cfg.num_users,
        cfg.num_songs,
        smoke()
    );
    let gen_started = Instant::now();
    let ds = generate(&cfg, 97);
    let gen_s = gen_started.elapsed().as_secs_f64();
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    eprintln!(
        "  generated {} sessions / {} events in {gen_s:.1} s",
        sessions.len(),
        ds.num_events()
    );

    // Construction-time collision measurement over the real schema
    // cardinalities (seeded mapping — independent of init RNG and training).
    let schema = schema_for(&cfg);
    let cards: Vec<usize> = schema.cat_cardinalities.clone();
    let mut probe_params = Params::new();
    let mut probe_rng = Rng::seed_from_u64(1);
    let probe = HashedEmbedding::new(
        "probe",
        &cards,
        4,
        HashConfig::new(buckets, num_hashes),
        &mut probe_params,
        &mut probe_rng,
    );
    let mean_collision = probe.mean_collision_rate();
    let max_collision = probe
        .collision_rates()
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    eprintln!("  collision rate: mean {mean_collision:.4}, max {max_collision:.4}");

    // Accuracy cost: dense vs hashed, same data, same training budget.
    let (dense_uae, dense_auc) = train_and_auc(&ds, &sessions, 0);
    let (hashed_uae, hashed_auc) = train_and_auc(&ds, &sessions, buckets);
    let auc_delta = dense_auc - hashed_auc;
    eprintln!("  attention AUC: dense {dense_auc:.4}, hashed {hashed_auc:.4} (Δ {auc_delta:+.4})");

    // Artifacts: the dense one carries the full per-id tables, the hashed
    // one carries only the bucketed tables.
    let dir = std::env::temp_dir().join(format!("uae_perf_embed_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let dense_path = dir.join("dense.uaem");
    let hashed_path = dir.join("hashed.uaem");
    FrozenModel::from_uae(&dense_uae, &ds.schema, 15.0)
        .write_to(&dense_path)
        .expect("write dense artifact");
    FrozenModel::from_uae(&hashed_uae, &ds.schema, 15.0)
        .write_to(&hashed_path)
        .expect("write hashed artifact");
    drop(dense_uae);
    drop(hashed_uae);
    let dense_bytes = std::fs::metadata(&dense_path).unwrap().len();
    let hashed_bytes = std::fs::metadata(&hashed_path).unwrap().len();
    eprintln!(
        "  artifact: dense {:.1} MiB, hashed {:.1} MiB ({:.1}x smaller)",
        dense_bytes as f64 / (1 << 20) as f64,
        hashed_bytes as f64 / (1 << 20) as f64,
        dense_bytes as f64 / hashed_bytes.max(1) as f64
    );

    // Cold-start decode: copy vs mmap, on the big (dense) artifact.
    let copy_ms = median_ms(reps, || {
        std::hint::black_box(FrozenModel::read_from(&dense_path).expect("copy decode"));
    });
    let mmap_ms = median_ms(reps, || {
        std::hint::black_box(FrozenModel::open(&dense_path).expect("mmap open"));
    });
    let speedup = copy_ms / mmap_ms.max(1e-6);
    eprintln!("  cold load: copy {copy_ms:.2} ms, mmap {mmap_ms:.2} ms ({speedup:.1}x)");

    // Resident-memory cost of holding the loaded artifact, each path in a
    // fresh child process so the parent's allocator reuse can't mask it.
    let copy_rss = rss_in_child("copy", &dense_path);
    let mmap_rss = rss_in_child("mmap", &dense_path);
    eprintln!(
        "  rss delta of load (fresh process): copy {:.1} MiB, mmap {:.1} MiB",
        copy_rss as f64 / (1 << 20) as f64,
        mmap_rss as f64 / (1 << 20) as f64
    );

    // The mapped path must still score: one sanity pass through the Scorer
    // so the committed numbers never describe an artifact that can't serve.
    let probe_sessions: Vec<usize> = sessions.iter().cloned().take(64).collect();
    let scorer =
        uae_serve::Scorer::new(FrozenModel::open(&dense_path).unwrap()).expect("rebuild scorer");
    std::hint::black_box(scorer.score(&ds, &probe_sessions));
    drop(scorer);

    let section = format!(
        "  \"perf_embed\": {{\n    \"smoke\": {},\n    \"preset\": \"{}\",\n    \
         \"num_users\": {},\n    \"sessions\": {},\n    \"events\": {},\n    \
         \"dense\": {{\n      \"artifact_bytes\": {},\n      \
         \"cold_load_copy_ms\": {:.3},\n      \
         \"cold_load_mmap_ms\": {:.3},\n      \
         \"copy_rss_delta_bytes\": {},\n      \
         \"mmap_rss_delta_bytes\": {},\n      \
         \"attention_auc\": {:.4}\n    }},\n    \
         \"hashed\": {{\n      \"buckets\": {},\n      \"num_hashes\": {},\n      \
         \"artifact_bytes\": {},\n      \
         \"mean_collision_rate\": {:.6},\n      \
         \"max_collision_rate\": {:.6},\n      \
         \"attention_auc\": {:.4}\n    }},\n    \
         \"derived\": {{\n      \"mmap_vs_copy_decode_speedup\": {:.3},\n      \
         \"hashed_vs_dense_auc_delta\": {:.4},\n      \
         \"dense_vs_hashed_bytes_ratio\": {:.3}\n    }}\n  }}",
        smoke(),
        cfg.name,
        cfg.num_users,
        sessions.len(),
        ds.num_events(),
        dense_bytes,
        copy_ms,
        mmap_ms,
        copy_rss,
        mmap_rss,
        dense_auc,
        buckets,
        num_hashes,
        hashed_bytes,
        mean_collision,
        max_collision,
        hashed_auc,
        speedup,
        auc_delta,
        dense_bytes as f64 / hashed_bytes.max(1) as f64,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    let existing = std::fs::read_to_string(path)
        .expect("read BENCH_perf.json (run the perf_backend bench first)");
    let json = uae_bench::splice_perf_section(&existing, "perf_embed", &section);
    let mut f = std::fs::File::create(path).expect("create BENCH_perf.json");
    f.write_all(json.as_bytes()).expect("write BENCH_perf.json");
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("wrote {path}");
    print!("{json}");
}
