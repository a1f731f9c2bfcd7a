//! Compute-backend benchmark trajectory (ISSUE: perf_opt tentpole).
//!
//! Measures four configurations of the `uae-tensor` backend:
//!
//! * `serial_baseline` — naive kernels (`with_kernel_mode(Naive, …)`),
//!   scratch pool disabled, one thread. This reproduces the seed's compute
//!   behaviour.
//! * `blocked_1t`      — blocked kernels + scratch pool, one thread.
//! * `blocked_4t`      — blocked kernels + scratch pool, `UAE_NUM_THREADS=4`.
//! * `blocked_1t_telemetry` — as `blocked_1t` with a live JSONL telemetry
//!   sink, quantifying the file-sink overhead (`derived` reports the
//!   percentage against `blocked_1t`; the null-sink path is `blocked_1t`
//!   itself since telemetry is compiled in and disabled there).
//!
//! Because `UAE_NUM_THREADS` is read once per process, each configuration
//! runs in a re-spawned child of this same binary (selected via
//! `UAE_BENCH_CHILD`) so the env-driven code path — including the per-op
//! work-size heuristic — is exactly what production training sees. The parent
//! aggregates the children's measurements into a committed `BENCH_perf.json`
//! at the repo root.
//!
//! `UAE_BENCH_SMOKE=1` shrinks sizes and repetition counts for the CI smoke
//! step; the committed JSON comes from a full run.

use std::io::Write as _;
use std::process::Command;
use std::time::Instant;

use uae_core::{AttentionEstimator, Uae, UaeConfig};
use uae_data::{generate, SimConfig};
use uae_nn::GruCell;
use uae_tensor::{
    reset_scratch_stats, scratch_stats, with_kernel_mode, with_pool_disabled, KernelMode, Matrix,
    Params, Rng, Tape,
};

fn smoke() -> bool {
    std::env::var("UAE_BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Median wall-clock milliseconds of `reps` timed runs (after one warm-up).
fn time_median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: populate the scratch pool, fault in pages
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

/// Paper-relevant matmul shapes: GRU gate products at session-batch sizes
/// (batch × hidden by hidden × hidden) and the MLP head.
fn matmul_shapes() -> Vec<(&'static str, usize, usize, usize)> {
    if smoke() {
        vec![("matmul_32x16x16_ms", 32, 16, 16)]
    } else {
        vec![
            ("matmul_128x64x64_ms", 128, 64, 64),
            ("matmul_256x128x128_ms", 256, 128, 128),
            ("matmul_512x256x256_ms", 512, 256, 256),
        ]
    }
}

/// One GRU forward+backward: unroll over `t` steps at `batch × dim`,
/// mean-pool the last state, backprop. The shape matches the paper's
/// attention encoder (hidden 64, max_len 20).
fn gru_fwd_bwd(reps: usize, batch: usize, dim: usize, t: usize) -> f64 {
    let mut rng = Rng::seed_from_u64(11);
    let mut params = Params::new();
    let cell = GruCell::new("g", dim, dim, &mut params, &mut rng);
    let xs_data: Vec<Matrix> = (0..t)
        .map(|_| Matrix::randn(batch, dim, 1.0, &mut rng))
        .collect();
    let mask = Matrix::filled(batch, 1, 1.0);
    let mut tape = Tape::new();
    time_median_ms(reps, || {
        tape.clear();
        let xs: Vec<_> = xs_data.iter().map(|x| tape.input(x.clone())).collect();
        let masks: Vec<_> = (0..t).map(|_| tape.input(mask.clone())).collect();
        let states = cell.unroll(&mut tape, &params, &xs, &masks);
        let last = *states.last().unwrap();
        let loss = tape.mean_all(last);
        params.zero_grads();
        tape.backward(loss, &mut params);
        std::hint::black_box(params.grad_norm());
    })
}

/// A full training epoch of the UAE model (both networks, Adam, the
/// alternating schedule) on the Product simulator — the headline number.
fn gru_epoch(reps: usize) -> f64 {
    let scale = if smoke() { 0.02 } else { 0.15 };
    let ds = generate(&SimConfig::product(scale), 77);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let cfg = UaeConfig {
        gru_hidden: if smoke() { 8 } else { 64 },
        mlp_hidden: vec![if smoke() { 8 } else { 64 }],
        epochs: 1,
        session_batch: if smoke() { 32 } else { 64 },
        max_len: if smoke() { 20 } else { 30 },
        seed: 5,
        ..Default::default()
    };
    time_median_ms(reps, || {
        let mut uae = Uae::new(&ds.schema, cfg.clone());
        std::hint::black_box(uae.fit(&ds, &sessions));
    })
}

/// Allocation counter: with the pool disabled every scratch request is an
/// allocation (a recorded miss); with it enabled only misses allocate. The
/// workload is the GRU forward+backward above.
fn alloc_count(batch: usize, dim: usize, t: usize) -> u64 {
    reset_scratch_stats();
    gru_fwd_bwd(2, batch, dim, t);
    scratch_stats().misses
}

fn run_child(config: &str) {
    let baseline = config == "serial_baseline";
    if config.ends_with("_telemetry") {
        let path = std::env::temp_dir().join(format!("uae_perf_{}.jsonl", std::process::id()));
        let manifest = uae_obs::Manifest {
            run: format!("perf_backend.{config}"),
            version: uae_obs::version_string(),
            seed: 5,
            threads: uae_tensor::num_threads() as u64,
            kernel_mode: format!("{:?}", uae_tensor::kernel_mode()),
            config: vec![("smoke".into(), smoke().to_string())],
        };
        uae_obs::install_jsonl(&path, manifest).expect("telemetry sink for perf child");
    }
    let run = || {
        let (reps_mm, reps_gru, reps_epoch) = if smoke() { (3, 2, 1) } else { (9, 5, 3) };
        let (batch, dim, t) = if smoke() { (16, 8, 4) } else { (64, 64, 20) };
        let mut rng = Rng::seed_from_u64(7);
        for (name, m, k, n) in matmul_shapes() {
            let a = Matrix::randn(m, k, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            let ms = time_median_ms(reps_mm, || {
                std::hint::black_box(a.matmul(&b));
            });
            println!("RESULT {name} {ms:.4}");
        }
        let ms = gru_fwd_bwd(reps_gru, batch, dim, t);
        println!("RESULT gru_fwd_bwd_ms {ms:.4}");
        let ms = gru_epoch(reps_epoch);
        println!("RESULT gru_epoch_ms {ms:.4}");
        let allocs = alloc_count(batch, dim, t);
        println!("RESULT scratch_allocs {allocs}");
        let stats = scratch_stats();
        println!("RESULT scratch_hit_rate {:.4}", stats.hit_rate());
    };
    if baseline {
        with_kernel_mode(KernelMode::Naive, || with_pool_disabled(run));
    } else {
        run();
    }
    uae_obs::flush();
}

/// (config name, UAE_NUM_THREADS); `serial_baseline` also runs the naive
/// kernels with the scratch pool off.
const CONFIGS: &[(&str, &str)] = &[
    ("serial_baseline", "1"),
    ("blocked_1t", "1"),
    ("blocked_4t", "4"),
    ("blocked_1t_telemetry", "1"),
];

fn spawn_child(config: &str, threads: &str) -> Vec<(String, f64)> {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(exe)
        .env("UAE_BENCH_CHILD", config)
        .env("UAE_NUM_THREADS", threads)
        .output()
        .expect("spawn bench child");
    assert!(
        out.status.success(),
        "bench child {config} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| {
            let mut parts = l.strip_prefix("RESULT ")?.split_whitespace();
            let key = parts.next()?.to_string();
            let val: f64 = parts.next()?.parse().ok()?;
            Some((key, val))
        })
        .collect()
}

fn lookup(rows: &[(String, f64)], key: &str) -> f64 {
    rows.iter()
        .find(|(k, _)| k == key)
        .map(|&(_, v)| v)
        .unwrap_or(f64::NAN)
}

fn main() {
    if let Ok(config) = std::env::var("UAE_BENCH_CHILD") {
        run_child(&config);
        return;
    }

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "perf_backend: {} configs, {} cpus, smoke={}",
        CONFIGS.len(),
        cpus,
        smoke()
    );

    let mut sections = Vec::new();
    let mut results = Vec::new();
    for &(config, threads) in CONFIGS {
        eprintln!("  running {config} (threads={threads})...");
        let rows = spawn_child(config, threads);
        assert!(!rows.is_empty(), "bench child {config} produced no results");
        let body = rows
            .iter()
            .map(|(k, v)| format!("      \"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(",\n");
        sections.push(format!("    \"{config}\": {{\n{body}\n    }}"));
        results.push((config, rows));
    }

    let base = &results[0].1;
    let b1 = &results[1].1;
    let b4 = &results[2].1;
    let tel = &results[3].1;
    let epoch_speedup_1t = lookup(base, "gru_epoch_ms") / lookup(b1, "gru_epoch_ms");
    let epoch_speedup_4t = lookup(base, "gru_epoch_ms") / lookup(b4, "gru_epoch_ms");
    let gru_speedup_4t = lookup(base, "gru_fwd_bwd_ms") / lookup(b4, "gru_fwd_bwd_ms");
    let alloc_reduction = 1.0 - lookup(b1, "scratch_allocs") / lookup(base, "scratch_allocs");
    let telemetry_overhead_pct =
        100.0 * (lookup(tel, "gru_epoch_ms") / lookup(b1, "gru_epoch_ms") - 1.0);

    let json = format!(
        "{{\n  \"bench\": \"perf_backend\",\n  \"smoke\": {},\n  \"cpus\": {},\n  \
         \"note\": \"thread configs are honest to this machine: with fewer physical \
         cpus than UAE_NUM_THREADS the 4t numbers cannot exceed 1t; kernel+pool \
         gains dominate on 1-cpu hosts\",\n  \"configs\": {{\n{}\n  }},\n  \
         \"derived\": {{\n    \"gru_epoch_speedup_blocked_1t_vs_baseline\": {:.3},\n    \
         \"gru_epoch_speedup_blocked_4t_vs_baseline\": {:.3},\n    \
         \"gru_fwd_bwd_speedup_blocked_4t_vs_baseline\": {:.3},\n    \
         \"scratch_alloc_reduction_vs_baseline\": {:.3},\n    \
         \"gru_epoch_telemetry_overhead_pct\": {:.3}\n  }}\n}}\n",
        smoke(),
        cpus,
        sections.join(",\n"),
        epoch_speedup_1t,
        epoch_speedup_4t,
        gru_speedup_4t,
        alloc_reduction,
        telemetry_overhead_pct,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_perf.json");
    f.write_all(json.as_bytes()).expect("write BENCH_perf.json");
    eprintln!("wrote {path}");
    print!("{json}");
}
