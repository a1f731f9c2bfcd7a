//! Serving-path benchmark (ISSUE: uae-serve tentpole).
//!
//! Measures scoring throughput (events/sec) of a trained UAE model under
//! four configurations. Every config produces the same response payload —
//! per-event attention α̂ *and* propensity p̂, which is what the serving
//! daemon returns per request:
//!
//! * `tape_single`   — training-path `predict` + `predict_propensity`, one
//!   session per call: the naive "reuse the trainer for serving" baseline.
//!   The trainer exposes no one-pass inference, so assembling the response
//!   costs two tape passes (the second re-runs the attention GRU to
//!   rebuild its hidden states for the propensity head).
//! * `tape_batched`  — the same two calls over the whole request (each
//!   batches internally but still records every op on the autodiff tape).
//! * `serve_single`  — `uae-serve` Scorer with batch size 1 (tape-free,
//!   one fused pass for both heads, but unamortized padding).
//! * `serve_batched` — `uae-serve` Scorer with batch size 64: length-bucketed
//!   padded batches through the tape-free kernels, both heads sharing the
//!   attention GRU's states in a single pass.
//!
//! A second block measures the downstream-recommender serving path (the
//! Exec tentpole): a trained DCN-V2 scored through the training-path
//! `uae_models::predict` one event per call (`rec_tape_single`), the same
//! tape path fully batched (`rec_tape_batched`), and the tape-free
//! [`RecScorer`] at batch 1 and 64 (`rec_serve_single` /
//! `rec_serve_batched`).
//!
//! Everything runs in this one process under the default backend env
//! (`UAE_NUM_THREADS` applies to every config equally), and
//! every config follows the same measurement protocol over the same session
//! stream: one untimed warm-up call (scratch pool, arena chunks, page
//! faults), then the median of `reps` timed calls. Serve configs snapshot
//! the inference arena over the timed region, so the JSON records
//! `arena.allocs` / `arena.heap_allocs` / `arena.hwm_bytes` per config —
//! steady-state `heap_allocs` must be 0 (CI gates it). The headline
//! `derived` numbers are the `…speedup` ratios, which the CI gates require
//! (≥ 2 batched-vs-single, ≥ 1.5 tape-free-vs-tape for UAE, ≥ 1.2 for the
//! recommender).
//!
//! Results are spliced into the committed `BENCH_perf.json` as a
//! `perf_serve` section, preserving the `perf_backend` sections already
//! there. `UAE_BENCH_SMOKE=1` shrinks sizes for the CI smoke step; the
//! committed numbers come from a full run.

use std::io::Write as _;
use std::time::Instant;

use uae_core::{AttentionEstimator, Uae, UaeConfig};
use uae_data::{generate, FlatData, SimConfig};
use uae_models::{predict, train, LabelMode, ModelConfig, ModelKind, TrainConfig};
use uae_serve::{FrozenModel, FrozenRecommender, RecScorer, Scorer, ScorerConfig};
use uae_tensor::{arena_stats, reset_arena_stats, sigmoid, Rng, Tape};

fn smoke() -> bool {
    std::env::var("UAE_BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// One config's measurement: throughput plus the inference-arena counters
/// accumulated over the timed region (all zero for tape configs, which
/// never enter an arena scope).
struct Measured {
    eps: f64,
    arena_allocs: u64,
    arena_heap_allocs: u64,
    arena_hwm_bytes: u64,
}

/// The shared measurement protocol: one untimed warm-up call (same closure,
/// same session stream as the timed runs), then the median wall-clock of
/// `reps` timed calls, with arena counters reset after warm-up and
/// snapshotted after the timed region.
fn measure(name: &str, reps: usize, events: usize, mut f: impl FnMut()) -> Measured {
    f(); // warm-up: scratch pool, arena chunks, page faults
    reset_arena_stats();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let stats = arena_stats();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let secs = samples[samples.len() / 2];
    let m = Measured {
        eps: events as f64 / secs.max(1e-9),
        arena_allocs: stats.allocs,
        arena_heap_allocs: stats.heap_allocs,
        arena_hwm_bytes: stats.hwm_bytes,
    };
    eprintln!(
        "  {name:<18} {:>10.0} events/s  (arena: {} allocs, {} heap, hwm {} B)",
        m.eps, m.arena_allocs, m.arena_heap_allocs, m.arena_hwm_bytes
    );
    m
}

fn main() {
    let reps = if smoke() { 2 } else { 5 };
    let scale = if smoke() { 0.02 } else { 0.15 };
    let ds = generate(&SimConfig::product(scale), 77);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let events: usize = ds.num_events();
    eprintln!(
        "perf_serve: {} sessions, {} events, smoke={}",
        sessions.len(),
        events,
        smoke()
    );

    let cfg = UaeConfig {
        gru_hidden: if smoke() { 8 } else { 32 },
        mlp_hidden: vec![if smoke() { 8 } else { 32 }],
        epochs: 1,
        seed: 5,
        ..Default::default()
    };
    let mut uae = Uae::new(&ds.schema, cfg);
    uae.fit(&ds, &sessions);

    let scorer_at = |batch_size: usize| {
        Scorer::with_config(
            FrozenModel::from_uae(&uae, &ds.schema, 15.0),
            ScorerConfig {
                batch_size,
                max_len: None,
            },
        )
        .expect("rebuild frozen model")
    };
    let serve_single = scorer_at(1);
    let serve_batched = scorer_at(64);

    // Sanity: the tape-free path must agree with training before we time it
    // — on both halves of the response payload.
    let warm = serve_batched.score(&ds, &sessions);
    assert_eq!(
        warm.attention,
        uae.predict(&ds, &sessions),
        "tape-free attention diverged from training forward"
    );
    assert_eq!(
        warm.propensity,
        uae.predict_propensity(&ds, &sessions),
        "tape-free propensity diverged from training forward"
    );
    drop(warm);

    let tape_single = measure("tape_single", reps, events, || {
        for &s in &sessions {
            std::hint::black_box(uae.predict(&ds, &[s]));
            std::hint::black_box(uae.predict_propensity(&ds, &[s]));
        }
    });
    let tape_batched = measure("tape_batched", reps, events, || {
        std::hint::black_box(uae.predict(&ds, &sessions));
        std::hint::black_box(uae.predict_propensity(&ds, &sessions));
    });
    let serve_single_m = measure("serve_single", reps, events, || {
        std::hint::black_box(serve_single.score(&ds, &sessions));
    });
    let serve_batched_m = measure("serve_batched", reps, events, || {
        std::hint::black_box(serve_batched.score(&ds, &sessions));
    });

    // Downstream-recommender serving path: a trained DCN-V2 through the
    // tape `predict` vs the tape-free RecScorer.
    let flat = FlatData::from_sessions(&ds, &sessions);
    let rec_kind = ModelKind::DcnV2;
    let rec_cfg = ModelConfig::default();
    let mut rng = Rng::seed_from_u64(13);
    let (rec_model, mut rec_params) = rec_kind.build(&ds.schema, &rec_cfg, &mut rng);
    train(
        rec_model.as_ref(),
        &mut rec_params,
        &flat,
        None,
        None,
        LabelMode::Observed,
        &TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        },
    );
    let frozen_rec = FrozenRecommender::new(&ds.schema, rec_kind, &rec_cfg, &rec_params);
    let rec_serve_single = RecScorer::with_batch_size(frozen_rec.clone(), 1).expect("rebuild");
    let rec_serve_batched = RecScorer::with_batch_size(frozen_rec, 64).expect("rebuild");

    // Sanity: tape-free batched scores must agree with the tape predict.
    assert_eq!(
        rec_serve_batched.score(&flat),
        predict(rec_model.as_ref(), &rec_params, &flat, 64),
        "tape-free recommender forward diverged from tape predict"
    );

    // One event per call through the tape, like `tape_single` above: a
    // serving system that reuses the trainer builds a tape per request, so
    // the baseline pays that per-request cost rather than amortizing one
    // cleared tape across the whole dataset (which is what `predict` does
    // internally — that amortized path is `rec_tape_batched` below).
    let one_event: Vec<_> = (0..flat.len()).map(|i| flat.gather(&[i])).collect();
    let rec_tape_single = measure("rec_tape_single", reps, flat.len(), || {
        for batch in &one_event {
            let mut tape = Tape::new();
            let logits = rec_model.forward(&mut tape, &rec_params, batch);
            std::hint::black_box(sigmoid(tape.value(logits).get(0, 0)));
        }
    });
    let rec_tape_batched = measure("rec_tape_batched", reps, flat.len(), || {
        std::hint::black_box(predict(rec_model.as_ref(), &rec_params, &flat, 64));
    });
    let rec_serve_single_m = measure("rec_serve_single", reps, flat.len(), || {
        std::hint::black_box(rec_serve_single.score(&flat));
    });
    let rec_serve_batched_m = measure("rec_serve_batched", reps, flat.len(), || {
        std::hint::black_box(rec_serve_batched.score(&flat));
    });

    let arena_json = |m: &Measured| {
        format!(
            "{{ \"allocs\": {}, \"heap_allocs\": {}, \"hwm_bytes\": {} }}",
            m.arena_allocs, m.arena_heap_allocs, m.arena_hwm_bytes
        )
    };
    let section = format!(
        "  \"perf_serve\": {{\n    \"smoke\": {},\n    \"sessions\": {},\n    \"events\": {},\n    \
         \"rec_model\": \"{}\",\n    \
         \"configs\": {{\n      \"tape_single_events_per_sec\": {:.0},\n      \
         \"tape_batched_events_per_sec\": {:.0},\n      \
         \"serve_single_events_per_sec\": {:.0},\n      \
         \"serve_batched_events_per_sec\": {:.0},\n      \
         \"rec_tape_single_events_per_sec\": {:.0},\n      \
         \"rec_tape_batched_events_per_sec\": {:.0},\n      \
         \"rec_serve_single_events_per_sec\": {:.0},\n      \
         \"rec_serve_batched_events_per_sec\": {:.0}\n    }},\n    \
         \"arena\": {{\n      \"serve_single\": {},\n      \
         \"serve_batched\": {},\n      \
         \"rec_serve_single\": {},\n      \
         \"rec_serve_batched\": {}\n    }},\n    \
         \"derived\": {{\n      \"batched_vs_single_tape_speedup\": {:.3},\n      \
         \"tape_free_vs_tape_batched_speedup\": {:.3},\n      \
         \"serve_batching_speedup\": {:.3},\n      \
         \"rec_batched_vs_single_tape_speedup\": {:.3},\n      \
         \"rec_tape_free_vs_tape_batched_speedup\": {:.3}\n    }}\n  }}",
        smoke(),
        sessions.len(),
        events,
        rec_kind.name(),
        tape_single.eps,
        tape_batched.eps,
        serve_single_m.eps,
        serve_batched_m.eps,
        rec_tape_single.eps,
        rec_tape_batched.eps,
        rec_serve_single_m.eps,
        rec_serve_batched_m.eps,
        arena_json(&serve_single_m),
        arena_json(&serve_batched_m),
        arena_json(&rec_serve_single_m),
        arena_json(&rec_serve_batched_m),
        serve_batched_m.eps / tape_single.eps,
        serve_batched_m.eps / tape_batched.eps,
        serve_batched_m.eps / serve_single_m.eps,
        rec_serve_batched_m.eps / rec_tape_single.eps,
        rec_serve_batched_m.eps / rec_tape_batched.eps,
    );

    // Splice into the committed file, preserving every other bench's
    // section (perf_backend before this key, perf_daemon after it).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    let existing = std::fs::read_to_string(path)
        .expect("read BENCH_perf.json (run the perf_backend bench first)");
    let json = uae_bench::splice_perf_section(&existing, "perf_serve", &section);
    let mut f = std::fs::File::create(path).expect("create BENCH_perf.json");
    f.write_all(json.as_bytes()).expect("write BENCH_perf.json");
    eprintln!("wrote {path}");
    print!("{json}");
}
