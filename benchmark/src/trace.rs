//! The traced run: one repetition of the workload with daemon tracing on,
//! the daemon's own stage histograms, an in-process replay of the
//! workload's requests with a span around every call into a layer, and a
//! trainer child that times single training layers on the workload's data.
//! Spans stay in memory and are written as JSONL when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::mpsc::sync_channel;
use std::time::Instant;

use uae_core::reweight;
use uae_data::{
    infer_seq_batches, Dataset, Event, FeatureSchema, Feedback, SeqBatch, Session, Truth,
};
use uae_serve::queue::{Job, ServeQueue};
use uae_serve::wire::{self, Request, Response, SessionScores, StatsSnapshot, WireSession};
use uae_serve::{DaemonConfig, FrozenModel, Scorer, ScorerConfig};
use uae_tensor::{sigmoid, Matrix, Rng};

use crate::json;
use crate::report::Outcome;
use crate::serve::{self, Phases, Served};
use crate::stats::{max, median, percentile, reply_fingerprint, FingerprintLedger};
use crate::train::{self, Job as TrainJob};
use crate::workload::{self, Data, ServePlan};

/// One span: a call into a layer on behalf of request `req`.
struct Span {
    req: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// The spans of a run, in memory until [`Spans::write_jsonl`].
pub struct Spans {
    t0: Instant,
    list: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            list: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, req: usize, parent: Option<usize>, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.list.push(Span {
            req,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.list.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.list[id].end_ns = self.now_ns();
    }

    pub fn time<R>(
        &mut self,
        req: usize,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(req, Some(parent), name);
        let r = f();
        self.end(id);
        r
    }

    /// Durations of the spans named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Per span name: total duration and self time (duration minus the
    /// part its child spans cover), in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.list.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += dur;
            e.1 += dur.saturating_sub(c);
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.list.len() * 96);
        for (id, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"req\": {}, \"id\": {id}, \"parent\": {parent}, \"name\": {}, \"start_us\": {}, \"end_us\": {}}}",
                s.req,
                json::quote(s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        std::fs::write(path, text)
    }
}

/// The daemon's stand-in truth for wire events: inference never reads it.
const WIRE_TRUTH: Truth = Truth {
    attention: false,
    attention_prob: 0.0,
    propensity: 1.0,
    preference: false,
    preference_prob: 0.0,
};

/// Wire sessions as the daemon assembles them into a dataset for scoring
/// (the daemon's own assembly is private to it; this copy lets the replay
/// time the step as a span of its own).
fn assemble(schema: &FeatureSchema, sessions: &[WireSession]) -> Dataset {
    let sessions = sessions
        .iter()
        .map(|ws| Session {
            user: 0,
            day: 0,
            events: ws
                .events
                .iter()
                .map(|ev| Event {
                    song: ev.cat.first().copied().unwrap_or(0),
                    cat: ev.cat.clone(),
                    dense: ev.dense.clone(),
                    feedback: if ev.active {
                        Feedback::Like
                    } else {
                        Feedback::AutoPlay
                    },
                    truth: WIRE_TRUTH,
                })
                .collect(),
        })
        .collect();
    Dataset {
        name: "wire".into(),
        schema: schema.clone(),
        sessions,
    }
}

/// σ(logits) into flat request order, as `Scorer::score` does internally.
fn scatter(logits: &[Matrix], b: &SeqBatch, offsets: &[usize], out: &mut [f32]) {
    for (t, vals) in logits.iter().enumerate() {
        for i in 0..b.batch {
            if b.mask[t][i] > 0.0 {
                let (pos, step) = b.origin[t][i];
                out[offsets[pos] + step] = sigmoid(vals.get(i, 0));
            }
        }
    }
}

/// Replays the first `n` requests of the pool in-process through every
/// serving layer, a span around each call, and adds the layer metrics.
fn replay(
    o: &mut Outcome,
    ds: &Dataset,
    pool: &workload::RequestPool,
    artifact: &Path,
    n: usize,
    spans_path: &Path,
) -> Result<(), String> {
    let frozen = FrozenModel::open(artifact).map_err(|e| e.to_string())?;
    let gamma = frozen.gamma;
    let schema = frozen.schema.clone();
    let mut uae = frozen.build().map_err(|e| e.to_string())?;
    uae.freeze_params();
    let limits = DaemonConfig::default();
    let mut spans = Spans::new();
    let mut ledger = FingerprintLedger::new(pool.frames.len());
    let (mut req_bytes, mut resp_bytes, mut valid, mut padded) = (0usize, 0usize, 0usize, 0usize);
    let mut rows = Vec::new();
    for r in 0..n {
        let slot = pool.slot(r);
        let sessions: Vec<WireSession> = pool.sessions[slot]
            .iter()
            .map(|&s| WireSession::from_dataset(ds, s))
            .collect();
        let req = spans.begin(r, None, "request");
        let bytes = spans.time(r, req, "wire.encode_request", || {
            wire::encode_request(&Request::Score {
                deadline_ms: 0,
                sessions,
            })
        });
        req_bytes += bytes.len();
        let Ok(Request::Score { sessions, .. }) = spans.time(r, req, "wire.decode_request", || {
            wire::decode_request(&bytes)
        }) else {
            return Err(format!("replayed request {r} did not decode as Score"));
        };
        spans
            .time(r, req, "wire.validate", || {
                wire::validate_sessions(
                    &sessions,
                    &schema,
                    limits.max_sessions_per_request,
                    limits.max_len,
                )
            })
            .map_err(|e| e.to_string())?;
        let data = spans.time(r, req, "daemon.assemble", || assemble(&schema, &sessions));
        let score = spans.begin(r, Some(req), "scorer.score");
        let idx: Vec<usize> = (0..data.sessions.len()).collect();
        let batches = spans.time(r, score, "batch.infer_seq_batches", || {
            infer_seq_batches(&data, &idx, ScorerConfig::default().batch_size, None)
        });
        let lens: Vec<usize> = data.sessions.iter().map(|s| s.len()).collect();
        let mut offsets = Vec::with_capacity(lens.len());
        let mut acc = 0;
        for &l in &lens {
            offsets.push(acc);
            acc += l;
        }
        let mut att = vec![0.5f32; acc];
        let mut pro = vec![0.5f32; acc];
        for b in batches.iter().filter(|b| b.steps > 0) {
            let inf = spans.time(r, score, "core.infer_batch", || uae.infer_batch(b));
            spans.time(r, score, "scorer.scatter", || {
                scatter(&inf.attention_logits, b, &offsets, &mut att);
                scatter(&inf.propensity_logits, b, &offsets, &mut pro);
            });
            valid += b.valid_steps();
            padded += b.batch * b.steps;
            rows.push(b.batch as f64);
        }
        let scored: Vec<SessionScores> = offsets
            .iter()
            .zip(&lens)
            .map(|(&off, &len)| SessionScores {
                attention: att[off..off + len].to_vec(),
                propensity: pro[off..off + len].to_vec(),
                weights: att[off..off + len]
                    .iter()
                    .map(|&a| reweight(a, gamma))
                    .collect(),
            })
            .collect();
        spans.end(score);
        let resp = spans.time(r, req, "wire.encode_response", || {
            wire::encode_response(&Response::Scored {
                generation: 1,
                trace_id: 0,
                sessions: scored,
            })
        });
        resp_bytes += resp.len();
        let back = spans.time(r, req, "wire.decode_response", || {
            wire::decode_response(&resp)
        });
        spans.end(req);
        match back {
            Ok(Response::Scored { sessions, .. }) => {
                ledger.observe(slot, reply_fingerprint(&sessions))
            }
            other => return Err(format!("replayed reply {r}: {other:?}")),
        }
        // The first request warms the arena's chunks; the counters cover
        // the requests after it, as on a warm serving thread.
        if r == 0 {
            uae_tensor::reset_arena_stats();
        }
    }
    let arena = uae_tensor::arena_stats();
    let warm_reqs = n.saturating_sub(1).max(1) as f64;

    // The real scorer on the same requests: its time per request, and the
    // check that the replay computed exactly what it computes.
    let scorer = Scorer::with_config(
        FrozenModel::open(artifact).map_err(|e| e.to_string())?,
        ScorerConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut score_us = Vec::with_capacity(n);
    let mut reference = vec![0u64; pool.frames.len()];
    for r in 0..n {
        let ids = &pool.sessions[pool.slot(r)];
        let t = Instant::now();
        let out = scorer.score(ds, ids);
        score_us.push(t.elapsed().as_secs_f64() * 1e6);
        let lens: Vec<usize> = ids.iter().map(|&s| ds.sessions[s].len()).collect();
        reference[pool.slot(r)] = serve::output_fingerprint(&out, &lens);
    }
    ledger
        .check(|slot| reference[slot])
        .map_err(|e| format!("in-process replay: {e}"))?;

    // Admission and micro-batch hand-off through the daemon's queue.
    let queue = ServeQueue::new(256);
    let mut queue_us = Vec::with_capacity(n);
    for r in 0..n.min(2000) {
        let sessions: Vec<WireSession> = pool.sessions[pool.slot(r)]
            .iter()
            .map(|&s| WireSession::from_dataset(ds, s))
            .collect();
        let (tx, _rx) = sync_channel(1);
        let job = Job {
            trace_id: 0,
            sessions,
            enqueued: Instant::now(),
            deadline_ms: 0,
            reply: tx,
        };
        let t = Instant::now();
        queue.push(job).map_err(|e| e.to_string())?;
        let popped = queue.pop_batch(ScorerConfig::default().batch_size);
        queue_us.push(t.elapsed().as_secs_f64() * 1e6);
        drop(popped);
    }

    spans
        .write_jsonl(spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let selftimes = spans.self_times();
    let (request_ns, unattributed_ns) = selftimes.get("request").copied().unwrap_or((1, 0));
    println!(
        "self time of {n} replayed requests, by span (written to {}):",
        spans_path.display()
    );
    for (name, (_, self_ns)) in &selftimes {
        let label = if *name == "request" {
            "unattributed"
        } else {
            name
        };
        println!(
            "  {label:<26} {:>10.3} ms {:>6.1}%",
            *self_ns as f64 / 1e6,
            100.0 * *self_ns as f64 / request_ns as f64
        );
    }

    let p50 = |name: &str| percentile(&spans.durations_us(name), 0.5);
    let input = workload_input_width(&schema);
    let serve_rows = median(&rows).round().max(1.0) as usize;
    o.metric(
        "replay.unattributed_pct",
        100.0 * unattributed_ns as f64 / request_ns as f64,
        "%",
    );
    o.metric(
        "wire.encode_request_us.p50",
        p50("wire.encode_request"),
        "us",
    );
    o.metric(
        "wire.decode_request_us.p50",
        p50("wire.decode_request"),
        "us",
    );
    o.metric("wire.validate_us.p50", p50("wire.validate"), "us");
    o.metric(
        "wire.encode_response_us.p50",
        p50("wire.encode_response"),
        "us",
    );
    o.metric(
        "wire.decode_response_us.p50",
        p50("wire.decode_response"),
        "us",
    );
    o.metric(
        "wire.request_bytes.mean",
        req_bytes as f64 / n as f64,
        "bytes",
    );
    o.metric(
        "wire.response_bytes.mean",
        resp_bytes as f64 / n as f64,
        "bytes",
    );
    o.metric("queue.push_pop_us.p50", percentile(&queue_us, 0.5), "us");
    o.metric("scorer.score_us.p50", percentile(&score_us, 0.5), "us");
    o.metric(
        "batch.infer_seq_batches_us.p50",
        p50("batch.infer_seq_batches"),
        "us",
    );
    o.metric(
        "batch.valid_fraction",
        valid as f64 / padded as f64,
        "fraction",
    );
    o.metric("core.infer_batch_us.p50", p50("core.infer_batch"), "us");
    o.metric(
        "tensor.arena.allocs_per_req",
        arena.allocs as f64 / warm_reqs,
        "count",
    );
    o.metric(
        "tensor.arena.heap_allocs_per_req",
        arena.heap_allocs as f64 / warm_reqs,
        "count",
    );
    o.metric("tensor.arena.hwm_bytes", arena.hwm_bytes as f64, "bytes");
    o.metric("tensor.matmul_us.serve", matmul_us(serve_rows, input), "us");
    Ok(())
}

/// Width of the GRU₁ input of `UaeConfig::default()` on `schema`
/// (embeddings of every categorical field, then the dense features).
fn workload_input_width(schema: &FeatureSchema) -> usize {
    uae_core::UaeConfig::default().embed_dim * schema.num_cat_fields() + schema.num_dense()
}

/// Median time of the GRU₁ input projection `[rows × in]·[in × 3H]`.
fn matmul_us(rows: usize, input: usize) -> f64 {
    let h = uae_core::UaeConfig::default().gru_hidden;
    let mut rng = Rng::seed_from_u64(3);
    let x = Matrix::randn(rows, input, 1.0, &mut rng);
    let w = Matrix::randn(input, 3 * h, 1.0, &mut rng);
    let samples: Vec<f64> = (0..201)
        .map(|_| {
            let t = Instant::now();
            drop(std::hint::black_box(x.matmul(&w)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Open, build (the scorer the daemon builds) and copy-decode times of an
/// artifact, medians of three.
fn model_layer(o: &mut Outcome, artifact: &Path) -> Result<(f64, f64), String> {
    let (mut open, mut build, mut read) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let frozen = FrozenModel::open(artifact).map_err(|e| e.to_string())?;
        open.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let scorer =
            Scorer::with_config(frozen, ScorerConfig::default()).map_err(|e| e.to_string())?;
        build.push(t.elapsed().as_secs_f64() * 1e3);
        drop(scorer);
        let t = Instant::now();
        let copy = FrozenModel::read_from(artifact).map_err(|e| e.to_string())?;
        read.push(t.elapsed().as_secs_f64() * 1e3);
        drop(copy);
    }
    let bytes = std::fs::metadata(artifact)
        .map_err(|e| e.to_string())?
        .len();
    o.metric("model.artifact_bytes", bytes as f64, "bytes");
    o.metric("model.open_ms", median(&open), "ms");
    o.metric("model.build_ms", median(&build), "ms");
    o.metric("model.read_from_ms", median(&read), "ms");
    Ok((median(&read), median(&build)))
}

fn hist<'a>(s: &'a StatsSnapshot, name: &str) -> Result<&'a wire::WireHist, String> {
    s.hists
        .iter()
        .find(|h| h.name == name)
        .ok_or_else(|| format!("daemon stats carry no {name} histogram"))
}

/// The serving layers of a traced run: cold starts, one traced repetition,
/// the daemon's stage histograms, tracing overhead, the model layer and
/// the in-process replay.
pub fn serving_layers(
    o: &mut Outcome,
    name: &str,
    plan: &ServePlan,
    served: &Served,
    phase: f64,
) -> Result<(), String> {
    let mut first_reply = Vec::new();
    for _ in 0..plan.cold_starts {
        first_reply.push(serve::cold_start(served)?.1);
    }
    let phases = Phases {
        warmup: plan.warmup,
        open: phase,
        closed: phase,
        quiet_swaps: if plan.swap_every.is_some() { 0 } else { 3 },
    };
    let rep = serve::rep(plan, served, true, phases)?;
    o.attempted += rep.sent();
    o.failed += rep.failed();
    o.problems.extend(rep.daemon_problems());
    serve::check_against_reference(&rep.ledger, served.ds, served.pool, &served.artifacts[0])?;

    // Daemon tracing overhead: closed-loop daemons with tracing off and on,
    // alternated. The overhead is the daemon's CPU time per request, which
    // tracing adds to directly; closed-loop capacity (each daemon's best
    // window, as in `events_per_s`) is printed beside it, but on two vCPUs
    // it moves more with where an instance's threads land than with the
    // work they do (see BENCHMARK.md, "Steadiness").
    let quiet = ServePlan {
        swap_every: None,
        ..plan.clone()
    };
    let probe = |trace: bool| -> Result<(f64, f64, u64), String> {
        let r = serve::rep(
            &quiet,
            served,
            trace,
            Phases {
                warmup: plan.warmup,
                open: 0.0,
                closed: phase,
                quiet_swaps: 0,
            },
        )?;
        if r.failed() > 0 {
            return Err(format!("capacity probe: {:?}", r.daemon_problems()));
        }
        let best = max(&r.closed_window_rates(plan.window, |_| 1.0));
        Ok((best, r.cpu_s, r.scored()))
    };
    // Per setting (off, on): best capacity, CPU seconds, requests.
    let mut tally = [(0.0f64, 0.0f64, 0u64); 2];
    for _ in 0..plan.overhead_pairs {
        for (t, trace) in tally.iter_mut().zip([false, true]) {
            let (best, cpu, n) = probe(trace)?;
            *t = (t.0.max(best), t.1 + cpu, t.2 + n);
        }
    }
    let cpu_per_req = |t: (f64, f64, u64)| t.1 / t.2 as f64;

    let s = &rep.stats;
    let request = hist(s, "request_us")?;
    let service: Vec<f64> = [&rep.warm, &rep.open, &rep.closed]
        .iter()
        .flat_map(|t| t.column(|s| s.service_ms))
        .collect();
    let batch = hist(s, "batch_sessions")?;
    o.metric("daemon.request_us.p50", request.p50 as f64, "us");
    o.metric(
        "daemon.queue_wait_us.p99",
        hist(s, "queue_wait_us")?.p99 as f64,
        "us",
    );
    o.metric(
        "daemon.batch_assemble_us.p50",
        hist(s, "batch_assemble_us")?.p50 as f64,
        "us",
    );
    o.metric("daemon.score_us.p50", hist(s, "score_us")?.p50 as f64, "us");
    o.metric(
        "daemon.reply_write_us.p50",
        hist(s, "reply_write_us")?.p50 as f64,
        "us",
    );
    o.metric(
        "daemon.batch_sessions.mean",
        batch.sum as f64 / batch.count as f64,
        "sessions",
    );
    o.metric("daemon.shed", s.shed as f64, "count");
    o.metric("daemon.deadline_miss", s.deadline_miss as f64, "count");
    o.metric(
        "daemon.client_gap_us.p50",
        percentile(&service, 0.5) * 1e3 - request.p50 as f64,
        "us",
    );
    o.metric("daemon.cold_start_ms", median(&first_reply), "ms");
    let (read_ms, build_ms) = model_layer(o, &served.artifacts[0])?;
    let swap = median(&rep.swap_ms);
    o.metric("daemon.swap_ms.p50", swap, "ms");
    o.metric("daemon.swap_drain_ms", swap - read_ms - build_ms, "ms");
    o.metric(
        "daemon.trace_overhead_pct",
        100.0 * (cpu_per_req(tally[1]) / cpu_per_req(tally[0]) - 1.0),
        "%",
    );
    o.metric(
        "loadgen.late_ms.p99",
        percentile(&rep.open.column(|s| s.late_ms), 0.99),
        "ms",
    );
    o.metric("loadgen.sent", rep.sent() as f64, "count");
    o.metric(
        "loadgen.answered",
        (rep.scored() + rep.swap_ms.len() as u64) as f64,
        "count",
    );
    o.metric(
        "loadgen.p99_ms",
        percentile(&rep.open.column(|s| s.latency_ms), 0.99),
        "ms",
    );
    o.metric("loadgen.capacity_rps", rep.capacity_rps(), "req/s");
    for (t, setting) in tally.iter().zip(["off", "on"]) {
        println!(
            "daemon tracing {setting}: capacity {:.0} req/s, {:.1} us of daemon CPU per request",
            t.0,
            1e6 * cpu_per_req(*t)
        );
    }
    let spans_path = workload::work_dir().join(format!("trace-{name}.jsonl"));
    replay(
        o,
        served.ds,
        served.pool,
        &served.artifacts[0],
        plan.replay,
        &spans_path,
    )
}

/// The training layers: a trainer child with tracing on.
pub fn training_layers(o: &mut Outcome, job: &TrainJob) -> Result<train::RepResult, String> {
    o.attempted += 1;
    let r = train::run_child(job)?;
    for (metric, key, unit) in [
        ("fit.attention_phase_s", "attention_phase_s", "s"),
        ("fit.propensity_phase_s", "propensity_phase_s", "s"),
        ("fit.gru_fwd_bwd_ms", "g_fwd_bwd_ms", "ms"),
        ("fit.adam_step_us", "adam_step_us", "us"),
        ("models.dcn_fwd_bwd_ms", "dcn_fwd_bwd_ms", "ms"),
        ("tensor.matmul_us.train", "matmul_us", "us"),
        ("tensor.matmul_tn_us.train", "matmul_tn_us", "us"),
        ("tensor.scratch.hit_rate", "scratch_hit_rate", "fraction"),
    ] {
        o.metric(metric, r.get(key), unit);
    }
    o.metric(
        "models.epoch_s",
        r.get("dcn_s") / job.dcn_epochs as f64,
        "s",
    );
    Ok(r)
}

/// The traced run of a serve workload.
pub fn serve_run(
    name: &str,
    plan: &ServePlan,
    served: &Served,
    seed: u64,
    seconds: f64,
) -> Outcome {
    let mut o = Outcome::new(name);
    let phase = seconds / (2.0 * plan.reps as f64);
    if let Err(e) = serving_layers(&mut o, name, plan, served, phase) {
        o.problem(e);
    }
    // Training layers on this workload's sessions: one epoch on a few
    // hundred of them.
    let job = TrainJob {
        data: plan.data,
        seed,
        cap: plan.probe_sessions,
        fit_epochs: 1,
        dcn_epochs: 1,
        trace: true,
        artifact: None,
    };
    if let Err(e) = training_layers(&mut o, &job) {
        o.problem(e);
    }
    o
}

/// The traced run of the train workload: a traced trainer child that also
/// writes the model it trained, then that model served on the held-out
/// sessions, one session per request.
pub fn train_run(plan: &workload::TrainPlan, seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let mut o = Outcome::new("train");
    let dir = workload::work_dir();
    let artifact = dir.join("train-trained.uaem");
    let job = TrainJob {
        data: plan.data,
        seed,
        cap: 0,
        fit_epochs: plan.fit_epochs,
        dcn_epochs: plan.dcn_epochs,
        trace: true,
        artifact: Some(artifact.display().to_string()),
    };
    let trained = std::fs::create_dir_all(&dir)
        .map_err(|e| e.to_string())
        .and_then(|()| training_layers(&mut o, &job));
    if let Err(e) = trained {
        o.problem(e);
        return o;
    }
    let serve_plan = ServePlan {
        data: plan.data,
        sessions_per_request: 1,
        rate: 1000.0,
        reps: 1,
        scoring_conns: 2,
        swap_every: None,
        window: 0.1,
        cold_starts: if smoke { 1 } else { 3 },
        overhead_pairs: if smoke { 1 } else { 3 },
        replay: plan.replay,
        probe_sessions: 0,
        warmup: if smoke { 0.1 } else { 0.5 },
    };
    let served = (|| -> Result<_, String> {
        let ds = Data::generate(plan.data, seed);
        let (_, test) = train::job_sessions(&ds, &job);
        let pool = workload::RequestPool::new(&ds, &test, 1, test.len(), seed);
        let artifacts = workload::copy_artifact(&artifact).map_err(|e| e.to_string())?;
        Ok((ds, pool, artifacts))
    })();
    match served {
        Ok((ds, pool, artifacts)) => {
            let served = Served {
                ds: &ds,
                pool: &pool,
                artifacts,
            };
            if let Err(e) = serving_layers(&mut o, "train", &serve_plan, &served, seconds / 6.0) {
                o.problem(e);
            }
            for a in &served.artifacts {
                let _ = std::fs::remove_file(a);
            }
        }
        Err(e) => o.problem(e),
    }
    o
}
