//! The `uae serve` daemon: a long-running scoring service that degrades
//! instead of dying.
//!
//! Architecture (all std, no async runtime):
//!
//! ```text
//! accept loop ──► connection threads ──► bounded ServeQueue ──► scorer workers
//!                     │                        │                     │
//!                     │   shed (Overload) ◄────┘    micro-batch ◄────┤
//!                     │                                              │
//!                     └──────────── reply channels ◄─────────────────┘
//! ```
//!
//! * **Admission control** — each `Score` request becomes one [`Job`] on a
//!   bounded queue; when the queue is full the request is *answered* with a
//!   typed [`UaeError::Overload`], never silently dropped.
//! * **Micro-batching** — workers greedily coalesce queued jobs (possibly
//!   from many connections) into one batch up to `UAE_SERVE_BATCH`
//!   sessions; per-session scores are bit-identical regardless of batch
//!   composition (row-independent forward), so coalescing is invisible to
//!   clients.
//! * **Deadlines** — a job carries the client's budget; workers answer
//!   expired jobs with [`UaeError::DeadlineExceeded`] *before* spending
//!   compute on them, and re-check after scoring so a stalled forward
//!   (e.g. `UAE_FAULT_SLOW_SCORER_MS`) also surfaces as a typed miss.
//! * **Panic isolation** — each micro-batch runs under `catch_unwind`; a
//!   panicking scorer answers its jobs with [`UaeError::WorkerPanic`],
//!   sleeps a deterministic [`Backoff`] step, and keeps serving.
//! * **Hot swap with drain** — `Swap` loads a new `.uaem`, flips the
//!   generation behind an `RwLock<Arc<Generation>>`, then waits for the old
//!   generation's refcount to drain (in-flight batches hold clones). A
//!   failed decode or schema mismatch rolls back to last-good and answers
//!   [`UaeError::SwapRejected`].
//! * **Request-scoped tracing** — every `Score` request gets a trace id
//!   minted at decode (`UAE_TRACE`, on by default) and carried through
//!   admission → batch assembly → scoring → reply; per-stage timings land
//!   in fixed-memory [`AtomicHistogram`]s exported through `Stats`, and a
//!   [`FlightRecorder`] ring keeps the last N trace summaries
//!   (`UAE_FLIGHT_RECORDER_N`), dumped to JSONL on worker panic, swap
//!   rollback, or a `Dump` request. Tracing never changes scores — it only
//!   observes — so replies are bit-identical with it on or off.
//! * **Telemetry** — `serve.daemon.*` counters, `serve.queue_depth` /
//!   `serve.swap_generation` gauges, and `ServeFault` / `Swap` events flow
//!   to the obs handle captured when the daemon was bound, so spawned
//!   threads join the caller's JSONL stream. With `UAE_METRICS_INTERVAL_MS`
//!   set, a metrics thread additionally emits a periodic
//!   [`uae_obs::Event::MetricsSnapshot`] carrying the histogram state.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use uae_data::{Dataset, Event, FeatureSchema, Feedback, Session, Truth};
use uae_obs::{AtomicHistogram, FlightRecorder, HistStat, StageTimes, TraceSummary};
use uae_runtime::{Backoff, UaeError};

use crate::fault::FaultPlan;
use crate::model::FrozenModel;
use crate::queue::{Job, ServeQueue};
use crate::scorer::{Scorer, ScorerConfig};
use crate::wire::{self, Request, Response, SessionScores, StatsSnapshot, WireHist, WireSession};

/// How long the daemon waits for in-flight batches to release an old
/// generation before declaring the swap active anyway (in-flight batches
/// still finish correctly on the old model; they just overlap the new
/// generation's first requests).
const SWAP_DRAIN_BUDGET: Duration = Duration::from_secs(5);

/// Poll interval of the non-blocking accept loop and connection peek loop.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Serving knobs (`UAE_SERVE_*` plus the observability family).
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address (`UAE_SERVE_ADDR`, default `127.0.0.1:0` — port 0
    /// binds an ephemeral port; read it back with [`Daemon::local_addr`]).
    pub addr: String,
    /// Sessions per micro-batch (`UAE_SERVE_BATCH`, default 64).
    pub batch: usize,
    /// Upper bound on one session's length (`UAE_SERVE_MAX_LEN`; requests
    /// holding longer sessions are rejected with a typed protocol error).
    pub max_len: Option<usize>,
    /// Scorer worker threads (`UAE_SERVE_WORKERS`, default 2).
    pub workers: usize,
    /// Bounded queue capacity in sessions (`UAE_SERVE_QUEUE`, default 256);
    /// past it, requests are shed with [`UaeError::Overload`].
    pub queue_capacity: usize,
    /// Default per-request latency budget in ms applied when a request's
    /// own `deadline_ms` is 0 (`UAE_SERVE_DEADLINE_MS`, default 0 = none).
    pub default_deadline_ms: u32,
    /// Most sessions one request may carry (default 1024).
    pub max_sessions_per_request: usize,
    /// Request-scoped tracing (`UAE_TRACE`, default on; `0`/`false`/`off`
    /// disables). Tracing records stage timings into histograms and the
    /// flight recorder; scores are bit-identical either way.
    pub trace: bool,
    /// Flight-recorder ring capacity in traces (`UAE_FLIGHT_RECORDER_N`,
    /// default 256).
    pub flight_recorder_n: usize,
    /// Period of the `MetricsSnapshot` telemetry event in milliseconds
    /// (`UAE_METRICS_INTERVAL_MS`, default 0 = no metrics thread).
    pub metrics_interval_ms: u64,
    /// Directory flight-recorder dumps are written to
    /// (`UAE_FLIGHT_RECORDER_DIR`, default the system temp dir).
    pub flight_dir: PathBuf,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            batch: 64,
            max_len: None,
            workers: 2,
            queue_capacity: 256,
            default_deadline_ms: 0,
            max_sessions_per_request: 1024,
            trace: true,
            flight_recorder_n: 256,
            metrics_interval_ms: 0,
            flight_dir: std::env::temp_dir(),
        }
    }
}

impl DaemonConfig {
    /// Reads `UAE_SERVE_ADDR` / `UAE_SERVE_BATCH` / `UAE_SERVE_MAX_LEN` /
    /// `UAE_SERVE_WORKERS` / `UAE_SERVE_QUEUE` / `UAE_SERVE_DEADLINE_MS` /
    /// `UAE_TRACE` / `UAE_FLIGHT_RECORDER_N` / `UAE_METRICS_INTERVAL_MS` /
    /// `UAE_FLIGHT_RECORDER_DIR` over the defaults. Unparsable or zero
    /// numeric values keep the default — a typo in a knob must not change
    /// admission semantics.
    pub fn from_env() -> DaemonConfig {
        let mut cfg = DaemonConfig::default();
        if let Ok(v) = std::env::var("UAE_SERVE_ADDR") {
            if !v.trim().is_empty() {
                cfg.addr = v.trim().to_string();
            }
        }
        let parse = |key: &str| -> Option<usize> {
            std::env::var(key)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
        };
        if let Some(n) = parse("UAE_SERVE_BATCH") {
            cfg.batch = n;
        }
        cfg.max_len = parse("UAE_SERVE_MAX_LEN");
        if let Some(n) = parse("UAE_SERVE_WORKERS") {
            cfg.workers = n;
        }
        if let Some(n) = parse("UAE_SERVE_QUEUE") {
            cfg.queue_capacity = n;
        }
        if let Some(n) = parse("UAE_SERVE_DEADLINE_MS") {
            cfg.default_deadline_ms = n.min(u32::MAX as usize) as u32;
        }
        if let Ok(v) = std::env::var("UAE_TRACE") {
            let v = v.trim().to_ascii_lowercase();
            cfg.trace = !matches!(v.as_str(), "0" | "false" | "off" | "no");
        }
        if let Some(n) = parse("UAE_FLIGHT_RECORDER_N") {
            cfg.flight_recorder_n = n;
        }
        if let Some(n) = parse("UAE_METRICS_INTERVAL_MS") {
            cfg.metrics_interval_ms = n as u64;
        }
        if let Ok(v) = std::env::var("UAE_FLIGHT_RECORDER_DIR") {
            if !v.trim().is_empty() {
                cfg.flight_dir = PathBuf::from(v.trim());
            }
        }
        cfg
    }
}

/// One immutable serving generation: the scorer built from a `.uaem`
/// artifact plus the schema requests are validated against. Workers clone
/// the `Arc<Generation>` per micro-batch, which is what makes hot-swap
/// draining observable through the refcount.
struct Generation {
    id: u64,
    schema: FeatureSchema,
    scorer: Scorer,
}

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    sessions: AtomicU64,
    events: AtomicU64,
    shed: AtomicU64,
    deadline_miss: AtomicU64,
    worker_restarts: AtomicU64,
    protocol_errors: AtomicU64,
    swaps: AtomicU64,
    swap_rollbacks: AtomicU64,
    traces_started: AtomicU64,
    traces_completed: AtomicU64,
    /// Traces excluded from the *stage* histograms (shed / protocol-error
    /// outcomes never reach a worker, so their all-zero stage rows are kept
    /// out — see [`Shared::close_trace`]). Exported so operators can
    /// reconcile `request_us.count == queue_wait_us.count + hist_excluded`.
    hist_excluded: AtomicU64,
}

/// The daemon's fixed-memory latency and value distributions: lock-free
/// atomic histograms recorded on the serve hot path, snapshot into
/// [`WireHist`] rows for `Stats` and [`HistStat`] rows for the periodic
/// `MetricsSnapshot` event. Value distributions (attention / propensity /
/// weight) are recorded in milli-units so the integer buckets resolve the
/// \[0, 1\] probability range.
struct Hists {
    request_us: AtomicHistogram,
    queue_wait_us: AtomicHistogram,
    batch_assemble_us: AtomicHistogram,
    score_us: AtomicHistogram,
    reply_write_us: AtomicHistogram,
    batch_sessions: AtomicHistogram,
    queue_depth: AtomicHistogram,
    attention_milli: AtomicHistogram,
    propensity_milli: AtomicHistogram,
    weight_milli: AtomicHistogram,
}

impl Hists {
    fn new() -> Hists {
        Hists {
            request_us: AtomicHistogram::new(),
            queue_wait_us: AtomicHistogram::new(),
            batch_assemble_us: AtomicHistogram::new(),
            score_us: AtomicHistogram::new(),
            reply_write_us: AtomicHistogram::new(),
            batch_sessions: AtomicHistogram::new(),
            queue_depth: AtomicHistogram::new(),
            attention_milli: AtomicHistogram::new(),
            propensity_milli: AtomicHistogram::new(),
            weight_milli: AtomicHistogram::new(),
        }
    }

    /// Nonempty histograms as `(name, summary)` rows, in a stable order.
    fn summaries(&self) -> Vec<(&'static str, uae_obs::HistogramSummary)> {
        [
            ("request_us", &self.request_us),
            ("queue_wait_us", &self.queue_wait_us),
            ("batch_assemble_us", &self.batch_assemble_us),
            ("score_us", &self.score_us),
            ("reply_write_us", &self.reply_write_us),
            ("batch_sessions", &self.batch_sessions),
            ("queue_depth", &self.queue_depth),
            ("attention_milli", &self.attention_milli),
            ("propensity_milli", &self.propensity_milli),
            ("weight_milli", &self.weight_milli),
        ]
        .into_iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|(name, h)| (name, h.snapshot().summary()))
        .collect()
    }

    fn wire(&self) -> Vec<WireHist> {
        self.summaries()
            .iter()
            .map(|(name, s)| WireHist::from_summary(name, s))
            .collect()
    }

    fn stat_rows(&self) -> Vec<HistStat> {
        self.summaries()
            .iter()
            .map(|(name, s)| HistStat::from_summary(name, s))
            .collect()
    }
}

/// Everything a connection thread needs to close a request's trace after
/// the reply frame is on the wire.
struct TraceCtx {
    id: u64,
    enqueued: Instant,
    sessions: u64,
    events: u64,
    generation: u64,
    outcome: String,
    stages: StageTimes,
}

struct Shared {
    cfg: DaemonConfig,
    queue: ServeQueue,
    generation: RwLock<Arc<Generation>>,
    stats: Stats,
    shutdown: AtomicBool,
    fault: FaultPlan,
    /// Serializes concurrent swap requests (drain-then-activate must not
    /// interleave).
    swap_serial: Mutex<()>,
    obs: Option<Arc<uae_obs::Handle>>,
    started: Instant,
    trace_serial: AtomicU64,
    hists: Hists,
    recorder: FlightRecorder,
    dump_serial: AtomicU64,
    /// Sessions scored per feature-hash shard (one slot per worker). The
    /// micro-batcher groups each batch's sessions into contiguous hash
    /// ranges of the leading categorical feature — the same `mix64` space
    /// hashed embeddings bucket in — so a worker's embedding reads cluster
    /// per range. Occupancy shows whether traffic spreads across shards.
    shard_hits: Vec<AtomicU64>,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        let generation = self.generation.read().map(|g| g.id).unwrap_or(0);
        StatsSnapshot {
            ready: !self.shutdown.load(Ordering::Relaxed),
            generation,
            queue_depth: self.queue.depth() as u64,
            requests: self.stats.requests.load(Ordering::Relaxed),
            sessions: self.stats.sessions.load(Ordering::Relaxed),
            events: self.stats.events.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            deadline_miss: self.stats.deadline_miss.load(Ordering::Relaxed),
            worker_restarts: self.stats.worker_restarts.load(Ordering::Relaxed),
            protocol_errors: self.stats.protocol_errors.load(Ordering::Relaxed),
            swaps: self.stats.swaps.load(Ordering::Relaxed),
            swap_rollbacks: self.stats.swap_rollbacks.load(Ordering::Relaxed),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            snapshot_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            traces_started: self.stats.traces_started.load(Ordering::Relaxed),
            traces_completed: self.stats.traces_completed.load(Ordering::Relaxed),
            hist_excluded: self.stats.hist_excluded.load(Ordering::Relaxed),
            shard_occupancy: self
                .shard_hits
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .collect(),
            hists: self.hists.wire(),
        }
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue.close();
    }

    fn fault_event(&self, fault: &str, action: String, trace_id: Option<u64>) {
        uae_obs::emit(|| uae_obs::Event::ServeFault {
            fault: fault.to_string(),
            action,
            trace_id,
        });
    }

    /// Mints the next trace id (and counts the trace as started), or
    /// returns 0 when tracing is off.
    fn mint_trace(&self) -> u64 {
        if !self.cfg.trace {
            return 0;
        }
        self.stats.traces_started.fetch_add(1, Ordering::Relaxed);
        self.trace_serial.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Closes a trace: records its timings into the histograms, pushes the
    /// summary onto the flight-recorder ring, and counts it completed.
    /// Every minted trace must pass through here exactly once — the
    /// `traces_started == traces_completed` invariant is what lets clients
    /// assert zero orphaned traces.
    fn close_trace(&self, ctx: TraceCtx) {
        let total_us = ctx.enqueued.elapsed().as_micros() as u64;
        self.hists.request_us.record(total_us);
        // Shed and malformed requests never reach a worker; folding their
        // all-zero stage rows into the stage histograms would drag the
        // percentiles toward zero, so only traced *scoring* work lands there.
        if !matches!(ctx.outcome.as_str(), "shed" | "protocol_error") {
            self.hists.queue_wait_us.record(ctx.stages.queue_wait_us);
            self.hists
                .batch_assemble_us
                .record(ctx.stages.batch_assemble_us);
            self.hists.score_us.record(ctx.stages.score_us);
            self.hists.reply_write_us.record(ctx.stages.reply_write_us);
        } else {
            // Count the exclusion so `request_us.count` always reconciles
            // with `queue_wait_us.count + hist_excluded` in `Stats`.
            self.stats.hist_excluded.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.traces_completed.fetch_add(1, Ordering::Relaxed);
        self.recorder.push(TraceSummary {
            id: ctx.id,
            sessions: ctx.sessions,
            events: ctx.events,
            generation: ctx.generation,
            outcome: ctx.outcome,
            total_us,
            stages: ctx.stages,
        });
    }
}

/// Runs `f` with the daemon's obs handle installed on this thread (so the
/// spawned thread joins the caller's telemetry stream), or bare if the
/// daemon was bound without telemetry.
fn run_with_obs<R>(obs: Option<Arc<uae_obs::Handle>>, f: impl FnOnce() -> R) -> R {
    match obs {
        Some(h) => uae_obs::with_handle(h, f),
        None => f(),
    }
}

/// The serving daemon. [`bind`](Daemon::bind) it, then [`run`](Daemon::run)
/// it (blocking until a `Shutdown` request drains the queue).
pub struct Daemon {
    shared: Arc<Shared>,
    listener: TcpListener,
    local_addr: SocketAddr,
}

impl Daemon {
    /// Builds the serving state from a frozen model and binds the listen
    /// socket (workers are spawned by [`run`](Daemon::run)). Captures the
    /// calling thread's obs handle so daemon threads emit into the same
    /// telemetry stream.
    pub fn bind(
        frozen: FrozenModel,
        cfg: DaemonConfig,
        fault: FaultPlan,
    ) -> Result<Daemon, UaeError> {
        let schema = frozen.schema.clone();
        let scorer = Scorer::with_config(
            frozen,
            ScorerConfig {
                batch_size: cfg.batch,
                max_len: cfg.max_len,
            },
        )?;
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| UaeError::Unavailable {
            detail: format!("bind {}: {e}", cfg.addr),
        })?;
        let local_addr = listener.local_addr().map_err(|e| UaeError::Unavailable {
            detail: format!("local_addr: {e}"),
        })?;
        let queue = ServeQueue::new(cfg.queue_capacity);
        let recorder = FlightRecorder::new(cfg.flight_recorder_n);
        let shard_hits = (0..cfg.workers.max(1)).map(|_| AtomicU64::new(0)).collect();
        let shared = Arc::new(Shared {
            queue,
            generation: RwLock::new(Arc::new(Generation {
                id: 1,
                schema,
                scorer,
            })),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            fault,
            swap_serial: Mutex::new(()),
            obs: uae_obs::current_handle(),
            started: Instant::now(),
            trace_serial: AtomicU64::new(0),
            hists: Hists::new(),
            recorder,
            dump_serial: AtomicU64::new(0),
            shard_hits,
            cfg,
        });
        Ok(Daemon {
            shared,
            listener,
            local_addr,
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until a `Shutdown` request arrives, then drains the queue,
    /// joins every worker, metrics, and connection thread, and returns.
    pub fn run(self) -> Result<(), UaeError> {
        let shared = self.shared;
        let mut workers = Vec::with_capacity(shared.cfg.workers.max(1));
        for w in 0..shared.cfg.workers.max(1) {
            let sh = Arc::clone(&shared);
            let obs = sh.obs.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("uae-serve-worker-{w}"))
                    .spawn(move || run_with_obs(obs, || worker_loop(&sh)))
                    .map_err(|e| UaeError::Unavailable {
                        detail: format!("spawn worker: {e}"),
                    })?,
            );
        }
        let metrics = if shared.cfg.metrics_interval_ms > 0 {
            let sh = Arc::clone(&shared);
            let obs = sh.obs.clone();
            Some(
                std::thread::Builder::new()
                    .name("uae-serve-metrics".into())
                    .spawn(move || run_with_obs(obs, || metrics_loop(&sh)))
                    .map_err(|e| UaeError::Unavailable {
                        detail: format!("spawn metrics thread: {e}"),
                    })?,
            )
        } else {
            None
        };
        self.listener
            .set_nonblocking(true)
            .map_err(|e| UaeError::Unavailable {
                detail: format!("set_nonblocking: {e}"),
            })?;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !shared.shutdown.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    conns.retain(|h| !h.is_finished());
                    let sh = Arc::clone(&shared);
                    let obs = sh.obs.clone();
                    conns.push(std::thread::spawn(move || {
                        run_with_obs(obs, || handle_conn(&sh, stream))
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) => {
                    // Transient accept failures (EMFILE, ECONNABORTED) must
                    // not take the daemon down; record and keep listening.
                    shared.fault_event("accept_error", format!("kept listening: {e}"), None);
                    std::thread::sleep(POLL_INTERVAL);
                }
            }
        }
        // Shutdown: the queue is closed; workers exit once the backlog
        // drains, and every queued job still receives its reply first.
        for h in workers {
            let _ = h.join();
        }
        if let Some(h) = metrics {
            let _ = h.join();
        }
        for h in conns {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Periodic `MetricsSnapshot` emitter: one event per interval plus a final
/// one at shutdown, so even a short-lived daemon leaves a snapshot behind.
fn metrics_loop(shared: &Shared) {
    let interval = Duration::from_millis(shared.cfg.metrics_interval_ms.max(1));
    let mut next = Instant::now() + interval;
    while !shared.shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(POLL_INTERVAL.min(interval));
        if Instant::now() < next {
            continue;
        }
        next = Instant::now() + interval;
        emit_metrics(shared);
    }
    emit_metrics(shared);
}

fn emit_metrics(shared: &Shared) {
    for (i, slot) in shared.shard_hits.iter().enumerate() {
        uae_obs::gauge(
            &format!("serve.shard_occupancy.{i}"),
            slot.load(Ordering::Relaxed) as f64,
        );
    }
    uae_obs::emit(|| {
        let s = shared.snapshot();
        uae_obs::Event::MetricsSnapshot {
            uptime_ms: s.uptime_ms,
            generation: s.generation,
            queue_depth: s.queue_depth,
            requests: s.requests,
            shed: s.shed,
            deadline_miss: s.deadline_miss,
            traces_started: s.traces_started,
            traces_completed: s.traces_completed,
            hists: shared.hists.stat_rows(),
        }
    });
}

/// Writes the flight-recorder ring to `<flight_dir>/uae-flight-<pid>-<n>.jsonl`
/// and returns the path and trace count. Called on worker panic, swap
/// rollback, and `serve-ctl dump` — the three moments an operator wants
/// the requests that led up to the fault.
fn dump_recorder(shared: &Shared, reason: &str) -> Result<(String, u64), UaeError> {
    let serial = shared.dump_serial.fetch_add(1, Ordering::Relaxed);
    let path = shared
        .cfg
        .flight_dir
        .join(format!("uae-flight-{}-{serial}.jsonl", std::process::id()));
    let generation = shared.generation.read().map(|g| g.id).unwrap_or(0);
    let manifest = uae_obs::Manifest {
        run: format!("flight-recorder:{reason}"),
        version: env!("CARGO_PKG_VERSION").into(),
        seed: 0,
        threads: shared.cfg.workers as u64,
        kernel_mode: "serve".into(),
        config: vec![
            ("reason".into(), reason.into()),
            ("generation".into(), generation.to_string()),
            ("capacity".into(), shared.recorder.capacity().to_string()),
        ],
    };
    let n = shared
        .recorder
        .dump_jsonl(&path, manifest)
        .map_err(|e| UaeError::Unavailable {
            detail: format!("flight-recorder dump: {e}"),
        })?;
    Ok((path.display().to_string(), n as u64))
}

/// A neutral truth block for wire-built events — inference never reads it
/// (the forward consumes only `cat`/`dense`/`e`), it just satisfies the
/// `Dataset` shape.
const WIRE_TRUTH: Truth = Truth {
    attention: false,
    attention_prob: 0.0,
    propensity: 1.0,
    preference: false,
    preference_prob: 0.0,
};

fn to_session(ws: &WireSession) -> Session {
    Session {
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
    }
}

/// Maps a session to its feature-hash shard: `mix64` of the first event's
/// leading categorical id, range-partitioned over `[0, shards)`. The same
/// mixer hashed embeddings bucket with, so a shard's sessions cluster in
/// embedding-table row space and a worker's gathers stay range-local.
fn shard_of(ws: &WireSession, shards: usize) -> usize {
    let key = ws
        .events
        .first()
        .and_then(|e| e.cat.first())
        .copied()
        .unwrap_or(0) as u64;
    let h = uae_nn::mix64(key ^ uae_nn::DEFAULT_HASH_SEED);
    ((h as u128 * shards as u128) >> 64) as usize
}

/// Scores every session of every job in one coalesced request and splits
/// the flat outputs back per job. Sessions are grouped into contiguous
/// feature-hash shard ranges before the forward (embedding reads cluster
/// per range; occupancy lands in `shard_hits`), then scattered back to
/// request order. Per-session scores do not depend on batch composition
/// *or* order (row-independent forward), so both the coalescing and the
/// shard regrouping are bit-invisible to clients. Returns the batch-level
/// assemble and score stage times alongside the per-job outputs.
fn score_jobs(
    gen: &Generation,
    jobs: &[Job],
    shard_hits: &[AtomicU64],
) -> (Vec<Vec<SessionScores>>, u64, u64) {
    let assemble_started = Instant::now();
    let wire_sessions: Vec<&WireSession> = jobs.iter().flat_map(|j| j.sessions.iter()).collect();
    let shards = shard_hits.len().max(1);
    let keys: Vec<usize> = wire_sessions
        .iter()
        .map(|ws| shard_of(ws, shards))
        .collect();
    // Stable sort: within a shard, request order is preserved.
    let mut order: Vec<usize> = (0..wire_sessions.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    for &i in &order {
        if let Some(slot) = shard_hits.get(keys[i]) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }
    let sessions: Vec<Session> = order
        .iter()
        .map(|&i| to_session(wire_sessions[i]))
        .collect();
    let indices: Vec<usize> = (0..sessions.len()).collect();
    let ds = Dataset {
        name: "wire".into(),
        schema: gen.schema.clone(),
        sessions,
    };
    let assemble_us = assemble_started.elapsed().as_micros() as u64;
    let score_started = Instant::now();
    let out = gen.scorer.score(&ds, &indices);
    let score_us = score_started.elapsed().as_micros() as u64;
    // Scatter the flat shard-ordered outputs back to request order via the
    // inverse permutation, then split per job.
    let mut scattered: Vec<Option<SessionScores>> = vec![None; wire_sessions.len()];
    let mut off = 0usize;
    for &i in &order {
        let n = wire_sessions[i].events.len();
        scattered[i] = Some(SessionScores {
            attention: out.attention[off..off + n].to_vec(),
            propensity: out.propensity[off..off + n].to_vec(),
            weights: out.weights[off..off + n].to_vec(),
        });
        off += n;
    }
    let mut scattered = scattered.into_iter();
    let mut result = Vec::with_capacity(jobs.len());
    for job in jobs {
        result.push(
            scattered
                .by_ref()
                .take(job.sessions.len())
                .map(|s| s.expect("every session scored exactly once"))
                .collect(),
        );
    }
    (result, assemble_us, score_us)
}

fn miss(shared: &Shared, job: &Job, now: Instant, stages: StageTimes) {
    shared.stats.deadline_miss.fetch_add(1, Ordering::Relaxed);
    uae_obs::counter("serve.daemon.deadline_miss", 1);
    shared.fault_event(
        "deadline_miss",
        format!(
            "answered with typed DeadlineExceeded after {} ms against a {} ms budget [{}]",
            job.waited_ms(now),
            job.deadline_ms,
            stages.render(),
        ),
        (job.trace_id != 0).then_some(job.trace_id),
    );
    let _ = job.reply.send((
        Err(UaeError::DeadlineExceeded {
            waited_ms: job.waited_ms(now),
            budget_ms: u64::from(job.deadline_ms),
        }),
        stages,
    ));
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One scorer worker: pop a micro-batch, drop expired jobs with typed
/// misses, score the rest under `catch_unwind`, reply, repeat. A panic
/// answers the batch's jobs with [`UaeError::WorkerPanic`], dumps the
/// flight recorder, sleeps a deterministic [`Backoff`] step, and keeps
/// serving ("restart" = the isolation boundary, not a new thread).
fn worker_loop(shared: &Shared) {
    let mut backoff = Backoff::for_worker_restart();
    while let Some(jobs) = shared.queue.pop_batch(shared.cfg.batch) {
        uae_obs::gauge("serve.queue_depth", shared.queue.depth() as f64);
        let now = Instant::now();
        let wait_us = |job: &Job| now.saturating_duration_since(job.enqueued).as_micros() as u64;
        let mut live = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.expired(now) {
                let stages = StageTimes {
                    queue_wait_us: wait_us(&job),
                    ..StageTimes::default()
                };
                miss(shared, &job, now, stages);
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }
        let gen = match shared.generation.read() {
            Ok(g) => Arc::clone(&*g),
            Err(_) => break, // poisoned: a swap panicked holding the lock
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shared.fault.before_batch();
            score_jobs(&gen, &live, &shared.shard_hits)
        }));
        match outcome {
            Ok((per_job, assemble_us, score_us)) => {
                backoff.reset();
                let done = Instant::now();
                if shared.cfg.trace {
                    let total: u64 = live.iter().map(|j| j.sessions.len() as u64).sum();
                    shared.hists.batch_sessions.record(total);
                }
                for (job, scored) in live.iter().zip(per_job) {
                    let stages = StageTimes {
                        queue_wait_us: wait_us(job),
                        batch_assemble_us: assemble_us,
                        score_us,
                        reply_write_us: 0,
                    };
                    // Re-check after scoring: a stalled forward (slow-scorer
                    // fault, overload) must surface as a typed miss too.
                    if job.expired(done) {
                        miss(shared, job, done, stages);
                        continue;
                    }
                    let events: usize = scored.iter().map(|s| s.attention.len()).sum();
                    if shared.cfg.trace {
                        for s in &scored {
                            for &v in &s.attention {
                                shared.hists.attention_milli.record(milli(v));
                            }
                            for &v in &s.propensity {
                                shared.hists.propensity_milli.record(milli(v));
                            }
                            for &v in &s.weights {
                                shared.hists.weight_milli.record(milli(v));
                            }
                        }
                    }
                    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                    shared
                        .stats
                        .sessions
                        .fetch_add(job.sessions.len() as u64, Ordering::Relaxed);
                    shared
                        .stats
                        .events
                        .fetch_add(events as u64, Ordering::Relaxed);
                    uae_obs::counter("serve.daemon.requests", 1);
                    let _ = job.reply.send((Ok((gen.id, scored)), stages));
                }
            }
            Err(payload) => {
                let detail = panic_detail(payload);
                shared.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
                let delay = backoff.next_delay();
                uae_obs::counter("serve.daemon.worker_restarts", 1);
                let dump = match dump_recorder(shared, "worker_panic") {
                    Ok((path, n)) => format!("flight dump of {n} traces at {path}"),
                    Err(e) => format!("flight dump failed: {e}"),
                };
                shared.fault_event(
                    "worker_panic",
                    format!(
                        "worker restarted after {} ms backoff (attempt {}); {dump}: {detail}",
                        delay.as_millis(),
                        backoff.attempt(),
                    ),
                    None,
                );
                for job in &live {
                    let stages = StageTimes {
                        queue_wait_us: wait_us(job),
                        ..StageTimes::default()
                    };
                    let _ = job.reply.send((
                        Err(UaeError::WorkerPanic {
                            detail: detail.clone(),
                        }),
                        stages,
                    ));
                }
                std::thread::sleep(delay);
            }
        }
    }
}

/// Handles a `Swap` request: decode the new artifact, reject-and-rollback
/// on any failure, otherwise activate the next generation and wait for
/// in-flight batches to drain off the old one.
fn handle_swap(shared: &Shared, path: &str) -> Result<u64, UaeError> {
    let _serial = shared
        .swap_serial
        .lock()
        .map_err(|_| UaeError::Unavailable {
            detail: "swap lock poisoned".into(),
        })?;
    let current = shared
        .generation
        .read()
        .map_err(|_| UaeError::Unavailable {
            detail: "generation lock poisoned".into(),
        })?
        .clone();
    let reject = |detail: String| -> UaeError {
        shared.stats.swap_rollbacks.fetch_add(1, Ordering::Relaxed);
        uae_obs::counter("serve.daemon.swap_rollbacks", 1);
        uae_obs::emit(|| uae_obs::Event::Swap {
            generation: current.id,
            outcome: format!("rolled_back: {detail}"),
        });
        let dump = match dump_recorder(shared, "swap_rollback") {
            Ok((path, n)) => format!("; flight dump of {n} traces at {path}"),
            Err(e) => format!("; flight dump failed: {e}"),
        };
        shared.fault_event(
            "swap_decode_failure",
            format!("kept last-good generation{dump}"),
            None,
        );
        UaeError::SwapRejected { detail }
    };
    // Copy transport, not a mapping: the operator may replace the file in
    // place later, which would fault a mapped generation.
    let frozen = match FrozenModel::read_from(Path::new(path)) {
        Ok(f) => f,
        Err(e) => return Err(reject(e.to_string())),
    };
    if frozen.schema != current.schema {
        return Err(reject(format!(
            "artifact schema ({} cat fields, {} dense) differs from serving schema ({} cat fields, {} dense)",
            frozen.schema.num_cat_fields(),
            frozen.schema.num_dense(),
            current.schema.num_cat_fields(),
            current.schema.num_dense(),
        )));
    }
    let schema = frozen.schema.clone();
    let scorer = match Scorer::with_config(
        frozen,
        ScorerConfig {
            batch_size: shared.cfg.batch,
            max_len: shared.cfg.max_len,
        },
    ) {
        Ok(s) => s,
        Err(e) => return Err(reject(e.to_string())),
    };
    let next = Arc::new(Generation {
        id: current.id + 1,
        schema,
        scorer,
    });
    let next_id = next.id;
    drop(current); // the clone above must not count against the drain
    let old = {
        let mut slot = shared
            .generation
            .write()
            .map_err(|_| UaeError::Unavailable {
                detail: "generation lock poisoned".into(),
            })?;
        std::mem::replace(&mut *slot, next)
    };
    // Drain: workers hold an Arc clone per in-flight batch; once the old
    // generation's count returns to 1 every batch scored by it has replied.
    let drain_start = Instant::now();
    while Arc::strong_count(&old) > 1 {
        if drain_start.elapsed() > SWAP_DRAIN_BUDGET {
            shared.fault_event(
                "swap_drain_timeout",
                "activated new generation with old-generation batches still in flight".into(),
                None,
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    shared.stats.swaps.fetch_add(1, Ordering::Relaxed);
    uae_obs::counter("serve.daemon.swaps", 1);
    uae_obs::gauge("serve.swap_generation", next_id as f64);
    uae_obs::emit(|| uae_obs::Event::Swap {
        generation: next_id,
        outcome: "active".into(),
    });
    Ok(next_id)
}

/// A score value in milli-units for the value-distribution histograms
/// (clamped at zero; probabilities and importance weights are nonnegative).
fn milli(v: f32) -> u64 {
    (f64::from(v).max(0.0) * 1000.0) as u64
}

fn protocol_error(shared: &Shared, err: &UaeError, dropped_conn: bool) {
    shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    uae_obs::counter("serve.daemon.protocol_errors", 1);
    let action = if dropped_conn {
        format!("typed error reply, connection dropped (framing lost): {err}")
    } else {
        format!("typed error reply, connection kept: {err}")
    };
    shared.fault_event("protocol_error", action, None);
}

/// Handles one `Score` request end to end on the connection thread:
/// mint a trace, validate, admit (or shed), then block on the reply
/// channel until a worker answers. Returns the reply plus the open trace
/// context — the connection loop closes the trace after timing the
/// reply-write stage.
fn handle_score(
    shared: &Shared,
    deadline_ms: u32,
    sessions: Vec<WireSession>,
) -> (Result<Response, UaeError>, Option<TraceCtx>) {
    let trace_id = shared.mint_trace();
    let mut ctx = shared.cfg.trace.then(|| TraceCtx {
        id: trace_id,
        enqueued: Instant::now(),
        sessions: sessions.len() as u64,
        events: sessions.iter().map(|s| s.events.len() as u64).sum(),
        generation: 0,
        outcome: "ok".into(),
        stages: StageTimes::default(),
    });
    let schema = match shared.generation.read() {
        Ok(g) => g.schema.clone(),
        Err(_) => {
            if let Some(c) = &mut ctx {
                c.outcome = "error".into();
            }
            return (
                Err(UaeError::Unavailable {
                    detail: "generation lock poisoned".into(),
                }),
                ctx,
            );
        }
    };
    if let Err(e) = wire::validate_sessions(
        &sessions,
        &schema,
        shared.cfg.max_sessions_per_request,
        shared.cfg.max_len,
    ) {
        protocol_error(shared, &e, false);
        if let Some(c) = &mut ctx {
            c.outcome = "protocol_error".into();
        }
        return (Err(e), ctx);
    }
    let budget = if deadline_ms == 0 {
        shared.cfg.default_deadline_ms
    } else {
        deadline_ms
    };
    let (tx, rx) = sync_channel(1);
    let job = Job {
        trace_id,
        sessions,
        enqueued: Instant::now(),
        deadline_ms: budget,
        reply: tx,
    };
    if let Err(e) = shared.queue.push(job) {
        if matches!(e, UaeError::Overload { .. }) {
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            uae_obs::counter("serve.daemon.shed", 1);
            shared.fault_event(
                "overload_shed",
                "request answered with typed Overload (queue at capacity)".into(),
                (trace_id != 0).then_some(trace_id),
            );
            if let Some(c) = &mut ctx {
                c.outcome = "shed".into();
            }
        } else if let Some(c) = &mut ctx {
            c.outcome = "error".into();
        }
        return (Err(e), ctx);
    }
    let depth = shared.queue.depth();
    if shared.cfg.trace {
        shared.hists.queue_depth.record(depth as u64);
    }
    uae_obs::gauge("serve.queue_depth", depth as f64);
    match rx.recv() {
        Ok((Ok((generation, scored)), stages)) => {
            if let Some(c) = &mut ctx {
                c.generation = generation;
                c.stages = stages;
            }
            (
                Ok(Response::Scored {
                    generation,
                    trace_id,
                    sessions: scored,
                }),
                ctx,
            )
        }
        Ok((Err(e), stages)) => {
            if let Some(c) = &mut ctx {
                c.stages = stages;
                c.outcome = match &e {
                    UaeError::DeadlineExceeded { .. } => "deadline_miss".into(),
                    UaeError::WorkerPanic { .. } => "worker_panic".into(),
                    _ => "error".into(),
                };
            }
            (Err(e), ctx)
        }
        Err(_) => {
            if let Some(c) = &mut ctx {
                c.outcome = "error".into();
            }
            (
                Err(UaeError::Unavailable {
                    detail: "worker dropped the reply channel".into(),
                }),
                ctx,
            )
        }
    }
}

/// One connection: peek-poll for frames (so shutdown is noticed within one
/// poll interval), decode, dispatch, reply. Malformed frames get a typed
/// error; if framing itself is lost the connection is dropped after the
/// error reply. Score requests carry an open trace across the dispatch;
/// the trace is closed here once the reply frame is written (or the write
/// fails), so every minted trace completes exactly once.
fn handle_conn(shared: &Shared, stream: TcpStream) {
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // Wait for the next frame without holding a blocking read, so the
        // shutdown flag is honored on idle connections.
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return, // clean EOF
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        // A frame has started arriving; give the peer a generous window to
        // finish writing it before a stalled read counts as a violation.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let payload = match wire::read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e) => {
                // Mid-frame EOF / oversized length / stalled write: the
                // stream position is untrustworthy, so answer and drop.
                protocol_error(shared, &e, true);
                let _ = wire::write_frame(&mut stream, &wire::encode_error(&e));
                return;
            }
        };
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        let (reply, trace) = match wire::decode_request(&payload) {
            Err(e) => {
                // The frame boundary held; the connection can continue.
                protocol_error(shared, &e, false);
                (Err(e), None)
            }
            Ok(Request::Ping) => (Ok(Response::Pong), None),
            Ok(Request::Stats) => (Ok(Response::Stats(shared.snapshot())), None),
            Ok(Request::Score {
                deadline_ms,
                sessions,
            }) => handle_score(shared, deadline_ms, sessions),
            Ok(Request::Swap { path }) => (
                handle_swap(shared, &path).map(|generation| Response::Swapped { generation }),
                None,
            ),
            Ok(Request::Dump) => (
                dump_recorder(shared, "serve_ctl_dump")
                    .map(|(path, traces)| Response::Dumped { path, traces }),
                None,
            ),
            Ok(Request::Shutdown) => {
                let _ =
                    wire::write_frame(&mut stream, &wire::encode_response(&Response::ShuttingDown));
                shared.begin_shutdown();
                return;
            }
        };
        let frame = match &reply {
            Ok(resp) => wire::encode_response(resp),
            Err(e) => wire::encode_error(e),
        };
        let write_started = Instant::now();
        let wrote = wire::write_frame(&mut stream, &frame);
        if let Some(mut ctx) = trace {
            ctx.stages.reply_write_us = write_started.elapsed().as_micros() as u64;
            shared.close_trace(ctx);
        }
        if wrote.is_err() {
            return; // peer went away mid-reply
        }
    }
}
