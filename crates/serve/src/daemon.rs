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
//!   generation behind an `RwLock<Arc<Generation>>`, then waits on a
//!   condvar until the old generation's refcount drains (in-flight batches
//!   hold clones; a worker notifies as it drops one). A failed decode or
//!   schema mismatch rolls back to last-good and answers
//!   [`UaeError::SwapRejected`].
//! * **Blocking, no timers** — every thread blocks on what it waits for.
//!   Shutdown wakes each directly: `shutdown(Read)` on every connection,
//!   one self-connect for `accept`, a condvar notify for drain and
//!   metrics. Only a started frame is read under a timeout.
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

use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
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

/// How long a peer may stall once a frame has started arriving before the
/// read fails with a typed error and the connection is dropped. Idle
/// connections between frames have no timer.
const FRAME_STALL_BUDGET: Duration = Duration::from_secs(5);

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
    /// `UAE_FLIGHT_RECORDER_DIR` over the defaults; the batch and length
    /// knobs come from [`ScorerConfig::from_env`]. Unparsable or zero
    /// numeric values keep the default — a typo in a knob must not change
    /// admission semantics.
    pub fn from_env() -> DaemonConfig {
        let mut cfg = DaemonConfig::default();
        let scorer = ScorerConfig::from_env();
        cfg.batch = scorer.batch_size;
        cfg.max_len = scorer.max_len;
        let var = |key: &str| {
            let v = std::env::var(key).ok()?.trim().to_string();
            (!v.is_empty()).then_some(v)
        };
        let num = |key: &str| var(key)?.parse::<usize>().ok().filter(|&n| n > 0);
        cfg.addr = var("UAE_SERVE_ADDR").unwrap_or(cfg.addr);
        cfg.workers = num("UAE_SERVE_WORKERS").unwrap_or(cfg.workers);
        cfg.queue_capacity = num("UAE_SERVE_QUEUE").unwrap_or(cfg.queue_capacity);
        if let Some(n) = num("UAE_SERVE_DEADLINE_MS") {
            cfg.default_deadline_ms = n.min(u32::MAX as usize) as u32;
        }
        if let Some(v) = var("UAE_TRACE") {
            cfg.trace = !matches!(
                v.to_ascii_lowercase().as_str(),
                "0" | "false" | "off" | "no"
            );
        }
        cfg.flight_recorder_n = num("UAE_FLIGHT_RECORDER_N").unwrap_or(cfg.flight_recorder_n);
        if let Some(n) = num("UAE_METRICS_INTERVAL_MS") {
            cfg.metrics_interval_ms = n as u64;
        }
        cfg.flight_dir = var("UAE_FLIGHT_RECORDER_DIR").map_or(cfg.flight_dir, PathBuf::from);
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

impl Generation {
    fn build(id: u64, frozen: FrozenModel, cfg: &DaemonConfig) -> Result<Generation, UaeError> {
        let schema = frozen.schema.clone();
        let scorer = Scorer::with_config(
            frozen,
            ScorerConfig {
                batch_size: cfg.batch,
                max_len: cfg.max_len,
            },
        )?;
        Ok(Generation { id, schema, scorer })
    }
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
#[derive(Default)]
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
    /// Nonempty histograms as `row(name, summary)` rows, in a stable order.
    fn rows<T>(&self, row: impl Fn(&str, &uae_obs::HistogramSummary) -> T) -> Vec<T> {
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
        .map(|(name, h)| row(name, &h.snapshot().summary()))
        .collect()
    }
}

/// Locks `m`, recovering the guard from a poisoned lock: every value these
/// mutexes guard stays consistent even if a holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The daemon's one wait/notify pair: the swap drain waits on it for the
/// workers' old-generation clones, the metrics thread for its tick or
/// shutdown. The flag marks a waiting drain, so workers notify only then.
#[derive(Default)]
struct Wake {
    draining: Mutex<bool>,
    cv: Condvar,
}

impl Wake {
    /// Drops a worker's generation clone and wakes a waiting drain. The
    /// drop happens under the lock, so a drain cannot miss it between
    /// reading the refcount and going to sleep.
    fn release<T>(&self, held: Arc<T>) {
        let draining = lock(&self.draining);
        drop(held);
        if *draining {
            self.cv.notify_all();
        }
    }

    /// Waits until the caller holds the only clone of `old`, or for
    /// `budget`; past the budget it emits `swap_drain_timeout` and returns
    /// false (in-flight batches still finish correctly on the old model).
    fn drain<T>(&self, old: &Arc<T>, budget: Duration) -> bool {
        let mut draining = lock(&self.draining);
        *draining = true;
        let (mut draining, wait) = self
            .cv
            .wait_timeout_while(draining, budget, |_| Arc::strong_count(old) > 1)
            .unwrap_or_else(PoisonError::into_inner);
        *draining = false;
        if wait.timed_out() {
            uae_obs::emit(|| uae_obs::Event::ServeFault {
                fault: "swap_drain_timeout".into(),
                action: "activated new generation with old-generation batches still in flight"
                    .into(),
                trace_id: None,
            });
        }
        !wait.timed_out()
    }

    /// Wakes every waiter (they re-check their condition under the lock).
    fn notify(&self) {
        let _guard = lock(&self.draining);
        self.cv.notify_all();
    }
}

struct Shared {
    cfg: DaemonConfig,
    queue: ServeQueue,
    generation: RwLock<Arc<Generation>>,
    stats: Stats,
    shutdown: AtomicBool,
    wake: Wake,
    /// The listen address: `begin_shutdown` connects to it once to unblock
    /// `accept` (an unspecified address connects to the local host).
    addr: SocketAddr,
    /// A second handle on every live connection, keyed by accept order, so
    /// `begin_shutdown` can end its blocked read. A connection's thread
    /// removes its entry as it ends ([`Registered`]).
    conns: Mutex<HashMap<u64, TcpStream>>,
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
            hists: self.hists.rows(WireHist::from_summary),
        }
    }

    /// Stops admission and wakes every blocked daemon thread. Replies in
    /// flight still go out: only the read half of a connection is shut.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue.close();
        self.wake.notify();
        for conn in lock(&self.conns).values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let _ = TcpStream::connect(self.addr);
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

    /// Closes a trace minted at `enqueued`: records its timings into the
    /// histograms, pushes the summary onto the flight-recorder ring, and
    /// counts it completed. Every minted trace must pass through here
    /// exactly once — the `traces_started == traces_completed` invariant is
    /// what lets clients assert zero orphaned traces.
    fn close_trace(&self, mut ctx: TraceSummary, enqueued: Instant) {
        ctx.total_us = enqueued.elapsed().as_micros() as u64;
        self.hists.request_us.record(ctx.total_us);
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
        self.recorder.push(ctx);
    }
}

/// Spawns a named daemon thread running `f` with the daemon's obs handle
/// installed (so it joins the caller's telemetry stream), or bare if the
/// daemon was bound without telemetry.
fn spawn(
    shared: &Arc<Shared>,
    name: String,
    f: impl FnOnce(&Shared) + Send + 'static,
) -> Result<JoinHandle<()>, UaeError> {
    let sh = Arc::clone(shared);
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || match sh.obs.clone() {
            Some(h) => uae_obs::with_handle(h, || f(&sh)),
            None => f(&sh),
        })
        .map_err(|e| UaeError::Unavailable {
            detail: format!("spawn {name}: {e}"),
        })
}

/// The serving daemon. [`bind`](Daemon::bind) it, then [`run`](Daemon::run)
/// it (blocking until a `Shutdown` request drains the queue).
pub struct Daemon {
    shared: Arc<Shared>,
    listener: TcpListener,
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
        let generation = Generation::build(1, frozen, &cfg)?;
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
            generation: RwLock::new(Arc::new(generation)),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            wake: Wake::default(),
            addr: local_addr,
            conns: Mutex::new(HashMap::new()),
            fault,
            swap_serial: Mutex::new(()),
            obs: uae_obs::current_handle(),
            started: Instant::now(),
            trace_serial: AtomicU64::new(0),
            hists: Hists::default(),
            recorder,
            dump_serial: AtomicU64::new(0),
            shard_hits,
            cfg,
        });
        Ok(Daemon { shared, listener })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serves until a `Shutdown` request arrives, then drains the queue,
    /// joins every worker, metrics, and connection thread, and returns.
    pub fn run(self) -> Result<(), UaeError> {
        let shared = self.shared;
        let workers = (0..shared.cfg.workers.max(1))
            .map(|w| spawn(&shared, format!("uae-serve-worker-{w}"), worker_loop))
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = (shared.cfg.metrics_interval_ms > 0)
            .then(|| spawn(&shared, "uae-serve-metrics".into(), metrics_loop))
            .transpose()?;
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        let mut backoff = Backoff::new(Duration::from_millis(20), Duration::from_secs(1));
        for id in 0u64.. {
            if shared.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let accepted = self
                .listener
                .accept()
                .and_then(|(s, _)| Ok((s.try_clone()?, s)));
            let (handle, stream) = match accepted {
                Ok(pair) => pair,
                Err(e) => {
                    // Transient accept failures (EMFILE, ECONNABORTED) must
                    // neither take the daemon down nor spin it.
                    let delay = backoff.next_delay();
                    let action = format!("kept listening after {delay:?} backoff: {e}");
                    shared.fault_event("accept_error", action, None);
                    std::thread::sleep(delay);
                    continue;
                }
            };
            backoff.reset();
            {
                // The flag is read under the lock `begin_shutdown` takes, so
                // it either sees this entry or this loop sees the flag.
                let mut live = lock(&shared.conns);
                if shared.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                live.insert(id, handle);
            }
            conns.retain(|h| !h.is_finished());
            let registered = Registered(Arc::clone(&shared), id);
            let spawned = spawn(&shared, format!("uae-serve-conn-{id}"), move |sh| {
                let _registered = registered;
                handle_conn(sh, stream)
            });
            match spawned {
                Ok(h) => conns.push(h),
                Err(e) => shared.fault_event("accept_error", format!("dropped: {e}"), None),
            }
        }
        // Shutdown: the queue is closed; workers exit once the backlog
        // drains, and every queued job still receives its reply first.
        for h in workers.into_iter().chain(metrics).chain(conns) {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Removes a connection's entry from [`Shared::conns`] when its thread
/// ends, however it ends, so no file descriptor outlives the connection.
struct Registered(Arc<Shared>, u64);

impl Drop for Registered {
    fn drop(&mut self) {
        lock(&self.0.conns).remove(&self.1);
    }
}

/// Periodic `MetricsSnapshot` emitter: one event per interval plus a final
/// one as soon as shutdown begins, so even a short-lived daemon leaves a
/// snapshot behind.
fn metrics_loop(shared: &Shared) {
    let interval = Duration::from_millis(shared.cfg.metrics_interval_ms.max(1));
    let stopping = || shared.shutdown.load(Ordering::Relaxed);
    loop {
        let guard = lock(&shared.wake.draining);
        let _ = shared
            .wake
            .cv
            .wait_timeout_while(guard, interval, |_| !stopping());
        emit_metrics(shared);
        if stopping() {
            return;
        }
    }
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
            hists: shared.hists.rows(HistStat::from_summary),
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
    // Each session's offset into the flat shard-ordered outputs; slice them
    // back out in request order, then split per job.
    let mut start = vec![0; wire_sessions.len()];
    let mut off = 0;
    for &i in &order {
        start[i] = off;
        off += wire_sessions[i].events.len();
    }
    let mut scattered = wire_sessions.iter().zip(start).map(|(ws, at)| {
        let span = at..at + ws.events.len();
        SessionScores {
            attention: out.attention[span.clone()].to_vec(),
            propensity: out.propensity[span.clone()].to_vec(),
            weights: out.weights[span].to_vec(),
        }
    });
    let result = jobs
        .iter()
        .map(|job| scattered.by_ref().take(job.sessions.len()).collect())
        .collect();
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
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map_or("opaque panic payload", |s| s)
            .into(),
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
        // Stage times of a job answered before it reached the scorer.
        let queued = |job: &Job| StageTimes {
            queue_wait_us: wait_us(job),
            ..StageTimes::default()
        };
        let mut live = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.expired(now) {
                miss(shared, &job, now, queued(&job));
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
                        let h = &shared.hists;
                        for s in &scored {
                            for (hist, values) in [
                                (&h.attention_milli, &s.attention),
                                (&h.propensity_milli, &s.propensity),
                                (&h.weight_milli, &s.weights),
                            ] {
                                values.iter().for_each(|&v| hist.record(milli(v)));
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
                shared.wake.release(gen);
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
                    let err = UaeError::WorkerPanic {
                        detail: detail.clone(),
                    };
                    let _ = job.reply.send((Err(err), queued(job)));
                }
                shared.wake.release(gen);
                std::thread::sleep(delay);
            }
        }
    }
}

/// Handles a `Swap` request: decode the new artifact, reject-and-rollback
/// on any failure, otherwise activate the next generation and wait for
/// in-flight batches to drain off the old one.
fn handle_swap(shared: &Shared, path: &str) -> Result<u64, UaeError> {
    let _serial = shared.swap_serial.lock().map_err(|_| poisoned("swap"))?;
    let current = Arc::clone(
        &*shared
            .generation
            .read()
            .map_err(|_| poisoned("generation"))?,
    );
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
    let next = match Generation::build(current.id + 1, frozen, &shared.cfg) {
        Ok(g) => Arc::new(g),
        Err(e) => return Err(reject(e.to_string())),
    };
    let next_id = next.id;
    drop(current); // the clone above must not count against the drain
    let old = {
        let mut slot = shared
            .generation
            .write()
            .map_err(|_| poisoned("generation"))?;
        std::mem::replace(&mut *slot, next)
    };
    // Drain: workers hold an Arc clone per in-flight batch; once the old
    // generation's count returns to 1 every batch scored by it has replied.
    shared.wake.drain(&old, SWAP_DRAIN_BUDGET);
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

fn poisoned(lock: &str) -> UaeError {
    UaeError::Unavailable {
        detail: format!("{lock} lock poisoned"),
    }
}

fn protocol_error(shared: &Shared, err: &UaeError, dropped_conn: bool) {
    shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    uae_obs::counter("serve.daemon.protocol_errors", 1);
    let conn = if dropped_conn {
        "dropped (framing lost)"
    } else {
        "kept"
    };
    let action = format!("typed error reply, connection {conn}: {err}");
    shared.fault_event("protocol_error", action, None);
}

/// Handles one `Score` request end to end on the connection thread:
/// mint a trace, validate, admit (or shed), then block on the reply
/// channel until a worker answers. Returns the reply plus the open trace
/// and the instant it was minted — the connection loop closes the trace
/// after timing the reply-write stage.
fn handle_score(
    shared: &Shared,
    deadline_ms: u32,
    sessions: Vec<WireSession>,
) -> (Result<Response, UaeError>, Option<(TraceSummary, Instant)>) {
    let trace_id = shared.mint_trace();
    let enqueued = Instant::now();
    let events = sessions.iter().map(|s| s.events.len() as u64).sum();
    let n_sessions = sessions.len() as u64;
    let mut stages = StageTimes::default();
    let reply = admit_and_wait(shared, trace_id, deadline_ms, sessions, &mut stages);
    let ctx = shared.cfg.trace.then(|| TraceSummary {
        id: trace_id,
        sessions: n_sessions,
        events,
        generation: match &reply {
            Ok(Response::Scored { generation, .. }) => *generation,
            _ => 0,
        },
        outcome: match &reply {
            Ok(_) => "ok",
            Err(UaeError::Overload { .. }) => "shed",
            Err(UaeError::Protocol { .. }) => "protocol_error",
            Err(UaeError::DeadlineExceeded { .. }) => "deadline_miss",
            Err(UaeError::WorkerPanic { .. }) => "worker_panic",
            Err(_) => "error",
        }
        .into(),
        total_us: 0,
        stages,
    });
    (reply, ctx.map(|c| (c, enqueued)))
}

/// The body of [`handle_score`]: validate (a typed `Protocol` error),
/// admit (a typed `Overload` shed), then wait for the worker's reply and
/// its stage times.
fn admit_and_wait(
    shared: &Shared,
    trace_id: u64,
    deadline_ms: u32,
    sessions: Vec<WireSession>,
    stages: &mut StageTimes,
) -> Result<Response, UaeError> {
    let schema = match shared.generation.read() {
        Ok(g) => g.schema.clone(),
        Err(_) => return Err(poisoned("generation")),
    };
    wire::validate_sessions(
        &sessions,
        &schema,
        shared.cfg.max_sessions_per_request,
        shared.cfg.max_len,
    )
    .inspect_err(|e| protocol_error(shared, e, false))?;
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
        }
        return Err(e);
    }
    let depth = shared.queue.depth();
    if shared.cfg.trace {
        shared.hists.queue_depth.record(depth as u64);
    }
    uae_obs::gauge("serve.queue_depth", depth as f64);
    let (scored, worker_stages) = rx.recv().map_err(|_| UaeError::Unavailable {
        detail: "worker dropped the reply channel".into(),
    })?;
    *stages = worker_stages;
    let (generation, sessions) = scored?;
    Ok(Response::Scored {
        generation,
        trace_id,
        sessions,
    })
}

/// One connection: block until a frame starts, read it, decode, dispatch,
/// reply. Malformed frames get a typed error; if framing itself is lost
/// the connection is dropped after the error reply. Score requests carry
/// an open trace across the dispatch; the trace is closed here once the
/// reply frame is written (or the write fails), so every minted trace
/// completes exactly once.
fn handle_conn(shared: &Shared, stream: TcpStream) {
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    while !shared.shutdown.load(Ordering::Relaxed) {
        // Block, with no timer, for the next frame's first bytes. A read of
        // 0 bytes is the peer hanging up or shutdown shutting the read half.
        let mut header = [0u8; 4];
        let started = match stream.read(&mut header) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        let _ = stream.set_read_timeout(Some(FRAME_STALL_BUDGET));
        let incoming = wire::read_frame(&mut (&header[..started]).chain(&stream));
        let _ = stream.set_read_timeout(None);
        let payload = match incoming {
            Ok(Some(p)) => p,
            Ok(None) => return,
            // Shutdown ended the read mid-frame: not the peer's fault.
            Err(_) if shared.shutdown.load(Ordering::Relaxed) => return,
            Err(e) => {
                // Mid-frame EOF / oversized length / stalled write: the
                // stream position is untrustworthy, so answer and drop.
                protocol_error(shared, &e, true);
                let _ = wire::write_frame(&mut stream, &wire::encode_error(&e));
                return;
            }
        };
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
        if let Some((mut ctx, enqueued)) = trace {
            ctx.stages.reply_write_us = write_started.elapsed().as_micros() as u64;
            shared.close_trace(ctx, enqueued);
        }
        if wrote.is_err() {
            return; // peer went away mid-reply
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_wakes_on_the_last_release_and_gives_up_after_its_budget() {
        let (wake, old) = (Wake::default(), Arc::new(()));
        let held = Arc::clone(&old);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Release only once the drain waits, so its wake-up is tested.
                while !*lock(&wake.draining) {
                    std::thread::yield_now();
                }
                wake.release(held);
            });
            assert!(wake.drain(&old, Duration::from_secs(60)), "missed wake-up");
        });

        let (sink, _stuck) = (Arc::new(uae_obs::MemorySink::new()), Arc::clone(&old));
        let started = Instant::now();
        let budget = Duration::from_millis(10);
        assert!(!uae_obs::with_sink(sink.clone(), || wake.drain(&old, budget)));
        assert!(started.elapsed() >= budget);
        assert!(sink.events().iter().any(|e| matches!(e,
            uae_obs::Event::ServeFault { fault, .. } if fault == "swap_drain_timeout")));
    }
}
