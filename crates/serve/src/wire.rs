//! The daemon's wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is `[u32 LE payload length][payload]` with the payload
//! bounded by [`MAX_FRAME`] (a declared length past the bound is a typed
//! protocol error, never an allocation). The first payload byte is the
//! frame kind; the rest is kind-specific, encoded with the same
//! bounds-checked [`ByteWriter`]/[`ByteReader`] pair as the `.uaem`/`.uaec`
//! containers, so a truncated or bit-flipped frame decodes to a typed
//! [`UaeError::Protocol`] instead of a panic or over-read.
//!
//! Request kinds: [`Request::Ping`], [`Request::Score`] (sessions of raw
//! feature events plus a per-request deadline), [`Request::Stats`],
//! [`Request::Swap`] (hot-reload a `.uaem` path), [`Request::Shutdown`].
//!
//! Responses carry a status byte: `0` = ok (kind-specific payload), `1` =
//! typed error (stable error code + the two numeric fields some variants
//! carry + display string), so a client can rebuild the exact
//! [`UaeError`] variant the daemon hit. Degradation stays typed end to
//! end: a shed, a deadline miss, a worker panic, and a rejected swap are
//! all *answers*, not dropped connections.

use std::io::{Read, Write};
use std::net::TcpStream;

use uae_data::{Dataset, FeatureSchema};
use uae_runtime::checkpoint::CheckpointError;
use uae_runtime::{ByteReader, ByteWriter, UaeError};

/// Hard upper bound on one frame's payload (requests and responses). Large
/// enough for thousands of sessions, small enough that a hostile length
/// field cannot OOM the daemon.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Frame kind tags (first payload byte of a request).
pub(crate) const KIND_PING: u8 = 0;
pub(crate) const KIND_SCORE: u8 = 1;
pub(crate) const KIND_STATS: u8 = 2;
pub(crate) const KIND_SWAP: u8 = 3;
pub(crate) const KIND_SHUTDOWN: u8 = 4;
pub(crate) const KIND_DUMP: u8 = 5;

/// Response status byte.
pub(crate) const STATUS_OK: u8 = 0;
pub(crate) const STATUS_ERR: u8 = 1;

/// One event of a live session as it crosses the wire: the categorical
/// and dense feature values plus the observed feedback-type bit `e`
/// (active/passive), which the sequential propensity head consumes as its
/// recurrent input.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEvent {
    pub cat: Vec<u32>,
    pub dense: Vec<f32>,
    pub active: bool,
}

/// One listener session in a score request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireSession {
    pub events: Vec<WireEvent>,
}

impl WireSession {
    /// Extracts a dataset session into wire form (the client-side bridge
    /// from simulated listeners to live requests).
    pub fn from_dataset(dataset: &Dataset, session: usize) -> WireSession {
        WireSession {
            events: dataset.sessions[session]
                .events
                .iter()
                .map(|ev| WireEvent {
                    cat: ev.cat.clone(),
                    dense: ev.dense.clone(),
                    active: ev.e(),
                })
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with an empty ok frame.
    Ping,
    /// Score the sessions' events. `deadline_ms = 0` means "use the
    /// daemon's default budget".
    Score {
        deadline_ms: u32,
        sessions: Vec<WireSession>,
    },
    /// Health/readiness probe plus the daemon's counter snapshot.
    Stats,
    /// Hot-reload the `.uaem` artifact at `path`, draining in-flight
    /// batches; a failed decode rolls back to the last-good generation.
    Swap { path: String },
    /// Dump the flight recorder (the last N trace summaries) to a JSONL
    /// file on the daemon's host; answered with the path written.
    Dump,
    /// Drain and exit.
    Shutdown,
}

/// Per-session scores in a score response (request order).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionScores {
    pub attention: Vec<f32>,
    pub propensity: Vec<f32>,
    pub weights: Vec<f32>,
}

/// A decoded ok-response payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Pong,
    Scored {
        /// Model generation that served the request (for hot-swap
        /// determinism checks).
        generation: u64,
        /// The daemon-side trace id minted for this request (0 when
        /// tracing is disabled), so clients can correlate replies with
        /// flight-recorder dumps and assert zero orphaned traces.
        trace_id: u64,
        sessions: Vec<SessionScores>,
    },
    Stats(StatsSnapshot),
    Swapped {
        generation: u64,
    },
    /// Flight recorder written to `path` with `traces` trace summaries.
    Dumped {
        path: String,
        traces: u64,
    },
    ShuttingDown,
}

/// Quantile summary plus sparse bucket dump of one daemon histogram, as
/// carried in the stats frame. Latency histograms are in microseconds;
/// size histograms (batch sessions, queue depth) are raw counts; value
/// histograms (propensity/attention/weight) are in milli-units.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireHist {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
    /// Nonzero buckets as `(inclusive upper bound, count)`, value order.
    pub buckets: Vec<(u64, u64)>,
}

impl WireHist {
    /// Builds the wire row from a histogram summary.
    pub fn from_summary(name: &str, s: &uae_obs::HistogramSummary) -> WireHist {
        WireHist {
            name: name.to_string(),
            count: s.count,
            sum: s.sum,
            max: s.max,
            p50: s.p50,
            p90: s.p90,
            p99: s.p99,
            p999: s.p999,
            buckets: s.buckets.clone(),
        }
    }
}

/// Point-in-time daemon health: readiness plus the counters the probes and
/// the chaos harness assert on. `uptime_ms` (monotonic since daemon start)
/// and `snapshot_unix_ms` (wall clock at snapshot time) make client-side
/// deltas between two stats calls computable: rates are
/// `Δcounter / Δuptime_ms`, and staleness is visible instead of guessed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    pub ready: bool,
    pub generation: u64,
    pub queue_depth: u64,
    pub requests: u64,
    pub sessions: u64,
    pub events: u64,
    pub shed: u64,
    pub deadline_miss: u64,
    pub worker_restarts: u64,
    pub protocol_errors: u64,
    pub swaps: u64,
    pub swap_rollbacks: u64,
    /// Milliseconds since the daemon bound its listener (monotonic).
    pub uptime_ms: u64,
    /// Wall-clock milliseconds since the unix epoch when this snapshot was
    /// taken.
    pub snapshot_unix_ms: u64,
    /// Traces minted at frame decode (score requests only).
    pub traces_started: u64,
    /// Traces closed with an outcome. Equal to `traces_started` when no
    /// request is in flight — the trace-complete contract.
    pub traces_completed: u64,
    /// Traces excluded from the *stage* histograms: shed and protocol-error
    /// outcomes never reach a worker, so they land in `request_us` but not
    /// in `queue_wait_us`/`assemble_us`/`score_us`/`reply_us`. Operators can
    /// reconcile `request_us.count == queue_wait_us.count + hist_excluded`.
    pub hist_excluded: u64,
    /// Live histogram summaries (empty when tracing is disabled).
    pub hists: Vec<WireHist>,
    /// Sessions scored per feature-hash shard since daemon start (one slot
    /// per worker). Skew here means the leading categorical feature is hot
    /// in one hash range, not that a worker thread is slow.
    pub shard_occupancy: Vec<u64>,
}

/// Stable wire codes for [`UaeError`] variants a daemon can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrCode {
    Overload = 1,
    Deadline = 2,
    Protocol = 3,
    SwapRejected = 4,
    Unavailable = 5,
    WorkerPanic = 6,
    Other = 7,
}

fn proto(detail: impl Into<String>) -> UaeError {
    UaeError::Protocol {
        detail: detail.into(),
    }
}

/// Maps a bounds-check failure from the shared byte codec onto the wire
/// error taxonomy (a truncated *frame* is a protocol violation, not a
/// checkpoint problem).
fn codec(e: CheckpointError) -> UaeError {
    proto(format!("malformed frame: {e}"))
}

/// Encodes a request into one frame payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match req {
        Request::Ping => w.put_u8(KIND_PING),
        Request::Score {
            deadline_ms,
            sessions,
        } => {
            w.put_u8(KIND_SCORE);
            w.put_u32(*deadline_ms);
            w.put_u32(sessions.len() as u32);
            for s in sessions {
                w.put_u32(s.events.len() as u32);
                for ev in &s.events {
                    w.put_u32(ev.cat.len() as u32);
                    for &c in &ev.cat {
                        w.put_u32(c);
                    }
                    w.put_u32(ev.dense.len() as u32);
                    for &d in &ev.dense {
                        w.put_f32(d);
                    }
                    w.put_bool(ev.active);
                }
            }
        }
        Request::Stats => w.put_u8(KIND_STATS),
        Request::Swap { path } => {
            w.put_u8(KIND_SWAP);
            w.put_bytes(path.as_bytes());
        }
        Request::Dump => w.put_u8(KIND_DUMP),
        Request::Shutdown => w.put_u8(KIND_SHUTDOWN),
    }
    w.into_bytes()
}

/// Decodes a request frame payload. Every failure is a typed
/// [`UaeError::Protocol`]; declared counts are validated against the bytes
/// actually present before any allocation trusts them.
pub fn decode_request(bytes: &[u8]) -> Result<Request, UaeError> {
    let mut r = ByteReader::new(bytes);
    let kind = r.get_u8().map_err(codec)?;
    let req = match kind {
        KIND_PING => Request::Ping,
        KIND_SCORE => {
            let deadline_ms = r.get_u32().map_err(codec)?;
            let n_sessions = r.get_u32().map_err(codec)? as usize;
            // Each session costs at least 4 bytes (its length word); a
            // count beyond that is a lie about bytes that cannot exist.
            if n_sessions > bytes.len() / 4 {
                return Err(proto(format!(
                    "declared session count {n_sessions} exceeds frame capacity"
                )));
            }
            let mut sessions = Vec::with_capacity(n_sessions);
            for _ in 0..n_sessions {
                let n_events = r.get_u32().map_err(codec)? as usize;
                if n_events > bytes.len() {
                    return Err(proto(format!(
                        "declared event count {n_events} exceeds frame capacity"
                    )));
                }
                let mut events = Vec::with_capacity(n_events);
                for _ in 0..n_events {
                    let n_cat = r.get_u32().map_err(codec)? as usize;
                    if n_cat > bytes.len() / 4 {
                        return Err(proto("declared cat-field count exceeds frame capacity"));
                    }
                    let mut cat = Vec::with_capacity(n_cat);
                    for _ in 0..n_cat {
                        cat.push(r.get_u32().map_err(codec)?);
                    }
                    let n_dense = r.get_u32().map_err(codec)? as usize;
                    if n_dense > bytes.len() / 4 {
                        return Err(proto("declared dense count exceeds frame capacity"));
                    }
                    let mut dense = Vec::with_capacity(n_dense);
                    for _ in 0..n_dense {
                        dense.push(r.get_f32().map_err(codec)?);
                    }
                    let active = r.get_u8().map_err(codec)? != 0;
                    events.push(WireEvent { cat, dense, active });
                }
                sessions.push(WireSession { events });
            }
            Request::Score {
                deadline_ms,
                sessions,
            }
        }
        KIND_STATS => Request::Stats,
        KIND_SWAP => {
            let path = String::from_utf8(r.get_bytes().map_err(codec)?)
                .map_err(|_| proto("swap path is not utf-8"))?;
            Request::Swap { path }
        }
        KIND_DUMP => Request::Dump,
        KIND_SHUTDOWN => Request::Shutdown,
        other => return Err(proto(format!("unknown request kind {other}"))),
    };
    Ok(req)
}

/// Validates a score request against the serving schema: field counts and
/// categorical ranges must match what the model was trained on, and
/// session lengths must fit the daemon's configured bound. Violations are
/// typed protocol errors — the daemon never feeds unchecked indices into
/// an embedding gather.
pub fn validate_sessions(
    sessions: &[WireSession],
    schema: &FeatureSchema,
    max_sessions: usize,
    max_len: Option<usize>,
) -> Result<(), UaeError> {
    if sessions.len() > max_sessions {
        return Err(proto(format!(
            "request holds {} sessions, limit {max_sessions}",
            sessions.len()
        )));
    }
    let n_cat = schema.num_cat_fields();
    let n_dense = schema.num_dense();
    for (si, s) in sessions.iter().enumerate() {
        if let Some(limit) = max_len {
            if s.events.len() > limit {
                return Err(proto(format!(
                    "session {si} has {} events, UAE_SERVE_MAX_LEN is {limit}",
                    s.events.len()
                )));
            }
        }
        for (ti, ev) in s.events.iter().enumerate() {
            if ev.cat.len() != n_cat {
                return Err(proto(format!(
                    "session {si} event {ti}: {} categorical fields, schema has {n_cat}",
                    ev.cat.len()
                )));
            }
            if ev.dense.len() != n_dense {
                return Err(proto(format!(
                    "session {si} event {ti}: {} dense features, schema has {n_dense}",
                    ev.dense.len()
                )));
            }
            for (f, (&c, &card)) in ev.cat.iter().zip(&schema.cat_cardinalities).enumerate() {
                if c as usize >= card {
                    return Err(proto(format!(
                        "session {si} event {ti} field {f}: value {c} >= cardinality {card}"
                    )));
                }
            }
            if ev.dense.iter().any(|d| !d.is_finite()) {
                return Err(proto(format!(
                    "session {si} event {ti}: non-finite dense feature"
                )));
            }
        }
    }
    Ok(())
}

/// Encodes an ok response.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(STATUS_OK);
    match resp {
        Response::Pong => w.put_u8(KIND_PING),
        Response::Scored {
            generation,
            trace_id,
            sessions,
        } => {
            w.put_u8(KIND_SCORE);
            w.put_u64(*generation);
            w.put_u64(*trace_id);
            w.put_u32(sessions.len() as u32);
            for s in sessions {
                w.put_u32(s.attention.len() as u32);
                for &v in &s.attention {
                    w.put_f32(v);
                }
                for &v in &s.propensity {
                    w.put_f32(v);
                }
                for &v in &s.weights {
                    w.put_f32(v);
                }
            }
        }
        Response::Stats(s) => {
            w.put_u8(KIND_STATS);
            w.put_bool(s.ready);
            for v in [
                s.generation,
                s.queue_depth,
                s.requests,
                s.sessions,
                s.events,
                s.shed,
                s.deadline_miss,
                s.worker_restarts,
                s.protocol_errors,
                s.swaps,
                s.swap_rollbacks,
                s.uptime_ms,
                s.snapshot_unix_ms,
                s.traces_started,
                s.traces_completed,
                s.hist_excluded,
            ] {
                w.put_u64(v);
            }
            w.put_u32(s.hists.len() as u32);
            for h in &s.hists {
                w.put_bytes(h.name.as_bytes());
                for v in [h.count, h.sum, h.max, h.p50, h.p90, h.p99, h.p999] {
                    w.put_u64(v);
                }
                w.put_u32(h.buckets.len() as u32);
                for &(hi, c) in &h.buckets {
                    w.put_u64(hi);
                    w.put_u64(c);
                }
            }
            w.put_u32(s.shard_occupancy.len() as u32);
            for &hits in &s.shard_occupancy {
                w.put_u64(hits);
            }
        }
        Response::Swapped { generation } => {
            w.put_u8(KIND_SWAP);
            w.put_u64(*generation);
        }
        Response::Dumped { path, traces } => {
            w.put_u8(KIND_DUMP);
            w.put_bytes(path.as_bytes());
            w.put_u64(*traces);
        }
        Response::ShuttingDown => w.put_u8(KIND_SHUTDOWN),
    }
    w.into_bytes()
}

/// Encodes an error response carrying the typed [`UaeError`].
pub fn encode_error(err: &UaeError) -> Vec<u8> {
    let (code, a, b) = match err {
        UaeError::Overload { queue_depth, limit } => {
            (ErrCode::Overload, *queue_depth as u64, *limit as u64)
        }
        UaeError::DeadlineExceeded {
            waited_ms,
            budget_ms,
        } => (ErrCode::Deadline, *waited_ms, *budget_ms),
        UaeError::Protocol { .. } => (ErrCode::Protocol, 0, 0),
        UaeError::SwapRejected { .. } => (ErrCode::SwapRejected, 0, 0),
        UaeError::Unavailable { .. } => (ErrCode::Unavailable, 0, 0),
        UaeError::WorkerPanic { .. } => (ErrCode::WorkerPanic, 0, 0),
        _ => (ErrCode::Other, 0, 0),
    };
    let mut w = ByteWriter::new();
    w.put_u8(STATUS_ERR);
    w.put_u8(code as u8);
    w.put_u64(a);
    w.put_u64(b);
    let detail = match err {
        UaeError::Protocol { detail }
        | UaeError::SwapRejected { detail }
        | UaeError::Unavailable { detail }
        | UaeError::WorkerPanic { detail } => detail.clone(),
        other => other.to_string(),
    };
    w.put_bytes(detail.as_bytes());
    w.into_bytes()
}

/// Decodes a response frame payload back into `Ok(Response)` or the typed
/// `Err(UaeError)` the daemon answered with.
pub fn decode_response(bytes: &[u8]) -> Result<Response, UaeError> {
    let mut r = ByteReader::new(bytes);
    let status = r.get_u8().map_err(codec)?;
    if status == STATUS_ERR {
        let code = r.get_u8().map_err(codec)?;
        let a = r.get_u64().map_err(codec)?;
        let b = r.get_u64().map_err(codec)?;
        let detail = String::from_utf8(r.get_bytes().map_err(codec)?)
            .map_err(|_| proto("error detail is not utf-8"))?;
        return Err(match code {
            x if x == ErrCode::Overload as u8 => UaeError::Overload {
                queue_depth: a as usize,
                limit: b as usize,
            },
            x if x == ErrCode::Deadline as u8 => UaeError::DeadlineExceeded {
                waited_ms: a,
                budget_ms: b,
            },
            x if x == ErrCode::Protocol as u8 => UaeError::Protocol { detail },
            x if x == ErrCode::SwapRejected as u8 => UaeError::SwapRejected { detail },
            x if x == ErrCode::Unavailable as u8 => UaeError::Unavailable { detail },
            x if x == ErrCode::WorkerPanic as u8 => UaeError::WorkerPanic { detail },
            _ => UaeError::Unavailable { detail },
        });
    }
    if status != STATUS_OK {
        return Err(proto(format!("unknown response status {status}")));
    }
    let kind = r.get_u8().map_err(codec)?;
    let resp = match kind {
        KIND_PING => Response::Pong,
        KIND_SCORE => {
            let generation = r.get_u64().map_err(codec)?;
            let trace_id = r.get_u64().map_err(codec)?;
            let n_sessions = r.get_u32().map_err(codec)? as usize;
            if n_sessions > bytes.len() / 4 {
                return Err(proto("declared session count exceeds frame capacity"));
            }
            let mut sessions = Vec::with_capacity(n_sessions);
            for _ in 0..n_sessions {
                let n = r.get_u32().map_err(codec)? as usize;
                if n > bytes.len() / 4 {
                    return Err(proto("declared score count exceeds frame capacity"));
                }
                let mut read_vec = |n: usize| -> Result<Vec<f32>, UaeError> {
                    let mut v = Vec::with_capacity(n);
                    for _ in 0..n {
                        v.push(r.get_f32().map_err(codec)?);
                    }
                    Ok(v)
                };
                let attention = read_vec(n)?;
                let propensity = read_vec(n)?;
                let weights = read_vec(n)?;
                sessions.push(SessionScores {
                    attention,
                    propensity,
                    weights,
                });
            }
            Response::Scored {
                generation,
                trace_id,
                sessions,
            }
        }
        KIND_STATS => {
            let ready = r.get_u8().map_err(codec)? != 0;
            let mut snap = {
                let mut next = || r.get_u64().map_err(codec);
                StatsSnapshot {
                    ready,
                    generation: next()?,
                    queue_depth: next()?,
                    requests: next()?,
                    sessions: next()?,
                    events: next()?,
                    shed: next()?,
                    deadline_miss: next()?,
                    worker_restarts: next()?,
                    protocol_errors: next()?,
                    swaps: next()?,
                    swap_rollbacks: next()?,
                    uptime_ms: next()?,
                    snapshot_unix_ms: next()?,
                    traces_started: next()?,
                    traces_completed: next()?,
                    hist_excluded: next()?,
                    hists: Vec::new(),
                    shard_occupancy: Vec::new(),
                }
            };
            let n_hists = r.get_u32().map_err(codec)? as usize;
            // Each histogram row costs at least 64 bytes of fixed fields.
            if n_hists > bytes.len() / 64 {
                return Err(proto("declared histogram count exceeds frame capacity"));
            }
            for _ in 0..n_hists {
                let name = String::from_utf8(r.get_bytes().map_err(codec)?)
                    .map_err(|_| proto("histogram name is not utf-8"))?;
                let mut next = || r.get_u64().map_err(codec);
                let (count, sum, max) = (next()?, next()?, next()?);
                let (p50, p90, p99, p999) = (next()?, next()?, next()?, next()?);
                let n_buckets = r.get_u32().map_err(codec)? as usize;
                if n_buckets > bytes.len() / 16 {
                    return Err(proto("declared bucket count exceeds frame capacity"));
                }
                let mut buckets = Vec::with_capacity(n_buckets);
                for _ in 0..n_buckets {
                    let hi = r.get_u64().map_err(codec)?;
                    let c = r.get_u64().map_err(codec)?;
                    buckets.push((hi, c));
                }
                snap.hists.push(WireHist {
                    name,
                    count,
                    sum,
                    max,
                    p50,
                    p90,
                    p99,
                    p999,
                    buckets,
                });
            }
            let n_shards = r.get_u32().map_err(codec)? as usize;
            if n_shards > bytes.len() / 8 {
                return Err(proto("declared shard count exceeds frame capacity"));
            }
            for _ in 0..n_shards {
                snap.shard_occupancy.push(r.get_u64().map_err(codec)?);
            }
            Response::Stats(snap)
        }
        KIND_SWAP => Response::Swapped {
            generation: r.get_u64().map_err(codec)?,
        },
        KIND_DUMP => Response::Dumped {
            path: String::from_utf8(r.get_bytes().map_err(codec)?)
                .map_err(|_| proto("dump path is not utf-8"))?,
            traces: r.get_u64().map_err(codec)?,
        },
        KIND_SHUTDOWN => Response::ShuttingDown,
        other => return Err(proto(format!("unknown response kind {other}"))),
    };
    Ok(resp)
}

/// Writes one length-prefixed frame to a stream.
pub fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> Result<(), UaeError> {
    if payload.len() > MAX_FRAME {
        return Err(proto(format!(
            "frame of {} bytes exceeds MAX_FRAME {MAX_FRAME}",
            payload.len()
        )));
    }
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    stream.write_all(&buf).map_err(|e| UaeError::Unavailable {
        detail: format!("connection write failed: {e}"),
    })
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer hung up between requests); a declared length
/// past [`MAX_FRAME`] or an EOF mid-frame is a typed error.
pub fn read_frame(stream: &mut impl Read) -> Result<Option<Vec<u8>>, UaeError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match stream.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(proto("connection closed mid-frame header")),
            Ok(n) => filled += n,
            Err(e) => {
                return Err(UaeError::Unavailable {
                    detail: format!("connection read failed: {e}"),
                })
            }
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(proto(format!(
            "declared frame length {len} exceeds MAX_FRAME {MAX_FRAME}"
        )));
    }
    let mut payload = vec![0u8; len];
    let mut read = 0usize;
    while read < len {
        match stream.read(&mut payload[read..]) {
            Ok(0) => return Err(proto("connection closed mid-frame")),
            Ok(n) => read += n,
            Err(e) => {
                return Err(UaeError::Unavailable {
                    detail: format!("connection read failed: {e}"),
                })
            }
        }
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::{generate, SimConfig};

    fn sample_sessions() -> (Dataset, Vec<WireSession>) {
        let ds = generate(&SimConfig::tiny(), 11);
        let sessions = (0..4).map(|s| WireSession::from_dataset(&ds, s)).collect();
        (ds, sessions)
    }

    #[test]
    fn requests_round_trip() {
        let (_, sessions) = sample_sessions();
        for req in [
            Request::Ping,
            Request::Score {
                deadline_ms: 250,
                sessions,
            },
            Request::Stats,
            Request::Swap {
                path: "/tmp/model.uaem".into(),
            },
            Request::Dump,
            Request::Shutdown,
        ] {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Pong,
            Response::Scored {
                generation: 7,
                trace_id: 42,
                sessions: vec![SessionScores {
                    attention: vec![0.25, 0.5],
                    propensity: vec![0.75, 1.0],
                    weights: vec![0.1, 0.2],
                }],
            },
            Response::Stats(StatsSnapshot {
                ready: true,
                generation: 3,
                queue_depth: 12,
                requests: 100,
                sessions: 220,
                events: 4096,
                shed: 5,
                deadline_miss: 2,
                worker_restarts: 1,
                protocol_errors: 4,
                swaps: 2,
                swap_rollbacks: 1,
                uptime_ms: 60_000,
                snapshot_unix_ms: 1_754_600_000_000,
                traces_started: 107,
                traces_completed: 107,
                hist_excluded: 9,
                hists: vec![
                    WireHist {
                        name: "request_us".into(),
                        count: 100,
                        sum: 250_000,
                        max: 30_000,
                        p50: 2_000,
                        p90: 5_000,
                        p99: 20_000,
                        p999: 30_000,
                        buckets: vec![(2047, 60), (4095, 30), (32_767, 10)],
                    },
                    WireHist {
                        name: "queue_depth".into(),
                        count: 100,
                        sum: 150,
                        max: 6,
                        p50: 1,
                        p90: 3,
                        p99: 6,
                        p999: 6,
                        buckets: vec![(1, 70), (3, 24), (6, 6)],
                    },
                ],
                shard_occupancy: vec![40, 55, 62, 63],
            }),
            Response::Stats(StatsSnapshot::default()),
            Response::Swapped { generation: 4 },
            Response::Dumped {
                path: "/tmp/uae-flight-1.jsonl".into(),
                traces: 12,
            },
            Response::ShuttingDown,
        ] {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn typed_errors_survive_the_wire() {
        for err in [
            UaeError::Overload {
                queue_depth: 64,
                limit: 64,
            },
            UaeError::DeadlineExceeded {
                waited_ms: 600,
                budget_ms: 500,
            },
            UaeError::Protocol {
                detail: "bad frame".into(),
            },
            UaeError::SwapRejected {
                detail: "checkpoint rejected: bad magic".into(),
            },
            UaeError::Unavailable {
                detail: "draining".into(),
            },
            UaeError::WorkerPanic {
                detail: "injected panic".into(),
            },
        ] {
            let bytes = encode_error(&err);
            assert_eq!(decode_response(&bytes).unwrap_err(), err, "{err:?}");
        }
    }

    #[test]
    fn truncated_and_mutated_frames_are_typed_protocol_errors() {
        let (_, sessions) = sample_sessions();
        let bytes = encode_request(&Request::Score {
            deadline_ms: 0,
            sessions,
        });
        for cut in [0, 1, 2, 5, 9, bytes.len() / 2, bytes.len() - 1] {
            match decode_request(&bytes[..cut]) {
                Err(UaeError::Protocol { .. }) => {}
                Ok(Request::Ping) | Ok(Request::Stats) | Ok(Request::Shutdown) if cut == 1 => {
                    // A 1-byte prefix can alias a no-payload request; that
                    // is well-formed by construction, not a crash.
                }
                other => panic!("cut={cut}: expected Protocol error, got {other:?}"),
            }
        }
        // An oversized declared count must not allocate or panic.
        let mut w = ByteWriter::new();
        w.put_u8(KIND_SCORE);
        w.put_u32(0);
        w.put_u32(u32::MAX);
        match decode_request(&w.into_bytes()) {
            Err(UaeError::Protocol { detail }) => {
                assert!(detail.contains("session count"), "{detail}")
            }
            other => panic!("expected Protocol error, got {other:?}"),
        }
        // Unknown kind byte.
        match decode_request(&[99]) {
            Err(UaeError::Protocol { .. }) => {}
            other => panic!("expected Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_schema_mismatches() {
        let (ds, mut sessions) = sample_sessions();
        assert!(validate_sessions(&sessions, &ds.schema, 64, None).is_ok());
        // Too many sessions.
        match validate_sessions(&sessions, &ds.schema, 2, None) {
            Err(UaeError::Protocol { detail }) => assert!(detail.contains("limit"), "{detail}"),
            other => panic!("{other:?}"),
        }
        // Overlong session against a configured bound.
        match validate_sessions(&sessions, &ds.schema, 64, Some(1)) {
            Err(UaeError::Protocol { detail }) => {
                assert!(detail.contains("UAE_SERVE_MAX_LEN"), "{detail}")
            }
            other => panic!("{other:?}"),
        }
        // Out-of-range categorical value.
        sessions[0].events[0].cat[0] = u32::MAX;
        match validate_sessions(&sessions, &ds.schema, 64, None) {
            Err(UaeError::Protocol { detail }) => {
                assert!(detail.contains("cardinality"), "{detail}")
            }
            other => panic!("{other:?}"),
        }
        sessions[0].events[0].cat.pop();
        match validate_sessions(&sessions, &ds.schema, 64, None) {
            Err(UaeError::Protocol { .. }) => {}
            other => panic!("{other:?}"),
        }
        // Non-finite dense feature.
        let (_, mut sessions) = sample_sessions();
        sessions[1].events[0].dense[0] = f32::NAN;
        match validate_sessions(&sessions, &ds.schema, 64, None) {
            Err(UaeError::Protocol { detail }) => {
                assert!(detail.contains("non-finite"), "{detail}")
            }
            other => panic!("{other:?}"),
        }
    }
}
