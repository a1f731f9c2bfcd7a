//! The load generator: at most two connections, each driven by one thread,
//! in closed loop (next request when the last reply arrives) or open loop
//! (requests due on a fixed schedule, timed from when they were due, so a
//! stall is charged to every request it delays).

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use uae_runtime::UaeError;
use uae_serve::wire::{self, Request, Response, StatsSnapshot};

use crate::stats::{reply_fingerprint, FingerprintLedger};
use crate::workload::RequestPool;

/// A request as one complete frame: length prefix, then payload.
pub fn frame(req: &Request) -> Vec<u8> {
    let payload = wire::encode_request(req);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        // A daemon that stops answering fails the run instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        Ok(Conn { stream })
    }

    /// Sends one complete frame (see [`frame`]) and decodes the reply.
    pub fn call_frame(&mut self, frame: &[u8]) -> Result<Response, UaeError> {
        self.stream
            .write_all(frame)
            .map_err(|e| UaeError::Unavailable {
                detail: format!("write: {e}"),
            })?;
        let reply = wire::read_frame(&mut self.stream)?.ok_or(UaeError::Unavailable {
            detail: "daemon closed the connection".into(),
        })?;
        wire::decode_response(&reply)
    }

    pub fn call(&mut self, req: &Request) -> Result<Response, UaeError> {
        self.call_frame(&frame(req))
    }

    pub fn stats(&mut self) -> Result<StatsSnapshot, String> {
        match self.call(&Request::Stats) {
            Ok(Response::Stats(s)) => Ok(s),
            other => Err(format!("stats: {other:?}")),
        }
    }

    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.call(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => Ok(()),
            other => Err(format!("shutdown: {other:?}")),
        }
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Seconds from the phase start: to the due time in open loop, to the
    /// reply in closed loop (the instant the work is counted at).
    pub at_s: f64,
    /// Latency, ms: from the due time in open loop, from the send in
    /// closed loop.
    pub latency_ms: f64,
    /// Send-to-reply time, ms.
    pub service_ms: f64,
    /// How late the send ran behind its due time, ms (0 in closed loop).
    pub late_ms: f64,
    /// Events scored in the reply.
    pub events: u64,
}

/// What the connections saw in one phase.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub sent: u64,
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
    pub samples: Vec<Sample>,
    /// Highest model generation that answered.
    pub max_generation: u64,
}

impl Tally {
    pub fn merge(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.failed += o.failed;
        if self.first_error.is_none() {
            self.first_error.clone_from(&o.first_error);
        }
        self.samples.extend_from_slice(&o.samples);
        self.max_generation = self.max_generation.max(o.max_generation);
    }

    pub fn ok(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn column(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(e);
        }
    }
}

/// One scoring connection's view of the pool: it sends requests `first`,
/// `first + step`, … of the pool's order and fingerprints every reply.
pub struct ScoringConn<'a> {
    pub conn: Conn,
    pub pool: &'a RequestPool,
    pub ledger: FingerprintLedger,
    next: usize,
    step: usize,
}

impl<'a> ScoringConn<'a> {
    pub fn new(conn: Conn, pool: &'a RequestPool, first: usize, step: usize) -> ScoringConn<'a> {
        ScoringConn {
            conn,
            pool,
            ledger: FingerprintLedger::new(pool.frames.len()),
            next: first,
            step,
        }
    }

    /// Sends request `i` and records its outcome against the phase start
    /// `t0`. `Err` when the connection is lost (no later request on it can
    /// be answered).
    fn send(
        &mut self,
        i: usize,
        t0: Instant,
        due: Option<Instant>,
        t: &mut Tally,
    ) -> Result<(), ()> {
        let slot = self.pool.slot(i);
        let sent = Instant::now();
        t.sent += 1;
        let reply = self.conn.call_frame(&self.pool.frames[slot]);
        let done = Instant::now();
        match reply {
            Ok(Response::Scored {
                generation,
                sessions,
                ..
            }) => {
                let want = &self.pool.sessions[slot];
                if sessions.len() != want.len() {
                    t.fail(format!(
                        "request {slot}: {} sessions answered, {} sent",
                        sessions.len(),
                        want.len()
                    ));
                    return Ok(());
                }
                self.ledger.observe(slot, reply_fingerprint(&sessions));
                t.max_generation = t.max_generation.max(generation);
                let start = due.unwrap_or(sent);
                t.samples.push(Sample {
                    at_s: secs(due.unwrap_or(done).saturating_duration_since(t0)),
                    latency_ms: ms(done - start),
                    service_ms: ms(done - sent),
                    late_ms: ms(sent - start),
                    events: self.pool.events[slot],
                });
                Ok(())
            }
            Ok(other) => {
                t.fail(format!("unexpected reply {other:?}"));
                Ok(())
            }
            Err(e @ UaeError::Unavailable { .. }) => {
                t.fail(e.to_string());
                Err(())
            }
            Err(e) => {
                t.fail(e.to_string());
                Ok(())
            }
        }
    }

    /// Closed loop from now until `until`; samples are stamped from `t0`.
    pub fn closed(&mut self, t0: Instant, until: Instant) -> Tally {
        let mut t = Tally::default();
        while Instant::now() < until {
            let i = self.next;
            self.next += self.step;
            if self.send(i, t0, None, &mut t).is_err() {
                break;
            }
        }
        t
    }

    /// Open loop: request `k` (counting across all scoring connections) is
    /// due at `t0 + k / rate`; this connection sends its share of those due
    /// before `until`, each as soon as both its due time and the previous
    /// reply have come.
    pub fn open(&mut self, t0: Instant, rate: f64, until: Instant, first: usize) -> Tally {
        let mut t = Tally::default();
        let mut k = first;
        loop {
            let due = t0 + Duration::from_secs_f64(k as f64 / rate);
            if due >= until {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if self.send(k, t0, Some(due), &mut t).is_err() {
                break;
            }
            k += self.step;
        }
        t
    }
}

/// One hot swap to `artifacts[(m + 1) % 2]` (the daemon starts on
/// `artifacts[0]`, so swaps alternate between the copies). Returns its
/// latency in ms.
pub fn swap_once(conn: &mut Conn, artifacts: &[PathBuf; 2], m: usize) -> Result<f64, String> {
    let sent = Instant::now();
    let path = artifacts[(m + 1) % 2].display().to_string();
    match conn.call(&Request::Swap { path }) {
        Ok(Response::Swapped { .. }) => Ok(ms(sent.elapsed())),
        other => Err(format!("swap {m}: {other:?}")),
    }
}

/// Swaps every `every` seconds from `t0` until `until`. Returns the
/// latencies in ms and the failures.
pub fn swap_loop(
    conn: &mut Conn,
    artifacts: &[PathBuf; 2],
    t0: Instant,
    every: f64,
    until: Instant,
) -> (Vec<f64>, Vec<String>) {
    let mut lat = Vec::new();
    let mut failures = Vec::new();
    for m in 0.. {
        let due = t0 + Duration::from_secs_f64(m as f64 * every);
        if due >= until {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        match swap_once(conn, artifacts, m) {
            Ok(l) => lat.push(l),
            Err(e) => failures.push(e),
        }
    }
    (lat, failures)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}
