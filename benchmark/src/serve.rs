//! The serve workloads: a fresh daemon child per repetition, warmed, then
//! driven in open loop at a fixed rate and in closed loop, with hot swaps
//! beside the scoring traffic where the plan asks for them.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use uae_data::Dataset;
use uae_serve::wire::StatsSnapshot;
use uae_serve::{FrozenModel, ScoreOutput, Scorer, ScorerConfig};

use crate::child::{spawn_daemon, DaemonChild};
use crate::loadgen::{self, Conn, Sample, Tally};
use crate::report::Outcome;
use crate::stats::{fnv1a, max, median, percentile, quartiles, windows, FingerprintLedger};
use crate::workload::{self, RequestPool, ServePlan};

/// What is served: the dataset the requests come from, the request pool,
/// and the artifact with a byte-identical copy to swap to.
pub struct Served<'a> {
    pub ds: &'a Dataset,
    pub pool: &'a RequestPool,
    pub artifacts: [PathBuf; 2],
}

/// Phase lengths of one repetition, in seconds.
#[derive(Clone, Copy)]
pub struct Phases {
    pub warmup: f64,
    pub open: f64,
    pub closed: f64,
    /// Swaps on an idle daemon after the load (traced runs of workloads
    /// without swap traffic, for the swap layer metrics).
    pub quiet_swaps: usize,
}

/// One repetition: a fresh daemon, warmed, then the open- and closed-loop
/// phases.
pub struct Rep {
    pub phases: Phases,
    pub setup_s: f64,
    pub warm: Tally,
    pub open: Tally,
    pub closed: Tally,
    pub swap_ms: Vec<f64>,
    pub swap_failures: Vec<String>,
    pub stats: StatsSnapshot,
    pub peak_rss_mib: f64,
    /// Daemon CPU seconds (all threads) from ready to the end of the load.
    pub cpu_s: f64,
    pub ledger: FingerprintLedger,
}

impl Rep {
    /// Median open-loop latency of every `len`-second window of the open
    /// phase, ms.
    pub fn open_window_p50s(&self, len: f64) -> Vec<f64> {
        windows(&self.open.samples, |s| s.at_s, len, self.phases.open)
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| median(&w.iter().map(|s| s.latency_ms).collect::<Vec<_>>()))
            .collect()
    }

    /// `f` summed over every `len`-second window of the closed phase, per
    /// second.
    pub fn closed_window_rates(&self, len: f64, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        windows(&self.closed.samples, |s| s.at_s, len, self.phases.closed)
            .iter()
            .map(|w| w.iter().map(|s| f(s)).sum::<f64>() / len)
            .collect()
    }

    /// Closed-loop completions per second over the whole phase.
    pub fn capacity_rps(&self) -> f64 {
        self.closed.ok() as f64 / self.phases.closed
    }

    /// Score requests answered (warm-up included).
    pub fn scored(&self) -> u64 {
        self.warm.ok() + self.open.ok() + self.closed.ok()
    }

    pub fn sent(&self) -> u64 {
        self.warm.sent + self.open.sent + self.closed.sent + self.swap_attempts()
    }

    pub fn swap_attempts(&self) -> u64 {
        (self.swap_ms.len() + self.swap_failures.len()) as u64
    }

    pub fn failed(&self) -> u64 {
        self.warm.failed + self.open.failed + self.closed.failed + self.swap_failures.len() as u64
    }

    /// Checks the daemon's own ledger: nothing shed, expired, panicked or
    /// malformed, every swap activated, every trace closed.
    pub fn daemon_problems(&self) -> Vec<String> {
        let s = &self.stats;
        let mut p = Vec::new();
        for (name, v) in [
            ("shed", s.shed),
            ("deadline_miss", s.deadline_miss),
            ("worker_restarts", s.worker_restarts),
            ("protocol_errors", s.protocol_errors),
            ("swap_rollbacks", s.swap_rollbacks),
        ] {
            if v != 0 {
                p.push(format!("daemon counted {v} {name}"));
            }
        }
        if s.swaps != self.swap_ms.len() as u64 || s.generation != 1 + s.swaps {
            p.push(format!(
                "daemon at generation {} after {} swaps; {} swaps answered",
                s.generation,
                s.swaps,
                self.swap_ms.len()
            ));
        }
        if s.traces_started != s.traces_completed {
            p.push(format!(
                "{} traces started, {} completed",
                s.traces_started, s.traces_completed
            ));
        }
        for t in [&self.warm, &self.open, &self.closed] {
            if let Some(e) = &t.first_error {
                p.push(format!("request failed: {e}"));
            }
        }
        p.extend(self.swap_failures.iter().cloned());
        p
    }
}

/// Runs one repetition against a fresh daemon serving `served.artifacts[0]`.
pub fn rep(plan: &ServePlan, served: &Served, trace: bool, phases: Phases) -> Result<Rep, String> {
    let DaemonChild { child, addr, setup } = spawn_daemon(&served.artifacts[0], trace)?;
    let conns = plan.scoring_conns;
    let mut scorers = (0..conns)
        .map(|k| {
            Ok(loadgen::ScoringConn::new(
                Conn::connect(&addr)?,
                served.pool,
                k,
                conns,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut swap_conn = match plan.swap_every {
        Some(_) => Some(Conn::connect(&addr)?),
        None => None,
    };
    let cpu_ready = child.cpu_seconds();
    let start = Instant::now();
    let t_open = start + Duration::from_secs_f64(phases.warmup);
    let t_closed = t_open + Duration::from_secs_f64(phases.open);
    let t_end = t_closed + Duration::from_secs_f64(phases.closed);
    let drive = |s: &mut loadgen::ScoringConn, k: usize| -> [Tally; 3] {
        let warm = s.closed(start, t_open);
        let open = s.open(t_open, plan.rate, t_closed, k);
        let closed = s.closed(t_closed, t_end);
        [warm, open, closed]
    };
    let drive = &drive;
    let artifacts = &served.artifacts;
    let (first, rest) = scorers.split_at_mut(1);
    // At most two threads drive load: this one and one spawned for the
    // second connection (which either scores or swaps).
    let (tallies, (mut swap_ms, mut swap_failures)) = std::thread::scope(|sc| {
        let load = rest.first_mut().map(|s| sc.spawn(move || drive(s, 1)));
        let swapper = match (swap_conn.as_mut(), plan.swap_every) {
            (Some(c), Some(every)) => {
                Some(sc.spawn(move || loadgen::swap_loop(c, artifacts, t_open, every, t_end)))
            }
            _ => None,
        };
        let mut tallies = drive(&mut first[0], 0);
        if let Some(h) = load {
            let other = h.join().expect("load thread panicked");
            for (t, o) in tallies.iter_mut().zip(&other) {
                t.merge(o);
            }
        }
        let swaps = swapper
            .map(|h| h.join().expect("swap thread panicked"))
            .unwrap_or_default();
        (tallies, swaps)
    });
    let conn = &mut first[0].conn;
    for m in 0..phases.quiet_swaps {
        match loadgen::swap_once(conn, artifacts, m) {
            Ok(l) => swap_ms.push(l),
            Err(e) => swap_failures.push(e),
        }
    }
    let cpu_s = child
        .cpu_seconds()
        .zip(cpu_ready)
        .map_or(f64::NAN, |(end, ready)| end - ready);
    let stats = conn.stats()?;
    let peak_rss_mib = child
        .peak_rss_mib()
        .ok_or("no VmHWM in /proc/<pid>/status")?;
    conn.shutdown()?;
    let mut ledger = FingerprintLedger::new(served.pool.frames.len());
    for s in &scorers {
        ledger.merge(&s.ledger);
    }
    drop(scorers);
    drop(swap_conn);
    child.wait(Duration::from_secs(30))?;
    let [warm, open, closed] = tallies;
    Ok(Rep {
        phases,
        setup_s: setup.as_secs_f64(),
        warm,
        open,
        closed,
        swap_ms,
        swap_failures,
        stats,
        peak_rss_mib,
        cpu_s,
        ledger,
    })
}

/// A cold start: spawn to ready (the set-up time) and spawn to the first
/// scored reply, in seconds and milliseconds.
pub fn cold_start(served: &Served) -> Result<(f64, f64), String> {
    let DaemonChild { child, addr, setup } = spawn_daemon(&served.artifacts[0], false)?;
    let mut conn = Conn::connect(&addr)?;
    let slot = served.pool.slot(0);
    match conn.call_frame(&served.pool.frames[slot]) {
        Ok(uae_serve::wire::Response::Scored { .. }) => {}
        other => return Err(format!("first request after a cold start: {other:?}")),
    }
    let first_reply_ms = loadgen::ms(child.spawned.elapsed());
    conn.shutdown()?;
    drop(conn);
    child.wait(Duration::from_secs(30))?;
    Ok((setup.as_secs_f64(), first_reply_ms))
}

/// The fingerprint of a scorer output for a request whose sessions have
/// `lens` events: each session's attention, propensity and weights, in
/// request order — the order the wire reply carries them in.
pub fn output_fingerprint(out: &ScoreOutput, lens: &[usize]) -> u64 {
    let mut chunks: Vec<&[f32]> = Vec::with_capacity(3 * lens.len());
    let mut off = 0;
    for &n in lens {
        chunks.push(&out.attention[off..off + n]);
        chunks.push(&out.propensity[off..off + n]);
        chunks.push(&out.weights[off..off + n]);
        off += n;
    }
    fnv1a(&chunks)
}

/// Checks every observed reply against the in-process scorer on the same
/// artifact. Returns the number of requests checked.
pub fn check_against_reference(
    ledger: &FingerprintLedger,
    ds: &Dataset,
    pool: &RequestPool,
    artifact: &Path,
) -> Result<usize, String> {
    let frozen = FrozenModel::open(artifact).map_err(|e| e.to_string())?;
    let scorer = Scorer::with_config(frozen, ScorerConfig::default()).map_err(|e| e.to_string())?;
    ledger.check(|slot| {
        let ids = &pool.sessions[slot];
        let lens: Vec<usize> = ids.iter().map(|&s| ds.sessions[s].len()).collect();
        output_fingerprint(&scorer.score(ds, ids), &lens)
    })
}

/// Builds what a serve workload serves from its seed: the dataset, an
/// untrained artifact and its copy, and the request pool.
pub fn prepare(
    name: &str,
    plan: &ServePlan,
    seed: u64,
) -> Result<(Dataset, RequestPool, [PathBuf; 2]), String> {
    let ds = plan.data.generate(seed);
    let all: Vec<usize> = (0..ds.sessions.len()).collect();
    let size = if plan.sessions_per_request == 1 {
        all.len().min(2048)
    } else {
        256
    };
    let pool = RequestPool::new(&ds, &all, plan.sessions_per_request, size, seed);
    let artifacts = workload::write_artifacts(&ds, name, seed).map_err(|e| e.to_string())?;
    Ok((ds, pool, artifacts))
}

/// The end-to-end run of a serve workload: extra cold starts, then the
/// plan's repetitions, each a fresh daemon with tracing off.
pub fn run(name: &str, plan: &ServePlan, served: &Served, seconds: f64) -> Outcome {
    let mut o = Outcome::new(name);
    let phase = seconds / (2.0 * plan.reps as f64);
    let mut setups = Vec::new();
    let mut first_reply = Vec::new();
    for _ in 0..plan.cold_starts {
        o.attempted += 1;
        if let Some((s, f)) = o.check(cold_start(served)) {
            setups.push(s);
            first_reply.push(f);
        }
    }
    let mut reps = Vec::new();
    let mut ledger = FingerprintLedger::new(served.pool.frames.len());
    for _ in 0..plan.reps {
        let phases = Phases {
            warmup: plan.warmup,
            open: phase,
            closed: phase,
            quiet_swaps: 0,
        };
        let Some(r) = o.check(rep(plan, served, false, phases)) else {
            o.failed += 1;
            continue;
        };
        o.attempted += r.sent();
        o.failed += r.failed();
        o.problems.extend(r.daemon_problems());
        ledger.merge(&r.ledger);
        setups.push(r.setup_s);
        reps.push(r);
    }
    if reps.is_empty() {
        return o;
    }
    if let Some(n) = o.check(check_against_reference(
        &ledger,
        served.ds,
        served.pool,
        &served.artifacts[0],
    )) {
        o.extra("checked_requests", n as f64, "count");
    }
    if plan.swap_every.is_some() {
        let swaps: u64 = reps.iter().map(|r| r.swap_ms.len() as u64).sum();
        let newest = reps
            .iter()
            .map(|r| r.open.max_generation.max(r.closed.max_generation));
        if swaps == 0 || newest.max().unwrap_or(0) < 2 {
            o.problem(format!(
                "{swaps} swaps completed; no reply came from a swapped-in model"
            ));
        }
    }
    // Latency takes the quiet quartile over windows and rates the best
    // window: interference from the shared host only ever slows a window,
    // and a daemon instance settles into one of two speeds with its
    // threads on two vCPUs (see BENCHMARK.md, "Steadiness").
    let all = |f: &dyn Fn(&Rep) -> Vec<f64>| -> Vec<f64> { reps.iter().flat_map(f).collect() };
    let p50s = all(&|r| r.open_window_p50s(plan.window));
    let events = all(&|r| r.closed_window_rates(plan.window, |s| s.events as f64));
    let completions = all(&|r| r.closed_window_rates(plan.window, |_| 1.0));
    let latency = all(&|r| r.open.column(|s| s.latency_ms));
    o.metric("setup_s", median(&setups), "s");
    o.metric("p50_ms", quartiles(&p50s)[0], "ms");
    o.metric("events_per_s", max(&events), "events/s");
    o.metric(
        "rss_peak_mb",
        median(&reps.iter().map(|r| r.peak_rss_mib).collect::<Vec<_>>()),
        "MiB",
    );
    o.extra("p99_ms", percentile(&latency, 0.99), "ms");
    o.extra(
        "p99_samples_beyond",
        (latency.len() as f64 * 0.01).floor(),
        "count",
    );
    o.extra("capacity_rps", max(&completions), "req/s");
    o.extra("windows", p50s.len() as f64, "count");
    o.extra(
        "late_p99_ms",
        percentile(&all(&|r| r.open.column(|s| s.late_ms)), 0.99),
        "ms",
    );
    o.extra("cold_start_ms", median(&first_reply), "ms");
    if plan.swap_every.is_some() {
        let all: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.swap_ms.iter().copied())
            .collect();
        o.extra("swap_p50_ms", median(&all), "ms");
        o.extra("swaps", all.len() as f64, "count");
    }
    o
}
