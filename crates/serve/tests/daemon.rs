//! In-process integration tests for the serving daemon: a real `Daemon`
//! bound on an ephemeral port, exercised over TCP by [`ServeClient`].
//!
//! Each test stands up its own daemon (port 0, so tests parallelize) and
//! tears it down with a `Shutdown` request so the `run()` thread joins
//! cleanly. Fault injection uses directly constructed [`FaultPlan`]s, not
//! env vars, so tests cannot leak chaos into each other.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

use uae_core::{Uae, UaeConfig};
use uae_data::{generate, Dataset, SimConfig};
use uae_runtime::UaeError;
use uae_serve::{
    Daemon, DaemonConfig, FaultPlan, FrozenModel, Scorer, ScorerConfig, ServeClient, WireSession,
};

/// A tiny dataset plus an artifact encoding of a model trained-shaped for
/// its schema. Deterministic, so every test sees the same bytes.
fn tiny_fixture() -> (Dataset, Vec<u8>) {
    let ds = generate(&SimConfig::tiny(), 41);
    let cfg = UaeConfig {
        gru_hidden: 4,
        mlp_hidden: vec![4],
        ..UaeConfig::default()
    };
    let uae = Uae::new(&ds.schema, cfg);
    let bytes = FrozenModel::from_uae(&uae, &ds.schema, 15.0).encode();
    (ds, bytes)
}

/// Binds a daemon on an ephemeral port and runs it on a background thread.
/// Returns the resolved address and the `run()` handle to join after
/// shutdown.
fn start_daemon(
    bytes: &[u8],
    cfg: DaemonConfig,
    fault: FaultPlan,
) -> (SocketAddr, JoinHandle<Result<(), UaeError>>) {
    let frozen = FrozenModel::decode(bytes).expect("fixture artifact must decode");
    let daemon = Daemon::bind(frozen, cfg, fault).expect("bind on port 0");
    let addr = daemon.local_addr();
    let handle = std::thread::spawn(move || daemon.run());
    (addr, handle)
}

fn connect(addr: SocketAddr) -> ServeClient {
    ServeClient::connect_timeout(&addr.to_string(), Duration::from_secs(5))
        .expect("connect to in-process daemon")
}

fn wire_sessions(ds: &Dataset, indices: &[usize]) -> Vec<WireSession> {
    indices
        .iter()
        .map(|&i| WireSession::from_dataset(ds, i))
        .collect()
}

/// Indices of a few non-empty sessions (zero-event sessions are exercised
/// separately).
fn nonempty(ds: &Dataset, take: usize) -> Vec<usize> {
    (0..ds.sessions.len())
        .filter(|&i| !ds.sessions[i].events.is_empty())
        .take(take)
        .collect()
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<Result<(), UaeError>>) {
    connect(addr)
        .shutdown()
        .expect("daemon acknowledges shutdown");
    handle
        .join()
        .expect("run() thread must not panic")
        .expect("run() returns Ok after drain");
}

#[test]
fn scores_over_the_wire_match_local_scoring_bit_for_bit() {
    let (ds, bytes) = tiny_fixture();
    let (addr, handle) = start_daemon(&bytes, DaemonConfig::default(), FaultPlan::none());

    let indices = nonempty(&ds, 5);
    let mut client = connect(addr);
    client.ping().expect("ping answers pong");
    let (generation, scored) = client
        .score(wire_sessions(&ds, &indices), 0)
        .expect("score succeeds");
    assert_eq!(generation, 1, "fresh daemon serves generation 1");
    assert_eq!(scored.len(), indices.len());

    // The reference: the same artifact scored locally, outside the daemon.
    let local = Scorer::with_config(
        FrozenModel::decode(&bytes).unwrap(),
        ScorerConfig::default(),
    )
    .unwrap();
    let out = local.score(&ds, &indices);
    let mut off = 0usize;
    for (k, &i) in indices.iter().enumerate() {
        let n = ds.sessions[i].events.len();
        assert_eq!(scored[k].attention, out.attention[off..off + n].to_vec());
        assert_eq!(scored[k].propensity, out.propensity[off..off + n].to_vec());
        assert_eq!(scored[k].weights, out.weights[off..off + n].to_vec());
        off += n;
    }

    let stats = client.stats().expect("stats snapshot");
    assert!(stats.ready);
    assert_eq!(stats.generation, 1);
    assert!(stats.requests >= 1);
    assert!(stats.events >= off as u64);
    shutdown(addr, handle);
}

#[test]
fn empty_and_zero_event_requests_round_trip() {
    let (ds, bytes) = tiny_fixture();
    let (addr, handle) = start_daemon(&bytes, DaemonConfig::default(), FaultPlan::none());
    let mut client = connect(addr);

    // An empty session list is a legal no-op request.
    let (_, scored) = client.score(Vec::new(), 0).expect("empty request is ok");
    assert!(scored.is_empty());

    // A zero-event session contributes an empty block without disturbing
    // its non-empty neighbors.
    let indices = nonempty(&ds, 2);
    let mut sessions = wire_sessions(&ds, &indices);
    sessions.insert(1, WireSession { events: Vec::new() });
    let (_, scored) = client.score(sessions, 0).expect("mixed request is ok");
    assert_eq!(scored.len(), 3);
    assert!(scored[1].attention.is_empty());
    assert_eq!(
        scored[0].attention.len(),
        ds.sessions[indices[0]].events.len()
    );
    assert_eq!(
        scored[2].attention.len(),
        ds.sessions[indices[1]].events.len()
    );
    shutdown(addr, handle);
}

#[test]
fn schema_violations_are_typed_protocol_errors_and_the_connection_survives() {
    let (ds, bytes) = tiny_fixture();
    let cfg = DaemonConfig {
        max_len: Some(4),
        ..DaemonConfig::default()
    };
    let (addr, handle) = start_daemon(&bytes, cfg, FaultPlan::none());
    let mut client = connect(addr);

    // Wrong categorical field count (on a session truncated under the
    // length bound, so the field check is what fires).
    let mut sessions = wire_sessions(&ds, &nonempty(&ds, 1));
    sessions[0].events.truncate(2);
    sessions[0].events[0].cat.push(0);
    match client.score(sessions, 0) {
        Err(UaeError::Protocol { detail }) => {
            assert!(detail.contains("categorical"), "got: {detail}");
        }
        other => panic!("expected Protocol error, got {other:?}"),
    }

    // Overlong session (names the knob so operators know which to raise).
    let long = (0..ds.sessions.len())
        .find(|&i| ds.sessions[i].events.len() > 4)
        .expect("fixture has a session longer than 4 events");
    match client.score(wire_sessions(&ds, &[long]), 0) {
        Err(UaeError::Protocol { detail }) => {
            assert!(detail.contains("UAE_SERVE_MAX_LEN"), "got: {detail}");
        }
        other => panic!("expected Protocol error, got {other:?}"),
    }

    // The frame boundary held both times: the same connection still works
    // (with a request that fits the length bound).
    let mut ok = wire_sessions(&ds, &nonempty(&ds, 1));
    ok[0].events.truncate(4);
    client
        .score(ok, 0)
        .expect("connection survives typed protocol errors");
    shutdown(addr, handle);
}

#[test]
fn hot_swap_drains_and_scores_stay_bit_identical() {
    let (ds, bytes) = tiny_fixture();
    let dir = std::env::temp_dir().join(format!("uae_swap_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("next.uaem");
    // The swap target is the *same* model: generation flips 1 → 2 and
    // scores must not move by a single bit.
    std::fs::write(&path, &bytes).unwrap();

    let (addr, handle) = start_daemon(&bytes, DaemonConfig::default(), FaultPlan::none());
    let mut client = connect(addr);
    let indices = nonempty(&ds, 4);
    let (g1, before) = client.score(wire_sessions(&ds, &indices), 0).unwrap();
    assert_eq!(g1, 1);

    let next = client.swap(path.to_str().unwrap()).expect("swap succeeds");
    assert_eq!(next, 2);

    let (g2, after) = client.score(wire_sessions(&ds, &indices), 0).unwrap();
    assert_eq!(g2, 2, "post-swap scores carry the new generation tag");
    for (b, a) in before.iter().zip(&after) {
        assert_eq!(b.attention, a.attention, "attention moved across swap");
        assert_eq!(b.propensity, a.propensity, "propensity moved across swap");
        assert_eq!(b.weights, a.weights, "weights moved across swap");
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.generation, 2);
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.swap_rollbacks, 0);
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_swap_rolls_back_to_last_good() {
    let (ds, bytes) = tiny_fixture();
    let dir = std::env::temp_dir().join(format!("uae_rollback_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let truncated = dir.join("truncated.uaem");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    let missing = dir.join("does_not_exist.uaem");

    let (addr, handle) = start_daemon(&bytes, DaemonConfig::default(), FaultPlan::none());
    let mut client = connect(addr);

    for bad in [truncated.to_str().unwrap(), missing.to_str().unwrap()] {
        match client.swap(bad) {
            Err(UaeError::SwapRejected { .. }) => {}
            other => panic!("expected SwapRejected for {bad}, got {other:?}"),
        }
    }

    // Last-good generation still serves.
    let indices = nonempty(&ds, 2);
    let (generation, _) = client.score(wire_sessions(&ds, &indices), 0).unwrap();
    assert_eq!(generation, 1, "rollback keeps generation 1 active");
    let stats = client.stats().unwrap();
    assert_eq!(stats.swap_rollbacks, 2);
    assert_eq!(stats.swaps, 0);
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_with_typed_backpressure() {
    let (ds, bytes) = tiny_fixture();
    let cfg = DaemonConfig {
        workers: 1,
        queue_capacity: 1,
        batch: 1,
        ..DaemonConfig::default()
    };
    // The single worker stalls 400 ms per batch, so a burst of concurrent
    // one-session requests must overflow the one-session queue.
    let fault = FaultPlan::with(400, 0);
    let (addr, handle) = start_daemon(&bytes, cfg, fault);

    let indices = nonempty(&ds, 1);
    let burst = 6;
    let outcomes: Vec<Result<(), UaeError>> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..burst {
            let sessions = wire_sessions(&ds, &indices);
            joins.push(scope.spawn(move || {
                let mut c = connect(addr);
                c.score(sessions, 0).map(|_| ())
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });

    let ok = outcomes.iter().filter(|r| r.is_ok()).count();
    let shed = outcomes
        .iter()
        .filter(|r| matches!(r, Err(UaeError::Overload { .. })))
        .count();
    assert_eq!(
        ok + shed,
        burst,
        "every request was answered, never dropped"
    );
    assert!(ok >= 1, "the worker still makes progress under overload");
    assert!(shed >= 1, "a 6-deep burst against a 1-deep queue must shed");
    let mut client = connect(addr);
    let stats = client.stats().unwrap();
    assert_eq!(stats.shed, shed as u64);
    shutdown(addr, handle);
}

#[test]
fn blown_deadlines_answer_with_typed_deadline_exceeded() {
    let (ds, bytes) = tiny_fixture();
    let fault = FaultPlan::with(120, 0);
    let (addr, handle) = start_daemon(&bytes, DaemonConfig::default(), fault);
    let mut client = connect(addr);

    let indices = nonempty(&ds, 1);
    match client.score(wire_sessions(&ds, &indices), 30) {
        Err(UaeError::DeadlineExceeded {
            waited_ms,
            budget_ms,
        }) => {
            assert_eq!(budget_ms, 30);
            assert!(waited_ms >= 30, "waited {waited_ms} ms < 30 ms budget");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // A request with budget to spare still succeeds on the same daemon.
    client
        .score(wire_sessions(&ds, &indices), 5_000)
        .expect("generous budget survives the slow scorer");
    let stats = client.stats().unwrap();
    assert!(stats.deadline_miss >= 1);
    shutdown(addr, handle);
}

#[test]
fn worker_panics_are_isolated_and_the_daemon_keeps_serving() {
    let (ds, bytes) = tiny_fixture();
    let cfg = DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    };
    // Every second micro-batch panics inside the worker.
    let fault = FaultPlan::with(0, 2);
    let (addr, handle) = start_daemon(&bytes, cfg, fault);
    let mut client = connect(addr);
    let indices = nonempty(&ds, 1);

    let mut panics = 0usize;
    let mut oks = 0usize;
    for _ in 0..4 {
        match client.score(wire_sessions(&ds, &indices), 0) {
            Ok(_) => oks += 1,
            Err(UaeError::WorkerPanic { detail }) => {
                assert!(detail.contains("injected fault"), "got: {detail}");
                panics += 1;
            }
            other => panic!("expected Ok or WorkerPanic, got {other:?}"),
        }
    }
    assert_eq!(oks, 2, "odd batches score normally");
    assert_eq!(panics, 2, "even batches answer typed WorkerPanic");

    // The daemon itself never died: liveness and bookkeeping both hold.
    client.ping().expect("daemon answers after worker panics");
    let stats = client.stats().unwrap();
    assert_eq!(stats.worker_restarts, 2);
    shutdown(addr, handle);
}

#[test]
fn shutdown_answers_queued_work_before_exiting() {
    let (ds, bytes) = tiny_fixture();
    let cfg = DaemonConfig {
        workers: 1,
        batch: 1,
        ..DaemonConfig::default()
    };
    let fault = FaultPlan::with(150, 0);
    let (addr, handle) = start_daemon(&bytes, cfg, fault);
    let indices = nonempty(&ds, 1);

    // Queue two slow requests, then shut down while they are in flight;
    // both must still be answered (drain before exit).
    let results = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..2 {
            let sessions = wire_sessions(&ds, &indices);
            joins.push(scope.spawn(move || {
                let mut c = connect(addr);
                c.score(sessions, 0).map(|_| ())
            }));
        }
        // Shut down only once both are admitted: each admission records one
        // `queue_depth` sample.
        let mut probe = connect(addr);
        let admitted = |s: &uae_serve::StatsSnapshot| {
            s.hists
                .iter()
                .find(|h| h.name == "queue_depth")
                .map_or(0, |h| h.count)
        };
        while admitted(&probe.stats().expect("stats")) < 2 {}
        probe.shutdown().expect("shutdown acknowledged");
        joins
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect::<Vec<_>>()
    });
    for r in &results {
        assert!(r.is_ok(), "queued request dropped at shutdown: {r:?}");
    }
    handle.join().unwrap().expect("run() drains and returns");

    // The socket is really gone.
    assert!(
        ServeClient::connect_timeout(&addr.to_string(), Duration::from_millis(200)).is_err(),
        "daemon still listening after shutdown"
    );
}

#[test]
fn stats_exposes_quantile_histograms_and_a_balanced_trace_ledger() {
    let (ds, bytes) = tiny_fixture();
    let (addr, handle) = start_daemon(&bytes, DaemonConfig::default(), FaultPlan::none());
    let mut client = connect(addr);
    let indices = nonempty(&ds, 3);

    let mut trace_ids = std::collections::BTreeSet::new();
    for _ in 0..5 {
        let (_, trace_id, _) = client
            .score_traced(wire_sessions(&ds, &indices), 0)
            .expect("score succeeds");
        assert_ne!(trace_id, 0, "tracing is on by default");
        trace_ids.insert(trace_id);
    }
    assert_eq!(trace_ids.len(), 5, "every request gets a distinct trace id");

    let stats = client.stats().expect("stats snapshot");
    assert!(stats.uptime_ms > 0, "uptime is monotonic since start");
    assert!(stats.snapshot_unix_ms > 0, "wall clock is stamped");
    assert_eq!(stats.traces_started, 5);
    assert_eq!(
        stats.traces_completed, 5,
        "every minted trace was closed with an outcome"
    );
    let request = stats
        .hists
        .iter()
        .find(|h| h.name == "request_us")
        .expect("request latency histogram is exported");
    assert_eq!(request.count, 5);
    assert!(request.p50 <= request.p99 && request.p99 <= request.max);
    assert!(request.max > 0, "a real request takes nonzero microseconds");
    let bucket_total: u64 = request.buckets.iter().map(|&(_, c)| c).sum();
    assert_eq!(bucket_total, request.count, "bucket dump accounts for all");
    for name in [
        "queue_wait_us",
        "score_us",
        "reply_write_us",
        "batch_sessions",
    ] {
        assert!(
            stats.hists.iter().any(|h| h.name == name && h.count == 5),
            "{name} histogram missing or undercounted: {:?}",
            stats
                .hists
                .iter()
                .map(|h| (&h.name, h.count))
                .collect::<Vec<_>>()
        );
    }
    shutdown(addr, handle);
}

#[test]
fn scores_are_bit_identical_with_tracing_on_and_off() {
    let (ds, bytes) = tiny_fixture();
    let traced = start_daemon(&bytes, DaemonConfig::default(), FaultPlan::none());
    let untraced_cfg = DaemonConfig {
        trace: false,
        ..DaemonConfig::default()
    };
    let untraced = start_daemon(&bytes, untraced_cfg, FaultPlan::none());

    let indices = nonempty(&ds, 4);
    let mut on = connect(traced.0);
    let mut off = connect(untraced.0);
    let (_, on_id, a) = on
        .score_traced(wire_sessions(&ds, &indices), 0)
        .expect("traced daemon scores");
    let (_, off_id, b) = off
        .score_traced(wire_sessions(&ds, &indices), 0)
        .expect("untraced daemon scores");
    assert_ne!(on_id, 0);
    assert_eq!(off_id, 0, "UAE_TRACE=0 mints no trace ids");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.attention, y.attention, "attention moved under tracing");
        assert_eq!(x.propensity, y.propensity, "propensity moved under tracing");
        assert_eq!(x.weights, y.weights, "weights moved under tracing");
    }
    let stats = off.stats().unwrap();
    assert_eq!(stats.traces_started, 0);
    assert_eq!(stats.traces_completed, 0);
    shutdown(traced.0, traced.1);
    shutdown(untraced.0, untraced.1);
}

/// Reads the flight-recorder dumps under `dir` back through the JSONL
/// parser and returns the decoded trace summaries of each file.
fn read_dumps(dir: &std::path::Path) -> Vec<Vec<uae_obs::TraceSummary>> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("flight dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("uae-flight-") && n.ends_with(".jsonl"))
        })
        .collect();
    files.sort();
    files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).expect("dump readable");
            let records = uae_obs::parse_jsonl(&text).expect("dump is well-formed JSONL");
            assert!(
                matches!(records[0].event, uae_obs::Event::RunManifest(_)),
                "dump starts with a manifest"
            );
            // The dump is also renderable by `uae summarize`.
            let report = uae_obs::summarize(&records).expect("summarize renders the dump");
            assert!(report.contains("traces:"), "summary lacks a trace section");
            records
                .into_iter()
                .filter_map(|r| match r.event {
                    uae_obs::Event::Trace(t) => Some(t),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

#[test]
fn worker_panic_dumps_the_flight_recorder_with_preceding_traces() {
    let (ds, bytes) = tiny_fixture();
    let dir = std::env::temp_dir().join(format!("uae_flight_panic_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = DaemonConfig {
        workers: 1,
        flight_dir: dir.clone(),
        ..DaemonConfig::default()
    };
    // Every second micro-batch panics; the dump taken at the panic must
    // contain the trace of the successful request that preceded it.
    let fault = FaultPlan::with(0, 2);
    let (addr, handle) = start_daemon(&bytes, cfg, fault);
    let mut client = connect(addr);
    let indices = nonempty(&ds, 2);

    client
        .score(wire_sessions(&ds, &indices), 0)
        .expect("first batch scores");
    let second = client.score(wire_sessions(&ds, &indices), 0);
    assert!(
        matches!(second, Err(UaeError::WorkerPanic { .. })),
        "second batch panics: {second:?}"
    );

    let dumps = read_dumps(&dir);
    assert_eq!(dumps.len(), 1, "one panic, one dump");
    let traces = &dumps[0];
    assert!(
        traces
            .iter()
            .any(|t| t.outcome == "ok" && t.stages.score_us > 0),
        "dump holds the preceding ok trace with stage timings: {traces:?}"
    );
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swap_rollback_and_serve_ctl_dump_both_write_flight_dumps() {
    let (ds, bytes) = tiny_fixture();
    let dir = std::env::temp_dir().join(format!("uae_flight_swap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("corrupt.uaem");
    std::fs::write(&bad, &bytes[..bytes.len() / 3]).unwrap();
    let cfg = DaemonConfig {
        flight_dir: dir.clone(),
        ..DaemonConfig::default()
    };
    let (addr, handle) = start_daemon(&bytes, cfg, FaultPlan::none());
    let mut client = connect(addr);
    let indices = nonempty(&ds, 2);
    client
        .score(wire_sessions(&ds, &indices), 0)
        .expect("warm-up request");

    // A rejected swap rolls back AND leaves a flight dump behind.
    assert!(matches!(
        client.swap(bad.to_str().unwrap()),
        Err(UaeError::SwapRejected { .. })
    ));
    assert_eq!(read_dumps(&dir).len(), 1, "rollback wrote a dump");

    // An operator dump via the wire writes another and reports its path.
    let (path, traces) = client.dump().expect("serve-ctl dump");
    assert!(traces >= 1, "the warm-up trace is in the ring");
    assert!(
        std::path::Path::new(&path).is_file(),
        "reported path exists"
    );
    assert_eq!(read_dumps(&dir).len(), 2);
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-run the swap determinism claim under whatever `UAE_NUM_THREADS` the
/// harness sets (ci runs the suite at 1 and 4): coalesced scoring through a
/// generation swap must be bit-identical to isolated pre-swap scoring.
#[test]
fn swap_determinism_holds_under_concurrent_scoring() {
    let (ds, bytes) = tiny_fixture();
    let dir = std::env::temp_dir().join(format!("uae_swap_conc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("same.uaem");
    std::fs::write(&path, &bytes).unwrap();

    let cfg = DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    };
    let (addr, handle) = start_daemon(&bytes, cfg, FaultPlan::none());
    let indices = nonempty(&ds, 3);
    let baseline = {
        let mut c = connect(addr);
        c.score(wire_sessions(&ds, &indices), 0).unwrap().1
    };

    // Score continuously from two clients while a third swaps generations.
    let all_match = std::thread::scope(|scope| {
        let mut scorers = Vec::new();
        for _ in 0..2 {
            let sessions = wire_sessions(&ds, &indices);
            let baseline = &baseline;
            scorers.push(scope.spawn(move || {
                let mut c = connect(addr);
                for _ in 0..20 {
                    let (_, scored) = c.score(sessions.clone(), 0).expect("score during swaps");
                    for (s, b) in scored.iter().zip(baseline) {
                        if s.attention != b.attention
                            || s.propensity != b.propensity
                            || s.weights != b.weights
                        {
                            return false;
                        }
                    }
                }
                true
            }));
        }
        let swapper = scope.spawn(|| {
            let mut c = connect(addr);
            for _ in 0..3 {
                c.swap(path.to_str().unwrap()).expect("swap during load");
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let ok = scorers.into_iter().all(|j| j.join().unwrap());
        swapper.join().unwrap();
        ok
    });
    assert!(all_match, "a score moved across a generation swap");

    let mut client = connect(addr);
    let stats = client.stats().unwrap();
    assert_eq!(stats.generation, 4, "three swaps past generation 1");
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shed and protocol-error traces never reach a worker, so the stage
/// histograms exclude them; `hist_excluded` surfaces the exclusion so
/// `request_us.count == queue_wait_us.count + hist_excluded` reconciles.
#[test]
fn stage_histograms_exclude_shed_traffic_and_the_ledger_reconciles() {
    let (ds, bytes) = tiny_fixture();
    let (addr, handle) = start_daemon(&bytes, DaemonConfig::default(), FaultPlan::none());
    let mut client = connect(addr);

    let indices = nonempty(&ds, 2);
    client
        .score(wire_sessions(&ds, &indices), 0)
        .expect("clean request scores");

    // A schema violation closes its trace with a protocol-error outcome —
    // the request histogram records it, the stage histograms must not.
    let mut bad = wire_sessions(&ds, &indices);
    bad[0].events[0].cat.push(0);
    assert!(matches!(
        client.score(bad, 0),
        Err(UaeError::Protocol { .. })
    ));

    let stats = client.stats().unwrap();
    assert!(
        stats.hist_excluded >= 1,
        "the protocol-error trace must be counted as excluded"
    );
    let count = |name: &str| {
        stats
            .hists
            .iter()
            .find(|h| h.name == name)
            .map(|h| h.count)
            .unwrap_or(0)
    };
    assert_eq!(
        count("request_us"),
        count("queue_wait_us") + stats.hist_excluded,
        "request_us must equal queue_wait_us plus the excluded traces"
    );
    shutdown(addr, handle);
}

/// The micro-batcher groups each batch's sessions into contiguous
/// feature-hash shard ranges before scoring. The regrouping must be
/// invisible in the replies (scores bit-identical, in request order) and
/// visible in the stats (per-shard occupancy counters sum to the sessions
/// scored).
#[test]
fn shard_regrouping_is_score_invisible_and_occupancy_accounts_every_session() {
    let (ds, bytes) = tiny_fixture();
    let cfg = DaemonConfig {
        workers: 4,
        ..DaemonConfig::default()
    };
    let (addr, handle) = start_daemon(&bytes, cfg, FaultPlan::none());
    let mut client = connect(addr);

    let indices = nonempty(&ds, 8);
    let (_, scored) = client
        .score(wire_sessions(&ds, &indices), 0)
        .expect("score succeeds");

    // Request order and bit-identity against the local reference.
    let local = Scorer::with_config(
        FrozenModel::decode(&bytes).unwrap(),
        ScorerConfig::default(),
    )
    .unwrap();
    let out = local.score(&ds, &indices);
    let mut off = 0usize;
    for (k, &i) in indices.iter().enumerate() {
        let n = ds.sessions[i].events.len();
        assert_eq!(
            scored[k].attention,
            out.attention[off..off + n].to_vec(),
            "session {k} came back out of order or perturbed"
        );
        off += n;
    }

    let stats = client.stats().unwrap();
    assert_eq!(
        stats.shard_occupancy.len(),
        4,
        "one occupancy slot per worker"
    );
    let total: u64 = stats.shard_occupancy.iter().sum();
    assert_eq!(
        total,
        indices.len() as u64,
        "every scored session lands in exactly one shard"
    );
    shutdown(addr, handle);
}
