//! Protocol-level chaos against a live in-process daemon: malformed
//! payloads, truncated frames, hostile length headers, and a concurrent
//! storm mixing abuse with well-formed load. The invariant under test is
//! always the same — the daemon *answers or drops the one connection*,
//! and keeps serving everyone else.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uae_core::{Uae, UaeConfig};
use uae_data::{generate, Dataset, SimConfig};
use uae_runtime::UaeError;
use uae_serve::{wire, Daemon, DaemonConfig, FaultPlan, FrozenModel, ServeClient, WireSession};

fn start_tiny_daemon() -> (Dataset, SocketAddr, JoinHandle<Result<(), UaeError>>) {
    let ds = generate(&SimConfig::tiny(), 41);
    let cfg = UaeConfig {
        gru_hidden: 4,
        mlp_hidden: vec![4],
        ..UaeConfig::default()
    };
    let uae = Uae::new(&ds.schema, cfg);
    let frozen = FrozenModel::from_uae(&uae, &ds.schema, 15.0);
    let daemon =
        Daemon::bind(frozen, DaemonConfig::default(), FaultPlan::none()).expect("bind on port 0");
    let addr = daemon.local_addr();
    let handle = std::thread::spawn(move || daemon.run());
    (ds, addr, handle)
}

fn connect(addr: SocketAddr) -> ServeClient {
    ServeClient::connect_timeout(&addr.to_string(), Duration::from_secs(5))
        .expect("connect to in-process daemon")
}

fn good_request(ds: &Dataset) -> Vec<WireSession> {
    let idx = (0..ds.sessions.len())
        .find(|&i| !ds.sessions[i].events.is_empty())
        .expect("fixture has a non-empty session");
    vec![WireSession::from_dataset(ds, idx)]
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<Result<(), UaeError>>) {
    connect(addr)
        .shutdown()
        .expect("daemon acknowledges shutdown");
    handle
        .join()
        .expect("run() thread must not panic")
        .expect("run() returns Ok");
}

#[test]
fn malformed_payloads_draw_typed_replies_and_the_connection_survives() {
    let (ds, addr, handle) = start_tiny_daemon();
    let mut client = connect(addr);

    // Well-formed frames, hostile bodies. The frame boundary holds, so
    // every one must be *answered* (typed error) on a connection that
    // stays usable.
    let hostile: [&[u8]; 4] = [
        &[0xEE],                              // unknown request kind
        &[1u8],                               // Score with a truncated body
        &[1u8, 0xFF, 0xFF, 0xFF, 0xFF, 0x42], // Score with insane counts
        &[],                                  // empty payload
    ];
    for payload in hostile {
        match client.call_raw_payload(payload) {
            Err(UaeError::Protocol { .. }) => {}
            other => panic!("payload {payload:?}: expected typed Protocol reply, got {other:?}"),
        }
    }

    // Same connection, same daemon: a well-formed request still scores.
    client
        .score(good_request(&ds), 0)
        .expect("connection survives malformed payloads");
    let stats = connect(addr).stats().unwrap();
    assert!(stats.protocol_errors >= hostile.len() as u64);
    shutdown(addr, handle);
}

#[test]
fn truncated_frame_hangups_never_wedge_the_daemon() {
    let (ds, addr, handle) = start_tiny_daemon();

    // Five connections each promise a 1 KiB frame, deliver 17 bytes, and
    // vanish. Each is a mid-frame EOF the daemon must charge to that
    // connection alone.
    for _ in 0..5 {
        let throwaway = connect(addr);
        let mut partial = (1024u32).to_le_bytes().to_vec();
        partial.extend_from_slice(&[0xAB; 17]);
        throwaway
            .send_bytes_and_hangup(&partial)
            .expect("raw write");
    }

    // The daemon shrugged all five off.
    let mut client = connect(addr);
    client.ping().expect("daemon alive after truncated frames");
    client
        .score(good_request(&ds), 0)
        .expect("scoring path intact after truncated frames");
    shutdown(addr, handle);
}

#[test]
fn oversized_length_header_is_answered_then_dropped() {
    let (_ds, addr, handle) = start_tiny_daemon();

    // Claim a frame larger than MAX_FRAME. The daemon must refuse without
    // allocating, answer with a typed error frame, and drop the
    // connection (framing is unrecoverable).
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let hostile = (wire::MAX_FRAME as u32 + 1).to_le_bytes();
    raw.write_all(&hostile).unwrap();
    raw.flush().unwrap();

    let mut reply = Vec::new();
    raw.read_to_end(&mut reply)
        .expect("daemon replies then closes (EOF), not a hang");
    assert!(
        reply.len() > 4,
        "expected a framed error reply before the drop, got {} bytes",
        reply.len()
    );

    // Everyone else is unaffected.
    connect(addr)
        .ping()
        .expect("daemon alive after hostile header");
    let stats = connect(addr).stats().unwrap();
    assert!(stats.protocol_errors >= 1);
    shutdown(addr, handle);
}

#[test]
fn chaos_storm_never_starves_well_formed_load() {
    let (ds, addr, handle) = start_tiny_daemon();
    let per_client = 15usize;

    let all_ok = std::thread::scope(|scope| {
        // Two well-behaved closed-loop clients...
        let mut good = Vec::new();
        for _ in 0..2 {
            let sessions = good_request(&ds);
            good.push(scope.spawn(move || {
                let mut c = connect(addr);
                (0..per_client).all(|_| c.score(sessions.clone(), 0).is_ok())
            }));
        }
        // ...while an attacker alternates malformed payloads and
        // truncated-frame hangups as fast as it can.
        let attacker = scope.spawn(move || {
            for round in 0..per_client {
                if round % 2 == 0 {
                    let mut c = connect(addr);
                    let _ = c.call_raw_payload(&[0xEE, 0xEE, 0xEE]);
                } else {
                    let c = connect(addr);
                    let mut partial = (4096u32).to_le_bytes().to_vec();
                    partial.push(0x00);
                    let _ = c.send_bytes_and_hangup(&partial);
                }
            }
        });
        let ok = good.into_iter().all(|j| j.join().unwrap());
        attacker.join().unwrap();
        ok
    });
    assert!(
        all_ok,
        "a well-formed request failed during the chaos storm"
    );

    let stats = connect(addr).stats().unwrap();
    assert!(stats.requests >= (2 * per_client) as u64);
    assert!(stats.protocol_errors >= 1);
    shutdown(addr, handle);
}

#[test]
fn shutdown_is_not_held_by_a_half_sent_frame() {
    let sink = Arc::new(uae_obs::MemorySink::new());
    let (_ds, addr, handle) = uae_obs::with_sink(sink.clone(), start_tiny_daemon);

    // One idle connection and one stalled mid-frame: it promised a 1 KiB
    // frame and sent 17 bytes of it. Each first answers a ping, so its
    // connection thread is live before the frame starts.
    let mut held = [
        TcpStream::connect(addr).unwrap(),
        TcpStream::connect(addr).unwrap(),
    ];
    for conn in &mut held {
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        wire::write_frame(conn, &wire::encode_request(&wire::Request::Ping)).unwrap();
        let pong = wire::read_frame(conn).unwrap().expect("pong frame");
        assert!(matches!(
            wire::decode_response(&pong),
            Ok(wire::Response::Pong)
        ));
    }
    let mut partial = (1024u32).to_le_bytes().to_vec();
    partial.extend_from_slice(&[0xAB; 17]);
    held[1].write_all(&partial).unwrap();

    let started = Instant::now();
    connect(addr)
        .shutdown()
        .expect("daemon acknowledges shutdown");
    // Join on a helper thread so a regression fails here instead of hanging.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(handle.join()));
    rx.recv_timeout(Duration::from_secs(60))
        .expect("run() must return after shutdown")
        .expect("run() thread must not panic")
        .expect("run() returns Ok");
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "shutdown took {took:?}: the held connections delayed it"
    );

    // Both held sockets were closed by the daemon, with no bytes after the
    // pongs.
    for conn in &mut held {
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).expect("EOF, not a timeout");
        assert!(rest.is_empty(), "unexpected bytes after shutdown: {rest:?}");
    }
    // The read that shutdown ended is not the peer's protocol error.
    let faults: Vec<_> = sink
        .events()
        .into_iter()
        .filter(
            |e| matches!(e, uae_obs::Event::ServeFault { fault, .. } if fault == "protocol_error"),
        )
        .collect();
    assert!(
        faults.is_empty(),
        "shutdown counted as protocol errors: {faults:?}"
    );
}
