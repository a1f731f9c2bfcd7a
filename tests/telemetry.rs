//! End-to-end telemetry tests: real training runs drained to JSONL round-trip
//! through the line parser, fault/checkpoint events appear in the stream, a
//! truncated log is a typed error, and — the determinism guarantee — the file
//! sink leaves `.uaec` checkpoints byte-for-byte identical to telemetry off.

use std::sync::Arc;

use uae::core::{Uae, UaeConfig};
use uae::data::{generate, split_by_ratio, FlatData, SimConfig};
use uae::models::{train_supervised, LabelMode, ModelConfig, ModelKind, TrainConfig};
use uae::obs::{Event, JsonlSink, Manifest, MemorySink};
use uae::runtime::{Anomaly, Supervisor, SupervisorConfig, TrainSnapshot, UaeError};
use uae::tensor::Rng;

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("uae-telemetry-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn uae_cfg(seed: u64) -> UaeConfig {
    UaeConfig {
        gru_hidden: 10,
        mlp_hidden: vec![10],
        epochs: 2,
        session_batch: 32,
        max_len: 16,
        seed,
        ..Default::default()
    }
}

fn manifest(run: &str) -> Manifest {
    Manifest {
        run: run.to_string(),
        version: uae::obs::version_string(),
        seed: 7,
        threads: uae::tensor::num_threads() as u64,
        kernel_mode: format!("{:?}", uae::tensor::kernel_mode()),
        config: vec![("test".into(), "true".into())],
    }
}

/// One small UAE fit plus one supervised FM train, under whatever sink the
/// caller installed; returns the persisted checkpoint bytes.
fn train_once(persist: &std::path::Path) -> Vec<u8> {
    let ds = generate(&SimConfig::tiny(), 7);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let mut est = Uae::new(&ds.schema, uae_cfg(1));
    let mut sup = Supervisor::new(SupervisorConfig::default(), "telemetry-test");
    est.fit_supervised(&ds, &sessions, &mut sup).expect("fit");

    let mut rng = Rng::seed_from_u64(5);
    let split = split_by_ratio(&ds, 0.8, 0.1, &mut rng);
    let train = FlatData::from_sessions(&ds, &split.train);
    let val = FlatData::from_sessions(&ds, &split.val);
    let (model, mut params) = ModelKind::Fm.build(&ds.schema, &ModelConfig::default(), &mut rng);
    let mut sup = Supervisor::new(
        SupervisorConfig {
            persist_dir: Some(persist.to_path_buf()),
            ..Default::default()
        },
        "telemetry-test",
    );
    train_supervised(
        model.as_ref(),
        &mut params,
        &train,
        None,
        Some(&val),
        LabelMode::Observed,
        &TrainConfig {
            epochs: 2,
            batch_size: 64,
            early_stop_patience: None,
            seed: 9,
            ..Default::default()
        },
        &mut sup,
    )
    .expect("train");
    std::fs::read(persist.join("latest.uaec")).expect("checkpoint written")
}

#[test]
fn training_events_round_trip_through_jsonl() {
    let path = tmp_path("roundtrip.jsonl");
    let ckpt_dir = tmp_path("roundtrip-ckpt");
    let sink = Arc::new(JsonlSink::create(&path).unwrap());
    let handle = Arc::new(uae::obs::Handle::new(sink));
    handle.emit(&Event::RunManifest(manifest("roundtrip")));
    uae::obs::with_handle(handle.clone(), || {
        train_once(&ckpt_dir);
    });
    handle.flush();

    let records = uae::obs::read_jsonl(&path).expect("log parses cleanly");
    assert!(matches!(records[0].event, Event::RunManifest(_)));
    assert_eq!(records[0].seq, 0);
    // seq ids are dense and monotonic.
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64);
    }
    let kind = |k: &str| records.iter().filter(|r| r.event.kind() == k).count();
    assert_eq!(kind("phase_start"), 4, "2 fit epochs × 2 phases");
    assert_eq!(kind("phase_end"), 4);
    assert_eq!(kind("fit_epoch"), 2);
    assert_eq!(kind("epoch"), 2, "FM trainer epochs");
    assert!(kind("train_step") > 0);
    assert!(kind("checkpoint") >= 2, "both trainers checkpoint");
    assert!(kind("counter") > 0, "backend counters emitted");
    assert!(kind("gauge") > 0);
    // And the whole log renders as a report.
    let report = uae::obs::summarize(&records).expect("summarize");
    assert!(report.contains("alternating optimization"));
    assert!(report.contains("trainer epochs"));
}

/// The determinism guarantee the ISSUE demands: a live JSONL file sink must
/// not perturb training. Checkpoints embed params, Adam moments, and RNG
/// state, so byte equality here means the whole trajectory matched.
#[test]
fn file_sink_leaves_checkpoints_byte_identical() {
    for threads in [1usize, 4] {
        let (quiet, loud) = uae::tensor::with_num_threads(threads, || {
            let quiet_dir = tmp_path(&format!("quiet-{threads}"));
            let quiet = train_once(&quiet_dir);

            let path = tmp_path(&format!("loud-{threads}.jsonl"));
            let loud_dir = tmp_path(&format!("loud-{threads}"));
            let sink = Arc::new(JsonlSink::create(&path).unwrap());
            let loud = uae::obs::with_sink(sink, || train_once(&loud_dir));
            (quiet, loud)
        });
        assert!(
            quiet == loud,
            "checkpoint bytes diverged with telemetry on (threads = {threads})"
        );
    }
}

#[test]
fn truncated_trailing_line_is_a_typed_error() {
    let path = tmp_path("truncated.jsonl");
    let sink = Arc::new(JsonlSink::create(&path).unwrap());
    let handle = Arc::new(uae::obs::Handle::new(sink));
    handle.emit(&Event::RunManifest(manifest("truncated")));
    handle.emit(&Event::Counter {
        name: "ok".into(),
        value: 1,
    });
    handle.flush();
    // Simulate a crash mid-write: chop the last line in half.
    let text = std::fs::read_to_string(&path).unwrap();
    let cut = text.len() - 12;
    std::fs::write(&path, &text[..cut]).unwrap();

    let err = uae::obs::read_jsonl(&path).expect_err("truncated log must not parse");
    match &err {
        uae::obs::ObsError::Malformed { line, .. } => assert_eq!(*line, 2),
        other => panic!("expected Malformed, got {other:?}"),
    }
    // And it folds into the workspace error type, not a panic.
    let top = UaeError::from(err);
    assert!(top
        .to_string()
        .contains("malformed telemetry record at line 2"));
}

#[test]
fn faults_and_checkpoints_flow_through_the_sink_with_step() {
    let mem = Arc::new(MemorySink::new());
    uae::obs::with_sink(mem.clone(), || {
        let mut sup = Supervisor::new(SupervisorConfig::default(), "t");
        sup.record(TrainSnapshot {
            epoch: 3,
            step: 30,
            arenas: vec![],
            optimizers: vec![],
            rng: Rng::seed_from_u64(3).state(),
            extra: vec![],
        })
        .unwrap();
        let _ = sup.on_anomaly(4, 41, &Anomaly::NonFiniteLoss { loss: f64::NAN });
    });
    let events = mem.events();
    assert!(matches!(
        events[0],
        Event::Checkpoint {
            epoch: 3,
            step: 30,
            persisted: false
        }
    ));
    match &events[1] {
        Event::Fault {
            epoch,
            step,
            anomaly,
            action,
        } => {
            assert_eq!((*epoch, *step), (4, 41));
            assert!(anomaly.contains("non-finite"), "anomaly: {anomaly}");
            assert!(action.contains("rollback"), "action: {action}");
        }
        other => panic!("expected Fault, got {other:?}"),
    }
}

/// The propensity phase reports, once per epoch, how long the fitting
/// thread waited for Θ_g's tape-free forward: the hand-off wait when the
/// forward runs on a second thread, the forward itself when it runs inline.
#[test]
fn propensity_phase_reports_its_wait_for_theta_g() {
    let ds = generate(&SimConfig::tiny(), 7);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    for threads in [1usize, 2] {
        let mem = Arc::new(MemorySink::new());
        uae::tensor::with_num_threads(threads, || {
            uae::obs::with_sink(mem.clone(), || {
                Uae::new(&ds.schema, uae_cfg(1))
                    .fit_supervised(&ds, &sessions, &mut Supervisor::disabled())
                    .expect("fit")
            })
        });
        let waits: Vec<f64> = mem
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Gauge { name, value } if name == "fit.propensity_g_wait_ms" => Some(value),
                _ => None,
            })
            .collect();
        assert_eq!(waits.len(), 2, "one gauge per epoch at {threads} threads");
        for w in waits {
            // The first batch of a phase always waits for its forward.
            assert!(w.is_finite() && w > 0.0, "wait {w} ms at {threads} threads");
        }
    }
}
