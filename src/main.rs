//! `uae` — command-line entry point for the reproduction harness.
//!
//! ```text
//! uae stats                 # Table III + Figs. 2–3 statistics
//! uae table4 [--fast]      # Table IV (both label protocols)
//! uae table5 [--fast]      # Table V (both label protocols)
//! uae fig5   [--fast]      # convergence curves
//! uae fig6   [--fast]      # γ sweep
//! uae fig7   [--fast]      # 7-day A/B simulation
//! uae ablations [--fast]   # clipping / N_a:N_p / SAR head / oracle weights
//! uae embed-accuracy [--fast]
//!                           # hashed vs dense embeddings on the million-user
//!                           # preset: held-out AUC (seen vs unseen users),
//!                           # collision rate and artifact size
//! uae fit [--estimator <name>] [--scenario <name>] [--fast]
//!                           # train one attention estimator (uae, pn, ndb,
//!                           # ideal, oracle, rel-mf, biser, adpu) on one
//!                           # simulator scenario and report its intrinsic
//!                           # quality on held-out sessions
//! uae matrix [--fast] [--md <path>] [--jsonl <path>]
//!                           # the estimator × scenario benchmark matrix
//!                           # (AUC / bias / variance per cell); --md and
//!                           # --jsonl also write the committed artifacts
//! uae export-data <path.tsv> # dump a simulated Product dataset to TSV
//! uae export <model.uaem> [--model <kind>]
//!                           # freeze a trained model to a .uaem snapshot:
//!                           # the UAE itself, or (with --model) a Table-IV
//!                           # recommender (fm, wide_deep, deepfm,
//!                           # youtube_net, dcn, autoint, dcn_v2) trained
//!                           # with Eq. (18) attention weights
//! uae score  <model.uaem>   # batched tape-free scoring from a snapshot
//!                           # (either variant, sniffed from the file)
//! uae serve  <model.uaem>   # long-running scoring daemon (TCP, micro-
//!                           # batching, deadlines, hot-swap; UAE_SERVE_*
//!                           # and UAE_FAULT_* knobs — see README)
//! uae serve-ctl <addr> <ping|stats|swap <model.uaem>|dump|shutdown>
//!                           # probe or control a running daemon (`stats`
//!                           # includes latency quantiles; `dump` writes
//!                           # the flight recorder to JSONL)
//! uae top <addr> [--interval-ms N] [--iterations N]
//!                           # live dashboard: throughput, shed rate,
//!                           # latency quantiles, sparklines
//! uae serve-load <addr> [--chaos] [--clients N] [--requests N]
//!                [--sessions N] [--deadline MS]
//!                           # closed-loop load (+ optional chaos) against
//!                           # a daemon; prints the latency/outcome report
//!                           # and the zero-orphan trace accounting
//! uae smoke                 # tiny telemetry-exercising train (CI)
//! uae summarize <run.jsonl> # render a telemetry log as a report
//! ```
//!
//! `--fast` uses the reduced test-scale configuration. Without it, each
//! paper artifact runs the settings EXPERIMENTS.md records for its archived
//! run (see `config`).
//!
//! Setting `UAE_TELEMETRY=/path/run.jsonl` installs a JSONL event sink for
//! any command: the file starts with a run manifest and collects every
//! structured event of the run (see DESIGN.md §9). Render it afterwards with
//! `uae summarize /path/run.jsonl`.

mod artifacts;

use uae::core::{AttentionEstimator, EstimatorSpec, Uae, UaeConfig};
use uae::data::{generate, to_tsv, SimConfig};
use uae::eval::{prepare, run_matrix, run_model, AbConfig, HarnessConfig, MatrixConfig, Preset};
use uae::models::{train, LabelMode, ModelKind, TrainConfig};

/// The harness configuration `command` runs. `--fast` is the reduced
/// test-scale configuration. Otherwise each paper artifact runs at the data
/// scale and with the first seeds of `HarnessConfig::full()` that
/// EXPERIMENTS.md records for its archived run; every other command runs
/// `HarnessConfig::full()` unchanged.
fn config(command: Option<&str>, fast: bool) -> HarnessConfig {
    let mut cfg = if fast {
        let mut cfg = HarnessConfig::fast();
        cfg.data_scale = 0.08;
        cfg
    } else {
        HarnessConfig::full()
    };
    let archived = match command {
        Some("table4") => Some((0.2, 4)),
        Some("table5") => Some((0.15, 2)),
        Some("fig5") => Some((0.18, 5)),
        Some("fig6") => Some((0.18, 3)),
        // Both use one training seed, the first.
        Some("fig7" | "ablations") => Some((0.18, 1)),
        _ => None,
    };
    if let (false, Some((scale, seeds))) = (fast, archived) {
        cfg.data_scale = scale;
        cfg.seeds.truncate(seeds);
    }
    // The de-noising these artifacts measure shows under oracle-preference
    // labels at simulator scale; Tables IV and V run both protocols.
    if matches!(command, Some("fig5" | "fig6" | "fig7" | "ablations")) {
        cfg.label_mode = LabelMode::OraclePreference;
    }
    // The smoke trains on the paper's observed labels. Set here, before
    // `install_telemetry` writes the manifest, so the manifest records it.
    if command == Some("smoke") {
        cfg.label_mode = LabelMode::Observed;
    }
    cfg
}

/// The vector ISA this binary was compiled for. `.cargo/config.toml` builds
/// x86_64 at x86-64-v3; a build that lost it reads "baseline", and its
/// numbers are not comparable to the benchmark's.
fn codegen_level() -> &'static str {
    match (cfg!(target_feature = "avx2"), cfg!(target_feature = "fma")) {
        (true, true) => "avx2+fma",
        (true, false) => "avx2",
        _ => "baseline",
    }
}

/// Installs the JSONL telemetry sink when `UAE_TELEMETRY` names a path,
/// writing the run manifest as the file's first record.
fn install_telemetry(run: &str, cfg: &HarnessConfig) {
    let Ok(path) = std::env::var("UAE_TELEMETRY") else {
        return;
    };
    if path.trim().is_empty() {
        return;
    }
    let seeds = cfg
        .seeds
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let manifest = uae::obs::Manifest {
        run: run.to_string(),
        version: uae::obs::version_string(),
        seed: cfg.data_seed,
        threads: uae::tensor::num_threads() as u64,
        kernel_mode: format!("{:?}", uae::tensor::kernel_mode()),
        config: vec![
            ("data_scale".into(), cfg.data_scale.to_string()),
            ("gamma".into(), cfg.gamma.to_string()),
            ("seeds".into(), seeds),
            ("label_mode".into(), format!("{:?}", cfg.label_mode)),
            ("epochs".into(), cfg.train.epochs.to_string()),
            ("codegen".into(), codegen_level().into()),
        ],
    };
    if let Err(e) = uae::obs::install_jsonl(std::path::Path::new(&path), manifest) {
        eprintln!("telemetry disabled: {e}");
    }
}

/// A tiny train that exercises the whole telemetry surface in seconds: one
/// UAE fit (phases, fit-epochs, clip rates) plus one downstream model
/// (train steps, epochs, backend counters). CI runs this with
/// `UAE_TELEMETRY` set and validates the emitted JSONL.
fn cmd_smoke(cfg: &HarnessConfig) {
    // `UAE_ESTIMATOR` swaps the attention estimator the smoke run trains
    // (any `EstimatorSpec` CLI name); unset means the default UAE dual.
    let spec = match std::env::var("UAE_ESTIMATOR") {
        Ok(name) if !name.trim().is_empty() => match EstimatorSpec::parse(name.trim()) {
            Some(spec) => spec,
            None => {
                eprintln!(
                    "unknown UAE_ESTIMATOR {name:?}; expected one of: {}",
                    EstimatorSpec::all()
                        .iter()
                        .map(|s| s.cli_name())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(2);
            }
        },
        _ => EstimatorSpec::default(),
    };
    // Record which estimator produced the downstream weights (the
    // `estimator.<name>.downstream_runs` provenance counter).
    let mut cfg = cfg.clone();
    cfg.train.weight_estimator = Some(spec.cli_name().to_string());
    let cfg = &cfg;
    let data = prepare(Preset::Product, cfg);
    let seed = cfg.seeds.first().copied().unwrap_or(1);
    let mut est = Uae::new(
        &data.dataset.schema,
        UaeConfig {
            estimator: spec,
            seed,
            ..cfg.uae.clone()
        },
    );
    let report = est.fit(&data.dataset, &data.split.train);
    let weights =
        uae::core::downstream_weights(&est.predict(&data.dataset, &data.split.train), cfg.gamma);
    let out = run_model(ModelKind::Fm, Some(&weights[..]), &data, cfg, seed);
    println!(
        "smoke: {} fit {} epochs (final attention risk {:.4}), FM test AUC {:.4}",
        est.name(),
        report.attention_loss.len(),
        report.attention_loss.last().copied().unwrap_or(f64::NAN),
        out.result.auc
    );
}

/// Trains one attention estimator on one simulator scenario and reports its
/// intrinsic quality (attention AUC, mean bias) on held-out sessions — the
/// single-cell version of `uae matrix`.
fn cmd_fit(spec: EstimatorSpec, scenario: &str, cfg: &HarnessConfig) {
    let Some(sim) = SimConfig::scenario(scenario, cfg.data_scale) else {
        eprintln!(
            "unknown scenario {scenario:?}; expected one of: {}",
            uae::data::scenario_names().join(", ")
        );
        std::process::exit(2);
    };
    let ds = generate(&sim, cfg.data_seed);
    let mut rng = uae::tensor::Rng::seed_from_u64(cfg.data_seed ^ 0x73_706c);
    let split = uae::data::split_by_ratio(&ds, 0.8, 0.1, &mut rng);
    let seed = cfg.seeds.first().copied().unwrap_or(1);
    let mut est = Uae::new(
        &ds.schema,
        UaeConfig {
            estimator: spec,
            seed,
            ..cfg.uae.clone()
        },
    );
    let report = est.fit(&ds, &split.train);
    let alpha_hat = est.predict(&ds, &split.test);
    let test = uae::data::FlatData::from_sessions(&ds, &split.test);
    let auc = uae::metrics::auc(&alpha_hat, &test.true_attention).unwrap_or(0.5);
    let mean = |v: &[f32]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len().max(1) as f64;
    println!(
        "fit: {} on `{scenario}` — {} epochs (final attention risk {:.4}), \
         test attention AUC {:.4}, mean α̂ {:.4} (true mean α {:.4})",
        est.name(),
        report.attention_loss.len(),
        report.attention_loss.last().copied().unwrap_or(f64::NAN),
        auc,
        mean(&alpha_hat),
        mean(&test.true_alpha),
    );
}

/// Runs the estimator × scenario benchmark matrix and prints it; `--md` /
/// `--jsonl` additionally write the committed artifact files.
fn cmd_matrix(fast: bool, md: Option<&str>, jsonl: Option<&str>) {
    let cfg = if fast {
        MatrixConfig::smoke()
    } else {
        MatrixConfig::full()
    };
    let report = run_matrix(&cfg);
    print!("{}", report.render());
    if let Some(path) = md {
        if let Err(e) = std::fs::write(path, report.render_markdown()) {
            eprintln!("matrix: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    if let Some(path) = jsonl {
        if let Err(e) = std::fs::write(path, report.to_jsonl()) {
            eprintln!("matrix: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

/// Trains UAE on a simulated Product split and freezes it to `path` as a
/// `.uaem` snapshot (DESIGN.md §10) carrying the schema, architecture,
/// parameters, and the Eq. (19) exponent γ.
fn cmd_export_model(path: &str, cfg: &HarnessConfig) {
    let data = prepare(Preset::Product, cfg);
    let seed = cfg.seeds.first().copied().unwrap_or(1);
    let mut est = Uae::new(
        &data.dataset.schema,
        UaeConfig {
            seed,
            ..cfg.uae.clone()
        },
    );
    est.fit(&data.dataset, &data.split.train);
    let frozen = uae::serve::FrozenModel::from_uae(&est, &data.dataset.schema, cfg.gamma);
    if let Err(e) = frozen.write_to(std::path::Path::new(path)) {
        eprintln!("export failed: {e}");
        std::process::exit(1);
    }
    println!(
        "froze UAE (gamma {}) trained on {} sessions to {path}",
        cfg.gamma,
        data.split.train.len()
    );
}

/// Trains a Table-IV recommender on the attention-weighted downstream risk
/// (Eq. 18) — UAE fit, Eq. (19) weights, weighted training — and freezes it
/// to `path` as a variant-2 `.uaem` snapshot.
fn cmd_export_recommender(path: &str, kind: ModelKind, cfg: &HarnessConfig) {
    let data = prepare(Preset::Product, cfg);
    let seed = cfg.seeds.first().copied().unwrap_or(1);
    let mut est = Uae::new(
        &data.dataset.schema,
        UaeConfig {
            seed,
            ..cfg.uae.clone()
        },
    );
    est.fit(&data.dataset, &data.split.train);
    let weights =
        uae::core::downstream_weights(&est.predict(&data.dataset, &data.split.train), cfg.gamma);
    let mut rng = uae::tensor::Rng::seed_from_u64(seed ^ 0x6d6f_6465);
    let (model, mut params) = kind.build(&data.dataset.schema, &cfg.model, &mut rng);
    train(
        model.as_ref(),
        &mut params,
        &data.train,
        Some(&weights[..]),
        Some(&data.val),
        cfg.label_mode,
        &TrainConfig {
            seed,
            ..cfg.train.clone()
        },
    );
    let frozen =
        uae::serve::FrozenRecommender::new(&data.dataset.schema, kind, &cfg.model, &params);
    if let Err(e) = frozen.write_to(std::path::Path::new(path)) {
        eprintln!("export failed: {e}");
        std::process::exit(1);
    }
    println!(
        "froze {} (attention-weighted, gamma {}) trained on {} events to {path}",
        model.name(),
        cfg.gamma,
        data.train.len()
    );
}

/// Loads a `.uaem` snapshot — either variant, sniffed from the file — and
/// scores a simulated Product dataset through the matching tape-free
/// batched engine, reporting throughput and score statistics.
fn cmd_score(path: &str, cfg: &HarnessConfig) -> Result<(), uae::runtime::UaeError> {
    let artifact = uae::serve::FrozenArtifact::read_from(std::path::Path::new(path))?;
    let ds = generate(&Preset::Product.config(cfg.data_scale), cfg.data_seed);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let mean = |v: &[f32]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len().max(1) as f64;
    match artifact {
        uae::serve::FrozenArtifact::Uae(frozen) => {
            let scorer = uae::serve::Scorer::new(frozen)?;
            let t0 = std::time::Instant::now();
            let out = scorer.score(&ds, &sessions);
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            println!(
                "scored {} events from {} sessions in {:.1} ms ({:.0} events/s, batch size {})",
                out.len(),
                sessions.len(),
                secs * 1e3,
                out.len() as f64 / secs,
                scorer.config().batch_size
            );
            println!(
                "mean attention {:.4}  mean propensity {:.4}  mean weight {:.4} (gamma {})",
                mean(&out.attention),
                mean(&out.propensity),
                mean(&out.weights),
                scorer.gamma()
            );
        }
        uae::serve::FrozenArtifact::Recommender(frozen) => {
            let scorer = uae::serve::RecScorer::new(frozen)?;
            let flat = uae::data::FlatData::from_sessions(&ds, &sessions);
            let t0 = std::time::Instant::now();
            let scores = scorer.score(&flat);
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            println!(
                "scored {} events through {} in {:.1} ms ({:.0} events/s, batch size {})",
                scores.len(),
                scorer.model_name(),
                secs * 1e3,
                scores.len() as f64 / secs,
                scorer.batch_size()
            );
            println!("mean score {:.4}", mean(&scores));
        }
    }
    Ok(())
}

/// Starts the serving daemon on a frozen UAE snapshot and blocks until a
/// `shutdown` request drains it. Knobs come from `UAE_SERVE_*`; chaos
/// injection from `UAE_FAULT_*`.
fn cmd_serve(path: &str) -> Result<(), uae::runtime::UaeError> {
    let frozen = uae::serve::FrozenModel::read_from(std::path::Path::new(path))?;
    let daemon = uae::serve::Daemon::bind(
        frozen,
        uae::serve::DaemonConfig::from_env(),
        uae::serve::FaultPlan::from_env(),
    )?;
    // CI and scripts parse this line to learn the bound (possibly
    // ephemeral) port, so keep its shape stable.
    println!("listening on {}", daemon.local_addr());
    daemon.run()
}

/// One control-plane exchange with a running daemon.
fn cmd_serve_ctl(addr: &str, verb: &str, arg: Option<&str>) -> Result<(), uae::runtime::UaeError> {
    let mut client = uae::serve::ServeClient::connect(addr)?;
    match verb {
        "ping" => {
            client.ping()?;
            println!("pong");
        }
        "stats" => {
            let s = client.stats()?;
            println!(
                "ready {}  generation {}  queue_depth {}",
                s.ready, s.generation, s.queue_depth
            );
            println!(
                "requests {}  sessions {}  events {}",
                s.requests, s.sessions, s.events
            );
            println!(
                "shed {}  deadline_miss {}  worker_restarts {}  protocol_errors {}",
                s.shed, s.deadline_miss, s.worker_restarts, s.protocol_errors
            );
            println!("swaps {}  swap_rollbacks {}", s.swaps, s.swap_rollbacks);
            println!(
                "uptime {:.1} s  traces started {} / completed {}",
                s.uptime_ms as f64 / 1e3,
                s.traces_started,
                s.traces_completed
            );
            println!("hist_excluded {} (shed/protocol traces)", s.hist_excluded);
            if !s.shard_occupancy.is_empty() {
                let occ: Vec<String> = s.shard_occupancy.iter().map(|h| h.to_string()).collect();
                println!("shard_occupancy [{}]", occ.join(", "));
            }
            if !s.hists.is_empty() {
                println!("histograms (us unless noted):");
                println!(
                    "  {:<18} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                    "name", "count", "p50", "p90", "p99", "p999", "max"
                );
                for h in &s.hists {
                    println!(
                        "  {:<18} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                        h.name, h.count, h.p50, h.p90, h.p99, h.p999, h.max
                    );
                }
            }
        }
        "dump" => {
            let (path, traces) = client.dump()?;
            println!("dumped {traces} traces to {path}");
        }
        "swap" => {
            let Some(path) = arg else {
                return Err(uae::runtime::UaeError::Protocol {
                    detail: "usage: uae serve-ctl <addr> swap <model.uaem>".into(),
                });
            };
            let generation = client.swap(path)?;
            println!("swapped to generation {generation}");
        }
        "shutdown" => {
            client.shutdown()?;
            println!("daemon shutting down");
        }
        other => {
            return Err(uae::runtime::UaeError::Protocol {
                detail: format!("unknown serve-ctl verb {other:?} (ping|stats|swap|dump|shutdown)"),
            });
        }
    }
    Ok(())
}

/// Runs the closed-loop load generator against a daemon. The session pool
/// is drawn from the same simulated Product dataset `uae export` trains
/// on, so schemas line up as long as both sides use the same `--fast`
/// setting.
fn cmd_serve_load(
    addr: &str,
    args: &[String],
    cfg: &HarnessConfig,
) -> Result<(), uae::runtime::UaeError> {
    let flag = |name: &str| -> Option<usize> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    let lcfg = uae::eval::LoadgenConfig {
        addr: addr.to_string(),
        clients: flag("--clients").unwrap_or(4),
        requests_per_client: flag("--requests").unwrap_or(25),
        sessions_per_request: flag("--sessions").unwrap_or(4),
        deadline_ms: flag("--deadline").unwrap_or(0) as u32,
        seed: flag("--seed").map(|s| s as u64).unwrap_or(17),
        chaos: args.iter().any(|a| a == "--chaos"),
    };
    let ds = generate(&Preset::Product.config(cfg.data_scale), cfg.data_seed);
    let r = uae::eval::run_loadgen(&lcfg, &ds)?;
    println!(
        "sent {}  ok {}  shed {}  deadline_missed {}  worker_panics {}  protocol {}  unavailable {}  other {}",
        r.sent, r.ok, r.shed, r.deadline_missed, r.worker_panics, r.protocol_errors,
        r.unavailable, r.other_errors
    );
    if lcfg.chaos {
        println!(
            "chaos: injected {}  answered {}  disconnects {}",
            r.chaos_injected, r.chaos_answered, r.chaos_disconnects
        );
    }
    println!(
        "latency p50 {:.2} ms  p99 {:.2} ms  max {:.2} ms  ({} events in {:.0} ms, {:.0} events/s)",
        r.p50_ms, r.p99_ms, r.max_ms, r.events_scored, r.wall_ms, r.events_per_sec
    );
    println!(
        "generations seen: {:?}  all_accounted {}",
        r.generations_seen,
        r.all_accounted()
    );
    println!(
        "traces: seen {}  started {}  completed {}  zero_orphans {}",
        r.traces_seen,
        r.traces_started,
        r.traces_completed,
        r.zero_orphan_traces()
    );
    if !r.all_accounted() {
        return Err(uae::runtime::UaeError::Unavailable {
            detail: format!(
                "{} of {} requests were dropped without a response",
                r.sent - r.answered(),
                r.sent
            ),
        });
    }
    Ok(())
}

/// Unicode sparkline over a sparse histogram bucket dump (each glyph one
/// nonzero bucket, height ∝ count relative to the fullest bucket).
fn sparkline(buckets: &[(u64, u64)]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let peak = buckets.iter().map(|&(_, c)| c).max().unwrap_or(0).max(1);
    buckets
        .iter()
        .map(|&(_, c)| BARS[((c * 7).div_ceil(peak)).min(7) as usize])
        .collect()
}

/// One `uae top` refresh: headline gauges, rates over the previous sample
/// (client-side deltas via the monotonic `uptime_ms`), and the latency
/// quantiles/sparklines from the daemon's histograms.
fn render_top(addr: &str, s: &uae::serve::StatsSnapshot, prev: Option<&uae::serve::StatsSnapshot>) {
    use std::io::IsTerminal;
    if std::io::stdout().is_terminal() {
        print!("\x1b[2J\x1b[H"); // clear + home, live-dashboard style
    }
    println!(
        "uae top — {addr}  ready {}  generation {}  uptime {:.1} s",
        s.ready,
        s.generation,
        s.uptime_ms as f64 / 1e3
    );
    let (req_rate, evt_rate, shed_rate) = match prev {
        Some(p) if s.uptime_ms > p.uptime_ms => {
            let dt = (s.uptime_ms - p.uptime_ms) as f64 / 1e3;
            (
                (s.requests.saturating_sub(p.requests)) as f64 / dt,
                (s.events.saturating_sub(p.events)) as f64 / dt,
                (s.shed.saturating_sub(p.shed)) as f64 / dt,
            )
        }
        _ => {
            let dt = (s.uptime_ms as f64 / 1e3).max(1e-9);
            (
                s.requests as f64 / dt,
                s.events as f64 / dt,
                s.shed as f64 / dt,
            )
        }
    };
    println!(
        "throughput {req_rate:.1} req/s  {evt_rate:.0} events/s  shed {shed_rate:.1}/s  \
         queue_depth {}",
        s.queue_depth
    );
    println!(
        "totals: requests {}  shed {}  deadline_miss {}  worker_restarts {}  swaps {} \
         (rollbacks {})",
        s.requests, s.shed, s.deadline_miss, s.worker_restarts, s.swaps, s.swap_rollbacks
    );
    println!(
        "traces started {} / completed {}  hist_excluded {}",
        s.traces_started, s.traces_completed, s.hist_excluded
    );
    if !s.shard_occupancy.is_empty() {
        let total: u64 = s.shard_occupancy.iter().sum();
        let occ: Vec<String> = s.shard_occupancy.iter().map(|h| h.to_string()).collect();
        println!("shards [{}]  total {total}", occ.join(", "));
    }
    let show = [
        "request_us",
        "queue_wait_us",
        "score_us",
        "reply_write_us",
        "batch_sessions",
    ];
    for name in show {
        if let Some(h) = s.hists.iter().find(|h| h.name == name) {
            println!(
                "{:<15} p50 {:>8}  p99 {:>8}  max {:>8}  n {:>7}  {}",
                h.name,
                h.p50,
                h.p99,
                h.max,
                h.count,
                sparkline(&h.buckets)
            );
        }
    }
}

/// Live dashboard over `serve-ctl stats`: polls the daemon every
/// `--interval-ms` (default 1000) and redraws; `--iterations N` bounds the
/// run for scripting (default 0 = until interrupted or the daemon leaves).
fn cmd_top(addr: &str, args: &[String]) -> Result<(), uae::runtime::UaeError> {
    let flag = |name: &str| -> Option<usize> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    let interval = std::time::Duration::from_millis(flag("--interval-ms").unwrap_or(1000) as u64);
    let iterations = flag("--iterations").unwrap_or(0);
    let mut client = uae::serve::ServeClient::connect(addr)?;
    let mut prev: Option<uae::serve::StatsSnapshot> = None;
    let mut done = 0usize;
    loop {
        let s = client.stats()?;
        render_top(addr, &s, prev.as_ref());
        prev = Some(s);
        done += 1;
        if iterations > 0 && done >= iterations {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn cmd_summarize(path: &str) -> Result<(), uae::obs::ObsError> {
    let records = uae::obs::read_jsonl(std::path::Path::new(path))?;
    print!("{}", uae::obs::summarize(&records)?);
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    // `smoke` is always the reduced configuration — it exists to exercise
    // the telemetry path quickly, not to reproduce results.
    let fast = args.iter().any(|a| a == "--fast") || command == Some("smoke");
    let mut cfg = config(command, fast);
    match command {
        // `summarize` reads telemetry instead of producing it.
        Some("summarize") | None => {}
        Some(run) => install_telemetry(run, &cfg),
    }
    match command {
        Some("stats") => artifacts::stats(&cfg),
        Some("table4") => artifacts::table4(&mut cfg),
        Some("table5") => artifacts::table5(&mut cfg),
        Some("fig5") => artifacts::fig5(&cfg, if fast { 3 } else { 12 }),
        Some("fig6") => artifacts::fig6(&cfg),
        Some("fig7") => {
            let ab = AbConfig {
                sessions_per_day: if fast { 20 } else { 400 },
                ..Default::default()
            };
            artifacts::fig7(&cfg, &ab);
        }
        Some("ablations") => artifacts::ablations(&cfg),
        Some("embed-accuracy") => artifacts::embed_accuracy(fast),
        Some("fit") => {
            let flag_val = |flag: &str| {
                args.iter()
                    .position(|a| a == flag)
                    .and_then(|i| args.get(i + 1))
                    .map(String::as_str)
            };
            let est_name = flag_val("--estimator").unwrap_or("uae");
            let Some(spec) = EstimatorSpec::parse(est_name) else {
                eprintln!(
                    "unknown estimator {est_name:?}; expected one of: {}",
                    EstimatorSpec::all()
                        .iter()
                        .map(|s| s.cli_name())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(2);
            };
            let scenario = flag_val("--scenario").unwrap_or("baseline");
            cmd_fit(spec, scenario, &cfg);
        }
        Some("matrix") => {
            let flag_val = |flag: &str| {
                args.iter()
                    .position(|a| a == flag)
                    .and_then(|i| args.get(i + 1))
                    .map(String::as_str)
            };
            cmd_matrix(fast, flag_val("--md"), flag_val("--jsonl"));
        }
        Some("export-data") => {
            let path = args.get(1).map(String::as_str).unwrap_or("product.uae.tsv");
            let ds = generate(&Preset::Product.config(cfg.data_scale), cfg.data_seed);
            if let Err(e) = std::fs::write(path, to_tsv(&ds)) {
                eprintln!("export-data failed: cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {} sessions to {path}", ds.sessions.len());
        }
        Some("export") => {
            let path = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str)
                .unwrap_or("model.uaem");
            let kind = args
                .iter()
                .position(|a| a == "--model")
                .and_then(|i| args.get(i + 1));
            match kind {
                None => cmd_export_model(path, &cfg),
                Some(name) => match ModelKind::parse(name) {
                    Some(kind) => cmd_export_recommender(path, kind, &cfg),
                    None => {
                        eprintln!(
                            "unknown model {name:?}; expected one of: {}",
                            ModelKind::all().map(ModelKind::cli_name).join(", ")
                        );
                        std::process::exit(2);
                    }
                },
            }
        }
        Some("score") => {
            let path = args.get(1).map(String::as_str).unwrap_or("model.uaem");
            if let Err(e) = cmd_score(path, &cfg) {
                eprintln!("score failed: {e}");
                std::process::exit(1);
            }
        }
        Some("serve") => {
            let path = args.get(1).map(String::as_str).unwrap_or("model.uaem");
            if let Err(e) = cmd_serve(path) {
                eprintln!("serve failed: {e}");
                std::process::exit(1);
            }
        }
        Some("serve-ctl") => {
            let (Some(addr), Some(verb)) = (args.get(1), args.get(2)) else {
                eprintln!(
                    "usage: uae serve-ctl <addr> <ping|stats|swap <model.uaem>|dump|shutdown>"
                );
                std::process::exit(2);
            };
            if let Err(e) = cmd_serve_ctl(addr, verb, args.get(3).map(String::as_str)) {
                eprintln!("serve-ctl failed: {e}");
                std::process::exit(1);
            }
        }
        Some("top") => {
            let Some(addr) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("usage: uae top <addr> [--interval-ms N] [--iterations N]");
                std::process::exit(2);
            };
            if let Err(e) = cmd_top(addr, &args[2..]) {
                eprintln!("top failed: {e}");
                std::process::exit(1);
            }
        }
        Some("serve-load") => {
            let Some(addr) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!(
                    "usage: uae serve-load <addr> [--chaos] [--clients N] [--requests N] \
                     [--sessions N] [--deadline MS] [--seed N]"
                );
                std::process::exit(2);
            };
            if let Err(e) = cmd_serve_load(addr, &args[2..], &cfg) {
                eprintln!("serve-load failed: {e}");
                std::process::exit(1);
            }
        }
        Some("smoke") => cmd_smoke(&cfg),
        Some("summarize") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: uae summarize <run.jsonl>");
                std::process::exit(2);
            };
            if let Err(e) = cmd_summarize(path) {
                eprintln!("summarize failed: {e}");
                std::process::exit(1);
            }
        }
        _ => {
            eprintln!(
                "usage: uae <stats|table4|table5|fig5|fig6|fig7|ablations|embed-accuracy|fit [--estimator <name>] [--scenario <name>]|matrix [--md <path>] [--jsonl <path>]|export-data [path.tsv]|export [model.uaem] [--model <kind>]|score [model.uaem]|serve [model.uaem]|serve-ctl <addr> <verb>|top <addr>|serve-load <addr>|smoke|summarize <run.jsonl>> [--fast]\n\
                 Regenerates the paper's tables/figures; see README.md."
            );
            std::process::exit(2);
        }
    }
    uae::obs::flush();
}
