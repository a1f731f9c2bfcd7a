//! The repository benchmark. Four workloads run against the real programs:
//! the serving daemon in a child process driven over TCP, and Algorithm 1
//! with the Eq. (18) downstream trainer in a child process. See
//! `BENCHMARK.md` beside this package for the workloads and metrics.
//!
//! ```text
//! uae-benchmark [--workload NAME|all] [--seed N] [--runs R] [--seconds S]
//!               [--trace 0|1] [--out FILE] [--smoke]
//! uae-benchmark --compare DIR_A DIR_B
//! ```
//!
//! Every metric is printed as `workload metric value unit`; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is non-zero when any output was
//! wrong.

mod child;
mod compare;
mod json;
mod loadgen;
mod report;
mod serve;
mod stats;
mod trace;
mod train;
mod workload;

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use report::Outcome;
use workload::{Plan, WORKLOADS};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    /// Invocations to run, with seeds `seed`, `seed + 1`, ….
    runs: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: WORKLOADS.to_vec(),
        seed: DEFAULT_SEED,
        runs: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                o.workloads = if w == "all" {
                    WORKLOADS.to_vec()
                } else {
                    vec![*WORKLOADS
                        .iter()
                        .find(|n| *n == w)
                        .ok_or(format!("unknown workload {w}; one of {WORKLOADS:?} or all"))?]
                };
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--runs" => {
                o.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if o.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => o.out = Some(value()?.clone()),
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.smoke {
        o.seconds = 1.0;
    }
    Ok(o)
}

/// Runs one workload, untraced (end-to-end metrics) or traced (per-layer).
fn run_workload(name: &str, o: &Options, seed: u64, trace: bool) -> Outcome {
    match workload::plan(name, o.smoke).expect("known workload") {
        Plan::Serve(plan) => {
            let (ds, pool, artifacts) = match serve::prepare(name, &plan, seed) {
                Ok(p) => p,
                Err(e) => {
                    let mut out = Outcome::new(name);
                    out.problem(e);
                    return out;
                }
            };
            let served = serve::Served {
                ds: &ds,
                pool: &pool,
                artifacts,
            };
            let out = if trace {
                trace::serve_run(name, &plan, &served, seed, o.seconds)
            } else {
                serve::run(name, &plan, &served, o.seconds)
            };
            for a in &served.artifacts {
                let _ = std::fs::remove_file(a);
            }
            out
        }
        Plan::Train(plan) => {
            if trace {
                trace::train_run(&plan, seed, o.seconds, o.smoke)
            } else {
                train::run(&plan, seed, o.seconds, o.smoke)
            }
        }
    }
}

/// Strips every `UAE_*` variable from this process's environment, so that
/// neither this process nor the children it starts (which inherit it) can
/// be reconfigured by a stray knob. Returns the names removed.
fn hermetic_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("UAE_"))
        .collect();
    for k in &names {
        // Single-threaded here: no other thread reads the environment yet.
        std::env::remove_var(k);
    }
    names
}

fn child_main(args: &[String]) -> Result<(), String> {
    match args {
        [kind, a, t] if kind == "daemon" => child::daemon_main(a, t),
        [kind, rest @ ..] if kind == "train" => {
            let job = train::Job::parse(rest).ok_or(format!("bad trainer arguments {rest:?}"))?;
            train::child_main(&job)
        }
        _ => Err(format!("bad child arguments {args:?}")),
    }
}

fn main() {
    let removed = hermetic_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        child::exit_with_parent();
        if let Err(e) = child_main(&args[1..]) {
            eprintln!("child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let contract = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| json::parse(&t));
    if args.first().map(String::as_str) == Some("--compare") {
        let result = match (&args[1..], &contract) {
            ([a, b], Ok(c)) => compare::compare(Path::new(a), Path::new(b), c),
            (_, Err(e)) => Err(e.clone()),
            _ => Err("usage: --compare DIR_A DIR_B".into()),
        };
        match result {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let contract = match contract {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}: run from the repository root");
            std::process::exit(2);
        }
    };
    let env = vec![
        (
            "nproc".to_string(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("threads".into(), uae_tensor::num_threads().to_string()),
        (
            "kernel_mode".into(),
            format!("{:?}", uae_tensor::kernel_mode()),
        ),
        ("ignored_env".into(), removed.join(",")),
    ];
    eprintln!(
        "uae-benchmark: seed {} seconds {} trace {} smoke {} | nproc {} threads {} kernels {}{}",
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        opts.smoke,
        env[0].1,
        env[1].1,
        env[2].1,
        if removed.is_empty() {
            String::new()
        } else {
            format!(" | ignored {}", removed.join(","))
        }
    );
    let started = Instant::now();
    // A smoke run checks both metric sets; otherwise `--trace` picks one.
    let modes: &[bool] = if opts.smoke {
        &[false, true]
    } else if opts.trace {
        &[true]
    } else {
        &[false]
    };
    let mut outcomes = Vec::new();
    let mut reports = String::new();
    for (seed, &name) in
        (opts.seed..opts.seed + opts.runs).flat_map(|s| opts.workloads.iter().map(move |w| (s, w)))
    {
        for &trace in modes {
            let t = Instant::now();
            eprintln!("{name} seed {seed}{}", if trace { " (traced)" } else { "" });
            let mut o = run_workload(name, &opts, seed, trace);
            o.seed = seed;
            let key = if trace { "per_layer" } else { "end_to_end" };
            report::check_declared(&mut o, &report::declared_metrics(&contract, key));
            print!("{}", o.lines());
            for p in &o.problems {
                eprintln!("  FAILED: {p}");
            }
            eprintln!("  {:.1} s", t.elapsed().as_secs_f64());
            reports.push_str(&o.report_json(trace, &env));
            reports.push('\n');
            outcomes.push(o);
        }
    }
    if let Some(path) = &opts.out {
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(reports.as_bytes()));
        if let Err(e) = written {
            eprintln!("--out {path}: {e}");
            if let Some(o) = outcomes.last_mut() {
                o.problem(format!("writing {path}: {e}"));
            }
        }
    }
    println!("wall_s {:.1}", started.elapsed().as_secs_f64());
    println!("{}", report::result_line(&outcomes));
    if !outcomes.iter().all(Outcome::correct) {
        std::process::exit(1);
    }
}
