//! The train workload: Algorithm 1 (`Uae::fit`), the Eq. (19) weights, and
//! the weighted DCN-V2 trainer of Eq. (18), in a child process per
//! repetition.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use uae_core::{
    downstream_weights, masked_sequence_bce, AttentionEstimator, AttentionNet, Uae, UaeConfig,
};
use uae_data::{seq_batches, Dataset, FlatData};
use uae_metrics::auc;
use uae_models::{evaluate, train, LabelMode, ModelConfig, ModelKind, TrainConfig};
use uae_nn::{Adam, Optimizer};
use uae_obs::{Event, Sink};
use uae_serve::FrozenModel;
use uae_tensor::{Matrix, Params, Rng, Tape};

use crate::child::{self, Child};
use crate::report::Outcome;
use crate::stats::{median, quartiles};
use crate::workload::{self, Data, TrainPlan, GAMMA};

/// What a trainer child is asked to do.
#[derive(Debug, Clone)]
pub struct Job {
    pub data: Data,
    pub seed: u64,
    /// Train on at most this many sessions of the split (0 = all).
    pub cap: usize,
    pub fit_epochs: usize,
    pub dcn_epochs: usize,
    /// After training, time single layers at this job's shapes.
    pub trace: bool,
    /// Write the trained model here as a `.uaem` artifact.
    pub artifact: Option<String>,
}

impl Job {
    fn args(&self) -> Vec<String> {
        vec![
            "--child".into(),
            "train".into(),
            self.data.spec(),
            self.seed.to_string(),
            self.cap.to_string(),
            self.fit_epochs.to_string(),
            self.dcn_epochs.to_string(),
            if self.trace { "1" } else { "0" }.into(),
            self.artifact.clone().unwrap_or_else(|| "-".into()),
        ]
    }

    pub fn parse(args: &[String]) -> Option<Job> {
        let [data, seed, cap, fit, dcn, trace, artifact] = args else {
            return None;
        };
        Some(Job {
            data: Data::parse(data)?,
            seed: seed.parse().ok()?,
            cap: cap.parse().ok()?,
            fit_epochs: fit.parse().ok()?,
            dcn_epochs: dcn.parse().ok()?,
            trace: trace == "1",
            artifact: (artifact != "-").then(|| artifact.clone()),
        })
    }
}

/// The training split a job uses, capped.
pub fn job_sessions(ds: &Dataset, job: &Job) -> (Vec<usize>, Vec<usize>) {
    let split = workload::train_split(ds, job.seed);
    let (mut train, mut test) = (split.train, split.test);
    if job.cap > 0 {
        train.truncate(job.cap);
        test.truncate(job.cap.div_ceil(4));
    }
    (train, test)
}

/// Keeps only the epoch ends the trainers already report: Algorithm 1's
/// `PhaseEnd` events (phase, epoch, the phase's own duration) and the
/// downstream trainer's `Epoch` events, stamped on arrival. Installing it
/// turns on the program's kernel timers, which costs about 0.4% of an
/// Algorithm 1 epoch (53k timed kernel dispatches per epoch on `train`).
#[derive(Default)]
struct EpochClock {
    phases: Mutex<Vec<(String, usize, u64)>>,
    epoch_ends: Mutex<Vec<Instant>>,
}

impl Sink for EpochClock {
    fn emit(&self, _seq: u64, event: &Event) {
        match event {
            Event::PhaseEnd {
                name,
                epoch,
                micros,
                ..
            } => {
                if let Ok(mut p) = self.phases.lock() {
                    p.push((name.clone(), *epoch as usize, *micros));
                }
            }
            Event::Epoch { .. } => {
                if let Ok(mut e) = self.epoch_ends.lock() {
                    e.push(Instant::now());
                }
            }
            _ => {}
        }
    }
}

/// Entry point of `--child train …`: prints `ready` once the data and
/// models are set up, then one `result key=value …` line.
pub fn child_main(job: &Job) -> Result<(), String> {
    let ds = job.data.generate(job.seed);
    let (train_s, test_s) = job_sessions(&ds, job);
    let tr = FlatData::from_sessions(&ds, &train_s);
    let te = FlatData::from_sessions(&ds, &test_s);
    let mut uae = Uae::new(
        &ds.schema,
        UaeConfig {
            epochs: job.fit_epochs,
            seed: job.seed,
            ..UaeConfig::default()
        },
    );
    let mut rng = Rng::seed_from_u64(job.seed ^ 0x6d6f_6465);
    let (dcn, mut dcn_params) =
        ModelKind::DcnV2.build(&ds.schema, &ModelConfig::default(), &mut rng);
    let mut out = std::io::stdout();
    writeln!(out, "ready").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;

    let mut kv: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| kv.push((k.to_string(), v));
    let clock = Arc::new(EpochClock::default());
    uae_tensor::reset_scratch_stats();
    let t = Instant::now();
    uae_obs::with_sink(clock.clone(), || uae.fit(&ds, &train_s));
    put("fit_s", t.elapsed().as_secs_f64());
    put("scratch_hit_rate", uae_tensor::scratch_stats().hit_rate());
    put("fit_events", (tr.len() * job.fit_epochs) as f64);
    let phases = clock.phases.lock().expect("epoch clock lock").clone();
    for e in 0..job.fit_epochs {
        let micros: u64 = phases.iter().filter(|p| p.1 == e).map(|p| p.2).sum();
        put(&format!("fit_epoch_s.{e}"), micros as f64 / 1e6);
    }
    let epochs = job.fit_epochs.max(1) as f64;
    for phase in ["attention", "propensity"] {
        let micros: u64 = phases.iter().filter(|p| p.0 == phase).map(|p| p.2).sum();
        put(&format!("{phase}_phase_s"), micros as f64 / 1e6 / epochs);
    }

    let weights = downstream_weights(&uae.predict(&ds, &train_s), GAMMA);
    let cfg = TrainConfig {
        epochs: job.dcn_epochs,
        early_stop_patience: None,
        seed: job.seed,
        ..TrainConfig::default()
    };
    let t = Instant::now();
    uae_obs::with_sink(clock.clone(), || {
        train(
            dcn.as_ref(),
            &mut dcn_params,
            &tr,
            Some(&weights),
            None,
            LabelMode::Observed,
            &cfg,
        )
    });
    put("dcn_s", t.elapsed().as_secs_f64());
    put("dcn_events", (tr.len() * job.dcn_epochs) as f64);
    let ends = clock.epoch_ends.lock().expect("epoch clock lock").clone();
    let mut prev = t;
    for (e, end) in ends.iter().enumerate() {
        put(&format!("dcn_epoch_s.{e}"), (*end - prev).as_secs_f64());
        prev = *end;
    }

    let attention = uae.predict(&ds, &test_s);
    put(
        "attention_auc",
        auc(&attention, &te.true_attention).unwrap_or(f64::NAN),
    );
    let eval = evaluate(dcn.as_ref(), &dcn_params, &te, LabelMode::Observed, 512);
    put("downstream_auc", eval.auc);
    if job.trace {
        probes(&ds, &train_s, &tr, &mut put);
    }
    if let Some(path) = &job.artifact {
        FrozenModel::from_uae(&uae, &ds.schema, GAMMA)
            .write_to(std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
    }
    put(
        "peak_rss_mib",
        child::peak_rss_mib("/proc/self/status").unwrap_or(f64::NAN),
    );
    let line: Vec<String> = kv.iter().map(|(k, v)| format!("{k}={v}")).collect();
    writeln!(out, "result {}", line.join(" ")).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

/// Median wall time of `reps` calls, in microseconds.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Single-layer timings at the shapes of this job's training batches.
fn probes(ds: &Dataset, train_s: &[usize], tr: &FlatData, put: &mut impl FnMut(&str, f64)) {
    let cfg = UaeConfig::default();
    let mut rng = Rng::seed_from_u64(1);
    let batches = seq_batches(ds, train_s, cfg.session_batch, cfg.max_len, &mut rng);
    let b = batches
        .iter()
        .max_by_key(|b| b.batch * b.steps)
        .expect("at least one training batch");
    // Attention net g: embeddings, GRU₁ and MLP₁, forward and backward.
    let mut params = Params::new();
    let g = AttentionNet::new(
        "probe.g",
        &ds.schema,
        cfg.embed_dim,
        cfg.gru_hidden,
        &cfg.mlp_hidden,
        None,
        &mut params,
        &mut rng,
    );
    let pos: Vec<Vec<f32>> = b.e.clone();
    let neg: Vec<Vec<f32>> = (0..b.steps)
        .map(|t| {
            (0..b.batch)
                .map(|i| b.mask[t][i] * (1.0 - b.e[t][i]))
                .collect()
        })
        .collect();
    let mut tape = Tape::new();
    let fwd_bwd = time_us(5, || {
        tape.clear();
        let gf = g.forward(&mut tape, &params, b);
        let loss = masked_sequence_bce(
            &mut tape,
            &gf.logits,
            &pos,
            &neg,
            b.valid_steps() as f32,
            true,
        );
        params.zero_grads();
        tape.backward(loss, &mut params);
    });
    put("g_fwd_bwd_ms", fwd_bwd / 1e3);
    let mut adam = Adam::new(1e-3);
    put("adam_step_us", time_us(10, || adam.step(&mut params)));

    // DCN-V2 on one 512-event batch.
    let (dcn, mut dp) = ModelKind::DcnV2.build(&ds.schema, &ModelConfig::default(), &mut rng);
    let idx: Vec<usize> = (0..tr.len().min(512)).collect();
    let batch = tr.gather(&idx);
    let y: Vec<f32> = batch.label.iter().map(|&l| l as u8 as f32).collect();
    let n: Vec<f32> = y.iter().map(|v| 1.0 - v).collect();
    put(
        "dcn_fwd_bwd_ms",
        time_us(5, || {
            tape.clear();
            let logits = dcn.forward(&mut tape, &dp, &batch);
            let loss = tape.weighted_bce(logits, &y, &n, idx.len() as f32, false);
            dp.zero_grads();
            tape.backward(loss, &mut dp);
        }) / 1e3,
    );

    // GEMMs at the GRU₁ input projection of a training batch:
    // [64 × in]·[in × 3H] forward and the [in × 3H] weight gradient.
    let input = cfg.embed_dim * ds.schema.num_cat_fields() + ds.schema.num_dense();
    let x = Matrix::randn(cfg.session_batch, input, 1.0, &mut rng);
    let w = Matrix::randn(input, 3 * cfg.gru_hidden, 1.0, &mut rng);
    let dy = Matrix::randn(cfg.session_batch, 3 * cfg.gru_hidden, 1.0, &mut rng);
    put(
        "matmul_us",
        time_us(201, || drop(std::hint::black_box(x.matmul(&w)))),
    );
    put(
        "matmul_tn_us",
        time_us(201, || drop(std::hint::black_box(x.matmul_tn(&dy)))),
    );
}

/// One trainer child: its set-up time and its `result` fields.
pub struct RepResult {
    pub setup_s: f64,
    pub fields: Vec<(String, f64)>,
}

impl RepResult {
    pub fn get(&self, key: &str) -> f64 {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    /// The values of `prefix.0`, `prefix.1`, … (one per epoch).
    pub fn series(&self, prefix: &str) -> Vec<f64> {
        (0..)
            .map(|i| self.get(&format!("{prefix}.{i}")))
            .take_while(|v| !v.is_nan())
            .collect()
    }
}

pub fn run_child(job: &Job) -> Result<RepResult, String> {
    let mut c = Child::spawn(&job.args())?;
    let ready = c.line()?;
    if ready != "ready" {
        return Err(format!("trainer child said {ready:?}"));
    }
    let setup_s = c.spawned.elapsed().as_secs_f64();
    let line = c.line()?;
    let fields = line
        .strip_prefix("result ")
        .ok_or_else(|| format!("trainer child said {line:?}"))?
        .split(' ')
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect();
    c.wait(Duration::from_secs(60))?;
    Ok(RepResult { setup_s, fields })
}

/// Held-out AUC floors a trained model must reach: far below what the
/// full-size run reaches, far above what a broken trainer reaches. The
/// smoke run trains one epoch on a few hundred sessions, so there an AUC
/// only has to be a number.
fn auc_floors(smoke: bool) -> (f64, f64) {
    if smoke {
        (0.0, 0.0)
    } else {
        (0.75, 0.7)
    }
}

/// The end-to-end run: at least `plan.min_reps` trainer children, and
/// more while another one still ends within `seconds`.
pub fn run(plan: &TrainPlan, seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let mut o = Outcome::new("train");
    let job = Job {
        data: plan.data,
        seed,
        cap: 0,
        fit_epochs: plan.fit_epochs,
        dcn_epochs: plan.dcn_epochs,
        trace: false,
        artifact: None,
    };
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut last = 0.0;
    while reps.len() < plan.min_reps || start.elapsed().as_secs_f64() + last <= seconds {
        o.attempted += 1;
        let t = Instant::now();
        match run_child(&job) {
            Ok(r) => {
                last = t.elapsed().as_secs_f64();
                reps.push(r);
            }
            Err(e) => {
                o.failed += 1;
                o.problem(e);
                break;
            }
        }
    }
    if reps.is_empty() {
        return o;
    }
    let med = |f: &dyn Fn(&RepResult) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let (att_floor, dcn_floor) = auc_floors(smoke);
    for key in ["attention_auc", "downstream_auc"] {
        let v: Vec<f64> = reps.iter().map(|r| r.get(key)).collect();
        if v.iter().any(|x| x.to_bits() != v[0].to_bits()) {
            o.problem(format!(
                "{key} differs between repetitions of one seed: {v:?}"
            ));
        }
    }
    let att = med(&|r| r.get("attention_auc"));
    let down = med(&|r| r.get("downstream_auc"));
    if !(att >= att_floor && down >= dcn_floor) {
        o.problem(format!(
            "held-out AUC attention {att} (floor {att_floor}), downstream {down} (floor {dcn_floor})"
        ));
    }
    // One time per epoch of each trainer, over every repetition; the
    // quiet quartile of each (see BENCHMARK.md, "Steadiness").
    let fit: Vec<f64> = reps.iter().flat_map(|r| r.series("fit_epoch_s")).collect();
    let dcn: Vec<f64> = reps.iter().flat_map(|r| r.series("dcn_epoch_s")).collect();
    if fit.len() != reps.len() * plan.fit_epochs || dcn.len() != reps.len() * plan.dcn_epochs {
        o.problem(format!(
            "{} Algorithm 1 and {} downstream epoch times from {} repetitions",
            fit.len(),
            dcn.len(),
            reps.len()
        ));
    }
    let (fit_q1, dcn_q1) = (quartiles(&fit)[0], quartiles(&dcn)[0]);
    let (ef, ed) = (plan.fit_epochs as f64, plan.dcn_epochs as f64);
    let events_per_epoch = med(&|r| r.get("fit_events")) / ef;
    o.metric("setup_s", med(&|r| r.setup_s), "s");
    o.metric("p50_ms", fit_q1 * 1e3, "ms");
    o.metric(
        "events_per_s",
        events_per_epoch * (ef + ed) / (ef * fit_q1 + ed * dcn_q1),
        "events/s",
    );
    o.metric("rss_peak_mb", med(&|r| r.get("peak_rss_mib")), "MiB");
    o.extra("fit_events_per_s", events_per_epoch / fit_q1, "events/s");
    o.extra(
        "downstream_events_per_s",
        events_per_epoch / dcn_q1,
        "events/s",
    );
    o.extra("attention_auc", att, "AUC");
    o.extra("downstream_auc", down, "AUC");
    o.extra("reps", reps.len() as f64, "count");
    o
}
