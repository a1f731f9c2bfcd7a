//! The four workloads: what data each one generates from the seed, how it
//! loads the daemon or the trainer, and why it is in the benchmark.

use std::path::{Path, PathBuf};

use uae_core::{Uae, UaeConfig};
use uae_data::{generate, split_by_ratio, Dataset, SimConfig, Split};
use uae_serve::wire::Request;
use uae_serve::{FrozenModel, WireSession};
use uae_tensor::Rng;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["serve-short", "serve-long", "serve-swap", "train"];

/// Eq. (19) exponent baked into every artifact and used for the downstream
/// weights (the paper's γ).
pub const GAMMA: f32 = 15.0;

/// Where runs keep artifacts and traces, relative to the working directory.
pub fn work_dir() -> PathBuf {
    PathBuf::from("target/benchmark")
}

/// A simulator preset at a scale; the dataset is a pure function of this
/// and the seed, so a child process regenerates exactly what the parent
/// generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Data {
    Product(f64),
    Podcast(f64),
    MillionUsers,
}

impl Data {
    pub fn config(self) -> SimConfig {
        match self {
            Data::Product(s) => SimConfig::product(s),
            Data::Podcast(s) => SimConfig::scenario("podcast", s).expect("podcast preset"),
            Data::MillionUsers => SimConfig::million_users(),
        }
    }

    pub fn generate(self, seed: u64) -> Dataset {
        generate(&self.config(), seed)
    }

    /// The command-line form a child process parses back with [`Data::parse`].
    pub fn spec(self) -> String {
        match self {
            Data::Product(s) => format!("product:{s}"),
            Data::Podcast(s) => format!("podcast:{s}"),
            Data::MillionUsers => "million-users".into(),
        }
    }

    pub fn parse(spec: &str) -> Option<Data> {
        if spec == "million-users" {
            return Some(Data::MillionUsers);
        }
        let (name, scale) = spec.split_once(':')?;
        let scale: f64 = scale.parse().ok().filter(|s: &f64| *s > 0.0)?;
        match name {
            "product" => Some(Data::Product(scale)),
            "podcast" => Some(Data::Podcast(scale)),
            _ => None,
        }
    }
}

/// How a serve workload loads the daemon.
#[derive(Debug, Clone)]
pub struct ServePlan {
    pub data: Data,
    pub sessions_per_request: usize,
    /// Open-loop rate over all scoring connections, requests per second.
    pub rate: f64,
    /// Fresh-daemon repetitions; each has an open-loop and a closed-loop
    /// phase of `seconds / (2 · reps)`.
    pub reps: usize,
    /// Connections that send score requests (the rest of the two swap).
    pub scoring_conns: usize,
    /// Seconds between hot swaps on the second connection.
    pub swap_every: Option<f64>,
    /// Length of the time windows the phases are cut into, seconds (a
    /// whole swap period where swaps run, so every window holds one).
    pub window: f64,
    /// Cold starts beyond the repetitions' own, for `setup_s`.
    pub cold_starts: usize,
    /// Pairs of closed-loop daemons (tracing off, on) the traced run
    /// compares for the tracing overhead.
    pub overhead_pairs: usize,
    /// Requests the traced run replays in-process.
    pub replay: usize,
    /// Sessions the traced run trains the training layers on.
    pub probe_sessions: usize,
    /// Warm-up before timing, seconds.
    pub warmup: f64,
}

/// How the train workload runs Algorithm 1 and the downstream trainer.
#[derive(Debug, Clone)]
pub struct TrainPlan {
    pub data: Data,
    pub fit_epochs: usize,
    pub dcn_epochs: usize,
    /// Repetitions run at least; more run while another one still ends
    /// within `--seconds`.
    pub min_reps: usize,
    /// Held-out requests the traced run replays in-process.
    pub replay: usize,
}

pub enum Plan {
    Serve(ServePlan),
    Train(TrainPlan),
}

/// The plan of a workload; `smoke` shrinks every size so that each
/// workload runs for about a second.
pub fn plan(workload: &str, smoke: bool) -> Option<Plan> {
    let serve = |data, spr, rate, scoring_conns, swap_every: Option<f64>, replay| {
        Plan::Serve(ServePlan {
            data,
            sessions_per_request: spr,
            rate,
            reps: match (smoke, swap_every) {
                (true, _) => 1,
                (false, Some(_)) => 5,
                (false, None) => 6,
            },
            scoring_conns,
            swap_every,
            window: swap_every.unwrap_or(0.1),
            cold_starts: if smoke { 1 } else { 3 },
            overhead_pairs: if smoke { 1 } else { 3 },
            replay: if smoke { 50 } else { replay },
            probe_sessions: if smoke { 32 } else { 256 },
            warmup: if smoke { 0.1 } else { 0.5 },
        })
    };
    Some(match workload {
        // Fixed costs per request dominate: framing, socket wake-ups, queue
        // handoff, batch assembly and arena reset around a tiny forward.
        "serve-short" => serve(Data::Product(0.1), 1, 1500.0, 2, None, 2000),
        // Forward compute dominates: ~640 untruncated GRU steps × padded
        // batch per request, so per-request overhead is a few percent.
        "serve-long" => serve(Data::Podcast(0.2), 8, 150.0, 2, None, 300),
        // Writes beside reads: a 40 MB artifact is decoded and rebuilt every
        // second while one connection scores at a fixed rate. (The smoke
        // run swaps a small artifact: it checks the path, not the sizes.)
        "serve-swap" => serve(
            if smoke {
                Data::Product(0.1)
            } else {
                Data::MillionUsers
            },
            1,
            1000.0,
            1,
            Some(if smoke { 0.25 } else { 1.0 }),
            1000,
        ),
        // The serving kernels under tape autodiff, backward GEMMs and Adam.
        "train" => Plan::Train(TrainPlan {
            data: if smoke {
                Data::Product(0.05)
            } else {
                Data::Product(0.4)
            },
            fit_epochs: if smoke { 1 } else { 4 },
            dcn_epochs: if smoke { 1 } else { 3 },
            min_reps: if smoke { 1 } else { 3 },
            replay: if smoke { 50 } else { 1000 },
        }),
        _ => return None,
    })
}

/// The seeded 80/20 session split the train workload trains and evaluates on.
pub fn train_split(ds: &Dataset, seed: u64) -> Split {
    let mut rng = Rng::seed_from_u64(seed ^ 0x7370_6c69_7400);
    split_by_ratio(ds, 0.8, 0.0, &mut rng)
}

/// What a serve phase sends: a pool of distinct requests (session lists),
/// each pre-encoded as a complete length-prefixed frame, and the seeded
/// order in which the load generator cycles through them.
pub struct RequestPool {
    pub sessions: Vec<Vec<usize>>,
    pub frames: Vec<Vec<u8>>,
    pub order: Vec<usize>,
    pub events: Vec<u64>,
}

impl RequestPool {
    /// `size` requests of `per_request` sessions each, drawn from
    /// `candidates` by a seeded generator (one session per request walks
    /// the candidates in a seeded order instead, so each is sent once per
    /// cycle).
    pub fn new(
        ds: &Dataset,
        candidates: &[usize],
        per_request: usize,
        size: usize,
        seed: u64,
    ) -> RequestPool {
        let mut rng = Rng::seed_from_u64(seed ^ 0x7265_7175_6573_7473);
        let sessions: Vec<Vec<usize>> = if per_request == 1 {
            let mut c = candidates.to_vec();
            rng.shuffle(&mut c);
            c.into_iter().take(size).map(|s| vec![s]).collect()
        } else {
            (0..size)
                .map(|_| {
                    (0..per_request)
                        .map(|_| candidates[rng.below(candidates.len())])
                        .collect()
                })
                .collect()
        };
        let frames = sessions
            .iter()
            .map(|ids| {
                crate::loadgen::frame(&Request::Score {
                    deadline_ms: 0,
                    sessions: ids
                        .iter()
                        .map(|&s| WireSession::from_dataset(ds, s))
                        .collect(),
                })
            })
            .collect();
        let events = sessions
            .iter()
            .map(|ids| ids.iter().map(|&s| ds.sessions[s].len() as u64).sum())
            .collect();
        let mut order: Vec<usize> = (0..sessions.len()).collect();
        rng.shuffle(&mut order);
        RequestPool {
            sessions,
            frames,
            order,
            events,
        }
    }

    /// The pool slot of the `i`-th request sent.
    pub fn slot(&self, i: usize) -> usize {
        self.order[i % self.order.len()]
    }
}

/// An untrained dense artifact for `ds` (`UaeConfig::default()` seeded from
/// the workload seed) and a byte-identical copy to swap to. Weight values
/// do not change the arithmetic a forward pass does.
pub fn write_artifacts(ds: &Dataset, name: &str, seed: u64) -> std::io::Result<[PathBuf; 2]> {
    let dir = work_dir();
    std::fs::create_dir_all(&dir)?;
    let a = dir.join(format!("{name}-a.uaem"));
    let b = dir.join(format!("{name}-b.uaem"));
    let uae = Uae::new(
        &ds.schema,
        UaeConfig {
            seed,
            ..UaeConfig::default()
        },
    );
    FrozenModel::from_uae(&uae, &ds.schema, GAMMA)
        .write_to(&a)
        .map_err(std::io::Error::other)?;
    std::fs::copy(&a, &b)?;
    Ok([absolute(&a)?, absolute(&b)?])
}

/// A second copy of an existing artifact, for swapping to.
pub fn copy_artifact(a: &Path) -> std::io::Result<[PathBuf; 2]> {
    let b = a.with_extension("copy.uaem");
    std::fs::copy(a, &b)?;
    Ok([absolute(a)?, absolute(&b)?])
}

fn absolute(p: &Path) -> std::io::Result<PathBuf> {
    std::fs::canonicalize(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_specs_round_trip() {
        for d in [Data::Product(0.4), Data::Podcast(0.2), Data::MillionUsers] {
            assert_eq!(Data::parse(&d.spec()), Some(d));
        }
        assert_eq!(Data::parse("product:0"), None);
        assert_eq!(Data::parse("nope:1"), None);
    }

    #[test]
    fn every_workload_has_a_plan() {
        for w in WORKLOADS {
            assert!(plan(w, false).is_some() && plan(w, true).is_some(), "{w}");
        }
        assert!(plan("bogus", false).is_none());
    }
}
