//! Fig. 7: a seven-day online A/B test.
//!
//! The paper deploys UAE on Huawei Music and reports daily relative uplift
//! in play count and play time (> 2% on average). We reproduce the protocol
//! against the behaviour simulator: a **control** arm serves users with a
//! plain DCN-V2; a **treatment** arm serves the same simulated sessions with
//! DCN-V2 trained under UAE's re-weighting. At every step of every session
//! the arm's model ranks a candidate slate, the chosen song is played, and
//! the simulated user responds through the same attention/propensity
//! behaviour model that generated the training logs. Sessions are *paired*
//! across arms (same user, context, slate, random stream) to cut variance.

use uae_data::{gen::SessionContext, Dataset, FlatBatch, Simulator};
use uae_models::{ModelKind, Recommender};
use uae_tensor::{Matrix, Params, Rng};

use crate::harness::{prepare, AttentionMethod, HarnessConfig, Preset};
use crate::table::TextTable;

/// Serving-simulation knobs.
#[derive(Debug, Clone)]
pub struct AbConfig {
    /// Days of the A/B test (the paper runs 7).
    pub days: usize,
    /// Sessions served per day per arm.
    pub sessions_per_day: usize,
    /// Candidate-slate size per step.
    pub candidates: usize,
    /// Nominal song length in minutes.
    pub song_minutes: f64,
    /// Fraction of a song heard before a skip lands.
    pub skip_fraction: f64,
    pub seed: u64,
}

impl Default for AbConfig {
    fn default() -> Self {
        AbConfig {
            days: 7,
            sessions_per_day: 300,
            candidates: 15,
            song_minutes: 3.5,
            skip_fraction: 0.3,
            seed: 99,
        }
    }
}

/// One day's metrics for both arms.
#[derive(Debug, Clone, Copy)]
pub struct AbDay {
    pub day: usize,
    pub control_play_count: f64,
    pub treatment_play_count: f64,
    pub control_play_time: f64,
    pub treatment_play_time: f64,
}

impl AbDay {
    /// Relative play-count uplift of treatment over control, in percent.
    pub fn count_uplift(&self) -> f64 {
        (self.treatment_play_count / self.control_play_count - 1.0) * 100.0
    }

    /// Relative play-time uplift in percent.
    pub fn time_uplift(&self) -> f64 {
        (self.treatment_play_time / self.control_play_time - 1.0) * 100.0
    }
}

/// Full A/B outcome.
#[derive(Debug, Clone)]
pub struct AbOutcome {
    pub days: Vec<AbDay>,
}

impl AbOutcome {
    pub fn mean_count_uplift(&self) -> f64 {
        self.days.iter().map(AbDay::count_uplift).sum::<f64>() / self.days.len().max(1) as f64
    }

    pub fn mean_time_uplift(&self) -> f64 {
        self.days.iter().map(AbDay::time_uplift).sum::<f64>() / self.days.len().max(1) as f64
    }

    /// Renders the daily uplift series of Fig. 7.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["Day", "Play-count uplift %", "Play-time uplift %"]);
        for d in &self.days {
            t.add_row(vec![
                format!("{}", d.day + 1),
                format!("{:+.2}", d.count_uplift()),
                format!("{:+.2}", d.time_uplift()),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "Average: play count {:+.2}%  play time {:+.2}%\n",
            self.mean_count_uplift(),
            self.mean_time_uplift()
        ));
        out
    }
}

/// A trained serving arm.
struct Arm {
    model: Box<dyn Recommender + Send + Sync>,
    params: Params,
}

impl Arm {
    /// Scores a candidate slate and returns the index of the best candidate.
    fn choose(
        &self,
        sim: &Simulator,
        user: usize,
        candidates: &[usize],
        t: usize,
        ctx: SessionContext,
        feature_rng: &mut Rng,
    ) -> usize {
        let mut cat: Vec<Vec<usize>> = Vec::new();
        let mut dense_rows: Vec<f32> = Vec::new();
        let mut dense_cols = 0usize;
        for &song in candidates {
            let (c, d) = sim.features(user, song, t, ctx, feature_rng);
            if cat.is_empty() {
                cat = vec![Vec::with_capacity(candidates.len()); c.len()];
            }
            for (f, v) in c.into_iter().enumerate() {
                cat[f].push(v as usize);
            }
            dense_cols = d.len();
            dense_rows.extend_from_slice(&d);
        }
        let batch = FlatBatch {
            cat,
            dense: Matrix::from_vec(candidates.len(), dense_cols, dense_rows),
            label: vec![false; candidates.len()],
            active: vec![false; candidates.len()],
            indices: (0..candidates.len()).collect(),
        };
        let scores = self.model.infer(&self.params, &batch);
        (0..candidates.len())
            .max_by(|&a, &b| {
                scores
                    .get(a, 0)
                    .partial_cmp(&scores.get(b, 0))
                    .expect("finite score")
            })
            .expect("non-empty slate")
    }
}

/// Plays one session with an arm's policy; returns (play count, play time).
#[allow(clippy::too_many_arguments)]
fn serve_session(
    arm: &Arm,
    sim: &Simulator,
    user: usize,
    ctx: SessionContext,
    length: usize,
    slates: &[Vec<usize>],
    ab: &AbConfig,
    rng: &mut Rng,
) -> (f64, f64) {
    let mut history_e: Vec<bool> = Vec::with_capacity(length);
    let mut play_count = 0.0;
    let mut play_time = 0.0;
    for (t, slate) in slates.iter().enumerate().take(length) {
        let mut feature_rng = rng.fork();
        let pick = arm.choose(sim, user, slate, t, ctx, &mut feature_rng);
        let song = slate[pick];
        let (feedback, _truth) = sim.outcome(user, song, t, &history_e, ctx, rng);
        history_e.push(feedback.is_active());
        if feedback.label() {
            // Played through (auto-play or an explicit positive action).
            play_count += 1.0;
            play_time += ab.song_minutes;
        } else {
            // Skipped / disliked: partial listen, no completed play.
            play_time += ab.song_minutes * ab.skip_fraction;
        }
    }
    (play_count, play_time)
}

/// Trains both arms on the Product preset and serves `ab.days` days.
pub fn run_ab_test(cfg: &HarnessConfig, ab: &AbConfig) -> AbOutcome {
    let data = prepare(Preset::Product, cfg);
    let seed = cfg.seeds.first().copied().unwrap_or(0);

    // Control: plain DCN-V2. Treatment: DCN-V2 + UAE weights.
    let control = {
        let mut rng = Rng::seed_from_u64(seed ^ 0x6374_726c);
        let (model, mut params) =
            ModelKind::DcnV2.build(&data.dataset.schema, &cfg.model, &mut rng);
        let report = uae_models::train(
            model.as_ref(),
            &mut params,
            &data.train,
            None,
            Some(&data.val),
            cfg.label_mode,
            &cfg.train,
        );
        let _ = report;
        Arm { model, params }
    };
    let treatment = {
        let w = AttentionMethod::Uae
            .weights(&data, cfg, seed)
            .expect("weights");
        let mut rng = Rng::seed_from_u64(seed ^ 0x6374_726c);
        let (model, mut params) =
            ModelKind::DcnV2.build(&data.dataset.schema, &cfg.model, &mut rng);
        uae_models::train(
            model.as_ref(),
            &mut params,
            &data.train,
            Some(&w),
            Some(&data.val),
            cfg.label_mode,
            &cfg.train,
        );
        Arm { model, params }
    };

    serve_ab(&data.dataset, &control, &treatment, cfg, ab)
}

/// Serves the two already-trained arms against paired simulated traffic.
fn serve_ab(
    dataset: &Dataset,
    control: &Arm,
    treatment: &Arm,
    cfg: &HarnessConfig,
    ab: &AbConfig,
) -> AbOutcome {
    let sim = Simulator::new(Preset::Product.config(cfg.data_scale), cfg.data_seed);
    debug_assert_eq!(sim.schema().num_features(), dataset.schema.num_features());
    let mut days = Vec::with_capacity(ab.days);
    let mut rng = Rng::seed_from_u64(ab.seed ^ 0xab_ab_ab);
    for day in 0..ab.days {
        let mut day_stats = AbDay {
            day,
            control_play_count: 0.0,
            treatment_play_count: 0.0,
            control_play_time: 0.0,
            treatment_play_time: 0.0,
        };
        for _ in 0..ab.sessions_per_day {
            // Shared session skeleton: user, context, length, slates.
            let user = sim.sample_user(&mut rng);
            let ctx = sim.sample_context(day as u32 % 7, &mut rng);
            let length = sim.sample_length(&mut rng).min(40);
            let slates: Vec<Vec<usize>> = (0..length)
                .map(|_| sim.candidate_songs(ab.candidates, &mut rng))
                .collect();
            // Paired outcome streams.
            let mut rng_c = rng.fork();
            let mut rng_t = rng_c.clone();
            let (cc, ct) = serve_session(control, &sim, user, ctx, length, &slates, ab, &mut rng_c);
            let (tc, tt) =
                serve_session(treatment, &sim, user, ctx, length, &slates, ab, &mut rng_t);
            day_stats.control_play_count += cc;
            day_stats.control_play_time += ct;
            day_stats.treatment_play_count += tc;
            day_stats.treatment_play_time += tt;
        }
        days.push(day_stats);
    }
    AbOutcome { days }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ab_outcome_math() {
        let day = AbDay {
            day: 0,
            control_play_count: 100.0,
            treatment_play_count: 103.0,
            control_play_time: 200.0,
            treatment_play_time: 205.0,
        };
        assert!((day.count_uplift() - 3.0).abs() < 1e-9);
        assert!((day.time_uplift() - 2.5).abs() < 1e-9);
        let outcome = AbOutcome { days: vec![day] };
        assert!((outcome.mean_count_uplift() - 3.0).abs() < 1e-9);
        let rendered = outcome.render();
        assert!(rendered.contains("+3.00"));
        assert!(rendered.contains("Average"));
    }

    #[test]
    fn tiny_ab_test_runs_end_to_end() {
        let mut cfg = HarnessConfig::fast();
        cfg.data_scale = 0.05;
        let ab = AbConfig {
            days: 2,
            sessions_per_day: 10,
            candidates: 5,
            ..Default::default()
        };
        let outcome = run_ab_test(&cfg, &ab);
        assert_eq!(outcome.days.len(), 2);
        for d in &outcome.days {
            assert!(d.control_play_count > 0.0);
            assert!(d.treatment_play_count > 0.0);
            assert!(d.control_play_time > 0.0);
        }
    }
}
