//! The estimator × scenario benchmark matrix.
//!
//! Every [`EstimatorSpec`] is trained on every simulator scenario (see
//! `SimConfig::scenario`) and scored *intrinsically* on a held-out session
//! split: how well does its α̂ rank true attention (AUC), how far off is its
//! mean (bias), and how much does that mean move across training seeds
//! (variance)? The matrix is the repo's standing answer to "which debiasing
//! scheme survives which failure mode" — committed as `MATRIX.md` and
//! `MATRIX.jsonl` (written by `uae matrix --md … --jsonl …`), and gated in
//! CI by a check over the committed `MATRIX.jsonl`.

use uae_core::{AttentionEstimator, EstimatorSpec, Uae, UaeConfig};
use uae_data::{generate, split_by_ratio, Dataset, FlatData, SimConfig};
use uae_metrics::{auc, mean};
use uae_tensor::Rng;

use crate::harness::over_seeds;
use crate::table::TextTable;

/// Configuration of one matrix run.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Scenario names, resolved through `SimConfig::scenario`.
    pub scenarios: Vec<String>,
    /// Estimators to train in every scenario.
    pub estimators: Vec<EstimatorSpec>,
    /// Simulator scale (1.0 = the Product preset's default size).
    pub scale: f64,
    /// Training seeds; the across-seed spread feeds the variance column.
    pub seeds: Vec<u64>,
    /// Attention-model hyper-parameters (the estimator is overridden per
    /// cell).
    pub uae: UaeConfig,
    /// Seed for dataset generation (fixed across training seeds).
    pub data_seed: u64,
}

impl MatrixConfig {
    /// The full matrix: every scenario × every estimator, three seeds.
    pub fn full() -> Self {
        MatrixConfig {
            scenarios: uae_data::scenario_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            estimators: EstimatorSpec::all(),
            scale: 0.25,
            seeds: vec![11, 22, 33],
            // The default epoch budget matters here: UAE's alternating
            // schedule needs the full `N_e` for its attention net to
            // converge, while PN plateaus (and starts fitting exposure)
            // much earlier — the committed gate compares them at this
            // budget.
            uae: UaeConfig::default(),
            data_seed: 2024,
        }
    }

    /// A seconds-scale smoke slice (2 estimators × 2 scenarios, one seed) —
    /// what CI runs.
    pub fn smoke() -> Self {
        MatrixConfig {
            scenarios: vec!["baseline".into(), "position-bias".into()],
            estimators: vec![EstimatorSpec::UaeDual, EstimatorSpec::Pn],
            scale: 0.05,
            seeds: vec![1],
            uae: UaeConfig {
                gru_hidden: 12,
                mlp_hidden: vec![12],
                epochs: 1,
                session_batch: 32,
                ..Default::default()
            },
            data_seed: 7,
        }
    }
}

/// One (scenario, estimator) cell, aggregated over seeds.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    pub scenario: String,
    /// The estimator's CLI name (`uae`, `pn`, `rel-mf`, …).
    pub estimator: String,
    /// Mean over seeds of the AUC of α̂ against the true attention indicator
    /// on the held-out test sessions.
    pub auc: f64,
    /// Mean over seeds of `mean(α̂) − mean(true α)` on the test sessions
    /// (signed: negative = underestimates attention, the PN failure mode).
    pub bias: f64,
    /// Across-seed variance of `mean(α̂)` — the stability the paper's
    /// clipping buys.
    pub variance: f64,
}

/// The full matrix plus provenance.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    pub cells: Vec<MatrixCell>,
    pub seeds: usize,
    pub scale: f64,
}

fn mean_f32(v: &[f32]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64
}

/// Fits `spec` on the train split and scores α̂ on the test split.
/// Returns `(attention AUC, signed bias, mean α̂)`.
fn run_cell_seed(
    dataset: &Dataset,
    train: &[usize],
    test: &[usize],
    test_flat: &FlatData,
    uae_cfg: &UaeConfig,
    spec: EstimatorSpec,
    seed: u64,
) -> (f64, f64, f64) {
    let cfg = UaeConfig {
        estimator: spec,
        seed,
        ..uae_cfg.clone()
    };
    let mut model = Uae::new(&dataset.schema, cfg);
    model.fit(dataset, train);
    let alpha_hat = model.predict(dataset, test);
    let cell_auc = auc(&alpha_hat, &test_flat.true_attention).unwrap_or(0.5);
    let mean_hat = mean_f32(&alpha_hat);
    let bias = mean_hat - mean_f32(&test_flat.true_alpha);
    (cell_auc, bias, mean_hat)
}

/// Runs the estimator × scenario grid. Seeds fan out on panic-isolated
/// threads per cell; scenarios and estimators run sequentially so memory
/// stays bounded.
pub fn run_matrix(cfg: &MatrixConfig) -> MatrixReport {
    let _span = uae_obs::span("matrix");
    let mut cells = Vec::with_capacity(cfg.scenarios.len() * cfg.estimators.len());
    for scenario in &cfg.scenarios {
        let sim = SimConfig::scenario(scenario, cfg.scale)
            .unwrap_or_else(|| panic!("unknown scenario `{scenario}`"));
        let dataset = generate(&sim, cfg.data_seed);
        let mut rng = Rng::seed_from_u64(cfg.data_seed ^ 0x73_706c);
        let split = split_by_ratio(&dataset, 0.8, 0.1, &mut rng);
        let test_flat = FlatData::from_sessions(&dataset, &split.test);
        for &spec in &cfg.estimators {
            let _cell_span = uae_obs::span(&format!("matrix.{scenario}.{}", spec.cli_name()));
            let per_seed = over_seeds(&cfg.seeds, |seed| {
                run_cell_seed(
                    &dataset,
                    &split.train,
                    &split.test,
                    &test_flat,
                    &cfg.uae,
                    spec,
                    seed,
                )
            });
            let aucs: Vec<f64> = per_seed.iter().map(|r| r.0).collect();
            let biases: Vec<f64> = per_seed.iter().map(|r| r.1).collect();
            let means: Vec<f64> = per_seed.iter().map(|r| r.2).collect();
            let m = mean(&means);
            let variance = if means.len() > 1 {
                means.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (means.len() - 1) as f64
            } else {
                0.0
            };
            cells.push(MatrixCell {
                scenario: scenario.clone(),
                estimator: spec.cli_name().to_string(),
                auc: mean(&aucs),
                bias: mean(&biases),
                variance,
            });
        }
    }
    MatrixReport {
        cells,
        seeds: cfg.seeds.len(),
        scale: cfg.scale,
    }
}

impl MatrixReport {
    /// The cell for (scenario, estimator), if present.
    pub fn cell(&self, scenario: &str, estimator: &str) -> Option<&MatrixCell> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.estimator == estimator)
    }

    /// Renders one plain-text table per metric (estimators as rows,
    /// scenarios as columns).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (metric, fmt) in [
            ("attention AUC", 0usize),
            ("bias (mean α̂ − mean α)", 1),
            ("across-seed variance of mean α̂", 2),
        ] {
            out.push_str(&format!("{metric}\n"));
            out.push_str(&self.metric_table(fmt).render());
            out.push('\n');
        }
        out
    }

    /// Renders the matrix as a GitHub-flavored markdown document (the
    /// committed `MATRIX.md`).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Estimator × scenario benchmark matrix\n\n");
        out.push_str(&format!(
            "Intrinsic attention-estimation quality on held-out sessions \
             ({} seed{}, simulator scale {}). Generated by `uae matrix --md \
             MATRIX.md --jsonl MATRIX.jsonl` — do not edit by hand.\n",
            self.seeds,
            if self.seeds == 1 { "" } else { "s" },
            self.scale
        ));
        for (title, which) in [
            ("Attention AUC (α̂ vs true attention; higher is better)", 0),
            ("Bias (mean α̂ − mean α; closer to 0 is better)", 1),
            ("Across-seed variance of mean α̂ (lower is steadier)", 2),
        ] {
            out.push_str(&format!("\n## {title}\n\n"));
            out.push_str(&self.markdown_table(which));
        }
        out
    }

    /// One cell value per metric index (0 = AUC, 1 = bias, 2 = variance).
    fn metric_value(&self, c: &MatrixCell, which: usize) -> String {
        match which {
            0 => format!("{:.4}", c.auc),
            1 => format!("{:+.4}", c.bias),
            _ => format!("{:.2e}", c.variance),
        }
    }

    fn scenario_order(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for c in &self.cells {
            if !seen.contains(&c.scenario) {
                seen.push(c.scenario.clone());
            }
        }
        seen
    }

    fn estimator_order(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for c in &self.cells {
            if !seen.contains(&c.estimator) {
                seen.push(c.estimator.clone());
            }
        }
        seen
    }

    fn metric_table(&self, which: usize) -> TextTable {
        let scenarios = self.scenario_order();
        let mut header = vec!["estimator"];
        header.extend(scenarios.iter().map(|s| s.as_str()));
        let mut table = TextTable::new(&header);
        for est in self.estimator_order() {
            let mut row = vec![est.clone()];
            for sc in &scenarios {
                row.push(match self.cell(sc, &est) {
                    Some(c) => self.metric_value(c, which),
                    None => "—".into(),
                });
            }
            table.add_row(row);
        }
        table
    }

    fn markdown_table(&self, which: usize) -> String {
        let scenarios = self.scenario_order();
        let mut out = String::from("| estimator |");
        for sc in &scenarios {
            out.push_str(&format!(" {sc} |"));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &scenarios {
            out.push_str("---|");
        }
        out.push('\n');
        for est in self.estimator_order() {
            out.push_str(&format!("| {est} |"));
            for sc in &scenarios {
                let v = match self.cell(sc, &est) {
                    Some(c) => self.metric_value(c, which),
                    None => "—".into(),
                };
                out.push_str(&format!(" {v} |"));
            }
            out.push('\n');
        }
        out
    }

    /// One JSON object per cell, machine-readable (the committed
    /// `MATRIX.jsonl` that CI checks).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&format!(
                "{{\"scenario\":\"{}\",\"estimator\":\"{}\",\"auc\":{:.6},\"bias\":{:.6},\"variance\":{:.8}}}\n",
                c.scenario, c.estimator, c.auc, c.bias, c.variance
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_fills_every_cell() {
        let cfg = MatrixConfig::smoke();
        let report = run_matrix(&cfg);
        assert_eq!(
            report.cells.len(),
            cfg.scenarios.len() * cfg.estimators.len()
        );
        for c in &report.cells {
            assert!(c.auc.is_finite() && (0.0..=1.0).contains(&c.auc), "{c:?}");
            assert!(c.bias.is_finite() && c.bias.abs() <= 1.0, "{c:?}");
            assert!(c.variance.is_finite() && c.variance >= 0.0, "{c:?}");
        }
        // Both render paths cover every cell.
        let md = report.render_markdown();
        let jsonl = report.to_jsonl();
        for c in &report.cells {
            assert!(md.contains(&c.estimator));
            assert!(jsonl.contains(&format!("\"estimator\":\"{}\"", c.estimator)));
        }
        assert_eq!(jsonl.lines().count(), report.cells.len());
    }

    #[test]
    fn unknown_scenario_panics_loudly() {
        let mut cfg = MatrixConfig::smoke();
        cfg.scenarios = vec!["definitely-not-a-scenario".into()];
        let r = std::panic::catch_unwind(|| run_matrix(&cfg));
        assert!(r.is_err());
    }
}
