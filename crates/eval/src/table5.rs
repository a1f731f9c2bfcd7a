//! Table V: AutoInt and DCN-V2 equipped with each attention model (EDM, NDB,
//! PN, SAR, UAE) on both datasets — plus a reproduction-only extension
//! reporting the intrinsic quality of each attention estimator against the
//! simulator's ground truth (impossible on real logs; see footnote 4 of the
//! paper).

use uae_metrics::{auc, brier_score, expected_calibration_error, mean, paired_t_test, rela_impr};
use uae_models::{LabelMode, ModelKind};

use crate::harness::{
    over_seeds_isolated, prepare, AttentionMethod, HarnessConfig, PreparedData, Preset,
};
use crate::table::{pct, rela, starred, TextTable};

/// Aggregate for one (dataset, base model, method) cell.
#[derive(Debug, Clone)]
pub struct Table5Entry {
    pub dataset: &'static str,
    pub model: ModelKind,
    pub method: AttentionMethod,
    pub auc: Vec<f64>,
    pub gauc: Vec<f64>,
}

/// Intrinsic attention-estimation quality of one method (extension), fitted
/// on the training sessions and scored on the held-out test events.
#[derive(Debug, Clone)]
pub struct AttentionQuality {
    pub dataset: &'static str,
    pub method: AttentionMethod,
    /// AUC of α̂ against the true attention indicator.
    pub attention_auc: Vec<f64>,
    /// Brier score of α̂ against the true attention indicator.
    pub brier: Vec<f64>,
    /// Expected calibration error (10 bins).
    pub ece: Vec<f64>,
}

/// The full Table V (+ attention-quality extension).
#[derive(Debug, Clone, Default)]
pub struct Table5 {
    pub entries: Vec<Table5Entry>,
    pub quality: Vec<AttentionQuality>,
    /// Per-seed fault report from the panic-isolated fan-out (empty when
    /// every seed ran clean; failed seeds are dropped from the aggregates).
    pub faults: Vec<String>,
}

/// The base models Table V uses (the two strongest from Table IV).
pub fn table5_models() -> [ModelKind; 2] {
    [ModelKind::AutoInt, ModelKind::DcnV2]
}

/// AUC, Brier score and ECE of `scores`, the α̂ of every held-out test
/// event of `data`, against the true attention indicator.
fn quality_of(scores: &[f32], data: &PreparedData) -> (f64, f64, f64) {
    let truth = &data.test.true_attention;
    (
        auc(scores, truth).unwrap_or(0.5),
        brier_score(scores, truth),
        expected_calibration_error(scores, truth, 10),
    )
}

/// Runs the Table V grid once per label protocol in `modes`, returning one
/// table per protocol (`cfg.label_mode` is not read). Seeds are parallel;
/// within a seed each attention method is fitted once and shared by both
/// base models and every protocol (α̂ never reads the labels evaluation
/// uses).
pub fn run_table5(cfg: &HarnessConfig, modes: &[LabelMode]) -> Vec<Table5> {
    run_table5_with(cfg, &AttentionMethod::table5(), modes)
}

/// As [`run_table5`] but over a custom method list (used by ablations).
pub fn run_table5_with(
    cfg: &HarnessConfig,
    methods: &[AttentionMethod],
    modes: &[LabelMode],
) -> Vec<Table5> {
    let mut tables = vec![Table5::default(); modes.len()];
    let mode_cfgs: Vec<HarnessConfig> = modes
        .iter()
        .map(|&label_mode| HarnessConfig {
            label_mode,
            ..cfg.clone()
        })
        .collect();
    let _table_span = uae_obs::span("table5");
    for preset in Preset::both() {
        let _preset_span = uae_obs::span(&format!("table5.{}", preset.name()));
        let data = prepare(preset, cfg);
        // seed → (per (protocol, method, model) metrics, per method quality)
        type SeedOut = (
            Vec<(usize, usize, usize, f64, f64)>,
            Vec<(usize, f64, f64, f64)>,
        );
        let fan = over_seeds_isolated(&cfg.seeds, |seed| {
            let mut cells = Vec::new();
            let mut quality = Vec::new();
            for (qi, &method) in methods.iter().enumerate() {
                // Weights come from the training events the downstream
                // model fits on; quality is scored on held-out events.
                let split = &data.split;
                let scores = method.attention_scores(&data, cfg, seed, [&split.train, &split.test]);
                let weights = scores.map(|[train, test]| {
                    let (a, b, e) = quality_of(&test, &data);
                    quality.push((qi, a, b, e));
                    uae_core::downstream_weights(&train, cfg.gamma)
                });
                for (pi, mode_cfg) in mode_cfgs.iter().enumerate() {
                    for (mi, kind) in table5_models().into_iter().enumerate() {
                        let out = crate::harness::run_model(
                            kind,
                            weights.as_deref(),
                            &data,
                            mode_cfg,
                            seed,
                        );
                        cells.push((pi, qi, mi, out.result.auc, out.result.gauc));
                    }
                }
            }
            (cells, quality)
        });
        let faults: Vec<String> = fan
            .fault_report()
            .into_iter()
            .map(|f| format!("[{}] {f}", preset.name()))
            .collect();
        let per_seed: Vec<SeedOut> = fan.values();
        for (pi, table) in tables.iter_mut().enumerate() {
            table.faults.extend(faults.iter().cloned());
            for (qi, &method) in methods.iter().enumerate() {
                for (mi, kind) in table5_models().into_iter().enumerate() {
                    let mut entry = Table5Entry {
                        dataset: preset.name(),
                        model: kind,
                        method,
                        auc: vec![],
                        gauc: vec![],
                    };
                    for (cells, _) in &per_seed {
                        let &(.., a, g) = cells
                            .iter()
                            .find(|&&(p, q, m, ..)| (p, q, m) == (pi, qi, mi))
                            .expect("cell");
                        entry.auc.push(a);
                        entry.gauc.push(g);
                    }
                    table.entries.push(entry);
                }
                if method != AttentionMethod::Base {
                    let mut q = AttentionQuality {
                        dataset: preset.name(),
                        method,
                        attention_auc: vec![],
                        brier: vec![],
                        ece: vec![],
                    };
                    for (_, quality) in &per_seed {
                        if let Some(&(_, a, b, e)) = quality.iter().find(|&&(i, ..)| i == qi) {
                            q.attention_auc.push(a);
                            q.brier.push(b);
                            q.ece.push(e);
                        }
                    }
                    table.quality.push(q);
                }
            }
        }
    }
    tables
}

impl Table5 {
    fn find(&self, dataset: &str, model: ModelKind, method: AttentionMethod) -> &Table5Entry {
        self.entries
            .iter()
            .find(|e| e.dataset == dataset && e.model == model && e.method == method)
            .expect("table5 entry")
    }

    /// Renders the paper's layout: per (dataset, model), AUC and GAUC rows
    /// with RelaImpr against the Base column; `*` marks significance of the
    /// best method over the best baseline.
    pub fn render(&self, methods: &[AttentionMethod]) -> String {
        let mut out = String::new();
        let datasets: Vec<&'static str> = {
            let mut seen = Vec::new();
            for e in &self.entries {
                if !seen.contains(&e.dataset) {
                    seen.push(e.dataset);
                }
            }
            seen
        };
        for dataset in &datasets {
            for model in table5_models() {
                out.push_str(&format!("\n[{dataset}] base model: {}\n", model.name()));
                let mut header = vec!["Metric".to_string()];
                header.extend(methods.iter().map(|m| m.name().to_string()));
                let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
                let mut t = TextTable::new(&header_refs);
                for metric in ["AUC", "GAUC"] {
                    let get = |m: AttentionMethod| -> Vec<f64> {
                        let e = self.find(dataset, model, m);
                        if metric == "AUC" {
                            e.auc.clone()
                        } else {
                            e.gauc.clone()
                        }
                    };
                    let base = get(AttentionMethod::Base);
                    let mut cells = vec![metric.to_string()];
                    for &m in methods {
                        let vals = get(m);
                        let sig = if m == AttentionMethod::Uae {
                            // Versus the strongest baseline mean.
                            let best_baseline = methods
                                .iter()
                                .filter(|&&x| x != AttentionMethod::Uae)
                                .map(|&x| get(x))
                                .max_by(|a, b| mean(a).partial_cmp(&mean(b)).expect("finite"))
                                .unwrap_or_else(|| base.clone());
                            paired_t_test(&vals, &best_baseline)
                                .map(|t| t.significant(0.05) && mean(&vals) > mean(&best_baseline))
                                .unwrap_or(false)
                        } else {
                            false
                        };
                        cells.push(starred(pct(mean(&vals)), sig));
                    }
                    t.add_row(cells);
                    // RelaImpr row.
                    let mut cells = vec![format!("{metric} RelaImpr")];
                    for &m in methods {
                        cells.push(rela(rela_impr(mean(&get(m)), mean(&base))));
                    }
                    t.add_row(cells);
                }
                out.push_str(&t.render());
            }
        }
        if !self.quality.is_empty() {
            out.push_str("\nAttention quality on held-out events vs. ground truth (extension)\n");
            let mut t = TextTable::new(&["Dataset", "Method", "Attn AUC", "Brier", "ECE"]);
            for q in &self.quality {
                t.add_row(vec![
                    q.dataset.to_string(),
                    q.method.name().to_string(),
                    format!("{:.4}", mean(&q.attention_auc)),
                    format!("{:.4}", mean(&q.brier)),
                    format!("{:.4}", mean(&q.ece)),
                ]);
            }
            out.push_str(&t.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_table5_runs_and_renders() {
        let mut cfg = HarnessConfig::fast();
        cfg.data_scale = 0.05;
        // Keep runtime bounded: only EDM vs Base on one dataset via the
        // internal pieces.
        let data = prepare(Preset::ThirtyMusic, &cfg);
        let methods = [AttentionMethod::Base, AttentionMethod::Edm];
        let mut table = Table5::default();
        for &method in &methods {
            let split = &data.split;
            let scores = method.attention_scores(&data, &cfg, 1, [&split.train, &split.test]);
            let weights = scores.map(|[train, test]| {
                let (a, b, e) = quality_of(&test, &data);
                table.quality.push(AttentionQuality {
                    dataset: data.preset.name(),
                    method,
                    attention_auc: vec![a],
                    brier: vec![b],
                    ece: vec![e],
                });
                uae_core::downstream_weights(&train, cfg.gamma)
            });
            for kind in table5_models() {
                let out = crate::harness::run_model(kind, weights.as_deref(), &data, &cfg, 1);
                table.entries.push(Table5Entry {
                    dataset: data.preset.name(),
                    model: kind,
                    method,
                    auc: vec![out.result.auc],
                    gauc: vec![out.result.gauc],
                });
            }
        }
        let rendered = table.render(&methods);
        assert!(rendered.contains("base model: AutoInt"));
        assert!(rendered.contains("base model: DCN-V2"));
        assert!(rendered.contains("+EDM"));
        assert!(rendered.contains("Attn AUC"));
    }
}
