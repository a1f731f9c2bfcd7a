//! Table IV: all seven base models trained with and without UAE on both
//! datasets, reporting AUC, GAUC, RelaImpr and t-test significance.

use uae_metrics::{mean, paired_t_test, rela_impr};
use uae_models::{LabelMode, ModelKind};

use crate::harness::{over_seeds_isolated, prepare, AttentionMethod, HarnessConfig, Preset};
use crate::table::{pct, rela, starred, TextTable};

/// Per-(dataset, model) aggregate of the Base and +UAE variants.
#[derive(Debug, Clone)]
pub struct Table4Entry {
    pub dataset: &'static str,
    pub model: ModelKind,
    pub base_auc: Vec<f64>,
    pub uae_auc: Vec<f64>,
    pub base_gauc: Vec<f64>,
    pub uae_gauc: Vec<f64>,
}

impl Table4Entry {
    pub fn auc_improvement(&self) -> f64 {
        rela_impr(mean(&self.uae_auc), mean(&self.base_auc))
    }

    pub fn gauc_improvement(&self) -> f64 {
        rela_impr(mean(&self.uae_gauc), mean(&self.base_gauc))
    }

    /// Paper-style significance of the +UAE improvement (paired t-test over
    /// seeds, p < 0.05). `None` when too few seeds.
    pub fn auc_significant(&self) -> Option<bool> {
        paired_t_test(&self.uae_auc, &self.base_auc).map(|t| t.significant(0.05))
    }

    pub fn gauc_significant(&self) -> Option<bool> {
        paired_t_test(&self.uae_gauc, &self.base_gauc).map(|t| t.significant(0.05))
    }
}

/// The full Table IV.
#[derive(Debug, Clone, Default)]
pub struct Table4 {
    pub entries: Vec<Table4Entry>,
    /// Per-seed fault report from the panic-isolated fan-out (empty when
    /// every seed ran clean; failed seeds are dropped from the aggregates).
    pub faults: Vec<String>,
}

/// Runs the Table IV experiment grid once per label protocol in `modes`,
/// returning one table per protocol (`cfg.label_mode` is not read).
///
/// For each dataset and seed, UAE is fitted once and its weights are shared
/// by all seven models (matching the paper: UAE is model-agnostic) and by
/// every protocol (α̂ never reads the labels evaluation uses). Seeds run on
/// parallel panic-isolated threads; a seed that dies twice is reported in
/// [`Table4::faults`] and excluded from the aggregates.
pub fn run_table4(cfg: &HarnessConfig, modes: &[LabelMode]) -> Vec<Table4> {
    let mut tables = vec![Table4::default(); modes.len()];
    let cfgs: Vec<HarnessConfig> = modes
        .iter()
        .map(|&label_mode| HarnessConfig {
            label_mode,
            ..cfg.clone()
        })
        .collect();
    let _table_span = uae_obs::span("table4");
    for preset in Preset::both() {
        let _preset_span = uae_obs::span(&format!("table4.{}", preset.name()));
        let data = prepare(preset, cfg);
        // seed → per protocol, per model (base, uae) metrics
        let fan = over_seeds_isolated(&cfg.seeds, |seed| {
            let uae_weights = AttentionMethod::Uae
                .weights(&data, cfg, seed)
                .expect("UAE produces weights");
            cfgs.iter()
                .map(|cfg| {
                    ModelKind::all()
                        .into_iter()
                        .map(|kind| {
                            let base = crate::harness::run_model(kind, None, &data, cfg, seed);
                            let ours = crate::harness::run_model(
                                kind,
                                Some(&uae_weights),
                                &data,
                                cfg,
                                seed,
                            );
                            (
                                kind,
                                base.result.auc,
                                base.result.gauc,
                                ours.result.auc,
                                ours.result.gauc,
                            )
                        })
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        });
        let faults: Vec<String> = fan
            .fault_report()
            .into_iter()
            .map(|f| format!("[{}] {f}", preset.name()))
            .collect();
        let per_seed = fan.values();
        for (pi, table) in tables.iter_mut().enumerate() {
            table.faults.extend(faults.iter().cloned());
            for (mi, kind) in ModelKind::all().into_iter().enumerate() {
                let mut entry = Table4Entry {
                    dataset: preset.name(),
                    model: kind,
                    base_auc: vec![],
                    uae_auc: vec![],
                    base_gauc: vec![],
                    uae_gauc: vec![],
                };
                for seed_result in &per_seed {
                    let (k, ba, bg, ua, ug) = seed_result[pi][mi];
                    debug_assert_eq!(k, kind);
                    entry.base_auc.push(ba);
                    entry.base_gauc.push(bg);
                    entry.uae_auc.push(ua);
                    entry.uae_gauc.push(ug);
                }
                table.entries.push(entry);
            }
        }
    }
    tables
}

impl Table4 {
    /// Renders in the paper's layout: per dataset and metric, three rows
    /// (Base, +UAE, RelaImpr) with one column per model.
    pub fn render(&self) -> String {
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
        for dataset in datasets {
            for metric in ["AUC", "GAUC"] {
                out.push_str(&format!("\n[{dataset}] {metric}\n"));
                let mut header = vec!["Variant"];
                let names: Vec<&'static str> = ModelKind::all().iter().map(|k| k.name()).collect();
                header.extend(names.iter());
                let mut t = TextTable::new(&header);
                let row = |f: &dyn Fn(&Table4Entry) -> String, label: &str| -> Vec<String> {
                    let mut cells = vec![label.to_string()];
                    for kind in ModelKind::all() {
                        let cell = self
                            .entries
                            .iter()
                            .find(|e| e.dataset == dataset && e.model == kind)
                            .map(f)
                            .unwrap_or_else(|| "-".to_string());
                        cells.push(cell);
                    }
                    cells
                };
                if metric == "AUC" {
                    t.add_row(row(&|e| pct(mean(&e.base_auc)), "Base"));
                    t.add_row(row(
                        &|e| starred(pct(mean(&e.uae_auc)), e.auc_significant().unwrap_or(false)),
                        "+UAE (Ours)",
                    ));
                    t.add_row(row(&|e| rela(e.auc_improvement()), "RelaImpr"));
                } else {
                    t.add_row(row(&|e| pct(mean(&e.base_gauc)), "Base"));
                    t.add_row(row(
                        &|e| {
                            starred(
                                pct(mean(&e.uae_gauc)),
                                e.gauc_significant().unwrap_or(false),
                            )
                        },
                        "+UAE (Ours)",
                    ));
                    t.add_row(row(&|e| rela(e.gauc_improvement()), "RelaImpr"));
                }
                out.push_str(&t.render());
            }
        }
        out
    }

    /// Fraction of (dataset, model, metric) cells where +UAE beats Base.
    pub fn win_rate(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let mut wins = 0usize;
        let mut total = 0usize;
        for e in &self.entries {
            total += 2;
            if mean(&e.uae_auc) > mean(&e.base_auc) {
                wins += 1;
            }
            if mean(&e.uae_gauc) > mean(&e.base_gauc) {
                wins += 1;
            }
        }
        wins as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One fast end-to-end pass over a reduced grid (single model) to keep
    /// test time bounded; the full grid runs in the bench harness.
    #[test]
    fn reduced_table4_structure() {
        let cfg = HarnessConfig::fast();
        let data = prepare(Preset::Product, &cfg);
        let w = AttentionMethod::Uae.weights(&data, &cfg, 1).unwrap();
        let base = crate::harness::run_model(ModelKind::Fm, None, &data, &cfg, 1);
        let ours = crate::harness::run_model(ModelKind::Fm, Some(&w), &data, &cfg, 1);
        let entry = Table4Entry {
            dataset: "Product",
            model: ModelKind::Fm,
            base_auc: vec![base.result.auc],
            uae_auc: vec![ours.result.auc],
            base_gauc: vec![base.result.gauc],
            uae_gauc: vec![ours.result.gauc],
        };
        // RelaImpr consistent with its inputs.
        let imp = entry.auc_improvement();
        assert!(imp.is_finite());
        // Single seed → no significance test possible.
        assert!(entry.auc_significant().is_none());
        let table = Table4 {
            entries: vec![entry],
            faults: vec![],
        };
        let rendered = table.render();
        assert!(rendered.contains("[Product] AUC"));
        assert!(rendered.contains("+UAE (Ours)"));
        assert!(table.win_rate() >= 0.0);
    }
}
