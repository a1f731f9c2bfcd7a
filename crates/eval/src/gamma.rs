//! Fig. 6: sensitivity of DCN-V2+UAE to the re-weighting parameter γ.
//!
//! Panel (a) is the analytical re-weight curve family (Eq. 19); panels (b)
//! and (c) are AUC/GAUC of DCN-V2+UAE for γ ∈ {5, 10, 15, 20, 25}, with the
//! plain DCN-V2 value as the reference line.

use uae_core::downstream_weights;
use uae_metrics::mean;
use uae_models::ModelKind;

use crate::harness::{over_seeds_isolated, prepare, AttentionMethod, HarnessConfig, Preset};
use crate::table::TextTable;

/// One γ's aggregate.
#[derive(Debug, Clone)]
pub struct GammaPoint {
    pub gamma: f32,
    pub auc: Vec<f64>,
    pub gauc: Vec<f64>,
}

/// The Fig. 6 experiment output.
#[derive(Debug, Clone)]
pub struct GammaSweep {
    pub points: Vec<GammaPoint>,
    /// Reference: plain DCN-V2 without UAE.
    pub base_auc: Vec<f64>,
    pub base_gauc: Vec<f64>,
    /// Per-seed fault report from the panic-isolated fan-out.
    pub faults: Vec<String>,
}

/// The γ grid the paper sweeps.
pub fn paper_gammas() -> [f32; 5] {
    [5.0, 10.0, 15.0, 20.0, 25.0]
}

/// Runs the sweep on the Product preset (as in the paper). UAE is fitted
/// once per seed; only the re-weighting changes across γ.
pub fn run_gamma_sweep(cfg: &HarnessConfig, gammas: &[f32]) -> GammaSweep {
    let data = prepare(Preset::Product, cfg);
    // seed → (base (auc, gauc), per-γ (auc, gauc))
    let fan = over_seeds_isolated(&cfg.seeds, |seed| {
        let [alpha] = AttentionMethod::Uae
            .attention_scores(&data, cfg, seed, [&data.split.train])
            .expect("scores");
        let base = crate::harness::run_model(ModelKind::DcnV2, None, &data, cfg, seed);
        let sweep: Vec<(f64, f64)> = gammas
            .iter()
            .map(|&g| {
                let w = downstream_weights(&alpha, g);
                let out = crate::harness::run_model(ModelKind::DcnV2, Some(&w), &data, cfg, seed);
                (out.result.auc, out.result.gauc)
            })
            .collect();
        ((base.result.auc, base.result.gauc), sweep)
    });
    let faults = fan.fault_report();
    let per_seed = fan.values();
    let mut points: Vec<GammaPoint> = gammas
        .iter()
        .map(|&gamma| GammaPoint {
            gamma,
            auc: vec![],
            gauc: vec![],
        })
        .collect();
    let mut base_auc = vec![];
    let mut base_gauc = vec![];
    for ((ba, bg), sweep) in &per_seed {
        base_auc.push(*ba);
        base_gauc.push(*bg);
        for (gi, &(a, g)) in sweep.iter().enumerate() {
            points[gi].auc.push(a);
            points[gi].gauc.push(g);
        }
    }
    GammaSweep {
        points,
        base_auc,
        base_gauc,
        faults,
    }
}

impl GammaSweep {
    /// Renders panels (b) and (c) as series.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&["gamma", "AUC", "GAUC"]);
        for p in &self.points {
            t.add_row(vec![
                format!("{:.0}", p.gamma),
                format!("{:.4}", mean(&p.auc)),
                format!("{:.4}", mean(&p.gauc)),
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!(
            "DCN-V2 reference: AUC {:.4}  GAUC {:.4}\n",
            mean(&self.base_auc),
            mean(&self.base_gauc)
        ));
        out
    }

    /// The best γ by AUC.
    pub fn best_gamma(&self) -> f32 {
        self.points
            .iter()
            .max_by(|a, b| mean(&a.auc).partial_cmp(&mean(&b.auc)).expect("finite"))
            .map(|p| p.gamma)
            .unwrap_or(15.0)
    }
}

/// Renders Fig. 6(a): the re-weight curves for each γ.
pub fn render_reweight_curves(gammas: &[f32], steps: usize) -> String {
    let mut header = vec!["alpha".to_string()];
    header.extend(gammas.iter().map(|g| format!("gamma={g:.0}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = TextTable::new(&header_refs);
    for i in 0..=steps {
        let a = i as f32 / steps as f32;
        let mut cells = vec![format!("{a:.2}")];
        for &g in gammas {
            cells.push(format!("{:.4}", uae_core::reweight(a, g)));
        }
        t.add_row(cells);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reweight_curves_render_all_gammas() {
        let s = render_reweight_curves(&paper_gammas(), 10);
        for g in paper_gammas() {
            assert!(s.contains(&format!("gamma={g:.0}")));
        }
        assert_eq!(s.lines().count(), 2 + 11);
    }

    #[test]
    fn gamma_sweep_structure_on_tiny_data() {
        let mut cfg = HarnessConfig::fast();
        cfg.data_scale = 0.05;
        let sweep = run_gamma_sweep(&cfg, &[5.0, 15.0]);
        assert_eq!(sweep.points.len(), 2);
        assert_eq!(sweep.points[0].auc.len(), cfg.seeds.len());
        assert!(sweep.best_gamma() == 5.0 || sweep.best_gamma() == 15.0);
        let rendered = sweep.render();
        assert!(rendered.contains("DCN-V2 reference"));
    }
}
