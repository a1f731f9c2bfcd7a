//! `--compare A B`: reads two directories of run reports (the lines
//! `--out` writes) and gives each (workload, metric) pair a verdict.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Json};
use crate::stats::{median, quartiles, relative_iqr, verdict, win_fraction, Better};

/// Per (workload, metric): value by seed.
type Runs = BTreeMap<(String, String), BTreeMap<u64, f64>>;

fn read_dir(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if !matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("json" | "jsonl")
        ) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let r = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            let (Some(w), Some(seed)) = (
                r.get("workload").and_then(Json::as_str),
                r.get("seed").and_then(Json::as_f64),
            ) else {
                continue;
            };
            for key in ["metrics", "extra"] {
                for (name, m) in r.get(key).map(Json::as_obj).unwrap_or(&[]) {
                    if let Some(v) = m.get("value").and_then(Json::as_f64) {
                        runs.entry((w.to_string(), name.clone()))
                            .or_default()
                            .insert(seed as u64, v);
                    }
                }
            }
        }
    }
    Ok(runs)
}

/// Direction and bound of every metric `BENCHMARK.json` declares.
fn declared(contract: &Json) -> BTreeMap<String, (Better, Option<f64>)> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in contract.get(key).map(Json::as_arr).unwrap_or(&[]) {
            let Some(name) = m.get("name").and_then(Json::as_str) else {
                continue;
            };
            let better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            out.insert(
                name.to_string(),
                (better, m.get("bound").and_then(Json::as_f64)),
            );
        }
    }
    out
}

/// The comparison table of parent runs `a` against change runs `b`.
pub fn compare(a: &Path, b: &Path, contract: &Json) -> Result<String, String> {
    let (ra, rb) = (read_dir(a)?, read_dir(b)?);
    let declared = declared(contract);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<32} {:>12} {:>25} {:>8} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1, q3]",
        "A iqr",
        "B median",
        "B [q1, q3]",
        "Δ",
        "wins"
    );
    for ((w, m), va) in &ra {
        let Some(vb) = rb.get(&(w.clone(), m.clone())) else {
            continue;
        };
        let a: Vec<f64> = va.values().copied().collect();
        let b: Vec<f64> = vb.values().copied().collect();
        let pairs: Vec<(f64, f64)> = va
            .iter()
            .filter_map(|(seed, &x)| vb.get(seed).map(|&y| (x, y)))
            .collect();
        let (ma, mb) = (median(&a), median(&b));
        let (qa, qb) = (quartiles(&a), quartiles(&b));
        let (wins, v) = match declared.get(m) {
            Some(&(better, bound)) => (
                format!("{:.2}", win_fraction(&pairs, better)),
                verdict(&a, &b, &pairs, better, bound).as_str(),
            ),
            None => ("-".into(), "-"),
        };
        let _ = writeln!(
            out,
            "{w:<12} {m:<32} {ma:>12.4} {:>25} {:>7.2}% {mb:>12.4} {:>25} {:>7.2}% {wins:>6}  {v}",
            format!("[{:.4}, {:.4}]", qa[0], qa[2]),
            100.0 * relative_iqr(&a),
            format!("[{:.4}, {:.4}]", qb[0], qb[2]),
            100.0 * (mb - ma) / ma.abs(),
        );
    }
    Ok(out)
}
