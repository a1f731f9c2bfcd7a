//! A workload's outcome, how it is printed, and the check that it carries
//! exactly the metrics `BENCHMARK.json` names.

use std::fmt::Write as _;

use crate::json::{self, Json};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the run reports: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Workload-specific numbers beside them (printed and written with
    /// `--out`, not part of the result line's metric set).
    pub extra: Vec<Metric>,
    /// Why the run is not correct; empty when every check passed.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &str) -> Outcome {
        Outcome {
            workload: workload.into(),
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a failed check.
    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    /// Records `Err` as a failed check and yields the `Ok` value.
    pub fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.problem(e);
                None
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// `workload metric value unit`, one line per metric.
    pub fn lines(&self) -> String {
        let mut s = String::new();
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(s, "{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        s
    }

    /// The report line `--out` appends and `--compare` reads.
    pub fn report_json(&self, trace: bool, env: &[(String, String)]) -> String {
        let metrics = |ms: &[Metric]| -> String {
            let fields: Vec<String> = ms
                .iter()
                .map(|m| {
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}}}",
                        json::quote(&m.name),
                        json::num(m.value),
                        json::quote(m.unit)
                    )
                })
                .collect();
            format!("{{{}}}", fields.join(", "))
        };
        let env: Vec<String> = env
            .iter()
            .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v)))
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| json::quote(p)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {trace}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"extra\": {}, \
             \"env\": {{{}}}, \"problems\": [{}]}}",
            json::quote(&self.workload),
            self.seed,
            self.correct(),
            self.attempted,
            self.failed,
            metrics(&self.metrics),
            metrics(&self.extra),
            env.join(", "),
            problems.join(", "),
        )
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`. Several outcomes (`--workload all`) merge, their
/// metrics named `workload/metric`, or `workload@seed/metric` over several
/// seeds (`--runs`).
pub fn result_line(outcomes: &[Outcome]) -> String {
    let single = outcomes.len() == 1;
    let seeds = outcomes.iter().any(|o| o.seed != outcomes[0].seed);
    let mut fields = Vec::new();
    for o in outcomes {
        for m in &o.metrics {
            let name = match (single, seeds) {
                (true, _) => m.name.clone(),
                (false, false) => format!("{}/{}", o.workload, m.name),
                (false, true) => format!("{}@{}/{}", o.workload, o.seed, m.name),
            };
            fields.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&name),
                json::num(m.value),
                json::quote(m.unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.iter().all(Outcome::correct),
        outcomes.iter().map(|o| o.attempted).sum::<u64>(),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        fields.join(", ")
    )
}

/// The metric names and units `BENCHMARK.json` lists under `key`
/// (`end_to_end` or `per_layer`).
pub fn declared_metrics(contract: &Json, key: &str) -> Vec<(String, String)> {
    contract
        .get(key)
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// Checks that `o` reports exactly the declared metrics, each once, with
/// the declared unit and a finite value.
pub fn check_declared(o: &mut Outcome, declared: &[(String, String)]) {
    let mut problems = Vec::new();
    for (name, unit) in declared {
        match o
            .metrics
            .iter()
            .filter(|m| &m.name == name)
            .collect::<Vec<_>>()[..]
        {
            [m] if m.unit != unit => problems.push(format!(
                "metric {name}: unit {} where BENCHMARK.json says {unit}",
                m.unit
            )),
            [m] if !m.value.is_finite() => {
                problems.push(format!("metric {name} is not finite ({})", m.value))
            }
            [_] => {}
            [] => problems.push(format!("metric {name} is missing")),
            _ => problems.push(format!("metric {name} is reported twice")),
        }
    }
    for m in &o.metrics {
        if !declared.iter().any(|(n, _)| n == &m.name) {
            problems.push(format!("metric {} is not in BENCHMARK.json", m.name));
        }
    }
    o.problems.extend(problems);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_check_catches_missing_extra_and_non_finite_metrics() {
        let contract = json::parse(
            r#"{"end_to_end": [{"name": "a", "unit": "ms"}, {"name": "b", "unit": "s"}]}"#,
        )
        .unwrap();
        let declared = declared_metrics(&contract, "end_to_end");
        let mut ok = Outcome::new("w");
        ok.attempted = 1;
        ok.metric("a", 1.0, "ms");
        ok.metric("b", 2.0, "s");
        check_declared(&mut ok, &declared);
        assert!(ok.correct(), "{:?}", ok.problems);

        let mut bad = Outcome::new("w");
        bad.attempted = 1;
        bad.metric("a", f64::NAN, "ms");
        bad.metric("c", 1.0, "ms");
        check_declared(&mut bad, &declared);
        assert_eq!(bad.problems.len(), 3, "{:?}", bad.problems);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::new("w");
        o.attempted = 3;
        o.metric("a", 1.25, "ms");
        let v = json::parse(&result_line(&[o])).unwrap();
        let keys: Vec<&str> = v.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("metrics").unwrap().get("a").unwrap().get("value"),
            Some(&Json::Num(1.25))
        );
    }
}
