//! What one run prints: the gated metrics, the information record, and
//! the result line the benchmark contract asks for.

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Failed correctness checks, one line each; empty on a correct run.
    pub problems: Vec<String>,
    /// Operations the run attempted (transfers sent, or scenario runs).
    pub attempted: u64,
    /// Attempted operations that did not complete.
    pub failed: u64,
    /// End-to-end metrics (printed by untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (printed by traced runs).
    pub per_layer: Vec<Metric>,
    /// Information fields, not gated: `(key, JSON value)`.
    pub info: Vec<(String, String)>,
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Adds an information field; `json` must be a JSON value.
    pub fn note(&mut self, key: &str, json: String) {
        self.info.push((key.to_string(), json));
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The information line printed before the result.
    pub fn info_line(&self) -> String {
        let fields: Vec<String> = self.info.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{\"info\": {{{}}}}}", fields.join(", "))
    }

    /// The contract's result line: the end-to-end metrics of an untraced
    /// run, or the per-layer metrics of a traced one.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced { &self.per_layer } else { &self.end_to_end };
        let fields: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// A finite number in JSON form, with all its digits; non-finite values
/// (a metric with no samples) print as `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report { attempted: 10, failed: 1, ..Report::default() };
        r.e2e("setup_s", 0.8127, "s");
        r.layer("ledger.rejected", 0.0, "count");
        assert_eq!(
            r.result_line(false),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(r.result_line(true).contains("\"ledger.rejected\": {\"value\": 0.0,"));
        r.problem("balance not conserved".into());
        assert!(r.result_line(false).starts_with("{\"correct\": false"));
        assert_eq!(json_num(f64::NAN), "null");
    }
}
