//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use patchdb_rt::json::Json;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold, in the order they were made.
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// The metric names and units `BENCHMARK.json` declares for one mode:
/// `per_layer` for a traced run, `end_to_end` otherwise.
pub fn declared(trace: bool) -> Vec<(String, String)> {
    let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let section = if trace { "per_layer" } else { "end_to_end" };
    doc.get(section)
        .and_then(Json::as_arr)
        .expect(section)
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Json::as_str).expect(key).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

impl Report {
    /// Records one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records a failed output check; the run then reports
    /// `"correct": false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Fails unless the report holds exactly the `declared` metrics,
    /// each in its declared unit.
    pub fn check_declared(&self, declared: &[(String, String)]) -> Result<(), String> {
        let reported: Vec<(String, String)> = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_owned()))
            .collect();
        let absent = |from: &[(String, String)], within: &[(String, String)]| {
            from.iter()
                .filter(|m| !within.contains(m))
                .map(|(name, unit)| format!("{name} ({unit})"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let (missing, undeclared) = (absent(declared, &reported), absent(&reported, declared));
        if missing.is_empty() && undeclared.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "metrics differ from BENCHMARK.json: missing [{missing}], undeclared [{undeclared}]"
            ))
        }
    }

    /// Renders the result line. Fails when a metric name is illegal, is
    /// repeated, or a value is not a finite number.
    pub fn to_json(&self) -> Result<String, String> {
        let mut seen = std::collections::HashSet::new();
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !valid_name(&m.name) {
                return Err(format!("illegal metric name `{}`", m.name));
            }
            if !seen.insert(m.name.as_str()) {
                return Err(format!("metric `{}` reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric `{}` is not finite: {}", m.name, m.value));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        let correct = self.check_failures.is_empty() && self.failed == 0 && self.attempted > 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_metric_alphabet() {
        for ok in [
            "p50_ms",
            "serve.stage.queue_us",
            "nls.skip_share",
            "a-b",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "ünïcode",
            "a/b",
            "q\"",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_name_the_benchmark_declares_is_legal() {
        let spec = include_str!("../../BENCHMARK.json");
        let doc = patchdb_rt::json::Json::parse(spec).expect("BENCHMARK.json parses");
        let mut names = 0;
        for section in ["workloads", "end_to_end", "per_layer"] {
            for entry in doc.get(section).and_then(|s| s.as_arr()).expect(section) {
                let name = entry.get("name").and_then(|n| n.as_str()).unwrap();
                assert!(valid_name(name), "{section}: {name}");
                names += 1;
            }
        }
        assert!(names > 10);
    }

    #[test]
    fn reports_must_carry_exactly_the_declared_metrics() {
        let want = [("p50_ms", "ms"), ("setup_s", "s")].map(|(n, u)| (n.to_owned(), u.to_owned()));
        let mut r = Report::default();
        r.metric("p50_ms", 1.0, "ms");
        assert!(r.check_declared(&want).is_err(), "setup_s missing");
        r.metric("setup_s", 1.0, "s");
        assert_eq!(r.check_declared(&want), Ok(()));
        r.metric("extra_ms", 1.0, "ms");
        assert!(r.check_declared(&want).is_err(), "undeclared metric");
        let mut r = Report::default();
        r.metric("p50_ms", 1.0, "us");
        r.metric("setup_s", 1.0, "s");
        assert!(r.check_declared(&want).is_err(), "wrong unit");
        for trace in [false, true] {
            assert!(!declared(trace).is_empty());
        }
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("p50_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        assert!(r.to_json().unwrap().starts_with("{\"correct\": false"));
        r.failed = 0;
        r.check(false, || "digest differs".into());
        assert!(r.to_json().unwrap().starts_with("{\"correct\": false"));
    }

    #[test]
    fn bad_metrics_are_refused() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.metric("bad name", 1.0, "ms");
        assert!(r.to_json().is_err());
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.metric("x", 1.0, "ms");
        r.metric("x", 2.0, "ms");
        assert!(r.to_json().is_err());
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.metric("x", f64::NAN, "ms");
        assert!(r.to_json().is_err());
    }
}
