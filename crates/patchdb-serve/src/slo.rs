//! The SLO burn-rate engine: declared objectives evaluated over
//! multi-window burn rates with error-budget accounting.
//!
//! An SLO ("99% of identify requests under 250 ms", "99.9% of responses
//! non-5xx") turns raw latency histograms into a yes/no question an
//! operator can act on. The standard multi-window formulation compares
//! the observed bad-event fraction against the budgeted fraction over
//! two windows at once: the short window (5 m) catches a fast burn
//! before the budget is gone, the long window (1 h) confirms it is not
//! a blip. `burn_rate = bad_fraction / (1 - objective)`; a burn rate of
//! 1.0 spends the budget exactly at the rate the objective allows,
//! 14.4 exhausts a 30-day budget in 50 hours.
//!
//! The engine is fed one [`RequestRecord`](crate::telemetry::RequestRecord)
//! per finished request and keeps per-second good/bad tallies in a
//! [`SecondRing<(u64, u64)>`](patchdb_rt::obs::SecondRing) — the same
//! per-second slot ring behind the rolling windows and the tsdb — sized
//! to the longest window. Evaluation runs on the event loop's
//! once-per-second tick: it publishes `serve.slo.*` gauges (milli-units
//! — the registry stores integers) and backs `GET /debug/slo`. Like
//! every observation layer here, the engine reads outcomes and never
//! steers admission, routing, or response bytes.

use std::sync::Mutex;

use patchdb_rt::json::Json;
use patchdb_rt::obs::{self, SecondRing};

use crate::server::ServeConfig;
use crate::telemetry::RequestRecord;

/// The two burn-rate windows, short to long, in seconds.
pub(crate) const SLO_WINDOWS_S: [u64; 2] = [300, 3600];

/// Ring retention: the longest window.
const RETENTION_S: usize = 3600;

/// What a rule counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuleKind {
    /// Good when an identify request's total latency is under the
    /// threshold. Only `identify` endpoint records are counted.
    IdentifyLatency,
    /// Good when a response's status is not 5xx. Every finished request
    /// with a written status counts.
    Availability,
}

/// One declared objective.
struct Rule {
    name: &'static str,
    kind: RuleKind,
    /// Objective as a percentage in `(0, 100)`, e.g. `99.0`.
    objective_pct: f64,
    /// Latency threshold in nanoseconds (latency rules only).
    threshold_ns: Option<u64>,
}

impl Rule {
    /// Whether this record is good (`Some(true)`) or bad
    /// (`Some(false)`) for the rule, or `None` when the record is
    /// outside the rule's population.
    fn classify(&self, record: &RequestRecord) -> Option<bool> {
        match self.kind {
            RuleKind::IdentifyLatency => {
                if record.endpoint != "identify" || record.status == 0 {
                    return None;
                }
                Some(record.total_ns <= self.threshold_ns.unwrap_or(u64::MAX))
            }
            RuleKind::Availability => {
                if record.status == 0 {
                    return None; // client vanished before a status existed
                }
                Some(record.status < 500)
            }
        }
    }
}

/// Total `(good, bad)` over the trailing window `(now_s - window_s, now_s]`.
fn totals(ring: &SecondRing<(u64, u64)>, now_s: u64, window_s: u64) -> (u64, u64) {
    ring.window(now_s, window_s).fold((0, 0), |(good, bad), (_, &(g, b))| (good + g, bad + b))
}

/// Burn rate for the observed counts against an objective: the
/// bad-event fraction divided by the budgeted fraction. `0.0` with no
/// events (no traffic burns no budget).
fn burn_rate(good: u64, bad: u64, objective_pct: f64) -> f64 {
    let total = good + bad;
    if total == 0 {
        return 0.0;
    }
    let bad_frac = bad as f64 / total as f64;
    let budget_frac = (1.0 - objective_pct / 100.0).max(1e-9);
    bad_frac / budget_frac
}

/// The engine: declared rules plus their tally rings.
pub(crate) struct SloEngine {
    rules: Vec<Rule>,
    /// One `(good, bad)` ring per rule, same order; a single lock — the
    /// per-request critical section is one integer add per rule.
    rings: Mutex<Vec<SecondRing<(u64, u64)>>>,
}

impl SloEngine {
    /// Builds the declared objectives from the server config.
    pub fn new(config: &ServeConfig) -> SloEngine {
        let rules = vec![
            Rule {
                name: "identify_latency_p99",
                kind: RuleKind::IdentifyLatency,
                objective_pct: 99.0,
                threshold_ns: Some(config.slo_identify_p99_ms.saturating_mul(1_000_000)),
            },
            Rule {
                name: "availability",
                kind: RuleKind::Availability,
                objective_pct: config.slo_availability_pct,
                threshold_ns: None,
            },
        ];
        let rings = rules.iter().map(|_| SecondRing::new(RETENTION_S)).collect();
        SloEngine { rules, rings: Mutex::new(rings) }
    }

    /// Feeds one finished request into every rule it belongs to.
    pub fn observe(&self, record: &RequestRecord) {
        self.observe_at(record, obs::process_second());
    }

    /// [`observe`](Self::observe) at an explicit second, for tests.
    pub fn observe_at(&self, record: &RequestRecord, now_s: u64) {
        let mut rings = self.rings.lock().unwrap();
        for (rule, ring) in self.rules.iter().zip(rings.iter_mut()) {
            let Some(good) = rule.classify(record) else { continue };
            if let Some((g, b)) = ring.slot_mut(now_s) {
                if good { *g += 1 } else { *b += 1 }
            }
        }
    }

    /// Publishes `serve.slo.*` gauges for every rule and window. Gauges
    /// are integers, so rates are published in milli-units:
    /// `burn_5m_milli` of 1000 is a burn rate of exactly 1.0.
    pub fn publish_gauges(&self, now_s: u64) {
        let rings = self.rings.lock().unwrap();
        for (rule, ring) in self.rules.iter().zip(rings.iter()) {
            for &window_s in &SLO_WINDOWS_S {
                let (good, bad) = totals(ring, now_s, window_s);
                let burn = burn_rate(good, bad, rule.objective_pct);
                let label = if window_s == 300 { "5m" } else { "1h" };
                obs::gauge_set(
                    &format!("serve.slo.{}.burn_{}_milli", rule.name, label),
                    (burn * 1000.0).round() as i64,
                );
            }
            let (good, bad) = totals(ring, now_s, SLO_WINDOWS_S[1]);
            let remaining = budget_remaining_pct(good, bad, rule.objective_pct);
            obs::gauge_set(
                &format!("serve.slo.{}.budget_milli_pct", rule.name),
                (remaining * 1000.0).round() as i64,
            );
        }
    }

    /// The `GET /debug/slo` document.
    pub fn debug_json(&self, now_s: u64) -> Json {
        let rings = self.rings.lock().unwrap();
        let rules = self
            .rules
            .iter()
            .zip(rings.iter())
            .map(|(rule, ring)| {
                let windows = SLO_WINDOWS_S
                    .iter()
                    .map(|&window_s| {
                        let (good, bad) = totals(ring, now_s, window_s);
                        Json::Obj(vec![
                            ("window_s".into(), Json::Num(window_s as f64)),
                            ("good".into(), Json::Num(good as f64)),
                            ("bad".into(), Json::Num(bad as f64)),
                            (
                                "burn_rate".into(),
                                Json::Num(burn_rate(good, bad, rule.objective_pct)),
                            ),
                        ])
                    })
                    .collect();
                let (good, bad) = totals(ring, now_s, SLO_WINDOWS_S[1]);
                let mut fields = vec![
                    ("name".into(), Json::Str(rule.name.into())),
                    (
                        "kind".into(),
                        Json::Str(
                            match rule.kind {
                                RuleKind::IdentifyLatency => "latency",
                                RuleKind::Availability => "availability",
                            }
                            .into(),
                        ),
                    ),
                    ("objective_pct".into(), Json::Num(rule.objective_pct)),
                ];
                if let Some(ns) = rule.threshold_ns {
                    fields.push(("threshold_ms".into(), Json::Num(ns as f64 / 1e6)));
                }
                fields.push(("windows".into(), Json::Arr(windows)));
                fields.push((
                    "budget_remaining_pct".into(),
                    Json::Num(budget_remaining_pct(good, bad, rule.objective_pct)),
                ));
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("patchdb-slo/v1".into())),
            ("now_s".into(), Json::Num(now_s as f64)),
            ("rules".into(), Json::Arr(rules)),
        ])
    }
}

/// Percent of the error budget left over the long window, clamped to
/// `[0, 100]`: 100 with no bad events, 0 once the observed bad fraction
/// meets or exceeds the budgeted fraction.
fn budget_remaining_pct(good: u64, bad: u64, objective_pct: f64) -> f64 {
    (100.0 - 100.0 * burn_rate(good, bad, objective_pct)).clamp(0.0, 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::RequestRecord;

    fn identify(total_ns: u64, status: u16) -> RequestRecord {
        let mut r = RequestRecord::admitted(1, 0);
        r.endpoint = "identify";
        r.status = status;
        r.total_ns = total_ns;
        r
    }

    #[test]
    fn burn_rate_math() {
        // 1% bad against a 99% objective: burning exactly at budget.
        assert!((burn_rate(99, 1, 99.0) - 1.0).abs() < 1e-9);
        // 10% bad against 99%: 10x burn.
        assert!((burn_rate(90, 10, 99.0) - 10.0).abs() < 1e-9);
        assert_eq!(burn_rate(0, 0, 99.0), 0.0, "no traffic burns nothing");
        assert_eq!(budget_remaining_pct(100, 0, 99.0), 100.0);
        assert_eq!(budget_remaining_pct(0, 100, 99.0), 0.0, "clamped at zero");
    }

    #[test]
    fn rules_classify_latency_and_availability() {
        let config = ServeConfig::default().slo_identify_p99_ms(1); // 1 ms
        let engine = SloEngine::new(&config);
        engine.observe_at(&identify(500_000, 200), 100); // fast: good both
        engine.observe_at(&identify(5_000_000, 200), 100); // slow: latency-bad
        engine.observe_at(&identify(500_000, 503), 100); // 5xx: avail-bad
        let mut other = RequestRecord::admitted(9, 0);
        other.endpoint = "healthz";
        other.status = 200;
        engine.observe_at(&other, 100); // not identify: avail-only
        let mut gone = RequestRecord::admitted(10, 0);
        gone.status = 0;
        engine.observe_at(&gone, 100); // no status: counted nowhere

        let doc = engine.debug_json(100);
        let rules = doc.get("rules").and_then(|r| r.as_arr()).unwrap();
        let latency = &rules[0];
        let windows = latency.get("windows").and_then(|w| w.as_arr()).unwrap();
        assert_eq!(windows[0].get("good").and_then(Json::as_f64), Some(2.0));
        assert_eq!(windows[0].get("bad").and_then(Json::as_f64), Some(1.0));
        assert_eq!(latency.get("threshold_ms").and_then(Json::as_f64), Some(1.0));
        let avail = &rules[1];
        let windows = avail.get("windows").and_then(|w| w.as_arr()).unwrap();
        assert_eq!(windows[0].get("good").and_then(Json::as_f64), Some(3.0));
        assert_eq!(windows[0].get("bad").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("patchdb-slo/v1"));
    }

    #[test]
    fn gauges_publish_in_milli_units() {
        // Gauges are last-write-wins and the serve.slo.* names are not
        // touched by any other test, so no registry reset is needed
        // (resetting would race parallel tests on the global registry).
        // The registry only records while enabled — normally done by
        // Server::start, here by hand since no server runs.
        patchdb_rt::obs::set_enabled(true);
        let engine = SloEngine::new(&ServeConfig::default().slo_identify_p99_ms(1));
        // 90 good / 10 bad latency events: burn 10.0 → 10_000 milli.
        for _ in 0..90 {
            engine.observe_at(&identify(1_000, 200), 50);
        }
        for _ in 0..10 {
            engine.observe_at(&identify(5_000_000, 200), 50);
        }
        engine.publish_gauges(50);
        let snap = patchdb_rt::obs::metrics_snapshot();
        let gauge = |name: &str| {
            snap.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
        };
        assert_eq!(gauge("serve.slo.identify_latency_p99.burn_5m_milli"), Some(10_000));
        assert_eq!(gauge("serve.slo.identify_latency_p99.burn_1h_milli"), Some(10_000));
        assert_eq!(gauge("serve.slo.identify_latency_p99.budget_milli_pct"), Some(0));
        assert_eq!(gauge("serve.slo.availability.burn_5m_milli"), Some(0));
        assert_eq!(gauge("serve.slo.availability.budget_milli_pct"), Some(100_000));
    }
}
