//! Renders a span tree as Chrome trace-event JSON — the
//! `{"traceEvents": [...]}` format `chrome://tracing` and Perfetto open
//! directly; `patchdb build --perfetto` emits it after a traced build.
//!
//! A [`super::TraceReport`] carries durations only (it deliberately
//! holds no wall-clock timestamps), so [`trace_report_to_chrome`]
//! synthesizes a timeline: roots are laid end to end and children packed
//! sequentially from their parent's start, as nested `ph:"B"`/`"E"`
//! pairs on the one track [`SPAN_TREE_TID`]. Shapes and relative widths
//! are faithful; absolute positions are not wall-clock.

use super::{SpanReport, TraceReport};
use crate::json::Json;

/// The `tid` of the synthesized span-tree track. The timeline is not
/// one real thread's, so it renders on a fixed id far above any real
/// thread number rather than on the exporting thread's.
pub const SPAN_TREE_TID: u64 = 1_000_000;

fn event(ph: &str, name: &str, ts_us: f64) -> Json {
    Json::Obj(vec![
        ("name".to_owned(), Json::Str(name.to_owned())),
        ("ph".to_owned(), Json::Str(ph.to_owned())),
        ("ts".to_owned(), Json::Num(ts_us)),
        ("pid".to_owned(), Json::Num(f64::from(std::process::id()))),
        ("tid".to_owned(), Json::Num(SPAN_TREE_TID as f64)),
    ])
}

/// Emits one span and its children as nested `B`/`E` pairs starting at
/// `start_us`; returns the span's synthesized end.
fn emit_span(span: &SpanReport, start_us: f64, events: &mut Vec<Json>) -> f64 {
    events.push(event("B", &span.name, start_us));
    let mut cursor = start_us;
    for child in &span.children {
        cursor = emit_span(child, cursor, events);
    }
    // A parent's recorded time can exceed its children's sum (self
    // time); a parent still open at snapshot time reports ns == 0, so
    // its children's extent is the only width it has.
    let end = (start_us + span.ns as f64 / 1_000.0).max(cursor);
    events.push(event("E", &span.name, end));
    end
}

/// Renders a span forest as a trace-event document on [`SPAN_TREE_TID`]
/// with a synthesized sequential timeline (see the module docs).
pub fn trace_report_to_chrome(report: &TraceReport) -> Json {
    let mut events = Vec::new();
    let mut cursor = 0.0;
    for root in &report.spans {
        cursor = emit_span(root, cursor, &mut events);
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walks the events of one tid asserting B/E balance, nesting, and
    /// non-decreasing ts; returns the number of B/E pairs seen.
    fn assert_balanced(events: &[Json], tid: u64) -> usize {
        let mut stack: Vec<String> = Vec::new();
        let mut pairs = 0;
        let mut last_ts = f64::MIN;
        for e in events {
            if e.get("tid").and_then(Json::as_f64) != Some(tid as f64) {
                continue;
            }
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            assert!(ts >= last_ts, "ts regressed on tid {tid}");
            last_ts = ts;
            let name = e.get("name").and_then(Json::as_str).unwrap().to_owned();
            match e.get("ph").and_then(Json::as_str).unwrap() {
                "B" => stack.push(name),
                "E" => {
                    assert_eq!(stack.pop().as_deref(), Some(name.as_str()), "bad nesting");
                    pairs += 1;
                }
                _ => {}
            }
        }
        assert!(stack.is_empty(), "unbalanced B on tid {tid}: {stack:?}");
        pairs
    }

    #[test]
    fn span_tree_synthesizes_a_nested_sequential_timeline() {
        let report = TraceReport {
            spans: vec![SpanReport {
                name: "build".into(),
                ns: 10_000,
                children: vec![
                    SpanReport { name: "mine".into(), ns: 4_000, children: vec![] },
                    SpanReport { name: "augment".into(), ns: 3_000, children: vec![] },
                ],
            }],
            counters: vec![],
            histograms: vec![],
        };
        let doc = trace_report_to_chrome(&report);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(assert_balanced(events, SPAN_TREE_TID), 3);
        // Children pack sequentially: mine [0,4), augment [4,7), and the
        // parent's own 10us duration wins over the children's extent.
        let find = |name: &str, ph: &str| {
            events
                .iter()
                .find(|e| {
                    e.get("name").and_then(Json::as_str) == Some(name)
                        && e.get("ph").and_then(Json::as_str) == Some(ph)
                })
                .and_then(|e| e.get("ts").and_then(Json::as_f64))
                .unwrap()
        };
        assert_eq!(find("mine", "B"), 0.0);
        assert_eq!(find("mine", "E"), 4.0);
        assert_eq!(find("augment", "B"), 4.0);
        assert_eq!(find("augment", "E"), 7.0);
        assert_eq!(find("build", "E"), 10.0);
    }

    #[test]
    fn open_parents_inherit_their_childrens_extent() {
        // A span still open at snapshot time has ns == 0; its E event
        // must not land before its children's.
        let report = TraceReport {
            spans: vec![SpanReport {
                name: "open".into(),
                ns: 0,
                children: vec![SpanReport {
                    name: "done".into(),
                    ns: 5_000,
                    children: vec![],
                }],
            }],
            counters: vec![],
            histograms: vec![],
        };
        let doc = trace_report_to_chrome(&report);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_balanced(events, SPAN_TREE_TID);
    }
}
