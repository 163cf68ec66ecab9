//! CI guard for the machine-readable report artifacts: a generic
//! validator that parses a report with `patchdb_rt::json`, dispatches on
//! its top-level `schema` tag, and schema-checks it.
//!
//! * `patchdb-bench-nls/v2` (BENCH_nls.json) — a non-empty `results`
//!   array, each entry carrying `name`/`median_ns`, plus the `index`
//!   block: a non-empty `modes` array whose entries carry a string `mode`/`shape`
//!   and positive `build_median_ns`/`query_median_ns`/`speedup_vs_seed`,
//!   at least one mode entry at the largest standard shape (the last
//!   `sizes` pair) and one at the report's `xl_shape`, and headlines
//!   that match the rows: `index_speedup_largest` and `xl_speedup` each
//!   equal the best `speedup_vs_seed` at their shape.
//! * `patchdb-trace/v1` (TRACE_build.json) — spans nest (every node is
//!   an object with `name`/`ns`/`children`), durations are non-negative,
//!   counter names are unique with non-negative integer values, and each
//!   histogram's `count` equals the sum of its buckets.
//! * `patchdb-serve/v2` (BENCH_serve.json) — a non-empty `results`
//!   array, each entry with a positive integer `workers`, non-negative
//!   `requests`/`errors`/`throughput_rps`, latency quantiles with
//!   `p50_ns <= p99_ns`, (when present) server-side windowed quantiles
//!   with `server_p50_ns <= server_p99_ns`, a transport `mode`
//!   per row (`close` | `keepalive` | `pipelined`), a positive
//!   concurrent-connection count, and at least one `close` and one
//!   `keepalive` row so the keep-alive speedup is always computable.
//!   When the report carries a `lifecycle` block (snapshot boot vs
//!   pipeline boot, live swap quantiles), its timings must be positive,
//!   `swap_p50_ns <= swap_p99_ns`, and `traffic_errors` must be zero.
//! * `*.jsonl` access logs (`patchdb serve --access-log`) — dispatched
//!   on the file extension, not a schema tag: every line is a JSON
//!   object, `ts_ms` is non-decreasing in file order, request `id`s are
//!   unique, and each line's six stage durations sum to at most its
//!   `total_ns`. When a rotated sibling `<path>.1` exists (from
//!   `--access-log-max-mb`), its lines are prepended and the pair is
//!   validated as one stream — rotation must not break monotonicity or
//!   id uniqueness.
//! * `*.folded` profiles (`patchdb profile`, `/debug/profile`) — also
//!   extension-dispatched: non-empty, every line is `path count` with a
//!   `;`-joined non-empty frame path and a positive integer count.
//! * `*.snapshot` binary indexes (`patchdb snapshot`) — also
//!   extension-dispatched (the file is binary, never UTF-8) and decoded
//!   in full by `patchdb_serve::Snapshot::decode`, the loader
//!   `serve --snapshot` uses: `patchdb_serve::Snapshot::SCHEMA` only
//!   (a file of an older layout fails with the rebuild message), a
//!   valid checksum, and every section, count and model state intact.
//! * `patchdb-profile/v1` (`GET /debug/profile`) — positive `hz`,
//!   non-negative `samples`, and a `folded` field passing the same
//!   folded-stacks line checks.
//! * `patchdb-trace-request/v2` (`GET /debug/trace/<id>`) — a string
//!   `trace_id` matching the embedded request record's `trace`, a
//!   boolean `supplied`, and a `request` object whose six stage
//!   durations are non-negative and sum to at most `total_ns`.
//! * `patchdb-timeseries/v1` (`GET /debug/timeseries`) — a string
//!   `metric`, a positive `retention_s`, and a `points` array of
//!   `{s, v}` samples with strictly increasing second stamps, none of
//!   them in the future of `now_s`.
//! * `patchdb-slo/v1` (`GET /debug/slo`) — a non-empty `rules` array;
//!   each rule carries a `name`, a known `kind`, an `objective_pct` in
//!   (0, 100), a `budget_remaining_pct` in [0, 100], and per-window
//!   entries with positive `window_s`, non-negative good/bad counts,
//!   and a non-negative `burn_rate`.
//! * Chrome trace-event documents (`patchdb build --perfetto`) —
//!   dispatched on a top-level `traceEvents` array rather than a schema
//!   tag: every event carries `name`/`ph`/`ts`/`pid`/`tid`, and per tid
//!   the `B`/`E` events balance, nest, and carry non-decreasing
//!   timestamps — the document opens clean in Perfetto.
//!
//! Retired report formats no producer writes any more —
//! `patchdb-serve/v1`, `patchdb-bench-nls/v1`, and the untagged
//! pre-schema bench report — are refused with the command that
//! regenerates them, as an older snapshot file is. Exits non-zero
//! with a diagnostic on any violation.

use std::process::ExitCode;

use patchdb_rt::json::Json;
use patchdb_serve::Snapshot;

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: check-bench-json <path>");
        return ExitCode::FAILURE;
    };
    // Binary snapshots dispatch on extension before any UTF-8 read.
    if path.ends_with(".snapshot") {
        return match check_snapshot(&path) {
            Ok(summary) => {
                println!("check-bench-json: {path} ok ({summary})");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("check-bench-json: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check-bench-json: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if path.ends_with(".jsonl") {
        // A rotated sibling (`--access-log-max-mb`) holds the older
        // lines: validate the pair as the single stream it logically is.
        let rotated = std::fs::read_to_string(format!("{path}.1")).ok();
        let full = match &rotated {
            Some(older) => format!("{older}{text}"),
            None => text,
        };
        return match check_access_log(&full) {
            Ok(summary) => {
                let suffix = if rotated.is_some() { ", rotated pair" } else { "" };
                println!("check-bench-json: {path} ok ({summary}{suffix})");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("check-bench-json: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if path.ends_with(".folded") {
        return match check_folded(&text) {
            Ok(summary) => {
                println!("check-bench-json: {path} ok ({summary})");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("check-bench-json: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let json = match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("check-bench-json: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check_document(&json) {
        Ok(summary) => {
            println!("check-bench-json: {path} ok ({summary})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("check-bench-json: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Checks a JSON report by its `schema` tag.
fn check_document(json: &Json) -> Result<String, String> {
    let retired = |what: &str, bench: &str| {
        Err(format!(
            "{what} is no longer read; regenerate with \
             `cargo bench -p patchdb-bench --bench {bench}`"
        ))
    };
    match json.get("schema").and_then(Json::as_str).unwrap_or("") {
        "patchdb-trace/v1" => check_trace(json),
        "patchdb-serve/v2" => check_serve_v2(json),
        "patchdb-profile/v1" => check_profile(json),
        "patchdb-trace-request/v2" => check_trace_request(json),
        "patchdb-timeseries/v1" => check_timeseries(json),
        "patchdb-slo/v1" => check_slo(json),
        "patchdb-bench-nls/v2" => check_bench_v2(json),
        // Chrome trace-event documents carry no schema tag; dispatch on
        // their defining member.
        "" if json.get("traceEvents").is_some() => check_trace_events(json),
        "patchdb-serve/v1" => retired("patchdb-serve/v1", "perf_serve"),
        "patchdb-bench-nls/v1" => retired("patchdb-bench-nls/v1", "perf_nls_scale"),
        "" => retired("an untagged bench report", "perf_nls_scale"),
        other => Err(format!("unknown schema tag {other:?}")),
    }
}

/// A binary index (`patchdb snapshot`) — extension-dispatched, and
/// decoded by the server's own [`Snapshot::decode`], so the validator
/// accepts exactly what `serve --snapshot` boots from: magic, schema,
/// checksum, every section and count, and the model state.
fn check_snapshot(path: &str) -> Result<String, String> {
    let snapshot = Snapshot::read_from(path).map_err(|e| format!("cannot read: {e}"))?;
    let index = snapshot.decode().map_err(|e| e.to_string())?;
    Ok(format!(
        "{}, {} bytes, {} signatures",
        Snapshot::SCHEMA,
        snapshot.len(),
        index.signature_count()
    ))
}

/// The `results` rows every bench report carries; the base of
/// [`check_bench_v2`].
fn check_bench(json: &Json) -> Result<String, String> {
    let results = json
        .get("results")
        .and_then(|r| r.as_arr())
        .ok_or("no `results` array")?;
    if results.is_empty() {
        return Err("empty `results` array".into());
    }
    for (i, r) in results.iter().enumerate() {
        if r.get("name").is_none() || r.get("median_ns").and_then(Json::as_f64).is_none() {
            return Err(format!("result #{i} lacks name/median_ns"));
        }
    }
    Ok(format!("{} results", results.len()))
}

/// The v2 bench report: the [`check_bench`] rows, plus the `index` block
/// recording the per-mode build/query medians and seed-relative query
/// speedups at the largest standard shape and the XL size class, with
/// the two headline speedups cross-checked against those rows.
fn check_bench_v2(json: &Json) -> Result<String, String> {
    let base = check_bench(json)?;
    let index = json.get("index").ok_or("no `index` object")?;
    let modes = index.get("modes").and_then(|m| m.as_arr()).ok_or("no `index.modes` array")?;
    if modes.is_empty() {
        return Err("empty `index.modes` array".into());
    }
    let largest = json
        .get("sizes")
        .and_then(|s| s.as_arr())
        .and_then(|s| s.last())
        .and_then(|pair| match pair.as_arr()? {
            [m, n] => Some(format!("{}x{}", m.as_f64()?, n.as_f64()?)),
            _ => None,
        })
        .ok_or("`sizes` lacks a final numeric `[m, n]` pair")?;
    let xl_shape = index
        .get("xl_shape")
        .and_then(Json::as_str)
        .ok_or("`index` lacks a string `xl_shape`")?;
    // (headline field, its shape, rows at that shape, best speedup there)
    let mut headlines = [
        ("index_speedup_largest", largest.as_str(), 0usize, 0.0f64),
        ("xl_speedup", xl_shape, 0, 0.0),
    ];
    for (i, m) in modes.iter().enumerate() {
        let at = format!("index.modes[{i}]");
        for field in ["mode", "shape"] {
            if m.get(field).and_then(Json::as_str).is_none() {
                return Err(format!("{at} lacks a string `{field}`"));
            }
        }
        for field in ["build_median_ns", "query_median_ns", "speedup_vs_seed"] {
            let v = m
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("{at} lacks a numeric `{field}`"))?;
            if !(v > 0.0) {
                return Err(format!("{at}: `{field}` = {v} is not positive"));
            }
        }
        let speedup = m.get("speedup_vs_seed").and_then(Json::as_f64).unwrap_or(0.0);
        for (_, shape, rows, best) in headlines.iter_mut() {
            if m.get("shape").and_then(Json::as_str) == Some(*shape) {
                *rows += 1;
                *best = best.max(speedup);
            }
        }
    }
    for (field, shape, rows, best) in headlines {
        if rows == 0 {
            return Err(format!("no `index.modes` entry measured at {shape:?} (for `{field}`)"));
        }
        let v = index
            .get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("`index` lacks a numeric `{field}`"))?;
        if v != best {
            return Err(format!(
                "`{field}` = {v} but the best `speedup_vs_seed` at {shape} is {best}"
            ));
        }
    }
    let [(_, _, _, headline), (_, _, xl_rows, _)] = headlines;
    Ok(format!(
        "{base}, {} index modes ({xl_rows} at xl {xl_shape}), best {headline:.1}x",
        modes.len()
    ))
}

/// The per-row checks of a serve report; the base of [`check_serve_v2`].
fn check_serve(json: &Json) -> Result<String, String> {
    let results = json
        .get("results")
        .and_then(|r| r.as_arr())
        .ok_or("no `results` array")?;
    if results.is_empty() {
        return Err("empty `results` array".into());
    }
    for (i, r) in results.iter().enumerate() {
        let at = format!("result #{i}");
        let num = |field: &str| {
            r.get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("{at} lacks a numeric `{field}`"))
        };
        let workers = num("workers")?;
        if !(workers >= 1.0 && workers.fract() == 0.0) {
            return Err(format!("{at}: workers = {workers} is not a positive integer"));
        }
        for field in ["requests", "errors", "throughput_rps", "p50_ns", "p99_ns"] {
            if num(field)? < 0.0 {
                return Err(format!("{at}: `{field}` is negative"));
            }
        }
        if num("p50_ns")? > num("p99_ns")? {
            return Err(format!("{at}: p50_ns exceeds p99_ns"));
        }
        // Server-side windowed quantiles are optional per row; validate
        // them when a result carries them.
        if r.get("server_p50_ns").is_some() || r.get("server_p99_ns").is_some() {
            for field in ["server_p50_ns", "server_p99_ns"] {
                if num(field)? < 0.0 {
                    return Err(format!("{at}: `{field}` is negative"));
                }
            }
            if num("server_p50_ns")? > num("server_p99_ns")? {
                return Err(format!("{at}: server_p50_ns exceeds server_p99_ns"));
            }
        }
    }
    Ok(format!("{} serve configurations", results.len()))
}

/// The v2 serve report: every [`check_serve`] row check, plus the transport mode
/// and connection count each row was driven with, and enough mode
/// coverage (≥1 `close`, ≥1 `keepalive` row) that the keep-alive
/// speedup the report exists to document is actually computable.
fn check_serve_v2(json: &Json) -> Result<String, String> {
    let base = check_serve(json)?;
    let results = json
        .get("results")
        .and_then(|r| r.as_arr())
        .ok_or("no `results` array")?;
    let mut close_rows = 0usize;
    let mut keepalive_rows = 0usize;
    for (i, r) in results.iter().enumerate() {
        let at = format!("result #{i}");
        let mode = r
            .get("mode")
            .and_then(Json::as_str)
            .ok_or(format!("{at} lacks a string `mode`"))?;
        match mode {
            "close" => close_rows += 1,
            "keepalive" => keepalive_rows += 1,
            "pipelined" => {}
            other => return Err(format!("{at}: unknown mode {other:?}")),
        }
        let connections = r
            .get("connections")
            .and_then(Json::as_f64)
            .ok_or(format!("{at} lacks a numeric `connections`"))?;
        if !(connections >= 1.0) {
            return Err(format!("{at}: connections = {connections} is not positive"));
        }
    }
    if close_rows == 0 || keepalive_rows == 0 {
        return Err(format!(
            "mode coverage too thin: {close_rows} close rows, {keepalive_rows} \
             keepalive rows (need >= 1 of each)"
        ));
    }
    // The lifecycle block is newer than the schema tag; validate it
    // when the report carries one.
    let mut suffix = String::new();
    if let Some(lifecycle) = json.get("lifecycle") {
        let num = |field: &str| {
            lifecycle
                .get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("`lifecycle` lacks a numeric `{field}`"))
        };
        for field in ["boot_build_ns", "boot_snapshot_ns", "snapshot_bytes", "swaps"] {
            if !(num(field)? > 0.0) {
                return Err(format!("`lifecycle.{field}` is not positive"));
            }
        }
        if num("swap_p50_ns")? > num("swap_p99_ns")? {
            return Err("`lifecycle`: swap_p50_ns exceeds swap_p99_ns".into());
        }
        if num("traffic_errors")? != 0.0 {
            return Err("`lifecycle`: traffic_errors is not zero".into());
        }
        suffix = format!(", {} lifecycle swaps", num("swaps")?);
    }
    Ok(format!(
        "{base}, {close_rows} close + {keepalive_rows} keepalive rows{suffix}"
    ))
}

/// One access-log JSONL file: per-line JSON objects, monotonic `ts_ms`,
/// unique request `id`s, stage durations summing to at most `total_ns`.
fn check_access_log(text: &str) -> Result<String, String> {
    const STAGES: [&str; 6] =
        ["accept_ns", "queue_ns", "parse_ns", "batch_ns", "compute_ns", "write_ns"];
    let mut seen_ids = std::collections::HashSet::new();
    let mut last_ts = f64::NEG_INFINITY;
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let at = format!("line {}", i + 1);
        let json =
            Json::parse(line).map_err(|e| format!("{at}: not valid JSON: {e}"))?;
        let num = |field: &str| {
            json.get(field)
                .and_then(Json::as_f64)
                .ok_or(format!("{at} lacks a numeric `{field}`"))
        };

        let ts = num("ts_ms")?;
        if ts < last_ts {
            return Err(format!("{at}: ts_ms {ts} regressed below {last_ts}"));
        }
        last_ts = ts;

        let id = num("id")?;
        if !(id >= 1.0 && id.fract() == 0.0) {
            return Err(format!("{at}: id {id} is not a positive integer"));
        }
        if !seen_ids.insert(id as u64) {
            return Err(format!("{at}: duplicate request id {id}"));
        }

        let total = num("total_ns")?;
        let mut stage_sum = 0.0;
        for stage in STAGES {
            let v = num(stage)?;
            if v < 0.0 {
                return Err(format!("{at}: `{stage}` is negative"));
            }
            stage_sum += v;
        }
        if stage_sum > total {
            return Err(format!(
                "{at}: stage durations sum to {stage_sum} > total_ns {total}"
            ));
        }
        for field in ["method", "path", "endpoint"] {
            if json.get(field).and_then(Json::as_str).is_none() {
                return Err(format!("{at} lacks a string `{field}`"));
            }
        }
    }
    if lines == 0 {
        return Err("empty access log".into());
    }
    Ok(format!("{lines} access-log lines"))
}

/// Folded-stacks text (flamegraph.pl input): non-empty, each line a
/// `;`-joined frame path followed by one space and a positive integer
/// sample count, with no empty frames.
fn check_folded(text: &str) -> Result<String, String> {
    let mut lines = 0usize;
    let mut samples = 0u64;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let at = format!("line {}", i + 1);
        let (path, count) =
            line.rsplit_once(' ').ok_or(format!("{at}: no `path count` separator"))?;
        if path.is_empty() || path.split(';').any(str::is_empty) {
            return Err(format!("{at}: empty frame in path {path:?}"));
        }
        let count: u64 = count
            .parse()
            .map_err(|_| format!("{at}: count {count:?} is not an integer"))?;
        if count == 0 {
            return Err(format!("{at}: zero sample count"));
        }
        samples += count;
    }
    if lines == 0 {
        return Err("empty folded-stacks file".into());
    }
    Ok(format!("{lines} stacks, {samples} samples"))
}

/// A `/debug/profile` document: run parameters plus embedded folded
/// stacks, which must pass the same line checks as a `.folded` file.
fn check_profile(json: &Json) -> Result<String, String> {
    let hz = json.get("hz").and_then(Json::as_f64).ok_or("no numeric `hz`")?;
    if !(hz >= 1.0) {
        return Err(format!("hz = {hz} is not positive"));
    }
    let samples = json.get("samples").and_then(Json::as_f64).ok_or("no numeric `samples`")?;
    if samples < 0.0 {
        return Err(format!("samples = {samples} is negative"));
    }
    let folded = json.get("folded").and_then(Json::as_str).ok_or("no string `folded`")?;
    let inner = check_folded(folded)?;
    if json.get("self_top").and_then(|t| t.as_arr()).is_none() {
        return Err("no `self_top` array".into());
    }
    Ok(format!("{hz} Hz, {inner}"))
}

/// A `/debug/trace/<id>` document: the trace id round-trips into the
/// embedded request record, and the stage clocks stay within `total_ns`.
fn check_trace_request(json: &Json) -> Result<String, String> {
    let trace_id =
        json.get("trace_id").and_then(Json::as_str).ok_or("no string `trace_id`")?;
    if !matches!(json.get("supplied"), Some(Json::Bool(_))) {
        return Err("no boolean `supplied`".into());
    }
    let request = json.get("request").ok_or("no `request` object")?;
    if request.get("trace").and_then(Json::as_str) != Some(trace_id) {
        return Err(format!(
            "request.trace does not round-trip trace_id {trace_id:?}"
        ));
    }
    let num = |field: &str| {
        request
            .get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("`request` lacks a numeric `{field}`"))
    };
    let id = num("id")?;
    if !(id >= 1.0 && id.fract() == 0.0) {
        return Err(format!("request.id {id} is not a positive integer"));
    }
    num("generation")?;
    let total = num("total_ns")?;
    let mut stage_sum = 0.0;
    for stage in ["accept_ns", "queue_ns", "parse_ns", "batch_ns", "compute_ns", "write_ns"] {
        let v = num(stage)?;
        if v < 0.0 {
            return Err(format!("request.{stage} is negative"));
        }
        stage_sum += v;
    }
    if stage_sum > total {
        return Err(format!("stage durations sum to {stage_sum} > total_ns {total}"));
    }
    Ok(format!("trace {trace_id}, request {id}"))
}

/// A `/debug/timeseries` document: per-second samples in strictly
/// increasing order, none from the future.
fn check_timeseries(json: &Json) -> Result<String, String> {
    let metric = json.get("metric").and_then(Json::as_str).ok_or("no string `metric`")?;
    let retention =
        json.get("retention_s").and_then(Json::as_f64).ok_or("no numeric `retention_s`")?;
    if !(retention >= 1.0) {
        return Err(format!("retention_s = {retention} is not positive"));
    }
    let now_s = json.get("now_s").and_then(Json::as_f64).ok_or("no numeric `now_s`")?;
    let points = json.get("points").and_then(|p| p.as_arr()).ok_or("no `points` array")?;
    let mut last_s = f64::NEG_INFINITY;
    for (i, p) in points.iter().enumerate() {
        let at = format!("points[{i}]");
        let s = p.get("s").and_then(Json::as_f64).ok_or(format!("{at} lacks a numeric `s`"))?;
        if p.get("v").and_then(Json::as_f64).is_none() {
            return Err(format!("{at} lacks a numeric `v`"));
        }
        if s <= last_s {
            return Err(format!("{at}: second {s} does not increase past {last_s}"));
        }
        if s > now_s {
            return Err(format!("{at}: second {s} is in the future of now_s {now_s}"));
        }
        last_s = s;
    }
    Ok(format!("metric {metric}, {} points", points.len()))
}

/// A `/debug/slo` document: every rule's objective, burn rates, and
/// remaining error budget are within their defined ranges.
fn check_slo(json: &Json) -> Result<String, String> {
    if json.get("now_s").and_then(Json::as_f64).is_none() {
        return Err("no numeric `now_s`".into());
    }
    let rules = json.get("rules").and_then(|r| r.as_arr()).ok_or("no `rules` array")?;
    if rules.is_empty() {
        return Err("empty `rules` array".into());
    }
    let mut windows = 0usize;
    for (i, rule) in rules.iter().enumerate() {
        let at = format!("rules[{i}]");
        if rule.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("{at} lacks a string `name`"));
        }
        match rule.get("kind").and_then(Json::as_str) {
            Some("latency" | "availability") => {}
            other => return Err(format!("{at}: unknown kind {other:?}")),
        }
        let objective = rule
            .get("objective_pct")
            .and_then(Json::as_f64)
            .ok_or(format!("{at} lacks a numeric `objective_pct`"))?;
        if !(objective > 0.0 && objective < 100.0) {
            return Err(format!("{at}: objective_pct {objective} outside (0, 100)"));
        }
        let budget = rule
            .get("budget_remaining_pct")
            .and_then(Json::as_f64)
            .ok_or(format!("{at} lacks a numeric `budget_remaining_pct`"))?;
        if !(0.0..=100.0).contains(&budget) {
            return Err(format!("{at}: budget_remaining_pct {budget} outside [0, 100]"));
        }
        let entries =
            rule.get("windows").and_then(|w| w.as_arr()).ok_or(format!("{at} lacks `windows`"))?;
        if entries.is_empty() {
            return Err(format!("{at}: empty `windows` array"));
        }
        for (j, w) in entries.iter().enumerate() {
            let wat = format!("{at}.windows[{j}]");
            let num = |field: &str| {
                w.get(field)
                    .and_then(Json::as_f64)
                    .ok_or(format!("{wat} lacks a numeric `{field}`"))
            };
            if !(num("window_s")? >= 1.0) {
                return Err(format!("{wat}: window_s is not positive"));
            }
            for field in ["good", "bad", "burn_rate"] {
                if num(field)? < 0.0 {
                    return Err(format!("{wat}: `{field}` is negative"));
                }
            }
            windows += 1;
        }
    }
    Ok(format!("{} rules, {windows} windows", rules.len()))
}

/// A Chrome trace-event document: every event carries the required
/// fields, and per tid the duration events balance (`B`/`E` nest by
/// name, none unclosed) with non-decreasing timestamps — exactly what
/// Perfetto needs to open the file without complaint.
fn check_trace_events(json: &Json) -> Result<String, String> {
    let events =
        json.get("traceEvents").and_then(|e| e.as_arr()).ok_or("no `traceEvents` array")?;
    if events.is_empty() {
        return Err("empty `traceEvents` array".into());
    }
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
    let mut pairs = 0usize;
    for (i, e) in events.iter().enumerate() {
        let at = format!("traceEvents[{i}]");
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("{at} lacks a string `name`"))?;
        let ph =
            e.get("ph").and_then(Json::as_str).ok_or(format!("{at} lacks a string `ph`"))?;
        let ts =
            e.get("ts").and_then(Json::as_f64).ok_or(format!("{at} lacks a numeric `ts`"))?;
        if e.get("pid").and_then(Json::as_f64).is_none() {
            return Err(format!("{at} lacks a numeric `pid`"));
        }
        let tid = e
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or(format!("{at} lacks a numeric `tid`"))? as u64;
        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        if ts < *prev {
            return Err(format!("{at}: ts {ts} regressed below {prev} on tid {tid}"));
        }
        *prev = ts;
        match ph {
            "B" => stacks.entry(tid).or_default().push(name.to_owned()),
            "E" => {
                let popped = stacks.entry(tid).or_default().pop();
                if popped.as_deref() != Some(name) {
                    return Err(format!(
                        "{at}: E {name:?} does not close the open B {popped:?} on tid {tid}"
                    ));
                }
                pairs += 1;
            }
            "X" | "C" | "M" | "i" => {}
            other => return Err(format!("{at}: unknown phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("tid {tid} ends with unclosed B events: {stack:?}"));
        }
    }
    Ok(format!("{} events, {pairs} B/E pairs over {} threads", events.len(), last_ts.len()))
}

fn check_trace(json: &Json) -> Result<String, String> {
    let spans = json.get("spans").and_then(|s| s.as_arr()).ok_or("no `spans` array")?;
    if spans.is_empty() {
        return Err("empty `spans` array".into());
    }
    let mut span_count = 0usize;
    for (i, s) in spans.iter().enumerate() {
        check_span(s, &format!("spans[{i}]"), &mut span_count)?;
    }

    let Some(Json::Obj(counters)) = json.get("counters") else {
        return Err("no `counters` object".into());
    };
    let mut seen = std::collections::HashSet::new();
    for (name, value) in counters {
        if !seen.insert(name.as_str()) {
            return Err(format!("duplicate counter name {name:?}"));
        }
        let v = value.as_f64().ok_or(format!("counter {name:?} is not a number"))?;
        if !(v >= 0.0 && v.fract() == 0.0) {
            return Err(format!("counter {name:?} = {v} is not a non-negative integer"));
        }
    }

    let Some(Json::Obj(hists)) = json.get("histograms") else {
        return Err("no `histograms` object".into());
    };
    for (name, h) in hists {
        let count = h.get("count").and_then(Json::as_f64);
        let buckets = h.get("buckets").and_then(|b| b.as_arr());
        let (Some(count), Some(buckets)) = (count, buckets) else {
            return Err(format!("histogram {name:?} lacks count/buckets"));
        };
        let mut total = 0.0;
        for b in buckets {
            let v = b.as_f64().ok_or(format!("histogram {name:?} has a non-numeric bucket"))?;
            if v < 0.0 {
                return Err(format!("histogram {name:?} has a negative bucket"));
            }
            total += v;
        }
        if total != count {
            return Err(format!("histogram {name:?}: bucket sum {total} != count {count}"));
        }
    }

    Ok(format!("{span_count} spans, {} counters, {} histograms", counters.len(), hists.len()))
}

/// One span node: `name` string, non-negative `ns`, `children` array of
/// span nodes — the recursion itself verifies the tree nests.
fn check_span(s: &Json, at: &str, span_count: &mut usize) -> Result<(), String> {
    *span_count += 1;
    if s.get("name").and_then(Json::as_str).is_none() {
        return Err(format!("{at} lacks a string `name`"));
    }
    let ns = s.get("ns").and_then(Json::as_f64).ok_or(format!("{at} lacks a numeric `ns`"))?;
    if ns < 0.0 {
        return Err(format!("{at} has negative duration {ns}"));
    }
    let children =
        s.get("children").and_then(|c| c.as_arr()).ok_or(format!("{at} lacks `children`"))?;
    for (i, c) in children.iter().enumerate() {
        check_span(c, &format!("{at}.children[{i}]"), span_count)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A v2 NLS report with one mode row at the largest standard shape and
    /// one at the XL shape, carrying the given headline speedups.
    fn nls_report(largest: f64, xl: f64) -> Json {
        let text = format!(
            r#"{{
              "schema": "patchdb-bench-nls/v2",
              "sizes": [[50, 2000], [200, 20000]],
              "results": [{{"name": "nls-init/seed-baseline/200x20000", "median_ns": 1}}],
              "index": {{
                "modes": [
                  {{"mode": "partitioned", "shape": "200x20000", "build_median_ns": 2,
                    "query_median_ns": 3, "speedup_vs_seed": 119.5}},
                  {{"mode": "partitioned", "shape": "2000x200000", "build_median_ns": 4,
                    "query_median_ns": 5, "speedup_vs_seed": 723.9}}
                ],
                "index_speedup_largest": {largest},
                "xl_shape": "2000x200000",
                "xl_speedup": {xl}
              }}
            }}"#
        );
        Json::parse(&text).expect("test report parses")
    }

    #[test]
    fn nls_v2_headlines_must_match_the_mode_rows() {
        let summary = check_bench_v2(&nls_report(119.5, 723.9)).expect("consistent report");
        assert!(summary.contains("best 119.5x"), "{summary}");

        let err = check_bench_v2(&nls_report(119.5, 800.0)).expect_err("stale xl_speedup");
        assert!(err.contains("`xl_speedup` = 800"), "{err}");
        let err = check_bench_v2(&nls_report(723.9, 723.9)).expect_err("headline off the rows");
        assert!(err.contains("`index_speedup_largest`"), "{err}");
    }

    #[test]
    fn retired_report_formats_are_refused() {
        let rows = r#""results": [{"name": "nls-init/50x2000", "median_ns": 1,
            "workers": 1, "mode": "close", "connections": 1, "requests": 1,
            "errors": 0, "throughput_rps": 1, "p50_ns": 1, "p99_ns": 1}]"#;
        for (schema, bench) in [
            (r#""schema": "patchdb-serve/v1","#, "perf_serve"),
            (r#""schema": "patchdb-bench-nls/v1","#, "perf_nls_scale"),
            ("", "perf_nls_scale"),
        ] {
            let doc = Json::parse(&format!("{{{schema} {rows}}}")).expect("test report parses");
            let err = check_document(&doc).expect_err("a retired format passed");
            assert!(err.contains("is no longer read"), "{err}");
            assert!(err.contains(&format!("--bench {bench}")), "{err}");
        }

        check_document(&nls_report(119.5, 723.9)).expect("a v2 bench report passes");
        let serve = Json::parse(
            r#"{"schema": "patchdb-serve/v2", "results": [
                {"workers": 1, "mode": "close", "connections": 1, "requests": 9,
                 "errors": 0, "throughput_rps": 9, "p50_ns": 1, "p99_ns": 2},
                {"workers": 1, "mode": "keepalive", "connections": 1, "requests": 9,
                 "errors": 0, "throughput_rps": 9, "p50_ns": 1, "p99_ns": 2}]}"#,
        )
        .expect("test report parses");
        check_document(&serve).expect("a v2 serve report passes");
        let chrome = Json::parse(
            r#"{"traceEvents": [
                {"name": "build", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
                {"name": "build", "ph": "E", "ts": 5, "pid": 1, "tid": 1}]}"#,
        )
        .expect("test trace parses");
        check_document(&chrome).expect("an untagged Chrome trace passes");
    }
}
