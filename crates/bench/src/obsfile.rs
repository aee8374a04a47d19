//! The observation file family behind `silo-obs`: the flight recorder's
//! `silo-trace-v1` and the windowed telemetry's `silo-telemetry-v1` JSONL
//! exports, read by the simnet modules that write them
//! ([`TraceLog::from_jsonl`], [`TelemetryLog::from_jsonl`]). [`parse`]
//! picks the reader by the header's `format` tag; [`diff`] compares two
//! files row by row with [`silo_base::first_divergence`] and prints rows
//! as the writer spells them. Also here: the renderers behind
//! `silo-obs dump` and `show`, the validators behind `silo-obs check` for
//! the Perfetto and OpenMetrics exports, and [`write_observer_outputs`],
//! the writer tail every `Args` binary shares.

use crate::Args;
use silo_base::{first_divergence, Json};
use silo_simnet::{format_tag, Metrics, TelemetryLog, TraceEvent, TraceKind, TraceLog};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A loaded observation file of either family (the telemetry boxed: its
/// self-profile's arrays make it several times a trace's size).
#[derive(Debug, Clone)]
pub enum ObsFile {
    Trace(TraceLog),
    Telemetry(Box<TelemetryLog>),
}

/// Read a file of either family with the reader its header's `format`
/// tag names.
pub fn parse(text: &str) -> Result<ObsFile, String> {
    match format_tag(text) {
        Some(TelemetryLog::FORMAT) => {
            TelemetryLog::from_jsonl(text).map(|t| ObsFile::Telemetry(Box::new(t)))
        }
        _ => TraceLog::from_jsonl(text).map(ObsFile::Trace),
    }
}

impl ObsFile {
    /// The header's fields after its `format` tag, as the writer spells
    /// them.
    fn header(&self) -> Vec<(&'static str, String)> {
        match self {
            ObsFile::Trace(t) => t.header_fields(),
            ObsFile::Telemetry(t) => t.header_fields(),
        }
    }

    /// The data rows in file order, as the writer spells them.
    fn lines(&self) -> Box<dyn Iterator<Item = String> + '_> {
        match self {
            ObsFile::Trace(t) => Box::new(t.events.iter().map(TraceEvent::jsonl)),
            ObsFile::Telemetry(t) => Box::new(t.rows().map(|(w, s)| t.row(w, s))),
        }
    }

    /// How many data rows the file holds.
    pub fn row_count(&self) -> usize {
        match self {
            ObsFile::Trace(t) => t.events.len(),
            ObsFile::Telemetry(t) => t.rows().count(),
        }
    }

    /// Row `i` in its family's terms (when, what and which packet in a
    /// trace; window and series in telemetry) and as the writer spells it.
    fn row(&self, i: usize) -> Option<(String, String)> {
        match self {
            ObsFile::Trace(t) => t.events.get(i).map(|e| {
                let (kind, pkt) = (e.kind.label(), e.pk.label());
                let (at, conn, pseq) = (e.at.0, e.conn, e.pseq);
                let name = format!("t={at} ps  {kind}  conn={conn} pseq={pseq} ({pkt})");
                (name, e.jsonl())
            }),
            ObsFile::Telemetry(t) => {
                (t.rows().nth(i)).map(|(w, s)| (format!("window {w}  {s}"), t.row(w, s)))
            }
        }
    }
}

/// Window grid, tenants and ports: two telemetry files are comparable
/// only when these agree.
fn geometry(t: &TelemetryLog) -> String {
    let (w, iv) = (t.windows, t.interval.as_ps());
    let (n, p) = (t.tenants.len(), t.port_labels.len());
    format!("{w}x{iv} ps / {n} tenants / {p} ports")
}

/// Where two files of one family first part ways.
#[derive(Debug, Clone)]
pub enum Divergence {
    /// The first data row (0-based `index`) where they differ: the
    /// shorter file's length when one is a strict prefix of the other.
    /// Each side's row in its family's terms and as the writer spells
    /// it; `None` past the end of that file.
    Row {
        index: usize,
        left: Option<(String, String)>,
        right: Option<(String, String)>,
    },
    /// Every row agrees but this header field: its name and both values.
    Header {
        field: &'static str,
        left: String,
        right: String,
    },
}

impl Divergence {
    /// The first divergent row, if the files part ways in a row.
    pub fn index(&self) -> Option<usize> {
        match self {
            Divergence::Row { index, .. } => Some(*index),
            Divergence::Header { .. } => None,
        }
    }

    /// Human-readable report: the row where the files split, both files'
    /// view of it, and both raw lines; or the header field and both
    /// values.
    pub fn report(&self) -> String {
        let (index, left, right) = match self {
            Divergence::Row { index, left, right } => (index, left, right),
            Divergence::Header { field, left, right } => {
                return format!(
                    "first divergent header field: {field}\n  left:  {left}\n  right: {right}\n"
                )
            }
        };
        let mut out = format!("first divergent row: index {index}\n");
        for (side, row) in [("left: ", left), ("right:", right)] {
            let at = row.as_ref().map_or("<end of file>", |(at, _)| at);
            let _ = writeln!(out, "  {side} {at}");
        }
        if let (Some((_, l)), Some((_, r))) = (left, right) {
            let _ = writeln!(out, "  left raw:  {l}\n  right raw: {r}");
        }
        out
    }
}

/// `silo-obs diff`: where two files first disagree, `Ok(None)` when they
/// are identical. Rows are compared first, since a row names the instant
/// two runs split; a header field only that they did. `Err` when they
/// cannot be compared: two families, or telemetry of two window grids or
/// populations.
pub fn diff(a: &ObsFile, b: &ObsFile) -> Result<Option<Divergence>, String> {
    let index = match (a, b) {
        // An event and its row determine each other: compare the events.
        (ObsFile::Trace(x), ObsFile::Trace(y)) => first_divergence(&x.events, &y.events),
        (ObsFile::Telemetry(x), ObsFile::Telemetry(y)) => {
            let (gx, gy) = (geometry(x), geometry(y));
            if gx != gy {
                return Err(format!("incomparable geometries: {gx} vs {gy}"));
            }
            first_divergence(
                &a.lines().collect::<Vec<_>>(),
                &b.lines().collect::<Vec<_>>(),
            )
        }
        _ => return Err("cannot compare a trace with a telemetry file".into()),
    };
    if let Some(index) = index {
        let (left, right) = (a.row(index), b.row(index));
        return Ok(Some(Divergence::Row { index, left, right }));
    }
    let field = a.header().into_iter().zip(b.header()).find(|(x, y)| x != y);
    Ok(field.map(|((field, left), (_, right))| Divergence::Header { field, left, right }))
}

/// `silo-obs dump`: the header's totals, then the first `head` rows as
/// the file spells them.
pub fn dump(f: &ObsFile, head: usize) -> String {
    let n = f.row_count();
    let mut out = match f {
        ObsFile::Trace(t) => format!("{n} events, {} dropped, {} tenants\n", t.dropped, t.tenants),
        ObsFile::Telemetry(t) => format!("{}, {n} samples\n", geometry(t)),
    };
    for line in f.lines().take(head) {
        let _ = writeln!(out, "{line}");
    }
    if n > head {
        let _ = writeln!(out, "... {} more (raise --head)", n - head);
    }
    out
}

/// `silo-obs show`: a trace's summary, or a telemetry file's tables.
pub fn show(f: &ObsFile) -> String {
    match f {
        ObsFile::Trace(t) => summarize(t),
        ObsFile::Telemetry(t) => render_top(t),
    }
}

/// Per-kind counts, the span, and per-tenant message latency from the
/// retained `msg_done` spans.
fn summarize(t: &TraceLog) -> String {
    let (n, dropped, tenants) = (t.events.len(), t.dropped, t.tenants);
    let mut out = format!("events {n}  (dropped from rings: {dropped})  tenants {tenants}\n");
    if let (Some(first), Some(last)) = (t.events.first(), t.events.last()) {
        let _ = writeln!(
            out,
            "span {:.3} ms .. {:.3} ms",
            first.at.0 as f64 / 1e9,
            (last.at.0 + last.dur.0) as f64 / 1e9
        );
    }
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    let mut lat: BTreeMap<u16, Vec<u64>> = BTreeMap::new();
    for e in &t.events {
        *kinds.entry(e.kind.label()).or_default() += 1;
        if e.kind == TraceKind::MsgDone && usize::from(e.tenant) < t.tenants {
            lat.entry(e.tenant).or_default().push(e.dur.0);
        }
    }
    // Most frequent first; the sort is stable, so ties stay in name order.
    let mut kinds: Vec<(&str, usize)> = kinds.into_iter().collect();
    kinds.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (k, n) in &kinds {
        let _ = writeln!(out, "  {k:<12} {n}");
    }
    for (t, lat) in &mut lat {
        lat.sort_unstable();
        let q = |p: f64| lat[((p * (lat.len() - 1) as f64).round() as usize).min(lat.len() - 1)];
        let _ = writeln!(
            out,
            "  tenant {t}: {} msgs  p50 {:.1} us  p99 {:.1} us  max {:.1} us",
            lat.len(),
            q(0.50) as f64 / 1e6,
            q(0.99) as f64 / 1e6,
            lat[lat.len() - 1] as f64 / 1e6,
        );
    }
    out
}

fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// Per-tenant guarantee headlines, then each tenant's per-window
/// margin/goodput table. Fault-overlapped windows are tagged in the
/// rightmost column; a `!` margin marks a violation (the window's worst
/// completion finished past its bound).
fn render_top(f: &TelemetryLog) -> String {
    let (w, ms) = (f.windows, f.interval.as_ps() as f64 / 1e9);
    let (n, p) = (f.tenants.len(), f.port_labels.len());
    let mut out = format!("{w} windows x {ms:.3} ms  |  {n} tenants, {p} ports\n");
    let mut tables = String::new();
    for (t, series) in f.tenants.iter().enumerate() {
        let _ = writeln!(
            tables,
            "tenant {t}\n{:>5} {:>12} {:>7} {:>11} {:>12} {:>11} {:>11}  flags",
            "w", "goodput", "compl", "p99_us", "margin_us", "q_wait_us", "t_wait_us"
        );
        let (mut goodput, mut compl, mut rtos, mut violated) = (0u64, 0u64, 0u64, 0u64);
        let mut min_margin: Option<i64> = None;
        for (w, (s, faults)) in series.iter().zip(&f.window_faults).enumerate() {
            goodput = goodput.saturating_add(s.goodput_bytes);
            compl = compl.saturating_add(s.completions);
            rtos = rtos.saturating_add(s.rtos);
            if let Some(m) = s.margin_min_ps {
                min_margin = Some(min_margin.map_or(m, |p| p.min(m)));
                violated += u64::from(m < 0);
            }
            let p99 = s
                .p99_latency_ps
                .map_or("-".to_string(), |p| format!("{:.1}", us(p)));
            let margin = s.margin_min_ps.map_or("-".to_string(), |m| {
                format!("{}{:.1}", if m < 0 { "!" } else { "" }, m as f64 / 1e6)
            });
            let mut flags = Vec::new();
            if !faults.is_empty() {
                let ids: Vec<String> = faults.iter().map(u32::to_string).collect();
                flags.push(format!("fault[{}]", ids.join(",")));
            }
            if s.rtos > 0 {
                flags.push(format!("rto x{}", s.rtos));
            }
            let _ = writeln!(
                tables,
                "{:>5} {:>12} {:>7} {:>11} {:>12} {:>11.1} {:>11.1}  {}",
                w,
                s.goodput_bytes,
                s.completions,
                p99,
                margin,
                us(s.queue_wait_ps),
                us(s.token_wait_ps),
                flags.join(" ")
            );
        }
        let margin = match min_margin {
            Some(m) => format!("min margin {:.1} us", m as f64 / 1e6),
            None => "no delay guarantee".to_string(),
        };
        let _ = writeln!(
            out,
            "tenant {t}: {compl} msgs  {:.3} MB  {margin}  violated windows {violated}  rtos {rtos}",
            goodput as f64 / 1e6,
        );
    }
    out + &tables
}

/// Whether `text` is a Perfetto export (a JSON object) rather than an
/// OpenMetrics exposition: `silo-obs check` tells them apart by content.
pub fn is_perfetto(text: &str) -> bool {
    text.trim_start().starts_with('{')
}

/// Structural validation of a Perfetto `trace_event` export: the JSON
/// parses, the three process tracks are declared, every event carries
/// the mandatory fields, and (when demanded) per-tenant tracks and
/// fault markers are present.
pub fn check_perfetto(
    text: &str,
    expect_tenant_tracks: bool,
    expect_fault_markers: bool,
) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array")?;
    let mut process_names = 0usize;
    let mut tenant_tracks = 0usize;
    let mut fault_markers = 0usize;
    let mut spans = 0usize;
    // Timestamps are numbers or, in our export, fixed-point decimal
    // strings of microseconds.
    let numeric = |e: &Json, key: &str| match e.get(key) {
        Some(Json::Num(_)) => true,
        Some(Json::Str(s)) => s.parse::<f64>().is_ok(),
        _ => false,
    };
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: no ph"))?;
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: no name"))?;
        let pid = e
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: no pid"))?;
        match ph {
            "M" => {
                process_names += usize::from(name == "process_name");
                let thread = e.get("args").and_then(|a| a.get("name"));
                let tenant = thread
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("tenant"));
                tenant_tracks += usize::from(name == "thread_name" && pid == 3 && tenant);
            }
            "X" => {
                spans += 1;
                for key in ["ts", "dur"] {
                    if !numeric(e, key) {
                        return Err(format!("event {i}: span without numeric {key}"));
                    }
                }
            }
            "i" => fault_markers += usize::from(name.starts_with("fault ")),
            "C" => {
                // Telemetry counter samples: a timestamp and at least one
                // numeric arg (the counter value).
                if !numeric(e, "ts") {
                    return Err(format!("event {i}: counter without numeric ts"));
                }
                match e.get("args") {
                    Some(Json::Obj(kv)) if !kv.is_empty() => {}
                    _ => return Err(format!("event {i}: counter without args")),
                }
            }
            other => return Err(format!("event {i}: unknown ph '{other}'")),
        }
    }
    // 3 recorder tracks, plus a 4th when telemetry counters are spliced
    // in (`to_perfetto_with_counters`).
    if process_names != 3 && process_names != 4 {
        return Err(format!(
            "expected 3 or 4 process tracks, found {process_names}"
        ));
    }
    if spans == 0 {
        return Err("no duration spans in trace".into());
    }
    if expect_tenant_tracks && tenant_tracks == 0 {
        return Err("no per-tenant thread tracks".into());
    }
    if expect_fault_markers && fault_markers == 0 {
        return Err("no fault-window markers".into());
    }
    Ok(())
}

/// Grammar lint of an OpenMetrics text exposition
/// ([`TelemetryLog::to_openmetrics`]'s output): every family declares
/// `# HELP` then `# TYPE ... gauge` before its samples, every sample
/// line parses as `name[{label="v"}] value timestamp`, and the file ends
/// with the mandatory `# EOF` terminator. `Ok` carries the sample count.
///
/// [`TelemetryLog::to_openmetrics`]: silo_simnet::TelemetryLog::to_openmetrics
pub fn openmetrics_lint(text: &str) -> Result<usize, String> {
    let body = text
        .strip_suffix("# EOF\n")
        .ok_or("missing '# EOF' terminator")?;
    let mut declared: Vec<String> = Vec::new();
    let mut pending_help: Option<String> = None;
    let mut samples = 0usize;
    for (n, line) in body.lines().enumerate() {
        let lineno = n + 1;
        if line == "# EOF" {
            return Err(format!("line {lineno}: content after # EOF"));
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or_default();
            if name.is_empty() || rest.len() == name.len() {
                return Err(format!("line {lineno}: HELP without name and text"));
            }
            pending_help = Some(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let (name, ty) = (
                parts.next().unwrap_or_default(),
                parts.next().unwrap_or_default(),
            );
            if ty != "gauge" {
                return Err(format!("line {lineno}: unsupported metric type '{ty}'"));
            }
            if pending_help.take().as_deref() != Some(name) {
                return Err(format!("line {lineno}: TYPE for '{name}' without its HELP"));
            }
            declared.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {lineno}: unknown comment line"));
        }
        // Sample: name[{label="value"}] value timestamp
        let Some((series, rest)) = line.split_once(' ') else {
            return Err(format!("line {lineno}: sample without value"));
        };
        let name = series.split('{').next().unwrap_or_default();
        if !declared.iter().any(|d| d == name) {
            return Err(format!(
                "line {lineno}: sample for undeclared family '{name}'"
            ));
        }
        let labels = &series[name.len()..];
        let well_formed = labels.is_empty()
            || (labels.starts_with('{')
                && labels.ends_with('}')
                && labels.contains("=\"")
                && labels[1..labels.len() - 1].ends_with('"'));
        if !well_formed {
            return Err(format!("line {lineno}: malformed label set '{labels}'"));
        }
        let mut parts = rest.split(' ');
        let (value, ts) = (
            parts.next().unwrap_or_default(),
            parts.next().unwrap_or_default(),
        );
        if parts.next().is_some() {
            return Err(format!("line {lineno}: trailing fields after timestamp"));
        }
        if value.parse::<f64>().is_err() {
            return Err(format!("line {lineno}: non-numeric value '{value}'"));
        }
        if ts.parse::<f64>().is_err() || !ts.contains('.') {
            return Err(format!(
                "line {lineno}: timestamp '{ts}' is not fixed-point seconds"
            ));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".into());
    }
    Ok(samples)
}

/// Write every export the command line asks for (`--trace`,
/// `--trace-perfetto`, `--telemetry`, `--telemetry-openmetrics`) from a
/// finished run whose recorders were attached, and announce each path on
/// stdout. The Perfetto export splices in the telemetry's counter tracks
/// when both recorders ran. `Err` names the path that could not be
/// written and why.
pub fn write_observer_outputs(args: &Args, m: &Metrics) -> Result<(), String> {
    let write = |path: &str, text: String, note: String| {
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("{note} -> {path}");
        Ok::<(), String>(())
    };
    if let (Some(log), Some(path)) = (&m.trace, &args.trace) {
        let note = format!(
            "trace: {} events ({} evicted)",
            log.events.len(),
            log.dropped
        );
        write(path, log.to_jsonl(), note)?;
    }
    if let (Some(log), Some(path)) = (&m.trace, &args.trace_perfetto) {
        let json = log.to_perfetto_with_counters(m.telemetry.as_ref());
        write(path, json, "perfetto trace (ui.perfetto.dev)".into())?;
    }
    if let (Some(log), Some(path)) = (&m.telemetry, &args.telemetry) {
        let ms = log.interval.as_ps() as f64 / 1e9;
        let note = format!("telemetry: {} windows x {ms:.3} ms", log.windows);
        write(path, log.to_jsonl(), note)?;
    }
    if let (Some(log), Some(path)) = (&m.telemetry, &args.telemetry_openmetrics) {
        write(path, log.to_openmetrics(), "openmetrics exposition".into())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_trace(lat: &[u64]) -> String {
        let mut s = format!(
            "{{\"format\":\"silo-trace-v1\",\"events\":{},\"dropped\":0,\"tenants\":1}}\n",
            lat.len()
        );
        for (i, l) in lat.iter().enumerate() {
            s.push_str(&format!(
                "{{\"seq\":{i},\"t_ps\":{},\"dur_ps\":{l},\"kind\":\"msg_done\",\"loc\":0,\"aux\":0,\"conn\":0,\"pseq\":0,\"size\":100,\"tenant\":0,\"pkt\":\"none\",\"retx\":false}}\n",
                i * 10
            ));
        }
        s
    }

    fn mini_telemetry(goodput0: u64) -> String {
        let mut s = String::from(
            "{\"format\":\"silo-telemetry-v1\",\"interval_ps\":1000000000,\"windows\":2,\"tenants\":1,\"ports\":2,\"port_labels\":[\"nic_p0\",\"sw_p0\"]}\n",
        );
        for w in 0..2u64 {
            s.push_str(&format!(
                "{{\"w\":{w},\"wire_data\":10,\"wire_void\":0,\"faults\":[]}}\n"
            ));
            s.push_str(&format!(
                "{{\"w\":{w},\"tenant\":0,\"goodput\":{},\"completions\":1,\"p99_ps\":500000,\"margin_min_ps\":-250,\"queue_wait_ps\":7,\"token_wait_ps\":0,\"rtos\":0}}\n",
                if w == 0 { goodput0 } else { 5 }
            ));
        }
        s.push_str("{\"w\":1,\"port\":1,\"busy_ps\":9,\"tx_bytes\":100,\"drops\":0,\"ce\":0,\"depth\":3}\n");
        s
    }

    fn as_trace(text: &str) -> TraceLog {
        match parse(text).expect("parses") {
            ObsFile::Trace(t) => t,
            other => panic!("not a trace: {other:?}"),
        }
    }

    fn as_telemetry(text: &str) -> TelemetryLog {
        match parse(text).expect("parses") {
            ObsFile::Telemetry(t) => *t,
            other => panic!("not telemetry: {other:?}"),
        }
    }

    #[test]
    fn json_parser_round_trips_the_shapes_we_emit() {
        let v = Json::parse(r#"{"a":1,"b":"x","c":[true,null,2.5],"d":{"e":false}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Json::as_arr).unwrap().len(), 3);
        assert_eq!(
            v.get("d").and_then(|d| d.get("e")).and_then(Json::as_bool),
            Some(false)
        );
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{} trailing").is_err());

        // Every row as the writer spells it re-parses to the event the
        // reader typed from it.
        let t = as_trace(&mini_trace(&[5, 6]));
        for e in &t.events {
            let v = Json::parse(&e.jsonl()).unwrap();
            assert_eq!(v.get("dur_ps").and_then(Json::as_u64), Some(e.dur.0));
            assert_eq!(v.get("kind").and_then(Json::as_str), Some(e.kind.label()));
            assert_eq!(v.get("retx").and_then(Json::as_bool), Some(e.retx));
        }
        // The telemetry header's nested string array and a row's empty array
        // both read back.
        let text = mini_telemetry(4);
        let header = Json::parse(text.lines().next().unwrap()).unwrap();
        let labels = header.get("port_labels").and_then(Json::as_arr).unwrap();
        let tel = as_telemetry(&text);
        let labels: Vec<_> = labels.iter().filter_map(Json::as_str).collect();
        assert_eq!(labels, tel.port_labels);
        assert!(tel.window_faults[0].is_empty());
        // A truncated data line is an error, not a short file.
        let mut cut = mini_trace(&[5]);
        cut.truncate(cut.len() - 3);
        assert!(parse(&cut).is_err());
    }

    #[test]
    fn jsonl_parse_and_diff_locate_first_mismatch() {
        let a = parse(&mini_trace(&[5, 6, 7])).unwrap();
        let b = parse(&mini_trace(&[5, 9, 7])).unwrap();
        assert!(diff(&a, &a).unwrap().is_none());
        let d = diff(&a, &b).unwrap().expect("must diverge");
        assert_eq!(d.index(), Some(1));
        let report = d.report();
        assert!(report.contains("first divergent row: index 1"), "{report}");
        assert!(report.contains("left raw:  {\"seq\":1,\"t_ps\":10,\"dur_ps\":6,"));
        assert!(report.contains("right raw: {\"seq\":1,\"t_ps\":10,\"dur_ps\":9,"));
    }

    #[test]
    fn diff_reports_prefix_truncation() {
        let a = parse(&mini_trace(&[5, 6, 7])).unwrap();
        let b = parse(&mini_trace(&[5, 6])).unwrap();
        let d = diff(&a, &b).unwrap().expect("length mismatch diverges");
        assert_eq!(d.index(), Some(2));
        assert!(d.report().contains("right: <end of file>"));
        assert!(!d.report().contains("raw:"));
    }

    #[test]
    fn header_event_count_is_enforced() {
        let mut s = mini_trace(&[1, 2]);
        let extra = mini_trace(&[3]);
        s.push_str(extra.lines().nth(1).unwrap()); // row not in header count
        s.push('\n');
        assert!(parse(&s).unwrap_err().contains("header claims 2 events"));
    }

    #[test]
    fn summarize_names_kinds_and_tenants() {
        let s = show(&parse(&mini_trace(&[5_000_000, 6_000_000])).unwrap());
        assert!(s.contains("msg_done"));
        assert!(s.contains("tenant 0: 2 msgs"));
    }

    #[test]
    fn parse_types_every_row_shape() {
        let f = as_telemetry(&mini_telemetry(42));
        assert_eq!(f.windows, 2);
        assert_eq!(f.port_labels, vec!["nic_p0", "sw_p0"]);
        assert_eq!(f.rows().count(), 5);
        assert_eq!(f.tenants[0][0].goodput_bytes, 42);
        assert_eq!(f.tenants[0][0].margin_min_ps, Some(-250));
        assert_eq!(f.port(1, 1).depth_bytes, 3);
        assert_eq!(as_trace(&mini_trace(&[7])).events[0].dur.0, 7);
    }

    #[test]
    fn header_geometry_is_enforced() {
        let truncated: String = mini_telemetry(42)
            .lines()
            .take(3)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(parse(&truncated).unwrap_err().contains("windows"));
        assert!(parse("").is_err());
        assert!(parse("{\"format\":\"silo-top-v1\"}\n").is_err());
        let missing = mini_telemetry(42).replace("\"completions\":1,", "");
        assert_eq!(
            parse(&missing).unwrap_err(),
            "line 3: missing integer field 'completions'"
        );
        let labels = mini_telemetry(42).replace(",\"sw_p0\"", "");
        assert!(parse(&labels).unwrap_err().contains("2 ports but labels 1"));
    }

    #[test]
    fn diff_locates_first_divergent_sample() {
        let a = parse(&mini_telemetry(42)).unwrap();
        let b = parse(&mini_telemetry(43)).unwrap();
        assert!(diff(&a, &a).unwrap().is_none());
        let d = diff(&a, &b).unwrap().expect("diverges");
        assert_eq!(d.index(), Some(1));
        assert!(d.report().contains("window 0  tenant 0"));
    }

    #[test]
    fn incomparable_geometries_error_out() {
        let a = parse(&mini_telemetry(42)).unwrap();
        let mut b = as_telemetry(&mini_telemetry(42));
        b.interval.0 += 1;
        let err = diff(&a, &ObsFile::Telemetry(Box::new(b))).unwrap_err();
        assert!(err.starts_with("incomparable geometries"), "{err}");
        let t = parse(&mini_trace(&[1])).unwrap();
        assert!(diff(&a, &t).unwrap_err().contains("cannot compare"));
    }

    #[test]
    fn render_top_headlines_margin_and_flags_violations() {
        let top = show(&parse(&mini_telemetry(42)).unwrap());
        assert!(top.contains("tenant 0: 2 msgs"));
        assert!(top.contains("min margin -0.0 us"));
        assert!(top.contains("violated windows 2"));
        assert!(top.contains("!-0.0"), "violation flag: {top}");
    }

    #[test]
    fn huge_tenant_counts_and_out_of_range_ids_are_refused() {
        // A corrupt header used to drive `for t in 0..tenants` over every row.
        let huge = "{\"format\":\"silo-trace-v1\",\"events\":0,\"dropped\":0,\"tenants\":9007199254740992}\n";
        assert!(parse(huge)
            .unwrap_err()
            .contains("exceed the 16-bit tenant ids"));
        let huge = mini_telemetry(42).replace("\"tenants\":1", "\"tenants\":65536");
        assert!(parse(&huge).unwrap_err().contains("65536 tenants"));
        // Rows naming a tenant or port the header does not have.
        let t = mini_trace(&[1]).replace("\"tenant\":0", "\"tenant\":1");
        assert_eq!(
            parse(&t).unwrap_err(),
            "line 2: tenant 1 outside header's 1"
        );
        let unowned = mini_trace(&[1]).replace("\"tenant\":0", "\"tenant\":65535");
        assert!(parse(&unowned).is_ok(), "u16::MAX marks an unowned event");
        let w = mini_telemetry(42).replacen("\"tenant\":0", "\"tenant\":3", 1);
        assert_eq!(
            parse(&w).unwrap_err(),
            "line 3: tenant 3 outside header's 1"
        );
        let p = mini_telemetry(42).replace("\"port\":1", "\"port\":2");
        assert_eq!(parse(&p).unwrap_err(), "line 6: port 2 outside header's 2");
    }

    #[test]
    fn unknown_kind_and_pkt_labels_are_refused() {
        let kind = mini_trace(&[5]).replace("\"msg_done\"", "\"bogus_kind\"");
        assert_eq!(
            parse(&kind).unwrap_err(),
            "line 2: unknown kind 'bogus_kind'"
        );
        let pkt = mini_trace(&[5]).replace("\"none\"", "\"nonsense\"");
        assert_eq!(parse(&pkt).unwrap_err(), "line 2: unknown pkt 'nonsense'");
    }

    #[test]
    fn duplicate_telemetry_rows_are_refused() {
        // Tenant 0's window-0 row (line 3) twice.
        let text = mini_telemetry(42);
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(3, lines[2]);
        let dup = lines.join("\n") + "\n";
        assert_eq!(
            parse(&dup).unwrap_err(),
            "line 4: window 0 tenant 0 out of the writer's order"
        );
    }

    #[test]
    fn all_zero_port_rows_are_refused() {
        let zero = mini_telemetry(42)
            .replace(
                "\"busy_ps\":9,\"tx_bytes\":100",
                "\"busy_ps\":0,\"tx_bytes\":0",
            )
            .replace("\"depth\":3", "\"depth\":0");
        assert_eq!(
            parse(&zero).unwrap_err(),
            "line 6: window 1 port 1 is all zero"
        );
    }

    #[test]
    fn only_the_writers_spelling_is_read() {
        // 2^53 + 1 would read back as 2^53.
        let big = mini_trace(&[5]).replace("\"aux\":0", "\"aux\":9007199254740993");
        assert!(parse(&big)
            .unwrap_err()
            .starts_with("line 2: not as the writer spells it"));
        let spaced = mini_trace(&[5]).replace("\"aux\":0", "\"aux\": 0");
        assert!(parse(&spaced).unwrap_err().starts_with("line 2: not as"));
        let header = mini_trace(&[5]).replace("\"dropped\":0", "\"dropped\":0.0");
        assert!(parse(&header).unwrap_err().starts_with("line 1: not as"));
        let cut = mini_trace(&[5]);
        assert_eq!(
            parse(cut.trim_end()).unwrap_err(),
            "line 2: no newline at its end"
        );
    }

    #[test]
    fn diff_reports_a_header_that_differs_when_every_row_agrees() {
        let a = parse(&mini_trace(&[5])).unwrap();
        let edited =
            mini_trace(&[5]).replace("\"dropped\":0,\"tenants\":1", "\"dropped\":7,\"tenants\":3");
        let d = diff(&a, &parse(&edited).unwrap())
            .unwrap()
            .expect("headers differ");
        assert_eq!(d.index(), None);
        assert_eq!(
            d.report(),
            "first divergent header field: dropped\n  left:  0\n  right: 7\n"
        );
        let a = parse(&mini_telemetry(42)).unwrap();
        let b = parse(&mini_telemetry(42).replace("sw_p0", "sw_q0")).unwrap();
        let d = diff(&a, &b).unwrap().expect("labels differ");
        assert!(
            d.report().contains("header field: port_labels"),
            "{}",
            d.report()
        );
    }

    #[test]
    fn dump_prints_the_head_and_counts_the_rest() {
        let d = dump(&parse(&mini_trace(&[5, 6, 7])).unwrap(), 2);
        assert!(d.starts_with("3 events, 0 dropped, 1 tenants\n"), "{d}");
        assert!(d.ends_with("... 1 more (raise --head)\n"), "{d}");
        let d = dump(&parse(&mini_telemetry(42)).unwrap(), 9);
        assert!(d.starts_with("2x1000000000 ps / 1 tenants / 2 ports, 5 samples\n"));
        assert_eq!(d.lines().count(), 6);
    }

    #[test]
    fn openmetrics_lint_accepts_the_grammar_and_rejects_breakage() {
        let good = "# HELP silo_goodput_bytes help text\n# TYPE silo_goodput_bytes gauge\nsilo_goodput_bytes{tenant=\"0\"} 42 0.001000\n# EOF\n";
        assert_eq!(openmetrics_lint(good), Ok(1));
        assert!(!is_perfetto(good));
        assert!(openmetrics_lint("silo_x 1 0.1\n# EOF\n")
            .unwrap_err()
            .contains("undeclared"));
        assert!(openmetrics_lint(&good.replace("# EOF\n", ""))
            .unwrap_err()
            .contains("EOF"));
        assert!(openmetrics_lint(&good.replace(" 0.001000", ""))
            .unwrap_err()
            .contains("timestamp"));
        assert!(
            openmetrics_lint(&good.replace("# TYPE silo_goodput_bytes gauge\n", ""))
                .unwrap_err()
                .contains("undeclared")
        );
    }
}
