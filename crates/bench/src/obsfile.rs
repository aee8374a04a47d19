//! The observation file family: the flight recorder's `silo-trace-v1`
//! and the windowed telemetry's `silo-telemetry-v1` JSONL exports. Both
//! share one framing: line 1 is a header object whose `format` tag names
//! the family, then one JSON object per line. [`parse`] reads the framing
//! once and dispatches on the tag; every row keeps its raw line, so
//! [`diff`] compares two files byte for byte with
//! [`silo_base::first_divergence`]. Also here: the renderers behind
//! `silo-obs dump` and `show`, the validators behind `silo-obs check` for
//! the Perfetto and OpenMetrics exports, and [`write_observer_outputs`],
//! the writer tail every `Args` binary shares.

use crate::Args;
use silo_base::{first_divergence, Json};
use silo_simnet::Metrics;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One data line of an observation file: its parsed body and the exact
/// source line. Rows compare by their raw line, so any field counts.
#[derive(Debug, Clone)]
pub struct Row<B> {
    pub body: B,
    pub raw: String,
}

impl<B> PartialEq for Row<B> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}

/// One flight-recorder event.
#[derive(Debug, Clone)]
pub struct Event {
    pub seq: u64,
    pub t_ps: u64,
    pub dur_ps: u64,
    pub kind: String,
    pub loc: u64,
    pub aux: u64,
    pub conn: u64,
    pub pseq: u64,
    pub size: u64,
    /// Below the header's `tenants`, or `u16::MAX` for an event no
    /// tenant owns.
    pub tenant: u64,
    pub pkt: String,
    pub retx: bool,
}

/// A `silo-trace-v1` file: the header's totals plus every event (as many
/// as the header's `events`).
#[derive(Debug, Clone)]
pub struct Trace {
    pub dropped: u64,
    pub tenants: u64,
    pub rows: Vec<Row<Event>>,
}

/// One telemetry sample: its window and the series it belongs to.
#[derive(Debug, Clone)]
pub struct Sample {
    pub w: u64,
    pub series: Series,
}

/// What a sample describes: the writer emits one global row per window,
/// one row per tenant, and a sparse row per active port.
#[derive(Debug, Clone)]
pub enum Series {
    Global {
        wire_data: u64,
        wire_void: u64,
        faults: Vec<u64>,
    },
    Tenant {
        tenant: u64,
        goodput: u64,
        completions: u64,
        p99_ps: Option<u64>,
        margin_min_ps: Option<i64>,
        queue_wait_ps: u64,
        token_wait_ps: u64,
        rtos: u64,
    },
    Port {
        port: u64,
        busy_ps: u64,
        tx_bytes: u64,
        drops: u64,
        ce: u64,
        depth: u64,
    },
}

/// A `silo-telemetry-v1` file: the header's geometry plus every sample
/// in file order.
#[derive(Debug, Clone)]
pub struct Telemetry {
    pub interval_ps: u64,
    pub windows: u64,
    pub tenants: u64,
    pub ports: u64,
    pub port_labels: Vec<String>,
    pub rows: Vec<Row<Sample>>,
}

/// A loaded observation file of either family.
#[derive(Debug, Clone)]
pub enum ObsFile {
    Trace(Trace),
    Telemetry(Telemetry),
}

/// A parsed JSON object and its 1-based line, so that a field error says
/// where it is.
#[derive(Clone, Copy)]
struct Obj<'a> {
    v: &'a Json,
    line: usize,
}

impl Obj<'_> {
    fn field<T>(&self, key: &str, ty: &str, get: fn(&Json) -> Option<T>) -> Result<T, String> {
        self.v
            .get(key)
            .and_then(get)
            .ok_or_else(|| format!("line {}: missing {ty} field '{key}'", self.line))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.field(key, "integer", Json::as_u64)
    }

    fn string(&self, key: &str) -> Result<String, String> {
        self.field(key, "string", |v| v.as_str().map(str::to_string))
    }

    /// An id field that must name one of the header's `n` tenants or ports.
    fn id(&self, key: &str, id: u64, n: u64) -> Result<u64, String> {
        let line = self.line;
        (id < n)
            .then_some(id)
            .ok_or_else(|| format!("line {line}: {key} {id} outside header's {n}"))
    }

    /// The header's tenant count: tenant ids are `u16`, so anything larger
    /// is a corrupt header, not a loop bound.
    fn tenants(&self) -> Result<u64, String> {
        let n = self.u64("tenants")?;
        (n <= u64::from(u16::MAX))
            .then_some(n)
            .ok_or_else(|| format!("header: {n} tenants exceed the 16-bit tenant ids"))
    }
}

/// Parse a file of either family: the header, then each non-blank line
/// through the body reader its `format` tag names.
pub fn parse(text: &str) -> Result<ObsFile, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty file")?;
    let header = Json::parse(header).map_err(|e| format!("header: {e}"))?;
    let h = Obj {
        v: &header,
        line: 1,
    };
    match header.get("format").and_then(Json::as_str) {
        Some("silo-trace-v1") => trace(h, lines).map(ObsFile::Trace),
        Some("silo-telemetry-v1") => telemetry(h, lines).map(ObsFile::Telemetry),
        other => Err(format!(
            "not a silo-trace-v1 or silo-telemetry-v1 file (format: {other:?})"
        )),
    }
}

/// The data lines after the header, each parsed and handed to `body`;
/// blank lines are skipped.
fn rows<'a, B>(
    lines: impl Iterator<Item = &'a str>,
    capacity: usize,
    mut body: impl FnMut(Obj) -> Result<B, String>,
) -> Result<Vec<Row<B>>, String> {
    let mut out = Vec::with_capacity(capacity);
    for (n, line) in lines.enumerate().filter(|(_, l)| !l.is_empty()) {
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 2))?;
        let body = body(Obj { v: &v, line: n + 2 })?;
        out.push(Row {
            body,
            raw: line.to_string(),
        });
    }
    Ok(out)
}

fn trace<'a>(h: Obj, lines: impl Iterator<Item = &'a str>) -> Result<Trace, String> {
    let (events, dropped, tenants) = (h.u64("events")?, h.u64("dropped")?, h.tenants()?);
    let rows = rows(lines, events.min(1 << 22) as usize, |r| {
        let e = Event {
            seq: r.u64("seq")?,
            t_ps: r.u64("t_ps")?,
            dur_ps: r.u64("dur_ps")?,
            kind: r.string("kind")?,
            loc: r.u64("loc")?,
            aux: r.u64("aux")?,
            conn: r.u64("conn")?,
            pseq: r.u64("pseq")?,
            size: r.u64("size")?,
            tenant: r.u64("tenant")?,
            pkt: r.string("pkt")?,
            retx: r.field("retx", "bool", Json::as_bool)?,
        };
        if e.tenant != u64::from(u16::MAX) {
            r.id("tenant", e.tenant, tenants)?;
        }
        Ok(e)
    })?;
    if rows.len() as u64 != events {
        return Err(format!(
            "header claims {events} events, file holds {}",
            rows.len()
        ));
    }
    Ok(Trace {
        dropped,
        tenants,
        rows,
    })
}

fn telemetry<'a>(h: Obj, lines: impl Iterator<Item = &'a str>) -> Result<Telemetry, String> {
    let port_labels =
        h.v.get("port_labels")
            .and_then(Json::as_arr)
            .ok_or("header: missing port_labels array")?
            .iter()
            .map(|l| l.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("header: non-string port label")?;
    let (interval_ps, windows) = (h.u64("interval_ps")?, h.u64("windows")?);
    let (tenants, ports) = (h.tenants()?, h.u64("ports")?);
    if port_labels.len() as u64 != ports {
        return Err(format!(
            "header claims {ports} ports but labels {}",
            port_labels.len()
        ));
    }
    let mut next_w = 0u64; // rows arrive window-ordered
    let rows = rows(lines, 0, |r| {
        let w = r.u64("w")?;
        if w >= windows {
            return Err(format!(
                "line {}: window {w} outside header's {windows}",
                r.line
            ));
        }
        if w + 1 < next_w || w > next_w {
            return Err(format!("line {}: window {w} out of order", r.line));
        }
        next_w = next_w.max(w + 1);
        // Optional sub-fields keep `null` distinct from a real sample.
        let series = if let Some(tenant) = r.v.get("tenant").and_then(Json::as_u64) {
            Series::Tenant {
                tenant: r.id("tenant", tenant, tenants)?,
                goodput: r.u64("goodput")?,
                completions: r.u64("completions")?,
                p99_ps: r.v.get("p99_ps").and_then(Json::as_u64),
                margin_min_ps: (r.v.get("margin_min_ps").and_then(Json::as_f64))
                    .filter(|n| n.fract() == 0.0)
                    .map(|n| n as i64),
                queue_wait_ps: r.u64("queue_wait_ps")?,
                token_wait_ps: r.u64("token_wait_ps")?,
                rtos: r.u64("rtos")?,
            }
        } else if let Some(port) = r.v.get("port").and_then(Json::as_u64) {
            Series::Port {
                port: r.id("port", port, ports)?,
                busy_ps: r.u64("busy_ps")?,
                tx_bytes: r.u64("tx_bytes")?,
                drops: r.u64("drops")?,
                ce: r.u64("ce")?,
                depth: r.u64("depth")?,
            }
        } else {
            let faults = (r.v.get("faults").and_then(Json::as_arr))
                .ok_or_else(|| format!("line {}: global row without faults array", r.line))?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<_>>()
                .ok_or_else(|| format!("line {}: non-integer fault id", r.line))?;
            Series::Global {
                wire_data: r.u64("wire_data")?,
                wire_void: r.u64("wire_void")?,
                faults,
            }
        };
        Ok(Sample { w, series })
    })?;
    if next_w != windows {
        return Err(format!(
            "header claims {windows} windows, file holds rows for {next_w}"
        ));
    }
    Ok(Telemetry {
        interval_ps,
        windows,
        tenants,
        ports,
        port_labels,
        rows,
    })
}

impl Event {
    /// The event in the trace's terms: when, what, and which packet.
    fn at(&self) -> String {
        format!(
            "t={} ps  {}  conn={} pseq={} ({})",
            self.t_ps, self.kind, self.conn, self.pseq, self.pkt
        )
    }
}

impl Sample {
    /// The sample in the telemetry's terms: its window and series.
    fn at(&self) -> String {
        let series = match &self.series {
            Series::Global { .. } => "global".to_string(),
            Series::Tenant { tenant, .. } => format!("tenant {tenant}"),
            Series::Port { port, .. } => format!("port {port}"),
        };
        format!("window {}  {series}", self.w)
    }
}

impl Telemetry {
    /// Window grid, tenants and ports: two files are comparable only when
    /// these agree.
    fn geometry(&self) -> String {
        format!(
            "{}x{} ps / {} tenants / {} ports",
            self.windows, self.interval_ps, self.tenants, self.ports
        )
    }
}

/// Where two files of one family first part ways.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Row index (0-based) of the first mismatch; the shorter file's
    /// length when one file is a strict prefix of the other.
    pub index: usize,
    /// Each side's row at `index`, named in its family's terms, and its
    /// raw line; `None` past the end of that file.
    left: Option<(String, String)>,
    right: Option<(String, String)>,
}

impl Divergence {
    fn locate<B>(a: &[Row<B>], b: &[Row<B>], at: fn(&B) -> String) -> Option<Divergence> {
        let index = first_divergence(a, b)?;
        let side = |rows: &[Row<B>]| rows.get(index).map(|r| (at(&r.body), r.raw.clone()));
        Some(Divergence {
            index,
            left: side(a),
            right: side(b),
        })
    }

    /// Human-readable report: the row where the files split, both files'
    /// view of it, and both raw lines.
    pub fn report(&self) -> String {
        let mut out = format!("first divergent row: index {}\n", self.index);
        for (side, row) in [("left: ", &self.left), ("right:", &self.right)] {
            let at = row.as_ref().map_or("<end of file>", |(at, _)| at);
            let _ = writeln!(out, "  {side} {at}");
        }
        if let (Some((_, l)), Some((_, r))) = (&self.left, &self.right) {
            let _ = writeln!(out, "  left raw:  {l}\n  right raw: {r}");
        }
        out
    }
}

/// `silo-obs diff`: the first row where two files disagree, `Ok(None)`
/// when they are identical. `Err` when they cannot be compared: two
/// families, or telemetry of two window grids or populations.
pub fn diff(a: &ObsFile, b: &ObsFile) -> Result<Option<Divergence>, String> {
    match (a, b) {
        (ObsFile::Trace(a), ObsFile::Trace(b)) => {
            Ok(Divergence::locate(&a.rows, &b.rows, Event::at))
        }
        (ObsFile::Telemetry(a), ObsFile::Telemetry(b)) => {
            if a.geometry() != b.geometry() {
                return Err(format!(
                    "incomparable geometries: {} vs {}",
                    a.geometry(),
                    b.geometry()
                ));
            }
            Ok(Divergence::locate(&a.rows, &b.rows, Sample::at))
        }
        _ => Err("cannot compare a trace with a telemetry file".into()),
    }
}

impl ObsFile {
    /// Every row's raw line, in file order.
    pub fn raw_lines(&self) -> Vec<&str> {
        match self {
            ObsFile::Trace(t) => t.rows.iter().map(|r| r.raw.as_str()).collect(),
            ObsFile::Telemetry(t) => t.rows.iter().map(|r| r.raw.as_str()).collect(),
        }
    }
}

/// `silo-obs dump`: the header's totals, then the first `head` rows as
/// the file spells them.
pub fn dump(f: &ObsFile, head: usize) -> String {
    let mut out = match f {
        ObsFile::Trace(t) => format!(
            "{} events, {} dropped, {} tenants\n",
            t.rows.len(),
            t.dropped,
            t.tenants
        ),
        ObsFile::Telemetry(t) => format!("{}, {} samples\n", t.geometry(), t.rows.len()),
    };
    let lines = f.raw_lines();
    for line in lines.iter().take(head) {
        let _ = writeln!(out, "{line}");
    }
    if lines.len() > head {
        let _ = writeln!(out, "... {} more (raise --head)", lines.len() - head);
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
fn summarize(f: &Trace) -> String {
    let mut out = format!(
        "events {}  (dropped from rings: {})  tenants {}\n",
        f.rows.len(),
        f.dropped,
        f.tenants
    );
    if let (Some(first), Some(last)) = (f.rows.first(), f.rows.last()) {
        let _ = writeln!(
            out,
            "span {:.3} ms .. {:.3} ms",
            first.body.t_ps as f64 / 1e9,
            (last.body.t_ps + last.body.dur_ps) as f64 / 1e9
        );
    }
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    let mut lat: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for Row { body: e, .. } in &f.rows {
        *kinds.entry(&e.kind).or_default() += 1;
        if e.kind == "msg_done" && e.tenant < f.tenants {
            lat.entry(e.tenant).or_default().push(e.dur_ps);
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
fn render_top(f: &Telemetry) -> String {
    // Fault tags per window (coverage makes `windows` at most the row count).
    let mut faults = vec![String::new(); f.windows as usize];
    for r in &f.rows {
        if let Series::Global { faults: ids, .. } = &r.body.series {
            let ids: Vec<String> = ids.iter().map(u64::to_string).collect();
            faults[r.body.w as usize] = ids.join(",");
        }
    }
    /// One tenant's headline totals and table, built in one pass.
    #[derive(Default)]
    struct Acc {
        goodput: u64,
        compl: u64,
        rtos: u64,
        min_margin: Option<i64>,
        violated: u64,
        table: String,
    }
    let mut acc: Vec<Acc> = (0..f.tenants).map(|_| Acc::default()).collect();
    for r in &f.rows {
        let Series::Tenant {
            tenant,
            goodput,
            completions,
            p99_ps,
            margin_min_ps,
            queue_wait_ps,
            token_wait_ps,
            rtos,
        } = &r.body.series
        else {
            continue;
        };
        let a = &mut acc[*tenant as usize];
        a.goodput = a.goodput.saturating_add(*goodput);
        a.compl = a.compl.saturating_add(*completions);
        a.rtos = a.rtos.saturating_add(*rtos);
        if let Some(m) = *margin_min_ps {
            a.min_margin = Some(a.min_margin.map_or(m, |p| p.min(m)));
            a.violated += u64::from(m < 0);
        }
        let p99 = p99_ps.map_or("-".to_string(), |p| format!("{:.1}", us(p)));
        let margin = margin_min_ps.map_or("-".to_string(), |m| {
            format!("{}{:.1}", if m < 0 { "!" } else { "" }, m as f64 / 1e6)
        });
        let fault = &faults[r.body.w as usize];
        let mut flags = Vec::new();
        if !fault.is_empty() {
            flags.push(format!("fault[{fault}]"));
        }
        if *rtos > 0 {
            flags.push(format!("rto x{rtos}"));
        }
        let _ = writeln!(
            a.table,
            "{:>5} {:>12} {:>7} {:>11} {:>12} {:>11.1} {:>11.1}  {}",
            r.body.w,
            goodput,
            completions,
            p99,
            margin,
            us(*queue_wait_ps),
            us(*token_wait_ps),
            flags.join(" ")
        );
    }
    let mut out = format!(
        "{} windows x {:.3} ms  |  {} tenants, {} ports\n",
        f.windows,
        f.interval_ps as f64 / 1e9,
        f.tenants,
        f.ports
    );
    for (t, a) in acc.iter().enumerate() {
        let margin = match a.min_margin {
            Some(m) => format!("min margin {:.1} us", m as f64 / 1e6),
            None => "no delay guarantee".to_string(),
        };
        let _ = writeln!(
            out,
            "tenant {t}: {} msgs  {:.3} MB  {margin}  violated windows {}  rtos {}",
            a.compl,
            a.goodput as f64 / 1e6,
            a.violated,
            a.rtos
        );
    }
    for (t, a) in acc.iter().enumerate() {
        let _ = writeln!(
            out,
            "tenant {t}\n{:>5} {:>12} {:>7} {:>11} {:>12} {:>11} {:>11}  flags",
            "w", "goodput", "compl", "p99_us", "margin_us", "q_wait_us", "t_wait_us"
        );
        out.push_str(&a.table);
    }
    out
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

    fn as_trace(text: &str) -> Trace {
        match parse(text).expect("parses") {
            ObsFile::Trace(t) => t,
            other => panic!("not a trace: {other:?}"),
        }
    }

    fn as_telemetry(text: &str) -> Telemetry {
        match parse(text).expect("parses") {
            ObsFile::Telemetry(t) => t,
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

        // Every kept raw line re-parses to the body the reader typed from it.
        let t = as_trace(&mini_trace(&[5, 6]));
        for row in &t.rows {
            let v = Json::parse(&row.raw).unwrap();
            assert_eq!(
                v.get("dur_ps").and_then(Json::as_u64),
                Some(row.body.dur_ps)
            );
            assert_eq!(
                v.get("kind").and_then(Json::as_str),
                Some(row.body.kind.as_str())
            );
            assert_eq!(v.get("retx").and_then(Json::as_bool), Some(row.body.retx));
        }
        // The telemetry header's nested string array and a row's empty array
        // both read back.
        let text = mini_telemetry(4);
        let header = Json::parse(text.lines().next().unwrap()).unwrap();
        let labels = header.get("port_labels").and_then(Json::as_arr).unwrap();
        let tel = as_telemetry(&text);
        let labels: Vec<_> = labels.iter().filter_map(Json::as_str).collect();
        assert_eq!(labels, tel.port_labels);
        let Series::Global { faults, .. } = &tel.rows[0].body.series else {
            panic!("first telemetry row is the global series");
        };
        assert!(faults.is_empty());
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
        assert_eq!(d.index, 1);
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
        assert_eq!(d.index, 2);
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
        assert_eq!(f.rows.len(), 5);
        assert!(matches!(
            f.rows[1].body.series,
            Series::Tenant {
                goodput: 42,
                margin_min_ps: Some(-250),
                ..
            }
        ));
        assert!(matches!(
            f.rows[4].body.series,
            Series::Port { depth: 3, .. }
        ));
        assert_eq!(as_trace(&mini_trace(&[7])).rows[0].body.dur_ps, 7);
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
        assert_eq!(d.index, 1);
        assert!(d.report().contains("window 0  tenant 0"));
    }

    #[test]
    fn incomparable_geometries_error_out() {
        let a = parse(&mini_telemetry(42)).unwrap();
        let mut b = as_telemetry(&mini_telemetry(42));
        b.interval_ps += 1;
        let err = diff(&a, &ObsFile::Telemetry(b)).unwrap_err();
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
