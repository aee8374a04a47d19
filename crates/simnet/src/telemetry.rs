//! Windowed telemetry: deterministic time-series of how close every
//! tenant ran to its guarantee, plus a wall-clock self-profile of the
//! engine itself.
//!
//! The end-of-run [`crate::Metrics`] totals say *whether* a tenant met
//! its `{B, S, d}` bound; the flight recorder says what one packet did.
//! Neither shows the *trajectory* — how the guarantee margin eroded as a
//! fault window opened, or which windows burned the margin on queueing
//! versus pacer token waits. The telemetry sink samples that trajectory on
//! a fixed sim-time grid (`TelemetryConfig::interval`, default 1 ms):
//!
//! * **per tenant, per window** — goodput bytes, message completions,
//!   p99-within-window latency (via a per-window [`LogHistogram`]), the
//!   minimum guarantee margin `d_bound − latency` over the window's
//!   completions, and the window's wait attribution: switch-queue
//!   head-of-line wait vs pacer token wait (the same two causes the
//!   flight recorder distinguishes), with realized fault windows mapped
//!   onto the grid at the end of the run;
//! * **per port, per window** — busy time of transmissions started in
//!   the window, tx bytes, tail drops, CE marks, and the queue depth at
//!   the window edge (the last depth observed before the boundary);
//! * **globally, per window** — wire data/void bytes from the pacer's
//!   NIC batches.
//!
//! Like every observer the sink is pure observation; the engine reaches it
//! only through the observation spine (`observe.rs`). Every series is
//! conservative: the sum over windows equals the end-of-run `Metrics`
//! total bit-exactly (the conservation suite in
//! `tests/telemetry_identical.rs`) — the windowed analogue of the trace
//! rings' `retained + dropped == recorded`.
//!
//! The **self-profile** is the one deliberately non-deterministic part:
//! the dispatch loop's wall time plus sampled per-event-kind dispatch
//! time. It is kept out of the deterministic exports
//! ([`TelemetryLog::to_jsonl`] / [`TelemetryLog::to_openmetrics`]) and
//! rendered separately ([`SelfProfile::to_table`]), so `silo-obs diff` on
//! two same-seed runs is always byte-clean.

use crate::faults::FaultWindow;
use crate::jsonl;
use crate::metrics::{EvKind, LATENCY_HIST_SUB_BITS};
use silo_base::{Dur, LogHistogram, Time};

/// Configuration of the windowed recorder.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Sim-time width of one sampling window. Every counter is
    /// attributed to the window containing its dispatch instant; the
    /// final window is clamped to the horizon, so events at exactly
    /// `duration` land in the last window rather than opening a new one.
    pub interval: Dur,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            interval: Dur::from_ms(1),
        }
    }
}

/// One tenant's sample for one window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantWindow {
    /// Delivered stream bytes (sum of per-segment delivery advances —
    /// the same quantity `Metrics::goodput` totals).
    pub goodput_bytes: u64,
    /// Messages fully delivered in this window.
    pub completions: u64,
    /// p99 of completion latencies inside the window (ps), `None` when
    /// nothing completed. Quantized by the shared `LogHistogram`
    /// resolution ([`LATENCY_HIST_SUB_BITS`]).
    pub p99_latency_ps: Option<u64>,
    /// Minimum of `latency_bound − latency` over the window's
    /// completions (ps; negative ⇒ a guarantee violation completed in
    /// this window). `None` without a delay guarantee or completions.
    pub margin_min_ps: Option<i64>,
    /// Switch-queue head-of-line wait of data packets that started
    /// transmission in this window (ps, summed).
    pub queue_wait_ps: u64,
    /// Pacer token wait of data packets stamped in this window (ps,
    /// summed) — time the token buckets held a packet past `now`.
    pub token_wait_ps: u64,
    /// RTO timers that fired for this tenant's connections.
    pub rtos: u64,
}

/// One port's sample for one window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortWindow {
    /// Transmission time of packets whose wire slot *started* in this
    /// window (ps). A transmission spanning a boundary is attributed
    /// whole to its start window, so `busy_ps / interval` can
    /// transiently exceed 1.
    pub busy_ps: u64,
    pub tx_bytes: u64,
    /// Tail drops (buffer full) — sums bit-exactly to `Metrics::drops`.
    pub drops: u64,
    /// ECN CE marks applied at enqueue.
    pub ce_marks: u64,
    /// Queued bytes at the window's trailing edge (last observed depth).
    pub depth_bytes: u64,
}

/// Global (per-run) sample for one window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlobalWindow {
    pub wire_data_bytes: u64,
    pub wire_void_bytes: u64,
}

/// Wall-clock self-profile of the engine. All values are host wall
/// time — **not** deterministic, and therefore excluded from the
/// deterministic exports.
#[derive(Debug, Clone, Default)]
pub struct SelfProfile {
    /// Total wall time of the dispatch loop (in `Sim::run`).
    pub wall_ns: u64,
    /// Per-event-kind dispatch wall time (sampled: every 64th dispatched
    /// event is timed; sums are raw sampled time, not scaled).
    pub dispatch_ns: [u64; EvKind::COUNT],
    /// Sample counts matching `dispatch_ns`.
    pub dispatch_samples: [u64; EvKind::COUNT],
    /// Wall time the observer worker spent applying chunks of records
    /// (on its own thread, beside the dispatch loop).
    pub worker_busy_ns: u64,
    /// Wall time the dispatch loop waited for the observer worker to hand
    /// back an empty chunk (part of `wall_ns`).
    pub engine_wait_ns: u64,
}

impl SelfProfile {
    /// Total sampled dispatch time across kinds.
    pub fn dispatch_total_ns(&self) -> u64 {
        self.dispatch_ns.iter().sum()
    }

    /// Aligned text table, as `sim_profile` prints it.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "engine self-profile: wall {:.3} ms, sampled dispatch {:.1} us ({} samples)\n",
            self.wall_ns as f64 / 1e6,
            self.dispatch_total_ns() as f64 / 1e3,
            self.dispatch_samples.iter().sum::<u64>()
        );
        out.push_str(&format!(
            "observer worker: busy {:.3} ms applying records, engine waited {:.3} ms for it\n",
            self.worker_busy_ns as f64 / 1e6,
            self.engine_wait_ns as f64 / 1e6
        ));
        out.push_str(&format!(
            "{:<12} {:>14} {:>12}\n",
            "event", "dispatch_us", "samples"
        ));
        let mut kinds: Vec<usize> = (0..EvKind::COUNT).collect();
        kinds.sort_by_key(|&i| (std::cmp::Reverse(self.dispatch_ns[i]), i));
        for i in kinds.into_iter().filter(|&i| self.dispatch_samples[i] > 0) {
            out.push_str(&format!(
                "{:<12} {:>14.1} {:>12}\n",
                EvKind::ALL[i].label(),
                self.dispatch_ns[i] as f64 / 1e3,
                self.dispatch_samples[i]
            ));
        }
        out
    }
}

/// Accumulator for the open window of one tenant.
struct TenantAcc {
    win: TenantWindow,
    hist: LogHistogram,
}

/// The recorder attached to a running `Sim` (`Some` iff
/// `SimConfig::telemetry` is set). Hook methods are called from the
/// dispatch loop with the current sim time; dispatch time is monotone,
/// so windows close lazily as time first crosses each boundary.
pub(crate) struct TelemetrySink {
    interval_ps: u64,
    /// Total windows covering `[0, duration]` (the last clamps to the
    /// horizon).
    nwindows: u64,
    /// Currently open window index.
    cur: u64,
    /// First instant past the open window (`u64::MAX` once the final
    /// window is open) — the hot-path hooks compare against this instead
    /// of dividing on every call.
    cur_end_ps: u64,
    tacc: Vec<TenantAcc>,
    pacc: Vec<PortWindow>,
    gacc: GlobalWindow,
    /// Last observed queued-bytes per port (carried across windows for
    /// the depth-at-edge series).
    last_queued: Vec<u64>,
    tenant_series: Vec<Vec<TenantWindow>>,
    window_ports: Vec<Vec<(usize, PortWindow)>>,
    global_series: Vec<GlobalWindow>,
    // ---- self-profile (wall clock; never touches sim state) ----
    wall_ns: u64,
    dispatch_ns: [u64; EvKind::COUNT],
    dispatch_samples: [u64; EvKind::COUNT],
}

impl TelemetrySink {
    pub fn new(
        cfg: &TelemetryConfig,
        duration: Dur,
        ntenants: usize,
        nports: usize,
    ) -> TelemetrySink {
        let interval_ps = cfg.interval.as_ps().max(1);
        let nwindows = duration.as_ps().div_ceil(interval_ps).max(1);
        TelemetrySink {
            interval_ps,
            nwindows,
            cur: 0,
            cur_end_ps: if nwindows == 1 { u64::MAX } else { interval_ps },
            tacc: (0..ntenants)
                .map(|_| TenantAcc {
                    win: TenantWindow::default(),
                    hist: LogHistogram::new(LATENCY_HIST_SUB_BITS),
                })
                .collect(),
            pacc: vec![PortWindow::default(); nports],
            gacc: GlobalWindow::default(),
            last_queued: vec![0; nports],
            tenant_series: vec![Vec::new(); ntenants],
            window_ports: Vec::new(),
            global_series: Vec::new(),
            wall_ns: 0,
            dispatch_ns: [0; EvKind::COUNT],
            dispatch_samples: [0; EvKind::COUNT],
        }
    }

    /// Window containing `t`, clamped so the horizon edge lands in the
    /// final window instead of opening one past it.
    #[inline]
    fn window_of(&self, t: Time) -> u64 {
        (t.as_ps() / self.interval_ps).min(self.nwindows - 1)
    }

    /// Close every window strictly before `t`'s. The common case — `t`
    /// still inside the open window — is one compare; hooks fire several
    /// times per event, so the division lives only on the cold path.
    #[inline]
    fn advance(&mut self, t: Time) {
        if t.as_ps() >= self.cur_end_ps {
            self.advance_slow(t);
        }
    }

    #[cold]
    fn advance_slow(&mut self, t: Time) {
        let w = self.window_of(t);
        while self.cur < w {
            self.close_current();
        }
        self.cur_end_ps = if self.cur + 1 >= self.nwindows {
            // Final window: it absorbs everything up to the horizon.
            u64::MAX
        } else {
            (self.cur + 1) * self.interval_ps
        };
    }

    fn close_current(&mut self) {
        for (acc, series) in self.tacc.iter_mut().zip(self.tenant_series.iter_mut()) {
            let mut win = std::mem::take(&mut acc.win);
            if !acc.hist.is_empty() {
                win.p99_latency_ps = acc.hist.quantile(0.99);
                acc.hist.clear();
            }
            series.push(win);
        }
        let mut active = Vec::new();
        for (p, (acc, &depth)) in self.pacc.iter_mut().zip(&self.last_queued).enumerate() {
            let mut win = std::mem::take(acc);
            win.depth_bytes = depth;
            if win != PortWindow::default() {
                active.push((p, win));
            }
        }
        self.window_ports.push(active);
        self.global_series.push(std::mem::take(&mut self.gacc));
        self.cur += 1;
    }

    // ---- sim-time hooks (all deterministic counters) ----

    /// `tenant`'s open window once every window before `now` closed: the
    /// spine adds the plain counters to it in place.
    pub fn tenant(&mut self, now: Time, tenant: u16) -> &mut TenantWindow {
        self.advance(now);
        &mut self.tacc[tenant as usize].win
    }

    /// A message completed: `margin_ps` is `bound − latency` when the
    /// tenant has a delay guarantee.
    pub fn msg_done(&mut self, now: Time, tenant: u16, latency_ps: u64, margin_ps: Option<i64>) {
        self.advance(now);
        let acc = &mut self.tacc[tenant as usize];
        acc.win.completions += 1;
        acc.hist.record(latency_ps);
        if let Some(m) = margin_ps {
            acc.win.margin_min_ps = Some(match acc.win.margin_min_ps {
                Some(prev) => prev.min(m),
                None => m,
            });
        }
    }

    /// `port`'s open window, likewise, after its queue changed to
    /// `queued` bytes (the depth the window's edge reports).
    pub fn port(&mut self, now: Time, port: usize, queued: u64) -> &mut PortWindow {
        self.advance(now);
        self.last_queued[port] = queued;
        &mut self.pacc[port]
    }

    /// The open global window, likewise.
    pub fn global(&mut self, now: Time) -> &mut GlobalWindow {
        self.advance(now);
        &mut self.gacc
    }

    // ---- self-profile hooks (wall clock only) ----

    /// Add the dispatch loop's wall time.
    pub fn add_wall_ns(&mut self, ns: u64) {
        self.wall_ns += ns;
    }

    /// Record one sampled dispatch span.
    #[inline]
    pub fn dispatch_span(&mut self, kind: usize, ns: u64) {
        self.dispatch_ns[kind] += ns;
        self.dispatch_samples[kind] += 1;
    }

    /// Flush the remaining windows and assemble the log.
    pub fn finish(
        mut self,
        port_labels: Vec<String>,
        fault_windows: &[FaultWindow],
    ) -> TelemetryLog {
        while self.cur < self.nwindows {
            self.close_current();
        }
        // Map realized fault windows onto the grid: a fault overlaps
        // window w = [w·iv, (w+1)·iv) when it starts before the window's
        // end and ends at-or-after its start — the at-or-after keeps a
        // fault healing exactly on a boundary attributed to the window
        // whose first instant it still covered, and gives zero-length
        // strike-and-heal faults exactly one window.
        let mut window_faults: Vec<Vec<u32>> = vec![Vec::new(); self.nwindows as usize];
        for fw in fault_windows {
            let first = fw.start.as_ps() / self.interval_ps;
            for w in first..self.nwindows {
                let ws = w * self.interval_ps;
                if fw.end.as_ps() < ws && fw.start.as_ps() < ws {
                    break;
                }
                if fw.start.as_ps() < (w + 1) * self.interval_ps && fw.end.as_ps() >= ws {
                    window_faults[w as usize].push(fw.fault);
                }
            }
        }
        let self_profile = SelfProfile {
            wall_ns: self.wall_ns,
            dispatch_ns: self.dispatch_ns,
            dispatch_samples: self.dispatch_samples,
            ..SelfProfile::default()
        };
        TelemetryLog {
            interval: Dur(self.interval_ps),
            windows: self.nwindows,
            tenants: self.tenant_series,
            window_ports: self.window_ports,
            global: self.global_series,
            window_faults,
            port_labels,
            self_profile,
        }
    }
}

/// Fixed-point microseconds (6 decimals = ps precision): the
/// deterministic timestamp format of both Perfetto exporters.
pub(crate) fn us(t_ps: u64) -> String {
    format!("{}.{:06}", t_ps / 1_000_000, t_ps % 1_000_000)
}

/// Fixed-point seconds (6 decimals = µs precision) for OpenMetrics
/// timestamps.
fn secs(t_ps: u64) -> String {
    format!(
        "{}.{:06}",
        t_ps / 1_000_000_000_000,
        (t_ps % 1_000_000_000_000) / 1_000_000
    )
}

/// Which series a `silo-telemetry-v1` row samples. The derived order is
/// the writer's order within a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Series {
    Global,
    Tenant(usize),
    Port(usize),
}

impl std::fmt::Display for Series {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        match self {
            Series::Global => write!(f, "global"),
            Series::Tenant(t) => write!(f, "tenant {t}"),
            Series::Port(p) => write!(f, "port {p}"),
        }
    }
}

/// A finished telemetry recording: every tenant and global series fully
/// materialized (`windows` entries each), the ports' active samples, and
/// the wall-clock self-profile.
#[derive(Debug, Clone)]
pub struct TelemetryLog {
    pub interval: Dur,
    pub windows: u64,
    /// `[tenant][window]`.
    pub tenants: Vec<Vec<TenantWindow>>,
    /// `[window]`: each port active in the window, ascending, and its
    /// sample. All-zero samples are not kept, so the log, like its JSONL,
    /// grows with traffic rather than with ports × windows.
    pub window_ports: Vec<Vec<(usize, PortWindow)>>,
    /// `[window]`.
    pub global: Vec<GlobalWindow>,
    /// Fault indices overlapping each window (empty without a plan).
    pub window_faults: Vec<Vec<u32>>,
    /// One label per port id (switch/NIC ports first, then loopbacks):
    /// their count is the run's port count.
    pub port_labels: Vec<String>,
    /// Wall-clock engine profile — excluded from the deterministic
    /// exports below, so zero in a log read back from the JSONL.
    pub self_profile: SelfProfile,
}

impl TelemetryLog {
    // ---- conservation sums (the cross-check the test suite pins) ----

    pub fn sum_goodput(&self, tenant: usize) -> u64 {
        self.tenants[tenant].iter().map(|w| w.goodput_bytes).sum()
    }
    pub fn sum_completions(&self, tenant: usize) -> u64 {
        self.tenants[tenant].iter().map(|w| w.completions).sum()
    }
    pub fn sum_rtos(&self) -> u64 {
        self.tenants
            .iter()
            .flat_map(|t| t.iter().map(|w| w.rtos))
            .sum()
    }
    pub fn sum_drops(&self) -> u64 {
        let samples = self.window_ports.iter().flatten();
        samples.map(|(_, s)| s.drops).sum()
    }
    pub fn sum_wire_data(&self) -> u64 {
        self.global.iter().map(|w| w.wire_data_bytes).sum()
    }
    pub fn sum_wire_void(&self) -> u64 {
        self.global.iter().map(|w| w.wire_void_bytes).sum()
    }

    /// The `format` tag of a `silo-telemetry-v1` file's header.
    pub const FORMAT: &'static str = "silo-telemetry-v1";

    /// The header's fields after its `format` tag, as the writer spells
    /// them.
    pub fn header_fields(&self) -> Vec<(&'static str, String)> {
        let labels: Vec<String> = self
            .port_labels
            .iter()
            .map(|l| format!("\"{l}\""))
            .collect();
        vec![
            ("interval_ps", self.interval.as_ps().to_string()),
            ("windows", self.windows.to_string()),
            ("tenants", self.tenants.len().to_string()),
            ("ports", self.port_labels.len().to_string()),
            ("port_labels", format!("[{}]", labels.join(","))),
        ]
    }

    /// The data rows in file order, ascending in `(window, Series)`: for
    /// each window the global row, every tenant, then each active port.
    pub fn rows(&self) -> impl Iterator<Item = (u64, Series)> + '_ {
        (0..self.windows).flat_map(move |w| {
            let ports = self.window_ports[w as usize]
                .iter()
                .map(|&(p, _)| Series::Port(p));
            std::iter::once(Series::Global)
                .chain((0..self.tenants.len()).map(Series::Tenant))
                .chain(ports)
                .map(move |s| (w, s))
        })
    }

    /// Port `p`'s sample for window `w`: zero when the port was idle.
    pub fn port(&self, w: u64, p: usize) -> PortWindow {
        let ps = &self.window_ports[w as usize];
        let i = ps.binary_search_by_key(&p, |&(q, _)| q);
        i.map_or_else(|_| PortWindow::default(), |i| ps[i].1.clone())
    }

    /// Window `w`'s row of series `s` as the writer spells it.
    pub fn row(&self, w: u64, s: Series) -> String {
        fn opt<T: ToString>(v: Option<T>) -> String {
            v.map_or("null".to_string(), |x| x.to_string())
        }
        let i = w as usize;
        match s {
            Series::Global => {
                let g = &self.global[i];
                let faults: Vec<String> =
                    self.window_faults[i].iter().map(u32::to_string).collect();
                format!(
                    "{{\"w\":{w},\"wire_data\":{},\"wire_void\":{},\"faults\":[{}]}}",
                    g.wire_data_bytes,
                    g.wire_void_bytes,
                    faults.join(",")
                )
            }
            Series::Tenant(t) => {
                let s = &self.tenants[t][i];
                format!(
                    "{{\"w\":{w},\"tenant\":{t},\"goodput\":{},\"completions\":{},\"p99_ps\":{},\"margin_min_ps\":{},\"queue_wait_ps\":{},\"token_wait_ps\":{},\"rtos\":{}}}",
                    s.goodput_bytes,
                    s.completions,
                    opt(s.p99_latency_ps),
                    opt(s.margin_min_ps),
                    s.queue_wait_ps,
                    s.token_wait_ps,
                    s.rtos,
                )
            }
            Series::Port(p) => {
                let s = self.port(w, p);
                format!(
                    "{{\"w\":{w},\"port\":{p},\"busy_ps\":{},\"tx_bytes\":{},\"drops\":{},\"ce\":{},\"depth\":{}}}",
                    s.busy_ps, s.tx_bytes, s.drops, s.ce_marks, s.depth_bytes,
                )
            }
        }
    }

    /// Deterministic `silo-telemetry-v1` JSONL: the header line, then
    /// [`TelemetryLog::rows`] one per line.
    pub fn to_jsonl(&self) -> String {
        let rows = self.rows().map(|(w, s)| self.row(w, s));
        jsonl::write(Self::FORMAT, &self.header_fields(), rows)
    }

    /// Read a `silo-telemetry-v1` file back: the inverse of
    /// [`TelemetryLog::to_jsonl`], except that a line holding an integer
    /// above 2^53 (which the JSON reader would round) is refused. Rows
    /// must come as the writer orders them, with no all-zero port row.
    /// The file does not carry the self-profile: a read log's is zero.
    pub fn from_jsonl(text: &str) -> Result<TelemetryLog, String> {
        let (h, lines) = jsonl::read(text, Self::FORMAT)?;
        let port_labels: Vec<String> = h.get("port_labels", "string array", |v| {
            v.as_arr()?
                .iter()
                .map(|l| l.as_str().map(str::to_string))
                .collect()
        })?;
        let (interval_ps, windows) = (h.u64("interval_ps")?, h.u64("windows")?);
        let (tenants, ports) = (h.tenants()?, h.u64("ports")?);
        if port_labels.len() as u64 != ports {
            return Err(format!(
                "header claims {ports} ports but labels {}",
                port_labels.len()
            ));
        }
        let mut log = TelemetryLog {
            interval: Dur(interval_ps),
            windows,
            tenants: vec![Vec::new(); tenants],
            window_ports: Vec::new(),
            global: Vec::new(),
            window_faults: Vec::new(),
            port_labels,
            self_profile: SelfProfile::default(),
        };
        // The last row read, and the next global or tenant row due.
        let (mut last, mut due) = (None, (0, Series::Global));
        for r in lines {
            let r = r?;
            let w = r.u64("w")?;
            if w >= windows {
                return Err(r.err(format!("window {w} outside header's {windows}")));
            }
            let s = if r.has("tenant") {
                Series::Tenant(r.id("tenant", tenants as u64)?)
            } else if r.has("port") {
                Series::Port(r.id("port", ports)?)
            } else {
                Series::Global
            };
            let key = (w, s);
            let placed = match s {
                Series::Port(_) => key < due,
                _ => key == due,
            };
            if last >= Some(key) || !placed {
                return Err(r.err(format!("window {w} {s} out of the writer's order")));
            }
            match s {
                Series::Global => {
                    log.global.push(GlobalWindow {
                        wire_data_bytes: r.u64("wire_data")?,
                        wire_void_bytes: r.u64("wire_void")?,
                    });
                    let faults = r.get("faults", "integer array", |v| {
                        let ids = v.as_arr()?.iter().map(|f| f.as_u64()?.try_into().ok());
                        ids.collect()
                    })?;
                    log.window_faults.push(faults);
                    log.window_ports.push(Vec::new());
                }
                Series::Tenant(t) => log.tenants[t].push(TenantWindow {
                    goodput_bytes: r.u64("goodput")?,
                    completions: r.u64("completions")?,
                    // A negative p99 wraps, and `canonical` refuses it.
                    p99_latency_ps: r.opt("p99_ps")?.map(|n| n as u64),
                    margin_min_ps: r.opt("margin_min_ps")?,
                    queue_wait_ps: r.u64("queue_wait_ps")?,
                    token_wait_ps: r.u64("token_wait_ps")?,
                    rtos: r.u64("rtos")?,
                }),
                Series::Port(p) => {
                    let pw = PortWindow {
                        busy_ps: r.u64("busy_ps")?,
                        tx_bytes: r.u64("tx_bytes")?,
                        drops: r.u64("drops")?,
                        ce_marks: r.u64("ce")?,
                        depth_bytes: r.u64("depth")?,
                    };
                    if pw == PortWindow::default() {
                        return Err(r.err(format!("window {w} {s} is all zero")));
                    }
                    log.window_ports[w as usize].push((p, pw));
                }
            }
            r.canonical(&log.row(w, s))?;
            last = Some(key);
            due = match s {
                Series::Port(_) => due,
                Series::Global if tenants > 0 => (w, Series::Tenant(0)),
                Series::Tenant(t) if t + 1 < tenants => (w, Series::Tenant(t + 1)),
                _ => (w + 1, Series::Global),
            };
        }
        if due != (windows, Series::Global) {
            return Err(format!(
                "header claims {windows} windows, file holds rows for {}",
                due.0
            ));
        }
        h.canonical(
            jsonl::write(Self::FORMAT, &log.header_fields(), std::iter::empty()).trim_end(),
        )?;
        Ok(log)
    }

    /// OpenMetrics text exposition: one gauge family per series, samples
    /// timestamped at the window's trailing edge in seconds. Tenant
    /// families emit every window (burn-rate analyses need the zeros);
    /// port families elide all-zero samples. Ends with the mandatory
    /// `# EOF`.
    pub fn to_openmetrics(&self) -> String {
        /// One gauge family: metric name, help text, and the window
        /// field it samples.
        type Family<W, V = u64> = (&'static str, &'static str, fn(&W) -> V);
        let mut out = String::new();
        let end = |w: usize| secs(((w as u64) + 1) * self.interval.as_ps());
        // Tenant families.
        let tenant_u64: [Family<TenantWindow>; 5] = [
            (
                "silo_goodput_bytes",
                "delivered stream bytes per window",
                |s| s.goodput_bytes,
            ),
            (
                "silo_completions",
                "messages fully delivered per window",
                |s| s.completions,
            ),
            (
                "silo_queue_wait_ps",
                "switch-queue head-of-line wait per window (ps)",
                |s| s.queue_wait_ps,
            ),
            (
                "silo_token_wait_ps",
                "pacer token wait per window (ps)",
                |s| s.token_wait_ps,
            ),
            ("silo_rtos", "RTO fires per window", |s| s.rtos),
        ];
        for (name, help, get) in tenant_u64 {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            for (t, series) in self.tenants.iter().enumerate() {
                for (w, s) in series.iter().enumerate() {
                    out.push_str(&format!("{name}{{tenant=\"{t}\"}} {} {}\n", get(s), end(w)));
                }
            }
        }
        // Tenant families a window may have no value for: no sample then.
        let tenant_opt: [Family<TenantWindow, Option<i128>>; 2] = [
            (
                "silo_p99_latency_ps",
                "p99 completion latency within the window (ps)",
                |s| s.p99_latency_ps.map(i128::from),
            ),
            (
                "silo_margin_min_ps",
                "minimum guarantee margin d_bound - latency within the window (ps)",
                |s| s.margin_min_ps.map(i128::from),
            ),
        ];
        for (name, help, get) in tenant_opt {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            for (t, series) in self.tenants.iter().enumerate() {
                for (w, s) in series.iter().enumerate() {
                    if let Some(v) = get(s) {
                        out.push_str(&format!("{name}{{tenant=\"{t}\"}} {v} {}\n", end(w)));
                    }
                }
            }
        }
        // Port families (sparse), grouped by port as the tenant ones are
        // by tenant.
        let mut samples: Vec<(usize, usize, &PortWindow)> = (self.window_ports.iter())
            .enumerate()
            .flat_map(|(w, ps)| ps.iter().map(move |(p, s)| (*p, w, s)))
            .collect();
        samples.sort_unstable_by_key(|&(p, w, _)| (p, w));
        let port_u64: [Family<PortWindow>; 5] = [
            (
                "silo_port_busy_ps",
                "wire time of transmissions started in the window (ps)",
                |s| s.busy_ps,
            ),
            ("silo_port_tx_bytes", "bytes transmitted per window", |s| {
                s.tx_bytes
            }),
            ("silo_port_drops", "tail drops per window", |s| s.drops),
            ("silo_port_ce_marks", "ECN CE marks per window", |s| {
                s.ce_marks
            }),
            (
                "silo_port_depth_bytes",
                "queued bytes at the window edge",
                |s| s.depth_bytes,
            ),
        ];
        for (name, help, get) in port_u64 {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            for &(p, w, s) in &samples {
                let (label, v) = (&self.port_labels[p], get(s));
                if v != 0 {
                    out.push_str(&format!("{name}{{port=\"{label}\"}} {v} {}\n", end(w)));
                }
            }
        }
        for (name, help, get) in [
            (
                "silo_wire_data_bytes",
                "pacer data bytes on host links per window",
                (|g: &GlobalWindow| g.wire_data_bytes) as fn(&GlobalWindow) -> u64,
            ),
            (
                "silo_wire_void_bytes",
                "pacer void bytes on host links per window",
                |g| g.wire_void_bytes,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            for (w, g) in self.global.iter().enumerate() {
                out.push_str(&format!("{name} {} {}\n", get(g), end(w)));
            }
        }
        out.push_str("# EOF\n");
        out
    }

    /// Append this log's Perfetto counter tracks (`"ph":"C"`, pid 4) to
    /// an event stream under construction — the hook
    /// [`crate::trace::TraceLog::to_perfetto_with_counters`] uses to
    /// splice telemetry into the flight-recorder export. Counters are
    /// emitted at each window's trailing edge.
    pub(crate) fn write_perfetto_counters(&self, out: &mut String, first: &mut bool) {
        let mut push = |out: &mut String, s: String| {
            if !std::mem::take(first) {
                out.push_str(",\n");
            }
            out.push_str(&s);
        };
        push(
            out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":4,\"tid\":0,\"args\":{\"name\":\"telemetry counters\"}}".to_string(),
        );
        for (t, series) in self.tenants.iter().enumerate() {
            let has_margin = series.iter().any(|s| s.margin_min_ps.is_some());
            for (w, s) in series.iter().enumerate() {
                let ts = us(((w as u64) + 1) * self.interval.as_ps());
                push(
                    out,
                    format!(
                        "{{\"name\":\"tenant{t} goodput\",\"ph\":\"C\",\"pid\":4,\"tid\":{t},\"ts\":{ts},\"args\":{{\"bytes\":{}}}}}",
                        s.goodput_bytes
                    ),
                );
                if has_margin {
                    // Margin in ns keeps Perfetto's counter value integral
                    // while preserving sign (negative = violation).
                    let m = s.margin_min_ps.map(|m| m / 1000);
                    if let Some(m) = m {
                        push(
                            out,
                            format!(
                                "{{\"name\":\"tenant{t} margin_ns\",\"ph\":\"C\",\"pid\":4,\"tid\":{t},\"ts\":{ts},\"args\":{{\"ns\":{m}}}}}",
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink(windows: u64, interval_ms: u64) -> TelemetrySink {
        TelemetrySink::new(
            &TelemetryConfig {
                interval: Dur::from_ms(interval_ms),
            },
            Dur::from_ms(windows * interval_ms),
            2,
            3,
        )
    }

    #[test]
    fn windows_close_lazily_and_conserve() {
        let mut s = sink(4, 1);
        s.tenant(Time::from_us(100), 0).goodput_bytes += 1000;
        s.tenant(Time::from_us(1500), 0).goodput_bytes += 500; // window 1
        s.msg_done(Time::from_us(1600), 0, 7_000_000, Some(-250));
        s.msg_done(Time::from_us(3999), 1, 1_000_000, None);
        s.tenant(Time::from_ms(4), 1).rtos += 1; // horizon edge clamps into window 3
        let log = s.finish(vec!["a".into(), "b".into(), "c".into()], &[]);
        assert_eq!(log.windows, 4);
        assert_eq!(log.tenants[0].len(), 4);
        assert_eq!(log.sum_goodput(0), 1500);
        assert_eq!(log.tenants[0][0].goodput_bytes, 1000);
        assert_eq!(log.tenants[0][1].goodput_bytes, 500);
        assert_eq!(log.tenants[0][1].completions, 1);
        assert_eq!(log.tenants[0][1].margin_min_ps, Some(-250));
        assert!(log.tenants[0][1].p99_latency_ps.is_some());
        assert_eq!(log.tenants[1][3].completions, 1);
        assert_eq!(
            log.tenants[1][3].rtos, 1,
            "horizon edge lands in the last window"
        );
        assert_eq!(log.sum_rtos(), 1);
    }

    #[test]
    fn port_depth_carries_across_empty_windows() {
        let mut s = sink(3, 1);
        s.port(Time::from_us(10), 1, 3000);
        s.port(Time::from_us(20), 1, 4500).ce_marks += 1;
        s.port(Time::from_us(30), 1, 4500).drops += 1; // tail drop
        let w = s.port(Time::from_us(40), 1, 3000);
        w.busy_ps += Dur::from_us(1).as_ps();
        w.tx_bytes += 1500;
        let log = s.finish(vec!["a".into(), "b".into(), "c".into()], &[]);
        assert_eq!(log.port(0, 1).drops, 1);
        assert_eq!(log.port(0, 1).ce_marks, 1);
        assert_eq!(log.port(0, 1).tx_bytes, 1500);
        // Depth at every later edge carries the last observation.
        assert_eq!(log.port(0, 1).depth_bytes, 3000);
        assert_eq!(log.port(2, 1).depth_bytes, 3000);
        assert_eq!(log.sum_drops(), 1);
    }

    #[test]
    fn fault_windows_map_onto_the_grid() {
        let s = sink(5, 1);
        let fw = |f, a_us, b_us| FaultWindow {
            fault: f,
            label: "x".into(),
            start: Time::from_us(a_us),
            end: Time::from_us(b_us),
        };
        let log = s.finish(
            vec!["a".into(), "b".into(), "c".into()],
            &[fw(0, 1500, 3500), fw(1, 2000, 2000), fw(2, 0, 1000)],
        );
        // Fault 0 spans windows 1..=3; zero-length fault 1 gets exactly
        // one window; fault 2 ends exactly on the w1 boundary and is
        // still attributed to w1 (its first instant was covered).
        assert_eq!(log.window_faults[0], vec![2]);
        assert_eq!(log.window_faults[1], vec![0, 2]);
        assert_eq!(log.window_faults[2], vec![0, 1]);
        assert_eq!(log.window_faults[3], vec![0]);
        assert!(log.window_faults[4].is_empty());
    }

    #[test]
    fn jsonl_is_deterministic_and_sparse_on_ports() {
        let mut s = sink(2, 1);
        s.tenant(Time::from_us(10), 0).goodput_bytes += 42;
        s.port(Time::from_us(10), 2, 100);
        let log = s.finish(vec!["a".into(), "b".into(), "c".into()], &[]);
        let a = log.to_jsonl();
        let b = log.to_jsonl();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"format\":\"silo-telemetry-v1\""));
        // 1 header + 2 global + 2*2 tenant + port 2 in both windows
        // (depth carries) = 9 lines.
        assert_eq!(a.lines().count(), 9);
        assert!(a.contains("\"goodput\":42"));
        assert!(a.contains("\"depth\":100"));
    }

    #[test]
    fn idle_ports_cost_a_read_log_nothing_per_window() {
        // 100 000 ports over 10 000 windows: a dense port series would be
        // 10^9 samples (40 GB) from a file of about 1.7 MB.
        let (ports, windows) = (100_000, 10_000);
        let log = TelemetryLog {
            interval: Dur::from_ms(1),
            windows,
            tenants: Vec::new(),
            window_ports: vec![Vec::new(); windows as usize],
            global: vec![GlobalWindow::default(); windows as usize],
            window_faults: vec![Vec::new(); windows as usize],
            port_labels: (0..ports).map(|p| format!("sw_p{p}")).collect(),
            self_profile: SelfProfile::default(),
        };
        let text = log.to_jsonl();
        let read = TelemetryLog::from_jsonl(&text).expect("a writer's file reads");
        assert_eq!(read.port_labels.len(), ports);
        assert!(read.window_ports.iter().all(Vec::is_empty));
        assert_eq!(read.rows().count(), windows as usize);
        assert_eq!(read.to_jsonl(), text);
    }

    #[test]
    fn openmetrics_ends_with_eof_and_timestamps_are_fixed_point() {
        let mut s = sink(2, 1);
        s.tenant(Time::from_us(10), 0).goodput_bytes += 42;
        let log = s.finish(vec!["a".into(), "b".into(), "c".into()], &[]);
        let om = log.to_openmetrics();
        assert!(om.ends_with("# EOF\n"));
        assert!(om.contains("silo_goodput_bytes{tenant=\"0\"} 42 0.001000\n"));
        assert!(om.contains("# TYPE silo_goodput_bytes gauge"));
    }

    #[test]
    fn perfetto_counters_are_well_formed() {
        let mut s = sink(1, 1);
        s.msg_done(Time::from_us(10), 0, 5_000_000, Some(2_000_000));
        let log = s.finish(vec!["a".into(), "b".into(), "c".into()], &[]);
        let (mut p, mut first) = (String::new(), true);
        log.write_perfetto_counters(&mut p, &mut first);
        assert!(!first, "the stream is no longer empty");
        assert!(p.contains("\"ph\":\"C\""));
        assert!(p.contains("tenant0 margin_ns"));
        assert!(p.contains("\"ns\":2000"));
        assert!(p.contains("telemetry counters"));
    }
}
