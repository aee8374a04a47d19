//! Simulation results: per-message records and per-tenant aggregates.

use crate::audit::AuditReport;
use crate::faults::FaultWindow;
use crate::telemetry::TelemetryLog;
use crate::trace::TraceLog;
use silo_base::{Dur, Summary, Time};

/// Sub-bucket resolution of the simulator's latency histograms (telemetry's
/// per-window p99, `sim_profile`'s per-tenant table): 32 sub-buckets per
/// octave ⇒ quantile error ≤ 3.2%, ~15 KB per histogram.
pub const LATENCY_HIST_SUB_BITS: u32 = 5;

/// Event classes the engine dispatches, for profiling (one slot per
/// `sim::Ev` variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum EvKind {
    Arrive,
    PortFree,
    NicPull,
    Rto,
    EtcArrival,
    Oldi,
    PoissonMsg,
    HoseEpoch,
    PaceResume,
    BulkStart,
    FaultStart,
    FaultEnd,
}

impl EvKind {
    pub const COUNT: usize = 12;
    pub const ALL: [EvKind; EvKind::COUNT] = [
        EvKind::Arrive,
        EvKind::PortFree,
        EvKind::NicPull,
        EvKind::Rto,
        EvKind::EtcArrival,
        EvKind::Oldi,
        EvKind::PoissonMsg,
        EvKind::HoseEpoch,
        EvKind::PaceResume,
        EvKind::BulkStart,
        EvKind::FaultStart,
        EvKind::FaultEnd,
    ];

    pub fn label(self) -> &'static str {
        match self {
            EvKind::Arrive => "arrive",
            EvKind::PortFree => "port_free",
            EvKind::NicPull => "nic_pull",
            EvKind::Rto => "rto",
            EvKind::EtcArrival => "etc_arrival",
            EvKind::Oldi => "oldi",
            EvKind::PoissonMsg => "poisson_msg",
            EvKind::HoseEpoch => "hose_epoch",
            EvKind::PaceResume => "pace_resume",
            EvKind::BulkStart => "bulk_start",
            EvKind::FaultStart => "fault_start",
            EvKind::FaultEnd => "fault_end",
        }
    }
}

/// Per-event-kind accounting of what the engine did with its events:
/// `scheduled` were pushed into the queue, `fired` were dispatched, and
/// `cancelled` were removed from the queue before firing (disarmed RTOs,
/// superseded RTOs and NIC pulls): a timer the engine never had to
/// cascade through the wheel, pop, and dispatch into a no-op. `stale`
/// counts timers that fired while their owner held no armed key. Every
/// supersede cancels or re-arms the pending timer, so it is always 0; it
/// is kept as a checked invariant (`tests/timer_cancel.rs`, `sim_profile`,
/// the benchmark's `eventq.stale`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventProfile {
    pub scheduled: [u64; EvKind::COUNT],
    pub fired: [u64; EvKind::COUNT],
    pub stale: [u64; EvKind::COUNT],
    pub cancelled: [u64; EvKind::COUNT],
}

impl EventProfile {
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled.iter().sum()
    }
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().sum()
    }
    pub fn total_stale(&self) -> u64 {
        self.stale.iter().sum()
    }
    pub fn total_cancelled(&self) -> u64 {
        self.cancelled.iter().sum()
    }

    /// Log2 buckets of the per-kind `fired` counts (`0` for zero fires,
    /// else `1 + floor(log2 n)`), the event-shape component of the
    /// schedule explorer's coverage signature. Bucketing deliberately
    /// discards exact counts: a schedule is novel when it changes the
    /// *order of magnitude* of some event class (say, 10x more RTO
    /// fires), not when noise moves a counter by one.
    pub fn fired_buckets(&self) -> [u8; EvKind::COUNT] {
        let mut out = [0u8; EvKind::COUNT];
        for (b, &n) in out.iter_mut().zip(self.fired.iter()) {
            *b = if n == 0 { 0 } else { 1 + n.ilog2() as u8 };
        }
        out
    }

    /// Accumulate another run's counts (for sweep-wide reporting).
    pub fn merge(&mut self, other: &EventProfile) {
        for i in 0..EvKind::COUNT {
            self.scheduled[i] += other.scheduled[i];
            self.fired[i] += other.fired[i];
            self.stale[i] += other.stale[i];
            self.cancelled[i] += other.cancelled[i];
        }
    }

    /// Aligned text table for `sim_profile`.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>14} {:>14} {:>14} {:>14}\n",
            "kind", "scheduled", "fired", "stale", "cancelled"
        ));
        for k in EvKind::ALL {
            let i = k as usize;
            if self.scheduled[i] + self.fired[i] + self.stale[i] + self.cancelled[i] == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<12} {:>14} {:>14} {:>14} {:>14}\n",
                k.label(),
                self.scheduled[i],
                self.fired[i],
                self.stale[i],
                self.cancelled[i]
            ));
        }
        out.push_str(&format!(
            "{:<12} {:>14} {:>14} {:>14} {:>14}\n",
            "total",
            self.total_scheduled(),
            self.total_fired(),
            self.total_stale(),
            self.total_cancelled()
        ));
        out
    }
}

/// One completed application message.
#[derive(Debug, Clone, Copy)]
pub struct MsgRecord {
    pub tenant: u16,
    /// Stream bytes.
    pub size: u64,
    /// Creation (app write) to full delivery at the receiver.
    pub latency: Dur,
    /// An RTO fired while this message was outstanding.
    pub rto: bool,
    pub created: Time,
    /// Request→response round trip, recorded on the response completion
    /// of a transaction.
    pub txn_latency: Option<Dur>,
    /// Delivered over the vswitch loopback (sender and receiver VM on the
    /// same host) — excluded from network-latency analyses.
    pub same_host: bool,
}

/// One message that completed *outside* its tenant's `{B, S, d, Bmax}`
/// latency bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    pub tenant: u16,
    /// The injected fault (plan index) whose window overlaps the
    /// message's lifetime, if any — `None` means the guarantee was broken
    /// with no fault active, which a healthy admission-controlled run
    /// must never produce.
    pub fault: Option<u32>,
    pub created: Time,
    pub completed: Time,
    pub latency: Dur,
    pub bound: Dur,
}

/// Everything a run reports.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    pub messages: Vec<MsgRecord>,
    /// Per-tenant delivered stream bytes (goodput).
    pub goodput: Vec<u64>,
    /// Total packet drops at switch ports.
    pub drops: u64,
    /// Total RTO events.
    pub rtos: u64,
    /// Simulated duration.
    pub duration: Dur,
    /// Data bytes and void bytes put on host links (pacer accounting).
    pub wire_data_bytes: u64,
    pub wire_void_bytes: u64,
    /// Per-port utilization fractions (indexed by `PortId.0`).
    pub port_utilization: Vec<f64>,
    /// Per-port drop counts (indexed by `PortId.0`).
    pub port_drops: Vec<u64>,
    /// Per-port queue high-water marks in bytes (indexed by `PortId.0`) —
    /// directly comparable to the placement manager's backlog bounds.
    pub port_max_queue: Vec<u64>,
    /// Instant each port first reached its `port_max_queue` (indexed
    /// alike). Like `profile`, absent from both serializations: it locates
    /// a peak, it is not an outcome.
    pub port_max_at: Vec<Time>,
    /// Engine events dispatched inside the horizon (throughput
    /// denominator for events/sec reporting).
    pub events_processed: u64,
    /// High-water mark of the pending-event queue.
    pub peak_event_queue: u64,
    /// Realized windows of the run's injected faults (empty without a
    /// fault plan).
    pub fault_windows: Vec<FaultWindow>,
    /// Packets black-holed by each fault, indexed like
    /// `FaultPlan::events` (empty without a fault plan).
    pub fault_drops: Vec<u64>,
    /// Messages delivered outside their tenant's latency bound, each
    /// attributed to the overlapping fault where one exists.
    pub violations: Vec<Violation>,
    /// Token-bucket conservation violations observed by the pacer's
    /// release-mode invariant check (see `silo_pacer::TokenBucket`).
    /// Always checked; any non-zero value is a pacer bug.
    pub token_violations: u64,
    /// Per-event-kind scheduled/fired/stale/cancelled counts. Engine
    /// introspection only: deliberately absent from both serializations
    /// below, so profiles may differ between equivalent engine
    /// configurations without breaking fingerprint comparisons.
    pub profile: EventProfile,
    /// Invariant-audit results; `Some` iff the run set `SimConfig::audit`.
    /// Like `profile`, deliberately absent from both serializations: the
    /// audit layer observes the run without becoming part of its
    /// fingerprint, so audited and unaudited runs stay byte-comparable.
    pub audit: Option<AuditReport>,
    /// Flight-recorder trace; `Some` iff the run set `SimConfig::trace`.
    /// Same serialization discipline as `audit`: never part of the
    /// fingerprint (it has its own exporters — see [`TraceLog`]).
    pub trace: Option<TraceLog>,
    /// Windowed telemetry; `Some` iff the run set `SimConfig::telemetry`.
    /// Same serialization discipline as `audit`/`trace`: never part of
    /// the fingerprint (it has its own exporters — see [`TelemetryLog`]).
    pub telemetry: Option<TelemetryLog>,
    /// Every message ever completed: `messages.len()`, kept as a field
    /// for readers of the count. Excluded from the serializations (engine
    /// bookkeeping).
    pub messages_total: u64,
}

impl Metrics {
    /// Record one completed message.
    pub(crate) fn record_message(&mut self, rec: MsgRecord) {
        self.messages_total += 1;
        self.messages.push(rec);
    }

    /// Message latencies of one tenant, in microseconds.
    pub fn latencies_us(&self, tenant: u16) -> Summary {
        let mut s = Summary::new();
        s.extend(
            self.messages
                .iter()
                .filter(|m| m.tenant == tenant)
                .map(|m| m.latency.as_us_f64()),
        );
        s
    }

    /// Transaction (request→response) latencies of one tenant, µs.
    pub fn txn_latencies_us(&self, tenant: u16) -> Summary {
        let mut s = Summary::new();
        s.extend(
            self.messages
                .iter()
                .filter(|m| m.tenant == tenant)
                .filter_map(|m| m.txn_latency.map(|d| d.as_us_f64())),
        );
        s
    }

    /// Exact canonical serialization of a run's results. Every field is
    /// emitted with a fixed order and an exact representation (times in
    /// integer picoseconds, floats via Rust's shortest round-trip
    /// formatting), so two runs produced the same results **iff** their
    /// serializations are byte-identical — the comparison the determinism
    /// tests rely on. Hand-rolled: the workspace is dependency-free.
    pub fn canonical_json(&self) -> String {
        self.serialize(true)
    }

    /// [`Metrics::canonical_json`] minus the engine bookkeeping counters
    /// (`events_processed`, `peak_event_queue`). Those counters describe
    /// how the engine *got* to the answer, not the answer: timer
    /// cancellation legitimately changes them while leaving every
    /// physical observable untouched. The golden-equivalence
    /// suites compare this serialization across engine configurations.
    pub fn physics_json(&self) -> String {
        self.serialize(false)
    }

    fn serialize(&self, engine_counters: bool) -> String {
        let mut out = String::with_capacity(64 * self.messages.len() + 1024);
        out.push_str("{\"messages\":[");
        for (i, m) in self.messages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tenant\":{},\"size\":{},\"latency_ps\":{},\"rto\":{},\"created_ps\":{},\"txn_ps\":{},\"same_host\":{}}}",
                m.tenant,
                m.size,
                m.latency.0,
                m.rto,
                m.created.0,
                m.txn_latency.map_or("null".to_string(), |d| d.0.to_string()),
                m.same_host,
            ));
        }
        out.push_str("],");
        fn num_list<T: std::fmt::Debug>(out: &mut String, key: &str, xs: &[T]) {
            out.push_str(&format!("\"{key}\":["));
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{x:?}"));
            }
            out.push_str("],");
        }
        num_list(&mut out, "goodput", &self.goodput);
        out.push_str(&format!(
            "\"drops\":{},\"rtos\":{},\"duration_ps\":{},\"wire_data_bytes\":{},\"wire_void_bytes\":{},",
            self.drops, self.rtos, self.duration.0, self.wire_data_bytes, self.wire_void_bytes,
        ));
        num_list(&mut out, "port_utilization", &self.port_utilization);
        num_list(&mut out, "port_drops", &self.port_drops);
        num_list(&mut out, "port_max_queue", &self.port_max_queue);
        if engine_counters {
            out.push_str(&format!(
                "\"events_processed\":{},\"peak_event_queue\":{}",
                self.events_processed, self.peak_event_queue,
            ));
        } else {
            // Drop the trailing comma `num_list` left; the optional fault
            // section below re-introduces its own separator.
            out.pop();
        }
        // Fault-layer fields are emitted only when present, so a run with
        // an empty `FaultPlan` (and a conservation-clean pacer) stays
        // byte-identical to the pre-fault-layer serialization.
        if !self.fault_windows.is_empty() || !self.violations.is_empty() {
            out.push_str(",\"fault_windows\":[");
            for (i, w) in self.fault_windows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"fault\":{},\"label\":\"{}\",\"start_ps\":{},\"end_ps\":{}}}",
                    w.fault, w.label, w.start.0, w.end.0,
                ));
            }
            out.push_str("],");
            num_list(&mut out, "fault_drops", &self.fault_drops);
            out.push_str("\"violations\":[");
            for (i, v) in self.violations.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"tenant\":{},\"fault\":{},\"created_ps\":{},\"completed_ps\":{},\"latency_ps\":{},\"bound_ps\":{}}}",
                    v.tenant,
                    v.fault.map_or("null".to_string(), |f| f.to_string()),
                    v.created.0,
                    v.completed.0,
                    v.latency.0,
                    v.bound.0,
                ));
            }
            out.push(']');
        }
        if self.token_violations > 0 {
            out.push_str(&format!(",\"token_violations\":{}", self.token_violations));
        }
        out.push('}');
        out
    }

    /// Per-tenant guarantee-violation windows, one merged `(fault, start,
    /// end)` interval set per attributed fault: the spans of wall-clock
    /// time during which the tenant's delivered messages were outside
    /// their bound. Overlapping or touching violation lifetimes with the
    /// same attribution merge into one window.
    pub fn violation_windows(&self, tenant: u16) -> Vec<(Option<u32>, Time, Time)> {
        let mut spans: Vec<(Option<u32>, Time, Time)> = self
            .violations
            .iter()
            .filter(|v| v.tenant == tenant)
            .map(|v| (v.fault, v.created, v.completed))
            .collect();
        spans.sort_by_key(|&(f, s, e)| (f, s, e));
        let mut merged: Vec<(Option<u32>, Time, Time)> = Vec::new();
        for (f, s, e) in spans {
            if let Some(last) = merged.last_mut() {
                if last.0 == f && s <= last.2 {
                    last.2 = last.2.max(e);
                    continue;
                }
            }
            merged.push((f, s, e));
        }
        merged
    }

    /// Violations of one tenant whose message lifetime began after `t`
    /// (e.g. after a fault healed — must be empty for a re-admitted
    /// tenant once the network recovers).
    pub fn violations_after(&self, tenant: u16, t: Time) -> usize {
        self.violations
            .iter()
            .filter(|v| v.tenant == tenant && v.created >= t)
            .count()
    }

    /// Per-tenant stats table.
    pub fn tenant_stats(&self, tenant: u16) -> TenantStats {
        let msgs: Vec<&MsgRecord> = self
            .messages
            .iter()
            .filter(|m| m.tenant == tenant)
            .collect();
        let total = msgs.len();
        let rto = msgs.iter().filter(|m| m.rto).count();
        TenantStats {
            tenant,
            messages: total,
            rto_messages: rto,
            goodput_bps: self
                .goodput
                .get(tenant as usize)
                .map(|&b| b as f64 * 8.0 / self.duration.as_secs_f64().max(1e-12))
                .unwrap_or(0.0),
        }
    }
}

/// Aggregate numbers for one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantStats {
    pub tenant: u16,
    pub messages: usize,
    pub rto_messages: usize,
    pub goodput_bps: f64,
}

impl TenantStats {
    /// Fraction of messages that suffered an RTO (Fig. 13's metric).
    pub fn rto_fraction(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.rto_messages as f64 / self.messages as f64
        }
    }
}
