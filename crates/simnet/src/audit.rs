//! silo-audit: a flag-gated invariant-audit layer for the packet simulator.
//!
//! When [`crate::SimConfig::audit`] is set, the engine feeds every queue and
//! wire operation through an audit sink that checks, per event:
//!
//! * **byte conservation** — at every port, bytes in − bytes out must equal
//!   the bytes currently queued, after every enqueue, dequeue and flush;
//! * **FIFO causality** — a packet never departs a port before it arrived
//!   (per priority class, since the scheduler is strict-priority over two
//!   FIFO queues);
//! * **wire exclusivity** — successive frames released by one NIC (data and
//!   voids alike) occupy disjoint wire intervals: each frame starts no
//!   earlier than the previous frame finished;
//! * **token-bucket conformance** — each paced VM's *wire-level* release
//!   schedule conforms to its admitted `{B, S}` and `{Bmax, MTU}` arrival
//!   curves, measured by reference meters at the instant the first bit hits
//!   the wire (strictly stronger than auditing stamp generation: it also
//!   covers the batcher and the NIC release path);
//! * **queue bounds** — measured per-port backlog never exceeds the
//!   admission-time bound supplied in [`AuditConfig::port_bounds`] (when
//!   one is supplied; the placement crate computes these).
//!
//! Like every observer it is pure observation; the engine reaches it only
//! through the observation spine (`observe.rs`).
//!
//! Violations are attributed to injected faults when they fall inside a
//! fault's realized window (plus [`ATTRIBUTION_SLACK`], which
//! covers the backlog-drain tail after e.g. a pacer stall ends). A healthy
//! run, or a faulty run whose every violation is explained by an injected
//! fault, reports `unattributed == 0` — the property CI enforces over the
//! whole fault suite.
//!
//! ## Why the conformance meters clamp
//!
//! A pacer stall releases the stalled backlog back-to-back at line rate.
//! A plain token bucket would record that burst as unbounded *debt* and —
//! because refill and long-run drain rate are equal — keep flagging every
//! subsequent packet forever, long after the fault window. The audit meter
//! instead clamps back to the bucket floor after recording a violation, so
//! exactly the non-conformant excess is flagged and the meter re-converges
//! once the sender is conformant again.

use crate::faults::FaultWindow;
use silo_base::{Bytes, Dur, Rate, Time};
use std::collections::VecDeque;

/// Tolerance on meter levels, in bytes. Commit instants are exact integer
/// picoseconds but refill is computed in `f64`; one milli-byte absorbs the
/// rounding without masking any real violation (the smallest possible
/// excess is one 84-byte frame).
const METER_TOL_BYTES: f64 = 1e-3;

/// How long after a fault window closes a violation is still attributed
/// to that fault. Covers the drain of backlog accumulated during the
/// window (e.g. a stalled pacer's queue flushing at line rate).
pub const ATTRIBUTION_SLACK: Dur = Dur::from_ms(5);

/// NIC scheduling-delay allowance for the conformance meters. A VM's
/// wire schedule is its (exactly conformant) stamp schedule with each
/// frame delayed by up to the NIC's transient backlog: in-batch
/// sequencing behind other VMs' frames, void-frame rounding, and
/// cross-VM burst collisions draining at line rate. Order-preserved
/// delay of at most `D` inflates the apparent burst by at most
/// `rate · D`, so each meter's capacity is raised by that much — the
/// wire-level analogue of the one-batch-window slack the queue-bound
/// check absorbs. Batching-scale jitter (µs) passes; fault-scale
/// bursts (a stalled pacer releasing milliseconds of backlog) still
/// overflow it.
pub const CONFORMANCE_SLACK: Dur = Dur::from_us(500);

/// Cap on retained violation details; counters keep exact totals.
pub const DETAIL_CAP: usize = 64;

/// Configuration of the audit layer (attach via `SimConfig::audit`).
#[derive(Debug, Clone, Default)]
pub struct AuditConfig {
    /// Per-port backlog bounds in bytes, indexed by `PortId`. `None` (or an
    /// index past the end) disables the bound check for that port. Callers
    /// verifying the placement theorem fill this from
    /// `SiloPlacer::backlog_bounds()` plus a batching slack.
    pub port_bounds: Vec<Option<u64>>,
}

/// Which invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// Port byte ledger disagrees with the queue's own byte count.
    Conservation,
    /// A packet departed before it arrived (or departed untracked).
    FifoCausality,
    /// A NIC frame started before the previous frame finished.
    WireOverlap,
    /// A VM's wire schedule exceeded its admitted arrival curve.
    Conformance,
    /// Measured backlog exceeded the configured admission-time bound.
    QueueBound,
}

impl AuditKind {
    pub fn label(self) -> &'static str {
        match self {
            AuditKind::Conservation => "conservation",
            AuditKind::FifoCausality => "fifo-causality",
            AuditKind::WireOverlap => "wire-overlap",
            AuditKind::Conformance => "conformance",
            AuditKind::QueueBound => "queue-bound",
        }
    }
}

/// One audit violation (retained up to [`DETAIL_CAP`]; counters are exact).
#[derive(Debug, Clone)]
pub struct AuditViolation {
    pub kind: AuditKind,
    pub at: Time,
    /// Port involved, if the check is port-local.
    pub port: Option<u32>,
    /// VM involved, for conformance checks.
    pub vm: Option<u32>,
    /// Index into the fault plan if the violation falls inside a realized
    /// fault window (plus slack); `None` means unexplained.
    pub fault: Option<u32>,
    pub detail: String,
}

/// Aggregated audit results, copied into `Metrics::audit` at run end.
///
/// Never serialized into physics or canonical JSON: audit output must not
/// perturb golden-schedule comparisons.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Operations checked (enqueues + dequeues + flushes + wire frames).
    pub events_checked: u64,
    pub conservation: u64,
    pub fifo: u64,
    pub wire_overlap: u64,
    pub conformance: u64,
    pub queue_bound: u64,
    /// Release-causality counter folded in from the NIC batchers
    /// ([`silo_pacer::PacedBatcher::early_releases`]); always zero for a
    /// correct batcher and *not* part of [`AuditReport::total`].
    pub early_releases: u64,
    /// Violations inside a fault window (+ slack).
    pub attributed: u64,
    /// Violations no injected fault explains — the CI-gated number.
    pub unattributed: u64,
    pub details: Vec<AuditViolation>,
}

impl AuditReport {
    /// Total violations across all invariant classes.
    pub fn total(&self) -> u64 {
        self.conservation + self.fifo + self.wire_overlap + self.conformance + self.queue_bound
    }

    /// No violations of any kind, including batcher early releases.
    pub fn is_clean(&self) -> bool {
        self.total() == 0 && self.early_releases == 0
    }

    /// The violation-counter vector in a fixed order, for coverage
    /// signatures: `[conservation, fifo, wire_overlap, conformance,
    /// queue_bound, early_releases, attributed, unattributed]`. The
    /// schedule explorer log2-buckets these, so two schedules tripping
    /// the same invariant classes at the same magnitude collapse to one
    /// frontier entry.
    pub fn counters(&self) -> [u64; 8] {
        [
            self.conservation,
            self.fifo,
            self.wire_overlap,
            self.conformance,
            self.queue_bound,
            self.early_releases,
            self.attributed,
            self.unattributed,
        ]
    }

    /// One-line summary for benchmark / fault-suite output.
    pub fn summary(&self) -> String {
        format!(
            "audit: {} events, {} violations ({} attributed, {} unattributed) \
             [conservation {}, fifo {}, wire {}, conformance {}, queue-bound {}], \
             early releases {}",
            self.events_checked,
            self.total(),
            self.attributed,
            self.unattributed,
            self.conservation,
            self.fifo,
            self.wire_overlap,
            self.conformance,
            self.queue_bound,
            self.early_releases
        )
    }
}

/// Reference token-bucket meter that records violations and then clamps
/// back to the floor (see module docs for why clamping is the right
/// semantics for an *observer*).
#[derive(Debug, Clone)]
struct CurveMeter {
    rate: f64, // bytes/sec
    cap: f64,  // bytes
    tokens: f64,
    last: Time,
}

impl CurveMeter {
    fn new(rate: Rate, cap: Bytes) -> CurveMeter {
        CurveMeter {
            rate: rate.bytes_per_sec(),
            cap: cap.as_f64(),
            tokens: cap.as_f64(),
            last: Time::ZERO,
        }
    }

    fn reset(&mut self, now: Time) {
        self.tokens = self.cap;
        self.last = now;
    }

    /// Commit `size` bytes at `t`; returns `false` on non-conformance.
    /// Mirrors `silo_pacer::TokenBucket::commit`: a packet may finish below
    /// zero only by its own overhang past the capacity (packets larger than
    /// the burst cap still pass one at a time at the sustained rate).
    fn commit(&mut self, t: Time, size: f64) -> bool {
        if t > self.last {
            self.tokens =
                (self.tokens + self.rate * t.since(self.last).as_secs_f64()).min(self.cap);
            self.last = t;
        }
        self.tokens -= size;
        let floor = -(size - self.cap).max(0.0);
        if self.tokens < floor - METER_TOL_BYTES {
            self.tokens = floor;
            return false;
        }
        true
    }
}

/// Per-VM admitted curve parameters, for building conformance meters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VmCurve {
    pub b: Rate,
    pub s: Bytes,
    pub bmax: Rate,
}

/// The audit state threaded through the engine. All methods are observers;
/// none returns anything the engine acts on.
#[derive(Debug)]
pub(crate) struct AuditSink {
    cfg: AuditConfig,
    report: AuditReport,
    /// Per-port cumulative bytes accepted into the queue.
    in_bytes: Vec<u64>,
    /// Per-port cumulative bytes removed (transmitted or flushed).
    out_bytes: Vec<u64>,
    /// Shadow arrival-time FIFOs per port, one per priority class.
    shadows: Vec<[VecDeque<Time>; 2]>,
    /// Per-VM `{B,S}` and `{Bmax,MTU}` wire-level meters.
    meters: Vec<[CurveMeter; 2]>,
    /// Per-host wire frontier: end of the last frame released by that NIC.
    wire_frontier: Vec<Time>,
    /// The run's realized fault windows.
    windows: Vec<FaultWindow>,
    /// Violation details retained at most ([`DETAIL_CAP`] outside tests).
    detail_cap: usize,
}

impl AuditSink {
    /// `cslack` is [`CONFORMANCE_SLACK`] outside this module's tests.
    pub fn new(
        cfg: AuditConfig,
        nports: usize,
        nhosts: usize,
        vms: &[VmCurve],
        mtu: Bytes,
        windows: Vec<FaultWindow>,
        cslack: Dur,
    ) -> AuditSink {
        AuditSink {
            cfg,
            report: AuditReport::default(),
            in_bytes: vec![0; nports],
            out_bytes: vec![0; nports],
            shadows: (0..nports)
                .map(|_| [VecDeque::new(), VecDeque::new()])
                .collect(),
            meters: vms
                .iter()
                .map(|v| {
                    // Burst allowance inflated by rate × the slack (see
                    // `CONFORMANCE_SLACK`).
                    [
                        CurveMeter::new(v.b, v.s + v.b.bytes_in(cslack)),
                        CurveMeter::new(v.bmax, mtu + v.bmax.bytes_in(cslack)),
                    ]
                })
                .collect(),
            wire_frontier: vec![Time::ZERO; nhosts],
            windows,
            detail_cap: DETAIL_CAP,
        }
    }

    fn violation(
        &mut self,
        kind: AuditKind,
        at: Time,
        port: Option<u32>,
        vm: Option<u32>,
        detail: String,
    ) {
        let fault = self
            .windows
            .iter()
            .find(|w| w.overlaps(at, at, ATTRIBUTION_SLACK))
            .map(|w| w.fault);
        match kind {
            AuditKind::Conservation => self.report.conservation += 1,
            AuditKind::FifoCausality => self.report.fifo += 1,
            AuditKind::WireOverlap => self.report.wire_overlap += 1,
            AuditKind::Conformance => self.report.conformance += 1,
            AuditKind::QueueBound => self.report.queue_bound += 1,
        }
        if fault.is_some() {
            self.report.attributed += 1;
        } else {
            self.report.unattributed += 1;
        }
        if self.report.details.len() < self.detail_cap {
            self.report.details.push(AuditViolation {
                kind,
                at,
                port,
                vm,
                fault,
                detail,
            });
        }
    }

    fn check_conservation(&mut self, now: Time, port: usize, queued: u64) {
        let ledger = self.in_bytes[port].wrapping_sub(self.out_bytes[port]);
        if ledger != queued {
            self.violation(
                AuditKind::Conservation,
                now,
                Some(port as u32),
                None,
                format!("ledger {ledger} B vs queue {queued} B"),
            );
        }
    }

    /// An enqueue attempt at `port` finished; `queued` is the queue's byte
    /// count *after* the attempt. Rejected (tail-dropped) packets never
    /// enter the ledger.
    pub fn on_enqueue(
        &mut self,
        now: Time,
        port: usize,
        size: u64,
        prio: usize,
        queued: u64,
        accepted: bool,
    ) {
        self.report.events_checked += 1;
        if accepted {
            self.in_bytes[port] += size;
            self.shadows[port][prio].push_back(now);
            if let Some(Some(bound)) = self.cfg.port_bounds.get(port) {
                if queued > *bound {
                    let bound = *bound;
                    self.violation(
                        AuditKind::QueueBound,
                        now,
                        Some(port as u32),
                        None,
                        format!("backlog {queued} B exceeds bound {bound} B"),
                    );
                }
            }
        }
        self.check_conservation(now, port, queued);
    }

    /// A packet left `port` for transmission (`queued` = bytes remaining).
    pub fn on_dequeue(&mut self, now: Time, port: usize, size: u64, prio: usize, queued: u64) {
        self.report.events_checked += 1;
        self.out_bytes[port] += size;
        match self.shadows[port][prio].pop_front() {
            None => self.violation(
                AuditKind::FifoCausality,
                now,
                Some(port as u32),
                None,
                "departure with empty shadow FIFO".into(),
            ),
            Some(arrived) if now < arrived => {
                let lead = arrived.since(now);
                self.violation(
                    AuditKind::FifoCausality,
                    now,
                    Some(port as u32),
                    None,
                    format!("departed {:.1} ns before arrival", lead.as_ns_f64()),
                );
            }
            Some(_) => {}
        }
        self.check_conservation(now, port, queued);
    }

    /// A packet was discarded from `port` by a fault flush (link down).
    /// Same ledger/shadow bookkeeping as a dequeue, but no causality check:
    /// the packet dies in place rather than departing.
    pub fn on_flush(&mut self, now: Time, port: usize, size: u64, prio: usize, queued: u64) {
        self.report.events_checked += 1;
        self.out_bytes[port] += size;
        if self.shadows[port][prio].pop_front().is_none() {
            self.violation(
                AuditKind::FifoCausality,
                now,
                Some(port as u32),
                None,
                "flush with empty shadow FIFO".into(),
            );
        }
        self.check_conservation(now, port, queued);
    }

    /// A frame (data or void) was released onto `host`'s NIC wire.
    pub fn on_wire_frame(&mut self, host: usize, start: Time, size: Bytes, link: Rate) {
        self.report.events_checked += 1;
        let frontier = self.wire_frontier[host];
        if start < frontier {
            let overlap = frontier.since(start);
            self.violation(
                AuditKind::WireOverlap,
                start,
                None,
                None,
                format!(
                    "host {host}: frame starts {:.1} ns inside previous frame",
                    overlap.as_ns_f64()
                ),
            );
        }
        self.wire_frontier[host] = start.max(frontier) + link.tx_time(size);
    }

    /// A *data* frame from `vm` hit the wire at `start`: commit both
    /// conformance meters against the admitted curve.
    pub fn on_wire_data(&mut self, start: Time, vm: usize, size: Bytes) {
        let sz = size.as_f64();
        let over_bs = !self.meters[vm][0].commit(start, sz);
        let over_max = !self.meters[vm][1].commit(start, sz);
        if over_bs || over_max {
            let which = match (over_bs, over_max) {
                (true, true) => "{B,S} and {Bmax,MTU}",
                (true, false) => "{B,S}",
                _ => "{Bmax,MTU}",
            };
            self.violation(
                AuditKind::Conformance,
                start,
                None,
                Some(vm as u32),
                format!("wire release of {} B exceeds {which} curve", size.as_u64()),
            );
        }
    }

    /// A tenant was (re)admitted: its token buckets restart full, so the
    /// reference meters must too.
    pub fn reset_vm(&mut self, now: Time, vm: usize) {
        for m in &mut self.meters[vm] {
            m.reset(now);
        }
    }

    /// Finalize: fold in the batchers' early-release count and emit the
    /// report.
    pub fn finish(mut self, early_releases: u64) -> AuditReport {
        self.report.early_releases = early_releases;
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit-test sinks pass no conformance slack (the last argument), so
    /// meter boundaries sit exactly at the admitted `{B, S, Bmax}`
    /// parameters.
    fn sink_with(windows: Vec<FaultWindow>) -> AuditSink {
        let vms = [VmCurve {
            b: Rate::from_mbps(500),
            s: Bytes::from_kb(15),
            bmax: Rate::from_gbps(1),
        }];
        AuditSink::new(
            AuditConfig::default(),
            4,
            2,
            &vms,
            Bytes(1500),
            windows,
            Dur::ZERO,
        )
    }

    #[test]
    fn balanced_ledger_is_clean() {
        let mut a = sink_with(vec![]);
        a.on_enqueue(Time::from_us(1), 0, 1500, 0, 1500, true);
        a.on_dequeue(Time::from_us(2), 0, 1500, 0, 0);
        let r = a.finish(0);
        assert!(r.is_clean(), "{}", r.summary());
        assert_eq!(r.events_checked, 2);
    }

    #[test]
    fn ledger_mismatch_is_conservation_violation() {
        let mut a = sink_with(vec![]);
        // Engine claims 3000 B queued after accepting one 1500 B packet.
        a.on_enqueue(Time::from_us(1), 0, 1500, 0, 3000, true);
        let r = a.finish(0);
        assert_eq!(r.conservation, 1);
        assert_eq!(r.unattributed, 1);
        assert_eq!(r.details[0].kind, AuditKind::Conservation);
    }

    #[test]
    fn rejected_enqueue_leaves_ledger_alone() {
        let mut a = sink_with(vec![]);
        a.on_enqueue(Time::from_us(1), 0, 1500, 0, 1500, true);
        a.on_enqueue(Time::from_us(2), 0, 9000, 0, 1500, false); // tail drop
        a.on_dequeue(Time::from_us(3), 0, 1500, 0, 0);
        assert!(a.finish(0).is_clean());
    }

    #[test]
    fn departure_before_arrival_is_fifo_violation() {
        let mut a = sink_with(vec![]);
        a.on_enqueue(Time::from_us(10), 0, 1500, 0, 1500, true);
        a.on_dequeue(Time::from_us(5), 0, 1500, 0, 0);
        let r = a.finish(0);
        assert_eq!(r.fifo, 1);
    }

    #[test]
    fn priority_classes_have_independent_fifo_order() {
        let mut a = sink_with(vec![]);
        // prio-1 packet arrives first, prio-0 second; strict priority
        // dequeues prio-0 first — legal, and the shadows must agree.
        a.on_enqueue(Time::from_us(1), 0, 100, 1, 100, true);
        a.on_enqueue(Time::from_us(2), 0, 200, 0, 300, true);
        a.on_dequeue(Time::from_us(3), 0, 200, 0, 100);
        a.on_dequeue(Time::from_us(4), 0, 100, 1, 0);
        assert!(a.finish(0).is_clean());
    }

    #[test]
    fn overlapping_wire_frames_are_flagged() {
        let mut a = sink_with(vec![]);
        let link = Rate::from_gbps(10);
        a.on_wire_frame(0, Time::from_us(1), Bytes(1500), link);
        // 1500 B at 10G = 1.2 us; starting 0.5 us later overlaps.
        a.on_wire_frame(0, Time::from_us(1) + Dur::from_ns(500), Bytes(84), link);
        // A different host's NIC is an independent wire.
        a.on_wire_frame(1, Time::from_us(1) + Dur::from_ns(500), Bytes(84), link);
        let r = a.finish(0);
        assert_eq!(r.wire_overlap, 1);
    }

    #[test]
    fn conformant_wire_schedule_passes_meters() {
        let mut a = sink_with(vec![]);
        // 1500 B every 3 ms = 4 Mbps << 500 Mbps sustained; spacing 3 ms
        // also respects the 1 Gbps burst cap's MTU bucket.
        for i in 0..100u64 {
            a.on_wire_data(Time::from_ms(3 * i), 0, Bytes(1500));
        }
        assert!(a.finish(0).is_clean());
    }

    #[test]
    fn line_rate_burst_violates_and_meter_recovers() {
        let mut a = sink_with(vec![]);
        // 40 MTU packets back-to-back at 10G blow through S = 15 KB.
        let link = Rate::from_gbps(10);
        let mut t = Time::from_ms(1);
        for _ in 0..40 {
            a.on_wire_data(t, 0, Bytes(1500));
            t += link.tx_time(Bytes(1500));
        }
        let burst_violations = a.report.conformance;
        assert!(burst_violations > 0);
        // After 2 s of silence the clamped meter has refilled; a lone
        // conformant packet must not be flagged.
        a.on_wire_data(t + Dur::from_secs(2), 0, Bytes(1500));
        let r = a.finish(0);
        assert_eq!(r.conformance, burst_violations, "meter did not recover");
    }

    #[test]
    fn conformance_slack_absorbs_batching_jitter() {
        // Same 12-packet Bmax-paced salvo, but with every gap compressed
        // by 1 µs (frames delayed by NIC batching, later ones less so).
        // With zero slack that violates; with a 20 µs allowance it passes,
        // while a fault-scale burst (all 12 back-to-back at 10G) does not.
        let vms = [VmCurve {
            b: Rate::from_mbps(500),
            s: Bytes::from_kb(15),
            bmax: Rate::from_gbps(1),
        }];
        let gap = Rate::from_gbps(1).tx_time(Bytes(1500));
        let jittered = |slack: Dur| {
            let cfg = AuditConfig::default();
            let mut a = AuditSink::new(cfg, 1, 1, &vms, Bytes(1500), vec![], slack);
            let mut t = Time::from_ms(1);
            for _ in 0..12 {
                a.on_wire_data(t, 0, Bytes(1500));
                t = t + gap - Dur::from_us(1);
            }
            a.finish(0).conformance
        };
        assert!(jittered(Dur::ZERO) > 0, "compressed gaps overdraw Bmax");
        assert_eq!(jittered(Dur::from_us(20)), 0, "slack absorbs the jitter");
        let cfg = AuditConfig::default();
        let mut a = AuditSink::new(cfg, 1, 1, &vms, Bytes(1500), vec![], Dur::from_us(20));
        let wire_gap = Rate::from_gbps(10).tx_time(Bytes(1500));
        let mut t = Time::from_ms(1);
        for _ in 0..12 {
            a.on_wire_data(t, 0, Bytes(1500));
            t += wire_gap;
        }
        assert!(
            a.finish(0).conformance > 0,
            "a line-rate burst must still overflow the allowance"
        );
    }

    #[test]
    fn queue_bound_checked_only_where_configured() {
        let cfg = AuditConfig {
            port_bounds: vec![Some(2000), None],
        };
        let mut a = AuditSink::new(cfg, 4, 1, &[], Bytes(1500), vec![], Dur::ZERO);
        a.on_enqueue(Time::from_us(1), 0, 1500, 0, 1500, true);
        a.on_enqueue(Time::from_us(2), 0, 1500, 0, 3000, true); // over bound
        a.on_enqueue(Time::from_us(3), 1, 9000, 0, 9000, true); // unbounded
        a.on_enqueue(Time::from_us(4), 3, 9000, 0, 9000, true); // past vector end
        let r = a.finish(0);
        assert_eq!(r.queue_bound, 1);
    }

    #[test]
    fn violations_inside_fault_windows_are_attributed() {
        let w = vec![FaultWindow {
            fault: 2,
            label: "link_down(0)".into(),
            start: Time::from_ms(10),
            end: Time::from_ms(20),
        }];
        let mut a = sink_with(w);
        // Inside the window.
        a.on_enqueue(Time::from_ms(15), 0, 100, 0, 999, true);
        // Within slack (5 ms) after the window.
        a.on_enqueue(Time::from_ms(24), 1, 100, 0, 999, true);
        // Well past the slack.
        a.on_enqueue(Time::from_ms(40), 2, 100, 0, 999, true);
        let r = a.finish(0);
        assert_eq!(r.conservation, 3);
        assert_eq!(r.attributed, 2);
        assert_eq!(r.unattributed, 1);
        assert_eq!(r.details[0].fault, Some(2));
        assert_eq!(r.details[2].fault, None);
    }

    #[test]
    fn tenant_readmission_refills_meters() {
        // A burst must respect Bmax too: pace the salvo at the burst rate
        // (1500 B at 1 Gbps = 12 µs spacing).
        let gap = Rate::from_gbps(1).tx_time(Bytes(1500));
        let salvo = |a: &mut AuditSink, t0: Time| {
            for i in 0..12u64 {
                a.on_wire_data(t0 + gap.mul_f64(i as f64), 0, Bytes(1500));
            }
        };
        let t0 = Time::from_ms(1);
        let t1 = t0 + gap.mul_f64(12.0);
        // Control: a second back-to-back salvo overdraws S = 15 KB.
        let mut a = sink_with(vec![]);
        salvo(&mut a, t0);
        assert_eq!(a.report.conformance, 0, "one paced salvo is admitted");
        salvo(&mut a, t1);
        assert!(a.report.conformance > 0);
        // With a readmission reset in between, the same schedule is clean.
        let mut b = sink_with(vec![]);
        salvo(&mut b, t0);
        b.reset_vm(t1, 0);
        salvo(&mut b, t1);
        assert_eq!(b.finish(0).conformance, 0);
    }

    #[test]
    fn detail_cap_limits_memory_not_counters() {
        let cfg = AuditConfig::default();
        let mut a = AuditSink::new(cfg, 1, 1, &[], Bytes(1500), vec![], Dur::ZERO);
        a.detail_cap = 3;
        for i in 0..10 {
            a.on_enqueue(Time::from_us(i), 0, 1, 0, 12345, true);
        }
        let r = a.finish(0);
        assert_eq!(r.conservation, 10);
        assert_eq!(r.details.len(), 3);
    }

    #[test]
    fn early_releases_fold_into_report() {
        let r = sink_with(vec![]).finish(7);
        assert_eq!(r.early_releases, 7);
        assert!(!r.is_clean());
        assert_eq!(r.total(), 0, "early releases are tracked separately");
    }

    #[test]
    fn oversized_packet_passes_at_sustained_rate() {
        // A packet larger than S is legal one-at-a-time (floor semantics
        // mirror the engine's TokenBucket), but two back-to-back are not.
        let vms = [VmCurve {
            b: Rate::from_mbps(500),
            s: Bytes(1000),
            bmax: Rate::from_gbps(10),
        }];
        let cfg = AuditConfig::default();
        let mut a = AuditSink::new(cfg, 1, 1, &vms, Bytes(9000), vec![], Dur::ZERO);
        a.on_wire_data(Time::from_ms(1), 0, Bytes(9000));
        assert_eq!(a.report.conformance, 0);
        a.on_wire_data(Time::from_ms(1) + Dur::from_us(8), 0, Bytes(9000));
        assert_eq!(a.report.conformance, 1);
    }
}
