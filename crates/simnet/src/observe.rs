//! The observation spine: the engine's one way to tell its observers what
//! happened.
//!
//! `Sim` holds one [`Observers`] and calls it once per lifecycle point
//! (port enqueue, wire start, NIC frame, delivery, …) with values it
//! already has. Which consumer receives what (audit, flight recorder,
//! windowed telemetry) is decided here, and nowhere in the engine:
//! packet-identity labels, data-only token and queue waits, ACKs left out
//! of conformance, void runs re-expanded into wire chunks only for the
//! consumers that read chunks, port labels at the end. DESIGN.md ("one
//! observation spine") has the table of points, consumers and payloads
//! this module implements.
//!
//! **Purity.** Every consumer is pure observation: nothing here mutates
//! engine state, draws randomness or schedules an event, and no method
//! returns anything the engine acts on except the wall-clock dispatch
//! sample. So a run's physics (`Metrics::canonical_json`) is
//! byte-identical whichever consumers are attached, and each consumer's
//! output is identical whichever others ride along.
//! `tests/observer_purity.rs` proves both over all eight consumer sets.
//!
//! **Cost.** The methods are concrete and `#[inline]`, and the trace
//! recorder's `record` is `#[inline(always)]`: an event built in the
//! caller's registers reaches the staging buffer by plain stores, where
//! one built out of line and read back through the stack waits on every
//! older store (DESIGN.md, "observer cost is store-miss latency").

use crate::audit::CONFORMANCE_SLACK;
use crate::audit::{AuditSink, VmCurve};
use crate::config::{SimConfig, TenantSpec};
use crate::faults::FaultWindow;
use crate::metrics::Metrics;
use crate::packet::{Pkt, PktKind};
use crate::port::{Enqueue, QueuedPkt};
use crate::telemetry::TelemetrySink;
use crate::trace::{PktMeta, PktTag, TraceKind, TraceSink};
use silo_base::{Bytes, Dur, Rate, Time};
use silo_pacer::VoidChunks;
use silo_topology::{HostId, PortId, Topology};
use std::time::Instant;

/// What a hook needs of a connection, parallel to the engine's `conns`: a
/// few tens of KB that stay cached, where a `TcpConn` is ~350 bytes the
/// engine does not load between the sender and the receiver.
#[derive(Debug, Clone, Copy)]
struct ConnIdentity {
    src_host: u32,
    dst_host: u32,
    src_vm: u32,
    tenant: u16,
}

/// Every consumer a run carries (`Some` iff its `SimConfig` field is set).
pub(crate) struct Observers {
    audit: Option<AuditSink>,
    trace: Option<TraceSink>,
    telemetry: Option<TelemetrySink>,
    conns: Vec<ConnIdentity>,
    /// Host link rate and MTU: the void-chunk math of the paced NICs.
    link: Rate,
    mtu: Bytes,
}

/// Flight-recorder identity of a packet: the ring of the host that emitted
/// it (data at the sender, ACKs at the receiver that generated them) plus
/// the labels the exported trace carries.
#[inline]
fn meta(conns: &[ConnIdentity], pkt: &Pkt) -> PktMeta {
    let id = conns[pkt.conn as usize];
    let (host, pk) = match pkt.kind() {
        PktKind::Data => (id.src_host, PktTag::Data),
        PktKind::Ack => (id.dst_host, PktTag::Ack),
    };
    PktMeta {
        host,
        conn: pkt.conn,
        tenant: id.tenant,
        pk,
        pseq: pkt.seq,
        size: pkt.size().as_u64(),
        retx: pkt.retx(),
    }
}

/// The audit's FIFO class of a packet (two strict priorities).
#[inline]
fn class(pkt: &Pkt) -> usize {
    (pkt.prio as usize).min(1)
}

impl Observers {
    /// `tenants` after the mode's adjustments (an Okto run is audited
    /// against the curve Okto enforces); `vm_tenants` is each VM's tenant
    /// in VM order; `windows` are the run's realized fault windows, which
    /// the audit attributes violations to. Allocates nothing for a
    /// consumer that is not attached.
    pub fn new(
        cfg: &SimConfig,
        topo: &Topology,
        tenants: &[TenantSpec],
        vm_tenants: impl ExactSizeIterator<Item = u16>,
        windows: &[FaultWindow],
    ) -> Observers {
        let hosts = topo.num_hosts();
        // Switch and NIC ports, then one vswitch loopback per host.
        let ports = topo.num_ports() + hosts;
        let audit = cfg.audit.as_ref().map(|ac| {
            let curves: Vec<VmCurve> = vm_tenants
                .map(|t| {
                    let t = &tenants[t as usize];
                    VmCurve {
                        b: t.b,
                        s: t.s,
                        bmax: t.bmax,
                    }
                })
                .collect();
            AuditSink::new(
                ac.clone(),
                ports,
                hosts,
                &curves,
                cfg.mtu,
                windows.to_vec(),
                CONFORMANCE_SLACK,
            )
        });
        let trace = cfg.trace.as_ref().map(|tc| TraceSink::new(tc, hosts));
        let telemetry = cfg
            .telemetry
            .as_ref()
            .map(|tc| TelemetrySink::new(tc, cfg.duration, tenants.len(), ports));
        Observers {
            audit,
            trace,
            telemetry,
            conns: Vec::new(),
            link: topo.params().host_link,
            mtu: cfg.mtu,
        }
    }

    /// Connection `conns.len()` opened.
    #[inline]
    pub fn conn_opened(&mut self, src_vm: u32, src: HostId, dst: HostId, tenant: u16) {
        self.conns.push(ConnIdentity {
            src_host: src.0,
            dst_host: dst.0,
            src_vm,
            tenant,
        });
    }

    /// `pkt` was offered to `port`; `queued` is the depth after the
    /// decision.
    #[inline]
    pub fn port_enqueue(
        &mut self,
        now: Time,
        port: PortId,
        pkt: &Pkt,
        queued: u64,
        decision: Enqueue,
    ) {
        let accepted = decision != Enqueue::Dropped;
        if let Some(a) = self.audit.as_mut() {
            let size = pkt.size().as_u64();
            a.on_enqueue(now, port.0 as usize, size, class(pkt), queued, accepted);
        }
        if let Some(t) = self.trace.as_mut() {
            let kind = if accepted {
                TraceKind::Enqueue
            } else {
                TraceKind::DropTail
            };
            t.packet(kind, now, Dur::ZERO, port.0, queued, meta(&self.conns, pkt));
        }
        if let Some(tel) = self.telemetry.as_mut() {
            let w = tel.port(now, port.0 as usize, queued);
            match decision {
                Enqueue::Dropped => w.drops += 1,
                Enqueue::Accepted { mark_ce } => w.ce_marks += u64::from(mark_ce),
            }
        }
    }

    /// `port` dequeued `q` and transmits it for `tx`; `queued` is the depth
    /// left behind.
    #[inline]
    pub fn wire_start(&mut self, now: Time, port: PortId, q: &QueuedPkt, tx: Dur, queued: u64) {
        let (pkt, wait) = (&q.pkt, now.since(q.enq_at));
        let size = pkt.size().as_u64();
        if let Some(a) = self.audit.as_mut() {
            a.on_dequeue(now, port.0 as usize, size, class(pkt), queued);
        }
        if let Some(t) = self.trace.as_mut() {
            let m = meta(&self.conns, pkt);
            t.packet(TraceKind::WireStart, now, tx, port.0, wait.0, m);
        }
        if let Some(tel) = self.telemetry.as_mut() {
            let w = tel.port(now, port.0 as usize, queued);
            w.busy_ps += tx.as_ps();
            w.tx_bytes += size;
            if pkt.kind() == PktKind::Data {
                let tenant = self.conns[pkt.conn as usize].tenant;
                tel.tenant(now, tenant).queue_wait_ps += wait.as_ps();
            }
        }
    }

    /// `pkt` reached `port` while `fault` holds it down.
    #[inline]
    pub fn fault_drop(&mut self, now: Time, port: PortId, fault: u32, pkt: &Pkt) {
        if let Some(t) = self.trace.as_mut() {
            let (m, aux) = (meta(&self.conns, pkt), u64::from(fault));
            t.packet(TraceKind::DropFault, now, Dur::ZERO, port.0, aux, m);
        }
    }

    /// `fault` killed `port` and its queue lost `pkt`; `queued` is what
    /// is left.
    #[inline]
    pub fn flush(&mut self, now: Time, port: PortId, fault: u32, pkt: &Pkt, queued: u64) {
        let p = port.0 as usize;
        if let Some(a) = self.audit.as_mut() {
            a.on_flush(now, p, pkt.size().as_u64(), class(pkt), queued);
        }
        self.fault_drop(now, port, fault, pkt);
        if let Some(tel) = self.telemetry.as_mut() {
            // Depth only: the lost packets are fault drops, not tail drops.
            tel.port(now, p, queued);
        }
    }

    /// A paced NIC put `pkt` on `host`'s wire at `start`, or `eaten` names
    /// the dead first hop and its fault. Either way the frame held its wire
    /// slot. ACKs bypass the token buckets by design and are left out of
    /// conformance.
    #[inline]
    pub fn nic_frame(
        &mut self,
        now: Time,
        host: usize,
        start: Time,
        pkt: &Pkt,
        eaten: Option<(PortId, u32)>,
    ) {
        let size = pkt.size();
        if let Some(a) = self.audit.as_mut() {
            a.on_wire_frame(host, start, size, self.link);
            if pkt.kind() == PktKind::Data {
                let vm = self.conns[pkt.conn as usize].src_vm as usize;
                a.on_wire_data(start, vm, size);
            }
        }
        if let Some(t) = self.trace.as_mut() {
            let m = meta(&self.conns, pkt);
            let tx = self.link.tx_time(size);
            let (kind, at, dur, loc, aux) = match eaten {
                Some((port, fault)) => (TraceKind::DropFault, now, Dur::ZERO, port.0, fault),
                None => (TraceKind::NicData, start, tx, m.host, 0),
            };
            t.packet(kind, at, dur, loc, aux as u64, m);
        }
    }

    /// A paced NIC filled `[start, gap_end)` of `host`'s wire with one void
    /// run. Audit and trace see the per-chunk frames the wire carries.
    #[inline]
    pub fn nic_void_run(&mut self, host: usize, start: Time, gap_end: Time) {
        if self.audit.is_none() && self.trace.is_none() {
            return;
        }
        for (s, size) in VoidChunks::new(start, gap_end, self.link, self.mtu) {
            if let Some(a) = self.audit.as_mut() {
                a.on_wire_frame(host, s, size, self.link);
            }
            if let Some(t) = self.trace.as_mut() {
                t.nic_void(host as u32, s, self.link.tx_time(size), size.as_u64());
            }
        }
    }

    /// One NIC batch put `data` and `void` bytes on a host wire.
    #[inline]
    pub fn nic_batch(&mut self, now: Time, data: u64, void: u64) {
        if let Some(tel) = self.telemetry.as_mut() {
            let g = tel.global(now);
            g.wire_data_bytes += data;
            g.wire_void_bytes += void;
        }
    }

    /// VM `vm`'s pacer stamped `pkt` for `stamp`; only data packets held
    /// past `now` waited for tokens.
    #[inline]
    pub fn token_wait(&mut self, now: Time, vm: u32, stamp: Time, pkt: &Pkt) {
        if pkt.kind() != PktKind::Data || stamp <= now {
            return;
        }
        let wait = stamp - now;
        if let Some(t) = self.trace.as_mut() {
            let m = meta(&self.conns, pkt);
            t.packet(TraceKind::TokenWait, now, wait, m.host, vm as u64, m);
        }
        if let Some(tel) = self.telemetry.as_mut() {
            let tenant = self.conns[pkt.conn as usize].tenant;
            tel.tenant(now, tenant).token_wait_ps += wait.as_ps();
        }
    }

    /// `pkt` arrived at the end of its path.
    #[inline]
    pub fn deliver(&mut self, now: Time, pkt: &Pkt) {
        if let Some(t) = self.trace.as_mut() {
            let id = self.conns[pkt.conn as usize];
            let at = match pkt.kind() {
                PktKind::Data => id.dst_host,
                PktKind::Ack => id.src_host,
            };
            let m = meta(&self.conns, pkt);
            t.packet(TraceKind::Deliver, now, Dur::ZERO, at, 0, m);
        }
    }

    /// `tenant`'s receiver delivered `bytes` more of a stream in order.
    #[inline]
    pub fn goodput(&mut self, now: Time, tenant: u16, bytes: u64) {
        if bytes == 0 {
            return;
        }
        if let Some(tel) = self.telemetry.as_mut() {
            tel.tenant(now, tenant).goodput_bytes += bytes;
        }
    }

    /// A message of `size` bytes written at `created` completed on `conn`;
    /// `bound` is its tenant's latency bound, if it has one.
    #[inline]
    pub fn msg_done(&mut self, now: Time, conn: u32, created: Time, size: u64, bound: Option<Dur>) {
        let id = self.conns[conn as usize];
        if let Some(t) = self.trace.as_mut() {
            t.msg_done(created, now, id.dst_host, id.tenant, size);
        }
        if let Some(tel) = self.telemetry.as_mut() {
            let latency = (now - created).as_ps();
            let margin = bound.map(|b| b.as_ps() as i64 - latency as i64);
            tel.msg_done(now, id.tenant, latency, margin);
        }
    }

    /// `conn`'s RTO, armed at `armed`, fired.
    #[inline]
    pub fn rto(&mut self, now: Time, conn: u32, armed: Time) {
        let id = self.conns[conn as usize];
        if let Some(t) = self.trace.as_mut() {
            t.rto_fire(armed, now, id.src_host, conn, id.tenant);
        }
        if let Some(tel) = self.telemetry.as_mut() {
            tel.tenant(now, id.tenant).rtos += 1;
        }
    }

    /// Plan event `fault` struck (`start`) or healed.
    #[inline]
    pub fn fault_edge(&mut self, now: Time, fault: u32, start: bool) {
        if let Some(t) = self.trace.as_mut() {
            t.fault(now, fault, start);
        }
    }

    /// A tenant whose VMs are `vms` was re-admitted: its token buckets
    /// restarted full, so the reference meters must too, or its first
    /// burst would be a false conformance violation.
    #[inline]
    pub fn tenant_readmit(&mut self, now: Time, vms: &[u32]) {
        if let Some(a) = self.audit.as_mut() {
            for &vm in vms {
                a.reset_vm(now, vm as usize);
            }
        }
    }

    /// Before a dispatch: the wall-clock instant, on every 64th event of a
    /// run with telemetry. Never sim state.
    #[inline]
    pub fn dispatch_start(&mut self) -> Option<Instant> {
        let sampled = self.telemetry.as_mut().is_some_and(|t| t.dispatch_tick());
        sampled.then(Instant::now)
    }

    /// After a dispatch of event kind `kind` that `dispatch_start` sampled.
    #[inline]
    pub fn dispatch_end(&mut self, kind: usize, sample: Option<Instant>) {
        if let (Some(t0), Some(tel)) = (sample, self.telemetry.as_mut()) {
            tel.dispatch_span(kind, t0.elapsed().as_nanos() as u64);
        }
    }

    /// The dispatch loop starts.
    #[inline]
    pub fn loop_start(&mut self) {
        if let Some(tel) = self.telemetry.as_mut() {
            tel.wall_start();
        }
    }

    /// The dispatch loop ended.
    #[inline]
    pub fn loop_end(&mut self) {
        if let Some(tel) = self.telemetry.as_mut() {
            tel.wall_end();
        }
    }

    /// Hand every consumer's result to `m`, whose `fault_windows` are
    /// final. `early_releases` is the NIC batchers' release-causality count.
    pub fn finish(self, m: &mut Metrics, topo: &Topology, tenants: usize, early_releases: u64) {
        m.audit = self.audit.map(|a| a.finish(early_releases));
        if self.trace.is_none() && self.telemetry.is_none() {
            return;
        }
        // Port labels: switch/NIC ports first (matching `PortId`), then the
        // per-host vswitch loopbacks.
        let mut labels: Vec<String> = (0..topo.num_ports())
            .map(|i| {
                if topo.port(PortId(i as u32)).is_nic {
                    format!("nic_p{i}")
                } else {
                    format!("sw_p{i}")
                }
            })
            .collect();
        labels.extend((0..topo.num_hosts()).map(|h| format!("lo_h{h}")));
        if let Some(t) = self.trace {
            m.trace = Some(t.finish(labels.clone(), m.fault_windows.clone(), tenants));
        }
        if let Some(tel) = self.telemetry {
            m.telemetry = Some(tel.finish(labels, &m.fault_windows));
        }
    }
}
