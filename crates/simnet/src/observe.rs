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
//! **Cost: the consumers run on their own thread.** The spine has two
//! halves. The *front*, [`Observers`], is what the engine calls: each
//! method copies its arguments into one [`Point`] record, appended to a
//! chunk of [`CHUNK_RECORDS`], when a consumer that reads that point is
//! attached. The *worker*, one thread named [`WORKER`] that `Sim::run`
//! starts at the top of the dispatch loop, owns the consumers and the
//! connection-identity table ([`Sinks`]) and applies each record through
//! the `Sinks` method of the same name. Full chunks cross a
//! bounded channel to the worker and come back empty on a second one,
//! [`CHUNKS`] of them in all, so the steady state allocates nothing and
//! the engine waits only when the worker is a whole pool behind.
//!
//! *Ordering.* One producer, one FIFO channel, one consumer, and chunks
//! applied front to back: the worker applies exactly the sequence of
//! calls the engine made, in the engine's order, records made before the
//! worker starts (the connections `init_apps` opens) included, because
//! they sit at the head of the first chunk. Every consumer's state is a
//! function of that sequence alone, so every export has the bytes it
//! would have if the consumers ran on the engine's thread, the trace's
//! `seq` stamps included. Dispatch itself stays serial: this is not the parked
//! within-cell parallelism (DESIGN.md), which would split the engine's
//! own event order; here only pure readers of that order moved.
//!
//! *Failure.* A consumer that panics on the worker resurfaces in the
//! engine's thread, at its next send or at [`Observers::finish`], as the
//! same panic (the join payload, re-raised). A `Sim` dropped or unwinding
//! before `finish` hangs up the channel, so its worker drains what it
//! has and exits; `Drop` joins it.
//!
//! *Self-profile.* The wall-clock parts stay on the engine's thread:
//! every 64th dispatch is timed there and shipped as a record, the loop's
//! wall time likewise, and the time the engine waited for an empty chunk
//! and the worker's time applying chunks land beside them
//! ([`crate::SelfProfile`]).

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
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

/// The worker thread's name (a failure to spawn it names it too).
const WORKER: &str = "silo-observers";

/// Records per chunk: 4 096 × 64 B = 256 KiB.
const CHUNK_RECORDS: usize = 4096;

/// Chunks in the pool, the one the engine fills included: 4 MiB, so a
/// worker descheduled for a time slice does not stall the engine. Four
/// chunks let the engine wait 0.25–0.6 s of a 3 s observed cell on a
/// loaded 2-vCPU host; sixteen 0.01–0.13 s.
const CHUNKS: usize = 16;

/// Which consumers read a point (bits of [`Observers::attached`]).
const AUDIT: u8 = 1;
const TRACE: u8 = 2;
const TELEMETRY: u8 = 4;
const ANY: u8 = AUDIT | TRACE | TELEMETRY;

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

/// One front call, its arguments copied: what crosses to the worker.
/// Each variant carries the arguments of the method of the same name, in
/// its order.
#[derive(Debug, Clone, Copy)]
enum Point {
    ConnOpened(u32, HostId, HostId, u16),
    PortEnqueue(Time, PortId, Pkt, u64, Enqueue),
    WireStart(Time, PortId, QueuedPkt, Dur, u64),
    FaultDrop(Time, PortId, u32, Pkt),
    Flush(Time, PortId, u32, Pkt, u64),
    NicFrame(Time, u32, Time, Pkt, Option<(PortId, u32)>),
    NicVoidRun(u32, Time, Time),
    NicBatch(Time, u64, u64),
    TokenWait(Time, u32, Time, Pkt),
    Deliver(Time, Pkt),
    Goodput(Time, u16, u64),
    MsgDone(Time, u32, Time, u64, Option<Dur>),
    Rto(Time, u32, Time),
    FaultEdge(Time, u32, bool),
    /// `tenant_readmit`, one record a VM.
    VmReadmit(Time, u32),
    /// One sampled dispatch: its event kind and wall time.
    DispatchSpan(u32, u64),
    /// The dispatch loop's wall time.
    LoopWall(u64),
}

const _: () = assert!(std::mem::size_of::<Point>() <= 64);

/// Every consumer a run carries (`Some` iff its `SimConfig` field is set),
/// owned by the worker once it starts.
struct Sinks {
    audit: Option<AuditSink>,
    trace: Option<TraceSink>,
    telemetry: Option<TelemetrySink>,
    conns: Vec<ConnIdentity>,
    /// Host link rate and MTU: the void-chunk math of the paced NICs.
    link: Rate,
    mtu: Bytes,
    /// Wall time the worker spent applying chunks.
    busy_ns: u64,
}

/// The engine's end of a started worker.
struct Worker {
    /// Full chunks, in record order.
    full: SyncSender<Vec<Point>>,
    /// Empty chunks coming back.
    free: Receiver<Vec<Point>>,
    handle: JoinHandle<Sinks>,
}

impl Worker {
    /// Hang up and wait for the worker: its consumers, or the payload of
    /// the panic that ended it.
    fn close(self) -> std::thread::Result<Sinks> {
        let Worker { full, free, handle } = self;
        drop((full, free));
        handle.join()
    }
}

/// The engine's half of the spine (see the module doc).
pub(crate) struct Observers {
    /// Which consumers are attached (`AUDIT | TRACE | TELEMETRY`).
    attached: u8,
    /// Records not yet shipped, oldest first.
    chunk: Vec<Point>,
    /// The consumers until the worker starts; then the worker owns them.
    sinks: Option<Sinks>,
    worker: Option<Worker>,
    /// Dispatches seen by a telemetry run (every 64th is timed).
    dispatches: u64,
    /// When the dispatch loop started, on a telemetry run.
    loop_start: Option<Instant>,
    /// Wall time the engine waited for an empty chunk.
    wait_ns: u64,
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

/// The worker: apply each chunk in order, hand it back empty, and return
/// the consumers once the engine hangs up.
fn work(mut sinks: Sinks, full: Receiver<Vec<Point>>, free: SyncSender<Vec<Point>>) -> Sinks {
    for mut chunk in full {
        let t0 = Instant::now();
        for &p in &chunk {
            sinks.apply(p);
        }
        sinks.busy_ns += t0.elapsed().as_nanos() as u64;
        chunk.clear();
        // Never blocks (the pool fits the channel); fails only once the
        // engine has stopped taking chunks back.
        let _ = free.send(chunk);
    }
    sinks
}

impl Observers {
    /// `tenants` after the mode's adjustments (an Okto run is audited
    /// against the curve Okto enforces); `vm_tenants` is each VM's tenant
    /// in VM order; `windows` are the run's realized fault windows, which
    /// the audit attributes violations to. Allocates nothing for a
    /// consumer that is not attached, and starts no thread.
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
        let attached = (u8::from(audit.is_some()) * AUDIT)
            | (u8::from(trace.is_some()) * TRACE)
            | (u8::from(telemetry.is_some()) * TELEMETRY);
        let sinks = Sinks {
            audit,
            trace,
            telemetry,
            conns: Vec::new(),
            link: topo.params().host_link,
            mtu: cfg.mtu,
            busy_ns: 0,
        };
        Observers {
            attached,
            chunk: Vec::new(),
            sinks: (attached != 0).then_some(sinks),
            worker: None,
            dispatches: 0,
            loop_start: None,
            wait_ns: 0,
        }
    }

    /// Does a consumer that reads a point of `readers` ride along?
    #[inline(always)]
    fn wants(&self, readers: u8) -> bool {
        self.attached & readers != 0
    }

    /// Append the point `p` builds if a consumer in `readers` rides along;
    /// ship the chunk once it is full.
    #[inline(always)]
    fn push(&mut self, readers: u8, p: impl FnOnce() -> Point) {
        if self.wants(readers) {
            self.chunk.push(p());
            if self.chunk.len() >= CHUNK_RECORDS {
                self.ship();
            }
        }
    }

    /// Start the worker: the pool, the channels and the thread. Records
    /// made before stay at the head of the chunk being filled.
    fn start(&mut self) {
        let Some(sinks) = self.sinks.take() else {
            return;
        };
        let (full, full_rx) = sync_channel(CHUNKS);
        let (free_tx, free) = sync_channel(CHUNKS);
        for _ in 1..CHUNKS {
            free_tx
                .send(Vec::with_capacity(CHUNK_RECORDS))
                .expect("the pool fits the channel");
        }
        self.chunk
            .reserve(CHUNK_RECORDS.saturating_sub(self.chunk.len()));
        let handle = std::thread::Builder::new()
            .name(WORKER.into())
            .spawn(move || work(sinks, full_rx, free_tx))
            .unwrap_or_else(|e| panic!("cannot spawn {WORKER}: {e}"));
        self.worker = Some(Worker { full, free, handle });
    }

    /// Hand the full chunk to the worker and take an empty one back,
    /// waiting only when the worker holds the whole pool. Before the
    /// worker starts the chunk just grows.
    #[cold]
    #[inline(never)]
    fn ship(&mut self) {
        let Some(w) = self.worker.as_ref() else {
            return;
        };
        let full = std::mem::take(&mut self.chunk);
        if w.full.send(full).is_err() {
            self.worker_died();
        }
        let next = match w.free.try_recv() {
            Ok(c) => Some(c),
            Err(_) => {
                let t0 = Instant::now();
                let c = w.free.recv().ok();
                self.wait_ns += t0.elapsed().as_nanos() as u64;
                c
            }
        };
        match next {
            Some(c) => self.chunk = c,
            None => self.worker_died(),
        }
    }

    /// The worker hung up early, which only a panic does: raise that
    /// panic here, in the engine's thread.
    #[cold]
    fn worker_died(&mut self) -> ! {
        let w = self.worker.take().expect("a started worker");
        match w.close() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(_) => panic!("{WORKER} exited before the run ended"),
        }
    }

    /// Connection `conns.len()` opened.
    #[inline]
    pub fn conn_opened(&mut self, src_vm: u32, src: HostId, dst: HostId, tenant: u16) {
        self.push(ANY, || Point::ConnOpened(src_vm, src, dst, tenant));
    }

    /// `pkt` was offered to `port`; `queued` is the depth after the
    /// decision.
    #[inline]
    pub fn port_enqueue(&mut self, now: Time, port: PortId, pkt: &Pkt, queued: u64, d: Enqueue) {
        self.push(ANY, || Point::PortEnqueue(now, port, *pkt, queued, d));
    }

    /// `port` dequeued `q` and transmits it for `tx`; `queued` is the depth
    /// left behind.
    #[inline]
    pub fn wire_start(&mut self, now: Time, port: PortId, q: &QueuedPkt, tx: Dur, queued: u64) {
        self.push(ANY, || Point::WireStart(now, port, *q, tx, queued));
    }

    /// `pkt` reached `port` while `fault` holds it down.
    #[inline]
    pub fn fault_drop(&mut self, now: Time, port: PortId, fault: u32, pkt: &Pkt) {
        self.push(TRACE, || Point::FaultDrop(now, port, fault, *pkt));
    }

    /// `fault` killed `port` and its queue lost `pkt`; `queued` is what
    /// is left.
    #[inline]
    pub fn flush(&mut self, now: Time, port: PortId, fault: u32, pkt: &Pkt, queued: u64) {
        self.push(ANY, || Point::Flush(now, port, fault, *pkt, queued));
    }

    /// A paced NIC put `pkt` on `host`'s wire at `start`, or `eaten` names
    /// the dead first hop and its fault.
    #[inline]
    pub fn nic_frame(
        &mut self,
        now: Time,
        host: usize,
        start: Time,
        pkt: &Pkt,
        eaten: Option<(PortId, u32)>,
    ) {
        let host = host as u32;
        self.push(AUDIT | TRACE, || {
            Point::NicFrame(now, host, start, *pkt, eaten)
        });
    }

    /// A paced NIC filled `[start, gap_end)` of `host`'s wire with one void
    /// run.
    #[inline]
    pub fn nic_void_run(&mut self, host: usize, start: Time, gap_end: Time) {
        let host = host as u32;
        self.push(AUDIT | TRACE, || Point::NicVoidRun(host, start, gap_end));
    }

    /// One NIC batch put `data` and `void` bytes on a host wire.
    #[inline]
    pub fn nic_batch(&mut self, now: Time, data: u64, void: u64) {
        self.push(TELEMETRY, || Point::NicBatch(now, data, void));
    }

    /// VM `vm`'s pacer stamped `pkt` for `stamp`.
    #[inline]
    pub fn token_wait(&mut self, now: Time, vm: u32, stamp: Time, pkt: &Pkt) {
        self.push(TRACE | TELEMETRY, || Point::TokenWait(now, vm, stamp, *pkt));
    }

    /// `pkt` arrived at the end of its path.
    #[inline]
    pub fn deliver(&mut self, now: Time, pkt: &Pkt) {
        self.push(TRACE, || Point::Deliver(now, *pkt));
    }

    /// `tenant`'s receiver delivered `bytes` more of a stream in order.
    #[inline]
    pub fn goodput(&mut self, now: Time, tenant: u16, bytes: u64) {
        self.push(TELEMETRY, || Point::Goodput(now, tenant, bytes));
    }

    /// A message of `size` bytes written at `created` completed on `conn`;
    /// `bound` is its tenant's latency bound, if it has one.
    #[inline]
    pub fn msg_done(&mut self, now: Time, conn: u32, created: Time, size: u64, bound: Option<Dur>) {
        self.push(TRACE | TELEMETRY, || {
            Point::MsgDone(now, conn, created, size, bound)
        });
    }

    /// `conn`'s RTO, armed at `armed`, fired.
    #[inline]
    pub fn rto(&mut self, now: Time, conn: u32, armed: Time) {
        self.push(TRACE | TELEMETRY, || Point::Rto(now, conn, armed));
    }

    /// Plan event `fault` struck (`start`) or healed.
    #[inline]
    pub fn fault_edge(&mut self, now: Time, fault: u32, start: bool) {
        self.push(TRACE, || Point::FaultEdge(now, fault, start));
    }

    /// A tenant whose VMs are `vms` was re-admitted: its token buckets
    /// restarted full, so the reference meters must too, or its first
    /// burst would be a false conformance violation.
    #[inline]
    pub fn tenant_readmit(&mut self, now: Time, vms: &[u32]) {
        for &vm in vms {
            self.push(AUDIT, || Point::VmReadmit(now, vm));
        }
    }

    /// Before a dispatch: the wall-clock instant, on every 64th event of a
    /// run with telemetry (two clock reads per sample; at ~32 ns a read
    /// the amortized cost is ~1 ns/event). Never sim state.
    #[inline]
    pub fn dispatch_start(&mut self) -> Option<Instant> {
        if !self.wants(TELEMETRY) {
            return None;
        }
        self.dispatches += 1;
        (self.dispatches & 63 == 0).then(Instant::now)
    }

    /// After a dispatch of event kind `kind` that `dispatch_start` sampled.
    #[inline]
    pub fn dispatch_end(&mut self, kind: usize, sample: Option<Instant>) {
        if let Some(t0) = sample {
            let ns = t0.elapsed().as_nanos() as u64;
            self.push(TELEMETRY, || Point::DispatchSpan(kind as u32, ns));
        }
    }

    /// The dispatch loop starts, and with it the worker.
    pub fn loop_start(&mut self) {
        self.start();
        if self.wants(TELEMETRY) {
            self.loop_start = Some(Instant::now());
        }
    }

    /// The dispatch loop ended.
    pub fn loop_end(&mut self) {
        if let Some(t0) = self.loop_start.take() {
            let ns = t0.elapsed().as_nanos() as u64;
            self.push(TELEMETRY, || Point::LoopWall(ns));
        }
    }

    /// Hand every consumer's result to `m`, whose `fault_windows` are
    /// final. `early_releases` is the NIC batchers' release-causality count.
    pub fn finish(mut self, m: &mut Metrics, topo: &Topology, tenants: usize, early_releases: u64) {
        if self.attached == 0 {
            return;
        }
        self.start();
        let w = self.worker.take().expect("started");
        let last = std::mem::take(&mut self.chunk);
        // A failed send is a dead worker: `close` returns its panic.
        let _ = w.full.send(last);
        let sinks = w.close().unwrap_or_else(|p| std::panic::resume_unwind(p));
        sinks.finish(m, topo, tenants, early_releases, self.wait_ns);
    }
}

impl Drop for Observers {
    /// A run that never reached `finish` (dropped, or unwinding from a
    /// panic) hangs up, and its worker exits.
    fn drop(&mut self) {
        if let Some(w) = self.worker.take() {
            let _ = w.close();
        }
    }
}

impl Sinks {
    /// One record, through the method of the same name.
    #[inline]
    fn apply(&mut self, p: Point) {
        match p {
            Point::ConnOpened(vm, src, dst, tenant) => self.conn_opened(vm, src, dst, tenant),
            Point::PortEnqueue(now, port, pkt, queued, d) => {
                self.port_enqueue(now, port, &pkt, queued, d)
            }
            Point::WireStart(now, port, q, tx, queued) => {
                self.wire_start(now, port, &q, tx, queued)
            }
            Point::FaultDrop(now, port, fault, pkt) => self.fault_drop(now, port, fault, &pkt),
            Point::Flush(now, port, fault, pkt, queued) => {
                self.flush(now, port, fault, &pkt, queued)
            }
            Point::NicFrame(now, host, start, pkt, eaten) => {
                self.nic_frame(now, host as usize, start, &pkt, eaten)
            }
            Point::NicVoidRun(host, start, end) => self.nic_void_run(host as usize, start, end),
            Point::NicBatch(now, data, void) => self.nic_batch(now, data, void),
            Point::TokenWait(now, vm, stamp, pkt) => self.token_wait(now, vm, stamp, &pkt),
            Point::Deliver(now, pkt) => self.deliver(now, &pkt),
            Point::Goodput(now, tenant, bytes) => self.goodput(now, tenant, bytes),
            Point::MsgDone(now, conn, created, size, bound) => {
                self.msg_done(now, conn, created, size, bound)
            }
            Point::Rto(now, conn, armed) => self.rto(now, conn, armed),
            Point::FaultEdge(now, fault, start) => self.fault_edge(now, fault, start),
            Point::VmReadmit(now, vm) => {
                if let Some(a) = self.audit.as_mut() {
                    a.reset_vm(now, vm as usize);
                }
            }
            Point::DispatchSpan(kind, ns) => {
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.dispatch_span(kind as usize, ns);
                }
            }
            Point::LoopWall(ns) => {
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.add_wall_ns(ns);
                }
            }
        }
    }

    /// Connection `conns.len()` opened.
    #[inline]
    fn conn_opened(&mut self, src_vm: u32, src: HostId, dst: HostId, tenant: u16) {
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
    fn port_enqueue(&mut self, now: Time, port: PortId, pkt: &Pkt, queued: u64, decision: Enqueue) {
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
    fn wire_start(&mut self, now: Time, port: PortId, q: &QueuedPkt, tx: Dur, queued: u64) {
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
    fn fault_drop(&mut self, now: Time, port: PortId, fault: u32, pkt: &Pkt) {
        if let Some(t) = self.trace.as_mut() {
            let (m, aux) = (meta(&self.conns, pkt), u64::from(fault));
            t.packet(TraceKind::DropFault, now, Dur::ZERO, port.0, aux, m);
        }
    }

    /// `fault` killed `port` and its queue lost `pkt`; `queued` is what
    /// is left.
    #[inline]
    fn flush(&mut self, now: Time, port: PortId, fault: u32, pkt: &Pkt, queued: u64) {
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
    fn nic_frame(
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
    fn nic_void_run(&mut self, host: usize, start: Time, gap_end: Time) {
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
    fn nic_batch(&mut self, now: Time, data: u64, void: u64) {
        if let Some(tel) = self.telemetry.as_mut() {
            let g = tel.global(now);
            g.wire_data_bytes += data;
            g.wire_void_bytes += void;
        }
    }

    /// VM `vm`'s pacer stamped `pkt` for `stamp`; only data packets held
    /// past `now` waited for tokens.
    #[inline]
    fn token_wait(&mut self, now: Time, vm: u32, stamp: Time, pkt: &Pkt) {
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
    fn deliver(&mut self, now: Time, pkt: &Pkt) {
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
    fn goodput(&mut self, now: Time, tenant: u16, bytes: u64) {
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
    fn msg_done(&mut self, now: Time, conn: u32, created: Time, size: u64, bound: Option<Dur>) {
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
    fn rto(&mut self, now: Time, conn: u32, armed: Time) {
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
    fn fault_edge(&mut self, now: Time, fault: u32, start: bool) {
        if let Some(t) = self.trace.as_mut() {
            t.fault(now, fault, start);
        }
    }

    /// Hand every consumer's result to `m`, whose `fault_windows` are
    /// final. `early_releases` is the NIC batchers' release-causality
    /// count; `wait_ns` the engine's wait for empty chunks.
    fn finish(
        self,
        m: &mut Metrics,
        topo: &Topology,
        tenants: usize,
        early_releases: u64,
        wait_ns: u64,
    ) {
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
            let mut log = tel.finish(labels, &m.fault_windows);
            log.self_profile.worker_busy_ns = self.busy_ns;
            log.self_profile.engine_wait_ns = wait_ns;
            m.telemetry = Some(log);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditConfig;
    use crate::config::{TenantWorkload, TransportMode};
    use crate::packet::PathId;
    use crate::telemetry::TelemetryConfig;
    use crate::trace::TraceConfig;
    use silo_topology::TreeParams;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// One rack of four hosts.
    fn topo() -> Topology {
        Topology::build(TreeParams {
            pods: 1,
            racks_per_pod: 1,
            servers_per_rack: 4,
            vm_slots_per_server: 2,
            host_link: Rate::from_gbps(10),
            tor_oversub: 1.0,
            agg_oversub: 1.0,
            switch_buffer: Bytes::from_kb(312),
            nic_buffer: Bytes::from_kb(64),
            prop_delay: Dur::from_ns(500),
        })
    }

    /// A front over `topo()` with one tenant of four VMs and the consumers
    /// `attached` names.
    fn front(topo: &Topology, attached: u8) -> Observers {
        let mut cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(1), 1);
        cfg.audit = (attached & AUDIT != 0).then(AuditConfig::default);
        cfg.trace = (attached & TRACE != 0).then(TraceConfig::default);
        cfg.telemetry = (attached & TELEMETRY != 0).then(TelemetryConfig::default);
        let tenant = TenantSpec {
            vm_hosts: (0..4).map(HostId).collect(),
            b: Rate::from_gbps(1),
            s: Bytes::from_kb(15),
            bmax: Rate::from_gbps(10),
            prio: 0,
            delay: Some(Dur::from_us(100)),
            workload: TenantWorkload::Idle,
        };
        Observers::new(&cfg, topo, &[tenant], [0u16; 4].into_iter(), &[])
    }

    /// Step `i` of a script: four connections opened, then one packet per
    /// step enqueued and sent on a switch port, delivered and completed
    /// as a message, each at a later instant than the step before.
    fn step(obs: &mut Observers, i: usize) {
        const CONNS: usize = 4;
        if i < CONNS {
            let h = HostId(i as u32);
            obs.conn_opened(i as u32, h, HostId((i as u32 + 1) % 4), 0);
            return;
        }
        let now = Time::from_ns(10 * i as u64);
        let conn = (i % CONNS) as u32;
        let pkt = Pkt::new(PktKind::Data, conn, i as u64, Bytes(1500), 0, PathId(0));
        let port = PortId((i % 3) as u32);
        obs.port_enqueue(now, port, &pkt, 1500, Enqueue::Accepted { mark_ce: false });
        let q = QueuedPkt { pkt, enq_at: now };
        obs.wire_start(now, port, &q, Dur::from_ns(1200), 0);
        obs.deliver(now, &pkt);
        obs.msg_done(now, conn, Time::ZERO, 1500, Some(Dur::from_us(100)));
    }

    /// Every export of a script of `steps` steps whose worker starts after
    /// `start_at` of them (never, past the end: `finish` starts it).
    fn outputs(steps: usize, start_at: usize) -> (String, String, [u64; 8]) {
        let topo = topo();
        let mut obs = front(&topo, ANY);
        for i in 0..steps {
            if i == start_at {
                obs.loop_start();
            }
            step(&mut obs, i);
        }
        if start_at < steps {
            obs.loop_end();
        }
        let mut m = Metrics::default();
        obs.finish(&mut m, &topo, 1, 0);
        let trace = m.trace.expect("traced").to_jsonl();
        let telemetry = m.telemetry.expect("telemetry").to_jsonl();
        (trace, telemetry, m.audit.expect("audited").counters())
    }

    #[test]
    fn records_made_before_the_worker_starts_reach_the_consumers_in_order() {
        // Two pools' worth of records, so chunks are recycled.
        let steps = 2 * CHUNKS * CHUNK_RECORDS / 4;
        let want = outputs(steps, 0);
        // After the connections (as in `Sim::run`), after more than a
        // chunk, and never before `finish`.
        for start_at in [4, CHUNK_RECORDS + 7, usize::MAX] {
            assert!(
                want == outputs(steps, start_at),
                "worker started at step {start_at}"
            );
        }
        // The trace holds the steps in script order: four events a step,
        // the packet events of step i carrying packet sequence i.
        let log = crate::trace::TraceLog::from_jsonl(&want.0).expect("reads back");
        assert_eq!(log.recorded, 4 * (steps as u64 - 4));
        let pseq: Vec<u64> = log
            .events
            .iter()
            .filter(|e| e.pk == PktTag::Data)
            .map(|e| e.pseq)
            .collect();
        assert!(pseq.windows(2).all(|w| w[0] <= w[1]), "events out of order");
    }

    /// The payload of the panic `f` raised, as text.
    fn panic_text(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast_ref::<&str>()
                .map_or(String::new(), |s| s.to_string()),
        }
    }

    #[test]
    fn a_consumer_panic_resurfaces_in_the_engine_thread_with_its_message() {
        // The recorder refuses an event for a host it has no ring for.
        // Found at the next send (records keep coming) or at `finish`.
        for more in [0, 4 * CHUNKS * CHUNK_RECORDS] {
            let text = panic_text(|| {
                let topo = topo();
                let mut obs = front(&topo, TRACE);
                obs.loop_start();
                obs.nic_void_run(99, Time::ZERO, Time::from_ns(100));
                for i in 0..more {
                    obs.fault_edge(Time::from_ns(i as u64), 0, true);
                }
                obs.loop_end();
                obs.finish(&mut Metrics::default(), &topo, 1, 0);
            });
            assert!(text.contains("trace event for host 99"), "{more}: {text:?}");
        }
    }

    #[test]
    fn a_run_that_unwinds_before_finish_stops_its_worker() {
        let text = panic_text(|| {
            let topo = topo();
            let mut obs = front(&topo, ANY);
            obs.loop_start();
            for i in 0..3 * CHUNK_RECORDS {
                step(&mut obs, i);
            }
            panic!("the engine failed");
        });
        assert_eq!(text, "the engine failed");
    }
}
