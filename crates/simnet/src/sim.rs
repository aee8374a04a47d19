//! The discrete-event engine: hosts, VMs, pacers, switches, TCP plumbing
//! and applications wired together.

use crate::audit::{AuditSink, VmCurve};
use crate::config::{SimConfig, TenantSpec, TenantWorkload, TransportMode};
use crate::faults::FaultKind;
use crate::metrics::{
    EvKind, EventProfile, FaultWindow, Metrics, MsgRecord, Violation, LATENCY_HIST_SUB_BITS,
};
use crate::packet::{PathId, Pkt, PktKind};
use crate::port::{Enqueue, PhantomQueue, PortState};
use crate::tcp::{MsgBound, TcpConn};
use crate::telemetry::TelemetrySink;
use crate::trace::{PktMeta, PktTag, TraceSink};
use rand::rngs::StdRng;
use silo_base::{
    exponential, seeded_rng, Bytes, Dur, EvKey, EventQueue, FxHashMap, LogHistogram, Time,
};
use silo_pacer::{Batch, FrameKind, PacedBatcher, TokenBucket, VoidChunks};
use silo_topology::{HostId, PortId, Topology};
use silo_workload::EtcWorkload;

/// Events the engine dispatches.
#[derive(Debug)]
enum Ev {
    /// A packet finished traversing hop `hop − 1` and arrives at the next
    /// node (or its destination).
    Arrive(Pkt),
    /// An egress port finished a transmission.
    PortFree(PortId),
    /// DMA-completion / soft-timer pull of the next paced batch.
    NicPull { host: u32 },
    /// Retransmission timeout.
    Rto { conn: u32 },
    /// Next ETC client request becomes due.
    EtcArrival { vm: u32 },
    /// OLDI tenant fires a simultaneous all-to-one burst.
    Oldi { tenant: u16 },
    /// A Poisson pair's next message.
    PoissonMsg { tenant: u16, pair: u32 },
    /// Recompute hose rates.
    HoseEpoch,
    /// A connection paused by pacer backpressure may stamp again.
    PaceResume { conn: u32 },
    /// A bulk pair opens its connection and starts transferring.
    BulkStart { src: u32, dst: u32, msg: u64 },
    /// An injected fault strikes (index into `FaultPlan::events`).
    FaultStart(u32),
    /// An injected fault heals.
    FaultEnd(u32),
}

/// The size the event queue's slots (and the per-event cost model) assume.
const _: () = assert!(std::mem::size_of::<Ev>() == 32);

impl Ev {
    /// Profile slot of this event ([`EventProfile`] indexing).
    #[inline]
    fn kind(&self) -> EvKind {
        match self {
            Ev::Arrive(_) => EvKind::Arrive,
            Ev::PortFree(_) => EvKind::PortFree,
            Ev::NicPull { .. } => EvKind::NicPull,
            Ev::Rto { .. } => EvKind::Rto,
            Ev::EtcArrival { .. } => EvKind::EtcArrival,
            Ev::Oldi { .. } => EvKind::Oldi,
            Ev::PoissonMsg { .. } => EvKind::PoissonMsg,
            Ev::HoseEpoch => EvKind::HoseEpoch,
            Ev::PaceResume { .. } => EvKind::PaceResume,
            Ev::BulkStart { .. } => EvKind::BulkStart,
            Ev::FaultStart(_) => EvKind::FaultStart,
            Ev::FaultEnd(_) => EvKind::FaultEnd,
        }
    }
}

/// Per-VM state: pacer buckets and application role.
struct Vm {
    tenant: u16,
    host: HostId,
    /// `{B, S}` bucket (middle of Fig. 8).
    tb_bs: TokenBucket,
    /// `Bmax` cap (bottom of Fig. 8).
    tb_max: TokenBucket,
    /// Per-destination hose buckets (top of Fig. 8), keyed by global VM id.
    per_dst: FxHashMap<u32, TokenBucket>,
    /// Bytes received this hose epoch (receiver congestion feedback).
    rx_epoch_bytes: u64,
    app: VmApp,
}

enum VmApp {
    None,
    EtcClient {
        server_vm: u32,
        outstanding: usize,
        cap: usize,
        pending: u64,
        wl: EtcWorkload,
    },
}

/// Per-host NIC state for the paced modes.
struct HostNic {
    batcher: PacedBatcher<Pkt>,
    /// Handle of the armed `NicPull`, `None` when no pull is pending. A
    /// superseding arm moves the pending pull in place (`Sim::rearm`).
    pull_key: Option<EvKey>,
    /// Instant of the armed `NicPull`, `None` when no pull is pending.
    /// The fast-forward path (`Sim::ensure_pull`) compares against it to
    /// skip re-arms that would land at the same instant.
    pull_at: Option<Time>,
    busy_until: Time,
}

/// The immutable identity of a connection (see `Sim::conn_identity`).
#[derive(Debug, Clone, Copy)]
struct ConnIdentity {
    src_host: u32,
    dst_host: u32,
    tenant: u16,
}

/// The simulator. Build with [`Sim::new`], run with [`Sim::run`].
pub struct Sim {
    topo: Topology,
    cfg: SimConfig,
    tenants: Vec<TenantSpec>,
    rng: StdRng,
    now: Time,
    /// Pending events, dispatched in `(time, push sequence)` order.
    events: EventQueue<Ev>,
    /// Hosts targeted by a pacer stall/drift fault window — the only
    /// hosts whose idle-pacer fast-forward must be disabled (the clamp
    /// lands on *armed* pulls; see `Sim::fast_forward`).
    nic_fault_targets: Vec<bool>,
    ports: Vec<PortState>,
    conns: Vec<TcpConn>,
    /// What an observer hook on a forwarding hop needs of a connection,
    /// parallel to `conns`: a few tens of KB that stay cached, where a
    /// `TcpConn` is ~350 bytes the engine itself does not load between
    /// the sender and the receiver. No hook reads a `TcpConn` the plain
    /// engine would not have touched at that point.
    conn_identity: Vec<ConnIdentity>,
    conn_index: FxHashMap<(u32, u32), u32>,
    vms: Vec<Vm>,
    /// Global VM ids of each tenant, in tenant-local order: one
    /// contiguous ascending run per tenant.
    tenant_vms: Vec<Vec<u32>>,
    /// Connection ids per tenant (for event-driven hose updates).
    tenant_conns: Vec<Vec<u32>>,
    /// `update_tenant_hose` scratch: (out, in) degree of each VM of the
    /// tenant in hand, by tenant-local position.
    hose_deg: Vec<(u32, u32)>,
    nics: Vec<HostNic>,
    /// Interned egress-port lists; a [`PathId`] indexes this table. One
    /// entry per distinct (src host, dst host) pair plus one loopback
    /// entry per host — packets and connections carry the 4-byte id.
    path_table: Vec<Box<[PortId]>>,
    path_ids: FxHashMap<(u32, u32), PathId>,
    /// Per-host loopback path for same-host VM pairs (vswitch port).
    loopback_paths: Vec<PathId>,
    metrics: Metrics,
    txn_starts: FxHashMap<u64, Time>,
    next_txn: u64,
    ack_size: Bytes,
    /// Per-event-kind scheduled/fired/stale/cancelled counters, copied
    /// into `Metrics::profile` at the end of the run.
    profile: EventProfile,
    /// Reusable frame storage for the NIC pull path (allocation-light
    /// dispatch: one `Vec` serves every batch of every host).
    batch_scratch: Batch<Pkt>,
    // ---- fault injection (all dormant when the plan is empty) ----
    /// `!cfg.faults.is_empty()`: gates every fault check off the hot path.
    faults_on: bool,
    /// Which plan events are currently in effect.
    fault_active: Vec<bool>,
    /// Downed directed ports → index of the fault that killed them
    /// (switch/NIC ports only; the vswitch loopback cannot fail).
    port_down: Vec<Option<u32>>,
    /// Per-host pacer stall horizon (NIC pulls defer past it).
    nic_stall_until: Vec<Time>,
    /// Per-host pacer clock drift: `(until, factor)`.
    nic_drift: Vec<(Time, f64)>,
    /// Earliest next NIC pull under an active drift (a slow pacer clock
    /// dilates the gap *between* batches; re-arms from the datapath must
    /// not sneak in earlier).
    nic_drift_gate: Vec<Time>,
    /// Tenant liveness under churn (all true without churn events).
    tenant_up: Vec<bool>,
    /// Invariant-audit observer (`Some` iff `cfg.audit` is set). Pure
    /// observation: nothing it computes feeds back into the engine, so an
    /// audited run is byte-identical to an unaudited one.
    audit: Option<AuditSink>,
    /// Flight recorder (`Some` iff `cfg.trace` is set). Same discipline
    /// as `audit`: pure observation, zero behavioural effect.
    trace: Option<TraceSink>,
    /// Windowed telemetry recorder (`Some` iff `cfg.telemetry` is set).
    /// Same discipline as `audit`/`trace`: pure observation — its
    /// sim-time series are derived from values the engine already
    /// computed, and its self-profile reads only the host wall clock.
    telemetry: Option<TelemetrySink>,
}

impl Sim {
    pub fn new(topo: Topology, cfg: SimConfig, mut tenants: Vec<TenantSpec>) -> Sim {
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        if let Err(e) = cfg.faults.validate(
            topo.num_links(),
            topo.num_ports(),
            topo.num_hosts(),
            tenants.len(),
        ) {
            panic!("invalid FaultPlan: {e}");
        }
        // Oktopus provides hose bandwidth only: no burst allowance, no
        // burst rate (§6.2: "With Oktopus, VMs cannot burst"). Okto+ keeps
        // the tenant's burst parameters.
        if cfg.mode == TransportMode::Okto {
            for t in tenants.iter_mut() {
                t.s = cfg.mtu;
                t.bmax = t.b;
            }
        }
        let rng = seeded_rng(cfg.seed);
        let nports = topo.num_ports();
        let mut ports = Vec::with_capacity(nports);
        for i in 0..nports {
            let pid = PortId(i as u32);
            let info = topo.port(pid);
            let prop = topo.params().prop_delay;
            let mut ps = if info.is_nic {
                // Un-paced NIC FIFO: deep queue, no marking, no loss.
                PortState::new(info.rate, cfg.nic_fifo, prop)
            } else {
                PortState::new(info.rate, info.buffer, prop)
            };
            if !info.is_nic {
                match cfg.mode {
                    TransportMode::Dctcp => ps.ecn_k = Some(cfg.ecn_k),
                    TransportMode::Hull => {
                        ps.phantom = Some(PhantomQueue::new(
                            info.rate,
                            cfg.hull_gamma,
                            cfg.hull_thresh,
                        ));
                    }
                    _ => {}
                }
            }
            ports.push(ps);
        }
        let mut vms = Vec::new();
        let mut tenant_vms = Vec::new();
        for (ti, t) in tenants.iter().enumerate() {
            let mut ids = Vec::new();
            for &h in &t.vm_hosts {
                ids.push(vms.len() as u32);
                vms.push(Vm {
                    tenant: ti as u16,
                    host: h,
                    tb_bs: TokenBucket::new(t.b, t.s),
                    tb_max: TokenBucket::new(t.bmax, cfg.mtu),
                    per_dst: FxHashMap::default(),
                    rx_epoch_bytes: 0,
                    app: VmApp::None,
                });
            }
            tenant_vms.push(ids);
        }
        let nics = (0..topo.num_hosts())
            .map(|_| {
                let mut batcher =
                    PacedBatcher::new(topo.params().host_link, cfg.batch_window, cfg.mtu);
                // One frame per void run; observers re-expand it.
                batcher.coalesce_voids(true);
                // A host's stamp queue holds at most a couple of batch
                // windows of MTU frames per backlogged VM; 256 covers the
                // common case without over-reserving idle hosts.
                batcher.reserve(256);
                HostNic {
                    batcher,
                    pull_key: None,
                    pull_at: None,
                    busy_until: Time::ZERO,
                }
            })
            .collect();
        // One loopback (vswitch) port per host for same-host VM pairs:
        // finite memory-copy bandwidth and a few microseconds of stack
        // latency. Without this, co-located bulk flows would transfer
        // unbounded data in zero simulated time. The queue is effectively
        // unbounded: a real vswitch backpressures the sending VM instead
        // of tail-dropping.
        let mut path_table: Vec<Box<[PortId]>> = Vec::new();
        let mut loopback_paths = Vec::with_capacity(topo.num_hosts());
        for h in 0..topo.num_hosts() {
            let pid = PortId((nports + h) as u32);
            let mut ps = PortState::new(
                topo.params().host_link * 2,
                Bytes::from_mb(256),
                Dur::from_us(5),
            );
            ps.ecn_k = None;
            ports.push(ps);
            loopback_paths.push(PathId(path_table.len() as u32));
            path_table.push(vec![pid].into_boxed_slice());
        }
        let ntenants = tenants.len();
        let faults_on = !cfg.faults.is_empty();
        let nfaults = cfg.faults.events.len();
        let metrics = Metrics {
            goodput: vec![0; tenants.len()],
            duration: cfg.duration,
            fault_drops: vec![0; nfaults],
            latency_hist: (0..tenants.len())
                .map(|_| LogHistogram::new(LATENCY_HIST_SUB_BITS))
                .collect(),
            ..Metrics::default()
        };
        let mut events = EventQueue::with_backend(cfg.queue);
        let num_hosts = topo.num_hosts();
        let num_switch_ports = topo.num_ports();
        // Topology-derived occupancy bound: at steady state each directed
        // port carries at most one in-flight transmission (Arrive +
        // PortFree) and each host one NIC pull, one RTO per active
        // connection (≈ VMs² in the worst case, but the wheel only needs a
        // rough pre-size — excess grows organically).
        events.reserve(2 * (num_switch_ports + num_hosts) + 8 * vms.len() + 256);
        // Per-host narrowing of the idle-pacer fast-forward: only hosts a
        // pacer stall/drift window actually targets lose the elision.
        let mut nic_fault_targets = vec![false; num_hosts];
        for e in &cfg.faults.events {
            match e.kind {
                FaultKind::PacerStall { host } | FaultKind::PacerDrift { host, .. } => {
                    nic_fault_targets[host as usize] = true;
                }
                _ => {}
            }
        }
        // The audit observer sees the post-mode-mutation tenant curves (an
        // Okto run is audited against the guarantee Okto actually
        // enforces) and the realized fault windows, so violations during a
        // planned outage attribute correctly.
        let audit = cfg.audit.as_ref().map(|ac| {
            let horizon = Time::ZERO + cfg.duration;
            let windows = cfg
                .faults
                .events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.window(horizon).map(|(ws, we)| (i as u32, ws, we)))
                .collect();
            let vm_curves: Vec<VmCurve> = vms
                .iter()
                .map(|v| {
                    let t = &tenants[v.tenant as usize];
                    VmCurve {
                        b: t.b,
                        s: t.s,
                        bmax: t.bmax,
                    }
                })
                .collect();
            AuditSink::new(
                ac.clone(),
                ports.len(),
                num_hosts,
                &vm_curves,
                cfg.mtu,
                windows,
            )
        });
        let trace = cfg.trace.as_ref().map(|tc| TraceSink::new(tc, num_hosts));
        let telemetry = cfg
            .telemetry
            .as_ref()
            .map(|tc| TelemetrySink::new(tc, cfg.duration, ntenants, ports.len()));
        Sim {
            topo,
            cfg,
            tenants,
            rng,
            now: Time::ZERO,
            events,
            nic_fault_targets,
            ports,
            conns: Vec::new(),
            conn_identity: Vec::new(),
            conn_index: FxHashMap::default(),
            vms,
            tenant_vms,
            tenant_conns: vec![Vec::new(); ntenants],
            hose_deg: Vec::new(),
            nics,
            path_table,
            path_ids: FxHashMap::default(),
            loopback_paths,
            metrics,
            txn_starts: FxHashMap::default(),
            next_txn: 0,
            profile: EventProfile::default(),
            batch_scratch: Batch::empty(),
            faults_on,
            fault_active: vec![false; nfaults],
            port_down: vec![None; num_switch_ports],
            nic_stall_until: vec![Time::ZERO; num_hosts],
            nic_drift: vec![(Time::ZERO, 1.0); num_hosts],
            nic_drift_gate: vec![Time::ZERO; num_hosts],
            tenant_up: vec![true; ntenants],
            audit,
            trace,
            telemetry,
            // ACKs are modeled as a zero-cost control channel. Charging
            // their ~4% wire share would structurally oversubscribe NICs
            // whose capacity admission filled with data guarantees — an
            // accounting question the paper leaves open — and it would
            // distort every scheme equally. See EXPERIMENTS.md.
            ack_size: Bytes(0),
        }
    }

    fn push(&mut self, t: Time, ev: Ev) {
        self.profile.scheduled[ev.kind() as usize] += 1;
        self.events.push(t, ev);
    }

    /// Push an event whose source pushes in non-decreasing time order
    /// (`lane` is one of the `*_lane` numbers below).
    fn push_lane(&mut self, lane: usize, t: Time, ev: Ev) {
        self.profile.scheduled[ev.kind() as usize] += 1;
        let in_order = self.events.push_lane(lane, t, ev);
        debug_assert!(in_order, "lane {lane} went back in time at {t:?}");
    }

    /// A port's `PortFree` wakeups are due at its successive `t_free`s: a
    /// transmission starts only once `now >= busy_until`, the previous one.
    #[inline]
    fn port_free_lane(&self, port: PortId) -> usize {
        port.0 as usize
    }

    /// A port's `Arrive`s are due at `t_free + prop`: the same sequence
    /// shifted by the port's constant propagation delay.
    #[inline]
    fn port_arrive_lane(&self, port: PortId) -> usize {
        self.ports.len() + port.0 as usize
    }

    /// A paced NIC's `Arrive`s are due at `frame start + tx + prop`: frames
    /// of one batch are laid end to end, and a batch starts no earlier
    /// than `busy_until`, the end of the one before.
    #[inline]
    fn nic_arrive_lane(&self, host: usize) -> usize {
        2 * self.ports.len() + host
    }

    /// Arm a superseding timer: one logical cancel (when `key` still names
    /// a pending event) and one logical schedule, as a single re-arm.
    fn rearm(&mut self, key: Option<EvKey>, t: Time, ev: Ev) -> EvKey {
        let kind = ev.kind() as usize;
        self.profile.scheduled[kind] += 1;
        let Some(key) = key else {
            return self.events.push_cancelable(t, ev);
        };
        let (key, was_live) = self.events.rearm(key, t, ev);
        if was_live {
            self.profile.cancelled[kind] += 1;
        }
        key
    }

    fn path(&mut self, src: HostId, dst: HostId) -> PathId {
        if src == dst {
            return self.loopback_paths[src.0 as usize];
        }
        if let Some(&p) = self.path_ids.get(&(src.0, dst.0)) {
            return p;
        }
        let id = PathId(self.path_table.len() as u32);
        self.path_table
            .push(self.topo.path_ports(src, dst).into_boxed_slice());
        self.path_ids.insert((src.0, dst.0), id);
        id
    }

    /// Resolve an interned path id to its egress-port list.
    #[inline]
    fn hops(&self, id: PathId) -> &[PortId] {
        &self.path_table[id.0 as usize]
    }

    /// Flight-recorder identity of a packet: which host's ring records
    /// its lifecycle (the emitting host — data traces at the sender, acks
    /// at the receiver that generated them) plus the labels the exported
    /// trace carries. Pure read; only called when tracing is on.
    fn trace_meta(&self, pkt: &Pkt) -> PktMeta {
        let id = self.conn_identity[pkt.conn as usize];
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

    /// Is this port the host vswitch loopback (not a NIC/switch port)?
    fn is_loopback(&self, p: PortId) -> bool {
        (p.0 as usize) >= self.topo.num_ports()
    }

    /// Get (or lazily create) the connection from one VM to another.
    fn conn_for(&mut self, src_vm: u32, dst_vm: u32) -> u32 {
        if let Some(&c) = self.conn_index.get(&(src_vm, dst_vm)) {
            return c;
        }
        let sh = self.vms[src_vm as usize].host;
        let dh = self.vms[dst_vm as usize].host;
        let tenant = self.vms[src_vm as usize].tenant;
        debug_assert_eq!(
            self.vms[dst_vm as usize].tenant, tenant,
            "connections never cross tenants"
        );
        let prio = self.tenants[tenant as usize].prio;
        let path = self.path(sh, dh);
        let rpath = self.path(dh, sh);
        let id = self.conns.len() as u32;
        let init_cwnd = (self.cfg.init_cwnd * self.cfg.mss()) as f64;
        self.conns.push(TcpConn::new(
            id, tenant, src_vm, dst_vm, sh, dh, prio, path, rpath, init_cwnd,
        ));
        self.conn_identity.push(ConnIdentity {
            src_host: sh.0,
            dst_host: dh.0,
            tenant,
        });
        self.conn_index.insert((src_vm, dst_vm), id);
        self.tenant_conns[tenant as usize].push(id);
        id
    }

    // ------------------------------------------------------------------
    // Applications
    // ------------------------------------------------------------------

    fn init_apps(&mut self) {
        // Tenants whose first churn event is an arrival join mid-run
        // (their workload starts from the matching FaultStart instead).
        let deferred = if self.faults_on {
            self.cfg.faults.deferred_tenants()
        } else {
            Vec::new()
        };
        for ti in 0..self.tenants.len() {
            if deferred.contains(&(ti as u16)) {
                self.tenant_up[ti] = false;
                continue;
            }
            self.init_tenant_apps(ti);
        }
        if self.cfg.mode.paced() {
            let epoch = self.cfg.hose_epoch;
            self.push(self.now + epoch, Ev::HoseEpoch);
        }
    }

    /// Start (or restart, on re-admission) one tenant's workload.
    fn init_tenant_apps(&mut self, ti: usize) {
        let workload = self.tenants[ti].workload.clone();
        let vms = self.tenant_vms[ti].clone();
        match workload {
            TenantWorkload::Etc { load, concurrency } => {
                let server = vms[0];
                for &client in &vms[1..] {
                    self.vms[client as usize].app = VmApp::EtcClient {
                        server_vm: server,
                        outstanding: 0,
                        cap: concurrency.max(1),
                        pending: 0,
                        wl: EtcWorkload::with_load(load),
                    };
                    // Desynchronized start.
                    let gap = exponential(&mut self.rng, 1e5);
                    self.push(
                        self.now + Dur::from_secs_f64(gap),
                        Ev::EtcArrival { vm: client },
                    );
                }
            }
            TenantWorkload::BulkAllToAll { msg } => {
                // Staggered connection establishment (mean 1 ms):
                // real tenants never synchronize their very first
                // packets to the nanosecond, and a synchronized cold
                // start would transiently exceed the receiver hoses
                // before the pacers' coordination converges.
                for &s in &vms {
                    for &d in &vms {
                        if s != d {
                            let gap = exponential(&mut self.rng, 1e3);
                            self.push(
                                self.now + Dur::from_secs_f64(gap),
                                Ev::BulkStart {
                                    src: s,
                                    dst: d,
                                    msg: msg.as_u64(),
                                },
                            );
                        }
                    }
                }
            }
            TenantWorkload::OldiAllToOne { interval, .. } => {
                let gap = exponential(&mut self.rng, 1.0 / interval.as_secs_f64());
                self.push(
                    self.now + Dur::from_secs_f64(gap),
                    Ev::Oldi { tenant: ti as u16 },
                );
            }
            TenantWorkload::OldiPeriodic { period, .. } => {
                self.push(self.now + period, Ev::Oldi { tenant: ti as u16 });
            }
            TenantWorkload::PoissonPairs {
                pairs, interval, ..
            } => {
                for (pi, _) in pairs.iter().enumerate() {
                    let gap = exponential(&mut self.rng, 1.0 / interval.as_secs_f64());
                    self.push(
                        self.now + Dur::from_secs_f64(gap),
                        Ev::PoissonMsg {
                            tenant: ti as u16,
                            pair: pi as u32,
                        },
                    );
                }
            }
            TenantWorkload::Idle => {}
        }
    }

    /// Application writes `bytes` onto a connection.
    fn app_write(&mut self, conn: u32, bytes: u64, respond: Option<u64>, txn: Option<u64>) {
        let (was_idle, tenant) = {
            let c = &mut self.conns[conn as usize];
            let was_idle = !c.active();
            c.wr_end += bytes;
            let end = c.wr_end;
            c.msgs.push_back(MsgBound {
                end,
                size: bytes,
                created: self.now,
                rto_hit: false,
                respond,
                txn,
            });
            (was_idle, c.tenant)
        };
        if was_idle && self.cfg.mode.paced() {
            self.update_tenant_hose(tenant);
        }
        self.try_send(conn);
    }

    fn on_etc_arrival(&mut self, vm: u32) {
        if self.faults_on && !self.tenant_alive(self.vms[vm as usize].tenant) {
            return; // the arrival chain dies with the tenant
        }
        // Draw the transaction and the next arrival.
        let (gap, req, resp, server, can_start) = {
            let v = &mut self.vms[vm as usize];
            let VmApp::EtcClient {
                server_vm,
                outstanding,
                cap,
                pending,
                wl,
            } = &mut v.app
            else {
                return;
            };
            let r = wl.next_request(&mut self.rng);
            let can = *outstanding < *cap;
            if can {
                *outstanding += 1;
            } else {
                *pending += 1;
            }
            (r.gap, r.request, r.response, *server_vm, can)
        };
        if can_start {
            self.start_etc_txn(vm, server, req, resp);
        }
        self.push(self.now + gap, Ev::EtcArrival { vm });
    }

    fn start_etc_txn(&mut self, client: u32, server: u32, req: Bytes, resp: Bytes) {
        let txn = self.next_txn;
        self.next_txn += 1;
        self.txn_starts.insert(txn, self.now);
        let c = self.conn_for(client, server);
        self.app_write(c, req.as_u64(), Some(resp.as_u64()), Some(txn));
    }

    fn on_oldi(&mut self, tenant: u16) {
        if self.faults_on && !self.tenant_alive(tenant) {
            return;
        }
        let (msg, gap) = match &self.tenants[tenant as usize].workload {
            TenantWorkload::OldiAllToOne { msg_mean, interval } => (
                *msg_mean,
                Dur::from_secs_f64(exponential(&mut self.rng, 1.0 / interval.as_secs_f64())),
            ),
            TenantWorkload::OldiPeriodic { msg, period } => (*msg, *period),
            _ => return,
        };
        let vms = self.tenant_vms[tenant as usize].clone();
        let target = vms[0];
        for &s in &vms[1..] {
            // Partition/aggregate responses are similar-sized: each worker
            // returns one fixed-size shard of the answer.
            let c = self.conn_for(s, target);
            self.app_write(c, msg.as_u64().max(1), None, None);
        }
        self.push(self.now + gap, Ev::Oldi { tenant });
    }

    fn on_poisson_msg(&mut self, tenant: u16, pair: u32) {
        if self.faults_on && !self.tenant_alive(tenant) {
            return;
        }
        let (pairs, msg_mean, interval) = match &self.tenants[tenant as usize].workload {
            TenantWorkload::PoissonPairs {
                pairs,
                msg_mean,
                interval,
            } => (pairs.clone(), *msg_mean, *interval),
            _ => return,
        };
        let (s, d) = pairs[pair as usize];
        let vms = &self.tenant_vms[tenant as usize];
        let (sv, dv) = (vms[s], vms[d]);
        let size = exponential(&mut self.rng, 1.0 / msg_mean.as_f64()).ceil() as u64;
        let c = self.conn_for(sv, dv);
        self.app_write(c, size.max(1), None, None);
        let gap = exponential(&mut self.rng, 1.0 / interval.as_secs_f64());
        self.push(
            self.now + Dur::from_secs_f64(gap),
            Ev::PoissonMsg { tenant, pair },
        );
    }

    /// Bulk tenants run one message per pair at a time: the next transfer
    /// starts when the previous one is fully acknowledged, so a message's
    /// latency is exactly its transfer time at the achieved bandwidth.
    fn app_on_ack(&mut self, conn: u32) {
        let (tenant, backlog) = {
            let c = &self.conns[conn as usize];
            (c.tenant, c.wr_end - c.una)
        };
        if self.faults_on && !self.tenant_alive(tenant) {
            return;
        }
        if let TenantWorkload::BulkAllToAll { msg } = self.tenants[tenant as usize].workload {
            if backlog == 0 {
                self.app_write(conn, msg.as_u64(), None, None);
            }
        }
    }

    // ------------------------------------------------------------------
    // TCP sender
    // ------------------------------------------------------------------

    fn try_send(&mut self, conn: u32) {
        if self.faults_on && !self.tenant_alive(self.conns[conn as usize].tenant) {
            return;
        }
        loop {
            // Pacer backpressure: a connection already stamped out to the
            // horizon must wait for the wire to catch up, so the VM's
            // other destinations can interleave through the shared
            // buckets.
            if self.cfg.mode.paced() {
                let c = &self.conns[conn as usize];
                let horizon = self.now + self.cfg.pace_horizon;
                if c.has_unsent() && c.last_depart > horizon && !c.pace_blocked {
                    let resume = c.last_depart - self.cfg.pace_horizon;
                    self.conns[conn as usize].pace_blocked = true;
                    self.push(resume, Ev::PaceResume { conn });
                    return;
                }
                if c.pace_blocked {
                    return;
                }
            }
            let c = &mut self.conns[conn as usize];
            if !c.has_unsent() {
                return;
            }
            let remaining = c.wr_end - c.nxt;
            let payload = remaining.min(self.cfg.mss());
            if c.window_avail() < payload as f64 && c.flight() > 0 {
                return;
            }
            let seq = c.nxt;
            c.nxt += payload;
            c.high_tx = c.high_tx.max(c.nxt);
            let end = c.nxt;
            c.inflight_meta.push_back((end, self.now, false));
            self.emit_data(conn, seq, payload, false);
        }
    }

    /// Put the data segment `[seq, seq + payload)` of `conn` on its way
    /// and (re-)arm the connection's RTO.
    fn emit_data(&mut self, conn: u32, seq: u64, payload: u64, retx: bool) {
        let c = &self.conns[conn as usize];
        let (src_vm, prio, path) = (c.src_vm, c.prio, c.path);
        let size = Bytes(payload + self.cfg.header.as_u64());
        let pkt = Pkt::new(PktKind::Data, conn, seq, size, prio, path).with_retx(retx);
        self.send_from_vm(src_vm, pkt);
        self.arm_rto(conn);
    }

    /// SACK-equivalent loss recovery: the receiver's reassembly state is
    /// in-process, so the sender can retransmit every missing range
    /// directly (up to `max_segs` segments per trigger) instead of
    /// NewReno's one hole per RTT — matching what a SACK stack achieves.
    fn retransmit_holes(&mut self, conn: u32, max_segs: usize) {
        let holes: Vec<(u64, u64)> = {
            let c = &self.conns[conn as usize];
            let mut holes = Vec::new();
            // Only gaps *below* received out-of-order blocks are presumed
            // lost (later data arrived past them). Data at the send
            // frontier is merely in flight. Each hole is retransmitted
            // once per recovery episode (`retx_upto`); a lost
            // retransmission falls back to the RTO.
            let mut cursor = c.delivered.max(c.una).max(c.retx_upto);
            for &(s, e) in &c.ooo {
                if s > cursor {
                    holes.push((cursor, s));
                }
                cursor = cursor.max(e);
            }
            holes
        };
        let mss = self.cfg.mss();
        // Always re-send the oldest outstanding segment (classic NewReno
        // partial-ack behavior): if its previous retransmission was lost,
        // this is the only way forward short of an RTO.
        self.retransmit_una(conn);
        let mut sent = 1usize;
        'outer: for (s, e) in holes {
            let mut seq = s;
            while seq < e {
                if sent >= max_segs {
                    break 'outer;
                }
                let payload = (e - seq).min(mss);
                self.retransmit_at(conn, seq, payload);
                seq += payload;
                sent += 1;
            }
        }
    }

    fn retransmit_at(&mut self, conn: u32, seq: u64, payload: u64) {
        let c = &mut self.conns[conn as usize];
        c.retx_upto = c.retx_upto.max(seq + payload);
        // Karn's rule: the original send-time entries of anything we
        // re-send can no longer produce valid RTT samples.
        for m in c.inflight_meta.iter_mut() {
            if m.0 > seq && m.0 <= seq + payload {
                m.2 = true;
            }
        }
        self.emit_data(conn, seq, payload, true);
    }

    fn retransmit_una(&mut self, conn: u32) {
        let c = &mut self.conns[conn as usize];
        let payload = (c.wr_end - c.una).min(self.cfg.mss());
        if payload == 0 {
            return;
        }
        let seq = c.una;
        for m in c.inflight_meta.iter_mut() {
            if m.0 > seq && m.0 <= seq + payload {
                m.2 = true;
            }
        }
        self.emit_data(conn, seq, payload, true);
    }

    fn arm_rto(&mut self, conn: u32) {
        let (old, at) = {
            let c = &mut self.conns[conn as usize];
            c.rto_armed_at = self.now;
            // Clock from the latest wire departure: time spent queued in
            // the hypervisor pacer must not fire spurious timeouts.
            let base = self.now.max(c.last_depart);
            (c.rto_key, base + c.rto(self.cfg.min_rto))
        };
        // Re-arming supersedes the pending timer: move it in place.
        let key = self.rearm(old, at, Ev::Rto { conn });
        self.conns[conn as usize].rto_key = Some(key);
    }

    fn disarm_rto(&mut self, conn: u32) {
        let c = &mut self.conns[conn as usize];
        if let Some(k) = c.rto_key.take() {
            if self.events.cancel(k) {
                self.profile.cancelled[EvKind::Rto as usize] += 1;
            }
        }
    }

    fn on_rto(&mut self, conn: u32) {
        {
            // The armed timer just fired: its key left the queue.
            if self.conns[conn as usize].rto_key.take().is_none() {
                // Every supersede cancels or re-arms the pending timer, so
                // a timer whose owner holds no key must never fire. Counted
                // (always 0) and checked by the tests and `sim_profile`.
                self.profile.stale[EvKind::Rto as usize] += 1;
                return;
            }
            let c = &self.conns[conn as usize];
            if c.flight() == 0 {
                return;
            }
            if self.faults_on && !self.tenant_up[c.tenant as usize] {
                return;
            }
        }
        self.metrics.rtos += 1;
        if self.trace.is_some() {
            let c = &self.conns[conn as usize];
            let (armed, host, tenant) = (c.rto_armed_at, c.src_host.0, c.tenant);
            let now = self.now;
            if let Some(t) = self.trace.as_mut() {
                t.rto_fire(armed, now, host, conn, tenant);
            }
        }
        if self.telemetry.is_some() {
            let tenant = self.conns[conn as usize].tenant;
            let now = self.now;
            if let Some(tel) = self.telemetry.as_mut() {
                tel.rto(now, tenant);
            }
        }
        let mss = self.cfg.mss() as f64;
        self.conns[conn as usize].on_rto(mss);
        // Go-back-N: nxt was rewound; try_send re-emits from una.
        self.try_send(conn);
        // If the window was too small to emit (shouldn't happen), keep the
        // timer armed anyway.
        if self.conns[conn as usize].flight() > 0 {
            // arm_rto was called by try_send's first segment already.
        } else {
            self.arm_rto(conn);
        }
    }

    // ------------------------------------------------------------------
    // Host egress: pacing + NIC
    // ------------------------------------------------------------------

    fn send_from_vm(&mut self, vm: u32, pkt: Pkt) {
        let first_port = self.hops(pkt.path)[0];
        if self.is_loopback(first_port) {
            // Same-host delivery through the vswitch: serialized at the
            // loopback port, never paced (it does not cross the NIC).
            self.enqueue_port(first_port, pkt);
            return;
        }
        if self.cfg.mode.paced() {
            // Pure ACKs bypass the token buckets (tiny control frames;
            // charging them to `B` would structurally oversubscribe a
            // backlogged tenant by the ~4% ACK ratio). They still ride
            // the batched NIC.
            let stamp = if pkt.kind() == PktKind::Ack {
                self.now
            } else {
                let dst_vm = self.peer_vm(&pkt);
                self.stamp_packet(vm, dst_vm, pkt.size())
            };
            {
                let c = &mut self.conns[pkt.conn as usize];
                c.last_depart = c.last_depart.max(stamp);
            }
            if self.trace.is_some() && pkt.kind() == PktKind::Data && stamp > self.now {
                let m = self.trace_meta(&pkt);
                let now = self.now;
                if let Some(t) = self.trace.as_mut() {
                    t.token_wait(now, vm, stamp - now, m);
                }
            }
            if self.telemetry.is_some() && pkt.kind() == PktKind::Data && stamp > self.now {
                let tenant = self.vms[vm as usize].tenant;
                let (now, wait) = (self.now, stamp - self.now);
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.token_wait(now, tenant, wait);
                }
            }
            let host = self.vms[vm as usize].host.0 as usize;
            self.nics[host].batcher.enqueue(stamp, pkt.size(), pkt);
            if self.fast_forward(host) {
                // Enqueue-resurrection: arm (or tighten) the pull only if
                // the new stamp moves the next batch start earlier.
                self.ensure_pull(host);
            } else if self.now >= self.nics[host].busy_until {
                let at = self.nics[host]
                    .batcher
                    .next_stamp()
                    .expect("just enqueued")
                    .max(self.now);
                self.arm_nic(host, at);
            }
        } else {
            self.enqueue_port(first_port, pkt);
        }
    }

    /// The VM this packet is addressed to (for hose bucket lookup).
    fn peer_vm(&self, pkt: &Pkt) -> u32 {
        let c = &self.conns[pkt.conn as usize];
        match pkt.kind() {
            PktKind::Data => c.dst_vm,
            PktKind::Ack => c.src_vm,
        }
    }

    /// Fig. 8: stamp through per-destination hose bucket, then `{B, S}`,
    /// then `Bmax`.
    fn stamp_packet(&mut self, vm: u32, dst_vm: u32, size: Bytes) -> Time {
        let (b, s) = {
            let t = &self.tenants[self.vms[vm as usize].tenant as usize];
            (t.b, t.s)
        };
        let now = self.now;
        let v = &mut self.vms[vm as usize];
        let dst_tb = v
            .per_dst
            .entry(dst_vm)
            .or_insert_with(|| TokenBucket::new(b, s));
        let t1 = dst_tb.earliest(now, size);
        let t2 = v.tb_bs.earliest(now, size);
        let t3 = v.tb_max.earliest(now, size);
        let stamp = t1.max(t2).max(t3);
        dst_tb.commit(stamp, size);
        v.tb_bs.commit(stamp, size);
        v.tb_max.commit(stamp, size);
        stamp
    }

    fn arm_nic(&mut self, host: usize, at: Time) {
        let at = if self.faults_on {
            self.fault_nic_at(host, at)
        } else {
            at
        };
        let old = self.nics[host].pull_key;
        let key = self.rearm(old, at, Ev::NicPull { host: host as u32 });
        self.nics[host].pull_key = Some(key);
        self.nics[host].pull_at = Some(at);
    }

    /// Fast-forward arming: ensure a pull is pending at the earliest
    /// instant the next batch could start, `max(next stamp, busy_until,
    /// now)`. Between pulls the stamp frontier only moves *earlier* (new
    /// enqueues), so the wanted instant only tightens; a pull already
    /// armed there is left alone (re-arming it at the same instant is
    /// event churn with an identical wire schedule; DESIGN.md has the
    /// equivalence argument).
    /// Empty queue: nothing armed, the NIC sleeps until the next enqueue.
    fn ensure_pull(&mut self, host: usize) {
        let Some(s) = self.nics[host].batcher.next_stamp() else {
            return;
        };
        let want = s.max(self.nics[host].busy_until).max(self.now);
        if self.nics[host].pull_at.is_none_or(|cur| cur > want) {
            self.arm_nic(host, want);
        }
    }

    /// Eligible for the idle-pacer fast-forward? Per host: a pacer
    /// stall/drift window targeting this host disables it (stall/drift
    /// clamps apply per *armed* pull, so eliding intermediate pulls on a
    /// targeted host would move where the clamp lands), but hosts no
    /// pacer fault ever touches keep the fast path — link faults and
    /// tenant churn don't interact with pull elision (their checks run
    /// on the frames a pull emits, not on the pull's arming).
    #[inline]
    fn fast_forward(&self, host: usize) -> bool {
        !self.nic_fault_targets[host]
    }

    fn on_nic_pull(&mut self, host: u32) {
        let h = host as usize;
        if self.nics[h].pull_key.take().is_none() {
            // Must never happen (see `on_rto`).
            self.profile.stale[EvKind::NicPull as usize] += 1;
            return;
        }
        // The armed pull just fired: its key left the queue.
        self.nics[h].pull_at = None;
        if self.faults_on && self.now < self.nic_stall_until[h] {
            // The pacer timer is stalled: defer this pull to the window
            // end (arm_nic re-applies the stall clamp).
            let stall = self.nic_stall_until[h];
            self.arm_nic(h, stall);
            return;
        }
        // Reuse one frame vector for every batch of every host (the pull
        // path is the simulator's hottest allocation site otherwise).
        let mut batch = std::mem::replace(&mut self.batch_scratch, Batch::empty());
        self.nics[h].batcher.next_batch_into(self.now, &mut batch);
        if batch.is_empty() {
            if let Some(s) = self.nics[h].batcher.next_stamp() {
                let at = s.max(self.now);
                self.arm_nic(h, at);
            }
            self.batch_scratch = batch;
            return;
        }
        let link = self.topo.params().host_link;
        let prop = self.topo.params().prop_delay;
        self.nics[h].busy_until = batch.done_at;
        self.metrics.wire_data_bytes += batch.data_bytes().as_u64();
        self.metrics.wire_void_bytes += batch.void_bytes().as_u64();
        if self.telemetry.is_some() {
            let (now, data, void) = (
                self.now,
                batch.data_bytes().as_u64(),
                batch.void_bytes().as_u64(),
            );
            if let Some(tel) = self.telemetry.as_mut() {
                tel.wire_bytes(now, data, void);
            }
        }
        // NIC wire accounting on the host's uplink port (utilization).
        let up = PortId::up(self.topo.host_link(HostId(host))).0 as usize;
        self.ports[up].busy_time += batch.done_at - batch.frames[0].start;
        let mtu = self.cfg.mtu;
        for f in batch.frames.drain(..) {
            if f.kind == FrameKind::Data {
                if let Some(a) = self.audit.as_mut() {
                    // Every frame — data and void — claims a wire interval.
                    a.on_wire_frame(h, f.start, f.size, link);
                }
                let pkt = f.payload.expect("data frame carries a packet");
                if self.audit.is_some() && pkt.kind() == PktKind::Data {
                    // Wire-level conformance of the sending VM against its
                    // admitted curve, at the instant the first bit leaves.
                    // ACKs bypass the buckets by design and are excluded.
                    // A frame a dead link is about to eat still counts: it
                    // occupied this wire slot.
                    let vm = self.conns[pkt.conn as usize].src_vm as usize;
                    if let Some(a) = self.audit.as_mut() {
                        a.on_wire_data(f.start, vm, f.size);
                    }
                }
                if self.faults_on {
                    // Paced frames skip enqueue_port for the NIC wire
                    // (hop 0), so a dead host link is enforced here.
                    if let Some(fault) = self.port_fault(self.hops(pkt.path)[0]) {
                        self.metrics.fault_drops[fault as usize] += 1;
                        if self.trace.is_some() {
                            let m = self.trace_meta(&pkt);
                            let eaten_at = self.hops(pkt.path)[0].0;
                            let now = self.now;
                            if let Some(t) = self.trace.as_mut() {
                                t.drop_fault(now, eaten_at, fault, m);
                            }
                        }
                        continue;
                    }
                }
                if self.trace.is_some() {
                    let m = self.trace_meta(&pkt);
                    let (start, tx) = f.span(link);
                    if let Some(t) = self.trace.as_mut() {
                        t.nic_data(start, tx, m);
                    }
                }
                // The NIC wire is hop 0.
                let arrive = f.start + link.tx_time(f.size) + prop;
                let lane = self.nic_arrive_lane(h);
                self.push_lane(lane, arrive, Ev::Arrive(pkt.at_hop(1)));
            } else if self.audit.is_some() || self.trace.is_some() {
                // A void run: one frame stands for the whole gap. Observers
                // see the per-chunk frames the wire carries, so the run is
                // re-expanded through the batcher's own chunk math.
                let gap_end = f.gap_end.expect("void run carries its gap");
                for (s, size) in VoidChunks::new(f.start, gap_end, link, mtu) {
                    if let Some(a) = self.audit.as_mut() {
                        a.on_wire_frame(h, s, size, link);
                    }
                    if self.trace.is_some() {
                        let tx = link.tx_time(size);
                        if let Some(t) = self.trace.as_mut() {
                            t.nic_void(host, s, tx, size.as_u64());
                        }
                    }
                }
            }
            // Void frames: dropped by the first-hop switch. Their only
            // effect is the wire time already encoded in the schedule.
        }
        let done = batch.done_at;
        self.batch_scratch = batch;
        if self.faults_on {
            // A pacer clock running slow by `factor` stretches the gap
            // between this batch and the next: what took `done − now` of
            // healthy clock takes `factor×` as long.
            let (until, factor) = self.nic_drift[h];
            if self.now < until && factor > 1.0 && done > self.now {
                let dilated = (done - self.now).as_ps() as f64 * factor;
                self.nic_drift_gate[h] = self.now + Dur::from_ps(dilated as u64);
            }
        }
        if self.fast_forward(h) {
            // Arm directly at the instant the next batch can start: at
            // `done` when data is already due, at the future head stamp
            // (skipping an intermediate empty pull at `done`), or not at
            // all when the queue drained — the next enqueue resurrects
            // the pull.
            self.ensure_pull(h);
        } else {
            self.arm_nic(h, done);
        }
    }

    // ------------------------------------------------------------------
    // Switch fabric
    // ------------------------------------------------------------------

    fn enqueue_port(&mut self, port: PortId, pkt: Pkt) {
        if self.faults_on {
            if let Some(f) = self.port_fault(port) {
                // Black hole: the packet reached a dead port.
                self.metrics.fault_drops[f as usize] += 1;
                if self.trace.is_some() {
                    let m = self.trace_meta(&pkt);
                    let now = self.now;
                    if let Some(t) = self.trace.as_mut() {
                        t.drop_fault(now, port.0, f, m);
                    }
                }
                return;
            }
        }
        let now = self.now;
        let size = pkt.size();
        let prio = (pkt.prio as usize).min(1);
        let ps = &mut self.ports[port.0 as usize];
        let decision = ps.enqueue_hop(now, pkt);
        let queued = ps.queued_bytes;
        let accepted = matches!(decision, Enqueue::Accepted { .. });
        if let Some(a) = self.audit.as_mut() {
            a.on_enqueue(now, port.0 as usize, size.as_u64(), prio, queued, accepted);
        }
        if self.trace.is_some() {
            let m = self.trace_meta(&pkt);
            if let Some(t) = self.trace.as_mut() {
                if accepted {
                    t.enqueue(now, port.0, queued, m);
                } else {
                    t.drop_tail(now, port.0, queued, m);
                }
            }
        }
        if let Some(tel) = self.telemetry.as_mut() {
            let mark_ce = matches!(decision, Enqueue::Accepted { mark_ce: true });
            tel.port_enqueue(now, port.0 as usize, queued, accepted, mark_ce);
        }
        if !accepted {
            self.metrics.drops += 1;
            return;
        }
        let ps = &mut self.ports[port.0 as usize];
        // Invariant: `wakeup_armed` ⟺ exactly one PortFree in flight for
        // this port (it doubles as the "transmitting" flag). While one is
        // pending — even if it is due *this* instant — the queue must wait
        // for it: starting inline would dequeue the head a sub-instant
        // early, freeing buffer space before the in-flight wakeup would
        // and flipping same-instant tail-drop decisions at a full port
        // (decision record in DESIGN.md).
        if !ps.wakeup_armed && now >= ps.busy_until {
            self.start_tx(port);
        }
    }

    fn start_tx(&mut self, port: PortId) {
        let now = self.now;
        let (t_free, t_arrive, q) = {
            let ps = &mut self.ports[port.0 as usize];
            let Some(q) = ps.dequeue() else {
                return;
            };
            let tx = ps.rate.tx_time(q.pkt.size());
            ps.busy_time += tx;
            ps.tx_bytes += q.pkt.size().as_u64();
            ps.tx_packets += 1;
            let prop = ps.prop;
            let t_free = now + tx;
            ps.busy_until = t_free;
            ps.wakeup_armed = true;
            (t_free, t_free + prop, q)
        };
        let size = q.pkt.size();
        if self.audit.is_some() {
            let prio = (q.pkt.prio as usize).min(1);
            let queued = self.ports[port.0 as usize].queued_bytes;
            if let Some(a) = self.audit.as_mut() {
                a.on_dequeue(now, port.0 as usize, size.as_u64(), prio, queued);
            }
        }
        if self.trace.is_some() {
            let m = self.trace_meta(&q.pkt);
            let wait = now.since(q.enq_at);
            if let Some(t) = self.trace.as_mut() {
                t.wire_start(now, port.0, t_free - now, wait, m);
            }
        }
        if self.telemetry.is_some() {
            let queued_after = self.ports[port.0 as usize].queued_bytes;
            let wait = now.since(q.enq_at);
            let data_tenant = (q.pkt.kind() == PktKind::Data)
                .then(|| self.conn_identity[q.pkt.conn as usize].tenant);
            if let Some(tel) = self.telemetry.as_mut() {
                tel.port_tx(
                    now,
                    port.0 as usize,
                    t_free - now,
                    size.as_u64(),
                    queued_after,
                );
                if let Some(tenant) = data_tenant {
                    // Head-of-line wait attribution, data packets only —
                    // the trace layer's `wire_start` wait, summed per
                    // tenant per window.
                    tel.queue_wait(now, tenant, wait);
                }
            }
        }
        // The PortFree is always materialized, even when nothing is queued
        // behind this transmission. Eliding the idle tail is tempting (it
        // fires into a no-op ~2/3 of the time) but provably inexact: the
        // wakeup's queue position is what serializes same-instant enqueues
        // against the end of the transmission, so removing it — or
        // re-creating it later with a fresher sequence number — shifts the
        // within-instant service point and flips drop/occupancy decisions
        // whenever events collide on the tx-time grid (see DESIGN.md).
        let lane = self.port_free_lane(port);
        self.push_lane(lane, t_free, Ev::PortFree(port));
        let next = q.pkt.at_hop(q.pkt.hop + 1);
        let lane = self.port_arrive_lane(port);
        self.push_lane(lane, t_arrive, Ev::Arrive(next));
    }

    fn on_port_free(&mut self, port: PortId) {
        // Clear the armed flag unconditionally: even when a fault check
        // below bails out, this event has left the queue and a later
        // enqueue must be able to arm a fresh wakeup.
        self.ports[port.0 as usize].wakeup_armed = false;
        if self.faults_on && self.port_fault(port).is_some() {
            return; // port died mid-transmission; queue already flushed
        }
        let ps = &self.ports[port.0 as usize];
        if self.now >= ps.busy_until && !ps.is_empty() {
            self.start_tx(port);
        }
    }

    fn on_arrive(&mut self, pkt: Pkt) {
        if let Some(&port) = self.hops(pkt.path).get(pkt.hop as usize) {
            self.enqueue_port(port, pkt);
        } else {
            // Past the last hop: the flight is over.
            match pkt.kind() {
                PktKind::Data => self.rx_data(pkt),
                PktKind::Ack => self.rx_ack(pkt),
            }
        }
    }

    // ------------------------------------------------------------------
    // TCP receiver + ACK processing
    // ------------------------------------------------------------------

    fn rx_data(&mut self, pkt: Pkt) {
        let conn = pkt.conn;
        if self.faults_on && !self.tenant_alive(self.conns[conn as usize].tenant) {
            return; // the receiving VM is gone; the packet dies silently
        }
        if self.trace.is_some() {
            let m = self.trace_meta(&pkt);
            let arr = self.conn_identity[conn as usize].dst_host;
            let now = self.now;
            if let Some(t) = self.trace.as_mut() {
                t.deliver(now, arr, m);
            }
        }
        let (completions, dst_vm, src_vm, prio, rpath, tenant, adv) = {
            let c = &mut self.conns[conn as usize];
            let prev = c.receive_segment(pkt.seq, pkt.payload(self.cfg.header));
            let delivered = c.delivered;
            let adv = delivered - prev;
            c.goodput_bytes += adv;
            let mut done = Vec::new();
            while let Some(m) = c.msgs.front() {
                if m.end <= delivered {
                    done.push(c.msgs.pop_front().expect("front exists"));
                    c.msgs_done += 1;
                } else {
                    break;
                }
            }
            (done, c.dst_vm, c.src_vm, c.prio, c.rpath, c.tenant, adv)
        };
        self.vms[dst_vm as usize].rx_epoch_bytes += adv;
        if adv > 0 {
            let now = self.now;
            if let Some(tel) = self.telemetry.as_mut() {
                tel.goodput(now, tenant, adv);
            }
        }
        let same_host = self.conns[conn as usize].src_host == self.conns[conn as usize].dst_host;
        let dst_host = self.conns[conn as usize].dst_host.0;
        for m in &completions {
            let txn_latency = match (m.respond, m.txn) {
                // A response arriving back at the client closes the txn.
                (None, Some(txn)) => self.txn_starts.remove(&txn).map(|t0| self.now - t0),
                _ => None,
            };
            let latency = self.now - m.created;
            let cap = self.cfg.msg_record_cap;
            self.metrics.record_message(
                MsgRecord {
                    tenant,
                    size: m.size,
                    latency,
                    rto: m.rto_hit,
                    created: m.created,
                    txn_latency,
                    same_host,
                },
                cap,
            );
            if self.trace.is_some() {
                let (created, now, size) = (m.created, self.now, m.size);
                if let Some(ts) = self.trace.as_mut() {
                    ts.msg_done(created, now, dst_host, tenant, size);
                }
            }
            let bound_opt = self.tenants[tenant as usize].latency_bound(Bytes(m.size));
            if self.telemetry.is_some() {
                let now = self.now;
                let margin = bound_opt.map(|b| b.as_ps() as i64 - latency.as_ps() as i64);
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.msg_done(now, tenant, latency.as_ps(), margin);
                }
            }
            // Guarantee check: a tenant with a delay guarantee must see
            // every message inside its §4.1 bound; anything late is a
            // violation, attributed to an overlapping fault if one is
            // scheduled. (`delay: None` — all legacy configs — skips.)
            if let Some(bound) = bound_opt {
                if latency > bound {
                    let fault = self.attribute_fault(m.created, self.now);
                    self.metrics.violations.push(Violation {
                        tenant,
                        fault,
                        created: m.created,
                        completed: self.now,
                        latency,
                        bound,
                    });
                }
            }
            if let (None, Some(_txn)) = (m.respond, m.txn) {
                // Client-side completion: release a concurrency slot.
                self.etc_txn_done(dst_vm);
            }
            if let Some(resp) = m.respond {
                // Server side: send the response back.
                let rc = self.conn_for(dst_vm, src_vm);
                self.app_write(rc, resp, None, m.txn);
            }
        }
        // Cumulative ACK echoing this segment's CE mark.
        let acked = self.conns[conn as usize].delivered;
        let ack =
            Pkt::new(PktKind::Ack, conn, acked, self.ack_size, prio, rpath).with_ecn_echo(pkt.ce());
        self.send_from_vm(dst_vm, ack);
    }

    fn etc_txn_done(&mut self, client_vm: u32) {
        let start_next = {
            let v = &mut self.vms[client_vm as usize];
            if let VmApp::EtcClient {
                outstanding,
                pending,
                ..
            } = &mut v.app
            {
                *outstanding = outstanding.saturating_sub(1);
                if *pending > 0 {
                    *pending -= 1;
                    *outstanding += 1;
                    true
                } else {
                    false
                }
            } else {
                false
            }
        };
        if start_next {
            let (server, req, resp) = {
                let v = &mut self.vms[client_vm as usize];
                let VmApp::EtcClient { server_vm, wl, .. } = &mut v.app else {
                    unreachable!()
                };
                let r = wl.next_request(&mut self.rng);
                (*server_vm, r.request, r.response)
            };
            self.start_etc_txn(client_vm, server, req, resp);
        }
    }

    fn rx_ack(&mut self, pkt: Pkt) {
        let conn = pkt.conn;
        if self.faults_on && !self.tenant_alive(self.conns[conn as usize].tenant) {
            return;
        }
        if self.trace.is_some() {
            let m = self.trace_meta(&pkt);
            let arr = self.conn_identity[conn as usize].src_host;
            let now = self.now;
            if let Some(t) = self.trace.as_mut() {
                t.deliver(now, arr, m);
            }
        }
        let ack = pkt.seq;
        let mss = self.cfg.mss() as f64;
        let mut need_retx_partial = false;
        let mut flight_left = 0;
        {
            let c = &mut self.conns[conn as usize];
            if ack > c.una {
                let adv = ack - c.una;
                // DCTCP mark accounting.
                c.acked_bytes += adv;
                if pkt.ecn_echo() {
                    c.ce_bytes += adv;
                }
                // RTT sample (Karn: only never-retransmitted segments).
                let mut sample = None;
                while let Some(&(end, sent, retx)) = c.inflight_meta.front() {
                    if end <= ack {
                        if !retx {
                            sample = Some(self.now - sent);
                        }
                        c.inflight_meta.pop_front();
                    } else {
                        break;
                    }
                }
                if let Some(rtt) = sample {
                    c.on_rtt_sample(rtt);
                }
                c.una = ack;
                // After an RTO rewinds `nxt` (go-back-N), a late ACK for
                // the original flight can overtake it; acked bytes never
                // need re-sending.
                c.nxt = c.nxt.max(ack);
                c.dupacks = 0;
                c.rto_backoff = 0;
                if c.in_recovery {
                    if ack >= c.recover {
                        c.in_recovery = false;
                        c.cwnd = c.ssthresh;
                        c.retx_upto = 0;
                    } else {
                        // NewReno partial ack: retransmit the next hole.
                        need_retx_partial = true;
                    }
                } else {
                    c.grow_cwnd(adv, mss);
                }
                c.cwnd = c.cwnd.min(self.cfg.max_cwnd.as_f64());
                if self.cfg.mode.dctcp_sender() {
                    c.dctcp_window_rollover(self.cfg.dctcp_g, mss);
                }
                flight_left = c.flight();
            } else if c.flight() > 0 {
                c.dupacks += 1;
                if pkt.ecn_echo() {
                    // Marked dupacks still feed DCTCP's estimator.
                    c.ce_bytes += mss as u64;
                    c.acked_bytes += mss as u64;
                }
                if c.dupacks == 3 && !c.in_recovery && c.una >= c.recover {
                    // NewReno re-entry guard: losses within one recovery
                    // window trigger only one halving.
                    c.enter_recovery(mss);
                    need_retx_partial = true;
                } else if c.in_recovery {
                    c.cwnd = (c.cwnd + mss).min(self.cfg.max_cwnd.as_f64());
                }
                flight_left = c.flight();
            }
        }
        if need_retx_partial {
            self.retransmit_holes(conn, 16);
        }
        if flight_left > 0 {
            self.arm_rto(conn);
        } else {
            self.disarm_rto(conn);
        }
        self.try_send(conn);
        self.app_on_ack(conn);
        // Became idle (fully acked, nothing queued): release its hose
        // share to the tenant's other active pairs.
        if self.cfg.mode.paced() && !self.conns[conn as usize].active() {
            let tenant = self.conns[conn as usize].tenant;
            self.update_tenant_hose(tenant);
        }
    }

    /// EyeQ-style hose coordination (paper §4.3): each sender splits its
    /// own `B` over the destinations it is *currently* sending to; a
    /// receiver additionally throttles its senders to `B/in-degree` only
    /// when its measured arrival rate actually exceeds its hose — bursts
    /// to an idle receiver are deliberately not destination-limited
    /// (§4.1). Idle pairs are reset to the full sender rate so a fresh
    /// burst rides the burst allowance, exactly as the guarantee promises.
    fn on_hose_epoch(&mut self) {
        match self.cfg.mode {
            TransportMode::Okto | TransportMode::OktoPlus => self.okto_epoch(),
            _ => self.silo_epoch(),
        }
        let epoch = self.cfg.hose_epoch;
        self.push(self.now + epoch, Ev::HoseEpoch);
    }

    /// Oktopus-style *static* hose division: every VM pair that has ever
    /// communicated keeps `min(B/out-degree, B/in-degree)` regardless of
    /// current activity — Oktopus's central rate computation has no
    /// work-conserving feedback loop (paper §6.2: "VMs cannot burst").
    fn okto_epoch(&mut self) {
        let mut out_deg: FxHashMap<u32, u32> = FxHashMap::default();
        let mut in_deg: FxHashMap<u32, u32> = FxHashMap::default();
        for c in &self.conns {
            if c.src_host != c.dst_host {
                *out_deg.entry(c.src_vm).or_default() += 1;
                *in_deg.entry(c.dst_vm).or_default() += 1;
            }
        }
        let now = self.now;
        for (vi, v) in self.vms.iter_mut().enumerate() {
            let b = self.tenants[v.tenant as usize].b.as_bps() as f64;
            let od = out_deg.get(&(vi as u32)).copied().unwrap_or(1).max(1);
            for (&d, tb) in v.per_dst.iter_mut() {
                let id = in_deg.get(&d).copied().unwrap_or(1).max(1);
                let r = (b / od as f64).min(b / id as f64);
                tb.set_rate(now, silo_base::Rate::from_bps(r.max(1e6) as u64));
            }
            v.rx_epoch_bytes = 0;
        }
    }

    fn silo_epoch(&mut self) {
        for ti in 0..self.tenants.len() {
            self.update_tenant_hose(ti as u16);
        }
    }

    /// Recompute one tenant's pairwise hose rates. Sustained rates split
    /// both endpoint hoses over *currently active* peers (zero-lag
    /// idealization of the pacers' coordination messages). Bursts are
    /// untouched — they ride the per-destination bucket's capacity `S`
    /// whatever its refill rate (§4.1: bursts are not destination
    /// limited) — and idle pairs are reset to the full hose `B` so the
    /// burst allowance refills at the guaranteed rate.
    ///
    /// Called on every active↔idle transition of the tenant's
    /// connections, plus a periodic safety epoch.
    fn update_tenant_hose(&mut self, ti: u16) {
        if matches!(self.cfg.mode, TransportMode::Okto | TransportMode::OktoPlus) {
            return; // Oktopus rates are static, set by okto_epoch.
        }
        let Sim {
            conns,
            conn_index,
            vms,
            tenants,
            tenant_vms,
            tenant_conns,
            hose_deg,
            now,
            ..
        } = self;
        let members = &tenant_vms[ti as usize];
        let Some(&base) = members.first() else {
            return;
        };
        // A pair takes a share of both endpoint hoses while it has data
        // outstanding and crosses the NIC.
        let shares = |c: &TcpConn| c.active() && c.src_host != c.dst_host;
        hose_deg.clear();
        hose_deg.resize(members.len(), (0, 0));
        for &ci in &tenant_conns[ti as usize] {
            let c = &conns[ci as usize];
            if shares(c) {
                hose_deg[(c.src_vm - base) as usize].0 += 1;
                hose_deg[(c.dst_vm - base) as usize].1 += 1;
            }
        }
        let now = *now;
        let b = tenants[ti as usize].b;
        let b_bps = b.as_bps() as f64;
        for &vi in members {
            let out_deg = hose_deg[(vi - base) as usize].0;
            for (&d, tb) in vms[vi as usize].per_dst.iter_mut() {
                let sharing = conn_index
                    .get(&(vi, d))
                    .is_some_and(|&ci| shares(&conns[ci as usize]));
                if sharing {
                    let in_deg = hose_deg[(d - base) as usize].1;
                    // 3% headroom: pair rates summing to exactly B would
                    // keep the VM's {B, S} bucket permanently saturated and
                    // its backlog random-walking upward (EyeQ similarly
                    // converges slightly below the hose).
                    let r = 0.97 * (b_bps / out_deg as f64).min(b_bps / in_deg as f64);
                    tb.set_rate(now, silo_base::Rate::from_bps(r.max(1e6) as u64));
                } else {
                    tb.set_rate(now, b);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Is this tenant currently admitted? (Always true without churn.)
    #[inline]
    fn tenant_alive(&self, ti: u16) -> bool {
        !self.faults_on || self.tenant_up[ti as usize]
    }

    /// The fault currently holding this port down, if any. The vswitch
    /// loopback (index past the switch ports) cannot fail.
    #[inline]
    fn port_fault(&self, p: PortId) -> Option<u32> {
        self.port_down.get(p.0 as usize).copied().flatten()
    }

    fn on_fault_start(&mut self, i: u32) {
        self.fault_active[i as usize] = true;
        if self.trace.is_some() {
            let now = self.now;
            if let Some(t) = self.trace.as_mut() {
                t.fault(now, i, true);
            }
        }
        match self.cfg.faults.events[i as usize].kind {
            FaultKind::LinkDown { .. } | FaultKind::PortDown { .. } => {
                self.recompute_port_faults();
                self.flush_downed_ports();
            }
            FaultKind::PacerStall { .. } | FaultKind::PacerDrift { .. } => {
                self.recompute_nic_faults();
            }
            FaultKind::TenantDown { tenant } => self.tenant_depart(tenant),
            FaultKind::TenantUp { tenant } => self.tenant_admit(tenant),
        }
    }

    fn on_fault_end(&mut self, i: u32) {
        self.fault_active[i as usize] = false;
        if self.trace.is_some() {
            let now = self.now;
            if let Some(t) = self.trace.as_mut() {
                t.fault(now, i, false);
            }
        }
        match self.cfg.faults.events[i as usize].kind {
            FaultKind::LinkDown { .. } | FaultKind::PortDown { .. } => {
                self.recompute_port_faults();
                // A restored port restarts transmission if traffic queued
                // behind it (possible when another fault flap raced the
                // flush; normally the queue is empty).
                for p in 0..self.port_down.len() {
                    if self.port_down[p].is_none()
                        && self.now >= self.ports[p].busy_until
                        && !self.ports[p].is_empty()
                    {
                        self.start_tx(PortId(p as u32));
                    }
                }
            }
            FaultKind::PacerStall { host } => {
                self.recompute_nic_faults();
                // Wake the pacer: frames stamped during the stall are
                // waiting in the batcher with no pull armed before now.
                let h = host as usize;
                if self.now >= self.nics[h].busy_until {
                    if let Some(s) = self.nics[h].batcher.next_stamp() {
                        let at = s.max(self.now);
                        self.arm_nic(h, at);
                    }
                }
            }
            FaultKind::PacerDrift { .. } => self.recompute_nic_faults(),
            FaultKind::TenantDown { tenant } => self.tenant_admit(tenant),
            FaultKind::TenantUp { .. } => {}
        }
    }

    /// Rebuild the downed-port map from the currently active events
    /// (overlapping faults on one port resolve to the earliest).
    fn recompute_port_faults(&mut self) {
        for p in self.port_down.iter_mut() {
            *p = None;
        }
        for (i, e) in self.cfg.faults.events.iter().enumerate() {
            if !self.fault_active[i] {
                continue;
            }
            match e.kind {
                FaultKind::LinkDown { link } => {
                    let l = silo_topology::LinkId(link);
                    for p in [PortId::up(l), PortId::down(l)] {
                        let slot = &mut self.port_down[p.0 as usize];
                        if slot.is_none() {
                            *slot = Some(i as u32);
                        }
                    }
                }
                FaultKind::PortDown { port } => {
                    let slot = &mut self.port_down[port as usize];
                    if slot.is_none() {
                        *slot = Some(i as u32);
                    }
                }
                _ => {}
            }
        }
    }

    /// A dead port stops transmitting: everything it holds is lost, and
    /// the loss is attributed to the fault that killed the port.
    fn flush_downed_ports(&mut self) {
        let now = self.now;
        for p in 0..self.port_down.len() {
            let Some(f) = self.port_down[p] else { continue };
            while let Some(q) = self.ports[p].dequeue() {
                self.metrics.fault_drops[f as usize] += 1;
                if self.audit.is_some() {
                    let prio = (q.pkt.prio as usize).min(1);
                    let queued = self.ports[p].queued_bytes;
                    if let Some(a) = self.audit.as_mut() {
                        a.on_flush(now, p, q.pkt.size().as_u64(), prio, queued);
                    }
                }
                if self.trace.is_some() {
                    let m = self.trace_meta(&q.pkt);
                    if let Some(t) = self.trace.as_mut() {
                        t.drop_fault(now, p as u32, f, m);
                    }
                }
            }
            if self.telemetry.is_some() {
                let queued_now = self.ports[p].queued_bytes;
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.port_flush(now, p, queued_now);
                }
            }
        }
    }

    /// Rebuild per-host pacer stall/drift state from active events.
    fn recompute_nic_faults(&mut self) {
        for t in self.nic_stall_until.iter_mut() {
            *t = Time::ZERO;
        }
        for d in self.nic_drift.iter_mut() {
            *d = (Time::ZERO, 1.0);
        }
        for (i, e) in self.cfg.faults.events.iter().enumerate() {
            if !self.fault_active[i] {
                continue;
            }
            match e.kind {
                FaultKind::PacerStall { host } => {
                    let until = e.until.expect("validated: stalls have an end");
                    let h = host as usize;
                    self.nic_stall_until[h] = self.nic_stall_until[h].max(until);
                }
                FaultKind::PacerDrift { host, factor } => {
                    let until = e.until.expect("validated: drifts have an end");
                    self.nic_drift[host as usize] = (until, factor);
                }
                _ => {}
            }
        }
    }

    /// Defer a NIC pull timer per the host's active pacer fault: past
    /// the stall horizon, and never before the drift gate (set after
    /// each batch while a slow clock is active).
    fn fault_nic_at(&self, host: usize, at: Time) -> Time {
        let (until, _) = self.nic_drift[host];
        let at = if self.now < until {
            at.max(self.nic_drift_gate[host])
        } else {
            at
        };
        at.max(self.nic_stall_until[host])
    }

    /// Tenant departure: the workload generators die (their event chains
    /// are gated), unsent and unfinished data is abandoned, timers are
    /// disarmed. In-flight packets die at the receive gate.
    fn tenant_depart(&mut self, ti: u16) {
        if !self.tenant_up[ti as usize] {
            return;
        }
        self.tenant_up[ti as usize] = false;
        for &ci in &self.tenant_conns[ti as usize].clone() {
            let c = &mut self.conns[ci as usize];
            c.wr_end = c.una; // abandon everything not yet acknowledged
            c.msgs.clear();
            c.inflight_meta.clear();
            self.disarm_rto(ci);
        }
        if self.cfg.mode.paced() {
            self.update_tenant_hose(ti);
        }
    }

    /// Tenant (re-)admission: every connection restarts from a fresh
    /// logical stream at the old send frontier (stale packets and ACKs
    /// from the previous life arrive as duplicates), pacer buckets refill
    /// to the full burst allowance, and the workload starts over — the
    /// engine's view of "the placement layer re-admitted this tenant".
    fn tenant_admit(&mut self, ti: u16) {
        if self.tenant_up[ti as usize] {
            return;
        }
        self.tenant_up[ti as usize] = true;
        let init_cwnd = (self.cfg.init_cwnd * self.cfg.mss()) as f64;
        for &ci in &self.tenant_conns[ti as usize].clone() {
            let c = &mut self.conns[ci as usize];
            let f = c.nxt.max(c.wr_end).max(c.delivered);
            c.una = f;
            c.nxt = f;
            c.wr_end = f;
            c.delivered = f;
            c.high_tx = f;
            c.recover = 0;
            c.retx_upto = 0;
            c.ooo.clear();
            c.msgs.clear();
            c.inflight_meta.clear();
            c.cwnd = init_cwnd;
            c.ssthresh = f64::INFINITY;
            c.dupacks = 0;
            c.in_recovery = false;
            c.srtt = None;
            c.rttvar = Dur::ZERO;
            c.rto_backoff = 0;
            c.pace_blocked = false;
            c.alpha = 0.0;
            c.ce_bytes = 0;
            c.acked_bytes = 0;
            c.dctcp_window_end = f;
            self.disarm_rto(ci);
        }
        let (b, s, bmax) = {
            let t = &self.tenants[ti as usize];
            (t.b, t.s, t.bmax)
        };
        for &vi in &self.tenant_vms[ti as usize].clone() {
            let v = &mut self.vms[vi as usize];
            v.tb_bs = TokenBucket::new(b, s);
            v.tb_max = TokenBucket::new(bmax, self.cfg.mtu);
            v.per_dst.clear();
            v.rx_epoch_bytes = 0;
            v.app = VmApp::None;
        }
        if let Some(a) = self.audit.as_mut() {
            // The re-admitted tenant's buckets restarted full above; the
            // reference meters must agree or the first burst after
            // readmission would be a false conformance violation.
            let now = self.now;
            for &vi in &self.tenant_vms[ti as usize] {
                a.reset_vm(now, vi as usize);
            }
        }
        self.init_tenant_apps(ti as usize);
        if self.cfg.mode.paced() {
            self.update_tenant_hose(ti);
        }
    }

    /// The first planned fault whose realized window overlaps a message
    /// lifetime `[created, completed]` — the attribution recorded with a
    /// guarantee violation.
    fn attribute_fault(&self, created: Time, completed: Time) -> Option<u32> {
        let horizon = Time::ZERO + self.cfg.duration;
        for (i, e) in self.cfg.faults.events.iter().enumerate() {
            if let Some((ws, we)) = e.window(horizon) {
                if ws <= completed && created <= we {
                    return Some(i as u32);
                }
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Driver
    // ------------------------------------------------------------------

    /// Debug introspection: (vm, dst, bucket rate bps) of every
    /// per-destination hose bucket (used by diagnostics binaries).
    pub fn debug_hose_rates(&self) -> Vec<(u32, u32, u64)> {
        let mut v = Vec::new();
        for (vi, vm) in self.vms.iter().enumerate() {
            for (&d, tb) in &vm.per_dst {
                v.push((vi as u32, d, tb.rate().as_bps()));
            }
        }
        v.sort_unstable();
        v
    }

    /// Debug introspection: (max_queued, at) per port (diagnostics).
    pub fn debug_port_peaks(&self) -> Vec<(u64, silo_base::Time)> {
        self.ports
            .iter()
            .map(|p| (p.max_queued, p.max_at))
            .collect()
    }

    /// Debug introspection: per-connection congestion state
    /// (conn, cwnd, ssthresh, srtt_us, in_recovery, delivered).
    pub fn debug_conns(&self) -> Vec<(u32, f64, f64, f64, bool, u64)> {
        self.conns
            .iter()
            .map(|c| {
                (
                    c.id,
                    c.cwnd,
                    c.ssthresh,
                    c.srtt.map(|d| d.as_us_f64()).unwrap_or(-1.0),
                    c.in_recovery,
                    c.delivered,
                )
            })
            .collect()
    }

    /// Debug introspection: run the simulation but hand back the Sim for
    /// post-mortem inspection alongside metrics.
    pub fn run_keep(mut self) -> (Metrics, Sim) {
        self.run_inner();
        let metrics = self.finish_metrics();
        (metrics, self)
    }

    /// Run to completion and return the metrics.
    pub fn run(mut self) -> Metrics {
        self.run_inner();
        self.finish_metrics()
    }

    fn run_inner(&mut self) {
        self.init_apps();
        if self.faults_on {
            let plan = self.cfg.faults.clone();
            for (i, e) in plan.events.iter().enumerate() {
                self.push(e.at, Ev::FaultStart(i as u32));
                if let Some(u) = e.until {
                    self.push(u, Ev::FaultEnd(i as u32));
                }
            }
        }
        let horizon = Time::ZERO + self.cfg.duration;
        if let Some(tel) = self.telemetry.as_mut() {
            tel.wall_start();
        }
        while let Some((t, ev)) = self.events.pop() {
            if t > horizon {
                break;
            }
            self.now = t;
            self.metrics.events_processed += 1;
            let kind = ev.kind() as usize;
            self.profile.fired[kind] += 1;
            // Sampled dispatch self-profile: every 64th event pays two
            // clock reads. Wall-clock only — never sim state.
            let ticked = self
                .telemetry
                .as_mut()
                .is_some_and(|tel| tel.dispatch_tick());
            let sample = ticked.then(std::time::Instant::now);
            match ev {
                Ev::Arrive(pkt) => self.on_arrive(pkt),
                Ev::PortFree(p) => self.on_port_free(p),
                Ev::NicPull { host } => self.on_nic_pull(host),
                Ev::Rto { conn } => self.on_rto(conn),
                Ev::EtcArrival { vm } => self.on_etc_arrival(vm),
                Ev::Oldi { tenant } => self.on_oldi(tenant),
                Ev::PoissonMsg { tenant, pair } => self.on_poisson_msg(tenant, pair),
                Ev::HoseEpoch => self.on_hose_epoch(),
                Ev::PaceResume { conn } => {
                    self.conns[conn as usize].pace_blocked = false;
                    self.try_send(conn);
                }
                Ev::BulkStart { src, dst, msg } => {
                    if self.tenant_alive(self.vms[src as usize].tenant) {
                        let c = self.conn_for(src, dst);
                        self.app_write(c, msg, None, None);
                    }
                }
                Ev::FaultStart(i) => self.on_fault_start(i),
                Ev::FaultEnd(i) => self.on_fault_end(i),
            }
            if let Some(t0) = sample {
                let ns = t0.elapsed().as_nanos() as u64;
                if let Some(tel) = self.telemetry.as_mut() {
                    tel.dispatch_span(kind, ns);
                }
            }
        }
        if let Some(tel) = self.telemetry.as_mut() {
            tel.wall_end();
        }
    }

    fn finish_metrics(&mut self) -> Metrics {
        let dur = self.cfg.duration;
        self.metrics.peak_event_queue = self.events.peak_len() as u64;
        self.metrics.profile = self.profile.clone();
        self.metrics.port_utilization = self
            .ports
            .iter()
            .take(self.topo.num_ports()) // loopback vswitch ports excluded
            .map(|p| p.utilization(dur))
            .collect();
        self.metrics.drops = self.ports.iter().map(|p| p.drops).sum();
        self.metrics.port_drops = self
            .ports
            .iter()
            .take(self.topo.num_ports())
            .map(|p| p.drops)
            .collect();
        self.metrics.port_max_queue = self
            .ports
            .iter()
            .take(self.topo.num_ports())
            .map(|p| p.max_queued)
            .collect();
        // Goodput per tenant from connection delivery counters.
        for g in self.metrics.goodput.iter_mut() {
            *g = 0;
        }
        for c in &self.conns {
            self.metrics.goodput[c.tenant as usize] += c.goodput_bytes;
        }
        if self.faults_on {
            let horizon = Time::ZERO + dur;
            self.metrics.fault_windows = self
                .cfg
                .faults
                .events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| {
                    e.window(horizon).map(|(start, end)| FaultWindow {
                        fault: i as u32,
                        label: e.kind.label(),
                        start,
                        end,
                    })
                })
                .collect();
        }
        // Token-bucket conservation: any over-spend the pacer's checked
        // invariant recorded surfaces here (must stay zero).
        self.metrics.token_violations = self
            .vms
            .iter()
            .map(|v| {
                v.tb_bs.violations()
                    + v.tb_max.violations()
                    + v.per_dst.values().map(|b| b.violations()).sum::<u64>()
            })
            .sum();
        if let Some(a) = self.audit.as_mut() {
            let early: u64 = self.nics.iter().map(|n| n.batcher.early_releases()).sum();
            self.metrics.audit = Some(a.finish(early));
        }
        if self.trace.is_some() || self.telemetry.is_some() {
            // Port labels: switch/NIC ports first (matching PortId), then
            // the per-host vswitch loopbacks appended by `Sim::new`.
            let mut labels: Vec<String> = (0..self.topo.num_ports())
                .map(|i| {
                    if self.topo.port(PortId(i as u32)).is_nic {
                        format!("nic_p{i}")
                    } else {
                        format!("sw_p{i}")
                    }
                })
                .collect();
            for h in 0..self.topo.num_hosts() {
                labels.push(format!("lo_h{h}"));
            }
            if let Some(ts) = self.trace.take() {
                self.metrics.trace = Some(ts.finish(
                    labels.clone(),
                    self.metrics.fault_windows.clone(),
                    self.tenants.len(),
                ));
            }
            if let Some(tel) = self.telemetry.take() {
                self.metrics.telemetry = Some(tel.finish(labels, &self.metrics.fault_windows));
            }
        }
        self.metrics.clone()
    }
}
