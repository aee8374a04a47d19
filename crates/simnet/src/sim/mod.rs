//! The discrete-event engine: hosts, VMs, pacers, switches, TCP plumbing
//! and applications wired together.
//!
//! This file holds the state, construction, the event queue and the
//! driver; each layer is an `impl Sim` block of its own: `apps`, `tcp`,
//! `nic` (pacer stamping and batch pulls), `fabric` (switch ports),
//! `hose` (rate epochs) and `faults`. Observers hear of each lifecycle
//! point through `obs` (the crate's `observe` module).

use crate::config::{
    SimConfig, TenantSpec, TransportMode, ECN_K, HULL_GAMMA, HULL_THRESH, INIT_CWND, NIC_FIFO,
};
use crate::faults::{FaultKind, PlanBounds};
use crate::metrics::{EvKind, EventProfile, Metrics};
use crate::observe::Observers;
use crate::packet::{PathId, Pkt};
use crate::port::{PhantomQueue, PortState};
use crate::tcp::TcpConn;
use rand::rngs::StdRng;
use silo_base::{seeded_rng, Bytes, Dur, EvKey, EventQueue, FxHashMap, Time};
use silo_pacer::{Batch, PacedBatcher, TokenBucket};
use silo_topology::{HostId, PortId, Topology};
use silo_workload::EtcWorkload;

mod apps;
mod fabric;
mod faults;
mod hose;
mod nic;
mod tcp;

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
    /// This VM's stamp lane in its host's batcher (`1..=` the host's VM
    /// count; lane 0 carries the host's ACKs).
    lane: u16,
    host: HostId,
    /// `{B, S}` bucket (middle of Fig. 8).
    tb_bs: TokenBucket,
    /// `Bmax` cap (bottom of Fig. 8).
    tb_max: TokenBucket,
    /// Per-destination hose buckets (top of Fig. 8), keyed by global VM id.
    per_dst: FxHashMap<u32, TokenBucket>,
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
    /// The armed `NicPull`'s handle and instant, `None` when no pull is
    /// pending. A superseding arm moves the pending pull in place
    /// (`Sim::rearm`); the fast-forward path (`Sim::ensure_pull`)
    /// compares against the instant to skip re-arms that would land at
    /// the same one.
    pull: Option<(EvKey, Time)>,
    busy_until: Time,
    /// VMs placed on this host: their stamp lanes are `1..=vms`.
    vms: u16,
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
    conn_index: FxHashMap<(u32, u32), u32>,
    vms: Vec<Vm>,
    /// Global VM ids of each tenant, in tenant-local order: one
    /// contiguous ascending run per tenant.
    tenant_vms: Vec<Vec<u32>>,
    /// Connection ids per tenant (for event-driven hose updates).
    tenant_conns: Vec<Vec<u32>>,
    /// `Sim::tenant_hose` scratch: (out, in) degree of each VM of the
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
    /// Every observer the run carries, told of each lifecycle point once.
    obs: Observers,
}

impl Sim {
    pub fn new(topo: Topology, cfg: SimConfig, mut tenants: Vec<TenantSpec>) -> Sim {
        if let Err(e) = cfg.validate() {
            panic!("invalid SimConfig: {e}");
        }
        let horizon = Time::ZERO + cfg.duration;
        if let Err(e) = cfg
            .faults
            .validate(&PlanBounds::of(&topo, tenants.len(), horizon))
        {
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
        // The switch ports, then one vswitch loopback per host (below).
        let mut ports = Vec::with_capacity(nports + topo.num_hosts());
        for i in 0..nports {
            let pid = PortId(i as u32);
            let info = topo.port(pid);
            let prop = topo.params().prop_delay;
            let mut ps = if info.is_nic {
                // Un-paced NIC FIFO: deep queue, no marking, no loss.
                PortState::new(info.rate, NIC_FIFO, prop)
            } else {
                PortState::new(info.rate, info.buffer, prop)
            };
            if !info.is_nic {
                match cfg.mode {
                    TransportMode::Dctcp => ps.ecn_k = Some(ECN_K),
                    TransportMode::Hull => {
                        ps.phantom = Some(PhantomQueue::new(info.rate, HULL_GAMMA, HULL_THRESH));
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
                    lane: 0,
                    host: h,
                    tb_bs: TokenBucket::new(t.b, t.s),
                    tb_max: TokenBucket::new(t.bmax, cfg.mtu),
                    per_dst: FxHashMap::default(),
                    app: VmApp::None,
                });
            }
            tenant_vms.push(ids);
        }
        let mut nics: Vec<HostNic> = (0..topo.num_hosts())
            .map(|_| HostNic {
                batcher: PacedBatcher::new(topo.params().host_link, cfg.batch_window, cfg.mtu),
                pull: None,
                busy_until: Time::ZERO,
                vms: 0,
            })
            .collect();
        for v in vms.iter_mut() {
            let nic = &mut nics[v.host.0 as usize];
            nic.vms = nic.vms.checked_add(1).expect("at most 65 535 VMs a host");
            v.lane = nic.vms;
        }
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
            fault_windows: cfg.faults.windows(horizon),
            ..Metrics::default()
        };
        // Nothing here is pre-sized: every queue grows from what the run
        // puts into it (DESIGN.md, "memory follows traffic").
        let events = EventQueue::with_backend(cfg.queue);
        let num_hosts = topo.num_hosts();
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
        let obs = Observers::new(
            &cfg,
            &topo,
            &tenants,
            vms.iter().map(|v: &Vm| v.tenant),
            &metrics.fault_windows,
        );
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
            port_down: vec![None; nports],
            nic_stall_until: vec![Time::ZERO; num_hosts],
            nic_drift: vec![(Time::ZERO, 1.0); num_hosts],
            nic_drift_gate: vec![Time::ZERO; num_hosts],
            tenant_up: vec![true; ntenants],
            obs,
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
        let init_cwnd = (INIT_CWND * self.cfg.mss()) as f64;
        self.conns.push(TcpConn::new(
            id, tenant, src_vm, dst_vm, sh, dh, prio, path, rpath, init_cwnd,
        ));
        self.obs.conn_opened(src_vm, sh, dh, tenant);
        self.conn_index.insert((src_vm, dst_vm), id);
        self.tenant_conns[tenant as usize].push(id);
        id
    }

    /// Run to completion and return the metrics.
    pub fn run(mut self) -> Metrics {
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
        self.obs.loop_start();
        while let Some((t, ev)) = self.events.pop() {
            if t > horizon {
                break;
            }
            self.now = t;
            self.metrics.events_processed += 1;
            let kind = ev.kind() as usize;
            self.profile.fired[kind] += 1;
            let sample = self.obs.dispatch_start();
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
            self.obs.dispatch_end(kind, sample);
        }
        self.obs.loop_end();
        self.finish_metrics()
    }

    fn finish_metrics(mut self) -> Metrics {
        let dur = self.cfg.duration;
        self.metrics.peak_event_queue = self.events.peak_len() as u64;
        self.metrics.profile = self.profile.clone();
        self.metrics.drops = self.ports.iter().map(|p| p.drops).sum();
        // Per-port series leave out the vswitch loopbacks.
        let switch_ports = &self.ports[..self.topo.num_ports()];
        self.metrics.port_utilization = switch_ports.iter().map(|p| p.utilization(dur)).collect();
        self.metrics.port_drops = switch_ports.iter().map(|p| p.drops).collect();
        self.metrics.port_max_queue = switch_ports.iter().map(|p| p.max_queued).collect();
        self.metrics.port_max_at = switch_ports.iter().map(|p| p.max_at).collect();
        // Goodput per tenant from connection delivery counters.
        for g in self.metrics.goodput.iter_mut() {
            *g = 0;
        }
        for c in &self.conns {
            self.metrics.goodput[c.tenant as usize] += c.goodput_bytes;
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
        let early: u64 = self.nics.iter().map(|n| n.batcher.early_releases()).sum();
        let tenants = self.tenants.len();
        self.obs
            .finish(&mut self.metrics, &self.topo, tenants, early);
        self.metrics
    }
}
