//! Silo's admission control and VM placement manager (paper §4.2.3).

use crate::guarantee::TenantRequest;
use crate::load::{Contribution, PortLoad, NIC_HEADROOM};
use crate::placer::{greedy_place_spread, Placement, Placer, RejectReason, SlotMap, TenantId};
use silo_base::{Bytes, Dur, FxHashMap, Rate};
use silo_netcalc::{path_delay_sfa, BoundCache, Curve, ServiceCurve};
use silo_topology::{Cut, HostId, Level, LinkId, LinkTier, PortId, PortInfo, Topology};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Classification of a directed port by tier and direction, used to find
/// the upstream queues that inflate a burst before it arrives and to look
/// up the port's constants ([`TierPort`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortKind {
    NicUp,
    HostDown,
    TorUp,
    TorDown,
    AggUp,
    AggDown,
}

impl PortKind {
    const ALL: [PortKind; 6] = [
        PortKind::NicUp,
        PortKind::HostDown,
        PortKind::TorUp,
        PortKind::TorDown,
        PortKind::AggUp,
        PortKind::AggDown,
    ];

    fn of(tier: LinkTier, up: bool) -> PortKind {
        match (tier, up) {
            (LinkTier::Host, true) => PortKind::NicUp,
            (LinkTier::Host, false) => PortKind::HostDown,
            (LinkTier::Tor, true) => PortKind::TorUp,
            (LinkTier::Tor, false) => PortKind::TorDown,
            (LinkTier::Agg, true) => PortKind::AggUp,
            (LinkTier::Agg, false) => PortKind::AggDown,
        }
    }

    /// One port of this kind. All racks and pods are symmetric, so its
    /// constants are every such port's.
    fn representative(self, topo: &Topology) -> PortId {
        let host = topo.host_link(HostId(0));
        match self {
            PortKind::NicUp => PortId::up(host),
            PortKind::HostDown => PortId::down(host),
            PortKind::TorUp => PortId::up(topo.tor_link(0)),
            PortKind::TorDown => PortId::down(topo.tor_link(0)),
            PortKind::AggUp => PortId::up(topo.agg_link(0)),
            PortKind::AggDown => PortId::down(topo.agg_link(0)),
        }
    }
}

/// The constants of every port of one [`PortKind`], read off its
/// representative once so a candidate check never recomputes them.
#[derive(Debug, Clone, Copy)]
struct TierPort {
    info: PortInfo,
    ingress: Rate,
}

impl TierPort {
    /// The table, indexed by `PortKind as usize`.
    fn table(topo: &Topology) -> [TierPort; 6] {
        PortKind::ALL.map(|kind| {
            let p = kind.representative(topo);
            TierPort {
                info: topo.port(p),
                ingress: topo.ingress_capacity(p),
            }
        })
    }
}

/// Queue capacities of one representative port per tier (all racks/pods are
/// symmetric), precomputed once.
#[derive(Debug, Clone, Copy)]
struct TierCaps {
    nic: Dur,
    host_down: Dur,
    tor_up: Dur,
    tor_down: Dur,
    agg_up: Dur,
    agg_down: Dur,
}

impl TierCaps {
    fn compute(ports: &[TierPort; 6]) -> TierCaps {
        let cap = |kind: PortKind| ports[kind as usize].info.queue_capacity();
        TierCaps {
            nic: cap(PortKind::NicUp),
            host_down: cap(PortKind::HostDown),
            tor_up: cap(PortKind::TorUp),
            tor_down: cap(PortKind::TorDown),
            agg_up: cap(PortKind::AggUp),
            agg_down: cap(PortKind::AggDown),
        }
    }

    /// Constraint C2's path budget: the sum of queue capacities a packet
    /// can see NIC-to-NIC for a tenant spanning `level`.
    fn delay_budget(&self, level: Level) -> Dur {
        match level {
            Level::SameHost => Dur::ZERO,
            Level::SameRack => self.nic + self.host_down,
            Level::SamePod => self.nic + self.tor_up + self.tor_down + self.host_down,
            Level::CrossPod => {
                self.nic
                    + self.tor_up
                    + self.agg_up
                    + self.agg_down
                    + self.tor_down
                    + self.host_down
            }
        }
    }

    /// Queue capacities of the switch ports a packet traverses *before*
    /// reaching a port of the given kind, on the worst-case path of a
    /// tenant spanning `level`: the first `.1` entries of `.0`. The NIC
    /// never appears: pacer output is conformant by construction.
    fn prior_caps(&self, level: Level, kind: PortKind) -> ([Dur; 4], usize) {
        let list = |caps: &[Dur]| {
            let mut out = [Dur::ZERO; 4];
            out[..caps.len()].copy_from_slice(caps);
            (out, caps.len())
        };
        match kind {
            PortKind::NicUp | PortKind::TorUp => list(&[]),
            PortKind::AggUp => list(&[self.tor_up]),
            PortKind::AggDown => list(&[self.tor_up, self.agg_up]),
            PortKind::TorDown => match level {
                Level::CrossPod => list(&[self.tor_up, self.agg_up, self.agg_down]),
                _ => list(&[self.tor_up]),
            },
            PortKind::HostDown => match level {
                Level::SameHost | Level::SameRack => list(&[]),
                Level::SamePod => list(&[self.tor_up, self.tor_down]),
                Level::CrossPod => list(&[self.tor_up, self.agg_up, self.agg_down, self.tor_down]),
            },
        }
    }
}

pub(crate) struct TenantRecord {
    pub(crate) hosts: Vec<(HostId, usize)>,
    pub(crate) contribs: Vec<(PortId, Contribution)>,
    /// The original admission request, kept so a failure can re-validate
    /// or re-place the tenant (see the `degrade` module).
    pub(crate) req: TenantRequest,
    /// Admitted span level (fixes the C2 path budget used at admission).
    pub(crate) level: Level,
}

/// Silo's placement manager. Admission enforces:
///
/// * **C2** via the span level: a delay guarantee `d` restricts the tenant
///   to the largest level whose static path budget fits `d`;
/// * **C1** at every switch port between the tenant's VMs, against the
///   aggregate of all admitted tenants (plus the candidate);
/// * the sustained hose rate at every port, including host NICs.
pub struct SiloPlacer {
    pub(crate) topo: Topology,
    pub(crate) slots: SlotMap,
    /// Aggregate load per port. Invariant: `loads[p]` is always the
    /// *left fold*, in index order, of `port_index[p]` — every mutation
    /// either appends (and folds one more contribution in) or rebuilds
    /// the fold from scratch, so the accumulated value is bit-identical
    /// to a from-scratch recomputation at all times (the admit→evict
    /// exactness the service differential suite asserts).
    pub(crate) loads: Vec<PortLoad>,
    /// Per-port contribution index: `(tenant, contribution)` entries kept
    /// sorted by tenant id. Ids are monotone (`next_id`), so ordinary
    /// admissions append in O(1); only removals and out-of-order inserts
    /// (fault readmits reusing an old id) rebuild the fold.
    pub(crate) port_index: Vec<Vec<(TenantId, Contribution)>>,
    /// Monotone per-port change counters keying `bound_cache`.
    load_version: Vec<u64>,
    /// Version-keyed memo of rounded backlog bounds: `backlog_bound`
    /// recomputes a port's netcalc curve only when the port's load has
    /// changed since the last query.
    bound_cache: RefCell<BoundCache>,
    /// Admitted tenants with live guarantees. Hashed, not ordered: admit
    /// inserts and evict removes one record at a random id, where a B-tree
    /// walks several cold nodes. The sweeps that need id order get it
    /// elsewhere: `fail_link` reads the failed link's up-port index (kept
    /// in id order), and `from_parts`, `snapshot` and
    /// `verify_scratch_consistency` sort the ids. Records are boxed:
    /// stored inline, every empty bucket would be record-sized (7.6 MiB
    /// more peak RSS on the 32 K-server churn replay, see DESIGN.md).
    pub(crate) tenants: FxHashMap<TenantId, Box<TenantRecord>>,
    /// Tenants downgraded to best-effort by a failure: they keep their VM
    /// slots but hold no network reservations (see `degrade`).
    pub(crate) degraded: BTreeMap<TenantId, crate::degrade::DegradedRecord>,
    /// Links currently failed (`degrade::fail_link`), sorted; admission
    /// refuses candidates whose VM pairs would cross any of them.
    pub(crate) failed: Vec<LinkId>,
    /// Slot view with dead hosts' free slots masked out, maintained in
    /// lockstep with `slots` while any access link is failed (`None`
    /// otherwise). Rebuilt only by `fail_link`/`restore_link`.
    masked: Option<SlotMap>,
    /// Times `masked` was rebuilt from scratch (regression counter: must
    /// track fault events, never admissions).
    mask_rebuilds: u64,
    pub(crate) next_id: u64,
    pub(crate) mtu: Bytes,
    caps: TierCaps,
    /// Port constants per [`PortKind`], indexed by `PortKind as usize`.
    tier_ports: [TierPort; 6],
    /// The candidate under test and the contributions its check computed,
    /// reused by every search so that only an accepted placement allocates
    /// (its record's exact-size copies). Meaningless between calls.
    scratch: Scratch,
}

#[derive(Default)]
struct Scratch {
    cand: Vec<(HostId, usize)>,
    contribs: Vec<(PortId, Contribution)>,
}

/// A host whose access link is failed contributes no usable slots.
/// `failed` is sorted.
fn host_is_dead(topo: &Topology, failed: &[LinkId], h: HostId) -> bool {
    failed.binary_search(&topo.host_link(h)).is_ok()
}

/// The keys of a tenant table, ascending.
pub(crate) fn sorted_ids<V>(tenants: &FxHashMap<TenantId, V>) -> Vec<TenantId> {
    let mut ids: Vec<TenantId> = tenants.keys().copied().collect();
    ids.sort_unstable();
    ids
}

/// The left fold of a port's contribution list from the zero load — the
/// canonical "from scratch" aggregate `loads[p]` must always bit-equal.
fn fold_load(list: &[(TenantId, Contribution)]) -> PortLoad {
    let mut l = PortLoad::default();
    for (_, c) in list {
        l.add(c);
    }
    l
}

impl SiloPlacer {
    pub fn new(topo: Topology) -> SiloPlacer {
        let slots = SlotMap::new(&topo);
        let ports = topo.num_ports();
        let tier_ports = TierPort::table(&topo);
        let caps = TierCaps::compute(&tier_ports);
        SiloPlacer {
            topo,
            slots,
            loads: vec![PortLoad::default(); ports],
            port_index: vec![Vec::new(); ports],
            load_version: vec![0; ports],
            bound_cache: RefCell::new(BoundCache::new(ports)),
            tenants: FxHashMap::default(),
            degraded: BTreeMap::new(),
            failed: Vec::new(),
            masked: None,
            mask_rebuilds: 0,
            next_id: 0,
            mtu: Bytes(1500),
            caps,
            tier_ports,
            scratch: Scratch::default(),
        }
    }

    /// Rebuild a placer from its primary state (the snapshot contents):
    /// slots, loads, the contribution index, and the dead-host mask are
    /// all derived. Because loads are rebuilt by the same id-order fold
    /// the incremental paths maintain, the restored placer's float state
    /// is bit-identical to the original's. `Err` naming the tenant when a
    /// tenant's contributions are not the ones admission computes for it,
    /// or when the failed links cut its hosts apart.
    pub(crate) fn from_parts(
        topo: Topology,
        mtu: Bytes,
        next_id: u64,
        mut failed: Vec<LinkId>,
        tenants: FxHashMap<TenantId, Box<TenantRecord>>,
        degraded: BTreeMap<TenantId, crate::degrade::DegradedRecord>,
    ) -> Result<SiloPlacer, String> {
        failed.sort_unstable();
        let mut p = SiloPlacer::new(topo);
        p.mtu = mtu;
        p.next_id = next_id;
        p.failed = failed;
        // In id order, so every contribution appends to its port's list.
        for id in sorted_ids(&tenants) {
            let rec = &tenants[&id];
            // `fail_link` degrades or re-places a tenant a failure cuts
            // apart, so no service holds one as a resident.
            if !p.topo.connected(&rec.hosts, &p.failed) {
                return Err(format!("tenant {}: failed links cut its hosts apart", id.0));
            }
            p.check_contribs(rec)
                .map_err(|e| format!("tenant {}: {e}", id.0))?;
            p.add_contribs(id, &rec.contribs);
            p.slots.alloc(&p.topo, &rec.hosts);
        }
        for rec in degraded.values() {
            p.slots.alloc(&p.topo, &rec.hosts);
        }
        p.tenants = tenants;
        p.degraded = degraded;
        p.rebuild_mask();
        p.mask_rebuilds = 0;
        Ok(p)
    }

    /// Index a tenant's contributions and fold them into the per-port
    /// aggregates. Appends (the common case: fresh ids are monotone) fold
    /// one `add` onto the existing value; an out-of-order insert (a fault
    /// readmit reusing an old id) splices at the sorted position and
    /// rebuilds the fold so the id-order invariant holds bit-exactly.
    pub(crate) fn add_contribs(&mut self, id: TenantId, contribs: &[(PortId, Contribution)]) {
        for &(p, c) in contribs {
            let i = p.0 as usize;
            let list = &mut self.port_index[i];
            match list.last() {
                Some(&(last, _)) if last > id => {
                    let pos = list.partition_point(|&(t, _)| t < id);
                    list.insert(pos, (id, c));
                    self.loads[i] = fold_load(list);
                }
                _ => {
                    list.push((id, c));
                    self.loads[i].add(&c);
                }
            }
            self.load_version[i] += 1;
        }
    }

    /// Remove a tenant's contributions and rebuild each touched port's
    /// fold from the surviving entries — the aggregate is then exactly
    /// what a placer that never saw this tenant would hold (no float
    /// residue, unlike subtract-and-clamp). A port's list is sorted by
    /// id and holds an id at most once, so a binary search finds the
    /// entry.
    pub(crate) fn sub_contribs(&mut self, id: TenantId, contribs: &[(PortId, Contribution)]) {
        for &(p, _) in contribs {
            let i = p.0 as usize;
            let list = &mut self.port_index[i];
            let pos = list
                .binary_search_by_key(&id, |&(t, _)| t)
                .expect("contribution is indexed");
            list.remove(pos);
            self.loads[i] = fold_load(list);
            self.load_version[i] += 1;
        }
    }

    /// Allocate slots, keeping the dead-host mask in lockstep (dead
    /// hosts' slots exist only in `slots`: the mask already shows zero
    /// free there).
    pub(crate) fn alloc_slots(&mut self, placement: &[(HostId, usize)]) {
        self.slots.alloc(&self.topo, placement);
        if let Some(masked) = self.masked.as_mut() {
            for &entry in placement {
                if !host_is_dead(&self.topo, &self.failed, entry.0) {
                    masked.alloc(&self.topo, &[entry]);
                }
            }
        }
    }

    /// Release slots, keeping the dead-host mask in lockstep (a release
    /// on a dead host frees real slots, but the mask keeps them hidden
    /// until the link heals).
    pub(crate) fn release_slots(&mut self, placement: &[(HostId, usize)]) {
        self.slots.release(&self.topo, placement);
        if let Some(masked) = self.masked.as_mut() {
            for &entry in placement {
                if !host_is_dead(&self.topo, &self.failed, entry.0) {
                    masked.release(&self.topo, &[entry]);
                }
            }
        }
    }

    /// Recompute the dead-host mask from the current failed set. Called
    /// only by `fail_link`/`restore_link` — every other mutation keeps
    /// the mask incrementally in lockstep, so admissions under faults
    /// never clone the `SlotMap` (the regression
    /// `faulted_admissions_reuse_one_mask` counts rebuilds).
    pub(crate) fn rebuild_mask(&mut self) {
        self.masked = None;
        if self.failed.is_empty() {
            return;
        }
        let dead: Vec<HostId> = (0..self.topo.num_hosts())
            .map(|h| HostId(h as u32))
            .filter(|&h| host_is_dead(&self.topo, &self.failed, h))
            .collect();
        if dead.is_empty() {
            return;
        }
        let mut masked = self.slots.clone();
        for h in dead {
            let free = masked.free_host(h);
            if free > 0 {
                masked.alloc(&self.topo, &[(h, free)]);
            }
        }
        self.masked = Some(masked);
        self.mask_rebuilds += 1;
    }

    /// The largest span level compatible with the request's delay
    /// guarantee (C2), or `None` when even one rack is too slow (the
    /// tenant must then fit a single server).
    pub fn max_level(&self, req: &TenantRequest) -> Option<Level> {
        let Some(d) = req.guarantee.delay else {
            return Some(Level::CrossPod);
        };
        [Level::CrossPod, Level::SamePod, Level::SameRack]
            .into_iter()
            .find(|&lvl| self.caps.delay_budget(lvl) <= d)
    }

    /// The slot view candidate generation searches: hosts cut off by a
    /// failed access link contribute no free slots, so the greedy
    /// first-fit routes *around* dead servers instead of proposing
    /// candidates the connectivity check must reject (first-fit never
    /// backtracks past a full subtree). Real allocation still goes
    /// through `self.slots`. The masked view is maintained incrementally
    /// — this is a borrow, never a clone, no matter how many admissions
    /// run during an outage.
    pub(crate) fn search_slots(&self) -> &SlotMap {
        self.masked.as_ref().unwrap_or(&self.slots)
    }

    /// Does the candidate fit? Leaves in `out` the contributions it would
    /// add; false if some port's constraint fails (or a failed link
    /// disconnects the tenant), and `out` is then meaningless.
    pub(crate) fn check_candidate(
        &self,
        cand: &[(HostId, usize)],
        level: Level,
        req: &TenantRequest,
        out: &mut Vec<(PortId, Contribution)>,
    ) -> bool {
        out.clear();
        if !self.topo.connected(cand, &self.failed) {
            return false;
        }
        for cut in self.topo.cuts(cand) {
            if cut.m == 0 || cut.m >= req.vms {
                continue;
            }
            let kind = PortKind::of(cut.tier, cut.port.is_up());
            let c = self.contribution(&cut, kind, level, req);
            let TierPort { info, ingress } = self.tier_ports[kind as usize];
            let load = self.loads[cut.port.0 as usize].with(&c);
            if info.is_nic {
                // The NIC queue lives in host memory under the pacer: no
                // loss is possible, only the sustained rate must fit —
                // with the headroom every sustained check shares (see
                // `NIC_HEADROOM`).
                if load.rate > info.rate.bytes_per_sec() * NIC_HEADROOM {
                    return false;
                }
            } else if !load.fits(info.rate, ingress, info.buffer) {
                return false;
            }
            out.push((cut.port, c));
        }
        true
    }

    /// What a tenant of request `req` admitted at span `level` adds at
    /// `cut`, a port of kind `kind` that `0 < cut.m < req.vms` of its VMs
    /// send across: the one formula admission records and `restore`
    /// re-derives, so both produce the same bits.
    #[inline]
    fn contribution(
        &self,
        cut: &Cut,
        kind: PortKind,
        level: Level,
        req: &TenantRequest,
    ) -> Contribution {
        let g = &req.guarantee;
        let (prior, priors) = self.caps.prior_caps(level, kind);
        let access_cap = self.topo.params().host_link * cut.sending_hosts.max(1) as u64;
        Contribution::for_cut_capped(
            cut.m,
            req.vms,
            g.b,
            g.s,
            g.bmax,
            self.mtu,
            &prior[..priors],
            access_cap,
        )
    }

    /// `Err` unless `rec.contribs` is, bit for bit and in order, the list
    /// admission computes for its hosts, span and request.
    fn check_contribs(&self, rec: &TenantRecord) -> Result<(), String> {
        let bits = |&(p, c): &(PortId, Contribution)| {
            let f = [c.rate, c.burst, c.burst_rate, c.mtu_bytes].map(f64::to_bits);
            (p, f, c.rate_unbounded)
        };
        let mut derived = self
            .topo
            .cuts(&rec.hosts)
            .filter(|cut| cut.m != 0 && cut.m < rec.req.vms)
            .map(|cut| {
                let kind = PortKind::of(cut.tier, cut.port.is_up());
                (cut.port, self.contribution(&cut, kind, rec.level, &rec.req))
            });
        let mut listed = rec.contribs.iter();
        let mut i = 0;
        loop {
            match (derived.next(), listed.next()) {
                (None, None) => return Ok(()),
                (Some(d), Some(l)) if bits(&d) == bits(l) => i += 1,
                _ => {
                    return Err(format!(
                        "contribution {i} is not the one admission computes"
                    ))
                }
            }
        }
    }

    /// Ordinary admission of `req` under the current (possibly degraded)
    /// topology as tenant `id`: search, and on success record the accepted
    /// candidate with the contributions its own check computed. Returns
    /// where the tenant landed; a rejection leaves the placer untouched.
    pub(crate) fn place_as(
        &mut self,
        id: TenantId,
        req: &TenantRequest,
    ) -> Result<(Vec<(HostId, usize)>, Level), RejectReason> {
        let n = req.vms;
        let max_level = match self.max_level(req) {
            Some(l) => l,
            None if n <= self.topo.slots_per_server() && req.min_fault_domains <= 1 => {
                Level::SameHost
            }
            None => return Err(RejectReason::DelayUnsatisfiable),
        };
        // The buffers leave `self` for the search, which borrows it.
        let mut scratch = std::mem::take(&mut self.scratch);
        let found = greedy_place_spread(
            &self.topo,
            self.search_slots(),
            n,
            max_level,
            req.min_fault_domains,
            &mut scratch.cand,
            &mut |cand, lvl| self.check_candidate(cand, lvl, req, &mut scratch.contribs),
        );
        let placed = match found {
            Some(level) => {
                let hosts = scratch.cand.clone();
                self.add_contribs(id, &scratch.contribs);
                self.alloc_slots(&hosts);
                self.tenants.insert(
                    id,
                    Box::new(TenantRecord {
                        hosts: hosts.clone(),
                        contribs: scratch.contribs.clone(),
                        req: *req,
                        level,
                    }),
                );
                Ok((hosts, level))
            }
            None if self.slots.total_free() < n => Err(RejectReason::InsufficientSlots),
            None => Err(RejectReason::NetworkUnsatisfiable),
        };
        self.scratch = scratch;
        placed
    }

    /// Worst-case buffer occupancy currently reserved at a port — the C1
    /// backlog bound the admitted tenants' curves imply. Any conformant
    /// packet-level execution must stay under this (verified end-to-end
    /// by `silo-bench`'s `verify_queue_bounds`).
    ///
    /// Memoized per port, keyed by the port's load version: repeated
    /// probes (`backlog_bounds()` between admissions) recompute only the
    /// ports an admit/evict actually touched. The memoized value is the
    /// rounded bound, so a hit is bit-identical to a fresh computation.
    pub fn backlog_bound(&self, p: PortId) -> Option<Bytes> {
        let i = p.0 as usize;
        let info = self.topo.port(p);
        self.bound_cache
            .borrow_mut()
            .get_or_insert_with(i, self.load_version[i], || {
                self.loads[i]
                    .backlog(info.rate, self.topo.ingress_capacity(p))
                    .map(Bytes::as_u64)
            })
            .map(Bytes)
    }

    /// [`SiloPlacer::backlog_bound`] for every switch port at once, in
    /// `PortId` order — the shape `silo_simnet::AuditConfig::port_bounds`
    /// consumes. NIC ports are `None`: their queues live in host memory
    /// under the pacer and have no switch-buffer bound to enforce.
    pub fn backlog_bounds(&self) -> Vec<Option<Bytes>> {
        (0..self.topo.num_ports())
            .map(|i| {
                let p = PortId(i as u32);
                if self.topo.port(p).is_nic {
                    None
                } else {
                    self.backlog_bound(p)
                }
            })
            .collect()
    }

    /// Worst-case queueing delay currently reserved at a port (for
    /// reporting and tests). Derived from the memoized backlog bound —
    /// identical to `PortLoad::queue_bound`, which divides the same
    /// rounded backlog by the line rate.
    pub fn queue_bound(&self, p: PortId) -> Option<Dur> {
        let info = self.topo.port(p);
        self.backlog_bound(p).map(|b| info.rate.tx_time(b))
    }

    /// A packet-delay bound tighter than the tenant's static guarantee
    /// `d`: the network-calculus concatenation bound ("pay bursts only
    /// once") of the tenant's own paced traffic across the longest path
    /// between two of its hosts, with every port on it a rate-latency
    /// server whose latency is its full queue capacity (safe against any
    /// co-tenant load admitted under C1).
    ///
    /// At most the `d` the tenant was admitted with. `None` for a tenant
    /// that holds no reservation (unknown or degraded) and for a
    /// single-host placement, which crosses no network port.
    pub fn tight_delay_bound(&self, t: TenantId) -> Option<Dur> {
        let rec = self.tenants.get(&t)?;
        let mut path = Vec::new();
        for (i, &(a, _)) in rec.hosts.iter().enumerate() {
            for &(b, _) in &rec.hosts[i + 1..] {
                let p = self.topo.path_ports(a, b);
                if p.len() > path.len() {
                    path = p;
                }
            }
        }
        if path.is_empty() {
            return None;
        }
        let g = rec.req.guarantee;
        let arrival = Curve::dual_slope(g.b, g.s, g.bmax, self.mtu);
        let hops: Vec<ServiceCurve> = path
            .iter()
            .map(|&p| {
                let info = self.topo.port(p);
                ServiceCurve::rate_latency(info.rate, info.queue_capacity())
            })
            .collect();
        path_delay_sfa(&arrival, &hops).map(Dur::from_secs_f64)
    }

    /// Fraction of a port's line rate reserved by sustained guarantees.
    pub fn reserved_fraction(&self, p: PortId) -> f64 {
        self.loads[p.0 as usize].rate / self.topo.port(p).rate.bytes_per_sec()
    }

    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    pub fn placement_of(&self, t: TenantId) -> Option<&[(HostId, usize)]> {
        self.tenants.get(&t).map(|r| r.hosts.as_slice())
    }

    /// The aggregate load currently reserved at a port (diagnostics and
    /// the differential suites).
    pub fn port_load(&self, p: PortId) -> PortLoad {
        self.loads[p.0 as usize]
    }

    /// Free-slot bookkeeping (per host/rack/pod) for diagnostics.
    pub fn slot_map(&self) -> &SlotMap {
        &self.slots
    }

    /// Times the dead-host mask was rebuilt from scratch. Tracks
    /// `fail_link`/`restore_link` sweeps only — admissions during an
    /// outage must never bump this (the satellite-1 regression).
    pub fn mask_rebuilds(&self) -> u64 {
        self.mask_rebuilds
    }

    /// `(hits, misses)` of the backlog-bound memo.
    pub fn bound_cache_stats(&self) -> (u64, u64) {
        let c = self.bound_cache.borrow();
        (c.hits(), c.misses())
    }

    /// Recompute every piece of incremental state from first principles
    /// and compare bit-for-bit: port loads against an id-order fold over
    /// the live tenants, slots against a fresh allocation replay, the
    /// dead-host mask against a fresh derivation, and the memoized
    /// backlog bounds against direct netcalc recomputation. `Err`
    /// describes the first divergence. This is the incremental-vs-scratch
    /// assertion the admission-service differential gate runs at every
    /// probe point.
    pub fn verify_scratch_consistency(&self) -> Result<(), String> {
        let ports = self.topo.num_ports();
        // 1. Contribution index + loads vs an id-order fold from scratch.
        let mut scratch: Vec<Vec<(TenantId, Contribution)>> = vec![Vec::new(); ports];
        for id in sorted_ids(&self.tenants) {
            for &(p, c) in &self.tenants[&id].contribs {
                scratch[p.0 as usize].push((id, c));
            }
        }
        for (i, scratch_i) in scratch.iter().enumerate() {
            if *scratch_i != self.port_index[i] {
                return Err(format!(
                    "port {i}: contribution index diverged from live tenants \
                     ({} indexed vs {} expected)",
                    self.port_index[i].len(),
                    scratch_i.len()
                ));
            }
            let fold = fold_load(scratch_i);
            let got = self.loads[i];
            let bits = |l: &PortLoad| {
                (
                    l.rate.to_bits(),
                    l.burst.to_bits(),
                    l.burst_rate.to_bits(),
                    l.mtu_bytes.to_bits(),
                    l.unbounded,
                )
            };
            if bits(&fold) != bits(&got) {
                return Err(format!(
                    "port {i}: incremental load {got:?} != scratch fold {fold:?}"
                ));
            }
        }
        // 2. Slots vs a fresh allocation replay (live + degraded).
        let mut slots = SlotMap::new(&self.topo);
        for rec in self.tenants.values() {
            slots.alloc(&self.topo, &rec.hosts);
        }
        for rec in self.degraded.values() {
            slots.alloc(&self.topo, &rec.hosts);
        }
        if slots != self.slots {
            return Err("slot map diverged from tenant placements".into());
        }
        // 3. Dead-host mask vs a fresh derivation.
        let dead: Vec<HostId> = (0..self.topo.num_hosts())
            .map(|h| HostId(h as u32))
            .filter(|&h| host_is_dead(&self.topo, &self.failed, h))
            .collect();
        let fresh_mask = if dead.is_empty() {
            None
        } else {
            let mut m = self.slots.clone();
            for h in dead {
                let free = m.free_host(h);
                if free > 0 {
                    m.alloc(&self.topo, &[(h, free)]);
                }
            }
            Some(m)
        };
        if fresh_mask != self.masked {
            return Err("dead-host mask diverged from fresh derivation".into());
        }
        // 4. Memoized bounds vs direct recomputation.
        for i in 0..ports {
            let p = PortId(i as u32);
            let info = self.topo.port(p);
            let direct = self.loads[i].backlog(info.rate, self.topo.ingress_capacity(p));
            if self.backlog_bound(p) != direct {
                return Err(format!("port {i}: cached bound != direct recomputation"));
            }
        }
        Ok(())
    }
}

impl Placer for SiloPlacer {
    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn try_place(&mut self, req: &TenantRequest) -> Result<Placement, RejectReason> {
        let tenant = TenantId(self.next_id);
        let (hosts, span) = self.place_as(tenant, req)?;
        self.next_id += 1;
        Ok(Placement {
            tenant,
            hosts,
            span,
        })
    }

    fn remove(&mut self, tenant: TenantId) -> bool {
        if let Some(rec) = self.tenants.remove(&tenant) {
            self.sub_contribs(tenant, &rec.contribs);
            self.release_slots(&rec.hosts);
            return true;
        }
        // Degraded tenants hold slots but no reservations.
        if let Some(rec) = self.degraded.remove(&tenant) {
            self.release_slots(&rec.hosts);
            return true;
        }
        false
    }

    fn used_slots(&self) -> usize {
        self.slots.used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::DegradeOutcome;
    use crate::guarantee::Guarantee;
    use silo_base::Rate;
    use silo_topology::TreeParams;

    fn fig5_topo(buffer_kb: u64) -> Topology {
        Topology::build(TreeParams {
            pods: 1,
            racks_per_pod: 1,
            servers_per_rack: 3,
            vm_slots_per_server: 4,
            host_link: Rate::from_gbps(10),
            tor_oversub: 1.0,
            agg_oversub: 1.0,
            switch_buffer: Bytes::from_kb(buffer_kb),
            nic_buffer: Bytes::from_kb(64),
            prop_delay: Dur::from_ns(500),
        })
    }

    fn fig5_request() -> TenantRequest {
        TenantRequest::new(
            9,
            Guarantee {
                b: Rate::from_gbps(1),
                s: Bytes::from_kb(100),
                bmax: Rate::from_gbps(10),
                delay: Some(Dur::from_ms(1)),
            },
        )
    }

    #[test]
    fn fig5_placement_balances_the_tenant() {
        // Dense first-fit would pack 4/4/1 — the Fig. 5(a) shape whose 8
        // converging senders overflow the buffer (exact bound ~422 KB).
        // Silo must relax the packing to 3/3/3 (~356 KB), which fits a
        // 360 KB buffer (the paper's simplified arithmetic says 300 KB).
        let mut p = SiloPlacer::new(fig5_topo(360));
        let placed = p.try_place(&fig5_request()).expect("placement fits");
        assert_eq!(placed.span, Level::SameRack);
        let counts: Vec<usize> = placed.hosts.iter().map(|&(_, k)| k).collect();
        assert_eq!(counts, vec![3, 3, 3], "must balance, got {counts:?}");
    }

    /// The per-kind constants are every port's: each port that a placement
    /// of one VM on every host cuts has its kind's `Topology::port` and
    /// `ingress_capacity`.
    #[test]
    fn tier_ports_are_every_ports_constants() {
        let skewed = TreeParams {
            pods: 3,
            racks_per_pod: 2,
            servers_per_rack: 3,
            tor_oversub: 2.0,
            agg_oversub: 3.0,
            ..TreeParams::ns2_paper()
        };
        for params in [TreeParams::ns2_paper(), TreeParams::testbed(), skewed] {
            let topo = Topology::build(params);
            let p = SiloPlacer::new(topo.clone());
            let all: Vec<(HostId, usize)> = (0..topo.num_hosts())
                .map(|h| (HostId(h as u32), 1))
                .collect();
            let mut cut = 0;
            for c in topo.cuts(&all) {
                let tier = p.tier_ports[PortKind::of(c.tier, c.port.is_up()) as usize];
                assert_eq!(tier.info, topo.port(c.port), "{c:?}");
                assert_eq!(tier.ingress, topo.ingress_capacity(c.port), "{c:?}");
                cut += 1;
            }
            if topo.num_pods() > 1 {
                assert_eq!(cut, topo.num_ports(), "every port is cut");
            }
        }
    }

    #[test]
    fn fig5_rejects_when_buffer_too_small() {
        // With a buffer below even the balanced bound, no distribution
        // works and admission must refuse.
        let mut p = SiloPlacer::new(fig5_topo(200));
        assert_eq!(
            p.try_place(&fig5_request()),
            Err(RejectReason::NetworkUnsatisfiable)
        );
        assert_eq!(p.used_slots(), 0, "rejection must not leak slots");
    }

    #[test]
    fn single_vm_tenant_always_fits_slotwise() {
        let mut p = SiloPlacer::new(fig5_topo(300));
        let placed = p
            .try_place(&TenantRequest::new(1, Guarantee::class_a()))
            .unwrap();
        assert_eq!(placed.span, Level::SameHost);
        assert_eq!(p.used_slots(), 1);
    }

    #[test]
    fn remove_restores_admissibility() {
        let mut p = SiloPlacer::new(fig5_topo(360));
        let a = p.try_place(&fig5_request()).unwrap();
        // Second identical tenant cannot fit (only 6 slots left anyway).
        assert!(p.try_place(&fig5_request()).is_err());
        assert!(p.remove(a.tenant));
        assert!(p.try_place(&fig5_request()).is_ok());
        assert!(!p.remove(a.tenant), "double-remove must fail");
    }

    #[test]
    fn delay_guarantee_limits_span() {
        let topo = Topology::build(TreeParams::ns2_paper());
        let p = SiloPlacer::new(topo);
        // Class A (1 ms): the cross-pod budget (NIC + 5 × ~250 us) blows
        // the guarantee, the pod budget (~800 us) fits.
        let req = TenantRequest::new(16, Guarantee::class_a());
        assert_eq!(p.max_level(&req), Some(Level::SamePod));
        // A 300 us guarantee only allows rack placement (NIC ~51 us +
        // 249.6 us just fits 301 us; use 310 us to be explicit).
        let mut tight = Guarantee::class_a();
        tight.delay = Some(Dur::from_us(310));
        assert_eq!(
            p.max_level(&TenantRequest::new(16, tight)),
            Some(Level::SameRack)
        );
        // 10 us cannot be met across the network at all.
        let mut impossible = Guarantee::class_a();
        impossible.delay = Some(Dur::from_us(10));
        assert_eq!(p.max_level(&TenantRequest::new(16, impossible)), None);
        // No delay guarantee -> anywhere.
        assert_eq!(
            p.max_level(&TenantRequest::new(16, Guarantee::class_b())),
            Some(Level::CrossPod)
        );
    }

    #[test]
    fn impossible_delay_falls_back_to_single_server() {
        let mut p = SiloPlacer::new(fig5_topo(300));
        let mut g = Guarantee::class_a();
        g.delay = Some(Dur::from_us(1));
        // Fits one server (5 slots): accepted at SameHost.
        let placed = p.try_place(&TenantRequest::new(4, g)).unwrap();
        assert_eq!(placed.span, Level::SameHost);
        // Too big for one server: rejected for delay.
        assert_eq!(
            p.try_place(&TenantRequest::new(6, g)),
            Err(RejectReason::DelayUnsatisfiable)
        );
    }

    #[test]
    fn nic_sustained_rate_is_enforced() {
        // 5 slots per server, B = 3 Gbps: 5 co-located senders would need
        // 15 Gbps of NIC hose; the placer must spread or reject.
        let mut p = SiloPlacer::new(fig5_topo(312));
        let req = TenantRequest::new(
            10,
            Guarantee {
                b: Rate::from_gbps(3),
                s: Bytes(1500),
                bmax: Rate::from_gbps(3),
                delay: None,
            },
        );
        match p.try_place(&req) {
            Ok(placed) => {
                // min(k, 10-k)·3G <= 10G  =>  k <= 3 per server... but with
                // only 3 servers × 5 slots, 10 VMs need k >= 4 somewhere:
                // min(4,6)·3 = 12G > 10G, so acceptance is impossible.
                panic!("should not fit, got {:?}", placed.hosts);
            }
            Err(e) => assert_eq!(e, RejectReason::NetworkUnsatisfiable),
        }
    }

    #[test]
    fn admits_until_slots_or_network_exhausted() {
        let topo = Topology::build(TreeParams {
            pods: 1,
            racks_per_pod: 2,
            servers_per_rack: 4,
            vm_slots_per_server: 4,
            ..TreeParams::ns2_paper()
        });
        let mut p = SiloPlacer::new(topo);
        let mut accepted = 0;
        for _ in 0..20 {
            if p.try_place(&TenantRequest::new(4, Guarantee::class_a()))
                .is_ok()
            {
                accepted += 1;
            }
        }
        // 32 slots / 4 VMs = 8 tenants max; class-A is light enough that
        // slots, not the network, should be the binding constraint here.
        assert_eq!(accepted, 8);
        assert_eq!(p.used_slots(), 32);
    }

    fn two_rack_topo() -> Topology {
        Topology::build(TreeParams {
            pods: 1,
            racks_per_pod: 2,
            servers_per_rack: 3,
            vm_slots_per_server: 4,
            host_link: Rate::from_gbps(10),
            tor_oversub: 1.0,
            agg_oversub: 1.0,
            switch_buffer: Bytes::from_kb(360),
            nic_buffer: Bytes::from_kb(64),
            prop_delay: Dur::from_ns(500),
        })
    }

    /// Satellite regression: under an active failure, admissions must
    /// share ONE incrementally-maintained masked slot map, not clone and
    /// re-mask per admission. `mask_rebuilds` counts the (only) rebuild
    /// sites — fail/restore — and pointer identity proves no admission
    /// swapped the map out.
    #[test]
    fn faulted_admissions_reuse_one_mask() {
        let mut p = SiloPlacer::new(two_rack_topo());
        assert_eq!(p.mask_rebuilds(), 0);
        // Healthy placer: search map IS the slot map.
        assert!(std::ptr::eq(p.search_slots(), p.slot_map()));

        let dead = p.topo.host_link(HostId(0));
        p.fail_link(dead);
        assert_eq!(p.mask_rebuilds(), 1, "one failure, one rebuild");
        let masked0: *const SlotMap = p.search_slots();
        assert!(!std::ptr::eq(p.search_slots(), p.slot_map()));

        // A 1k admit/remove churn while the link is down: the mask must
        // be updated in place, never rebuilt or replaced.
        let req = TenantRequest::new(1, Guarantee::class_a());
        for _ in 0..500 {
            let placed = p.try_place(&req).expect("plenty of live capacity");
            assert!(std::ptr::eq(p.search_slots(), masked0));
            assert!(p.remove(placed.tenant));
            assert!(std::ptr::eq(p.search_slots(), masked0));
        }
        assert_eq!(p.mask_rebuilds(), 1, "churn must not rebuild the mask");
        // The mask never exposes the dead host.
        assert_eq!(p.search_slots().free_host(HostId(0)), 0);
        p.verify_scratch_consistency().unwrap();

        // Healing drops the mask entirely.
        p.restore_link(dead);
        assert!(std::ptr::eq(p.search_slots(), p.slot_map()));
        p.verify_scratch_consistency().unwrap();
    }

    /// Satellite regression: the NIC headroom check must use the single
    /// named constant at every site, so a tenant admitted at exactly the
    /// boundary survives a fail→restore re-validation cycle instead of
    /// being bounced by a mismatched literal.
    #[test]
    fn nic_headroom_boundary_survives_fault_cycle() {
        let topo = two_rack_topo();
        let line = topo.params().host_link;
        let thresh = line.bytes_per_sec() * NIC_HEADROOM;
        // Largest representable rate whose NIC hose (min(1,1)·B for a
        // 2-VM spread tenant) sits at or below the headroom boundary.
        let mut bits = (thresh * 8.0) as u64;
        while Rate(bits).bytes_per_sec() > thresh {
            bits -= 1;
        }
        let boundary = Guarantee {
            b: Rate(bits),
            s: Bytes(1500),
            bmax: Rate(bits),
            delay: None,
        };
        let req = TenantRequest::new(2, boundary).with_fault_domains(2);

        // Sanity: one notch above the boundary is refused outright.
        {
            let mut over = boundary;
            over.b = Rate(bits + 8); // +1 byte/s
            over.bmax = over.b;
            let mut p = SiloPlacer::new(two_rack_topo());
            assert_eq!(
                p.try_place(&TenantRequest::new(2, over).with_fault_domains(2)),
                Err(RejectReason::NetworkUnsatisfiable)
            );
        }

        let mut p = SiloPlacer::new(topo);
        let placed = p.try_place(&req).expect("boundary tenant admits");
        let tenant = placed.tenant;

        // Fail the link under one of its VMs: the sweep reclaims the
        // tenant and re-admits it at the same boundary rate on surviving
        // hosts — which must pass the identical headroom check.
        let victim_host = placed.hosts[0].0;
        let report = p.fail_link(p.topo.host_link(victim_host));
        assert_eq!(report.outcomes.len(), 1);
        assert!(
            matches!(&report.outcomes[0], (t, DegradeOutcome::Replaced { .. }) if *t == tenant),
            "boundary tenant must re-admit, got {:?}",
            report.outcomes
        );

        // Healing re-validates; the tenant must still be guaranteed.
        p.restore_link(p.topo.host_link(victim_host));
        assert!(p.degraded_tenants().is_empty());
        assert!(p.placement_of(tenant).is_some());
        p.verify_scratch_consistency().unwrap();
    }

    #[test]
    fn backlog_bounds_are_memoized_per_version() {
        let mut p = SiloPlacer::new(two_rack_topo());
        // 5 VMs > 4 slots/server forces multi-host spans, so admissions
        // actually load switch ports.
        for _ in 0..4 {
            p.try_place(&TenantRequest::new(5, Guarantee::class_a()))
                .unwrap();
        }
        let first = p.backlog_bounds();
        let (h0, m0) = p.bound_cache_stats();
        let second = p.backlog_bounds();
        let (h1, m1) = p.bound_cache_stats();
        assert_eq!(first, second);
        assert_eq!(m1, m0, "second sweep must not recompute anything");
        // NIC ports never consult the cache; every switch port must hit.
        let switch_ports = (0..p.topo.num_ports())
            .filter(|&i| !p.topo.port(PortId(i as u32)).is_nic)
            .count() as u64;
        assert_eq!(h1, h0 + switch_ports, "second sweep all hits");
        // A new admission bumps versions on the ports it touches; the
        // next sweep recomputes exactly those.
        p.try_place(&TenantRequest::new(2, Guarantee::class_a()).with_fault_domains(2))
            .unwrap();
        let third = p.backlog_bounds();
        let (_, m2) = p.bound_cache_stats();
        assert!(m2 > m1, "touched ports must miss once");
        p.verify_scratch_consistency().unwrap();
        assert_eq!(third, p.backlog_bounds());
    }

    #[test]
    fn queue_bounds_stay_within_capacity_for_admitted_load() {
        let topo = Topology::build(TreeParams::ns2_paper());
        let mut p = SiloPlacer::new(topo);
        for _ in 0..50 {
            let _ = p.try_place(&TenantRequest::new(8, Guarantee::class_a()));
        }
        // C1 implies every port's queue bound <= its capacity.
        for i in 0..p.topo.num_ports() {
            let port = PortId(i as u32);
            let info = p.topo.port(port);
            if info.is_nic {
                continue;
            }
            if let Some(q) = p.queue_bound(port) {
                assert!(
                    q <= info.queue_capacity(),
                    "port {port:?}: bound {q} > capacity {}",
                    info.queue_capacity()
                );
            }
        }
    }
}
