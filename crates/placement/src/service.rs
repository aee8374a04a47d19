//! The long-running admission-control service.
//!
//! Production Silo is a cluster manager that admits and evicts tenants
//! *continuously*; the sweep harness instead calls `SiloPlacer` in one
//! batch at setup. [`AdmissionService`] closes that gap: it owns a
//! [`SiloPlacer`] and processes a stream of [`ChurnEvent`]s — tenant
//! arrivals, departures, link failures and repairs — exactly the way the
//! batch path would, but with all derived state (per-port netcalc
//! aggregates, backlog-bound memos, the dead-host slot mask) updated
//! incrementally on each event instead of recomputed.
//!
//! Incremental must mean *identical*, not approximately equal: every
//! aggregate the placer holds is defined as a left fold over live
//! tenants in id order (see `SiloPlacer::add_contribs`), so a service
//! that processed a million admit/evict events holds bit-for-bit the
//! state of a fresh placer replaying the surviving prefix. The
//! differential suite (`tests/service_differential.rs`) and
//! `SiloPlacer::verify_scratch_consistency` enforce this at probe points;
//! [`AdmissionService::snapshot`] / [`AdmissionService::restore`] round
//! the same guarantee through a byte-exact serial form (floats travel as
//! IEEE-754 bit patterns, never decimal).

use crate::degrade::DegradedRecord;
use crate::guarantee::{Guarantee, TenantRequest};
use crate::placer::{Placer, RejectReason, TenantId};
use crate::silo::{sorted_ids, SiloPlacer, TenantRecord};
use crate::FaultReport;
use silo_base::{Bytes, Dur, FxHashMap, Rate};
use silo_topology::{HostId, Level, LinkId, Topology, TreeParams};
use std::collections::BTreeMap;

/// One event of a tenant-churn stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnEvent {
    /// A tenant arrives and requests admission.
    Admit(TenantRequest),
    /// The tenant admitted by the `n`-th `Admit` event of the stream
    /// departs. Referencing the admit *event* rather than a `TenantId`
    /// lets generators emit departures without knowing admission
    /// outcomes; evicting a rejected or already-departed admission is a
    /// recorded no-op.
    Evict(u32),
    /// A link fails (`placement::degrade` reclaim-then-readmit sweep).
    FailLink(LinkId),
    /// A failed link heals (revalidate-in-place, then re-place).
    RestoreLink(LinkId),
}

/// What the service did with one event.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    Admitted {
        tenant: TenantId,
        hosts: Vec<(HostId, usize)>,
        span: Level,
    },
    Rejected {
        reason: RejectReason,
    },
    Evicted {
        tenant: TenantId,
    },
    /// The eviction referenced a rejected or already-departed admission.
    EvictNoop,
    Fault {
        report: FaultReport,
    },
    Heal {
        report: FaultReport,
    },
}

/// Running totals over every event the service has processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    pub admitted: u64,
    pub rejected: u64,
    pub evicted: u64,
    pub evict_noops: u64,
    pub faults: u64,
    pub heals: u64,
}

/// A `SiloPlacer` driven as a long-running service: applies churn events
/// one at a time, maps admit-event indices to live tenant ids, and
/// snapshots/restores its full state byte-exactly.
pub struct AdmissionService {
    placer: SiloPlacer,
    /// Tenant admitted by the n-th `Admit` event, for live admissions
    /// only: a rejection never enters and a departure leaves. Hashed, not
    /// ordered: `Evict` looks up a random old index, where a B-tree walks
    /// several cold nodes (DESIGN.md, "one simulation per cell"), and
    /// `snapshot` sorts instead.
    by_admit: FxHashMap<u32, TenantId>,
    stats: ServiceStats,
}

impl AdmissionService {
    pub fn new(topo: Topology) -> AdmissionService {
        AdmissionService {
            placer: SiloPlacer::new(topo),
            by_admit: FxHashMap::default(),
            stats: ServiceStats::default(),
        }
    }

    pub fn placer(&self) -> &SiloPlacer {
        &self.placer
    }

    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Live (guaranteed) tenants currently placed.
    pub fn live_tenants(&self) -> usize {
        self.placer.num_tenants()
    }

    /// Process one event and report what happened.
    ///
    /// # Panics
    ///
    /// On an `Admit` after the 2^32nd: `Evict` addresses admissions by a
    /// `u32` index, and [`AdmissionService::restore`] refuses a snapshot
    /// of more than 2^32 admits.
    pub fn apply(&mut self, ev: &ChurnEvent) -> Decision {
        match *ev {
            ChurnEvent::Admit(req) => {
                let idx = u32::try_from(self.stats.admitted + self.stats.rejected)
                    .expect("at most 2^32 Admit events: Evict addresses them as u32");
                match self.placer.try_place(&req) {
                    Ok(p) => {
                        self.by_admit.insert(idx, p.tenant);
                        self.stats.admitted += 1;
                        Decision::Admitted {
                            tenant: p.tenant,
                            hosts: p.hosts,
                            span: p.span,
                        }
                    }
                    Err(reason) => {
                        self.stats.rejected += 1;
                        Decision::Rejected { reason }
                    }
                }
            }
            ChurnEvent::Evict(idx) => match self.by_admit.remove(&idx) {
                Some(tenant) => {
                    // The tenant may be live or degraded; remove
                    // handles both.
                    assert!(self.placer.remove(tenant), "indexed tenant must exist");
                    self.stats.evicted += 1;
                    Decision::Evicted { tenant }
                }
                None => {
                    self.stats.evict_noops += 1;
                    Decision::EvictNoop
                }
            },
            ChurnEvent::FailLink(l) => {
                self.stats.faults += 1;
                Decision::Fault {
                    report: self.placer.fail_link(l),
                }
            }
            ChurnEvent::RestoreLink(l) => {
                self.stats.heals += 1;
                Decision::Heal {
                    report: self.placer.restore_link(l),
                }
            }
        }
    }

    /// Serialize the full service state — topology parameters, tenants
    /// with their placements and port contributions, degraded records,
    /// the failed-link set, the admit-index map, and counters — into a
    /// deterministic text form. Floats are emitted as IEEE-754 bit
    /// patterns, so `restore(snapshot(s)).snapshot() == snapshot(s)`
    /// byte-for-byte, and the restored placer's derived state (loads,
    /// slots, caps, locality, mask) is bit-identical to the original's.
    pub fn snapshot(&self) -> String {
        let p = &self.placer;
        let tp = p.topo.params();
        let mut out = String::with_capacity(4096);
        out.push_str("silo-admission-snapshot-v1\n");
        out.push_str(&format!(
            "topo {} {} {} {} {} {} {} {} {} {}\n",
            tp.pods,
            tp.racks_per_pod,
            tp.servers_per_rack,
            tp.vm_slots_per_server,
            tp.host_link.0,
            f64_hex(tp.tor_oversub),
            f64_hex(tp.agg_oversub),
            tp.switch_buffer.0,
            tp.nic_buffer.0,
            tp.prop_delay.as_ps(),
        ));
        out.push_str(&format!("mtu {}\n", p.mtu.0));
        out.push_str(&format!("next-id {}\n", p.next_id));
        out.push_str(&format!("failed {}", p.failed.len()));
        for l in &p.failed {
            out.push_str(&format!(" {}", l.0));
        }
        out.push('\n');
        let s = &self.stats;
        out.push_str(&format!(
            "stats {} {} {} {} {} {}\n",
            s.admitted, s.rejected, s.evicted, s.evict_noops, s.faults, s.heals
        ));
        out.push_str(&format!(
            "admits {} {}\n",
            s.admitted + s.rejected,
            self.by_admit.len()
        ));
        let mut live: Vec<_> = self.by_admit.iter().collect();
        live.sort_unstable();
        for (i, t) in live {
            out.push_str(&format!("admit {} {}\n", i, t.0));
        }
        out.push_str(&format!("tenants {}\n", p.tenants.len()));
        for id in sorted_ids(&p.tenants) {
            let rec = &p.tenants[&id];
            out.push_str(&format!(
                "tenant {} {} {} {}\n",
                id.0,
                level_code(rec.level),
                rec.hosts.len(),
                rec.contribs.len()
            ));
            push_request(&mut out, &rec.req);
            for &(h, k) in &rec.hosts {
                out.push_str(&format!("host {} {}\n", h.0, k));
            }
            for &(port, c) in &rec.contribs {
                out.push_str(&format!(
                    "contrib {} {} {} {} {} {}\n",
                    port.0,
                    f64_hex(c.rate),
                    f64_hex(c.burst),
                    f64_hex(c.burst_rate),
                    f64_hex(c.mtu_bytes),
                    u8::from(c.rate_unbounded)
                ));
            }
        }
        out.push_str(&format!("degraded {}\n", p.degraded.len()));
        for (id, rec) in &p.degraded {
            out.push_str(&format!(
                "victim {} {} {} {}\n",
                id.0,
                level_code(rec.level),
                reason_code(rec.reason),
                rec.hosts.len()
            ));
            push_request(&mut out, &rec.req);
            for &(h, k) in &rec.hosts {
                out.push_str(&format!("host {} {}\n", h.0, k));
            }
        }
        out.push_str("end\n");
        out
    }

    /// Rebuild a service from [`AdmissionService::snapshot`] output.
    /// Whatever no real service could have written is an `Err`, never a
    /// panic or a quietly different state: a geometry over 2^20 hosts or
    /// 2^10 slots a host, an id, host, port or link out of range,
    /// a contribution that is negative, not finite or over 2^53, a host
    /// holding more VMs than it has slots, a request `TenantRequest::new`
    /// or `with_fault_domains` would refuse, a host entry of no VM, host
    /// entries whose VMs do not add up to the request's, a tenant or
    /// failed link listed twice, or an admit map that disagrees with the
    /// counters, is out of order or names a tenant that is not resident.
    /// An error in a tenant's request or hosts names the tenant. A count
    /// sizes a vector only once the rest of the input could hold that
    /// many entries.
    pub fn restore(s: &str) -> Result<AdmissionService, String> {
        let mut cur = Cursor::new(s);
        cur.keyword("silo-admission-snapshot-v1")?;
        cur.keyword("topo")?;
        let topo = checked_topology(TreeParams {
            pods: cur.num::<usize>()?,
            racks_per_pod: cur.num::<usize>()?,
            servers_per_rack: cur.num::<usize>()?,
            vm_slots_per_server: cur.num::<usize>()?,
            host_link: Rate(cur.num::<u64>()?),
            tor_oversub: cur.f64_bits()?,
            agg_oversub: cur.f64_bits()?,
            switch_buffer: Bytes(cur.num::<u64>()?),
            nic_buffer: Bytes(cur.num::<u64>()?),
            prop_delay: Dur::from_ps(cur.num::<u64>()?),
        })?;
        cur.keyword("mtu")?;
        let mtu = Bytes(cur.num::<u64>()?);
        if mtu.0 == 0 {
            return Err("mtu must be positive".into());
        }
        cur.keyword("next-id")?;
        let next_id = cur.num::<u64>()?;
        cur.keyword("failed")?;
        let nfailed = cur.count(1)?;
        let mut failed = Vec::with_capacity(nfailed);
        for _ in 0..nfailed {
            failed.push(LinkId(cur.below(topo.num_links() as u64, "link")? as u32));
        }
        failed.sort_unstable();
        if failed.windows(2).any(|w| w[0] == w[1]) {
            return Err("a failed link is listed twice".into());
        }
        cur.keyword("stats")?;
        let stats = ServiceStats {
            admitted: cur.num::<u64>()?,
            rejected: cur.num::<u64>()?,
            evicted: cur.num::<u64>()?,
            evict_noops: cur.num::<u64>()?,
            faults: cur.num::<u64>()?,
            heals: cur.num::<u64>()?,
        };
        cur.keyword("admits")?;
        // The count of `Admit` events, which `Evict` addresses as a u32,
        // then the live admissions among them.
        let nadmits = cur.num::<u64>()?;
        if stats.admitted.checked_add(stats.rejected) != Some(nadmits) || nadmits > 1 << 32 {
            return Err(format!(
                "admits {nadmits} disagrees with {} admitted + {} rejected",
                stats.admitted, stats.rejected
            ));
        }
        let nlive = cur.count(3)?;
        let mut by_admit = FxHashMap::default();
        let mut last = None;
        for _ in 0..nlive {
            cur.keyword("admit")?;
            let i = cur.below(nadmits, "admit index")? as u32;
            let t = TenantId(cur.num::<u64>()?);
            // Admissions take fresh ids in turn, so both ascend.
            if last.is_some_and(|(j, u)| j >= i || u >= t) {
                return Err(format!("admit {i} {}: out of order", t.0));
            }
            last = Some((i, t));
            by_admit.insert(i, t);
        }
        let mut free = vec![topo.slots_per_server(); topo.num_hosts()];
        cur.keyword("tenants")?;
        let ntenants = cur.num::<usize>()?;
        let mut tenants = FxHashMap::default();
        for _ in 0..ntenants {
            cur.keyword("tenant")?;
            let id = TenantId(cur.below(next_id, "tenant id")?);
            let named = |e: String| format!("tenant {}: {e}", id.0);
            let level = level_from(cur.num::<u64>()?).map_err(named)?;
            let nhosts = cur.count(3).map_err(named)?;
            let ncontribs = cur.count(7).map_err(named)?;
            let req = parse_request(&mut cur).map_err(named)?;
            let hosts = parse_hosts(&mut cur, nhosts, req.vms, &mut free).map_err(named)?;
            let mut contribs = Vec::with_capacity(ncontribs);
            for _ in 0..ncontribs {
                cur.keyword("contrib")?;
                let port =
                    silo_topology::PortId(cur.below(topo.num_ports() as u64, "port")? as u32);
                contribs.push((
                    port,
                    crate::load::Contribution {
                        rate: cur.amount()?,
                        burst: cur.amount()?,
                        burst_rate: cur.amount()?,
                        mtu_bytes: cur.amount()?,
                        rate_unbounded: cur.num::<u64>()? != 0,
                    },
                ));
            }
            let rec = TenantRecord {
                hosts,
                contribs,
                req,
                level,
            };
            if tenants.insert(id, Box::new(rec)).is_some() {
                return Err(format!("tenant {} is listed twice", id.0));
            }
        }
        cur.keyword("degraded")?;
        let ndegraded = cur.num::<usize>()?;
        let mut degraded = BTreeMap::new();
        for _ in 0..ndegraded {
            cur.keyword("victim")?;
            let id = TenantId(cur.below(next_id, "tenant id")?);
            let named = |e: String| format!("tenant {}: {e}", id.0);
            let level = level_from(cur.num::<u64>()?).map_err(named)?;
            let reason = reason_from(cur.num::<u64>()?).map_err(named)?;
            let nhosts = cur.count(3).map_err(named)?;
            let req = parse_request(&mut cur).map_err(named)?;
            let hosts = parse_hosts(&mut cur, nhosts, req.vms, &mut free).map_err(named)?;
            let rec = DegradedRecord {
                hosts,
                req,
                level,
                reason,
            };
            if tenants.contains_key(&id) || degraded.insert(id, rec).is_some() {
                return Err(format!("tenant {} is listed twice", id.0));
            }
        }
        cur.keyword("end")?;
        let resident = |t: &&TenantId| tenants.contains_key(t) || degraded.contains_key(t);
        if let Some(t) = by_admit.values().find(|t| !resident(t)) {
            return Err(format!("an admission names tenant {}, not resident", t.0));
        }
        let placer = SiloPlacer::from_parts(topo, mtu, next_id, failed, tenants, degraded);
        Ok(AdmissionService {
            placer,
            by_admit,
            stats,
        })
    }
}

/// Largest cluster a snapshot may describe: 32× the 32 000 servers of
/// the Fig-15 topology.
const MAX_HOSTS: usize = 1 << 20;
/// Most VM slots a snapshot's servers may have.
const MAX_SLOTS: usize = 1 << 10;

/// `Topology::build`, with its preconditions, a size cap and nonzero link
/// rates as an `Err`.
fn checked_topology(p: TreeParams) -> Result<Topology, String> {
    let hosts = [p.pods, p.racks_per_pod, p.servers_per_rack]
        .into_iter()
        .try_fold(1usize, usize::checked_mul);
    let oversub_ok = |x: f64| x.is_finite() && x >= 1.0;
    if !hosts.is_some_and(|h| (1..=MAX_HOSTS).contains(&h))
        || !(1..=MAX_SLOTS).contains(&p.vm_slots_per_server)
        || !oversub_ok(p.tor_oversub)
        || !oversub_ok(p.agg_oversub)
    {
        return Err(format!("topology out of range: {p:?}"));
    }
    let topo = Topology::build(p);
    let links = [
        topo.host_link(HostId(0)),
        topo.tor_link(0),
        topo.agg_link(0),
    ];
    if links.iter().any(|&l| topo.link_rate(l).is_zero()) {
        return Err(format!("a link of rate zero: {p:?}"));
    }
    Ok(topo)
}

/// `n` `host <id> <vms>` lines placing `vms` VMs in all, each taking at
/// least one VM from `free`.
fn parse_hosts(
    cur: &mut Cursor<'_>,
    n: usize,
    vms: usize,
    free: &mut [usize],
) -> Result<Vec<(HostId, usize)>, String> {
    let mut hosts = Vec::with_capacity(n);
    let mut placed = 0;
    for _ in 0..n {
        cur.keyword("host")?;
        let h = cur.below(free.len() as u64, "host")? as usize;
        let k = cur.num::<usize>()?;
        if k == 0 {
            return Err(format!("host {h} holds no VM of the tenant"));
        }
        free[h] = free[h]
            .checked_sub(k)
            .ok_or_else(|| format!("host {h} holds more VMs than it has slots"))?;
        placed += k;
        hosts.push((HostId(h as u32), k));
    }
    if placed != vms {
        return Err(format!("its hosts hold {placed} VMs, its request {vms}"));
    }
    Ok(hosts)
}

fn push_request(out: &mut String, req: &TenantRequest) {
    let g = &req.guarantee;
    let delay = match g.delay {
        Some(d) => d.as_ps().to_string(),
        None => "-".to_string(),
    };
    out.push_str(&format!(
        "req {} {} {} {} {} {}\n",
        req.vms, req.min_fault_domains, g.b.0, g.s.0, g.bmax.0, delay
    ));
}

/// A `req` line, refused where `TenantRequest::new` or
/// `with_fault_domains` would refuse it.
fn parse_request(cur: &mut Cursor<'_>) -> Result<TenantRequest, String> {
    cur.keyword("req")?;
    let vms = cur.num::<usize>()?;
    let min_fault_domains = cur.num::<usize>()?;
    let b = Rate(cur.num::<u64>()?);
    let s = Bytes(cur.num::<u64>()?);
    let bmax = Rate(cur.num::<u64>()?);
    let delay = match cur.token()? {
        "-" => None,
        t => Some(Dur::from_ps(
            t.parse::<u64>()
                .map_err(|e| format!("bad delay {t:?}: {e}"))?,
        )),
    };
    if vms == 0 {
        return Err("a request for no VM".into());
    }
    if !(1..=vms).contains(&min_fault_domains) {
        return Err(format!(
            "{min_fault_domains} fault domains for {vms} VMs (must be in 1..={vms})"
        ));
    }
    Ok(TenantRequest {
        vms,
        guarantee: Guarantee { b, s, bmax, delay },
        min_fault_domains,
    })
}

fn f64_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn level_code(l: Level) -> u8 {
    match l {
        Level::SameHost => 0,
        Level::SameRack => 1,
        Level::SamePod => 2,
        Level::CrossPod => 3,
    }
}

fn level_from(c: u64) -> Result<Level, String> {
    Ok(match c {
        0 => Level::SameHost,
        1 => Level::SameRack,
        2 => Level::SamePod,
        3 => Level::CrossPod,
        _ => return Err(format!("bad level code {c}")),
    })
}

fn reason_code(r: RejectReason) -> u8 {
    match r {
        RejectReason::InsufficientSlots => 0,
        RejectReason::DelayUnsatisfiable => 1,
        RejectReason::NetworkUnsatisfiable => 2,
    }
}

fn reason_from(c: u64) -> Result<RejectReason, String> {
    Ok(match c {
        0 => RejectReason::InsufficientSlots,
        1 => RejectReason::DelayUnsatisfiable,
        2 => RejectReason::NetworkUnsatisfiable,
        _ => return Err(format!("bad reject-reason code {c}")),
    })
}

/// Whitespace-token cursor over a snapshot string.
struct Cursor<'a> {
    /// What is left to read.
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Cursor<'a> {
        Cursor { rest: s }
    }

    fn token(&mut self) -> Result<&'a str, String> {
        let s = self.rest.trim_start();
        if s.is_empty() {
            return Err("unexpected end of snapshot".to_string());
        }
        let (t, rest) = s.split_at(s.find(char::is_whitespace).unwrap_or(s.len()));
        self.rest = rest;
        Ok(t)
    }

    /// A count of entries of `tokens` tokens each, refused when the rest
    /// of the input is too short to hold them (a token and its separator
    /// take at least two bytes), so that it can size a vector.
    fn count(&mut self, tokens: usize) -> Result<usize, String> {
        let n = self.num::<usize>()?;
        if n.saturating_mul(tokens) > self.rest.len() / 2 {
            return Err(format!("count {n} is more than the snapshot holds"));
        }
        Ok(n)
    }

    fn keyword(&mut self, kw: &str) -> Result<(), String> {
        let t = self.token()?;
        if t == kw {
            Ok(())
        } else {
            Err(format!("expected {kw:?}, found {t:?}"))
        }
    }

    fn num<T: std::str::FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let t = self.token()?;
        t.parse::<T>().map_err(|e| format!("bad number {t:?}: {e}"))
    }

    /// A number in `0..n`.
    fn below(&mut self, n: u64, what: &str) -> Result<u64, String> {
        let v = self.num::<u64>()?;
        if v >= n {
            return Err(format!("{what} {v} out of range (< {n})"));
        }
        Ok(v)
    }

    /// A rate or byte count: finite, and in `[0, 2^53]` so that no sum
    /// of a port's contributions overflows.
    fn amount(&mut self) -> Result<f64, String> {
        let x = self.f64_bits()?;
        if !(0.0..=(1u64 << 53) as f64).contains(&x) {
            return Err(format!("amount {x} out of range"));
        }
        Ok(x)
    }

    fn f64_bits(&mut self) -> Result<f64, String> {
        let t = self.token()?;
        u64::from_str_radix(t, 16)
            .map(f64::from_bits)
            .map_err(|e| format!("bad f64 bits {t:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_base::{Bytes, Dur, Rate};

    fn topo() -> Topology {
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

    fn req(vms: usize) -> TenantRequest {
        TenantRequest::new(vms, Guarantee::class_a())
    }

    #[test]
    fn admit_evict_round_trip() {
        let mut svc = AdmissionService::new(topo());
        let d0 = svc.apply(&ChurnEvent::Admit(req(2)));
        assert!(matches!(d0, Decision::Admitted { .. }));
        let d1 = svc.apply(&ChurnEvent::Evict(0));
        assert!(matches!(d1, Decision::Evicted { .. }));
        assert_eq!(svc.apply(&ChurnEvent::Evict(0)), Decision::EvictNoop);
        assert_eq!(svc.apply(&ChurnEvent::Evict(7)), Decision::EvictNoop);
        assert_eq!(svc.stats().admitted, 1);
        assert_eq!(svc.stats().evicted, 1);
        assert_eq!(svc.stats().evict_noops, 2);
        assert_eq!(svc.live_tenants(), 0);
        svc.placer().verify_scratch_consistency().unwrap();
    }

    #[test]
    fn snapshot_restores_byte_exactly() {
        let mut svc = AdmissionService::new(topo());
        for i in 0..10 {
            svc.apply(&ChurnEvent::Admit(
                req(1 + i % 4).with_fault_domains(1 + i % 2),
            ));
        }
        svc.apply(&ChurnEvent::Evict(3));
        let link = svc.placer().topology().host_link(HostId(0));
        svc.apply(&ChurnEvent::FailLink(link));
        let snap = svc.snapshot();
        let restored = AdmissionService::restore(&snap).expect("snapshot parses");
        assert_eq!(restored.snapshot(), snap, "round-trip must be byte-exact");
        restored.placer().verify_scratch_consistency().unwrap();
        // Derived state bit-identical: bounds and loads agree everywhere.
        assert_eq!(
            restored.placer().backlog_bounds(),
            svc.placer().backlog_bounds()
        );
        assert_eq!(
            restored.placer().failed_links(),
            svc.placer().failed_links()
        );
        assert_eq!(restored.stats(), svc.stats());
    }

    #[test]
    fn restored_service_continues_identically() {
        let mut a = AdmissionService::new(topo());
        for i in 0..8 {
            a.apply(&ChurnEvent::Admit(req(1 + i % 3)));
        }
        a.apply(&ChurnEvent::Evict(2));
        let mut b = AdmissionService::restore(&a.snapshot()).unwrap();
        let link = a.placer().topology().host_link(HostId(1));
        let tail = [
            ChurnEvent::FailLink(link),
            ChurnEvent::Admit(req(2).with_fault_domains(2)),
            ChurnEvent::RestoreLink(link),
            ChurnEvent::Evict(0),
            ChurnEvent::Admit(req(4)),
        ];
        for ev in &tail {
            assert_eq!(a.apply(ev), b.apply(ev), "divergence on {ev:?}");
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(AdmissionService::restore("").is_err());
        assert!(AdmissionService::restore("silo-admission-snapshot-v2\n").is_err());
        let mut svc = AdmissionService::new(topo());
        svc.apply(&ChurnEvent::Admit(req(2)));
        let snap = svc.snapshot();
        let truncated = &snap[..snap.len() - 10];
        assert!(AdmissionService::restore(truncated).is_err());
    }

    /// One admission, then a snapshot edited to claim that `admits`
    /// `Admit` events came before it, of which the one at `idx` is live.
    fn snapshot_claiming(admits: u64, idx: u64) -> String {
        let mut svc = AdmissionService::new(topo());
        svc.apply(&ChurnEvent::Admit(req(2)));
        let snap = svc.snapshot();
        let edits = [
            ("stats 1 0 ", format!("stats 1 {} ", admits - 1)),
            ("admits 1 1\n", format!("admits {admits} 1\n")),
            ("admit 0 0\n", format!("admit {idx} 0\n")),
        ];
        edits.iter().fold(snap, |s, (from, to)| {
            assert!(s.contains(from), "{from:?} must be in the snapshot");
            s.replacen(from, to, 1)
        })
    }

    /// The admit map holds live admissions only, so a service that has
    /// seen 2^32 - 1 `Admit` events costs what its one live tenant costs.
    /// `Evict` addresses admissions as a `u32` and `restore` refuses more
    /// than 2^32 admits, so the 2^32nd admit is the last `apply` takes.
    #[test]
    fn admit_map_holds_live_admissions_only() {
        let live = u64::from(u32::MAX) - 5;
        let snap = snapshot_claiming(u64::from(u32::MAX), live);
        let mut svc = AdmissionService::restore(&snap).expect("restores");
        assert_eq!(svc.snapshot(), snap, "round-trip must be byte-exact");
        for idx in [0, live as u32 - 1, live as u32 + 1, u32::MAX] {
            assert_eq!(svc.apply(&ChurnEvent::Evict(idx)), Decision::EvictNoop);
        }
        let evict = ChurnEvent::Evict(live as u32);
        assert_eq!(
            svc.apply(&evict),
            Decision::Evicted {
                tenant: TenantId(0)
            }
        );
        assert_eq!(svc.apply(&evict), Decision::EvictNoop);
        // The 2^32nd admit takes the last index a u32 addresses.
        assert!(matches!(
            svc.apply(&ChurnEvent::Admit(req(2))),
            Decision::Admitted { .. }
        ));
        let full = svc.snapshot();
        assert!(full.contains(&format!(
            "\nadmits {} 1\nadmit {} 1\n",
            1u64 << 32,
            u32::MAX
        )));
        let mut restored = AdmissionService::restore(&full).expect("2^32 admits restore");
        assert!(matches!(
            restored.apply(&ChurnEvent::Evict(u32::MAX)),
            Decision::Evicted { .. }
        ));
        let over = snapshot_claiming((1 << 32) + 1, 0);
        assert!(AdmissionService::restore(&over).is_err(), "2^32 + 1 admits");
    }

    #[test]
    #[should_panic(expected = "at most 2^32 Admit events")]
    fn no_admit_past_the_2_32nd() {
        let mut svc = AdmissionService::restore(&snapshot_claiming(1 << 32, 0)).unwrap();
        svc.apply(&ChurnEvent::Admit(req(2)));
    }

    /// The snapshot-fuzz findings (`silo-bench`'s `tests/input_fuzz.rs`),
    /// shrunk to one edited line each. Before `restore` checked them, the
    /// first three panicked in `SlotMap::alloc` or `Topology::build`, the
    /// fourth aborted on a 2^56-byte allocation, the next two restored a
    /// service whose `Evict` of that admission panicked, the zero-rate
    /// uplink panicked in `SiloPlacer::new` (`tx_time`), and the last
    /// restored a NaN port load, which the netcalc curve refuses with a
    /// panic once a placement examines that port.
    #[test]
    fn restore_refuses_what_no_service_could_have_written() {
        let mut svc = AdmissionService::new(topo());
        for _ in 0..3 {
            svc.apply(&ChurnEvent::Admit(req(5)));
        }
        svc.apply(&ChurnEvent::FailLink(LinkId(0)));
        let snap = svc.snapshot();
        assert!(AdmissionService::restore(&snap).is_ok());
        let line_of = |prefix: &str| snap.lines().find(|l| l.starts_with(prefix)).unwrap();
        let host = line_of("host ");
        let topo_line = line_of("topo ");
        let admits = line_of("admits ");
        let admit1 = line_of("admit 1 ");
        let admit2 = line_of("admit 2 ");
        let contrib = line_of("contrib ");
        // A 1 bps host link under 8:1 oversubscription: a 0 bps ToR uplink.
        let mut slow = topo_line.split(' ').collect::<Vec<_>>();
        (slow[5], slow[6]) = ("1", "4020000000000000");
        let nan =
            contrib.split(' ').take(2).collect::<Vec<_>>().join(" ") + " 7ff8000000000000 0 0 0 0";
        for (what, from, to) in [
            ("more VMs than slots", host, "host 0 99".to_string()),
            ("host out of range", host, "host 6 1".to_string()),
            ("no servers", topo_line, topo_line.replacen(" 3 ", " 0 ", 1)),
            (
                "a huge admit count",
                admits,
                "admits 74393352885490048 3".into(),
            ),
            ("an unknown tenant", admit2, "admit 2 9".into()),
            ("a tenant named twice", admit1, "admit 1 0".into()),
            ("a zero-rate uplink", topo_line, slow.join(" ")),
            ("a NaN contribution", contrib, nan),
        ] {
            let bad = snap.replacen(from, &to, 1);
            assert_ne!(bad, snap, "{what}: the edit must apply");
            assert!(AdmissionService::restore(&bad).is_err(), "{what} restored");
        }
    }

    /// A fault readmit re-inserts an old tenant id after newer ones into
    /// the hashed tenant table; `snapshot` still lists tenants in id
    /// order, round-trips byte for byte, and the placer passes its
    /// from-scratch consistency check.
    #[test]
    fn a_fault_readmit_keeps_the_snapshot_in_id_order() {
        let mut svc = AdmissionService::new(topo());
        // Tenant 0 spans hosts 0 and 1; five newer tenants follow it.
        for vms in [2, 1, 1, 1, 1, 1] {
            let spread = if vms == 2 { 2 } else { 1 };
            svc.apply(&ChurnEvent::Admit(req(vms).with_fault_domains(spread)));
        }
        let link = svc.placer().topology().host_link(HostId(0));
        let Decision::Fault { report } = svc.apply(&ChurnEvent::FailLink(link)) else {
            panic!("a fault decision");
        };
        assert!(
            matches!(
                report.outcomes.as_slice(),
                [(TenantId(0), crate::DegradeOutcome::Replaced { .. })]
            ),
            "tenant 0 must be readmitted: {report:?}"
        );
        svc.placer().verify_scratch_consistency().unwrap();
        let snap = svc.snapshot();
        let ids: Vec<u64> = snap
            .lines()
            .filter_map(|l| l.strip_prefix("tenant "))
            .map(|l| l.split(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(ids, [0, 1, 2, 3, 4, 5], "{snap}");
        let restored = AdmissionService::restore(&snap).expect("snapshot parses");
        assert_eq!(restored.snapshot(), snap, "round-trip must be byte-exact");
        restored.placer().verify_scratch_consistency().unwrap();
    }

    /// `restore` refuses a tenant or victim whose request
    /// `TenantRequest::new` or `with_fault_domains` would refuse, or
    /// whose host entries do not place its VMs one or more a host, and
    /// says which tenant. Before it did, such a snapshot restored, and a
    /// failure that re-placed the tenant searched for its VMs with n = 0.
    #[test]
    fn restore_refuses_requests_no_admission_could_hold() {
        // Twelve 2-VM spread tenants fill the cell; failing host 0's
        // link leaves the tenants on it best-effort (victims).
        let mut svc = AdmissionService::new(topo());
        for _ in 0..12 {
            svc.apply(&ChurnEvent::Admit(req(2).with_fault_domains(2)));
        }
        let link = svc.placer().topology().host_link(HostId(0));
        svc.apply(&ChurnEvent::FailLink(link));
        let snap = svc.snapshot();
        assert!(AdmissionService::restore(&snap).is_ok());
        for record in ["tenant ", "victim "] {
            // The record's first line, its `req` line and its first host.
            let lines: Vec<&str> = snap.lines().collect();
            let at = lines
                .iter()
                .position(|l| l.starts_with(record))
                .unwrap_or_else(|| panic!("a {record:?} record in\n{snap}"));
            let id = lines[at].split(' ').nth(1).unwrap();
            let req_with = |i: usize, v: &str| {
                let mut f: Vec<&str> = lines[at + 1].split(' ').collect();
                f[i] = v;
                f.join(" ")
            };
            let h = lines[at + 2].split(' ').nth(1).unwrap();
            for (what, line, to) in [
                ("no VM", at + 1, req_with(1, "0")),
                ("no fault domain", at + 1, req_with(2, "0")),
                ("more fault domains than VMs", at + 1, req_with(2, "3")),
                ("a host with no VM", at + 2, format!("host {h} 0")),
                ("VMs that do not add up", at + 1, req_with(1, "3")),
            ] {
                let mut edited = lines.clone();
                edited[line] = &to;
                let bad = edited.join("\n") + "\n";
                assert_ne!(bad, snap, "{record}{what}: the edit must apply");
                let err = AdmissionService::restore(&bad)
                    .err()
                    .unwrap_or_else(|| panic!("{record}{what} restored"));
                assert!(
                    err.starts_with(&format!("tenant {id}: ")),
                    "{record}{what}: {err:?} must name tenant {id}"
                );
            }
        }
    }
}
