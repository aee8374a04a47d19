//! Graceful degradation of admitted guarantees under link failures.
//!
//! When a link dies, the C1/C2 reasoning behind every admitted tenant is
//! stale: pairs of VMs may be disconnected outright (the tree has no
//! alternate paths), and the reservations the tenant holds on ports
//! around the dead link are budget that surviving tenants could use. The
//! policy here is **reclaim-then-readmit**:
//!
//! 1. *Reclaim*: every tenant with a VM pair whose path crosses the
//!    failed link loses its port reservations and VM slots immediately —
//!    all affected tenants at once, so the re-admission pass below sees
//!    the true post-failure residual capacity.
//! 2. *Re-admit*: each affected tenant (in deterministic id order) goes
//!    back through ordinary admission against the degraded topology —
//!    same `{B, S, d, Bmax}` request, same id. Candidates that would
//!    cross any failed link are refused by `check_candidate`, so a
//!    re-admitted tenant's guarantees genuinely hold on what is left of
//!    the network.
//! 3. *Downgrade*: a tenant that no longer fits anywhere is explicitly
//!    downgraded to best-effort with a recorded [`RejectReason`]: it
//!    keeps its VM slots at the original hosts (VMs don't vanish when
//!    the network under them breaks) but holds **no** reservations, and
//!    no longer counts against any port budget.
//!
//! On restoration the same order applies in reverse: a degraded tenant
//! is first re-validated *in place* (original hosts, original span —
//! cheapest, no VM moves), then fully re-placed, and only if both fail
//! does it stay best-effort. See `DESIGN.md` for why this beats
//! LaaS-style full re-placement of every tenant.

use crate::guarantee::TenantRequest;
use crate::placer::{RejectReason, TenantId};
use crate::silo::{SiloPlacer, TenantRecord};
use silo_topology::{HostId, Level, LinkId, PortId};

/// What happened to one tenant during a failure or restoration sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradeOutcome {
    /// The tenant was re-placed onto surviving capacity; its guarantees
    /// hold on the degraded topology at the new hosts.
    Replaced {
        hosts: Vec<(HostId, usize)>,
        span: Level,
    },
    /// No placement satisfies the request any more: the tenant keeps its
    /// VM slots but runs best-effort, for this recorded reason.
    Downgraded { reason: RejectReason },
    /// (Restoration only) the tenant's original placement re-validated
    /// in place: reservations are back, no VMs moved.
    Restored,
    /// (Restoration only) still unsatisfiable even on the healed
    /// topology — typically because re-admitted tenants now hold the
    /// budget it needs.
    StillDegraded { reason: RejectReason },
}

/// The outcome of one [`SiloPlacer::fail_link`] / [`SiloPlacer::restore_link`]
/// sweep: which tenants were touched and what became of each.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    pub link: LinkId,
    /// Affected tenants in deterministic id order.
    pub outcomes: Vec<(TenantId, DegradeOutcome)>,
}

impl FaultReport {
    pub fn downgraded(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| {
                matches!(
                    o,
                    DegradeOutcome::Downgraded { .. } | DegradeOutcome::StillDegraded { .. }
                )
            })
            .count()
    }
}

/// Book-keeping for a tenant running best-effort after a failure.
#[derive(Debug, Clone)]
pub(crate) struct DegradedRecord {
    pub(crate) hosts: Vec<(HostId, usize)>,
    pub(crate) req: TenantRequest,
    pub(crate) level: Level,
    pub(crate) reason: RejectReason,
}

impl SiloPlacer {
    /// Links currently failed.
    pub fn failed_links(&self) -> &[LinkId] {
        &self.failed
    }

    /// Tenants currently downgraded to best-effort, with the reason each
    /// one could not be re-admitted. Deterministic id order.
    pub fn degraded_tenants(&self) -> Vec<(TenantId, RejectReason)> {
        self.degraded.iter().map(|(&t, r)| (t, r.reason)).collect()
    }

    /// A link fails. Reclaims the reservations and slots of every tenant
    /// whose placement depends on it, then re-admits each against the
    /// degraded topology (reclaim-then-readmit); tenants that no longer
    /// fit are downgraded to best-effort with a recorded reason. New
    /// admissions refuse the dead link until [`SiloPlacer::restore_link`].
    pub fn fail_link(&mut self, link: LinkId) -> FaultReport {
        if !self.failed.contains(&link) {
            self.failed.push(link);
            self.failed.sort_unstable();
        }
        // The dead-host mask is rebuilt once per fault event; every
        // mutation below (and every admission until the next fault event)
        // updates it in lockstep instead of cloning.
        self.rebuild_mask();
        // Phase 1: reclaim every affected tenant's *reservations* at
        // once, so re-admission sees the full post-failure residual
        // bandwidth budget. Slots are NOT bulk-released: a tenant that
        // ends up downgraded never vacates its hosts, so freeing its
        // slots up front would let an earlier-id tenant re-place onto
        // them and double-book the server (a real over-allocation this
        // crate's differential churn suite caught).
        //
        // Who is affected is read off the failed link's up port, not
        // swept out of every resident tenant: a tenant split by `link`
        // has some but not all of its VMs below it, which is exactly when
        // admission recorded a contribution there, and the port's index
        // is in id order. Every resident tenant was connected before this
        // failure (admission and both sweeps check it), so none outside
        // that list can be affected.
        let affected: Vec<TenantId> = self.port_index[PortId::up(link).0 as usize]
            .iter()
            .map(|&(t, _)| t)
            .filter(|t| !self.topo.connected(&self.tenants[t].hosts, &self.failed))
            .collect();
        let mut reclaimed: Vec<(TenantId, Box<TenantRecord>)> = Vec::new();
        for &t in &affected {
            let rec = self.tenants.remove(&t).expect("affected tenant exists");
            self.sub_contribs(t, &rec.contribs);
            reclaimed.push((t, rec));
        }
        // Phase 2: re-admit in id order, releasing and (on downgrade)
        // re-taking each tenant's slots atomically.
        let mut outcomes = Vec::new();
        for (t, rec) in reclaimed {
            self.release_slots(&rec.hosts);
            match self.place_as(t, &rec.req) {
                Ok((hosts, span)) => {
                    outcomes.push((t, DegradeOutcome::Replaced { hosts, span }));
                }
                Err(reason) => {
                    // Best-effort keeps the VMs where they were; the
                    // release just above guarantees this re-alloc fits.
                    self.alloc_slots(&rec.hosts);
                    self.degraded.insert(
                        t,
                        DegradedRecord {
                            hosts: rec.hosts,
                            req: rec.req,
                            level: rec.level,
                            reason,
                        },
                    );
                    outcomes.push((t, DegradeOutcome::Downgraded { reason }));
                }
            }
        }
        FaultReport { link, outcomes }
    }

    /// A failed link heals. Each degraded tenant is re-validated in place
    /// first (original hosts, original span — no VM moves), then fully
    /// re-placed, and stays best-effort only if both fail. Tenants that
    /// were successfully re-placed during the outage are *not* migrated
    /// back: their guarantees already hold where they are.
    pub fn restore_link(&mut self, link: LinkId) -> FaultReport {
        self.failed.retain(|&l| l != link);
        self.rebuild_mask();
        let ids: Vec<TenantId> = self.degraded.keys().copied().collect();
        let mut outcomes = Vec::new();
        for t in ids {
            let rec = self.degraded.remove(&t).expect("degraded tenant exists");
            // Cheapest first: original hosts, original span. The slots
            // are still allocated; only the reservations must re-check.
            let mut contribs = Vec::new();
            if self.check_candidate(&rec.hosts, rec.level, &rec.req, &mut contribs) {
                self.add_contribs(t, &contribs);
                self.tenants.insert(
                    t,
                    Box::new(TenantRecord {
                        hosts: rec.hosts,
                        contribs,
                        req: rec.req,
                        level: rec.level,
                    }),
                );
                outcomes.push((t, DegradeOutcome::Restored));
                continue;
            }
            // In-place failed (e.g. re-admitted tenants took the budget):
            // try anywhere.
            self.release_slots(&rec.hosts);
            match self.place_as(t, &rec.req) {
                Ok((hosts, span)) => {
                    outcomes.push((t, DegradeOutcome::Replaced { hosts, span }));
                }
                Err(reason) => {
                    self.alloc_slots(&rec.hosts);
                    self.degraded.insert(t, DegradedRecord { reason, ..rec });
                    outcomes.push((t, DegradeOutcome::StillDegraded { reason }));
                }
            }
        }
        FaultReport { link, outcomes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guarantee::Guarantee;
    use crate::placer::Placer;
    use silo_base::{Bytes, Dur, Rate};
    use silo_topology::{Topology, TreeParams};

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

    fn small_req(vms: usize) -> TenantRequest {
        TenantRequest::new(vms, Guarantee::class_a())
    }

    #[test]
    fn unrelated_tenants_survive_a_link_failure_untouched() {
        let mut p = SiloPlacer::new(two_rack_topo());
        // One tenant per host: all single-host spans.
        let a = p.try_place(&small_req(4)).unwrap();
        let before = a.hosts.clone();
        // Fail another host's access link: no pair of tenant-a VMs
        // crosses it.
        let report = p.fail_link(p.topology().host_link(HostId(5)));
        assert!(report.outcomes.is_empty());
        assert_eq!(p.placement_of(a.tenant).unwrap(), before.as_slice());
        assert!(p.degraded_tenants().is_empty());
    }

    #[test]
    fn tor_failure_reclaims_and_replaces_within_capacity() {
        let mut p = SiloPlacer::new(two_rack_topo());
        // A rack-spanning tenant in rack 0 (force >1 host).
        let placed = p.try_place(&small_req(4).with_fault_domains(2)).unwrap();
        assert!(placed.hosts.len() >= 2);
        let used_before = p.used_slots();
        // Kill rack 0's uplink: intra-rack pairs still work, but this
        // tenant only used rack-0 hosts... ToR down does not cut
        // host-to-host paths inside the rack, so it is unaffected.
        let report = p.fail_link(p.topology().tor_link(0));
        assert!(report.outcomes.is_empty());
        // A host-link failure under one of its VMs does affect it.
        let h = placed.hosts[0].0;
        let report = p.fail_link(p.topology().host_link(h));
        assert_eq!(report.outcomes.len(), 1);
        match &report.outcomes[0].1 {
            DegradeOutcome::Replaced { hosts, .. } => {
                assert!(
                    hosts.iter().all(|&(hh, _)| hh != h),
                    "must avoid the dead host's link: {hosts:?}"
                );
            }
            o => panic!("expected Replaced, got {o:?}"),
        }
        assert_eq!(p.used_slots(), used_before, "slots conserved");
        assert!(p.degraded_tenants().is_empty());
    }

    #[test]
    fn downgrade_when_no_capacity_remains_and_restore_revalidates() {
        let mut p = SiloPlacer::new(two_rack_topo());
        // Fill every slot with 2-host tenants (12 tenants x 2 VMs, spread).
        let mut placed = Vec::new();
        while let Ok(pl) = p.try_place(&small_req(2).with_fault_domains(2)) {
            placed.push(pl);
        }
        assert_eq!(p.used_slots(), 24, "cell fully packed");
        // Kill one host link: the only slots the reclaim frees sit under
        // the dead link itself, so no affected tenant can re-place ->
        // downgraded (network-unsatisfiable), slots retained.
        let h = placed[0].hosts[0].0;
        let report = p.fail_link(p.topology().host_link(h));
        assert!(!report.outcomes.is_empty());
        assert_eq!(report.downgraded(), report.outcomes.len());
        for (_, o) in &report.outcomes {
            assert_eq!(
                *o,
                DegradeOutcome::Downgraded {
                    reason: RejectReason::NetworkUnsatisfiable
                }
            );
        }
        assert_eq!(p.used_slots(), 24, "best-effort keeps its slots");
        let degraded = p.degraded_tenants();
        assert_eq!(degraded.len(), report.outcomes.len());
        // Heal: everyone re-validates in place (budget was reclaimed, the
        // original placement is admissible again).
        let healed = p.restore_link(p.topology().host_link(h));
        assert_eq!(healed.outcomes.len(), degraded.len());
        for (_, o) in &healed.outcomes {
            assert_eq!(*o, DegradeOutcome::Restored);
        }
        assert!(p.degraded_tenants().is_empty());
        assert!(p.failed_links().is_empty());
        assert_eq!(p.used_slots(), 24);
    }

    #[test]
    fn admission_refuses_candidates_across_a_failed_link() {
        let mut p = SiloPlacer::new(two_rack_topo());
        p.fail_link(p.topology().host_link(HostId(0)));
        // A spread tenant can still be admitted — but never on host 0.
        for _ in 0..4 {
            if let Ok(pl) = p.try_place(&small_req(2).with_fault_domains(2)) {
                assert!(pl.hosts.iter().all(|&(h, _)| h != HostId(0)), "{pl:?}");
            }
        }
        // A single-host tenant on host 0 is pure loopback: allowed.
        let single = p.try_place(&small_req(4)).unwrap();
        assert_eq!(single.hosts.len(), 1);
    }

    #[test]
    fn fault_sweeps_are_deterministic() {
        let run = || {
            let mut p = SiloPlacer::new(two_rack_topo());
            let mut placed = Vec::new();
            while let Ok(pl) = p.try_place(&small_req(2).with_fault_domains(2)) {
                placed.push(pl);
            }
            let l = p.topology().host_link(HostId(1));
            let a = p.fail_link(l);
            let b = p.restore_link(l);
            (placed, a, b)
        };
        let (p1, a1, b1) = run();
        let (p2, a2, b2) = run();
        assert_eq!(p1, p2);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    /// `fail_link` reads the tenants a failure splits off the failed
    /// link's up-port index instead of testing every resident tenant: on a
    /// loaded placer the two must agree for every link of the tree, in
    /// id order.
    #[test]
    fn up_port_index_lists_exactly_the_tenants_a_link_splits() {
        use silo_base::prop::Rng;
        let topo = Topology::build(TreeParams::ns2_scaled(0.1));
        let mut p = SiloPlacer::new(topo.clone());
        let mut rng = silo_base::seeded_rng(7);
        let mut placed = Vec::new();
        for _ in 0..400 {
            let vms = rng.random_range(1..13usize);
            let req = small_req(vms).with_fault_domains(rng.random_range(1..vms + 1));
            if let Ok(pl) = p.try_place(&req) {
                placed.push(pl.tenant);
            }
            if rng.random_bool(0.3) && !placed.is_empty() {
                let victim = placed.swap_remove(rng.random_range(0..placed.len()));
                assert!(p.remove(victim));
            }
        }
        let mut split_somewhere = 0;
        for l in (0..topo.num_links()).map(|l| LinkId(l as u32)) {
            // The table is hashed: sort the sweep into id order.
            let mut swept: Vec<TenantId> = p
                .tenants
                .iter()
                .filter(|(_, r)| !topo.connected(&r.hosts, &[l]))
                .map(|(&t, _)| t)
                .collect();
            swept.sort_unstable();
            let indexed: Vec<TenantId> = p.port_index[PortId::up(l).0 as usize]
                .iter()
                .map(|&(t, _)| t)
                .collect();
            assert_eq!(indexed, swept, "{l:?}");
            split_somewhere += usize::from(!swept.is_empty());
        }
        assert!(split_somewhere > topo.num_hosts() / 2, "{split_somewhere}");
    }

    #[test]
    fn remove_handles_degraded_tenants() {
        let mut p = SiloPlacer::new(two_rack_topo());
        let mut placed = Vec::new();
        while let Ok(pl) = p.try_place(&small_req(2).with_fault_domains(2)) {
            placed.push(pl);
        }
        let h = placed[0].hosts[0].0;
        let report = p.fail_link(p.topology().host_link(h));
        let (victim, _) = report.outcomes[0].clone();
        assert!(p.degraded_tenants().iter().any(|&(t, _)| t == victim));
        let before = p.used_slots();
        assert!(p.remove(victim));
        assert_eq!(p.used_slots(), before - 2);
        assert!(!p.remove(victim), "double-remove must fail");
    }
}
