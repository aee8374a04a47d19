//! The placement interface shared by Silo and the baseline algorithms:
//! slot bookkeeping, greedy height-minimizing candidate enumeration, and
//! the [`Placer`] trait.

use crate::guarantee::TenantRequest;
use silo_topology::{HostId, Level, Topology};
use std::ops::Range;

/// Opaque tenant handle returned by admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

/// A successful placement: how many VMs landed on each host, and the
/// hierarchy level the tenant spans.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    pub tenant: TenantId,
    pub hosts: Vec<(HostId, usize)>,
    pub span: Level,
}

impl Placement {
    pub fn total_vms(&self) -> usize {
        self.hosts.iter().map(|(_, k)| k).sum()
    }

    /// The host of every VM, in placement order: each host repeated once
    /// per VM it holds (the shape `TenantSpec::vm_hosts` takes).
    pub fn vm_hosts(&self) -> Vec<HostId> {
        let mut vm_hosts = Vec::with_capacity(self.total_vms());
        for &(h, k) in &self.hosts {
            vm_hosts.extend(std::iter::repeat_n(h, k));
        }
        vm_hosts
    }
}

/// Why admission failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Not enough free VM slots anywhere the tenant is allowed to span.
    InsufficientSlots,
    /// The delay guarantee cannot be met even within a single rack and the
    /// tenant does not fit one server.
    DelayUnsatisfiable,
    /// No placement satisfies the network constraints (C1 for Silo,
    /// residual bandwidth for Oktopus).
    NetworkUnsatisfiable,
}

/// An admission-controlling VM placer.
pub trait Placer {
    fn topology(&self) -> &Topology;

    /// Admit and place a tenant, or reject it. A rejected request leaves
    /// the placer's state untouched.
    fn try_place(&mut self, req: &TenantRequest) -> Result<Placement, RejectReason>;

    /// Release a tenant's VMs and network reservations. Returns false if
    /// the tenant is unknown.
    fn remove(&mut self, tenant: TenantId) -> bool;

    /// Occupied VM slots (for occupancy accounting).
    fn used_slots(&self) -> usize;
}

/// Free-slot bookkeeping with per-rack/per-pod aggregates so candidate
/// subtrees without room are skipped in O(1), and per-k host bitsets so a
/// walk over a subtree's hosts visits only the hosts that can take VMs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotMap {
    per_host: Vec<usize>,
    per_rack: Vec<usize>,
    /// Per pod: its free slots, and the most free slots any one of its
    /// racks holds (a search for a rack with `n` free skips a pod below
    /// `n` without visiting its racks).
    per_pod: Vec<PodFree>,
    total_free: usize,
    total_slots: usize,
    /// `slots_per_server` bitsets of `words` words each: bit `h` of bitset
    /// `k - 1` is set exactly when host `h` has at least `k` free slots.
    at_least: Vec<u64>,
    words: usize,
}

impl SlotMap {
    pub fn new(topo: &Topology) -> SlotMap {
        let s = topo.slots_per_server();
        let hosts = topo.num_hosts();
        let hosts_per_rack = topo.params().servers_per_rack;
        let hosts_per_pod = hosts_per_rack * topo.params().racks_per_pod;
        // Every host starts empty: its bit is set in every bitset.
        let words = hosts.div_ceil(64);
        let mut full = vec![!0u64; words];
        if !hosts.is_multiple_of(64) {
            full[words - 1] = (1 << (hosts % 64)) - 1;
        }
        SlotMap {
            per_host: vec![s; hosts],
            per_rack: vec![s * hosts_per_rack; topo.num_racks()],
            per_pod: vec![
                PodFree {
                    free: s * hosts_per_pod,
                    rack_max: s * hosts_per_rack,
                };
                topo.num_pods()
            ],
            total_free: s * hosts,
            total_slots: s * hosts,
            at_least: full.repeat(s),
            words,
        }
    }

    pub fn free_host(&self, h: HostId) -> usize {
        self.per_host[h.0 as usize]
    }
    pub fn free_rack(&self, rack: usize) -> usize {
        self.per_rack[rack]
    }
    pub fn free_pod(&self, pod: usize) -> usize {
        self.per_pod[pod].free
    }
    /// The most free slots any one rack of `pod` holds.
    pub fn most_free_rack(&self, pod: usize) -> usize {
        self.per_pod[pod].rack_max
    }
    pub fn total_free(&self) -> usize {
        self.total_free
    }
    pub fn used(&self) -> usize {
        self.total_slots - self.total_free
    }
    pub fn total(&self) -> usize {
        self.total_slots
    }

    /// The hosts of `hosts` (a range of host indices) with at least `k`
    /// free slots, in order. `k` is in `1..=slots_per_server`.
    pub(crate) fn hosts_with(&self, k: usize, hosts: Range<usize>) -> SetBits<'_> {
        SetBits::new(self.bitset(k), hosts)
    }

    /// The bitset of hosts with at least `k` free slots.
    pub(crate) fn bitset(&self, k: usize) -> &[u64] {
        &self.at_least[(k - 1) * self.words..k * self.words]
    }

    /// Host `h`'s free slots went from `before` to `after`: flip its bit in
    /// the bitsets of every `k` between the two.
    fn reindex(&mut self, h: usize, before: usize, after: usize) {
        let (word, bit) = (h / 64, 1u64 << (h % 64));
        for k in before.min(after) + 1..=before.max(after) {
            self.at_least[(k - 1) * self.words + word] ^= bit;
        }
    }

    pub fn alloc(&mut self, topo: &Topology, placement: &[(HostId, usize)]) {
        // A pod one of whose entries lowered the rack that held its most,
        // recounted once the run of entries in it ends (a placement lists
        // its hosts in order, so usually once per pod). Until then its
        // `rack_max` can only be too high, so a later entry that lowers
        // the true fullest rack still finds the pod marked.
        let mut stale = None;
        for &(h, k) in placement {
            let free = self.per_host[h.0 as usize];
            assert!(free >= k, "slot over-allocation");
            self.per_host[h.0 as usize] = free - k;
            self.reindex(h.0 as usize, free, free - k);
            let (rack, pod) = (topo.rack_of(h), topo.pod_of(h));
            let before = self.per_rack[rack];
            self.per_rack[rack] = before - k;
            self.per_pod[pod].free -= k;
            self.total_free -= k;
            if let Some(p) = stale.filter(|&p| p != pod) {
                self.recount_rack_max(topo, p);
                stale = None;
            }
            if before == self.per_pod[pod].rack_max {
                stale = Some(pod);
            }
        }
        if let Some(p) = stale {
            self.recount_rack_max(topo, p);
        }
    }

    fn recount_rack_max(&mut self, topo: &Topology, pod: usize) {
        self.per_pod[pod].rack_max = topo
            .racks_in_pod(pod)
            .map(|r| self.per_rack[r])
            .max()
            .expect("a pod has racks");
    }

    pub fn release(&mut self, topo: &Topology, placement: &[(HostId, usize)]) {
        for &(h, k) in placement {
            let free = self.per_host[h.0 as usize];
            assert!(free + k <= topo.slots_per_server(), "slot over-release");
            self.per_host[h.0 as usize] = free + k;
            self.reindex(h.0 as usize, free, free + k);
            let (rack, pod) = (topo.rack_of(h), topo.pod_of(h));
            self.per_rack[rack] += k;
            let p = &mut self.per_pod[pod];
            p.free += k;
            p.rack_max = p.rack_max.max(self.per_rack[rack]);
            self.total_free += k;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PodFree {
    free: usize,
    rack_max: usize,
}

/// The set bits of a bitset inside a range of bit indices, as hosts in
/// ascending order ([`SlotMap::hosts_with`]).
pub(crate) struct SetBits<'a> {
    words: &'a [u64],
    /// Index of the word `bits` came from.
    word: usize,
    /// The unvisited set bits of that word.
    bits: u64,
    end: usize,
}

impl<'a> SetBits<'a> {
    fn new(words: &'a [u64], hosts: Range<usize>) -> SetBits<'a> {
        let word = hosts.start / 64;
        let bits = if hosts.is_empty() {
            0
        } else {
            words[word] & (!0u64 << (hosts.start % 64))
        };
        SetBits {
            words,
            word,
            bits,
            end: hosts.end,
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = HostId;

    fn next(&mut self) -> Option<HostId> {
        while self.bits == 0 {
            self.word += 1;
            if self.word * 64 >= self.end {
                return None;
            }
            self.bits = self.words[self.word];
        }
        let h = self.word * 64 + self.bits.trailing_zeros() as usize;
        if h >= self.end {
            // Every later bit is past the end too, and the next word
            // starts past it.
            self.bits = 0;
            return None;
        }
        self.bits &= self.bits - 1;
        Some(HostId(h as u32))
    }
}

/// The host indices of rack `rack`.
fn rack_hosts(topo: &Topology, rack: usize) -> Range<usize> {
    let s = topo.params().servers_per_rack;
    rack * s..(rack + 1) * s
}

/// The host indices of pod `pod`.
fn pod_hosts(topo: &Topology, pod: usize) -> Range<usize> {
    let s = topo.params().servers_per_rack * topo.params().racks_per_pod;
    pod * s..(pod + 1) * s
}

/// Distribute `n` VMs over the hosts of the host ranges `subtrees` (both
/// in order), at most `cap` per host and never more than a host's free
/// slots, into `out`. Returns false if they don't fit. Only hosts with a
/// free slot are visited: each other host would have taken zero VMs.
pub(crate) fn distribute(
    slots: &SlotMap,
    subtrees: impl Iterator<Item = Range<usize>>,
    n: usize,
    cap: usize,
    out: &mut Vec<(HostId, usize)>,
) -> bool {
    out.clear();
    let mut left = n;
    for hosts in subtrees {
        if left == 0 {
            break;
        }
        for h in slots.hosts_with(1, hosts) {
            if left == 0 {
                break;
            }
            let k = slots.free_host(h).min(cap).min(left);
            out.push((h, k));
            left -= k;
        }
    }
    left == 0
}

/// Greedy height-minimizing placement (paper §4.2.3): try a single server,
/// then each rack, each pod, then the whole datacenter — never exceeding
/// `max_level`. Within a multi-server candidate, packing density is relaxed
/// from `slots_per_server` down to a balanced spread until `check` accepts
/// (spreading lowers the per-port cut sizes, cf. Fig. 5).
///
/// `check(placement, level)` validates the candidate against the placer's
/// network constraints. `min_hosts` is the fault-domain constraint: the
/// tenant must span at least that many servers (`1` disables it).
///
/// Candidates are built in `cand`, the caller's buffer: on success it
/// holds the accepted placement (whose `check` call was the last one made),
/// on failure its contents are meaningless.
///
/// The subtrees a level walks are pruned with the [`SlotMap`] aggregates,
/// and only where the walk could not have produced a candidate: a host
/// never has more free slots than it has slots, or than its rack, nor a
/// rack than its pod, so a rack or pod with fewer than `n` free slots holds
/// no server with `n`, and one with none adds nothing to a distribution.
/// Levels 0 and 1 walk only the pods whose fullest-free rack
/// ([`SlotMap::most_free_rack`]) has `n`: the racks they visit are the
/// racks with `n` free in rack order, since rack ids are pod-major.
/// Inside a subtree only the hosts in the [`SlotMap`] bitset the step needs
/// are visited (at least `n` free slots for level 0, at least one for a
/// distribution), in host order: every host left out would have been
/// passed over. `check` therefore sees the candidates of the plain
/// host-by-host walk, in its order.
///
/// # Panics
///
/// If `n` is zero: a tenant needs at least one VM.
pub(crate) fn greedy_place_spread<F>(
    topo: &Topology,
    slots: &SlotMap,
    n: usize,
    max_level: Level,
    min_hosts: usize,
    cand: &mut Vec<(HostId, usize)>,
    check: &mut F,
) -> Option<Level>
where
    F: FnMut(&[(HostId, usize)], Level) -> bool,
{
    assert!(n >= 1, "a tenant needs at least one VM");
    let spp = topo
        .slots_per_server()
        // Capping per-server density at ceil(n / min_hosts) forces the
        // distribution across at least `min_hosts` servers.
        .min(n.div_ceil(min_hosts.max(1)));
    let mut search = Search {
        slots,
        n,
        spp,
        cand,
        check,
    };

    // Level 0: one server (only without a spread requirement, and only a
    // tenant no bigger than a server: no host has more free slots).
    if min_hosts <= 1 && n <= topo.slots_per_server() {
        for pod in (0..topo.num_pods()).filter(|&p| slots.most_free_rack(p) >= n) {
            for rack in topo.racks_in_pod(pod).filter(|&r| slots.free_rack(r) >= n) {
                for h in slots.hosts_with(n, rack_hosts(topo, rack)) {
                    if search.offer_host(h) {
                        return Some(Level::SameHost);
                    }
                }
            }
        }
    }

    // Level 1: one rack.
    if max_level >= Level::SameRack {
        for pod in (0..topo.num_pods()).filter(|&p| slots.most_free_rack(p) >= n) {
            for rack in topo.racks_in_pod(pod).filter(|&r| slots.free_rack(r) >= n) {
                if search.relax(std::iter::once(rack_hosts(topo, rack)), Level::SameRack) {
                    return Some(Level::SameRack);
                }
            }
        }
    }

    // Level 2: one pod.
    if max_level >= Level::SamePod {
        for pod in (0..topo.num_pods()).filter(|&p| slots.free_pod(p) >= n) {
            if search.relax(std::iter::once(pod_hosts(topo, pod)), Level::SamePod) {
                return Some(Level::SamePod);
            }
        }
    }

    // Level 3: anywhere.
    if max_level >= Level::CrossPod && slots.total_free() >= n {
        let pods = (0..topo.num_pods())
            .filter(|&p| slots.free_pod(p) > 0)
            .map(|p| pod_hosts(topo, p));
        if search.relax(pods, Level::CrossPod) {
            return Some(Level::CrossPod);
        }
    }

    None
}

/// What every level of one [`greedy_place_spread`] call shares.
struct Search<'a, F> {
    slots: &'a SlotMap,
    n: usize,
    /// Densest packing tried: VMs per server.
    spp: usize,
    cand: &'a mut Vec<(HostId, usize)>,
    check: &'a mut F,
}

impl<F> Search<'_, F>
where
    F: FnMut(&[(HostId, usize)], Level) -> bool,
{
    /// Offer `check` the single-server candidate on `h`.
    fn offer_host(&mut self, h: HostId) -> bool {
        self.cand.clear();
        self.cand.push((h, self.n));
        (self.check)(self.cand, Level::SameHost)
    }

    /// One subtree's candidates: pack the VMs over the host ranges
    /// `subtrees` at most `cap` per server, relaxing `cap` from `spp` down
    /// to 1, until `check` accepts one (true) or the VMs stop fitting
    /// (lower caps fit even less).
    fn relax(
        &mut self,
        subtrees: impl Iterator<Item = Range<usize>> + Clone,
        level: Level,
    ) -> bool {
        for cap in (1..=self.spp).rev() {
            let fits = distribute(self.slots, subtrees.clone(), self.n, cap, self.cand);
            if !fits {
                return false;
            }
            if (self.check)(self.cand, level) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_base::prop;
    use silo_topology::{LinkId, TreeParams};

    fn topo() -> Topology {
        Topology::build(TreeParams {
            pods: 2,
            racks_per_pod: 2,
            servers_per_rack: 3,
            vm_slots_per_server: 4,
            ..TreeParams::ns2_paper()
        })
    }

    /// `greedy_place_spread` with a fresh buffer, returning the candidate.
    fn greedy(
        t: &Topology,
        s: &SlotMap,
        n: usize,
        max_level: Level,
        min_hosts: usize,
        mut check: impl FnMut(&[(HostId, usize)], Level) -> bool,
    ) -> Option<(Vec<(HostId, usize)>, Level)> {
        let mut cand = Vec::new();
        greedy_place_spread(t, s, n, max_level, min_hosts, &mut cand, &mut check)
            .map(|lvl| (cand, lvl))
    }

    #[test]
    fn slotmap_accounting() {
        let t = topo();
        let mut s = SlotMap::new(&t);
        assert_eq!(s.total_free(), 48);
        s.alloc(&t, &[(HostId(0), 3), (HostId(3), 2)]);
        assert_eq!(s.free_host(HostId(0)), 1);
        assert_eq!(s.free_rack(0), 9);
        assert_eq!(s.free_rack(1), 10);
        assert_eq!(s.free_pod(0), 19);
        assert_eq!(s.used(), 5);
        s.release(&t, &[(HostId(0), 3), (HostId(3), 2)]);
        assert_eq!(s.total_free(), 48);
    }

    #[test]
    #[should_panic(expected = "slot over-release")]
    fn release_past_the_host_slots_panics() {
        let t = topo();
        let mut s = SlotMap::new(&t);
        s.alloc(&t, &[(HostId(0), 1)]);
        s.release(&t, &[(HostId(0), 2)]);
    }

    #[test]
    fn distribute_respects_cap_and_free() {
        let t = topo();
        let mut s = SlotMap::new(&t);
        s.alloc(&t, &[(HostId(0), 4)]); // host 0 full
        let mut d = Vec::new();
        assert!(distribute(&s, std::iter::once(0..3), 6, 3, &mut d));
        assert_eq!(d, vec![(HostId(1), 3), (HostId(2), 3)]);
        assert!(!distribute(&s, std::iter::once(0..3), 9, 4, &mut d));
    }

    #[test]
    fn greedy_prefers_single_server() {
        let t = topo();
        let s = SlotMap::new(&t);
        let (cand, lvl) = greedy(&t, &s, 3, Level::CrossPod, 1, |_, _| true).unwrap();
        assert_eq!(lvl, Level::SameHost);
        assert_eq!(cand, vec![(HostId(0), 3)]);
    }

    #[test]
    fn greedy_escalates_to_rack() {
        let t = topo();
        let s = SlotMap::new(&t);
        let (cand, lvl) = greedy(&t, &s, 10, Level::CrossPod, 1, |_, _| true).unwrap();
        assert_eq!(lvl, Level::SameRack);
        assert_eq!(cand.iter().map(|(_, k)| k).sum::<usize>(), 10);
    }

    #[test]
    fn greedy_respects_max_level() {
        let t = topo();
        let s = SlotMap::new(&t);
        // 13 VMs don't fit a rack (12 slots); capped at rack level -> None.
        assert!(greedy(&t, &s, 13, Level::SameRack, 1, |_, _| true).is_none());
        assert!(greedy(&t, &s, 13, Level::SamePod, 1, |_, _| true).is_some());
    }

    #[test]
    fn greedy_relaxes_packing_when_check_fails_dense() {
        let t = topo();
        let s = SlotMap::new(&t);
        // Reject any placement that puts more than 2 VMs on one host.
        let (cand, lvl) = greedy(&t, &s, 6, Level::CrossPod, 1, |cand, _| {
            cand.iter().all(|&(_, k)| k <= 2)
        })
        .unwrap();
        assert_eq!(lvl, Level::SameRack);
        assert!(cand.iter().all(|&(_, k)| k <= 2));
    }

    #[test]
    fn fault_domains_force_spreading() {
        let t = topo();
        let s = SlotMap::new(&t);
        // 4 VMs, at least 2 servers: never a single-server placement.
        let (cand, lvl) = greedy(&t, &s, 4, Level::CrossPod, 2, |_, _| true).unwrap();
        assert!(cand.len() >= 2, "{cand:?}");
        assert_eq!(lvl, Level::SameRack);
        assert!(cand.iter().all(|&(_, k)| k <= 2));
        // min_hosts = n means one VM per server.
        let (cand, _) = greedy(&t, &s, 3, Level::CrossPod, 3, |_, _| true).unwrap();
        assert_eq!(cand.len(), 3);
        assert!(cand.iter().all(|&(_, k)| k == 1));
    }

    #[test]
    fn fault_domains_via_tenant_request() {
        use crate::guarantee::{Guarantee, TenantRequest};
        use crate::silo::SiloPlacer;
        use crate::Placer;
        let t = topo();
        let mut p = SiloPlacer::new(t);
        let req = TenantRequest::new(4, Guarantee::class_a()).with_fault_domains(2);
        let placed = p.try_place(&req).unwrap();
        assert!(placed.hosts.len() >= 2, "{:?}", placed.hosts);
    }

    #[test]
    fn greedy_rejects_when_no_slots() {
        let t = topo();
        let mut s = SlotMap::new(&t);
        let all: Vec<_> = (0..t.num_hosts()).map(|h| (HostId(h as u32), 4)).collect();
        s.alloc(&t, &all);
        assert!(greedy(&t, &s, 1, Level::CrossPod, 1, |_, _| true).is_none());
    }

    #[test]
    fn vm_hosts_repeats_each_host_in_placement_order() {
        let p = Placement {
            tenant: TenantId(0),
            hosts: vec![(HostId(3), 2), (HostId(0), 1), (HostId(5), 3)],
            span: Level::SamePod,
        };
        let vm_hosts = p.vm_hosts();
        assert_eq!(vm_hosts.len(), p.total_vms());
        let ids: Vec<u32> = vm_hosts.iter().map(|h| h.0).collect();
        assert_eq!(ids, [3, 3, 0, 5, 5, 5]);
    }

    // Reference oracle: the search as it stood before it learnt to prune —
    // every host of every subtree walked one by one, a fresh vector per
    // candidate — kept to check the pruned search against.

    fn distribute_reference(
        slots: &SlotMap,
        hosts: impl Iterator<Item = HostId>,
        n: usize,
        cap: usize,
    ) -> Option<Vec<(HostId, usize)>> {
        let mut left = n;
        let mut out = Vec::new();
        for h in hosts {
            if left == 0 {
                break;
            }
            let k = slots.free_host(h).min(cap).min(left);
            if k > 0 {
                out.push((h, k));
                left -= k;
            }
        }
        (left == 0).then_some(out)
    }

    fn greedy_place_spread_reference<F>(
        topo: &Topology,
        slots: &SlotMap,
        n: usize,
        max_level: Level,
        min_hosts: usize,
        check: &mut F,
    ) -> Option<(Vec<(HostId, usize)>, Level)>
    where
        F: FnMut(&[(HostId, usize)], Level) -> bool,
    {
        let spp = topo.slots_per_server().min(n.div_ceil(min_hosts.max(1)));
        if min_hosts <= 1 {
            for h in 0..topo.num_hosts() {
                let h = HostId(h as u32);
                if slots.free_host(h) >= n {
                    let cand = vec![(h, n)];
                    if check(&cand, Level::SameHost) {
                        return Some((cand, Level::SameHost));
                    }
                }
            }
        }
        if max_level >= Level::SameRack {
            for rack in 0..topo.num_racks() {
                if slots.free_rack(rack) < n {
                    continue;
                }
                for cap in (1..=spp).rev() {
                    let Some(cand) = distribute_reference(slots, topo.hosts_in_rack(rack), n, cap)
                    else {
                        break;
                    };
                    if check(&cand, Level::SameRack) {
                        return Some((cand, Level::SameRack));
                    }
                }
            }
        }
        if max_level >= Level::SamePod {
            for pod in 0..topo.num_pods() {
                if slots.free_pod(pod) < n {
                    continue;
                }
                for cap in (1..=spp).rev() {
                    let hosts = topo.racks_in_pod(pod).flat_map(|r| topo.hosts_in_rack(r));
                    let Some(cand) = distribute_reference(slots, hosts, n, cap) else {
                        break;
                    };
                    if check(&cand, Level::SamePod) {
                        return Some((cand, Level::SamePod));
                    }
                }
            }
        }
        if max_level >= Level::CrossPod && slots.total_free() >= n {
            for cap in (1..=spp).rev() {
                let hosts = (0..topo.num_hosts()).map(|h| HostId(h as u32));
                let Some(cand) = distribute_reference(slots, hosts, n, cap) else {
                    break;
                };
                if check(&cand, Level::CrossPod) {
                    return Some((cand, Level::CrossPod));
                }
            }
        }
        None
    }

    /// A random small tree with random occupancy, a request shape, and a
    /// pseudo-random `check`: candidate number `i` of a search is accepted
    /// when bit `i mod 64` of `accept` is set.
    #[derive(Debug, Clone)]
    struct Case {
        pods: usize,
        racks_per_pod: usize,
        servers_per_rack: usize,
        slots_per_server: usize,
        /// Used slots per host, clamped to `slots_per_server`.
        used: Vec<usize>,
        n: usize,
        max_level: Level,
        min_hosts: usize,
        accept: u64,
    }

    impl Case {
        fn topo(&self) -> Topology {
            Topology::build(TreeParams {
                pods: self.pods,
                racks_per_pod: self.racks_per_pod,
                servers_per_rack: self.servers_per_rack,
                vm_slots_per_server: self.slots_per_server,
                ..TreeParams::ns2_paper()
            })
        }

        fn slots(&self, t: &Topology) -> SlotMap {
            let mut s = SlotMap::new(t);
            let used: Vec<(HostId, usize)> = (0..t.num_hosts())
                .map(|h| {
                    let k = self.used.get(h).copied().unwrap_or(0);
                    (HostId(h as u32), k.min(self.slots_per_server))
                })
                .collect();
            s.alloc(t, &used);
            s
        }
    }

    const LEVELS: [Level; 4] = [
        Level::SameHost,
        Level::SameRack,
        Level::SamePod,
        Level::CrossPod,
    ];

    fn gen_case(rng: &mut prop::StdRng) -> Case {
        use prop::Rng;
        let pods = rng.random_range(1..4usize);
        let racks_per_pod = rng.random_range(1..4usize);
        let servers_per_rack = rng.random_range(1..4usize);
        let slots_per_server = rng.random_range(1..5usize);
        // Mostly-full trees make the aggregates bite: whole racks and pods
        // with no room, or with exactly `n` free.
        let fill = rng.random_range(0..4u32);
        let used = (0..pods * racks_per_pod * servers_per_rack)
            .map(|_| match fill {
                0 => rng.random_range(0..slots_per_server + 1),
                1 => slots_per_server - usize::from(rng.random_bool(0.3)),
                2 => slots_per_server.saturating_sub(rng.random_range(0..3usize)),
                _ => slots_per_server * usize::from(rng.random_bool(0.7)),
            })
            .collect();
        Case {
            pods,
            racks_per_pod,
            servers_per_rack,
            slots_per_server,
            used,
            n: rng.random_range(1..10usize),
            max_level: LEVELS[rng.random_range(0..4usize)],
            min_hosts: rng.random_range(1..4usize),
            // Reject-heavy, so searches run deep into the later levels.
            accept: rng.random::<u64>() & rng.random::<u64>() & rng.random::<u64>(),
        }
    }

    fn shrink_case(c: &Case) -> Vec<Case> {
        let mut out = Vec::new();
        let dims = [
            (c.pods - 1, c.racks_per_pod, c.servers_per_rack),
            (c.pods, c.racks_per_pod - 1, c.servers_per_rack),
            (c.pods, c.racks_per_pod, c.servers_per_rack - 1),
        ];
        for (pods, racks_per_pod, servers_per_rack) in dims {
            let hosts = pods * racks_per_pod * servers_per_rack;
            if hosts > 0 {
                out.push(Case {
                    pods,
                    racks_per_pod,
                    servers_per_rack,
                    used: c.used[..hosts].to_vec(),
                    ..c.clone()
                });
            }
        }
        if c.slots_per_server > 1 {
            out.push(Case {
                slots_per_server: c.slots_per_server - 1,
                ..c.clone()
            });
        }
        for (i, &u) in c.used.iter().enumerate() {
            // Towards full hosts: the fewer free slots, the simpler.
            if u < c.slots_per_server {
                let mut used = c.used.clone();
                used[i] = c.slots_per_server;
                out.push(Case { used, ..c.clone() });
            }
        }
        if c.n > 1 {
            out.push(Case {
                n: c.n - 1,
                ..c.clone()
            });
        }
        if c.min_hosts > 1 {
            out.push(Case {
                min_hosts: c.min_hosts - 1,
                ..c.clone()
            });
        }
        if let Some(i) = LEVELS.iter().position(|&l| l == c.max_level) {
            if i > 0 {
                out.push(Case {
                    max_level: LEVELS[i - 1],
                    ..c.clone()
                });
            }
        }
        if c.accept != 0 {
            out.push(Case {
                accept: 0,
                ..c.clone()
            });
            out.push(Case {
                accept: c.accept & (c.accept - 1),
                ..c.clone()
            });
        }
        out
    }

    #[test]
    fn pruned_search_offers_check_the_reference_sequence() {
        type Calls = Vec<(Vec<(HostId, usize)>, Level)>;
        prop::forall(
            "pruned greedy search == host-by-host reference, call for call",
            gen_case,
            shrink_case,
            |c| {
                let t = c.topo();
                let s = c.slots(&t);
                let run = |pruned: bool| {
                    let mut calls: Calls = Vec::new();
                    let mut check = |cand: &[(HostId, usize)], lvl: Level| {
                        calls.push((cand.to_vec(), lvl));
                        c.accept >> ((calls.len() - 1) % 64) & 1 == 1
                    };
                    let found = if pruned {
                        greedy(&t, &s, c.n, c.max_level, c.min_hosts, &mut check)
                    } else {
                        greedy_place_spread_reference(
                            &t,
                            &s,
                            c.n,
                            c.max_level,
                            c.min_hosts,
                            &mut check,
                        )
                    };
                    (found, calls)
                };
                let (got, got_calls) = run(true);
                let (want, want_calls) = run(false);
                if got != want {
                    return Err(format!("result {got:?} != reference {want:?}"));
                }
                if got_calls != want_calls {
                    let at = got_calls
                        .iter()
                        .zip(&want_calls)
                        .position(|(a, b)| a != b)
                        .unwrap_or(got_calls.len().min(want_calls.len()));
                    return Err(format!(
                        "check call {at}: {:?} != reference {:?} ({} vs {} calls)",
                        got_calls.get(at),
                        want_calls.get(at),
                        got_calls.len(),
                        want_calls.len()
                    ));
                }
                Ok(())
            },
        );
    }

    /// One step of [`Script`]. Hosts, VM counts and links are taken
    /// modulo what the tree has, so a step stays valid when a shrink makes
    /// the tree smaller.
    #[derive(Debug, Clone)]
    enum Step {
        /// Take up to `k` of the free slots of each of `span` hosts from
        /// `host` on, in one call (which may cross racks and pods).
        Alloc {
            host: usize,
            k: usize,
            span: usize,
        },
        /// Give back up to `k` of a host's used slots.
        Release {
            host: usize,
            k: usize,
        },
        Fail {
            link: usize,
        },
        /// Heal the `i`-th failed link, if any is failed.
        Restore {
            i: usize,
        },
    }

    /// A random tree wide enough that racks and pods straddle bitset
    /// words, a script of slot and link steps on a [`SiloPlacer`], and
    /// after each step a request to search for: `(n, max_level,
    /// min_hosts, accept)` as in [`Case`].
    #[derive(Debug, Clone)]
    struct Script {
        pods: usize,
        racks_per_pod: usize,
        servers_per_rack: usize,
        slots_per_server: usize,
        steps: Vec<(Step, (usize, Level, usize, u64))>,
    }

    fn gen_script(rng: &mut prop::StdRng) -> Script {
        use prop::Rng;
        let steps = (0..rng.random_range(1..60usize))
            .map(|_| {
                let host = rng.random_range(0..usize::MAX);
                let k = rng.random_range(1..5usize);
                let step = match rng.random_range(0..8u8) {
                    0..=3 => Step::Alloc {
                        host,
                        k,
                        span: rng.random_range(1..65usize),
                    },
                    4 | 5 => Step::Release { host, k },
                    6 => Step::Fail {
                        link: rng.random_range(0..usize::MAX),
                    },
                    _ => Step::Restore {
                        i: rng.random_range(0..usize::MAX),
                    },
                };
                let probe = (
                    rng.random_range(1..10usize),
                    LEVELS[rng.random_range(0..4usize)],
                    rng.random_range(1..4usize),
                    rng.random::<u64>() & rng.random::<u64>() & rng.random::<u64>(),
                );
                (step, probe)
            })
            .collect();
        Script {
            pods: rng.random_range(1..4usize),
            racks_per_pod: rng.random_range(1..4usize),
            servers_per_rack: rng.random_range(1..31usize),
            slots_per_server: rng.random_range(1..5usize),
            steps,
        }
    }

    fn shrink_script(c: &Script) -> Vec<Script> {
        let mut out = Vec::new();
        for i in 0..c.steps.len() {
            let mut steps = c.steps.clone();
            steps.remove(i);
            out.push(Script { steps, ..c.clone() });
        }
        if c.pods > 1 {
            out.push(Script {
                pods: c.pods - 1,
                ..c.clone()
            });
        }
        if c.racks_per_pod > 1 {
            out.push(Script {
                racks_per_pod: c.racks_per_pod - 1,
                ..c.clone()
            });
        }
        if c.servers_per_rack > 1 {
            out.push(Script {
                servers_per_rack: c.servers_per_rack - 1,
                ..c.clone()
            });
        }
        if c.slots_per_server > 1 {
            out.push(Script {
                slots_per_server: c.slots_per_server - 1,
                ..c.clone()
            });
        }
        out
    }

    /// Every bitset of `s` against a recomputation from its per-host free
    /// counts, bits past the last host included, and each pod's fullest
    /// rack against a recount over its racks.
    fn bitsets_match_counts(t: &Topology, s: &SlotMap, what: &str) -> Result<(), String> {
        for pod in 0..t.num_pods() {
            let want = t.racks_in_pod(pod).map(|r| s.free_rack(r)).max();
            if Some(s.most_free_rack(pod)) != want {
                return Err(format!(
                    "{what}: pod {pod}'s most free rack is {}, its racks give {want:?}",
                    s.most_free_rack(pod)
                ));
            }
        }
        for k in 1..=t.slots_per_server() {
            let mut want = vec![0u64; t.num_hosts().div_ceil(64)];
            for h in 0..t.num_hosts() {
                if s.free_host(HostId(h as u32)) >= k {
                    want[h / 64] |= 1 << (h % 64);
                }
            }
            if s.bitset(k) != want.as_slice() {
                return Err(format!(
                    "{what}: bitset k = {k} is {:x?}, the counts give {want:x?}",
                    s.bitset(k)
                ));
            }
        }
        Ok(())
    }

    /// The free-slot bitsets stay exact through allocations, releases and
    /// link failures and repairs, in the slot map and in the dead-host
    /// view, and on those partly full, masked maps the search offers
    /// `check` the host-by-host reference's candidates, call for call.
    #[test]
    fn slot_bitsets_track_the_counts_and_the_search_matches_the_reference() {
        use crate::silo::SiloPlacer;
        type Calls = Vec<(Vec<(HostId, usize)>, Level)>;
        prop::forall(
            "slot bitsets == recount; search on them == host-by-host reference",
            gen_script,
            shrink_script,
            |c| {
                let t = Topology::build(TreeParams {
                    pods: c.pods,
                    racks_per_pod: c.racks_per_pod,
                    servers_per_rack: c.servers_per_rack,
                    vm_slots_per_server: c.slots_per_server,
                    ..TreeParams::ns2_paper()
                });
                let spp = t.slots_per_server();
                let mut p = SiloPlacer::new(t.clone());
                for (i, (step, probe)) in c.steps.iter().enumerate() {
                    match *step {
                        Step::Alloc { host, k, span } => {
                            let mut hosts: Vec<usize> = (0..span.min(t.num_hosts()))
                                .map(|i| (host % t.num_hosts() + i) % t.num_hosts())
                                .collect();
                            hosts.sort_unstable();
                            let entries: Vec<(HostId, usize)> = hosts
                                .into_iter()
                                .map(|h| {
                                    let h = HostId(h as u32);
                                    (h, k.min(p.slot_map().free_host(h)))
                                })
                                .collect();
                            p.alloc_slots(&entries);
                        }
                        Step::Release { host, k } => {
                            let h = HostId((host % t.num_hosts()) as u32);
                            let k = k.min(spp - p.slot_map().free_host(h));
                            p.release_slots(&[(h, k)]);
                        }
                        Step::Fail { link } => {
                            p.fail_link(LinkId((link % t.num_links()) as u32));
                        }
                        Step::Restore { i } => {
                            if let Some(&l) =
                                p.failed_links().get(i % p.failed_links().len().max(1))
                            {
                                p.restore_link(l);
                            }
                        }
                    }
                    let at = |e: String| format!("after step {i} ({step:?}): {e}");
                    bitsets_match_counts(&t, p.slot_map(), "slot map").map_err(at)?;
                    bitsets_match_counts(&t, p.search_slots(), "search view").map_err(at)?;
                    let (n, max_level, min_hosts, accept) = *probe;
                    let run = |pruned: bool| {
                        let mut calls: Calls = Vec::new();
                        let mut check = |cand: &[(HostId, usize)], lvl: Level| {
                            calls.push((cand.to_vec(), lvl));
                            accept >> ((calls.len() - 1) % 64) & 1 == 1
                        };
                        let s = p.search_slots();
                        let found = if pruned {
                            greedy(&t, s, n, max_level, min_hosts, &mut check)
                        } else {
                            greedy_place_spread_reference(
                                &t, s, n, max_level, min_hosts, &mut check,
                            )
                        };
                        (found, calls)
                    };
                    if run(true) != run(false) {
                        return Err(at(format!(
                            "search for {probe:?} differs from the reference: {:?} vs {:?}",
                            run(true),
                            run(false)
                        )));
                    }
                }
                Ok(())
            },
        );
    }
}
