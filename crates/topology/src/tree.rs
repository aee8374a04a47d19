//! The hierarchical tree structure and its queries.

use silo_base::{Bytes, Dur, Rate};

/// A host (server) index, `0 .. Topology::num_hosts()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// A node in the tree (host, ToR, aggregation, or core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// An undirected link (child node ↔ its parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// A *directed* link endpoint with an egress queue.
///
/// `PortId(2·link)` is the **up** direction (child → parent; the queue
/// lives at the child: a host NIC or a switch uplink port) and
/// `PortId(2·link + 1)` is the **down** direction (parent → child; a
/// switch egress port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u32);

impl PortId {
    pub fn up(link: LinkId) -> PortId {
        PortId(link.0 * 2)
    }
    pub fn down(link: LinkId) -> PortId {
        PortId(link.0 * 2 + 1)
    }
    pub fn link(self) -> LinkId {
        LinkId(self.0 / 2)
    }
    pub fn is_up(self) -> bool {
        self.0.is_multiple_of(2)
    }
}

/// How close two hosts are in the hierarchy — the "height" Silo's greedy
/// placement minimizes (§4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    SameHost,
    SameRack,
    SamePod,
    CrossPod,
}

/// Parameters of a three-tier tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    pub pods: usize,
    pub racks_per_pod: usize,
    pub servers_per_rack: usize,
    pub vm_slots_per_server: usize,
    /// Host NIC / access link rate (10 Gbps in the paper).
    pub host_link: Rate,
    /// Oversubscription at the ToR uplink: logical uplink capacity is
    /// `servers_per_rack · host_link / tor_oversub`.
    pub tor_oversub: f64,
    /// Oversubscription at the aggregation uplink.
    pub agg_oversub: f64,
    /// Packet buffer per switch egress port (312 KB in the paper's sims).
    pub switch_buffer: Bytes,
    /// Effective queue budget of the sending host NIC. With Silo's paced
    /// IO batching this is one batch window of data (§5: 50 µs batches).
    pub nic_buffer: Bytes,
    /// Per-hop propagation delay (sub-µs in datacenters).
    pub prop_delay: Dur,
}

impl TreeParams {
    /// The paper's ns2 setup (§6.2): 10 racks × 40 servers × 8 VM slots,
    /// 10 GbE, 1:5 oversubscription, 312 KB shallow-buffered ports.
    pub fn ns2_paper() -> TreeParams {
        TreeParams {
            pods: 2,
            racks_per_pod: 5,
            servers_per_rack: 40,
            vm_slots_per_server: 8,
            host_link: Rate::from_gbps(10),
            tor_oversub: 5.0,
            agg_oversub: 5.0,
            switch_buffer: Bytes::from_kb(312),
            nic_buffer: Bytes::from_kb(64),
            prop_delay: Dur::from_ns(500),
        }
    }

    /// A smaller tree with the same *shape*, scaled by `f ∈ (0, 1]`: the
    /// rack/pod structure (and therefore path lengths and queue
    /// capacities) is preserved; only the servers per rack shrink, which
    /// keeps packet-level runs fast while preserving oversubscription
    /// ratios and the multi-tier contention pattern.
    pub fn ns2_scaled(f: f64) -> TreeParams {
        let mut p = TreeParams::ns2_paper();
        p.servers_per_rack = ((p.servers_per_rack as f64 * f).round() as usize).max(2);
        p
    }

    /// The §6.1 testbed: five servers under one 10 GbE switch, six VM
    /// slots each. Modeled as one rack; the "pod/core" layers are unused.
    pub fn testbed() -> TreeParams {
        TreeParams {
            pods: 1,
            racks_per_pod: 1,
            servers_per_rack: 5,
            vm_slots_per_server: 6,
            host_link: Rate::from_gbps(10),
            tor_oversub: 1.0,
            agg_oversub: 1.0,
            switch_buffer: Bytes::from_kb(312),
            nic_buffer: Bytes::from_kb(64),
            prop_delay: Dur::from_ns(500),
        }
    }

    pub fn num_hosts(&self) -> usize {
        self.pods * self.racks_per_pod * self.servers_per_rack
    }

    pub fn num_vm_slots(&self) -> usize {
        self.num_hosts() * self.vm_slots_per_server
    }
}

/// An immutable, queryable three-tier tree. Node/link/port identifiers are
/// dense, so per-port state elsewhere is a plain `Vec` indexed by
/// `PortId.0`.
#[derive(Debug, Clone)]
pub struct Topology {
    params: TreeParams,
    hosts: usize,
    racks: usize,
    pods: usize,
    tor_uplink: Rate,
    agg_uplink: Rate,
}

impl Topology {
    pub fn build(params: TreeParams) -> Topology {
        assert!(params.pods >= 1 && params.racks_per_pod >= 1 && params.servers_per_rack >= 1);
        assert!(params.vm_slots_per_server >= 1);
        assert!(params.tor_oversub >= 1.0 && params.agg_oversub >= 1.0);
        let racks = params.pods * params.racks_per_pod;
        let tor_uplink = params
            .host_link
            .mul_f64(params.servers_per_rack as f64 / params.tor_oversub);
        let agg_uplink = tor_uplink.mul_f64(params.racks_per_pod as f64 / params.agg_oversub);
        Topology {
            hosts: params.num_hosts(),
            racks,
            pods: params.pods,
            tor_uplink,
            agg_uplink,
            params,
        }
    }

    pub fn params(&self) -> &TreeParams {
        &self.params
    }
    pub fn num_hosts(&self) -> usize {
        self.hosts
    }
    pub fn num_racks(&self) -> usize {
        self.racks
    }
    pub fn num_pods(&self) -> usize {
        self.pods
    }
    pub fn num_links(&self) -> usize {
        // one per host, one per rack, one per pod
        self.hosts + self.racks + self.pods
    }
    pub fn num_ports(&self) -> usize {
        self.num_links() * 2
    }
    pub fn slots_per_server(&self) -> usize {
        self.params.vm_slots_per_server
    }

    pub fn rack_of(&self, h: HostId) -> usize {
        h.0 as usize / self.params.servers_per_rack
    }
    pub fn pod_of(&self, h: HostId) -> usize {
        self.rack_of(h) / self.params.racks_per_pod
    }
    pub fn hosts_in_rack(&self, rack: usize) -> impl Iterator<Item = HostId> + '_ {
        let s = self.params.servers_per_rack;
        (rack * s..(rack + 1) * s).map(|i| HostId(i as u32))
    }
    pub fn racks_in_pod(&self, pod: usize) -> std::ops::Range<usize> {
        let r = self.params.racks_per_pod;
        pod * r..(pod + 1) * r
    }

    /// The access link of a host.
    pub fn host_link(&self, h: HostId) -> LinkId {
        LinkId(h.0)
    }
    /// The uplink of a rack's ToR.
    pub fn tor_link(&self, rack: usize) -> LinkId {
        LinkId((self.hosts + rack) as u32)
    }
    /// The uplink of a pod's aggregation layer.
    pub fn agg_link(&self, pod: usize) -> LinkId {
        LinkId((self.hosts + self.racks + pod) as u32)
    }

    /// Line rate of a link.
    pub fn link_rate(&self, l: LinkId) -> Rate {
        let i = l.0 as usize;
        if i < self.hosts {
            self.params.host_link
        } else if i < self.hosts + self.racks {
            self.tor_uplink
        } else {
            self.agg_uplink
        }
    }

    /// Static properties of a directed port.
    ///
    /// A *logical* uplink of rate `k × host_link` stands in for `k`
    /// physical ports (ECMP-spread), so it gets `k ×` the per-port buffer —
    /// this keeps the per-tier queue capacity equal to the physical
    /// network's (the paper's ~250 µs for 312 KB at 10 G).
    pub fn port(&self, p: PortId) -> PortInfo {
        let link = p.link();
        let rate = self.link_rate(link);
        let is_host_link = (link.0 as usize) < self.hosts;
        // The up direction of a host link is the host's NIC; every other
        // port is a switch egress port.
        let buffer = if is_host_link && p.is_up() {
            self.params.nic_buffer
        } else {
            let phys_ports =
                (rate.as_bps() as f64 / self.params.host_link.as_bps() as f64).round() as u64;
            Bytes(self.params.switch_buffer.as_u64() * phys_ports.max(1))
        };
        PortInfo {
            rate,
            buffer,
            is_nic: is_host_link && p.is_up(),
        }
    }

    /// Total rate at which traffic can physically *arrive* at the switch
    /// that owns port `p`, excluding `p`'s own link. Bursts crossing `p`
    /// can never exceed this rate, which tightens the placement's backlog
    /// bounds (cf. Fig. 5's "800 KB at 20 Gbps").
    ///
    /// For a host NIC the notion is not meaningful (traffic comes from the
    /// local vswitch); we return the NIC line rate.
    pub fn ingress_capacity(&self, p: PortId) -> Rate {
        let link = p.link();
        let i = link.0 as usize;
        let srv = self.params.servers_per_rack as u64;
        let rk = self.params.racks_per_pod as u64;
        if i < self.hosts {
            if p.is_up() {
                // The host NIC itself.
                self.params.host_link
            } else {
                // ToR egress toward a host: uplink + the rack's other hosts.
                self.tor_uplink + self.params.host_link * (srv - 1)
            }
        } else if i < self.hosts + self.racks {
            if p.is_up() {
                // ToR uplink egress: fed by the rack's hosts.
                self.params.host_link * srv
            } else {
                // Agg egress toward a ToR: core uplink + other racks.
                self.agg_uplink + self.tor_uplink * (rk - 1)
            }
        } else if p.is_up() {
            // Agg uplink egress: fed by the pod's ToRs.
            self.tor_uplink * rk
        } else {
            // Core egress toward a pod: the other pods' uplinks.
            self.agg_uplink * (self.pods as u64 - 1).max(1)
        }
    }

    /// Hierarchy level shared by two hosts.
    pub fn level(&self, a: HostId, b: HostId) -> Level {
        if a == b {
            Level::SameHost
        } else if self.rack_of(a) == self.rack_of(b) {
            Level::SameRack
        } else if self.pod_of(a) == self.pod_of(b) {
            Level::SamePod
        } else {
            Level::CrossPod
        }
    }

    /// The ordered list of egress queues a packet traverses from `src`'s
    /// NIC to `dst`'s NIC (paper Fig. 3's "network delay" scope).
    ///
    /// Same host → empty (the vswitch delivers locally). Otherwise the
    /// first port is always the sender's NIC.
    pub fn path_ports(&self, src: HostId, dst: HostId) -> Vec<PortId> {
        let mut ports = Vec::with_capacity(6);
        match self.level(src, dst) {
            Level::SameHost => {}
            Level::SameRack => {
                ports.push(PortId::up(self.host_link(src)));
                ports.push(PortId::down(self.host_link(dst)));
            }
            Level::SamePod => {
                ports.push(PortId::up(self.host_link(src)));
                ports.push(PortId::up(self.tor_link(self.rack_of(src))));
                ports.push(PortId::down(self.tor_link(self.rack_of(dst))));
                ports.push(PortId::down(self.host_link(dst)));
            }
            Level::CrossPod => {
                ports.push(PortId::up(self.host_link(src)));
                ports.push(PortId::up(self.tor_link(self.rack_of(src))));
                ports.push(PortId::up(self.agg_link(self.pod_of(src))));
                ports.push(PortId::down(self.agg_link(self.pod_of(dst))));
                ports.push(PortId::down(self.tor_link(self.rack_of(dst))));
                ports.push(PortId::down(self.host_link(dst)));
            }
        }
        ports
    }

    /// Is `h` in the subtree below link `l` — the host itself for an access
    /// link, its rack for a ToR uplink, its pod for an aggregation uplink?
    /// A path crosses `l` exactly when one endpoint is below it and the
    /// other is not.
    fn below(&self, l: LinkId, h: HostId) -> bool {
        let i = l.0 as usize;
        if i < self.hosts {
            h.0 as usize == i
        } else if i < self.hosts + self.racks {
            self.rack_of(h) == i - self.hosts
        } else {
            self.pod_of(h) == i - self.hosts - self.racks
        }
    }

    /// Can every pair of the placement's hosts reach each other without
    /// crossing a link in `failed`? A path crosses a link exactly when the
    /// link separates its endpoints, so the placement is connected when,
    /// for each failed link, the hosts below it are none or all of the
    /// placement. O(hosts · failed), no allocation.
    pub fn connected(&self, placement: &[(HostId, usize)], failed: &[LinkId]) -> bool {
        failed.iter().all(|&l| {
            let inside = placement.iter().filter(|&&(h, _)| self.below(l, h)).count();
            inside == 0 || inside == placement.len()
        })
    }

    /// How a placement splits across every port between its hosts: one
    /// [`Cut`] per port on any path between two of them, in ascending
    /// `PortId` order.
    ///
    /// `placement` must list its hosts in non-decreasing order (every
    /// candidate the placers build does). The ports are read off the tree:
    /// two or more distinct hosts use both directions of each one's access
    /// link; if they sit in more than one rack, both directions of each of
    /// those racks' ToR uplinks; if in more than one pod, both directions
    /// of each of those pods' aggregation uplinks. Link ids grow host <
    /// ToR < agg and with the host id inside a tier, so sweeping the
    /// placement once per tier, one run of equal host, rack or pod per
    /// link, emits them in order and counts each link's side of the
    /// placement on the way: O(placement), no sort, no allocation.
    pub fn cuts<'a>(&'a self, placement: &'a [(HostId, usize)]) -> Cuts<'a> {
        assert!(
            placement.windows(2).all(|w| w[0].0 <= w[1].0),
            "placement hosts must be in non-decreasing order"
        );
        let mut cuts = Cuts {
            topo: self,
            placement,
            vms: placement.iter().map(|&(_, k)| k).sum(),
            tier: None,
            at: 0,
            down: None,
        };
        cuts.tier = cuts.spanning(LinkTier::Host);
        cuts
    }

    /// The key that groups a tier's hosts by link: the host, its rack or
    /// its pod.
    fn tier_key(&self, tier: LinkTier, h: HostId) -> usize {
        match tier {
            LinkTier::Host => h.0 as usize,
            LinkTier::Tor => self.rack_of(h),
            LinkTier::Agg => self.pod_of(h),
        }
    }

    /// The link of a tier's key ([`Topology::tier_key`]).
    fn tier_link(&self, tier: LinkTier, key: usize) -> LinkId {
        match tier {
            LinkTier::Host => self.host_link(HostId(key as u32)),
            LinkTier::Tor => self.tor_link(key),
            LinkTier::Agg => self.agg_link(key),
        }
    }
}

/// The tier of a link: a host's access link, a rack's ToR uplink, or a
/// pod's aggregation uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkTier {
    Host,
    Tor,
    Agg,
}

/// How a placement splits across one directed port between its hosts
/// ([`Topology::cuts`]).
///
/// For an up port of the link above node X, the sending side (the side
/// whose traffic crosses the port) is the subtree under X; for a down
/// port it is everything outside that subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    pub port: PortId,
    /// The tier of the port's link.
    pub tier: LinkTier,
    /// VMs on the sending side.
    pub m: usize,
    /// Placement entries (hosts) on the sending side: their access links
    /// physically cap the rate at which the cut's burst can arrive.
    pub sending_hosts: usize,
}

/// The iterator [`Topology::cuts`] returns.
#[derive(Debug, Clone)]
pub struct Cuts<'a> {
    topo: &'a Topology,
    placement: &'a [(HostId, usize)],
    /// VMs in the whole placement.
    vms: usize,
    /// The tier being swept; `None` once every spanned tier is done.
    tier: Option<LinkTier>,
    /// The next placement entry of the sweep.
    at: usize,
    /// The down port of the link whose up port was yielded last.
    down: Option<Cut>,
}

impl Cuts<'_> {
    /// `tier` if the placement spans more than one of its subtrees, else
    /// `None`. Hosts ascend, so it does exactly when its first and last
    /// host fall in different ones; a tier that is not spanned leaves the
    /// tiers above it unspanned too.
    fn spanning(&self, tier: LinkTier) -> Option<LinkTier> {
        let (&(a, _), &(b, _)) = (self.placement.first()?, self.placement.last()?);
        (self.topo.tier_key(tier, a) != self.topo.tier_key(tier, b)).then_some(tier)
    }
}

impl Iterator for Cuts<'_> {
    type Item = Cut;

    fn next(&mut self) -> Option<Cut> {
        if let Some(down) = self.down.take() {
            return Some(down);
        }
        let mut tier = self.tier?;
        if self.at == self.placement.len() {
            self.at = 0;
            self.tier = match tier {
                LinkTier::Host => self.spanning(LinkTier::Tor),
                LinkTier::Tor => self.spanning(LinkTier::Agg),
                LinkTier::Agg => None,
            };
            tier = self.tier?;
        }
        // One run of entries under the same link.
        let key = self.topo.tier_key(tier, self.placement[self.at].0);
        let start = self.at;
        let mut vms = 0;
        while let Some(&(h, k)) = self.placement.get(self.at) {
            if self.topo.tier_key(tier, h) != key {
                break;
            }
            vms += k;
            self.at += 1;
        }
        let hosts = self.at - start;
        let link = self.topo.tier_link(tier, key);
        self.down = Some(Cut {
            port: PortId::down(link),
            tier,
            m: self.vms - vms,
            sending_hosts: self.placement.len() - hosts,
        });
        Some(Cut {
            port: PortId::up(link),
            tier,
            m: vms,
            sending_hosts: hosts,
        })
    }
}

/// Static properties of one directed port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortInfo {
    pub rate: Rate,
    pub buffer: Bytes,
    /// True for a host NIC's up port (paced by the hypervisor, not a
    /// switch queue).
    pub is_nic: bool,
}

impl PortInfo {
    /// Queue capacity: the maximum queueing delay before drops (§4.2.1).
    pub fn queue_capacity(&self) -> Dur {
        self.rate.tx_time(self.buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_base::prop;

    fn t() -> Topology {
        Topology::build(TreeParams::ns2_paper())
    }

    #[test]
    fn ns2_paper_shape() {
        let t = t();
        assert_eq!(t.num_hosts(), 400);
        assert_eq!(t.num_racks(), 10);
        assert_eq!(t.num_pods(), 2);
        assert_eq!(t.params().num_vm_slots(), 3200);
        assert_eq!(t.num_links(), 400 + 10 + 2);
    }

    #[test]
    fn oversubscription_sets_uplink_rates() {
        let t = t();
        // 40 servers × 10 G / 5 = 80 G logical ToR uplink.
        assert_eq!(t.link_rate(t.tor_link(0)), Rate::from_gbps(80));
        // 5 racks × 80 G / 5 = 80 G logical agg uplink.
        assert_eq!(t.link_rate(t.agg_link(0)), Rate::from_gbps(80));
        assert_eq!(t.link_rate(t.host_link(HostId(7))), Rate::from_gbps(10));
    }

    #[test]
    fn rack_and_pod_indexing() {
        let t = t();
        assert_eq!(t.rack_of(HostId(0)), 0);
        assert_eq!(t.rack_of(HostId(39)), 0);
        assert_eq!(t.rack_of(HostId(40)), 1);
        assert_eq!(t.pod_of(HostId(199)), 0);
        assert_eq!(t.pod_of(HostId(200)), 1);
        assert_eq!(t.hosts_in_rack(1).count(), 40);
        assert_eq!(t.racks_in_pod(1), 5..10);
    }

    #[test]
    fn path_same_host_is_empty() {
        assert!(t().path_ports(HostId(3), HostId(3)).is_empty());
    }

    #[test]
    fn path_same_rack() {
        let t = t();
        let p = t.path_ports(HostId(0), HostId(1));
        assert_eq!(p.len(), 2);
        assert!(t.port(p[0]).is_nic);
        assert!(!t.port(p[1]).is_nic);
        assert!(p[0].is_up() && !p[1].is_up());
    }

    #[test]
    fn path_same_pod_and_cross_pod_lengths() {
        let t = t();
        assert_eq!(t.path_ports(HostId(0), HostId(40)).len(), 4);
        assert_eq!(t.path_ports(HostId(0), HostId(200)).len(), 6);
    }

    #[test]
    fn path_is_reverse_symmetric_in_length() {
        let t = t();
        for (a, b) in [(0u32, 1u32), (0, 40), (0, 200)] {
            assert_eq!(
                t.path_ports(HostId(a), HostId(b)).len(),
                t.path_ports(HostId(b), HostId(a)).len()
            );
        }
    }

    #[test]
    fn queue_capacity_follows_port_kind() {
        let t = t();
        // ToR down-port toward a host: 10 G, 312 KB -> 249.6 us.
        let down = PortId::down(t.host_link(HostId(0)));
        assert!((t.port(down).queue_capacity().as_us_f64() - 249.6).abs() < 0.01);
        // NIC: 64 KB at 10 G -> 51.2 us.
        let nic = PortId::up(t.host_link(HostId(0)));
        assert!((t.port(nic).queue_capacity().as_us_f64() - 51.2).abs() < 0.01);
        // ToR uplink: logical 80 G = 8 physical ports, 8 × 312 KB buffer,
        // so the queue capacity stays at the physical per-port 249.6 us.
        let tor_up = PortId::up(t.tor_link(0));
        assert!((t.port(tor_up).queue_capacity().as_us_f64() - 249.6).abs() < 0.01);
    }

    #[test]
    fn ingress_capacity_per_port_kind() {
        let t = t();
        // ToR uplink egress: 40 hosts × 10 G.
        assert_eq!(
            t.ingress_capacity(PortId::up(t.tor_link(0))),
            Rate::from_gbps(400)
        );
        // ToR egress toward a host: 80 G uplink + 39 × 10 G.
        assert_eq!(
            t.ingress_capacity(PortId::down(t.host_link(HostId(0)))),
            Rate::from_gbps(80 + 390)
        );
        // Core egress toward a pod: the other pod's 80 G uplink.
        assert_eq!(
            t.ingress_capacity(PortId::down(t.agg_link(0))),
            Rate::from_gbps(80)
        );
        // NIC.
        assert_eq!(
            t.ingress_capacity(PortId::up(t.host_link(HostId(0)))),
            Rate::from_gbps(10)
        );
    }

    /// The `(m, sending_hosts)` of port `p` among a placement's cuts.
    fn cut_at(t: &Topology, placement: &[(HostId, usize)], p: PortId) -> (usize, usize) {
        let c = t
            .cuts(placement)
            .find(|c| c.port == p)
            .expect("port is cut");
        (c.m, c.sending_hosts)
    }

    #[test]
    fn vms_on_sending_side_splits_correctly() {
        let t = t();
        // 3 VMs on host 0, 2 on host 1 (same rack), 4 on host 40 (rack 1).
        let placement = vec![
            (HostId(0), 3usize),
            (HostId(1), 2usize),
            (HostId(40), 4usize),
        ];
        // Host 0's NIC: 3 VMs on 1 host send up.
        assert_eq!(
            cut_at(&t, &placement, PortId::up(t.host_link(HostId(0)))),
            (3, 1)
        );
        // Down toward host 0: everyone else (6 VMs on 2 hosts).
        assert_eq!(
            cut_at(&t, &placement, PortId::down(t.host_link(HostId(0)))),
            (6, 2)
        );
        // Rack 0 uplink: 5 VMs inside rack 0.
        assert_eq!(cut_at(&t, &placement, PortId::up(t.tor_link(0))), (5, 2));
        // Down into rack 1: 5 VMs outside it.
        assert_eq!(cut_at(&t, &placement, PortId::down(t.tor_link(1))), (5, 2));
        // One pod: no aggregation port is cut.
        assert!(t.cuts(&placement).all(|c| c.tier != LinkTier::Agg));
    }

    #[test]
    fn cuts_deduplicate() {
        let t = t();
        let placement = [(HostId(0), 1), (HostId(1), 1), (HostId(2), 1)];
        // 3 NIC up-ports + 3 host down-ports, each counted once.
        assert_eq!(t.cuts(&placement).count(), 6);
    }

    // Reference oracles: the pairwise and per-port definitions the sweep in
    // `cuts` and the closed form in `connected` replaced, kept to check
    // them against.

    /// The ports on any path between two of `hosts`: the sorted,
    /// deduplicated union of both directions' `path_ports` over all pairs.
    fn ports_between_reference(t: &Topology, hosts: &[HostId]) -> Vec<PortId> {
        let mut ports: Vec<PortId> = Vec::new();
        for (i, &a) in hosts.iter().enumerate() {
            for &b in &hosts[i + 1..] {
                ports.extend(t.path_ports(a, b));
                ports.extend(t.path_ports(b, a));
            }
        }
        ports.sort_unstable();
        ports.dedup();
        ports
    }

    /// Does the `src → dst` path avoid every link in `failed`?
    fn path_intact_reference(t: &Topology, src: HostId, dst: HostId, failed: &[LinkId]) -> bool {
        t.path_ports(src, dst)
            .into_iter()
            .all(|p| !failed.contains(&p.link()))
    }

    /// How `placement` splits across port `p`, host by host: the VMs and
    /// the entries on the sending side.
    fn cut_reference(t: &Topology, p: PortId, placement: &[(HostId, usize)]) -> (usize, usize) {
        let (mut vms, mut hosts) = (0, 0);
        for &(h, k) in placement {
            if t.below(p.link(), h) == p.is_up() {
                vms += k;
                hosts += 1;
            }
        }
        (vms, hosts)
    }

    /// The tier of a link, from its id.
    fn tier_reference(t: &Topology, l: LinkId) -> LinkTier {
        let i = l.0 as usize;
        if i < t.num_hosts() {
            LinkTier::Host
        } else if i < t.num_hosts() + t.num_racks() {
            LinkTier::Tor
        } else {
            LinkTier::Agg
        }
    }

    /// Every pair of hosts has an intact path.
    fn connected_reference(t: &Topology, hosts: &[HostId], failed: &[LinkId]) -> bool {
        hosts.iter().enumerate().all(|(i, &a)| {
            hosts[i + 1..]
                .iter()
                .all(|&b| path_intact_reference(t, a, b, failed))
        })
    }

    /// A random small tree, a sorted host multiset on it (duplicates, one
    /// host, one rack, one pod, cross-pod) and a set of failed links.
    #[derive(Debug, Clone)]
    struct Case {
        pods: usize,
        racks_per_pod: usize,
        servers_per_rack: usize,
        hosts: Vec<u32>,
        failed: Vec<u32>,
    }

    impl Case {
        fn topo(&self) -> Topology {
            Topology::build(TreeParams {
                pods: self.pods,
                racks_per_pod: self.racks_per_pod,
                servers_per_rack: self.servers_per_rack,
                ..TreeParams::ns2_paper()
            })
        }

        /// Clamp ids into the (possibly shrunken) tree and restore order.
        fn fitted(mut self) -> Case {
            let t = self.topo();
            for h in &mut self.hosts {
                *h %= t.num_hosts() as u32;
            }
            self.hosts.sort_unstable();
            for l in &mut self.failed {
                *l %= t.num_links() as u32;
            }
            self
        }

        /// The hosts with one to three VMs each.
        fn placement(&self) -> Vec<(HostId, usize)> {
            self.hosts
                .iter()
                .enumerate()
                .map(|(i, &h)| (HostId(h), 1 + i % 3))
                .collect()
        }
    }

    fn gen_case(rng: &mut prop::StdRng) -> Case {
        use prop::Rng;
        let pods = rng.random_range(1..4usize);
        let racks_per_pod = rng.random_range(1..4usize);
        let servers_per_rack = rng.random_range(1..5usize);
        let hosts = pods * racks_per_pod * servers_per_rack;
        // Confine most host sets to one rack or one pod so every span
        // level is common, not just cross-pod.
        let window = match rng.random_range(0..3u32) {
            0 => servers_per_rack,
            1 => servers_per_rack * racks_per_pod,
            _ => hosts,
        };
        let base = rng.random_range(0..hosts / window) * window;
        let n = rng.random_range(0..7usize);
        let links = hosts + pods * racks_per_pod + pods;
        Case {
            pods,
            racks_per_pod,
            servers_per_rack,
            hosts: (0..n)
                .map(|_| (base + rng.random_range(0..window)) as u32)
                .collect(),
            failed: (0..rng.random_range(0..4usize))
                .map(|_| rng.random_range(0..links) as u32)
                .collect(),
        }
        .fitted()
    }

    fn shrink_case(c: &Case) -> Vec<Case> {
        let mut out = Vec::new();
        for (pods, racks_per_pod, servers_per_rack) in [
            (c.pods - 1, c.racks_per_pod, c.servers_per_rack),
            (c.pods, c.racks_per_pod - 1, c.servers_per_rack),
            (c.pods, c.racks_per_pod, c.servers_per_rack - 1),
        ] {
            if pods * racks_per_pod * servers_per_rack > 0 {
                out.push(
                    Case {
                        pods,
                        racks_per_pod,
                        servers_per_rack,
                        ..c.clone()
                    }
                    .fitted(),
                );
            }
        }
        let smaller = |x: &u32| if *x > 0 { vec![x / 2, x - 1] } else { vec![] };
        if !c.hosts.is_empty() {
            out.push(Case {
                hosts: Vec::new(),
                ..c.clone()
            });
        }
        for hosts in prop::shrink_vec(&c.hosts, smaller) {
            out.push(Case { hosts, ..c.clone() }.fitted());
        }
        if !c.failed.is_empty() {
            out.push(Case {
                failed: Vec::new(),
                ..c.clone()
            });
        }
        for failed in prop::shrink_vec(&c.failed, smaller) {
            out.push(Case {
                failed,
                ..c.clone()
            });
        }
        out
    }

    #[test]
    fn cuts_match_the_pairwise_union_and_the_per_port_counts() {
        prop::forall(
            "cuts == sorted pairwise path union, each split counted host by host",
            gen_case,
            shrink_case,
            |c| {
                let t = c.topo();
                let hosts: Vec<HostId> = c.hosts.iter().map(|&h| HostId(h)).collect();
                let placement = c.placement();
                let want = ports_between_reference(&t, &hosts);
                let cuts: Vec<Cut> = t.cuts(&placement).collect();
                let got: Vec<PortId> = cuts.iter().map(|c| c.port).collect();
                if got != want {
                    return Err(format!("swept ports {got:?} != pairwise {want:?}"));
                }
                for cut in cuts {
                    let want = cut_reference(&t, cut.port, &placement);
                    if (cut.m, cut.sending_hosts) != want {
                        return Err(format!("{cut:?}: per-port count gives {want:?}"));
                    }
                    if cut.tier != tier_reference(&t, cut.port.link()) {
                        return Err(format!("{cut:?}: wrong tier"));
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn connected_matches_pairwise_path_intact() {
        prop::forall(
            "per-link connectivity == pairwise path_intact",
            gen_case,
            shrink_case,
            |c| {
                let t = c.topo();
                let hosts: Vec<HostId> = c.hosts.iter().map(|&h| HostId(h)).collect();
                let failed: Vec<LinkId> = c.failed.iter().map(|&l| LinkId(l)).collect();
                let want = connected_reference(&t, &hosts, &failed);
                let got = t.connected(&c.placement(), &failed);
                if got == want {
                    Ok(())
                } else {
                    Err(format!("per-link {got} != pairwise {want}"))
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn cuts_refuse_unsorted_hosts() {
        let t = t();
        let _ = t.cuts(&[(HostId(3), 1), (HostId(1), 1)]);
    }

    #[test]
    fn testbed_shape() {
        let t = Topology::build(TreeParams::testbed());
        assert_eq!(t.num_hosts(), 5);
        assert_eq!(t.params().num_vm_slots(), 30);
        assert_eq!(t.path_ports(HostId(0), HostId(4)).len(), 2);
    }

    #[test]
    fn scaled_params_preserve_oversub() {
        let p = TreeParams::ns2_scaled(0.25);
        let t = Topology::build(p);
        // 10 servers/rack × 10 G / 5 = 20 G.
        assert_eq!(p.servers_per_rack, 10);
        assert_eq!(t.link_rate(t.tor_link(0)), Rate::from_gbps(20));
    }
}
