//! Flow rate allocation: guaranteed hose shares vs. max-min fair sharing.

use silo_topology::{PortId, Topology};

/// How flows get bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocator {
    /// Hose-model guarantees: each flow gets its
    /// [`silo_pacer::hose_share`]; no inter-tenant sharing (Silo/Oktopus).
    Guaranteed,
    /// Ideal-TCP max-min fairness over link capacities (Locality).
    FairShare,
}

/// Progressive-filling max-min fairness over the flows' `paths`:
/// repeatedly find the most constrained link, freeze its flows at the
/// fair share, remove the capacity, repeat. Returns per-flow rates in
/// bits/sec; a flow with an empty path (same host) is unconstrained and
/// gets `f64::INFINITY`.
///
/// Only link capacities bind: ideal TCP has no hoses (the paper's
/// Locality baseline shares "bandwidth fairly between all flows").
pub fn waterfill(topo: &Topology, paths: &[&[PortId]]) -> Vec<f64> {
    // Per-port state, indexed by port id: the flows crossing the port in
    // flow order, its unfrozen flow count and its residual capacity.
    let mut on_port: Vec<Vec<usize>> = vec![Vec::new(); topo.num_ports()];
    for (fi, path) in paths.iter().enumerate() {
        for p in path.iter() {
            on_port[p.0 as usize].push(fi);
        }
    }
    let mut remaining: Vec<usize> = on_port.iter().map(Vec::len).collect();
    let mut residual: Vec<f64> = (0..on_port.len())
        .map(|p| topo.port(PortId(p as u32)).rate.as_bps() as f64)
        .collect();
    let mut active: Vec<usize> = (0..on_port.len()).filter(|&p| remaining[p] > 0).collect();
    let mut rate = vec![f64::INFINITY; paths.len()];
    let mut frozen = vec![false; paths.len()];
    while !active.is_empty() {
        // Most constrained link: min residual / remaining flows; ties
        // break toward the lowest port id for determinism.
        let mut best = (active[0], f64::INFINITY);
        for &l in &active {
            let share = residual[l] / remaining[l] as f64;
            if share < best.1 {
                best = (l, share);
            }
        }
        let (bl, share) = best;
        // Freeze every unfrozen flow on that link.
        for &fi in &on_port[bl] {
            if frozen[fi] {
                continue;
            }
            frozen[fi] = true;
            rate[fi] = share;
            for p in paths[fi].iter() {
                let p = p.0 as usize;
                residual[p] = (residual[p] - share).max(0.0);
                remaining[p] -= 1;
            }
        }
        active.retain(|&l| remaining[l] > 0);
    }
    debug_assert!(
        paths.iter().zip(&frozen).all(|(p, &f)| f || p.is_empty()),
        "a flow with a path escaped the waterfill"
    );
    rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_base::prop::{forall, shrink_vec, Rng};
    use silo_base::{Bytes, Dur, Rate};
    use silo_topology::{HostId, TreeParams};

    fn topo() -> Topology {
        Topology::build(TreeParams {
            pods: 1,
            racks_per_pod: 2,
            servers_per_rack: 2,
            vm_slots_per_server: 4,
            host_link: Rate::from_gbps(10),
            tor_oversub: 2.0,
            agg_oversub: 1.0,
            switch_buffer: Bytes::from_kb(312),
            nic_buffer: Bytes::from_kb(64),
            prop_delay: Dur::from_ns(500),
        })
    }

    fn rates(t: &Topology, pairs: &[(u32, u32)]) -> Vec<f64> {
        let paths: Vec<Vec<PortId>> = pairs
            .iter()
            .map(|&(s, d)| t.path_ports(HostId(s), HostId(d)))
            .collect();
        let refs: Vec<&[PortId]> = paths.iter().map(Vec::as_slice).collect();
        waterfill(t, &refs)
    }

    #[test]
    fn single_flow_gets_bottleneck_capacity() {
        let t = topo();
        // Cross-rack: bottleneck is the 10 G ToR uplink (2 servers x 10 /
        // oversub 2 = 10 G).
        let r = rates(&t, &[(0, 2)]);
        assert!((r[0] - 1e10).abs() < 1.0, "{}", r[0]);
    }

    #[test]
    fn two_flows_share_bottleneck_equally() {
        let t = topo();
        let r = rates(&t, &[(0, 2), (1, 3)]);
        // Both cross the 10 G rack-0 uplink: 5 G each.
        assert!((r[0] - 5e9).abs() < 1.0);
        assert!((r[1] - 5e9).abs() < 1.0);
    }

    #[test]
    fn max_min_gives_leftover_to_unconstrained_flow() {
        let t = topo();
        // f0 and f1 share host 0's NIC; f2 runs alone from host 1.
        let r = rates(&t, &[(0, 1), (0, 2), (1, 3)]);
        assert!((r[0] - 5e9).abs() < 1e6, "{:?}", r);
        assert!((r[1] - 5e9).abs() < 1e6);
        // f2: rack uplink shared with f1: f1 already frozen at 5 G,
        // leaving 5 G... both f1 and f2 cross the rack-0 uplink (10 G):
        // fair share 5 G each; f2's own NIC has 10 G. So f2 = 5 G.
        assert!((r[2] - 5e9).abs() < 1e6);
    }

    #[test]
    fn same_host_flows_are_unconstrained() {
        let r = waterfill(&topo(), &[&[]]);
        assert!(r[0].is_infinite());
    }

    /// Max-min fairness, checked from its definition on random flow sets
    /// (same-host pairs included) over small trees: no link carries more
    /// than its capacity, and every flow with a path crosses a saturated
    /// link on which no flow is faster than it.
    #[test]
    fn waterfill_is_feasible_and_max_min() {
        forall(
            "waterfill is a max-min fair allocation",
            |rng| {
                let tree = (
                    rng.random_range(1..3usize),
                    rng.random_range(1..4usize),
                    rng.random_range(1..4usize),
                );
                let hosts = (tree.0 * tree.1 * tree.2) as u32;
                let flows = rng.random_range(1..13usize);
                let pairs: Vec<(u32, u32)> = (0..flows)
                    .map(|_| (rng.random_range(0..hosts), rng.random_range(0..hosts)))
                    .collect();
                (tree, pairs)
            },
            |(tree, pairs)| {
                shrink_vec(pairs, |_| Vec::new())
                    .into_iter()
                    .map(|p| (*tree, p))
                    .collect()
            },
            |&((pods, racks_per_pod, servers_per_rack), ref pairs)| {
                let t = Topology::build(TreeParams {
                    pods,
                    racks_per_pod,
                    servers_per_rack,
                    ..*topo().params()
                });
                let paths: Vec<Vec<PortId>> = pairs
                    .iter()
                    .map(|&(s, d)| t.path_ports(HostId(s), HostId(d)))
                    .collect();
                let refs: Vec<&[PortId]> = paths.iter().map(Vec::as_slice).collect();
                let r = waterfill(&t, &refs);
                let mut load = vec![0.0; t.num_ports()];
                for (path, &fr) in paths.iter().zip(&r) {
                    if path.is_empty() {
                        if fr.is_finite() {
                            return Err(format!("same-host flow capped at {fr}"));
                        }
                        continue;
                    }
                    for p in path {
                        load[p.0 as usize] += fr;
                    }
                }
                let cap = |p: PortId| t.port(p).rate.as_bps() as f64;
                for (p, &l) in load.iter().enumerate() {
                    let c = cap(PortId(p as u32));
                    if l > c * (1.0 + 1e-9) {
                        return Err(format!("port {p} carries {l} > capacity {c}"));
                    }
                }
                for (fi, path) in paths.iter().enumerate() {
                    let bottleneck = path.iter().any(|&p| {
                        load[p.0 as usize] >= cap(p) * (1.0 - 1e-9)
                            && paths
                                .iter()
                                .zip(&r)
                                .filter(|(q, _)| q.contains(&p))
                                .all(|(_, &q)| q <= r[fi] * (1.0 + 1e-9))
                    });
                    if !path.is_empty() && !bottleneck {
                        return Err(format!("flow {fi} at {} has no bottleneck: {r:?}", r[fi]));
                    }
                }
                Ok(())
            },
        );
    }
}
