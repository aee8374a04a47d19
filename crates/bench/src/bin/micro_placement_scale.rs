//! §5 placement microbenchmark: "in a simulated datacenter with 100K
//! hosts with an average tenant requesting 49 VMs ... over 100K requests,
//! the maximum placement time is 1.15 s."
//!
//! Default scale is reduced (`--scale 1` for the paper's full 100 K hosts
//! and `--runs` controls the request count in thousands).

use silo_base::{exponential, seeded_rng, Bytes, Dur, Rate};
use silo_bench::Args;
use silo_placement::{Guarantee, Placer, SiloPlacer, TenantRequest};
use silo_topology::{Topology, TreeParams};
use std::time::Instant;

fn main() {
    let args = Args::parse_unobserved();
    // Full scale: 100K hosts = 25 pods x 100 racks x 40 servers.
    let pods = ((25.0 * args.scale).round() as usize).max(2);
    let topo = Topology::build(TreeParams {
        pods,
        racks_per_pod: 100,
        servers_per_rack: 40,
        vm_slots_per_server: 8,
        host_link: Rate::from_gbps(10),
        tor_oversub: 5.0,
        agg_oversub: 5.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    });
    let hosts = topo.num_hosts();
    let requests = (args.runs * 1000).max(1000);
    println!("== Placement manager scalability ==");
    println!(
        "hosts: {hosts}, vm slots: {}, requests: {requests}",
        topo.params().num_vm_slots()
    );

    let mut placer = SiloPlacer::new(topo);
    let mut rng = seeded_rng(args.seed);
    let mut placed = Vec::new();
    let mut max_t = 0.0f64;
    let mut sum_t = 0.0f64;
    let mut accepted = 0usize;
    for i in 0..requests {
        let n = (exponential(&mut rng, 1.0 / 49.0).round() as usize).clamp(2, 200);
        let class_a = i % 2 == 0;
        let g = if class_a {
            Guarantee::class_a()
        } else {
            Guarantee::class_b()
        };
        let req = TenantRequest::new(n, g);
        let t0 = Instant::now();
        let r = placer.try_place(&req);
        let dt = t0.elapsed().as_secs_f64();
        max_t = max_t.max(dt);
        sum_t += dt;
        if let Ok(p) = r {
            accepted += 1;
            placed.push(p.tenant);
        }
        // Churn: keep occupancy near 80% by retiring old tenants.
        while placer.used_slots() as f64 > 0.8 * placer.topology().params().num_vm_slots() as f64 {
            let t = placed.remove(0);
            placer.remove(t);
        }
    }
    println!(
        "accepted: {accepted}/{requests} ({:.1}%)",
        accepted as f64 / requests as f64 * 100.0
    );
    println!(
        "mean placement time: {:.3} ms",
        sum_t / requests as f64 * 1e3
    );
    println!(
        "max placement time:  {:.3} ms  (paper: max 1.15 s at 100 K hosts)",
        max_t * 1e3
    );
}
