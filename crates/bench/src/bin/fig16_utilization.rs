//! Figure 16: average network utilization (a) vs datacenter occupancy
//! with Permutation-1 class-B traffic and (b) vs the Permutation-x
//! pattern at 90% occupancy (flow-level, §6.3).

use silo_bench::scenario::flow_topo;
use silo_bench::Args;
use silo_flowsim::{Allocator, ClassMix, FlowSim, FlowSimConfig};
use silo_placement::{LocalityPlacer, OktopusPlacer, SiloPlacer};
use silo_topology::Topology;

fn run(topo: &Topology, scheme: &str, occ: f64, x: Option<f64>, seed: u64) -> f64 {
    let mix = ClassMix {
        class_b_x: x,
        ..ClassMix::default()
    };
    let cfg = FlowSimConfig {
        occupancy: occ,
        mix,
        seed,
        ..FlowSimConfig::default()
    };
    let r = match scheme {
        "Locality" => {
            FlowSim::new(LocalityPlacer::new(topo.clone()), Allocator::FairShare, cfg).run()
        }
        "Oktopus" => {
            FlowSim::new(OktopusPlacer::new(topo.clone()), Allocator::Guaranteed, cfg).run()
        }
        _ => FlowSim::new(SiloPlacer::new(topo.clone()), Allocator::Guaranteed, cfg).run(),
    };
    r.utilization
}

fn main() {
    let args = Args::parse();
    let topo = flow_topo(args.scale);
    println!(
        "== Fig 16a: network utilization vs occupancy (Permutation-1), {} servers ==",
        topo.num_hosts()
    );
    println!("occupancy\tSilo\tOktopus\tLocality");
    // Both panels share one cell grid: (occupancy, permutation-x, scheme).
    // Each cell is self-contained, so the runner can fan them across
    // threads; results come back in grid order for printing.
    const SCHEMES: [&str; 3] = ["Silo", "Oktopus", "Locality"];
    let occs_a = [0.2, 0.4, 0.6, 0.75, 0.9];
    let xs_b = [Some(0.5), Some(0.75), Some(1.0), Some(2.0), None];
    let mut cells: Vec<(f64, Option<f64>, &str)> = Vec::new();
    for occ in occs_a {
        for scheme in SCHEMES {
            cells.push((occ, Some(1.0), scheme));
        }
    }
    for x in xs_b {
        for scheme in SCHEMES {
            cells.push((0.9, x, scheme));
        }
    }
    let utils = silo_bench::run_cells(
        &cells,
        args.effective_threads(cells.len()),
        |_, &(occ, x, scheme)| run(&topo, scheme, occ, x, args.seed),
    );
    let mut rows = cells.chunks(3).zip(utils.chunks(3));
    for (occ, (_, u)) in occs_a.iter().zip(rows.by_ref()) {
        println!("{:.0}%\t{:.3}\t{:.3}\t{:.3}", occ * 100.0, u[0], u[1], u[2]);
    }

    println!("\n== Fig 16b: utilization vs Permutation-x at 90% occupancy ==");
    println!("x\tSilo\tOktopus\tLocality");
    for (x, (_, u)) in xs_b.iter().zip(rows) {
        let label = match x {
            Some(v) => format!("{v}"),
            None => "N(all-to-all)".to_string(),
        };
        println!("{label}\t{:.3}\t{:.3}\t{:.3}", u[0], u[1], u[2]);
    }
    println!("\npaper shape: at 75%+ Silo's utilization beats Locality by ~6% but");
    println!("trails Oktopus by 9-11%; denser traffic (larger x) favors Silo.");
}
