//! §6.3, the flow-level sweep for Locality, Oktopus and Silo: Figure 15
//! (fraction of tenant requests admitted at 75 % and 90 % target
//! occupancy) and Figure 16 (average network utilization (a) vs
//! datacenter occupancy with Permutation-1 class-B traffic and (b) vs the
//! Permutation-x pattern at 90 % occupancy).
//!
//! One grid of the 27 distinct (occupancy, permutation-x, scheme) cells,
//! each simulated once: Fig 15 reads the full reports of Fig 16a's 75 %
//! and 90 % rows, and Fig 16b's x = 1 row is Fig 16a's 90 % row.

use silo_bench::scenario::flow_topo;
use silo_bench::{run_cells, Args};
use silo_flowsim::{Allocator, FlowSim, FlowSimConfig, FlowSimReport};
use silo_placement::{LocalityPlacer, OktopusPlacer, SiloPlacer};
use silo_topology::Topology;

/// Fig 16's column order; Fig 15 lists the same schemes reversed.
const SCHEMES: [&str; 3] = ["Silo", "Oktopus", "Locality"];
const OCCS_A: [f64; 5] = [0.2, 0.4, 0.6, 0.75, 0.9];
const XS_B: [Option<f64>; 5] = [Some(0.5), Some(0.75), Some(1.0), Some(2.0), None];

/// One cell: a scheme's placer and bandwidth allocator at a target
/// occupancy with Permutation-`x` class-B traffic (`None`: all-to-all).
fn simulate(topo: &Topology, scheme: &str, occ: f64, x: Option<f64>, seed: u64) -> FlowSimReport {
    let cfg = FlowSimConfig {
        occupancy: occ,
        class_b_x: x,
        seed,
        ..FlowSimConfig::default()
    };
    match scheme {
        "Locality" => {
            FlowSim::new(LocalityPlacer::new(topo.clone()), Allocator::FairShare, cfg).run()
        }
        "Oktopus" => {
            FlowSim::new(OktopusPlacer::new(topo.clone()), Allocator::Guaranteed, cfg).run()
        }
        _ => FlowSim::new(SiloPlacer::new(topo.clone()), Allocator::Guaranteed, cfg).run(),
    }
}

fn main() {
    let args = Args::parse_unobserved();
    let topo = flow_topo(args.scale);
    // Fig 16a's rows, then Fig 16b's rows other than x = 1. Each cell is
    // self-contained, so the runner fans them across threads; results
    // come back in grid order.
    let mut cells: Vec<(f64, Option<f64>, &str)> = Vec::new();
    for occ in OCCS_A {
        cells.extend(SCHEMES.map(|s| (occ, Some(1.0), s)));
    }
    for x in XS_B.into_iter().filter(|&x| x != Some(1.0)) {
        cells.extend(SCHEMES.map(|s| (0.9, x, s)));
    }
    let reports = run_cells(
        &cells,
        args.effective_threads(cells.len()),
        |_, &(occ, x, scheme)| simulate(&topo, scheme, occ, x, args.seed),
    );
    let report = |occ: f64, x: Option<f64>, scheme: &str| {
        let i = cells.iter().position(|&c| c == (occ, x, scheme));
        &reports[i.expect("every printed cell is in the grid")]
    };
    let utils = |occ: f64, x: Option<f64>| SCHEMES.map(|s| report(occ, x, s).utilization);

    println!(
        "== Fig 15: admitted requests (%), {} servers ==",
        topo.num_hosts()
    );
    println!("occupancy\tscheme\ttotal\tclass-B\tclass-A\tutil\tmean-occ");
    for occ in [0.75, 0.90] {
        for &scheme in SCHEMES.iter().rev() {
            let r = report(occ, Some(1.0), scheme);
            println!(
                "{:.0}%\t{}\t{:.1}\t{:.1}\t{:.1}\t{:.2}\t{:.2}",
                occ * 100.0,
                scheme,
                r.admitted_frac() * 100.0,
                r.admitted_frac_b() * 100.0,
                r.admitted_frac_a() * 100.0,
                r.utilization,
                r.mean_occupancy
            );
        }
    }
    println!("\npaper: at 75% Silo rejects 4.5% (Okto 0.3%, Locality 0%); at 90%");
    println!("Locality flips to 11% rejects vs Silo 5.1% — slow outlier jobs clog slots.");

    println!(
        "== Fig 16a: network utilization vs occupancy (Permutation-1), {} servers ==",
        topo.num_hosts()
    );
    println!("occupancy\tSilo\tOktopus\tLocality");
    for occ in OCCS_A {
        let u = utils(occ, Some(1.0));
        println!("{:.0}%\t{:.3}\t{:.3}\t{:.3}", occ * 100.0, u[0], u[1], u[2]);
    }

    println!("\n== Fig 16b: utilization vs Permutation-x at 90% occupancy ==");
    println!("x\tSilo\tOktopus\tLocality");
    for x in XS_B {
        let label = match x {
            Some(v) => format!("{v}"),
            None => "N(all-to-all)".to_string(),
        };
        let u = utils(0.9, x);
        println!("{label}\t{:.3}\t{:.3}\t{:.3}", u[0], u[1], u[2]);
    }
    println!("\npaper shape: at 75%+ Silo's utilization beats Locality by ~6% but");
    println!("trails Oktopus by 9-11%; denser traffic (larger x) favors Silo.");
}
