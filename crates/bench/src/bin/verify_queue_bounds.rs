//! The theorem check: Silo's whole design rests on the claim that if
//! tenants are placed under constraint C1 and paced to their curves, then
//! **no switch queue ever exceeds the bound the placement manager
//! computed**. This binary closes the loop end-to-end: build a tenant
//! population with the real placer, drive it with adversarial workloads
//! (simultaneous all-to-one bursts + backlogged shuffles) through the
//! packet simulator, and compare every port's measured queue high-water
//! mark against its admission-time backlog bound.
//!
//! With `--audit`, the same bounds are also checked *online* by the
//! engine's invariant-audit layer (plus byte conservation, FIFO
//! causality, wire exclusivity and per-VM curve conformance), and the run
//! fails on any unattributed violation. The small-scale version of this
//! check runs in CI as the tier-2 `queue_bounds` test.

use silo_base::Dur;
use silo_bench::verify::{build_verify_population, run_verify};
use silo_bench::Args;
use silo_topology::{Topology, TreeParams};

fn main() {
    let args = Args::parse();
    let topo = Topology::build(TreeParams::ns2_scaled(args.scale));
    let (placer, specs, used) = build_verify_population(&topo, args.occupancy, args.seed);
    println!(
        "placed {} tenants on {} slots ({} hosts); running {} ms of worst-case traffic…",
        specs.len(),
        used,
        topo.num_hosts(),
        args.duration_ms.max(200)
    );
    let out = run_verify(
        &topo,
        &placer,
        specs,
        Dur::from_ms(args.duration_ms.max(200)),
        args.seed,
        None,
        args.audit,
    );
    let m = &out.metrics;

    println!("drops: {} (must be 0)", m.drops);
    println!("\nport\tkind\tmeasured\tbound\tbuffer\tok");
    for row in &out.rows {
        if !row.ok() || row.measured * 4 > row.buffer {
            println!(
                "{}\t{}\t{}\t{}\t{}\t{}",
                row.port,
                if row.up { "up" } else { "down" },
                row.measured,
                row.bound,
                row.buffer,
                if row.ok() { "yes" } else { "VIOLATION" }
            );
            if !row.ok() {
                println!("  peak at t = {}", row.peak_at);
            }
        }
    }
    println!(
        "\n{} loaded switch ports checked, {} bound violations",
        out.checked, out.violations
    );
    assert_eq!(m.drops, 0, "admitted, paced traffic must never be dropped");
    assert_eq!(
        out.violations, 0,
        "every measured queue must respect its admission-time bound"
    );
    if let Some(report) = &out.audit {
        println!("{}", report.summary());
        assert!(
            report.is_clean(),
            "online audit must agree with the end-of-run check: {}",
            report.summary()
        );
    }
    println!("VERIFIED: every switch queue stayed within its network-calculus bound.");
}
