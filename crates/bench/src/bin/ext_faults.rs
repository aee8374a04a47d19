//! Fault-injection extension: graceful degradation under infrastructure
//! failures.
//!
//! The paper's guarantees assume a healthy network; this experiment asks
//! what Silo's data plane and placement layer do when that assumption
//! breaks. A fixed two-rack cell runs one guaranteed cross-rack OLDI
//! tenant and one intra-rack bulk tenant through a sweep of deterministic
//! fault scenarios (ToR outage, permanent host-link death, pacer stall /
//! clock drift, tenant churn), all fanned across threads with
//! `run_cells`. For each scenario we report completed messages, goodput,
//! guarantee violations and — the property under test — how many of
//! those violations are *attributed* to the injected fault.
//!
//! A second section drives the placement layer directly: admit tenants,
//! kill a ToR uplink with [`SiloPlacer::fail_link`], and show each
//! affected tenant being re-placed on surviving capacity or explicitly
//! downgraded to best-effort; then heal the link and show restoration.

use silo_base::Dur;
use silo_bench::{checked, run_cells, write_observer_outputs, Args};
use silo_explorer::{cell_tenants, cell_topo, seed_plans};
use silo_placement::{DegradeOutcome, Guarantee, Placer, SiloPlacer, TenantRequest};
use silo_simnet::{AuditConfig, FaultPlan, Metrics, SimConfig, TransportMode};
use silo_topology::Topology;

// The cell itself — topology, tenants, and the six hand-written
// schedules — lives in `silo_explorer::cell`, shared with the
// coverage-guided schedule search so that a schedule recorded by either
// harness replays bit-identically in the other.

struct Scenario {
    label: &'static str,
    plan: FaultPlan,
}

fn scenarios(topo: &Topology, dur_ms: u64) -> Vec<Scenario> {
    let mut out: Vec<Scenario> = seed_plans(topo, dur_ms)
        .into_iter()
        .map(|(label, plan)| Scenario { label, plan })
        .collect();
    // Schedules the explorer found interesting, promoted to goldens: the
    // sweep runs them alongside the hand-written six under the same
    // attribution asserts.
    out.extend(
        silo_bench::corpus::explorer_goldens()
            .into_iter()
            .map(|(label, plan)| Scenario { label, plan }),
    );
    out
}

fn report_row(label: &str, m: &Metrics, dur: Dur) {
    let attributed = m.violations.iter().filter(|v| v.fault.is_some()).count();
    let drops: u64 = m.fault_drops.iter().sum();
    let gbps = m.goodput[0] as f64 * 8.0 / dur.as_secs_f64() / 1e9;
    println!(
        "{label:<30} {:>5} msgs  {:>4}/{:<4} viol (attr/total)  {drops:>6} fault-drops  {:>3} rtos  {gbps:>6.3} Gbps(t0)",
        m.messages.len(),
        attributed,
        m.violations.len(),
        m.rtos,
    );
}

fn main() {
    let args = Args::parse();
    let topo = cell_topo();
    let dur_ms = args.duration_ms.max(60);
    let dur = Dur::from_ms(dur_ms);
    let cells = scenarios(&topo, dur_ms);

    println!(
        "== fault sweep: {} scenarios, {} ms each ==",
        cells.len(),
        dur_ms
    );
    let results = run_cells(&cells, args.effective_threads(cells.len()), |i, sc| {
        let mut cfg = SimConfig::new(TransportMode::Silo, dur, args.seed);
        cfg.faults = sc.plan.clone();
        if args.audit {
            cfg.audit = Some(AuditConfig::default());
        }
        // Flight-record and/or telemeter the ToR-outage scenario (the
        // interesting one: fault markers, flush drops, margin collapse
        // and recovery all in one window).
        if args.trace_requested() && i == 1 {
            cfg.trace = Some(silo_simnet::TraceConfig::default());
        }
        if args.telemetry_requested() && i == 1 {
            cfg.telemetry = Some(silo_simnet::TelemetryConfig::default());
        }
        checked(topo.clone(), cfg, cell_tenants()).run()
    });
    for (sc, m) in cells.iter().zip(&results) {
        report_row(sc.label, m, dur);
    }
    if args.trace_requested() || args.telemetry_requested() {
        println!("observed scenario: {}", cells[1].label);
        if let Err(e) = write_observer_outputs(&args, &results[1]) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }

    // With --audit, every scenario also ran under the invariant-audit
    // layer: any violation it reports must be blamed on the injected
    // fault whose window covers it — an unattributed one is an engine bug.
    if args.audit {
        println!("\n== invariant audit (per scenario) ==");
        let mut unattributed_audit = 0u64;
        for (sc, m) in cells.iter().zip(&results) {
            let report = m.audit.as_ref().expect("audit was requested");
            println!("{:<30} {}", sc.label, report.summary());
            unattributed_audit += report.unattributed;
            assert!(
                report.early_releases == 0,
                "{}: pacer released a frame before its stamp",
                sc.label
            );
        }
        assert_eq!(
            unattributed_audit, 0,
            "every audit violation must be attributed to an injected fault"
        );
        println!("all audit violations attributed to injected faults.");
    }

    // The headline property: a healthy admission-controlled run breaks no
    // guarantees, and every violation under injected faults is explained.
    let baseline = &results[0];
    assert!(
        baseline.violations.is_empty(),
        "no faults, no violations: {:?}",
        baseline.violations.first()
    );
    // A violation is unattributed only when the message's whole lifetime
    // falls outside every fault window — residual queue drain after a
    // restoration ("aftershocks"), never a blame-assignment miss.
    let unattributed: usize = results
        .iter()
        .map(|m| m.violations.iter().filter(|v| v.fault.is_none()).count())
        .sum();
    println!("\npost-restoration aftershock violations, all scenarios: {unattributed}");

    // ------------------------------------------------------------------
    // Placement-layer degradation on the same shape of cell.
    // ------------------------------------------------------------------
    println!("\n== placement: ToR failure, reclaim, re-admit, restore ==");
    let mut placer = SiloPlacer::new(cell_topo());
    // Fill most of rack 0 plus cross-rack spans so a ToR death strands
    // someone: 4 tenants x 4 VMs over 32 slots.
    let reqs = [
        TenantRequest::new(4, Guarantee::class_a()),
        TenantRequest::new(4, Guarantee::class_a()),
        TenantRequest::new(6, Guarantee::class_a()).with_fault_domains(6),
        TenantRequest::new(8, Guarantee::class_a()).with_fault_domains(8),
    ];
    for (i, r) in reqs.iter().enumerate() {
        match placer.try_place(r) {
            Ok(p) => println!(
                "admit tenant {i}: {} VMs spanning {:?} over {} hosts",
                p.total_vms(),
                p.span,
                p.hosts.len()
            ),
            Err(e) => println!("admit tenant {i}: rejected ({e:?})"),
        }
    }
    let tor0 = placer.topology().tor_link(0);
    let report = placer.fail_link(tor0);
    println!(
        "\nfail {tor0:?}: {} tenant(s) affected",
        report.outcomes.len()
    );
    for (id, outcome) in &report.outcomes {
        match outcome {
            DegradeOutcome::Replaced { hosts, span } => println!(
                "  tenant {id:?}: re-placed on {} surviving hosts (span {span:?})",
                hosts.len()
            ),
            DegradeOutcome::Downgraded { reason } => {
                println!("  tenant {id:?}: DOWNGRADED to best-effort ({reason:?})")
            }
            other => println!("  tenant {id:?}: {other:?}"),
        }
    }
    println!(
        "degraded tenants while the link is down: {:?}",
        placer.degraded_tenants()
    );
    let healed = placer.restore_link(tor0);
    println!("\nrestore {tor0:?}:");
    for (id, outcome) in &healed.outcomes {
        println!("  tenant {id:?}: {outcome:?}");
    }
    assert!(
        placer.degraded_tenants().is_empty(),
        "every tenant must be whole again after restoration"
    );
    println!("all guarantees re-validated after the link healed.");

    // A host-link death under a spread tenant shows the other path:
    // reclaim frees its slots and the re-admission lands on surviving
    // servers — guarantees intact, no downgrade. (3 fault domains, so one
    // dead server still leaves a valid spread.)
    let victim = placer
        .try_place(&TenantRequest::new(6, Guarantee::class_a()).with_fault_domains(3))
        .expect("room for one more tenant");
    let spread = victim.hosts[0].0;
    let dead = placer.topology().host_link(spread);
    let report = placer.fail_link(dead);
    println!("\nfail {dead:?} (host {spread:?}'s access link):");
    for (id, outcome) in &report.outcomes {
        match outcome {
            DegradeOutcome::Replaced { hosts, span } => println!(
                "  tenant {id:?}: re-placed on {} surviving hosts (span {span:?})",
                hosts.len()
            ),
            other => println!("  tenant {id:?}: {other:?}"),
        }
    }
}
