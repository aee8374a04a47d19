//! End-to-end tests of the invariant-audit layer: a healthy engine is
//! audit-clean in every transport mode, injected pacer faults produce
//! *attributed* conformance violations, and the queue-bound check actually
//! fires when given an impossible bound. That auditing never perturbs
//! physics is `tests/observer_purity.rs`.

mod common;

use common::{bulk_tenant, periodic_tenant, small_topo};
use silo_base::{Dur, Time};
use silo_simnet::{AuditConfig, FaultPlan, Sim, SimConfig, TransportMode};

fn run(mode: TransportMode, faults: FaultPlan) -> silo_simnet::Metrics {
    let mut cfg = SimConfig::new(mode, Dur::from_ms(40), 7);
    cfg.faults = faults;
    cfg.audit = Some(AuditConfig::default());
    let tenants = vec![periodic_tenant(&[0, 1]), bulk_tenant(&[2, 3])];
    Sim::new(small_topo(4), cfg, tenants).run()
}

#[test]
fn audit_is_clean_in_every_mode() {
    for mode in [TransportMode::Silo, TransportMode::Tcp, TransportMode::Okto] {
        let report = run(mode, FaultPlan::new())
            .audit
            .expect("audited run must carry a report");
        assert!(report.events_checked > 0, "{mode:?}: audit saw no events");
        assert!(
            report.is_clean(),
            "{mode:?}: healthy run must be violation-free: {}",
            report.summary()
        );
    }
}

#[test]
fn audit_report_stays_out_of_serializations() {
    let on = run(TransportMode::Silo, FaultPlan::new());
    let json = on.canonical_json();
    assert!(
        !json.contains("audit"),
        "audit must not enter the fingerprint"
    );
}

#[test]
fn pacer_stall_burst_is_flagged_and_attributed() {
    // Stall the OLDI sender's pacer for 10 ms: the stamped backlog then
    // leaves the NIC back-to-back at line rate — genuinely outside the
    // tenant's {B,S,Bmax} wire curve — and every resulting conformance
    // violation must carry the stall's fault attribution.
    let faults = FaultPlan::new().pacer_stall(Time::from_ms(10), Time::from_ms(20), 1);
    let m = run(TransportMode::Silo, faults);
    let report = m.audit.expect("report");
    assert!(
        report.conformance > 0,
        "a stalled pacer's catch-up burst must violate the wire curve: {}",
        report.summary()
    );
    assert_eq!(
        report.unattributed,
        0,
        "every violation overlaps the stall window: {}",
        report.summary()
    );
    assert!(report.details.iter().all(|v| v.fault == Some(0)));
    // And the violations point at the stalled sender's VM (tenant 0's
    // VM 1), not at the bystander bulk tenant.
    assert!(report.details.iter().all(|v| v.vm == Some(1)));
}

#[test]
fn link_outage_flush_keeps_ledger_balanced() {
    // A mid-run link outage exercises the flush path (queued packets
    // discarded at fault start). Byte conservation and FIFO bookkeeping
    // must survive it with zero violations of their own.
    let faults = FaultPlan::new().link_down(Time::from_ms(10), Some(Time::from_ms(20)), 0);
    let m = run(TransportMode::Tcp, faults);
    let report = m.audit.expect("report");
    assert!(m.fault_drops[0] > 0, "outage must actually drop packets");
    assert_eq!(report.conservation, 0, "{}", report.summary());
    assert_eq!(report.fifo, 0, "{}", report.summary());
}

#[test]
fn tenant_churn_resets_conformance_meters() {
    // Depart and re-admit the paced tenant mid-run. Readmission restarts
    // the engine's token buckets at full; if the audit meters didn't
    // follow, the tenant's first post-readmission burst would be a false
    // (and unattributed after slack) violation.
    let faults = FaultPlan::new().tenant_churn(0, Time::from_ms(12), Time::from_ms(25));
    let m = run(TransportMode::Silo, faults);
    let report = m.audit.expect("report");
    assert_eq!(
        report.unattributed,
        0,
        "churn must not strand unexplained violations: {}",
        report.summary()
    );
}

#[test]
fn impossible_queue_bound_is_detected() {
    // Detection sanity (true-positive path): a 1-byte bound on every
    // switch port must trip immediately, and with no faults injected the
    // violations are unattributed.
    let mut cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(20), 7);
    let topo = small_topo(4);
    let ac = AuditConfig {
        port_bounds: (0..topo.num_ports())
            .map(|i| {
                if topo.port(silo_topology::PortId(i as u32)).is_nic {
                    None
                } else {
                    Some(1)
                }
            })
            .collect(),
    };
    cfg.audit = Some(ac);
    let tenants = vec![periodic_tenant(&[0, 1]), bulk_tenant(&[2, 3])];
    let m = Sim::new(topo, cfg, tenants).run();
    let report = m.audit.expect("report");
    assert!(report.queue_bound > 0, "{}", report.summary());
    assert_eq!(report.unattributed, report.total(), "{}", report.summary());
}
