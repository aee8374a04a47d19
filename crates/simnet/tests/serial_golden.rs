//! Committed physics golden for the engine.
//!
//! Every other engine proof in the workspace is differential (this
//! configuration ≡ that one). This suite pins absolute output: one small
//! multi-rack cell, each transport with and without a fault plan, audit
//! and trace attached, hashed and compared against
//! `tests/golden/serial_golden.txt`. An engine change that moves any byte
//! of the canonical metrics, the flight-recorder log or the audit report
//! fails here and names the cell.
//!
//! To re-bless after an *intended* physics change, replace the cell's
//! line in the golden file with the `got` line the failure prints.

use std::hash::Hasher;

use silo_base::fxhash::FxHasher;
use silo_base::{Bytes, Dur, Rate, Time};
use silo_simnet::{
    AuditConfig, FaultPlan, Sim, SimConfig, TenantSpec, TenantWorkload, TraceConfig, TransportMode,
};
use silo_topology::HostId;

mod common;

use common::racked_topo;

const GOLDEN: &str = include_str!("golden/serial_golden.txt");

/// Tenants that straddle racks: a paced OLDI group spanning racks 0–2 and
/// a bulk all-to-all spanning all four.
fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            vm_hosts: vec![HostId(0), HostId(5), HostId(10)],
            b: Rate::from_mbps(500),
            s: Bytes::from_kb(15),
            bmax: Rate::from_gbps(1),
            prio: 0,
            delay: None,
            workload: TenantWorkload::OldiPeriodic {
                msg: Bytes::from_kb(15),
                period: Dur::from_ms(2),
            },
        },
        TenantSpec {
            vm_hosts: vec![HostId(2), HostId(6), HostId(11), HostId(15)],
            b: Rate::from_gbps(3),
            s: Bytes(1500),
            bmax: Rate::from_gbps(10),
            prio: 1,
            delay: None,
            workload: TenantWorkload::BulkAllToAll {
                msg: Bytes::from_kb(256),
            },
        },
    ]
}

/// A pacer stall, a pacer drift and a link flap, each landing on a
/// different host mid-run.
fn fault_plan() -> FaultPlan {
    FaultPlan::new()
        .pacer_stall(Time::from_ms(4), Time::from_ms(8), 5)
        .pacer_drift(Time::from_ms(9), Time::from_ms(14), 10, 4.0)
        .link_down(Time::from_ms(15), Some(Time::from_ms(18)), 2)
}

fn fx(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.write_usize(s.len());
    h.finish()
}

/// One golden-file line for a cell: its name and the hashes of the three
/// observable streams.
fn observe(name: &str, mode: TransportMode, faults: FaultPlan) -> String {
    let mut cfg = SimConfig::new(mode, Dur::from_ms(20), 7);
    cfg.faults = faults;
    cfg.audit = Some(AuditConfig::default());
    cfg.trace = Some(TraceConfig::default());
    let m = Sim::new(racked_topo(), cfg, tenants()).run();
    let trace = m.trace.as_ref().expect("traced run").to_jsonl();
    let audit = m.audit.as_ref().expect("audited run");
    let report = format!("{}\n{:?}", audit.summary(), audit.details);
    format!(
        "{name} canonical={:016x} trace={:016x} audit={:016x}",
        fx(&m.canonical_json()),
        fx(&trace),
        fx(&report)
    )
}

#[test]
fn every_cell_matches_its_committed_hashes() {
    let modes = [
        ("silo", TransportMode::Silo),
        ("tcp", TransportMode::Tcp),
        ("dctcp", TransportMode::Dctcp),
    ];
    let mut seen = 0;
    let mut mismatches = Vec::new();
    for (mode_name, mode) in modes {
        for (suffix, faults) in [("", FaultPlan::new()), ("+faults", fault_plan())] {
            let name = format!("{mode_name}{suffix}");
            let want = GOLDEN
                .lines()
                .find(|l| l.split(' ').next() == Some(name.as_str()))
                .unwrap_or_else(|| panic!("no golden line for cell {name}"));
            let got = observe(&name, mode, faults);
            if got != want {
                mismatches.push(format!("cell {name}\n  want: {want}\n  got:  {got}"));
            }
            seen += 1;
        }
    }
    assert_eq!(
        GOLDEN.lines().filter(|l| !l.starts_with('#')).count(),
        seen,
        "golden file has lines no cell produced"
    );
    assert!(
        mismatches.is_empty(),
        "physics moved against tests/golden/serial_golden.txt:\n{}",
        mismatches.join("\n")
    );
}
