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
//! The same runs carry windowed telemetry, whose full JSONL export is
//! pinned per cell in `tests/golden/telemetry_golden.txt`.
//!
//! To re-bless after an *intended* physics change, replace the cell's
//! line in the golden file with the `got` line the failure prints.

use std::hash::Hasher;
use std::sync::OnceLock;

use silo_base::fxhash::FxHasher;
use silo_base::{Bytes, Dur, Rate, Time};
use silo_simnet::{
    AuditConfig, FaultPlan, Sim, SimConfig, TelemetryConfig, TenantSpec, TenantWorkload,
    TraceConfig, TransportMode,
};
use silo_topology::HostId;

mod common;

use common::racked_topo;

const GOLDEN: &str = include_str!("golden/serial_golden.txt");
const TELEMETRY_GOLDEN: &str = include_str!("golden/telemetry_golden.txt");

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

/// The golden-file lines of one cell: its name and the hashes of the
/// three streams `serial_golden.txt` pins, then its name and the hash of
/// its telemetry export.
fn observe(name: &str, mode: TransportMode, faults: FaultPlan) -> (String, String) {
    let mut cfg = SimConfig::new(mode, Dur::from_ms(20), 7);
    cfg.faults = faults;
    cfg.audit = Some(AuditConfig::default());
    cfg.trace = Some(TraceConfig::default());
    cfg.telemetry = Some(TelemetryConfig::default());
    let m = Sim::new(racked_topo(), cfg, tenants()).run();
    let trace = m.trace.as_ref().expect("traced run").to_jsonl();
    let audit = m.audit.as_ref().expect("audited run");
    let report = format!("{}\n{:?}", audit.summary(), audit.details);
    let telemetry = m.telemetry.as_ref().expect("telemetry run").to_jsonl();
    let serial = format!(
        "{name} canonical={:016x} trace={:016x} audit={:016x}",
        fx(&m.canonical_json()),
        fx(&trace),
        fx(&report)
    );
    (serial, format!("{name} telemetry={:016x}", fx(&telemetry)))
}

/// Every cell, run once for both golden files.
fn cells() -> &'static [(String, String, String)] {
    static CELLS: OnceLock<Vec<(String, String, String)>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let modes = [
            ("silo", TransportMode::Silo),
            ("tcp", TransportMode::Tcp),
            ("dctcp", TransportMode::Dctcp),
        ];
        let mut out = Vec::new();
        for (mode_name, mode) in modes {
            for (suffix, faults) in [("", FaultPlan::new()), ("+faults", fault_plan())] {
                let name = format!("{mode_name}{suffix}");
                let (serial, telemetry) = observe(&name, mode, faults);
                out.push((name, serial, telemetry));
            }
        }
        out
    })
}

/// Compare each cell's line against `golden`'s line of the same name.
fn check(golden: &str, file: &str, line: impl Fn(&(String, String, String)) -> &str) {
    let mut mismatches = Vec::new();
    for cell in cells() {
        let name = &cell.0;
        let want = golden
            .lines()
            .find(|l| l.split(' ').next() == Some(name.as_str()))
            .unwrap_or_else(|| panic!("no {file} line for cell {name}"));
        let got = line(cell);
        if got != want {
            mismatches.push(format!("cell {name}\n  want: {want}\n  got:  {got}"));
        }
    }
    assert_eq!(
        golden.lines().filter(|l| !l.starts_with('#')).count(),
        cells().len(),
        "{file} has lines no cell produced"
    );
    assert!(
        mismatches.is_empty(),
        "output moved against tests/golden/{file}:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn every_cell_matches_its_committed_hashes() {
    check(GOLDEN, "serial_golden.txt", |c| &c.1);
}

#[test]
fn every_cell_telemetry_matches_its_committed_hash() {
    check(TELEMETRY_GOLDEN, "telemetry_golden.txt", |c| &c.2);
}
