//! The explorer's committed corpus, replayed as regressions.
//!
//! Two layers:
//!
//! * Always-on (tier-1): the corpus parses, is in canonical dump form,
//!   and the explorer's replay path is byte-identical to the fault
//!   suite's own way of running the same schedule — the differential
//!   guarantee that lets a schedule recorded by either harness stand in
//!   for the other.
//! * `#[ignore]`d (tier-2, CI explorer job): every committed schedule
//!   replays at full fault-suite scale with the audit layer on and every
//!   violation attributed — `cargo test -p silo-bench --test
//!   explorer_regressions --release -- --ignored`.

use silo_base::Dur;
use silo_bench::corpus::explorer_goldens;
use silo_explorer::{cell_bounds, cell_tenants, cell_topo, failure, replay};
use silo_simnet::{AuditConfig, FaultPlan, Sim, SimConfig, TraceConfig, TransportMode};

const DUR_MS: u64 = 60;
const SEED: u64 = 1;

#[test]
fn corpus_replay_matches_fault_suite_run_byte_for_byte() {
    // The fault suite (`ext_faults`) configures its runs by hand; the
    // explorer replays a recorded schedule through `silo_explorer::replay`.
    // Same schedule in, byte-identical physics and trace out.
    let (label, plan) = &explorer_goldens()[0];
    let recorded = FaultPlan::from_json(&plan.to_json()).expect("round-trip");

    let dur = Dur::from_ms(DUR_MS);
    let suite_run = {
        let mut cfg = SimConfig::new(TransportMode::Silo, dur, SEED);
        cfg.faults = plan.clone();
        cfg.audit = Some(AuditConfig::default());
        cfg.trace = Some(TraceConfig::default());
        Sim::new(cell_topo(), cfg, cell_tenants()).run()
    };
    let explorer_run = replay(&recorded, dur, SEED);

    assert_eq!(
        suite_run.canonical_json(),
        explorer_run.canonical_json(),
        "{label}: explorer replay diverged from the fault-suite run"
    );
    assert_eq!(
        suite_run.trace.as_ref().unwrap().to_jsonl(),
        explorer_run.trace.as_ref().unwrap().to_jsonl(),
        "{label}: traces diverged"
    );
}

#[test]
fn corpus_is_canonical_and_non_trivial() {
    let goldens = explorer_goldens();
    assert!(goldens.len() >= 4, "corpus shrank");
    for (label, plan) in &goldens {
        assert!(!plan.events.is_empty(), "{label}: empty schedule");
        // Replays must be possible on the shared cell: validate against
        // its real dimensions.
        plan.validate(&cell_bounds(&cell_topo(), Dur::from_ms(DUR_MS)))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
#[ignore = "tier-2: run explicitly (CI explorer job)"]
fn corpus_replays_clean_under_audit() {
    for (label, plan) in explorer_goldens() {
        let m = replay(&plan, Dur::from_ms(DUR_MS), SEED);
        let audit = m.audit.as_ref().expect("replay audits");
        assert_eq!(
            audit.unattributed,
            0,
            "{label}: {} audit violation(s) no fault explains: {}",
            audit.unattributed,
            audit.summary()
        );
        assert_eq!(
            audit.early_releases, 0,
            "{label}: pacer released frames early"
        );
        assert_eq!(
            failure(&m),
            None,
            "{label}: committed schedule must replay attribution-clean"
        );
    }
}
