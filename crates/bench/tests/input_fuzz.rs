//! The last two external parsers answer `Ok` or `Err`, never a panic and
//! never a quietly different state. Each case draws one mutation
//! (`common::mutate`) and applies it to real inputs:
//!
//! - every committed explorer plan, through `FaultPlan::from_json`. A
//!   plan that parses keeps every target the file names (no id wraps
//!   into range), and `FaultPlan::validate` against the explorer's cell
//!   accepts or refuses it; an accepted plan builds a `Sim`.
//! - a mid-stream `AdmissionService` snapshot, through `restore`. A
//!   service that restores snapshots again, passes its own consistency
//!   check and, on the original tree, replays the rest of the stream.
//!   Hand-written edits of every tenant's request and hosts, which no
//!   admission could have written, ride along and must be refused.

mod common;

use common::mutate::{apply, mutation};
use silo_base::prop::forall;
use silo_base::{Dur, Json};
use silo_bench::corpus::GOLDENS;
use silo_explorer::{cell_bounds, cell_tenants, cell_topo};
use silo_placement::{AdmissionService, ChurnEvent, Placer};
use silo_simnet::{FaultPlan, Sim, SimConfig, TransportMode};
use silo_topology::{Topology, TreeParams};
use silo_workload::churn::{self, ChurnConfig, FailureBurst};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Parse, range-check and build: every step may refuse, none may panic.
fn exercise_plan(text: &str) -> Result<(), String> {
    let Ok(plan) = FaultPlan::from_json(text) else {
        return Ok(());
    };
    // A parsed plan targets exactly what the file says.
    let doc = Json::parse(text.trim_end()).map_err(|e| format!("parsed, yet not JSON: {e}"))?;
    let events = doc.get("events").and_then(Json::as_arr).unwrap_or(&[]);
    for (e, parsed) in events.iter().zip(&plan.events) {
        let said = e.get("target").and_then(Json::as_u64);
        if said != Some(u64::from(parsed.kind.target())) {
            return Err(format!("target {said:?} became {:?}", parsed.kind));
        }
    }
    let topo = cell_topo();
    let dur = Dur::from_ms(1);
    if plan.validate(&cell_bounds(&topo, dur)).is_ok() {
        let mut cfg = SimConfig::new(TransportMode::Silo, dur, 1);
        cfg.faults = plan;
        drop(Sim::new(topo, cfg, cell_tenants()));
    }
    Ok(())
}

#[test]
fn mutated_fault_plans_are_parsed_or_refused_never_a_panic() {
    forall(
        "explorer plans survive one mutation",
        mutation,
        |_| Vec::new(),
        |m| {
            for (label, text) in GOLDENS {
                let mutated = apply(text, m);
                catch_unwind(AssertUnwindSafe(|| exercise_plan(&mutated)))
                    .map_err(|_| format!("{label} panicked"))?
                    .map_err(|e| format!("{label}: {e}"))?;
            }
            Ok(())
        },
    );
}

/// A churn stream on the 2-pod topology with a host-link failure burst,
/// cut in the middle of that burst: the snapshot holds live tenants, a
/// failed link and a used admit map. Returns it with the rest of the
/// stream.
fn mid_stream() -> (String, Vec<ChurnEvent>) {
    let topo = Topology::build(TreeParams::ns2_scaled(0.1));
    let mut cfg = ChurnConfig::diurnal(7).for_lifetimes(300);
    cfg.mean_vms = 4.0;
    let horizon = cfg.horizon_s;
    let cfg = cfg.with_failure_burst(FailureBurst {
        at_s: 0.4 * horizon,
        dur_s: 0.2 * horizon,
        hosts: 2,
    });
    let events = churn::generate(&topo, &cfg);
    let cut = events.partition_point(|&(t, _)| t < 0.5 * horizon);
    let mut svc = AdmissionService::new(topo);
    for (_, ev) in &events[..cut] {
        svc.apply(ev);
    }
    let snap = svc.snapshot();
    assert!(
        svc.live_tenants() > 0 && !snap.contains("failed 0\n"),
        "the cut must hold tenants and a failed link:\n{snap}"
    );
    (snap, events[cut..].iter().map(|&(_, ev)| ev).collect())
}

/// Restore a snapshot; if it restores, snapshot it again, check its
/// consistency and, on the original tree, replay `tail`. Whether it
/// restored, or the panic that stopped it.
fn exercise_snapshot(text: &str, tail: &[ChurnEvent]) -> Result<bool, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let Ok(mut svc) = AdmissionService::restore(text) else {
            return Ok(false);
        };
        svc.snapshot();
        svc.placer().verify_scratch_consistency()?;
        // The stream's link ids name links of the original tree.
        if *svc.placer().topology().params() == TreeParams::ns2_scaled(0.1) {
            for ev in tail {
                svc.apply(ev);
            }
        }
        Ok(true)
    }))
    .map_err(|_| "restore or the replay after it panicked".to_string())?
}

#[test]
fn mutated_admission_snapshots_restore_or_refuse_never_a_panic() {
    let (snap, rest) = mid_stream();
    let tail = &rest[..rest.len().min(200)];
    forall(
        "a mid-stream snapshot survives one mutation",
        mutation,
        |_| Vec::new(),
        |m| exercise_snapshot(&apply(&snap, m), tail).map(drop),
    );
}

/// Edits of each tenant's records in the mid-stream snapshot that no
/// admission could have written: a request `TenantRequest::new` or
/// `with_fault_domains` refuses, a host entry of no VM, and host entries
/// that do not add up to the request. Restored, the first made a later
/// re-placement search for zero VMs. Each is refused.
#[test]
fn requests_no_admission_could_hold_are_refused() {
    let (snap, rest) = mid_stream();
    let tail = &rest[..rest.len().min(200)];
    let lines: Vec<&str> = snap.lines().collect();
    let mut edits = 0;
    for (at, _) in lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.starts_with("tenant "))
    {
        let req: Vec<&str> = lines[at + 1].split(' ').collect();
        let (vms, domains) = (req[1], req[2]);
        let host: Vec<&str> = lines[at + 2].split(' ').collect();
        let over = (vms.parse::<usize>().unwrap() + 1).to_string();
        for (line, field, value) in [
            (at + 1, 1, "0"),
            (at + 1, 2, "0"),
            (at + 1, 2, over.as_str()),
            (at + 2, 2, "0"),
            (at + 1, 1, over.as_str()),
        ] {
            let mut fields = if line == at + 1 {
                req.clone()
            } else {
                host.clone()
            };
            fields[field] = value;
            let edited_line = fields.join(" ");
            let mut edited = lines.clone();
            edited[line] = &edited_line;
            let text = edited.join("\n") + "\n";
            let what = format!(
                "{} -> {edited_line} (vms {vms}, domains {domains})",
                lines[line]
            );
            match exercise_snapshot(&text, tail) {
                Ok(false) => edits += 1,
                Ok(true) => panic!("{what}: restored"),
                Err(e) => panic!("{what}: {e}"),
            }
        }
    }
    assert!(edits >= 5, "the snapshot must hold a tenant");
}
