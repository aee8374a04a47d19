//! Committed golden for the fault-plan editors.
//!
//! The explorer's search is a chain of `FaultPlan::mutate` calls, and
//! every plan it builds or loads passes through `FaultPlan::sanitize`, so
//! a change to either (or to `FaultKind::label`, which names each fault in
//! metrics, traces and reports) moves every corpus the search writes. This
//! suite pins their output at a fixed seed: an FNV-1a hash of the
//! `to_json()` dump and every event's `label()` of
//!
//! * each step of a long `mutate` chain started from every committed
//!   corpus plan, on the explorer's cell and on a cell with no links and
//!   one tenant (so the drop and wrap paths run too);
//! * `sanitize` applied to random plans whose instants, windows, targets
//!   and drift factors are drawn out of range, against three cell shapes.
//!
//! To re-bless after an *intended* change to the editors, replace the
//! constant with the `got` value the failure prints.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silo_base::{Dur, Time};
use silo_bench::corpus::explorer_goldens;
use silo_explorer::{cell_bounds, cell_topo};
use silo_simnet::{FaultEvent, FaultKind, FaultPlan, PlanBounds};

const SEED: u64 = 0x5110_f417;
const STEPS: usize = 2_000;
const WILD_PLANS: usize = 3_000;

const MUTATE_GOLDEN: u64 = 0x37e2_46e8_6fbe_b222;
const SANITIZE_GOLDEN: u64 = 0x2849_5c8b_57e8_adbf;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold a plan's dump and each of its labels into `h`.
fn digest(mut h: u64, plan: &FaultPlan) -> u64 {
    h = fnv1a(h, plan.to_json().as_bytes());
    for e in &plan.events {
        h = fnv1a(h, e.kind.label().as_bytes());
        h = fnv1a(h, b"\n");
    }
    h
}

/// The explorer's cell at its default 60 ms, and a cell with no links
/// and one tenant.
fn shapes() -> [PlanBounds; 2] {
    let cell = cell_bounds(&cell_topo(), Dur::from_ms(60));
    [
        cell,
        PlanBounds {
            num_links: 0,
            tenants: 1,
            ..cell
        },
    ]
}

#[test]
fn mutate_chains_from_the_corpus_are_pinned() {
    let mut h = FNV_OFFSET;
    for b in shapes() {
        for (_, plan) in explorer_goldens() {
            let mut rng = StdRng::seed_from_u64(SEED);
            let mut plan = plan.sanitize(&b);
            for _ in 0..STEPS {
                plan = plan.mutate(&mut rng, &b);
                h = digest(h, &plan);
            }
        }
    }
    assert_eq!(h, MUTATE_GOLDEN, "mutate output moved: got {h:#018x}");
}

/// A plan of up to eight events with every field drawn wide: instants
/// past the horizon, inverted or missing windows, targets anywhere in
/// their id type, and drift factors that are NaN, infinite, below 1 or
/// above the cap.
fn wild_plan(rng: &mut StdRng, horizon: u64) -> FaultPlan {
    let n = rng.random_range(0..9usize);
    let events = (0..n)
        .map(|_| {
            let at = Time(rng.random_range(0..3 * horizon));
            let until = rng
                .random_bool(0.7)
                .then(|| Time(rng.random_range(0..3 * horizon)));
            let t = rng.random::<u32>();
            let factor = [f64::NAN, f64::INFINITY, -1.0, 0.5, 1.0, 3.7, 64.0, 1e9]
                [rng.random_range(0..8usize)];
            let kind = match rng.random_range(0..6u32) {
                0 => FaultKind::LinkDown { link: t },
                1 => FaultKind::PortDown { port: t },
                2 => FaultKind::PacerStall { host: t },
                3 => FaultKind::PacerDrift { host: t, factor },
                4 => FaultKind::TenantDown { tenant: t as u16 },
                _ => FaultKind::TenantUp { tenant: t as u16 },
            };
            FaultEvent { at, until, kind }
        })
        .collect();
    FaultPlan { events }
}

#[test]
fn sanitize_of_out_of_range_plans_is_pinned() {
    let [cell, sparse] = shapes();
    let wide = PlanBounds {
        num_ports: 100_000,
        tenants: 70_000,
        ..cell
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut h = FNV_OFFSET;
    for _ in 0..WILD_PLANS {
        let plan = wild_plan(&mut rng, cell.horizon.0);
        for b in [cell, sparse, wide] {
            h = digest(h, &plan.sanitize(&b));
        }
    }
    assert_eq!(h, SANITIZE_GOLDEN, "sanitize output moved: got {h:#018x}");
}
