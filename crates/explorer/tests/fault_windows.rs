//! The one window list and the one overlap predicate, held to the code
//! they replaced.
//!
//! A run realizes its fault windows once (`FaultPlan::windows`), and every
//! check of what a fault explains asks `FaultWindow::overlaps`. These
//! properties hold both to the expressions each caller used to write out:
//! the per-event `FaultEvent::window` list, and the three closed-interval
//! tests of violation attribution (slack 0), audit attribution
//! (`ATTRIBUTION_SLACK`) and the explorer's aftershock check
//! (`RECOVERY_SLACK`).

use silo_base::prop::{forall, Rng, StdRng};
use silo_base::{Dur, Time};
use silo_explorer::explore::RECOVERY_SLACK;
use silo_simnet::audit::ATTRIBUTION_SLACK;
use silo_simnet::{FaultEvent, FaultKind, FaultPlan, FaultWindow};

const MS: u64 = 1_000_000_000;

/// Up to eight events with instants on both sides of a horizon of up to
/// 40 ms, some without an end.
fn plan_and_horizon(rng: &mut StdRng) -> (FaultPlan, Time) {
    let horizon = Time(rng.random_range(0..40 * MS));
    let n = rng.random_range(0..9usize);
    let events = (0..n)
        .map(|i| {
            let at = Time(rng.random_range(0..60 * MS));
            let until = rng
                .random_bool(0.8)
                .then(|| Time(at.0 + rng.random_range(0..30 * MS)));
            let kind = match i % 3 {
                0 => FaultKind::LinkDown { link: i as u32 },
                1 => FaultKind::PacerDrift {
                    host: i as u32,
                    factor: 2.5,
                },
                _ => FaultKind::TenantDown { tenant: i as u16 },
            };
            FaultEvent { at, until, kind }
        })
        .collect();
    (FaultPlan { events }, horizon)
}

#[test]
fn windows_are_the_per_event_windows_in_plan_order() {
    forall(
        "FaultPlan::windows == [FaultEvent::window]",
        plan_and_horizon,
        |_| Vec::new(),
        |(plan, horizon)| {
            let reference: Vec<FaultWindow> = plan
                .events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| {
                    e.window(*horizon).map(|(start, end)| FaultWindow {
                        fault: i as u32,
                        label: e.kind.label(),
                        start,
                        end,
                    })
                })
                .collect();
            let got = plan.windows(*horizon);
            if got == reference {
                Ok(())
            } else {
                Err(format!("windows {got:?}, per event {reference:?}"))
            }
        },
    );
}

/// A window and an interval whose endpoints sit on, or one picosecond
/// either side of, the window's start, its end and its end plus each
/// slack, or anywhere at random.
fn window_and_interval(rng: &mut StdRng) -> (FaultWindow, Time, Time) {
    let start = rng.random_range(1..20 * MS);
    let end = start + rng.random_range(0..20 * MS);
    let w = FaultWindow {
        fault: 0,
        label: String::new(),
        start: Time(start),
        end: Time(end),
    };
    let mut edges = vec![start, end, rng.random_range(0..80 * MS)];
    for slack in [ATTRIBUTION_SLACK, RECOVERY_SLACK] {
        edges.push(end + slack.0);
    }
    let mut pick = || {
        let t = edges[rng.random_range(0..edges.len())];
        [t.saturating_sub(1), t, t + 1][rng.random_range(0..3usize)]
    };
    let (a, b) = (pick(), pick());
    (w, Time(a.min(b)), Time(a.max(b)))
}

#[test]
fn overlaps_agrees_with_the_three_tests_it_replaced() {
    forall(
        "FaultWindow::overlaps == each caller's closed-interval test",
        window_and_interval,
        |_| Vec::new(),
        |(w, created, completed)| {
            let (ws, we) = (w.start, w.end);
            // `Sim::attribute_fault`: the message lifetime meets the window.
            let attribution = ws <= *completed && *created <= we;
            // The audit: the violation instant falls in the window or
            // within `ATTRIBUTION_SLACK` after it.
            let at = *created;
            let audit = ws <= at && at <= we + ATTRIBUTION_SLACK;
            // The explorer: an unattributed miss started while the window
            // (stretched by `RECOVERY_SLACK`) was still draining.
            let aftershock =
                created.0 <= w.end.0.saturating_add(RECOVERY_SLACK.0) && *completed >= w.start;
            let cases = [
                (
                    "attribution",
                    w.overlaps(*created, *completed, Dur::ZERO),
                    attribution,
                ),
                ("audit", w.overlaps(at, at, ATTRIBUTION_SLACK), audit),
                (
                    "aftershock",
                    w.overlaps(*created, *completed, RECOVERY_SLACK),
                    aftershock,
                ),
            ];
            match cases.iter().find(|(_, got, want)| got != want) {
                None => Ok(()),
                Some((what, got, want)) => Err(format!("{what}: overlaps {got}, reference {want}")),
            }
        },
    );
}
