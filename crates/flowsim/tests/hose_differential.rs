//! Differential check of the two independent hose-model implementations.
//!
//! `flowsim`'s `Allocator::Guaranteed` computes per-flow rates
//! operationally — [`hose_share`] gives each flow the min of its
//! endpoints' hose shares — while admission's
//! `Contribution::for_cut_capped` derives the same quantity analytically,
//! as the `rate` it reserves at a port: the sustained rate a tenant can
//! push across a cut with `m` of its `N` VMs on one side is
//! `min(m, N−m)·B`. If the two disagree, one of the hose models is wrong.
//!
//! For patterns that saturate every endpoint on the smaller side of the
//! cut (a permutation across the cut, or all-to-one into a lone
//! receiver), the operational sum must **equal** the analytic rate. For
//! all-to-all, senders split their hoses across both sides of the cut,
//! so the operational cross-cut sum is strictly *below* the analytic
//! aggregate on interior cuts — the reservation is an upper bound on every
//! realizable pattern, and tight only at the edges (`m = 1` or
//! `m = N−1`).

use silo_base::{Bytes, Rate};
use silo_pacer::hose_share;
use silo_placement::Contribution;

const MTU: Bytes = Bytes(1500);
const S: Bytes = Bytes(15_000);

/// Sum of the guaranteed rates of `k` flows crossing the cut, each with
/// hose `b` at both ends and the given endpoint degrees, in bits/sec.
fn cross_cut_rate(k: usize, b: Rate, out_deg: usize, in_deg: usize) -> f64 {
    (0..k).map(|_| hose_share(b, out_deg, in_deg)).sum()
}

/// The sustained rate admission reserves for the same cut, converted from
/// bytes/sec to the allocator's bits/sec.
fn analytic_rate(m: usize, n: usize, b: Rate) -> f64 {
    let c = Contribution::for_cut_capped(m, n, b, S, Rate::from_gbps(10), MTU, &[], Rate(u64::MAX));
    c.rate * 8.0
}

#[test]
fn permutation_across_the_cut_matches_the_aggregate_exactly() {
    let b = Rate::from_mbps(500);
    for n in 2..=12usize {
        for m in 1..n {
            // Pair off min(m, n−m) senders with distinct receivers across
            // the cut; every endpoint carries exactly one flow.
            let k = m.min(n - m);
            let got = cross_cut_rate(k, b, 1, 1);
            let want = analytic_rate(m, n, b);
            assert!(
                (got - want).abs() <= 1e-6 * want,
                "n={n} m={m}: allocator {got} vs curve {want}"
            );
        }
    }
}

#[test]
fn all_to_one_into_a_lone_receiver_matches_exactly() {
    let b = Rate::from_mbps(800);
    for n in 2..=12usize {
        // Cut isolates the receiver: m = n−1 senders, each with one
        // outgoing flow; the receiver's hose splits n−1 ways.
        let m = n - 1;
        let got = cross_cut_rate(m, b, 1, m);
        let want = analytic_rate(m, n, b);
        assert!(
            (got - want).abs() <= 1e-6 * want,
            "n={n}: allocator {got} vs curve {want}"
        );
    }
}

#[test]
fn all_to_all_stays_below_the_aggregate_and_is_tight_at_the_edges() {
    let b = Rate::from_gbps(1);
    for n in 2..=12usize {
        for m in 1..n {
            // Every VM talks to all n−1 others; flows crossing the cut
            // left→right number m·(n−m), each endpoint at degree n−1.
            let got = cross_cut_rate(m * (n - m), b, n - 1, n - 1);
            let want = analytic_rate(m, n, b);
            assert!(
                got <= want * (1.0 + 1e-9),
                "n={n} m={m}: allocator exceeded the curve: {got} > {want}"
            );
            if m == 1 || m == n - 1 {
                assert!(
                    (got - want).abs() <= 1e-6 * want,
                    "n={n} m={m}: edge cut must be tight: {got} vs {want}"
                );
            } else {
                assert!(
                    got < want - 1e-6 * want,
                    "n={n} m={m}: interior cut must be strictly loose \
                     (senders split across the cut): {got} vs {want}"
                );
            }
        }
    }
}
