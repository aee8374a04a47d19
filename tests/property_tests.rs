//! Randomized property tests on the core data structures and invariants:
//! network-calculus curves, token buckets, the paced batcher, placement
//! bookkeeping, and the hose allocator.
//!
//! Each property runs 128 independently seeded cases (the seed is part of
//! the failure message), driven by the workspace's deterministic RNG
//! instead of an external property-testing framework.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silo::base::{Bytes, Dur, Rate, Time};
use silo::netcalc::{backlog_bound, queue_delay_bound, Curve, Line, ServiceCurve};
use silo::pacer::{BucketChain, HoseAllocator, PacedBatcher, TokenBucket, VoidChunks, WireFrame};
use silo::placement::{Guarantee, Placer, SiloPlacer, TenantRequest};
use silo::topology::{Topology, TreeParams};

const CASES: u64 = 128;

fn case_rng(property: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(property * 1_000_003 + case)
}

fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.random::<f64>()
}

fn arb_lines(rng: &mut StdRng) -> Vec<Line> {
    let n = rng.random_range(1..6usize);
    (0..n)
        .map(|_| Line {
            rate: uniform(rng, 1.0e6, 1.0e10),
            burst: uniform(rng, 0.0, 1.0e6),
        })
        .collect()
}

/// Normalization never changes the curve's pointwise value.
#[test]
fn curve_envelope_equals_brute_force_min() {
    for case in 0..CASES {
        let rng = &mut case_rng(1, case);
        let lines = arb_lines(rng);
        let curve = Curve::from_lines(lines.clone());
        for _ in 0..8 {
            let t = uniform(rng, 0.0, 1.0);
            let brute = lines
                .iter()
                .map(|l| l.eval(t))
                .fold(f64::INFINITY, f64::min);
            assert!(
                (curve.eval(t) - brute).abs() <= 1e-6 * brute.max(1.0),
                "case {case} t={t}: {} vs {}",
                curve.eval(t),
                brute
            );
        }
    }
}

/// Addition is pointwise: (A+B)(t) = A(t) + B(t).
#[test]
fn curve_addition_is_pointwise() {
    for case in 0..CASES {
        let rng = &mut case_rng(2, case);
        let ca = Curve::from_lines(arb_lines(rng));
        let cb = Curve::from_lines(arb_lines(rng));
        let sum = ca.add(&cb);
        for _ in 0..8 {
            let t = uniform(rng, 0.0, 0.1);
            let expect = ca.eval(t) + cb.eval(t);
            assert!(
                (sum.eval(t) - expect).abs() <= 1e-6 * expect.max(1.0),
                "case {case} t={t}"
            );
        }
    }
}

/// Queue-delay and backlog bounds are consistent for a constant-rate
/// server: backlog = rate x delay.
#[test]
fn deviation_bounds_are_consistent() {
    for case in 0..CASES {
        let rng = &mut case_rng(3, case);
        let a = Curve::from_lines(arb_lines(rng));
        let svc = ServiceCurve::constant_rate(Rate::from_gbps(rng.random_range(1..40u64)));
        match (queue_delay_bound(&a, &svc), backlog_bound(&a, &svc)) {
            (Some(q), Some(b)) => {
                let expect = b / svc.rate;
                assert!(
                    (q - expect).abs() <= 1e-9 + 1e-6 * expect,
                    "case {case}: q={q} b/r={expect}"
                );
            }
            (None, None) => {}
            (q, b) => panic!("case {case}: bounds disagree on finiteness: {q:?} {b:?}"),
        }
    }
}

/// A token bucket never releases more than its curve allows: over any
/// window of emitted stamps, bytes <= rate x window + capacity.
#[test]
fn token_bucket_output_conforms() {
    for case in 0..CASES {
        let rng = &mut case_rng(4, case);
        let rate = Rate::from_mbps(rng.random_range(50..5_000u64));
        let cap = Bytes::from_kb(rng.random_range(2..64u64));
        let sizes: Vec<u64> = (0..rng.random_range(10..80usize))
            .map(|_| rng.random_range(100..1500u64))
            .collect();
        let mut tb = TokenBucket::new(rate, cap);
        let mut stamps: Vec<(Time, u64)> = Vec::new();
        let mut now = Time::ZERO;
        for &s in &sizes {
            let t = tb.earliest(now, Bytes(s));
            tb.commit(t, Bytes(s));
            stamps.push((t, s));
            now = t;
        }
        for i in 0..stamps.len() {
            let mut bytes = 0u64;
            for j in i..stamps.len() {
                bytes += stamps[j].1;
                let window = (stamps[j].0 - stamps[i].0).as_secs_f64();
                let allowed = rate.bytes_per_sec() * window + cap.as_f64() + 1.0;
                assert!(
                    bytes as f64 <= allowed,
                    "case {case} window [{i},{j}]: {bytes} > {allowed}"
                );
            }
        }
    }
}

/// Chains preserve monotone stamps regardless of bucket parameters.
#[test]
fn bucket_chain_stamps_are_monotone() {
    for case in 0..CASES {
        let rng = &mut case_rng(5, case);
        let mut chain = BucketChain::new(vec![
            TokenBucket::new(
                Rate::from_mbps(rng.random_range(100..10_000u64)),
                Bytes(rng.random_range(1500..100_000u64)),
            ),
            TokenBucket::new(
                Rate::from_mbps(rng.random_range(100..10_000u64)),
                Bytes(rng.random_range(1500..100_000u64)),
            ),
        ]);
        let mut prev = Time::ZERO;
        for _ in 0..rng.random_range(5..60usize) {
            let t = chain.stamp(prev, Bytes(1500));
            assert!(t >= prev, "case {case}");
            prev = t;
        }
    }
}

/// The paced batcher never reorders or drops data packets, never emits
/// one before its stamp, and keeps frames non-overlapping.
#[test]
fn batcher_schedule_is_sound() {
    for case in 0..CASES {
        let rng = &mut case_rng(6, case);
        let gaps_us: Vec<u64> = (0..rng.random_range(2..40usize))
            .map(|_| rng.random_range(0..40u64))
            .collect();
        let link = Rate::from_gbps(10);
        let mut b: PacedBatcher<usize> = PacedBatcher::new(link, Dur::from_us(50), Bytes(1500));
        let mut stamp = Time::ZERO;
        let mut stamps = Vec::new();
        for (i, g) in gaps_us.iter().enumerate() {
            stamp += Dur::from_us(*g);
            b.enqueue(stamp, Bytes(1500), i);
            stamps.push(stamp);
        }
        let mut now = Time::ZERO;
        let mut seen = Vec::new();
        let mut wire_end = Time::ZERO;
        for _ in 0..10_000 {
            let batch = b.next_batch(now);
            if batch.is_empty() {
                match b.next_stamp() {
                    Some(s) => {
                        now = s.max(now);
                        continue;
                    }
                    None => break,
                }
            }
            for f in &batch.frames {
                assert!(f.start() >= wire_end, "case {case}: overlapping frames");
                match *f {
                    WireFrame::Data {
                        start,
                        size,
                        payload: id,
                    } => {
                        assert!(start >= stamps[id], "case {case}: packet {id} left early");
                        seen.push(id);
                        wire_end = start + link.tx_time(size);
                    }
                    WireFrame::Void { start, gap_end, .. } => {
                        let mut chunks = VoidChunks::new(start, gap_end, link, Bytes(1500));
                        for (s, size) in chunks.by_ref() {
                            assert!(s >= wire_end, "case {case}: overlapping voids");
                            wire_end = s + link.tx_time(size);
                        }
                        assert_eq!(chunks.cursor(), wire_end);
                    }
                }
            }
            now = batch.done_at;
        }
        // All packets delivered, in order.
        assert_eq!(seen.len(), gaps_us.len(), "case {case}");
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "case {case}");
    }
}

/// Hose allocation never violates either endpoint's hose.
#[test]
fn hose_allocation_respects_hoses() {
    for case in 0..CASES {
        let rng = &mut case_rng(7, case);
        let pairs: Vec<(u32, u32)> = (0..rng.random_range(1..20usize))
            .map(|_| (rng.random_range(0..6u32), rng.random_range(0..6u32)))
            .filter(|(s, d)| s != d)
            .collect();
        if pairs.is_empty() {
            continue;
        }
        let mut uniq = pairs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let b = Rate::from_gbps(1);
        let rates = HoseAllocator::new(b).allocate(&uniq);
        let mut tx = std::collections::HashMap::new();
        let mut rx = std::collections::HashMap::new();
        for (&(s, d), r) in &rates {
            *tx.entry(s).or_insert(0u64) += r.as_bps();
            *rx.entry(d).or_insert(0u64) += r.as_bps();
        }
        for (_, &sum) in tx.iter().chain(rx.iter()) {
            assert!(
                sum as f64 <= b.as_bps() as f64 * 1.01,
                "case {case}: hose violated: {sum}"
            );
        }
    }
}

/// Placement bookkeeping: admit/remove round trips leave the placer able
/// to admit exactly the same set again (no capacity leaks).
#[test]
fn placement_admit_remove_no_leak() {
    for case in 0..CASES {
        let rng = &mut case_rng(8, case);
        let sizes: Vec<usize> = (0..rng.random_range(1..8usize))
            .map(|_| rng.random_range(2..12usize))
            .collect();
        let topo = Topology::build(TreeParams {
            pods: 1,
            racks_per_pod: 2,
            servers_per_rack: 4,
            vm_slots_per_server: 4,
            ..TreeParams::ns2_paper()
        });
        let mut placer = SiloPlacer::new(topo);
        let reqs: Vec<TenantRequest> = sizes
            .iter()
            .map(|&n| TenantRequest::new(n, Guarantee::class_a()))
            .collect();
        let first: Vec<_> = reqs
            .iter()
            .map(|r| placer.try_place(r).map(|p| p.tenant))
            .collect();
        // Remove everything that was admitted.
        for t in first.iter().flatten() {
            assert!(placer.remove(*t), "case {case}");
        }
        assert_eq!(placer.used_slots(), 0, "case {case}");
        // The same sequence must be admitted identically.
        let second: Vec<_> = reqs
            .iter()
            .map(|r| placer.try_place(r).map(|p| p.tenant))
            .collect();
        assert_eq!(
            first.iter().map(Result::is_ok).collect::<Vec<_>>(),
            second.iter().map(Result::is_ok).collect::<Vec<_>>(),
            "case {case}"
        );
    }
}
