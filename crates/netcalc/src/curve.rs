//! Concave piecewise-linear arrival curves as minima of affine lines.

use silo_base::{Bytes, Rate};

/// One affine piece `f(t) = rate·t + burst` (`rate` in bytes/second,
/// `burst` in bytes, `t` in seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    pub rate: f64,
    pub burst: f64,
}

impl Line {
    pub fn eval(&self, t: f64) -> f64 {
        self.rate * t + self.burst
    }
}

/// True when two breakpoint abscissae are the same point up to float
/// rounding. Breakpoints come out of `(Δburst)/(Δrate)` divisions whose
/// rounding error is *relative* to the magnitude of the result, so an
/// absolute window cannot work at every timescale: near `t = 1 s` genuine
/// duplicates differ by ~1e-15 (a few ULPs) while at microsecond scale the
/// same window would be six orders of magnitude too wide. Use a relative
/// tolerance with a small absolute floor so sub-microsecond breakpoints
/// keep the old exact-ish behaviour.
pub(crate) fn same_breakpoint(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1e-3)
}

/// A concave, non-decreasing, piecewise-linear arrival curve on `t ≥ 0`,
/// stored as the pointwise **minimum** of its lines.
///
/// ```
/// use silo_netcalc::Curve;
/// use silo_base::{Bytes, Rate};
///
/// // A VM guaranteed 1 Gbps with a 100 KB burst drained at 10 Gbps:
/// let a = Curve::dual_slope(
///     Rate::from_gbps(1), Bytes::from_kb(100),
///     Rate::from_gbps(10), Bytes(1500),
/// );
/// // In the first 10 us it can emit at most ~12.5 KB + one MTU…
/// assert!(a.eval(10e-6) <= 14_100.0);
/// // …and over a millisecond the sustained rate dominates.
/// assert!((a.eval(1e-3) - (1.25e8 * 1e-3 + 100_000.0)).abs() < 1.0);
/// ```
///
/// Invariants maintained by `Curve::normalize` (private):
/// * at least one line;
/// * lines sorted by strictly decreasing rate and strictly increasing burst;
/// * every line is active somewhere on `t ≥ 0` (no dominated lines).
///
/// With that invariant, line 0 (steepest, smallest burst) is active at
/// `t = 0` and the last line (shallowest) determines the long-term rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    lines: Vec<Line>,
}

impl Curve {
    /// The classic token bucket `A_{B,S}(t) = B·t + S`.
    pub fn token_bucket(rate: Rate, burst: Bytes) -> Curve {
        Curve::from_lines(vec![Line {
            rate: rate.bytes_per_sec(),
            burst: burst.as_f64(),
        }])
    }

    /// The paper's `A'` (Fig. 6a): a token bucket `{B, S}` whose burst is
    /// drained at `Bmax` rather than instantaneously:
    /// `A'(t) = min(Bmax·t + mtu, B·t + S)`.
    ///
    /// The `mtu` term accounts for the one packet that may already be in
    /// flight when the burst starts (packetized traffic can never be
    /// *perfectly* fluid).
    pub fn dual_slope(b: Rate, s: Bytes, bmax: Rate, mtu: Bytes) -> Curve {
        Curve::from_lines(vec![
            Line {
                rate: bmax.bytes_per_sec(),
                burst: mtu.as_f64(),
            },
            Line {
                rate: b.bytes_per_sec(),
                burst: s.as_f64(),
            },
        ])
    }

    /// Build a curve from raw lines (normalizing away dominated ones).
    pub fn from_lines(mut lines: Vec<Line>) -> Curve {
        let kept = lower_envelope(&mut lines);
        lines.truncate(kept);
        Curve { lines }
    }

    /// The zero curve (a source that never sends).
    pub fn zero() -> Curve {
        Curve {
            lines: vec![Line {
                rate: 0.0,
                burst: 0.0,
            }],
        }
    }

    pub fn lines(&self) -> &[Line] {
        &self.lines
    }

    /// `A(t)` in bytes; `t` in seconds, must be ≥ 0.
    pub fn eval(&self, t: f64) -> f64 {
        eval_lines(&self.lines, t)
    }

    /// Instantaneous burst `A(0)` — the smallest line intercept.
    pub fn burst(&self) -> f64 {
        self.lines[0].burst
    }

    /// Long-term rate (bytes/sec) — the shallowest line's slope.
    pub fn long_term_rate(&self) -> f64 {
        self.lines.last().expect("normalized curve").rate
    }

    /// Right-derivative at `t` (bytes/sec): slope of the active line.
    pub fn slope_at(&self, t: f64) -> f64 {
        let mut best = self.lines[0];
        let mut best_v = best.eval(t);
        for &l in &self.lines[1..] {
            let v = l.eval(t);
            // On ties the *shallower* line wins to the right of a
            // breakpoint. The tie tolerance must scale with the value:
            // at crossings, float rounding is relative, not absolute.
            let tol = 1e-9 * best_v.abs().max(1.0);
            if v < best_v - tol || (v < best_v + tol && l.rate < best.rate) {
                best = l;
                best_v = v;
            }
        }
        best.rate
    }

    /// Breakpoint abscissae: `t = 0` plus each intersection where the active
    /// line changes, in increasing order.
    pub fn breakpoints(&self) -> Vec<f64> {
        breakpoints_of(&self.lines).collect()
    }

    /// Pointwise minimum of two curves — e.g. capping a curve by a link's
    /// line rate.
    pub fn min_with(&self, other: &Curve) -> Curve {
        let mut lines = self.lines.clone();
        lines.extend_from_slice(&other.lines);
        Curve::from_lines(lines)
    }

    /// Pointwise sum — aggregating independent sources at a port.
    ///
    /// The sum of two concave PL functions is concave PL; its breakpoints
    /// are a subset of the union of the operands' breakpoints, so we sum
    /// values and slopes region by region and rebuild the line set.
    pub fn add(&self, other: &Curve) -> Curve {
        let mut ts: Vec<f64> = self
            .breakpoints()
            .into_iter()
            .chain(other.breakpoints())
            .collect();
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ts.dedup_by(|a, b| same_breakpoint(*a, *b));
        let mut lines = Vec::with_capacity(ts.len());
        for &t in &ts {
            let v = self.eval(t) + other.eval(t);
            let s = self.slope_at(t) + other.slope_at(t);
            lines.push(Line {
                rate: s,
                // `v - s·t` is mathematically ≥ 0 for concave non-negative
                // operands but can round a few ULPs below zero when a line
                // passes near the origin; clamp so `from_lines` accepts it.
                burst: (v - s * t).max(0.0),
            });
        }
        Curve::from_lines(lines)
    }

    /// Sum many curves. Returns the zero curve for an empty iterator.
    pub fn sum<'a>(curves: impl IntoIterator<Item = &'a Curve>) -> Curve {
        curves.into_iter().fold(Curve::zero(), |acc, c| acc.add(c))
    }

    /// Scale both rate and burst by `k ≥ 0` — `k` identical independent
    /// sources (same-tenant VMs across a cut are tighter: the hose model
    /// caps their sustained rate at `min(m, N−m)·B`).
    pub fn scale(&self, k: f64) -> Curve {
        assert!(k >= 0.0 && k.is_finite());
        if k == 0.0 {
            return Curve::zero();
        }
        Curve::from_lines(
            self.lines
                .iter()
                .map(|l| Line {
                    rate: l.rate * k,
                    burst: l.burst * k,
                })
                .collect(),
        )
    }
}

/// `min` over `lines` at `t ≥ 0` — [`Curve::eval`] on a bare line set.
pub(crate) fn eval_lines(lines: &[Line], t: f64) -> f64 {
    debug_assert!(t >= 0.0);
    lines
        .iter()
        .map(|l| l.eval(t))
        .fold(f64::INFINITY, f64::min)
}

/// [`Curve::breakpoints`] of an already normalized line set, lazily.
pub(crate) fn breakpoints_of(lines: &[Line]) -> impl Iterator<Item = f64> + '_ {
    std::iter::once(0.0).chain(lines.windows(2).map(|w| {
        let (a, b) = (w[0], w[1]);
        // a.rate > b.rate and a.burst < b.burst by the invariant.
        (b.burst - a.burst) / (a.rate - b.rate)
    }))
}

/// Restore [`Curve`]'s invariant in place: reorder `lines` so that a
/// prefix holds exactly the lower envelope on `t ≥ 0` (strictly decreasing
/// rate, strictly increasing burst) and return that prefix's length.
pub(crate) fn lower_envelope(lines: &mut [Line]) -> usize {
    assert!(!lines.is_empty(), "curve needs at least one line");
    for l in lines.iter() {
        assert!(
            l.rate >= 0.0 && l.burst >= 0.0 && l.rate.is_finite() && l.burst.is_finite(),
            "curve lines must be non-negative and finite, got {l:?}"
        );
    }
    // 1. Pareto-prune: a line with both rate ≥ and burst ≥ another is
    //    never strictly below it on t ≥ 0. Ties on rate break by
    //    burst so the cheaper duplicate is scanned (and kept) first —
    //    otherwise two equal-rate lines could both survive and the
    //    hull pass below would divide by their zero rate difference.
    lines.sort_by(|a, b| {
        a.rate
            .partial_cmp(&b.rate)
            .unwrap()
            .then(a.burst.partial_cmp(&b.burst).unwrap())
    });
    // Scan from shallowest to steepest; keep a line only if its burst is
    // strictly below every burst seen so far (shallower lines). The first
    // line always stays (any finite burst is below infinity).
    let mut pareto = 0;
    let mut min_burst = f64::INFINITY;
    for i in 0..lines.len() {
        let l = lines[i];
        if l.burst < min_burst - 1e-12 {
            lines[pareto] = l;
            pareto += 1;
            min_burst = l.burst;
        }
    }
    // The survivors are sorted by rate asc / burst desc; flip to rate desc.
    lines[..pareto].reverse();

    // 2. Envelope-prune (convex hull trick for minima): drop any middle
    //    line that is not strictly below the envelope of its neighbours
    //    at their crossing. The hull is a stack in `lines[..hull]`, always
    //    at or behind the line being read.
    let mut hull = 0;
    for i in 0..pareto {
        let l = lines[i];
        while hull >= 2 {
            let a = lines[hull - 2];
            let b = lines[hull - 1];
            // Crossing of a (steeper) and l (shallower).
            let t_al = (l.burst - a.burst) / (a.rate - l.rate);
            if b.eval(t_al) >= a.eval(t_al) - 1e-9 {
                hull -= 1;
            } else {
                break;
            }
        }
        lines[hull] = l;
        hull += 1;
    }
    hull
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_base::{Bytes, Rate};

    fn tb(mbps: u64, kb: u64) -> Curve {
        Curve::token_bucket(Rate::from_mbps(mbps), Bytes::from_kb(kb))
    }

    #[test]
    fn token_bucket_eval() {
        let c = tb(800, 10); // 100 KB/s per Mbps -> 1e8 B/s
        assert_eq!(c.burst(), 10_000.0);
        assert_eq!(c.eval(0.0), 10_000.0);
        assert!((c.eval(1.0) - 100_010_000.0).abs() < 1.0);
        assert_eq!(c.long_term_rate(), 1e8);
    }

    #[test]
    fn dual_slope_matches_paper_figure() {
        // A VM with B = 1 Gbps, S = 100 KB, Bmax = 10 Gbps, MTU 1.5 KB.
        let c = Curve::dual_slope(
            Rate::from_gbps(1),
            Bytes::from_kb(100),
            Rate::from_gbps(10),
            Bytes(1500),
        );
        assert_eq!(c.lines().len(), 2);
        // Near zero the Bmax line is active.
        assert!((c.eval(0.0) - 1500.0).abs() < 1e-6);
        assert_eq!(c.slope_at(0.0), 1.25e9);
        // Long after the burst drains, the B line is active.
        assert_eq!(c.slope_at(1.0), 1.25e8);
        // The burst of S = 100 KB drains at Bmax-B = 9 Gbps:
        // crossing at t = (100000-1500)/(1.25e9-1.25e8) ≈ 87.6 us.
        let bps = c.breakpoints();
        assert_eq!(bps.len(), 2);
        assert!((bps[1] - (100_000.0 - 1500.0) / 1.125e9).abs() < 1e-12);
    }

    #[test]
    fn dominated_lines_are_pruned() {
        let c = Curve::from_lines(vec![
            Line {
                rate: 10.0,
                burst: 5.0,
            },
            Line {
                rate: 20.0,
                burst: 9.0,
            }, // dominated: steeper AND higher burst than (10,5)
        ]);
        assert_eq!(c.lines().len(), 1);
        assert_eq!(c.long_term_rate(), 10.0);
    }

    #[test]
    fn equal_rate_lines_keep_the_cheaper_burst() {
        // Regardless of input order, duplicate rates must collapse to the
        // lower intercept — two surviving equal-rate lines would give the
        // hull pass a zero rate difference to divide by.
        for lines in [
            vec![
                Line {
                    rate: 5.0,
                    burst: 2.0,
                },
                Line {
                    rate: 5.0,
                    burst: 7.0,
                },
            ],
            vec![
                Line {
                    rate: 5.0,
                    burst: 7.0,
                },
                Line {
                    rate: 5.0,
                    burst: 2.0,
                },
            ],
        ] {
            let c = Curve::from_lines(lines);
            assert_eq!(c.lines().len(), 1);
            assert_eq!(c.burst(), 2.0);
            assert_eq!(c.long_term_rate(), 5.0);
        }
    }

    #[test]
    fn middle_line_above_envelope_is_pruned() {
        // l1=(10,0), l3=(1,9): cross at t=1, value 10.
        // l2=(5,6) evaluates to 11 at t=1 -> never on the envelope.
        let c = Curve::from_lines(vec![
            Line {
                rate: 10.0,
                burst: 0.0,
            },
            Line {
                rate: 5.0,
                burst: 6.0,
            },
            Line {
                rate: 1.0,
                burst: 9.0,
            },
        ]);
        assert_eq!(c.lines().len(), 2);
    }

    #[test]
    fn middle_line_below_envelope_is_kept() {
        // l2=(5,3) at t=1 gives 8 < 10 -> needed.
        let c = Curve::from_lines(vec![
            Line {
                rate: 10.0,
                burst: 0.0,
            },
            Line {
                rate: 5.0,
                burst: 3.0,
            },
            Line {
                rate: 1.0,
                burst: 9.0,
            },
        ]);
        assert_eq!(c.lines().len(), 3);
        // Envelope evaluation agrees with brute-force min.
        for i in 0..100 {
            let t = i as f64 * 0.05;
            let brute = [10.0 * t, 5.0 * t + 3.0, t + 9.0]
                .into_iter()
                .fold(f64::INFINITY, f64::min);
            assert!((c.eval(t) - brute).abs() < 1e-9);
        }
    }

    #[test]
    fn add_token_buckets() {
        // A_{B1,S1} + A_{B2,S2} = A_{B1+B2, S1+S2} (paper §4.2.2).
        let a = tb(100, 10);
        let b = tb(200, 5);
        let s = a.add(&b);
        assert_eq!(s.lines().len(), 1);
        assert!((s.burst() - 15_000.0).abs() < 1e-6);
        assert!((s.long_term_rate() - 3.75e7).abs() < 1.0);
    }

    #[test]
    fn add_dual_slopes_pointwise() {
        let a = Curve::dual_slope(
            Rate::from_gbps(1),
            Bytes::from_kb(100),
            Rate::from_gbps(10),
            Bytes(1500),
        );
        let b = Curve::dual_slope(
            Rate::from_mbps(250),
            Bytes::from_kb(15),
            Rate::from_gbps(1),
            Bytes(1500),
        );
        let s = a.add(&b);
        for i in 0..1000 {
            let t = i as f64 * 1e-6;
            assert!(
                (s.eval(t) - (a.eval(t) + b.eval(t))).abs() < 1e-3,
                "mismatch at t={t}"
            );
        }
    }

    #[test]
    fn sum_of_none_is_zero() {
        let z = Curve::sum([]);
        assert_eq!(z.eval(1000.0), 0.0);
    }

    #[test]
    fn scale_matches_repeated_add() {
        let a = Curve::dual_slope(
            Rate::from_gbps(1),
            Bytes::from_kb(100),
            Rate::from_gbps(10),
            Bytes(1500),
        );
        let three = a.scale(3.0);
        let added = a.add(&a).add(&a);
        for i in 0..200 {
            let t = i as f64 * 5e-6;
            assert!((three.eval(t) - added.eval(t)).abs() < 1e-3);
        }
    }

    #[test]
    fn min_with_line_rate_cap() {
        let a = tb(1000, 100);
        let cap = Curve::token_bucket(Rate::from_mbps(400), Bytes(1500));
        let m = a.min_with(&cap);
        assert_eq!(m.burst(), 1500.0);
        assert_eq!(m.long_term_rate(), 5e7);
    }

    #[test]
    fn add_merges_near_duplicate_breakpoints_at_second_scale() {
        // Two operands whose crossings both land near t = 2 s but differ by
        // ~1e-13 (well beyond ULP noise at microsecond scale, well within
        // it relative to seconds). The old absolute 1e-15 dedup kept both
        // candidates and built the summed curve on near-duplicate regions;
        // the relative tolerance must merge them into one region.
        let a = Curve::from_lines(vec![
            Line {
                rate: 10.0,
                burst: 0.0,
            },
            Line {
                rate: 1.0,
                burst: 18.0, // crossing at t = 2
            },
        ]);
        let b = Curve::from_lines(vec![
            Line {
                rate: 20.0,
                burst: 0.0,
            },
            Line {
                rate: 2.0,
                burst: 36.0 * (1.0 + 1e-13), // crossing at t = 2 + 2e-13
            },
        ]);
        let s = a.add(&b);
        // One region boundary, two lines — not three.
        assert_eq!(s.lines().len(), 2, "near-dup regions kept: {:?}", s.lines());
        // And the sum still agrees pointwise, including around t = 2.
        for i in 0..400 {
            let t = i as f64 * 0.01;
            assert!(
                (s.eval(t) - (a.eval(t) + b.eval(t))).abs() < 1e-9,
                "mismatch at t={t}"
            );
        }
    }

    #[test]
    fn add_keeps_distinct_second_scale_breakpoints() {
        // Distinct breakpoints at second scale (1.0 and 1.000001) must NOT
        // be merged by the relative tolerance.
        let a = Curve::from_lines(vec![
            Line {
                rate: 10.0,
                burst: 0.0,
            },
            Line {
                rate: 1.0,
                burst: 9.0, // crossing at t = 1
            },
        ]);
        let b = Curve::from_lines(vec![
            Line {
                rate: 20.0,
                burst: 0.0,
            },
            Line {
                rate: 2.0,
                burst: 18.000018, // crossing at t = 1.000001
            },
        ]);
        let s = a.add(&b);
        assert_eq!(s.lines().len(), 3);
        for i in 0..300 {
            let t = 0.99 + i as f64 * 1e-4;
            assert!(
                (s.eval(t) - (a.eval(t) + b.eval(t))).abs() < 1e-9,
                "mismatch at t={t}"
            );
        }
    }

    #[test]
    fn add_clamps_rounded_negative_intercepts() {
        // Lines through the origin with rates that are not exactly
        // representable make `v - s·t` round a few ULPs negative at the
        // crossing; `add` must clamp instead of panicking in `from_lines`.
        let a = Curve::from_lines(vec![
            Line {
                rate: 1.0 / 3.0,
                burst: 0.0,
            },
            Line {
                rate: 0.1,
                burst: 0.7,
            },
        ]);
        let b = Curve::from_lines(vec![Line {
            rate: 1.0 / 7.0,
            burst: 0.0,
        }]);
        let s = a.add(&b);
        assert!(s.burst() >= 0.0);
        for i in 0..100 {
            let t = i as f64 * 0.1;
            assert!((s.eval(t) - (a.eval(t) + b.eval(t))).abs() < 1e-9);
        }
    }

    #[test]
    fn slope_at_breakpoint_is_right_derivative() {
        let c = Curve::from_lines(vec![
            Line {
                rate: 10.0,
                burst: 0.0,
            },
            Line {
                rate: 2.0,
                burst: 8.0,
            },
        ]);
        // Breakpoint at t = 1.
        assert_eq!(c.slope_at(1.0), 2.0);
        assert_eq!(c.slope_at(0.999), 10.0);
    }
    /// Reference oracle: normalization as it stood before it worked in
    /// place — a sorted copy, a Pareto vector, a hull vector.
    fn lower_envelope_reference(lines: &[Line]) -> Vec<Line> {
        let mut lines = lines.to_vec();
        lines.sort_by(|a, b| {
            a.rate
                .partial_cmp(&b.rate)
                .unwrap()
                .then(a.burst.partial_cmp(&b.burst).unwrap())
        });
        let mut pareto: Vec<Line> = Vec::with_capacity(lines.len());
        let mut min_burst = f64::INFINITY;
        for &l in lines.iter() {
            if l.burst < min_burst - 1e-12 || pareto.is_empty() {
                pareto.push(l);
                min_burst = l.burst;
            }
        }
        pareto.reverse();
        let mut hull: Vec<Line> = Vec::with_capacity(pareto.len());
        for l in pareto {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                let t_al = (l.burst - a.burst) / (a.rate - l.rate);
                if b.eval(t_al) >= a.eval(t_al) - 1e-9 {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(l);
        }
        hull
    }

    #[test]
    fn in_place_envelope_matches_the_allocating_reference() {
        use silo_base::prop::{self, Rng};
        prop::forall(
            "lower_envelope (in place) == reference (three vectors)",
            |rng: &mut prop::StdRng| {
                // Few distinct rates and bursts: ties, duplicates and
                // dominated lines are the interesting inputs.
                (0..rng.random_range(1..8usize))
                    .map(|_| Line {
                        rate: f64::from(rng.random_range(0..5u32)) * 1e8
                            + f64::from(rng.random_range(0..2u32)) * rng.random::<f64>(),
                        burst: f64::from(rng.random_range(0..5u32)) * 1500.0
                            + f64::from(rng.random_range(0..2u32)) * rng.random::<f64>(),
                    })
                    .collect::<Vec<Line>>()
            },
            |lines| prop::shrink_vec(lines, |_| Vec::new()),
            |lines| {
                let want = lower_envelope_reference(lines);
                let mut got = lines.clone();
                let kept = lower_envelope(&mut got);
                if got[..kept] == want[..] {
                    Ok(())
                } else {
                    Err(format!("in place {:?} != reference {want:?}", &got[..kept]))
                }
            },
        );
    }
}
