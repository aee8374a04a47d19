//! Per-port load accumulators and the O(1) admission check (constraint C1).

use silo_base::{Bytes, Dur, Rate};
use silo_netcalc::Line;

/// Headroom factor on every sustained-rate admission check: reservations
/// may claim at most this fraction of a line's rate. A port reserved to
/// exactly 100% is only *marginally* stable — any real pacer's
/// quantization makes its queue random-walk upward — so both the NIC
/// check in `SiloPlacer::check_candidate` and the switch-port check in
/// [`PortLoad::fits`] keep 3% in reserve. Admission, `degrade`
/// re-validation, and `reserved_fraction` reporting must all use this one
/// constant: a tenant admitted at exactly the boundary has to survive a
/// `fail_link`/`restore_link` re-validation cycle unchanged.
pub const NIC_HEADROOM: f64 = 0.97;

/// One tenant's traffic contribution at one port, in curve-summary form.
/// All fields are linear in the tenant, so departures subtract exactly.
///
/// The contribution stands for the two-line curve
/// `min( burst_rate·t + mtu_bytes , rate·t + burst )`. At a tenant's
/// *first* switch hop the burst-rate line is `m·Bmax` (the pacers enforce
/// it). After any switch hop, queues can re-bunch packets up to the
/// upstream *line* rate, so `Bmax` no longer bounds arrival speed — the
/// contribution is then flagged [`Contribution::rate_unbounded`] and the
/// check falls back to the port's physical ingress capacity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Contribution {
    /// Hose-capped sustained rate crossing the port, bytes/sec:
    /// `min(m, N−m)·B`.
    pub rate: f64,
    /// Worst-case burst crossing the port, bytes, after Kurose inflation
    /// by each upstream switch port's queue capacity.
    pub burst: f64,
    /// Rate at which the burst can arrive, bytes/sec (`m·Bmax`), valid
    /// only when `rate_unbounded` is false.
    pub burst_rate: f64,
    /// In-flight packet allowance, bytes: `m·MTU`.
    pub mtu_bytes: f64,
    /// True once the traffic has crossed a switch queue: its burst can
    /// then arrive at upstream line rate.
    pub rate_unbounded: bool,
}

impl Contribution {
    /// Contribution of a tenant cut with `m` senders out of `n` VMs and
    /// per-VM guarantee `{b, s, bmax}`, after crossing the upstream switch
    /// ports whose queue capacities are `prior` (empty at the first hop),
    /// with the burst arrival rate capped by `access_cap` — the combined
    /// line rate of the sending-side hosts' NICs, which the burst can
    /// never physically exceed (Fig. 5's "800 KB *at 20 Gbps*").
    ///
    /// Burst propagation follows the paper (§4.2.2): each traversed port
    /// with queue capacity `c` may re-emit everything the cut can send in
    /// an interval `c` as one burst, so the burst becomes `A(c)` of the
    /// ingress curve at that hop.
    #[allow(clippy::too_many_arguments)]
    pub fn for_cut_capped(
        m: usize,
        n: usize,
        b: Rate,
        s: Bytes,
        bmax: Rate,
        mtu: Bytes,
        prior: &[Dur],
        access_cap: Rate,
    ) -> Contribution {
        debug_assert!(m >= 1 && m < n, "cut needs senders and receivers");
        let hose = b.bytes_per_sec() * m.min(n - m) as f64;
        let burst_rate = (bmax.bytes_per_sec() * m as f64).min(access_cap.bytes_per_sec());
        let mtu_b = mtu.as_f64() * m as f64;
        let mut burst = s.as_f64() * m as f64;
        for (k, c) in prior.iter().enumerate() {
            let t = c.as_secs_f64();
            // Ingress curve at this hop: the burst-rate line only applies
            // before the first switch (k == 0).
            let by_rate_line = if k == 0 {
                burst_rate * t + mtu_b
            } else {
                f64::INFINITY
            };
            let a_c = by_rate_line.min(hose * t + burst);
            burst = a_c;
        }
        Contribution {
            rate: hose,
            burst,
            burst_rate,
            mtu_bytes: mtu_b,
            rate_unbounded: !prior.is_empty(),
        }
    }
}

/// Aggregated load at one port: linear sums over admitted tenants'
/// [`Contribution`]s.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PortLoad {
    pub rate: f64,
    pub burst: f64,
    pub burst_rate: f64,
    pub mtu_bytes: f64,
    /// Number of contributions whose burst arrival rate is bounded only by
    /// the physical ingress capacity.
    pub unbounded: u32,
}

impl PortLoad {
    pub fn add(&mut self, c: &Contribution) {
        self.rate += c.rate;
        self.burst += c.burst;
        self.burst_rate += c.burst_rate;
        self.mtu_bytes += c.mtu_bytes;
        if c.rate_unbounded {
            self.unbounded += 1;
        }
    }

    /// The two lines whose minimum is this load's aggregate arrival curve,
    /// with the burst rate capped by the switch's physical ingress capacity.
    fn lines(&self, ingress_cap: Rate) -> [Line; 2] {
        let cap = ingress_cap.bytes_per_sec();
        let r1 = if self.unbounded > 0 {
            cap
        } else {
            self.burst_rate.min(cap)
        };
        [
            Line {
                rate: r1,
                burst: self.mtu_bytes,
            },
            Line {
                rate: self.rate,
                burst: self.burst.max(self.mtu_bytes),
            },
        ]
    }

    /// The unrounded [`PortLoad::backlog`]: the two lines' bound in closed
    /// form ([`two_line_backlog`]).
    fn bound(&self, line: Rate, ingress_cap: Rate) -> Option<f64> {
        let [a, b] = self.lines(ingress_cap);
        two_line_backlog(a, b, line)
    }

    /// Worst-case buffer occupancy at a port with the given line rate and
    /// ingress capacity; `None` when the sustained rate alone oversubscribes
    /// the line (unbounded queue).
    pub fn backlog(&self, line: Rate, ingress_cap: Rate) -> Option<Bytes> {
        self.bound(line, ingress_cap)
            .map(|b| Bytes(b.round() as u64))
    }

    /// Constraint C1: does the worst case fit the port buffer? That is,
    /// is [`PortLoad::backlog`] at most `buffer`? Every admission check of
    /// every candidate port lands here, so the rounding is a comparison
    /// (`rounds_within`).
    ///
    /// Sustained reservations are additionally capped at
    /// [`NIC_HEADROOM`] × line rate (see the constant for why).
    pub fn fits(&self, line: Rate, ingress_cap: Rate, buffer: Bytes) -> bool {
        if self.rate > line.bytes_per_sec() * NIC_HEADROOM {
            return false;
        }
        self.bound(line, ingress_cap)
            .is_some_and(|b| rounds_within(b, buffer))
    }

    /// The queue (delay) bound this load implies — proportional to the
    /// backlog for a constant-rate server.
    pub fn queue_bound(&self, line: Rate, ingress_cap: Rate) -> Option<Dur> {
        self.backlog(line, ingress_cap).map(|b| line.tx_time(b))
    }

    pub fn with(&self, c: &Contribution) -> PortLoad {
        let mut l = *self;
        l.add(c);
        l
    }
}

/// `round(b) <= buffer` for a bound `b ≥ 0`, without `f64::round` (a
/// libm call): `b` rounds (half away from zero) to at most `buffer`
/// exactly when it is below `buffer + 0.5`, and that sum is exact for any
/// buffer under 2^52 bytes.
fn rounds_within(b: f64, buffer: Bytes) -> bool {
    debug_assert!(buffer.as_u64() < 1 << 52, "buffer + 0.5 must be exact");
    b < buffer.as_f64() + 0.5
}

/// `silo_netcalc::backlog_bound(&Curve::from_lines(vec![a, b]),
/// &ServiceCurve::constant_rate(line))`, in closed form and bit for bit:
/// the same float operations in the same order, with the ones whose
/// result is known dropped. Two lines need no sort loop, no hull pass and
/// no breakpoint iterator, and their curve is never built.
///
/// What the general path does with two lines:
/// * `lower_envelope` checks both are finite and non-negative, sorts them
///   by (rate, burst), and keeps the steeper one only if its burst is
///   more than `1e-12` below the shallower's (Pareto);
/// * `backlog_bound` refuses a long-term (shallowest) rate above the
///   line's, then takes the largest `A(t) − β(t)` over `t = 0`, the one
///   breakpoint if both lines were kept, and `t = 0` again (the server's
///   zero latency). `β(0)` is `+0.0`, so subtracting it changes no bits;
///   the steeper line is never NaN at either `t`, so `eval`'s fold from
///   `+∞` is its first value.
///
/// # Panics
///
/// If a line is negative, infinite or NaN, as `Curve::from_lines` does.
fn two_line_backlog(a: Line, b: Line, line: Rate) -> Option<f64> {
    for l in [a, b] {
        assert!(
            l.rate >= 0.0 && l.burst >= 0.0 && l.rate.is_finite() && l.burst.is_finite(),
            "curve lines must be non-negative and finite, got {l:?}"
        );
    }
    // The stable sort: `b` goes first only if it is strictly smaller.
    let (lo, hi) = if (b.rate, b.burst) < (a.rate, a.burst) {
        (b, a)
    } else {
        (a, b)
    };
    let rate = line.bytes_per_sec();
    if lo.rate > rate * (1.0 + 1e-12) {
        return None;
    }
    if hi.burst < lo.burst - 1e-12 {
        // Both lines kept, `hi` strictly steeper: they cross at `t > 0`.
        let at_zero = hi.eval(0.0).min(lo.eval(0.0));
        let t = (lo.burst - hi.burst) / (hi.rate - lo.rate);
        let at_t = hi.eval(t).min(lo.eval(t)) - rate * t;
        Some(0.0f64.max(at_zero).max(at_t).max(at_zero))
    } else {
        let at_zero = lo.eval(0.0);
        Some(0.0f64.max(at_zero).max(at_zero))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_netcalc::{backlog_bound, Curve, ServiceCurve};

    /// The two-line aggregate arrival curve a load implies: what
    /// `PortLoad::backlog` bounds, as a `Curve` to hold it to.
    fn curve(l: &PortLoad, ingress_cap: Rate) -> Curve {
        Curve::from_lines(l.lines(ingress_cap).to_vec())
    }

    fn class_a_cut(m: usize, n: usize, prior: &[Dur]) -> Contribution {
        Contribution::for_cut_capped(
            m,
            n,
            Rate::from_mbps(250),
            Bytes::from_kb(15),
            Rate::from_gbps(1),
            Bytes(1500),
            prior,
            Rate(u64::MAX),
        )
    }

    #[test]
    fn contribution_hose_cap() {
        let c = class_a_cut(6, 9, &[]);
        // min(6,3)·0.25 Gbps = 0.75 Gbps = 93.75 MB/s.
        assert!((c.rate - 0.75e9 / 8.0).abs() < 1.0);
        assert!((c.burst - 90_000.0).abs() < 1e-6);
        assert!((c.burst_rate - 6.0 * 1.25e8).abs() < 1.0);
        assert!(!c.rate_unbounded);
    }

    /// A first-hop cut of the Fig. 5 tenant (9 VMs, `{1 G, 100 KB,
    /// 10 G}`) with `m` senders and no access-link cap.
    fn fig5_cut(m: usize) -> Contribution {
        Contribution::for_cut_capped(
            m,
            9,
            Rate::from_gbps(1),
            Bytes::from_kb(100),
            Rate::from_gbps(10),
            Bytes(1500),
            &[],
            Rate(u64::MAX),
        )
    }

    #[test]
    fn burst_scales_with_senders() {
        // The burst is not destination-limited (§4.1): 8 senders burst
        // 8·S at 8·Bmax, with 8 packets in flight.
        let c = fig5_cut(8);
        assert_eq!(c.burst_rate, 8.0 * 1.25e9);
        assert_eq!(c.burst, 8.0 * 100_000.0);
        assert_eq!(c.mtu_bytes, 8.0 * 1500.0);
    }

    #[test]
    fn tighter_than_naive_scaling() {
        // The naive sum of m VM curves sustains m·B; the hose model caps
        // the cut at min(m, n−m)·B — strictly tighter when m > n/2.
        let b = Rate::from_gbps(1).bytes_per_sec();
        assert_eq!(fig5_cut(8).rate, b);
        assert!(fig5_cut(8).rate < 8.0 * b);
        assert_eq!(fig5_cut(4).rate, 4.0 * b);
    }

    #[test]
    fn figure5_more_crossing_senders_need_more_buffer() {
        // Without physical link caps, the cut contributions still order
        // the two Fig. 5 placements correctly: 8 crossing senders always
        // need strictly more buffering than 6.
        let backlog = |m| {
            let l = PortLoad::default().with(&fig5_cut(m));
            l.backlog(Rate::from_gbps(10), Rate::from_gbps(4000))
                .unwrap()
        };
        let (b8, b6) = (backlog(8), backlog(6));
        assert!(b8 > b6, "8-sender cut {b8} vs 6-sender cut {b6}");
        assert!(b8.as_u64() > 400_000, "{b8}");
    }

    #[test]
    fn burst_inflation_bounded_by_hose_line() {
        let c0 = class_a_cut(4, 9, &[]);
        let c1 = class_a_cut(4, 9, &[Dur::from_us(250)]);
        // One hop of 250 us inflation: at most hose·c extra, and at most
        // what the burst-rate line allows.
        assert!(c1.burst <= c0.burst + c0.rate * 250e-6 + 1e-6);
        assert!(c1.burst <= c0.burst_rate * 250e-6 + c0.mtu_bytes + 1e-6);
        assert!(c1.rate_unbounded);
    }

    #[test]
    fn second_hop_ignores_bmax() {
        // After the first switch, the Bmax line no longer limits arrivals,
        // so the second hop inflates along the hose line.
        let one = class_a_cut(4, 9, &[Dur::from_us(250)]);
        let two = class_a_cut(4, 9, &[Dur::from_us(250), Dur::from_us(250)]);
        assert!((two.burst - (one.burst + one.rate * 250e-6)).abs() < 1e-6);
    }

    #[test]
    fn fits_rejects_oversubscribed_rate() {
        let mut l = PortLoad::default();
        // 12 × min(4,4)·0.25 G = 12 Gbps sustained through 10 Gbps.
        for _ in 0..12 {
            l.add(&Contribution::for_cut_capped(
                4,
                8,
                Rate::from_gbps(1),
                Bytes(1500),
                Rate::from_gbps(1),
                Bytes(1500),
                &[],
                Rate(u64::MAX),
            ));
        }
        assert!(!l.fits(
            Rate::from_gbps(10),
            Rate::from_gbps(400),
            Bytes::from_kb(312)
        ));
    }

    #[test]
    fn fits_small_load() {
        let l = PortLoad::default().with(&class_a_cut(6, 9, &[]));
        assert!(l.fits(
            Rate::from_gbps(10),
            Rate::from_gbps(400),
            Bytes::from_kb(312)
        ));
    }

    #[test]
    fn ingress_cap_tightens_backlog() {
        // Fig. 5 through the PortLoad API. Tenant: 9 VMs,
        // {1 G, 100 KB, 10 G}; 6 senders cross; ingress physically capped
        // at 20 G (two server NICs).
        let c = Contribution::for_cut_capped(
            6,
            9,
            Rate::from_gbps(1),
            Bytes::from_kb(100),
            Rate::from_gbps(10),
            Bytes(1500),
            &[],
            Rate(u64::MAX),
        );
        let l = PortLoad::default().with(&c);
        let capped = l.backlog(Rate::from_gbps(10), Rate::from_gbps(20)).unwrap();
        let uncapped = l
            .backlog(Rate::from_gbps(10), Rate::from_gbps(4000))
            .unwrap();
        assert!(capped < uncapped, "{capped} < {uncapped}");
        // ~354 KB with the cap (paper's simplified arithmetic says 300 KB).
        assert!(
            capped.as_u64() > 330_000 && capped.as_u64() < 370_000,
            "{capped}"
        );
    }

    /// The closed form against the definition it replaced: the bound of
    /// the `Curve` built from the same two lines, bit for bit and `None`
    /// for the same loads, and `backlog` / `fits` against its rounding.
    fn closed_form_matches_the_curve(load: &PortLoad, cap: Rate) -> Result<(), String> {
        let line = Rate::from_gbps(10);
        let want = backlog_bound(&curve(load, cap), &ServiceCurve::constant_rate(line));
        let got = load.bound(line, cap);
        if got.map(f64::to_bits) != want.map(f64::to_bits) {
            return Err(format!("closed form {got:?} != via Curve {want:?}"));
        }
        let rounded = want.map(|b| b.round() as u64);
        if load.backlog(line, cap) != rounded.map(Bytes) {
            return Err(format!(
                "backlog {:?} != {rounded:?}",
                load.backlog(line, cap)
            ));
        }
        let within_rate = load.rate <= line.bytes_per_sec() * NIC_HEADROOM;
        let r = rounded.unwrap_or(0);
        for buffer in [r.saturating_sub(1), r, r + 1] {
            let want = within_rate && rounded.is_some_and(|b| b <= buffer);
            if load.fits(line, cap, Bytes(buffer)) != want {
                return Err(format!("fits at buffer {buffer} is not {want}"));
            }
        }
        Ok(())
    }

    /// `PortLoad`'s closed-form two-line bound is `backlog_bound` of the
    /// `Curve` of its lines, bit for bit: first on the edges of the
    /// general path (equal rates, the sustained line's burst at or within
    /// the `1e-12` Pareto tolerance of the MTU line's, an unbounded
    /// contribution, overload), then on random loads around them.
    #[test]
    fn backlog_is_the_bound_of_the_curve() {
        use silo_base::prop::{self, Rng};
        let line = 1.25e9;
        let load =
            |rate: f64, burst: f64, burst_rate: f64, mtu_bytes: f64, unbounded: u32| PortLoad {
                rate,
                burst,
                burst_rate,
                mtu_bytes,
                unbounded,
            };
        let edges = [
            // Equal rates, the MTU line's burst the smaller, then equal.
            load(6e8, 9e4, 6e8, 3e3, 0),
            load(6e8, 0.0, 6e8, 3e3, 0),
            // The sustained line's burst equal to the MTU line's, then
            // within and just past the Pareto tolerance.
            load(4e8, 1500.0, 2e9, 1500.0, 0),
            load(4e8, 1500.0 + 5e-13, 2e9, 1500.0, 0),
            load(4e8, 1500.0 + 2e-12, 2e9, 1500.0, 0),
            load(4e8, 1e-13, 2e9, 0.0, 0),
            // An unbounded contribution: the ingress capacity is the rate.
            load(4e8, 9e4, 2e8, 3e3, 2),
            // Overload, slightly and by far: no bound.
            load(line * (1.0 + 1e-11), 9e4, 2e9, 3e3, 0),
            load(2e9, 9e4, 2e9, 3e3, 1),
            // Exactly the line rate: bounded.
            load(line, 9e4, 2e9, 3e3, 0),
            PortLoad::default(),
        ];
        for l in &edges {
            if let Err(e) = closed_form_matches_the_curve(l, Rate::from_gbps(400)) {
                panic!("{l:?}: {e}");
            }
        }
        prop::forall(
            "PortLoad's closed-form bound == backlog_bound(curve), bit for bit",
            |rng| {
                let cap = Rate::from_gbps(rng.random_range(1..400u64));
                let unbounded = rng.random_range(0..3u32);
                let burst_rate = match rng.random_range(0..4u32) {
                    0 => 0.0,
                    1 => line,
                    _ => rng.random::<f64>() * 2.5e9,
                };
                // The MTU line's rate, as `lines` caps it.
                let r1 = if unbounded > 0 {
                    cap.bytes_per_sec()
                } else {
                    burst_rate.min(cap.bytes_per_sec())
                };
                let mtu_bytes = 1500.0 * f64::from(rng.random_range(0..40u32));
                // Rates around the line's, half of the random ones above
                // it (overload), and equal to the MTU line's.
                let rate = match rng.random_range(0..5u32) {
                    0 => 0.0,
                    1 => line,
                    2 => r1,
                    _ => rng.random::<f64>() * 2.5e9,
                };
                // Below the MTU (the line's burst is then the MTU's), at
                // it, within `1e-12` of it or just past, or anywhere.
                let burst = match rng.random_range(0..4u32) {
                    0 => 0.0,
                    1 => mtu_bytes,
                    2 => mtu_bytes + f64::from(rng.random_range(0..20u32)) * 1e-13,
                    _ => rng.random::<f64>() * 1e6,
                };
                (load(rate, burst, burst_rate, mtu_bytes, unbounded), cap)
            },
            |_| Vec::new(),
            |(load, cap)| closed_form_matches_the_curve(load, *cap),
        );
    }

    /// `rounds_within` is `round(b) <= buffer` on both sides of every
    /// half-byte edge: at `buffer ± 0.5` and one ulp either side.
    #[test]
    fn fits_edge_matches_round() {
        for buffer in [0u64, 1, 1500, 319_488, 2_555_904, 1 << 40] {
            let b = buffer as f64;
            for edge in [b - 0.5, b + 0.5] {
                for x in [edge.next_down(), edge, edge.next_up()] {
                    if x < 0.0 {
                        continue;
                    }
                    let want = (x.round() as u64) <= buffer;
                    assert_eq!(
                        rounds_within(x, Bytes(buffer)),
                        want,
                        "b = {x}, buffer {buffer}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn two_line_backlog_refuses_a_nan_line() {
        let nan = Line {
            rate: f64::NAN,
            burst: 1500.0,
        };
        let ok = Line {
            rate: 1e8,
            burst: 9e4,
        };
        let _ = two_line_backlog(ok, nan, Rate::from_gbps(10));
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn two_line_backlog_refuses_a_negative_line() {
        let neg = Line {
            rate: 1e8,
            burst: -1.0,
        };
        let ok = Line {
            rate: 1e9,
            burst: 1500.0,
        };
        let _ = two_line_backlog(neg, ok, Rate::from_gbps(10));
    }

    #[test]
    fn unbounded_contribution_uses_ingress_cap() {
        let c = class_a_cut(6, 9, &[Dur::from_us(250)]);
        let l = PortLoad::default().with(&c);
        // burst_rate sum says 6 Gbps, but the flag forces the cap (80 G).
        let curve = curve(&l, Rate::from_gbps(80));
        assert!((curve.slope_at(0.0) - 1e10).abs() < 1.0);
    }

    #[test]
    fn queue_bound_scales_with_line_rate() {
        let l = PortLoad::default().with(&class_a_cut(6, 9, &[]));
        let q10 = l
            .queue_bound(Rate::from_gbps(10), Rate::from_gbps(400))
            .unwrap();
        let q40 = l
            .queue_bound(Rate::from_gbps(40), Rate::from_gbps(400))
            .unwrap();
        assert!(q40 < q10);
    }
}
