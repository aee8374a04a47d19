//! Multi-hop burst propagation (paper §4.2.2, "Propagating arrival
//! curves"). Hose-model aggregation across a cut is
//! `silo_placement::Contribution::for_cut_capped`, the form admission
//! reserves.

use crate::curve::Curve;
use silo_base::{Bytes, Dur, Rate};

/// Arrival curve of traffic *after* it egresses a port whose queue is
/// guaranteed to empty at least once every `queue_capacity` (paper
/// §4.2.2, after Kurose '92).
///
/// In the worst case every byte the source may emit over one queue-capacity
/// interval is forwarded back-to-back as a single burst, so the egress burst
/// is `A(c)` while the long-term rate is unchanged. When `line_rate` is
/// given, the burst can physically drain no faster than the egress line, so
/// the curve is additionally capped by `line·t + mtu`.
pub fn propagate_egress(
    ingress: &Curve,
    queue_capacity: Dur,
    line_rate: Option<Rate>,
    mtu: Bytes,
) -> Curve {
    let c = queue_capacity.as_secs_f64();
    let burst = ingress.eval(c);
    let rate = ingress.long_term_rate();
    let tb = Curve::from_lines(vec![crate::curve::Line { rate, burst }]);
    match line_rate {
        Some(line) => tb.min_with(&Curve::token_bucket(line, mtu)),
        None => tb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hose_rate_is_min_of_cut_sides() {
        // A 9-VM `{1 G, 100 KB, 10 G}` tenant cut 6 senders | 3 receivers:
        // the hose caps the sustained rate at min(6,3)·1G = 3 Gbps, but the
        // burst is NOT destination-limited (§4.1): 6·100 KB at 6·Bmax.
        let (m, n) = (6u64, 9u64);
        let cut = Curve::dual_slope(
            Rate::from_gbps(1) * m.min(n - m),
            Bytes::from_kb(100) * m,
            Rate::from_gbps(10) * m,
            Bytes(1500) * m,
        );
        assert!((cut.long_term_rate() - 3.0 * 1.25e8).abs() < 1.0);
        assert!((cut.eval(1.0) - (3.0 * 1.25e8 + 600_000.0)).abs() < 10.0);
        // Egress through a port keeps the hose rate, never the m·B sum.
        let out = propagate_egress(&cut, Dur::from_us(80), None, Bytes(1500));
        assert!((out.long_term_rate() - 3.0 * 1.25e8).abs() < 1.0);
        assert!((out.burst() - cut.eval(80e-6)).abs() < 1e-6);
    }

    #[test]
    fn propagation_inflates_burst_only() {
        // Paper's closing example: a VM with curve A_{B,S} crossing a port
        // with queue capacity c egresses as A_{B, B·c+S}.
        let a = Curve::token_bucket(Rate::from_gbps(1), Bytes::from_kb(10));
        let c = Dur::from_us(80); // 100 KB @ 10G
        let out = propagate_egress(&a, c, None, Bytes(1500));
        assert_eq!(out.long_term_rate(), 1.25e8);
        let expected_burst = 1.25e8 * 80e-6 + 10_000.0;
        assert!((out.burst() - expected_burst).abs() < 1e-6);
    }

    #[test]
    fn propagation_with_line_cap() {
        let a = Curve::token_bucket(Rate::from_gbps(1), Bytes::from_kb(10));
        let out = propagate_egress(&a, Dur::from_us(80), Some(Rate::from_gbps(10)), Bytes(1500));
        // Near t=0 the line-rate cap is active.
        assert_eq!(out.burst(), 1500.0);
        assert_eq!(out.slope_at(0.0), 1.25e9);
        assert_eq!(out.long_term_rate(), 1.25e8);
    }

    #[test]
    fn figure7_packet_bunching() {
        // Fig. 7: f1 at C/2 with a 1-packet burst shares a port with f2;
        // after the switch f1's burst can double. With queue capacity equal
        // to the drain time of the competing mix, the propagated burst for
        // f1 grows past one packet.
        let c10 = Rate::from_gbps(10);
        let pkt = Bytes(1500);
        let f1 = Curve::token_bucket(c10 / 2, pkt);
        // Queue capacity = 2 packets' transmission time (one of each flow
        // may be queued ahead).
        let cap = c10.tx_time(pkt) * 2;
        let out = propagate_egress(&f1, cap, Some(c10), pkt);
        // Burst after egress: A(c) = C/2 · c + 1500 = 3000 B = 2 packets.
        assert!((out.eval(1e-9) - 1500.0).abs() < 10.0); // line cap at t≈0
        let long_burst = out.lines().last().unwrap().burst;
        assert!(
            (long_burst - 3000.0).abs() < 1.0,
            "burst doubled: {long_burst}"
        );
    }
}
