//! Guarantee sizing: from a workload profile to a `{B, S, d, Bmax}`
//! guarantee.
//!
//! The paper assumes tenants arrive knowing their guarantees and points
//! at Cicada \[43\] for inferring bandwidth automatically (§4.1). This
//! module closes that loop for the repository: given a coarse profile of
//! an application's messaging behavior, recommend a guarantee that makes
//! its target message latency *provable* via §4.1's bound — using the
//! burst/bandwidth trade-off the paper quantifies in Table 1.

use crate::guarantee::Guarantee;
use silo_base::{Bytes, Dur, Rate};

/// What the tenant knows about one VM's traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Typical message size the latency target applies to.
    pub msg_size: Bytes,
    /// Mean messages per second emitted by one VM.
    pub msg_rate: f64,
    /// Largest simultaneous fan-in the application creates (1 for
    /// pairwise traffic, N−1 for partition/aggregate).
    pub fan_in: usize,
    /// Desired end-to-end latency for a `msg_size` message.
    pub target_latency: Dur,
}

/// Why no guarantee can be recommended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvisorError {
    /// The target is below the pure transmission time at the fastest
    /// supported burst rate — no network guarantee can achieve it.
    TargetBelowTransmission,
}

/// Table 1's operating point: guaranteeing ~1.8× the average bandwidth
/// with a burst allowance of ~7 messages leaves ≈0.1 % of Poisson
/// messages late; we round the burst up and keep the bandwidth multiplier.
const BANDWIDTH_HEADROOM: f64 = 1.8;
const BURST_MESSAGES: u64 = 7;

/// Recommend a guarantee for the profile, given the burst rates the
/// provider offers (typically 1 Gbps or the line rate).
///
/// The recommendation satisfies, by construction:
/// `guarantee.message_latency_bound(msg_size) ≤ target_latency`, while
/// leaving the largest possible share of the target as packet-delay
/// budget `d` (slack the placement manager can spend on queueing).
pub fn recommend(profile: &WorkloadProfile, bmax: Rate) -> Result<Guarantee, AdvisorError> {
    assert!(profile.msg_rate > 0.0 && profile.fan_in >= 1);
    let tx = bmax.tx_time(profile.msg_size);
    if tx >= profile.target_latency {
        return Err(AdvisorError::TargetBelowTransmission);
    }
    // Average offered bandwidth; the hose must also absorb the fan-in
    // (all-to-one senders share the receiver's hose, §4.1).
    let avg_bps = profile.msg_size.bits() as f64 * profile.msg_rate * profile.fan_in as f64;
    let b = Rate::from_bps((avg_bps * BANDWIDTH_HEADROOM).ceil().max(1e6) as u64);
    // Burst: 7 messages (Table 1), but at least one MTU.
    let s = Bytes((profile.msg_size.as_u64() * BURST_MESSAGES).max(1500));
    // The whole remaining budget becomes the delay guarantee.
    let d = profile.target_latency - tx;
    Ok(Guarantee {
        b,
        s,
        bmax,
        delay: Some(d),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oldi() -> WorkloadProfile {
        WorkloadProfile {
            msg_size: Bytes::from_kb(15),
            msg_rate: 100.0,
            fan_in: 40,
            target_latency: Dur::from_ms(2),
        }
    }

    #[test]
    fn recommendation_proves_the_target() {
        let g = recommend(&oldi(), Rate::from_gbps(1)).unwrap();
        let bound = g.message_latency_bound(Bytes::from_kb(15)).unwrap();
        assert!(bound <= Dur::from_ms(2), "bound {bound}");
    }

    #[test]
    fn burst_covers_seven_messages() {
        let g = recommend(&oldi(), Rate::from_gbps(1)).unwrap();
        assert_eq!(g.s, Bytes::from_kb(105));
    }

    #[test]
    fn bandwidth_covers_fan_in_with_headroom() {
        let g = recommend(&oldi(), Rate::from_gbps(1)).unwrap();
        // 15 KB x 100/s x 40 = 480 Mbps average -> 864 Mbps guaranteed.
        let expect = 15_000.0 * 8.0 * 100.0 * 40.0 * 1.8;
        assert!((g.b.as_bps() as f64 - expect).abs() / expect < 0.01);
    }

    #[test]
    fn impossible_target_is_refused() {
        let mut p = oldi();
        p.target_latency = Dur::from_us(50); // 15 KB at 1 G is 120 us
        assert_eq!(
            recommend(&p, Rate::from_gbps(1)),
            Err(AdvisorError::TargetBelowTransmission)
        );
    }

    #[test]
    fn faster_burst_rate_buys_delay_budget() {
        let g1 = recommend(&oldi(), Rate::from_gbps(1)).unwrap();
        let g10 = recommend(&oldi(), Rate::from_gbps(10)).unwrap();
        assert!(g10.delay.unwrap() > g1.delay.unwrap());
    }

    #[test]
    fn tiny_messages_get_floor_values() {
        let p = WorkloadProfile {
            msg_size: Bytes(100),
            msg_rate: 1.0,
            fan_in: 1,
            target_latency: Dur::from_ms(1),
        };
        let g = recommend(&p, Rate::from_gbps(1)).unwrap();
        assert!(g.s >= Bytes(1500));
        assert!(g.b >= Rate::from_mbps(1));
    }
}
