//! Tenant network guarantees (paper §4.1, Fig. 4) and latency arithmetic.

use silo_base::{Bytes, Dur, Rate};

/// The `{B, S, d, Bmax}` network guarantee attached to each VM of a tenant.
///
/// * every VM can send and receive at sustained rate `b`;
/// * a VM that under-used its guarantee may burst `s` bytes at up to `bmax`;
/// * each bandwidth-compliant packet is delivered NIC-to-NIC within
///   `delay` (when `Some`; bandwidth-only tenants use `None`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Guarantee {
    pub b: Rate,
    pub s: Bytes,
    pub bmax: Rate,
    pub delay: Option<Dur>,
}

impl Guarantee {
    /// Bandwidth-only guarantee (the paper's class-B / Oktopus-style).
    pub fn bandwidth_only(b: Rate) -> Guarantee {
        Guarantee {
            b,
            s: Bytes(1500),
            bmax: b,
            delay: None,
        }
    }

    /// The paper's class-A preset (Table 3): delay-sensitive OLDI-style
    /// tenants — 0.25 Gbps, 15 KB burst, 1 ms delay, 1 Gbps burst rate.
    pub fn class_a() -> Guarantee {
        Guarantee {
            b: Rate::from_mbps(250),
            s: Bytes::from_kb(15),
            bmax: Rate::from_gbps(1),
            delay: Some(Dur::from_us(1000)),
        }
    }

    /// The paper's class-B preset (Table 3): bandwidth-sensitive tenants —
    /// 2 Gbps, 1.5 KB burst, no delay guarantee.
    pub fn class_b() -> Guarantee {
        Guarantee {
            b: Rate::from_gbps(2),
            s: Bytes(1500),
            bmax: Rate::from_gbps(2),
            delay: None,
        }
    }

    /// The message latency guarantee a tenant can derive for itself
    /// (paper §4.1, "Calculating latency guarantee"):
    ///
    /// * `M ≤ S`: the whole message rides the burst allowance —
    ///   `M/Bmax + d`;
    /// * `M > S`: the burst covers the first `S` bytes —
    ///   `S/Bmax + (M−S)/B + d`.
    ///
    /// Returns `None` for tenants without a delay guarantee (their message
    /// latency depends only on bandwidth and has no deterministic bound).
    pub fn message_latency_bound(&self, msg: Bytes) -> Option<Dur> {
        let d = self.delay?;
        if msg <= self.s {
            Some(self.bmax.tx_time(msg) + d)
        } else {
            Some(self.bmax.tx_time(self.s) + self.b.tx_time(msg - self.s) + d)
        }
    }
}

/// A tenant's admission request: `vms` identical VMs, each with the given
/// guarantee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRequest {
    pub vms: usize,
    pub guarantee: Guarantee,
    /// Fault tolerance (paper §4.2.3): spread the VMs over at least this
    /// many servers (1 = no constraint; 2 = survive one server failure).
    pub min_fault_domains: usize,
}

impl TenantRequest {
    pub fn new(vms: usize, guarantee: Guarantee) -> TenantRequest {
        assert!(vms >= 1, "a tenant needs at least one VM");
        TenantRequest {
            vms,
            guarantee,
            min_fault_domains: 1,
        }
    }

    /// Require the placement to span at least `domains` servers.
    pub fn with_fault_domains(mut self, domains: usize) -> TenantRequest {
        assert!(domains >= 1 && domains <= self.vms);
        self.min_fault_domains = domains;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_latency_bound() {
        // §4.1: message of M ≤ S delivered within M/Bmax + d.
        let g = Guarantee {
            b: Rate::from_mbps(210),
            s: Bytes(1500),
            bmax: Rate::from_gbps(1),
            delay: Some(Dur::from_ms(1)),
        };
        let bound = g.message_latency_bound(Bytes(1500)).unwrap();
        assert_eq!(bound, Dur::from_us(12) + Dur::from_ms(1));
    }

    #[test]
    fn testbed_guarantee_is_about_2ms() {
        // §6.1: "the message latency guarantee for memcached with Silo is
        // 2.01 ms" — a ~1 KB response within the 1.5 KB burst at 1 Gbps
        // plus d = 1 ms, with the request/response round trip ≈ 2.01 ms.
        let g = Guarantee {
            b: Rate::from_mbps(210),
            s: Bytes(1500),
            bmax: Rate::from_gbps(1),
            delay: Some(Dur::from_ms(1)),
        };
        let req = g.message_latency_bound(Bytes(400)).unwrap();
        let resp = g.message_latency_bound(Bytes(1024)).unwrap();
        let rtt_bound = req + resp;
        assert!((rtt_bound.as_ms_f64() - 2.01).abs() < 0.01, "{rtt_bound}");
    }

    #[test]
    fn large_message_uses_sustained_rate() {
        let g = Guarantee {
            b: Rate::from_gbps(1),
            s: Bytes::from_kb(100),
            bmax: Rate::from_gbps(10),
            delay: Some(Dur::from_us(500)),
        };
        let m = Bytes::from_mb(1);
        let bound = g.message_latency_bound(m).unwrap();
        let expect = Rate::from_gbps(10).tx_time(Bytes::from_kb(100))
            + Rate::from_gbps(1).tx_time(Bytes(900_000))
            + Dur::from_us(500);
        assert_eq!(bound, expect);
    }

    #[test]
    fn bandwidth_only_has_no_bound() {
        assert_eq!(
            Guarantee::bandwidth_only(Rate::from_gbps(2)).message_latency_bound(Bytes(1500)),
            None
        );
    }
}
