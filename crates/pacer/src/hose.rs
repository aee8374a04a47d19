//! Hose-model rate coordination between pacers (paper §4.3, after EyeQ).
//!
//! The top layer of the Fig. 8 token-bucket hierarchy holds one bucket per
//! destination VM; the rates `B_i` of those buckets must satisfy
//! `Σ B_i ≤ B` at the *sender* while traffic toward any destination is also
//! limited by the *receiver's* `B`. Source and destination hypervisors
//! exchange demands and converge on pairwise rates.
//!
//! [`HoseAllocator`] computes those rates centrally from the set of active
//! VM pairs (in the real system this state is what the pacers' coordination
//! messages distribute): an iterative proportional waterfill that respects
//! both endpoint hoses — the same fixed point EyeQ's receiver-driven
//! control converges to for symmetric demands.

use silo_base::Rate;
use std::collections::HashMap;

/// Abstract VM identifier for coordination purposes.
pub type VmRef = u32;

/// Computes hose-compliant pairwise rates for a tenant.
#[derive(Debug, Clone)]
pub struct HoseAllocator {
    /// Per-VM hose guarantee `B`.
    b: Rate,
    rounds: usize,
}

impl HoseAllocator {
    pub fn new(b: Rate) -> HoseAllocator {
        HoseAllocator { b, rounds: 8 }
    }

    /// Allocate rates for the `active` (sender, receiver) pairs.
    ///
    /// Every returned rate is positive, no sender's outgoing sum exceeds
    /// `B`, no receiver's incoming sum exceeds `B`, and the allocation is
    /// max-min fair up to the iteration tolerance.
    pub fn allocate(&self, active: &[(VmRef, VmRef)]) -> HashMap<(VmRef, VmRef), Rate> {
        let mut out = HashMap::new();
        if active.is_empty() {
            return out;
        }
        let b = self.b.as_bps() as f64;
        // Start from equal split at the sender, then alternately rescale
        // at receivers and senders (proportional waterfill). Monotone
        // decreasing per pair, bounded below; 8 rounds is plenty for the
        // fan-in/fan-out sizes tenants have.
        let mut rate: HashMap<(VmRef, VmRef), f64> = HashMap::new();
        let mut out_deg: HashMap<VmRef, usize> = HashMap::new();
        for &(s, _) in active {
            *out_deg.entry(s).or_default() += 1;
        }
        for &(s, d) in active {
            rate.insert((s, d), b / out_deg[&s] as f64);
        }
        for _ in 0..self.rounds {
            // Receiver-side scaling.
            let mut in_sum: HashMap<VmRef, f64> = HashMap::new();
            for (&(_, d), &r) in &rate {
                *in_sum.entry(d).or_default() += r;
            }
            for ((_, d), r) in rate.iter_mut() {
                let s = in_sum[d];
                if s > b {
                    *r *= b / s;
                }
            }
            // Sender-side scaling.
            let mut out_sum: HashMap<VmRef, f64> = HashMap::new();
            for (&(s, _), &r) in &rate {
                *out_sum.entry(s).or_default() += r;
            }
            for ((s, _), r) in rate.iter_mut() {
                let sum = out_sum[s];
                if sum > b {
                    *r *= b / sum;
                }
            }
        }
        for (k, r) in rate {
            out.insert(k, Rate::from_bps(r.max(1.0) as u64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sums(rates: &HashMap<(VmRef, VmRef), Rate>) -> (HashMap<VmRef, u64>, HashMap<VmRef, u64>) {
        let mut tx: HashMap<VmRef, u64> = HashMap::new();
        let mut rx: HashMap<VmRef, u64> = HashMap::new();
        for (&(s, d), &r) in rates {
            *tx.entry(s).or_default() += r.as_bps();
            *rx.entry(d).or_default() += r.as_bps();
        }
        (tx, rx)
    }

    #[test]
    fn single_pair_gets_full_hose() {
        let a = HoseAllocator::new(Rate::from_gbps(1));
        let r = a.allocate(&[(0, 1)]);
        assert_eq!(r[&(0, 1)], Rate::from_gbps(1));
    }

    #[test]
    fn all_to_one_splits_receiver_hose() {
        // §4.1: N senders to one destination each get B/N.
        let a = HoseAllocator::new(Rate::from_gbps(1));
        let pairs: Vec<_> = (1..=4).map(|s| (s, 0)).collect();
        let r = a.allocate(&pairs);
        for p in &pairs {
            let got = r[p].as_bps() as f64;
            assert!((got - 0.25e9).abs() / 0.25e9 < 0.01, "{got}");
        }
    }

    #[test]
    fn one_to_all_splits_sender_hose() {
        let a = HoseAllocator::new(Rate::from_gbps(1));
        let pairs: Vec<_> = (1..=5).map(|d| (0, d)).collect();
        let r = a.allocate(&pairs);
        for p in &pairs {
            let got = r[p].as_bps() as f64;
            assert!((got - 0.2e9).abs() / 0.2e9 < 0.01, "{got}");
        }
    }

    #[test]
    fn hose_sums_never_exceed_b() {
        // Random-ish asymmetric mesh.
        let a = HoseAllocator::new(Rate::from_gbps(2));
        let pairs = vec![
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 3),
            (2, 3),
            (4, 3),
            (4, 0),
            (1, 0),
        ];
        let r = a.allocate(&pairs);
        let (tx, rx) = sums(&r);
        for (&v, &s) in tx.iter().chain(rx.iter()) {
            assert!(s as f64 <= 2e9 * 1.001, "vm {v} hose violated: {s}");
        }
    }

    #[test]
    fn all_to_all_is_symmetric() {
        let a = HoseAllocator::new(Rate::from_gbps(1));
        let n = 6u32;
        let mut pairs = Vec::new();
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    pairs.push((s, d));
                }
            }
        }
        let r = a.allocate(&pairs);
        let expect = 1e9 / (n - 1) as f64;
        for (_, rate) in r {
            assert!((rate.as_bps() as f64 - expect).abs() / expect < 0.01);
        }
    }

    #[test]
    fn empty_active_set() {
        let a = HoseAllocator::new(Rate::from_gbps(1));
        assert!(a.allocate(&[]).is_empty());
    }
}
