//! Hose-model rate coordination between pacers (paper §4.3, after EyeQ).
//!
//! The top layer of the Fig. 8 token-bucket hierarchy holds one bucket per
//! destination VM; the rates `B_i` of those buckets must satisfy
//! `Σ B_i ≤ B` at the *sender* while traffic toward any destination is also
//! limited by the *receiver's* `B`. Source and destination hypervisors
//! exchange demands and converge on pairwise rates.
//!
//! The rule is [`hose_share`]: a pair gets the smaller of its two endpoint
//! shares, `min(B/out_degree(src), B/in_degree(dst))`, so neither sum can
//! exceed `B`. It is the one rule every simulator applies: `Sim`'s hose
//! epochs (Oktopus's, and Silo's with 3 % headroom), flowsim's guaranteed
//! allocator, and [`HoseAllocator`], which computes it for a set of active
//! VM pairs (in the real system this state is what the pacers'
//! coordination messages distribute). It is not max-min fair: a pair
//! limited by one endpoint leaves the rest of the other endpoint's hose
//! unused.

use silo_base::Rate;
use std::collections::HashMap;

/// Abstract VM identifier for coordination purposes.
pub type VmRef = u32;

/// The hose share in bits/sec of a pair whose sender has `out_deg` active
/// pairs and whose receiver has `in_deg`, every VM holding hose `b`:
/// `min(b/out_deg, b/in_deg)`, each degree floored at 1.
pub fn hose_share(b: Rate, out_deg: usize, in_deg: usize) -> f64 {
    let b = b.as_bps() as f64;
    (b / out_deg.max(1) as f64).min(b / in_deg.max(1) as f64)
}

/// Computes hose-compliant pairwise rates for a tenant.
#[derive(Debug, Clone)]
pub struct HoseAllocator {
    /// Per-VM hose guarantee `B`.
    b: Rate,
}

impl HoseAllocator {
    pub fn new(b: Rate) -> HoseAllocator {
        HoseAllocator { b }
    }

    /// Allocate rates for the distinct `active` (sender, receiver) pairs:
    /// each gets its [`hose_share`]. Every returned rate is positive, no
    /// sender's outgoing sum exceeds `B` and no receiver's incoming sum
    /// exceeds `B`.
    pub fn allocate(&self, active: &[(VmRef, VmRef)]) -> HashMap<(VmRef, VmRef), Rate> {
        let mut out_deg: HashMap<VmRef, usize> = HashMap::new();
        let mut in_deg: HashMap<VmRef, usize> = HashMap::new();
        for &(s, d) in active {
            *out_deg.entry(s).or_default() += 1;
            *in_deg.entry(d).or_default() += 1;
        }
        active
            .iter()
            .map(|&(s, d)| {
                let r = hose_share(self.b, out_deg[&s], in_deg[&d]);
                ((s, d), Rate::from_bps(r.max(1.0) as u64))
            })
            .collect()
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
    fn hose_share_is_min_of_endpoint_shares() {
        // min(1G/2, 1G/4) = 0.25 G; a zero degree counts as one.
        assert_eq!(hose_share(Rate::from_gbps(1), 2, 4), 0.25e9);
        assert_eq!(hose_share(Rate::from_gbps(1), 0, 0), 1e9);
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
    fn asymmetric_mesh_gets_the_hose_share_of_each_pair() {
        // (pair, out-degree of its sender, in-degree of its receiver).
        let mesh = [
            ((0, 1), 3, 1),
            ((0, 2), 3, 1),
            ((0, 3), 3, 4),
            ((1, 3), 2, 4),
            ((2, 3), 1, 4),
            ((4, 3), 2, 4),
            ((4, 0), 2, 2),
            ((1, 0), 2, 2),
        ];
        let b = Rate::from_gbps(2);
        let pairs: Vec<_> = mesh.iter().map(|m| m.0).collect();
        let r = HoseAllocator::new(b).allocate(&pairs);
        assert_eq!(r.len(), mesh.len());
        for (pair, out_deg, in_deg) in mesh {
            let want = Rate::from_bps(hose_share(b, out_deg, in_deg) as u64);
            assert_eq!(r[&pair], want, "{pair:?}");
        }
        // VM 2 sends only to the 4-way receiver 3: B/4, not B.
        assert_eq!(r[&(2, 3)], Rate::from_mbps(500));
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
