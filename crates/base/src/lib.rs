//! Foundation types shared by every Silo crate.
//!
//! This crate provides three things:
//!
//! 1. **Exact fixed-point units** ([`Time`], [`Dur`], [`Bytes`], [`Rate`]).
//!    Simulated time is measured in integer *picoseconds* so that packet
//!    transmission times are exact: an 84-byte void frame on a 10 Gbps link
//!    takes 67.2 ns = 67 200 ps, which integer nanoseconds cannot represent.
//!    All conversions route through `u128` intermediates so they neither
//!    overflow nor silently lose precision for any realistic input.
//!
//! 2. **Statistics** ([`stats`]) — percentiles, CDFs and streaming
//!    log-bucketed histograms used by every experiment harness.
//!
//! 3. **Deterministic randomness** ([`dist`]) — a seeded RNG constructor and
//!    the analytic distributions the paper's workloads need (exponential,
//!    generalized Pareto), implemented from scratch on top of `rand`.
//!
//! Everything downstream of this crate is deterministic given a seed.

pub mod dist;
pub mod env;
pub mod eventq;
pub mod fxhash;
pub mod json;
pub mod prop;
pub mod stats;
pub mod units;

pub use dist::{exponential, seeded_rng, GenPareto};
pub use eventq::{EvKey, EventQueue, QueueBackend};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use json::Json;
pub use stats::{LogHistogram, Summary};
pub use units::{Bytes, Dur, Rate, Time};

/// Index of the first position where `a` and `b` differ: the shorter
/// length when one is a strict prefix of the other, `None` when they are
/// equal. The one first-divergence locator: observation-file diffs and
/// the explorer's coverage signature both ask it.
pub fn first_divergence<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    let common = a.len().min(b.len());
    (0..common)
        .find(|&i| a[i] != b[i])
        .or((a.len() != b.len()).then_some(common))
}

#[cfg(test)]
mod tests {
    use super::first_divergence;

    #[test]
    fn first_divergence_names_the_first_mismatch_or_the_shorter_end() {
        assert_eq!(first_divergence::<u8>(&[], &[]), None);
        assert_eq!(first_divergence(&[1, 2, 3], &[1, 2, 3]), None);
        assert_eq!(first_divergence(&[1, 2, 3], &[1, 9, 3]), Some(1));
        assert_eq!(first_divergence(&[1, 2, 3], &[1, 2]), Some(2));
        assert_eq!(first_divergence(&[1], &[1, 2]), Some(1));
        assert_eq!(first_divergence(&[0], &[1, 2]), Some(0));
    }
}
