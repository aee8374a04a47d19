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
//! 2. **Statistics** ([`stats`]) — percentiles, CDFs, histograms and online
//!    mean/variance used by every experiment harness.
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

pub use dist::{exponential, gen_pareto, seeded_rng, GenPareto};
pub use eventq::{EvKey, EventQueue, QueueBackend};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use json::Json;
pub use stats::{Cdf, Histogram, LogHistogram, OnlineStats, Summary};
pub use units::{Bytes, Dur, Rate, Time};
