//! Workload generators for Silo's experiments.
//!
//! * [`EtcWorkload`] — the memcached workload of §6.1: Facebook's ETC
//!   cache pool as characterized by Atikoglu et al. (SIGMETRICS 2012),
//!   with generalized-Pareto value sizes and inter-arrival times (exactly
//!   how the paper synthesizes it).
//! * [`patterns`] — the communication patterns of §6.2–6.3: all-to-one
//!   (OLDI partition/aggregate), all-to-all (shuffle), and Permutation-x.
//!
//! All generators draw from a caller-provided RNG so experiments stay
//! reproducible end to end.

pub mod churn;
pub mod etc;
pub mod patterns;

pub use churn::{ChurnConfig, FailureBurst, FlashCrowd};
pub use etc::{EtcRequest, EtcWorkload};
pub use patterns::{all_to_all, all_to_one, permutation_x};
