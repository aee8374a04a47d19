//! Datacenter-scale flow-level simulator (paper §6.3).
//!
//! Tenants arrive as a Poisson process, are admitted (or rejected) by a
//! pluggable placement algorithm, run a job — a set of flows plus a
//! minimum compute time — and depart, releasing their VMs. The questions
//! answered are macroscopic: what fraction of requests each placement
//! algorithm admits (Fig. 15) and how much of the network's capacity is
//! actually used (Fig. 16).
//!
//! Flows are fluid: each has remaining bytes and a rate assigned by an
//! [`Allocator`]:
//!
//! * [`Allocator::Guaranteed`] (Silo, Oktopus) — every flow gets its hose
//!   share `min(B/out_degree(src), B/in_degree(dst))`; no sharing across
//!   tenants, no work conservation.
//! * [`Allocator::FairShare`] (Locality + ideal TCP) — global max-min
//!   fairness via progressive waterfilling on the tree's directed links.
//!
//! Time advances in fixed 1 s steps of simulated time: each step
//! recomputes rates, drains flows, completes jobs, and admits new
//! arrivals. The quantization error is negligible against multi-minute
//! job durations and keeps 32 K-server runs tractable.

mod alloc;
mod simulation;

pub use alloc::{waterfill, AllocFlow, Allocator};
pub use simulation::{ClassMix, FlowSim, FlowSimConfig, FlowSimReport};
