//! Datacenter-scale, time-stepped fluid flow simulator (paper §6.3).
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
//!   share [`silo_pacer::hose_share`] `= min(B/out_degree(src),
//!   B/in_degree(dst))`, the rule the packet simulator's pacers enforce; no
//!   sharing across tenants, no work conservation.
//! * [`Allocator::FairShare`] (Locality + ideal TCP) — global max-min
//!   fairness via progressive [`waterfill`]ing on the tree's directed
//!   links.
//!
//! It is not event-driven: time advances in fixed 1 s steps of simulated
//! time, and each step admits new arrivals, recomputes every unfinished
//! flow's rate, drains the flows and completes jobs. A flow's path is
//! computed once, when its job spawns. The quantization error is
//! negligible against multi-minute job durations.

mod alloc;
mod simulation;

pub use alloc::{waterfill, Allocator};
pub use simulation::{FlowSim, FlowSimConfig, FlowSimReport};
