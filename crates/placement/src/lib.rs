//! VM placement and admission control (paper §4.2).
//!
//! Silo's placement manager maps a tenant's four-parameter guarantee
//! `{B, S, d, Bmax}` onto two switch-level queueing constraints:
//!
//! * **C1 (buffer absorption)** — at every switch port between the tenant's
//!   VMs, the worst-case queue buildup (computed from aggregated arrival
//!   curves, including every already-admitted tenant) must fit the port's
//!   buffer: `Q-bound_p ≤ Q-capacity_p`.
//! * **C2 (delay)** — for every pair of the tenant's VMs, the sum of queue
//!   *capacities* along the path must not exceed the delay guarantee `d`.
//!   Because capacities are static, C2 reduces to a maximum placement
//!   "height" (server → rack → pod → datacenter), which is what makes
//!   admission fast and load-independent.
//!
//! VMs are then placed by a greedy first-fit that minimizes that height,
//! preserving core capacity for future tenants (§4.2.3).
//!
//! Two baselines from the paper's evaluation live here too:
//! [`OktopusPlacer`] (bandwidth-only admission, Ballani et al. SIGCOMM'11)
//! and [`LocalityPlacer`] (network-oblivious greedy packing).
//!
//! The tenant-facing arithmetic lives here too: a guarantee's §4.1
//! message-latency bound ([`Guarantee::message_latency_bound`]), the
//! tighter per-placement packet-delay bound
//! ([`SiloPlacer::tight_delay_bound`]), and [`recommend`], which sizes a
//! guarantee from a workload profile.
//!
//! # Aggregation strategy
//!
//! Exact per-port aggregate curves would grow with the number of admitted
//! tenants. Instead each port keeps four *linear* accumulators — sustained
//! rate, inflated burst, burst rate, and in-flight (MTU) bytes — whose sums
//! define a two-line concave curve that upper-bounds the true aggregate
//! (`Σ min(f_i, g_i) ≤ min(Σf_i, Σg_i)`), additionally capped by the
//! physical ingress capacity of the switch. Admission against this curve is
//! O(1) per port, slightly conservative, and exactly reversible on tenant
//! departure.

mod advisor;
mod degrade;
mod guarantee;
mod load;
mod locality;
mod oktopus;
mod placer;
mod service;
mod silo;

pub use advisor::{recommend, AdvisorError, WorkloadProfile};
pub use degrade::{DegradeOutcome, FaultReport};
pub use guarantee::{Guarantee, TenantRequest};
pub use load::{Contribution, PortLoad, NIC_HEADROOM};
pub use locality::LocalityPlacer;
pub use oktopus::OktopusPlacer;
pub use placer::{Placement, Placer, RejectReason, SlotMap, TenantId};
pub use service::{AdmissionService, ChurnEvent, Decision, ServiceStats};
pub use silo::SiloPlacer;
