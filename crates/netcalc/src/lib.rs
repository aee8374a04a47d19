//! Network calculus for Silo (paper §4.2.2).
//!
//! Silo bounds switch queueing deterministically by describing every
//! traffic source with an *arrival curve* `A(t)` — an upper bound on the
//! bytes the source may emit in any interval of length `t` — and every
//! switch port with a *service curve* `β(t)` — a lower bound on the bytes
//! the port serves in any interval of length `t`. Three classic results
//! (Cruz '91, Kurose '92, Le Boudec & Thiran '01) then give everything the
//! placement manager needs:
//!
//! * the **queue bound** (maximum queueing delay) at a port is the maximum
//!   *horizontal* deviation between `A` and `β`;
//! * the **backlog bound** (maximum buffer occupancy) is the maximum
//!   *vertical* deviation;
//! * after traversing a port whose queue is guaranteed to empty at least
//!   once every `c` seconds (its *queue capacity*), traffic with arrival
//!   curve `A` conforms to an egress curve with the same long-term rate and
//!   burst inflated to `A(c)` (paper §4.2.2, "Propagating arrival curves").
//!
//! The paper's two placement constraints (§4.2.3) are computed on top of
//! these primitives by the placement crate: constraint C1
//! (`Q-bound ≤ Q-capacity`) per port in `silo_placement::load::PortLoad`,
//! C2 as a static per-path sum of queue capacities.
//!
//! # Representation
//!
//! Arrival curves here are *concave piecewise-linear* functions represented
//! as the minimum of affine lines `r·t + b` ([`Curve`]). This closed family
//! covers everything Silo needs — the token bucket `A_{B,S}`, the paper's
//! dual-slope curve `A'` that caps burst rate at `Bmax` (Fig. 6a), tenant
//! hose aggregates, and propagated curves — and it is closed under addition,
//! minimum, scaling, and egress propagation.
//!
//! Internally curves use `f64` seconds and bytes: placement is an admission
//! *bound*, not an event-ordering computation, so floating point is
//! appropriate (unlike the picosecond-exact simulators).

pub mod bounds;
pub mod cache;
pub mod curve;
pub mod path;
pub mod service;
pub mod tenant;

pub use bounds::{backlog_bound, drain_time, queue_delay_bound};
pub use cache::BoundCache;
pub use curve::{Curve, Line};
pub use path::{output_bound, path_delay_sfa, path_delay_sum};
pub use service::ServiceCurve;
pub use tenant::propagate_egress;
