//! Silo's hypervisor packet pacer (paper §4.3, §5).
//!
//! The pacer makes a VM's wire traffic conform to its `{B, S, Bmax}`
//! guarantee at *packet granularity* while keeping the CPU cost of IO
//! batching. It has three pieces:
//!
//! 1. **Virtual token buckets** ([`TokenBucket`], [`BucketChain`]) — rather
//!    than draining buckets on a timer, each packet is *timestamped* with
//!    the earliest instant it may appear on the wire (§5: "we timestamp
//!    when each packet needs to be sent out"). A chain of three levels
//!    implements Fig. 8: per-destination hose buckets, the `{B, S}` tenant
//!    bucket, and the `Bmax` cap.
//!
//! 2. **Hose coordination** ([`hose_share`], [`HoseAllocator`]) —
//!    per-destination rates `B_i = min(B/out-degree, B/in-degree)`, limited
//!    by both sender and receiver as in EyeQ, recomputed whenever the set
//!    of active VM pairs changes. The packet simulator's hose epochs and
//!    the flow simulator's guaranteed allocator call the same function.
//!
//! 3. **Paced IO batching** ([`PacedBatcher`]) — packets are handed to the
//!    (simulated) NIC in 50 µs batches; the gap between consecutive data
//!    packets inside a batch is occupied by **void packets** (≥ 84 bytes on
//!    the wire, destination MAC = source MAC) that the first-hop switch
//!    discards. Each gap is one [`WireFrame::Void`] run; [`VoidChunks`]
//!    lists its frames. The NIC transmits the batch back-to-back, so the
//!    data packets end up exactly where their timestamps put them — 68 ns
//!    granularity at 10 GbE — without per-packet timers. Batches are
//!    re-armed from the DMA-completion callback of the previous batch
//!    (soft-timers, §5), which the discrete-event host model reproduces.
//!
//! [`conformance`] measures a wire schedule's pacing granularity
//! ([`min_data_gap`]); whether a schedule conforms to its arrival curve is
//! checked on every simulated run by the audit's wire-level meters
//! (`silo_simnet::audit`).
//!
//! What is *not* simulated: actual CPU cycles. Figure 10a's CPU usage is
//! reproduced by [`CpuModel`], an analytic per-packet/per-batch cost model
//! calibrated to the paper's two measured endpoints; the packet *rates*
//! that drive it come from real simulated wire schedules.

pub mod batch;
pub mod bucket;
pub mod conformance;
pub mod cpu;
pub mod hose;

pub use batch::{Batch, PacedBatcher, VoidChunks, WireFrame, MIN_VOID_BYTES};
pub use bucket::{BucketChain, TokenBucket};
pub use conformance::min_data_gap;
pub use cpu::CpuModel;
pub use hose::{hose_share, HoseAllocator};
