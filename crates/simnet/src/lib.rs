//! A packet-level discrete-event datacenter network simulator — the
//! workspace's stand-in for the paper's ns2 experiments (§6.2) and 10 GbE
//! testbed (§6.1).
//!
//! Everything is built from scratch on the shared substrates:
//!
//! * **Switches** — store-and-forward egress queues per directed port
//!   ([`port`]): tail-drop within a per-port buffer, two 802.1q priority
//!   levels, DCTCP-style ECN marking, and HULL phantom queues.
//! * **Hosts** — each host carries several tenant VMs. Depending on the
//!   [`TransportMode`], VM egress either goes straight to a FIFO NIC
//!   (TCP/DCTCP/HULL) or through Silo's token-bucket hierarchy and
//!   paced-IO batcher with void packets (Silo/Oktopus/Oktopus+).
//! * **Transport** — TCP Reno/NewReno with fast retransmit/recovery and
//!   exponential-backoff RTOs ([`tcp`]); DCTCP's fraction-based window
//!   reduction on top; HULL = DCTCP senders + phantom-queue marking.
//! * **Applications** — message-oriented apps on persistent connections:
//!   the memcached/ETC request-response tenant, netperf-style bulk
//!   senders, OLDI all-to-one bursts, and Poisson message generators
//!   (driven by `silo-workload`).
//!
//! The simulator is deterministic: one seed fixes every workload draw and
//! every event tie-break.
//!
//! [`msgqueue`] is a self-contained fluid model of a single guaranteed
//! sender used to regenerate Table 1.

pub mod audit;
pub mod config;
pub mod faults;
mod jsonl;
pub mod metrics;
pub mod msgqueue;
mod observe;
pub mod packet;
pub mod port;
pub mod sim;
pub mod tcp;
pub mod telemetry;
pub mod trace;

pub use audit::{AuditConfig, AuditKind, AuditReport, AuditViolation};
pub use config::{SimConfig, TenantSpec, TenantWorkload, TransportMode};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultWindow, PlanBounds, FAULTPLAN_FORMAT};
pub use jsonl::format_tag;
pub use metrics::{EvKind, EventProfile, Metrics, MsgRecord, TenantStats, Violation};
pub use sim::Sim;
pub use telemetry::{SelfProfile, TelemetryConfig, TelemetryLog, TenantWindow};
pub use trace::{PktTag, TraceConfig, TraceEvent, TraceKind, TraceLog};
