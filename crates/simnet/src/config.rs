//! Simulation configuration: transport modes, tenant descriptions, and
//! the protocol constants of §6's experiments. The constants are fixed
//! for every scheme the paper compares; `SimConfig` holds what a run
//! varies.

use crate::audit::AuditConfig;
use crate::faults::FaultPlan;
use crate::telemetry::TelemetryConfig;
use crate::trace::TraceConfig;
use silo_base::{Bytes, Dur, QueueBackend, Rate};
use silo_pacer::MIN_VOID_BYTES;
use silo_topology::HostId;

/// Which end-host datapath and switch features a run uses — the six
/// schemes compared in Figs. 12–14 and Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Plain TCP NewReno, drop-tail switches.
    Tcp,
    /// DCTCP: ECN marking at [`ECN_K`], fraction-based window reduction.
    Dctcp,
    /// HULL: DCTCP senders + phantom queues marking at [`HULL_GAMMA`] of
    /// line rate.
    Hull,
    /// Silo: hypervisor pacing to `{B, S, Bmax}` with void-packet
    /// batching; TCP above the pacer.
    Silo,
    /// Oktopus-style rate enforcement: hose bandwidth only (burst of one
    /// packet), TCP above the limiter.
    Okto,
    /// Oktopus + Silo's burst allowance, but without burst-aware placement.
    OktoPlus,
}

impl TransportMode {
    /// Does the hypervisor pace VM traffic through token buckets?
    pub fn paced(self) -> bool {
        matches!(
            self,
            TransportMode::Silo | TransportMode::Okto | TransportMode::OktoPlus
        )
    }
    /// Do senders run DCTCP window logic?
    pub fn dctcp_sender(self) -> bool {
        matches!(self, TransportMode::Dctcp | TransportMode::Hull)
    }
    pub fn label(self) -> &'static str {
        match self {
            TransportMode::Tcp => "TCP",
            TransportMode::Dctcp => "DCTCP",
            TransportMode::Hull => "HULL",
            TransportMode::Silo => "Silo",
            TransportMode::Okto => "Okto",
            TransportMode::OktoPlus => "Okto+",
        }
    }
}

/// What a tenant's VMs do on the network.
#[derive(Debug, Clone)]
pub enum TenantWorkload {
    /// §6.1 tenant A: VM 0 runs a memcached server, all other VMs run ETC
    /// clients with `load` scaling the per-client arrival rate and
    /// `concurrency` outstanding transactions per client.
    Etc { load: f64, concurrency: usize },
    /// §6.1 tenant B: netperf — every VM keeps bulk messages of `msg`
    /// bytes in flight to every other VM (all-to-all shuffle).
    BulkAllToAll { msg: Bytes },
    /// §6.2 class A: at exponential intervals of mean `interval`, *all*
    /// VMs simultaneously send a message of mean size `msg_mean`
    /// (exponential) to VM 0 — the OLDI partition/aggregate pattern.
    OldiAllToOne { msg_mean: Bytes, interval: Dur },
    /// The worst-case *conformant* OLDI pattern: every `period`, all VMs
    /// simultaneously send exactly `msg` bytes to VM 0. Periodic spacing
    /// keeps the traffic inside the `{B, S}` arrival curve at both
    /// endpoints (pick `period ≥ (n−1)·msg/B`), which is the precondition
    /// of the paper's eq. 1 latency bound — use this to *verify* admission
    /// decisions, and the Poisson [`TenantWorkload::OldiAllToOne`] to
    /// *load* the network past them.
    OldiPeriodic { msg: Bytes, period: Dur },
    /// §6.3-style fixed pairs, each carrying Poisson messages of mean
    /// `msg_mean` every `interval` on average (used for class B and
    /// Permutation-x).
    PoissonPairs {
        pairs: Vec<(usize, usize)>,
        msg_mean: Bytes,
        interval: Dur,
    },
    /// No offered load (placement-only tenants).
    Idle,
}

/// One tenant in a simulation: its VM-to-host mapping (one entry per VM,
/// from a `silo-placement` placement), its Silo guarantee, and workload.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Host of each VM (VM index = position).
    pub vm_hosts: Vec<HostId>,
    /// Hose bandwidth guarantee `B` per VM.
    pub b: Rate,
    /// Burst allowance `S` per VM.
    pub s: Bytes,
    /// Burst rate cap `Bmax`.
    pub bmax: Rate,
    /// 802.1q priority: 0 = guaranteed, 1 = best-effort.
    pub prio: u8,
    /// Delay guarantee `d` (the fourth parameter of `{B, S, d, Bmax}`).
    /// When set, every completed message is checked against the §4.1
    /// latency bound and violations are recorded in `Metrics` —
    /// attributed to the overlapping injected fault if there is one.
    /// `None` (the default everywhere) disables the check entirely.
    pub delay: Option<Dur>,
    pub workload: TenantWorkload,
}

impl TenantSpec {
    /// The §4.1 message-latency bound this tenant's guarantee implies:
    /// `M/Bmax + d` for messages within the burst, else
    /// `S/Bmax + (M−S)/B + d`. `None` without a delay guarantee.
    pub fn latency_bound(&self, msg: Bytes) -> Option<Dur> {
        let d = self.delay?;
        Some(if msg <= self.s {
            self.bmax.tx_time(msg) + d
        } else {
            self.bmax.tx_time(self.s) + self.b.tx_time(msg - self.s) + d
        })
    }
}

/// TCP/IP header overhead per segment; MSS = mtu − `HEADER`.
pub const HEADER: Bytes = Bytes(60);
/// Initial congestion window in segments.
pub const INIT_CWND: u64 = 10;
/// Congestion-window cap (the receive-window / send-buffer limit of a
/// real stack; ns2-era datacenter stacks ran a few hundred KB, well
/// matched to shallow-buffer 10 GbE paths).
pub const MAX_CWND: Bytes = Bytes::from_kb(512);
/// DCTCP marking threshold K (bytes of instantaneous queue): 65 MTU
/// packets, the DCTCP 10 GbE default.
pub const ECN_K: Bytes = Bytes(97_500);
/// DCTCP gain g.
pub const DCTCP_G: f64 = 1.0 / 16.0;
/// HULL phantom-queue drain fraction γ.
pub const HULL_GAMMA: f64 = 0.95;
/// HULL phantom marking threshold.
pub const HULL_THRESH: Bytes = Bytes(6_000);
/// How far ahead of real time a connection may pre-stamp packets into
/// the pacer. The hypervisor's per-VM TX queue is finite: without this
/// backpressure, one connection could commit the shared `{B,S}` bucket
/// megabytes ahead and starve the VM's other destinations.
pub const PACE_HORIZON: Dur = Dur::from_ms(1);
/// NIC FIFO depth for un-paced modes (TX ring + qdisc): ~100 MTU packets,
/// the ns2-era host DropTail queue scale. A shared FIFO this shallow is
/// exactly where an un-isolated tenant's small messages die behind a bulk
/// tenant's bursts.
pub const NIC_FIFO: Bytes = Bytes::from_kb(150);

// Every MTU that `SimConfig::validate` accepts leaves a payload.
const _: () = assert!(MIN_VOID_BYTES > HEADER.0);

/// What a run varies: the scheme, the engine's timing knobs, the horizon
/// and seed, the event-queue backend, injected faults and the observers.
/// Defaults follow the paper's setups.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub mode: TransportMode,
    /// Maximum wire frame (Ethernet MTU).
    pub mtu: Bytes,
    /// Minimum retransmission timeout. The paper's testbed TCP behaves
    /// like a stock stack (≈ 200 ms min RTO — hence the 217 ms spikes in
    /// Fig. 1); datacenter-tuned stacks use 10 ms.
    pub min_rto: Dur,
    /// Paced-IO batch window (§5: 50 µs).
    pub batch_window: Dur,
    /// Hose reallocation epoch for the pacer coordination.
    pub hose_epoch: Dur,
    /// Simulated duration.
    pub duration: Dur,
    /// Workload/tie-break seed.
    pub seed: u64,
    /// Event-queue implementation, the engine's one option.
    /// [`QueueBackend::Wheel`] (default) is the fast path;
    /// [`QueueBackend::Heap`] is the reference `BinaryHeap` tests compare
    /// it against. Both dequeue in identical `(time, seq)` order, so
    /// results are bit-identical either way.
    pub queue: QueueBackend,
    /// Injected failures ([`FaultPlan`]). Empty (the default) is a strict
    /// no-op: no events are scheduled and every metric is byte-identical
    /// to a run without the fault layer.
    pub faults: FaultPlan,
    /// Invariant auditing ([`AuditConfig`]). `None` (the default) skips
    /// every check; `Some` runs the full audit layer, whose results land
    /// in [`crate::Metrics::audit`]. An observer: the observation spine
    /// (`observe.rs`) states what observers may not do.
    pub audit: Option<AuditConfig>,
    /// Flight-recorder tracing ([`TraceConfig`]). `None` (the default)
    /// records nothing; `Some` attaches per-host ring buffers capturing
    /// every packet lifecycle event, exported via
    /// [`crate::Metrics::trace`]. An observer, like `audit`.
    pub trace: Option<TraceConfig>,
    /// Windowed telemetry ([`TelemetryConfig`]). `None` (the default)
    /// records nothing; `Some` samples per-tenant/per-port time series on
    /// a fixed sim-time grid plus a wall-clock engine self-profile,
    /// exported via [`crate::Metrics::telemetry`]. An observer, like
    /// `audit`.
    pub telemetry: Option<TelemetryConfig>,
}

impl SimConfig {
    pub fn new(mode: TransportMode, duration: Dur, seed: u64) -> SimConfig {
        SimConfig {
            mode,
            mtu: Bytes(1500),
            min_rto: Dur::from_ms(10),
            batch_window: Dur::from_us(50),
            // EyeQ's rate-control loop operates at RTT timescales; a
            // slower loop lets un-throttled senders transiently overflow
            // a receiver's downlink before feedback kicks in.
            hose_epoch: Dur::from_us(200),
            duration,
            seed,
            queue: QueueBackend::default(),
            faults: FaultPlan::default(),
            audit: None,
            trace: None,
            telemetry: None,
        }
    }

    /// Stream payload per full segment.
    pub fn mss(&self) -> u64 {
        self.mtu.as_u64() - HEADER.as_u64()
    }

    /// Reject values the engine cannot run on: each would otherwise be an
    /// arithmetic underflow, a truncated wire size, an absurd allocation,
    /// a timer re-arming itself at the same instant forever or a trace
    /// ring with no slot to record into. The
    /// message starts with the offending field. [`crate::Sim::new`] panics
    /// on an `Err`; callers holding outside input check first.
    pub fn validate(&self) -> Result<(), String> {
        let mtu = self.mtu.as_u64();
        if !(MIN_VOID_BYTES..=u32::MAX as u64).contains(&mtu) {
            return Err(format!(
                "mtu: {mtu} bytes is outside [{MIN_VOID_BYTES} (the smallest void frame), \
                 {} (the 32-bit wire size)]",
                u32::MAX
            ));
        }
        if self.batch_window == Dur::ZERO {
            return Err("batch_window: must be positive".into());
        }
        if self.mode.paced() && self.hose_epoch == Dur::ZERO {
            return Err(format!(
                "hose_epoch: must be positive in paced mode {}",
                self.mode.label()
            ));
        }
        if self
            .telemetry
            .as_ref()
            .is_some_and(|t| t.interval == Dur::ZERO)
        {
            return Err("telemetry.interval: must be positive".into());
        }
        if let Some(t) = &self.trace {
            if t.per_host_cap == 0 {
                return Err("trace.per_host_cap: must be positive".into());
            }
            if t.global_cap == 0 {
                return Err("trace.global_cap: must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [TransportMode; 6] = [
        TransportMode::Tcp,
        TransportMode::Dctcp,
        TransportMode::Hull,
        TransportMode::Silo,
        TransportMode::Okto,
        TransportMode::OktoPlus,
    ];

    #[test]
    fn validate_names_the_bad_field_and_accepts_every_default() {
        for mode in MODES {
            let cfg = SimConfig::new(mode, Dur::from_ms(1), 1);
            assert_eq!(cfg.validate(), Ok(()), "{mode:?} default");
        }
        type Break = fn(&mut SimConfig);
        let table: [(TransportMode, &str, Break); 9] = [
            (TransportMode::Silo, "hose_epoch", |c| {
                c.hose_epoch = Dur::ZERO
            }),
            (TransportMode::Okto, "hose_epoch", |c| {
                c.hose_epoch = Dur::ZERO
            }),
            (TransportMode::Tcp, "mtu", |c| c.mtu = Bytes(1 << 32)),
            (TransportMode::Tcp, "mtu", |c| c.mtu = Bytes(83)),
            (TransportMode::Tcp, "batch_window", |c| {
                c.batch_window = Dur::ZERO
            }),
            (TransportMode::Silo, "batch_window", |c| {
                c.batch_window = Dur::ZERO
            }),
            (TransportMode::Dctcp, "telemetry.interval", |c| {
                c.telemetry = Some(TelemetryConfig {
                    interval: Dur::ZERO,
                })
            }),
            (TransportMode::Silo, "trace.per_host_cap", |c| {
                c.trace = Some(TraceConfig {
                    per_host_cap: 0,
                    ..TraceConfig::default()
                })
            }),
            (TransportMode::Silo, "trace.global_cap", |c| {
                c.trace = Some(TraceConfig {
                    global_cap: 0,
                    ..TraceConfig::default()
                })
            }),
        ];
        for (mode, field, break_it) in table {
            let mut cfg = SimConfig::new(mode, Dur::from_ms(1), 1);
            break_it(&mut cfg);
            let err = cfg.validate().expect_err(field);
            assert!(err.starts_with(&format!("{field}: ")), "{field}: {err}");
        }
        // Un-paced modes never schedule a hose epoch, and the largest MTU
        // that fits is fine.
        let mut cfg = SimConfig::new(TransportMode::Tcp, Dur::from_ms(1), 1);
        cfg.hose_epoch = Dur::ZERO;
        cfg.mtu = Bytes(u32::MAX as u64);
        assert_eq!(cfg.validate(), Ok(()));
    }
}
