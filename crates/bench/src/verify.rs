//! Shared harness for the queue-bound theorem check: build a tenant
//! population with the real placer, drive it with adversarial workloads
//! through the packet simulator, and compare every port's measured queue
//! high-water mark against its admission-time backlog bound.
//!
//! Used by the `verify_queue_bounds` binary (large-scale, human-readable)
//! and the tier-2 `queue_bounds` test (small-scale, CI audit job). Both
//! also thread the bounds into the engine's invariant-audit layer, which
//! checks them *online* at every enqueue rather than only against the
//! end-of-run high-water mark.

use crate::args::checked;
use rand::Rng;
use silo_base::{exponential, seeded_rng, Bytes, Dur, Rate, Time};
use silo_placement::{Guarantee, Placer, SiloPlacer, TenantRequest};
use silo_simnet::{
    AuditConfig, AuditReport, Metrics, SimConfig, TenantSpec, TenantWorkload, TransportMode,
};
use silo_topology::{PortId, Topology};

/// The adversarial verification population: alternating class-A tenants
/// (synchronized OLDI bursts of 0.9·S messages) and class-B tenants
/// (backlogged 1 MB all-to-all shuffles), admitted by the real placer
/// until `occupancy` of the VM slots is used or admission keeps refusing.
/// Returns the placer (holding the admitted load state) and the specs.
pub fn build_verify_population(
    topo: &Topology,
    occupancy: f64,
    seed: u64,
) -> (SiloPlacer, Vec<TenantSpec>, usize) {
    let mut placer = SiloPlacer::new(topo.clone());
    let mut rng = seeded_rng(seed);
    let mut specs = Vec::new();
    let target = (topo.params().num_vm_slots() as f64 * occupancy) as usize;
    let mut used = 0usize;
    let mut rejects = 0;
    while used < target && rejects < 50 {
        let class_a = specs.len() % 2 == 0;
        let n = if class_a {
            16 + (rng.random_range(0..17usize))
        } else {
            8 + (rng.random_range(0..9usize))
        };
        let g = if class_a {
            Guarantee {
                b: Rate::from_bps(
                    (exponential(&mut rng, 1.0 / 0.25e9) as u64).clamp(50_000_000, 1_000_000_000),
                ),
                s: Bytes((exponential(&mut rng, 1.0 / 15_000.0) as u64).clamp(1_500, 60_000)),
                bmax: Rate::from_gbps(1),
                delay: Some(Dur::from_us(1000)),
            }
        } else {
            let b = Rate::from_bps(
                (exponential(&mut rng, 1.0 / 2e9) as u64).clamp(250_000_000, 5_000_000_000),
            );
            Guarantee {
                b,
                s: Bytes(1500),
                bmax: b,
                delay: None,
            }
        };
        let Ok(p) = placer.try_place(&TenantRequest::new(n, g)) else {
            rejects += 1;
            continue;
        };
        rejects = 0;
        used += n;
        let workload = if class_a {
            // Worst case: every burst fully synchronized, message = 0.9 S.
            let msg = Bytes((g.s.as_u64() * 9) / 10);
            let interval = Dur::from_secs_f64(
                (n - 1) as f64 * msg.bits() as f64 / (0.5 * g.b.as_bps() as f64),
            );
            TenantWorkload::OldiAllToOne {
                msg_mean: msg,
                interval,
            }
        } else {
            TenantWorkload::BulkAllToAll {
                msg: Bytes::from_mb(1),
            }
        };
        specs.push(TenantSpec {
            vm_hosts: p.vm_hosts(),
            b: g.b,
            s: g.s,
            bmax: g.bmax,
            prio: 0,
            delay: None,
            workload,
        });
    }
    (placer, specs, used)
}

/// Slack added on top of the fluid bound at each port: one batch window
/// of line-rate bunching. Paced-IO batching may delay packets by up to
/// `batch_window` and then release them back-to-back, which the fluid
/// curves don't model (the paper absorbs the same slack inside the ports'
/// queue capacity margin).
pub fn bound_slack(rate: Rate) -> u64 {
    rate.bytes_in(Dur::from_us(50)).as_u64()
}

/// The admission-time bound (+ slack) per switch port, in the shape the
/// audit layer consumes. Unreserved switch ports get the bare slack —
/// conformant paced traffic may bunch there but never accumulate.
pub fn audit_port_bounds(topo: &Topology, placer: &SiloPlacer) -> Vec<Option<u64>> {
    placer
        .backlog_bounds()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let info = topo.port(PortId(i as u32));
            if info.is_nic {
                None
            } else {
                Some(b.map(|b| b.as_u64()).unwrap_or(0) + bound_slack(info.rate))
            }
        })
        .collect()
}

/// One checked port's outcome.
pub struct VerifyRow {
    pub port: usize,
    pub up: bool,
    pub measured: u64,
    pub bound: u64,
    pub buffer: u64,
    pub peak_at: Time,
}

impl VerifyRow {
    pub fn ok(&self) -> bool {
        self.measured <= self.bound
    }
}

/// Full outcome of a verification run.
pub struct VerifyOutcome {
    pub metrics: Metrics,
    /// Per-loaded-port comparisons (ports with zero peak are skipped).
    pub rows: Vec<VerifyRow>,
    pub checked: usize,
    pub violations: usize,
    /// The online audit report (`audit: true` runs only).
    pub audit: Option<AuditReport>,
}

/// Run the verification simulation over an already-built population.
/// `batch_us` overrides the paced-IO window (`tests/queue_bounds.rs`);
/// `audit` additionally threads the per-port bounds into the engine's
/// audit layer for online checking.
pub fn run_verify(
    topo: &Topology,
    placer: &SiloPlacer,
    specs: Vec<TenantSpec>,
    duration: Dur,
    seed: u64,
    batch_us: Option<u64>,
    audit: bool,
) -> VerifyOutcome {
    let mut cfg = SimConfig::new(TransportMode::Silo, duration, seed);
    if let Some(us) = batch_us {
        cfg.batch_window = Dur::from_us(us);
    }
    if audit {
        cfg.audit = Some(AuditConfig {
            port_bounds: audit_port_bounds(topo, placer),
        });
    }
    let m = checked(topo.clone(), cfg, specs).run();
    let mut rows = Vec::new();
    let mut checked = 0;
    let mut violations = 0;
    for (i, (&measured, &peak_at)) in m.port_max_queue.iter().zip(&m.port_max_at).enumerate() {
        let pid = PortId(i as u32);
        let info = topo.port(pid);
        if info.is_nic {
            continue; // NIC queues live in host memory under the pacer
        }
        if measured == 0 {
            continue;
        }
        let bound =
            placer.backlog_bound(pid).map(|b| b.as_u64()).unwrap_or(0) + bound_slack(info.rate);
        checked += 1;
        let row = VerifyRow {
            port: i,
            up: pid.is_up(),
            measured,
            bound,
            buffer: info.buffer.as_u64(),
            peak_at,
        };
        if !row.ok() {
            violations += 1;
        }
        rows.push(row);
    }
    let audit_report = m.audit.clone();
    VerifyOutcome {
        metrics: m,
        rows,
        checked,
        violations,
        audit: audit_report,
    }
}
