//! Deterministic fault injection: a pre-declared plan of link/port
//! failures, hypervisor-pacer clock anomalies, and tenant churn that the
//! engine executes as ordinary events.
//!
//! The plan is *data*, fixed before the run starts: every fault instant,
//! duration and target is explicit, so two runs with the same config,
//! seed and plan replay the same schedule bit-for-bit — the same
//! determinism contract the rest of the simulator keeps. An empty plan
//! pushes no events and leaves every output byte-identical to a build
//! without this module.
//!
//! What each fault does is documented on [`FaultKind`]; how the placement
//! layer reacts (budget reclaim, re-validation, downgrade to best-effort)
//! lives in `silo-placement`'s `degrade` module.

use rand::rngs::StdRng;
use rand::Rng;
use silo_base::{json, Dur, Json, Time};

/// One class of injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Both directed ports of a link go dark (cable pull, line-card
    /// death). Queued and newly-arriving packets at the dead ports are
    /// black-holed and attributed to this fault; the tree has no
    /// alternate paths, so senders see pure loss until restoration.
    LinkDown { link: u32 },
    /// One *directed* port stops forwarding (unidirectional failure —
    /// e.g. a dead laser). The reverse direction keeps working, which is
    /// exactly the asymmetry that makes these hard to debug in practice.
    PortDown { port: u32 },
    /// The host's pacing timer stops firing for the window: stamped
    /// batches accumulate in the hypervisor and drain only when the
    /// timer recovers (a vCPU preemption / SoftNIC stall).
    PacerStall { host: u32 },
    /// The host's pacing clock runs slow by `factor` (≥ 1.0) for the
    /// window: every timer the pacer arms lands `factor×` late, widening
    /// inter-batch gaps without stopping the NIC outright.
    PacerDrift { host: u32, factor: f64 },
    /// The tenant departs: its workload stops, unsent data is abandoned,
    /// and in-flight traffic is never acknowledged. With a restoration
    /// instant (`until`), the tenant is re-admitted there with fresh
    /// transport and pacer state.
    TenantDown { tenant: u16 },
    /// The tenant arrives (or is re-admitted): its workload starts at
    /// this instant. A tenant whose *first* churn event is a `TenantUp`
    /// does not start at t = 0 — it joins the cell mid-run.
    TenantUp { tenant: u16 },
}

impl FaultKind {
    /// Stable display/serialization label, e.g. `link_down(3)`.
    pub fn label(&self) -> String {
        match *self {
            FaultKind::PacerDrift { host, factor } => format!("pacer_drift({host},{factor})"),
            _ => format!("{}({})", self.name(), self.target()),
        }
    }
}

/// One scheduled fault: strikes at `at`, heals at `until` (`None` =
/// permanent, or not meaningful for the kind).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub at: Time,
    pub until: Option<Time>,
    pub kind: FaultKind,
}

impl FaultEvent {
    /// The fault's realized window within a run of length `horizon`:
    /// `[at, min(until, horizon)]`. `None` if it never strikes.
    pub fn window(&self, horizon: Time) -> Option<(Time, Time)> {
        if self.at > horizon {
            return None;
        }
        let end = self.until.map_or(horizon, |u| u.min(horizon));
        Some((self.at, end))
    }
}

/// The realized window of one injected fault (clamped to the horizon).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// Index into the run's `FaultPlan::events`.
    pub fault: u32,
    /// Stable label from `FaultKind::label()` (e.g. `link_down(3)`).
    pub label: String,
    pub start: Time,
    pub end: Time,
}

impl FaultWindow {
    /// Does the closed interval `[start, end]` meet this window held open
    /// `slack` past its end? The one test of what a fault explains: a late
    /// message's lifetime (slack 0), an audit violation's instant (the
    /// audit's drain allowance) and the explorer's aftershock check.
    pub fn overlaps(&self, start: Time, end: Time, slack: Dur) -> bool {
        self.start <= end && start.0 <= self.end.0.saturating_add(slack.0)
    }
}

/// The full fault schedule of one run. Build with the fluent helpers:
///
/// ```
/// use silo_simnet::FaultPlan;
/// use silo_base::Time;
///
/// let plan = FaultPlan::new()
///     .link_down(Time::from_ms(5), Some(Time::from_ms(9)), 3)
///     .tenant_churn(1, Time::from_ms(2), Time::from_ms(7));
/// assert_eq!(plan.events.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// No faults scheduled — the engine skips all fault machinery.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn push(mut self, at: Time, until: Option<Time>, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { at, until, kind });
        self
    }

    /// Kill a link at `at`; restore it at `until` (or never).
    pub fn link_down(self, at: Time, until: Option<Time>, link: u32) -> FaultPlan {
        self.push(at, until, FaultKind::LinkDown { link })
    }

    /// Kill one directed port at `at`; restore it at `until` (or never).
    pub fn port_down(self, at: Time, until: Option<Time>, port: u32) -> FaultPlan {
        self.push(at, until, FaultKind::PortDown { port })
    }

    /// Stall a host's pacer timer for `[at, until)`.
    pub fn pacer_stall(self, at: Time, until: Time, host: u32) -> FaultPlan {
        self.push(at, Some(until), FaultKind::PacerStall { host })
    }

    /// Slow a host's pacer clock by `factor` for `[at, until)`.
    pub fn pacer_drift(self, at: Time, until: Time, host: u32, factor: f64) -> FaultPlan {
        self.push(at, Some(until), FaultKind::PacerDrift { host, factor })
    }

    /// Tenant departs at `down` and is re-admitted at `up`.
    pub fn tenant_churn(self, tenant: u16, down: Time, up: Time) -> FaultPlan {
        self.push(down, Some(up), FaultKind::TenantDown { tenant })
    }

    /// Tenant departs at `at` and never returns.
    pub fn tenant_down(self, at: Time, tenant: u16) -> FaultPlan {
        self.push(at, None, FaultKind::TenantDown { tenant })
    }

    /// Tenant joins the run at `at` (deferred start / re-admission).
    pub fn tenant_up(self, at: Time, tenant: u16) -> FaultPlan {
        self.push(at, None, FaultKind::TenantUp { tenant })
    }

    /// Tenants whose first churn event is an arrival: they must not start
    /// their workload at t = 0.
    pub fn deferred_tenants(&self) -> Vec<u16> {
        let mut first: std::collections::BTreeMap<u16, (Time, bool)> =
            std::collections::BTreeMap::new();
        for e in &self.events {
            let (t, up) = match e.kind {
                FaultKind::TenantUp { tenant } => (tenant, true),
                FaultKind::TenantDown { tenant } => (tenant, false),
                _ => continue,
            };
            let entry = first.entry(t).or_insert((e.at, up));
            if e.at < entry.0 {
                *entry = (e.at, up);
            }
        }
        first
            .into_iter()
            .filter_map(|(t, (_, up))| up.then_some(t))
            .collect()
    }

    /// `Err` naming the first event that is invalid in a cell of shape
    /// `b` (out-of-range target, inverted window, a stall without an
    /// end); the horizon is not checked. `Sim::new` panics
    /// on one; front ends that take plans from files check first and
    /// report it as a bad input.
    ///
    /// Zero-length windows (`until == at`) are *valid*: the fault strikes
    /// and heals at the same instant (start is dispatched before end —
    /// push order breaks the tie), which the schedule explorer generates
    /// when it shrinks a window to nothing. Only inverted windows reject.
    pub fn validate(&self, b: &PlanBounds) -> Result<(), String> {
        for e in &self.events {
            let ensure = |ok: bool, what: &str| {
                if ok {
                    Ok(())
                } else {
                    Err(format!("{what}: {e:?}"))
                }
            };
            if let Some(u) = e.until {
                ensure(u >= e.at, "fault window must not be inverted")?;
            }
            let (noun, n) = b.targets(&e.kind);
            if e.kind.target() as usize >= n {
                return Err(format!("{noun} out of range: {e:?}"));
            }
            match e.kind {
                FaultKind::PacerStall { .. } => {
                    ensure(e.until.is_some(), "a pacer stall needs an end")?;
                }
                FaultKind::PacerDrift { factor, .. } => {
                    ensure(e.until.is_some(), "a pacer drift needs an end")?;
                    ensure(factor >= 1.0, "drift factor must be >= 1")?;
                }
                FaultKind::TenantUp { .. } => {
                    ensure(e.until.is_none(), "tenant_up has no window")?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Every event's realized window within a run of length `horizon`
    /// ([`FaultEvent::window`]), in plan order, skipping events that
    /// never strike. `Sim::new` realizes them once; the audit, violation
    /// attribution and `Metrics::fault_windows` all read that list.
    pub fn windows(&self, horizon: Time) -> Vec<FaultWindow> {
        self.events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let (start, end) = e.window(horizon)?;
                Some(FaultWindow {
                    fault: i as u32,
                    label: e.kind.label(),
                    start,
                    end,
                })
            })
            .collect()
    }
}

/// Structural bounds of one simulation cell: how many links, directed
/// ports, hosts and tenants a plan may target, and the run horizon its
/// instants must fall inside. The schedule explorer generates, mutates
/// and sanitizes plans against these, and [`FaultPlan::validate`] checks
/// a plan against them ([`Sim::new`](crate::Sim) on its own cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanBounds {
    pub num_links: usize,
    pub num_ports: usize,
    pub num_hosts: usize,
    pub tenants: usize,
    /// Fault instants are clamped into `[0, horizon]`.
    pub horizon: Time,
}

impl PlanBounds {
    /// Bounds of a cell built from `topo` with `tenants` tenants running
    /// for `horizon`.
    pub fn of(topo: &silo_topology::Topology, tenants: usize, horizon: Time) -> PlanBounds {
        PlanBounds {
            num_links: topo.num_links(),
            num_ports: topo.num_ports(),
            num_hosts: topo.num_hosts(),
            tenants,
            horizon,
        }
    }

    /// What a fault of this kind targets (`"link"`, `"port"`, `"host"` or
    /// `"tenant"`) and how many of them the cell has.
    pub fn targets(&self, kind: &FaultKind) -> (&'static str, usize) {
        match kind {
            FaultKind::LinkDown { .. } => ("link", self.num_links),
            FaultKind::PortDown { .. } => ("port", self.num_ports),
            FaultKind::PacerStall { .. } | FaultKind::PacerDrift { .. } => ("host", self.num_hosts),
            FaultKind::TenantDown { .. } | FaultKind::TenantUp { .. } => ("tenant", self.tenants),
        }
    }
}

/// Version tag of the replayable fault-schedule interchange format.
pub const FAULTPLAN_FORMAT: &str = "silo-faultplan-v1";

impl FaultKind {
    /// Stable serialization name (the `kind` field of the JSON format).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LinkDown { .. } => "link_down",
            FaultKind::PortDown { .. } => "port_down",
            FaultKind::PacerStall { .. } => "pacer_stall",
            FaultKind::PacerDrift { .. } => "pacer_drift",
            FaultKind::TenantDown { .. } => "tenant_down",
            FaultKind::TenantUp { .. } => "tenant_up",
        }
    }

    /// The link/port/host/tenant index this fault targets.
    pub fn target(&self) -> u32 {
        match *self {
            FaultKind::LinkDown { link } => link,
            FaultKind::PortDown { port } => port,
            FaultKind::PacerStall { host } => host,
            FaultKind::PacerDrift { host, .. } => host,
            FaultKind::TenantDown { tenant } => tenant as u32,
            FaultKind::TenantUp { tenant } => tenant as u32,
        }
    }

    /// The same fault aimed at `target`: the one way a plan edit rewrites
    /// a target. Tenant ids are `u16`, so a tenant fault keeps the low 16
    /// bits of `target`.
    pub fn with_target(self, target: u32) -> FaultKind {
        match self {
            FaultKind::LinkDown { .. } => FaultKind::LinkDown { link: target },
            FaultKind::PortDown { .. } => FaultKind::PortDown { port: target },
            FaultKind::PacerStall { .. } => FaultKind::PacerStall { host: target },
            FaultKind::PacerDrift { factor, .. } => FaultKind::PacerDrift {
                host: target,
                factor,
            },
            FaultKind::TenantDown { .. } => FaultKind::TenantDown {
                tenant: target as u16,
            },
            FaultKind::TenantUp { .. } => FaultKind::TenantUp {
                tenant: target as u16,
            },
        }
    }
}

impl FaultPlan {
    /// Serialize to the versioned `silo-faultplan-v1` JSON format: a
    /// header object with one event object per line. Deterministic and
    /// exact (times in integer picoseconds, the drift factor in Rust's
    /// shortest round-trip formatting): two plans are equal **iff** their
    /// dumps are byte-identical, and [`FaultPlan::from_json`] recovers
    /// the plan exactly — the round-trip property the explorer's corpus
    /// and the regression suite rely on.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 * self.events.len() + 64);
        out.push_str(&format!("{{\"format\":\"{FAULTPLAN_FORMAT}\",\"events\":["));
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "{{\"at_ps\":{},\"until_ps\":{},\"kind\":\"{}\",\"target\":{}",
                e.at.0,
                e.until.map_or("null".to_string(), |u| u.0.to_string()),
                e.kind.name(),
                e.kind.target(),
            ));
            if let FaultKind::PacerDrift { factor, .. } = e.kind {
                // `json::fmt_f64` pins the emission contract (shortest
                // round-trip, `-0.0` keeps its sign, subnormals exact) so
                // byte-determinism of plan dumps survives writer changes.
                out.push_str(&format!(",\"factor\":{}", json::fmt_f64(factor)));
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Parse a `silo-faultplan-v1` document. Structural errors (wrong
    /// format tag, missing fields, unknown kinds) are reported with the
    /// offending event index; range checking against a cell stays with
    /// [`FaultPlan::validate`].
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let doc = Json::parse(text.trim_end())?;
        match doc.get("format").and_then(Json::as_str) {
            Some(FAULTPLAN_FORMAT) => {}
            other => return Err(format!("not a {FAULTPLAN_FORMAT} file (format: {other:?})")),
        }
        let events = doc
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("no events array")?;
        let mut plan = FaultPlan::new();
        for (i, e) in events.iter().enumerate() {
            let at = Time(
                e.get("at_ps")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i}: missing integer at_ps"))?,
            );
            let until = match e.get("until_ps") {
                None => return Err(format!("event {i}: missing until_ps")),
                Some(Json::Null) => None,
                Some(v) => Some(Time(v.as_u64().ok_or_else(|| {
                    format!("event {i}: until_ps must be null or an integer")
                })?)),
            };
            let target = e
                .get("target")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event {i}: missing integer target"))?;
            // A target too wide for its id type is refused, not wrapped
            // into range: `validate` would then pass a different fault.
            let too_wide = |_| format!("event {i}: target {target} out of range");
            let id = || u32::try_from(target).map_err(too_wide);
            let tenant = || u16::try_from(target).map_err(too_wide);
            let kind = match e.get("kind").and_then(Json::as_str) {
                Some("link_down") => FaultKind::LinkDown { link: id()? },
                Some("port_down") => FaultKind::PortDown { port: id()? },
                Some("pacer_stall") => FaultKind::PacerStall { host: id()? },
                Some("pacer_drift") => FaultKind::PacerDrift {
                    host: id()?,
                    factor: e
                        .get("factor")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("event {i}: pacer_drift needs a factor"))?,
                },
                Some("tenant_down") => FaultKind::TenantDown { tenant: tenant()? },
                Some("tenant_up") => FaultKind::TenantUp { tenant: tenant()? },
                other => return Err(format!("event {i}: unknown kind {other:?}")),
            };
            plan.events.push(FaultEvent { at, until, kind });
        }
        Ok(plan)
    }

    /// Coerce an arbitrary (e.g. freshly mutated) plan into one
    /// [`FaultPlan::validate`] accepts for a cell of shape `b`: instants
    /// clamped into `[0, horizon]`, inverted windows collapsed to
    /// zero-length, targets wrapped into range, kind-specific shape fixed
    /// (stalls/drifts get an end, `tenant_up` loses its window, drift
    /// factors clamped to `[1, 64]`). Events targeting a dimension the
    /// cell doesn't have (e.g. a link fault with `num_links == 0`) are
    /// dropped. Event order — and therefore the fault indices violations
    /// attribute to — is preserved for the survivors.
    pub fn sanitize(&self, b: &PlanBounds) -> FaultPlan {
        let horizon = b.horizon;
        let mut out = FaultPlan::new();
        for e in &self.events {
            let at = Time(e.at.0.min(horizon.0));
            let until = e.until.map(|u| Time(u.0.clamp(at.0, horizon.0)));
            let n = b.targets(&e.kind).1;
            if n == 0 {
                continue;
            }
            let mut kind = e.kind.with_target(e.kind.target() % n as u32);
            if let FaultKind::PacerDrift { factor, .. } = &mut kind {
                *factor = if factor.is_finite() {
                    factor.clamp(1.0, 64.0)
                } else {
                    1.0
                };
            }
            // Kind-specific window shape (validate's other asserts).
            let until = match kind {
                FaultKind::PacerStall { .. } | FaultKind::PacerDrift { .. } => {
                    Some(until.unwrap_or(horizon))
                }
                FaultKind::TenantUp { .. } => None,
                _ => until,
            };
            out.events.push(FaultEvent { at, until, kind });
        }
        out
    }

    /// One random structure-preserving edit, AFL-style: shift a window,
    /// resize it, split it in two, merge two same-target windows, clone
    /// one onto an overlapping window, retarget, add a fresh event, or
    /// drop one. The result is [`FaultPlan::sanitize`]d, so it is always
    /// a plan `Sim::new` accepts for a cell of shape `b`. Deterministic:
    /// the same `rng` state produces the same mutant.
    pub fn mutate(&self, rng: &mut StdRng, b: &PlanBounds) -> FaultPlan {
        let mut plan = self.clone();
        let horizon = b.horizon.0.max(1);
        // Window nudges work at 1/16 of the horizon: big enough to move a
        // fault across batch/RTO timescales, small enough to stay local.
        let step = (horizon / 16).max(1);
        let op = if plan.events.is_empty() {
            6 // only "add" makes sense on an empty plan
        } else {
            rng.random_range(0..8u32)
        };
        match op {
            // Shift a whole window (start and end together).
            0 => {
                let i = rng.random_range(0..plan.events.len());
                let delta = rng.random_range(0..2 * step) as i128 - step as i128;
                let e = &mut plan.events[i];
                let at = (e.at.0 as i128 + delta).clamp(0, horizon as i128) as u64;
                let moved = at as i128 - e.at.0 as i128;
                e.at = Time(at);
                e.until = e
                    .until
                    .map(|u| Time((u.0 as i128 + moved).clamp(0, horizon as i128) as u64));
            }
            // Resize: move only the end (may collapse to zero-length).
            1 => {
                let i = rng.random_range(0..plan.events.len());
                let delta = rng.random_range(0..2 * step) as i128 - step as i128;
                let e = &mut plan.events[i];
                if let Some(u) = e.until {
                    e.until = Some(Time(
                        (u.0 as i128 + delta).clamp(e.at.0 as i128, horizon as i128) as u64,
                    ));
                }
            }
            // Split one window into two with a gap between the halves —
            // a kill/restore flap where one outage was.
            2 => {
                let i = rng.random_range(0..plan.events.len());
                let e = plan.events[i];
                if let Some(u) = e.until {
                    let span = u.0 - e.at.0;
                    if span >= 4 {
                        let cut = e.at.0 + rng.random_range(1..span);
                        let gap = rng.random_range(0..step.min(span));
                        plan.events[i].until = Some(Time(cut));
                        plan.events.push(FaultEvent {
                            at: Time((cut + gap).min(u.0)),
                            until: Some(u),
                            kind: e.kind,
                        });
                    }
                }
            }
            // Merge two windows of the same kind+target into one span.
            3 => {
                let i = rng.random_range(0..plan.events.len());
                let key = (plan.events[i].kind.name(), plan.events[i].kind.target());
                if let Some(j) = (0..plan.events.len()).find(|&j| {
                    j != i && (plan.events[j].kind.name(), plan.events[j].kind.target()) == key
                }) {
                    let (a, b2) = (plan.events[i], plan.events[j]);
                    let at = a.at.min(b2.at);
                    let until = match (a.until, b2.until) {
                        (Some(x), Some(y)) => Some(x.max(y)),
                        _ => None,
                    };
                    plan.events[i] = FaultEvent {
                        at,
                        until,
                        kind: a.kind,
                    };
                    plan.events.remove(j);
                }
            }
            // Clone an event onto an overlapping, jittered window —
            // overlapping kill/restore on the same target.
            4 => {
                let i = rng.random_range(0..plan.events.len());
                let e = plan.events[i];
                let jitter = rng.random_range(0..step);
                plan.events.push(FaultEvent {
                    at: Time((e.at.0 + jitter).min(horizon)),
                    until: e.until.map(|u| Time((u.0 + jitter).min(horizon))),
                    kind: e.kind,
                });
            }
            // Retarget within the same kind.
            5 => {
                let i = rng.random_range(0..plan.events.len());
                let t = rng.random_range(0..u32::MAX as u64) as u32;
                let e = &mut plan.events[i];
                e.kind = e.kind.with_target(t);
            }
            // Add a fresh random event.
            6 => {
                let at = Time(rng.random_range(0..horizon));
                let until = if rng.random_bool(0.75) {
                    // `at < horizon`, so the exclusive range is non-empty.
                    Some(Time(rng.random_range(at.0..horizon)))
                } else {
                    None
                };
                let t = rng.random_range(0..u32::MAX as u64) as u32;
                let kind = match rng.random_range(0..6u32) {
                    0 => FaultKind::LinkDown { link: t },
                    1 => FaultKind::PortDown { port: t },
                    2 => FaultKind::PacerStall { host: t },
                    3 => FaultKind::PacerDrift {
                        host: t,
                        factor: 1.0 + rng.random::<f64>() * 15.0,
                    },
                    4 => FaultKind::TenantDown { tenant: t as u16 },
                    _ => FaultKind::TenantUp { tenant: t as u16 },
                };
                plan.events.push(FaultEvent { at, until, kind });
            }
            // Drop one event.
            _ => {
                let i = rng.random_range(0..plan.events.len());
                plan.events.remove(i);
            }
        }
        plan.sanitize(b)
    }

    /// Shrink candidates for counterexample minimization, in preference
    /// order: fewest faults first (drop each event), then shortest
    /// windows (halve each span), then earliest strike (halve each
    /// offset, keeping the span — pulls the divergence toward t = 0),
    /// then tamest drift factors. Feed to
    /// `silo_base::prop::shrink_failure` with "the replayed schedule
    /// still fails" as the predicate.
    pub fn shrink_candidates(&self) -> Vec<FaultPlan> {
        let mut out = Vec::new();
        for i in 0..self.events.len() {
            let mut p = self.clone();
            p.events.remove(i);
            out.push(p);
        }
        for (i, e) in self.events.iter().enumerate() {
            if let Some(u) = e.until {
                let span = u.0 - e.at.0;
                if span > 0 {
                    let mut p = self.clone();
                    p.events[i].until = Some(Time(e.at.0 + span / 2));
                    out.push(p);
                }
            }
            if e.at.0 > 0 {
                let mut p = self.clone();
                let at = e.at.0 / 2;
                p.events[i].at = Time(at);
                p.events[i].until = e.until.map(|u| Time(u.0 - (e.at.0 - at)));
                out.push(p);
            }
            if let FaultKind::PacerDrift { host, factor } = e.kind {
                if factor > 1.0 {
                    let mut p = self.clone();
                    p.events[i].kind = FaultKind::PacerDrift {
                        host,
                        factor: 1.0 + (factor - 1.0) / 2.0,
                    };
                    out.push(p);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn windows_clamp_to_horizon() {
        let e = FaultEvent {
            at: Time::from_ms(5),
            until: Some(Time::from_ms(50)),
            kind: FaultKind::LinkDown { link: 0 },
        };
        assert_eq!(
            e.window(Time::from_ms(20)),
            Some((Time::from_ms(5), Time::from_ms(20)))
        );
        assert_eq!(
            e.window(Time::from_ms(100)),
            Some((Time::from_ms(5), Time::from_ms(50)))
        );
        let late = FaultEvent {
            at: Time::from_ms(30),
            ..e
        };
        assert_eq!(late.window(Time::from_ms(20)), None);
    }

    #[test]
    fn deferred_tenants_are_first_up() {
        let plan = FaultPlan::new()
            .tenant_up(Time::from_ms(3), 2)
            .tenant_churn(1, Time::from_ms(1), Time::from_ms(4))
            .tenant_up(Time::from_ms(9), 1);
        // Tenant 2 joins mid-run; tenant 1's first event is a departure,
        // so it starts normally at t = 0.
        assert_eq!(plan.deferred_tenants(), vec![2]);
    }

    #[test]
    fn zero_length_window_accepted() {
        // The explorer shrinks windows to nothing; strike-and-heal at one
        // instant is structurally valid.
        FaultPlan::new()
            .link_down(Time::from_ms(5), Some(Time::from_ms(5)), 0)
            .validate(&PlanBounds {
                tenants: 1,
                ..bounds()
            })
            .unwrap();
    }

    /// One event per way a plan can be invalid, in `validate`'s order,
    /// on a cell of 4 links, 8 ports, 2 hosts, 1 tenant.
    #[test]
    fn validate_names_each_defect_and_its_event() {
        let ms = Time::from_ms;
        let window = |at, until: Option<u64>, kind| FaultEvent {
            at: ms(at),
            until: until.map(ms),
            kind,
        };
        let cases = [
            (
                window(5, Some(4), FaultKind::LinkDown { link: 0 }),
                "fault window must not be inverted",
            ),
            (
                window(5, None, FaultKind::LinkDown { link: 4 }),
                "link out of range",
            ),
            (
                window(5, None, FaultKind::PortDown { port: 8 }),
                "port out of range",
            ),
            (
                window(5, Some(6), FaultKind::PacerStall { host: 2 }),
                "host out of range",
            ),
            (
                window(5, None, FaultKind::PacerStall { host: 0 }),
                "a pacer stall needs an end",
            ),
            (
                window(
                    5,
                    Some(6),
                    FaultKind::PacerDrift {
                        host: 2,
                        factor: 2.0,
                    },
                ),
                "host out of range",
            ),
            (
                window(
                    5,
                    None,
                    FaultKind::PacerDrift {
                        host: 0,
                        factor: 2.0,
                    },
                ),
                "a pacer drift needs an end",
            ),
            (
                window(
                    5,
                    Some(6),
                    FaultKind::PacerDrift {
                        host: 0,
                        factor: 0.5,
                    },
                ),
                "drift factor must be >= 1",
            ),
            (
                window(5, None, FaultKind::TenantDown { tenant: 1 }),
                "tenant out of range",
            ),
            (
                window(5, None, FaultKind::TenantUp { tenant: 1 }),
                "tenant out of range",
            ),
            (
                window(5, Some(6), FaultKind::TenantUp { tenant: 0 }),
                "tenant_up has no window",
            ),
        ];
        for (bad, what) in cases {
            // A valid event first: the error must name the bad one.
            let plan = FaultPlan {
                events: vec![window(1, Some(2), FaultKind::LinkDown { link: 3 }), bad],
            };
            assert_eq!(
                plan.validate(&PlanBounds {
                    tenants: 1,
                    ..bounds()
                }),
                Err(format!("{what}: {bad:?}")),
                "{what}"
            );
        }
        rich_plan().validate(&bounds()).unwrap();
    }

    /// `Sim::new` on an invalid plan, next to its `SimConfig` check.
    fn sim_new_with(plan: FaultPlan) {
        use silo_base::Dur;
        use silo_topology::{Topology, TreeParams};
        let mut cfg = crate::SimConfig::new(crate::TransportMode::Tcp, Dur::from_ms(1), 1);
        cfg.faults = plan;
        crate::Sim::new(Topology::build(TreeParams::testbed()), cfg, Vec::new());
    }

    #[test]
    #[should_panic(expected = "invalid FaultPlan: fault window must not be inverted")]
    fn inverted_window_rejected() {
        sim_new_with(FaultPlan::new().link_down(Time::from_ms(5), Some(Time::from_ms(4)), 0));
    }

    #[test]
    #[should_panic(expected = "invalid FaultPlan: link out of range")]
    fn out_of_range_link_rejected() {
        sim_new_with(FaultPlan::new().link_down(Time::from_ms(5), None, 99));
    }

    fn rich_plan() -> FaultPlan {
        FaultPlan::new()
            .link_down(Time::from_ms(5), Some(Time::from_ms(10)), 2)
            .port_down(Time::from_ms(1), None, 3)
            .pacer_stall(Time::from_ms(2), Time::from_ms(3), 0)
            .pacer_drift(Time::from_ms(4), Time::from_ms(6), 1, 7.3)
            .tenant_churn(0, Time::from_ms(7), Time::from_ms(8))
            .tenant_up(Time::from_ms(9), 1)
    }

    fn bounds() -> PlanBounds {
        PlanBounds {
            num_links: 4,
            num_ports: 8,
            num_hosts: 2,
            tenants: 2,
            horizon: Time::from_ms(20),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let plan = rich_plan();
        let text = plan.to_json();
        assert!(text.contains(FAULTPLAN_FORMAT));
        let back = FaultPlan::from_json(&text).unwrap();
        assert_eq!(back, plan);
        // Byte-determinism: dump(parse(dump(p))) == dump(p).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn json_rejects_malformed_input() {
        assert!(FaultPlan::from_json("{}").is_err());
        assert!(FaultPlan::from_json("{\"format\":\"silo-trace-v1\"}").is_err());
        let bad_kind = "{\"format\":\"silo-faultplan-v1\",\"events\":[\n{\"at_ps\":0,\"until_ps\":null,\"kind\":\"meteor\",\"target\":0}\n]}";
        let err = FaultPlan::from_json(bad_kind).unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
        let frac = "{\"format\":\"silo-faultplan-v1\",\"events\":[\n{\"at_ps\":0.5,\"until_ps\":null,\"kind\":\"link_down\",\"target\":0}\n]}";
        assert!(FaultPlan::from_json(frac).is_err());
    }

    /// Shrunk from the explorer-plan fuzz (`tests/input_fuzz.rs`): a
    /// tenant target of 2^53-ish used to wrap to tenant 40 643 and a link
    /// target of 2^32 + 3 to link 3, which `validate` then accepted.
    #[test]
    fn json_refuses_targets_too_wide_for_their_id() {
        let event = |kind: &str, target: u64| {
            format!(
                "{{\"format\":\"silo-faultplan-v1\",\"events\":[\n\
                 {{\"at_ps\":0,\"until_ps\":null,\"kind\":\"{kind}\",\"target\":{target}}}\n]}}"
            )
        };
        for (kind, target) in [
            ("tenant_down", 2_894_845_056_229_059),
            ("tenant_up", 65_536),
            ("link_down", (1 << 32) + 3),
        ] {
            let err = FaultPlan::from_json(&event(kind, target)).unwrap_err();
            assert!(err.contains("out of range"), "{kind} {target}: {err}");
        }
        assert!(FaultPlan::from_json(&event("tenant_down", 65_535)).is_ok());
    }

    #[test]
    fn sanitize_yields_valid_plans() {
        let b = bounds();
        // Wild inputs: out-of-range targets, inverted window, missing
        // stall end, absurd drift factor, instants past the horizon.
        let wild = FaultPlan {
            events: vec![
                FaultEvent {
                    at: Time::from_ms(50),
                    until: Some(Time::from_ms(4)),
                    kind: FaultKind::LinkDown { link: 999 },
                },
                FaultEvent {
                    at: Time::from_ms(1),
                    until: None,
                    kind: FaultKind::PacerStall { host: 17 },
                },
                FaultEvent {
                    at: Time::from_ms(2),
                    until: Some(Time::from_ms(3)),
                    kind: FaultKind::PacerDrift {
                        host: 5,
                        factor: f64::INFINITY,
                    },
                },
                FaultEvent {
                    at: Time::from_ms(6),
                    until: Some(Time::from_ms(9)),
                    kind: FaultKind::TenantUp { tenant: 7 },
                },
            ],
        };
        let clean = wild.sanitize(&b);
        assert_eq!(clean.events.len(), 4);
        clean.validate(&b).unwrap();
        // A plan with no valid dimension for an event drops it.
        let no_links = PlanBounds { num_links: 0, ..b };
        assert_eq!(wild.sanitize(&no_links).events.len(), 3);
    }

    #[test]
    fn mutants_always_validate_and_are_deterministic() {
        let b = bounds();
        let mut rng = StdRng::seed_from_u64(42);
        let mut plan = rich_plan();
        for _ in 0..200 {
            plan = plan.mutate(&mut rng, &b);
            plan.validate(&b).unwrap();
        }
        // Same seed, same trajectory.
        let mut rng2 = StdRng::seed_from_u64(42);
        let mut plan2 = rich_plan();
        for _ in 0..200 {
            plan2 = plan2.mutate(&mut rng2, &b);
        }
        assert_eq!(plan, plan2);
        // Empty plans grow instead of panicking.
        let grown = FaultPlan::new().mutate(&mut rng, &b);
        grown.validate(&b).unwrap();
    }

    #[test]
    fn shrink_candidates_are_simpler_and_valid() {
        let b = bounds();
        let plan = rich_plan();
        let cands = plan.shrink_candidates();
        assert!(!cands.is_empty());
        for c in &cands {
            // Shrinks of a sanitized plan stay valid (only drop, shorten,
            // advance, or tame events).
            c.sanitize(&b).validate(&b).unwrap();
            assert!(c.events.len() <= plan.events.len());
        }
        // Every single-event drop is offered: fewest-faults-first.
        assert!(
            cands
                .iter()
                .filter(|c| c.events.len() == plan.events.len() - 1)
                .count()
                >= plan.events.len()
        );
    }
}
