//! The metrics this benchmark prints: names, units and direction. The
//! same tables are in `BENCHMARK.json` at the repo root; a test keeps the
//! two equal. Every workload prints every metric: one its layers never
//! reach reads zero (a per-layer metric only; the end-to-end ones are
//! never zero).

use std::collections::BTreeMap;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    // Direction and bound are the driver's to apply; here only the test
    // that keeps BENCHMARK.json equal to these tables reads them.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    #[cfg_attr(not(test), allow(dead_code))]
    pub bound: f64,
}

/// What a user of the simulator or the admission service sees. The
/// bounds are set from what this host showed across runs of unchanged
/// code on ten seeds (NOISE.md), not the tenth the issue hoped for: a
/// bound inside the noise rejects unchanged code. `run_s` medians of
/// 20-second runs spread up to 23 % and drift up to 23 % between sets
/// twenty minutes apart; `peak_rss_mb` steps 9 % with the seed on `pkt_tcp`;
/// `ok_frac` moves 2.4 % with the seed on the Silo cells.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "ok_frac",
        unit: "ratio",
        better: "higher",
        bound: 0.1,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = module. Counts come from `Metrics`/`ServiceStats` and repeat
/// exactly; `*_s`, `ns_*` and `*_us` are host time. README.md maps each
/// to the end-to-end metric and workload it should move.
pub const PER_LAYER: &[PerLayer] = &[
    m("eventq.scheduled", "count", "lower"),
    m("eventq.fired", "count", "lower"),
    m("eventq.cancelled", "count", "lower"),
    m("eventq.stale", "count", "lower"),
    m("eventq.peak_len", "count", "lower"),
    m("eventq.ns_per_op", "ns", "lower"),
    m("simnet.events", "count", "lower"),
    m("simnet.ns_per_event", "ns", "lower"),
    m("simnet.events_per_sec", "1/s", "higher"),
    m("simnet.sim_ms_per_wall_s", "ms/s", "higher"),
    m("simnet.cold_run_s", "s", "lower"),
    m("simnet.new_s", "s", "lower"),
    m("simnet.fired.arrive", "count", "lower"),
    m("simnet.fired.port_free", "count", "lower"),
    m("simnet.fired.nic_pull", "count", "lower"),
    m("simnet.fired.rto", "count", "lower"),
    m("simnet.fired.hose_epoch", "count", "lower"),
    m("simnet.fired.pace_resume", "count", "lower"),
    m("simnet.fired.apps", "count", "lower"),
    m("simnet.msgs_completed", "count", "higher"),
    m("simnet.late_msgs", "count", "lower"),
    m("simnet.msg_p99_norm", "ratio", "lower"),
    m("port.drops", "count", "lower"),
    m("port.max_queue_bytes", "B", "lower"),
    m("port.ns_per_pkt", "ns", "lower"),
    m("tcp.rtos", "count", "lower"),
    m("tcp.ns_per_segment", "ns", "lower"),
    m("packet.ns_per_alloc_free", "ns", "lower"),
    m("stats.ns_per_record", "ns", "lower"),
    m("pacer.wire_data_bytes", "B", "higher"),
    m("pacer.wire_void_bytes", "B", "lower"),
    m("pacer.token_violations", "count", "lower"),
    m("pacer.ns_per_stamp", "ns", "lower"),
    m("pacer.ns_per_batched_pkt", "ns", "lower"),
    m("pacer.ns_per_hose_alloc", "ns", "lower"),
    m("audit.events_checked", "count", "higher"),
    m("audit.violations", "count", "lower"),
    m("trace.events_retained", "count", "higher"),
    m("trace.events_evicted", "count", "lower"),
    m("telemetry.windows", "count", "higher"),
    m("audit.overhead_ratio", "ratio", "lower"),
    m("trace.overhead_ratio", "ratio", "lower"),
    m("telemetry.overhead_ratio", "ratio", "lower"),
    m("observers.overhead_ratio", "ratio", "lower"),
    m("topology.build_s", "s", "lower"),
    m("scenario.population_s", "s", "lower"),
    m("workload.churn_generate_s", "s", "lower"),
    m("workload.churn_events", "count", "lower"),
    m("metrics.fingerprint_s", "s", "lower"),
    m("placement.admit_us.p50", "us", "lower"),
    m("placement.admit_us.mean", "us", "lower"),
    m("placement.admit_us.p99", "us", "lower"),
    m("placement.admit_us.p999", "us", "lower"),
    m("placement.admissions_per_sec", "1/s", "higher"),
    m("placement.evict_us.mean", "us", "lower"),
    m("placement.evictions_per_sec", "1/s", "higher"),
    m("placement.fault_ms.mean", "ms", "lower"),
    m("placement.admits", "count", "higher"),
    m("placement.rejects", "count", "lower"),
    m("placement.evicts", "count", "higher"),
    m("placement.evict_noops", "count", "lower"),
    m("placement.faults", "count", "lower"),
    m("placement.resident_tenants", "count", "higher"),
    m("placement.mask_rebuilds", "count", "lower"),
    m("placement.snapshot_s", "s", "lower"),
    m("placement.restore_s", "s", "lower"),
    m("placement.verify_s", "s", "lower"),
    m("placement.snapshot_bytes", "B", "lower"),
    m("netcalc.bound_cache.hits", "count", "higher"),
    m("netcalc.bound_cache.misses", "count", "lower"),
    m("netcalc.bound_cache.hit_ratio", "ratio", "higher"),
    m("netcalc.ns_per_backlog_bound", "ns", "lower"),
    m("alloc.count_per_kop", "1/kop", "lower"),
    m("alloc.bytes_per_op", "B", "lower"),
    m("bench.trace_overhead_ratio", "ratio", "lower"),
    m("bench.run_s", "s", "lower"),
    m("bench.reps", "count", "higher"),
    m("est_share.eventq", "ratio", "lower"),
    m("est_share.port", "ratio", "lower"),
    m("est_share.tcp", "ratio", "lower"),
    m("est_share.packet", "ratio", "lower"),
    m("est_share.pacer", "ratio", "lower"),
    m("est_share.stats", "ratio", "lower"),
    m("est_share.placement", "ratio", "lower"),
    m("est_share.unattributed", "ratio", "lower"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|e| (e.name, e.unit))
        .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

/// Measured values by metric name. Setting an undeclared name is a bug in
/// the benchmark and panics, so a typo cannot print a silent zero.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `"name": {"value": v, "unit": "u"}` for each of `names`, in order.
    /// Floats print with Rust's shortest round-trip formatting: every
    /// digit measured, none invented.
    fn json_of<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
        missing_ok: bool,
    ) -> Result<String, String> {
        let mut parts = Vec::new();
        for name in names {
            let v = match self.get(name) {
                Some(v) => v,
                None if missing_ok => 0.0,
                None => return Err(format!("end-to-end metric `{name}` was not measured")),
            };
            let unit = unit_of(name).expect("declared");
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// The metrics object of an untraced run: every end-to-end metric.
    pub fn end_to_end_json(&self) -> Result<String, String> {
        self.json_of(END_TO_END.iter().map(|e| e.name), false)
    }

    /// The metrics object of a traced run: every per-layer metric, zero
    /// where this workload never reaches the layer.
    pub fn per_layer_json(&self) -> String {
        self.json_of(PER_LAYER.iter().map(|p| p.name), true)
            .expect("missing per-layer metrics read zero")
    }

    /// Everything measured, for the result file and the stderr table.
    pub fn all(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.0
            .iter()
            .map(|(&n, &v)| (n, v, unit_of(n).expect("declared")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_base::Json;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
        {
            assert!(name_ok(n), "bad metric name `{n}`");
            assert!(unit_ok(u), "bad unit `{u}` on `{n}`");
            assert!(seen.insert(n), "metric `{n}` declared twice");
        }
        assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s" && e.better == "lower"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// Every printed name is declared in BENCHMARK.json and vice versa,
    /// with the same unit, direction and bound.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |o: &Json, k: &str| o.get(k).and_then(Json::as_str).expect(k).to_string();

        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end")
            .iter()
            .map(|o| {
                let bound = o.get("bound").and_then(Json::as_f64).expect("bound");
                (
                    field(o, "name"),
                    field(o, "unit"),
                    field(o, "better"),
                    bound,
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|e| (e.name.into(), e.unit.into(), e.better.into(), e.bound))
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer")
            .iter()
            .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|p| (p.name.into(), p.unit.into(), p.better.into()))
            .collect();
        assert_eq!(layers, ours);

        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|o| field(o, "name"))
            .collect();
        let ours: Vec<String> = crate::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error_missing_layer_reads_zero() {
        let mut v = Values::default();
        v.set("run_s", 1.25);
        assert!(v.end_to_end_json().is_err());
        let layers = v.per_layer_json();
        assert!(layers.contains("\"eventq.fired\": {\"value\": 0, \"unit\": \"count\"}"));
        for (n, x) in [("setup_s", 0.5), ("peak_rss_mb", 10.0), ("ok_frac", 1.0)] {
            v.set(n, x);
        }
        let e2e = v.end_to_end_json().unwrap();
        assert!(
            e2e.starts_with("{\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}"),
            "{e2e}"
        );
        assert!(Json::parse(&e2e).is_ok() && Json::parse(&layers).is_ok());
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_name_panics() {
        Values::default().set("eventq.fried", 1.0);
    }
}
