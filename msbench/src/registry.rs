//! The benchmark's names: every end-to-end and per-layer metric with
//! its unit and direction, and the `BENCHMARK.json` they render to.
//! The binary reports exactly these names; a test holds the checked-in
//! `BENCHMARK.json` equal to [`manifest`].

use serde_json::{json, Value};

use crate::drivers::DRIVER_METRICS;
use crate::stats::Better::{self, Higher, Lower};
use crate::workloads::Workload;

/// How long one contract run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Whether it is read off the host's clock or memory (varies run
    /// to run) or computed in simulated time (repeats exactly).
    pub host: bool,
}

/// The end-to-end metrics. The bounds are wide because the driver
/// varies `--seed` between runs, and a fleet simulation's work and
/// results depend on the few churn events that happen to hit
/// operator-hosting phones: see the README's "Seeds" section for the
/// measured spreads behind each bound.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        host: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        host: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.20,
        host: true,
    },
    EndToEnd {
        name: "sim_tuples_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        host: false,
    },
    EndToEnd {
        name: "sim_latency_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        host: false,
    },
    EndToEnd {
        name: "sim_recovery_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        host: false,
    },
];

/// A per-layer metric: name, unit, direction.
pub type PerLayer = (&'static str, &'static str, Better);

/// Exact counts (and values derived from them) of one traced rep.
pub const COUNT_METRICS: [PerLayer; 40] = [
    ("simkernel.events", "count", Lower),
    ("simkernel.windows", "count", Lower),
    ("simkernel.events_per_window", "count", Higher),
    ("simkernel.pool_recycled", "count", Higher),
    ("simkernel.pool_fresh", "count", Lower),
    ("simkernel.pool_unpooled", "count", Lower),
    ("simkernel.pool_aliasing", "count", Lower),
    ("simkernel.sanitizer_violations", "count", Lower),
    ("simkernel.ns_per_event", "ns", Lower),
    ("simnet.wifi_msgs", "count", Lower),
    ("simnet.wifi_mb", "MB", Lower),
    ("simnet.wifi_ckpt_mb", "MB", Lower),
    ("simnet.wifi_drops", "count", Lower),
    ("simnet.cell_msgs", "count", Lower),
    ("simnet.cell_mb", "MB", Lower),
    ("simnet.cell_queue_drops", "count", Lower),
    ("simnet.cell_max_queue_kb", "kB", Lower),
    ("simnet.cell_severed_sends", "count", Lower),
    ("simnet.cell_rejects", "count", Lower),
    ("simnet.eth_mb", "MB", Lower),
    ("dsps.sink_outputs", "count", Higher),
    ("dsps.source_drops", "count", Lower),
    ("dsps.catchup_discards", "count", Lower),
    ("dsps.latency_p95_s", "s", Lower),
    ("mobistreams.commits", "count", Higher),
    ("mobistreams.recoveries", "count", Lower),
    ("mobistreams.recovery_p99_s", "s", Lower),
    ("mobistreams.departures_handled", "count", Higher),
    ("mobistreams.region_stops", "count", Lower),
    ("mobistreams.membership_msgs", "count", Lower),
    ("mobistreams.membership_kb", "kB", Lower),
    ("mobistreams.severed_episodes", "count", Lower),
    ("mobistreams.duplicate_commits", "count", Lower),
    ("mobistreams.slo_violations", "count", Lower),
    ("baselines.recoveries", "count", Lower),
    ("baselines.ckpt_repl_mb", "MB", Lower),
    ("baselines.preserved_mb", "MB", Lower),
    ("experiments.churn_events", "count", Lower),
    ("experiments.weather_injections", "count", Lower),
    ("sim.recovery_s", "s", Lower),
];

/// Host-time spans of the traced reps.
pub const SPAN_METRICS: [PerLayer; 11] = [
    ("experiments.config_s", "s", Lower),
    ("experiments.build_s", "s", Lower),
    ("simkernel.enable_sharding_s", "s", Lower),
    ("experiments.harvest_s", "s", Lower),
    ("phase.slice_p50_ms", "ms", Lower),
    ("phase.slice_p99_ms", "ms", Lower),
    ("phase.slice_max_ms", "ms", Lower),
    ("phase.ckpt_round_share", "share", Lower),
    ("phase.recovery_share", "share", Lower),
    ("phase.steady_share", "share", Higher),
    ("phase.trace_overhead_rel", "share", Lower),
];

/// Every per-layer metric, in reporting order: counts, spans, drivers.
pub fn per_layer() -> Vec<PerLayer> {
    COUNT_METRICS
        .into_iter()
        .chain(SPAN_METRICS)
        .chain(DRIVER_METRICS.map(|(name, unit)| (name, unit, Lower)))
        .collect()
}

fn field(key: &str, v: Value) -> (String, Value) {
    (key.to_string(), v)
}

/// `BENCHMARK.json`, rendered from the registry.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "msbench/Cargo.toml",
        "--",
    ];
    Value::Obj(vec![
        field("command", json!(command.map(String::from).to_vec())),
        field("paths", json!(vec!["msbench".to_string()])),
        field("run_seconds", json!(RUN_SECONDS)),
        field(
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| json!({"name": w.name(), "why": w.why()}))
                    .collect(),
            ),
        ),
        field(
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        json!({
                            "name": m.name,
                            "unit": m.unit,
                            "better": m.better.label(),
                            "bound": m.bound,
                        })
                    })
                    .collect(),
            ),
        ),
        field(
            "per_layer",
            Value::Arr(
                per_layer()
                    .into_iter()
                    .map(|(name, unit, better)| {
                        json!({"name": name, "unit": unit, "better": better.label()})
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        name.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_alphabet_and_are_unique() {
        let mut seen = BTreeSet::new();
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()));
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(layers.iter().map(|&(n, u, _)| (n, u)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "count")));
        for (name, unit) in all {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// The checked-in `BENCHMARK.json` is the registry's rendering, so
    /// the binary's names and the manifest's cannot drift apart.
    #[test]
    fn benchmark_json_equals_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let rendered = serde_json::from_str(&manifest().render()).expect("manifest parses");
        assert_eq!(on_disk, rendered);
        let Value::Obj(fields) = &on_disk else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
