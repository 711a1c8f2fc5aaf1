//! A 2-region × 8-phone, 60 s miniature driven through the same
//! rep / fingerprint / trace / run code path as the real workloads,
//! with its output validated against the registry and the contract's
//! result schema.

use experiments::fleet::{self, FleetRegion};
use experiments::weather::{WeatherProgram, WeatherSystem};
use msbench::bench::{layer_values, run, RunArgs, SUB_SEEDS};
use msbench::cli::result_line;
use msbench::drivers::DRIVER_METRICS;
use msbench::registry::{per_layer, END_TO_END};
use msbench::rep::{reference, run_rep};
use msbench::trace::Tracer;
use msbench::workloads::SimSpec;
use serde_json::Value;
use simkernel::SimDuration;

/// The stadium profile shrunk to 2 regions of 8 phones and 60 s, with
/// enough churn that recoveries and departures happen.
fn mini(seed: u64) -> Vec<SimSpec> {
    let mut cfg = fleet::profile("stadium", seed).expect("library profile");
    cfg.regions = (0..2).map(|_| FleetRegion::of(8)).collect();
    cfg.duration = SimDuration::from_secs(60);
    cfg.warmup = SimDuration::from_secs(10);
    cfg.ckpt_period = SimDuration::from_secs(20);
    cfg.ckpt_offset = SimDuration::from_secs(5);
    cfg.churn.fail_per_phone_hour = 20.0;
    cfg.churn.depart_per_phone_hour = 40.0;
    cfg.churn.quiet_start_s = 12.0;
    cfg.churn.mean_rejoin_s = 10.0;
    vec![SimSpec::Fleet(cfg)]
}

#[test]
fn traced_rep_matches_untraced_rep_and_the_canonical_run() {
    let (canonical, digests) = reference(&mini(3));
    assert_eq!(digests.len(), 1, "one fleet sim, one canonical digest");

    let plain = run_rep(|| mini(3), &mut Tracer::off());
    let mut tracer = Tracer::on();
    let traced = run_rep(|| mini(3), &mut tracer);

    assert_eq!(plain.outputs, canonical, "harness rep equals run_fleet");
    assert_eq!(
        plain.fingerprint, traced.fingerprint,
        "tracing is observation-only"
    );
    assert_eq!(plain.invariant_failure(), None);
    assert_eq!(traced.invariant_failure(), None);
    assert_eq!(plain.sim, traced.sim);
    assert!(plain.tally.events > 0 && plain.tally.ms_commits > 0);
    assert!(plain.tally.churn_events > 0, "the miniature has churn");
    // Windows are observable only with the sanitizer on (always, in a
    // traced rep), and slicing `run_until` adds a barrier per slice.
    assert!(traced.tally.windows > 0);
    let without_windows = |rep: &msbench::rep::Rep| {
        let mut t = rep.tally.clone();
        t.windows = 0;
        t
    };
    assert_eq!(
        without_windows(&traced),
        without_windows(&plain),
        "counts are exact"
    );
    assert_ne!(
        run_rep(|| mini(4), &mut Tracer::off()).fingerprint,
        plain.fingerprint,
        "another seed, another fingerprint"
    );

    // One span per simulated second, each inside its parent, shares
    // adding up.
    let spans = tracer.spans();
    let slices: Vec<_> = spans.iter().filter(|s| s.slice.is_some()).collect();
    assert_eq!(slices.len(), 60);
    for s in spans {
        assert!(s.end_s >= s.start_s);
        if let Some(p) = s.parent {
            assert!(spans[p].start_s <= s.start_s && s.end_s <= spans[p].end_s);
        }
    }
    let st = tracer.slice_stats();
    assert!((st.ckpt_round_share + st.recovery_share + st.steady_share - 1.0).abs() < 1e-9);
    assert!(st.ckpt_round_share > 0.0, "rounds commit inside 60 s");

    // Counts + spans + drivers are exactly the registry's per-layer names.
    let values = layer_values(&[plain.times.run_s()], &[(traced, tracer)]);
    let mut names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
    names.extend(DRIVER_METRICS.iter().map(|(n, _)| *n));
    names.sort_unstable();
    let mut registry: Vec<&str> = per_layer().iter().map(|(n, _, _)| *n).collect();
    registry.sort_unstable();
    assert_eq!(names, registry);
    assert!(values.iter().all(|(_, v)| v.is_finite()));
}

/// The harness derives the commit log, duplicate rounds and the
/// weather SLO from the deployment itself; under a partition that
/// misses its SLO those derivations must equal `run_fleet`'s.
#[test]
fn weather_counts_equal_the_canonical_report() {
    let stormy = || {
        let mut sims = mini(3);
        for sim in &mut sims {
            let SimSpec::Fleet(cfg) = sim else {
                unreachable!("the miniature is a fleet")
            };
            // Rounds tick at 5, 25 and 45 s: a heal at 30 s cannot be
            // followed by a commit within 5 s.
            cfg.weather = Some(WeatherProgram {
                name: "mini-partition".into(),
                systems: vec![WeatherSystem::CellPartition {
                    regions: vec![0],
                    at_s: 14.0,
                    heal_s: 30.0,
                }],
                recovery_slo_s: 5.0,
            });
        }
        sims
    };
    let (canonical, _) = reference(&stormy());
    let rep = run_rep(stormy, &mut Tracer::off());
    assert_eq!(rep.outputs, canonical);
    assert_eq!(rep.tally.weather_injections, 2, "partition and heal");
    assert_eq!(rep.tally.ms_slo_violations, 1);
    assert_eq!(rep.invariant_failure(), None);
}

#[test]
fn end_to_end_run_reports_the_contract_schema() {
    let result = run(&RunArgs {
        sims_of: &mini,
        seed: 5,
        seconds: 0.01,
        trace: false,
    });
    assert!(result.correct(), "{:?}", result.failures);
    // Too short to finish by the clock: every sub-seed still runs once.
    assert_eq!(result.attempted, SUB_SEEDS);
    assert_eq!(result.fingerprints.len(), SUB_SEEDS as usize);

    let line = result_line(&result);
    assert!(!line.contains('\n'));
    let Value::Obj(fields) = serde_json::from_str(&line).expect("result line parses") else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let doc = Value::Obj(fields);
    assert_eq!(doc["correct"], Value::Bool(true));
    assert_eq!(doc["attempted"], Value::Num(SUB_SEEDS as f64));
    assert_eq!(doc["failed"], Value::Num(0.0));
    let Value::Obj(metrics) = &doc["metrics"] else {
        panic!("metrics is not an object")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    for (m, (_, entry)) in END_TO_END.iter().zip(metrics) {
        let Value::Obj(kv) = entry else {
            panic!("{} is not an object", m.name)
        };
        assert_eq!(kv.len(), 2, "{}: exactly value and unit", m.name);
        assert_eq!(entry["unit"], Value::Str(m.unit.into()));
        // End-to-end metrics are never 0.
        assert!(
            matches!(entry["value"], Value::Num(v) if v > 0.0),
            "{}",
            m.name
        );
    }
}
