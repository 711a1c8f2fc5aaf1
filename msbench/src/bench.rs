//! One benchmark run of one workload: warm up through the canonical
//! entry points, measure reps for the given time, check every rep, and
//! fold the reps into the end-to-end metrics (untraced run) or the
//! per-layer metrics (traced run).

use std::panic::{catch_unwind, AssertUnwindSafe};

use experiments::mean;

use crate::clock::{peak_rss_mb, Stopwatch};
use crate::drivers;
use crate::registry::{per_layer, END_TO_END};
use crate::rep::{reference, run_rep, setup_only, Outputs, PhaseTimes, Rep};
use crate::stats::{median, percentile, Quartiles};
use crate::trace::{SliceStats, Tracer};
use crate::workloads::SimSpec;

/// Sub-seeds per `--seed`. Rep `i` of an untraced run simulates
/// sub-seed `i mod SUB_SEEDS`, so one run averages over this many
/// different churn schedules and channels. A fleet simulation's work
/// and results hinge on the few churn events that hit operator-hosting
/// phones (events per simulation vary by ±10 % between seeds); without
/// the rotation every metric would mostly measure which seed was drawn.
pub const SUB_SEEDS: u64 = 8;

/// Extra set-up-only passes after each rep. A rep sets up once, in
/// about a millisecond, right after a whole simulation was torn down;
/// the median of that and a few back-to-back passes is one steadier
/// `setup_s` sample per rep.
const EXTRA_SETUPS: usize = 4;

/// The simulation seed of sub-seed `k`. Distinct `--seed`s use
/// disjoint sub-seeds.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(SUB_SEEDS).wrapping_add(k)
}

/// What to run: the simulations of one rep as a function of the
/// simulation seed, and the contract's flags.
#[derive(Clone, Copy)]
pub struct RunArgs<'a> {
    /// Builds one rep's simulations from a simulation seed
    /// ([`crate::workloads::Workload::sims`] for the registered workloads).
    pub sims_of: &'a dyn Fn(u64) -> Vec<SimSpec>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long to measure.
    pub seconds: f64,
    /// `--trace 1`: report per-layer metrics from traced reps.
    pub trace: bool,
}

impl RunArgs<'_> {
    fn sims(&self, k: u64) -> impl Fn() -> Vec<SimSpec> + '_ {
        let seed = sub_seed(self.seed, k);
        move || (self.sims_of)(seed)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Registry name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (a median where `quartiles` is present).
    pub value: f64,
    /// Spread of the samples behind a host-time value.
    pub quartiles: Option<Quartiles>,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Reps attempted (traced ones included).
    pub attempted: u64,
    /// Why each failed rep failed.
    pub failures: Vec<String>,
    /// Every end-to-end metric (untraced run) or every per-layer
    /// metric (traced run), in registry order.
    pub metrics: Vec<Metric>,
    /// The benchmark's fingerprint of each sub-seed this run covered,
    /// in sub-seed order (all of them untraced; sub-seed 0 traced).
    pub fingerprints: Vec<u64>,
    /// Canonical `FleetReport` digests of sub-seed 0's fleet sims.
    pub digests: Vec<u64>,
    /// Spans of the last traced rep (traced run only).
    pub spans: Option<serde_json::Value>,
}

impl RunResult {
    /// Outputs were checked and every rep passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What a rep of one sub-seed must reproduce.
struct Expected {
    outputs: Vec<Outputs>,
    /// Known once the first rep of the sub-seed has run (the canonical
    /// reference run has no harness fingerprint).
    fingerprint: Option<u64>,
}

/// Run one rep, turning a panic into a failure, and check it against
/// what its sub-seed produced before.
fn checked_rep(
    label: &str,
    sims: impl FnOnce() -> Vec<SimSpec>,
    tracer: &mut Tracer,
    expected: &mut Option<Expected>,
    failures: &mut Vec<String>,
) -> Option<Rep> {
    let rep = match catch_unwind(AssertUnwindSafe(|| run_rep(sims, tracer))) {
        Ok(rep) => rep,
        Err(_) => {
            failures.push(format!("{label}: panicked"));
            return None;
        }
    };
    let exp = expected.get_or_insert_with(|| Expected {
        outputs: rep.outputs.clone(),
        fingerprint: None,
    });
    let fingerprint = *exp.fingerprint.get_or_insert(rep.fingerprint);
    let failure = if rep.outputs != exp.outputs {
        Some("outputs differ from the reference run's".to_string())
    } else if rep.fingerprint != fingerprint {
        Some(format!(
            "fingerprint {:016x} differs from the first rep's {fingerprint:016x}",
            rep.fingerprint
        ))
    } else {
        rep.invariant_failure()
    };
    match failure {
        Some(why) => {
            failures.push(format!("{label}: {why}"));
            None
        }
        None => Some(rep),
    }
}

/// Warm up: run sub-seed 0 through `run_fleet` / `measured_run`.
fn warm_up(args: &RunArgs) -> (Option<Expected>, Vec<u64>) {
    let (outputs, digests) = reference(&args.sims(0)());
    let expected = Expected {
        outputs,
        fingerprint: None,
    };
    (Some(expected), digests)
}

/// The registry's metrics, in its order, with the values measured
/// under those names.
fn in_registry_order(
    registry: impl Iterator<Item = (&'static str, &'static str)>,
    values: &[(&'static str, f64, Option<Quartiles>)],
) -> Vec<Metric> {
    registry
        .map(|(name, unit)| {
            let &(_, value, quartiles) = values
                .iter()
                .find(|(n, _, _)| *n == name)
                .unwrap_or_else(|| panic!("registry metric {name} was not measured"));
            Metric {
                name,
                unit,
                value,
                quartiles,
            }
        })
        .collect()
}

/// Run the workload and report what `args.trace` selects.
pub fn run(args: &RunArgs) -> RunResult {
    if args.trace {
        run_per_layer(args)
    } else {
        run_end_to_end(args)
    }
}

fn run_end_to_end(args: &RunArgs) -> RunResult {
    let (first, digests) = warm_up(args);
    let mut expected: Vec<Option<Expected>> = (0..SUB_SEEDS).map(|_| None).collect();
    expected[0] = first;
    let mut failures = Vec::new();
    let mut reps: Vec<(usize, Rep)> = Vec::new();
    let mut setups = Vec::new();

    let sw = Stopwatch::start();
    let mut attempted = 0u64;
    // Every sub-seed runs at least once, so the simulated metrics are a
    // pure function of `--seed` however fast the host is.
    while sw.elapsed_s() < args.seconds || attempted < SUB_SEEDS {
        let k = attempted % SUB_SEEDS;
        let label = format!("rep {attempted} (sub-seed {k})");
        attempted += 1;
        let slot = &mut expected[k as usize];
        let mut tracer = Tracer::off();
        if let Some(rep) = checked_rep(&label, args.sims(k), &mut tracer, slot, &mut failures) {
            let mut samples = vec![rep.times.setup_s()];
            samples.extend((0..EXTRA_SETUPS).map(|_| setup_only(args.sims(k))));
            setups.push(median(&samples));
            reps.push((k as usize, rep));
        }
    }

    // The first good rep of each sub-seed carries its simulated results.
    let firsts: Vec<&Rep> = (0..SUB_SEEDS as usize)
        .filter_map(|k| reps.iter().find(|(rk, _)| *rk == k).map(|(_, r)| r))
        .collect();
    if firsts.len() < SUB_SEEDS as usize {
        failures.push("a sub-seed never completed a rep".into());
    }
    let mean_events = mean(
        &firsts
            .iter()
            .map(|r| r.tally.events as f64)
            .collect::<Vec<_>>(),
    );
    // Reps of different sub-seeds do different amounts of work, so a
    // plain median over reps would jump with the mix. Each rep's time
    // is therefore taken per event and scaled back by the mean events
    // of a rep: the median of that is the host time of the average
    // rep, and a burst of host noise still only moves a few samples.
    let run_samples: Vec<f64> = reps
        .iter()
        .map(|(_, r)| r.times.run_s() / r.tally.events.max(1) as f64 * mean_events)
        .collect();
    let sim_mean = |f: fn(&Rep) -> f64| mean(&firsts.iter().map(|r| f(r)).collect::<Vec<_>>());
    // Most recoveries take the protocol's minimum and a few take many
    // times that, so their arithmetic mean is mostly a count of the
    // tail (it spreads 12 % between seeds; see the README). The
    // geometric mean moves with every recovery and spreads half that.
    let log_recoveries: Vec<f64> = firsts
        .iter()
        .flat_map(|r| &r.recovery_durations_s)
        .filter(|&&d| d > 0.0)
        .map(|d| d.ln())
        .collect();
    if log_recoveries.is_empty() {
        failures.push("no recovery completed in any sub-seed".into());
    }
    let peak_rss = peak_rss_mb().unwrap_or_else(|| {
        failures.push("VmHWM is not readable from /proc/self/status".into());
        f64::NAN
    });
    let values = [
        ("run_s", median(&run_samples), Quartiles::of(&run_samples)),
        ("setup_s", median(&setups), Quartiles::of(&setups)),
        ("peak_rss_mb", peak_rss, None),
        ("sim_tuples_per_s", sim_mean(|r| r.sim.tuples_per_s), None),
        ("sim_latency_s", sim_mean(|r| r.sim.latency_s), None),
        ("sim_recovery_s", mean(&log_recoveries).exp(), None),
    ];
    let metrics = in_registry_order(END_TO_END.iter().map(|m| (m.name, m.unit)), &values);

    RunResult {
        attempted,
        failures,
        metrics,
        fingerprints: firsts.iter().map(|r| r.fingerprint).collect(),
        digests,
        spans: None,
    }
}

fn run_per_layer(args: &RunArgs) -> RunResult {
    let (mut expected, digests) = warm_up(args);
    let mut failures = Vec::new();
    let mut plain_run_s = Vec::new();
    let mut traced: Vec<(Rep, Tracer)> = Vec::new();

    // Untraced and traced reps of sub-seed 0 alternate, so the tracing
    // overhead compares like with like.
    let sw = Stopwatch::start();
    let mut attempted = 0u64;
    while sw.elapsed_s() < args.seconds || attempted < 2 {
        let tracing = attempted % 2 == 1;
        let label = format!(
            "rep {attempted} ({})",
            if tracing { "traced" } else { "untraced" }
        );
        attempted += 1;
        let mut tracer = if tracing { Tracer::on() } else { Tracer::off() };
        let rep = checked_rep(
            &label,
            args.sims(0),
            &mut tracer,
            &mut expected,
            &mut failures,
        );
        match rep {
            Some(rep) if tracing => traced.push((rep, tracer)),
            Some(rep) => plain_run_s.push(rep.times.run_s()),
            None => {}
        }
    }

    let mut values = layer_values(&plain_run_s, &traced);
    if let Some((first, _)) = traced.first() {
        if traced.iter().any(|(r, _)| r.tally != first.tally) {
            failures.push("layer counts differ between traced reps".into());
        }
    }
    values.extend(drivers::run_all());

    let values: Vec<_> = values
        .into_iter()
        .map(|(name, v)| (name, v, None))
        .collect();
    let metrics = in_registry_order(per_layer().into_iter().map(|(n, u, _)| (n, u)), &values);
    RunResult {
        attempted,
        failures,
        metrics,
        fingerprints: expected.and_then(|e| e.fingerprint).into_iter().collect(),
        digests,
        spans: traced.last().map(|(_, t)| t.to_json()),
    }
}

/// The counts and spans of a traced run, by registry name: exact
/// counts of the last traced rep, phase spans as medians over the
/// traced reps, and the two ratios against the untraced reps' time.
pub fn layer_values(plain_run_s: &[f64], traced: &[(Rep, Tracer)]) -> Vec<(&'static str, f64)> {
    let plain = median(plain_run_s);
    let traced_run_s: Vec<f64> = traced.iter().map(|(r, _)| r.times.run_s()).collect();
    let mut values = Vec::new();
    if let Some((rep, _)) = traced.last() {
        values.extend(count_values(rep));
        values.push((
            "simkernel.ns_per_event",
            plain / rep.tally.events.max(1) as f64 * 1e9,
        ));
    }
    values.extend(span_values(traced));
    values.push((
        "phase.trace_overhead_rel",
        median(&traced_run_s) / plain.max(f64::MIN_POSITIVE) - 1.0,
    ));
    values
}

/// The exact counts of one rep, by registry name.
fn count_values(rep: &Rep) -> Vec<(&'static str, f64)> {
    let t = &rep.tally;
    let mb = |bytes: u64| bytes as f64 / 1e6;
    let kb = |bytes: u64| bytes as f64 / 1e3;
    let n = |count: u64| count as f64;
    vec![
        ("simkernel.events", n(t.events)),
        ("simkernel.windows", n(t.windows)),
        (
            "simkernel.events_per_window",
            n(t.events) / n(t.windows.max(1)),
        ),
        ("simkernel.pool_recycled", n(t.pool_recycled)),
        ("simkernel.pool_fresh", n(t.pool_fresh)),
        ("simkernel.pool_unpooled", n(t.pool_unpooled)),
        ("simkernel.pool_aliasing", n(t.pool_aliasing)),
        ("simkernel.sanitizer_violations", n(t.sanitizer_violations)),
        ("simnet.wifi_msgs", n(t.wifi_msgs)),
        ("simnet.wifi_mb", mb(t.wifi_bytes)),
        ("simnet.wifi_ckpt_mb", mb(t.wifi_ckpt_bytes)),
        ("simnet.wifi_drops", n(t.wifi_drops)),
        ("simnet.cell_msgs", n(t.cell_msgs)),
        ("simnet.cell_mb", mb(t.cell_bytes)),
        ("simnet.cell_queue_drops", n(t.cell_queue_drops)),
        ("simnet.cell_max_queue_kb", kb(t.cell_max_queue)),
        ("simnet.cell_severed_sends", n(t.cell_severed_sends)),
        ("simnet.cell_rejects", n(t.cell_rejects)),
        ("simnet.eth_mb", mb(t.eth_bytes)),
        ("dsps.sink_outputs", n(t.sink_outputs)),
        ("dsps.source_drops", n(t.source_drops)),
        ("dsps.catchup_discards", n(t.catchup_discards)),
        ("dsps.latency_p95_s", mean(&t.latency_p95_s)),
        ("mobistreams.commits", n(t.ms_commits)),
        ("mobistreams.recoveries", t.ms_recovery_s.len() as f64),
        (
            "mobistreams.recovery_p99_s",
            percentile(&t.ms_recovery_s, 99.0),
        ),
        ("mobistreams.departures_handled", n(t.ms_departures_handled)),
        ("mobistreams.region_stops", n(t.ms_region_stops)),
        ("mobistreams.membership_msgs", n(t.ms_membership_msgs)),
        ("mobistreams.membership_kb", kb(t.ms_membership_bytes)),
        ("mobistreams.severed_episodes", n(t.ms_severed_episodes)),
        ("mobistreams.duplicate_commits", n(t.ms_duplicate_commits)),
        ("mobistreams.slo_violations", n(t.ms_slo_violations)),
        ("baselines.recoveries", n(t.base_recoveries)),
        ("baselines.ckpt_repl_mb", mb(t.base_ckpt_repl_bytes)),
        ("baselines.preserved_mb", mb(t.base_preserved_bytes)),
        ("experiments.churn_events", n(t.churn_events)),
        ("experiments.weather_injections", n(t.weather_injections)),
        ("sim.recovery_s", rep.sim.recovery_s),
    ]
}

/// Phase spans, each the median over the traced reps.
fn span_values(traced: &[(Rep, Tracer)]) -> Vec<(&'static str, f64)> {
    let slices: Vec<SliceStats> = traced.iter().map(|(_, t)| t.slice_stats()).collect();
    let phase = |f: fn(&PhaseTimes) -> f64| {
        median(&traced.iter().map(|(r, _)| f(&r.times)).collect::<Vec<_>>())
    };
    let slice = |f: fn(&SliceStats) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    vec![
        ("experiments.config_s", phase(|t| t.config_s)),
        ("experiments.build_s", phase(|t| t.build_s)),
        ("simkernel.enable_sharding_s", phase(|t| t.sharding_s)),
        ("experiments.harvest_s", phase(|t| t.harvest_s)),
        ("phase.slice_p50_ms", slice(|s| s.p50_ms)),
        ("phase.slice_p99_ms", slice(|s| s.p99_ms)),
        ("phase.slice_max_ms", slice(|s| s.max_ms)),
        ("phase.ckpt_round_share", slice(|s| s.ckpt_round_share)),
        ("phase.recovery_share", slice(|s| s.recovery_share)),
        ("phase.steady_share", slice(|s| s.steady_share)),
    ]
}
