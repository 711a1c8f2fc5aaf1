//! One repetition of a workload: set each simulation up, run it,
//! harvest it, and fold what it did into a [`Rep`].
//!
//! The same function serves the untraced reps that end-to-end timings
//! come from and the traced reps that per-layer numbers come from; a
//! traced rep additionally turns the kernel's causality sanitizer on,
//! drives `run_until` in one-second simulated slices and records a
//! span around every call it makes into the simulator.

use std::collections::BTreeSet;

use baselines::BaselineCoordinator;
use experiments::faults::{failure_order, inject_departure, inject_failure, inject_reboot};
use experiments::fleet::{build_fleet, run_fleet, FleetConfig};
use experiments::run::{harvest, measured_run, Harvest};
use experiments::weather;
use experiments::{Deployment, FleetReport};
use simkernel::{SimDuration, SimTime};
use simnet::cellular::CellularNet;
use simnet::ethernet::EthernetNet;
use simnet::stats::{NetStats, TrafficClass};
use simnet::wifi::WifiMedium;

use crate::clock::Stopwatch;
use crate::trace::{Intervals, Tracer};
use crate::workloads::{Fault, SimSpec, FAULT_AFTER, REBOOT_AFTER};

/// FNV-1a over 64-bit words: the benchmark's own fingerprint of a
/// rep's public results (not the repo's report digest).
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in.
    fn mix(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    fn finish(self) -> u64 {
        self.0
    }
}

/// Counts `run_fleet` reports that the harness has to derive for
/// itself from the finished deployment: it cannot call `run_fleet`,
/// which neither separates set-up from run nor slices `run_until`.
/// Carried in [`Outputs`] so that every restated derivation (commit
/// log, duplicate rounds, the weather SLO) is held equal to the
/// canonical report's.
#[derive(Debug, Clone, Default, PartialEq)]
struct FleetCounts {
    events: u64,
    churn_events: u64,
    weather_injections: u64,
    commits: u64,
    duplicate_commits: u64,
    slo_violations: u64,
    departures_handled: u64,
    severed_episodes: u64,
    cell_max_queue: u64,
    cell_severed_sends: u64,
    cell_rejects: u64,
    pool_recycled: u64,
    pool_aliasing: u64,
}

/// What a simulation reported to its user: the values the canonical
/// entry points (`run_fleet`, `measured_run`) also return, so a rep
/// can be checked against a run that never touched the harness.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    per_region_outputs: Vec<u64>,
    mean_throughput: f64,
    /// -1 when no region produced output.
    mean_latency_s: f64,
    source_drops: u64,
    recoveries: u64,
    mean_recovery_s: f64,
    stops: u64,
    wifi_bytes: u64,
    cell_bytes: u64,
    cell_drops: u64,
    /// Fleet simulations only (`measured_run` returns no such counts).
    fleet: Option<FleetCounts>,
}

impl Outputs {
    fn from_harvest(h: &Harvest) -> Self {
        Outputs {
            per_region_outputs: h.per_region.iter().map(|r| r.outputs as u64).collect(),
            mean_throughput: h.mean_throughput,
            mean_latency_s: if h.mean_latency_s.is_finite() {
                h.mean_latency_s
            } else {
                -1.0
            },
            source_drops: h.per_region.iter().map(|r| r.source_drops).sum(),
            recoveries: h.recoveries as u64,
            mean_recovery_s: h.mean_recovery_s,
            stops: h.stops,
            wifi_bytes: h.wifi_bytes.total(),
            cell_bytes: h.cell_bytes.total(),
            cell_drops: h.cell_drops,
            fleet: None,
        }
    }

    fn from_report(r: &FleetReport) -> Self {
        Outputs {
            per_region_outputs: r.per_region_outputs.clone(),
            mean_throughput: r.mean_throughput,
            mean_latency_s: r.mean_latency_s,
            source_drops: r.source_drops,
            recoveries: r.recoveries,
            mean_recovery_s: r.mean_recovery_s,
            stops: r.region_stops,
            wifi_bytes: r.wifi_total_bytes,
            cell_bytes: r.cell_total_bytes,
            cell_drops: r.cell_drops,
            fleet: Some(FleetCounts {
                events: r.events_processed,
                churn_events: r.churn_failures + r.churn_departures + r.churn_rejoins,
                weather_injections: r.weather_injections,
                commits: r.checkpoint_commits,
                duplicate_commits: r.duplicate_commits,
                slo_violations: r.slo_violations,
                departures_handled: r.departures_handled,
                severed_episodes: r.severed_observed,
                cell_max_queue: r.cell_max_queue_depth,
                cell_severed_sends: r.cell_severed_sends,
                cell_rejects: r.cell_rejects,
                pool_recycled: r.pool_recycled,
                pool_aliasing: r.pool_aliasing,
            }),
        }
    }

    fn any_output(&self) -> bool {
        self.per_region_outputs.iter().any(|&o| o > 0)
    }
}

/// Run every simulation of a rep through the repository's canonical
/// entry points. Serves as the warm-up and as the reference each
/// measured rep's [`Outputs`] must equal. The second value holds the
/// canonical report digest of each fleet simulation.
pub fn reference(specs: &[SimSpec]) -> (Vec<Outputs>, Vec<u64>) {
    let mut digests = Vec::new();
    let outputs = specs
        .iter()
        .map(|spec| match spec {
            SimSpec::Fleet(cfg) => {
                let report = run_fleet(cfg);
                digests.push(report.digest);
                Outputs::from_report(&report)
            }
            SimSpec::Testbed {
                cfg,
                warmup,
                window,
                fault,
            } => {
                let at = SimTime::ZERO + *warmup + FAULT_AFTER;
                let h = measured_run(cfg.clone(), *warmup, *window, |dep| {
                    apply_fault(dep, *fault, at)
                });
                Outputs::from_harvest(&h)
            }
        })
        .collect();
    (outputs, digests)
}

fn apply_fault(dep: &mut Deployment, fault: Fault, at: SimTime) {
    let (n, depart, reboot) = match fault {
        Fault::None => return,
        Fault::FailBurst { n, reboot } => (n, false, reboot),
        Fault::Depart { n } => (n, true, false),
    };
    for region in 0..dep.cfg.regions {
        let order = failure_order(dep, region);
        for &slot in order.iter().take(n as usize) {
            if depart {
                inject_departure(dep, region, slot, at);
            } else {
                inject_failure(dep, region, slot, at);
                if reboot {
                    inject_reboot(dep, region, slot, at + REBOOT_AFTER);
                }
            }
        }
    }
}

/// Exact counts of what the layers did, summed over a rep's
/// simulations (`cell_max_queue` is a maximum).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    // simkernel
    /// Events the kernel dispatched.
    pub events: u64,
    /// Barrier windows. Only the causality sanitizer counts them: 0
    /// where it is off (untraced reps of a release build) and on the
    /// unsharded testbed simulations.
    pub windows: u64,
    /// Pool allocations served from recycled slots.
    pub pool_recycled: u64,
    /// Pool allocations that minted a fresh slot.
    pub pool_fresh: u64,
    /// Events too large for any pool class (plain boxes).
    pub pool_unpooled: u64,
    /// Pool generation mismatches (must be 0).
    pub pool_aliasing: u64,
    /// Causality-sanitizer violations (traced reps; must be 0).
    pub sanitizer_violations: u64,
    // simnet
    /// WiFi logical messages, all classes.
    pub wifi_msgs: u64,
    /// WiFi payload bytes, all classes.
    pub wifi_bytes: u64,
    /// WiFi payload bytes of the checkpoint class.
    pub wifi_ckpt_bytes: u64,
    /// WiFi datagram blocks lost, per receiver.
    pub wifi_drops: u64,
    /// Cellular logical messages, all classes.
    pub cell_msgs: u64,
    /// Cellular payload bytes, all classes.
    pub cell_bytes: u64,
    /// Cellular messages tail-dropped at full link queues.
    pub cell_queue_drops: u64,
    /// Deepest cellular link backlog (bytes).
    pub cell_max_queue: u64,
    /// Cellular sends aged out behind a weather partition.
    pub cell_severed_sends: u64,
    /// Cellular sends rejected at dead or unknown endpoints.
    pub cell_rejects: u64,
    /// Ethernet payload bytes (server platform).
    pub eth_bytes: u64,
    // dsps
    /// Sink outputs in the measurement windows.
    pub sink_outputs: u64,
    /// Source inputs shed at full queues.
    pub source_drops: u64,
    /// Sink outputs discarded during catch-up.
    pub catchup_discards: u64,
    /// Per-region p95 latencies (regions with output).
    pub latency_p95_s: Vec<f64>,
    // mobistreams
    /// Checkpoint rounds committed.
    pub ms_commits: u64,
    /// `(region, version)` rounds committed more than once (must be 0).
    pub ms_duplicate_commits: u64,
    /// Recovery durations (seconds).
    pub ms_recovery_s: Vec<f64>,
    /// Departure transfers completed.
    pub ms_departures_handled: u64,
    /// Regions stopped at least once.
    pub ms_region_stops: u64,
    /// Membership messages the control plane sent.
    pub ms_membership_msgs: u64,
    /// Membership bytes the control plane sent.
    pub ms_membership_bytes: u64,
    /// Partition episodes the controllers observed.
    pub ms_severed_episodes: u64,
    /// Fault windows that missed the weather's declared recovery SLO.
    pub ms_slo_violations: u64,
    // baselines
    /// Recoveries the baseline coordinator completed.
    pub base_recoveries: u64,
    /// Checkpoint + replication WiFi bytes under baseline schemes.
    pub base_ckpt_repl_bytes: u64,
    /// Logical preserved bytes under baseline schemes.
    pub base_preserved_bytes: u64,
    // experiments
    /// Churn events scheduled.
    pub churn_events: u64,
    /// Weather injections compiled.
    pub weather_injections: u64,
}

/// Host seconds spent in each phase of a rep, summed over its sims.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Building the configs (profile lookup, weather generators).
    pub config_s: f64,
    /// `build_fleet` / `Deployment::build` + `start` + fault injection.
    pub build_s: f64,
    /// `enable_sharding_opts` (shard split, worker spawn).
    pub sharding_s: f64,
    /// `run_until`.
    pub sim_s: f64,
    /// `harvest` + folding + dropping the deployment.
    pub harvest_s: f64,
}

impl PhaseTimes {
    /// Set-up: everything before the first event is dispatched.
    pub fn setup_s(&self) -> f64 {
        self.config_s + self.build_s + self.sharding_s
    }

    /// The run proper: dispatch, harvest, fold, tear down.
    pub fn run_s(&self) -> f64 {
        self.sim_s + self.harvest_s
    }
}

/// Simulated end-to-end results of a rep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimMetrics {
    /// Mean per-region sink throughput over the rep's sims (tuples/s).
    pub tuples_per_s: f64,
    /// Mean enter-to-sink latency over the sims with output (s).
    pub latency_s: f64,
    /// Mean duration of the rep's recoveries (s); 0 when it had none.
    pub recovery_s: f64,
    /// Cellular payload, all classes (MB).
    pub cell_mb: f64,
}

/// One finished repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host time by phase.
    pub times: PhaseTimes,
    /// Layer counts.
    pub tally: Tally,
    /// Simulated end-to-end results.
    pub sim: SimMetrics,
    /// Duration of every recovery of the rep, MobiStreams' and the
    /// baselines' (seconds).
    pub recovery_durations_s: Vec<f64>,
    /// What each simulation reported, for the canonical cross-check.
    pub outputs: Vec<Outputs>,
    /// FNV over every simulation's public results.
    pub fingerprint: u64,
}

impl Rep {
    /// The invariant this rep broke, if any: every simulation must
    /// produce output, no round may commit twice, and the kernel's
    /// pool and sanitizer must report no fault.
    pub fn invariant_failure(&self) -> Option<String> {
        let t = &self.tally;
        if !self.outputs.iter().all(Outputs::any_output) {
            Some("a simulation produced no sink output".into())
        } else if t.ms_duplicate_commits + t.pool_aliasing + t.sanitizer_violations > 0 {
            Some(format!(
                "duplicate_commits={} pool_aliasing={} sanitizer_violations={}",
                t.ms_duplicate_commits, t.pool_aliasing, t.sanitizer_violations
            ))
        } else {
            None
        }
    }
}

/// A simulation set up and ready to run.
struct Ready {
    dep: Deployment,
    /// Measurement window `[from, to)`; the simulation runs to `to`.
    from: SimTime,
    to: SimTime,
    build_s: f64,
    sharding_s: f64,
    churn_events: u64,
}

/// Set one simulation up: everything before the first event is
/// dispatched.
fn set_up(spec: &SimSpec, tracer: &mut Tracer, parent: Option<usize>) -> Ready {
    let mut churn_events = 0;
    let ((mut dep, from, to), build_s) = tracer.span("experiments.build", parent, || match spec {
        SimSpec::Fleet(cfg) => {
            let (dep, schedule) = build_fleet(cfg);
            churn_events = schedule.len() as u64;
            let t0 = SimTime::ZERO;
            (dep, t0 + cfg.warmup, t0 + cfg.duration)
        }
        SimSpec::Testbed {
            cfg,
            warmup,
            window,
            fault,
        } => {
            let mut dep = Deployment::build(cfg.clone());
            dep.start();
            let from = SimTime::ZERO + *warmup;
            apply_fault(&mut dep, *fault, from + FAULT_AFTER);
            (dep, from, from + *window)
        }
    });
    // The testbed runs on the unsharded kernel, as `measured_run` runs
    // it; fleets shard by region, as `run_fleet` does.
    let mut sharding_s = 0.0;
    if let SimSpec::Fleet(cfg) = spec {
        ((), sharding_s) = tracer.span("simkernel.enable_sharding", parent, || {
            dep.enable_sharding_opts(cfg.threads, true)
        });
        if tracer.enabled() {
            dep.sim.enable_sanitizer();
        }
    }
    Ready {
        dep,
        from,
        to,
        build_s,
        sharding_s,
        churn_events,
    }
}

/// Host seconds of one more set-up of a rep's simulations (built, then
/// dropped unrun): extra samples for `setup_s`, which a single rep
/// measures only once.
pub fn setup_only(make_sims: impl FnOnce() -> Vec<SimSpec>) -> f64 {
    let mut tracer = Tracer::off();
    let (specs, config_s) = Stopwatch::time(make_sims);
    specs.iter().fold(config_s, |acc, spec| {
        let ready = set_up(spec, &mut tracer, None);
        acc + ready.build_s + ready.sharding_s
    })
}

/// Run one rep of the simulations `make_sims()` builds. A recording
/// `tracer` selects the traced variant (sanitizer on, sliced run).
pub fn run_rep(make_sims: impl FnOnce() -> Vec<SimSpec>, tracer: &mut Tracer) -> Rep {
    let mut times = PhaseTimes::default();
    let mut tally = Tally::default();
    let mut outputs = Vec::new();
    let mut recovery_durations_s = Vec::new();
    let mut fp = Fnv::default();
    let (mut tput_sum, mut lat_sum, mut lat_n) = (0.0, 0.0, 0usize);
    let (mut rec_sum, mut rec_n) = (0.0, 0u64);

    let rep_span = tracer.open("rep", None);
    let ((specs, injections), config_s) = tracer.span("experiments.config", rep_span, || {
        let specs = make_sims();
        let injections: Vec<u64> = specs
            .iter()
            .map(|spec| match spec {
                SimSpec::Fleet(cfg) => cfg.weather.as_ref().map_or(0, |program| {
                    weather::compile(program, cfg.topo()).len() as u64
                }),
                SimSpec::Testbed { .. } => 0,
            })
            .collect();
        (specs, injections)
    });
    times.config_s = config_s;

    for (spec, weather_injections) in specs.iter().zip(injections) {
        let sim_span = tracer.open("sim", rep_span);
        let Ready {
            mut dep,
            from,
            to,
            build_s,
            sharding_s,
            churn_events,
        } = set_up(spec, tracer, sim_span);
        times.build_s += build_s;
        times.sharding_s += sharding_s;

        let run_span = tracer.open("run_until", sim_span);
        let ((), sim_s) = Stopwatch::time(|| {
            if tracer.enabled() {
                let mut at = SimTime::ZERO;
                while at < to {
                    let next = (at + SimDuration::from_secs(1)).min(to);
                    tracer.slice(run_span, at, next, || dep.run_until(next));
                    at = next;
                }
            } else {
                dep.run_until(to);
            }
        });
        tracer.close(run_span);
        times.sim_s += sim_s;

        let ((h, folded), harvest_s) = tracer.span("experiments.harvest", sim_span, || {
            let h = harvest(&dep, from, to);
            let scheduled = FleetCounts {
                churn_events,
                weather_injections,
                ..FleetCounts::default()
            };
            let folded = fold(&dep, spec, &h, scheduled, &mut tally, &mut fp);
            drop(dep);
            (h, folded)
        });
        times.harvest_s += harvest_s;
        tracer.classify(run_span, &folded.rounds, &folded.recoveries);
        tracer.close(sim_span);

        tput_sum += h.mean_throughput;
        if h.mean_latency_s.is_finite() {
            lat_sum += h.mean_latency_s;
            lat_n += 1;
        }
        rec_sum += h.mean_recovery_s * h.recoveries as f64;
        rec_n += h.recoveries as u64;
        recovery_durations_s.extend(
            folded
                .recoveries
                .iter()
                .map(|&(started, finished)| (finished - started).as_secs_f64()),
        );
        outputs.push(Outputs {
            fleet: matches!(spec, SimSpec::Fleet(_)).then_some(folded.counts),
            ..Outputs::from_harvest(&h)
        });
    }
    tracer.close(rep_span);

    Rep {
        times,
        sim: SimMetrics {
            tuples_per_s: tput_sum / specs.len().max(1) as f64,
            latency_s: lat_sum / lat_n.max(1) as f64,
            recovery_s: rec_sum / rec_n.max(1) as f64,
            cell_mb: tally.cell_bytes as f64 / 1e6,
        },
        tally,
        recovery_durations_s,
        outputs,
        fingerprint: fp.finish(),
    }
}

fn add_wifi(tally: &mut Tally, s: &NetStats) {
    tally.wifi_msgs += TrafficClass::ALL
        .iter()
        .map(|&c| s.messages(c))
        .sum::<u64>();
    tally.wifi_bytes += s.total_payload_bytes();
    tally.wifi_ckpt_bytes += s.payload_bytes(TrafficClass::Checkpoint);
    tally.wifi_drops += s.drops;
}

/// What folding one finished simulation yields besides the tally.
struct Folded {
    /// The counts `run_fleet` reports too, for the cross-check.
    counts: FleetCounts,
    /// Checkpoint rounds, tick to commit, for slice classification.
    rounds: Intervals,
    /// Recoveries, start to finish.
    recoveries: Intervals,
}

/// Fold one finished simulation into the rep's tally and fingerprint.
/// `counts` arrives holding what set-up scheduled and is completed
/// from the deployment.
fn fold(
    dep: &Deployment,
    spec: &SimSpec,
    h: &Harvest,
    mut counts: FleetCounts,
    tally: &mut Tally,
    fp: &mut Fnv,
) -> Folded {
    // simkernel
    counts.events = dep.sim.events_processed();
    let pool = dep.sim.pool_stats();
    counts.pool_recycled = pool.recycled;
    counts.pool_aliasing = pool.aliasing;
    tally.pool_fresh += pool.fresh;
    tally.pool_unpooled += pool.unpooled;
    if let (SimSpec::Fleet(_), Some(san)) = (spec, dep.sim.causality_report()) {
        tally.windows += san.windows;
        tally.sanitizer_violations += san.violations;
    }

    // simnet. The server platform's regions share one (unused) medium.
    let mut media: Vec<_> = dep.regions.iter().map(|r| r.wifi).collect();
    media.dedup();
    for wifi in media {
        add_wifi(tally, dep.sim.actor::<WifiMedium>(wifi).stats());
    }
    let cell = dep.sim.actor::<CellularNet>(dep.cell).stats();
    tally.cell_msgs += TrafficClass::ALL
        .iter()
        .map(|&c| cell.messages(c))
        .sum::<u64>();
    tally.cell_bytes += cell.total_payload_bytes();
    tally.cell_queue_drops += cell.queue_drops;
    counts.cell_max_queue = cell.max_queue_depth;
    counts.cell_severed_sends = cell.severed_sends;
    counts.cell_rejects = cell.rejects;
    let eth_bytes = dep.eth.map_or(0, |e| {
        dep.sim
            .actor::<EthernetNet>(e)
            .stats()
            .total_payload_bytes()
    });
    tally.eth_bytes += eth_bytes;

    // dsps
    for r in &h.per_region {
        tally.sink_outputs += r.outputs as u64;
        tally.source_drops += r.source_drops;
        tally.catchup_discards += r.catchup_discards;
        tally.latency_p95_s.extend(r.p95_latency_s);
    }

    // mobistreams / baselines
    let mut rounds = Intervals::new();
    let mut recoveries = Intervals::new();
    let mut commits = Vec::new();
    if dep.region_controllers.is_empty() {
        tally.base_recoveries += h.recoveries as u64;
        tally.base_ckpt_repl_bytes += h.ckpt_repl_bytes;
        tally.base_preserved_bytes += h.preserved_bytes;
        if let Some(co) = dep.coordinator {
            let co = dep.sim.actor::<BaselineCoordinator>(co);
            recoveries.extend(co.recoveries.iter().map(|r| (r.started, r.finished)));
        }
    } else {
        commits = dep.ms_commits();
        let mut seen = BTreeSet::new();
        counts.commits = commits.len() as u64;
        counts.duplicate_commits = commits
            .iter()
            .filter(|&&(r, v, _)| !seen.insert((r, v)))
            .count() as u64;
        let period = dep.cfg.ckpt_period.as_nanos().max(1);
        let offset = dep.cfg.ckpt_offset.as_nanos();
        rounds.extend(commits.iter().map(|&(_, _, at)| {
            let since = at.as_nanos().saturating_sub(offset);
            (SimTime::from_nanos(offset + since / period * period), at)
        }));
        recoveries.extend(dep.ms_recoveries().iter().map(|r| (r.started, r.finished)));
        tally
            .ms_recovery_s
            .extend(recoveries.iter().map(|&(a, b)| (b - a).as_secs_f64()));
        counts.departures_handled = dep.ms_departures_handled();
        tally.ms_region_stops += dep.ms_stops();
        let (msgs, bytes) = dep.ms_membership_traffic();
        tally.ms_membership_msgs += msgs;
        tally.ms_membership_bytes += bytes;
        counts.severed_episodes = dep.ms_severed_episodes().len() as u64;
        if let SimSpec::Fleet(
            cfg @ FleetConfig {
                weather: Some(program),
                ..
            },
        ) = spec
        {
            // As `run_fleet` counts it: after each fault window's
            // scheduled heal the region must commit a round within the
            // program's declared SLO.
            if program.recovery_slo_s >= 0.0 {
                for (region, _start, heal) in weather::fault_windows(program, cfg.topo()) {
                    let first = commits
                        .iter()
                        .filter(|&&(r, _, at)| r == region && at >= heal)
                        .map(|&(_, _, at)| at)
                        .min();
                    let met =
                        first.is_some_and(|at| (at - heal).as_secs_f64() <= program.recovery_slo_s);
                    counts.slo_violations += u64::from(!met);
                }
            }
        }
    }

    tally.events += counts.events;
    tally.pool_recycled += counts.pool_recycled;
    tally.pool_aliasing += counts.pool_aliasing;
    tally.cell_max_queue = tally.cell_max_queue.max(counts.cell_max_queue);
    tally.cell_severed_sends += counts.cell_severed_sends;
    tally.cell_rejects += counts.cell_rejects;
    tally.ms_commits += counts.commits;
    tally.ms_duplicate_commits += counts.duplicate_commits;
    tally.ms_departures_handled += counts.departures_handled;
    tally.ms_severed_episodes += counts.severed_episodes;
    tally.ms_slo_violations += counts.slo_violations;
    tally.churn_events += counts.churn_events;
    tally.weather_injections += counts.weather_injections;

    // fingerprint
    fp.mix(counts.events);
    for r in &h.per_region {
        fp.mix(r.outputs as u64);
    }
    fp.mix(h.mean_throughput.to_bits());
    fp.mix(h.mean_latency_s.to_bits());
    fp.mix(h.wifi_bytes.total());
    fp.mix(h.cell_bytes.total());
    fp.mix(eth_bytes);
    for (region, version, at) in commits {
        fp.mix(region as u64);
        fp.mix(version);
        fp.mix(at.as_nanos());
    }
    for &(started, finished) in &recoveries {
        fp.mix(started.as_nanos());
        fp.mix(finished.as_nanos());
    }
    Folded {
        counts,
        rounds,
        recoveries,
    }
}
