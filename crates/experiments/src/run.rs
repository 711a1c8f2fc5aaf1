//! The one run behind `msx scenarios`, the scenario matrix and every
//! paper artifact: [`run`] takes a [`ScenarioConfig`] and a fault
//! injection to a [`FleetReport`], through [`harvest`], which turns
//! the finished deployment into the numbers the paper reports.

use dsps::node::NodeActor;
use serde::Serialize;
use simkernel::{Fnv1a, SimDuration, SimTime};
use simnet::cellular::CellularNet;
use simnet::stats::TrafficClass;
use simnet::wifi::WifiMedium;

use crate::fleet::{ChurnEvent, ChurnKind};
use crate::scenario::{Deployment, ScenarioConfig, Scheme, SensorUplink};
use crate::weather;

/// Per-region observation window results.
#[derive(Debug, Clone)]
pub struct RegionStats {
    /// Sink outputs in the window.
    pub outputs: usize,
    /// Output tuples per second.
    pub throughput: f64,
    /// Mean enter-to-leave latency (seconds), if any output.
    pub mean_latency_s: Option<f64>,
    /// 95th-percentile latency.
    pub p95_latency_s: Option<f64>,
    /// Source inputs dropped at full queues: the nodes' source queues
    /// and, on the server platform, the sensor uplink's buffer.
    pub source_drops: u64,
    /// Catch-up discards at sinks.
    pub catchup_discards: u64,
    /// Cellular messages tail-dropped at this region's phones' full
    /// link queues (uplink + downlink).
    pub cell_drops: u64,
    /// Deepest cellular link backlog observed on any of this region's
    /// phones (bytes).
    pub cell_max_queue_depth: u64,
}

/// Whole-deployment harvest.
#[derive(Debug, Clone)]
pub struct Harvest {
    /// Per-region stats.
    pub per_region: Vec<RegionStats>,
    /// Mean per-region throughput (tuples/s).
    pub mean_throughput: f64,
    /// Mean latency (seconds) over regions with output.
    pub mean_latency_s: f64,
    /// WiFi payload bytes by class, summed over regions.
    pub wifi_bytes: ClassBytes,
    /// Cellular payload bytes by class.
    pub cell_bytes: ClassBytes,
    /// Logical preserved bytes (Fig 10a): source logs for ms, retention
    /// buffers for local/dist, 0 for base/rep-2.
    pub preserved_bytes: u64,
    /// Network bytes due to checkpointing or replication (Fig 10b):
    /// `Checkpoint + Replication` classes on WiFi.
    pub ckpt_repl_bytes: u64,
    /// Recoveries completed (count, mean seconds).
    pub recoveries: usize,
    /// Mean recovery duration.
    pub mean_recovery_s: f64,
    /// Regions stopped (unrecoverable).
    pub stops: u64,
    /// Cellular messages tail-dropped network-wide (bounded link
    /// queues; cellular-collapse signal).
    pub cell_drops: u64,
}

/// Payload bytes per traffic class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassBytes {
    /// Stream tuples.
    pub data: u64,
    /// rep-2 duplicate flow.
    pub replication: u64,
    /// Checkpoint state shipping.
    pub checkpoint: u64,
    /// Source-preservation replication.
    pub preservation: u64,
    /// Control plane.
    pub control: u64,
    /// Recovery traffic.
    pub recovery: u64,
}

impl ClassBytes {
    fn from_stats(s: &simnet::stats::NetStats) -> Self {
        ClassBytes {
            data: s.payload_bytes(TrafficClass::Data),
            replication: s.payload_bytes(TrafficClass::Replication),
            checkpoint: s.payload_bytes(TrafficClass::Checkpoint),
            preservation: s.payload_bytes(TrafficClass::Preservation),
            control: s.payload_bytes(TrafficClass::Control),
            recovery: s.payload_bytes(TrafficClass::Recovery),
        }
    }

    fn add(&mut self, other: &ClassBytes) {
        self.data += other.data;
        self.replication += other.replication;
        self.checkpoint += other.checkpoint;
        self.preservation += other.preservation;
        self.control += other.control;
        self.recovery += other.recovery;
    }

    /// Everything.
    pub fn total(&self) -> u64 {
        self.data
            + self.replication
            + self.checkpoint
            + self.preservation
            + self.control
            + self.recovery
    }
}

/// The nearest-rank `q`-quantile of ascending `sorted`: the element at
/// `((len − 1)·q).round()`. `None` when empty.
fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    Some(sorted[(last as f64 * q).round() as usize])
}

/// Harvest metrics over the window `[from, to)`.
pub fn harvest(dep: &Deployment, from: SimTime, to: SimTime) -> Harvest {
    let mut per_region = Vec::new();
    let mut wifi_bytes = ClassBytes::default();
    let mut preserved_raw_sum = 0u64;
    let mut preserved_max = 0u64;

    let cellnet = dep.sim.actor::<CellularNet>(dep.cell);
    for handles in &dep.regions {
        let mut outputs = 0usize;
        let mut lat_sum = 0.0f64;
        let mut lats: Vec<f64> = Vec::new();
        let mut drops = 0u64;
        let mut discards = 0u64;
        let mut cell_drops = 0u64;
        let mut cell_depth = 0u64;
        for &nid in &handles.nodes {
            if let Some(ep) = cellnet.endpoint_stats(nid) {
                cell_drops += ep.queue_drops;
                cell_depth = cell_depth.max(ep.max_queue_bytes());
            }
        }
        for &nid in &handles.nodes {
            let na = dep.sim.actor::<NodeActor>(nid);
            let m = &na.inner.metrics;
            for s in &m.sink_samples {
                if s.at >= from && s.at < to {
                    outputs += 1;
                    let l = s.latency.as_secs_f64();
                    lat_sum += l;
                    lats.push(l);
                }
            }
            drops += m.source_drops;
            discards += m.catchup_discards;
            let p = na.scheme.preserved_bytes(&na.inner);
            preserved_raw_sum += p;
            preserved_max = preserved_max.max(p);
        }
        if let Some(up) = handles.uplink {
            drops += dep.sim.actor::<SensorUplink>(up).dropped;
        }
        let span = (to - from).as_secs_f64();
        lats.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        per_region.push(RegionStats {
            outputs,
            throughput: outputs as f64 / span.max(1e-9),
            mean_latency_s: (outputs > 0).then(|| lat_sum / outputs as f64),
            p95_latency_s: nearest_rank(&lats, 0.95),
            source_drops: drops,
            catchup_discards: discards,
            cell_drops,
            cell_max_queue_depth: cell_depth,
        });
        let med = dep.sim.actor::<WifiMedium>(handles.wifi);
        wifi_bytes.add(&ClassBytes::from_stats(med.stats()));
    }

    let cell_bytes = ClassBytes::from_stats(cellnet.stats());
    let cell_drops = cellnet.stats().queue_drops;

    // Logical preserved bytes: ms replicates the same log onto every
    // node (take the max = one logical copy); local/dist retain
    // distinct per-node buffers (take the sum).
    let preserved_bytes = match dep.cfg.scheme {
        Scheme::Ms => preserved_max * dep.cfg.regions as u64,
        _ => preserved_raw_sum,
    };

    let (episodes, stops) = match dep.coordinator {
        Some(co) => {
            let c = dep.sim.actor::<baselines::BaselineCoordinator>(co);
            (c.recoveries.clone(), c.stops)
        }
        None => (dep.ms_recoveries(), dep.ms_stops()),
    };
    let recoveries = episodes.len();
    let mean_recovery_s = if recoveries > 0 {
        episodes
            .iter()
            .map(|r| (r.finished - r.started).as_secs_f64())
            .sum::<f64>()
            / recoveries as f64
    } else {
        0.0
    };

    let with_output: Vec<&RegionStats> = per_region.iter().filter(|r| r.outputs > 0).collect();
    let mean_throughput =
        per_region.iter().map(|r| r.throughput).sum::<f64>() / per_region.len().max(1) as f64;
    let mean_latency_s = if with_output.is_empty() {
        f64::INFINITY
    } else {
        with_output
            .iter()
            .map(|r| r.mean_latency_s.unwrap_or(f64::INFINITY))
            .sum::<f64>()
            / with_output.len() as f64
    };

    Harvest {
        per_region,
        mean_throughput,
        mean_latency_s,
        ckpt_repl_bytes: wifi_bytes.checkpoint + wifi_bytes.replication,
        wifi_bytes,
        cell_bytes,
        preserved_bytes,
        recoveries,
        mean_recovery_s,
        stops,
        cell_drops,
    }
}

/// One region's recovery timeline through one weather fault window:
/// fault start → scheduled heal → first checkpoint round committed
/// after the heal. Recovery latency is measured from the *scheduled*
/// heal (when the weather clears), so it includes the controller's
/// heal-detection probes — that is the latency a declared SLO is
/// about.
#[derive(Debug, Clone, Serialize)]
pub struct FaultTimeline {
    /// Region the window covers.
    pub region: usize,
    /// Partition start (seconds).
    pub fault_at_s: f64,
    /// Scheduled heal (seconds).
    pub heal_at_s: f64,
    /// First committed round at/after the heal (-1 = none before the
    /// simulation ended).
    pub first_commit_s: f64,
    /// `first_commit_s - heal_at_s` (-1 = never recovered).
    pub recovery_s: f64,
    /// Whether the window met the program's declared recovery SLO
    /// (vacuously true when no SLO is declared).
    pub slo_met: bool,
}

/// Machine-readable result of one run. Everything except the
/// wall-clock and sanitizer-observation fields is a pure function of
/// the config — the [`FleetReport::digest`] over those fields is the
/// determinism contract (same seed ⇒ same digest).
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Profile name.
    pub profile: String,
    /// Seed used.
    pub seed: u64,
    /// Regions deployed.
    pub regions: usize,
    /// Phones deployed.
    pub phones: u32,
    /// Simulated span (seconds).
    pub sim_secs: f64,
    /// Events the kernel dispatched.
    pub events_processed: u64,
    /// Wall-clock run time (seconds; excluded from the digest).
    pub wall_secs: f64,
    /// Simulation throughput (events/s of wall time; excluded from the
    /// digest).
    pub events_per_sec: f64,
    /// Scheduled fail-stop crashes.
    pub churn_failures: u64,
    /// Scheduled departures.
    pub churn_departures: u64,
    /// Scheduled rejoins/arrivals.
    pub churn_rejoins: u64,
    /// Sink outputs inside the measurement window, per region.
    pub per_region_outputs: Vec<u64>,
    /// Sink outputs inside the measurement window, total.
    pub outputs: u64,
    /// Mean per-region throughput (tuples/s).
    pub mean_throughput: f64,
    /// Mean latency over regions with output (seconds; -1 = no output).
    pub mean_latency_s: f64,
    /// Source inputs shed at full queues / congestion.
    pub source_drops: u64,
    /// Recoveries the controller completed.
    pub recoveries: u64,
    /// Mean recovery duration (seconds).
    pub mean_recovery_s: f64,
    /// Departure transfers completed.
    pub departures_handled: u64,
    /// Regions stopped (bypass) at least once.
    pub region_stops: u64,
    /// Checkpoint versions committed across regions.
    pub checkpoint_commits: u64,
    /// WiFi payload bytes, all classes and regions.
    pub wifi_total_bytes: u64,
    /// Cellular payload bytes, all classes.
    pub cell_total_bytes: u64,
    /// Cellular messages tail-dropped at full bounded link queues,
    /// network-wide (the cellular-collapse signal).
    pub cell_drops: u64,
    /// Deepest cellular link backlog observed network-wide (bytes).
    pub cell_max_queue_depth: u64,
    /// Cellular tail-drops at each region's phones.
    pub per_region_cell_drops: Vec<u64>,
    /// Deepest cellular link backlog at each region's phones (bytes).
    pub per_region_cell_max_queue_depth: Vec<u64>,
    /// Weather program applied ("" = clear skies).
    pub weather: String,
    /// Compiled weather injections scheduled.
    pub weather_injections: u64,
    /// Declared recovery SLO (seconds; negative = none declared).
    pub recovery_slo_s: f64,
    /// Per-region fault timelines, one per control-path fault window.
    pub fault_timelines: Vec<FaultTimeline>,
    /// Median recovery latency over recovered windows (-1 = no
    /// windows recovered).
    pub recovery_p50_s: f64,
    /// 99th-percentile recovery latency (-1 = no windows recovered).
    pub recovery_p99_s: f64,
    /// Fault windows that missed the declared recovery SLO (always 0
    /// when no SLO is declared).
    pub slo_violations: u64,
    /// `(region, version)` checkpoint rounds committed more than once
    /// — must be 0: a heal resync may never double-commit a round.
    pub duplicate_commits: u64,
    /// Partition episodes the controller actually observed (severed →
    /// healed transitions on its side).
    pub severed_observed: u64,
    /// Cellular sends aged out behind a weather partition.
    pub cell_severed_sends: u64,
    /// Backlogged cellular bytes drained undelivered (endpoint death
    /// or partition ageing).
    pub cell_queue_drop_bytes: u64,
    /// Cellular sends rejected at dead/unknown endpoints.
    pub cell_rejects: u64,
    /// Logical preserved bytes (Fig 10a). This and the next two byte
    /// counts are deterministic but stay outside the digest, which
    /// keeps the fields it has always covered.
    pub preserved_bytes: u64,
    /// WiFi checkpoint + replication bytes (Fig 10b).
    pub ckpt_repl_bytes: u64,
    /// WiFi source-preservation bytes.
    pub preservation_bytes: u64,
    /// Barrier windows the causality sanitizer folded (0 when it was
    /// off). Excluded from the digest: digests must agree between
    /// sanitized and unsanitized runs of the same config.
    pub sanitizer_windows: u64,
    /// The sanitizer's per-window RNG/event ledger (0 when off;
    /// excluded from the digest for the same reason).
    pub sanitizer_ledger: u64,
    /// Causality violations the sanitizer recorded (0 when off;
    /// excluded from the digest like the other sanitizer fields, and
    /// enforced separately — `msx scenarios run`/`matrix` exit nonzero
    /// when it is not 0).
    pub sanitizer_violations: u64,
    /// Event-pool allocations served from recycled slots, summed over
    /// shards. A pure function of the schedule (pooled slots never
    /// cross shards), so it must match across thread counts; excluded
    /// from the digest as an observation-only kernel counter.
    pub pool_recycled: u64,
    /// Event-pool generation mismatches (double free / aliased live
    /// slot). Any nonzero value is a kernel memory-safety bug — `msx
    /// scenarios run`/`matrix` exit nonzero when it is not 0. Excluded
    /// from the digest like the other observation fields.
    pub pool_aliasing: u64,
    /// FNV-1a digest of the deterministic fields above.
    pub digest: u64,
}

impl FleetReport {
    /// FNV-1a over the deterministic fields (wall-clock excluded).
    pub(crate) fn compute_digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        let mut mix = |x: u64| h.mix(x);
        mix(self.seed);
        mix(self.regions as u64);
        mix(self.phones as u64);
        mix(self.events_processed);
        mix(self.churn_failures);
        mix(self.churn_departures);
        mix(self.churn_rejoins);
        for &o in &self.per_region_outputs {
            mix(o);
        }
        mix(self.outputs);
        mix(self.mean_throughput.to_bits());
        mix(self.mean_latency_s.to_bits());
        mix(self.source_drops);
        mix(self.recoveries);
        mix(self.mean_recovery_s.to_bits());
        mix(self.departures_handled);
        mix(self.region_stops);
        mix(self.checkpoint_commits);
        mix(self.wifi_total_bytes);
        mix(self.cell_total_bytes);
        mix(self.cell_drops);
        mix(self.cell_max_queue_depth);
        for &d in &self.per_region_cell_drops {
            mix(d);
        }
        for &d in &self.per_region_cell_max_queue_depth {
            mix(d);
        }
        for b in self.weather.bytes() {
            mix(b as u64);
        }
        mix(self.weather_injections);
        mix(self.recovery_slo_s.to_bits());
        for t in &self.fault_timelines {
            mix(t.region as u64);
            mix(t.fault_at_s.to_bits());
            mix(t.heal_at_s.to_bits());
            mix(t.first_commit_s.to_bits());
            mix(t.recovery_s.to_bits());
            mix(t.slo_met as u64);
        }
        mix(self.recovery_p50_s.to_bits());
        mix(self.recovery_p99_s.to_bits());
        mix(self.slo_violations);
        mix(self.duplicate_commits);
        mix(self.severed_observed);
        mix(self.cell_severed_sends);
        mix(self.cell_queue_drop_bytes);
        mix(self.cell_rejects);
        h.finish()
    }

    /// Write the report as pretty JSON under `dir`.
    pub fn save_json(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}_seed{}.json", self.profile, self.seed));
        let json = serde_json::to_string_pretty(self).expect("serialize fleet report");
        std::fs::write(&path, json)?;
        Ok(path)
    }
}

/// Run one scenario and report it. The steps, in an order that fixes
/// every same-instant tie: build and start the deployment (which
/// schedules its churn, loss steps and weather), apply `faults`,
/// shard the kernel when `threads` ≥ 1, run to `duration`, harvest
/// `[warmup, duration)`, report.
pub fn run(cfg: &ScenarioConfig, faults: impl FnOnce(&mut Deployment)) -> FleetReport {
    let wall = std::time::Instant::now();
    let (dep, schedule, weather_injections) = simulate(cfg, faults);
    let san = dep.sim.causality_report();
    let pool = dep.sim.pool_stats();
    let h = harvest(
        &dep,
        SimTime::ZERO + cfg.warmup,
        SimTime::ZERO + cfg.duration,
    );

    let churn = |kind| schedule.iter().filter(|e| e.kind == kind).count() as u64;
    // The window-independent cellular counters, network-wide.
    let cell = dep.sim.actor::<CellularNet>(dep.cell).stats();

    // The `ms_*` views are empty under the baselines.
    let commit_log = dep.ms_commits();
    let checkpoint_commits = commit_log.len() as u64;
    let mut seen_rounds = std::collections::BTreeSet::new();
    let duplicate_commits = commit_log
        .iter()
        .filter(|&&(r, v, _)| !seen_rounds.insert((r, v)))
        .count() as u64;

    let recovery_slo_s = cfg
        .weather
        .as_ref()
        .map(|w| w.recovery_slo_s)
        .unwrap_or(-1.0);
    let fault_timelines: Vec<FaultTimeline> = cfg
        .weather
        .as_ref()
        .map(|w| weather::fault_windows(w, cfg.topo()))
        .unwrap_or_default()
        .into_iter()
        .map(|(region, start, heal)| {
            let first = commit_log
                .iter()
                .filter(|&&(r, _, at)| r == region && at >= heal)
                .map(|&(_, _, at)| at)
                .min();
            let heal_at_s = heal.as_secs_f64();
            let (first_commit_s, recovery_s) = match first {
                Some(at) => (at.as_secs_f64(), at.as_secs_f64() - heal_at_s),
                None => (-1.0, -1.0),
            };
            let slo_met =
                recovery_slo_s < 0.0 || (recovery_s >= 0.0 && recovery_s <= recovery_slo_s);
            FaultTimeline {
                region,
                fault_at_s: start.as_secs_f64(),
                heal_at_s,
                first_commit_s,
                recovery_s,
                slo_met,
            }
        })
        .collect();
    let slo_violations = fault_timelines.iter().filter(|t| !t.slo_met).count() as u64;
    let mut recovered: Vec<f64> = fault_timelines
        .iter()
        .filter(|t| t.recovery_s >= 0.0)
        .map(|t| t.recovery_s)
        .collect();
    recovered.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let recovery_p50_s = nearest_rank(&recovered, 0.5).unwrap_or(-1.0);
    let recovery_p99_s = nearest_rank(&recovered, 0.99).unwrap_or(-1.0);

    let per_region_outputs: Vec<u64> = h.per_region.iter().map(|r| r.outputs as u64).collect();
    let wall_secs = wall.elapsed().as_secs_f64();
    let events_processed = dep.sim.events_processed();
    let mut report = FleetReport {
        profile: cfg.name.clone(),
        seed: cfg.seed,
        regions: cfg.regions,
        phones: cfg.total_phones(),
        sim_secs: cfg.duration.as_secs_f64(),
        events_processed,
        wall_secs,
        events_per_sec: events_processed as f64 / wall_secs.max(1e-9),
        churn_failures: churn(ChurnKind::Fail),
        churn_departures: churn(ChurnKind::Depart),
        churn_rejoins: churn(ChurnKind::Rejoin),
        outputs: per_region_outputs.iter().sum(),
        per_region_outputs,
        mean_throughput: h.mean_throughput,
        mean_latency_s: if h.mean_latency_s.is_finite() {
            h.mean_latency_s
        } else {
            -1.0
        },
        source_drops: h.per_region.iter().map(|r| r.source_drops).sum(),
        recoveries: h.recoveries as u64,
        mean_recovery_s: h.mean_recovery_s,
        departures_handled: dep.ms_departures_handled(),
        region_stops: h.stops,
        checkpoint_commits,
        wifi_total_bytes: h.wifi_bytes.total(),
        cell_total_bytes: h.cell_bytes.total(),
        cell_drops: h.cell_drops,
        cell_max_queue_depth: cell.max_queue_depth,
        per_region_cell_drops: h.per_region.iter().map(|r| r.cell_drops).collect(),
        per_region_cell_max_queue_depth: h
            .per_region
            .iter()
            .map(|r| r.cell_max_queue_depth)
            .collect(),
        weather: cfg
            .weather
            .as_ref()
            .map(|w| w.name.clone())
            .unwrap_or_default(),
        weather_injections,
        recovery_slo_s,
        fault_timelines,
        recovery_p50_s,
        recovery_p99_s,
        slo_violations,
        duplicate_commits,
        severed_observed: dep.ms_severed_episodes().len() as u64,
        cell_severed_sends: cell.severed_sends,
        cell_queue_drop_bytes: cell.queue_drop_bytes,
        cell_rejects: cell.rejects,
        preserved_bytes: h.preserved_bytes,
        ckpt_repl_bytes: h.ckpt_repl_bytes,
        preservation_bytes: h.wifi_bytes.preservation,
        sanitizer_windows: san.map(|r| r.windows).unwrap_or(0),
        sanitizer_ledger: san.map(|r| r.ledger).unwrap_or(0),
        sanitizer_violations: san.map(|r| r.violations).unwrap_or(0),
        pool_recycled: pool.recycled,
        pool_aliasing: pool.aliasing,
        digest: 0,
    };
    report.digest = report.compute_digest();
    report
}

/// Every step of [`run`] before the harvest. Returns the finished
/// deployment, its churn schedule and its weather injection count.
fn simulate(
    cfg: &ScenarioConfig,
    faults: impl FnOnce(&mut Deployment),
) -> (Deployment, Vec<ChurnEvent>, u64) {
    let mut dep = Deployment::build(cfg.clone());
    let (schedule, weather_injections) = dep.start();
    faults(&mut dep);
    if cfg.threads > 0 {
        dep.enable_sharding_opts(cfg.threads, true);
    }
    if cfg.sanitize {
        dep.sim.enable_sanitizer();
    }
    dep.run_until(SimTime::ZERO + cfg.duration);
    (dep, schedule, weather_injections)
}

/// [`run`]'s harvest of `cfg` over `[warmup, warmup + window)`:
/// `msbench`'s entry point, which the next change to the benchmark
/// deletes.
pub fn measured_run(
    cfg: ScenarioConfig,
    warmup: SimDuration,
    window: SimDuration,
    faults: impl FnOnce(&mut Deployment),
) -> Harvest {
    let cfg = ScenarioConfig {
        warmup,
        duration: warmup + window,
        ..cfg
    };
    let (dep, ..) = simulate(&cfg, faults);
    harvest(
        &dep,
        SimTime::ZERO + cfg.warmup,
        SimTime::ZERO + cfg.duration,
    )
}
