//! Fleet-scale scenario engine: N regions × M phones under seeded,
//! parameterized churn.
//!
//! The paper validates MobiStreams on an 8-phone, 4-region testbed;
//! this module opens the scale and scenario-diversity axes. A
//! [`FleetConfig`] describes a deployment (per-region phone counts,
//! per-region WiFi loss profiles) plus a *churn model* (fail-stop
//! crashes, departures, inter-region mobility, rejoins). From the
//! config's seed a deterministic [`ChurnEvent`] schedule is generated
//! and injected into the simulation before it starts, so a fleet run
//! is exactly as reproducible as the paper scenarios: same seed, same
//! report.
//!
//! A small library of named profiles covers the scenarios the ROADMAP
//! asks for:
//!
//! * `stadium` — 8 regions × 128 phones (1024 total): huge idle
//!   capacity, light churn; stresses broadcast fan-out, membership
//!   updates and the controller's many-region bookkeeping.
//! * `commute` — 8 regions × 16 phones with heavy inter-region
//!   mobility: phones continuously depart one region and re-appear in
//!   the next, exercising the §III-E departure protocol and urgent
//!   cellular routing under churn.
//! * `flash-crowd` — regions start half-empty; the crowd arrives in
//!   one burst, then drains away; stresses join/registration and
//!   late-capacity recovery.
//! * `lossy-wifi` — per-region loss profiles ramp from 5 % up to 30 %
//!   and back, at staggered times per region; stresses the multi-phase
//!   broadcast's cost/gain logic and the TCP residue path.
//! * `metro` — 32 regions × 320 phones (10 240 total) under a sharded
//!   control plane (8 region-group controllers of 4 regions each):
//!   stresses the coordinator/region-controller split, delta-based
//!   membership reconciliation and the per-group cellular budget.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::Serialize;
use simkernel::{SimDuration, SimRng, SimTime};
use simnet::cellular::CellSetPartition;
use simnet::wifi::{WifiConfig, WifiSetBrownout, WifiSetLoss};

use crate::faults::{inject_departure, inject_failure, inject_reboot};
use crate::run::harvest;
use crate::scenario::{AppKind, Deployment, RegionOverride, ScenarioConfig, Scheme};
use crate::weather::{self, CtlTopology, WeatherAction, WeatherProgram};

/// Churn model: rates are per phone-hour, so the same profile scales
/// from 10 phones to 10 000.
#[derive(Debug, Clone)]
pub struct ChurnProfile {
    /// Mean fail-stop crashes per phone-hour.
    pub fail_per_phone_hour: f64,
    /// Mean departures (GPS-out mobility exits) per phone-hour.
    pub depart_per_phone_hour: f64,
    /// Fraction of departures that are inter-region *moves*: the
    /// leaving phone re-appears in the next region `travel_s` later by
    /// re-activating an absent slot there (falls back to a plain
    /// departure when the destination is full).
    pub move_fraction: f64,
    /// Mean absence before a failed/departed phone rejoins its region.
    pub mean_rejoin_s: f64,
    /// Travel time of an inter-region move.
    pub travel_s: f64,
    /// No churn before this time (deployment boot window).
    pub quiet_start_s: f64,
    /// Fraction of each region's phones absent at t = 0 (taken from
    /// the highest slots — idle standby capacity).
    pub initial_absent_fraction: f64,
    /// Window `(from_s, to_s)` in which the initially-absent phones
    /// arrive (uniformly, seeded). `None` = they never arrive.
    pub arrival_burst: Option<(f64, f64)>,
}

impl Default for ChurnProfile {
    fn default() -> Self {
        ChurnProfile {
            fail_per_phone_hour: 0.0,
            depart_per_phone_hour: 0.0,
            move_fraction: 0.0,
            mean_rejoin_s: 60.0,
            travel_s: 20.0,
            quiet_start_s: 30.0,
            initial_absent_fraction: 0.0,
            arrival_burst: None,
        }
    }
}

/// Time-varying WiFi loss for one region: `(at_s, loss)` steps applied
/// to the region's medium while the simulation runs.
#[derive(Debug, Clone, Default)]
pub struct LossProfile {
    /// Scheduled loss changes.
    pub steps: Vec<(f64, f64)>,
}

/// One region of the fleet.
#[derive(Debug, Clone)]
pub struct FleetRegion {
    /// Phones deployed here.
    pub phones: u32,
    /// Base WiFi channel parameters.
    pub wifi: WifiConfig,
    /// Scheduled loss changes (empty = constant `wifi.loss`).
    pub loss: LossProfile,
}

impl FleetRegion {
    /// A region with `phones` phones on the default channel.
    pub fn of(phones: u32) -> Self {
        FleetRegion {
            phones,
            wifi: WifiConfig::default(),
            loss: LossProfile::default(),
        }
    }
}

/// A full fleet scenario: deployment shape + churn + run windows.
#[derive(Clone)]
pub struct FleetConfig {
    /// Profile name (report label).
    pub name: String,
    /// Application.
    pub app: AppKind,
    /// FT scheme.
    pub scheme: Scheme,
    /// The regions, cascaded in a line as in the paper.
    pub regions: Vec<FleetRegion>,
    /// Regions per region-group controller (ms only). 1 = one
    /// controller per region; `regions.len()` = a single controller
    /// owning the whole fleet.
    pub ctl_group_size: usize,
    /// Churn model.
    pub churn: ChurnProfile,
    /// Network weather rolling over the fleet (None = clear skies).
    /// Compiled into the event schedule before the run starts, so
    /// weather is exactly as deterministic as churn.
    pub weather: Option<WeatherProgram>,
    /// Application calibration (fleet profiles shrink operator states
    /// so checkpoint rounds fit their shorter periods).
    pub cal: apps::Calibration,
    /// Checkpoint period.
    pub ckpt_period: SimDuration,
    /// First checkpoint offset.
    pub ckpt_offset: SimDuration,
    /// Total simulated span.
    pub duration: SimDuration,
    /// Measurement starts here (boot/warm-up excluded).
    pub warmup: SimDuration,
    /// Seed driving the whole run (workload, channel AND churn).
    pub seed: u64,
    /// Worker threads for the parallel event kernel. Purely a
    /// wall-clock knob: the report digest is bit-identical for every
    /// value (see `Sim::enable_sharding`).
    pub threads: usize,
    /// Force the kernel's causality sanitizer on (it is already on by
    /// default in debug builds). Observation-only: the simulated
    /// schedule and the report digest are unchanged; the report's
    /// `sanitizer_*` fields carry the per-window ledger.
    pub sanitize: bool,
}

impl FleetConfig {
    /// Phones across the fleet.
    pub fn total_phones(&self) -> u32 {
        self.regions.iter().map(|r| r.phones).sum()
    }

    /// Shrink to the CI smoke scale of `msx scenarios matrix --smoke`:
    /// 3 regions × ≤8 phones over 360 s. 360 s keeps the latest
    /// partition-heal window and its post-heal commit round inside the
    /// horizon; the checkpoint cadence shrinks with it so the post-heal
    /// commit opportunities per horizon match the full-scale profiles
    /// (~5-6 rounds).
    pub fn shrink_to_smoke(&mut self) {
        self.regions.truncate(3);
        for region in &mut self.regions {
            region.phones = region.phones.min(8);
        }
        self.duration = SimDuration::from_secs(360);
        self.warmup = SimDuration::from_secs(60);
        self.ckpt_period = SimDuration::from_secs(60);
        self.ckpt_offset = SimDuration::from_secs(20);
    }

    /// Control-plane topology (regions × group size).
    pub fn topo(&self) -> CtlTopology {
        CtlTopology::new(self.regions.len(), self.ctl_group_size)
    }

    /// The underlying deployment parameters.
    pub fn scenario(&self) -> ScenarioConfig {
        ScenarioConfig {
            app: self.app,
            scheme: self.scheme,
            regions: self.regions.len(),
            phones: self.regions.iter().map(|r| r.phones).max().unwrap_or(8),
            cal: self.cal.clone(),
            ckpt_period: self.ckpt_period,
            ckpt_offset: self.ckpt_offset,
            ctl_group_size: self.ctl_group_size,
            seed: self.seed,
            overrides: self
                .regions
                .iter()
                .map(|r| RegionOverride {
                    phones: Some(r.phones),
                    wifi: Some(r.wifi.clone()),
                })
                .collect(),
            ..ScenarioConfig::default()
        }
    }
}

/// What happens to one phone at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// Fail-stop crash (links die; controller detects emergently).
    Fail,
    /// Mobility exit (§III-E: phone reports itself, urgent mode).
    Depart,
    /// A phone (re)joins the region (reboot/arrival registration).
    Rejoin,
}

/// One scheduled churn injection.
#[derive(Debug, Clone, Copy)]
pub struct ChurnEvent {
    /// When.
    pub at: SimTime,
    /// Region hit.
    pub region: usize,
    /// Slot hit.
    pub slot: u32,
    /// What happens.
    pub kind: ChurnKind,
}

/// Per-slot presence bookkeeping used by the schedule generator.
/// `Present` also covers "absent but already scheduled to return":
/// such a slot is reserved and can't be claimed by a move, and the
/// heap pops in time order so its next leave candidate always lands
/// after the scheduled return.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Presence {
    Present,
    /// Absent and available as an arrival target for a move.
    AbsentFree,
}

/// Generate the deterministic churn schedule for `cfg`. Pure function
/// of the config (notably its seed): two calls yield identical events.
pub fn churn_schedule(cfg: &FleetConfig) -> Vec<ChurnEvent> {
    let mut rng = SimRng::new(cfg.seed ^ 0xF1EE_7CA5_7A60_0D5E);
    let churn = &cfg.churn;
    let horizon = cfg.duration.as_secs_f64();
    let leave_rate = (churn.fail_per_phone_hour + churn.depart_per_phone_hour) / 3600.0;
    let p_fail = if leave_rate > 0.0 {
        churn.fail_per_phone_hour / (churn.fail_per_phone_hour + churn.depart_per_phone_hour)
    } else {
        0.0
    };

    let mut events: Vec<ChurnEvent> = Vec::new();
    let mut presence: Vec<Vec<Presence>> = cfg
        .regions
        .iter()
        .map(|r| vec![Presence::Present; r.phones as usize])
        .collect();
    // Slots whose first leave candidate is already scheduled (arrival-
    // burst phones): the general seeding loop below must not give them
    // a second, independent candidate — it could fire before the phone
    // even arrives.
    let mut seeded: Vec<Vec<bool>> = cfg
        .regions
        .iter()
        .map(|r| vec![false; r.phones as usize])
        .collect();
    // Min-heap of candidate leave times per present phone; fully
    // deterministic (ties break on (region, slot)).
    let mut heap: BinaryHeap<Reverse<(u64, usize, u32)>> = BinaryHeap::new();

    // Initially-absent phones: the highest slots of each region (idle
    // standby capacity) start out of range, optionally arriving in the
    // configured burst window. An arriving phone becomes churn-eligible
    // after its arrival; slots with no scheduled arrival are the free
    // capacity inter-region moves claim.
    for (r, region) in cfg.regions.iter().enumerate() {
        let absent = (region.phones as f64 * churn.initial_absent_fraction).floor() as u32;
        for s in (region.phones - absent)..region.phones {
            // A failure at t=0 models "was never there": links dead
            // before the first ping round.
            events.push(ChurnEvent {
                at: SimTime::ZERO,
                region: r,
                slot: s,
                kind: ChurnKind::Fail,
            });
            let arrival = churn
                .arrival_burst
                .map(|(from, to)| rng.uniform(from, to.max(from)))
                .filter(|&at| at < horizon);
            if let Some(at) = arrival {
                events.push(ChurnEvent {
                    at: SimTime::from_nanos((at * 1e9) as u64),
                    region: r,
                    slot: s,
                    kind: ChurnKind::Rejoin,
                });
                // Reserved: returns at `at`, churn-eligible afterwards.
                seeded[r][s as usize] = true;
                if leave_rate > 0.0 {
                    let next = at.max(churn.quiet_start_s) + rng.exponential(1.0 / leave_rate);
                    if next < horizon {
                        heap.push(Reverse(((next * 1e9) as u64, r, s)));
                    }
                }
            } else {
                presence[r][s as usize] = Presence::AbsentFree;
            }
        }
    }

    if leave_rate > 0.0 {
        for (r, region) in cfg.regions.iter().enumerate() {
            for s in 0..region.phones {
                if presence[r][s as usize] != Presence::Present || seeded[r][s as usize] {
                    continue;
                }
                let at = churn.quiet_start_s + rng.exponential(1.0 / leave_rate);
                if at < horizon {
                    heap.push(Reverse(((at * 1e9) as u64, r, s)));
                }
            }
        }
    }
    while let Some(Reverse((at_ns, r, s))) = heap.pop() {
        if presence[r][s as usize] != Presence::Present {
            continue; // stale candidate (slot was consumed by a move)
        }
        let at = SimTime::from_nanos(at_ns);
        let is_fail = rng.chance(p_fail);
        let kind = if is_fail {
            ChurnKind::Fail
        } else {
            ChurnKind::Depart
        };
        events.push(ChurnEvent {
            at,
            region: r,
            slot: s,
            kind,
        });
        presence[r][s as usize] = Presence::AbsentFree;

        // Inter-region move: the phone re-appears in the next region,
        // claiming a free absent slot there.
        let moved = !is_fail
            && rng.chance(cfg.churn.move_fraction)
            && cfg.regions.len() > 1
            && arrive_next_region(
                cfg,
                &mut presence,
                &mut events,
                &mut heap,
                &mut rng,
                r,
                at_ns,
                horizon,
                leave_rate,
            );
        if !moved {
            // Plain absence: rejoin the same region later.
            let back_s = at_ns as f64 / 1e9 + rng.exponential(churn.mean_rejoin_s.max(1.0));
            if back_s < horizon {
                let back_ns = (back_s * 1e9) as u64;
                events.push(ChurnEvent {
                    at: SimTime::from_nanos(back_ns),
                    region: r,
                    slot: s,
                    kind: ChurnKind::Rejoin,
                });
                presence[r][s as usize] = Presence::Present;
                // Next leave after the rejoin.
                let next = back_s + rng.exponential(1.0 / leave_rate.max(1e-12));
                if next < horizon {
                    heap.push(Reverse(((next * 1e9) as u64, r, s)));
                }
            } else {
                presence[r][s as usize] = Presence::AbsentFree;
            }
        }
    }

    events.sort_by_key(|e| (e.at, e.region, e.slot, e.kind as u8));
    events
}

/// Claim an absent slot in the region after `from` for an arriving
/// phone; returns false when no capacity is free there.
#[allow(clippy::too_many_arguments)]
fn arrive_next_region(
    cfg: &FleetConfig,
    presence: &mut [Vec<Presence>],
    events: &mut Vec<ChurnEvent>,
    heap: &mut BinaryHeap<Reverse<(u64, usize, u32)>>,
    rng: &mut SimRng,
    from: usize,
    at_ns: u64,
    horizon: f64,
    leave_rate: f64,
) -> bool {
    let dest = (from + 1) % cfg.regions.len();
    let Some(free) = presence[dest]
        .iter()
        .position(|&p| p == Presence::AbsentFree)
    else {
        return false;
    };
    let arrive_s = at_ns as f64 / 1e9 + cfg.churn.travel_s.max(0.1);
    if arrive_s >= horizon {
        return false;
    }
    let slot = free as u32;
    events.push(ChurnEvent {
        at: SimTime::from_nanos((arrive_s * 1e9) as u64),
        region: dest,
        slot,
        kind: ChurnKind::Rejoin,
    });
    presence[dest][free] = Presence::Present;
    let next = arrive_s + rng.exponential(1.0 / leave_rate.max(1e-12));
    if next < horizon {
        heap.push(Reverse(((next * 1e9) as u64, dest, slot)));
    }
    true
}

/// Build the deployment and inject the churn + loss schedules.
/// Returns the deployment (started, not yet run) and the applied
/// schedule for reporting.
pub fn build_fleet(cfg: &FleetConfig) -> (Deployment, Vec<ChurnEvent>) {
    let schedule = churn_schedule(cfg);
    let mut dep = Deployment::build(cfg.scenario());
    dep.start();
    for ev in &schedule {
        match ev.kind {
            ChurnKind::Fail => inject_failure(&mut dep, ev.region, ev.slot, ev.at),
            ChurnKind::Depart => inject_departure(&mut dep, ev.region, ev.slot, ev.at),
            ChurnKind::Rejoin => inject_reboot(&mut dep, ev.region, ev.slot, ev.at),
        }
    }
    for (r, region) in cfg.regions.iter().enumerate() {
        let wifi = dep.regions[r].wifi;
        for &(at_s, loss) in &region.loss.steps {
            dep.sim.schedule_at(
                SimTime::from_nanos((at_s * 1e9) as u64),
                wifi,
                WifiSetLoss { loss },
            );
        }
    }
    if let Some(program) = &cfg.weather {
        apply_weather(&mut dep, program, cfg.topo());
    }
    (dep, schedule)
}

/// Compile a weather program and schedule its injections against the
/// deployment's simnet actors. Returns the number of injections.
fn apply_weather(dep: &mut Deployment, program: &WeatherProgram, topo: CtlTopology) -> u64 {
    let injections = weather::compile(program, topo);
    for inj in &injections {
        match inj.action {
            WeatherAction::PartitionRegion { region, on } => {
                // Sever every phone endpoint of the region; endpoints
                // stay alive behind the cut (weather, not death).
                for &node in &dep.regions[region].nodes {
                    dep.sim
                        .schedule_at(inj.at, dep.cell, CellSetPartition { node, on });
                }
            }
            WeatherAction::Brownout { region, on, loss } => {
                let wifi = dep.regions[region].wifi;
                dep.sim
                    .schedule_at(inj.at, wifi, WifiSetBrownout { on, loss });
            }
            WeatherAction::PartitionController { group, on } => {
                // Sever the one region-group controller: its regions
                // lose the control plane while every other group keeps
                // committing rounds.
                if let Some(&node) = dep.region_controllers.get(group) {
                    dep.sim
                        .schedule_at(inj.at, dep.cell, CellSetPartition { node, on });
                }
            }
        }
    }
    injections.len() as u64
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

/// Machine-readable result of one fleet run. Everything except the
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
    fn compute_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
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
        h
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

/// Build, run and harvest one fleet scenario.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    let wall = std::time::Instant::now();
    let (mut dep, schedule) = build_fleet(cfg);
    dep.enable_sharding(cfg.threads);
    if cfg.sanitize {
        dep.sim.enable_sanitizer();
    }
    let to = SimTime::ZERO + cfg.duration;
    dep.run_until(to);
    let san = dep.sim.causality_report();
    let pool = dep.sim.pool_stats();
    let h = harvest(&dep, SimTime::ZERO + cfg.warmup, to);

    let (churn_failures, churn_departures, churn_rejoins) =
        schedule
            .iter()
            .fold((0u64, 0u64, 0u64), |acc, e| match e.kind {
                ChurnKind::Fail => (acc.0 + 1, acc.1, acc.2),
                ChurnKind::Depart => (acc.0, acc.1 + 1, acc.2),
                ChurnKind::Rejoin => (acc.0, acc.1, acc.2 + 1),
            });

    let (departures_handled, commit_log, severed_observed) = if dep.region_controllers.is_empty() {
        (0, Vec::new(), 0)
    } else {
        (
            dep.ms_departures_handled(),
            dep.ms_commits(),
            dep.ms_severed_episodes().len() as u64,
        )
    };
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
    let weather_injections = cfg
        .weather
        .as_ref()
        .map(|w| weather::compile(w, cfg.topo()).len() as u64)
        .unwrap_or(0);
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
    let pct = |xs: &[f64], p: f64| -> f64 {
        if xs.is_empty() {
            return -1.0;
        }
        xs[((p / 100.0) * (xs.len() - 1) as f64).round() as usize]
    };
    let recovery_p50_s = pct(&recovered, 50.0);
    let recovery_p99_s = pct(&recovered, 99.0);

    let per_region_outputs: Vec<u64> = h.per_region.iter().map(|r| r.outputs as u64).collect();
    let wall_secs = wall.elapsed().as_secs_f64();
    let events_processed = dep.sim.events_processed();
    let mut report = FleetReport {
        profile: cfg.name.clone(),
        seed: cfg.seed,
        regions: cfg.regions.len(),
        phones: cfg.total_phones(),
        sim_secs: cfg.duration.as_secs_f64(),
        events_processed,
        wall_secs,
        events_per_sec: events_processed as f64 / wall_secs.max(1e-9),
        churn_failures,
        churn_departures,
        churn_rejoins,
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
        departures_handled,
        region_stops: h.stops,
        checkpoint_commits,
        wifi_total_bytes: h.wifi_bytes.total(),
        cell_total_bytes: h.cell_bytes.total(),
        cell_drops: h.cell_drops,
        cell_max_queue_depth: h.cell_max_queue_depth,
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
        severed_observed,
        cell_severed_sends: h.cell_severed_sends,
        cell_queue_drop_bytes: h.cell_queue_drop_bytes,
        cell_rejects: h.cell_rejects,
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

/// A stadium-shaped fleet scaled to `regions × phones`, trimmed to a
/// 60 s window so one run stays subsecond-ish. `msbench`'s layer
/// drivers build their deployments from it.
pub fn bench_profile(regions: usize, phones: u32, seed: u64) -> FleetConfig {
    let cal = apps::Calibration {
        state_a: 16 * 1024,
        state_l: 16 * 1024,
        state_b: 64 * 1024,
        state_j: 48 * 1024,
        state_p: 16 * 1024,
        state_h: 16 * 1024,
        ..apps::Calibration::default()
    };
    FleetConfig {
        name: format!("bench-{regions}x{phones}"),
        app: AppKind::Bcp,
        scheme: Scheme::Ms,
        regions: (0..regions).map(|_| FleetRegion::of(phones)).collect(),
        ctl_group_size: 1,
        churn: ChurnProfile {
            fail_per_phone_hour: 2.0,
            depart_per_phone_hour: 4.0,
            move_fraction: 0.3,
            mean_rejoin_s: 30.0,
            quiet_start_s: 15.0,
            ..ChurnProfile::default()
        },
        weather: None,
        cal,
        ckpt_period: SimDuration::from_secs(30),
        ckpt_offset: SimDuration::from_secs(10),
        duration: SimDuration::from_secs(60),
        warmup: SimDuration::from_secs(10),
        seed,
        threads: 1,
        sanitize: false,
    }
}

// ---------------------------------------------------------------------
// Named profile library.

/// Names of the built-in profiles.
pub const PROFILE_NAMES: &[&str] = &["stadium", "commute", "flash-crowd", "lossy-wifi", "metro"];

/// Operator states shrunk so a checkpoint round (snapshot + broadcast
/// replication) fits the profiles' shortened checkpoint periods even
/// on a lossy channel — fleet profiles stress protocol scale, not raw
/// checkpoint mass.
fn fleet_cal() -> apps::Calibration {
    apps::Calibration {
        state_a: 16 * 1024,
        state_l: 16 * 1024,
        state_b: 64 * 1024,
        state_j: 48 * 1024,
        state_p: 16 * 1024,
        state_h: 16 * 1024,
        state_v: 16 * 1024,
        state_g: 16 * 1024,
        state_svm: 64 * 1024,
        state_m: 16 * 1024,
        ..apps::Calibration::default()
    }
}

fn base_profile(name: &str, seed: u64, regions: Vec<FleetRegion>) -> FleetConfig {
    FleetConfig {
        name: name.to_string(),
        app: AppKind::Bcp,
        scheme: Scheme::Ms,
        regions,
        ctl_group_size: 1,
        churn: ChurnProfile::default(),
        weather: None,
        cal: fleet_cal(),
        ckpt_period: SimDuration::from_secs(120),
        ckpt_offset: SimDuration::from_secs(45),
        duration: SimDuration::from_secs(420),
        warmup: SimDuration::from_secs(60),
        seed,
        threads: 1,
        sanitize: false,
    }
}

/// Look up a named profile. `None` for unknown names.
pub fn profile(name: &str, seed: u64) -> Option<FleetConfig> {
    match name {
        "stadium" => {
            // 8 regions × 128 phones = 1024: a packed venue. Huge idle
            // standby capacity, light churn.
            let regions = (0..8).map(|_| FleetRegion::of(128)).collect();
            let mut cfg = base_profile(name, seed, regions);
            cfg.churn = ChurnProfile {
                fail_per_phone_hour: 0.5,
                depart_per_phone_hour: 1.0,
                move_fraction: 0.2,
                mean_rejoin_s: 90.0,
                ..ChurnProfile::default()
            };
            Some(cfg)
        }
        "commute" => {
            // Heavy inter-region mobility: phones stream from region to
            // region like cars along a road.
            let regions = (0..8).map(|_| FleetRegion::of(16)).collect();
            let mut cfg = base_profile(name, seed, regions);
            cfg.duration = SimDuration::from_secs(600);
            cfg.churn = ChurnProfile {
                fail_per_phone_hour: 1.0,
                depart_per_phone_hour: 24.0,
                move_fraction: 0.8,
                mean_rejoin_s: 45.0,
                travel_s: 20.0,
                ..ChurnProfile::default()
            };
            Some(cfg)
        }
        "flash-crowd" => {
            // Regions boot half-empty; the crowd arrives in one burst
            // after a minute, then churns away.
            let regions = (0..4).map(|_| FleetRegion::of(64)).collect();
            let mut cfg = base_profile(name, seed, regions);
            cfg.churn = ChurnProfile {
                fail_per_phone_hour: 1.0,
                depart_per_phone_hour: 12.0,
                move_fraction: 0.1,
                mean_rejoin_s: 60.0,
                quiet_start_s: 150.0,
                initial_absent_fraction: 0.5,
                arrival_burst: Some((60.0, 120.0)),
                ..ChurnProfile::default()
            };
            Some(cfg)
        }
        "lossy-wifi" => {
            // Staggered interference ramps per region: 5 % → 25 % → 10 %.
            let regions = (0..4)
                .map(|r| {
                    let mut region = FleetRegion::of(8);
                    let t0 = 90.0 + 60.0 * r as f64;
                    region.loss.steps = vec![(t0, 0.25), (t0 + 120.0, 0.10)];
                    region
                })
                .collect();
            let mut cfg = base_profile(name, seed, regions);
            cfg.duration = SimDuration::from_secs(600);
            cfg.churn = ChurnProfile {
                fail_per_phone_hour: 1.0,
                depart_per_phone_hour: 2.0,
                ..ChurnProfile::default()
            };
            Some(cfg)
        }
        "metro" => {
            // A whole metro area: 32 regions × 320 phones = 10 240,
            // run by a sharded control plane — 8 region-group
            // controllers of 4 regions each behind the thin global
            // coordinator. Light churn; the scale itself is the
            // stressor. Trimmed to 180 s so a smoke run stays cheap.
            let regions = (0..32).map(|_| FleetRegion::of(320)).collect();
            let mut cfg = base_profile(name, seed, regions);
            cfg.ctl_group_size = 4;
            cfg.ckpt_period = SimDuration::from_secs(60);
            cfg.ckpt_offset = SimDuration::from_secs(30);
            cfg.duration = SimDuration::from_secs(180);
            cfg.warmup = SimDuration::from_secs(45);
            cfg.churn = ChurnProfile {
                fail_per_phone_hour: 0.5,
                depart_per_phone_hour: 1.0,
                move_fraction: 0.2,
                mean_rejoin_s: 60.0,
                ..ChurnProfile::default()
            };
            Some(cfg)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini(seed: u64) -> FleetConfig {
        let mut cfg = base_profile("mini", seed, (0..3).map(|_| FleetRegion::of(6)).collect());
        cfg.duration = SimDuration::from_secs(240);
        cfg.warmup = SimDuration::from_secs(40);
        cfg.ckpt_period = SimDuration::from_secs(60);
        cfg.ckpt_offset = SimDuration::from_secs(20);
        cfg.churn = ChurnProfile {
            fail_per_phone_hour: 6.0,
            depart_per_phone_hour: 12.0,
            move_fraction: 0.5,
            mean_rejoin_s: 30.0,
            travel_s: 10.0,
            quiet_start_s: 25.0,
            ..ChurnProfile::default()
        };
        cfg
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let a = churn_schedule(&mini(7));
        let b = churn_schedule(&mini(7));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.at, x.region, x.slot, x.kind),
                (y.at, y.region, y.slot, y.kind)
            );
        }
        assert!(!a.is_empty(), "churny profile produced no events");
        let c = churn_schedule(&mini(8));
        let same = a.len() == c.len()
            && a.iter()
                .zip(&c)
                .all(|(x, y)| (x.at, x.region, x.slot) == (y.at, y.region, y.slot));
        assert!(!same, "different seeds produced identical schedules");
    }

    fn assert_presence_consistent(evs: &[ChurnEvent], regions: usize, phones: usize) {
        let mut present = vec![vec![true; phones]; regions];
        for e in evs {
            let p = &mut present[e.region][e.slot as usize];
            match e.kind {
                ChurnKind::Fail | ChurnKind::Depart => {
                    assert!(*p, "leave event for absent phone: {e:?}");
                    *p = false;
                }
                ChurnKind::Rejoin => {
                    assert!(!*p, "rejoin for present phone: {e:?}");
                    *p = true;
                }
            }
        }
    }

    #[test]
    fn schedule_never_hits_absent_phone_or_doubles_up() {
        assert_presence_consistent(&churn_schedule(&mini(3)), 3, 6);
    }

    /// Regression: an arrival-burst phone used to receive a second,
    /// independent leave candidate from the general seeding loop —
    /// with churn allowed before the burst window it could "leave"
    /// before it ever arrived.
    #[test]
    fn arrival_burst_phones_get_exactly_one_leave_stream() {
        let mut cfg = mini(9);
        cfg.churn.quiet_start_s = 10.0;
        cfg.churn.initial_absent_fraction = 0.5;
        cfg.churn.arrival_burst = Some((60.0, 120.0));
        assert_presence_consistent(&churn_schedule(&cfg), 3, 6);
    }

    #[test]
    fn fleet_run_is_deterministic_under_churn() {
        let r1 = run_fleet(&mini(21));
        let r2 = run_fleet(&mini(21));
        assert_eq!(r1.digest, r2.digest, "same seed must reproduce the report");
        assert_eq!(r1.events_processed, r2.events_processed);
        assert!(r1.outputs > 0, "fleet produced no sink output");
        assert!(
            r1.churn_failures + r1.churn_departures > 0,
            "no churn was injected"
        );
    }

    /// The load-bearing guarantee of the sharded kernel: for every
    /// library profile, running the regions on worker threads produces
    /// the exact report digest of the sequential run. Profiles are
    /// scaled down so this stays cheap, but the mix of schemes, churn
    /// shapes, and loss rates is preserved.
    #[test]
    fn thread_count_never_changes_profile_digests() {
        for name in PROFILE_NAMES {
            let mut cfg = profile(name, 11).expect("known profile");
            cfg.regions.truncate(3);
            for r in &mut cfg.regions {
                r.phones = r.phones.min(6);
            }
            // Keep metro's control plane sharded after the truncation
            // (2 groups over 3 regions) so the invariance check covers
            // region-group controllers on distinct shards.
            cfg.ctl_group_size = cfg.ctl_group_size.min(2);
            cfg.duration = SimDuration::from_secs(150);
            cfg.warmup = SimDuration::from_secs(30);

            let mut seq = cfg.clone();
            seq.threads = 1;
            let mut par = cfg;
            par.threads = 4;
            let r1 = run_fleet(&seq);
            let rn = run_fleet(&par);
            assert_eq!(
                r1.digest, rn.digest,
                "profile {name}: 4-thread digest diverged from sequential"
            );
            assert_eq!(r1.events_processed, rn.events_processed, "profile {name}");
        }
    }

    #[test]
    fn profiles_resolve_and_stadium_is_fleet_scale() {
        for name in PROFILE_NAMES {
            let cfg = profile(name, 1).expect("known profile");
            assert!(cfg.total_phones() > 0);
        }
        let stadium = profile("stadium", 1).unwrap();
        assert!(
            stadium.total_phones() >= 1000,
            "stadium must be 1000+ phones"
        );
        assert!(stadium.regions.len() >= 8, "stadium must span 8+ regions");
        assert!(profile("nope", 1).is_none());
    }

    /// D002's allowlist lets `run_fleet` read the wall clock, but the
    /// reading must never feed the determinism digest: rewriting every
    /// wall-clock-derived (and sanitizer) field leaves it unchanged.
    #[test]
    fn wall_clock_and_sanitizer_fields_never_feed_the_digest() {
        let mut r = run_fleet(&mini(13));
        let before = r.digest;
        r.wall_secs = 1e9;
        r.events_per_sec = -7.5;
        r.sanitizer_windows = u64::MAX;
        r.sanitizer_ledger = u64::MAX;
        r.sanitizer_violations = u64::MAX;
        r.pool_recycled = u64::MAX;
        r.pool_aliasing = u64::MAX;
        assert_eq!(
            r.compute_digest(),
            before,
            "digest must be a pure function of the simulated schedule"
        );
    }

    /// The sanitizer is observation-only: forcing it on cannot change
    /// the report digest, and a clean run folds a non-trivial ledger.
    #[test]
    fn sanitize_flag_never_changes_the_digest() {
        let plain = run_fleet(&mini(17));
        let mut cfg = mini(17);
        cfg.sanitize = true;
        let sanitized = run_fleet(&cfg);
        assert_eq!(plain.digest, sanitized.digest);
        assert_eq!(plain.events_processed, sanitized.events_processed);
        assert!(sanitized.sanitizer_windows > 0, "no windows folded");
        assert_ne!(sanitized.sanitizer_ledger, 0, "empty ledger");
    }

    /// The per-window ledger (RNG draw counts + events per shard at
    /// every barrier) is itself thread-count invariant: a stronger
    /// check than final-digest equality, because it pins the replayed
    /// schedule window by window.
    #[test]
    fn sanitizer_ledger_matches_across_thread_counts() {
        let mut seq = mini(23);
        seq.sanitize = true;
        let mut par = seq.clone();
        par.threads = 4;
        let r1 = run_fleet(&seq);
        let rn = run_fleet(&par);
        assert_eq!(r1.digest, rn.digest);
        assert_eq!(r1.sanitizer_windows, rn.sanitizer_windows);
        assert_eq!(
            r1.sanitizer_ledger, rn.sanitizer_ledger,
            "per-window RNG/event ledger diverged across thread counts"
        );
    }

    /// A mini fleet under the built-in partition-heal weather, long
    /// enough that both episodes heal and the post-heal checkpoint
    /// round lands inside the horizon.
    fn mini_weather(seed: u64) -> FleetConfig {
        let mut cfg = mini(seed);
        cfg.duration = SimDuration::from_secs(360);
        cfg.weather = crate::weather::weather("partition-heal", seed, cfg.topo());
        cfg
    }

    /// The tentpole acceptance check: under the partition-heal
    /// profile, every partitioned region resumes committing rounds
    /// within the declared recovery SLO after its scheduled heal, no
    /// round is ever committed twice (the heal resync must not replay
    /// the in-flight round), and the run stays digest-deterministic.
    #[test]
    fn partition_heal_meets_slo_and_never_double_commits() {
        let cfg = mini_weather(31);
        let r = run_fleet(&cfg);
        assert!(
            !r.fault_timelines.is_empty(),
            "partition-heal produced no fault windows"
        );
        assert!(r.severed_observed > 0, "controller never noticed the cut");
        for t in &r.fault_timelines {
            assert!(
                t.slo_met,
                "region {} missed the {}s SLO: healed {}s, first commit {}s",
                t.region, r.recovery_slo_s, t.heal_at_s, t.first_commit_s
            );
        }
        assert_eq!(r.slo_violations, 0);
        assert_eq!(r.duplicate_commits, 0, "a round was committed twice");
        assert!(r.recovery_p50_s >= 0.0 && r.recovery_p50_s <= r.recovery_p99_s);
        assert!(
            r.cell_severed_sends > 0,
            "no traffic aged out behind the partition"
        );
    }

    /// Weather is part of the determinism contract: same seed ⇒ same
    /// digest, and neither thread count nor the sanitizer may change
    /// it.
    #[test]
    fn weather_runs_are_digest_stable_across_threads_and_sanitize() {
        let r1 = run_fleet(&mini_weather(31));
        let mut par = mini_weather(31);
        par.threads = 4;
        par.sanitize = true;
        let rn = run_fleet(&par);
        assert_eq!(r1.digest, rn.digest, "weather digest diverged");
        assert_eq!(r1.events_processed, rn.events_processed);
        assert_eq!(rn.sanitizer_violations, 0, "sanitizer flagged the run");
    }

    mod weather_props {
        use super::*;
        use crate::weather::{WeatherProgram, WeatherSystem};
        use proptest::prelude::*;

        proptest! {
            cases = 4;
            /// Partition → heal → partition again on the same region is
            /// covered by the determinism contract: the report digest
            /// is a pure function of the config — bit-identical at 1
            /// and 4 worker threads with the sanitizer on — and the
            /// double cut still never double-commits a round. Each
            /// case is two full fleet runs, hence the low case cap.
            #[test]
            fn double_partition_digest_is_thread_invariant(seed in 0u64..1u64 << 16) {
                let mut cfg = mini(seed ^ 0xD1CE);
                cfg.duration = SimDuration::from_secs(300);
                // Cut the same region twice; starts sit in the
                // ping-safe band (42 ≡ 132 ≡ 12 mod 30).
                cfg.weather = Some(WeatherProgram {
                    name: "double-partition".into(),
                    systems: vec![
                        WeatherSystem::CellPartition {
                            regions: vec![0],
                            at_s: 42.0,
                            heal_s: 75.0,
                        },
                        WeatherSystem::CellPartition {
                            regions: vec![0],
                            at_s: 132.0,
                            heal_s: 165.0,
                        },
                    ],
                    recovery_slo_s: -1.0,
                });
                cfg.sanitize = true;
                cfg.threads = 1;
                let r1 = run_fleet(&cfg);
                let mut par = cfg.clone();
                par.threads = 4;
                let rn = run_fleet(&par);
                prop_assert_eq!(r1.digest, rn.digest, "digest diverged across threads");
                prop_assert_eq!(r1.events_processed, rn.events_processed);
                prop_assert_eq!(r1.sanitizer_violations, 0);
                prop_assert_eq!(rn.sanitizer_violations, 0);
                prop_assert_eq!(r1.duplicate_commits, 0, "double cut double-committed");
                prop_assert_eq!(r1.fault_timelines.len(), 2, "two cuts, two windows");
            }
        }
    }

    /// Brownouts pin loss but never cut the control path: no fault
    /// windows, no SLO bookkeeping, and the fleet keeps producing.
    #[test]
    fn brownout_weather_has_no_fault_windows() {
        let mut cfg = mini(37);
        cfg.weather = crate::weather::weather("brownout-front", 37, cfg.topo());
        let r = run_fleet(&cfg);
        assert!(r.weather_injections > 0);
        assert!(r.fault_timelines.is_empty());
        assert_eq!(r.slo_violations, 0);
        assert!(r.outputs > 0, "brownout silenced the fleet entirely");
    }

    #[test]
    fn flash_crowd_arrivals_follow_initial_absence() {
        let cfg = profile("flash-crowd", 5).unwrap();
        let evs = churn_schedule(&cfg);
        let t0_fails = evs
            .iter()
            .filter(|e| e.at == SimTime::ZERO && e.kind == ChurnKind::Fail)
            .count();
        // Half of each 64-phone region starts absent.
        assert_eq!(t0_fails, 4 * 32);
        let arrivals = evs
            .iter()
            .filter(|e| {
                e.kind == ChurnKind::Rejoin
                    && e.at >= SimTime::from_secs(60)
                    && e.at <= SimTime::from_secs(120)
            })
            .count();
        assert_eq!(arrivals, 4 * 32, "burst brings the whole crowd in");
    }
}
