//! Fleet-scale scenarios: N regions × M phones under seeded,
//! parameterized churn, and the library of named profiles.
//!
//! The paper validates MobiStreams on an 8-phone, 4-region testbed;
//! this module opens the scale and scenario-diversity axes. From a
//! [`ScenarioConfig`]'s seed its [`ChurnProfile`] (fail-stop crashes,
//! departures, inter-region moves, rejoins) becomes a deterministic
//! [`ChurnEvent`] schedule, which [`Deployment::start`] injects
//! together with the per-region loss steps and the weather.
//! [`crate::run::run`] then runs and reports it like any other
//! scenario, so a fleet run is exactly as reproducible as the paper
//! scenarios: same seed, same report.
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

use simkernel::{SimDuration, SimRng, SimTime};
use simnet::cellular::CellSetPartition;
use simnet::wifi::{WifiSetBrownout, WifiSetLoss};

use crate::faults::{inject_departure, inject_failure, inject_reboot};
use crate::run::{run, FleetReport};
use crate::scenario::{Deployment, ScenarioConfig};
use crate::weather::{self, WeatherAction, WeatherInjection};

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

/// `msbench`'s name for a [`ScenarioConfig`]; the next change to the
/// benchmark deletes it.
pub type FleetConfig = ScenarioConfig;

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
pub fn churn_schedule(cfg: &ScenarioConfig) -> Vec<ChurnEvent> {
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
    let mut presence = vec![vec![Presence::Present; cfg.phones as usize]; cfg.regions];
    // Slots whose first leave candidate is already scheduled (arrival-
    // burst phones): the general seeding loop below must not give them
    // a second, independent candidate — it could fire before the phone
    // even arrives.
    let mut seeded = vec![vec![false; cfg.phones as usize]; cfg.regions];
    // Min-heap of candidate leave times per present phone; fully
    // deterministic (ties break on (region, slot)).
    let mut heap: BinaryHeap<Reverse<(u64, usize, u32)>> = BinaryHeap::new();

    // Initially-absent phones: the highest slots of each region (idle
    // standby capacity) start out of range, optionally arriving in the
    // configured burst window. An arriving phone becomes churn-eligible
    // after its arrival; slots with no scheduled arrival are the free
    // capacity inter-region moves claim.
    for r in 0..cfg.regions {
        let absent = (cfg.phones as f64 * churn.initial_absent_fraction).floor() as u32;
        for s in (cfg.phones - absent)..cfg.phones {
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
        for r in 0..cfg.regions {
            for s in 0..cfg.phones {
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
            && cfg.regions > 1
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
    cfg: &ScenarioConfig,
    presence: &mut [Vec<Presence>],
    events: &mut Vec<ChurnEvent>,
    heap: &mut BinaryHeap<Reverse<(u64, usize, u32)>>,
    rng: &mut SimRng,
    from: usize,
    at_ns: u64,
    horizon: f64,
    leave_rate: f64,
) -> bool {
    let dest = (from + 1) % cfg.regions;
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

/// Schedule the spec's churn, WiFi loss steps and weather against a
/// deployment whose start events are already queued: the tail of
/// [`Deployment::start`]. Returns the churn schedule and the number of
/// weather injections.
pub(crate) fn schedule_injections(dep: &mut Deployment) -> (Vec<ChurnEvent>, u64) {
    let schedule = churn_schedule(&dep.cfg);
    for ev in &schedule {
        match ev.kind {
            ChurnKind::Fail => inject_failure(dep, ev.region, ev.slot, ev.at),
            ChurnKind::Depart => inject_departure(dep, ev.region, ev.slot, ev.at),
            ChurnKind::Rejoin => inject_reboot(dep, ev.region, ev.slot, ev.at),
        }
    }
    for (r, steps) in dep.cfg.loss_steps.iter().enumerate().take(dep.cfg.regions) {
        let wifi = dep.regions[r].wifi;
        for &(at_s, loss) in steps {
            dep.sim.schedule_at(
                SimTime::from_nanos((at_s * 1e9) as u64),
                wifi,
                WifiSetLoss { loss },
            );
        }
    }
    let injections = dep.cfg.weather.as_ref().map_or_else(Vec::new, |program| {
        weather::compile(program, dep.cfg.topo())
    });
    schedule_weather(dep, &injections);
    (schedule, injections.len() as u64)
}

/// Build and start the deployment: `msbench`'s entry point, which the
/// next change to the benchmark deletes.
pub fn build_fleet(cfg: &FleetConfig) -> (Deployment, Vec<ChurnEvent>) {
    let mut dep = Deployment::build(cfg.clone());
    let (schedule, _) = dep.start();
    (dep, schedule)
}

/// [`run`] without faults: `msbench`'s entry point, which the next
/// change to the benchmark deletes.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    run(cfg, |_| {})
}

/// Schedule compiled weather injections against the deployment's
/// simnet actors.
fn schedule_weather(dep: &mut Deployment, injections: &[WeatherInjection]) {
    for inj in injections {
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
}

/// A stadium-shaped fleet scaled to `regions × phones`, trimmed to a
/// 60 s window so one run stays subsecond-ish. `msbench`'s layer
/// drivers build their deployments from it.
pub fn bench_profile(regions: usize, phones: u32, seed: u64) -> ScenarioConfig {
    let mut cfg = base_profile(&format!("bench-{regions}x{phones}"), seed, regions, phones);
    cfg.churn = ChurnProfile {
        fail_per_phone_hour: 2.0,
        depart_per_phone_hour: 4.0,
        move_fraction: 0.3,
        mean_rejoin_s: 30.0,
        quiet_start_s: 15.0,
        ..ChurnProfile::default()
    };
    cfg.ckpt_period = SimDuration::from_secs(30);
    cfg.ckpt_offset = SimDuration::from_secs(10);
    cfg.duration = SimDuration::from_secs(60);
    cfg.warmup = SimDuration::from_secs(10);
    cfg
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

/// `regions × phones` of BCP under MobiStreams on the shrunk states,
/// at one thread: the shape every library profile starts from.
fn base_profile(name: &str, seed: u64, regions: usize, phones: u32) -> ScenarioConfig {
    ScenarioConfig {
        name: name.to_string(),
        regions,
        phones,
        cal: fleet_cal(),
        ckpt_period: SimDuration::from_secs(120),
        ckpt_offset: SimDuration::from_secs(45),
        duration: SimDuration::from_secs(420),
        warmup: SimDuration::from_secs(60),
        seed,
        threads: 1,
        ..ScenarioConfig::default()
    }
}

/// Look up a named profile. `None` for unknown names.
pub fn profile(name: &str, seed: u64) -> Option<ScenarioConfig> {
    match name {
        "stadium" => {
            // 8 regions × 128 phones = 1024: a packed venue. Huge idle
            // standby capacity, light churn.
            let mut cfg = base_profile(name, seed, 8, 128);
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
            let mut cfg = base_profile(name, seed, 8, 16);
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
            let mut cfg = base_profile(name, seed, 4, 64);
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
            let mut cfg = base_profile(name, seed, 4, 8);
            cfg.loss_steps = (0..4)
                .map(|r| {
                    let t0 = 90.0 + 60.0 * r as f64;
                    vec![(t0, 0.25), (t0 + 120.0, 0.10)]
                })
                .collect();
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
            let mut cfg = base_profile(name, seed, 32, 320);
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

    fn mini(seed: u64) -> ScenarioConfig {
        let mut cfg = base_profile("mini", seed, 3, 6);
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
        let r1 = run(&mini(21), |_| {});
        let r2 = run(&mini(21), |_| {});
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
            cfg.regions = cfg.regions.min(3);
            cfg.phones = cfg.phones.min(6);
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
            let r1 = run(&seq, |_| {});
            let rn = run(&par, |_| {});
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
        assert!(stadium.regions >= 8, "stadium must span 8+ regions");
        assert!(profile("nope", 1).is_none());
    }

    /// D002's allowlist lets `run` read the wall clock, but the
    /// reading must never feed the determinism digest: rewriting every
    /// wall-clock-derived (and sanitizer, pool and Fig 10 byte) field
    /// leaves it unchanged.
    #[test]
    fn wall_clock_and_sanitizer_fields_never_feed_the_digest() {
        let mut r = run(&mini(13), |_| {});
        let before = r.digest;
        r.wall_secs = 1e9;
        r.events_per_sec = -7.5;
        r.sanitizer_windows = u64::MAX;
        r.sanitizer_ledger = u64::MAX;
        r.sanitizer_violations = u64::MAX;
        r.pool_recycled = u64::MAX;
        r.pool_aliasing = u64::MAX;
        r.preserved_bytes = u64::MAX;
        r.ckpt_repl_bytes = u64::MAX;
        r.preservation_bytes = u64::MAX;
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
        let plain = run(&mini(17), |_| {});
        let mut cfg = mini(17);
        cfg.sanitize = true;
        let sanitized = run(&cfg, |_| {});
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
        let r1 = run(&seq, |_| {});
        let rn = run(&par, |_| {});
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
    fn mini_weather(seed: u64) -> ScenarioConfig {
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
        let r = run(&cfg, |_| {});
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
        let r1 = run(&mini_weather(31), |_| {});
        let mut par = mini_weather(31);
        par.threads = 4;
        par.sanitize = true;
        let rn = run(&par, |_| {});
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
                let r1 = run(&cfg, |_| {});
                let mut par = cfg.clone();
                par.threads = 4;
                let rn = run(&par, |_| {});
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
        let r = run(&cfg, |_| {});
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
