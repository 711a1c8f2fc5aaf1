//! Sharded-control-plane acceptance tests:
//!
//! * churn storm — membership reconciliation traffic scales with the
//!   *delta* (slots that changed), not the *population* (phones that
//!   must hear about it): the same single departure/rejoin costs the
//!   same messages and bytes in an 8-phone region and a 32-phone
//!   region, and far less than one full-snapshot fan-out.
//! * group blackout — severing one region-group controller freezes
//!   only its own regions; every other group keeps committing rounds
//!   through the window, and the dark group resumes after the heal.

use baselines::BaselineCoordinator;
use dsps::node::{Pong, Recovered, RegisterNode, ReportDead};
use experiments::faults::{inject_departure, inject_reboot};
use experiments::weather::{WeatherProgram, WeatherSystem};
use experiments::{harvest, AppKind, Deployment, ScenarioConfig, Scheme};
use mobistreams::msgs::NodeCheckpointed;
use simkernel::{SimDuration, SimTime};
use simnet::payload;
use simnet::stats::TrafficClass;
use simnet::NetRx;

/// Shrunk operator states (same trick as the smoke tests) so a
/// checkpoint round fits the shortened period.
fn small_cal() -> apps::Calibration {
    apps::Calibration {
        state_a: 16 * 1024,
        state_l: 16 * 1024,
        state_b: 64 * 1024,
        state_j: 48 * 1024,
        state_p: 16 * 1024,
        state_h: 16 * 1024,
        ..apps::Calibration::default()
    }
}

/// One ms region with `phones` phones; identical graph and hosting
/// pattern regardless of the population, so idle capacity is the only
/// thing that grows.
fn one_region(phones: u32) -> ScenarioConfig {
    ScenarioConfig {
        app: AppKind::Bcp,
        scheme: Scheme::Ms,
        seed: 77,
        regions: 1,
        phones,
        cal: small_cal(),
        ckpt_offset: SimDuration::from_secs(20),
        ckpt_period: SimDuration::from_secs(60),
        ..ScenarioConfig::default()
    }
}

/// Run the storm scenario: boot, then an idle phone departs at t=35 s
/// and rejoins at t=42 s. Returns the membership traffic (messages,
/// bytes) attributable to the two events — counters sampled after the
/// boot snapshot fan-out settles and again after the rejoin flush.
/// The window [32 s, 58 s) dodges the periodic reconcile sweep (30 s
/// cadence), whose anti-entropy deltas to lagging idle phones are the
/// one intentionally population-sized path.
fn storm_membership_delta(phones: u32) -> (u64, u64) {
    let mut dep = Deployment::build(one_region(phones));
    dep.start();
    dep.run_until(SimTime::from_secs(32));
    let (m0, b0) = dep.ms_membership_traffic();
    let idle = phones - 1;
    inject_departure(&mut dep, 0, idle, SimTime::from_secs(35));
    inject_reboot(&mut dep, 0, idle, SimTime::from_secs(42));
    dep.run_until(SimTime::from_secs(58));
    let (m1, b1) = dep.ms_membership_traffic();
    assert!(!dep.ms_is_stopped(0), "{phones}-phone region stopped");
    (m1 - m0, b1 - b0)
}

#[test]
fn membership_traffic_scales_with_delta_not_population() {
    let small = storm_membership_delta(8);
    let large = storm_membership_delta(32);

    // The SAME events cost the SAME reconciliation traffic at 4x the
    // population: deltas go to the stakeholders of the change (hosting
    // phones + the proxy candidate + the unsynced rejoiner), a set
    // fixed by the query graph, never to every phone in the region.
    assert_eq!(
        small, large,
        "membership traffic grew with the population: {small:?} at 8 phones vs {large:?} at 32"
    );

    // A departure plus a rejoin is a handful of per-change deltas and
    // one snapshot for the rejoined (unsynced) phone — nothing near a
    // full-snapshot fan-out to 32 phones.
    let (msgs, bytes) = large;
    assert!(msgs > 0, "the storm produced no membership updates at all");
    assert!(msgs <= 20, "O(delta) bound blown: {msgs} membership msgs");
    assert!(
        bytes < 32 * 256 / 4,
        "O(delta) bound blown: {bytes} membership bytes vs a 32-snapshot fan-out of {}",
        32 * 256
    );
}

/// Per-tick coalescing: every membership change in a tick folds into
/// at most one update per target phone, so a single departure costs at
/// most one message per stakeholder.
#[test]
fn same_tick_changes_coalesce_into_one_update_per_target() {
    let mut dep = Deployment::build(one_region(8));
    dep.start();
    dep.run_until(SimTime::from_secs(40));
    let (m0, _) = dep.ms_membership_traffic();
    inject_departure(&mut dep, 0, 7, SimTime::from_secs(45));
    dep.run_until(SimTime::from_secs(50));
    let (m1, _) = dep.ms_membership_traffic();
    // 8 phones, one of them departed: even a full-region flush could
    // not exceed 7 live targets, and the stakeholder scope keeps it at
    // the hosting set. More than 8 messages would mean some phone was
    // updated twice for one tick's worth of change.
    assert!(
        m1 - m0 <= 8,
        "departure flushed {} membership msgs into an 8-phone region",
        m1 - m0
    );
}

/// A `(region, slot)` outside the controller's group is a counted
/// fault and nothing else: against a twin run without the two bad
/// messages, the controller handles exactly those two events more —
/// so it sent and scheduled nothing — and every piece of region state
/// it owns reads the same.
#[test]
fn out_of_group_reports_are_counted_and_change_nothing() {
    let run = |inject: bool| {
        let mut dep = Deployment::build(one_region(8));
        dep.start();
        if inject {
            let ctl = dep.region_controllers[0];
            let src = dep.regions[0].nodes[1];
            let bad = [
                payload(ReportDead {
                    region: 9,
                    slot: 0,
                    observed_by: 1,
                }),
                payload(NodeCheckpointed {
                    version: 1,
                    region: 0,
                    slot: 99,
                }),
            ];
            for payload in bad {
                let rx = NetRx {
                    src,
                    bytes: 64,
                    class: TrafficClass::Control,
                    payload,
                };
                dep.sim.schedule_at(SimTime::from_secs(30), ctl, rx);
            }
        }
        dep.run_until(SimTime::from_secs(90));
        let state = (
            dep.ms_commits(),
            dep.ms_recoveries().len(),
            dep.ms_stops(),
            dep.ms_departures_handled(),
            dep.ms_membership_traffic(),
        );
        (
            dep.ms_ctl_of(0).malformed_msgs,
            dep.sim.events_processed(),
            state,
        )
    };
    let (clean_bad, clean_events, clean_state) = run(false);
    let (hit_bad, hit_events, hit_state) = run(true);
    assert_eq!(clean_bad, 0);
    assert_eq!(hit_bad, 2);
    assert_eq!(hit_events, clean_events + 2, "a rejected message sent one");
    assert!(!clean_state.0.is_empty(), "no round committed in 90 s");
    assert_eq!(hit_state, clean_state);
}

/// The baseline coordinator makes the same promise: every message kind
/// it takes from the network — pong, failure report, recovery ack,
/// registration — with an out-of-range region or slot is counted and
/// dropped before it indexes anything. Against a twin run without them
/// the coordinator handles exactly those four events more, and what it
/// owns and what the deployment did read the same.
#[test]
fn baseline_coordinator_counts_malformed_messages_and_changes_nothing() {
    let run = |inject: bool| {
        let mut dep = Deployment::build(ScenarioConfig {
            scheme: Scheme::Dist(1),
            ..one_region(8)
        });
        dep.start();
        let co = dep.coordinator.expect("baseline deployment");
        if inject {
            let src = dep.regions[0].nodes[1];
            let bad = [
                payload(ReportDead {
                    region: 9,
                    slot: 0,
                    observed_by: 1,
                }),
                payload(Pong {
                    nonce: 1,
                    region: 0,
                    slot: 8,
                }),
                payload(Recovered {
                    region: usize::MAX,
                    slot: 0,
                }),
                payload(RegisterNode {
                    region: 0,
                    slot: 99,
                }),
            ];
            for payload in bad {
                let rx = NetRx {
                    src,
                    bytes: 64,
                    class: TrafficClass::Control,
                    payload,
                };
                dep.sim.schedule_at(SimTime::from_secs(30), co, rx);
            }
        }
        dep.run_until(SimTime::from_secs(90));
        let h = harvest(&dep, SimTime::ZERO, SimTime::from_secs(90));
        let c = dep.sim.actor::<BaselineCoordinator>(co);
        let state = (
            c.recoveries.clone(),
            c.stops,
            c.is_stopped(0),
            h.per_region[0].outputs,
            h.wifi_bytes.total(),
            h.cell_bytes.total(),
        );
        (c.malformed_msgs, dep.sim.events_processed(), state)
    };
    let (clean_bad, clean_events, clean_state) = run(false);
    let (hit_bad, hit_events, hit_state) = run(true);
    assert_eq!(clean_bad, 0);
    assert_eq!(hit_bad, 4);
    assert_eq!(hit_events, clean_events + 4, "a rejected message sent one");
    assert!(clean_state.3 > 0, "no sink output in 90 s");
    assert!(clean_state.4 > 0, "no checkpoint copy shipped in 90 s");
    assert_eq!(hit_state, clean_state);
}

/// The blackout-isolation contract of the sharded control plane.
fn blackout_fleet() -> ScenarioConfig {
    ScenarioConfig {
        name: "blackout-isolation".into(),
        app: AppKind::Bcp,
        scheme: Scheme::Ms,
        regions: 3,
        phones: 5,
        ctl_group_size: 1, // three groups: one controller per region
        // Group 1's controller goes dark for 60 s; starts sit in the
        // ping-safe band (102 ≡ 162 ≡ 12 mod 30).
        weather: Some(WeatherProgram {
            name: "one-group-blackout".into(),
            systems: vec![WeatherSystem::ControllerBlackout {
                group: 1,
                at_s: 102.0,
                heal_s: 162.0,
            }],
            recovery_slo_s: -1.0,
        }),
        cal: small_cal(),
        ckpt_period: SimDuration::from_secs(30),
        ckpt_offset: SimDuration::from_secs(20),
        duration: SimDuration::from_secs(260),
        warmup: SimDuration::from_secs(40),
        seed: 19,
        ..ScenarioConfig::default()
    }
}

#[test]
fn one_group_blackout_leaves_other_groups_committing() {
    let cfg = blackout_fleet();
    let mut dep = Deployment::build(cfg.clone());
    dep.start();
    dep.run_until(SimTime::ZERO + cfg.duration);

    let commits = dep.ms_commits();
    let window = |r: usize, lo: u64, hi: u64| {
        commits
            .iter()
            .filter(|&&(reg, _, at)| {
                reg == r && at > SimTime::from_secs(lo) && at < SimTime::from_secs(hi)
            })
            .count()
    };

    // Healthy groups commit straight through the blackout window.
    assert!(
        window(0, 106, 162) >= 1,
        "region 0 froze during another group's blackout: {commits:?}"
    );
    assert!(
        window(2, 106, 162) >= 1,
        "region 2 froze during another group's blackout: {commits:?}"
    );
    // The dark group commits nothing inside the window...
    assert_eq!(
        window(1, 106, 162),
        0,
        "region 1 committed through its own controller blackout: {commits:?}"
    );
    // ...but resumes after the heal.
    assert!(
        window(1, 162, 260) >= 1,
        "region 1 never resumed after the heal: {commits:?}"
    );
    assert!(!dep.ms_is_stopped(1), "region 1 wrongly stopped");

    // The group controller observed its own severed episode, and no
    // round was ever committed twice across the resync.
    assert!(
        dep.ms_severed_episodes().iter().any(|&(r, _, _)| r == 1),
        "no severed episode recorded for the dark group: {:?}",
        dep.ms_severed_episodes()
    );
    let mut seen = std::collections::BTreeSet::new();
    for &(r, v, _) in &commits {
        assert!(seen.insert((r, v)), "round (r{r}, v{v}) committed twice");
    }
}
