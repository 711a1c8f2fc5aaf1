//! Sharded-control-plane acceptance tests:
//!
//! * churn storm — membership reconciliation traffic scales with the
//!   *delta* (slots that changed), not the *population* (phones that
//!   must hear about it): the same single departure/rejoin costs the
//!   same messages and bytes in an 8-phone region and a 32-phone
//!   region, and far less than one full-snapshot fan-out.
//! * controller blackout — severing one region controller freezes only
//!   its own region; every other region keeps committing rounds
//!   through the window, and the dark region resumes after the heal.
//! * one controller per region — in every library profile region `r`
//!   has its own controller, on region `r`'s shard.
//! * side effects and wiring — a region controller's WiFi link flips
//!   and sensor re-pairings land half a cellular round trip after it
//!   acts, and the inter-region links the deployment builder installs
//!   are not sent again at startup.

use baselines::BaselineCoordinator;
use dsps::node::{NodeActor, Pong, Recovered, RegisterNode, ReportDead};
use dsps::placement::GATHER_WINDOW;
use dsps::workload::WorkloadDriver;
use experiments::faults::{inject_departure, inject_failure, inject_reboot};
use experiments::fleet::{profile, PROFILE_NAMES};
use experiments::weather::{WeatherProgram, WeatherSystem};
use experiments::{harvest, AppKind, Deployment, ScenarioConfig, Scheme};
use mobistreams::msgs::NodeCheckpointed;
use simkernel::{SimDuration, SimTime};
use simnet::cellular::CellConfig;
use simnet::stats::TrafficClass;
use simnet::wifi::WifiMedium;
use simnet::{payload, LinkState, NetRx};

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

/// A message naming another region, or a slot outside the region's
/// table, is a counted fault and nothing else: against a twin run
/// without the two bad messages, the controller handles exactly those
/// two events more — so it sent and scheduled nothing — and every
/// piece of region state it owns reads the same.
#[test]
fn reports_naming_another_region_are_counted_and_change_nothing() {
    let run = |inject: bool| {
        // Two regions, so the misaddressed report names a real region
        // that another controller owns.
        let mut dep = Deployment::build(ScenarioConfig {
            regions: 2,
            ..one_region(8)
        });
        dep.start();
        if inject {
            let ctl = dep.region_controllers[0];
            let src = dep.regions[0].nodes[1];
            let bad = [
                payload(ReportDead {
                    region: 1,
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
        // Region 1's controller goes dark for 60 s; starts sit in the
        // ping-safe band (102 ≡ 162 ≡ 12 mod 30).
        weather: Some(WeatherProgram {
            name: "one-controller-blackout".into(),
            systems: vec![WeatherSystem::ControllerBlackout {
                region: 1,
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
fn one_controller_blackout_leaves_other_regions_committing() {
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

    // Healthy regions commit straight through the blackout window.
    assert!(
        window(0, 106, 162) >= 1,
        "region 0 froze during region 1's controller blackout: {commits:?}"
    );
    assert!(
        window(2, 106, 162) >= 1,
        "region 2 froze during region 1's controller blackout: {commits:?}"
    );
    // The dark region commits nothing inside the window...
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

    // The region's controller observed its own severed episode, and no
    // round was ever committed twice across the resync.
    assert!(
        dep.ms_severed_episodes().iter().any(|&(r, _, _)| r == 1),
        "no severed episode recorded for the dark region: {:?}",
        dep.ms_severed_episodes()
    );
    let mut seen = std::collections::BTreeSet::new();
    for &(r, v, _) in &commits {
        assert!(seen.insert((r, v)), "round (r{r}, v{v}) committed twice");
    }
}

/// Every library profile, `metro` included, runs one controller per
/// region: region `r`'s controller owns exactly region `r` and sits on
/// region `r`'s shard (`r + 1`), next to its phones and WiFi medium.
#[test]
fn every_region_has_its_own_controller_on_its_shard() {
    for name in PROFILE_NAMES {
        let dep = Deployment::build(profile(name, 1).expect("library profile"));
        let map = dep.shard_map();
        assert_eq!(dep.region_controllers.len(), dep.cfg.regions, "{name}");
        for (r, &ctl) in dep.region_controllers.iter().enumerate() {
            let shard = (r + 1) as u16;
            assert_eq!(map[ctl.index()], shard, "{name}: controller {r}'s shard");
            assert_eq!(
                map[dep.regions[r].wifi.index()],
                shard,
                "{name}: region {r}"
            );
            assert_eq!(dep.ms_ctl_of(r).region(), r, "{name}: ms_ctl_of({r})");
        }
    }
}

/// A region controller sends its own side effects after the cellular
/// downlink delay (rtt/2) of a command pushed without its bytes. A
/// departed phone whose `RegisterNode` the controller handles at `t`
/// is `Active` on the WiFi medium from `t + rtt/2`, not a nanosecond
/// earlier; after a failure report at `t` the recovery executes when
/// the gather window closes, and the sensor feeds the source's new
/// phone from `t + GATHER_WINDOW + rtt/2`, not a nanosecond earlier.
#[test]
fn side_effects_land_half_a_round_trip_after_the_controller_acts() {
    let half_rtt = CellConfig::default().rtt / 2;
    let ns = SimDuration::from_nanos(1);
    let mut dep = Deployment::build(one_region(8));
    dep.start();
    let ctl = dep.region_controllers[0];
    let handles = &dep.regions[0];
    let (wifi, driver) = (handles.wifi, handles.driver);
    let idle = handles.placement.idle_active_slots()[0];
    let idle_phone = handles.placement.actor(idle);
    let source = handles.graph.sources()[0];
    let source_slot = handles.placement.slot_of(source);
    let source_phone = handles.placement.actor(source_slot);
    let reporter = handles.nodes[source_slot as usize + 1];
    let deliver = |dep: &mut Deployment, at: SimTime, src, payload| {
        let class = TrafficClass::Control;
        let rx = NetRx {
            src,
            bytes: 64,
            class,
            payload,
        };
        dep.sim.schedule_at(at, ctl, rx);
    };

    inject_departure(&mut dep, 0, idle, SimTime::from_secs(35));
    let rejoin = SimTime::from_secs(50);
    let register = payload(RegisterNode {
        region: 0,
        slot: idle,
    });
    deliver(&mut dep, rejoin, idle_phone, register);
    let link = |dep: &Deployment| dep.sim.actor::<WifiMedium>(wifi).link_state(idle_phone);
    dep.run_until(rejoin + half_rtt - ns);
    assert_eq!(link(&dep), LinkState::Gone);
    dep.run_until(rejoin + half_rtt);
    assert_eq!(link(&dep), LinkState::Active);

    let failed = SimTime::from_secs(100);
    inject_failure(&mut dep, 0, source_slot, failed);
    let report = payload(ReportDead {
        region: 0,
        slot: source_slot,
        observed_by: source_slot + 1,
    });
    deliver(&mut dep, failed, reporter, report);
    let redirected = failed + GATHER_WINDOW + half_rtt;
    let target = |dep: &Deployment| dep.sim.actor::<WorkloadDriver>(driver).target_of(source);
    dep.run_until(redirected - ns);
    assert_eq!(target(&dep), Some(source_phone));
    dep.run_until(redirected);
    let moved = target(&dep).expect("the source is fed");
    assert_ne!(moved, source_phone, "the sensor follows the source");
    assert!(dep.regions[0].nodes.contains(&moved));
    dep.run_until(SimTime::from_secs(180));
    let recoveries = dep.ms_recoveries();
    assert_eq!(recoveries.len(), 1);
    assert_eq!(recoveries[0].started, failed, "the report started it");
}

/// The deployment builder installs the inter-region links once: a
/// fresh deployment sends no `UpdateInterRegion` before a region first
/// reports a placement or stop. The sink phones' links are wiped after
/// the build; in a first minute with no failure, departure or stop,
/// nothing may write them back.
#[test]
fn inter_region_links_are_installed_once_at_build() {
    let mut dep = Deployment::build(ScenarioConfig {
        regions: 3,
        ..one_region(8)
    });
    let mut sinks = Vec::new();
    for r in 0..2 {
        for &n in &dep.regions[r].nodes {
            let na = dep.sim.actor_mut::<NodeActor>(n);
            if !na.inner.inter_region.is_empty() {
                na.inner.inter_region.clear();
                sinks.push(n);
            }
        }
    }
    assert_eq!(sinks.len(), 2, "one sink phone per upstream region");
    dep.start();
    dep.run_until(SimTime::from_secs(60));
    assert!(dep.ms_recoveries().is_empty());
    assert_eq!((dep.ms_stops(), dep.ms_departures_handled()), (0, 0));
    for n in sinks {
        let na = dep.sim.actor::<NodeActor>(n);
        assert!(
            na.inner.inter_region.is_empty(),
            "{n:?} got its links again"
        );
    }
}
