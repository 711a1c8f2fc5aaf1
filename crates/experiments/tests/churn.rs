//! Churn edge cases around the departure protocol (§III-E) and
//! recovery (§III-D): timings chosen to land inside protocol windows
//! that fleet-scale churn hits constantly —
//!
//! * a departure while a checkpoint broadcast phase is still in
//!   flight,
//! * two simultaneous departures in one region,
//! * a phone rejoining while the region's recovery is still running.
//!
//! Each test asserts the deployment keeps making progress (no panic,
//! sink output continues, protocol counters move).

use experiments::faults::{inject_departure, inject_failure, inject_reboot};
use experiments::{harvest, AppKind, Deployment, Platform, ScenarioConfig, Scheme};
use simkernel::{SimDuration, SimTime};
use std::sync::Arc;

/// A small-but-real MS deployment: 2 regions × 5 phones, shortened
/// checkpoint period, shrunk states (same trick as the smoke test so
/// a checkpoint round fits the channel budget).
fn cfg(seed: u64) -> ScenarioConfig {
    let cal = apps::Calibration {
        state_a: 16 * 1024,
        state_l: 16 * 1024,
        state_b: 64 * 1024,
        state_j: 48 * 1024,
        state_p: 16 * 1024,
        state_h: 16 * 1024,
        ..apps::Calibration::default()
    };
    ScenarioConfig {
        app: AppKind::Bcp,
        scheme: Scheme::Ms,
        seed,
        regions: 2,
        phones: 5,
        cal,
        ckpt_offset: SimDuration::from_secs(20),
        ckpt_period: SimDuration::from_secs(60),
        ..ScenarioConfig::default()
    }
}

#[test]
fn departure_during_inflight_broadcast_phase() {
    let mut dep = Deployment::build(cfg(11));
    dep.start();
    // The first checkpoint token fires at t = 20 s; state snapshots
    // then broadcast over several seconds of airtime. Injecting the
    // departure at t = 21 s lands inside an in-flight broadcast phase:
    // the sender must time the departed receiver out (bitmap never
    // arrives over the broken WiFi link), drop it from the job, and
    // still complete the checkpoint with the survivors.
    inject_departure(&mut dep, 0, 1, SimTime::from_secs(21));
    dep.run_until(SimTime::from_secs(180));

    assert!(
        dep.ms_last_complete(0) >= 1,
        "checkpoint never committed after mid-broadcast departure (got v{})",
        dep.ms_last_complete(0)
    );
    assert_eq!(
        dep.ms_departures_handled(),
        1,
        "departure transfer completed"
    );
    let h = harvest(&dep, SimTime::from_secs(40), SimTime::from_secs(180));
    assert!(
        h.per_region[0].outputs > 0,
        "region 0 stalled after departure"
    );
    assert!(h.per_region[1].outputs > 0, "cascade broke after departure");
    assert_eq!(h.stops, 0, "region must not stop over one departure");
}

#[test]
fn two_simultaneous_departures_in_one_region() {
    // 8 phones → two idle slots, so BOTH departures get replacements:
    // two state transfers run concurrently through the controller's
    // transfer map, and their urgent-edge sets overlap (edges 8/9
    // cross both phones' hosting).
    let mut dep = Deployment::build(ScenarioConfig {
        phones: 8,
        ..cfg(13)
    });
    dep.start();
    inject_departure(&mut dep, 0, 1, SimTime::from_secs(40));
    inject_departure(&mut dep, 0, 2, SimTime::from_secs(40));
    dep.run_until(SimTime::from_secs(200));

    assert_eq!(
        dep.ms_departures_handled(),
        2,
        "both concurrent transfers must finish"
    );
    let h = harvest(&dep, SimTime::from_secs(60), SimTime::from_secs(200));
    assert!(
        h.per_region[0].outputs > 0,
        "region 0 produced nothing after the double departure"
    );
    assert_eq!(h.stops, 0, "two departures must not stop an 8-phone region");
    // Later checkpoints still commit with the replacements in place.
    assert!(
        dep.ms_last_complete(0) >= 2,
        "checkpointing stalled after the double departure (v{})",
        dep.ms_last_complete(0)
    );
}

#[test]
fn degraded_departure_without_replacement_keeps_urgent_bridging() {
    // 5 phones → a single idle slot. Two simultaneous departures: the
    // first transfer claims the spare; the second phone computes on
    // remotely over cellular (degraded urgent mode). Regression: the
    // first transfer's ack used to release the urgent edges the
    // degraded departure still needed, cutting the region in half.
    let mut dep = Deployment::build(cfg(13));
    dep.start();
    inject_departure(&mut dep, 0, 1, SimTime::from_secs(40));
    inject_departure(&mut dep, 0, 2, SimTime::from_secs(40));
    dep.run_until(SimTime::from_secs(200));

    assert_eq!(dep.ms_departures_handled(), 1, "one transfer, one degraded");
    assert_eq!(dep.ms_stops(), 0, "region must limp along, not stop");
    // The degraded phone's urgent edges survive the other transfer's
    // release: its in-edges still route over cellular, so the crop
    // stream keeps reaching it (well beyond the single inter-region
    // hop's worth of bytes).
    let h = harvest(&dep, SimTime::from_secs(40), SimTime::from_secs(200));
    assert!(
        h.cell_bytes.data > 100_000,
        "urgent bridging moved only {} data bytes over cellular",
        h.cell_bytes.data
    );
}

#[test]
fn phone_rejoins_mid_recovery() {
    let mut dep = Deployment::build(cfg(17));
    dep.start();
    // Kill a hosting phone at t = 50 s. Failure detection (missed
    // pings / dead reports), burst gathering and the install round all
    // take seconds — rebooting the same phone at t = 56 s lands inside
    // the recovery window, exercising the deferred-reinstall path
    // (RegisterNode while `recovering`).
    inject_failure(&mut dep, 0, 2, SimTime::from_secs(50));
    inject_reboot(&mut dep, 0, 2, SimTime::from_secs(56));
    dep.run_until(SimTime::from_secs(240));

    assert!(!dep.ms_is_stopped(0), "region wrongly stopped");
    let h = harvest(&dep, SimTime::from_secs(80), SimTime::from_secs(240));
    assert!(
        h.per_region[0].outputs > 0,
        "region 0 never resumed after rejoin-mid-recovery"
    );
    assert!(
        h.recoveries >= 1,
        "the failure must have driven at least one recovery"
    );
}

/// Every phone of a region points at the one slot table its placement
/// holds: after the build, and after the installs of a recovery, a
/// departure's replacement and a rejoin's membership snapshot; after a
/// dist-1 recovery, whose install a state holder ships phone to phone;
/// and on the server platform. The table is bound once at build and no
/// message carries it, so a phone that copied it fails this.
#[test]
fn a_region_shares_one_slot_table() {
    let assert_shared = |dep: &Deployment, when: &str| {
        for (r, region) in dep.regions.iter().enumerate() {
            for (slot, &nid) in region.nodes.iter().enumerate() {
                let table = &dep
                    .sim
                    .actor::<dsps::node::NodeActor>(nid)
                    .inner
                    .slot_actors;
                assert!(
                    Arc::ptr_eq(table, region.placement.slot_actors()),
                    "{when}: phone {slot} of region {r} holds its own slot table"
                );
            }
        }
    };
    let mut dep = Deployment::build(cfg(17));
    assert_shared(&dep, "after build");
    dep.start();
    inject_failure(&mut dep, 0, 2, SimTime::from_secs(50));
    inject_reboot(&mut dep, 0, 2, SimTime::from_secs(56));
    inject_departure(&mut dep, 1, 1, SimTime::from_secs(21));
    dep.run_until(SimTime::from_secs(240));
    let h = harvest(&dep, SimTime::from_secs(40), SimTime::from_secs(240));
    assert!(h.recoveries >= 1, "the failure drove no recovery");
    assert_eq!(
        dep.ms_departures_handled(),
        1,
        "the departure was not handled"
    );
    assert_shared(&dep, "after recovery, departure and rejoin");

    let mut dist = Deployment::build(ScenarioConfig {
        scheme: Scheme::Dist(1),
        seed: 10,
        regions: 2,
        ckpt_offset: SimDuration::from_secs(40),
        ckpt_period: SimDuration::from_secs(120),
        ..ScenarioConfig::default()
    });
    dist.start();
    inject_failure(&mut dist, 0, 2, SimTime::from_secs(170));
    dist.run_until(SimTime::from_secs(260));
    let co = dist
        .sim
        .actor::<baselines::BaselineCoordinator>(dist.coordinator.unwrap());
    assert_eq!(co.recoveries.len(), 1, "no state ship recovered slot 2");
    assert_shared(&dist, "after a dist-1 state ship");

    let mut server = Deployment::build(ScenarioConfig {
        scheme: Scheme::Base,
        platform: Platform::Server {
            uplink_bps: 320_000.0,
        },
        regions: 2,
        ..ScenarioConfig::default()
    });
    assert_shared(&server, "server platform after build");
    server.start();
    server.run_until(SimTime::from_secs(60));
    assert_shared(&server, "server platform after a minute");
}

/// Determinism holds under all three edge cases at once: the same
/// seed with the same injections yields byte-identical metrics.
#[test]
fn churn_edge_cases_stay_deterministic() {
    let run = || {
        let mut dep = Deployment::build(cfg(23));
        dep.start();
        inject_departure(&mut dep, 0, 1, SimTime::from_secs(21));
        inject_failure(&mut dep, 1, 2, SimTime::from_secs(50));
        inject_reboot(&mut dep, 1, 2, SimTime::from_secs(56));
        dep.run_until(SimTime::from_secs(150));
        let h = harvest(&dep, SimTime::from_secs(30), SimTime::from_secs(150));
        (
            dep.sim.events_processed(),
            h.per_region[0].outputs,
            h.per_region[1].outputs,
            h.wifi_bytes.total(),
            h.cell_bytes.total(),
        )
    };
    assert_eq!(run(), run());
}

/// Pull the MsScheme out of a node for protocol introspection.
fn ms_scheme(dep: &Deployment, region: usize, slot: u32) -> &mobistreams::MsScheme {
    let nid = dep.regions[region].nodes[slot as usize];
    let na = dep.sim.actor::<dsps::node::NodeActor>(nid);
    na.scheme
        .as_any()
        .downcast_ref::<mobistreams::MsScheme>()
        .expect("ms scheme")
}

/// Tentpole regression: a region whose degraded departure (no
/// replacement available) keeps computing over cellular must KEEP
/// COMMITTING checkpoints — the degraded phone ships each snapshot to
/// an in-region proxy over cellular, the proxy relays it onto WiFi and
/// reports on its behalf, and `ckpt_expected` stays satisfiable.
/// Before this fix the region's commit version froze until a phone
/// happened to rejoin.
#[test]
fn degraded_region_keeps_committing_checkpoints_over_cellular() {
    let mut dep = Deployment::build(cfg(13));
    dep.start();
    // Slot 4 is the region's only idle slot: its departure removes the
    // spare, so slot 3's departure at t = 50 s finds no replacement and
    // goes degraded with ~131 KB of operator state (B, J, P, K).
    inject_departure(&mut dep, 0, 4, SimTime::from_secs(40));
    inject_departure(&mut dep, 0, 3, SimTime::from_secs(50));
    dep.run_until(SimTime::from_secs(340));

    assert!(!dep.ms_is_stopped(0), "region wrongly stopped");
    // Ticks land at 20, 80, ..., 320 s; every round from v2 on runs
    // with the degraded slot in `ckpt_expected`. The commit version
    // must STRICTLY ADVANCE while degraded, not freeze at v1.
    assert!(
        dep.ms_last_complete(0) >= 5,
        "degraded region stopped committing (stuck at v{})",
        dep.ms_last_complete(0)
    );
    let degraded_commits = dep
        .ms_commits()
        .iter()
        .filter(|&&(r, v, _)| r == 0 && v >= 2)
        .count();
    assert!(
        degraded_commits >= 4,
        "only {degraded_commits} commits while degraded"
    );
    // The snapshots really travelled the cellular path...
    let ms = ms_scheme(&dep, 0, 3);
    assert!(
        ms.degraded_proxy.is_some(),
        "degraded phone never told about its proxy"
    );
    assert!(
        ms.stats.cell_snapshots >= 4,
        "only {} snapshots shipped over cellular",
        ms.stats.cell_snapshots
    );
    // ...at their full byte size (≥ 4 rounds × ~131 KB), and the relay
    // ran on the proxy (lowest active slot).
    let h = harvest(&dep, SimTime::from_secs(50), SimTime::from_secs(340));
    assert!(
        h.cell_bytes.checkpoint > 300_000,
        "cellular checkpoint traffic too small: {} B",
        h.cell_bytes.checkpoint
    );
    assert!(ms_scheme(&dep, 0, 0).stats.proxied_snapshots >= 4);
    assert!(h.per_region[0].outputs > 0, "region 0 dataflow stalled");
    // Commit notices reach the degraded phone over cellular too, so
    // its store keeps GCing instead of growing a state copy per round.
    let nid = dep.regions[0].nodes[3];
    let store = &dep.sim.actor::<dsps::node::NodeActor>(nid).inner.store;
    assert!(
        store.latest_complete() >= Some(4),
        "degraded phone never saw a commit notice: {:?}",
        store.latest_complete()
    );
}

/// Satellite regression: a degraded phone rejoining while its snapshot
/// is still crawling over cellular (a) immediately removes its slot
/// from `ckpt_expected` and re-runs the commit check — so a round that
/// is otherwise complete commits NOW instead of stalling until the
/// proxy relay lands an epoch later — and (b) the relay's late report
/// for the already-committed round must NOT double-commit it.
#[test]
fn rejoin_mid_cellular_snapshot_commits_once_without_stalling() {
    let mut c = cfg(13);
    // Fatten B's state so the degraded snapshot of round v2 (token at
    // t ≈ 83 s) occupies the 168 kbps uplink until t ≈ 99 s — a wide,
    // deterministic window to land the rejoin in.
    c.cal.state_b = 256 * 1024;
    let mut dep = Deployment::build(c);
    dep.start();
    inject_departure(&mut dep, 0, 4, SimTime::from_secs(40));
    inject_departure(&mut dep, 0, 3, SimTime::from_secs(50));
    // All survivors have reported v2 by t ≈ 97.7 s; the degraded
    // snapshot is still in flight. The rejoin at t = 98 s lands in
    // between: without the expected-set removal the round would wait
    // for the proxy relay (t ≈ 102 s).
    inject_reboot(&mut dep, 0, 3, SimTime::from_secs(98));
    dep.run_until(SimTime::from_secs(300));

    assert!(!dep.ms_is_stopped(0), "region wrongly stopped");
    // (a) The round was neither dropped nor stalled: v2 committed, and
    // it committed BEFORE the cellular snapshot even finished arriving
    // (uplink drains ≈ 99.3 s) — i.e. the rejoin triggered the check.
    let commits = dep.ms_commits();
    let v2 = commits
        .iter()
        .find(|&&(r, v, _)| r == 0 && v == 2)
        .unwrap_or_else(|| panic!("round v2 dropped: {commits:?}"));
    assert!(
        v2.2 < SimTime::from_secs(100),
        "v2 waited for the proxy relay instead of committing at the rejoin ({})",
        v2.2
    );
    // (b) The proxy relay still completed afterwards and reported the
    // rejoined slot — without double-committing the round.
    assert!(ms_scheme(&dep, 0, 0).stats.proxied_snapshots >= 1);
    let mut seen = std::collections::BTreeSet::new();
    for &(r, v, _) in &dep.ms_commits() {
        assert!(seen.insert((r, v)), "round (r{r}, v{v}) committed twice");
    }
    // Checkpointing continues normally after the rejoin.
    assert!(
        dep.ms_last_complete(0) >= 4,
        "commits stalled after rejoin (v{})",
        dep.ms_last_complete(0)
    );
}

/// The fleet report must expose the cellular-collapse signals: under
/// the flash-crowd profile (departure churn funnels 32 KB crops
/// through 168 kbps uplinks in urgent mode) the bounded link queues
/// tail-drop data and the per-region report fields show it.
#[test]
fn flash_crowd_reports_cellular_queue_pressure() {
    let cfg = experiments::fleet::profile("flash-crowd", 1).expect("built-in profile");
    let r = experiments::run(&cfg, |_| {});
    assert_eq!(r.per_region_cell_drops.len(), r.regions);
    assert_eq!(r.per_region_cell_max_queue_depth.len(), r.regions);
    assert!(
        r.cell_drops > 0,
        "no cellular queue drops under flash-crowd churn"
    );
    assert_eq!(
        r.per_region_cell_drops.iter().sum::<u64>(),
        r.cell_drops,
        "per-region drops must add up to the fleet total"
    );
    assert!(
        r.per_region_cell_max_queue_depth.iter().all(|&d| d > 0),
        "every region queues on cellular: {:?}",
        r.per_region_cell_max_queue_depth
    );
    // The fields are part of the determinism contract (digest input).
    let json = serde_json::to_string(&r).expect("serialize");
    assert!(json.contains("per_region_cell_drops"));
    assert!(json.contains("per_region_cell_max_queue_depth"));
}
