//! Cross-crate integration tests: the paper's mechanism walk-throughs
//! (Figs 5–7) exercised on full deployments.

use experiments::faults::{inject_departure, inject_failure, inject_reboot};
use experiments::{harvest, AppKind, Deployment, Platform, ScenarioConfig, Scheme};
use simkernel::{SimDuration, SimTime};

fn small(app: AppKind, scheme: Scheme, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        app,
        scheme,
        seed,
        regions: 2,
        ckpt_offset: SimDuration::from_secs(40),
        ckpt_period: SimDuration::from_secs(120),
        ..ScenarioConfig::default()
    }
}

/// Fig 5: the token wave produces committed, region-wide checkpoints.
#[test]
fn token_checkpoint_commits() {
    let mut dep = Deployment::build(small(AppKind::Bcp, Scheme::Ms, 3));
    dep.start();
    dep.run_until(SimTime::from_secs(300));
    // Two checkpoint rounds per region should have committed.
    assert!(
        dep.ms_last_complete(0) >= 2,
        "region 0 committed {} rounds",
        dep.ms_last_complete(0)
    );
    assert!(dep.ms_last_complete(1) >= 2);
    // Every node holds the committed version's data (broadcast-based
    // replication reached everyone, incl. idle nodes).
    let v = dep.ms_last_complete(0);
    let mut holders = 0;
    for &nid in &dep.regions[0].nodes {
        let na = dep.sim.actor::<dsps::node::NodeActor>(nid);
        if na
            .inner
            .store
            .snapshot(v)
            .iter()
            .any(|&(_, _, bytes)| bytes > 0)
        {
            holders += 1;
        }
    }
    assert!(
        holders >= 7,
        "checkpoint v{v} replicated to {holders}/8 nodes"
    );
}

/// Fig 5 + §III-D: a failure rolls the region back to the MRC and
/// catch-up replays preserved inputs with sink squelching.
#[test]
fn failure_recovery_restores_the_pipeline() {
    let mut dep = Deployment::build(small(AppKind::Bcp, Scheme::Ms, 6));
    dep.start();
    // Kill the D/H node (slot 2) after the first checkpoint.
    inject_failure(&mut dep, 0, 2, SimTime::from_secs(170));
    dep.run_until(SimTime::from_secs(420));
    assert!(!dep.ms_recoveries().is_empty(), "a recovery must have run");
    let rec = dep.ms_recoveries()[0];
    assert!(rec.finished > rec.started);
    assert!(
        (rec.finished - rec.started) < SimDuration::from_secs(60),
        "ms recovery is fast (got {})",
        rec.finished - rec.started
    );
    // The sink produced output after the recovery finished.
    let h = harvest(&dep, rec.finished, SimTime::from_secs(420));
    assert!(
        h.per_region[0].outputs > 0,
        "region 0 resumed publishing after recovery"
    );
    // Catch-up discarded replayed results instead of re-publishing them.
    let discards: u64 = h.per_region.iter().map(|r| r.catchup_discards).sum();
    assert!(discards > 0, "sink squelched replayed tuples");
}

/// Fig 7: a departure switches to urgent mode, transfers state over
/// cellular and replaces the phone — no rollback, no catch-up.
#[test]
fn departure_is_handled_without_rollback() {
    let mut dep = Deployment::build(small(AppKind::Bcp, Scheme::Ms, 5));
    dep.start();
    // Depart the D/H node (small operator state → quick transfer over
    // the slow cellular uplink).
    inject_departure(&mut dep, 0, 2, SimTime::from_secs(170));
    dep.run_until(SimTime::from_secs(380));
    assert!(
        dep.ms_departures_handled() >= 1,
        "departure replacement completed"
    );
    // The replacement (an idle slot) now hosts the moved operators.
    let moved: usize = dep.regions[0]
        .nodes
        .iter()
        .skip(6) // idle slots 6,7
        .map(|&nid| dep.sim.actor::<dsps::node::NodeActor>(nid).inner.ops.len())
        .sum();
    assert!(moved >= 2, "D,H moved to a standby phone (got {moved})");
    // State transfer used the cellular network.
    let h = harvest(&dep, SimTime::ZERO, SimTime::from_secs(380));
    assert!(
        h.cell_bytes.recovery > 0,
        "departing phone shipped its state over cellular"
    );
    // No failure recovery ran (departures are cheaper than failures).
    assert!(dep.ms_recoveries().is_empty());
}

/// §III-B step 3: with every phone rebooting after a full-region crash,
/// the region restarts from flash-resident checkpoint copies.
#[test]
fn full_region_crash_restarts_from_flash() {
    let mut dep = Deployment::build(small(AppKind::Bcp, Scheme::Ms, 6));
    dep.start();
    for slot in 0..8 {
        inject_failure(&mut dep, 0, slot, SimTime::from_secs(170));
        inject_reboot(&mut dep, 0, slot, SimTime::from_secs(230));
    }
    dep.run_until(SimTime::from_secs(600));
    let h = harvest(&dep, SimTime::from_secs(400), SimTime::from_secs(600));
    assert!(
        h.per_region[0].outputs > 0,
        "region recovered from flash copies and publishes again"
    );
}

/// Multi-region cascading: downstream regions receive the upstream
/// region's predictions over cellular (Fig 4).
#[test]
fn regions_cascade_over_cellular() {
    let mut dep = Deployment::build(small(AppKind::Bcp, Scheme::Base, 7));
    dep.start();
    dep.run_until(SimTime::from_secs(300));
    // Region 1's S0 has no local bus feed; any processed S0 input came
    // from region 0's sink over the cellular network.
    let h = harvest(&dep, SimTime::ZERO, SimTime::from_secs(300));
    assert!(h.per_region[1].outputs > 0);
    assert!(
        h.cell_bytes.data > 0,
        "inter-region tuples crossed cellular"
    );
}

/// The server-based platform (Table I) is bottlenecked by the 3G
/// uplink: its throughput tracks the uplink rate, not the servers.
#[test]
fn server_platform_is_uplink_bound() {
    let mut lo = Deployment::build(ScenarioConfig {
        app: AppKind::Bcp,
        scheme: Scheme::Base,
        platform: Platform::Server {
            uplink_bps: 16_000.0,
        },
        checkpoints_enabled: false,
        regions: 2,
        seed: 8,
        ..ScenarioConfig::default()
    });
    lo.start();
    lo.run_until(SimTime::from_secs(500));
    let h_lo = harvest(&lo, SimTime::from_secs(100), SimTime::from_secs(500));

    let mut hi = Deployment::build(ScenarioConfig {
        app: AppKind::Bcp,
        scheme: Scheme::Base,
        platform: Platform::Server {
            uplink_bps: 320_000.0,
        },
        checkpoints_enabled: false,
        regions: 2,
        seed: 8,
        ..ScenarioConfig::default()
    });
    hi.start();
    hi.run_until(SimTime::from_secs(500));
    let h_hi = harvest(&hi, SimTime::from_secs(100), SimTime::from_secs(500));

    assert!(
        h_hi.mean_throughput > 5.0 * h_lo.mean_throughput,
        "20x uplink must lift throughput by far more than 5x ({} vs {})",
        h_hi.mean_throughput,
        h_lo.mean_throughput
    );
    assert!(
        h_lo.mean_latency_s > h_hi.mean_latency_s,
        "slower uplink queues longer"
    );
}

/// Determinism: identical configs and seeds produce identical runs.
#[test]
fn deployments_are_deterministic() {
    let run = |seed| {
        let mut dep = Deployment::build(small(AppKind::SignalGuru, Scheme::Ms, seed));
        dep.start();
        dep.run_until(SimTime::from_secs(260));
        let h = harvest(&dep, SimTime::from_secs(60), SimTime::from_secs(260));
        (
            dep.sim.events_processed(),
            h.per_region.iter().map(|r| r.outputs).collect::<Vec<_>>(),
            h.wifi_bytes.total(),
        )
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42).0, run(43).0, "different seeds diverge");
}

/// rep-2 takeover: a single failure flips the primary flow and output
/// continues (active standby semantics).
#[test]
fn rep2_takeover_keeps_publishing() {
    let mut dep = Deployment::build(small(AppKind::Bcp, Scheme::Rep2, 9));
    dep.start();
    // Slot 1 hosts flow-0 operators under the compressed placement.
    inject_failure(&mut dep, 0, 1, SimTime::from_secs(170));
    dep.run_until(SimTime::from_secs(400));
    let co = dep
        .sim
        .actor::<baselines::BaselineCoordinator>(dep.coordinator.unwrap());
    assert!(co.takeovers >= 1, "primary flipped to the standby flow");
    assert_eq!(co.stops, 0, "one failure must not kill rep-2");
    let h = harvest(&dep, SimTime::from_secs(200), SimTime::from_secs(400));
    assert!(h.per_region[0].outputs > 0, "standby flow publishes");
}

/// dist-n: recovery fetches peer state copies and resumes; it tolerates
/// n but not n+1 simultaneous failures.
#[test]
fn dist_n_tolerates_exactly_n() {
    // n = 1, one failure: recovers.
    let mut ok = Deployment::build(small(AppKind::Bcp, Scheme::Dist(1), 10));
    ok.start();
    inject_failure(&mut ok, 0, 2, SimTime::from_secs(170));
    ok.run_until(SimTime::from_secs(420));
    {
        let co = ok
            .sim
            .actor::<baselines::BaselineCoordinator>(ok.coordinator.unwrap());
        assert_eq!(co.stops, 0);
        assert!(!co.recoveries.is_empty(), "dist-1 recovered one failure");
    }
    // n = 1, two simultaneous failures: unrecoverable (region stops).
    let mut bad = Deployment::build(small(AppKind::Bcp, Scheme::Dist(1), 10));
    bad.start();
    inject_failure(&mut bad, 0, 2, SimTime::from_secs(170));
    inject_failure(&mut bad, 0, 3, SimTime::from_secs(170));
    bad.run_until(SimTime::from_secs(420));
    let co = bad
        .sim
        .actor::<baselines::BaselineCoordinator>(bad.coordinator.unwrap());
    assert!(co.stops >= 1, "dist-1 cannot survive a 2-node burst");
}

/// dist-n replays retained crops: a counter's slot fails while `H`
/// lives elsewhere, so `H` resends its retained `CropMsg`s to the
/// replacement counter. The live counters already took the plane `H`
/// lent them, so the replacement renders each replayed frame from its
/// seed. `B` keeps the replayed counts in its per-frame partial sums,
/// next to its learned boarding propensity; both are pinned at the
/// values counted from shared planes, so a replayed crop that counted
/// differently would move them.
#[test]
fn dist_n_replays_retained_crops_to_a_replaced_counter() {
    let mut dep = Deployment::build(small(AppKind::Bcp, Scheme::Dist(1), 10));
    let (slot, b) = {
        let region = &dep.regions[0];
        let (g, placement) = (&region.graph, &region.placement);
        let op = |name: &str| g.op_by_name(name).expect("a BCP operator");
        let h_slot = placement.slot_of(op("H"));
        let slot = ["C0", "C1", "C2", "C3"]
            .map(|c| placement.slot_of(op(c)))
            .into_iter()
            .find(|&s| s != h_slot)
            .expect("a counter that does not share H's slot");
        (slot, op("B"))
    };
    dep.start();
    inject_failure(&mut dep, 0, slot, SimTime::from_secs(170));
    dep.run_until(SimTime::from_secs(420));
    let finished = {
        let co = dep
            .sim
            .actor::<baselines::BaselineCoordinator>(dep.coordinator.unwrap());
        assert_eq!(co.stops, 0, "dist-1 recovers one failed counter slot");
        let rec = co.recoveries.first().expect("the counter slot recovered");
        assert_eq!(rec.region, 0);
        rec.finished
    };
    let h = harvest(&dep, finished, SimTime::from_secs(420));
    assert!(
        h.per_region[0].outputs > 0,
        "region 0 publishes after the recovery"
    );
    assert_eq!(
        boarding_state(&mut dep, b),
        ((59, 130, 217), (0x3fe5_c1a8_99c7_c4ae, 99)),
        "B's partial counts or boarding propensity moved"
    );
}

/// `B`'s state in region 0, wherever it is hosted now: its per-frame
/// partial sums as `(frames, counts seen, faces)`, and its learned
/// boarding propensity as `(value bits, samples)`. Replayed counts land
/// in both.
fn boarding_state(dep: &mut Deployment, b: dsps::graph::OpId) -> ((usize, u32, u32), (u64, u64)) {
    use apps::models::BoardingModel;
    use std::collections::BTreeMap;

    let host = dep.regions[0]
        .nodes
        .iter()
        .copied()
        .find(|&n| {
            let phone = &dep.sim.actor::<dsps::node::NodeActor>(n).inner;
            phone.alive && phone.hosts(b)
        })
        .expect("a live phone hosts B");
    let snapshot = dep
        .sim
        .actor_mut::<dsps::node::NodeActor>(host)
        .inner
        .ops
        .get_mut(&b)
        .expect("B is hosted here")
        .state()
        .expect("B has state")
        .snapshot();
    let (partial, model) = (*snapshot)
        .as_any()
        .downcast_ref::<(BTreeMap<u64, (u32, u32)>, BoardingModel)>()
        .expect("B's state type");
    let (seen, faces) = partial
        .values()
        .fold((0, 0), |(seen, faces), &(n, f)| (seen + n, faces + f));
    let propensity = (model.propensity.value.to_bits(), model.propensity.count);
    ((partial.len(), seen, faces), propensity)
}

/// Upstream backup replays from every upstream slot of a failed node,
/// not only from the neighbour that takes it over. Slot 5 hosts `B`,
/// `J`, `P` and `K`, fed from slots 1 (`A → J`, `L → P`), 3 (`C0`,
/// `C1` → `B`) and 4 (`C2`, `C3` → `B`). `C0`'s slot 3 takes the four
/// operators over with fresh state, and its recovery asks slots 1, 2
/// (`H`, whose crops feed the re-installed counters) and 4 to resend
/// what they retained. The sink's output after the recovery and `B`'s
/// rebuilt state, where the replayed counts land, are pinned.
#[test]
fn upstream_backup_replays_from_every_upstream_slot() {
    let mut dep = Deployment::build(small(AppKind::Bcp, Scheme::Upstream, 12));
    let b = dep.regions[0]
        .graph
        .op_by_name("B")
        .expect("a BCP operator");
    dep.start();
    inject_failure(&mut dep, 0, 5, SimTime::from_secs(170));
    dep.run_until(SimTime::from_secs(420));
    let finished = {
        let co = dep
            .sim
            .actor::<baselines::BaselineCoordinator>(dep.coordinator.unwrap());
        assert_eq!(co.stops, 0, "one failure survivable");
        let rec = co.recoveries.first().expect("slot 5 recovered");
        assert_eq!(rec.region, 0);
        rec.finished
    };
    let host = dep
        .sim
        .actor::<dsps::node::NodeActor>(dep.regions[0].nodes[3]);
    assert!(host.inner.hosts(b), "C0's slot took B over");
    let h = harvest(&dep, finished, SimTime::from_secs(420));
    assert_eq!(
        h.per_region[0].outputs, 61,
        "sink outputs after the recovery moved"
    );
    assert_eq!(
        boarding_state(&mut dep, b),
        ((61, 153, 224), (0x3fea_b890_46c1_5540, 61)),
        "B's rebuilt partial counts or boarding propensity moved"
    );
}

/// `local` recovers a phone that reboots before its failure is
/// detected: the coordinator re-installs it from its own flash copy and
/// asks its upstream slots to resend what they retained. Killing the
/// `C0`, `C1` slot and rebooting it 200 ms later replays `H`'s retained
/// crops into the restored counters; `B`, where the recounts land, is
/// pinned.
#[test]
fn local_replays_retained_outputs_to_a_phone_rebooted_before_detection() {
    let mut dep = Deployment::build(small(AppKind::Bcp, Scheme::Local, 14));
    let b = dep.regions[0]
        .graph
        .op_by_name("B")
        .expect("a BCP operator");
    dep.start();
    let at = SimTime::from_secs(170);
    inject_failure(&mut dep, 0, 3, at);
    inject_reboot(&mut dep, 0, 3, at + SimDuration::from_millis(200));
    dep.run_until(SimTime::from_secs(420));
    let finished = {
        let co = dep
            .sim
            .actor::<baselines::BaselineCoordinator>(dep.coordinator.unwrap());
        assert_eq!(co.stops, 0, "the failure was never detected");
        let rec = co
            .recoveries
            .first()
            .expect("the rebooted slot re-installed");
        rec.finished
    };
    let h = harvest(&dep, finished, SimTime::from_secs(420));
    assert_eq!(
        h.per_region[0].outputs, 83,
        "sink outputs after the recovery moved"
    );
    assert_eq!(
        boarding_state(&mut dep, b),
        ((52, 106, 165), (0x3fef_fff8_9122_2fb0, 174)),
        "B's partial counts or boarding propensity moved"
    );
}

/// Fig 10 invariants on byte accounting, over every mode of the
/// output-retention scheme: ms preserves far less than input
/// preservation, `local` and upstream backup ship no checkpoint bytes,
/// and dist-n ships n copies.
#[test]
fn byte_accounting_shapes() {
    let run = |scheme| {
        let mut dep = Deployment::build(small(AppKind::Bcp, scheme, 11));
        dep.start();
        dep.run_until(SimTime::from_secs(400));
        harvest(&dep, SimTime::ZERO, SimTime::from_secs(400))
    };
    let ms = run(Scheme::Ms);
    for scheme in [Scheme::Local, Scheme::Upstream] {
        let h = run(scheme);
        assert!(
            h.preserved_bytes > 2 * ms.preserved_bytes,
            "{scheme:?}: input preservation ({}) ≫ source preservation ({})",
            h.preserved_bytes,
            ms.preserved_bytes
        );
        assert_eq!(h.ckpt_repl_bytes, 0, "{scheme:?} ships no checkpoint");
    }
    let d1 = run(Scheme::Dist(1)).ckpt_repl_bytes as f64;
    assert!(d1 > 0.0, "dist-1 ships its checkpoints");
    for n in [2, 3] {
        let ratio = run(Scheme::Dist(n)).ckpt_repl_bytes as f64 / d1;
        assert!(
            (ratio - n as f64).abs() <= 0.01 * n as f64,
            "dist-{n} ships {ratio:.4}x dist-1's checkpoint bytes, not {n}x"
        );
    }
}

/// Every checkpoint copy lands where the coordinator will look for it:
/// after the first tick each slot's store holds exactly its own
/// stateful operators plus those of every slot that names it a peer
/// (`peers_of`, the holders recovery asks to ship). Under `local` that
/// is only its own.
#[test]
fn checkpoint_copies_land_on_the_named_peers() {
    use dsps::graph::OpId;
    use dsps::node::NodeActor;
    use dsps::placement::peers_of;
    use std::collections::BTreeSet;

    for (scheme, n) in [(Scheme::Dist(2), 2), (Scheme::Local, 0)] {
        let mut dep = Deployment::build(small(AppKind::Bcp, scheme, 13));
        dep.start();
        // Ticks go out at 40 s and 160 s: every copy of version 1 is in.
        dep.run_until(SimTime::from_secs(150));
        for region in &dep.regions {
            let slots = region.placement.slots();
            let own = |slot: u32| -> BTreeSet<OpId> {
                let ops = region.placement.ops_on(slot).into_iter();
                ops.filter(|&op| region.graph.op(op).instantiate().state().is_some())
                    .collect()
            };
            for slot in 0..slots {
                let na = dep.sim.actor::<NodeActor>(region.nodes[slot as usize]);
                let snap = na.inner.store.snapshot(1);
                let held: BTreeSet<OpId> = snap.iter().map(|&(op, ..)| op).collect();
                let mut expected = own(slot);
                for s in (0..slots).filter(|&s| peers_of(s, n, slots).contains(&slot)) {
                    expected.extend(own(s));
                }
                assert_eq!(held, expected, "{scheme:?}: slot {slot}'s store");
            }
            let stateful: usize = (0..slots).map(|s| own(s).len()).sum();
            assert!(stateful > 0, "the region checkpoints some state");
        }
    }
}

/// Regression: a rebooted phone re-registering with a region the
/// baseline coordinator already declared lost got its operators back
/// from its own store and resumed output, opening a recovery episode
/// that never closed.
#[test]
fn a_stopped_baseline_region_stays_stopped_after_a_reboot() {
    let mut dep = Deployment::build(small(AppKind::Bcp, Scheme::Local, 14));
    dep.start();
    inject_failure(&mut dep, 0, 2, SimTime::from_secs(170));
    inject_reboot(&mut dep, 0, 2, SimTime::from_secs(230));
    dep.run_until(SimTime::from_secs(300));
    let co = dep
        .sim
        .actor::<baselines::BaselineCoordinator>(dep.coordinator.unwrap());
    assert!(
        co.is_stopped(0),
        "local has no recovery: the region is lost"
    );
    let phone = dep
        .sim
        .actor::<dsps::node::NodeActor>(dep.regions[0].nodes[2]);
    assert!(phone.inner.alive, "the phone rebooted");
    assert!(
        phone.inner.ops.is_empty(),
        "the rebooted phone was reinstalled into a stopped region"
    );
}

/// Extension (related work, Hwang'05): upstream backup re-hosts a
/// failed node's operators on its upstream neighbor and replays the
/// retained outputs — one failure survivable, a second is fatal.
#[test]
fn upstream_backup_takes_over_once() {
    let mut dep = Deployment::build(small(AppKind::Bcp, Scheme::Upstream, 12));
    dep.start();
    // Kill the counter node (slot 3): its upstream (D/H, slot 2) takes
    // its operators over.
    inject_failure(&mut dep, 0, 3, SimTime::from_secs(170));
    dep.run_until(SimTime::from_secs(400));
    {
        let co = dep
            .sim
            .actor::<baselines::BaselineCoordinator>(dep.coordinator.unwrap());
        assert_eq!(co.stops, 0, "one failure survivable");
    }
    let host = dep
        .sim
        .actor::<dsps::node::NodeActor>(dep.regions[0].nodes[2]);
    assert!(
        host.inner.ops.len() >= 4,
        "upstream neighbor hosts its own + the failed ops (got {})",
        host.inner.ops.len()
    );
    let h = harvest(&dep, SimTime::from_secs(250), SimTime::from_secs(400));
    assert!(h.per_region[0].outputs > 0, "pipeline runs after takeover");

    // Losing a node TOGETHER with the upstream neighbor that holds its
    // retained outputs is fatal — the backup data is gone ("it only
    // handles single node failure"). Kill the camera source (S1) and
    // the D/H node simultaneously: D's only upstream is S1.
    let mut dep2 = Deployment::build(small(AppKind::Bcp, Scheme::Upstream, 12));
    dep2.start();
    inject_failure(&mut dep2, 0, 0, SimTime::from_secs(170));
    inject_failure(&mut dep2, 0, 2, SimTime::from_secs(170));
    dep2.run_until(SimTime::from_secs(300));
    let co2 = dep2
        .sim
        .actor::<baselines::BaselineCoordinator>(dep2.coordinator.unwrap());
    assert!(
        co2.stops >= 1,
        "losing a node plus its backup stops the region"
    );
}
