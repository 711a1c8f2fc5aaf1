//! Fast end-to-end smoke test: a tiny deployment (3 phones per region,
//! short window) drives the full simkernel → simnet → dsps →
//! mobistreams stack in a few seconds of wall clock, so CI always
//! exercises the whole pipeline even when the heavyweight paper
//! scenarios aren't run.

use experiments::{harvest, AppKind, Deployment, ScenarioConfig, Scheme};
use simkernel::{SimDuration, SimTime};

fn tiny(app: AppKind, scheme: Scheme) -> ScenarioConfig {
    // Shrink the operator states so a full checkpoint round (snapshot +
    // broadcast replication) fits comfortably inside the shortened
    // checkpoint period on a 3-phone region's WiFi budget.
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
        app,
        scheme,
        seed: 21,
        regions: 2,
        phones: 3,
        cal,
        ckpt_offset: SimDuration::from_secs(20),
        ckpt_period: SimDuration::from_secs(60),
        ..ScenarioConfig::default()
    }
}

#[test]
fn tiny_region_runs_end_to_end_with_ms() {
    let wall = std::time::Instant::now();
    let mut dep = Deployment::build(tiny(AppKind::Bcp, Scheme::Ms));
    dep.start();
    dep.run_until(SimTime::from_secs(180));

    let h = harvest(&dep, SimTime::from_secs(30), SimTime::from_secs(180));
    // The pipeline produced sink output in the first region, and the
    // cascade crossed cellular into the second.
    assert!(h.per_region[0].outputs > 0, "region 0 published nothing");
    assert!(h.per_region[1].outputs > 0, "region 1 published nothing");
    assert!(h.cell_bytes.data > 0, "no inter-region tuples on cellular");
    assert!(h.wifi_bytes.total() > 0, "no WiFi traffic at all");
    assert_eq!(h.stops, 0, "a tiny healthy region must not stop");

    // Token-triggered checkpoints committed and were broadcast.
    assert!(
        dep.ms_last_complete(0) >= 1,
        "no checkpoint committed in region 0 (got {})",
        dep.ms_last_complete(0)
    );
    assert!(h.ckpt_repl_bytes > 0, "checkpointing moved no bytes");

    // Smoke budget: this must stay fast enough for every CI run.
    assert!(
        wall.elapsed().as_secs() < 60,
        "smoke test too slow: {:?}",
        wall.elapsed()
    );
}

#[test]
fn tiny_region_runs_without_fault_tolerance() {
    // Scheme::Base on 2 phones: the smallest deployment that still
    // cascades — guards the squeeze-placement path at its minimum.
    let mut dep = Deployment::build(ScenarioConfig {
        phones: 2,
        ..tiny(AppKind::Bcp, Scheme::Base)
    });
    dep.start();
    dep.run_until(SimTime::from_secs(150));
    let h = harvest(&dep, SimTime::from_secs(30), SimTime::from_secs(150));
    assert!(h.per_region[0].outputs > 0);
    assert!(h.mean_throughput > 0.0);
    assert_eq!(h.ckpt_repl_bytes, 0, "base ships no checkpoint bytes");
}

#[test]
fn tiny_signalguru_region_runs_end_to_end() {
    let mut dep = Deployment::build(tiny(AppKind::SignalGuru, Scheme::Ms));
    dep.start();
    dep.run_until(SimTime::from_secs(150));
    let h = harvest(&dep, SimTime::from_secs(30), SimTime::from_secs(150));
    assert!(h.per_region[0].outputs > 0, "SignalGuru published nothing");
}
