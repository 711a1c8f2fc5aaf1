//! Determinism stress layer for the warm-worker kernel: the library
//! profiles with the most concurrency-hostile shapes (metro's sharded
//! control plane, lossy-wifi's staggered loss ramps, flash-crowd's
//! arrival burst) must produce bit-identical report digests at 1, 2, 4
//! and 8 worker threads, with the causality sanitizer folding every
//! window and the event pool reporting zero aliasing.
//!
//! The scaled-down sweeps run in the default suite; the full 10-seed
//! soak (`stress_soak_ten_seeds`) is `#[ignore]`d and run by the
//! nightly CI step (`cargo test -p experiments --test
//! determinism_stress -- --ignored`).

use experiments::fleet::profile;
use experiments::{harvest, run, Deployment, FleetReport, ScenarioConfig};
use simkernel::{SimDuration, SimTime};

/// Profiles whose shapes stress the parallel kernel hardest.
const STRESS_PROFILES: &[&str] = &["metro", "lossy-wifi", "flash-crowd"];

/// Thread counts the digest contract is pinned at.
const THREADS: &[usize] = &[1, 2, 4, 8];

/// Scale a library profile down so a multi-thread × multi-profile
/// sweep stays in test time, while preserving the stressor: sharded
/// control plane (metro keeps ≥2 controller groups), staggered loss
/// ramps, and the arrival burst all survive the truncation.
fn scaled(name: &str, seed: u64) -> ScenarioConfig {
    let mut cfg = profile(name, seed).expect("known stress profile");
    cfg.regions = cfg.regions.min(4);
    cfg.phones = cfg.phones.min(8);
    cfg.ctl_group_size = cfg.ctl_group_size.min(2);
    cfg.duration = SimDuration::from_secs(240);
    cfg.warmup = SimDuration::from_secs(40);
    cfg.sanitize = true;
    cfg
}

/// Run `cfg` at every thread count and assert the full determinism
/// contract between each pair of runs.
fn assert_thread_invariant(name: &str, cfg: &ScenarioConfig) -> FleetReport {
    let mut base: Option<FleetReport> = None;
    for &threads in THREADS {
        let mut c = cfg.clone();
        c.threads = threads;
        let r = run(&c, |_| {});
        assert_eq!(
            r.sanitizer_violations, 0,
            "{name} @ {threads} threads: causality violations"
        );
        assert_eq!(
            r.pool_aliasing, 0,
            "{name} @ {threads} threads: event pool aliased a slot"
        );
        assert!(
            r.sanitizer_windows > 0,
            "{name} @ {threads} threads: sanitizer saw no windows (not sharded?)"
        );
        match &base {
            None => base = Some(r),
            Some(b) => {
                assert_eq!(
                    b.digest, r.digest,
                    "{name}: digest at {threads} threads diverged from 1 thread"
                );
                assert_eq!(
                    b.events_processed, r.events_processed,
                    "{name}: event count at {threads} threads diverged"
                );
                assert_eq!(
                    b.pool_recycled, r.pool_recycled,
                    "{name}: pool recycling at {threads} threads diverged — \
                     a pooled slot crossed a shard"
                );
            }
        }
    }
    base.expect("at least one thread count")
}

#[test]
fn metro_digests_thread_invariant() {
    let cfg = scaled("metro", 23);
    let r = assert_thread_invariant("metro", &cfg);
    assert!(
        r.pool_recycled > 0,
        "metro: pool never recycled a slot — hot path not pooled?"
    );
}

#[test]
fn lossy_wifi_digests_thread_invariant() {
    let cfg = scaled("lossy-wifi", 29);
    assert_thread_invariant("lossy-wifi", &cfg);
}

#[test]
fn flash_crowd_digests_thread_invariant() {
    let cfg = scaled("flash-crowd", 31);
    assert_thread_invariant("flash-crowd", &cfg);
}

/// Per-destination lookahead is a window-shape knob, never a schedule
/// knob: the uniform global bound (the reference side, driven here
/// directly since no config selects it) must reproduce `run`'s
/// results exactly.
#[test]
fn uniform_lookahead_reproduces_per_destination_digests() {
    for &name in STRESS_PROFILES {
        let mut cfg = scaled(name, 37);
        cfg.threads = 4;
        let rd = run(&cfg, |_| {});

        let mut dep = Deployment::build(cfg.clone());
        dep.start();
        dep.enable_sharding_opts(4, false);
        dep.sim.enable_sanitizer();
        let to = SimTime::ZERO + cfg.duration;
        dep.run_until(to);
        let h = harvest(&dep, SimTime::ZERO + cfg.warmup, to);
        let windows = dep.sim.causality_report().expect("sanitizer on").windows;

        assert_eq!(
            rd.events_processed,
            dep.sim.events_processed(),
            "{name}: widened per-destination windows changed the schedule"
        );
        let outputs: Vec<u64> = h.per_region.iter().map(|r| r.outputs as u64).collect();
        assert_eq!(rd.per_region_outputs, outputs, "{name}");
        // `FleetReport` stores "no output" as -1.
        let latency = if h.mean_latency_s.is_finite() {
            h.mean_latency_s
        } else {
            -1.0
        };
        assert_eq!(rd.mean_latency_s.to_bits(), latency.to_bits(), "{name}");
        assert_eq!(rd.wifi_total_bytes, h.wifi_bytes.total(), "{name}");
        assert_eq!(rd.cell_total_bytes, h.cell_bytes.total(), "{name}");
        assert_eq!(
            rd.checkpoint_commits,
            dep.ms_commits().len() as u64,
            "{name}"
        );
        // Wider windows may only reduce barrier count, never raise it.
        assert!(
            rd.sanitizer_windows <= windows,
            "{name}: per-destination bounds produced MORE windows \
             ({} vs {windows})",
            rd.sanitizer_windows
        );
    }
}

/// Nightly soak: every stress profile across ten seeds × four thread
/// counts. ~40 runs per profile — kept out of the default suite.
#[test]
#[ignore = "nightly soak: run with --ignored"]
fn stress_soak_ten_seeds() {
    for &name in STRESS_PROFILES {
        for seed in 100..110u64 {
            let cfg = scaled(name, seed);
            assert_thread_invariant(name, &cfg);
        }
    }
}
