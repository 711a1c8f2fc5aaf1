//! Golden digests: the simulated schedule of the five library profiles,
//! pinned under `cargo test`.
//!
//! A performance change must leave every event, RNG draw and report
//! field where it was. This pins the `FleetReport` digest and event
//! count of every library profile at matrix-smoke scale (3 regions ×
//! ≤8 phones, 360 s), at 1 and 4 worker threads, so an accidental
//! change of event order or RNG consumption fails tier-1 and names the
//! profile.
//!
//! The values were recorded at commit 04a6a34 (PR 11). A change that
//! *means* to alter the simulated behaviour re-records them with
//! `cargo test -p experiments --test golden_digests -- --nocapture`
//! (each mismatch prints the observed pair) and says so in CHANGES.md.

use experiments::fleet::{profile, run_fleet};
use experiments::{measured_run, AppKind, ExpOptions, ScenarioConfig};

/// `(profile, FleetReport::digest, FleetReport::events_processed)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("stadium", 0xbe9d_7893_b537_79a2, 76021),
    ("commute", 0x6c9a_bbd7_6d7f_a47a, 39106),
    ("flash-crowd", 0x8026_aafb_a69e_6b3e, 40741),
    ("lossy-wifi", 0xae60_5497_33e2_b473, 69851),
    ("metro", 0x6bb3_4311_8b0b_4769, 75921),
];

const SEED: u64 = 1;

#[test]
fn library_profiles_keep_their_digests() {
    let mut drift = Vec::new();
    for &(name, digest, events) in GOLDEN {
        for threads in [1, 4] {
            let mut cfg = profile(name, SEED).expect("library profile");
            cfg.shrink_to_smoke();
            cfg.threads = threads;
            let r = run_fleet(&cfg);
            assert!(r.checkpoint_commits > 0, "{name}: no round committed");
            if (r.digest, r.events_processed) != (digest, events) {
                drift.push(format!(
                    "(\"{name}\", {:#018x}, {}) at {threads} thread(s)",
                    r.digest, r.events_processed
                ));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "the simulated schedule changed — observed:\n    {}",
        drift.join("\n    ")
    );
}

/// `(app, sink outputs, mean latency bits, WiFi payload bytes, cellular
/// payload bytes)` of the paper's 4 × 8 testbed under `ms`, seed 1,
/// over the quick window. The operators really run on the synthetic
/// frames (face counts and light colours ride in the tuples), so a
/// changed pixel, detection or RNG draw in `apps` moves these.
/// Recorded at commit 3b2a594.
const TESTBED: &[(AppKind, u64, u64, u64, u64)] = &[
    (AppKind::Bcp, 754, 0x4020_8c9a_888f_c9d2, 379629064, 164968),
    (
        AppKind::SignalGuru,
        1258,
        0x400e_99dc_52cd_9b4a,
        331518975,
        209728,
    ),
];

#[test]
fn testbed_apps_keep_their_harvest() {
    let opts = ExpOptions::quick();
    let mut drift = Vec::new();
    for &(app, outputs, latency_bits, wifi, cell) in TESTBED {
        let cfg = ScenarioConfig {
            app,
            seed: SEED,
            ..ScenarioConfig::default()
        };
        let h = measured_run(cfg, opts.warmup, opts.window, |_| {});
        let seen = (
            h.per_region.iter().map(|r| r.outputs as u64).sum::<u64>(),
            h.mean_latency_s.to_bits(),
            h.wifi_bytes.total(),
            h.cell_bytes.total(),
        );
        assert!(seen.0 > 0, "{}: no sink output", app.label());
        if seen != (outputs, latency_bits, wifi, cell) {
            drift.push(format!(
                "(AppKind::{app:?}, {}, {:#018x}, {}, {})",
                seen.0, seen.1, seen.2, seen.3
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "the testbed harvest changed — observed:\n    {}",
        drift.join("\n    ")
    );
}
