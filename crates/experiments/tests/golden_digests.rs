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

use baselines::BaselineCoordinator;
use experiments::faults::{failure_order, inject_departure, inject_failure, inject_reboot};
use experiments::fleet::{profile, run_fleet};
use experiments::{
    harvest, measured_run, AppKind, Deployment, ExpOptions, Platform, ScenarioConfig, Scheme,
};
use simkernel::{SimDuration, SimTime};

/// `(profile, FleetReport::digest, FleetReport::events_processed)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("stadium", 0xbe9d_7893_b537_79a2, 76021),
    ("commute", 0x6c9a_bbd7_6d7f_a47a, 39106),
    ("flash-crowd", 0x8026_aafb_a69e_6b3e, 40741),
    ("lossy-wifi", 0xae60_5497_33e2_b473, 69851),
    ("metro", 0xa4f3_f8bd_fbb3_6330, 75993),
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

/// `(app, platform, sink outputs, mean latency bits, WiFi payload
/// bytes, cellular payload bytes)` of the paper's 4 × 8 testbed under
/// `ms` (the phones) or the server DSPS of Table I at both ends of its
/// uplink sweep, seed 1, over the quick window. The operators really
/// run on the synthetic frames (face counts and light colours ride in
/// the tuples), so a changed pixel, detection or RNG draw in `apps`
/// moves these. The phone rows were recorded at commit 3b2a594, the
/// server rows at 51405ae.
const TESTBED: &[(AppKind, Platform, u64, u64, u64, u64)] = &[
    (
        AppKind::Bcp,
        Platform::Phones,
        754,
        0x4020_8c9a_888f_c9d2,
        379629064,
        164968,
    ),
    (
        AppKind::SignalGuru,
        Platform::Phones,
        1258,
        0x400e_99dc_52cd_9b4a,
        331518975,
        209728,
    ),
    (
        AppKind::Bcp,
        SERVER_16K,
        28,
        0x405f_f2f7_6f47_3a89,
        0,
        5112832,
    ),
    (
        AppKind::SignalGuru,
        SERVER_16K,
        28,
        0x4060_5138_bc8e_c104,
        0,
        5243904,
    ),
    (
        AppKind::Bcp,
        SERVER_320K,
        514,
        0x4017_2bcc_8a29_4d72,
        0,
        86918656,
    ),
    (
        AppKind::SignalGuru,
        SERVER_320K,
        512,
        0x4018_44a0_12b3_9d0d,
        0,
        87049728,
    ),
];

/// The server platform at the bottom and top of the paper's uplink
/// sweep.
const SERVER_16K: Platform = Platform::Server {
    uplink_bps: 16_000.0,
};
const SERVER_320K: Platform = Platform::Server {
    uplink_bps: 320_000.0,
};

#[test]
fn testbed_apps_keep_their_harvest() {
    let opts = ExpOptions::quick();
    let mut drift = Vec::new();
    for &(app, platform, outputs, latency_bits, wifi, cell) in TESTBED {
        let cfg = ScenarioConfig {
            app,
            platform,
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
        assert!(
            seen.0 > 0,
            "{} on {platform:?}: no sink output",
            app.label()
        );
        if seen != (outputs, latency_bits, wifi, cell) {
            drift.push(format!(
                "(AppKind::{app:?}, {platform:?}, {}, {:#018x}, {}, {})",
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

/// Faults as `msbench` injects them: the first `n` slots of
/// `failure_order` on every region.
#[derive(Debug, Clone, Copy)]
enum Fault {
    FailBurst { n: usize, reboot: bool },
    Depart { n: usize },
}

/// `(scheme, fault, [sink outputs, mean latency bits, WiFi payload
/// bytes, cellular payload bytes, recoveries, stops], every recovery
/// episode's (started, finished) in ns)` of the BCP testbed, seed 1,
/// over the quick window, with the fault 30 s into the window (reboot
/// 60 s after it). Pins the recovery path of both control planes —
/// replacement choice, install/rollback fan-out, ack bookkeeping.
/// Recorded at commit 70b74ca.
type FaultPin = (Scheme, Fault, [u64; 6], &'static [(u64, u64)]);
const TESTBED_FAULTS: &[FaultPin] = &[
    (
        Scheme::Dist(2),
        Fault::FailBurst {
            n: 2,
            reboot: false,
        },
        [587, 4615264306783280731, 335543440, 140232, 4, 0],
        &[
            (160000000000, 163525026818),
            (160000000000, 163525042690),
            (160000000000, 163525050626),
            (160000000000, 164026482942),
        ],
    ),
    (
        Scheme::Rep2,
        Fault::FailBurst {
            n: 1,
            reboot: false,
        },
        [890, 4617741658387204202, 381839888, 397104, 4, 0],
        &[
            (152758076624, 152758076624),
            (153316944193, 153316944193),
            (153459861382, 153459861382),
            (153659905449, 153659905449),
        ],
    ),
    (
        Scheme::Upstream,
        Fault::FailBurst {
            n: 1,
            reboot: false,
        },
        [898, 4613735680613810218, 195909120, 200104, 4, 0],
        &[
            (152758076624, 153416646458),
            (153316944193, 153975514027),
            (153459861382, 154118431216),
            (153659905449, 154318475283),
        ],
    ),
    (
        Scheme::Local,
        Fault::FailBurst {
            n: 1,
            reboot: false,
        },
        [70, 4615186002859173125, 195258064, 97232, 0, 4],
        &[],
    ),
    (
        Scheme::Ms,
        Fault::FailBurst { n: 2, reboot: true },
        [719, 4619998696328468800, 375827870, 974648, 4, 0],
        &[
            (160682749214, 165387996009),
            (160731396312, 165436643107),
            (161098493282, 165803740077),
            (161408922226, 166114169021),
        ],
    ),
    (
        Scheme::Ms,
        Fault::Depart { n: 1 },
        [755, 4621075038961777559, 376775976, 769704, 0, 0],
        &[],
    ),
    // One failure more than the region has idle phones: the
    // round-robin-over-survivors half of the replacement picker.
    (
        Scheme::Ms,
        Fault::FailBurst {
            n: 3,
            reboot: false,
        },
        [730, 4619936857781934105, 364196182, 1568632, 4, 0],
        &[
            (160682749214, 166098899425),
            (160731396312, 166147546523),
            (161098493282, 166514643493),
            (161408922226, 166825072437),
        ],
    ),
    (
        Scheme::Dist(3),
        Fault::FailBurst {
            n: 3,
            reboot: false,
        },
        [368, 4616601290370768267, 350249680, 101744, 0, 0],
        &[],
    ),
];

#[test]
fn testbed_faults_keep_their_harvest() {
    let opts = ExpOptions::quick();
    let from = SimTime::ZERO + opts.warmup;
    let to = from + opts.window;
    let at = from + SimDuration::from_secs(30);
    let mut drift = Vec::new();
    for &(scheme, fault, numbers, episodes) in TESTBED_FAULTS {
        let cfg = ScenarioConfig {
            app: AppKind::Bcp,
            scheme,
            seed: SEED,
            ..ScenarioConfig::default()
        };
        // `measured_run`, spelled out to keep the deployment for the
        // per-episode times.
        let mut dep = Deployment::build(cfg);
        dep.start();
        for region in 0..dep.cfg.regions {
            let order = failure_order(&dep, region);
            match fault {
                Fault::FailBurst { n, reboot } => {
                    for &slot in order.iter().take(n) {
                        inject_failure(&mut dep, region, slot, at);
                        if reboot {
                            inject_reboot(&mut dep, region, slot, at + SimDuration::from_secs(60));
                        }
                    }
                }
                Fault::Depart { n } => {
                    for &slot in order.iter().take(n) {
                        inject_departure(&mut dep, region, slot, at);
                    }
                }
            }
        }
        dep.run_until(to);
        let h = harvest(&dep, from, to);
        let seen_numbers = [
            h.per_region.iter().map(|r| r.outputs as u64).sum::<u64>(),
            h.mean_latency_s.to_bits(),
            h.wifi_bytes.total(),
            h.cell_bytes.total(),
            h.recoveries as u64,
            h.stops,
        ];
        let seen_episodes: Vec<(u64, u64)> = match dep.coordinator {
            Some(co) => dep
                .sim
                .actor::<BaselineCoordinator>(co)
                .recoveries
                .iter()
                .map(|r| (r.started.as_nanos(), r.finished.as_nanos()))
                .collect(),
            None => dep
                .ms_recoveries()
                .iter()
                .map(|r| (r.started.as_nanos(), r.finished.as_nanos()))
                .collect(),
        };
        assert_eq!(seen_episodes.len(), h.recoveries);
        if seen_numbers != numbers || seen_episodes != episodes {
            drift.push(format!(
                "(Scheme::{scheme:?}, Fault::{fault:?}, {seen_numbers:?}, &{seen_episodes:?})"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "the testbed fault harvest changed — observed:\n    {}",
        drift.join("\n    ")
    );
}
