//! Deterministic network-weather engine: declarative weather programs
//! compiled into concrete simulation injections.
//!
//! A [`WeatherProgram`] is a list of [`WeatherSystem`]s — region-set
//! cellular partitions with scheduled heals, correlated AP brownouts,
//! flapping links, controller blackouts — plus a declared recovery
//! SLO. [`compile`] turns a program into a sorted schedule of
//! [`WeatherInjection`]s (pure function, unit-testable without a
//! deployment); `Deployment::start` maps those onto the simnet
//! primitives ([`simnet::cellular::CellSetPartition`],
//! [`simnet::wifi::WifiSetBrownout`]). [`fault_windows`] derives the
//! per-region fault timeline skeleton (partition start → scheduled
//! heal) that `run::run` joins against the controller's commit log to
//! measure recovery latency and enforce the SLO.
//!
//! The seeded generators behind [`weather`] place partition starts in
//! *ping-safe* offsets of the controller's 30 s ping cadence: a
//! partition that begins while a ping round is in flight cuts the
//! pongs of pings that carried no severed evidence, so the deadline
//! can misread the first seconds of weather as a mass failure. Real
//! weather does that too — the engine keeps the named profiles out of
//! that window so their SLO numbers measure heal behavior, not
//! detection-race noise (the `flap` profile's cycle period is a
//! multiple of the cadence for the same reason).

use simkernel::{SimRng, SimTime};

/// Shape of the sharded control plane as weather sees it: how many
/// regions exist, each under its own region controller. A controller
/// blackout is a per-region fault — one controller dropping off the
/// cellular core severs its own region and nobody else's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlTopology {
    /// Regions in the fleet.
    pub regions: usize,
}

impl CtlTopology {
    /// A topology of `regions` regions. `group_size` must be 1; the
    /// argument stays until `msbench` (its own workspace) stops
    /// passing it.
    pub fn new(regions: usize, group_size: usize) -> Self {
        assert_eq!(group_size, 1, "one controller per region");
        CtlTopology { regions }
    }
}

/// One weather system. Times are absolute simulation seconds; `heal_s`
/// is when the condition clears (not a duration).
#[derive(Debug, Clone)]
pub enum WeatherSystem {
    /// Sever a set of regions from the cellular core between `at_s`
    /// and `heal_s`. Endpoints stay alive: queued traffic ages out via
    /// the timeout path and tagged senders get `TxSevered`, not death.
    CellPartition {
        /// Regions cut off.
        regions: Vec<usize>,
        /// Partition start.
        at_s: f64,
        /// Scheduled heal.
        heal_s: f64,
    },
    /// Region-wide WiFi brownout: every phone's medium loss is pinned
    /// at `loss` between `at_s` and `heal_s`, then the pre-brownout
    /// loss profile is restored.
    ApBrownout {
        /// Regions affected.
        regions: Vec<usize>,
        /// Brownout start.
        at_s: f64,
        /// Scheduled heal.
        heal_s: f64,
        /// Pinned loss probability while the brownout lasts.
        loss: f64,
    },
    /// A flapping cellular link: `cycles` partition pulses of `down_s`
    /// seconds, `up_s` seconds apart, starting at `at_s`. Reported as
    /// ONE fault window spanning first cut to last heal.
    LinkFlap {
        /// Region flapping.
        region: usize,
        /// First cut.
        at_s: f64,
        /// Number of down pulses.
        cycles: u32,
        /// Length of each down pulse.
        down_s: f64,
        /// Gap between pulses.
        up_s: f64,
    },
    /// One region controller's cellular endpoint is partitioned: its
    /// region is weather-severed, while the rest of the fleet keeps
    /// committing rounds.
    ControllerBlackout {
        /// Region whose controller goes dark.
        region: usize,
        /// Blackout start.
        at_s: f64,
        /// Scheduled heal.
        heal_s: f64,
    },
}

/// A declarative weather program for one fleet run.
#[derive(Debug, Clone)]
pub struct WeatherProgram {
    /// Name (report label).
    pub name: String,
    /// The systems rolling through.
    pub systems: Vec<WeatherSystem>,
    /// Declared recovery SLO: after a partition's scheduled heal, each
    /// affected region must commit a checkpoint round within this many
    /// seconds. Negative = no SLO declared (e.g. brownout-only
    /// programs, which never cut the control path).
    pub recovery_slo_s: f64,
}

impl WeatherProgram {
    /// A program with no systems (the matrix baseline column).
    pub fn calm() -> Self {
        WeatherProgram {
            name: "calm".into(),
            systems: Vec::new(),
            recovery_slo_s: -1.0,
        }
    }
}

/// One concrete, compiled weather action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeatherAction {
    /// Partition (or heal) one region's phones off the cellular core.
    PartitionRegion {
        /// Region affected.
        region: usize,
        /// true = sever, false = heal.
        on: bool,
    },
    /// Pin (or restore) one region's WiFi loss.
    Brownout {
        /// Region affected.
        region: usize,
        /// true = pin at `loss`, false = restore.
        on: bool,
        /// Loss pinned while on.
        loss: f64,
    },
    /// Partition (or heal) one region controller's endpoint.
    PartitionController {
        /// Region whose controller is affected.
        region: usize,
        /// true = sever, false = heal.
        on: bool,
    },
}

/// A scheduled weather action.
#[derive(Debug, Clone, Copy)]
pub struct WeatherInjection {
    /// When.
    pub at: SimTime,
    /// What.
    pub action: WeatherAction,
}

fn secs(s: f64) -> SimTime {
    SimTime::from_nanos((s.max(0.0) * 1e9) as u64)
}

/// Compile a program into a sorted injection schedule. Pure function:
/// same program, same schedule. Systems naming out-of-range regions or
/// non-positive windows are skipped (a program is data, not trusted
/// input).
pub fn compile(program: &WeatherProgram, topo: CtlTopology) -> Vec<WeatherInjection> {
    let regions = topo.regions;
    let mut out = Vec::new();
    for sys in &program.systems {
        match sys {
            WeatherSystem::CellPartition {
                regions: set,
                at_s,
                heal_s,
            } => {
                if *heal_s <= *at_s {
                    continue;
                }
                for &r in set {
                    if r >= regions {
                        continue;
                    }
                    out.push(WeatherInjection {
                        at: secs(*at_s),
                        action: WeatherAction::PartitionRegion {
                            region: r,
                            on: true,
                        },
                    });
                    out.push(WeatherInjection {
                        at: secs(*heal_s),
                        action: WeatherAction::PartitionRegion {
                            region: r,
                            on: false,
                        },
                    });
                }
            }
            WeatherSystem::ApBrownout {
                regions: set,
                at_s,
                heal_s,
                loss,
            } => {
                if *heal_s <= *at_s {
                    continue;
                }
                for &r in set {
                    if r >= regions {
                        continue;
                    }
                    out.push(WeatherInjection {
                        at: secs(*at_s),
                        action: WeatherAction::Brownout {
                            region: r,
                            on: true,
                            loss: *loss,
                        },
                    });
                    out.push(WeatherInjection {
                        at: secs(*heal_s),
                        action: WeatherAction::Brownout {
                            region: r,
                            on: false,
                            loss: *loss,
                        },
                    });
                }
            }
            WeatherSystem::LinkFlap {
                region,
                at_s,
                cycles,
                down_s,
                up_s,
            } => {
                if *region >= regions || *down_s <= 0.0 || *cycles == 0 {
                    continue;
                }
                let period = down_s + up_s.max(0.0);
                for c in 0..*cycles {
                    let t0 = at_s + c as f64 * period;
                    out.push(WeatherInjection {
                        at: secs(t0),
                        action: WeatherAction::PartitionRegion {
                            region: *region,
                            on: true,
                        },
                    });
                    out.push(WeatherInjection {
                        at: secs(t0 + down_s),
                        action: WeatherAction::PartitionRegion {
                            region: *region,
                            on: false,
                        },
                    });
                }
            }
            WeatherSystem::ControllerBlackout {
                region,
                at_s,
                heal_s,
            } => {
                if *heal_s <= *at_s || *region >= regions {
                    continue;
                }
                out.push(WeatherInjection {
                    at: secs(*at_s),
                    action: WeatherAction::PartitionController {
                        region: *region,
                        on: true,
                    },
                });
                out.push(WeatherInjection {
                    at: secs(*heal_s),
                    action: WeatherAction::PartitionController {
                        region: *region,
                        on: false,
                    },
                });
            }
        }
    }
    // Deterministic total order; heals before cuts at equal instants so
    // back-to-back windows never fuse into a never-healed partition.
    out.sort_by_key(|i| (i.at, action_rank(&i.action)));
    out
}

fn action_rank(a: &WeatherAction) -> (u8, usize, u8) {
    match a {
        WeatherAction::PartitionRegion { region, on } => (0, *region, *on as u8),
        WeatherAction::Brownout { region, on, .. } => (1, *region, *on as u8),
        WeatherAction::PartitionController { region, on } => (2, *region, *on as u8),
    }
}

/// Control-path fault windows of a program: `(region, start, heal)`
/// for every interval during which the region cannot reach its
/// controller. Brownouts are excluded (WiFi weather never cuts the
/// control path); a [`WeatherSystem::LinkFlap`] is one window from
/// first cut to last heal; a controller blackout covers exactly its
/// region. Overlapping windows of the same region are merged.
pub fn fault_windows(
    program: &WeatherProgram,
    topo: CtlTopology,
) -> Vec<(usize, SimTime, SimTime)> {
    let regions = topo.regions;
    let mut raw: Vec<(usize, SimTime, SimTime)> = Vec::new();
    for sys in &program.systems {
        match sys {
            WeatherSystem::CellPartition {
                regions: set,
                at_s,
                heal_s,
            } if *heal_s > *at_s => {
                for &r in set {
                    if r < regions {
                        raw.push((r, secs(*at_s), secs(*heal_s)));
                    }
                }
            }
            WeatherSystem::LinkFlap {
                region,
                at_s,
                cycles,
                down_s,
                up_s,
            } if *region < regions && *down_s > 0.0 && *cycles > 0 => {
                let period = down_s + up_s.max(0.0);
                let last_heal = at_s + (*cycles - 1) as f64 * period + down_s;
                raw.push((*region, secs(*at_s), secs(last_heal)));
            }
            WeatherSystem::ControllerBlackout {
                region,
                at_s,
                heal_s,
            } if *heal_s > *at_s && *region < regions => {
                raw.push((*region, secs(*at_s), secs(*heal_s)));
            }
            _ => {}
        }
    }
    raw.sort_by_key(|&(r, a, b)| (r, a, b));
    let mut merged: Vec<(usize, SimTime, SimTime)> = Vec::new();
    for w in raw {
        match merged.last_mut() {
            Some(m) if m.0 == w.0 && w.1 <= m.2 => m.2 = m.2.max(w.2),
            _ => merged.push(w),
        }
    }
    merged
}

/// Names of the built-in weather profiles.
pub const WEATHER_NAMES: &[&str] = &[
    "calm",
    "partition-heal",
    "brownout-front",
    "flap",
    "blackout",
];

/// Snap a start time into a ping-safe offset of the 30 s cadence (see
/// the module docs): `[base, base+8)` seeded jitter inside the
/// `[+12, +20) mod 30` band.
fn ping_safe(rng: &mut SimRng, slot_30s: f64) -> f64 {
    slot_30s * 30.0 + 12.0 + rng.uniform(0.0, 8.0)
}

/// Build a named weather profile for a fleet with the given control
/// topology. Seeded and deterministic: same `(name, seed, topo)`, same
/// program. `None` for unknown names.
pub fn weather(name: &str, seed: u64, topo: CtlTopology) -> Option<WeatherProgram> {
    let mut rng = SimRng::new(seed ^ 0x5EA5_0B1A_57ED_C0DE);
    let r = topo.regions.max(1);
    let program = match name {
        "calm" => WeatherProgram::calm(),
        "partition-heal" => {
            // Two staggered partition episodes with scheduled heals:
            // a front over the first quarter of the fleet, then a
            // second cell over the last region. Early enough that the
            // post-heal checkpoint round lands well inside every
            // profile's horizon.
            let m = (r / 4).max(1);
            let ep0_at = ping_safe(&mut rng, 2.0); // ~[72, 80)
            let ep0_heal = ep0_at + 60.0 + rng.uniform(0.0, 10.0);
            let ep1_at = ping_safe(&mut rng, 5.0); // ~[162, 170)
            let ep1_heal = ep1_at + 25.0 + rng.uniform(0.0, 10.0);
            WeatherProgram {
                name: name.into(),
                systems: vec![
                    WeatherSystem::CellPartition {
                        regions: (0..m).collect(),
                        at_s: ep0_at,
                        heal_s: ep0_heal,
                    },
                    WeatherSystem::CellPartition {
                        regions: vec![r - 1],
                        at_s: ep1_at,
                        heal_s: ep1_heal,
                    },
                ],
                recovery_slo_s: 260.0,
            }
        }
        "brownout-front" => {
            // A correlated interference front sweeping the fleet:
            // region r browns out ~25 s after region r-1, each episode
            // pinning loss at 50-70 % for about a minute.
            let systems = (0..r)
                .map(|reg| {
                    let at = 90.0 + 25.0 * reg as f64 + rng.uniform(0.0, 10.0);
                    WeatherSystem::ApBrownout {
                        regions: vec![reg],
                        at_s: at,
                        heal_s: at + 50.0 + rng.uniform(0.0, 20.0),
                        loss: 0.5 + rng.uniform(0.0, 0.2),
                    }
                })
                .collect();
            WeatherProgram {
                name: name.into(),
                systems,
                recovery_slo_s: -1.0,
            }
        }
        "flap" => {
            // One region's backhaul flaps: 12 s cuts every 60 s. The
            // 60 s cycle is a multiple of the ping cadence, so every
            // cut stays in the same ping-safe phase as the first.
            let region = (seed as usize) % r;
            WeatherProgram {
                name: name.into(),
                systems: vec![WeatherSystem::LinkFlap {
                    region,
                    at_s: ping_safe(&mut rng, 2.0),
                    cycles: 3,
                    down_s: 12.0,
                    up_s: 48.0,
                }],
                recovery_slo_s: 260.0,
            }
        }
        "blackout" => {
            // One region controller drops off the cellular core for
            // ~45 s: its region is weather-severed while every other
            // region keeps committing.
            let region = (seed as usize) % r;
            let at = ping_safe(&mut rng, 3.0); // ~[102, 110)
            WeatherProgram {
                name: name.into(),
                systems: vec![WeatherSystem::ControllerBlackout {
                    region,
                    at_s: at,
                    heal_s: at + 45.0,
                }],
                recovery_slo_s: 260.0,
            }
        }
        _ => return None,
    };
    Some(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(regions: usize) -> CtlTopology {
        CtlTopology { regions }
    }

    #[test]
    fn compile_is_deterministic_and_sorted() {
        let p = weather("partition-heal", 9, topo(4)).unwrap();
        let a = compile(&p, topo(4));
        let b = compile(&p, topo(4));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(format!("{:?}", x.action), format!("{:?}", y.action));
        }
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "unsorted");
        assert!(!a.is_empty());
    }

    #[test]
    fn weather_profiles_resolve_and_are_seed_sensitive() {
        for name in WEATHER_NAMES {
            let p = weather(name, 3, topo(4)).expect("known weather");
            assert_eq!(&p.name, name);
        }
        assert!(weather("hurricane", 3, topo(4)).is_none());
        let a = compile(&weather("partition-heal", 1, topo(4)).unwrap(), topo(4));
        let b = compile(&weather("partition-heal", 2, topo(4)).unwrap(), topo(4));
        let same = a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| x.at == y.at);
        assert!(!same, "different seeds produced identical schedules");
    }

    #[test]
    fn blackout_targets_one_group_and_tracks_the_seed() {
        // The blacked-out region is seed-derived and always in range.
        let hit: std::collections::BTreeSet<usize> = (0..8)
            .map(|seed| {
                let p = weather("blackout", seed, topo(6)).unwrap();
                match p.systems[0] {
                    WeatherSystem::ControllerBlackout { region, .. } => {
                        assert!(region < 6);
                        region
                    }
                    _ => panic!("blackout profile must be a ControllerBlackout"),
                }
            })
            .collect();
        assert!(hit.len() > 1, "seed never moved the blacked-out region");
    }

    #[test]
    fn every_partition_cut_has_a_matching_heal() {
        for name in WEATHER_NAMES {
            let p = weather(name, 5, topo(6)).unwrap();
            let inj = compile(&p, topo(6));
            let mut open: std::collections::BTreeMap<String, i64> = Default::default();
            for i in &inj {
                let (key, on) = match i.action {
                    WeatherAction::PartitionRegion { region, on } => (format!("r{region}"), on),
                    WeatherAction::Brownout { region, on, .. } => (format!("b{region}"), on),
                    WeatherAction::PartitionController { region, on } => {
                        (format!("ctl{region}"), on)
                    }
                };
                *open.entry(key).or_default() += if on { 1 } else { -1 };
            }
            for (k, v) in open {
                assert_eq!(v, 0, "{name}: unbalanced cut/heal for {k}");
            }
        }
    }

    #[test]
    fn fault_windows_merge_and_scope_blackouts_to_the_group() {
        let p = WeatherProgram {
            name: "t".into(),
            systems: vec![
                WeatherSystem::CellPartition {
                    regions: vec![0, 1],
                    at_s: 10.0,
                    heal_s: 30.0,
                },
                // Overlaps region 1's first window: must merge.
                WeatherSystem::CellPartition {
                    regions: vec![1],
                    at_s: 20.0,
                    heal_s: 50.0,
                },
                // Region 1's controller goes dark; regions 0 and 2 must
                // stay clear of this blackout.
                WeatherSystem::ControllerBlackout {
                    region: 1,
                    at_s: 100.0,
                    heal_s: 120.0,
                },
                // Brownouts never produce control-path windows.
                WeatherSystem::ApBrownout {
                    regions: vec![2],
                    at_s: 5.0,
                    heal_s: 500.0,
                    loss: 0.9,
                },
            ],
            recovery_slo_s: 100.0,
        };
        let w = fault_windows(&p, topo(3));
        assert_eq!(
            w,
            vec![
                (0, secs(10.0), secs(30.0)),
                (1, secs(10.0), secs(50.0)),
                (1, secs(100.0), secs(120.0)),
            ]
        );
    }

    #[test]
    fn out_of_range_regions_and_empty_windows_are_skipped() {
        let p = WeatherProgram {
            name: "t".into(),
            systems: vec![
                WeatherSystem::CellPartition {
                    regions: vec![7],
                    at_s: 10.0,
                    heal_s: 20.0,
                },
                WeatherSystem::CellPartition {
                    regions: vec![0],
                    at_s: 20.0,
                    heal_s: 20.0,
                },
                // A controller blackout past the topology is skipped
                // like any out-of-range region.
                WeatherSystem::ControllerBlackout {
                    region: 5,
                    at_s: 10.0,
                    heal_s: 20.0,
                },
            ],
            recovery_slo_s: 1.0,
        };
        assert!(compile(&p, topo(2)).is_empty());
        assert!(fault_windows(&p, topo(2)).is_empty());
    }

    #[test]
    fn partition_starts_sit_in_the_ping_safe_band() {
        for seed in 0..20 {
            let p = weather("partition-heal", seed, topo(8)).unwrap();
            for sys in &p.systems {
                if let WeatherSystem::CellPartition { at_s, .. } = sys {
                    let phase = at_s % 30.0;
                    assert!(
                        (12.0..20.0).contains(&phase),
                        "seed {seed}: start {at_s} (phase {phase}) outside the safe band"
                    );
                }
            }
        }
    }
}
