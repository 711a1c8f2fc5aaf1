//! The four workloads: what one repetition ("rep") of each simulates.
//!
//! A rep is a fixed list of deterministic simulations built from the
//! seed. Inside each simulation the sensor sources are open-loop (a
//! fixed schedule, shed at full queues — `dsps.source_drops`); the
//! benchmark around them is a closed batch: one simulation at a time,
//! the next starts when the previous one has been harvested.

use experiments::fleet::{self, FleetConfig};
use experiments::weather;
use experiments::{AppKind, Platform, ScenarioConfig, Scheme};
use simkernel::SimDuration;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `stadium` fleet profile at one thread.
    Stadium,
    /// The same simulation on two worker threads.
    Stadium2t,
    /// The paper's 4 × 8 testbed under every scheme, platform and fault.
    TestbedSweep,
    /// `commute` fleet profile under the four adverse weathers.
    CommuteStorm,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Stadium,
        Workload::Stadium2t,
        Workload::TestbedSweep,
        Workload::CommuteStorm,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stadium => "stadium",
            Workload::Stadium2t => "stadium-2t",
            Workload::TestbedSweep => "testbed-sweep",
            Workload::CommuteStorm => "commute-storm",
        }
    }

    /// Why the workload is in the set (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Stadium => {
                "8x128 phones, 1 thread: checkpoint broadcast fan-out; mobistreams, dsps batch \
                 reception, simnet wifi and the simkernel queue/pool do the work"
            }
            Workload::Stadium2t => {
                "the same simulation on 2 threads: the run_s difference to stadium is \
                 simkernel's barrier, worker handshake and outbox merge"
            }
            Workload::TestbedSweep => {
                "the paper's 4x8 testbed, 20 sims over every scheme, platform and fault: \
                 data plane, apps frame synthesis, baselines, ethernet"
            }
            Workload::CommuteStorm => {
                "8x16 commuting phones under 4 weathers: recovery, partition resync, \
                 membership deltas, bounded cellular queues, broadcast at 50-70 % loss"
            }
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulations of one rep. Pure function of `(self, seed)`.
    pub fn sims(self, seed: u64) -> Vec<SimSpec> {
        match self {
            Workload::Stadium => vec![stadium(seed, 1)],
            Workload::Stadium2t => vec![stadium(seed, 2)],
            Workload::TestbedSweep => testbed_sweep(seed),
            Workload::CommuteStorm => commute_storm(seed),
        }
    }
}

/// Faults injected into a testbed simulation, `FAULT_AFTER` into the
/// measurement window, on every region, in `faults::failure_order`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fault-free.
    None,
    /// `n` phones fail at once; with `reboot` they come back
    /// `REBOOT_AFTER` later.
    FailBurst {
        /// Burst size per region.
        n: u32,
        /// Whether the failed phones reboot.
        reboot: bool,
    },
    /// `n` phones depart at once.
    Depart {
        /// Departures per region.
        n: u32,
    },
}

/// Burst offset into the measurement window (as Fig 9 does it).
pub const FAULT_AFTER: SimDuration = SimDuration::from_secs(30);
/// Reboot delay after a failure burst.
pub const REBOOT_AFTER: SimDuration = SimDuration::from_secs(60);

/// One simulation of a rep.
#[derive(Clone)]
pub enum SimSpec {
    /// A fleet scenario (sharded kernel, churn, optional weather).
    Fleet(FleetConfig),
    /// A testbed deployment measured over `[warmup, warmup + window)`,
    /// as `experiments::run::measured_run` runs it.
    Testbed {
        /// Deployment parameters.
        cfg: ScenarioConfig,
        /// Warm-up excluded from the measurement window.
        warmup: SimDuration,
        /// Measurement window.
        window: SimDuration,
        /// Faults injected.
        fault: Fault,
    },
}

fn stadium(seed: u64, threads: usize) -> SimSpec {
    let mut cfg = fleet::profile("stadium", seed).expect("stadium is a library profile");
    cfg.threads = threads;
    SimSpec::Fleet(cfg)
}

/// The weathers `commute-storm` runs, one simulation each.
pub const STORM_WEATHERS: [&str; 4] = ["partition-heal", "brownout-front", "flap", "blackout"];

fn commute_storm(seed: u64) -> Vec<SimSpec> {
    STORM_WEATHERS
        .iter()
        .map(|name| {
            let mut cfg = fleet::profile("commute", seed).expect("commute is a library profile");
            cfg.weather = Some(
                weather::weather(name, seed, cfg.topo()).expect("storm weathers are built in"),
            );
            SimSpec::Fleet(cfg)
        })
        .collect()
}

/// Sensor-phone uplink of the server platform (the top of the paper's
/// 0.016–0.32 Mbps sweep).
const SERVER_UPLINK_BPS: f64 = 320_000.0;

fn testbed_sweep(seed: u64) -> Vec<SimSpec> {
    use Fault::*;
    let phones = Platform::Phones;
    let server = Platform::Server {
        uplink_bps: SERVER_UPLINK_BPS,
    };
    let per_app: [(Scheme, Platform, Fault); 10] = [
        (Scheme::Base, phones, None),
        (Scheme::Ms, phones, None),
        (Scheme::Rep2, phones, None),
        (Scheme::Local, phones, None),
        (Scheme::Dist(2), phones, None),
        (Scheme::Upstream, phones, None),
        (Scheme::Base, server, None),
        (Scheme::Ms, phones, FailBurst { n: 3, reboot: true }),
        (Scheme::Ms, phones, Depart { n: 2 }),
        (
            Scheme::Dist(3),
            phones,
            FailBurst {
                n: 3,
                reboot: false,
            },
        ),
    ];
    [AppKind::Bcp, AppKind::SignalGuru]
        .into_iter()
        .flat_map(|app| per_app.into_iter().map(move |row| (app, row)))
        .enumerate()
        .map(
            |(index, (app, (scheme, platform, fault)))| SimSpec::Testbed {
                cfg: ScenarioConfig {
                    app,
                    scheme,
                    platform,
                    seed: seed.wrapping_mul(1000).wrapping_add(index as u64),
                    ..ScenarioConfig::default()
                },
                warmup: SimDuration::from_secs(120),
                window: SimDuration::from_secs(420),
                fault,
            },
        )
        .collect()
}
