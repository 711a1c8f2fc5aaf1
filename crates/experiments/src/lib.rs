//! # experiments — regenerate every table and figure of the paper
//!
//! One spec, one run, one report: a [`ScenarioConfig`] holds a whole
//! scenario (deployment, churn, weather, measurement window, threads),
//! and [`run()`] turns it and a fault injection into a [`FleetReport`]
//! with its determinism digest. Every artifact is a list of keyed
//! [`sweep::Point`]s run through [`sweep::sweep`], which reduces each
//! point's per-seed reports to [`sweep::Means`]; the artifact's
//! `tables` lays those out. `msx` runs the artifacts from
//! [`ARTIFACTS`], and the [`fleet`] profiles and their weather matrix
//! through the same `run`.
//!
//! | Artifact | Functions | Paper claim reproduced |
//! |---|---|---|
//! | Table I | [`table1::means`], [`table1::tables`] | phones beat the server platform 0.78–42.6× throughput, 10–94.8 % latency |
//! | Fig 8 | [`fig8::means`], [`fig8::tables`] | fault-free overhead: local ≈ best, ms close, dist-n worse with n, rep-2 worst |
//! | Fig 9 | [`fig9::means`], [`fig9::tables`] | ms recovery cost flat in n; dist-n degrades and truncates at n; rep-2 truncates at 1 |
//! | Fig 10 | [`fig10::means`], [`fig10::tables`] | preservation: ms ≪ input preservation; network: dist-n ≈ n×, rep-2 ≫, ms ≈ 1 |
//! | Ablations | [`ablate::means`], [`ablate::tables`] | broadcast vs unicast replication, checkpoint period, WiFi loss, preservation |
//!
//! Run via the `msx` binary: `cargo run -p experiments --release -- all`.

pub mod ablate;
pub mod faults;
pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod report;
pub mod run;
pub mod scenario;
pub mod sweep;
pub mod table1;
pub mod weather;

pub use run::{harvest, measured_run, run, FleetReport, Harvest};
pub use scenario::{AppKind, Deployment, Platform, ScenarioConfig, Scheme};

use report::Table;
use simkernel::SimDuration;

/// Common experiment options.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Independent seeded repetitions averaged per data point (the
    /// paper averages 5 runs).
    pub seeds: u64,
    /// Warm-up excluded from measurement (long enough to include the
    /// first committed checkpoint).
    pub warmup: SimDuration,
    /// Measurement window.
    pub window: SimDuration,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            seeds: 3,
            warmup: SimDuration::from_secs(150),
            window: SimDuration::from_secs(1200),
        }
    }
}

impl ExpOptions {
    /// Reduced durations for benches and smoke tests.
    pub fn quick() -> Self {
        ExpOptions {
            seeds: 1,
            warmup: SimDuration::from_secs(120),
            window: SimDuration::from_secs(420),
        }
    }
}

/// An artifact's runner: its `(json name, table)` pairs. The `u32`
/// caps Fig 9's burst size.
pub type Artifact = fn(ExpOptions, u32) -> Vec<(String, Table)>;

/// The paper's artifacts in `msx all` order, each under its `msx`
/// command.
pub const ARTIFACTS: [(&str, Artifact); 5] = [
    ("table1", |opts, _| table1::tables(&table1::means(opts))),
    ("fig8", |opts, _| fig8::tables(&fig8::means(opts))),
    ("fig9", |opts, max_n| {
        fig9::tables(&fig9::means(opts, max_n), max_n)
    }),
    ("fig10", |opts, _| fig10::tables(&fig10::means(opts))),
    ("ablate", |opts, _| ablate::tables(&ablate::means(opts))),
];

/// Run independent jobs and return their results in job order. With
/// `parallel`, up to `available_parallelism()` worker threads pull the
/// jobs from one shared queue; otherwise they run one after another.
/// Each job builds its own simulation (sims are single-threaded and
/// not `Send`; parallelism is across runs, per the workspace's
/// determinism contract).
pub fn run_jobs<T: Send>(parallel: bool, jobs: Vec<impl FnOnce() -> T + Send>) -> Vec<T> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    if !parallel || workers <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    let workers = workers.min(jobs.len());
    let queue = std::sync::Mutex::new(jobs.into_iter().enumerate());
    let mut results: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // A `let` drops the guard before the job runs.
                        let next = queue.lock().expect("no job runs under the lock").next();
                        let Some((i, job)) = next else { break };
                        done.push((i, job()));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("experiment job panicked"))
            .collect()
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Average of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests;
