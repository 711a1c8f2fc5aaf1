//! The one measured-run sweep behind every paper artifact: a list of
//! keyed points (a scenario plus its fault injection), each run at
//! every seed of a range and reduced to its seed means.

use crate::run::measured_run;
use crate::scenario::{AppKind, Deployment, ScenarioConfig};
use crate::{mean, run_jobs, ExpOptions};

/// The paper's two applications, in the order the artifacts print them.
pub const APPS: [AppKind; 2] = [AppKind::Bcp, AppKind::SignalGuru];

/// Fault injection, applied to each seed's freshly started deployment.
pub type Faults = Box<dyn Fn(&mut Deployment) + Send + Sync>;

/// One point of a sweep.
pub struct Point<K> {
    /// Names the point's means in the sweep's result.
    pub key: K,
    /// The scenario; the sweep sets its `seed`.
    pub cfg: ScenarioConfig,
    /// Injected after the deployment starts.
    pub faults: Faults,
}

impl<K> Point<K> {
    /// A point with no injected faults.
    pub fn steady(key: K, cfg: ScenarioConfig) -> Self {
        Point {
            key,
            cfg,
            faults: Box::new(|_| {}),
        }
    }
}

/// The seed means of the [`crate::Harvest`] numbers the artifacts
/// print.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Means {
    /// `mean_throughput`: tuples/s per region.
    pub throughput: f64,
    /// `mean_latency_s`.
    pub latency_s: f64,
    /// `preserved_bytes` (Fig 10a).
    pub preserved_bytes: f64,
    /// `ckpt_repl_bytes` (Fig 10b).
    pub ckpt_repl_bytes: f64,
    /// `wifi_bytes.preservation`: source-preservation WiFi bytes.
    pub preservation_bytes: f64,
}

/// Run every point at seeds `seed_base .. seed_base + opts.seeds` and
/// return each point's key and seed means, in point order. Each mean
/// sums its runs in seed order, so it does not depend on which run
/// finished first.
pub fn sweep<K: Sync>(points: Vec<Point<K>>, seed_base: u64, opts: ExpOptions) -> Vec<(K, Means)> {
    assert!(opts.seeds > 0, "a sweep needs at least one seed");
    let seeds = seed_base..seed_base + opts.seeds;
    let jobs: Vec<_> = points
        .iter()
        .flat_map(|p| {
            seeds.clone().map(move |seed| {
                move || {
                    let cfg = ScenarioConfig {
                        seed,
                        ..p.cfg.clone()
                    };
                    let h = measured_run(cfg, opts.warmup, opts.window, |dep| (p.faults)(dep));
                    [
                        h.mean_throughput,
                        h.mean_latency_s,
                        h.preserved_bytes as f64,
                        h.ckpt_repl_bytes as f64,
                        h.wifi_bytes.preservation as f64,
                    ]
                }
            })
        })
        .collect();
    let runs = run_jobs(true, jobs);
    points
        .into_iter()
        .zip(runs.chunks(opts.seeds as usize))
        .map(|(p, runs)| {
            let col = |i: usize| mean(&runs.iter().map(|r| r[i]).collect::<Vec<_>>());
            let m = Means {
                throughput: col(0),
                latency_s: col(1),
                preserved_bytes: col(2),
                ckpt_repl_bytes: col(3),
                preservation_bytes: col(4),
            };
            (p.key, m)
        })
        .collect()
}

/// The means swept for `key`.
pub fn at<K: PartialEq>(means: &[(K, Means)], key: K) -> Means {
    means
        .iter()
        .find(|(k, _)| *k == key)
        .map(|&(_, m)| m)
        .expect("a table reads only swept keys")
}

/// `x` relative to `reference`, or `fallback` when the reference is
/// not positive.
pub(crate) fn relative(x: f64, reference: f64, fallback: f64) -> f64 {
    if reference > 0.0 {
        x / reference
    } else {
        fallback
    }
}
