//! The one sweep behind every paper artifact and the scenario matrix:
//! a list of keyed points (a scenario plus its fault injection), each
//! [`run`] at every seed of a range. The artifacts reduce each point's
//! reports to [`Means`].

use std::ops::Range;

use crate::run::{run, FleetReport};
use crate::scenario::{AppKind, Deployment, ScenarioConfig};
use crate::{mean, run_jobs, ExpOptions};

/// The paper's two applications, in the order the artifacts print them.
pub const APPS: [AppKind; 2] = [AppKind::Bcp, AppKind::SignalGuru];

/// Fault injection, applied to each seed's freshly started deployment.
pub type Faults = Box<dyn Fn(&mut Deployment) + Send + Sync>;

/// One point of a sweep.
pub struct Point<K> {
    /// Names the point's results.
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

/// One number over a point's seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The seed mean, summed in seed order.
    pub mean: f64,
    /// The smallest seed's value.
    pub min: f64,
    /// The largest seed's value.
    pub max: f64,
}

/// The report numbers the artifacts print, each over a point's seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Means {
    /// `mean_throughput`: tuples/s per region.
    pub throughput: Spread,
    /// `mean_latency_s`, ∞ for a run without output.
    pub latency_s: Spread,
    /// `preserved_bytes` (Fig 10a).
    pub preserved_bytes: Spread,
    /// `ckpt_repl_bytes` (Fig 10b).
    pub ckpt_repl_bytes: Spread,
    /// `preservation_bytes`: source-preservation WiFi bytes.
    pub preservation_bytes: Spread,
}

impl Means {
    /// Reduce one point's reports, one per seed.
    fn of(reports: &[FleetReport]) -> Self {
        let col = |f: fn(&FleetReport) -> f64| {
            let xs: Vec<f64> = reports.iter().map(f).collect();
            Spread {
                mean: mean(&xs),
                min: xs.iter().copied().fold(f64::INFINITY, f64::min),
                max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            }
        };
        Means {
            throughput: col(|r| r.mean_throughput),
            // The report's -1 for "no output" is ∞ in the artifacts.
            latency_s: col(|r| {
                if r.mean_latency_s < 0.0 {
                    f64::INFINITY
                } else {
                    r.mean_latency_s
                }
            }),
            preserved_bytes: col(|r| r.preserved_bytes as f64),
            ckpt_repl_bytes: col(|r| r.ckpt_repl_bytes as f64),
            preservation_bytes: col(|r| r.preservation_bytes as f64),
        }
    }
}

/// Run every point at every seed of `seeds`: each point's reports in
/// seed order, in point order. With `parallel` the runs spread over
/// the host's cores, without they run one after another.
pub fn runs<K: Sync>(
    points: &[Point<K>],
    seeds: Range<u64>,
    parallel: bool,
) -> Vec<Vec<FleetReport>> {
    let jobs: Vec<_> = points
        .iter()
        .flat_map(|p| {
            seeds.clone().map(move |seed| {
                move || {
                    let cfg = ScenarioConfig {
                        seed,
                        ..p.cfg.clone()
                    };
                    run(&cfg, |dep| (p.faults)(dep))
                }
            })
        })
        .collect();
    let mut reports = run_jobs(parallel, jobs).into_iter();
    points
        .iter()
        .map(|_| reports.by_ref().take(seeds.clone().count()).collect())
        .collect()
}

/// The paper artifacts' sweep: every point measured over
/// `[opts.warmup, opts.warmup + opts.window)` at seeds
/// `seed_base .. seed_base + opts.seeds`, reduced to its [`Means`].
pub fn sweep<K: Sync>(
    mut points: Vec<Point<K>>,
    seed_base: u64,
    opts: ExpOptions,
) -> Vec<(K, Means)> {
    assert!(opts.seeds > 0, "a sweep needs at least one seed");
    for p in &mut points {
        p.cfg.warmup = opts.warmup;
        p.cfg.duration = opts.warmup + opts.window;
    }
    let reports = runs(&points, seed_base..seed_base + opts.seeds, true);
    points
        .into_iter()
        .zip(reports)
        .map(|(p, reports)| (p.key, Means::of(&reports)))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::inject_burst;
    use crate::scenario::Scheme;
    use simkernel::{SimDuration, SimTime};

    /// `scheme` on the testbed at the smoke pin's scale: a 120 s
    /// warm-up and a 60 s window.
    fn smoke(scheme: Scheme) -> ScenarioConfig {
        ScenarioConfig {
            scheme,
            warmup: SimDuration::from_secs(120),
            duration: SimDuration::from_secs(180),
            ..ScenarioConfig::default()
        }
    }

    /// Three artifact points: ms-8 fault-free, dist-2 hit by Fig 9's
    /// 2-failure burst 30 s into the window, and rep-2.
    fn points() -> Vec<Point<Scheme>> {
        let mut dist = Point::steady(Scheme::Dist(2), smoke(Scheme::Dist(2)));
        let burst = SimTime::from_secs(150);
        dist.faults = Box::new(move |dep| inject_burst(dep, 2, burst, false));
        vec![
            Point::steady(Scheme::Ms, smoke(Scheme::Ms)),
            dist,
            Point::steady(Scheme::Rep2, smoke(Scheme::Rep2)),
        ]
    }

    /// The artifacts are deterministic by digest: every seed of every
    /// point reports the same digest on a second sweep, and two seeds
    /// report different ones.
    #[test]
    fn paper_points_are_deterministic_by_digest() {
        let digests = |reports: Vec<Vec<FleetReport>>| -> Vec<Vec<u64>> {
            reports
                .iter()
                .map(|seeds| seeds.iter().map(|r| r.digest).collect())
                .collect()
        };
        let first = digests(runs(&points(), 1..3, true));
        let second = digests(runs(&points(), 1..3, true));
        for ((p, a), b) in points().iter().zip(&first).zip(&second) {
            let label = p.key.label();
            assert_eq!(a, b, "{label}: a seed's digest moved between sweeps");
            assert_ne!(a[0], a[1], "{label}: two seeds, one digest");
        }
    }

    /// Every number carries its range over the seeds next to its mean.
    #[test]
    fn means_carry_their_seed_range() {
        let opts = ExpOptions {
            seeds: 2,
            warmup: SimDuration::from_secs(120),
            window: SimDuration::from_secs(60),
        };
        let means = sweep(vec![Point::steady((), smoke(Scheme::Ms))], 1, opts);
        let m = means[0].1;
        for s in [
            m.throughput,
            m.latency_s,
            m.preserved_bytes,
            m.ckpt_repl_bytes,
            m.preservation_bytes,
        ] {
            assert!(s.min <= s.mean && s.mean <= s.max, "{s:?}");
        }
        assert!(
            m.throughput.min < m.throughput.max,
            "two seeds, one throughput: {:?}",
            m.throughput
        );
    }
}
