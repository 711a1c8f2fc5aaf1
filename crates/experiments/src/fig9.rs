//! Fig 9: relative throughput and latency when `n` nodes fail (or
//! depart) simultaneously within one checkpoint period. Values include
//! down time and recovery time, normalized to the fault-free base.
//!
//! Expected shapes (paper): the ms-8 failure curve is flat — recovery
//! restores all nodes from local copies in parallel; dist-n degrades
//! as n grows (serialized state fetches over the shared WiFi) and ends
//! at n; rep-2 ends at 1; ms departures cost less than failures until
//! many phones hit the cellular network at once.

use simkernel::{SimDuration, SimTime};

use crate::faults::inject_burst;
use crate::report::{Cell, Table};
use crate::scenario::{AppKind, ScenarioConfig, Scheme};
use crate::sweep::{at, relative, sweep, Means, Point, APPS};
use crate::ExpOptions;

/// A Fig 9 curve id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Curve {
    /// ms-8 with n simultaneous failures.
    MsFailure,
    /// ms-8 with n simultaneous departures.
    MsDeparture,
    /// rep-2 with n failures.
    Rep2Failure,
    /// dist-n with n failures.
    DistFailure(u32),
}

impl Curve {
    /// Label.
    pub fn label(&self) -> String {
        match self {
            Curve::MsFailure => "ms-8 failure".into(),
            Curve::MsDeparture => "ms-8 departure".into(),
            Curve::Rep2Failure => "rep-2 failure".into(),
            Curve::DistFailure(n) => format!("dist-{n} failure"),
        }
    }

    fn scheme(&self) -> Scheme {
        match self {
            Curve::MsFailure | Curve::MsDeparture => Scheme::Ms,
            Curve::Rep2Failure => Scheme::Rep2,
            Curve::DistFailure(n) => Scheme::Dist(*n),
        }
    }

    /// Largest n the scheme claims to tolerate (paper truncates curves
    /// there); ms handles all.
    pub fn max_tolerated(&self, phones: u32) -> u32 {
        match self {
            Curve::MsFailure | Curve::MsDeparture => phones,
            Curve::Rep2Failure => 1,
            Curve::DistFailure(n) => *n,
        }
    }
}

/// The curves of the figure.
pub fn curves() -> Vec<Curve> {
    vec![
        Curve::MsFailure,
        Curve::MsDeparture,
        Curve::Rep2Failure,
        Curve::DistFailure(1),
        Curve::DistFailure(2),
        Curve::DistFailure(3),
    ]
}

/// A Fig 9 point: an app and either a curve at burst size `n` or, with
/// no curve and `n` = 0, the fault-free base every curve is relative to.
pub type Key = (AppKind, Option<Curve>, u32);

/// Fig 9's seed means for every curve at every `n` in `0..=max_n`
/// (paper: 8) up to the curve's tolerance, plus each app's fault-free
/// base. Points past the tolerance are not run: the table prints them
/// as `-`.
pub fn means(opts: ExpOptions, max_n: u32) -> Vec<(Key, Means)> {
    // The burst lands 30 s into the measurement window.
    let burst_at = SimTime::ZERO + opts.warmup + SimDuration::from_secs(30);
    let mut points = Vec::new();
    for app in APPS {
        let base = ScenarioConfig {
            app,
            scheme: Scheme::Base,
            ..ScenarioConfig::default()
        };
        points.push(Point::steady((app, None, 0), base));
        for curve in curves() {
            let departures = curve == Curve::MsDeparture;
            for n in 0..=max_n.min(curve.max_tolerated(8)) {
                let cfg = ScenarioConfig {
                    app,
                    scheme: curve.scheme(),
                    ..ScenarioConfig::default()
                };
                let mut point = Point::steady((app, Some(curve), n), cfg);
                point.faults = Box::new(move |dep| inject_burst(dep, n, burst_at, departures));
                points.push(point);
            }
        }
    }
    sweep(points, 500, opts)
}

/// One table per app per metric: a row per curve, a column per `n`.
pub fn tables(means: &[(Key, Means)], max_n: u32) -> Vec<(String, Table)> {
    let mut tables = Vec::new();
    for app in APPS {
        let base = at(means, (app, None, 0));
        for (tput, title) in [(true, "relative throughput"), (false, "relative latency")] {
            let mut cols = vec!["curve".to_string()];
            cols.extend((0..=max_n).map(|n| format!("n={n}")));
            let mut t = Table::new(
                format!(
                    "Fig 9 — {} {title} vs n simultaneous failures/departures",
                    app.label()
                ),
                cols,
            );
            for curve in curves() {
                let cells = (0..=max_n)
                    .map(|n| {
                        if n > curve.max_tolerated(8) {
                            // Beyond the scheme's tolerance the paper
                            // truncates the curve.
                            return Cell::Dash;
                        }
                        let m = at(means, (app, Some(curve), n));
                        if tput {
                            Cell::Pct(relative(m.throughput.mean, base.throughput.mean, 0.0))
                        } else {
                            Cell::Num(relative(
                                m.latency_s.mean,
                                base.latency_s.mean,
                                f64::INFINITY,
                            ))
                        }
                    })
                    .collect();
                t.row(curve.label(), cells);
            }
            tables.push((format!("fig9_{}", tables.len()), t));
        }
    }
    tables
}
