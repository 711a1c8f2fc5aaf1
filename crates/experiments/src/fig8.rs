//! Fig 8: relative throughput and latency of every fault-tolerance
//! scheme on the smartphone platform, **without** failures — pure
//! steady-state overhead (source/input preservation, checkpointing or
//! replication traffic competing with the data flow).

use crate::report::{Cell, Table};
use crate::scenario::{AppKind, ScenarioConfig, Scheme};
use crate::sweep::{at, relative, sweep, Means, Point, APPS};
use crate::ExpOptions;

/// Scheme order of the paper's bars.
pub fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::Base,
        Scheme::Rep2,
        Scheme::Local,
        Scheme::Dist(1),
        Scheme::Dist(2),
        Scheme::Dist(3),
        Scheme::Ms,
    ]
}

/// The points of Figs 8 and 10: every scheme on both apps, fault-free.
pub(crate) fn steady_points() -> Vec<Point<(AppKind, Scheme)>> {
    let mut points = Vec::new();
    for app in APPS {
        for scheme in schemes() {
            let cfg = ScenarioConfig {
                app,
                scheme,
                ..ScenarioConfig::default()
            };
            points.push(Point::steady((app, scheme), cfg));
        }
    }
    points
}

/// Fig 8's seed means per `(app, scheme)`.
pub fn means(opts: ExpOptions) -> Vec<((AppKind, Scheme), Means)> {
    sweep(steady_points(), 1000, opts)
}

/// Fig 8: throughput, then latency, relative to each app's base.
pub fn tables(means: &[((AppKind, Scheme), Means)]) -> Vec<(String, Table)> {
    vec![
        (
            "fig8_0".into(),
            scheme_table(
                "Fig 8 — relative throughput (fault-free, normalized to base)",
                "tput/s",
                means,
                Scheme::Base,
                |m, base| {
                    [
                        Cell::Pct(relative(m.throughput.mean, base.throughput.mean, 0.0)),
                        Cell::Num(m.throughput.mean),
                    ]
                },
            ),
        ),
        (
            "fig8_1".into(),
            scheme_table(
                "Fig 8 — relative latency (fault-free, normalized to base)",
                "lat s",
                means,
                Scheme::Base,
                |m, base| {
                    [
                        Cell::Num(relative(
                            m.latency_s.mean,
                            base.latency_s.mean,
                            f64::INFINITY,
                        )),
                        Cell::Num(m.latency_s.mean),
                    ]
                },
            ),
        ),
    ]
}

/// The layout of Figs 8 and 10: one row per scheme and, per app, the
/// `cells` of the scheme's means next to the app's `reference` scheme's
/// means — a relative value, then an absolute one in `unit`.
pub(crate) fn scheme_table(
    title: &str,
    unit: &str,
    means: &[((AppKind, Scheme), Means)],
    reference: Scheme,
    cells: impl Fn(Means, Means) -> [Cell; 2],
) -> Table {
    let mut t = Table::new(
        title,
        vec![
            "scheme".into(),
            "BCP".into(),
            format!("BCP {unit}"),
            "SignalGuru".into(),
            format!("SG {unit}"),
        ],
    );
    for scheme in schemes() {
        let row = APPS
            .into_iter()
            .flat_map(|app| cells(at(means, (app, scheme)), at(means, (app, reference))))
            .collect();
        t.row(scheme.label(), row);
    }
    t
}
