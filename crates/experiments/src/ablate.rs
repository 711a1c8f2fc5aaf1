//! Ablations of MobiStreams' design choices (`msx ablate`; see README
//! "Quickstart"):
//!
//! * **broadcast vs unicast replication** — ms's single broadcast
//!   reaching all 7 peers vs shipping the same state as 7 unicasts
//!   (`dist-7`): the airtime argument behind §III-C.
//! * **checkpoint period** — §III-D: longer periods preserve more
//!   input and lengthen catch-up.
//! * **WiFi loss rate** — drives how many UDP phases the broadcast
//!   loop runs before cost exceeds gain.
//! * **source preservation on/off** — what §III-B step 3 costs.

use simkernel::SimDuration;

use crate::report::{Cell, Table};
use crate::scenario::{AppKind, ScenarioConfig, Scheme};
use crate::sweep::{sweep, Means, Point};
use crate::ExpOptions;

/// An ablation point: the knob and its setting.
pub type Key = (&'static str, String);

/// The ablations' means on BCP, MobiStreams unless the setting says
/// otherwise, in table order. Every point runs the one seed 4000.
pub fn means(opts: ExpOptions) -> Vec<(Key, Means)> {
    let ms = ScenarioConfig {
        app: AppKind::Bcp,
        scheme: Scheme::Ms,
        ..ScenarioConfig::default()
    };
    let mut points = Vec::new();
    let mut add = |knob, setting: String, cfg| points.push(Point::steady((knob, setting), cfg));

    // (a) replication strategy: ms broadcast vs n-unicast (dist-n).
    for (label, scheme) in [
        ("ms broadcast (7 peers, 1 airtime)", Scheme::Ms),
        ("unicast x1 (dist-1)", Scheme::Dist(1)),
        ("unicast x3 (dist-3)", Scheme::Dist(3)),
        ("unicast x7 (dist-7 ≈ same coverage)", Scheme::Dist(7)),
    ] {
        let cfg = ScenarioConfig {
            scheme,
            ..ms.clone()
        };
        add("replication", label.into(), cfg);
    }
    // (b) checkpoint period.
    for secs in [120u64, 300, 600] {
        let ckpt_period = SimDuration::from_secs(secs);
        add(
            "ckpt-period",
            format!("{secs}s"),
            ScenarioConfig {
                ckpt_period,
                ..ms.clone()
            },
        );
    }
    // (c) WiFi loss rate (drives the multi-phase loop depth).
    for loss in [0.01f64, 0.05, 0.15] {
        let mut cfg = ms.clone();
        cfg.wifi.loss = loss;
        add("wifi-loss", format!("{:.0}%", loss * 100.0), cfg);
    }
    // (d) preservation off: base has no preservation and no
    // checkpoints — what §III-B step 3 costs.
    add("preservation", "on (paper)".into(), ms.clone());
    let base = ScenarioConfig {
        scheme: Scheme::Base,
        ..ms
    };
    add("preservation", "off (base)".into(), base);

    sweep(points, 4000, ExpOptions { seeds: 1, ..opts })
}

/// The ablation table, one row per point.
pub fn tables(means: &[(Key, Means)]) -> Vec<(String, Table)> {
    let mut t = Table::new(
        "Ablations (BCP, MobiStreams unless noted)",
        vec![
            "knob / setting".into(),
            "tput/s".into(),
            "lat s".into(),
            "ckpt MB".into(),
            "pres MB".into(),
        ],
    );
    for ((knob, setting), m) in means {
        t.row(
            format!("{knob} = {setting}"),
            vec![
                Cell::Num(m.throughput),
                Cell::Num(m.latency_s),
                Cell::Num(m.ckpt_repl_bytes / 1e6),
                Cell::Num(m.preservation_bytes / 1e6),
            ],
        );
    }
    vec![("ablations".into(), t)]
}
