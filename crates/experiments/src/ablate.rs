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

use serde::Serialize;
use simkernel::SimDuration;

use crate::report::{Cell, Table};
use crate::run::measured_run;
use crate::scenario::{AppKind, ScenarioConfig, Scheme};
use crate::{run_jobs, ExpOptions};

/// One ablation data point.
#[derive(Debug, Clone, Serialize)]
pub struct AblationPoint {
    /// Which knob.
    pub knob: String,
    /// Setting label.
    pub setting: String,
    /// Throughput (tuples/s/region).
    pub throughput: f64,
    /// Mean latency (s).
    pub latency_s: f64,
    /// Checkpoint/replication wifi bytes (MB).
    pub ckpt_mb: f64,
    /// Preservation wifi bytes (MB).
    pub preservation_mb: f64,
}

/// Full ablation result.
#[derive(Debug, Clone, Serialize)]
pub struct Ablation {
    /// All points.
    pub points: Vec<AblationPoint>,
}

/// Run the ablation suite on BCP.
pub fn run_ablation(opts: ExpOptions) -> Ablation {
    type Job = Box<dyn FnOnce() -> AblationPoint + Send>;
    let mut jobs: Vec<Job> = Vec::new();

    let run_one = move |knob: String,
                        setting: String,
                        mutate: Box<dyn Fn(&mut ScenarioConfig) + Send>,
                        opts: ExpOptions| {
        move || {
            let mut cfg = ScenarioConfig {
                app: AppKind::Bcp,
                scheme: Scheme::Ms,
                seed: 4000,
                ..ScenarioConfig::default()
            };
            mutate(&mut cfg);
            let h = measured_run(cfg, opts.warmup, opts.window, |_| {});
            AblationPoint {
                knob,
                setting,
                throughput: h.mean_throughput,
                latency_s: h.mean_latency_s,
                ckpt_mb: h.ckpt_repl_bytes as f64 / 1e6,
                preservation_mb: h.wifi_bytes.preservation as f64 / 1e6,
            }
        }
    };

    // (a) replication strategy: ms broadcast vs n-unicast (dist-n).
    for (label, scheme) in [
        ("ms broadcast (7 peers, 1 airtime)", Scheme::Ms),
        ("unicast x1 (dist-1)", Scheme::Dist(1)),
        ("unicast x3 (dist-3)", Scheme::Dist(3)),
        ("unicast x7 (dist-7 ≈ same coverage)", Scheme::Dist(7)),
    ] {
        jobs.push(Box::new(run_one(
            "replication".into(),
            label.into(),
            Box::new(move |c| c.scheme = scheme),
            opts,
        )));
    }

    // (b) checkpoint period.
    for secs in [120u64, 300, 600] {
        jobs.push(Box::new(run_one(
            "ckpt-period".into(),
            format!("{secs}s"),
            Box::new(move |c| {
                c.ckpt_period = SimDuration::from_secs(secs);
            }),
            opts,
        )));
    }

    // (c) WiFi loss rate (drives the multi-phase loop depth).
    for loss in [0.01f64, 0.05, 0.15] {
        jobs.push(Box::new(run_one(
            "wifi-loss".into(),
            format!("{:.0}%", loss * 100.0),
            Box::new(move |c| c.wifi.loss = loss),
            opts,
        )));
    }

    // (d) preservation off (FT of state only — what §III-B step 3 buys
    // costs).
    jobs.push(Box::new(run_one(
        "preservation".into(),
        "on (paper)".into(),
        Box::new(|_| {}),
        opts,
    )));
    jobs.push(Box::new({
        move || {
            let cfg = ScenarioConfig {
                app: AppKind::Bcp,
                scheme: Scheme::Base, // no preservation, no checkpoints
                seed: 4000,
                ..ScenarioConfig::default()
            };
            let h = measured_run(cfg, opts.warmup, opts.window, |_| {});
            AblationPoint {
                knob: "preservation".into(),
                setting: "off (base)".into(),
                throughput: h.mean_throughput,
                latency_s: h.mean_latency_s,
                ckpt_mb: h.ckpt_repl_bytes as f64 / 1e6,
                preservation_mb: h.wifi_bytes.preservation as f64 / 1e6,
            }
        }
    }));

    let points = run_jobs(opts.parallel, jobs);
    Ablation { points }
}

impl Ablation {
    /// Render the ablation table.
    pub fn table(&self) -> Table {
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
        for p in &self.points {
            t.row(
                format!("{} = {}", p.knob, p.setting),
                vec![
                    Cell::Num(p.throughput),
                    Cell::Num(p.latency_s),
                    Cell::Num(p.ckpt_mb),
                    Cell::Num(p.preservation_mb),
                ],
            );
        }
        t
    }
}
