//! Table I: MobiStreams vs the server-based DSPS.
//!
//! The server platform (Fig 1c) computes on datacenter servers but
//! must haul every camera frame over the 3G uplink (0.016–0.32 Mbps)
//! — the uplink is the bottleneck, so throughput and latency are
//! reported as a min–max band over that range. MobiStreams (Fig 1d)
//! computes in-region over WiFi; three rows: FT off, FT on with a
//! departure every 5 minutes, FT on with a failure every 5 minutes.

use simkernel::{SimDuration, SimTime};

use crate::faults::{failure_order, inject_departure, inject_failure, inject_reboot};
use crate::report::{Cell, Table};
use crate::scenario::{AppKind, Deployment, Platform, ScenarioConfig, Scheme};
use crate::sweep::{at, sweep, Means, Point, APPS};
use crate::ExpOptions;

/// One measured Table I configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    /// Server platform over the slowest uplink (0.016 Mbps).
    ServerLo,
    /// Server platform over the fastest uplink (0.32 Mbps).
    ServerHi,
    /// MobiStreams with fault tolerance off.
    MsFtOff,
    /// MobiStreams with a departure every checkpoint period.
    MsDeparture,
    /// MobiStreams with a failure every checkpoint period.
    MsFailure,
}

/// The periodic-fault pattern of the ms rows: one event per checkpoint
/// period, rotating over computing slots, with rebooted/returning
/// phones re-registering 120 s later.
fn periodic_faults(
    dep: &mut Deployment,
    departures: bool,
    start: SimDuration,
    end: SimDuration,
    period: SimDuration,
) {
    for region in 0..dep.cfg.regions {
        let order = failure_order(dep, region);
        let mut at = SimTime::ZERO + start;
        let mut i = 0usize;
        while at < SimTime::ZERO + end {
            let slot = order[i % 3]; // rotate over the first three computing slots
            if departures {
                inject_departure(dep, region, slot, at);
            } else {
                inject_failure(dep, region, slot, at);
            }
            // The phone returns (reboot / re-enters the region) so the
            // spare pool never runs dry.
            inject_reboot(dep, region, slot, at + SimDuration::from_secs(120));
            at += period;
            i += 1;
        }
    }
}

/// Table I's seed means per `(app, row)`.
pub fn means(opts: ExpOptions) -> Vec<((AppKind, Row), Means)> {
    let server = |uplink_bps| (Platform::Server { uplink_bps }, Scheme::Base);
    let mut points = Vec::new();
    for app in APPS {
        for row in [
            Row::ServerLo,
            Row::ServerHi,
            Row::MsFtOff,
            Row::MsDeparture,
            Row::MsFailure,
        ] {
            let (platform, scheme) = match row {
                Row::ServerLo => server(16_000.0),
                Row::ServerHi => server(320_000.0),
                Row::MsFtOff => (Platform::Phones, Scheme::Base),
                Row::MsDeparture | Row::MsFailure => (Platform::Phones, Scheme::Ms),
            };
            let cfg = ScenarioConfig {
                app,
                scheme,
                platform,
                ..ScenarioConfig::default()
            };
            let mut point = Point::steady((app, row), cfg);
            if matches!(row, Row::MsDeparture | Row::MsFailure) {
                let departures = row == Row::MsDeparture;
                let start = opts.warmup + SimDuration::from_secs(30);
                let end = opts.warmup + opts.window;
                let period = point.cfg.ckpt_period;
                point.faults = Box::new(move |dep| {
                    periodic_faults(dep, departures, start, end, period);
                });
            }
            points.push(point);
        }
    }
    sweep(points, 3000, opts)
}

/// Table I: one row per system, each app's throughput and latency as a
/// band (the server's over its uplink range, a single value otherwise).
pub fn tables(means: &[((AppKind, Row), Means)]) -> Vec<(String, Table)> {
    let mut t = Table::new(
        "Table I — MobiStreams vs server-based DSPS (per-region)",
        vec![
            "system".into(),
            "BCP tput/s".into(),
            "BCP lat s".into(),
            "SG tput/s".into(),
            "SG lat s".into(),
        ],
    );
    let text = |(lo, hi): (f64, f64)| {
        if (hi - lo).abs() < 1e-9 {
            format!("{lo:.3}")
        } else {
            format!("{lo:.3}~{hi:.3}")
        }
    };
    for (system, lo, hi) in [
        ("Server-based DSPS", Row::ServerLo, Row::ServerHi),
        ("MobiStreams (FT off)", Row::MsFtOff, Row::MsFtOff),
        (
            "MobiStreams (departure / 5 min)",
            Row::MsDeparture,
            Row::MsDeparture,
        ),
        (
            "MobiStreams (failure / 5 min)",
            Row::MsFailure,
            Row::MsFailure,
        ),
    ] {
        // The slow uplink gives the low throughput and the high latency.
        let band = |app| {
            let (a, b) = (at(means, (app, lo)), at(means, (app, hi)));
            let span = |x: f64, y: f64| (x.min(y), x.max(y));
            [
                span(a.throughput.mean, b.throughput.mean),
                span(b.latency_s.mean, a.latency_s.mean),
            ]
        };
        let [b_tput, b_lat] = band(AppKind::Bcp);
        let [s_tput, s_lat] = band(AppKind::SignalGuru);
        t.row(
            format!(
                "{system} | BCP {} t/s, {} s | SG {} t/s, {} s",
                text(b_tput),
                text(b_lat),
                text(s_tput),
                text(s_lat)
            ),
            vec![
                Cell::Num(b_tput.0),
                Cell::Num(b_lat.1),
                Cell::Num(s_tput.0),
                Cell::Num(s_lat.1),
            ],
        );
    }
    vec![("table1".into(), t)]
}
