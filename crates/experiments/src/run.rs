//! Metric harvest: turn a finished deployment into the numbers the
//! paper reports.

use dsps::node::NodeActor;
use simkernel::{SimDuration, SimTime};
use simnet::cellular::CellularNet;
use simnet::stats::TrafficClass;
use simnet::wifi::WifiMedium;

use crate::scenario::{Deployment, Scheme};

/// Per-region observation window results.
#[derive(Debug, Clone)]
pub struct RegionStats {
    /// Sink outputs in the window.
    pub outputs: usize,
    /// Output tuples per second.
    pub throughput: f64,
    /// Mean enter-to-leave latency (seconds), if any output.
    pub mean_latency_s: Option<f64>,
    /// 95th-percentile latency.
    pub p95_latency_s: Option<f64>,
    /// Source inputs dropped at full queues.
    pub source_drops: u64,
    /// Catch-up discards at sinks.
    pub catchup_discards: u64,
    /// Cellular messages tail-dropped at this region's phones' full
    /// link queues (uplink + downlink).
    pub cell_drops: u64,
    /// Deepest cellular link backlog observed on any of this region's
    /// phones (bytes).
    pub cell_max_queue_depth: u64,
}

/// Whole-deployment harvest.
#[derive(Debug, Clone)]
pub struct Harvest {
    /// Scheme label.
    pub scheme: String,
    /// Per-region stats.
    pub per_region: Vec<RegionStats>,
    /// Mean per-region throughput (tuples/s).
    pub mean_throughput: f64,
    /// Mean latency (seconds) over regions with output.
    pub mean_latency_s: f64,
    /// WiFi payload bytes by class, summed over regions.
    pub wifi_bytes: ClassBytes,
    /// Cellular payload bytes by class.
    pub cell_bytes: ClassBytes,
    /// Logical preserved bytes (Fig 10a): source logs for ms, retention
    /// buffers for local/dist, 0 for base/rep-2.
    pub preserved_bytes: u64,
    /// Network bytes due to checkpointing or replication (Fig 10b):
    /// `Checkpoint + Replication` classes on WiFi.
    pub ckpt_repl_bytes: u64,
    /// Recoveries completed (count, mean seconds).
    pub recoveries: usize,
    /// Mean recovery duration.
    pub mean_recovery_s: f64,
    /// Regions stopped (unrecoverable).
    pub stops: u64,
    /// Cellular messages tail-dropped network-wide (bounded link
    /// queues; cellular-collapse signal).
    pub cell_drops: u64,
    /// Deepest cellular link backlog observed network-wide (bytes).
    pub cell_max_queue_depth: u64,
    /// Cellular sends aged out behind a network-weather partition.
    pub cell_severed_sends: u64,
    /// Backlogged cellular bytes drained without delivery (endpoint
    /// death or partition ageing), network-wide.
    pub cell_queue_drop_bytes: u64,
    /// Cellular sends rejected at dead/unknown endpoints.
    pub cell_rejects: u64,
}

/// Payload bytes per traffic class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassBytes {
    /// Stream tuples.
    pub data: u64,
    /// rep-2 duplicate flow.
    pub replication: u64,
    /// Checkpoint state shipping.
    pub checkpoint: u64,
    /// Source-preservation replication.
    pub preservation: u64,
    /// Control plane.
    pub control: u64,
    /// Recovery traffic.
    pub recovery: u64,
}

impl ClassBytes {
    fn from_stats(s: &simnet::stats::NetStats) -> Self {
        ClassBytes {
            data: s.payload_bytes(TrafficClass::Data),
            replication: s.payload_bytes(TrafficClass::Replication),
            checkpoint: s.payload_bytes(TrafficClass::Checkpoint),
            preservation: s.payload_bytes(TrafficClass::Preservation),
            control: s.payload_bytes(TrafficClass::Control),
            recovery: s.payload_bytes(TrafficClass::Recovery),
        }
    }

    fn add(&mut self, other: &ClassBytes) {
        self.data += other.data;
        self.replication += other.replication;
        self.checkpoint += other.checkpoint;
        self.preservation += other.preservation;
        self.control += other.control;
        self.recovery += other.recovery;
    }

    /// Everything.
    pub fn total(&self) -> u64 {
        self.data
            + self.replication
            + self.checkpoint
            + self.preservation
            + self.control
            + self.recovery
    }
}

/// Harvest metrics over the window `[from, to)`.
pub fn harvest(dep: &Deployment, from: SimTime, to: SimTime) -> Harvest {
    let mut per_region = Vec::new();
    let mut wifi_bytes = ClassBytes::default();
    let mut preserved_raw_sum = 0u64;
    let mut preserved_max = 0u64;
    let mut active_per_region = Vec::new();

    let cellnet = dep.sim.actor::<CellularNet>(dep.cell);
    for handles in &dep.regions {
        let mut outputs = 0usize;
        let mut lat_sum = 0.0f64;
        let mut lats: Vec<f64> = Vec::new();
        let mut drops = 0u64;
        let mut discards = 0u64;
        let mut active = 0usize;
        let mut cell_drops = 0u64;
        let mut cell_depth = 0u64;
        for &nid in &handles.nodes {
            if let Some(ep) = cellnet.endpoint_stats(nid) {
                cell_drops += ep.queue_drops;
                cell_depth = cell_depth.max(ep.max_queue_bytes());
            }
        }
        for &nid in &handles.nodes {
            let na = dep.sim.actor::<NodeActor>(nid);
            let m = &na.inner.metrics;
            for s in &m.sink_samples {
                if s.at >= from && s.at < to {
                    outputs += 1;
                    let l = s.latency.as_secs_f64();
                    lat_sum += l;
                    lats.push(l);
                }
            }
            drops += m.source_drops;
            discards += m.catchup_discards;
            if na.inner.alive {
                active += 1;
            }
            let p = na.scheme.preserved_bytes(&na.inner);
            preserved_raw_sum += p;
            preserved_max = preserved_max.max(p);
        }
        active_per_region.push(active);
        let span = (to - from).as_secs_f64();
        lats.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let p95 = if lats.is_empty() {
            None
        } else {
            Some(lats[((lats.len() - 1) as f64 * 0.95).round() as usize])
        };
        per_region.push(RegionStats {
            outputs,
            throughput: outputs as f64 / span.max(1e-9),
            mean_latency_s: (outputs > 0).then(|| lat_sum / outputs as f64),
            p95_latency_s: p95,
            source_drops: drops,
            catchup_discards: discards,
            cell_drops,
            cell_max_queue_depth: cell_depth,
        });
        let med = dep.sim.actor::<WifiMedium>(handles.wifi);
        wifi_bytes.add(&ClassBytes::from_stats(med.stats()));
    }

    let cell_bytes = ClassBytes::from_stats(cellnet.stats());
    let cell_drops = cellnet.stats().queue_drops;
    let cell_max_queue_depth = cellnet.stats().max_queue_depth;
    let cell_severed_sends = cellnet.stats().severed_sends;
    let cell_queue_drop_bytes = cellnet.stats().queue_drop_bytes;
    let cell_rejects = cellnet.stats().rejects;

    // Logical preserved bytes: ms replicates the same log onto every
    // node (take the max = one logical copy); local/dist retain
    // distinct per-node buffers (take the sum).
    let preserved_bytes = match dep.cfg.scheme {
        Scheme::Ms => preserved_max * dep.cfg.regions as u64,
        _ => preserved_raw_sum,
    };

    let (episodes, stops) = match dep.coordinator {
        Some(co) => {
            let c = dep.sim.actor::<baselines::BaselineCoordinator>(co);
            (c.recoveries.clone(), c.stops)
        }
        None => (dep.ms_recoveries(), dep.ms_stops()),
    };
    let recoveries = episodes.len();
    let mean_recovery_s = if recoveries > 0 {
        episodes
            .iter()
            .map(|r| (r.finished - r.started).as_secs_f64())
            .sum::<f64>()
            / recoveries as f64
    } else {
        0.0
    };

    let with_output: Vec<&RegionStats> = per_region.iter().filter(|r| r.outputs > 0).collect();
    let mean_throughput =
        per_region.iter().map(|r| r.throughput).sum::<f64>() / per_region.len().max(1) as f64;
    let mean_latency_s = if with_output.is_empty() {
        f64::INFINITY
    } else {
        with_output
            .iter()
            .map(|r| r.mean_latency_s.unwrap_or(f64::INFINITY))
            .sum::<f64>()
            / with_output.len() as f64
    };

    Harvest {
        scheme: dep.cfg.scheme.label(),
        per_region,
        mean_throughput,
        mean_latency_s,
        ckpt_repl_bytes: wifi_bytes.checkpoint + wifi_bytes.replication,
        wifi_bytes,
        cell_bytes,
        preserved_bytes,
        recoveries,
        mean_recovery_s,
        stops,
        cell_drops,
        cell_max_queue_depth,
        cell_severed_sends,
        cell_queue_drop_bytes,
        cell_rejects,
    }
}

/// One standard measured run: build, start, warm up, measure, harvest.
///
/// `faults` is applied after build (scheduling injections); the
/// measurement window is `[warmup, warmup + window)`.
pub fn measured_run(
    cfg: crate::scenario::ScenarioConfig,
    warmup: SimDuration,
    window: SimDuration,
    faults: impl FnOnce(&mut Deployment),
) -> Harvest {
    let mut dep = Deployment::build(cfg);
    dep.start();
    faults(&mut dep);
    let from = SimTime::ZERO + warmup;
    let to = from + window;
    dep.run_until(to);
    harvest(&dep, from, to)
}
