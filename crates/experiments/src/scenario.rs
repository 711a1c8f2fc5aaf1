//! Deployment builder: stands up a full MobiStreams (or baseline, or
//! server-based) system inside one deterministic simulation.
//!
//! The paper's testbed: 4 regions cascaded in a line, 8 phones per
//! region, ad-hoc WiFi 1–5 Mbps, 3G uplink 0.016–0.32 Mbps / downlink
//! 0.35–1.14 Mbps, checkpoint period 5 minutes, controller pings every
//! 30 s with a 10 s timeout (§IV).

use std::sync::Arc;

use apps::{AppBundle, Calibration};
use baselines::coordinator::{BaselineCoordinator, BaselineRegionSpec};
use baselines::rep2::{duplicate_graph, twin_of, Rep2Scheme};
use baselines::{BaselineKind, RetainScheme};
use dsps::ft::{FtScheme, NullScheme};
use dsps::graph::{OpId, QueryGraph};
use dsps::node::{InterRegionLink, NodeActor, NodeConfig, NodeInner};
use dsps::placement::{squeeze_placement, CheckpointSchedule, Placement, RecoveryRecord};
use dsps::workload::{Feed, StartFeeds, WorkloadDriver};
use mobistreams::{Coordinator, MsScheme, RegionController, RegionSpec, RegionWiring};
use simkernel::{ActorId, Sim, SimDuration, SimTime};
use simnet::cellular::{CellConfig, CellularNet};
use simnet::ethernet::{EthConfig, EthernetNet};
use simnet::stats::TrafficClass;
use simnet::wifi::{WifiConfig, WifiMedium};

/// Which application drives the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Bus Capacity Prediction.
    Bcp,
    /// SignalGuru.
    SignalGuru,
}

impl AppKind {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            AppKind::Bcp => "BCP",
            AppKind::SignalGuru => "SignalGuru",
        }
    }
}

/// Which fault-tolerance scheme runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No fault tolerance (also MobiStreams with FT off — Table I row 1).
    Base,
    /// MobiStreams (ms-8).
    Ms,
    /// Active standby.
    Rep2,
    /// Local checkpointing.
    Local,
    /// Distributed checkpointing to n peers.
    Dist(u32),
    /// Upstream backup (related-work extension; not in the paper's
    /// figures).
    Upstream,
}

impl Scheme {
    /// Bar label used in the paper's figures.
    pub fn label(self) -> String {
        match self {
            Scheme::Base => "base".into(),
            Scheme::Ms => "ms-8".into(),
            Scheme::Rep2 => "rep-2".into(),
            Scheme::Local => "local".into(),
            Scheme::Dist(n) => format!("dist-{n}"),
            Scheme::Upstream => "upstream".into(),
        }
    }
}

/// Phone platform or the server-based comparison system of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Platform {
    /// Phones in regions over ad-hoc WiFi (Fig 1d).
    Phones,
    /// Datacenter servers fed over the 3G uplink (Fig 1c).
    Server {
        /// Sensor phone uplink rate (the paper sweeps 0.016–0.32 Mbps).
        uplink_bps: f64,
    },
}

/// Per-region overrides for heterogeneous, fleet-scale deployments
/// (phones platform only; the server baseline ignores them). Entry `r`
/// overrides region `r`; missing entries fall back to the scenario's
/// homogeneous `phones`/`wifi`.
#[derive(Clone, Default)]
pub struct RegionOverride {
    /// Phones in this region.
    pub phones: Option<u32>,
    /// This region's WiFi channel parameters (loss profile, rate).
    pub wifi: Option<WifiConfig>,
}

/// Full deployment parameters.
#[derive(Clone)]
pub struct ScenarioConfig {
    /// Application.
    pub app: AppKind,
    /// FT scheme.
    pub scheme: Scheme,
    /// Platform.
    pub platform: Platform,
    /// Number of cascaded regions.
    pub regions: usize,
    /// Phones per region (the paper's 8).
    pub phones: u32,
    /// WiFi parameters.
    pub wifi: WifiConfig,
    /// Cellular parameters.
    pub cell: CellConfig,
    /// Application calibration.
    pub cal: Calibration,
    /// Checkpoint period.
    pub ckpt_period: SimDuration,
    /// First checkpoint offset.
    pub ckpt_offset: SimDuration,
    /// Enable periodic checkpointing.
    pub checkpoints_enabled: bool,
    /// RNG seed.
    pub seed: u64,
    /// Per-region overrides (fleet-scale heterogeneous deployments).
    pub overrides: Vec<RegionOverride>,
    /// Regions per region-group controller (MobiStreams only): regions
    /// `[g·size, (g+1)·size)` share one `RegionController`, placed on
    /// the group's first region's shard. 1 = one controller per region.
    pub ctl_group_size: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            app: AppKind::Bcp,
            scheme: Scheme::Ms,
            platform: Platform::Phones,
            regions: 4,
            phones: 8,
            wifi: WifiConfig::default(),
            cell: CellConfig::default(),
            cal: Calibration::default(),
            ckpt_period: SimDuration::from_secs(300),
            ckpt_offset: SimDuration::from_secs(60),
            checkpoints_enabled: true,
            seed: 1,
            overrides: Vec::new(),
            ctl_group_size: 1,
        }
    }
}

impl ScenarioConfig {
    /// The checkpoint schedule the control plane runs.
    fn schedule(&self) -> CheckpointSchedule {
        CheckpointSchedule {
            period: self.ckpt_period,
            offset: self.ckpt_offset,
            enabled: self.checkpoints_enabled,
        }
    }

    /// Phones deployed in region `r`.
    pub fn phones_in(&self, r: usize) -> u32 {
        self.overrides
            .get(r)
            .and_then(|o| o.phones)
            .unwrap_or(self.phones)
    }

    /// WiFi channel parameters of region `r`.
    pub fn wifi_in(&self, r: usize) -> WifiConfig {
        self.overrides
            .get(r)
            .and_then(|o| o.wifi.clone())
            .unwrap_or_else(|| self.wifi.clone())
    }

    /// Phones across the whole deployment.
    pub fn total_phones(&self) -> u32 {
        (0..self.regions).map(|r| self.phones_in(r)).sum()
    }
}

/// Handles into one built region.
pub struct RegionHandles {
    /// Phone/server actor per slot.
    pub nodes: Vec<ActorId>,
    /// The region's WiFi medium.
    pub wifi: ActorId,
    /// The region's sensor driver.
    pub driver: ActorId,
    /// Query network actually deployed (duplicated for rep-2).
    pub graph: Arc<QueryGraph>,
    /// Initial slot table (op→slot assignment, bound to `nodes`).
    pub placement: Placement,
    /// Sensor uplink actor (server platform only).
    pub uplink: Option<ActorId>,
}

/// A fully-wired simulation.
pub struct Deployment {
    /// The simulation.
    pub sim: Sim,
    /// Scenario parameters.
    pub cfg: ScenarioConfig,
    /// Per-region handles.
    pub regions: Vec<RegionHandles>,
    /// MobiStreams global coordinator (ms only).
    pub controller: Option<ActorId>,
    /// Baseline coordinator (rep-2/local/dist/base).
    pub coordinator: Option<ActorId>,
    /// MobiStreams per-region-group controllers (ms only), indexed by
    /// group; region `r` is owned by group `r / cfg.ctl_group_size`.
    pub region_controllers: Vec<ActorId>,
    /// Cellular network actor.
    pub cell: ActorId,
    /// Ethernet (server platform only).
    pub eth: Option<ActorId>,
}

fn build_bundle(cfg: &ScenarioConfig, phones: u32, first: bool) -> AppBundle {
    match cfg.app {
        AppKind::Bcp => apps::build_bcp(&cfg.cal, phones, first),
        AppKind::SignalGuru => apps::build_signalguru(&cfg.cal, phones, first),
    }
}

impl Deployment {
    /// Build the deployment. Call [`Deployment::start`] afterwards.
    pub fn build(cfg: ScenarioConfig) -> Deployment {
        match cfg.platform {
            Platform::Phones => Self::build_phones(cfg),
            Platform::Server { .. } => Self::build_server(cfg),
        }
    }

    fn make_scheme(cfg: &ScenarioConfig, flow_of: Option<Arc<Vec<u8>>>) -> Box<dyn FtScheme> {
        match cfg.scheme {
            Scheme::Base => Box::new(NullScheme),
            Scheme::Ms => Box::new(MsScheme::new(cfg.checkpoints_enabled)),
            Scheme::Rep2 => Box::new(Rep2Scheme::new(flow_of.expect("rep-2 flow map"))),
            Scheme::Local => Box::new(RetainScheme::new(Some(0), cfg.ckpt_period)),
            Scheme::Dist(n) => Box::new(RetainScheme::new(Some(n), cfg.ckpt_period)),
            Scheme::Upstream => Box::new(RetainScheme::new(None, cfg.ckpt_period)),
        }
    }

    fn build_phones(cfg: ScenarioConfig) -> Deployment {
        let mut sim = Sim::new(cfg.seed);
        let cell_id = sim.add_actor(Box::new(CellularNet::new(cfg.cell.clone())));

        // Per-region: bundle (graph/placement), rep-2 duplication.
        struct RegionPlan {
            graph: Arc<QueryGraph>,
            placement: Placement,
            inter_input: OpId,
            feeds: Vec<(OpId, SimDuration, f64, usize)>, // op, period, jitter, feed ix
            bundle: AppBundle,
            flow_of: Option<Arc<Vec<u8>>>,
        }

        let mut plans = Vec::new();
        for r in 0..cfg.regions {
            let bundle = build_bundle(&cfg, cfg.phones_in(r), r == 0);
            let (graph, placement, flow_of) = if cfg.scheme == Scheme::Rep2 {
                let (g2, flows) = duplicate_graph(&bundle.graph);
                let n = bundle.graph.op_count();
                // rep-2 must fit two flows onto one region, so each
                // flow is squeezed onto half the phones and every phone
                // carries roughly two of the paper's operator groups
                // (this is where rep-2's 2× CPU cost bites). This uses
                // the shared proportional compaction (`s * k / slots`),
                // intentionally replacing the old ad-hoc `(s + 1) / 2`
                // mapping — group pairings shift slightly, but flows
                // stay disjoint and stage order is preserved.
                let half = cfg.phones_in(r) / 2;
                assert!(half >= 1, "rep-2 needs at least 2 phones (one per flow)");
                let compressed = squeeze_placement(&bundle.placement, half);
                // flow 0 on slots 0..k, flow 1 on slots k..2k.
                let mut op_slot = vec![u32::MAX; 2 * n];
                for (op, &s) in compressed.op_slot().iter().enumerate() {
                    if s == u32::MAX {
                        continue;
                    }
                    op_slot[op] = s;
                    op_slot[op + n] = s + half;
                }
                let placement = Placement::from_op_slot(op_slot, cfg.phones_in(r));
                (Arc::new(g2), placement, Some(Arc::new(flows)))
            } else {
                (Arc::clone(&bundle.graph), bundle.placement.clone(), None)
            };
            let feeds = bundle
                .feeds
                .iter()
                .enumerate()
                .map(|(i, f)| (f.op, f.period, f.jitter, i))
                .collect();
            plans.push(RegionPlan {
                graph,
                placement,
                inter_input: bundle.inter_region_input,
                feeds,
                bundle,
                flow_of,
            });
        }

        // Reserve the control-plane id slots LAST so nodes can
        // reference them: the controllers need node ids and nodes need
        // their controller's id. Create nodes first with controller =
        // a reserved id computed up front. Actor ids are assigned
        // densely: we know exactly how many actors precede them.
        //
        // Baselines: one coordinator actor right after the regions.
        // MobiStreams: one region controller per region group, then the
        // global coordinator.
        let actors_before_controller: usize = (0..cfg.regions)
            .map(
                |r| 1 /*wifi*/ + cfg.phones_in(r) as usize + 1, /*driver*/
            )
            .sum();
        let group_size = cfg.ctl_group_size.max(1);
        let n_groups = cfg.regions.div_ceil(group_size);
        let ctl_id_of_group = |g: usize| ActorId::from_index(1 + actors_before_controller + g);
        let controller_id = ActorId::from_index(1 + actors_before_controller);
        let coordinator_id = ActorId::from_index(1 + actors_before_controller + n_groups);

        let mut regions = Vec::new();
        for (r, plan) in plans.iter().enumerate() {
            let wifi_id = sim.add_actor(Box::new(WifiMedium::new(cfg.wifi_in(r))));
            let mut node_ids = Vec::new();
            for slot in 0..cfg.phones_in(r) {
                let ncfg = NodeConfig {
                    region: regions.len(),
                    slot,
                    cpu_factor: 1.0,
                    source_queue_cap: 10,
                };
                let node_ctl = if cfg.scheme == Scheme::Ms {
                    ctl_id_of_group(r / group_size)
                } else {
                    controller_id
                };
                let mut inner =
                    NodeInner::new(ncfg, Arc::clone(&plan.graph), wifi_id, cell_id, node_ctl);
                inner.op_slot = plan.placement.op_slot().to_vec();
                let scheme = Self::make_scheme(&cfg, plan.flow_of.clone());
                let id = sim.add_actor(Box::new(NodeActor::new(inner, scheme)));
                node_ids.push(id);
            }
            // Driver.
            let driver_id = sim.add_actor(Box::new(WorkloadDriver::new(Vec::new())));
            regions.push(RegionHandles {
                placement: plan.placement.clone().bind(node_ids.clone()),
                nodes: node_ids,
                wifi: wifi_id,
                driver: driver_id,
                graph: Arc::clone(&plan.graph),
                uplink: None,
            });
        }

        // Wire node internals now that all ids exist.
        for (r, plan) in plans.iter().enumerate() {
            let handles_nodes = regions[r].nodes.clone();
            let table = &regions[r].placement;
            let wifi = regions[r].wifi;
            for (slot, &nid) in handles_nodes.iter().enumerate() {
                let na = sim.actor_mut::<NodeActor>(nid);
                na.inner.slot_actors = handles_nodes.clone();
                for op in table.ops_on(slot as u32) {
                    na.inner.host_op(op);
                }
                // rep-2: the duplicate flow's traffic is the
                // replication overhead (Fig 10b).
                if let Some(flows) = &plan.flow_of {
                    let on_slot = table.ops_on(slot as u32);
                    let hosts_flow1 = on_slot.iter().any(|op| flows[op.index()] == 1);
                    if hosts_flow1 {
                        na.inner.data_class = TrafficClass::Replication;
                    }
                }
            }
            // WiFi membership + cellular registration.
            {
                let med = sim.actor_mut::<WifiMedium>(wifi);
                for &n in &handles_nodes {
                    med.add_member(n);
                }
            }
            {
                let cn = sim.actor_mut::<CellularNet>(cell_id);
                for &n in &handles_nodes {
                    cn.register(n);
                }
            }
            // Inter-region links: sinks of r feed S0 of r+1 (both flows
            // for rep-2).
            if r + 1 < cfg.regions {
                let next = &plans[r + 1];
                let next_table = &regions[r + 1].placement;
                let mut dst_ops = vec![next.inter_input];
                if let Some(flows) = &next.flow_of {
                    let orig = flows.len() / 2;
                    dst_ops.push(twin_of(next.inter_input, orig));
                }
                for &sink in &plan.graph.sinks() {
                    let links: Vec<InterRegionLink> = dst_ops
                        .iter()
                        .map(|&dst_op| InterRegionLink {
                            src_op: sink,
                            dst_actor: next_table.actor_of(dst_op),
                            dst_op,
                            net: cell_id,
                        })
                        .collect();
                    let na = sim.actor_mut::<NodeActor>(table.actor_of(sink));
                    na.inner.inter_region.extend(links);
                }
            }
            // Feeds.
            let driver = regions[r].driver;
            let mut feeds: Vec<Feed> = Vec::new();
            for &(op, _, _, ix) in &plan.feeds {
                let target = table.actor_of(op);
                let mut feed = plan.bundle.feeds[ix].instantiate(target);
                if let Some(flows) = &plan.flow_of {
                    let orig = flows.len() / 2;
                    let t = twin_of(op, orig);
                    feed.mirrors.push((t, table.actor_of(t)));
                }
                feeds.push(feed);
            }
            let d = sim.actor_mut::<WorkloadDriver>(driver);
            *d = WorkloadDriver::new(feeds);
        }

        // Control plane.
        let (controller, coordinator, region_controllers) = match cfg.scheme {
            Scheme::Ms => {
                let specs: Vec<RegionSpec> = (0..cfg.regions)
                    .map(|r| RegionSpec {
                        graph: Arc::clone(&plans[r].graph),
                        placement: regions[r].placement.clone(),
                        wifi: regions[r].wifi,
                        downstream: if r + 1 < cfg.regions {
                            vec![(r + 1, plans[r + 1].inter_input)]
                        } else {
                            vec![]
                        },
                        sensors: vec![regions[r].driver],
                    })
                    .collect();
                // The coordinator keeps only the static cross-region
                // view (graph shape, wiring, initial placement).
                let wiring: Vec<RegionWiring> = specs
                    .iter()
                    .map(|s| RegionWiring {
                        graph: Arc::clone(&s.graph),
                        downstream: s.downstream.clone(),
                        slot_actors: s.placement.slot_actors().to_vec(),
                        op_slot: s.placement.op_slot().to_vec(),
                    })
                    .collect();
                let ctl_of_region: Vec<ActorId> = (0..cfg.regions)
                    .map(|r| ctl_id_of_group(r / group_size))
                    .collect();
                let mut specs = specs;
                let mut ctls = Vec::new();
                for g in 0..n_groups {
                    let take = specs.len().min(group_size);
                    let group_specs: Vec<RegionSpec> = specs.drain(..take).collect();
                    let ctl = RegionController::new(
                        cfg.schedule(),
                        cell_id,
                        coordinator_id,
                        g,
                        g * group_size,
                        group_specs,
                    );
                    let id = sim.add_actor(Box::new(ctl));
                    assert_eq!(id, ctl_id_of_group(g), "region controller id reservation");
                    ctls.push(id);
                }
                // Relayed side effects ride the cellular downlink
                // latency (rtt/2): relays model commands the
                // coordinator pushes over cellular without modelling
                // the payload bytes. Keeping the delay at the
                // physical-path floor (rather than the much smaller
                // kernel lookahead) lets the parallel kernel widen
                // per-destination windows to the same floor.
                let coord = Coordinator::new(cell_id, cfg.cell.rtt / 2, wiring, ctl_of_region);
                let id = sim.add_actor(Box::new(coord));
                assert_eq!(id, coordinator_id, "coordinator id reservation");
                (Some(id), None, ctls)
            }
            _ => {
                let kind = match cfg.scheme {
                    Scheme::Base => BaselineKind::Base,
                    Scheme::Rep2 => BaselineKind::Rep2 {
                        flow_of: plans[0].flow_of.clone().expect("rep-2"),
                    },
                    Scheme::Local => BaselineKind::Local,
                    Scheme::Dist(n) => BaselineKind::Dist { n },
                    Scheme::Upstream => BaselineKind::Upstream,
                    Scheme::Ms => unreachable!(),
                };
                let specs: Vec<BaselineRegionSpec> = (0..cfg.regions)
                    .map(|r| BaselineRegionSpec {
                        graph: Arc::clone(&plans[r].graph),
                        placement: regions[r].placement.clone(),
                    })
                    .collect();
                let coord = BaselineCoordinator::new(cfg.schedule(), kind, cell_id, specs);
                let id = sim.add_actor(Box::new(coord));
                assert_eq!(id, controller_id, "coordinator id reservation");
                (None, Some(id), Vec::new())
            }
        };
        {
            let cn = sim.actor_mut::<CellularNet>(cell_id);
            if region_controllers.is_empty() {
                cn.register_with_rates(controller_id, 1e9, 1e9);
            } else {
                // Each region-group controller models a per-metro-area
                // control server on provisioned-but-finite backhaul:
                // 2× the default phone uplink/downlink. The uplink must
                // stay UNDER ~368 kbps — the smallest tagged send (a
                // 32 B ping, 92 B on the wire) must serialize for at
                // least the kernel lookahead (`min_response_delay`,
                // 2 ms), or a region-shard controller's completion
                // events would violate conservative sharding.
                for &ctl in &region_controllers {
                    cn.register_with_rates(ctl, 336_000.0, 745_000.0);
                }
                // The global coordinator keeps the fat pipe: bulk
                // install shipping must not serialize recovery timing
                // behind a thin link (it lives on shard 0, where any
                // send delay is legal).
                cn.register_with_rates(coordinator_id, 1e9, 1e9);
            }
        }

        Deployment {
            sim,
            cfg,
            regions,
            controller,
            coordinator,
            region_controllers,
            cell: cell_id,
            eth: None,
        }
    }

    /// The server-based DSPS of Table I (Fig 1c): phones only sense and
    /// upload over the 3G uplink; computation runs on datacenter
    /// servers connected by Ethernet.
    fn build_server(cfg: ScenarioConfig) -> Deployment {
        let Platform::Server { uplink_bps } = cfg.platform else {
            unreachable!()
        };
        let mut sim = Sim::new(cfg.seed);
        let cell_id = sim.add_actor(Box::new(CellularNet::new(cfg.cell.clone())));
        let eth_id = sim.add_actor(Box::new(EthernetNet::new(EthConfig::default())));
        // Dummy WiFi: every region has a medium to harvest; servers
        // send nothing over it.
        let dummy_wifi = sim.add_actor(Box::new(WifiMedium::new(cfg.wifi.clone())));

        let servers_per_region = 4usize;
        let per_region_actors = servers_per_region + 2; // servers + driver + uplink
        let controller_id = ActorId::from_index(3 + cfg.regions * per_region_actors);

        let mut plans = Vec::new();
        for r in 0..cfg.regions {
            plans.push(build_bundle(&cfg, cfg.phones, r == 0));
        }

        let mut regions = Vec::new();
        for (r, bundle) in plans.iter().enumerate() {
            // Round-robin ops over the servers.
            let op_slot: Vec<u32> = bundle
                .graph
                .op_ids()
                .map(|op| (op.0 as usize % servers_per_region) as u32)
                .collect();
            let mut node_ids = Vec::new();
            for slot in 0..servers_per_region {
                let ncfg = NodeConfig {
                    region: r,
                    slot: slot as u32,
                    cpu_factor: 0.08, // 2013 server core vs 600 MHz A8
                    source_queue_cap: 64,
                };
                let graph = Arc::clone(&bundle.graph);
                let mut inner = NodeInner::new(ncfg, graph, eth_id, cell_id, controller_id);
                inner.op_slot = op_slot.clone();
                let id = sim.add_actor(Box::new(NodeActor::new(inner, Box::new(NullScheme))));
                node_ids.push(id);
            }
            let driver_id = sim.add_actor(Box::new(WorkloadDriver::new(Vec::new())));
            // The sensor phone that uploads frames over 3G.
            let s1_slot = op_slot[bundle.feeds.first().map(|f| f.op.index()).unwrap_or(0)] as usize;
            let uplink_id = sim.add_actor(Box::new(SensorUplink {
                cell: cell_id,
                dst: node_ids[s1_slot],
                in_flight: 0,
                cap: 10,
                next_tag: 1,
                dropped: 0,
                forwarded: 0,
            }));
            regions.push(RegionHandles {
                placement: Placement::from_op_slot(op_slot, servers_per_region as u32)
                    .bind(node_ids.clone()),
                nodes: node_ids,
                wifi: dummy_wifi,
                driver: driver_id,
                graph: Arc::clone(&bundle.graph),
                uplink: Some(uplink_id),
            });
        }

        // Wire internals.
        for (r, bundle) in plans.iter().enumerate() {
            let nodes = regions[r].nodes.clone();
            for (slot, &nid) in nodes.iter().enumerate() {
                let na = sim.actor_mut::<NodeActor>(nid);
                na.inner.slot_actors = nodes.clone();
                for op in regions[r].placement.ops_on(slot as u32) {
                    na.inner.host_op(op);
                }
            }
            {
                let en = sim.actor_mut::<EthernetNet>(eth_id);
                for &n in &nodes {
                    en.register(n);
                }
            }
            {
                let cn = sim.actor_mut::<CellularNet>(cell_id);
                for &n in &nodes {
                    cn.register_with_rates(n, 1e9, 1e9); // datacenter frontend
                }
                let up = regions[r].uplink.unwrap();
                cn.register_with_rates(up, uplink_bps, cfg.cell.default_down_bps);
            }
            if r + 1 < cfg.regions {
                let next_input = plans[r + 1].inter_region_input;
                let next = &regions[r + 1].placement;
                for &sink in &bundle.graph.sinks() {
                    let link = InterRegionLink {
                        src_op: sink,
                        dst_actor: next.actor_of(next_input),
                        dst_op: next_input,
                        net: eth_id,
                    };
                    let na = sim.actor_mut::<NodeActor>(regions[r].placement.actor_of(sink));
                    na.inner.inter_region.push(link);
                }
            }
            // Feeds: camera frames route through the sensor uplink; the
            // first region's bus feed goes straight to the server (tiny).
            let driver = regions[r].driver;
            let uplink = regions[r].uplink.unwrap();
            let mut feeds: Vec<Feed> = Vec::new();
            for (i, f) in bundle.feeds.iter().enumerate() {
                let target = if i == 0 {
                    uplink
                } else {
                    regions[r].placement.actor_of(f.op)
                };
                feeds.push(f.instantiate(target));
            }
            let d = sim.actor_mut::<WorkloadDriver>(driver);
            *d = WorkloadDriver::new(feeds);
        }

        // A trivial coordinator (base scheme) for ping infrastructure.
        let specs: Vec<BaselineRegionSpec> = (0..cfg.regions)
            .map(|r| BaselineRegionSpec {
                graph: Arc::clone(&regions[r].graph),
                placement: regions[r].placement.clone(),
            })
            .collect();
        let schedule = CheckpointSchedule {
            enabled: false,
            ..cfg.schedule()
        };
        let coord = BaselineCoordinator::new(schedule, BaselineKind::Base, cell_id, specs);
        let id = sim.add_actor(Box::new(coord));
        assert_eq!(id, controller_id, "coordinator id reservation");
        {
            let cn = sim.actor_mut::<CellularNet>(cell_id);
            cn.register_with_rates(controller_id, 1e9, 1e9);
        }

        Deployment {
            sim,
            cfg,
            regions,
            controller: None,
            coordinator: Some(id),
            region_controllers: Vec::new(),
            cell: cell_id,
            eth: Some(eth_id),
        }
    }

    /// Kick off controller timers and sensor feeds at t = 0.
    pub fn start(&mut self) {
        if let Some(ctl) = self.controller {
            self.sim
                .schedule_at(SimTime::ZERO, ctl, mobistreams::controller::Start);
        }
        for &ctl in &self.region_controllers {
            self.sim
                .schedule_at(SimTime::ZERO, ctl, mobistreams::controller::Start);
        }
        if let Some(coord) = self.coordinator {
            self.sim
                .schedule_at(SimTime::ZERO, coord, baselines::coordinator::Start);
        }
        for r in &self.regions {
            self.sim.schedule_at(SimTime::ZERO, r.driver, StartFeeds);
        }
    }

    /// Run the simulation to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Actor → shard map for [`Sim::enable_sharding`]: shard 0 holds
    /// the global actors (cellular core, coordinator, ethernet), shard
    /// `r + 1` holds region `r`'s WiFi medium, phones and sensor
    /// driver. A MobiStreams region-group controller rides on its
    /// group's FIRST region's shard, so intra-group control traffic
    /// never crosses the shard-0 barrier. Valid because regions
    /// exchange messages only through the cellular network and the
    /// coordinator — never directly.
    pub fn shard_map(&self) -> Vec<u16> {
        let mut map = vec![0u16; self.sim.actor_count()];
        for (r, rh) in self.regions.iter().enumerate() {
            let s = (r + 1) as u16;
            map[rh.wifi.index()] = s;
            map[rh.driver.index()] = s;
            for &n in &rh.nodes {
                map[n.index()] = s;
            }
            if let Some(u) = rh.uplink {
                map[u.index()] = s;
            }
        }
        let group_size = self.cfg.ctl_group_size.max(1);
        for (g, &ctl) in self.region_controllers.iter().enumerate() {
            map[ctl.index()] = (g * group_size + 1) as u16;
        }
        map
    }

    /// Switch the kernel to deterministic parallel mode: one shard per
    /// region plus the global shard, with the cellular network's
    /// minimum response delay as the conservative lookahead and
    /// per-destination cross-shard bounds from [`Deployment::shard_bounds`].
    /// Call after [`Deployment::start`] and any setup-time scheduling;
    /// the result is bit-identical for every `threads` value.
    pub fn enable_sharding(&mut self, threads: usize) {
        self.enable_sharding_opts(threads, true);
    }

    /// As [`Deployment::enable_sharding`], with per-destination
    /// cross-shard bounds optionally disabled: the kernel then barriers
    /// on the uniform cellular lookahead for every destination — the
    /// reference side of the digest cross-check. Digests are identical
    /// either way; the bound only changes how far region windows may
    /// run between barriers.
    pub fn enable_sharding_opts(&mut self, threads: usize, per_destination: bool) {
        let map = self.shard_map();
        let lookahead = self.cfg.cell.min_response_delay();
        let bounds = if per_destination {
            Some(self.shard_bounds())
        } else {
            None
        };
        self.sim.enable_sharding(map, lookahead, threads);
        if let Some(b) = bounds {
            self.sim.set_shard_bounds(b);
        }
    }

    /// Per-destination cross-shard bounds for the parallel kernel.
    ///
    /// Every event chain from one region shard into another passes
    /// through shard 0 and re-enters either as a cellular delivery
    /// (bounded below by [`CellularNet::min_delivery_delay_to`] for
    /// the destination endpoint) or — under MobiStreams — as a
    /// coordinator relay (bounded below by `Coordinator::relay_delay`
    /// = rtt/2). The smallest such re-entry delay is how far shard
    /// `d`'s window may safely run past the earliest foreign shard
    /// head; typically ~75 ms against a 2 ms uniform lookahead.
    ///
    /// On the server platform ([`EthernetNet`] present) deliveries
    /// into region shards can undercut the cellular floor, so the
    /// bounds collapse to the uniform lookahead.
    pub fn shard_bounds(&self) -> Vec<SimDuration> {
        let map = self.shard_map();
        let lookahead = self.cfg.cell.min_response_delay();
        let n_shards = map.iter().map(|&s| s as usize + 1).max().unwrap_or(1);
        if self.eth.is_some() {
            return vec![lookahead; n_shards];
        }
        let cn = self.sim.actor::<CellularNet>(self.cell);
        let relay = self.controller.map(|_| self.cfg.cell.rtt / 2);
        let mut cell_min: Vec<Option<SimDuration>> = vec![None; n_shards];
        for (ix, &s) in map.iter().enumerate() {
            if s == 0 {
                continue;
            }
            if let Some(d) = cn.min_delivery_delay_to(ActorId::from_index(ix)) {
                let slot = &mut cell_min[s as usize];
                *slot = Some(slot.map_or(d, |c| c.min(d)));
            }
        }
        (0..n_shards)
            .map(|d| {
                if d == 0 {
                    return lookahead;
                }
                let cross = [cell_min[d], relay]
                    .into_iter()
                    .flatten()
                    .min()
                    .unwrap_or(lookahead);
                cross.max(lookahead)
            })
            .collect()
    }

    // --- MobiStreams control-plane aggregation (the control plane is
    // sharded across region-group controllers; these helpers present
    // the single-controller view harvests and tests expect, with
    // deterministic merge orders). ---

    /// Every region-group controller, in group order (empty unless ms).
    fn ms_ctls(&self) -> impl Iterator<Item = &RegionController> + '_ {
        self.region_controllers
            .iter()
            .map(|&c| self.sim.actor::<RegionController>(c))
    }

    /// The region-group controller owning region `r` (ms only).
    pub fn ms_ctl_of(&self, r: usize) -> &RegionController {
        let g = r / self.cfg.ctl_group_size.max(1);
        self.sim
            .actor::<RegionController>(self.region_controllers[g])
    }

    /// Latest committed checkpoint version of region `r` (ms only).
    pub fn ms_last_complete(&self, r: usize) -> u64 {
        self.ms_ctl_of(r).last_complete(r)
    }

    /// Is region `r` currently stopped/bypassed (ms only)?
    pub fn ms_is_stopped(&self, r: usize) -> bool {
        self.ms_ctl_of(r).is_stopped(r)
    }

    /// Departure replacements completed across all groups (ms only).
    pub fn ms_departures_handled(&self) -> u64 {
        self.ms_ctls().map(|c| c.departures_handled).sum()
    }

    /// Region stops across all groups (ms only).
    pub fn ms_stops(&self) -> u64 {
        self.ms_ctls().map(|c| c.stops).sum()
    }

    /// All committed checkpoint rounds, merged over groups and sorted
    /// by (time, region, version) for a deterministic order (ms only).
    pub fn ms_commits(&self) -> Vec<(usize, u64, SimTime)> {
        let mut out: Vec<_> = self.ms_ctls().flat_map(|c| &c.commits).copied().collect();
        out.sort_by_key(|&(r, v, t)| (t, r, v));
        out
    }

    /// All recovery episodes, merged over groups and sorted by
    /// (start time, region) (ms only).
    pub fn ms_recoveries(&self) -> Vec<RecoveryRecord> {
        let mut out: Vec<_> = self
            .ms_ctls()
            .flat_map(|c| &c.recoveries)
            .copied()
            .collect();
        out.sort_by_key(|rec| (rec.started, rec.region));
        out
    }

    /// All partition episodes, merged over groups and sorted by
    /// (severed-at, region) (ms only).
    pub fn ms_severed_episodes(&self) -> Vec<(usize, SimTime, SimTime)> {
        let mut out: Vec<_> = self
            .ms_ctls()
            .flat_map(|c| &c.severed_episodes)
            .copied()
            .collect();
        out.sort_by_key(|&(r, s, _)| (s, r));
        out
    }

    /// Total membership (messages, bytes) sent by the control plane
    /// (ms only) — the churn-storm complexity tests assert these scale
    /// with delta size, not region population.
    pub fn ms_membership_traffic(&self) -> (u64, u64) {
        self.ms_ctls().fold((0, 0), |(m, b), c| {
            (m + c.membership_msgs, b + c.membership_bytes)
        })
    }
}

/// The sensor phone of the server baseline: receives camera frames
/// locally and uploads them over its 3G uplink, with a bounded on-phone
/// buffer (drop-newest when 10 uploads are queued).
struct SensorUplink {
    cell: ActorId,
    dst: ActorId,
    in_flight: u32,
    cap: u32,
    next_tag: u64,
    dropped: u64,
    forwarded: u64,
}

impl simkernel::Actor for SensorUplink {
    fn on_event(&mut self, ev: simkernel::EventBox, ctx: &mut simkernel::Ctx) {
        simkernel::match_event!(ev,
            s: dsps::node::SourceEmit => {
                if self.in_flight >= self.cap {
                    self.dropped += 1;
                    return;
                }
                self.in_flight += 1;
                self.forwarded += 1;
                let tag = self.next_tag;
                self.next_tag += 1;
                let msg = dsps::node::InterRegionMsg {
                    dst_op: s.op,
                    value: s.value,
                    bytes: s.bytes,
                    entered: Some(ctx.now()),
                };
                let msg = simnet::payload(msg);
                simnet::net_send(ctx, self.cell, self.dst, TrafficClass::Data, s.bytes, tag, msg);
            },
            _d: simnet::TxDone => {
                self.in_flight = self.in_flight.saturating_sub(1);
            },
            _f: simnet::TxFailed => {
                self.in_flight = self.in_flight.saturating_sub(1);
            },
            @else _other => {}
        );
    }

    fn name(&self) -> String {
        "sensor-uplink".into()
    }

    simkernel::impl_actor_any!();
}
