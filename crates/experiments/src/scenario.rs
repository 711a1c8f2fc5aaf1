//! Deployment builder: stands up a full MobiStreams, baseline or
//! server-based system inside one deterministic simulation.
//!
//! The paper's testbed: 4 regions cascaded in a line, 8 phones per
//! region, ad-hoc WiFi 1–5 Mbps, 3G uplink 0.016–0.32 Mbps / downlink
//! 0.35–1.14 Mbps, checkpoint period 5 minutes, controller pings every
//! 30 s with a 10 s timeout (§IV).
//!
//! Both platforms of Table I come out of one [`Deployment::build`]; a
//! platform is only a shape. On the phones (Fig 1d) a region's phones
//! stream over its WiFi medium and hand off to the next region over
//! 3G. On the server DSPS (Fig 1c) four servers per region stream over
//! one Ethernet switch, which also links the regions, and a sensor
//! phone uploads feed 0 over its 3G uplink. The bundle, the node
//! wiring, the links, the feeds and the control plane are one path.

use std::sync::Arc;

use apps::{AppBundle, Calibration};
use baselines::coordinator::{BaselineCoordinator, BaselineRegionSpec};
use baselines::rep2::{duplicate_graph, twin_of, Rep2Scheme};
use baselines::{BaselineKind, RetainScheme};
use dsps::ft::{FtScheme, NullScheme};
use dsps::graph::QueryGraph;
use dsps::node::{NodeActor, NodeConfig, NodeInner};
use dsps::placement::{
    resolve_inter_region, squeeze_placement, CheckpointSchedule, Placement, RecoveryRecord,
    RegionWiring,
};
use dsps::workload::{Feed, StartFeeds, WorkloadDriver};
use mobistreams::{Coordinator, MsScheme, RegionController, RegionSpec};
use simkernel::{ActorId, Sim, SimDuration, SimTime};
use simnet::cellular::{CellConfig, CellularNet};
use simnet::ethernet::EthernetNet;
use simnet::stats::TrafficClass;
use simnet::wifi::{WifiConfig, WifiMedium};

use crate::fleet::{schedule_injections, ChurnEvent, ChurnProfile};
use crate::weather::{CtlTopology, WeatherProgram};

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
    /// Datacenter servers fed over the 3G uplink (Fig 1c): four
    /// servers per region without fault tolerance (the deployment runs
    /// [`Scheme::Base`] whatever the spec's scheme), one Ethernet switch
    /// for every stream hop, and a sensor phone uploading feed 0. The
    /// switch's 50 µs latency undercuts the kernel's lookahead, so the
    /// deployment is one shard at every `threads` value.
    Server {
        /// Sensor phone uplink rate (the paper sweeps 0.016–0.32 Mbps).
        uplink_bps: f64,
    },
}

/// One run's full spec: the deployment, its churn and weather, the
/// measurement window and how the kernel runs it. The default is the
/// paper's 4 × 8 testbed on the unsharded kernel.
#[derive(Clone)]
pub struct ScenarioConfig {
    /// Report label (a library profile's name).
    pub name: String,
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
    /// Application calibration.
    pub cal: Calibration,
    /// Checkpoint period.
    pub ckpt_period: SimDuration,
    /// First checkpoint offset.
    pub ckpt_offset: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Scheduled `(at_s, loss)` changes of each region's WiFi loss:
    /// entry `r` is region `r`'s; a region without one keeps the
    /// constant `wifi.loss`. Phones platform only.
    pub loss_steps: Vec<Vec<(f64, f64)>>,
    /// Churn model, compiled from the seed into a schedule of
    /// failures, departures and rejoins before the run starts.
    pub churn: ChurnProfile,
    /// Network weather rolling over the deployment (None = clear
    /// skies), compiled into the schedule like churn.
    pub weather: Option<WeatherProgram>,
    /// Measurement starts here (boot/warm-up excluded).
    pub warmup: SimDuration,
    /// The run ends here: the measurement window is
    /// `[warmup, duration)`.
    pub duration: SimDuration,
    /// Worker threads of the sharded kernel, one shard per region. A
    /// wall-clock knob only: the report digest is the same for every
    /// value ≥ 1. 0 keeps the unsharded kernel, whose single RNG stream
    /// the paper artifacts are pinned on (sharding forks it per shard).
    /// The server platform is one shard, so every value reports alike.
    pub threads: usize,
    /// Force the kernel's causality sanitizer on (it is already on in
    /// debug builds). Observation-only: the report's `sanitizer_*`
    /// fields carry its per-window ledger; the digest does not change.
    pub sanitize: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            name: "testbed".into(),
            app: AppKind::Bcp,
            scheme: Scheme::Ms,
            platform: Platform::Phones,
            regions: 4,
            phones: 8,
            wifi: WifiConfig::default(),
            cal: Calibration::default(),
            ckpt_period: SimDuration::from_secs(300),
            ckpt_offset: SimDuration::from_secs(60),
            seed: 1,
            loss_steps: Vec::new(),
            churn: ChurnProfile::default(),
            weather: None,
            warmup: SimDuration::from_secs(150),
            duration: SimDuration::from_secs(1350),
            threads: 0,
            sanitize: false,
        }
    }
}

impl ScenarioConfig {
    /// The checkpoint schedule the control plane runs.
    fn schedule(&self) -> CheckpointSchedule {
        CheckpointSchedule {
            period: self.ckpt_period,
            offset: self.ckpt_offset,
        }
    }

    /// Phones across the whole deployment.
    pub fn total_phones(&self) -> u32 {
        self.regions as u32 * self.phones
    }

    /// Control-plane topology: one controller per region.
    pub fn topo(&self) -> CtlTopology {
        CtlTopology {
            regions: self.regions,
        }
    }

    /// Shrink to the CI smoke scale of `msx scenarios matrix --smoke`:
    /// 3 regions × ≤8 phones over 360 s. 360 s keeps the latest
    /// partition-heal window and its post-heal commit round inside the
    /// horizon; the checkpoint cadence shrinks with it so the post-heal
    /// commit opportunities per horizon match the full-scale profiles
    /// (~5-6 rounds).
    pub fn shrink_to_smoke(&mut self) {
        self.regions = self.regions.min(3);
        self.phones = self.phones.min(8);
        self.duration = SimDuration::from_secs(360);
        self.warmup = SimDuration::from_secs(60);
        self.ckpt_period = SimDuration::from_secs(60);
        self.ckpt_offset = SimDuration::from_secs(20);
    }
}

/// Handles into one built region.
pub struct RegionHandles {
    /// Phone/server actor per slot.
    pub nodes: Vec<ActorId>,
    /// The region's WiFi medium (no members on the server platform,
    /// whose nodes stream over Ethernet).
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
    /// Baseline coordinator (rep-2/local/dist/base).
    pub coordinator: Option<ActorId>,
    /// MobiStreams region controllers (ms only): entry `r` owns region
    /// `r`.
    pub region_controllers: Vec<ActorId>,
    /// Cellular network actor.
    pub cell: ActorId,
    /// Ethernet (server platform only).
    pub eth: Option<ActorId>,
}

/// Servers per region of the server platform.
const SERVERS: u32 = 4;

impl Deployment {
    /// Build the deployment. Call [`Deployment::start`] afterwards.
    ///
    /// The platform decides the nodes (`cfg.phones` phones or four
    /// servers), their placement, the stream network, the nodes'
    /// cellular rates and whether feed 0 rides a sensor uplink.
    /// Everything else is one path for both platforms, on the default
    /// cellular network.
    pub fn build(cfg: ScenarioConfig) -> Deployment {
        let mut sim = Sim::new(cfg.seed);
        let cell = CellConfig::default();
        let cell_id = sim.add_actor(Box::new(CellularNet::new(cell.clone())));
        let uplink_bps = match cfg.platform {
            Platform::Phones => None,
            Platform::Server { uplink_bps } => Some(uplink_bps),
        };
        let server = uplink_bps.is_some();
        // The server DSPS runs without fault tolerance whatever the spec
        // says; its Ethernet carries every stream hop.
        let scheme = if server { Scheme::Base } else { cfg.scheme };
        let eth = server.then(|| sim.add_actor(Box::new(EthernetNet::new())));
        // A 2013 server core is ~12× a 600 MHz A8, behind a datacenter
        // front end.
        let (slots, cpu_factor, source_queue_cap, node_rates) = if server {
            (SERVERS, 0.08, 64, (1e9, 1e9))
        } else {
            let rates = (cell.default_up_bps, cell.default_down_bps);
            (cfg.phones, 1.0, 10, rates)
        };

        // Per region: the bundle, its deployed graph and slot table,
        // and rep-2's flow map.
        struct RegionPlan {
            bundle: AppBundle,
            graph: Arc<QueryGraph>,
            placement: Placement,
            flow_of: Option<Arc<Vec<u8>>>,
        }
        let plans: Vec<RegionPlan> = (0..cfg.regions)
            .map(|r| {
                let bundle = match cfg.app {
                    AppKind::Bcp => apps::build_bcp(&cfg.cal, cfg.phones, r == 0),
                    AppKind::SignalGuru => apps::build_signalguru(&cfg.cal, cfg.phones, r == 0),
                };
                let (graph, placement, flow_of) = if server {
                    // Round-robin ops over the servers.
                    let op_slot = bundle.graph.op_ids().map(|op| op.0 % SERVERS).collect();
                    let placement = Placement::from_op_slot(op_slot, SERVERS);
                    (Arc::clone(&bundle.graph), placement, None)
                } else if scheme == Scheme::Rep2 {
                    let (g2, flows) = duplicate_graph(&bundle.graph);
                    let n = bundle.graph.op_count();
                    // rep-2 must fit two flows onto one region, so each
                    // flow is squeezed onto half the phones and every
                    // phone carries roughly two of the paper's operator
                    // groups (this is where rep-2's 2× CPU cost bites).
                    // Flows stay disjoint and stage order is preserved.
                    let half = cfg.phones / 2;
                    assert!(half >= 1, "rep-2 needs at least 2 phones (one per flow)");
                    let compressed = squeeze_placement(&bundle.placement, half);
                    // flow 0 on slots 0..k, flow 1 on slots k..2k.
                    let mut op_slot = vec![u32::MAX; 2 * n];
                    for (op, &s) in compressed.op_slot().iter().enumerate() {
                        if s != u32::MAX {
                            op_slot[op] = s;
                            op_slot[op + n] = s + half;
                        }
                    }
                    let placement = Placement::from_op_slot(op_slot, cfg.phones);
                    (Arc::new(g2), placement, Some(Arc::new(flows)))
                } else {
                    (Arc::clone(&bundle.graph), bundle.placement.clone(), None)
                };
                RegionPlan {
                    bundle,
                    graph,
                    placement,
                    flow_of,
                }
            })
            .collect();

        // Reserve the control-plane ids: nodes need their controller's
        // id and the controllers need the nodes'. Ids are dense, so count
        // the actors before them. Per region: its WiFi medium, its nodes,
        // its sensor driver and, on the server platform, its sensor
        // uplink. Then the baseline coordinator, or one MobiStreams
        // controller per region and the global coordinator.
        let per_region = slots as usize + 2 + usize::from(server);
        let first_ctl = sim.actor_count() + cfg.regions * per_region;
        let ctl_id_of_region = |r: usize| ActorId::from_index(first_ctl + r);
        let baseline_id = ActorId::from_index(first_ctl);
        let coordinator_id = ActorId::from_index(first_ctl + cfg.regions);

        let mut regions = Vec::new();
        for (r, plan) in plans.iter().enumerate() {
            let wifi = sim.add_actor(Box::new(WifiMedium::new(cfg.wifi.clone())));
            let node_ctl = if scheme == Scheme::Ms {
                ctl_id_of_region(r)
            } else {
                baseline_id
            };
            let net = eth.unwrap_or(wifi);
            let mut nodes = Vec::new();
            for slot in 0..slots {
                let ncfg = NodeConfig {
                    region: r,
                    slot,
                    cpu_factor,
                    source_queue_cap,
                };
                let graph = Arc::clone(&plan.graph);
                let mut inner = NodeInner::new(ncfg, graph, net, cell_id, node_ctl);
                inner.op_slot = plan.placement.op_slot().to_vec();
                let ft = Self::make_scheme(&cfg, scheme, plan.flow_of.clone());
                nodes.push(sim.add_actor(Box::new(NodeActor::new(inner, ft))));
            }
            let driver = sim.add_actor(Box::new(WorkloadDriver::new(Vec::new())));
            // The sensor phone that uploads feed 0's frames over 3G.
            let uplink = server.then(|| {
                let s1 = plan.placement.op_slot()[plan.bundle.feeds[0].op.index()];
                sim.add_actor(Box::new(SensorUplink {
                    cell: cell_id,
                    dst: nodes[s1 as usize],
                    in_flight: 0,
                    cap: 10,
                    next_tag: 1,
                    dropped: 0,
                }))
            });
            regions.push(RegionHandles {
                placement: plan.placement.clone().bind(nodes.clone()),
                nodes,
                wifi,
                driver,
                graph: Arc::clone(&plan.graph),
                uplink,
            });
        }

        // Wire node internals now that all ids exist.
        for (r, plan) in plans.iter().enumerate() {
            let handles = &regions[r];
            let table = &handles.placement;
            for (slot, &nid) in handles.nodes.iter().enumerate() {
                let na = sim.actor_mut::<NodeActor>(nid);
                na.inner.slot_actors = Arc::clone(table.slot_actors());
                for op in table.ops_on(slot as u32) {
                    na.inner.host_op(op);
                }
                // rep-2: the duplicate flow's traffic is the
                // replication overhead (Fig 10b).
                if let Some(flows) = &plan.flow_of {
                    let on_slot = table.ops_on(slot as u32);
                    if on_slot.iter().any(|op| flows[op.index()] == 1) {
                        na.inner.data_class = TrafficClass::Replication;
                    }
                }
            }
            // Stream network membership + cellular registration.
            for &n in &handles.nodes {
                match eth {
                    Some(eth) => sim.actor_mut::<EthernetNet>(eth).register(n),
                    None => sim.actor_mut::<WifiMedium>(handles.wifi).add_member(n),
                }
            }
            let cn = sim.actor_mut::<CellularNet>(cell_id);
            for &n in &handles.nodes {
                cn.register_with_rates(n, node_rates.0, node_rates.1);
            }
            if let (Some(up), Some(bps)) = (handles.uplink, uplink_bps) {
                cn.register_with_rates(up, bps, cell.default_down_bps);
            }
            // Feeds; the sensor uplink carries feed 0's camera frames.
            let mut feeds: Vec<Feed> = Vec::new();
            for (i, spec) in plan.bundle.feeds.iter().enumerate() {
                let target = match handles.uplink {
                    Some(up) if i == 0 => up,
                    _ => table.actor_of(spec.op),
                };
                let mut feed = spec.instantiate(target);
                if let Some(flows) = &plan.flow_of {
                    let t = twin_of(spec.op, flows.len() / 2);
                    feed.mirrors.push((t, table.actor_of(t)));
                }
                feeds.push(feed);
            }
            *sim.actor_mut::<WorkloadDriver>(handles.driver) = WorkloadDriver::new(feeds);
        }

        // Inter-region links: sinks of r feed the inter-region input of
        // r + 1 (both flows' for rep-2), installed once here; only the
        // MobiStreams coordinator re-resolves them.
        let wiring: Vec<RegionWiring> = plans
            .iter()
            .zip(&regions)
            .enumerate()
            .map(|(r, (plan, handles))| {
                let mut downstream = Vec::new();
                if let Some(next) = plans.get(r + 1) {
                    let input = next.bundle.inter_region_input;
                    downstream.push((r + 1, input));
                    if let Some(flows) = &next.flow_of {
                        downstream.push((r + 1, twin_of(input, flows.len() / 2)));
                    }
                }
                RegionWiring {
                    graph: Arc::clone(&plan.graph),
                    op_slot: Arc::new(handles.placement.op_slot().to_vec()),
                    slot_actors: Arc::clone(handles.placement.slot_actors()),
                    downstream,
                    stopped: false,
                }
            })
            .collect();
        for (r, handles) in regions.iter().enumerate() {
            for (slot, links) in resolve_inter_region(&wiring, r, eth.unwrap_or(cell_id)) {
                let na = sim.actor_mut::<NodeActor>(handles.nodes[slot as usize]);
                na.inner.inter_region = links;
            }
        }

        // Control plane. Commands pushed without their bytes (a region
        // controller's WiFi link flips and sensor re-pairing, the
        // coordinator's install outcomes) ride the cellular downlink
        // latency, rtt/2. Keeping the delay at the physical-path floor
        // (rather than the much smaller kernel lookahead) lets the
        // parallel kernel widen per-destination windows to the same
        // floor.
        let push_delay = cell.rtt / 2;
        let (coordinator, region_controllers) = match scheme {
            Scheme::Ms => {
                let mut ctls = Vec::new();
                for (r, handles) in regions.iter().enumerate() {
                    let spec = RegionSpec {
                        graph: Arc::clone(&plans[r].graph),
                        placement: handles.placement.clone(),
                        wifi: handles.wifi,
                        sensors: vec![handles.driver],
                    };
                    let ctl = RegionController::new(
                        cfg.schedule(),
                        cell_id,
                        coordinator_id,
                        push_delay,
                        r,
                        spec,
                    );
                    let id = sim.add_actor(Box::new(ctl));
                    assert_eq!(id, ctl_id_of_region(r), "region controller id reservation");
                    ctls.push(id);
                }
                let coord = Coordinator::new(cell_id, push_delay, wiring, ctls.clone());
                let id = sim.add_actor(Box::new(coord));
                assert_eq!(id, coordinator_id, "coordinator id reservation");
                (None, ctls)
            }
            _ => {
                let kind = match scheme {
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
                assert_eq!(id, baseline_id, "coordinator id reservation");
                (Some(id), Vec::new())
            }
        };
        {
            let cn = sim.actor_mut::<CellularNet>(cell_id);
            if region_controllers.is_empty() {
                cn.register_with_rates(baseline_id, 1e9, 1e9);
            } else {
                // Each region controller models a per-area control
                // server on provisioned-but-finite backhaul:
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
            coordinator,
            region_controllers,
            cell: cell_id,
            eth,
        }
    }

    fn make_scheme(
        cfg: &ScenarioConfig,
        scheme: Scheme,
        flow_of: Option<Arc<Vec<u8>>>,
    ) -> Box<dyn FtScheme> {
        match scheme {
            Scheme::Base => Box::new(NullScheme),
            Scheme::Ms => Box::<MsScheme>::default(),
            Scheme::Rep2 => Box::new(Rep2Scheme::new(flow_of.expect("rep-2 flow map"))),
            Scheme::Local => Box::new(RetainScheme::new(Some(0), cfg.ckpt_period)),
            Scheme::Dist(n) => Box::new(RetainScheme::new(Some(n), cfg.ckpt_period)),
            Scheme::Upstream => Box::new(RetainScheme::new(None, cfg.ckpt_period)),
        }
    }

    /// Kick off controller timers and sensor feeds at t = 0, then
    /// schedule the spec's churn, WiFi loss steps and weather, in that
    /// order. Returns the churn schedule and the number of weather
    /// injections.
    pub fn start(&mut self) -> (Vec<ChurnEvent>, u64) {
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
        schedule_injections(self)
    }

    /// Run the simulation to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Actor → shard map for [`Sim::enable_sharding`]: shard 0 holds
    /// the global actors (cellular core, coordinator), shard `r + 1`
    /// holds region `r`'s WiFi medium, phones and sensor driver and,
    /// under MobiStreams, its region controller, so a region's control
    /// traffic never crosses the shard-0 barrier. Valid because regions
    /// exchange messages only through the cellular network and the
    /// coordinator — never directly. A deployment with an Ethernet
    /// switch is one shard: the switch's 50 µs latency undercuts the
    /// cellular lookahead.
    pub fn shard_map(&self) -> Vec<u16> {
        let mut map = vec![0u16; self.sim.actor_count()];
        if self.eth.is_some() {
            return map;
        }
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
        for (r, &ctl) in self.region_controllers.iter().enumerate() {
            map[ctl.index()] = (r + 1) as u16;
        }
        map
    }

    /// Switch the kernel to deterministic parallel mode: one shard per
    /// region plus the global shard (one shard in all on the server
    /// platform, which then needs no cross bounds), with the cellular
    /// network's minimum response delay as the conservative lookahead. With
    /// `per_destination`, cross-shard bounds come from
    /// [`Deployment::shard_bounds`]; without, the kernel barriers on the
    /// uniform lookahead for every destination — the reference side of
    /// the digest cross-check. Call after [`Deployment::start`] and any
    /// setup-time scheduling; the result is bit-identical for every
    /// `threads` value and either bound.
    pub fn enable_sharding_opts(&mut self, threads: usize, per_destination: bool) {
        let map = self.shard_map();
        let lookahead = CellConfig::default().min_response_delay();
        let sharded = map.iter().any(|&s| s > 0);
        let bounds = (per_destination && sharded).then(|| self.shard_bounds());
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
    /// coordinator install outcome (bounded below by
    /// `Coordinator::relay_delay` = rtt/2). The smallest such re-entry
    /// delay is how far shard `d`'s window may safely run past the
    /// earliest foreign shard head; typically ~75 ms against a 2 ms
    /// uniform lookahead.
    pub fn shard_bounds(&self) -> Vec<SimDuration> {
        let map = self.shard_map();
        let cell = CellConfig::default();
        let lookahead = cell.min_response_delay();
        let n_shards = map.iter().map(|&s| s as usize + 1).max().unwrap_or(1);
        let cn = self.sim.actor::<CellularNet>(self.cell);
        let relay = (!self.region_controllers.is_empty()).then_some(cell.rtt / 2);
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
    // sharded across region controllers; these helpers present the
    // single-controller view harvests and tests expect, with
    // deterministic merge orders). ---

    /// Every region controller, in region order (empty unless ms).
    fn ms_ctls(&self) -> impl Iterator<Item = &RegionController> + '_ {
        self.region_controllers
            .iter()
            .map(|&c| self.sim.actor::<RegionController>(c))
    }

    /// The controller of region `r` (ms only).
    pub fn ms_ctl_of(&self, r: usize) -> &RegionController {
        self.sim
            .actor::<RegionController>(self.region_controllers[r])
    }

    /// Latest committed checkpoint version of region `r` (ms only).
    pub fn ms_last_complete(&self, r: usize) -> u64 {
        self.ms_ctl_of(r).last_complete()
    }

    /// Is region `r` currently stopped/bypassed (ms only)?
    pub fn ms_is_stopped(&self, r: usize) -> bool {
        self.ms_ctl_of(r).is_stopped()
    }

    /// Departure replacements completed across all regions (ms only).
    pub fn ms_departures_handled(&self) -> u64 {
        self.ms_ctls().map(|c| c.departures_handled).sum()
    }

    /// Region stops across all regions (ms only).
    pub fn ms_stops(&self) -> u64 {
        self.ms_ctls().map(|c| c.stops).sum()
    }

    /// All committed checkpoint rounds, merged over regions and sorted
    /// by (time, region, version) for a deterministic order (ms only).
    pub fn ms_commits(&self) -> Vec<(usize, u64, SimTime)> {
        let mut out: Vec<_> = self.ms_ctls().flat_map(|c| &c.commits).copied().collect();
        out.sort_by_key(|&(r, v, t)| (t, r, v));
        out
    }

    /// All recovery episodes, merged over regions and sorted by
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

    /// All partition episodes, merged over regions and sorted by
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
pub(crate) struct SensorUplink {
    cell: ActorId,
    dst: ActorId,
    in_flight: u32,
    cap: u32,
    next_tag: u64,
    /// Frames shed at the full buffer: the region's source drops.
    pub(crate) dropped: u64,
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
