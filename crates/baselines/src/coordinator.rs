//! The per-deployment coordinator for baseline schemes.
//!
//! Plays the controller's role for rep-2 / local / dist-n: broadcasts
//! checkpoint ticks, pings source nodes, receives failure reports, and
//! drives the scheme-specific recovery (rep-2 takeover, dist-n state
//! fetch + retained replay). `base` and `local` have no recovery — any
//! failure stops the region (they appear only in fault-free
//! experiments, plus rep-2's >1-failure and dist-n's >n-failure cases
//! which the paper shows as truncated curves in Fig 9).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dsps::graph::{EdgeId, OpId, QueryGraph};
use dsps::node::{Ping, Pong, ReportDead, UpdateRouting};
use simkernel::{impl_actor_any, Actor, ActorId, Ctx, Event, EventBox, SimDuration, SimTime};
use simnet::cellular::{CellRx, CellSend};
use simnet::stats::TrafficClass;
use simnet::{payload, payload_as};

use crate::dist::peers_of;
use crate::msgs::*;

/// Which baseline this coordinator drives.
#[derive(Clone)]
pub enum BaselineKind {
    /// No fault tolerance.
    Base,
    /// Active standby over a duplicated graph.
    Rep2 {
        /// `flow_of[op]` from [`crate::rep2::duplicate_graph`].
        flow_of: Arc<Vec<u8>>,
    },
    /// Local checkpointing (upper bound; no recovery).
    Local,
    /// Distributed checkpointing to `n` peers.
    Dist {
        /// Copies per checkpoint.
        n: u32,
    },
    /// Upstream backup (Hwang'05): no checkpoints; on a failure the
    /// upstream neighbor re-hosts the failed operators and replays its
    /// retained outputs. Single-failure only.
    Upstream,
}

impl BaselineKind {
    /// Scheme label for reports.
    pub fn label(&self) -> String {
        match self {
            BaselineKind::Base => "base".into(),
            BaselineKind::Rep2 { .. } => "rep-2".into(),
            BaselineKind::Local => "local".into(),
            BaselineKind::Dist { n } => format!("dist-{n}"),
            BaselineKind::Upstream => "upstream".into(),
        }
    }
}

/// Coordinator parameters (paper-matched defaults).
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Checkpoint period.
    pub ckpt_period: SimDuration,
    /// First tick offset.
    pub ckpt_offset: SimDuration,
    /// Source ping period.
    pub ping_period: SimDuration,
    /// Ping timeout.
    pub ping_timeout: SimDuration,
    /// Burst gather window.
    pub gather_window: SimDuration,
    /// Checkpoint ticks on/off.
    pub checkpoints_enabled: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            ckpt_period: SimDuration::from_secs(300),
            ckpt_offset: SimDuration::from_secs(60),
            ping_period: SimDuration::from_secs(30),
            ping_timeout: SimDuration::from_secs(10),
            gather_window: SimDuration::from_secs(2),
            checkpoints_enabled: true,
        }
    }
}

/// One region as the coordinator sees it.
pub struct BaselineRegionSpec {
    /// Query network (already duplicated for rep-2).
    pub graph: Arc<QueryGraph>,
    /// Initial op→slot assignment.
    pub op_slot: Vec<u32>,
    /// Phone actor per slot.
    pub slot_actors: Vec<ActorId>,
}

struct BRegion {
    spec: BaselineRegionSpec,
    op_slot: Vec<u32>,
    alive: Vec<bool>,
    version: u64,
    stopped: bool,
    pending: BTreeSet<u32>,
    recover_scheduled: bool,
    recovering: bool,
    recovery_started: SimTime,
    recovery_failures: usize,
    outstanding_acks: BTreeSet<u32>,
    flow_broken: [bool; 2],
    primary: u8,
}

impl BRegion {
    fn hosting_slots(&self) -> BTreeSet<u32> {
        self.op_slot
            .iter()
            .copied()
            .filter(|&s| s != u32::MAX)
            .collect()
    }
    fn active_slots(&self) -> Vec<u32> {
        (0..self.alive.len() as u32)
            .filter(|&s| self.alive[s as usize])
            .collect()
    }
    fn idle_active_slots(&self) -> Vec<u32> {
        let hosting = self.hosting_slots();
        self.active_slots()
            .into_iter()
            .filter(|s| !hosting.contains(s))
            .collect()
    }
    fn ops_on(&self, slot: u32) -> Vec<OpId> {
        self.op_slot
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == slot)
            .map(|(i, _)| OpId(i as u32))
            .collect()
    }
}

impl BaselineCoordinator {
    /// Send a tagged state-ship request; a failed send retries with the
    /// next surviving holder.
    fn send_ship(
        &mut self,
        region: usize,
        dst: ActorId,
        ship: ShipStateTo,
        holder: u32,
        ctx: &mut Ctx,
    ) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.ship_tags.insert(tag, (region, ship, holder));
        let src = ctx.self_id();
        let cell = self.cell;
        ctx.send(
            cell,
            CellSend {
                src,
                dst,
                class: TrafficClass::Control,
                bytes: wire::CONTROL,
                tag,
                payload: Some(payload(ship)),
            },
        );
    }
}

fn holder_of(plan: &[(u32, u32, u32)], failed: u32) -> u32 {
    plan.iter()
        .find(|&&(f, _, _)| f == failed)
        .map(|&(_, _, h)| h)
        .unwrap_or(u32::MAX)
}

/// Startup trigger.
#[derive(Debug, Clone, Copy)]
pub struct Start;

#[derive(Debug, Clone, Copy)]
enum BTimer {
    Tick { region: usize },
    Ping,
    PingDeadline { round: u64 },
    Recover { region: usize },
    AckDeadline { region: usize },
}

/// Recovery episode record.
#[derive(Debug, Clone, Copy)]
pub struct BaselineRecovery {
    /// Region.
    pub region: usize,
    /// Burst size.
    pub failures: usize,
    /// Detection time.
    pub started: SimTime,
    /// Resumption time.
    pub finished: SimTime,
}

/// The coordinator actor.
pub struct BaselineCoordinator {
    cfg: CoordinatorConfig,
    kind: BaselineKind,
    cell: ActorId,
    regions: Vec<BRegion>,
    ping_round: u64,
    ping_outstanding: BTreeMap<u64, BTreeSet<(usize, u32)>>,
    next_tag: u64,
    ship_tags: BTreeMap<u64, (usize, ShipStateTo, u32)>, // tag -> (region, ship, holder)
    /// Regions stopped (unrecoverable).
    pub stops: u64,
    /// rep-2 primary flips.
    pub takeovers: u64,
    /// Completed recoveries.
    pub recoveries: Vec<BaselineRecovery>,
}

impl BaselineCoordinator {
    /// Build over the given regions.
    pub fn new(
        cfg: CoordinatorConfig,
        kind: BaselineKind,
        cell: ActorId,
        specs: Vec<BaselineRegionSpec>,
    ) -> Self {
        let regions = specs
            .into_iter()
            .map(|spec| BRegion {
                op_slot: spec.op_slot.clone(),
                alive: vec![true; spec.slot_actors.len()],
                version: 0,
                stopped: false,
                pending: BTreeSet::new(),
                recover_scheduled: false,
                recovering: false,
                recovery_started: SimTime::ZERO,
                recovery_failures: 0,
                outstanding_acks: BTreeSet::new(),
                flow_broken: [false; 2],
                primary: 0,
                spec,
            })
            .collect();
        BaselineCoordinator {
            cfg,
            kind,
            cell,
            regions,
            ping_round: 0,
            ping_outstanding: BTreeMap::new(),
            next_tag: 1,
            ship_tags: BTreeMap::new(),
            stops: 0,
            takeovers: 0,
            recoveries: Vec::new(),
        }
    }

    /// Is the region stopped?
    pub fn is_stopped(&self, region: usize) -> bool {
        self.regions[region].stopped
    }

    fn send_ctl(&mut self, ctx: &mut Ctx, dst: ActorId, bytes: u64, ev: impl Event) {
        let src = ctx.self_id();
        let cell = self.cell;
        ctx.send(
            cell,
            CellSend {
                src,
                dst,
                class: TrafficClass::Control,
                bytes,
                tag: 0,
                payload: Some(payload(ev)),
            },
        );
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.cfg.checkpoints_enabled
            && !matches!(self.kind, BaselineKind::Base | BaselineKind::Upstream)
        {
            for region in 0..self.regions.len() {
                let me = ctx.self_id();
                ctx.send_in(self.cfg.ckpt_offset, me, BTimer::Tick { region });
            }
        }
        let me = ctx.self_id();
        ctx.send_in(self.cfg.ping_period, me, BTimer::Ping);
    }

    fn on_tick(&mut self, region: usize, ctx: &mut Ctx) {
        let me = ctx.self_id();
        ctx.send_in(self.cfg.ckpt_period, me, BTimer::Tick { region });
        let rt = &mut self.regions[region];
        if rt.stopped || rt.recovering {
            return;
        }
        rt.version += 1;
        let version = rt.version;
        let targets: Vec<ActorId> = rt
            .hosting_slots()
            .into_iter()
            .filter(|&s| rt.alive[s as usize])
            .map(|s| rt.spec.slot_actors[s as usize])
            .collect();
        for dst in targets {
            self.send_ctl(ctx, dst, wire::CONTROL, CkptTick { version });
        }
    }

    fn on_ping(&mut self, ctx: &mut Ctx) {
        let me = ctx.self_id();
        ctx.send_in(self.cfg.ping_period, me, BTimer::Ping);
        self.ping_round += 1;
        let round = self.ping_round;
        let mut outstanding = BTreeSet::new();
        let mut targets = Vec::new();
        for (r, rt) in self.regions.iter().enumerate() {
            if rt.stopped {
                continue;
            }
            // The baseline coordinator heartbeats every hosting node
            // (server-style schemes assume cluster heartbeats); without
            // this, a node whose upstream also died is undetectable.
            for s in rt.hosting_slots() {
                if rt.alive[s as usize] {
                    outstanding.insert((r, s));
                    targets.push(rt.spec.slot_actors[s as usize]);
                }
            }
        }
        if outstanding.is_empty() {
            return;
        }
        self.ping_outstanding.insert(round, outstanding);
        for dst in targets {
            self.send_ctl(ctx, dst, wire::PING_BYTES, Ping { nonce: round });
        }
        let me = ctx.self_id();
        ctx.send_in(self.cfg.ping_timeout, me, BTimer::PingDeadline { round });
    }

    fn note_failure(&mut self, region: usize, slot: u32, ctx: &mut Ctx) {
        let kind = self.kind.clone();
        let rt = &mut self.regions[region];
        if rt.stopped || !rt.alive[slot as usize] {
            return;
        }
        rt.alive[slot as usize] = false;
        match kind {
            BaselineKind::Base | BaselineKind::Local => {
                // No recovery path: the region is lost.
                rt.stopped = true;
                self.stops += 1;
            }
            BaselineKind::Rep2 { flow_of } => {
                let ops = rt.ops_on(slot);
                if ops.is_empty() {
                    return; // idle phone
                }
                let flow = flow_of[ops[0].index()];
                if rt.flow_broken[(1 - flow) as usize] {
                    // The other flow is already broken: game over.
                    rt.stopped = true;
                    self.stops += 1;
                    return;
                }
                if rt.flow_broken[flow as usize] {
                    return; // redundant failure in an already-dead flow
                }
                rt.flow_broken[flow as usize] = true;
                let started = ctx.now();
                if flow == rt.primary {
                    rt.primary = 1 - flow;
                    let new_primary = rt.primary;
                    let targets: Vec<ActorId> = rt
                        .active_slots()
                        .into_iter()
                        .map(|s| rt.spec.slot_actors[s as usize])
                        .collect();
                    self.takeovers += 1;
                    for dst in targets {
                        self.send_ctl(ctx, dst, wire::CONTROL, SetPrimary { flow: new_primary });
                    }
                    self.recoveries.push(BaselineRecovery {
                        region,
                        failures: 1,
                        started,
                        finished: ctx.now(),
                    });
                }
            }
            BaselineKind::Dist { .. } => {
                let rt = &mut self.regions[region];
                rt.pending.insert(slot);
                if !rt.recover_scheduled {
                    rt.recover_scheduled = true;
                    if rt.pending.len() == 1 {
                        rt.recovery_started = ctx.now();
                    }
                    let me = ctx.self_id();
                    ctx.send_in(self.cfg.gather_window, me, BTimer::Recover { region });
                }
            }
            BaselineKind::Upstream => {
                self.upstream_takeover(region, slot, ctx);
            }
        }
    }

    /// Upstream backup: move the failed node's operators onto their
    /// upstream neighbor (fresh state) and replay retained outputs into
    /// them. A second failure is fatal ("it only handles single node
    /// failure").
    fn upstream_takeover(&mut self, region: usize, slot: u32, ctx: &mut Ctx) {
        let started = ctx.now();
        let plan = {
            let rt = &mut self.regions[region];
            if rt.recovering {
                // Second failure while rebuilding: game over.
                rt.stopped = true;
                self.stops += 1;
                return;
            }
            let ops = rt.ops_on(slot);
            if ops.is_empty() {
                return;
            }
            // Host on the upstream neighbor of the first failed op; fall
            // back to any alive slot.
            let graph = Arc::clone(&rt.spec.graph);
            // The retained outputs live ONLY on the upstream neighbor;
            // if it is dead too, nothing can rebuild the state.
            let upstream = ops
                .iter()
                .flat_map(|&op| graph.op(op).in_edges.clone())
                .map(|e| rt.op_slot[graph.edge(e).from.index()])
                .find(|&s| s != slot && s != u32::MAX && rt.alive[s as usize]);
            let Some(host) = upstream else {
                rt.stopped = true;
                self.stops += 1;
                return;
            };
            for s in rt.op_slot.iter_mut() {
                if *s == slot {
                    *s = host;
                }
            }
            rt.recovering = true;
            rt.recovery_started = started;
            rt.recovery_failures = 1;
            rt.outstanding_acks = [host].into_iter().collect();
            Some((host, rt.ops_on(host)))
        };
        let Some((host, host_ops)) = plan else { return };
        let (routing, targets, install, dst) = {
            let rt = &self.regions[region];
            (
                UpdateRouting {
                    op_slot: Some(rt.op_slot.clone()),
                    slot_actors: Some(rt.spec.slot_actors.clone()),
                },
                rt.active_slots()
                    .into_iter()
                    .map(|s| rt.spec.slot_actors[s as usize])
                    .collect::<Vec<_>>(),
                dsps::node::Install {
                    ops: host_ops,
                    states: dsps::node::InstallStates::Fresh,
                    op_slot: rt.op_slot.clone(),
                    slot_actors: rt.spec.slot_actors.clone(),
                    ready_in: SimDuration::from_millis(500),
                },
                rt.spec.slot_actors[host as usize],
            )
        };
        for t in targets {
            self.send_ctl(ctx, t, wire::CONTROL, routing.clone());
        }
        self.send_ctl(ctx, dst, wire::CONTROL, install);
    }

    fn on_recover(&mut self, region: usize, ctx: &mut Ctx) {
        let BaselineKind::Dist { n } = self.kind else {
            return;
        };
        let (failed, version) = {
            let rt = &mut self.regions[region];
            rt.recover_scheduled = false;
            if rt.stopped {
                rt.pending.clear();
                return;
            }
            let failed: Vec<u32> = std::mem::take(&mut rt.pending).into_iter().collect();
            if failed.is_empty() {
                return;
            }
            rt.recovering = true;
            rt.recovery_failures = failed.len();
            (failed, rt.version)
        };
        let hosting_failed: Vec<u32> = {
            let rt = &self.regions[region];
            failed
                .iter()
                .copied()
                .filter(|&s| !rt.ops_on(s).is_empty())
                .collect()
        };
        if hosting_failed.is_empty() {
            self.regions[region].recovering = false;
            return;
        }
        // dist-n tolerates at most n simultaneous failures.
        if hosting_failed.len() as u32 > n || version == 0 {
            let rt = &mut self.regions[region];
            rt.stopped = true;
            rt.recovering = false;
            self.stops += 1;
            return;
        }
        // Pick replacements (idle preferred, then spread over healthy
        // hosting survivors) + surviving state holders.
        let mut plan: Vec<(u32, u32, u32)> = Vec::new(); // (failed, replacement, holder)
        {
            let rt = &self.regions[region];
            let total = rt.spec.slot_actors.len() as u32;
            let mut idle = rt.idle_active_slots();
            let survivors: Vec<u32> = rt
                .active_slots()
                .into_iter()
                .filter(|s| !idle.contains(s))
                .collect();
            let mut rr = 0usize;
            for &f in &hosting_failed {
                let repl = if let Some(r) = idle.pop() {
                    r
                } else if !survivors.is_empty() {
                    let r = survivors[rr % survivors.len()];
                    rr += 1;
                    r
                } else {
                    plan.clear();
                    break;
                };
                let Some(holder) = peers_of(f, n, total)
                    .into_iter()
                    .find(|&p| rt.alive[p as usize])
                else {
                    plan.clear();
                    break;
                };
                plan.push((f, repl, holder));
            }
        }
        if plan.is_empty() {
            let rt = &mut self.regions[region];
            rt.stopped = true;
            rt.recovering = false;
            self.stops += 1;
            return;
        }
        // Apply the new assignment and publish routing.
        {
            let rt = &mut self.regions[region];
            for &(f, r, _) in &plan {
                for s in rt.op_slot.iter_mut() {
                    if *s == f {
                        *s = r;
                    }
                }
            }
        }
        let (routing_targets, routing) = {
            let rt = &self.regions[region];
            (
                rt.active_slots()
                    .into_iter()
                    .map(|s| rt.spec.slot_actors[s as usize])
                    .collect::<Vec<_>>(),
                UpdateRouting {
                    op_slot: Some(rt.op_slot.clone()),
                    slot_actors: Some(rt.spec.slot_actors.clone()),
                },
            )
        };
        for dst in routing_targets {
            self.send_ctl(ctx, dst, wire::CONTROL, routing.clone());
        }
        // Ask each holder to ship the failed node's state to the
        // replacement over WiFi.
        let ships: Vec<(ActorId, ShipStateTo)> = {
            let rt = &self.regions[region];
            plan.iter()
                .map(|&(f, r, holder)| {
                    (
                        rt.spec.slot_actors[holder as usize],
                        ShipStateTo {
                            failed_slot: f,
                            version,
                            to: rt.spec.slot_actors[r as usize],
                            to_slot: r,
                        },
                    )
                })
                .collect()
        };
        for (dst, ship) in ships {
            let holder = holder_of(&plan, ship.failed_slot);
            self.send_ship(region, dst, ship, holder, ctx);
        }
        self.regions[region].outstanding_acks = plan.iter().map(|&(_, r, _)| r).collect();
        // Retry guard: if acks don't arrive (e.g. the state holder was
        // itself dead but not yet detected), re-run recovery.
        let me = ctx.self_id();
        ctx.send_in(
            SimDuration::from_secs(30),
            me,
            BTimer::AckDeadline { region },
        );
    }

    /// Ack-deadline retry: re-queue still-dead hosting slots.
    fn on_ack_deadline(&mut self, region: usize, ctx: &mut Ctx) {
        let need_retry = {
            let rt = &mut self.regions[region];
            if !rt.recovering || rt.stopped {
                return;
            }
            rt.recovering = false;
            rt.outstanding_acks.clear();
            let stuck: Vec<u32> = rt
                .hosting_slots()
                .into_iter()
                .filter(|&s| !rt.alive[s as usize])
                .collect();
            for s in &stuck {
                rt.pending.insert(*s);
            }
            !stuck.is_empty()
        };
        if need_retry {
            let me = ctx.self_id();
            ctx.send_in(self.cfg.gather_window, me, BTimer::Recover { region });
        }
    }

    /// A rebooted phone re-registered: mark alive; if it still owns ops
    /// (no recovery ran), reinstall from its own flash copy.
    fn on_register(&mut self, m: dsps::node::RegisterNode, ctx: &mut Ctx) {
        let region = m.region;
        let (reinstall, version) = {
            let rt = &mut self.regions[region];
            rt.alive[m.slot as usize] = true;
            (!rt.ops_on(m.slot).is_empty() && !rt.recovering, rt.version)
        };
        if !reinstall {
            return;
        }
        let (install, dst) = {
            let rt = &mut self.regions[region];
            rt.recovering = true;
            rt.recovery_started = ctx.now();
            rt.recovery_failures = 1;
            rt.outstanding_acks = [m.slot].into_iter().collect();
            let ops = rt.ops_on(m.slot);
            let states = if version > 0 {
                dsps::node::InstallStates::FromLocalStore { version }
            } else {
                dsps::node::InstallStates::Fresh
            };
            (
                dsps::node::Install {
                    ops,
                    states,
                    op_slot: rt.op_slot.clone(),
                    slot_actors: rt.spec.slot_actors.clone(),
                    ready_in: SimDuration::from_secs(1),
                },
                rt.spec.slot_actors[m.slot as usize],
            )
        };
        self.send_ctl(ctx, dst, wire::CONTROL, install);
        let me = ctx.self_id();
        ctx.send_in(
            SimDuration::from_secs(30),
            me,
            BTimer::AckDeadline { region },
        );
    }

    fn on_ack(&mut self, m: BaselineAck, ctx: &mut Ctx) {
        let region = m.region;
        let done = {
            let rt = &mut self.regions[region];
            rt.outstanding_acks.remove(&m.slot);
            rt.recovering && rt.outstanding_acks.is_empty()
        };
        if !done {
            return;
        }
        // All replacements installed: upstream nodes replay retained
        // tuples into the recovered operators.
        let resends: Vec<(ActorId, Vec<EdgeId>)> = {
            let rt = &mut self.regions[region];
            rt.recovering = false;
            let graph = Arc::clone(&rt.spec.graph);
            // Approximate the recovered set by the ops on the slot
            // whose ack completed the round.
            let recovered = rt.ops_on(m.slot);
            let mut per_slot: BTreeMap<u32, Vec<EdgeId>> = BTreeMap::new();
            for &op in &recovered {
                for &e in &graph.op(op).in_edges {
                    let from = graph.edge(e).from;
                    let from_slot = rt.op_slot[from.index()];
                    if from_slot != u32::MAX && from_slot != rt.op_slot[op.index()] {
                        per_slot.entry(from_slot).or_default().push(e);
                    }
                }
            }
            per_slot
                .into_iter()
                .filter(|(s, _)| rt.alive[*s as usize])
                .map(|(s, edges)| (rt.spec.slot_actors[s as usize], edges))
                .collect()
        };
        for (dst, edges) in resends {
            self.send_ctl(ctx, dst, wire::CONTROL, ResendRetained { edges });
        }
        // Authoritative routing broadcast: overlapping recovery flows
        // converge (nodes unhost ops that moved away).
        let (routing, targets) = {
            let rt = &self.regions[region];
            (
                UpdateRouting {
                    op_slot: Some(rt.op_slot.clone()),
                    slot_actors: Some(rt.spec.slot_actors.clone()),
                },
                rt.active_slots()
                    .into_iter()
                    .map(|s| rt.spec.slot_actors[s as usize])
                    .collect::<Vec<ActorId>>(),
            )
        };
        for dst in targets {
            self.send_ctl(ctx, dst, wire::CONTROL, routing.clone());
        }
        let rt = &mut self.regions[region];
        self.recoveries.push(BaselineRecovery {
            region,
            failures: rt.recovery_failures,
            started: rt.recovery_started,
            finished: ctx.now(),
        });
        rt.recovery_started = SimTime::ZERO;
    }
}

impl Actor for BaselineCoordinator {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        let ev = match ev.downcast::<CellRx>() {
            Ok(rx) => {
                let p = rx.payload.clone();
                if let Some(m) = payload_as::<Pong>(&p) {
                    if let Some(out) = self.ping_outstanding.get_mut(&m.nonce) {
                        out.remove(&(m.region, m.slot));
                    }
                } else if let Some(m) = payload_as::<ReportDead>(&p) {
                    self.note_failure(m.region, m.slot, ctx);
                } else if let Some(m) = payload_as::<BaselineAck>(&p) {
                    self.on_ack(*m, ctx);
                } else if let Some(m) = payload_as::<dsps::node::RegisterNode>(&p) {
                    self.on_register(*m, ctx);
                }
                return;
            }
            Err(e) => e,
        };
        simkernel::match_event!(ev,
            _s: Start => { self.on_start(ctx); },
            f: simnet::TxFailed => {
                if let Some((region, ship, holder)) = self.ship_tags.remove(&f.tag) {
                    // The chosen state holder is dead too: mark it and
                    // retry the ship with the next surviving peer of the
                    // original failed slot.
                    let BaselineKind::Dist { n } = self.kind else {
                        return;
                    };
                    let next = {
                        let rt = &mut self.regions[region];
                        if holder != u32::MAX {
                            rt.alive[holder as usize] = false;
                        }
                        let total = rt.spec.slot_actors.len() as u32;
                        peers_of(ship.failed_slot, n, total)
                            .into_iter()
                            .find(|&p| rt.alive[p as usize])
                            .map(|p| (p, rt.spec.slot_actors[p as usize]))
                    };
                    match next {
                        Some((p, dst)) => self.send_ship(region, dst, ship, p, ctx),
                        None => {
                            // All copies perished: unrecoverable.
                            let rt = &mut self.regions[region];
                            rt.stopped = true;
                            rt.recovering = false;
                            self.stops += 1;
                        }
                    }
                }
            },
            d: simnet::TxDone => {
                self.ship_tags.remove(&d.tag);
            },
            t: BTimer => {
                match t {
                    BTimer::Tick { region } => self.on_tick(region, ctx),
                    BTimer::Ping => self.on_ping(ctx),
                    BTimer::PingDeadline { round } => {
                        if let Some(unanswered) = self.ping_outstanding.remove(&round) {
                            for (region, slot) in unanswered {
                                self.note_failure(region, slot, ctx);
                            }
                        }
                    }
                    BTimer::Recover { region } => self.on_recover(region, ctx),
                    BTimer::AckDeadline { region } => self.on_ack_deadline(region, ctx),
                }
            },
            @else _other => {}
        );
    }

    fn name(&self) -> String {
        format!("coordinator[{}]", self.kind.label())
    }

    impl_actor_any!();
}

pub use crate::msgs::wire;
