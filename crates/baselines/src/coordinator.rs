//! The per-deployment coordinator for baseline schemes.
//!
//! Plays the controller's role for rep-2 / local / dist-n / upstream
//! backup: broadcasts checkpoint ticks, pings every hosting node and
//! receives failure reports. It does not decide what a failure costs.
//! dist-n's recovery, upstream backup's takeover and a rebooted phone's
//! reinstall each gather their failed slots, ask
//! [`dsps::placement::plan_recovery`] for a plan (kinds `DistN`,
//! `Upstream` and `Reboot`) and execute it: reassign and publish the
//! routing, await the plan's acks, then ship its installs or ask the
//! state holders to ship their copies. When the last ack arrives, the
//! live upstream slots replay their retained outputs
//! ([`dsps::placement::plan_replay`], read from the table at that
//! event).
//!
//! Two rules stay here. Rep-2 flips its primary flow. `base` and `local`
//! have no recovery, so any detected failure stops the region (they
//! appear only in fault-free experiments, plus rep-2's >1-failure and
//! dist-n's >n-failure cases which the paper shows as truncated curves
//! in Fig 9). A phone that reboots before its failure is detected is
//! re-installed from its own store, under `local` too, and its upstream
//! slots replay into it; if it re-registers while a recovery runs, the
//! reinstall waits for that recovery's last ack.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dsps::graph::QueryGraph;
use dsps::node::{wire, CheckpointTick, Ping, Pong, Recovered, RegisterNode, ReportDead};
use dsps::placement::{
    plan_recovery, plan_replay, CheckpointSchedule, PingRounds, Placement, RecoveryEpisode,
    RecoveryKind, RecoveryPlan, RecoveryRecord, SlotState, Unrecoverable, GATHER_WINDOW,
    PING_PERIOD, PING_TIMEOUT,
};
use simkernel::{impl_actor_any, Actor, ActorId, Ctx, EventBox, SimDuration};
use simnet::stats::TrafficClass::Control;
use simnet::{net_send, payload, payload_as, NetRx};

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

/// One region as the coordinator sees it.
pub struct BaselineRegionSpec {
    /// Query network (already duplicated for rep-2).
    pub graph: Arc<QueryGraph>,
    /// The region's slot table: initial op→slot assignment, bound to
    /// the phone actors.
    pub placement: Placement,
}

struct BRegion {
    graph: Arc<QueryGraph>,
    /// Placement, phone actors, and which phones are alive (`Active`)
    /// or failed (`Dead`).
    table: Placement,
    version: u64,
    stopped: bool,
    episode: RecoveryEpisode,
    /// Rebooted slots that re-registered while an episode ran; the
    /// episode's last ack reinstalls them.
    deferred_reinstalls: BTreeSet<u32>,
    flow_broken: [bool; 2],
    primary: u8,
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

/// How long a recovery waits for its acks before it re-queues the
/// slots that are still dead.
const ACK_DEADLINE: SimDuration = SimDuration::from_secs(30);

/// The coordinator actor.
pub struct BaselineCoordinator {
    schedule: CheckpointSchedule,
    kind: BaselineKind,
    cell: ActorId,
    regions: Vec<BRegion>,
    pings: PingRounds,
    next_tag: u64,
    ship_tags: BTreeMap<u64, (usize, ShipStateTo, u32)>, // tag -> (region, ship, holder)
    /// Regions stopped (unrecoverable).
    pub stops: u64,
    /// rep-2 primary flips.
    pub takeovers: u64,
    /// Completed recoveries.
    pub recoveries: Vec<RecoveryRecord>,
    /// Remote messages rejected for naming a `(region, slot)` this
    /// deployment does not have.
    pub malformed_msgs: u64,
}

impl BaselineCoordinator {
    /// Build over the given regions.
    pub fn new(
        schedule: CheckpointSchedule,
        kind: BaselineKind,
        cell: ActorId,
        specs: Vec<BaselineRegionSpec>,
    ) -> Self {
        let regions = specs
            .into_iter()
            .map(|spec| BRegion {
                graph: spec.graph,
                table: spec.placement,
                version: 0,
                stopped: false,
                episode: RecoveryEpisode::default(),
                deferred_reinstalls: BTreeSet::new(),
                flow_broken: [false; 2],
                primary: 0,
            })
            .collect();
        BaselineCoordinator {
            schedule,
            kind,
            cell,
            regions,
            pings: PingRounds::default(),
            next_tag: 1,
            ship_tags: BTreeMap::new(),
            stops: 0,
            takeovers: 0,
            recoveries: Vec::new(),
            malformed_msgs: 0,
        }
    }

    /// Is the region stopped?
    pub fn is_stopped(&self, region: usize) -> bool {
        self.regions[region].stopped
    }

    /// Validate a `(region, slot)` pair arriving in a remote message: a
    /// malformed or stale one is counted and dropped, never indexed.
    fn valid_slot(&mut self, region: usize, slot: u32) -> bool {
        let ok = self
            .regions
            .get(region)
            .is_some_and(|rt| rt.table.valid(slot));
        if !ok {
            self.malformed_msgs += 1;
        }
        ok
    }

    /// The region is lost (no recovery path, or none left).
    fn stop_region(&mut self, region: usize) {
        self.regions[region].stopped = true;
        self.stops += 1;
    }

    /// The recovery in flight cannot succeed: abandon it and the region.
    fn give_up(&mut self, region: usize) {
        self.regions[region].episode.abort();
        self.stop_region(region);
    }

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
        let msg = payload(ship);
        net_send(ctx, self.cell, dst, Control, wire::CONTROL, tag, msg);
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        if !matches!(self.kind, BaselineKind::Base | BaselineKind::Upstream) {
            for region in 0..self.regions.len() {
                let me = ctx.self_id();
                ctx.send_in(self.schedule.offset, me, BTimer::Tick { region });
            }
        }
        let me = ctx.self_id();
        ctx.send_in(PING_PERIOD, me, BTimer::Ping);
    }

    fn on_tick(&mut self, region: usize, ctx: &mut Ctx) {
        let me = ctx.self_id();
        ctx.send_in(self.schedule.period, me, BTimer::Tick { region });
        let rt = &mut self.regions[region];
        if rt.stopped || rt.episode.recovering() {
            return;
        }
        rt.version += 1;
        let version = rt.version;
        let tick = payload(CheckpointTick { version });
        for s in rt.table.hosting_slots() {
            if rt.table.is_active(s) {
                let dst = rt.table.actor(s);
                net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, tick.clone());
            }
        }
    }

    fn on_ping(&mut self, ctx: &mut Ctx) {
        let me = ctx.self_id();
        ctx.send_in(PING_PERIOD, me, BTimer::Ping);
        let mut targets = BTreeSet::new();
        for (r, rt) in self.regions.iter().enumerate() {
            if rt.stopped {
                continue;
            }
            // The baseline coordinator heartbeats every hosting node
            // (server-style schemes assume cluster heartbeats); without
            // this, a node whose upstream also died is undetectable.
            let hosting = rt.table.hosting_slots();
            let live = hosting.into_iter().filter(|&s| rt.table.is_active(s));
            targets.extend(live.map(|s| (r, s)));
        }
        let Some(round) = self.pings.begin(targets.clone()) else {
            return;
        };
        for (r, s) in targets {
            let dst = self.regions[r].table.actor(s);
            let ping = payload(Ping { nonce: round });
            net_send(ctx, self.cell, dst, Control, wire::PING, 0, ping);
        }
        ctx.send_in(PING_TIMEOUT, me, BTimer::PingDeadline { round });
    }

    fn note_failure(&mut self, region: usize, slot: u32, ctx: &mut Ctx) {
        let rt = &mut self.regions[region];
        if rt.stopped || !rt.table.is_active(slot) {
            return;
        }
        rt.table.set_state(slot, SlotState::Dead);
        match &self.kind {
            // No recovery path: the region is lost.
            BaselineKind::Base | BaselineKind::Local => self.stop_region(region),
            BaselineKind::Rep2 { flow_of } => {
                let ops = rt.table.ops_on(slot);
                if ops.is_empty() {
                    return; // idle phone
                }
                let flow = flow_of[ops[0].index()];
                if rt.flow_broken[(1 - flow) as usize] {
                    // The other flow is already broken: game over.
                    self.stop_region(region);
                    return;
                }
                if rt.flow_broken[flow as usize] {
                    return; // redundant failure in an already-dead flow
                }
                rt.flow_broken[flow as usize] = true;
                if flow == rt.primary {
                    rt.primary = 1 - flow;
                    self.takeovers += 1;
                    let flip = payload(SetPrimary { flow: rt.primary });
                    for s in rt.table.active_slots() {
                        let dst = rt.table.actor(s);
                        net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, flip.clone());
                    }
                    self.recoveries.push(RecoveryRecord {
                        region,
                        failures: 1,
                        started: ctx.now(),
                        finished: ctx.now(),
                    });
                }
            }
            BaselineKind::Dist { .. } => {
                if rt.episode.note(slot, ctx.now()) {
                    let me = ctx.self_id();
                    ctx.send_in(GATHER_WINDOW, me, BTimer::Recover { region });
                }
            }
            BaselineKind::Upstream => self.upstream_takeover(region, slot, ctx),
        }
    }

    /// Publish the region's routing to every usable phone: nodes host
    /// what it says and unhost what moved away.
    fn broadcast_routing(&self, region: usize, ctx: &mut Ctx) {
        let rt = &self.regions[region];
        let msg = payload(rt.table.routing());
        for s in rt.table.active_slots() {
            let dst = rt.table.actor(s);
            net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, msg.clone());
        }
    }

    /// Execute a recovery plan's sends: move the replaced slots'
    /// operators and publish the routing, await the plan's acks, then
    /// ship its installs (alive `ready_in` after they arrive) and ask
    /// each state holder to ship its copy to the replacement over WiFi.
    fn execute(
        &mut self,
        region: usize,
        plan: &RecoveryPlan,
        ready_in: SimDuration,
        ctx: &mut Ctx,
    ) {
        let rt = &mut self.regions[region];
        for (f, r) in plan.moved() {
            rt.table.reassign_slot(f, r);
        }
        if plan.moved().next().is_some() {
            self.broadcast_routing(region, ctx);
        }
        let rt = &mut self.regions[region];
        rt.episode.await_acks(plan.acks.clone());
        for (slot, states) in &plan.installs {
            let install = rt.table.install_for(*slot, states.clone(), ready_in);
            let (dst, msg) = (rt.table.actor(*slot), payload(install));
            net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, msg);
        }
        for (&(f, r), &holder) in plan.replacements.iter().zip(&plan.holders) {
            let table = &self.regions[region].table;
            let ship = ShipStateTo {
                failed_slot: f,
                version: plan.version,
                to: table.actor(r),
                to_slot: r,
            };
            self.send_ship(region, table.actor(holder), ship, holder, ctx);
        }
    }

    /// Upstream backup: the failed node's operators move onto their
    /// upstream neighbor and the other upstream slots replay into them
    /// ([`RecoveryKind::Upstream`]). A second failure is fatal ("it
    /// only handles single node failure").
    fn upstream_takeover(&mut self, region: usize, slot: u32, ctx: &mut Ctx) {
        let rt = &mut self.regions[region];
        if rt.episode.recovering() {
            // Second failure while rebuilding: game over.
            return self.stop_region(region);
        }
        match plan_recovery(&rt.table, &rt.graph, &[slot], RecoveryKind::Upstream) {
            Ok(plan) if plan.is_membership_only() => {}
            Ok(plan) => {
                rt.episode.begin_now(1, ctx.now());
                self.execute(region, &plan, SimDuration::from_millis(500), ctx);
            }
            // The retained outputs live ONLY upstream: with no live
            // upstream neighbor nothing can rebuild the state.
            Err(Unrecoverable) => self.stop_region(region),
        }
    }

    fn on_recover(&mut self, region: usize, ctx: &mut Ctx) {
        let BaselineKind::Dist { n } = self.kind else {
            return;
        };
        let rt = &mut self.regions[region];
        let failed = rt.episode.gathered();
        if rt.stopped || failed.is_empty() {
            return;
        }
        rt.episode.begin(failed.len());
        let kind = RecoveryKind::DistN {
            n,
            version: rt.version,
        };
        match plan_recovery(&rt.table, &rt.graph, &failed, kind) {
            // Only idle phones failed: nothing to restore.
            Ok(plan) if plan.is_membership_only() => rt.episode.abort(),
            Ok(plan) => {
                self.execute(region, &plan, SimDuration::ZERO, ctx);
                // Retry guard: if acks don't arrive (e.g. the state
                // holder was itself dead but not yet detected), re-run
                // recovery.
                let me = ctx.self_id();
                ctx.send_in(ACK_DEADLINE, me, BTimer::AckDeadline { region });
            }
            // More than n failed hosts, no checkpoint yet, or every
            // copy of some failed slot's state perished.
            Err(Unrecoverable) => self.give_up(region),
        }
    }

    /// Ack-deadline retry: re-queue the stranded slots.
    fn on_ack_deadline(&mut self, region: usize, ctx: &mut Ctx) {
        let rt = &mut self.regions[region];
        if !rt.episode.recovering() || rt.stopped {
            return;
        }
        rt.episode.abort();
        // Its own gather timer, whether or not a fresh failure already
        // armed one.
        if rt.episode.requeue(rt.table.stranded_slots()) {
            let me = ctx.self_id();
            ctx.send_in(GATHER_WINDOW, me, BTimer::Recover { region });
        }
    }

    /// A rebooted phone re-registered: mark alive; if its region was
    /// not declared lost, reinstall it now, or once the episode in
    /// flight ends.
    fn on_register(&mut self, m: RegisterNode, ctx: &mut Ctx) {
        let rt = &mut self.regions[m.region];
        rt.table.set_state(m.slot, SlotState::Active);
        if rt.stopped {
            return;
        }
        if rt.episode.recovering() {
            rt.deferred_reinstalls.insert(m.slot);
            return;
        }
        self.reinstall(m.region, m.slot, ctx);
    }

    /// Reinstall an active slot that still owns ops (no recovery moved
    /// them) from its own flash copy. Returns whether an episode began.
    fn reinstall(&mut self, region: usize, slot: u32, ctx: &mut Ctx) -> bool {
        let rt = &mut self.regions[region];
        if !rt.table.is_active(slot) {
            return false;
        }
        let kind = RecoveryKind::Reboot {
            version: rt.version,
            rollback: false,
        };
        let plan = plan_recovery(&rt.table, &rt.graph, &[slot], kind);
        let Some(plan) = plan.ok().filter(|p| !p.is_membership_only()) else {
            return false;
        };
        rt.episode.begin_now(1, ctx.now());
        self.execute(region, &plan, SimDuration::from_secs(1), ctx);
        let me = ctx.self_id();
        ctx.send_in(ACK_DEADLINE, me, BTimer::AckDeadline { region });
        true
    }

    fn on_ack(&mut self, m: Recovered, ctx: &mut Ctx) {
        let rt = &mut self.regions[m.region];
        if !rt.episode.ack(m.slot) {
            return;
        }
        // All replacements installed: upstream nodes replay retained
        // tuples into the recovered operators. Approximate the
        // recovered set by the slot whose ack completed the round.
        let recovered = BTreeSet::from([m.slot]);
        for (s, edges) in plan_replay(&rt.table, &rt.graph, None, &recovered) {
            let (dst, resend) = (rt.table.actor(s), payload(ResendRetained { edges }));
            net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, resend);
        }
        // Authoritative routing broadcast: overlapping recovery flows
        // converge (nodes unhost ops that moved away).
        self.broadcast_routing(m.region, ctx);
        let rt = &mut self.regions[m.region];
        self.recoveries.push(rt.episode.finish(m.region, ctx.now()));
        // Serve the reboots deferred behind this episode, one episode
        // at a time.
        while let Some(slot) = self.regions[m.region].deferred_reinstalls.pop_first() {
            if self.reinstall(m.region, slot, ctx) {
                break;
            }
        }
    }

    /// The chosen state holder is dead too: mark it and retry the ship
    /// with the next surviving peer of the original failed slot.
    fn on_ship_failed(&mut self, region: usize, ship: ShipStateTo, holder: u32, ctx: &mut Ctx) {
        let BaselineKind::Dist { n } = self.kind else {
            return;
        };
        let rt = &mut self.regions[region];
        rt.table.set_state(holder, SlotState::Dead);
        match rt.table.holder_of(ship.failed_slot, n) {
            Some(p) => {
                let dst = rt.table.actor(p);
                self.send_ship(region, dst, ship, p, ctx);
            }
            // All copies perished: unrecoverable.
            None => self.give_up(region),
        }
    }
}

impl Actor for BaselineCoordinator {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        let ev = match ev.downcast::<NetRx>() {
            Ok(rx) => {
                let p = rx.payload.clone();
                if let Some(m) = payload_as::<Pong>(&p) {
                    if self.valid_slot(m.region, m.slot) {
                        self.pings.pong(m.nonce, m.region, m.slot);
                    }
                } else if let Some(m) = payload_as::<ReportDead>(&p) {
                    if self.valid_slot(m.region, m.slot) {
                        self.note_failure(m.region, m.slot, ctx);
                    }
                } else if let Some(m) = payload_as::<Recovered>(&p) {
                    if self.valid_slot(m.region, m.slot) {
                        self.on_ack(*m, ctx);
                    }
                } else if let Some(m) = payload_as::<RegisterNode>(&p) {
                    if self.valid_slot(m.region, m.slot) {
                        self.on_register(*m, ctx);
                    }
                }
                return;
            }
            Err(e) => e,
        };
        simkernel::match_event!(ev,
            _s: Start => { self.on_start(ctx); },
            f: simnet::TxFailed => {
                if let Some((region, ship, holder)) = self.ship_tags.remove(&f.tag) {
                    self.on_ship_failed(region, ship, holder, ctx);
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
                        for (region, slot) in self.pings.expire(round) {
                            self.note_failure(region, slot, ctx);
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
        "baseline-coordinator".into()
    }

    impl_actor_any!();
}
