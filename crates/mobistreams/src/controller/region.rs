//! The per-region controller: owns one region's mutable state.
//!
//! One `RegionController` supervises one region and lives on that
//! region's shard, so the region's failure detection / checkpoint /
//! recovery chatter never forces the global barrier. It:
//!
//! * triggers periodic checkpoints by notifying the region's source
//!   nodes, and commits a version once every hosting node reported in;
//! * detects failures: pings source nodes every 30 s (10 s timeout),
//!   receives upstream-neighbor reports for computing/sink nodes, and
//!   gathers *bursts* of simultaneous failures into one recovery;
//! * recovers: picks replacements (idle nodes preferred), has the
//!   [`super::Coordinator`] ship the operator code over its fat
//!   cellular endpoint, restores every node to the MRC, replays
//!   preserved inputs (catch-up);
//! * handles mobility: urgent mode (cellular routing) while a phone
//!   departs, state transfer to the replacement, rewiring;
//! * stops and bypasses the region when it has too few phones,
//!   restarting it when enough phones re-register;
//! * reconciles membership with epoch-numbered batched deltas (see
//!   [`super::reconcile`]) instead of full-snapshot fan-outs.
//!
//! Its own side effects — WiFi link flips, sensor re-pairing — it
//! sends itself, after the cellular downlink delay of a command pushed
//! without its bytes; the WiFi medium and the sensors share its shard.
//! Only what needs every region — inter-region wiring, bulk install
//! shipping — goes to the coordinator, via the direct messages in
//! [`super::msgs`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dsps::graph::{EdgeId, QueryGraph};
use dsps::node::{Install, InstallStates, Pong, ReportDead, SetUrgentEdges};
use dsps::placement::{
    plan_recovery, plan_replay, CheckpointSchedule, PingRounds, Placement, RecoveryEpisode,
    RecoveryKind, RecoveryPlan, RecoveryRecord, SlotState, Unrecoverable, GATHER_WINDOW,
    PING_PERIOD, PING_TIMEOUT,
};
use simkernel::{impl_actor_any, Actor, ActorId, Ctx, EventBox, SimDuration, SimTime};
use simnet::stats::TrafficClass::Control;
use simnet::{net_send, payload, payload_as, LinkState, NetRx, Payload, SetLink, TxFailed};

use super::msgs::{CtlTimer, InstallOutcome, InstallOutcomeKind, RegionStatus, ShipInstall};
use super::reconcile::{MembershipLog, SuffixCache};
use super::{RegionSpec, Start};
use crate::msgs::*;

/// Operator code shipped to a replacement over cellular, per operator.
const CODE_BYTES_PER_OP: u64 = 50_000;

/// Fixed install time of a replacement (WiFi rebuild, process start).
const READY_OVERHEAD: SimDuration = SimDuration::from_secs(1);

/// Extra install time per restored operator (flash read etc.).
const READY_PER_OP: SimDuration = SimDuration::from_millis(200);

/// A recovery gives up waiting for its acks after this long.
const ACK_DEADLINE: SimDuration = SimDuration::from_secs(60);

/// A departure state transfer whose ack has not arrived after this long
/// is stalled (the replacement died). Generous: a real transfer can
/// take minutes over the slow cellular uplink, and a false stall
/// re-introduces the rollback recovery departures are meant to avoid.
const TRANSFER_STALL_DEADLINE: SimDuration = SimDuration::from_secs(300);

/// First probe interval after a region is marked severed by a network
/// partition; the backoff doubles up to [`SEVERED_PROBE_CAP`].
const SEVERED_PROBE_BASE: SimDuration = SimDuration::from_secs(2);

/// Cap on the severed-probe backoff.
const SEVERED_PROBE_CAP: SimDuration = SimDuration::from_secs(32);

/// Period of the membership reconciliation sweep: every tick each
/// region pushes one catch-up delta to every active phone still behind
/// the membership log head (usually none — the event-driven flush
/// keeps stakeholders current).
const RECONCILE_PERIOD: SimDuration = SimDuration::from_secs(30);

/// How long after a reconfiguration (recovery end, install ack) nodes
/// may stay quiet before their silence counts as a failure again.
const QUIET_GRACE: SimDuration = SimDuration::from_secs(20);

/// One in-flight departure state transfer (§III-E, Fig 7).
struct DepartingTransfer {
    /// Slot receiving the departing phone's operators.
    replacement: u32,
    /// When the transfer started. Bounds how long failure reports
    /// about the replacement are suppressed: past the ack deadline the
    /// transfer counts as stalled and the replacement is reportable
    /// again.
    started: SimTime,
    /// The edges this departure bridged over cellular (urgent mode).
    edges: Vec<EdgeId>,
}

/// Scope of a pending membership flush. `Stakeholders` reaches the
/// phones a change can affect promptly (hosting slots, the proxy
/// candidate, unsynced joiners); `AllActive` is the resync scope
/// (startup, partition heal, reconcile sweep).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushScope {
    Stakeholders,
    AllActive,
}

/// The per-region controller actor.
pub struct RegionController {
    schedule: CheckpointSchedule,
    cell: ActorId,
    coordinator: ActorId,
    /// Delay of the side effects the controller pushes without their
    /// bytes (WiFi link flips, sensor re-pairing): the cellular
    /// downlink latency, rtt/2.
    push_delay: SimDuration,
    /// Global index of the region this controller owns.
    region: usize,
    graph: Arc<QueryGraph>,
    /// The region's slot table: placement, phone actors, slot states.
    table: Placement,
    wifi: ActorId,
    sensors: Vec<ActorId>,
    /// Phones required before the stopped region restarts: the number
    /// of hosting slots it was deployed with, so the restart isn't
    /// hopelessly overloaded.
    restart_min: u32,
    version: u64,
    last_complete: u64,
    ckpt_expected: BTreeSet<u32>,
    ckpt_got: BTreeSet<u32>,
    episode: RecoveryEpisode,
    last_recovery_end: SimTime,
    stopped: bool,
    /// In-flight departure transfers, keyed by the departing slot.
    /// Each carries the urgent edges it bridges; the union over the
    /// map is the region's current urgent-mode edge set.
    departing_transfers: BTreeMap<u32, DepartingTransfer>,
    /// Urgent edges bridged by *degraded* departures (no replacement
    /// was available; the departed phone keeps computing over
    /// cellular). These must survive other transfers' releases and
    /// are torn down only when the slot rejoins or its operators are
    /// recovered onto a healthy phone.
    degraded_urgent: BTreeMap<u32, Vec<EdgeId>>,
    // Slots that recently finished loading an Install: while a
    // replacement loads state it answers nothing, so peers may report
    // it dead; such reports stay invalid for a short grace period
    // after the ack too (they can already be in flight).
    recent_installs: BTreeMap<u32, SimTime>,
    /// The region is behind a network partition: tagged controller
    /// sends came back severed. Checkpoint rounds freeze, silence is
    /// not treated as death, and a capped-backoff probe loop watches
    /// for the heal.
    severed: bool,
    /// Invalidates in-flight `ProbeSevered` timers across heal cycles.
    probe_epoch: u64,
    /// Current probe backoff (doubles to the configured cap).
    probe_backoff: SimDuration,
    /// Epoch-numbered membership event log + per-phone observed epoch.
    log: MembershipLog,
    /// Scope of the flush scheduled for this tick, if any. Consecutive
    /// membership changes within one tick coalesce into the one
    /// pending flush instead of each fanning out its own update.
    pending_flush: Option<FlushScope>,
    pings: PingRounds,
    next_tag: u64,
    /// Tagged ping/probe sends. A `TxSevered` completion on one of
    /// these is the evidence that marks the region severed (a
    /// `TxFailed` just means the pinged phone died — the ping deadline
    /// already covers that). Install severing arrives as an
    /// [`InstallOutcome`] from the coordinator instead.
    ping_tags: BTreeSet<u64>,
    /// Partition episodes observed: (region, severed at, healed at).
    /// Harvested by experiments for recovery timelines.
    pub severed_episodes: Vec<(usize, SimTime, SimTime)>,
    /// Start time of the still-open partition episode, if any.
    severed_open: Option<SimTime>,
    /// Completed recoveries (harvested by experiments).
    pub recoveries: Vec<RecoveryRecord>,
    /// Departure replacements completed.
    pub departures_handled: u64,
    /// Checkpoint versions committed: (region, version, at).
    pub commits: Vec<(usize, u64, SimTime)>,
    /// Times the region was stopped (bypass active).
    pub stops: u64,
    /// Remote messages rejected for naming a `(region, slot)` outside
    /// this controller's region or slot table.
    pub malformed_msgs: u64,
    /// Re-registered op-owning slots waiting for the current recovery
    /// to finish before their reinstall runs.
    pending_reinstalls: Vec<u32>,
    /// Membership messages sent (snapshots + deltas) — the churn-storm
    /// complexity tests assert these scale with delta size, not region
    /// population.
    pub membership_msgs: u64,
    /// Membership bytes sent.
    pub membership_bytes: u64,
}

impl RegionController {
    /// Build the controller of region `region` (global index).
    pub fn new(
        schedule: CheckpointSchedule,
        cell: ActorId,
        coordinator: ActorId,
        push_delay: SimDuration,
        region: usize,
        spec: RegionSpec,
    ) -> Self {
        RegionController {
            schedule,
            cell,
            coordinator,
            push_delay,
            region,
            graph: spec.graph,
            restart_min: spec.placement.hosting_slots().len() as u32,
            log: MembershipLog::new(spec.placement.slots() as usize),
            table: spec.placement,
            wifi: spec.wifi,
            sensors: spec.sensors,
            version: 0,
            last_complete: 0,
            ckpt_expected: BTreeSet::new(),
            ckpt_got: BTreeSet::new(),
            episode: RecoveryEpisode::default(),
            last_recovery_end: SimTime::ZERO,
            stopped: false,
            departing_transfers: BTreeMap::new(),
            degraded_urgent: BTreeMap::new(),
            recent_installs: BTreeMap::new(),
            severed: false,
            probe_epoch: 0,
            probe_backoff: SimDuration::ZERO,
            pending_flush: None,
            pings: PingRounds::default(),
            next_tag: 1,
            ping_tags: BTreeSet::new(),
            severed_episodes: Vec::new(),
            severed_open: None,
            recoveries: Vec::new(),
            departures_handled: 0,
            commits: Vec::new(),
            stops: 0,
            malformed_msgs: 0,
            pending_reinstalls: Vec::new(),
            membership_msgs: 0,
            membership_bytes: 0,
        }
    }

    /// The region this controller owns.
    pub fn region(&self) -> usize {
        self.region
    }

    /// Validate a `(region, slot)` pair arriving in a remote message.
    /// A fleet-scale deployment must shrug off a malformed, stale or
    /// misaddressed message rather than panic the controller.
    fn valid_slot(&mut self, region: usize, slot: u32) -> bool {
        let ok = region == self.region && self.table.valid(slot);
        if !ok {
            self.malformed_msgs += 1;
        }
        ok
    }

    /// Latest committed checkpoint version of the region.
    pub fn last_complete(&self) -> u64 {
        self.last_complete
    }

    /// Is the region currently stopped (bypassed)?
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Record any slot-activity transitions into the region's
    /// membership log and make sure a flush is pending for this tick.
    /// Consecutive calls within one tick (e.g. a rejoin that also
    /// triggers a reinstall) coalesce into a single flush.
    fn membership_changed(&mut self, scope: FlushScope, ctx: &mut Ctx) {
        for s in 0..self.table.slots() {
            self.log.record(s, self.table.is_active(s));
        }
        match self.pending_flush {
            Some(FlushScope::AllActive) => {}
            Some(FlushScope::Stakeholders) => {
                if scope == FlushScope::AllActive {
                    self.pending_flush = Some(FlushScope::AllActive);
                }
            }
            None => {
                self.pending_flush = Some(scope);
                let me = ctx.self_id();
                ctx.send(me, CtlTimer::FlushDeltas);
            }
        }
    }

    fn on_flush(&mut self, ctx: &mut Ctx) {
        let Some(scope) = self.pending_flush.take() else {
            return;
        };
        self.send_deltas(scope, ctx);
    }

    /// Push membership toward the log head for the scoped targets:
    /// phones with no known epoch get one shared-`Arc` snapshot, every
    /// other lagging phone gets the batched change suffix from its
    /// observed epoch (suffixes shared across targets). Phones already
    /// at the head get nothing.
    fn send_deltas(&mut self, scope: FlushScope, ctx: &mut Ctx) {
        // Behind a partition every send would age out unobserved;
        // the heal resync resets observed epochs and re-flushes.
        if self.severed {
            return;
        }
        let head = self.log.head();
        let active = self.table.active_slots();
        let targets: Vec<u32> = match scope {
            FlushScope::AllActive => active,
            FlushScope::Stakeholders => {
                let hosting = self.table.hosting_slots();
                let proxy = active.first().copied();
                active
                    .into_iter()
                    .filter(|&s| {
                        hosting.contains(&s) || Some(s) == proxy || self.log.observed(s).is_none()
                    })
                    .collect()
            }
        };
        // Snapshots go out first, then the deltas.
        let mut snapshot: Option<Payload> = None;
        let mut deltas: Vec<(ActorId, MembershipDelta)> = Vec::new();
        let mut cache = SuffixCache::new();
        for slot in targets {
            let dst = self.table.actor(slot);
            match self.log.observed(slot) {
                None => {
                    let msg = snapshot
                        .get_or_insert_with(|| {
                            payload(MembershipUpdate {
                                active_slots: Arc::new(self.table.active_slots()),
                                epoch: head,
                            })
                        })
                        .clone();
                    self.membership_msgs += 1;
                    self.membership_bytes += wire::MEMBERSHIP;
                    net_send(ctx, self.cell, dst, Control, wire::MEMBERSHIP, 0, msg);
                }
                Some(base) if base < head => {
                    let (base, changes) = cache.for_base(&self.log, base);
                    deltas.push((
                        dst,
                        MembershipDelta {
                            base_epoch: base,
                            epoch: head,
                            changes,
                        },
                    ));
                }
                Some(_) => continue,
            }
            self.log.note_synced(slot, head);
        }
        for (dst, delta) in deltas {
            let bytes = wire::DELTA_BASE + wire::DELTA_PER_CHANGE * delta.changes.len() as u64;
            self.membership_msgs += 1;
            self.membership_bytes += bytes;
            net_send(ctx, self.cell, dst, Control, bytes, 0, payload(delta));
        }
    }

    fn on_reconcile_tick(&mut self, ctx: &mut Ctx) {
        let me = ctx.self_id();
        ctx.send_in(RECONCILE_PERIOD, me, CtlTimer::ReconcileTick);
        self.send_deltas(FlushScope::AllActive, ctx);
    }

    /// Re-pair sensors with the phones now hosting the source ops
    /// (zero-cost events: the camera physically pairs with the
    /// adjacent phone), pushed after the cellular downlink delay.
    fn redirect_sensors(&self, ctx: &mut Ctx) {
        let redirects: Vec<_> = self
            .graph
            .sources()
            .into_iter()
            .filter(|&op| self.table.slot_of(op) != u32::MAX)
            .map(|op| dsps::workload::SensorRedirect {
                op,
                actor: self.table.actor_of(op),
            })
            .collect();
        for &sensor in &self.sensors {
            for &redirect in &redirects {
                ctx.send_in(self.push_delay, sensor, redirect);
            }
        }
    }

    /// Push the region's routing tables to the phones that forward
    /// data: hosting phones plus degraded departed phones still
    /// computing over cellular. (Idle phones receive their tables with
    /// the `Install` if they ever become replacements.)
    fn push_routing(&self, ctx: &mut Ctx) {
        let hosting = self.table.hosting_slots();
        let mut slots: BTreeSet<u32> = self
            .table
            .active_slots()
            .into_iter()
            .filter(|s| hosting.contains(s))
            .collect();
        slots.extend(self.degraded_urgent.keys().copied());
        let msg = payload(self.table.routing());
        for s in slots {
            let dst = self.table.actor(s);
            net_send(
                ctx,
                self.cell,
                dst,
                Control,
                wire::MEMBERSHIP,
                0,
                msg.clone(),
            );
        }
    }

    /// Report this region's placement / stop state to the coordinator,
    /// which re-resolves inter-region wiring for the region and its
    /// upstreams.
    fn send_status(&self, ctx: &mut Ctx) {
        let status = RegionStatus {
            region: self.region,
            op_slot: Arc::new(self.table.op_slot().to_vec()),
            stopped: self.stopped,
        };
        ctx.send(self.coordinator, status);
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        self.membership_changed(FlushScope::AllActive, ctx);
        let me = ctx.self_id();
        ctx.send_in(self.schedule.offset, me, CtlTimer::CheckpointTick);
        ctx.send_in(PING_PERIOD, me, CtlTimer::PingTick);
        ctx.send_in(RECONCILE_PERIOD, me, CtlTimer::ReconcileTick);
    }

    /// The in-region phone that relays a degraded slot's cellular
    /// snapshots onto WiFi: any active phone (lowest slot for
    /// determinism).
    fn pick_proxy(&self, degraded: u32) -> Option<ActorId> {
        self.table
            .active_slots()
            .into_iter()
            .find(|&s| s != degraded)
            .map(|s| self.table.actor(s))
    }

    fn on_ckpt_tick(&mut self, ctx: &mut Ctx) {
        let me = ctx.self_id();
        ctx.send_in(self.schedule.period, me, CtlTimer::CheckpointTick);
        if self.stopped || self.episode.recovering() {
            return;
        }
        // Behind a partition no trigger would arrive and no report
        // would return: freeze the round counter so the in-flight
        // round can still commit from retried reports after the
        // heal instead of being obsoleted by a stillborn round.
        if self.severed {
            return;
        }
        self.version += 1;
        self.ckpt_expected = self.table.hosting_slots();
        self.ckpt_got = BTreeSet::new();
        // Refresh each degraded slot's snapshot proxy once per round so
        // proxy churn (the relay failing or departing) self-heals.
        // Sent BEFORE CheckpointTick: both ride the same FIFO cellular
        // path, and a degraded mixed source+compute node snapshots the
        // moment the trigger arrives — with the old ordering it would
        // ship this round's snapshot to the previous round's (possibly
        // departed) proxy and lose the round.
        for &slot in self.degraded_urgent.keys() {
            if let Some(proxy) = self.pick_proxy(slot) {
                let dst = self.table.actor(slot);
                let msg = payload(DegradedCheckpointVia { proxy });
                net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, msg);
            }
        }
        // Degraded slots (departed, no replacement) keep computing
        // over cellular and stay in `ckpt_expected` — a degraded
        // *source* must still receive the round trigger, which
        // reaches it over its live cellular link.
        let msg = payload(CheckpointTick {
            version: self.version,
        });
        for s in self.table.source_slots(&self.graph) {
            if self.table.is_active(s) || self.degraded_urgent.contains_key(&s) {
                let dst = self.table.actor(s);
                net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, msg.clone());
            }
        }
    }

    fn on_node_checkpointed(&mut self, m: NodeCheckpointed, ctx: &mut Ctx) {
        if !self.valid_slot(m.region, m.slot) || m.version != self.version {
            return;
        }
        // Record the snapshot even while a recovery is reconfiguring
        // the region — the commit itself waits for the recovery to end
        // (see `finish_recovery`), but dropping the report would stall
        // an otherwise complete round a whole extra epoch.
        self.ckpt_got.insert(m.slot);
        self.try_commit_round(ctx);
    }

    /// Commit the in-flight checkpoint round if every expected slot has
    /// reported. Called whenever `ckpt_got` grows — and whenever a slot
    /// *leaves* `ckpt_expected` (degraded rejoin/replacement) or a
    /// recovery ends, or an already-complete round would stall an
    /// extra epoch.
    fn try_commit_round(&mut self, ctx: &mut Ctx) {
        if self.episode.recovering() || self.stopped {
            return;
        }
        // `last_complete >= version` also guards double commits: a
        // duplicate report (e.g. a proxy relay racing a rejoin) must
        // not commit the same round twice.
        if self.version == 0 || self.last_complete >= self.version {
            return;
        }
        if self.ckpt_expected.is_empty() || !self.ckpt_got.is_superset(&self.ckpt_expected) {
            return;
        }
        let version = self.version;
        self.last_complete = version;
        self.commits.push((self.region, version, ctx.now()));
        // Degraded slots are not "active" but participate in every
        // round over cellular — without the commit notice their
        // stores never GC and grow by a full state copy plus an
        // epoch's preserved inputs per tick, unbounded for the
        // life of the degradation.
        let notified = self
            .table
            .active_slots()
            .into_iter()
            .chain(self.degraded_urgent.keys().copied());
        let msg = payload(CheckpointComplete { version });
        for s in notified {
            let dst = self.table.actor(s);
            net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, msg.clone());
        }
    }

    fn on_ping_tick(&mut self, ctx: &mut Ctx) {
        let me = ctx.self_id();
        ctx.send_in(PING_PERIOD, me, CtlTimer::PingTick);
        // Severed regions are unreachable, not dead: pinging them
        // would only arm deadlines that misread weather as failure.
        // The probe loop owns contact until the heal.
        let targets: BTreeSet<(usize, u32)> = if self.stopped || self.severed {
            BTreeSet::new()
        } else {
            let sources = self.table.source_slots(&self.graph).into_iter();
            let live = sources.filter(|&s| self.table.is_active(s));
            live.map(|s| (self.region, s)).collect()
        };
        let Some(round) = self.pings.begin(targets.clone()) else {
            return;
        };
        for (_, s) in targets {
            // Tagged so a partition answers with `TxSevered` evidence
            // before the ping deadline can misfire.
            let dst = self.table.actor(s);
            self.send_ping_tagged(ctx, dst, round);
        }
        ctx.send_in(PING_TIMEOUT, me, CtlTimer::PingDeadline { round });
    }

    fn on_ping_deadline(&mut self, round: u64, ctx: &mut Ctx) {
        for (region, slot) in self.pings.expire(round) {
            self.note_failure(region, slot, ctx);
        }
    }

    /// Send a liveness/heal probe whose completion is tracked: `TxDone`
    /// clears the tag, `TxSevered` is partition evidence.
    fn send_ping_tagged(&mut self, ctx: &mut Ctx, dst: ActorId, nonce: u64) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.ping_tags.insert(tag);
        let ping = payload(dsps::node::Ping { nonce });
        net_send(ctx, self.cell, dst, Control, wire::PING, tag, ping);
    }

    /// A tagged controller send aged out behind a partition: the whole
    /// region is unreachable, not one phone dead.
    fn on_tx_severed(&mut self, tag: u64, ctx: &mut Ctx) {
        if self.ping_tags.remove(&tag) {
            self.mark_severed(ctx);
        }
    }

    /// Partition evidence: freeze supervision of the region and start
    /// the capped-backoff probe loop that watches for the heal.
    fn mark_severed(&mut self, ctx: &mut Ctx) {
        if self.stopped || self.severed {
            return;
        }
        self.severed = true;
        // Amnesty for failures noted in the evidence gap just before
        // the partition was recognized: their silence was the weather.
        // Anything genuinely dead is re-detected by post-heal pings.
        // (The gather timer stays armed and finds nothing to recover.)
        for s in self.episode.forgive() {
            if self.table.state(s) == SlotState::Dead {
                self.table.set_state(s, SlotState::Active);
            }
        }
        self.probe_epoch += 1;
        self.probe_backoff = SEVERED_PROBE_BASE;
        let epoch = self.probe_epoch;
        self.severed_open.get_or_insert(ctx.now());
        let me = ctx.self_id();
        ctx.send_in(SEVERED_PROBE_BASE, me, CtlTimer::ProbeSevered { epoch });
    }

    /// Probe a severed region: one tagged ping at the current backoff.
    /// Severed again → the next probe waits twice as long (capped).
    fn on_probe_severed(&mut self, epoch: u64, ctx: &mut Ctx) {
        if !self.severed || self.probe_epoch != epoch {
            return;
        }
        self.probe_backoff = self.probe_backoff.saturating_mul(2).min(SEVERED_PROBE_CAP);
        let next = self.probe_backoff;
        let target = self
            .table
            .active_slots()
            .first()
            .map(|&s| self.table.actor(s));
        if let Some(dst) = target {
            self.send_ping_tagged(ctx, dst, 0);
        }
        let me = ctx.self_id();
        ctx.send_in(next, me, CtlTimer::ProbeSevered { epoch });
    }

    /// Any message from a severed region is proof the partition healed.
    fn note_region_contact(&mut self, region: usize, ctx: &mut Ctx) {
        if region == self.region && self.severed {
            self.mark_healed(ctx);
        }
    }

    /// The partition healed: resume supervision and resync the region's
    /// view (membership, routing, sensors, inter-region wiring) WITHOUT
    /// rolling anything back — the phones kept computing on WiFi the
    /// whole time, and the frozen round commits from retried reports
    /// (the `last_complete >= version` guard makes double commits
    /// impossible).
    fn mark_healed(&mut self, ctx: &mut Ctx) {
        if !self.severed {
            return;
        }
        self.severed = false;
        self.probe_epoch += 1;
        self.probe_backoff = SimDuration::ZERO;
        // Sends into the region aged out unobserved while severed:
        // nothing can be assumed about any phone's membership
        // epoch. Snapshot everyone on the next flush.
        self.log.reset_all();
        if let Some(start) = self.severed_open.take() {
            self.severed_episodes.push((self.region, start, ctx.now()));
        }
        self.membership_changed(FlushScope::AllActive, ctx);
        self.push_routing(ctx);
        self.redirect_sensors(ctx);
        self.send_status(ctx);
        self.try_commit_round(ctx);
    }

    fn note_failure(&mut self, region: usize, slot: u32, ctx: &mut Ctx) {
        if !self.valid_slot(region, slot) || self.stopped {
            return;
        }
        // Severed by a partition: silence is the weather, not death.
        // Post-heal pings re-detect any phone that really died.
        if self.severed {
            return;
        }
        // While a recovery is reconfiguring the region (and shortly
        // after), nodes legitimately go quiet — don't let that look
        // like fresh failures.
        if self.episode.recovering()
            || (self.last_recovery_end != SimTime::ZERO
                && ctx.now().since(self.last_recovery_end) < QUIET_GRACE)
        {
            return;
        }
        // Departures have their own flow (§III-E); dead/gone slots
        // are already being handled.
        if !self.table.is_active(slot) {
            return;
        }
        // A departure replacement is loading the transferred state: it
        // answers nothing while installing, so peers legitimately
        // report it silent. No rollback for departures (§III-E) — but
        // only within the ack deadline: a transfer that never acks
        // means the replacement itself died, and must become
        // reportable again or its operators are lost for good.
        let stalled_transfer = self
            .departing_transfers
            .iter()
            .find(|(_, t)| t.replacement == slot)
            .map(|(&d, t)| (d, t.started));
        let mut stalled_edges: Option<Vec<EdgeId>> = None;
        if let Some((departing, started)) = stalled_transfer {
            if ctx.now().since(started) < TRANSFER_STALL_DEADLINE {
                return;
            }
            // Stalled: drop the transfer so the recovery below can
            // restore the moved operators from the MRC. The departing
            // phone left long ago — it is gone, not failed. Its
            // urgent (cellular) bridging only existed for the
            // transfer, so it is released too (the recovery rebuilds
            // the WiFi routing anyway).
            let t = self.departing_transfers.remove(&departing);
            self.table.set_state(departing, SlotState::Gone);
            stalled_edges = t.map(|t| t.edges);
        }
        if let Some(&done_at) = self.recent_installs.get(&slot) {
            if ctx.now().since(done_at) < QUIET_GRACE {
                return;
            }
        }
        self.table.set_state(slot, SlotState::Dead);
        if self.episode.note(slot, ctx.now()) {
            let me = ctx.self_id();
            ctx.send_in(GATHER_WINDOW, me, CtlTimer::RecoverNow);
        }
        if let Some(edges) = stalled_edges {
            self.release_urgent_edges(&edges, ctx);
        }
    }

    /// Tear down urgent (cellular) routing for the edges of one
    /// finished or stalled departure transfer, keeping any edge some
    /// other in-flight transfer still bridges.
    fn release_urgent_edges(&self, edges: &[EdgeId], ctx: &mut Ctx) {
        let still_needed: BTreeSet<EdgeId> = self
            .departing_transfers
            .values()
            .flat_map(|t| t.edges.iter().copied())
            .chain(self.degraded_urgent.values().flatten().copied())
            .collect();
        let off: Vec<EdgeId> = edges
            .iter()
            .copied()
            .filter(|e| !still_needed.contains(e))
            .collect();
        if off.is_empty() {
            return;
        }
        let msg = payload(SetUrgentEdges {
            edges: off,
            on: false,
        });
        for s in self.table.active_slots() {
            let dst = self.table.actor(s);
            net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, msg.clone());
        }
    }

    fn stop_region(&mut self, ctx: &mut Ctx) {
        self.stopped = true;
        self.stops += 1;
        // Bypass: the coordinator re-resolves every upstream region's
        // downstream wiring (those belong to other controllers).
        self.send_status(ctx);
    }

    /// The install that makes `slot` host what the region's table says
    /// it hosts, with the modeled load time of that many operators.
    fn install_for(&self, slot: u32, states: InstallStates) -> Install {
        let mut install = self.table.install_for(slot, states, READY_OVERHEAD);
        install.ready_in += READY_PER_OP * install.ops.len() as u64;
        install
    }

    /// Hand `slot`'s bulk install to the coordinator, which ships it
    /// (charged as operator code) over its fat cellular endpoint and
    /// reports the tagged completion back as an [`InstallOutcome`].
    fn ship_install(&self, ctx: &mut Ctx, slot: u32, states: InstallStates) {
        let install = self.install_for(slot, states);
        ctx.send(
            self.coordinator,
            ShipInstall {
                region: self.region,
                slot,
                dst: self.table.actor(slot),
                bytes: CODE_BYTES_PER_OP * install.ops.len().max(1) as u64,
                install,
            },
        );
    }

    /// Execute a recovery plan's sends: move the replaced slots'
    /// operators, publish the new wiring, ship the installs and roll
    /// the survivors back. The plan's acks end the episode.
    fn execute(&mut self, plan: &RecoveryPlan, ctx: &mut Ctx) {
        // Slots whose operators are reassigned: end any degraded
        // cellular bridging they held.
        let mut released: Vec<EdgeId> = Vec::new();
        for (f, r) in plan.moved() {
            self.table.reassign_slot(f, r);
            if let Some(edges) = self.degraded_urgent.remove(&f) {
                released.extend(edges);
                // The replacement install hands this slot's ops
                // back to the WiFi path mid-round: stop expecting
                // the degraded phone's cellular snapshot, or the
                // round stalls an extra epoch. The completion
                // re-check runs when this recovery finishes.
                self.ckpt_expected.remove(&f);
            }
        }
        // Tear down phones that are still computing remotely — a
        // departed phone stays reachable over cellular and must stop
        // once its operators moved, or the region processes every
        // tuple twice.
        let msg = payload(self.table.routing());
        for (f, _) in plan.moved() {
            let dst = self.table.actor(f);
            net_send(
                ctx,
                self.cell,
                dst,
                Control,
                wire::MEMBERSHIP,
                0,
                msg.clone(),
            );
        }
        if !released.is_empty() {
            self.release_urgent_edges(&released, ctx);
        }
        self.push_routing(ctx);
        self.membership_changed(FlushScope::Stakeholders, ctx);
        self.redirect_sensors(ctx);
        // Code + install to the replacements (cellular, brokered by
        // the coordinator); the survivors roll back to the MRC.
        for (slot, states) in &plan.installs {
            self.ship_install(ctx, *slot, states.clone());
        }
        let msg = payload(RollbackTo {
            version: plan.version,
        });
        for &s in &plan.rollback {
            let dst = self.table.actor(s);
            net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, msg.clone());
        }
        self.episode.await_acks(plan.acks.clone());
    }

    fn on_recover_now(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let failed = self.episode.gathered();
        // Severed: partition evidence arrived after the burst
        // gathered, and launching a recovery at an unreachable region
        // would only reassign operators nobody can be told about. The
        // heal resync re-detects any real deaths.
        if self.stopped || self.severed || failed.is_empty() {
            return;
        }
        // A burst re-queued by a rejoin has no detection time yet.
        if self.episode.started() == SimTime::ZERO {
            self.episode.begin_now(failed.len(), now);
        } else {
            self.episode.begin(failed.len());
        }
        let kind = RecoveryKind::Mrc {
            version: self.last_complete,
        };
        match plan_recovery(&self.table, &self.graph, &failed, kind) {
            // ROADMAP 12(a), kept on purpose: this arm also runs a
            // membership-only plan (a burst that hosts nothing), whose
            // survivors still roll back and owe acks. The baselines
            // abort the episode on such a plan; the fix is that arm.
            Ok(plan) => {
                self.execute(&plan, ctx);
                self.send_status(ctx);
                let me = ctx.self_id();
                ctx.send_in(ACK_DEADLINE, me, CtlTimer::AckDeadline);
            }
            // No healthy phone at all: stop and bypass the region until
            // phones re-register (reboot path).
            Err(Unrecoverable) => {
                self.episode.abort();
                self.stop_region(ctx);
            }
        }
    }

    /// All acks in (or deadline): restart the region's dataflow.
    fn finish_recovery(&mut self, ctx: &mut Ctx) {
        if !self.episode.recovering() {
            return;
        }
        let record = self.episode.finish(self.region, ctx.now());
        self.last_recovery_end = ctx.now();
        let epoch = self.last_complete;
        for (s, _) in plan_replay(&self.table, &self.graph, Some(epoch), &BTreeSet::new()) {
            let (dst, replay) = (self.table.actor(s), payload(ReplayInputs { epoch }));
            net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, replay);
        }
        self.recoveries.push(record);
        // Snapshot reports accepted while the recovery ran may have
        // completed the in-flight round — commit it now rather than
        // stalling it until the next report (which may never come).
        self.try_commit_round(ctx);
        // Serve a deferred reboot-rejoin, if any still applies.
        if let Some(ix) = self
            .pending_reinstalls
            .iter()
            .position(|&s| !self.table.ops_on(s).is_empty())
        {
            let slot = self.pending_reinstalls.remove(ix);
            if self.table.is_active(slot) {
                self.reinstall_slot(slot, ctx);
            }
        } else {
            self.pending_reinstalls.clear();
        }
    }

    fn on_recovered_ack(&mut self, m: Recovered, ctx: &mut Ctx) {
        if !self.valid_slot(m.region, m.slot) {
            return;
        }
        // Departure transfer ack?
        let departed = self
            .departing_transfers
            .iter()
            .find(|(_, t)| t.replacement == m.slot)
            .map(|(&d, _)| d);
        let transfer = departed.and_then(|d| self.departing_transfers.remove_entry(&d));
        if let Some((departed, transfer)) = transfer {
            self.table.set_state(departed, SlotState::Gone);
            self.recent_installs.insert(m.slot, ctx.now());
            self.departures_handled += 1;
            // Tear the departed phone down: it kept computing remotely
            // (urgent mode) until the hand-off completed; now that the
            // replacement owns its operators it must stop, or the
            // region would process every tuple twice.
            let (dst, msg) = (self.table.actor(departed), payload(self.table.routing()));
            net_send(ctx, self.cell, dst, Control, wire::MEMBERSHIP, 0, msg);
            // Clear this transfer's urgent mode and publish the new
            // wiring.
            self.release_urgent_edges(&transfer.edges, ctx);
            self.push_routing(ctx);
            self.membership_changed(FlushScope::Stakeholders, ctx);
            self.redirect_sensors(ctx);
            self.send_status(ctx);
            return;
        }
        if self.episode.ack(m.slot) {
            self.finish_recovery(ctx);
        }
    }

    fn on_departure(&mut self, m: DepartureNotice, ctx: &mut Ctx) {
        let slot = m.slot;
        if !self.valid_slot(m.region, slot) || !self.table.is_active(slot) {
            return;
        }
        self.table.set_state(slot, SlotState::Departing);
        let departing = self.table.actor(slot);
        let ops = self.table.ops_on(slot);
        if ops.is_empty() {
            // Idle node: just unregister.
            self.table.set_state(slot, SlotState::Gone);
            self.membership_changed(FlushScope::Stakeholders, ctx);
            return;
        }
        // Urgent mode: edges crossing the departed phone's WiFi link.
        let mut affected_edges = Vec::new();
        for &op in &ops {
            for &e in &self.graph.op(op).in_edges {
                if self.table.slot_of(self.graph.edge(e).from) != slot {
                    affected_edges.push(e);
                }
            }
            for &e in &self.graph.op(op).out_edges {
                if self.table.slot_of(self.graph.edge(e).to) != slot {
                    affected_edges.push(e);
                }
            }
        }
        // Pick the replacement (idle nodes only; no replacement =
        // degraded urgent mode until a phone rejoins).
        let replacement = self.table.idle_active_slots().first().copied();
        if let Some(r) = replacement {
            self.departing_transfers.insert(
                slot,
                DepartingTransfer {
                    replacement: r,
                    started: ctx.now(),
                    edges: affected_edges.clone(),
                },
            );
            self.table.reassign_slot(slot, r);
        }
        // Tell everyone (including the departing node) to route the
        // affected edges over cellular for now — whether or not a
        // replacement exists: with none, the region runs degraded in
        // urgent mode and the departed phone keeps computing remotely.
        let told = self.table.active_slots().into_iter();
        let told = told.map(|s| self.table.actor(s));
        let msg = payload(SetUrgentEdges {
            edges: affected_edges.clone(),
            on: true,
        });
        for dst in told.chain([departing]) {
            net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, msg.clone());
        }
        let Some(replacement) = replacement else {
            // No replacement available: if no phone is left active the
            // region stops (bypass); otherwise it limps along over
            // cellular until a reboot/rejoin provides a phone. The
            // urgent edges must outlive other transfers' releases for
            // as long as the degraded phone computes remotely.
            self.degraded_urgent.insert(slot, affected_edges);
            if self.table.active_slots().is_empty() {
                self.stop_region(ctx);
                return;
            }
            // The degraded phone can no longer broadcast snapshots on
            // WiFi; route them through an in-region proxy so the
            // region's checkpoint rounds stay satisfiable (§III).
            if let Some(proxy) = self.pick_proxy(slot) {
                let msg = payload(DegradedCheckpointVia { proxy });
                net_send(ctx, self.cell, departing, Control, wire::CONTROL, 0, msg);
            }
            // Drop the departed phone from everyone's broadcast
            // receiver set: it is off WiFi indefinitely, and leaving it
            // in `active_slots` would cost every region broadcast a
            // full straggler-bitmap timeout per phase for as long as
            // the degradation lasts.
            self.membership_changed(FlushScope::Stakeholders, ctx);
            return;
        };
        // Ask the departing phone to transfer its state to the
        // replacement over cellular (Fig 7, time instant 3).
        let msg = payload(TransferStateTo {
            replacement: self.table.actor(replacement),
            // States are filled in by the departing node.
            install: self.install_for(replacement, InstallStates::Fresh),
        });
        net_send(ctx, self.cell, departing, Control, wire::CONTROL, 0, msg);
    }

    fn on_register(&mut self, m: RegisterNode, ctx: &mut Ctx) {
        if !self.valid_slot(m.region, m.slot) {
            return;
        }
        self.table.set_state(m.slot, SlotState::Active);
        // The phone may have missed any number of membership
        // messages while dead or out of range: forget its epoch so
        // the pending flush sends it one full snapshot.
        self.log.reset(m.slot);
        let owns_ops = !self.table.ops_on(m.slot).is_empty();
        // A degraded departure's phone is back in WiFi range: its
        // cellular bridging ends (the reinstall below restores normal
        // routing), and its slot leaves the in-flight round's
        // `ckpt_expected` — the reinstall supersedes any snapshot still
        // crawling over cellular, so waiting for it would stall an
        // already-complete round one extra epoch. Re-check completion
        // now (before the reinstall flips `recovering` on); a late
        // proxy relay for this slot cannot double-commit (the commit
        // guard is on `last_complete`). Known tradeoff: a round
        // committed this way lacks the rejoined slot's states in the
        // region-wide MRC until the in-flight relay lands seconds
        // later (the relay still replicates them); in that window the
        // states live only in the rejoined phone's own store, and a
        // crash there would make a reassignment restore those ops
        // fresh (the pre-existing missing-state fallback).
        if let Some(edges) = self.degraded_urgent.remove(&m.slot) {
            self.release_urgent_edges(&edges, ctx);
            self.ckpt_expected.remove(&m.slot);
            self.try_commit_round(ctx);
        }
        // A rebooted phone whose ops were never reassigned (it crashed
        // and came back before/without recovery) returns empty-handed:
        // reinstall its operators from its own flash copy and roll the
        // region back so the dataflow is consistent again.
        if owns_ops {
            if !self.stopped && !self.episode.recovering() {
                self.reinstall_slot(m.slot, ctx);
            } else {
                // Defer until the in-flight recovery / restart settles.
                self.pending_reinstalls.push(m.slot);
            }
        }
        // Update WiFi membership: the phone is back in range, after
        // the cellular downlink delay of the command.
        let link = SetLink {
            node: self.table.actor(m.slot),
            state: LinkState::Active,
        };
        ctx.send_in(self.push_delay, self.wifi, link);
        self.membership_changed(FlushScope::Stakeholders, ctx);
        if self.stopped {
            // Restart a stopped region once enough phones are back.
            if self.table.active_slots().len() as u32 >= self.restart_min {
                self.restart_region(ctx);
            }
            return;
        }
        // If the region is degraded (ops stranded on dead slots
        // because no spare existed), retry recovery now that a phone is
        // back.
        if self.episode.requeue(self.table.stranded_slots()) && self.episode.arm() {
            let me = ctx.self_id();
            ctx.send_in(GATHER_WINDOW, me, CtlTimer::RecoverNow);
        }
    }

    /// Reinstall a re-registered slot's own operators (reboot rejoin)
    /// and roll back the region to the MRC.
    fn reinstall_slot(&mut self, slot: u32, ctx: &mut Ctx) {
        self.episode.begin_now(1, ctx.now());
        let kind = RecoveryKind::Reboot {
            version: self.last_complete,
            rollback: true,
        };
        if let Ok(plan) = plan_recovery(&self.table, &self.graph, &[slot], kind) {
            self.execute(&plan, ctx);
            let me = ctx.self_id();
            ctx.send_in(ACK_DEADLINE, me, CtlTimer::AckDeadline);
        }
    }

    fn restart_region(&mut self, ctx: &mut Ctx) {
        // Re-place every op onto active slots, preferring current
        // assignment when that slot is active. No active slot: raced a
        // failure between the restart check and now — stay stopped
        // rather than panic.
        if !self.table.respread() {
            return;
        }
        self.stopped = false;
        let states = InstallStates::from_mrc(self.last_complete);
        for s in self.table.active_slots() {
            self.ship_install(ctx, s, states.clone());
        }
        self.membership_changed(FlushScope::AllActive, ctx);
        self.redirect_sensors(ctx);
        self.send_status(ctx);
    }

    /// An install the coordinator shipped for us did not arrive.
    fn on_install_outcome(&mut self, o: InstallOutcome, ctx: &mut Ctx) {
        if !self.valid_slot(o.region, o.slot) {
            return;
        }
        match o.kind {
            // The install never reached its target: that phone is dead;
            // fold it into a fresh recovery round.
            InstallOutcomeKind::Failed => {
                // Active, so that `note_failure` takes the report.
                self.table.set_state(o.slot, SlotState::Active);
                self.note_failure(o.region, o.slot, ctx);
            }
            // The install aged out behind a partition: the whole region
            // is unreachable.
            InstallOutcomeKind::Severed => self.mark_severed(ctx),
        }
    }

    fn on_timer(&mut self, t: CtlTimer, ctx: &mut Ctx) {
        match t {
            CtlTimer::CheckpointTick => self.on_ckpt_tick(ctx),
            CtlTimer::PingTick => self.on_ping_tick(ctx),
            CtlTimer::PingDeadline { round } => self.on_ping_deadline(round, ctx),
            CtlTimer::RecoverNow => self.on_recover_now(ctx),
            CtlTimer::AckDeadline => self.finish_recovery(ctx),
            CtlTimer::ProbeSevered { epoch } => self.on_probe_severed(epoch, ctx),
            CtlTimer::FlushDeltas => self.on_flush(ctx),
            CtlTimer::ReconcileTick => self.on_reconcile_tick(ctx),
        }
    }
}

impl Actor for RegionController {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        let ev = match ev.downcast::<NetRx>() {
            Ok(rx) => {
                let p = rx.payload.clone();
                // Any message out of a severed region proves the
                // partition healed — resync before handling it.
                if let Some(m) = payload_as::<Pong>(&p) {
                    self.note_region_contact(m.region, ctx);
                    self.pings.pong(m.nonce, m.region, m.slot);
                } else if let Some(m) = payload_as::<NodeCheckpointed>(&p) {
                    self.note_region_contact(m.region, ctx);
                    self.on_node_checkpointed(*m, ctx);
                } else if let Some(m) = payload_as::<ReportDead>(&p) {
                    self.note_region_contact(m.region, ctx);
                    self.note_failure(m.region, m.slot, ctx);
                } else if let Some(m) = payload_as::<Recovered>(&p) {
                    self.note_region_contact(m.region, ctx);
                    self.on_recovered_ack(*m, ctx);
                } else if let Some(m) = payload_as::<DepartureNotice>(&p) {
                    self.note_region_contact(m.region, ctx);
                    self.on_departure(*m, ctx);
                } else if let Some(m) = payload_as::<RegisterNode>(&p) {
                    self.note_region_contact(m.region, ctx);
                    self.on_register(*m, ctx);
                }
                return;
            }
            Err(e) => e,
        };
        simkernel::match_event!(ev,
            _s: Start => { self.on_start(ctx); },
            t: CtlTimer => { self.on_timer(t, ctx); },
            o: InstallOutcome => { self.on_install_outcome(o, ctx); },
            f: TxFailed => {
                // A failed ping just means the pinged phone is dead —
                // its round deadline already covers that.
                self.ping_tags.remove(&f.tag);
            },
            d: simnet::TxDone => {
                self.ping_tags.remove(&d.tag);
            },
            s: simnet::TxSevered => {
                self.on_tx_severed(s.tag, ctx);
            },
            @else _other => {}
        );
    }

    fn name(&self) -> String {
        format!("ms-regionctl-{}", self.region)
    }

    impl_actor_any!();
}
