//! The per-region-group controller: owns its regions' mutable state.
//!
//! One `RegionController` supervises a contiguous group of regions and
//! lives on the shard of the group's first region, so the failure
//! detection / checkpoint / recovery chatter of a region group never
//! forces the global barrier. It:
//!
//! * triggers periodic checkpoints by notifying each region's source
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
//! * stops and bypasses a region with insufficient phones, restarting
//!   it when enough phones re-register;
//! * reconciles membership with epoch-numbered batched deltas (see
//!   [`super::reconcile`]) instead of full-snapshot fan-outs.
//!
//! Anything cross-region — inter-region wiring, placement epochs, bulk
//! install shipping — is delegated to the coordinator via the direct
//! messages in [`super::msgs`].

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
use simnet::{net_send, payload, payload_as, LinkState, NetRx, Payload, TxFailed};

use super::msgs::{
    CtlTimer, InstallOutcome, InstallOutcomeKind, RegionStatus, RelaySensorRedirect, RelayWifiLink,
    ShipInstall,
};
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

struct RegionRt {
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
}

/// The per-region-group controller actor.
pub struct RegionController {
    schedule: CheckpointSchedule,
    cell: ActorId,
    coordinator: ActorId,
    group: usize,
    /// First global region index of the group (regions are contiguous).
    first_region: usize,
    regions: Vec<RegionRt>,
    pings: PingRounds,
    next_tag: u64,
    /// Tagged ping/probe sends: tag → target region. A `TxSevered`
    /// completion on one of these is the evidence that marks the
    /// region severed (a `TxFailed` just means the pinged phone died —
    /// the ping deadline already covers that). Install severing
    /// arrives as an [`InstallOutcome`] from the coordinator instead.
    ping_tags: BTreeMap<u64, usize>,
    /// Partition episodes observed: (region, severed at, healed at).
    /// Harvested by experiments for recovery timelines.
    pub severed_episodes: Vec<(usize, SimTime, SimTime)>,
    /// Start times of still-open partition episodes per region.
    severed_open: BTreeMap<usize, SimTime>,
    /// Completed recoveries (harvested by experiments).
    pub recoveries: Vec<RecoveryRecord>,
    /// Departure replacements completed.
    pub departures_handled: u64,
    /// Checkpoint versions committed per region.
    pub commits: Vec<(usize, u64, SimTime)>,
    /// Regions currently stopped (bypass active).
    pub stops: u64,
    /// Remote messages rejected for naming a `(region, slot)` outside
    /// this controller's group.
    pub malformed_msgs: u64,
    /// Re-registered op-owning slots waiting for the current recovery
    /// to finish before their reinstall runs.
    pending_reinstalls: Vec<(usize, u32)>,
    /// Membership messages sent (snapshots + deltas) — the churn-storm
    /// complexity tests assert these scale with delta size, not region
    /// population.
    pub membership_msgs: u64,
    /// Membership bytes sent.
    pub membership_bytes: u64,
}

impl RegionController {
    /// Build a controller over the contiguous region group starting at
    /// global index `first_region`.
    pub fn new(
        schedule: CheckpointSchedule,
        cell: ActorId,
        coordinator: ActorId,
        group: usize,
        first_region: usize,
        specs: Vec<RegionSpec>,
    ) -> Self {
        let regions = specs
            .into_iter()
            .map(|spec| RegionRt {
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
            })
            .collect();
        RegionController {
            schedule,
            cell,
            coordinator,
            group,
            first_region,
            regions,
            pings: PingRounds::default(),
            next_tag: 1,
            ping_tags: BTreeMap::new(),
            severed_episodes: Vec::new(),
            severed_open: BTreeMap::new(),
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

    /// The group this controller owns.
    pub fn group(&self) -> usize {
        self.group
    }

    /// Global region indices of the group.
    pub fn region_indices(&self) -> std::ops::Range<usize> {
        self.first_region..self.first_region + self.regions.len()
    }

    fn rt(&self, region: usize) -> &RegionRt {
        &self.regions[region - self.first_region]
    }

    fn rt_mut(&mut self, region: usize) -> &mut RegionRt {
        &mut self.regions[region - self.first_region]
    }

    /// Validate a `(region, slot)` pair arriving in a remote message.
    /// A fleet-scale deployment must shrug off a malformed, stale or
    /// out-of-group message rather than panic the controller (and with
    /// it every region of the group at once).
    fn valid_slot(&mut self, region: usize, slot: u32) -> bool {
        let ok = region >= self.first_region
            && self
                .regions
                .get(region - self.first_region)
                .is_some_and(|rt| rt.table.valid(slot));
        if !ok {
            self.malformed_msgs += 1;
        }
        ok
    }

    /// Latest committed checkpoint version of a region.
    pub fn last_complete(&self, region: usize) -> u64 {
        self.rt(region).last_complete
    }

    /// Is the region currently stopped (bypassed)?
    pub fn is_stopped(&self, region: usize) -> bool {
        self.rt(region).stopped
    }

    /// Record any slot-activity transitions into the region's
    /// membership log and make sure a flush is pending for this tick.
    /// Consecutive calls within one tick (e.g. a rejoin that also
    /// triggers a reinstall) coalesce into a single flush.
    fn membership_changed(&mut self, region: usize, scope: FlushScope, ctx: &mut Ctx) {
        let rt = self.rt_mut(region);
        for s in 0..rt.table.slots() {
            rt.log.record(s, rt.table.is_active(s));
        }
        match rt.pending_flush {
            Some(FlushScope::AllActive) => {}
            Some(FlushScope::Stakeholders) => {
                if scope == FlushScope::AllActive {
                    rt.pending_flush = Some(FlushScope::AllActive);
                }
            }
            None => {
                rt.pending_flush = Some(scope);
                let me = ctx.self_id();
                ctx.send(me, CtlTimer::FlushDeltas { region });
            }
        }
    }

    fn on_flush(&mut self, region: usize, ctx: &mut Ctx) {
        let Some(scope) = self.rt_mut(region).pending_flush.take() else {
            return;
        };
        self.send_deltas(region, scope, ctx);
    }

    /// Push membership toward the log head for the scoped targets:
    /// phones with no known epoch get one shared-`Arc` snapshot, every
    /// other lagging phone gets the batched change suffix from its
    /// observed epoch (suffixes shared across targets). Phones already
    /// at the head get nothing.
    fn send_deltas(&mut self, region: usize, scope: FlushScope, ctx: &mut Ctx) {
        let rt = &mut self.regions[region - self.first_region];
        // Behind a partition every send would age out unobserved;
        // the heal resync resets observed epochs and re-flushes.
        if rt.severed {
            return;
        }
        let head = rt.log.head();
        let active = rt.table.active_slots();
        let targets: Vec<u32> = match scope {
            FlushScope::AllActive => active,
            FlushScope::Stakeholders => {
                let hosting = rt.table.hosting_slots();
                let proxy = active.first().copied();
                active
                    .into_iter()
                    .filter(|&s| {
                        hosting.contains(&s) || Some(s) == proxy || rt.log.observed(s).is_none()
                    })
                    .collect()
            }
        };
        // Snapshots go out first, then the deltas.
        let mut snapshot: Option<Payload> = None;
        let mut deltas: Vec<(ActorId, MembershipDelta)> = Vec::new();
        let mut cache = SuffixCache::new();
        for slot in targets {
            let dst = rt.table.actor(slot);
            match rt.log.observed(slot) {
                None => {
                    let msg = snapshot
                        .get_or_insert_with(|| {
                            payload(MembershipUpdate {
                                slot_actors: Arc::clone(rt.table.slot_actors()),
                                active_slots: Arc::new(rt.table.active_slots()),
                                epoch: head,
                            })
                        })
                        .clone();
                    self.membership_msgs += 1;
                    self.membership_bytes += wire::MEMBERSHIP;
                    net_send(ctx, self.cell, dst, Control, wire::MEMBERSHIP, 0, msg);
                }
                Some(base) if base < head => {
                    let (base, changes) = cache.for_base(&rt.log, base);
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
            rt.log.note_synced(slot, head);
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
        for region in self.region_indices() {
            self.send_deltas(region, FlushScope::AllActive, ctx);
        }
    }

    /// Re-pair sensors with the phones now hosting the source ops
    /// (zero-cost events: the camera physically pairs with the
    /// adjacent phone). Relayed through the coordinator: the sensors
    /// live on their region's shard, which within a group may differ
    /// from this controller's.
    fn redirect_sensors(&self, region: usize, ctx: &mut Ctx) {
        let rt = self.rt(region);
        let redirects: Vec<_> = rt
            .graph
            .sources()
            .into_iter()
            .filter(|&op| rt.table.slot_of(op) != u32::MAX)
            .map(|op| dsps::workload::SensorRedirect {
                op,
                actor: rt.table.actor_of(op),
            })
            .collect();
        for &sensor in &rt.sensors {
            for &redirect in &redirects {
                ctx.send(self.coordinator, RelaySensorRedirect { sensor, redirect });
            }
        }
    }

    /// Push the region's routing tables to the phones that forward
    /// data: hosting phones plus degraded departed phones still
    /// computing over cellular. (Idle phones receive their tables with
    /// the `Install` if they ever become replacements.)
    fn push_routing(&self, region: usize, ctx: &mut Ctx) {
        let rt = self.rt(region);
        let hosting = rt.table.hosting_slots();
        let mut slots: BTreeSet<u32> = rt
            .table
            .active_slots()
            .into_iter()
            .filter(|s| hosting.contains(s))
            .collect();
        slots.extend(rt.degraded_urgent.keys().copied());
        let msg = payload(rt.table.routing());
        for s in slots {
            let dst = rt.table.actor(s);
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
    /// which bumps the placement epoch and re-resolves inter-region
    /// wiring for the region and its upstreams.
    fn send_status(&self, region: usize, ctx: &mut Ctx) {
        let rt = self.rt(region);
        let status = RegionStatus {
            region,
            op_slot: Arc::new(rt.table.op_slot().to_vec()),
            stopped: rt.stopped,
        };
        ctx.send(self.coordinator, status);
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        for region in self.region_indices() {
            self.membership_changed(region, FlushScope::AllActive, ctx);
            if self.schedule.enabled {
                let me = ctx.self_id();
                let tick = CtlTimer::CheckpointTick { region };
                ctx.send_in(self.schedule.offset, me, tick);
            }
        }
        let me = ctx.self_id();
        ctx.send_in(PING_PERIOD, me, CtlTimer::PingTick);
        ctx.send_in(RECONCILE_PERIOD, me, CtlTimer::ReconcileTick);
    }

    /// The in-region phone that relays a degraded slot's cellular
    /// snapshots onto WiFi: any active phone (lowest slot for
    /// determinism).
    fn pick_proxy(&self, region: usize, degraded: u32) -> Option<ActorId> {
        let table = &self.rt(region).table;
        table
            .active_slots()
            .into_iter()
            .find(|&s| s != degraded)
            .map(|s| table.actor(s))
    }

    fn on_ckpt_tick(&mut self, region: usize, ctx: &mut Ctx) {
        let me = ctx.self_id();
        let tick = CtlTimer::CheckpointTick { region };
        ctx.send_in(self.schedule.period, me, tick);
        let rt = self.rt_mut(region);
        if rt.stopped || rt.episode.recovering() {
            return;
        }
        // Behind a partition no trigger would arrive and no report
        // would return: freeze the round counter so the in-flight
        // round can still commit from retried reports after the
        // heal instead of being obsoleted by a stillborn round.
        if rt.severed {
            return;
        }
        rt.version += 1;
        rt.ckpt_expected = rt.table.hosting_slots();
        rt.ckpt_got = BTreeSet::new();
        let rt = self.rt(region);
        // Refresh each degraded slot's snapshot proxy once per round so
        // proxy churn (the relay failing or departing) self-heals.
        // Sent BEFORE StartCheckpoint: both ride the same FIFO cellular
        // path, and a degraded mixed source+compute node snapshots the
        // moment the trigger arrives — with the old ordering it would
        // ship this round's snapshot to the previous round's (possibly
        // departed) proxy and lose the round.
        for &slot in rt.degraded_urgent.keys() {
            if let Some(proxy) = self.pick_proxy(region, slot) {
                let dst = rt.table.actor(slot);
                let msg = payload(DegradedCheckpointVia { proxy });
                net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, msg);
            }
        }
        // Degraded slots (departed, no replacement) keep computing
        // over cellular and stay in `ckpt_expected` — a degraded
        // *source* must still receive the round trigger, which
        // reaches it over its live cellular link.
        let version = rt.version;
        let msg = payload(StartCheckpoint { version });
        for s in rt.table.source_slots(&rt.graph) {
            if rt.table.is_active(s) || rt.degraded_urgent.contains_key(&s) {
                let dst = rt.table.actor(s);
                net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, msg.clone());
            }
        }
    }

    fn on_node_checkpointed(&mut self, m: NodeCheckpointed, ctx: &mut Ctx) {
        if !self.valid_slot(m.region, m.slot) {
            return;
        }
        let region = m.region;
        let rt = self.rt_mut(region);
        if m.version != rt.version {
            return;
        }
        // Record the snapshot even while a recovery is reconfiguring
        // the region — the commit itself waits for the recovery to end
        // (see `finish_recovery`), but dropping the report would stall
        // an otherwise complete round a whole extra epoch.
        rt.ckpt_got.insert(m.slot);
        self.try_commit_round(region, ctx);
    }

    /// Commit the in-flight checkpoint round if every expected slot has
    /// reported. Called whenever `ckpt_got` grows — and whenever a slot
    /// *leaves* `ckpt_expected` (degraded rejoin/replacement) or a
    /// recovery ends, or an already-complete round would stall an
    /// extra epoch.
    fn try_commit_round(&mut self, region: usize, ctx: &mut Ctx) {
        let rt = self.rt_mut(region);
        if rt.episode.recovering() || rt.stopped {
            return;
        }
        // `last_complete >= version` also guards double commits: a
        // duplicate report (e.g. a proxy relay racing a rejoin) must
        // not commit the same round twice.
        if rt.version == 0 || rt.last_complete >= rt.version {
            return;
        }
        if rt.ckpt_expected.is_empty() || !rt.ckpt_got.is_superset(&rt.ckpt_expected) {
            return;
        }
        let version = rt.version;
        rt.last_complete = version;
        self.commits.push((region, version, ctx.now()));
        let rt = self.rt(region);
        // Degraded slots are not "active" but participate in every
        // round over cellular — without the commit notice their
        // stores never GC and grow by a full state copy plus an
        // epoch's preserved inputs per tick, unbounded for the
        // life of the degradation.
        let notified = rt
            .table
            .active_slots()
            .into_iter()
            .chain(rt.degraded_urgent.keys().copied());
        let msg = payload(CheckpointComplete { version });
        for s in notified {
            let dst = rt.table.actor(s);
            net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, msg.clone());
        }
    }

    fn on_ping_tick(&mut self, ctx: &mut Ctx) {
        let me = ctx.self_id();
        ctx.send_in(PING_PERIOD, me, CtlTimer::PingTick);
        let mut targets = BTreeSet::new();
        for (i, rt) in self.regions.iter().enumerate() {
            // Severed regions are unreachable, not dead: pinging them
            // would only arm deadlines that misread weather as failure.
            // The probe loop owns contact until the heal.
            if rt.stopped || rt.severed {
                continue;
            }
            let sources = rt.table.source_slots(&rt.graph);
            let live = sources.into_iter().filter(|&s| rt.table.is_active(s));
            targets.extend(live.map(|s| (self.first_region + i, s)));
        }
        let Some(round) = self.pings.begin(targets.clone()) else {
            return;
        };
        for (r, s) in targets {
            // Tagged so a partition answers with `TxSevered` evidence
            // before the ping deadline can misfire.
            let dst = self.rt(r).table.actor(s);
            self.send_ping_tagged(ctx, dst, r, round);
        }
        ctx.send_in(PING_TIMEOUT, me, CtlTimer::PingDeadline { round });
    }

    fn on_ping_deadline(&mut self, round: u64, ctx: &mut Ctx) {
        for (region, slot) in self.pings.expire(round) {
            self.note_failure(region, slot, ctx);
        }
    }

    /// Send a liveness/heal probe whose completion is tracked: `TxDone`
    /// clears the tag, `TxSevered` is partition evidence for `region`.
    fn send_ping_tagged(&mut self, ctx: &mut Ctx, dst: ActorId, region: usize, nonce: u64) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.ping_tags.insert(tag, region);
        let ping = payload(dsps::node::Ping { nonce });
        net_send(ctx, self.cell, dst, Control, wire::PING, tag, ping);
    }

    /// A tagged controller send aged out behind a partition: the whole
    /// region is unreachable, not one phone dead.
    fn on_tx_severed(&mut self, tag: u64, ctx: &mut Ctx) {
        if let Some(region) = self.ping_tags.remove(&tag) {
            self.mark_severed(region, ctx);
        }
    }

    /// Partition evidence: freeze supervision of the region and start
    /// the capped-backoff probe loop that watches for the heal.
    fn mark_severed(&mut self, region: usize, ctx: &mut Ctx) {
        let rt = self.rt_mut(region);
        if rt.stopped || rt.severed {
            return;
        }
        rt.severed = true;
        // Amnesty for failures noted in the evidence gap just before
        // the partition was recognized: their silence was the weather.
        // Anything genuinely dead is re-detected by post-heal pings.
        // (The gather timer stays armed and finds nothing to recover.)
        for s in rt.episode.forgive() {
            if rt.table.state(s) == SlotState::Dead {
                rt.table.set_state(s, SlotState::Active);
            }
        }
        rt.probe_epoch += 1;
        rt.probe_backoff = SEVERED_PROBE_BASE;
        let epoch = rt.probe_epoch;
        self.severed_open.entry(region).or_insert_with(|| ctx.now());
        let me = ctx.self_id();
        let probe = CtlTimer::ProbeSevered { region, epoch };
        ctx.send_in(SEVERED_PROBE_BASE, me, probe);
    }

    /// Probe a severed region: one tagged ping at the current backoff.
    /// Severed again → the next probe waits twice as long (capped).
    fn on_probe_severed(&mut self, region: usize, epoch: u64, ctx: &mut Ctx) {
        let rt = self.rt_mut(region);
        if !rt.severed || rt.probe_epoch != epoch {
            return;
        }
        rt.probe_backoff = rt.probe_backoff.saturating_mul(2).min(SEVERED_PROBE_CAP);
        let next = rt.probe_backoff;
        let target = rt.table.active_slots().first().map(|&s| rt.table.actor(s));
        if let Some(dst) = target {
            self.send_ping_tagged(ctx, dst, region, 0);
        }
        let me = ctx.self_id();
        ctx.send_in(next, me, CtlTimer::ProbeSevered { region, epoch });
    }

    /// Any message from a severed region is proof the partition healed.
    fn note_region_contact(&mut self, region: usize, ctx: &mut Ctx) {
        if self.region_indices().contains(&region) && self.rt(region).severed {
            self.mark_healed(region, ctx);
        }
    }

    /// The partition healed: resume supervision and resync the region's
    /// view (membership, routing, sensors, inter-region wiring) WITHOUT
    /// rolling anything back — the phones kept computing on WiFi the
    /// whole time, and the frozen round commits from retried reports
    /// (the `last_complete >= version` guard makes double commits
    /// impossible).
    fn mark_healed(&mut self, region: usize, ctx: &mut Ctx) {
        let rt = self.rt_mut(region);
        if !rt.severed {
            return;
        }
        rt.severed = false;
        rt.probe_epoch += 1;
        rt.probe_backoff = SimDuration::ZERO;
        // Sends into the region aged out unobserved while severed:
        // nothing can be assumed about any phone's membership
        // epoch. Snapshot everyone on the next flush.
        rt.log.reset_all();
        if let Some(start) = self.severed_open.remove(&region) {
            self.severed_episodes.push((region, start, ctx.now()));
        }
        self.membership_changed(region, FlushScope::AllActive, ctx);
        self.push_routing(region, ctx);
        self.redirect_sensors(region, ctx);
        self.send_status(region, ctx);
        self.try_commit_round(region, ctx);
    }

    fn note_failure(&mut self, region: usize, slot: u32, ctx: &mut Ctx) {
        if !self.valid_slot(region, slot) {
            return;
        }
        let rt = self.rt_mut(region);
        if rt.stopped {
            return;
        }
        // Severed by a partition: silence is the weather, not death.
        // Post-heal pings re-detect any phone that really died.
        if rt.severed {
            return;
        }
        // While a recovery is reconfiguring the region (and shortly
        // after), nodes legitimately go quiet — don't let that look
        // like fresh failures.
        if rt.episode.recovering()
            || (rt.last_recovery_end != SimTime::ZERO
                && ctx.now().since(rt.last_recovery_end) < QUIET_GRACE)
        {
            return;
        }
        // Departures have their own flow (§III-E); dead/gone slots
        // are already being handled.
        if !rt.table.is_active(slot) {
            return;
        }
        // A departure replacement is loading the transferred state: it
        // answers nothing while installing, so peers legitimately
        // report it silent. No rollback for departures (§III-E) — but
        // only within the ack deadline: a transfer that never acks
        // means the replacement itself died, and must become
        // reportable again or its operators are lost for good.
        let stalled_transfer = rt
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
            let t = rt.departing_transfers.remove(&departing);
            rt.table.set_state(departing, SlotState::Gone);
            stalled_edges = t.map(|t| t.edges);
        }
        if let Some(&done_at) = rt.recent_installs.get(&slot) {
            if ctx.now().since(done_at) < QUIET_GRACE {
                return;
            }
        }
        rt.table.set_state(slot, SlotState::Dead);
        if rt.episode.note(slot, ctx.now()) {
            let me = ctx.self_id();
            ctx.send_in(GATHER_WINDOW, me, CtlTimer::RecoverNow { region });
        }
        if let Some(edges) = stalled_edges {
            self.release_urgent_edges(region, &edges, ctx);
        }
    }

    /// Tear down urgent (cellular) routing for the edges of one
    /// finished or stalled departure transfer, keeping any edge some
    /// other in-flight transfer still bridges.
    fn release_urgent_edges(&self, region: usize, edges: &[EdgeId], ctx: &mut Ctx) {
        let rt = self.rt(region);
        let still_needed: BTreeSet<EdgeId> = rt
            .departing_transfers
            .values()
            .flat_map(|t| t.edges.iter().copied())
            .chain(rt.degraded_urgent.values().flatten().copied())
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
        for s in rt.table.active_slots() {
            let dst = rt.table.actor(s);
            net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, msg.clone());
        }
    }

    fn stop_region(&mut self, region: usize, ctx: &mut Ctx) {
        self.rt_mut(region).stopped = true;
        self.stops += 1;
        // Bypass: the coordinator re-resolves every upstream region's
        // downstream wiring (upstreams may live in other groups).
        self.send_status(region, ctx);
    }

    /// The install that makes `slot` host what the region's table says
    /// it hosts, with the modeled load time of that many operators.
    fn install_for(&self, region: usize, slot: u32, states: InstallStates) -> Install {
        let table = &self.rt(region).table;
        let mut install = table.install_for(slot, states, READY_OVERHEAD);
        install.ready_in += READY_PER_OP * install.ops.len() as u64;
        install
    }

    /// Hand `slot`'s bulk install to the coordinator, which ships it
    /// (charged as operator code) over its fat cellular endpoint and
    /// reports the tagged completion back as an [`InstallOutcome`].
    fn ship_install(&self, ctx: &mut Ctx, region: usize, slot: u32, states: InstallStates) {
        let install = self.install_for(region, slot, states);
        ctx.send(
            self.coordinator,
            ShipInstall {
                region,
                slot,
                dst: self.rt(region).table.actor(slot),
                bytes: CODE_BYTES_PER_OP * install.ops.len().max(1) as u64,
                install,
            },
        );
    }

    /// Execute a recovery plan's sends: move the replaced slots'
    /// operators, publish the new wiring, ship the installs and roll
    /// the survivors back. The plan's acks end the episode.
    fn execute(&mut self, region: usize, plan: &RecoveryPlan, ctx: &mut Ctx) {
        let rt = self.rt_mut(region);
        // Slots whose operators are reassigned: end any degraded
        // cellular bridging they held.
        let mut released: Vec<EdgeId> = Vec::new();
        for (f, r) in plan.moved() {
            rt.table.reassign_slot(f, r);
            if let Some(edges) = rt.degraded_urgent.remove(&f) {
                released.extend(edges);
                // The replacement install hands this slot's ops
                // back to the WiFi path mid-round: stop expecting
                // the degraded phone's cellular snapshot, or the
                // round stalls an extra epoch. The completion
                // re-check runs when this recovery finishes.
                rt.ckpt_expected.remove(&f);
            }
        }
        // Tear down phones that are still computing remotely — a
        // departed phone stays reachable over cellular and must stop
        // once its operators moved, or the region processes every
        // tuple twice.
        let rt = self.rt(region);
        let msg = payload(rt.table.routing());
        for (f, _) in plan.moved() {
            let dst = rt.table.actor(f);
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
            self.release_urgent_edges(region, &released, ctx);
        }
        self.push_routing(region, ctx);
        self.membership_changed(region, FlushScope::Stakeholders, ctx);
        self.redirect_sensors(region, ctx);
        // Code + install to the replacements (cellular, brokered by
        // the coordinator); the survivors roll back to the MRC.
        for (slot, states) in &plan.installs {
            self.ship_install(ctx, region, *slot, states.clone());
        }
        let rt = self.rt(region);
        let msg = payload(RollbackTo {
            version: plan.version,
        });
        for &s in &plan.rollback {
            let dst = rt.table.actor(s);
            net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, msg.clone());
        }
        self.rt_mut(region).episode.await_acks(plan.acks.clone());
    }

    fn on_recover_now(&mut self, region: usize, ctx: &mut Ctx) {
        let now = ctx.now();
        let rt = self.rt_mut(region);
        let failed = rt.episode.gathered();
        // Severed: partition evidence arrived after the burst
        // gathered, and launching a recovery at an unreachable region
        // would only reassign operators nobody can be told about. The
        // heal resync re-detects any real deaths.
        if rt.stopped || rt.severed || failed.is_empty() {
            return;
        }
        // A burst re-queued by a rejoin has no detection time yet.
        if rt.episode.started() == SimTime::ZERO {
            rt.episode.begin_now(failed.len(), now);
        } else {
            rt.episode.begin(failed.len());
        }
        let version = rt.last_complete;
        match plan_recovery(&rt.table, &rt.graph, &failed, RecoveryKind::Mrc { version }) {
            // ROADMAP 12(a), kept on purpose: this arm also runs a
            // membership-only plan (a burst that hosts nothing), whose
            // survivors still roll back and owe acks. The baselines
            // abort the episode on such a plan; the fix is that arm.
            Ok(plan) => {
                self.execute(region, &plan, ctx);
                self.send_status(region, ctx);
                let me = ctx.self_id();
                ctx.send_in(ACK_DEADLINE, me, CtlTimer::AckDeadline { region });
            }
            // No healthy phone at all: stop and bypass the region until
            // phones re-register (reboot path).
            Err(Unrecoverable) => {
                rt.episode.abort();
                self.stop_region(region, ctx);
            }
        }
    }

    /// All acks in (or deadline): restart the region's dataflow.
    fn finish_recovery(&mut self, region: usize, ctx: &mut Ctx) {
        let rt = self.rt_mut(region);
        if !rt.episode.recovering() {
            return;
        }
        let record = rt.episode.finish(region, ctx.now());
        rt.last_recovery_end = ctx.now();
        let rt = self.rt(region);
        let epoch = rt.last_complete;
        for (s, _) in plan_replay(&rt.table, &rt.graph, Some(epoch), &BTreeSet::new()) {
            let (dst, replay) = (rt.table.actor(s), payload(ReplayInputs { epoch }));
            net_send(ctx, self.cell, dst, Control, wire::CONTROL, 0, replay);
        }
        self.recoveries.push(record);
        // Snapshot reports accepted while the recovery ran may have
        // completed the in-flight round — commit it now rather than
        // stalling it until the next report (which may never come).
        self.try_commit_round(region, ctx);
        // Serve a deferred reboot-rejoin, if any still applies.
        if let Some(ix) = self
            .pending_reinstalls
            .iter()
            .position(|&(r, s)| r == region && !self.rt(r).table.ops_on(s).is_empty())
        {
            let (r, slot) = self.pending_reinstalls.remove(ix);
            if self.rt(r).table.is_active(slot) {
                self.reinstall_slot(r, slot, ctx);
            }
        } else {
            self.pending_reinstalls.retain(|&(r, _)| r != region);
        }
    }

    fn on_recovered_ack(&mut self, m: RecoveredAck, ctx: &mut Ctx) {
        if !self.valid_slot(m.region, m.slot) {
            return;
        }
        let region = m.region;
        let rt = self.rt_mut(region);
        // Departure transfer ack?
        let departed = rt
            .departing_transfers
            .iter()
            .find(|(_, t)| t.replacement == m.slot)
            .map(|(&d, _)| d);
        let transfer = departed.and_then(|d| rt.departing_transfers.remove_entry(&d));
        if let Some((departed, transfer)) = transfer {
            rt.table.set_state(departed, SlotState::Gone);
            rt.recent_installs.insert(m.slot, ctx.now());
            self.departures_handled += 1;
            // Tear the departed phone down: it kept computing remotely
            // (urgent mode) until the hand-off completed; now that the
            // replacement owns its operators it must stop, or the
            // region would process every tuple twice.
            let table = &self.rt(region).table;
            let (dst, msg) = (table.actor(departed), payload(table.routing()));
            net_send(ctx, self.cell, dst, Control, wire::MEMBERSHIP, 0, msg);
            // Clear this transfer's urgent mode and publish the new
            // wiring.
            self.release_urgent_edges(region, &transfer.edges, ctx);
            self.push_routing(region, ctx);
            self.membership_changed(region, FlushScope::Stakeholders, ctx);
            self.redirect_sensors(region, ctx);
            self.send_status(region, ctx);
            return;
        }
        if rt.episode.ack(m.slot) {
            self.finish_recovery(region, ctx);
        }
    }

    fn on_departure(&mut self, m: DepartureNotice, ctx: &mut Ctx) {
        if !self.valid_slot(m.region, m.slot) {
            return;
        }
        let region = m.region;
        let slot = m.slot;
        let rt = self.rt_mut(region);
        if !rt.table.is_active(slot) {
            return;
        }
        rt.table.set_state(slot, SlotState::Departing);
        let departing = rt.table.actor(slot);
        let ops = rt.table.ops_on(slot);
        if ops.is_empty() {
            // Idle node: just unregister.
            rt.table.set_state(slot, SlotState::Gone);
            self.membership_changed(region, FlushScope::Stakeholders, ctx);
            return;
        }
        // Urgent mode: edges crossing the departed phone's WiFi link.
        let mut affected_edges = Vec::new();
        for &op in &ops {
            for &e in &rt.graph.op(op).in_edges {
                if rt.table.slot_of(rt.graph.edge(e).from) != slot {
                    affected_edges.push(e);
                }
            }
            for &e in &rt.graph.op(op).out_edges {
                if rt.table.slot_of(rt.graph.edge(e).to) != slot {
                    affected_edges.push(e);
                }
            }
        }
        // Pick the replacement (idle nodes only; no replacement =
        // degraded urgent mode until a phone rejoins).
        let replacement = rt.table.idle_active_slots().first().copied();
        if let Some(r) = replacement {
            rt.departing_transfers.insert(
                slot,
                DepartingTransfer {
                    replacement: r,
                    started: ctx.now(),
                    edges: affected_edges.clone(),
                },
            );
            rt.table.reassign_slot(slot, r);
        }
        // Tell everyone (including the departing node) to route the
        // affected edges over cellular for now — whether or not a
        // replacement exists: with none, the region runs degraded in
        // urgent mode and the departed phone keeps computing remotely.
        let table = &self.rt(region).table;
        let told = table.active_slots().into_iter().map(|s| table.actor(s));
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
            let rt = self.rt_mut(region);
            rt.degraded_urgent.insert(slot, affected_edges);
            if rt.table.active_slots().is_empty() {
                self.stop_region(region, ctx);
                return;
            }
            // The degraded phone can no longer broadcast snapshots on
            // WiFi; route them through an in-region proxy so the
            // region's checkpoint rounds stay satisfiable (§III).
            if let Some(proxy) = self.pick_proxy(region, slot) {
                let msg = payload(DegradedCheckpointVia { proxy });
                net_send(ctx, self.cell, departing, Control, wire::CONTROL, 0, msg);
            }
            // Drop the departed phone from everyone's broadcast
            // receiver set: it is off WiFi indefinitely, and leaving it
            // in `active_slots` would cost every region broadcast a
            // full straggler-bitmap timeout per phase for as long as
            // the degradation lasts.
            self.membership_changed(region, FlushScope::Stakeholders, ctx);
            return;
        };
        // Ask the departing phone to transfer its state to the
        // replacement over cellular (Fig 7, time instant 3).
        let msg = payload(TransferStateTo {
            replacement: table.actor(replacement),
            // States are filled in by the departing node.
            install: self.install_for(region, replacement, InstallStates::Fresh),
        });
        net_send(ctx, self.cell, departing, Control, wire::CONTROL, 0, msg);
    }

    fn on_register(&mut self, m: RegisterNode, ctx: &mut Ctx) {
        if !self.valid_slot(m.region, m.slot) {
            return;
        }
        let region = m.region;
        let rt = self.rt_mut(region);
        rt.table.set_state(m.slot, SlotState::Active);
        // The phone may have missed any number of membership
        // messages while dead or out of range: forget its epoch so
        // the pending flush sends it one full snapshot.
        rt.log.reset(m.slot);
        let owns_ops = !rt.table.ops_on(m.slot).is_empty();
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
        if let Some(edges) = rt.degraded_urgent.remove(&m.slot) {
            self.release_urgent_edges(region, &edges, ctx);
            self.rt_mut(region).ckpt_expected.remove(&m.slot);
            self.try_commit_round(region, ctx);
        }
        // A rebooted phone whose ops were never reassigned (it crashed
        // and came back before/without recovery) returns empty-handed:
        // reinstall its operators from its own flash copy and roll the
        // region back so the dataflow is consistent again.
        if owns_ops {
            let rt = self.rt(region);
            if !rt.stopped && !rt.episode.recovering() {
                self.reinstall_slot(region, m.slot, ctx);
            } else {
                // Defer until the in-flight recovery / restart settles.
                self.pending_reinstalls.push((region, m.slot));
            }
        }
        // Update WiFi membership: the phone is back in range. Relayed
        // through the coordinator (the WiFi medium lives on the
        // phone's region shard).
        let rt = self.rt(region);
        ctx.send(
            self.coordinator,
            RelayWifiLink {
                wifi: rt.wifi,
                node: rt.table.actor(m.slot),
                state: LinkState::Active,
            },
        );
        self.membership_changed(region, FlushScope::Stakeholders, ctx);
        let rt = self.rt_mut(region);
        if rt.stopped {
            // Restart a stopped region once enough phones are back.
            if rt.table.active_slots().len() as u32 >= rt.restart_min {
                self.restart_region(region, ctx);
            }
            return;
        }
        // If the region is degraded (ops stranded on dead slots
        // because no spare existed), retry recovery now that a phone is
        // back.
        if rt.episode.requeue(rt.table.stranded_slots()) && rt.episode.arm() {
            let me = ctx.self_id();
            ctx.send_in(GATHER_WINDOW, me, CtlTimer::RecoverNow { region });
        }
    }

    /// Reinstall a re-registered slot's own operators (reboot rejoin)
    /// and roll back the region to the MRC.
    fn reinstall_slot(&mut self, region: usize, slot: u32, ctx: &mut Ctx) {
        let rt = self.rt_mut(region);
        rt.episode.begin_now(1, ctx.now());
        let kind = RecoveryKind::Reboot {
            version: rt.last_complete,
            rollback: true,
        };
        if let Ok(plan) = plan_recovery(&rt.table, &rt.graph, &[slot], kind) {
            self.execute(region, &plan, ctx);
            let me = ctx.self_id();
            ctx.send_in(ACK_DEADLINE, me, CtlTimer::AckDeadline { region });
        }
    }

    fn restart_region(&mut self, region: usize, ctx: &mut Ctx) {
        let rt = self.rt_mut(region);
        // Re-place every op onto active slots, preferring current
        // assignment when that slot is active. No active slot: raced a
        // failure between the restart check and now — stay stopped
        // rather than panic.
        if !rt.table.respread() {
            return;
        }
        rt.stopped = false;
        let states = InstallStates::from_mrc(rt.last_complete);
        for s in rt.table.active_slots() {
            self.ship_install(ctx, region, s, states.clone());
        }
        self.membership_changed(region, FlushScope::AllActive, ctx);
        self.redirect_sensors(region, ctx);
        self.send_status(region, ctx);
    }

    /// Completion of an install the coordinator shipped for us.
    fn on_install_outcome(&mut self, o: InstallOutcome, ctx: &mut Ctx) {
        if !self.valid_slot(o.region, o.slot) {
            return;
        }
        match o.kind {
            InstallOutcomeKind::Delivered => {}
            // The install never reached its target: that phone is dead;
            // fold it into a fresh recovery round.
            InstallOutcomeKind::Failed => {
                // Active, so that `note_failure` takes the report.
                let table = &mut self.rt_mut(o.region).table;
                table.set_state(o.slot, SlotState::Active);
                self.note_failure(o.region, o.slot, ctx);
            }
            // The install aged out behind a partition: the whole region
            // is unreachable.
            InstallOutcomeKind::Severed => self.mark_severed(o.region, ctx),
        }
    }

    fn on_timer(&mut self, t: CtlTimer, ctx: &mut Ctx) {
        match t {
            CtlTimer::CheckpointTick { region } => self.on_ckpt_tick(region, ctx),
            CtlTimer::PingTick => self.on_ping_tick(ctx),
            CtlTimer::PingDeadline { round } => self.on_ping_deadline(round, ctx),
            CtlTimer::RecoverNow { region } => self.on_recover_now(region, ctx),
            CtlTimer::AckDeadline { region } => self.finish_recovery(region, ctx),
            CtlTimer::ProbeSevered { region, epoch } => self.on_probe_severed(region, epoch, ctx),
            CtlTimer::FlushDeltas { region } => self.on_flush(region, ctx),
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
                } else if let Some(m) = payload_as::<RecoveredAck>(&p) {
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
        format!("ms-regionctl-{}", self.group)
    }

    impl_actor_any!();
}
