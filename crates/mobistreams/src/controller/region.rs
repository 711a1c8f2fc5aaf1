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

use dsps::graph::{EdgeId, OpId};
use dsps::node::{Install, InstallStates, Pong, ReportDead, SetUrgentEdges, UpdateRouting};
use simkernel::{impl_actor_any, Actor, ActorId, Ctx, Event, EventBox, SimDuration, SimTime};
use simnet::cellular::{CellRx, CellSend};
use simnet::stats::TrafficClass;
use simnet::{payload, payload_as, LinkState, TxFailed};

use super::msgs::{
    CtlTimer, InstallOutcome, InstallOutcomeKind, RegionStatus, RelaySensorRedirect, RelayWifiLink,
    ShipInstall,
};
use super::reconcile::{MembershipLog, SuffixCache};
use super::{MsControllerConfig, RecoveryRecord, RegionSpec, Start, QUIET_GRACE};
use crate::msgs::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Active,
    Dead,
    Departing,
    Gone,
}

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
    spec: RegionSpec,
    /// Shared snapshot payload: built once, `Arc`ed into every
    /// membership snapshot instead of cloned per target.
    slot_actors: Arc<Vec<ActorId>>,
    op_slot: Vec<u32>,
    slot_state: Vec<SlotState>,
    version: u64,
    last_complete: u64,
    ckpt_expected: BTreeSet<u32>,
    ckpt_got: BTreeSet<u32>,
    pending_failures: BTreeSet<u32>,
    recover_scheduled: bool,
    recovering: bool,
    recovery_started: SimTime,
    recovery_failures: usize,
    outstanding_acks: BTreeSet<u32>,
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

impl RegionRt {
    fn active_slots(&self) -> Vec<u32> {
        (0..self.slot_state.len() as u32)
            .filter(|&s| self.slot_state[s as usize] == SlotState::Active)
            .collect()
    }

    fn hosting_slots(&self) -> BTreeSet<u32> {
        self.op_slot
            .iter()
            .copied()
            .filter(|&s| s != u32::MAX)
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

    fn source_slots(&self) -> BTreeSet<u32> {
        self.spec
            .graph
            .sources()
            .iter()
            .map(|&op| self.op_slot[op.index()])
            .filter(|&s| s != u32::MAX)
            .collect()
    }
}

/// The per-region-group controller actor.
pub struct RegionController {
    cfg: MsControllerConfig,
    cell: ActorId,
    coordinator: ActorId,
    group: usize,
    /// First global region index of the group (regions are contiguous).
    first_region: usize,
    regions: Vec<RegionRt>,
    ping_round: u64,
    ping_outstanding: BTreeMap<u64, BTreeSet<(usize, u32)>>,
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
        cfg: MsControllerConfig,
        cell: ActorId,
        coordinator: ActorId,
        group: usize,
        first_region: usize,
        specs: Vec<RegionSpec>,
    ) -> Self {
        let regions = specs
            .into_iter()
            .map(|spec| {
                let slots = spec.slot_actors.len();
                RegionRt {
                    slot_actors: Arc::new(spec.slot_actors.clone()),
                    op_slot: spec.placement.op_slot.clone(),
                    slot_state: vec![SlotState::Active; slots],
                    version: 0,
                    last_complete: 0,
                    ckpt_expected: BTreeSet::new(),
                    ckpt_got: BTreeSet::new(),
                    pending_failures: BTreeSet::new(),
                    recover_scheduled: false,
                    recovering: false,
                    recovery_started: SimTime::ZERO,
                    recovery_failures: 0,
                    outstanding_acks: BTreeSet::new(),
                    last_recovery_end: SimTime::ZERO,
                    stopped: false,
                    departing_transfers: BTreeMap::new(),
                    degraded_urgent: BTreeMap::new(),
                    recent_installs: BTreeMap::new(),
                    severed: false,
                    probe_epoch: 0,
                    probe_backoff: SimDuration::ZERO,
                    log: MembershipLog::new(slots),
                    pending_flush: None,
                    spec,
                }
            })
            .collect();
        RegionController {
            cfg,
            cell,
            coordinator,
            group,
            first_region,
            regions,
            ping_round: 0,
            ping_outstanding: BTreeMap::new(),
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
                .is_some_and(|rt| (slot as usize) < rt.slot_state.len());
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

    /// Record any slot-activity transitions into the region's
    /// membership log and make sure a flush is pending for this tick.
    /// Consecutive calls within one tick (e.g. a rejoin that also
    /// triggers a reinstall) coalesce into a single flush.
    fn membership_changed(&mut self, region: usize, scope: FlushScope, ctx: &mut Ctx) {
        let rt = self.rt_mut(region);
        for s in 0..rt.slot_state.len() {
            let active = rt.slot_state[s] == SlotState::Active;
            rt.log.record(s as u32, active);
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
        let (snapshots, snapshot, deltas) = {
            let rt = self.rt_mut(region);
            // Behind a partition every send would age out unobserved;
            // the heal resync resets observed epochs and re-flushes.
            if rt.severed {
                return;
            }
            let head = rt.log.head();
            let active = rt.active_slots();
            let targets: Vec<u32> = match scope {
                FlushScope::AllActive => active,
                FlushScope::Stakeholders => {
                    let hosting = rt.hosting_slots();
                    let proxy = active.first().copied();
                    active
                        .into_iter()
                        .filter(|&s| {
                            hosting.contains(&s) || Some(s) == proxy || rt.log.observed(s).is_none()
                        })
                        .collect()
                }
            };
            let mut snapshots: Vec<ActorId> = Vec::new();
            let mut deltas: Vec<(ActorId, MembershipDelta)> = Vec::new();
            let mut cache = SuffixCache::new();
            let mut active_arc: Option<Arc<Vec<u32>>> = None;
            for slot in targets {
                let dst = rt.slot_actors[slot as usize];
                match rt.log.observed(slot) {
                    None => {
                        snapshots.push(dst);
                        rt.log.note_synced(slot, head);
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
                        rt.log.note_synced(slot, head);
                    }
                    Some(_) => {}
                }
            }
            let snapshot = if snapshots.is_empty() {
                None
            } else {
                let active = active_arc
                    .get_or_insert_with(|| Arc::new(rt.active_slots()))
                    .clone();
                Some(MembershipUpdate {
                    slot_actors: Arc::clone(&rt.slot_actors),
                    active_slots: active,
                    epoch: head,
                })
            };
            (snapshots, snapshot, deltas)
        };
        if let Some(update) = snapshot {
            for dst in snapshots {
                self.membership_msgs += 1;
                self.membership_bytes += wire::MEMBERSHIP;
                self.send_ctl(ctx, dst, wire::MEMBERSHIP, update.clone());
            }
        }
        for (dst, delta) in deltas {
            let bytes = wire::DELTA_BASE + wire::DELTA_PER_CHANGE * delta.changes.len() as u64;
            self.membership_msgs += 1;
            self.membership_bytes += bytes;
            self.send_ctl(ctx, dst, bytes, delta);
        }
    }

    fn on_reconcile_tick(&mut self, ctx: &mut Ctx) {
        let me = ctx.self_id();
        ctx.send_in(self.cfg.reconcile_period, me, CtlTimer::ReconcileTick);
        for region in self.region_indices() {
            self.send_deltas(region, FlushScope::AllActive, ctx);
        }
    }

    /// Re-pair sensors with the phones now hosting the source ops
    /// (zero-cost events: the camera physically pairs with the
    /// adjacent phone). Relayed through the coordinator: the sensors
    /// live on their region's shard, which within a group may differ
    /// from this controller's.
    fn redirect_sensors(&mut self, region: usize, ctx: &mut Ctx) {
        let rt = self.rt(region);
        if rt.spec.sensors.is_empty() {
            return;
        }
        let mut redirects = Vec::new();
        for &op in &rt.spec.graph.sources() {
            let slot = rt.op_slot[op.index()];
            if slot != u32::MAX {
                redirects.push(dsps::workload::SensorRedirect {
                    op,
                    actor: rt.spec.slot_actors[slot as usize],
                });
            }
        }
        let coordinator = self.coordinator;
        for &sensor in &self.rt(region).spec.sensors.clone() {
            for &redirect in &redirects {
                ctx.send(coordinator, RelaySensorRedirect { sensor, redirect });
            }
        }
    }

    /// Push the region's routing tables to the phones that forward
    /// data: hosting phones plus degraded departed phones still
    /// computing over cellular. (Idle phones receive their tables with
    /// the `Install` if they ever become replacements.)
    fn push_routing(&mut self, region: usize, ctx: &mut Ctx) {
        let (update, targets) = {
            let rt = self.rt(region);
            let hosting = rt.hosting_slots();
            let mut slots: BTreeSet<u32> = rt
                .active_slots()
                .into_iter()
                .filter(|s| hosting.contains(s))
                .collect();
            slots.extend(rt.degraded_urgent.keys().copied());
            (
                UpdateRouting {
                    op_slot: Some(rt.op_slot.clone()),
                    slot_actors: Some(rt.spec.slot_actors.clone()),
                },
                slots
                    .into_iter()
                    .map(|s| rt.spec.slot_actors[s as usize])
                    .collect::<Vec<_>>(),
            )
        };
        for dst in targets {
            self.send_ctl(ctx, dst, wire::MEMBERSHIP, update.clone());
        }
    }

    /// Report this region's placement / stop state to the coordinator,
    /// which bumps the placement epoch and re-resolves inter-region
    /// wiring for the region and its upstreams.
    fn send_status(&mut self, region: usize, ctx: &mut Ctx) {
        let rt = self.rt(region);
        let status = RegionStatus {
            region,
            op_slot: Arc::new(rt.op_slot.clone()),
            stopped: rt.stopped,
        };
        let coordinator = self.coordinator;
        ctx.send(coordinator, status);
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        for region in self.region_indices() {
            self.membership_changed(region, FlushScope::AllActive, ctx);
            if self.cfg.checkpoints_enabled {
                let me = ctx.self_id();
                ctx.send_in(
                    self.cfg.ckpt_offset,
                    me,
                    CtlTimer::CheckpointTick { region },
                );
            }
        }
        let me = ctx.self_id();
        ctx.send_in(self.cfg.ping_period, me, CtlTimer::PingTick);
        ctx.send_in(self.cfg.reconcile_period, me, CtlTimer::ReconcileTick);
    }

    /// The in-region phone that relays a degraded slot's cellular
    /// snapshots onto WiFi: any active phone (lowest slot for
    /// determinism).
    fn pick_proxy(&self, region: usize, degraded: u32) -> Option<ActorId> {
        let rt = self.rt(region);
        rt.active_slots()
            .into_iter()
            .find(|&s| s != degraded)
            .map(|s| rt.spec.slot_actors[s as usize])
    }

    fn on_ckpt_tick(&mut self, region: usize, ctx: &mut Ctx) {
        let me = ctx.self_id();
        ctx.send_in(
            self.cfg.ckpt_period,
            me,
            CtlTimer::CheckpointTick { region },
        );
        {
            let rt = self.rt_mut(region);
            if rt.stopped || rt.recovering {
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
            rt.ckpt_expected = rt.hosting_slots();
            rt.ckpt_got = BTreeSet::new();
        }
        let (version, targets, degraded) = {
            let rt = self.rt(region);
            // Degraded slots (departed, no replacement) keep computing
            // over cellular and stay in `ckpt_expected` — a degraded
            // *source* must still receive the round trigger, which
            // reaches it over its live cellular link.
            let targets: Vec<ActorId> = rt
                .source_slots()
                .into_iter()
                .filter(|&s| {
                    rt.slot_state[s as usize] == SlotState::Active
                        || rt.degraded_urgent.contains_key(&s)
                })
                .map(|s| rt.spec.slot_actors[s as usize])
                .collect();
            let degraded: Vec<u32> = rt.degraded_urgent.keys().copied().collect();
            (rt.version, targets, degraded)
        };
        // Refresh each degraded slot's snapshot proxy once per round so
        // proxy churn (the relay failing or departing) self-heals.
        // Sent BEFORE StartCheckpoint: both ride the same FIFO cellular
        // path, and a degraded mixed source+compute node snapshots the
        // moment the trigger arrives — with the old ordering it would
        // ship this round's snapshot to the previous round's (possibly
        // departed) proxy and lose the round.
        for slot in degraded {
            if let Some(proxy) = self.pick_proxy(region, slot) {
                let dst = self.rt(region).spec.slot_actors[slot as usize];
                self.send_ctl(ctx, dst, wire::CONTROL, DegradedCheckpointVia { proxy });
            }
        }
        for dst in targets {
            self.send_ctl(ctx, dst, wire::CONTROL, StartCheckpoint { version });
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
        if rt.recovering || rt.stopped {
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
        let targets: Vec<ActorId> = {
            let rt = self.rt(region);
            // Degraded slots are not "active" but participate in every
            // round over cellular — without the commit notice their
            // stores never GC and grow by a full state copy plus an
            // epoch's preserved inputs per tick, unbounded for the
            // life of the degradation.
            rt.active_slots()
                .into_iter()
                .chain(rt.degraded_urgent.keys().copied())
                .map(|s| rt.spec.slot_actors[s as usize])
                .collect()
        };
        for dst in targets {
            self.send_ctl(ctx, dst, wire::CONTROL, CheckpointComplete { version });
        }
    }

    fn on_ping_tick(&mut self, ctx: &mut Ctx) {
        let me = ctx.self_id();
        ctx.send_in(self.cfg.ping_period, me, CtlTimer::PingTick);
        self.ping_round += 1;
        let round = self.ping_round;
        let mut outstanding = BTreeSet::new();
        let mut targets = Vec::new();
        for (i, rt) in self.regions.iter().enumerate() {
            let r = self.first_region + i;
            // Severed regions are unreachable, not dead: pinging them
            // would only arm deadlines that misread weather as failure.
            // The probe loop owns contact until the heal.
            if rt.stopped || rt.severed {
                continue;
            }
            for s in rt.source_slots() {
                if rt.slot_state[s as usize] == SlotState::Active {
                    outstanding.insert((r, s));
                    targets.push((r, rt.spec.slot_actors[s as usize]));
                }
            }
        }
        if outstanding.is_empty() {
            return;
        }
        self.ping_outstanding.insert(round, outstanding);
        for (r, dst) in targets {
            // Tagged so a partition answers with `TxSevered` evidence
            // before the ping deadline can misfire.
            self.send_ping_tagged(ctx, dst, r, round);
        }
        let me = ctx.self_id();
        ctx.send_in(self.cfg.ping_timeout, me, CtlTimer::PingDeadline { round });
    }

    fn on_ping_deadline(&mut self, round: u64, ctx: &mut Ctx) {
        let Some(unanswered) = self.ping_outstanding.remove(&round) else {
            return;
        };
        for (region, slot) in unanswered {
            self.note_failure(region, slot, ctx);
        }
    }

    /// Send a liveness/heal probe whose completion is tracked: `TxDone`
    /// clears the tag, `TxSevered` is partition evidence for `region`.
    fn send_ping_tagged(&mut self, ctx: &mut Ctx, dst: ActorId, region: usize, nonce: u64) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.ping_tags.insert(tag, region);
        let src = ctx.self_id();
        let cell = self.cell;
        ctx.send(
            cell,
            CellSend {
                src,
                dst,
                class: TrafficClass::Control,
                bytes: wire::PING,
                tag,
                payload: Some(payload(dsps::node::Ping { nonce })),
            },
        );
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
        let base = self.cfg.severed_probe_base;
        let rt = self.rt_mut(region);
        if rt.stopped || rt.severed {
            return;
        }
        rt.severed = true;
        // Amnesty for failures noted in the evidence gap just before
        // the partition was recognized: their silence was the weather.
        // Anything genuinely dead is re-detected by post-heal pings.
        for s in std::mem::take(&mut rt.pending_failures) {
            if rt.slot_state[s as usize] == SlotState::Dead {
                rt.slot_state[s as usize] = SlotState::Active;
            }
        }
        rt.probe_epoch += 1;
        rt.probe_backoff = base;
        let epoch = rt.probe_epoch;
        self.severed_open.entry(region).or_insert_with(|| ctx.now());
        let me = ctx.self_id();
        ctx.send_in(base, me, CtlTimer::ProbeSevered { region, epoch });
    }

    /// Probe a severed region: one tagged ping at the current backoff.
    /// Severed again → the next probe waits twice as long (capped).
    fn on_probe_severed(&mut self, region: usize, epoch: u64, ctx: &mut Ctx) {
        let cap = self.cfg.severed_probe_cap;
        let (target, next) = {
            let rt = self.rt_mut(region);
            if !rt.severed || rt.probe_epoch != epoch {
                return;
            }
            rt.probe_backoff = rt.probe_backoff.saturating_mul(2).min(cap);
            let target = rt
                .active_slots()
                .first()
                .map(|&s| rt.spec.slot_actors[s as usize]);
            (target, rt.probe_backoff)
        };
        if let Some(dst) = target {
            self.send_ping_tagged(ctx, dst, region, 0);
        }
        let me = ctx.self_id();
        ctx.send_in(next, me, CtlTimer::ProbeSevered { region, epoch });
    }

    /// Any message from a severed region is proof the partition healed.
    fn note_region_contact(&mut self, region: usize, ctx: &mut Ctx) {
        let in_group =
            region >= self.first_region && region < self.first_region + self.regions.len();
        if in_group && self.rt(region).severed {
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
        {
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
        }
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
        let gather_window = self.cfg.gather_window;
        let transfer_stall = self.cfg.transfer_stall_deadline;
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
        if rt.recovering
            || (rt.last_recovery_end != SimTime::ZERO
                && ctx.now().since(rt.last_recovery_end) < QUIET_GRACE)
        {
            return;
        }
        match rt.slot_state[slot as usize] {
            SlotState::Active => {}
            // Departures have their own flow (§III-E); dead/gone slots
            // are already being handled.
            SlotState::Departing | SlotState::Dead | SlotState::Gone => return,
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
            if ctx.now().since(started) < transfer_stall {
                return;
            }
            // Stalled: drop the transfer so the recovery below can
            // restore the moved operators from the MRC. The departing
            // phone left long ago — it is gone, not failed. Its
            // urgent (cellular) bridging only existed for the
            // transfer, so it is released too (the recovery rebuilds
            // the WiFi routing anyway).
            let t = rt.departing_transfers.remove(&departing);
            rt.slot_state[departing as usize] = SlotState::Gone;
            stalled_edges = t.map(|t| t.edges);
        }
        if let Some(&done_at) = rt.recent_installs.get(&slot) {
            if ctx.now().since(done_at) < QUIET_GRACE {
                return;
            }
        }
        rt.slot_state[slot as usize] = SlotState::Dead;
        rt.pending_failures.insert(slot);
        if !rt.recover_scheduled {
            rt.recover_scheduled = true;
            if rt.pending_failures.len() == 1 {
                rt.recovery_started = ctx.now();
            }
            let me = ctx.self_id();
            ctx.send_in(gather_window, me, CtlTimer::RecoverNow { region });
        }
        if let Some(edges) = stalled_edges {
            self.release_urgent_edges(region, &edges, ctx);
        }
    }

    /// Tear down urgent (cellular) routing for the edges of one
    /// finished or stalled departure transfer, keeping any edge some
    /// other in-flight transfer still bridges.
    fn release_urgent_edges(&mut self, region: usize, edges: &[EdgeId], ctx: &mut Ctx) {
        let (off, targets) = {
            let rt = self.rt_mut(region);
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
            let targets: Vec<ActorId> = rt
                .active_slots()
                .into_iter()
                .map(|s| rt.spec.slot_actors[s as usize])
                .collect();
            (off, targets)
        };
        for dst in targets {
            self.send_ctl(
                ctx,
                dst,
                wire::CONTROL,
                SetUrgentEdges {
                    edges: off.clone(),
                    on: false,
                },
            );
        }
    }

    fn stop_region(&mut self, region: usize, ctx: &mut Ctx) {
        self.rt_mut(region).stopped = true;
        self.stops += 1;
        // Bypass: the coordinator re-resolves every upstream region's
        // downstream wiring (upstreams may live in other groups).
        self.send_status(region, ctx);
    }

    /// Hand a bulk install to the coordinator, which ships it over its
    /// fat cellular endpoint and reports the tagged completion back as
    /// an [`InstallOutcome`].
    fn ship_install(
        &mut self,
        ctx: &mut Ctx,
        region: usize,
        slot: u32,
        dst: ActorId,
        bytes: u64,
        install: Install,
    ) {
        let coordinator = self.coordinator;
        ctx.send(
            coordinator,
            ShipInstall {
                region,
                slot,
                dst,
                bytes,
                install,
            },
        );
    }

    fn on_recover_now(&mut self, region: usize, ctx: &mut Ctx) {
        let now = ctx.now();
        let (failed, version, hosting_failed) = {
            let rt = self.rt_mut(region);
            rt.recover_scheduled = false;
            if rt.stopped {
                rt.pending_failures.clear();
                return;
            }
            // Partition evidence arrived after the burst gathered:
            // launching a recovery at an unreachable region would only
            // reassign operators nobody can be told about. The heal
            // resync re-detects any real deaths.
            if rt.severed {
                rt.pending_failures.clear();
                return;
            }
            let failed: Vec<u32> = std::mem::take(&mut rt.pending_failures)
                .into_iter()
                .collect();
            if failed.is_empty() {
                return;
            }
            rt.recovering = true;
            rt.recovery_failures = failed.len();
            if rt.recovery_started == SimTime::ZERO {
                rt.recovery_started = now;
            }
            let hosting_failed: Vec<u32> = failed
                .iter()
                .copied()
                .filter(|&s| !rt.ops_on(s).is_empty())
                .collect();
            (failed, rt.last_complete, hosting_failed)
        };
        let _ = failed;

        // Pick replacements for every failed hosting slot: idle nodes
        // preferred ("the controller can select any healthy node in the
        // region (idle nodes are preferred)"), then spread over healthy
        // hosting nodes round-robin — every node holds the MRC copy, so
        // any of them can restore any operator.
        let mut replacements: Vec<(u32, u32)> = Vec::new(); // (failed, replacement)
        {
            let rt = self.rt(region);
            let mut idle = rt.idle_active_slots();
            let survivors: Vec<u32> = rt
                .active_slots()
                .into_iter()
                .filter(|s| !idle.contains(s))
                .collect();
            let mut rr = 0usize;
            for &f in &hosting_failed {
                if let Some(r) = idle.pop() {
                    replacements.push((f, r));
                } else if !survivors.is_empty() {
                    replacements.push((f, survivors[rr % survivors.len()]));
                    rr += 1;
                } else {
                    break;
                }
            }
        }
        if replacements.len() < hosting_failed.len() {
            // No healthy phone at all: stop and bypass the region until
            // phones re-register (reboot path).
            self.rt_mut(region).recovering = false;
            self.stop_region(region, ctx);
            return;
        }
        // Apply the new assignment.
        {
            let rt = self.rt_mut(region);
            for &(f, r) in &replacements {
                for s in rt.op_slot.iter_mut() {
                    if *s == f {
                        *s = r;
                    }
                }
            }
        }

        // Ship code + install to replacements (cellular, brokered by
        // the coordinator), and roll back survivors to the MRC.
        let (installs, rollbacks, expected_acks) = {
            let rt = self.rt(region);
            let states = if version > 0 {
                InstallStates::FromLocalStore { version }
            } else {
                InstallStates::Fresh
            };
            let installs: Vec<(ActorId, Install, usize, u32)> = replacements
                .iter()
                .map(|&(_, r)| {
                    let ops = rt.ops_on(r);
                    let n = ops.len();
                    (
                        rt.spec.slot_actors[r as usize],
                        Install {
                            ops,
                            states: states.clone(),
                            op_slot: rt.op_slot.clone(),
                            slot_actors: rt.spec.slot_actors.clone(),
                            ready_in: self.cfg.ready_overhead + self.cfg.ready_per_op * (n as u64),
                        },
                        n,
                        r,
                    )
                })
                .collect();
            let survivors: Vec<u32> = rt
                .hosting_slots()
                .into_iter()
                .filter(|s| !replacements.iter().any(|&(_, r)| r == *s))
                .filter(|&s| rt.slot_state[s as usize] == SlotState::Active)
                .collect();
            let rollbacks: Vec<ActorId> = survivors
                .iter()
                .map(|&s| rt.spec.slot_actors[s as usize])
                .collect();
            let mut acks: BTreeSet<u32> = survivors.into_iter().collect();
            acks.extend(replacements.iter().map(|&(_, r)| r));
            (installs, rollbacks, acks)
        };

        // Slots whose operators were just reassigned: end any degraded
        // cellular bridging they held, and tear down phones that are
        // still computing remotely — a departed phone stays reachable
        // over cellular and must stop once its operators moved, or the
        // region processes every tuple twice.
        let (released, teardowns) = {
            let rt = self.rt_mut(region);
            let mut released: Vec<EdgeId> = Vec::new();
            let mut teardowns = Vec::new();
            for &(f, _) in &replacements {
                if let Some(edges) = rt.degraded_urgent.remove(&f) {
                    released.extend(edges);
                    // The replacement install hands this slot's ops
                    // back to the WiFi path mid-round: stop expecting
                    // the degraded phone's cellular snapshot, or the
                    // round stalls an extra epoch. The completion
                    // re-check runs when this recovery finishes.
                    rt.ckpt_expected.remove(&f);
                }
                teardowns.push(rt.spec.slot_actors[f as usize]);
            }
            (released, teardowns)
        };
        let routing = {
            let rt = self.rt(region);
            UpdateRouting {
                op_slot: Some(rt.op_slot.clone()),
                slot_actors: Some(rt.spec.slot_actors.clone()),
            }
        };
        for dst in teardowns {
            self.send_ctl(ctx, dst, wire::MEMBERSHIP, routing.clone());
        }
        if !released.is_empty() {
            self.release_urgent_edges(region, &released, ctx);
        }

        self.push_routing(region, ctx);
        self.membership_changed(region, FlushScope::Stakeholders, ctx);
        self.redirect_sensors(region, ctx);
        for (dst, install, n_ops, slot) in installs {
            let bytes = self.cfg.code_bytes_per_op * n_ops as u64;
            self.ship_install(ctx, region, slot, dst, bytes, install);
        }
        for dst in rollbacks {
            self.send_ctl(ctx, dst, wire::CONTROL, RollbackTo { version });
        }
        self.rt_mut(region).outstanding_acks = expected_acks;
        self.send_status(region, ctx);
        let me = ctx.self_id();
        ctx.send_in(self.cfg.ack_deadline, me, CtlTimer::AckDeadline { region });
    }

    /// All acks in (or deadline): restart the region's dataflow.
    fn finish_recovery(&mut self, region: usize, ctx: &mut Ctx) {
        let (version, sources, started, failures) = {
            let rt = self.rt_mut(region);
            if !rt.recovering {
                return;
            }
            rt.recovering = false;
            rt.outstanding_acks.clear();
            let version = rt.last_complete;
            let sources: Vec<ActorId> = rt
                .source_slots()
                .into_iter()
                .filter(|&s| rt.slot_state[s as usize] == SlotState::Active)
                .map(|s| rt.spec.slot_actors[s as usize])
                .collect();
            let started = rt.recovery_started;
            rt.recovery_started = SimTime::ZERO;
            (version, sources, started, rt.recovery_failures)
        };
        if version > 0 {
            for dst in sources {
                self.send_ctl(ctx, dst, wire::CONTROL, ReplayInputs { epoch: version });
            }
        }
        self.rt_mut(region).last_recovery_end = ctx.now();
        self.recoveries.push(RecoveryRecord {
            region,
            failures,
            started,
            finished: ctx.now(),
        });
        // Snapshot reports accepted while the recovery ran may have
        // completed the in-flight round — commit it now rather than
        // stalling it until the next report (which may never come).
        self.try_commit_round(region, ctx);
        // Serve a deferred reboot-rejoin, if any still applies.
        if let Some(ix) = self
            .pending_reinstalls
            .iter()
            .position(|&(r, s)| r == region && !self.rt(r).ops_on(s).is_empty())
        {
            let (r, slot) = self.pending_reinstalls.remove(ix);
            if self.rt(r).slot_state[slot as usize] == SlotState::Active {
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
        // Departure transfer ack?
        let done_departure = {
            let rt = self.rt_mut(region);
            let departing: Option<u32> = rt
                .departing_transfers
                .iter()
                .find(|(_, t)| t.replacement == m.slot)
                .map(|(&d, _)| d);
            if let Some(d) = departing {
                let t = rt.departing_transfers.remove(&d);
                rt.slot_state[d as usize] = SlotState::Gone;
                rt.recent_installs.insert(m.slot, ctx.now());
                t.map(|t| (d, t.edges))
            } else {
                None
            }
        };
        if let Some((departed, edges)) = done_departure {
            self.departures_handled += 1;
            // Tear the departed phone down: it kept computing remotely
            // (urgent mode) until the hand-off completed; now that the
            // replacement owns its operators it must stop, or the
            // region would process every tuple twice.
            let (departed_actor, op_slot, slot_actors) = {
                let rt = self.rt(region);
                (
                    rt.spec.slot_actors[departed as usize],
                    rt.op_slot.clone(),
                    rt.spec.slot_actors.clone(),
                )
            };
            self.send_ctl(
                ctx,
                departed_actor,
                wire::MEMBERSHIP,
                UpdateRouting {
                    op_slot: Some(op_slot),
                    slot_actors: Some(slot_actors),
                },
            );
            // Clear this transfer's urgent mode and publish the new
            // wiring.
            self.release_urgent_edges(region, &edges, ctx);
            self.push_routing(region, ctx);
            self.membership_changed(region, FlushScope::Stakeholders, ctx);
            self.redirect_sensors(region, ctx);
            self.send_status(region, ctx);
            return;
        }
        let rt = self.rt_mut(region);
        rt.outstanding_acks.remove(&m.slot);
        if rt.recovering && rt.outstanding_acks.is_empty() {
            self.finish_recovery(region, ctx);
        }
    }

    fn on_departure(&mut self, m: DepartureNotice, ctx: &mut Ctx) {
        if !self.valid_slot(m.region, m.slot) {
            return;
        }
        let region = m.region;
        let slot = m.slot;
        let graph;
        let replacement: Option<u32>;
        let departing_actor;
        let affected_edges: Vec<EdgeId>;
        {
            let rt = self.rt_mut(region);
            if rt.slot_state[slot as usize] != SlotState::Active {
                return;
            }
            rt.slot_state[slot as usize] = SlotState::Departing;
            graph = Arc::clone(&rt.spec.graph);
            departing_actor = rt.spec.slot_actors[slot as usize];
            let ops = rt.ops_on(slot);
            if ops.is_empty() {
                // Idle node: just unregister.
                rt.slot_state[slot as usize] = SlotState::Gone;
                self.membership_changed(region, FlushScope::Stakeholders, ctx);
                return;
            }
            // Urgent mode: edges crossing the departed phone's WiFi link.
            let mut edges = Vec::new();
            for &op in &ops {
                for &e in &graph.op(op).in_edges {
                    let from = graph.edge(e).from;
                    if rt.op_slot[from.index()] != slot {
                        edges.push(e);
                    }
                }
                for &e in &graph.op(op).out_edges {
                    let to = graph.edge(e).to;
                    if rt.op_slot[to.index()] != slot {
                        edges.push(e);
                    }
                }
            }
            affected_edges = edges;
            // Pick the replacement (idle nodes only; no replacement =
            // degraded urgent mode until a phone rejoins).
            replacement = rt.idle_active_slots().first().copied();
            if let Some(r) = replacement {
                rt.departing_transfers.insert(
                    slot,
                    DepartingTransfer {
                        replacement: r,
                        started: ctx.now(),
                        edges: affected_edges.clone(),
                    },
                );
                for s in rt.op_slot.iter_mut() {
                    if *s == slot {
                        *s = r;
                    }
                }
            }
        }
        // Tell everyone (including the departing node) to route the
        // affected edges over cellular for now — whether or not a
        // replacement exists: with none, the region runs degraded in
        // urgent mode and the departed phone keeps computing remotely.
        let targets: Vec<ActorId> = {
            let rt = self.rt(region);
            let mut t: Vec<ActorId> = rt
                .active_slots()
                .into_iter()
                .map(|s| rt.spec.slot_actors[s as usize])
                .collect();
            t.push(departing_actor);
            t
        };
        for dst in targets {
            self.send_ctl(
                ctx,
                dst,
                wire::CONTROL,
                SetUrgentEdges {
                    edges: affected_edges.clone(),
                    on: true,
                },
            );
        }
        let Some(replacement) = replacement else {
            // No replacement available: if the region dropped below its
            // minimum it stops (bypass); otherwise it limps along over
            // cellular until a reboot/rejoin provides a phone. The
            // urgent edges must outlive other transfers' releases for
            // as long as the degraded phone computes remotely.
            let rt = self.rt_mut(region);
            rt.degraded_urgent.insert(slot, affected_edges.clone());
            if (rt.active_slots().len() as u32) < rt.spec.min_active {
                self.stop_region(region, ctx);
                return;
            }
            // The degraded phone can no longer broadcast snapshots on
            // WiFi; route them through an in-region proxy so the
            // region's checkpoint rounds stay satisfiable (§III).
            if let Some(proxy) = self.pick_proxy(region, slot) {
                self.send_ctl(
                    ctx,
                    departing_actor,
                    wire::CONTROL,
                    DegradedCheckpointVia { proxy },
                );
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
        let (install, repl_actor) = {
            let rt = self.rt(region);
            let ops = rt.ops_on(replacement);
            let n = ops.len() as u64;
            (
                Install {
                    ops,
                    states: InstallStates::Fresh, // filled by the departing node
                    op_slot: rt.op_slot.clone(),
                    slot_actors: rt.spec.slot_actors.clone(),
                    ready_in: self.cfg.ready_overhead + self.cfg.ready_per_op * n,
                },
                rt.spec.slot_actors[replacement as usize],
            )
        };
        self.send_ctl(
            ctx,
            departing_actor,
            wire::CONTROL,
            TransferStateTo {
                replacement: repl_actor,
                install,
            },
        );
    }

    fn on_register(&mut self, m: RegisterNode, ctx: &mut Ctx) {
        if !self.valid_slot(m.region, m.slot) {
            return;
        }
        let region = m.region;
        let (owns_ops, degraded_edges) = {
            let rt = self.rt_mut(region);
            rt.slot_state[m.slot as usize] = SlotState::Active;
            // The phone may have missed any number of membership
            // messages while dead or out of range: forget its epoch so
            // the pending flush sends it one full snapshot.
            rt.log.reset(m.slot);
            (
                !rt.ops_on(m.slot).is_empty(),
                rt.degraded_urgent.remove(&m.slot),
            )
        };
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
        if let Some(edges) = degraded_edges {
            self.release_urgent_edges(region, &edges, ctx);
            self.rt_mut(region).ckpt_expected.remove(&m.slot);
            self.try_commit_round(region, ctx);
        }
        // A rebooted phone whose ops were never reassigned (it crashed
        // and came back before/without recovery) returns empty-handed:
        // reinstall its operators from its own flash copy and roll the
        // region back so the dataflow is consistent again.
        if owns_ops {
            if !self.rt(region).stopped && !self.rt(region).recovering {
                self.reinstall_slot(region, m.slot, ctx);
            } else {
                // Defer until the in-flight recovery / restart settles.
                self.pending_reinstalls.push((region, m.slot));
            }
        }
        // Update WiFi membership: the phone is back in range. Relayed
        // through the coordinator (the WiFi medium lives on the
        // phone's region shard).
        let (wifi, actor) = {
            let rt = self.rt(region);
            (rt.spec.wifi, rt.spec.slot_actors[m.slot as usize])
        };
        let coordinator = self.coordinator;
        ctx.send(
            coordinator,
            RelayWifiLink {
                wifi,
                node: actor,
                state: LinkState::Active,
            },
        );
        self.membership_changed(region, FlushScope::Stakeholders, ctx);
        // Restart a stopped region once enough phones are back.
        let can_restart = {
            let rt = self.rt(region);
            rt.stopped && (rt.active_slots().len() as u32) >= rt.spec.restart_min
        };
        if can_restart {
            self.restart_region(region, ctx);
        } else if !self.rt(region).stopped {
            // If the region is degraded (ops stuck on dead slots because
            // no spare existed), retry recovery now that a phone is back.
            let needs = {
                let rt = self.rt(region);
                rt.hosting_slots()
                    .into_iter()
                    .any(|s| rt.slot_state[s as usize] != SlotState::Active)
            };
            if needs {
                let stuck: Vec<u32> = {
                    let rt = self.rt(region);
                    rt.hosting_slots()
                        .into_iter()
                        .filter(|&s| rt.slot_state[s as usize] != SlotState::Active)
                        .collect()
                };
                for s in stuck {
                    self.rt_mut(region).pending_failures.insert(s);
                }
                let gather_window = self.cfg.gather_window;
                let rt = self.rt_mut(region);
                if !rt.recover_scheduled {
                    rt.recover_scheduled = true;
                    let me = ctx.self_id();
                    ctx.send_in(gather_window, me, CtlTimer::RecoverNow { region });
                }
            }
        }
    }

    /// Reinstall a re-registered slot's own operators (reboot rejoin)
    /// and roll back the region to the MRC.
    fn reinstall_slot(&mut self, region: usize, slot: u32, ctx: &mut Ctx) {
        let ready_overhead = self.cfg.ready_overhead;
        let ready_per_op = self.cfg.ready_per_op;
        let (install, dst, n_ops, version, rollbacks, acks) = {
            let rt = self.rt_mut(region);
            rt.recovering = true;
            rt.recovery_started = ctx.now();
            rt.recovery_failures = 1;
            let ops = rt.ops_on(slot);
            let n = ops.len();
            let version = rt.last_complete;
            let states = if version > 0 {
                InstallStates::FromLocalStore { version }
            } else {
                InstallStates::Fresh
            };
            let install = Install {
                ops,
                states,
                op_slot: rt.op_slot.clone(),
                slot_actors: rt.spec.slot_actors.clone(),
                ready_in: ready_overhead + ready_per_op * (n as u64),
            };
            let survivors: Vec<u32> = rt
                .hosting_slots()
                .into_iter()
                .filter(|&s| s != slot && rt.slot_state[s as usize] == SlotState::Active)
                .collect();
            let rollbacks: Vec<ActorId> = survivors
                .iter()
                .map(|&s| rt.spec.slot_actors[s as usize])
                .collect();
            let mut acks: BTreeSet<u32> = survivors.into_iter().collect();
            acks.insert(slot);
            (
                install,
                rt.spec.slot_actors[slot as usize],
                n,
                version,
                rollbacks,
                acks,
            )
        };
        self.push_routing(region, ctx);
        self.membership_changed(region, FlushScope::Stakeholders, ctx);
        self.redirect_sensors(region, ctx);
        let bytes = self.cfg.code_bytes_per_op * n_ops.max(1) as u64;
        self.ship_install(ctx, region, slot, dst, bytes, install);
        for d in rollbacks {
            self.send_ctl(ctx, d, wire::CONTROL, RollbackTo { version });
        }
        self.rt_mut(region).outstanding_acks = acks;
        let me = ctx.self_id();
        ctx.send_in(self.cfg.ack_deadline, me, CtlTimer::AckDeadline { region });
    }

    fn restart_region(&mut self, region: usize, ctx: &mut Ctx) {
        let ready_overhead = self.cfg.ready_overhead;
        let ready_per_op = self.cfg.ready_per_op;
        let (installs, version) = {
            let rt = self.rt_mut(region);
            // Re-place every op onto active slots, preferring current
            // assignment when that slot is active.
            let active = rt.active_slots();
            if active.is_empty() {
                // Raced a failure between the restart check and now:
                // stay stopped rather than panic.
                return;
            }
            rt.stopped = false;
            let mut rr = 0usize;
            let graph = Arc::clone(&rt.spec.graph);
            for op in graph.op_ids() {
                let cur = rt.op_slot[op.index()];
                if cur == u32::MAX || rt.slot_state[cur as usize] != SlotState::Active {
                    rt.op_slot[op.index()] = active[rr % active.len()];
                    rr += 1;
                }
            }
            let version = rt.last_complete;
            let states = if version > 0 {
                InstallStates::FromLocalStore { version }
            } else {
                InstallStates::Fresh
            };
            let installs: Vec<(ActorId, Install, usize, u32)> = active
                .iter()
                .map(|&s| {
                    let ops = rt.ops_on(s);
                    let n = ops.len();
                    (
                        rt.spec.slot_actors[s as usize],
                        Install {
                            ops,
                            states: states.clone(),
                            op_slot: rt.op_slot.clone(),
                            slot_actors: rt.spec.slot_actors.clone(),
                            ready_in: ready_overhead + ready_per_op * (n as u64),
                        },
                        n,
                        s,
                    )
                })
                .collect();
            (installs, version)
        };
        let _ = version;
        for (dst, install, n_ops, slot) in installs {
            let bytes = self.cfg.code_bytes_per_op * (n_ops.max(1)) as u64;
            self.ship_install(ctx, region, slot, dst, bytes, install);
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
                let rt = self.rt_mut(o.region);
                rt.slot_state[o.slot as usize] = SlotState::Active; // allow note_failure
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
        let ev = match ev.downcast::<CellRx>() {
            Ok(rx) => {
                let p = rx.payload.clone();
                // Any message out of a severed region proves the
                // partition healed — resync before handling it.
                if let Some(m) = payload_as::<Pong>(&p) {
                    self.note_region_contact(m.region, ctx);
                    if let Some(out) = self.ping_outstanding.get_mut(&m.nonce) {
                        out.remove(&(m.region, m.slot));
                    }
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
