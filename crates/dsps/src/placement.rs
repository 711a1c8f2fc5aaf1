//! The region slot table and the recovery bookkeeping every control
//! plane keeps on top of it.
//!
//! The paper groups operators of the same color onto one node (Figs 2
//! and 3); what a node *is* follows from what it hosts: source, sink
//! and computing nodes, and idle nodes that hold checkpoint copies and
//! stand by as replacements. [`Placement`] is the one owner of "which
//! operator sits on which phone and which phones are usable" — the
//! applications author it, the MobiStreams region controller and the
//! baseline coordinator each hold one per region and mutate it during
//! recovery, and the experiments read it to choose fault targets.
//!
//! Invariants, stated once:
//!
//! * `op_slot[op] == u32::MAX` means *unassigned* (an operator of a
//!   graph this region does not host yet). Every other value is a slot
//!   index `< slots()`. Unassigned operators sit on no slot: they never
//!   appear in [`Placement::ops_on`], [`Placement::hosting_slots`] or
//!   [`Placement::source_slots`].
//! * Every slot has a [`SlotState`]; all start `Active`. Only `Active`
//!   slots are *usable*: [`Placement::active_slots`],
//!   [`Placement::idle_active_slots`] and the replacements
//!   [`Placement::plan_replacements`] picks are always `Active`. A slot
//!   may keep hosting operators while not `Active` (a dead phone whose
//!   operators await recovery, a departed phone computing over
//!   cellular) — hosting and usability are independent.
//! * Operators change slot only here: [`Placement::assign`] while
//!   authoring, [`Placement::reassign_slot`] when a phone is replaced,
//!   [`Placement::respread`] when a stopped region restarts.
//! * The slot→actor binding is empty until [`Placement::bind`] (the
//!   applications author placements before any actor exists) and never
//!   changes afterwards.
//!
//! Beside the table live the two small state holders both control
//! planes need around it: [`PingRounds`] (which pinged slots have not
//! answered yet) and [`RecoveryEpisode`] (the burst being gathered, the
//! acks still owed, the [`RecoveryRecord`] a finished episode leaves),
//! and the paper's timers both run on: the [`CheckpointSchedule`] and
//! the ping period, ping timeout and gather window constants.
//!
//! What a failure costs is decided here too, once for both planes:
//! [`plan_recovery`] reads the table and returns a [`RecoveryPlan`] —
//! who is replaced, what each replacement installs, who rolls back,
//! whose acks end the episode and who replays what — and each
//! controller only executes it (a reconciler: one pass computes the
//! desired state, a thin effect layer applies it). What to ping and
//! when a report is believed stay protocol decisions of each
//! controller. Where a region's sinks publish is decided here as well:
//! [`resolve_inter_region`] reads every region's table and stop flag
//! and returns each sink slot's links; the deployment builder installs
//! its result once, and the MobiStreams coordinator re-runs it when a
//! region reports a new placement or stop.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use simkernel::{ActorId, SimDuration, SimTime};

use crate::graph::{EdgeId, OpId, QueryGraph};
use crate::node::{Install, InstallStates, InterRegionLink, UpdateRouting};

/// What the control plane currently believes about a slot's phone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// In WiFi range and answering: usable as a host or a replacement.
    Active,
    /// Failure noted; its operators (if any) await recovery.
    Dead,
    /// Left WiFi range with a state transfer (or degraded cellular
    /// bridging) in flight (§III-E). MobiStreams only.
    Departing,
    /// Left for good; hosts nothing the region still relies on.
    /// MobiStreams only.
    Gone,
}

/// Operators of `op_slot` that sit on `slot`, ascending.
pub fn ops_on(op_slot: &[u32], slot: u32) -> Vec<OpId> {
    op_slot
        .iter()
        .enumerate()
        .filter(|(_, &s)| s == slot)
        .map(|(i, _)| OpId(i as u32))
        .collect()
}

/// One region's slot table: op→slot map, slot→actor binding and
/// per-slot [`SlotState`]. See the module docs for the invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    op_slot: Vec<u32>,
    slot_actors: Arc<Vec<ActorId>>,
    slot_state: Vec<SlotState>,
}

impl Placement {
    /// All-unassigned placement over `slots` phones.
    pub fn new(graph: &QueryGraph, slots: u32) -> Self {
        Self::from_op_slot(vec![u32::MAX; graph.op_count()], slots)
    }

    /// Placement over `slots` phones from a ready op→slot map.
    pub fn from_op_slot(op_slot: Vec<u32>, slots: u32) -> Self {
        assert!(
            op_slot.iter().all(|&s| s == u32::MAX || s < slots),
            "op→slot map names a slot outside the region's {slots}"
        );
        Placement {
            op_slot,
            slot_actors: Arc::new(Vec::new()),
            slot_state: vec![SlotState::Active; slots as usize],
        }
    }

    /// Bind one actor to every slot.
    pub fn bind(mut self, slot_actors: Vec<ActorId>) -> Self {
        assert_eq!(
            slot_actors.len(),
            self.slot_state.len(),
            "one actor per slot"
        );
        self.slot_actors = Arc::new(slot_actors);
        self
    }

    /// Assign `op` to `slot`.
    pub fn assign(&mut self, op: OpId, slot: u32) -> &mut Self {
        assert!(
            self.valid(slot),
            "slot {slot} out of range ({})",
            self.slots()
        );
        self.op_slot[op.index()] = slot;
        self
    }

    /// Total slots (phones) in the region, including idle ones.
    pub fn slots(&self) -> u32 {
        self.slot_state.len() as u32
    }

    /// Does `slot` exist? The check every `(region, slot)` arriving in
    /// a remote message goes through before it indexes anything.
    pub fn valid(&self, slot: u32) -> bool {
        (slot as usize) < self.slot_state.len()
    }

    /// Slot hosting `op` (`u32::MAX` = unassigned).
    pub fn slot_of(&self, op: OpId) -> u32 {
        self.op_slot[op.index()]
    }

    /// The whole op→slot map.
    pub fn op_slot(&self) -> &[u32] {
        &self.op_slot
    }

    /// The slot→actor binding (shared, never rebuilt).
    pub fn slot_actors(&self) -> &Arc<Vec<ActorId>> {
        &self.slot_actors
    }

    /// Actor bound to `slot`.
    pub fn actor(&self, slot: u32) -> ActorId {
        self.slot_actors[slot as usize]
    }

    /// Actor hosting `op` (which must be assigned).
    pub fn actor_of(&self, op: OpId) -> ActorId {
        self.actor(self.slot_of(op))
    }

    /// Current state of `slot`.
    pub fn state(&self, slot: u32) -> SlotState {
        self.slot_state[slot as usize]
    }

    /// Record a state change of `slot`.
    pub fn set_state(&mut self, slot: u32, state: SlotState) {
        self.slot_state[slot as usize] = state;
    }

    /// Is `slot` usable?
    pub fn is_active(&self, slot: u32) -> bool {
        self.slot_state[slot as usize] == SlotState::Active
    }

    /// Operators hosted on `slot`, ascending.
    pub fn ops_on(&self, slot: u32) -> Vec<OpId> {
        ops_on(&self.op_slot, slot)
    }

    /// Slots hosting at least one operator, whatever their state.
    pub fn hosting_slots(&self) -> BTreeSet<u32> {
        self.op_slot
            .iter()
            .copied()
            .filter(|&s| s != u32::MAX)
            .collect()
    }

    /// Hosting slots that are not usable: their operators wait for a
    /// recovery.
    pub fn stranded_slots(&self) -> BTreeSet<u32> {
        let mut stranded = self.hosting_slots();
        stranded.retain(|&s| !self.is_active(s));
        stranded
    }

    /// The usable checkpoint peer ([`peers_of`]) that ships `slot`'s
    /// state copy under dist-n: the first one in peer order.
    pub fn holder_of(&self, slot: u32, n: u32) -> Option<u32> {
        let mut peers = peers_of(slot, n, self.slots()).into_iter();
        peers.find(|&p| self.is_active(p))
    }

    /// Slots hosting at least one source operator of `graph`.
    pub fn source_slots(&self, graph: &QueryGraph) -> BTreeSet<u32> {
        graph
            .sources()
            .iter()
            .map(|&op| self.slot_of(op))
            .filter(|&s| s != u32::MAX)
            .collect()
    }

    /// Usable slots, ascending.
    pub fn active_slots(&self) -> Vec<u32> {
        (0..self.slots()).filter(|&s| self.is_active(s)).collect()
    }

    /// Usable slots hosting nothing (standby + checkpoint replica
    /// holders), ascending.
    pub fn idle_active_slots(&self) -> Vec<u32> {
        let hosting = self.hosting_slots();
        self.active_slots()
            .into_iter()
            .filter(|s| !hosting.contains(s))
            .collect()
    }

    /// Check every operator is assigned.
    pub fn validate(&self, graph: &QueryGraph) -> Result<(), String> {
        match graph.op_ids().find(|&op| self.slot_of(op) == u32::MAX) {
            Some(op) => Err(format!("op '{}' unassigned", graph.op(op).name)),
            None => Ok(()),
        }
    }

    /// Move every operator on `from` to `to` (failure or departure
    /// replacement).
    pub fn reassign_slot(&mut self, from: u32, to: u32) {
        assert!(self.valid(to));
        for s in self.op_slot.iter_mut() {
            if *s == from {
                *s = to;
            }
        }
    }

    /// Re-place every operator that is unassigned or sits on an
    /// unusable slot, round-robin over the usable slots (restart of a
    /// stopped region). Changes nothing and returns `false` when no
    /// slot is usable.
    pub fn respread(&mut self) -> bool {
        let active = self.active_slots();
        if active.is_empty() {
            return false;
        }
        let mut rr = 0usize;
        for op in 0..self.op_slot.len() {
            let cur = self.op_slot[op];
            if cur == u32::MAX || !self.is_active(cur) {
                self.op_slot[op] = active[rr % active.len()];
                rr += 1;
            }
        }
        true
    }

    /// Pick a replacement for every slot of `failed` that hosts
    /// operators (the others need none and are skipped), as
    /// `(failed, replacement)` in the order given: "the controller can
    /// select any healthy node in the region (idle nodes are
    /// preferred)" (§III-D) — idle usable slots first, highest first,
    /// then the usable hosting slots round-robin in ascending order
    /// (every node holds the MRC copy, so any of them can restore any
    /// operator). `None` when the idle slots run out and no usable
    /// hosting slot is left to take the rest. `failed` slots must not
    /// be `Active`.
    pub fn plan_replacements(&self, failed: &[u32]) -> Option<Vec<(u32, u32)>> {
        let hosting = self.hosting_slots();
        let (survivors, mut idle): (Vec<u32>, Vec<u32>) = self
            .active_slots()
            .into_iter()
            .partition(|s| hosting.contains(s));
        let mut spread = survivors.iter().copied().cycle();
        failed
            .iter()
            .filter(|f| hosting.contains(f))
            .map(|&f| Some((f, idle.pop().or_else(|| spread.next())?)))
            .collect()
    }

    /// The routing tables as phones receive them.
    pub fn routing(&self) -> UpdateRouting {
        UpdateRouting {
            op_slot: self.op_slot.clone(),
        }
    }

    /// The install that makes `slot`'s phone host what the table says
    /// it hosts, coming alive `ready_in` after it arrives.
    pub fn install_for(&self, slot: u32, states: InstallStates, ready_in: SimDuration) -> Install {
        Install {
            ops: self.ops_on(slot),
            states,
            op_slot: self.op_slot.clone(),
            ready_in,
        }
    }
}

/// One region as inter-region wiring sees it: the input of
/// [`resolve_inter_region`].
#[derive(Debug)]
pub struct RegionWiring {
    /// The region's query network.
    pub graph: Arc<QueryGraph>,
    /// Current operator → slot assignment.
    pub op_slot: Arc<Vec<u32>>,
    /// Phone actor per slot.
    pub slot_actors: Arc<Vec<ActorId>>,
    /// Downstream regions: (region index, source op fed there), rep-2's
    /// twin input included.
    pub downstream: Vec<(usize, OpId)>,
    /// The region is stopped and bypassed (§III-D/E).
    pub stopped: bool,
}

/// Where `region`'s sinks publish: for each slot hosting a sink, the
/// links its sinks feed, carried by `net`. Stopped regions are bypassed
/// transitively, and a stopped `region` publishes nothing. Links are in
/// sink order, then in `(region, op)` order of the destinations; an
/// unassigned sink or destination op gets no link.
pub fn resolve_inter_region(
    regions: &[RegionWiring],
    region: usize,
    net: ActorId,
) -> Vec<(u32, Vec<InterRegionLink>)> {
    let me = &regions[region];
    if me.stopped {
        return Vec::new();
    }
    let mut dsts = Vec::new();
    let mut stack = me.downstream.clone();
    let mut seen = BTreeSet::new();
    while let Some((r, op)) = stack.pop() {
        if !seen.insert((r, op)) {
            continue;
        }
        if regions[r].stopped {
            stack.extend_from_slice(&regions[r].downstream);
        } else {
            dsts.push((r, op));
        }
    }
    dsts.sort_unstable_by_key(|&(r, op)| (r, op.0));
    let mut per_slot: BTreeMap<u32, Vec<InterRegionLink>> = BTreeMap::new();
    for sink in me.graph.sinks() {
        let slot = me.op_slot[sink.index()];
        if slot == u32::MAX {
            continue;
        }
        let links = per_slot.entry(slot).or_default();
        for &(r, dst_op) in &dsts {
            let dst = &regions[r];
            let dst_slot = dst.op_slot[dst_op.index()];
            if dst_slot != u32::MAX {
                links.push(InterRegionLink {
                    src_op: sink,
                    dst_actor: dst.slot_actors[dst_slot as usize],
                    dst_op,
                    net,
                });
            }
        }
    }
    per_slot.into_iter().collect()
}

/// Deterministic checkpoint peers of `slot`: the next `n` slots
/// cyclically, skipping the slot itself (none in a one-phone region).
/// Shared by the dist-n scheme and [`plan_recovery`] so both sides agree
/// who holds whose state.
pub fn peers_of(slot: u32, n: u32, total_slots: u32) -> Vec<u32> {
    let next = (1..total_slots).map(|k| (slot + k) % total_slots);
    next.take(n as usize).collect()
}

/// How a control plane recovers, and from which checkpoint `version`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// MobiStreams (§III-D): each replacement restores the MRC
    /// `version` from its own copy, every other usable hosting slot
    /// rolls back to it, and the sources replay their preserved inputs.
    Mrc { version: u64 },
    /// dist-n: a surviving checkpoint peer ([`peers_of`]) of each failed
    /// slot ships its copy at `version` to the replacement, and the
    /// upstream slots replay what they retained. More than `n` failed
    /// hosts, or no checkpoint yet, cannot be recovered.
    DistN { n: u32, version: u64 },
    /// Upstream backup (Hwang et al., ICDE 2005): the one failed host's
    /// operators restart fresh on the live upstream neighbour of its
    /// first operator, and the other upstream slots replay into them.
    /// Two deviations from the scheme stay on purpose, each a FOUND
    /// entry of PR 40 in CHANGES.md, until ROADMAP item 17 deletes
    /// upstream backup: the install is `Fresh` for the host's own
    /// operators too, and the host replays none of its own retained
    /// outputs (the replay rule on [`RecoveryPlan`] skips the recovered
    /// slot).
    Upstream,
    /// A phone that rebooted while it still hosts operators is its own
    /// replacement and reinstalls them from its store at `version`.
    /// With `rollback` the region rolls back with it (MobiStreams); the
    /// baselines' regions do not.
    Reboot { version: u64, rollback: bool },
}

/// No usable phone can take the failed operators, or their state is
/// lost: the control plane stops the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unrecoverable;

/// One recovery, decided in one pass over the slot table by
/// [`plan_recovery`]. A control plane executes it in field order:
/// reassign and publish, install, roll back, await the acks and, when
/// the episode ends, replay.
///
/// **Replay rule.** A region that rolled back replays from its
/// sources. Otherwise every replayed edge's target sits on a recovered
/// slot and its source on a live slot other than the recovered ones.
/// The baselines' output retention (`baselines::retain`) keeps a
/// replayable copy of exactly the outputs this rule can ask for.
#[derive(Debug, Clone, Default)]
pub struct RecoveryPlan {
    /// Failed slots that host nothing: their loss is only a membership
    /// change.
    pub membership_only: Vec<u32>,
    /// `(failed, replacement)` pairs in the order the failures were
    /// given. A reboot's replacement is the failed slot itself.
    pub replacements: Vec<(u32, u32)>,
    /// The checkpoint installs restore and survivors roll back to.
    pub version: u64,
    /// Installs the control plane ships, one per replacement pair.
    pub installs: Vec<(u32, InstallStates)>,
    /// dist-n: the surviving peer that ships each replaced slot's
    /// states to its replacement, one per replacement pair.
    pub holders: Vec<u32>,
    /// Usable hosting slots outside the installing ones that roll back
    /// to `version`.
    pub rollback: Vec<u32>,
    /// The slots whose acks end the episode.
    pub acks: BTreeSet<u32>,
    /// The edges each live slot replays when the episode ends
    /// ([`plan_replay`] over the table after the replacements). A
    /// control plane recomputes them from its table at that event.
    pub replay: Vec<(u32, Vec<EdgeId>)>,
}

impl RecoveryPlan {
    /// No failed slot hosted an operator.
    pub fn is_membership_only(&self) -> bool {
        self.replacements.is_empty()
    }

    /// The pairs whose operators change slot (all but a reboot's).
    pub fn moved(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.replacements.iter().copied().filter(|(f, r)| f != r)
    }
}

/// Plan the recovery of the `failed` slots of `table` under `kind`.
/// Replacements follow [`Placement::plan_replacements`] under `Mrc` and
/// `DistN`. Failed slots that host nothing are a membership change
/// only: a burst of only those replaces, installs and replays into
/// nothing. A kind that rolls the region back still lists the
/// survivors' rollback and the sources' replay; whether such a plan
/// runs is the executor's choice (the baselines end the episode, and
/// MobiStreams still runs it: ROADMAP 12(a), marked in
/// `RegionController::on_recover_now`).
pub fn plan_recovery(
    table: &Placement,
    graph: &QueryGraph,
    failed: &[u32],
    kind: RecoveryKind,
) -> Result<RecoveryPlan, Unrecoverable> {
    use RecoveryKind::*;
    let hosting = table.hosting_slots();
    let (lost, idle): (Vec<u32>, Vec<u32>) = failed.iter().partition(|f| hosting.contains(f));
    let version = match kind {
        Mrc { version } | DistN { version, .. } | Reboot { version, .. } => version,
        Upstream => 0,
    };
    let mut plan = RecoveryPlan {
        membership_only: idle,
        version,
        ..RecoveryPlan::default()
    };
    plan.replacements = match kind {
        _ if lost.is_empty() => Some(Vec::new()),
        Mrc { .. } => table.plan_replacements(failed),
        DistN { n, .. } => table
            .plan_replacements(failed)
            .filter(|pairs| pairs.len() as u32 <= n && version > 0),
        Reboot { .. } => Some(lost.iter().map(|&s| (s, s)).collect()),
        Upstream => match lost[..] {
            [f] => in_edges_of(table, graph, f)
                .map(|(from, _)| from)
                .find(|&s| s != f && s != u32::MAX && table.is_active(s))
                .map(|host| vec![(f, host)]),
            _ => None,
        },
    }
    .ok_or(Unrecoverable)?;
    for &(f, r) in &plan.replacements {
        if let DistN { n, .. } = kind {
            plan.holders
                .push(table.holder_of(f, n).ok_or(Unrecoverable)?);
        } else {
            plan.installs.push((r, InstallStates::from_mrc(version)));
        }
    }
    let mut after = table.clone();
    for (f, r) in plan.moved() {
        after.reassign_slot(f, r);
    }
    let installing: BTreeSet<u32> = plan.replacements.iter().map(|&(_, r)| r).collect();
    let rollback = matches!(kind, Mrc { .. } | Reboot { rollback: true, .. });
    if rollback {
        let mut survivors = after.hosting_slots();
        survivors.retain(|s| !installing.contains(s) && after.is_active(*s));
        plan.rollback = survivors.into_iter().collect();
    }
    plan.acks = installing.iter().chain(&plan.rollback).copied().collect();
    plan.replay = plan_replay(&after, graph, rollback.then_some(version), &installing);
    Ok(plan)
}

/// The in-edges of the operators on `slot`, each with its source's slot.
fn in_edges_of<'a>(
    table: &'a Placement,
    graph: &'a QueryGraph,
    slot: u32,
) -> impl Iterator<Item = (u32, EdgeId)> + 'a {
    let edges = table
        .ops_on(slot)
        .into_iter()
        .flat_map(|op| &graph.op(op).in_edges);
    edges.map(|&e| (table.slot_of(graph.edge(e).from), e))
}

/// The edges each live slot replays once the recovery of `recovered`
/// ends, read from `table` as it then stands, in ascending slot order.
/// A region that rolled back to checkpoint `rollback_to` replays the
/// source pseudo-edges of its source slots (nothing before the first
/// checkpoint). One that did not follows the replay rule on
/// [`RecoveryPlan`]: the in-edges of the recovered slots' operators
/// whose source sits on a live slot outside `recovered`.
pub fn plan_replay(
    table: &Placement,
    graph: &QueryGraph,
    rollback_to: Option<u64>,
    recovered: &BTreeSet<u32>,
) -> Vec<(u32, Vec<EdgeId>)> {
    let edges: Vec<(u32, EdgeId)> = match rollback_to {
        Some(0) => Vec::new(),
        Some(_) => graph
            .sources()
            .into_iter()
            .map(|op| (table.slot_of(op), EdgeId::source(op)))
            .collect(),
        None => recovered
            .iter()
            .flat_map(|&s| in_edges_of(table, graph, s))
            .filter(|(from, _)| !recovered.contains(from))
            .collect(),
    };
    let mut per_slot: BTreeMap<u32, Vec<EdgeId>> = BTreeMap::new();
    for (from, e) in edges {
        if from != u32::MAX && table.is_active(from) {
            per_slot.entry(from).or_default().push(e);
        }
    }
    per_slot.into_iter().collect()
}

/// When a control plane triggers checkpoint rounds.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointSchedule {
    /// Time between rounds ("the checkpoint period in MobiStreams is 5
    /// minutes", §IV).
    pub period: SimDuration,
    /// The first round's offset from the start.
    pub offset: SimDuration,
}

/// How often a control plane pings the phones it watches ("every 30
/// seconds", §IV).
pub const PING_PERIOD: SimDuration = SimDuration::from_secs(30);

/// How long a ping may go unanswered before its phone counts as failed
/// ("the timeout period is 10 seconds", §IV).
pub const PING_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// How long a burst's first failure waits for the rest, so simultaneous
/// failures are recovered together.
pub const GATHER_WINDOW: SimDuration = SimDuration::from_secs(2);

/// Outstanding liveness probes: which pinged `(region, slot)` pairs
/// have not answered, per ping round.
#[derive(Debug, Default)]
pub struct PingRounds {
    round: u64,
    outstanding: BTreeMap<u64, BTreeSet<(usize, u32)>>,
}

impl PingRounds {
    /// Open the next round over `targets` and return its number (the
    /// nonce the pings carry). An empty round is numbered but not
    /// tracked: `None`, and there is no deadline to arm.
    pub fn begin(&mut self, targets: BTreeSet<(usize, u32)>) -> Option<u64> {
        self.round += 1;
        if targets.is_empty() {
            return None;
        }
        self.outstanding.insert(self.round, targets);
        Some(self.round)
    }

    /// `(region, slot)` answered the ping carrying `nonce`. A late,
    /// duplicate or unknown-nonce pong is a no-op.
    pub fn pong(&mut self, nonce: u64, region: usize, slot: u32) {
        if let Some(out) = self.outstanding.get_mut(&nonce) {
            out.remove(&(region, slot));
        }
    }

    /// The deadline of `round` passed: close it and return who never
    /// answered, ascending. Empty for an unknown or closed round.
    pub fn expire(&mut self, round: u64) -> BTreeSet<(usize, u32)> {
        self.outstanding.remove(&round).unwrap_or_default()
    }
}

/// Recovery episode record (for experiment reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Region recovered.
    pub region: usize,
    /// Failure burst size.
    pub failures: usize,
    /// When the first failure of the burst was detected.
    pub started: SimTime,
    /// When the region resumed (acks in).
    pub finished: SimTime,
}

/// One region's recovery bookkeeping: the failure burst being gathered
/// (simultaneous failures are recovered together, so the first noted
/// failure arms one gather timer for the whole burst), and the episode
/// in flight — its size, detection time and the acks still owed.
#[derive(Debug, Default)]
pub struct RecoveryEpisode {
    /// Failed slots gathered for the next recovery.
    pending: BTreeSet<u32>,
    scheduled: bool,
    recovering: bool,
    started: SimTime,
    failures: usize,
    outstanding: BTreeSet<u32>,
}

impl RecoveryEpisode {
    /// `slot` failed at `now`: gather it. `true` = arm the gather
    /// timer (once per burst; the burst's detection time is that of
    /// its first failure).
    pub fn note(&mut self, slot: u32, now: SimTime) -> bool {
        self.pending.insert(slot);
        let arm = self.arm();
        if arm && self.pending.len() == 1 {
            self.started = now;
        }
        arm
    }

    /// Re-queue `slots` for the next recovery, with no detection time
    /// of their own (a retry of stranded slots). `true` = any were
    /// given; whether that arms a gather timer is the caller's rule.
    pub fn requeue(&mut self, slots: BTreeSet<u32>) -> bool {
        let any = !slots.is_empty();
        self.pending.extend(slots);
        any
    }

    /// Forgive the gathered failures (their silence was a partition):
    /// the slots, ascending.
    pub fn forgive(&mut self) -> BTreeSet<u32> {
        std::mem::take(&mut self.pending)
    }

    /// Claim the gather timer: `true` = none is in flight, arm one.
    pub fn arm(&mut self) -> bool {
        !std::mem::replace(&mut self.scheduled, true)
    }

    /// The gather timer fired: the burst, ascending.
    pub fn gathered(&mut self) -> Vec<u32> {
        self.scheduled = false;
        std::mem::take(&mut self.pending).into_iter().collect()
    }

    /// Is a recovery reconfiguring the region?
    pub fn recovering(&self) -> bool {
        self.recovering
    }

    /// Detection time of the burst (`SimTime::ZERO` = none noted).
    pub fn started(&self) -> SimTime {
        self.started
    }

    /// Start recovering a burst of `failures`, detected when noted.
    pub fn begin(&mut self, failures: usize) {
        self.recovering = true;
        self.failures = failures;
    }

    /// Start an episode no noted failure preceded (a reboot reinstall,
    /// an immediate takeover): `failures` detected `now`.
    pub fn begin_now(&mut self, failures: usize, now: SimTime) {
        self.begin(failures);
        self.started = now;
    }

    /// The slots whose acks end the episode.
    pub fn await_acks(&mut self, slots: BTreeSet<u32>) {
        self.outstanding = slots;
    }

    /// `slot` acked. `true` = that was the last ack of a running
    /// episode: finish it.
    pub fn ack(&mut self, slot: u32) -> bool {
        self.outstanding.remove(&slot);
        self.recovering && self.outstanding.is_empty()
    }

    /// Give the episode up (region stopped, or the ack deadline
    /// passed and the caller retries).
    pub fn abort(&mut self) {
        self.recovering = false;
        self.outstanding.clear();
    }

    /// The episode is over: the region resumed at `now`.
    pub fn finish(&mut self, region: usize, now: SimTime) -> RecoveryRecord {
        self.abort();
        RecoveryRecord {
            region,
            failures: self.failures,
            started: std::mem::replace(&mut self.started, SimTime::ZERO),
            finished: now,
        }
    }
}

/// Proportionally remap a placement authored for `p.slots()` phones onto
/// `k` phones (`k < p.slots()`): canonical slot `s` hosts on
/// `s * k / p.slots()`. Keeps the paper's grouping order, so pipeline
/// stages stay contiguous and any leftover high slots stay idle
/// (checkpoint replicas / standby), just denser — used for regions
/// smaller than the paper's 8-phone testbed, and for fitting rep-2's
/// two flows onto half a region each.
pub fn squeeze_placement(p: &Placement, k: u32) -> Placement {
    assert!(k >= 1, "a region needs at least one phone");
    // Identity whenever the canonical assignment already fits: every
    // assigned slot exists among the k phones (6- and 7-phone regions
    // keep one stage group per phone; only the idle tail shrinks).
    let fits = p.op_slot.iter().all(|&s| s == u32::MAX || s < k);
    let op_slot = p
        .op_slot
        .iter()
        .map(|&s| {
            if fits || s == u32::MAX {
                s
            } else {
                s * k / p.slots()
            }
        })
        .collect();
    Placement::from_op_slot(op_slot, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OpKind;
    use crate::ops::Relay;
    use proptest::prelude::*;

    fn relay() -> Box<dyn crate::operator::Operator> {
        Box::new(Relay::new(SimDuration::from_millis(1)))
    }

    fn chain() -> (QueryGraph, [OpId; 4]) {
        let mut g = QueryGraph::new();
        let s = g.add_op("S", OpKind::Source, relay);
        let a = g.add_op("A", OpKind::Compute, relay);
        let b = g.add_op("B", OpKind::Compute, relay);
        let k = g.add_op("K", OpKind::Sink, relay);
        g.connect(s, a);
        g.connect(a, b);
        g.connect(b, k);
        (g, [s, a, b, k])
    }

    #[test]
    fn assign_and_slot_sets() {
        let (g, [s, a, b, k]) = chain();
        let mut p = Placement::new(&g, 6);
        p.assign(s, 0).assign(a, 1).assign(b, 1).assign(k, 2);
        assert!(p.validate(&g).is_ok());
        assert_eq!(p.hosting_slots(), BTreeSet::from([0, 1, 2]));
        assert_eq!(p.source_slots(&g), BTreeSet::from([0]));
        assert_eq!(p.idle_active_slots(), vec![3, 4, 5]);
        assert_eq!(p.ops_on(1), vec![a, b]);
        assert!(p.valid(5) && !p.valid(6));
        // Usability is independent of hosting.
        p.set_state(1, SlotState::Dead);
        p.set_state(4, SlotState::Gone);
        assert_eq!(p.active_slots(), vec![0, 2, 3, 5]);
        assert_eq!(p.idle_active_slots(), vec![3, 5]);
        assert_eq!(p.hosting_slots(), BTreeSet::from([0, 1, 2]));
    }

    #[test]
    fn unassigned_rejected() {
        let (g, [s, a, b, _k]) = chain();
        let mut p = Placement::new(&g, 4);
        p.assign(s, 0).assign(a, 1).assign(b, 2);
        assert!(p.validate(&g).unwrap_err().contains("unassigned"));
        assert_eq!(p.source_slots(&g), BTreeSet::from([0]));
    }

    #[test]
    fn reassign_slot_moves_ops() {
        let (g, [s, a, b, k]) = chain();
        let mut p = Placement::new(&g, 4);
        p.assign(s, 0).assign(a, 1).assign(b, 1).assign(k, 2);
        p.reassign_slot(1, 3);
        assert_eq!(p.ops_on(1), vec![]);
        assert_eq!(p.ops_on(3), vec![a, b]);
        assert_eq!(p.idle_active_slots(), vec![1]);
    }

    #[test]
    fn respread_moves_only_stranded_ops_round_robin() {
        let mut p = Placement::from_op_slot(vec![0, 1, 1, 2, u32::MAX, 3], 5);
        p.set_state(1, SlotState::Dead);
        p.set_state(3, SlotState::Gone);
        assert!(p.respread());
        // Active: 0, 2, 4. Stranded ops 1, 2, 4, 5 take them in turn.
        assert_eq!(p.op_slot(), &[0, 0, 2, 2, 4, 0]);
        for s in 0..5 {
            p.set_state(s, SlotState::Dead);
        }
        let before = p.clone();
        assert!(!p.respread());
        assert_eq!(p, before);
    }

    #[test]
    fn install_and_routing_carry_the_whole_table() {
        let actors: Vec<ActorId> = (10..14).map(ActorId::from_index).collect();
        let p = Placement::from_op_slot(vec![0, 2, 2, 3], 4).bind(actors.clone());
        let ins = p.install_for(2, InstallStates::from_mrc(7), SimDuration::from_secs(1));
        assert_eq!(ins.ops, vec![OpId(1), OpId(2)]);
        assert!(matches!(
            ins.states,
            InstallStates::FromLocalStore { version: 7 }
        ));
        assert!(matches!(InstallStates::from_mrc(0), InstallStates::Fresh));
        assert_eq!(ins.op_slot, vec![0, 2, 2, 3]);
        assert_eq!(p.routing().op_slot, p.op_slot());
        // The slot→actor binding is bound once and travels in neither.
        assert_eq!(**p.slot_actors(), actors);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_slot_panics() {
        let (g, [s, ..]) = chain();
        let mut p = Placement::new(&g, 2);
        p.assign(s, 5);
    }

    /// An arbitrary table: `slots` phones, ops on arbitrary slots with
    /// `u32::MAX` holes, the slots of `down` not `Active`.
    fn table(slots: u32, ops: &[u32], down: &[u32]) -> Placement {
        let op_slot = ops
            .iter()
            .map(|&o| if o % 5 == 0 { u32::MAX } else { o % slots })
            .collect();
        let mut p = Placement::from_op_slot(op_slot, slots);
        for &d in down {
            p.set_state(d % slots, SlotState::Dead);
        }
        p
    }

    proptest! {
        /// `hosting_slots` is the sorted, deduplicated set of assigned
        /// slots — what `failure_order` and `restart_min` used to
        /// build by hand.
        #[test]
        fn prop_hosting_slots_is_the_sorted_dedup_of_assigned(
            slots in 1u32..12,
            ops in prop::collection::vec(0u32..1000, 0..20),
        ) {
            let p = table(slots, &ops, &[]);
            let mut by_hand: Vec<u32> =
                p.op_slot().iter().copied().filter(|&s| s != u32::MAX).collect();
            by_hand.sort_unstable();
            by_hand.dedup();
            prop_assert_eq!(p.hosting_slots().into_iter().collect::<Vec<u32>>(), by_hand);
        }

        /// The replacement picker: one usable replacement per failed
        /// hosting slot, idle slots first (highest first, each at most
        /// once), then the hosting survivors round-robin ascending;
        /// `None` exactly when the idle slots run out and no usable
        /// hosting slot is left to share the rest.
        #[test]
        fn prop_plan_replacements_prefers_idle_then_round_robins(
            slots in 1u32..12,
            ops in prop::collection::vec(0u32..1000, 0..20),
            down in prop::collection::vec(0u32..12, 0..12),
        ) {
            let p = table(slots, &ops, &down);
            let mut failed: Vec<u32> = (0..slots).filter(|&s| !p.is_active(s)).collect();
            failed.reverse(); // order given is order kept
            let hosting = p.hosting_slots();
            let hosting_failed: Vec<u32> =
                failed.iter().copied().filter(|f| hosting.contains(f)).collect();
            let mut idle = p.idle_active_slots();
            let survivors: Vec<u32> =
                p.active_slots().into_iter().filter(|s| hosting.contains(s)).collect();
            let short = hosting_failed.len() > idle.len() && survivors.is_empty();
            let Some(plan) = p.plan_replacements(&failed) else {
                prop_assert!(short);
                return;
            };
            prop_assert!(!short);
            let planned: Vec<u32> = plan.iter().map(|&(f, _)| f).collect();
            prop_assert_eq!(&planned, &hosting_failed);
            let mut rr = 0;
            for &(f, r) in &plan {
                prop_assert!(p.is_active(r) && !failed.contains(&r), "({f}, {r})");
                match idle.pop() {
                    Some(i) => prop_assert_eq!(r, i),
                    None => {
                        prop_assert_eq!(r, survivors[rr % survivors.len()]);
                        rr += 1;
                    }
                }
            }
        }
    }

    /// A DAG over `ops.len()` operators: op 0 and every op whose value
    /// says so are sources, every other op `i` reads from an earlier op
    /// chosen by its value.
    fn dag(ops: &[u32]) -> QueryGraph {
        let mut g = QueryGraph::new();
        for (i, &v) in ops.iter().enumerate() {
            let kind = if i == 0 || v / 5 % 4 == 0 {
                OpKind::Source
            } else {
                OpKind::Compute
            };
            let op = g.add_op(format!("op{i}"), kind, relay);
            if kind == OpKind::Compute {
                g.connect(OpId(v / 5 % i as u32), op);
            }
        }
        g
    }

    /// The table as the plan leaves it.
    fn after(p: &Placement, plan: &RecoveryPlan) -> Placement {
        let mut after = p.clone();
        for (f, r) in plan.moved() {
            after.reassign_slot(f, r);
        }
        after
    }

    /// The slots a plan installs on.
    fn installing(plan: &RecoveryPlan) -> BTreeSet<u32> {
        plan.replacements.iter().map(|&(_, r)| r).collect()
    }

    /// Does `kind` roll the region back?
    fn rolls_back(kind: RecoveryKind) -> bool {
        matches!(
            kind,
            RecoveryKind::Mrc { .. } | RecoveryKind::Reboot { rollback: true, .. }
        )
    }

    /// The kinds a table is planned under, from two drawn numbers.
    fn kinds(n: u32, version: u64) -> [RecoveryKind; 5] {
        [
            RecoveryKind::Mrc { version },
            RecoveryKind::DistN { n, version },
            RecoveryKind::Upstream,
            RecoveryKind::Reboot {
                version,
                rollback: true,
            },
            RecoveryKind::Reboot {
                version,
                rollback: false,
            },
        ]
    }

    proptest! {
        /// A burst that hosts nothing is a membership change: under
        /// dist-n, upstream backup and a baselines' reboot the plan
        /// names the failed slots and nothing else. A kind that rolls
        /// the region back still lists every usable hosting slot's
        /// rollback, which MobiStreams runs (ROADMAP 12(a), kept).
        #[test]
        fn prop_plan_of_an_idle_burst_is_membership_only(
            slots in 1u32..10,
            ops in prop::collection::vec(0u32..1000, 1..12),
            down in prop::collection::vec(0u32..10, 0..10),
            n in 1u32..4,
            version in 0u64..4,
        ) {
            let mut p = table(slots, &ops, &[]);
            let hosting = p.hosting_slots();
            let failed: BTreeSet<u32> =
                down.iter().map(|d| d % slots).filter(|s| !hosting.contains(s)).collect();
            for &f in &failed {
                p.set_state(f, SlotState::Dead);
            }
            let failed: Vec<u32> = failed.into_iter().collect();
            for kind in kinds(n, version) {
                let plan = plan_recovery(&p, &dag(&ops), &failed, kind).expect("idle burst");
                prop_assert_eq!(&plan.membership_only, &failed);
                prop_assert!(plan.is_membership_only() && plan.installs.is_empty());
                prop_assert!(plan.holders.is_empty());
                if rolls_back(kind) {
                    let live: Vec<u32> = hosting.iter().copied().filter(|&s| p.is_active(s)).collect();
                    prop_assert_eq!(&plan.rollback, &live);
                    prop_assert_eq!(plan.acks.iter().copied().collect::<Vec<u32>>(), live);
                } else {
                    prop_assert!(plan.rollback.is_empty() && plan.acks.is_empty(), "{kind:?}");
                    prop_assert!(plan.replay.is_empty(), "{kind:?}");
                }
            }
        }

        /// Under MobiStreams and dist-n the replacements are exactly
        /// `plan_replacements`' and every operator a plan installs
        /// comes from a failed slot or restores checkpointed state: no
        /// operator outside the failed slots is installed `Fresh` once
        /// a checkpoint exists. Upstream backup's install is `Fresh`
        /// for the host's own operators too (a FOUND deviation, kept).
        /// The acks are the installing slots and the rollback, which is
        /// every other usable hosting slot exactly when the region
        /// rolls back.
        #[test]
        fn prop_plan_replaces_like_plan_replacements_and_installs_fresh_only_what_failed(
            slots in 1u32..10,
            ops in prop::collection::vec(0u32..1000, 1..12),
            down in prop::collection::vec(0u32..10, 0..10),
            n in 1u32..4,
            version in 0u64..4,
        ) {
            let p = table(slots, &ops, &down);
            let g = dag(&ops);
            let failed: Vec<u32> = (0..slots).rev().filter(|&s| !p.is_active(s)).collect();
            for kind in kinds(n, version) {
                let failed = match kind {
                    RecoveryKind::Upstream | RecoveryKind::Reboot { .. } => &failed[failed.len().min(1)..],
                    _ => &failed[..],
                };
                let Ok(plan) = plan_recovery(&p, &g, failed, kind) else {
                    continue;
                };
                if let RecoveryKind::Mrc { .. } | RecoveryKind::DistN { .. } = kind {
                    prop_assert_eq!(Some(&plan.replacements), p.plan_replacements(failed).as_ref());
                }
                let after = after(&p, &plan);
                for (slot, states) in &plan.installs {
                    let fresh = matches!(states, InstallStates::Fresh);
                    for op in after.ops_on(*slot) {
                        let was = p.slot_of(op);
                        prop_assert!(failed.contains(&was) || was == *slot, "{op:?} from {was}");
                        if fresh && !failed.contains(&was) {
                            prop_assert!(version == 0 || kind == RecoveryKind::Upstream, "{kind:?}");
                        }
                    }
                }
                if plan.is_membership_only() {
                    prop_assert!(plan.installs.is_empty() && plan.holders.is_empty());
                } else if let RecoveryKind::DistN { .. } = kind {
                    prop_assert!(version > 0 && plan.installs.is_empty());
                    prop_assert_eq!(plan.holders.len(), plan.replacements.len());
                    for (&(f, _), &h) in plan.replacements.iter().zip(&plan.holders) {
                        let first_live = peers_of(f, n, slots).into_iter().find(|&q| p.is_active(q));
                        prop_assert_eq!(Some(h), first_live);
                    }
                } else {
                    prop_assert_eq!(plan.installs.len(), plan.replacements.len());
                }
                let installing = installing(&plan);
                let rolls_back = rolls_back(kind);
                let survivors: Vec<u32> = after
                    .hosting_slots()
                    .into_iter()
                    .filter(|s| rolls_back && !installing.contains(s) && after.is_active(*s))
                    .collect();
                prop_assert_eq!(&plan.rollback, &survivors);
                let mut acks = installing;
                acks.extend(survivors);
                prop_assert_eq!(&plan.acks, &acks);
            }
        }

        /// The replay rule: without a rollback every replayed edge runs
        /// from a live slot other than the recovered ones into an
        /// operator on a recovered slot, and every such in-edge is
        /// replayed. With one, exactly the live source slots replay
        /// their source pseudo-edges, once a checkpoint exists.
        #[test]
        fn prop_plan_replays_from_live_slots_other_than_the_recovered(
            slots in 1u32..10,
            ops in prop::collection::vec(0u32..1000, 1..12),
            down in prop::collection::vec(0u32..10, 0..10),
            n in 1u32..4,
            version in 0u64..4,
        ) {
            let p = table(slots, &ops, &down);
            let g = dag(&ops);
            let failed: Vec<u32> = (0..slots).filter(|&s| !p.is_active(s)).collect();
            for kind in kinds(n, version) {
                let failed = match kind {
                    RecoveryKind::Upstream | RecoveryKind::Reboot { .. } => &failed[failed.len().min(1)..],
                    _ => &failed[..],
                };
                let Ok(plan) = plan_recovery(&p, &g, failed, kind) else {
                    continue;
                };
                let (after, recovered) = (after(&p, &plan), installing(&plan));
                let mut expected: BTreeMap<u32, Vec<EdgeId>> = BTreeMap::new();
                if !rolls_back(kind) {
                    for &r in &recovered {
                        for op in after.ops_on(r) {
                            for &e in &g.op(op).in_edges {
                                let from = after.slot_of(g.edge(e).from);
                                if from != u32::MAX && after.is_active(from) && !recovered.contains(&from) {
                                    expected.entry(from).or_default().push(e);
                                }
                            }
                        }
                    }
                    for (s, edges) in &plan.replay {
                        prop_assert!(after.is_active(*s) && !recovered.contains(s), "{s}");
                        for &e in edges {
                            prop_assert_eq!(after.slot_of(g.edge(e).from), *s);
                            prop_assert!(recovered.contains(&after.slot_of(g.edge(e).to)));
                        }
                    }
                } else if version > 0 {
                    for op in g.sources() {
                        let s = after.slot_of(op);
                        if s != u32::MAX && after.is_active(s) {
                            expected.entry(s).or_default().push(EdgeId::source(op));
                        }
                    }
                }
                prop_assert_eq!(plan.replay, expected.into_iter().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn plan_of_a_reboot_replaces_the_slot_with_itself() {
        let (g, [s, a, b, k]) = chain();
        let mut p = Placement::new(&g, 5);
        p.assign(s, 0).assign(a, 1).assign(b, 2).assign(k, 3);
        p.set_state(4, SlotState::Dead);
        let reboot = RecoveryKind::Reboot {
            version: 3,
            rollback: true,
        };
        let plan = plan_recovery(&p, &g, &[1], reboot).unwrap();
        assert_eq!(plan.replacements, vec![(1, 1)]);
        assert_eq!(plan.moved().count(), 0);
        assert!(matches!(
            plan.installs[..],
            [(1, InstallStates::FromLocalStore { version: 3 })]
        ));
        assert_eq!(plan.rollback, vec![0, 2, 3]);
        assert_eq!(plan.acks, BTreeSet::from([0, 1, 2, 3]));
        assert_eq!(plan.replay, vec![(0, vec![EdgeId::source(s)])]);
        // Upstream backup hosts `A` on `S`'s slot 0. `A`'s one in-edge
        // now runs inside the recovered slot, so nothing replays (a
        // FOUND deviation, kept).
        p.set_state(1, SlotState::Dead);
        let plan = plan_recovery(&p, &g, &[1], RecoveryKind::Upstream).unwrap();
        assert_eq!(plan.replacements, vec![(1, 0)]);
        assert!(plan.replay.is_empty() && plan.rollback.is_empty());
        // With `S`'s slot dead too, nothing can host `A`.
        p.set_state(0, SlotState::Dead);
        assert_eq!(
            plan_recovery(&p, &g, &[1], RecoveryKind::Upstream).unwrap_err(),
            Unrecoverable
        );
    }

    #[test]
    fn stranded_slots_host_and_are_not_usable() {
        let mut p = Placement::from_op_slot(vec![0, 1, 1, 3], 5);
        assert!(p.stranded_slots().is_empty());
        p.set_state(1, SlotState::Dead);
        p.set_state(2, SlotState::Dead);
        p.set_state(3, SlotState::Departing);
        assert_eq!(p.stranded_slots(), BTreeSet::from([1, 3]));
    }

    #[test]
    fn ping_round_expires_exactly_the_unanswered() {
        let mut pings = PingRounds::default();
        assert_eq!(pings.begin(BTreeSet::new()), None);
        // The empty round still took a number.
        let round = pings.begin(BTreeSet::from([(0, 1), (0, 4), (2, 0)]));
        assert_eq!(round, Some(2));
        pings.pong(2, 0, 4);
        pings.pong(2, 0, 4); // duplicate
        pings.pong(1, 0, 1); // unknown nonce (the empty round)
        pings.pong(9, 2, 0); // never issued
        pings.pong(2, 1, 1); // never pinged
        assert_eq!(pings.expire(2), BTreeSet::from([(0, 1), (2, 0)]));
        pings.pong(2, 0, 1); // late
        assert!(pings.expire(2).is_empty());
        assert!(pings.expire(7).is_empty());
    }

    #[test]
    fn recovery_episode_arms_once_per_burst_and_records_detection() {
        let t = SimTime::from_secs;
        let mut ep = RecoveryEpisode::default();
        assert!(ep.note(3, t(10)), "first failure arms the gather timer");
        assert!(!ep.note(1, t(11)), "the burst shares it");
        assert!(!ep.note(3, t(11)));
        assert_eq!(ep.gathered(), vec![1, 3]);
        assert_eq!(ep.gathered(), Vec::<u32>::new());
        ep.begin(2);
        ep.await_acks(BTreeSet::from([1, 5]));
        assert!(ep.recovering());
        assert!(!ep.ack(5));
        assert!(!ep.ack(7), "a stranger's ack ends nothing");
        assert!(ep.ack(1));
        let rec = ep.finish(4, t(20));
        assert_eq!(
            rec,
            RecoveryRecord {
                region: 4,
                failures: 2,
                started: t(10),
                finished: t(20)
            }
        );
        assert!(!ep.recovering() && ep.started() == SimTime::ZERO);
        assert!(!ep.ack(1), "no episode, nothing to finish");
        // The next burst arms again; an aborted episode owes no acks.
        assert!(ep.note(2, t(30)));
        assert!(!ep.arm(), "the timer is already in flight");
        ep.gathered();
        ep.begin_now(1, t(33));
        ep.await_acks(BTreeSet::from([2]));
        ep.abort();
        assert!(!ep.recovering() && !ep.ack(2));
        assert_eq!(ep.started(), t(33));
    }
    /// A three-region chain of `chain()` graphs, S on slot 0, A and B
    /// on slot 1, K on slot 2; region `r`'s slot `s` is actor
    /// `10 r + s`, and region `r` feeds S of region `r + 1`.
    fn three_regions() -> Vec<RegionWiring> {
        let (g, [s, ..]) = chain();
        let g = Arc::new(g);
        (0..3)
            .map(|r| RegionWiring {
                graph: Arc::clone(&g),
                op_slot: Arc::new(vec![0, 1, 1, 2]),
                slot_actors: Arc::new((0..3).map(|s| ActorId::from_index(10 * r + s)).collect()),
                downstream: if r < 2 { vec![(r + 1, s)] } else { vec![] },
                stopped: false,
            })
            .collect()
    }

    /// One link as `(src op, dst actor index, dst op)`.
    type Link = (u32, usize, u32);

    /// `(slot, links)` per sink slot.
    fn links_of(regions: &[RegionWiring], region: usize) -> Vec<(u32, Vec<Link>)> {
        let net = ActorId::from_index(99);
        resolve_inter_region(regions, region, net)
            .into_iter()
            .map(|(slot, links)| {
                assert!(links.iter().all(|l| l.net == net));
                let l = links
                    .iter()
                    .map(|l| (l.src_op.0, l.dst_actor.index(), l.dst_op.0));
                (slot, l.collect())
            })
            .collect()
    }

    #[test]
    fn inter_region_links_follow_the_chain() {
        let regions = three_regions();
        assert_eq!(links_of(&regions, 0), vec![(2, vec![(3, 10, 0)])]);
        assert_eq!(links_of(&regions, 1), vec![(2, vec![(3, 20, 0)])]);
        // The last region's sink slot gets an empty link set.
        assert_eq!(links_of(&regions, 2), vec![(2, vec![])]);
    }

    #[test]
    fn a_stopped_region_is_bypassed_transitively() {
        let mut regions = three_regions();
        regions[1].stopped = true;
        assert_eq!(links_of(&regions, 0), vec![(2, vec![(3, 20, 0)])]);
        assert_eq!(
            links_of(&regions, 1),
            vec![],
            "a stopped region publishes nothing"
        );
        regions[2].stopped = true;
        assert_eq!(links_of(&regions, 0), vec![(2, vec![])]);
    }

    #[test]
    fn a_rep2_downstream_gets_both_twin_inputs() {
        let mut regions = three_regions();
        // Region 1 runs two flows: ops 4..8 twin ops 0..4, on slots 3..6.
        let (mut g, _) = chain();
        let n = g.op_count() as u32;
        let kinds = [
            OpKind::Source,
            OpKind::Compute,
            OpKind::Compute,
            OpKind::Sink,
        ];
        let twins = kinds.map(|kind| g.add_op("twin", kind, relay));
        for w in twins.windows(2) {
            g.connect(w[0], w[1]);
        }
        regions[1].graph = Arc::new(g);
        regions[1].op_slot = Arc::new(vec![0, 1, 1, 2, 3, 4, 4, 5]);
        regions[1].slot_actors = Arc::new((0..6).map(|s| ActorId::from_index(10 + s)).collect());
        // Given twin first: the links still come in (region, op) order.
        regions[0].downstream = vec![(1, OpId(n)), (1, OpId(0))];
        assert_eq!(
            links_of(&regions, 0),
            vec![(2, vec![(3, 10, 0), (3, 13, n)])]
        );
        // Both of region 1's sinks publish, each on its own slot.
        assert_eq!(
            links_of(&regions, 1),
            vec![(2, vec![(3, 20, 0)]), (5, vec![(7, 20, 0)])]
        );
    }

    #[test]
    fn unassigned_sinks_are_skipped_and_links_keep_sink_then_region_order() {
        let mut regions = three_regions();
        // Region 0: a second sink K2 on K's slot, and an unassigned
        // third sink; it feeds regions 2 and 1, listed in that order.
        let (mut g, [_, _, b, _]) = chain();
        let k2 = g.add_op("K2", OpKind::Sink, relay);
        let k3 = g.add_op("K3", OpKind::Sink, relay);
        g.connect(b, k2);
        g.connect(b, k3);
        regions[0].graph = Arc::new(g);
        regions[0].op_slot = Arc::new(vec![0, 1, 1, 2, 2, u32::MAX]);
        regions[0].downstream = vec![(2, OpId(0)), (1, OpId(0))];
        assert_eq!(k2, OpId(4));
        assert_eq!(k3, OpId(5));
        assert_eq!(
            links_of(&regions, 0),
            vec![(2, vec![(3, 10, 0), (3, 20, 0), (4, 10, 0), (4, 20, 0)])]
        );
    }
}

#[cfg(test)]
mod squeeze_tests {
    use super::*;

    fn canonical() -> Placement {
        // Shape of the paper's BCP grouping: ops on slots 0..=5 of 8.
        Placement::from_op_slot(vec![0, 1, 1, 2, 3, 3, 4, 5, 5], 8)
    }

    #[test]
    fn squeeze_keeps_every_op_assigned_in_range() {
        for k in 1..8 {
            let sq = squeeze_placement(&canonical(), k);
            assert_eq!(sq.slots(), k);
            for &s in sq.op_slot() {
                assert!(s < k, "slot {s} out of range for {k} phones");
            }
        }
    }

    #[test]
    fn squeeze_preserves_stage_order() {
        let sq = squeeze_placement(&canonical(), 3);
        // Monotone: a later canonical slot never maps before an earlier
        // one, so upstream stages stay upstream.
        for w in sq.op_slot().windows(2) {
            if w[0] != u32::MAX && w[1] != u32::MAX {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn squeeze_is_identity_when_room_enough() {
        let sq = squeeze_placement(&canonical(), 8);
        assert_eq!(sq.op_slot(), canonical().op_slot());
        let sq = squeeze_placement(&canonical(), 12);
        assert_eq!(sq.op_slot(), canonical().op_slot());
        assert_eq!(sq.slots(), 12);
    }

    #[test]
    fn squeeze_keeps_one_group_per_phone_at_six_and_seven() {
        // Canonical assignment uses slots 0..=5: a 6- or 7-phone region
        // already fits one stage group per phone and must not be
        // compacted (only the idle tail shrinks).
        for k in [6, 7] {
            let sq = squeeze_placement(&canonical(), k);
            assert_eq!(sq.op_slot(), canonical().op_slot(), "k={k}");
            assert_eq!(sq.slots(), k);
        }
    }

    #[test]
    fn squeeze_keeps_unassigned_ops_unassigned() {
        let p = Placement::from_op_slot(vec![0, u32::MAX, 7], 8);
        let sq = squeeze_placement(&p, 4);
        assert_eq!(sq.op_slot(), &[0, u32::MAX, 3]);
    }
}
