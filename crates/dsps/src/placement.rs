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
//! the ping period, ping timeout and gather window constants. What to
//! ping, when a report is believed and how a replacement is brought up
//! stay protocol decisions of each controller.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use simkernel::{ActorId, SimDuration, SimTime};

use crate::graph::{OpId, QueryGraph};
use crate::node::{Install, InstallStates, UpdateRouting};

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
            slot_actors: self.slot_actors.to_vec(),
        }
    }

    /// The install that makes `slot`'s phone host what the table says
    /// it hosts, coming alive `ready_in` after it arrives.
    pub fn install_for(&self, slot: u32, states: InstallStates, ready_in: SimDuration) -> Install {
        Install {
            ops: self.ops_on(slot),
            states,
            op_slot: self.op_slot.clone(),
            slot_actors: self.slot_actors.to_vec(),
            ready_in,
        }
    }
}

/// When a control plane triggers checkpoint rounds.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointSchedule {
    /// Time between rounds ("the checkpoint period in MobiStreams is 5
    /// minutes", §IV).
    pub period: SimDuration,
    /// The first round's offset from the start.
    pub offset: SimDuration,
    /// Rounds at all (off = Table I's "fault tolerance function turned
    /// off").
    pub enabled: bool,
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
    /// Failed slots gathered for the next recovery. Open to the
    /// controllers because how slots get here besides [`Self::note`]
    /// is their protocol: a retry re-queues stuck slots without a
    /// detection time, a partition forgives the gathered ones.
    pub pending: BTreeSet<u32>,
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
        assert_eq!((ins.op_slot, ins.slot_actors), (vec![0, 2, 2, 3], actors));
        let routing = p.routing();
        assert_eq!(routing.op_slot, p.op_slot());
        assert_eq!(routing.slot_actors[3], p.actor(3));
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
