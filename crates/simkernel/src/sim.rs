//! The simulation event loop.
//!
//! [`Sim`] owns the clock, the pending-event queues, the actor table and
//! the RNG streams. Events are totally ordered by `(time, scheduling
//! order)` — so two events scheduled for the same instant are delivered
//! in the order they were scheduled, and runs are bit-for-bit
//! reproducible.
//!
//! # Sharded (parallel) mode
//!
//! A fresh `Sim` runs everything on one core, exactly as before. Once
//! the topology is known, [`Sim::enable_sharding`] partitions the actors
//! into a *global* shard 0 plus independent shards `1..n`, each with its
//! own event queue, clock and forked RNG stream. The contract the
//! caller must uphold: **actors in shard `i > 0` never send to actors in
//! shard `j > 0, j ≠ i`**, and every event chain from a shard-`i` send
//! back into any non-global shard passes through shard 0 with a total
//! delay of at least the configured *lookahead*.
//!
//! Under that contract the barrier loop in [`Sim::run_until`] is a
//! classical conservative parallel DES: shard 0 runs alone while it
//! holds the earliest event; otherwise all other shards run concurrently
//! inside per-shard windows no in-flight or future message can land
//! inside. Cross-shard sends are buffered in per-core outboxes and
//! merged at the barrier with a stable `(time, source shard, source
//! sequence)` tie-break, and every shard's RNG stream is forked
//! deterministically — so the result is **bit-for-bit identical
//! regardless of worker thread count**, and the thread count only
//! decides how the per-window work is scheduled onto OS threads.
//!
//! Four hot-path optimisations preserve that schedule exactly:
//!
//! * **Per-destination lookahead** ([`Sim::set_shard_bounds`]): instead
//!   of one global lookahead, each shard `d` carries a cross bound —
//!   the minimum delay of any chain from *another* region into `d`.
//!   Shard `d`'s window runs to `min(t_global, t_other(d) +
//!   cross(d))`, dynamically capped at its own earliest parked
//!   cross-shard send plus the lookahead (no chain leaving `d` through
//!   shard 0 comes back sooner) — so independent regions no longer
//!   synchronise on every cellular hop, and a region doing pure
//!   intra-region work runs unbounded until it actually talks to the
//!   core.
//! * **Cheap rounds** (`workers.rs`): only shards whose window
//!   holds an event are handed out, the calling thread runs them too
//!   alongside `threads - 1` warm helpers, and a round with fewer than
//!   two busy shards runs inline with no hand-off at all.
//! * **Pooled events** ([`crate::pool`]): intra-shard sends recycle
//!   generation-checked slab slots instead of heap-boxing every send;
//!   cross-shard sends are flattened to plain boxes so pool traffic
//!   never crosses shards — which is what lets the pool do without
//!   locks or atomics, and keeps free-list state independent of thread
//!   interleaving.
//! * **Radix-heap event queue** (`queue.rs`): 65 FIFO buckets keyed on
//!   the bits in which an event's time differs from the last pop's, so
//!   a push is an append, `peek_at` is O(1), and a broadcast's
//!   same-instant fan-out moves between buckets as one list. FIFO
//!   within an instant holds by construction; the queue relies on no
//!   push being earlier than the shard's clock, which the kernel
//!   guarantees.
//!
//! # Causality sanitizer
//!
//! The sharding contract is the caller's promise, and a silently broken
//! promise surfaces as a wrong digest hours later. The **causality
//! sanitizer** ([`Sim::enable_sanitizer`], on by default in debug
//! builds) turns violations into immediate, diagnosable panics at the
//! barrier: direct region-to-region sends, deliveries below a shard's
//! safe horizon, and non-monotone merge keys are all caught with the
//! offending event's type, actors and times in the message. It also
//! folds every shard's RNG draw count and event count into a rolling
//! per-window ledger ([`Sim::causality_report`]) so two runs of the
//! same seed can be checked for identical per-window stream
//! consumption — the earliest observable symptom of a schedule
//! divergence.

use std::sync::Arc;

use crate::actor::{Actor, ActorId};
use crate::event::Event;
use crate::pool::{EventBox, EventPool, PoolStats};
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::workers::Workers;
use crate::Fnv1a;

/// A cross-shard send, parked until the next barrier merge. The event
/// is always plain-backed (never pooled): `Core::push` flattens pooled
/// payloads before they enter an outbox, so slot recycling stays a
/// per-shard affair and is thread-count deterministic.
struct OutEntry {
    dest: u16,
    at: SimTime,
    /// Sender-side sequence number: together with the source shard id it
    /// gives merges a stable, thread-count-independent tie-break.
    src_seq: u64,
    to: ActorId,
    ev: EventBox,
}

/// One shard's mutable simulation internals, handed to actors via
/// [`Ctx`]. An unsharded [`Sim`] is exactly one `Core`.
pub(crate) struct Core {
    now: SimTime,
    /// Numbers this core's outbox entries (their `src_seq`).
    seq: u64,
    queue: EventQueue,
    rng: SimRng,
    events_processed: u64,
    event_limit: u64,
    /// Which shard this core is (0 until sharding is enabled).
    my_shard: u16,
    /// Global actor → owning shard map; empty until sharding is
    /// enabled, which routes everything locally.
    shard_of: Arc<[u16]>,
    /// Sends addressed to other shards, merged at the next barrier.
    outbox: Vec<OutEntry>,
    /// Earliest arrival time currently parked in `outbox` (`None` when
    /// empty). Windows may not run past it plus the relevant response
    /// bound: a parked send can provoke a reply back into this shard
    /// after as little as that bound (zero for shard 0's solo window),
    /// so advancing further would put the reply below the shard's
    /// clock (see `run_barrier`).
    outbox_min: Option<SimTime>,
    /// This shard's slab pool for intra-shard event allocations.
    pool: EventPool,
}

impl Core {
    /// Route an event, choosing its allocation by destination: pooled
    /// for the intra-shard hot path, plain heap box for cross-shard
    /// sends (pooled slots must never migrate between shards).
    fn push_typed<E: Event>(&mut self, at: SimTime, to: ActorId, ev: E) {
        let dest = self
            .shard_of
            .get(to.index())
            .copied()
            .unwrap_or(self.my_shard);
        let ev = if dest == self.my_shard {
            self.pool.make(ev)
        } else {
            EventBox::new(ev)
        };
        self.push_routed(at, to, dest, ev);
    }

    /// Route an already-boxed event (flattening pooled payloads that
    /// are about to cross a shard boundary).
    fn push(&mut self, at: SimTime, to: ActorId, ev: EventBox) {
        let dest = self
            .shard_of
            .get(to.index())
            .copied()
            .unwrap_or(self.my_shard);
        let ev = if dest == self.my_shard {
            ev
        } else {
            ev.into_plain()
        };
        self.push_routed(at, to, dest, ev);
    }

    fn push_routed(&mut self, at: SimTime, to: ActorId, dest: u16, ev: EventBox) {
        debug_assert!(to != ActorId::UNSET, "event scheduled to ActorId::UNSET");
        if dest == self.my_shard {
            self.queue.push(at, to, ev);
        } else {
            self.outbox_min = Some(self.outbox_min.map_or(at, |m| m.min(at)));
            self.outbox.push(OutEntry {
                dest,
                at,
                src_seq: self.seq,
                to,
                ev,
            });
            self.seq += 1;
        }
    }

    /// A stateless stand-in that sits in `Sim::cores` while the real
    /// core is in a worker slot for one round (and in the slot between
    /// rounds). Nothing reads it.
    pub(crate) fn placeholder() -> Core {
        Core {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::default(),
            rng: SimRng::new(0),
            events_processed: 0,
            event_limit: u64::MAX,
            my_shard: 0,
            shard_of: Arc::from([]),
            outbox: Vec::new(),
            outbox_min: None,
            pool: EventPool::new(),
        }
    }
}

/// Per-dispatch view of the simulation handed to [`Actor::on_event`].
pub struct Ctx<'a> {
    core: &'a mut Core,
    self_id: ActorId,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The actor currently being dispatched.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Deliver `ev` to `to` at the current instant (after all events
    /// already queued for this instant — FIFO within a timestamp).
    pub fn send(&mut self, to: ActorId, ev: impl Event) {
        self.core.push_typed(self.core.now, to, ev);
    }

    /// Deliver `ev` to `to` after `delay`.
    pub fn send_in(&mut self, delay: SimDuration, to: ActorId, ev: impl Event) {
        self.core.push_typed(self.core.now + delay, to, ev);
    }

    /// The simulation RNG (this shard's stream).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }
}

/// Rolling state of the runtime causality sanitizer (see the module
/// docs and [`Sim::enable_sanitizer`]).
struct Sanitizer {
    /// Barrier windows folded into the ledger so far.
    windows: u64,
    /// FNV-1a over `(window, shard, rng draws, events processed)`
    /// tuples, one per shard per barrier window.
    ledger: Fnv1a,
    /// Sharding-contract violations observed at merge time. Debug
    /// builds panic at the first one; release builds record and keep
    /// going so a long scenario run can finish and *report* the count
    /// (CI gates on it being zero).
    violations: u64,
}

impl Sanitizer {
    fn new() -> Self {
        Sanitizer {
            windows: 0,
            ledger: Fnv1a::default(),
            violations: 0,
        }
    }
}

/// Snapshot of the causality sanitizer's ledger, for cross-run
/// comparison: two runs of the same seed and topology must produce
/// identical reports, or their per-window RNG/event schedules diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalityReport {
    /// Barrier windows observed.
    pub windows: u64,
    /// Rolling digest of per-window, per-shard `(rng draws, events)`.
    pub ledger: u64,
    /// Sharding-contract violations recorded (always 0 in debug
    /// builds, which panic at the first violation instead). Nonzero
    /// means the run's results cannot be trusted; CI exits nonzero.
    pub violations: u64,
    /// Event-pool allocations served from recycled slots, summed over
    /// shards. A pure function of the schedule (pooled slots never
    /// cross shards), so it must match across thread counts.
    pub pool_recycled: u64,
    /// Event-pool generation mismatches (double free / aliased live
    /// slot). Any nonzero value is a kernel memory-safety bug; the
    /// stress suite asserts zero.
    pub pool_aliasing: u64,
}

/// Pop-and-dispatch `core`'s events while `at < strict_before` (if
/// set) and `at <= inclusive_until` (if set).
///
/// With `outbox_cap: Some(offset)`, the window also ends before any
/// event later than the earliest cross-shard arrival this very
/// window has parked (`Core::outbox_min`, re-checked after every
/// dispatch) plus `offset`. The global shard's solo window passes
/// `offset = 0`: its own sends can wake a region *earlier* than the
/// region's pending queue suggested, and the woken region may reply
/// into shard 0 with zero delay — so shard 0 must not advance past
/// any time at which such a reply could still arrive. Region
/// windows pass the lookahead: a parked send can provoke a reply back
/// into this shard no sooner than that after it leaves, which lets a
/// region with no parked sends run its whole window regardless of how
/// wide it is.
pub(crate) fn run_window(
    core: &mut Core,
    actors: &mut [Option<Box<dyn Actor>>],
    local_ix: &[u32],
    strict_before: Option<SimTime>,
    inclusive_until: Option<SimTime>,
    outbox_cap: Option<SimDuration>,
) {
    let _confined = core.pool.confine();
    while let Some(at) = core.queue.peek_at() {
        if let Some(w) = strict_before {
            if at >= w {
                break;
            }
        }
        if let Some(u) = inclusive_until {
            if at > u {
                break;
            }
        }
        if let Some(offset) = outbox_cap {
            if let Some(m) = core.outbox_min {
                // `at == m + offset` stays safe: a reply provoked
                // by the parked send arrives at `>= m + offset`,
                // never below this event's time.
                if at > m + offset {
                    break;
                }
            }
        }
        let Some((at, to, ev)) = core.queue.pop() else {
            break;
        };
        debug_assert!(at >= core.now, "time went backwards");
        core.now = at;
        core.events_processed += 1;
        assert!(
            core.events_processed <= core.event_limit,
            "event limit exceeded ({} events): runaway event loop?",
            core.event_limit
        );
        let ix = local_ix[to.index()] as usize;
        let mut actor = actors
            .get_mut(ix)
            // simlint::allow(P001): kernel-integrity invariant — an event addressed past the actor table means the shard map is corrupt; fail fast
            .unwrap_or_else(|| panic!("event for unknown {to:?}"))
            .take()
            // simlint::allow(P001): the slot is always restored after dispatch; a vacant slot here is kernel corruption, not an input error
            .unwrap_or_else(|| panic!("re-entrant dispatch to {to:?}"));
        actor.on_event(ev, &mut Ctx { core, self_id: to });
        actors[ix] = Some(actor);
    }
}

/// A discrete-event simulation: actor table + event queue(s) + clock(s).
pub struct Sim {
    cores: Vec<Core>,
    /// Actor storage, partitioned by shard. Before sharding everything
    /// lives in `shard_actors[0]`.
    shard_actors: Vec<Vec<Option<Box<dyn Actor>>>>,
    /// Global actor index → slot within its shard's actor vec.
    local_ix: Vec<u32>,
    /// Global actor index → owning shard (empty until sharded).
    shard_of: Arc<[u16]>,
    /// Threads taking part in the region-window phase, caller included.
    threads: usize,
    /// Minimum cross-boundary delay the topology guarantees.
    lookahead: SimDuration,
    /// Per-shard cross bounds: the minimum delay of any event chain
    /// from a send in *another* region shard to a delivery into this
    /// one (index = shard; `[0]` unused). Uniform (`lookahead`
    /// everywhere) until [`Sim::set_shard_bounds`].
    cross_bounds: Vec<SimDuration>,
    /// Widest window bound ever granted to each shard (index = shard).
    /// Maintained while the sanitizer is on; merged deliveries into a
    /// region below its horizon mean a configured bound overstated the
    /// real minimum delay — caught even when the delivery happens to
    /// land above the shard's current clock.
    horizons: Vec<SimTime>,
    /// Helper threads for region windows (threads > 1 only).
    workers: Option<Workers>,
    /// Barrier-round scratch, kept to avoid per-round allocation: each
    /// region's `(strict window end, outbox cap)`, the regions with an
    /// event inside their window, and the merge's per-destination
    /// inbound lists.
    plans: Vec<(Option<SimTime>, Option<SimDuration>)>,
    busy: Vec<usize>,
    inbound: Vec<Vec<OutEntry>>,
    /// Runtime causality checks; `Some` = enabled (default in debug
    /// builds), `None` = disabled.
    sanitizer: Option<Sanitizer>,
}

impl Sim {
    /// Create an empty simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            cores: vec![Core {
                now: SimTime::ZERO,
                seq: 0,
                queue: EventQueue::default(),
                rng: SimRng::new(seed),
                events_processed: 0,
                event_limit: u64::MAX,
                my_shard: 0,
                shard_of: Arc::from([]),
                outbox: Vec::new(),
                outbox_min: None,
                pool: EventPool::new(),
            }],
            shard_actors: vec![Vec::new()],
            local_ix: Vec::new(),
            shard_of: Arc::from([]),
            threads: 1,
            lookahead: SimDuration::ZERO,
            cross_bounds: Vec::new(),
            horizons: Vec::new(),
            workers: None,
            plans: Vec::new(),
            busy: Vec::new(),
            inbound: Vec::new(),
            sanitizer: if cfg!(debug_assertions) {
                Some(Sanitizer::new())
            } else {
                None
            },
        }
    }

    /// Turn on the runtime causality sanitizer (already on by default
    /// in debug builds). Every cross-shard delivery is checked against
    /// the destination shard's safe horizon, barrier merge keys must be
    /// strictly increasing, direct region-to-region sends panic with
    /// the offending event named, and per-shard RNG draw counts are
    /// folded into a per-window ledger ([`Sim::causality_report`]).
    /// Adds no events and no RNG draws, so the simulated schedule — and
    /// every report digest — is identical with the sanitizer on or off.
    pub fn enable_sanitizer(&mut self) {
        if self.sanitizer.is_none() {
            self.sanitizer = Some(Sanitizer::new());
        }
    }

    /// Turn the causality sanitizer off (e.g. for release-mode
    /// benchmarking of the bare kernel). Discards the ledger.
    pub fn disable_sanitizer(&mut self) {
        self.sanitizer = None;
    }

    /// Whether the causality sanitizer is active.
    pub fn sanitizer_enabled(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// The sanitizer's rolling window/ledger snapshot, `None` when the
    /// sanitizer is disabled. Two runs of the same seed and topology
    /// must agree on this report — compare it across runs (or across
    /// thread counts) to catch schedule divergence at the first window
    /// where per-shard RNG or event consumption differs.
    pub fn causality_report(&self) -> Option<CausalityReport> {
        self.sanitizer.as_ref().map(|s| {
            let pool = self.pool_stats();
            CausalityReport {
                windows: s.windows,
                ledger: s.ledger.finish(),
                violations: s.violations,
                pool_recycled: pool.recycled,
                pool_aliasing: pool.aliasing,
            }
        })
    }

    /// Event-pool counters summed over every shard's pool. Pooled slots
    /// never cross shards, so each component is a pure function of the
    /// schedule and must be identical across thread counts.
    pub fn pool_stats(&self) -> PoolStats {
        self.cores
            .iter()
            .fold(PoolStats::default(), |acc, c| acc.merge(c.pool.stats()))
    }

    /// Register an actor; returns its id. Ids are assigned densely in
    /// insertion order, which is part of the determinism contract.
    pub fn add_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        assert_eq!(
            self.cores.len(),
            1,
            "actors must be registered before enable_sharding"
        );
        let id = ActorId::from_index(self.local_ix.len());
        self.local_ix.push(self.shard_actors[0].len() as u32);
        self.shard_actors[0].push(Some(actor));
        id
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.local_ix.len()
    }

    /// Partition the simulation into a global shard 0 plus independent
    /// shards that may run on worker threads.
    ///
    /// `shard_of[i]` names the owning shard of actor `i`. The caller
    /// guarantees (a) non-global shards never message each other
    /// directly, and (b) any event chain from a non-global shard back
    /// into a non-global shard accumulates at least `lookahead` of
    /// delay while passing through shard 0. Violations are caught at
    /// merge time ("cross-shard message violates lookahead").
    ///
    /// The schedule this produces is a pure function of the seed and
    /// the event graph: `threads` only changes how window work is
    /// mapped onto OS threads, never the result.
    pub fn enable_sharding(&mut self, shard_of: Vec<u16>, lookahead: SimDuration, threads: usize) {
        assert_eq!(self.cores.len(), 1, "sharding already enabled");
        assert_eq!(shard_of.len(), self.local_ix.len(), "one shard per actor");
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative sharding needs lookahead > 0"
        );
        let n_shards = shard_of.iter().copied().max().map_or(1, |m| m as usize + 1);
        let shard_of: Arc<[u16]> = shard_of.into();
        self.shard_of = Arc::clone(&shard_of);
        self.cores[0].shard_of = Arc::clone(&shard_of);

        for s in 1..n_shards {
            // Deterministic per-shard RNG streams, forked from the root
            // stream in shard order.
            let rng = self.cores[0].rng.fork(s as u64);
            let now = self.cores[0].now;
            let event_limit = self.cores[0].event_limit;
            self.cores.push(Core {
                now,
                seq: 0,
                queue: EventQueue::default(),
                rng,
                events_processed: 0,
                event_limit,
                my_shard: s as u16,
                shard_of: Arc::clone(&shard_of),
                outbox: Vec::new(),
                outbox_min: None,
                pool: EventPool::new(),
            });
        }

        // Re-partition the actor table, keeping global-id order within
        // each shard.
        let flat = std::mem::take(&mut self.shard_actors[0]);
        self.shard_actors = (0..n_shards).map(|_| Vec::new()).collect();
        self.local_ix.clear();
        for (g, a) in flat.into_iter().enumerate() {
            let s = shard_of[g] as usize;
            self.local_ix.push(self.shard_actors[s].len() as u32);
            self.shard_actors[s].push(a);
        }

        // Hand each pending event to its owner in global (time, seq)
        // order, so per-shard FIFO order is preserved, flattening pooled
        // payloads that leave shard 0 (they were allocated from its
        // pool back when everything was local).
        let mut pending = std::mem::take(&mut self.cores[0].queue);
        while let Some((at, to, ev)) = pending.pop() {
            let d = shard_of[to.index()] as usize;
            let ev = if d == 0 { ev } else { ev.into_plain() };
            self.cores[d].queue.push(at, to, ev);
        }

        self.threads = threads.max(1);
        self.lookahead = lookahead;
        // Uniform bounds until `set_shard_bounds` widens them.
        self.cross_bounds = vec![lookahead; n_shards];
        self.horizons = vec![SimTime::ZERO; n_shards];
        // The caller is one of the `threads` participants.
        let regions = n_shards - 1;
        let helpers = self.threads.min(regions).saturating_sub(1);
        if helpers > 0 {
            self.workers = Some(Workers::new(helpers, regions, self.local_ix.clone()));
        }
    }

    /// Replace the uniform cross bounds installed by
    /// [`Sim::enable_sharding`] with per-destination ones: one per
    /// shard (index 0 is unused), each the minimum delay of any event
    /// chain from another region shard into that shard. Each must be a
    /// true conservative minimum for its shard or the causality
    /// sanitizer (and ultimately the merge assertion) will fire.
    pub fn set_shard_bounds(&mut self, cross_bounds: Vec<SimDuration>) {
        assert!(
            self.cores.len() > 1,
            "set_shard_bounds requires enable_sharding first"
        );
        assert_eq!(
            cross_bounds.len(),
            self.cores.len(),
            "one cross bound per shard"
        );
        for (i, b) in cross_bounds.iter().enumerate().skip(1) {
            assert!(
                *b > SimDuration::ZERO,
                "shard {i}: conservative bounds must be > 0"
            );
        }
        self.cross_bounds = cross_bounds;
    }

    /// Threads taking part in the region-window phase, caller
    /// included (1 until [`Sim::enable_sharding`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    #[cfg(test)]
    pub(crate) fn workers(&self) -> Option<&Workers> {
        self.workers.as_ref()
    }

    /// Current simulated time (shard 0's clock; all clocks agree after
    /// `run_until`).
    pub fn now(&self) -> SimTime {
        self.cores[0].now
    }

    /// Total events dispatched so far, across all shards.
    pub fn events_processed(&self) -> u64 {
        self.cores.iter().map(|c| c.events_processed).sum()
    }

    /// Abort (panic) if more than `limit` events are dispatched on any
    /// one shard — a guard against runaway event loops in tests.
    pub fn set_event_limit(&mut self, limit: u64) {
        for c in &mut self.cores {
            c.event_limit = limit;
        }
    }

    fn owner_of(&self, id: ActorId) -> usize {
        self.shard_of.get(id.index()).copied().unwrap_or(0) as usize
    }

    /// Schedule an event from outside any actor (setup code).
    pub fn schedule_at(&mut self, at: SimTime, to: ActorId, ev: impl Event) {
        let core = &mut self.cores[self.shard_of.get(to.index()).copied().unwrap_or(0) as usize];
        let at = at.max(core.now);
        core.push(at, to, EventBox::new(ev));
    }

    /// Schedule `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, to: ActorId, ev: impl Event) {
        let core = &mut self.cores[self.shard_of.get(to.index()).copied().unwrap_or(0) as usize];
        let at = core.now + delay;
        core.push(at, to, EventBox::new(ev));
    }

    /// Timestamp of the next pending event anywhere, if any.
    pub fn peek_next_time(&self) -> Option<SimTime> {
        self.cores
            .iter()
            .flat_map(|c| {
                c.queue
                    .peek_at()
                    .into_iter()
                    .chain(c.outbox.iter().map(|o| o.at))
            })
            .min()
    }

    /// Move every parked cross-shard send into its destination queue.
    /// Arrival order is the stable `(time, source shard, source seq)`
    /// sort, independent of which worker thread ran which shard.
    fn merge_outboxes(&mut self) {
        // An empty outbox has `outbox_min == None`, so there is nothing
        // to reset either.
        if self.cores.iter().all(|c| c.outbox.is_empty()) {
            return;
        }
        let n = self.cores.len();
        let sanitize = self.sanitizer.is_some();
        let lookahead = self.lookahead;
        // Violations are tallied locally (the sanitizer can't be
        // borrowed while the cores are) and folded in at the end. Debug
        // builds panic at the first one; release builds record so the
        // run completes and the report carries the count.
        let mut violations = 0u64;
        self.inbound.resize_with(n, Vec::new);
        for (src, core) in self.cores.iter_mut().enumerate() {
            core.outbox_min = None;
            for mut e in core.outbox.drain(..) {
                let d = e.dest as usize;
                if sanitize && src > 0 && d > 0 && d != src {
                    if cfg!(debug_assertions) {
                        // simlint::allow(P001): causality sanitizer — the sharding contract forbids region shards messaging each other directly
                        panic!(
                            "causality sanitizer: direct region-to-region send \
                             shard {src} -> shard {d} ({} for {:?} at {:?}); regions \
                             may only communicate through the global shard 0",
                            (*e.ev).type_name(),
                            e.to,
                            e.at,
                        );
                    }
                    violations += 1;
                }
                // Reuse `dest` to carry the source shard through the
                // sort; the vec index already names the destination.
                e.dest = src as u16;
                self.inbound[d].push(e);
            }
        }
        for (d, entries) in self.inbound.iter_mut().enumerate() {
            entries.sort_by_key(|a| (a.at, a.dest, a.src_seq));
            if sanitize {
                for w in entries.windows(2) {
                    let a = (w[0].at, w[0].dest, w[0].src_seq);
                    let b = (w[1].at, w[1].dest, w[1].src_seq);
                    if a >= b {
                        if cfg!(debug_assertions) {
                            // simlint::allow(P001): causality sanitizer — ambiguous merge keys mean the deterministic merge order is broken
                            panic!(
                                "causality sanitizer: merge keys into shard {d} are not \
                                 strictly increasing ({a:?} then {b:?}): duplicate \
                                 (source shard, source seq) pairs make the merge order \
                                 ambiguous"
                            );
                        }
                        violations += 1;
                    }
                }
            }
            let core = &mut self.cores[d];
            for e in entries.drain(..) {
                if sanitize && d > 0 {
                    if let Some(&h) = self.horizons.get(d) {
                        if e.at < h {
                            if cfg!(debug_assertions) {
                                // simlint::allow(P001): causality sanitizer — a delivery below the widest window ever granted means a configured cross bound overstated the real minimum delay
                                panic!(
                                    "causality sanitizer: cross-shard message into shard {d} \
                                     is below its widened horizon: {} from shard {} for {:?} \
                                     at {:?}, but windows up to {h:?} were already granted — \
                                     a configured cross bound exceeds the actual minimum \
                                     cross-shard delay of this event chain",
                                    (*e.ev).type_name(),
                                    e.dest,
                                    e.to,
                                    e.at,
                                );
                            }
                            violations += 1;
                        }
                    }
                }
                assert!(
                    e.at >= core.now,
                    "cross-shard message into shard {d} is below the shard's \
                     safe horizon: {} from shard {} for {:?} at {:?}, but the \
                     shard already ran to {:?} — the configured lookahead \
                     ({lookahead:?}) exceeds the actual minimum cross-shard \
                     delay of this event chain",
                    (*e.ev).type_name(),
                    e.dest,
                    e.to,
                    e.at,
                    core.now,
                );
                core.queue.push(e.at, e.to, e.ev);
            }
        }
        if violations > 0 {
            if let Some(s) = &mut self.sanitizer {
                s.violations += violations;
            }
        }
    }

    /// Run every non-global shard's window, each bounded by its own
    /// cross bound (∩ `<= until`); with helper threads, the busy
    /// ones run as one `workers.rs` round.
    ///
    /// Shard `d`'s static window is `min(t_g, t_other(d) + cross(d))`
    /// where `t_other(d)` is the earliest pending event of any *other*
    /// region: resident global events all sit at `>= t_g`, and any
    /// chain seeded by another region's window starts at its head and
    /// accumulates at least `cross(d)` before it can land in `d`.
    /// Chains seeded by `d`'s *own* sends are handled dynamically by
    /// the outbox cap (the lookahead past the earliest parked send),
    /// so a region doing pure intra-region work runs
    /// unbounded until it actually talks to the core. Progress is
    /// guaranteed: outboxes are empty at window start (the barrier
    /// merge drained them), so the earliest region's first event always
    /// dispatches.
    fn run_region_windows(&mut self, t_g: Option<SimTime>, until: Option<SimTime>) {
        let n = self.cores.len() - 1;
        // Earliest pending event per region, plus the min / second-min
        // needed to form each shard's "earliest OTHER region" time.
        let mut min1: Option<(SimTime, usize)> = None;
        let mut min2: Option<SimTime> = None;
        for (i, c) in self.cores[1..].iter().enumerate() {
            let Some(t) = c.queue.peek_at() else {
                continue;
            };
            match min1 {
                None => min1 = Some((t, i)),
                Some((m, _)) if t < m => {
                    min2 = Some(m);
                    min1 = Some((t, i));
                }
                Some(_) => min2 = Some(min2.map_or(t, |m2| m2.min(t))),
            }
        }
        self.plans.clear();
        self.plans.extend((0..n).map(|i| {
            let other = match min1 {
                Some((m, am)) if am != i => Some(m),
                _ => min2,
            };
            let cross = other.map(|t| t + self.cross_bounds[i + 1]);
            let w = match (t_g, cross) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            (w, Some(self.lookahead))
        }));
        let plans = &self.plans;

        // A region is busy when its head event lies inside its window.
        // Outboxes are empty at this point, so the outbox cap cannot
        // stop the first pop: `run_window` dispatches at least one
        // event for a busy region and none for any other, which makes
        // skipping the others exact.
        self.busy.clear();
        if self.workers.is_some() {
            self.busy.extend((0..n).filter(|&i| {
                self.cores[i + 1].queue.peek_at().is_some_and(|at| {
                    plans[i].0.is_none_or(|w| at < w) && until.is_none_or(|u| at <= u)
                })
            }));
        }
        match &mut self.workers {
            // Two or more busy regions: hand them out (the caller runs
            // its share too). Anything less runs inline below.
            Some(workers) if self.busy.len() > 1 => {
                // Slots are claimed from the top index down, so an
                // ascending sort starts the longest backlog first: a
                // round's critical path is usually one region's fan-out
                // burst, and the other participants absorb the small
                // regions meanwhile.
                self.busy.sort_by_key(|&i| self.cores[i + 1].queue.len());
                for (k, &i) in self.busy.iter().enumerate() {
                    let mut task = workers.slot(k);
                    task.swap_shard(&mut self.cores[i + 1], &mut self.shard_actors[i + 1]);
                    (task.strict_before, task.outbox_cap) = plans[i];
                    task.until = until;
                }
                let panic = workers.run_round(self.busy.len());
                // Every shard comes back before a caught actor panic is
                // re-thrown, whichever participant it happened on.
                for (k, &i) in self.busy.iter().enumerate() {
                    workers
                        .slot(k)
                        .swap_shard(&mut self.cores[i + 1], &mut self.shard_actors[i + 1]);
                }
                if let Some(payload) = panic {
                    std::panic::resume_unwind(payload);
                }
            }
            _ => {
                for (i, (core, actors)) in self.cores[1..]
                    .iter_mut()
                    .zip(self.shard_actors[1..].iter_mut())
                    .enumerate()
                {
                    run_window(core, actors, &self.local_ix, plans[i].0, until, plans[i].1);
                }
            }
        }

        if self.sanitizer.is_some() {
            // Ratchet each shard's widest effective horizon: the window
            // really granted is the static bound clipped by `until` and
            // by the dynamic outbox cap (whose final value is visible
            // in `outbox_min` now that the window is over). All-None
            // means the shard ran to exhaustion — its queue emptied, so
            // no horizon was promised and none is recorded.
            for (i, plan) in plans.iter().enumerate().take(n) {
                let core = &self.cores[i + 1];
                let cap = core.outbox_min.map(|m| m + self.lookahead);
                // Deliveries at exactly a cap time are legal (ties are
                // broken by merge seq), so every term — strict window,
                // inclusive until, outbox cap — yields the same check:
                // a violation is a delivery strictly below it.
                let eff = [plan.0, until, cap].into_iter().flatten().min();
                if let Some(e) = eff {
                    if e > self.horizons[i + 1] {
                        self.horizons[i + 1] = e;
                    }
                }
            }
        }
    }

    /// The conservative barrier loop (see the module docs). `None`
    /// runs to event exhaustion.
    fn run_barrier(&mut self, until: Option<SimTime>) {
        loop {
            self.merge_outboxes();
            let t_g = self.cores[0].queue.peek_at();
            let t_r = self.cores[1..]
                .iter()
                .filter_map(|c| c.queue.peek_at())
                .min();
            let next = match (t_g, t_r) {
                (Some(g), Some(r)) => Some(g.min(r)),
                (g, r) => g.or(r),
            };
            let Some(next) = next else { break };
            if let Some(u) = until {
                if next > u {
                    break;
                }
            }
            let global_first = match (t_g, t_r) {
                (Some(g), Some(r)) => g <= r,
                (Some(_), None) => true,
                _ => false,
            };
            match t_r {
                Some(_) if !global_first => {
                    // Every region runs a window bounded by its own
                    // cross bound (see `run_region_windows`).
                    self.run_region_windows(t_g, until);
                }
                _ => {
                    // Shard 0 runs alone while it holds the earliest
                    // event. Anything a region's *pending* events can
                    // send it arrives at `>= t_r`, so `<= t_r` is safe
                    // — but only until shard 0's own sends wake a
                    // region earlier than `t_r`. The zero-offset
                    // outbox cap ends the window at the first such
                    // wake time, because the woken region's zero-delay
                    // reply lands right back at it.
                    let bound = match (t_r, until) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    run_window(
                        &mut self.cores[0],
                        &mut self.shard_actors[0],
                        &self.local_ix,
                        None,
                        bound,
                        Some(SimDuration::ZERO),
                    );
                }
            }
            if let Some(s) = &mut self.sanitizer {
                // Fold every shard's cumulative RNG draw count and event
                // count into the per-window ledger: two runs of the same
                // seed must agree on this at every single window, so a
                // diverging schedule is pinned to the first window where
                // stream consumption differs.
                let window = s.windows;
                s.windows += 1;
                s.ledger.mix(window);
                for (i, c) in self.cores.iter().enumerate() {
                    s.ledger.mix(i as u64);
                    s.ledger.mix(c.rng.draw_count());
                    s.ledger.mix(c.events_processed);
                }
            }
        }
        if let Some(u) = until {
            for c in &mut self.cores {
                if c.now < u {
                    c.now = u;
                }
            }
        }
    }

    /// Run until every event queue is empty.
    pub fn run(&mut self) {
        self.run_barrier(None);
    }

    /// Process every event with timestamp `<= until`, then advance all
    /// clocks to exactly `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.run_barrier(Some(until));
    }

    /// Borrow an actor, downcast to its concrete type (post-run harvest).
    ///
    /// Panics if the id is unknown or the type does not match; use
    /// [`Sim::try_actor`] for the fallible variant.
    pub fn actor<T: Actor>(&self, id: ActorId) -> &T {
        self.shard_actors[self.owner_of(id)][self.local_ix[id.index()] as usize]
            .as_ref()
            // simlint::allow(P001): documented harvest-time API, never on the event path; try_actor is the fallible variant
            .unwrap_or_else(|| panic!("{id:?} is mid-dispatch"))
            .as_any()
            .downcast_ref::<T>()
            // simlint::allow(P001): documented harvest-time API, never on the event path; try_actor is the fallible variant
            .unwrap_or_else(|| panic!("{id:?} is not a {}", std::any::type_name::<T>()))
    }

    /// Mutable variant of [`Sim::actor`].
    pub fn actor_mut<T: Actor>(&mut self, id: ActorId) -> &mut T {
        let shard = self.owner_of(id);
        self.shard_actors[shard][self.local_ix[id.index()] as usize]
            .as_mut()
            // simlint::allow(P001): documented harvest-time API, never on the event path; try_actor is the fallible variant
            .unwrap_or_else(|| panic!("{id:?} is mid-dispatch"))
            .as_any_mut()
            .downcast_mut::<T>()
            // simlint::allow(P001): documented harvest-time API, never on the event path; try_actor is the fallible variant
            .unwrap_or_else(|| panic!("{id:?} is not a {}", std::any::type_name::<T>()))
    }

    /// Try to borrow an actor as `T`; `None` on type mismatch.
    pub fn try_actor<T: Actor>(&self, id: ActorId) -> Option<&T> {
        let ix = id.index();
        if ix >= self.local_ix.len() {
            return None;
        }
        self.shard_actors[self.owner_of(id)]
            .get(self.local_ix[ix] as usize)?
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_actor_any;

    #[derive(Debug)]
    struct Ball {
        bounce: u32,
    }

    struct Paddle {
        peer: ActorId,
        hits: u32,
        max: u32,
        times: Vec<SimTime>,
    }

    impl Actor for Paddle {
        fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
            // Typed dispatch: a mis-routed event yields a MisroutedEvent
            // naming both types instead of an opaque expect message.
            let ball = ev.downcast_expected::<Ball>().unwrap();
            self.hits += 1;
            self.times.push(ctx.now());
            if ball.bounce < self.max {
                ctx.send_in(
                    SimDuration::from_millis(10),
                    self.peer,
                    Ball {
                        bounce: ball.bounce + 1,
                    },
                );
            }
        }
        impl_actor_any!();
    }

    fn ping_pong(max: u32) -> (Sim, ActorId, ActorId) {
        let mut sim = Sim::new(1);
        let a = sim.add_actor(Box::new(Paddle {
            peer: ActorId::UNSET,
            hits: 0,
            max,
            times: vec![],
        }));
        let b = sim.add_actor(Box::new(Paddle {
            peer: a,
            hits: 0,
            max,
            times: vec![],
        }));
        sim.actor_mut::<Paddle>(a).peer = b;
        sim.schedule_at(SimTime::ZERO, a, Ball { bounce: 0 });
        (sim, a, b)
    }

    #[test]
    fn ping_pong_counts_and_times() {
        let (mut sim, a, b) = ping_pong(4);
        sim.run();
        // bounce 0 -> a, 1 -> b, 2 -> a, 3 -> b, 4 -> a (max reached)
        assert_eq!(sim.actor::<Paddle>(a).hits, 3);
        assert_eq!(sim.actor::<Paddle>(b).hits, 2);
        assert_eq!(sim.now(), SimTime::from_millis(40));
        assert_eq!(
            sim.actor::<Paddle>(a).times,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(20),
                SimTime::from_millis(40)
            ]
        );
    }

    #[derive(Debug)]
    struct Tag(u32);

    #[derive(Default)]
    struct Recorder {
        seen: Vec<u32>,
    }

    impl Actor for Recorder {
        fn on_event(&mut self, ev: EventBox, _ctx: &mut Ctx) {
            self.seen.push(ev.downcast_expected::<Tag>().unwrap().0);
        }
        impl_actor_any!();
    }

    #[test]
    fn same_time_events_fifo() {
        let mut sim = Sim::new(0);
        let r = sim.add_actor(Box::<Recorder>::default());
        for i in 0..5 {
            sim.schedule_at(SimTime::from_secs(1), r, Tag(i));
        }
        sim.run();
        assert_eq!(sim.actor::<Recorder>(r).seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_until_is_inclusive_and_advances_clock() {
        let mut sim = Sim::new(0);
        let r = sim.add_actor(Box::<Recorder>::default());
        sim.schedule_at(SimTime::from_secs(1), r, Tag(1));
        sim.schedule_at(SimTime::from_secs(2), r, Tag(2));
        sim.schedule_at(SimTime::from_secs(3), r, Tag(3));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.actor::<Recorder>(r).seen, vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        // Clock advances to the target even with no events.
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.now(), SimTime::from_secs(10));
        assert_eq!(sim.actor::<Recorder>(r).seen, vec![1, 2, 3]);
    }

    #[test]
    fn determinism_across_runs() {
        let (mut s1, a1, _) = ping_pong(20);
        let (mut s2, a2, _) = ping_pong(20);
        s1.run();
        s2.run();
        assert_eq!(s1.actor::<Paddle>(a1).times, s2.actor::<Paddle>(a2).times);
        assert_eq!(s1.events_processed(), s2.events_processed());
    }

    #[test]
    #[should_panic(expected = "event limit exceeded")]
    fn event_limit_catches_runaway() {
        struct Loopy;
        impl Actor for Loopy {
            fn on_event(&mut self, _ev: EventBox, ctx: &mut Ctx) {
                let me = ctx.self_id();
                ctx.send(me, Tag(0));
            }
            impl_actor_any!();
        }
        let mut sim = Sim::new(0);
        let l = sim.add_actor(Box::new(Loopy));
        sim.set_event_limit(1000);
        sim.schedule_at(SimTime::ZERO, l, Tag(0));
        sim.run();
    }

    #[test]
    fn harvest_downcasts() {
        let mut sim = Sim::new(0);
        let r = sim.add_actor(Box::<Recorder>::default());
        assert!(sim.try_actor::<Recorder>(r).is_some());
        assert!(sim.try_actor::<Loud>(r).is_none());

        struct Loud;
        impl Actor for Loud {
            fn on_event(&mut self, _: EventBox, _: &mut Ctx) {}
            impl_actor_any!();
        }
    }

    // ---- sharded-kernel tests -------------------------------------

    /// A hub on shard 0 plus one echoer per region shard. The hub
    /// round-robins pings; every hop crosses the shard boundary with a
    /// delay >= the lookahead, so the barrier loop must deliver the
    /// same schedule as the sequential kernel.
    #[derive(Debug)]
    struct Ping(u32);

    struct Hub {
        peers: Vec<ActorId>,
        rounds: u32,
        replies: u32,
        log: Vec<(SimTime, u32)>,
    }

    impl Actor for Hub {
        fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
            let p = ev.downcast_expected::<Ping>().unwrap();
            self.log.push((ctx.now(), p.0));
            // Advance to the next round once every peer has replied
            // (the kickoff Ping(0) opens round 1 immediately).
            let advance = if p.0 == 0 {
                true
            } else {
                self.replies += 1;
                self.replies == self.peers.len() as u32
            };
            if advance && p.0 < self.rounds {
                self.replies = 0;
                for &peer in &self.peers {
                    ctx.send_in(SimDuration::from_millis(5), peer, Ping(p.0 + 1));
                }
            }
        }
        impl_actor_any!();
    }

    struct Echo {
        hub: ActorId,
        jitter_ms: u64,
        seen: Vec<(SimTime, u32, u64)>,
    }

    impl Actor for Echo {
        fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
            let p = ev.downcast_expected::<Ping>().unwrap();
            // Draw from this shard's RNG stream: thread-count
            // independence must hold even with randomness in play.
            let draw = ctx.rng().range_u64(0, 100);
            self.seen.push((ctx.now(), p.0, draw));
            let d = SimDuration::from_millis(self.jitter_ms + draw / 20);
            ctx.send_in(d, self.hub, Ping(p.0));
        }
        impl_actor_any!();
    }

    fn sharded_setup(regions: usize, threads: usize) -> (Sim, ActorId, Vec<ActorId>) {
        let mut sim = Sim::new(42);
        let hub = sim.add_actor(Box::new(Hub {
            peers: vec![],
            rounds: 20,
            replies: 0,
            log: vec![],
        }));
        let echoes: Vec<ActorId> = (0..regions)
            .map(|r| {
                sim.add_actor(Box::new(Echo {
                    hub,
                    jitter_ms: 5 + r as u64,
                    seen: vec![],
                }))
            })
            .collect();
        sim.actor_mut::<Hub>(hub).peers = echoes.clone();
        sim.schedule_at(SimTime::ZERO, hub, Ping(0));
        // Shard 0 = hub; shard r+1 = echo r. Every hop carries >= 5 ms.
        let mut shard_of = vec![0u16];
        shard_of.extend((0..regions).map(|r| r as u16 + 1));
        sim.enable_sharding(shard_of, SimDuration::from_millis(5), threads);
        (sim, hub, echoes)
    }

    #[test]
    fn sharded_run_crosses_boundaries() {
        let (mut sim, hub, echoes) = sharded_setup(3, 1);
        sim.run();
        let log = &sim.actor::<Hub>(hub).log;
        // Round 0 once, then 3 replies per round for rounds 1..=20.
        assert_eq!(log.len(), 1 + 3 * 20);
        for &e in &echoes {
            assert_eq!(sim.actor::<Echo>(e).seen.len(), 20);
        }
        assert_eq!(sim.events_processed(), 61 + 60);
    }

    #[test]
    fn thread_count_is_invisible_in_results() {
        let (mut s1, hub1, ech1) = sharded_setup(5, 1);
        let (mut s4, hub4, ech4) = sharded_setup(5, 4);
        s1.run();
        s4.run();
        assert_eq!(s1.actor::<Hub>(hub1).log, s4.actor::<Hub>(hub4).log);
        for (&e1, &e4) in ech1.iter().zip(&ech4) {
            assert_eq!(s1.actor::<Echo>(e1).seen, s4.actor::<Echo>(e4).seen);
        }
        assert_eq!(s1.events_processed(), s4.events_processed());
    }

    #[test]
    fn sharded_run_until_advances_all_clocks() {
        let (mut sim, _, _) = sharded_setup(2, 2);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // Harvest still works after the barrier run: every shard's
        // clock (observable via a zero-delay schedule + run) is at 5 s.
        assert!(sim.peek_next_time().is_none());
    }

    #[test]
    fn sharded_events_preserve_scheduling_fifo() {
        let mut sim = Sim::new(0);
        let r0 = sim.add_actor(Box::<Recorder>::default());
        let r1 = sim.add_actor(Box::<Recorder>::default());
        for i in 0..4 {
            sim.schedule_at(SimTime::from_secs(1), r0, Tag(i));
            sim.schedule_at(SimTime::from_secs(1), r1, Tag(i + 10));
        }
        sim.enable_sharding(vec![0, 1], SimDuration::from_millis(1), 2);
        sim.run();
        assert_eq!(sim.actor::<Recorder>(r0).seen, vec![0, 1, 2, 3]);
        assert_eq!(sim.actor::<Recorder>(r1).seen, vec![10, 11, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "lookahead > 0")]
    fn sharding_rejects_zero_lookahead() {
        let mut sim = Sim::new(0);
        sim.add_actor(Box::<Recorder>::default());
        sim.enable_sharding(vec![0], SimDuration::ZERO, 2);
    }

    // ---- causality sanitizer tests --------------------------------

    /// Self-ticks every `period` until `stop`, so its shard's clock
    /// runs ahead inside each barrier window.
    struct Ticker {
        period: SimDuration,
        stop: SimTime,
    }

    impl Actor for Ticker {
        fn on_event(&mut self, _ev: EventBox, ctx: &mut Ctx) {
            if ctx.now() < self.stop {
                let me = ctx.self_id();
                ctx.send_in(self.period, me, Tag(0));
            }
        }
        impl_actor_any!();
    }

    /// Forwards anything it receives to `dst` after `delay`.
    struct Relay {
        dst: ActorId,
        delay: SimDuration,
    }

    impl Actor for Relay {
        fn on_event(&mut self, _ev: EventBox, ctx: &mut Ctx) {
            ctx.send_in(self.delay, self.dst, Tag(1));
        }
        impl_actor_any!();
    }

    /// A relay on the global shard that forwards into a region with a
    /// delay far below the claimed lookahead: the merged delivery
    /// (6.5 ms) lands below the horizon the region was already granted
    /// but above the region's clock (its last tick, 6 ms), so only the
    /// sanitizer's widened-horizon check can name it — the kernel's
    /// always-on below-the-clock assert stays quiet, and a release
    /// build runs on to report the violation.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "below its widened horizon"))]
    fn sanitizer_catches_below_horizon_delivery() {
        let mut sim = Sim::new(0);
        // Shard 0: relay that turns a region message around in 0.5 ms —
        // far below the 5 ms lookahead the sharding call claims.
        let relay = sim.add_actor(Box::new(Relay {
            dst: ActorId::UNSET,
            delay: SimDuration::from_micros(500),
        }));
        // Shard 1: ticks at 0, 6, 12 ms, ... — granted the window to
        // 10 ms, its clock stops at 6 ms.
        let ticker = sim.add_actor(Box::new(Ticker {
            period: SimDuration::from_millis(6),
            stop: SimTime::from_millis(50),
        }));
        // Shard 2: fires one message at the relay at t = 5 ms.
        let source = sim.add_actor(Box::new(Relay {
            dst: relay,
            delay: SimDuration::from_millis(1),
        }));
        sim.actor_mut::<Relay>(relay).dst = ticker;
        sim.schedule_at(SimTime::ZERO, ticker, Tag(0));
        sim.schedule_at(SimTime::from_millis(5), source, Tag(0));
        sim.enable_sharding(vec![0, 1, 2], SimDuration::from_millis(5), 1);
        sim.enable_sanitizer();
        sim.run_until(SimTime::from_millis(50));
        assert_recorded_violation(&sim);
    }

    /// Release builds record a violation and run on where debug builds
    /// panic at it; the `should_panic` tests end here when they do.
    fn assert_recorded_violation(sim: &Sim) {
        let report = sim.causality_report().expect("sanitizer enabled");
        assert!(report.violations > 0, "no violation recorded: {report:?}");
    }

    /// A region actor that messages another region directly violates
    /// the sharding contract even when the timestamps happen to be
    /// safe; the sanitizer catches it at the first merge.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "region-to-region"))]
    fn sanitizer_catches_direct_region_to_region_send() {
        let mut sim = Sim::new(0);
        let _hub = sim.add_actor(Box::<Recorder>::default());
        let a = sim.add_actor(Box::new(Relay {
            dst: ActorId::UNSET,
            delay: SimDuration::from_secs(1), // plenty of delay: still illegal
        }));
        let b = sim.add_actor(Box::<Recorder>::default());
        sim.actor_mut::<Relay>(a).dst = b;
        sim.schedule_at(SimTime::from_millis(1), a, Tag(0));
        sim.enable_sharding(vec![0, 1, 2], SimDuration::from_millis(5), 1);
        sim.enable_sanitizer();
        sim.run();
        assert_recorded_violation(&sim);
    }

    /// The ledger is a pure function of the schedule: 1-thread and
    /// 4-thread runs of the same seed agree window for window, and the
    /// sanitizer adds no events or RNG draws of its own.
    #[test]
    fn sanitizer_ledger_is_thread_count_invariant() {
        let (mut s1, _, _) = sharded_setup(5, 1);
        let (mut s4, _, _) = sharded_setup(5, 4);
        s1.enable_sanitizer();
        s4.enable_sanitizer();
        s1.run();
        s4.run();
        let r1 = s1.causality_report().expect("sanitizer enabled");
        let r4 = s4.causality_report().expect("sanitizer enabled");
        assert!(r1.windows > 0, "barrier loop must fold windows");
        assert_eq!(r1, r4, "per-window RNG/event ledger diverged");
        assert_eq!(r1.violations, 0, "clean schedule must record none");

        // A structurally different schedule folds different counts.
        let (mut other, _, _) = sharded_setup(3, 1);
        other.enable_sanitizer();
        other.run();
        let ro = other.causality_report().expect("sanitizer enabled");
        assert_ne!(r1.ledger, ro.ledger, "different schedules must differ");
    }

    /// Disabling the sanitizer removes the checks and the report but
    /// cannot change the simulated schedule.
    #[test]
    fn sanitizer_toggle_never_changes_results() {
        let (mut on, hub_on, _) = sharded_setup(3, 1);
        on.enable_sanitizer();
        let (mut off, hub_off, _) = sharded_setup(3, 1);
        off.disable_sanitizer();
        on.run();
        off.run();
        assert!(on.sanitizer_enabled());
        assert!(!off.sanitizer_enabled());
        assert!(off.causality_report().is_none());
        assert_eq!(
            on.actor::<Hub>(hub_on).log,
            off.actor::<Hub>(hub_off).log,
            "sanitizer must be observation-only"
        );
        assert_eq!(on.events_processed(), off.events_processed());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::impl_actor_any;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    struct Stamp(u64);

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, u64)>,
    }

    impl Actor for Recorder {
        fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
            let s = ev.downcast_expected::<Stamp>().unwrap();
            self.seen.push((ctx.now(), s.0));
        }
        impl_actor_any!();
    }

    proptest! {
        /// Events are delivered in nondecreasing time order, and events
        /// scheduled for the same instant keep their scheduling order.
        #[test]
        fn prop_dispatch_order(times in prop::collection::vec(0u64..50, 1..60)) {
            let mut sim = Sim::new(0);
            let r = sim.add_actor(Box::<Recorder>::default());
            for (i, &t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_millis(t), r, Stamp(i as u64));
            }
            sim.run();
            let seen = &sim.actor::<Recorder>(r).seen;
            prop_assert_eq!(seen.len(), times.len());
            for w in seen.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "time monotone");
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1, "FIFO within an instant");
                }
            }
            // Every event arrived at its scheduled time.
            for &(at, ix) in seen {
                prop_assert_eq!(at, SimTime::from_millis(times[ix as usize]));
            }
        }
    }
}
