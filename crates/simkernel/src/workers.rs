//! The region-window round protocol: how one barrier round's busy
//! shards are run by `threads` participants.
//!
//! A *round* is the set of region shards whose windows hold at least
//! one event ([`crate::sim::Sim`] decides which, and runs rounds with
//! fewer than two of them inline without coming here). The calling
//! thread is itself a participant: [`Workers`] spawns `threads - 1`
//! helper threads, and [`Workers::run_round`] publishes the round,
//! drains tasks alongside the helpers, and returns when the last task
//! has finished. Which participant runs which shard cannot affect
//! results — every shard has its own RNG stream and event pool, and
//! cross-shard sends are merged in a stable `(time, source shard,
//! source seq)` order afterwards.
//!
//! # Invariants
//!
//! * **The claim word** is one `AtomicU64` holding `epoch << 32 |
//!   unclaimed`. Only the caller stores to it, and only between rounds
//!   (the previous round's `pending` count has reached zero, so every
//!   task is finished and `unclaimed` is zero): it bumps the epoch and
//!   sets `unclaimed` to the number of tasks it has just placed in
//!   `slots[..unclaimed]`. Every other write is a participant's CAS
//!   from `(e, i)` to `(e, i - 1)` with `i > 0`, which makes it the
//!   sole owner of `slots[i - 1]` for round `e`.
//! * **No claim crosses rounds.** A CAS succeeds only against the exact
//!   word the participant loaded, epoch included. A straggler that
//!   loaded `(n, i)` and was descheduled until round `n + 1` is under
//!   way compares against `(n + 1, _)` and fails, reloads, and claims
//!   (if anything is left) in the round that is actually running. The
//!   epoch is 32 bits: a wrong success needs the straggler to stay
//!   descheduled for exactly 2³² whole rounds.
//! * **Completion** is one counter, `pending`, set to the task count
//!   before the claim word is published and decremented once per
//!   finished task. Slot contents are additionally guarded by their
//!   own (never contended) mutex, so task state is handed between
//!   threads by lock/unlock pairs, not by the atomics.
//! * **Sleeper flag / notify ordering** ([`Parker`]). A waiter that has
//!   exhausted its spin and yield budget takes the parker's lock,
//!   increments `sleepers`, re-checks its condition and only then
//!   waits. A waker first makes the condition true (publishing the
//!   claim word, decrementing `pending`, setting `shutdown`), then
//!   reads `sleepers`, and only if it is non-zero takes the lock and
//!   notifies. All four accesses are `SeqCst`, so either the waiter's
//!   re-check sees the condition, or the waker's read sees the sleeper
//!   — and then the waker's lock acquisition orders its notify after
//!   the waiter has atomically released the lock into `Condvar::wait`.
//!   A wake-up cannot be lost; an uncontended round makes no syscall.
//! * **Panics** in actor code are caught on whichever participant ran
//!   the task — helpers *and* the caller — and the first payload is
//!   stashed. The caller re-throws it only after the round has
//!   finished and [`crate::sim::Sim`] has moved every shard back out of
//!   the slots, so no shard state is lost to a mid-round unwind and the
//!   helpers stay usable.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::actor::Actor;
use crate::sim::{run_window, Core};
use crate::time::{SimDuration, SimTime};

/// `spin_loop` iterations a waiter burns before it starts yielding
/// (≈ 50 µs on the 2.1 GHz Xeon sandbox; 10–300 µs across CPUs, whose
/// `pause` latency differs by an order of magnitude).
///
/// Covers the common gaps without a syscall: between two busy rounds
/// the caller only merges outboxes and plans windows, and a helper
/// usually finishes its last task within microseconds of the caller's.
/// Longer gaps (a solo global-shard window, a run of inline rounds)
/// fall through to the yield phase.
const SPIN_ITERS: u32 = 1 << 12;

/// `yield_now` calls after the spin phase, before parking (≈ 0.3 µs
/// each on an idle core, so ≈ 1.2 ms in total on the sandbox).
///
/// On an idle core a yield returns at once, so this phase is a slower
/// spin that still catches the next round without a futex round trip;
/// on an oversubscribed host it hands the core to a participant that
/// has a task, which is why most of the budget is spent here and not
/// in `SPIN_ITERS`. Measured on `stadium-2t` (2 vCPUs, `run_s`): 2⁷
/// yields 1.29 s, 2¹⁰ 1.02–1.12 s, 2¹² 1.04 s — most of the gain over
/// the old condvar round trip is structural and the curve is flat by
/// here, so the budget stays at about a millisecond. Past it the
/// waiter parks: an idle pool costs nothing.
const YIELD_ITERS: u32 = 1 << 12;

const UNCLAIMED_MASK: u64 = u32::MAX as u64;

/// Keeps a hot atomic on a cache line of its own.
#[repr(align(64))]
struct Padded<T>(T);

/// Lock a mutex, tolerating poison. Slot guards are taken outside the
/// `catch_unwind` that wraps actor code and parker locks guard `()`,
/// so no guard is ever dropped mid-unwind with data half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Spin, then yield, then park until a condition holds (see the
/// module docs for the ordering argument).
struct Parker {
    sleepers: AtomicU32,
    lock: Mutex<()>,
    cv: Condvar,
    /// Times a waiter actually blocked on the condvar.
    #[cfg(test)]
    parks: AtomicU64,
}

impl Parker {
    fn new() -> Parker {
        Parker {
            sleepers: AtomicU32::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            #[cfg(test)]
            parks: AtomicU64::new(0),
        }
    }

    /// Block until `ready()`; `ready` must read with `SeqCst`.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        for _ in 0..SPIN_ITERS {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELD_ITERS {
            if ready() {
                return;
            }
            std::thread::yield_now();
        }
        let mut guard = lock(&self.lock);
        self.sleepers.fetch_add(1, SeqCst);
        while !ready() {
            #[cfg(test)]
            self.parks.fetch_add(1, SeqCst);
            guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
        self.sleepers.fetch_sub(1, SeqCst);
    }

    /// Wake parked waiters. Call after the `SeqCst` write that made
    /// their condition true.
    fn wake(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            drop(lock(&self.lock));
            self.cv.notify_all();
        }
    }
}

/// One region shard's state and window, placed in a slot for one round.
pub(crate) struct ShardTask {
    core: Core,
    actors: Vec<Option<Box<dyn Actor>>>,
    pub(crate) strict_before: Option<SimTime>,
    pub(crate) until: Option<SimTime>,
    pub(crate) outbox_cap: Option<SimDuration>,
}

impl ShardTask {
    /// Exchange the slot's contents with the caller's: shard state in
    /// (placeholder out) before a round, and back again after it.
    pub(crate) fn swap_shard(&mut self, core: &mut Core, actors: &mut Vec<Option<Box<dyn Actor>>>) {
        std::mem::swap(&mut self.core, core);
        std::mem::swap(&mut self.actors, actors);
    }
}

struct Shared {
    /// `epoch << 32 | unclaimed` (module docs).
    claim: Padded<AtomicU64>,
    /// Tasks of the current round not yet finished.
    pending: Padded<AtomicU32>,
    shutdown: AtomicBool,
    /// `slots[..unclaimed]` hold the round's tasks; the rest (and all
    /// of them between rounds) hold stateless placeholders.
    slots: Vec<Mutex<ShardTask>>,
    /// Global actor index → slot within its shard's actor vec (fixed
    /// after `enable_sharding`).
    local_ix: Vec<u32>,
    /// First panic caught in actor code this round.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Helpers waiting for a round (or shutdown).
    idle: Parker,
    /// The caller waiting for `pending == 0`.
    done: Parker,
}

impl Shared {
    /// Claim and run tasks of the current round until none is left.
    fn drain(&self) {
        let mut word = self.claim.0.load(SeqCst);
        while word & UNCLAIMED_MASK > 0 {
            match self
                .claim
                .0
                .compare_exchange_weak(word, word - 1, SeqCst, SeqCst)
            {
                Ok(_) => {
                    self.run_slot((word & UNCLAIMED_MASK) as usize - 1);
                    word = self.claim.0.load(SeqCst);
                }
                Err(current) => word = current,
            }
        }
    }

    fn run_slot(&self, i: usize) {
        let mut slot = lock(&self.slots[i]);
        let task = &mut *slot;
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_window(
                &mut task.core,
                &mut task.actors,
                &self.local_ix,
                task.strict_before,
                task.until,
                task.outbox_cap,
            );
        }));
        drop(slot);
        if let Err(payload) = result {
            lock(&self.panic).get_or_insert(payload);
        }
        if self.pending.0.fetch_sub(1, SeqCst) == 1 {
            self.done.wake();
        }
    }
}

fn helper_loop(shared: &Shared) {
    loop {
        shared.idle.wait_until(|| {
            shared.claim.0.load(SeqCst) & UNCLAIMED_MASK > 0 || shared.shutdown.load(SeqCst)
        });
        if shared.shutdown.load(SeqCst) {
            return;
        }
        shared.drain();
    }
}

/// The helper threads plus the caller's side of the round protocol.
pub(crate) struct Workers {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Epoch of the last published round (caller-owned; the claim word
    /// carries a copy).
    epoch: u32,
}

impl Workers {
    /// Spawn `helpers` threads and `slots` task slots (the most tasks
    /// a round can hold), each resting on a stateless placeholder.
    pub(crate) fn new(helpers: usize, slots: usize, local_ix: Vec<u32>) -> Workers {
        let placeholder = || ShardTask {
            core: Core::placeholder(),
            actors: Vec::new(),
            strict_before: None,
            until: None,
            outbox_cap: None,
        };
        let shared = Arc::new(Shared {
            claim: Padded(AtomicU64::new(0)),
            pending: Padded(AtomicU32::new(0)),
            shutdown: AtomicBool::new(false),
            slots: (0..slots).map(|_| Mutex::new(placeholder())).collect(),
            local_ix,
            panic: Mutex::new(None),
            idle: Parker::new(),
            done: Parker::new(),
        });
        let handles = (0..helpers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sim-worker-{w}"))
                    .spawn(move || helper_loop(&shared))
                    // simlint::allow(P001): thread spawn at setup time; failing to create workers is unrecoverable
                    .expect("spawn simulation worker thread")
            })
            .collect();
        Workers {
            shared,
            handles,
            epoch: 0,
        }
    }

    /// Exclusive access to slot `i`, to swap a shard in before a round
    /// and back out after it.
    pub(crate) fn slot(&self, i: usize) -> MutexGuard<'_, ShardTask> {
        lock(&self.shared.slots[i])
    }

    /// Run the tasks the caller has placed in `slots[..n_tasks]` and
    /// return once all have finished. A panic from actor code is
    /// handed back (the first one caught), not re-thrown: the caller
    /// moves its shards back out of the slots before resuming it.
    #[must_use]
    pub(crate) fn run_round(&mut self, n_tasks: usize) -> Option<Box<dyn Any + Send>> {
        debug_assert!(n_tasks <= self.shared.slots.len());
        let shared = &*self.shared;
        shared.pending.0.store(n_tasks as u32, SeqCst);
        self.epoch = self.epoch.wrapping_add(1);
        shared
            .claim
            .0
            .store((self.epoch as u64) << 32 | n_tasks as u64, SeqCst);
        shared.idle.wake();
        shared.drain();
        shared
            .done
            .wait_until(|| shared.pending.0.load(SeqCst) == 0);
        lock(&shared.panic).take()
    }

    /// Times a helper has blocked on the condvar so far.
    #[cfg(test)]
    pub(crate) fn helper_parks(&self) -> u64 {
        self.shared.idle.parks.load(SeqCst)
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, SeqCst);
        self.shared.idle.wake();
        for h in self.handles.drain(..) {
            // Actor panics are caught inside the round; a helper that
            // died anyway has nothing left to report from a destructor.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_actor_any;
    use crate::{ActorId, Ctx, EventBox, Sim};
    use std::sync::Barrier;
    use std::thread::ThreadId;

    #[derive(Debug)]
    struct Tick;

    /// Self-ticks every millisecond until `stop`.
    struct Ticker {
        stop: SimTime,
        ticks: u32,
    }

    impl Actor for Ticker {
        fn on_event(&mut self, _ev: EventBox, ctx: &mut Ctx) {
            self.ticks += 1;
            if ctx.now() < self.stop {
                ctx.send_in(SimDuration::from_millis(1), ctx.self_id(), Tick);
            }
        }
        impl_actor_any!();
    }

    /// Meets its twin at a barrier, so both are mid-dispatch on two
    /// different participants at once; the one that finds itself on
    /// the chosen side (caller thread or helper thread) panics.
    struct Rendezvous {
        meet: Arc<Barrier>,
        caller: ThreadId,
        panic_on_caller: bool,
    }

    impl Actor for Rendezvous {
        fn on_event(&mut self, _ev: EventBox, _ctx: &mut Ctx) {
            self.meet.wait();
            let on_caller = std::thread::current().id() == self.caller;
            if on_caller == self.panic_on_caller {
                panic!("boom in a region actor");
            }
        }
        impl_actor_any!();
    }

    const STOP_MS: u64 = 40;

    /// Four regions: two rendezvous actors whose single events share
    /// the first round, two tickers that keep later rounds multi-shard.
    fn panic_fixture(threads: usize, panic_on_caller: bool) -> (Sim, [ActorId; 2]) {
        let mut sim = Sim::new(5);
        let meet = Arc::new(Barrier::new(2));
        let caller = std::thread::current().id();
        for _ in 0..2 {
            let id = sim.add_actor(Box::new(Rendezvous {
                meet: Arc::clone(&meet),
                caller,
                panic_on_caller,
            }));
            sim.schedule_at(SimTime::from_millis(1), id, Tick);
        }
        let tickers = [0, 1].map(|_| {
            let id = sim.add_actor(Box::new(Ticker {
                stop: SimTime::from_millis(STOP_MS),
                ticks: 0,
            }));
            sim.schedule_at(SimTime::from_millis(2), id, Tick);
            id
        });
        sim.enable_sharding(vec![1, 2, 3, 4], SimDuration::from_millis(5), threads);
        (sim, tickers)
    }

    #[test]
    fn worker_panic_resurfaces_on_caller_and_pool_is_reusable() {
        for threads in [2, 4] {
            for panic_on_caller in [false, true] {
                let (mut sim, tickers) = panic_fixture(threads, panic_on_caller);
                let payload = catch_unwind(AssertUnwindSafe(|| sim.run()))
                    .expect_err("the actor panic must reach the caller");
                assert_eq!(
                    payload.downcast_ref::<&str>().copied(),
                    Some("boom in a region actor"),
                    "threads {threads}, panic_on_caller {panic_on_caller}"
                );
                // Every shard came back out of the slots, and the same
                // helpers run the remaining multi-shard rounds.
                sim.run();
                for id in tickers {
                    assert_eq!(sim.actor::<Ticker>(id).ticks as u64, STOP_MS - 1);
                }
                assert_eq!(sim.events_processed(), 2 + 2 * (STOP_MS - 1));
                let workers = sim.workers().expect("threads > 1 spawns helpers");
                assert_eq!(workers.handles.len(), threads - 1);
                let alive = Arc::downgrade(&workers.shared);
                drop(sim);
                assert!(
                    alive.upgrade().is_none(),
                    "helpers must have exited and been joined"
                );
            }
        }
    }

    #[test]
    fn idle_helpers_park_and_wake_for_the_next_round() {
        let build = |threads| {
            let mut sim = Sim::new(9);
            let ids: Vec<ActorId> = (0..3)
                .map(|_| {
                    let id = sim.add_actor(Box::new(Ticker {
                        stop: SimTime::from_millis(STOP_MS),
                        ticks: 0,
                    }));
                    sim.schedule_at(SimTime::from_millis(1), id, Tick);
                    id
                })
                .collect();
            sim.enable_sharding(vec![1, 2, 3], SimDuration::from_millis(5), threads);
            (sim, ids)
        };
        let (mut sim, ids) = build(3);
        // No round is published: both helpers must run out of spin and
        // yield budget and block. Poll instead of guessing how long the
        // budget takes; give up after ~20 s.
        let mut polls = 0;
        while sim.workers().expect("helpers").helper_parks() < 2 {
            polls += 1;
            assert!(
                polls < 20_000,
                "idle helpers never parked (spinning forever?)"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        sim.run();
        let (mut reference, ref_ids) = build(1);
        reference.run();
        for (&a, &b) in ids.iter().zip(&ref_ids) {
            assert_eq!(
                sim.actor::<Ticker>(a).ticks,
                reference.actor::<Ticker>(b).ticks
            );
        }
        assert_eq!(sim.events_processed(), reference.events_processed());
    }
}
