//! Property tests for the generation-checked event pool: arbitrary
//! interleavings of allocations and consumptions must never alias a
//! slot, must round-trip every payload bit-exactly, must run every
//! destructor exactly once, and must give every byte back once the
//! pool and its boxes are gone. These are the memory-safety proof
//! obligations behind `CausalityReport::pool_aliasing == 0`; the CI
//! AddressSanitizer step runs them for the accesses assertions cannot
//! see. The same counting allocator shows that a warm simulation's
//! fan-out cycle — pool slots, queue nodes and queue runs — allocates
//! nothing at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use simkernel::{
    impl_actor_any, Actor, ActorId, Ctx, Event, EventBox, EventPool, Sim, SimDuration, SimTime,
};

thread_local! {
    /// Bytes the current thread has allocated and not yet freed.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    /// Allocations the current thread has made (reallocations included).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// `Unit` destructor runs on the current thread.
    static UNIT_DROPS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread: every test here keeps
/// its pool and boxes on one thread, so a test's own balance is exact
/// whatever the other tests do meanwhile.
struct Counting;

// SAFETY: defers to `System`; the bookkeeping touches only a
// const-initialised, destructor-free thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + layout.size() as isize));
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|b| b.set(b.get() - layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

/// Small pooled payload (first size class) carrying a checksum.
#[derive(Debug, PartialEq)]
struct Small {
    tag: u64,
    check: u64,
}

/// Mid-size payload (exercises a different size class than `Small`).
#[derive(Debug, PartialEq)]
struct Mid {
    tag: u64,
    fill: [u64; 12],
}

/// Oversized payload: must bypass the pool entirely.
#[derive(Debug)]
struct Huge {
    tag: u64,
    _fill: [u64; 128],
}

/// Payload with a destructor counter: proves drops run exactly once.
#[derive(Debug)]
struct Droppy {
    tag: u64,
    drops: Arc<AtomicU64>,
}
impl Drop for Droppy {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::Relaxed);
    }
}

/// Over-aligned beyond what a slot guarantees: small enough for the
/// first class, yet must get an allocation of its own, aligned to 32.
#[derive(Debug)]
#[repr(align(32))]
struct Wide(Droppy);

/// Zero-sized, and still dropped exactly once (counted per thread).
#[derive(Debug)]
struct Unit;
impl Drop for Unit {
    fn drop(&mut self) {
        UNIT_DROPS.with(|d| d.set(d.get() + 1));
    }
}

/// Never boxed: the target of the mismatched downcasts.
#[derive(Debug)]
struct Stranger;

fn small(tag: u64) -> Small {
    Small {
        tag,
        check: tag.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}

fn mid(tag: u64) -> Mid {
    Mid {
        tag,
        fill: [tag; 12],
    }
}

/// One step of the interleaving the property explores.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Box a payload of kind `.0 % 6` (small, mid, huge, droppy, wide,
    /// unit) by route `.1 % 3` (`EventPool::make`, `EventBox::new`,
    /// `From<Box<dyn Event>>`) and hold it.
    Alloc(u8, u8),
    /// Consume a held event by value (`downcast`), verifying payload.
    Consume(u8),
    /// Drop a held event without consuming it.
    Drop(u8),
    /// Flatten a held event to a plain box (`into_plain`), verify, drop.
    Flatten(u8),
    /// Downcast a held event to a type it is not; keep what comes back.
    Mismatch(u8),
}

/// Decode one `(selector, operand)` byte pair into an [`Op`]. Alloc is
/// weighted up so interleavings keep the held table populated.
fn decode_op((sel, arg): (u8, u8)) -> Op {
    match sel % 8 {
        0..=3 => Op::Alloc(arg, arg / 6),
        4 => Op::Consume(arg),
        5 => Op::Drop(arg),
        6 => Op::Flatten(arg),
        _ => Op::Mismatch(arg),
    }
}

/// Box `ev` by `route` (see [`Op::Alloc`]).
fn boxed<E: Event>(pool: &EventPool, route: u8, ev: E) -> EventBox {
    match route % 3 {
        0 => pool.make(ev),
        1 => EventBox::new(ev),
        _ => EventBox::from(Box::new(ev) as Box<dyn Event>),
    }
}

/// Verify and consume one `EventBox` known to hold `tag`.
fn consume(ev: EventBox, tag: u64) {
    if ev.is::<Small>() {
        let s = ev.downcast::<Small>().unwrap();
        assert_eq!(s, small(tag), "small payload corrupted across recycle");
    } else if ev.is::<Mid>() {
        let m = ev.downcast::<Mid>().unwrap();
        assert_eq!(m, mid(tag), "mid payload corrupted across recycle");
    } else if ev.is::<Huge>() {
        let h = ev.downcast::<Huge>().unwrap();
        assert_eq!(h.tag, tag, "huge payload corrupted");
    } else if ev.is::<Wide>() {
        let at = ev.downcast_ref::<Wide>().unwrap() as *const Wide;
        assert_eq!(at as usize % 32, 0, "over-aligned payload misplaced");
        let w = ev.downcast::<Wide>().unwrap();
        assert_eq!(w.0.tag, tag, "wide payload corrupted");
    } else if ev.is::<Unit>() {
        let Unit = ev.downcast::<Unit>().unwrap();
    } else {
        let d = ev.downcast::<Droppy>().unwrap();
        assert_eq!(d.tag, tag, "droppy payload corrupted across recycle");
    }
}

/// The interleaving itself; everything it allocates is gone on return.
fn run_interleaving(ops: impl Iterator<Item = Op>) {
    let pool = EventPool::new();
    let drops = Arc::new(AtomicU64::new(0));
    let unit_drops_before = UNIT_DROPS.with(Cell::get);
    let mut held: Vec<(EventBox, u64)> = Vec::new();
    let mut next_tag = 0u64;
    let (mut counted, mut units, mut pooled, mut oversized) = (0u64, 0u64, 0u64, 0u64);
    for op in ops {
        match op {
            Op::Alloc(kind, route) => {
                let tag = next_tag;
                next_tag += 1;
                let droppy = || Droppy {
                    tag,
                    drops: Arc::clone(&drops),
                };
                let ev = match kind % 6 {
                    0 => boxed(&pool, route, small(tag)),
                    1 => boxed(&pool, route, mid(tag)),
                    2 => boxed(
                        &pool,
                        route,
                        Huge {
                            tag,
                            _fill: [tag; 128],
                        },
                    ),
                    3 => boxed(&pool, route, droppy()),
                    4 => boxed(&pool, route, Wide(droppy())),
                    _ => boxed(&pool, route, Unit),
                };
                counted += u64::from(matches!(kind % 6, 3 | 4));
                units += u64::from(kind % 6 == 5);
                // Only `make` pools, and only what fits a size class.
                let fits = !matches!(kind % 6, 2 | 4);
                assert_eq!(ev.is_pooled(), route % 3 == 0 && fits);
                if route % 3 == 0 {
                    pooled += u64::from(fits);
                    oversized += u64::from(!fits);
                }
                held.push((ev, tag));
            }
            Op::Consume(ix) if !held.is_empty() => {
                let (ev, tag) = held.swap_remove(ix as usize % held.len());
                consume(ev, tag);
            }
            Op::Drop(ix) if !held.is_empty() => {
                let (ev, _) = held.swap_remove(ix as usize % held.len());
                drop(ev);
            }
            Op::Flatten(ix) if !held.is_empty() => {
                let (ev, tag) = held.swap_remove(ix as usize % held.len());
                let plain = ev.into_plain();
                assert!(!plain.is_pooled());
                consume(plain, tag);
            }
            Op::Mismatch(ix) if !held.is_empty() => {
                let ix = ix as usize % held.len();
                let (ev, tag) = held.swap_remove(ix);
                let (was_pooled, before) = (ev.is_pooled(), pool.stats());
                let back = ev
                    .downcast::<Stranger>()
                    .expect_err("nothing boxed is a Stranger");
                assert_eq!(back.is_pooled(), was_pooled);
                assert_eq!(pool.stats(), before, "a failed downcast is free");
                held.push((back, tag));
            }
            _ => {} // nothing held: no-op
        }
    }
    // Half the time the pool handle dies first and the boxes it issued
    // keep the slabs alive; either way each destructor has run exactly
    // once when the last of them is gone.
    let stats = pool.stats();
    if next_tag.is_multiple_of(2) {
        drop(pool);
        drop(held);
    } else {
        drop(held);
        drop(pool);
    }
    assert_eq!(
        drops.load(Ordering::Relaxed),
        counted,
        "every counted destructor must run exactly once"
    );
    assert_eq!(UNIT_DROPS.with(Cell::get) - unit_drops_before, units);
    assert_eq!(stats.aliasing, 0, "no interleaving may alias a slot");
    assert_eq!(stats.unpooled, oversized);
    assert_eq!(
        stats.fresh + stats.recycled,
        pooled,
        "every pooled allocation is either fresh or recycled"
    );
}

proptest! {
    /// Arbitrary interleavings of alloc/consume/drop/flatten/mismatch
    /// over one pool, through every way of making a box: every payload
    /// reads back bit-exact, every destructor runs exactly once, no
    /// slot is ever aliased, the counters account for every allocation,
    /// and the last of (pool handle, live boxes) to die frees the slabs.
    #[test]
    fn prop_pool_interleavings_never_alias(
        raw_ops in prop::collection::vec((any::<u8>(), any::<u8>()), 1..200),
    ) {
        let before = live_bytes();
        run_interleaving(raw_ops.iter().copied().map(decode_op));
        prop_assert_eq!(live_bytes(), before, "pool or boxes leaked");
    }

    /// Churning one size class recycles aggressively (fresh slots stay
    /// bounded by the peak number of simultaneously-live events) and
    /// generations never collide.
    #[test]
    fn prop_recycling_bounded_by_peak_liveness(
        live in 1usize..8,
        rounds in 1u64..50,
    ) {
        let pool = EventPool::new();
        for r in 0..rounds {
            let batch: Vec<EventBox> =
                (0..live).map(|i| pool.make(small(r * 100 + i as u64))).collect();
            for (i, ev) in batch.into_iter().enumerate() {
                consume(ev, r * 100 + i as u64);
            }
        }
        let s = pool.stats();
        prop_assert_eq!(s.aliasing, 0);
        prop_assert!(
            s.fresh <= live as u64,
            "fresh slots ({}) must not exceed peak liveness ({live})",
            s.fresh
        );
        prop_assert_eq!(s.fresh + s.recycled, live as u64 * rounds);
    }
}

/// `EventBox::new` never pools; `EventPool::make` pools exactly the
/// class-sized payloads — and both present the identical `dyn Event`
/// surface.
#[test]
fn plain_and_pooled_boxes_are_interchangeable() {
    let pool = EventPool::new();
    let a = EventBox::new(small(1));
    let b = pool.make(small(2));
    assert!(!a.is_pooled());
    assert!(b.is_pooled());
    assert_eq!(a.type_name(), b.type_name());
    consume(a, 1);
    consume(b, 2);
    assert_eq!(pool.stats().aliasing, 0);
}

/// A box outliving its pool handle still owns valid memory, and the
/// slabs go when it does — not before, not never.
#[test]
fn slabs_outlive_the_handle_and_die_with_the_last_box() {
    let before = live_bytes();
    let pool = EventPool::new();
    let boxes: Vec<EventBox> = (0..10).map(|i| pool.make(mid(i))).collect();
    drop(pool.make(small(0))); // a free slot of another class
    let with_slabs = live_bytes();
    drop(pool);
    assert_eq!(
        live_bytes(),
        with_slabs,
        "live boxes keep every slab and the pool's own state"
    );
    for (i, ev) in boxes.into_iter().enumerate() {
        assert!(live_bytes() > before, "freed while a box was live");
        consume(ev, i as u64);
    }
    assert_eq!(live_bytes(), before, "the last box out frees everything");
}

/// Starts one fan-out cycle at the hub.
#[derive(Debug)]
struct Kick;

/// The hub's same-instant send to each leaf.
#[derive(Debug)]
struct Fan;

/// A leaf's same-instant answer to a [`Fan`].
#[derive(Debug)]
struct Reply;

/// On each [`Kick`], schedules the next one a millisecond later, then
/// sends one [`Fan`] to every leaf at the current instant.
struct Hub {
    leaves: Vec<ActorId>,
    replies: u64,
}

impl Actor for Hub {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        if ev.is::<Kick>() {
            ctx.send_in(SimDuration::from_millis(1), ctx.self_id(), Kick);
            for &leaf in &self.leaves {
                ctx.send(leaf, Fan);
            }
        } else if ev.is::<Reply>() {
            self.replies += 1;
        }
    }
    impl_actor_any!();
}

/// Answers every [`Fan`] with a [`Reply`] to the hub at the same instant.
struct Leaf {
    hub: ActorId,
}

impl Actor for Leaf {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        if ev.is::<Fan>() {
            ctx.send(self.hub, Reply);
        }
    }
    impl_actor_any!();
}

/// Once warm, a broadcast-shaped cycle — N events pushed at one
/// instant behind a later timer, each pop pushing one reply at the
/// current instant — allocates nothing: the pool recycles its slots
/// and the event queue its nodes and run entries.
#[test]
fn warm_fan_out_cycles_allocate_nothing() {
    const LEAVES: usize = 64;
    let mut sim = Sim::new(3);
    let hub = sim.add_actor(Box::new(Hub {
        leaves: Vec::new(),
        replies: 0,
    }));
    let leaves: Vec<ActorId> = (0..LEAVES)
        .map(|_| sim.add_actor(Box::new(Leaf { hub })))
        .collect();
    sim.actor_mut::<Hub>(hub).leaves = leaves;
    sim.schedule_at(SimTime::ZERO, hub, Kick);
    sim.run_until(SimTime::from_millis(2));
    let (allocations, bytes) = (ALLOCATIONS.with(Cell::get), live_bytes());
    sim.run_until(SimTime::from_millis(50));
    assert_eq!(
        sim.actor::<Hub>(hub).replies,
        51 * LEAVES as u64,
        "every cycle ran"
    );
    assert_eq!(
        ALLOCATIONS.with(Cell::get) - allocations,
        0,
        "a warm fan-out cycle allocated"
    );
    assert_eq!(live_bytes(), bytes);
}
