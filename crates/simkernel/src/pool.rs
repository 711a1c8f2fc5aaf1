//! Generation-checked slab pool for intra-shard event allocations.
//!
//! Every send on the kernel hot path needs an owned, type-erased event
//! for one dispatch; a `malloc`/`free` pair for each dominates the
//! per-event cost once actors themselves are cheap. [`EventPool`]
//! recycles those allocations per shard: an event small enough for a
//! size class is placed in a pooled slot (a header plus payload) and
//! the slot returns to a free list when the event is consumed or
//! dropped. Oversized or over-aligned events get the same header in an
//! allocation of their own, so the pool is a pure optimisation, never a
//! capacity limit, and [`EventBox`] — the owning handle the kernel and
//! actors exchange, a header pointer plus a generation — behaves like
//! `Box<dyn Event>` either way.
//!
//! # Safety: shard confinement
//!
//! The pool has no lock and no atomic; free lists, counters and the
//! owner count are plain `Cell`s. That is sound because **a pooled box
//! is made, consumed and dropped only by the thread that currently
//! holds its shard's `Core`** (where the pool lives):
//!
//! * `Core::push`/`push_typed` pool intra-shard sends only and flatten
//!   ([`EventBox::into_plain`]) every box that leaves the shard, as
//!   does `Sim::enable_sharding` for what is already queued — event
//!   queues and actors of a shard hold only its own pool's slots, outboxes none;
//! * a `Core` and its actors change threads only through `workers.rs`'s
//!   slot hand-off, whose epoch publish/claim and `pending` countdown
//!   order one holder's last pool access before the next one's first.
//!
//! So [`EventPool`] is `Send` and not `Sync`, and `EventBox: Send` is a
//! promise the kernel keeps, not the type system: code that calls
//! [`EventPool::make`] itself must keep the box on the pool's thread or
//! flatten it first. A breach is detected, not prevented: every
//! consume/drop/flatten re-checks the slot's generation (bumped on each
//! release) and state, and counts a mismatch in [`PoolStats::aliasing`]
//! (`CausalityReport::pool_aliasing`, asserted zero by the stress
//! suite; debug builds panic), and debug builds assert in
//! `acquire`/`release` that no other thread is inside the shard's
//! window ([`EventPool::confine`]).
//!
//! Determinism: each shard's pool op sequence — and the recycle/fresh
//! counters — is a pure function of that shard's event schedule,
//! independent of worker thread count.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::any::TypeId;
use std::cell::Cell;
use std::fmt;
use std::mem::{align_of, size_of, ManuallyDrop};
use std::ptr::{self, NonNull};

use crate::event::{Event, MisroutedEvent};

/// Payload capacities of the pooled size classes. Anything larger (or
/// aligned beyond [`MAX_ALIGN`]) gets an allocation of its own.
const CLASS_SIZES: [usize; 4] = [32, 64, 160, 384];

/// Maximum payload alignment a pooled slot guarantees.
const MAX_ALIGN: usize = 16;

/// Slot header magics: a slot is exactly one of these at all times.
const LIVE: u16 = 0xA11C;
const FREE: u16 = 0xDEAD;

/// Per-event bookkeeping, placed in front of the payload. `align(16)`
/// keeps a pooled payload (at offset `size_of::<Header>()`) aligned for
/// every pooled type.
#[repr(C, align(16))]
struct Header {
    /// The payload, with its vtable. Meaningful while [`LIVE`].
    obj: *mut dyn Event,
    /// The payload's concrete type: a type test is a compare, not a
    /// virtual call.
    ty: TypeId,
    /// Owning pool; null for a plain box, which owns its allocation.
    pool: *const PoolInner,
    /// Bumped on every release; a stale `EventBox` no longer matches
    /// and is diagnosed instead of corrupting a live event.
    gen: u32,
    /// [`LIVE`] or [`FREE`].
    state: u16,
    /// Size class of a pooled slot.
    class: u8,
}

const HEADER_SIZE: usize = size_of::<Header>();

/// Free-list link, kept in a free slot's payload area.
type Link = Option<NonNull<Header>>;

fn class_of(size: usize, align: usize) -> Option<usize> {
    if align > MAX_ALIGN {
        return None;
    }
    CLASS_SIZES.iter().position(|&cap| size <= cap)
}

fn class_layout(class: usize) -> Layout {
    Layout::from_size_align(HEADER_SIZE + CLASS_SIZES[class], MAX_ALIGN)
        // simlint::allow(P001): const-correct by construction — sizes and alignment are compile-time constants
        .expect("pool class layout")
}

/// Layout of a plain box around `payload`, and the payload's offset.
fn plain_layout(payload: Layout) -> (Layout, usize) {
    Layout::new::<Header>()
        .extend(payload)
        // simlint::allow(P001): fails only past isize::MAX bytes, which no existing value's layout reaches
        .expect("plain event layout")
}

/// Pool counters, cumulative for the pool's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from a recycled slot.
    pub recycled: u64,
    /// Allocations that had to mint a fresh slot.
    pub fresh: u64,
    /// Events too large/over-aligned for any class (own allocation).
    pub unpooled: u64,
    /// Generation/state mismatches observed — double frees or aliased
    /// live slots. Always zero through safe use; debug builds panic at
    /// the first one.
    pub aliasing: u64,
}

impl PoolStats {
    /// Component-wise sum (for aggregating per-shard pools).
    pub fn merge(self, other: PoolStats) -> PoolStats {
        PoolStats {
            recycled: self.recycled + other.recycled,
            fresh: self.fresh + other.fresh,
            unpooled: self.unpooled + other.unpooled,
            aliasing: self.aliasing + other.aliasing,
        }
    }
}

/// One shard's pool state: heap-allocated, reached through raw
/// pointers from the [`EventPool`] handle and every slot header, and
/// mutated only through `Cell`s under shard confinement (module docs).
#[derive(Default)]
struct PoolInner {
    /// Per-class LIFO free lists.
    free: [Cell<Link>; CLASS_SIZES.len()],
    stats: Cell<PoolStats>,
    /// Live slots, plus one while the `EventPool` handle exists.
    /// Whoever takes it to zero frees the slabs and this struct.
    owners: Cell<usize>,
    /// The thread inside this shard's window, if any (see `confine`).
    #[cfg(debug_assertions)]
    confined_to: Cell<Option<std::thread::ThreadId>>,
}

impl PoolInner {
    fn count(&self, bump: impl FnOnce(&mut PoolStats)) {
        let mut stats = self.stats.get();
        bump(&mut stats);
        self.stats.set(stats);
    }

    fn check_thread(&self) {
        #[cfg(debug_assertions)]
        assert!(
            self.confined_to
                .get()
                .is_none_or(|t| t == std::thread::current().id()),
            "event pool touched from outside the thread running its shard"
        );
    }

    /// A [`LIVE`] slot of `class` with `pool`, `class` and `gen` set;
    /// the caller writes `obj`, `ty` and the payload.
    fn acquire(&self, class: usize) -> NonNull<Header> {
        self.check_thread();
        self.owners.set(self.owners.get() + 1);
        if let Some(slot) = self.free[class].get() {
            let hdr = slot.as_ptr();
            // SAFETY: slots on a free list were minted by this pool and
            // are deallocated only with it; a FREE slot's payload area
            // holds the link `release` wrote.
            unsafe {
                if (*hdr).state == FREE {
                    self.free[class].set(hdr.add(1).cast::<Link>().read());
                    (*hdr).state = LIVE;
                    self.count(|s| s.recycled += 1);
                    return slot;
                }
            }
            // The slot is not in the state the free list promised, so
            // neither is its link: record the aliasing and leak the
            // list rather than hand out memory something may still own.
            self.free[class].set(None);
            self.count(|s| s.aliasing += 1);
            debug_assert!(false, "event pool free-list slot is not FREE");
        }
        let layout = class_layout(class);
        // SAFETY: the layout has non-zero size and null is handled;
        // the fields every slot user reads are written before return.
        unsafe {
            let Some(slot) = NonNull::new(alloc(layout).cast::<Header>()) else {
                handle_alloc_error(layout)
            };
            let hdr = slot.as_ptr();
            (&raw mut (*hdr).pool).write(self);
            (&raw mut (*hdr).gen).write(0);
            (&raw mut (*hdr).state).write(LIVE);
            (&raw mut (*hdr).class).write(class as u8);
            self.count(|s| s.fresh += 1);
            slot
        }
    }

    /// Return a slot to its class free list.
    ///
    /// # Safety
    /// `slot` must be a [`LIVE`] slot of the pool `this` whose payload
    /// has been dropped or moved out; nothing may use it afterwards.
    unsafe fn release(this: NonNull<PoolInner>, slot: NonNull<Header>) {
        let (pool, hdr) = (this.as_ref(), slot.as_ptr());
        pool.check_thread();
        (*hdr).gen = (*hdr).gen.wrapping_add(1);
        (*hdr).state = FREE;
        let list = &pool.free[(*hdr).class as usize];
        hdr.add(1).cast::<Link>().write(list.get());
        list.set(Some(slot));
        Self::disown(this);
    }

    /// Give up one share of the pool; the last one out frees every
    /// slot (all on the free lists by then) and the pool itself.
    ///
    /// # Safety
    /// The caller must hold a share (`owners`) and not use `this` again.
    unsafe fn disown(this: NonNull<PoolInner>) {
        let pool = this.as_ref();
        pool.owners.set(pool.owners.get() - 1);
        if pool.owners.get() > 0 {
            return;
        }
        for (class, list) in pool.free.iter().enumerate() {
            let mut next = list.take();
            while let Some(slot) = next {
                next = slot.as_ptr().add(1).cast::<Link>().read();
                // Minted by `acquire` with exactly this class layout.
                dealloc(slot.as_ptr().cast(), class_layout(class));
            }
        }
        drop(Box::from_raw(this.as_ptr()));
    }
}

/// A per-shard slab pool of event slots (`Send`, not `Sync`: see the
/// module docs for who may touch it when).
pub struct EventPool {
    inner: NonNull<PoolInner>,
}

// SAFETY: the handle and the boxes it issued are the only ways into
// the pool, and under shard confinement they change threads together,
// with a happens-before edge. Not `Sync`: two threads calling `make`
// would race on the `Cell`s.
unsafe impl Send for EventPool {}

impl Default for EventPool {
    fn default() -> Self {
        Self::new()
    }
}

impl EventPool {
    /// An empty pool; slots are minted on demand and recycled until
    /// the pool and every box it issued are gone.
    pub fn new() -> Self {
        let inner = Box::leak(Box::<PoolInner>::default());
        inner.owners.set(1);
        EventPool {
            inner: NonNull::from(inner),
        }
    }

    fn inner(&self) -> &PoolInner {
        // SAFETY: the handle's share in `owners` keeps the pool alive.
        unsafe { self.inner.as_ref() }
    }

    /// Box `ev` in a pooled slot (or an allocation of its own if it
    /// fits no size class). The box must be consumed or dropped on the
    /// thread that holds this pool, or flattened before it leaves.
    pub fn make<E: Event>(&self, ev: E) -> EventBox {
        let Some(class) = class_of(size_of::<E>(), align_of::<E>()) else {
            self.inner().count(|s| s.unpooled += 1);
            return EventBox::new(ev);
        };
        let slot = self.inner().acquire(class);
        // SAFETY: the slot is ours alone; its payload area starts
        // HEADER_SIZE past the header, sized and aligned for any type
        // `class_of` admits.
        unsafe {
            let hdr = slot.as_ptr();
            let payload = hdr.add(1).cast::<E>();
            payload.write(ev);
            (&raw mut (*hdr).obj).write(payload);
            (&raw mut (*hdr).ty).write(TypeId::of::<E>());
            EventBox {
                hdr: slot,
                gen: (*hdr).gen,
            }
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PoolStats {
        self.inner().stats.get()
    }

    /// Debug builds: until the guard drops, `acquire`/`release` assert
    /// they run on the calling thread. The kernel holds one around each
    /// shard window; free in release builds.
    pub(crate) fn confine(&self) -> Confined {
        #[cfg(debug_assertions)]
        self.inner()
            .confined_to
            .set(Some(std::thread::current().id()));
        Confined {
            #[cfg(debug_assertions)]
            pool: self.inner,
        }
    }
}

impl Drop for EventPool {
    fn drop(&mut self) {
        // SAFETY: gives up the handle's share, exactly once.
        unsafe { PoolInner::disown(self.inner) }
    }
}

/// See [`EventPool::confine`]. Must not outlive the pool handle.
pub(crate) struct Confined {
    #[cfg(debug_assertions)]
    pool: NonNull<PoolInner>,
}

#[cfg(debug_assertions)]
impl Drop for Confined {
    fn drop(&mut self) {
        // SAFETY: the window this guards borrows the `Core` that holds
        // the pool handle, so the pool is alive.
        unsafe { self.pool.as_ref() }.confined_to.set(None);
    }
}

/// An owned, type-erased event: the kernel's unit of message exchange.
/// Either a pooled slot (intra-shard hot path) or an allocation of its
/// own (cross-shard sends, oversized events); the distinction is
/// invisible to actors.
pub struct EventBox {
    hdr: NonNull<Header>,
    /// The slot's generation when this box was issued.
    gen: u32,
}

// SAFETY: an EventBox uniquely owns its payload exactly like
// `Box<dyn Event>` would, and `Event` requires `Send + Sync`; `&EventBox`
// only reads header fields nothing writes while the box is live. A
// *pooled* box also mutates its pool's unsynchronised state when
// consumed or dropped, which is sound only on the thread holding the
// pool's shard: the kernel guarantees that by flattening every box
// that leaves a shard (module docs), and the generation check and the
// debug thread assert police it.
unsafe impl Send for EventBox {}
unsafe impl Sync for EventBox {}

impl EventBox {
    /// Box `ev` in an allocation of its own (no pool).
    pub fn new<E: Event>(ev: E) -> Self {
        // SAFETY: the room handed to the closure is laid out for an `E`.
        unsafe {
            Self::plain(Layout::new::<E>(), TypeId::of::<E>(), |room| {
                room.cast::<E>().write(ev);
                room.cast::<E>()
            })
        }
    }

    /// A plain box whose payload `place` puts into the room it gets.
    ///
    /// # Safety
    /// `place` must initialise a value of type `ty` and layout
    /// `payload` at the address it receives and return that address.
    unsafe fn plain(
        payload: Layout,
        ty: TypeId,
        place: impl FnOnce(*mut u8) -> *mut dyn Event,
    ) -> EventBox {
        let (layout, offset) = plain_layout(payload);
        let Some(hdr) = NonNull::new(alloc(layout).cast::<Header>()) else {
            handle_alloc_error(layout)
        };
        hdr.as_ptr().write(Header {
            obj: place(hdr.as_ptr().cast::<u8>().add(offset)),
            ty,
            pool: ptr::null(),
            gen: 0,
            state: LIVE,
            class: 0,
        });
        EventBox { hdr, gen: 0 }
    }

    /// A plain box holding the value behind `src`, moved out bitwise.
    ///
    /// # Safety
    /// `src` must be valid and owned by the caller, who must treat it
    /// as moved-from afterwards.
    unsafe fn plain_moved_from(src: *mut dyn Event) -> EventBox {
        Self::plain(Layout::for_value(&*src), (*src).event_type(), |room| {
            (*src).relocate(room)
        })
    }

    fn header(&self) -> &Header {
        // SAFETY: a box's header outlives it (a pooled slot through
        // its share in `owners`, a plain one as its own allocation).
        unsafe { self.hdr.as_ref() }
    }

    /// Whether the payload lives in a pooled slot.
    pub fn is_pooled(&self) -> bool {
        !self.header().pool.is_null()
    }

    /// `TypeId` of the payload. Inherent on purpose: `EventBox` itself
    /// is an [`Event`], so the trait method would name the box.
    pub fn event_type(&self) -> TypeId {
        self.header().ty
    }

    /// True when the slot still belongs to this box. A mismatch —
    /// double free or aliased slot — is counted, panics in debug
    /// builds, and makes the caller leave the slot alone.
    fn verify(&self, what: &str) -> bool {
        let h = self.header();
        if h.state == LIVE && h.gen == self.gen {
            return true;
        }
        // SAFETY: a pooled slot's `pool` is set once, at mint time.
        if let Some(pool) = unsafe { h.pool.as_ref() } {
            pool.count(|s| s.aliasing += 1);
        }
        debug_assert!(
            false,
            "stale event box on {what}: generation/state mismatch"
        );
        false
    }

    /// Give the header's memory back: a pooled slot to its free list,
    /// a plain box's allocation to the heap.
    ///
    /// # Safety
    /// `hdr` must have passed `verify`, its payload (of layout
    /// `payload`) must have been dropped or moved out, and the box
    /// must not be used or dropped afterwards.
    unsafe fn retire(hdr: NonNull<Header>, payload: Layout) {
        match NonNull::new((*hdr.as_ptr()).pool.cast_mut()) {
            Some(pool) => PoolInner::release(pool, hdr),
            None => dealloc(hdr.as_ptr().cast(), plain_layout(payload).0),
        }
    }

    /// Flatten to a plain-backed `EventBox` (no-op when already plain).
    /// Cross-shard sends use this so pooled slots never leave their
    /// shard — the pool's confinement to one thread, and free-list
    /// traffic that does not depend on the thread count, rest on it.
    pub fn into_plain(self) -> EventBox {
        if !self.is_pooled() || !self.verify("into_plain") {
            return self;
        }
        let this = ManuallyDrop::new(self);
        // SAFETY: verified, so the payload is ours; it is moved out
        // bitwise and the slot retired without dropping it.
        unsafe {
            let obj = this.header().obj;
            let payload = Layout::for_value(&*obj);
            let plain = Self::plain_moved_from(obj);
            Self::retire(this.hdr, payload);
            plain
        }
    }

    /// Consuming downcast; returns the event by value, or the original
    /// box on mismatch so the caller can try the next candidate type.
    pub fn downcast<T: Event>(self) -> Result<T, EventBox> {
        if self.event_type() != TypeId::of::<T>() || !self.verify("downcast") {
            return Err(self);
        }
        let this = ManuallyDrop::new(self);
        // SAFETY: type and ownership checked above; the value is moved
        // out and the slot retired without dropping it.
        unsafe {
            let v = this.header().obj.cast::<T>().read();
            Self::retire(this.hdr, Layout::new::<T>());
            Ok(v)
        }
    }

    /// Consuming downcast for handlers that accept exactly one type:
    /// on mismatch, returns a [`MisroutedEvent`] naming both the
    /// expected and the actual type.
    pub fn downcast_expected<T: Event>(self) -> Result<T, MisroutedEvent> {
        let actual = (*self).type_name();
        self.downcast::<T>().map_err(|_| MisroutedEvent {
            expected: std::any::type_name::<T>(),
            actual,
        })
    }
}

impl From<Box<dyn Event>> for EventBox {
    fn from(b: Box<dyn Event>) -> Self {
        let layout = Layout::for_value(&*b);
        let src = Box::into_raw(b);
        // SAFETY: the value is moved out of the box's allocation, which
        // is then freed without dropping it (a zero-sized box has none).
        unsafe {
            let plain = Self::plain_moved_from(src);
            if layout.size() != 0 {
                dealloc(src.cast(), layout);
            }
            plain
        }
    }
}

impl std::ops::Deref for EventBox {
    type Target = dyn Event;
    fn deref(&self) -> &dyn Event {
        // SAFETY: `obj` is valid for the lifetime of the box.
        unsafe { &*self.header().obj }
    }
}

impl fmt::Debug for EventBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl Drop for EventBox {
    fn drop(&mut self) {
        // Never touch a slot something else may own.
        if !self.verify("drop") {
            return;
        }
        // SAFETY: unique ownership, verified; the payload is dropped in
        // place, then the slot is retired exactly once.
        unsafe {
            let obj = self.header().obj;
            let payload = Layout::for_value(&*obj);
            ptr::drop_in_place(obj);
            Self::retire(self.hdr, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[derive(Debug, PartialEq)]
    struct Small(u64);

    #[derive(Debug)]
    struct Big(#[allow(dead_code)] [u64; 128]); // 1 KiB: larger than every class

    #[derive(Debug)]
    struct Droppy(Arc<AtomicU64>);
    impl Drop for Droppy {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A queue node carries the box by value: keep it two words, and
    /// `Option` of it free.
    #[test]
    fn event_box_is_sixteen_bytes() {
        assert_eq!(size_of::<EventBox>(), 16);
        assert_eq!(size_of::<Option<EventBox>>(), 16);
        assert_eq!(HEADER_SIZE, 48);
    }

    #[test]
    fn pooled_roundtrip_and_recycle() {
        let pool = EventPool::new();
        let b = pool.make(Small(7));
        assert!(b.is_pooled());
        assert!(b.is::<Small>());
        assert_eq!(b.downcast::<Small>().unwrap(), Small(7));
        // Second allocation of the same class reuses the slot.
        let b2 = pool.make(Small(8));
        let s = pool.stats();
        assert_eq!(s.fresh, 1, "second alloc must recycle");
        assert_eq!(s.recycled, 1);
        assert_eq!(s.aliasing, 0);
        drop(b2);
    }

    #[test]
    fn oversized_events_fall_back_to_plain_boxes() {
        let pool = EventPool::new();
        let b = pool.make(Big([0; 128]));
        assert!(!b.is_pooled());
        assert_eq!(pool.stats().unpooled, 1);
        assert!(b.downcast::<Big>().is_ok());
    }

    #[test]
    fn drop_runs_payload_destructor_once() {
        let drops = Arc::new(AtomicU64::new(0));
        let pool = EventPool::new();
        let b = pool.make(Droppy(Arc::clone(&drops)));
        drop(b);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        // Moving the value out must NOT run the destructor.
        let b = pool.make(Droppy(Arc::clone(&drops)));
        let v = b.downcast::<Droppy>().unwrap();
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        drop(v);
        assert_eq!(drops.load(Ordering::Relaxed), 2);
        assert_eq!(pool.stats().aliasing, 0);
    }

    #[test]
    fn into_plain_flattens_pooled_payloads() {
        let pool = EventPool::new();
        let plain = pool.make(Small(3)).into_plain();
        assert!(!plain.is_pooled());
        assert_eq!(plain.downcast::<Small>().unwrap(), Small(3));
        // The slot is back on the free list.
        assert_eq!(pool.stats().fresh, 1);
        let again = pool.make(Small(4));
        assert_eq!(pool.stats().recycled, 1);
        drop(again);
    }

    #[test]
    fn downcast_mismatch_returns_original() {
        let pool = EventPool::new();
        let b = pool.make(Small(9));
        let b = b.downcast::<Big>().unwrap_err();
        assert_eq!(b.downcast::<Small>().unwrap(), Small(9));
        assert_eq!(pool.stats().aliasing, 0);
    }

    #[test]
    fn generations_advance_across_recycles() {
        let pool = EventPool::new();
        for i in 0..100u64 {
            let b = pool.make(Small(i));
            assert_eq!(b.downcast::<Small>().unwrap(), Small(i));
        }
        let s = pool.stats();
        assert_eq!(s.fresh, 1);
        assert_eq!(s.recycled, 99);
        assert_eq!(s.aliasing, 0);
    }
}
