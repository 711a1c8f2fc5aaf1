//! Generation-checked slab pool for intra-shard event allocations.
//!
//! Every send on the kernel hot path used to heap-allocate a
//! `Box<dyn Event>` and free it one dispatch later — malloc traffic
//! that dominates the per-event cost once actors themselves are cheap.
//! [`EventPool`] recycles those allocations per shard: an event small
//! enough for a size class is placed in a pooled slot (a 16-byte header
//! plus payload) and the slot returns to a free list when the event is
//! consumed or dropped. Oversized or over-aligned events fall back to a
//! plain heap box, so the pool is a pure optimisation, never a
//! capacity limit.
//!
//! [`EventBox`] is the owning handle the kernel and actors exchange: it
//! behaves like `Box<dyn Event>` (deref to `dyn Event`, by-value
//! [`EventBox::downcast`]) whether the payload is pooled or plain.
//!
//! # Safety & determinism
//!
//! Each slot header carries a **generation counter** bumped on every
//! free; the `EventBox` remembers the generation it was allocated with
//! and re-checks it before the payload is read or the slot released. A
//! mismatch means the slot was freed twice or aliased by a live event —
//! impossible through safe use of this module, counted (and panicked on
//! in debug builds) if kernel surgery ever breaks the invariant. The
//! causality sanitizer surfaces the counter as
//! `CausalityReport::pool_aliasing`, asserted zero by the stress suite.
//!
//! Determinism: a pooled event lives and dies on the shard that
//! allocated it (cross-shard sends are flattened to plain boxes before
//! they enter an outbox), so each shard's pool op sequence — and the
//! recycle/fresh counters — is a pure function of that shard's event
//! schedule, independent of worker thread count.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::any::TypeId;
use std::fmt;
use std::mem::{align_of, size_of, ManuallyDrop};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{Event, MisroutedEvent};

/// Payload capacities of the pooled size classes. Anything larger (or
/// aligned beyond [`MAX_ALIGN`]) is heap-boxed instead.
const CLASS_SIZES: [usize; 4] = [32, 64, 160, 384];

/// Maximum payload alignment a pooled slot guarantees.
const MAX_ALIGN: usize = 16;

/// Slot header magics: a slot is exactly one of these at all times.
const LIVE: u32 = 0xA11C_0DE5;
const FREE: u32 = 0x0DEA_D5ED;

/// Per-slot bookkeeping, placed immediately before the payload.
/// `align(16)` keeps the payload (at offset `size_of::<Header>()`)
/// aligned for every pooled type.
#[repr(C, align(16))]
struct Header {
    /// Bumped on every release; a stale `EventBox` ticket no longer
    /// matches and is diagnosed instead of corrupting a live event.
    gen: u32,
    /// [`LIVE`] or [`FREE`].
    state: u32,
}

const HEADER_SIZE: usize = size_of::<Header>();

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

/// Pool counters, cumulative for the pool's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from a recycled slot.
    pub recycled: u64,
    /// Allocations that had to mint a fresh slot.
    pub fresh: u64,
    /// Events too large/over-aligned for any class (plain heap box).
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

struct PoolShared {
    /// Per-class free lists of slot addresses (pointers to `Header`).
    free: [Mutex<Vec<usize>>; CLASS_SIZES.len()],
    recycled: AtomicU64,
    fresh: AtomicU64,
    unpooled: AtomicU64,
    aliasing: AtomicU64,
}

impl PoolShared {
    fn acquire(&self, class: usize) -> NonNull<Header> {
        let popped = self.free[class]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop();
        if let Some(addr) = popped {
            let hdr = addr as *mut Header;
            // Safety: addresses on the free list are valid slots this
            // pool minted and has not deallocated (see `Drop`).
            unsafe {
                if (*hdr).state == FREE {
                    (*hdr).state = LIVE;
                    self.recycled.fetch_add(1, Ordering::Relaxed);
                    return NonNull::new_unchecked(hdr);
                }
            }
            // The slot is not in the state the free list promised:
            // record the aliasing and leak it rather than hand out
            // memory something else may still own.
            self.aliasing.fetch_add(1, Ordering::Relaxed);
            debug_assert!(false, "event pool free-list slot is not FREE");
        }
        let layout = class_layout(class);
        // Safety: layout has non-zero size; null is handled.
        unsafe {
            let raw = alloc(layout);
            if raw.is_null() {
                handle_alloc_error(layout);
            }
            let hdr = raw as *mut Header;
            (*hdr).gen = 0;
            (*hdr).state = LIVE;
            self.fresh.fetch_add(1, Ordering::Relaxed);
            NonNull::new_unchecked(hdr)
        }
    }

    /// Return a slot to its class free list.
    ///
    /// Safety: `header` must be a slot acquired from this pool whose
    /// payload has already been dropped or moved out, and must not be
    /// released twice.
    unsafe fn release(&self, header: NonNull<Header>, class: u8) {
        let hdr = header.as_ptr();
        (*hdr).gen = (*hdr).gen.wrapping_add(1);
        (*hdr).state = FREE;
        self.free[class as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(hdr as usize);
    }
}

impl Drop for PoolShared {
    fn drop(&mut self) {
        // Live slots keep the pool alive through their `Arc`, so by the
        // time this runs every slot is on a free list.
        for (class, list) in self.free.iter_mut().enumerate() {
            let layout = class_layout(class);
            let slots = std::mem::take(list.get_mut().unwrap_or_else(|e| e.into_inner()));
            for addr in slots {
                // Safety: each address was minted by `acquire` with
                // exactly this class layout.
                unsafe { dealloc(addr as *mut u8, layout) };
            }
        }
    }
}

/// A per-shard slab pool of event slots. Cloning shares the slabs.
#[derive(Clone)]
pub struct EventPool {
    shared: Arc<PoolShared>,
}

impl Default for EventPool {
    fn default() -> Self {
        Self::new()
    }
}

impl EventPool {
    /// An empty pool; slots are minted on demand and recycled forever.
    pub fn new() -> Self {
        EventPool {
            shared: Arc::new(PoolShared {
                free: [
                    Mutex::new(Vec::new()),
                    Mutex::new(Vec::new()),
                    Mutex::new(Vec::new()),
                    Mutex::new(Vec::new()),
                ],
                recycled: AtomicU64::new(0),
                fresh: AtomicU64::new(0),
                unpooled: AtomicU64::new(0),
                aliasing: AtomicU64::new(0),
            }),
        }
    }

    /// Box `ev` in a pooled slot (or a plain heap box if it fits no
    /// size class).
    pub fn make<E: Event>(&self, ev: E) -> EventBox {
        let Some(class) = class_of(size_of::<E>(), align_of::<E>()) else {
            self.shared.unpooled.fetch_add(1, Ordering::Relaxed);
            return EventBox::new(ev);
        };
        let header = self.shared.acquire(class);
        // Safety: the slot's payload area is HEADER_SIZE past the
        // header, sized/aligned for any type admitted by `class_of`.
        unsafe {
            let payload = header.as_ptr().cast::<u8>().add(HEADER_SIZE).cast::<E>();
            ptr::write(payload, ev);
            let gen = (*header.as_ptr()).gen;
            EventBox {
                obj: NonNull::new_unchecked(payload as *mut dyn Event),
                ticket: Some(Ticket {
                    pool: Arc::clone(&self.shared),
                    header,
                    gen,
                    class: class as u8,
                    rebox: rebox_impl::<E>,
                }),
            }
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            recycled: self.shared.recycled.load(Ordering::Relaxed),
            fresh: self.shared.fresh.load(Ordering::Relaxed),
            unpooled: self.shared.unpooled.load(Ordering::Relaxed),
            aliasing: self.shared.aliasing.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for EventPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventPool")
            .field("stats", &self.stats())
            .finish()
    }
}

/// Monomorphised escape hatch: move a pooled payload into a plain
/// `Box<dyn Event>` without knowing `E` at the call site (the function
/// pointer is captured at allocation time).
///
/// Safety: `payload` must point at a valid, live `E` the caller owns;
/// the value is moved out (the slot must be released without dropping).
unsafe fn rebox_impl<E: Event>(payload: *mut u8) -> Box<dyn Event> {
    Box::new(ptr::read(payload.cast::<E>()))
}

struct Ticket {
    pool: Arc<PoolShared>,
    header: NonNull<Header>,
    gen: u32,
    class: u8,
    rebox: unsafe fn(*mut u8) -> Box<dyn Event>,
}

impl Ticket {
    /// True when the slot still belongs to this ticket.
    fn verify(&self) -> bool {
        // Safety: the ticket's Arc keeps the slot memory alive.
        unsafe {
            let h = self.header.as_ptr();
            (*h).state == LIVE && (*h).gen == self.gen
        }
    }

    fn flag_stale(&self, what: &str) {
        self.pool.aliasing.fetch_add(1, Ordering::Relaxed);
        debug_assert!(
            false,
            "stale event pool ticket on {what}: generation/state mismatch"
        );
        let _ = what;
    }
}

/// An owned, type-erased event: the kernel's unit of message exchange.
/// Either a pooled slot (intra-shard hot path) or a plain heap box
/// (cross-shard sends, oversized events); the distinction is invisible
/// to actors.
pub struct EventBox {
    obj: NonNull<dyn Event>,
    ticket: Option<Ticket>,
}

// Safety: EventBox uniquely owns its payload exactly like
// `Box<dyn Event>` would, `Event` requires `Send + Sync`, and the
// pool's shared state is `Mutex`/atomic protected.
unsafe impl Send for EventBox {}
unsafe impl Sync for EventBox {}

impl EventBox {
    /// Box `ev` on the plain heap (no pool).
    pub fn new<E: Event>(ev: E) -> Self {
        EventBox::from(Box::new(ev) as Box<dyn Event>)
    }

    /// Whether the payload lives in a pooled slot.
    pub fn is_pooled(&self) -> bool {
        self.ticket.is_some()
    }

    /// `TypeId` of the payload. Inherent on purpose: `EventBox` itself
    /// is an [`Event`], so the trait method would name the box.
    pub fn event_type(&self) -> TypeId {
        (**self).event_type()
    }

    /// Disassemble without running `Drop`.
    fn into_parts(self) -> (NonNull<dyn Event>, Option<Ticket>) {
        let this = ManuallyDrop::new(self);
        // Safety: `this` is never dropped; each field is moved out once.
        (this.obj, unsafe { ptr::read(&this.ticket) })
    }

    /// Convert to a plain `Box<dyn Event>`, releasing any pooled slot.
    /// Cross-shard sends use this so pooled slots never migrate between
    /// shards (which would make free-list traffic thread-dependent).
    pub fn into_boxed(self) -> Box<dyn Event> {
        let (obj, ticket) = self.into_parts();
        match ticket {
            // Safety: `obj` came from `Box::into_raw` in `From`.
            None => unsafe { Box::from_raw(obj.as_ptr()) },
            Some(t) => {
                if !t.verify() {
                    t.flag_stale("into_boxed");
                }
                // Safety: the ticket proves unique ownership of the
                // payload; `rebox` moves it out, then the slot is
                // released without dropping.
                unsafe {
                    let boxed = (t.rebox)(obj.as_ptr() as *mut u8);
                    t.pool.release(t.header, t.class);
                    boxed
                }
            }
        }
    }

    /// Flatten to a plain-backed `EventBox` (no-op when already plain).
    pub fn into_plain(self) -> EventBox {
        if self.ticket.is_none() {
            self
        } else {
            EventBox::from(self.into_boxed())
        }
    }

    /// Consuming downcast; returns the event by value, or the original
    /// box on mismatch so the caller can try the next candidate type.
    pub fn downcast<T: Event>(self) -> Result<T, EventBox> {
        if !(*self).is::<T>() {
            return Err(self);
        }
        let (obj, ticket) = self.into_parts();
        match ticket {
            None => {
                // Safety: `obj` came from `Box::into_raw` in `From`.
                let b: Box<dyn Event> = unsafe { Box::from_raw(obj.as_ptr()) };
                match b.downcast::<T>() {
                    Ok(t) => Ok(*t),
                    Err(b) => Err(EventBox::from(b)),
                }
            }
            Some(t) => {
                if !t.verify() {
                    t.flag_stale("downcast");
                }
                // Safety: type checked above; the value is moved out
                // and the slot released without dropping.
                unsafe {
                    let v = ptr::read(obj.as_ptr() as *mut T);
                    t.pool.release(t.header, t.class);
                    Ok(v)
                }
            }
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
        // Safety: Box::into_raw never returns null.
        EventBox {
            obj: unsafe { NonNull::new_unchecked(Box::into_raw(b)) },
            ticket: None,
        }
    }
}

impl std::ops::Deref for EventBox {
    type Target = dyn Event;
    fn deref(&self) -> &dyn Event {
        // Safety: `obj` is valid for the lifetime of the box.
        unsafe { self.obj.as_ref() }
    }
}

impl fmt::Debug for EventBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl Drop for EventBox {
    fn drop(&mut self) {
        match self.ticket.take() {
            // Safety: `obj` came from `Box::into_raw` in `From`.
            None => unsafe {
                drop(Box::from_raw(self.obj.as_ptr()));
            },
            Some(t) => {
                if !t.verify() {
                    t.flag_stale("drop");
                    // Never touch a slot something else may own.
                    return;
                }
                // Safety: unique ownership; payload dropped in place,
                // then the slot is released exactly once.
                unsafe {
                    ptr::drop_in_place(self.obj.as_ptr());
                    t.pool.release(t.header, t.class);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn into_boxed_flattens_pooled_payloads() {
        let pool = EventPool::new();
        let b = pool.make(Small(3));
        let plain: Box<dyn Event> = b.into_boxed();
        assert_eq!(*plain.downcast::<Small>().unwrap(), Small(3));
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
