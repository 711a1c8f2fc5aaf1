//! One shard's pending events: a radix heap (Ahuja, Mehlhorn, Orlin and
//! Tarjan, J. ACM 1990) over the event time in nanoseconds.
//!
//! Events leave in `(time, push order)` order.
//!
//! **Buckets.** `last` is the time of the last pop. Bucket 0 holds the
//! events at `last`; bucket `b > 0` holds the events whose time first
//! differs from `last` at bit `b - 1` (counting from the least
//! significant bit), so every event in bucket `b` is earlier than every
//! event in bucket `b + 1`. A push appends to its bucket. A pop takes
//! bucket 0's head; when bucket 0 is empty it first *refills* it: the
//! lowest non-empty bucket's minimum becomes `last`, and that bucket's
//! events move, in list order, to the buckets their times now fall in
//! — all of them lower, and those at the minimum into bucket 0. The
//! other buckets keep their events: `last` moved only within bits
//! below their own first differing bit. Each event moves down at most
//! 64 times, and the events of one instant always move together.
//!
//! **Why FIFO within an instant holds.** An event's bucket is a
//! function of its time and `last`, so events with equal times always
//! share a bucket. Appends go to the tail and a refill walks a list
//! from its head, so two events with one time keep their push order
//! through every move. No run ids, and no comparison of events beyond
//! each bucket's running minimum.
//!
//! **Contract.** No push is earlier than the last pop (a debug build
//! panics on one). The kernel guarantees it: `Ctx::send`/`send_in`
//! push at or after the shard's clock, `Sim::schedule_at` clamps to
//! it, and the barrier merge asserts it for cross-shard arrivals.
//!
//! **Layout.** Every pending event is a 32-byte [`Node`] in one slab,
//! linked into its bucket through `next` (into the free list once it
//! has left), so a bucket costs no allocation of its own. Each bucket
//! keeps its head, tail and minimum time, and a bitmask records the
//! non-empty ones, so `peek_at` is O(1).

use crate::actor::ActorId;
use crate::pool::EventBox;
use crate::time::SimTime;

/// End of a bucket list and of the free list.
const NIL: u32 = u32::MAX;

/// Bucket 0 plus one per bit of a 64-bit time.
const BUCKETS: usize = 65;

/// A pending event, or a free slot (`ev == None`).
struct Node {
    at: SimTime,
    to: ActorId,
    /// The next event of the same bucket, or the next free slot.
    next: u32,
    ev: Option<EventBox>,
}

/// One bucket's list: slab indices of its oldest (`head`) and newest
/// (`tail`) event, and its earliest time. Meaningful only while the
/// bucket's bit in `EventQueue::nonempty` is set.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    min: SimTime,
}

/// The bucket of an event at `at` when the last pop was at `last`.
#[inline]
fn bucket_of(at: SimTime, last: SimTime) -> usize {
    64 - (at.as_nanos() ^ last.as_nanos()).leading_zeros() as usize
}

/// A `(time, push order)` priority queue of events (module docs).
pub(crate) struct EventQueue {
    nodes: Vec<Node>,
    /// Head of the free-slot list threaded through `nodes`.
    free: u32,
    buckets: [Bucket; BUCKETS],
    /// Bit `b` is set while bucket `b` holds an event.
    nonempty: u128,
    /// Time of the last pop.
    last: SimTime,
    /// Queued events.
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            buckets: [Bucket {
                head: NIL,
                tail: NIL,
                min: SimTime::MAX,
            }; BUCKETS],
            nonempty: 0,
            last: SimTime::ZERO,
            len: 0,
        }
    }
}

impl EventQueue {
    /// Queue `ev` for `to` at `at`, behind every event already queued
    /// for `at`. `at` must not be earlier than the last pop.
    pub(crate) fn push(&mut self, at: SimTime, to: ActorId, ev: EventBox) {
        debug_assert!(
            at >= self.last,
            "event pushed at {at:?}, before the last pop at {:?}",
            self.last
        );
        let node = Node {
            at,
            to,
            next: NIL,
            ev: Some(ev),
        };
        let ix = if self.free == NIL {
            debug_assert!(self.nodes.len() < NIL as usize, "event queue slab full");
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let ix = self.free;
            let slot = &mut self.nodes[ix as usize];
            self.free = slot.next;
            *slot = node;
            ix
        };
        self.len += 1;
        self.append(ix, at);
    }

    /// Link node `ix` (time `at`, `next == NIL`) at the tail of its
    /// bucket.
    #[inline]
    fn append(&mut self, ix: u32, at: SimTime) {
        let b = bucket_of(at, self.last);
        let bucket = &mut self.buckets[b];
        if self.nonempty >> b & 1 == 0 {
            self.nonempty |= 1 << b;
            *bucket = Bucket {
                head: ix,
                tail: ix,
                min: at,
            };
        } else {
            self.nodes[bucket.tail as usize].next = ix;
            bucket.tail = ix;
            bucket.min = bucket.min.min(at);
        }
    }

    /// Bucket 0 is empty: move `last` to the lowest non-empty bucket's
    /// minimum and redistribute that bucket. False if the queue is
    /// empty.
    fn refill(&mut self) -> bool {
        let above = self.nonempty & !1;
        if above == 0 {
            return false;
        }
        let b = above.trailing_zeros() as usize;
        self.nonempty &= !(1 << b);
        let Bucket { head, min, .. } = self.buckets[b];
        self.last = min;
        let mut ix = head;
        while ix != NIL {
            let node = &mut self.nodes[ix as usize];
            let (next, at) = (node.next, node.at);
            node.next = NIL;
            self.append(ix, at);
            ix = next;
        }
        true
    }

    /// Remove the earliest event: `(at, to, ev)`.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, ActorId, EventBox)> {
        if self.nonempty & 1 == 0 && !self.refill() {
            return None;
        }
        let bucket = &mut self.buckets[0];
        let ix = bucket.head;
        let node = &mut self.nodes[ix as usize];
        if ix == bucket.tail {
            self.nonempty &= !1;
        } else {
            bucket.head = node.next;
        }
        node.next = self.free;
        self.free = ix;
        self.len -= 1;
        // A bucket links only live nodes, so `ev` is always `Some` here.
        Some((node.at, node.to, node.ev.take()?))
    }

    /// Time of the earliest queued event.
    pub(crate) fn peek_at(&self) -> Option<SimTime> {
        if self.nonempty & 1 != 0 {
            return Some(self.last);
        }
        let above = self.nonempty & !1;
        (above != 0).then(|| self.buckets[above.trailing_zeros() as usize].min)
    }

    /// Queued events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::EventPool;
    use crate::time::SimDuration;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::mem::size_of;
    use std::sync::atomic::{self, AtomicU64};
    use std::sync::Arc;

    /// A payload naming its push, counting its own destructor runs.
    #[derive(Debug)]
    struct Counted {
        seq: u64,
        drops: Arc<AtomicU64>,
    }
    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.fetch_add(1, atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn node_is_32_bytes_and_bucket_16() {
        assert_eq!(size_of::<Node>(), 32);
        assert_eq!(size_of::<Bucket>(), 16);
    }

    #[test]
    fn buckets_split_on_the_first_differing_bit() {
        let t = SimTime::from_nanos;
        assert_eq!(bucket_of(t(5), t(5)), 0);
        assert_eq!(bucket_of(t(4), t(5)), 1);
        assert_eq!(bucket_of(t(6), t(5)), 2);
        assert_eq!(bucket_of(t(8), t(5)), 4);
        assert_eq!(bucket_of(SimTime::MAX, SimTime::ZERO), 64);
    }

    /// A push earlier than the last pop breaks the radix invariant; a
    /// debug build refuses it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "before the last pop")]
    fn push_before_the_last_pop_panics() {
        let mut q = EventQueue::default();
        let to = ActorId::from_index(0);
        q.push(SimTime::from_nanos(10), to, EventBox::new(()));
        assert!(q.pop().is_some());
        q.push(SimTime::from_nanos(9), to, EventBox::new(()));
    }

    /// One step of the interleaving the property explores. Every push
    /// is one the kernel can make: none is earlier than the last pop.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push at the time of the last pop.
        PushNow,
        /// Push at the previous push's time, clamped at the last pop.
        PushSame,
        /// Push `1 + .0 % 4` ns after the last pop.
        PushLater(u8),
        /// Push `1 + .0 % 3` ns before the earliest queued event,
        /// clamped at the last pop.
        PushBelowHead(u8),
        /// Push `2^(.0 % 41)` ns after the last pop: reaches the high
        /// buckets and refills that cascade down several levels.
        PushFar(u8),
        Pop,
    }

    fn decode_op((sel, arg): (u8, u8)) -> Op {
        match sel % 9 {
            0 => Op::PushNow,
            1 | 2 => Op::PushSame,
            3 => Op::PushLater(arg),
            4 => Op::PushBelowHead(arg),
            5 => Op::PushFar(arg),
            _ => Op::Pop,
        }
    }

    fn to_of(seq: u64) -> ActorId {
        ActorId::from_index((seq % 7) as usize)
    }

    /// Check a delivered event against the reference's `(at, seq)`.
    fn check((at, to, ev): (SimTime, ActorId, EventBox), (want_at, want_seq): (SimTime, u64)) {
        assert_eq!((at, to), (want_at, to_of(want_seq)));
        assert_eq!(ev.downcast::<Counted>().unwrap().seq, want_seq);
    }

    /// Drive `ops` against a reference `BinaryHeap<(at, seq)>`, checking
    /// every pop, `peek_at` and `len`, then drop the queue with whatever
    /// it still holds; every payload drops exactly once.
    fn run_against_reference(ops: impl Iterator<Item = Op>) {
        let pool = EventPool::new();
        let drops = Arc::new(AtomicU64::new(0));
        let mut q = EventQueue::default();
        let mut reference = BinaryHeap::new();
        let (mut now, mut last_at, mut seq) = (SimTime::ZERO, SimTime::ZERO, 0u64);
        for op in ops {
            let at = match op {
                Op::PushNow => Some(now),
                Op::PushSame => Some(last_at.max(now)),
                Op::PushLater(k) => Some(now + SimDuration::from_nanos(1 + u64::from(k % 4))),
                Op::PushBelowHead(k) => {
                    let head = q.peek_at().unwrap_or(now).as_nanos();
                    let below = SimTime::from_nanos(head.saturating_sub(1 + u64::from(k % 3)));
                    Some(below.max(now))
                }
                Op::PushFar(k) => Some(now + SimDuration::from_nanos(1 << (k % 41))),
                Op::Pop => {
                    match (q.pop(), reference.pop()) {
                        (Some(got), Some(Reverse(want))) => {
                            now = got.0;
                            check(got, want);
                        }
                        (None, None) => {}
                        (got, want) => panic!("pop {got:?}, reference {want:?}"),
                    }
                    None
                }
            };
            if let Some(at) = at {
                let ev = Counted {
                    seq,
                    drops: Arc::clone(&drops),
                };
                // Both kinds of box the kernel queues.
                let ev = if seq % 2 == 0 {
                    pool.make(ev)
                } else {
                    EventBox::new(ev)
                };
                q.push(at, to_of(seq), ev);
                reference.push(Reverse((at, seq)));
                last_at = at;
                seq += 1;
            }
            assert_eq!(q.peek_at(), reference.peek().map(|r| r.0 .0));
            assert_eq!(q.len(), reference.len());
        }
        drop(q);
        assert_eq!(
            drops.load(atomic::Ordering::Relaxed),
            seq,
            "one drop per event"
        );
        assert_eq!(pool.stats().aliasing, 0);
    }

    proptest! {
        /// Arbitrary interleavings of the pushes the kernel can make —
        /// at the last pop's time, at the previous push's time, a few ns
        /// later, just below the queue's head and far ahead — with pops:
        /// the queue agrees with a plain `(at, seq)` heap at every
        /// step, and drops every event exactly once.
        #[test]
        fn prop_matches_reference_heap(
            raw_ops in prop::collection::vec((any::<u8>(), any::<u8>()), 1..300),
        ) {
            run_against_reference(raw_ops.iter().copied().map(decode_op));
        }
    }
}
