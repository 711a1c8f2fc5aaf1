//! One shard's pending events: a run-length priority queue.
//!
//! Events leave in `(time, push order)` order. The schedule a broadcast
//! network produces is mostly same-instant bursts — a WiFi batch reaches
//! every receiver at one instant, and every receiver replies at that
//! same instant — so [`EventQueue`] heaps *runs*, not events: a run is
//! a maximal sequence of consecutive pushes with one timestamp, and a
//! burst of `n` events costs one heap push and one heap pop instead of
//! `n` of each.
//!
//! **Why this is exact.** Consecutive pushes with one timestamp are
//! adjacent in `(time, push order)`: nothing pushed to this queue falls
//! between them. So a run's events leave back to back, and runs order
//! among themselves by `(time, creation order)` — the order of their
//! first events.
//!
//! **Layout.** Every pending event is a 24-byte [`Node`] in one slab,
//! linked into its run through `next` (into the free list once it has
//! left), so a run costs no allocation of its own and the slab's
//! capacity is shared by all runs. The newest run stays *open*, outside
//! the heap: a push at its timestamp appends to it, any other push moves
//! it into the heap and opens a new one. The open run is always the
//! youngest, so a pop takes the heap's top run when that run's time is
//! `<=` the open run's and the open run otherwise; taking an event off
//! the top run only advances its head and leaves its key unchanged.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::actor::ActorId;
use crate::pool::EventBox;
use crate::time::SimTime;

/// End of the free list.
const NIL: u32 = u32::MAX;

/// A pending event, or a free slot (`ev == None`).
struct Node {
    to: ActorId,
    /// The next event of the same run, or the next free slot.
    next: u32,
    ev: Option<EventBox>,
}

/// Events pushed back to back at one instant: slab indices of the
/// oldest (`head`) and newest (`tail`) one still queued.
#[derive(Clone, Copy)]
struct Run {
    at: SimTime,
    /// Creation order; breaks ties in `at`.
    id: u64,
    head: u32,
    tail: u32,
}

impl PartialEq for Run {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.id) == (other.at, other.id)
    }
}
impl Eq for Run {}
impl PartialOrd for Run {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Run {
    // BinaryHeap is a max-heap; invert so the earliest (at, id) pops
    // first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.id).cmp(&(self.at, self.id))
    }
}

/// A `(time, push order)` priority queue of events (module docs).
pub(crate) struct EventQueue {
    nodes: Vec<Node>,
    /// Head of the free-slot list threaded through `nodes`.
    free: u32,
    /// Closed runs.
    runs: BinaryHeap<Run>,
    /// The youngest run, which pushes at its `at` extend; never empty.
    open: Option<Run>,
    next_id: u64,
    /// Queued events (not runs).
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            runs: BinaryHeap::new(),
            open: None,
            next_id: 0,
            len: 0,
        }
    }
}

impl EventQueue {
    /// Queue `ev` for `to` at `at`, behind every event already queued
    /// for `at`.
    pub(crate) fn push(&mut self, at: SimTime, to: ActorId, ev: EventBox) {
        let node = Node {
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
        match &mut self.open {
            Some(open) if open.at == at => {
                self.nodes[open.tail as usize].next = ix;
                open.tail = ix;
            }
            open => {
                let run = Run {
                    at,
                    id: self.next_id,
                    head: ix,
                    tail: ix,
                };
                self.next_id += 1;
                if let Some(closed) = open.replace(run) {
                    self.runs.push(closed);
                }
            }
        }
    }

    /// Remove the earliest event: `(at, to, ev)`.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, ActorId, EventBox)> {
        let open_at = self.open.map(|r| r.at);
        let (at, ix) = match self.runs.peek_mut() {
            Some(mut top) if open_at.is_none_or(|o| top.at <= o) => {
                let (at, ix) = (top.at, top.head);
                if ix == top.tail {
                    PeekMut::pop(top);
                } else {
                    top.head = self.nodes[ix as usize].next;
                }
                (at, ix)
            }
            _ => {
                let open = self.open.as_mut()?;
                let (at, ix) = (open.at, open.head);
                if ix == open.tail {
                    self.open = None;
                } else {
                    open.head = self.nodes[ix as usize].next;
                }
                (at, ix)
            }
        };
        self.len -= 1;
        let node = &mut self.nodes[ix as usize];
        node.next = self.free;
        self.free = ix;
        // A run links only live nodes, so `ev` is always `Some` here.
        Some((at, node.to, node.ev.take()?))
    }

    /// Time of the earliest queued event.
    pub(crate) fn peek_at(&self) -> Option<SimTime> {
        match (self.runs.peek(), &self.open) {
            (Some(top), Some(open)) => Some(top.at.min(open.at)),
            (top, open) => top.or(open.as_ref()).map(|r| r.at),
        }
    }

    /// Queued events (not runs).
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
    fn node_and_run_are_24_bytes() {
        assert_eq!(size_of::<Node>(), 24);
        assert_eq!(size_of::<Run>(), 24);
    }

    /// One step of the interleaving the property explores.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push at the time of the last pop.
        PushNow,
        /// Push at the previous push's time (extends its run).
        PushSame,
        /// Push `1 + .0 % 4` ns after the last pop.
        PushLater(u8),
        /// Push `1 + .0 % 3` ns before the earliest queued event.
        PushBelowHead(u8),
        Pop,
    }

    fn decode_op((sel, arg): (u8, u8)) -> Op {
        match sel % 8 {
            0 => Op::PushNow,
            1 | 2 => Op::PushSame,
            3 => Op::PushLater(arg),
            4 => Op::PushBelowHead(arg),
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
                Op::PushSame => Some(last_at),
                Op::PushLater(k) => Some(now + SimDuration::from_nanos(1 + u64::from(k % 4))),
                Op::PushBelowHead(k) => {
                    let head = q.peek_at().unwrap_or(now).as_nanos();
                    Some(SimTime::from_nanos(
                        head.saturating_sub(1 + u64::from(k % 3)),
                    ))
                }
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
        /// Arbitrary interleavings of pushes at the current time, at
        /// the previous push's time, later, and below the queue's head,
        /// with pops: the queue agrees with a plain `(at, seq)` heap at
        /// every step, and drops every event exactly once.
        #[test]
        fn prop_matches_reference_heap(
            raw_ops in prop::collection::vec((any::<u8>(), any::<u8>()), 1..300),
        ) {
            run_against_reference(raw_ops.iter().copied().map(decode_op));
        }
    }
}
