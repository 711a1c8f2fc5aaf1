//! `local`, dist-n and upstream backup: one per-node scheme, output
//! retention plus `n` peer copies.
//!
//! §IV-B describes `local` and dist-n as one scheme. On every
//! checkpoint tick each node snapshots its operators into its own
//! storage, and it practices input preservation: "every operator
//! retains its output tuples until these tuples have been checkpointed
//! by the downstream operators" (approximated by a retention window of
//! one checkpoint period). Retained tuples keep their modelled `bytes`;
//! on the host, a retained BCP crop keeps its frame's seed and rebuilds
//! the pixels on replay ("What a retained output keeps" below). The
//! schemes differ only in how many peers receive each copy:
//!
//! * **`local`** (0 peers) keeps the copy to itself — "not a realistic
//!   fault model in the context of smartphones, but represents an upper
//!   bound in performance", so its coordinator gives a region up on
//!   its first detected failure.
//! * **dist-n** ("modeled after Cooperative HA Solution and SGuard")
//!   also unicasts it over reliable WiFi to its `n` checkpoint peers
//!   ([`peers_of`]) — that traffic is exactly the `0.76×/1.52×/2.28×`
//!   Fig 10b series. Recovery ships a failed node's states from a
//!   surviving peer to its replacement, then replays retained upstream
//!   tuples; more simultaneous failures serialize more fetches over the
//!   shared channel (Fig 9), and more than `n` are unrecoverable.
//!
//! **Upstream backup** (Hwang et al., ICDE'05 — a related-work
//! extension) is the same retention with no checkpoints: a failed
//! node's operators are re-created fresh on its upstream neighbour,
//! which replays its retained outputs ("it only handles single node
//! failure").
//!
//! The scheme serves whatever the coordinator sends — checkpoint ticks
//! (never sent under upstream backup), peer copies, state-ship requests
//! and replay requests. Only the retention trim and the install differ
//! with checkpointing, and both are keyed off the one constructor
//! argument.
//!
//! ## What a retained output keeps
//!
//! Every retained output counts its modelled `bytes` toward
//! [`FtScheme::preserved_bytes`] (Fig 10a) until a trim drops it, but a
//! replay reads only some of them. The coordinator asks for a replay
//! (`ResendRetained`) after a recovery install, by the replay rule
//! stated on `dsps::placement::RecoveryPlan`: every replayed edge's
//! source is a live slot other than the recovered one. So an output
//! emitted while this node also hosts the edge's target op is never
//! read again:
//!
//! * the node got both ops from one install (or the initial
//!   placement), so the coordinator's table had both on its slot;
//! * an op leaves a live node only when that node's slot is declared
//!   failed, and then the slot's ops all move to one replacement
//!   (`Placement::reassign_slot`). Two ops that share a slot share one
//!   from then on, and their edge is never asked for;
//! * a failed slot is never asked to replay, and a rebooted phone
//!   unhosts everything and comes back idle;
//! * a checkpoint install clears the buffer.
//!
//! Such an output keeps only `(emitted at, bytes)`, 16 bytes. One that a
//! replay can reach keeps a 48-byte `Kept` (a `(SimTime, Tuple)` is
//! 56), and `resend_retained` rebuilds its `Tuple` as a replay. In debug
//! builds `resend_retained` asserts that a requested edge holds no
//! size-only entries. Both kinds live per edge in fixed-capacity chunks
//! (`CHUNK`), so there is no doubling slack, and a trim frees what it
//! drops at once.
//!
//! `local` keeps the same. It has no recovery for a detected failure,
//! but a phone that reboots before its failure is detected is
//! re-installed from its own flash copy, and its upstream slots replay
//! into it, so `local`'s outputs on remote edges are reachable too.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use dsps::ft::FtScheme;
use dsps::graph::EdgeId;
use dsps::node::{wire, CheckpointTick, Install, InstallStates, NodeInner, Recovered};
use dsps::tuple::{StreamItem, Tuple, TupleValue};
use simkernel::{Ctx, EventBox, SimDuration, SimTime};
use simnet::stats::TrafficClass;
use simnet::{net_send, payload, payload_as, NetRx};

use crate::msgs::{ResendRetained, ShipStateTo, StateCopy};
use dsps::placement::peers_of;

/// Serialize-cost model: how long the phone core is busy writing a
/// snapshot of `bytes` (flash write + serialization, ~30 MB/s).
fn serialize_hold(bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / 30.0e6)
}

/// Entries per retention chunk. A chunk is allocated at exactly this
/// capacity and never grows, so a buffer of `n` entries holds at most
/// one partly filled chunk at each end instead of a `VecDeque`'s up to
/// `n` slots of doubling slack. 64 keeps a quiet edge's one chunk
/// small (3 KiB of [`Kept`], 1 KiB of sizes).
const CHUNK: usize = 64;

/// A FIFO in fixed-capacity chunks, oldest entry first.
struct Chunks<T> {
    chunks: VecDeque<Vec<T>>,
}

impl<T> Default for Chunks<T> {
    fn default() -> Self {
        Chunks {
            chunks: VecDeque::new(),
        }
    }
}

impl<T> Chunks<T> {
    fn push(&mut self, x: T) {
        match self.chunks.back_mut() {
            Some(c) if c.len() < CHUNK => c.push(x),
            _ => {
                let mut c = Vec::with_capacity(CHUNK);
                c.push(x);
                self.chunks.push_back(c);
            }
        }
    }

    /// Drop the leading entries that are `stale` (a prefix: entries
    /// arrive in time order). Whole chunks go at once, and the front
    /// chunk drains its stale prefix, so every dropped entry is freed
    /// now.
    fn trim(&mut self, stale: impl Fn(&T) -> bool) {
        while let Some(front) = self.chunks.front_mut() {
            let k = front.partition_point(&stale);
            if k < front.len() {
                front.drain(..k);
                return;
            }
            self.chunks.pop_front();
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flatten()
    }

    fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

/// A retained output a replay can reach: the emitted [`Tuple`] less
/// its `replay` flag, which is `false` on every retained output and
/// `true` on every resend. 48 bytes, where a `(SimTime, Tuple)` is 56.
struct Kept {
    at: SimTime,
    id: u64,
    entered: SimTime,
    bytes: u64,
    value: TupleValue,
}

/// One edge's retained outputs: the reachable ones whole, the others
/// as `(emitted at, bytes)`. Either may hold entries of any age.
#[derive(Default)]
struct EdgeLog {
    kept: Chunks<Kept>,
    sized: Chunks<(SimTime, u64)>,
}

/// Output-retention buffer (input preservation).
#[derive(Default)]
struct RetentionBuffer {
    per_edge: BTreeMap<EdgeId, EdgeLog>,
}

impl RetentionBuffer {
    /// Retain an emitted tuple: whole if a replay can reach it
    /// (`reachable`), else only its size.
    fn retain(&mut self, edge: EdgeId, at: SimTime, tuple: &Tuple, reachable: bool) {
        let log = self.per_edge.entry(edge).or_default();
        if reachable {
            log.kept.push(Kept {
                at,
                id: tuple.id,
                entered: tuple.entered,
                bytes: tuple.bytes,
                value: Arc::clone(&tuple.value),
            });
        } else {
            log.sized.push((at, tuple.bytes));
        }
    }

    /// Drop tuples older than `horizon`.
    fn trim_before(&mut self, horizon: SimTime) {
        for log in self.per_edge.values_mut() {
            log.kept.trim(|k| k.at < horizon);
            log.sized.trim(|&(at, _)| at < horizon);
        }
    }

    /// Bytes currently retained.
    fn bytes(&self) -> u64 {
        let kept = self.per_edge.values().flat_map(|l| l.kept.iter());
        let sized = self.per_edge.values().flat_map(|l| l.sized.iter());
        kept.map(|k| k.bytes).sum::<u64>() + sized.map(|&(_, b)| b).sum::<u64>()
    }

    /// Retained tuples on one edge (oldest first), rebuilt as replays.
    fn tuples_on(&self, edge: EdgeId) -> impl Iterator<Item = Tuple> + '_ {
        let kept = self.per_edge.get(&edge).into_iter();
        kept.flat_map(|l| l.kept.iter()).map(|k| Tuple {
            id: k.id,
            entered: k.entered,
            bytes: k.bytes,
            value: Arc::clone(&k.value),
            replay: true,
        })
    }

    /// Does `edge` hold outputs kept only by size?
    fn sized_on(&self, edge: EdgeId) -> bool {
        self.per_edge
            .get(&edge)
            .is_some_and(|l| !l.sized.is_empty())
    }

    /// Clear everything.
    fn clear(&mut self) {
        self.per_edge.clear();
    }
}

/// Internal: clear the CPU hold placed while serializing a snapshot.
#[derive(Debug)]
struct CpuHoldDone;

/// The `local` / dist-n / upstream-backup node scheme: checkpoints
/// into its own store and to `n` peers (upstream backup takes none)
/// and retains every output it emits for a window. An output that a later replay can
/// read keeps its content; one emitted on an edge whose target op this
/// node also hosts keeps only its size (module docs).
pub struct RetainScheme {
    /// Checkpoint peers per copy: `Some(0)` is `local`, `Some(n)`
    /// dist-n, `None` takes no checkpoints (upstream backup).
    peers: Option<u32>,
    /// Retention window (= checkpoint period).
    window: SimDuration,
    retention: RetentionBuffer,
    /// Last retention trim on emit (only without checkpoints).
    last_trim: SimTime,
    cpu_held: bool,
}

impl RetainScheme {
    /// A node retaining its outputs for `window` and shipping every
    /// checkpoint to `peers` peers (`None`: no checkpoints).
    pub fn new(peers: Option<u32>, window: SimDuration) -> Self {
        RetainScheme {
            peers,
            window,
            retention: RetentionBuffer::default(),
            last_trim: SimTime::ZERO,
            cpu_held: false,
        }
    }

    fn take_checkpoint(&mut self, version: u64, n: u32, node: &mut NodeInner, ctx: &mut Ctx) {
        let snap = node.snapshot();
        let total = node.store.put_snapshot(version, &snap);
        node.store.mark_complete(version);
        node.store.gc_before(version.saturating_sub(1)); // keep v-1 and v
        self.retention.trim_before(ctx.now() - self.window);
        if total == 0 {
            return;
        }
        // Each peer gets its own reliable unicast — n copies on the wire
        // (vs MobiStreams' single broadcast).
        let total_slots = node.slot_actors.len() as u32;
        let copy = payload(StateCopy {
            version,
            states: snap,
        });
        let class = TrafficClass::Checkpoint;
        for peer in peers_of(node.cfg.slot, n, total_slots) {
            let dst = node.slot_actors[peer as usize];
            net_send(ctx, node.primary, dst, class, total, 0, copy.clone());
        }
        // Serialization briefly occupies the core; skipped if a tuple is
        // in service (async thread).
        if !node.busy {
            node.busy = true;
            self.cpu_held = true;
            let me = ctx.self_id();
            ctx.send_in(serialize_hold(total), me, CpuHoldDone);
        }
    }

    fn ship_state(&mut self, req: &ShipStateTo, node: &mut NodeInner, ctx: &mut Ctx) {
        // The coordinator already updated op_slot, so the replacement's
        // op set is whatever maps to its slot, and it gets those of the
        // failed node's states we hold.
        let their_ops = dsps::placement::ops_on(&node.op_slot, req.to_slot);
        let mut snap = node.store.snapshot(req.version);
        snap.retain(|(op, ..)| their_ops.contains(op));
        let bytes: u64 = snap.iter().map(|&(_, _, b)| b).sum();
        let install = Install {
            ops: their_ops,
            states: InstallStates::Explicit(snap),
            op_slot: node.op_slot.clone(),
            ready_in: SimDuration::from_secs(1),
        };
        // The fetch+restore crosses the shared WiFi channel: with k
        // simultaneous failures these transfers serialize — the dist-n
        // degradation of Fig 9.
        let (class, install) = (TrafficClass::Recovery, payload(install));
        net_send(ctx, node.primary, req.to, class, bytes.max(1), 0, install);
    }

    fn resend_retained(&mut self, edges: &[EdgeId], node: &mut NodeInner, ctx: &mut Ctx) {
        for &edge in edges {
            debug_assert!(
                !self.retention.sized_on(edge),
                "a replay asked for {edge:?}, whose outputs were retained by size only"
            );
            for t in self.retention.tuples_on(edge) {
                node.route_item(ctx, edge, StreamItem::Tuple(t));
            }
        }
    }
}

impl FtScheme for RetainScheme {
    fn name(&self) -> &'static str {
        "retain"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_emit(
        &mut self,
        tuple: &Tuple,
        edge: EdgeId,
        node: &mut NodeInner,
        ctx: &mut Ctx,
    ) -> bool {
        if tuple.replay {
            return true;
        }
        let now = ctx.now();
        let reachable = !node.hosts(node.graph.edge_target(edge));
        self.retention.retain(edge, now, tuple, reachable);
        // With no checkpoint to trim at, trim once per window (real
        // upstream backup trims on downstream acks).
        if self.peers.is_none() && now - self.last_trim > self.window {
            self.last_trim = now;
            self.retention.trim_before(now - self.window);
        }
        true
    }

    fn on_custom(&mut self, ev: EventBox, node: &mut NodeInner, ctx: &mut Ctx) {
        if !node.alive {
            return;
        }
        simkernel::match_event!(ev,
            _h: CpuHoldDone => {
                if self.cpu_held {
                    self.cpu_held = false;
                    node.busy = false;
                }
            },
            rx: NetRx => {
                let p = &rx.payload;
                if let Some(copy) = payload_as::<StateCopy>(p) {
                    node.store.put_snapshot(copy.version, &copy.states);
                    node.store.mark_complete(copy.version);
                } else if let Some(t) = payload_as::<CheckpointTick>(p) {
                    if let Some(n) = self.peers {
                        self.take_checkpoint(t.version, n, node, ctx);
                    }
                } else if let Some(req) = payload_as::<ShipStateTo>(p) {
                    let req = *req;
                    self.ship_state(&req, node, ctx);
                } else if let Some(r) = payload_as::<ResendRetained>(p) {
                    let edges = r.edges.clone();
                    self.resend_retained(&edges, node, ctx);
                }
            },
            @else _other => {}
        );
    }

    fn on_install(&mut self, node: &mut NodeInner, ctx: &mut Ctx) {
        // A checkpoint install supersedes what the node emitted before
        // it; without checkpoints the retained outputs are the backup.
        if self.peers.is_some() {
            self.retention.clear();
        }
        let ack = Recovered {
            region: node.cfg.region,
            slot: node.cfg.slot,
        };
        node.send_controller(ctx, wire::CONTROL, ack);
    }

    fn preserved_bytes(&self, node: &NodeInner) -> u64 {
        let _ = node;
        self.retention.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsps::tuple::value;

    fn tup(id: u64, bytes: u64) -> Tuple {
        Tuple::new(id, SimTime::ZERO, bytes, value(()))
    }

    #[test]
    fn retention_trims_by_time() {
        let mut r = RetentionBuffer::default();
        r.retain(EdgeId(0), SimTime::from_secs(1), &tup(1, 100), true);
        r.retain(EdgeId(0), SimTime::from_secs(2), &tup(2, 100), true);
        r.retain(EdgeId(1), SimTime::from_secs(3), &tup(3, 50), false);
        assert_eq!(r.bytes(), 250);
        r.trim_before(SimTime::from_secs(2));
        assert_eq!(r.bytes(), 150);
        assert_eq!(r.tuples_on(EdgeId(0)).count(), 1);
        r.clear();
        assert_eq!(r.bytes(), 0);
    }

    #[test]
    fn retention_accumulates_and_trims() {
        let mut r = RetentionBuffer::default();
        r.retain(EdgeId(0), SimTime::from_secs(1), &tup(1, 100), true);
        r.retain(EdgeId(0), SimTime::from_secs(20), &tup(2, 50), false);
        assert_eq!(r.bytes(), 150);
        r.trim_before(SimTime::from_secs(15));
        assert_eq!(r.bytes(), 50);
    }

    /// An unreachable output keeps its size and nothing else, and a
    /// reachable one comes back as a replay of the same content.
    #[test]
    fn retention_keeps_only_what_a_replay_reads() {
        assert_eq!(std::mem::size_of::<Kept>(), 48);
        assert_eq!(std::mem::size_of::<(SimTime, Tuple)>(), 56);
        let (shared, unread) = (tup(1, 100), tup(2, 70));
        let mut r = RetentionBuffer::default();
        r.retain(EdgeId(0), SimTime::from_secs(1), &shared, true);
        r.retain(EdgeId(1), SimTime::from_secs(1), &unread, false);
        assert_eq!(Arc::strong_count(&unread.value), 1, "a size pins no value");
        assert_eq!(r.bytes(), 170);
        assert!(r.sized_on(EdgeId(1)) && !r.sized_on(EdgeId(0)));
        let replays: Vec<Tuple> = r.tuples_on(EdgeId(0)).collect();
        assert_eq!(replays.len(), 1);
        assert!(replays[0].replay && replays[0].id == 1 && replays[0].bytes == 100);
        assert!(Arc::ptr_eq(&replays[0].value, &shared.value));
        assert_eq!(r.tuples_on(EdgeId(1)).count(), 0);
    }

    /// A trim frees what it drops at once, in whole chunks and from
    /// inside the front chunk, and keeps every chunk at its capacity.
    #[test]
    fn retention_chunks_free_on_trim() {
        let mut r = RetentionBuffer::default();
        let t = tup(0, 1);
        let n = 2 * CHUNK + 5;
        for i in 0..n as u64 {
            r.retain(EdgeId(0), SimTime::from_secs(i), &t, true);
        }
        assert_eq!(Arc::strong_count(&t.value), 1 + n);
        let chunks = &r.per_edge[&EdgeId(0)].kept.chunks;
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.capacity() == CHUNK));
        r.trim_before(SimTime::from_secs(CHUNK as u64 + 3));
        assert_eq!(Arc::strong_count(&t.value), 1 + n - CHUNK - 3);
        assert_eq!(r.per_edge[&EdgeId(0)].kept.chunks.len(), 2);
        r.trim_before(SimTime::from_secs(n as u64));
        assert_eq!(Arc::strong_count(&t.value), 1);
        assert!(r.per_edge[&EdgeId(0)].kept.is_empty());
    }

    #[test]
    fn serialize_hold_scales() {
        let small = serialize_hold(1024);
        let big = serialize_hold(8 * 1024 * 1024);
        assert!(big > small);
        // 8 MB at 30 MB/s ≈ 0.28 s.
        assert!((big.as_secs_f64() - 0.2796).abs() < 0.01, "{big}");
    }

    #[test]
    fn peers_are_cyclic_and_skip_self() {
        assert_eq!(peers_of(0, 3, 8), vec![1, 2, 3]);
        assert_eq!(peers_of(6, 3, 8), vec![7, 0, 1]);
        assert_eq!(peers_of(7, 1, 8), vec![0]);
        // Region smaller than n: everyone else.
        assert_eq!(peers_of(0, 5, 3), vec![1, 2]);
        // A one-phone region has nobody to hold a copy; `local` ships
        // to nobody.
        assert_eq!(peers_of(0, 1, 1), Vec::<u32>::new());
        assert_eq!(peers_of(3, 0, 8), Vec::<u32>::new());
    }

    #[test]
    fn pigeonhole_survivability() {
        // With k ≤ n failures, at least one peer of any failed slot
        // survives: check exhaustively for a small region.
        let total = 6u32;
        let n = 2u32;
        for failed_mask in 0u32..(1 << total) {
            let failed: Vec<u32> = (0..total).filter(|&s| failed_mask >> s & 1 == 1).collect();
            if failed.len() as u32 > n || failed.is_empty() {
                continue;
            }
            for &f in &failed {
                let peers = peers_of(f, n, total);
                assert!(
                    peers.iter().any(|p| !failed.contains(p)),
                    "slot {f} lost all copies with failures {failed:?}"
                );
            }
        }
    }

    /// The buffer before outputs kept only what a replay reads: every
    /// retained output as a `(SimTime, Tuple)` in one `VecDeque` per
    /// edge. The model the chunked buffer must agree with.
    mod model {
        use super::*;

        #[derive(Default)]
        pub struct DequeBuffer {
            per_edge: BTreeMap<EdgeId, VecDeque<(SimTime, Tuple)>>,
        }

        impl DequeBuffer {
            pub fn retain(&mut self, edge: EdgeId, at: SimTime, tuple: Tuple) {
                self.per_edge
                    .entry(edge)
                    .or_default()
                    .push_back((at, tuple));
            }

            pub fn trim_before(&mut self, horizon: SimTime) {
                for q in self.per_edge.values_mut() {
                    while q.front().is_some_and(|(t, _)| *t < horizon) {
                        q.pop_front();
                    }
                }
            }

            pub fn bytes(&self) -> u64 {
                self.per_edge
                    .values()
                    .flat_map(|q| q.iter())
                    .map(|(_, t)| t.bytes)
                    .sum()
            }

            pub fn tuples_on(&self, edge: EdgeId) -> Vec<Tuple> {
                self.per_edge
                    .get(&edge)
                    .map(|q| q.iter().map(|(_, t)| t.clone()).collect())
                    .unwrap_or_default()
            }

            pub fn clear(&mut self) {
                self.per_edge.clear();
            }
        }
    }

    const EDGES: u32 = 3;

    proptest::proptest! {
        /// After every step of a random sequence of retains (reachable
        /// or not), trims and clears, the chunked buffer holds the
        /// model's bytes, and on every edge it replays exactly the
        /// model's reachable tuples: same ids, `entered`, bytes and
        /// value allocations, in order. An edge holds size-only
        /// entries exactly when the model holds an unreachable tuple.
        #[test]
        fn prop_chunked_buffer_matches_the_deque_model(
            steps in proptest::prop::collection::vec((0u32..12, 0..EDGES, 0u64..4, 1u64..900), 1..400),
        ) {
            let (mut r, mut m) = (RetentionBuffer::default(), model::DequeBuffer::default());
            let mut reachable_ids = std::collections::BTreeSet::new();
            let mut now = SimTime::ZERO;
            for (i, &(kind, edge, dt, bytes)) in steps.iter().enumerate() {
                let edge = EdgeId(edge);
                now += SimDuration::from_secs(dt);
                match kind {
                    0 => {
                        let horizon = SimTime::from_secs(now.as_secs_f64() as u64 * bytes / 900);
                        r.trim_before(horizon);
                        m.trim_before(horizon);
                    }
                    1 if bytes % 8 == 0 => {
                        r.clear();
                        m.clear();
                    }
                    _ => {
                        let t = Tuple::new(i as u64, SimTime::from_secs(bytes), bytes, value(()));
                        let reachable = kind % 3 != 0;
                        if reachable {
                            reachable_ids.insert(t.id);
                        }
                        r.retain(edge, now, &t, reachable);
                        m.retain(edge, now, t);
                    }
                }
                proptest::prop_assert_eq!(r.bytes(), m.bytes(), "step {}", i);
                for e in (0..EDGES).map(EdgeId) {
                    let want = m.tuples_on(e);
                    let (reach, sized): (Vec<_>, Vec<_>) =
                        want.iter().partition(|t| reachable_ids.contains(&t.id));
                    let got: Vec<Tuple> = r.tuples_on(e).collect();
                    proptest::prop_assert_eq!(got.len(), reach.len(), "step {} {:?}", i, e);
                    for (g, w) in got.iter().zip(&reach) {
                        proptest::prop_assert!(
                            g.replay
                                && g.id == w.id
                                && g.entered == w.entered
                                && g.bytes == w.bytes
                                && Arc::ptr_eq(&g.value, &w.value),
                            "step {} {:?}: replayed {:?}, retained {:?}", i, e, g, w
                        );
                    }
                    proptest::prop_assert_eq!(r.sized_on(e), !sized.is_empty(), "step {} {:?}", i, e);
                }
            }
        }
    }
}
