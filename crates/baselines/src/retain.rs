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
//! the pixels on replay. The schemes differ only in how many peers
//! receive each copy:
//!
//! * **`local`** (0 peers) keeps the copy to itself — "not a realistic
//!   fault model in the context of smartphones, but represents an upper
//!   bound in performance", so its coordinator has no recovery path.
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
//! and replay requests (never sent under `local`). Only the retention
//! trim and the install differ with checkpointing, and both are keyed
//! off the one constructor argument.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use dsps::ft::FtScheme;
use dsps::graph::EdgeId;
use dsps::node::{Install, InstallStates, NodeInner};
use dsps::tuple::{StreamItem, Tuple};
use simkernel::{Ctx, EventBox, SimDuration, SimTime};
use simnet::stats::TrafficClass;
use simnet::{net_send, payload, payload_as, NetRx};

use crate::msgs::{wire, BaselineAck, CkptTick, ResendRetained, ShipStateTo, StateCopy};

/// Deterministic checkpoint peers of `slot`: the next `n` slots
/// cyclically, skipping the slot itself (none in a one-phone region).
/// Shared by the scheme and the coordinator so both sides agree who
/// holds whose state.
pub fn peers_of(slot: u32, n: u32, total_slots: u32) -> Vec<u32> {
    let mut v = Vec::new();
    let mut s = slot;
    while v.len() < n as usize && v.len() + 1 < total_slots as usize {
        s = (s + 1) % total_slots;
        if s != slot {
            v.push(s);
        }
    }
    v
}

/// Serialize-cost model: how long the phone core is busy writing a
/// snapshot of `bytes` (flash write + serialization, ~30 MB/s).
fn serialize_hold(bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / 30.0e6)
}

/// Output-retention buffer (input preservation).
#[derive(Default)]
struct RetentionBuffer {
    per_edge: BTreeMap<EdgeId, VecDeque<(SimTime, Tuple)>>,
}

impl RetentionBuffer {
    /// Retain a copy of an emitted tuple.
    fn retain(&mut self, edge: EdgeId, at: SimTime, tuple: Tuple) {
        self.per_edge
            .entry(edge)
            .or_default()
            .push_back((at, tuple));
    }

    /// Drop tuples older than `horizon`.
    fn trim_before(&mut self, horizon: SimTime) {
        for q in self.per_edge.values_mut() {
            while q.front().is_some_and(|(t, _)| *t < horizon) {
                q.pop_front();
            }
        }
    }

    /// Bytes currently retained.
    fn bytes(&self) -> u64 {
        self.per_edge
            .values()
            .flat_map(|q| q.iter())
            .map(|(_, t)| t.bytes)
            .sum()
    }

    /// Retained tuples on one edge (oldest first).
    fn tuples_on(&self, edge: EdgeId) -> Vec<Tuple> {
        self.per_edge
            .get(&edge)
            .map(|q| q.iter().map(|(_, t)| t.clone()).collect())
            .unwrap_or_default()
    }

    /// Clear everything.
    fn clear(&mut self) {
        self.per_edge.clear();
    }
}

/// Internal: clear the CPU hold placed while serializing a snapshot.
#[derive(Debug)]
struct CpuHoldDone;

/// The `local` / dist-n / upstream-backup node scheme.
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
            from_slot: node.cfg.slot,
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
            slot_actors: Arc::clone(&node.slot_actors),
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
            for mut t in self.retention.tuples_on(edge) {
                t.replay = true;
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
        let _ = node;
        if tuple.replay {
            return true;
        }
        let now = ctx.now();
        self.retention.retain(edge, now, tuple.clone());
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
                } else if let Some(t) = payload_as::<CkptTick>(p) {
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
        let ack = BaselineAck {
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
        r.retain(EdgeId(0), SimTime::from_secs(1), tup(1, 100));
        r.retain(EdgeId(0), SimTime::from_secs(2), tup(2, 100));
        r.retain(EdgeId(1), SimTime::from_secs(3), tup(3, 50));
        assert_eq!(r.bytes(), 250);
        r.trim_before(SimTime::from_secs(2));
        assert_eq!(r.bytes(), 150);
        assert_eq!(r.tuples_on(EdgeId(0)).len(), 1);
        r.clear();
        assert_eq!(r.bytes(), 0);
    }

    #[test]
    fn retention_accumulates_and_trims() {
        let mut r = RetentionBuffer::default();
        r.retain(EdgeId(0), SimTime::from_secs(1), tup(1, 100));
        r.retain(EdgeId(0), SimTime::from_secs(20), tup(2, 50));
        assert_eq!(r.bytes(), 150);
        r.trim_before(SimTime::from_secs(15));
        assert_eq!(r.bytes(), 50);
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
}
