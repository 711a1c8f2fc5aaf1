//! Local checkpointing — the paper's upper-bound benchmark.
//!
//! Each node periodically snapshots its operators into its *own*
//! storage (no network traffic) and practices input preservation:
//! every emitted tuple is retained until it is covered by a downstream
//! checkpoint (approximated by a retention window of one checkpoint
//! period). "It is not a realistic fault model in the context of
//! smartphones, but represents an upper bound in performance" (§IV-B),
//! so no recovery path exists — `local` only appears in the fault-free
//! experiments (Fig 8 and Fig 10).

use std::collections::{BTreeMap, VecDeque};

use dsps::ft::FtScheme;
use dsps::graph::EdgeId;
use dsps::node::NodeInner;
use dsps::tuple::Tuple;
use simkernel::{Ctx, EventBox, SimDuration, SimTime};
use simnet::{payload_as, NetRx};

use crate::msgs::CkptTick;

/// Internal: clear the CPU hold placed while serializing a snapshot.
#[derive(Debug)]
struct CpuHoldDone;

/// Output-retention buffer shared by `local` and `dist-n` (input
/// preservation, §IV-B: "every operator retains its output tuples
/// until these tuples have been checkpointed by the downstream
/// operators").
#[derive(Default)]
pub struct RetentionBuffer {
    per_edge: BTreeMap<EdgeId, VecDeque<(SimTime, Tuple)>>,
}

impl RetentionBuffer {
    /// Retain a copy of an emitted tuple.
    pub fn retain(&mut self, edge: EdgeId, at: SimTime, tuple: Tuple) {
        self.per_edge
            .entry(edge)
            .or_default()
            .push_back((at, tuple));
    }

    /// Drop tuples older than `horizon`.
    pub fn trim_before(&mut self, horizon: SimTime) {
        for q in self.per_edge.values_mut() {
            while q.front().is_some_and(|(t, _)| *t < horizon) {
                q.pop_front();
            }
        }
    }

    /// Bytes currently retained.
    pub fn bytes(&self) -> u64 {
        self.per_edge
            .values()
            .flat_map(|q| q.iter())
            .map(|(_, t)| t.bytes)
            .sum()
    }

    /// Retained tuples on one edge (oldest first).
    pub fn tuples_on(&self, edge: EdgeId) -> Vec<Tuple> {
        self.per_edge
            .get(&edge)
            .map(|q| q.iter().map(|(_, t)| t.clone()).collect())
            .unwrap_or_default()
    }

    /// Clear everything.
    pub fn clear(&mut self) {
        self.per_edge.clear();
    }
}

/// Serialize-cost model: how long the phone core is busy writing a
/// snapshot of `bytes` (flash write + serialization, ~30 MB/s).
pub fn serialize_hold(bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / 30.0e6)
}

/// The `local` scheme.
pub struct LocalScheme {
    /// Retention window ≈ checkpoint period.
    pub retention_window: SimDuration,
    /// Retained output tuples.
    pub retention: RetentionBuffer,
    /// Last version taken.
    pub version: u64,
    cpu_held: bool,
}

impl LocalScheme {
    /// New scheme with the given retention window (set = checkpoint
    /// period).
    pub fn new(retention_window: SimDuration) -> Self {
        LocalScheme {
            retention_window,
            retention: RetentionBuffer::default(),
            version: 0,
            cpu_held: false,
        }
    }

    fn take_checkpoint(&mut self, version: u64, node: &mut NodeInner, ctx: &mut Ctx) {
        self.version = version;
        let snap = node.snapshot();
        let total = node.store.put_snapshot(version, &snap);
        node.store.mark_complete(version);
        node.store.gc_before(version);
        self.retention
            .trim_before(ctx.now() - self.retention_window);
        // Serialization briefly occupies the core (the paper's local
        // overhead); skipped if a tuple is in service (async thread).
        if total > 0 && !node.busy {
            node.busy = true;
            self.cpu_held = true;
            let me = ctx.self_id();
            ctx.send_in(serialize_hold(total), me, CpuHoldDone);
        }
    }
}

impl FtScheme for LocalScheme {
    fn name(&self) -> &'static str {
        "local"
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
        if !tuple.replay {
            self.retention.retain(edge, ctx.now(), tuple.clone());
        }
        true
    }

    fn on_custom(&mut self, ev: EventBox, node: &mut NodeInner, ctx: &mut Ctx) {
        simkernel::match_event!(ev,
            _h: CpuHoldDone => {
                if self.cpu_held {
                    self.cpu_held = false;
                    node.busy = false;
                }
            },
            rx: NetRx => {
                if let Some(t) = payload_as::<CkptTick>(&rx.payload) {
                    self.take_checkpoint(t.version, node, ctx);
                }
            },
            @else _other => {}
        );
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
    fn serialize_hold_scales() {
        let small = serialize_hold(1024);
        let big = serialize_hold(8 * 1024 * 1024);
        assert!(big > small);
        // 8 MB at 30 MB/s ≈ 0.28 s.
        assert!((big.as_secs_f64() - 0.2796).abs() < 0.01, "{big}");
    }
}
