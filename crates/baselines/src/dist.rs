//! dist-n — distributed checkpointing, "modeled after Cooperative HA
//! Solution and SGuard" (§IV-B).
//!
//! On every checkpoint tick each node snapshots its operators and
//! unicasts the state to its `n` checkpoint peers (the next `n` slots,
//! cyclically) over reliable WiFi — that unicast traffic is exactly
//! the `0.76×/1.52×/2.28×` Fig 10b series. Input preservation retains
//! emitted tuples for replay. Recovery restores a failed node's
//! operators on a replacement from a surviving peer copy and replays
//! retained upstream tuples; more simultaneous failures mean more
//! serialized state fetches over the shared WiFi channel, which is why
//! dist-n recovery degrades with n (Fig 9). More than `n` simultaneous
//! failures are unrecoverable.

use dsps::ft::FtScheme;
use dsps::graph::EdgeId;
use dsps::node::{Install, InstallStates, NodeInner};
use dsps::tuple::{StreamItem, Tuple};
use simkernel::{Ctx, EventBox, SimDuration};
use simnet::stats::TrafficClass;
use simnet::{net_send, payload, payload_as, NetRx};

use crate::local::{serialize_hold, RetentionBuffer};
use crate::msgs::{BaselineAck, CkptTick, ResendRetained, ShipStateTo, StateCopy};

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

/// Internal: clear the snapshot-serialization CPU hold.
#[derive(Debug)]
struct CpuHoldDone;

/// The dist-n scheme.
pub struct DistScheme {
    /// Number of peer copies.
    pub n: u32,
    /// Retention window (= checkpoint period).
    pub retention_window: SimDuration,
    /// Retained output tuples (input preservation).
    pub retention: RetentionBuffer,
    /// Last version taken.
    pub version: u64,
    cpu_held: bool,
}

impl DistScheme {
    /// New dist-n scheme.
    pub fn new(n: u32, retention_window: SimDuration) -> Self {
        assert!(n >= 1);
        DistScheme {
            n,
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
        node.store.gc_before(version.saturating_sub(1)); // keep v-1 and v
        self.retention
            .trim_before(ctx.now() - self.retention_window);
        if total > 0 {
            // Ship the state to each peer as reliable unicast — n copies
            // on the wire (vs MobiStreams' single broadcast).
            let total_slots = node.slot_actors.len() as u32;
            let copy = payload(StateCopy {
                version,
                from_slot: node.cfg.slot,
                states: snap,
            });
            let class = TrafficClass::Checkpoint;
            for peer in peers_of(node.cfg.slot, self.n, total_slots) {
                let dst = node.slot_actors[peer as usize];
                net_send(ctx, node.primary, dst, class, total, 0, copy.clone());
            }
            if !node.busy {
                node.busy = true;
                self.cpu_held = true;
                let me = ctx.self_id();
                ctx.send_in(serialize_hold(total), me, CpuHoldDone);
            }
        }
    }

    fn ship_state(&mut self, req: &ShipStateTo, node: &mut NodeInner, ctx: &mut Ctx) {
        // Build the install: the coordinator already updated op_slot, so
        // the replacement's op set is whatever maps to its slot, and it
        // gets those of the failed node's states we hold.
        let their_ops = dsps::placement::ops_on(&node.op_slot, req.to_slot);
        let mut snap = node.store.snapshot(req.version);
        snap.retain(|(op, ..)| their_ops.contains(op));
        let bytes: u64 = snap.iter().map(|&(_, _, b)| b).sum();
        let install = Install {
            ops: their_ops,
            states: InstallStates::Explicit(snap),
            op_slot: node.op_slot.clone(),
            slot_actors: node.slot_actors.clone(),
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

impl FtScheme for DistScheme {
    fn name(&self) -> &'static str {
        "dist-n"
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
                if let Some(copy) = payload_as::<StateCopy>(&rx.payload) {
                    node.store.put_snapshot(copy.version, &copy.states);
                    node.store.mark_complete(copy.version);
                } else if let Some(t) = payload_as::<CkptTick>(&rx.payload) {
                    self.take_checkpoint(t.version, node, ctx);
                } else if let Some(req) = payload_as::<ShipStateTo>(&rx.payload) {
                    let req = *req;
                    self.ship_state(&req, node, ctx);
                } else if let Some(r) = payload_as::<ResendRetained>(&rx.payload) {
                    let edges = r.edges.clone();
                    self.resend_retained(&edges, node, ctx);
                }
            },
            @else _other => {}
        );
    }

    fn on_install(&mut self, node: &mut NodeInner, ctx: &mut Ctx) {
        self.retention.clear();
        let ack = BaselineAck {
            region: node.cfg.region,
            slot: node.cfg.slot,
        };
        node.send_controller(ctx, crate::msgs::wire::CONTROL, ack);
    }

    fn preserved_bytes(&self, node: &NodeInner) -> u64 {
        let _ = node;
        self.retention.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peers_are_cyclic_and_skip_self() {
        assert_eq!(peers_of(0, 3, 8), vec![1, 2, 3]);
        assert_eq!(peers_of(6, 3, 8), vec![7, 0, 1]);
        assert_eq!(peers_of(7, 1, 8), vec![0]);
        // Region smaller than n: everyone else.
        assert_eq!(peers_of(0, 5, 3), vec![1, 2]);
        // A one-phone region has nobody to hold a copy.
        assert_eq!(peers_of(0, 1, 1), Vec::<u32>::new());
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
