//! Protocol records shared by the baseline schemes.

use dsps::store::Snapshot;

/// Coordinator → all hosting nodes: take checkpoint `version` now
/// (uncoordinated per-node snapshot; consistency is restored at
/// recovery time via input preservation replay).
#[derive(Debug, Clone, Copy)]
pub struct CkptTick {
    /// Version to record.
    pub version: u64,
}

/// dist-n: a node's checkpoint states shipped to a peer.
#[derive(Debug, Clone)]
pub struct StateCopy {
    /// Version.
    pub version: u64,
    /// Originating slot.
    pub from_slot: u32,
    /// The node's snapshot.
    pub states: Snapshot,
}

/// rep-2: which flow's sinks publish.
#[derive(Debug, Clone, Copy)]
pub struct SetPrimary {
    /// The now-primary flow (0 or 1).
    pub flow: u8,
}

/// dist-n recovery: a peer holding `slot`'s state ships it to the
/// replacement (the coordinator orchestrates who sends what).
#[derive(Debug, Clone, Copy)]
pub struct ShipStateTo {
    /// Whose state to ship.
    pub failed_slot: u32,
    /// Version wanted.
    pub version: u64,
    /// Replacement actor.
    pub to: simkernel::ActorId,
    /// Replacement slot.
    pub to_slot: u32,
}

/// local / dist-n recovery: re-send retained output tuples on the given
/// edges (upstream replay after a downstream rollback).
#[derive(Debug, Clone)]
pub struct ResendRetained {
    /// Edges to replay (upstream side).
    pub edges: Vec<dsps::graph::EdgeId>,
}

/// Node → coordinator: recovery install finished.
#[derive(Debug, Clone, Copy)]
pub struct BaselineAck {
    /// Region/slot of the recovered node.
    pub region: usize,
    /// Slot.
    pub slot: u32,
}

/// Wire sizes.
pub mod wire {
    /// Small control RPC.
    pub const CONTROL: u64 = 64;
    /// Ping probe.
    pub const PING_BYTES: u64 = 32;
}
