//! Protocol records shared by the baseline schemes. The checkpoint
//! tick, the recovery ack and the wire sizes are the node runtime's
//! ([`dsps::node::CheckpointTick`], [`dsps::node::Recovered`],
//! [`dsps::node::wire`]), shared with MobiStreams: a baseline tick is an
//! uncoordinated per-node snapshot, made consistent at recovery time by
//! replaying retained outputs.

use dsps::store::Snapshot;

/// dist-n: a node's checkpoint states shipped to a peer.
#[derive(Debug, Clone)]
pub struct StateCopy {
    /// Version.
    pub version: u64,
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
