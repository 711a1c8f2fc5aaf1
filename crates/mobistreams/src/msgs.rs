//! Control-plane protocol records exchanged between the controller and
//! the per-node [`crate::scheme::MsScheme`].
//!
//! Wire sizes are small constants; every message crosses the cellular
//! network (controller ↔ phones) or rides the region WiFi (bitmap
//! replies), and is charged to `TrafficClass::Control`.

use std::sync::Arc;

use dsps::graph::OpId;
use dsps::store::Snapshot;
use dsps::tuple::Tuple;
use simkernel::ActorId;

/// Node → controller: this node finished checkpoint `version` (state
/// snapshotted *and* replicated to the region).
#[derive(Debug, Clone, Copy)]
pub struct NodeCheckpointed {
    /// Completed version.
    pub version: u64,
    /// Reporting region/slot.
    pub region: usize,
    /// Reporting slot.
    pub slot: u32,
}

/// Controller → all region nodes: checkpoint `version` committed; GC
/// everything older ("the input data and the checkpoint data will be
/// kept until the next checkpoint of the region is completed").
#[derive(Debug, Clone, Copy)]
pub struct CheckpointComplete {
    /// Committed version.
    pub version: u64,
}

/// Controller → region node: full membership snapshot. Sent only when
/// the controller has no known epoch for the phone (startup, rejoin,
/// post-partition resync) — routine churn travels as
/// [`MembershipDelta`]s. Payloads are `Arc`-shared across the targets
/// of one flush, never cloned per phone.
#[derive(Debug, Clone)]
pub struct MembershipUpdate {
    /// Slots currently alive and in-region.
    pub active_slots: Arc<Vec<u32>>,
    /// Membership epoch this snapshot represents (the region's event
    /// log head at send time). Phones ignore snapshots older than what
    /// they already hold.
    pub epoch: u64,
}

/// One membership event: a slot entered or left the active set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotChange {
    /// Slot whose activity changed.
    pub slot: u32,
    /// New activity (absolute, so re-application is idempotent).
    pub active: bool,
}

/// Controller → region node: batched membership delta covering epochs
/// `base_epoch..epoch` of the region's event log. A phone applies it
/// only if it holds at least `base_epoch` and less than `epoch`;
/// overlap re-applies idempotently (changes are absolute). The change
/// vector is `Arc`-shared across every target of one flush.
#[derive(Debug, Clone)]
pub struct MembershipDelta {
    /// Epoch the change suffix starts from.
    pub base_epoch: u64,
    /// Epoch after applying the suffix (the log head at send time).
    pub epoch: u64,
    /// The membership events, oldest first.
    pub changes: Arc<Vec<SlotChange>>,
}

/// Internal (sender-side): give up waiting for stragglers' bitmaps.
#[derive(Debug, Clone, Copy)]
pub struct BitmapTimeout {
    /// Job id.
    pub stream: u64,
    /// Phase the timeout was armed for.
    pub phase: u32,
}

/// Broadcast completion: logical content of a finished job, delivered
/// to every receiver as a zero-cost event (all bytes were already
/// charged by the UDP/TCP phases).
#[derive(Debug, Clone)]
pub enum BlobContent {
    /// Checkpoint states of the sending node.
    Checkpoint {
        /// Version being replicated.
        version: u64,
        /// The node's snapshot.
        states: Snapshot,
    },
    /// Checkpoint states re-broadcast by a proxy on behalf of a
    /// *degraded* departed phone (out of WiFi range, snapshot arrived
    /// over cellular). When the job finishes, the proxy reports
    /// [`NodeCheckpointed`] for `origin_slot`, not itself.
    ProxyCheckpoint {
        /// The degraded slot whose states these are.
        origin_slot: u32,
        /// Version being replicated.
        version: u64,
        /// The degraded slot's snapshot.
        states: Snapshot,
    },
    /// One preserved source input. The broadcast doubles as the data
    /// delivery: the receiver hosting `deliver_edge`'s target enqueues
    /// the tuple as stream input, so the frame crosses the channel
    /// exactly once (preservation piggybacks on the data path).
    Preserve {
        /// Preservation epoch (= version the input follows).
        epoch: u64,
        /// Source operator the input belongs to.
        op: OpId,
        /// The tuple: one allocation that every receiver's
        /// preservation log points at, never a copy per phone.
        tuple: Arc<Tuple>,
        /// The out-edge this tuple travels on (None = pure log copy).
        deliver_edge: Option<dsps::graph::EdgeId>,
    },
}

/// Broadcast completion delivery (sender → each receiver, zero-cost).
#[derive(Debug, Clone)]
pub struct BlobDeliver {
    /// Originating actor (receiver-side job key).
    pub from_actor: ActorId,
    /// Job id (receiver-side job key).
    pub stream: u64,
    /// Content.
    pub content: BlobContent,
}

/// Controller → all hosting nodes: roll back to checkpoint `version`
/// (classic checkpoint restoration, §III-D).
#[derive(Debug, Clone, Copy)]
pub struct RollbackTo {
    /// Version to restore.
    pub version: u64,
}

/// Controller → source nodes: replay preserved inputs of `epoch`
/// (catch-up, §III-D).
#[derive(Debug, Clone, Copy)]
pub struct ReplayInputs {
    /// Epoch to replay.
    pub epoch: u64,
}

/// Fault injector → node: the phone's GPS says it is leaving the
/// region (§III-E). The node notifies the controller itself.
#[derive(Debug, Clone, Copy)]
pub struct Depart;

/// Node → controller: "I am leaving the region" (GPS-based notice,
/// triggers urgent mode and replacement).
#[derive(Debug, Clone, Copy)]
pub struct DepartureNotice {
    /// Region/slot departing.
    pub region: usize,
    /// Slot departing.
    pub slot: u32,
}

/// Controller → departing node: ship your operator states (and the
/// install package) to the replacement over cellular.
#[derive(Debug, Clone)]
pub struct TransferStateTo {
    /// Replacement phone.
    pub replacement: ActorId,
    /// Install package the replacement must apply (states filled in by
    /// the departing node).
    pub install: dsps::node::Install,
}

/// Controller → degraded departed node: you are out of WiFi range with
/// no replacement; ship each checkpoint snapshot over cellular to
/// `proxy` (an in-region phone), which re-broadcasts it on WiFi and
/// reports completion on your behalf. Re-sent every checkpoint round so
/// proxy churn self-heals.
#[derive(Debug, Clone, Copy)]
pub struct DegradedCheckpointVia {
    /// In-region phone acting as the snapshot relay.
    pub proxy: ActorId,
}

/// Degraded node → proxy (over cellular): one operator-state snapshot
/// for `version`. Charged at the states' full byte size on the slow
/// cellular path — this is the 32 KB-through-168 kbps funnel the
/// bounded link queues make honest.
#[derive(Debug, Clone)]
pub struct DegradedSnapshot {
    /// Region of the degraded slot.
    pub region: usize,
    /// The degraded slot the snapshot belongs to.
    pub origin_slot: u32,
    /// Checkpoint version snapshotted.
    pub version: u64,
    /// The degraded slot's snapshot.
    pub states: Snapshot,
}

pub use dsps::node::{CheckpointTick, Reboot, Recovered, RegisterNode};

/// Wire sizes for control messages (bytes): the shared ones, and the
/// membership messages only MobiStreams sends.
pub mod wire {
    pub use dsps::node::wire::*;
    /// Full membership snapshot (the active set, fixed-size framing).
    pub const MEMBERSHIP: u64 = 256;
    /// Membership delta header (epochs + framing).
    pub const DELTA_BASE: u64 = 32;
    /// Per-change cost of a membership delta.
    pub const DELTA_PER_CHANGE: u64 = 8;
}
