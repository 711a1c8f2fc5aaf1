//! The sharded MobiStreams control plane (§III-A, III-D, III-E).
//!
//! The paper describes one lightweight, reliable server reachable from
//! every phone over the cellular network ("used only for control
//! purposes and is not involved in any data transmission between
//! phones"). We reproduce it as a control *plane* split in two layers
//! so control traffic scales past ~10k phones and intra-region
//! supervision no longer serializes on the kernel's global shard:
//!
//! * [`RegionController`] — one actor per region, placed on its
//!   region's shard. It owns every piece of the region's mutable
//!   state: membership, checkpoint rounds, failure detection and
//!   recovery, departures, degraded proxies, partition probing. It
//!   converges phones onto the desired membership through an
//!   epoch-numbered event log of [`crate::msgs::SlotChange`] records,
//!   reconciled with batched per-phone deltas (see [`reconcile`]) —
//!   never a full-snapshot fan-out.
//! * [`Coordinator`] — a thin global actor on shard 0. It owns nothing
//!   but the cross-region concerns: inter-region wiring (re-resolved
//!   whenever a region reports a placement or stop/restart change), and
//!   brokering of bulk operator-code installs over its fat cellular
//!   endpoint. It also relays the few zero-cost side effects (WiFi
//!   link flips, sensor re-pairing), stamping the cellular downlink
//!   delay on them.
//!
//! The split preserves the paper's protocol: checkpoint triggering and
//! commit, ping-based failure detection with burst gathering, recovery
//! with idle-preferred replacements, mobility hand-offs with urgent
//! (cellular) routing, stop/bypass/restart of underpopulated regions.

pub mod coordinator;
pub(crate) mod msgs;
pub mod reconcile;
pub mod region;

use std::sync::Arc;

use dsps::graph::{OpId, QueryGraph};
use dsps::placement::Placement;
use simkernel::ActorId;

pub use coordinator::{Coordinator, RegionWiring};
pub use dsps::placement::RecoveryRecord;
pub use region::RegionController;

/// Static description of one region handed to its region controller.
pub struct RegionSpec {
    /// The region's query network.
    pub graph: Arc<QueryGraph>,
    /// The region's slot table: initial operator placement, bound to
    /// the phone actors.
    pub placement: Placement,
    /// The region's WiFi medium actor.
    pub wifi: ActorId,
    /// Downstream regions: (region index, source op fed there).
    pub downstream: Vec<(usize, OpId)>,
    /// Sensor (workload driver) actors to re-pair when a source op
    /// moves to another phone.
    pub sensors: Vec<ActorId>,
}

/// Control-plane startup trigger (scheduled by the deployment builder
/// to the coordinator and to every region controller).
#[derive(Debug, Clone, Copy)]
pub struct Start;
