//! The sharded MobiStreams control plane (§III-A, III-D, III-E).
//!
//! The paper describes one lightweight, reliable server reachable from
//! every phone over the cellular network ("used only for control
//! purposes and is not involved in any data transmission between
//! phones"). We reproduce it as a control *plane* split in two layers
//! so control traffic scales past ~10k phones and intra-region
//! supervision no longer serializes on the kernel's global shard:
//!
//! * [`RegionController`] — one actor per region *group*, placed on its
//!   first region's shard. It owns every piece of the group's mutable
//!   state: membership, checkpoint rounds, failure detection and
//!   recovery, departures, degraded proxies, partition probing. It
//!   converges phones onto the desired membership through an
//!   epoch-numbered event log of [`crate::msgs::SlotChange`] records,
//!   reconciled with batched per-phone deltas (see [`reconcile`]) —
//!   never a full-snapshot fan-out.
//! * [`Coordinator`] — a thin global actor on shard 0. It owns nothing
//!   but the cross-region concerns: placement epochs, inter-region
//!   wiring (re-resolved whenever a region reports a placement or
//!   stop/restart change), and brokering of bulk operator-code installs
//!   over its fat cellular endpoint. It also relays the few zero-cost
//!   side effects (WiFi link flips, sensor re-pairing) that would
//!   otherwise be illegal cross-shard sends.
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
use simkernel::{ActorId, SimDuration};

pub use coordinator::{Coordinator, RegionWiring};
pub use dsps::placement::RecoveryRecord;
pub use region::RegionController;

/// Controller parameters (paper values as defaults).
#[derive(Debug, Clone)]
pub struct MsControllerConfig {
    /// Checkpoint period ("the checkpoint period in MobiStreams is 5
    /// minutes").
    pub ckpt_period: SimDuration,
    /// First checkpoint offset from start.
    pub ckpt_offset: SimDuration,
    /// Source-node ping period ("every 30 seconds").
    pub ping_period: SimDuration,
    /// Ping timeout ("the timeout period is 10 seconds").
    pub ping_timeout: SimDuration,
    /// Window for gathering a burst of failures into one recovery.
    pub gather_window: SimDuration,
    /// Operator code size shipped to replacements over cellular.
    pub code_bytes_per_op: u64,
    /// Fixed install overhead (WiFi rebuild, process start).
    pub ready_overhead: SimDuration,
    /// Extra install time per restored operator (flash read etc.).
    pub ready_per_op: SimDuration,
    /// Give up waiting for recovery acks after this long.
    pub ack_deadline: SimDuration,
    /// Declare a departure state transfer stalled (replacement dead)
    /// if its ack hasn't arrived after this long. Generous: a real
    /// transfer can legitimately take minutes over the slow cellular
    /// uplink, and a false stall re-introduces the rollback recovery
    /// departures are meant to avoid.
    pub transfer_stall_deadline: SimDuration,
    /// Periodic checkpointing on/off (off = Table I "fault tolerance
    /// function turned off").
    pub checkpoints_enabled: bool,
    /// First probe interval after a region is marked severed by a
    /// network partition.
    pub severed_probe_base: SimDuration,
    /// Cap on the severed-probe backoff.
    pub severed_probe_cap: SimDuration,
    /// Period of the membership reconciliation sweep: every tick each
    /// region controller pushes one catch-up delta to every active
    /// phone still behind the membership log head (usually none — the
    /// event-driven flush keeps stakeholders current).
    pub reconcile_period: SimDuration,
}

impl Default for MsControllerConfig {
    fn default() -> Self {
        MsControllerConfig {
            ckpt_period: SimDuration::from_secs(300),
            ckpt_offset: SimDuration::from_secs(60),
            ping_period: SimDuration::from_secs(30),
            ping_timeout: SimDuration::from_secs(10),
            gather_window: SimDuration::from_secs(2),
            code_bytes_per_op: 50_000,
            ready_overhead: SimDuration::from_secs(1),
            ready_per_op: SimDuration::from_millis(200),
            ack_deadline: SimDuration::from_secs(60),
            transfer_stall_deadline: SimDuration::from_secs(300),
            checkpoints_enabled: true,
            severed_probe_base: SimDuration::from_secs(2),
            severed_probe_cap: SimDuration::from_secs(32),
            reconcile_period: SimDuration::from_secs(30),
        }
    }
}

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
    /// Minimum active phones to keep the region running.
    pub min_active: u32,
    /// Sensor (workload driver) actors to re-pair when a source op
    /// moves to another phone.
    pub sensors: Vec<ActorId>,
}

/// How long after a reconfiguration (recovery end, install ack) nodes
/// may stay quiet before their silence counts as a failure again.
pub(crate) const QUIET_GRACE: SimDuration = SimDuration::from_secs(20);

/// Control-plane startup trigger (scheduled by the deployment builder
/// to the coordinator and to every region controller).
#[derive(Debug, Clone, Copy)]
pub struct Start;

/// Convenience re-export for deployment code.
pub use dsps::node::Ping as NodePing;
