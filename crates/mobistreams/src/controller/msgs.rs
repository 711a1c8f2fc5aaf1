//! Control-plane-internal events: region-controller timers and the
//! direct (zero-cost) messages exchanged between region controllers
//! and the global [`crate::controller::Coordinator`]: a region's status
//! report, an install to ship and an install that did not arrive.
//!
//! These never touch the cellular network. Region controller →
//! coordinator sends are legal zero-delay cross-shard events (any
//! shard may send into shard 0); the one coordinator → region send, an
//! [`InstallOutcome`], is delayed by the cellular downlink latency
//! before re-entering a region shard (see `Coordinator::relay_delay`),
//! which also keeps it above the kernel's per-destination cross-shard
//! bound. A region controller's own side effects (WiFi link flips,
//! sensor re-pairing) stay on its shard and need no message here.

use std::sync::Arc;

use simkernel::ActorId;

/// Region-controller timer events.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CtlTimer {
    /// Periodic checkpoint trigger.
    CheckpointTick,
    /// Periodic source-node ping round.
    PingTick,
    /// Ping round deadline: unanswered nodes are dead.
    PingDeadline { round: u64 },
    /// Burst-gather window closed; run recovery.
    RecoverNow,
    /// Recovery-ack deadline passed; finish the recovery with whatever
    /// acks arrived.
    AckDeadline,
    /// Capped-backoff probe of a region believed severed by a network
    /// partition. `epoch` guards against stale timers after a heal.
    ProbeSevered { epoch: u64 },
    /// Same-tick coalescing point: membership changes recorded since
    /// the flush was scheduled go out as one batched delta per target.
    FlushDeltas,
    /// Periodic membership reconciliation sweep.
    ReconcileTick,
}

/// Region controller → coordinator: authoritative placement / stop
/// state of one region. Each accepted report re-resolves the
/// inter-region wiring of the region and its upstreams.
#[derive(Debug, Clone)]
pub struct RegionStatus {
    /// Region reported.
    pub region: usize,
    /// Current operator → slot assignment.
    pub op_slot: Arc<Vec<u32>>,
    /// Whether the region is stopped (bypass active).
    pub stopped: bool,
}

/// Region controller → coordinator: ship a bulk operator-code install
/// to `dst` over the coordinator's fat cellular endpoint. The
/// coordinator owns the completion tag and reports a send that did
/// not arrive with [`InstallOutcome`].
#[derive(Debug, Clone)]
pub struct ShipInstall {
    /// Region the install belongs to.
    pub region: usize,
    /// Slot being (re)installed.
    pub slot: u32,
    /// Target phone.
    pub dst: ActorId,
    /// Cellular bytes charged (operator code).
    pub bytes: u64,
    /// The install package.
    pub install: dsps::node::Install,
}

/// Why a shipped install's cellular send did not arrive (a delivered
/// one needs no report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallOutcomeKind {
    /// The target died before delivery.
    Failed,
    /// The send aged out behind a network partition.
    Severed,
}

/// Coordinator → region controller: a [`ShipInstall`] that did not
/// arrive.
#[derive(Debug, Clone, Copy)]
pub struct InstallOutcome {
    /// Region the install belonged to.
    pub region: usize,
    /// Slot that was being installed.
    pub slot: u32,
    /// Completion kind.
    pub kind: InstallOutcomeKind,
}
