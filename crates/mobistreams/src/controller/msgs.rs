//! Control-plane-internal events: region-controller timers and the
//! direct (zero-cost) messages exchanged between region controllers
//! and the global [`crate::controller::Coordinator`].
//!
//! These never touch the cellular network — region controller →
//! coordinator sends are legal zero-delay cross-shard events (any
//! shard may send into shard 0), while coordinator → region sends are
//! delayed by the cellular downlink latency before re-entering a
//! region shard (see `Coordinator::relay_delay`), which also keeps
//! them above the kernel's per-destination cross-shard bound.

use std::sync::Arc;

use simkernel::ActorId;
use simnet::LinkState;

/// Region-controller timer events.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CtlTimer {
    /// Periodic checkpoint trigger for a region.
    CheckpointTick { region: usize },
    /// Periodic source-node ping round (per region group).
    PingTick,
    /// Ping round deadline: unanswered nodes are dead.
    PingDeadline { round: u64 },
    /// Burst-gather window closed; run recovery for the region.
    RecoverNow { region: usize },
    /// Recovery-ack deadline passed; finish the region's recovery with
    /// whatever acks arrived.
    AckDeadline { region: usize },
    /// Capped-backoff probe of a region believed severed by a network
    /// partition. `epoch` guards against stale timers after a heal.
    ProbeSevered { region: usize, epoch: u64 },
    /// Same-tick coalescing point: membership changes recorded since
    /// the flush was scheduled go out as one batched delta per target.
    FlushDeltas { region: usize },
    /// Periodic reconciliation sweep over every region of the group.
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
/// coordinator owns the completion tag and reports back with
/// [`InstallOutcome`].
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

/// How a shipped install's cellular send completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallOutcomeKind {
    /// Delivered; nothing to do.
    Delivered,
    /// The target died before delivery.
    Failed,
    /// The send aged out behind a network partition.
    Severed,
}

/// Coordinator → region controller: completion of a [`ShipInstall`].
#[derive(Debug, Clone, Copy)]
pub struct InstallOutcome {
    /// Region the install belonged to.
    pub region: usize,
    /// Slot that was being installed.
    pub slot: u32,
    /// Completion kind.
    pub kind: InstallOutcomeKind,
}

/// Region controller → coordinator: flip a phone's WiFi link state.
/// Relayed because the WiFi medium lives on the phone's region shard,
/// which may differ from the region controller's shard within a group.
#[derive(Debug, Clone, Copy)]
pub struct RelayWifiLink {
    /// The region's WiFi medium.
    pub wifi: ActorId,
    /// The phone whose link changes.
    pub node: ActorId,
    /// New link state.
    pub state: LinkState,
}

/// Region controller → coordinator: re-pair a sensor with the phone
/// now hosting its source op (zero-cost direct event, relayed for the
/// same cross-shard reason as [`RelayWifiLink`]).
#[derive(Debug, Clone, Copy)]
pub struct RelaySensorRedirect {
    /// The sensor (workload driver) actor.
    pub sensor: ActorId,
    /// The redirect to deliver.
    pub redirect: dsps::workload::SensorRedirect,
}
