//! Sink-side probes: the paper's two headline metrics.
//!
//! * **Latency**: "we record in each tuple the times when it enters and
//!   leaves the system, and average the duration across all the tuples
//!   in a time window."
//! * **Throughput**: "we count the number of output tuples per second
//!   when the system is steady."
//!
//! A node only records; the window statistics over these samples are
//! computed once, by `experiments::run::harvest`.

use simkernel::{SimDuration, SimTime};

/// One sink output observation.
#[derive(Debug, Clone, Copy)]
pub struct SinkSample {
    /// When the tuple left the system.
    pub at: SimTime,
    /// Enter-to-leave duration.
    pub latency: SimDuration,
}

/// Metrics collected by one node.
#[derive(Debug, Default, Clone)]
pub struct NodeMetrics {
    /// Sink outputs (time, latency).
    pub sink_samples: Vec<SinkSample>,
    /// Tuples processed by this node's operators.
    pub processed: u64,
    /// Source inputs dropped because the source queue was full.
    pub source_drops: u64,
    /// Source inputs accepted.
    pub source_inputs: u64,
    /// Sink outputs discarded during catch-up.
    pub catchup_discards: u64,
    /// Items dropped because routing state was stale or malformed
    /// (unassigned destination op, out-of-range slot, missing port).
    pub routing_drops: u64,
    /// Tuple sends shed by a congested (full) transport queue — the
    /// peer was alive, the pipe was saturated (cellular collapse).
    pub tx_queue_drops: u64,
    /// Tuple sends aged out behind a network-weather partition — the
    /// peer may be alive on the far side, so like `tx_queue_drops`
    /// these never feed failure detection.
    pub tx_severed: u64,
    /// Accumulated CPU busy time.
    pub cpu_busy: SimDuration,
}

impl NodeMetrics {
    /// Record a sink output.
    pub fn record_sink(&mut self, at: SimTime, latency: SimDuration) {
        self.sink_samples.push(SinkSample { at, latency });
    }
}
