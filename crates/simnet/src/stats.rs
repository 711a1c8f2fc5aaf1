//! Byte/airtime accounting kept by every transport.
//!
//! Experiments harvest these post-run: Fig 10(b) is literally
//! "bytes sent over the network due to checkpointing/replication", which
//! upper layers attribute via [`TrafficClass`] tags on each send.

use simkernel::SimDuration;

/// What a message is *for* — used to attribute bytes to the paper's
/// metrics. The transport treats all classes identically; this is pure
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Normal stream tuples between operators.
    Data,
    /// Replica input duplication (rep-2).
    Replication,
    /// Checkpoint state shipping (ms broadcast, dist-n unicast).
    Checkpoint,
    /// Source-preservation shipping (ms input replication to the region).
    Preservation,
    /// Bitmap queries/replies, tokens, controller RPC, pings.
    Control,
    /// Recovery traffic: state fetch, replay, state transfer on departure.
    Recovery,
}

impl TrafficClass {
    /// All classes, for iteration in reports.
    pub const ALL: [TrafficClass; 6] = [
        TrafficClass::Data,
        TrafficClass::Replication,
        TrafficClass::Checkpoint,
        TrafficClass::Preservation,
        TrafficClass::Control,
        TrafficClass::Recovery,
    ];

    fn index(self) -> usize {
        match self {
            TrafficClass::Data => 0,
            TrafficClass::Replication => 1,
            TrafficClass::Checkpoint => 2,
            TrafficClass::Preservation => 3,
            TrafficClass::Control => 4,
            TrafficClass::Recovery => 5,
        }
    }

    /// May a bounded transport shed this class under congestion? Bulk
    /// stream data yields; protocol state machines (control RPCs,
    /// checkpoint shipping, recovery transfers) are carried at priority
    /// so a saturated link degrades the *data plane*, not liveness.
    pub fn droppable(self) -> bool {
        matches!(
            self,
            TrafficClass::Data | TrafficClass::Replication | TrafficClass::Preservation
        )
    }
}

/// Per-transport accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Payload bytes offered, per traffic class.
    payload_bytes: [u64; 6],
    /// Bytes actually put on the medium (incl. framing overhead and
    /// retransmission expansion), per class.
    wire_bytes: [u64; 6],
    /// Logical messages sent, per class.
    messages: [u64; 6],
    /// Airtime (or link time) consumed.
    pub busy_time: SimDuration,
    /// Datagram (sub-)messages dropped by loss.
    pub drops: u64,
    /// Reliable sends that failed (dead destination).
    pub failed_sends: u64,
    /// Messages tail-dropped because a bounded link queue was full.
    pub queue_drops: u64,
    /// Payload bytes lost at bounded link queues: tail-dropped arrivals
    /// plus backlog drained when an endpoint died with bytes still
    /// queued (the byte-accurate companion to `queue_drops`, whose
    /// message granularity is unknowable for a drained backlog).
    pub queue_drop_bytes: u64,
    /// Sends refused because an endpoint was behind an administrative
    /// partition (network weather); the senders got [`crate::TxSevered`]
    /// after the timeout instead of a failure.
    pub severed_sends: u64,
    /// Malformed or impossible sends the transport refused outright:
    /// dead/unknown source radio, empty batch, unrecognized event type.
    /// These consume no airtime and charge no bytes.
    pub rejects: u64,
    /// Deepest per-link queue backlog observed anywhere (bytes).
    pub max_queue_depth: u64,
}

impl NetStats {
    /// Record one logical send.
    pub fn record_send(&mut self, class: TrafficClass, payload: u64, wire: u64, air: SimDuration) {
        let i = class.index();
        self.payload_bytes[i] += payload;
        self.wire_bytes[i] += wire;
        self.messages[i] += 1;
        self.busy_time += air;
    }

    /// Record a queue-depth observation (keeps the running maximum).
    pub fn note_queue_depth(&mut self, depth_bytes: u64) {
        self.max_queue_depth = self.max_queue_depth.max(depth_bytes);
    }

    /// Payload bytes offered for a class.
    pub fn payload_bytes(&self, class: TrafficClass) -> u64 {
        self.payload_bytes[class.index()]
    }

    /// Wire bytes (with overhead/expansion) for a class.
    pub fn wire_bytes(&self, class: TrafficClass) -> u64 {
        self.wire_bytes[class.index()]
    }

    /// Message count for a class.
    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.messages[class.index()]
    }

    /// Total wire bytes across all classes.
    pub fn total_wire_bytes(&self) -> u64 {
        self.wire_bytes.iter().sum()
    }

    /// Total payload bytes across all classes.
    pub fn total_payload_bytes(&self) -> u64 {
        self.payload_bytes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_per_class() {
        let mut s = NetStats::default();
        s.record_send(TrafficClass::Data, 100, 120, SimDuration::from_millis(1));
        s.record_send(TrafficClass::Data, 50, 60, SimDuration::from_millis(1));
        s.record_send(
            TrafficClass::Checkpoint,
            1000,
            1100,
            SimDuration::from_millis(5),
        );
        assert_eq!(s.payload_bytes(TrafficClass::Data), 150);
        assert_eq!(s.wire_bytes(TrafficClass::Data), 180);
        assert_eq!(s.messages(TrafficClass::Data), 2);
        assert_eq!(s.payload_bytes(TrafficClass::Checkpoint), 1000);
        assert_eq!(s.total_wire_bytes(), 1280);
        assert_eq!(s.total_payload_bytes(), 1150);
        assert_eq!(s.busy_time, SimDuration::from_millis(7));
    }

    #[test]
    fn untouched_classes_are_zero() {
        let s = NetStats::default();
        for c in TrafficClass::ALL {
            assert_eq!(s.payload_bytes(c), 0);
            assert_eq!(s.messages(c), 0);
        }
    }
}
