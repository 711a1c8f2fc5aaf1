//! Rate queues: the arithmetic core shared by every transport.
//!
//! A [`RateQueue`] is a serialized resource with a fixed bit rate: a
//! WiFi channel's airtime, a phone's 3G uplink, a server NIC. Callers
//! reserve a byte count and get back the (start, end) window; the queue
//! remembers `busy_until` so back-to-back reservations serialize.

use simkernel::{SimDuration, SimTime};

/// Transmission time for `bytes` at `rate_bps` (bits per second).
pub fn tx_time(bytes: u64, rate_bps: f64) -> SimDuration {
    assert!(rate_bps > 0.0, "rate must be positive");
    SimDuration::from_secs_f64(bytes as f64 * 8.0 / rate_bps)
}

/// A serialized fixed-rate resource.
#[derive(Debug, Clone)]
pub struct RateQueue {
    rate_bps: f64,
    busy_until: SimTime,
    /// Total bytes ever reserved (for utilization accounting).
    bytes_reserved: u64,
    /// Deepest backlog (in bytes, including the reservation that
    /// created it) ever observed at reservation time.
    max_depth_bytes: u64,
    /// Accounting view of waiting bytes, decayed at the drain rate.
    /// Kept separately from `busy_until` because reservations may start
    /// in the future (e.g. a downlink window floored at core arrival):
    /// the idle gap before such a window is not queued data.
    queued_bytes: f64,
    /// When `queued_bytes` was last brought current.
    last_obs: SimTime,
}

impl RateQueue {
    /// New queue at the given bit rate.
    pub fn new(rate_bps: f64) -> Self {
        assert!(rate_bps > 0.0, "rate must be positive, got {rate_bps}");
        RateQueue {
            rate_bps,
            busy_until: SimTime::ZERO,
            bytes_reserved: 0,
            max_depth_bytes: 0,
            queued_bytes: 0.0,
            last_obs: SimTime::ZERO,
        }
    }

    /// The configured bit rate.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Reserve the queue for `bytes` starting no earlier than `now`.
    /// Returns the `(start, end)` of the transmission window.
    pub fn reserve(&mut self, now: SimTime, bytes: u64) -> (SimTime, SimTime) {
        self.note_depth(now, bytes);
        let start = now.max(self.busy_until);
        let end = start + tx_time(bytes, self.rate_bps);
        self.busy_until = end;
        self.bytes_reserved += bytes;
        (start, end)
    }

    /// Reserve a pre-computed duration (for callers that apply their own
    /// expansion factors, e.g. the reliable-service retransmission
    /// model). `bytes` is recorded for accounting only.
    pub fn reserve_span(
        &mut self,
        now: SimTime,
        span: SimDuration,
        bytes: u64,
    ) -> (SimTime, SimTime) {
        self.reserve_span_at(now, now, span, bytes)
    }

    /// As [`Self::reserve_span`], but with the depth bookkeeping
    /// decoupled from the window floor: `obs` is the observation time
    /// (must be monotone across calls for the decay to be meaningful),
    /// `start_floor` the earliest the window may start. Needed when a
    /// reservation is made ahead of time for a window in the future —
    /// the cellular downlink reserves at send time for a post-uplink
    /// arrival whose timestamp depends on the *sender's* backlog, so
    /// successive arrival times are not ordered and must not drive the
    /// decay clock.
    pub fn reserve_span_at(
        &mut self,
        obs: SimTime,
        start_floor: SimTime,
        span: SimDuration,
        bytes: u64,
    ) -> (SimTime, SimTime) {
        self.note_depth(obs, bytes);
        let start = start_floor.max(self.busy_until);
        let end = start + span;
        self.busy_until = end;
        self.bytes_reserved += bytes;
        (start, end)
    }

    /// Queueing delay a reservation made `now` would suffer.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.since(now)
    }

    /// Bytes still waiting (not yet serialized) at `now`: the enqueued
    /// total decayed at the drain rate since the last observation.
    pub fn depth_bytes(&self, now: SimTime) -> u64 {
        let drained = now.since(self.last_obs).as_secs_f64() * self.rate_bps / 8.0;
        (self.queued_bytes - drained).max(0.0) as u64
    }

    /// Deepest backlog observed at any reservation (bytes).
    pub fn max_depth_bytes(&self) -> u64 {
        self.max_depth_bytes
    }

    fn note_depth(&mut self, now: SimTime, incoming: u64) {
        self.queued_bytes = self.depth_bytes(now) as f64 + incoming as f64;
        self.last_obs = self.last_obs.max(now);
        self.max_depth_bytes = self.max_depth_bytes.max(self.queued_bytes as u64);
    }

    /// Total bytes reserved over the queue's lifetime.
    pub fn bytes_reserved(&self) -> u64 {
        self.bytes_reserved
    }

    /// Abandon all waiting bytes at `now` (the endpoint behind the
    /// queue died): returns the drained backlog so callers can account
    /// it as lost, frees the link for any future revival, and leaves
    /// `max_depth_bytes` untouched — the observed maximum must not
    /// decay retroactively just because the owner crashed.
    pub fn clear_backlog(&mut self, now: SimTime) -> u64 {
        let waiting = self.depth_bytes(now);
        self.queued_bytes = 0.0;
        self.last_obs = self.last_obs.max(now);
        if self.busy_until > now {
            self.busy_until = now;
        }
        waiting
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_basic() {
        // 1 Mbps, 125 000 bytes = 1 s.
        assert_eq!(tx_time(125_000, 1_000_000.0), SimDuration::from_secs(1));
        // 2.5 Mbps, 1 KB ≈ 3.2768 ms? No: 1024*8/2.5e6 = 3.2768 ms.
        let d = tx_time(1024, 2_500_000.0);
        assert!((d.as_secs_f64() - 0.0032768).abs() < 1e-9);
    }

    #[test]
    fn reservations_serialize() {
        let mut q = RateQueue::new(1_000_000.0);
        let (s1, e1) = q.reserve(SimTime::ZERO, 125_000);
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1, SimTime::from_secs(1));
        // Second reservation at t=0 queues behind the first.
        let (s2, e2) = q.reserve(SimTime::ZERO, 125_000);
        assert_eq!(s2, SimTime::from_secs(1));
        assert_eq!(e2, SimTime::from_secs(2));
        // A reservation after the queue drained starts immediately.
        let (s3, _) = q.reserve(SimTime::from_secs(5), 125_000);
        assert_eq!(s3, SimTime::from_secs(5));
        assert_eq!(q.bytes_reserved(), 375_000);
    }

    #[test]
    fn backlog_reflects_queue() {
        let mut q = RateQueue::new(1_000_000.0);
        q.reserve(SimTime::ZERO, 250_000); // 2 s of air
        assert_eq!(q.backlog(SimTime::ZERO), SimDuration::from_secs(2));
        assert_eq!(q.backlog(SimTime::from_secs(1)), SimDuration::from_secs(1));
        assert_eq!(q.backlog(SimTime::from_secs(3)), SimDuration::ZERO);
    }

    #[test]
    fn reserve_span_uses_given_duration() {
        let mut q = RateQueue::new(1_000_000.0);
        let (s, e) = q.reserve_span(SimTime::ZERO, SimDuration::from_millis(10), 999);
        assert_eq!(s, SimTime::ZERO);
        assert_eq!(e, SimTime::from_millis(10));
        assert_eq!(q.bytes_reserved(), 999);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = RateQueue::new(0.0);
    }

    #[test]
    fn depth_tracks_backlog_in_bytes() {
        let mut q = RateQueue::new(1_000_000.0); // 125 000 B/s
        assert_eq!(q.depth_bytes(SimTime::ZERO), 0);
        q.reserve(SimTime::ZERO, 125_000); // 1 s of serialization
                                           // Everything is still queued at t=0, half at t=0.5.
        assert_eq!(q.depth_bytes(SimTime::ZERO), 125_000);
        assert_eq!(q.depth_bytes(SimTime::from_millis(500)), 62_500);
        assert_eq!(q.depth_bytes(SimTime::from_secs(2)), 0);
        // Max depth includes the reservation that created it.
        q.reserve(SimTime::ZERO, 125_000);
        assert_eq!(q.max_depth_bytes(), 250_000);
        // Draining never lowers the recorded maximum.
        q.reserve(SimTime::from_secs(10), 100);
        assert_eq!(q.max_depth_bytes(), 250_000);
    }
}
