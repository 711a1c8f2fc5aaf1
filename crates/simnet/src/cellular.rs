//! The 3G cellular network.
//!
//! Every phone (and the controller, and the datacenter frontend of the
//! server baseline) is an *endpoint* with its own uplink and downlink
//! rate queues — per the paper's measurements, uplink 0.016–0.32 Mbps
//! and downlink 0.35–1.14 Mbps. A transfer serializes on the source's
//! uplink, crosses the core with half-RTT latency, then serializes on
//! the destination's downlink. The cellular network is managed and
//! reliable; failures surface only when the *destination endpoint* is
//! dead or departed, after a timeout — and a dead destination never
//! consumes uplink time, so it cannot head-of-line-block live traffic.
//!
//! Link queues are *bounded*: each direction buffers at most
//! [`CellConfig::max_queue_bytes`] of backlog. Droppable traffic (see
//! [`crate::stats::TrafficClass::droppable`]) arriving at a full queue is
//! tail-dropped and counted (per endpoint and in [`NetStats`]);
//! priority classes (control, checkpoint, recovery) are never shed, so
//! saturation degrades the data plane without breaking protocol
//! liveness. Tagged droppable sends receive a [`TxDropped`] so senders
//! can distinguish congestion from death.

use std::collections::BTreeMap;

use simkernel::{impl_actor_any, Actor, ActorId, Ctx, EventBox, SimDuration};

use crate::link::RateQueue;
use crate::stats::NetStats;
use crate::{LinkState, NetRx, NetSend, SetLink, TxDone, TxDropped, TxFailed, TxSevered};

/// Cellular network parameters (paper's measured 3G band midpoints).
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Default endpoint uplink, bits/s.
    pub default_up_bps: f64,
    /// Default endpoint downlink, bits/s.
    pub default_down_bps: f64,
    /// Round-trip time through the core.
    pub rtt: SimDuration,
    /// Per-message protocol overhead in bytes.
    pub overhead: u64,
    /// Unreachable-destination report delay.
    pub timeout: SimDuration,
    /// Per-direction link buffer: droppable traffic arriving while this
    /// much backlog is already queued is tail-dropped. The bound is on
    /// *waiting* bytes, so a single transfer larger than the buffer
    /// still goes out once it reaches the queue head. ~6 s of uplink
    /// backlog at the default rates.
    pub max_queue_bytes: u64,
    /// Delay before a [`TxDropped`] congestion notice reaches the
    /// sender. Physically this is the radio stack surfacing the
    /// tail-drop; it also lower-bounds every cellular response, which
    /// is what gives the parallel kernel a non-zero lookahead at the
    /// region/core boundary.
    pub drop_notify: SimDuration,
}

impl Default for CellConfig {
    fn default() -> Self {
        CellConfig {
            default_up_bps: 168_000.0,   // midpoint of 0.016–0.32 Mbps
            default_down_bps: 745_000.0, // midpoint of 0.35–1.14 Mbps
            rtt: SimDuration::from_millis(150),
            overhead: 60,
            timeout: SimDuration::from_secs(5),
            max_queue_bytes: 128 * 1024,
            drop_notify: SimDuration::from_millis(2),
        }
    }
}

impl CellConfig {
    /// Lower bound on the delay between any message entering the
    /// cellular network and the earliest response it can trigger back
    /// out to an endpoint at the default rates: the minimum of the
    /// drop-notify delay ([`TxDropped`]), half the RTT ([`NetRx`]),
    /// the failure timeout ([`TxFailed`]) and the time to clock a
    /// minimum-size message through the default uplink ([`TxDone`]).
    ///
    /// This is the conservative *lookahead* a parallel event kernel may
    /// use at the region/core boundary. It does not hold for endpoints
    /// registered with faster-than-default uplink rates; keep those on
    /// the global shard.
    pub fn min_response_delay(&self) -> SimDuration {
        let min_tx = crate::link::tx_time(self.overhead, self.default_up_bps);
        self.drop_notify
            .min(self.rtt / 2)
            .min(self.timeout)
            .min(min_tx)
    }
}

/// [`NetSend`] under its old cellular name: the benchmark package
/// (`msbench`, its own workspace) still builds cellular sends by it.
pub use crate::NetSend as CellSend;

/// Control: sever or restore the path between an endpoint and the core
/// (a network-weather partition). Unlike [`SetLink`] the endpoint
/// is *not* killed: its link state, queues and registration survive,
/// and sends involving it age out with [`TxSevered`] after the timeout
/// instead of failing — so upper layers retry with backoff rather than
/// declaring the peer dead.
#[derive(Debug, Clone, Copy)]
pub struct CellSetPartition {
    /// Endpoint.
    pub node: ActorId,
    /// `true` = behind the partition, `false` = healed.
    pub on: bool,
}

struct Endpoint {
    up: RateQueue,
    down: RateQueue,
    state: LinkState,
    /// Severed from the core by a weather partition (orthogonal to
    /// `state`: a partitioned endpoint is alive, just unreachable).
    partitioned: bool,
    /// Messages tail-dropped at this endpoint's full queues (uplink
    /// drops charged to the sender, downlink drops to the receiver).
    queue_drops: u64,
    /// Bytes lost at this endpoint's queues: tail-dropped payloads plus
    /// backlog drained when the endpoint died with bytes still queued.
    queue_drop_bytes: u64,
}

/// Per-endpoint congestion accounting (harvested by experiments).
#[derive(Debug, Clone, Copy, Default)]
pub struct CellEndpointStats {
    /// Messages tail-dropped at this endpoint's full queues.
    pub queue_drops: u64,
    /// Bytes lost at this endpoint's queues (tail drops + death drain).
    pub queue_drop_bytes: u64,
    /// Deepest uplink backlog observed (bytes).
    pub max_up_queue_bytes: u64,
    /// Deepest downlink backlog observed (bytes).
    pub max_down_queue_bytes: u64,
}

impl CellEndpointStats {
    /// Deeper of the two directions.
    pub fn max_queue_bytes(&self) -> u64 {
        self.max_up_queue_bytes.max(self.max_down_queue_bytes)
    }
}

/// The global cellular network actor.
pub struct CellularNet {
    cfg: CellConfig,
    endpoints: BTreeMap<ActorId, Endpoint>,
    stats: NetStats,
}

impl CellularNet {
    /// New network.
    pub fn new(cfg: CellConfig) -> Self {
        CellularNet {
            cfg,
            endpoints: BTreeMap::new(),
            stats: NetStats::default(),
        }
    }

    /// Register an endpoint with the default asymmetric rates.
    pub fn register(&mut self, node: ActorId) {
        let up = self.cfg.default_up_bps;
        let down = self.cfg.default_down_bps;
        self.register_with_rates(node, up, down);
    }

    /// Register with explicit rates (the controller and the datacenter
    /// frontend get fat pipes).
    pub fn register_with_rates(&mut self, node: ActorId, up_bps: f64, down_bps: f64) {
        self.endpoints.insert(
            node,
            Endpoint {
                up: RateQueue::new(up_bps),
                down: RateQueue::new(down_bps),
                state: LinkState::Active,
                partitioned: false,
                queue_drops: 0,
                queue_drop_bytes: 0,
            },
        );
    }

    /// Minimum delay between any [`NetSend`] issued anywhere and the
    /// resulting [`NetRx`] delivered to `node`: half the RTT plus the
    /// time to clock a minimum-size (payload-less) message through
    /// `node`'s downlink. `None` when `node` is not a registered
    /// endpoint.
    ///
    /// This is a *per-destination* conservative bound for a parallel
    /// kernel: every cross-region event chain into `node`'s shard ends
    /// with such a delivery, so the shard's window may run this far
    /// past the earliest foreign send — typically 30–40× wider than
    /// [`CellConfig::min_response_delay`]. Endpoint rates are fixed at
    /// registration ([`SetLink`] changes reachability, not rates),
    /// so the bound is stable for the whole run.
    pub fn min_delivery_delay_to(&self, node: ActorId) -> Option<SimDuration> {
        let ep = self.endpoints.get(&node)?;
        Some(self.cfg.rtt / 2 + crate::link::tx_time(self.cfg.overhead, ep.down.rate_bps()))
    }

    /// Change an endpoint's reachability at a known sim time. A
    /// transition out of `Active` drains whatever is still waiting on
    /// both directions: those bytes will never be transmitted, so they
    /// are charged to the endpoint's (and the network's) drop
    /// accounting instead of silently vanishing — and the observed
    /// `max_*_queue_bytes` maxima are left untouched.
    pub fn set_link_state_at(&mut self, node: ActorId, state: LinkState, now: simkernel::SimTime) {
        let Some(ep) = self.endpoints.get_mut(&node) else {
            return;
        };
        if ep.state.reachable() && !state.reachable() {
            let drained = ep.up.clear_backlog(now) + ep.down.clear_backlog(now);
            ep.queue_drop_bytes += drained;
            self.stats.queue_drop_bytes += drained;
        }
        ep.state = state;
    }

    /// Sever (`on = true`) or heal (`on = false`) the endpoint↔core
    /// path without touching the endpoint's link state or queues.
    pub fn set_partitioned(&mut self, node: ActorId, on: bool) {
        if let Some(ep) = self.endpoints.get_mut(&node) {
            ep.partitioned = on;
        }
    }

    /// Is this endpoint currently behind a weather partition?
    pub fn partitioned(&self, node: ActorId) -> bool {
        self.endpoints.get(&node).is_some_and(|e| e.partitioned)
    }

    /// Endpoint reachability (`Gone` if unregistered).
    pub fn link_state(&self, node: ActorId) -> LinkState {
        self.endpoints
            .get(&node)
            .map(|e| e.state)
            .unwrap_or(LinkState::Gone)
    }

    /// Accounting.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Per-endpoint congestion accounting (`None` if unregistered).
    pub fn endpoint_stats(&self, node: ActorId) -> Option<CellEndpointStats> {
        self.endpoints.get(&node).map(|ep| CellEndpointStats {
            queue_drops: ep.queue_drops,
            queue_drop_bytes: ep.queue_drop_bytes,
            max_up_queue_bytes: ep.up.max_depth_bytes(),
            max_down_queue_bytes: ep.down.max_depth_bytes(),
        })
    }

    fn handle_send(&mut self, s: NetSend, ctx: &mut Ctx) {
        let now = ctx.now();
        let wire = s.bytes + self.cfg.overhead;
        let cap = self.cfg.max_queue_bytes;
        // Sends from unregistered endpoints are counted, not fatal
        // (PR 2 de-panicking convention): a mis-wired app must not
        // take the whole fleet simulation down.
        let Some(src_state) = self.endpoints.get(&s.src).map(|ep| ep.state) else {
            self.stats.rejects += 1;
            return;
        };
        if !src_state.reachable() {
            self.stats.drops += 1;
            return;
        }

        // Weather partition: either side behind the cut severs the
        // path. The message ages out via the same timeout as a dead
        // destination, but the sender learns `TxSevered`, not
        // `TxFailed` — a partitioned peer may well be alive, so this
        // must not feed failure detection. Checked before the dead-dst
        // path: death cannot be observed through a partition.
        if self.partitioned(s.src) || self.partitioned(s.dst) {
            self.stats.severed_sends += 1;
            if s.tag != 0 {
                ctx.send_in(
                    self.cfg.timeout,
                    s.src,
                    TxSevered {
                        tag: s.tag,
                        dst: s.dst,
                    },
                );
            }
            return;
        }

        // Dead destination: report unreachable after the timeout
        // WITHOUT occupying the uplink — a dead peer must not
        // head-of-line-block live urgent traffic behind its payload.
        if !self.link_state(s.dst).reachable() {
            self.stats.failed_sends += 1;
            if s.tag != 0 {
                ctx.send_in(
                    self.cfg.timeout,
                    s.src,
                    TxFailed {
                        tag: s.tag,
                        dst: s.dst,
                    },
                );
            }
            return;
        }

        // Bounded uplink: shed droppable traffic when the sender's
        // radio buffer is already full.
        let Some(src_ep) = self.endpoints.get_mut(&s.src) else {
            self.stats.rejects += 1;
            return;
        };
        if s.class.droppable() && src_ep.up.depth_bytes(now) >= cap {
            src_ep.queue_drops += 1;
            src_ep.queue_drop_bytes += s.bytes;
            self.stats.queue_drops += 1;
            self.stats.queue_drop_bytes += s.bytes;
            if s.tag != 0 {
                ctx.send_in(
                    self.cfg.drop_notify,
                    s.src,
                    TxDropped {
                        tag: s.tag,
                        dst: s.dst,
                    },
                );
            }
            return;
        }
        let (_, up_end) = src_ep.up.reserve(now, wire);
        let up_air = up_end - now;
        let up_depth = src_ep.up.max_depth_bytes();
        self.stats.note_queue_depth(up_depth);

        let core_arrive = up_end + self.cfg.rtt / 2;
        let Some(dst_ep) = self.endpoints.get_mut(&s.dst) else {
            self.stats.rejects += 1;
            return;
        };

        // Bounded downlink buffer at the core: the bytes crossed the
        // uplink but are shed before the receiver's pipe. Depth is
        // assessed on the send-event clock (`now`), which is monotone —
        // `core_arrive` includes the sender's uplink backlog, so
        // successive arrivals are NOT ordered and a stale, un-decayed
        // depth reading would phantom-drop traffic bound for an
        // actually-empty downlink.
        if s.class.droppable() && dst_ep.down.depth_bytes(now) >= cap {
            dst_ep.queue_drops += 1;
            dst_ep.queue_drop_bytes += s.bytes;
            self.stats.queue_drops += 1;
            self.stats.queue_drop_bytes += s.bytes;
            self.stats.record_send(s.class, s.bytes, wire, up_air);
            if s.tag != 0 {
                ctx.send_in(
                    up_air.max(self.cfg.drop_notify),
                    s.src,
                    TxDropped {
                        tag: s.tag,
                        dst: s.dst,
                    },
                );
            }
            return;
        }

        let (_, down_end) = {
            // The downlink cannot start before the data reaches the
            // core; depth bookkeeping stays on the monotone send-event
            // clock (see the cap check above).
            let q = &mut dst_ep.down;
            let span = crate::link::tx_time(wire, q.rate_bps());
            q.reserve_span_at(now, core_arrive, span, wire)
        };
        let down_depth = dst_ep.down.max_depth_bytes();
        self.stats.note_queue_depth(down_depth);
        self.stats.record_send(
            s.class,
            s.bytes,
            wire * 2,
            up_air + (down_end - core_arrive),
        );

        if let Some(p) = s.payload {
            ctx.send_in(
                down_end - now,
                s.dst,
                NetRx {
                    src: s.src,
                    bytes: s.bytes,
                    class: s.class,
                    payload: p,
                },
            );
        }
        if s.tag != 0 {
            ctx.send_in(up_end - now, s.src, TxDone { tag: s.tag });
        }
    }
}

impl Actor for CellularNet {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        simkernel::match_event!(ev,
            s: NetSend => { self.handle_send(s, ctx); },
            l: SetLink => { self.set_link_state_at(l.node, l.state, ctx.now()); },
            p: CellSetPartition => { self.set_partitioned(p.node, p.on); },
            @else _other => {
                // Unknown event types are counted, not fatal (PR 2
                // de-panicking convention; see wifi.rs for the model).
                self.stats.rejects += 1;
            }
        );
    }

    fn name(&self) -> String {
        "cellular-net".into()
    }

    impl_actor_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TrafficClass;
    use simkernel::{Sim, SimTime};

    #[derive(Default)]
    struct Sink {
        rx: Vec<(SimTime, u64)>,
        done: Vec<u64>,
        failed: Vec<u64>,
        dropped: Vec<u64>,
        severed: Vec<(SimTime, u64)>,
    }

    impl Actor for Sink {
        fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
            simkernel::match_event!(ev,
                r: NetRx => { self.rx.push((ctx.now(), r.bytes)); },
                d: TxDone => { self.done.push(d.tag); },
                f: TxFailed => { self.failed.push(f.tag); },
                d: TxDropped => { self.dropped.push(d.tag); },
                s: TxSevered => { self.severed.push((ctx.now(), s.tag)); },
                @else other => { panic!("unexpected {}", (*other).type_name()); }
            );
        }
        impl_actor_any!();
    }

    #[test]
    fn min_response_delay_is_the_smallest_response_path() {
        let cfg = CellConfig::default();
        // drop_notify (2 ms) < tx_time(60 B, 168 kbps) ≈ 2.857 ms <
        // rtt/2 (75 ms) < timeout (5 s).
        assert_eq!(cfg.min_response_delay(), cfg.drop_notify);
        // A zero-overhead config is bounded by the next-smallest term.
        let zero_overhead = CellConfig {
            overhead: 0,
            ..CellConfig::default()
        };
        assert_eq!(
            zero_overhead.min_response_delay(),
            SimDuration::ZERO,
            "zero overhead means a message can clock out instantly"
        );
    }

    fn setup() -> (Sim, ActorId, Vec<ActorId>) {
        let mut sim = Sim::new(3);
        let nodes: Vec<ActorId> = (0..3)
            .map(|_| sim.add_actor(Box::<Sink>::default()))
            .collect();
        let mut net = CellularNet::new(CellConfig {
            default_up_bps: 100_000.0, // 12.5 KB/s
            default_down_bps: 1_000_000.0,
            rtt: SimDuration::from_millis(100),
            overhead: 0,
            timeout: SimDuration::from_secs(5),
            max_queue_bytes: 128 * 1024,
            drop_notify: SimDuration::from_millis(2),
        });
        for &n in &nodes {
            net.register(n);
        }
        let id = sim.add_actor(Box::new(net));
        (sim, id, nodes)
    }

    #[test]
    fn transfer_time_is_uplink_plus_half_rtt_plus_downlink() {
        let (mut sim, net, nodes) = setup();
        sim.schedule_at(
            SimTime::ZERO,
            net,
            NetSend {
                src: nodes[0],
                dst: nodes[1],
                class: TrafficClass::Data,
                bytes: 12_500, // 1 s up at 100 kbps, 0.1 s down at 1 Mbps
                tag: 1,
                payload: Some(crate::payload(())),
            },
        );
        sim.run();
        let rx = &sim.actor::<Sink>(nodes[1]).rx;
        assert_eq!(rx.len(), 1);
        let expect = 1.0 + 0.05 + 0.1;
        assert!(
            (rx[0].0.as_secs_f64() - expect).abs() < 1e-6,
            "{:?}",
            rx[0].0
        );
        // TxDone when the uplink drained (sender can queue the next).
        assert_eq!(sim.actor::<Sink>(nodes[0]).done, vec![1]);
    }

    #[test]
    fn uplink_is_the_bottleneck_and_serializes() {
        let (mut sim, net, nodes) = setup();
        for tag in 1..=3u64 {
            sim.schedule_at(
                SimTime::ZERO,
                net,
                NetSend {
                    src: nodes[0],
                    dst: nodes[1],
                    class: TrafficClass::Data,
                    bytes: 12_500,
                    tag,
                    payload: Some(crate::payload(())),
                },
            );
        }
        sim.run();
        let rx = &sim.actor::<Sink>(nodes[1]).rx;
        assert_eq!(rx.len(), 3);
        // Arrivals spaced by the uplink serialization (1 s each).
        let t: Vec<f64> = rx.iter().map(|(at, _)| at.as_secs_f64()).collect();
        assert!((t[1] - t[0] - 1.0).abs() < 1e-6, "{t:?}");
        assert!((t[2] - t[1] - 1.0).abs() < 1e-6, "{t:?}");
    }

    #[test]
    fn distinct_endpoints_have_independent_uplinks() {
        let (mut sim, net, nodes) = setup();
        for src in [nodes[0], nodes[1]] {
            sim.schedule_at(
                SimTime::ZERO,
                net,
                NetSend {
                    src,
                    dst: nodes[2],
                    class: TrafficClass::Data,
                    bytes: 12_500,
                    tag: 0,
                    payload: Some(crate::payload(())),
                },
            );
        }
        sim.run();
        let rx = &sim.actor::<Sink>(nodes[2]).rx;
        assert_eq!(rx.len(), 2);
        // Both uplinks run in parallel; arrivals differ only by downlink
        // serialization (0.1 s), not uplink (1 s).
        let dt = rx[1].0.as_secs_f64() - rx[0].0.as_secs_f64();
        assert!((dt - 0.1).abs() < 1e-6, "dt = {dt}");
    }

    #[test]
    fn send_to_dead_endpoint_fails() {
        let (mut sim, net, nodes) = setup();
        sim.actor_mut::<CellularNet>(net).set_link_state_at(
            nodes[1],
            LinkState::Dead,
            SimTime::ZERO,
        );
        sim.schedule_at(
            SimTime::ZERO,
            net,
            NetSend {
                src: nodes[0],
                dst: nodes[1],
                class: TrafficClass::Control,
                bytes: 100,
                tag: 7,
                payload: Some(crate::payload(())),
            },
        );
        sim.run();
        assert!(sim.actor::<Sink>(nodes[1]).rx.is_empty());
        assert_eq!(sim.actor::<Sink>(nodes[0]).failed, vec![7]);
        assert!(sim.now() >= SimTime::from_secs(5));
    }

    #[test]
    fn dead_destination_does_not_occupy_the_uplink() {
        let (mut sim, net, nodes) = setup();
        sim.actor_mut::<CellularNet>(net).set_link_state_at(
            nodes[1],
            LinkState::Gone,
            SimTime::ZERO,
        );
        // A huge payload to the departed endpoint (10 s of uplink if it
        // were serialized), then a small urgent message to a live peer.
        sim.schedule_at(
            SimTime::ZERO,
            net,
            NetSend {
                src: nodes[0],
                dst: nodes[1],
                class: TrafficClass::Data,
                bytes: 125_000,
                tag: 9,
                payload: Some(crate::payload(())),
            },
        );
        sim.schedule_at(
            SimTime::ZERO,
            net,
            NetSend {
                src: nodes[0],
                dst: nodes[2],
                class: TrafficClass::Control,
                bytes: 1_000,
                tag: 10,
                payload: Some(crate::payload(())),
            },
        );
        sim.run();
        // The live message was not head-of-line-blocked: 0.08 s uplink
        // + 0.05 s half-RTT + 0.008 s downlink, far below 10 s.
        let rx = &sim.actor::<Sink>(nodes[2]).rx;
        assert_eq!(rx.len(), 1);
        assert!(
            rx[0].0 < SimTime::from_secs(1),
            "HOL-blocked: {:?}",
            rx[0].0
        );
        // The dead send still failed after the timeout.
        assert_eq!(sim.actor::<Sink>(nodes[0]).failed, vec![9]);
        // And no uplink/wire accounting happened for it.
        let n = sim.actor::<CellularNet>(net);
        assert_eq!(n.stats().payload_bytes(TrafficClass::Data), 0);
        assert_eq!(n.stats().failed_sends, 1);
    }

    #[test]
    fn full_uplink_tail_drops_data_but_not_control() {
        let (mut sim, net, nodes) = setup();
        // 12.5 KB/s uplink, 128 KiB buffer: ~11 × 12.5 KB fills it.
        for tag in 1..=20u64 {
            sim.schedule_at(
                SimTime::ZERO,
                net,
                NetSend {
                    src: nodes[0],
                    dst: nodes[1],
                    class: TrafficClass::Data,
                    bytes: 12_500,
                    tag,
                    payload: Some(crate::payload(())),
                },
            );
        }
        // A control RPC behind the saturated queue is never shed.
        sim.schedule_at(
            SimTime::ZERO,
            net,
            NetSend {
                src: nodes[0],
                dst: nodes[1],
                class: TrafficClass::Control,
                bytes: 64,
                tag: 99,
                payload: Some(crate::payload(())),
            },
        );
        sim.run();
        let src = sim.actor::<Sink>(nodes[0]);
        assert!(!src.dropped.is_empty(), "no tail drops at a full buffer");
        assert!(
            !src.dropped.contains(&99),
            "control traffic must never be shed"
        );
        assert!(src.done.contains(&99), "control RPC was delivered");
        let n = sim.actor::<CellularNet>(net);
        assert_eq!(n.stats().queue_drops, src.dropped.len() as u64);
        let ep = n.endpoint_stats(nodes[0]).unwrap();
        assert_eq!(ep.queue_drops, src.dropped.len() as u64);
        assert!(ep.max_up_queue_bytes >= 128 * 1024);
        assert!(n.stats().max_queue_depth >= ep.max_up_queue_bytes);
        // Accepted + dropped = offered.
        let delivered = sim.actor::<Sink>(nodes[1]).rx.len();
        assert_eq!(delivered + src.dropped.len(), 21);
    }

    #[test]
    fn slow_sender_reservation_does_not_phantom_drop_later_arrivals() {
        // Regression: a large transfer from a *backlogged* sender
        // reserves the destination downlink for a window far in the
        // future (core arrival ≈ its uplink drain time). A later send
        // from a fresh sender to the same destination must not be
        // tail-dropped against those bytes — at its send time they are
        // still on the other phone's uplink, not in the downlink
        // buffer.
        let (mut sim, net, nodes) = setup();
        // 128 KiB from node0: ~10.5 s of uplink at 12.5 KB/s, so the
        // downlink window is reserved ~10.5 s ahead.
        sim.schedule_at(
            SimTime::ZERO,
            net,
            NetSend {
                src: nodes[0],
                dst: nodes[1],
                class: TrafficClass::Data,
                bytes: 128 * 1024,
                tag: 1,
                payload: Some(crate::payload(())),
            },
        );
        sim.schedule_at(
            SimTime::from_secs(1),
            net,
            NetSend {
                src: nodes[2],
                dst: nodes[1],
                class: TrafficClass::Data,
                bytes: 1_000,
                tag: 2,
                payload: Some(crate::payload(())),
            },
        );
        sim.run();
        assert!(
            sim.actor::<Sink>(nodes[2]).dropped.is_empty(),
            "later send phantom-dropped against a future reservation"
        );
        assert_eq!(sim.actor::<Sink>(nodes[1]).rx.len(), 2);
    }

    #[test]
    fn oversized_single_message_still_passes_an_empty_queue() {
        let (mut sim, net, nodes) = setup();
        // One 200 KiB transfer > 128 KiB buffer: the bound is on
        // *waiting* bytes, so it serializes rather than livelocking.
        sim.schedule_at(
            SimTime::ZERO,
            net,
            NetSend {
                src: nodes[0],
                dst: nodes[1],
                class: TrafficClass::Data,
                bytes: 200 * 1024,
                tag: 5,
                payload: Some(crate::payload(())),
            },
        );
        sim.run();
        assert_eq!(sim.actor::<Sink>(nodes[1]).rx.len(), 1);
        assert!(sim.actor::<Sink>(nodes[0]).dropped.is_empty());
    }

    #[test]
    fn partition_severs_both_directions_without_killing_endpoints() {
        let (mut sim, net, nodes) = setup();
        sim.schedule_at(
            SimTime::ZERO,
            net,
            CellSetPartition {
                node: nodes[1],
                on: true,
            },
        );
        // Into and out of the partition: both sever, neither fails.
        for (src, dst, tag) in [(nodes[0], nodes[1], 1u64), (nodes[1], nodes[0], 2u64)] {
            sim.schedule_at(
                SimTime::from_millis(1),
                net,
                NetSend {
                    src,
                    dst,
                    class: TrafficClass::Control,
                    bytes: 100,
                    tag,
                    payload: Some(crate::payload(())),
                },
            );
        }
        // Heal, then delivery resumes over the same endpoint.
        sim.schedule_at(
            SimTime::from_secs(10),
            net,
            CellSetPartition {
                node: nodes[1],
                on: false,
            },
        );
        sim.schedule_at(
            SimTime::from_secs(10),
            net,
            NetSend {
                src: nodes[0],
                dst: nodes[1],
                class: TrafficClass::Control,
                bytes: 100,
                tag: 3,
                payload: Some(crate::payload(())),
            },
        );
        sim.run();
        // Severed notices arrive after the failure timeout (5 s), and
        // carry no liveness verdict: no TxFailed anywhere.
        let s0 = sim.actor::<Sink>(nodes[0]);
        assert_eq!(s0.severed.len(), 1);
        assert_eq!(s0.severed[0].1, 1);
        assert_eq!(s0.severed[0].0, SimTime::from_millis(5001));
        assert!(s0.failed.is_empty());
        let s1 = sim.actor::<Sink>(nodes[1]);
        assert_eq!(s1.severed.iter().map(|(_, t)| *t).collect::<Vec<_>>(), [2]);
        assert!(s1.failed.is_empty());
        // The partitioned endpoint never died, and the healed send got
        // through.
        let n = sim.actor::<CellularNet>(net);
        assert_eq!(n.link_state(nodes[1]), LinkState::Active);
        assert!(!n.partitioned(nodes[1]));
        assert_eq!(n.stats().severed_sends, 2);
        assert_eq!(n.stats().failed_sends, 0);
        assert_eq!(s1.rx.len(), 1, "post-heal delivery");
    }

    #[test]
    fn endpoint_death_drains_queued_bytes_into_drop_accounting() {
        // Satellite: an endpoint dying with bytes still queued must
        // charge the drained backlog to `queue_drop_bytes` and must NOT
        // retroactively decay the observed max queue depth.
        let (mut sim, net, nodes) = setup();
        // 3 × 12.5 KB at 12.5 KB/s: 3 s of uplink backlog from t=0.
        for tag in 1..=3u64 {
            sim.schedule_at(
                SimTime::ZERO,
                net,
                NetSend {
                    src: nodes[0],
                    dst: nodes[1],
                    class: TrafficClass::Data,
                    bytes: 12_500,
                    tag,
                    payload: Some(crate::payload(())),
                },
            );
        }
        // Die at t=1 s: one message clocked out, 25 000 B still waiting.
        sim.schedule_at(
            SimTime::from_secs(1),
            net,
            SetLink {
                node: nodes[0],
                state: LinkState::Dead,
            },
        );
        sim.run_until(SimTime::from_secs(2));
        let n = sim.actor::<CellularNet>(net);
        let ep = n.endpoint_stats(nodes[0]).unwrap();
        assert_eq!(ep.queue_drop_bytes, 25_000, "drained backlog lost");
        assert_eq!(n.stats().queue_drop_bytes, 25_000);
        assert_eq!(ep.queue_drops, 0, "a drain is not a tail drop");
        assert_eq!(
            ep.max_up_queue_bytes, 37_500,
            "observed maximum must not decay when the owner dies"
        );

        // A revived endpoint starts with a clean pipe: no stale backlog
        // from before the crash delays new traffic.
        sim.schedule_at(
            SimTime::from_secs(2),
            net,
            SetLink {
                node: nodes[0],
                state: LinkState::Active,
            },
        );
        sim.schedule_at(
            SimTime::from_secs(2),
            net,
            NetSend {
                src: nodes[0],
                dst: nodes[2],
                class: TrafficClass::Data,
                bytes: 12_500,
                tag: 9,
                payload: Some(crate::payload(())),
            },
        );
        sim.run();
        let rx = &sim.actor::<Sink>(nodes[2]).rx;
        assert_eq!(rx.len(), 1);
        // 2 s send + 1 s uplink + 0.05 s core + 0.1 s downlink.
        assert!(
            (rx[0].0.as_secs_f64() - 3.15).abs() < 1e-6,
            "stale pre-death backlog delayed the revived uplink: {:?}",
            rx[0].0
        );
        let n = sim.actor::<CellularNet>(net);
        assert_eq!(
            n.endpoint_stats(nodes[0]).unwrap().queue_drop_bytes,
            25_000,
            "revival must not re-charge the drain"
        );
    }

    mod partition_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Weather partitions are non-destructive and idempotent at
            /// the stats layer: over a random cut→heal→cut schedule
            /// (with redundant duplicate cut/heal events) against a
            /// steady tagged stream, every send resolves exactly once —
            /// TxDone or TxSevered, never TxFailed (nobody died) and
            /// never TxDropped (control class) — the TxSevered notices
            /// match the network's severed ledger one-for-one, queue
            /// and reject counters stay zero, and the final heal leaves
            /// the endpoint Active and un-partitioned.
            #[test]
            fn cut_heal_cut_resolves_every_send_exactly_once(
                cuts in 1usize..4,
                period_ms in 400u64..1600,
                phase_ms in 0u64..5000,
            ) {
                let (mut sim, net, nodes) = setup();
                let horizon_ms = 60_000u64;
                let mut tags = Vec::new();
                let mut at = period_ms;
                while at < horizon_ms {
                    let tag = tags.len() as u64 + 1;
                    tags.push(tag);
                    sim.schedule_at(
                        SimTime::from_millis(at),
                        net,
                        NetSend {
                            src: nodes[0],
                            dst: nodes[1],
                            class: TrafficClass::Control,
                            bytes: 100,
                            tag,
                            payload: Some(crate::payload(())),
                        },
                    );
                    at += period_ms;
                }
                // cut → 7 s outage → heal, repeated; every transition
                // is scheduled TWICE (1 ms apart) so the property also
                // covers partitioning an already-partitioned endpoint
                // and healing a healed one.
                for k in 0..cuts as u64 {
                    let cut_ms = 5_000 + phase_ms + k * 14_000;
                    for (offset, on) in [(0, true), (1, true), (7_000, false), (7_001, false)] {
                        sim.schedule_at(
                            SimTime::from_millis(cut_ms + offset),
                            net,
                            CellSetPartition {
                                node: nodes[1],
                                on,
                            },
                        );
                    }
                }
                sim.run();

                let s0 = sim.actor::<Sink>(nodes[0]);
                prop_assert!(s0.failed.is_empty(), "a partition is not death");
                prop_assert!(s0.dropped.is_empty(), "control is never shed");
                let mut resolved: Vec<u64> = s0
                    .done
                    .iter()
                    .copied()
                    .chain(s0.severed.iter().map(|(_, t)| *t))
                    .collect();
                resolved.sort_unstable();
                prop_assert_eq!(
                    &resolved, &tags,
                    "every tagged send resolves exactly once (done + severed)"
                );
                // Delivery count mirrors the accepted count.
                prop_assert_eq!(sim.actor::<Sink>(nodes[1]).rx.len(), s0.done.len());

                let n = sim.actor::<CellularNet>(net);
                prop_assert_eq!(n.stats().severed_sends, s0.severed.len() as u64);
                prop_assert_eq!(n.stats().failed_sends, 0);
                prop_assert_eq!(n.stats().queue_drops, 0);
                prop_assert_eq!(n.stats().queue_drop_bytes, 0);
                prop_assert_eq!(n.stats().rejects, 0);
                prop_assert_eq!(n.link_state(nodes[1]), LinkState::Active);
                prop_assert!(!n.partitioned(nodes[1]), "final heal sticks");
            }
        }
    }

    #[test]
    fn stats_account_bytes() {
        let (mut sim, net, nodes) = setup();
        sim.schedule_at(
            SimTime::ZERO,
            net,
            NetSend {
                src: nodes[0],
                dst: nodes[1],
                class: TrafficClass::Data,
                bytes: 5000,
                tag: 0,
                payload: None,
            },
        );
        sim.run();
        let n = sim.actor::<CellularNet>(net);
        assert_eq!(n.stats().payload_bytes(TrafficClass::Data), 5000);
        assert_eq!(n.stats().messages(TrafficClass::Data), 1);
    }
}
