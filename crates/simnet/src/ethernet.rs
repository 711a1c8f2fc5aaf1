//! Datacenter Ethernet — the substrate of the server-based DSPS
//! baseline in Table I.
//!
//! Full-duplex switched network: each endpoint has a dedicated egress
//! queue at the link rate, plus a small switch latency. Reliable and
//! loss-free; Ethernet is never the bottleneck in the paper's Table I
//! (the 3G uplink is), and this model keeps it that way while still
//! charging realistic serialization time.

use std::collections::BTreeMap;

use simkernel::{impl_actor_any, Actor, ActorId, Ctx, EventBox, SimDuration};

use crate::link::RateQueue;
use crate::stats::NetStats;
use crate::{NetRx, NetSend, TxDone};

/// Per-endpoint link rate, bits/s (GigE).
const RATE_BPS: f64 = 1_000_000_000.0;

/// One-way switch latency.
const LATENCY: SimDuration = SimDuration::from_micros(50);

/// Per-message framing overhead in bytes.
const OVERHEAD: u64 = 66;

/// The switched network actor.
#[derive(Default)]
pub struct EthernetNet {
    egress: BTreeMap<ActorId, RateQueue>,
    stats: NetStats,
}

impl EthernetNet {
    /// New switch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach an endpoint.
    pub fn register(&mut self, node: ActorId) {
        self.egress.insert(node, RateQueue::new(RATE_BPS));
    }

    /// Accounting.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn handle_send(&mut self, s: NetSend, ctx: &mut Ctx) {
        let now = ctx.now();
        let wire = s.bytes + OVERHEAD;
        // Sends from unregistered endpoints are counted, not fatal
        // (PR 2 de-panicking convention; see wifi.rs for the model).
        let Some(q) = self.egress.get_mut(&s.src) else {
            self.stats.rejects += 1;
            return;
        };
        let (_, end) = q.reserve(now, wire);
        let air = end - now;
        self.stats.record_send(s.class, s.bytes, wire, air);
        let deliver_at = end + LATENCY;
        if let Some(p) = s.payload {
            ctx.send_in(
                deliver_at - now,
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
            ctx.send_in(end - now, s.src, TxDone { tag: s.tag });
        }
    }
}

impl Actor for EthernetNet {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        simkernel::match_event!(ev,
            s: NetSend => { self.handle_send(s, ctx); },
            @else _other => {
                // Unknown event types are counted, not fatal (PR 2
                // de-panicking convention).
                self.stats.rejects += 1;
            }
        );
    }

    fn name(&self) -> String {
        "ethernet".into()
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
    }

    impl Actor for Sink {
        fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
            if let Ok(r) = ev.downcast::<NetRx>() {
                self.rx.push((ctx.now(), r.bytes));
            }
        }
        impl_actor_any!();
    }

    /// Payload bytes that take exactly 1 ms on the wire at GigE.
    const ONE_MS: u64 = 125_000 - OVERHEAD;

    #[test]
    fn fast_delivery_with_latency() {
        let mut sim = Sim::new(0);
        let a = sim.add_actor(Box::<Sink>::default());
        let b = sim.add_actor(Box::<Sink>::default());
        let mut net = EthernetNet::new();
        net.register(a);
        net.register(b);
        let n = sim.add_actor(Box::new(net));
        sim.schedule_at(
            SimTime::ZERO,
            n,
            NetSend {
                src: a,
                dst: b,
                class: TrafficClass::Data,
                bytes: ONE_MS,
                tag: 0,
                payload: Some(crate::payload(())),
            },
        );
        sim.run();
        let rx = &sim.actor::<Sink>(b).rx;
        assert_eq!(rx.len(), 1);
        let expect = 0.001 + LATENCY.as_secs_f64();
        assert!((rx[0].0.as_secs_f64() - expect).abs() < 1e-9);
    }

    #[test]
    fn egress_queues_are_per_endpoint() {
        let mut sim = Sim::new(0);
        let a = sim.add_actor(Box::<Sink>::default());
        let b = sim.add_actor(Box::<Sink>::default());
        let c = sim.add_actor(Box::<Sink>::default());
        let mut net = EthernetNet::new();
        for id in [a, b, c] {
            net.register(id);
        }
        let n = sim.add_actor(Box::new(net));
        // Two sends from a: serialize. One from b: parallel.
        for src in [a, a, b] {
            sim.schedule_at(
                SimTime::ZERO,
                n,
                NetSend {
                    src,
                    dst: c,
                    class: TrafficClass::Data,
                    bytes: ONE_MS,
                    tag: 0,
                    payload: Some(crate::payload(())),
                },
            );
        }
        sim.run();
        let times: Vec<f64> = sim
            .actor::<Sink>(c)
            .rx
            .iter()
            .map(|(t, _)| t.as_secs_f64())
            .collect();
        assert_eq!(times.len(), 3);
        // a's first and b's only send land after 1 ms on the wire; a's
        // second queues behind a's first and lands 1 ms later.
        let latency = LATENCY.as_secs_f64();
        assert!((times[0] - 0.001 - latency).abs() < 1e-9);
        assert!((times[1] - 0.001 - latency).abs() < 1e-9);
        assert!((times[2] - 0.002 - latency).abs() < 1e-9);
    }
}
