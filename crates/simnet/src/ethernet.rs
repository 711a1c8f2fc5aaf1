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

/// Ethernet parameters (defaults: GigE, 50 µs switch latency).
#[derive(Debug, Clone)]
pub struct EthConfig {
    /// Per-endpoint link rate, bits/s.
    pub rate_bps: f64,
    /// One-way switch latency.
    pub latency: SimDuration,
    /// Per-message framing overhead in bytes.
    pub overhead: u64,
}

impl Default for EthConfig {
    fn default() -> Self {
        EthConfig {
            rate_bps: 1_000_000_000.0,
            latency: SimDuration::from_micros(50),
            overhead: 66,
        }
    }
}

/// The switched network actor.
pub struct EthernetNet {
    cfg: EthConfig,
    egress: BTreeMap<ActorId, RateQueue>,
    stats: NetStats,
}

impl EthernetNet {
    /// New switch.
    pub fn new(cfg: EthConfig) -> Self {
        EthernetNet {
            cfg,
            egress: BTreeMap::new(),
            stats: NetStats::default(),
        }
    }

    /// Attach an endpoint.
    pub fn register(&mut self, node: ActorId) {
        self.egress.insert(node, RateQueue::new(self.cfg.rate_bps));
    }

    /// Accounting.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn handle_send(&mut self, s: NetSend, ctx: &mut Ctx) {
        let now = ctx.now();
        let wire = s.bytes + self.cfg.overhead;
        // Sends from unregistered endpoints are counted, not fatal
        // (PR 2 de-panicking convention; see wifi.rs for the model).
        let Some(q) = self.egress.get_mut(&s.src) else {
            self.stats.rejects += 1;
            return;
        };
        let (_, end) = q.reserve(now, wire);
        let air = end - now;
        self.stats.record_send(s.class, s.bytes, wire, air);
        let deliver_at = end + self.cfg.latency;
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

    #[test]
    fn fast_delivery_with_latency() {
        let mut sim = Sim::new(0);
        let a = sim.add_actor(Box::<Sink>::default());
        let b = sim.add_actor(Box::<Sink>::default());
        let mut net = EthernetNet::new(EthConfig {
            rate_bps: 1_000_000_000.0,
            latency: SimDuration::from_micros(50),
            overhead: 0,
        });
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
                bytes: 125_000, // 1 ms at 1 Gbps
                tag: 0,
                payload: Some(crate::payload(())),
            },
        );
        sim.run();
        let rx = &sim.actor::<Sink>(b).rx;
        assert_eq!(rx.len(), 1);
        let expect = 0.001 + 50e-6;
        assert!((rx[0].0.as_secs_f64() - expect).abs() < 1e-9);
    }

    #[test]
    fn egress_queues_are_per_endpoint() {
        let mut sim = Sim::new(0);
        let a = sim.add_actor(Box::<Sink>::default());
        let b = sim.add_actor(Box::<Sink>::default());
        let c = sim.add_actor(Box::<Sink>::default());
        let mut net = EthernetNet::new(EthConfig {
            rate_bps: 1_000_000.0, // slow to see serialization
            latency: SimDuration::ZERO,
            overhead: 0,
        });
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
                    bytes: 125_000, // 1 s at 1 Mbps
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
        // a's first and b's only send land at ~1 s; a's second at ~2 s.
        assert!((times[0] - 1.0).abs() < 1e-9);
        assert!((times[1] - 1.0).abs() < 1e-9);
        assert!((times[2] - 2.0).abs() < 1e-9);
    }
}
