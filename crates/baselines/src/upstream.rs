//! Upstream backup (Hwang et al., ICDE'05) — related-work extension.
//!
//! "Every node acts as a backup for its downstream neighbors": there is
//! no checkpointing at all; each operator retains its output tuples,
//! and when a downstream node fails, its operators are *re-created on
//! the upstream neighbor*, which rebuilds their state by replaying the
//! retained outputs. The paper notes the limitations we reproduce:
//! "upstream backup cannot effectively support operators with large
//! windows, and it only handles single node failure."

use dsps::ft::FtScheme;
use dsps::graph::EdgeId;
use dsps::node::NodeInner;
use dsps::tuple::{StreamItem, Tuple};
use simkernel::{Ctx, EventBox, SimDuration};
use simnet::{payload_as, NetRx};

use crate::local::RetentionBuffer;
use crate::msgs::{BaselineAck, ResendRetained};

/// The upstream-backup per-node scheme: pure output retention.
pub struct UpstreamScheme {
    /// Retention window (bounds memory; real upstream backup trims on
    /// downstream acks).
    pub retention_window: SimDuration,
    /// Retained output tuples.
    pub retention: RetentionBuffer,
    last_trim_s: f64,
}

impl UpstreamScheme {
    /// New scheme.
    pub fn new(retention_window: SimDuration) -> Self {
        UpstreamScheme {
            retention_window,
            retention: RetentionBuffer::default(),
            last_trim_s: 0.0,
        }
    }

    fn resend(&mut self, edges: &[EdgeId], node: &mut NodeInner, ctx: &mut Ctx) {
        for &edge in edges {
            for mut t in self.retention.tuples_on(edge) {
                t.replay = true;
                node.route_item(ctx, edge, StreamItem::Tuple(t));
            }
        }
    }
}

impl FtScheme for UpstreamScheme {
    fn name(&self) -> &'static str {
        "upstream-backup"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_emit(
        &mut self,
        tuple: &Tuple,
        edge: EdgeId,
        node: &mut NodeInner,
        ctx: &mut Ctx,
    ) -> bool {
        let _ = node;
        if !tuple.replay {
            self.retention.retain(edge, ctx.now(), tuple.clone());
            // Periodic trim (acks approximated by a time window).
            let now_s = ctx.now().as_secs_f64();
            if now_s - self.last_trim_s > self.retention_window.as_secs_f64() {
                self.last_trim_s = now_s;
                self.retention
                    .trim_before(ctx.now() - self.retention_window);
            }
        }
        true
    }

    fn on_custom(&mut self, ev: EventBox, node: &mut NodeInner, ctx: &mut Ctx) {
        if !node.alive {
            return;
        }
        simkernel::match_event!(ev,
            rx: NetRx => {
                if let Some(r) = payload_as::<ResendRetained>(&rx.payload) {
                    let edges = r.edges.clone();
                    self.resend(&edges, node, ctx);
                }
            },
            @else _other => {}
        );
    }

    fn on_install(&mut self, node: &mut NodeInner, ctx: &mut Ctx) {
        let ack = BaselineAck {
            region: node.cfg.region,
            slot: node.cfg.slot,
        };
        node.send_controller(ctx, crate::msgs::wire::CONTROL, ack);
    }

    fn preserved_bytes(&self, node: &NodeInner) -> u64 {
        let _ = node;
        self.retention.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsps::tuple::value;
    use simkernel::SimTime;

    #[test]
    fn retention_accumulates_and_trims() {
        let mut s = UpstreamScheme::new(SimDuration::from_secs(10));
        assert_eq!(s.name(), "upstream-backup");
        s.retention.retain(
            EdgeId(0),
            SimTime::from_secs(1),
            Tuple::new(1, SimTime::ZERO, 100, value(())),
        );
        s.retention.retain(
            EdgeId(0),
            SimTime::from_secs(20),
            Tuple::new(2, SimTime::ZERO, 50, value(())),
        );
        assert_eq!(s.retention.bytes(), 150);
        s.retention.trim_before(SimTime::from_secs(15));
        assert_eq!(s.retention.bytes(), 50);
    }
}
