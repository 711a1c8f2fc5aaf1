//! rep-2 — active standby, "representative of Flux and Borealis"
//! (§IV-B).
//!
//! The query network is duplicated into two parallel dataflows (flow 0
//! and flow 1); the workload driver feeds both; each flow runs on its
//! own subset of phones. The secondary flow's sinks are squelched. On
//! a failure in the primary flow the coordinator flips the primary —
//! takeover is immediate because the standby has been processing all
//! along ("the replica has maintained the same state as the failed
//! operator"). A second failure hitting the surviving flow is fatal:
//! rep-2 "can tolerate only single-node failures".
//!
//! Costs reproduced: 2× CPU (every operator runs twice on the same
//! 8-phone region), 2× network (the duplicate flow's tuple traffic —
//! accounted as `TrafficClass::Replication` for Fig 10b).

use std::sync::Arc;

use dsps::ft::FtScheme;
use dsps::graph::{OpId, QueryGraph};
use dsps::node::NodeInner;
use dsps::tuple::Tuple;
use simkernel::{Ctx, EventBox};
use simnet::{payload_as, NetRx};

use crate::msgs::SetPrimary;

/// Duplicate a query network into two disjoint flows.
///
/// Returns the doubled graph and `flow_of[op]` (0 or 1). Ops
/// `0..n` are flow 0 (same ids as the original), ops `n..2n` flow 1.
pub fn duplicate_graph(g: &QueryGraph) -> (QueryGraph, Vec<u8>) {
    let n = g.op_count();
    let mut out = QueryGraph::new();
    let mut flow_of = Vec::with_capacity(2 * n);
    for flow in 0..2u8 {
        for op in g.op_ids() {
            let spec = g.op(op);
            let name = if flow == 0 {
                spec.name.clone()
            } else {
                format!("{}'", spec.name)
            };
            // Re-instantiate through the original spec's factory.
            let factory = clone_factory(g, op);
            out.add_op_boxed(name, spec.kind, factory);
            flow_of.push(flow);
        }
    }
    for e in 0..g.edge_count() {
        let edge = g.edge(dsps::graph::EdgeId(e as u32));
        out.connect(edge.from, edge.to);
    }
    for e in 0..g.edge_count() {
        let edge = g.edge(dsps::graph::EdgeId(e as u32));
        out.connect(OpId(edge.from.0 + n as u32), OpId(edge.to.0 + n as u32));
    }
    (out, flow_of)
}

/// The flow-1 twin of a flow-0 op (and vice versa).
pub fn twin_of(op: OpId, original_ops: usize) -> OpId {
    if (op.0 as usize) < original_ops {
        OpId(op.0 + original_ops as u32)
    } else {
        OpId(op.0 - original_ops as u32)
    }
}

fn clone_factory(
    g: &QueryGraph,
    op: OpId,
) -> Box<dyn Fn() -> Box<dyn dsps::operator::Operator> + Send + Sync> {
    let f = g.factory_of(op);
    Box::new(move || f())
}

/// The rep-2 per-node scheme: squelch non-primary sink output.
pub struct Rep2Scheme {
    /// `flow_of[op]` from [`duplicate_graph`].
    pub flow_of: Arc<Vec<u8>>,
    /// Currently publishing flow.
    pub primary: u8,
}

impl Rep2Scheme {
    /// New scheme; flow 0 starts primary.
    pub fn new(flow_of: Arc<Vec<u8>>) -> Self {
        Rep2Scheme {
            flow_of,
            primary: 0,
        }
    }
}

impl FtScheme for Rep2Scheme {
    fn name(&self) -> &'static str {
        "rep-2"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn allow_sink_publish(
        &mut self,
        tuple: &Tuple,
        op: OpId,
        node: &mut NodeInner,
        ctx: &mut Ctx,
    ) -> bool {
        let _ = (node, ctx);
        !tuple.replay && self.flow_of[op.index()] == self.primary
    }

    fn on_custom(&mut self, ev: EventBox, node: &mut NodeInner, ctx: &mut Ctx) {
        let _ = (node, ctx);
        if let Some(p) = ev
            .downcast_ref::<NetRx>()
            .and_then(|rx| payload_as::<SetPrimary>(&rx.payload))
        {
            self.primary = p.flow;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsps::graph::OpKind;
    use dsps::ops::Relay;
    use simkernel::SimDuration;

    fn base_graph() -> QueryGraph {
        let mut g = QueryGraph::new();
        let s = g.add_op("S", OpKind::Source, || {
            Box::new(Relay::new(SimDuration::from_millis(1)))
        });
        let a = g.add_op("A", OpKind::Compute, || {
            Box::new(Relay::new(SimDuration::from_millis(1)))
        });
        let k = g.add_op("K", OpKind::Sink, || {
            Box::new(Relay::new(SimDuration::from_millis(1)))
        });
        g.connect(s, a);
        g.connect(a, k);
        g
    }

    #[test]
    fn duplication_doubles_and_validates() {
        let g = base_graph();
        let (g2, flow_of) = duplicate_graph(&g);
        assert_eq!(g2.op_count(), 6);
        assert_eq!(g2.edge_count(), 4);
        assert!(g2.validate().is_ok());
        assert_eq!(flow_of, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(g2.sources().len(), 2);
        assert_eq!(g2.sinks().len(), 2);
    }

    #[test]
    fn flows_are_disjoint() {
        let g = base_graph();
        let (g2, _) = duplicate_graph(&g);
        // No edge crosses flows.
        for e in 0..g2.edge_count() {
            let edge = g2.edge(dsps::graph::EdgeId(e as u32));
            let f = |op: OpId| if op.index() < 3 { 0 } else { 1 };
            assert_eq!(f(edge.from), f(edge.to));
        }
    }

    #[test]
    fn twin_mapping_round_trips() {
        assert_eq!(twin_of(OpId(1), 3), OpId(4));
        assert_eq!(twin_of(OpId(4), 3), OpId(1));
    }

    #[test]
    fn scheme_squelches_secondary() {
        let flow_of = Arc::new(vec![0u8, 0, 0, 1, 1, 1]);
        let mut s = Rep2Scheme::new(flow_of);
        assert_eq!(s.primary, 0);
        // flow 1 op is squelched until takeover.
        assert_eq!(s.flow_of[5], 1);
        s.primary = 1;
        assert_eq!(s.flow_of[2], 0);
    }
}
