//! Query networks: the DAG of operators a stream application is made of
//! (Fig. 1a of the paper).
//!
//! The graph stores *specifications* — names, kinds, wiring, and a
//! factory per operator. Factories matter for fault tolerance: when the
//! controller replaces a failed phone it "sends the code" to the new
//! phone, which instantiates fresh operators and restores their state
//! from the checkpoint.

use std::fmt;
use std::sync::Arc;

use crate::operator::Operator;

/// Operator id: dense index into the graph's operator table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u32);

impl OpId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Edge id. Real edges are dense indices; each source operator also has
/// a *pseudo-edge* (high bit set) on which its external input arrives,
/// so source input can queue like any other stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

const SOURCE_BIT: u32 = 0x8000_0000;

impl EdgeId {
    /// Raw index (real edges only).
    pub fn index(self) -> usize {
        debug_assert!(!self.is_source(), "source pseudo-edge has no index");
        self.0 as usize
    }

    /// The pseudo-edge feeding external input into source op `op`.
    pub fn source(op: OpId) -> EdgeId {
        EdgeId(SOURCE_BIT | op.0)
    }

    /// True for source pseudo-edges.
    pub fn is_source(self) -> bool {
        self.0 & SOURCE_BIT != 0
    }

    /// The source op a pseudo-edge feeds.
    pub fn source_op(self) -> Option<OpId> {
        self.is_source().then_some(OpId(self.0 & !SOURCE_BIT))
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_source() {
            write!(f, "e[src→op{}]", self.0 & !SOURCE_BIT)
        } else {
            write!(f, "e{}", self.0)
        }
    }
}

/// Role of an operator in the query network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Fetches data from external sensors / upstream regions.
    Source,
    /// Ordinary computation.
    Compute,
    /// Publishes results to users / downstream regions.
    Sink,
}

/// Factory producing a fresh instance of an operator ("the code").
pub type OpFactory = Arc<dyn Fn() -> Box<dyn Operator> + Send + Sync>;

/// One operator specification.
pub struct OpSpec {
    /// Display name (e.g. "C0", "haar-counter").
    pub name: String,
    /// Role.
    pub kind: OpKind,
    factory: OpFactory,
    /// Incoming real edges, in port order.
    pub in_edges: Vec<EdgeId>,
    /// Outgoing real edges, in port order.
    pub out_edges: Vec<EdgeId>,
}

impl OpSpec {
    /// Instantiate the operator.
    pub fn instantiate(&self) -> Box<dyn Operator> {
        (self.factory)()
    }

    /// The input port index of `edge` on this operator.
    pub fn in_port(&self, edge: EdgeId) -> Option<usize> {
        if edge.is_source() {
            return Some(0);
        }
        self.in_edges.iter().position(|&e| e == edge)
    }
}

impl fmt::Debug for OpSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpSpec")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("in", &self.in_edges)
            .field("out", &self.out_edges)
            .finish()
    }
}

/// A directed edge between two operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producer.
    pub from: OpId,
    /// Consumer.
    pub to: OpId,
}

/// The query network.
#[derive(Debug, Default)]
pub struct QueryGraph {
    ops: Vec<OpSpec>,
    edges: Vec<Edge>,
}

impl QueryGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an operator.
    pub fn add_op(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        factory: impl Fn() -> Box<dyn Operator> + Send + Sync + 'static,
    ) -> OpId {
        // simlint::allow(P001): graph construction happens before the sim starts, never on the event path; a >4B-op graph is a programming error
        let id = OpId(u32::try_from(self.ops.len()).expect("too many ops"));
        self.ops.push(OpSpec {
            name: name.into(),
            kind,
            factory: Arc::new(factory),
            in_edges: Vec::new(),
            out_edges: Vec::new(),
        });
        id
    }

    /// Add an operator from an already-boxed factory (graph-rewriting
    /// helpers like rep-2's duplication use this).
    pub fn add_op_boxed(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        factory: Box<dyn Fn() -> Box<dyn Operator> + Send + Sync>,
    ) -> OpId {
        // simlint::allow(P001): graph construction happens before the sim starts, never on the event path; a >4B-op graph is a programming error
        let id = OpId(u32::try_from(self.ops.len()).expect("too many ops"));
        self.ops.push(OpSpec {
            name: name.into(),
            kind,
            factory: Arc::from(factory),
            in_edges: Vec::new(),
            out_edges: Vec::new(),
        });
        id
    }

    /// Share an operator's factory (for graph rewriting).
    pub fn factory_of(&self, op: OpId) -> OpFactory {
        Arc::clone(&self.ops[op.index()].factory)
    }

    /// Connect `from` → `to`; returns the new edge.
    pub fn connect(&mut self, from: OpId, to: OpId) -> EdgeId {
        assert!(from.index() < self.ops.len(), "unknown op {from:?}");
        assert!(to.index() < self.ops.len(), "unknown op {to:?}");
        // simlint::allow(P001): graph construction happens before the sim starts, never on the event path; a >4B-edge graph is a programming error
        let id = EdgeId(u32::try_from(self.edges.len()).expect("too many edges"));
        self.edges.push(Edge { from, to });
        self.ops[from.index()].out_edges.push(id);
        self.ops[to.index()].in_edges.push(id);
        id
    }

    /// Operator count.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Edge count (real edges).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Operator spec by id.
    pub fn op(&self, id: OpId) -> &OpSpec {
        &self.ops[id.index()]
    }

    /// Edge endpoints by id (real edges).
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.index()]
    }

    /// The operator a queue keyed by `edge` feeds (handles pseudo-edges).
    pub fn edge_target(&self, edge: EdgeId) -> OpId {
        match edge.source_op() {
            Some(op) => op,
            None => self.edge(edge).to,
        }
    }

    /// All op ids.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.ops.len()).map(|i| OpId(i as u32))
    }

    /// Ids of source operators.
    pub fn sources(&self) -> Vec<OpId> {
        self.op_ids()
            .filter(|&id| self.op(id).kind == OpKind::Source)
            .collect()
    }

    /// Ids of sink operators.
    pub fn sinks(&self) -> Vec<OpId> {
        self.op_ids()
            .filter(|&id| self.op(id).kind == OpKind::Sink)
            .collect()
    }

    /// Find an op by name (test/report helper).
    pub fn op_by_name(&self, name: &str) -> Option<OpId> {
        self.op_ids().find(|&id| self.op(id).name == name)
    }

    /// Topological order of operators. `Err` if the graph has a cycle.
    pub fn topo_order(&self) -> Result<Vec<OpId>, String> {
        let n = self.ops.len();
        let mut indeg: Vec<usize> = self.ops.iter().map(|o| o.in_edges.len()).collect();
        let mut queue: Vec<OpId> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| OpId(i as u32))
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            order.push(id);
            for &e in &self.ops[id.index()].out_edges {
                let to = self.edge(e).to;
                indeg[to.index()] -= 1;
                if indeg[to.index()] == 0 {
                    queue.push(to);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err("query network contains a cycle".into())
        }
    }

    /// Validate the structural invariants the runtime relies on.
    pub fn validate(&self) -> Result<(), String> {
        if self.ops.is_empty() {
            return Err("empty query network".into());
        }
        self.topo_order()?;
        let mut has_source = false;
        let mut has_sink = false;
        for id in self.op_ids() {
            let op = self.op(id);
            match op.kind {
                OpKind::Source => {
                    has_source = true;
                    if !op.in_edges.is_empty() {
                        return Err(format!("source '{}' has incoming edges", op.name));
                    }
                }
                OpKind::Sink => {
                    has_sink = true;
                    if !op.out_edges.is_empty() {
                        return Err(format!("sink '{}' has outgoing edges", op.name));
                    }
                    if op.in_edges.is_empty() {
                        return Err(format!("sink '{}' is disconnected", op.name));
                    }
                }
                OpKind::Compute => {
                    if op.in_edges.is_empty() || op.out_edges.is_empty() {
                        return Err(format!(
                            "compute op '{}' must have inputs and outputs",
                            op.name
                        ));
                    }
                }
            }
        }
        if !has_source {
            return Err("query network has no source".into());
        }
        if !has_sink {
            return Err("query network has no sink".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Relay;
    use simkernel::SimDuration;

    fn relay() -> Box<dyn Operator> {
        Box::new(Relay::new(SimDuration::from_millis(1)))
    }

    /// Diamond: S → A, S → B, A → J, B → J, J → K.
    fn diamond() -> (QueryGraph, [OpId; 5]) {
        let mut g = QueryGraph::new();
        let s = g.add_op("S", OpKind::Source, relay);
        let a = g.add_op("A", OpKind::Compute, relay);
        let b = g.add_op("B", OpKind::Compute, relay);
        let j = g.add_op("J", OpKind::Compute, relay);
        let k = g.add_op("K", OpKind::Sink, relay);
        g.connect(s, a);
        g.connect(s, b);
        g.connect(a, j);
        g.connect(b, j);
        g.connect(j, k);
        (g, [s, a, b, j, k])
    }

    #[test]
    fn diamond_validates() {
        let (g, _) = diamond();
        assert!(g.validate().is_ok());
        assert_eq!(g.op_count(), 5);
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, [s, a, b, j, k]) = diamond();
        let order = g.topo_order().unwrap();
        let pos = |id: OpId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(s) < pos(a));
        assert!(pos(s) < pos(b));
        assert!(pos(a) < pos(j));
        assert!(pos(b) < pos(j));
        assert!(pos(j) < pos(k));
    }

    #[test]
    fn cycle_detected() {
        let mut g = QueryGraph::new();
        let s = g.add_op("S", OpKind::Source, relay);
        let a = g.add_op("A", OpKind::Compute, relay);
        let b = g.add_op("B", OpKind::Compute, relay);
        let k = g.add_op("K", OpKind::Sink, relay);
        g.connect(s, a);
        g.connect(a, b);
        g.connect(b, a); // cycle
        g.connect(b, k);
        assert!(g.validate().is_err());
    }

    #[test]
    fn source_with_inputs_rejected() {
        let mut g = QueryGraph::new();
        let s1 = g.add_op("S1", OpKind::Source, relay);
        let s2 = g.add_op("S2", OpKind::Source, relay);
        let k = g.add_op("K", OpKind::Sink, relay);
        g.connect(s1, s2); // illegal
        g.connect(s2, k);
        assert!(g.validate().unwrap_err().contains("source"));
    }

    #[test]
    fn sink_with_outputs_rejected() {
        let mut g = QueryGraph::new();
        let s = g.add_op("S", OpKind::Source, relay);
        let k = g.add_op("K", OpKind::Sink, relay);
        let a = g.add_op("A", OpKind::Compute, relay);
        let k2 = g.add_op("K2", OpKind::Sink, relay);
        g.connect(s, k);
        g.connect(k, a); // illegal: sink with an outgoing edge
        g.connect(a, k2);
        assert!(g.validate().unwrap_err().contains("sink"));
    }

    #[test]
    fn ports_and_targets() {
        let (g, [s, _a, _b, j, _k]) = diamond();
        let e0 = g.op(s).out_edges[0];
        assert_eq!(g.op(g.edge(e0).to).in_port(e0), Some(0));
        let j_in = &g.op(j).in_edges;
        assert_eq!(g.op(j).in_port(j_in[1]), Some(1));
        assert_eq!(g.edge_target(e0), g.edge(e0).to);
    }

    #[test]
    fn source_pseudo_edges() {
        let (g, [s, ..]) = diamond();
        let pe = EdgeId::source(s);
        assert!(pe.is_source());
        assert_eq!(pe.source_op(), Some(s));
        assert_eq!(g.edge_target(pe), s);
        assert_eq!(g.op(s).in_port(pe), Some(0));
        // Real edges are not pseudo.
        assert!(!g.op(s).out_edges[0].is_source());
    }

    #[test]
    fn lookup_by_name() {
        let (g, [_, a, ..]) = diamond();
        assert_eq!(g.op_by_name("A"), Some(a));
        assert_eq!(g.op_by_name("Z"), None);
    }

    #[test]
    fn empty_graph_invalid() {
        assert!(QueryGraph::new().validate().is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ops::Relay;
    use proptest::prelude::*;
    use simkernel::SimDuration;

    /// Build a random layered DAG: sources → k compute layers → sink.
    fn random_layered(widths: &[usize], wiring: &[u8]) -> QueryGraph {
        let mut g = QueryGraph::new();
        let relay = || Box::new(Relay::new(SimDuration::from_millis(1))) as Box<dyn Operator>;
        let mut layers: Vec<Vec<OpId>> = Vec::new();
        for (li, &w) in widths.iter().enumerate() {
            let kind = if li == 0 {
                OpKind::Source
            } else if li + 1 == widths.len() {
                OpKind::Sink
            } else {
                OpKind::Compute
            };
            let layer: Vec<OpId> = (0..w.max(1))
                .map(|i| g.add_op(format!("L{li}N{i}"), kind, relay))
                .collect();
            layers.push(layer);
        }
        // Connect consecutive layers; wiring bytes pick fan patterns,
        // guaranteeing at least one in/out edge per interior node.
        let mut wix = 0usize;
        let mut next = || {
            let b = wiring[wix % wiring.len()];
            wix += 1;
            b as usize
        };
        for li in 0..layers.len() - 1 {
            let (a, b) = (layers[li].clone(), layers[li + 1].clone());
            for (i, &from) in a.iter().enumerate() {
                g.connect(from, b[(i + next()) % b.len()]);
            }
            for (j, &to) in b.iter().enumerate() {
                // Ensure every next-layer node has an input.
                if g.op(to).in_edges.is_empty() {
                    g.connect(a[(j + next()) % a.len()], to);
                }
            }
        }
        g
    }

    proptest! {
        /// Random layered DAGs always validate, topo-sort consistently,
        /// and every op's edge lists agree with the edge table.
        #[test]
        fn prop_layered_dags_validate(
            widths in prop::collection::vec(1usize..5, 3..6),
            wiring in prop::collection::vec(any::<u8>(), 4..16),
        ) {
            let g = random_layered(&widths, &wiring);
            prop_assert!(g.validate().is_ok(), "{:?}", g.validate());
            let order = g.topo_order().unwrap();
            prop_assert_eq!(order.len(), g.op_count());
            let pos = |id: OpId| order.iter().position(|&x| x == id).unwrap();
            for e in 0..g.edge_count() {
                let edge = g.edge(EdgeId(e as u32));
                prop_assert!(pos(edge.from) < pos(edge.to));
                let id = EdgeId(e as u32);
                prop_assert!(g.op(edge.from).out_edges.contains(&id));
                prop_assert!(g.op(edge.to).in_edges.contains(&id));
            }
            // Every op instantiates.
            for op in g.op_ids() {
                let _ = g.op(op).instantiate();
            }
        }
    }
}
