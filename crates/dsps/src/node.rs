//! The phone-side node runtime.
//!
//! One [`NodeActor`] per phone. It hosts the operators placed on this
//! phone, keeps a FIFO input queue per in-edge, models the phone's
//! single-core CPU (one tuple in service at a time, cost charged from
//! the operator's cost model), routes outputs to downstream nodes over
//! the region's primary network (phones: WiFi; servers: Ethernet) or
//! cellular in urgent mode, and invokes the plugged-in
//! [`crate::ft::FtScheme`] at every fault-tolerance-relevant point.

use std::any::TypeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use simkernel::{impl_actor_any, Actor, ActorId, Ctx, Event, EventBox, SimDuration, SimTime};
use simnet::stats::TrafficClass;
use simnet::wifi::WifiBatchRx;
use simnet::{net_send, payload, NetRx, TxDone, TxFailed};

use crate::ft::FtScheme;
use crate::graph::{EdgeId, OpId, OpKind, QueryGraph};
use crate::metrics::NodeMetrics;
use crate::operator::{OpState, Operator, Outputs};
use crate::store::{CheckpointStore, Snapshot};
use crate::tuple::{StreamItem, Tuple, TupleValue};

/// A stream item crossing the network between two nodes.
#[derive(Debug, Clone)]
pub struct ItemMsg {
    /// The edge the item travels on.
    pub edge: EdgeId,
    /// The item.
    pub item: StreamItem,
}

/// External input injected at a source operator (from the workload
/// driver or a sensor).
#[derive(Debug, Clone)]
pub struct SourceEmit {
    /// Target source operator (must be hosted here).
    pub op: OpId,
    /// Content.
    pub value: TupleValue,
    /// Wire/storage size.
    pub bytes: u64,
}

/// A result published by an upstream region's sink, arriving at this
/// region's source operator over the link's network.
#[derive(Debug, Clone)]
pub struct InterRegionMsg {
    /// Target source operator in the receiving region.
    pub dst_op: OpId,
    /// Content.
    pub value: TupleValue,
    /// Size.
    pub bytes: u64,
    /// Override for the tuple's enter-the-system timestamp. `None`
    /// (region cascading) restarts the latency clock at arrival —
    /// per-region latency, as reported in Table I. `Some(t)` (the
    /// server baseline's sensor uplink) preserves the capture time so
    /// upload queueing counts toward latency.
    pub entered: Option<SimTime>,
}

/// Internal: the CPU finished the tuple in service.
#[derive(Debug)]
struct ProcDone;

/// Internal: an [`Install`] finished loading.
#[derive(Debug)]
struct InstallReady;

/// Fault injection: the phone crashes (fail-stop).
#[derive(Debug, Clone, Copy)]
pub struct Kill;

/// Fault injection: a previously failed phone reboots (flash intact).
/// The runtime clears its hosting, brings it back alive and registers
/// with the controller as an idle node.
#[derive(Debug, Clone, Copy)]
pub struct Reboot;

/// Internal: a severed controller RPC's backoff window elapsed —
/// re-send the stored payload under the same tag.
#[derive(Debug, Clone, Copy)]
struct CtlRetryFire {
    tag: u64,
}

/// Node → controller: (re-)registration after boot/reboot.
#[derive(Debug, Clone, Copy)]
pub struct RegisterNode {
    /// Region registering.
    pub region: usize,
    /// Slot registering.
    pub slot: u32,
}

/// Controller liveness probe.
#[derive(Debug, Clone, Copy)]
pub struct Ping {
    /// Correlates [`Pong`] replies.
    pub nonce: u64,
}

/// Reply to [`Ping`], sent to the controller over cellular.
#[derive(Debug, Clone, Copy)]
pub struct Pong {
    /// Echoed nonce.
    pub nonce: u64,
    /// Responding node's region.
    pub region: usize,
    /// Responding node's slot.
    pub slot: u32,
}

/// Report to the controller: a reliable send to `slot` failed.
#[derive(Debug, Clone, Copy)]
pub struct ReportDead {
    /// Region of the observation.
    pub region: usize,
    /// The unreachable slot.
    pub slot: u32,
    /// Reporting slot.
    pub observed_by: u32,
}

/// Controller → hosting nodes: take checkpoint `version` now. Under
/// MobiStreams it reaches the source nodes and starts the token wave
/// (§III-B step 1); a baseline node snapshots on its own.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointTick {
    /// Version to record.
    pub version: u64,
}

/// Node → controller: a recovery install or rollback finished; the
/// node is processing again.
#[derive(Debug, Clone, Copy)]
pub struct Recovered {
    /// Region of the recovered node.
    pub region: usize,
    /// Its slot.
    pub slot: u32,
}

/// Wire sizes (bytes) of the control messages both control planes
/// exchange with the nodes over cellular.
pub mod wire {
    /// A small control RPC.
    pub const CONTROL: u64 = 64;
    /// A ping or its pong.
    pub const PING: u64 = 32;
    /// The runtime's [`super::ReportDead`] after a failed tuple send.
    pub const REPORT_DEAD: u64 = 48;
}

/// Where a (re)installed node gets its operator states from.
#[derive(Debug, Clone)]
pub enum InstallStates {
    /// Fresh operators, no state.
    Fresh,
    /// Restore from this node's own [`CheckpointStore`] at `version`.
    FromLocalStore {
        /// Checkpoint version to load.
        version: u64,
    },
    /// Explicit states shipped by the controller / a peer.
    Explicit(Snapshot),
}

impl InstallStates {
    /// Restore from the phone's own store at the most recent complete
    /// checkpoint `version`; version 0 (none yet) installs fresh.
    pub fn from_mrc(version: u64) -> Self {
        if version > 0 {
            InstallStates::FromLocalStore { version }
        } else {
            InstallStates::Fresh
        }
    }
}

/// Controller RPC: (re)install operators on this node — used at system
/// startup, failure recovery and departure replacement.
#[derive(Debug, Clone)]
pub struct Install {
    /// Operators this node must host from now on.
    pub ops: Vec<OpId>,
    /// Initial operator states.
    pub states: InstallStates,
    /// Fresh region-wide op→slot assignment.
    pub op_slot: Vec<u32>,
    /// Modeling of code transfer + state load + WiFi rebuild time:
    /// the node comes alive this long after the Install arrives.
    pub ready_in: SimDuration,
}

/// Controller RPC: update routing tables without reinstalling.
#[derive(Debug, Clone)]
pub struct UpdateRouting {
    /// New op→slot assignment.
    pub op_slot: Vec<u32>,
}

/// Controller RPC: toggle urgent (cellular) routing for edges whose
/// WiFi path broke (paper §III-E, Fig 7 time instant 2).
#[derive(Debug, Clone)]
pub struct SetUrgentEdges {
    /// Affected edges.
    pub edges: Vec<EdgeId>,
    /// Enter (true) or leave (false) urgent mode.
    pub on: bool,
}

/// Controller RPC: replace the inter-region links of this (sink) node.
#[derive(Debug, Clone)]
pub struct UpdateInterRegion {
    /// New link set.
    pub links: Vec<InterRegionLink>,
}

/// An inter-region connection from a hosted sink operator to a source
/// operator of a downstream region.
#[derive(Debug, Clone, Copy)]
pub struct InterRegionLink {
    /// The hosted sink publishing on this link.
    pub src_op: OpId,
    /// Source node (actor) in the downstream region.
    pub dst_actor: ActorId,
    /// Source operator fed there.
    pub dst_op: OpId,
    /// Network carrying the link: cellular between phone regions, the
    /// Ethernet switch between server regions.
    pub net: ActorId,
}

/// Static node parameters.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Region index.
    pub region: usize,
    /// Slot (logical position) within the region.
    pub slot: u32,
    /// Service-time multiplier: 1.0 = reference phone core; a server
    /// core is ~0.1 (faster).
    pub cpu_factor: f64,
    /// Bound on buffered external inputs per source op (drop-oldest).
    pub source_queue_cap: usize,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            region: 0,
            slot: 0,
            cpu_factor: 1.0,
            source_queue_cap: 10,
        }
    }
}

/// Everything about a node except its FT scheme. Schemes receive
/// `&mut NodeInner` and may use any of the public methods/fields.
pub struct NodeInner {
    /// Static parameters.
    pub cfg: NodeConfig,
    /// The region's query network.
    pub graph: Arc<QueryGraph>,
    /// Hosted operator instances.
    pub ops: BTreeMap<OpId, Box<dyn Operator>>,
    /// Region-wide op→slot assignment.
    pub op_slot: Vec<u32>,
    /// Region-wide slot→actor binding, shared by every phone of the
    /// region and set once when the deployment is built (see
    /// [`crate::placement::Placement::slot_actors`]); no message
    /// carries it.
    pub slot_actors: Arc<Vec<ActorId>>,
    /// Per-in-edge FIFO queues (includes source pseudo-edges).
    pub queues: BTreeMap<EdgeId, VecDeque<StreamItem>>,
    /// Edges the scheme paused (token alignment).
    pub paused: BTreeSet<EdgeId>,
    /// Edges currently routed over cellular (urgent mode).
    pub urgent_edges: BTreeSet<EdgeId>,
    /// Inter-region links of hosted sinks.
    pub inter_region: Vec<InterRegionLink>,
    /// CPU busy flag (single core).
    pub busy: bool,
    /// Tuple in service.
    current: Option<(EdgeId, Tuple)>,
    /// Fail-stop flag.
    pub alive: bool,
    /// Network for intra-region edges: the region's WiFi medium, or
    /// the Ethernet switch on the server platform.
    pub primary: ActorId,
    /// Global cellular network.
    pub cell: ActorId,
    /// The controller actor.
    pub controller: ActorId,
    /// Traffic class used for this node's tuple sends (rep-2 labels the
    /// duplicate flow `Replication` so Fig 10b can attribute it).
    pub data_class: TrafficClass,
    /// WiFi congestion signal: while set, fresh bulky sensor inputs are
    /// shed at admission (sensor buffer overflow).
    pub net_congested: bool,
    /// Local durable-ish storage.
    pub store: CheckpointStore,
    /// Probes.
    pub metrics: NodeMetrics,
    next_seq: u64,
    next_tag: u64,
    pending_sends: BTreeMap<u64, (u32, EdgeId)>,
    /// Controller RPCs tracked for partition retry: tag → stored send.
    ctl_retries: BTreeMap<u64, CtlRetry>,
    rr: usize,
    /// [`NodeActor::pump`]'s edge snapshot, kept for its capacity.
    pump_edges: Vec<EdgeId>,
    /// Pending install to finish (states deferred until ready).
    pending_install: Option<Install>,
}

/// A controller RPC kept around so a [`simnet::TxSevered`] completion
/// can re-send it after a capped-exponential backoff window instead of
/// silently losing it behind a partition.
struct CtlRetry {
    bytes: u64,
    payload: simnet::Payload,
    attempt: u32,
}

/// First retry window after a severed controller RPC.
const CTL_RETRY_BASE: SimDuration = SimDuration::from_secs(1);
/// Backoff cap: retries never wait longer than this between attempts.
const CTL_RETRY_CAP: SimDuration = SimDuration::from_secs(32);

impl NodeInner {
    /// Create a node shell; call [`NodeInner::host_op`] (or send
    /// [`Install`]) before running.
    pub fn new(
        cfg: NodeConfig,
        graph: Arc<QueryGraph>,
        primary: ActorId,
        cell: ActorId,
        controller: ActorId,
    ) -> Self {
        let op_count = graph.op_count();
        NodeInner {
            cfg,
            graph,
            ops: BTreeMap::new(),
            op_slot: vec![u32::MAX; op_count],
            slot_actors: Arc::default(),
            queues: BTreeMap::new(),
            paused: BTreeSet::new(),
            urgent_edges: BTreeSet::new(),
            inter_region: Vec::new(),
            busy: false,
            current: None,
            alive: true,
            primary,
            cell,
            controller,
            data_class: TrafficClass::Data,
            net_congested: false,
            store: CheckpointStore::new(),
            metrics: NodeMetrics::default(),
            next_seq: 0,
            next_tag: 1,
            pending_sends: BTreeMap::new(),
            ctl_retries: BTreeMap::new(),
            rr: 0,
            pump_edges: Vec::new(),
            pending_install: None,
        }
    }

    /// Instantiate and host `op`, creating its input queues.
    pub fn host_op(&mut self, op: OpId) {
        let spec = self.graph.op(op);
        let inst = spec.instantiate();
        for &e in &spec.in_edges {
            self.queues.entry(e).or_default();
        }
        if spec.kind == OpKind::Source {
            self.queues.entry(EdgeId::source(op)).or_default();
        }
        self.ops.insert(op, inst);
    }

    /// Stop hosting `op` (drops its instance; queues are dropped too).
    pub fn unhost_op(&mut self, op: OpId) {
        let in_edges = self.graph.op(op).in_edges.clone();
        self.ops.remove(&op);
        for e in in_edges {
            self.queues.remove(&e);
        }
        self.queues.remove(&EdgeId::source(op));
    }

    /// Is `op` hosted here?
    pub fn hosts(&self, op: OpId) -> bool {
        self.ops.contains_key(&op)
    }

    /// Hosted source operators.
    pub fn hosted_sources(&self) -> Vec<OpId> {
        self.ops
            .keys()
            .copied()
            .filter(|&o| self.graph.op(o).kind == OpKind::Source)
            .collect()
    }

    /// In-edges of hosted ops whose producer lives on another slot —
    /// the edges that carry tokens.
    pub fn remote_in_edges(&self) -> Vec<EdgeId> {
        let mut v = Vec::new();
        for &op in self.ops.keys() {
            for &e in &self.graph.op(op).in_edges {
                let from = self.graph.edge(e).from;
                if self.op_slot[from.index()] != self.cfg.slot {
                    v.push(e);
                }
            }
        }
        v
    }

    /// Out-edges of hosted ops whose consumer lives on another slot.
    pub fn remote_out_edges(&self) -> Vec<EdgeId> {
        let mut v = Vec::new();
        for &op in self.ops.keys() {
            for &e in &self.graph.op(op).out_edges {
                let to = self.graph.edge(e).to;
                if self.op_slot[to.index()] != self.cfg.slot {
                    v.push(e);
                }
            }
        }
        v
    }

    /// Snapshot every hosted operator that exposes a state, in
    /// operator order (the node checkpoint of §III-B).
    pub fn snapshot(&mut self) -> Snapshot {
        self.ops
            .iter_mut()
            .filter_map(|(&op, inst)| {
                let bytes = inst.state_bytes();
                inst.state().map(|st| (op, st.snapshot(), bytes))
            })
            .collect()
    }

    /// Restore the hosted operators from `snap`; states of operators
    /// not hosted here are skipped.
    pub fn restore(&mut self, snap: &[(OpId, OpState, u64)]) {
        for (op, st, _) in snap {
            if let Some(cell) = self.ops.get_mut(op).and_then(|inst| inst.state()) {
                cell.restore(st);
            }
        }
    }

    /// Allocate a completion tag unique within this node.
    pub fn alloc_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    /// Allocate a tuple id: `(slot << 40) | seq`.
    pub fn alloc_tuple_id(&mut self) -> u64 {
        let id = ((self.cfg.slot as u64) << 40) | self.next_seq;
        self.next_seq += 1;
        id
    }

    /// Enqueue an item on an in-edge queue (no scheme hook — caller's
    /// responsibility).
    pub fn push_item(&mut self, edge: EdgeId, item: StreamItem) {
        self.queues.entry(edge).or_default().push_back(item);
    }

    /// Enqueue an external input at a source op, honoring the cap
    /// (drop-oldest). Replay pushes bypass the cap.
    pub fn push_source_input(&mut self, op: OpId, tuple: Tuple) {
        let cap = self.cfg.source_queue_cap;
        let q = self.queues.entry(EdgeId::source(op)).or_default();
        q.push_back(StreamItem::Tuple(tuple));
        if q.len() > cap {
            q.pop_front();
            self.metrics.source_drops += 1;
        }
    }

    /// Enqueue a replayed source tuple (bypasses the cap).
    pub fn push_source_replay(&mut self, op: OpId, mut tuple: Tuple) {
        tuple.replay = true;
        self.queues
            .entry(EdgeId::source(op))
            .or_default()
            .push_back(StreamItem::Tuple(tuple));
    }

    /// Send a small control message to the controller over cellular.
    pub fn send_controller(&mut self, ctx: &mut Ctx, bytes: u64, ev: impl Event) {
        let (cell, dst, class) = (self.cell, self.controller, TrafficClass::Control);
        net_send(ctx, cell, dst, class, bytes, 0, payload(ev));
    }

    /// Send a controller RPC that must survive network weather: the
    /// send is tagged and kept; a [`simnet::TxSevered`] completion
    /// re-sends it with capped exponential backoff until the partition
    /// heals (`TxDone`) or the controller is actually gone (`TxFailed`).
    pub fn send_controller_tracked(&mut self, ctx: &mut Ctx, bytes: u64, ev: impl Event) {
        let dst = self.controller;
        let tag = self.alloc_tag();
        let pl = payload(ev);
        self.ctl_retries.insert(
            tag,
            CtlRetry {
                bytes,
                payload: pl.clone(),
                attempt: 0,
            },
        );
        net_send(ctx, self.cell, dst, TrafficClass::Control, bytes, tag, pl);
    }

    /// A tracked controller RPC completed (delivered, or the controller
    /// itself failed — retrying cannot help either way). Returns whether
    /// the tag was one of ours.
    fn ctl_retry_complete(&mut self, tag: u64) -> bool {
        self.ctl_retries.remove(&tag).is_some()
    }

    /// A tracked controller RPC was severed by a partition: schedule a
    /// re-send after the current backoff window. Returns whether the
    /// tag was one of ours.
    fn ctl_retry_severed(&mut self, tag: u64, ctx: &mut Ctx) -> bool {
        let Some(r) = self.ctl_retries.get_mut(&tag) else {
            return false;
        };
        r.attempt = r.attempt.saturating_add(1);
        let shift = (r.attempt - 1).min(6);
        let delay = CTL_RETRY_BASE
            .saturating_mul(1u64 << shift)
            .min(CTL_RETRY_CAP);
        let me = ctx.self_id();
        ctx.send_in(delay, me, CtlRetryFire { tag });
        true
    }

    /// Backoff elapsed: re-send the stored RPC under its original tag
    /// (dead phones and cancelled entries fall through silently).
    fn ctl_retry_fire(&mut self, tag: u64, ctx: &mut Ctx) {
        if !self.alive {
            self.ctl_retries.remove(&tag);
            return;
        }
        let Some((bytes, pl)) = self
            .ctl_retries
            .get(&tag)
            .map(|r| (r.bytes, r.payload.clone()))
        else {
            return;
        };
        let dst = self.controller;
        net_send(ctx, self.cell, dst, TrafficClass::Control, bytes, tag, pl);
    }

    /// Route one item along `edge`: local fast path, cellular for an
    /// urgent edge, the primary network otherwise. Remote tuple sends
    /// are tracked so a `TxFailed` triggers a [`ReportDead`] to the
    /// controller.
    pub fn route_item(&mut self, ctx: &mut Ctx, edge: EdgeId, item: StreamItem) {
        let dst_op = self.graph.edge_target(edge);
        let dst_slot = self.op_slot[dst_op.index()];
        if dst_slot == u32::MAX {
            // The destination op is unassigned — a routing update raced
            // a recovery/stop. Drop the item (replay covers it) rather
            // than kill the phone.
            self.metrics.routing_drops += 1;
            return;
        }
        if dst_slot == self.cfg.slot {
            self.push_item(edge, item);
            return;
        }
        let Some(&dst_actor) = self.slot_actors.get(dst_slot as usize) else {
            // A slot outside the region (a malformed routing update): drop.
            self.metrics.routing_drops += 1;
            return;
        };
        let bytes = item.bytes();
        let tag = self.alloc_tag();
        self.pending_sends.insert(tag, (dst_slot, edge));
        let msg = ItemMsg { edge, item };
        let net = if self.urgent_edges.contains(&edge) {
            self.cell
        } else {
            self.primary
        };
        let class = self.data_class;
        net_send(ctx, net, dst_actor, class, bytes, tag, payload(msg));
    }

    /// Is the completion tag one of the runtime's tracked tuple sends?
    fn take_pending(&mut self, tag: u64) -> Option<(u32, EdgeId)> {
        self.pending_sends.remove(&tag)
    }

    /// Drop hosted operators that the (new) assignment maps elsewhere —
    /// routing updates are authoritative, so a node never keeps serving
    /// an operator that moved away.
    pub fn unhost_stale(&mut self) {
        let stale: Vec<OpId> = self
            .ops
            .keys()
            .copied()
            .filter(|op| self.op_slot[op.index()] != self.cfg.slot)
            .collect();
        for op in stale {
            self.unhost_op(op);
        }
    }

    /// Abort the tuple in service (rollback): the pending completion
    /// event becomes a no-op.
    pub fn abort_current(&mut self) {
        self.busy = false;
        self.current = None;
    }

    /// Clear all input queues and pauses (rollback / reboot).
    pub fn clear_queues(&mut self) {
        for q in self.queues.values_mut() {
            q.clear();
        }
        self.paused.clear();
    }
}

/// The phone actor: [`NodeInner`] + a fault-tolerance scheme.
pub struct NodeActor {
    /// Runtime state (schemes receive `&mut` to this).
    pub inner: NodeInner,
    /// The plugged-in scheme.
    pub scheme: Box<dyn FtScheme>,
}

impl NodeActor {
    /// Assemble a node.
    pub fn new(inner: NodeInner, scheme: Box<dyn FtScheme>) -> Self {
        NodeActor { inner, scheme }
    }

    /// Start the CPU on the next available item, if idle. Consumes any
    /// markers that reach queue fronts (markers cost no CPU).
    fn pump(&mut self, ctx: &mut Ctx) {
        if !self.inner.alive || self.inner.busy {
            return;
        }
        // The snapshot buffer leaves `inner` while the scheme may
        // borrow it, and goes back with its capacity.
        let mut edges = std::mem::take(&mut self.inner.pump_edges);
        self.pump_with(&mut edges, ctx);
        self.inner.pump_edges = edges;
    }

    fn pump_with(&mut self, edges: &mut Vec<EdgeId>, ctx: &mut Ctx) {
        let inner = &mut self.inner;
        loop {
            // Snapshot candidate edges in deterministic order.
            edges.clear();
            edges.extend(inner.queues.keys().copied());
            if edges.is_empty() {
                return;
            }
            let n = edges.len();
            let mut picked = None;
            let mut marker_handled = false;
            for off in 0..n {
                let e = edges[(inner.rr + off) % n];
                if inner.paused.contains(&e) {
                    continue;
                }
                let Some(q) = inner.queues.get_mut(&e) else {
                    continue;
                };
                // Pop-and-match instead of peek-then-pop: both arms
                // consume the front item, so popping first needs no
                // unreachable!() fallback for the re-matched front.
                match q.pop_front() {
                    None => continue,
                    Some(StreamItem::Marker(m)) => {
                        self.scheme.on_marker(m, e, inner, ctx);
                        marker_handled = true;
                        break; // rescan: pause set may have changed
                    }
                    Some(StreamItem::Tuple(t)) => {
                        inner.rr = (inner.rr + off + 1) % n;
                        picked = Some((e, t));
                        break;
                    }
                }
            }
            if let Some((edge, tuple)) = picked {
                let op = inner.graph.edge_target(edge);
                let Some(inst) = inner.ops.get(&op) else {
                    // Stale item for an op that moved away during a
                    // reconfiguration; recovery replay covers it.
                    let _ = tuple;
                    continue;
                };
                let cost = inst.cost(&tuple) * inner.cfg.cpu_factor;
                inner.busy = true;
                inner.current = Some((edge, tuple));
                inner.metrics.cpu_busy += cost;
                let me = ctx.self_id();
                ctx.send_in(cost, me, ProcDone);
                return;
            }
            if !marker_handled {
                return; // nothing runnable
            }
        }
    }

    /// Finish the tuple in service: run the operator, publish/route.
    fn complete_processing(&mut self, ctx: &mut Ctx) {
        let inner = &mut self.inner;
        if !inner.alive {
            inner.busy = false;
            inner.current = None;
            return;
        }
        let Some((edge, tuple)) = inner.current.take() else {
            // Stale ProcDone from before a kill/reinstall.
            inner.busy = false;
            return;
        };
        inner.busy = false;
        let op = inner.graph.edge_target(edge);
        if !inner.hosts(op) {
            // Reinstalled while processing; drop silently.
            self.pump(ctx);
            return;
        }
        let graph = Arc::clone(&inner.graph);
        let spec = graph.op(op);
        let port = spec.in_port(edge).unwrap_or(0);
        let mut outs = Outputs::default();
        {
            let Some(inst) = inner.ops.get_mut(&op) else {
                // Un-hosted between the check above and here (cannot
                // happen today, but a 1000-phone run must not die on
                // it if reconfiguration logic ever changes).
                self.pump(ctx);
                return;
            };
            inst.process(&tuple, port, &mut outs, ctx.rng());
        }
        inner.metrics.processed += 1;

        if spec.kind == OpKind::Sink {
            let publish = self.scheme.allow_sink_publish(&tuple, op, inner, ctx);
            if publish {
                let now = ctx.now();
                inner.metrics.record_sink(now, now.since(tuple.entered));
                let links: Vec<InterRegionLink> = inner
                    .inter_region
                    .iter()
                    .copied()
                    .filter(|l| l.src_op == op)
                    .collect();
                for link in links {
                    let msg = InterRegionMsg {
                        dst_op: link.dst_op,
                        value: tuple.value.clone(),
                        bytes: tuple.bytes,
                        entered: None,
                    };
                    let (dst, bytes, class) = (link.dst_actor, tuple.bytes, inner.data_class);
                    net_send(ctx, link.net, dst, class, bytes, 0, payload(msg));
                }
            } else {
                inner.metrics.catchup_discards += 1;
            }
        } else {
            let out_edges = spec.out_edges.clone();
            for (port, value, bytes) in outs.drain() {
                let Some(&out_edge) = out_edges.get(port) else {
                    // Operator emitted on a port the graph never wired:
                    // an operator bug, but one bad tuple must not kill
                    // the phone — drop the output and count it.
                    inner.metrics.routing_drops += 1;
                    continue;
                };
                let out_tuple = Tuple {
                    id: inner.alloc_tuple_id(),
                    entered: tuple.entered,
                    bytes,
                    value,
                    replay: tuple.replay,
                };
                if self.scheme.on_emit(&out_tuple, out_edge, inner, ctx) {
                    inner.route_item(ctx, out_edge, StreamItem::Tuple(out_tuple));
                }
            }
        }
        self.pump(ctx);
    }

    /// Handle an arriving stream item (remote delivery).
    fn handle_item(&mut self, msg: ItemMsg, ctx: &mut Ctx) {
        if !self.inner.alive {
            return;
        }
        if !self.inner.hosts(self.inner.graph.edge_target(msg.edge)) {
            // In-flight delivery raced a reconfiguration; drop it.
            return;
        }
        self.inner.push_item(msg.edge, msg.item);
        self.pump(ctx);
    }

    /// Handle a fresh external input at a source op. `entered`
    /// overrides the capture timestamp (`None` = now).
    fn handle_source_input(
        &mut self,
        op: OpId,
        value: TupleValue,
        bytes: u64,
        entered: Option<SimTime>,
        ctx: &mut Ctx,
    ) {
        let inner = &mut self.inner;
        if !inner.alive {
            return;
        }
        if !inner.hosts(op) {
            // Sensor feed for a source op that moved away; drop.
            return;
        }
        // Admission control: shed bulky frames while the region's
        // channel is congested (the camera's buffer overflows before
        // mid-pipeline tuples are lost).
        if inner.net_congested && bytes >= 4096 {
            inner.metrics.source_drops += 1;
            return;
        }
        let tuple = Tuple {
            id: inner.alloc_tuple_id(),
            entered: entered.unwrap_or_else(|| ctx.now()),
            bytes,
            value,
            replay: false,
        };
        inner.metrics.source_inputs += 1;
        self.scheme.on_source_input(&tuple, op, inner, ctx);
        inner.push_source_input(op, tuple);
        self.pump(ctx);
    }

    fn update_routing(&mut self, u: UpdateRouting, ctx: &mut Ctx) {
        self.inner.op_slot = u.op_slot;
        self.inner.unhost_stale();
        self.pump(ctx);
    }

    fn set_urgent_edges(&mut self, u: &SetUrgentEdges) {
        for e in &u.edges {
            if u.on {
                self.inner.urgent_edges.insert(*e);
            } else {
                self.inner.urgent_edges.remove(e);
            }
        }
    }

    fn apply_install(&mut self, ins: Install, ctx: &mut Ctx) {
        let inner = &mut self.inner;
        if !inner.alive && inner.pending_install.is_none() {
            // A crashed phone (not one loading an earlier install) does
            // not come back because an install was already in flight.
            return;
        }
        // Tear down current hosting.
        let hosted: Vec<OpId> = inner.ops.keys().copied().collect();
        for op in hosted {
            inner.unhost_op(op);
        }
        inner.queues.clear();
        inner.paused.clear();
        inner.busy = false;
        inner.current = None;
        inner.op_slot = ins.op_slot.clone();
        for &op in &ins.ops {
            inner.host_op(op);
        }
        match &ins.states {
            InstallStates::Fresh => {}
            InstallStates::FromLocalStore { version } => {
                let snap = inner.store.snapshot(*version);
                inner.restore(&snap);
            }
            InstallStates::Explicit(snap) => inner.restore(snap),
        }
        inner.alive = false; // comes alive at InstallReady
        let ready_in = ins.ready_in;
        let me = ctx.self_id();
        ctx.send_in(ready_in, me, InstallReady);
        inner.pending_install = Some(ins);
    }

    /// A transmit completion. The tag is read through the box: the
    /// runtime settles its own sends (dropping the box before it sends
    /// anything, as a consuming match would), and a completion for any
    /// other tag goes to the scheme in the box it arrived in.
    fn on_tx_completion(&mut self, ev: EventBox, ctx: &mut Ctx) {
        /// What is left to do once the box is gone.
        enum Ours {
            Settled,
            ReportDead(u32),
            Retry(u64),
        }
        let inner = &mut self.inner;
        let ours = if let Some(d) = ev.downcast_ref::<TxDone>() {
            (inner.take_pending(d.tag).is_some() || inner.ctl_retry_complete(d.tag))
                .then_some(Ours::Settled)
        } else if let Some(f) = ev.downcast_ref::<TxFailed>() {
            match inner.take_pending(f.tag) {
                Some((slot, _edge)) => Some(Ours::ReportDead(slot)),
                None => inner.ctl_retry_complete(f.tag).then_some(Ours::Settled),
            }
        } else if let Some(d) = ev.downcast_ref::<simnet::TxDropped>() {
            // Congestion loss, not death: the tuple is gone (replay
            // covers it) but the peer is alive — no dead report.
            inner.take_pending(d.tag).map(|_| {
                inner.metrics.tx_queue_drops += 1;
                Ours::Settled
            })
        } else if let Some(s) = ev.downcast_ref::<simnet::TxSevered>() {
            // Partition loss: the path is cut, not the peer. Treat a
            // tracked tuple like congestion (replay covers it);
            // anything else is a scheme RPC that may want to retry
            // with backoff.
            if inner.take_pending(s.tag).is_some() {
                inner.metrics.tx_severed += 1;
                Some(Ours::Settled)
            } else {
                inner
                    .ctl_retries
                    .contains_key(&s.tag)
                    .then_some(Ours::Retry(s.tag))
            }
        } else {
            None
        };
        match ours {
            None => {
                self.scheme.on_custom(ev, inner, ctx);
            }
            Some(then) => {
                drop(ev);
                match then {
                    Ours::Settled => {}
                    Ours::ReportDead(slot) => {
                        let report = ReportDead {
                            region: inner.cfg.region,
                            slot,
                            observed_by: inner.cfg.slot,
                        };
                        inner.send_controller(ctx, wire::REPORT_DEAD, report);
                    }
                    Ours::Retry(tag) => {
                        inner.ctl_retry_severed(tag, ctx);
                    }
                }
            }
        }
        self.pump(ctx);
    }
}

impl Actor for NodeActor {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        // Network deliveries: look at the payload by reference. What
        // the runtime handles is cloned out and the box dropped first
        // (its pooled slot is free again before the handler sends);
        // anything else — and every batch reception — goes to the
        // scheme in the box it arrived in.
        let ty = ev.event_type();
        let payload = ev.downcast_ref::<NetRx>().map(|rx| &rx.payload);
        if let Some(p) = payload {
            if let Some(msg) = simnet::payload_as::<ItemMsg>(p) {
                let msg = msg.clone();
                drop(ev);
                self.handle_item(msg, ctx);
                return;
            }
            if let Some(ins) = simnet::payload_as::<Install>(p) {
                let ins = ins.clone();
                drop(ev);
                self.apply_install(ins, ctx);
                return;
            }
            if let Some(msg) = simnet::payload_as::<InterRegionMsg>(p) {
                let m = msg.clone();
                drop(ev);
                self.handle_source_input(m.dst_op, m.value, m.bytes, m.entered, ctx);
                return;
            }
            if let Some(ping) = simnet::payload_as::<Ping>(p) {
                let nonce = ping.nonce;
                drop(ev);
                if self.inner.alive {
                    let pong = Pong {
                        nonce,
                        region: self.inner.cfg.region,
                        slot: self.inner.cfg.slot,
                    };
                    self.inner.send_controller(ctx, wire::PING, pong);
                }
                return;
            }
            if let Some(u) = simnet::payload_as::<UpdateRouting>(p) {
                let u = u.clone();
                drop(ev);
                self.update_routing(u, ctx);
                return;
            }
            if let Some(u) = simnet::payload_as::<SetUrgentEdges>(p) {
                self.set_urgent_edges(u);
                return;
            }
            if let Some(u) = simnet::payload_as::<UpdateInterRegion>(p) {
                self.inner.inter_region = u.links.clone();
                return;
            }
        }
        if payload.is_some() || ty == TypeId::of::<WifiBatchRx>() {
            self.scheme.on_custom(ev, &mut self.inner, ctx);
            self.pump(ctx);
            return;
        }
        if [
            TypeId::of::<TxDone>(),
            TypeId::of::<TxFailed>(),
            TypeId::of::<simnet::TxDropped>(),
            TypeId::of::<simnet::TxSevered>(),
        ]
        .contains(&ty)
        {
            self.on_tx_completion(ev, ctx);
            return;
        }

        simkernel::match_event!(ev,
            _p: ProcDone => {
                self.complete_processing(ctx);
            },
            s: SourceEmit => {
                self.handle_source_input(s.op, s.value, s.bytes, None, ctx);
            },
            _k: Kill => {
                self.inner.alive = false;
                self.inner.busy = false;
                self.inner.current = None;
                self.inner.ctl_retries.clear();
                // A crash loses the install being loaded: its
                // `InstallReady` must not bring the phone back.
                self.inner.pending_install = None;
            },
            _r: Reboot => {
                let inner = &mut self.inner;
                inner.alive = true;
                let hosted: Vec<OpId> = inner.ops.keys().copied().collect();
                for op in hosted {
                    inner.unhost_op(op);
                }
                inner.clear_queues();
                inner.abort_current();
                inner.ctl_retries.clear();
                let reg = RegisterNode {
                    region: inner.cfg.region,
                    slot: inner.cfg.slot,
                };
                inner.send_controller_tracked(ctx, wire::CONTROL, reg);
            },
            _r: InstallReady => {
                if self.inner.pending_install.take().is_some() {
                    self.inner.alive = true;
                    self.scheme.on_install(&mut self.inner, ctx);
                    self.pump(ctx);
                }
            },
            c: simnet::wifi::WifiCongestion => {
                self.inner.net_congested = c.on;
            },
            r: CtlRetryFire => {
                self.inner.ctl_retry_fire(r.tag, ctx);
                self.pump(ctx);
            },
            @else other => {
                self.scheme.on_custom(other, &mut self.inner, ctx);
                self.pump(ctx);
            }
        );
    }

    fn name(&self) -> String {
        format!(
            "node r{} s{} [{}]",
            self.inner.cfg.region,
            self.inner.cfg.slot,
            self.scheme.name()
        )
    }

    impl_actor_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft::NullScheme;
    use crate::graph::OpKind;
    use crate::ops::{Counter, Relay};
    use crate::tuple::value;
    use simkernel::Sim;
    use simnet::cellular::{CellConfig, CellularNet};
    use simnet::wifi::{WifiConfig, WifiMedium};
    use simnet::{NetSend, TxDropped, TxSevered};

    /// Records control messages arriving at "the controller".
    #[derive(Default)]
    struct ControllerStub {
        dead_reports: Vec<(usize, u32, u32)>,
        pongs: Vec<u64>,
    }

    impl Actor for ControllerStub {
        fn on_event(&mut self, ev: EventBox, _ctx: &mut Ctx) {
            if let Ok(rx) = ev.downcast::<NetRx>() {
                if let Some(r) = simnet::payload_as::<ReportDead>(&rx.payload) {
                    self.dead_reports.push((r.region, r.slot, r.observed_by));
                } else if let Some(p) = simnet::payload_as::<Pong>(&rx.payload) {
                    self.pongs.push(p.nonce);
                }
            }
        }
        impl_actor_any!();
    }

    struct Rig {
        sim: Sim,
        nodes: Vec<ActorId>,
        wifi: ActorId,
        cell: ActorId,
        controller: ActorId,
        graph: Arc<QueryGraph>,
    }

    /// Chain S → A → K on three nodes (slots 0,1,2) plus one idle slot.
    fn chain_rig(loss: f64) -> Rig {
        let mut g = QueryGraph::new();
        let s = g.add_op("S", OpKind::Source, || {
            Box::new(Relay::new(SimDuration::from_millis(1)))
        });
        let a = g.add_op("A", OpKind::Compute, || {
            Box::new(Counter::new(SimDuration::from_millis(100), 1))
        });
        let k = g.add_op("K", OpKind::Sink, || {
            Box::new(Relay::new(SimDuration::from_millis(1)))
        });
        g.connect(s, a);
        g.connect(a, k);
        g.validate().unwrap();
        let graph = Arc::new(g);

        let mut sim = Sim::new(11);
        let controller = sim.add_actor(Box::<ControllerStub>::default());

        // Placeholder ids resolved after networks are added.
        let wifi_med = WifiMedium::new(WifiConfig {
            rate_bps: 2_500_000.0,
            loss,
            ..WifiConfig::default()
        });
        let mut cell_net = CellularNet::new(CellConfig::default());
        cell_net.register_with_rates(controller, 1e9, 1e9);

        // Create node actors first (they need wifi/cell ids — add nets
        // first by reserving: easiest is nets first).
        let wifi = sim.add_actor(Box::new(WifiMedium::new(WifiConfig::default())));
        let cell = sim.add_actor(Box::new(CellularNet::new(CellConfig::default())));
        let _ = (&wifi_med, &cell_net);

        let slots = 4u32;
        let mut nodes = Vec::new();
        for slot in 0..slots {
            let cfg = NodeConfig {
                region: 0,
                slot,
                cpu_factor: 1.0,
                source_queue_cap: 10,
            };
            let inner = NodeInner::new(cfg, Arc::clone(&graph), wifi, cell, controller);
            let id = sim.add_actor(Box::new(NodeActor::new(inner, Box::new(NullScheme))));
            nodes.push(id);
        }

        // Rebuild networks with real members (replace the actors' state).
        {
            let med = sim.actor_mut::<WifiMedium>(wifi);
            *med = {
                let mut m = WifiMedium::new(WifiConfig {
                    rate_bps: 2_500_000.0,
                    loss,
                    ..WifiConfig::default()
                });
                for &n in &nodes {
                    m.add_member(n);
                }
                m
            };
        }
        {
            let net = sim.actor_mut::<CellularNet>(cell);
            let mut n = CellularNet::new(CellConfig::default());
            n.register_with_rates(controller, 1e9, 1e9);
            for &nd in &nodes {
                n.register(nd);
            }
            *net = n;
        }

        // Wire placement: S→0, A→1, K→2; slot 3 idle.
        let op_slot = vec![0u32, 1, 2];
        let table = Arc::new(nodes.clone());
        for (slot, &nid) in nodes.iter().enumerate() {
            let na = sim.actor_mut::<NodeActor>(nid);
            na.inner.op_slot = op_slot.clone();
            na.inner.slot_actors = Arc::clone(&table);
            match slot {
                0 => na.inner.host_op(OpId(0)),
                1 => na.inner.host_op(OpId(1)),
                2 => na.inner.host_op(OpId(2)),
                _ => {}
            }
        }

        Rig {
            sim,
            nodes,
            wifi,
            cell,
            controller,
            graph,
        }
    }

    /// Hand `msg` to `slot` at `at` as a cellular delivery from the
    /// controller — the path every controller RPC takes.
    fn deliver_ctl<T: Event>(rig: &mut Rig, slot: usize, at: SimTime, msg: T) {
        let rx = NetRx {
            src: rig.controller,
            bytes: 64,
            class: TrafficClass::Control,
            payload: payload(msg),
        };
        rig.sim.schedule_at(at, rig.nodes[slot], rx);
    }

    fn feed(rig: &mut Rig, count: usize, every_ms: u64, bytes: u64) {
        for i in 0..count {
            rig.sim.schedule_at(
                SimTime::from_millis(every_ms * i as u64),
                rig.nodes[0],
                SourceEmit {
                    op: OpId(0),
                    value: value(i as u64),
                    bytes,
                },
            );
        }
    }

    #[test]
    fn pipeline_delivers_to_sink_with_latency() {
        let mut rig = chain_rig(0.0);
        feed(&mut rig, 5, 500, 10_000);
        rig.sim.run();
        let sinknode = rig.sim.actor::<NodeActor>(rig.nodes[2]);
        let m = &sinknode.inner.metrics;
        assert_eq!(m.sink_samples.len(), 5, "all tuples reach the sink");
        for s in &m.sink_samples {
            // 1 ms source + ~32+ ms wifi hop + 100 ms count + hop + 1 ms sink
            assert!(s.latency >= SimDuration::from_millis(100));
            assert!(s.latency < SimDuration::from_secs(2));
        }
        // Intermediate node processed every tuple.
        let mid = rig.sim.actor::<NodeActor>(rig.nodes[1]);
        assert_eq!(mid.inner.metrics.processed, 5);
    }

    #[test]
    fn lossy_wifi_still_delivers_reliable_tuples() {
        let mut rig = chain_rig(0.2);
        feed(&mut rig, 10, 500, 5_000);
        rig.sim.run();
        let sinknode = rig.sim.actor::<NodeActor>(rig.nodes[2]);
        assert_eq!(sinknode.inner.metrics.sink_samples.len(), 10);
    }

    #[test]
    fn source_queue_cap_drops_oldest() {
        let mut rig = chain_rig(0.0);
        // Burst of 30 at t=0 with cap 10.
        for i in 0..30 {
            rig.sim.schedule_at(
                SimTime::ZERO,
                rig.nodes[0],
                SourceEmit {
                    op: OpId(0),
                    value: value(i as u64),
                    bytes: 100,
                },
            );
        }
        rig.sim.run();
        let src = rig.sim.actor::<NodeActor>(rig.nodes[0]);
        // First tuple enters service immediately; of the remaining 29
        // queued, only 10 fit.
        assert!(
            src.inner.metrics.source_drops >= 19,
            "drops = {}",
            src.inner.metrics.source_drops
        );
        let sink = rig.sim.actor::<NodeActor>(rig.nodes[2]);
        assert!(sink.inner.metrics.sink_samples.len() <= 11);
    }

    #[test]
    fn killed_downstream_triggers_dead_report() {
        let mut rig = chain_rig(0.0);
        rig.sim.schedule_at(SimTime::ZERO, rig.nodes[1], Kill);
        {
            let wifi = rig.wifi;
            let dead = rig.nodes[1];
            rig.sim
                .actor_mut::<WifiMedium>(wifi)
                .set_link_state(dead, simnet::LinkState::Dead);
        }
        feed(&mut rig, 1, 100, 1000);
        rig.sim.run();
        let ctrl = rig.sim.actor::<ControllerStub>(rig.controller);
        assert_eq!(
            ctrl.dead_reports,
            vec![(0, 1, 0)],
            "source reports slot 1 dead"
        );
        let sink = rig.sim.actor::<NodeActor>(rig.nodes[2]);
        assert!(sink.inner.metrics.sink_samples.is_empty());
    }

    #[test]
    fn ping_pong_roundtrip() {
        let mut rig = chain_rig(0.0);
        let cell = rig.cell;
        let target = rig.nodes[0];
        let controller = rig.controller;
        rig.sim.schedule_at(
            SimTime::ZERO,
            cell,
            NetSend {
                src: controller,
                dst: target,
                class: TrafficClass::Control,
                bytes: 32,
                tag: 0,
                payload: Some(payload(Ping { nonce: 99 })),
            },
        );
        rig.sim.run();
        let ctrl = rig.sim.actor::<ControllerStub>(rig.controller);
        assert_eq!(ctrl.pongs, vec![99]);
    }

    #[test]
    fn dead_node_does_not_pong() {
        let mut rig = chain_rig(0.0);
        rig.sim.schedule_at(SimTime::ZERO, rig.nodes[0], Kill);
        let cell = rig.cell;
        let target = rig.nodes[0];
        let controller = rig.controller;
        rig.sim.schedule_at(
            SimTime::from_millis(1),
            cell,
            NetSend {
                src: controller,
                dst: target,
                class: TrafficClass::Control,
                bytes: 32,
                tag: 0,
                payload: Some(payload(Ping { nonce: 1 })),
            },
        );
        rig.sim.run();
        assert!(rig
            .sim
            .actor::<ControllerStub>(rig.controller)
            .pongs
            .is_empty());
    }

    #[test]
    fn install_restores_counter_state_from_explicit() {
        let mut rig = chain_rig(0.0);
        feed(&mut rig, 3, 200, 1000);
        rig.sim.run();
        // Snapshot A's counter (should be 3).
        let (snap, op_slot) = {
            let mid = rig.sim.actor_mut::<NodeActor>(rig.nodes[1]);
            let snap = mid.inner.snapshot();
            assert_eq!(snap.len(), 1);
            (snap, mid.inner.op_slot.clone())
        };
        // Install op A on idle slot 3, restoring the snapshot.
        let mut new_op_slot = op_slot.clone();
        new_op_slot[1] = 3;
        let install = Install {
            ops: vec![OpId(1)],
            states: InstallStates::Explicit(snap),
            op_slot: new_op_slot.clone(),
            ready_in: SimDuration::from_secs(1),
        };
        let now = rig.sim.now();
        deliver_ctl(&mut rig, 3, now, install);
        // Everyone learns the new routing.
        for slot in 0..rig.nodes.len() {
            let routing = UpdateRouting {
                op_slot: new_op_slot.clone(),
            };
            deliver_ctl(&mut rig, slot, now, routing);
        }
        rig.sim.run();
        {
            let repl = rig.sim.actor::<NodeActor>(rig.nodes[3]);
            assert!(repl.inner.alive);
            assert!(repl.inner.hosts(OpId(1)));
            let c = repl.inner.ops[&OpId(1)].as_ref().state_bytes();
            assert!(c >= 8);
        }
        // Traffic now flows through the replacement.
        feed(&mut rig, 2, 100, 1000);
        rig.sim.run();
        let repl = rig.sim.actor::<NodeActor>(rig.nodes[3]);
        assert_eq!(repl.inner.metrics.processed, 2);
        let sink = rig.sim.actor::<NodeActor>(rig.nodes[2]);
        assert_eq!(sink.inner.metrics.sink_samples.len(), 5);
    }

    #[test]
    fn graph_is_shared_not_cloned() {
        let rig = chain_rig(0.0);
        assert!(Arc::strong_count(&rig.graph) >= 5);
    }

    #[test]
    fn urgent_edge_routes_via_cellular() {
        let mut rig = chain_rig(0.0);
        // Put edge A→K (edge 1) into urgent mode at the emitting node.
        let urgent = SetUrgentEdges {
            edges: vec![EdgeId(1)],
            on: true,
        };
        deliver_ctl(&mut rig, 1, SimTime::ZERO, urgent);
        feed(&mut rig, 2, 100, 1000);
        rig.sim.run();
        let sink = rig.sim.actor::<NodeActor>(rig.nodes[2]);
        assert_eq!(sink.inner.metrics.sink_samples.len(), 2);
        // Cellular network carried the (8-byte counter) data tuples.
        let cellnet = rig.sim.actor::<CellularNet>(rig.cell);
        assert!(cellnet.stats().payload_bytes(TrafficClass::Data) >= 16);
        assert_eq!(cellnet.stats().messages(TrafficClass::Data), 2);
        // Latency via the slow cellular uplink exceeds WiFi's.
        let lat = sink.inner.metrics.sink_samples[0].latency;
        assert!(lat > SimDuration::from_millis(150), "lat = {lat}");
    }

    /// What the runtime handed the scheme, in order.
    #[derive(Default)]
    struct Recorder {
        log: Vec<String>,
    }

    impl FtScheme for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn on_custom(&mut self, ev: EventBox, node: &mut NodeInner, _ctx: &mut Ctx) {
            let what = if ev.is::<NetRx>() {
                "net"
            } else if ev.is::<WifiBatchRx>() {
                "batch"
            } else if let Some(d) = ev.downcast_ref::<TxDone>() {
                assert_eq!(d.tag, SCHEME_TAG);
                "tx"
            } else if ev.is::<TxFailed>() || ev.is::<TxDropped>() || ev.is::<TxSevered>() {
                "tx"
            } else {
                "other"
            };
            self.log
                .push(format!("custom {what} pooled={}", ev.is_pooled()));
            // The pump that follows consumes a marker at a queue front.
            node.push_item(
                EdgeId(0),
                StreamItem::Marker(crate::tuple::Marker::token(1)),
            );
        }
        fn on_marker(
            &mut self,
            _m: crate::tuple::Marker,
            _e: EdgeId,
            _n: &mut NodeInner,
            _c: &mut Ctx,
        ) {
            self.log.push("pump".into());
        }
        fn on_install(&mut self, _node: &mut NodeInner, _ctx: &mut Ctx) {
            self.log.push("install".into());
        }
    }

    /// A payload no runtime handler recognises.
    #[derive(Debug)]
    struct SchemeRpc;

    /// A send tag the runtime never issued.
    const SCHEME_TAG: u64 = u64::MAX - 7;

    /// Sends one network delivery, one broadcast batch and one of each
    /// transmit completion to `node` from inside the simulation, so
    /// each arrives in a pooled box like real traffic.
    struct Deliverer {
        node: ActorId,
    }

    impl Actor for Deliverer {
        fn on_event(&mut self, _ev: EventBox, ctx: &mut Ctx) {
            let (src, class) = (ctx.self_id(), TrafficClass::Control);
            let payload = payload(SchemeRpc);
            ctx.send(
                self.node,
                NetRx {
                    src,
                    bytes: 8,
                    class,
                    payload,
                },
            );
            ctx.send(
                self.node,
                WifiBatchRx {
                    src,
                    class,
                    stream: 1,
                    total_blocks: 4,
                    blocks: (0..4).collect(),
                    received: simnet::bitmap::Bitmap::ones(4),
                    reply_expected: false,
                },
            );
            let (tag, dst) = (SCHEME_TAG, src);
            ctx.send(self.node, TxDone { tag });
            ctx.send(self.node, TxFailed { tag, dst });
            ctx.send(self.node, TxDropped { tag, dst });
            ctx.send(self.node, TxSevered { tag, dst });
        }
        impl_actor_any!();
    }

    /// A network delivery the runtime does not handle itself, a
    /// broadcast batch, or a transmit completion for a tag it did not
    /// issue, reaches the scheme once, in the box it arrived in, and
    /// one pump follows.
    #[test]
    fn scheme_deliveries_reach_on_custom_once_in_the_original_box() {
        let mut rig = chain_rig(0.0);
        let node = rig.nodes[1];
        rig.sim.actor_mut::<NodeActor>(node).scheme = Box::<Recorder>::default();
        let deliverer = rig.sim.add_actor(Box::new(Deliverer { node }));
        rig.sim.schedule_at(SimTime::ZERO, deliverer, SchemeRpc);
        rig.sim.run();
        let na = rig.sim.actor::<NodeActor>(node);
        let log = &na.scheme.as_any().downcast_ref::<Recorder>().unwrap().log;
        assert_eq!(
            log,
            &[
                "custom net pooled=true",
                "pump",
                "custom batch pooled=true",
                "pump",
                "custom tx pooled=true",
                "pump",
                "custom tx pooled=true",
                "pump",
                "custom tx pooled=true",
                "pump",
                "custom tx pooled=true",
                "pump",
            ]
        );
        let pool = rig.sim.pool_stats();
        assert_eq!(pool.unpooled, 0, "nothing was re-boxed outside the pool");
        assert_eq!(pool.fresh + pool.recycled, 6, "six deliveries, six slots");
    }

    /// Regression: `Kill` left the install being loaded pending, so its
    /// `InstallReady` revived the crashed phone and ran the scheme's
    /// `on_install` on a node whose links were dead.
    #[test]
    fn kill_while_loading_an_install_stays_dead() {
        let mut rig = chain_rig(0.0);
        let node = rig.nodes[3];
        rig.sim.actor_mut::<NodeActor>(node).scheme = Box::<Recorder>::default();
        let install = Install {
            ops: vec![OpId(1)],
            states: InstallStates::Fresh,
            op_slot: vec![0, 3, 2],
            ready_in: SimDuration::from_secs(1),
        };
        deliver_ctl(&mut rig, 3, SimTime::ZERO, install);
        rig.sim.schedule_at(SimTime::from_millis(500), node, Kill);
        rig.sim.run_until(SimTime::from_secs(5));
        let na = rig.sim.actor::<NodeActor>(node);
        assert!(!na.inner.alive, "the killed phone came back");
        let log = &na.scheme.as_any().downcast_ref::<Recorder>().unwrap().log;
        assert!(
            !log.iter().any(|l| l == "install"),
            "on_install ran on a dead phone: {log:?}"
        );
    }

    /// Regression: an `Install` still in flight when its phone crashed
    /// revived the phone at `InstallReady` — the install path had no
    /// kill guard, so a dead phone came back hosting operators.
    #[test]
    fn killed_phone_ignores_an_install_in_flight() {
        let mut rig = chain_rig(0.0);
        let node = rig.nodes[3];
        rig.sim.actor_mut::<NodeActor>(node).scheme = Box::<Recorder>::default();
        rig.sim.schedule_at(SimTime::ZERO, node, Kill);
        let install = Install {
            ops: vec![OpId(1)],
            states: InstallStates::Fresh,
            op_slot: vec![0, 3, 2],
            ready_in: SimDuration::from_secs(1),
        };
        deliver_ctl(&mut rig, 3, SimTime::from_millis(500), install);
        rig.sim.run_until(SimTime::from_secs(5));
        let na = rig.sim.actor::<NodeActor>(node);
        assert!(!na.inner.alive, "the killed phone came back");
        assert!(
            !na.inner.hosts(OpId(1)),
            "the dead phone hosts the install's op"
        );
        let log = &na.scheme.as_any().downcast_ref::<Recorder>().unwrap().log;
        assert!(
            !log.iter().any(|l| l == "install"),
            "on_install ran on a dead phone: {log:?}"
        );
    }
}
