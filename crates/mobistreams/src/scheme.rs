//! Token-triggered checkpointing (§III-B, Fig 5): the per-node
//! MobiStreams scheme.
//!
//! Responsibilities of [`MsScheme`] on each phone:
//!
//! * **Token alignment** — when a checkpoint token is consumed from a
//!   remote in-edge, pause that edge; once tokens arrived on *all*
//!   remote in-edges, snapshot every hosted operator, forward the token
//!   on every remote out-edge, resume the paused edges, and ship the
//!   snapshot to the whole region via the multi-phase broadcast.
//! * **Source preservation** — log every fresh source input under the
//!   current epoch and replicate it to the region (every node keeps a
//!   copy, §III-B step 3).
//! * **Recovery participation** — roll back to the MRC on controller
//!   command, replay preserved inputs, and squelch sink output for
//!   replayed tuples (catch-up, §III-D).
//! * **Mobility participation** — notify the controller on departure
//!   and ship state to the replacement over cellular (§III-E).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dsps::ft::FtScheme;
use dsps::graph::{EdgeId, OpId, OpKind};
use dsps::node::{InstallStates, NodeInner};
use dsps::tuple::{Marker, StreamItem, Tuple};
use simkernel::{ActorId, Ctx, EventBox, SimDuration};
use simnet::stats::TrafficClass;
use simnet::wifi::{WifiBatchRx, WifiBatchSend};
use simnet::{net_send, payload, payload_as, NetRx};

use crate::broadcast::{PhaseDecision, ReceiverState, SenderJob};
use crate::msgs::*;

/// Broadcast block size: the paper uses 1 KB because "large UDP
/// messages are more susceptible to a lossy network due to message
/// fragmentation" (§III-C).
const BLOCK_BYTES: u64 = 1024;

/// How long a sender waits for straggler bitmaps after a phase before
/// treating the silent receivers as gone.
const BITMAP_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// A phase goes on the air in chunks of at most this many bytes, so
/// data tuples interleave with a multi-MB checkpoint instead of
/// queueing behind it (the paper's asynchronous background
/// checkpointing).
const CHUNK_BYTES: u64 = 256 * 1024;

/// Alignment bookkeeping for one checkpoint version.
#[derive(Debug, Default)]
struct AlignState {
    got: BTreeSet<EdgeId>,
}

/// Per-node protocol statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchemeStats {
    /// Malformed broadcast-protocol messages rejected.
    pub protocol_errors: u64,
    /// Snapshots shipped over cellular while degraded (§III-E, no
    /// replacement; WiFi unreachable).
    pub cell_snapshots: u64,
    /// Degraded snapshots relayed onto WiFi as this node's proxy duty.
    pub proxied_snapshots: u64,
}

/// The MobiStreams fault-tolerance scheme.
#[derive(Default)]
pub struct MsScheme {
    /// Current preservation epoch (version of the last started ckpt).
    pub epoch: u64,
    align: BTreeMap<u64, AlignState>,
    /// Highest version this node has already checkpointed. A token for
    /// a version at or below this is a duplicate (e.g. a mixed
    /// source+compute node used to emit twice per edge) — consuming it
    /// again would re-pause the edge with no wave left to resume it,
    /// freezing the region's dataflow and every later checkpoint.
    last_aligned: u64,
    /// Out-edges already given a token per in-flight version (sender-
    /// side dedup for mixed source+compute nodes).
    tokens_emitted: BTreeMap<u64, BTreeSet<EdgeId>>,
    /// Active slots per the controller's last membership update.
    pub active_slots: Vec<u32>,
    /// Membership epoch currently held (guards snapshot/delta
    /// application against reordering across resyncs).
    pub membership_epoch: u64,
    jobs: BTreeMap<u64, SenderJob>,
    rx: ReceiverState,
    next_stream: u64,
    /// Tag → stream of in-flight TCP-phase completions.
    tcp_tags: BTreeMap<u64, u64>,
    /// Per-job queue of remaining phase chunks.
    chunk_queues: BTreeMap<u64, std::collections::VecDeque<Vec<u32>>>,
    /// Tag → stream for in-flight batch chunks.
    batch_tags: BTreeMap<u64, u64>,
    /// Last time each slot was reported silent (rate limiting).
    reported_silent: BTreeMap<u32, simkernel::SimTime>,
    /// While degraded (departed, no replacement): the in-region phone
    /// snapshots must be shipped to over cellular instead of the WiFi
    /// broadcast. `None` = normal WiFi path.
    pub degraded_proxy: Option<ActorId>,
    /// Protocol statistics.
    pub stats: SchemeStats,
}

impl MsScheme {
    /// Active peers (actors) excluding this node.
    fn peers(&self, node: &NodeInner) -> Vec<ActorId> {
        self.active_slots
            .iter()
            .filter(|&&s| s != node.cfg.slot)
            .filter_map(|&s| node.slot_actors.get(s as usize).copied())
            .collect()
    }

    /// A phone the membership dropped mid-job sends no more batches
    /// and no `BlobDeliver`: forget its reception state.
    fn evict_departed_senders(&mut self, node: &NodeInner) {
        let (slots, actors) = (&self.active_slots, &node.slot_actors);
        self.rx.retain_senders(|sender| {
            slots
                .iter()
                .any(|&s| actors.get(s as usize) == Some(&sender))
        });
    }

    fn alloc_stream(&mut self, node: &NodeInner) -> u64 {
        let s = ((node.cfg.slot as u64) << 32) | self.next_stream;
        self.next_stream += 1;
        s
    }

    /// Launch a replication job for `content` of `total_bytes`.
    fn start_job(
        &mut self,
        node: &mut NodeInner,
        ctx: &mut Ctx,
        content: BlobContent,
        total_bytes: u64,
        class: TrafficClass,
    ) {
        let expected = self.peers(node);
        if expected.is_empty() || total_bytes == 0 {
            self.finish_content(&content, node, ctx);
            return;
        }
        let stream = self.alloc_stream(node);
        let mut job = SenderJob::new(stream, content, class, total_bytes, BLOCK_BYTES, expected);
        let blocks = job.begin();
        self.jobs.insert(stream, job);
        self.send_phase(node, ctx, stream, blocks);
    }

    /// Queue a phase's blocks as chunks and launch the first chunk.
    /// The bitmap timeout is armed only once the last chunk has left
    /// the channel (a multi-MB phase takes many seconds of airtime).
    fn send_phase(&mut self, node: &mut NodeInner, ctx: &mut Ctx, stream: u64, blocks: Vec<u32>) {
        let Some(job) = self.jobs.get(&stream) else {
            return; // job torn down by a rollback/reinstall mid-flight
        };
        let mut chunks: std::collections::VecDeque<Vec<u32>> = std::collections::VecDeque::new();
        let mut cur: Vec<u32> = Vec::new();
        let mut cur_bytes = 0u64;
        for b in blocks {
            let sz = job.block_size(b);
            if cur_bytes + sz > CHUNK_BYTES && !cur.is_empty() {
                chunks.push_back(std::mem::take(&mut cur));
                cur_bytes = 0;
            }
            cur.push(b);
            cur_bytes += sz;
        }
        if !cur.is_empty() {
            chunks.push_back(cur);
        }
        self.chunk_queues.insert(stream, chunks);
        self.send_next_chunk(node, ctx, stream);
    }

    fn send_next_chunk(&mut self, node: &mut NodeInner, ctx: &mut Ctx, stream: u64) {
        let Some(q) = self.chunk_queues.get_mut(&stream) else {
            return;
        };
        let Some(blocks) = q.pop_front() else {
            self.chunk_queues.remove(&stream);
            return;
        };
        let reply_expected = q.is_empty();
        let Some(job) = self.jobs.get(&stream) else {
            return;
        };
        let payload_bytes = job.bytes_of(&blocks);
        let tag = node.alloc_tag();
        self.batch_tags.insert(tag, stream);
        let src = ctx.self_id();
        ctx.send(
            node.primary,
            WifiBatchSend {
                src,
                class: job.class,
                stream,
                total_blocks: job.n_blocks,
                blocks: blocks.into(),
                payload_bytes,
                reply_expected,
                tag,
            },
        );
    }

    fn arm_timeout(&self, ctx: &mut Ctx, stream: u64, phase: u32) {
        let me = ctx.self_id();
        ctx.send_in(BITMAP_TIMEOUT, me, BitmapTimeout { stream, phase });
    }

    /// Drive a job forward after a phase decision.
    fn apply_decision(
        &mut self,
        stream: u64,
        decision: PhaseDecision,
        node: &mut NodeInner,
        ctx: &mut Ctx,
    ) {
        match decision {
            PhaseDecision::Resend(blocks) => {
                self.send_phase(node, ctx, stream, blocks);
            }
            PhaseDecision::TcpResidue(residue) => {
                let Some(job) = self.jobs.get(&stream) else {
                    return; // job torn down by a rollback/reinstall mid-flight
                };
                let receivers = job.receivers();
                let edges = crate::broadcast::tcp_tree_edges(&residue, &receivers);
                if edges.is_empty() {
                    self.complete_job(stream, node, ctx);
                    return;
                }
                let class = job.class;
                let sends: Vec<(ActorId, u64)> = edges
                    .iter()
                    .map(|(_, child_ix, blocks)| (receivers[*child_ix], job.bytes_of(blocks)))
                    .collect();
                let last = sends.len() - 1;
                for (i, (dst, bytes)) in sends.into_iter().enumerate() {
                    let tag = if i == last { node.alloc_tag() } else { 0 };
                    if tag != 0 {
                        self.tcp_tags.insert(tag, stream);
                    }
                    net_send(ctx, node.primary, dst, class, bytes, tag, None);
                }
            }
            PhaseDecision::Complete => {
                self.complete_job(stream, node, ctx);
            }
        }
    }

    /// Deliver the blob logically and close out the job.
    fn complete_job(&mut self, stream: u64, node: &mut NodeInner, ctx: &mut Ctx) {
        let Some(job) = self.jobs.remove(&stream) else {
            return;
        };
        let deliver = BlobDeliver {
            stream,
            from_actor: ctx.self_id(),
            content: job.content.clone(),
        };
        for rx in job.receivers() {
            ctx.send(rx, deliver.clone());
        }
        self.finish_content(&job.content, node, ctx);
    }

    /// Local bookkeeping when a blob is fully replicated.
    fn finish_content(&mut self, content: &BlobContent, node: &mut NodeInner, ctx: &mut Ctx) {
        match content {
            BlobContent::Checkpoint { version, .. } => {
                let msg = NodeCheckpointed {
                    version: *version,
                    region: node.cfg.region,
                    slot: node.cfg.slot,
                };
                node.send_controller_tracked(ctx, wire::CONTROL, msg);
            }
            BlobContent::ProxyCheckpoint {
                origin_slot,
                version,
                ..
            } => {
                // Relayed on behalf of a degraded departed phone: the
                // report carries ITS slot so the controller can fold it
                // into `ckpt_got` and the round stays satisfiable.
                let msg = NodeCheckpointed {
                    version: *version,
                    region: node.cfg.region,
                    slot: *origin_slot,
                };
                node.send_controller_tracked(ctx, wire::CONTROL, msg);
            }
            BlobContent::Preserve { .. } => {}
        }
    }

    /// Send the token for `version` on `edge` unless this node already
    /// did (a mixed source+compute node reaches edges both via
    /// [`Self::on_start_checkpoint`] and [`Self::do_checkpoint`];
    /// exactly one token per (version, edge) may leave a node).
    fn emit_token(&mut self, version: u64, edge: EdgeId, node: &mut NodeInner, ctx: &mut Ctx) {
        if !self.tokens_emitted.entry(version).or_default().insert(edge) {
            return;
        }
        node.route_item(ctx, edge, StreamItem::Marker(Marker::token(version)));
    }

    /// Snapshot + token-forward + resume + ship (the "node checkpoint"
    /// of Fig 5).
    fn do_checkpoint(&mut self, version: u64, node: &mut NodeInner, ctx: &mut Ctx) {
        self.last_aligned = self.last_aligned.max(version);
        let snap = node.snapshot();
        let total = node.store.put_snapshot(version, &snap);
        // Forward the token downstream first — checkpoint shipping is
        // asynchronous and must not delay the token wave.
        for e in node.remote_out_edges() {
            self.emit_token(version, e, node, ctx);
        }
        // The wave for this version is fully forwarded; GC dedup state
        // for versions this node is done with.
        self.tokens_emitted.retain(|&v, _| v >= version);
        // Resume edges paused by alignment — for this version AND any
        // older incomplete wave: a round superseded by a completed
        // newer one can never commit region-wide, and keeping its
        // edges paused would deadlock the node across versions.
        let done: Vec<u64> = self
            .align
            .keys()
            .copied()
            .filter(|&u| u <= version)
            .collect();
        for u in done {
            if let Some(st) = self.align.remove(&u) {
                for e in st.got {
                    node.paused.remove(&e);
                }
            }
        }
        if total == 0 {
            // Stateless node: report done immediately (a tiny control
            // message — works over cellular for degraded nodes too).
            self.finish_content(
                &BlobContent::Checkpoint {
                    version,
                    states: Vec::new(),
                },
                node,
                ctx,
            );
        } else if let Some(proxy) = self.degraded_proxy {
            // Degraded (departed, no replacement): WiFi broadcast can
            // reach nobody, so ship the snapshot to the in-region proxy
            // over cellular at its full byte size. The proxy relays it
            // onto WiFi and reports to the controller on our behalf.
            self.stats.cell_snapshots += 1;
            let snap = DegradedSnapshot {
                region: node.cfg.region,
                origin_slot: node.cfg.slot,
                version,
                states: snap,
            };
            let class = TrafficClass::Checkpoint;
            net_send(ctx, node.cell, proxy, class, total, 0, payload(snap));
        } else {
            self.start_job(
                node,
                ctx,
                BlobContent::Checkpoint {
                    version,
                    states: snap,
                },
                total,
                TrafficClass::Checkpoint,
            );
        }
    }

    /// Source node handling of the controller's checkpoint trigger.
    fn on_start_checkpoint(&mut self, version: u64, node: &mut NodeInner, ctx: &mut Ctx) {
        let sources = node.hosted_sources();
        // Inputs still queued were logged under the old epoch but will
        // be emitted after the token: retag them to the new epoch.
        for &op in &sources {
            let ids: BTreeSet<u64> = node
                .queues
                .get(&EdgeId::source(op))
                .map(|q| {
                    q.iter()
                        .filter_map(|i| i.as_tuple())
                        .map(|t| t.id)
                        .collect()
                })
                .unwrap_or_default();
            node.store.retag_inputs(self.epoch, version, op, &ids);
        }
        self.epoch = version;
        // Emit tokens on the source ops' remote out-edges.
        let graph = node.graph.clone();
        for &op in &sources {
            for &e in &graph.op(op).out_edges {
                let to = graph.edge(e).to;
                if node.op_slot[to.index()] != node.cfg.slot {
                    self.emit_token(version, e, node, ctx);
                }
            }
        }
        let hosts_compute = node.ops.keys().any(|&o| graph.op(o).kind != OpKind::Source);
        if hosts_compute {
            // Mixed node: if no remote in-edges feed the compute ops the
            // token wave can never trigger alignment here — checkpoint
            // immediately (local chains snapshot with the sources).
            if node.remote_in_edges().is_empty() {
                self.do_checkpoint(version, node, ctx);
            }
        } else {
            // Pure source node: stateless, ack right away.
            self.finish_content(
                &BlobContent::Checkpoint {
                    version,
                    states: Vec::new(),
                },
                node,
                ctx,
            );
        }
    }

    fn on_blob(&mut self, blob: BlobDeliver, node: &mut NodeInner, _ctx: &mut Ctx) {
        self.rx.finish(blob.from_actor, blob.stream);
        match blob.content {
            BlobContent::Checkpoint { version, states }
            | BlobContent::ProxyCheckpoint {
                version, states, ..
            } => {
                node.store.put_snapshot(version, &states);
            }
            BlobContent::Preserve {
                epoch,
                op,
                tuple,
                deliver_edge,
            } => {
                if let Some(edge) = deliver_edge {
                    let target = node.graph.edge_target(edge);
                    if node.hosts(target) {
                        let item = dsps::tuple::StreamItem::Tuple(Tuple::clone(&tuple));
                        node.push_item(edge, item);
                    }
                }
                node.store.preserve_input(epoch, op, tuple);
            }
        }
    }

    /// Tear down every job this phone is sending, with the chunk queues
    /// and tags that drive them.
    fn drop_sender_jobs(&mut self) {
        self.jobs.clear();
        self.chunk_queues.clear();
        self.batch_tags.clear();
        self.tcp_tags.clear();
    }

    fn on_rollback(&mut self, version: u64, node: &mut NodeInner, ctx: &mut Ctx) {
        node.abort_current();
        node.clear_queues();
        self.align.clear();
        self.drop_sender_jobs();
        // A rollback is region-wide: every sender drops its jobs on the
        // same controller broadcast, so no `BlobDeliver` will finish
        // the reception state held here.
        self.rx = ReceiverState::default();
        self.tokens_emitted.clear();
        let snap = node.store.snapshot(version);
        node.restore(&snap);
        let ack = Recovered {
            region: node.cfg.region,
            slot: node.cfg.slot,
        };
        node.send_controller_tracked(ctx, wire::CONTROL, ack);
    }

    /// Source-node emission: replace the unicast hop with one reliable
    /// broadcast job that (a) delivers the tuple to its downstream
    /// neighbor and (b) leaves a preservation copy on every node —
    /// §III-B step 3 at the cost of a single transmission.
    fn preserve_and_deliver(
        &mut self,
        tuple: &Tuple,
        edge: EdgeId,
        node: &mut NodeInner,
        ctx: &mut Ctx,
    ) {
        let op = node.graph.edge(edge).from;
        let content = BlobContent::Preserve {
            epoch: self.epoch,
            op,
            tuple: Arc::new(tuple.clone()),
            deliver_edge: Some(edge),
        };
        let bytes = tuple.bytes;
        self.start_job(node, ctx, content, bytes, TrafficClass::Preservation);
    }

    fn on_replay(&mut self, epoch: u64, node: &mut NodeInner, ctx: &mut Ctx) {
        let _ = ctx;
        for op in node.hosted_sources() {
            let tuples: Vec<Tuple> = node
                .store
                .source_log(epoch, op)
                .map(|l| l.tuples.iter().map(|t| Tuple::clone(t)).collect())
                .unwrap_or_default();
            for t in tuples {
                node.push_source_replay(op, t);
            }
        }
    }
}

impl FtScheme for MsScheme {
    fn name(&self) -> &'static str {
        "mobistreams"
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
        if tuple.replay || edge.is_source() {
            return true;
        }
        let from = node.graph.edge(edge).from;
        let is_source = node.graph.op(from).kind == OpKind::Source;
        if !is_source || !node.hosts(from) {
            return true;
        }
        // Local edges and empty regions use the normal path.
        let to = node.graph.edge(edge).to;
        if node.op_slot[to.index()] == node.cfg.slot || self.peers(node).is_empty() {
            return true;
        }
        self.preserve_and_deliver(tuple, edge, node, ctx);
        false
    }

    fn on_marker(&mut self, marker: Marker, edge: EdgeId, node: &mut NodeInner, ctx: &mut Ctx) {
        if marker.kind != Marker::CHECKPOINT_TOKEN {
            return;
        }
        let v = marker.version;
        // A duplicate or stale token (this node already checkpointed
        // that version): pausing the edge again would freeze it
        // forever — there is no wave left to resume it.
        if v <= self.last_aligned {
            return;
        }
        // A token for a newer version abandons any incomplete older
        // wave: a straggler (e.g. a departed phone draining its
        // backlog over slow cellular) can deliver its tokens so late
        // that the next round starts first — the old round can no
        // longer commit region-wide, and keeping its edges paused
        // would deadlock this node across versions.
        let superseded: Vec<u64> = self.align.keys().copied().filter(|&u| u < v).collect();
        for u in superseded {
            if let Some(st) = self.align.remove(&u) {
                for e in st.got {
                    node.paused.remove(&e);
                }
            }
        }
        // Pause this edge: tuples succeeding the token must not corrupt
        // the pre-checkpoint state (Fig 5, node E).
        node.paused.insert(edge);
        let st = self.align.entry(v).or_default();
        st.got.insert(edge);
        let needed: BTreeSet<EdgeId> = node.remote_in_edges().into_iter().collect();
        if st.got.is_superset(&needed) {
            self.do_checkpoint(v, node, ctx);
        }
    }

    fn on_source_input(&mut self, tuple: &Tuple, op: OpId, node: &mut NodeInner, ctx: &mut Ctx) {
        let _ = ctx;
        // Log locally; region-wide replication happens when the source
        // emits (the broadcast then doubles as the data delivery).
        node.store
            .preserve_input(self.epoch, op, Arc::new(tuple.clone()));
    }

    fn on_custom(&mut self, ev: EventBox, node: &mut NodeInner, ctx: &mut Ctx) {
        // Dead nodes react to nothing (reboot is handled by the node
        // runtime itself).
        if !node.alive {
            return;
        }
        simkernel::match_event!(ev,
            // --- receiver side of the broadcast protocol ---
            b: WifiBatchRx => {
                let (src, stream, total) = (b.src, b.stream, b.total_blocks);
                // The phase's last chunk ends the phone's reception
                // state for the job; the reply carries what arrived
                // since the previous one.
                let folded = if b.reply_expected {
                    self.rx.report(src, stream, total, &b.blocks, &b.received).map(Some)
                } else {
                    self.rx.on_batch(src, stream, total, &b.blocks, &b.received).map(|_| None)
                };
                match folded {
                    Ok(Some(received)) => {
                        let reply = BitmapReply { stream, received };
                        let bytes = reply.received.wire_bytes();
                        let reply = payload(reply);
                        net_send(ctx, node.primary, src, b.class, bytes, 0, reply);
                    }
                    Ok(None) => {}
                    Err(_) => {
                        // Malformed batch: reject it whole and send no
                        // bitmap — the sender's phase timeout treats us
                        // as a straggler and the residue still reaches
                        // us over the reliable pass. Never panic a
                        // phone over one bad message.
                        self.stats.protocol_errors += 1;
                    }
                }
            },
            // --- network deliveries: a receiver's bitmap reply (the
            // sender side of the broadcast), controller RPCs ---
            rx: NetRx => {
                if let Some(reply) = payload_as::<BitmapReply>(&rx.payload) {
                    let stream = reply.stream;
                    if let Some(job) = self.jobs.get_mut(&stream) {
                        if reply.received.len() != job.n_blocks as usize {
                            // The job merges nothing of such a reply.
                            self.stats.protocol_errors += 1;
                        }
                        if let Some(d) = job.on_bitmap(rx.src, &reply.received) {
                            self.apply_decision(stream, d, node, ctx);
                        }
                    }
                } else if let Some(s) = payload_as::<CheckpointTick>(&rx.payload) {
                    self.on_start_checkpoint(s.version, node, ctx);
                } else if let Some(c) = payload_as::<CheckpointComplete>(&rx.payload) {
                    node.store.mark_complete(c.version);
                    node.store.gc_before(c.version);
                } else if let Some(r) = payload_as::<RollbackTo>(&rx.payload) {
                    self.on_rollback(r.version, node, ctx);
                } else if let Some(r) = payload_as::<ReplayInputs>(&rx.payload) {
                    self.on_replay(r.epoch, node, ctx);
                } else if let Some(m) = payload_as::<MembershipUpdate>(&rx.payload) {
                    // A snapshot carries the full state at its epoch;
                    // apply unless we already hold something newer
                    // (cellular is FIFO, but a resync snapshot may
                    // race a delta issued the same tick).
                    if m.epoch >= self.membership_epoch {
                        self.active_slots = (*m.active_slots).clone();
                        self.membership_epoch = m.epoch;
                        self.evict_departed_senders(node);
                    }
                } else if let Some(d) = payload_as::<MembershipDelta>(&rx.payload) {
                    // Apply only if our epoch falls in the delta's
                    // coverage; overlap re-applies idempotently
                    // (changes are absolute activity assignments).
                    if self.membership_epoch >= d.base_epoch && d.epoch > self.membership_epoch {
                        for ch in d.changes.iter() {
                            match self.active_slots.binary_search(&ch.slot) {
                                Ok(i) if !ch.active => {
                                    self.active_slots.remove(i);
                                }
                                Err(i) if ch.active => {
                                    self.active_slots.insert(i, ch.slot);
                                }
                                _ => {}
                            }
                        }
                        self.membership_epoch = d.epoch;
                        self.evict_departed_senders(node);
                    }
                } else if let Some(d) = payload_as::<DegradedCheckpointVia>(&rx.payload) {
                    self.degraded_proxy = Some(d.proxy);
                } else if let Some(s) = payload_as::<DegradedSnapshot>(&rx.payload) {
                    // Proxy duty: a degraded departed phone shipped its
                    // snapshot here over cellular. Keep a local MRC
                    // copy, then relay it to the whole region on WiFi;
                    // the finished job reports the DEGRADED slot to the
                    // controller so the round can still commit.
                    if s.region != node.cfg.region {
                        // A stale/misrouted snapshot from another region
                        // must not be relayed into this region's round.
                        self.stats.protocol_errors += 1;
                        return;
                    }
                    self.stats.proxied_snapshots += 1;
                    let total = node.store.put_snapshot(s.version, &s.states);
                    let content = BlobContent::ProxyCheckpoint {
                        origin_slot: s.origin_slot,
                        version: s.version,
                        states: s.states.clone(),
                    };
                    self.start_job(node, ctx, content, total, TrafficClass::Checkpoint);
                } else if let Some(t) = payload_as::<TransferStateTo>(&rx.payload) {
                    // Departing node: package states and ship the install
                    // over cellular (we are out of WiFi range).
                    let snap = node.snapshot();
                    let bytes: u64 = snap.iter().map(|&(_, _, b)| b).sum();
                    let mut install = t.install.clone();
                    install.states = InstallStates::Explicit(snap);
                    let (dst, class) = (t.replacement, TrafficClass::Recovery);
                    net_send(ctx, node.cell, dst, class, bytes.max(1), 0, payload(install));
                }
            },
            t: BitmapTimeout => {
                let silent: Vec<simkernel::ActorId> = self
                    .jobs
                    .get(&t.stream)
                    .filter(|j| j.phase == t.phase && !j.is_done())
                    .map(|j| j.awaiting().to_vec())
                    .unwrap_or_default();
                let decision = self
                    .jobs
                    .get_mut(&t.stream)
                    .and_then(|j| j.on_timeout(t.phase));
                if let Some(d) = decision {
                    // Receivers that never acknowledged a broadcast are
                    // dead or departed — report them (the broadcast path
                    // replaces per-edge TCP, so this IS the upstream
                    // failure detection of §III-D for those edges).
                    for actor in silent {
                        if let Some(slot) = node
                            .slot_actors
                            .iter()
                            .position(|&a| a == actor)
                        {
                            let slot = slot as u32;
                            let now = ctx.now();
                            let recent = self
                                .reported_silent
                                .get(&slot)
                                .is_some_and(|&t| now.since(t) < simkernel::SimDuration::from_secs(60));
                            if !recent {
                                self.reported_silent.insert(slot, now);
                                let report = dsps::node::ReportDead {
                                    region: node.cfg.region,
                                    slot,
                                    observed_by: node.cfg.slot,
                                };
                                node.send_controller(ctx, wire::CONTROL, report);
                            }
                        }
                    }
                    self.apply_decision(t.stream, d, node, ctx);
                }
            },
            d: simnet::TxDone => {
                if let Some(stream) = self.batch_tags.remove(&d.tag) {
                    let more = self
                        .chunk_queues
                        .get(&stream)
                        .map(|q| !q.is_empty())
                        .unwrap_or(false);
                    if more {
                        self.send_next_chunk(node, ctx, stream);
                    } else {
                        self.chunk_queues.remove(&stream);
                        if let Some(job) = self.jobs.get(&stream) {
                            let phase = job.phase;
                            self.arm_timeout(ctx, stream, phase);
                        }
                    }
                } else if let Some(stream) = self.tcp_tags.remove(&d.tag) {
                    self.complete_job(stream, node, ctx);
                }
            },
            f: simnet::TxFailed => {
                if let Some(stream) = self.tcp_tags.remove(&f.tag) {
                    // Best effort: the dead receiver is the controller's
                    // problem; the blob is complete for survivors.
                    self.complete_job(stream, node, ctx);
                }
            },
            blob: BlobDeliver => {
                self.on_blob(blob, node, ctx);
            },
            // --- fault injection ---
            _d: Depart => {
                let notice = DepartureNotice {
                    region: node.cfg.region,
                    slot: node.cfg.slot,
                };
                node.send_controller_tracked(ctx, wire::CONTROL, notice);
            },
            @else _other => {}
        );
    }

    fn on_install(&mut self, node: &mut NodeInner, ctx: &mut Ctx) {
        self.align.clear();
        self.drop_sender_jobs();
        // `rx` stays: a reinstall (reboot-rejoin, replacement) is local
        // to this phone, and the other phones' jobs toward it go on.
        self.tokens_emitted.clear();
        // A reinstall means the phone is back on the WiFi path (rejoin
        // or replacement): end the degraded cellular snapshot mode.
        self.degraded_proxy = None;
        let ack = Recovered {
            region: node.cfg.region,
            slot: node.cfg.slot,
        };
        node.send_controller_tracked(ctx, wire::CONTROL, ack);
    }

    fn preserved_bytes(&self, node: &NodeInner) -> u64 {
        node.store.preserved_input_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsps::ft::NullScheme;
    use dsps::graph::QueryGraph;
    use dsps::node::{NodeActor, NodeConfig, NodeInner, SourceEmit};
    use dsps::ops::{Counter, Relay};
    use dsps::tuple::value;
    use simkernel::{impl_actor_any, Actor, Sim, SimTime};
    use simnet::bitmap::Bitmap;
    use simnet::cellular::{CellConfig, CellularNet};
    use simnet::wifi::{WifiConfig, WifiMedium};
    use simnet::NetSend;
    use std::sync::Arc;

    /// Records control messages arriving at "the controller".
    #[derive(Default)]
    struct CtlStub {
        checkpointed: Vec<(u64, u32)>,
        acks: Vec<u32>,
    }

    impl Actor for CtlStub {
        fn on_event(&mut self, ev: simkernel::EventBox, _ctx: &mut Ctx) {
            if let Ok(rx) = ev.downcast::<NetRx>() {
                if let Some(m) = payload_as::<NodeCheckpointed>(&rx.payload) {
                    self.checkpointed.push((m.version, m.slot));
                } else if let Some(a) = payload_as::<Recovered>(&rx.payload) {
                    self.acks.push(a.slot);
                }
            }
        }
        impl_actor_any!();
    }

    struct Rig {
        sim: Sim,
        nodes: Vec<simkernel::ActorId>,
        cell: simkernel::ActorId,
        ctl: simkernel::ActorId,
    }

    /// A's state padding that puts its checkpoint phase on the air in
    /// three chunks of at most `CHUNK_BYTES`.
    const THREE_CHUNKS: u64 = 600 * 1024;

    /// Chain S → A(counter) → K on slots 0,1,2 (+1 idle), MsScheme on
    /// every node, lossless WiFi for deterministic assertions. A's
    /// checkpoint is one broadcast chunk.
    fn rig() -> Rig {
        rig_with_padding(64 * 1024)
    }

    /// [`rig`] with A's state padded to `padding` bytes.
    fn rig_with_padding(padding: u64) -> Rig {
        let mut g = QueryGraph::new();
        let s = g.add_op("S", dsps::graph::OpKind::Source, || {
            Box::new(Relay::new(SimDuration::from_millis(1)))
        });
        let a = g.add_op("A", dsps::graph::OpKind::Compute, move || {
            Box::new(Counter::new(SimDuration::from_millis(20), 1).with_state_padding(padding))
        });
        let k = g.add_op("K", dsps::graph::OpKind::Sink, || {
            Box::new(Relay::new(SimDuration::from_millis(1)))
        });
        g.connect(s, a);
        g.connect(a, k);
        let graph = Arc::new(g);

        let mut sim = Sim::new(77);
        let ctl = sim.add_actor(Box::<CtlStub>::default());
        let wifi = sim.add_actor(Box::new(WifiMedium::new(WifiConfig {
            loss: 0.0,
            ..WifiConfig::default()
        })));
        let cell = sim.add_actor(Box::new(CellularNet::new(CellConfig::default())));
        let mut nodes = Vec::new();
        for slot in 0..4u32 {
            let mut inner = NodeInner::new(
                NodeConfig {
                    slot,
                    ..NodeConfig::default()
                },
                Arc::clone(&graph),
                wifi,
                cell,
                ctl,
            );
            inner.op_slot = vec![0, 1, 2];
            let scheme = MsScheme {
                active_slots: vec![0, 1, 2, 3],
                ..MsScheme::default()
            };
            let id = sim.add_actor(Box::new(NodeActor::new(inner, Box::new(scheme))));
            nodes.push(id);
        }
        let table = Arc::new(nodes.clone());
        for (slot, &nid) in nodes.iter().enumerate() {
            let na = sim.actor_mut::<NodeActor>(nid);
            na.inner.slot_actors = Arc::clone(&table);
            if slot < 3 {
                na.inner.host_op(dsps::graph::OpId(slot as u32));
            }
        }
        {
            let m = sim.actor_mut::<WifiMedium>(wifi);
            for &n in &nodes {
                m.add_member(n);
            }
            let c = sim.actor_mut::<CellularNet>(cell);
            for &n in &nodes {
                c.register(n);
            }
            c.register_with_rates(ctl, 1e9, 1e9);
        }
        Rig {
            sim,
            nodes,
            cell,
            ctl,
        }
    }

    fn feed(rig: &mut Rig, n: usize, every_ms: u64) {
        for i in 0..n {
            rig.sim.schedule_at(
                SimTime::from_millis(10 + every_ms * i as u64),
                rig.nodes[0],
                SourceEmit {
                    op: dsps::graph::OpId(0),
                    value: value(i as u64),
                    bytes: 5000,
                },
            );
        }
    }

    fn start_ckpt(rig: &mut Rig, at_ms: u64, version: u64) {
        let ctl = rig.ctl;
        let dst = rig.nodes[0];
        rig.sim.schedule_at(
            SimTime::from_millis(at_ms),
            rig.cell,
            NetSend {
                src: ctl,
                dst,
                class: TrafficClass::Control,
                bytes: 64,
                tag: 0,
                payload: Some(payload(CheckpointTick { version })),
            },
        );
    }

    #[test]
    fn token_wave_checkpoints_and_replicates() {
        let mut rig = rig();
        feed(&mut rig, 5, 300);
        start_ckpt(&mut rig, 800, 1);
        rig.sim.run_until(SimTime::from_secs(30));
        // Source (stateless) and the A/K nodes all reported the version.
        let ctl = rig.sim.actor::<CtlStub>(rig.ctl);
        let slots: Vec<u32> = ctl
            .checkpointed
            .iter()
            .filter(|&&(v, _)| v == 1)
            .map(|&(_, s)| s)
            .collect();
        assert!(
            slots.contains(&0) && slots.contains(&1) && slots.contains(&2),
            "{slots:?}"
        );
        // Every OTHER node (incl. the idle slot 3) received A's state
        // via the broadcast.
        for (i, &nid) in rig.nodes.iter().enumerate() {
            if i == 1 {
                continue; // A's own copy is local
            }
            let na = rig.sim.actor::<NodeActor>(nid);
            assert!(
                na.inner
                    .store
                    .snapshot(1)
                    .iter()
                    .any(|&(op, ..)| op == dsps::graph::OpId(1)),
                "slot {i} holds A's checkpoint"
            );
        }
    }

    #[test]
    fn alignment_pauses_edge_until_checkpoint() {
        let mut rig = rig();
        feed(&mut rig, 2, 100);
        start_ckpt(&mut rig, 500, 1);
        rig.sim.run_until(SimTime::from_secs(20));
        // After the wave completes nothing stays paused.
        for &nid in &rig.nodes {
            let na = rig.sim.actor::<NodeActor>(nid);
            assert!(na.inner.paused.is_empty(), "no edge left paused");
        }
        // Tokens were consumed (A and K each saw one).
        let a = rig.sim.actor::<NodeActor>(rig.nodes[1]);
        let a_scheme = a.scheme.as_ref();
        let _ = a_scheme;
    }

    #[test]
    fn preservation_epoch_gc_on_complete() {
        let mut rig = rig();
        feed(&mut rig, 4, 200);
        start_ckpt(&mut rig, 2000, 1);
        rig.sim.run_until(SimTime::from_secs(5));
        let src = rig.sim.actor::<NodeActor>(rig.nodes[0]);
        let pre_epoch0 = src
            .inner
            .store
            .source_log(0, dsps::graph::OpId(0))
            .map(|l| l.tuples.len());
        assert!(pre_epoch0.unwrap_or(0) > 0, "epoch-0 inputs logged");
        // Commit v1: epoch-0 data must be GC'd everywhere.
        for &nid in rig.nodes.clone().iter() {
            let ctl = rig.ctl;
            rig.sim.schedule_at(
                rig.sim.now(),
                rig.cell,
                NetSend {
                    src: ctl,
                    dst: nid,
                    class: TrafficClass::Control,
                    bytes: 64,
                    tag: 0,
                    payload: Some(payload(CheckpointComplete { version: 1 })),
                },
            );
        }
        rig.sim.run_until(rig.sim.now() + SimDuration::from_secs(2));
        let src = rig.sim.actor::<NodeActor>(rig.nodes[0]);
        assert!(
            src.inner
                .store
                .source_log(0, dsps::graph::OpId(0))
                .is_none(),
            "epoch 0 garbage-collected after commit"
        );
        assert_eq!(src.inner.store.latest_complete(), Some(1));
    }

    /// One preservation job leaves one tuple allocation that every
    /// receiver's log points at; a per-phone copy fails this.
    #[test]
    fn receivers_share_one_preserved_tuple() {
        let mut rig = rig();
        feed(&mut rig, 1, 100);
        rig.sim.run_until(SimTime::from_secs(5));
        let logged: Vec<&Arc<Tuple>> = rig.nodes[1..]
            .iter()
            .map(|&nid| {
                let store = &rig.sim.actor::<NodeActor>(nid).inner.store;
                let log = store
                    .source_log(0, OpId(0))
                    .expect("every receiver logs the input");
                assert_eq!(log.tuples.len(), 1);
                &log.tuples[0]
            })
            .collect();
        assert!(logged.iter().all(|t| Arc::ptr_eq(t, logged[0])));
        assert_eq!(
            Arc::strong_count(logged[0]),
            logged.len(),
            "nothing else holds it"
        );
    }

    #[test]
    fn rollback_restores_and_acks() {
        let mut rig = rig();
        feed(&mut rig, 3, 100);
        start_ckpt(&mut rig, 600, 1);
        rig.sim.run_until(SimTime::from_secs(10));
        // More tuples after the checkpoint change A's counter.
        feed(&mut rig, 3, 100);
        rig.sim.run_until(SimTime::from_secs(20));
        // Roll A's node back to v1.
        let ctl = rig.ctl;
        let a_node = rig.nodes[1];
        rig.sim.schedule_at(
            rig.sim.now(),
            rig.cell,
            NetSend {
                src: ctl,
                dst: a_node,
                class: TrafficClass::Control,
                bytes: 64,
                tag: 0,
                payload: Some(payload(RollbackTo { version: 1 })),
            },
        );
        rig.sim.run_until(rig.sim.now() + SimDuration::from_secs(2));
        let ctl_stub = rig.sim.actor::<CtlStub>(rig.ctl);
        assert!(ctl_stub.acks.contains(&1), "rollback acked");
    }

    fn scheme_of(rig: &Rig, slot: usize) -> &MsScheme {
        let na = rig.sim.actor::<NodeActor>(rig.nodes[slot]);
        na.scheme.as_any().downcast_ref::<MsScheme>().unwrap()
    }

    fn rx_in_flight(rig: &Rig, slot: usize) -> usize {
        scheme_of(rig, slot).rx.in_flight()
    }

    /// Sizes of the sender-side maps: jobs, chunk queues, batch tags,
    /// TCP tags.
    fn sender_maps(rig: &Rig, slot: usize) -> [usize; 4] {
        let ms = scheme_of(rig, slot);
        [
            ms.jobs.len(),
            ms.chunk_queues.len(),
            ms.batch_tags.len(),
            ms.tcp_tags.len(),
        ]
    }

    /// Step the simulation 1 ms at a time until `ready` holds.
    fn run_until_ready(rig: &mut Rig, what: &str, ready: impl Fn(&Rig) -> bool) {
        let mut guard = 0;
        while !ready(rig) {
            rig.sim
                .run_until(rig.sim.now() + SimDuration::from_millis(1));
            guard += 1;
            assert!(guard < 20_000, "{what} never happened");
        }
    }

    /// Hand `msg` to `slot` as a cellular delivery from the controller,
    /// at the current instant.
    fn deliver_ctl<T: simkernel::Event>(rig: &mut Rig, slot: usize, msg: T) {
        let rx = NetRx {
            src: rig.ctl,
            bytes: 64,
            class: TrafficClass::Control,
            payload: payload(msg),
        };
        rig.sim.schedule_at(rig.sim.now(), rig.nodes[slot], rx);
    }

    /// On a rig whose A checkpoint takes three chunks, run until the
    /// first chunk has reached the receivers, then tear the job down at
    /// the sender alone: the receivers hold reception state for a phase
    /// whose last chunk, and `BlobDeliver`, never come.
    fn abandon_a_job_mid_flight(rig: &mut Rig) {
        feed(rig, 3, 100);
        rig.sim.run_until(SimTime::from_secs(5));
        assert_eq!(rx_in_flight(rig, 3), 0, "preservation jobs all finished");
        start_ckpt(rig, 5_000, 1);
        run_until_ready(rig, "A's first checkpoint chunk arriving", |rig| {
            rx_in_flight(rig, 3) > 0
        });
        deliver_ctl(rig, 1, RollbackTo { version: 0 });
        rig.sim
            .run_until(rig.sim.now() + SimDuration::from_secs(30));
        for slot in [0, 2, 3] {
            assert_eq!(
                rx_in_flight(rig, slot),
                1,
                "slot {slot} still holds the dead job"
            );
        }
    }

    /// Regression: receivers only ever freed reception state on
    /// `BlobDeliver`, so every job abandoned by a recovery stayed in
    /// their maps for the rest of the run.
    #[test]
    fn region_recovery_frees_abandoned_reception_state() {
        let mut rig = rig_with_padding(THREE_CHUNKS);
        abandon_a_job_mid_flight(&mut rig);
        for slot in 0..4 {
            deliver_ctl(&mut rig, slot, RollbackTo { version: 0 });
        }
        rig.sim.run_until(rig.sim.now() + SimDuration::from_secs(2));
        for slot in 0..4 {
            assert_eq!(
                rx_in_flight(&rig, slot),
                0,
                "slot {slot} after the recovery"
            );
        }
    }

    /// A sender the membership drops takes its reception state with
    /// it; other senders' jobs are untouched.
    #[test]
    fn membership_drop_evicts_the_departed_senders_jobs() {
        let mut rig = rig_with_padding(THREE_CHUNKS);
        abandon_a_job_mid_flight(&mut rig);
        let drop_slot = |slot| MembershipDelta {
            base_epoch: 0,
            epoch: 1,
            changes: Arc::new(vec![SlotChange {
                slot,
                active: false,
            }]),
        };
        deliver_ctl(&mut rig, 3, drop_slot(2)); // not the sender
        deliver_ctl(&mut rig, 0, drop_slot(1)); // the sender, A
        rig.sim.run_until(rig.sim.now() + SimDuration::from_secs(1));
        assert_eq!(
            rx_in_flight(&rig, 3),
            1,
            "another slot leaving frees nothing of A's"
        );
        assert_eq!(rx_in_flight(&rig, 0), 0, "A left: its job is evicted");
    }

    /// With every phase one chunk, no receiver holds reception state at
    /// any instant: the only chunk of a phase is also its last, and the
    /// reply ends the state it would have opened.
    #[test]
    fn single_chunk_phases_leave_no_reception_state() {
        let mut rig = rig();
        feed(&mut rig, 3, 100);
        start_ckpt(&mut rig, 600, 1);
        while rig.sim.now() < SimTime::from_secs(10) {
            rig.sim
                .run_until(rig.sim.now() + SimDuration::from_millis(1));
            for slot in 0..4 {
                assert_eq!(
                    rx_in_flight(&rig, slot),
                    0,
                    "slot {slot} at {:?}",
                    rig.sim.now()
                );
            }
        }
        for slot in [0, 2, 3] {
            let na = rig.sim.actor::<NodeActor>(rig.nodes[slot]);
            let snap = na.inner.store.snapshot(1);
            assert!(
                snap.iter().any(|&(op, ..)| op == dsps::graph::OpId(1)),
                "slot {slot} holds A's checkpoint"
            );
        }
    }

    /// A sender rolled back mid-phase drops its chunk queue and tags
    /// with its jobs, and the in-flight chunk's `TxDone` brings none
    /// back.
    #[test]
    fn rollback_mid_phase_drops_the_senders_bookkeeping() {
        let mut rig = rig_with_padding(THREE_CHUNKS);
        feed(&mut rig, 1, 100);
        start_ckpt(&mut rig, 600, 1);
        run_until_ready(&mut rig, "A's checkpoint phase starting", |rig| {
            sender_maps(rig, 1)[1] > 0
        });
        let [jobs, queues, batches, _] = sender_maps(&rig, 1);
        assert!(jobs > 0 && queues > 0 && batches > 0);
        deliver_ctl(&mut rig, 1, RollbackTo { version: 0 });
        rig.sim
            .run_until(rig.sim.now() + SimDuration::from_millis(1));
        assert_eq!(sender_maps(&rig, 1), [0; 4], "right after the rollback");
        rig.sim
            .run_until(rig.sim.now() + SimDuration::from_secs(30));
        assert_eq!(sender_maps(&rig, 1), [0; 4], "after the chunk in flight");
    }

    /// A batch that declares a different total while the receiver holds
    /// no pending bitmap for the job — the position of every later
    /// phase's first chunk — cannot be rejected at the receiver. It is
    /// still a counted protocol error: the reply has the wrong length,
    /// and the sender's length check counts it.
    #[test]
    fn total_mismatch_without_pending_state_is_counted_at_the_sender() {
        let mut rig = rig_with_padding(THREE_CHUNKS);
        start_ckpt(&mut rig, 600, 1);
        run_until_ready(&mut rig, "A's checkpoint job starting", |rig| {
            !scheme_of(rig, 1).jobs.is_empty()
        });
        assert_eq!(
            rx_in_flight(&rig, 3),
            0,
            "slot 3 holds nothing for the job yet"
        );
        let (&stream, job) = scheme_of(&rig, 1).jobs.iter().next().unwrap();
        let bogus = WifiBatchRx {
            src: rig.nodes[1],
            class: TrafficClass::Checkpoint,
            stream,
            total_blocks: job.n_blocks + 1,
            blocks: vec![0u32].into(),
            received: Bitmap::ones(1),
            reply_expected: true,
        };
        rig.sim.schedule_at(rig.sim.now(), rig.nodes[3], bogus);
        rig.sim
            .run_until(rig.sim.now() + SimDuration::from_secs(30));
        let errors: Vec<u64> = (0..4)
            .map(|slot| scheme_of(&rig, slot).stats.protocol_errors)
            .collect();
        assert_eq!(errors, [0, 1, 0, 0], "counted once, by the sender A");
    }

    /// A bitmap reply of the wrong length is a counted protocol error.
    #[test]
    fn wrong_length_bitmap_reply_is_a_protocol_error() {
        let mut rig = rig_with_padding(THREE_CHUNKS);
        abandon_a_job_mid_flight(&mut rig);
        // Start a fresh job at A and answer it with a 3-bit bitmap.
        start_ckpt(&mut rig, 40_000, 2);
        let a = rig.nodes[1];
        let job_of_a = |rig: &Rig| {
            let ms = scheme_of(rig, 1);
            (ms.jobs.keys().next().copied(), ms.stats.protocol_errors)
        };
        run_until_ready(&mut rig, "A's second job starting", |rig| {
            job_of_a(rig).0.is_some()
        });
        let (stream, errors) = job_of_a(&rig);
        let reply = NetRx {
            src: rig.nodes[3],
            bytes: 1,
            class: TrafficClass::Checkpoint,
            payload: payload(BitmapReply {
                stream: stream.unwrap(),
                received: Bitmap::zeros(3),
            }),
        };
        rig.sim.schedule_at(rig.sim.now(), a, reply);
        rig.sim
            .run_until(rig.sim.now() + SimDuration::from_millis(1));
        assert_eq!(job_of_a(&rig).1, errors + 1);
    }

    #[test]
    fn replay_marks_tuples_and_sink_squelches() {
        let mut rig = rig();
        feed(&mut rig, 3, 100);
        start_ckpt(&mut rig, 600, 1);
        rig.sim.run_until(SimTime::from_secs(10));
        feed(&mut rig, 3, 100); // epoch-1 inputs
        rig.sim.run_until(SimTime::from_secs(20));
        let before = rig
            .sim
            .actor::<NodeActor>(rig.nodes[2])
            .inner
            .metrics
            .sink_samples
            .len();
        // Replay epoch 1 at the source.
        let ctl = rig.ctl;
        let s_node = rig.nodes[0];
        rig.sim.schedule_at(
            rig.sim.now(),
            rig.cell,
            NetSend {
                src: ctl,
                dst: s_node,
                class: TrafficClass::Control,
                bytes: 64,
                tag: 0,
                payload: Some(payload(ReplayInputs { epoch: 1 })),
            },
        );
        rig.sim
            .run_until(rig.sim.now() + SimDuration::from_secs(10));
        let sink = rig.sim.actor::<NodeActor>(rig.nodes[2]);
        assert_eq!(
            sink.inner.metrics.sink_samples.len(),
            before,
            "replayed results are discarded, not re-published"
        );
        assert!(sink.inner.metrics.catchup_discards >= 3, "squelch counted");
    }

    #[test]
    fn null_scheme_node_ignores_tokens() {
        // A base-scheme node receiving a stray token just drops it.
        let mut sim = Sim::new(1);
        let mut g = QueryGraph::new();
        let s = g.add_op("S", dsps::graph::OpKind::Source, || {
            Box::new(Relay::new(SimDuration::from_millis(1)))
        });
        let k = g.add_op("K", dsps::graph::OpKind::Sink, || {
            Box::new(Relay::new(SimDuration::from_millis(1)))
        });
        g.connect(s, k);
        let graph = Arc::new(g);
        let wifi = sim.add_actor(Box::new(WifiMedium::new(WifiConfig::default())));
        let cell = sim.add_actor(Box::new(CellularNet::new(CellConfig::default())));
        let ctl = sim.add_actor(Box::<CtlStub>::default());
        let mut inner = NodeInner::new(NodeConfig::default(), graph, wifi, cell, ctl);
        inner.op_slot = vec![0, 0];
        inner.host_op(dsps::graph::OpId(0));
        inner.host_op(dsps::graph::OpId(1));
        inner.slot_actors = Arc::new(vec![simkernel::ActorId::from_index(3)]);
        let node = sim.add_actor(Box::new(NodeActor::new(inner, Box::new(NullScheme))));
        sim.actor_mut::<NodeActor>(node).inner.slot_actors = Arc::new(vec![node]);
        sim.schedule_at(
            SimTime::ZERO,
            node,
            dsps::node::ItemMsg {
                edge: dsps::graph::EdgeId(0),
                item: dsps::tuple::StreamItem::Marker(Marker::token(1)),
            },
        );
        sim.run_until(SimTime::from_secs(1));
        // No panic, nothing stuck.
        assert!(sim.actor::<NodeActor>(node).inner.paused.is_empty());
    }
}
