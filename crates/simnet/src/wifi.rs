//! The ad-hoc WiFi medium of one region.
//!
//! Model: a single shared, half-duplex channel. Every transmission —
//! unicast or broadcast — occupies the channel for its airtime, so all
//! traffic within a region serializes (no spatial reuse inside a
//! ≤ 20 m region, matching §III of the paper). Two services:
//!
//! * **Reliable unicast** ([`NetSend`], TCP): never lost to an
//!   `Active` receiver; costs extra airtime — the byte stream is
//!   expanded by the expected retransmission factor `1/(1-p)` plus
//!   per-frame ACK overhead. A send to a `Dead`/`Gone` node consumes
//!   one attempt's airtime and reports [`TxFailed`] after the timeout —
//!   this is how upstream neighbors detect failures.
//! * **Datagram batch** ([`WifiBatchSend`], UDP broadcast): the
//!   checkpoint broadcast sends thousands of 1 KB blocks back-to-back
//!   in one airtime slot that reaches every member; a batch collapses
//!   them into one event while sampling per-block, per-receiver iid
//!   loss exactly as individual one-frame datagrams would.
//!
//! The batch service has its own four legs:
//! [`WifiBatchSend`] (sender → medium) → [`WifiBatchRx`] (medium →
//! each receiver) → [`WifiBatchReply`] (receiver → medium, the
//! reception bitmap of the paper's Fig 6) → [`WifiBatchReplyRx`]
//! (medium → sender). A reply is charged exactly as a [`NetSend`] of
//! the bitmap's wire bytes: both go through one reliable-unicast
//! routine. It only skips the type-erased payload, which every
//! receiver would otherwise allocate and the sender probe by type.

use std::ops::Deref;
use std::sync::Arc;

use simkernel::{impl_actor_any, Actor, ActorId, Ctx, EventBox, SimDuration, SimRng};

use crate::bitmap::Bitmap;
use crate::link::{tx_time, RateQueue};
use crate::stats::{NetStats, TrafficClass};
use crate::{LinkState, NetRx, NetSend, SetLink, TxDone, TxFailed};

/// WiFi channel parameters. Defaults follow the paper's measured
/// 1–5 Mbps ad-hoc band (midpoint 2.5 Mbps) and typical 802.11 framing.
#[derive(Debug, Clone)]
pub struct WifiConfig {
    /// Channel bit rate in bits/s.
    pub rate_bps: f64,
    /// Per-frame, per-receiver loss probability.
    pub loss: f64,
    /// Per-frame MAC/PHY + IP/UDP header overhead in bytes.
    pub frame_overhead: u64,
    /// Maximum payload bytes per frame (fragmentation threshold).
    pub mtu: u64,
    /// ACK size charged per frame by the reliable service.
    pub ack_bytes: u64,
    /// How long a reliable sender retries before declaring the
    /// destination unreachable.
    pub reliable_timeout: SimDuration,
    /// Congestion bound: sends arriving when the channel backlog
    /// exceeds this are dropped (full send buffers — the bounded-queue
    /// behaviour of real stacks under overload).
    pub max_backlog: SimDuration,
    /// Congestion signaling: when the backlog crosses above this, the
    /// medium tells every member (sources then shed new frames at
    /// admission — sensor buffers overflow rather than mid-pipeline
    /// tuples vanishing).
    pub high_water: SimDuration,
    /// Backlog below this clears the congestion signal.
    pub low_water: SimDuration,
}

impl Default for WifiConfig {
    fn default() -> Self {
        WifiConfig {
            // Within the paper's measured 1-5 Mbps ad-hoc band, set so
            // the driving applications load the channel to ~75-80 %
            // under the base scheme (the regime where fault-tolerance
            // traffic becomes visible, as in Fig 8).
            rate_bps: 1_600_000.0,
            loss: 0.05,
            frame_overhead: 50,
            mtu: 1500,
            ack_bytes: 40,
            reliable_timeout: SimDuration::from_secs(2),
            max_backlog: SimDuration::from_secs(25),
            high_water: SimDuration::from_secs(3),
            low_water: SimDuration::from_millis(800),
        }
    }
}

impl WifiConfig {
    /// Frames needed for a `bytes`-byte message.
    pub fn frames(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.mtu).max(1)
    }

    /// Wire bytes for an unreliable send (payload + per-frame overhead).
    pub fn datagram_wire_bytes(&self, bytes: u64) -> u64 {
        bytes + self.frames(bytes) * self.frame_overhead
    }

    /// Wire bytes for a reliable send: datagram cost plus ACKs, expanded
    /// by the expected retransmission count.
    pub fn reliable_wire_bytes(&self, bytes: u64) -> u64 {
        let base = self.datagram_wire_bytes(bytes) + self.frames(bytes) * self.ack_bytes;
        let expansion = 1.0 / (1.0 - self.loss.min(0.99));
        (base as f64 * expansion).ceil() as u64
    }
}

/// Request: broadcast a batch of equal-size datagram blocks (the
/// checkpoint broadcast's workhorse). Each listed block is one frame.
#[derive(Debug)]
pub struct WifiBatchSend {
    /// Transmitting member.
    pub src: ActorId,
    /// Accounting class.
    pub class: TrafficClass,
    /// Sender-chosen stream id so receivers can correlate phases.
    pub stream: u64,
    /// Total blocks in the whole job (constant across phases; lets
    /// receivers size their reply bitmaps like the paper's).
    pub total_blocks: u32,
    /// Identifiers of the blocks in this batch. Shared (`Arc`) because
    /// the medium fans the same list out to every receiver.
    pub blocks: Arc<[u32]>,
    /// Total payload bytes across the listed blocks (the caller knows
    /// exact per-block sizes, including the smaller tail block).
    pub payload_bytes: u64,
    /// True on the last chunk of a phase: receivers send their bitmap
    /// reply only then (the paper queries "after all messages have
    /// been broadcast").
    pub reply_expected: bool,
    /// Completion tag; 0 = none.
    pub tag: u64,
}

/// Delivery of a batch to one receiver: which of the listed blocks
/// survived the channel for *this* receiver.
#[derive(Debug, Clone)]
pub struct WifiBatchRx {
    /// Transmitting member.
    pub src: ActorId,
    /// Traffic class of the job (receivers class their bitmap replies
    /// the same way, so Fig 10b accounting is complete).
    pub class: TrafficClass,
    /// Correlation id from the send.
    pub stream: u64,
    /// Total blocks in the whole job.
    pub total_blocks: u32,
    /// The block ids that were broadcast (shared across receivers).
    pub blocks: BatchBlocks,
    /// `received.get(i)` ⇔ `blocks[i]` arrived here.
    pub received: Bitmap,
    /// Reply with a bitmap now?
    pub reply_expected: bool,
}

/// Receiver → medium: the reception bitmap that answers one phase of
/// a batch job, sent reliably to the job's sender.
#[derive(Debug)]
pub struct WifiBatchReply {
    /// Replying receiver.
    pub src: ActorId,
    /// The job's sender.
    pub dst: ActorId,
    /// Traffic class of the job.
    pub class: TrafficClass,
    /// Correlation id of the job.
    pub stream: u64,
    /// The blocks that arrived since this receiver's previous reply;
    /// its [`Bitmap::wire_bytes`] are what the channel carries.
    pub received: Bitmap,
}

/// Delivery of a [`WifiBatchReply`] at the job's sender.
#[derive(Debug)]
pub struct WifiBatchReplyRx {
    /// Replying receiver.
    pub src: ActorId,
    /// Correlation id of the job.
    pub stream: u64,
    /// The receiver's bitmap.
    pub received: Bitmap,
}

/// What a receiver checks of a batch's block list, found in one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpan {
    /// The largest id (0 for an empty list).
    pub max: u32,
    /// The first id when the ids are an ascending run (a phase-1 chunk
    /// always is; an empty list counts as a run from 0).
    pub run_from: Option<u32>,
}

impl BlockSpan {
    /// Scan `blocks` once.
    pub fn of(blocks: &[u32]) -> Self {
        let first = blocks.first().copied().unwrap_or(0);
        let (mut max, mut run) = (0u32, true);
        for (i, &b) in blocks.iter().enumerate() {
            max = max.max(b);
            run &= b == first.wrapping_add(i as u32);
        }
        BlockSpan {
            max,
            run_from: run.then_some(first),
        }
    }
}

/// The block ids of one broadcast batch, shared by every receiver's
/// [`WifiBatchRx`] through one thin pointer, with their [`BlockSpan`]
/// found once per batch rather than once per receiver. The medium
/// wraps the send's `Arc<[u32]>` once per batch: a fat `Arc<[u32]>` is
/// 16 bytes and would push the event out of the event pool's 64-byte
/// size class.
#[derive(Debug, Clone)]
pub struct BatchBlocks(Arc<BlockList>);

#[derive(Debug)]
struct BlockList {
    ids: Arc<[u32]>,
    span: BlockSpan,
}

impl BatchBlocks {
    /// The list's largest id and run start.
    pub fn span(&self) -> BlockSpan {
        self.0.span
    }
}

impl Deref for BatchBlocks {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.0.ids
    }
}

impl From<Arc<[u32]>> for BatchBlocks {
    fn from(ids: Arc<[u32]>) -> Self {
        let span = BlockSpan::of(&ids);
        BatchBlocks(Arc::new(BlockList { ids, span }))
    }
}

impl From<Vec<u32>> for BatchBlocks {
    fn from(blocks: Vec<u32>) -> Self {
        Arc::<[u32]>::from(blocks).into()
    }
}

impl FromIterator<u32> for BatchBlocks {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        iter.into_iter().collect::<Arc<[u32]>>().into()
    }
}

/// Medium → members: channel congestion state changed. Source nodes
/// shed new sensor frames while congested (admission control).
#[derive(Debug, Clone, Copy)]
pub struct WifiCongestion {
    /// Congested?
    pub on: bool,
}

/// Internal: re-check whether the backlog drained below the low water
/// mark.
#[derive(Debug, Clone, Copy)]
struct DrainCheck;

/// Control: change the channel's frame-loss probability at runtime —
/// per-region loss *profiles* (interference ramps, crowd build-up)
/// schedule a sequence of these against the region's medium.
#[derive(Debug, Clone, Copy)]
pub struct WifiSetLoss {
    /// New per-frame, per-receiver loss probability. Clamped to
    /// `[0, 0.95]` so reliable-service retransmission expansion stays
    /// finite.
    pub loss: f64,
}

/// Control: region-wide AP brownout. While on, the channel's loss is
/// pinned at the brownout severity (every member suffers it at once —
/// the correlated outage of the paper's crowd scenarios); healing
/// restores whatever loss the profile had configured, including
/// [`WifiSetLoss`] updates that arrived during the brownout.
#[derive(Debug, Clone, Copy)]
pub struct WifiSetBrownout {
    /// `true` = brownout begins/retunes, `false` = heal.
    pub on: bool,
    /// Per-frame loss while the brownout lasts (clamped like
    /// [`WifiSetLoss`]); ignored on heal.
    pub loss: f64,
}

/// Per-block reception loss at one loss probability, with the
/// geometric skip's logarithm taken once: a batch samples every
/// receiver with one `Reception`.
struct Reception {
    loss: f64,
    /// Walk the drops (loss ≤ ½) rather than the receptions.
    drops_rare: bool,
    /// `ln(1 − p)` of the rarer outcome's probability `p`.
    ln_q: f64,
}

impl Reception {
    fn new(loss: f64) -> Self {
        let drops_rare = loss <= 0.5;
        let rare = if drops_rare { loss } else { 1.0 - loss };
        Reception {
            loss,
            drops_rare,
            ln_q: (1.0 - rare).ln(),
        }
    }

    /// Sample which of `n` broadcast blocks survive the channel for one
    /// receiver. Loss is iid Bernoulli per block, but sampled by
    /// geometric *skips* between the rarer outcome (one uniform per
    /// lost block instead of one per block), so the checkpoint
    /// broadcast's 8000-block batches cost O(n·loss) draws. `loss == 0`
    /// and `loss >= 1` never touch the RNG. Returns the reception
    /// bitmap and the number of lost blocks.
    fn sample(&self, n: usize, rng: &mut SimRng) -> (Bitmap, u64) {
        if self.loss <= 0.0 {
            return (Bitmap::ones(n), 0);
        }
        if self.loss >= 1.0 {
            return (Bitmap::zeros(n), n as u64);
        }
        // Walk the rarer outcome: from all-received clearing the drops,
        // or from all-lost setting the receptions.
        let drops_rare = self.drops_rare;
        let mut received = if drops_rare {
            Bitmap::ones(n)
        } else {
            Bitmap::zeros(n)
        };
        let mut hits = 0u64;
        let mut i = rng.geometric_ln(self.ln_q) as usize;
        while i < n {
            received.set(i, !drops_rare);
            hits += 1;
            i += 1 + rng.geometric_ln(self.ln_q) as usize;
        }
        let lost = if drops_rare { hits } else { n as u64 - hits };
        (received, lost)
    }
}

/// The shared channel of one region.
pub struct WifiMedium {
    cfg: WifiConfig,
    /// Every node ever given a link state, ascending: reception
    /// sampling and congestion signals go in this order.
    members: Vec<ActorId>,
    /// Link state by actor index; `Gone` past the end and for
    /// non-members.
    links: Vec<LinkState>,
    channel: RateQueue,
    stats: NetStats,
    congested: bool,
    /// `Some(base_loss)` while a brownout pins `cfg.loss`; the saved
    /// value is what heal restores.
    brownout: Option<f64>,
}

impl WifiMedium {
    /// New medium with the given channel parameters.
    pub fn new(cfg: WifiConfig) -> Self {
        let channel = RateQueue::new(cfg.rate_bps);
        WifiMedium {
            cfg,
            members: Vec::new(),
            links: Vec::new(),
            channel,
            stats: NetStats::default(),
            congested: false,
            brownout: None,
        }
    }

    /// Is the channel currently signaling congestion?
    pub fn is_congested(&self) -> bool {
        self.congested
    }

    /// After a reservation, raise/schedule congestion signaling.
    fn after_reserve(&mut self, ctx: &mut Ctx) {
        let backlog = self.channel.backlog(ctx.now());
        if !self.congested && backlog > self.cfg.high_water {
            self.congested = true;
            for &m in &self.members {
                ctx.send(m, WifiCongestion { on: true });
            }
            let delay = backlog.saturating_sub(self.cfg.low_water);
            let me = ctx.self_id();
            ctx.send_in(delay, me, DrainCheck);
        }
    }

    fn on_drain_check(&mut self, ctx: &mut Ctx) {
        if !self.congested {
            return;
        }
        let backlog = self.channel.backlog(ctx.now());
        if backlog <= self.cfg.low_water {
            self.congested = false;
            for &m in &self.members {
                ctx.send(m, WifiCongestion { on: false });
            }
        } else {
            let delay = backlog.saturating_sub(self.cfg.low_water);
            let me = ctx.self_id();
            ctx.send_in(delay, me, DrainCheck);
        }
    }

    /// Add a member in `Active` state (setup-time wiring).
    pub fn add_member(&mut self, node: ActorId) {
        self.set_link_state(node, LinkState::Active);
    }

    /// Set a member's link state directly (setup/fault-injection); an
    /// unknown node becomes a member.
    pub fn set_link_state(&mut self, node: ActorId, state: LinkState) {
        // The table is sized by the largest actor index it holds.
        assert!(node != ActorId::UNSET, "link state for ActorId::UNSET");
        if let Err(pos) = self.members.binary_search(&node) {
            self.members.insert(pos, node);
        }
        let ix = node.index();
        if ix >= self.links.len() {
            self.links.resize(ix + 1, LinkState::Gone);
        }
        self.links[ix] = state;
    }

    /// Change the channel loss probability (loss profiles). During a
    /// brownout the update lands on the *saved* base loss, so the
    /// profile's schedule survives the weather and is what heal
    /// restores.
    pub fn set_loss(&mut self, loss: f64) {
        let clamped = loss.clamp(0.0, 0.95);
        match &mut self.brownout {
            Some(base) => *base = clamped,
            None => self.cfg.loss = clamped,
        }
    }

    /// Begin/retune (`on = true`) or heal (`on = false`) a region-wide
    /// AP brownout.
    pub fn set_brownout(&mut self, on: bool, loss: f64) {
        match (on, self.brownout) {
            (true, None) => {
                self.brownout = Some(self.cfg.loss);
                self.cfg.loss = loss.clamp(0.0, 0.95);
            }
            (true, Some(_)) => self.cfg.loss = loss.clamp(0.0, 0.95),
            (false, Some(base)) => {
                self.cfg.loss = base;
                self.brownout = None;
            }
            (false, None) => {}
        }
    }

    /// Is a brownout currently pinning the channel loss?
    pub fn in_brownout(&self) -> bool {
        self.brownout.is_some()
    }

    /// Current link state (`Gone` if unknown).
    pub fn link_state(&self, node: ActorId) -> LinkState {
        self.links
            .get(node.index())
            .copied()
            .unwrap_or(LinkState::Gone)
    }

    /// Accounting.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Channel parameters.
    pub fn config(&self) -> &WifiConfig {
        &self.cfg
    }

    /// Charge one reliable unicast of `bytes` from `src` to `dst`: the
    /// routine [`NetSend`] and [`WifiBatchReply`] share. Returns the
    /// delay after which the message reaches `dst`, or `None` when it
    /// never does — the source is down, congestion dropped it, or `dst`
    /// is unreachable — having sent `tag`'s completion where one is
    /// due.
    fn reliable_unicast(
        &mut self,
        src: ActorId,
        dst: ActorId,
        class: TrafficClass,
        bytes: u64,
        tag: u64,
        ctx: &mut Ctx,
    ) -> Option<SimDuration> {
        if !self.link_state(src).reachable() {
            // Dead phones transmit nothing: the send never reached the
            // channel, so it is a reject, not a channel drop.
            self.stats.rejects += 1;
            return None;
        }
        let droppable = matches!(class, TrafficClass::Data | TrafficClass::Replication);
        if droppable && self.channel.backlog(ctx.now()) > self.cfg.max_backlog {
            // Congestion collapse guard: transient tuple buffers are
            // full; the message is lost (sender still sees a completion
            // — no false failure detection). Bulk checkpoint/recovery
            // transfers are persistent TCP streams: they queue instead,
            // and their cost surfaces as airtime that sheds new frames
            // at the sources.
            self.stats.drops += 1;
            if tag != 0 {
                ctx.send_in(self.cfg.max_backlog, src, TxDone { tag });
            }
            return None;
        }
        let wire = self.cfg.reliable_wire_bytes(bytes);
        let air = tx_time(wire, self.cfg.rate_bps);
        let (_, end) = self.channel.reserve_span(ctx.now(), air, wire);
        self.stats.record_send(class, bytes, wire, air);
        self.after_reserve(ctx);

        let delay = end - ctx.now();
        if !self.link_state(dst).reachable() {
            self.stats.failed_sends += 1;
            if tag != 0 {
                let when = delay.max(self.cfg.reliable_timeout);
                ctx.send_in(when, src, TxFailed { tag, dst });
            }
            return None;
        }
        Some(delay)
    }

    fn handle_send(&mut self, s: NetSend, ctx: &mut Ctx) {
        let NetSend {
            src,
            dst,
            class,
            bytes,
            tag,
            payload,
        } = s;
        let Some(delay) = self.reliable_unicast(src, dst, class, bytes, tag, ctx) else {
            return;
        };
        if let Some(payload) = payload {
            let rx = NetRx {
                src,
                bytes,
                class,
                payload,
            };
            ctx.send_in(delay, dst, rx);
        }
        if tag != 0 {
            ctx.send_in(delay, src, TxDone { tag });
        }
    }

    fn handle_reply(&mut self, r: WifiBatchReply, ctx: &mut Ctx) {
        let WifiBatchReply {
            src,
            dst,
            class,
            stream,
            received,
        } = r;
        let bytes = received.wire_bytes();
        if let Some(delay) = self.reliable_unicast(src, dst, class, bytes, 0, ctx) {
            let rx = WifiBatchReplyRx {
                src,
                stream,
                received,
            };
            ctx.send_in(delay, dst, rx);
        }
    }

    fn handle_batch(&mut self, b: WifiBatchSend, ctx: &mut Ctx) {
        if !self.link_state(b.src).reachable() {
            // Never reached the channel: a reject, not a channel drop
            // (and no airtime — a dead radio does not transmit).
            self.stats.rejects += 1;
            return;
        }
        if b.blocks.is_empty() {
            // Nothing to put on the air; complete the tag so callers'
            // in-flight bookkeeping can't wedge on a degenerate batch.
            self.stats.rejects += 1;
            if b.tag != 0 {
                ctx.send(b.src, TxDone { tag: b.tag });
            }
            return;
        }
        let n = b.blocks.len() as u64;
        let payload = b.payload_bytes;
        let wire = payload + n * self.cfg.frame_overhead;
        let air = tx_time(wire, self.cfg.rate_bps);
        // Airtime is charged once per batch, receivers or not: the
        // radio transmits (and congests the channel) regardless of who
        // is listening. Drops below are counted per receiver per lost
        // block — a receiverless broadcast therefore drops nothing.
        let (_, end) = self.channel.reserve_span(ctx.now(), air, wire);
        self.stats.record_send(b.class, payload, wire, air);
        self.after_reserve(ctx);
        let delay = end - ctx.now();

        let reception = Reception::new(self.cfg.loss);
        let blocks = BatchBlocks::from(b.blocks);
        // Receptions are sampled per reachable member, in member order.
        for &dst in &self.members {
            if dst == b.src || !self.links[dst.index()].reachable() {
                continue;
            }
            let (received, lost) = reception.sample(blocks.len(), ctx.rng());
            self.stats.drops += lost;
            ctx.send_in(
                delay,
                dst,
                WifiBatchRx {
                    src: b.src,
                    class: b.class,
                    stream: b.stream,
                    total_blocks: b.total_blocks,
                    blocks: blocks.clone(),
                    received,
                    reply_expected: b.reply_expected,
                },
            );
        }
        if b.tag != 0 {
            ctx.send_in(delay, b.src, TxDone { tag: b.tag });
        }
    }
}

impl Actor for WifiMedium {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        simkernel::match_event!(ev,
            s: NetSend => { self.handle_send(s, ctx); },
            b: WifiBatchSend => { self.handle_batch(b, ctx); },
            r: WifiBatchReply => { self.handle_reply(r, ctx); },
            l: SetLink => { self.set_link_state(l.node, l.state); },
            l: WifiSetLoss => { self.set_loss(l.loss); },
            b: WifiSetBrownout => { self.set_brownout(b.on, b.loss); },
            _d: DrainCheck => { self.on_drain_check(ctx); },
            @else _other => {
                // Unknown event types are counted, not fatal (PR 2
                // de-panicking convention): a stray message must not
                // take the whole region's channel down.
                self.stats.rejects += 1;
            }
        );
    }

    fn name(&self) -> String {
        "wifi-medium".into()
    }

    impl_actor_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::{Sim, SimTime};

    /// Collects everything delivered to it.
    #[derive(Default)]
    struct Sink {
        rx: Vec<(SimTime, u64)>,  // (when, bytes)
        batch: Vec<(u64, usize)>, // (stream, received count)
        replies: Vec<(SimTime, ActorId, u64, Bitmap)>,
        done: Vec<u64>,
        failed: Vec<u64>,
        congestion: Vec<bool>,
    }

    impl Actor for Sink {
        fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
            simkernel::match_event!(ev,
                r: NetRx => { self.rx.push((ctx.now(), r.bytes)); },
                b: WifiBatchRx => { self.batch.push((b.stream, b.received.count_ones())); },
                r: WifiBatchReplyRx => { self.replies.push((ctx.now(), r.src, r.stream, r.received)); },
                d: TxDone => { self.done.push(d.tag); },
                f: TxFailed => { self.failed.push(f.tag); },
                c: WifiCongestion => { self.congestion.push(c.on); },
                @else other => { panic!("unexpected {}", (*other).type_name()); }
            );
        }
        impl_actor_any!();
    }

    fn setup(loss: f64) -> (Sim, ActorId, Vec<ActorId>) {
        let mut sim = Sim::new(7);
        let nodes: Vec<ActorId> = (0..4)
            .map(|_| sim.add_actor(Box::<Sink>::default()))
            .collect();
        let mut medium = WifiMedium::new(WifiConfig {
            rate_bps: 1_000_000.0,
            loss,
            frame_overhead: 0,
            mtu: 1500,
            ack_bytes: 0,
            reliable_timeout: SimDuration::from_secs(2),
            max_backlog: SimDuration::from_secs(3600),
            high_water: SimDuration::from_secs(3600),
            low_water: SimDuration::from_secs(1800),
        });
        for &n in &nodes {
            medium.add_member(n);
        }
        let m = sim.add_actor(Box::new(medium));
        (sim, m, nodes)
    }

    /// A reliable unicast of `bytes` carrying an empty payload.
    fn send(src: ActorId, dst: ActorId, class: TrafficClass, bytes: u64, tag: u64) -> NetSend {
        NetSend {
            src,
            dst,
            class,
            bytes,
            tag,
            payload: Some(crate::payload(())),
        }
    }

    #[test]
    fn reliable_unicast_delivers_and_times_airtime() {
        let (mut sim, m, nodes) = setup(0.0);
        sim.schedule_at(
            SimTime::ZERO,
            m,
            NetSend {
                src: nodes[0],
                dst: nodes[1],
                class: TrafficClass::Data,
                bytes: 125_000, // 1 s at 1 Mbps
                tag: 42,
                payload: Some(crate::payload("hello")),
            },
        );
        sim.run();
        let rx = &sim.actor::<Sink>(nodes[1]).rx;
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0], (SimTime::from_secs(1), 125_000));
        assert_eq!(sim.actor::<Sink>(nodes[0]).done, vec![42]);
        // No one else heard it.
        assert!(sim.actor::<Sink>(nodes[2]).rx.is_empty());
    }

    /// A delivery fits the event pool's 64-byte size class, and every
    /// receiver of a batch reads the send's one block list.
    #[test]
    fn batch_delivery_holds_one_thin_handle() {
        let size = std::mem::size_of::<WifiBatchRx>();
        assert!(size <= 64, "WifiBatchRx is {size} bytes");
        let sent: Arc<[u32]> = (0..4).collect();
        let rx = BatchBlocks::from(Arc::clone(&sent));
        let other = rx.clone();
        assert_eq!(&*rx, &[0, 1, 2, 3]);
        assert!(std::ptr::eq(&*rx, &*sent) && std::ptr::eq(&*other, &*sent));
        assert_eq!(Arc::strong_count(&sent), 2, "one wrap per batch");
    }

    #[test]
    fn broadcast_reaches_all_active_members_once() {
        let (mut sim, m, nodes) = setup(0.0);
        sim.actor_mut::<WifiMedium>(m)
            .set_link_state(nodes[3], LinkState::Dead);
        sim.schedule_at(SimTime::ZERO, m, batch(nodes[0], (0..4).collect(), 1));
        sim.run();
        for &n in &nodes[1..3] {
            assert_eq!(sim.actor::<Sink>(n).batch, vec![(1, 4)], "{n:?}");
        }
        for n in [nodes[0], nodes[3]] {
            assert!(sim.actor::<Sink>(n).batch.is_empty(), "self or dead {n:?}");
        }
        // One airtime slot for two receivers: medium busy exactly once.
        let med = sim.actor::<WifiMedium>(m);
        assert_eq!(med.stats().messages(TrafficClass::Checkpoint), 1);
    }

    /// A bitmap reply costs exactly what a `NetSend` of its wire bytes
    /// costs: the same `NetStats`, the same channel backlog and the
    /// same delivery time — with both endpoints up, from a dead
    /// receiver (a reject) and to a dead sender (a failed send, no
    /// delivery).
    #[test]
    fn a_reply_costs_exactly_a_net_send_of_its_bitmap() {
        let mut bitmap = Bitmap::zeros(1000);
        for i in (0..1000).step_by(3) {
            bitmap.set(i, true);
        }
        for (down, want_rejects, want_failed) in [(None, 0, 0), (Some(1), 1, 0), (Some(0), 0, 1)] {
            let run = |typed: bool| {
                let (mut sim, m, nodes) = setup(0.2);
                // Traffic ahead of the reply, so it queues for airtime.
                sim.schedule_at(SimTime::ZERO, m, batch(nodes[2], (0..50).collect(), 0));
                if let Some(d) = down {
                    sim.actor_mut::<WifiMedium>(m)
                        .set_link_state(nodes[d], LinkState::Dead);
                }
                let (src, dst, class) = (nodes[1], nodes[0], TrafficClass::Checkpoint);
                let at = SimTime::from_millis(1);
                if typed {
                    let reply = WifiBatchReply {
                        src,
                        dst,
                        class,
                        stream: 9,
                        received: bitmap.clone(),
                    };
                    sim.schedule_at(at, m, reply);
                } else {
                    sim.schedule_at(at, m, send(src, dst, class, bitmap.wire_bytes(), 0));
                }
                sim.run_until(at);
                let med = sim.actor::<WifiMedium>(m);
                let (stats, backlog) = (med.stats().clone(), med.channel.backlog(at));
                sim.run();
                let sink = sim.actor::<Sink>(dst);
                let delivered: Vec<SimTime> = if typed {
                    for (_, from, stream, got) in &sink.replies {
                        assert_eq!((*from, *stream, got), (src, 9, &bitmap));
                    }
                    sink.replies.iter().map(|r| r.0).collect()
                } else {
                    sink.rx.iter().map(|r| r.0).collect()
                };
                (stats, backlog, delivered)
            };
            let (net, typed) = (run(false), run(true));
            assert_eq!(typed, net, "down = {down:?}");
            let (stats, _, delivered) = typed;
            assert_eq!(
                (stats.rejects, stats.failed_sends),
                (want_rejects, want_failed)
            );
            assert_eq!(
                delivered.len(),
                usize::from(down.is_none()),
                "down = {down:?}"
            );
        }
    }

    #[test]
    fn transmissions_serialize_on_the_channel() {
        let (mut sim, m, nodes) = setup(0.0);
        for tag in 1..=2 {
            sim.schedule_at(
                SimTime::ZERO,
                m,
                send(nodes[0], nodes[1], TrafficClass::Data, 125_000, tag),
            );
        }
        sim.run();
        let rx = &sim.actor::<Sink>(nodes[1]).rx;
        assert_eq!(rx[0].0, SimTime::from_secs(1));
        assert_eq!(
            rx[1].0,
            SimTime::from_secs(2),
            "second send queues behind first"
        );
    }

    #[test]
    fn reliable_to_dead_member_fails_after_timeout() {
        let (mut sim, m, nodes) = setup(0.0);
        sim.actor_mut::<WifiMedium>(m)
            .set_link_state(nodes[1], LinkState::Dead);
        sim.schedule_at(
            SimTime::ZERO,
            m,
            send(nodes[0], nodes[1], TrafficClass::Data, 100, 9),
        );
        sim.run();
        assert!(sim.actor::<Sink>(nodes[1]).rx.is_empty());
        assert_eq!(sim.actor::<Sink>(nodes[0]).failed, vec![9]);
        assert!(sim.now() >= SimTime::from_secs(2), "failure after timeout");
    }

    #[test]
    fn dead_sender_transmits_nothing() {
        let (mut sim, m, nodes) = setup(0.0);
        sim.actor_mut::<WifiMedium>(m)
            .set_link_state(nodes[0], LinkState::Dead);
        let to = |dst| send(nodes[0], dst, TrafficClass::Data, 100, 3);
        for &n in &nodes[1..] {
            sim.schedule_at(SimTime::ZERO, m, to(n));
        }
        sim.run();
        for &n in &nodes {
            assert!(sim.actor::<Sink>(n).rx.is_empty());
        }
        let sender = sim.actor::<Sink>(nodes[0]);
        assert!(sender.done.is_empty() && sender.failed.is_empty());
    }

    #[test]
    fn batch_samples_per_block_loss_and_reports_bitmap() {
        let (mut sim, m, nodes) = setup(0.5);
        sim.schedule_at(
            SimTime::ZERO,
            m,
            WifiBatchSend {
                src: nodes[0],
                class: TrafficClass::Checkpoint,
                stream: 77,
                total_blocks: 1000,
                blocks: (0..1000).collect(),
                payload_bytes: 1000 * 1024,
                reply_expected: true,
                tag: 5,
            },
        );
        sim.run();
        for &n in &nodes[1..] {
            let batch = &sim.actor::<Sink>(n).batch;
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].0, 77);
            let received = batch[0].1 as f64 / 1000.0;
            assert!(
                (received - 0.5).abs() < 0.08,
                "received fraction {received}"
            );
        }
        assert_eq!(sim.actor::<Sink>(nodes[0]).done, vec![5]);
        // Airtime charged once for the whole batch: 1000 * 1024 B at 1 Mbps ≈ 8.192 s.
        assert!((sim.now().as_secs_f64() - 8.192).abs() < 0.01);
    }

    fn batch(src: ActorId, blocks: Arc<[u32]>, tag: u64) -> WifiBatchSend {
        let n = blocks.len() as u64;
        WifiBatchSend {
            src,
            class: TrafficClass::Checkpoint,
            stream: 1,
            total_blocks: n as u32,
            blocks,
            payload_bytes: n * 1024,
            reply_expected: false,
            tag,
        }
    }

    #[test]
    fn rejected_sends_are_counted_not_dropped() {
        let (mut sim, m, nodes) = setup(0.0);
        sim.actor_mut::<WifiMedium>(m)
            .set_link_state(nodes[0], LinkState::Dead);
        // Dead source, unicast send.
        let unicast = send(nodes[0], nodes[1], TrafficClass::Data, 100, 0);
        sim.schedule_at(SimTime::ZERO, m, unicast);
        // Dead source, batch send.
        sim.schedule_at(SimTime::ZERO, m, batch(nodes[0], (0..10).collect(), 0));
        // Live source, degenerate empty batch.
        sim.schedule_at(SimTime::ZERO, m, batch(nodes[1], (0..0).collect(), 44));
        sim.run();
        let stats = sim.actor::<WifiMedium>(m).stats().clone();
        assert_eq!(stats.rejects, 3);
        assert_eq!(stats.drops, 0, "rejects must not inflate loss drops");
        assert_eq!(stats.total_wire_bytes(), 0, "rejects charge no bytes");
        assert_eq!(
            stats.busy_time,
            SimDuration::ZERO,
            "rejects burn no airtime"
        );
        for &n in &nodes {
            assert!(sim.actor::<Sink>(n).batch.is_empty());
        }
        // The empty batch still completes its tag so the sender's
        // in-flight window can't wedge.
        assert_eq!(sim.actor::<Sink>(nodes[1]).done, vec![44]);
    }

    #[test]
    fn zero_receiver_broadcast_charges_airtime_but_drops_nothing() {
        let (mut sim, m, nodes) = setup(0.5);
        for &n in &nodes[1..] {
            sim.actor_mut::<WifiMedium>(m)
                .set_link_state(n, LinkState::Dead);
        }
        sim.schedule_at(SimTime::ZERO, m, batch(nodes[0], (0..100).collect(), 9));
        sim.run();
        let stats = sim.actor::<WifiMedium>(m).stats().clone();
        // The radio transmitted: airtime and bytes are charged once.
        assert_eq!(stats.messages(TrafficClass::Checkpoint), 1);
        assert_eq!(stats.wire_bytes(TrafficClass::Checkpoint), 100 * 1024);
        assert!((sim.now().as_secs_f64() - 0.8192).abs() < 0.001);
        // Nobody was listening: no per-receiver loss is sampled, so no
        // drops (previously airtime was charged but drop accounting
        // diverged between this and the dead-source path).
        assert_eq!(stats.drops, 0);
        assert_eq!(stats.rejects, 0);
        assert_eq!(sim.actor::<Sink>(nodes[0]).done, vec![9]);
    }

    #[test]
    fn loss_extreme_batches_deliver_all_or_nothing() {
        // loss == 0.0: every receiver gets every block, zero drops.
        let (mut sim, m, nodes) = setup(0.0);
        sim.schedule_at(SimTime::ZERO, m, batch(nodes[0], (0..500).collect(), 1));
        sim.run();
        for &n in &nodes[1..] {
            assert_eq!(sim.actor::<Sink>(n).batch, vec![(1, 500)]);
        }
        assert_eq!(sim.actor::<WifiMedium>(m).stats().drops, 0);

        // loss == 1.0: every receiver gets the batch header with an
        // empty bitmap, and every block is counted dropped per receiver.
        let (mut sim, m, nodes) = setup(1.0);
        sim.schedule_at(SimTime::ZERO, m, batch(nodes[0], (0..500).collect(), 1));
        sim.run();
        for &n in &nodes[1..] {
            assert_eq!(sim.actor::<Sink>(n).batch, vec![(1, 0)]);
        }
        assert_eq!(sim.actor::<WifiMedium>(m).stats().drops, 3 * 500);
    }

    #[test]
    fn loss_extremes_never_touch_the_rng() {
        for loss in [0.0, 1.0] {
            let mut rng = SimRng::new(7);
            let mut untouched = SimRng::new(7);
            let (bm, lost) = Reception::new(loss).sample(1000, &mut rng);
            assert_eq!(bm.count_ones(), if loss == 0.0 { 1000 } else { 0 });
            assert_eq!(lost, if loss == 0.0 { 0 } else { 1000 });
            assert_eq!(
                rng.f64(),
                untouched.f64(),
                "loss={loss} must be RNG-free so toggling lossless links \
                 cannot perturb unrelated random streams"
            );
        }
    }

    #[test]
    fn reliable_costs_more_airtime_than_datagram() {
        let cfg = WifiConfig {
            loss: 0.2,
            frame_overhead: 50,
            ack_bytes: 40,
            ..WifiConfig::default()
        };
        let dg = cfg.datagram_wire_bytes(10_000);
        let rel = cfg.reliable_wire_bytes(10_000);
        assert!(rel > dg, "reliable {rel} vs datagram {dg}");
        // Expansion ≈ (10000 + 7*90) / 0.8
        let expect = ((10_000.0_f64 + 7.0 * 90.0) / 0.8).ceil() as u64;
        assert_eq!(rel, expect);
    }

    #[test]
    fn congestion_signals_high_and_low_water() {
        let mut sim = Sim::new(7);
        let a = sim.add_actor(Box::<Sink>::default());
        let b = sim.add_actor(Box::<Sink>::default());
        let mut medium = WifiMedium::new(WifiConfig {
            rate_bps: 1_000_000.0,
            loss: 0.0,
            frame_overhead: 0,
            mtu: 1500,
            ack_bytes: 0,
            reliable_timeout: SimDuration::from_secs(2),
            max_backlog: SimDuration::from_secs(60),
            high_water: SimDuration::from_secs(2),
            low_water: SimDuration::from_millis(500),
        });
        medium.add_member(a);
        medium.add_member(b);
        let m = sim.add_actor(Box::new(medium));
        // 4 s of airtime: crosses the 2 s high-water mark.
        for _ in 0..4 {
            sim.schedule_at(SimTime::ZERO, m, send(a, b, TrafficClass::Data, 125_000, 0));
        }
        sim.run();
        assert!(!sim.actor::<WifiMedium>(m).is_congested(), "drained by end");
        // Members saw an on-signal followed by an off-signal.
        let sigs = &sim.actor::<Sink>(b).congestion;
        assert_eq!(sigs.as_slice(), &[true, false], "{sigs:?}");
    }

    #[test]
    fn backlog_cap_drops_only_transient_classes() {
        let mut sim = Sim::new(7);
        let a = sim.add_actor(Box::<Sink>::default());
        let b = sim.add_actor(Box::<Sink>::default());
        let mut medium = WifiMedium::new(WifiConfig {
            rate_bps: 1_000_000.0,
            loss: 0.0,
            frame_overhead: 0,
            mtu: 1500,
            ack_bytes: 0,
            reliable_timeout: SimDuration::from_secs(2),
            max_backlog: SimDuration::from_millis(500),
            high_water: SimDuration::from_secs(3600),
            low_water: SimDuration::from_secs(1800),
        });
        medium.add_member(a);
        medium.add_member(b);
        let m = sim.add_actor(Box::new(medium));
        for class in [
            TrafficClass::Data,
            TrafficClass::Data,
            TrafficClass::Checkpoint,
        ] {
            // 1 s each; cap is 0.5 s backlog.
            sim.schedule_at(SimTime::ZERO, m, send(a, b, class, 125_000, 0));
        }
        sim.run();
        // First Data send transmits; second Data send is dropped by the
        // cap; the Checkpoint send queues despite the backlog.
        assert_eq!(sim.actor::<Sink>(b).rx.len(), 2);
        let med = sim.actor::<WifiMedium>(m);
        assert_eq!(med.stats().messages(TrafficClass::Checkpoint), 1);
        assert_eq!(med.stats().drops, 1);
    }

    #[test]
    fn set_loss_changes_channel_at_runtime() {
        let (mut sim, m, nodes) = setup(0.0);
        // Ramp the channel to (clamped) 95 % loss: a 100-block batch
        // loses almost every block at every receiver.
        sim.schedule_at(SimTime::ZERO, m, WifiSetLoss { loss: 2.0 });
        let at = SimTime::from_millis(1);
        sim.schedule_at(at, m, batch(nodes[0], (0..100).collect(), 0));
        sim.run();
        let med = sim.actor::<WifiMedium>(m);
        assert_eq!(med.config().loss, 0.95, "loss clamped to 0.95");
        for &n in &nodes[1..] {
            let got = sim.actor::<Sink>(n).batch[0].1;
            assert!(got < 20, "{got} of 100 blocks through 95 % loss");
        }
        // Back to lossless: every block arrives.
        sim.schedule_at(sim.now(), m, WifiSetLoss { loss: 0.0 });
        let at = sim.now() + SimDuration::from_millis(1);
        sim.schedule_at(at, m, batch(nodes[0], (0..100).collect(), 0));
        sim.run();
        for &n in &nodes[1..] {
            assert_eq!(sim.actor::<Sink>(n).batch[1].1, 100);
        }
    }

    #[test]
    fn brownout_pins_loss_and_heal_restores_profile_updates() {
        let (mut sim, m, _nodes) = setup(0.05);
        sim.schedule_at(
            SimTime::ZERO,
            m,
            WifiSetBrownout {
                on: true,
                loss: 2.0,
            },
        );
        // A loss profile fires mid-brownout: it must land on the saved
        // base, not the pinned brownout severity.
        sim.schedule_at(SimTime::from_secs(1), m, WifiSetLoss { loss: 0.2 });
        sim.run();
        let med = sim.actor::<WifiMedium>(m);
        assert!(med.in_brownout());
        assert_eq!(med.config().loss, 0.95, "brownout severity clamped");
        sim.schedule_at(
            sim.now(),
            m,
            WifiSetBrownout {
                on: false,
                loss: 0.0,
            },
        );
        sim.run();
        let med = sim.actor::<WifiMedium>(m);
        assert!(!med.in_brownout());
        assert_eq!(
            med.config().loss,
            0.2,
            "heal restores the profile's mid-brownout update"
        );
        // Double heal is a no-op.
        sim.schedule_at(
            sim.now(),
            m,
            WifiSetBrownout {
                on: false,
                loss: 0.0,
            },
        );
        sim.run();
        assert_eq!(sim.actor::<WifiMedium>(m).config().loss, 0.2);
    }

    mod sampling_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The geometric-skip fast path must be statistically
            /// indistinguishable from the per-block Bernoulli sampler it
            /// replaced: same Binomial(n, loss) lost-block count, and a
            /// bitmap consistent with that count.
            #[test]
            fn geometric_skip_matches_per_block_sampling(
                loss in 0.02f64..0.98,
                seed in 0u64..1u64 << 32,
            ) {
                let n = 4000usize;
                let mut rng = SimRng::new(seed);
                let (bm, lost) = Reception::new(loss).sample(n, &mut rng);
                prop_assert_eq!(bm.len(), n);
                prop_assert_eq!(bm.count_ones() as u64 + lost, n as u64);

                // Reference: the old one-chance()-per-block sampler.
                let mut reference = SimRng::new(seed ^ 0x5EED);
                let mut ref_lost = 0u64;
                for _ in 0..n {
                    if !reference.chance(1.0 - loss) {
                        ref_lost += 1;
                    }
                }
                // Both counts are Binomial(n, loss) draws; their
                // difference has variance 2·n·loss·(1-loss). 6σ (+2 for
                // tiny-variance corners) makes a false failure
                // astronomically unlikely.
                let sigma = (2.0 * n as f64 * loss * (1.0 - loss)).sqrt();
                let diff = (lost as f64) - (ref_lost as f64);
                prop_assert!(
                    diff.abs() <= 6.0 * sigma + 2.0,
                    "fast path lost {} vs per-block {} (loss {}, 6σ = {:.1})",
                    lost, ref_lost, loss, 6.0 * sigma
                );
            }

            /// Lost count is exact wrt the bitmap for every loss value,
            /// including the RNG-free extremes.
            #[test]
            fn sample_reception_count_is_consistent(
                // Past-1.0 values exercise the saturating all-lost path.
                loss in 0.0f64..1.25,
                n in 0usize..2000,
                seed in 0u64..1u64 << 32,
            ) {
                let mut rng = SimRng::new(seed);
                let (bm, lost) = Reception::new(loss).sample(n, &mut rng);
                prop_assert_eq!(bm.count_zeros() as u64, lost);
            }
        }
    }
}
