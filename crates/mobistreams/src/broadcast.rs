//! Broadcast-based checkpointing — the multi-phase UDP broadcast engine
//! of §III-C and Fig 6.
//!
//! A *job* replicates one logical blob (a node's checkpoint states, or
//! one preserved source input) to every other node in the region:
//!
//! 1. the blob is split into 1 KB blocks; all blocks are UDP-broadcast
//!    (one airtime slot reaches every receiver);
//! 2. at the end of each phase every receiver returns a bitmap — one
//!    bit per block of the whole job — marking the blocks that arrived
//!    since its last reply; the sender ORs it into its own cumulative
//!    bitmap for that receiver, so a phone keeps reception state for a
//!    job only while the job's current phase is arriving;
//! 3. the sender ANDs all bitmaps; blocks missing at *any* receiver
//!    form the next phase's rebroadcast set;
//! 4. after each phase the sender compares the phase's **cost** (bytes
//!    it sent plus bitmap bytes it received) with its **gain** (bytes
//!    newly received across all receivers); when cost exceeds gain, UDP
//!    stops;
//! 5. the residue is delivered reliably over a distribution tree (the
//!    "TCP phase"): data flows sender → root → leaves, each tree edge
//!    carrying the union of blocks missing in the subtree below it.
//!
//! [`SenderJob`] is a pure state machine (fully unit-testable — the
//! Fig 6 walk-through is reproduced exactly in the tests below);
//! [`crate::scheme::MsScheme`] glues it to the WiFi medium.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use simkernel::ActorId;
use simnet::bitmap::Bitmap;

use crate::msgs::BlobContent;

/// Hard cap on UDP phases per job (a safety net: cost/gain normally
/// stops the loop after 2–4 phases).
const MAX_PHASES: u32 = 16;

/// A malformed broadcast-protocol message. At fleet scale these MUST
/// surface instead of being silently ignored: a dropped checkpoint
/// block would otherwise go unnoticed until a rollback restores a
/// corrupt (incomplete) state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BroadcastError {
    /// A batch listed a block id beyond the job's total block count.
    BlockOutOfRange {
        /// Job id.
        stream: u64,
        /// Offending block id.
        block: u32,
        /// Total blocks the receiver sized the job at.
        total: u32,
    },
    /// A batch declared a different total block count than the one the
    /// receiver first saw for this job.
    TotalBlocksMismatch {
        /// Job id.
        stream: u64,
        /// Newly declared total.
        declared: u32,
        /// Total the receiver's pending bitmap was sized for.
        expected: u32,
    },
    /// A batch's reception bitmap does not have one bit per listed
    /// block.
    ReceptionLengthMismatch {
        /// Job id.
        stream: u64,
        /// Blocks the batch listed.
        blocks: usize,
        /// Bits in its reception bitmap.
        received: usize,
    },
}

impl std::fmt::Display for BroadcastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BroadcastError::BlockOutOfRange {
                stream,
                block,
                total,
            } => write!(
                f,
                "broadcast stream {stream}: block {block} out of range (job has {total} blocks)"
            ),
            BroadcastError::TotalBlocksMismatch {
                stream,
                declared,
                expected,
            } => write!(
                f,
                "broadcast stream {stream}: batch declares {declared} total blocks, job was sized at {expected}"
            ),
            BroadcastError::ReceptionLengthMismatch {
                stream,
                blocks,
                received,
            } => write!(
                f,
                "broadcast stream {stream}: batch lists {blocks} blocks but its reception bitmap has {received} bits"
            ),
        }
    }
}

impl std::error::Error for BroadcastError {}

/// What the sender must do next after a phase concludes.
#[derive(Debug, PartialEq, Eq)]
pub enum PhaseDecision {
    /// Rebroadcast these blocks (next UDP phase).
    Resend(Vec<u32>),
    /// UDP is no longer worth it; deliver each receiver's missing
    /// blocks over the TCP tree, then complete.
    TcpResidue(BTreeMap<ActorId, Vec<u32>>),
    /// Every receiver has every block; the job is complete.
    Complete,
}

/// Sender-side state of one replication job.
pub struct SenderJob {
    /// Job id (unique per sender).
    pub stream: u64,
    /// Logical content delivered at completion.
    pub content: BlobContent,
    /// Traffic class the job's sends are charged to (`Checkpoint` or
    /// `Preservation`; the medium's `NetStats` drive Fig 10b).
    pub class: simnet::stats::TrafficClass,
    /// Total blob size.
    pub total_bytes: u64,
    /// Number of 1 KB blocks.
    pub n_blocks: u32,
    block_bytes: u64,
    tail_bytes: u64,
    /// Cumulative reception bitmap per expected receiver.
    pub per_rx: BTreeMap<ActorId, Bitmap>,
    awaiting: Vec<ActorId>,
    replies_this_phase: u32,
    /// Current UDP phase (1-based).
    pub phase: u32,
    prev_recv_bytes: u64,
    sent_bytes_this_phase: u64,
    max_phases: u32,
    done: bool,
}

impl SenderJob {
    /// Create a job for `total_bytes` toward `expected` receivers.
    pub fn new(
        stream: u64,
        content: BlobContent,
        class: simnet::stats::TrafficClass,
        total_bytes: u64,
        block_bytes: u64,
        expected: Vec<ActorId>,
    ) -> Self {
        assert!(total_bytes > 0, "empty blob");
        assert!(block_bytes > 0);
        // simlint::allow(P001): job construction bound — blob sizes are config-bounded megabytes, >4T bytes is a programming error, and this runs before the job enters the event path
        let n_blocks = u32::try_from(total_bytes.div_ceil(block_bytes)).expect("blob too large");
        let tail = total_bytes - (n_blocks as u64 - 1) * block_bytes;
        let per_rx = expected
            .iter()
            .map(|&a| (a, Bitmap::zeros(n_blocks as usize)))
            .collect();
        SenderJob {
            stream,
            content,
            class,
            total_bytes,
            n_blocks,
            block_bytes,
            tail_bytes: tail,
            per_rx,
            awaiting: expected,
            replies_this_phase: 0,
            phase: 1,
            prev_recv_bytes: 0,
            sent_bytes_this_phase: 0,
            max_phases: MAX_PHASES,
            done: false,
        }
    }

    /// Has the job finished (Complete or TcpResidue issued)?
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Receivers the job still waits on this phase.
    pub fn awaiting(&self) -> &[ActorId] {
        &self.awaiting
    }

    /// Size of block `ix`.
    pub fn block_size(&self, ix: u32) -> u64 {
        if ix + 1 == self.n_blocks {
            self.tail_bytes
        } else {
            self.block_bytes
        }
    }

    /// Bytes a set of blocks occupies.
    pub fn bytes_of(&self, blocks: &[u32]) -> u64 {
        blocks.iter().map(|&b| self.block_size(b)).sum()
    }

    /// Wire size of one receiver bitmap (ceil(n/8), as in the paper:
    /// 8192 blocks → 1 KB bitmap).
    pub fn bitmap_wire_bytes(&self) -> u64 {
        (self.n_blocks as u64).div_ceil(8)
    }

    /// Blocks to broadcast in the first phase (all of them). Records
    /// the phase's sent bytes.
    pub fn begin(&mut self) -> Vec<u32> {
        let blocks: Vec<u32> = (0..self.n_blocks).collect();
        self.sent_bytes_this_phase = self.bytes_of(&blocks);
        blocks
    }

    /// Record that the given phase's rebroadcast was issued.
    fn note_resend(&mut self, blocks: &[u32]) {
        self.sent_bytes_this_phase = self.bytes_of(blocks);
        self.replies_this_phase = 0;
        self.awaiting = self.per_rx.keys().copied().collect();
    }

    /// Total bytes received across receivers so far.
    fn received_bytes(&self) -> u64 {
        // Only the last block may be shorter than `block_bytes`.
        let last = self.n_blocks as usize - 1;
        let tail_short = self.block_bytes - self.tail_bytes;
        self.per_rx
            .values()
            .map(|bm| {
                let full = bm.count_ones() as u64 * self.block_bytes;
                full - if bm.get(last) { tail_short } else { 0 }
            })
            .sum()
    }

    /// OR a receiver's reply (the blocks that arrived since its
    /// previous one) into its cumulative bitmap. Returns the next
    /// decision once all awaited receivers have replied.
    pub fn on_bitmap(&mut self, from: ActorId, bitmap: &Bitmap) -> Option<PhaseDecision> {
        if self.done {
            return None;
        }
        if let Some(cur) = self.per_rx.get_mut(&from) {
            if bitmap.len() == cur.len() {
                cur.or_assign(bitmap);
            }
        } else {
            return None; // unknown/already-dropped receiver
        }
        if let Some(pos) = self.awaiting.iter().position(|&a| a == from) {
            self.awaiting.swap_remove(pos);
            self.replies_this_phase += 1;
        }
        if self.awaiting.is_empty() {
            Some(self.evaluate())
        } else {
            None
        }
    }

    /// The bitmap deadline passed: drop silent receivers (they are dead
    /// or departed; the controller will deal with them) and evaluate.
    pub fn on_timeout(&mut self, phase: u32) -> Option<PhaseDecision> {
        if self.done || phase != self.phase || self.awaiting.is_empty() {
            return None;
        }
        let silent = std::mem::take(&mut self.awaiting);
        for a in silent {
            self.per_rx.remove(&a);
        }
        Some(self.evaluate())
    }

    /// Cost/gain decision at the end of a phase (§III-C).
    fn evaluate(&mut self) -> PhaseDecision {
        if self.per_rx.is_empty() {
            // Everyone vanished; nothing left to replicate to.
            self.done = true;
            return PhaseDecision::Complete;
        }
        let cur = self.received_bytes();
        // `cur` can shrink when a silent receiver was dropped from the
        // job; a vanished receiver is no gain.
        let gain = cur.saturating_sub(self.prev_recv_bytes);
        let cost =
            self.sent_bytes_this_phase + self.replies_this_phase as u64 * self.bitmap_wire_bytes();
        self.prev_recv_bytes = cur;

        let Some(anded) = Bitmap::and_all(self.per_rx.values()) else {
            // Defensive: per_rx emptied concurrently (checked above,
            // but a malformed message must never panic a phone).
            self.done = true;
            return PhaseDecision::Complete;
        };
        if anded.all_ones() {
            self.done = true;
            return PhaseDecision::Complete;
        }
        if cost > gain || self.phase >= self.max_phases {
            self.done = true;
            let residue: BTreeMap<ActorId, Vec<u32>> = self
                .per_rx
                .iter()
                .map(|(&a, bm)| {
                    (
                        a,
                        bm.zero_indices()
                            .into_iter()
                            .map(|i| i as u32)
                            .collect::<Vec<u32>>(),
                    )
                })
                .filter(|(_, v)| !v.is_empty())
                .collect();
            return PhaseDecision::TcpResidue(residue);
        }
        self.phase += 1;
        let resend: Vec<u32> = anded.zero_indices().into_iter().map(|i| i as u32).collect();
        self.note_resend(&resend);
        PhaseDecision::Resend(resend)
    }

    /// Remaining receivers (survivors) to deliver the blob to.
    pub fn receivers(&self) -> Vec<ActorId> {
        self.per_rx.keys().copied().collect()
    }
}

/// The distribution tree of the TCP phase.
///
/// Nodes are the job's receivers in deterministic order; the tree is
/// heap-shaped binary (`children(i) = 2i+1, 2i+2`), with the sender
/// attached above the root. Each edge carries the union of blocks
/// missing anywhere in the subtree below it.
pub fn tcp_tree_edges(
    residue: &BTreeMap<ActorId, Vec<u32>>,
    receivers: &[ActorId],
) -> Vec<(usize, usize, Vec<u32>)> {
    // Returns (parent_index, child_index, blocks); parent_index == usize::MAX
    // means the sender→root edge.
    let n = receivers.len();
    if n == 0 {
        return Vec::new();
    }
    // subtree_union[i] = union of missing blocks in subtree rooted at i.
    let mut subtree: Vec<Vec<u32>> = receivers
        .iter()
        .map(|a| residue.get(a).cloned().unwrap_or_default())
        .collect();
    for i in (0..n).rev() {
        for c in [2 * i + 1, 2 * i + 2] {
            if c < n {
                let child = subtree[c].clone();
                let merged = &mut subtree[i];
                merged.extend(child);
                merged.sort_unstable();
                merged.dedup();
            }
        }
    }
    let mut edges = Vec::new();
    if !subtree[0].is_empty() {
        edges.push((usize::MAX, 0, subtree[0].clone()));
    }
    for i in 0..n {
        for c in [2 * i + 1, 2 * i + 2] {
            if c < n && !subtree[c].is_empty() {
                edges.push((i, c, subtree[c].clone()));
            }
        }
    }
    edges
}

/// Receiver-side bookkeeping: per (sender, stream), the blocks that
/// arrived since this phone last reported to the sender.
///
/// Reception state for a job lives for one phase. [`Self::on_batch`]
/// folds a phase's earlier chunks into a pending bitmap;
/// [`Self::report`] folds the phase's last chunk in, drops the entry
/// and returns the bitmap the phone sends back. A reply therefore
/// carries what arrived since the last reply, not since the job began:
/// the sender ORs every reply into its own bitmap for that receiver
/// and starts no phase before it has merged the receiver's reply or
/// dropped the receiver, so its decisions are the same as with
/// whole-job bitmaps. An entry outlives its phase only when the phone
/// misses the phase's last chunk; [`Self::finish`],
/// [`Self::retain_senders`] and a rollback's reset free those.
#[derive(Default)]
pub struct ReceiverState {
    jobs: BTreeMap<(ActorId, u64), Bitmap>,
}

/// Check one batch against the job's pending bitmap, if there is one.
/// Returns the first block id when the ids are an ascending run (a
/// phase-1 chunk always is), `None` when they must be scattered.
///
/// A block id beyond the job's size, a `total_blocks` that disagrees
/// with the pending bitmap, or a reception bitmap that is not one bit
/// per listed block is a protocol error: silently skipping such blocks
/// (as an earlier version did) would let the sender believe a
/// checkpoint block was replicated when it never landed anywhere.
fn check_batch(
    stream: u64,
    total_blocks: u32,
    blocks: &[u32],
    received: &Bitmap,
    pending: Option<&Bitmap>,
) -> Result<Option<u32>, BroadcastError> {
    if received.len() != blocks.len() {
        return Err(BroadcastError::ReceptionLengthMismatch {
            stream,
            blocks: blocks.len(),
            received: received.len(),
        });
    }
    if let Some(pending) = pending {
        let expected = pending.len();
        if expected != total_blocks as usize {
            return Err(BroadcastError::TotalBlocksMismatch {
                stream,
                declared: total_blocks,
                expected: expected as u32,
            });
        }
    }
    // One pass: the largest id, and whether the ids are an ascending
    // run.
    let first = blocks.first().copied().unwrap_or(0);
    let (mut max, mut run) = (0u32, true);
    for (i, &b) in blocks.iter().enumerate() {
        max = max.max(b);
        run &= b == first.wrapping_add(i as u32);
    }
    if max >= total_blocks {
        if let Some(&block) = blocks.iter().find(|&&b| b >= total_blocks) {
            return Err(BroadcastError::BlockOutOfRange {
                stream,
                block,
                total: total_blocks,
            });
        }
    }
    Ok(run.then_some(first))
}

/// Set the bits of `blocks` that `received` marks as arrived.
fn fold_batch(bitmap: &mut Bitmap, blocks: &[u32], received: &Bitmap, run: Option<u32>) {
    match run {
        Some(first) => bitmap.or_shifted(received, first as usize),
        None => bitmap.or_scattered(received, blocks),
    }
}

impl ReceiverState {
    /// Fold one chunk of a phase into the job's pending bitmap; returns
    /// that bitmap.
    ///
    /// A malformed batch (see [`check_batch`]) is rejected whole — the
    /// pending state is left untouched, so a retransmission of a
    /// well-formed batch still works.
    pub fn on_batch(
        &mut self,
        src: ActorId,
        stream: u64,
        total_blocks: u32,
        blocks: &[u32],
        received: &Bitmap,
    ) -> Result<Bitmap, BroadcastError> {
        let entry = self.jobs.entry((src, stream));
        let pending = match &entry {
            Entry::Occupied(e) => Some(e.get()),
            Entry::Vacant(_) => None,
        };
        let run = check_batch(stream, total_blocks, blocks, received, pending)?;
        let bitmap = entry.or_insert_with(|| Bitmap::zeros(total_blocks as usize));
        fold_batch(bitmap, blocks, received, run);
        Ok(bitmap.clone())
    }

    /// Fold the last chunk of a phase in and end the phase: the job's
    /// pending entry, if any, is taken out, and the bitmap of every
    /// block that arrived since the last report is returned for the
    /// reply. A malformed batch is rejected as in [`Self::on_batch`],
    /// leaving the pending entry in place.
    pub fn report(
        &mut self,
        src: ActorId,
        stream: u64,
        total_blocks: u32,
        blocks: &[u32],
        received: &Bitmap,
    ) -> Result<Bitmap, BroadcastError> {
        let (run, pending) = match self.jobs.entry((src, stream)) {
            Entry::Occupied(e) => (
                check_batch(stream, total_blocks, blocks, received, Some(e.get()))?,
                Some(e.remove()),
            ),
            Entry::Vacant(_) => (
                check_batch(stream, total_blocks, blocks, received, None)?,
                None,
            ),
        };
        let mut bitmap = pending.unwrap_or_else(|| Bitmap::zeros(total_blocks as usize));
        fold_batch(&mut bitmap, blocks, received, run);
        Ok(bitmap)
    }

    /// Drop a finished job's state.
    pub fn finish(&mut self, src: ActorId, stream: u64) {
        self.jobs.remove(&(src, stream));
    }

    /// Drop the jobs of senders for which `live` is false (phones that
    /// left the region's membership mid-job).
    pub fn retain_senders(&mut self, live: impl Fn(ActorId) -> bool) {
        self.jobs.retain(|&(src, _), _| live(src));
    }

    /// Number of jobs with a pending bitmap (test/introspection).
    pub fn in_flight(&self) -> usize {
        self.jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsps::graph::OpId;
    use proptest::prelude::*;
    use simnet::stats::TrafficClass;

    impl SenderJob {
        /// Override the phase cap.
        fn with_max_phases(mut self, max: u32) -> Self {
            self.max_phases = max;
            self
        }
    }

    fn actor(i: usize) -> ActorId {
        ActorId::from_index(i)
    }

    fn ckpt_content() -> BlobContent {
        BlobContent::Checkpoint {
            version: 1,
            states: vec![(
                OpId(0),
                std::sync::Arc::new(()) as dsps::operator::OpState,
                0,
            )],
        }
    }

    fn mk_job(total_kb: u64, receivers: usize) -> SenderJob {
        SenderJob::new(
            7,
            ckpt_content(),
            TrafficClass::Checkpoint,
            total_kb * 1024,
            1024,
            (0..receivers).map(actor).collect(),
        )
    }

    /// Build a bitmap of n blocks where `f(i)` says bit i is set.
    fn bm(n: usize, f: impl Fn(usize) -> bool) -> Bitmap {
        let mut b = Bitmap::zeros(n);
        for i in 0..n {
            if f(i) {
                b.set(i, true);
            }
        }
        b
    }

    /// The exact Fig 6 walk-through: 8 MB blob, receivers A, B, C.
    ///
    /// Phase 1: A has first 3 blocks, B all "even messages"
    /// (M2,M4,… = odd 0-based indices), C all odd messages.
    /// Phase 2: A and B complete; C unchanged.
    /// Phase 3 (resend of evens): C gets all but M2 (index 1).
    #[test]
    fn fig6_walkthrough() {
        let n = 8192usize;
        let mut job = mk_job(8192, 3);
        let blocks = job.begin();
        assert_eq!(blocks.len(), n);
        assert_eq!(job.bitmap_wire_bytes(), 1024, "8192-bit bitmap = 1 KB");

        // Phase 1 bitmaps.
        let a1 = bm(n, |i| i < 3);
        let b1 = bm(n, |i| i % 2 == 1); // M2, M4, ... (1-based even)
        let c1 = bm(n, |i| i % 2 == 0); // M1, M3, ...
        assert!(job.on_bitmap(actor(0), &a1).is_none());
        assert!(job.on_bitmap(actor(1), &b1).is_none());
        let d1 = job.on_bitmap(actor(2), &c1).expect("phase 1 decision");
        // Gain 8195 KB = cost 8195 KB (8192 sent + 3 bitmaps) → continue,
        // resend everything (AND = zero).
        match d1 {
            PhaseDecision::Resend(blocks) => assert_eq!(blocks.len(), 8192),
            other => panic!("expected Resend, got {other:?}"),
        }
        assert_eq!(job.phase, 2);

        // Phase 2: A and B now have everything; C heard nothing new.
        let full = bm(n, |_| true);
        assert!(job.on_bitmap(actor(0), &full).is_none());
        assert!(job.on_bitmap(actor(1), &full).is_none());
        let d2 = job.on_bitmap(actor(2), &c1).expect("phase 2 decision");
        // Gain 12285 KB > cost 8195 KB → continue; AND = C's map, so the
        // resend set is the 4096 "even messages".
        match d2 {
            PhaseDecision::Resend(blocks) => {
                assert_eq!(blocks.len(), 4096);
                assert!(blocks.iter().all(|b| b % 2 == 1));
            }
            other => panic!("expected Resend, got {other:?}"),
        }
        assert_eq!(job.phase, 3);

        // Phase 3: C receives everything except M2 (index 1).
        assert!(job.on_bitmap(actor(0), &full).is_none());
        assert!(job.on_bitmap(actor(1), &full).is_none());
        let c3 = bm(n, |i| i != 1);
        let d3 = job.on_bitmap(actor(2), &c3).expect("phase 3 decision");
        // Gain 4095 KB < cost 4099 KB (4096 sent + 3 bitmaps) → TCP.
        match d3 {
            PhaseDecision::TcpResidue(residue) => {
                assert_eq!(residue.len(), 1);
                assert_eq!(residue[&actor(2)], vec![1u32]);
            }
            other => panic!("expected TcpResidue, got {other:?}"),
        }
        assert!(job.is_done());
        assert_eq!(job.phase, 3);
    }

    #[test]
    fn perfect_reception_completes_in_one_phase() {
        let mut job = mk_job(64, 2);
        job.begin();
        let full = bm(64, |_| true);
        assert!(job.on_bitmap(actor(0), &full).is_none());
        match job.on_bitmap(actor(1), &full).unwrap() {
            PhaseDecision::Complete => {}
            other => panic!("expected Complete, got {other:?}"),
        }
        assert!(job.is_done());
        assert_eq!(job.phase, 1);
    }

    #[test]
    fn tail_block_sizes() {
        let job = SenderJob::new(
            1,
            ckpt_content(),
            TrafficClass::Checkpoint,
            2500,
            1024,
            vec![actor(0)],
        );
        assert_eq!(job.n_blocks, 3);
        assert_eq!(job.block_size(0), 1024);
        assert_eq!(job.block_size(2), 452);
        assert_eq!(job.bytes_of(&[0, 1, 2]), 2500);
    }

    #[test]
    fn timeout_drops_stragglers() {
        let mut job = mk_job(16, 3);
        job.begin();
        let full = bm(16, |_| true);
        assert!(job.on_bitmap(actor(0), &full).is_none());
        assert!(job.on_bitmap(actor(1), &full).is_none());
        // actor(2) never replies.
        match job.on_timeout(1).unwrap() {
            PhaseDecision::Complete => {}
            other => panic!("expected Complete after dropping straggler, got {other:?}"),
        }
        assert_eq!(job.receivers(), vec![actor(0), actor(1)]);
        // Stale timeout is a no-op.
        assert!(job.on_timeout(1).is_none());
    }

    #[test]
    fn unknown_receiver_ignored() {
        let mut job = mk_job(4, 1);
        job.begin();
        assert!(job.on_bitmap(actor(9), &bm(4, |_| true)).is_none());
        assert!(!job.is_done());
    }

    #[test]
    fn max_phases_caps_the_loop() {
        let mut job = mk_job(4, 1).with_max_phases(2);
        job.begin();
        // Receiver never receives anything, yet gains stay 0 < cost, so
        // phase 1 already stops (cost > gain). Use a receiver that gets
        // exactly enough to keep gain ≥ cost once, then stalls.
        let d1 = job.on_bitmap(actor(0), &bm(4, |i| i < 3)).unwrap();
        match d1 {
            // gain = 3 KB, cost = 4 KB + bitmap → TCP immediately.
            PhaseDecision::TcpResidue(r) => assert_eq!(r[&actor(0)], vec![3u32]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tcp_tree_carries_subtree_unions() {
        let receivers = vec![actor(0), actor(1), actor(2), actor(3)];
        let mut residue = BTreeMap::new();
        residue.insert(actor(1), vec![5u32]);
        residue.insert(actor(3), vec![7u32, 9]);
        let edges = tcp_tree_edges(&residue, &receivers);
        // Tree: 0 root; children 1,2; 1's children 3.
        // Subtree(3) = {7,9}; subtree(1) = {5,7,9}; subtree(0) same.
        let find = |p: usize, c: usize| {
            edges
                .iter()
                .find(|(pp, cc, _)| *pp == p && *cc == c)
                .map(|(_, _, b)| b.clone())
        };
        assert_eq!(find(usize::MAX, 0).unwrap(), vec![5, 7, 9]);
        assert_eq!(find(0, 1).unwrap(), vec![5, 7, 9]);
        assert_eq!(find(1, 3).unwrap(), vec![7, 9]);
        assert!(find(0, 2).is_none(), "clean subtree gets no traffic");
    }

    /// §III-C termination: a phase whose cost exceeds its gain ends the
    /// UDP loop, and the final reliable pass carries exactly each
    /// receiver's missing blocks.
    #[test]
    fn cost_exceeding_gain_stops_rebroadcast_with_exact_residue() {
        // 4 KB blob → 4 blocks, 2 receivers.
        let mut job = mk_job(4, 2);
        let blocks = job.begin();
        assert_eq!(blocks.len(), 4);

        // Phase 1: both receivers caught 3 of 4 blocks → gain (6 KB)
        // well above cost (4 KB sent + 2 bitmaps) → rebroadcast the
        // union of losses {2, 3}.
        let r0 = bm(4, |i| i != 3); // missing 3
        let r1 = bm(4, |i| i != 2); // missing 2
        assert!(job.on_bitmap(actor(0), &r0).is_none());
        let d1 = job.on_bitmap(actor(1), &r1).expect("phase 1 decision");
        match d1 {
            PhaseDecision::Resend(blocks) => assert_eq!(blocks, vec![2, 3]),
            other => panic!("expected Resend, got {other:?}"),
        }
        assert_eq!(job.phase, 2);
        assert!(!job.is_done());

        // Phase 2: the rebroadcast reached nobody (same bitmaps). Gain
        // is 0 < cost → stop rebroadcasting; the reliable pass lists
        // exactly what each receiver still misses.
        assert!(job.on_bitmap(actor(0), &r0).is_none());
        let d2 = job.on_bitmap(actor(1), &r1).expect("phase 2 decision");
        match d2 {
            PhaseDecision::TcpResidue(residue) => {
                assert_eq!(residue.len(), 2);
                assert_eq!(residue[&actor(0)], vec![3]);
                assert_eq!(residue[&actor(1)], vec![2]);
            }
            other => panic!("expected TcpResidue, got {other:?}"),
        }
        assert!(job.is_done(), "cost > gain terminates the job");
        assert_eq!(job.phase, 2, "no further UDP phases");
    }

    /// Full reception everywhere completes the job with no residue and
    /// no further phases.
    #[test]
    fn complete_when_every_receiver_has_every_block() {
        let mut job = mk_job(4, 3);
        job.begin();
        let full = bm(4, |_| true);
        assert!(job.on_bitmap(actor(0), &full).is_none());
        assert!(job.on_bitmap(actor(1), &full).is_none());
        match job.on_bitmap(actor(2), &full).expect("decision") {
            PhaseDecision::Complete => {}
            other => panic!("expected Complete, got {other:?}"),
        }
        assert!(job.is_done());
        assert_eq!(job.phase, 1, "no further phases, nothing for the TCP pass");
    }

    /// The reliable (TCP-tree) pass covers the residue: every receiver's
    /// missing blocks ride every edge on its root path.
    #[test]
    fn reliable_pass_tree_carries_each_receivers_residue() {
        let receivers: Vec<ActorId> = (0..3).map(actor).collect();
        let mut residue = BTreeMap::new();
        residue.insert(receivers[1], vec![2u32, 5]);
        residue.insert(receivers[2], vec![7u32]);
        let edges = tcp_tree_edges(&residue, &receivers);
        // Receiver 1 and 2 are children of root 0 in the binary tree:
        // the edge into each must carry exactly its missing blocks.
        let mut into: BTreeMap<usize, &Vec<u32>> = BTreeMap::new();
        for (_, c, b) in &edges {
            into.insert(*c, b);
        }
        assert!(into[&1].contains(&2) && into[&1].contains(&5));
        assert!(into[&2].contains(&7));
        // The root (receiver 0) needs nothing, so no edge carries
        // blocks for it alone.
        for (_, c, blocks) in &edges {
            for b in blocks {
                let needed_below = residue.iter().any(|(_, v)| v.contains(b));
                assert!(needed_below, "edge into {c} carries stray block {b}");
            }
        }
    }

    /// The phase cap is a hard stop even while gain still beats cost:
    /// with 8 receivers each phase halves the residue (high gain), yet
    /// the job must fall to the reliable pass at the cap.
    #[test]
    fn max_phases_caps_the_udp_loop() {
        let n_rx = 8;
        let mut job = mk_job(8, n_rx).with_max_phases(3);
        job.begin();
        // Phase 1: everyone has the first half → gain 32 KB > cost
        // ~8 KB → Resend([4..8]).
        let mut have = 4usize;
        for r in 0..n_rx - 1 {
            assert!(job.on_bitmap(actor(r), &bm(8, |i| i < have)).is_none());
        }
        match job
            .on_bitmap(actor(n_rx - 1), &bm(8, |i| i < have))
            .unwrap()
        {
            PhaseDecision::Resend(blocks) => assert_eq!(blocks, vec![4, 5, 6, 7]),
            other => panic!("expected Resend, got {other:?}"),
        }
        // Phase 2: everyone gains two more → still worth it.
        have = 6;
        for r in 0..n_rx - 1 {
            assert!(job.on_bitmap(actor(r), &bm(8, |i| i < have)).is_none());
        }
        match job
            .on_bitmap(actor(n_rx - 1), &bm(8, |i| i < have))
            .unwrap()
        {
            PhaseDecision::Resend(blocks) => assert_eq!(blocks, vec![6, 7]),
            other => panic!("expected Resend, got {other:?}"),
        }
        // Phase 3: gain (8 KB) still beats cost (~2 KB), but the cap
        // forces the reliable pass; everyone still misses block 7.
        have = 7;
        for r in 0..n_rx - 1 {
            assert!(job.on_bitmap(actor(r), &bm(8, |i| i < have)).is_none());
        }
        match job
            .on_bitmap(actor(n_rx - 1), &bm(8, |i| i < have))
            .unwrap()
        {
            PhaseDecision::TcpResidue(res) => {
                assert_eq!(res.len(), n_rx);
                for r in 0..n_rx {
                    assert_eq!(res[&actor(r)], vec![7]);
                }
            }
            other => panic!("expected TcpResidue at the cap, got {other:?}"),
        }
        assert!(job.is_done());
        assert_eq!(job.phase, 3);
    }

    #[test]
    fn receiver_state_accumulates_across_phases() {
        let mut rx = ReceiverState::default();
        let src = actor(9);
        // Phase 1: blocks 0..4 broadcast, we catch 0 and 2.
        let got = bm(4, |i| i == 0 || i == 2);
        let cum = rx.on_batch(src, 1, 8, &[0, 1, 2, 3], &got).unwrap();
        assert_eq!(cum.count_ones(), 2);
        // Phase 2: blocks 4..8, we catch all.
        let cum = rx
            .on_batch(src, 1, 8, &[4, 5, 6, 7], &bm(4, |_| true))
            .unwrap();
        assert_eq!(cum.count_ones(), 6);
        assert_eq!(rx.in_flight(), 1);
        rx.finish(src, 1);
        assert_eq!(rx.in_flight(), 0);
    }

    /// Regression: a batch listing a block id beyond the job's size
    /// used to be silently skipped — the sender then believed the
    /// block was replicated even though it landed nowhere. It must be
    /// rejected as a protocol error, leaving the pending state
    /// untouched.
    #[test]
    fn receiver_state_rejects_out_of_range_block() {
        let mut rx = ReceiverState::default();
        let src = actor(9);
        let cum = rx.on_batch(src, 1, 8, &[0, 1], &bm(2, |_| true)).unwrap();
        assert_eq!(cum.count_ones(), 2);
        // Block 8 of an 8-block job does not exist.
        let err = rx
            .on_batch(src, 1, 8, &[7, 8], &bm(2, |_| true))
            .unwrap_err();
        assert_eq!(
            err,
            BroadcastError::BlockOutOfRange {
                stream: 1,
                block: 8,
                total: 8,
            }
        );
        // The malformed batch left the pending bitmap untouched
        // (block 7 from the bad batch must NOT have been applied).
        let cum = rx.on_batch(src, 1, 8, &[2], &bm(1, |_| true)).unwrap();
        assert_eq!(cum.count_ones(), 3);
        assert!(!cum.get(7), "partial application of a rejected batch");
    }

    /// Regression: a batch re-declaring a different job size must not
    /// silently drop the out-of-bounds tail of its blocks.
    #[test]
    fn receiver_state_rejects_total_blocks_mismatch() {
        let mut rx = ReceiverState::default();
        let src = actor(3);
        rx.on_batch(src, 5, 16, &[0], &bm(1, |_| true)).unwrap();
        let err = rx.on_batch(src, 5, 8, &[1], &bm(1, |_| true)).unwrap_err();
        assert_eq!(
            err,
            BroadcastError::TotalBlocksMismatch {
                stream: 5,
                declared: 8,
                expected: 16,
            }
        );
        assert!(err.to_string().contains("sized at 16"));
        // A fresh stream id is a fresh job and works fine.
        rx.on_batch(src, 6, 8, &[1], &bm(1, |_| true)).unwrap();
        assert_eq!(rx.in_flight(), 2);
    }

    /// A reception bitmap that is not one bit per listed block used to
    /// panic the phone inside `Bitmap::get`; it is a rejected batch.
    #[test]
    fn receiver_state_rejects_reception_length_mismatch() {
        let mut rx = ReceiverState::default();
        let src = actor(4);
        for wrong in [1usize, 3] {
            let err = rx
                .on_batch(src, 2, 8, &[0, 1], &bm(wrong, |_| true))
                .unwrap_err();
            assert_eq!(
                err,
                BroadcastError::ReceptionLengthMismatch {
                    stream: 2,
                    blocks: 2,
                    received: wrong,
                }
            );
            assert!(err.to_string().contains(&format!("{wrong} bits")));
        }
        assert_eq!(rx.in_flight(), 0, "a rejected first batch leaves no job");
    }

    #[test]
    fn receiver_state_retain_senders() {
        let mut rx = ReceiverState::default();
        for (sender, stream) in [(1, 1), (1, 2), (2, 1), (3, 9)] {
            rx.on_batch(actor(sender), stream, 4, &[0], &bm(1, |_| true))
                .unwrap();
        }
        rx.retain_senders(|a| a != actor(1));
        assert_eq!(rx.in_flight(), 2);
        // The surviving senders' pending state is intact.
        let cum = rx.on_batch(actor(2), 1, 4, &[1], &bm(1, |_| true)).unwrap();
        assert_eq!(cum.count_ones(), 2);
    }

    /// A phase's last chunk ends the receiver's state for the job: the
    /// reply carries the phase's chunks, the next phase starts empty.
    #[test]
    fn report_ends_the_phase() {
        let mut rx = ReceiverState::default();
        let src = actor(9);
        // Phase 1 in two chunks: the first is pending until the last.
        rx.on_batch(src, 1, 8, &[0, 1, 2, 3], &bm(4, |i| i == 0))
            .unwrap();
        assert_eq!(rx.in_flight(), 1);
        let reply = rx
            .report(src, 1, 8, &[4, 5, 6, 7], &bm(4, |i| i < 2))
            .unwrap();
        assert_eq!(reply, bm(8, |i| i == 0 || i == 4 || i == 5));
        assert_eq!(rx.in_flight(), 0);
        // Phase 2 in one chunk: only what arrived since the last reply.
        let reply = rx.report(src, 1, 8, &[1, 2], &bm(2, |i| i == 1)).unwrap();
        assert_eq!(reply, bm(8, |i| i == 2));
        assert_eq!(rx.in_flight(), 0);
    }

    /// A malformed last chunk is rejected like any batch and leaves the
    /// pending bitmap for a well-formed retransmission.
    #[test]
    fn report_rejects_a_malformed_last_chunk_and_keeps_the_phase() {
        let mut rx = ReceiverState::default();
        let src = actor(9);
        rx.on_batch(src, 1, 8, &[0, 1], &bm(2, |_| true)).unwrap();
        let err = rx.report(src, 1, 16, &[2], &bm(1, |_| true)).unwrap_err();
        assert_eq!(
            err,
            BroadcastError::TotalBlocksMismatch {
                stream: 1,
                declared: 16,
                expected: 8,
            }
        );
        let err = rx.report(src, 1, 8, &[8], &bm(1, |_| true)).unwrap_err();
        assert!(matches!(
            err,
            BroadcastError::BlockOutOfRange { block: 8, .. }
        ));
        let err = rx.report(src, 1, 8, &[2], &bm(2, |_| true)).unwrap_err();
        assert!(matches!(
            err,
            BroadcastError::ReceptionLengthMismatch { .. }
        ));
        assert_eq!(rx.in_flight(), 1);
        let reply = rx.report(src, 1, 8, &[2], &bm(1, |_| true)).unwrap();
        assert_eq!(reply, bm(8, |i| i < 3));
        assert_eq!(rx.in_flight(), 0);
    }

    /// The receiver as it was before the word-parallel rewrite: two
    /// lookups, a linear `find`, one `get`/`set` per block. Kept as the
    /// reference the fast path must equal, and — since it keeps one
    /// cumulative bitmap per job until the end — as the whole-job
    /// receiver the per-phase replies must be equivalent to.
    #[derive(Default)]
    struct ReferenceReceiver {
        jobs: BTreeMap<(ActorId, u64), Bitmap>,
    }

    impl ReferenceReceiver {
        fn on_batch(
            &mut self,
            src: ActorId,
            stream: u64,
            total_blocks: u32,
            blocks: &[u32],
            received: &Bitmap,
        ) -> Result<Bitmap, BroadcastError> {
            if received.len() != blocks.len() {
                return Err(BroadcastError::ReceptionLengthMismatch {
                    stream,
                    blocks: blocks.len(),
                    received: received.len(),
                });
            }
            if let Some(existing) = self.jobs.get(&(src, stream)) {
                if existing.len() != total_blocks as usize {
                    return Err(BroadcastError::TotalBlocksMismatch {
                        stream,
                        declared: total_blocks,
                        expected: existing.len() as u32,
                    });
                }
            }
            if let Some(&bad) = blocks.iter().find(|&&b| b >= total_blocks) {
                return Err(BroadcastError::BlockOutOfRange {
                    stream,
                    block: bad,
                    total: total_blocks,
                });
            }
            let cum = self
                .jobs
                .entry((src, stream))
                .or_insert_with(|| Bitmap::zeros(total_blocks as usize));
            for (i, &b) in blocks.iter().enumerate() {
                if received.get(i) {
                    cum.set(b as usize, true);
                }
            }
            Ok(cum.clone())
        }
    }

    /// `received_bytes` as it was: one `get` and one `block_size` per
    /// block per receiver.
    fn reference_received_bytes(job: &SenderJob) -> u64 {
        job.per_rx
            .values()
            .map(|bm| {
                (0..job.n_blocks)
                    .filter(|&b| bm.get(b as usize))
                    .map(|b| job.block_size(b))
                    .sum::<u64>()
            })
            .sum()
    }

    proptest! {
        /// Any sequence of batches — contiguous runs at offsets that are
        /// not multiples of 64, unsorted ids with repeats, out-of-range
        /// ids, wrong totals, wrong reception lengths — gives the same
        /// replies, the same errors and the same retained state as the
        /// bit-by-bit reference; a rejected batch changes nothing.
        #[test]
        fn prop_on_batch_matches_reference(
            total in 1u32..200,
            // Per batch: (stream, shape, run start, run length), then
            // (arbitrary ids, raw reception bits). Shape 0-2 = a
            // contiguous run that mostly fits the job, 3-5 = the
            // arbitrary ids (unsorted, repeats, some out of range),
            // 6 = wrong declared total, 7 = wrong reception length.
            specs in prop::collection::vec(
                (
                    (0u64..3, 0u8..8, 0u32..200, 0usize..150),
                    (
                        prop::collection::vec(0u32..210, 0..40),
                        prop::collection::vec(any::<bool>(), 1..70),
                    ),
                ),
                1..12,
            ),
        ) {
            let (mut fast, mut slow) = (ReceiverState::default(), ReferenceReceiver::default());
            let src = actor(5);
            for ((stream, shape, start, len), (ids, bits)) in &specs {
                let (stream, shape) = (*stream, *shape);
                let blocks: Vec<u32> = match shape {
                    3..=5 => ids.clone(),
                    _ => {
                        // Fits the job, or overruns it by one block.
                        let start = start % total;
                        let len = *len as u32 % (total - start + 2);
                        (start..start + len).collect()
                    }
                };
                let declared = if shape == 6 { total + 1 } else { total };
                let n_bits = if shape == 7 { blocks.len() + 1 } else { blocks.len() };
                let received = bm(n_bits, |i| bits[i % bits.len()]);
                let before = fast.jobs.clone();
                let got = fast.on_batch(src, stream, declared, &blocks, &received);
                let want = slow.on_batch(src, stream, declared, &blocks, &received);
                if got.is_err() {
                    prop_assert_eq!(&fast.jobs, &before, "a rejected batch touched state");
                }
                prop_assert_eq!(got, want);
                prop_assert_eq!(&fast.jobs, &slow.jobs);
            }
        }

        /// Per-phase replies drive a `SenderJob` exactly as whole-job
        /// cumulative replies do: the same decisions, the same bitmap
        /// per receiver and the same phase count. Random job sizes,
        /// chunkings and per-receiver losses; a receiver may fall
        /// silent in one phase — missing the phase's last chunk or
        /// losing its reply — be dropped at the timeout, and keep
        /// hearing (and answering) the later phases.
        #[test]
        fn prop_per_phase_replies_match_whole_job_replies(
            n_blocks in 1u32..400,
            chunk in 1usize..100,
            // Per receiver: loss %, the phase it falls silent in (0 =
            // never), and whether it loses its reply rather than the
            // last chunk.
            rxs in prop::collection::vec((0u32..90, 0u32..5, any::<bool>()), 1..6),
            seed in any::<u64>(),
        ) {
            let receivers: Vec<ActorId> = (0..rxs.len()).map(actor).collect();
            let new_job = || SenderJob::new(
                3, ckpt_content(), TrafficClass::Checkpoint,
                n_blocks as u64 * 1024, 1024, receivers.clone(),
            );
            let (mut want_job, mut got_job) = (new_job(), new_job());
            // One whole-job and one per-phase receiver state per phone.
            let mut whole: Vec<ReferenceReceiver> = rxs.iter().map(|_| Default::default()).collect();
            let mut per_phase: Vec<ReceiverState> = rxs.iter().map(|_| Default::default()).collect();
            let (src, stream) = (actor(99), 3);
            let mut rng = seed;
            let mut next = move || {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (rng >> 33) as u32 % 100
            };
            let mut blocks = want_job.begin();
            prop_assert_eq!(&got_job.begin(), &blocks);
            let mut phase = 1;
            loop {
                let chunks: Vec<&[u32]> = blocks.chunks(chunk).collect();
                let mut decision = None;
                for (r, &(loss, silent_in, loses_reply)) in rxs.iter().enumerate() {
                    let silent = silent_in == phase;
                    for (i, c) in chunks.iter().enumerate() {
                        let last = i + 1 == chunks.len();
                        if last && silent && !loses_reply {
                            break;
                        }
                        let bits: Vec<bool> = c.iter().map(|_| next() >= loss).collect();
                        let received = bm(c.len(), |i| bits[i]);
                        let cum = whole[r].on_batch(src, stream, n_blocks, c, &received).unwrap();
                        if !last {
                            per_phase[r].on_batch(src, stream, n_blocks, c, &received).unwrap();
                            continue;
                        }
                        let reply = per_phase[r].report(src, stream, n_blocks, c, &received).unwrap();
                        if silent {
                            continue;
                        }
                        let want = want_job.on_bitmap(receivers[r], &cum);
                        let got = got_job.on_bitmap(receivers[r], &reply);
                        prop_assert_eq!(&got, &want);
                        if want.is_some() {
                            decision = want;
                        }
                    }
                }
                if decision.is_none() {
                    let want = want_job.on_timeout(want_job.phase);
                    prop_assert_eq!(&got_job.on_timeout(got_job.phase), &want);
                    prop_assert!(want.is_some(), "a phase ended without a decision");
                    decision = want;
                }
                prop_assert_eq!(&got_job.per_rx, &want_job.per_rx);
                prop_assert_eq!(got_job.phase, want_job.phase);
                match decision {
                    Some(PhaseDecision::Resend(next_blocks)) => {
                        blocks = next_blocks;
                        phase += 1;
                    }
                    _ => break,
                }
            }
            prop_assert!(got_job.is_done() && want_job.is_done());
        }

        /// `count_ones` plus the tail correction equals summing block
        /// sizes bit by bit, with and without a short tail block, held
        /// or not.
        #[test]
        fn prop_received_bytes_matches_reference(
            n_blocks in 1u64..200,
            tail in 1u64..1025,
            n_rx in 1usize..5,
            seed in any::<u64>(),
        ) {
            let total = (n_blocks - 1) * 1024 + tail;
            let mut job = SenderJob::new(
                1, ckpt_content(), TrafficClass::Checkpoint, total, 1024,
                (0..n_rx).map(actor).collect(),
            );
            prop_assert_eq!(job.n_blocks as u64, n_blocks);
            let mut s = seed;
            for bm in job.per_rx.values_mut() {
                for i in 0..n_blocks as usize {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    bm.set(i, s >> 62 != 0);
                }
            }
            prop_assert_eq!(job.received_bytes(), reference_received_bytes(&job));
        }
    }

    proptest! {
        /// Random loss patterns: the job always terminates, and after
        /// the (simulated) TCP phase every surviving receiver has every
        /// block (received ∪ residue covers the blob).
        #[test]
        fn prop_terminates_and_covers(
            n_blocks in 1u64..200,
            n_rx in 1usize..6,
            seed in any::<u64>(),
            loss_pct in 0u32..95,
        ) {
            let mut job = SenderJob::new(
                1, ckpt_content(), TrafficClass::Checkpoint,
                n_blocks * 1024, 1024,
                (0..n_rx).map(actor).collect(),
            );
            let mut pending = job.begin();
            let mut rng = seed;
            let mut next = move || {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (rng >> 33) as u32 % 100
            };
            // Receiver-side cumulative state.
            let mut cum: Vec<Bitmap> =
                (0..n_rx).map(|_| Bitmap::zeros(n_blocks as usize)).collect();
            #[allow(unused_assignments)]
            let mut residue_map: Option<BTreeMap<ActorId, Vec<u32>>> = None;
            let mut rounds = 0;
            'outer: loop {
                rounds += 1;
                prop_assert!(rounds <= 20, "engine did not terminate");
                // Simulate the channel for this phase.
                for (r, c) in cum.iter_mut().enumerate() {
                    let _ = r;
                    for &b in &pending {
                        if next() >= loss_pct {
                            c.set(b as usize, true);
                        }
                    }
                }
                // Replies.
                for (r, c) in cum.iter().enumerate() {
                    if let Some(decision) = job.on_bitmap(actor(r), c) {
                        match decision {
                            PhaseDecision::Resend(blocks) => {
                                pending = blocks;
                                continue 'outer;
                            }
                            PhaseDecision::TcpResidue(res) => {
                                residue_map = Some(res);
                                break 'outer;
                            }
                            PhaseDecision::Complete => {
                                residue_map = Some(BTreeMap::new());
                                break 'outer;
                            }
                        }
                    }
                }
            }
            let residue = residue_map.unwrap();
            // Coverage: every receiver's cum ∪ residue = all blocks.
            for (r, c) in cum.iter().enumerate() {
                let missing: Vec<u32> = c
                    .zero_indices()
                    .into_iter()
                    .map(|i| i as u32)
                    .collect();
                let listed = residue.get(&actor(r)).cloned().unwrap_or_default();
                prop_assert_eq!(missing, listed);
            }
        }
    }
}

#[cfg(test)]
mod tree_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every receiver's missing blocks are carried by every edge on
        /// its root path (so the data actually reaches it), and no edge
        /// carries blocks nobody below it needs.
        #[test]
        fn prop_tree_covers_residues(
            n_rx in 1usize..10,
            missing in prop::collection::vec(prop::collection::vec(0u32..64, 0..8), 1..10),
        ) {
            let receivers: Vec<ActorId> = (0..n_rx).map(ActorId::from_index).collect();
            let mut residue = BTreeMap::new();
            for (i, m) in missing.iter().take(n_rx).enumerate() {
                if !m.is_empty() {
                    let mut mm = m.clone();
                    mm.sort_unstable();
                    mm.dedup();
                    residue.insert(receivers[i], mm);
                }
            }
            let edges = tcp_tree_edges(&residue, &receivers);
            // Edge map child -> blocks.
            let mut into: BTreeMap<usize, &Vec<u32>> = BTreeMap::new();
            for (_, c, b) in &edges {
                into.insert(*c, b);
            }
            for (i, _) in receivers.iter().enumerate() {
                let want = residue.get(&receivers[i]).cloned().unwrap_or_default();
                if want.is_empty() {
                    continue;
                }
                // Walk up from i to the root, ensuring every hop carries
                // the receiver's blocks.
                let mut cur = i;
                loop {
                    let carried = into.get(&cur).expect("edge into needy node");
                    for b in &want {
                        prop_assert!(carried.contains(b), "node {i} misses {b} at hop {cur}");
                    }
                    if cur == 0 {
                        break;
                    }
                    cur = (cur - 1) / 2;
                }
            }
            // No edge carries a block that no receiver in its subtree needs.
            for (_, c, blocks) in &edges {
                let mut subtree = vec![*c];
                let mut ix = 0;
                while ix < subtree.len() {
                    let s = subtree[ix];
                    for ch in [2 * s + 1, 2 * s + 2] {
                        if ch < receivers.len() {
                            subtree.push(ch);
                        }
                    }
                    ix += 1;
                }
                for b in blocks {
                    let needed = subtree.iter().any(|&s| {
                        residue.get(&receivers[s]).map(|m| m.contains(b)).unwrap_or(false)
                    });
                    prop_assert!(needed, "edge into {c} carries unneeded block {b}");
                }
            }
        }
    }
}
