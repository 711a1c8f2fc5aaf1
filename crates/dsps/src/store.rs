//! In-memory checkpoint and preservation storage.
//!
//! Every phone carries a [`CheckpointStore`]: versioned operator-state
//! snapshots plus the preserved source-input log since the most recent
//! checkpoint (MRC). In MobiStreams *every* node in a region holds a
//! copy ("this may seem like overkill, but is critical" — §III-B);
//! baselines use the same structure for local or peer copies.

use std::collections::BTreeMap;

use crate::graph::OpId;
use crate::operator::OpState;
use crate::tuple::Tuple;

/// Operator states with their modelled serialized sizes: what a node
/// checkpoint captures, the store keeps, the broadcast and the
/// baselines' copies carry, and an install restores — one type from
/// operator to wire to store.
pub type Snapshot = Vec<(OpId, OpState, u64)>;

/// A (per-node view of a) checkpoint version.
#[derive(Default)]
struct CheckpointVersion {
    /// Operator states captured in this version, with their sizes.
    states: BTreeMap<OpId, (OpState, u64)>,
    /// True once the whole region committed this version.
    complete: bool,
}

/// Preserved source input log for one source operator.
#[derive(Default, Clone)]
pub struct SourceLog {
    /// Tuples since MRC, in arrival order.
    pub tuples: Vec<Tuple>,
}

impl SourceLog {
    /// Bytes retained.
    pub fn bytes(&self) -> u64 {
        self.tuples.iter().map(|t| t.bytes).sum()
    }
}

/// Per-node durable storage (phone flash in the paper; plain memory in
/// the simulation — contents vanish when the node "fails", except for
/// the `local` baseline which models restartable nodes).
#[derive(Default)]
pub struct CheckpointStore {
    versions: BTreeMap<u64, CheckpointVersion>,
    source_logs: BTreeMap<(u64, OpId), SourceLog>,
    /// Total bytes ever written (storage-wear accounting).
    pub bytes_written: u64,
}

impl CheckpointStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one operator's state under `version`.
    pub fn put_state(&mut self, version: u64, op: OpId, state: OpState, bytes: u64) {
        let v = self.versions.entry(version).or_default();
        v.states.insert(op, (state, bytes));
        self.bytes_written += bytes;
    }

    /// Record every state of `snap` under `version`; returns the
    /// snapshot's total bytes.
    pub fn put_snapshot(&mut self, version: u64, snap: &[(OpId, OpState, u64)]) -> u64 {
        let mut total = 0;
        for (op, st, bytes) in snap {
            self.put_state(version, *op, st.clone(), *bytes);
            total += bytes;
        }
        total
    }

    /// Every state held for `version`, in operator order (empty if the
    /// version is unknown).
    pub fn snapshot(&self, version: u64) -> Snapshot {
        self.versions
            .get(&version)
            .map(|v| {
                v.states
                    .iter()
                    .map(|(&op, (st, bytes))| (op, st.clone(), *bytes))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Mark `version` complete (region-wide commit).
    pub fn mark_complete(&mut self, version: u64) {
        self.versions.entry(version).or_default().complete = true;
    }

    /// The newest complete version, if any.
    pub fn latest_complete(&self) -> Option<u64> {
        self.versions
            .iter()
            .rev()
            .find(|(_, v)| v.complete)
            .map(|(ver, _)| *ver)
    }

    /// Append a preserved source tuple for (`version`, `op`).
    pub fn preserve_input(&mut self, version: u64, op: OpId, tuple: Tuple) {
        let bytes = tuple.bytes;
        self.source_logs
            .entry((version, op))
            .or_default()
            .tuples
            .push(tuple);
        self.bytes_written += bytes;
    }

    /// The preserved log for (`version`, `op`).
    pub fn source_log(&self, version: u64, op: OpId) -> Option<&SourceLog> {
        self.source_logs.get(&(version, op))
    }

    /// Bytes currently retained in preserved source-input logs only
    /// (the paper's Fig 10a source-preservation metric).
    pub fn preserved_input_bytes(&self) -> u64 {
        self.source_logs.values().map(|l| l.bytes()).sum()
    }

    /// Move log entries for the given tuple ids from `old` to `new`
    /// epoch — used when a checkpoint token is emitted while inputs are
    /// still queued (they are post-token, so they belong to the new
    /// epoch's replay set).
    pub fn retag_inputs(
        &mut self,
        old: u64,
        new: u64,
        op: crate::graph::OpId,
        ids: &std::collections::BTreeSet<u64>,
    ) {
        if old == new || ids.is_empty() {
            return;
        }
        let Some(log) = self.source_logs.get_mut(&(old, op)) else {
            return;
        };
        let mut moved = Vec::new();
        log.tuples.retain(|t| {
            if ids.contains(&t.id) {
                moved.push(t.clone());
                false
            } else {
                true
            }
        });
        if !moved.is_empty() {
            self.source_logs
                .entry((new, op))
                .or_default()
                .tuples
                .extend(moved);
        }
    }

    /// Bytes currently retained (states of kept versions + logs).
    pub fn retained_bytes(&self) -> u64 {
        let states: u64 = self
            .versions
            .values()
            .flat_map(|v| v.states.values())
            .map(|(_, bytes)| bytes)
            .sum();
        let logs: u64 = self.source_logs.values().map(|l| l.bytes()).sum();
        states + logs
    }

    /// Drop all versions `< keep` and logs for epochs `< keep` — the
    /// paper keeps data only "until the next checkpoint of the region is
    /// completed".
    pub fn gc_before(&mut self, keep: u64) {
        self.versions.retain(|&v, _| v >= keep);
        self.source_logs.retain(|&(v, _), _| v >= keep);
    }

    /// Wipe everything (node failure without durable storage).
    pub fn wipe(&mut self) {
        self.versions.clear();
        self.source_logs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::op_state;
    use crate::tuple::value;
    use simkernel::SimTime;

    fn tup(id: u64, bytes: u64) -> Tuple {
        Tuple::new(id, SimTime::ZERO, bytes, value(()))
    }

    #[test]
    fn put_and_fetch_state() {
        let mut s = CheckpointStore::new();
        s.put_state(1, OpId(1), op_state(43u64), 200);
        assert_eq!(s.put_snapshot(1, &[(OpId(0), op_state(42u64), 100)]), 100);
        assert_eq!(s.retained_bytes(), 300);
        let snap = s.snapshot(1);
        let ops: Vec<_> = snap.iter().map(|&(op, _, bytes)| (op, bytes)).collect();
        assert_eq!(ops, [(OpId(0), 100), (OpId(1), 200)], "operator order");
        assert_eq!((*snap[0].1).as_any().downcast_ref::<u64>(), Some(&42));
        assert!(s.snapshot(2).is_empty());
        assert_eq!(s.bytes_written, 300);
    }

    #[test]
    fn latest_complete_skips_partial() {
        let mut s = CheckpointStore::new();
        s.put_state(1, OpId(0), op_state(()), 10);
        s.mark_complete(1);
        s.put_state(2, OpId(0), op_state(()), 10);
        // v2 not marked complete — recovery must use v1.
        assert_eq!(s.latest_complete(), Some(1));
        s.mark_complete(2);
        assert_eq!(s.latest_complete(), Some(2));
    }

    #[test]
    fn preservation_log_and_gc() {
        let mut s = CheckpointStore::new();
        s.preserve_input(1, OpId(0), tup(1, 50));
        s.preserve_input(1, OpId(0), tup(2, 50));
        s.preserve_input(2, OpId(0), tup(3, 70));
        assert_eq!(s.source_log(1, OpId(0)).unwrap().tuples.len(), 2);
        assert_eq!(s.source_log(1, OpId(0)).unwrap().bytes(), 100);
        assert_eq!(s.retained_bytes(), 170);
        s.gc_before(2);
        assert!(s.source_log(1, OpId(0)).is_none());
        assert_eq!(s.retained_bytes(), 70);
    }

    #[test]
    fn wipe_clears_but_keeps_wear_counter() {
        let mut s = CheckpointStore::new();
        s.put_state(1, OpId(0), op_state(()), 10);
        s.preserve_input(1, OpId(0), tup(1, 5));
        s.wipe();
        assert_eq!(s.retained_bytes(), 0);
        assert!(s.latest_complete().is_none());
        assert_eq!(s.bytes_written, 15);
    }

    #[test]
    fn empty_store() {
        let s = CheckpointStore::new();
        assert_eq!(s.latest_complete(), None);
        assert_eq!(s.retained_bytes(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::operator::op_state;
    use crate::tuple::value;
    use proptest::prelude::*;
    use simkernel::SimTime;

    proptest! {
        /// GC keeps exactly the versions/epochs ≥ keep and the retained
        /// byte count stays consistent with what survives.
        #[test]
        fn prop_gc_keeps_suffix(
            writes in prop::collection::vec((0u64..6, 0u32..3, 1u64..500), 1..40),
            keep in 0u64..6,
        ) {
            let mut s = CheckpointStore::new();
            for &(v, op, bytes) in &writes {
                s.put_state(v, OpId(op), op_state(()), bytes);
                s.preserve_input(v, OpId(op), Tuple::new(1, SimTime::ZERO, bytes, value(())));
            }
            let expect_states: u64 = {
                // put_state overwrites per (version, op): keep last write.
                let mut last = std::collections::BTreeMap::new();
                for &(v, op, bytes) in &writes {
                    last.insert((v, op), bytes);
                }
                last.iter().filter(|((v, _), _)| *v >= keep).map(|(_, &b)| b).sum()
            };
            let expect_logs: u64 = writes
                .iter()
                .filter(|&&(v, _, _)| v >= keep)
                .map(|&(_, _, b)| b)
                .sum();
            s.gc_before(keep);
            prop_assert_eq!(s.retained_bytes(), expect_states + expect_logs);
            prop_assert_eq!(s.preserved_input_bytes(), expect_logs);
            for &(v, op, _) in &writes {
                let held = s.snapshot(v).iter().any(|&(o, ..)| o == OpId(op));
                prop_assert_eq!(held, v >= keep);
            }
        }

        /// retag moves exactly the requested ids and loses nothing.
        #[test]
        fn prop_retag_is_lossless(
            n in 1usize..30,
            pick in prop::collection::vec(any::<bool>(), 1..30),
        ) {
            let n = n.min(pick.len());
            let mut s = CheckpointStore::new();
            for i in 0..n {
                s.preserve_input(1, OpId(0), Tuple::new(i as u64, SimTime::ZERO, 10, value(())));
            }
            let ids: std::collections::BTreeSet<u64> = (0..n as u64)
                .filter(|&i| pick[i as usize])
                .collect();
            s.retag_inputs(1, 2, OpId(0), &ids);
            let old = s.source_log(1, OpId(0)).map(|l| l.tuples.len()).unwrap_or(0);
            let new = s.source_log(2, OpId(0)).map(|l| l.tuples.len()).unwrap_or(0);
            prop_assert_eq!(old + new, n);
            prop_assert_eq!(new, ids.len());
        }
    }
}
