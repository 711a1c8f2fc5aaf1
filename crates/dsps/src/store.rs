//! In-memory checkpoint and preservation storage.
//!
//! Every phone carries a [`CheckpointStore`]: versioned operator-state
//! snapshots plus the preserved source-input log since the most recent
//! checkpoint (MRC). In MobiStreams *every* node in a region holds a
//! copy ("this may seem like overkill, but is critical" — §III-B);
//! baselines use the same structure for local or peer copies.
//!
//! A copy is a pointer, not a clone: the receivers of one preserved
//! input share the single `Arc<Tuple>` the broadcast carried, and a
//! version's states share the operators' [`OpState`]s. The store holds
//! a few versions and epochs at a time (the region's commit garbage-
//! collects everything older), so both tables are flat vectors sorted
//! by key rather than maps.
//!
//! A store lives as long as its node actor: a crash (`Kill`) leaves it
//! intact, and a later install may restore from it through
//! [`crate::node::InstallStates::FromLocalStore`].

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::graph::OpId;
use crate::operator::OpState;
use crate::tuple::Tuple;

/// Operator states with their modelled serialized sizes: what a node
/// checkpoint captures, the store keeps, the broadcast and the
/// baselines' copies carry, and an install restores — one type from
/// operator to wire to store.
pub type Snapshot = Vec<(OpId, OpState, u64)>;

/// A (per-node view of a) checkpoint version.
struct CheckpointVersion {
    version: u64,
    /// Operator states captured in this version, sorted by operator.
    states: Snapshot,
    /// True once the whole region committed this version.
    complete: bool,
}

/// Preserved source input log for one source operator.
#[derive(Default, Clone)]
pub struct SourceLog {
    /// Tuples since MRC, in arrival order. A broadcast input is one
    /// allocation shared by every phone that received it.
    pub tuples: Vec<Arc<Tuple>>,
}

impl SourceLog {
    /// Bytes retained.
    pub fn bytes(&self) -> u64 {
        self.tuples.iter().map(|t| t.bytes).sum()
    }
}

/// Per-node durable storage (phone flash in the paper; plain memory in
/// the simulation).
#[derive(Default)]
pub struct CheckpointStore {
    /// Versions held, ascending.
    versions: Vec<CheckpointVersion>,
    /// Preserved logs, ascending by (epoch, op).
    source_logs: Vec<((u64, OpId), SourceLog)>,
    /// Total bytes ever written (storage-wear accounting).
    pub bytes_written: u64,
}

impl CheckpointStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `version` is held, or where it would be inserted.
    fn version_at(&self, version: u64) -> Result<usize, usize> {
        self.versions.binary_search_by_key(&version, |v| v.version)
    }

    /// Where the log for (`epoch`, `op`) is held, or where it would be
    /// inserted.
    fn log_at(&self, epoch: u64, op: OpId) -> Result<usize, usize> {
        self.source_logs
            .binary_search_by_key(&(epoch, op), |&(k, _)| k)
    }

    /// The entry for `version`, created incomplete and empty if absent.
    fn version_mut(&mut self, version: u64) -> &mut CheckpointVersion {
        let i = match self.version_at(version) {
            Ok(i) => i,
            Err(i) => {
                let fresh = CheckpointVersion {
                    version,
                    states: Vec::new(),
                    complete: false,
                };
                self.versions.insert(i, fresh);
                i
            }
        };
        &mut self.versions[i]
    }

    /// The log for (`epoch`, `op`), created empty if absent.
    fn log_mut(&mut self, epoch: u64, op: OpId) -> &mut SourceLog {
        let i = match self.log_at(epoch, op) {
            Ok(i) => i,
            Err(i) => {
                self.source_logs
                    .insert(i, ((epoch, op), SourceLog::default()));
                i
            }
        };
        &mut self.source_logs[i].1
    }

    /// Record one operator's state under `version`.
    pub fn put_state(&mut self, version: u64, op: OpId, state: OpState, bytes: u64) {
        let states = &mut self.version_mut(version).states;
        match states.binary_search_by_key(&op, |&(o, ..)| o) {
            Ok(i) => states[i] = (op, state, bytes),
            Err(i) => states.insert(i, (op, state, bytes)),
        }
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
        self.version_at(version)
            .map(|i| self.versions[i].states.clone())
            .unwrap_or_default()
    }

    /// Mark `version` complete (region-wide commit).
    pub fn mark_complete(&mut self, version: u64) {
        self.version_mut(version).complete = true;
    }

    /// The newest complete version, if any.
    pub fn latest_complete(&self) -> Option<u64> {
        self.versions
            .iter()
            .rev()
            .find(|v| v.complete)
            .map(|v| v.version)
    }

    /// Append a preserved source tuple for (`version`, `op`).
    pub fn preserve_input(&mut self, version: u64, op: OpId, tuple: Arc<Tuple>) {
        self.bytes_written += tuple.bytes;
        self.log_mut(version, op).tuples.push(tuple);
    }

    /// The preserved log for (`version`, `op`).
    pub fn source_log(&self, version: u64, op: OpId) -> Option<&SourceLog> {
        self.log_at(version, op)
            .ok()
            .map(|i| &self.source_logs[i].1)
    }

    /// Bytes currently retained in preserved source-input logs only
    /// (the paper's Fig 10a source-preservation metric).
    pub fn preserved_input_bytes(&self) -> u64 {
        self.source_logs.iter().map(|(_, l)| l.bytes()).sum()
    }

    /// Move log entries for the given tuple ids from `old` to `new`
    /// epoch — used when a checkpoint token is emitted while inputs are
    /// still queued (they are post-token, so they belong to the new
    /// epoch's replay set).
    pub fn retag_inputs(&mut self, old: u64, new: u64, op: OpId, ids: &BTreeSet<u64>) {
        if old == new || ids.is_empty() {
            return;
        }
        let Ok(i) = self.log_at(old, op) else {
            return;
        };
        let log = &mut self.source_logs[i].1.tuples;
        let moved: Vec<_> = log.extract_if(.., |t| ids.contains(&t.id)).collect();
        if !moved.is_empty() {
            self.log_mut(new, op).tuples.extend(moved);
        }
    }

    /// Bytes currently retained (states of kept versions + logs).
    pub fn retained_bytes(&self) -> u64 {
        let states: u64 = self
            .versions
            .iter()
            .flat_map(|v| &v.states)
            .map(|&(_, _, bytes)| bytes)
            .sum();
        states + self.preserved_input_bytes()
    }

    /// Drop all versions `< keep` and logs for epochs `< keep` — the
    /// paper keeps data only "until the next checkpoint of the region is
    /// completed".
    pub fn gc_before(&mut self, keep: u64) {
        let v = self.versions.partition_point(|v| v.version < keep);
        self.versions.drain(..v);
        let l = self
            .source_logs
            .partition_point(|&((epoch, _), _)| epoch < keep);
        self.source_logs.drain(..l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::op_state;
    use crate::tuple::value;
    use simkernel::SimTime;

    fn tup(id: u64, bytes: u64) -> Arc<Tuple> {
        Arc::new(Tuple::new(id, SimTime::ZERO, bytes, value(())))
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
    fn empty_store() {
        let s = CheckpointStore::new();
        assert_eq!(s.latest_complete(), None);
        assert_eq!(s.retained_bytes(), 0);
    }
}

/// The store as it was built on nested `BTreeMap`s, kept as the model
/// the flat store is checked against.
#[cfg(test)]
mod oracle {
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    use super::Snapshot;
    use crate::graph::OpId;
    use crate::operator::OpState;
    use crate::tuple::Tuple;

    #[derive(Default)]
    struct Version {
        states: BTreeMap<OpId, (OpState, u64)>,
        complete: bool,
    }

    #[derive(Default)]
    pub struct MapStore {
        versions: BTreeMap<u64, Version>,
        source_logs: BTreeMap<(u64, OpId), Vec<Arc<Tuple>>>,
        pub bytes_written: u64,
    }

    impl MapStore {
        pub fn put_state(&mut self, version: u64, op: OpId, state: OpState, bytes: u64) {
            let v = self.versions.entry(version).or_default();
            v.states.insert(op, (state, bytes));
            self.bytes_written += bytes;
        }

        pub fn put_snapshot(&mut self, version: u64, snap: &[(OpId, OpState, u64)]) -> u64 {
            let mut total = 0;
            for (op, st, bytes) in snap {
                self.put_state(version, *op, st.clone(), *bytes);
                total += bytes;
            }
            total
        }

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

        pub fn mark_complete(&mut self, version: u64) {
            self.versions.entry(version).or_default().complete = true;
        }

        pub fn latest_complete(&self) -> Option<u64> {
            self.versions
                .iter()
                .rev()
                .find(|(_, v)| v.complete)
                .map(|(ver, _)| *ver)
        }

        pub fn preserve_input(&mut self, version: u64, op: OpId, tuple: Arc<Tuple>) {
            self.bytes_written += tuple.bytes;
            self.source_logs
                .entry((version, op))
                .or_default()
                .push(tuple);
        }

        pub fn source_log(&self, version: u64, op: OpId) -> Option<&Vec<Arc<Tuple>>> {
            self.source_logs.get(&(version, op))
        }

        pub fn preserved_input_bytes(&self) -> u64 {
            self.source_logs.values().flatten().map(|t| t.bytes).sum()
        }

        pub fn retag_inputs(&mut self, old: u64, new: u64, op: OpId, ids: &BTreeSet<u64>) {
            if old == new || ids.is_empty() {
                return;
            }
            let Some(log) = self.source_logs.get_mut(&(old, op)) else {
                return;
            };
            let mut moved = Vec::new();
            log.retain(|t| {
                if ids.contains(&t.id) {
                    moved.push(Arc::clone(t));
                    false
                } else {
                    true
                }
            });
            if !moved.is_empty() {
                self.source_logs.entry((new, op)).or_default().extend(moved);
            }
        }

        pub fn retained_bytes(&self) -> u64 {
            let states: u64 = self
                .versions
                .values()
                .flat_map(|v| v.states.values())
                .map(|(_, bytes)| bytes)
                .sum();
            states + self.preserved_input_bytes()
        }

        pub fn gc_before(&mut self, keep: u64) {
            self.versions.retain(|&v, _| v >= keep);
            self.source_logs.retain(|&(v, _), _| v >= keep);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::oracle::MapStore;
    use super::*;
    use crate::operator::op_state;
    use crate::tuple::value;
    use proptest::prelude::*;
    use simkernel::SimTime;

    const VERSIONS: u64 = 6;
    const OPS: u32 = 3;

    /// Same contents, same order, same allocations.
    fn same_snapshot(a: &Snapshot, b: &Snapshot) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|((oa, sa, ba), (ob, sb, bb))| oa == ob && ba == bb && Arc::ptr_eq(sa, sb))
    }

    fn agree(s: &CheckpointStore, m: &MapStore) -> Result<(), String> {
        let check = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
        for v in 0..VERSIONS {
            check(
                same_snapshot(&s.snapshot(v), &m.snapshot(v)),
                format!("snapshot({v})"),
            )?;
            for op in (0..OPS).map(OpId) {
                let (got, want) = (s.source_log(v, op), m.source_log(v, op));
                let same = match (got, want) {
                    (None, None) => true,
                    (Some(g), Some(w)) => {
                        g.tuples.len() == w.len()
                            && g.tuples.iter().zip(w).all(|(a, b)| Arc::ptr_eq(a, b))
                    }
                    _ => false,
                };
                check(same, format!("source_log({v}, {op:?})"))?;
            }
        }
        check(
            s.latest_complete() == m.latest_complete(),
            "latest_complete".into(),
        )?;
        check(
            s.retained_bytes() == m.retained_bytes(),
            "retained_bytes".into(),
        )?;
        check(
            s.preserved_input_bytes() == m.preserved_input_bytes(),
            "preserved_input_bytes".into(),
        )?;
        check(s.bytes_written == m.bytes_written, "bytes_written".into())
    }

    proptest! {
        /// The flat store answers every query as the map store does,
        /// after every step of a random sequence of writes, commits,
        /// retags and collections.
        #[test]
        fn prop_flat_store_matches_the_map_model(
            steps in prop::collection::vec((0u32..6, 0..VERSIONS, 0..OPS, 1u64..500), 1..80),
        ) {
            let (mut s, mut m) = (CheckpointStore::new(), MapStore::default());
            let mut next_id = 0u64;
            for (i, &(kind, v, op, bytes)) in steps.iter().enumerate() {
                let op = OpId(op);
                match kind {
                    0 => {
                        let st = op_state(i as u64);
                        s.put_state(v, op, st.clone(), bytes);
                        m.put_state(v, op, st, bytes);
                    }
                    1 => {
                        // Up to three states, possibly naming one op twice.
                        let snap: Snapshot = (0..=op.0)
                            .map(|k| (OpId((op.0 + k * 2) % OPS), op_state(i as u64), bytes + k as u64))
                            .collect();
                        prop_assert_eq!(s.put_snapshot(v, &snap), m.put_snapshot(v, &snap));
                    }
                    2 => {
                        s.mark_complete(v);
                        m.mark_complete(v);
                    }
                    3 => {
                        s.gc_before(v);
                        m.gc_before(v);
                    }
                    4 => {
                        let t = Arc::new(Tuple::new(next_id, SimTime::ZERO, bytes, value(())));
                        next_id += 1;
                        s.preserve_input(v, op, Arc::clone(&t));
                        m.preserve_input(v, op, t);
                    }
                    _ => {
                        // Move every id ≡ bytes (mod 3) to a later epoch.
                        let ids: BTreeSet<u64> = (0..next_id).filter(|id| id % 3 == bytes % 3).collect();
                        let new = (v + 1 + bytes % 2).min(VERSIONS - 1);
                        s.retag_inputs(v, new, op, &ids);
                        m.retag_inputs(v, new, op, &ids);
                    }
                }
                prop_assert_eq!(agree(&s, &m), Ok(()), "step {} {:?}", i, (kind, v, op, bytes));
            }
        }

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
                s.preserve_input(v, OpId(op), Arc::new(Tuple::new(1, SimTime::ZERO, bytes, value(()))));
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
                s.preserve_input(1, OpId(0), Arc::new(Tuple::new(i as u64, SimTime::ZERO, 10, value(()))));
            }
            let ids: BTreeSet<u64> = (0..n as u64)
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
