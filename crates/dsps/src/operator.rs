//! The [`Operator`] trait: user code executed repeatedly on input
//! tuples, with explicit state, cost and size models.
//!
//! Three concerns are deliberately separated:
//!
//! * `process` — the *actual* computation (kernels really run),
//! * `cost` — the simulated CPU time charged on the reference phone
//!   (an iPhone 3GS-class 600 MHz core in the paper's testbed),
//! * `state`/`state_bytes` — what checkpointing saves.
//!
//! # The checkpoint contract
//!
//! An operator exposes its checkpointed state once, through
//! [`Operator::state`]: a `&mut` to one `Clone` value (a field, or a
//! tuple of fields) or `None` when it is stateless. Every such value is
//! an [`OpStateCell`] by the blanket impl below: a snapshot is a clone
//! behind an [`OpState`], and a restore downcasts back to the same
//! type and overwrites the value — a snapshot of any other type (a
//! malformed install shipped over the network) is ignored, never a
//! panic. `state_bytes` is the modelled serialized size, and it is
//! nonzero for every operator of the paper's applications exactly when
//! `state` is `Some`. The node runtime is the only reader:
//! `NodeInner::{snapshot, restore}` turn the hosted operators into a
//! [`crate::store::Snapshot`] and back, and that one type travels
//! unchanged through the store, the broadcast and every install.

use std::sync::Arc;

use simkernel::{Event, SimDuration, SimRng};

use crate::tuple::{Tuple, TupleValue};

/// Opaque, shareable operator state snapshot.
pub type OpState = Arc<dyn Event>;

/// Make an [`OpState`] from a concrete state type.
pub fn op_state<T: Event>(st: T) -> OpState {
    Arc::new(st)
}

/// An operator's checkpointed state as the runtime reads and writes
/// it. Implemented for every `Clone` event type; operators never
/// implement it by hand.
pub trait OpStateCell {
    /// Copy the state out. The paper checkpoints asynchronously on a
    /// separate thread, so the copy must not alias the live value.
    fn snapshot(&self) -> OpState;

    /// Overwrite the state from a snapshot of the same type; a snapshot
    /// of any other type is ignored.
    fn restore(&mut self, st: &OpState);
}

impl<T: Event + Clone> OpStateCell for T {
    fn snapshot(&self) -> OpState {
        op_state(self.clone())
    }

    fn restore(&mut self, st: &OpState) {
        if let Some(s) = (**st).as_any().downcast_ref::<T>() {
            self.clone_from(s);
        }
    }
}

/// Output collector passed to [`Operator::process`].
#[derive(Default)]
pub struct Outputs {
    emitted: Vec<(usize, TupleValue, u64)>,
}

impl Outputs {
    /// Emit `value` (`bytes` on the wire) on output port `port`.
    pub fn emit(&mut self, port: usize, value: TupleValue, bytes: u64) {
        self.emitted.push((port, value, bytes));
    }

    /// Drain the collected outputs.
    pub fn drain(&mut self) -> Vec<(usize, TupleValue, u64)> {
        std::mem::take(&mut self.emitted)
    }

    /// Number of collected outputs.
    pub fn len(&self) -> usize {
        self.emitted.len()
    }

    /// True if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.emitted.is_empty()
    }
}

/// A stream operator.
pub trait Operator: Send {
    /// Process one tuple arriving on input `port`; emit any outputs.
    fn process(&mut self, tuple: &Tuple, port: usize, out: &mut Outputs, rng: &mut SimRng);

    /// CPU time this tuple costs on the reference phone core.
    fn cost(&self, tuple: &Tuple) -> SimDuration {
        let _ = tuple;
        SimDuration::from_micros(100)
    }

    /// Modelled serialized size of [`Operator::state`] (0 = stateless).
    fn state_bytes(&self) -> u64 {
        0
    }

    /// The checkpointed state (see the module docs), `None` if the
    /// operator is stateless.
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::value;
    use simkernel::SimTime;

    struct Doubler;
    impl Operator for Doubler {
        fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
            let x = *tuple.value_as::<u64>().expect("u64 input");
            out.emit(0, value(x * 2), 8);
        }
    }

    #[test]
    fn outputs_collect_and_drain() {
        let mut op = Doubler;
        let mut out = Outputs::default();
        let mut rng = SimRng::new(0);
        let t = Tuple::new(1, SimTime::ZERO, 8, value(21u64));
        op.process(&t, 0, &mut out, &mut rng);
        assert_eq!(out.len(), 1);
        let drained = out.drain();
        assert_eq!(drained.len(), 1);
        assert!(out.is_empty());
        let (port, v, bytes) = &drained[0];
        assert_eq!(*port, 0);
        assert_eq!(*bytes, 8);
        assert_eq!((**v).as_any().downcast_ref::<u64>(), Some(&42));
    }

    /// A stateless operator exposes no state and models none.
    #[test]
    fn default_trait_behaviour() {
        let mut op = Doubler;
        assert!(op.state().is_none());
        assert_eq!(op.state_bytes(), 0);
        let t = Tuple::new(1, SimTime::ZERO, 8, value(1u64));
        assert!(op.cost(&t) > SimDuration::ZERO);
    }

    /// Sums its inputs; the running sum is its whole state.
    struct Summer {
        sum: u64,
    }
    impl Operator for Summer {
        fn process(&mut self, tuple: &Tuple, _port: usize, _out: &mut Outputs, _rng: &mut SimRng) {
            self.sum += *tuple.value_as::<u64>().expect("u64 input");
        }
        fn state_bytes(&self) -> u64 {
            8
        }
        fn state(&mut self) -> Option<&mut dyn OpStateCell> {
            Some(&mut self.sum)
        }
    }

    fn feed(op: &mut dyn Operator, x: u64) {
        let t = Tuple::new(1, SimTime::ZERO, 8, value(x));
        op.process(&t, 0, &mut Outputs::default(), &mut SimRng::new(0));
    }

    #[test]
    fn state_round_trips_and_the_snapshot_does_not_alias() {
        let mut op = Summer { sum: 0 };
        feed(&mut op, 5);
        let snap = op.state().unwrap().snapshot();
        feed(&mut op, 7);
        assert_eq!(op.sum, 12);
        assert_eq!((*snap).as_any().downcast_ref::<u64>(), Some(&5));
        op.state().unwrap().restore(&snap);
        assert_eq!(op.sum, 5);
    }

    #[test]
    fn a_wrong_typed_state_is_ignored() {
        let mut op = Summer { sum: 9 };
        for wrong in [op_state(()), op_state(3u32), op_state("nine")] {
            op.state().unwrap().restore(&wrong);
            assert_eq!(op.sum, 9);
        }
    }
}
