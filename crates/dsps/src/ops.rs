//! Builtin operators: the small reusable vocabulary used by tests, the
//! quickstart example, and as building blocks inside the applications.

use std::collections::VecDeque;

use simkernel::{SimDuration, SimRng};

use crate::operator::{OpStateCell, Operator, Outputs};
use crate::tuple::{value, Tuple, TupleValue};

/// Forwards every input to every output port, unchanged. Stateless.
pub struct Relay {
    cost: SimDuration,
    fanout: usize,
}

impl Relay {
    /// Relay with one output port.
    pub fn new(cost: SimDuration) -> Self {
        Relay { cost, fanout: 1 }
    }

    /// Relay duplicating to `fanout` output ports.
    pub fn with_fanout(cost: SimDuration, fanout: usize) -> Self {
        Relay { cost, fanout }
    }
}

impl Operator for Relay {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        for port in 0..self.fanout {
            out.emit(port, tuple.value.clone(), tuple.bytes);
        }
    }

    fn cost(&self, _tuple: &Tuple) -> SimDuration {
        self.cost
    }
}

/// Applies a pure function to each tuple. Stateless.
#[allow(clippy::type_complexity)]
pub struct FnMap {
    f: Box<dyn Fn(&Tuple) -> Option<(TupleValue, u64)> + Send>,
    cost: SimDuration,
}

impl FnMap {
    /// Map each tuple through `f`; `None` filters the tuple out.
    pub fn new(
        cost: SimDuration,
        f: impl Fn(&Tuple) -> Option<(TupleValue, u64)> + Send + 'static,
    ) -> Self {
        FnMap {
            f: Box::new(f),
            cost,
        }
    }
}

impl Operator for FnMap {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        if let Some((v, bytes)) = (self.f)(tuple) {
            out.emit(0, v, bytes);
        }
    }

    fn cost(&self, _tuple: &Tuple) -> SimDuration {
        self.cost
    }
}

/// Counts tuples and periodically emits the running count. Stateful.
#[derive(Debug)]
pub struct Counter {
    /// Tuples seen since construction/restore.
    pub count: u64,
    emit_every: u64,
    cost: SimDuration,
    /// Extra bytes reported as state (models big model state riding
    /// along with small logical state — e.g. the paper's 8 MB node).
    pub state_padding: u64,
}

impl Counter {
    /// Counter that emits every `emit_every` inputs.
    pub fn new(cost: SimDuration, emit_every: u64) -> Self {
        Counter {
            count: 0,
            emit_every: emit_every.max(1),
            cost,
            state_padding: 0,
        }
    }

    /// Inflate the reported state size (checkpoint experiments).
    pub fn with_state_padding(mut self, bytes: u64) -> Self {
        self.state_padding = bytes;
        self
    }
}

impl Operator for Counter {
    fn process(&mut self, _tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        self.count += 1;
        if self.count.is_multiple_of(self.emit_every) {
            out.emit(0, value(self.count), 8);
        }
    }

    fn cost(&self, _tuple: &Tuple) -> SimDuration {
        self.cost
    }

    fn state_bytes(&self) -> u64 {
        8 + self.state_padding
    }

    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.count)
    }
}

/// Keeps tuples whose value passes a predicate. Stateless.
pub struct Filter {
    pred: Box<dyn Fn(&Tuple) -> bool + Send>,
    cost: SimDuration,
}

impl Filter {
    /// Filter by `pred`.
    pub fn new(cost: SimDuration, pred: impl Fn(&Tuple) -> bool + Send + 'static) -> Self {
        Filter {
            pred: Box::new(pred),
            cost,
        }
    }
}

impl Operator for Filter {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        if (self.pred)(tuple) {
            out.emit(0, tuple.value.clone(), tuple.bytes);
        }
    }

    fn cost(&self, _tuple: &Tuple) -> SimDuration {
        self.cost
    }
}

/// Two-input key join with bounded buffers. Stateful.
///
/// Tuples on each port are keyed by a caller-supplied extractor; when
/// both sides of a key have arrived, a combined output is emitted and
/// the entries are consumed. Buffers are FIFO-bounded to `window`.
#[allow(clippy::type_complexity)]
pub struct KeyJoin {
    key: Box<dyn Fn(&Tuple) -> u64 + Send>,
    combine: Box<dyn Fn(&Tuple, &Tuple) -> (TupleValue, u64) + Send>,
    window: usize,
    cost: SimDuration,
    /// Buffered `(key, tuple)` pairs per input port (the state).
    buffers: [VecDeque<(u64, Tuple)>; 2],
}

impl KeyJoin {
    /// Join port 0 and port 1 streams on a key.
    pub fn new(
        cost: SimDuration,
        window: usize,
        key: impl Fn(&Tuple) -> u64 + Send + 'static,
        combine: impl Fn(&Tuple, &Tuple) -> (TupleValue, u64) + Send + 'static,
    ) -> Self {
        KeyJoin {
            key: Box::new(key),
            combine: Box::new(combine),
            window: window.max(1),
            cost,
            buffers: Default::default(),
        }
    }

    /// Buffered tuples (test introspection).
    pub fn buffered(&self) -> (usize, usize) {
        (self.buffers[0].len(), self.buffers[1].len())
    }
}

impl Operator for KeyJoin {
    fn process(&mut self, tuple: &Tuple, port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        let k = (self.key)(tuple);
        let [left, right] = &mut self.buffers;
        let (mine, theirs) = if port == 0 {
            (left, right)
        } else {
            (right, left)
        };
        if let Some((_, other)) = theirs
            .iter()
            .position(|(ok, _)| *ok == k)
            .and_then(|pos| theirs.remove(pos))
        {
            let (l, r) = if port == 0 {
                (tuple, &other)
            } else {
                (&other, tuple)
            };
            let (v, bytes) = (self.combine)(l, r);
            out.emit(0, v, bytes);
        } else {
            mine.push_back((k, tuple.clone()));
            if mine.len() > self.window {
                mine.pop_front();
            }
        }
    }

    fn cost(&self, _tuple: &Tuple) -> SimDuration {
        self.cost
    }

    fn state_bytes(&self) -> u64 {
        self.buffers.iter().flatten().map(|(_, t)| t.bytes).sum()
    }

    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.buffers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::SimTime;

    fn t(id: u64, v: u64) -> Tuple {
        Tuple::new(id, SimTime::ZERO, 8, value(v))
    }

    fn run(op: &mut dyn Operator, tuple: &Tuple, port: usize) -> Vec<(usize, TupleValue, u64)> {
        let mut out = Outputs::default();
        let mut rng = SimRng::new(0);
        op.process(tuple, port, &mut out, &mut rng);
        out.drain()
    }

    #[test]
    fn relay_fans_out() {
        let mut r = Relay::with_fanout(SimDuration::from_millis(1), 3);
        let outs = run(&mut r, &t(1, 5), 0);
        assert_eq!(outs.len(), 3);
        assert_eq!(
            outs.iter().map(|(p, _, _)| *p).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn fnmap_transforms_and_filters() {
        let mut m = FnMap::new(SimDuration::ZERO, |t| {
            let x = *t.value_as::<u64>()?;
            (x % 2 == 0).then(|| (value(x + 1), 8))
        });
        assert_eq!(run(&mut m, &t(1, 4), 0).len(), 1);
        assert!(run(&mut m, &t(2, 5), 0).is_empty());
    }

    #[test]
    fn counter_emits_periodically_and_snapshots() {
        let mut c = Counter::new(SimDuration::ZERO, 3);
        assert!(run(&mut c, &t(1, 0), 0).is_empty());
        assert!(run(&mut c, &t(2, 0), 0).is_empty());
        let outs = run(&mut c, &t(3, 0), 0);
        assert_eq!(outs.len(), 1);
        assert_eq!(c.count, 3);

        let snap = c.state().unwrap().snapshot();
        run(&mut c, &t(4, 0), 0);
        assert_eq!(c.count, 4);
        c.state().unwrap().restore(&snap);
        assert_eq!(c.count, 3);
    }

    #[test]
    fn counter_state_padding_inflates_size() {
        let mut c = Counter::new(SimDuration::ZERO, 1).with_state_padding(1 << 20);
        assert_eq!(c.state_bytes(), 8 + (1 << 20));
        assert!(c.state().is_some());
    }

    #[test]
    fn filter_passes_predicate() {
        let mut f = Filter::new(SimDuration::ZERO, |t| *t.value_as::<u64>().unwrap() > 10);
        assert!(run(&mut f, &t(1, 5), 0).is_empty());
        assert_eq!(run(&mut f, &t(2, 15), 0).len(), 1);
    }

    #[test]
    fn keyjoin_matches_across_ports() {
        let mut j = KeyJoin::new(
            SimDuration::ZERO,
            16,
            |t| *t.value_as::<u64>().unwrap() / 10, // key = tens digit
            |l, r| {
                let s = l.value_as::<u64>().unwrap() + r.value_as::<u64>().unwrap();
                (value(s), 8)
            },
        );
        assert!(run(&mut j, &t(1, 42), 0).is_empty(), "no partner yet");
        assert_eq!(j.buffered(), (1, 0));
        let outs = run(&mut j, &t(2, 43), 1);
        assert_eq!(outs.len(), 1);
        assert_eq!((*outs[0].1).as_any().downcast_ref::<u64>(), Some(&85));
        assert_eq!(j.buffered(), (0, 0), "matched entries consumed");
    }

    #[test]
    fn keyjoin_window_bounds_buffers() {
        let mut j = KeyJoin::new(
            SimDuration::ZERO,
            2,
            |t| *t.value_as::<u64>().unwrap(),
            |_, _| (value(()), 1),
        );
        for v in 0..5 {
            run(&mut j, &t(v, v), 0);
        }
        assert_eq!(j.buffered().0, 2, "window evicts oldest");
    }

    #[test]
    fn keyjoin_snapshot_restores_buffers() {
        let mut j = KeyJoin::new(
            SimDuration::ZERO,
            8,
            |t| *t.value_as::<u64>().unwrap(),
            |_, _| (value(()), 1),
        );
        run(&mut j, &t(1, 10), 0);
        run(&mut j, &t(2, 20), 1);
        let snap = j.state().unwrap().snapshot();
        assert!(j.state_bytes() >= 16);
        run(&mut j, &t(3, 10), 1); // consumes left entry
        assert_eq!(j.buffered(), (0, 1));
        j.state().unwrap().restore(&snap);
        assert_eq!(j.buffered(), (1, 1));
    }
}

/// Keeps one tuple in `k`, dropping the rest (load shedding / decimation).
/// Stateful (the phase survives checkpoints so sampling stays uniform).
#[derive(Debug)]
pub struct Sampler {
    k: u64,
    seen: u64,
    cost: SimDuration,
}

impl Sampler {
    /// Keep every `k`-th tuple.
    pub fn new(cost: SimDuration, k: u64) -> Self {
        Sampler {
            k: k.max(1),
            seen: 0,
            cost,
        }
    }
}

impl Operator for Sampler {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        self.seen += 1;
        if self.seen.is_multiple_of(self.k) {
            out.emit(0, tuple.value.clone(), tuple.bytes);
        }
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
    fn state_bytes(&self) -> u64 {
        8
    }
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.seen)
    }
}

/// Tumbling-window aggregate over `f64`-convertible values: emits
/// `(count, sum, min, max)` every `window` inputs. Stateful.
#[allow(clippy::type_complexity)]
pub struct WindowAgg {
    window: u64,
    cost: SimDuration,
    extract: Box<dyn Fn(&Tuple) -> Option<f64> + Send>,
    acc: WindowAccum,
}

/// Running aggregate (also [`WindowAgg`]'s state).
#[derive(Debug, Clone, Copy)]
pub struct WindowAccum {
    /// Inputs in the current window.
    pub count: u64,
    /// Sum of extracted values.
    pub sum: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Default for WindowAccum {
    fn default() -> Self {
        WindowAccum {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl WindowAgg {
    /// Aggregate every `window` inputs through `extract`.
    pub fn new(
        cost: SimDuration,
        window: u64,
        extract: impl Fn(&Tuple) -> Option<f64> + Send + 'static,
    ) -> Self {
        WindowAgg {
            window: window.max(1),
            cost,
            extract: Box::new(extract),
            acc: WindowAccum::default(),
        }
    }
}

impl Operator for WindowAgg {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        if let Some(x) = (self.extract)(tuple) {
            self.acc.count += 1;
            self.acc.sum += x;
            self.acc.min = self.acc.min.min(x);
            self.acc.max = self.acc.max.max(x);
            if self.acc.count >= self.window {
                out.emit(0, value(self.acc), 32);
                self.acc = WindowAccum::default();
            }
        }
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
    fn state_bytes(&self) -> u64 {
        32
    }
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.acc)
    }
}

/// Merges any number of input streams onto one output port. Stateless.
pub struct Union {
    cost: SimDuration,
}

impl Union {
    /// New union.
    pub fn new(cost: SimDuration) -> Self {
        Union { cost }
    }
}

impl Operator for Union {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        out.emit(0, tuple.value.clone(), tuple.bytes);
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
}

#[cfg(test)]
mod more_ops_tests {
    use super::*;
    use simkernel::SimTime;

    fn t(id: u64, v: u64) -> Tuple {
        Tuple::new(id, SimTime::ZERO, 8, value(v))
    }

    fn run(op: &mut dyn Operator, tuple: &Tuple, port: usize) -> Vec<(usize, TupleValue, u64)> {
        let mut out = Outputs::default();
        let mut rng = SimRng::new(0);
        op.process(tuple, port, &mut out, &mut rng);
        out.drain()
    }

    #[test]
    fn sampler_keeps_one_in_k() {
        let mut s = Sampler::new(SimDuration::ZERO, 3);
        let kept: usize = (0..9).map(|i| run(&mut s, &t(i, i), 0).len()).sum();
        assert_eq!(kept, 3);
        // Snapshot/restore preserves the phase.
        let snap = s.state().unwrap().snapshot();
        run(&mut s, &t(9, 9), 0);
        s.state().unwrap().restore(&snap);
        let outs = run(&mut s, &t(9, 9), 0);
        assert!(!outs.is_empty() || s.state_bytes() == 8);
    }

    #[test]
    fn window_agg_emits_stats() {
        let mut w = WindowAgg::new(SimDuration::ZERO, 3, |t| {
            t.value_as::<u64>().map(|&v| v as f64)
        });
        assert!(run(&mut w, &t(1, 10), 0).is_empty());
        assert!(run(&mut w, &t(2, 20), 0).is_empty());
        let outs = run(&mut w, &t(3, 30), 0);
        assert_eq!(outs.len(), 1);
        let acc = (*outs[0].1).as_any().downcast_ref::<WindowAccum>().unwrap();
        assert_eq!(acc.count, 3);
        assert!((acc.sum - 60.0).abs() < 1e-12);
        assert!((acc.min - 10.0).abs() < 1e-12);
        assert!((acc.max - 30.0).abs() < 1e-12);
    }

    #[test]
    fn window_agg_snapshot_round_trip() {
        let mut w = WindowAgg::new(SimDuration::ZERO, 10, |t| {
            t.value_as::<u64>().map(|&v| v as f64)
        });
        run(&mut w, &t(1, 5), 0);
        run(&mut w, &t(2, 7), 0);
        let snap = w.state().unwrap().snapshot();
        run(&mut w, &t(3, 100), 0);
        w.state().unwrap().restore(&snap);
        let acc = (*w.state().unwrap().snapshot())
            .as_any()
            .downcast_ref::<WindowAccum>()
            .cloned()
            .unwrap();
        assert_eq!(acc.count, 2);
        assert!((acc.sum - 12.0).abs() < 1e-12);
    }

    #[test]
    fn union_merges_ports() {
        let mut u = Union::new(SimDuration::ZERO);
        for port in 0..3 {
            let outs = run(&mut u, &t(port as u64, 1), port);
            assert_eq!(outs.len(), 1);
            assert_eq!(outs[0].0, 0, "all inputs exit on port 0");
        }
    }
}
