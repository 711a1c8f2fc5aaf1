//! Spans around the calls the harness makes into the simulator, kept
//! in memory and written out when the benchmark ends.
//!
//! Spans come from the benchmark's own files only — around
//! `build_fleet`, `enable_sharding_opts`, each one-second slice of
//! `run_until`, `harvest` — so they say *when* host time went (set-up,
//! checkpoint rounds, recoveries, steady state), not which layer
//! inside the kernel's dispatch loop spent it.

use serde_json::{json, Value};
use simkernel::SimTime;

use crate::clock::Stopwatch;
use crate::stats::percentile;

/// What the simulation was doing during a slice of `run_until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceClass {
    /// Overlaps a recovery (start → finish).
    Recovery,
    /// Overlaps a checkpoint round (round tick → that round's commit)
    /// and no recovery.
    CkptRound,
    /// Neither.
    Steady,
}

/// One recorded span. Times are host seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span covers.
    pub name: &'static str,
    /// The span that caused it (`None` for a rep).
    pub parent: Option<usize>,
    /// Host start.
    pub start_s: f64,
    /// Host end.
    pub end_s: f64,
    /// Simulated interval and class, for a `slice` of `run_until`.
    pub slice: Option<(SimTime, SimTime, SliceClass)>,
}

/// Simulated intervals `[from, to]` used to classify slices.
pub type Intervals = Vec<(SimTime, SimTime)>;

/// Span recorder. A disabled tracer still times (so traced and
/// untraced reps share one code path) but records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Stopwatch,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            epoch: Stopwatch::start(),
            spans: Vec::new(),
        }
    }

    /// A tracer that only times.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span that will have children; pass the id to
    /// [`Tracer::close`] and as the children's `parent`.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.epoch.elapsed_s();
        self.spans.push(Span {
            name,
            parent,
            start_s: now,
            end_s: now,
            slice: None,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_s = self.epoch.elapsed_s();
        }
    }

    /// Time `f` and record it as a leaf span under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let (out, secs) = Stopwatch::time(f);
        self.close(id);
        (out, secs)
    }

    /// Run one slice `[from, to)` of simulated time under `parent`.
    pub fn slice(&mut self, parent: Option<usize>, from: SimTime, to: SimTime, f: impl FnOnce()) {
        let id = self.open("slice", parent);
        f();
        self.close(id);
        if let Some(id) = id {
            self.spans[id].slice = Some((from, to, SliceClass::Steady));
        }
    }

    /// Classify the slices under `parent` once the simulation's commit
    /// log and recovery records are known.
    pub fn classify(&mut self, parent: Option<usize>, rounds: &Intervals, recoveries: &Intervals) {
        let overlaps = |set: &Intervals, from: SimTime, to: SimTime| {
            set.iter().any(|&(a, b)| a < to && b >= from)
        };
        for span in self.spans.iter_mut().filter(|s| s.parent == parent) {
            if let Some((from, to, class)) = &mut span.slice {
                *class = if overlaps(recoveries, *from, *to) {
                    SliceClass::Recovery
                } else if overlaps(rounds, *from, *to) {
                    SliceClass::CkptRound
                } else {
                    SliceClass::Steady
                };
            }
        }
    }

    /// Host-time distribution of the recorded slices.
    pub fn slice_stats(&self) -> SliceStats {
        let mut ms = Vec::new();
        let mut by_class = [0.0f64; 3];
        for s in &self.spans {
            if let Some((_, _, class)) = s.slice {
                let d = s.end_s - s.start_s;
                ms.push(d * 1e3);
                by_class[class as usize] += d;
            }
        }
        let total: f64 = by_class.iter().sum::<f64>().max(f64::MIN_POSITIVE);
        SliceStats {
            p50_ms: percentile(&ms, 50.0),
            p99_ms: percentile(&ms, 99.0),
            max_ms: ms.iter().copied().fold(0.0, f64::max),
            recovery_share: by_class[SliceClass::Recovery as usize] / total,
            ckpt_round_share: by_class[SliceClass::CkptRound as usize] / total,
            steady_share: by_class[SliceClass::Steady as usize] / total,
        }
    }

    /// The spans as a JSON array (one object per span; `parent` is an
    /// index into the array, so the spans of one rep share its root).
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut obj = vec![
                        ("name".to_string(), json!(s.name)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Value::Null, |p| json!(p as u64)),
                        ),
                        ("start_s".to_string(), json!(s.start_s)),
                        ("end_s".to_string(), json!(s.end_s)),
                    ];
                    if let Some((from, to, class)) = s.slice {
                        obj.push(("sim_from_s".to_string(), json!(from.as_secs_f64())));
                        obj.push(("sim_to_s".to_string(), json!(to.as_secs_f64())));
                        obj.push(("class".to_string(), json!(format!("{class:?}"))));
                    }
                    Value::Obj(obj)
                })
                .collect(),
        )
    }
}

/// Host-time distribution over the one-second slices of `run_until`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceStats {
    /// Median slice (host ms per simulated second).
    pub p50_ms: f64,
    /// 99th-percentile slice.
    pub p99_ms: f64,
    /// Slowest slice.
    pub max_ms: f64,
    /// Share of slice host time in slices overlapping a recovery.
    pub recovery_share: f64,
    /// Share in slices overlapping a checkpoint round (and no recovery).
    pub ckpt_round_share: f64,
    /// The rest.
    pub steady_share: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::off();
        let id = t.open("rep", None);
        assert_eq!(id, None);
        let (v, secs) = t.span("x", id, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        t.close(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn slices_are_classified_recovery_first() {
        let mut t = Tracer::on();
        let run = t.open("run_until", None);
        for s in 0..10u64 {
            t.slice(run, SimTime::from_secs(s), SimTime::from_secs(s + 1), || {});
        }
        t.close(run);
        let rounds = vec![(SimTime::from_secs(2), SimTime::from_secs(5))];
        let recoveries = vec![(SimTime::from_secs(4), SimTime::from_secs(6))];
        t.classify(run, &rounds, &recoveries);
        let classes: Vec<SliceClass> = t
            .spans()
            .iter()
            .filter_map(|s| s.slice.map(|(_, _, c)| c))
            .collect();
        use SliceClass::*;
        // [2,5] touches slices 2..=5, [4,6] touches 4..=6 and wins.
        assert_eq!(
            classes,
            [
                Steady, Steady, CkptRound, CkptRound, Recovery, Recovery, Recovery, Steady, Steady,
                Steady
            ]
        );
        let st = t.slice_stats();
        assert!((st.recovery_share + st.ckpt_round_share + st.steady_share - 1.0).abs() < 1e-9);
        let Value::Arr(spans) = t.to_json() else {
            panic!("spans render as an array")
        };
        assert_eq!(spans.len(), 11);
        assert_eq!(spans[0]["name"], json!("run_until"));
        assert_eq!(spans[5]["class"], json!("Recovery"));
    }
}
