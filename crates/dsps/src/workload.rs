//! Workload drivers: the external sensors feeding source operators.
//!
//! A [`WorkloadDriver`] models a physical sensor (the bus-stop camera,
//! the windshield phone camera, the on-vehicle infrared counter): it
//! periodically generates a value and hands it to the phone currently
//! hosting the target source operator. Sensor→phone delivery is local
//! (the camera is wired/paired to the adjacent phone), so it costs no
//! simulated network time; all network costs start at the source node.
//!
//! When the controller moves a source operator to another phone
//! (failure/departure recovery), it re-pairs the sensor by sending the
//! driver a [`SensorRedirect`].

use simkernel::{impl_actor_any, Actor, ActorId, Ctx, EventBox, SimDuration, SimRng};

use crate::graph::OpId;
use crate::node::SourceEmit;
use crate::tuple::TupleValue;

/// Controller → driver: the source op now lives on `actor`.
#[derive(Debug, Clone, Copy)]
pub struct SensorRedirect {
    /// The source operator.
    pub op: OpId,
    /// The phone now hosting it.
    pub actor: ActorId,
}

/// Internal tick.
#[derive(Debug, Clone, Copy)]
struct FeedTick {
    feed: usize,
    #[allow(dead_code)]
    seq: u64,
}

/// Generates one sample: `(value, wire_bytes)`.
pub type SampleGen = Box<dyn FnMut(&mut SimRng, u64) -> (TupleValue, u64) + Send>;

/// One periodic feed into one source operator.
pub struct Feed {
    /// Target source operator.
    pub op: OpId,
    /// Phone currently hosting it (updated by [`SensorRedirect`]).
    pub target: ActorId,
    /// Mean inter-sample period.
    pub period: SimDuration,
    /// Uniform jitter applied to each period (fraction of period,
    /// 0.0 = strictly periodic).
    pub jitter: f64,
    /// Sample generator.
    pub gen: SampleGen,
    /// Samples produced so far.
    pub produced: u64,
    /// Duplicate each sample to these extra targets (rep-2 feeds both
    /// flows' source ops).
    pub mirrors: Vec<(OpId, ActorId)>,
}

/// The sensor actor.
pub struct WorkloadDriver {
    feeds: Vec<Feed>,
    started: bool,
}

impl WorkloadDriver {
    /// New driver over the given feeds.
    pub fn new(feeds: Vec<Feed>) -> Self {
        WorkloadDriver {
            feeds,
            started: false,
        }
    }

    /// Start ticking (schedule from setup code with a `StartFeeds`
    /// event or call before adding to the sim).
    fn schedule_next(&mut self, feed_ix: usize, ctx: &mut Ctx) {
        let f = &mut self.feeds[feed_ix];
        let jitter = if f.jitter > 0.0 {
            let j = ctx.rng().uniform(-f.jitter, f.jitter);
            f.period * (1.0 + j).max(0.05)
        } else {
            f.period
        };
        let seq = f.produced;
        let me = ctx.self_id();
        ctx.send_in(jitter, me, FeedTick { feed: feed_ix, seq });
    }

    /// Total samples produced across feeds.
    pub fn produced(&self) -> u64 {
        self.feeds.iter().map(|f| f.produced).sum()
    }

    /// Phone the feed into `op` currently targets, if any feeds it.
    pub fn target_of(&self, op: OpId) -> Option<ActorId> {
        self.feeds.iter().find(|f| f.op == op).map(|f| f.target)
    }
}

/// Kick-off event for a driver.
#[derive(Debug, Clone, Copy)]
pub struct StartFeeds;

impl Actor for WorkloadDriver {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        simkernel::match_event!(ev,
            _s: StartFeeds => {
                if !self.started {
                    self.started = true;
                    for i in 0..self.feeds.len() {
                        self.schedule_next(i, ctx);
                    }
                }
            },
            t: FeedTick => {
                let (value, bytes, op, target, mirrors) = {
                    let f = &mut self.feeds[t.feed];
                    let (value, bytes) = (f.gen)(ctx.rng(), f.produced);
                    f.produced += 1;
                    (value, bytes, f.op, f.target, f.mirrors.clone())
                };
                ctx.send(target, SourceEmit { op, value: value.clone(), bytes });
                for (m_op, m_target) in mirrors {
                    ctx.send(m_target, SourceEmit { op: m_op, value: value.clone(), bytes });
                }
                self.schedule_next(t.feed, ctx);
            },
            r: SensorRedirect => {
                for f in self.feeds.iter_mut() {
                    if f.op == r.op {
                        f.target = r.actor;
                    }
                    for (m_op, m_target) in f.mirrors.iter_mut() {
                        if *m_op == r.op {
                            *m_target = r.actor;
                        }
                    }
                }
            },
            @else _other => {}
        );
    }

    fn name(&self) -> String {
        "workload-driver".into()
    }

    impl_actor_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::value;
    use simkernel::Sim;
    use std::any::Any;

    #[derive(Default)]
    struct Collector {
        got: Vec<(OpId, u64)>,
    }

    impl Actor for Collector {
        fn on_event(&mut self, ev: EventBox, _ctx: &mut Ctx) {
            if let Ok(e) = ev.downcast::<SourceEmit>() {
                self.got.push((e.op, e.bytes));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn periodic_feed_produces_expected_count() {
        let mut sim = Sim::new(5);
        let sink = sim.add_actor(Box::<Collector>::default());
        let driver = sim.add_actor(Box::new(WorkloadDriver::new(vec![Feed {
            op: OpId(0),
            target: sink,
            period: SimDuration::from_secs(2),
            jitter: 0.0,
            gen: Box::new(|_rng, seq| (value(seq), 100)),
            produced: 0,
            mirrors: vec![],
        }])));
        sim.schedule_at(simkernel::SimTime::ZERO, driver, StartFeeds);
        sim.run_until(simkernel::SimTime::from_secs(21));
        let got = &sim.actor::<Collector>(sink).got;
        assert_eq!(got.len(), 10, "ticks at 2,4,...,20");
        assert!(got.iter().all(|&(op, b)| op == OpId(0) && b == 100));
    }

    #[test]
    fn redirect_switches_target() {
        let mut sim = Sim::new(5);
        let a = sim.add_actor(Box::<Collector>::default());
        let b = sim.add_actor(Box::<Collector>::default());
        let driver = sim.add_actor(Box::new(WorkloadDriver::new(vec![Feed {
            op: OpId(3),
            target: a,
            period: SimDuration::from_secs(1),
            jitter: 0.0,
            gen: Box::new(|_rng, seq| (value(seq), 8)),
            produced: 0,
            mirrors: vec![],
        }])));
        sim.schedule_at(simkernel::SimTime::ZERO, driver, StartFeeds);
        sim.run_until(simkernel::SimTime::from_secs(3));
        sim.schedule_at(
            sim.now(),
            driver,
            SensorRedirect {
                op: OpId(3),
                actor: b,
            },
        );
        sim.run_until(simkernel::SimTime::from_secs(6));
        assert_eq!(sim.actor::<Collector>(a).got.len(), 3);
        assert_eq!(sim.actor::<Collector>(b).got.len(), 3);
    }

    #[test]
    fn mirrors_duplicate_samples() {
        let mut sim = Sim::new(5);
        let a = sim.add_actor(Box::<Collector>::default());
        let b = sim.add_actor(Box::<Collector>::default());
        let driver = sim.add_actor(Box::new(WorkloadDriver::new(vec![Feed {
            op: OpId(0),
            target: a,
            period: SimDuration::from_secs(1),
            jitter: 0.0,
            gen: Box::new(|_rng, seq| (value(seq), 8)),
            produced: 0,
            mirrors: vec![(OpId(9), b)],
        }])));
        sim.schedule_at(simkernel::SimTime::ZERO, driver, StartFeeds);
        sim.run_until(simkernel::SimTime::from_secs(4));
        assert_eq!(sim.actor::<Collector>(a).got.len(), 4);
        let bg = &sim.actor::<Collector>(b).got;
        assert_eq!(bg.len(), 4);
        assert!(bg.iter().all(|&(op, _)| op == OpId(9)));
    }

    #[test]
    fn jitter_stays_positive_and_near_period() {
        let mut sim = Sim::new(5);
        let sink = sim.add_actor(Box::<Collector>::default());
        let driver = sim.add_actor(Box::new(WorkloadDriver::new(vec![Feed {
            op: OpId(0),
            target: sink,
            period: SimDuration::from_secs(1),
            jitter: 0.3,
            gen: Box::new(|_rng, seq| (value(seq), 8)),
            produced: 0,
            mirrors: vec![],
        }])));
        sim.schedule_at(simkernel::SimTime::ZERO, driver, StartFeeds);
        sim.run_until(simkernel::SimTime::from_secs(100));
        let n = sim.actor::<Collector>(sink).got.len() as f64;
        assert!((n - 100.0).abs() < 20.0, "n = {n}");
    }
}
