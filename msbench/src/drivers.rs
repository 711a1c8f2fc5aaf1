//! Layer drivers: unit costs timed around calls into each layer's
//! public surface, with fleet-shaped inputs.
//!
//! Each driver reports host time per operation (median over
//! `ROUNDS` rounds). Together with the exact counts of a traced rep
//! they say whether a layer's unit cost moved; they are not a
//! decomposition of `run_s` (that needs spans inside the kernel's
//! dispatch loop).

use std::hint::black_box;
use std::sync::Arc;

use apps::haar::{count_faces_quadrant, Cascade};
use apps::image::{FrameGen, LightColor};
use apps::svm::LinearSvm;
use apps::vision::color_filter;
use dsps::graph::OpId;
use dsps::operator::{op_state, Operator, Outputs};
use dsps::ops::KeyJoin;
use dsps::store::CheckpointStore;
use dsps::tuple::{value, Tuple};
use experiments::fleet::{bench_profile, churn_schedule};
use experiments::weather::{self, CtlTopology};
use mobistreams::broadcast::{PhaseDecision, ReceiverState, SenderJob};
use mobistreams::controller::reconcile::{MembershipLog, SuffixCache};
use mobistreams::msgs::BlobContent;
use simkernel::{
    impl_actor_any, Actor, ActorId, Ctx, EventBox, EventPool, Sim, SimDuration, SimRng, SimTime,
};
use simnet::bitmap::Bitmap;
use simnet::cellular::{CellConfig, CellSend, CellularNet};
use simnet::link::RateQueue;
use simnet::stats::TrafficClass;
use simnet::wifi::{WifiBatchSend, WifiConfig, WifiMedium};

use crate::clock::Stopwatch;
use crate::stats::median;
use crate::workloads::STORM_WEATHERS;

/// Rounds per driver; the reported cost is the median round.
const ROUNDS: usize = 5;

/// Names and units of the drivers, in the order the per-layer
/// functions below return their values.
pub const DRIVER_METRICS: [(&str, &str); 23] = [
    ("simkernel.heap_event_ns.d1k", "ns"),
    ("simkernel.heap_event_ns.d16k", "ns"),
    ("simkernel.window_ns.t1", "ns"),
    ("simkernel.window_ns.t2", "ns"),
    ("simkernel.pool_make_ns", "ns"),
    ("simkernel.rng_binomial_ns", "ns"),
    ("simnet.wifi_batch_rx_ns.n8", "ns"),
    ("simnet.wifi_batch_rx_ns.n128", "ns"),
    ("simnet.wifi_batch_rx_ns.loss50", "ns"),
    ("simnet.cell_send_ns", "ns"),
    ("simnet.rate_queue_reserve_ns", "ns"),
    ("simnet.bitmap_and_ns", "ns"),
    ("mobistreams.sender_job_us", "us"),
    ("mobistreams.receiver_on_batch_ns", "ns"),
    ("mobistreams.membership_suffix_ns", "ns"),
    ("dsps.keyjoin_process_ns", "ns"),
    ("dsps.store_put_state_ns", "ns"),
    ("apps.frame_gen_us", "us"),
    ("apps.haar_count_us", "us"),
    ("apps.color_filter_us", "us"),
    ("apps.svm_fit_us", "us"),
    ("experiments.churn_schedule_ms.10k", "ms"),
    ("experiments.weather_compile_us", "us"),
];

/// Median over `ROUNDS` rounds of host seconds per operation; a round
/// returns how many operations it performed.
fn unit_cost(mut round: impl FnMut() -> u64) -> f64 {
    let costs: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let (ops, secs) = Stopwatch::time(&mut round);
            secs / ops.max(1) as f64
        })
        .collect();
    median(&costs)
}

/// Run every driver; returns `(name, value)` in [`DRIVER_METRICS`]'
/// order and units. Deterministic inputs; only the timings vary.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let values: Vec<f64> = [
        simkernel_drivers(),
        simnet_drivers(),
        mobistreams_drivers(),
        dsps_drivers(),
        apps_drivers(),
        experiments_drivers(),
    ]
    .concat();
    assert_eq!(values.len(), DRIVER_METRICS.len(), "one value per driver");
    DRIVER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, _), v)| (name, v))
        .collect()
}

// ---------------------------------------------------------------------
// simkernel

#[derive(Debug, Clone, Copy)]
struct Tick(u64);

/// Reschedules itself forever with a delay that varies per tick, so
/// the heap sees interleaved deadlines from every actor.
struct Timer;
impl Actor for Timer {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        if let Ok(Tick(n)) = ev.downcast::<Tick>() {
            let delay = SimDuration::from_micros(1000 + n.wrapping_mul(2_654_435_761) % 1000);
            ctx.send_in(delay, ctx.self_id(), Tick(n + 1));
        }
    }
    impl_actor_any!();
}

/// Host seconds per event with `depth` timers (= pending events).
fn heap_event_cost(depth: u64) -> f64 {
    unit_cost(|| {
        let mut sim = Sim::new(1);
        for i in 0..depth {
            let id = sim.add_actor(Box::new(Timer));
            sim.schedule_at(SimTime::from_nanos(i * 997), id, Tick(i));
        }
        // ~1.5 ms between an actor's ticks: ≈ 200 k events in all.
        let span_us = 300_000_000 / depth;
        sim.run_until(SimTime::ZERO + SimDuration::from_micros(span_us));
        sim.events_processed()
    })
}

/// Region head of the two-region fixture (as `tests/lookahead.rs`):
/// ticks itself every millisecond and pings its peer through the
/// shard-0 relay every 50th tick.
struct PingRegion {
    relay: ActorId,
    peer: ActorId,
}

#[derive(Debug, Clone, Copy)]
struct Ping;

#[derive(Debug, Clone, Copy)]
struct RelayPing(ActorId);

struct Relay;
impl Actor for Relay {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        if let Ok(RelayPing(to)) = ev.downcast::<RelayPing>() {
            ctx.send_in(SimDuration::from_millis(100), to, Ping);
        }
    }
    impl_actor_any!();
}

impl Actor for PingRegion {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        if let Ok(Tick(n)) = ev.downcast::<Tick>() {
            if n > 0 {
                ctx.send_in(SimDuration::from_millis(1), ctx.self_id(), Tick(n - 1));
            }
            if n % 50 == 0 {
                ctx.send(self.relay, RelayPing(self.peer));
            }
        }
    }
    impl_actor_any!();
}

/// Host seconds per barrier window of the ping fixture under the
/// uniform 2 ms bound (many small windows), at `threads` threads.
fn window_cost(threads: usize) -> f64 {
    unit_cost(|| {
        let mut sim = Sim::new(7);
        let relay = sim.add_actor(Box::new(Relay));
        let a = ActorId::from_index(1);
        let b = ActorId::from_index(2);
        sim.add_actor(Box::new(PingRegion { relay, peer: b }));
        sim.add_actor(Box::new(PingRegion { relay, peer: a }));
        sim.schedule_at(SimTime::ZERO, a, Tick(10_000));
        sim.schedule_at(SimTime::ZERO, b, Tick(10_000));
        let bound = SimDuration::from_millis(2);
        sim.enable_sharding(vec![0, 1, 2], bound, threads);
        sim.enable_sanitizer();
        sim.run_until(SimTime::from_secs(10));
        sim.causality_report().map_or(1, |r| r.windows)
    })
}

fn simkernel_drivers() -> Vec<f64> {
    let pool = EventPool::new();
    let pool_make = unit_cost(|| {
        for i in 0..200_000u64 {
            black_box(pool.make(Tick(black_box(i))));
        }
        200_000
    });
    let mut rng = SimRng::new(3);
    let binomial = unit_cost(|| {
        for _ in 0..200_000 {
            black_box(rng.binomial(black_box(1024), 0.05));
        }
        200_000
    });
    vec![
        heap_event_cost(1_000) * 1e9,
        heap_event_cost(16_000) * 1e9,
        window_cost(1) * 1e9,
        window_cost(2) * 1e9,
        pool_make * 1e9,
        binomial * 1e9,
    ]
}

// ---------------------------------------------------------------------
// simnet

/// Counts what is delivered to it.
#[derive(Default)]
struct Sink {
    delivered: u64,
}
impl Actor for Sink {
    fn on_event(&mut self, _ev: EventBox, _ctx: &mut Ctx) {
        self.delivered += 1;
    }
    impl_actor_any!();
}

/// Blocks per checkpoint batch.
const BATCH_BLOCKS: u32 = 1024;

/// Host seconds per receiver delivery of 1 024-block batches on a
/// medium with `receivers` listening members at `loss`. The channel is
/// made fast so airtime never congests: the cost is reception
/// sampling plus fan-out.
fn wifi_batch_rx_cost(receivers: usize, loss: f64) -> f64 {
    let batches = (4096 / receivers).max(8) as u64;
    let blocks: Arc<[u32]> = (0..BATCH_BLOCKS).collect::<Vec<u32>>().into();
    unit_cost(|| {
        let mut sim = Sim::new(11);
        let wifi = sim.add_actor(Box::new(WifiMedium::new(WifiConfig {
            rate_bps: 1e10,
            loss,
            ..WifiConfig::default()
        })));
        let members: Vec<ActorId> = (0..=receivers)
            .map(|_| sim.add_actor(Box::new(Sink::default())))
            .collect();
        for &m in &members {
            sim.actor_mut::<WifiMedium>(wifi).add_member(m);
        }
        for i in 0..batches {
            sim.schedule_at(
                SimTime::from_millis(10 * i),
                wifi,
                WifiBatchSend {
                    src: members[0],
                    class: TrafficClass::Checkpoint,
                    stream: i,
                    total_blocks: BATCH_BLOCKS,
                    blocks: Arc::clone(&blocks),
                    payload_bytes: BATCH_BLOCKS as u64 * 1024,
                    reply_expected: false,
                    tag: 0,
                },
            );
        }
        sim.run();
        let delivered: u64 = members[1..]
            .iter()
            .map(|&m| sim.actor::<Sink>(m).delivered)
            .sum();
        assert_eq!(
            delivered,
            batches * receivers as u64,
            "every batch reaches every receiver"
        );
        delivered
    })
}

fn cell_send_cost() -> f64 {
    const SENDS: u64 = 20_000;
    unit_cost(|| {
        let mut sim = Sim::new(13);
        let cell = sim.add_actor(Box::new(CellularNet::new(CellConfig::default())));
        let a = sim.add_actor(Box::new(Sink::default()));
        let b = sim.add_actor(Box::new(Sink::default()));
        for id in [a, b] {
            sim.actor_mut::<CellularNet>(cell)
                .register_with_rates(id, 1e9, 1e9);
        }
        for i in 0..SENDS {
            sim.schedule_at(
                SimTime::from_millis(i),
                cell,
                CellSend {
                    src: a,
                    dst: b,
                    class: TrafficClass::Control,
                    bytes: 64,
                    tag: 0,
                    payload: Some(simnet::payload(Tick(i))),
                },
            );
        }
        sim.run();
        assert_eq!(
            sim.actor::<Sink>(b).delivered,
            SENDS,
            "every send is delivered"
        );
        SENDS
    })
}

fn simnet_drivers() -> Vec<f64> {
    let mut queue = RateQueue::new(CellConfig::default().default_up_bps);
    let mut now_ns = 0u64;
    let reserve = unit_cost(|| {
        for _ in 0..500_000 {
            now_ns += 50_000_000;
            black_box(queue.reserve(SimTime::from_nanos(now_ns), black_box(1200)));
        }
        500_000
    });
    let n = 8 * BATCH_BLOCKS as usize;
    let (mut a, mut b) = (Bitmap::ones(n), Bitmap::zeros(n));
    for i in (0..n).step_by(2) {
        b.set(i, true);
    }
    let and = unit_cost(|| {
        for _ in 0..200_000 {
            a.and_assign(black_box(&b));
        }
        black_box(a.count_ones());
        200_000
    });
    vec![
        wifi_batch_rx_cost(8, 0.05) * 1e9,
        wifi_batch_rx_cost(128, 0.05) * 1e9,
        wifi_batch_rx_cost(16, 0.5) * 1e9,
        cell_send_cost() * 1e9,
        reserve * 1e9,
        and * 1e9,
    ]
}

// ---------------------------------------------------------------------
// mobistreams

/// One full sender-side job at paper scale (8 MB in 8 192 blocks, 7
/// receivers) over an iid 5 %-loss channel; returns the UDP phases.
pub fn sender_job(seed: u64) -> u32 {
    let (n_rx, n_blocks) = (7usize, 8192usize);
    let mut rng = SimRng::new(seed);
    let content = BlobContent::Checkpoint {
        version: 1,
        states: vec![(OpId(0), op_state(()), 0)],
    };
    let mut job = SenderJob::new(
        1,
        content,
        TrafficClass::Checkpoint,
        (n_blocks * 1024) as u64,
        1024,
        (0..n_rx).map(ActorId::from_index).collect(),
    );
    let mut pending = job.begin();
    let mut cum: Vec<Bitmap> = (0..n_rx).map(|_| Bitmap::zeros(n_blocks)).collect();
    let mut phases = 1u32;
    'outer: loop {
        for c in cum.iter_mut() {
            for &b in &pending {
                if rng.chance(0.95) {
                    c.set(b as usize, true);
                }
            }
        }
        for (r, c) in cum.iter().enumerate() {
            if let Some(d) = job.on_bitmap(ActorId::from_index(r), c) {
                match d {
                    PhaseDecision::Resend(blocks) => {
                        phases += 1;
                        pending = blocks;
                        continue 'outer;
                    }
                    _ => break 'outer,
                }
            }
        }
    }
    phases
}

fn mobistreams_drivers() -> Vec<f64> {
    let mut seed = 0u64;
    let sender = unit_cost(|| {
        for _ in 0..4 {
            seed += 1;
            black_box(sender_job(seed));
        }
        4
    });

    let blocks: Vec<u32> = (0..BATCH_BLOCKS).collect();
    let mut received = Bitmap::zeros(blocks.len());
    for i in (0..blocks.len()).step_by(3) {
        received.set(i, true);
    }
    let on_batch = unit_cost(|| {
        let mut rx = ReceiverState::default();
        for stream in 0..2_000u64 {
            let cum = rx.on_batch(
                ActorId::from_index(9),
                stream % 16,
                BATCH_BLOCKS,
                black_box(&blocks),
                &received,
            );
            black_box(cum.map(|c| c.count_ones()).unwrap_or(0));
        }
        2_000
    });

    // A stadium region's membership log after a burst of churn: 128
    // phones, 64 changes, targets spread over every base epoch.
    let mut log = MembershipLog::new(128);
    for slot in 0..64 {
        log.record(slot, false);
    }
    let suffix = unit_cost(|| {
        for _ in 0..200 {
            let mut cache = SuffixCache::new();
            for target in 0..128u64 {
                black_box(cache.for_base(&log, (target * 37) % 64));
            }
        }
        200 * 128
    });
    vec![sender * 1e6, on_batch * 1e9, suffix * 1e9]
}

// ---------------------------------------------------------------------
// dsps

fn dsps_drivers() -> Vec<f64> {
    let key = |t: &Tuple| t.value_as::<u64>().copied().unwrap_or(0);
    let mut join = KeyJoin::new(SimDuration::from_millis(1), 64, key, |l, r| {
        (value(l.id ^ r.id), l.bytes + r.bytes)
    });
    let mut rng = SimRng::new(5);
    let mut out = Outputs::default();
    let mut next = 0u64;
    let keyjoin = unit_cost(|| {
        // The right stream trails the left by 32 keys, so every probe
        // scans a half-full window before it matches.
        for _ in 0..50_000 {
            let left = Tuple::new(next, SimTime::ZERO, 64, value(next));
            join.process(&left, 0, &mut out, &mut rng);
            if next >= 32 {
                let right = Tuple::new(next, SimTime::ZERO, 64, value(next - 32));
                join.process(&right, 1, &mut out, &mut rng);
            }
            next += 1;
            black_box(out.drain());
        }
        100_000
    });

    let state = op_state(vec![0u8; 16 * 1024]);
    let put_state = unit_cost(|| {
        let mut store = CheckpointStore::new();
        for version in 0..2_000u64 {
            for op in 0..8 {
                store.put_state(version, OpId(op), Arc::clone(&state), 16 * 1024);
            }
            store.mark_complete(version);
            store.gc_before(version);
        }
        black_box(store.bytes_written);
        16_000
    });
    vec![keyjoin * 1e9, put_state * 1e9]
}

// ---------------------------------------------------------------------
// apps

fn apps_drivers() -> Vec<f64> {
    let gen = FrameGen::default();
    let mut rng = SimRng::new(1);
    let mut seq = 0u64;
    let frame_gen = unit_cost(|| {
        for _ in 0..50 {
            seq += 1;
            black_box(gen.faces_frame(&mut rng, seq));
        }
        50
    });
    let frame = gen.faces_frame(&mut rng, 0);
    let cascade = Cascade::default();
    let haar = unit_cost(|| {
        for _ in 0..20 {
            for q in 0..4 {
                black_box(count_faces_quadrant(black_box(&frame), &cascade, q));
            }
        }
        20
    });
    let lights = FrameGen {
        mean_faces: 0.0,
        ..FrameGen::default()
    };
    let light = lights.light_frame_at(&mut rng, 0, LightColor::Red, 30, 12);
    let color = unit_cost(|| {
        for _ in 0..200 {
            black_box(color_filter(black_box(&light)));
        }
        200
    });
    let xs: Vec<Vec<f64>> = (0..256)
        .map(|i| {
            vec![
                rng.normal(if i % 2 == 0 { 2.0 } else { -2.0 }, 0.5),
                rng.f64(),
            ]
        })
        .collect();
    let ys: Vec<f64> = (0..256)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let svm = unit_cost(|| {
        for _ in 0..200 {
            let mut svm = LinearSvm::new(2, 0.01);
            let mut r = SimRng::new(4);
            svm.fit(black_box(&xs), &ys, 1, &mut r);
            black_box(svm.b);
        }
        200
    });
    vec![frame_gen * 1e6, haar * 1e6, color * 1e6, svm * 1e6]
}

// ---------------------------------------------------------------------
// experiments

fn experiments_drivers() -> Vec<f64> {
    let mut cfg = bench_profile(8, 1250, 42);
    cfg.churn.depart_per_phone_hour = 30.0;
    let churn = unit_cost(|| {
        black_box(churn_schedule(black_box(&cfg)).len());
        1
    });
    let topo = CtlTopology::new(8, 1);
    let programs: Vec<_> = STORM_WEATHERS
        .iter()
        .filter_map(|name| weather::weather(name, 1, topo))
        .collect();
    let compile = unit_cost(|| {
        for _ in 0..2_000 {
            for p in &programs {
                black_box(weather::compile(black_box(p), topo).len());
            }
        }
        2_000 * programs.len() as u64
    });
    vec![churn * 1e3, compile * 1e6]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_job_terminates_in_a_few_phases() {
        let phases = sender_job(1);
        assert!((1..=8).contains(&phases), "phases = {phases}");
    }

    #[test]
    fn unit_cost_divides_by_the_operations_done() {
        let c = unit_cost(|| {
            black_box((0..1000u64).sum::<u64>());
            1000
        });
        assert!((0.0..1e-3).contains(&c));
    }
}
