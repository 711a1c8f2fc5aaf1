//! Round-protocol stress: tens of thousands of barrier rounds that
//! each carry one to three events per region, so the run is almost
//! all handshake and almost no work. A lost wake-up or a claim that
//! leaks across rounds shows up as a hang (the watchdog turns it into
//! a failure) or as a count/ledger that differs from the 1-thread run.
//!
//! The same rounds carry the event pool's confinement proof: every
//! region parks the pooled box of its latest tick and drops it on the
//! next one, so slots are routinely acquired by one participant and
//! released by another — whichever threads the shard migrated between.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use simkernel::{
    impl_actor_any, Actor, ActorId, CausalityReport, Ctx, EventBox, PoolStats, Sim, SimDuration,
    SimTime,
};

const REGIONS: usize = 8;
const LOOKAHEAD: SimDuration = SimDuration::from_millis(1);
const RUN_FOR: SimTime = SimTime::from_secs(54);
/// A run takes about a second; only a deadlock gets near this.
const DEADLINE: Duration = Duration::from_secs(120);

#[derive(Debug)]
struct Tick;
#[derive(Debug)]
struct Report(ActorId);
#[derive(Debug)]
struct Nudge;

/// Shard 0: answers every report one lookahead later, so merges and
/// solo global windows are interleaved with the region rounds.
struct Hub;
impl Actor for Hub {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        let Report(from) = ev.downcast::<Report>().expect("hub handles reports");
        ctx.send_in(LOOKAHEAD, from, Nudge);
    }
    impl_actor_any!();
}

/// Ticks itself every 0.4–2 ms (drawn from its shard's RNG stream):
/// a 1 ms window holds at most three of its events and often none, so
/// the busy set changes from round to round and some rounds fall back
/// to the inline path. Reports to the hub on every 97th tick. The box
/// a tick arrived in stays parked until the next tick replaces it.
struct Region {
    hub: ActorId,
    ticks: u64,
    nudges: u64,
    parked: Option<EventBox>,
}
impl Actor for Region {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        if !ev.is::<Tick>() {
            self.nudges += 1;
            return;
        }
        self.parked = Some(ev);
        self.ticks += 1;
        let period = SimDuration::from_micros(400 + ctx.rng().range_u64(0, 1600));
        ctx.send_in(period, ctx.self_id(), Tick);
        if self.ticks.is_multiple_of(97) {
            ctx.send(self.hub, Report(ctx.self_id()));
        }
    }
    impl_actor_any!();
}

struct Outcome {
    events: u64,
    per_region: Vec<(u64, u64)>,
    report: CausalityReport,
    pool: PoolStats,
}

fn run(threads: usize) -> Outcome {
    let mut sim = Sim::new(17);
    let hub = sim.add_actor(Box::new(Hub));
    let regions: Vec<ActorId> = (0..REGIONS)
        .map(|_| {
            let id = sim.add_actor(Box::new(Region {
                hub,
                ticks: 0,
                nudges: 0,
                parked: None,
            }));
            sim.schedule_at(SimTime::ZERO, id, Tick);
            id
        })
        .collect();
    let shard_of = (0..=REGIONS as u16).collect();
    sim.enable_sharding(shard_of, LOOKAHEAD, threads);
    sim.enable_sanitizer();
    sim.run_until(RUN_FOR);
    Outcome {
        events: sim.events_processed(),
        per_region: regions
            .iter()
            .map(|&id| {
                let r = sim.actor::<Region>(id);
                (r.ticks, r.nudges)
            })
            .collect(),
        report: sim.causality_report().expect("sanitizer enabled"),
        pool: sim.pool_stats(),
    }
}

/// Run `f`; abort the test process if it has not returned by
/// `DEADLINE`, so a deadlocked handshake fails instead of hanging.
fn under_watchdog<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let (finished, rx) = channel::<()>();
    let what = what.to_owned();
    let dog = std::thread::spawn(move || {
        if rx.recv_timeout(DEADLINE) == Err(RecvTimeoutError::Timeout) {
            eprintln!("handshake_stress: {what} still running after {DEADLINE:?} — lost wake-up?");
            std::process::abort();
        }
    });
    let out = f();
    drop(finished);
    dog.join().expect("watchdog thread");
    out
}

#[test]
fn tiny_windows_at_2_3_and_8_threads_match_the_inline_run() {
    let reference = under_watchdog("1 thread", || run(1));
    assert!(
        reference.report.windows >= 50_000,
        "fixture must be handshake-bound: only {} windows",
        reference.report.windows
    );
    let per_window = reference.events as f64 / reference.report.windows as f64;
    assert!(
        per_window <= 3.0 * REGIONS as f64,
        "windows too fat: {per_window:.1} events each"
    );
    assert_eq!(reference.report.violations, 0);
    // A tick in flight and one parked per region: everything else is
    // recycled, and no region event is too big for a slot.
    let pool = reference.pool;
    assert_eq!((pool.aliasing, pool.unpooled), (0, 0));
    assert!(
        pool.fresh <= 3 * REGIONS as u64 && pool.recycled > 100 * pool.fresh,
        "fixture must live off recycled slots: {pool:?}"
    );
    // 8 participants oversubscribe any host with fewer cores.
    for threads in [2, 3, 4, 8] {
        let got = under_watchdog(&format!("{threads} threads"), || run(threads));
        assert_eq!(got.events, reference.events, "{threads} threads");
        assert_eq!(got.per_region, reference.per_region, "{threads} threads");
        assert_eq!(got.report, reference.report, "{threads} threads");
        assert_eq!(got.pool, pool, "{threads} threads");
    }
}
