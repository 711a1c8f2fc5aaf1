//! Determinism regression tests (the kernel's core contract): two runs
//! built identically — same seed, same actor insertion order, same
//! scheduled events — must process the exact same event sequence and
//! draw the exact same numbers from the shared [`SimRng`]; different
//! seeds must diverge.

use simkernel::{impl_actor_any, Actor, ActorId, Ctx, EventBox, Sim, SimDuration, SimTime};

#[derive(Debug, Clone, Copy)]
struct Tick(u64);

/// An actor that consumes randomness on every event, logs
/// `(time, tick, draw)` for each, and keeps a randomized ping-pong going
/// with a peer until `budget` events have been seen.
struct Chatter {
    peer: Option<ActorId>,
    log: Vec<(SimTime, u64, u64)>,
    budget: u32,
}

impl Chatter {
    fn new(budget: u32) -> Self {
        Chatter {
            peer: None,
            log: Vec::new(),
            budget,
        }
    }
}

impl Actor for Chatter {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        let tick = ev.downcast::<Tick>().unwrap();
        let draw = ctx.rng().range_u64(0, 1_000_000);
        self.log.push((ctx.now(), tick.0, draw));
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let dst = self.peer.unwrap_or_else(|| ctx.self_id());
        // Randomized delay: the schedule itself depends on the RNG, so
        // any divergence cascades into the event order.
        let jitter = ctx.rng().range_u64(1, 50);
        ctx.send_in(SimDuration::from_millis(jitter), dst, Tick(tick.0 + 1));
    }
    impl_actor_any!();
}

/// Build a small randomized topology and run it to completion.
fn run(seed: u64) -> (Sim, Vec<ActorId>) {
    let mut sim = Sim::new(seed);
    let ids: Vec<ActorId> = (0..4)
        .map(|i| sim.add_actor(Box::new(Chatter::new(40 + i * 3))))
        .collect();
    for (i, &id) in ids.iter().enumerate() {
        let peer = ids[(i + 1) % ids.len()];
        sim.actor_mut::<Chatter>(id).peer = Some(peer);
    }
    for (i, &id) in ids.iter().enumerate() {
        sim.schedule_at(SimTime::from_millis(i as u64), id, Tick(0));
    }
    sim.run();
    (sim, ids)
}

/// Every actor's `(time, tick, draw)` log, in actor-id order.
fn logs(sim: &Sim, ids: &[ActorId]) -> Vec<Vec<(SimTime, u64, u64)>> {
    ids.iter()
        .map(|&id| sim.actor::<Chatter>(id).log.clone())
        .collect()
}

fn draws(sim: &Sim, id: ActorId) -> Vec<u64> {
    sim.actor::<Chatter>(id).log.iter().map(|r| r.2).collect()
}

#[test]
fn identical_builds_produce_identical_event_traces() {
    let (a, ids_a) = run(1234);
    let (b, ids_b) = run(1234);
    assert_eq!(a.events_processed(), b.events_processed());
    assert_eq!(a.now(), b.now());
    let ta = logs(&a, &ids_a);
    let tb = logs(&b, &ids_b);
    assert!(
        ta.iter().all(|l| !l.is_empty()),
        "every actor must have logged the run"
    );
    assert_eq!(ta, tb, "event logs must match record-for-record");
}

#[test]
fn identical_builds_produce_identical_rng_draw_sequences() {
    let (a, ids_a) = run(77);
    let (b, ids_b) = run(77);
    assert_eq!(ids_a, ids_b, "actor ids are assigned deterministically");
    for (&ia, &ib) in ids_a.iter().zip(&ids_b) {
        let da = draws(&a, ia);
        let db = draws(&b, ib);
        assert!(!da.is_empty());
        assert_eq!(da, db, "per-actor SimRng draw sequences must match");
    }
}

#[test]
fn different_seeds_diverge() {
    let (a, ids_a) = run(100);
    let (b, ids_b) = run(101);
    let da = draws(&a, ids_a[0]);
    let db = draws(&b, ids_b[0]);
    assert_ne!(da, db, "different seeds must produce different draws");
    assert_ne!(
        logs(&a, &ids_a),
        logs(&b, &ids_b),
        "different seeds must produce different event logs"
    );
}

#[test]
fn run_is_independent_of_host_state() {
    // Re-running in the same process (allocator warm, globals touched)
    // must not leak into the simulation: 3 consecutive runs agree.
    let baseline = run(555).0.events_processed();
    for _ in 0..2 {
        assert_eq!(run(555).0.events_processed(), baseline);
    }
}
