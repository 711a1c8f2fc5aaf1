//! Per-destination lookahead fixture: two independent regions whose
//! only cross-region traffic is slow. Under the old uniform bound
//! every window closes after a few self-ticks (each region barriers on
//! the other's clock plus the tiny global lookahead); under
//! per-destination bounds the same run takes a fraction of the
//! windows — and both reproduce the unsharded schedule exactly.

use simkernel::{impl_actor_any, Actor, ActorId, Ctx, EventBox, Sim, SimDuration, SimTime};

#[derive(Debug, Clone, Copy)]
struct Tick(u64);

#[derive(Debug, Clone, Copy)]
struct Probe(u64);

/// The uniform (old, global) conservative bound of the fixture.
const UNIFORM: SimDuration = SimDuration::from_millis(2);

/// The true floor of any cross-region event chain in this fixture:
/// a probe leaves its region with zero delay, reaches the shard-0
/// relay, and is forwarded to the peer region exactly this much later.
const CROSS_FLOOR: SimDuration = SimDuration::from_millis(100);

/// Ask the shard-0 relay to forward a probe to the peer region.
#[derive(Debug, Clone, Copy)]
struct RelayProbe {
    to: ActorId,
    probe: Probe,
}

/// The global-shard relay: regions may only talk to each other through
/// shard 0 (the fixture mirror of the cellular network/coordinator).
struct Relay;
impl Actor for Relay {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        let m = ev.downcast::<RelayProbe>().expect("relay handles probes");
        ctx.send_in(CROSS_FLOOR, m.to, m.probe);
    }
    impl_actor_any!();
}

/// A region head: ticks itself every millisecond, records every
/// delivery in order (so any schedule divergence corrupts the log),
/// and probes the peer region on a slow cadence via the relay.
///
/// The witness is RNG-free on purpose: sharding forks one RNG stream
/// per shard, so draws differ from the unsharded run by design — the
/// contract compared here is the *event schedule* (delivery times,
/// payloads and per-actor order).
struct Region {
    relay: ActorId,
    peer: ActorId,
    /// Whether this region emits probes (a pure receiver has an empty
    /// outbox, so only the declared bound limits its window).
    probes: bool,
    /// `(now_ns, payload)` per delivery — the schedule witness.
    /// Probes are tagged with the high bit to keep them distinct.
    log: Vec<(u64, u64)>,
    probes_seen: u64,
    ticks: u64,
}

impl Actor for Region {
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
        let ev = match ev.downcast::<Tick>() {
            Ok(t) => {
                self.log.push((ctx.now().as_nanos(), t.0));
                self.ticks += 1;
                if t.0 > 0 {
                    ctx.send_in(SimDuration::from_millis(1), ctx.self_id(), Tick(t.0 - 1));
                }
                // Every 50th tick, probe the peer region through the
                // shard-0 relay (regions never talk directly).
                if t.0 % 50 == 0 && self.probes {
                    ctx.send(
                        self.relay,
                        RelayProbe {
                            to: self.peer,
                            probe: Probe(t.0),
                        },
                    );
                }
                return;
            }
            Err(ev) => ev,
        };
        let p = ev.downcast::<Probe>().expect("fixture sends Tick or Probe");
        self.log.push((ctx.now().as_nanos(), p.0 | 1 << 63));
        self.probes_seen += 1;
    }
    impl_actor_any!();
}

/// Build the two-region topology: actor 0 is the shard-0 relay,
/// actors 1 and 2 are the region heads.
fn build(seed: u64) -> (Sim, ActorId, ActorId) {
    build_with(seed, true)
}

fn build_with(seed: u64, b_probes: bool) -> (Sim, ActorId, ActorId) {
    let mut sim = Sim::new(seed);
    let relay = sim.add_actor(Box::new(Relay));
    let a = sim.add_actor(Box::new(Region {
        relay,
        peer: ActorId::UNSET,
        probes: true,
        log: Vec::new(),
        probes_seen: 0,
        ticks: 0,
    }));
    let b = sim.add_actor(Box::new(Region {
        relay,
        peer: ActorId::UNSET,
        probes: b_probes,
        log: Vec::new(),
        probes_seen: 0,
        ticks: 0,
    }));
    sim.actor_mut::<Region>(a).peer = b;
    sim.actor_mut::<Region>(b).peer = a;
    sim.schedule_at(SimTime::ZERO, a, Tick(1000));
    sim.schedule_at(SimTime::ZERO, b, Tick(1000));
    (sim, a, b)
}

/// Determinism witness of one finished run: both regions' delivery
/// logs plus their probe counters.
type Witness = (Vec<(u64, u64)>, Vec<(u64, u64)>, u64, u64);

/// Harvest the determinism witness of one finished run.
fn witness(sim: &Sim, a: ActorId, b: ActorId) -> Witness {
    let ra = sim.actor::<Region>(a);
    let rb = sim.actor::<Region>(b);
    (
        ra.log.clone(),
        rb.log.clone(),
        ra.probes_seen,
        rb.probes_seen,
    )
}

/// Run sharded to `until` with the given per-destination cross bounds
/// (`None` = keep the uniform defaults from `enable_sharding`).
fn run_sharded(seed: u64, bounds: Option<Vec<SimDuration>>, threads: usize) -> (Sim, u64) {
    let (mut sim, a, b) = build(seed);
    sim.enable_sharding(vec![0, 1, 2], UNIFORM, threads);
    if let Some(bounds) = bounds {
        sim.set_shard_bounds(bounds);
    }
    sim.enable_sanitizer();
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
    let windows = sim.causality_report().expect("sanitizer on").windows;
    let _ = (a, b);
    (sim, windows)
}

fn per_dest_bounds() -> Vec<SimDuration> {
    vec![UNIFORM, CROSS_FLOOR, CROSS_FLOOR]
}

/// The headline claim: with the true 100 ms cross-region floor
/// declared per destination, the kernel needs far fewer barrier
/// windows than under the uniform 2 ms bound — and the witness logs
/// (delivery times, payloads, per-actor order) match the unsharded
/// run bit-exactly in both modes.
#[test]
fn per_destination_bound_cuts_windows_without_changing_the_schedule() {
    // Reference: plain sequential run, no sharding.
    let (mut seq, a, b) = build(7);
    seq.run_until(SimTime::ZERO + SimDuration::from_secs(2));
    let reference = witness(&seq, a, b);
    assert!(reference.2 > 0, "fixture must exchange cross-region probes");

    let (uni_sim, uni_windows) = run_sharded(7, None, 1);
    let (pd_sim, pd_windows) = run_sharded(7, Some(per_dest_bounds()), 1);

    assert_eq!(
        witness(&uni_sim, a, b),
        reference,
        "uniform-bound sharded run diverged from the unsharded schedule"
    );
    assert_eq!(
        witness(&pd_sim, a, b),
        reference,
        "per-destination sharded run diverged from the unsharded schedule"
    );
    assert_eq!(uni_sim.events_processed(), seq.events_processed());
    assert_eq!(pd_sim.events_processed(), seq.events_processed());

    // The event-count win: the uniform bound barriers every ~2 ms of
    // regional progress; the per-destination bound lets each region
    // run ~50× further between barriers.
    assert!(
        pd_windows * 10 <= uni_windows,
        "expected ≥10× fewer windows with per-destination bounds: \
         uniform {uni_windows}, per-destination {pd_windows}"
    );
}

/// The window win survives worker threads, and the logs still match
/// the sequential schedule.
#[test]
fn per_destination_bound_is_thread_invariant() {
    let (mut seq, a, b) = build(13);
    seq.run_until(SimTime::ZERO + SimDuration::from_secs(2));
    let reference = witness(&seq, a, b);

    let mut window_counts = Vec::new();
    for threads in [1, 2, 4] {
        let (sim, windows) = run_sharded(13, Some(per_dest_bounds()), threads);
        assert_eq!(
            witness(&sim, a, b),
            reference,
            "per-destination run at {threads} threads diverged"
        );
        window_counts.push(windows);
    }
    assert!(
        window_counts.windows(2).all(|w| w[0] == w[1]),
        "window count must not depend on thread count: {window_counts:?}"
    );
}

/// Declaring a cross bound *above* the true floor is a contract
/// violation the sanitizer catches. Region B is a pure receiver (no
/// outgoing probes), so only its declared bound limits its window:
/// lying that cross-region traffic takes ≥500 ms lets B's horizon run
/// half a second ahead, and A's real 100 ms probe then lands below it.
/// B's clock has run ahead too, so a release build — where the
/// sanitizer only counts — is stopped by the kernel's always-on
/// below-the-clock assert instead.
#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "below its widened horizon"))]
#[cfg_attr(
    not(debug_assertions),
    should_panic(expected = "below the shard's safe horizon")
)]
fn overdeclared_cross_bound_trips_the_sanitizer() {
    let (mut sim, _a, _b) = build_with(17, false);
    sim.enable_sharding(vec![0, 1, 2], UNIFORM, 1);
    sim.set_shard_bounds(vec![
        UNIFORM,
        UNIFORM,
        // Lie: claim 500 ms when probes really arrive after 100 ms.
        SimDuration::from_millis(500),
    ]);
    sim.enable_sanitizer();
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
}
