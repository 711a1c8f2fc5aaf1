//! # simkernel — deterministic discrete-event simulation kernel
//!
//! The substrate every other crate in this workspace builds on. It provides
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`Event`] — type-erased messages exchanged between actors,
//! * [`Actor`] — the unit of simulated behaviour (a phone, a WiFi medium,
//!   the MobiStreams controller, …),
//! * [`Sim`] — the event loop: a radix-heap priority queue of
//!   `(time, seq)`-ordered events dispatched to actors, plus one seeded
//!   RNG.
//!
//! Determinism contract: two runs constructed identically (same actor
//! insertion order, same seed, same scheduled events) process the exact
//! same event sequence. Ties in time are broken by a monotone sequence
//! number, and all randomness flows through the single [`rng::SimRng`].
//!
//! ```
//! use simkernel::{Sim, Actor, Ctx, EventBox, SimDuration, ActorId};
//!
//! #[derive(Debug)]
//! struct Tick(u32);
//!
//! struct Counter { seen: u32 }
//! impl Actor for Counter {
//!     fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx) {
//!         let tick = ev.downcast::<Tick>().unwrap();
//!         self.seen += tick.0;
//!         if self.seen < 10 {
//!             ctx.send_in(SimDuration::from_millis(5), ctx.self_id(), Tick(1));
//!         }
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut sim = Sim::new(42);
//! let id = sim.add_actor(Box::new(Counter { seen: 0 }));
//! sim.schedule_in(SimDuration::ZERO, id, Tick(1));
//! sim.run();
//! assert_eq!(sim.actor::<Counter>(id).seen, 10);
//! ```

pub mod actor;
pub mod event;
pub mod pool;
mod queue;
pub mod rng;
pub mod sim;
pub mod time;
mod workers;

pub use actor::{Actor, ActorId};
pub use event::{Event, MisroutedEvent};
pub use pool::{EventBox, EventPool, PoolStats};
pub use rng::SimRng;
pub use sim::{CausalityReport, Ctx, Sim};
pub use time::{SimDuration, SimTime};

/// FNV-1a over little-endian `u64` words: the hash behind report
/// digests and the causality sanitizer's ledger.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fold one word in, byte by byte.
    pub fn mix(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every word folded so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}
