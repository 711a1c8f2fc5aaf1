//! Actors: the unit of simulated behaviour.
//!
//! An actor owns its private state and reacts to events delivered by the
//! [`crate::Sim`] event loop. All cross-actor interaction goes through
//! events scheduled via [`crate::Ctx`]; actors never hold references to
//! each other, only [`ActorId`]s.

use std::any::Any;
use std::fmt;

use crate::pool::EventBox;
use crate::sim::Ctx;

/// Stable identifier of an actor within one simulation (index into the
/// actor table). Copyable and cheap to embed in events.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub(crate) u32);

impl ActorId {
    /// A sentinel id used before wiring is complete; dispatching to it
    /// panics, which turns wiring bugs into loud failures.
    pub const UNSET: ActorId = ActorId(u32::MAX);

    /// Raw index (for dense per-actor side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index. Only for tests and side-table decode;
    /// normal code receives ids from [`crate::Sim::add_actor`].
    pub fn from_index(ix: usize) -> Self {
        // simlint::allow(P001): registration-time bound — more than 4B actors is a programming error, and ids are minted before the sim runs
        ActorId(u32::try_from(ix).expect("actor index exceeds u32"))
    }
}

impl fmt::Debug for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ActorId::UNSET {
            write!(f, "actor#UNSET")
        } else {
            write!(f, "actor#{}", self.0)
        }
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Simulated behaviour attached to an [`ActorId`].
pub trait Actor: Any + Send {
    /// Handle one event. `ctx` provides the clock, the RNG and the
    /// ability to schedule further events.
    fn on_event(&mut self, ev: EventBox, ctx: &mut Ctx);

    /// Human-readable name for diagnostics.
    fn name(&self) -> String {
        "actor".to_string()
    }

    /// Upcast for post-run result harvesting (`Sim::actor::<T>()`).
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Implements the `as_any`/`as_any_mut` boilerplate for an actor type.
#[macro_export]
macro_rules! impl_actor_any {
    () => {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_id_round_trip() {
        let id = ActorId::from_index(17);
        assert_eq!(id.index(), 17);
        assert_eq!(format!("{id}"), "actor#17");
    }

    #[test]
    fn unset_is_distinct() {
        assert_ne!(ActorId::UNSET, ActorId::from_index(0));
        assert_eq!(format!("{}", ActorId::UNSET), "actor#UNSET");
    }
}
