//! Type-erased events exchanged between actors.
//!
//! Every message in the simulation — a WiFi frame, a stream tuple, a
//! controller ping, a timer — is a concrete struct implementing [`Event`]
//! (which is blanket-implemented for any `'static + Debug` type). Actors
//! receive an [`EventBox`](crate::EventBox) (pooled or plain, see
//! [`crate::pool`]) and downcast to the types they understand, which
//! keeps the crates decoupled: `simnet` never needs to know about
//! checkpoint tokens, and `mobistreams` never needs to know about
//! Ethernet frames.

use std::any::{Any, TypeId};
use std::fmt;

/// A simulation event/message. Blanket-implemented for every
/// `'static + Debug` type; do not implement manually.
pub trait Event: Any + fmt::Debug + Send + Sync {
    /// Upcast to `&dyn Any` for downcasting.
    fn as_any(&self) -> &dyn Any;
    /// The event's type name, for "unhandled event" panics and diagnostics.
    fn type_name(&self) -> &'static str;
    /// The concrete type's `TypeId` in one virtual call
    /// (`as_any().type_id()` costs two).
    fn event_type(&self) -> TypeId;
    /// Bitwise-move `self` to `dst` and return the moved value with its
    /// vtable: how [`EventBox`](crate::EventBox) re-homes a payload
    /// whose concrete type it no longer knows.
    ///
    /// # Safety
    /// `dst` must be valid for writes of `self`'s layout and not
    /// overlap it; the caller owns `self` and must treat it as
    /// moved-from afterwards.
    #[doc(hidden)]
    unsafe fn relocate(&self, dst: *mut u8) -> *mut dyn Event;
}

impl<T: Any + fmt::Debug + Send + Sync> Event for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn type_name(&self) -> &'static str {
        std::any::type_name::<T>()
    }
    fn event_type(&self) -> TypeId {
        TypeId::of::<T>()
    }
    unsafe fn relocate(&self, dst: *mut u8) -> *mut dyn Event {
        let dst = dst.cast::<T>();
        // SAFETY: the caller's contract.
        unsafe { std::ptr::copy_nonoverlapping(self, dst, 1) };
        dst
    }
}

/// A typed downcast failure: the event that arrived is not the type the
/// handler expected. Carries both type names so a mis-routed event is
/// immediately diagnosable instead of a bare `expect` panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MisroutedEvent {
    /// The type the handler asked for.
    pub expected: &'static str,
    /// The type that actually arrived.
    pub actual: &'static str,
}

impl fmt::Display for MisroutedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mis-routed event: handler expected {}, got {}",
            self.expected, self.actual
        )
    }
}

impl std::error::Error for MisroutedEvent {}

impl dyn Event {
    /// True if the boxed event is a `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.event_type() == TypeId::of::<T>()
    }

    /// Borrowing downcast.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.as_any().downcast_ref::<T>()
    }
}

/// Dispatch an event to per-type handlers. Reads the payload's
/// `TypeId` once and compares it against each arm's type in order, so
/// a non-matching arm costs one 128-bit compare; the first matching arm
/// takes the event by value, and `@else` receives the original box
/// (pooled or plain) untouched. Accepts an
/// [`EventBox`](crate::EventBox) (the [`Actor::on_event`](crate::Actor)
/// argument) or a plain `Box<dyn Event>`.
///
/// ```
/// use simkernel::{match_event, Event, EventBox};
/// #[derive(Debug)] struct A(u32);
/// #[derive(Debug)] struct B;
/// let ev = EventBox::new(A(7));
/// let mut got = 0;
/// match_event!(ev,
///     a: A => { got = a.0; },
///     _b: B => { got = 99; },
///     @else other => { panic!("unhandled {}", other.type_name()); }
/// );
/// assert_eq!(got, 7);
/// ```
#[macro_export]
macro_rules! match_event {
    ($ev:expr, $( $name:ident : $ty:ty => $body:block ),+ , @else $fallback:ident => $fb:block ) => {{
        let mut __ev: $crate::EventBox = ::core::convert::Into::into($ev);
        let __ty = $crate::EventBox::event_type(&__ev);
        #[allow(unreachable_code, clippy::never_loop)]
        loop {
            $(
                if __ty == ::core::any::TypeId::of::<$ty>() {
                    __ev = match __ev.downcast::<$ty>() {
                        Ok(__v) => {
                            let $name: $ty = __v;
                            $body
                            break;
                        }
                        Err(__e) => __e,
                    };
                }
            )+
            let $fallback = __ev;
            $fb
            break;
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u64);
    #[derive(Debug)]
    struct Pong;

    #[test]
    fn downcast_ref_and_is() {
        let ev: Box<dyn Event> = Box::new(Ping(9));
        assert!(ev.is::<Ping>());
        assert!(!ev.is::<Pong>());
        assert_eq!(ev.downcast_ref::<Ping>(), Some(&Ping(9)));
        assert!(ev.downcast_ref::<Pong>().is_none());
    }

    #[test]
    fn consuming_downcast_success_and_recovery() {
        let ev = crate::EventBox::new(Ping(3));
        let ev = match ev.downcast::<Pong>() {
            Ok(_) => panic!("wrong type matched"),
            Err(original) => original,
        };
        let ping = ev.downcast::<Ping>().expect("should match Ping");
        assert_eq!(ping, Ping(3));
    }

    #[test]
    fn type_name_reports_concrete_type() {
        let ev: Box<dyn Event> = Box::new(Pong);
        // Note: call through the deref — `Box<dyn Event>` itself satisfies
        // the blanket impl, so `ev.type_name()` would name the Box.
        assert!((*ev).type_name().ends_with("Pong"));
    }

    #[test]
    fn downcast_expected_names_both_types() {
        let ev = crate::EventBox::new(Ping(4));
        let err = ev.downcast_expected::<Pong>().unwrap_err();
        assert!(
            err.expected.ends_with("Pong"),
            "expected = {}",
            err.expected
        );
        assert!(err.actual.ends_with("Ping"), "actual = {}", err.actual);
        let msg = err.to_string();
        assert!(msg.contains("mis-routed"), "message = {msg}");

        let ev = crate::EventBox::new(Ping(4));
        assert_eq!(ev.downcast_expected::<Ping>().unwrap(), Ping(4));
    }

    #[test]
    fn match_event_dispatch() {
        let ev: Box<dyn Event> = Box::new(Pong);
        #[allow(unused_assignments)]
        let mut hit = "";
        match_event!(ev,
            _p: Ping => { hit = "ping"; },
            _q: Pong => { hit = "pong"; },
            @else _other => { hit = "none"; }
        );
        assert_eq!(hit, "pong");
    }

    #[test]
    fn match_event_fallback() {
        #[derive(Debug)]
        struct Mystery;
        let ev: Box<dyn Event> = Box::new(Mystery);
        #[allow(unused_assignments)]
        let mut hit = "";
        match_event!(ev,
            _p: Ping => { hit = "ping"; },
            @else other => { hit = if other.is::<Mystery>() { "mystery" } else { "?" }; }
        );
        assert_eq!(hit, "mystery");
    }

    /// Arms are tried in order: with the same type listed twice, the
    /// first arm takes the event and the second never runs.
    #[test]
    fn match_event_first_matching_arm_wins() {
        let mut hits = Vec::new();
        match_event!(crate::EventBox::new(Ping(5)),
            _q: Pong => { hits.push("pong"); },
            p: Ping => { hits.push("first"); assert_eq!(p, Ping(5)); },
            _p: Ping => { hits.push("second"); },
            @else _other => { hits.push("else"); }
        );
        assert_eq!(hits, ["first"]);
    }

    /// Pooled and plain boxes dispatch alike; a matching arm moves the
    /// payload out and the pooled slot is free again before the body
    /// runs.
    #[test]
    fn match_event_takes_pooled_and_plain_boxes() {
        let pool = crate::EventPool::new();
        for ev in [pool.make(Ping(8)), crate::EventBox::new(Ping(8))] {
            let pooled = ev.is_pooled();
            let mut got = Vec::new();
            match_event!(ev,
                _q: Pong => { panic!("wrong arm"); },
                p: Ping => {
                    if pooled {
                        drop(pool.make(Ping(0)));
                        assert_eq!(pool.stats().recycled, 1, "slot released before the body");
                    }
                    got.push(p);
                },
                @else _other => { panic!("fell through"); }
            );
            assert_eq!(got, [Ping(8)]);
        }
        assert_eq!(pool.stats().aliasing, 0);
    }

    /// No arm matching, `@else` gets the very box that came in: same
    /// payload address, still pooled if it was, nothing re-allocated.
    #[test]
    fn match_event_else_receives_the_original_box() {
        let pool = crate::EventPool::new();
        for ev in [pool.make(Ping(2)), crate::EventBox::new(Ping(2))] {
            let (pooled, addr) = (
                ev.is_pooled(),
                ev.downcast_ref::<Ping>().unwrap() as *const Ping,
            );
            let before = pool.stats();
            let mut seen = Vec::new();
            match_event!(ev,
                _q: Pong => { panic!("wrong arm"); },
                @else other => {
                    assert_eq!(other.is_pooled(), pooled);
                    assert_eq!(other.event_type(), TypeId::of::<Ping>());
                    assert_eq!(other.downcast_ref::<Ping>().unwrap() as *const Ping, addr);
                    assert_eq!(pool.stats(), before, "no pool traffic on the way to @else");
                    seen.push((*other).type_name());
                }
            );
            assert_eq!(seen.len(), 1);
        }
    }

    #[test]
    fn event_type_names_the_payload_not_the_box() {
        let plain: Box<dyn Event> = Box::new(Ping(1));
        // Through the deref: `Box<dyn Event>` is itself an `Event`.
        assert_eq!((*plain).event_type(), TypeId::of::<Ping>());
        let boxed = crate::EventBox::new(Pong);
        assert_eq!(boxed.event_type(), TypeId::of::<Pong>());
        assert!(boxed.is::<Pong>() && !boxed.is::<Ping>());
    }
}
