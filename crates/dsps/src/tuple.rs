//! Tuples — the unit of data flowing between operators — and markers,
//! the in-band control records used for checkpoint tokens.

use std::sync::Arc;

use simkernel::{Event, SimTime};

/// Reference-counted, type-erased tuple content. Cloning a tuple for
/// replication, preservation or replay never copies the content.
pub type TupleValue = Arc<dyn Event>;

/// Build a [`TupleValue`] from a concrete type.
pub fn value<T: Event>(v: T) -> TupleValue {
    Arc::new(v)
}

/// One unit of stream data.
#[derive(Debug, Clone)]
pub struct Tuple {
    /// Unique id: `(origin_node_slot << 40) | per-node sequence`.
    pub id: u64,
    /// When the tuple (or its earliest ancestor) entered the system —
    /// the paper measures latency as enter-to-leave time.
    pub entered: SimTime,
    /// Serialized size in bytes (drives network cost).
    pub bytes: u64,
    /// Content.
    pub value: TupleValue,
    /// True while the tuple (or its source ancestor) is being replayed
    /// during catch-up; sinks discard replay results (§III-D). Derived
    /// tuples inherit the flag from the input that produced them.
    pub replay: bool,
}

impl Tuple {
    /// Construct a fresh source tuple.
    pub fn new(id: u64, entered: SimTime, bytes: u64, value: TupleValue) -> Self {
        Tuple {
            id,
            entered,
            bytes,
            value,
            replay: false,
        }
    }

    /// Downcast the content.
    pub fn value_as<T: 'static>(&self) -> Option<&T> {
        (*self.value).as_any().downcast_ref::<T>()
    }
}

/// An in-band control record. Markers flow through the same per-edge
/// FIFO queues as tuples, so "every tuple before the marker" is a
/// well-defined cut — exactly what the paper's token needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Marker {
    /// Scheme-defined kind (e.g. [`Marker::CHECKPOINT_TOKEN`]).
    pub kind: u32,
    /// Scheme-defined version (checkpoint number for tokens).
    pub version: u64,
    /// Wire size; the paper's token is "less than 1% of tuple size".
    pub bytes: u64,
}

impl Marker {
    /// The MobiStreams checkpoint token kind.
    pub const CHECKPOINT_TOKEN: u32 = 1;

    /// A checkpoint token for checkpoint `version`.
    pub fn token(version: u64) -> Self {
        Marker {
            kind: Marker::CHECKPOINT_TOKEN,
            version,
            bytes: 16,
        }
    }
}

/// What flows on an edge: data or control.
#[derive(Debug, Clone)]
pub enum StreamItem {
    /// A data tuple.
    Tuple(Tuple),
    /// An in-band marker.
    Marker(Marker),
}

impl StreamItem {
    /// Wire size of the item.
    pub fn bytes(&self) -> u64 {
        match self {
            StreamItem::Tuple(t) => t.bytes,
            StreamItem::Marker(m) => m.bytes,
        }
    }

    /// The tuple inside, if data.
    pub fn as_tuple(&self) -> Option<&Tuple> {
        match self {
            StreamItem::Tuple(t) => Some(t),
            StreamItem::Marker(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_value_downcast() {
        let t = Tuple::new(1, SimTime::ZERO, 100, value(42u32));
        assert_eq!(t.value_as::<u32>(), Some(&42));
        assert!(t.value_as::<String>().is_none());
    }

    #[test]
    fn tuple_clone_shares_content() {
        let v = value(vec![1u8; 1000]);
        let t = Tuple::new(1, SimTime::ZERO, 1000, v.clone());
        let t2 = t.clone();
        assert_eq!(Arc::strong_count(&v), 3);
        assert_eq!(t2.bytes, 1000);
    }

    #[test]
    fn marker_token() {
        let m = Marker::token(7);
        assert_eq!(m.kind, Marker::CHECKPOINT_TOKEN);
        assert_eq!(m.version, 7);
        assert!(m.bytes < 100, "tokens are tiny");
    }

    #[test]
    fn stream_item_accessors() {
        let t = StreamItem::Tuple(Tuple::new(1, SimTime::ZERO, 64, value(())));
        assert_eq!(t.bytes(), 64);
        assert!(t.as_tuple().is_some());
        let m = StreamItem::Marker(Marker::token(1));
        assert!(m.as_tuple().is_none());
        assert_eq!(m.bytes(), 16);
    }
}
