//! # simnet — the network substrate MobiStreams runs on
//!
//! Three transports, each an [`simkernel::Actor`]:
//!
//! * [`wifi::WifiMedium`] — one per region: a shared, half-duplex,
//!   broadcast-capable, *lossy* channel (the phones' ad-hoc WiFi,
//!   1–5 Mbps in the paper). Carries retransmission-expanded reliable
//!   unicast (TCP) and the datagram *batches* of the checkpoint
//!   broadcast protocol (UDP: one airtime slot reaches every member,
//!   each block lost per receiver).
//! * [`cellular::CellularNet`] — one global: per-endpoint asymmetric
//!   uplink/downlink rate queues plus RTT (the 3G network: 0.016–0.32
//!   Mbps up, 0.35–1.14 Mbps down in the paper). Reliable.
//! * [`ethernet::EthernetNet`] — the datacenter switch used by the
//!   server-based DSPS baseline of Table I. Fast, symmetric, reliable.
//!
//! All three speak one envelope: a [`NetSend`] in (put there by
//! [`net_send`]), a [`NetRx`] out at the destination, and [`SetLink`]
//! to change a node's liveness. Only timing, loss and queueing differ,
//! so a receiver never asks which network a message came over. Beyond
//! the envelope a transport has only its own weather controls (loss,
//! brownout, partition), and WiFi its checkpoint broadcast batches
//! ([`wifi::WifiBatchSend`]). Payloads are [`Payload`]s (an
//! `Arc<dyn Event>`), so a broadcast clones a pointer, not the tuple.
//! Senders receive [`TxDone`]/[`TxFailed`]/[`TxDropped`]/[`TxSevered`]
//! completions keyed by caller-chosen tags; failure of a reliable send
//! to a dead or departed node is how the upper layers *detect*
//! failures, exactly as in the paper (§III-D).

pub mod bitmap;
pub mod cellular;
pub mod ethernet;
pub mod link;
pub mod stats;
pub mod wifi;

use simkernel::{ActorId, Ctx, Event};
use std::sync::Arc;

use crate::stats::TrafficClass;

/// Reference-counted, type-erased message payload. Cheap to fan out to
/// many receivers (broadcast) without cloning the content.
pub type Payload = Arc<dyn Event>;

/// Request to a transport actor: carry `bytes` from `src` to `dst`.
#[derive(Debug)]
pub struct NetSend {
    /// Sending node.
    pub src: ActorId,
    /// Receiving node.
    pub dst: ActorId,
    /// Accounting class.
    pub class: TrafficClass,
    /// Payload size in bytes (drives airtime / link time).
    pub bytes: u64,
    /// Completion tag; 0 = no completion wanted.
    pub tag: u64,
    /// Message content; `None` charges the bytes and delivers nothing.
    pub payload: Option<Payload>,
}

/// Delivery of a [`NetSend`] at its destination, whatever the network.
#[derive(Debug, Clone)]
pub struct NetRx {
    /// Sending node.
    pub src: ActorId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Accounting class (receivers class their replies the same way).
    pub class: TrafficClass,
    /// Message content.
    pub payload: Payload,
}

/// Control: change a node's link state on the transport receiving it
/// (failure, departure, return).
#[derive(Debug, Clone, Copy)]
pub struct SetLink {
    /// The node whose state changes.
    pub node: ActorId,
    /// New state.
    pub state: LinkState,
}

/// Send from the calling actor to `dst` through the transport actor
/// `net` (a region's WiFi medium, the cellular network or an Ethernet
/// switch). The one way every layer puts a message on a network.
/// `payload` is a [`Payload`], or `None` to charge the bytes only.
pub fn net_send(
    ctx: &mut Ctx,
    net: ActorId,
    dst: ActorId,
    class: TrafficClass,
    bytes: u64,
    tag: u64,
    payload: impl Into<Option<Payload>>,
) {
    let src = ctx.self_id();
    let send = NetSend {
        src,
        dst,
        class,
        bytes,
        tag,
        payload: payload.into(),
    };
    ctx.send(net, send);
}

/// Wrap a concrete event into a [`Payload`].
pub fn payload<T: Event>(ev: T) -> Payload {
    Arc::new(ev)
}

/// Borrowing downcast of a [`Payload`]'s *content*.
///
/// Important: call this rather than `payload.as_any()` — the blanket
/// `Event` impl also covers `Arc<dyn Event>` itself, so method syntax
/// would downcast the Arc, never the content.
pub fn payload_as<T: std::any::Any>(p: &Payload) -> Option<&T> {
    (**p).as_any().downcast_ref::<T>()
}

/// Sender-side completion: the logical message tagged `tag` has fully
/// left the sender (airtime reserved / uplink drained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxDone {
    /// Caller-chosen correlation tag (0 = caller did not ask).
    pub tag: u64,
}

/// Sender-side failure: a *reliable* send could not be delivered
/// (receiver dead, departed, or unknown). Delivered after the
/// transport's failure-detection timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxFailed {
    /// Caller-chosen correlation tag.
    pub tag: u64,
    /// The unreachable destination.
    pub dst: simkernel::ActorId,
}

/// Sender-side congestion loss: a bounded link queue was full, so the
/// message was tail-dropped *before* consuming link time. Unlike
/// [`TxFailed`] this says nothing about the destination's liveness —
/// the peer is alive, the pipe is just saturated — so receivers of
/// this event must not raise failure reports over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxDropped {
    /// Caller-chosen correlation tag.
    pub tag: u64,
    /// The destination the message was headed for.
    pub dst: simkernel::ActorId,
}

/// Sender-side partition notice: the path between the endpoints is
/// administratively severed (a network-weather partition), so the
/// message aged out after the transport's failure-detection timeout.
/// Unlike [`TxFailed`] this says nothing about the destination's
/// liveness — both endpoints may be alive and the partition may heal —
/// so receivers must not raise death reports over it; the right
/// response is a capped-backoff retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxSevered {
    /// Caller-chosen correlation tag.
    pub tag: u64,
    /// The destination the message was headed for.
    pub dst: simkernel::ActorId,
}

/// Liveness of a node as seen by a transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkState {
    /// Sends and receives normally.
    #[default]
    Active,
    /// Crashed: receives nothing; reliable sends to it fail after the
    /// timeout.
    Dead,
    /// Departed the region: same observable behaviour as `Dead` on this
    /// transport, but upper layers distinguish the cause.
    Gone,
}

impl LinkState {
    /// Can this node currently receive on the transport?
    pub fn reachable(self) -> bool {
        matches!(self, LinkState::Active)
    }
}
