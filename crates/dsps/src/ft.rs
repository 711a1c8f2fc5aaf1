//! Fault-tolerance scheme hooks.
//!
//! The node runtime is scheme-agnostic; every fault-tolerance strategy
//! — MobiStreams' token-triggered checkpointing as well as the rep-2 /
//! local / dist-n baselines — plugs in through [`FtScheme`]. Hooks are
//! invoked at the points the paper's schemes differ:
//!
//! | Hook | MobiStreams | rep-2 | local / dist-n / upstream (one scheme: output retention + n peer copies) |
//! |---|---|---|---|
//! | `on_source_input` | log the input under the current epoch | — | — |
//! | `on_emit` | a source's remote emission becomes one preservation broadcast | — | output retention (input preservation); trimmed once per window when no checkpoints are taken (upstream) |
//! | `on_marker` | token alignment, async checkpoint | — | — |
//! | `allow_sink_publish` | catch-up discard (default) | secondary-flow squelch | catch-up discard (default) |
//! | `on_custom` | `CheckpointTick` (start the token wave), bitmaps, TCP tree, controller RPCs, departure | primary flip | `CheckpointTick` (own store + n peer copies, n = 0 for local), peer copies, state ship, retained-output replay |
//! | `on_install` | `Recovered` | — | `Recovered`; a checkpointing node also clears its retention |
//! | `preserved_bytes` | preserved source inputs | — | retained outputs |
//!
//! Both control planes speak one vocabulary to the nodes:
//! [`crate::node::CheckpointTick`] starts a round,
//! [`crate::node::Recovered`] ends a node's part of a recovery, and
//! [`crate::node::wire`] sizes them, the pings and the registrations.

use simkernel::{Ctx, EventBox};

use crate::graph::{EdgeId, OpId};
use crate::node::NodeInner;
use crate::tuple::{Marker, Tuple};

/// Scheme hooks invoked by [`crate::node::NodeActor`].
///
/// All methods default to "do nothing" so simple schemes stay simple;
/// [`NullScheme`] uses the defaults verbatim (the paper's `base`).
pub trait FtScheme: Send {
    /// Scheme name for traces and reports.
    fn name(&self) -> &'static str;

    /// A marker reached the front of `edge`'s queue and was consumed.
    fn on_marker(&mut self, marker: Marker, edge: EdgeId, node: &mut NodeInner, ctx: &mut Ctx) {
        let _ = (marker, edge, node, ctx);
    }

    /// The node is about to route `tuple` on out-edge `edge`.
    /// Return `false` to suppress the send.
    fn on_emit(
        &mut self,
        tuple: &Tuple,
        edge: EdgeId,
        node: &mut NodeInner,
        ctx: &mut Ctx,
    ) -> bool {
        let _ = (tuple, edge, node, ctx);
        true
    }

    /// A sink operator finished a tuple. Return `false` to discard the
    /// result (no metrics, no inter-region publish) — used to squelch
    /// catch-up output ("sink nodes discard all results generated
    /// during catch-up", §III-D) and secondary replicas.
    fn allow_sink_publish(
        &mut self,
        tuple: &Tuple,
        op: OpId,
        node: &mut NodeInner,
        ctx: &mut Ctx,
    ) -> bool {
        let _ = (op, node, ctx);
        !tuple.replay
    }

    /// A fresh external input materialized at source `op` on this node.
    fn on_source_input(&mut self, tuple: &Tuple, op: OpId, node: &mut NodeInner, ctx: &mut Ctx) {
        let _ = (tuple, op, node, ctx);
    }

    /// An event the node runtime did not recognize; the scheme ignores
    /// what it does not know either.
    fn on_custom(&mut self, ev: EventBox, node: &mut NodeInner, ctx: &mut Ctx) {
        let _ = (ev, node, ctx);
    }

    /// The node was (re)installed by the controller.
    fn on_install(&mut self, node: &mut NodeInner, ctx: &mut Ctx) {
        let _ = (node, ctx);
    }

    /// Bytes this node currently retains for input/source preservation
    /// (Fig 10a accounting).
    fn preserved_bytes(&self, node: &NodeInner) -> u64 {
        let _ = node;
        0
    }

    /// Downcast support so harvesters can read scheme-specific
    /// statistics off a deployed node (fleet reports, probes).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// No fault tolerance at all — the paper's `base` configuration.
#[derive(Debug, Default)]
pub struct NullScheme;

impl FtScheme for NullScheme {
    fn name(&self) -> &'static str {
        "base"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
