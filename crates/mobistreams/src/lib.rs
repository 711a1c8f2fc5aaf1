//! # mobistreams — the paper's contribution
//!
//! A reliable DSPS for smartphones (Wang & Peh, IPDPS 2014), built on
//! the `dsps` runtime and `simnet` transports:
//!
//! * [`broadcast`] — **broadcast-based checkpointing** (§III-C, Fig 6):
//!   checkpoint/preservation data ships as 1 KB UDP broadcast blocks in
//!   multiple phases; receivers return reception bitmaps; the sender
//!   ANDs them, rebroadcasts the union of losses, and stops when the
//!   phase's *cost* exceeds its *gain*; a final reliable pass over a
//!   distribution tree delivers the residue.
//! * [`scheme`] — **token-triggered checkpointing** (§III-B, Fig 5):
//!   the per-node [`dsps::ft::FtScheme`] implementing token alignment,
//!   asynchronous state snapshots, source preservation, rollback and
//!   catch-up squelching.
//! * [`controller`] — the sharded control plane (§III-A/D/E): a thin
//!   global [`controller::Coordinator`] (inter-region wiring, install
//!   brokering) plus per-region
//!   [`controller::RegionController`]s owning membership, checkpoint
//!   triggering, ping-based failure detection, burst-failure recovery,
//!   departures (urgent mode → state transfer → replacement), and
//!   region bypass — converging membership with epoch-numbered batched
//!   deltas ([`controller::reconcile`]).
//! * [`msgs`] — the control-plane protocol records.

pub mod broadcast;
pub mod controller;
pub mod msgs;
pub mod scheme;

pub use controller::{Coordinator, RegionController, RegionSpec};
pub use scheme::MsScheme;
