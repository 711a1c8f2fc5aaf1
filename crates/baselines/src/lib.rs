//! # baselines — the prior-art fault-tolerance schemes of §IV-B
//!
//! The paper compares MobiStreams against four configurations on the
//! same smartphone platform:
//!
//! * **base** — no fault tolerance ([`dsps::ft::NullScheme`]).
//! * **rep-2** — active standby, "representative of Flux and Borealis":
//!   two replicas of each operator run as parallel dataflows; the
//!   secondary's sink output is squelched; on a (single) failure the
//!   surviving flow takes over immediately. Tolerates exactly one
//!   failure ([`rep2`]).
//! * **local** and **dist-n** — one scheme, [`retain::RetainScheme`]:
//!   each node periodically checkpoints and every operator retains its
//!   output tuples (input preservation) for replay. `local` keeps the
//!   copy in the node's own storage ("not a realistic fault model … but
//!   represents an upper bound in performance"); dist-n, "modeled after
//!   Cooperative HA and SGuard", also unicasts it to `n` peers and
//!   tolerates up to `n` simultaneous failures.
//!
//! Upstream backup (Hwang'05, a related-work extension) is the same
//! retention with no checkpoints ([`retain`]).
//!
//! All schemes plug into the same [`dsps::node::NodeActor`] runtime via
//! [`dsps::ft::FtScheme`]; the per-region [`coordinator`] actor
//! triggers checkpoint ticks, pings hosting nodes, and drives
//! scheme-specific recovery.

pub mod coordinator;
pub mod msgs;
pub mod rep2;
pub mod retain;

pub use coordinator::{BaselineCoordinator, BaselineKind};
pub use rep2::{duplicate_graph, Rep2Scheme};
pub use retain::RetainScheme;
