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
//! * **local** — checkpoint to each node's own storage plus input
//!   preservation; "not a realistic fault model … but represents an
//!   upper bound in performance" ([`local`]).
//! * **dist-n** — "modeled after Cooperative HA and SGuard": each node
//!   periodically unicasts its checkpoint to `n` peers, and every
//!   operator retains its output tuples (input preservation) for
//!   replay. Tolerates up to `n` simultaneous failures ([`dist`]).
//!
//! All schemes plug into the same [`dsps::node::NodeActor`] runtime via
//! [`dsps::ft::FtScheme`]; the per-region [`coordinator`] actor
//! triggers checkpoint ticks, pings source nodes, and drives
//! scheme-specific recovery.

pub mod coordinator;
pub mod dist;
pub mod local;
pub mod msgs;
pub mod rep2;
pub mod upstream;

pub use coordinator::{BaselineCoordinator, BaselineKind};
pub use dist::DistScheme;
pub use local::LocalScheme;
pub use rep2::{duplicate_graph, Rep2Scheme};
pub use upstream::UpstreamScheme;
