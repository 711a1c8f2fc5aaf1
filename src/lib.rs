//! # mobistreams-repro — facade crate
//!
//! Re-exports the whole workspace so examples, integration tests and
//! downstream users can depend on a single crate. See the README for a
//! tour, and its "Workspace layout" and "Crate dependency DAG" sections
//! for the system inventory.

pub use apps;
pub use baselines;
pub use dsps;
pub use experiments;
pub use mobistreams;
pub use simkernel;
pub use simnet;
