//! `msbench` — the repository's benchmark: four workloads, host-time
//! and simulated end-to-end metrics, per-layer counts, phase spans and
//! layer drivers. `README.md` has the tables and how to read them.

pub mod bench;
pub mod cli;
pub mod clock;
pub mod drivers;
pub mod host;
pub mod registry;
pub mod rep;
pub mod stats;
pub mod trace;
pub mod workloads;
