//! Fig 10: the data volumes behind the Fig 8 overheads.
//!
//! (a) bytes **saved** due to input/source preservation — ms preserves
//! only source inputs (once, logically); local/dist-n retain output
//! tuples at every operator, so their retained mass scales with both
//! throughput and pipeline depth.
//!
//! (b) bytes **sent over the network** due to checkpointing or
//! replication — ms broadcasts each state once (plus bitmaps and the
//! TCP residue); dist-n unicasts n copies; rep-2's duplicate dataflow
//! is all replication traffic; local sends nothing; base does nothing.

use crate::fig8::{scheme_table, steady_points};
use crate::report::{Cell, Table};
use crate::scenario::{AppKind, Scheme};
use crate::sweep::{relative, sweep, Means};
use crate::ExpOptions;

/// Fig 10's seed means per `(app, scheme)`: Fig 8's fault-free points
/// on their own seeds.
pub fn means(opts: ExpOptions) -> Vec<((AppKind, Scheme), Means)> {
    sweep(steady_points(), 2000, opts)
}

/// Fig 10a (preserved bytes) and 10b (checkpoint/replication network
/// bytes), relative to ms-8 as the paper normalizes them.
pub fn tables(means: &[((AppKind, Scheme), Means)]) -> Vec<(String, Table)> {
    const MB: f64 = 1024.0 * 1024.0;
    vec![
        (
            "fig10_0".into(),
            scheme_table(
                "Fig 10a — input/source preservation data (relative to ms-8)",
                "MB",
                means,
                Scheme::Ms,
                |m, ms| {
                    [
                        Cell::Num(relative(
                            m.preserved_bytes.mean,
                            ms.preserved_bytes.mean,
                            0.0,
                        )),
                        Cell::Num(m.preserved_bytes.mean / MB),
                    ]
                },
            ),
        ),
        (
            "fig10_1".into(),
            scheme_table(
                "Fig 10b — checkpoint/replication network data (relative to ms-8)",
                "MB",
                means,
                Scheme::Ms,
                |m, ms| {
                    [
                        Cell::Num(relative(
                            m.ckpt_repl_bytes.mean,
                            ms.ckpt_repl_bytes.mean,
                            0.0,
                        )),
                        Cell::Num(m.ckpt_repl_bytes.mean / MB),
                    ]
                },
            ),
        ),
    ]
}
