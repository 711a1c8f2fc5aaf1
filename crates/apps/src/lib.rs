//! # apps — the paper's two driving applications
//!
//! * [`bcp`] — **Bus Capacity Prediction** (Fig 2): bus-stop cameras
//!   feed a face-counting pipeline (dispatcher → motion filter → four
//!   Haar counters → boarding model), joined with the previous stop's
//!   prediction to forecast on-bus passenger counts stop by stop.
//! * [`signalguru`] — **SignalGuru** (Fig 3, MobiSys'11): windshield
//!   phones photograph an intersection; color/shape/motion filter
//!   chains detect the signal, a voting filter smooths detections, and
//!   an SVM predicts the transition schedule passed to the next
//!   intersection.
//!
//! Kernels really execute on synthetic frames ([`image`], [`haar`],
//! [`vision`], [`svm`]); the *simulated* CPU time charged per tuple
//! comes from the [`calib`] cost model (an iPhone 3GS-class 600 MHz
//! core, the paper's testbed device).

pub mod bcp;
pub mod calib;
pub mod haar;
pub mod image;
pub mod models;
pub mod signalguru;
pub mod svm;
pub mod vision;

pub use bcp::build_bcp;
pub use calib::Calibration;
pub use signalguru::build_signalguru;

use dsps::graph::OpId;
use dsps::placement::Placement;
use simkernel::{ActorId, SimDuration};
use std::sync::Arc;

/// Everything the deployment builder needs to stand up one region of
/// an application.
pub struct AppBundle {
    /// The query network (Fig 2 / Fig 3).
    pub graph: Arc<dsps::graph::QueryGraph>,
    /// The paper's "same color = same node" grouping.
    pub placement: Placement,
    /// Sensor feeds: `(source op, period, jitter, generator factory)`.
    pub feeds: Vec<FeedSpec>,
    /// The source op fed by the upstream region (`S0`).
    pub inter_region_input: OpId,
    /// Human-readable name ("bcp" / "signalguru").
    pub name: &'static str,
}

/// Specification of one sensor feed (turned into a
/// [`dsps::workload::Feed`] once actor ids exist).
pub struct FeedSpec {
    /// Target source operator.
    pub op: OpId,
    /// Mean period.
    pub period: SimDuration,
    /// Jitter fraction.
    pub jitter: f64,
    /// Generator factory (fresh closure per deployment, seeded by the
    /// deployment's RNG).
    #[allow(clippy::type_complexity)]
    pub make_gen: Box<dyn Fn() -> dsps::workload::SampleGen + Send + Sync>,
}

impl FeedSpec {
    /// Build the runtime feed once the hosting actor is known.
    pub fn instantiate(&self, target: ActorId) -> dsps::workload::Feed {
        dsps::workload::Feed {
            op: self.op,
            target,
            period: self.period,
            jitter: self.jitter,
            gen: (self.make_gen)(),
            produced: 0,
            mirrors: vec![],
        }
    }
}

/// Placement compaction lives in `dsps` (the single implementation);
/// re-exported here because the app builders squeeze their canonical
/// 8-phone groupings onto smaller regions.
pub use dsps::placement::squeeze_placement;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every operator of both applications models a nonzero state size
    /// exactly when it exposes a state: a modelled-but-unsaved state
    /// would be a checkpoint hole, and a saved-but-unmodelled one free
    /// checkpoint traffic.
    #[test]
    fn modelled_state_is_exactly_the_exposed_state() {
        let cal = Calibration::default();
        for bundle in [build_bcp(&cal, 8, true), build_signalguru(&cal, 8, true)] {
            let g = &bundle.graph;
            for op in g.op_ids() {
                let mut inst = g.op(op).instantiate();
                assert_eq!(
                    inst.state_bytes() > 0,
                    inst.state().is_some(),
                    "{} {}: state_bytes {}",
                    bundle.name,
                    g.op(op).name,
                    inst.state_bytes()
                );
            }
        }
    }
}
