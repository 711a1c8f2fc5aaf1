//! Bus Capacity Prediction (Fig 2).
//!
//! Query network (exactly the paper's operator set):
//!
//! ```text
//!  S0 → N → A ─────────────┐
//!        └─→ L ──────────┐ │
//!  S1 → D → H → C0..C3 → B → J → P → K → (next bus stop)
//! ```
//!
//! `S0` receives the previous stop's prediction over cellular; `S1`
//! receives camera frames; `D` dispatches; `H` is the motion/passerby
//! filter; `C0..C3` run the Haar face counter on one quadrant each;
//! `B` aggregates counts into a boarding prediction; `A`/`L` are the
//! arrival/alighting models; `J` joins camera-side and bus-side
//! streams; `P` predicts the bus capacity; `K` publishes to the next
//! stop.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dsps::graph::{OpKind, QueryGraph};
use dsps::operator::{OpStateCell, Operator, Outputs};
use dsps::placement::Placement;
use dsps::tuple::{value, Tuple};
use simkernel::{SimDuration, SimRng};

use crate::calib::Calibration;
use crate::haar::{Cascade, HaarScan};
use crate::image::{Frame, FrameGen};
use crate::models::{combine_capacity, AlightingModel, ArrivalModel, BoardingModel, Ewma};
use crate::{AppBundle, FeedSpec};

// ---------------------------------------------------------------- messages

/// A camera frame in flight.
#[derive(Debug, Clone)]
pub struct FrameMsg {
    /// Shared frame content.
    pub frame: Arc<Frame>,
}

/// A quadrant crop handed to one counter. It keeps its frame, which is
/// how to render the pixels, and `H` lends it the plane it rendered:
/// the first reader takes the plane out of the crop, so once the four
/// live crops are counted nothing holds it, even while a retention
/// buffer keeps the crops for replay. A crop read again (a replayed
/// retained crop) renders its frame, which gives the same bytes.
#[derive(Debug)]
pub struct CropMsg {
    /// Which quadrant (0..4).
    pub quadrant: usize,
    /// The frame the crop is cut from.
    pub frame: Arc<Frame>,
    /// `H`'s plane of `frame`, lent to the first reader.
    plane: Mutex<Option<Arc<[u8]>>>,
}

impl CropMsg {
    /// The crop of `frame`'s `quadrant`, lent `plane`, which is
    /// `frame.render()`.
    fn lend(frame: &Arc<Frame>, quadrant: usize, plane: &Arc<[u8]>) -> Self {
        CropMsg {
            quadrant,
            frame: Arc::clone(frame),
            plane: Mutex::new(Some(Arc::clone(plane))),
        }
    }

    /// The frame's plane: the lent one on the first read, a render on
    /// every later one. A poisoned cell reads as empty, since a render
    /// is always right.
    fn take_plane(&self) -> Arc<[u8]> {
        let lent = self.plane.lock().ok().and_then(|mut cell| cell.take());
        lent.unwrap_or_else(|| self.frame.render())
    }
}

/// One counter's result.
#[derive(Debug, Clone, Copy)]
pub struct CountMsg {
    /// Frame sequence.
    pub seq: u64,
    /// Quadrant counted.
    pub quadrant: usize,
    /// Faces found.
    pub count: u32,
}

/// Aggregated waiting-passenger estimate + boarding prediction.
#[derive(Debug, Clone, Copy)]
pub struct WaitingMsg {
    /// Frame sequence.
    pub seq: u64,
    /// People waiting at the stop.
    pub waiting: u32,
    /// Predicted boardings for the next bus.
    pub boarding_est: u32,
}

/// The previous stop's published prediction (or the depot feed at the
/// first stop).
#[derive(Debug, Clone, Copy)]
pub struct PrevStopMsg {
    /// Bus identity.
    pub bus_id: u64,
    /// Passengers on the bus when it left the previous stop.
    pub onboard: u32,
    /// Departure time (seconds since sim start).
    pub depart_s: f64,
}

/// Arrival model output.
#[derive(Debug, Clone, Copy)]
pub struct BusEtaMsg {
    /// Bus identity.
    pub bus_id: u64,
    /// Load when it left the previous stop.
    pub onboard: u32,
    /// Estimated arrival (seconds).
    pub eta_s: f64,
}

/// Alighting model output.
#[derive(Debug, Clone, Copy)]
pub struct AlightMsg {
    /// Bus identity.
    pub bus_id: u64,
    /// Predicted alightings at this stop.
    pub alight: u32,
}

/// J output: camera-side estimate annotated with the latest bus info.
#[derive(Debug, Clone, Copy)]
pub struct JoinedMsg {
    /// Frame sequence.
    pub seq: u64,
    /// Waiting passengers.
    pub waiting: u32,
    /// Boarding prediction.
    pub boarding_est: u32,
    /// Latest approaching bus, if any.
    pub bus: Option<BusEtaMsg>,
}

/// Final prediction published to the next stop.
#[derive(Debug, Clone, Copy)]
pub struct CapacityMsg {
    /// Bus identity (0 if no bus announced yet).
    pub bus_id: u64,
    /// Predicted on-bus passengers when the bus leaves this stop.
    pub onboard_next: u32,
    /// Waiting-passenger estimate used.
    pub waiting: u32,
    /// Synthetic departure time estimate (seconds).
    pub depart_s: f64,
}

// ---------------------------------------------------------------- operators

/// `S0`: relay of previous-stop data; converts an upstream region's
/// `CapacityMsg` into this region's `PrevStopMsg`.
struct PrevStopSource {
    cost: SimDuration,
}

impl Operator for PrevStopSource {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        if let Some(p) = tuple.value_as::<PrevStopMsg>() {
            out.emit(0, value(*p), tuple.bytes);
        } else if let Some(c) = tuple.value_as::<CapacityMsg>() {
            let p = PrevStopMsg {
                bus_id: c.bus_id,
                onboard: c.onboard_next,
                depart_s: c.depart_s,
            };
            out.emit(0, value(p), tuple.bytes);
        }
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
}

/// `N`: noise filter — EWMA-smooths the onboard counts.
struct NoiseFilter {
    cost: SimDuration,
    smooth: Ewma,
}

impl Operator for NoiseFilter {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        let Some(p) = tuple.value_as::<PrevStopMsg>() else {
            return;
        };
        let smoothed = self.smooth.observe(p.onboard as f64).round() as u32;
        let cleaned = PrevStopMsg {
            onboard: smoothed,
            ..*p
        };
        out.emit(0, value(cleaned), tuple.bytes); // → A
        out.emit(1, value(cleaned), tuple.bytes); // → L
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
    fn state_bytes(&self) -> u64 {
        24
    }
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.smooth)
    }
}

/// `A`: bus arrival-time model.
struct ArrivalOp {
    cost: SimDuration,
    model: ArrivalModel,
    state_padding: u64,
    small_bytes: u64,
}

impl Operator for ArrivalOp {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        let Some(p) = tuple.value_as::<PrevStopMsg>() else {
            return;
        };
        let eta = self.model.eta(p.depart_s);
        self.model.observe(p.depart_s, eta); // reinforce prior (proxy for GPS feedback)
        out.emit(
            0,
            value(BusEtaMsg {
                bus_id: p.bus_id,
                onboard: p.onboard,
                eta_s: eta,
            }),
            self.small_bytes,
        );
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
    fn state_bytes(&self) -> u64 {
        32 + self.state_padding
    }
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.model)
    }
}

/// `L`: alighting model.
struct AlightOp {
    cost: SimDuration,
    model: AlightingModel,
    state_padding: u64,
    small_bytes: u64,
}

impl Operator for AlightOp {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        let Some(p) = tuple.value_as::<PrevStopMsg>() else {
            return;
        };
        out.emit(
            0,
            value(AlightMsg {
                bus_id: p.bus_id,
                alight: self.model.predict(p.onboard),
            }),
            self.small_bytes,
        );
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
    fn state_bytes(&self) -> u64 {
        24 + self.state_padding
    }
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.model)
    }
}

/// `D`: dispatcher (frame admission).
struct Dispatcher {
    cost: SimDuration,
}

impl Operator for Dispatcher {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        out.emit(0, tuple.value.clone(), tuple.bytes);
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
}

/// `H`: motion detection / passerby filter — compares the frame's mean
/// brightness against a background model (people change the scene) and
/// splits admitted frames into four quadrant crops. It renders each
/// frame once and lends the plane to the four crops; it keeps no
/// reference itself.
struct MotionSplit {
    cost: SimDuration,
    background: Ewma,
    state_padding: u64,
    crop_bytes: u64,
}

impl Operator for MotionSplit {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        let Some(m) = tuple.value_as::<FrameMsg>() else {
            return;
        };
        let frame = &m.frame;
        // Real pixel work: frame mean vs adaptive background.
        let plane = frame.render();
        let mean = plane.iter().map(|&p| p as u64).sum::<u64>() as f64 / plane.len() as f64;
        self.background.observe(mean);
        // Passerby filter: frames indistinguishable from background
        // (nobody present) are dropped.
        if frame.truth_faces == 0 && (mean - self.background.value).abs() < 0.5 {
            return;
        }
        for q in 0..4 {
            out.emit(q, value(CropMsg::lend(frame, q, &plane)), self.crop_bytes);
        }
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
    fn state_bytes(&self) -> u64 {
        24 + self.state_padding
    }
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.background)
    }
}

/// `C0..C3`: Haar face counter on one quadrant. The kernel really runs,
/// on the plane it takes from its crop (or renders, for a crop read
/// before).
struct HaarCounter {
    cost: SimDuration,
    cascade: Cascade,
    /// Scan scratch, reused across tuples (not state).
    scan: HaarScan,
    small_bytes: u64,
    /// Tuples counted (tiny state).
    counted: u64,
}

impl Operator for HaarCounter {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        let Some(c) = tuple.value_as::<CropMsg>() else {
            return;
        };
        let (plane, frame) = (c.take_plane(), &c.frame);
        let count = self
            .scan
            .count_quadrant((&plane, frame.w, frame.h), &self.cascade, c.quadrant);
        self.counted += 1;
        out.emit(
            0,
            value(CountMsg {
                seq: frame.seq,
                quadrant: c.quadrant,
                count,
            }),
            self.small_bytes,
        );
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
    fn state_bytes(&self) -> u64 {
        8
    }
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.counted)
    }
}

/// `B`: aggregates the four quadrant counts of a frame and predicts
/// boardings.
struct BoardingOp {
    cost: SimDuration,
    /// The state: per-frame partial counts (seq -> (quadrants seen,
    /// total)) and the boarding model.
    st: (BTreeMap<u64, (u32, u32)>, BoardingModel),
    state_padding: u64,
    small_bytes: u64,
    last_onboard: u32,
}

impl Operator for BoardingOp {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        let Some(c) = tuple.value_as::<CountMsg>() else {
            return;
        };
        let (partial, model) = &mut self.st;
        let entry = partial.entry(c.seq).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += c.count;
        if entry.0 == 4 {
            let (_, waiting) = partial.remove(&c.seq).expect("present");
            let boarding = model.predict(waiting, self.last_onboard);
            model.observe(waiting, boarding);
            out.emit(
                0,
                value(WaitingMsg {
                    seq: c.seq,
                    waiting,
                    boarding_est: boarding,
                }),
                self.small_bytes,
            );
        }
        // Bound the partial map (frames whose counters died).
        while partial.len() > 64 {
            let oldest = *partial.keys().next().expect("non-empty");
            partial.remove(&oldest);
        }
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
    fn state_bytes(&self) -> u64 {
        self.st.0.len() as u64 * 24 + 32 + self.state_padding
    }
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.st)
    }
}

/// `J`: annotate every camera-side estimate with the latest
/// approaching-bus info (port 0 = `A`, port 1 = `B`).
struct JoinOp {
    cost: SimDuration,
    latest_bus: Option<BusEtaMsg>,
    state_padding: u64,
    small_bytes: u64,
}

impl Operator for JoinOp {
    fn process(&mut self, tuple: &Tuple, port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        if port == 0 {
            if let Some(b) = tuple.value_as::<BusEtaMsg>() {
                self.latest_bus = Some(*b);
            }
            return;
        }
        let Some(w) = tuple.value_as::<WaitingMsg>() else {
            return;
        };
        out.emit(
            0,
            value(JoinedMsg {
                seq: w.seq,
                waiting: w.waiting,
                boarding_est: w.boarding_est,
                bus: self.latest_bus,
            }),
            self.small_bytes,
        );
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
    fn state_bytes(&self) -> u64 {
        40 + self.state_padding
    }
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.latest_bus)
    }
}

/// `P`: capacity prediction (port 0 = `J`, port 1 = `L`).
struct CapacityOp {
    cost: SimDuration,
    latest_alight: Option<AlightMsg>,
    capacity: u32,
    state_padding: u64,
    small_bytes: u64,
}

impl Operator for CapacityOp {
    fn process(&mut self, tuple: &Tuple, port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        if port == 1 {
            if let Some(a) = tuple.value_as::<AlightMsg>() {
                self.latest_alight = Some(*a);
            }
            return;
        }
        let Some(j) = tuple.value_as::<JoinedMsg>() else {
            return;
        };
        let (bus_id, onboard, eta) = match j.bus {
            Some(b) => (b.bus_id, b.onboard, b.eta_s),
            None => (0, 0, tuple.entered.as_secs_f64()),
        };
        let alight = self
            .latest_alight
            .filter(|a| a.bus_id == bus_id)
            .map(|a| a.alight)
            .unwrap_or(0);
        let onboard_next = combine_capacity(onboard, alight, j.boarding_est, self.capacity);
        out.emit(
            0,
            value(CapacityMsg {
                bus_id,
                onboard_next,
                waiting: j.waiting,
                depart_s: eta + 20.0, // dwell time
            }),
            self.small_bytes,
        );
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
    fn state_bytes(&self) -> u64 {
        24 + self.state_padding
    }
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.latest_alight)
    }
}

/// `K`: sink (publishes to the next region; the node runtime handles
/// the inter-region send).
struct SinkOp {
    cost: SimDuration,
}

impl Operator for SinkOp {
    fn process(&mut self, _t: &Tuple, _port: usize, _out: &mut Outputs, _rng: &mut SimRng) {}
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
}

// ---------------------------------------------------------------- builder

/// Build the BCP region bundle (graph + placement + feeds).
///
/// Placement (8 phones, paper grouping "operators with the same color
/// are on the same node"):
///
/// | slot | ops |
/// |---|---|
/// | 0 | S1 (camera source) |
/// | 1 | S0, N, A, L (bus-side models) |
/// | 2 | D, H |
/// | 3 | C0, C1 |
/// | 4 | C2, C3 |
/// | 5 | B, J, P, K |
/// | 6, 7 | idle (checkpoint replicas / standby) |
pub fn build_bcp(cal: &Calibration, slots: u32, first_stop: bool) -> AppBundle {
    let c = cal.clone();
    let mut g = QueryGraph::new();

    let s0 = g.add_op("S0", OpKind::Source, {
        let c = c.clone();
        move || Box::new(PrevStopSource { cost: c.cost_src })
    });
    let s1 = g.add_op("S1", OpKind::Source, {
        let c = c.clone();
        move || Box::new(Dispatcher { cost: c.cost_src })
    });
    let n = g.add_op("N", OpKind::Compute, {
        let c = c.clone();
        move || {
            Box::new(NoiseFilter {
                cost: c.cost_n,
                smooth: Ewma::new(10.0, 0.3),
            })
        }
    });
    let a = g.add_op("A", OpKind::Compute, {
        let c = c.clone();
        move || {
            Box::new(ArrivalOp {
                cost: c.cost_a,
                model: ArrivalModel::new(90.0),
                state_padding: c.state_a,
                small_bytes: c.bcp_small_bytes,
            })
        }
    });
    let l = g.add_op("L", OpKind::Compute, {
        let c = c.clone();
        move || {
            Box::new(AlightOp {
                cost: c.cost_l,
                model: AlightingModel::new(0.25),
                state_padding: c.state_l,
                small_bytes: c.bcp_small_bytes,
            })
        }
    });
    let d = g.add_op("D", OpKind::Compute, {
        let c = c.clone();
        move || Box::new(Dispatcher { cost: c.cost_d })
    });
    let h = g.add_op("H", OpKind::Compute, {
        let c = c.clone();
        move || {
            Box::new(MotionSplit {
                cost: c.cost_h,
                background: Ewma::new(200.0, 0.05),
                state_padding: c.state_h,
                crop_bytes: c.bcp_crop_bytes,
            })
        }
    });
    let counters: Vec<_> = (0..4)
        .map(|i| {
            g.add_op(format!("C{i}"), OpKind::Compute, {
                let c = c.clone();
                move || {
                    Box::new(HaarCounter {
                        cost: c.cost_haar,
                        cascade: Cascade::default(),
                        scan: HaarScan::default(),
                        small_bytes: c.bcp_small_bytes,
                        counted: 0,
                    }) as Box<dyn Operator>
                }
            })
        })
        .collect();
    let b = g.add_op("B", OpKind::Compute, {
        let c = c.clone();
        move || {
            Box::new(BoardingOp {
                cost: c.cost_b,
                st: (BTreeMap::new(), BoardingModel::new(60)),
                state_padding: c.state_b,
                small_bytes: c.bcp_small_bytes,
                last_onboard: 0,
            })
        }
    });
    let j = g.add_op("J", OpKind::Compute, {
        let c = c.clone();
        move || {
            Box::new(JoinOp {
                cost: c.cost_j,
                latest_bus: None,
                state_padding: c.state_j,
                small_bytes: c.bcp_small_bytes,
            })
        }
    });
    let p = g.add_op("P", OpKind::Compute, {
        let c = c.clone();
        move || {
            Box::new(CapacityOp {
                cost: c.cost_p,
                latest_alight: None,
                capacity: 60,
                state_padding: c.state_p,
                small_bytes: c.bcp_small_bytes,
            })
        }
    });
    let k = g.add_op("K", OpKind::Sink, {
        let c = c.clone();
        move || Box::new(SinkOp { cost: c.cost_k })
    });

    g.connect(s0, n); // edge 0
    g.connect(n, a); // N port 0
    g.connect(n, l); // N port 1
    g.connect(a, j); // J port 0
    g.connect(s1, d);
    g.connect(d, h);
    for &ci in &counters {
        g.connect(h, ci); // H ports 0..3
    }
    for &ci in &counters {
        g.connect(ci, b);
    }
    g.connect(b, j); // J port 1
    g.connect(j, p); // P port 0
    g.connect(l, p); // P port 1
    g.connect(p, k);
    g.validate().expect("BCP graph valid");

    // Author the paper's canonical 8-slot grouping, then squeeze it
    // proportionally if the region has fewer phones than the testbed.
    let mut placement = Placement::new(&g, slots.max(8));
    placement
        .assign(s1, 0)
        .assign(s0, 1)
        .assign(n, 1)
        .assign(a, 1)
        .assign(l, 1)
        .assign(d, 2)
        .assign(h, 2)
        .assign(counters[0], 3)
        .assign(counters[1], 3)
        .assign(counters[2], 4)
        .assign(counters[3], 4)
        .assign(b, 5)
        .assign(j, 5)
        .assign(p, 5)
        .assign(k, 5);
    placement.validate(&g).expect("BCP placement valid");
    let placement = crate::squeeze_placement(&placement, slots);

    // Feeds: the camera (every region) and, at the first stop only, the
    // depot's bus announcements.
    let mut feeds = Vec::new();
    {
        let cal2 = c.clone();
        feeds.push(FeedSpec {
            op: s1,
            period: c.bcp_frame_period,
            jitter: c.bcp_frame_jitter,
            make_gen: Box::new(move || {
                let gen = FrameGen {
                    wire_bytes: cal2.bcp_frame_bytes,
                    mean_faces: cal2.bcp_mean_faces,
                    ..FrameGen::default()
                };
                let bytes = cal2.bcp_frame_bytes;
                Box::new(move |rng, seq| {
                    let frame = Arc::new(gen.faces_frame(rng, seq));
                    (value(FrameMsg { frame }), bytes)
                })
            }),
        });
    }
    if first_stop {
        let bytes = c.bcp_small_bytes;
        feeds.push(FeedSpec {
            op: s0,
            period: c.bcp_bus_period,
            jitter: 0.2,
            make_gen: Box::new(move || {
                Box::new(move |rng, seq| {
                    let onboard = rng.poisson(18.0).min(60) as u32;
                    (
                        value(PrevStopMsg {
                            bus_id: seq + 1,
                            onboard,
                            depart_s: 0.0,
                        }),
                        bytes,
                    )
                })
            }),
        });
    }

    AppBundle {
        graph: Arc::new(g),
        placement,
        feeds,
        inter_region_input: s0,
        name: "bcp",
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Weak;

    use super::*;

    #[test]
    fn graph_matches_fig2() {
        let bundle = build_bcp(&Calibration::default(), 8, true);
        let g = &bundle.graph;
        assert_eq!(g.op_count(), 15, "S0,S1,N,A,L,D,H,C0-3,B,J,P,K");
        assert_eq!(g.sources().len(), 2);
        assert_eq!(g.sinks().len(), 1);
        assert!(g.validate().is_ok());
        // J has two inputs (A and B), P has two inputs (J and L).
        let j = g.op_by_name("J").unwrap();
        let p = g.op_by_name("P").unwrap();
        assert_eq!(g.op(j).in_edges.len(), 2);
        assert_eq!(g.op(p).in_edges.len(), 2);
        // H fans out to the four counters.
        let h = g.op_by_name("H").unwrap();
        assert_eq!(g.op(h).out_edges.len(), 4);
    }

    #[test]
    fn placement_uses_six_slots_two_idle() {
        let bundle = build_bcp(&Calibration::default(), 8, true);
        assert_eq!(bundle.placement.hosting_slots().len(), 6);
        assert_eq!(bundle.placement.idle_active_slots(), vec![6, 7]);
    }

    #[test]
    fn operators_instantiate_and_snapshot() {
        let bundle = build_bcp(&Calibration::default(), 8, true);
        for op in bundle.graph.op_ids() {
            let mut inst = bundle.graph.op(op).instantiate();
            let Some(st) = inst.state().map(|cell| cell.snapshot()) else {
                continue;
            };
            let mut inst2 = bundle.graph.op(op).instantiate();
            inst2.state().expect("same op type").restore(&st); // must not panic
        }
    }

    #[test]
    fn full_pipeline_dataflow_by_hand() {
        // Drive the operators directly (no sim) through one frame + one
        // bus and check a CapacityMsg comes out.
        let cal = Calibration::default();
        let bundle = build_bcp(&cal, 8, true);
        let g = &bundle.graph;
        let mut rng = SimRng::new(5);
        let mk = |name: &str| g.op(g.op_by_name(name).unwrap()).instantiate();
        let mut s0 = mk("S0");
        let mut n = mk("N");
        let mut a = mk("A");
        let mut l = mk("L");
        let mut h = mk("H");
        let mut c0 = mk("C0");
        let mut b = mk("B");
        let mut j = mk("J");
        let mut p = mk("P");

        let run = |op: &mut Box<dyn Operator>,
                   v: dsps::tuple::TupleValue,
                   bytes: u64,
                   port: usize,
                   rng: &mut SimRng| {
            let t = Tuple::new(1, simkernel::SimTime::from_secs(10), bytes, v);
            let mut out = Outputs::default();
            op.process(&t, port, &mut out, rng);
            out.drain()
        };

        // Bus side.
        let bus = value(PrevStopMsg {
            bus_id: 7,
            onboard: 20,
            depart_s: 100.0,
        });
        let s0_out = run(&mut s0, bus, 200, 0, &mut rng);
        assert_eq!(s0_out.len(), 1);
        let n_out = run(&mut n, s0_out[0].1.clone(), 200, 0, &mut rng);
        assert_eq!(n_out.len(), 2, "N fans to A and L");
        let a_out = run(&mut a, n_out[0].1.clone(), 200, 0, &mut rng);
        let l_out = run(&mut l, n_out[1].1.clone(), 200, 0, &mut rng);
        run(&mut j, a_out[0].1.clone(), 200, 0, &mut rng); // J stores latest bus
        run(&mut p, l_out[0].1.clone(), 200, 1, &mut rng); // P stores latest alight

        // Camera side.
        let gen = FrameGen {
            mean_faces: 8.0,
            ..FrameGen::default()
        };
        let frame = Arc::new(gen.faces_frame(&mut rng, 1));
        let truth = frame.truth_faces;
        let h_out = run(
            &mut h,
            value(FrameMsg { frame }),
            cal.bcp_frame_bytes,
            0,
            &mut rng,
        );
        assert_eq!(h_out.len(), 4, "H splits into quadrants");
        // Count all four crops (one counter instance suffices here).
        let mut waiting_msg = None;
        for (_, crop, bytes) in h_out {
            let c_out = run(&mut c0, crop, bytes, 0, &mut rng);
            for (_, count, bytes) in c_out {
                let b_out = run(&mut b, count, bytes, 0, &mut rng);
                if !b_out.is_empty() {
                    waiting_msg = Some(b_out[0].1.clone());
                }
            }
        }
        let waiting_msg = waiting_msg.expect("B aggregates after 4 counts");
        let j_out = run(&mut j, waiting_msg, 200, 1, &mut rng);
        assert_eq!(j_out.len(), 1);
        let p_out = run(&mut p, j_out[0].1.clone(), 200, 0, &mut rng);
        assert_eq!(p_out.len(), 1);
        let cap = (*p_out[0].1)
            .as_any()
            .downcast_ref::<CapacityMsg>()
            .expect("capacity prediction");
        assert_eq!(cap.bus_id, 7);
        // Waiting estimate tracks the planted ground truth.
        assert!(
            (cap.waiting as i64 - truth as i64).abs() <= 2,
            "waiting {} vs truth {}",
            cap.waiting,
            truth
        );
        assert!(cap.onboard_next <= 60);
    }

    /// `H` lends one plane to its four crops, and counting them takes
    /// it: the crops, kept as a retention buffer keeps them, then hold
    /// no pixels. A retained crop replayed to a replacement counter
    /// finds its cell empty, renders its frame and counts the same; so
    /// does a catch-up replay that feeds `H` the preserved frame again.
    #[test]
    fn replaying_a_frame_through_h_and_the_counters_counts_the_same() {
        let cal = Calibration::default();
        let bundle = build_bcp(&cal, 8, true);
        let g = &bundle.graph;
        let mk = |name: &str| g.op(g.op_by_name(name).unwrap()).instantiate();
        let gen = FrameGen {
            mean_faces: 10.0,
            ..FrameGen::default()
        };
        let mut rng = SimRng::new(17);
        let frame = Arc::new(gen.faces_frame(&mut rng, 3));
        // `H`'s crops, in quadrant order.
        let split = |rng: &mut SimRng| {
            let t = Tuple::new(
                1,
                simkernel::SimTime::ZERO,
                cal.bcp_frame_bytes,
                value(FrameMsg {
                    frame: Arc::clone(&frame),
                }),
            );
            let mut out = Outputs::default();
            mk("H").process(&t, 0, &mut out, rng);
            out.drain()
                .into_iter()
                .map(|(_, crop, _)| crop)
                .collect::<Vec<_>>()
        };
        // Fresh `C0..C3` count one crop each; the caller keeps the crops.
        let count = |crops: &[dsps::tuple::TupleValue], rng: &mut SimRng| {
            let mut counters = ["C0", "C1", "C2", "C3"].map(mk);
            let mut counts = Vec::new();
            for (q, crop) in crops.iter().enumerate() {
                let t = Tuple::new(
                    1,
                    simkernel::SimTime::ZERO,
                    cal.bcp_crop_bytes,
                    crop.clone(),
                );
                let mut out = Outputs::default();
                counters[q].process(&t, 0, &mut out, rng);
                for (_, v, _) in out.drain() {
                    let c = *(*v).as_any().downcast_ref::<CountMsg>().expect("a count");
                    counts.push((c.seq, c.quadrant, c.count));
                }
            }
            counts
        };
        let cell = |crop: &dsps::tuple::TupleValue| {
            let crop = (**crop).as_any().downcast_ref::<CropMsg>().expect("a crop");
            crop.plane.lock().expect("an unpoisoned cell").clone()
        };

        let crops = split(&mut rng);
        assert_eq!(crops.len(), 4, "one crop per quadrant");
        let lent = Arc::downgrade(&cell(&crops[0]).expect("H lends its plane"));
        assert!(
            crops
                .iter()
                .all(|c| cell(c).is_some_and(|p| Weak::ptr_eq(&Arc::downgrade(&p), &lent))),
            "the four crops share one plane"
        );
        let first = count(&crops, &mut rng);
        assert_eq!(first.len(), 4, "one count per quadrant");
        assert_eq!(first.iter().map(|c| c.2).sum::<u32>(), frame.truth_faces);
        assert!(
            lent.upgrade().is_none(),
            "kept crops hold no plane once counted"
        );
        assert!(crops.iter().all(|c| cell(c).is_none()));
        assert_eq!(count(&crops, &mut rng), first, "a replayed crop renders");
        assert_eq!(count(&split(&mut rng), &mut rng), first, "a replayed frame");
    }

    #[test]
    fn s0_converts_upstream_capacity_messages() {
        let bundle = build_bcp(&Calibration::default(), 8, false);
        let g = &bundle.graph;
        let mut s0 = g.op(bundle.inter_region_input).instantiate();
        let mut rng = SimRng::new(0);
        let cap = value(CapacityMsg {
            bus_id: 3,
            onboard_next: 25,
            waiting: 4,
            depart_s: 500.0,
        });
        let t = Tuple::new(1, simkernel::SimTime::ZERO, 200, cap);
        let mut out = Outputs::default();
        s0.process(&t, 0, &mut out, &mut rng);
        let outs = out.drain();
        assert_eq!(outs.len(), 1);
        let prev = (*outs[0].1).as_any().downcast_ref::<PrevStopMsg>().unwrap();
        assert_eq!(prev.bus_id, 3);
        assert_eq!(prev.onboard, 25);
    }

    #[test]
    fn first_stop_has_two_feeds() {
        let cal = Calibration::default();
        assert_eq!(build_bcp(&cal, 8, true).feeds.len(), 2);
        assert_eq!(build_bcp(&cal, 8, false).feeds.len(), 1);
    }
}
