//! SignalGuru (Fig 3).
//!
//! ```text
//!  S0 ──────────────────────────→ G
//!  S1 → C0 → A0 → M0 ─┐           ↑
//!     ↘ C1 → A1 → M1 ─┼→ V ───────┘→ P → K → (next intersection)
//!     ↘ C2 → A2 → M2 ─┘
//! ```
//!
//! `S1` round-robins camera frames over three filter chains
//! (color → shape → motion); `V` majority-votes recent detections;
//! `G` groups the vote with the previous intersection's prediction;
//! `P` (SVM) predicts the transition schedule; `K` publishes it.

use std::sync::Arc;

use dsps::graph::{OpKind, QueryGraph};
use dsps::operator::{OpStateCell, Operator, Outputs};
use dsps::placement::Placement;
use dsps::tuple::{value, Tuple};
use simkernel::{SimDuration, SimRng};

use crate::calib::Calibration;
use crate::image::{Frame, FrameGen, LightColor};
use crate::svm::PhasePredictor;
use crate::vision::{color_filter, shape_filter, ColorBlob, MotionFilter, VotingFilter};
use crate::{AppBundle, FeedSpec};

// ---------------------------------------------------------------- messages

/// A camera frame.
#[derive(Debug, Clone)]
pub struct SgFrameMsg {
    /// Shared frame.
    pub frame: Arc<Frame>,
}

/// A color-filter hit (frame travels on for the shape stage).
#[derive(Debug, Clone)]
pub struct BlobMsg {
    /// Frame sequence.
    pub seq: u64,
    /// The blob.
    pub blob: ColorBlob,
    /// Shared frame.
    pub frame: Arc<Frame>,
}

/// A confirmed static detection.
#[derive(Debug, Clone, Copy)]
pub struct DetectionMsg {
    /// Frame sequence.
    pub seq: u64,
    /// Signal color.
    pub color: LightColor,
    /// Capture time (seconds).
    pub at_s: f64,
}

/// The voted (smoothed) signal state.
#[derive(Debug, Clone, Copy)]
pub struct VotedMsg {
    /// Frame sequence.
    pub seq: u64,
    /// Majority color.
    pub color: LightColor,
    /// Capture time.
    pub at_s: f64,
}

/// Vote grouped with the previous intersection's schedule.
#[derive(Debug, Clone, Copy)]
pub struct GroupedMsg {
    /// Frame sequence.
    pub seq: u64,
    /// This intersection's color.
    pub color: LightColor,
    /// Capture time.
    pub at_s: f64,
    /// Previous intersection's predicted remaining green (seconds).
    pub upstream_remaining_s: Option<f64>,
}

/// Published transition prediction.
#[derive(Debug, Clone, Copy)]
pub struct TransitionMsg {
    /// Current color.
    pub color: LightColor,
    /// Predicted seconds until the next transition.
    pub remaining_s: f64,
    /// Prediction time.
    pub at_s: f64,
}

// ---------------------------------------------------------------- operators

/// `S1`: camera source that round-robins frames over the three chains.
struct CameraDispatch {
    cost: SimDuration,
    next: usize,
}

impl Operator for CameraDispatch {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        let port = self.next % 3;
        self.next += 1;
        out.emit(port, tuple.value.clone(), tuple.bytes);
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
    fn state_bytes(&self) -> u64 {
        8
    }
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.next)
    }
}

/// `S0`: previous-intersection relay (accepts upstream
/// `TransitionMsg`).
struct PrevIntersectionSource {
    cost: SimDuration,
}

impl Operator for PrevIntersectionSource {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        if tuple.value_as::<TransitionMsg>().is_some() {
            out.emit(0, tuple.value.clone(), tuple.bytes);
        }
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
}

/// `C`: color filter — the kernel really folds the frame's colored pixels.
struct ColorOp {
    cost: SimDuration,
    small_bytes: u64,
}

impl Operator for ColorOp {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        let Some(m) = tuple.value_as::<SgFrameMsg>() else {
            return;
        };
        if let Some(blob) = color_filter(&m.frame) {
            out.emit(
                0,
                value(BlobMsg {
                    seq: m.frame.seq,
                    blob,
                    frame: Arc::clone(&m.frame),
                }),
                self.small_bytes + m.frame.wire_bytes / 8, // blob + ROI crop
            );
        }
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
}

/// `A`: shape (circle/arrow) filter.
struct ShapeOp {
    cost: SimDuration,
}

impl Operator for ShapeOp {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        let Some(m) = tuple.value_as::<BlobMsg>() else {
            return;
        };
        if shape_filter(&m.frame, &m.blob) {
            out.emit(0, tuple.value.clone(), tuple.bytes);
        }
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
}

/// `M`: motion filter (lights don't move).
struct MotionOp {
    cost: SimDuration,
    filter: MotionFilter,
    state_padding: u64,
    small_bytes: u64,
}

impl Operator for MotionOp {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        let Some(m) = tuple.value_as::<BlobMsg>() else {
            return;
        };
        if self.filter.is_static(&m.blob) {
            out.emit(
                0,
                value(DetectionMsg {
                    seq: m.seq,
                    color: m.blob.color,
                    at_s: tuple.entered.as_secs_f64(),
                }),
                self.small_bytes,
            );
        }
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
    fn state_bytes(&self) -> u64 {
        16 + self.state_padding
    }
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.filter)
    }
}

/// `V`: voting filter over recent detections from all chains.
struct VoteOp {
    cost: SimDuration,
    filter: VotingFilter,
    state_padding: u64,
    small_bytes: u64,
}

impl Operator for VoteOp {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        let Some(d) = tuple.value_as::<DetectionMsg>() else {
            return;
        };
        if let Some(color) = self.filter.vote(d.color) {
            out.emit(
                0,
                value(VotedMsg {
                    seq: d.seq,
                    color,
                    at_s: d.at_s,
                }),
                self.small_bytes,
            );
        }
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
    fn state_bytes(&self) -> u64 {
        self.filter.held() as u64 + 8 + self.state_padding
    }
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.filter)
    }
}

/// `G`: group the vote with the previous intersection's schedule
/// (port 0 = V, port 1 = S0).
struct GroupOp {
    cost: SimDuration,
    latest_upstream: Option<TransitionMsg>,
    state_padding: u64,
    small_bytes: u64,
}

impl Operator for GroupOp {
    fn process(&mut self, tuple: &Tuple, port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        if port == 1 {
            if let Some(t) = tuple.value_as::<TransitionMsg>() {
                self.latest_upstream = Some(*t);
            }
            return;
        }
        let Some(v) = tuple.value_as::<VotedMsg>() else {
            return;
        };
        out.emit(
            0,
            value(GroupedMsg {
                seq: v.seq,
                color: v.color,
                at_s: v.at_s,
                upstream_remaining_s: self.latest_upstream.map(|t| t.remaining_s),
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
        Some(&mut self.latest_upstream)
    }
}

/// `P`: SVM-backed transition predictor.
struct SvmOp {
    cost: SimDuration,
    /// The state: the predictor and the current (color, phase start).
    st: (PhasePredictor, Option<(LightColor, f64)>),
    small_bytes: u64,
}

impl Operator for SvmOp {
    fn process(&mut self, tuple: &Tuple, _port: usize, out: &mut Outputs, _rng: &mut SimRng) {
        let Some(g) = tuple.value_as::<GroupedMsg>() else {
            return;
        };
        // Phase-change bookkeeping: when the color flips, the previous
        // phase's duration becomes a training observation.
        let (predictor, current) = &mut self.st;
        match *current {
            Some((color, _start)) if color == g.color => {}
            Some((color, start)) => {
                predictor.observe(color, (g.at_s - start).max(0.0));
                *current = Some((g.color, g.at_s));
            }
            None => *current = Some((g.color, g.at_s)),
        }
        let (color, start) = current.expect("set above");
        let in_phase = (g.at_s - start).max(0.0);
        let remaining = predictor.remaining(color, in_phase);
        out.emit(
            0,
            value(TransitionMsg {
                color,
                remaining_s: remaining,
                at_s: g.at_s,
            }),
            self.small_bytes,
        );
    }
    fn cost(&self, _t: &Tuple) -> SimDuration {
        self.cost
    }
    fn state_bytes(&self) -> u64 {
        self.st.0.state_bytes() + 24
    }
    fn state(&mut self) -> Option<&mut dyn OpStateCell> {
        Some(&mut self.st)
    }
}

/// `K`: sink.
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

/// Build the SignalGuru region bundle.
///
/// Placement (8 phones):
///
/// | slot | ops |
/// |---|---|
/// | 0 | S1 |
/// | 1 | S0 |
/// | 2 | C0, A0, M0 |
/// | 3 | C1, A1, M1 |
/// | 4 | C2, A2, M2 |
/// | 5 | V, G, P, K |
/// | 6, 7 | idle (checkpoint replicas / standby) |
pub fn build_signalguru(cal: &Calibration, slots: u32, first: bool) -> AppBundle {
    let c = cal.clone();
    let mut g = QueryGraph::new();

    let s0 = g.add_op("S0", OpKind::Source, {
        let c = c.clone();
        move || Box::new(PrevIntersectionSource { cost: c.cost_src })
    });
    let s1 = g.add_op("S1", OpKind::Source, {
        let c = c.clone();
        move || {
            Box::new(CameraDispatch {
                cost: c.cost_src,
                next: 0,
            })
        }
    });
    let mut chain_heads = Vec::new();
    let mut chain_tails = Vec::new();
    for i in 0..3 {
        let ci = g.add_op(format!("C{i}"), OpKind::Compute, {
            let c = c.clone();
            move || {
                Box::new(ColorOp {
                    cost: c.cost_color,
                    small_bytes: c.sg_small_bytes,
                }) as Box<dyn Operator>
            }
        });
        let ai = g.add_op(format!("A{i}"), OpKind::Compute, {
            let c = c.clone();
            move || Box::new(ShapeOp { cost: c.cost_shape }) as Box<dyn Operator>
        });
        let mi = g.add_op(format!("M{i}"), OpKind::Compute, {
            let c = c.clone();
            move || {
                Box::new(MotionOp {
                    cost: c.cost_motion,
                    filter: MotionFilter::new(3.0),
                    state_padding: c.state_m,
                    small_bytes: c.sg_small_bytes,
                }) as Box<dyn Operator>
            }
        });
        g.connect(ci, ai);
        g.connect(ai, mi);
        chain_heads.push(ci);
        chain_tails.push(mi);
    }
    let v = g.add_op("V", OpKind::Compute, {
        let c = c.clone();
        move || {
            Box::new(VoteOp {
                cost: c.cost_vote,
                filter: VotingFilter::new(5),
                state_padding: c.state_v,
                small_bytes: c.sg_small_bytes,
            })
        }
    });
    let grp = g.add_op("G", OpKind::Compute, {
        let c = c.clone();
        move || {
            Box::new(GroupOp {
                cost: c.cost_group,
                latest_upstream: None,
                state_padding: c.state_g,
                small_bytes: c.sg_small_bytes,
            })
        }
    });
    let p = g.add_op("P", OpKind::Compute, {
        let c = c.clone();
        move || {
            Box::new(SvmOp {
                cost: c.cost_svm,
                st: (PhasePredictor::new([40.0, 5.0, 35.0], c.state_svm), None),
                small_bytes: c.sg_small_bytes,
            })
        }
    });
    let k = g.add_op("K", OpKind::Sink, {
        let c = c.clone();
        move || Box::new(SinkOp { cost: c.cost_k })
    });

    // S1 round-robin ports must connect in chain order.
    for &ci in &chain_heads {
        g.connect(s1, ci);
    }
    for &mi in &chain_tails {
        g.connect(mi, v);
    }
    g.connect(v, grp); // G port 0
    g.connect(s0, grp); // G port 1
    g.connect(grp, p);
    g.connect(p, k);
    g.validate().expect("SignalGuru graph valid");

    // Canonical 8-slot grouping, squeezed if the region is smaller
    // than the paper's testbed.
    let mut placement = Placement::new(&g, slots.max(8));
    placement.assign(s1, 0).assign(s0, 1);
    for (i, (&ci, &mi)) in chain_heads.iter().zip(&chain_tails).enumerate() {
        let slot = 2 + i as u32;
        placement.assign(ci, slot);
        placement.assign(dsps::graph::OpId(ci.0 + 1), slot); // A_i
        placement.assign(mi, slot);
    }
    placement
        .assign(v, 5)
        .assign(grp, 5)
        .assign(p, 5)
        .assign(k, 5);
    placement.validate(&g).expect("SignalGuru placement valid");
    let placement = crate::squeeze_placement(&placement, slots);

    // Camera feed: frames show the intersection's light, cycling
    // through its phases.
    let mut feeds = Vec::new();
    {
        let cal2 = c.clone();
        feeds.push(FeedSpec {
            op: s1,
            period: c.sg_frame_period,
            jitter: c.sg_frame_jitter,
            make_gen: Box::new(move || {
                let gen = FrameGen {
                    wire_bytes: cal2.sg_frame_bytes,
                    mean_faces: 0.0,
                    ..FrameGen::default()
                };
                let phases = cal2.sg_phase_s;
                let period_s = cal2.sg_frame_period.as_secs_f64();
                let bytes = cal2.sg_frame_bytes;
                // The light is fixed in the scene: pick its position
                // once per deployment, jitter ≤1 px per frame (camera
                // shake) — the motion filter's whole point.
                let mut fixed_pos: Option<(usize, usize)> = None;
                Box::new(move |rng, seq| {
                    let t = seq as f64 * period_s;
                    let cycle = phases.iter().sum::<f64>();
                    let mut pos = t % cycle;
                    let color = if pos < phases[0] {
                        LightColor::Red
                    } else {
                        pos -= phases[0];
                        if pos < phases[1] {
                            LightColor::Yellow
                        } else {
                            LightColor::Green
                        }
                    };
                    let (x0, y0) =
                        *fixed_pos.get_or_insert_with(|| (16 + rng.index(32), 8 + rng.index(12)));
                    let jx = x0 + rng.index(3) - 1;
                    let jy = y0 + rng.index(3) - 1;
                    let frame = Arc::new(gen.light_frame_at(rng, seq, color, jx, jy));
                    (value(SgFrameMsg { frame }), bytes)
                })
            }),
        });
    }
    let _ = first; // SignalGuru's first intersection has no extra feed.

    AppBundle {
        graph: Arc::new(g),
        placement,
        feeds,
        inter_region_input: s0,
        name: "signalguru",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_matches_fig3() {
        let bundle = build_signalguru(&Calibration::default(), 8, true);
        let g = &bundle.graph;
        assert_eq!(g.op_count(), 15, "S0,S1,C0-2,A0-2,M0-2,V,G,P,K");
        assert_eq!(g.sources().len(), 2);
        assert_eq!(g.sinks().len(), 1);
        let s1 = g.op_by_name("S1").unwrap();
        assert_eq!(g.op(s1).out_edges.len(), 3, "three filter chains");
        let v = g.op_by_name("V").unwrap();
        assert_eq!(g.op(v).in_edges.len(), 3);
        let grp = g.op_by_name("G").unwrap();
        assert_eq!(g.op(grp).in_edges.len(), 2);
    }

    #[test]
    fn chain_detects_planted_light_end_to_end() {
        let cal = Calibration::default();
        let bundle = build_signalguru(&cal, 8, true);
        let g = &bundle.graph;
        let mk = |name: &str| g.op(g.op_by_name(name).unwrap()).instantiate();
        let mut rng = SimRng::new(31);
        let mut c0 = mk("C0");
        let mut a0 = mk("A0");
        let mut m0 = mk("M0");
        let mut v = mk("V");
        let mut grp = mk("G");
        let mut p = mk("P");

        let gen = FrameGen {
            wire_bytes: cal.sg_frame_bytes,
            mean_faces: 0.0,
            ..FrameGen::default()
        };
        let mut out_color = None;
        for seq in 0..4 {
            let frame = Arc::new(gen.light_frame(&mut rng, seq, LightColor::Green));
            let t = Tuple::new(
                seq,
                simkernel::SimTime::from_secs(seq),
                cal.sg_frame_bytes,
                value(SgFrameMsg { frame }),
            );
            let mut out = Outputs::default();
            c0.process(&t, 0, &mut out, &mut rng);
            for (_, blob, bytes) in out.drain() {
                let t2 = Tuple::new(seq, t.entered, bytes, blob);
                let mut out2 = Outputs::default();
                a0.process(&t2, 0, &mut out2, &mut rng);
                for (_, passed, bytes) in out2.drain() {
                    let t3 = Tuple::new(seq, t.entered, bytes, passed);
                    let mut out3 = Outputs::default();
                    m0.process(&t3, 0, &mut out3, &mut rng);
                    for (_, det, bytes) in out3.drain() {
                        let t4 = Tuple::new(seq, t.entered, bytes, det);
                        let mut out4 = Outputs::default();
                        v.process(&t4, 0, &mut out4, &mut rng);
                        for (_, voted, bytes) in out4.drain() {
                            let t5 = Tuple::new(seq, t.entered, bytes, voted);
                            let mut out5 = Outputs::default();
                            grp.process(&t5, 0, &mut out5, &mut rng);
                            for (_, grouped, bytes) in out5.drain() {
                                let t6 = Tuple::new(seq, t.entered, bytes, grouped);
                                let mut out6 = Outputs::default();
                                p.process(&t6, 0, &mut out6, &mut rng);
                                for (_, trans, _) in out6.drain() {
                                    let tm = (*trans)
                                        .as_any()
                                        .downcast_ref::<TransitionMsg>()
                                        .unwrap()
                                        .to_owned();
                                    out_color = Some(tm);
                                }
                            }
                        }
                    }
                }
            }
        }
        // NOTE: the motion filter needs ≥1 prior observation, and the
        // planted light jitters per frame — but within tolerance the
        // chain should produce at least one prediction.
        let tm = out_color.expect("pipeline produced a transition prediction");
        assert_eq!(tm.color, LightColor::Green);
        assert!(tm.remaining_s >= 0.0 && tm.remaining_s < 120.0);
    }

    #[test]
    fn phase_generator_cycles_colors() {
        let cal = Calibration::default();
        let bundle = build_signalguru(&cal, 8, true);
        let mut gen = (bundle.feeds[0].make_gen)();
        let mut rng = SimRng::new(2);
        let mut colors = std::collections::BTreeSet::new();
        let cycle_frames =
            (cal.sg_phase_s.iter().sum::<f64>() / cal.sg_frame_period.as_secs_f64()).ceil() as u64;
        for seq in 0..cycle_frames + 2 {
            let (v, _) = gen(&mut rng, seq);
            let f = (*v).as_any().downcast_ref::<SgFrameMsg>().unwrap();
            let (c, ..) = f.frame.truth_light.unwrap();
            colors.insert(format!("{c:?}"));
        }
        assert_eq!(colors.len(), 3, "all three phases appear in one cycle");
    }

    #[test]
    fn placement_groups_chains() {
        let bundle = build_signalguru(&Calibration::default(), 8, true);
        let g = &bundle.graph;
        let p = &bundle.placement;
        for i in 0..3 {
            let c = g.op_by_name(&format!("C{i}")).unwrap();
            let a = g.op_by_name(&format!("A{i}")).unwrap();
            let m = g.op_by_name(&format!("M{i}")).unwrap();
            assert_eq!(p.slot_of(c), p.slot_of(a));
            assert_eq!(p.slot_of(a), p.slot_of(m));
        }
        assert_eq!(p.idle_active_slots(), vec![6, 7]);
    }
}
