//! SignalGuru's image-processing kernels (§II-B): "detects a traffic
//! signal in an image through color (red, yellow or green) filtering,
//! shape (circle or arrow) filtering and motion filtering (traffic
//! lights are always fixed by the roadside)".

use crate::image::{Frame, LightColor};

/// A candidate blob found by the color filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColorBlob {
    /// Detected color.
    pub color: LightColor,
    /// Centroid x.
    pub cx: f64,
    /// Centroid y.
    pub cy: f64,
    /// Pixel count.
    pub area: u32,
}

/// Color filter: find the dominant signal-colored blob, if any. Of
/// equally large blobs the first of red, yellow, green wins.
pub fn color_filter(frame: &Frame) -> Option<ColorBlob> {
    const COLORS: [LightColor; 3] = [LightColor::Red, LightColor::Yellow, LightColor::Green];
    // One fold over the colored pixels: (Σx, Σy, count) per color.
    let mut acc = [(0u64, 0u64, 0u32); 3];
    for (x, y, hue) in frame.colored() {
        let slot = match LightColor::from_hue(hue) {
            Some(LightColor::Red) => 0,
            Some(LightColor::Yellow) => 1,
            Some(LightColor::Green) => 2,
            None => continue,
        };
        let (sx, sy, n) = &mut acc[slot];
        *sx += x as u64;
        *sy += y as u64;
        *n += 1;
    }
    let mut best: Option<ColorBlob> = None;
    for (color, &(sx, sy, n)) in COLORS.into_iter().zip(&acc) {
        if n >= 4 && best.is_none_or(|b| n > b.area) {
            best = Some(ColorBlob {
                color,
                cx: sx as f64 / n as f64,
                cy: sy as f64 / n as f64,
                area: n,
            });
        }
    }
    best
}

/// Shape filter: is the blob circular? Checks that the blob's area is
/// consistent with a disc of its bounding radius (a square or thin
/// streak fails), using the bright-pixel mask around the centroid.
pub fn shape_filter(frame: &Frame, blob: &ColorBlob) -> bool {
    // Estimate the radius from the area, then verify that bright
    // pixels fill ~π r² of the (2r)² bounding box around the centroid.
    let r = (blob.area as f64 / std::f64::consts::PI).sqrt();
    if r < 1.0 {
        return false;
    }
    let r_i = r.ceil() as isize;
    let (cx, cy) = (blob.cx.round() as isize, blob.cy.round() as isize);
    let mut inside = 0u32;
    let mut outside_box = 0u32;
    for dy in -r_i..=r_i {
        for dx in -r_i..=r_i {
            let x = cx + dx;
            let y = cy + dy;
            if x < 0 || y < 0 || x as usize >= frame.w || y as usize >= frame.h {
                continue;
            }
            let lit = frame.px(x as usize, y as usize) > 200;
            let in_disc = (dx * dx + dy * dy) as f64 <= r * r + r;
            match (lit, in_disc) {
                (true, true) => inside += 1,
                (true, false) => outside_box += 1,
                _ => {}
            }
        }
    }
    let fill = inside as f64 / blob.area.max(1) as f64;
    fill > 0.7 && outside_box < blob.area / 2
}

/// Motion filter state: traffic lights don't move, so the blob
/// centroid must stay put across frames (passing car lights drift).
#[derive(Debug, Clone, Default)]
pub struct MotionFilter {
    last: Option<(f64, f64)>,
    /// Maximum per-frame centroid drift (pixels) still considered
    /// static.
    pub max_drift: f64,
}

impl MotionFilter {
    /// New filter with the given drift tolerance.
    pub fn new(max_drift: f64) -> Self {
        MotionFilter {
            last: None,
            max_drift,
        }
    }

    /// Feed a blob; true if it is plausibly a fixed light.
    pub fn is_static(&mut self, blob: &ColorBlob) -> bool {
        let ok = match self.last {
            None => true, // first observation: give it the benefit
            Some((lx, ly)) => {
                let d = ((blob.cx - lx).powi(2) + (blob.cy - ly).powi(2)).sqrt();
                d <= self.max_drift
            }
        };
        self.last = Some((blob.cx, blob.cy));
        ok
    }

    /// Reset (e.g. after restore).
    pub fn reset(&mut self) {
        self.last = None;
    }
}

/// Voting filter: majority color over a sliding window of recent
/// detections ("V: voting filter").
#[derive(Debug, Clone)]
pub struct VotingFilter {
    window: usize,
    recent: Vec<LightColor>,
}

impl VotingFilter {
    /// Majority vote over the last `window` detections.
    pub fn new(window: usize) -> Self {
        VotingFilter {
            window: window.max(1),
            recent: Vec::new(),
        }
    }

    /// Feed one detection; returns the current majority color once the
    /// window has at least 2 entries.
    pub fn vote(&mut self, c: LightColor) -> Option<LightColor> {
        self.recent.push(c);
        if self.recent.len() > self.window {
            self.recent.remove(0);
        }
        if self.recent.len() < 2 {
            return Some(c);
        }
        let mut counts = [0u32; 3];
        for &r in &self.recent {
            let ix = match r {
                LightColor::Red => 0,
                LightColor::Yellow => 1,
                LightColor::Green => 2,
            };
            counts[ix] += 1;
        }
        let best = (0..3).max_by_key(|&i| counts[i]).unwrap();
        Some(match best {
            0 => LightColor::Red,
            1 => LightColor::Yellow,
            _ => LightColor::Green,
        })
    }

    /// Detections currently in the window.
    pub fn held(&self) -> usize {
        self.recent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::FrameGen;
    use proptest::prelude::*;
    use simkernel::SimRng;

    /// The filter as it was before the one-pass rewrite: one full pass
    /// of `from_hue` per color.
    fn color_filter_reference(frame: &Frame) -> Option<ColorBlob> {
        let mut best: Option<ColorBlob> = None;
        for color in [LightColor::Red, LightColor::Yellow, LightColor::Green] {
            let mut sx = 0u64;
            let mut sy = 0u64;
            let mut n = 0u32;
            for y in 0..frame.h {
                for x in 0..frame.w {
                    if LightColor::from_hue(frame.hue_at(x, y)) == Some(color) {
                        sx += x as u64;
                        sy += y as u64;
                        n += 1;
                    }
                }
            }
            if n >= 4 {
                let blob = ColorBlob {
                    color,
                    cx: sx as f64 / n as f64,
                    cy: sy as f64 / n as f64,
                    area: n,
                };
                if best.map(|b| blob.area > b.area).unwrap_or(true) {
                    best = Some(blob);
                }
            }
        }
        best
    }

    /// A frame whose hue plane is `hues` tiled from the top-left (the
    /// rest colorless).
    fn hue_frame(w: usize, h: usize, hues: &[u8]) -> Frame {
        let mut hue = vec![0u8; w * h];
        for (dst, &src) in hue.iter_mut().zip(hues) {
            *dst = src;
        }
        let gen = FrameGen {
            w,
            h,
            wire_bytes: 0,
            mean_faces: 0.0,
            noise: 0,
            background: 0,
        };
        let mut f = gen.blank(&mut SimRng::new(0), 0);
        f.set_dense_hue(&hue);
        f
    }

    proptest! {
        /// Any hue plane, every byte value: same blob, bit for bit.
        #[test]
        fn prop_color_filter_matches_three_pass_reference(
            w in 1usize..40,
            h in 1usize..30,
            hues in prop::collection::vec(any::<u8>(), 0..1200),
        ) {
            let f = hue_frame(w, h, &hues);
            prop_assert_eq!(color_filter(&f), color_filter_reference(&f));
        }

        /// Few distinct hues and few colored pixels, so equal areas
        /// (and areas below the 4-pixel floor) are common.
        #[test]
        fn prop_color_filter_keeps_the_tie_break(
            picks in prop::collection::vec(0usize..4, 0..24),
        ) {
            let palette = [0u8, 16, 48, 112];
            let hues: Vec<u8> = picks.iter().map(|&p| palette[p]).collect();
            let f = hue_frame(8, 6, &hues);
            prop_assert_eq!(color_filter(&f), color_filter_reference(&f));
        }
    }

    #[test]
    fn equal_areas_go_to_the_first_color() {
        // Four yellow, four green, four red pixels, red last in the plane.
        let f = hue_frame(8, 6, &[48, 48, 48, 48, 112, 112, 112, 112, 16, 16, 16, 16]);
        assert_eq!(color_filter(&f).map(|b| b.color), Some(LightColor::Red));
        assert_eq!(color_filter(&f), color_filter_reference(&f));
        let f = hue_frame(8, 6, &[112, 112, 112, 112, 48, 48, 48, 48, 16, 16, 16]);
        assert_eq!(color_filter(&f).map(|b| b.color), Some(LightColor::Yellow));
    }

    fn light(rng: &mut SimRng, color: LightColor) -> Frame {
        let gen = FrameGen {
            wire_bytes: 64 * 1024,
            mean_faces: 0.0,
            ..FrameGen::default()
        };
        gen.light_frame(rng, 0, color)
    }

    #[test]
    fn color_filter_finds_planted_color() {
        let mut rng = SimRng::new(3);
        for c in [LightColor::Red, LightColor::Yellow, LightColor::Green] {
            let f = light(&mut rng, c);
            let blob = color_filter(&f).expect("blob found");
            assert_eq!(blob.color, c);
            let (_, x, y, _) = f.truth_light.unwrap();
            assert!((blob.cx - x as f64).abs() < 2.0);
            assert!((blob.cy - y as f64).abs() < 2.0);
        }
    }

    #[test]
    fn color_filter_none_without_light() {
        let gen = FrameGen::default();
        let mut rng = SimRng::new(5);
        let f = gen.faces_frame(&mut rng, 0);
        assert!(color_filter(&f).is_none());
    }

    #[test]
    fn shape_filter_accepts_planted_disc() {
        let mut rng = SimRng::new(7);
        let f = light(&mut rng, LightColor::Green);
        let blob = color_filter(&f).unwrap();
        assert!(shape_filter(&f, &blob), "planted disc should pass");
    }

    #[test]
    fn shape_filter_rejects_streak() {
        // Build a frame with a thin colored streak (a passing car's
        // brake light smear).
        let gen = FrameGen {
            mean_faces: 0.0,
            ..FrameGen::default()
        };
        let mut rng = SimRng::new(9);
        let mut f = gen.faces_frame(&mut rng, 0);
        let mut hue = f.dense_hue();
        for x in 10..40 {
            f.pixels[12 * f.w + x] = 250;
            hue[12 * f.w + x] = LightColor::Red.hue();
        }
        f.set_dense_hue(&hue);
        let blob = color_filter(&f).unwrap();
        assert!(!shape_filter(&f, &blob), "streak must fail the circle test");
    }

    #[test]
    fn motion_filter_tracks_drift() {
        let mut m = MotionFilter::new(2.0);
        let blob = |cx: f64, cy: f64| ColorBlob {
            color: LightColor::Red,
            cx,
            cy,
            area: 20,
        };
        assert!(m.is_static(&blob(10.0, 10.0)));
        assert!(m.is_static(&blob(10.5, 10.2)), "sub-threshold drift");
        assert!(!m.is_static(&blob(20.0, 10.0)), "jump rejected");
        m.reset();
        assert!(m.is_static(&blob(20.0, 10.0)));
    }

    #[test]
    fn voting_filter_majority() {
        let mut v = VotingFilter::new(5);
        assert_eq!(v.vote(LightColor::Red), Some(LightColor::Red));
        v.vote(LightColor::Red);
        v.vote(LightColor::Red);
        // One mis-detection is outvoted.
        assert_eq!(v.vote(LightColor::Green), Some(LightColor::Red));
        // Sustained change flips the majority.
        v.vote(LightColor::Green);
        v.vote(LightColor::Green);
        assert_eq!(v.vote(LightColor::Green), Some(LightColor::Green));
    }

    #[test]
    fn voting_state_round_trips() {
        use dsps::operator::OpStateCell;
        let mut v = VotingFilter::new(3);
        v.vote(LightColor::Red);
        v.vote(LightColor::Green);
        let st = v.snapshot();
        let mut w = VotingFilter::new(3);
        w.restore(&st);
        assert_eq!(w.recent, v.recent);
        assert_eq!(w.held(), 2);
    }
}
