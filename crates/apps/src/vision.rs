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
/// equally large blobs the first of red, yellow, green wins. It reads
/// the frame's colored pixels, which need no plane.
pub fn color_filter(frame: &Frame) -> Option<ColorBlob> {
    dominant_blob(frame.colored())
}

/// [`color_filter`] over colored pixels `(x, y, hue)`.
fn dominant_blob(colored: impl IntoIterator<Item = (usize, usize, u8)>) -> Option<ColorBlob> {
    const COLORS: [LightColor; 3] = [LightColor::Red, LightColor::Yellow, LightColor::Green];
    // One fold over the colored pixels: (Σx, Σy, count) per color.
    let mut acc = [(0u64, 0u64, 0u32); 3];
    for (x, y, hue) in colored {
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
///
/// The lamp and its housing are known without a plane, and the window
/// of a planted lamp's blob lies inside its housing; a window that
/// reaches a noise pixel renders the frame, once.
pub fn shape_filter(frame: &Frame, blob: &ColorBlob) -> bool {
    let mut plane = None;
    is_disc(blob, frame.w, frame.h, |x, y| {
        frame
            .planted_px(x, y)
            .unwrap_or_else(|| plane.get_or_insert_with(|| frame.render())[y * frame.w + x])
    })
}

/// [`shape_filter`] on a `w × h` plane whose pixel `(x, y)` is
/// `px(x, y)`.
fn is_disc(blob: &ColorBlob, w: usize, h: usize, mut px: impl FnMut(usize, usize) -> u8) -> bool {
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
            if x < 0 || y < 0 || x as usize >= w || y as usize >= h {
                continue;
            }
            let lit = px(x as usize, y as usize) > 200;
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
    /// of `from_hue` per color over a dense `w × h` hue plane.
    fn color_filter_reference(hue: &[u8], w: usize, h: usize) -> Option<ColorBlob> {
        let mut best: Option<ColorBlob> = None;
        for color in [LightColor::Red, LightColor::Yellow, LightColor::Green] {
            let mut sx = 0u64;
            let mut sy = 0u64;
            let mut n = 0u32;
            for y in 0..h {
                for x in 0..w {
                    if LightColor::from_hue(hue[y * w + x]) == Some(color) {
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

    /// A `w × h` hue plane: `hues` from the top-left, the rest
    /// colorless.
    fn hue_plane(w: usize, h: usize, hues: &[u8]) -> Vec<u8> {
        let mut hue = vec![0u8; w * h];
        for (dst, &src) in hue.iter_mut().zip(hues) {
            *dst = src;
        }
        hue
    }

    /// The colored pixels of a `w`-wide hue plane, as
    /// [`Frame::colored`] lists them.
    fn colored(hue: &[u8], w: usize) -> impl Iterator<Item = (usize, usize, u8)> + '_ {
        (0..hue.len())
            .filter(|&i| hue[i] != 0)
            .map(move |i| (i % w, i / w, hue[i]))
    }

    /// The color filter's fold and the reference on one hue plane.
    fn both(w: usize, h: usize, hues: &[u8]) -> (Option<ColorBlob>, Option<ColorBlob>) {
        let hue = hue_plane(w, h, hues);
        (
            dominant_blob(colored(&hue, w)),
            color_filter_reference(&hue, w, h),
        )
    }

    proptest! {
        /// Any hue plane, every byte value: same blob, bit for bit.
        #[test]
        fn prop_color_filter_matches_three_pass_reference(
            w in 1usize..40,
            h in 1usize..30,
            hues in prop::collection::vec(any::<u8>(), 0..1200),
        ) {
            let (got, want) = both(w, h, &hues);
            prop_assert_eq!(got, want);
        }

        /// Few distinct hues and few colored pixels, so equal areas
        /// (and areas below the 4-pixel floor) are common.
        #[test]
        fn prop_color_filter_keeps_the_tie_break(
            picks in prop::collection::vec(0usize..4, 0..24),
        ) {
            let palette = [0u8, 16, 48, 112];
            let hues: Vec<u8> = picks.iter().map(|&p| palette[p]).collect();
            let (got, want) = both(8, 6, &hues);
            prop_assert_eq!(got, want);
        }

        /// Lamps at every clamp corner and at jittered positions, with
        /// their own blob and with hand-built blobs, some far larger
        /// than the housing: the planted path decides as the rendered
        /// plane does.
        #[test]
        fn prop_shape_filter_matches_the_rendered_plane(
            seed in any::<u64>(),
            at in (0usize..4, 0usize..4, 0usize..3, 0usize..3),
            color in 0usize..3,
            blob in (0u32..600, 0usize..640, 0usize..480),
        ) {
            let gen = FrameGen::default();
            let mut rng = SimRng::new(seed);
            // The clamp limits and beyond, then a camera's ±1 jitter.
            let xs = [0, 8, 30, 63];
            let ys = [0, 6, 12, 47];
            let x = (xs[at.0] + at.2).saturating_sub(1);
            let y = (ys[at.1] + at.3).saturating_sub(1);
            let f = gen.light_frame_at(&mut rng, 0, COLORS[color], x, y);
            let plane = f.render();
            let rendered = |b: &ColorBlob| is_disc(b, f.w, f.h, |x, y| plane[y * f.w + x]);
            let own = color_filter(&f).expect("the lamp is a blob");
            prop_assert_eq!(shape_filter(&f, &own), rendered(&own));
            prop_assert!(shape_filter(&f, &own), "a planted lamp is round");
            let built = ColorBlob {
                color: COLORS[color],
                cx: blob.1 as f64 / 10.0,
                cy: blob.2 as f64 / 10.0,
                area: blob.0,
            };
            prop_assert_eq!(shape_filter(&f, &built), rendered(&built));
        }
    }

    #[test]
    fn equal_areas_go_to_the_first_color() {
        // Four yellow, four green, four red pixels, red last in the plane.
        let (got, want) = both(8, 6, &[48, 48, 48, 48, 112, 112, 112, 112, 16, 16, 16, 16]);
        assert_eq!(got.map(|b| b.color), Some(LightColor::Red));
        assert_eq!(got, want);
        let (got, _) = both(8, 6, &[112, 112, 112, 112, 48, 48, 48, 48, 16, 16, 16]);
        assert_eq!(got.map(|b| b.color), Some(LightColor::Yellow));
    }

    const COLORS: [LightColor; 3] = [LightColor::Red, LightColor::Yellow, LightColor::Green];

    /// A planted lamp's own window lies inside its housing, so
    /// SignalGuru's shape filter never renders; a window reaching past
    /// the housing reads noise and must render.
    #[test]
    fn shape_filter_renders_only_past_the_housing() {
        let gen = FrameGen::default();
        let mut rng = SimRng::new(13);
        for (x, y) in [(0, 0), (63, 47), (30, 12), (8, 24), (55, 6)] {
            let f = gen.light_frame_at(&mut rng, 0, LightColor::Red, x, y);
            let own = color_filter(&f).expect("the lamp is a blob");
            let planted = |x, y| f.planted_px(x, y).expect("the window stays planted");
            assert!(is_disc(&own, f.w, f.h, planted));
            let wide = ColorBlob { area: 400, ..own };
            let mut noise = 0;
            let plane = f.render();
            let seen = is_disc(&wide, f.w, f.h, |x, y| {
                noise += f.planted_px(x, y).is_none() as u32;
                plane[y * f.w + x]
            });
            assert!(noise > 0, "a 400-pixel blob's window reaches noise");
            assert_eq!(shape_filter(&f, &wide), seen);
        }
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
        let f = gen.faces_frame(&mut rng, 0);
        let mut plane = f.render().to_vec();
        let mut hue = vec![0; f.w * f.h];
        for x in 10..40 {
            plane[12 * f.w + x] = 250;
            hue[12 * f.w + x] = LightColor::Red.hue();
        }
        let blob = dominant_blob(colored(&hue, f.w)).unwrap();
        assert!(
            !is_disc(&blob, f.w, f.h, |x, y| plane[y * f.w + x]),
            "streak must fail the circle test"
        );
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
