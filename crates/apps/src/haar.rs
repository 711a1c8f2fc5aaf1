//! A small Haar-like cascade face counter — the BCP kernel
//! ("counts the number of passengers in the images using the
//! HaarTraining face detection algorithm", §II-B).
//!
//! Classic structure, miniaturized: an integral image gives O(1) box
//! sums; a cascade of three Haar-like stage tests (window darker than
//! background → brow darker than mouth → eye corners darkest) slides
//! over the frame; overlapping detections are suppressed greedily.
//! It genuinely detects the faces planted by [`crate::image::FrameGen`].
//! The scan reads a rendered plane: the public entry points render the
//! frame they are given, and `C0..C3` count on the plane `H` rendered
//! once for all four.
//!
//! The scan is integer-only and, once warm, allocation-free: a
//! `HaarScan` keeps its `u32` integral image and its suppression
//! bit-rows between calls, and each stage compares an integer box sum
//! with its threshold pre-multiplied by the box's area. Every area is a
//! power of two, so dividing a sum by it and scaling a threshold by it
//! are both exact in `f64`: `sum / area > t ⇔ sum > t·area ⇔ sum >
//! ⌊t·area⌋` for every threshold, and the detections are exactly those
//! of the mean-based cascade.

use crate::image::{Frame, FACE};

/// Stage 1's box: the whole window.
const WINDOW_AREA: usize = FACE * FACE;
/// Stage 2's boxes: the brow (upper third) and the mouth (lower half).
const BROW_AREA: usize = FACE * (FACE / 3);
const MOUTH_AREA: usize = FACE * (FACE - FACE / 2);
/// Stage 3's boxes: one 2 × 2 eye corner each.
const EYE_AREA: usize = 2 * 2;
/// Stage 2 compares `brow − mouth` scaled by the larger of its areas,
/// which both divide.
const CONTRAST_SCALE: usize = if BROW_AREA > MOUTH_AREA {
    BROW_AREA
} else {
    MOUTH_AREA
};
// The integer stages are exact only for power-of-two areas.
const _: () = assert!(
    WINDOW_AREA.is_power_of_two()
        && BROW_AREA.is_power_of_two()
        && MOUTH_AREA.is_power_of_two()
        && EYE_AREA.is_power_of_two()
);

/// Integral image: `sums[y][x]` = Σ pixels in `[0,x) × [0,y)` of the
/// integrated rectangle. Sums are `u32`, which holds any rectangle of
/// up to 2³² / 255 pixels.
#[derive(Debug, Clone, Default)]
pub struct IntegralImage {
    w: usize,
    sums: Vec<u32>,
}

impl IntegralImage {
    /// Build from a whole grayscale plane.
    pub fn new(pixels: &[u8], w: usize, h: usize) -> Self {
        assert_eq!(pixels.len(), w * h);
        Self::of_rect(pixels, w, 0, 0, w, h)
    }

    /// Integrate only the rectangle `[x0, x1) × [y0, y1)` of a `w`-wide
    /// plane. Box coordinates are then relative to `(x0, y0)`.
    pub fn of_rect(pixels: &[u8], w: usize, x0: usize, y0: usize, x1: usize, y1: usize) -> Self {
        let mut ii = Self::default();
        ii.integrate(pixels, w, x0, y0, x1, y1);
        ii
    }

    /// [`IntegralImage::of_rect`] into this image's buffer, which is
    /// reused: nothing is allocated once it has held a rectangle this
    /// large.
    fn integrate(&mut self, pixels: &[u8], w: usize, x0: usize, y0: usize, x1: usize, y1: usize) {
        assert!(x0 <= x1 && x1 <= w && y0 <= y1 && y1 * w <= pixels.len());
        let (rw, rh) = (x1 - x0, y1 - y0);
        assert!(
            rw * rh <= u32::MAX as usize / 255,
            "rectangle too large for u32 sums"
        );
        let sw = rw + 1;
        self.w = sw;
        // Row 0 and column 0 are the zero borders; the rest is
        // overwritten below.
        self.sums.resize(sw * (rh + 1), 0);
        self.sums[..sw].fill(0);
        for dy in 0..rh {
            let src = &pixels[(y0 + dy) * w + x0..][..rw];
            let (above, below) = self.sums[dy * sw..(dy + 2) * sw].split_at_mut(sw);
            below[0] = 0;
            let mut row = 0u32;
            for ((sum, &up), &p) in below[1..].iter_mut().zip(&above[1..]).zip(src) {
                row += p as u32;
                *sum = up + row;
            }
        }
    }

    /// The [`Edges`] of the windows whose top is at row `y`.
    fn edges(&self, y: usize) -> Edges<'_> {
        std::array::from_fn(|dy| &self.sums[(y + dy) * self.w..][..self.w])
    }

    /// Sum of the box `[x0, x1) × [y0, y1)`.
    pub fn box_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> u32 {
        debug_assert!(x0 <= x1 && y0 <= y1);
        let at = |x: usize, y: usize| self.sums[y * self.w + x];
        // Rows [y0, y1) left of x1, minus the same rows left of x0:
        // neither difference can underflow.
        (at(x1, y1) - at(x1, y0)) - (at(x0, y1) - at(x0, y0))
    }
}

/// A rectangle `(x0, y0, x1, y1)`: columns `[x0, x1)`, rows `[y0, y1)`.
pub(crate) type Rect = (usize, usize, usize, usize);

/// A grayscale plane `(pixels, w, h)`: `w * h` bytes, row-major.
pub(crate) type Plane<'a> = (&'a [u8], usize, usize);

/// Cascade thresholds.
#[derive(Debug, Clone)]
pub struct Cascade {
    /// Stage 1: window mean must be below this (faces are darker than
    /// the bright bus-stop background).
    pub max_window_mean: f64,
    /// Stage 2: brow-region mean minus mouth-region mean must be below
    /// `-brow_contrast` (brow darker).
    pub brow_contrast: f64,
    /// Stage 3: eye-corner mean must be below this.
    pub max_eye_mean: f64,
}

impl Default for Cascade {
    fn default() -> Self {
        Cascade {
            max_window_mean: 150.0,
            brow_contrast: 10.0,
            max_eye_mean: 90.0,
        }
    }
}

/// A cascade's thresholds multiplied by their stages' box areas, as
/// the largest integer sum that passes: an integer `s` is not above a
/// real `t·area` exactly when `s ≤ ⌊t·area⌋`.
struct SumLimits {
    window: i64,
    contrast: i64,
    eye: i64,
}

/// The `FACE + 1` integral rows from a window's top edge down: `[dy]`
/// is row `y + dy`, so every box of the window is four reads of them.
type Edges<'a> = [&'a [u32]; FACE + 1];

/// Σ of columns `[x0, x1)` between integral rows `top` and `bottom`.
#[inline]
fn band_sum(edges: &Edges, top: usize, bottom: usize, x0: usize, x1: usize) -> i64 {
    let (t, b) = (edges[top], edges[bottom]);
    ((b[x1] - t[x1]) - (b[x0] - t[x0])) as i64
}

impl SumLimits {
    fn of(cascade: &Cascade) -> Self {
        // `as` saturates at ±∞; a NaN threshold rejects nothing, as
        // `mean > NaN` is false.
        let floor = |t: f64| {
            if t.is_nan() {
                i64::MAX
            } else {
                t.floor() as i64
            }
        };
        SumLimits {
            window: floor(cascade.max_window_mean * WINDOW_AREA as f64),
            contrast: floor(-cascade.brow_contrast * CONTRAST_SCALE as f64),
            eye: floor(cascade.max_eye_mean * EYE_AREA as f64),
        }
    }

    // Each stage is the mean-based test, `mean > threshold` rejecting,
    // scaled by its box's area.

    /// Stage 1: is the window at column `x` dark overall?
    #[inline]
    fn dark(&self, edges: &Edges, x: usize) -> bool {
        band_sum(edges, 0, FACE, x, x + FACE) <= self.window
    }

    /// Stages 2 and 3: does the window at column `x` have a face's
    /// contrast?
    #[inline]
    fn face_like(&self, edges: &Edges, x: usize) -> bool {
        // Stage 2: brow (upper third) darker than mouth (lower half).
        let brow = band_sum(edges, 0, FACE / 3, x, x + FACE);
        let mouth = band_sum(edges, FACE / 2, FACE, x, x + FACE);
        let contrast = brow * (CONTRAST_SCALE / BROW_AREA) as i64
            - mouth * (CONTRAST_SCALE / MOUTH_AREA) as i64;
        if contrast > self.contrast {
            return false;
        }
        // Stage 3: BOTH eye corners must be dark (rejects windows
        // straddling two adjacent faces, where only one side has an
        // eye).
        let eye_l = band_sum(edges, 1, 3, x + 1, x + 3);
        let eye_r = band_sum(edges, 1, 3, x + FACE - 3, x + FACE - 1);
        eye_l.max(eye_r) <= self.eye
    }
}

/// One detection (window top-left).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Window x.
    pub x: usize,
    /// Window y.
    pub y: usize,
}

/// The cascade scan with its scratch: the integral image and one
/// suppression bit-row per window row. Kept across calls, it allocates
/// nothing once it has scanned a rectangle this large. It scans a
/// `w × h` grayscale plane, row-major.
#[derive(Debug, Clone, Default)]
pub(crate) struct HaarScan {
    ii: IntegralImage,
    /// Bit `x` of row `y`: window position `(x, y)` overlaps an
    /// earlier hit.
    taken: Vec<u64>,
}

impl HaarScan {
    /// [`detect_in`]'s scan, calling `hit` for each detection.
    pub(crate) fn scan(
        &mut self,
        (plane, w, h): Plane,
        cascade: &Cascade,
        (x0, y0, x1, y1): Rect,
        mut hit: impl FnMut(Detection),
    ) {
        let (x1, y1) = (x1.min(w), y1.min(h));
        let (x0, y0) = (x0.min(x1), y0.min(y1));
        let (rw, rh) = (x1 - x0, y1 - y0);
        if rw <= FACE || rh <= FACE {
            return;
        }
        // From here on `x`, `y` are relative to the rectangle's corner.
        self.ii.integrate(plane, w, x0, y0, x1, y1);
        let (cols, rows) = (rw - FACE + 1, rh - FACE + 1);
        let words = cols.div_ceil(64);
        self.taken.clear();
        self.taken.resize(rows * words, 0);
        let limits = SumLimits::of(cascade);
        for y in 0..rows {
            let edges = self.ii.edges(y);
            for x in 0..cols {
                // Stage 1 rejects almost every window: test it before
                // the suppression bit.
                if !limits.dark(&edges, x)
                    || self.taken[y * words + x / 64] >> (x % 64) & 1 != 0
                    || !limits.face_like(&edges, x)
                {
                    continue;
                }
                hit(Detection {
                    x: x0 + x,
                    y: y0 + y,
                });
                // Suppress every later window position overlapping
                // this hit (the rows above are already scanned).
                let span = x.saturating_sub(FACE - 1)..(x + FACE).min(cols);
                let below = &mut self.taken[y * words..(y + FACE).min(rows) * words];
                for row in below.chunks_exact_mut(words) {
                    for sx in span.clone() {
                        row[sx / 64] |= 1 << (sx % 64);
                    }
                }
            }
        }
    }

    /// Count faces in one quadrant (0..4, row-major) of the plane;
    /// there are no faces in a quadrant that does not exist.
    pub(crate) fn count_quadrant(
        &mut self,
        plane: Plane,
        cascade: &Cascade,
        quadrant: usize,
    ) -> u32 {
        if quadrant >= 4 {
            return 0;
        }
        let (qw, qh) = (plane.1 / 2, plane.2 / 2);
        let (qx, qy) = (quadrant % 2, quadrant / 2);
        let rect = (qx * qw, qy * qh, (qx + 1) * qw, (qy + 1) * qh);
        let mut n = 0;
        self.scan(plane, cascade, rect, |_| n += 1);
        n
    }
}

/// Count faces inside the sub-rectangle `[x0, x1) × [y0, y1)` of the
/// frame (a quadrant crop for the C0–C3 counters).
pub fn count_faces_in(
    frame: &Frame,
    cascade: &Cascade,
    x0: usize,
    y0: usize,
    x1: usize,
    y1: usize,
) -> u32 {
    let mut n = 0;
    scan_frame(frame, cascade, (x0, y0, x1, y1), |_| n += 1);
    n
}

/// Detect faces inside a sub-rectangle (window size = planted face
/// size; stride 1; greedy non-maximum suppression), in row-major
/// order. The rectangle is clamped to the frame; only its own pixels
/// are integrated.
pub fn detect_in(
    frame: &Frame,
    cascade: &Cascade,
    x0: usize,
    y0: usize,
    x1: usize,
    y1: usize,
) -> Vec<Detection> {
    let mut hits = Vec::new();
    scan_frame(frame, cascade, (x0, y0, x1, y1), |d| hits.push(d));
    hits
}

/// Count faces in one quadrant (0..4, row-major) of the frame; there
/// are no faces in a quadrant that does not exist.
pub fn count_faces_quadrant(frame: &Frame, cascade: &Cascade, quadrant: usize) -> u32 {
    HaarScan::default().count_quadrant((&frame.render(), frame.w, frame.h), cascade, quadrant)
}

/// A fresh scan of the rectangle `rect` of the frame, rendered.
fn scan_frame(frame: &Frame, cascade: &Cascade, rect: Rect, hit: impl FnMut(Detection)) {
    HaarScan::default().scan((&frame.render(), frame.w, frame.h), cascade, rect, hit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::FrameGen;
    use proptest::prelude::*;
    use simkernel::SimRng;
    use std::sync::Arc;

    /// Mean gray level of a box (0 for empty boxes), in `f64`.
    fn box_mean(ii: &IntegralImage, x0: usize, y0: usize, x1: usize, y1: usize) -> f64 {
        let area = (x1 - x0) * (y1 - y0);
        if area == 0 {
            return 0.0;
        }
        ii.box_sum(x0, y0, x1, y1) as f64 / area as f64
    }

    /// The scan as it was before the rectangle-local and integer
    /// rewrites: the whole frame integrated, a whole-frame suppression
    /// mask, frame coordinates throughout, every stage on `f64` means.
    /// Needs the rectangle inside the plane.
    fn detect_in_reference(
        (plane, w, h): Plane,
        cascade: &Cascade,
        x0: usize,
        y0: usize,
        x1: usize,
        y1: usize,
    ) -> Vec<Detection> {
        let ii = IntegralImage::new(plane, w, h);
        let mut hits = Vec::new();
        if x1 <= x0 + FACE || y1 <= y0 + FACE {
            return hits;
        }
        let mut taken = vec![false; w * h];
        for y in y0..=(y1 - FACE) {
            for x in x0..=(x1 - FACE) {
                if taken[y * w + x] {
                    continue;
                }
                let mean = box_mean(&ii, x, y, x + FACE, y + FACE);
                if mean > cascade.max_window_mean {
                    continue;
                }
                let brow = box_mean(&ii, x, y, x + FACE, y + FACE / 3);
                let mouth = box_mean(&ii, x, y + FACE / 2, x + FACE, y + FACE);
                if brow - mouth > -cascade.brow_contrast {
                    continue;
                }
                let eye_l = box_mean(&ii, x + 1, y + 1, x + 3, y + 3);
                let eye_r = box_mean(&ii, x + FACE - 3, y + 1, x + FACE - 1, y + 3);
                if eye_l.max(eye_r) > cascade.max_eye_mean {
                    continue;
                }
                hits.push(Detection { x, y });
                for sy in y.saturating_sub(FACE - 1)..(y + FACE).min(h) {
                    for sx in x.saturating_sub(FACE - 1)..(x + FACE).min(w) {
                        taken[sy * w + sx] = true;
                    }
                }
            }
        }
        hits
    }

    /// A frame's rendered plane with its size.
    fn rendered(f: &Frame) -> (Arc<[u8]>, usize, usize) {
        (f.render(), f.w, f.h)
    }

    /// A crowded bus stop: adjacent faces, so suppression matters.
    fn crowded_frame(seed: u64) -> Frame {
        crowded_frame_with_noise(seed, FrameGen::default().noise)
    }

    /// ... with the given noise; without noise, window sums take few
    /// values and exact ties with a threshold are common.
    fn crowded_frame_with_noise(seed: u64, noise: u8) -> Frame {
        let gen = FrameGen {
            mean_faces: 14.0,
            noise,
            ..FrameGen::default()
        };
        gen.faces_frame(&mut SimRng::new(seed), 0)
    }

    /// A threshold of one of five kinds, from 64 random bits: zero; a
    /// multiple of 1/64, positive or negative, where exact ties with a
    /// box mean are likely; an arbitrary fraction in `[-300, 300)`;
    /// larger than any mean; or too large to scale (±MAX, ±∞, NaN).
    fn threshold(bits: u64) -> f64 {
        let k = ((bits >> 8) % (300 * 64)) as i64;
        match bits % 5 {
            0 => 0.0,
            1 => (k - 40 * 64) as f64 / 64.0,
            2 => (bits >> 11) as f64 / (1u64 << 53) as f64 * 600.0 - 300.0,
            3 => 256.0 + k as f64 / 64.0,
            _ => [
                f64::MAX,
                -f64::MAX,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ][(k % 5) as usize],
        }
    }

    /// The window at `(x, y)`'s three stage values, each the threshold
    /// it ties with: its mean, mouth − brow, and the larger eye-corner
    /// mean.
    fn stage_means((plane, w, h): Plane, x: usize, y: usize) -> [f64; 3] {
        let ii = IntegralImage::new(plane, w, h);
        let brow = box_mean(&ii, x, y, x + FACE, y + FACE / 3);
        let mouth = box_mean(&ii, x, y + FACE / 2, x + FACE, y + FACE);
        let eye_l = box_mean(&ii, x + 1, y + 1, x + 3, y + 3);
        let eye_r = box_mean(&ii, x + FACE - 3, y + 1, x + FACE - 1, y + 3);
        [
            box_mean(&ii, x, y, x + FACE, y + FACE),
            mouth - brow,
            eye_l.max(eye_r),
        ]
    }

    /// `scan`'s detections as a list.
    fn scanned(scan: &mut HaarScan, plane: Plane, cascade: &Cascade, rect: Rect) -> Vec<Detection> {
        let mut hits = Vec::new();
        scan.scan(plane, cascade, rect, |d| hits.push(d));
        hits
    }

    /// The side of [`window_plane`].
    const W: usize = FACE + 1;

    /// A 9 × 9 plane: the 8 × 8 window at the origin has the given row
    /// levels, the ninth row and column are white.
    fn window_plane(rows: [u8; FACE]) -> Vec<u8> {
        let mut plane = vec![255; W * W];
        for (y, &level) in rows.iter().enumerate() {
            plane[y * W..][..FACE].fill(level);
        }
        plane
    }

    const ORIGIN: Detection = Detection { x: 0, y: 0 };

    /// Two of `0..=max` in ascending order.
    fn span(a: usize, b: usize) -> (usize, usize) {
        (a.min(b), a.max(b))
    }

    proptest! {
        /// Box sums of a rectangle-local integral are the whole-frame
        /// box sums at offset coordinates.
        #[test]
        fn prop_rect_integral_is_offset_whole_frame(
            seed in any::<u64>(),
            rect in (0usize..65, 0usize..65, 0usize..49, 0usize..49),
            bx in (0usize..65, 0usize..65, 0usize..49, 0usize..49),
        ) {
            let (plane, w, h) = rendered(&crowded_frame(seed));
            let ((x0, x1), (y0, y1)) = (span(rect.0, rect.1), span(rect.2, rect.3));
            let whole = IntegralImage::new(&plane, w, h);
            let local = IntegralImage::of_rect(&plane, w, x0, y0, x1, y1);
            // A box inside the rectangle, in rectangle coordinates.
            let ((bx0, bx1), (by0, by1)) = (
                span(bx.0 % (x1 - x0 + 1), bx.1 % (x1 - x0 + 1)),
                span(bx.2 % (y1 - y0 + 1), bx.3 % (y1 - y0 + 1)),
            );
            let sum = local.box_sum(bx0, by0, bx1, by1);
            prop_assert_eq!(sum, whole.box_sum(x0 + bx0, y0 + by0, x0 + bx1, y0 + by1));
            let direct: u64 = (y0 + by0..y0 + by1)
                .flat_map(|y| (x0 + bx0..x0 + bx1).map(move |x| (x, y)))
                .map(|(x, y)| plane[y * w + x] as u64)
                .sum();
            prop_assert_eq!(sum as u64, direct);
        }

        /// The integer scan decides every stage as the `f64` means do,
        /// under any thresholds, on any rectangle; one scan's scratch
        /// serves rectangles of every size in turn.
        #[test]
        fn prop_integer_scan_matches_reference_under_any_thresholds(
            seed in any::<u64>(),
            bits in (any::<u64>(), any::<u64>(), any::<u64>()),
            rect in (0usize..65, 0usize..65, 0usize..49, 0usize..49),
        ) {
            let (plane, w, h) = rendered(&crowded_frame_with_noise(seed, (seed % 2) as u8 * 10));
            let p = (&plane[..], w, h);
            let cascade = Cascade {
                max_window_mean: threshold(bits.0),
                brow_contrast: threshold(bits.1),
                max_eye_mean: threshold(bits.2),
            };
            let ((x0, x1), (y0, y1)) = (span(rect.0, rect.1), span(rect.2, rect.3));
            let (qw, qh) = (w / 2, h / 2);
            let mut rects = vec![(x0, y0, x1, y1), (0, 0, w, h)];
            rects.extend((0..4).map(|q| (q % 2 * qw, q / 2 * qh, (q % 2 + 1) * qw, (q / 2 + 1) * qh)));
            let mut scan = HaarScan::default();
            for (x0, y0, x1, y1) in rects {
                prop_assert_eq!(
                    scanned(&mut scan, p, &cascade, (x0, y0, x1, y1)),
                    detect_in_reference(p, &cascade, x0, y0, x1, y1),
                    "{:?} on {:?}", cascade, (x0, y0, x1, y1)
                );
            }
        }

        /// Thresholds exactly at, or a hair (1/512) either side of, one
        /// window's own stage values: the integer scan decides that
        /// window, scanned first, as the means do.
        #[test]
        fn prop_integer_scan_matches_reference_at_a_windows_own_means(
            seed in any::<u64>(),
            at in (0usize..64 - FACE, 0usize..48 - FACE),
            nudges in (0usize..3, 0usize..3, 0usize..3),
        ) {
            let (plane, w, h) = rendered(&crowded_frame_with_noise(seed, (seed % 2) as u8 * 10));
            let p = (&plane[..], w, h);
            let (x, y) = at;
            let [mean, contrast, eye] = stage_means(p, x, y);
            let nudge = |n: usize| [-1.0 / 512.0, 0.0, 1.0 / 512.0][n];
            let cascade = Cascade {
                max_window_mean: mean + nudge(nudges.0),
                brow_contrast: contrast + nudge(nudges.1),
                max_eye_mean: eye + nudge(nudges.2),
            };
            let mut scan = HaarScan::default();
            for (x0, y0, x1, y1) in [(x, y, x + FACE + 1, y + FACE + 1), (0, 0, w, h)] {
                prop_assert_eq!(
                    scanned(&mut scan, p, &cascade, (x0, y0, x1, y1)),
                    detect_in_reference(p, &cascade, x0, y0, x1, y1),
                    "{:?} on {:?}", cascade, (x0, y0, x1, y1)
                );
            }
        }

        /// The rectangle-local scan finds the reference scan's faces,
        /// in the reference's order, on every quadrant.
        #[test]
        fn prop_detect_in_matches_reference_on_quadrants(seed in any::<u64>()) {
            let f = crowded_frame(seed);
            let (plane, w, h) = rendered(&f);
            let cascade = Cascade::default();
            let (qw, qh) = (f.w / 2, f.h / 2);
            for q in 0..4 {
                let (x0, y0) = (q % 2 * qw, q / 2 * qh);
                let want = detect_in_reference((&plane, w, h), &cascade, x0, y0, x0 + qw, y0 + qh);
                prop_assert_eq!(detect_in(&f, &cascade, x0, y0, x0 + qw, y0 + qh), want.clone());
                prop_assert_eq!(count_faces_quadrant(&f, &cascade, q), want.len() as u32);
            }
        }

        /// ... and on any rectangle inside the frame.
        #[test]
        fn prop_detect_in_matches_reference_on_rectangles(
            seed in any::<u64>(),
            rect in (0usize..65, 0usize..65, 0usize..49, 0usize..49),
        ) {
            let f = crowded_frame(seed);
            let (plane, w, h) = rendered(&f);
            let cascade = Cascade::default();
            let ((x0, x1), (y0, y1)) = (span(rect.0, rect.1), span(rect.2, rect.3));
            prop_assert_eq!(
                detect_in(&f, &cascade, x0, y0, x1, y1),
                detect_in_reference((&plane, w, h), &cascade, x0, y0, x1, y1)
            );
        }
    }

    #[test]
    fn integral_image_box_sums() {
        // 3x3 frame of ones.
        let ii = IntegralImage::new(&[1; 9], 3, 3);
        assert_eq!(ii.box_sum(0, 0, 3, 3), 9);
        assert_eq!(ii.box_sum(1, 1, 3, 3), 4);
        assert_eq!(ii.box_sum(0, 0, 1, 1), 1);
        assert_eq!(ii.box_sum(2, 2, 2, 2), 0);
        assert_eq!(ii.box_sum(0, 0, 3, 1), 3);
    }

    #[test]
    fn integrate_reuses_the_buffer_across_sizes() {
        let (plane, w, _) = rendered(&crowded_frame(5));
        let mut ii = IntegralImage::default();
        for &(x0, y0, x1, y1) in &[(0, 0, 64, 48), (3, 2, 9, 5), (32, 24, 64, 48), (0, 0, 0, 0)] {
            ii.integrate(&plane, w, x0, y0, x1, y1);
            let fresh = IntegralImage::of_rect(&plane, w, x0, y0, x1, y1);
            assert_eq!(ii.sums, fresh.sums);
        }
    }

    /// A window whose mean is exactly the stage-1 threshold passes it:
    /// every stage rejects only on a strict `>`.
    #[test]
    fn stage_one_tie_passes() {
        let plane = window_plane([150; FACE]);
        let p = (&plane[..], W, W);
        // Stages 2 and 3 tie as well: brow − mouth = 0 > −0 and eye
        // 150 > 150 are both false.
        let ties = Cascade {
            brow_contrast: 0.0,
            max_eye_mean: 150.0,
            ..Cascade::default()
        };
        assert_eq!(ties.max_window_mean, 150.0);
        let rect = (0, 0, W, W);
        let mut scan = HaarScan::default();
        assert_eq!(scanned(&mut scan, p, &ties, rect), vec![ORIGIN]);
        assert_eq!(
            scanned(&mut scan, p, &ties, rect),
            detect_in_reference(p, &ties, 0, 0, W, W)
        );
        // A quarter of one pixel level's share below the window mean
        // rejects it: the scaled threshold 9 599.75 is not an integer.
        let below = Cascade {
            max_window_mean: 150.0 - 1.0 / 256.0,
            ..ties.clone()
        };
        assert!(scanned(&mut scan, p, &below, rect).is_empty());
        assert!(detect_in_reference(p, &below, 0, 0, W, W).is_empty());
        // Under the default cascade the window passes stage 1 and
        // fails stage 2 (no contrast).
        let limits = SumLimits::of(&Cascade::default());
        scan.ii.integrate(&plane, W, 0, 0, W, W);
        assert_eq!(scan.ii.box_sum(0, 0, FACE, FACE) as i64, limits.window);
        assert!(limits.dark(&scan.ii.edges(0), 0));
        assert!(!limits.face_like(&scan.ii.edges(0), 0));
    }

    /// Brow − mouth exactly `-brow_contrast` and an eye mean exactly
    /// `max_eye_mean` pass stages 2 and 3; a step past either rejects,
    /// also where the scaled threshold is not an integer.
    #[test]
    fn stage_two_and_three_ties_pass() {
        // Brow (rows 0-1) and the eye rows (1-2) at 100, mouth (rows
        // 4-7) at 110: brow − mouth = −10, eye mean 100.
        let plane = window_plane([100, 100, 100, 100, 110, 110, 110, 110]);
        let p = (&plane[..], W, W);
        let ties = Cascade {
            max_eye_mean: 100.0,
            ..Cascade::default()
        };
        assert_eq!(ties.brow_contrast, 10.0);
        let check = |cascade: &Cascade, found: bool| {
            let got = scanned(&mut HaarScan::default(), p, cascade, (0, 0, W, W));
            assert_eq!(got, detect_in_reference(p, cascade, 0, 0, W, W));
            assert_eq!(got.contains(&ORIGIN), found, "{cascade:?}: {got:?}");
        };
        check(&ties, true);
        for step in [1.0 / 32.0, 1.0 / 128.0] {
            check(
                &Cascade {
                    brow_contrast: 10.0 + step,
                    ..ties.clone()
                },
                false,
            );
        }
        for step in [1.0 / 4.0, 1.0 / 16.0] {
            check(
                &Cascade {
                    max_eye_mean: 100.0 - step,
                    ..ties.clone()
                },
                false,
            );
        }
    }

    #[test]
    fn a_warm_scan_allocates_nothing_more() {
        let f = crowded_frame(9);
        let (plane, w, h) = rendered(&f);
        let p = (&plane[..], w, h);
        let cascade = Cascade::default();
        let mut scan = HaarScan::default();
        scan.count_quadrant(p, &cascade, 0);
        let (ii, taken) = (scan.ii.sums.as_ptr(), scan.taken.as_ptr());
        for q in 0..4 {
            assert_eq!(
                scan.count_quadrant(p, &cascade, q),
                count_faces_quadrant(&f, &cascade, q)
            );
            assert_eq!((scan.ii.sums.as_ptr(), scan.taken.as_ptr()), (ii, taken));
        }
    }

    #[test]
    fn counts_match_ground_truth() {
        let gen = FrameGen::default();
        let cascade = Cascade::default();
        let mut rng = SimRng::new(11);
        let mut total_truth = 0u32;
        let mut total_detected = 0u32;
        for seq in 0..50 {
            let f = gen.faces_frame(&mut rng, seq);
            total_truth += f.truth_faces;
            let detected: u32 = (0..4).map(|q| count_faces_quadrant(&f, &cascade, q)).sum();
            total_detected += detected;
        }
        assert!(total_truth > 100, "enough faces planted");
        let ratio = total_detected as f64 / total_truth as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "detected {total_detected} of {total_truth} (ratio {ratio})"
        );
    }

    #[test]
    fn empty_frame_detects_nothing() {
        let gen = FrameGen {
            mean_faces: 0.0,
            ..FrameGen::default()
        };
        let mut rng = SimRng::new(1);
        let f = gen.faces_frame(&mut rng, 0);
        let detected: u32 = (0..4)
            .map(|q| count_faces_quadrant(&f, &Cascade::default(), q))
            .sum();
        assert_eq!(detected, 0);
    }

    #[test]
    fn quadrant_counts_partition_the_frame() {
        let gen = FrameGen::default();
        let cascade = Cascade::default();
        let mut rng = SimRng::new(23);
        let f = gen.faces_frame(&mut rng, 0);
        let per_quadrant: u32 = (0..4).map(|q| count_faces_quadrant(&f, &cascade, q)).sum();
        let whole = count_faces_in(&f, &cascade, 0, 0, f.w, f.h);
        // Faces are planted wholly within quadrants, so the partition
        // counts at least as many as the whole-frame scan (NMS at
        // quadrant borders can only merge, never split).
        assert!(per_quadrant >= whole);
        assert!(per_quadrant <= whole + 2);
    }

    #[test]
    fn degenerate_rectangles() {
        let gen = FrameGen::default();
        let mut rng = SimRng::new(2);
        let f = gen.faces_frame(&mut rng, 0);
        assert_eq!(count_faces_in(&f, &Cascade::default(), 5, 5, 5, 5), 0);
        assert_eq!(count_faces_in(&f, &Cascade::default(), 0, 0, 4, 4), 0);
    }

    #[test]
    fn rectangles_beyond_the_frame_are_clamped() {
        let f = crowded_frame(2);
        let cascade = Cascade::default();
        // No fifth quadrant (a `CropMsg` may name one): nothing there.
        assert_eq!(count_faces_quadrant(&f, &cascade, 4), 0);
        assert_eq!(count_faces_quadrant(&f, &cascade, usize::MAX), 0);
        // Past the right and bottom edges: what is inside the frame.
        let whole = count_faces_in(&f, &cascade, 0, 0, f.w, f.h);
        assert!(whole > 0);
        assert_eq!(count_faces_in(&f, &cascade, 0, 0, f.w + 9, f.h), whole);
        assert_eq!(count_faces_in(&f, &cascade, 0, 0, f.w, f.h + 9), whole);
        assert_eq!(
            count_faces_in(&f, &cascade, 0, 0, usize::MAX, usize::MAX),
            whole
        );
        // Wholly outside, or inverted: empty.
        assert_eq!(
            count_faces_in(&f, &cascade, f.w, f.h, f.w + 20, f.h + 20),
            0
        );
        assert_eq!(count_faces_in(&f, &cascade, f.w + 1, 0, f.w + 30, f.h), 0);
        assert_eq!(count_faces_in(&f, &cascade, 40, 30, 10, 5), 0);
    }
}
