//! A small Haar-like cascade face counter — the BCP kernel
//! ("counts the number of passengers in the images using the
//! HaarTraining face detection algorithm", §II-B).
//!
//! Classic structure, miniaturized: an integral image gives O(1) box
//! sums; a cascade of three Haar-like stage tests (window darker than
//! background → brow darker than mouth → eye corners darkest) slides
//! over the frame; overlapping detections are suppressed greedily.
//! It genuinely detects the faces planted by [`crate::image::FrameGen`].

use crate::image::{Frame, FACE};

/// Integral image: `sums[y][x]` = Σ pixels in `[0,x) × [0,y)` of the
/// integrated rectangle.
pub struct IntegralImage {
    w: usize,
    sums: Vec<u64>,
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
        assert!(x0 <= x1 && x1 <= w && y0 <= y1 && y1 * w <= pixels.len());
        let (rw, rh) = (x1 - x0, y1 - y0);
        let sw = rw + 1;
        let mut sums = vec![0u64; sw * (rh + 1)];
        for dy in 0..rh {
            let src = &pixels[(y0 + dy) * w + x0..][..rw];
            let (above, below) = sums[dy * sw..(dy + 2) * sw].split_at_mut(sw);
            let mut row = 0u64;
            for ((sum, &up), &p) in below[1..].iter_mut().zip(&above[1..]).zip(src) {
                row += p as u64;
                *sum = up + row;
            }
        }
        IntegralImage { w: sw, sums }
    }

    /// Sum of the box `[x0, x1) × [y0, y1)`.
    pub fn box_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> u64 {
        debug_assert!(x0 <= x1 && y0 <= y1);
        self.sums[y1 * self.w + x1] + self.sums[y0 * self.w + x0]
            - self.sums[y0 * self.w + x1]
            - self.sums[y1 * self.w + x0]
    }

    /// Mean gray level of a box (0 for empty boxes).
    pub fn box_mean(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> f64 {
        let area = (x1 - x0) * (y1 - y0);
        if area == 0 {
            return 0.0;
        }
        self.box_sum(x0, y0, x1, y1) as f64 / area as f64
    }
}

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

/// One detection (window top-left).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Window x.
    pub x: usize,
    /// Window y.
    pub y: usize,
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
    detect_in(frame, cascade, x0, y0, x1, y1).len() as u32
}

/// Detect faces inside a sub-rectangle (window size = planted face
/// size; stride 1; greedy non-maximum suppression). The rectangle is
/// clamped to the frame; only its own pixels are integrated.
pub fn detect_in(
    frame: &Frame,
    cascade: &Cascade,
    x0: usize,
    y0: usize,
    x1: usize,
    y1: usize,
) -> Vec<Detection> {
    let (x1, y1) = (x1.min(frame.w), y1.min(frame.h));
    let (x0, y0) = (x0.min(x1), y0.min(y1));
    let (rw, rh) = (x1 - x0, y1 - y0);
    let mut hits = Vec::new();
    if rw <= FACE || rh <= FACE {
        return hits;
    }
    // From here on `x`, `y` are relative to the rectangle's corner.
    let ii = IntegralImage::of_rect(&frame.pixels, frame.w, x0, y0, x1, y1);
    let mut taken = vec![false; rw * rh];
    for y in 0..=(rh - FACE) {
        for x in 0..=(rw - FACE) {
            if taken[y * rw + x] {
                continue;
            }
            // Stage 1: overall darkness.
            let mean = ii.box_mean(x, y, x + FACE, y + FACE);
            if mean > cascade.max_window_mean {
                continue;
            }
            // Stage 2: brow (upper third) darker than mouth (lower half).
            let brow = ii.box_mean(x, y, x + FACE, y + FACE / 3);
            let mouth = ii.box_mean(x, y + FACE / 2, x + FACE, y + FACE);
            if brow - mouth > -cascade.brow_contrast {
                continue;
            }
            // Stage 3: BOTH eye corners must be dark (rejects windows
            // straddling two adjacent faces, where only one side has
            // an eye).
            let eye_l = ii.box_mean(x + 1, y + 1, x + 3, y + 3);
            let eye_r = ii.box_mean(x + FACE - 3, y + 1, x + FACE - 1, y + 3);
            if eye_l.max(eye_r) > cascade.max_eye_mean {
                continue;
            }
            hits.push(Detection {
                x: x0 + x,
                y: y0 + y,
            });
            // Suppress every window position overlapping this hit.
            for sy in y.saturating_sub(FACE - 1)..(y + FACE).min(rh) {
                taken[sy * rw..][x.saturating_sub(FACE - 1)..(x + FACE).min(rw)].fill(true);
            }
        }
    }
    hits
}

/// Count faces in one quadrant (0..4, row-major) of the frame; there
/// are no faces in a quadrant that does not exist.
pub fn count_faces_quadrant(frame: &Frame, cascade: &Cascade, quadrant: usize) -> u32 {
    if quadrant >= 4 {
        return 0;
    }
    let (qw, qh) = (frame.w / 2, frame.h / 2);
    let (qx, qy) = (quadrant % 2, quadrant / 2);
    count_faces_in(
        frame,
        cascade,
        qx * qw,
        qy * qh,
        (qx + 1) * qw,
        (qy + 1) * qh,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::FrameGen;
    use proptest::prelude::*;
    use simkernel::SimRng;

    /// The scan as it was before the rectangle-local rewrite: the whole
    /// frame integrated, a whole-frame suppression mask, frame
    /// coordinates throughout. Needs the rectangle inside the frame.
    fn detect_in_reference(
        frame: &Frame,
        cascade: &Cascade,
        x0: usize,
        y0: usize,
        x1: usize,
        y1: usize,
    ) -> Vec<Detection> {
        let ii = IntegralImage::new(&frame.pixels, frame.w, frame.h);
        let mut hits = Vec::new();
        if x1 <= x0 + FACE || y1 <= y0 + FACE {
            return hits;
        }
        let mut taken = vec![false; frame.w * frame.h];
        for y in y0..=(y1 - FACE) {
            for x in x0..=(x1 - FACE) {
                if taken[y * frame.w + x] {
                    continue;
                }
                let mean = ii.box_mean(x, y, x + FACE, y + FACE);
                if mean > cascade.max_window_mean {
                    continue;
                }
                let brow = ii.box_mean(x, y, x + FACE, y + FACE / 3);
                let mouth = ii.box_mean(x, y + FACE / 2, x + FACE, y + FACE);
                if brow - mouth > -cascade.brow_contrast {
                    continue;
                }
                let eye_l = ii.box_mean(x + 1, y + 1, x + 3, y + 3);
                let eye_r = ii.box_mean(x + FACE - 3, y + 1, x + FACE - 1, y + 3);
                if eye_l.max(eye_r) > cascade.max_eye_mean {
                    continue;
                }
                hits.push(Detection { x, y });
                for sy in y.saturating_sub(FACE - 1)..(y + FACE).min(frame.h) {
                    for sx in x.saturating_sub(FACE - 1)..(x + FACE).min(frame.w) {
                        taken[sy * frame.w + sx] = true;
                    }
                }
            }
        }
        hits
    }

    /// A crowded bus stop: adjacent faces, so suppression matters.
    fn crowded_frame(seed: u64) -> Frame {
        let gen = FrameGen {
            mean_faces: 14.0,
            ..FrameGen::default()
        };
        gen.faces_frame(&mut SimRng::new(seed), 0)
    }

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
            let f = crowded_frame(seed);
            let ((x0, x1), (y0, y1)) = (span(rect.0, rect.1), span(rect.2, rect.3));
            let whole = IntegralImage::new(&f.pixels, f.w, f.h);
            let local = IntegralImage::of_rect(&f.pixels, f.w, x0, y0, x1, y1);
            // A box inside the rectangle, in rectangle coordinates.
            let ((bx0, bx1), (by0, by1)) = (
                span(bx.0 % (x1 - x0 + 1), bx.1 % (x1 - x0 + 1)),
                span(bx.2 % (y1 - y0 + 1), bx.3 % (y1 - y0 + 1)),
            );
            prop_assert_eq!(
                local.box_sum(bx0, by0, bx1, by1),
                whole.box_sum(x0 + bx0, y0 + by0, x0 + bx1, y0 + by1)
            );
        }

        /// The rectangle-local scan finds the reference scan's faces,
        /// in the reference's order, on every quadrant.
        #[test]
        fn prop_detect_in_matches_reference_on_quadrants(seed in any::<u64>()) {
            let f = crowded_frame(seed);
            let cascade = Cascade::default();
            let (qw, qh) = (f.w / 2, f.h / 2);
            for q in 0..4 {
                let (x0, y0) = (q % 2 * qw, q / 2 * qh);
                let want = detect_in_reference(&f, &cascade, x0, y0, x0 + qw, y0 + qh);
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
            let cascade = Cascade::default();
            let ((x0, x1), (y0, y1)) = (span(rect.0, rect.1), span(rect.2, rect.3));
            prop_assert_eq!(
                detect_in(&f, &cascade, x0, y0, x1, y1),
                detect_in_reference(&f, &cascade, x0, y0, x1, y1)
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
        assert!((ii.box_mean(0, 0, 3, 1) - 1.0).abs() < 1e-12);
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
