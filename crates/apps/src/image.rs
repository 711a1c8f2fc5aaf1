//! Synthetic camera frames.
//!
//! Real deployments shipped VGA JPEG frames (~tens–hundreds of KB).
//! The simulation separates the two things a frame does:
//!
//! * **network/storage cost** — `wire_bytes` (e.g. 128 KB), which is
//!   what the WiFi medium, preservation logs and checkpoints charge;
//! * **computation** — a small real pixel grid (default 64×48
//!   grayscale) that the Haar counter and the SignalGuru filters
//!   genuinely process, with planted ground truth to verify kernel
//!   accuracy.
//!
//! A frame is its seed, not its pixels. It keeps the camera stream as
//! it stood just before the frame's `w·h` noise draws, the background
//! and noise levels, and what was planted: the face cells and the lamp.
//! The generator jumps the camera stream past the noise draws
//! ([`SimRng::skip`]): a 64×48 frame's 3 072 draws are one jump of
//! about 256 generator steps, not 3 072 of them, and leave the stream
//! and its draw count where the draws would. [`Frame::render`] replays
//! the draws into a fresh plane and paints the planted pixels on top.
//! A plane is a pure function of the seed, so
//! every render of a frame gives the same bytes, and a frame waiting in
//! a preservation log or a queue holds about 150 bytes plus its face
//! list. Hue needs no plane either: the lamp disc has the light's hue
//! and every other pixel is colorless.

use std::ops::Range;
use std::sync::Arc;

use simkernel::SimRng;

/// Traffic-light colors (SignalGuru ground truth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LightColor {
    /// Red phase.
    Red,
    /// Yellow phase.
    Yellow,
    /// Green phase.
    Green,
}

impl LightColor {
    /// Hue-plane encoding of the color (synthetic hue values).
    pub fn hue(self) -> u8 {
        match self {
            LightColor::Red => 16,
            LightColor::Yellow => 48,
            LightColor::Green => 112,
        }
    }

    /// Decode a hue value back (tolerant).
    pub fn from_hue(h: u8) -> Option<LightColor> {
        match h {
            8..=24 => Some(LightColor::Red),
            40..=56 => Some(LightColor::Yellow),
            104..=120 => Some(LightColor::Green),
            _ => None,
        }
    }
}

/// A synthetic frame: its seed and its planted ground truth.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame sequence number (camera-local).
    pub seq: u64,
    /// Bytes the frame occupies on the network / in storage.
    pub wire_bytes: u64,
    /// Proxy resolution.
    pub w: usize,
    /// Proxy resolution.
    pub h: usize,
    /// The camera stream just before this frame's `w*h` noise draws.
    noise_rng: SimRng,
    /// Background gray level.
    background: u8,
    /// Additive noise amplitude.
    noise: u8,
    /// Top-left corners of the planted faces.
    faces: Box<[(usize, usize)]>,
    /// Ground truth: faces planted.
    pub truth_faces: u32,
    /// Ground truth: traffic light planted (with disc center x,y,r).
    pub truth_light: Option<(LightColor, usize, usize, usize)>,
}

impl Frame {
    /// The grayscale plane, row-major, `w*h` bytes, in one allocation:
    /// the background, the noise replayed over it from the frame's
    /// seed, then the faces, the lamp housing and the lamp disc.
    pub fn render(&self) -> Arc<[u8]> {
        let (w, h) = (self.w, self.h);
        let mut plane: Arc<[u8]> = std::iter::repeat_n(self.background, w * h).collect();
        let px = Arc::get_mut(&mut plane).expect("a fresh plane has one owner");
        if self.noise > 0 {
            // Background plus uniform noise in `[-noise, noise]`, one
            // draw per pixel in row-major order, each mapped through a
            // table of the `span` gray levels a draw can give.
            let floor = self.background as i16 - self.noise as i16;
            let span = 2 * self.noise as usize + 1;
            let mut level = [0u8; 2 * u8::MAX as usize + 1];
            for (d, l) in level[..span].iter_mut().enumerate() {
                *l = (floor + d as i16).clamp(0, 255) as u8;
            }
            self.noise_rng
                .clone()
                .fill_range_u64(0, span as u64, px, |d| level[d as usize]);
        }
        for &(x0, y0) in &self.faces {
            for (dy, row) in FACE_BLOCK.iter().enumerate() {
                px[(y0 + dy) * w + x0..][..FACE].copy_from_slice(row);
            }
        }
        if let Some((_, cx, cy, r)) = self.truth_light {
            let (xs, ys) = housing(cx, cy, r);
            let xs = xs.start.min(w)..xs.end.min(w);
            for y in ys.start.min(h)..ys.end.min(h) {
                px[y * w..][xs.clone()].fill(HOUSING);
            }
            for (x, y, _) in self.lamp() {
                px[y * w + x] = LAMP;
            }
        }
        plane
    }

    /// The gray level a planted face or lamp gives pixel `(x, y)`, or
    /// `None` where the pixel is noise. Needs no plane.
    pub(crate) fn planted_px(&self, x: usize, y: usize) -> Option<u8> {
        if let Some((_, cx, cy, r)) = self.truth_light {
            if in_disc(x, y, cx, cy, r) {
                return Some(LAMP);
            }
            let (xs, ys) = housing(cx, cy, r);
            if xs.contains(&x) && ys.contains(&y) {
                return Some(HOUSING);
            }
        }
        self.faces
            .iter()
            .find(|&&(x0, y0)| (x0..x0 + FACE).contains(&x) && (y0..y0 + FACE).contains(&y))
            .map(|&(x0, y0)| FACE_BLOCK[y - y0][x - x0])
    }

    /// Hue at (x, y) (0 = colorless).
    pub fn hue_at(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.w && y < self.h, "({x}, {y}) is outside the frame");
        match self.truth_light {
            Some((color, cx, cy, r)) if in_disc(x, y, cx, cy, r) => color.hue(),
            _ => 0,
        }
    }

    /// The colored pixels as `(x, y, hue)`, in row-major order.
    pub(crate) fn colored(&self) -> impl Iterator<Item = (usize, usize, u8)> + '_ {
        self.lamp().map(|(x, y, color)| (x, y, color.hue()))
    }

    /// The lamp disc's in-frame pixels with its color, in row-major
    /// order; nothing without a light.
    fn lamp(&self) -> impl Iterator<Item = (usize, usize, LightColor)> + '_ {
        let (w, h) = (self.w, self.h);
        self.truth_light
            .into_iter()
            .flat_map(move |(color, cx, cy, r)| {
                (cy.saturating_sub(r)..(cy + r + 1).min(h)).flat_map(move |y| {
                    // The disc's half-width on this row, ⌊√(r² − dy²)⌋,
                    // which `f64` gives exactly at any radius a frame holds.
                    let dy = y.abs_diff(cy);
                    let half = ((r * r - dy * dy) as f64).sqrt() as usize;
                    (cx.saturating_sub(half)..(cx + half + 1).min(w)).map(move |x| (x, y, color))
                })
            })
    }
}

/// Gray level of the lit lamp disc.
const LAMP: u8 = 250;
/// Gray level of the lamp housing.
const HOUSING: u8 = 40;

/// Is `(x, y)` on the disc of radius `r` around `(cx, cy)`?
fn in_disc(x: usize, y: usize, cx: usize, cy: usize, r: usize) -> bool {
    let (dx, dy) = (x.abs_diff(cx), y.abs_diff(cy));
    dx * dx + dy * dy <= r * r
}

/// The columns and rows of the dark housing around a lamp at
/// `(cx, cy)` of radius `r`: a box `2r + 2` wide and `4r` tall from
/// `(cx - r - 1, cy - r - 1)`, cut at the frame's top and left edges.
fn housing(cx: usize, cy: usize, r: usize) -> (Range<usize>, Range<usize>) {
    (
        cx.saturating_sub(r + 1)..cx + r + 1,
        cy.saturating_sub(r + 1)..cy + 3 * r - 1,
    )
}

/// Face block edge length in proxy pixels (faces are planted on a
/// grid so each face lies entirely inside one quadrant).
pub const FACE: usize = 8;

/// A synthetic "face", row by row: a mid-gray block with two dark eye
/// dots in the upper third and a lighter mouth band — exactly the
/// contrast structure the Haar-like features in [`crate::haar`] test
/// for.
const FACE_BLOCK: [[u8; FACE]; FACE] = {
    let mut block = [[0; FACE]; FACE];
    let mut dy = 0;
    while dy < FACE {
        let mut dx = 0;
        while dx < FACE {
            // Eyes: two 2 × 2 dark dots in the brow region.
            let eye = dx == 1 || dx == 2 || dx == FACE - 3 || dx == FACE - 2;
            block[dy][dx] = match dy {
                1 if eye => 20,
                2 if eye => 25,
                _ if dy < FACE / 3 => 90, // brow region
                _ if dy < FACE / 2 => 110,
                _ => 130, // mouth region is lighter
            };
            dx += 1;
        }
        dy += 1;
    }
    block
};

/// Frame generator parameters.
#[derive(Debug, Clone)]
pub struct FrameGen {
    /// Proxy width (multiple of `2*FACE`).
    pub w: usize,
    /// Proxy height (multiple of `2*FACE`).
    pub h: usize,
    /// Wire size of each frame.
    pub wire_bytes: u64,
    /// Mean planted faces per frame (Poisson).
    pub mean_faces: f64,
    /// Background gray level.
    pub background: u8,
    /// Additive noise amplitude.
    pub noise: u8,
}

impl Default for FrameGen {
    fn default() -> Self {
        FrameGen {
            w: 64,
            h: 48,
            wire_bytes: 128 * 1024,
            mean_faces: 6.0,
            background: 200,
            noise: 10,
        }
    }
}

impl FrameGen {
    /// Generate a bus-stop frame with planted faces.
    pub fn faces_frame(&self, rng: &mut SimRng, seq: u64) -> Frame {
        let mut f = self.blank(rng, seq);
        let mut cells = self.face_cells();
        let n = rng.poisson(self.mean_faces).min(cells.len() as u64) as u32;
        rng.shuffle(&mut cells);
        cells.truncate(n as usize);
        f.faces = cells.into_boxed_slice();
        f.truth_faces = n;
        f
    }

    /// Generate an intersection frame showing a traffic light at a
    /// random position (convenience wrapper; cameras that stay at one
    /// intersection should use [`FrameGen::light_frame_at`] with a
    /// fixed position, or the motion filter will reject the light).
    pub fn light_frame(&self, rng: &mut SimRng, seq: u64, color: LightColor) -> Frame {
        let r = 4usize;
        let x = rng.index(self.w - 4 * r) + 2 * r;
        let y = rng.index(self.h / 2 - 2 * r) + r + 2;
        self.light_frame_at(rng, seq, color, x, y)
    }

    /// Generate an intersection frame with the light at `(x, y)`.
    pub fn light_frame_at(
        &self,
        rng: &mut SimRng,
        seq: u64,
        color: LightColor,
        x: usize,
        y: usize,
    ) -> Frame {
        let mut f = self.blank(rng, seq);
        let r = 4usize;
        let x = x.clamp(2 * r, self.w - 2 * r - 1);
        let y = y.clamp(r + 2, self.h / 2);
        f.truth_light = Some((color, x, y, r));
        f
    }

    /// Background plus noise, nothing planted: the camera stream is
    /// kept as the frame's seed, then jumped past the noise draws.
    fn blank(&self, rng: &mut SimRng, seq: u64) -> Frame {
        let noise_rng = rng.clone();
        if self.noise > 0 {
            rng.skip((self.w * self.h) as u64);
        }
        Frame {
            seq,
            wire_bytes: self.wire_bytes,
            w: self.w,
            h: self.h,
            noise_rng,
            background: self.background,
            noise: self.noise,
            faces: Box::default(),
            truth_faces: 0,
            truth_light: None,
        }
    }

    /// Grid cells where faces may be planted (each fully inside one
    /// quadrant, with a 1px margin).
    fn face_cells(&self) -> Vec<(usize, usize)> {
        let (qw, qh) = (self.w / 2, self.h / 2);
        let cols = (qw - 2) / (FACE + 2);
        let rows = (qh - 2) / (FACE + 2);
        let mut v = Vec::with_capacity(4 * rows * cols);
        for qy in 0..2 {
            for qx in 0..2 {
                let (ox, oy) = (qx * qw, qy * qh);
                for r in 0..rows {
                    for c in 0..cols {
                        v.push((ox + 1 + c * (FACE + 2), oy + 1 + r * (FACE + 2)));
                    }
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dense generator the seed frames replaced, kept as their
    /// model: a grayscale plane and a hue plane, written as the frame is
    /// generated, from the same draws in the same order.
    struct Dense {
        pixels: Vec<u8>,
        hue: Vec<u8>,
        w: usize,
        truth_faces: u32,
        truth_light: Option<(LightColor, usize, usize, usize)>,
    }

    impl Dense {
        fn blank(gen: &FrameGen, rng: &mut SimRng) -> Dense {
            let n = gen.w * gen.h;
            let mut pixels = vec![gen.background; n];
            if gen.noise > 0 {
                let floor = gen.background as i16 - gen.noise as i16;
                rng.fill_range_u64(0, 2 * gen.noise as u64 + 1, &mut pixels, |d| {
                    (floor + d as i16).clamp(0, 255) as u8
                });
            }
            Dense {
                pixels,
                hue: vec![0; n],
                w: gen.w,
                truth_faces: 0,
                truth_light: None,
            }
        }

        fn faces_frame(gen: &FrameGen, rng: &mut SimRng) -> Dense {
            let mut d = Dense::blank(gen, rng);
            let mut cells = gen.face_cells();
            let n = rng.poisson(gen.mean_faces).min(cells.len() as u64) as u32;
            rng.shuffle(&mut cells);
            for &(cx, cy) in cells.iter().take(n as usize) {
                d.plant_face(cx, cy);
            }
            d.truth_faces = n;
            d
        }

        fn light_frame(gen: &FrameGen, rng: &mut SimRng, color: LightColor) -> Dense {
            let r = 4usize;
            let x = rng.index(gen.w - 4 * r) + 2 * r;
            let y = rng.index(gen.h / 2 - 2 * r) + r + 2;
            Dense::light_frame_at(gen, rng, color, x, y)
        }

        fn light_frame_at(
            gen: &FrameGen,
            rng: &mut SimRng,
            color: LightColor,
            x: usize,
            y: usize,
        ) -> Dense {
            let mut d = Dense::blank(gen, rng);
            let r = 4usize;
            let x = x.clamp(2 * r, gen.w - 2 * r - 1);
            let y = y.clamp(r + 2, gen.h / 2);
            d.plant_light(x, y, r, color);
            d.truth_light = Some((color, x, y, r));
            d
        }

        fn plant_face(&mut self, x0: usize, y0: usize) {
            let w = self.w;
            for dy in 0..FACE {
                for dx in 0..FACE {
                    let v = if dy < FACE / 3 {
                        90
                    } else if dy < FACE / 2 {
                        110
                    } else {
                        130
                    };
                    self.pixels[(y0 + dy) * w + (x0 + dx)] = v;
                }
            }
            let ey = y0 + 1;
            for &ex in &[x0 + 1, x0 + FACE - 3] {
                self.pixels[ey * w + ex] = 20;
                self.pixels[ey * w + ex + 1] = 20;
                self.pixels[(ey + 1) * w + ex] = 25;
                self.pixels[(ey + 1) * w + ex + 1] = 25;
            }
        }

        fn plant_light(&mut self, cx: usize, cy: usize, r: usize, color: LightColor) {
            let (w, h) = (self.w, self.pixels.len() / self.w);
            for dy in 0..(4 * r) {
                for dx in 0..(2 * r + 2) {
                    let x = cx as isize - r as isize - 1 + dx as isize;
                    let y = cy as isize - r as isize - 1 + dy as isize;
                    if x >= 0 && (x as usize) < w && y >= 0 && (y as usize) < h {
                        self.pixels[y as usize * w + x as usize] = 40;
                    }
                }
            }
            let r = r as isize;
            for dy in -r..=r {
                for dx in -r..=r {
                    let (x, y) = (cx as isize + dx, cy as isize + dy);
                    if dx * dx + dy * dy <= r * r
                        && x >= 0
                        && (x as usize) < w
                        && y >= 0
                        && (y as usize) < h
                    {
                        let ix = y as usize * w + x as usize;
                        self.pixels[ix] = 250;
                        self.hue[ix] = color.hue();
                    }
                }
            }
        }
    }

    /// The frame's hue, dense and row-major, read through `hue_at`.
    fn hue_plane(f: &Frame) -> Vec<u8> {
        (0..f.h)
            .flat_map(|y| (0..f.w).map(move |x| (x, y)))
            .map(|(x, y)| f.hue_at(x, y))
            .collect()
    }

    /// `f` is the model's frame: the rendered plane, the hue through
    /// both accessors, the planted pixels known without a plane, and
    /// the ground truth.
    fn assert_matches_model(f: &Frame, d: &Dense) {
        let plane = f.render();
        assert_eq!(&plane[..], &d.pixels[..], "rendered plane");
        assert_eq!(hue_plane(f), d.hue, "hue_at");
        let colored: Vec<_> = f.colored().collect();
        let want: Vec<_> = (0..d.hue.len())
            .filter(|&i| d.hue[i] != 0)
            .map(|i| (i % f.w, i / f.w, d.hue[i]))
            .collect();
        assert_eq!(colored, want, "colored()");
        for y in 0..f.h {
            for x in 0..f.w {
                if let Some(v) = f.planted_px(x, y) {
                    assert_eq!(v, d.pixels[y * f.w + x], "planted ({x}, {y})");
                }
            }
        }
        assert_eq!(f.truth_faces, d.truth_faces);
        assert_eq!(f.faces.len(), d.truth_faces as usize);
        assert_eq!(f.truth_light, d.truth_light);
    }

    const COLORS: [LightColor; 3] = [LightColor::Red, LightColor::Yellow, LightColor::Green];

    proptest! {
        /// Any seed, any frame size that is a multiple of `2·FACE`, no
        /// noise or clamping noise, any face count and lamps anywhere
        /// up to and past the clamp limits: the seed frame renders the
        /// model's plane and reports the model's hue, and both leave
        /// the camera stream at the same place.
        #[test]
        fn prop_render_matches_the_dense_model(
            seed in any::<u64>(),
            size in (1usize..6, 1usize..5),
            levels in (0usize..5, 0usize..3),
            mean_faces in 0.0f64..40.0,
            kind in 0usize..3,
            at in (0usize..6, 0usize..6, 0usize..100, 0usize..100),
            color in 0usize..3,
        ) {
            let gen = FrameGen {
                w: size.0 * 2 * FACE,
                h: size.1 * 2 * FACE,
                mean_faces,
                background: [200, 3, 252, 0, 255][levels.0],
                noise: [10, 0, 255][levels.1],
                ..FrameGen::default()
            };
            let (mut a, mut b) = (SimRng::new(seed), SimRng::new(seed));
            let color = COLORS[color];
            // Either end of each clamp range, just inside it, the far
            // edge of the frame, or anywhere.
            let r = 4;
            let xs = [0, 2 * r, gen.w - 2 * r - 1, gen.w - 1, usize::MAX, at.2];
            let ys = [0, r + 2, gen.h / 2, gen.h - 1, usize::MAX, at.3];
            // A lamp needs a frame wider than 4r; a random one also
            // needs the upper half taller than 2r.
            let kind = if gen.w <= 4 * r {
                0
            } else if gen.h <= 4 * r {
                kind.min(1)
            } else {
                kind
            };
            let (f, d) = match kind {
                0 => (gen.faces_frame(&mut a, 0), Dense::faces_frame(&gen, &mut b)),
                1 => (
                    gen.light_frame_at(&mut a, 0, color, xs[at.0], ys[at.1]),
                    Dense::light_frame_at(&gen, &mut b, color, xs[at.0], ys[at.1]),
                ),
                _ => (
                    gen.light_frame(&mut a, 0, color),
                    Dense::light_frame(&gen, &mut b, color),
                ),
            };
            assert_matches_model(&f, &d);
            prop_assert_eq!(a.draw_count(), b.draw_count());
            prop_assert_eq!(a.range_u64(0, u64::MAX), b.range_u64(0, u64::MAX));
        }
    }

    #[test]
    fn rendering_twice_gives_the_same_bytes_and_leaves_the_camera_alone() {
        let gen = FrameGen::default();
        let mut rng = SimRng::new(37);
        let frames = [
            gen.faces_frame(&mut rng, 0),
            gen.light_frame(&mut rng, 1, LightColor::Red),
        ];
        let after = rng.clone();
        for f in &frames {
            let first = f.render();
            assert_eq!(first, f.render());
            assert_eq!(first, f.clone().render());
        }
        assert_eq!(rng.draw_count(), after.draw_count());
        assert_eq!(
            rng.range_u64(0, u64::MAX),
            after.clone().range_u64(0, u64::MAX)
        );
    }

    #[test]
    fn faces_frame_plants_requested_density() {
        let gen = FrameGen::default();
        let mut rng = SimRng::new(42);
        let total: u32 = (0..200)
            .map(|i| gen.faces_frame(&mut rng, i).truth_faces)
            .sum();
        let mean = total as f64 / 200.0;
        assert!((mean - 6.0).abs() < 0.6, "mean faces = {mean}");
    }

    #[test]
    fn faces_lie_inside_quadrants() {
        let gen = FrameGen::default();
        let cells = gen.face_cells();
        let (qw, qh) = (gen.w / 2, gen.h / 2);
        for (x, y) in cells {
            let quad_x = x / qw;
            let quad_y = y / qh;
            // The whole face block stays in the same quadrant.
            assert_eq!((x + FACE - 1) / qw, quad_x);
            assert_eq!((y + FACE - 1) / qh, quad_y);
        }
    }

    #[test]
    fn light_frame_has_colored_disc() {
        let gen = FrameGen {
            wire_bytes: 64 * 1024,
            ..FrameGen::default()
        };
        let mut rng = SimRng::new(7);
        let f = gen.light_frame(&mut rng, 0, LightColor::Green);
        let (color, x, y, _r) = f.truth_light.unwrap();
        assert_eq!(color, LightColor::Green);
        assert_eq!(f.hue_at(x, y), LightColor::Green.hue());
        assert_eq!(f.render()[y * f.w + x], 250);
        assert_eq!(f.planted_px(x, y), Some(250));
        assert_eq!(f.wire_bytes, 64 * 1024);
    }

    #[test]
    fn faces_frames_hold_no_color() {
        let gen = FrameGen::default();
        let mut rng = SimRng::new(19);
        for seq in 0..32 {
            let f = gen.faces_frame(&mut rng, seq);
            assert!(f.truth_light.is_none(), "frame {seq} holds a lamp");
            assert_eq!(f.colored().count(), 0);
        }
    }

    #[test]
    fn light_frame_hue_is_exactly_the_lamp_disc() {
        let gen = FrameGen::default();
        let mut rng = SimRng::new(23);
        // Positions at, inside and beyond the clamp limits.
        for (i, &(x, y)) in [(0, 0), (30, 12), (63, 47), (8, 6), (55, 24), (17, 3)]
            .iter()
            .enumerate()
        {
            let color = COLORS[i % 3];
            let f = gen.light_frame_at(&mut rng, i as u64, color, x, y);
            let ix: Vec<usize> = f.colored().map(|(x, y, _)| y * f.w + x).collect();
            assert!(ix.windows(2).all(|p| p[0] < p[1]), "indices not increasing");
            assert!(ix.iter().all(|&i| i < f.w * f.h));
            assert!(f.colored().all(|(_, _, hue)| hue == color.hue()));
            let (_, cx, cy, r) = f.truth_light.expect("light planted");
            assert_eq!(r, 4);
            let disc: Vec<usize> = (0..f.h)
                .flat_map(|y| (0..f.w).map(move |x| (x, y)))
                .filter(|&(x, y)| {
                    let (dx, dy) = (x as isize - cx as isize, y as isize - cy as isize);
                    dx * dx + dy * dy <= (r * r) as isize
                })
                .map(|(x, y)| y * f.w + x)
                .collect();
            assert_eq!(disc.len(), 49);
            assert_eq!(ix, disc);
        }
    }

    #[test]
    fn hue_at_matches_the_dense_plane() {
        let gen = FrameGen::default();
        let mut rng = SimRng::new(29);
        let mut model = SimRng::new(29);
        for seq in 0..8u64 {
            let (f, d) = if seq % 2 == 0 {
                (
                    gen.faces_frame(&mut rng, seq),
                    Dense::faces_frame(&gen, &mut model),
                )
            } else {
                (
                    gen.light_frame(&mut rng, seq, LightColor::Yellow),
                    Dense::light_frame(&gen, &mut model, LightColor::Yellow),
                )
            };
            for y in 0..f.h {
                for x in 0..f.w {
                    assert_eq!(f.hue_at(x, y), d.hue[y * f.w + x], "({x}, {y})");
                }
            }
            let colored: Vec<_> = f.colored().collect();
            let want: Vec<_> = (0..f.w * f.h)
                .filter(|&i| d.hue[i] != 0)
                .map(|i| (i % f.w, i / f.w, d.hue[i]))
                .collect();
            assert_eq!(colored, want);
        }
    }

    #[test]
    fn hue_codec_round_trips() {
        for c in COLORS {
            assert_eq!(LightColor::from_hue(c.hue()), Some(c));
        }
        assert_eq!(LightColor::from_hue(200), None);
    }

    #[test]
    fn determinism_per_seed() {
        let gen = FrameGen::default();
        let mut a = SimRng::new(3);
        let mut b = SimRng::new(3);
        let fa = gen.faces_frame(&mut a, 5);
        let fb = gen.faces_frame(&mut b, 5);
        assert_eq!(fa.render(), fb.render());
        assert_eq!(fa.truth_faces, fb.truth_faces);
    }

    /// FNV-1a over the first 64 bus-stop and 64 intersection frames of
    /// a fixed seed, plus where the stream stands afterwards: a faster
    /// generator must produce the same bytes from the same draws.
    #[test]
    fn frame_stream_is_pinned() {
        let gen = FrameGen::default();
        let mut rng = SimRng::new(2014);
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                fnv = (fnv ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for seq in 0..64 {
            let f = gen.faces_frame(&mut rng, seq);
            mix(&f.render());
            mix(&hue_plane(&f));
            mix(&f.truth_faces.to_le_bytes());
        }
        for seq in 0..64usize {
            let f = gen.light_frame_at(&mut rng, seq as u64, COLORS[seq % 3], seq, seq / 2);
            mix(&f.render());
            mix(&hue_plane(&f));
            let (_, x, y, r) = f.truth_light.expect("light planted");
            mix(&[x as u8, y as u8, r as u8]);
        }
        mix(&rng.draw_count().to_le_bytes());
        mix(&rng.range_u64(0, u64::MAX).to_le_bytes());
        assert_eq!(
            fnv, 0xaf76_40c9_fe52_eec5,
            "frame stream moved: {fnv:#018x}"
        );
    }
}
