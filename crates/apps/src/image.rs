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
//!   accuracy. Hue is sparse: a frame stores only its colored pixels
//!   (the lamp disc of an intersection frame), so a bus-stop frame
//!   carries its grayscale plane and nothing else.

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

/// A synthetic frame.
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
    /// Grayscale plane, row-major, `w*h` bytes.
    pub pixels: Vec<u8>,
    /// The colored pixels; every other pixel has hue 0 (colorless).
    hue: SparseHue,
    /// Ground truth: faces planted.
    pub truth_faces: u32,
    /// Ground truth: traffic light planted (with disc center x,y,r).
    pub truth_light: Option<(LightColor, usize, usize, usize)>,
}

impl Frame {
    /// Grayscale pixel at (x, y).
    pub fn px(&self, x: usize, y: usize) -> u8 {
        self.pixels[y * self.w + x]
    }

    /// Hue at (x, y) (0 = colorless).
    pub fn hue_at(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.w && y < self.h, "({x}, {y}) is outside the frame");
        self.hue.get(y * self.w + x)
    }

    /// The colored pixels as `(x, y, hue)`, in row-major order.
    pub(crate) fn colored(&self) -> impl Iterator<Item = (usize, usize, u8)> + '_ {
        let w = self.w;
        self.hue
            .0
            .iter()
            .map(move |&(ix, hue)| (ix as usize % w, ix as usize / w, hue))
    }

    /// The hue plane, dense and row-major.
    #[cfg(test)]
    pub(crate) fn dense_hue(&self) -> Vec<u8> {
        let mut plane = vec![0; self.w * self.h];
        for &(ix, hue) in &self.hue.0 {
            plane[ix as usize] = hue;
        }
        plane
    }

    /// Replace the hue with a dense row-major plane of `w*h` bytes.
    #[cfg(test)]
    pub(crate) fn set_dense_hue(&mut self, plane: &[u8]) {
        assert_eq!(plane.len(), self.w * self.h);
        self.hue = SparseHue(
            (0u32..)
                .zip(plane)
                .filter(|&(_, &hue)| hue != 0)
                .map(|(ix, &hue)| (ix, hue))
                .collect(),
        );
    }
}

/// A sparse hue plane: `(row-major index, hue)` of every colored pixel,
/// in strictly increasing index order.
#[derive(Debug, Clone, Default)]
struct SparseHue(Box<[(u32, u8)]>);

impl SparseHue {
    fn get(&self, ix: usize) -> u8 {
        self.0
            .binary_search_by_key(&ix, |&(i, _)| i as usize)
            .map_or(0, |at| self.0[at].1)
    }
}

/// Face block edge length in proxy pixels (faces are planted on a
/// grid so each face lies entirely inside one quadrant).
pub const FACE: usize = 8;

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
        for &(cx, cy) in cells.iter().take(n as usize) {
            plant_face(&mut f, cx, cy);
        }
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
        plant_light(&mut f, x, y, r, color);
        f.truth_light = Some((color, x, y, r));
        f
    }

    /// Background plus noise, nothing planted.
    pub(crate) fn blank(&self, rng: &mut SimRng, seq: u64) -> Frame {
        let n = self.w * self.h;
        let mut pixels = vec![self.background; n];
        if self.noise > 0 {
            // Background plus uniform noise in `[-noise, noise]`, one
            // draw per pixel in row-major order.
            let floor = self.background as i16 - self.noise as i16;
            rng.fill_range_u64(0, 2 * self.noise as u64 + 1, &mut pixels, |d| {
                (floor + d as i16).clamp(0, 255) as u8
            });
        }
        Frame {
            seq,
            wire_bytes: self.wire_bytes,
            w: self.w,
            h: self.h,
            pixels,
            hue: SparseHue::default(),
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

/// Draw a synthetic "face": a mid-gray block with two dark eye dots in
/// the upper third and a lighter mouth band — exactly the contrast
/// structure the Haar-like features in [`crate::haar`] test for.
fn plant_face(f: &mut Frame, x0: usize, y0: usize) {
    for dy in 0..FACE {
        for dx in 0..FACE {
            let v = if dy < FACE / 3 {
                90 // brow region
            } else if dy < FACE / 2 {
                110
            } else {
                130 // mouth region is lighter
            };
            f.pixels[(y0 + dy) * f.w + (x0 + dx)] = v;
        }
    }
    // Eyes: two dark dots in the brow region.
    let ey = y0 + 1;
    for &ex in &[x0 + 1, x0 + FACE - 3] {
        f.pixels[ey * f.w + ex] = 20;
        f.pixels[ey * f.w + ex + 1] = 20;
        f.pixels[(ey + 1) * f.w + ex] = 25;
        f.pixels[(ey + 1) * f.w + ex + 1] = 25;
    }
}

/// Draw a bright colored disc (the lit lamp) plus a dark housing box.
fn plant_light(f: &mut Frame, cx: usize, cy: usize, r: usize, color: LightColor) {
    // Housing: dark rectangle around the lamp column.
    for dy in 0..(4 * r) {
        for dx in 0..(2 * r + 2) {
            let x = cx as isize - r as isize - 1 + dx as isize;
            let y = cy as isize - r as isize - 1 + dy as isize;
            if x >= 0 && (x as usize) < f.w && y >= 0 && (y as usize) < f.h {
                f.pixels[y as usize * f.w + x as usize] = 40;
            }
        }
    }
    // Lamp disc: its in-frame pixels in row-major order, so the sparse
    // hue is built sorted, and counted first, so it is allocated once.
    let (w, h) = (f.w, f.h);
    assert!(
        w * h <= u32::MAX as usize,
        "frame too large for its hue index"
    );
    let r = r as isize;
    let disc = (-r..=r)
        .flat_map(|dy| (-r..=r).map(move |dx| (dx, dy)))
        .filter(|&(dx, dy)| dx * dx + dy * dy <= r * r)
        .map(|(dx, dy)| (cx as isize + dx, cy as isize + dy))
        .filter(|&(x, y)| x >= 0 && (x as usize) < w && y >= 0 && (y as usize) < h)
        .map(|(x, y)| y as usize * w + x as usize);
    let mut hue = Vec::with_capacity(disc.clone().count());
    for ix in disc {
        f.pixels[ix] = 250;
        hue.push((ix as u32, color.hue()));
    }
    f.hue = SparseHue(hue.into_boxed_slice());
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(f.px(x, y), 250);
        assert_eq!(f.wire_bytes, 64 * 1024);
    }

    #[test]
    fn faces_frames_hold_no_color() {
        let gen = FrameGen::default();
        let mut rng = SimRng::new(19);
        for seq in 0..32 {
            let f = gen.faces_frame(&mut rng, seq);
            assert!(f.hue.0.is_empty(), "frame {seq} holds a hue entry");
            assert_eq!(f.colored().count(), 0);
        }
    }

    #[test]
    fn light_frame_hue_is_exactly_the_lamp_disc() {
        let gen = FrameGen::default();
        let mut rng = SimRng::new(23);
        let colors = [LightColor::Red, LightColor::Yellow, LightColor::Green];
        // Positions at, inside and beyond the clamp limits.
        for (i, &(x, y)) in [(0, 0), (30, 12), (63, 47), (8, 6), (55, 24), (17, 3)]
            .iter()
            .enumerate()
        {
            let color = colors[i % 3];
            let f = gen.light_frame_at(&mut rng, i as u64, color, x, y);
            let ix: Vec<u32> = f.hue.0.iter().map(|&(ix, _)| ix).collect();
            assert!(ix.windows(2).all(|p| p[0] < p[1]), "indices not increasing");
            assert!(ix.iter().all(|&i| (i as usize) < f.w * f.h));
            assert!(f.hue.0.iter().all(|&(_, hue)| hue == color.hue()));
            let (_, cx, cy, r) = f.truth_light.expect("light planted");
            assert_eq!(r, 4);
            let disc: Vec<u32> = (0..f.h)
                .flat_map(|y| (0..f.w).map(move |x| (x, y)))
                .filter(|&(x, y)| {
                    let (dx, dy) = (x as isize - cx as isize, y as isize - cy as isize);
                    dx * dx + dy * dy <= (r * r) as isize
                })
                .map(|(x, y)| (y * f.w + x) as u32)
                .collect();
            assert_eq!(disc.len(), 49);
            assert_eq!(ix, disc);
        }
    }

    #[test]
    fn hue_at_matches_the_dense_plane() {
        let gen = FrameGen::default();
        let mut rng = SimRng::new(29);
        for seq in 0..8u64 {
            let f = if seq % 2 == 0 {
                gen.faces_frame(&mut rng, seq)
            } else {
                gen.light_frame(&mut rng, seq, LightColor::Yellow)
            };
            let dense = f.dense_hue();
            for y in 0..f.h {
                for x in 0..f.w {
                    assert_eq!(f.hue_at(x, y), dense[y * f.w + x], "({x}, {y})");
                }
            }
            let colored: Vec<_> = f.colored().collect();
            let want: Vec<_> = (0..f.w * f.h)
                .filter(|&i| dense[i] != 0)
                .map(|i| (i % f.w, i / f.w, dense[i]))
                .collect();
            assert_eq!(colored, want);
        }
    }

    #[test]
    fn dense_hue_round_trips() {
        let gen = FrameGen::default();
        let mut f = gen.faces_frame(&mut SimRng::new(31), 0);
        let plane: Vec<u8> = (0..f.w * f.h).map(|i| (i * 7 % 5 * 40) as u8).collect();
        f.set_dense_hue(&plane);
        assert_eq!(f.dense_hue(), plane);
        assert_eq!(
            f.colored().count(),
            plane.iter().filter(|&&h| h != 0).count()
        );
    }

    #[test]
    fn hue_codec_round_trips() {
        for c in [LightColor::Red, LightColor::Yellow, LightColor::Green] {
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
        assert_eq!(fa.pixels, fb.pixels);
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
            mix(&f.pixels);
            mix(&f.dense_hue());
            mix(&f.truth_faces.to_le_bytes());
        }
        let colors = [LightColor::Red, LightColor::Yellow, LightColor::Green];
        for seq in 0..64usize {
            let f = gen.light_frame_at(&mut rng, seq as u64, colors[seq % 3], seq, seq / 2);
            mix(&f.pixels);
            mix(&f.dense_hue());
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
