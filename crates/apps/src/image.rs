//! Synthetic camera frames.
//!
//! Real deployments shipped VGA JPEG frames (~tens–hundreds of KB).
//! The simulation separates the two things a frame does:
//!
//! * **network/storage cost** — `wire_bytes` (e.g. 128 KB), which is
//!   what the WiFi medium, preservation logs and checkpoints charge;
//! * **computation** — a small real pixel grid (default 64×48
//!   grayscale + hue plane) that the Haar counter and the SignalGuru
//!   filters genuinely process, with planted ground truth to verify
//!   kernel accuracy.

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
    /// Hue plane (0 = colorless), row-major.
    pub hue: Vec<u8>,
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

    /// Hue at (x, y).
    pub fn hue_at(&self, x: usize, y: usize) -> u8 {
        self.hue[y * self.w + x]
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
        let n = rng.poisson(self.mean_faces).min(self.max_faces() as u64) as u32;
        let mut cells: Vec<(usize, usize)> = self.face_cells();
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

    fn blank(&self, rng: &mut SimRng, seq: u64) -> Frame {
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
            hue: vec![0; n],
            truth_faces: 0,
            truth_light: None,
        }
    }

    /// Grid cells where faces may be planted (each fully inside one
    /// quadrant, with a 1px margin).
    fn face_cells(&self) -> Vec<(usize, usize)> {
        let mut v = Vec::new();
        let (qw, qh) = (self.w / 2, self.h / 2);
        for qy in 0..2 {
            for qx in 0..2 {
                let (ox, oy) = (qx * qw, qy * qh);
                let cols = (qw - 2) / (FACE + 2);
                let rows = (qh - 2) / (FACE + 2);
                for r in 0..rows {
                    for c in 0..cols {
                        v.push((ox + 1 + c * (FACE + 2), oy + 1 + r * (FACE + 2)));
                    }
                }
            }
        }
        v
    }

    /// Maximum faces that fit on the planting grid.
    pub fn max_faces(&self) -> usize {
        self.face_cells().len()
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
    // Lamp disc.
    let rr = (r * r) as isize;
    for dy in -(r as isize)..=(r as isize) {
        for dx in -(r as isize)..=(r as isize) {
            if dx * dx + dy * dy <= rr {
                let x = cx as isize + dx;
                let y = cy as isize + dy;
                if x >= 0 && (x as usize) < f.w && y >= 0 && (y as usize) < f.h {
                    let ix = y as usize * f.w + x as usize;
                    f.pixels[ix] = 250;
                    f.hue[ix] = color.hue();
                }
            }
        }
    }
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
            mix(&f.hue);
            mix(&f.truth_faces.to_le_bytes());
        }
        let colors = [LightColor::Red, LightColor::Yellow, LightColor::Green];
        for seq in 0..64usize {
            let f = gen.light_frame_at(&mut rng, seq as u64, colors[seq % 3], seq, seq / 2);
            mix(&f.pixels);
            mix(&f.hue);
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
