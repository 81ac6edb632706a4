//! Deterministic synthetic "workplace" video.
//!
//! The paper replays a pre-recorded 10 s, 30 FPS, 720p smartphone clip of
//! a workplace with a monitor, keyboard, and table. We cannot ship that
//! clip, so this module renders an equivalent: three textured rectangular
//! objects on a noisy background, observed by a camera that drifts
//! smoothly (sinusoidal pan + slight zoom). Texture gives the feature
//! detector corner-rich content; deterministic generation gives every
//! experiment identical input — the property the paper gets from replay.

use simcore::SimRng;

use crate::image::GrayImage;

/// Frame geometry of the paper's input video.
pub const VIDEO_WIDTH: usize = 1280;
pub const VIDEO_HEIGHT: usize = 720;
pub const VIDEO_FPS: u32 = 30;
pub const VIDEO_SECONDS: u32 = 10;
/// Total frames in one replay loop.
pub const VIDEO_FRAMES: u32 = VIDEO_FPS * VIDEO_SECONDS;

/// An axis-aligned textured object in the scene, in world coordinates.
#[derive(Debug, Clone)]
pub struct SceneObject {
    pub name: &'static str,
    pub x: f32,
    pub y: f32,
    pub w: f32,
    pub h: f32,
    /// Texture frequency: higher → finer detail → more keypoints.
    pub freq: f32,
    /// Base intensity of the object's surface.
    pub base: f32,
}

impl SceneObject {
    /// Procedural texture: a sum of phase-shifted sinusoids plus a hash
    /// noise term. Purely positional, so the texture is rigidly attached
    /// to the object as the camera moves — which is what lets descriptor
    /// matching track it across frames.
    fn texture(&self, u: f32, v: f32) -> f32 {
        let s1 = (u * self.freq).sin() * (v * self.freq * 0.83).cos();
        let s2 = ((u + v) * self.freq * 0.41).sin();
        // Integer-lattice hash noise for corner-like micro structure.
        let xi = (u * self.freq * 2.0) as i64;
        let yi = (v * self.freq * 2.0) as i64;
        let h = xi
            .wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64)
            .wrapping_add(yi.wrapping_mul(0xC2B2_AE3D_27D4_EB4Fu64 as i64));
        let noise = ((h >> 33) & 0xFF) as f32 / 255.0 - 0.5;
        (self.base + 0.22 * s1 + 0.14 * s2 + 0.18 * noise).clamp(0.0, 1.0)
    }
}

/// The default workplace: monitor, keyboard, and table.
pub fn workplace_objects() -> Vec<SceneObject> {
    vec![
        SceneObject {
            name: "table",
            x: 120.0,
            y: 420.0,
            w: 1040.0,
            h: 260.0,
            freq: 0.05,
            base: 0.30,
        },
        SceneObject {
            name: "monitor",
            x: 420.0,
            y: 90.0,
            w: 430.0,
            h: 270.0,
            freq: 0.145,
            base: 0.62,
        },
        SceneObject {
            name: "keyboard",
            x: 460.0,
            y: 470.0,
            w: 360.0,
            h: 130.0,
            freq: 0.235,
            base: 0.42,
        },
    ]
}

/// Camera state for a given frame: translation + zoom about the centre.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraPose {
    pub tx: f32,
    pub ty: f32,
    pub zoom: f32,
}

/// Deterministic handheld-camera drift for frame `idx` (loops every
/// [`VIDEO_FRAMES`]).
pub fn camera_pose(idx: u32) -> CameraPose {
    let t = (idx % VIDEO_FRAMES) as f32 / VIDEO_FPS as f32;
    CameraPose {
        tx: 24.0 * (t * 0.9).sin(),
        ty: 14.0 * (t * 1.3 + 0.7).sin(),
        zoom: 1.0 + 0.04 * (t * 0.5).sin(),
    }
}

/// Renders replayable synthetic video frames.
#[derive(Debug, Clone)]
pub struct SceneGenerator {
    objects: Vec<SceneObject>,
    width: usize,
    height: usize,
    /// Per-generator background noise seed (fixed per client so replays
    /// are identical, different across clients like distinct cameras).
    noise_seed: u64,
}

impl SceneGenerator {
    pub fn workplace(seed: u64) -> Self {
        SceneGenerator {
            objects: workplace_objects(),
            width: VIDEO_WIDTH,
            height: VIDEO_HEIGHT,
            noise_seed: seed,
        }
    }

    /// Smaller frames for fast tests.
    pub fn workplace_scaled(seed: u64, width: usize, height: usize) -> Self {
        let sx = width as f32 / VIDEO_WIDTH as f32;
        let sy = height as f32 / VIDEO_HEIGHT as f32;
        let objects = workplace_objects()
            .into_iter()
            .map(|mut o| {
                o.x *= sx;
                o.w *= sx;
                o.y *= sy;
                o.h *= sy;
                // Keep texture frequency in *pixel* units comparable.
                o.freq /= sx.min(sy);
                o
            })
            .collect();
        SceneGenerator {
            objects,
            width,
            height,
            noise_seed: seed,
        }
    }

    pub fn objects(&self) -> &[SceneObject] {
        &self.objects
    }

    /// Render frame `idx` of the loop.
    pub fn frame(&self, idx: u32) -> GrayImage {
        self.frame_with_pose(camera_pose(idx))
    }

    /// The identity camera: the canonical reference view used to train
    /// the recognition database.
    pub fn reference_frame(&self) -> GrayImage {
        self.frame_with_pose(CameraPose {
            tx: 0.0,
            ty: 0.0,
            zoom: 1.0,
        })
    }

    /// Render the scene under an explicit camera pose.
    pub fn frame_with_pose(&self, pose: CameraPose) -> GrayImage {
        let cx = self.width as f32 / 2.0;
        let cy = self.height as f32 / 2.0;
        let mut img = GrayImage::new(self.width, self.height);
        let mut bg_rng = SimRng::new(self.noise_seed);
        for y in 0..self.height {
            for x in 0..self.width {
                // Screen → world: undo zoom about centre, then translation.
                let wx = (x as f32 - cx) / pose.zoom + cx + pose.tx;
                let wy = (y as f32 - cy) / pose.zoom + cy + pose.ty;
                // Later objects render on top (keyboard over table).
                let mut val = 0.12 + 0.04 * bg_rng.next_f64() as f32;
                for obj in &self.objects {
                    if wx >= obj.x && wx < obj.x + obj.w && wy >= obj.y && wy < obj.y + obj.h {
                        val = obj.texture(wx, wy);
                    }
                }
                img.set(x, y, val);
            }
        }
        img
    }

    /// Serialized size in bytes of a raw grayscale frame at the paper's
    /// pre-processed resolution — used by the transport model.
    pub fn frame_bytes(&self) -> usize {
        self.width * self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_constants_match_paper() {
        assert_eq!(VIDEO_WIDTH, 1280);
        assert_eq!(VIDEO_HEIGHT, 720);
        assert_eq!(VIDEO_FPS, 30);
        assert_eq!(VIDEO_FRAMES, 300);
    }

    #[test]
    fn frames_are_deterministic() {
        let g1 = SceneGenerator::workplace_scaled(5, 64, 36);
        let g2 = SceneGenerator::workplace_scaled(5, 64, 36);
        assert_eq!(g1.frame(17), g2.frame(17));
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = SceneGenerator::workplace_scaled(5, 64, 36);
        let g2 = SceneGenerator::workplace_scaled(6, 64, 36);
        assert_ne!(g1.frame(0), g2.frame(0));
    }

    #[test]
    fn video_loops() {
        let g = SceneGenerator::workplace_scaled(1, 64, 36);
        assert_eq!(g.frame(3), g.frame(3 + VIDEO_FRAMES));
    }

    /// Bit-for-bit periodicity: what lets a client replay one recorded
    /// loop of encoded frames instead of rendering each frame.
    #[test]
    fn frames_repeat_bit_for_bit_every_loop() {
        let g = SceneGenerator::workplace_scaled(7, 64, 36);
        let bits = |i: u32| -> Vec<u32> { g.frame(i).data().iter().map(|v| v.to_bits()).collect() };
        for i in [0, 299, 300, 599, 12_345] {
            assert_eq!(bits(i), bits(i % VIDEO_FRAMES), "frame {i}");
        }
    }

    #[test]
    fn camera_moves_between_frames() {
        let a = camera_pose(0);
        let b = camera_pose(15);
        assert!(a != b, "camera should drift");
        let g = SceneGenerator::workplace_scaled(1, 64, 36);
        assert_ne!(g.frame(0), g.frame(15));
    }

    #[test]
    fn objects_brighter_than_background() {
        let g = SceneGenerator::workplace_scaled(1, 128, 72);
        let f = g.frame(0);
        // Monitor centre (world ≈ (635,225) scaled to 128x72 ≈ (63,22)).
        let on_monitor = f.get(63, 22);
        let corner = f.get(2, 2);
        assert!(on_monitor > corner, "monitor {on_monitor} vs bg {corner}");
    }

    #[test]
    fn workplace_has_three_objects() {
        let names: Vec<_> = workplace_objects().iter().map(|o| o.name).collect();
        assert_eq!(names, vec!["table", "monitor", "keyboard"]);
    }
}
