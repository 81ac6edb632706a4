//! 128-dimensional gradient-histogram descriptors — the extraction half
//! of the `sift` service.
//!
//! Layout follows Lowe: a 4×4 spatial grid of 8-bin orientation
//! histograms sampled from a rotated, scale-normalized patch around the
//! keypoint, trilinearly-ish accumulated, clipped at 0.2 and re-normalized
//! for illumination robustness.

use crate::image::GrayImage;
use crate::keypoints::Keypoint;
use crate::pyramid::Pyramid;

/// Descriptor dimensionality: 4 × 4 spatial cells × 8 orientation bins.
pub const DESC_DIM: usize = 128;

/// A unit-norm 128-d feature descriptor plus its keypoint geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Descriptor {
    pub keypoint: Keypoint,
    pub v: [f32; DESC_DIM],
}

impl Descriptor {
    /// Squared Euclidean distance between descriptor vectors.
    pub fn dist2(&self, other: &Descriptor) -> f32 {
        self.v
            .iter()
            .zip(&other.v)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Euclidean norm (≈1 after normalization; exactly 0 for an empty
    /// gradient patch).
    pub fn norm(&self) -> f32 {
        self.v.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// Sample-grid spacing for a keypoint, in its octave's pixels.
fn grid_step(kp: &Keypoint, downscale: u32) -> f32 {
    0.75 * (kp.scale / downscale as f32).max(1.0)
}

/// Patch offset of sample `i ∈ 0..16` along either axis.
fn patch_offset(i: usize, step: f32) -> f32 {
    (i as f32 - 7.5) * step
}

/// The Gaussian weight of each of the 16×16 patch samples (row-major,
/// `sy * 16 + sx`). It depends on the keypoint only through `step`.
fn patch_weights(step: f32) -> [f32; 256] {
    std::array::from_fn(|i| {
        let px = patch_offset(i % 16, step);
        let py = patch_offset(i / 16, step);
        (-((px * px + py * py) / (2.0 * (8.0 * step) * (8.0 * step)))).exp()
    })
}

/// `a.rem_euclid(TAU)` without the `fmodf` call. For `|a| < 2τ` — always
/// the case for `atan2 − orientation` with both in `[-π, π]` — `a % τ` is
/// `a` itself or one exact subtraction (Sterbenz: `τ ≤ |a| ≤ 2τ`), with
/// the sign of `a`; anything larger takes the real remainder. The second
/// step is `rem_euclid`'s own fix-up, which may round `r + τ` up to `τ`.
fn rem_euclid_tau(a: f32) -> f32 {
    use std::f32::consts::TAU;
    let r = if a.abs() < TAU {
        a
    } else if a.abs() < 2.0 * TAU {
        (a.abs() - TAU).copysign(a)
    } else {
        a % TAU
    };
    if r < 0.0 {
        r + TAU
    } else {
        r
    }
}

/// Extract the descriptor for one keypoint from the blur level it was
/// detected at.
pub fn describe(img: &GrayImage, kp: &Keypoint, downscale: u32) -> Descriptor {
    describe_weighted(img, kp, downscale, &patch_weights(grid_step(kp, downscale)))
}

/// [`describe`] with the patch weights for this keypoint's `step` given.
fn describe_weighted(
    img: &GrayImage,
    kp: &Keypoint,
    downscale: u32,
    weights: &[f32; 256],
) -> Descriptor {
    // Keypoint coordinates in this octave's pixel grid.
    let kx = kp.x / downscale as f32;
    let ky = kp.y / downscale as f32;
    let cos_t = kp.orientation.cos();
    let sin_t = kp.orientation.sin();

    // 16×16 sample grid over a 4×4 cell layout; spacing tied to scale.
    let step = grid_step(kp, downscale);
    let (x_end, y_end) = ((img.width() - 2) as f32, (img.height() - 2) as f32);
    let mut hist = [0f32; DESC_DIM];
    for sy in 0..16 {
        for sx in 0..16 {
            // Patch coordinates centred on the keypoint, rotated by the
            // keypoint orientation for rotation invariance.
            let px = patch_offset(sx, step);
            let py = patch_offset(sy, step);
            let rx = cos_t * px - sin_t * py + kx;
            let ry = sin_t * px + cos_t * py + ky;
            if rx < 1.0 || ry < 1.0 || rx >= x_end || ry >= y_end {
                continue;
            }
            let (gx, gy) = img.gradient(rx as usize, ry as usize);
            let mag = (gx * gx + gy * gy).sqrt();
            if mag == 0.0 {
                continue;
            }
            // Gradient angle relative to keypoint orientation.
            let angle = rem_euclid_tau(gy.atan2(gx) - kp.orientation);
            let obin = ((angle / std::f32::consts::TAU) * 8.0) as usize % 8;
            let cell_x = sx / 4;
            let cell_y = sy / 4;
            // Gaussian weight over the patch.
            hist[(cell_y * 4 + cell_x) * 8 + obin] += mag * weights[sy * 16 + sx];
        }
    }

    // Normalize → clip at 0.2 → renormalize (Lowe's illumination clamp).
    normalize(&mut hist);
    for v in &mut hist {
        *v = v.min(0.2);
    }
    normalize(&mut hist);

    Descriptor {
        keypoint: *kp,
        v: hist,
    }
}

fn normalize(v: &mut [f32; DESC_DIM]) {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Extract descriptors for all keypoints detected on `pyr`.
pub fn describe_all(pyr: &Pyramid, kps: &[Keypoint]) -> Vec<Descriptor> {
    // A pyramid's keypoints share a handful of `step`s (one per detection
    // level: the octave's downscale cancels), so the weight tables are
    // memoised per call, keyed by the exact bits of `step`.
    let mut tables: Vec<(u32, [f32; 256])> = Vec::new();
    kps.iter()
        .map(|kp| {
            let oct = &pyr.octaves[kp.octave];
            let step = grid_step(kp, oct.downscale);
            let at = tables
                .iter()
                .position(|(bits, _)| *bits == step.to_bits())
                .unwrap_or_else(|| {
                    tables.push((step.to_bits(), patch_weights(step)));
                    tables.len() - 1
                });
            describe_weighted(&oct.levels[kp.level], kp, oct.downscale, &tables[at].1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keypoints::{detect, DetectorParams};
    use crate::scene::SceneGenerator;

    fn scene_descriptors(frame: u32) -> Vec<Descriptor> {
        let g = SceneGenerator::workplace_scaled(1, 320, 180);
        let img = g.frame(frame);
        let (pyr, kps) = detect(&img, &DetectorParams::default());
        describe_all(&pyr, &kps)
    }

    #[test]
    fn descriptors_are_unit_norm() {
        let descs = scene_descriptors(0);
        assert!(!descs.is_empty());
        for d in &descs {
            let n = d.norm();
            assert!((n - 1.0).abs() < 1e-3, "norm {n}");
        }
    }

    #[test]
    fn values_clipped_after_renorm() {
        for d in scene_descriptors(0) {
            for &x in &d.v {
                assert!(x >= 0.0);
                // 0.2 clip happens pre-renormalization; post-renorm values
                // can exceed 0.2 slightly but stay well below 0.5.
                assert!(x < 0.5, "descriptor entry {x} suspiciously large");
            }
        }
    }

    #[test]
    fn self_distance_zero_cross_distance_positive() {
        let descs = scene_descriptors(0);
        let a = &descs[0];
        assert_eq!(a.dist2(a), 0.0);
        let far = descs
            .iter()
            .skip(1)
            .map(|d| a.dist2(d))
            .fold(0.0f32, f32::max);
        assert!(far > 0.0);
    }

    #[test]
    fn same_scene_point_matches_across_small_motion() {
        // The same physical texture observed in consecutive frames should
        // produce at least some close descriptor pairs (this is what lets
        // `matching` track objects).
        let d0 = scene_descriptors(0);
        let d1 = scene_descriptors(1);
        let close = d0
            .iter()
            .filter(|a| d1.iter().any(|b| a.dist2(b) < 0.15))
            .count();
        assert!(
            close * 3 >= d0.len(),
            "only {close}/{} descriptors found a near match across frames",
            d0.len()
        );
    }

    #[test]
    fn deterministic_extraction() {
        assert_eq!(scene_descriptors(2), scene_descriptors(2));
    }
}
