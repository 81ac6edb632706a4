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

    /// This descriptor as it survives SIFT's byte format: each value
    /// replaced by `dequantize(quantize(v))`.
    pub fn quantized(&self) -> Descriptor {
        Descriptor {
            keypoint: self.keypoint,
            v: dequantize(&quantize(&self.v)),
        }
    }
}

/// Scale of SIFT's byte format: a value `v` is stored as `round(512·v)`
/// saturated to a byte, as OpenCV's `calcSIFTDescriptor` stores it.
const QUANT_SCALE: f32 = 512.0;

/// Quantise a descriptor vector to SIFT's byte format:
/// `min(255, round(512·v))`, ties to even. NaN, −∞ and anything that
/// rounds below 0 give 0; +∞ and anything that rounds above 255 give 255.
/// Branch-free, so it vectorises: the clamp leaves `[0, 255]` (`max`
/// drops a NaN), and adding 1.5·2²³ rounds to the nearest integer in
/// the float's low mantissa bits — IEEE round-to-nearest-even, the same
/// on every ISA.
pub fn quantize(v: &[f32; DESC_DIM]) -> [u8; DESC_DIM] {
    const ROUND: f32 = 12_582_912.0;
    let mut q = [0u8; DESC_DIM];
    for (q, &v) in q.iter_mut().zip(v) {
        // `max` first, on its own: it maps NaN to 0, where `clamp` would
        // keep the NaN.
        let floored = (QUANT_SCALE * v).max(0.0);
        *q = (floored.min(255.0) + ROUND).to_bits() as u8;
    }
    q
}

/// The values a quantised vector stands for: `q / 512`, exact in f32, so
/// `quantize(&dequantize(q)) == q` for every byte vector.
pub fn dequantize(q: &[u8; DESC_DIM]) -> [f32; DESC_DIM] {
    let mut v = [0f32; DESC_DIM];
    for (v, &q) in v.iter_mut().zip(q) {
        *v = f32::from(q) / QUANT_SCALE;
    }
    v
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

/// How close to an octant edge, in radians, [`octant_bin`] leaves the
/// call to the exact expression: 57× the two paths' combined error
/// (DESIGN.md §17, "Angle bins").
const EDGE_MARGIN: f32 = 1e-4;

/// The descriptor's bin of `gy.atan2(gx) − orientation`, read off the
/// gradient rotated into the keypoint's frame, `(u, v)`: the quadrant
/// from the signs of `u` and `v`, the half of it from `|u|` against `|v|`.
/// `None` within [`EDGE_MARGIN`] of an edge (zero, NaN and ∞ gradients
/// included), for gradients below 1e-30, and for an orientation outside
/// `[-π, π]`, where only the exact expression can tell.
#[inline]
fn octant_bin(gx: f32, gy: f32, orientation: f32, cos_t: f32, sin_t: f32) -> Option<usize> {
    let u = gx * cos_t + gy * sin_t;
    let v = gy * cos_t - gx * sin_t;
    let (au, av) = (u.abs(), v.abs());
    let sum = au + av;
    let edge_gap = au.min(av).min((au - av).abs());
    if !(orientation.abs() <= std::f32::consts::PI && sum > 1e-30 && edge_gap > EDGE_MARGIN * sum) {
        return None;
    }
    // Quadrants 1 and 3 (u < 0 < v, v < 0 < u) start on the v axis.
    let (below, odd_quadrant) = (v < 0.0, (u < 0.0) != (v < 0.0));
    Some(4 * below as usize + 2 * odd_quadrant as usize + ((av > au) != odd_quadrant) as usize)
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
            let obin = octant_bin(gx, gy, kp.orientation, cos_t, sin_t).unwrap_or_else(|| {
                let angle = rem_euclid_tau(gy.atan2(gx) - kp.orientation);
                ((angle / std::f32::consts::TAU) * 8.0) as usize % 8
            });
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
    use crate::keypoints::sweep::{gradient, service_camera_loop, ulps, RANDOM, SCALES};
    use crate::keypoints::{detect, DetectorParams};
    use crate::scene::SceneGenerator;
    use simcore::SimRng;
    use std::f32::consts::{FRAC_PI_2, PI, TAU};

    fn scene_descriptors(frame: u32) -> Vec<Descriptor> {
        let g = SceneGenerator::workplace_scaled(1, 320, 180);
        let img = g.frame(frame);
        let (pyr, kps) = detect(&img, &DetectorParams::default());
        describe_all(&pyr, &kps)
    }

    /// The branch-free quantiser is the saturating `round_ties_even` cast
    /// it stands for: at every tie and its neighbours, on special values,
    /// and on random bit patterns.
    #[test]
    fn quantize_is_the_saturating_rounded_cast() {
        let reference = |v: f32| (QUANT_SCALE * v).round_ties_even() as u8;
        let mut values = vec![
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-45,
            1.0,
            -1.0,
        ];
        for k in -4..=520 {
            let tie = (k as f32 + 0.5) / QUANT_SCALE;
            values.extend([
                tie,
                f32::from_bits(tie.to_bits() + 1),
                f32::from_bits(tie.to_bits() - 1),
            ]);
        }
        let mut rng = SimRng::new(5);
        values.extend((0..100_000).map(|_| f32::from_bits(rng.next_u64() as u32)));
        values.extend((0..100_000).map(|_| rng.uniform(-0.1, 0.6) as f32));
        for chunk in values.chunks(DESC_DIM) {
            let mut v = [0f32; DESC_DIM];
            v[..chunk.len()].copy_from_slice(chunk);
            let q = quantize(&v);
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(q[i], reference(x), "value {x:e} ({:#010x})", x.to_bits());
            }
        }
        assert_eq!(quantize(&[f32::NAN; DESC_DIM]), [0; DESC_DIM]);
        assert_eq!(quantize(&[f32::INFINITY; DESC_DIM]), [255; DESC_DIM]);
        assert_eq!(quantize(&[-3.0; DESC_DIM]), [0; DESC_DIM]);
        assert_eq!(quantize(&[0.75; DESC_DIM]), [255; DESC_DIM]);
    }

    #[test]
    fn dequantize_inverts_quantize_on_every_byte() {
        let q: [u8; DESC_DIM] = std::array::from_fn(|i| i as u8);
        let hi: [u8; DESC_DIM] = std::array::from_fn(|i| (i + 128) as u8);
        for q in [q, hi] {
            assert_eq!(quantize(&dequantize(&q)), q);
        }
        let d = scene_descriptors(0).swap_remove(0);
        let once = d.quantized();
        assert_eq!(once.quantized(), once, "quantising twice changes nothing");
        assert_eq!(once.keypoint, d.keypoint);
        for (a, b) in d.v.iter().zip(&once.v) {
            assert!((a - b).abs() <= 0.5 / QUANT_SCALE);
        }
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

    /// `describe`'s bin as `sift_golden`'s oracle writes it.
    fn exact_bin(gx: f32, gy: f32, orientation: f32) -> usize {
        let angle = (gy.atan2(gx) - orientation).rem_euclid(TAU);
        ((angle / TAU) * 8.0) as usize % 8
    }

    /// Asserts that a bin [`octant_bin`] decides is the exact one; returns
    /// whether it deferred to the exact expression instead.
    fn defers(gx: f32, gy: f32, orientation: f32) -> bool {
        let (cos_t, sin_t) = (orientation.cos(), orientation.sin());
        match octant_bin(gx, gy, orientation, cos_t, sin_t) {
            Some(bin) => {
                let want = exact_bin(gx, gy, orientation);
                assert_eq!(
                    bin, want,
                    "gradient ({gx:e}, {gy:e}), orientation {orientation:e}"
                );
                false
            }
            None => true,
        }
    }

    /// Orientations at and just past the ends of `[-π, π]`, and far outside.
    fn special_orientations() -> [f32; 12] {
        [
            PI,
            -PI,
            ulps(PI, -1),
            ulps(-PI, 1),
            ulps(PI, 1),
            ulps(-PI, -1),
            0.0,
            -0.0,
            -4.0,
            TAU,
            1e9,
            f32::NAN,
        ]
    }

    #[test]
    fn octant_bins_equal_the_exact_bins_on_random_triples() {
        let mut rng = SimRng::new(0x0C7A_2F02);
        let specials = special_orientations();
        let (mut polar, mut deferred) = (0usize, 0usize);
        for i in 0..RANDOM {
            let (gx, gy) = gradient(&mut rng, i % 2 == 1);
            let orientation = if i % 16 == 0 {
                specials[rng.index(specials.len())]
            } else {
                rng.uniform(-std::f64::consts::PI, std::f64::consts::PI) as f32
            };
            let d = defers(gx, gy, orientation);
            if i % 2 == 1 && i % 16 != 0 {
                polar += 1;
                deferred += d as usize;
            }
        }
        // 16 · 1e-4 rad of every τ lies inside the margin.
        assert!(deferred * 1000 < polar, "{deferred} of {polar} deferred");
    }

    #[test]
    fn octant_bins_equal_the_exact_bins_around_every_edge() {
        use std::f64::consts::FRAC_PI_4;
        let orientations = [0.0, -0.0, PI, -PI, 1.0, -2.5, FRAC_PI_2, -FRAC_PI_2, 0.785];
        for orientation in orientations {
            for edge in 0..8 {
                let theta = orientation as f64 + edge as f64 * FRAC_PI_4;
                // ±4 ulp around the edge itself, then at offsets (in rad)
                // just outside the margin, where `octant_bin` decides, and
                // mid-bin.
                for offset in [0.0, 1.05e-4, -1.05e-4, 1.5e-4, -1.5e-4, 0.39, -0.39] {
                    let at = theta + offset;
                    let (c, s) = (at.cos() as f32, at.sin() as f32);
                    for scale in SCALES {
                        for (i, j) in (-4..=4).flat_map(|i| (-4..=4).map(move |j| (i, j))) {
                            let (gx, gy) = (ulps(c, i) * scale, ulps(s, j) * scale);
                            let deferred = defers(gx, gy, orientation);
                            if (1e-20..1e30).contains(&scale) {
                                let must_defer = offset == 0.0;
                                let must_decide = f64::abs(offset) >= 1.5e-4;
                                assert!(
                                    !(must_defer && !deferred || must_decide && deferred),
                                    "orientation {orientation} edge {edge} offset {offset}: \
                                     ({gx:e}, {gy:e})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn octant_bins_equal_the_exact_bins_on_special_values() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -3.5,
            1e-40,
            -1e-45,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for orientation in special_orientations() {
            let in_range = orientation.abs() <= PI;
            for &gx in &values {
                // `gx = ±gy` and every pair of special components.
                for gy in values.iter().copied().chain([gx, -gx]) {
                    let deferred = defers(gx, gy, orientation);
                    let finite = gx.is_finite() && gy.is_finite();
                    if !in_range || !finite || (gx == 0.0 && gy == 0.0) {
                        assert!(deferred, "({gx:e}, {gy:e}), orientation {orientation:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn octant_bin_rarely_defers_on_the_camera_loop() {
        let (mut samples, mut deferred) = (0usize, 0usize);
        for (pyr, kps) in service_camera_loop() {
            for kp in &kps {
                // The sample walk of `describe_weighted`.
                let oct = &pyr.octaves[kp.octave];
                let img = &oct.levels[kp.level];
                let (kx, ky) = (kp.x / oct.downscale as f32, kp.y / oct.downscale as f32);
                let (cos_t, sin_t) = (kp.orientation.cos(), kp.orientation.sin());
                let step = grid_step(kp, oct.downscale);
                let (x_end, y_end) = ((img.width() - 2) as f32, (img.height() - 2) as f32);
                for (sx, sy) in (0..16).flat_map(|sy| (0..16).map(move |sx| (sx, sy))) {
                    let (px, py) = (patch_offset(sx, step), patch_offset(sy, step));
                    let rx = cos_t * px - sin_t * py + kx;
                    let ry = sin_t * px + cos_t * py + ky;
                    if rx < 1.0 || ry < 1.0 || rx >= x_end || ry >= y_end {
                        continue;
                    }
                    let (gx, gy) = img.gradient(rx as usize, ry as usize);
                    if (gx * gx + gy * gy).sqrt() == 0.0 {
                        continue;
                    }
                    samples += 1;
                    deferred += defers(gx, gy, kp.orientation) as usize;
                }
            }
        }
        assert!(samples > 200_000, "only {samples} samples");
        assert!(
            deferred * 100 <= samples,
            "{deferred} of {samples} descriptor samples took the exact path"
        );
    }
}
