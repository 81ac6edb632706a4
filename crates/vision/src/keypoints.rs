//! DoG extrema detection with edge rejection and orientation assignment —
//! the detection half of the `sift` service.

use crate::image::GrayImage;
use crate::pyramid::Pyramid;

/// A detected scale-space keypoint, in input-image coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Keypoint {
    pub x: f32,
    pub y: f32,
    /// Characteristic scale (sigma in input-image pixels).
    pub scale: f32,
    /// Dominant gradient orientation in radians, `[-π, π]`.
    pub orientation: f32,
    /// |DoG| response; larger = stronger.
    pub response: f32,
    /// Octave and level the keypoint was found in (for descriptor
    /// extraction at the right blur level).
    pub octave: usize,
    pub level: usize,
}

/// Detection thresholds. The defaults are scaled-down Lowe constants that
/// work on the synthetic scene's contrast range.
#[derive(Debug, Clone, Copy)]
pub struct DetectorParams {
    /// Minimum |DoG| response to consider.
    pub contrast_threshold: f32,
    /// Maximum principal-curvature ratio (Lowe's r = 10).
    pub edge_ratio: f32,
    /// Hard cap on keypoints per frame (strongest kept); the real
    /// pipeline also caps features to bound downstream load.
    pub max_keypoints: usize,
}

impl Default for DetectorParams {
    fn default() -> Self {
        DetectorParams {
            contrast_threshold: 0.015,
            edge_ratio: 10.0,
            max_keypoints: 600,
        }
    }
}

/// Is `dogs[s]` at interior pixel `c = y * w + x` a strict extremum over
/// its 26 scale-space neighbours?
///
/// "Strictly above all or strictly below all" does not depend on the
/// order the neighbours are visited in, so the cheapest rejections come
/// first: the two in-row neighbours (a smooth gradient fails there in
/// two compares), then the rest of the plane, then the planes below and
/// above. The caller scans `1..w-1 × 1..h-1`, so every read is in range.
fn is_extremum(dogs: &[GrayImage], s: usize, w: usize, c: usize) -> bool {
    let mid = dogs[s].data();
    let v = mid[c];
    let (mut not_max, mut not_min) = (false, false);
    let mut survives = |neighbours: &[f32]| {
        for &n in neighbours {
            not_max |= n >= v;
            not_min |= n <= v;
        }
        !(not_max && not_min)
    };
    let row = |plane: &[f32], at: usize| -> [f32; 3] { [plane[at - 1], plane[at], plane[at + 1]] };
    survives(&[mid[c - 1], mid[c + 1]])
        && survives(&row(mid, c - w))
        && survives(&row(mid, c + w))
        && [dogs[s - 1].data(), dogs[s + 1].data()]
            .iter()
            .all(|plane| {
                survives(&row(plane, c - w))
                    && survives(&row(plane, c))
                    && survives(&row(plane, c + w))
            })
}

/// Reject edge-like responses via the Hessian trace/determinant test
/// (interior pixel `c = y * w + x` of the row-major plane `d`).
fn passes_edge_test(d: &[f32], w: usize, c: usize, edge_ratio: f32) -> bool {
    let v = d[c];
    let dxx = d[c + 1] + d[c - 1] - 2.0 * v;
    let dyy = d[c + w] + d[c - w] - 2.0 * v;
    let dxy = (d[c + w + 1] - d[c + w - 1] - d[c - w + 1] + d[c - w - 1]) / 4.0;
    let tr = dxx + dyy;
    let det = dxx * dyy - dxy * dxy;
    if det <= 0.0 {
        return false;
    }
    let r = edge_ratio;
    tr * tr / det < (r + 1.0) * (r + 1.0) / r
}

/// `atan(z)` for `z ∈ [0, 1]` in orientation bins (10°), as
/// `z · Σ ATAN_BINS[k] · z²ᵏ`: the odd degree-13 minimax polynomial,
/// within 1.5e-6 bins of the real value.
const ATAN_BINS: [f32; 7] = [
    5.7295556,
    -1.9089446,
    1.1349043,
    -0.75821465,
    0.45621005,
    -0.19253801,
    0.0390287,
];

/// How close to a bin edge, in bins, [`estimated_bin`] leaves the call to
/// the exact expression: 69× the estimate's and the exact expression's
/// combined error (DESIGN.md §17, "Angle bins").
const BIN_MARGIN: f32 = 1e-3;

/// The orientation histogram's bin of `gy.atan2(gx)`, decided from an
/// estimate of `t = (angle + π) / τ · 36`: fold the gradient into the
/// first octant, evaluate [`ATAN_BINS`], unfold by whole-bin offsets
/// (9, 18), which are exact. `None` when `t` lies within [`BIN_MARGIN`]
/// of an integer — that includes every gradient with a ±0, NaN or ∞
/// component — where only the exact expression can tell.
#[inline]
fn estimated_bin(gx: f32, gy: f32) -> Option<usize> {
    let (ax, ay) = (gx.abs(), gy.abs());
    let steep = ay > ax;
    let z = if steep { ax / ay } else { ay / ax };
    let z2 = z * z;
    let p = z * ATAN_BINS.iter().rev().fold(0.0, |acc, &c| acc * z2 + c);
    let a = if steep { 9.0 - p } else { p };
    let a = if gx < 0.0 { 18.0 - a } else { a };
    let t = 18.0 + a.copysign(gy);
    let bin = t as usize;
    let frac = t - bin as f32;
    (frac > BIN_MARGIN && frac < 1.0 - BIN_MARGIN).then_some(bin.min(35))
}

/// The Gaussian window of the orientation histogram: `(2r+1)²` weights
/// that depend only on `sigma`, which [`detect_on_pyramid`] holds fixed
/// at `pyr.sigma0` — one table per call instead of one `exp` per sample.
struct OrientationWindow {
    radius: isize,
    /// Row-major over `dy, dx ∈ -radius..=radius`.
    weights: Vec<f32>,
}

impl OrientationWindow {
    fn new(sigma: f32) -> Self {
        let radius = (2.5 * sigma).ceil().max(2.0) as isize;
        let weights = (-radius..=radius)
            .flat_map(|dy| (-radius..=radius).map(move |dx| (dx, dy)))
            .map(|(dx, dy)| {
                (-((dx * dx + dy * dy) as f32) / (2.0 * (1.5 * sigma) * (1.5 * sigma))).exp()
            })
            .collect();
        OrientationWindow { radius, weights }
    }

    /// Dominant gradient orientation at (x, y) from a 36-bin histogram
    /// over the window, skipping samples outside the image interior.
    fn dominant_orientation(&self, img: &GrayImage, x: usize, y: usize) -> f32 {
        let r = self.radius;
        let side = (2 * r + 1) as usize;
        let (x, y) = (x as isize, y as isize);
        let mut hist = [0f32; 36];
        for py in (y - r).max(1)..=(y + r).min(img.height() as isize - 2) {
            let weights = &self.weights[(py - y + r) as usize * side..][..side];
            for px in (x - r).max(1)..=(x + r).min(img.width() as isize - 2) {
                let (gx, gy) = img.gradient(px as usize, py as usize);
                let mag = (gx * gx + gy * gy).sqrt();
                let bin = estimated_bin(gx, gy).unwrap_or_else(|| {
                    let angle = gy.atan2(gx); // [-π, π]
                    (((angle + std::f32::consts::PI) / std::f32::consts::TAU * 36.0) as usize)
                        .min(35)
                });
                hist[bin] += mag * weights[(px - x + r) as usize];
            }
        }
        let best = hist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        (best as f32 + 0.5) / 36.0 * std::f32::consts::TAU - std::f32::consts::PI
    }
}

/// Detect keypoints on a prebuilt pyramid.
pub fn detect_on_pyramid(pyr: &Pyramid, params: &DetectorParams) -> Vec<Keypoint> {
    // Candidates carry their octave-grid position; orientation (the
    // expensive part) is assigned after the cap, to the survivors only.
    let mut found: Vec<(Keypoint, usize, usize)> = Vec::new();
    let mut candidate = Vec::new();
    let k = 2f32.powf(1.0 / pyr.scales_per_octave as f32);
    for (oi, oct) in pyr.octaves.iter().enumerate() {
        let (w, h) = (oct.dogs[0].width(), oct.dogs[0].height());
        for s in 1..oct.dogs.len() - 1 {
            let dog = oct.dogs[s].data();
            for y in 1..h - 1 {
                // Branch-free first cut over the row: the contrast test and
                // `is_extremum`'s in-row step, as written there (so a NaN
                // passes both, as before). About 5 % of pixels survive.
                candidate.clear();
                candidate.extend(dog[y * w..(y + 1) * w].windows(3).map(|t| {
                    let (l, v, r) = (t[0], t[1], t[2]);
                    let (not_max, not_min) = ((l >= v) | (r >= v), (l <= v) | (r <= v));
                    let faint = v.abs() < params.contrast_threshold;
                    !(faint | (not_max & not_min))
                }));
                let survivors = candidate.iter().enumerate().filter(|(_, &keep)| keep);
                for x in survivors.map(|(i, _)| i + 1) {
                    let c = y * w + x;
                    let v = dog[c];
                    if !is_extremum(&oct.dogs, s, w, c)
                        || !passes_edge_test(dog, w, c, params.edge_ratio)
                    {
                        continue;
                    }
                    let kp = Keypoint {
                        x: x as f32 * oct.downscale as f32,
                        y: y as f32 * oct.downscale as f32,
                        scale: pyr.sigma0 * k.powi(s as i32) * oct.downscale as f32,
                        orientation: 0.0,
                        response: v.abs(),
                        octave: oi,
                        level: s,
                    };
                    found.push((kp, x, y));
                }
            }
        }
    }
    // Keep the strongest responses, deterministically tie-broken by
    // position so equal-response keypoints sort stably. `total_cmp` equals
    // `partial_cmp` on these non-negative values and also orders a NaN.
    found.sort_by(|(a, ..), (b, ..)| {
        b.response
            .total_cmp(&a.response)
            .then(a.y.total_cmp(&b.y))
            .then(a.x.total_cmp(&b.x))
    });
    found.truncate(params.max_keypoints);
    let window = OrientationWindow::new(pyr.sigma0);
    found
        .into_iter()
        .map(|(kp, x, y)| Keypoint {
            orientation: window.dominant_orientation(
                &pyr.octaves[kp.octave].levels[kp.level],
                x,
                y,
            ),
            ..kp
        })
        .collect()
}

/// Detect keypoints on an image: build the standard 3-octave pyramid and
/// run detection. This is the `sift` service's detection entry point.
pub fn detect(img: &GrayImage, params: &DetectorParams) -> (Pyramid, Vec<Keypoint>) {
    let pyr = Pyramid::build(img, 3, 3, 1.6);
    let kps = detect_on_pyramid(&pyr, params);
    (pyr, kps)
}

/// Inputs shared by the angle-bin equivalence sweeps here and in
/// `descriptor` (DESIGN.md §17, "Angle bins").
#[cfg(test)]
pub(crate) mod sweep {
    use super::{detect, DetectorParams, Keypoint};
    use crate::codec::{decode, encode, Quality};
    use crate::pyramid::Pyramid;
    use crate::scene::SceneGenerator;
    use crate::GrayImage;
    use simcore::SimRng;
    use std::f64::consts::PI;

    /// Random gradients per sweep: the full 10⁷ in release builds
    /// (`cargo test --release -p vision`), fewer in debug ones.
    pub const RANDOM: usize = if cfg!(debug_assertions) {
        400_000
    } else {
        10_000_000
    };

    /// Scales for the edge sweeps: exact, inexact, subnormal, overflowing.
    pub const SCALES: [f32; 9] = [
        1.0,
        0.25,
        1e3,
        1e-20,
        1e-30,
        f32::MIN_POSITIVE,
        1e-40,
        1e-45,
        f32::MAX,
    ];

    fn log_uniform(rng: &mut SimRng) -> f64 {
        10f64.powf(rng.uniform(-30.0, 3.0))
    }

    /// A random gradient of log-uniform magnitude(s) in `[1e-30, 1e3]`:
    /// a uniform angle if `polar`, else two components of independent
    /// sign and magnitude (which mostly lie near an axis).
    pub fn gradient(rng: &mut SimRng, polar: bool) -> (f32, f32) {
        if polar {
            let (m, a) = (log_uniform(rng), rng.uniform(-PI, PI));
            return ((m * a.cos()) as f32, (m * a.sin()) as f32);
        }
        let mut signed = || log_uniform(rng) as f32 * if rng.bernoulli(0.5) { -1.0 } else { 1.0 };
        (signed(), signed())
    }

    /// `x` moved by `k` units in the last place, across zero too.
    pub fn ulps(x: f32, k: i32) -> f32 {
        let ordered = |b: i32| if b < 0 { i32::MIN.wrapping_sub(b) } else { b };
        f32::from_bits(ordered(ordered(x.to_bits() as i32) + k) as u32)
    }

    /// The `sift` service's detections over the seed-7 camera loop:
    /// 256×144 frames through the uplink codec, `primary`'s 0.75 resize
    /// (192×108) and the wire's u8 quantisation, under the runtime's
    /// 200-descriptor cap. Every 10th frame in debug builds.
    pub fn service_camera_loop() -> impl Iterator<Item = (Pyramid, Vec<Keypoint>)> {
        let scene = SceneGenerator::workplace_scaled(7, 256, 144);
        let params = DetectorParams {
            max_keypoints: 200,
            ..Default::default()
        };
        let step = if cfg!(debug_assertions) { 10 } else { 1 };
        (0..300).step_by(step).map(move |f| {
            let frame = decode(encode(&scene.frame(f), Quality(85))).expect("codec round trip");
            let quantised = frame
                .resize(192, 108)
                .data()
                .iter()
                .map(|&v| ((v.clamp(0.0, 1.0) * 255.0) as u8) as f32 / 255.0)
                .collect();
            detect(&GrayImage::from_vec(192, 108, quantised), &params)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::sweep::{gradient, service_camera_loop, ulps, RANDOM, SCALES};
    use super::*;
    use crate::scene::SceneGenerator;
    use simcore::SimRng;
    use std::f64::consts::{PI, TAU};

    /// `dominant_orientation`'s bin as it stood before [`estimated_bin`].
    fn exact_bin(gx: f32, gy: f32) -> usize {
        let angle = gy.atan2(gx); // [-π, π]
        (((angle + std::f32::consts::PI) / std::f32::consts::TAU * 36.0) as usize).min(35)
    }

    /// Asserts that a bin the estimate decides is the exact one; returns
    /// whether it deferred to the exact expression instead.
    fn defers(gx: f32, gy: f32) -> bool {
        match estimated_bin(gx, gy) {
            Some(bin) => {
                assert_eq!(bin, exact_bin(gx, gy), "gradient ({gx:e}, {gy:e})");
                false
            }
            None => true,
        }
    }

    #[test]
    fn estimated_bins_equal_the_exact_bins_on_random_gradients() {
        let mut rng = SimRng::new(0x0A7A_2F01);
        let mut deferred = [0usize; 2];
        for i in 0..RANDOM {
            let polar = i % 2 == 1;
            let (gx, gy) = gradient(&mut rng, polar);
            deferred[polar as usize] += defers(gx, gy) as usize;
        }
        // At a uniform angle, 2·1e-3 of a bin lies inside the margin.
        assert!(deferred[1] * 200 < RANDOM, "{deferred:?} of {RANDOM}");
    }

    #[test]
    fn estimated_bins_equal_the_exact_bins_around_every_edge() {
        for edge in 0..=36 {
            let theta = -PI + edge as f64 * TAU / 36.0;
            // ±4 ulp around the edge itself, then at offsets (in bins) just
            // outside the margin, where the estimate decides, and mid-bin.
            for offset in [0.0, 1.01e-3, -1.01e-3, 1.5e-3, -1.5e-3, 0.5, -0.5] {
                let at = theta + offset * TAU / 36.0;
                let (c, s) = (at.cos() as f32, at.sin() as f32);
                for scale in SCALES {
                    for (i, j) in (-4..=4).flat_map(|i| (-4..=4).map(move |j| (i, j))) {
                        let (gx, gy) = (ulps(c, i) * scale, ulps(s, j) * scale);
                        let deferred = defers(gx, gy);
                        if (1e-30..1e30).contains(&scale) {
                            let must_defer = offset == 0.0;
                            let must_decide = f64::abs(offset) >= 1.5e-3;
                            assert!(
                                !(must_defer && !deferred || must_decide && deferred),
                                "edge {edge} offset {offset}: ({gx:e}, {gy:e})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn estimated_bins_equal_the_exact_bins_on_special_values() {
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
        for &gx in &values {
            for &gy in &values {
                let deferred = defers(gx, gy);
                if gx == 0.0 || gy == 0.0 || !(gx.is_finite() && gy.is_finite()) {
                    assert!(deferred, "({gx:e}, {gy:e}) decided");
                }
            }
            // The diagonals: gx = ±gy, 45° off the nearest edge.
            for sign in [1.0, -1.0] {
                assert!(!defers(gx, sign * gx) || gx == 0.0 || !gx.is_finite());
            }
        }
    }

    #[test]
    fn estimate_rarely_defers_on_the_camera_loop() {
        let (mut samples, mut deferred) = (0usize, 0usize);
        for (pyr, kps) in service_camera_loop() {
            let r = OrientationWindow::new(pyr.sigma0).radius;
            for kp in &kps {
                let oct = &pyr.octaves[kp.octave];
                let img = &oct.levels[kp.level];
                let x = (kp.x / oct.downscale as f32) as isize;
                let y = (kp.y / oct.downscale as f32) as isize;
                for py in (y - r).max(1)..=(y + r).min(img.height() as isize - 2) {
                    for px in (x - r).max(1)..=(x + r).min(img.width() as isize - 2) {
                        let (gx, gy) = img.gradient(px as usize, py as usize);
                        samples += 1;
                        deferred += defers(gx, gy) as usize;
                    }
                }
            }
        }
        assert!(samples > 100_000, "only {samples} samples");
        assert!(
            deferred * 100 <= samples,
            "{deferred} of {samples} orientation samples took the exact path"
        );
    }

    fn blob_image() -> GrayImage {
        // A bright Gaussian blob on black: a canonical DoG detection.
        let mut img = GrayImage::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                let dx = x as f32 - 32.0;
                let dy = y as f32 - 32.0;
                img.set(x, y, (-(dx * dx + dy * dy) / 18.0).exp());
            }
        }
        img
    }

    #[test]
    fn detects_blob_near_centre() {
        let (_, kps) = detect(&blob_image(), &DetectorParams::default());
        assert!(!kps.is_empty(), "blob must be detected");
        let best = &kps[0];
        assert!(
            (best.x - 32.0).abs() < 6.0 && (best.y - 32.0).abs() < 6.0,
            "strongest keypoint at ({}, {}) not near blob centre",
            best.x,
            best.y,
        );
    }

    #[test]
    fn non_finite_pixels_do_not_panic() {
        // Non-finite pixels along the edges, away from the blob.
        let mut img = blob_image();
        for (i, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            img.set(20 * i, 0, v);
            img.set(63, 20 * i, v);
            img.set(21 * i, 63, v);
        }
        let (mut pyr, kps) = detect(&img, &DetectorParams::default());
        assert!(!kps.is_empty());
        assert_eq!(crate::descriptor::describe_all(&pyr, &kps).len(), kps.len());
        // A NaN inside an orientation window (the level, not the DoGs)
        // puts a NaN into that keypoint's histogram.
        for level in &mut pyr.octaves[0].levels {
            level.set(34, 32, f32::NAN);
        }
        let again = detect_on_pyramid(&pyr, &DetectorParams::default());
        assert_eq!(again.len(), kps.len());
    }

    #[test]
    fn blank_image_has_no_keypoints() {
        let img = GrayImage::from_vec(64, 64, vec![0.5; 64 * 64]);
        let (_, kps) = detect(&img, &DetectorParams::default());
        assert!(
            kps.is_empty(),
            "constant image produced {} keypoints",
            kps.len()
        );
    }

    #[test]
    fn straight_edge_is_rejected() {
        // A step edge: strong DoG response but edge-like curvature.
        let mut img = GrayImage::new(64, 64);
        for y in 0..64 {
            for x in 32..64 {
                img.set(x, y, 1.0);
            }
        }
        let (_, kps) = detect(&img, &DetectorParams::default());
        // Keypoints on the interior of the edge (far from image corners)
        // should be rejected by the curvature test.
        let on_edge = kps
            .iter()
            .filter(|k| (k.x - 32.0).abs() < 3.0 && k.y > 12.0 && k.y < 52.0)
            .count();
        assert_eq!(on_edge, 0, "edge interior produced {on_edge} keypoints");
    }

    #[test]
    fn synthetic_scene_yields_rich_features() {
        let g = SceneGenerator::workplace_scaled(1, 320, 180);
        let (_, kps) = detect(&g.frame(0), &DetectorParams::default());
        assert!(
            kps.len() >= 50,
            "workplace scene produced only {} keypoints",
            kps.len()
        );
    }

    #[test]
    fn max_keypoints_cap_enforced() {
        let g = SceneGenerator::workplace_scaled(1, 320, 180);
        let params = DetectorParams {
            max_keypoints: 20,
            ..Default::default()
        };
        let (_, kps) = detect(&g.frame(0), &params);
        assert!(kps.len() <= 20);
        // Cap keeps the strongest.
        for w in kps.windows(2) {
            assert!(w[0].response >= w[1].response);
        }
    }

    #[test]
    fn detection_is_deterministic() {
        let g = SceneGenerator::workplace_scaled(1, 160, 90);
        let (_, a) = detect(&g.frame(3), &DetectorParams::default());
        let (_, b) = detect(&g.frame(3), &DetectorParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn orientation_in_range() {
        let g = SceneGenerator::workplace_scaled(2, 160, 90);
        let (_, kps) = detect(&g.frame(0), &DetectorParams::default());
        for k in kps {
            assert!(k.orientation >= -std::f32::consts::PI - 1e-3);
            assert!(k.orientation <= std::f32::consts::PI + 1e-3);
        }
    }
}
