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
                let angle = gy.atan2(gx); // [-π, π]
                let bin = (((angle + std::f32::consts::PI) / std::f32::consts::TAU * 36.0)
                    as usize)
                    .min(35);
                hist[bin] += mag * weights[(px - x + r) as usize];
            }
        }
        let best = hist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite hist"))
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
    let k = 2f32.powf(1.0 / pyr.scales_per_octave as f32);
    for (oi, oct) in pyr.octaves.iter().enumerate() {
        let (w, h) = (oct.dogs[0].width(), oct.dogs[0].height());
        for s in 1..oct.dogs.len() - 1 {
            let dog = oct.dogs[s].data();
            for y in 1..h - 1 {
                for x in 1..w - 1 {
                    let c = y * w + x;
                    let v = dog[c];
                    if v.abs() < params.contrast_threshold
                        || !is_extremum(&oct.dogs, s, w, c)
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
    // position so equal-response keypoints sort stably.
    found.sort_by(|(a, ..), (b, ..)| {
        b.response
            .partial_cmp(&a.response)
            .expect("finite responses")
            .then(a.y.partial_cmp(&b.y).expect("finite"))
            .then(a.x.partial_cmp(&b.x).expect("finite"))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SceneGenerator;

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
