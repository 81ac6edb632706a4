//! RANSAC homography estimation and object pose — the back half of the
//! `matching` service.
//!
//! From ratio-test correspondences we estimate a planar homography by
//! 4-point DLT inside a RANSAC loop, then "pose" an object by projecting
//! its reference bounding box into the frame — which is exactly the
//! bounding-box augmentation scAtteR returns to the client.

use simcore::SimRng;

/// A 3×3 homography, row-major, normalized so `h[8] == 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Homography(pub [f64; 9]);

impl Homography {
    pub const IDENTITY: Homography = Homography([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);

    /// Apply to a 2-D point. Returns `None` when the point maps to the
    /// plane at infinity (w ≈ 0).
    pub fn apply(&self, x: f64, y: f64) -> Option<(f64, f64)> {
        let h = &self.0;
        let w = h[6] * x + h[7] * y + h[8];
        if w.abs() < 1e-12 {
            return None;
        }
        Some((
            (h[0] * x + h[1] * y + h[2]) / w,
            (h[3] * x + h[4] * y + h[5]) / w,
        ))
    }
}

/// A 2-D point correspondence `(src, dst)`.
pub type Correspondence = ((f64, f64), (f64, f64));

/// Solve the 8×8 DLT system for the homography mapping the 4 `src` points
/// to the 4 `dst` points (fixing `h[8] = 1`). Returns `None` on a
/// degenerate (collinear / duplicate) configuration.
pub fn dlt4(pairs: &[Correspondence; 4]) -> Option<Homography> {
    // Each correspondence contributes two rows:
    //   [x y 1 0 0 0 -x x' -y x']  h = x'
    //   [0 0 0 x y 1 -x y' -y y']  h = y'
    let mut a = [[0f64; 9]; 8];
    for (i, &((x, y), (xp, yp))) in pairs.iter().enumerate() {
        a[2 * i] = [x, y, 1.0, 0.0, 0.0, 0.0, -x * xp, -y * xp, xp];
        a[2 * i + 1] = [0.0, 0.0, 0.0, x, y, 1.0, -x * yp, -y * yp, yp];
    }

    // Gaussian elimination with partial pivoting on the augmented matrix.
    for col in 0..8 {
        // On `abs()` values `total_cmp` agrees with `partial_cmp` (no
        // `-0.0` is left), and it ranks a NaN first instead of panicking:
        // the NaN spreads into `h`, which then counts no inliers.
        let pivot = (col..8)
            .max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))
            .expect("non-empty range");
        if a[pivot][col].abs() < 1e-10 {
            return None;
        }
        a.swap(col, pivot);
        let p = a[col][col];
        for r in col + 1..8 {
            let f = a[r][col] / p;
            let (head, tail) = a.split_at_mut(r);
            let pivot_row = &head[col];
            for (c, cell) in tail[0].iter_mut().enumerate().skip(col) {
                *cell -= f * pivot_row[c];
            }
        }
    }
    let mut h = [0f64; 9];
    h[8] = 1.0;
    for row in (0..8).rev() {
        let mut acc = a[row][8];
        for c in row + 1..8 {
            acc -= a[row][c] * h[c];
        }
        h[row] = acc / a[row][row];
    }
    Some(Homography(h))
}

/// RANSAC parameters.
#[derive(Debug, Clone, Copy)]
pub struct RansacParams {
    pub iterations: usize,
    /// Inlier reprojection threshold in pixels.
    pub inlier_threshold: f64,
    /// Minimum inliers for the estimate to count as a detection.
    pub min_inliers: usize,
}

impl Default for RansacParams {
    fn default() -> Self {
        RansacParams {
            iterations: 200,
            inlier_threshold: 4.0,
            min_inliers: 8,
        }
    }
}

/// Result of a successful RANSAC fit.
#[derive(Debug, Clone)]
pub struct RansacResult {
    pub homography: Homography,
    pub inliers: Vec<usize>,
}

/// Robustly estimate the homography mapping `src` points to `dst` points.
pub fn ransac_homography(
    pairs: &[Correspondence],
    params: &RansacParams,
    rng: &mut SimRng,
) -> Option<RansacResult> {
    if pairs.len() < 4 || pairs.len() < params.min_inliers {
        return None;
    }
    let mut best: Option<RansacResult> = None;
    for _ in 0..params.iterations {
        // Sample 4 distinct indices.
        let mut idx = [0usize; 4];
        for slot in 0..4 {
            loop {
                let cand = rng.index(pairs.len());
                if !idx[..slot].contains(&cand) {
                    idx[slot] = cand;
                    break;
                }
            }
        }
        let sample = [pairs[idx[0]], pairs[idx[1]], pairs[idx[2]], pairs[idx[3]]];
        let Some(h) = dlt4(&sample) else { continue };
        let inliers: Vec<usize> = pairs
            .iter()
            .enumerate()
            .filter(|(_, &((sx, sy), (dx, dy)))| {
                h.apply(sx, sy).is_some_and(|(px, py)| {
                    let ex = px - dx;
                    let ey = py - dy;
                    (ex * ex + ey * ey).sqrt() <= params.inlier_threshold
                })
            })
            .map(|(i, _)| i)
            .collect();
        if inliers.len() >= params.min_inliers
            && best
                .as_ref()
                .is_none_or(|b| inliers.len() > b.inliers.len())
        {
            best = Some(RansacResult {
                homography: h,
                inliers,
            });
        }
    }
    best
}

/// An axis-aligned box in reference coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    pub x0: f64,
    pub y0: f64,
    pub x1: f64,
    pub y1: f64,
}

/// A recognized object's pose: its reference box projected into the frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectPose {
    /// Projected corners, clockwise from top-left.
    pub corners: [(f64, f64); 4],
    pub inlier_count: usize,
}

/// Project `bbox` through `h`; `None` if any corner degenerates.
pub fn project_bbox(h: &Homography, bbox: &BBox, inlier_count: usize) -> Option<ObjectPose> {
    let pts = [
        (bbox.x0, bbox.y0),
        (bbox.x1, bbox.y0),
        (bbox.x1, bbox.y1),
        (bbox.x0, bbox.y1),
    ];
    let mut corners = [(0.0, 0.0); 4];
    for (i, &(x, y)) in pts.iter().enumerate() {
        corners[i] = h.apply(x, y)?;
    }
    Some(ObjectPose {
        corners,
        inlier_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn translation(dx: f64, dy: f64) -> Homography {
        Homography([1.0, 0.0, dx, 0.0, 1.0, dy, 0.0, 0.0, 1.0])
    }

    #[test]
    fn dlt_recovers_translation() {
        let src = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)];
        let pairs: [Correspondence; 4] =
            std::array::from_fn(|i| (src[i], (src[i].0 + 3.0, src[i].1 - 2.0)));
        let h = dlt4(&pairs).expect("non-degenerate");
        let (x, y) = h.apply(5.0, 5.0).unwrap();
        assert!((x - 8.0).abs() < 1e-6 && (y - 3.0).abs() < 1e-6);
    }

    #[test]
    fn dlt_rejects_collinear_points() {
        let pairs: [Correspondence; 4] = [
            ((0.0, 0.0), (0.0, 0.0)),
            ((1.0, 1.0), (1.0, 1.0)),
            ((2.0, 2.0), (2.0, 2.0)),
            ((3.0, 3.0), (3.0, 3.0)),
        ];
        assert!(dlt4(&pairs).is_none());
    }

    #[test]
    fn dlt_survives_a_nan_coordinate() {
        let src = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (f64::NAN, 10.0)];
        let pairs: [Correspondence; 4] = std::array::from_fn(|i| (src[i], src[i]));
        if let Some(h) = dlt4(&pairs) {
            assert!(h.0.iter().any(|v| v.is_nan()));
        }
    }

    #[test]
    fn ransac_never_counts_a_nan_pair_as_inlier() {
        let mut rng = SimRng::new(4);
        let truth = translation(3.0, -2.0);
        let src = [
            (0.0, 0.0),
            (40.0, 3.0),
            (7.0, 35.0),
            (38.0, 41.0),
            (20.0, 18.0),
            (12.0, 27.0),
            (31.0, 9.0),
        ];
        let mut pairs: Vec<Correspondence> = src
            .iter()
            .map(|&(x, y)| ((x, y), truth.apply(x, y).unwrap()))
            .collect();
        pairs.push(((f64::NAN, 5.0), (8.0, 3.0)));
        let params = RansacParams {
            min_inliers: 4,
            ..Default::default()
        };
        let res = ransac_homography(&pairs, &params, &mut rng).expect("seven clean pairs fit");
        assert!(!res.inliers.contains(&7), "inliers {:?}", res.inliers);
        assert_eq!(res.inliers.len(), 7);
    }

    #[test]
    fn ransac_survives_outliers() {
        let mut rng = SimRng::new(1);
        let truth = translation(7.0, -4.0);
        let mut pairs: Vec<Correspondence> = Vec::new();
        // 40 inliers on a grid.
        for i in 0..40 {
            let x = (i % 8) as f64 * 12.0;
            let y = (i / 8) as f64 * 9.0;
            let (dx, dy) = truth.apply(x, y).unwrap();
            pairs.push(((x, y), (dx, dy)));
        }
        // 20 gross outliers.
        for _ in 0..20 {
            pairs.push((
                (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
                (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
            ));
        }
        let res = ransac_homography(&pairs, &RansacParams::default(), &mut rng)
            .expect("should fit despite outliers");
        assert!(
            res.inliers.len() >= 38,
            "found {} inliers",
            res.inliers.len()
        );
        let (x, y) = res.homography.apply(50.0, 50.0).unwrap();
        assert!((x - 57.0).abs() < 0.5 && (y - 46.0).abs() < 0.5);
    }

    #[test]
    fn ransac_refuses_pure_noise() {
        let mut rng = SimRng::new(2);
        let pairs: Vec<Correspondence> = (0..40)
            .map(|_| {
                (
                    (rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)),
                    (rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)),
                )
            })
            .collect();
        let params = RansacParams {
            min_inliers: 12,
            ..Default::default()
        };
        assert!(ransac_homography(&pairs, &params, &mut rng).is_none());
    }

    #[test]
    fn ransac_needs_enough_pairs() {
        let mut rng = SimRng::new(3);
        let pairs = vec![((0.0, 0.0), (1.0, 1.0)); 3];
        assert!(ransac_homography(&pairs, &RansacParams::default(), &mut rng).is_none());
    }

    #[test]
    fn bbox_projection_translates() {
        let h = translation(10.0, 5.0);
        let pose = project_bbox(
            &h,
            &BBox {
                x0: 0.0,
                y0: 0.0,
                x1: 4.0,
                y1: 2.0,
            },
            9,
        )
        .unwrap();
        assert_eq!(pose.corners[0], (10.0, 5.0));
        assert_eq!(pose.corners[2], (14.0, 7.0));
        assert_eq!(pose.inlier_count, 9);
    }

    #[test]
    fn apply_detects_degenerate_w() {
        let h = Homography([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, -5.0]);
        // x = 5 → w = 0.
        assert!(h.apply(5.0, 0.0).is_none());
    }
}
