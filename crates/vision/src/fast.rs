//! FAST corner detection + BRIEF binary descriptors — the "faster
//! feature extractor" of §5's discussion.
//!
//! The paper argues that swapping SIFT for an accelerated extractor
//! "helps improve inference speed … but without a horizontally scalable
//! design the application will incur the same issues, delayed to a
//! higher number of clients". To make that ablation runnable we provide
//! a real alternative extractor an order of magnitude cheaper than the
//! DoG pipeline: FAST-9 segment-test corners with a smoothed 256-bit
//! BRIEF descriptor matched under Hamming distance.

use simcore::SimRng;

use crate::image::GrayImage;
use crate::pyramid::gaussian_blur;

/// A FAST corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    pub x: usize,
    pub y: usize,
    /// Sum of absolute contiguous-arc differences (corner strength).
    pub score: f32,
}

/// Bresenham circle of radius 3: the 16 segment-test offsets.
const CIRCLE: [(isize, isize); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// FAST-N segment test: a pixel is a corner if ≥ `arc_len` contiguous
/// circle pixels are all brighter than `p + t` or all darker than
/// `p − t`.
fn is_corner(img: &GrayImage, x: usize, y: usize, t: f32, arc_len: usize) -> Option<f32> {
    let p = img.get(x, y);
    // Classify the 16 circle pixels: +1 brighter, −1 darker, 0 similar.
    let mut classes = [0i8; 16];
    for (i, &(dx, dy)) in CIRCLE.iter().enumerate() {
        let v = img.get_clamped(x as isize + dx, y as isize + dy);
        classes[i] = if v > p + t {
            1
        } else if v < p - t {
            -1
        } else {
            0
        };
    }
    // Longest contiguous arc (wrapping) of one polarity.
    for polarity in [1i8, -1] {
        let mut best = 0usize;
        let mut run = 0usize;
        // Scan twice around the circle to handle wraparound.
        for i in 0..32 {
            if classes[i % 16] == polarity {
                run += 1;
                best = best.max(run);
                if best >= arc_len {
                    // Score: mean |difference| over the arc polarity.
                    let score: f32 = CIRCLE
                        .iter()
                        .map(|&(dx, dy)| {
                            (img.get_clamped(x as isize + dx, y as isize + dy) - p).abs()
                        })
                        .sum();
                    return Some(score);
                }
            } else {
                run = 0;
            }
        }
    }
    None
}

/// Detect FAST-9 corners (the standard segment-test variant; a perfect
/// axis-aligned square corner subtends an 11-pixel arc, which FAST-12
/// would reject) with non-maximum suppression in a 3×3
/// neighbourhood, strongest `max_corners` kept.
pub fn detect_fast(img: &GrayImage, threshold: f32, max_corners: usize) -> Vec<Corner> {
    let (w, h) = (img.width(), img.height());
    if w < 8 || h < 8 {
        return Vec::new();
    }
    let mut score_map = vec![0f32; w * h];
    let mut corners = Vec::new();
    for y in 3..h - 3 {
        for x in 3..w - 3 {
            if let Some(score) = is_corner(img, x, y, threshold, 9) {
                score_map[y * w + x] = score;
                corners.push(Corner { x, y, score });
            }
        }
    }
    // 3×3 non-max suppression.
    let mut kept: Vec<Corner> = corners
        .into_iter()
        .filter(|c| {
            let mut is_max = true;
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let nx = (c.x as isize + dx) as usize;
                    let ny = (c.y as isize + dy) as usize;
                    if score_map[ny * w + nx] > c.score {
                        is_max = false;
                    }
                }
            }
            is_max
        })
        .collect();
    kept.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("finite scores")
            .then(a.y.cmp(&b.y))
            .then(a.x.cmp(&b.x))
    });
    kept.truncate(max_corners);
    kept
}

/// 256-bit BRIEF descriptor: intensity comparisons at pseudo-random
/// offset pairs on a smoothed image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BriefDescriptor {
    pub bits: [u64; 4],
    pub x: f32,
    pub y: f32,
}

impl BriefDescriptor {
    /// Hamming distance between two descriptors (0–256).
    pub fn distance(&self, other: &BriefDescriptor) -> u32 {
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }
}

/// One BRIEF comparison: a pair of patch offsets.
pub type BriefPair = ((i8, i8), (i8, i8));

/// The comparison pattern: 256 offset pairs in a 31×31 patch, generated
/// once from a fixed seed so every extractor instance agrees.
pub fn brief_pattern() -> Vec<BriefPair> {
    let mut rng = SimRng::new(0xB21EF);
    (0..256)
        .map(|_| {
            let p = (
                rng.normal_with(0.0, 6.0).clamp(-15.0, 15.0) as i8,
                rng.normal_with(0.0, 6.0).clamp(-15.0, 15.0) as i8,
            );
            let q = (
                rng.normal_with(0.0, 6.0).clamp(-15.0, 15.0) as i8,
                rng.normal_with(0.0, 6.0).clamp(-15.0, 15.0) as i8,
            );
            (p, q)
        })
        .collect()
}

/// Extract BRIEF descriptors at the given corners. The image is smoothed
/// once (σ = 2) to stabilize the pointwise comparisons.
pub fn describe_brief(
    img: &GrayImage,
    corners: &[Corner],
    pattern: &[BriefPair],
) -> Vec<BriefDescriptor> {
    assert_eq!(pattern.len(), 256, "BRIEF pattern must have 256 pairs");
    let smooth = gaussian_blur(img, 2.0);
    corners
        .iter()
        .map(|c| {
            let mut bits = [0u64; 4];
            for (i, &((px, py), (qx, qy))) in pattern.iter().enumerate() {
                let a = smooth.get_clamped(c.x as isize + px as isize, c.y as isize + py as isize);
                let b = smooth.get_clamped(c.x as isize + qx as isize, c.y as isize + qy as isize);
                if a > b {
                    bits[i / 64] |= 1 << (i % 64);
                }
            }
            BriefDescriptor {
                bits,
                x: c.x as f32,
                y: c.y as f32,
            }
        })
        .collect()
}

/// Hamming ratio-test matching, mirroring
/// [`crate::matching::match_descriptors`]. Returns `(query idx, ref
/// idx)` pairs.
pub fn match_brief(
    query: &[BriefDescriptor],
    reference: &[BriefDescriptor],
    max_distance: u32,
    max_ratio: f32,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    if reference.len() < 2 {
        return out;
    }
    for (qi, q) in query.iter().enumerate() {
        let mut best = u32::MAX;
        let mut second = u32::MAX;
        let mut best_idx = 0;
        for (ri, r) in reference.iter().enumerate() {
            let d = q.distance(r);
            if d < best {
                second = best;
                best = d;
                best_idx = ri;
            } else if d < second {
                second = d;
            }
        }
        if best <= max_distance && (best as f32) <= max_ratio * second as f32 {
            out.push((qi, best_idx));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::SceneGenerator;

    fn checker_corner_image() -> GrayImage {
        // A bright square on dark background: its corners are FAST corners.
        let mut img = GrayImage::new(32, 32);
        for y in 10..22 {
            for x in 10..22 {
                img.set(x, y, 1.0);
            }
        }
        img
    }

    #[test]
    fn detects_square_corners() {
        let corners = detect_fast(&checker_corner_image(), 0.3, 50);
        assert!(!corners.is_empty(), "square corners not detected");
        // All detections near the square's corners.
        for c in &corners {
            let near =
                [(10, 10), (21, 10), (10, 21), (21, 21)]
                    .iter()
                    .any(|&(cx, cy): &(i32, i32)| {
                        (c.x as i32 - cx).abs() <= 3 && (c.y as i32 - cy).abs() <= 3
                    });
            assert!(near, "corner at ({}, {}) not near the square", c.x, c.y);
        }
    }

    #[test]
    fn flat_image_has_no_corners() {
        let img = GrayImage::from_vec(32, 32, vec![0.5; 1024]);
        assert!(detect_fast(&img, 0.1, 50).is_empty());
    }

    #[test]
    fn max_corners_cap_keeps_strongest() {
        let g = SceneGenerator::workplace_scaled(1, 160, 90);
        let all = detect_fast(&g.frame(0), 0.08, 1000);
        let capped = detect_fast(&g.frame(0), 0.08, 10);
        assert!(all.len() > 10, "scene too poor: {} corners", all.len());
        assert_eq!(capped.len(), 10);
        assert!(capped[0].score >= capped[9].score);
    }

    #[test]
    fn brief_self_distance_zero_and_symmetric() {
        let g = SceneGenerator::workplace_scaled(1, 160, 90);
        let img = g.frame(0);
        let corners = detect_fast(&img, 0.08, 30);
        let pattern = brief_pattern();
        let descs = describe_brief(&img, &corners, &pattern);
        assert_eq!(descs.len(), corners.len());
        for d in &descs {
            assert_eq!(d.distance(d), 0);
        }
        if descs.len() >= 2 {
            assert_eq!(descs[0].distance(&descs[1]), descs[1].distance(&descs[0]));
        }
    }

    #[test]
    fn brief_matches_across_small_motion() {
        let g = SceneGenerator::workplace_scaled(1, 320, 180);
        let pattern = brief_pattern();
        let f0 = g.frame(0);
        let f1 = g.frame(1);
        let c0 = detect_fast(&f0, 0.08, 150);
        let c1 = detect_fast(&f1, 0.08, 150);
        let d0 = describe_brief(&f0, &c0, &pattern);
        let d1 = describe_brief(&f1, &c1, &pattern);
        let matches = match_brief(&d0, &d1, 60, 0.8);
        assert!(
            matches.len() * 4 >= d0.len(),
            "only {}/{} BRIEF descriptors matched across frames",
            matches.len(),
            d0.len()
        );
    }

    #[test]
    fn pattern_is_stable() {
        assert_eq!(brief_pattern(), brief_pattern());
        assert_eq!(brief_pattern().len(), 256);
    }
}
