//! Ratio-test descriptor matching — the front half of the `matching`
//! service (the back half, pose estimation, lives in [`crate::ransac`]).

use crate::descriptor::Descriptor;

/// A correspondence between a query descriptor and a reference descriptor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    pub query_idx: usize,
    pub ref_idx: usize,
    /// Squared distance of the best match.
    pub dist2: f32,
    /// Lowe ratio `d1/d2` (best/second-best distance); lower = more
    /// distinctive.
    pub ratio: f32,
}

/// Parameters for ratio-test matching.
#[derive(Debug, Clone, Copy)]
pub struct MatchParams {
    /// Maximum allowed `d1/d2` ratio (Lowe suggests 0.8).
    pub max_ratio: f32,
    /// Absolute squared-distance ceiling on the best match.
    pub max_dist2: f32,
}

impl Default for MatchParams {
    fn default() -> Self {
        MatchParams {
            max_ratio: 0.8,
            max_dist2: 0.6,
        }
    }
}

/// `a.dist2(b)` summed in 16 independent lanes: the same 128 terms in a
/// different order, which vectorises where the left-to-right sum is one
/// dependent chain of adds. An estimate only — never a reported distance.
fn dist2_estimate(a: &Descriptor, b: &Descriptor) -> f32 {
    let mut lanes = [0f32; 16];
    for (ca, cb) in a.v.chunks_exact(16).zip(b.v.chunks_exact(16)) {
        for ((lane, x), y) in lanes.iter_mut().zip(ca).zip(cb) {
            *lane += (x - y) * (x - y);
        }
    }
    lanes.iter().sum()
}

/// How far above `second` an estimate must be before the exact distance
/// is known to be at least `second` too. Both sums add the same 128
/// non-negative terms, so each is within `127 · 2⁻²⁴ ≈ 7.6e-6` (relative)
/// of the true sum whatever the order; `1e-4` leaves a 6× margin.
const ESTIMATE_MARGIN: f32 = 1e-4;

/// Brute-force nearest + second-nearest matching with the ratio test.
///
/// O(|query| × |reference|); reference sets per object are a few hundred
/// descriptors, so this is the realistic cost profile of the service.
/// Every reported distance is the exact left-to-right [`Descriptor::dist2`].
pub fn match_descriptors(
    query: &[Descriptor],
    reference: &[Descriptor],
    params: &MatchParams,
) -> Vec<Match> {
    let mut out = Vec::new();
    if reference.len() < 2 {
        return out;
    }
    for (qi, q) in query.iter().enumerate() {
        let mut best = f32::INFINITY;
        let mut second = f32::INFINITY;
        let mut best_idx = 0usize;
        for (ri, r) in reference.iter().enumerate() {
            // A candidate that cannot displace `second` changes nothing;
            // only the few that might are summed exactly.
            let estimate = dist2_estimate(q, r);
            if estimate.is_finite() && estimate * (1.0 - ESTIMATE_MARGIN) >= second {
                continue;
            }
            let d = q.dist2(r);
            if d < best {
                second = best;
                best = d;
                best_idx = ri;
            } else if d < second {
                second = d;
            }
        }
        if best > params.max_dist2 {
            continue;
        }
        let ratio = if second > 0.0 {
            (best / second).sqrt()
        } else {
            1.0
        };
        if ratio <= params.max_ratio {
            out.push(Match {
                query_idx: qi,
                ref_idx: best_idx,
                dist2: best,
                ratio,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keypoints::Keypoint;

    fn desc(v0: f32, tag: f32) -> Descriptor {
        let mut v = [0f32; 128];
        v[0] = v0;
        v[1] = tag;
        // Normalize.
        let n = (v0 * v0 + tag * tag).sqrt().max(1e-6);
        v[0] /= n;
        v[1] /= n;
        Descriptor {
            keypoint: Keypoint {
                x: 0.0,
                y: 0.0,
                scale: 1.0,
                orientation: 0.0,
                response: 1.0,
                octave: 0,
                level: 1,
            },
            v,
        }
    }

    #[test]
    fn distinct_match_passes_ratio_test() {
        let query = vec![desc(1.0, 0.0)];
        let reference = vec![desc(1.0, 0.05), desc(0.0, 1.0), desc(-1.0, 0.2)];
        let matches = match_descriptors(&query, &reference, &MatchParams::default());
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].ref_idx, 0);
        assert!(matches[0].ratio < 0.8);
    }

    #[test]
    fn ambiguous_match_rejected() {
        // Two nearly identical reference descriptors → ratio ≈ 1.
        let query = vec![desc(1.0, 0.0)];
        let reference = vec![desc(1.0, 0.01), desc(1.0, 0.012)];
        let matches = match_descriptors(&query, &reference, &MatchParams::default());
        assert!(matches.is_empty(), "ambiguous match must be dropped");
    }

    #[test]
    fn distant_match_rejected_by_absolute_threshold() {
        let query = vec![desc(1.0, 0.0)];
        let reference = vec![desc(-1.0, 0.0), desc(0.0, 1.0)];
        let matches = match_descriptors(&query, &reference, &MatchParams::default());
        assert!(matches.is_empty());
    }

    #[test]
    fn tiny_reference_set_yields_nothing() {
        let query = vec![desc(1.0, 0.0)];
        assert!(match_descriptors(&query, &[], &MatchParams::default()).is_empty());
        assert!(
            match_descriptors(&query, &[desc(1.0, 0.0)], &MatchParams::default()).is_empty(),
            "second-best undefined with a single reference"
        );
    }

    #[test]
    fn every_query_matched_at_most_once() {
        let query: Vec<_> = (0..10).map(|i| desc(1.0, i as f32 * 0.1)).collect();
        let reference: Vec<_> = (0..10).map(|i| desc(1.0, i as f32 * 0.1)).collect();
        let matches = match_descriptors(&query, &reference, &MatchParams::default());
        let mut seen = std::collections::HashSet::new();
        for m in &matches {
            assert!(seen.insert(m.query_idx), "query matched twice");
        }
    }
}
