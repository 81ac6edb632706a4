//! Improved Fisher-vector encoding (Perronnin et al., CVPR 2010) — the
//! aggregation half of the `encoding` service.
//!
//! Given a diagonal GMM with K components over d-dimensional (PCA-reduced)
//! descriptors, a set of descriptors is encoded as the normalized gradient
//! of its average log-likelihood with respect to the GMM means and
//! variances: a fixed-length `2 K d` vector regardless of how many
//! descriptors the frame produced. Power ("signed square root") and L2
//! normalization follow the "improved FV" recipe.

use crate::gmm::{ln_table, DiagGmm};

/// Fisher-vector encoder wrapping a fitted GMM.
#[derive(Debug, Clone)]
pub struct FisherEncoder {
    gmm: DiagGmm,
    /// `gmm.vars[k][j].ln()`, for the posteriors.
    ln_vars: Vec<Vec<f64>>,
    /// `gmm.vars[k][j].sqrt()`, the per-element standard deviations.
    sigmas: Vec<Vec<f64>>,
}

impl FisherEncoder {
    /// Wrap `gmm`, taking the `ln` and `sqrt` of every variance once here
    /// rather than per element of every encoded descriptor.
    pub fn new(gmm: DiagGmm) -> Self {
        let ln_vars = ln_table(&gmm.vars);
        let sigmas = gmm
            .vars
            .iter()
            .map(|v| v.iter().map(|s| s.sqrt()).collect())
            .collect();
        FisherEncoder {
            gmm,
            ln_vars,
            sigmas,
        }
    }

    pub fn gmm(&self) -> &DiagGmm {
        &self.gmm
    }

    /// Output dimensionality: `2 × K × d`.
    pub fn dim(&self) -> usize {
        2 * self.gmm.n_components() * self.gmm.dim()
    }

    /// Encode a set of descriptors into one Fisher vector.
    ///
    /// An empty descriptor set encodes to the zero vector (a frame with no
    /// features matches nothing, which is the desired downstream effect).
    pub fn encode(&self, descriptors: &[Vec<f64>]) -> Vec<f64> {
        let k = self.gmm.n_components();
        let d = self.gmm.dim();
        let mut fv = vec![0.0f64; 2 * k * d];
        if descriptors.is_empty() {
            return fv;
        }
        let n = descriptors.len() as f64;

        for x in descriptors {
            assert_eq!(x.len(), d, "descriptor dimension mismatch");
            let gamma = self.gmm.posteriors_with(x, &self.ln_vars);
            for c in 0..k {
                let g = gamma[c];
                if g < 1e-12 {
                    continue;
                }
                for j in 0..d {
                    let u = (x[j] - self.gmm.means[c][j]) / self.sigmas[c][j];
                    // Gradient w.r.t. mean.
                    fv[c * d + j] += g * u;
                    // Gradient w.r.t. variance.
                    fv[k * d + c * d + j] += g * (u * u - 1.0);
                }
            }
        }

        // Fisher information normalization.
        for c in 0..k {
            let wc = self.gmm.weights[c].max(1e-12);
            let mean_scale = 1.0 / (n * wc.sqrt());
            let var_scale = 1.0 / (n * (2.0 * wc).sqrt());
            for j in 0..d {
                fv[c * d + j] *= mean_scale;
                fv[k * d + c * d + j] *= var_scale;
            }
        }

        // Improved FV: power normalization then L2.
        for v in &mut fv {
            *v = v.signum() * v.abs().sqrt();
        }
        let norm = fv.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for v in &mut fv {
                *v /= norm;
            }
        }
        fv
    }
}

/// Cosine similarity between two (normalized) Fisher vectors.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na < 1e-12 || nb < 1e-12 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmm::DiagGmm;
    use simcore::SimRng;

    fn encoder() -> FisherEncoder {
        let mut rng = SimRng::new(1);
        let data: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                let (cx, cy) = if i % 2 == 0 { (-3.0, 0.0) } else { (3.0, 1.0) };
                vec![cx + rng.normal() * 0.4, cy + rng.normal() * 0.4]
            })
            .collect();
        FisherEncoder::new(DiagGmm::fit(&data, 2, 20, &mut rng))
    }

    #[test]
    fn dimensionality_is_2kd() {
        let enc = encoder();
        assert_eq!(enc.dim(), 2 * 2 * 2);
        let fv = enc.encode(&[vec![0.0, 0.0]]);
        assert_eq!(fv.len(), enc.dim());
    }

    #[test]
    fn empty_set_encodes_to_zero() {
        let enc = encoder();
        let fv = enc.encode(&[]);
        assert!(fv.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn encoded_vectors_are_unit_norm() {
        let enc = encoder();
        let mut rng = SimRng::new(2);
        let descs: Vec<Vec<f64>> = (0..20)
            .map(|_| vec![rng.normal() * 2.0, rng.normal() * 2.0])
            .collect();
        let fv = enc.encode(&descs);
        let norm = fv.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
    }

    #[test]
    fn similar_sets_closer_than_different_sets() {
        let enc = encoder();
        let mut rng = SimRng::new(3);
        let set_a: Vec<Vec<f64>> = (0..30)
            .map(|_| vec![-3.0 + rng.normal() * 0.3, rng.normal() * 0.3])
            .collect();
        let set_a2: Vec<Vec<f64>> = (0..30)
            .map(|_| vec![-3.0 + rng.normal() * 0.3, rng.normal() * 0.3])
            .collect();
        let set_b: Vec<Vec<f64>> = (0..30)
            .map(|_| vec![3.0 + rng.normal() * 0.3, 1.0 + rng.normal() * 0.3])
            .collect();
        let fa = enc.encode(&set_a);
        let fa2 = enc.encode(&set_a2);
        let fb = enc.encode(&set_b);
        let sim_same = cosine(&fa, &fa2);
        let sim_diff = cosine(&fa, &fb);
        assert!(
            sim_same > sim_diff + 0.2,
            "same {sim_same} vs diff {sim_diff}"
        );
    }

    #[test]
    fn encoding_is_permutation_invariant() {
        let enc = encoder();
        let descs = vec![vec![1.0, 0.5], vec![-2.0, 0.1], vec![0.3, -0.7]];
        let mut rev = descs.clone();
        rev.reverse();
        let a = enc.encode(&descs);
        let b = enc.encode(&rev);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    /// `encode` as it stood when every element took `var.sqrt()` and
    /// every descriptor's posteriors took `var.ln()` per element. Frozen.
    fn reference_encode(gmm: &DiagGmm, descriptors: &[Vec<f64>]) -> Vec<f64> {
        let (k, d) = (gmm.n_components(), gmm.dim());
        let mut fv = vec![0.0f64; 2 * k * d];
        if descriptors.is_empty() {
            return fv;
        }
        let n = descriptors.len() as f64;
        for x in descriptors {
            let gamma = crate::gmm::tests::reference_posteriors(gmm, x);
            for c in 0..k {
                let g = gamma[c];
                if g < 1e-12 {
                    continue;
                }
                for j in 0..d {
                    let sigma = gmm.vars[c][j].sqrt();
                    let u = (x[j] - gmm.means[c][j]) / sigma;
                    fv[c * d + j] += g * u;
                    fv[k * d + c * d + j] += g * (u * u - 1.0);
                }
            }
        }
        for c in 0..k {
            let wc = gmm.weights[c].max(1e-12);
            let mean_scale = 1.0 / (n * wc.sqrt());
            let var_scale = 1.0 / (n * (2.0 * wc).sqrt());
            for j in 0..d {
                fv[c * d + j] *= mean_scale;
                fv[k * d + c * d + j] *= var_scale;
            }
        }
        for v in &mut fv {
            *v = v.signum() * v.abs().sqrt();
        }
        let norm = fv.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for v in &mut fv {
                *v /= norm;
            }
        }
        fv
    }

    #[test]
    fn encode_matches_the_per_element_reference() {
        use crate::gmm::tests::bits;
        let floored = vec![vec![1.0, -2.0]; 40];
        let encoders = [
            encoder(),
            FisherEncoder::new(DiagGmm::fit(&floored, 3, 10, &mut SimRng::new(4))),
        ];
        let mut rng = SimRng::new(5);
        let descs: Vec<Vec<f64>> = (0..71)
            .map(|_| vec![rng.normal() * 3.0, rng.normal() * 2.0])
            .collect();
        for enc in &encoders {
            for set in [&descs[..1], &descs[..], &floored[..]] {
                assert_eq!(
                    bits(&enc.encode(set)),
                    bits(&reference_encode(enc.gmm(), set))
                );
            }
        }
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }
}
