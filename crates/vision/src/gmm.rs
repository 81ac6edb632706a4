//! Diagonal-covariance Gaussian mixture model fitted with EM, initialized
//! by k-means++ — the generative model underlying Fisher-vector encoding.

use simcore::SimRng;

/// A fitted diagonal-covariance GMM.
#[derive(Debug, Clone)]
pub struct DiagGmm {
    /// Mixture weights, sum to 1.
    pub weights: Vec<f64>,
    /// Component means, `means[k]` length `d`.
    pub means: Vec<Vec<f64>>,
    /// Component variances (diagonal), same shape as means, floored.
    pub vars: Vec<Vec<f64>>,
}

/// Variance floor: keeps posteriors finite on degenerate clusters.
const VAR_FLOOR: f64 = 1e-4;

impl DiagGmm {
    /// Fit `k` components to `data` with `iters` EM iterations.
    pub fn fit(data: &[Vec<f64>], k: usize, iters: usize, rng: &mut SimRng) -> DiagGmm {
        assert!(k >= 1 && data.len() >= k, "need at least k samples");
        let d = data[0].len();
        assert!(data.iter().all(|r| r.len() == d), "ragged data");

        // k-means++ seeding.
        let mut means = kmeanspp(data, k, rng);
        // Global variance as the starting spread.
        let global_mean: Vec<f64> = (0..d)
            .map(|j| data.iter().map(|r| r[j]).sum::<f64>() / data.len() as f64)
            .collect();
        let global_var: Vec<f64> = (0..d)
            .map(|j| {
                (data
                    .iter()
                    .map(|r| (r[j] - global_mean[j]).powi(2))
                    .sum::<f64>()
                    / data.len() as f64)
                    .max(VAR_FLOOR)
            })
            .collect();
        let mut vars = vec![global_var.clone(); k];
        let mut weights = vec![1.0 / k as f64; k];

        let mut resp = vec![vec![0.0f64; k]; data.len()];
        for _ in 0..iters {
            // E step: responsibilities via log-sum-exp.
            let ln_vars = ln_table(&vars);
            for (i, x) in data.iter().enumerate() {
                let mut logp = vec![0.0f64; k];
                for c in 0..k {
                    logp[c] = weights[c].max(1e-300).ln()
                        + log_gauss(x, &means[c], &vars[c], &ln_vars[c]);
                }
                let m = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let denom: f64 = logp.iter().map(|&lp| (lp - m).exp()).sum();
                for c in 0..k {
                    resp[i][c] = (logp[c] - m).exp() / denom;
                }
            }
            // M step.
            for c in 0..k {
                let nk: f64 = resp.iter().map(|r| r[c]).sum();
                if nk < 1e-9 {
                    // Dead component: re-seed on the point worst explained.
                    let worst = (0..data.len())
                        .max_by(|&a, &b| {
                            let pa: f64 = resp[a].iter().sum();
                            let pb: f64 = resp[b].iter().sum();
                            pa.partial_cmp(&pb).expect("finite resp")
                        })
                        .expect("nonempty data");
                    means[c] = data[worst].clone();
                    vars[c] = global_var.clone();
                    weights[c] = 1.0 / k as f64;
                    continue;
                }
                weights[c] = nk / data.len() as f64;
                for j in 0..d {
                    let mu = data
                        .iter()
                        .enumerate()
                        .map(|(i, x)| resp[i][c] * x[j])
                        .sum::<f64>()
                        / nk;
                    means[c][j] = mu;
                }
                for j in 0..d {
                    let var = data
                        .iter()
                        .enumerate()
                        .map(|(i, x)| resp[i][c] * (x[j] - means[c][j]).powi(2))
                        .sum::<f64>()
                        / nk;
                    vars[c][j] = var.max(VAR_FLOOR);
                }
            }
            // Renormalize weights (numerical drift).
            let wsum: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= wsum;
            }
        }

        DiagGmm {
            weights,
            means,
            vars,
        }
    }

    pub fn n_components(&self) -> usize {
        self.weights.len()
    }

    pub fn dim(&self) -> usize {
        self.means[0].len()
    }

    /// Posterior responsibilities `p(k | x)`.
    pub fn posteriors(&self, x: &[f64]) -> Vec<f64> {
        self.posteriors_with(x, &ln_table(&self.vars))
    }

    /// [`Self::posteriors`] with `ln_table(&self.vars)` computed by the
    /// caller, once per model rather than once per descriptor.
    pub(crate) fn posteriors_with(&self, x: &[f64], ln_vars: &[Vec<f64>]) -> Vec<f64> {
        let k = self.n_components();
        let mut logp = vec![0.0f64; k];
        for (c, lp) in logp.iter_mut().enumerate() {
            *lp = self.weights[c].max(1e-300).ln()
                + log_gauss(x, &self.means[c], &self.vars[c], &ln_vars[c]);
        }
        let m = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let denom: f64 = logp.iter().map(|&lp| (lp - m).exp()).sum();
        logp.iter().map(|&lp| (lp - m).exp() / denom).collect()
    }

    /// Average log-likelihood of a dataset under the model.
    pub fn avg_log_likelihood(&self, data: &[Vec<f64>]) -> f64 {
        let ln_vars = ln_table(&self.vars);
        data.iter()
            .map(|x| {
                let lps: Vec<f64> = (0..self.n_components())
                    .map(|c| {
                        self.weights[c].max(1e-300).ln()
                            + log_gauss(x, &self.means[c], &self.vars[c], &ln_vars[c])
                    })
                    .collect();
                let m = lps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                m + lps.iter().map(|&lp| (lp - m).exp()).sum::<f64>().ln()
            })
            .sum::<f64>()
            / data.len() as f64
    }
}

/// `ln` of each entry: the `var.ln()` the log density needs, taken once
/// per model instead of once per element per sample (the same call on the
/// same operand, so the same bits).
pub(crate) fn ln_table(vars: &[Vec<f64>]) -> Vec<Vec<f64>> {
    vars.iter()
        .map(|v| v.iter().map(|s| s.ln()).collect())
        .collect()
}

/// Diagonal Gaussian log density; `ln_var[j]` is `var[j].ln()`.
fn log_gauss(x: &[f64], mean: &[f64], var: &[f64], ln_var: &[f64]) -> f64 {
    let mut acc = 0.0;
    for j in 0..x.len() {
        let diff = x[j] - mean[j];
        acc += -0.5 * (diff * diff / var[j] + ln_var[j] + (2.0 * std::f64::consts::PI).ln());
    }
    acc
}

/// k-means++ seeding: first centre uniform, subsequent centres sampled
/// proportional to squared distance from the nearest existing centre.
fn kmeanspp(data: &[Vec<f64>], k: usize, rng: &mut SimRng) -> Vec<Vec<f64>> {
    let mut centres = Vec::with_capacity(k);
    centres.push(data[rng.index(data.len())].clone());
    let mut d2: Vec<f64> = data.iter().map(|x| dist2(x, &centres[0])).collect();
    while centres.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= 0.0 {
            rng.index(data.len())
        } else {
            let mut target = rng.next_f64() * total;
            let mut chosen = data.len() - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        };
        centres.push(data[idx].clone());
        for (i, x) in data.iter().enumerate() {
            d2[i] = d2[i].min(dist2(x, centres.last().expect("nonempty")));
        }
    }
    centres
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Two well-separated 2-D blobs.
    fn two_blobs(rng: &mut SimRng, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let (cx, cy) = if i % 2 == 0 { (-5.0, 0.0) } else { (5.0, 2.0) };
                vec![cx + rng.normal() * 0.5, cy + rng.normal() * 0.5]
            })
            .collect()
    }

    #[test]
    fn recovers_two_clusters() {
        let mut rng = SimRng::new(1);
        let data = two_blobs(&mut rng, 400);
        let gmm = DiagGmm::fit(&data, 2, 30, &mut rng);
        let mut mx: Vec<f64> = gmm.means.iter().map(|m| m[0]).collect();
        mx.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert!((mx[0] + 5.0).abs() < 0.5, "mean {}", mx[0]);
        assert!((mx[1] - 5.0).abs() < 0.5, "mean {}", mx[1]);
        for w in &gmm.weights {
            assert!((w - 0.5).abs() < 0.1, "weight {w}");
        }
    }

    #[test]
    fn posteriors_sum_to_one_and_separate() {
        let mut rng = SimRng::new(2);
        let data = two_blobs(&mut rng, 400);
        let gmm = DiagGmm::fit(&data, 2, 30, &mut rng);
        let p_left = gmm.posteriors(&[-5.0, 0.0]);
        let p_right = gmm.posteriors(&[5.0, 2.0]);
        assert!((p_left.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((p_right.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Each point strongly assigned to a distinct component.
        let l = p_left
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("nonempty");
        let r = p_right
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("nonempty");
        assert_ne!(l, r);
        assert!(p_left[l] > 0.99);
        assert!(p_right[r] > 0.99);
    }

    #[test]
    fn em_improves_likelihood() {
        let mut rng = SimRng::new(3);
        let data = two_blobs(&mut rng, 300);
        let mut rng_a = SimRng::new(10);
        let short = DiagGmm::fit(&data, 2, 1, &mut rng_a);
        let mut rng_b = SimRng::new(10);
        let long = DiagGmm::fit(&data, 2, 25, &mut rng_b);
        assert!(
            long.avg_log_likelihood(&data) >= short.avg_log_likelihood(&data) - 1e-9,
            "EM failed to improve likelihood"
        );
    }

    #[test]
    fn variances_floored() {
        // All-identical points would make variance collapse to zero.
        let mut rng = SimRng::new(4);
        let data = vec![vec![1.0, 1.0]; 50];
        let gmm = DiagGmm::fit(&data, 1, 10, &mut rng);
        for v in &gmm.vars[0] {
            assert!(*v >= VAR_FLOOR);
        }
    }

    #[test]
    fn weights_normalized() {
        let mut rng = SimRng::new(5);
        let data = two_blobs(&mut rng, 200);
        let gmm = DiagGmm::fit(&data, 4, 15, &mut rng);
        assert!((gmm.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// Every bit of a float slice, for exact comparison (NaN-safe).
    pub(crate) fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`DiagGmm::posteriors`] as it stood when every log density took
    /// `var.ln()` per element: the oracle for the `ln_table` path. Frozen.
    pub(crate) fn reference_posteriors(gmm: &DiagGmm, x: &[f64]) -> Vec<f64> {
        let log_gauss = |mean: &[f64], var: &[f64]| {
            let mut acc = 0.0;
            for j in 0..x.len() {
                let diff = x[j] - mean[j];
                acc +=
                    -0.5 * (diff * diff / var[j] + var[j].ln() + (2.0 * std::f64::consts::PI).ln());
            }
            acc
        };
        let logp: Vec<f64> = (0..gmm.n_components())
            .map(|c| gmm.weights[c].max(1e-300).ln() + log_gauss(&gmm.means[c], &gmm.vars[c]))
            .collect();
        let m = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let denom: f64 = logp.iter().map(|&lp| (lp - m).exp()).sum();
        logp.iter().map(|&lp| (lp - m).exp() / denom).collect()
    }

    /// Two blobs, and a set whose variances all sit on the floor. The
    /// fitted models themselves are pinned to the per-element `ln` by
    /// `tests/isa_digest.rs`, whose digest the old code computed.
    #[test]
    fn posteriors_match_the_per_element_ln_reference() {
        let sets = [
            two_blobs(&mut SimRng::new(13), 200),
            vec![vec![1.0, -2.0]; 40],
        ];
        for data in &sets {
            let gmm = DiagGmm::fit(data, 3, 10, &mut SimRng::new(14));
            for x in data.iter().take(20).chain([&vec![0.5, 7.0]]) {
                assert_eq!(
                    bits(&gmm.posteriors(x)),
                    bits(&reference_posteriors(&gmm, x))
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = {
            let mut rng = SimRng::new(6);
            two_blobs(&mut rng, 100)
        };
        let a = DiagGmm::fit(&data, 2, 10, &mut SimRng::new(7));
        let b = DiagGmm::fit(&data, 2, 10, &mut SimRng::new(7));
        assert_eq!(a.means, b.means);
        assert_eq!(a.weights, b.weights);
    }
}
