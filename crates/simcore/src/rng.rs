//! Seeded, splittable random-number streams for simulation.
//!
//! Every stochastic element in the reproduction (service-time jitter, link
//! loss, netem delay oscillation, workload phase offsets) draws from a
//! [`SimRng`]: a xoshiro256** generator seeded through SplitMix64. The
//! generator is implemented here rather than taken from the `rand` crate
//! so that stream values are stable across dependency upgrades — the
//! experiment outputs in EXPERIMENTS.md must be regenerable bit-for-bit.
//!
//! [`SimRng::split`] derives an independent child stream, letting each
//! simulated component own its RNG without cross-component draw-order
//! coupling (adding a draw in the link model must not perturb the
//! service-time sequence).

/// xoshiro256** PRNG with convenience distributions.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the last Box-Muller transform.
    gauss_spare: Option<f64>,
    /// Child-stream counter for `split`.
    splits: u64,
    seed: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a stream from a 64-bit seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            gauss_spare: None,
            splits: 0,
            seed,
        }
    }

    /// The seed this stream was created from (children record their derived
    /// seed). Diagnostic only.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child stream. Deterministic: the n-th split of
    /// a given stream is always the same stream.
    pub fn split(&mut self) -> SimRng {
        self.splits += 1;
        // Mix the parent seed with the split index through SplitMix64 so
        // children of consecutive splits are decorrelated.
        let mut sm = self.seed ^ self.splits.wrapping_mul(0xA24BAED4963EE407);
        let child_seed = splitmix64(&mut sm);
        SimRng::new(child_seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Uses Lemire's method; `bound` must
    /// be non-zero.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_bounded requires bound > 0");
        // Debiased multiply-shift.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let l = m as u64;
            if l >= bound || l >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Standard normal via Box-Muller (polar form avoided to keep the
    /// draw count per sample fixed at 2, aiding reproducibility reasoning).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // u1 in (0,1] to keep ln finite.
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Lognormal with the given log-space parameters. Used for service
    /// times: multiplicative noise with a hard positive support is the
    /// standard model for GPU kernel latency variation.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential with rate `lambda` (mean `1/lambda`).
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential requires lambda > 0");
        -(1.0 - self.next_f64()).ln() / lambda
    }

    /// Pick a uniformly random element index for a non-empty slice length.
    pub fn index(&mut self, len: usize) -> usize {
        self.next_bounded(len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from different seeds should diverge");
    }

    #[test]
    fn split_is_deterministic_and_independent() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let mut ca = a.split();
        let mut cb = b.split();
        for _ in 0..32 {
            assert_eq!(ca.next_u64(), cb.next_u64());
        }
        // Parent draws don't perturb an already-split child.
        let mut p = SimRng::new(9);
        let mut child1 = p.split();
        let _ = p.next_u64();
        let mut p2 = SimRng::new(9);
        let mut child2 = p2.split();
        for _ in 0..16 {
            assert_eq!(child1.next_u64(), child2.next_u64());
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_respects_bound() {
        let mut r = SimRng::new(5);
        for _ in 0..10_000 {
            assert!(r.next_bounded(7) < 7);
        }
        // All residues reachable.
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.next_bounded(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = SimRng::new(11);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        let hits = (0..20_000).filter(|_| r.bernoulli(0.25)).count();
        let freq = hits as f64 / 20_000.0;
        assert!((freq - 0.25).abs() < 0.02, "frequency {freq} far from 0.25");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(13);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_positive() {
        let mut r = SimRng::new(17);
        for _ in 0..10_000 {
            assert!(r.lognormal(0.0, 0.5) > 0.0);
        }
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(19);
        let n = 50_000;
        let mean = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
