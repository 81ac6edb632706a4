//! Gaussian scale space and difference-of-Gaussians — the front half of
//! the `sift` service.

use crate::image::GrayImage;

/// Build a 1-D Gaussian kernel with radius `ceil(3σ)`, normalized to sum 1.
pub fn gaussian_kernel(sigma: f32) -> Vec<f32> {
    assert!(sigma > 0.0, "sigma must be positive");
    let radius = (3.0 * sigma).ceil() as isize;
    let mut k: Vec<f32> = (-radius..=radius)
        .map(|i| (-((i * i) as f32) / (2.0 * sigma * sigma)).exp())
        .collect();
    let sum: f32 = k.iter().sum();
    for v in &mut k {
        *v /= sum;
    }
    k
}

/// `dst[x] += k · src[x]`: one tap of a convolution pass, applied to a
/// whole run of output pixels at once. Every pixel of `dst` starts at
/// `+0.0` (zeroed, never assigned from the first tap — `0.0 + (-0.0)` is
/// `+0.0`) and receives its taps in kernel order, so per-pixel
/// accumulation is that of the naive convolution while the loop runs
/// over two contiguous slices and vectorises over `x`. It is an index
/// `while` loop rather than `zip`: optimised builds vectorise both alike,
/// but unoptimised ones, which the real-time pipeline tests run, spend
/// half as long in the scale space without the per-element iterator calls.
#[inline]
fn add_tap(dst: &mut [f32], kv: f32, src: &[f32]) {
    let src = &src[..dst.len()];
    let mut x = 0;
    while x < dst.len() {
        dst[x] += kv * src[x];
        x += 1;
    }
}

/// Separable blur with a precomputed (odd-length, normalized) kernel.
///
/// Both passes accumulate 32 output pixels at a time over all taps; the
/// output is bit-identical to the naive clamped convolution. The
/// horizontal pass reads each row through an edge-replicated copy, so no
/// tap clamps; the vertical pass clamps its row index once per tap.
pub fn gaussian_blur_with(img: &GrayImage, k: &[f32]) -> GrayImage {
    blur_into(img, k, &mut Vec::new(), &mut Vec::new())
}

/// Output pixels [`convolve_row`] holds in registers at once.
const BLOCK: usize = 32;

/// `out[x] = Σᵢ k[i] · tap(i)[x]`, each pixel from `+0.0` in kernel order,
/// as [`add_tap`] would leave a zeroed `out`, but [`BLOCK`] pixels take
/// all taps in an accumulator array before one store. A tail narrower
/// than a block is zeroed and takes [`add_tap`] per tap.
fn convolve_row<'a>(out: &mut [f32], k: &[f32], tap: impl Fn(usize) -> &'a [f32]) {
    let x0 = out.len() - out.len() % BLOCK;
    let (blocks, tail) = out.split_at_mut(x0);
    for (b, block) in blocks.chunks_exact_mut(BLOCK).enumerate() {
        let mut acc = [0.0; BLOCK];
        for (i, &kv) in k.iter().enumerate() {
            add_tap(&mut acc, kv, &tap(i)[b * BLOCK..(b + 1) * BLOCK]);
        }
        block.copy_from_slice(&acc);
    }
    tail.fill(0.0);
    for (i, &kv) in k.iter().enumerate() {
        add_tap(tail, kv, &tap(i)[x0..]);
    }
}

/// [`gaussian_blur_with`] with caller-owned scratch buffers, so
/// [`Pyramid::build`] allocates them once per frame instead of once per
/// level: `tmp` holds the horizontal pass (`w·h`), `pad` one row with
/// `radius` copies of its first and last pixel on either side.
fn blur_into(img: &GrayImage, k: &[f32], tmp: &mut Vec<f32>, pad: &mut Vec<f32>) -> GrayImage {
    debug_assert_eq!(k.len() % 2, 1, "kernel must have odd length");
    let radius = k.len() / 2;
    let (w, h) = (img.width(), img.height());
    tmp.resize(w * h, 0.0);
    pad.resize(w + 2 * radius, 0.0);
    // The clamped read `row[clamp(x + i - radius)]` is `pad[x + i]`, also
    // for a kernel wider than the row.
    for (row, out_row) in img.data().chunks_exact(w).zip(tmp.chunks_exact_mut(w)) {
        pad[..radius].fill(row[0]);
        pad[radius..radius + w].copy_from_slice(row);
        pad[radius + w..].fill(row[w - 1]);
        convolve_row(out_row, k, |i| &pad[i..]);
    }
    let tmp = &tmp[..];
    let mut out = GrayImage::new(w, h);
    for (y, out_row) in out.data_mut().chunks_exact_mut(w).enumerate() {
        convolve_row(out_row, k, |i| {
            let yi = (y + i).saturating_sub(radius).min(h - 1);
            &tmp[yi * w..(yi + 1) * w]
        });
    }
    out
}

/// Per-build memo of Gaussian kernels, keyed by sigma quantized to
/// 1e-4 steps. The pyramid builder asks for the same handful of sigmas
/// (one prefilter + `scales + 2` identical deltas per octave), so a tiny
/// linear map beats hashing. Quantization only dedups keys — the stored
/// kernel is computed from the *first* exact sigma seen, and equal
/// sigmas (the cross-octave case) are bit-identical by construction.
#[derive(Debug, Default)]
pub struct KernelCache {
    entries: Vec<(u32, Vec<f32>)>,
}

impl KernelCache {
    fn key(sigma: f32) -> u32 {
        (sigma * 1e4).round() as u32
    }

    /// Kernel for `sigma`, computed on first use and reused after.
    pub fn get(&mut self, sigma: f32) -> &[f32] {
        let key = Self::key(sigma);
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            return &self.entries[pos].1;
        }
        self.entries.push((key, gaussian_kernel(sigma)));
        &self.entries.last().expect("just pushed").1
    }

    /// Number of distinct kernels computed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One octave of scale space: progressively blurred copies at one
/// resolution, plus their DoG differences.
#[derive(Debug, Clone)]
pub struct Octave {
    /// Blurred levels, `levels[s]` has effective sigma `sigma0 * k^s`.
    pub levels: Vec<GrayImage>,
    /// `dogs[s] = levels[s + 1] - levels[s]`.
    pub dogs: Vec<GrayImage>,
    /// Scale factor of this octave relative to the input image (1, 2, 4…).
    pub downscale: u32,
}

/// The full scale-space pyramid.
#[derive(Debug, Clone)]
pub struct Pyramid {
    pub octaves: Vec<Octave>,
    pub sigma0: f32,
    pub scales_per_octave: usize,
}

impl Pyramid {
    /// Build a pyramid with `n_octaves` octaves and `scales + 3` levels
    /// per octave (the +3 padding lets DoG extrema be localized at every
    /// intended scale, as in Lowe's construction).
    pub fn build(img: &GrayImage, n_octaves: usize, scales: usize, sigma0: f32) -> Pyramid {
        assert!(n_octaves >= 1 && scales >= 1);
        let k = 2f32.powf(1.0 / scales as f32);
        let mut octaves = Vec::with_capacity(n_octaves);
        // Every octave restarts the sigma ladder at `sigma0`, so the
        // incremental-blur deltas repeat exactly across octaves — memoize
        // the kernels instead of re-deriving ceil(3σ)+1 exponentials per
        // level per octave.
        let mut kernels = KernelCache::default();
        let (mut tmp, mut pad) = (Vec::new(), Vec::new());
        let mut base = blur_into(img, kernels.get(sigma0), &mut tmp, &mut pad);
        let mut downscale = 1u32;
        for _ in 0..n_octaves {
            let n_levels = scales + 3;
            let mut levels = Vec::with_capacity(n_levels);
            levels.push(base);
            let mut sigma_prev = sigma0;
            for _ in 1..n_levels {
                let sigma_next = sigma_prev * k;
                // Incremental blur: blur the previous level by the sigma
                // delta in quadrature.
                let delta = (sigma_next * sigma_next - sigma_prev * sigma_prev).sqrt();
                let kernel = kernels.get(delta.max(1e-3));
                let next = blur_into(levels.last().expect("nonempty"), kernel, &mut tmp, &mut pad);
                levels.push(next);
                sigma_prev = sigma_next;
            }
            let dogs = levels
                .windows(2)
                .map(|w| {
                    let diff = w[1].data().iter().zip(w[0].data()).map(|(b, a)| b - a);
                    GrayImage::from_vec(w[0].width(), w[0].height(), diff.collect())
                })
                .collect();
            let next_base = levels[scales].half();
            octaves.push(Octave {
                levels,
                dogs,
                downscale,
            });
            if next_base.width() < 16 || next_base.height() < 16 {
                break;
            }
            base = next_base;
            downscale *= 2;
        }
        Pyramid {
            octaves,
            sigma0,
            scales_per_octave: scales,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_normalized_and_symmetric() {
        let k = gaussian_kernel(1.5);
        let sum: f32 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert_eq!(k.len() % 2, 1);
        for i in 0..k.len() / 2 {
            assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-6);
        }
        // Peak at centre.
        let mid = k.len() / 2;
        assert!(k[mid] >= *k.first().unwrap());
    }

    #[test]
    fn cached_kernels_agree_with_fresh() {
        let mut cache = KernelCache::default();
        for &sigma in &[0.5f32, 1.2, 1.6, 2.0, 1.2] {
            let cached = cache.get(sigma).to_vec();
            assert_eq!(cached, gaussian_kernel(sigma), "sigma {sigma}");
        }
        // The repeated sigma hit the cache instead of recomputing.
        assert_eq!(cache.len(), 4);
        assert!(!cache.is_empty());
    }

    #[test]
    fn blur_with_kernel_matches_naive_clamped_convolution() {
        // Deterministic pseudo-random image, width chosen so interior,
        // border, and kernel-wider-than-image paths all exercise.
        for (w, h) in [(23usize, 17usize), (5, 5), (3, 9)] {
            let data: Vec<f32> = (0..w * h)
                .map(|i| ((i * 2654435761) % 1000) as f32 / 1000.0)
                .collect();
            let img = GrayImage::from_vec(w, h, data);
            for sigma in [0.6f32, 1.6, 3.0] {
                let k = gaussian_kernel(sigma);
                let radius = (k.len() / 2) as isize;
                let fast = gaussian_blur_with(&img, &k);
                // Naive reference: clamped taps in the same order.
                let mut tmp = GrayImage::new(w, h);
                for y in 0..h {
                    for x in 0..w {
                        let mut acc = 0.0;
                        for (i, &kv) in k.iter().enumerate() {
                            acc +=
                                kv * img.get_clamped(x as isize + i as isize - radius, y as isize);
                        }
                        tmp.set(x, y, acc);
                    }
                }
                let mut naive = GrayImage::new(w, h);
                for y in 0..h {
                    for x in 0..w {
                        let mut acc = 0.0;
                        for (i, &kv) in k.iter().enumerate() {
                            acc +=
                                kv * tmp.get_clamped(x as isize, y as isize + i as isize - radius);
                        }
                        naive.set(x, y, acc);
                    }
                }
                for (a, b) in fast.data().iter().zip(naive.data()) {
                    assert_eq!(a, b, "blur must be bit-identical ({w}x{h}, sigma {sigma})");
                }
            }
        }
    }

    #[test]
    fn blur_preserves_constant_image() {
        let img = GrayImage::from_vec(16, 16, vec![0.7; 256]);
        let b = gaussian_blur_with(&img, &gaussian_kernel(2.0));
        for &v in b.data() {
            assert!((v - 0.7).abs() < 1e-4);
        }
    }

    #[test]
    fn blur_reduces_variance() {
        // Checkerboard has high variance; blurring must smooth it.
        let mut img = GrayImage::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                img.set(x, y, ((x + y) % 2) as f32);
            }
        }
        let var = |im: &GrayImage| {
            let m = im.mean();
            im.data().iter().map(|v| (v - m) * (v - m)).sum::<f32>() / im.data().len() as f32
        };
        let blurred = gaussian_blur_with(&img, &gaussian_kernel(1.0));
        assert!(var(&blurred) < var(&img) * 0.5);
    }

    #[test]
    fn pyramid_shape() {
        let img = GrayImage::new(128, 64);
        let p = Pyramid::build(&img, 3, 2, 1.6);
        assert_eq!(p.octaves.len(), 3);
        for (i, oct) in p.octaves.iter().enumerate() {
            assert_eq!(oct.levels.len(), 2 + 3);
            assert_eq!(oct.dogs.len(), 2 + 2);
            assert_eq!(oct.downscale, 1 << i);
            assert_eq!(oct.levels[0].width(), 128 >> i);
        }
    }

    #[test]
    fn pyramid_stops_at_tiny_images() {
        let img = GrayImage::new(40, 40);
        let p = Pyramid::build(&img, 10, 2, 1.6);
        assert!(p.octaves.len() < 10, "should stop before 10 octaves");
        let last = p.octaves.last().unwrap();
        assert!(last.levels[0].width() >= 10);
    }

    #[test]
    fn dog_of_constant_image_is_zero() {
        let img = GrayImage::from_vec(32, 32, vec![0.3; 1024]);
        let p = Pyramid::build(&img, 1, 2, 1.6);
        for dog in &p.octaves[0].dogs {
            for &v in dog.data() {
                assert!(v.abs() < 1e-4);
            }
        }
    }
}
