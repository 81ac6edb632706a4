//! Grayscale image storage and the `primary` service's pre-processing
//! kernels: RGB→grayscale conversion and bilinear dimension reduction.

/// A row-major grayscale image with `f32` intensities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GrayImage {
    /// All-zero (black) image.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "degenerate image");
        GrayImage {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Wrap an existing buffer; `data.len()` must equal `width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height, "buffer size mismatch");
        GrayImage {
            width,
            height,
            data,
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// Clamped-border access: out-of-range coordinates read the nearest
    /// edge pixel. Used by convolution and gradient kernels.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let xc = x.clamp(0, self.width as isize - 1) as usize;
        let yc = y.clamp(0, self.height as isize - 1) as usize;
        self.data[yc * self.width + xc]
    }

    /// Bilinear sample at fractional coordinates (clamped).
    pub fn sample_bilinear(&self, x: f32, y: f32) -> f32 {
        let x = x.clamp(0.0, (self.width - 1) as f32);
        let y = y.clamp(0.0, (self.height - 1) as f32);
        let x0 = x.floor() as usize;
        let y0 = y.floor() as usize;
        let x1 = (x0 + 1).min(self.width - 1);
        let y1 = (y0 + 1).min(self.height - 1);
        let fx = x - x0 as f32;
        let fy = y - y0 as f32;
        let top = self.get(x0, y0) * (1.0 - fx) + self.get(x1, y0) * fx;
        let bot = self.get(x0, y1) * (1.0 - fx) + self.get(x1, y1) * fx;
        top * (1.0 - fy) + bot * fy
    }

    /// Bilinear resize to `(new_w, new_h)` — the `primary` stage's
    /// dimension reduction. Each pixel is [`Self::sample_bilinear`] at
    /// the centre of its source footprint; the column taps `(x0, x1, fx)`
    /// and row taps `(y0, y1, fy)` depend on one coordinate only, so they
    /// are computed once per column/row, by the same expressions.
    pub fn resize(&self, new_w: usize, new_h: usize) -> GrayImage {
        assert!(new_w > 0 && new_h > 0);
        // (lo, hi, frac) of `sample_bilinear` along one axis of length
        // `len`, at the footprint centre floored at 0 — both steps kept.
        let taps = |i: usize, scale: f32, len: usize| {
            let src = ((i as f32 + 0.5) * scale - 0.5).max(0.0);
            let src = src.clamp(0.0, (len - 1) as f32);
            let lo = src.floor() as usize;
            (lo, (lo + 1).min(len - 1), src - lo as f32)
        };
        let sx = self.width as f32 / new_w as f32;
        let sy = self.height as f32 / new_h as f32;
        let cols: Vec<_> = (0..new_w).map(|x| taps(x, sx, self.width)).collect();
        let mut data = Vec::with_capacity(new_w * new_h);
        for y in 0..new_h {
            let (y0, y1, fy) = taps(y, sy, self.height);
            let row0 = &self.data[y0 * self.width..(y0 + 1) * self.width];
            let row1 = &self.data[y1 * self.width..(y1 + 1) * self.width];
            data.extend(cols.iter().map(|&(x0, x1, fx)| {
                let top = row0[x0] * (1.0 - fx) + row0[x1] * fx;
                let bot = row1[x0] * (1.0 - fx) + row1[x1] * fx;
                top * (1.0 - fy) + bot * fy
            }));
        }
        GrayImage::from_vec(new_w, new_h, data)
    }

    /// Downscale by exactly 2 via 2×2 box averaging — used between
    /// pyramid octaves where the Gaussian prefilter already bandlimits.
    pub fn half(&self) -> GrayImage {
        let w = (self.width / 2).max(1);
        let h = (self.height / 2).max(1);
        let mut out = GrayImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let a = self.get(2 * x, 2 * y);
                let b = self.get_clamped(2 * x as isize + 1, 2 * y as isize);
                let c = self.get_clamped(2 * x as isize, 2 * y as isize + 1);
                let d = self.get_clamped(2 * x as isize + 1, 2 * y as isize + 1);
                out.set(x, y, (a + b + c + d) / 4.0);
            }
        }
        out
    }

    /// Central-difference gradient (dx, dy) at pixel (x, y), clamped
    /// borders. Interior pixels — every sample the orientation and
    /// descriptor kernels take — read the four neighbours straight from
    /// the slice; the clamps only ever matter on the border.
    #[inline]
    pub fn gradient(&self, x: usize, y: usize) -> (f32, f32) {
        let w = self.width;
        if x >= 1 && y >= 1 && x + 1 < w && y + 1 < self.height {
            let i = y * w + x;
            let d = &self.data;
            return ((d[i + 1] - d[i - 1]) * 0.5, (d[i + w] - d[i - w]) * 0.5);
        }
        let x = x as isize;
        let y = y as isize;
        let dx = (self.get_clamped(x + 1, y) - self.get_clamped(x - 1, y)) * 0.5;
        let dy = (self.get_clamped(x, y + 1) - self.get_clamped(x, y - 1)) * 0.5;
        (dx, dy)
    }

    /// Mean intensity — handy as a cheap content checksum in tests.
    pub fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resize_preserves_constant_image() {
        let img = GrayImage::from_vec(8, 8, vec![0.5; 64]);
        let small = img.resize(3, 5);
        assert_eq!(small.width(), 3);
        assert_eq!(small.height(), 5);
        for &v in small.data() {
            assert!((v - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn resize_identity_size_close_to_original() {
        let mut img = GrayImage::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                img.set(x, y, (x + 4 * y) as f32 / 16.0);
            }
        }
        let same = img.resize(4, 4);
        for (a, b) in img.data().iter().zip(same.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn half_averages_quads() {
        let img = GrayImage::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let h = img.half();
        assert_eq!(h.width(), 1);
        assert_eq!(h.height(), 1);
        assert!((h.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn clamped_access_replicates_edges() {
        let img = GrayImage::from_vec(2, 1, vec![0.25, 0.75]);
        assert_eq!(img.get_clamped(-5, 0), 0.25);
        assert_eq!(img.get_clamped(7, 0), 0.75);
        assert_eq!(img.get_clamped(0, -3), 0.25);
    }

    #[test]
    fn bilinear_interpolates_midpoint() {
        let img = GrayImage::from_vec(2, 1, vec![0.0, 1.0]);
        assert!((img.sample_bilinear(0.5, 0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gradient_of_ramp_is_constant() {
        let mut img = GrayImage::new(5, 5);
        for y in 0..5 {
            for x in 0..5 {
                img.set(x, y, x as f32 * 0.1);
            }
        }
        let (dx, dy) = img.gradient(2, 2);
        assert!((dx - 0.1).abs() < 1e-6);
        assert!(dy.abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_validates_len() {
        GrayImage::from_vec(3, 3, vec![0.0; 8]);
    }
}
