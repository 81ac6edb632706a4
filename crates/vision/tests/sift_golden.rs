//! Golden test for the SIFT front end: the optimised kernels in
//! `vision::{image, pyramid, keypoints, descriptor}` must reproduce the
//! kernels they replaced **bit for bit**.
//!
//! [`oracle`] is a frozen, verbatim copy of those kernels as they stood
//! before the rewrite (`resize`, `gaussian_blur_with`, `Pyramid::build`,
//! `is_extremum`, `passes_edge_test`, `dominant_orientation`,
//! `detect_on_pyramid`, `describe`). It is the reference and must not be
//! "improved"; it reads images only through accessors the rewrite left
//! alone (`get`, `get_clamped`, `half`).

use vision::codec::{decode, encode, Quality};
use vision::descriptor::{describe_all, Descriptor};
use vision::keypoints::{detect, DetectorParams, Keypoint};
use vision::pyramid::{gaussian_blur_with, gaussian_kernel, Pyramid};
use vision::scene::SceneGenerator;
use vision::GrayImage;

mod oracle {
    use vision::descriptor::{Descriptor, DESC_DIM};
    use vision::keypoints::{DetectorParams, Keypoint};
    use vision::pyramid::{KernelCache, Octave, Pyramid};
    use vision::GrayImage;

    fn gradient(img: &GrayImage, x: usize, y: usize) -> (f32, f32) {
        let x = x as isize;
        let y = y as isize;
        let dx = (img.get_clamped(x + 1, y) - img.get_clamped(x - 1, y)) * 0.5;
        let dy = (img.get_clamped(x, y + 1) - img.get_clamped(x, y - 1)) * 0.5;
        (dx, dy)
    }

    pub fn sample_bilinear(img: &GrayImage, x: f32, y: f32) -> f32 {
        let x = x.clamp(0.0, (img.width() - 1) as f32);
        let y = y.clamp(0.0, (img.height() - 1) as f32);
        let x0 = x.floor() as usize;
        let y0 = y.floor() as usize;
        let x1 = (x0 + 1).min(img.width() - 1);
        let y1 = (y0 + 1).min(img.height() - 1);
        let fx = x - x0 as f32;
        let fy = y - y0 as f32;
        let top = img.get(x0, y0) * (1.0 - fx) + img.get(x1, y0) * fx;
        let bot = img.get(x0, y1) * (1.0 - fx) + img.get(x1, y1) * fx;
        top * (1.0 - fy) + bot * fy
    }

    pub fn resize(img: &GrayImage, new_w: usize, new_h: usize) -> GrayImage {
        assert!(new_w > 0 && new_h > 0);
        let mut out = GrayImage::new(new_w, new_h);
        let sx = img.width() as f32 / new_w as f32;
        let sy = img.height() as f32 / new_h as f32;
        for y in 0..new_h {
            for x in 0..new_w {
                let src_x = (x as f32 + 0.5) * sx - 0.5;
                let src_y = (y as f32 + 0.5) * sy - 0.5;
                out.set(x, y, sample_bilinear(img, src_x.max(0.0), src_y.max(0.0)));
            }
        }
        out
    }

    pub fn gaussian_blur_with(img: &GrayImage, k: &[f32]) -> GrayImage {
        debug_assert_eq!(k.len() % 2, 1, "kernel must have odd length");
        let radius = k.len() / 2;
        let (w, h) = (img.width(), img.height());

        let (int_lo, int_hi) = if w > 2 * radius {
            (radius, w - radius)
        } else {
            (0, 0)
        };
        let mut tmp = GrayImage::new(w, h);
        let src = img.data();
        for y in 0..h {
            let row = &src[y * w..(y + 1) * w];
            let out_row = &mut tmp.data_mut()[y * w..(y + 1) * w];
            for x in int_lo..int_hi {
                let window = &row[x - radius..=x + radius];
                let mut acc = 0.0;
                for (kv, v) in k.iter().zip(window) {
                    acc += kv * v;
                }
                out_row[x] = acc;
            }
            for x in (0..int_lo).chain(int_hi.max(int_lo)..w) {
                let mut acc = 0.0;
                for (i, &kv) in k.iter().enumerate() {
                    let xi = (x as isize + i as isize - radius as isize).clamp(0, w as isize - 1);
                    acc += kv * row[xi as usize];
                }
                out_row[x] = acc;
            }
        }

        let mut out = GrayImage::new(w, h);
        let tsrc = tmp.data();
        for y in 0..h {
            let out_row = &mut out.data_mut()[y * w..(y + 1) * w];
            for (i, &kv) in k.iter().enumerate() {
                let yi =
                    (y as isize + i as isize - radius as isize).clamp(0, h as isize - 1) as usize;
                let tap_row = &tsrc[yi * w..(yi + 1) * w];
                for (slot, v) in out_row.iter_mut().zip(tap_row) {
                    *slot += kv * v;
                }
            }
        }
        out
    }

    pub fn build(img: &GrayImage, n_octaves: usize, scales: usize, sigma0: f32) -> Pyramid {
        assert!(n_octaves >= 1 && scales >= 1);
        let k = 2f32.powf(1.0 / scales as f32);
        let mut octaves = Vec::with_capacity(n_octaves);
        let mut kernels = KernelCache::default();
        let mut base = gaussian_blur_with(img, kernels.get(sigma0));
        let mut downscale = 1u32;
        for _ in 0..n_octaves {
            let n_levels = scales + 3;
            let mut levels = Vec::with_capacity(n_levels);
            levels.push(base);
            let mut sigma_prev = sigma0;
            for _ in 1..n_levels {
                let sigma_next = sigma_prev * k;
                let delta = (sigma_next * sigma_next - sigma_prev * sigma_prev).sqrt();
                let kernel = kernels.get(delta.max(1e-3));
                let next = gaussian_blur_with(levels.last().expect("nonempty"), kernel);
                levels.push(next);
                sigma_prev = sigma_next;
            }
            let dogs = levels
                .windows(2)
                .map(|w| {
                    let mut d = GrayImage::new(w[0].width(), w[0].height());
                    for i in 0..d.data().len() {
                        d.data_mut()[i] = w[1].data()[i] - w[0].data()[i];
                    }
                    d
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

    fn is_extremum(dogs: &[GrayImage], s: usize, x: usize, y: usize) -> bool {
        let v = dogs[s].get(x, y);
        let mut is_max = true;
        let mut is_min = true;
        for img in &dogs[s - 1..=s + 1] {
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    let n = img.get_clamped(x as isize + dx, y as isize + dy);
                    if std::ptr::eq(img, &dogs[s]) && dx == 0 && dy == 0 {
                        continue;
                    }
                    if n >= v {
                        is_max = false;
                    }
                    if n <= v {
                        is_min = false;
                    }
                    if !is_max && !is_min {
                        return false;
                    }
                }
            }
        }
        is_max || is_min
    }

    fn passes_edge_test(dog: &GrayImage, x: usize, y: usize, edge_ratio: f32) -> bool {
        let (xi, yi) = (x as isize, y as isize);
        let v = dog.get(x, y);
        let dxx = dog.get_clamped(xi + 1, yi) + dog.get_clamped(xi - 1, yi) - 2.0 * v;
        let dyy = dog.get_clamped(xi, yi + 1) + dog.get_clamped(xi, yi - 1) - 2.0 * v;
        let dxy = (dog.get_clamped(xi + 1, yi + 1)
            - dog.get_clamped(xi - 1, yi + 1)
            - dog.get_clamped(xi + 1, yi - 1)
            + dog.get_clamped(xi - 1, yi - 1))
            / 4.0;
        let tr = dxx + dyy;
        let det = dxx * dyy - dxy * dxy;
        if det <= 0.0 {
            return false;
        }
        let r = edge_ratio;
        tr * tr / det < (r + 1.0) * (r + 1.0) / r
    }

    fn dominant_orientation(img: &GrayImage, x: usize, y: usize, sigma: f32) -> f32 {
        let radius = (2.5 * sigma).ceil().max(2.0) as isize;
        let mut hist = [0f32; 36];
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                let px = x as isize + dx;
                let py = y as isize + dy;
                if px < 1
                    || py < 1
                    || px >= img.width() as isize - 1
                    || py >= img.height() as isize - 1
                {
                    continue;
                }
                let (gx, gy) = gradient(img, px as usize, py as usize);
                let mag = (gx * gx + gy * gy).sqrt();
                let weight =
                    (-((dx * dx + dy * dy) as f32) / (2.0 * (1.5 * sigma) * (1.5 * sigma))).exp();
                let angle = gy.atan2(gx);
                let bin = (((angle + std::f32::consts::PI) / std::f32::consts::TAU * 36.0)
                    as usize)
                    .min(35);
                hist[bin] += mag * weight;
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

    pub fn detect_on_pyramid(pyr: &Pyramid, params: &DetectorParams) -> Vec<Keypoint> {
        let mut kps = Vec::new();
        let k = 2f32.powf(1.0 / pyr.scales_per_octave as f32);
        for (oi, oct) in pyr.octaves.iter().enumerate() {
            let (w, h) = (oct.dogs[0].width(), oct.dogs[0].height());
            for s in 1..oct.dogs.len() - 1 {
                for y in 1..h - 1 {
                    for x in 1..w - 1 {
                        let v = oct.dogs[s].get(x, y);
                        if v.abs() < params.contrast_threshold {
                            continue;
                        }
                        if !is_extremum(&oct.dogs, s, x, y) {
                            continue;
                        }
                        if !passes_edge_test(&oct.dogs[s], x, y, params.edge_ratio) {
                            continue;
                        }
                        let sigma = pyr.sigma0 * k.powi(s as i32) * oct.downscale as f32;
                        let orientation = dominant_orientation(&oct.levels[s], x, y, pyr.sigma0);
                        kps.push(Keypoint {
                            x: x as f32 * oct.downscale as f32,
                            y: y as f32 * oct.downscale as f32,
                            scale: sigma,
                            orientation,
                            response: v.abs(),
                            octave: oi,
                            level: s,
                        });
                    }
                }
            }
        }
        kps.sort_by(|a, b| {
            b.response
                .partial_cmp(&a.response)
                .expect("finite responses")
                .then(a.y.partial_cmp(&b.y).expect("finite"))
                .then(a.x.partial_cmp(&b.x).expect("finite"))
        });
        kps.truncate(params.max_keypoints);
        kps
    }

    pub fn detect(img: &GrayImage, params: &DetectorParams) -> (Pyramid, Vec<Keypoint>) {
        let pyr = build(img, 3, 3, 1.6);
        let kps = detect_on_pyramid(&pyr, params);
        (pyr, kps)
    }

    pub fn describe(img: &GrayImage, kp: &Keypoint, downscale: u32) -> Descriptor {
        let kx = kp.x / downscale as f32;
        let ky = kp.y / downscale as f32;
        let scale = (kp.scale / downscale as f32).max(1.0);
        let cos_t = kp.orientation.cos();
        let sin_t = kp.orientation.sin();

        let step = 0.75 * scale;
        let mut hist = [0f32; DESC_DIM];
        for sy in 0..16 {
            for sx in 0..16 {
                let px = (sx as f32 - 7.5) * step;
                let py = (sy as f32 - 7.5) * step;
                let rx = cos_t * px - sin_t * py + kx;
                let ry = sin_t * px + cos_t * py + ky;
                if rx < 1.0
                    || ry < 1.0
                    || rx >= (img.width() - 2) as f32
                    || ry >= (img.height() - 2) as f32
                {
                    continue;
                }
                let (gx, gy) = gradient(img, rx as usize, ry as usize);
                let mag = (gx * gx + gy * gy).sqrt();
                if mag == 0.0 {
                    continue;
                }
                let angle = gy.atan2(gx) - kp.orientation;
                let angle = angle.rem_euclid(std::f32::consts::TAU);
                let obin = ((angle / std::f32::consts::TAU) * 8.0) as usize % 8;
                let cell_x = sx / 4;
                let cell_y = sy / 4;
                let wgt = (-((px * px + py * py) / (2.0 * (8.0 * step) * (8.0 * step)))).exp();
                hist[(cell_y * 4 + cell_x) * 8 + obin] += mag * wgt;
            }
        }

        normalize(&mut hist);
        for v in &mut hist {
            *v = v.min(0.2);
        }
        normalize(&mut hist);

        Descriptor {
            keypoint: *kp,
            v: hist,
        }
    }

    fn normalize(v: &mut [f32; DESC_DIM]) {
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for x in v.iter_mut() {
                *x /= norm;
            }
        }
    }

    pub fn describe_all(pyr: &Pyramid, kps: &[Keypoint]) -> Vec<Descriptor> {
        kps.iter()
            .map(|kp| {
                let oct = &pyr.octaves[kp.octave];
                describe(&oct.levels[kp.level], kp, oct.downscale)
            })
            .collect()
    }
}

fn assert_image_bits(got: &GrayImage, want: &GrayImage, what: &str) {
    assert_eq!(
        (got.width(), got.height()),
        (want.width(), want.height()),
        "{what}: dimensions"
    );
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: pixel {i} ({g} vs {w})");
    }
}

fn assert_pyramid_bits(got: &Pyramid, want: &Pyramid, what: &str) {
    assert_eq!(got.octaves.len(), want.octaves.len(), "{what}: octaves");
    assert_eq!(got.sigma0.to_bits(), want.sigma0.to_bits());
    assert_eq!(got.scales_per_octave, want.scales_per_octave);
    for (oi, (g, w)) in got.octaves.iter().zip(&want.octaves).enumerate() {
        assert_eq!(g.downscale, w.downscale, "{what}: octave {oi} downscale");
        assert_eq!(g.levels.len(), w.levels.len(), "{what}: octave {oi} levels");
        assert_eq!(g.dogs.len(), w.dogs.len(), "{what}: octave {oi} dogs");
        for (s, (gl, wl)) in g.levels.iter().zip(&w.levels).enumerate() {
            assert_image_bits(gl, wl, &format!("{what}: octave {oi} level {s}"));
        }
        for (s, (gd, wd)) in g.dogs.iter().zip(&w.dogs).enumerate() {
            assert_image_bits(gd, wd, &format!("{what}: octave {oi} dog {s}"));
        }
    }
}

fn keypoint_bits(k: &Keypoint) -> ([u32; 5], usize, usize) {
    (
        [
            k.x.to_bits(),
            k.y.to_bits(),
            k.scale.to_bits(),
            k.orientation.to_bits(),
            k.response.to_bits(),
        ],
        k.octave,
        k.level,
    )
}

fn assert_keypoints_bits(got: &[Keypoint], want: &[Keypoint], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: keypoint count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(keypoint_bits(g), keypoint_bits(w), "{what}: keypoint {i}");
    }
}

fn assert_descriptors_bits(got: &[Descriptor], want: &[Descriptor], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: descriptor count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            keypoint_bits(&g.keypoint),
            keypoint_bits(&w.keypoint),
            "{what}: descriptor {i} keypoint"
        );
        for (j, (a, b)) in g.v.iter().zip(&w.v).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: descriptor {i}[{j}]");
        }
    }
}

/// Detect + describe with both implementations; returns the keypoint
/// count so callers can check the comparison was not vacuous.
fn assert_front_end_bits(img: &GrayImage, params: &DetectorParams, what: &str) -> usize {
    let (pyr, kps) = detect(img, params);
    let (opyr, okps) = oracle::detect(img, params);
    assert_pyramid_bits(&pyr, &opyr, what);
    assert_keypoints_bits(&kps, &okps, what);
    let descs = describe_all(&pyr, &kps);
    let odescs = oracle::describe_all(&opyr, &okps);
    assert_descriptors_bits(&descs, &odescs, what);
    kps.len()
}

/// What `primary` hands to `sift`: DCT round trip, dimension reduction,
/// u8 quantisation on the wire.
fn primary_output(frame: &GrayImage) -> (GrayImage, GrayImage) {
    let decoded = decode(encode(frame, Quality(85))).expect("codec round trip");
    let (w, h) = (
        ((decoded.width() as f32 * 0.75) as usize).max(16),
        ((decoded.height() as f32 * 0.75) as usize).max(16),
    );
    (decoded.resize(w, h), oracle::resize(&decoded, w, h))
}

fn quantise(img: &GrayImage) -> GrayImage {
    let data = img
        .data()
        .iter()
        .map(|&v| ((v.clamp(0.0, 1.0) * 255.0) as u8) as f32 / 255.0)
        .collect();
    GrayImage::from_vec(img.width(), img.height(), data)
}

#[test]
fn camera_loop_is_bit_identical_at_service_resolution() {
    for seed in [7u64, 1009] {
        let scene = SceneGenerator::workplace_scaled(seed, 256, 144);
        let mut keypoints = 0;
        for f in (0..300).step_by(5) {
            let what = format!("seed {seed} frame {f}");
            let (resized, oresized) = primary_output(&scene.frame(f));
            assert_eq!((resized.width(), resized.height()), (192, 108));
            assert_image_bits(&resized, &oresized, &format!("{what}: resize"));
            keypoints +=
                assert_front_end_bits(&quantise(&resized), &DetectorParams::default(), &what);
        }
        assert!(
            keypoints > 60 * 30,
            "seed {seed}: {keypoints} keypoints compared"
        );
    }
}

/// A deterministic textured image with signed zeros, flats and ramps —
/// content the scene renderer never produces.
fn synthetic(w: usize, h: usize, salt: usize) -> GrayImage {
    let data = (0..w * h)
        .map(|i| {
            let (x, y) = (i % w, i / w);
            let noise = ((i + salt).wrapping_mul(2654435761) % 1000) as f32 / 1000.0;
            match (x / 5 + y / 3 + salt) % 4 {
                0 => noise,
                1 => 0.0,
                2 => (x as f32 / w as f32 + y as f32 / h as f32) / 2.0,
                _ => 0.25 + 0.5 * noise,
            }
        })
        .collect();
    GrayImage::from_vec(w, h, data)
}

#[test]
fn small_and_odd_sizes_are_bit_identical() {
    let params = DetectorParams {
        contrast_threshold: 0.004,
        ..Default::default()
    };
    for (w, h) in [(16usize, 16usize), (17, 33), (33, 17), (64, 48)] {
        for salt in 0..4 {
            let img = synthetic(w, h, salt);
            assert_front_end_bits(&img, &params, &format!("{w}x{h} salt {salt}"));
            // A cap that bites: the strongest keypoints survive, in order.
            let capped = DetectorParams {
                max_keypoints: 3,
                ..params
            };
            assert_front_end_bits(&img, &capped, &format!("{w}x{h} salt {salt} capped"));
        }
    }
}

#[test]
fn blur_is_bit_identical_including_kernels_wider_than_the_image() {
    // Widths on either side of the 32-pixel accumulator blocks, and 1-row
    // images, where every vertical tap reads the same row.
    for (w, h) in [
        (16usize, 16usize),
        (17, 33),
        (5, 9),
        (3, 3),
        (1, 7),
        (40, 2),
        (31, 5),
        (32, 6),
        (33, 7),
        (64, 3),
        (65, 4),
        (97, 9),
        (1, 1),
        (33, 1),
        (97, 1),
    ] {
        let img = synthetic(w, h, 1);
        for sigma in [0.4f32, 1.0, 1.6, 3.2, 6.0] {
            let k = gaussian_kernel(sigma);
            assert_image_bits(
                &gaussian_blur_with(&img, &k),
                &oracle::gaussian_blur_with(&img, &k),
                &format!("{w}x{h} sigma {sigma}"),
            );
        }
        // Negative inputs make the `0.0 + (-0.0)` hazard reachable.
        let neg = GrayImage::from_vec(w, h, img.data().iter().map(|v| -v).collect());
        let k = gaussian_kernel(1.2);
        assert_image_bits(
            &gaussian_blur_with(&neg, &k),
            &oracle::gaussian_blur_with(&neg, &k),
            &format!("{w}x{h} negated"),
        );
    }
}

#[test]
fn blur_replicates_extreme_edge_columns_bit_identically() {
    // ±∞ or ±f32::MAX in the first and last columns, each beside a value
    // of the opposite sign: replicating the wrong pixel, or padding with
    // anything else, changes the border sums (or turns ∞ into NaN).
    for (w, h) in [(31usize, 6usize), (32, 5), (33, 1), (65, 7)] {
        for edge in [f32::INFINITY, f32::NEG_INFINITY, f32::MAX, -f32::MAX] {
            let mut img = synthetic(w, h, 2);
            let inner = f32::MAX.copysign(-edge);
            for y in 0..h {
                img.set(0, y, edge);
                img.set(1, y, inner);
                img.set(w - 2, y, -inner);
                img.set(w - 1, y, -edge);
            }
            for sigma in [0.4f32, 1.6, 6.0] {
                let k = gaussian_kernel(sigma);
                assert_image_bits(
                    &gaussian_blur_with(&img, &k),
                    &oracle::gaussian_blur_with(&img, &k),
                    &format!("{w}x{h} edge columns {edge:e}, sigma {sigma}"),
                );
            }
        }
    }
}

#[test]
fn resize_is_bit_identical_up_down_and_identity() {
    let img = synthetic(37, 23, 2);
    for (w, h) in [
        (192usize, 108usize),
        (37, 23),
        (16, 16),
        (1, 1),
        (80, 5),
        (9, 61),
    ] {
        assert_image_bits(
            &img.resize(w, h),
            &oracle::resize(&img, w, h),
            &format!("37x23 -> {w}x{h}"),
        );
    }
}

#[test]
fn describe_is_bit_identical_for_arbitrary_orientations() {
    // `describe` is public: orientations outside (-π, π] (where the
    // exact-fmod shortcut does not apply) must take the same bins too.
    let img = quantise(&SceneGenerator::workplace_scaled(7, 192, 108).frame(0));
    let (pyr, kps) = detect(&img, &DetectorParams::default());
    assert!(kps.len() >= 20);
    let tau = std::f32::consts::TAU;
    let orientations = [
        0.0,
        -0.0,
        tau,
        -tau,
        2.0 * tau,
        -2.0 * tau,
        3.0 * tau + 0.3,
        -17.5,
        1e9,
        f32::INFINITY,
        f32::NAN,
    ];
    for (i, kp) in kps.iter().take(20).enumerate() {
        for &o in &orientations {
            let kp = Keypoint {
                orientation: o,
                ..*kp
            };
            let oct = &pyr.octaves[kp.octave];
            let got = vision::descriptor::describe(&oct.levels[kp.level], &kp, oct.downscale);
            let want = oracle::describe(&oct.levels[kp.level], &kp, oct.downscale);
            for (j, (a, b)) in got.v.iter().zip(&want.v).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "keypoint {i} orientation {o}: [{j}]"
                );
            }
        }
    }
}
