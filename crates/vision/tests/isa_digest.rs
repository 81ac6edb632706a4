//! Cross-ISA guard: what the vision front end computes for a sample of the
//! camera loop must not depend on the vector ISA the crate is compiled
//! for.
//!
//! The workspace builds for the build host's CPU (`.cargo/config.toml`),
//! so the same source runs at 4, 8 or 16 f32 lanes. [`DIGEST`] is one
//! FNV-1a hash over every bit of the DoG planes, keypoints, descriptors and
//! Fisher vector of every 30th frame of the camera loop at seeds 7 and
//! 1009, on the path the `primary`, `sift` and `encoding` services take
//! (DCT round trip at quality 85, 256×144 reduced to 192×108, at most 200
//! descriptors). It was computed by a portable `-C target-cpu=x86-64`
//! build. `scripts/verify.sh` runs this test in the native build and again
//! in a portable one; both must reproduce it. A kernel change that moves an
//! output bit changes it too, and `sift_golden.rs` says whether that was
//! allowed.

use simcore::SimRng;
use vision::codec::{decode, encode, Quality};
use vision::db::TrainParams;
use vision::descriptor::describe_all;
use vision::keypoints::{detect, DetectorParams};
use vision::scene::SceneGenerator;
use vision::ReferenceDb;

/// The digest of the portable build; every build must reproduce it.
const DIGEST: u64 = 0xb021_2eb2_d5ea_2fca;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

#[test]
fn camera_loop_digest_is_isa_independent() {
    let params = DetectorParams {
        max_keypoints: 200,
        ..Default::default()
    };
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for seed in [7, 1009] {
        let scene = SceneGenerator::workplace_scaled(seed, 256, 144);
        let db = ReferenceDb::train(&scene, TrainParams::default(), &mut SimRng::new(seed));
        for idx in (0..300).step_by(30) {
            let img = decode(encode(&scene.frame(idx), Quality(85)))
                .expect("own encoding decodes")
                .resize(192, 108);
            let (pyr, kps) = detect(&img, &params);
            for octave in &pyr.octaves {
                octave.dogs.iter().for_each(|d| h.f32s(d.data()));
            }
            for k in &kps {
                h.f32s(&[k.x, k.y, k.scale, k.orientation, k.response]);
                h.bytes(&[k.octave as u8, k.level as u8]);
            }
            let descs = describe_all(&pyr, &kps);
            descs.iter().for_each(|d| h.f32s(&d.v));
            for v in db.encode_frame(&descs) {
                h.bytes(&v.to_bits().to_le_bytes());
            }
        }
    }
    assert_eq!(
        h.0, DIGEST,
        "the vision front end's output bits moved: {:#018x}",
        h.0
    );
}
