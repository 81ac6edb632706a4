//! Property tests for the v2 wire subsystem: the three safety claims
//! the module documentation makes, checked against adversarial inputs.
//!
//! 1. A byte flip anywhere in a sealed datagram never panics and is
//!    always *classified* — flips past the magic land as `InvalidCrc`
//!    (the counted drop), flips in the magic as `Malformed`. Nothing
//!    corrupt ever parses as a valid frame.
//! 2. The RLE codec round-trips arbitrary payloads exactly, and the
//!    store-if-smaller negotiation never ships bytes it cannot get
//!    back.
//! 3. The delta uplink is self-synchronizing: under any loss pattern a
//!    delivered frame either reconstructs to the *exact* source bytes
//!    or is dropped for resync — never wrong pixels — and every
//!    delivered keyframe reconstructs.
//!
//! Plus the equivalences the bulk/early-out rewrites of the hot path
//! must hold: the typed v1 payload codecs write the bytes a per-value
//! writer would, a state payload's descriptors decode to their quantised
//! values and re-encode to the bytes they came from, and
//! `match_descriptors` returns the matches of the exhaustive search.

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use scatter::runtime::wire::{
    decode_frame, decode_state, encode_frame, encode_state, FrameState, WireMsg, DESC_WIRE_BYTES,
};
use scatter::wirev2::codec::{maybe_compress, Codec};
use scatter::wirev2::{
    decode_any, encode_msg, DeltaRx, FrameKind, IngestError, Rle, UplinkPolicy, UplinkTx,
};
use scatter::ServiceKind;
use vision::codec::{encode, Quality};
use vision::matching::{match_descriptors, Match, MatchParams};
use vision::scene::SceneGenerator;
use vision::{Descriptor, GrayImage, Keypoint};

fn msg(payload: Vec<u8>) -> WireMsg {
    WireMsg {
        client: 5,
        frame_no: 17,
        step: ServiceKind::Primary,
        emit_micros: 99,
        return_port: 40_000,
        trace_id: (5u64 << 32) | 17,
        flags: 0,
        sent_micros: 100,
        payload: Bytes::from(payload),
    }
}

fn bytes_of(raw: &[u16]) -> Vec<u8> {
    raw.iter().map(|&v| v as u8).collect()
}

/// SplitMix64 stream for bulk test data (a strategy per float would
/// dwarf the properties).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Any finite f32 bit pattern: both zeros, subnormals, huge values.
    fn finite_f32(&mut self) -> f32 {
        loop {
            let v = f32::from_bits(self.next() as u32);
            if v.is_finite() {
                return v;
            }
        }
    }

    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// A descriptor value: any bit pattern (NaN and ±∞ included) one
    /// time in four, else a value around SIFT's byte range, where the
    /// rounding decides.
    fn descriptor_value(&mut self) -> f32 {
        match self.next() % 4 {
            0 => f32::from_bits(self.next() as u32),
            _ => self.unit() * 0.6 - 0.05,
        }
    }
}

/// SIFT's byte format for one descriptor value, written as its
/// definition: `round(512·v)` ties to even, saturated to a byte (NaN
/// gives 0).
fn quantise(v: f32) -> u8 {
    (512.0 * v).round_ties_even() as u8
}

fn random_state(mix: &mut Mix, n_desc: usize, n_fisher: usize, n_cand: usize) -> FrameState {
    FrameState {
        descriptors: (0..n_desc)
            .map(|_| Descriptor {
                keypoint: Keypoint {
                    x: mix.finite_f32(),
                    y: mix.finite_f32(),
                    scale: mix.finite_f32(),
                    orientation: mix.finite_f32(),
                    response: mix.finite_f32(),
                    octave: (mix.next() % 256) as usize,
                    level: (mix.next() % 256) as usize,
                },
                v: std::array::from_fn(|_| mix.descriptor_value()),
            })
            .collect(),
        fisher: (0..n_fisher).map(|_| mix.finite_f32()).collect(),
        candidates: (0..n_cand).map(|_| mix.next() as u32).collect(),
    }
}

/// The frame-state payload written one value at a time — the format's
/// definition, which the bulk encoder must reproduce byte for byte.
fn encode_state_per_value(state: &FrameState) -> BytesMut {
    let mut buf = BytesMut::new();
    buf.put_u32(state.descriptors.len() as u32);
    for d in &state.descriptors {
        let k = &d.keypoint;
        for v in [k.x, k.y, k.scale, k.orientation, k.response] {
            buf.put_f32(v);
        }
        buf.put_u8(k.octave as u8);
        buf.put_u8(k.level as u8);
        for &v in &d.v {
            buf.put_u8(quantise(v));
        }
    }
    buf.put_u32(state.fisher.len() as u32);
    for &v in &state.fisher {
        buf.put_f32(v);
    }
    buf.put_u32(state.candidates.len() as u32);
    for &c in &state.candidates {
        buf.put_u32(c);
    }
    buf
}

/// Unit-norm non-negative descriptor vectors, like real ones; `near`
/// perturbs a previous vector slightly so best/second-best are close.
fn random_descriptors(mix: &mut Mix, n: usize) -> Vec<Descriptor> {
    let mut out: Vec<Descriptor> = Vec::with_capacity(n);
    for i in 0..n {
        let mut v: [f32; 128] = match mix.next() % 4 {
            0 if i > 0 => out[(mix.next() % i as u64) as usize].v, // exact duplicate
            1 if i > 0 => {
                let base = out[(mix.next() % i as u64) as usize].v;
                std::array::from_fn(|j| base[j] + 0.02 * mix.unit())
            }
            _ => std::array::from_fn(|_| {
                if mix.next().is_multiple_of(3) {
                    0.0
                } else {
                    mix.unit()
                }
            }),
        };
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
        v.iter_mut().for_each(|x| *x /= norm);
        out.push(Descriptor {
            keypoint: Keypoint {
                x: i as f32,
                y: 0.0,
                scale: 1.0,
                orientation: 0.0,
                response: 1.0,
                octave: 0,
                level: 1,
            },
            v,
        });
    }
    out
}

/// `match_descriptors` as first written: every distance in full.
fn match_exhaustive(query: &[Descriptor], reference: &[Descriptor], p: &MatchParams) -> Vec<Match> {
    let mut out = Vec::new();
    if reference.len() < 2 {
        return out;
    }
    for (qi, q) in query.iter().enumerate() {
        let (mut best, mut second, mut best_idx) = (f32::INFINITY, f32::INFINITY, 0usize);
        for (ri, r) in reference.iter().enumerate() {
            let d = q.dist2(r);
            if d < best {
                second = best;
                best = d;
                best_idx = ri;
            } else if d < second {
                second = d;
            }
        }
        if best > p.max_dist2 {
            continue;
        }
        let ratio = if second > 0.0 {
            (best / second).sqrt()
        } else {
            1.0
        };
        if ratio <= p.max_ratio {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Claim 1: flip one byte anywhere in a sealed v2 datagram — the
    /// decoder must return an error (counted, attributable), never a
    /// parsed frame and never a panic.
    #[test]
    fn byte_flip_is_always_caught(
        raw in proptest::collection::vec(0u16..256, 0..600),
        pos_seed in 0usize..1_000_000,
        xor_seed in 0u16..255,
    ) {
        let xor = (xor_seed + 1) as u8;
        let (dgrams, _) = encode_msg(&msg(bytes_of(&raw)), true, FrameKind::DctKey, 0);
        for d in dgrams {
            let mut bytes = d.to_vec();
            let pos = pos_seed % bytes.len();
            bytes[pos] ^= xor;
            match decode_any(&bytes) {
                Ok(_) => prop_assert!(false, "corrupt datagram parsed (flip at {})", pos),
                Err(IngestError::InvalidCrc { .. }) => {
                    // Any flip past the magic word must land here: the
                    // CRC seals both its own field and everything after.
                    prop_assert!(pos >= 4, "flip at {} misclassified as InvalidCrc", pos);
                }
                Err(IngestError::Malformed(_)) => {
                    prop_assert!(pos < 4, "flip at {} dodged the CRC", pos);
                }
            }
        }
    }

    /// Claim 2a: RLE round-trips arbitrary bytes exactly.
    #[test]
    fn rle_round_trips(raw in proptest::collection::vec(0u16..256, 0..2000)) {
        let data = bytes_of(&raw);
        let packed = Rle.compress(&data);
        prop_assert_eq!(Rle.decompress(&packed, data.len()), Some(data));
    }

    /// Claim 2b: whatever `maybe_compress` decides to ship decompresses
    /// back to the original — the negotiation can skip the codec but
    /// can never lose data.
    #[test]
    fn negotiated_compression_is_lossless(raw in proptest::collection::vec(0u16..256, 0..2000)) {
        let data = bytes_of(&raw);
        let (kind, shipped) = maybe_compress(&data, true);
        match shipped {
            None => prop_assert_eq!(kind as u8, 0),
            Some(c) => {
                prop_assert!(c.len() < data.len(), "shipped a non-smaller encoding");
                prop_assert_eq!(Rle.decompress(&c, data.len()), Some(data));
            }
        }
    }

    /// Claim 3: run the real sender over a seeded scene with an
    /// arbitrary delivery mask (acks only for delivered frames). Every
    /// delivered frame must either reconstruct bit-exactly or be
    /// dropped for resync; keyframes always reconstruct.
    #[test]
    fn delta_stream_resyncs_after_loss(
        seed in 0u64..1000,
        delivered in proptest::collection::vec(proptest::bool::ANY, 24),
    ) {
        let scene = SceneGenerator::workplace_scaled(seed, 96, 48);
        let mut tx = UplinkTx::new(UplinkPolicy::default());
        let mut rx = DeltaRx::new();
        let mut keys_delivered = 0u32;
        for (f, &arrives) in delivered.iter().enumerate() {
            let stream = encode(&scene.frame(f as u32), Quality(80));
            let (kind, base, payload) = tx.prepare(f as u32, stream.clone());
            if !arrives {
                continue; // lost in flight: no ack, sender re-keys later
            }
            match rx.accept_frame(kind, base, f as u32, payload) {
                Some(got) => {
                    prop_assert_eq!(got, stream, "frame {} corrupted", f);
                    tx.ack(f as u32);
                    if kind == FrameKind::DctKey {
                        keys_delivered += 1;
                    }
                }
                None => {
                    // Resync drop: legal only for deltas whose anchor
                    // never arrived — a delivered key always decodes.
                    prop_assert_eq!(kind, FrameKind::DctDelta);
                }
            }
        }
        if delivered.iter().any(|&d| d) {
            prop_assert!(keys_delivered > 0, "no key survived a non-empty delivery");
        }
    }

    /// The bulk `encode_state` writes exactly the bytes of the per-value
    /// writer — empty descriptor lists and Fisher vectors, non-finite and
    /// out-of-range descriptor values included.
    #[test]
    fn bulk_state_codec_matches_per_value_writer(
        seed in 0u64..u64::MAX,
        n_desc in 0usize..5,
        n_fisher in 0usize..300,
        n_cand in 0usize..4,
    ) {
        let state = random_state(&mut Mix(seed), n_desc, n_fisher, n_cand);
        prop_assert_eq!(&encode_state(&state)[..], &encode_state_per_value(&state)[..]);
    }

    /// `decode ∘ encode = quantise`: a state comes back with every
    /// descriptor value replaced by its byte over 512 and every other
    /// field bit for bit.
    #[test]
    fn decoded_state_is_the_quantised_state(
        seed in 0u64..u64::MAX,
        n_desc in 0usize..5,
        n_fisher in 0usize..300,
        n_cand in 0usize..4,
    ) {
        let state = random_state(&mut Mix(seed), n_desc, n_fisher, n_cand);
        let back = decode_state(encode_state(&state)).expect("finite keypoints decode");
        prop_assert_eq!(back.descriptors.len(), state.descriptors.len());
        for (b, d) in back.descriptors.iter().zip(&state.descriptors) {
            prop_assert_eq!(b.keypoint, d.keypoint);
            for (&got, &v) in b.v.iter().zip(&d.v) {
                prop_assert_eq!(got.to_bits(), (f32::from(quantise(v)) / 512.0).to_bits());
            }
        }
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&back.fisher), bits(&state.fisher));
        prop_assert_eq!(&back.candidates, &state.candidates);
    }

    /// `encode ∘ decode = id` on valid bytes: a stage that re-encodes a
    /// decoded state writes the payload it received, so forwarding the
    /// descriptor section untouched and re-encoding it are the same.
    #[test]
    fn re_encoded_payload_is_the_received_one(
        seed in 0u64..u64::MAX,
        n_desc in 0usize..5,
        n_fisher in 0usize..300,
        n_cand in 0usize..4,
    ) {
        let mut mix = Mix(seed);
        let mut payload = encode_state_per_value(&random_state(&mut mix, n_desc, 0, 0)).to_vec();
        // Any byte is a valid descriptor value.
        for d in 0..n_desc {
            let at = 4 + d * DESC_WIRE_BYTES + 22;
            for b in &mut payload[at..at + 128] {
                *b = mix.next() as u8;
            }
        }
        payload.truncate(4 + n_desc * DESC_WIRE_BYTES);
        payload.put_u32(n_fisher as u32);
        for _ in 0..n_fisher {
            payload.put_f32(mix.finite_f32());
        }
        payload.put_u32(n_cand as u32);
        for _ in 0..n_cand {
            payload.put_u32(mix.next() as u32);
        }
        let payload = Bytes::from(payload);
        let back = decode_state(payload.clone()).expect("valid bytes decode");
        prop_assert_eq!(&encode_state(&back)[..], &payload[..]);
    }

    /// Same for the grayscale frame payload, over out-of-range and
    /// non-finite pixels too (the encoder clamps; NaN saturates to 0).
    #[test]
    fn bulk_frame_codec_matches_per_pixel_writer(
        seed in 0u64..u64::MAX,
        w in 1usize..40,
        h in 1usize..40,
    ) {
        let mut mix = Mix(seed);
        let data: Vec<f32> = (0..w * h)
            .map(|_| match mix.next() % 8 {
                0 => f32::from_bits(mix.next() as u32),
                _ => mix.unit() * 1.2 - 0.1,
            })
            .collect();
        let img = GrayImage::from_vec(w, h, data);
        let mut want = BytesMut::new();
        want.put_u32(w as u32);
        want.put_u32(h as u32);
        for &v in img.data() {
            want.put_u8((v.clamp(0.0, 1.0) * 255.0) as u8);
        }
        let bulk = encode_frame(&img);
        prop_assert_eq!(&bulk[..], &want[..]);
        let back = decode_frame(bulk).expect("frame decodes");
        prop_assert_eq!((back.width(), back.height()), (w, h));
        for (px, &b) in back.data().iter().zip(&want[8..]) {
            prop_assert_eq!(px.to_bits(), (b as f32 / 255.0).to_bits());
        }
    }

    /// The estimate-then-exact search returns the exhaustive search's
    /// matches, bit for bit: duplicates (distance 0), near-ties and
    /// reference sets too small to match included.
    #[test]
    fn match_descriptors_equals_exhaustive_search(
        seed in 0u64..u64::MAX,
        n_query in 0usize..12,
        n_ref in 0usize..40,
        loose in proptest::bool::ANY,
    ) {
        let mut mix = Mix(seed);
        let reference = random_descriptors(&mut mix, n_ref);
        let mut query = random_descriptors(&mut mix, n_query);
        // Some queries are (near-)copies of reference entries.
        for (q, r) in query.iter_mut().zip(&reference).step_by(2) {
            q.v = r.v;
        }
        let params = if loose {
            MatchParams { max_ratio: 1.0, max_dist2: 4.0 }
        } else {
            MatchParams::default()
        };
        let got = match_descriptors(&query, &reference, &params);
        let want = match_exhaustive(&query, &reference, &params);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!((g.query_idx, g.ref_idx), (w.query_idx, w.ref_idx));
            prop_assert_eq!(g.dist2.to_bits(), w.dist2.to_bits());
            prop_assert_eq!(g.ratio.to_bits(), w.ratio.to_bits());
        }
    }
}
