//! Analytic bytes-on-wire model for the DES plane, and the camera both
//! planes stream.
//!
//! The DES does not push real datagrams, but for the cross-plane
//! bytes-on-wire gate it must account for *exactly* the bytes the
//! runtime would send. Rather than re-deriving the encoder analytically
//! (and diverging one varint at a time), the predictor feeds the real
//! uplink — [`UplinkTx`] → codec — from the same `Recording` the
//! runtime client replays: the client's DCT-encoded camera loop, encoded
//! once per process. That yields a per-frame datagram-byte schedule the
//! simulation then consumes. Agreement with the runtime is by
//! construction; the `wire` experiment gates it anyway.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use vision::codec::{encode, Quality};
use vision::scene::{SceneGenerator, VIDEO_FRAMES};

use crate::runtime::wire::{CHUNK_BYTES, HEADER_BYTES};
use crate::wirev2::codec::maybe_compress;
use crate::wirev2::envelope::V2_ENVELOPE_BYTES;
use crate::wirev2::tx::{UplinkPolicy, UplinkTx};

/// The scene a given client streams — shared verbatim with the runtime
/// client threads, which is what anchors the two planes to identical
/// payload bytes.
pub fn client_scene(seed: u64, cid: u16, width: usize, height: usize) -> SceneGenerator {
    SceneGenerator::workplace_scaled(seed ^ ((cid as u64) << 8), width, height)
}

/// Recordings one process keeps; the oldest is evicted first, and its
/// holders keep their `Arc`.
const RECORDINGS: usize = 8;

type RecordingKey = (u64, u16, usize, usize, u8);
static MEMO: Mutex<VecDeque<(RecordingKey, Arc<Recording>)>> = Mutex::new(VecDeque::new());

/// One client's camera as a file, as the paper's clients replay a
/// pre-recorded, already-compressed clip: the DCT stream of each frame of
/// the [`client_scene`] loop. [`SceneGenerator::frame`] is periodic in
/// [`VIDEO_FRAMES`], so stream frame `f` is loop frame
/// `f % VIDEO_FRAMES`, bit for bit.
///
/// Frames are encoded lazily, in loop order, the first time one is asked
/// for, into one append-only log (≈ 1.1 MB per key at 256×144, Q85).
pub(crate) struct Recording {
    scene: SceneGenerator,
    quality: Quality,
    log: Mutex<Log>,
}

/// The encoded frames back to back; frame `i` ends at `ends[i]`.
struct Log {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Recording {
    /// This process's recording of client `cid`'s camera at
    /// `width`×`height`, encoded at `quality`.
    pub(crate) fn of(seed: u64, cid: u16, width: usize, height: usize, quality: u8) -> Arc<Self> {
        let key = (seed, cid, width, height, quality);
        let mut memo = MEMO.lock().expect("recording memo");
        if let Some((_, rec)) = memo.iter().find(|(k, _)| *k == key) {
            return Arc::clone(rec);
        }
        if memo.len() == RECORDINGS {
            memo.pop_front();
        }
        let rec = Arc::new(Recording {
            scene: client_scene(seed, cid, width, height),
            quality: Quality(quality),
            log: Mutex::new(Log {
                bytes: Vec::new(),
                ends: Vec::with_capacity(VIDEO_FRAMES as usize),
            }),
        });
        memo.push_back((key, Arc::clone(&rec)));
        rec
    }

    /// Encoded stream frame `f`.
    pub(crate) fn frame(&self, f: u32) -> Bytes {
        let f = (f % VIDEO_FRAMES) as usize;
        let mut log = self.log.lock().expect("recording log");
        while log.ends.len() <= f {
            let stream = encode(&self.scene.frame(log.ends.len() as u32), self.quality);
            if log.ends.is_empty() {
                // One reservation for the loop, a quarter over the first
                // frame: at 256×144 every frame lies within a tenth of
                // the first's size, so the log does not regrow.
                log.bytes
                    .reserve_exact(stream.len() * VIDEO_FRAMES as usize * 5 / 4);
            }
            log.bytes.extend_from_slice(&stream);
            let end = log.bytes.len();
            log.ends.push(end);
        }
        let start = f.checked_sub(1).map_or(0, |p| log.ends[p]);
        Bytes::copy_from_slice(&log.bytes[start..log.ends[f]])
    }
}

/// Total datagram bytes for one message of `payload_len` bytes under
/// v1 framing (fragment headers only).
pub fn v1_wire_bytes(payload_len: usize) -> u64 {
    let frags = payload_len.div_ceil(CHUNK_BYTES).max(1);
    (payload_len + frags * HEADER_BYTES) as u64
}

/// Same under v2 framing (fragment header + sealed envelope per
/// datagram).
pub fn v2_wire_bytes(payload_len: usize) -> u64 {
    let frags = payload_len.div_ceil(CHUNK_BYTES).max(1);
    (payload_len + frags * (HEADER_BYTES + V2_ENVELOPE_BYTES)) as u64
}

/// Per-frame uplink datagram bytes for one client, v2 pipeline:
/// delta/key decision by the *same* [`UplinkTx`] state machine the
/// runtime client runs (predictor mode: anchors assumed acked — exact
/// on a healthy link), then the same store-if-smaller codec.
pub fn uplink_schedule_v2(
    seed: u64,
    cid: u16,
    width: usize,
    height: usize,
    quality: u8,
    frames: usize,
    policy: UplinkPolicy,
) -> Vec<u64> {
    let recording = Recording::of(seed, cid, width, height, quality);
    let mut tx = UplinkTx::assume_acked(policy);
    (0..frames)
        .map(|f| {
            let stream = recording.frame(f as u32);
            let (_kind, _base, payload) = tx.prepare(f as u32, stream);
            let (_codec, compressed) = maybe_compress(&payload, policy.compress);
            let shipped = compressed.map_or(payload.len(), |c| c.len());
            v2_wire_bytes(shipped)
        })
        .collect()
}

/// Per-frame uplink datagram bytes for one client, v1 pipeline (full
/// DCT stream every frame, bare fragment framing) — the baseline side
/// of the bytes-on-wire comparison.
pub fn uplink_schedule_v1(
    seed: u64,
    cid: u16,
    width: usize,
    height: usize,
    quality: u8,
    frames: usize,
) -> Vec<u64> {
    let recording = Recording::of(seed, cid, width, height, quality);
    (0..frames)
        .map(|f| v1_wire_bytes(recording.frame(f as u32).len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ServiceKind;
    use crate::runtime::wire::WireMsg;
    use crate::wirev2::envelope;
    use crate::wirev2::FrameKind;

    /// The predictor's byte formula must equal what the real encoder
    /// puts on the wire, datagram for datagram.
    #[test]
    fn formulas_match_real_encoders() {
        for len in [
            0usize,
            1,
            100,
            CHUNK_BYTES,
            CHUNK_BYTES + 1,
            3 * CHUNK_BYTES + 7,
        ] {
            let m = WireMsg {
                client: 2,
                frame_no: 9,
                step: ServiceKind::Primary,
                emit_micros: 1,
                return_port: 2,
                trace_id: 3,
                flags: 0,
                sent_micros: 4,
                payload: Bytes::from(vec![0xABu8; len]),
            };
            let v1: usize = crate::runtime::wire::encode(&m)
                .iter()
                .map(|d| d.len())
                .sum();
            assert_eq!(v1 as u64, v1_wire_bytes(len), "v1 at {len}");
            // Compression off isolates the framing arithmetic.
            let (dgrams, _) = envelope::encode_msg(&m, false, FrameKind::Plain, 0);
            let v2: usize = dgrams.iter().map(|d| d.len()).sum();
            assert_eq!(v2 as u64, v2_wire_bytes(len), "v2 at {len}");
        }
    }

    /// End-to-end: the schedule equals the bytes a faithful client-side
    /// send loop produces for the same scene and policy.
    #[test]
    fn schedule_matches_live_send_loop() {
        let (seed, cid, w, h, q, n) = (7u64, 1u16, 128usize, 72usize, 85u8, 20usize);
        let policy = UplinkPolicy::default();
        let schedule = uplink_schedule_v2(seed, cid, w, h, q, n, policy);
        let scene = client_scene(seed, cid, w, h);
        let mut tx = UplinkTx::new(policy);
        for (f, &predicted) in schedule.iter().enumerate() {
            let stream = encode(&scene.frame(f as u32), Quality(q));
            let (kind, base, payload) = tx.prepare(f as u32, stream);
            let m = WireMsg {
                client: cid,
                frame_no: f as u32,
                step: ServiceKind::Primary,
                emit_micros: 0,
                return_port: 0,
                trace_id: 0,
                flags: 0,
                sent_micros: 0,
                payload,
            };
            let (dgrams, _) = envelope::encode_msg(&m, policy.compress, kind, base);
            let sent: u64 = dgrams.iter().map(|d| d.len() as u64).sum();
            assert_eq!(sent, predicted, "frame {f}");
            tx.ack(f as u32); // healthy link: prompt acks
        }
    }

    /// The recording is the camera loop, encoded: every stream frame
    /// equals a fresh render + encode of that frame, past the loop's end
    /// too, and the recording is shared, bounded and safe to fill from
    /// several threads at once.
    #[test]
    fn recording_replays_the_encoded_camera_loop() {
        let fresh =
            |seed, cid, w, h, f| encode(&client_scene(seed, cid, w, h).frame(f), Quality(85));
        for seed in [7u64, 1009] {
            for cid in [0u16, 3] {
                let rec = Recording::of(seed, cid, 32, 18, 85);
                assert!(Arc::ptr_eq(&rec, &Recording::of(seed, cid, 32, 18, 85)));
                for f in 0..2 * VIDEO_FRAMES {
                    let want = fresh(seed, cid, 32, 18, f);
                    assert_eq!(
                        rec.frame(f)[..],
                        want[..],
                        "seed {seed} cid {cid} frame {f}"
                    );
                }
            }
        }
        let rec = Recording::of(7, 0, 256, 144, 85);
        for f in [0, 1, 2, VIDEO_FRAMES, VIDEO_FRAMES + 2] {
            assert_eq!(
                rec.frame(f)[..],
                fresh(7, 0, 256, 144, f)[..],
                "256x144 frame {f}"
            );
        }

        // Bounded: the memo never outgrows its cap, and evicts oldest
        // first while an evicted recording stays usable to its holder.
        let first = Recording::of(0xE71C7, 0, 32, 32, 85);
        for seed in 1..=RECORDINGS as u64 {
            Recording::of(0xE71C7 + seed, 0, 32, 32, 85);
            assert!(MEMO.lock().unwrap().len() <= RECORDINGS);
        }
        assert!(!Arc::ptr_eq(&first, &Recording::of(0xE71C7, 0, 32, 32, 85)));
        assert_eq!(first.frame(5)[..], fresh(0xE71C7, 0, 32, 32, 5)[..]);

        // Four threads filling one fresh key at once read identical bytes.
        let rec = Recording::of(42, 1, 64, 36, 85);
        let start = std::sync::Barrier::new(4);
        let reads: Vec<Vec<Bytes>> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..60).map(|f| rec.frame(f)).collect::<Vec<_>>()
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for (f, got) in reads[0].iter().enumerate() {
            assert_eq!(got[..], fresh(42, 1, 64, 36, f as u32)[..], "frame {f}");
            assert!(reads.iter().all(|r| r[f][..] == got[..]), "frame {f}");
        }
    }

    /// v2's whole point: fewer bytes per frame than v1 on the same
    /// scene.
    #[test]
    fn v2_schedule_beats_v1() {
        let v1: u64 = uplink_schedule_v1(7, 0, 128, 72, 85, 24).iter().sum();
        let v2: u64 = uplink_schedule_v2(7, 0, 128, 72, 85, 24, UplinkPolicy::default())
            .iter()
            .sum();
        assert!(
            v2 < v1 * 9 / 10,
            "v2 ({v2}) should undercut v1 ({v1}) by well over 10%"
        );
    }
}
