//! Wire protocol v2: CRC-checked, optionally compressed, delta-encoded
//! frame datagrams.
//!
//! v1 ([`crate::runtime::wire`]) trusts every byte it parses: a flipped
//! bit in a payload sails through the fragment header checks and
//! surfaces — if at all — as an unattributable typed-payload decode
//! failure three services downstream. And it ships every uplink frame
//! in full, which is exactly what the paper's LTE profile cannot
//! afford: constrained links are loss- and bandwidth-dominated long
//! before compute saturates.
//!
//! v2 wraps each v1 fragment datagram in a 19-byte envelope:
//!
//! ```text
//! [0..4)   MAGIC2 "SC2V"
//! [4..8)   CRC32 (IEEE) over bytes [8..]
//! [8]      version  (2)
//! [9]      codec id (0 = none, 1 = RLE)         — §codec
//! [10]     frame kind (0 plain, 1 key, 2 delta) — §delta
//! [11..15) base frame_no (delta anchor; 0 otherwise)
//! [15..19) raw payload length before compression
//! [19..)   unmodified v1 fragment datagram
//! ```
//!
//! Three mechanisms, all dependency-free:
//!
//! - **Integrity** ([`crc`], [`envelope`]): a corrupt datagram fails
//!   the CRC and is dropped with a counted
//!   [`trace::DropReason::InvalidCrc`] — never a panic, never a
//!   half-parsed frame. The frame identity is recovered best-effort
//!   from the inner header so forensics can attribute the loss.
//! - **Compression** ([`codec`]): payloads are compressed behind the
//!   [`codec::Codec`] trait (store-if-smaller per message, so a codec
//!   that loses on a payload costs one envelope byte, not a regression
//!   — this per-message fallback *is* the negotiation).
//! - **Delta encoding** ([`delta`], [`tx`]): the client uplink sends
//!   DCT block deltas against a previously *acked* keyframe. Deltas
//!   only ever reference retained keyframes (never other deltas), so a
//!   lost delta costs exactly one frame; an unacked anchor forces a
//!   keyframe refresh. A receiver that cannot resolve an anchor drops
//!   the frame with [`trace::DropReason::DeltaResync`] — it can never
//!   decode against the wrong base.
//!
//! Both planes speak v2: the runtime ships real envelopes through the
//! impairment shim ([`rx::RxState`] at every receive site), while the
//! DES consumes an analytically precomputed byte schedule
//! ([`predict::uplink_schedule_v2`]) produced by running the *same*
//! uplink over the *same* `predict::Recording` of the client's camera
//! — which is what makes exact cross-plane bytes-on-wire agreement a
//! testable gate rather than a hope.

pub mod codec;
pub mod crc;
pub mod delta;
pub mod envelope;
pub mod predict;
pub mod rx;
pub mod tx;

pub use codec::{Codec, CodecKind, Rle};
pub use delta::DeltaRx;
pub use envelope::{
    decode_any, encode_msg, Decoded, IngestError, RecoveredId, V2Meta, MAGIC2, V2_ENVELOPE_BYTES,
};
pub use rx::RxState;
pub use tx::{UplinkPolicy, UplinkTx};

/// What a v2 payload *is*, carried in the envelope so the receiver
/// knows how to reconstruct the frame before handing it to the
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Not a camera frame (inter-service state, results, fetches):
    /// passes through untouched.
    Plain = 0,
    /// A full DCT stream; the receiver retains it as a delta anchor.
    DctKey = 1,
    /// A block delta against the anchor named by `base_frame_no`.
    DctDelta = 2,
}

impl FrameKind {
    pub fn from_u8(v: u8) -> Option<FrameKind> {
        match v {
            0 => Some(FrameKind::Plain),
            1 => Some(FrameKind::DctKey),
            2 => Some(FrameKind::DctDelta),
            _ => None,
        }
    }
}
