//! Wire format for the real-UDP runtime.
//!
//! A message is fragmented into ≤[`CHUNK_BYTES`] datagrams, each carrying
//! a fixed header; the receiver reassembles by `(client, frame, step)`.
//! There is no retransmission — a missing fragment strands the message
//! until its reassembly slot is reclaimed, matching the pipeline's UDP
//! semantics on the testbed.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Instant;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::message::ServiceKind;

/// Fragment payload size. Loopback allows ~64 KB datagrams; we stay well
/// below to keep the format valid for real NICs too.
pub const CHUNK_BYTES: usize = 32 * 1024;

/// Receive buffer size on every runtime socket: any UDP datagram fits,
/// so a full chunk plus its header is never truncated.
pub const MAX_DATAGRAM: usize = 65_536;

/// Magic tag guarding against stray datagrams.
pub const MAGIC: u32 = 0x5343_4154; // "SCAT"

/// `flags` bit 0: this frame was chosen by trace sampling.
pub const FLAG_SAMPLED: u8 = 0b0000_0001;

/// `flags` bit 1: this message is *control traffic* (a fetch response),
/// not a pipeline frame. `matching` uses it during its fetch-wait to
/// route fragments to the fetch reassembler without ever consuming
/// frame traffic — the fix for the fetch-wait frame-swallowing bug.
pub const FLAG_CTRL: u8 = 0b0000_0010;

/// Fixed fragment header size (public so the v2 byte predictor can
/// account for framing overhead exactly).
pub const HEADER_BYTES: usize = 4 + 2 + 4 + 1 + 8 + 2 + 8 + 1 + 8 + 2 + 2 + 4;

/// The trace identity of a frame as the reassembly/forensics plane
/// reports it: which client's frame, and the trace flags it was
/// carrying (enough to rebuild its [`trace::TraceCtx`] and emit a
/// terminal on the right trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameKey {
    pub client: u16,
    pub frame_no: u32,
    pub flags: u8,
}

impl FrameKey {
    pub fn new(client: u16, frame_no: u32, flags: u8) -> FrameKey {
        FrameKey {
            client,
            frame_no,
            flags,
        }
    }

    /// Reconstruct the trace context this frame was carrying.
    pub fn trace_ctx(&self) -> trace::TraceCtx {
        trace::TraceCtx::new(self.client, self.frame_no, self.flags & FLAG_SAMPLED != 0)
    }
}

/// Why a datagram failed to parse. Malformed traffic on a UDP socket is
/// a fact of life, not a panic: callers count the reason and drop the
/// datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Shorter than the fixed fragment header.
    Truncated,
    /// Magic tag mismatch — a foreign or corrupted datagram.
    BadMagic,
    /// Step index outside the five pipeline services.
    BadStep,
    /// `frag_count == 0` or `frag_idx >= frag_count`.
    BadFragmentIndex,
    /// Body length disagrees with the header's length field.
    LengthMismatch,
    /// v2 envelope names a protocol version this receiver doesn't speak.
    BadVersion,
    /// v2 envelope names an unknown codec, or the payload failed to
    /// decompress to its declared length.
    BadCodec,
    /// v2 envelope names an unknown frame kind.
    BadKind,
    /// A typed payload (`decode_frame`/`decode_state`/`decode_result`)
    /// ended before its own structure said it would.
    PayloadTruncated,
    /// A typed payload carried a structurally impossible value (zero
    /// dimensions, absurd counts, non-UTF-8 names, length mismatch).
    PayloadValue,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WireError::Truncated => "datagram shorter than the fragment header",
            WireError::BadMagic => "magic tag mismatch",
            WireError::BadStep => "step index out of range",
            WireError::BadFragmentIndex => "fragment index/count invalid",
            WireError::LengthMismatch => "body length disagrees with header",
            WireError::BadVersion => "unsupported protocol version",
            WireError::BadCodec => "unknown codec or decompression failure",
            WireError::BadKind => "unknown frame kind",
            WireError::PayloadTruncated => "typed payload shorter than its structure",
            WireError::PayloadValue => "typed payload carries an impossible value",
        };
        f.write_str(s)
    }
}

impl std::error::Error for WireError {}

/// A pipeline message as it travels between service sockets.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMsg {
    pub client: u16,
    pub frame_no: u32,
    /// Pipeline step this message is bound for.
    pub step: ServiceKind,
    /// Microseconds since the deployment epoch when the client emitted
    /// the frame (staleness filtering and E2E measurement).
    pub emit_micros: u64,
    /// The client's return port on loopback — the paper's messages carry
    /// "client's IP address and port number" so `matching` can deliver
    /// results without a session table.
    pub return_port: u16,
    /// Causal trace id (`client << 32 | frame_no`), carried end to end.
    pub trace_id: u64,
    /// Trace flags; see [`FLAG_SAMPLED`].
    pub flags: u8,
    /// Microseconds since the epoch when the *previous hop* sent this
    /// message — re-stamped per hop, so the receiver's `recv − sent` gap
    /// is the ingress-queue span (transit + socket buffer wait).
    pub sent_micros: u64,
    pub payload: Bytes,
}

impl WireMsg {
    pub fn age_ms(&self, epoch: Instant) -> f64 {
        let now_micros = epoch.elapsed().as_micros() as u64;
        now_micros.saturating_sub(self.emit_micros) as f64 / 1e3
    }

    /// Reconstruct the trace context this message carries.
    pub fn trace_ctx(&self) -> trace::TraceCtx {
        trace::TraceCtx::new(self.client, self.frame_no, self.flags & FLAG_SAMPLED != 0)
    }
}

/// Encode a message into its fragment datagrams.
///
/// The payload [`Bytes`] is never cloned here: each fragment copies only
/// its own `≤ CHUNK_BYTES` window once, into the datagram buffer the
/// socket needs anyway (header and body must be contiguous on the wire).
pub fn encode(msg: &WireMsg) -> Vec<Bytes> {
    let frag_count = msg.payload.len().div_ceil(CHUNK_BYTES).max(1);
    let mut out = Vec::with_capacity(frag_count);
    for i in 0..frag_count {
        let chunk = if msg.payload.is_empty() {
            &[][..]
        } else {
            let start = i * CHUNK_BYTES;
            &msg.payload[start..msg.payload.len().min(start + CHUNK_BYTES)]
        };
        let mut buf = BytesMut::with_capacity(HEADER_BYTES + chunk.len());
        buf.put_u32(MAGIC);
        buf.put_u16(msg.client);
        buf.put_u32(msg.frame_no);
        buf.put_u8(msg.step.index() as u8);
        buf.put_u64(msg.emit_micros);
        buf.put_u16(msg.return_port);
        buf.put_u64(msg.trace_id);
        buf.put_u8(msg.flags);
        buf.put_u64(msg.sent_micros);
        buf.put_u16(i as u16);
        buf.put_u16(frag_count as u16);
        buf.put_u32(chunk.len() as u32);
        buf.put_slice(chunk);
        out.push(buf.freeze());
    }
    out
}

/// A decoded fragment header + body.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    pub client: u16,
    pub frame_no: u32,
    pub step: ServiceKind,
    pub emit_micros: u64,
    pub return_port: u16,
    pub trace_id: u64,
    pub flags: u8,
    pub sent_micros: u64,
    pub frag_idx: u16,
    pub frag_count: u16,
    pub body: Bytes,
}

/// Parse one datagram. Malformed or foreign packets yield a typed
/// [`WireError`] so the caller can count *why* before dropping, as a
/// UDP service must.
pub fn decode_fragment(datagram: &[u8]) -> Result<Fragment, WireError> {
    if datagram.len() < HEADER_BYTES {
        return Err(WireError::Truncated);
    }
    let mut buf = datagram;
    if buf.get_u32() != MAGIC {
        return Err(WireError::BadMagic);
    }
    let client = buf.get_u16();
    let frame_no = buf.get_u32();
    let step_idx = buf.get_u8() as usize;
    if step_idx >= 5 {
        return Err(WireError::BadStep);
    }
    let emit_micros = buf.get_u64();
    let return_port = buf.get_u16();
    let trace_id = buf.get_u64();
    let flags = buf.get_u8();
    let sent_micros = buf.get_u64();
    let frag_idx = buf.get_u16();
    let frag_count = buf.get_u16();
    let len = buf.get_u32() as usize;
    if frag_count == 0 || frag_idx >= frag_count {
        return Err(WireError::BadFragmentIndex);
    }
    if buf.remaining() != len {
        return Err(WireError::LengthMismatch);
    }
    Ok(Fragment {
        client,
        frame_no,
        step: ServiceKind::from_index(step_idx),
        emit_micros,
        return_port,
        trace_id,
        flags,
        sent_micros,
        frag_idx,
        frag_count,
        body: Bytes::copy_from_slice(buf),
    })
}

/// Reassembles fragments into messages. Bounded: oldest incomplete entry
/// is evicted past [`Reassembler::MAX_PENDING`] — frames that lost a
/// fragment must not leak memory. Evictions are logged (with the frame's
/// trace identity) so the service loop can attribute the loss, and the
/// victim key is tombstoned so a late straggler fragment cannot rebuild
/// a half-frame and double-report it.
#[derive(Debug, Default)]
pub struct Reassembler {
    pending: HashMap<(u16, u32, u8), PendingMsg>,
    /// Insertion order for eviction.
    order: Vec<(u16, u32, u8)>,
    /// Keys evicted as incomplete; late fragments for these are ignored.
    tombstones: HashSet<(u16, u32, u8)>,
    /// Evicted frames awaiting drop attribution.
    evicted: Vec<FrameKey>,
}

#[derive(Debug)]
struct PendingMsg {
    emit_micros: u64,
    return_port: u16,
    trace_id: u64,
    flags: u8,
    sent_micros: u64,
    parts: Vec<Option<Bytes>>,
    received: usize,
    /// When the first fragment arrived — [`Reassembler::sweep`] evicts
    /// entries that have waited longer than the caller's patience.
    first_seen: Instant,
}

impl Reassembler {
    pub const MAX_PENDING: usize = 64;

    /// Tombstone-set bound; cleared wholesale past this (a late fragment
    /// for a long-evicted frame then merely restarts a pending entry that
    /// will itself age out — bounded memory matters more than perfection).
    const MAX_TOMBSTONES: usize = 4096;

    pub fn new() -> Self {
        Self::default()
    }

    /// Offer one fragment; returns the completed message when the last
    /// fragment lands.
    pub fn offer(&mut self, frag: Fragment) -> Option<WireMsg> {
        let key = (frag.client, frag.frame_no, frag.step.index() as u8);
        if self.tombstones.contains(&key) {
            return None;
        }
        // Single-fragment fast path (the overwhelmingly common case for
        // control and result messages): the fragment body *is* the
        // payload — hand the `Bytes` through without a pending entry or
        // a reassembly copy.
        if frag.frag_count == 1 {
            return Some(WireMsg {
                client: frag.client,
                frame_no: frag.frame_no,
                step: frag.step,
                emit_micros: frag.emit_micros,
                return_port: frag.return_port,
                trace_id: frag.trace_id,
                flags: frag.flags,
                sent_micros: frag.sent_micros,
                payload: frag.body,
            });
        }
        let entry = self.pending.entry(key).or_insert_with(|| {
            self.order.push(key);
            PendingMsg {
                emit_micros: frag.emit_micros,
                return_port: frag.return_port,
                trace_id: frag.trace_id,
                flags: frag.flags,
                sent_micros: frag.sent_micros,
                parts: vec![None; frag.frag_count as usize],
                received: 0,
                first_seen: Instant::now(),
            }
        });
        if (frag.frag_idx as usize) < entry.parts.len()
            && entry.parts[frag.frag_idx as usize].is_none()
        {
            entry.parts[frag.frag_idx as usize] = Some(frag.body);
            entry.received += 1;
        }
        if entry.received == entry.parts.len() {
            let entry = self.pending.remove(&key).expect("entry exists");
            self.order.retain(|k| *k != key);
            let total: usize = entry.parts.iter().flatten().map(Bytes::len).sum();
            let mut payload = BytesMut::with_capacity(total);
            for part in entry.parts {
                payload.put_slice(&part.expect("all parts received"));
            }
            return Some(WireMsg {
                client: frag.client,
                frame_no: frag.frame_no,
                step: frag.step,
                emit_micros: entry.emit_micros,
                return_port: entry.return_port,
                trace_id: entry.trace_id,
                flags: entry.flags,
                sent_micros: entry.sent_micros,
                payload: payload.freeze(),
            });
        }
        // Evict the oldest incomplete message beyond the cap.
        if self.pending.len() > Self::MAX_PENDING {
            let victim = self.order.remove(0);
            if let Some(lost) = self.pending.remove(&victim) {
                self.evicted
                    .push(FrameKey::new(victim.0, victim.1, lost.flags));
            }
            if self.tombstones.len() >= Self::MAX_TOMBSTONES {
                self.tombstones.clear();
            }
            self.tombstones.insert(victim);
        }
        None
    }

    /// Take the log of frames evicted incomplete since the last call —
    /// enough to emit a fragment-loss terminal on the frame's trace.
    pub fn drain_evicted(&mut self) -> Vec<FrameKey> {
        std::mem::take(&mut self.evicted)
    }

    /// Evict every incomplete entry whose *first* fragment is older than
    /// `max_age`. Under injected fragment loss the capacity-based
    /// eviction above only fires when traffic keeps flowing; a quiet
    /// link would otherwise strand a half-received frame forever with
    /// no drop attribution. Victims land in the same evicted log (and
    /// tombstone set) as capacity evictions.
    pub fn sweep(&mut self, max_age: std::time::Duration) {
        let now = Instant::now();
        let mut victims: Vec<(u16, u32, u8)> = Vec::new();
        for (key, entry) in &self.pending {
            if now.duration_since(entry.first_seen) > max_age {
                victims.push(*key);
            }
        }
        for key in victims {
            if let Some(lost) = self.pending.remove(&key) {
                self.evicted.push(FrameKey::new(key.0, key.1, lost.flags));
            }
            self.order.retain(|k| *k != key);
            if self.tombstones.len() >= Self::MAX_TOMBSTONES {
                self.tombstones.clear();
            }
            self.tombstones.insert(key);
        }
    }

    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Identities of the partially-reassembled frames currently held.
    /// A crashing service reports these so the supervisor can attribute
    /// them as crash-lost.
    pub fn pending_keys(&self) -> Vec<FrameKey> {
        self.pending
            .iter()
            .map(|(k, v)| FrameKey::new(k.0, k.1, v.flags))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Typed payloads
// ---------------------------------------------------------------------

/// A grayscale frame payload (u8 pixels).
pub fn encode_frame(img: &vision::GrayImage) -> Bytes {
    let mut buf = Vec::with_capacity(8 + img.width() * img.height());
    buf.put_u32(img.width() as u32);
    buf.put_u32(img.height() as u32);
    buf.extend(
        img.data()
            .iter()
            .map(|&v| (v.clamp(0.0, 1.0) * 255.0) as u8),
    );
    Bytes::from(buf)
}

/// Decode a frame payload. Typed errors (like [`decode_fragment`]'s)
/// so malformed-payload drops get exact attribution instead of a bare
/// `None`.
pub fn decode_frame(mut buf: Bytes) -> Result<vision::GrayImage, WireError> {
    if buf.remaining() < 8 {
        return Err(WireError::PayloadTruncated);
    }
    let w = buf.get_u32() as usize;
    let h = buf.get_u32() as usize;
    if w == 0 || h == 0 {
        return Err(WireError::PayloadValue);
    }
    if buf.remaining() != w * h {
        return Err(if buf.remaining() < w * h {
            WireError::PayloadTruncated
        } else {
            WireError::PayloadValue
        });
    }
    let data: Vec<f32> = buf.iter().map(|&b| b as f32 / 255.0).collect();
    Ok(vision::GrayImage::from_vec(w, h, data))
}

/// Descriptor-set payload: keypoint geometry + 128-d vectors, plus an
/// optional Fisher vector (set after `encoding`) and candidate object
/// ids (set after `lsh`) — the frame-embedded state of scAtteR++.
///
/// On the wire the payload is three sections, each led by its `u32`
/// count: the descriptors, the Fisher vector as f32s, the candidates as
/// u32s. A descriptor is its five keypoint floats, octave and level
/// bytes, and its 128 values in SIFT's byte format
/// ([`vision::descriptor::quantize`]): 150 bytes. The vector therefore
/// arrives as `dequantize(quantize(v))`, and re-encoding a decoded state
/// writes the bytes it came from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameState {
    pub descriptors: Vec<vision::Descriptor>,
    pub fisher: Vec<f32>,
    pub candidates: Vec<u32>,
}

/// Wire size of one descriptor: 5 keypoint floats, octave, level, 128
/// vector bytes.
pub const DESC_WIRE_BYTES: usize = 5 * 4 + 2 + vision::descriptor::DESC_DIM;

/// Most descriptors one state may claim (a bound on what a crafted count
/// can make a receiver allocate).
const MAX_DESCRIPTORS: usize = 100_000;

/// A frame-state payload cut at its section boundaries: the descriptor
/// section still in wire bytes, the Fisher vector and the candidates
/// decoded. A stage that does not compute on the descriptors forwards
/// [`StateSections::descriptors`] as it came, a zero-copy slice of the
/// received payload.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSections {
    /// The descriptor section, its count included; its length is
    /// `4 + count · DESC_WIRE_BYTES` (checked by [`split_state`]).
    pub descriptors: Bytes,
    pub fisher: Vec<f32>,
    pub candidates: Vec<u32>,
}

/// Append `src` as big-endian f32s: one `put_slice` per 128 floats
/// instead of one buffer growth per float.
fn put_f32s(buf: &mut BytesMut, src: &[f32]) {
    let mut block = [0u8; 512];
    for chunk in src.chunks(128) {
        let bytes = &mut block[..chunk.len() * 4];
        for (b, v) in bytes.chunks_exact_mut(4).zip(chunk) {
            b.copy_from_slice(&v.to_be_bytes());
        }
        buf.put_slice(bytes);
    }
}

/// Fill `dst` from the big-endian f32s in `src` (`4 * dst.len()`
/// bytes). `false` if any value is NaN or ±∞ (exponent bits all ones):
/// nothing downstream of the wire is defined on those, and several
/// stages would panic.
#[must_use]
fn get_f32s(src: &[u8], dst: &mut [f32]) -> bool {
    const EXP: u32 = 0x7F80_0000;
    let mut finite = true;
    for (v, b) in dst.iter_mut().zip(src.chunks_exact(4)) {
        let bits = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        finite &= bits & EXP != EXP;
        *v = f32::from_bits(bits);
    }
    finite
}

/// Append the descriptor section: the count, then each descriptor in
/// its 150-byte wire form. This is where a vector is quantised; a
/// forwarded section never is again.
fn put_descriptors(buf: &mut BytesMut, descriptors: &[vision::Descriptor]) {
    buf.put_u32(descriptors.len() as u32);
    let mut raw = [0u8; DESC_WIRE_BYTES];
    for d in descriptors {
        let k = &d.keypoint;
        let floats = [k.x, k.y, k.scale, k.orientation, k.response];
        for (b, v) in raw.chunks_exact_mut(4).zip(floats) {
            b.copy_from_slice(&v.to_be_bytes());
        }
        raw[20] = k.octave as u8;
        raw[21] = k.level as u8;
        raw[22..].copy_from_slice(&vision::descriptor::quantize(&d.v));
        buf.put_slice(&raw);
    }
}

/// Append the Fisher and candidate sections.
fn put_tail(buf: &mut BytesMut, fisher: &[f32], candidates: &[u32]) {
    buf.put_u32(fisher.len() as u32);
    put_f32s(buf, fisher);
    buf.put_u32(candidates.len() as u32);
    for &c in candidates {
        buf.put_u32(c);
    }
}

/// Decode a descriptor section as [`StateSections::descriptors`] holds
/// it. Every keypoint float must be finite ([`WireError::PayloadValue`]
/// otherwise); every byte is a valid vector value.
pub fn decode_descriptors(section: &[u8]) -> Result<Vec<vision::Descriptor>, WireError> {
    let n = descriptor_count(section)?;
    let body = &section[4..];
    if body.len() != n * DESC_WIRE_BYTES {
        return Err(if body.len() < n * DESC_WIRE_BYTES {
            WireError::PayloadTruncated
        } else {
            WireError::PayloadValue
        });
    }
    let mut finite = true;
    let descriptors = body
        .chunks_exact(DESC_WIRE_BYTES)
        .map(|raw| {
            let mut k = [0f32; 5];
            finite &= get_f32s(&raw[..20], &mut k);
            let q: &[u8; vision::descriptor::DESC_DIM] = raw[22..]
                .try_into()
                .expect("a descriptor chunk holds 128 values");
            vision::Descriptor {
                keypoint: vision::Keypoint {
                    x: k[0],
                    y: k[1],
                    scale: k[2],
                    orientation: k[3],
                    response: k[4],
                    octave: raw[20] as usize,
                    level: raw[21] as usize,
                },
                v: vision::descriptor::dequantize(q),
            }
        })
        .collect();
    if finite {
        Ok(descriptors)
    } else {
        Err(WireError::PayloadValue)
    }
}

/// The count that leads a descriptor section, bounded by
/// [`MAX_DESCRIPTORS`].
fn descriptor_count(section: &[u8]) -> Result<usize, WireError> {
    let head: [u8; 4] = section
        .get(..4)
        .and_then(|h| h.try_into().ok())
        .ok_or(WireError::PayloadTruncated)?;
    let n = u32::from_be_bytes(head) as usize;
    if n > MAX_DESCRIPTORS {
        return Err(WireError::PayloadValue);
    }
    Ok(n)
}

/// Cut a state payload at its section boundaries without decoding the
/// descriptors; typed errors like [`decode_frame`]. The descriptor
/// section's count and length agree; every Fisher value is finite.
pub fn split_state(buf: Bytes) -> Result<StateSections, WireError> {
    let n = descriptor_count(&buf)?;
    let desc_len = 4 + n * DESC_WIRE_BYTES;
    if buf.len() < desc_len {
        return Err(WireError::PayloadTruncated);
    }
    let descriptors = buf.slice(..desc_len);
    let mut rest = &buf[desc_len..];
    if rest.remaining() < 4 {
        return Err(WireError::PayloadTruncated);
    }
    let nf = rest.get_u32() as usize;
    if rest.remaining() < nf * 4 {
        return Err(WireError::PayloadTruncated);
    }
    let mut fisher = vec![0f32; nf];
    if !get_f32s(&rest[..nf * 4], &mut fisher) {
        return Err(WireError::PayloadValue);
    }
    rest.advance(nf * 4);
    if rest.remaining() < 4 {
        return Err(WireError::PayloadTruncated);
    }
    let nc = rest.get_u32() as usize;
    if rest.remaining() != nc * 4 {
        return Err(if rest.remaining() < nc * 4 {
            WireError::PayloadTruncated
        } else {
            WireError::PayloadValue
        });
    }
    let candidates = (0..nc).map(|_| rest.get_u32()).collect();
    Ok(StateSections {
        descriptors,
        fisher,
        candidates,
    })
}

/// Join a descriptor section (as [`split_state`] cut it) with a Fisher
/// vector and candidates into a state payload: the section is copied as
/// it came, never decoded or quantised again.
pub fn join_state(descriptors: &[u8], fisher: &[f32], candidates: &[u32]) -> Bytes {
    let mut buf =
        BytesMut::with_capacity(descriptors.len() + 8 + (fisher.len() + candidates.len()) * 4);
    buf.put_slice(descriptors);
    put_tail(&mut buf, fisher, candidates);
    buf.freeze()
}

pub fn encode_state(state: &FrameState) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        12 + state.descriptors.len() * DESC_WIRE_BYTES
            + (state.fisher.len() + state.candidates.len()) * 4,
    );
    put_descriptors(&mut buf, &state.descriptors);
    put_tail(&mut buf, &state.fisher, &state.candidates);
    buf.freeze()
}

/// Decode a frame-state payload; typed errors like [`decode_frame`].
/// Every float must be finite ([`WireError::PayloadValue`] otherwise).
pub fn decode_state(buf: Bytes) -> Result<FrameState, WireError> {
    let sections = split_state(buf)?;
    Ok(FrameState {
        descriptors: decode_descriptors(&sections.descriptors)?,
        fisher: sections.fisher,
        candidates: sections.candidates,
    })
}

/// One recognized object: its name and projected box corners.
pub type ResultEntry = (String, [(f64, f64); 4]);

/// Result payload: recognized object names + projected corners.
pub fn encode_result(recognitions: &[ResultEntry]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u16(recognitions.len() as u16);
    for (name, corners) in recognitions {
        buf.put_u8(name.len() as u8);
        buf.put_slice(name.as_bytes());
        for &(x, y) in corners {
            buf.put_f32(x as f32);
            buf.put_f32(y as f32);
        }
    }
    buf.freeze()
}

/// Decode a result payload; typed errors like [`decode_frame`].
pub fn decode_result(mut buf: Bytes) -> Result<Vec<ResultEntry>, WireError> {
    if buf.remaining() < 2 {
        return Err(WireError::PayloadTruncated);
    }
    let n = buf.get_u16() as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if buf.remaining() < 1 {
            return Err(WireError::PayloadTruncated);
        }
        let len = buf.get_u8() as usize;
        if buf.remaining() < len + 32 {
            return Err(WireError::PayloadTruncated);
        }
        let name = String::from_utf8(buf.copy_to_bytes(len).to_vec())
            .map_err(|_| WireError::PayloadValue)?;
        let mut corners = [(0.0, 0.0); 4];
        for c in &mut corners {
            *c = (buf.get_f32() as f64, buf.get_f32() as f64);
        }
        out.push((name, corners));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(payload_len: usize) -> WireMsg {
        WireMsg {
            client: 3,
            frame_no: 42,
            step: ServiceKind::Encoding,
            emit_micros: 123_456,
            return_port: 40_123,
            trace_id: (3u64 << 32) | 42,
            flags: FLAG_SAMPLED,
            sent_micros: 123_500,
            payload: Bytes::from(vec![7u8; payload_len]),
        }
    }

    #[test]
    fn small_message_single_fragment_round_trip() {
        let m = msg(100);
        let frames = encode(&m);
        assert_eq!(frames.len(), 1);
        let frag = decode_fragment(&frames[0]).expect("valid fragment");
        let mut r = Reassembler::new();
        let out = r.offer(frag).expect("complete after one fragment");
        assert_eq!(out, m);
    }

    #[test]
    fn large_message_fragments_and_reassembles() {
        let m = msg(CHUNK_BYTES * 3 + 17);
        let frames = encode(&m);
        assert_eq!(frames.len(), 4);
        let mut r = Reassembler::new();
        // Deliver out of order.
        let mut frags: Vec<_> = frames.iter().map(|f| decode_fragment(f).unwrap()).collect();
        frags.reverse();
        let mut done = None;
        for f in frags {
            done = r.offer(f);
        }
        assert_eq!(done.expect("complete"), m);
        assert_eq!(r.pending_count(), 0);
    }

    #[test]
    fn missing_fragment_never_completes() {
        let m = msg(CHUNK_BYTES * 2);
        let frames = encode(&m);
        let mut r = Reassembler::new();
        assert!(r.offer(decode_fragment(&frames[0]).unwrap()).is_none());
        assert_eq!(r.pending_count(), 1);
    }

    #[test]
    fn duplicate_fragment_is_idempotent() {
        let m = msg(CHUNK_BYTES + 5);
        let frames = encode(&m);
        let mut r = Reassembler::new();
        let f0 = decode_fragment(&frames[0]).unwrap();
        assert!(r.offer(f0.clone()).is_none());
        assert!(r.offer(f0).is_none(), "duplicate must not complete");
        let out = r.offer(decode_fragment(&frames[1]).unwrap());
        assert_eq!(out.unwrap(), m);
    }

    #[test]
    fn garbage_datagrams_rejected_with_reason() {
        assert_eq!(decode_fragment(&[]), Err(WireError::Truncated));
        assert_eq!(decode_fragment(&[0u8; 10]), Err(WireError::Truncated));
        let good = encode(&msg(10))[0].to_vec();
        let mut bogus = good.clone();
        bogus[0] ^= 0xFF; // corrupt magic
        assert_eq!(decode_fragment(&bogus), Err(WireError::BadMagic));
        let mut bad_step = good.clone();
        bad_step[10] = 9; // step byte out of range
        assert_eq!(decode_fragment(&bad_step), Err(WireError::BadStep));
        let mut short_body = good.clone();
        short_body.pop(); // body one byte shorter than header claims
        assert_eq!(decode_fragment(&short_body), Err(WireError::LengthMismatch));
        let mut bad_frag = good;
        // frag_count field (two bytes after frag_idx) zeroed.
        let off = HEADER_BYTES - 6;
        bad_frag[off] = 0;
        bad_frag[off + 1] = 0;
        assert_eq!(decode_fragment(&bad_frag), Err(WireError::BadFragmentIndex));
    }

    #[test]
    fn trace_fields_survive_the_wire() {
        let m = msg(64);
        let frag = decode_fragment(&encode(&m)[0]).unwrap();
        assert_eq!(frag.trace_id, (3u64 << 32) | 42);
        assert_eq!(frag.flags, FLAG_SAMPLED);
        assert_eq!(frag.sent_micros, 123_500);
        let out = Reassembler::new().offer(frag).unwrap();
        assert_eq!(out, m);
        let ctx = out.trace_ctx();
        assert!(ctx.sampled);
        assert_eq!(ctx.trace_id, (3u64 << 32) | 42);
    }

    #[test]
    fn eviction_logs_loss_and_tombstones_stragglers() {
        let mut r = Reassembler::new();
        let mut all_frames = Vec::new();
        for i in 0..(Reassembler::MAX_PENDING as u32 + 1) {
            let mut m = msg(CHUNK_BYTES * 2);
            m.frame_no = i;
            m.trace_id = i as u64;
            let frames = encode(&m);
            assert!(r.offer(decode_fragment(&frames[0]).unwrap()).is_none());
            all_frames.push(frames);
        }
        let evicted = r.drain_evicted();
        assert_eq!(
            evicted,
            vec![FrameKey::new(3, 0, FLAG_SAMPLED)],
            "oldest frame evicted"
        );
        assert!(evicted[0].trace_ctx().sampled);
        assert!(r.drain_evicted().is_empty(), "drain is one-shot");
        // The straggler second fragment of the evicted frame must not
        // complete a half message nor create a fresh pending entry.
        let straggler = decode_fragment(&all_frames[0][1]).unwrap();
        let before = r.pending_count();
        assert!(r.offer(straggler).is_none());
        assert_eq!(r.pending_count(), before, "tombstoned key stays dead");
    }

    #[test]
    fn sweep_evicts_aged_incomplete_entries() {
        let m = msg(CHUNK_BYTES * 2);
        let frames = encode(&m);
        let mut r = Reassembler::new();
        assert!(r.offer(decode_fragment(&frames[0]).unwrap()).is_none());
        // Young entries survive a sweep.
        r.sweep(std::time::Duration::from_secs(60));
        assert_eq!(r.pending_count(), 1);
        assert!(r.drain_evicted().is_empty());
        // Zero patience evicts, attributes, and tombstones.
        r.sweep(std::time::Duration::ZERO);
        assert_eq!(r.pending_count(), 0);
        assert_eq!(r.drain_evicted(), vec![FrameKey::new(3, 42, FLAG_SAMPLED)]);
        let straggler = decode_fragment(&frames[1]).unwrap();
        assert!(r.offer(straggler).is_none(), "swept key is tombstoned");
        assert_eq!(r.pending_count(), 0);
    }

    #[test]
    fn ctrl_flag_survives_the_wire_and_is_distinct() {
        assert_eq!(FLAG_SAMPLED & FLAG_CTRL, 0, "flag bits must not overlap");
        let mut m = msg(32);
        m.flags = FLAG_CTRL | FLAG_SAMPLED;
        let frag = decode_fragment(&encode(&m)[0]).unwrap();
        assert_eq!(frag.flags & FLAG_CTRL, FLAG_CTRL);
        let out = Reassembler::new().offer(frag).unwrap();
        assert_eq!(out.flags, FLAG_CTRL | FLAG_SAMPLED);
        assert!(out.trace_ctx().sampled, "sampling survives alongside ctrl");
    }

    #[test]
    fn reassembler_evicts_beyond_cap() {
        let mut r = Reassembler::new();
        for i in 0..(Reassembler::MAX_PENDING as u32 + 10) {
            let m = WireMsg {
                client: 0,
                frame_no: i,
                step: ServiceKind::Sift,
                emit_micros: 0,
                return_port: 0,
                trace_id: 0,
                flags: 0,
                sent_micros: 0,
                payload: Bytes::from(vec![0u8; CHUNK_BYTES * 2]),
            };
            let frames = encode(&m);
            r.offer(decode_fragment(&frames[0]).unwrap());
        }
        assert!(r.pending_count() <= Reassembler::MAX_PENDING + 1);
    }

    #[test]
    fn frame_payload_round_trip() {
        let mut img = vision::GrayImage::new(8, 4);
        img.set(3, 2, 0.5);
        let encoded = encode_frame(&img);
        let back = decode_frame(encoded).expect("valid frame payload");
        assert_eq!(back.width(), 8);
        assert_eq!(back.height(), 4);
        assert!((back.get(3, 2) - 0.5).abs() < 0.01);
    }

    #[test]
    fn state_payload_round_trip() {
        let kp = vision::Keypoint {
            x: 1.0,
            y: 2.0,
            scale: 3.0,
            orientation: 0.5,
            response: 0.9,
            octave: 1,
            level: 2,
        };
        let state = FrameState {
            descriptors: vec![vision::Descriptor {
                keypoint: kp,
                v: [0.25; 128],
            }],
            fisher: vec![0.5, -0.5],
            candidates: vec![2, 0],
        };
        let back = decode_state(encode_state(&state)).expect("valid state");
        assert_eq!(back, state);
    }

    #[test]
    fn result_payload_round_trip() {
        let recs = vec![(
            "monitor".to_string(),
            [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (7.0, 8.0)],
        )];
        let back = decode_result(encode_result(&recs)).expect("valid result");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].0, "monitor");
        assert_eq!(back[0].1[2], (5.0, 6.0));
    }

    #[test]
    fn typed_payload_errors_are_exact() {
        assert_eq!(
            decode_frame(Bytes::from_static(&[0, 0])),
            Err(WireError::PayloadTruncated)
        );
        // Valid header, zero dimensions.
        let mut z = BytesMut::new();
        z.put_u32(0);
        z.put_u32(4);
        assert_eq!(decode_frame(z.freeze()), Err(WireError::PayloadValue));
        // Header promises more pixels than the body carries.
        let mut short = BytesMut::new();
        short.put_u32(4);
        short.put_u32(4);
        short.put_slice(&[1, 2, 3]);
        assert_eq!(
            decode_frame(short.freeze()),
            Err(WireError::PayloadTruncated)
        );
        assert_eq!(
            decode_state(Bytes::from_static(&[0])),
            Err(WireError::PayloadTruncated)
        );
        // Absurd descriptor count.
        let mut huge = BytesMut::new();
        huge.put_u32(200_000);
        assert_eq!(decode_state(huge.freeze()), Err(WireError::PayloadValue));
        // Non-finite floats in a state's keypoints or Fisher vector. (A
        // descriptor value is a byte on the wire, never non-finite: see
        // `descriptor_values_saturate_on_the_wire`.)
        let kp = vision::Keypoint {
            x: 1.0,
            y: 2.0,
            scale: 3.0,
            orientation: 0.5,
            response: 0.9,
            octave: 0,
            level: 1,
        };
        let clean = FrameState {
            descriptors: vec![vision::Descriptor {
                keypoint: kp,
                v: [0.25; 128],
            }],
            fisher: vec![0.5; 4],
            candidates: vec![1],
        };
        assert_eq!(decode_state(encode_state(&clean)).as_ref(), Ok(&clean));
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut a = clean.clone();
            a.descriptors[0].keypoint.response = poison;
            let mut c = clean.clone();
            c.fisher[3] = poison;
            for bad in [a, c] {
                assert_eq!(
                    decode_state(encode_state(&bad)),
                    Err(WireError::PayloadValue)
                );
            }
        }
        assert_eq!(
            decode_result(Bytes::from_static(&[])),
            Err(WireError::PayloadTruncated)
        );
        // Non-UTF-8 name.
        let mut bad = BytesMut::new();
        bad.put_u16(1);
        bad.put_u8(2);
        bad.put_slice(&[0xFF, 0xFE]);
        bad.put_slice(&[0u8; 32]);
        assert_eq!(decode_result(bad.freeze()), Err(WireError::PayloadValue));
    }

    /// Every f32 a descriptor value can hold encodes to one byte, the
    /// same byte every time: NaN and anything below zero to 0, +∞ and
    /// anything at or past 255.5/512 to 255.
    #[test]
    fn descriptor_values_saturate_on_the_wire() {
        let kp = vision::Keypoint {
            x: 1.0,
            y: 2.0,
            scale: 3.0,
            orientation: 0.5,
            response: 0.9,
            octave: 0,
            level: 1,
        };
        let cases = [
            (f32::NAN, 0u8),
            (-f32::NAN, 0),
            (f32::NEG_INFINITY, 0),
            (-1.0, 0),
            (-0.0, 0),
            (0.5 / 512.0, 0),
            (1.5 / 512.0, 2),
            (0.25, 128),
            (255.0 / 512.0, 255),
            (0.5, 255),
            (1.0, 255),
            (f32::MAX, 255),
            (f32::INFINITY, 255),
        ];
        let mut v = [0f32; 128];
        for (slot, &(value, _)) in v.iter_mut().zip(&cases) {
            *slot = value;
        }
        let state = FrameState {
            descriptors: vec![vision::Descriptor { keypoint: kp, v }],
            fisher: vec![],
            candidates: vec![],
        };
        let bytes = encode_state(&state);
        assert_eq!(bytes, encode_state(&state), "deterministic");
        assert_eq!(bytes.len(), 4 + DESC_WIRE_BYTES + 8);
        for (i, &(value, want)) in cases.iter().enumerate() {
            assert_eq!(bytes[4 + 22 + i], want, "value {value:e}");
        }
        let back = decode_state(bytes).expect("every byte is a valid value");
        for (i, &(_, want)) in cases.iter().enumerate() {
            assert_eq!(back.descriptors[0].v[i], f32::from(want) / 512.0);
        }
    }

    /// `encoding` and `lsh` forward the descriptor section untouched: the
    /// joined payload is the one re-encoding the decoded state writes,
    /// and the section is a slice of the received bytes.
    #[test]
    fn forwarded_section_equals_re_encoding() {
        let kp = vision::Keypoint {
            x: 4.0,
            y: 5.0,
            scale: 1.5,
            orientation: -0.5,
            response: 0.1,
            octave: 1,
            level: 2,
        };
        let state = FrameState {
            descriptors: (0..3)
                .map(|i| vision::Descriptor {
                    keypoint: kp,
                    v: std::array::from_fn(|j| ((i * 128 + j) % 97) as f32 / 211.0),
                })
                .collect(),
            fisher: vec![],
            candidates: vec![],
        };
        let sent = encode_state(&state);
        let sections = split_state(sent.clone()).expect("valid state");
        assert_eq!(&sections.descriptors[..], &sent[..4 + 3 * DESC_WIRE_BYTES]);
        let fisher = [0.5, -0.25];
        let forwarded = join_state(&sections.descriptors, &fisher, &[2]);
        let mut decoded = decode_state(sent).expect("valid state");
        decoded.fisher = fisher.to_vec();
        decoded.candidates = vec![2];
        assert_eq!(forwarded, encode_state(&decoded));
    }

    #[test]
    fn descriptor_count_must_match_its_section() {
        let kp = vision::Keypoint {
            x: 1.0,
            y: 1.0,
            scale: 1.0,
            orientation: 0.0,
            response: 1.0,
            octave: 0,
            level: 1,
        };
        let state = FrameState {
            descriptors: vec![
                vision::Descriptor {
                    keypoint: kp,
                    v: [0.1; 128]
                };
                2
            ],
            fisher: vec![0.5; 4],
            candidates: vec![1],
        };
        let good = encode_state(&state).to_vec();
        // Too many eats the Fisher section or runs past the payload's end;
        // too few leaves a descriptor behind, whose `x` (1.0, 0x3f80_0000)
        // is then read as the Fisher count.
        for count in [3u32, 40, 1] {
            let mut bad = good.clone();
            bad[..4].copy_from_slice(&count.to_be_bytes());
            assert_eq!(
                decode_state(Bytes::from(bad.clone())),
                Err(WireError::PayloadTruncated),
                "count {count}"
            );
            // `split_state` alone (what `lsh` runs) catches it too.
            assert!(split_state(Bytes::from(bad)).is_err(), "count {count}");
        }
        let section = split_state(Bytes::from(good)).unwrap().descriptors;
        assert_eq!(
            decode_descriptors(&section[..section.len() - 1]),
            Err(WireError::PayloadTruncated)
        );
    }

    #[test]
    fn state_grows_frame_size_like_the_paper() {
        // A realistic descriptor count makes the embedded-state payload
        // several times the compact one — the 180 KB → 480 KB effect.
        let kp = vision::Keypoint {
            x: 0.0,
            y: 0.0,
            scale: 1.0,
            orientation: 0.0,
            response: 1.0,
            octave: 0,
            level: 1,
        };
        let with_state = FrameState {
            descriptors: vec![
                vision::Descriptor {
                    keypoint: kp,
                    v: [0.1; 128]
                };
                300
            ],
            fisher: vec![0.0; 128],
            candidates: vec![],
        };
        let without_state = FrameState {
            descriptors: vec![],
            fisher: vec![0.0; 128],
            candidates: vec![],
        };
        let big = encode_state(&with_state).len();
        let small = encode_state(&without_state).len();
        assert!(big > small * 50, "state must dominate: {big} vs {small}");
    }
}
