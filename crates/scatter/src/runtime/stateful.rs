//! The *stateful* (scAtteR-baseline) variant of the real-UDP runtime:
//! `sift` keeps each frame's descriptors in an in-memory store and
//! `matching` fetches them over a real socket round-trip — the
//! dependency loop of §3.1 running on actual datagrams.
//!
//! Differences from the stateless deployment in [`super::services`]:
//!
//! - `sift` encodes its state once: it forwards it to `encoding` (whose
//!   Fisher vector needs the descriptors) and parks the same encoded
//!   payload in its store under `(client, frame)` with a TTL; a fetch is
//!   answered with those bytes. Fetched entries linger (marked served)
//!   for one fetch-timeout so a retransmitted request whose first
//!   response was lost still succeeds;
//! - `matching`, upon receiving the `lsh` output, sends a `FetchReq`
//!   datagram to `sift` and waits; lost requests are retransmitted under
//!   deadline-bounded exponential backoff
//!   ([`StatefulOptions::fetch_retry_initial`] doubling up to
//!   [`StatefulOptions::fetch_timeout`]); `sift` answers with the
//!   descriptors (or silence if evicted/crashed), and a frame whose wait
//!   exhausts the deadline is dropped as a stale fetch;
//! - fetch responses are marked with [`wire::FLAG_CTRL`] on the wire, so
//!   the fetch-wait can route *control* fragments to its private
//!   reassembler while *frame* fragments continue through the main one —
//!   completed frames are parked for the next loop turn instead of being
//!   silently destroyed (the historical frame-swallowing bug), and a
//!   parked-queue overflow is a counted busy-ingress drop.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use simcore::SimRng;

use crate::message::ServiceKind;
use crate::obs::RtSvcObs;
use crate::runtime::impair::{RtSocket, SendDisposition};
use crate::runtime::services::{
    attribute_evictions, attribute_net_drop, epoch_ns, is_would_block, send_msg_obs, send_msg_wire,
    sift_descriptors, ExitReport, FaultCell, SharedCtx, SvcStats, PH_RT_COMPUTE,
};
use crate::runtime::wire::{
    self, decode_frame, decode_state, encode_result, encode_state, split_state, FrameKey,
    FrameState, Reassembler, WireMsg, MAX_DATAGRAM,
};
use crate::wirev2::{FrameKind, RxState};

/// Control datagrams of the fetch protocol ride the payload of a
/// `WireMsg` whose `step` is the *origin* service, flagged by a leading
/// control byte.
const CTRL_FETCH_REQ: u8 = 0xF1;
const CTRL_FETCH_RSP: u8 = 0xF2;

/// Frames that complete reassembly while `matching` is busy inside a
/// fetch-wait are parked for the next loop turn; past this depth the
/// arriving frame is a (counted, traced) busy-ingress drop — the same
/// semantics as the DES's drop-on-busy ingress.
const PARK_CAP: usize = 32;

/// Options for the stateful deployment.
#[derive(Debug, Clone)]
pub struct StatefulOptions {
    /// How long `matching` waits for sift's feature response in total
    /// (the retransmit deadline).
    pub fetch_timeout: Duration,
    /// First retransmit delay; doubles each retry until `fetch_timeout`.
    pub fetch_retry_initial: Duration,
    /// How long `sift` keeps un-fetched state.
    pub state_ttl: Duration,
}

impl Default for StatefulOptions {
    fn default() -> Self {
        StatefulOptions {
            fetch_timeout: Duration::from_millis(500),
            fetch_retry_initial: Duration::from_millis(25),
            state_ttl: Duration::from_secs(5),
        }
    }
}

impl StatefulOptions {
    /// How long a *served* store entry lingers before removal: long
    /// enough that a retransmitted request (response lost) still finds
    /// it, bounded by the requester's own deadline.
    fn serve_linger(&self) -> Duration {
        self.fetch_timeout
    }
}

/// Encode a fetch request for `(client, frame)` with the requester's port.
fn encode_fetch_req(client: u16, frame_no: u32, reply_port: u16) -> Bytes {
    let mut b = BytesMut::with_capacity(9);
    b.put_u8(CTRL_FETCH_REQ);
    b.put_u16(client);
    b.put_u32(frame_no);
    b.put_u16(reply_port);
    b.freeze()
}

fn decode_fetch_req(mut buf: Bytes) -> Option<(u16, u32, u16)> {
    if buf.remaining() != 9 || buf.get_u8() != CTRL_FETCH_REQ {
        return None;
    }
    Some((buf.get_u16(), buf.get_u32(), buf.get_u16()))
}

/// A fetch response: the control byte, then the parked state payload as
/// `sift` encoded it.
fn encode_fetch_rsp(state: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(1 + state.len());
    b.put_u8(CTRL_FETCH_RSP);
    b.put_slice(state);
    b.freeze()
}

fn decode_fetch_rsp(mut buf: Bytes) -> Option<FrameState> {
    if !buf.has_remaining() || buf.get_u8() != CTRL_FETCH_RSP {
        return None;
    }
    decode_state(buf).ok()
}

/// One parked frame state in sift's store.
struct StoredState {
    /// The state payload as forwarded to `encoding`.
    state: Bytes,
    stored_at: Instant,
    /// Set when first served; the entry then lingers for
    /// [`StatefulOptions::serve_linger`] so retransmitted requests
    /// (first response lost in the network) can still be answered.
    served_at: Option<Instant>,
}

/// `sift` with a stateful feature store: detects/describes, parks the
/// state, forwards a stub, and serves fetch requests. Exits on shutdown
/// or when the fault generation moves (a kill): the store — the whole
/// point of this variant — dies with the thread.
#[allow(clippy::too_many_arguments)]
pub fn run_stateful_sift(
    socket: RtSocket,
    next: SocketAddr,
    ctx: Arc<SharedCtx>,
    stats: Arc<SvcStats>,
    shutdown: Arc<AtomicBool>,
    fault: Arc<FaultCell>,
    my_gen: u64,
    opts: StatefulOptions,
    store_size: Arc<AtomicU64>,
    tracer: trace::ThreadTracer,
    track: trace::TrackId,
    obs: Option<RtSvcObs>,
) -> ExitReport {
    let stage = ServiceKind::Sift.index() as u8;
    socket
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("set_read_timeout");
    let mut reassembler = Reassembler::new();
    let mut rx = RxState::new();
    let mut buf = vec![0u8; MAX_DATAGRAM];
    let mut store: HashMap<(u16, u32), StoredState> = HashMap::new();
    while !shutdown.load(Ordering::Relaxed) && fault.current() == my_gen {
        // TTL sweep: unfetched entries age out after `state_ttl`; served
        // entries are removed once their linger window closes.
        let ttl = opts.state_ttl;
        let linger = opts.serve_linger();
        store.retain(|_, s| {
            s.stored_at.elapsed() <= ttl && s.served_at.is_none_or(|at| at.elapsed() <= linger)
        });
        store_size.store(store.len() as u64, Ordering::Relaxed);
        if let Some(o) = &obs {
            o.state_store.set(store.len() as f64);
        }

        let dgram = match socket.recv_from(&mut buf) {
            Ok((n, _from)) => &buf[..n],
            Err(e) => {
                if is_would_block(&e) {
                    attribute_evictions(&mut reassembler, ctx.epoch, &tracer, &stats, obs.as_ref());
                } else {
                    stats.io_errors.fetch_add(1, Ordering::Relaxed);
                    if let Some(o) = &obs {
                        o.io_errors.inc();
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                continue;
            }
        };
        // Control datagrams (fetch requests) are not fragmented.
        if !dgram.is_empty() && dgram[0] == CTRL_FETCH_REQ {
            if let Some((client, frame_no, reply_port)) =
                decode_fetch_req(Bytes::copy_from_slice(dgram))
            {
                if let Some(entry) = store.get_mut(&(client, frame_no)) {
                    // Serve WITHOUT removing: mark served and let the
                    // linger sweep reclaim it, so a retransmitted
                    // request after a lost response still succeeds.
                    entry.served_at.get_or_insert_with(Instant::now);
                    let rsp = WireMsg {
                        client,
                        frame_no,
                        step: ServiceKind::Matching,
                        emit_micros: 0,
                        return_port: 0,
                        // Fetch responses ride inside matching's
                        // FetchWait span; they carry identity only.
                        trace_id: ((client as u64) << 32) | frame_no as u64,
                        flags: wire::FLAG_CTRL,
                        sent_micros: 0,
                        payload: encode_fetch_rsp(&entry.state),
                    };
                    let to = SocketAddr::from(([127, 0, 0, 1], reply_port));
                    // Control traffic: a shim-eaten response is NOT a
                    // frame terminal — matching retransmits, and the
                    // frame's fate is decided there.
                    let _ = send_msg_obs(&socket, to, &rsp, &stats, obs.as_ref());
                }
            }
            continue;
        }
        let frag = match rx.ingest(dgram) {
            Ok(frag) => frag,
            Err(e) => {
                crate::runtime::services::attribute_ingest_error(
                    e,
                    ctx.epoch,
                    &tracer,
                    &stats,
                    obs.as_ref(),
                );
                continue;
            }
        };
        let completed = reassembler.offer(frag);
        attribute_evictions(&mut reassembler, ctx.epoch, &tracer, &stats, obs.as_ref());
        if let Some(o) = &obs {
            o.reassembly_pending.set(reassembler.pending_count() as f64);
        }
        let Some(msg) = completed else {
            continue;
        };
        let (msg, _meta) = match rx.finish(msg) {
            Ok(x) => x,
            Err(_) => {
                stats.malformed.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = &obs {
                    o.malformed.inc();
                }
                continue;
            }
        };
        stats.received.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &obs {
            o.ingress.inc();
        }
        let tctx = msg.trace_ctx();
        let recv_ns = epoch_ns(ctx.epoch);
        tracer.span(
            tctx,
            track,
            stage,
            trace::Phase::IngressQueue,
            (msg.sent_micros * 1_000).min(recv_ns),
            recv_ns,
        );
        let Ok(img) = decode_frame(msg.payload.clone()) else {
            stats.malformed.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = &obs {
                o.malformed.inc();
            }
            continue;
        };
        let pt = ctx.prof.enter(PH_RT_COMPUTE);
        let descriptors = sift_descriptors(&img, ctx.max_descriptors);
        ctx.prof.exit(PH_RT_COMPUTE, pt);
        // `encoding` needs the descriptors for its Fisher vector, and
        // `matching` needs them back for its pose step: one encoded
        // payload serves both, forwarded and parked.
        let state = encode_state(&FrameState {
            descriptors,
            fisher: Vec::new(),
            candidates: Vec::new(),
        });
        store.insert(
            (msg.client, msg.frame_no),
            StoredState {
                state: state.clone(),
                stored_at: Instant::now(),
                served_at: None,
            },
        );
        store_size.store(store.len() as u64, Ordering::Relaxed);
        let done_ns = epoch_ns(ctx.epoch);
        tracer.span(tctx, track, stage, trace::Phase::Compute, recv_ns, done_ns);
        let fwd = WireMsg {
            client: msg.client,
            frame_no: msg.frame_no,
            step: ServiceKind::Encoding,
            emit_micros: msg.emit_micros,
            return_port: msg.return_port,
            trace_id: msg.trace_id,
            flags: msg.flags,
            sent_micros: done_ns.div_ceil(1_000),
            payload: state,
        };
        stats.processed.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &obs {
            o.processed.inc();
            o.latency_ms
                .record(done_ns.saturating_sub(recv_ns) as f64 / 1e6);
        }
        let outcome = send_msg_wire(
            &socket,
            next,
            &fwd,
            &ctx.wire,
            FrameKind::Plain,
            0,
            &stats,
            obs.as_ref(),
        );
        attribute_net_drop(
            outcome,
            tctx,
            epoch_ns(ctx.epoch),
            &tracer,
            &stats,
            obs.as_ref(),
        );
    }
    // Half-reassembled frames die with the thread; parked *store*
    // entries are NOT reported — their frames are still alive downstream
    // and will be attributed at matching (stale fetch) or complete.
    ExitReport {
        lost_frames: reassembler.pending_keys(),
    }
}

/// `matching` with the fetch loop: on lsh output, request sift's parked
/// state, wait (bounded, with retransmits), then match + pose and reply
/// to the client.
#[allow(clippy::too_many_arguments)]
pub fn run_stateful_matching(
    socket: RtSocket,
    sift_addr: SocketAddr,
    ctx: Arc<SharedCtx>,
    stats: Arc<SvcStats>,
    shutdown: Arc<AtomicBool>,
    fault: Arc<FaultCell>,
    my_gen: u64,
    opts: StatefulOptions,
    fetch_failures: Arc<AtomicU64>,
    rng_seed: u64,
    tracer: trace::ThreadTracer,
    track: trace::TrackId,
    obs: Option<RtSvcObs>,
) -> ExitReport {
    let stage = ServiceKind::Matching.index() as u8;
    socket
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("set_read_timeout");
    let mut reassembler = Reassembler::new();
    let mut rx = RxState::new();
    let mut rng = SimRng::new(rng_seed);
    // One receive buffer for the main loop and the fetch-wait below.
    let mut buf = vec![0u8; MAX_DATAGRAM];
    let my_port = socket.local_addr().expect("local addr").port();
    // Frames that completed reassembly during a fetch-wait, awaiting
    // their own turn (the fix for the fetch-wait frame-swallowing bug).
    let mut parked: VecDeque<WireMsg> = VecDeque::new();
    // The frame whose fetch-wait a kill interrupted, for the exit report.
    let mut killed_mid_fetch: Option<FrameKey> = None;
    while !shutdown.load(Ordering::Relaxed) && fault.current() == my_gen {
        // Parked frames (arrived during an earlier fetch-wait) are
        // served before new socket traffic.
        let msg = if let Some(m) = parked.pop_front() {
            m
        } else {
            let n = match socket.recv_from(&mut buf) {
                Ok((n, _from)) => n,
                Err(e) => {
                    if is_would_block(&e) {
                        attribute_evictions(
                            &mut reassembler,
                            ctx.epoch,
                            &tracer,
                            &stats,
                            obs.as_ref(),
                        );
                    } else {
                        stats.io_errors.fetch_add(1, Ordering::Relaxed);
                        if let Some(o) = &obs {
                            o.io_errors.inc();
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    continue;
                }
            };
            let completed = match rx.ingest(&buf[..n]) {
                Err(e) => {
                    crate::runtime::services::attribute_ingest_error(
                        e,
                        ctx.epoch,
                        &tracer,
                        &stats,
                        obs.as_ref(),
                    );
                    None
                }
                Ok(frag) if frag.flags & wire::FLAG_CTRL != 0 => {
                    // A fetch response arriving after its wait gave up
                    // (StaleFetch already attributed). Count it — it must
                    // not enter the frame reassembler.
                    stats.late_fetch_rsp.fetch_add(1, Ordering::Relaxed);
                    None
                }
                Ok(frag) => reassembler.offer(frag),
            };
            let arrived = match completed.map(|c| rx.finish(c)) {
                Some(Ok((m, _meta))) => Some(m),
                Some(Err(_)) => {
                    stats.malformed.fetch_add(1, Ordering::Relaxed);
                    if let Some(o) = &obs {
                        o.malformed.inc();
                    }
                    None
                }
                None => None,
            };
            attribute_evictions(&mut reassembler, ctx.epoch, &tracer, &stats, obs.as_ref());
            if let Some(o) = &obs {
                o.reassembly_pending.set(reassembler.pending_count() as f64);
            }
            let Some(m) = arrived else {
                continue;
            };
            m
        };
        stats.received.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &obs {
            o.ingress.inc();
        }
        let tctx = msg.trace_ctx();
        let recv_ns = epoch_ns(ctx.epoch);
        tracer.span(
            tctx,
            track,
            stage,
            trace::Phase::IngressQueue,
            (msg.sent_micros * 1_000).min(recv_ns),
            recv_ns,
        );
        // Sidecar staleness filter (frames parked through a long
        // fetch-wait may have aged past the budget).
        if ctx.threshold_ms > 0.0 && msg.age_ms(ctx.epoch) > ctx.threshold_ms {
            stats.dropped_stale.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = &obs {
                o.drop_stale.inc();
            }
            tracer.terminal(
                tctx,
                epoch_ns(ctx.epoch),
                trace::FrameFate::Dropped(trace::DropReason::ThresholdFilter),
            );
            continue;
        }
        // Only the candidates are read here; the descriptors come from
        // sift's store.
        let Ok(lsh_state) = split_state(msg.payload.clone()) else {
            stats.malformed.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = &obs {
                o.malformed.inc();
            }
            continue;
        };

        // The dependency loop, for real: ask sift for the frame state.
        // A single lost request datagram no longer costs the whole
        // timeout — the request is retransmitted under exponential
        // backoff, bounded by the fetch deadline. Meanwhile the wait
        // routes CTRL fragments to a private reassembler and parks
        // completed *frame* messages instead of destroying them.
        let req = encode_fetch_req(msg.client, msg.frame_no, my_port);
        let fetch_sent_ns = epoch_ns(ctx.epoch);
        if socket.send_to(&req, sift_addr) == SendDisposition::Error {
            stats.send_errors.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = &obs {
                o.send_errors.inc();
            }
        }
        let deadline = Instant::now() + opts.fetch_timeout;
        let mut backoff = opts.fetch_retry_initial;
        let mut next_retry = Instant::now() + backoff;
        let mut fetched: Option<FrameState> = None;
        let mut fetch_reasm = Reassembler::new();
        while fetched.is_none()
            && Instant::now() < deadline
            && !shutdown.load(Ordering::Relaxed)
            && fault.current() == my_gen
        {
            if Instant::now() >= next_retry {
                if socket.send_to(&req, sift_addr) == SendDisposition::Error {
                    stats.send_errors.fetch_add(1, Ordering::Relaxed);
                    if let Some(o) = &obs {
                        o.send_errors.inc();
                    }
                }
                stats.fetch_retransmits.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = &obs {
                    o.fetch_retransmits.inc();
                }
                backoff = backoff.saturating_mul(2);
                next_retry = Instant::now() + backoff;
            }
            let n = match socket.recv_from(&mut buf) {
                Ok((n, _)) => n,
                Err(ref e) if is_would_block(e) => continue,
                Err(_) => {
                    stats.io_errors.fetch_add(1, Ordering::Relaxed);
                    if let Some(o) = &obs {
                        o.io_errors.inc();
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            };
            match rx.ingest(&buf[..n]) {
                Ok(frag) if frag.flags & wire::FLAG_CTRL != 0 => {
                    if let Some(rsp) = fetch_reasm.offer(frag) {
                        if rsp.client == msg.client && rsp.frame_no == msg.frame_no {
                            if let Some(state) = decode_fetch_rsp(rsp.payload) {
                                fetched = Some(state);
                            }
                        } else {
                            // A response for an *earlier* frame whose
                            // wait already expired.
                            stats.late_fetch_rsp.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Ok(frag) => {
                    // Frame traffic mid-wait: offer it to the MAIN
                    // reassembler and park completions. (The old code
                    // fed these to the throwaway fetch reassembler —
                    // unrelated in-flight frames vanished without a
                    // counter or a trace terminal.)
                    if let Some(m) = reassembler.offer(frag) {
                        match rx.finish(m) {
                            Ok((m, _meta)) => {
                                if parked.len() >= PARK_CAP {
                                    stats.dropped_busy.fetch_add(1, Ordering::Relaxed);
                                    if let Some(o) = &obs {
                                        o.drop_busy.inc();
                                    }
                                    tracer.terminal(
                                        m.trace_ctx(),
                                        epoch_ns(ctx.epoch),
                                        trace::FrameFate::Dropped(trace::DropReason::BusyIngress),
                                    );
                                } else {
                                    parked.push_back(m);
                                }
                            }
                            Err(_) => {
                                stats.malformed.fetch_add(1, Ordering::Relaxed);
                                if let Some(o) = &obs {
                                    o.malformed.inc();
                                }
                            }
                        }
                    }
                    attribute_evictions(&mut reassembler, ctx.epoch, &tracer, &stats, obs.as_ref());
                }
                Err(e) => {
                    crate::runtime::services::attribute_ingest_error(
                        e,
                        ctx.epoch,
                        &tracer,
                        &stats,
                        obs.as_ref(),
                    );
                }
            }
        }
        if fetched.is_none() && (shutdown.load(Ordering::Relaxed) || fault.current() != my_gen) {
            // Killed (or shut down) mid-wait: this frame's in-memory
            // state dies with the thread; the supervisor attributes it.
            killed_mid_fetch = Some(FrameKey::new(msg.client, msg.frame_no, msg.flags));
            break;
        }
        let fetch_end_ns = epoch_ns(ctx.epoch);
        tracer.span(
            tctx,
            track,
            stage,
            trace::Phase::FetchWait,
            fetch_sent_ns,
            fetch_end_ns,
        );
        let Some(state) = fetched else {
            fetch_failures.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = &obs {
                o.drop_stale_fetch.inc();
            }
            tracer.terminal(
                tctx,
                fetch_end_ns,
                trace::FrameFate::Dropped(trace::DropReason::StaleFetch),
            );
            continue;
        };

        let pt = ctx.prof.enter(PH_RT_COMPUTE);
        let mut recognitions = Vec::new();
        for &cand in &lsh_state.candidates {
            if let Some(rec) = ctx
                .db
                .match_object(cand as usize, &state.descriptors, 0.0, &mut rng)
            {
                recognitions.push((rec.name, rec.pose.corners));
            }
        }
        ctx.prof.exit(PH_RT_COMPUTE, pt);
        let done_ns = epoch_ns(ctx.epoch);
        tracer.span(
            tctx,
            track,
            stage,
            trace::Phase::Compute,
            fetch_end_ns,
            done_ns,
        );
        let out = WireMsg {
            client: msg.client,
            frame_no: msg.frame_no,
            step: ServiceKind::Primary, // terminal hop marker
            emit_micros: msg.emit_micros,
            return_port: msg.return_port,
            trace_id: msg.trace_id,
            flags: msg.flags,
            sent_micros: done_ns.div_ceil(1_000),
            payload: encode_result(&recognitions),
        };
        stats.processed.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &obs {
            o.processed.inc();
            o.latency_ms
                .record(done_ns.saturating_sub(recv_ns) as f64 / 1e6);
        }
        let to = SocketAddr::from(([127, 0, 0, 1], msg.return_port));
        let outcome = send_msg_wire(
            &socket,
            to,
            &out,
            &ctx.wire,
            FrameKind::Plain,
            0,
            &stats,
            obs.as_ref(),
        );
        attribute_net_drop(
            outcome,
            tctx,
            epoch_ns(ctx.epoch),
            &tracer,
            &stats,
            obs.as_ref(),
        );
    }
    let mut lost_frames = reassembler.pending_keys();
    lost_frames.extend(
        parked
            .iter()
            .map(|m| FrameKey::new(m.client, m.frame_no, m.flags)),
    );
    lost_frames.extend(killed_mid_fetch);
    ExitReport { lost_frames }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_protocol_round_trips() {
        let req = encode_fetch_req(3, 99, 40_001);
        assert_eq!(decode_fetch_req(req), Some((3, 99, 40_001)));
        assert!(decode_fetch_req(Bytes::from_static(b"bogus")).is_none());

        let kp = vision::Keypoint {
            x: 1.0,
            y: 2.0,
            scale: 1.0,
            orientation: 0.0,
            response: 0.5,
            octave: 0,
            level: 1,
        };
        let d = vision::Descriptor {
            keypoint: kp,
            v: [0.1; 128],
        };
        let state = FrameState {
            descriptors: vec![d.clone()],
            fisher: vec![],
            candidates: vec![1],
        };
        let rsp = encode_fetch_rsp(&encode_state(&state));
        // The fetched descriptors are the quantised ones: 0.1 ships as
        // byte 51 and arrives as 51/512.
        let quantised = FrameState {
            descriptors: vec![d.quantized()],
            ..state
        };
        assert_eq!(quantised.descriptors[0].v[0], 51.0 / 512.0);
        assert_eq!(decode_fetch_rsp(rsp), Some(quantised));
    }

    #[test]
    fn control_bytes_disjoint_from_wire_magic() {
        // The first byte of a fragmented WireMsg is the top byte of
        // MAGIC (0x53); control datagrams must not collide.
        assert_ne!(CTRL_FETCH_REQ, 0x53);
        assert_ne!(CTRL_FETCH_RSP, 0x53);
    }

    #[test]
    fn backoff_schedule_is_deadline_bounded() {
        // 25 → 50 → 100 → 200 ms doublings stay inside a 500 ms
        // deadline: at most 4 retransmits after the initial send.
        let opts = StatefulOptions::default();
        let mut at = Duration::ZERO;
        let mut backoff = opts.fetch_retry_initial;
        let mut retries = 0;
        loop {
            at += backoff;
            if at >= opts.fetch_timeout {
                break;
            }
            retries += 1;
            backoff = backoff.saturating_mul(2);
        }
        assert_eq!(retries, 4);
    }
}
