//! The five services as socket-driven threads running real CV compute.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use simcore::SimRng;
use vision::keypoints::DetectorParams;
use vision::pose_filter::PoseFilter;
use vision::tracking::TrackTable;
use vision::ReferenceDb;

use crate::message::ServiceKind;
use crate::obs::RtSvcObs;
use crate::runtime::impair::RtSocket;
use crate::runtime::wire::{
    self, decode_descriptors, decode_frame, decode_state, encode_frame, encode_result,
    encode_state, join_state, split_state, FrameKey, FrameState, Reassembler, WireError, WireMsg,
    MAX_DATAGRAM,
};
use crate::wirev2::{self, DeltaRx, FrameKind, IngestError, RxState, UplinkPolicy};

/// Runtime-plane wire protocol selection, shared by every socket in a
/// deployment (all sockets of one deployment speak the same dialect;
/// receivers stay bilingual regardless).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WireRtConfig {
    /// Frame v2 envelopes (CRC + codec + delta) on every message send.
    /// Off (the default) is byte-for-byte the v1 runtime.
    pub v2: bool,
    /// Client uplink shaping (delta/keyframe cadence, compression).
    /// `policy.compress` also governs inter-service sends.
    pub policy: UplinkPolicy,
}

/// Shared read-only context: the trained recognition artifacts.
pub struct SharedCtx {
    pub db: ReferenceDb,
    /// Dimension-reduction factor applied by `primary`.
    pub reduce: f32,
    /// Cap on descriptors carried in the frame state (bounds datagrams).
    pub max_descriptors: usize,
    /// Staleness threshold in ms (the sidecar filter); 0 disables.
    pub threshold_ms: f64,
    /// Deployment epoch for timestamping.
    pub epoch: Instant,
    /// Wire dialect every service (and client) sends with.
    pub wire: WireRtConfig,
    /// Always-on sampled self-profiler shared by every service thread
    /// (1-in-64 clock pairs on the unsampled path cost one relaxed
    /// fetch_add — cheap enough to never be optional).
    pub prof: observatory::AtomicPhaseProf,
}

/// Runtime self-profiler phases (see [`SharedCtx::prof`]): the per-stage
/// CV compute and the datagram send path.
pub const RT_PHASES: &[&str] = &["compute", "net-send"];
pub(crate) const PH_RT_COMPUTE: usize = 0;
pub(crate) const PH_RT_SEND: usize = 1;
/// Default sampling shift for the runtime profiler (1 in 64).
pub(crate) const RT_PROF_SHIFT: u32 = 6;

/// Per-service counters, shared with the deployment for reporting.
#[derive(Debug, Default)]
pub struct SvcStats {
    pub received: AtomicU64,
    pub processed: AtomicU64,
    pub dropped_stale: AtomicU64,
    /// Frames the reassembler gave up on (lost a fragment): capacity
    /// evictions plus age-based sweeps.
    pub dropped_fragment: AtomicU64,
    /// Frames lost to a replica crash (half-reassembled state that died
    /// with the thread + arrivals at the dead socket during recovery).
    pub dropped_crash: AtomicU64,
    /// Stateful `matching`: frames that completed reassembly during a
    /// fetch-wait but overflowed the parked queue.
    pub dropped_busy: AtomicU64,
    pub send_errors: AtomicU64,
    /// Datagrams rejected by [`wire::decode_fragment`] — malformed or
    /// foreign traffic, counted instead of crashing the service.
    pub malformed: AtomicU64,
    /// Real (non-WouldBlock/TimedOut) receive-path socket errors.
    pub io_errors: AtomicU64,
    /// Frame messages eaten whole by the impairment shim, attributed at
    /// this sender (the runtime mirror of the DES netem loss counters).
    pub net_dropped: AtomicU64,
    /// Stateful `matching`: fetch-request retransmissions.
    pub fetch_retransmits: AtomicU64,
    /// Times this replica was killed by fault injection.
    pub kills: AtomicU64,
    /// Stateful `matching`: late fetch responses that arrived after
    /// their fetch-wait had already given up (recognized by the CTRL
    /// wire flag instead of being mistaken for frame traffic).
    pub late_fetch_rsp: AtomicU64,
    /// `matching` only: live object tracks across all clients.
    pub tracks_active: AtomicU64,
    /// `matching` only: tracks retired after going unobserved.
    pub tracks_retired: AtomicU64,
    /// v2 datagrams rejected by their CRC check (corrupted in flight).
    pub invalid_crc: AtomicU64,
    /// v2 delta frames dropped because their keyframe anchor was
    /// unavailable (self-synchronizing resync, never a bad splice).
    pub delta_resync: AtomicU64,
    /// Datagram bytes offered at this socket's send sites (counted
    /// before the impairment shim's verdict — the same "offered at the
    /// send site" definition the DES uses, which is what makes the
    /// cross-plane bytes-on-wire gate exact).
    pub bytes_sent: AtomicU64,
}

/// Crash-injection cell shared between a replica's thread, its runner,
/// and the deployment. The thread snapshots `generation` at spawn and
/// exits as soon as the live value differs — the runtime analogue of
/// the DES `generation` bump in `crash_instance`, which voids all of
/// the replica's in-memory state.
#[derive(Debug, Default)]
pub struct FaultCell {
    pub generation: AtomicU64,
}

impl FaultCell {
    pub fn current(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }
}

/// What a service thread leaves behind when it exits: the identities of
/// frames whose in-memory state died with it (`(client, frame_no,
/// flags)`), for the supervisor to attribute as crash drops. Empty on a
/// clean shutdown.
#[derive(Debug, Default)]
pub struct ExitReport {
    pub lost_frames: Vec<FrameKey>,
}

/// One service's wiring: its socket, where its output goes, and (for
/// `matching`) where results return to.
pub struct ServiceWiring {
    pub kind: ServiceKind,
    pub socket: RtSocket,
    pub next: SocketAddr,
}

/// How a whole message fared against the impairment shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// At least one fragment reached the wire — the receiver owns any
    /// further attribution (partial loss ages out of its reassembler).
    Delivered,
    /// The shim ate *every* fragment: the receiver can never know this
    /// message existed, so the SENDER must attribute the loss.
    AllShimDropped { frags: usize },
}

/// Ship a message as fragments; errors are counted, not fatal (UDP).
pub fn send_msg(socket: &RtSocket, to: SocketAddr, msg: &WireMsg, stats: &SvcStats) -> SendOutcome {
    send_msg_obs(socket, to, msg, stats, None)
}

/// [`send_msg`] with an optional telemetry handle so `send_errors`
/// increments in both planes at the same program point.
pub fn send_msg_obs(
    socket: &RtSocket,
    to: SocketAddr,
    msg: &WireMsg,
    stats: &SvcStats,
    obs: Option<&RtSvcObs>,
) -> SendOutcome {
    send_datagrams(socket, to, &wire::encode(msg), stats, obs)
}

/// Ship a message under the deployment's wire dialect: v2 envelopes
/// (with `kind`/`base_frame_no` and the configured codec) when the
/// config says so, bare v1 fragments otherwise. Non-frame hops pass
/// [`FrameKind::Plain`] and `base 0`.
#[allow(clippy::too_many_arguments)]
pub fn send_msg_wire(
    socket: &RtSocket,
    to: SocketAddr,
    msg: &WireMsg,
    wire_cfg: &WireRtConfig,
    kind: FrameKind,
    base_frame_no: u32,
    stats: &SvcStats,
    obs: Option<&RtSvcObs>,
) -> SendOutcome {
    if wire_cfg.v2 {
        let (dgrams, _codec) =
            wirev2::encode_msg(msg, wire_cfg.policy.compress, kind, base_frame_no);
        send_datagrams(socket, to, &dgrams, stats, obs)
    } else {
        send_msg_obs(socket, to, msg, stats, obs)
    }
}

/// The one place datagrams meet the socket: per-datagram send-error
/// accounting and offered-bytes counting (see [`SvcStats::bytes_sent`]).
fn send_datagrams(
    socket: &RtSocket,
    to: SocketAddr,
    datagrams: &[Bytes],
    stats: &SvcStats,
    obs: Option<&RtSvcObs>,
) -> SendOutcome {
    let frags = datagrams.len();
    for frame in datagrams {
        stats
            .bytes_sent
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
    }
    let rep = socket.send_many(datagrams, to);
    if rep.errors > 0 {
        stats
            .send_errors
            .fetch_add(rep.errors as u64, Ordering::Relaxed);
        if let Some(o) = obs {
            for _ in 0..rep.errors {
                o.send_errors.inc();
            }
        }
    }
    if frags > 0 && rep.shim_dropped == frags {
        SendOutcome::AllShimDropped { frags }
    } else {
        SendOutcome::Delivered
    }
}

/// Sender-side attribution when the shim ate a *frame* message whole:
/// the runtime mirror of the DES's `net_loss_reason` split (single
/// fragment → netem loss, multi-fragment → fragment loss). Control
/// traffic (fetch req/rsp) must NOT go through here — its loss is
/// recovered by retransmit or surfaces as a stale fetch.
pub fn attribute_net_drop(
    outcome: SendOutcome,
    tctx: trace::TraceCtx,
    at_ns: u64,
    tracer: &trace::ThreadTracer,
    stats: &SvcStats,
    obs: Option<&RtSvcObs>,
) {
    let SendOutcome::AllShimDropped { frags } = outcome else {
        return;
    };
    stats.net_dropped.fetch_add(1, Ordering::Relaxed);
    let reason = if frags > 1 {
        trace::DropReason::FragmentLoss
    } else {
        trace::DropReason::NetemLoss
    };
    tracer.terminal(tctx, at_ns, trace::FrameFate::Dropped(reason));
    if let Some(o) = obs {
        match reason {
            trace::DropReason::FragmentLoss => o.net_drop_fragment.inc(),
            _ => o.net_drop_netem.inc(),
        }
    }
}

/// Count (and, when the corrupted datagram's inner identity survived,
/// attribute) a datagram rejected by [`RxState::ingest`]. A corrupt
/// fragment of a *multi-fragment* message is instead attributed by
/// reassembly eviction (`FragmentLoss`) — it IS a lost fragment; CTRL
/// traffic never gets a frame terminal (its loss is recovered by
/// retransmit or surfaces as a stale fetch).
pub fn attribute_ingest_error(
    err: IngestError,
    epoch: Instant,
    tracer: &trace::ThreadTracer,
    stats: &SvcStats,
    obs: Option<&RtSvcObs>,
) {
    match err {
        IngestError::InvalidCrc { recovered } => {
            stats.invalid_crc.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = obs {
                o.invalid_crc.inc();
            }
            if let Some(id) = recovered {
                if id.single_fragment && id.flags & wire::FLAG_CTRL == 0 {
                    let tctx = trace::TraceCtx::new(
                        id.client,
                        id.frame_no,
                        id.flags & wire::FLAG_SAMPLED != 0,
                    );
                    tracer.terminal(
                        tctx,
                        epoch_ns(epoch),
                        trace::FrameFate::Dropped(trace::DropReason::InvalidCrc),
                    );
                }
            }
        }
        IngestError::Malformed(_) => {
            stats.malformed.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = obs {
                o.malformed.inc();
            }
        }
    }
}

/// Classify a receive-path error: `true` = "no data yet — retry now"
/// (WouldBlock / TimedOut, plus EINTR: a signal cut the syscall short,
/// e.g. a profiler's SIGPROF, and the only correct move is to reissue
/// it immediately), `false` = a real socket error the caller must
/// count. Previously every error was treated as the former, which both
/// hid real faults and hot-spun on them; later EINTR landed in the
/// *latter* bucket, so any signal-heavy environment charged a bogus
/// io_error plus a 1 ms penalty sleep per interrupt — silently
/// collapsing throughput under sampling profilers.
pub fn is_would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

/// How long a partial message may sit in a reassembler before the
/// age-based sweep gives up on it. Far beyond any healthy reassembly
/// window (fragments of one message arrive back-to-back on loopback),
/// far below a run's drain period — so a frame that lost a fragment is
/// attributed before the run ends even when no later traffic pushes it
/// out by capacity.
pub const REASM_MAX_AGE: Duration = Duration::from_millis(1000);

/// Sweep aged partial messages and attribute every eviction (capacity
/// or age) exactly once: `FragmentLoss` terminal + per-service counter.
pub fn attribute_evictions(
    reassembler: &mut Reassembler,
    epoch: Instant,
    tracer: &trace::ThreadTracer,
    stats: &SvcStats,
    obs: Option<&RtSvcObs>,
) {
    reassembler.sweep(REASM_MAX_AGE);
    let at_ns = epoch_ns(epoch);
    for key in reassembler.drain_evicted() {
        stats.dropped_fragment.fetch_add(1, Ordering::Relaxed);
        tracer.terminal(
            key.trace_ctx(),
            at_ns,
            trace::FrameFate::Dropped(trace::DropReason::FragmentLoss),
        );
        if let Some(o) = obs {
            o.drop_fragment.inc();
        }
    }
}

/// Nanoseconds since the deployment epoch (the runtime trace clock).
pub fn epoch_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Service main loop: receive → reassemble → filter → compute → forward.
///
/// Exits when `shutdown` is raised *or* the [`FaultCell`] generation
/// moves past the snapshot this thread was spawned with (a kill). The
/// returned [`ExitReport`] names the frames whose in-memory state died
/// here so the supervisor can attribute them.
#[allow(clippy::too_many_arguments)]
pub fn run_service(
    wiring: ServiceWiring,
    ctx: Arc<SharedCtx>,
    stats: Arc<SvcStats>,
    shutdown: Arc<AtomicBool>,
    fault: Arc<FaultCell>,
    my_gen: u64,
    rng_seed: u64,
    tracer: trace::ThreadTracer,
    track: trace::TrackId,
    obs: Option<RtSvcObs>,
) -> ExitReport {
    let ServiceWiring { kind, socket, next } = wiring;
    let stage = kind.index() as u8;
    socket
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("set_read_timeout");
    let mut reassembler = Reassembler::new();
    let mut rx = RxState::new();
    let mut rng = SimRng::new(rng_seed);
    let mut buf = vec![0u8; MAX_DATAGRAM];
    // matching keeps per-client track tables: the "(ii) tracking them
    // across multiple frames" half of the pipeline's core operation —
    // plus a per-track pose filter that smooths the rendered overlay.
    let mut tracks: HashMap<u16, TrackTable> = HashMap::new();
    let mut filters: HashMap<(u16, u64), PoseFilter> = HashMap::new();
    // primary only: per-client delta anchor stores. A crash loses them
    // with the thread — the respawned replica resyncs on the next
    // keyframe (deltas until then drop counted, never mis-splice).
    let mut delta_rx: HashMap<u16, DeltaRx> = HashMap::new();
    while !shutdown.load(Ordering::Relaxed) && fault.current() == my_gen {
        let dgram = match socket.recv_from(&mut buf) {
            Ok((n, _from)) => &buf[..n],
            Err(e) => {
                if is_would_block(&e) {
                    // Quiet socket: still age out (and attribute) partial
                    // messages that will never complete.
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
        let frag = match rx.ingest(dgram) {
            Ok(frag) => frag,
            Err(e) => {
                attribute_ingest_error(e, ctx.epoch, &tracer, &stats, obs.as_ref());
                continue;
            }
        };
        let completed = reassembler.offer(frag);
        // Attribute frames the reassembler gave up on (lost fragment).
        attribute_evictions(&mut reassembler, ctx.epoch, &tracer, &stats, obs.as_ref());
        if let Some(o) = &obs {
            o.reassembly_pending.set(reassembler.pending_count() as f64);
        }
        let Some(msg) = completed else {
            continue;
        };
        // Post-reassembly v2 reconstruction: decompression first …
        let (mut msg, meta) = match rx.finish(msg) {
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
        // Previous hop's send → this service's reassembled receive:
        // loopback transit plus socket buffer wait.
        tracer.span(
            tctx,
            track,
            stage,
            trace::Phase::IngressQueue,
            (msg.sent_micros * 1_000).min(recv_ns),
            recv_ns,
        );
        // … then delta reconstruction (primary's uplink only): splice
        // the delta onto its keyframe anchor, or drop for resync when
        // the anchor is gone. The reconstructed payload is byte-equal
        // to the full stream the client would have sent.
        if kind == ServiceKind::Primary && meta.kind != FrameKind::Plain {
            match delta_rx.entry(msg.client).or_default().accept_frame(
                meta.kind,
                meta.base_frame_no,
                msg.frame_no,
                msg.payload.clone(),
            ) {
                Some(full) => msg.payload = full,
                None => {
                    stats.delta_resync.fetch_add(1, Ordering::Relaxed);
                    if let Some(o) = &obs {
                        o.delta_resync.inc();
                    }
                    tracer.terminal(
                        tctx,
                        epoch_ns(ctx.epoch),
                        trace::FrameFate::Dropped(trace::DropReason::DeltaResync),
                    );
                    continue;
                }
            }
        }
        // Sidecar staleness filter: do not spend compute on frames that
        // can no longer meet the latency budget.
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
        let pt = ctx.prof.enter(PH_RT_COMPUTE);
        let out = process(kind, &msg, &ctx, &mut rng, &mut tracks, &mut filters);
        ctx.prof.exit(PH_RT_COMPUTE, pt);
        let out = match out {
            Ok(out) => Some(out),
            Err(_) => {
                // Payload decoded fine at the wire layer but failed the
                // stage's typed decode: counted like any malformed input.
                stats.malformed.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = &obs {
                    o.malformed.inc();
                }
                None
            }
        };
        if let Some(out) = out {
            let done_ns = epoch_ns(ctx.epoch);
            tracer.span(tctx, track, stage, trace::Phase::Compute, recv_ns, done_ns);
            let fwd = WireMsg {
                client: msg.client,
                frame_no: msg.frame_no,
                step: kind.next().unwrap_or(ServiceKind::Primary),
                emit_micros: msg.emit_micros,
                return_port: msg.return_port,
                trace_id: msg.trace_id,
                flags: msg.flags,
                // Re-stamped per hop: the next service's ingress-queue
                // span starts where this compute span ends. Rounded
                // *up* so the truncated stamp can never precede this
                // hop's span end (the trace overlap invariant).
                sent_micros: done_ns.div_ceil(1_000),
                payload: out,
            };
            stats.processed.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = &obs {
                o.processed.inc();
                o.latency_ms
                    .record(done_ns.saturating_sub(recv_ns) as f64 / 1e6);
            }
            // matching delivers to the frame's own return address.
            let next = if kind == ServiceKind::Matching {
                SocketAddr::from(([127, 0, 0, 1], msg.return_port))
            } else {
                next
            };
            if kind == ServiceKind::Matching {
                stats.tracks_active.store(
                    tracks.values().map(|t| t.len() as u64).sum(),
                    Ordering::Relaxed,
                );
                stats
                    .tracks_retired
                    .store(tracks.values().map(|t| t.retired).sum(), Ordering::Relaxed);
            }
            let pt = ctx.prof.enter(PH_RT_SEND);
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
            ctx.prof.exit(PH_RT_SEND, pt);
            attribute_net_drop(
                outcome,
                tctx,
                epoch_ns(ctx.epoch),
                &tracer,
                &stats,
                obs.as_ref(),
            );
        }
    }
    ExitReport {
        lost_frames: reassembler.pending_keys(),
    }
}

/// The `sift` stage's compute, shared by the stateless loop and
/// [`crate::runtime::stateful`]: detect, keep the `max_descriptors`
/// strongest keypoints, describe those. The cap is applied by the
/// detector — before orientation and description are spent on keypoints
/// that would be dropped; `describe_all` preserves order, so the result
/// equals describing everything and truncating.
pub fn sift_descriptors(
    img: &vision::GrayImage,
    max_descriptors: usize,
) -> Vec<vision::Descriptor> {
    let mut params = DetectorParams::default();
    params.max_keypoints = params.max_keypoints.min(max_descriptors);
    let (pyr, kps) = vision::keypoints::detect(img, &params);
    vision::descriptor::describe_all(&pyr, &kps)
}

/// The actual per-stage computation, on real pixels and descriptors.
fn process(
    kind: ServiceKind,
    msg: &WireMsg,
    ctx: &SharedCtx,
    rng: &mut SimRng,
    tracks: &mut HashMap<u16, TrackTable>,
    filters: &mut HashMap<(u16, u64), PoseFilter>,
) -> Result<Bytes, WireError> {
    match kind {
        ServiceKind::Primary => {
            // The client uplink is DCT-compressed; primary decodes it,
            // grayscales (implicit) and dimension-reduces, forwarding
            // *raw* pixels — the compressed-vs-raw asymmetry that makes
            // fig. 11's hybrid split expensive.
            let img = vision::codec::decode(msg.payload.clone()).ok_or(WireError::PayloadValue)?;
            let w = ((img.width() as f32 * ctx.reduce) as usize).max(16);
            let h = ((img.height() as f32 * ctx.reduce) as usize).max(16);
            Ok(encode_frame(&img.resize(w, h)))
        }
        ServiceKind::Sift => {
            let img = decode_frame(msg.payload.clone())?;
            let descriptors = sift_descriptors(&img, ctx.max_descriptors);
            // Stateless sift: the descriptors travel IN the frame.
            Ok(encode_state(&FrameState {
                descriptors,
                fisher: Vec::new(),
                candidates: Vec::new(),
            }))
        }
        // `encoding` and `lsh` forward the descriptor section as it came:
        // the bytes `sift` quantised are the bytes `matching` decodes.
        ServiceKind::Encoding => {
            let state = split_state(msg.payload.clone())?;
            let descriptors = decode_descriptors(&state.descriptors)?;
            let fisher: Vec<f32> = ctx
                .db
                .encode_frame(&descriptors)
                .iter()
                .map(|&v| v as f32)
                .collect();
            Ok(join_state(&state.descriptors, &fisher, &state.candidates))
        }
        ServiceKind::Lsh => {
            let state = split_state(msg.payload.clone())?;
            // A frame that skipped `encoding` (or a crafted one) must not
            // reach the index's dimension assert.
            if state.fisher.len() != ctx.db.fisher_dim() {
                return Err(WireError::PayloadValue);
            }
            let fisher: Vec<f64> = state.fisher.iter().map(|&v| v as f64).collect();
            let candidates: Vec<u32> = ctx
                .db
                .lsh_candidates(&fisher, 2)
                .into_iter()
                .map(|(idx, _)| idx as u32)
                .collect();
            Ok(join_state(&state.descriptors, &state.fisher, &candidates))
        }
        ServiceKind::Matching => {
            let state = decode_state(msg.payload.clone())?;
            let mut observations = Vec::new();
            for &cand in &state.candidates {
                if let Some(rec) = ctx
                    .db
                    .match_object(cand as usize, &state.descriptors, 0.0, rng)
                {
                    observations.push((rec.name, rec.pose));
                }
            }
            // Track association (stable identity) + per-track temporal
            // pose smoothing (stable rendering).
            let table = tracks.entry(msg.client).or_default();
            let track_ids = table.observe(msg.frame_no as u64, &observations);
            let recognitions: Vec<(String, [(f64, f64); 4])> = observations
                .into_iter()
                .zip(track_ids)
                .map(|((name, pose), track_id)| {
                    let filter = filters.entry((msg.client, track_id)).or_default();
                    let smoothed = filter.update(msg.frame_no as u64, &pose);
                    (name, smoothed.corners)
                })
                .collect();
            Ok(encode_result(&recognitions))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;
    use vision::db::TrainParams;
    use vision::scene::SceneGenerator;

    fn ctx() -> SharedCtx {
        let scene = SceneGenerator::workplace_scaled(1, 256, 144);
        let mut rng = SimRng::new(7);
        SharedCtx {
            db: ReferenceDb::train(&scene, TrainParams::default(), &mut rng),
            reduce: 0.75,
            max_descriptors: 200,
            threshold_ms: 0.0,
            epoch: Instant::now(),
            wire: WireRtConfig::default(),
            prof: observatory::AtomicPhaseProf::new(RT_PHASES, RT_PROF_SHIFT),
        }
    }

    /// Drive a frame through all five `process` stages in-process — the
    /// data plane without sockets.
    #[test]
    fn full_pipeline_recognizes_objects() {
        let ctx = ctx();
        let scene = SceneGenerator::workplace_scaled(1, 256, 144);
        let mut payload = vision::codec::encode(&scene.frame(0), vision::codec::Quality(85));
        let mut rng = SimRng::new(9);
        let mut tracks = HashMap::new();
        for kind in crate::message::SERVICE_KINDS {
            let msg = WireMsg {
                client: 0,
                frame_no: 0,
                step: kind,
                emit_micros: 0,
                return_port: 0,
                trace_id: 0,
                flags: 0,
                sent_micros: 0,
                payload,
            };
            payload = process(kind, &msg, &ctx, &mut rng, &mut tracks, &mut HashMap::new())
                .expect("stage output");
        }
        let recs = wire::decode_result(payload).expect("result payload");
        assert!(!recs.is_empty(), "no objects recognized end-to-end");
        let names: Vec<_> = recs.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.contains(&"monitor") || names.contains(&"keyboard") || names.contains(&"table"),
            "unexpected names {names:?}"
        );
    }

    #[test]
    fn primary_reduces_dimensions() {
        let ctx = ctx();
        let scene = SceneGenerator::workplace_scaled(1, 256, 144);
        let msg = WireMsg {
            client: 0,
            frame_no: 0,
            step: ServiceKind::Primary,
            emit_micros: 0,
            return_port: 0,
            trace_id: 0,
            flags: 0,
            sent_micros: 0,
            payload: vision::codec::encode(&scene.frame(0), vision::codec::Quality(85)),
        };
        let out = process(
            ServiceKind::Primary,
            &msg,
            &ctx,
            &mut SimRng::new(1),
            &mut HashMap::new(),
            &mut HashMap::new(),
        )
        .unwrap();
        let img = decode_frame(out).unwrap();
        assert_eq!(img.width(), 192);
        assert_eq!(img.height(), 108);
    }

    /// Regression: EINTR must land in the quiet-socket bucket. Before
    /// the fix, `ErrorKind::Interrupted` fell through to the real-error
    /// arm, charging a bogus io_error plus a 1 ms penalty sleep per
    /// signal — collapsing throughput under sampling profilers.
    #[test]
    fn interrupted_recv_is_classified_as_would_block() {
        use std::io::{Error, ErrorKind};
        assert!(is_would_block(&Error::from(ErrorKind::Interrupted)));
        assert!(is_would_block(&Error::from(ErrorKind::WouldBlock)));
        assert!(is_would_block(&Error::from(ErrorKind::TimedOut)));
        assert!(!is_would_block(&Error::from(ErrorKind::ConnectionRefused)));
        // The raw-errno forms the syscalls actually produce.
        assert!(is_would_block(&Error::from_raw_os_error(4 /* EINTR */)));
        assert!(is_would_block(&Error::from_raw_os_error(11 /* EAGAIN */)));
    }

    #[test]
    fn corrupt_payload_yields_none() {
        let ctx = ctx();
        let msg = WireMsg {
            client: 0,
            frame_no: 0,
            step: ServiceKind::Sift,
            emit_micros: 0,
            return_port: 0,
            trace_id: 0,
            flags: 0,
            sent_micros: 0,
            payload: Bytes::from_static(b"not a frame"),
        };
        assert!(process(
            ServiceKind::Sift,
            &msg,
            &ctx,
            &mut SimRng::new(1),
            &mut HashMap::new(),
            &mut HashMap::new()
        )
        .is_err());
    }
}
