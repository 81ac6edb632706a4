//! Deterministic tail-sampled tracing.
//!
//! Head sampling (the PR 1 `trace::Tracer` with `sample_every: N`)
//! decides a frame's fate *before* anything is known about it, so at
//! 1-in-1000 it keeps 999 of every 1000 anomalies invisible — exactly
//! the frames a million-client characterization needs. The
//! [`TailSampler`] inverts the decision: every frame is recorded while
//! in flight, and the keep/discard choice is made at the frame's
//! *terminal*, when its fate is known:
//!
//! - **dropped** frames are always retained (any [`trace::DropReason`]);
//! - **SLO-violating** completions (end-to-end above `slo_ms`) are
//!   always retained;
//! - **crash-adjacent** frames — terminal within `crash_window_ns`
//!   after the most recent [`TailSampler::note_crash`] mark — are
//!   always retained, capturing the healthy-looking collateral around
//!   a failure;
//! - everything else survives only the **deterministic reservoir**:
//!   `splitmix64(seed ^ trace_id) % reservoir_1_in == 0`.
//!
//! # Determinism
//!
//! The decision ([`decide`]) is a pure function of the config and the
//! frame's own events — no RNG draw, no wall clock, no global counter.
//! Retained events are appended in terminal order, and the DES fires
//! events in the global `(time, seq)` order, so the retained log is
//! bit-identical across reruns. The proptests in
//! `tests/observatory.rs` pin this end to end.
//!
//! # Memory
//!
//! Pending state is O(frames in flight), not O(frames emitted): a
//! frame's buffered events are released (retained or recycled) at its
//! terminal. The retained set itself is capped at
//! `max_retained_frames`; once the cap is reached the sampler flips
//! into **counting mode** — no more per-frame map entries or event
//! buffers, just the classification counters
//! ([`TailStats::retained_truncated`] and the per-class counts) — so a
//! pathological run — e.g. scAtteR dropping most of a 100k-client
//! offered load, where *every* drop is anomalous — degrades to anomaly
//! *counting* at a few nanoseconds per frame instead of unbounded
//! anomaly *storage*. Counting mode changes two accounting details
//! (documented on [`TailSampler::terminal_with_emit`]): `frames_seen`
//! counts emissions rather than frame lifetimes, and SLO
//! classification uses the terminal site's emit-time hint rather than
//! the pending map. The flip itself happens in global event order, so
//! bit-identity across reruns is preserved.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use trace::{FrameFate, Phase, SpanRecord, TraceCtx, TraceEvent, TraceLog, TrackId, TrackInfo};

/// Tail-sampling policy. All decisions are pure in `(self, frame)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailConfig {
    /// Latency objective: completions slower than this are anomalous
    /// (mirrors `telemetry::SloConfig`'s 100 ms budget).
    pub slo_ms: f64,
    /// Frames whose terminal falls within this window after a crash
    /// mark are retained as crash-adjacent.
    pub crash_window_ns: u64,
    /// Uninteresting frames are kept 1-in-N by the seeded reservoir.
    pub reservoir_1_in: u64,
    /// Reservoir seed; the DES xors the run seed in so different runs
    /// keep different (but individually reproducible) survivor sets.
    pub seed: u64,
    /// Hard cap on fully-retained frames; past it the sampler degrades
    /// to counting mode — frames are classified and counted
    /// (`retained_truncated` for would-be keeps) with no buffering.
    pub max_retained_frames: u64,
}

impl Default for TailConfig {
    fn default() -> Self {
        TailConfig {
            slo_ms: 100.0,
            crash_window_ns: 250_000_000,
            reservoir_1_in: 64,
            seed: 0,
            max_retained_frames: 2_000,
        }
    }
}

/// Why a frame was (or was not) retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retain {
    Dropped,
    SloViolation,
    CrashAdjacent,
    Reservoir,
    Discard,
}

impl Retain {
    pub fn keeps(self) -> bool {
        !matches!(self, Retain::Discard)
    }

    /// Anomalous = retained unconditionally, not by reservoir luck.
    pub fn anomalous(self) -> bool {
        matches!(
            self,
            Retain::Dropped | Retain::SloViolation | Retain::CrashAdjacent
        )
    }
}

/// SplitMix64 finalizer: the reservoir's hash. Public so the gates and
/// proptests can reproduce decisions independently.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The retention decision for one frame — a pure function of the
/// config, the frame's identity and timing, its fate (`None` = still in
/// flight at run end), and the most recent crash mark at or before its
/// terminal. This purity is what the bit-identical-replay gates rest
/// on.
pub fn decide(
    cfg: &TailConfig,
    trace_id: u64,
    emitted_ns: u64,
    at_ns: u64,
    fate: Option<FrameFate>,
    last_crash_ns: Option<u64>,
) -> Retain {
    if matches!(fate, Some(FrameFate::Dropped(_))) {
        return Retain::Dropped;
    }
    if matches!(fate, Some(FrameFate::Completed)) {
        let e2e_ms = at_ns.saturating_sub(emitted_ns) as f64 / 1e6;
        if e2e_ms > cfg.slo_ms {
            return Retain::SloViolation;
        }
    }
    if let Some(crash) = last_crash_ns {
        if at_ns >= crash && at_ns.saturating_sub(crash) <= cfg.crash_window_ns {
            return Retain::CrashAdjacent;
        }
    }
    if splitmix64(cfg.seed ^ trace_id).is_multiple_of(cfg.reservoir_1_in.max(1)) {
        return Retain::Reservoir;
    }
    Retain::Discard
}

/// Retention accounting, returned beside the retained [`TraceLog`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailStats {
    /// Frames that entered the sampler (first event seen).
    pub frames_seen: u64,
    /// Frames fully retained (events present in the log).
    pub frames_retained: u64,
    /// Anomalous decisions by class — counted even past the retention
    /// cap, so anomaly *counts* are always exact.
    pub dropped: u64,
    pub slo_violations: u64,
    pub crash_adjacent: u64,
    pub reservoir: u64,
    /// Frames whose decision said "keep" after the cap was reached:
    /// counted, events recycled.
    pub retained_truncated: u64,
    /// High-water mark of simultaneously-pending frames — the
    /// sampler's actual memory bound.
    pub peak_pending: u64,
}

impl TailStats {
    pub fn anomalous(&self) -> u64 {
        self.dropped + self.slo_violations + self.crash_adjacent
    }
}

/// Trace ids are `client << 32 | frame_no` — already uniformly usable
/// integers, so the pending map hashes them with one Fibonacci multiply
/// instead of SipHash (same reasoning as `simcore`'s tombstone set:
/// this map is touched several times per simulated frame).
#[derive(Default, Clone)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

struct PendingFrame {
    emitted_ns: u64,
    events: Vec<TraceEvent>,
}

/// The tail-sampling collector. Mirrors the `trace::Tracer` recording
/// API exactly, so the DES's record sites are identical whichever
/// collector is behind them (see [`crate::sink::DesSink`]).
pub struct TailSampler {
    cfg: TailConfig,
    tracks: Vec<TrackInfo>,
    pending: HashMap<u64, PendingFrame, BuildHasherDefault<IdHasher>>,
    retained: Vec<TraceEvent>,
    /// Recycled event buffers: a frame's Vec goes back in the pool at
    /// its terminal, so steady state allocates nothing per frame.
    pool: Vec<Vec<TraceEvent>>,
    last_crash_ns: Option<u64>,
    stats: TailStats,
    /// Set (permanently) once `frames_retained` hits the cap: from then
    /// on frames are classified and counted without buffering.
    counting: bool,
}

impl TailSampler {
    pub fn new(cfg: TailConfig) -> TailSampler {
        TailSampler {
            cfg,
            tracks: Vec::new(),
            pending: HashMap::default(),
            retained: Vec::new(),
            pool: Vec::new(),
            last_crash_ns: None,
            stats: TailStats::default(),
            counting: false,
        }
    }

    pub fn config(&self) -> &TailConfig {
        &self.cfg
    }

    pub fn register_track(
        &mut self,
        name: impl Into<String>,
        machine: impl Into<String>,
    ) -> TrackId {
        let id = TrackId(self.tracks.len() as u16);
        self.tracks.push(TrackInfo {
            id,
            name: name.into(),
            machine: machine.into(),
        });
        id
    }

    /// Tail sampling has no head gate: every context is live.
    #[inline]
    pub fn ctx(&self, client: u16, frame_no: u32) -> TraceCtx {
        TraceCtx::new(client, frame_no, true)
    }

    /// Mark a crash instant: terminals within `crash_window_ns` after
    /// it are retained as crash-adjacent.
    pub fn note_crash(&mut self, at_ns: u64) {
        self.last_crash_ns = Some(at_ns);
    }

    #[inline]
    fn frame_mut(&mut self, trace_id: u64, first_ns: u64) -> &mut PendingFrame {
        let entry = self.pending.entry(trace_id);
        if let std::collections::hash_map::Entry::Vacant(_) = entry {
            self.stats.frames_seen += 1;
        }
        let pool = &mut self.pool;
        let frame = entry.or_insert_with(|| PendingFrame {
            emitted_ns: first_ns,
            events: pool.pop().unwrap_or_default(),
        });
        frame
    }

    #[inline]
    pub fn emitted(&mut self, ctx: TraceCtx, at_ns: u64) {
        if !ctx.sampled {
            return;
        }
        if self.counting {
            // No map entry, no buffer: the emission itself is the count.
            self.stats.frames_seen += 1;
            return;
        }
        self.frame_mut(ctx.trace_id, at_ns)
            .events
            .push(TraceEvent::Emitted { ctx, at_ns });
        self.stats.peak_pending = self.stats.peak_pending.max(self.pending.len() as u64);
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn span(
        &mut self,
        ctx: TraceCtx,
        track: TrackId,
        stage: u8,
        phase: Phase,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !ctx.sampled {
            return;
        }
        if self.counting {
            return;
        }
        self.frame_mut(ctx.trace_id, start_ns)
            .events
            .push(TraceEvent::Span(SpanRecord {
                ctx,
                phase,
                stage,
                track,
                start_ns,
                end_ns,
            }));
    }

    /// The frame's fate is known: decide, then retain or recycle. A
    /// terminal for a frame already settled (the deadline leg's late
    /// re-attribution) is judged as its own single-event frame, so the
    /// re-attribution stays visible in the retained log. Equivalent to
    /// [`TailSampler::terminal_with_emit`] with `at_ns` as the hint.
    #[inline]
    pub fn terminal(&mut self, ctx: TraceCtx, at_ns: u64, fate: FrameFate) {
        self.terminal_with_emit(ctx, at_ns, at_ns, fate);
    }

    /// [`TailSampler::terminal`] plus the caller's own record of when
    /// the frame was emitted. While the pending map is live its
    /// buffered emit time is authoritative and the hint is ignored; in
    /// counting mode (cap reached) the hint is what keeps SLO
    /// classification exact without the map. Counting-mode accounting
    /// differs in one more way: `frames_seen` counts emissions, so a
    /// terminal with no prior `emitted` (late re-attribution) is not
    /// counted as a new frame.
    #[inline]
    pub fn terminal_with_emit(
        &mut self,
        ctx: TraceCtx,
        emitted_hint_ns: u64,
        at_ns: u64,
        fate: FrameFate,
    ) {
        if !ctx.sampled {
            return;
        }
        if self.counting {
            // Pre-cap leftovers still in the map drain through the
            // normal settle path; once the map is empty the lookup is
            // skipped entirely.
            if !self.pending.is_empty() {
                if let Some(mut frame) = self.pending.remove(&ctx.trace_id) {
                    frame.events.push(TraceEvent::Terminal { ctx, at_ns, fate });
                    let r = decide(
                        &self.cfg,
                        ctx.trace_id,
                        frame.emitted_ns,
                        at_ns,
                        Some(fate),
                        self.last_crash_ns,
                    );
                    self.settle(frame, r);
                    return;
                }
            }
            let r = decide(
                &self.cfg,
                ctx.trace_id,
                emitted_hint_ns,
                at_ns,
                Some(fate),
                self.last_crash_ns,
            );
            match r {
                Retain::Dropped => self.stats.dropped += 1,
                Retain::SloViolation => self.stats.slo_violations += 1,
                Retain::CrashAdjacent => self.stats.crash_adjacent += 1,
                Retain::Reservoir => self.stats.reservoir += 1,
                Retain::Discard => {}
            }
            if r.keeps() {
                self.stats.retained_truncated += 1;
            }
            return;
        }
        let mut frame = match self.pending.remove(&ctx.trace_id) {
            Some(f) => f,
            None => {
                self.stats.frames_seen += 1;
                PendingFrame {
                    emitted_ns: at_ns,
                    events: self.pool.pop().unwrap_or_default(),
                }
            }
        };
        frame.events.push(TraceEvent::Terminal { ctx, at_ns, fate });
        let r = decide(
            &self.cfg,
            ctx.trace_id,
            frame.emitted_ns,
            at_ns,
            Some(fate),
            self.last_crash_ns,
        );
        self.settle(frame, r);
    }

    fn settle(&mut self, mut frame: PendingFrame, r: Retain) {
        match r {
            Retain::Dropped => self.stats.dropped += 1,
            Retain::SloViolation => self.stats.slo_violations += 1,
            Retain::CrashAdjacent => self.stats.crash_adjacent += 1,
            Retain::Reservoir => self.stats.reservoir += 1,
            Retain::Discard => {}
        }
        if r.keeps() {
            if self.stats.frames_retained < self.cfg.max_retained_frames {
                self.stats.frames_retained += 1;
                self.retained.append(&mut frame.events);
            } else {
                self.stats.retained_truncated += 1;
            }
        }
        frame.events.clear();
        if self.pool.len() < 1024 {
            self.pool.push(frame.events);
        }
        // The flip is a pure function of the settle sequence, which the
        // DES fires in global (time, seq) order — so when counting
        // engages is itself bit-identical on replay.
        self.counting = self.stats.frames_retained >= self.cfg.max_retained_frames;
    }

    /// Close the log. Frames still in flight have no fate; they pass
    /// through the reservoir only (the analyzer attributes them
    /// `RunEnd`), flushed in ascending trace-id order so the output is
    /// independent of hash-map iteration order.
    pub fn finish(mut self, end_ns: u64) -> (TraceLog, TailStats) {
        let mut in_flight: Vec<(u64, PendingFrame)> = self.pending.drain().collect();
        in_flight.sort_unstable_by_key(|(id, _)| *id);
        for (id, frame) in in_flight {
            let r = decide(
                &self.cfg,
                id,
                frame.emitted_ns,
                end_ns,
                None,
                self.last_crash_ns,
            );
            self.settle(frame, r);
        }
        (
            TraceLog {
                tracks: self.tracks,
                events: self.retained,
                end_ns,
            },
            self.stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::DropReason;

    fn cfg() -> TailConfig {
        TailConfig {
            reservoir_1_in: 1 << 30, // effectively off for these tests
            ..TailConfig::default()
        }
    }

    #[test]
    fn dropped_frames_are_always_retained() {
        let mut t = TailSampler::new(cfg());
        let tr = t.register_track("svc", "m");
        let ctx = t.ctx(0, 1);
        t.emitted(ctx, 0);
        t.span(ctx, tr, 0, Phase::Compute, 0, 5);
        t.terminal(ctx, 5, FrameFate::Dropped(DropReason::BusyIngress));
        let (log, stats) = t.finish(100);
        assert_eq!(log.events.len(), 3);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.frames_retained, 1);
    }

    #[test]
    fn fast_completions_are_discarded_slow_ones_kept() {
        let mut t = TailSampler::new(cfg());
        let fast = t.ctx(0, 1);
        t.emitted(fast, 0);
        t.terminal(fast, 40_000_000, FrameFate::Completed); // 40 ms
        let slow = t.ctx(0, 2);
        t.emitted(slow, 0);
        t.terminal(slow, 140_000_000, FrameFate::Completed); // 140 ms
        let (log, stats) = t.finish(1_000_000_000);
        assert_eq!(stats.slo_violations, 1);
        assert_eq!(stats.frames_retained, 1);
        assert!(log.events.iter().all(|e| e.ctx().frame_no == 2,));
    }

    #[test]
    fn crash_adjacency_keeps_healthy_neighbours() {
        let mut t = TailSampler::new(cfg());
        let before = t.ctx(0, 1);
        t.emitted(before, 0);
        t.terminal(before, 10_000_000, FrameFate::Completed);
        t.note_crash(500_000_000);
        let near = t.ctx(0, 2);
        t.emitted(near, 490_000_000);
        t.terminal(near, 510_000_000, FrameFate::Completed);
        let far = t.ctx(0, 3);
        t.emitted(far, 900_000_000);
        t.terminal(far, 910_000_000, FrameFate::Completed);
        let (_, stats) = t.finish(1_000_000_000);
        assert_eq!(stats.crash_adjacent, 1);
        assert_eq!(stats.frames_retained, 1);
    }

    #[test]
    fn reservoir_is_seed_deterministic() {
        let c = TailConfig {
            reservoir_1_in: 4,
            ..TailConfig::default()
        };
        let pick = |seed: u64| -> Vec<u64> {
            (0..1000u64)
                .filter(|id| {
                    decide(
                        &TailConfig { seed, ..c },
                        *id,
                        0,
                        1,
                        Some(FrameFate::Completed),
                        None,
                    )
                    .keeps()
                })
                .collect()
        };
        assert_eq!(pick(7), pick(7));
        assert_ne!(pick(7), pick(8));
        let n = pick(7).len();
        assert!((100..500).contains(&n), "reservoir kept {n} of 1000");
    }

    #[test]
    fn retention_cap_counts_without_storing() {
        let mut t = TailSampler::new(TailConfig {
            max_retained_frames: 2,
            ..cfg()
        });
        for f in 0..5u32 {
            let ctx = t.ctx(0, f);
            t.emitted(ctx, 0);
            t.terminal(ctx, 1, FrameFate::Dropped(DropReason::NetemLoss));
        }
        let (log, stats) = t.finish(10);
        assert_eq!(stats.dropped, 5);
        assert_eq!(stats.frames_retained, 2);
        assert_eq!(stats.retained_truncated, 3);
        assert_eq!(log.events.len(), 4);
    }

    #[test]
    fn pending_is_bounded_by_in_flight_frames() {
        let mut t = TailSampler::new(cfg());
        for f in 0..100u32 {
            let ctx = t.ctx(0, f);
            t.emitted(ctx, f as u64);
            t.terminal(ctx, f as u64 + 1, FrameFate::Completed);
        }
        let (_, stats) = t.finish(1000);
        assert_eq!(stats.peak_pending, 1);
        assert_eq!(stats.frames_seen, 100);
    }
}
