//! Property tests for the observatory: retention decisions and
//! flight-recorder dump contents are *pure functions* of the seed and
//! the event stream `(time, seq)` — never of wall clock or replay
//! count. These are the properties the `--bin observatory`
//! replay gate rests on, checked here against adversarial inputs
//! including randomized crash schedules.

use observatory::flight::{self, FlightRecorder};
use observatory::tail::{decide, splitmix64, TailConfig, TailSampler};
use observatory::TailStats;
use proptest::prelude::*;
use scatter::config::{placements, RunConfig, ScaleConfig};
use scatter::{run_experiment_observed, Mode, ServiceKind};
use simcore::SimDuration;
use trace::{DropReason, FrameFate, Phase, TraceLog};

/// A randomized synthetic frame: identity, timing, fate (encoded 0–3:
/// in-flight / completed / busy-drop / netem-drop — the shimmed
/// `proptest` has no `prop_map`, so the tuple is decoded here).
type RawFrame = (u16, u32, u64, u64, u8);

fn decode_fate(code: u8) -> Option<FrameFate> {
    match code % 4 {
        0 => None,
        1 => Some(FrameFate::Completed),
        2 => Some(FrameFate::Dropped(DropReason::BusyIngress)),
        _ => Some(FrameFate::Dropped(DropReason::NetemLoss)),
    }
}

/// Replay one synthetic schedule through a fresh sampler.
fn replay_tail(seed: u64, frames: &[RawFrame], crashes: &[u64]) -> (TraceLog, TailStats) {
    let mut s = TailSampler::new(TailConfig {
        seed,
        slo_ms: 50.0,
        ..TailConfig::default()
    });
    let track = s.register_track("client-0", "client-host");
    // Interleave crash marks and frames in emitted order, the way the
    // DES would deliver them.
    let mut crashes = crashes.to_vec();
    crashes.sort_unstable();
    let mut ci = 0;
    let mut order: Vec<&RawFrame> = frames.iter().collect();
    order.sort_by_key(|(client, frame_no, emitted_ns, _, _)| (*emitted_ns, *client, *frame_no));
    for (client, frame_no, emitted_ns, lifetime_ns, fate_code) in order {
        while ci < crashes.len() && crashes[ci] <= *emitted_ns {
            s.note_crash(crashes[ci]);
            ci += 1;
        }
        let ctx = s.ctx(*client, *frame_no);
        s.emitted(ctx, *emitted_ns);
        let end = emitted_ns + lifetime_ns;
        s.span(ctx, track, 0, Phase::Compute, *emitted_ns, end);
        if let Some(fate) = decode_fate(*fate_code) {
            s.terminal(ctx, end, fate);
        }
    }
    s.finish(3_000_000_000)
}

fn raw_frame() -> impl Strategy<Value = RawFrame> {
    (
        0u16..8,
        0u32..64,
        0u64..2_000_000_000,
        0u64..400_000_000,
        0u8..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decide` is deterministic and classifies exactly: drops always
    /// retained, slow completions always retained, the reservoir is the
    /// documented splitmix64 formula and nothing else.
    #[test]
    fn decide_is_pure_and_total(
        seed in 0u64..u64::MAX,
        trace_id in 0u64..u64::MAX,
        emitted_ns in 0u64..(u64::MAX / 2),
        lifetime_ns in 0u64..1_000_000_000,
        crash_raw in 0u64..u64::MAX,
        fate_code in 0u8..4,
    ) {
        let cfg = TailConfig { seed, ..TailConfig::default() };
        let at_ns = emitted_ns + lifetime_ns;
        // Top bit of the raw draw decides presence; the rest is the mark.
        let crash = (crash_raw & 1 == 1).then_some(crash_raw >> 1);
        let fate = decode_fate(fate_code);
        let d1 = decide(&cfg, trace_id, emitted_ns, at_ns, fate, crash);
        let d2 = decide(&cfg, trace_id, emitted_ns, at_ns, fate, crash);
        prop_assert_eq!(d1, d2, "decide drew hidden state");
        if matches!(fate, Some(FrameFate::Dropped(_))) {
            prop_assert!(d1.keeps() && d1.anomalous());
        }
        if matches!(fate, Some(FrameFate::Completed))
            && lifetime_ns as f64 / 1e6 > cfg.slo_ms
        {
            prop_assert!(d1.keeps() && d1.anomalous());
        }
        if !d1.anomalous() {
            let in_reservoir =
                splitmix64(seed ^ trace_id).is_multiple_of(cfg.reservoir_1_in);
            prop_assert_eq!(d1.keeps(), in_reservoir, "reservoir is not the formula");
        }
    }

    /// A full sampler replay — randomized frames, fates, and crash
    /// schedule — produces bit-identical retained logs and stats every
    /// time it is replayed.
    #[test]
    fn sampler_replay_is_bit_identical(
        seed in 0u64..u64::MAX,
        frames in proptest::collection::vec(raw_frame(), 1..40),
        crashes in proptest::collection::vec(0u64..2_500_000_000, 0..4),
    ) {
        let (log1, stats1) = replay_tail(seed, &frames, &crashes);
        let (log2, stats2) = replay_tail(seed, &frames, &crashes);
        prop_assert_eq!(stats1, stats2);
        prop_assert_eq!(&log1.events, &log2.events);
        prop_assert_eq!(&log1.tracks, &log2.tracks);
        // The stats account for every frame *lifetime* exactly once: a
        // reused (client, frame_no) id starts a new frame only if its
        // previous lifetime already settled.
        let mut order: Vec<&RawFrame> = frames.iter().collect();
        order.sort_by_key(|(client, frame_no, emitted_ns, _, _)| {
            (*emitted_ns, *client, *frame_no)
        });
        let mut pending = std::collections::BTreeSet::new();
        let mut expected_seen = 0u64;
        for (client, frame_no, _, _, fate_code) in order {
            if pending.insert((*client, *frame_no)) {
                expected_seen += 1;
            }
            if decode_fate(*fate_code).is_some() {
                pending.remove(&(*client, *frame_no));
            }
        }
        prop_assert_eq!(stats1.frames_seen, expected_seen);
    }

    /// Flight-recorder dump bytes are a pure function of the recorded
    /// `(time, seq)` stream: replaying the same schedule of records and
    /// triggers yields byte-identical JSON.
    #[test]
    fn flight_dumps_replay_to_identical_bytes(
        cap in 1usize..32,
        records in proptest::collection::vec(
            (0usize..4, 0u64..1_000_000, (1u64..9, 0u64..u64::MAX, 0u64..u64::MAX)),
            0..80,
        ),
        trigger_after in 0usize..80,
    ) {
        let run = || {
            let fr = FlightRecorder::new(4, cap);
            for (i, (ring, t_ns, (kind, a, b))) in records.iter().enumerate() {
                fr.record(*ring, *t_ns, *kind, *a, *b);
                if i == trigger_after {
                    fr.trigger(*t_ns, "prop");
                }
            }
            fr.trigger(2_000_000, "final");
            fr.take_dumps()
                .iter()
                .map(flight::dump_json)
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}

/// One observed DES run under a randomized crash schedule, fingerprinted.
fn observed_run(seed: u64, kill_ds: u64, recovery_ds: u64) -> String {
    let cfg = RunConfig::new(Mode::ScatterPP, placements::c2(), 2)
        .with_duration(SimDuration::from_secs(5))
        .with_warmup(SimDuration::from_secs(1))
        .with_seed(seed)
        .with_failure(
            SimDuration::from_millis(1_000 + kill_ds * 100),
            ServiceKind::Sift,
            0,
        )
        .with_recovery(SimDuration::from_millis(500 + recovery_ds * 100))
        .with_scale(ScaleConfig::new(2).exact())
        .with_observatory(observatory::ObservatoryConfig::default());
    let (_, log, artifacts) = run_experiment_observed(cfg);
    let mut fp = String::new();
    for d in &artifacts.flight_dumps {
        fp.push_str(&flight::dump_json(d));
        fp.push('\n');
    }
    fp.push_str(&format!("{:?}\n", artifacts.tail));
    fp.push_str(&format!("{} events\n", log.events.len()));
    for e in &log.events {
        fp.push_str(&format!("{e:?}\n"));
    }
    fp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// End to end: a DES run with a randomized crash schedule retains
    /// the same traces and freezes byte-identical flight dumps across
    /// a rerun.
    #[test]
    fn observed_des_runs_replay_bit_identically(
        seed in 1u64..10_000,
        kill_ds in 0u64..20,
        recovery_ds in 0u64..10,
    ) {
        let a = observed_run(seed, kill_ds, recovery_ds);
        let b = observed_run(seed, kill_ds, recovery_ds);
        prop_assert_eq!(&a, &b, "rerun diverged");
        prop_assert!(a.contains("\"reason\":\"crash\""), "no crash dump frozen");
    }
}
