//! Observatory study (`--bin observatory`): the PR 8 instruments —
//! tail-sampled tracing, the anomaly-triggered flight recorder, and the
//! always-on self-profiler — exercised through both planes and
//! hard-gated.
//!
//! **Gate A — overhead.** The scale ladder's rung (`scale_cfg`, 10k
//! clients in `--smoke`, 100k in full) runs observability-off and
//! observability-on, interleaved best-of-N. The observed run carries the
//! tail sampler, the flight recorder, *and* the profiler; its events/s
//! must stay within [`MAX_OVERHEAD`] of the bare run's. This is the
//! "observers, not participants" claim priced in wall-clock.
//!
//! **Gate B — retention.** A seeded chaos schedule (a `sift` replica
//! crash mid-run) runs twice with identical dynamics: once under the
//! PR 1 head tracer recording *every* frame (ground truth), once under
//! the tail sampler. Every anomalous frame in the ground truth — any
//! dropped terminal, any completion slower than the SLO — must appear
//! in the tail-sampled log, event for event; per-class counts must
//! match exactly. Tail sampling keeps 100 % of the anomalies while
//! retaining a fraction of the frames.
//!
//! **Gate C — replay.** The same observed chaos run executes twice.
//! The flight-recorder dump JSON bytes, the tail stats, and the
//! retained trace log must be bit-identical across both. The dumps are
//! also written to `results/flightrec_des_*.json` as the run's forensic
//! artifact.
//!
//! **Gate D — cross-plane agreement.** One scheduled fault per plane:
//! the DES kills a `sift` replica (flight dump reason `"crash"`), the
//! live loopback-UDP runtime kills its `sift` thread (reason `"kill"`).
//! Both planes must freeze exactly one dump per scheduled fault, and
//! each dump must contain the corresponding control-ring event. Runtime
//! dumps land in `results/flightrec_runtime_*.json`.
//!
//! The self-profiler rides gates A and D: the observed DES run and the
//! runtime run must both produce non-empty phase profiles, which are
//! rendered as a per-phase attribution table (reconciled against the
//! report's simulated `breakdown_*`) and exported as folded-stack
//! flamegraph text (`results/observatory_profile.folded`).
//!
//! Artifacts: `results/observatory_tables.json`, the flight dumps, and
//! the folded profile. `--smoke` shrinks every leg for the verify gate;
//! any gate failure exits non-zero.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use observatory::flight;
use scatter::config::{placements, RunConfig, ScaleConfig};
use scatter::runtime::deploy::{run_local, RuntimeOptions};
use scatter::{
    run_experiment, run_experiment_observed, run_experiment_observed_with,
    run_experiment_traced_with, Mode, ServiceKind,
};
use simcore::SimDuration;
use trace::{FrameFate, TraceEvent, TraceLog};

use crate::chaos_study::calm_cost;
use crate::scale::scale_cfg;
use crate::table::{f1, pct, Table};

/// One seed drives every leg (DES worlds, chaos schedule, runtime).
pub const OBS_SEED: u64 = 4117;

/// Gate A: the full observatory may cost at most this fraction of the
/// bare run's events/s at the 100k-client scale rung.
pub const MAX_OVERHEAD: f64 = 0.05;

/// Gate A allowance at the down-scaled smoke rung (10k clients, ~150 ms
/// of driver work per rep): the sampler's pre-cap buffering and the
/// run-setup cost are fixed per run, so they weigh ~10x more here than
/// at the real rung the 5 % bound is defined against, and host timing
/// noise is a few percent of a run this short even on the CPU clock.
pub const SMOKE_MAX_OVERHEAD: f64 = 0.09;

/// Gate B runs a tighter latency objective than the production 100 ms
/// so the seeded schedule actually produces SLO-violating completions
/// to retain (the chaos crash supplies the dropped class).
const RETENTION_SLO_MS: f64 = 25.0;

/// Interleaved timing repetitions per side of gate A.
const OVERHEAD_REPS: usize = 5;

// ---------------------------------------------------------------------
// Gate A — overhead at the scale rung
// ---------------------------------------------------------------------

pub struct OverheadPoint {
    pub clients: usize,
    /// Best observed events/s, bare run.
    pub eps_off: f64,
    /// Best observed events/s with tail sampler + flight recorder +
    /// profiler all on.
    pub eps_on: f64,
    /// Fractional slowdown (positive = observatory costs throughput).
    pub overhead: f64,
    /// Gate limit this point is judged against ([`MAX_OVERHEAD`] at the
    /// real rung, [`SMOKE_MAX_OVERHEAD`] at the smoke rung).
    pub limit: f64,
    /// Tail stats from the observed run (scale rung has no faults, so
    /// retention here is reservoir + organic drops/SLO misses).
    pub tail: observatory::TailStats,
    /// DES driver profile from the observed run.
    pub prof: observatory::ProfSnapshot,
    pub sim_prof: Option<simcore::SimProfStats>,
    /// Simulated-latency means for the attribution table (ms).
    pub breakdown_compute_ms: f64,
    pub breakdown_queue_ms: f64,
    pub breakdown_network_ms: f64,
}

/// On-CPU seconds of the calling thread (Linux `schedstat`, nanosecond
/// resolution). The DES is single-threaded, so this prices exactly the
/// simulation work while staying immune to the host descheduling us
/// mid-run — on a shared box, wall clock swings ±20 % between identical
/// runs and would make a 5 % gate meaningless. Falls back to wall time
/// where the file does not exist.
fn cpu_seconds() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    if let Some(ns) = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
    {
        return ns as f64 / 1e9;
    }
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

fn timed_eps(cfg: &RunConfig) -> f64 {
    let t0 = cpu_seconds();
    let report = run_experiment(cfg.clone());
    let cpu = (cpu_seconds() - t0).max(1e-9);
    report.events_executed as f64 / cpu
}

fn timed_eps_observed(cfg: &RunConfig) -> (f64, scatter::report::RunReport, scatter::ObsArtifacts) {
    let t0 = cpu_seconds();
    let (report, _, artifacts) = run_experiment_observed(cfg.clone());
    let cpu = (cpu_seconds() - t0).max(1e-9);
    (report.events_executed as f64 / cpu, report, artifacts)
}

fn gate_overhead(clients: usize, limit: f64) -> OverheadPoint {
    // At the smoke rung (10k clients) the standard 2-simulated-second
    // run is only ~150 ms of driver work; double the duration so the
    // per-run fixed costs (setup, the sampler's pre-cap buffering) and
    // the clock's granularity stop dominating a 5 %-scale measurement.
    let secs = if clients < 100_000 { 4 } else { 2 };
    let bare = scale_cfg(clients)
        .with_seed(OBS_SEED)
        .with_duration(SimDuration::from_secs(secs));
    let observed = bare
        .clone()
        .with_observatory(observatory::ObservatoryConfig::default());

    // One untimed run to fault in the binary, page cache, and allocator
    // arenas before anything is measured.
    let _ = run_experiment(bare.clone());
    // Interleave off/on pairs. Each rep contributes one on/off ratio —
    // the two runs are adjacent in time, so host drift (thermal, cgroup
    // quota) largely cancels inside a pair — and the gate judges the
    // MEDIAN ratio, so an isolated noisy rep cannot fail (or pass) the
    // gate by itself. The displayed events/s are each side's best rep.
    let mut eps_off = 0f64;
    let mut eps_on = 0f64;
    let mut ratios = Vec::with_capacity(OVERHEAD_REPS);
    let mut kept: Option<(scatter::report::RunReport, scatter::ObsArtifacts)> = None;
    for _ in 0..OVERHEAD_REPS {
        let off = timed_eps(&bare);
        eps_off = eps_off.max(off);
        let (eps, report, artifacts) = timed_eps_observed(&observed);
        ratios.push(eps / off.max(1e-9));
        if eps > eps_on {
            eps_on = eps;
            kept = Some((report, artifacts));
        }
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let median_ratio = ratios[ratios.len() / 2];
    let (report, artifacts) = kept.expect("OVERHEAD_REPS >= 1");
    let mean_of = |s: &[metrics::Summary; 5]| {
        let (n, sum) = s.iter().fold((0usize, 0f64), |(n, sum), x| {
            (n + x.len(), sum + x.mean() * x.len() as f64)
        });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    };
    OverheadPoint {
        clients,
        eps_off,
        eps_on,
        overhead: 1.0 - median_ratio,
        limit,
        tail: artifacts.tail.expect("observed run has tail stats"),
        prof: artifacts.prof.expect("observed run has a profile"),
        sim_prof: artifacts.sim_prof,
        breakdown_compute_ms: mean_of(&report.breakdown_compute),
        breakdown_queue_ms: mean_of(&report.breakdown_queue),
        breakdown_network_ms: report.breakdown_network.mean(),
    }
}

// ---------------------------------------------------------------------
// Gate B — 100 % anomaly retention vs. a record-everything ground truth
// ---------------------------------------------------------------------

/// The seeded chaos schedule both retention runs execute: ScatterPP on
/// C2, a `sift` replica killed mid-run and revived, calm cost model so
/// the anomaly classes come from the schedule, not host noise.
fn retention_cfg(smoke: bool) -> RunConfig {
    let secs = if smoke { 10 } else { 20 };
    RunConfig::new(Mode::ScatterPP, placements::c2(), 4)
        .with_duration(SimDuration::from_secs(secs))
        .with_warmup(SimDuration::ZERO)
        .with_seed(OBS_SEED)
        .with_failure(SimDuration::from_secs(secs / 2), ServiceKind::Sift, 0)
        .with_recovery(SimDuration::from_secs(2))
}

/// Ground-truth view of one frame, reconstructed from the head log.
struct FullFrame<'a> {
    events: Vec<&'a TraceEvent>,
    /// First terminal (the settle the tail sampler decides on).
    terminal: Option<(u64, FrameFate)>,
    emitted_ns: u64,
}

fn frames_of(log: &TraceLog) -> BTreeMap<u64, FullFrame<'_>> {
    let mut frames: BTreeMap<u64, FullFrame<'_>> = BTreeMap::new();
    for e in &log.events {
        let id = e.ctx().trace_id;
        let at = match e {
            TraceEvent::Emitted { at_ns, .. } => *at_ns,
            TraceEvent::Span(s) => s.start_ns,
            TraceEvent::Terminal { at_ns, .. } => *at_ns,
        };
        let f = frames.entry(id).or_insert_with(|| FullFrame {
            events: Vec::new(),
            terminal: None,
            emitted_ns: at,
        });
        if let TraceEvent::Terminal { at_ns, fate, .. } = e {
            if f.terminal.is_none() {
                f.terminal = Some((*at_ns, *fate));
            }
        }
        f.events.push(e);
    }
    frames
}

pub struct RetentionPoint {
    /// Distinct frames in the record-everything ground truth.
    pub full_frames: u64,
    /// Dropped terminals in the ground truth (first-terminal view).
    pub full_dropped: u64,
    /// SLO-violating completions in the ground truth.
    pub full_slo: u64,
    pub tail: observatory::TailStats,
    /// Anomalous ground-truth frames missing from the tail log.
    pub missing: u64,
    /// Anomalous single-terminal frames whose retained event sequence
    /// differs from the ground truth.
    pub mismatched: u64,
}

impl RetentionPoint {
    pub fn retained_fraction(&self) -> f64 {
        self.tail.frames_retained as f64 / self.tail.frames_seen.max(1) as f64
    }
}

fn gate_retention(smoke: bool) -> RetentionPoint {
    // Ground truth: PR 1 head tracer, sample-every-frame.
    let full_cfg = retention_cfg(smoke).with_trace(trace::TraceConfig::default());
    let (_, full_log) = run_experiment_traced_with(full_cfg, calm_cost());

    // Same world, tail-sampled, same SLO threshold in the sampler.
    let mut oc = observatory::ObservatoryConfig::default();
    oc.tail.slo_ms = RETENTION_SLO_MS;
    let tail_cfg = retention_cfg(smoke).with_observatory(oc);
    let (_, tail_log, artifacts) = run_experiment_observed_with(tail_cfg, calm_cost());
    let tail = artifacts.tail.expect("observed run has tail stats");

    let full = frames_of(&full_log);
    let retained = frames_of(&tail_log);

    let mut full_dropped = 0u64;
    let mut full_slo = 0u64;
    let mut missing = 0u64;
    let mut mismatched = 0u64;
    for (id, f) in &full {
        let anomalous = match f.terminal {
            Some((_, FrameFate::Dropped(_))) => {
                full_dropped += 1;
                true
            }
            Some((at_ns, FrameFate::Completed)) => {
                let e2e_ms = at_ns.saturating_sub(f.emitted_ns) as f64 / 1e6;
                let slow = e2e_ms > RETENTION_SLO_MS;
                full_slo += u64::from(slow);
                slow
            }
            // Still in flight at run end: the sampler retains these
            // too, but they are not an anomaly class.
            None => false,
        };
        if !anomalous {
            continue;
        }
        match retained.get(id) {
            None => missing += 1,
            Some(r) => {
                // Re-attributed frames grow extra terminals the sampler
                // stores as separate single-event frames; compare exact
                // sequences only where the ground truth is unambiguous.
                let terminals = f
                    .events
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::Terminal { .. }))
                    .count();
                if terminals == 1 && r.events != f.events {
                    mismatched += 1;
                }
            }
        }
    }

    RetentionPoint {
        full_frames: full.len() as u64,
        full_dropped,
        full_slo,
        tail,
        missing,
        mismatched,
    }
}

// ---------------------------------------------------------------------
// Gate C — bit-identical replay across reruns
// ---------------------------------------------------------------------

pub struct ReplayPoint {
    /// (label, fingerprint) per execution.
    pub runs: Vec<(String, u64)>,
    pub dumps: usize,
}

impl ReplayPoint {
    pub fn ok(&self) -> bool {
        self.dumps > 0 && self.runs.windows(2).all(|w| w[0].1 == w[1].1)
    }
}

/// FNV-1a over the replay-visible bytes: every dump rendered to its
/// canonical JSON, the tail stats, and the retained event stream.
fn fingerprint(log: &TraceLog, artifacts: &scatter::ObsArtifacts) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for d in &artifacts.flight_dumps {
        eat(flight::dump_json(d).as_bytes());
    }
    eat(format!("{:?}", artifacts.tail).as_bytes());
    for e in &log.events {
        eat(format!("{e:?}").as_bytes());
    }
    h
}

fn gate_replay(smoke: bool) -> ReplayPoint {
    let mut runs = Vec::new();
    let mut dumps = 0;
    for (i, label) in ["run 1", "rerun"].into_iter().enumerate() {
        let cfg = retention_cfg(smoke)
            .with_observatory(observatory::ObservatoryConfig::default())
            .with_scale(ScaleConfig::new(2).exact());
        let (_, log, artifacts) = run_experiment_observed_with(cfg, calm_cost());
        if i == 0 {
            dumps = artifacts.flight_dumps.len();
            match flight::write_dumps(
                std::path::Path::new("results"),
                "des",
                &artifacts.flight_dumps,
            ) {
                Ok(paths) => eprintln!("observatory: wrote {} DES flight dump(s)", paths.len()),
                Err(e) => eprintln!("observatory: cannot write DES flight dumps: {e}"),
            }
        }
        runs.push((label.to_string(), fingerprint(&log, &artifacts)));
    }
    ReplayPoint { runs, dumps }
}

// ---------------------------------------------------------------------
// Gate D — cross-plane anomaly agreement
// ---------------------------------------------------------------------

pub struct CrossPlanePoint {
    /// Scheduled faults per plane (one each).
    pub scheduled: u64,
    /// DES flight dumps frozen with reason `"crash"`.
    pub des_crash_dumps: u64,
    /// Control-ring `KIND_CRASH` events captured in those dumps.
    pub des_crash_events: u64,
    /// Runtime flight dumps frozen with reason `"kill"`.
    pub rt_kill_dumps: u64,
    /// Control-ring `KIND_KILL` events captured in those dumps.
    pub rt_kill_events: u64,
    /// Runtime self-profile (always on).
    pub rt_prof: observatory::ProfSnapshot,
}

impl CrossPlanePoint {
    pub fn ok(&self) -> bool {
        self.des_crash_dumps == self.scheduled
            && self.rt_kill_dumps == self.scheduled
            && self.des_crash_events >= self.scheduled
            && self.rt_kill_events >= self.scheduled
    }
}

fn count_events(dumps: &[observatory::FlightDump], reason: &str, kind: u64) -> (u64, u64) {
    let matching: Vec<_> = dumps.iter().filter(|d| d.reason == reason).collect();
    let mut seqs: Vec<u64> = matching
        .iter()
        .flat_map(|d| d.events.iter())
        .filter(|e| e.kind == kind)
        .map(|e| e.seq)
        .collect();
    seqs.sort_unstable();
    seqs.dedup();
    (matching.len() as u64, seqs.len() as u64)
}

fn gate_cross_plane(smoke: bool) -> CrossPlanePoint {
    // DES side: one sift crash, observed.
    let cfg = retention_cfg(smoke).with_observatory(observatory::ObservatoryConfig::default());
    let (_, _, des) = run_experiment_observed_with(cfg, calm_cost());
    let (des_crash_dumps, des_crash_events) =
        count_events(&des.flight_dumps, "crash", flight::KIND_CRASH);

    // Runtime side: one sift kill over live loopback UDP.
    let frames = if smoke { 24 } else { 48 };
    let report = run_local(RuntimeOptions {
        frames,
        fps: 10.0,
        seed: OBS_SEED,
        kills: vec![(
            Duration::from_millis(1_000),
            ServiceKind::Sift,
            Duration::from_millis(800),
        )],
        ..Default::default()
    });
    let (rt_kill_dumps, rt_kill_events) =
        count_events(&report.flight_dumps, "kill", flight::KIND_KILL);
    match flight::write_dumps(
        std::path::Path::new("results"),
        "runtime",
        &report.flight_dumps,
    ) {
        Ok(paths) => eprintln!("observatory: wrote {} runtime flight dump(s)", paths.len()),
        Err(e) => eprintln!("observatory: cannot write runtime flight dumps: {e}"),
    }

    CrossPlanePoint {
        scheduled: 1,
        des_crash_dumps,
        des_crash_events,
        rt_kill_dumps,
        rt_kill_events,
        rt_prof: report.prof,
    }
}

// ---------------------------------------------------------------------
// The study
// ---------------------------------------------------------------------

pub struct ObservatoryStudy {
    pub overhead: OverheadPoint,
    pub retention: RetentionPoint,
    pub replay: ReplayPoint,
    pub cross: CrossPlanePoint,
    pub tables: Vec<Table>,
    /// Folded-stack flamegraph text (DES + runtime phases).
    pub folded: String,
}

impl ObservatoryStudy {
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        let o = &self.overhead;
        if o.overhead > o.limit {
            out.push(format!(
                "observatory overhead {:.1} % exceeds {:.0} % at {} clients \
                 (off {:.2} M events/s, on {:.2} M events/s)",
                o.overhead * 100.0,
                o.limit * 100.0,
                o.clients,
                o.eps_off / 1e6,
                o.eps_on / 1e6
            ));
        }
        if o.prof.phases.iter().all(|p| p.calls == 0) {
            out.push("DES self-profiler recorded no phase calls".into());
        }

        let r = &self.retention;
        if r.missing > 0 {
            out.push(format!(
                "{} anomalous ground-truth frame(s) missing from the tail-sampled log",
                r.missing
            ));
        }
        if r.mismatched > 0 {
            out.push(format!(
                "{} anomalous frame(s) retained with a different event sequence",
                r.mismatched
            ));
        }
        if r.tail.dropped != r.full_dropped {
            out.push(format!(
                "dropped-frame counts disagree: ground truth {}, tail sampler {}",
                r.full_dropped, r.tail.dropped
            ));
        }
        if r.tail.slo_violations != r.full_slo {
            out.push(format!(
                "SLO-violation counts disagree: ground truth {}, tail sampler {}",
                r.full_slo, r.tail.slo_violations
            ));
        }
        if r.tail.frames_seen != r.full_frames {
            out.push(format!(
                "frame universes disagree: head tracer saw {}, tail sampler {}",
                r.full_frames, r.tail.frames_seen
            ));
        }
        if r.full_dropped == 0 {
            out.push(
                "chaos schedule produced no dropped frames — retention gate is vacuous".into(),
            );
        }
        if r.tail.retained_truncated > 0 {
            out.push(format!(
                "retention cap truncated {} frame(s) in a gate-sized run",
                r.tail.retained_truncated
            ));
        }
        if r.tail.frames_retained >= r.tail.frames_seen {
            out.push("tail sampler retained every frame — sampling is vacuous".into());
        }

        if !self.replay.ok() {
            let fps: Vec<String> = self
                .replay
                .runs
                .iter()
                .map(|(l, f)| format!("{l}={f:016x}"))
                .collect();
            out.push(format!(
                "replay not bit-identical ({} dump(s)): {}",
                self.replay.dumps,
                fps.join(", ")
            ));
        }

        if !self.cross.ok() {
            out.push(format!(
                "cross-plane anomaly counts disagree: scheduled {}, DES crash dumps {} \
                 (events {}), runtime kill dumps {} (events {})",
                self.cross.scheduled,
                self.cross.des_crash_dumps,
                self.cross.des_crash_events,
                self.cross.rt_kill_dumps,
                self.cross.rt_kill_events
            ));
        }
        if self.cross.rt_prof.get("compute").map_or(0, |p| p.calls) == 0 {
            out.push("runtime self-profiler recorded no compute calls".into());
        }
        out
    }

    pub fn ok(&self) -> bool {
        self.failures().is_empty()
    }
}

pub fn run_study(smoke: bool) -> ObservatoryStudy {
    let rung = if smoke { 10_000 } else { 100_000 };
    eprintln!(
        "observatory: gate A (overhead, {rung} clients x {OVERHEAD_REPS} interleaved reps)..."
    );
    let overhead = gate_overhead(
        rung,
        if smoke {
            SMOKE_MAX_OVERHEAD
        } else {
            MAX_OVERHEAD
        },
    );
    eprintln!("observatory: gate B (anomaly retention vs record-everything)...");
    let retention = gate_retention(smoke);
    eprintln!("observatory: gate C (bit-identical replay)...");
    let replay = gate_replay(smoke);
    eprintln!("observatory: gate D (cross-plane anomaly agreement)...");
    let cross = gate_cross_plane(smoke);

    // --- Tables ------------------------------------------------------
    let mut tables = Vec::new();

    let mut t = Table::new(
        &format!(
            "Observatory gate A — overhead at {} clients (best of {OVERHEAD_REPS})",
            overhead.clients
        ),
        &["observability", "events/s", "vs off"],
    );
    t.row(vec![
        "off".into(),
        format!("{:.2} M", overhead.eps_off / 1e6),
        "—".into(),
    ]);
    t.row(vec![
        "tail + flightrec + profiler".into(),
        format!("{:.2} M", overhead.eps_on / 1e6),
        pct(-overhead.overhead),
    ]);
    t.note(format!(
        "gate: full observatory costs ≤ {:.0} % events/s at this rung \
         (events per on-CPU second; the 5 % bound is defined at the \
         100k-client scale rung, the smoke rung allows {:.0} %)",
        overhead.limit * 100.0,
        SMOKE_MAX_OVERHEAD * 100.0
    ));
    tables.push(t);

    let r = &retention;
    let mut t = Table::new(
        "Observatory gate B — tail sampling vs record-everything ground truth",
        &["class", "ground truth", "tail sampler", "retained"],
    );
    t.row(vec![
        "frames seen".into(),
        r.full_frames.to_string(),
        r.tail.frames_seen.to_string(),
        format!(
            "{} ({})",
            r.tail.frames_retained,
            pct(r.retained_fraction())
        ),
    ]);
    t.row(vec![
        "dropped".into(),
        r.full_dropped.to_string(),
        r.tail.dropped.to_string(),
        "100% (gate)".into(),
    ]);
    t.row(vec![
        format!("slo > {RETENTION_SLO_MS:.0} ms"),
        r.full_slo.to_string(),
        r.tail.slo_violations.to_string(),
        "100% (gate)".into(),
    ]);
    t.row(vec![
        "crash-adjacent".into(),
        "—".into(),
        r.tail.crash_adjacent.to_string(),
        "100%".into(),
    ]);
    t.row(vec![
        "reservoir (1-in-64)".into(),
        "—".into(),
        r.tail.reservoir.to_string(),
        "by seed".into(),
    ]);
    t.note(format!(
        "gate: every anomalous frame retained event-for-event ({} missing, {} mismatched), \
         counts exact, 0 truncated",
        r.missing, r.mismatched
    ));
    tables.push(t);

    let mut t = Table::new(
        "Observatory gate C — flight dumps + retained log replay bit-identically",
        &["execution", "fingerprint"],
    );
    for (label, fp) in &replay.runs {
        t.row(vec![label.clone(), format!("{fp:016x}")]);
    }
    t.note(format!(
        "gate: FNV-1a over dump JSON + tail stats + retained events identical across \
         reruns ({} dump(s) written to results/flightrec_des_*.json)",
        replay.dumps
    ));
    tables.push(t);

    let c = &cross;
    let mut t = Table::new(
        "Observatory gate D — one scheduled fault per plane",
        &["plane", "fault", "dumps", "control events"],
    );
    t.row(vec![
        "DES".into(),
        "sift crash".into(),
        c.des_crash_dumps.to_string(),
        c.des_crash_events.to_string(),
    ]);
    t.row(vec![
        "runtime".into(),
        "sift kill".into(),
        c.rt_kill_dumps.to_string(),
        c.rt_kill_events.to_string(),
    ]);
    t.note(format!(
        "gate: exactly {} dump(s) per plane, each capturing its control-ring fault event",
        c.scheduled
    ));
    tables.push(t);

    let o = &overhead;
    let mut t = Table::new(
        &format!(
            "Observatory — self-profiler attribution at {} clients",
            o.clients
        ),
        &["plane", "phase", "calls", "sampled", "est wall ms", "share"],
    );
    let des_total = o.prof.total_est_ns().max(1);
    for p in &o.prof.phases {
        t.row(vec![
            "DES".into(),
            p.name.to_string(),
            p.calls.to_string(),
            p.samples.to_string(),
            f1(p.est_total_ns as f64 / 1e6),
            pct(p.est_total_ns as f64 / des_total as f64),
        ]);
    }
    let rt_total = c.rt_prof.total_est_ns().max(1);
    for p in &c.rt_prof.phases {
        t.row(vec![
            "runtime".into(),
            p.name.to_string(),
            p.calls.to_string(),
            p.samples.to_string(),
            f1(p.est_total_ns as f64 / 1e6),
            pct(p.est_total_ns as f64 / rt_total as f64),
        ]);
    }
    if let Some(sp) = &o.sim_prof {
        t.note(format!(
            "sim core under the phases: {} events popped, {} executed",
            sp.pop_calls, sp.exec_calls
        ));
    }
    t.note(format!(
        "simulated latency for comparison (breakdown_* means): compute {:.1} ms, \
         queue {:.1} ms, network {:.1} ms — simulated time ≠ driver wall time; the \
         profiler prices the *driver*, the breakdown prices the *world*",
        o.breakdown_compute_ms, o.breakdown_queue_ms, o.breakdown_network_ms
    ));
    tables.push(t);

    let mut folded = overhead.prof.folded("des");
    folded.push_str(&cross.rt_prof.folded("runtime"));

    ObservatoryStudy {
        overhead,
        retention,
        replay,
        cross,
        tables,
        folded,
    }
}

/// `--bin observatory` entry point. `--smoke` shrinks every leg for the
/// verify gate; `--json` renders the tables as a JSON array on stdout.
/// Exits 1 when any gate fails.
pub fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json = std::env::args().any(|a| a == "--json");
    let study = run_study(smoke);

    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
    }
    let rendered: Vec<String> = study.tables.iter().map(|t| t.render_json()).collect();
    let doc = format!("[{}]", rendered.join(",\n"));
    let path = dir.join("observatory_tables.json");
    if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("cannot write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
    let folded_path = dir.join("observatory_profile.folded");
    if let Err(e) = std::fs::write(&folded_path, &study.folded) {
        eprintln!("cannot write {}: {e}", folded_path.display());
    } else {
        eprintln!(
            "wrote {} (flamegraph.pl / speedscope ready)",
            folded_path.display()
        );
    }

    if json {
        println!("{doc}");
    } else {
        for t in &study.tables {
            println!("{}", t.render());
        }
    }
    let failures = study.failures();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("observatory gate FAILED: {f}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "observatory gate OK: ≤{:.0} % overhead at the scale rung, 100 % anomaly \
         retention, bit-identical replay, and both planes agree on the fault record",
        study.overhead.limit * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cheap halves of gates B and C, pinned as a unit test: a
    /// seeded crash run retains every anomaly and replays bit-identically.
    #[test]
    fn retention_and_replay_hold_on_a_small_run() {
        let r = gate_retention(true);
        assert_eq!(r.missing, 0, "anomalous frames missing from tail log");
        assert_eq!(r.mismatched, 0, "retained frames differ from ground truth");
        assert_eq!(r.tail.dropped, r.full_dropped);
        assert!(r.full_dropped > 0, "chaos schedule produced no drops");
        assert!(
            r.tail.frames_retained < r.tail.frames_seen,
            "sampling is vacuous"
        );

        let rp = gate_replay(true);
        assert!(rp.ok(), "replay fingerprints disagree: {:?}", rp.runs);
    }
}
