//! Wire study (`--bin wire`): protocol v2's three claims, exercised
//! through *both* planes and hard-gated.
//!
//! **Gate A — bytes-on-wire parity.** One client streams the same
//! seeded scene through the DES wire model and the live loopback-UDP
//! deployment, under v1 framing and under v2. Because both planes run
//! the *same* encoder, the same [`UplinkTx`](scatter::wirev2::tx::UplinkTx)
//! delta state machine, and the same store-if-smaller codec on the same
//! pixels, the gate is exact: predictor sum == DES `wire.uplink_bytes`
//! == runtime send-site `uplink_bytes`, byte for byte, per dialect. And
//! v2 must genuinely undercut v1 (> 5 % fewer uplink bytes) when delta
//! encoding is on.
//!
//! **Gate B — CRC accounting parity.** The first `c` uplink datagrams
//! are corrupted in flight (one byte flipped past every header — the
//! shim's [`LinkImpairment::corrupt_first`], the DES's
//! [`WireSimConfig::with_corrupt_first`]). A v2 ingress must catch
//! *exactly* `c` as counted `InvalidCrc` drops in both planes; a v1
//! ingress must count zero in both planes — the damage sails through
//! its checks silently. Exact equality, no tolerance.
//!
//! **Gate C — LTE payoff (runtime only).** 320×180 capture over a
//! bursty cellular link whose loss is drawn per 1400-byte MTU cell, so
//! longer datagrams die more often — the physics that rewards smaller
//! frames. v2 must beat v1 on goodput (more completed frames) *and* on
//! bytes per emitted frame, while holding e2e p95 inside the paper's
//! 100 ms response budget.
//!
//! Env knobs `SCATTER_WIRE_DELTA` / `SCATTER_WIRE_COMPRESS` (0/1,
//! true/false) shape the v2 policy both planes run; invalid values warn
//! once on stderr and fall back to the default (both on). The
//! undercut gate only applies while delta stays on — keyframes-only v2
//! is v1 plus a 19-byte envelope, and honestly reports as such.
//!
//! Artifacts: `results/wire_tables.json`. `--smoke` shrinks every run
//! for the verify gate; any gate failure exits non-zero.

use std::sync::Once;
use std::time::Duration;

use scatter::client::FRAME_PERIOD;
use scatter::config::{env_knob, placements, RunConfig, WireSimConfig};
use scatter::runtime::deploy::{LocalDeployment, RuntimeOptions, RuntimeReport};
use scatter::runtime::impair::{Ep, ImpairmentProfile, LinkImpairment, LinkRule};
use scatter::runtime::services::WireRtConfig;
use scatter::wirev2::predict;
use scatter::wirev2::tx::UplinkPolicy;
use scatter::{run_experiment, Mode, ServiceKind};
use simcore::SimDuration;

use crate::table::{f1, pct, Table};

/// One seed drives both planes (scene, DES world, impairment shim).
pub const WIRE_SEED: u64 = 2262;

/// The paper's response-time budget the LTE leg must hold at p95.
pub const BUDGET_MS: f64 = 100.0;

/// v2 must undercut v1 by at least this fraction of uplink bytes for
/// the delta pipeline to be worth its envelope (gate A).
pub const MIN_SAVINGS: f64 = 0.05;

/// Parity legs run the standard client geometry; the LTE leg runs the
/// bigger capture where the cellular link actually hurts.
const PARITY_GEOM: (usize, usize) = (256, 144);
const LTE_GEOM: (usize, usize) = (320, 180);

/// Cellular MTU: loss is drawn once per cell of this many bytes.
const LTE_MTU: usize = 1400;

/// Parse a 0/1 boolean env knob; `None` when unset or invalid (invalid
/// warns once on stderr — same contract as `SCATTER_EXP_SECS`).
fn env_flag(name: &str, warn: &'static Once) -> Option<bool> {
    let on = |s: &String| matches!(s.as_str(), "1" | "true" | "on");
    let off = |s: &String| matches!(s.as_str(), "0" | "false" | "off");
    env_knob(
        name,
        warn,
        |s| on(s) || off(s),
        "0/1 or true/false",
        "using the default policy",
    )
    .map(|s| on(&s))
}

/// The v2 uplink policy this study runs in *both* planes, after the
/// `SCATTER_WIRE_DELTA` / `SCATTER_WIRE_COMPRESS` overrides.
pub fn study_policy() -> UplinkPolicy {
    static DELTA_WARN: Once = Once::new();
    static COMPRESS_WARN: Once = Once::new();
    let mut p = UplinkPolicy::default();
    if let Some(v) = env_flag("SCATTER_WIRE_DELTA", &DELTA_WARN) {
        p.delta = v;
    }
    if let Some(v) = env_flag("SCATTER_WIRE_COMPRESS", &COMPRESS_WARN) {
        p.compress = v;
    }
    p
}

/// A DES duration that makes one 30 FPS client emit *exactly* `n`
/// frames: half a period past the last grid slot, far beyond the ≤2 ms
/// emission jitter, well short of slot `n`.
fn exact_frames(n: u32) -> SimDuration {
    SimDuration::from_nanos(u64::from(n) * FRAME_PERIOD.as_nanos() - FRAME_PERIOD.as_nanos() / 2)
}

/// DES half of the parity gates: one client, the wire model on, no
/// warmup so the accountant sees every frame.
fn des_wire_run(n: u32, wire: WireSimConfig) -> scatter::report::WireReport {
    let cfg = RunConfig::new(Mode::ScatterPP, placements::c1(), 1)
        .with_duration(exact_frames(n))
        .with_warmup(SimDuration::ZERO)
        .with_stagger(SimDuration::ZERO)
        .with_seed(WIRE_SEED)
        .with_wire(wire);
    run_experiment(cfg).wire
}

/// Runtime half: one real client over loopback UDP, optionally through
/// the impairment shim, v1 or v2 dialect.
fn rt_wire_run(
    n: u32,
    fps: f64,
    geom: (usize, usize),
    v2: bool,
    policy: UplinkPolicy,
    impair: Option<ImpairmentProfile>,
) -> RuntimeReport {
    let dep = LocalDeployment::start(RuntimeOptions {
        clients: 1,
        frames: n,
        fps,
        width: geom.0,
        height: geom.1,
        seed: WIRE_SEED,
        impair,
        wire: WireRtConfig { v2, policy },
        ..Default::default()
    });
    let report = dep.run_client();
    dep.shutdown();
    report
}

/// Gate A results for one dialect.
pub struct ParityPoint {
    pub label: &'static str,
    /// Analytic sum of the per-frame schedule the predictor computes.
    pub predicted: u64,
    /// What the DES wire model accounted at its send site.
    pub des: u64,
    /// What the runtime client counted at its send site.
    pub rt: u64,
    pub frames: u32,
}

impl ParityPoint {
    pub fn ok(&self) -> bool {
        self.predicted == self.des && self.des == self.rt
    }

    pub fn bytes_per_frame(&self) -> f64 {
        self.rt as f64 / f64::from(self.frames.max(1))
    }
}

/// Gate B results: corrupt-first accounting in all four cells of the
/// (plane × dialect) matrix.
pub struct CrcPoint {
    pub corrupted: u64,
    pub des_v2: u64,
    pub rt_v2: u64,
    pub des_v1: u64,
    pub rt_v1: u64,
}

impl CrcPoint {
    pub fn ok(&self) -> bool {
        self.des_v2 == self.corrupted
            && self.rt_v2 == self.corrupted
            && self.des_v1 == 0
            && self.rt_v1 == 0
    }
}

/// Gate C results: one dialect over the LTE link.
pub struct LtePoint {
    pub label: &'static str,
    pub emitted: u32,
    pub completed: u32,
    pub uplink_bytes: u64,
    pub net_drops: u64,
    pub delta_resyncs: u64,
    pub p95_e2e_ms: f64,
}

impl LtePoint {
    pub fn bytes_per_frame(&self) -> f64 {
        self.uplink_bytes as f64 / f64::from(self.emitted.max(1))
    }
}

fn lte_point(label: &'static str, r: &RuntimeReport) -> LtePoint {
    LtePoint {
        label,
        emitted: r.emitted,
        completed: r.completed,
        uplink_bytes: r.uplink_bytes,
        net_drops: r.net_drops,
        delta_resyncs: r.delta_resyncs,
        p95_e2e_ms: r.p95_e2e_ms,
    }
}

/// The cellular profile of gate C, applied to the client→primary
/// uplink only: 5 % independent loss per 1400-byte cell (the monotone
/// length penalty — more cells, more chances to die) composed with a
/// 1.5 % Gilbert–Elliott component in ~3-cell bursts (the LTE fading
/// texture), plus 8 ms ± 2 ms one-way delay. Burst loss alone would
/// not do: a burst longer than a frame kills long and short frames
/// alike, erasing exactly the advantage the cell model exists to
/// expose.
fn lte_profile() -> ImpairmentProfile {
    let imp = LinkImpairment {
        loss: 0.05,
        ..LinkImpairment::bursty(0.015, 3.0)
    }
    .with_cell_mtu(LTE_MTU)
    .with_delay(Duration::from_millis(8), Duration::from_millis(2));
    ImpairmentProfile::new(WIRE_SEED).with_rule(LinkRule::between(
        Ep::Client,
        Ep::Svc(ServiceKind::Primary),
        imp,
    ))
}

pub struct WireStudy {
    pub policy: UplinkPolicy,
    pub parity: Vec<ParityPoint>,
    pub crc: CrcPoint,
    pub lte_v1: LtePoint,
    pub lte_v2: LtePoint,
    pub tables: Vec<Table>,
}

impl WireStudy {
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for p in &self.parity {
            if !p.ok() {
                out.push(format!(
                    "{} bytes-on-wire disagree: predicted={} des={} rt={}",
                    p.label, p.predicted, p.des, p.rt
                ));
            }
        }
        if self.policy.delta {
            let (v1, v2) = (self.parity[0].rt as f64, self.parity[1].rt as f64);
            if v2 >= v1 * (1.0 - MIN_SAVINGS) {
                out.push(format!(
                    "v2 does not undercut v1 by {:.0} %: v1={v1:.0} B, v2={v2:.0} B",
                    MIN_SAVINGS * 100.0
                ));
            }
        }
        if !self.crc.ok() {
            out.push(format!(
                "CRC accounting disagrees: corrupted={} des_v2={} rt_v2={} des_v1={} rt_v1={}",
                self.crc.corrupted,
                self.crc.des_v2,
                self.crc.rt_v2,
                self.crc.des_v1,
                self.crc.rt_v1
            ));
        }
        if self.lte_v2.completed <= self.lte_v1.completed {
            out.push(format!(
                "v2 goodput does not beat v1 over LTE: v2 completed {} ≤ v1 {}",
                self.lte_v2.completed, self.lte_v1.completed
            ));
        }
        if self.lte_v2.bytes_per_frame() >= self.lte_v1.bytes_per_frame() {
            out.push(format!(
                "v2 bytes/frame does not beat v1 over LTE: v2 {:.0} ≥ v1 {:.0}",
                self.lte_v2.bytes_per_frame(),
                self.lte_v1.bytes_per_frame()
            ));
        }
        if self.lte_v2.p95_e2e_ms > BUDGET_MS {
            out.push(format!(
                "v2 e2e p95 {:.1} ms blows the {BUDGET_MS:.0} ms budget over LTE",
                self.lte_v2.p95_e2e_ms
            ));
        }
        out
    }

    pub fn ok(&self) -> bool {
        self.failures().is_empty()
    }
}

pub fn run_study(smoke: bool) -> WireStudy {
    let policy = study_policy();
    let (w, h) = PARITY_GEOM;
    let parity_frames: u32 = if smoke { 24 } else { 90 };
    let corrupt: u64 = if smoke { 7 } else { 15 };
    let lte_frames: u32 = if smoke { 60 } else { 150 };
    let lte_fps = 20.0;

    // --- Gate A: pristine byte parity, per dialect -------------------
    eprintln!("wire: gate A (bytes-on-wire parity, {parity_frames} frames)...");
    let n = parity_frames as usize;
    let pred_v1: u64 = predict::uplink_schedule_v1(WIRE_SEED, 0, w, h, 85, n)
        .iter()
        .sum();
    let pred_v2: u64 = predict::uplink_schedule_v2(WIRE_SEED, 0, w, h, 85, n, policy)
        .iter()
        .sum();
    let des_v1 = des_wire_run(parity_frames, WireSimConfig::v1());
    let des_v2 = des_wire_run(
        parity_frames,
        WireSimConfig {
            policy,
            ..WireSimConfig::default()
        },
    );
    let rt_v1 = rt_wire_run(parity_frames, 10.0, PARITY_GEOM, false, policy, None);
    let rt_v2 = rt_wire_run(parity_frames, 10.0, PARITY_GEOM, true, policy, None);
    let parity = vec![
        ParityPoint {
            label: "v1",
            predicted: pred_v1,
            des: des_v1.uplink_bytes,
            rt: rt_v1.uplink_bytes,
            frames: parity_frames,
        },
        ParityPoint {
            label: "v2",
            predicted: pred_v2,
            des: des_v2.uplink_bytes,
            rt: rt_v2.uplink_bytes,
            frames: parity_frames,
        },
    ];

    // --- Gate B: corrupt-first CRC accounting ------------------------
    eprintln!("wire: gate B (CRC accounting, {corrupt} corrupted datagrams)...");
    let corrupt_shim = || {
        ImpairmentProfile::new(WIRE_SEED).with_rule(LinkRule::between(
            Ep::Client,
            Ep::Svc(ServiceKind::Primary),
            LinkImpairment::corrupt_first(corrupt),
        ))
    };
    let crc = CrcPoint {
        corrupted: corrupt,
        des_v2: des_wire_run(
            parity_frames,
            WireSimConfig {
                policy,
                ..WireSimConfig::default()
            }
            .with_corrupt_first(corrupt),
        )
        .invalid_crc,
        des_v1: des_wire_run(
            parity_frames,
            WireSimConfig::v1().with_corrupt_first(corrupt),
        )
        .invalid_crc,
        rt_v2: rt_wire_run(
            parity_frames,
            10.0,
            PARITY_GEOM,
            true,
            policy,
            Some(corrupt_shim()),
        )
        .invalid_crc,
        rt_v1: rt_wire_run(
            parity_frames,
            10.0,
            PARITY_GEOM,
            false,
            policy,
            Some(corrupt_shim()),
        )
        .invalid_crc,
    };

    // --- Gate C: LTE payoff ------------------------------------------
    eprintln!("wire: gate C (LTE payoff, {lte_frames} frames @ 320x180)...");
    let lte_v1 = lte_point(
        "v1",
        &rt_wire_run(
            lte_frames,
            lte_fps,
            LTE_GEOM,
            false,
            policy,
            Some(lte_profile()),
        ),
    );
    let lte_v2 = lte_point(
        "v2",
        &rt_wire_run(
            lte_frames,
            lte_fps,
            LTE_GEOM,
            true,
            policy,
            Some(lte_profile()),
        ),
    );

    // --- Tables ------------------------------------------------------
    let mut tables = Vec::new();

    let mut t = Table::new(
        &format!(
            "Wire gate A — bytes on wire, 1 client x {parity_frames} frames @ {w}x{h} \
             (delta={}, compress={})",
            policy.delta, policy.compress
        ),
        &[
            "dialect",
            "predicted B",
            "DES B",
            "runtime B",
            "B/frame",
            "vs v1",
        ],
    );
    let v1_bytes = parity[0].rt as f64;
    for p in &parity {
        t.row(vec![
            p.label.to_string(),
            p.predicted.to_string(),
            p.des.to_string(),
            p.rt.to_string(),
            f1(p.bytes_per_frame()),
            pct(p.rt as f64 / v1_bytes - 1.0),
        ]);
    }
    t.note("gate: predicted == DES == runtime, exactly, per dialect; v2 undercuts v1 > 5 %");
    tables.push(t);

    let mut t = Table::new(
        &format!("Wire gate B — first {corrupt} uplink datagrams corrupted in flight"),
        &["plane", "dialect", "invalid-crc", "expected"],
    );
    t.row(vec![
        "DES".into(),
        "v2".into(),
        crc.des_v2.to_string(),
        corrupt.to_string(),
    ]);
    t.row(vec![
        "runtime".into(),
        "v2".into(),
        crc.rt_v2.to_string(),
        corrupt.to_string(),
    ]);
    t.row(vec![
        "DES".into(),
        "v1".into(),
        crc.des_v1.to_string(),
        "0".into(),
    ]);
    t.row(vec![
        "runtime".into(),
        "v1".into(),
        crc.rt_v1.to_string(),
        "0".into(),
    ]);
    t.note("gate: v2 counts every corruption as InvalidCrc in both planes; v1 counts none");
    tables.push(t);

    let mut t = Table::new(
        &format!(
            "Wire gate C — LTE uplink ({:.1} % loss per {LTE_MTU} B cell + bursts), \
             {lte_frames} frames @ {}x{}",
            5.0, LTE_GEOM.0, LTE_GEOM.1
        ),
        &[
            "dialect",
            "emitted",
            "completed",
            "goodput fps",
            "uplink KB",
            "B/frame",
            "net drops",
            "resyncs",
            "p95 e2e ms",
        ],
    );
    for p in [&lte_v1, &lte_v2] {
        t.row(vec![
            p.label.to_string(),
            p.emitted.to_string(),
            p.completed.to_string(),
            f1(f64::from(p.completed) / (f64::from(lte_frames) / lte_fps)),
            f1(p.uplink_bytes as f64 / 1024.0),
            f1(p.bytes_per_frame()),
            p.net_drops.to_string(),
            p.delta_resyncs.to_string(),
            f1(p.p95_e2e_ms),
        ]);
    }
    t.note(format!(
        "gate: v2 completes more frames AND ships fewer bytes/frame, p95 ≤ {BUDGET_MS:.0} ms"
    ));
    tables.push(t);

    WireStudy {
        policy,
        parity,
        crc,
        lte_v1,
        lte_v2,
        tables,
    }
}

/// `--bin wire` entry point. `--smoke` shrinks every leg for the verify
/// gate; `--json` renders the tables as a JSON array on stdout. Exits 1
/// when any parity, CRC, or LTE gate fails.
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
    let path = dir.join("wire_tables.json");
    if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("cannot write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
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
            eprintln!("wire gate FAILED: {f}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "wire gate OK: both planes agree on bytes and CRC drops exactly, \
         and v2 beats v1 over the cellular link inside the latency budget"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DES wire model reproduces the analytic schedule exactly —
    /// the cheap (single-plane) half of gate A, pinned as a unit test.
    #[test]
    fn des_bytes_match_the_predictor() {
        let n = 12u32;
        let policy = UplinkPolicy::default();
        let (w, h) = PARITY_GEOM;
        let pred: u64 = predict::uplink_schedule_v2(WIRE_SEED, 0, w, h, 85, n as usize, policy)
            .iter()
            .sum();
        let des = des_wire_run(n, WireSimConfig::default());
        assert_eq!(
            des.uplink_bytes, pred,
            "DES wire model drifted off the schedule"
        );
        assert!(des.v2 && des.enabled);
    }

    /// Valid env values parse; garbage warns (once) and falls back.
    #[test]
    fn env_flag_contract() {
        static W: Once = Once::new();
        std::env::set_var("SCATTER_WIRE_TEST_KNOB", "0");
        assert_eq!(env_flag("SCATTER_WIRE_TEST_KNOB", &W), Some(false));
        std::env::set_var("SCATTER_WIRE_TEST_KNOB", "true");
        assert_eq!(env_flag("SCATTER_WIRE_TEST_KNOB", &W), Some(true));
        std::env::set_var("SCATTER_WIRE_TEST_KNOB", "sideways");
        assert_eq!(env_flag("SCATTER_WIRE_TEST_KNOB", &W), None);
        std::env::remove_var("SCATTER_WIRE_TEST_KNOB");
        assert_eq!(env_flag("SCATTER_WIRE_TEST_KNOB", &W), None);
    }
}
