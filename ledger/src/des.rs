//! The discrete-event simulator, measured from outside: a grid of cells
//! run pass after pass. Simulated quantities (FPS, latency, bytes) repeat
//! exactly per seed; host quantities (CPU, memory) are what the simulator
//! itself costs.

use std::fmt::Write as _;
use std::hash::Hasher as _;
use std::time::Instant;

use scatter::client::FRAME_PERIOD;
use scatter::config::{placements, RunConfig, ScaleConfig};
use scatter::{run_experiment, run_experiment_observed, Mode, ObsArtifacts, RunReport};
use simcore::SimDuration;

use crate::report::{Outcome, SERVICES};
use crate::spans::Spans;
use crate::{alloc, procfs, stats};

/// The cells of one pass and how set-up is sampled for them.
pub struct Grid {
    pub cells: Vec<RunConfig>,
    /// Zero-length runs averaged into one set-up sample, fixed so that a
    /// sample times at least ~50 ms of work.
    pub setup_repeats: usize,
}

fn paper_cell(
    mode: Mode,
    placement: orchestra::PlacementSpec,
    clients: usize,
    sim_secs: u64,
) -> RunConfig {
    RunConfig::new(mode, placement, clients)
        .with_duration(SimDuration::from_secs(sim_secs))
        .with_warmup(SimDuration::from_secs(5))
}

/// The paper's own scale: both modes on the four placements at 1–4
/// clients, plus C12 at 6, 8 and 10. Exact collectors, shallow event heap.
pub fn paper_grid(sim_secs: u64) -> Grid {
    let mut cells = Vec::new();
    for mode in [Mode::Scatter, Mode::ScatterPP] {
        for placement in [
            placements::c1(),
            placements::c2(),
            placements::c12(),
            placements::c21(),
        ] {
            for clients in 1..=4 {
                cells.push(paper_cell(mode, placement.clone(), clients, sim_secs));
            }
        }
        for clients in [6, 8, 10] {
            cells.push(paper_cell(mode, placements::c12(), clients, sim_secs));
        }
    }
    Grid {
        cells,
        setup_repeats: 8000,
    }
}

/// One paper cell, scAtteR++ on C12 with four clients: the short DES
/// probe that a runtime workload's traced run adds.
pub fn probe_grid(sim_secs: u64) -> Grid {
    Grid {
        cells: vec![paper_cell(Mode::ScatterPP, placements::c12(), 4, sim_secs)],
        setup_repeats: 1,
    }
}

/// One cell far beyond the paper: deep event heap, site-sharded routing,
/// streaming histograms. One simulated second (3 M events, about a second
/// of host time) after 0.2 s in which the 150 ms pipeline fills. The model
/// saturates near 26 frames a second whatever is offered, so a pass
/// completes about 21 frames in its window and `delivered_fps` moves by
/// 7 % from seed to seed; the mean over twenty passes moves by 2 %.
pub fn scale_grid(clients: usize) -> Grid {
    let cell = RunConfig::new(Mode::Scatter, placements::c12(), clients)
        .with_scale(ScaleConfig::new(16))
        .with_duration(SimDuration::from_secs(1))
        .with_warmup(SimDuration::from_millis(200));
    Grid {
        cells: vec![cell],
        setup_repeats: 4,
    }
}

/// Frames the cell's clients are due to emit over its whole run.
fn offered_frames(cfg: &RunConfig) -> f64 {
    cfg.clients as f64 * cfg.duration.as_secs_f64() / FRAME_PERIOD.as_secs_f64()
}

/// What one cell's report says, reduced to numbers.
struct CellResult {
    cpu_ns: u64,
    events: u64,
    offered: f64,
    delivered_fps: f64,
    e2e_mean_ms: f64,
    e2e_p95_ms: f64,
    wire_bytes: u64,
    success_rate: f64,
    compute_ms: [f64; 5],
    queue_ms: [f64; 5],
    network_ms: f64,
    /// Hash of the report's whole `Debug` text, where a check asks for it.
    fingerprint: Option<u64>,
    artifacts: Option<ObsArtifacts>,
}

fn cpu_now() -> u64 {
    procfs::process_cpu_ns().unwrap_or(0)
}

/// Hashes what is written into it, so that a report's multi-megabyte
/// `Debug` text is never held in memory (it would show in `peak_rss_mb`).
struct HashText(std::collections::hash_map::DefaultHasher);

impl std::fmt::Write for HashText {
    fn write_str(&mut self, text: &str) -> std::fmt::Result {
        self.0.write(text.as_bytes());
        Ok(())
    }
}

fn fingerprint(report: &RunReport) -> u64 {
    let mut text = HashText(Default::default());
    write!(text, "{report:?}").expect("hashing cannot fail");
    text.0.finish()
}

/// Run one cell; only the simulator call is on the CPU clock.
fn run_cell(cfg: RunConfig, observe: bool, keep_fingerprint: bool) -> CellResult {
    let offered = offered_frames(&cfg);
    let clients = cfg.clients as f64;
    let before = cpu_now();
    let (mut report, artifacts): (RunReport, _) = if observe {
        let cfg = cfg.with_observatory(observatory::ObservatoryConfig::default());
        let (report, _log, artifacts) = run_experiment_observed(cfg);
        (report, Some(artifacts))
    } else {
        (run_experiment(cfg), None)
    };
    let cpu_ns = cpu_now() - before;
    let fingerprint = keep_fingerprint.then(|| fingerprint(&report));
    let e2e_p95_ms = match &report.scale {
        Some(scale) => scale.e2e_hist.quantile(0.95),
        None => report.e2e_ms.p95(),
    };
    CellResult {
        cpu_ns,
        events: report.events_executed,
        offered,
        delivered_fps: report.fps() * clients,
        e2e_mean_ms: report.e2e_mean_ms(),
        e2e_p95_ms,
        wire_bytes: report.bytes_on_wire,
        success_rate: report.success_rate,
        compute_ms: std::array::from_fn(|i| report.breakdown_compute[i].mean()),
        queue_ms: std::array::from_fn(|i| report.breakdown_queue[i].mean()),
        network_ms: report.breakdown_network.mean(),
        fingerprint,
        artifacts,
    }
}

/// Every cell of the grid once, all with the same seed; `fingerprint`
/// asks for the first cell's.
fn run_pass(
    grid: &Grid,
    seed: u64,
    observe: bool,
    fingerprint: bool,
    spans: Option<&mut Spans>,
) -> Vec<CellResult> {
    let mut spans = spans;
    grid.cells
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            let cfg = cfg.clone().with_seed(seed);
            let keep = fingerprint && i == 0;
            match spans.as_deref_mut() {
                Some(s) => s.time("des.cell", i as u32, |_| run_cell(cfg, observe, keep)),
                None => run_cell(cfg, observe, keep),
            }
        })
        .collect()
}

fn mean_over(cells: &[CellResult], f: impl Fn(&CellResult) -> f64) -> f64 {
    stats::mean(&cells.iter().map(f).collect::<Vec<_>>())
}

fn sum_over(cells: &[CellResult], f: impl Fn(&CellResult) -> f64) -> f64 {
    cells.iter().map(f).sum()
}

/// Set-up samples: each the mean time of a zero-length (1 simulated ms) run of
/// the largest cell: what building the world costs before any event.
fn time_setups(grid: &Grid, seed: u64, samples: usize) -> Vec<f64> {
    let largest = grid
        .cells
        .iter()
        .max_by_key(|c| c.clients)
        .expect("a grid has cells")
        .clone()
        .with_seed(seed)
        .with_duration(SimDuration::from_millis(1))
        .with_warmup(SimDuration::from_millis(0));
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..grid.setup_repeats {
                std::hint::black_box(run_experiment(largest.clone()));
            }
            t.elapsed().as_secs_f64() / grid.setup_repeats as f64
        })
        .collect()
}

/// Frame conservation on a traced twin of the first cell (capped at 200
/// clients so the full trace stays small): every emitted frame must end
/// in exactly one terminal, completed or dropped for a named reason.
fn conservation(grid: &Grid, seed: u64) -> Result<(), String> {
    let mut twin = grid.cells[0]
        .clone()
        .with_seed(seed)
        .with_trace(trace::TraceConfig::default());
    twin.clients = twin.clients.min(200);
    let (_report, log, _) = run_experiment_observed(twin);
    let analysis = trace::Analysis::from_log(&log);
    if analysis.emitted() == 0 {
        return Err("the traced twin emitted no frame".to_string());
    }
    analysis.check_invariants()
}

/// Checks shared by both kinds of run: replay identity of the first cell
/// between the warm-up pass and the first timed pass, and events > 0.
fn check_passes(out: &mut Outcome, warm: &[CellResult], passes: &[Vec<CellResult>]) {
    for pass in passes {
        out.attempted += pass.len() as u64;
        let dead = pass.iter().filter(|c| c.events == 0).count();
        out.failed += dead as u64;
        out.check(dead == 0, || format!("{dead} cells executed no event"));
    }
    let same = warm[0].fingerprint.is_some() && warm[0].fingerprint == passes[0][0].fingerprint;
    out.failed += u64::from(!same);
    out.check(same, || {
        "re-running the first cell with the same seed changed its report".to_string()
    });
}

/// The untraced run: one warm-up pass, then `passes` timed passes with
/// seeds `seed..seed+passes`. Simulated quantities repeat exactly per
/// seed and are means over the passes; the simulator's own CPU cost and
/// `setup_s` are medians over them, as the runtime's are over segments.
pub fn end_to_end(grid: &Grid, seed: u64, passes: usize, setup_samples: usize) -> Outcome {
    let mut out = Outcome::default();
    let verdict = conservation(grid, seed);
    out.attempted += 1;
    out.failed += u64::from(verdict.is_err());
    out.check(verdict.is_ok(), || {
        format!("frame conservation: {verdict:?}")
    });
    out.put_reduced(
        "setup_s",
        time_setups(grid, seed, setup_samples),
        stats::median,
    );

    let warm = run_pass(grid, seed, false, true, None);
    let timed: Vec<Vec<CellResult>> = (0..passes)
        .map(|p| run_pass(grid, seed + p as u64, false, p == 0, None))
        .collect();
    check_passes(&mut out, &warm, &timed);

    let per_pass =
        |f: &dyn Fn(&[CellResult]) -> f64| -> Vec<f64> { timed.iter().map(|p| f(p)).collect() };
    out.put_reduced(
        "delivered_fps",
        per_pass(&|p| mean_over(p, |c| c.delivered_fps)),
        stats::mean,
    );
    out.put_reduced(
        "e2e_mean_ms",
        per_pass(&|p| mean_over(p, |c| c.e2e_mean_ms)),
        stats::mean,
    );
    let offered = sum_over(&timed[0], |c| c.offered);
    let mut cpu_us = per_pass(&|p| sum_over(p, |c| c.cpu_ns as f64) / 1e3 / offered);
    if procfs::process_cpu_ns().is_none() {
        cpu_us.clear();
    }
    out.put_reduced("cpu_us_per_frame", cpu_us, stats::median);
    let wire_kb =
        |p: &[CellResult]| sum_over(p, |c| c.wire_bytes as f64) / 1e3 / sum_over(p, |c| c.offered);
    out.put_reduced("wire_kb_per_frame", per_pass(&wire_kb), stats::mean);
    out.put(
        "peak_rss_mb",
        procfs::peak_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0)),
        1,
    );
    out
}

/// Per-layer rows of the DES: a warm-up pass, a plain pass for the
/// baseline cost per event, and an observed pass with the program's
/// profilers on and the allocator counting.
pub fn per_layer(out: &mut Outcome, spans: &mut Spans, grid: &Grid, seed: u64) {
    let rss_before = procfs::peak_rss_bytes();
    let warm = run_pass(grid, seed, false, true, None);
    let plain = spans.time("des.pass.plain", 0, |s| {
        run_pass(grid, seed, false, true, Some(s))
    });
    let (allocs_before, bytes_before) = alloc::totals();
    alloc::set_counting(true);
    let observed = spans.time("des.pass.observed", 1, |s| {
        run_pass(grid, seed, true, true, Some(s))
    });
    alloc::set_counting(false);
    let (allocs_after, bytes_after) = alloc::totals();
    let rss_growth = procfs::peak_rss_bytes()
        .zip(rss_before)
        .map(|(after, before)| after - before);
    check_passes(out, &warm, std::slice::from_ref(&plain));
    let unperturbed = plain[0].fingerprint == observed[0].fingerprint;
    out.check(unperturbed, || {
        "the observatory changed the first cell's report".to_string()
    });

    let n = plain.len();
    let events = sum_over(&plain, |c| c.events as f64);
    let ns_per_event = sum_over(&plain, |c| c.cpu_ns as f64) / events;
    out.put(
        "des.events_per_frame",
        events / sum_over(&plain, |c| c.offered),
        n,
    );
    out.put("des.ns_per_event", ns_per_event, n);

    // The simulator core times 1 pop and 1 execution in 2^shift; the
    // world profiler times its four phases the same way.
    let sim = |f: &dyn Fn(&simcore::SimProfStats) -> (u64, u64)| -> f64 {
        let (ns, samples) = observed
            .iter()
            .filter_map(|c| c.artifacts.as_ref()?.sim_prof.as_ref().map(f))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        ns as f64 / samples.max(1) as f64
    };
    let pop = sim(&|p| (p.pop_sampled_ns, p.pop_samples));
    out.put("des.pop_ns_per_event", pop, n);
    out.put(
        "des.exec_ns_per_event",
        sim(&|p| (p.exec_sampled_ns, p.exec_samples)),
        n,
    );
    let observed_events = sum_over(&observed, |c| c.events as f64);
    let mut named = pop;
    for (phase, key) in [
        ("net-decide", "net_decide"),
        ("cost-sample", "cost_sample"),
        ("deliver", "deliver"),
        ("slo-tick", "slo_tick"),
    ] {
        let est: u64 = observed
            .iter()
            .filter_map(|c| {
                Some(
                    c.artifacts
                        .as_ref()?
                        .prof
                        .as_ref()?
                        .get(phase)?
                        .est_total_ns,
                )
            })
            .sum();
        let per_event = est as f64 / observed_events;
        named += per_event;
        out.put(&format!("des.phase.{key}_ns_per_event"), per_event, n);
    }
    out.put("des.unattributed_cpu_share", 1.0 - named / ns_per_event, n);
    out.put(
        "des.allocs_per_event",
        (allocs_after - allocs_before) as f64 / observed_events,
        n,
    );
    out.put(
        "des.alloc_bytes_per_event",
        (bytes_after - bytes_before) as f64 / observed_events,
        n,
    );
    let most_clients = grid.cells.iter().map(|c| c.clients).max().unwrap_or(1);
    out.put(
        "des.rss_bytes_per_client",
        rss_growth.map(|b| b as f64 / most_clients as f64),
        1,
    );
    out.put(
        "des.trace_overhead_share",
        sum_over(&observed, |c| c.cpu_ns as f64) / sum_over(&plain, |c| c.cpu_ns as f64) - 1.0,
        n,
    );
    out.put("des.success_rate", mean_over(&plain, |c| c.success_rate), n);
    out.put("des.e2e_p95_ms", mean_over(&plain, |c| c.e2e_p95_ms), n);
    for (i, svc) in SERVICES.iter().enumerate() {
        out.put(
            &format!("des.{svc}.compute_ms"),
            mean_over(&plain, |c| c.compute_ms[i]),
            n,
        );
    }
    for (i, svc) in SERVICES.iter().enumerate() {
        out.put(
            &format!("des.{svc}.queue_ms"),
            mean_over(&plain, |c| c.queue_ms[i]),
            n,
        );
    }
    out.put("des.network_ms", mean_over(&plain, |c| c.network_ms), n);
}
