//! Shared experiment parameters and run helpers.
//!
//! Every figure is a set of *independent* simulation points (the runs
//! share no state and each is bit-reproducible from its `RunConfig`),
//! so the harness fans points out across a work-stealing thread pool
//! ([`run_batch`] / [`par_map`]) sized by `SCATTER_JOBS` (default: the
//! machine's available parallelism). Results are merged back in input
//! order, which keeps every table and JSON artifact byte-identical to
//! a sequential run — see DESIGN.md §9.
//!
//! On top of that sits a process-wide deterministic run cache: several
//! figures revisit the same (mode, placement, clients) point (fig. 10
//! re-plots fig. 2/3/4 points for jitter, headline re-runs the edge
//! grid, ...). Since reports are pure functions of the config, the
//! cache returns a clone instead of re-simulating. Disable with
//! `SCATTER_RUN_CACHE=0` (e.g. when timing raw simulation throughput);
//! the variable is read once per process.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};

use orchestra::PlacementSpec;
use scatter::config::{env_knob, RunConfig};
use scatter::{run_experiment, Mode, RunReport};
use simcore::SimDuration;

/// Simulated seconds per experiment point. The paper runs five minutes;
/// 60 s is statistically equivalent for these metrics and keeps the full
/// figure suite fast. Override with `SCATTER_EXP_SECS`; an unparsable
/// value warns once on stderr and falls back to the default.
pub fn run_secs() -> u64 {
    static WARN: Once = Once::new();
    env_knob(
        "SCATTER_EXP_SECS",
        &WARN,
        |&v| v >= 1,
        "a positive integer",
        "using default 60",
    )
    .unwrap_or(60)
}

/// Worker threads for [`run_batch`]/[`par_map`]. `SCATTER_JOBS` wins;
/// an unparsable or zero value warns once on stderr and falls back to
/// the machine's available parallelism. `SCATTER_JOBS=1` forces the
/// sequential path.
pub fn jobs() -> usize {
    static WARN: Once = Once::new();
    env_knob(
        "SCATTER_JOBS",
        &WARN,
        |&v| v >= 1,
        "a positive integer",
        "using available parallelism",
    )
    .unwrap_or_else(default_jobs)
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Warmup discarded from aggregates.
pub const WARMUP_SECS: u64 = 5;

/// Root seed for all experiment runs (reports are seed-reproducible).
pub const SEED: u64 = 20231205; // the conference's opening day

/// Apply the standard duration/warmup/seed to a config.
pub fn std_cfg(cfg: RunConfig) -> RunConfig {
    cfg.with_duration(SimDuration::from_secs(run_secs()))
        .with_warmup(SimDuration::from_secs(WARMUP_SECS))
        .with_seed(SEED)
}

/// Map `f` over `items` on a work-stealing pool of [`jobs`] scoped
/// threads (crossbeam-style scope). Workers claim items through an
/// atomic cursor — whichever thread is free takes the next point, so an
/// expensive 10-client run does not stall the queue behind it. Results
/// are re-ordered to input order before returning, making the output
/// indistinguishable from `items.iter().map(f).collect()`.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let workers = jobs().min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                done.lock().unwrap().extend(local);
            });
        }
    })
    .expect("experiment worker panicked");
    let mut out = done.into_inner().unwrap();
    out.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(out.len(), n);
    out.into_iter().map(|(_, v)| v).collect()
}

// ---------------------------------------------------------------------
// Deterministic run cache (default cost model only — the key is the
// config's Debug string, which does not encode a custom CostModel).
// ---------------------------------------------------------------------

fn cache() -> &'static Mutex<HashMap<String, RunReport>> {
    static CACHE: OnceLock<Mutex<HashMap<String, RunReport>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// `SCATTER_RUN_CACHE`, read once per process: `0` turns the cache off,
/// `1` (the default) keeps it on; anything else warns once on stderr and
/// keeps it on.
fn cache_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    static WARN: Once = Once::new();
    *ENABLED.get_or_init(|| {
        env_knob(
            "SCATTER_RUN_CACHE",
            &WARN,
            |&v: &u8| v <= 1,
            "0 or 1",
            "keeping the run cache on",
        ) != Some(0)
    })
}

/// Drop every cached report, so the next run of a config simulates
/// again (`tests/parallel_determinism.rs` compares cold runs).
pub fn clear_run_cache() {
    cache().lock().unwrap().clear();
}

/// Run under the default cost model, consulting the process-wide cache.
/// Runs are pure functions of their config, so a hit returns a clone of
/// the previous report; concurrent misses on the same key both simulate
/// and insert identical results (no lock held across a simulation).
fn run_cached(cfg: RunConfig) -> RunReport {
    if !cache_enabled() {
        return run_experiment(cfg);
    }
    let key = format!("{cfg:?}");
    if let Some(hit) = cache().lock().unwrap().get(&key) {
        return hit.clone();
    }
    let report = run_experiment(cfg);
    cache().lock().unwrap().insert(key, report.clone());
    report
}

/// Run one experiment point with the standard length/seed.
pub fn run(mode: Mode, placement: PlacementSpec, clients: usize) -> RunReport {
    run_config(RunConfig::new(mode, placement, clients))
}

/// Run with a custom config, applying the standard length/seed defaults.
pub fn run_config(cfg: RunConfig) -> RunReport {
    run_cached(std_cfg(cfg))
}

/// Run a batch of configs in parallel (standard length/seed applied),
/// returning reports in input order.
pub fn run_batch(cfgs: Vec<RunConfig>) -> Vec<RunReport> {
    let cfgs: Vec<RunConfig> = cfgs.into_iter().map(std_cfg).collect();
    par_map(&cfgs, |cfg| run_cached(cfg.clone()))
}

/// Run a batch of plain (mode, placement, clients) points in parallel.
pub fn run_many(points: &[(Mode, PlacementSpec, usize)]) -> Vec<RunReport> {
    run_batch(
        points
            .iter()
            .map(|(m, p, c)| RunConfig::new(*m, p.clone(), *c))
            .collect(),
    )
}

/// A metric's mean ± sample standard deviation over several seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedStat {
    pub mean: f64,
    pub std: f64,
    pub n: usize,
}

impl SeedStat {
    pub fn format(&self) -> String {
        format!("{:.1} ± {:.1}", self.mean, self.std)
    }
}

/// Run the same experiment point under `n_seeds` independent seeds (in
/// parallel) and aggregate a metric — the multi-run statistics the
/// paper's five-minute single runs forgo. Seed `i` is derived as
/// `SEED + i·7919`, so replica seeds are a pure function of the replica
/// index and the aggregate is independent of scheduling order.
pub fn run_seeds<F>(
    mode: Mode,
    placement: &PlacementSpec,
    clients: usize,
    n_seeds: u64,
    metric: F,
) -> SeedStat
where
    F: Fn(&RunReport) -> f64,
{
    assert!(n_seeds >= 1);
    let cfgs: Vec<RunConfig> = (0..n_seeds)
        .map(|i| {
            RunConfig::new(mode, placement.clone(), clients)
                .with_duration(SimDuration::from_secs(run_secs()))
                .with_warmup(SimDuration::from_secs(WARMUP_SECS))
                .with_seed(SEED.wrapping_add(i * 7919))
        })
        .collect();
    let values: Vec<f64> = par_map(&cfgs, |cfg| run_cached(cfg.clone()))
        .iter()
        .map(metric)
        .collect();
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let std = if n < 2 {
        0.0
    } else {
        (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
    };
    SeedStat { mean, std, n }
}

/// The four placement configurations of figs. 2 and 6, labelled as in
/// the paper.
pub fn edge_configs() -> Vec<(&'static str, PlacementSpec)> {
    use scatter::config::placements::*;
    vec![
        ("C1 (E1 only)", c1()),
        ("C2 (E2 only)", c2()),
        ("C12 [E1,E1,E2,E2,E2]", c12()),
        ("C21 [E2,E2,E1,E1,E1]", c21()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use scatter::config::placements;

    /// `SCATTER_EXP_SECS` is process-global; tests that set or read it
    /// serialize here so they cannot observe each other's values.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn edge_configs_are_four() {
        assert_eq!(edge_configs().len(), 4);
    }

    #[test]
    fn run_secs_defaults_sanely() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::remove_var("SCATTER_EXP_SECS");
        assert_eq!(run_secs(), 60);
    }

    #[test]
    fn jobs_is_positive() {
        assert!(jobs() >= 1);
    }

    #[test]
    fn par_map_preserves_order_and_length() {
        let items: Vec<u64> = (0..97).collect();
        let got = par_map(&items, |&x| x * x);
        assert_eq!(got, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        assert!(par_map(&Vec::<u64>::new(), |&x: &u64| x).is_empty());
    }

    #[test]
    fn seed_stats_have_modest_spread() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("SCATTER_EXP_SECS", "12");
        let stat = run_seeds(Mode::Scatter, &placements::c1(), 1, 3, |r| r.fps());
        assert_eq!(stat.n, 3);
        assert!(stat.mean > 20.0, "mean FPS {:.1}", stat.mean);
        assert!(
            stat.std < stat.mean * 0.2,
            "single-client FPS should be stable across seeds: {}",
            stat.format()
        );
    }

    #[test]
    fn run_cache_returns_identical_reports() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("SCATTER_EXP_SECS", "8");
        let a = run(Mode::Scatter, placements::c1(), 1);
        let b = run(Mode::Scatter, placements::c1(), 1);
        assert_eq!(a.per_client_fps, b.per_client_fps);
        assert_eq!(a.summary_line(), b.summary_line());
        assert_eq!(a.events_executed, b.events_executed);
    }
}
