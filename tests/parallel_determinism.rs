//! Parallel-vs-sequential determinism: whatever `SCATTER_JOBS` says and
//! whatever the point mix, the parallel experiment harness must produce
//! reports (and rendered `--json` tables) **byte-identical** to
//! sequential, cache-off execution. This is the property that lets the
//! figure suite fan out across cores without ever changing a published
//! number — see DESIGN.md §9.
//!
//! Env-var note: the knobs are process-global, so every test in this
//! binary serializes on one lock. `SCATTER_RUN_CACHE` is read once per
//! process, so the uncached reference calls `run_experiment` directly.

use std::sync::Mutex;

use experiments::common::{clear_run_cache, run_many, std_cfg};
use proptest::prelude::*;
use scatter::config::RunConfig;
use scatter::{run_experiment, Mode};

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Set the run length and worker count; start from an empty run cache.
fn set_env(jobs: usize) {
    std::env::set_var("SCATTER_EXP_SECS", "6");
    std::env::set_var("SCATTER_JOBS", jobs.to_string());
    clear_run_cache();
}

fn placement_for(idx: usize) -> orchestra::PlacementSpec {
    use scatter::config::placements;
    match idx {
        0 => placements::c1(),
        1 => placements::c2(),
        2 => placements::c12(),
        _ => placements::c21(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized mode/placement/clients/jobs: the merged reports of the
    /// parallel cached runner equal the sequential uncached ones, field
    /// for field (compared through their full `Debug` rendering).
    #[test]
    fn parallel_reports_match_sequential(
        pp in 0usize..2,
        place_idx in 0usize..4,
        max_clients in 1usize..4,
        jobs in 2usize..6,
    ) {
        let _guard = ENV_LOCK.lock().unwrap();
        let mode = if pp == 1 { Mode::ScatterPP } else { Mode::Scatter };
        // A small sweep, including a deliberate duplicate point so the
        // cache path is exercised inside the batch.
        let mut points: Vec<_> = (1..=max_clients)
            .map(|n| (mode, placement_for(place_idx), n))
            .collect();
        points.push(points[0].clone());

        set_env(1);
        let seq: Vec<String> = points
            .iter()
            .map(|(m, p, c)| run_experiment(std_cfg(RunConfig::new(*m, p.clone(), *c))))
            .map(|r| format!("{r:?}"))
            .collect();

        set_env(jobs);
        let par: Vec<String> = run_many(&points).iter().map(|r| format!("{r:?}")).collect();

        prop_assert_eq!(&seq, &par, "jobs={} must not change reports", jobs);
        // The duplicate point's report equals its original byte for byte.
        let last = seq.len() - 1;
        prop_assert_eq!(&par[0], &par[last]);
    }
}

/// A real figure module's `--json` artifact is jobs-invariant byte for
/// byte (fig. 4 is the cheapest module that runs a parallel batch).
#[test]
fn figure_json_is_jobs_invariant() {
    let _guard = ENV_LOCK.lock().unwrap();

    set_env(1);
    let seq: Vec<String> = experiments::fig4_cloud::run_figure()
        .iter()
        .map(|t| t.render_json())
        .collect();

    for jobs in [2, 4] {
        set_env(jobs);
        let par: Vec<String> = experiments::fig4_cloud::run_figure()
            .iter()
            .map(|t| t.render_json())
            .collect();
        assert_eq!(seq, par, "fig4 --json must be identical at jobs={jobs}");
    }
}
