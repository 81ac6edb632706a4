//! Scale-plane invariants (DESIGN.md §14), pinned end-to-end:
//!
//! 1. a sited run with `sites = 1` and exact metrics produces a report
//!    byte-identical to the legacy (no-scale) run — the scale plane is
//!    opt-in down to the last bit;
//! 2. streaming metrics agree with the exact collectors on every
//!    aggregate they summarize (exactly for counters, within histogram
//!    resolution for distributions).

use scatter::config::{placements, RunConfig, ScaleConfig};
use scatter::{run_experiment, Mode};
use simcore::SimDuration;

fn base_cfg(clients: usize) -> RunConfig {
    RunConfig::new(Mode::Scatter, placements::c12(), clients)
        .with_duration(SimDuration::from_secs(3))
        .with_warmup(SimDuration::from_secs(1))
        .with_seed(99)
}

fn sited(cfg: RunConfig, sites: usize, streaming: bool) -> RunConfig {
    let mut sc = ScaleConfig::new(sites);
    if !streaming {
        sc = sc.exact();
    }
    cfg.with_scale(sc)
}

#[test]
fn one_site_exact_run_is_byte_identical_to_legacy() {
    let legacy = run_experiment(base_cfg(4));
    let sited_run = run_experiment(sited(base_cfg(4), 1, false));
    assert_eq!(
        format!("{legacy:?}"),
        format!("{sited_run:?}"),
        "sites=1 exact must reproduce the legacy report bit for bit"
    );
    assert_eq!(legacy.events_executed, sited_run.events_executed);
}

#[test]
fn streaming_aggregates_agree_with_exact_collectors() {
    let exact = run_experiment(sited(base_cfg(6), 3, false));
    let streamed = run_experiment(sited(base_cfg(6), 3, true));

    // Exact counters: success rate and window completions are integers.
    assert_eq!(exact.success_rate, streamed.success_rate);
    let s = streamed.scale.as_ref().expect("streaming report");
    let secs = exact
        .measure_end
        .saturating_since(exact.measure_start)
        .as_secs_f64();
    let exact_completions: f64 = exact.per_client_fps.iter().sum::<f64>() * secs;
    assert!(
        (exact_completions - s.completed_in_window as f64).abs() < 1e-6,
        "window completions: exact {exact_completions}, streamed {}",
        s.completed_in_window
    );
    // Mean FPS is the same ratio computed two ways.
    assert!(
        (exact.fps() - streamed.fps()).abs() < 1e-9,
        "fps: exact {}, streamed {}",
        exact.fps(),
        streamed.fps()
    );
    // Jitter uses the identical per-client arithmetic — bitwise equal.
    assert_eq!(exact.jitter_ms, streamed.jitter_ms);
    // Freeze: the streaming monotone-subsequence gap is a lower bound.
    assert!(streamed.max_freeze_frames <= exact.max_freeze_frames);
    // E2E mean within the histogram's ~2% bucket resolution.
    let (em, sm) = (exact.e2e_mean_ms(), streamed.e2e_mean_ms());
    assert!(
        (em - sm).abs() <= em * 0.001 + 1e-9,
        "e2e mean: exact {em}, streamed {sm}"
    );
    // Per-service counters agree with the exact series-derived ones.
    for (es, ss) in exact.services.iter().zip(&streamed.services) {
        assert_eq!(es.ingress_total, ss.ingress_total);
        assert_eq!(es.ingress_in_window, ss.ingress_in_window);
        assert_eq!(es.drop_events_in_window, ss.drop_events_in_window);
        assert!(ss.ingress.is_empty(), "streaming keeps no ingress series");
        assert!(ss.drops_over_time.is_empty());
    }
    // And the streaming run carries no per-client vectors at all.
    assert!(streamed.per_client_fps.is_empty());
    assert!(streamed.per_client_fps_median.is_empty());
    assert_eq!(streamed.e2e_ms.samples().len(), 0);
}
