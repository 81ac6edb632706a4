//! The runtime's one data plane — one `recv_from` per wakeup, one
//! `send_to` per datagram — under seeded impairment and on pristine
//! loopback.
//!
//! Determinism note: impairment uses `drop_first` rules (a per-link
//! datagram counter, not an RNG draw), so the verdict for every
//! datagram depends only on its position in its link's stream, and two
//! runs at one seed must agree on every count. Pacing is slow and the
//! drain long so the single-core debug-build scheduler can't starve a
//! stage.

use scatter::runtime::deploy::{run_local, LocalDeployment, RuntimeOptions, RuntimeReport};
use scatter::runtime::impair::{Ep, ImpairmentProfile, LinkImpairment, LinkRule};
use scatter::ServiceKind;
use std::time::Duration;

fn impaired() -> RuntimeOptions {
    RuntimeOptions {
        clients: 2,
        frames: 4,
        fps: 2.0,
        seed: 11,
        drain: Duration::from_millis(4000),
        // Bite exactly one link (the uplink): a frame with a missing
        // fragment dies in reassembly; every later frame completes.
        impair: Some(ImpairmentProfile::new(41).with_rule(LinkRule::between(
            Ep::Client,
            Ep::Svc(ServiceKind::Primary),
            LinkImpairment::drop_first(2),
        ))),
        ..Default::default()
    }
}

/// Everything two runs at one seed must agree on, in one comparable bundle.
fn fingerprint(r: &RuntimeReport) -> Vec<(&'static str, u64)> {
    let mut v = vec![
        ("emitted", r.emitted as u64),
        ("completed", r.completed as u64),
        ("net_drops", r.net_drops),
        ("fragment_drops", r.fragment_drops),
        ("malformed", r.malformed_datagrams),
        ("io_errors", r.io_errors),
        ("crash_drops", r.crash_drops),
        ("busy_drops", r.busy_drops),
        ("hb_send_errors", r.hb_send_errors),
        ("delay_send_errors", r.delay_send_errors),
    ];
    for (i, c) in r.per_client_completed.iter().enumerate() {
        v.push((if i == 0 { "client0" } else { "client1" }, *c as u64));
    }
    for (kind, rx, px, stale) in &r.service_counts {
        let _ = kind;
        v.push(("svc_rx", *rx));
        v.push(("svc_px", *px));
        v.push(("svc_stale", *stale));
    }
    v
}

#[test]
fn impaired_plane_is_repeatable() {
    let first = run_local(impaired());
    let second = run_local(impaired());
    assert_eq!(
        fingerprint(&first),
        fingerprint(&second),
        "two runs at one seed diverged"
    );
    assert_eq!(
        first.recognitions, second.recognitions,
        "recognized-object sets must match"
    );
    // The impairment actually bit (the equality above wasn't vacuous).
    assert!(
        first.net_drops + first.fragment_drops > 0,
        "seeded impairment dropped nothing; test lost its teeth"
    );
    assert!(first.completed >= 1, "nothing completed at all");
}

/// Three clients on pristine loopback: every frame must complete, with
/// nothing miscounted along the way.
#[test]
fn pristine_plane_conserves_frames() {
    let report = run_local(RuntimeOptions {
        clients: 3,
        frames: 4,
        fps: 2.5,
        seed: 5,
        drain: Duration::from_millis(4000),
        ..Default::default()
    });
    assert_eq!(
        report.completed, report.emitted,
        "pristine loopback must complete every frame: {report:?}"
    );
    assert_eq!(report.io_errors, 0);
    assert_eq!(report.malformed_datagrams, 0);
}

/// The send-failure counters (previously `let _ =` discarded) must be
/// surfaced end to end: report fields zero on pristine loopback, and
/// both gauges present in a live scrape.
#[test]
fn send_error_counters_are_surfaced() {
    let registry = telemetry::Registry::new();
    let dep = LocalDeployment::start(RuntimeOptions {
        frames: 3,
        fps: 3.0,
        drain: Duration::from_millis(2000),
        registry: Some(registry.clone()),
        detection: Some(scatter::resilience::DetectionConfig::default()),
        ..Default::default()
    });
    let report = dep.run_client();
    let scrape = dep.scrape().expect("registry attached");
    drop(dep.shutdown());
    assert!(
        scrape.contains("scatter_hb_send_errors"),
        "hb send-error gauge missing from scrape"
    );
    assert!(
        scrape.contains("scatter_delay_send_errors"),
        "delay send-error gauge missing from scrape"
    );
    assert_eq!(report.hb_send_errors, 0, "loopback hb sends must succeed");
    assert_eq!(report.delay_send_errors, 0);
}
