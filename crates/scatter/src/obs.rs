//! Live telemetry wiring for the DES plane.
//!
//! The simulation's own accounting ([`crate::report::RunReport`]) is
//! computed *post hoc* from exact per-event state. This module is the
//! *live* counterpart: the same call sites also record into a
//! [`telemetry::Registry`] — counters for ingress/processed/drops (the
//! drop reasons mirror [`trace::DropReason::as_str`]), a log-linear
//! histogram per service and for end-to-end latency, and 1 Hz gauges for
//! queue depth, resident memory, and machine CPU/GPU utilization.
//!
//! The wiring is a pure observer: it draws no randomness, schedules no
//! events, and never feeds back into the simulation, so a telemetered
//! run is bit-for-bit identical to an untelemetered one. When the world
//! is built without a registry (`run_experiment`), the `Option` is
//! `None` and every call site is a branch-not-taken.

use telemetry::{Counter, Gauge, Histogram, Labels, Registry, SloConfig, SloEvent, SloTracker};

/// Per-slot (service-instance) handles, parallel to
/// `PipelineWorld::services`.
pub struct SlotObs {
    pub ingress: Counter,
    pub processed: Counter,
    pub latency_ms: Histogram,
    pub queue_depth: Gauge,
    pub memory_gb: Gauge,
    /// Drops by reason, mirroring the report's `DropCounters` split and
    /// named by `trace::DropReason::as_str`.
    pub drop_busy: Counter,
    pub drop_threshold: Counter,
    pub drop_stale_fetch: Counter,
    pub drop_crash: Counter,
    pub fetch_served: Counter,
    pub fetch_dropped: Counter,
}

/// All DES-plane telemetry state: the registry, per-slot and per-machine
/// handles, pipeline-level series, and the SLO tracker.
pub struct DesObs {
    pub registry: Registry,
    pub slots: Vec<SlotObs>,
    pub machine_mem: Vec<Gauge>,
    pub machine_cpu: Vec<Gauge>,
    pub machine_gpu: Vec<Gauge>,
    pub frames_emitted: Counter,
    pub frames_completed: Counter,
    pub e2e_ms: Histogram,
    /// Datagrams the network ate, by reason (netem vs fragment loss).
    pub net_drop_netem: Counter,
    pub net_drop_fragment: Counter,
    pub slo: SloTracker,
    pub slo_events: Vec<SloEvent>,
    /// `(sim time s, scrape)` taken once per window in `sample_metrics`.
    pub window_snapshots: Vec<(f64, telemetry::Snapshot)>,
    /// Seconds between windowed scrapes.
    pub window_secs: u64,
    next_window_s: u64,
}

/// Execution-plane label value for the simulation.
pub const PLANE: &str = "des";

fn slot_labels(kind: &'static str, replica: usize, machine: &str) -> Labels {
    Labels::service(kind)
        .with_replica(replica as u32)
        .with_machine(machine)
        .with_plane(PLANE)
}

impl DesObs {
    /// Build the pipeline-level handles; per-slot and per-machine
    /// handles are registered as the world materializes them.
    pub fn new(registry: Registry, machines: &[String]) -> DesObs {
        let plane = Labels::EMPTY.with_plane(PLANE);
        let frames_emitted = registry.counter(
            "scatter_frames_emitted_total",
            "Frames emitted by all clients",
            plane.clone(),
        );
        let frames_completed = registry.counter(
            "scatter_frames_completed_total",
            "Frames whose result reached the client",
            plane.clone(),
        );
        let e2e_ms = registry.histogram(
            "scatter_e2e_latency_ms",
            "End-to-end frame latency (emission to result delivery), ms",
            plane.clone(),
        );
        let net_drop_netem = registry.counter(
            "scatter_net_drops_total",
            "Frame datagrams lost in the network, by reason",
            plane.clone().with_reason("netem-loss"),
        );
        let net_drop_fragment = registry.counter(
            "scatter_net_drops_total",
            "Frame datagrams lost in the network, by reason",
            plane.clone().with_reason("fragment-loss"),
        );
        let machine_mem = machines
            .iter()
            .map(|m| {
                registry.gauge(
                    "scatter_machine_memory_gb",
                    "Resident memory per machine, GB (1 Hz sample)",
                    Labels::EMPTY.with_machine(m.clone()).with_plane(PLANE),
                )
            })
            .collect();
        let machine_cpu = machines
            .iter()
            .map(|m| {
                registry.gauge(
                    "scatter_machine_cpu_pct",
                    "CPU utilization per machine, percent",
                    Labels::EMPTY.with_machine(m.clone()).with_plane(PLANE),
                )
            })
            .collect();
        let machine_gpu = machines
            .iter()
            .map(|m| {
                registry.gauge(
                    "scatter_machine_gpu_pct",
                    "GPU utilization per machine, percent",
                    Labels::EMPTY.with_machine(m.clone()).with_plane(PLANE),
                )
            })
            .collect();
        DesObs {
            registry,
            slots: Vec::new(),
            machine_mem,
            machine_cpu,
            machine_gpu,
            frames_emitted,
            frames_completed,
            e2e_ms,
            net_drop_netem,
            net_drop_fragment,
            slo: SloTracker::new(SloConfig::default()),
            slo_events: Vec::new(),
            window_snapshots: Vec::new(),
            window_secs: 5,
            next_window_s: 5,
        }
    }

    /// Register handles for one service slot. Called once per deployed
    /// instance.
    pub fn register_slot(&mut self, kind: &'static str, replica: usize, machine: &str) -> SlotObs {
        let r = &self.registry;
        let l = || slot_labels(kind, replica, machine);
        let drop = |reason: &'static str| {
            r.counter(
                "scatter_drops_total",
                "Frames dropped at a service instance, by reason",
                l().with_reason(reason),
            )
        };
        SlotObs {
            ingress: r.counter(
                "scatter_service_ingress_total",
                "Frames that reached this instance's ingress",
                l(),
            ),
            processed: r.counter(
                "scatter_service_processed_total",
                "Frame executions completed by this instance",
                l(),
            ),
            latency_ms: r.histogram(
                "scatter_service_latency_ms",
                "Per-frame service latency (wait + compute), ms",
                l(),
            ),
            queue_depth: r.gauge(
                "scatter_queue_depth",
                "Sidecar queue depth (scAtteR++) or pending fetches (sift)",
                l(),
            ),
            memory_gb: r.gauge(
                "scatter_service_memory_gb",
                "Resident memory of this instance, GB (1 Hz sample)",
                l(),
            ),
            drop_busy: drop("busy-ingress"),
            drop_threshold: drop("threshold-filter"),
            drop_stale_fetch: drop("stale-fetch"),
            drop_crash: drop("crash"),
            fetch_served: r.counter(
                "scatter_fetch_served_total",
                "Feature fetches this sift instance served",
                l(),
            ),
            fetch_dropped: r.counter(
                "scatter_fetch_dropped_total",
                "Feature fetches dropped at a busy sift's socket buffer",
                l(),
            ),
        }
    }

    /// A frame failed the objective (dropped anywhere in the pipeline).
    pub fn slo_breach(&mut self, now_s: f64) {
        self.slo.observe_breach(now_s);
    }

    /// A frame completed with the given end-to-end latency.
    pub fn slo_complete(&mut self, now_s: f64, e2e_ms: f64) {
        self.slo.observe(now_s, e2e_ms);
    }

    /// 1 Hz tick: run the SLO state machine and take a windowed scrape
    /// when a window boundary passes.
    pub fn tick(&mut self, now_s: f64) {
        if let Some(ev) = self.slo.evaluate(now_s) {
            self.slo_events.push(ev);
        }
        if now_s >= self.next_window_s as f64 {
            self.window_snapshots
                .push((now_s, self.registry.snapshot()));
            self.next_window_s += self.window_secs;
        }
    }
}

/// Everything a telemetered run returns beyond the report: the SLO
/// event log and the per-window scrapes (the caller already holds the
/// registry it passed in).
pub struct DesTelemetry {
    pub slo_events: Vec<SloEvent>,
    pub window_snapshots: Vec<(f64, telemetry::Snapshot)>,
    /// Final SLO tracker state (rolling quantiles, lifetime breach
    /// fraction, alert state at run end).
    pub slo: SloTracker,
}

// ---------------------------------------------------------------------
// Runtime (real UDP) plane
// ---------------------------------------------------------------------

/// Execution-plane label value for the real loopback-UDP runtime.
pub const RT_PLANE: &str = "runtime";

/// Machine label for the single-host runtime.
pub const RT_MACHINE: &str = "runtime-host";

/// Handles one runtime service thread records on. Acquired once at
/// spawn; every record afterwards is wait-free (this is the plane where
/// it matters — these are real threads on a hot receive loop).
#[derive(Clone)]
pub struct RtSvcObs {
    pub ingress: Counter,
    pub processed: Counter,
    pub latency_ms: Histogram,
    /// Staleness-filter drops (mirrors `SvcStats::dropped_stale`).
    pub drop_stale: Counter,
    /// Reassembler evictions: partial messages given up on.
    pub drop_fragment: Counter,
    /// Stateful `matching` only: frames abandoned after the sift fetch
    /// timed out (mirrors the deployment's `fetch_failures`).
    pub drop_stale_fetch: Counter,
    /// Frames lost to a replica crash: half-reassembled state that died
    /// with the thread plus arrivals at the dead socket during recovery
    /// (mirrors the DES `drops.down` / `DropReason::Crash`).
    pub drop_crash: Counter,
    /// Stateful `matching` only: frames completed during a fetch-wait
    /// that overflowed the parked queue (mirrors the DES busy-ingress
    /// drop — the service was busy waiting on sift).
    pub drop_busy: Counter,
    /// Frame messages the impairment shim ate whole, attributed at the
    /// send site exactly like the DES's netem losses (single-fragment
    /// messages).
    pub net_drop_netem: Counter,
    /// Same, for multi-fragment messages (all fragments eaten).
    pub net_drop_fragment: Counter,
    /// Wire-v2 datagrams rejected by their CRC check (corrupted in
    /// flight, dropped before any payload byte was parsed).
    pub invalid_crc: Counter,
    /// Wire-v2 delta frames dropped because their keyframe anchor was
    /// unavailable (self-synchronizing resync).
    pub delta_resync: Counter,
    pub malformed: Counter,
    pub send_errors: Counter,
    /// Real (non-WouldBlock/TimedOut) socket errors on the receive
    /// path — previously conflated with "no data yet" and hot-spun on.
    pub io_errors: Counter,
    /// Stateful `matching` only: fetch-request retransmissions under
    /// the deadline-bounded exponential backoff.
    pub fetch_retransmits: Counter,
    /// Partial messages currently buffered in the reassembler.
    pub reassembly_pending: Gauge,
    /// Stateful `sift` only: parked frame states awaiting fetch.
    pub state_store: Gauge,
}

impl RtSvcObs {
    pub fn new(registry: &Registry, kind: &'static str) -> RtSvcObs {
        let l = || {
            Labels::service(kind)
                .with_replica(0)
                .with_machine(RT_MACHINE)
                .with_plane(RT_PLANE)
        };
        RtSvcObs {
            ingress: registry.counter(
                "scatter_service_ingress_total",
                "Frames that reached this instance's ingress",
                l(),
            ),
            processed: registry.counter(
                "scatter_service_processed_total",
                "Frame executions completed by this instance",
                l(),
            ),
            latency_ms: registry.histogram(
                "scatter_service_latency_ms",
                "Per-frame service latency (wait + compute), ms",
                l(),
            ),
            drop_stale: registry.counter(
                "scatter_drops_total",
                "Frames dropped at a service instance, by reason",
                l().with_reason("threshold-filter"),
            ),
            drop_fragment: registry.counter(
                "scatter_drops_total",
                "Frames dropped at a service instance, by reason",
                l().with_reason("fragment-loss"),
            ),
            drop_stale_fetch: registry.counter(
                "scatter_drops_total",
                "Frames dropped at a service instance, by reason",
                l().with_reason("stale-fetch"),
            ),
            drop_crash: registry.counter(
                "scatter_drops_total",
                "Frames dropped at a service instance, by reason",
                l().with_reason("crash"),
            ),
            drop_busy: registry.counter(
                "scatter_drops_total",
                "Frames dropped at a service instance, by reason",
                l().with_reason("busy-ingress"),
            ),
            net_drop_netem: registry.counter(
                "scatter_net_drops_total",
                "Frame datagrams lost in the network, by reason",
                l().with_reason("netem-loss"),
            ),
            net_drop_fragment: registry.counter(
                "scatter_net_drops_total",
                "Frame datagrams lost in the network, by reason",
                l().with_reason("fragment-loss"),
            ),
            invalid_crc: registry.counter(
                "scatter_drops_total",
                "Frames dropped at a service instance, by reason",
                l().with_reason("invalid-crc"),
            ),
            delta_resync: registry.counter(
                "scatter_drops_total",
                "Frames dropped at a service instance, by reason",
                l().with_reason("delta-resync"),
            ),
            malformed: registry.counter(
                "scatter_malformed_datagrams_total",
                "Datagrams rejected by the wire decoder",
                l(),
            ),
            send_errors: registry.counter(
                "scatter_send_errors_total",
                "UDP send errors (counted, not fatal)",
                l(),
            ),
            io_errors: registry.counter(
                "scatter_io_errors_total",
                "Real socket errors on the receive path (not WouldBlock)",
                l(),
            ),
            fetch_retransmits: registry.counter(
                "scatter_fetch_retransmits_total",
                "Fetch-request retransmissions (deadline-bounded backoff)",
                l(),
            ),
            reassembly_pending: registry.gauge(
                "scatter_reassembly_pending",
                "Partial messages buffered in the reassembler",
                l(),
            ),
            state_store: registry.gauge(
                "scatter_state_store_size",
                "Parked frame states in stateful sift's feature store",
                l(),
            ),
        }
    }
}

/// Handles for the runtime's client side (shared by all client loops).
#[derive(Clone)]
pub struct RtClientObs {
    pub frames_emitted: Counter,
    pub frames_completed: Counter,
    pub e2e_ms: Histogram,
}

impl RtClientObs {
    pub fn new(registry: &Registry) -> RtClientObs {
        let plane = Labels::EMPTY.with_plane(RT_PLANE);
        RtClientObs {
            frames_emitted: registry.counter(
                "scatter_frames_emitted_total",
                "Frames emitted by all clients",
                plane.clone(),
            ),
            frames_completed: registry.counter(
                "scatter_frames_completed_total",
                "Frames whose result reached the client",
                plane.clone(),
            ),
            e2e_ms: registry.histogram(
                "scatter_e2e_latency_ms",
                "End-to-end frame latency (emission to result delivery), ms",
                plane,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_slot_creates_expected_series() {
        let reg = Registry::new();
        let mut obs = DesObs::new(reg.clone(), &["E1".to_string(), "E2".to_string()]);
        let slot = obs.register_slot("sift", 0, "E1");
        slot.ingress.inc();
        slot.drop_busy.inc();
        let snap = reg.snapshot();
        let labels = slot_labels("sift", 0, "E1");
        assert_eq!(snap.counter("scatter_service_ingress_total", &labels), 1);
        assert_eq!(
            snap.counter("scatter_drops_total", &labels.with_reason("busy-ingress")),
            1
        );
    }

    #[test]
    fn tick_takes_windowed_snapshots() {
        let reg = Registry::new();
        let mut obs = DesObs::new(reg, &[]);
        for s in 1..=11 {
            obs.tick(s as f64);
        }
        assert_eq!(obs.window_snapshots.len(), 2); // at 5 s and 10 s
    }
}
