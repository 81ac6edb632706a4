//! Per-run results: the QoS and hardware numbers every figure is
//! assembled from.

use metrics::{LogHistogram, Summary, TimeSeries};
use simcore::SimTime;

use crate::config::Mode;
use crate::message::ServiceKind;
use crate::service::DropCounters;

/// Results for one deployed service instance.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    pub kind: ServiceKind,
    pub replica: usize,
    pub machine: String,
    pub processed: u64,
    pub drops: DropCounters,
    pub latency_ms: Summary,
    /// Ingress arrivals over time (1.0 per arrival). Empty in streaming
    /// runs — the counters below carry the aggregates instead.
    pub ingress: TimeSeries,
    /// Drops over time (1.0 per drop). Empty in streaming runs.
    pub drops_over_time: TimeSeries,
    /// Whole-run / in-window ingress arrivals and in-window drop events.
    /// Populated in both modes (derived from the series in exact runs),
    /// so scale-aware consumers never need the O(events) series.
    pub ingress_total: u64,
    pub ingress_in_window: u64,
    pub drop_events_in_window: u64,
    /// Mean resident memory over the run, GB.
    pub mean_memory_gb: f64,
    pub peak_memory_gb: f64,
    /// Sidecar statistics (scAtteR++): filter drop ratio and mean queue
    /// delay. `None` when the instance has no sidecar (scAtteR runs) —
    /// previously these silently reported `0.0`, indistinguishable from
    /// a sidecar that never dropped/queued anything.
    pub sidecar_drop_ratio: Option<f64>,
    pub mean_queue_ms: Option<f64>,
    /// `sift` only: fetch-service counters.
    pub fetch_served: u64,
    pub fetch_dropped: u64,
}

/// Resilience-plane accounting for one run. All zeros when the plane is
/// disabled ([`crate::resilience::ResilienceConfig::default`]).
#[derive(Debug, Clone, Default)]
pub struct ResilienceReport {
    /// Suspicions raised by the heartbeat failure detector.
    pub detections: u64,
    /// Automatic redeploys driven by detection
    /// ([`orchestra::Cluster::redeploy_failed`]).
    pub redeploys: u64,
    /// Detection latencies (crash instant → suspicion), ms.
    pub detection_latency_ms: Vec<f64>,
    /// Frames the balancer handed to an instance *after* the detector
    /// had marked it failed. Failover correctness requires exactly 0.
    pub post_detection_misroutes: u64,
    /// Frames dropped because every replica of their next service was
    /// out (counted [`trace::DropReason::ServiceOutage`] terminals).
    pub outage_drops: u64,
    /// Client response deadlines that expired, and the retries issued.
    pub deadline_expired: u64,
    pub retries: u64,
    /// Results that arrived after their deadline and were re-attributed
    /// to [`trace::DropReason::ResponseDeadline`] instead of counted as
    /// completions.
    pub late_completions: u64,
    /// Explicit admission NACKs issued at the ladder's last rung.
    pub admission_nacks: u64,
    /// Ladder transitions applied, and the deepest rung reached.
    pub ladder_steps: u64,
    pub max_ladder_level: u8,
    /// Frames emitted at reduced quality (rung ≥ 1).
    pub degraded_frames: u64,
}

impl ResilienceReport {
    pub fn mean_detection_latency_ms(&self) -> f64 {
        if self.detection_latency_ms.is_empty() {
            return 0.0;
        }
        self.detection_latency_ms.iter().sum::<f64>() / self.detection_latency_ms.len() as f64
    }
}

/// Wire-model accounting for one run. All zeros when the wire model is
/// off ([`crate::config::RunConfig::wire`] = `None`).
#[derive(Debug, Clone, Default)]
pub struct WireReport {
    /// The model ran (distinguishes "v1 modelled" from "no model").
    pub enabled: bool,
    /// v2 framing was modelled (delta + codec + CRC envelope).
    pub v2: bool,
    /// Total client→ingress datagram bytes, headers included — the
    /// number the cross-plane bytes gate compares against the runtime's
    /// send-site counter.
    pub uplink_bytes: u64,
    /// Corrupted datagrams caught by the v2 CRC at ingress (always 0
    /// under v1 framing: the damage passes silently).
    pub invalid_crc: u64,
}

/// Streaming-metrics aggregates for a scale-out run (DESIGN.md §14).
/// Present iff the run's [`crate::config::ScaleConfig::streaming`] was
/// on; the exact per-client vectors on [`RunReport`] are then empty and
/// the accessor methods fall back to these. Memory is O(sites +
/// histogram buckets) regardless of client count.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    pub sites: usize,
    /// Completions inside the measurement window, summed over clients —
    /// exact (the numerator of the mean-FPS fallback).
    pub completed_in_window: u64,
    /// Distribution of per-client mean FPS over the window (one sample
    /// per client; ≈2 % bucket resolution).
    pub fps_per_client: LogHistogram,
    /// End-to-end latency distribution over all completed frames, ms.
    pub e2e_hist: LogHistogram,
}

/// Hardware aggregates for one machine.
#[derive(Debug, Clone)]
pub struct MachineReport {
    pub name: String,
    /// Capacity-normalized utilization over the measurement window, %.
    pub cpu_pct: f64,
    pub gpu_pct: f64,
    pub mean_memory_gb: f64,
    pub peak_memory_gb: f64,
}

/// Everything one experiment run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub mode: Mode,
    pub clients: usize,
    /// Measurement window (post-warmup).
    pub measure_start: SimTime,
    pub measure_end: SimTime,
    /// Average completed-frame rate per client over the window.
    pub per_client_fps: Vec<f64>,
    /// Median of per-second rates, per client (robust statistic, what the
    /// paper quotes for the cloud deployment).
    pub per_client_fps_median: Vec<f64>,
    pub success_rate: f64,
    /// E2E latency over all clients, ms.
    pub e2e_ms: Summary,
    /// Mean Δ inter-frame jitter over clients, ms.
    pub jitter_ms: f64,
    /// Longest augmentation freeze (consecutive missing frames) over all
    /// clients — the user-facing cost of bursty loss.
    pub max_freeze_frames: u64,
    pub services: Vec<ServiceReport>,
    pub machines: Vec<MachineReport>,
    pub bytes_on_wire: u64,
    pub datagrams_lost: u64,
    /// Latency breakdown over completed frames (ms): per-stage compute,
    /// per-stage queue/fetch wait, and the network residual.
    pub breakdown_compute: [Summary; 5],
    pub breakdown_queue: [Summary; 5],
    pub breakdown_network: Summary,
    /// DES events executed over the whole run — the denominator for
    /// the ledger's `des.ns_per_event` and `des.events_per_frame` rows.
    pub events_executed: u64,
    /// Resilience-plane accounting (all zeros when the plane is off).
    pub resilience: ResilienceReport,
    /// Wire-model accounting (all zeros when the model is off).
    pub wire: WireReport,
    /// Streaming scale-out aggregates (`None` unless the run streamed
    /// its metrics — exact runs, including sited non-streaming ones,
    /// keep the legacy fields and stay byte-identical to pre-scale
    /// reports).
    pub scale: Option<ScaleReport>,
}

impl RunReport {
    /// Mean per-client FPS — the figures' headline y-axis. Streaming
    /// runs compute it exactly from the completion counter (the mean of
    /// per-client rates over a shared window equals total completions /
    /// clients / seconds).
    pub fn fps(&self) -> f64 {
        if let Some(scale) = &self.scale {
            let secs = self
                .measure_end
                .saturating_since(self.measure_start)
                .as_secs_f64();
            if self.clients == 0 || secs <= 0.0 {
                return 0.0;
            }
            return scale.completed_in_window as f64 / self.clients as f64 / secs;
        }
        if self.per_client_fps.is_empty() {
            return 0.0;
        }
        self.per_client_fps.iter().sum::<f64>() / self.per_client_fps.len() as f64
    }

    /// Median per-second FPS averaged over clients. Streaming runs
    /// approximate with the median of the per-client mean-FPS histogram
    /// (within one ≈2 % bucket).
    pub fn fps_median(&self) -> f64 {
        if let Some(scale) = &self.scale {
            return scale.fps_per_client.median();
        }
        if self.per_client_fps_median.is_empty() {
            return 0.0;
        }
        self.per_client_fps_median.iter().sum::<f64>() / self.per_client_fps_median.len() as f64
    }

    /// Mean E2E latency in ms. Streaming runs read the histogram (mean
    /// within one bucket width).
    pub fn e2e_mean_ms(&self) -> f64 {
        if let Some(scale) = &self.scale {
            return scale.e2e_hist.mean();
        }
        self.e2e_ms.mean()
    }

    /// Merged service-latency summary for one service kind (all replicas).
    pub fn service_latency_ms(&self, kind: ServiceKind) -> Summary {
        let mut s = Summary::new();
        for svc in self.services.iter().filter(|s| s.kind == kind) {
            s.merge(&svc.latency_ms);
        }
        s
    }

    /// Aggregate drop ratio for a service kind: drops / ingress.
    pub fn drop_ratio(&self, kind: ServiceKind) -> f64 {
        let (mut drops, mut arrivals) = (0u64, 0u64);
        for s in self.services.iter().filter(|s| s.kind == kind) {
            drops += s.drops.total();
            arrivals += if s.ingress.is_empty() {
                s.ingress_total
            } else {
                s.ingress.window_count(SimTime::ZERO, self.measure_end) as u64
            };
        }
        if arrivals == 0 {
            0.0
        } else {
            drops as f64 / arrivals as f64
        }
    }

    /// Mean memory of a service kind (summed over replicas), GB.
    pub fn memory_gb(&self, kind: ServiceKind) -> f64 {
        self.services
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.mean_memory_gb)
            .sum()
    }

    /// Machine report by name.
    pub fn machine(&self, name: &str) -> Option<&MachineReport> {
        self.machines.iter().find(|m| m.name == name)
    }

    /// Total CPU / GPU across machines that host at least one service
    /// (utilization comparison across configurations).
    pub fn total_cpu_pct(&self) -> f64 {
        self.machines.iter().map(|m| m.cpu_pct).sum()
    }

    pub fn total_gpu_pct(&self) -> f64 {
        self.machines.iter().map(|m| m.gpu_pct).sum()
    }

    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{:?} n={} fps={:.1} succ={:.0}% e2e={:.1}ms jitter={:.2}ms",
            self.mode,
            self.clients,
            self.fps(),
            self.success_rate * 100.0,
            self.e2e_mean_ms(),
            self.jitter_ms
        )
    }
}
