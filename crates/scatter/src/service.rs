//! Per-instance service runtime state shared by both pipeline modes.
//!
//! scAtteR semantics: one frame at a time, arrivals at a busy service are
//! dropped, `sift` keeps per-frame state until `matching` fetches it (or
//! a timeout evicts it). scAtteR++ semantics: a [`Sidecar`] queues and
//! filters arrivals; `sift` keeps no state.

use std::collections::{HashMap, VecDeque};

use metrics::{Summary, TimeSeries};
use simcore::{SimDuration, SimTime};

use crate::message::{FrameMsg, ServiceKind};
use crate::sidecar::Sidecar;

/// A stored `sift` state entry awaiting `matching`'s fetch.
#[derive(Debug, Clone)]
pub struct StateEntry {
    pub stored_at: SimTime,
    pub bytes: usize,
}

/// Drop/loss accounting per service instance, split by cause.
#[derive(Debug, Clone, Copy, Default)]
pub struct DropCounters {
    /// scAtteR: arrived while the service was busy.
    pub busy: u64,
    /// scAtteR++: filtered by the sidecar staleness threshold.
    pub stale: u64,
    /// scAtteR: `matching` gave up waiting for `sift`'s features.
    pub fetch_timeout: u64,
    /// Requests that arrived while the instance was crashed/restarting.
    pub down: u64,
}

impl DropCounters {
    pub fn total(&self) -> u64 {
        self.busy + self.stale + self.fetch_timeout + self.down
    }
}

/// Runtime state of one deployed service instance.
pub struct SvcRuntime {
    pub kind: ServiceKind,
    /// Replica ordinal within its service.
    pub replica: usize,
    /// Machine index in the cluster.
    pub machine: usize,
    /// Busy until the in-flight frame completes (scAtteR gate; also used
    /// in scAtteR++ to know when to pull the next queued frame).
    pub busy: bool,
    /// Crashed: down until the orchestrator's restart completes.
    pub down_until: Option<SimTime>,
    /// In-flight execution generation — incremented on crash so stale
    /// completion events from before the crash are ignored.
    pub generation: u64,
    /// Sidecar queue (scAtteR++ only).
    pub sidecar: Option<Sidecar>,
    /// `sift` state store (scAtteR only), keyed by (client, frame).
    pub state_store: HashMap<(usize, u64), StateEntry>,
    /// Peak state-store footprint in bytes (memory reporting).
    pub peak_state_bytes: usize,
    /// Frames that arrived at this instance's ingress (fig. 8's per-
    /// service ingress FPS), with value 1.0 per arrival.
    pub ingress: TimeSeries,
    /// Drops at this instance over time (value 1.0 per drop).
    pub drops_over_time: TimeSeries,
    pub drops: DropCounters,
    /// Per-frame service latency (queue/GPU wait + compute), ms.
    pub service_latency_ms: Summary,
    /// EWMA of observed service latency, feeding the sidecar projection.
    pub ewma_service_ms: f64,
    /// Completed frame executions.
    pub processed: u64,
    /// `sift` only: feature-fetch requests served / dropped-while-busy.
    pub fetch_served: u64,
    pub fetch_dropped: u64,
    /// `matching` only: frame parked while its feature fetch is in
    /// flight, plus the timeout event to cancel on success and the
    /// instant the fetch was sent (start of the frame's fetch-wait span).
    pub pending_fetch: Option<(FrameMsg, simcore::EventId, SimTime)>,
    /// `sift` only: fetch requests waiting in the UDP socket buffer while
    /// the service is busy — tiny datagrams are buffered by the kernel,
    /// unlike full frames which the service-level drop policy rejects.
    /// Entries are `(matching slot, frame key)`.
    pub fetch_queue: VecDeque<(usize, (usize, u64))>,
    /// Streaming-metrics mode (DESIGN.md §14): arrivals/drops increment
    /// the counters below instead of appending to `ingress`/
    /// `drops_over_time`. Those two series grow by one entry per emitted
    /// frame — ≈48 MB per simulated second each at 100k clients — and
    /// are the dominant report memory at scale. `None` keeps the exact
    /// series (the legacy byte-identical path).
    pub streaming_window: Option<(SimTime, SimTime)>,
    /// Total ingress arrivals (whole run).
    pub ingress_total: u64,
    /// Ingress arrivals inside the measurement window `[start, end)`.
    pub ingress_in_window: u64,
    /// Drop *events* inside the window (one per `record_drop` call,
    /// mirroring `drops_over_time.window_count`).
    pub drop_events_in_window: u64,
}

impl SvcRuntime {
    pub fn new(
        kind: ServiceKind,
        replica: usize,
        machine: usize,
        sidecar: Option<Sidecar>,
    ) -> Self {
        SvcRuntime {
            kind,
            replica,
            machine,
            busy: false,
            down_until: None,
            generation: 0,
            sidecar,
            state_store: HashMap::new(),
            peak_state_bytes: 0,
            ingress: TimeSeries::new(),
            drops_over_time: TimeSeries::new(),
            drops: DropCounters::default(),
            service_latency_ms: Summary::new(),
            ewma_service_ms: 0.0,
            processed: 0,
            fetch_served: 0,
            fetch_dropped: 0,
            pending_fetch: None,
            fetch_queue: VecDeque::new(),
            streaming_window: None,
            ingress_total: 0,
            ingress_in_window: 0,
            drop_events_in_window: 0,
        }
    }

    /// Record an ingress arrival.
    pub fn record_ingress(&mut self, now: SimTime) {
        match self.streaming_window {
            None => self.ingress.push(now, 1.0),
            Some((start, end)) => {
                self.ingress_total += 1;
                if now >= start && now < end {
                    self.ingress_in_window += 1;
                }
            }
        }
    }

    pub fn record_drop(&mut self, now: SimTime) {
        match self.streaming_window {
            None => self.drops_over_time.push(now, 1.0),
            Some((start, end)) => {
                if now >= start && now < end {
                    self.drop_events_in_window += 1;
                }
            }
        }
    }

    /// Current `sift` state-store footprint in bytes.
    pub fn state_bytes(&self) -> usize {
        self.state_store.values().map(|e| e.bytes).sum()
    }

    /// Store a state entry, tracking the peak footprint.
    pub fn store_state(&mut self, key: (usize, u64), entry: StateEntry) {
        self.state_store.insert(key, entry);
        self.peak_state_bytes = self.peak_state_bytes.max(self.state_bytes());
    }

    /// Evict entries older than `timeout` at `now`; returns evicted count.
    pub fn evict_stale_state(&mut self, now: SimTime, timeout: SimDuration) -> usize {
        let before = self.state_store.len();
        self.state_store
            .retain(|_, e| now.saturating_since(e.stored_at) <= timeout);
        before - self.state_store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    fn rt() -> SvcRuntime {
        SvcRuntime::new(ServiceKind::Sift, 0, 0, None)
    }

    #[test]
    fn state_store_tracks_bytes_and_peak() {
        let mut s = rt();
        s.store_state(
            (0, 1),
            StateEntry {
                stored_at: SimTime::ZERO,
                bytes: 100,
            },
        );
        s.store_state(
            (0, 2),
            StateEntry {
                stored_at: SimTime::ZERO,
                bytes: 50,
            },
        );
        assert_eq!(s.state_bytes(), 150);
        s.state_store.remove(&(0, 1));
        assert_eq!(s.state_bytes(), 50);
        assert_eq!(s.peak_state_bytes, 150, "peak survives removal");
    }

    #[test]
    fn eviction_respects_timeout() {
        let mut s = rt();
        s.store_state(
            (0, 1),
            StateEntry {
                stored_at: SimTime::from_millis(0),
                bytes: 10,
            },
        );
        s.store_state(
            (0, 2),
            StateEntry {
                stored_at: SimTime::from_millis(900),
                bytes: 10,
            },
        );
        let evicted =
            s.evict_stale_state(SimTime::from_millis(1000), SimDuration::from_millis(500));
        assert_eq!(evicted, 1);
        assert!(s.state_store.contains_key(&(0, 2)));
    }

    #[test]
    fn drop_counters_total() {
        let d = DropCounters {
            busy: 2,
            stale: 3,
            fetch_timeout: 4,
            down: 1,
        };
        assert_eq!(d.total(), 10);
    }

    #[test]
    fn ingress_series_records_arrivals() {
        let mut s = rt();
        s.record_ingress(SimTime::from_millis(10));
        s.record_ingress(SimTime::from_millis(20));
        assert_eq!(s.ingress.len(), 2);
        let _ = FrameMsg::new(0, 0, NodeId(0), SimTime::ZERO, 1);
    }
}
