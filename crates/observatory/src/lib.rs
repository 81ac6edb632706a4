//! # observatory — seeing a million-client run without paying for it
//!
//! PR 7 scaled the DES to 100k–1M simulated clients; at that size the
//! original observability planes stop being observers and start being
//! the bottleneck: blanket 1-in-N head-sampled tracing keeps O(clients)
//! span buffers, and "log everything, grep later" is not an option when
//! a run executes millions of events per second. This crate holds the
//! three instruments that replace them, shared by the DES and the real
//! UDP runtime:
//!
//! - [`tail`] — **tail-sampled tracing**: every frame is traced while in
//!   flight, but only *interesting* frames (dropped, SLO-violating,
//!   crash-adjacent, or deterministic-reservoir survivors) are retained
//!   when their fate is known. Memory is bounded by frames in flight,
//!   not frames emitted; retention is a pure function of the seed and
//!   the event stream, so retained sets are bit-identical across reruns.
//! - [`flight`] — an **anomaly-triggered flight recorder**: fixed-size
//!   lock-free rings of recent structured control-plane events, dumped
//!   as deterministic JSON when a crash, a detector suspicion, or an
//!   SLO burn-rate alert fires. Post-hoc forensics without always-on
//!   logging.
//! - [`profile`] — an **always-on self-profiler**: sampled (1-in-2^k)
//!   wall-clock phase timers over the hot loops, cheap enough to leave
//!   enabled (unsampled cost: one increment and a mask test), exported
//!   as folded-stack flamegraph text and `telemetry` histograms.
//! - [`sink`] — the DES-side recording facade: one type that is either
//!   the legacy head-sampling `trace::Tracer`, the tail sampler, or
//!   inert, so the simulation's record sites stay identical in all
//!   three modes.

pub mod flight;
pub mod profile;
pub mod sink;
pub mod tail;

pub use flight::{FlightDump, FlightEvent, FlightRecorder};
pub use profile::{AtomicPhaseProf, PhaseProfiler, PhaseStat, ProfSnapshot};
pub use sink::DesSink;
pub use tail::{Retain, TailConfig, TailSampler, TailStats};

/// Everything the observatory plane is configured by — carried on the
/// run config (DES) or the runtime options. `Default` is the shape the
/// gates run with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservatoryConfig {
    pub tail: TailConfig,
    /// Flight-recorder ring capacity (events per ring).
    pub flight_cap: usize,
    /// Profiler sampling shift: time 1 event in `2^shift`.
    pub prof_shift: u32,
}

impl Default for ObservatoryConfig {
    fn default() -> Self {
        ObservatoryConfig {
            tail: TailConfig::default(),
            flight_cap: 256,
            prof_shift: 7,
        }
    }
}

impl ObservatoryConfig {
    pub fn with_reservoir(mut self, one_in: u64) -> Self {
        self.tail.reservoir_1_in = one_in.max(1);
        self
    }

    pub fn with_flight_cap(mut self, cap: usize) -> Self {
        self.flight_cap = cap.max(1);
        self
    }
}
