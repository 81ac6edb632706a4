//! # telemetry — the live metrics plane
//!
//! The paper's contribution is a *characterization*: FPS, end-to-end
//! latency, per-service latency, jitter, and CPU/memory utilization
//! sampled continuously while clients scale. The sibling crates compute
//! those numbers *post hoc* (`metrics` summaries inside a finished
//! `RunReport`); this crate is the *live* counterpart a production
//! deployment would actually scrape:
//!
//! - [`Registry`]: a lock-free metrics registry. Handle acquisition
//!   (`counter`/`gauge`/`histogram`) takes a short registration lock
//!   once; the **record path is wait-free** — sharded atomic adds for
//!   [`Counter`], a single atomic store for [`Gauge`], and one indexed
//!   atomic increment for [`Histogram`].
//! - [`Histogram`]: HDR-style **log-linear** buckets — 2^p linear
//!   sub-buckets per power-of-two range, giving a fixed relative error
//!   of `2^-p` with a branch-free index computation (two shifts and a
//!   `leading_zeros`). Mergeable and snapshot-delta-able.
//! - [`Labels`]: typed label sets (`service`, `replica`, `machine`,
//!   `reason`, `plane`) so series identity is structural, not stringly.
//! - [`prom`]: Prometheus text-format exposition (plus a tiny parser
//!   used by round-trip tests and the verify gate).
//! - [`Snapshot`] / [`Snapshot::delta`]: point-in-time scrapes and the
//!   windowed view between two scrapes — counters and histogram buckets
//!   subtract, gauges take the later value.
//! - [`SloTracker`]: rolling p50/p95/p99 plus multi-window burn rate
//!   against a latency objective (the paper's 100 ms threshold),
//!   emitting structured [`SloEvent`]s on alert transitions.
//!
//! Both execution planes use it: the DES world records through it while
//! simulating (an observer — no RNG, no feedback into the simulation),
//! and the real UDP runtime's service threads record on their hot loops
//! (where the wait-free path matters). `experiments --bin telemetry`
//! reconciles the two planes' live histograms against the post-hoc
//! `RunReport` aggregates at ≤1% relative error.

pub mod hist;
pub mod label;
pub mod metric;
pub mod prom;
pub mod registry;
pub mod slo;
pub mod snapshot;

pub use hist::{HistSnapshot, Histogram};
pub use label::Labels;
pub use metric::{Counter, Gauge};
pub use registry::{MetricKind, Registry};
pub use slo::{SloConfig, SloEvent, SloEventKind, SloTracker};
pub use snapshot::{SeriesValue, Snapshot};
