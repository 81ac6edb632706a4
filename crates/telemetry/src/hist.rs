//! Log-linear bucketed histogram with a wait-free record path.
//!
//! The HDR-histogram idea: divide the value range into power-of-two
//! "octaves" and each octave into `2^p` linear sub-buckets. The bucket
//! index of a value is then a pure bit computation (a `leading_zeros`
//! and two shifts — no search, no floating-point log), and the relative
//! width of every bucket is at most `2^-p`, so any quantile read from
//! bucket midpoints carries at most `2^-(p+1)` relative error from
//! bucketing.
//!
//! Values are recorded in fixed-point *units* (the constructors choose
//! microseconds for millisecond-scale latencies), the per-bucket counts
//! are relaxed atomics (`fetch_add` — wait-free on x86/aarch64), and the
//! exact sum is kept in integer units so the mean is not subject to
//! bucketing error at all. This is what lets the real UDP runtime record
//! on its service hot loops and still reconcile against the exact
//! post-hoc `metrics::Summary` aggregates at ≤1% relative error.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-bucket precision: `2^p` linear sub-buckets per octave.
/// `p = 8` bounds the relative bucket width by `2^-8 ≈ 0.39%`.
const GROUPING_BITS: u32 = 8;

/// Highest representable power: values at or above `2^MAX_POW` units go
/// to the overflow bin. With microsecond units this is ~36 minutes.
const MAX_POW: u32 = 31;

/// Total bucket count for the log-linear layout.
const N_BUCKETS: usize = ((MAX_POW - GROUPING_BITS + 1) as usize) << GROUPING_BITS;

/// Bucket index of a value in units. Wait-free: no branches besides the
/// linear-region test, no loops.
#[inline]
fn bucket_index(u: u64) -> usize {
    let p = GROUPING_BITS;
    if u < (1 << p) {
        return u as usize;
    }
    let h = 63 - u.leading_zeros(); // highest set bit, >= p
    (((h - p + 1) as u64 * (1 << p)) + ((u >> (h - p)) - (1 << p))) as usize
}

/// Inclusive-exclusive `[lower, upper)` bounds of bucket `idx`, in units.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let p = GROUPING_BITS;
    let idx = idx as u64;
    if idx < (1 << p) {
        return (idx, idx + 1);
    }
    let octave = idx >> p; // >= 1
    let sub = idx & ((1 << p) - 1);
    let shift = octave - 1;
    let lower = ((1 << p) + sub) << shift;
    let width = 1u64 << shift;
    (lower, lower + width)
}

/// Shared core: one atomic per bucket plus exact count/sum.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    /// Units per recorded value of 1.0 (e.g. 1000 units/ms = µs units).
    units_per_value: f64,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Exact sum in units — the mean carries no bucketing error.
    sum_units: AtomicU64,
    overflow: AtomicU64,
}

impl HistogramCore {
    pub fn new_latency_ms() -> HistogramCore {
        HistogramCore {
            units_per_value: 1_000.0, // record ms, bucket in µs
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_units: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record(&self, value: f64) {
        if !value.is_finite() || value < 0.0 {
            return;
        }
        let u = (value * self.units_per_value).round() as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_units.fetch_add(u, Ordering::Relaxed);
        if u >= (1 << MAX_POW) {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        } else {
            self.buckets[bucket_index(u)].fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: Vec<(u32, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        HistSnapshot {
            units_per_value: self.units_per_value,
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_units: self.sum_units.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
        }
    }
}

/// A histogram handle. Cloning shares the core; `record` is wait-free.
#[derive(Debug, Clone)]
pub struct Histogram(pub(crate) Arc<HistogramCore>);

impl Histogram {
    /// A free-standing histogram for millisecond-scale latencies
    /// (µs-unit buckets, overflow above ~36 minutes).
    pub fn detached_latency_ms() -> Histogram {
        Histogram(Arc::new(HistogramCore::new_latency_ms()))
    }

    #[inline]
    pub fn record(&self, value: f64) {
        self.0.record(value);
    }

    pub fn snapshot(&self) -> HistSnapshot {
        self.0.snapshot()
    }
}

/// An owned, sparse point-in-time view of a histogram: only non-empty
/// buckets are materialized. Mergeable and subtractable (windowing).
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    units_per_value: f64,
    /// `(bucket index, count)`, ascending by index.
    buckets: Vec<(u32, u64)>,
    count: u64,
    sum_units: u64,
    overflow: u64,
}

impl HistSnapshot {
    /// An empty snapshot with the millisecond-latency configuration.
    pub fn empty_latency_ms() -> HistSnapshot {
        HistSnapshot {
            units_per_value: 1_000.0,
            buckets: Vec::new(),
            count: 0,
            sum_units: 0,
            overflow: 0,
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of recorded values (fixed-point rounding only).
    pub fn sum(&self) -> f64 {
        self.sum_units as f64 / self.units_per_value
    }

    /// Exact mean (no bucketing error).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }

    /// Quantile by nearest rank over bucket midpoints; relative error is
    /// bounded by half the bucket width, `2^-9 ≈ 0.2%`. Overflow mass
    /// reports the overflow threshold.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= target {
                let (lo, hi) = bucket_bounds(idx as usize);
                return (lo + hi) as f64 / 2.0 / self.units_per_value;
            }
        }
        // Landed in overflow.
        (1u64 << MAX_POW) as f64 / self.units_per_value
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Fraction of recorded values strictly above `threshold` (up to one
    /// bucket width of attribution error at the boundary).
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let t_units = (threshold * self.units_per_value).round() as u64;
        let mut above = self.overflow;
        for &(idx, n) in &self.buckets {
            let (lo, _) = bucket_bounds(idx as usize);
            if lo >= t_units {
                above += n;
            }
        }
        above as f64 / self.count as f64
    }

    /// Merge another snapshot of identical configuration.
    pub fn merge(&mut self, other: &HistSnapshot) {
        assert_eq!(
            self.units_per_value, other.units_per_value,
            "config mismatch"
        );
        self.buckets = merge_sparse(&self.buckets, &other.buckets, u64::checked_add);
        self.count += other.count;
        self.sum_units += other.sum_units;
        self.overflow += other.overflow;
    }

    /// The window `later − earlier` for two snapshots of one histogram
    /// (counts are monotone, so per-bucket subtraction is exact).
    pub fn delta(earlier: &HistSnapshot, later: &HistSnapshot) -> HistSnapshot {
        assert_eq!(
            earlier.units_per_value, later.units_per_value,
            "config mismatch"
        );
        // later − earlier, saturating per bucket (robust to series resets).
        let negated: Vec<(u32, u64)> = earlier.buckets.clone();
        let buckets = merge_sparse(&later.buckets, &negated, |a, b| Some(a.saturating_sub(b)))
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .collect();
        HistSnapshot {
            units_per_value: later.units_per_value,
            buckets,
            count: later.count.saturating_sub(earlier.count),
            sum_units: later.sum_units.saturating_sub(earlier.sum_units),
            overflow: later.overflow.saturating_sub(earlier.overflow),
        }
    }

    /// Cumulative `(upper bound, cumulative count)` pairs over non-empty
    /// buckets — the Prometheus `_bucket{le=…}` series (without `+Inf`).
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut seen = 0u64;
        self.buckets
            .iter()
            .map(|&(idx, n)| {
                seen += n;
                let (_, hi) = bucket_bounds(idx as usize);
                (hi as f64 / self.units_per_value, seen)
            })
            .collect()
    }

    /// Expand into per-sample bucket midpoints — the bridge to the exact
    /// `metrics`-style summaries for reconciliation tests. Intended
    /// for test-sized populations; the expansion is `count()` long.
    pub fn midpoint_samples(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.count as usize);
        for &(idx, n) in &self.buckets {
            let (lo, hi) = bucket_bounds(idx as usize);
            let mid = (lo + hi) as f64 / 2.0 / self.units_per_value;
            out.extend(std::iter::repeat_n(mid, n as usize));
        }
        out.extend(std::iter::repeat_n(
            (1u64 << MAX_POW) as f64 / self.units_per_value,
            self.overflow as usize,
        ));
        out
    }

    /// Maximum relative half-width of any bucket — the bucketing error
    /// bound for quantiles ([`HistSnapshot::quantile`] docs).
    pub fn relative_error_bound() -> f64 {
        1.0 / ((1u64 << (GROUPING_BITS + 1)) as f64)
    }

    /// Absolute width of the bucket containing `value`, in value units —
    /// "within one bucket width" for agreement tests.
    pub fn bucket_width_at(&self, value: f64) -> f64 {
        let u = (value * self.units_per_value).round() as u64;
        if u >= (1 << MAX_POW) {
            return f64::INFINITY;
        }
        let (lo, hi) = bucket_bounds(bucket_index(u));
        (hi - lo) as f64 / self.units_per_value
    }
}

/// Merge two sparse `(index, count)` lists with `op(a, b)`; indices
/// present in only one list combine with an implicit 0.
fn merge_sparse<F>(a: &[(u32, u64)], b: &[(u32, u64)], op: F) -> Vec<(u32, u64)>
where
    F: Fn(u64, u64) -> Option<u64>,
{
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let (idx, va, vb) = match (a.get(i), b.get(j)) {
            (Some(&(ia, na)), Some(&(ib, nb))) => {
                if ia < ib {
                    i += 1;
                    (ia, na, 0)
                } else if ib < ia {
                    j += 1;
                    (ib, 0, nb)
                } else {
                    i += 1;
                    j += 1;
                    (ia, na, nb)
                }
            }
            (Some(&(ia, na)), None) => {
                i += 1;
                (ia, na, 0)
            }
            (None, Some(&(ib, nb))) => {
                j += 1;
                (ib, 0, nb)
            }
            (None, None) => unreachable!(),
        };
        out.push((idx, op(va, vb).expect("bucket count overflow")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        let mut last = 0usize;
        // Dense low range plus samples across every octave, ascending.
        let mut samples: Vec<u64> = (0u64..5_000)
            .chain((0..60).map(|k| (1u64 << 12) + k * 77_777))
            .collect();
        samples.sort_unstable();
        for u in samples {
            let idx = bucket_index(u);
            assert!(idx >= last, "index went backwards at {u}");
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= u && u < hi, "u={u} outside bucket [{lo},{hi})");
            last = idx;
        }
    }

    #[test]
    fn bounds_tile_the_range() {
        for idx in 0..N_BUCKETS - 1 {
            let (_, hi) = bucket_bounds(idx);
            let (lo2, _) = bucket_bounds(idx + 1);
            assert_eq!(hi, lo2, "gap between buckets {idx} and {}", idx + 1);
        }
        let (_, top) = bucket_bounds(N_BUCKETS - 1);
        assert_eq!(top, 1 << MAX_POW);
    }

    #[test]
    fn relative_width_is_bounded() {
        for idx in 256..N_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            let rel = (hi - lo) as f64 / lo as f64;
            assert!(rel <= 1.0 / 256.0 + 1e-12, "bucket {idx} rel width {rel}");
        }
    }

    #[test]
    fn mean_is_exact_and_quantile_tight() {
        let h = Histogram::detached_latency_ms();
        for i in 1..=1000 {
            h.record(i as f64 * 0.1); // 0.1 .. 100.0 ms
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert!((s.mean() - 50.05).abs() < 1e-3, "mean {}", s.mean());
        let p95 = s.p95();
        assert!((p95 - 95.0).abs() / 95.0 < 0.005, "p95 {p95}");
        let med = s.median();
        assert!((med - 50.0).abs() / 50.0 < 0.005, "median {med}");
    }

    #[test]
    fn rejects_garbage_counts_overflow() {
        let h = Histogram::detached_latency_ms();
        h.record(f64::NAN);
        h.record(-1.0);
        assert_eq!(h.snapshot().count(), 0);
        h.record(1e12); // way past the 36-minute cap
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert!(
            s.quantile(0.5) >= 2e6,
            "overflow quantile {}",
            s.quantile(0.5)
        );
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::detached_latency_ms();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000 {
                        h.record((t * 10_000 + i) as f64 / 100.0);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 40_000);
    }

    #[test]
    fn delta_windows_counts() {
        let h = Histogram::detached_latency_ms();
        h.record(10.0);
        h.record(20.0);
        let early = h.snapshot();
        h.record(30.0);
        h.record(40.0);
        let late = h.snapshot();
        let win = HistSnapshot::delta(&early, &late);
        assert_eq!(win.count(), 2);
        assert!(
            (win.mean() - 35.0).abs() < 0.01,
            "window mean {}",
            win.mean()
        );
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::detached_latency_ms();
        let b = Histogram::detached_latency_ms();
        a.record(1.0);
        b.record(100.0);
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        assert_eq!(sa.count(), 2);
        assert!((sa.mean() - 50.5).abs() < 0.01);
    }

    #[test]
    fn fraction_above_threshold() {
        let h = Histogram::detached_latency_ms();
        for v in [50.0, 90.0, 110.0, 150.0] {
            h.record(v);
        }
        let f = h.snapshot().fraction_above(100.0);
        assert!((f - 0.5).abs() < 0.01, "fraction {f}");
    }

    #[test]
    fn cumulative_is_monotone() {
        let h = Histogram::detached_latency_ms();
        for i in 0..100 {
            h.record(i as f64);
        }
        let cum = h.snapshot().cumulative();
        assert!(!cum.is_empty());
        for w in cum.windows(2) {
            assert!(w[0].0 < w[1].0, "le bounds must ascend");
            assert!(w[0].1 <= w[1].1, "cumulative counts must ascend");
        }
        assert_eq!(cum.last().unwrap().1, 100);
    }
}
