//! Timestamped sample series with windowed aggregation.
//!
//! Figures 8 and 12 of the paper plot per-service framerate and queue drop
//! ratio *over experiment time*; [`TimeSeries`] is the storage those plots
//! are regenerated from.

use serde::{Deserialize, Serialize};
use simcore::SimTime;

/// A series of `(time, value)` samples in non-decreasing time order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    times_ns: Vec<u64>,
    values: Vec<f64>,
}

impl TimeSeries {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample. Panics in debug builds if time goes backwards —
    /// simulation metrics are produced in event order, so a regression
    /// indicates a bug upstream.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&last) = self.times_ns.last() {
            debug_assert!(t.as_nanos() >= last, "TimeSeries time went backwards");
        }
        self.times_ns.push(t.as_nanos());
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times_ns
            .iter()
            .zip(&self.values)
            .map(|(&t, &v)| (SimTime::from_nanos(t), v))
    }

    /// Mean of all values (unweighted).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Count of events with `start <= t < end` (ignores values) — used to
    /// turn an arrival series into a rate.
    pub fn window_count(&self, start: SimTime, end: SimTime) -> usize {
        self.iter().filter(|&(t, _)| t >= start && t < end).count()
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn push_and_iterate() {
        let mut s = TimeSeries::new();
        s.push(t(1), 10.0);
        s.push(t(2), 20.0);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![(t(1), 10.0), (t(2), 20.0)]);
        assert_eq!(s.last(), Some(20.0));
    }
}
