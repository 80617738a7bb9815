//! The [`TimeSeries`] container: timestamped observations of one metric.

use crate::{Result, TimeSeriesError};

/// A single metric's observations over time.
///
/// Timestamps are stored in milliseconds since an arbitrary epoch (the start
/// of a measurement run in the Sieve pipeline) and are strictly increasing.
/// Values are `f64` samples of the metric at those instants.
///
/// # Example
///
/// ```
/// use sieve_timeseries::TimeSeries;
///
/// let ts = TimeSeries::from_values(0, 1000, vec![1.0, 2.0, 3.0]);
/// assert_eq!(ts.len(), 3);
/// assert_eq!(ts.timestamps(), &[0, 1000, 2000]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    timestamps_ms: Vec<u64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Creates a series from parallel vectors of timestamps and values.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::MalformedSeries`] if the vectors have
    /// different lengths and [`TimeSeriesError::UnsortedTimestamps`] if the
    /// timestamps are not strictly increasing.
    pub fn from_parts(timestamps_ms: Vec<u64>, values: Vec<f64>) -> Result<Self> {
        if timestamps_ms.len() != values.len() {
            return Err(TimeSeriesError::MalformedSeries {
                timestamps: timestamps_ms.len(),
                values: values.len(),
            });
        }
        for i in 1..timestamps_ms.len() {
            if timestamps_ms[i] <= timestamps_ms[i - 1] {
                return Err(TimeSeriesError::UnsortedTimestamps { index: i });
            }
        }
        Ok(Self {
            timestamps_ms,
            values,
        })
    }

    /// Creates a regularly sampled series starting at `start_ms` with a fixed
    /// `interval_ms` between consecutive observations.
    ///
    /// # Panics
    ///
    /// Panics if `interval_ms` is zero.
    pub fn from_values(start_ms: u64, interval_ms: u64, values: Vec<f64>) -> Self {
        assert!(interval_ms > 0, "interval_ms must be positive");
        let timestamps_ms = (0..values.len() as u64)
            .map(|i| start_ms + i * interval_ms)
            .collect();
        Self {
            timestamps_ms,
            values,
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series has no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The observation timestamps in milliseconds.
    pub fn timestamps(&self) -> &[u64] {
        &self.timestamps_ms
    }

    /// The observation values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the series and returns `(timestamps, values)`.
    pub fn into_parts(self) -> (Vec<u64>, Vec<f64>) {
        (self.timestamps_ms, self.values)
    }

    /// Appends an observation.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::UnsortedTimestamps`] if `timestamp_ms` is
    /// not greater than the last timestamp already in the series.
    pub(crate) fn push(&mut self, timestamp_ms: u64, value: f64) -> Result<()> {
        if let Some(&last) = self.timestamps_ms.last() {
            if timestamp_ms <= last {
                return Err(TimeSeriesError::UnsortedTimestamps {
                    index: self.timestamps_ms.len(),
                });
            }
        }
        self.timestamps_ms.push(timestamp_ms);
        self.values.push(value);
        Ok(())
    }

    /// Iterator over `(timestamp_ms, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.timestamps_ms
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// First timestamp, if any.
    pub fn start_ms(&self) -> Option<u64> {
        self.timestamps_ms.first().copied()
    }

    /// Last timestamp, if any.
    pub fn end_ms(&self) -> Option<u64> {
        self.timestamps_ms.last().copied()
    }

    /// Total covered duration in milliseconds (zero for < 2 points).
    #[cfg(test)]
    pub(crate) fn duration_ms(&self) -> u64 {
        match (self.start_ms(), self.end_ms()) {
            (Some(s), Some(e)) => e - s,
            _ => 0,
        }
    }

    /// Returns the sub-series with timestamps in `[from_ms, to_ms)`.
    #[cfg(test)]
    pub(crate) fn window(&self, from_ms: u64, to_ms: u64) -> TimeSeries {
        let mut timestamps = Vec::new();
        let mut values = Vec::new();
        for (t, v) in self.iter() {
            if t >= from_ms && t < to_ms {
                timestamps.push(t);
                values.push(v);
            }
        }
        TimeSeries {
            timestamps_ms: timestamps,
            values,
        }
    }

    /// Returns a new series with the same timestamps and values transformed
    /// by `f`.
    #[cfg(test)]
    pub(crate) fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> TimeSeries {
        TimeSeries {
            timestamps_ms: self.timestamps_ms.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }
}

/// A borrowed, zero-copy view of a contiguous run of observations:
/// parallel slices of strictly increasing timestamps and their values.
///
/// Views are what the bounded-memory metric store hands to its visitors:
/// a windowed series keeps its *retained window* as a contiguous region
/// of a larger backing buffer, and a `SeriesView` borrows exactly that
/// region — no copy, no allocation. Everything downstream of the store
/// (series preparation, resampling, the autoscaler's metric polling)
/// consumes views, so the same code path serves bounded and unbounded
/// stores alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesView<'a> {
    timestamps_ms: &'a [u64],
    values: &'a [f64],
}

impl<'a> SeriesView<'a> {
    /// Creates a view over parallel timestamp/value slices.
    ///
    /// The timestamps must be strictly increasing — the invariant every
    /// [`TimeSeries`] and every store window already upholds; only the
    /// lengths are checked here.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn new(timestamps_ms: &'a [u64], values: &'a [f64]) -> Self {
        assert_eq!(
            timestamps_ms.len(),
            values.len(),
            "timestamp and value slices must be parallel"
        );
        Self {
            timestamps_ms,
            values,
        }
    }

    /// Number of observations in the view.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the view holds no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The viewed timestamps in milliseconds.
    pub(crate) fn timestamps(&self) -> &'a [u64] {
        self.timestamps_ms
    }

    /// The viewed values.
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Iterator over `(timestamp_ms, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + 'a {
        self.timestamps_ms
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// First timestamp, if any.
    pub(crate) fn start_ms(&self) -> Option<u64> {
        self.timestamps_ms.first().copied()
    }

    /// Last timestamp, if any.
    pub fn end_ms(&self) -> Option<u64> {
        self.timestamps_ms.last().copied()
    }

    /// Copies the viewed window into an owned [`TimeSeries`].
    pub fn to_series(&self) -> TimeSeries {
        TimeSeries {
            timestamps_ms: self.timestamps_ms.to_vec(),
            values: self.values.to_vec(),
        }
    }
}

impl TimeSeries {
    /// A zero-copy view of the whole series.
    pub(crate) fn view(&self) -> SeriesView<'_> {
        SeriesView {
            timestamps_ms: &self.timestamps_ms,
            values: &self.values,
        }
    }
}

impl<'a> From<&'a TimeSeries> for SeriesView<'a> {
    fn from(series: &'a TimeSeries) -> Self {
        series.view()
    }
}

impl FromIterator<(u64, f64)> for TimeSeries {
    /// Builds a series from `(timestamp, value)` pairs.
    ///
    /// Pairs must already be sorted by strictly increasing timestamp;
    /// out-of-order pairs are dropped.
    fn from_iter<I: IntoIterator<Item = (u64, f64)>>(iter: I) -> Self {
        let mut ts = TimeSeries::new();
        for (t, v) in iter {
            let _ = ts.push(t, v);
        }
        ts
    }
}

impl Extend<(u64, f64)> for TimeSeries {
    fn extend<I: IntoIterator<Item = (u64, f64)>>(&mut self, iter: I) {
        for (t, v) in iter {
            let _ = self.push(t, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_builds_regular_grid() {
        let ts = TimeSeries::from_values(100, 500, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ts.timestamps(), &[100, 600, 1100, 1600]);
        assert_eq!(ts.duration_ms(), 1500);
    }

    #[test]
    fn from_parts_rejects_length_mismatch() {
        let err = TimeSeries::from_parts(vec![0, 1], vec![1.0]).unwrap_err();
        assert!(matches!(err, TimeSeriesError::MalformedSeries { .. }));
    }

    #[test]
    fn from_parts_rejects_unsorted_timestamps() {
        let err = TimeSeries::from_parts(vec![0, 5, 5], vec![1.0, 2.0, 3.0]).unwrap_err();
        assert_eq!(err, TimeSeriesError::UnsortedTimestamps { index: 2 });
    }

    #[test]
    fn push_enforces_monotonicity() {
        let mut ts = TimeSeries::new();
        ts.push(10, 1.0).unwrap();
        assert!(ts.push(10, 2.0).is_err());
        assert!(ts.push(11, 2.0).is_ok());
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn window_selects_half_open_range() {
        let ts = TimeSeries::from_values(0, 100, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let w = ts.window(100, 300);
        assert_eq!(w.values(), &[1.0, 2.0]);
        assert_eq!(w.timestamps(), &[100, 200]);
    }

    #[test]
    fn map_preserves_timestamps() {
        let ts = TimeSeries::from_values(0, 100, vec![1.0, 2.0]);
        let doubled = ts.map(|v| v * 2.0);
        assert_eq!(doubled.values(), &[2.0, 4.0]);
        assert_eq!(doubled.timestamps(), ts.timestamps());
    }

    #[test]
    fn from_iterator_drops_out_of_order_pairs() {
        let ts: TimeSeries = vec![(0, 1.0), (5, 2.0), (3, 9.0), (10, 3.0)]
            .into_iter()
            .collect();
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_series_has_zero_duration() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty());
        assert_eq!(ts.duration_ms(), 0);
        assert_eq!(ts.start_ms(), None);
    }
}
