use std::fmt;

/// Errors produced by time-series operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TimeSeriesError {
    /// The operation requires a non-empty series.
    Empty,
    /// Two series were expected to have the same length.
    LengthMismatch {
        /// Length of the first operand.
        left: usize,
        /// Length of the second operand.
        right: usize,
    },
    /// Timestamps and values have different lengths.
    MalformedSeries {
        /// Number of timestamps provided.
        timestamps: usize,
        /// Number of values provided.
        values: usize,
    },
    /// Timestamps must be strictly increasing.
    UnsortedTimestamps {
        /// Index at which the ordering is violated.
        index: usize,
    },
    /// The operation requires at least `required` observations.
    TooFewObservations {
        /// Observations required.
        required: usize,
        /// Observations available.
        actual: usize,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A value was not finite (NaN or infinite) where finiteness is required.
    NonFiniteValue {
        /// Index of the offending value.
        index: usize,
    },
    /// Timestamps `index - 1` and `index` are strictly increasing as
    /// integers but equal as `f64` (possible from 2⁵³ ms on), so a spline
    /// through them has no segment between them.
    IndistinctTimestamps {
        /// Index of the second of the two timestamps.
        index: usize,
    },
    /// The grid of `interval_ms` that covers an observation at `last_ms`
    /// would need a grid point past `u64::MAX`.
    GridOverflow {
        /// The last observation's timestamp.
        last_ms: u64,
        /// The grid interval.
        interval_ms: u64,
    },
    /// The grid covering a window has more points than can be allocated
    /// (two observations far apart on a fine grid).
    GridTooLarge {
        /// Points in the grid.
        points: usize,
    },
}

impl fmt::Display for TimeSeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeSeriesError::Empty => write!(f, "operation requires a non-empty time series"),
            TimeSeriesError::LengthMismatch { left, right } => {
                write!(f, "series length mismatch: {left} vs {right}")
            }
            TimeSeriesError::MalformedSeries { timestamps, values } => write!(
                f,
                "malformed series: {timestamps} timestamps but {values} values"
            ),
            TimeSeriesError::UnsortedTimestamps { index } => {
                write!(f, "timestamps are not strictly increasing at index {index}")
            }
            TimeSeriesError::TooFewObservations { required, actual } => {
                write!(f, "too few observations: required {required}, got {actual}")
            }
            TimeSeriesError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            TimeSeriesError::NonFiniteValue { index } => {
                write!(f, "non-finite value at index {index}")
            }
            TimeSeriesError::IndistinctTimestamps { index } => write!(
                f,
                "the timestamp at index {index} equals its predecessor as f64"
            ),
            TimeSeriesError::GridOverflow {
                last_ms,
                interval_ms,
            } => write!(
                f,
                "a {interval_ms} ms grid covering the observation at {last_ms} ms passes u64::MAX"
            ),
            TimeSeriesError::GridTooLarge { points } => {
                write!(f, "a grid of {points} points cannot be allocated")
            }
        }
    }
}

impl std::error::Error for TimeSeriesError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants = vec![
            TimeSeriesError::Empty,
            TimeSeriesError::LengthMismatch { left: 1, right: 2 },
            TimeSeriesError::MalformedSeries {
                timestamps: 3,
                values: 4,
            },
            TimeSeriesError::UnsortedTimestamps { index: 5 },
            TimeSeriesError::TooFewObservations {
                required: 10,
                actual: 2,
            },
            TimeSeriesError::InvalidParameter {
                name: "k",
                reason: "must be positive".to_string(),
            },
            TimeSeriesError::NonFiniteValue { index: 0 },
            TimeSeriesError::IndistinctTimestamps { index: 1 },
            TimeSeriesError::GridOverflow {
                last_ms: u64::MAX,
                interval_ms: 500,
            },
            TimeSeriesError::GridTooLarge { points: usize::MAX },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<TimeSeriesError>();
    }
}
