//! Table 3's cost model: what ingesting a run costs the monitoring
//! infrastructure, priced from the two counters a
//! `MetricStore` already keeps (`point_count()`, `series_count()`).
//!
//! Every row is `points × constant` (the database adds `series × constant`),
//! so the *saving* between a full and a reduced run is one number — the share
//! of points (and series) dropped — printed four times. The constants only
//! put the absolute values in the order of magnitude of the paper's.
//!
//! The file imports nothing, so `tests/pipeline_integration.rs` includes it
//! by path instead of the umbrella crate growing a `sieve-bench` edge.

/// CPU seconds consumed per ingested point.
const CPU_S_PER_POINT: f64 = 25e-6;
/// Storage bytes per stored point (after compression).
const BYTES_PER_POINT: f64 = 12.0;
/// Fixed storage bytes per series (schema, index).
const BYTES_PER_SERIES: f64 = 600.0;
/// Network bytes into the store per ingested point (line protocol is more
/// verbose than the stored form).
const NETWORK_IN_BYTES_PER_POINT: f64 = 120.0;
/// Network bytes out of the store per point, each point read once by
/// dashboards/queries.
const NETWORK_OUT_BYTES_PER_POINT: f64 = 8.0;

/// The four rows of Table 3, as `(label, value)`, for an unbounded store
/// that accepted `points` points over `series` series.
pub fn monitoring_overhead(points: u64, series: usize) -> [(&'static str, f64); 4] {
    let (points, series) = (points as f64, series as f64);
    let kb = 1024.0;
    [
        ("CPU time [s]", points * CPU_S_PER_POINT),
        (
            "DB size [KB]",
            (points * BYTES_PER_POINT + series * BYTES_PER_SERIES) / kb,
        ),
        (
            "Network in [MB]",
            points * NETWORK_IN_BYTES_PER_POINT / (kb * kb),
        ),
        (
            "Network out [KB]",
            points * NETWORK_OUT_BYTES_PER_POINT / kb,
        ),
    ]
}
