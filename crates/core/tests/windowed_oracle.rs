//! The windowed-vs-unbounded oracle suite for the bounded-memory store.
//!
//! The unbounded `MetricStore` is the reference: these tests pin down
//! exactly when a ring-windowed store is allowed to change the analysis.
//!
//! * **Window fits retention → bit-identical models.** When every series'
//!   full history fits inside `raw_capacity`, nothing is ever evicted and
//!   the windowed store must produce a `SieveModel` equal to the oracle's,
//!   at every parallelism degree.
//! * **Window exceeds retention → deterministic, documented divergence.**
//!   Once points are evicted the pipeline analyses the retained tail. The
//!   result is *defined*, not arbitrary: it equals a from-scratch analysis
//!   of an unbounded store fed only the retained window, and it is
//!   reproducible bit for bit across runs and parallelism degrees.
//!
//! Case generation is deterministic splitmix64, like the simulator's
//! property suites (no `proptest` in the container).

use sieve_apps::{sharelatex, MetricRichness};
use sieve_core::{load_application_with_retention, RetentionPolicy, Sieve, SieveConfig};
use sieve_simulator::Workload;

const DURATION_MS: u64 = 40_000;
const INTERVAL_MS: u64 = 500;
/// Points per series the simulation emits: one per tick.
const POINTS: usize = (DURATION_MS / INTERVAL_MS) as usize;

fn config(parallelism: usize) -> SieveConfig {
    SieveConfig::default()
        .with_cluster_range(2, 3)
        .with_parallelism(parallelism)
}

/// Loads ShareLatex under the given retention and analyzes it.
fn model_with_retention(retention: RetentionPolicy, parallelism: usize) -> sieve_core::SieveModel {
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    let workload = Workload::randomized(80.0, 11);
    let (store, call_graph) =
        load_application_with_retention(&app, &workload, 7, DURATION_MS, INTERVAL_MS, retention)
            .expect("loading succeeds");
    Sieve::new(config(parallelism))
        .analyze("sharelatex", &store, &call_graph)
        .expect("analysis succeeds")
}

#[test]
fn ample_retention_is_bit_identical_to_the_unbounded_oracle() {
    let oracle = model_with_retention(RetentionPolicy::unbounded(), 1);
    // Capacity exactly the stream length and comfortably above it: both
    // retain everything, so the model must not move by a bit.
    for cap in [POINTS, POINTS + 37] {
        for parallelism in [1usize, 4, 8] {
            let windowed = model_with_retention(RetentionPolicy::windowed(cap), parallelism);
            assert_eq!(
                windowed, oracle,
                "cap {cap}, parallelism {parallelism}: no eviction may change the model"
            );
        }
    }
}

#[test]
fn tight_retention_diverges_deterministically_to_the_tail_analysis() {
    let cap = POINTS / 2;
    let oracle = model_with_retention(RetentionPolicy::unbounded(), 1);
    let windowed = model_with_retention(RetentionPolicy::windowed(cap), 1);
    assert_ne!(
        windowed.clusterings, oracle.clusterings,
        "half the history was evicted; the clusterings must reflect the tail"
    );

    // The divergence is *defined*: the windowed model equals a from-scratch
    // analysis of an unbounded store containing only the retained window...
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    let workload = Workload::randomized(80.0, 11);
    let (windowed_store, call_graph) = load_application_with_retention(
        &app,
        &workload,
        7,
        DURATION_MS,
        INTERVAL_MS,
        RetentionPolicy::windowed(cap),
    )
    .unwrap();
    let tail_store = sieve_simulator::store::MetricStore::new();
    for (id, series) in windowed_store.export() {
        let (timestamps, values) = series.into_parts();
        for (t, v) in timestamps.into_iter().zip(values) {
            tail_store.record(&id, t, v);
        }
    }
    let tail_model = Sieve::new(config(1))
        .analyze("sharelatex", &tail_store, &call_graph)
        .unwrap();
    assert_eq!(
        windowed, tail_model,
        "the windowed model is exactly the analysis of the retained tail"
    );

    // ...and it is stable across parallelism degrees and repeated runs.
    for parallelism in [4usize, 8] {
        let again = model_with_retention(RetentionPolicy::windowed(cap), parallelism);
        assert_eq!(
            again, windowed,
            "parallelism {parallelism} diverges identically"
        );
    }
}
