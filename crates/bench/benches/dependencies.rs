//! Benchmark of the dependency-identification stage (step 3): the shared
//! causality engine (prepared per-series state, memoized restricted fits)
//! against the per-pair Granger oracle, on the same recorded data and
//! precomputed clusterings — plus the full-model equality assertions
//! against `oracle::analyze` across executor degrees.
//!
//! Run with: `cargo bench -p sieve-bench --bench dependencies`
//!
//! `SIEVE_BENCH_SMOKE=1` (used by CI) shrinks the workload and skips the
//! wall-clock assertion while keeping every model-equality assertion.

use sieve_apps::{sharelatex, MetricRichness};
use sieve_bench::harness::{smoke_mode, Runner};
use sieve_bench::ledger::Ledger;
use sieve_core::config::SieveConfig;
use sieve_core::dependencies::identify_dependencies;
use sieve_core::oracle;
use sieve_core::pipeline::{load_application, Sieve};
use sieve_simulator::workload::Workload;
use std::hint::black_box;

fn main() {
    let mut runner = Runner::new();
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    let duration = if smoke_mode() { 30_000 } else { 120_000 };
    let (store, call_graph) =
        load_application(&app, &Workload::randomized(70.0, 3), 5, duration, 500).unwrap();

    // Isolate the stage: the prepared series and the clusterings are
    // computed once outside the timed region, parallelism = 1 so the
    // comparison is purely algorithmic — the engine must win on cached
    // ADF/differencing/restricted-fit reuse alone, not on threads.
    let config = SieveConfig::default().with_parallelism(1);

    // Full-`SieveModel` equality: the engines and the executor must not
    // change a bit of the output at any degree.
    let model = oracle::analyze("sharelatex", &store, &call_graph, &config).unwrap();
    for parallelism in [1usize, 4, 8] {
        let sieve = Sieve::new(config.clone().with_parallelism(parallelism));
        assert_eq!(
            sieve.analyze("sharelatex", &store, &call_graph).unwrap(),
            model,
            "engines and parallelism {parallelism} must not change the model"
        );
    }

    let prepared = Sieve::new(config.clone()).prepare(&store);
    let clusterings = model.clusterings;

    let cached_graph =
        identify_dependencies(&prepared, &clusterings, &call_graph, &config).unwrap();
    let naive_graph =
        oracle::identify_dependencies(&prepared, &clusterings, &call_graph, &config).unwrap();
    assert_eq!(
        cached_graph, naive_graph,
        "cached and naive dependency stages must produce identical graphs"
    );
    assert!(
        cached_graph.edge_count() > 0,
        "the workload must produce dependency edges"
    );

    let iters = if smoke_mode() { 1 } else { 3 };
    runner.bench("dependencies/cached", iters, || {
        identify_dependencies(
            black_box(&prepared),
            black_box(&clusterings),
            &call_graph,
            &config,
        )
        .unwrap()
    });
    runner.bench("dependencies/naive", iters, || {
        oracle::identify_dependencies(
            black_box(&prepared),
            black_box(&clusterings),
            &call_graph,
            &config,
        )
        .unwrap()
    });
    let cached = runner.measurement("dependencies/cached").unwrap().min();
    let naive = runner.measurement("dependencies/naive").unwrap().min();
    let speedup = naive.as_secs_f64() / cached.as_secs_f64().max(1e-12);
    println!(
        "dependencies: causality-engine speedup over naive (best of {iters}): \
         {speedup:.2}x (naive {naive:.3?}, cached {cached:.3?})"
    );
    if smoke_mode() {
        println!("dependencies: smoke mode — wall-clock assertion skipped");
    } else if sieve_exec::par::hardware_parallelism() > 1 {
        assert!(
            speedup >= 1.5,
            "cached dependency stage must be at least 1.5x faster than the naive path, \
             got {speedup:.2}x"
        );
    } else {
        println!(
            "dependencies: single-core host — the ≥1.5x assertion runs on multi-core hosts only"
        );
    }

    let ledger = Ledger::new("dependencies");
    ledger.record_all(
        runner.measurements(),
        "sharelatex minimal, isolated stage, parallelism=1",
    );
    println!("dependencies: {}", ledger.outcome());
}
