//! Benchmark of the chaos-scenario engine: seeded generation throughput,
//! the streamed epoch-by-epoch analysis of an adversarial scenario, and
//! the ground-truth scoring harness on top of it.
//!
//! Run with: `cargo bench -p sieve-bench --bench scenarios`
//!
//! `SIEVE_BENCH_SMOKE=1` (used by CI) shrinks the iteration counts while
//! keeping the correctness assertions: the final streamed model must equal
//! the batch oracle bit-for-bit, the injected root cause must rank in the
//! top-3, and every scripted dependency flip must be tracked in time.

use sieve_bench::harness::{smoke_mode, Runner};
use sieve_bench::ledger::Ledger;
use sieve_rca::RcaConfig;
use sieve_scenario::matrix::{DRIFT_WINDOW_EPOCHS, RCA_TOP_K};
use sieve_scenario::{generate, run_batch, run_streamed, score_clusters, score_drift, score_rca};
use std::hint::black_box;

fn main() {
    let mut runner = Runner::new();
    let (gen_iters, stream_iters, score_iters) = if smoke_mode() {
        (2usize, 1usize, 2usize)
    } else {
        (20usize, 5usize, 20usize)
    };

    // The root-cause scenario exercises the whole engine: a diurnal
    // workload, a scripted fault injection and RCA-scorable ground truth.
    let spec = sieve_scenario::matrix::root_cause();
    let seed = 41;

    runner.bench("scenarios/generate", gen_iters, || {
        let data = generate(&spec, seed).unwrap();
        black_box(data.fingerprint())
    });

    let data = generate(&spec, seed).unwrap();
    let config = spec.analysis_config(1);
    println!(
        "scenarios: {} — {} epochs, {} points per generation",
        spec.name,
        data.epochs.len(),
        data.point_count()
    );

    runner.bench("scenarios/streamed-epochs", stream_iters, || {
        let models = run_streamed(&data, &config).unwrap();
        black_box(models.len())
    });

    // Correctness: the streamed run the bench timed equals a from-scratch
    // batch analysis, and the scores meet the regression-suite thresholds.
    let models = run_streamed(&data, &config).unwrap();
    let batch = run_batch(&data, &config).unwrap();
    assert_eq!(
        **models.last().unwrap(),
        batch,
        "final streamed model must equal the batch oracle"
    );
    let rca = score_rca(&models, &data.truth, RcaConfig::default(), RCA_TOP_K).unwrap();
    assert!(
        rca.hit(),
        "injected root cause {} ranked {:?}",
        rca.component,
        rca.rank
    );
    let drift = score_drift(&models, &data.truth);
    assert!(
        drift.all_tracked_within(DRIFT_WINDOW_EPOCHS),
        "drift outcomes {:?}",
        drift.outcomes
    );

    runner.bench("scenarios/score", score_iters, || {
        let rca = score_rca(&models, &data.truth, RcaConfig::default(), RCA_TOP_K);
        let drift = score_drift(&models, &data.truth);
        let clusters = score_clusters(models.last().unwrap(), &data.truth);
        black_box((
            rca.is_some(),
            drift.outcomes.len(),
            clusters.mean_abs_error(),
        ))
    });

    println!(
        "scenarios: root cause {} ranked {:?} (top-{}), streamed==batch passed",
        rca.component, rca.rank, rca.top_k
    );

    let ledger = Ledger::new("scenarios");
    ledger.record_all(
        runner.measurements(),
        "root-cause chaos scenario: generate, streamed 8-epoch analysis, scoring",
    );
    println!("scenarios: {}", ledger.outcome());
}
