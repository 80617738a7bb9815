//! The scenario regression suite: the full matrix of named scenarios ×
//! seeds, graded against ground truth.
//!
//! Thresholds (also the PR's acceptance criteria):
//! * the injected root cause ranks in the top-3 in at least 90% of the
//!   RCA-scored runs (and every individual miss is reported);
//! * every scripted dependency flip is tracked within 3 epochs;
//! * the autoscaling engine reacts to each scripted burst within 40 ticks;
//! * the final streamed model equals a from-scratch batch analysis
//!   bit-for-bit, on every run;
//! * scores are identical across analysis parallelism 1, 4 and 8, and
//!   across the direct-session and serving-layer ingestion paths.

use sieve_rca::RcaConfig;
use sieve_scenario::{
    generate, run_autoscale, run_batch, run_served, run_streamed, scenario_matrix, score_autoscale,
    score_clusters, score_drift, score_rca, smoke_matrix, ScenarioCase, DRIFT_WINDOW_EPOCHS,
};
use sieve_serve::ServeConfig;

/// Chosen-k mean absolute error tolerated per run (the k-sweep tends to
/// split one family under adversarial load, not collapse the structure).
const CLUSTER_K_TOLERANCE: f64 = 1.5;

/// Autoscaling targets: the request-path services sized to saturate under
/// a burst.
fn autoscale_targets() -> Vec<String> {
    vec![
        "gateway".to_string(),
        "svc-a".to_string(),
        "svc-b".to_string(),
    ]
}

/// Runs one seeded case and asserts its per-run thresholds; returns the
/// RCA outcome `(scored, hit)` for matrix-level aggregation.
fn grade(case: &ScenarioCase, seed: u64) -> (bool, bool) {
    let name = &case.spec.name;
    let data = generate(&case.spec, seed).expect("generation");
    let config = case.spec.analysis_config(1);
    let models = run_streamed(&data, &config).expect("streamed run");
    assert_eq!(
        models.len(),
        case.spec.epochs,
        "{name}/{seed}: model per epoch"
    );

    // Streamed == batch, bit for bit.
    let batch = run_batch(&data, &config).expect("batch run");
    let final_model = models.last().unwrap();
    assert_eq!(
        **final_model, batch,
        "{name}/{seed}: final streamed model must equal the batch oracle"
    );
    assert!(
        final_model.dependency_graph.edge_count() > 0,
        "{name}/{seed}: the final model found no dependencies at all"
    );

    // Cluster-count selection stays near the true family structure.
    let clusters = score_clusters(final_model, &data.truth);
    assert!(
        clusters.mean_abs_error() <= CLUSTER_K_TOLERANCE,
        "{name}/{seed}: chosen-k error {} exceeds {CLUSTER_K_TOLERANCE}",
        clusters.mean_abs_error()
    );

    // Every scripted dependency flip is tracked within the epoch bound.
    let drift = score_drift(&models, &data.truth);
    assert!(
        drift.all_tracked_within(DRIFT_WINDOW_EPOCHS),
        "{name}/{seed}: drift outcomes {:?} not all within {DRIFT_WINDOW_EPOCHS} epochs",
        drift.outcomes
    );

    // Autoscaling reacts to every scripted burst within the tick bound.
    if let Some(max_lag) = case.autoscale_max_lag_ticks {
        let report = run_autoscale(&case.spec, final_model, autoscale_targets(), 110.0, seed)
            .expect("autoscale run");
        let score = score_autoscale(&report, case.spec.bursts());
        assert!(
            score.all_within(max_lag),
            "{name}/{seed}: autoscale reactions {:?} not all within {max_lag} ticks",
            score.reactions
        );
    }

    // RCA outcome, aggregated by the caller across the matrix.
    match score_rca(&models, &data.truth, RcaConfig::default(), case.rca_top_k) {
        Some(score) => {
            if !score.hit() {
                eprintln!(
                    "{name}/{seed}: root cause {} ranked {:?} (top-{} miss)",
                    score.component, score.rank, score.top_k
                );
            }
            (true, score.hit())
        }
        None => (false, false),
    }
}

fn grade_matrix(cases: &[ScenarioCase]) {
    let mut scored = 0usize;
    let mut hits = 0usize;
    for case in cases {
        for &seed in &case.seeds {
            let (was_scored, hit) = grade(case, seed);
            if was_scored {
                scored += 1;
                hits += usize::from(hit);
            }
        }
    }
    if scored > 0 {
        assert!(
            hits * 10 >= scored * 9,
            "root cause ranked top-k in only {hits}/{scored} runs (< 90%)"
        );
    }
}

/// The CI smoke subset: smoke-tagged scenarios, one seed each.
#[test]
fn smoke_subset_meets_every_threshold() {
    grade_matrix(&smoke_matrix());
}

/// The full matrix across all seeds.
#[test]
fn full_matrix_meets_every_threshold() {
    grade_matrix(&scenario_matrix());
}

/// Scores — and the models behind them — are invariant under the analysis
/// parallelism degree.
#[test]
fn scores_are_identical_across_parallelism_1_4_8() {
    for spec in [
        sieve_scenario::steady_diurnal(),
        sieve_scenario::root_cause(),
    ] {
        let data = generate(&spec, 97).unwrap();
        let baseline = run_streamed(&data, &spec.analysis_config(1)).unwrap();
        for parallelism in [4, 8] {
            let other = run_streamed(&data, &spec.analysis_config(parallelism)).unwrap();
            assert_eq!(baseline.len(), other.len());
            for (epoch, (a, b)) in baseline.iter().zip(other.iter()).enumerate() {
                assert_eq!(
                    **a, **b,
                    "{}: epoch {epoch} model differs at parallelism {parallelism}",
                    spec.name
                );
            }
            let rca_a = score_rca(&baseline, &data.truth, RcaConfig::default(), 3);
            let rca_b = score_rca(&other, &data.truth, RcaConfig::default(), 3);
            assert_eq!(
                rca_a.as_ref().map(|s| (s.rank, s.hit())),
                rca_b.as_ref().map(|s| (s.rank, s.hit())),
                "{}: RCA score differs at parallelism {parallelism}",
                spec.name
            );
            assert_eq!(
                score_drift(&baseline, &data.truth),
                score_drift(&other, &data.truth)
            );
        }
    }
}

/// The serving front door (multi-tenant service, sharded registry, sweep)
/// publishes the same per-epoch models as the direct session runner.
#[test]
fn served_ingestion_matches_the_streamed_run() {
    let spec = sieve_scenario::edge_drift();
    let data = generate(&spec, 31).unwrap();
    let analysis = spec.analysis_config(1);
    let streamed = run_streamed(&data, &analysis).unwrap();
    let served = run_served(
        &data,
        ServeConfig {
            shard_count: 2,
            sweep_parallelism: 1,
            analysis,
            durability: None,
        },
    )
    .unwrap();
    assert_eq!(streamed.len(), served.len());
    for (epoch, (a, b)) in streamed.iter().zip(served.iter()).enumerate() {
        assert_eq!(**a, **b, "epoch {epoch} model differs between paths");
    }
    assert_eq!(
        score_drift(&streamed, &data.truth),
        score_drift(&served, &data.truth)
    );
}
