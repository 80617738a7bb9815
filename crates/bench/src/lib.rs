//! Shared helpers for the experiment harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (the README's "Reproducing the paper's evaluation" lists them,
//! `docs/REPRODUCTION.md` sets their output beside the paper's numbers); the
//! functions here run the common heavy lifting — loading an application,
//! running the Sieve analysis, producing correct/faulty OpenStack model
//! pairs — and provide small formatting utilities so that each binary prints
//! rows comparable to the paper's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(unnameable_types)]

mod table3;

pub use table3::monitoring_overhead;

use sieve_apps::{openstack, sharelatex, MetricRichness};
use sieve_core::reduce::reduce_component;
use sieve_core::{load_application, ComponentClustering, Sieve, SieveConfig, SieveModel};
use sieve_exec::Name;
use sieve_graph::CallGraph;
use sieve_simulator::store::MetricStore;
use sieve_simulator::Workload;
use std::collections::BTreeMap;

/// Duration of the offline loading phase used by the experiments (2.5 min).
pub const LOAD_DURATION_MS: u64 = 150_000;

/// The pipeline configuration used by all experiments (paper defaults, with
/// parallel workers).
pub fn experiment_config() -> SieveConfig {
    SieveConfig::default().with_parallelism(8)
}

/// Loads the ShareLatex model under a randomized workload and returns the
/// recorded store and call graph.
pub fn load_sharelatex(
    richness: MetricRichness,
    seed: u64,
    workload_seed: u64,
) -> (MetricStore, CallGraph) {
    let app = sharelatex::app_spec(richness);
    load_application(
        &app,
        &Workload::randomized(90.0, workload_seed),
        seed,
        LOAD_DURATION_MS,
        500,
    )
    .expect("loading the ShareLatex model succeeds")
}

/// Runs the full Sieve analysis of the ShareLatex model.
pub fn sharelatex_model(richness: MetricRichness, seed: u64, workload_seed: u64) -> SieveModel {
    let app = sharelatex::app_spec(richness);
    Sieve::new(experiment_config())
        .analyze_application_for(
            &app,
            &Workload::randomized(90.0, workload_seed),
            seed,
            LOAD_DURATION_MS,
        )
        .expect("ShareLatex analysis succeeds")
}

/// Runs only the metric-reduction part of the pipeline (steps 1–2) — enough
/// for the clustering robustness and reduction experiments, and much cheaper
/// than the full dependency analysis.
pub fn sharelatex_clusterings(
    richness: MetricRichness,
    seed: u64,
    workload_seed: u64,
) -> BTreeMap<Name, ComponentClustering> {
    let (store, _) = load_sharelatex(richness, seed, workload_seed);
    let config = experiment_config();
    let sieve = Sieve::new(config.clone());
    (sieve.prepare(&store).into_iter())
        .map(|(component, prepared)| {
            let clustering = reduce_component(component.clone(), &prepared, &config)
                .expect("clustering succeeds");
            (component, clustering)
        })
        .collect()
}

/// Runs the Sieve analysis of the correct and faulty OpenStack versions.
///
/// Like in the paper, the two versions are *independent measurements*: the
/// correct and the faulty deployment are loaded with separately randomized
/// workloads, so incidental run-to-run differences exist alongside the
/// fault-induced ones — the situation the RCA similarity filtering is there
/// to handle.
pub fn openstack_models(richness: MetricRichness, seed: u64) -> (SieveModel, SieveModel) {
    let sieve = Sieve::new(experiment_config());
    let correct = sieve
        .analyze_application_for(
            &openstack::app_spec(richness),
            &Workload::randomized(60.0, 5),
            seed,
            LOAD_DURATION_MS,
        )
        .expect("correct-version analysis succeeds");
    let faulty = sieve
        .analyze_application_for(
            &openstack::faulty_app_spec(richness),
            &Workload::randomized(60.0, 6),
            seed.wrapping_add(1),
            LOAD_DURATION_MS,
        )
        .expect("faulty-version analysis succeeds");
    (correct, faulty)
}

/// Prints a horizontal rule and a centred experiment title.
pub fn print_header(title: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// Formats a relative difference in percent (`after` vs `before`).
pub fn percent_change(before: f64, after: f64) -> String {
    if before == 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (after - before) / before * 100.0)
}

/// Formats a reduction in percent (`1 - after/before`).
pub fn percent_reduction(before: f64, after: f64) -> String {
    if before == 0.0 {
        return "n/a".to_string();
    }
    format!("{:.1}%", (1.0 - after / before) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(percent_change(100.0, 150.0), "+50.0%");
        assert_eq!(percent_change(0.0, 1.0), "n/a");
        assert_eq!(percent_reduction(200.0, 20.0), "90.0%");
        assert_eq!(percent_reduction(0.0, 1.0), "n/a");
    }

    #[test]
    fn table3_rows_are_linear_in_points_and_series() {
        // The full and the reduced ShareLatex run of `table3_monitoring_gains`
        // (437 and 53 series of 300 points), as that binary prints them.
        let before = table3::monitoring_overhead(437 * 300, 437);
        let after = table3::monitoring_overhead(53 * 300, 53);
        let printed = |rows: [(&str, f64); 4]| rows.map(|(_, value)| format!("{value:.3}"));
        assert_eq!(printed(before), ["3.278", "1792.383", "15.003", "1024.219"]);
        assert_eq!(printed(after), ["0.398", "217.383", "1.820", "124.219"]);
        for ((row, b), (_, a)) in before.into_iter().zip(after) {
            assert_eq!(percent_reduction(b, a), "87.9%", "{row}: one number");
        }
    }

    #[test]
    fn experiment_config_uses_paper_defaults() {
        let c = experiment_config();
        assert_eq!(c.interval_ms, 500);
        assert_eq!(c.max_clusters, 7);
    }

    #[test]
    fn minimal_clustering_run_produces_all_components() {
        let clusterings = sharelatex_clusterings(MetricRichness::Minimal, 1, 1);
        assert_eq!(clusterings.len(), 15);
        assert!(clusterings.values().all(|c| c.total_metrics > 0));
    }
}
