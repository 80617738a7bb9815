//! Case study 2: root cause analysis for the OpenStack-like application
//! (§4.2 / §6.3 of the paper, Launchpad bug #1533942).
//!
//! The example analyses a correct and a faulty version of the OpenStack
//! model (the fault reproduces the Neutron Open vSwitch agent crash), feeds
//! both Sieve models to the RCA engine and prints the five-step output: the
//! component rankings, the cluster/edge novelty statistics and the final
//! ranked list of `{component, metric list}` candidates.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example rca_openstack
//! ```

use sieve::core::{Sieve, SieveConfig};
use sieve::prelude::*;
use sieve::rca::{RcaConfig, RcaEngine};
use sieve_apps::openstack;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let correct_app = openstack::app_spec(MetricRichness::Minimal);
    let faulty_app = openstack::faulty_app_spec(MetricRichness::Minimal);
    // Rally-like `boot_and_delete` load: a steady stream of VM launches.
    let workload = Workload::randomized(60.0, 5);
    let sieve = Sieve::new(SieveConfig::default());

    println!("Analysing the correct version ...");
    let correct = sieve.analyze_application(&correct_app, &workload, 0xBEEF)?;
    println!("Analysing the faulty version (OVS agent crash injected) ...");
    let faulty = sieve.analyze_application(&faulty_app, &workload, 0xBEEF)?;

    println!(
        "\nDependency graphs: correct = {} edges, faulty = {} edges",
        correct.dependency_graph.edge_count(),
        faulty.dependency_graph.edge_count()
    );

    let engine = RcaEngine::new(RcaConfig::default());
    let report = engine.compare(&correct, &faulty);

    println!("\n=== Step 2: components ranked by metric novelty (Table 5) ===");
    println!(
        "{:<22} {:>8} {:>6} {:>10} {:>8}",
        "Component", "Changed", "New", "Discarded", "Total"
    );
    for ranking in report.component_rankings.iter().take(10) {
        println!(
            "{:<22} {:>8} {:>6} {:>10} {:>8}",
            ranking.component,
            ranking.novelty_score,
            ranking.new_metrics,
            ranking.discarded_metrics,
            ranking.total_metrics
        );
    }

    println!("\n=== Step 3: cluster novelty (Figure 7a) ===");
    let c = &report.cluster_novelty;
    println!(
        "new-only: {}, discarded-only: {}, new+discarded: {}, changed membership: {}, total: {}",
        c.with_new_only,
        c.with_discarded_only,
        c.with_new_and_discarded,
        c.changed_membership,
        c.total
    );

    println!(
        "\n=== Step 4: edge novelty at similarity threshold {:.2} (Figure 7b) ===",
        report.config.similarity_threshold
    );
    let e = &report.edge_novelty;
    println!(
        "new: {}, discarded: {}, lag changed: {}, unchanged: {}",
        e.new, e.discarded, e.lag_changed, e.unchanged
    );
    let (components, clusters, metrics) = report.surviving_scope;
    println!(
        "surviving scope (Figure 7c): {components} components, {clusters} clusters, {metrics} metrics"
    );

    println!("\n=== Step 5: final ranking ===");
    for cause in &report.final_ranking {
        println!(
            "#{} {:<22} (novelty {:>2})  metrics: {}",
            cause.rank,
            cause.component,
            cause.novelty_score,
            cause.metrics.join(", ")
        );
    }

    // The ground truth of bug #1533942: the ERROR-state instances and the
    // DOWN neutron ports should be implicated.
    println!(
        "\nGround truth check: nova ERROR metric implicated: {}, neutron DOWN metric implicated: {}",
        report.implicates_metric("nova-api", openstack::ERROR_METRIC),
        report.implicates_metric("neutron-server", openstack::ROOT_CAUSE_METRIC)
    );

    Ok(())
}
