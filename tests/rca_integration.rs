//! Cross-crate integration test: the OpenStack RCA case study end to end
//! (§6.3 of the paper, Launchpad bug #1533942).

use sieve::core::{Sieve, SieveConfig};
use sieve::prelude::*;
use sieve::rca::{RcaConfig, RcaEngine};
use sieve_apps::openstack;

fn analyze(app: &AppSpec, seed: u64) -> SieveModel {
    let config = SieveConfig::default()
        .with_cluster_range(2, 5)
        .with_parallelism(4);
    Sieve::new(config)
        .analyze_application_for(app, &Workload::randomized(60.0, 5), seed, 120_000)
        .expect("analysis succeeds")
}

#[test]
fn rca_ranks_the_faulty_components_and_isolates_the_root_cause_edge_metrics() {
    let correct_app = openstack::app_spec(MetricRichness::Minimal);
    let faulty_app = openstack::faulty_app_spec(MetricRichness::Minimal);

    let correct = analyze(&correct_app, 0xBEEF);
    let faulty = analyze(&faulty_app, 0xBEEF);

    // The fault changes the dependency structure (the paper observed 647 vs
    // 343 edges; the direction of the change matters, not the magnitude).
    assert_ne!(
        correct.dependency_graph.edge_count(),
        faulty.dependency_graph.edge_count()
    );

    let report = RcaEngine::new(RcaConfig::default()).compare(&correct, &faulty);

    // Step 1-2: the components known to be affected by the bug carry novel
    // metrics and are ranked above the unaffected ones.
    let novelty_of = |component: &str| -> usize {
        report
            .component_rankings
            .iter()
            .find(|r| r.component == component)
            .map(|r| r.novelty_score)
            .unwrap_or(0)
    };
    assert!(novelty_of("nova-api") > 0, "nova-api shows no novelty");
    assert!(
        novelty_of("neutron-server") > 0,
        "neutron-server shows no novelty"
    );
    assert!(
        novelty_of("nova-api") >= novelty_of("memcached"),
        "an unaffected component outranks nova-api"
    );

    // The affected components appear in the top half of the step-2 ranking.
    let position = |component: &str| -> usize {
        report
            .component_rankings
            .iter()
            .position(|r| r.component == component)
            .unwrap_or(usize::MAX)
    };
    assert!(
        position("nova-api") < 8,
        "nova-api ranked too low: {}",
        position("nova-api")
    );
    assert!(
        position("neutron-server") < 8,
        "neutron-server ranked too low: {}",
        position("neutron-server")
    );

    // Step 3: some clusters are novel, but far from all of them.
    assert!(report.cluster_novelty.novel() > 0);
    assert!(report.cluster_novelty.novel() < report.cluster_novelty.total);

    // Step 4: the dependency-graph diff is non-trivial.
    let e = &report.edge_novelty;
    assert!(
        e.new + e.discarded + e.lag_changed > 0,
        "no edge differences detected"
    );

    // Step 5: the final ranking exists, is ordered and implicates the
    // ground-truth metrics of the bug (ERROR instances / DOWN ports).
    assert!(!report.final_ranking.is_empty());
    for pair in report.final_ranking.windows(2) {
        assert!(pair[0].novelty_score >= pair[1].novelty_score);
        assert!(pair[0].rank < pair[1].rank);
    }
    assert!(
        report.implicates_metric("nova-api", openstack::ERROR_METRIC)
            || report.implicates_metric("neutron-server", openstack::ROOT_CAUSE_METRIC),
        "neither ground-truth metric was implicated; ranking: {:#?}",
        report.final_ranking
    );

    // The final scope is a genuine reduction of the search space.
    let total_metrics: usize = faulty.clusterings.values().map(|c| c.total_metrics).sum();
    let (components, _clusters, metrics) = report.surviving_scope;
    assert!(components <= 16);
    assert!(
        metrics < total_metrics,
        "RCA did not reduce the state to inspect ({metrics} vs {total_metrics})"
    );
}

#[test]
fn comparing_a_version_with_itself_reports_no_anomaly() {
    let app = openstack::app_spec(MetricRichness::Minimal);
    let model = analyze(&app, 0x1234);
    let report = RcaEngine::new(RcaConfig::default()).compare(&model, &model.clone());
    assert!(report.final_ranking.is_empty());
    assert_eq!(report.cluster_novelty.novel(), 0);
    assert_eq!(report.edge_novelty.new, 0);
    assert_eq!(report.edge_novelty.discarded, 0);
}
