//! Direct unit tests of the RCA primitives against hand-constructed
//! ground truths — independent of the simulator, so a regression in
//! `rank_of`, `diff_edges` or `assess_component_clusters` is pinned to
//! the primitive rather than to a scenario score.

use sieve_core::{ComponentClustering, MetricCluster, SieveModel};
use sieve_exec::Name;
use sieve_graph::{DependencyEdge, DependencyGraph};
use sieve_rca::{
    assess_all_clusters, assess_component_clusters, cluster_similarity, diff_edges, metric_diffs,
    EdgeChangeKind, MetricDiff, RcaConfig, RcaEngine,
};

fn clustering(component: &str, clusters: &[&[&str]]) -> ComponentClustering {
    let total: usize = clusters.iter().map(|c| c.len()).sum();
    ComponentClustering {
        component: Name::from(component),
        total_metrics: total,
        filtered_metrics: vec![],
        clusters: clusters
            .iter()
            .map(|members| MetricCluster {
                members: members.iter().map(|m| Name::from(*m)).collect(),
                representative: Name::from(members[0]),
                representative_distance: 0.05,
            })
            .collect(),
        silhouette: 0.8,
        chosen_k: clusters.len(),
    }
}

fn edge(src: (&str, &str), dst: (&str, &str), lag_ms: u64) -> DependencyEdge {
    DependencyEdge {
        source_component: Name::from(src.0),
        source_metric: Name::from(src.1),
        target_component: Name::from(dst.0),
        target_metric: Name::from(dst.1),
        p_value: 0.01,
        f_statistic: 9.0,
        lag_ms,
    }
}

fn model(clusterings: Vec<ComponentClustering>, edges: Vec<DependencyEdge>) -> SieveModel {
    let mut graph = DependencyGraph::new();
    for c in &clusterings {
        graph.add_component(c.component.clone());
    }
    for e in edges {
        graph.add_edge(e);
    }
    SieveModel {
        application: "hand-built".to_string(),
        clusterings: clusterings
            .into_iter()
            .map(|c| (c.component.clone(), c))
            .collect(),
        dependency_graph: graph,
    }
}

/// Correct version: `web` has {cpu, mem} and {lat}; `db` has {q}.
fn correct_model() -> SieveModel {
    model(
        vec![
            clustering("web", &[&["cpu", "mem"], &["lat"]]),
            clustering("db", &[&["q"]]),
        ],
        vec![edge(("web", "cpu"), ("db", "q"), 500)],
    )
}

/// Faulty version: `lat` vanished from `web`, an `err` metric appeared,
/// the cpu->q lag grew by 1000 ms and a new err->q edge showed up.
fn faulty_model() -> SieveModel {
    model(
        vec![
            clustering("web", &[&["cpu", "mem"], &["err"]]),
            clustering("db", &[&["q"]]),
        ],
        vec![
            edge(("web", "cpu"), ("db", "q"), 1500),
            edge(("web", "err"), ("db", "q"), 500),
        ],
    )
}

#[test]
fn rank_of_places_the_novel_component_first() {
    let report = RcaEngine::new(RcaConfig::default()).compare(&correct_model(), &faulty_model());
    assert_eq!(report.rank_of("web"), Some(1));
    // db touches the interesting edges (it is the q endpoint) so it
    // survives the filter, but with zero novelty it ranks below web.
    assert_eq!(report.rank_of("db"), Some(2));
    assert_eq!(report.rank_of("no-such-component"), None);
    assert_eq!(report.top_components(1), vec![Name::from("web")]);
    let cause = &report.final_ranking[0];
    assert_eq!(cause.novelty_score, 2, "err appeared + lat vanished");
    assert!(cause.metrics.iter().any(|m| m == "err"));
}

#[test]
fn metric_diffs_classify_new_discarded_and_unchanged() {
    let diffs = metric_diffs(&correct_model(), &faulty_model());
    let web = diffs.iter().find(|d| d.component == "web").unwrap();
    assert_eq!(web.new_metrics, vec![Name::from("err")]);
    assert_eq!(web.discarded_metrics, vec![Name::from("lat")]);
    assert_eq!(web.unchanged_metrics.len(), 2);
    assert_eq!(web.novelty_score(), 2);
    let db = diffs.iter().find(|d| d.component == "db").unwrap();
    assert_eq!(db.novelty_score(), 0);
}

#[test]
fn assess_component_clusters_matches_and_scores_clusters() {
    let correct = correct_model();
    let faulty = faulty_model();
    let diff = MetricDiff {
        component: Name::from("web"),
        new_metrics: vec![Name::from("err")],
        discarded_metrics: vec![Name::from("lat")],
        unchanged_metrics: vec![Name::from("cpu"), Name::from("mem")],
        total_metrics: 3,
    };
    let assessments = assess_component_clusters(
        "web",
        correct.clustering_of("web"),
        faulty.clustering_of("web"),
        &diff,
    );

    // The {cpu, mem} cluster is maintained: full similarity, no novelty.
    let maintained = assessments
        .iter()
        .find(|a| a.members.iter().any(|m| m == "cpu"))
        .unwrap();
    assert!((maintained.similarity - 1.0).abs() < 1e-12);
    assert_eq!(maintained.novelty_score(), 0);
    assert!(!maintained.is_novel(1));

    // The {err} cluster is novel: a brand-new metric.
    let novel = assessments
        .iter()
        .find(|a| a.members.iter().any(|m| m == "err"))
        .unwrap();
    assert_eq!(novel.new_metrics, vec![Name::from("err")]);
    assert!(novel.is_novel(1));
    assert!(novel.faulty_index.is_some());
}

#[test]
fn cluster_similarity_is_the_modified_jaccard_of_the_paper() {
    let a = [Name::from("x"), Name::from("y")];
    let b = [Name::from("y"), Name::from("z")];
    // |{x,y} ∩ {y,z}| / |{x,y}| = 1/2.
    assert!((cluster_similarity(&a, &b) - 0.5).abs() < 1e-12);
    assert!((cluster_similarity(&a, &a) - 1.0).abs() < 1e-12);
    assert_eq!(cluster_similarity(&[], &b), 0.0);
    assert_eq!(cluster_similarity(&a, &[]), 0.0);
}

#[test]
fn diff_edges_classifies_every_change_kind_and_filters() {
    let config = RcaConfig::default();
    let correct = correct_model();
    let faulty = faulty_model();
    let diffs = metric_diffs(&correct, &faulty);
    let assessments = assess_all_clusters(&correct, &faulty, &diffs);
    let edge_diffs = diff_edges(&correct, &faulty, &assessments);

    // cpu->q lag grew 500 -> 1500 (beyond the 500 ms tolerance).
    let lag_changed = edge_diffs
        .iter()
        .find(|d| d.edge.source_metric == "cpu")
        .unwrap();
    assert_eq!(lag_changed.change, EdgeChangeKind::LagChanged);
    assert_eq!(lag_changed.correct_lag_ms, Some(500));
    assert_eq!(lag_changed.faulty_lag_ms, Some(1500));
    // Both endpoints live in maintained clusters, so the similarity rule
    // admits the edge even without novelty.
    assert!(lag_changed.min_endpoint_similarity >= config.similarity_threshold);
    assert!(lag_changed.is_interesting(&config));

    // err->q exists only in the faulty version and touches a novel cluster.
    let new = edge_diffs
        .iter()
        .find(|d| d.edge.source_metric == "err")
        .unwrap();
    assert_eq!(new.change, EdgeChangeKind::New);
    assert!(new.involves_novel_cluster);
    assert!(new.is_interesting(&config));

    // An unchanged edge must never be interesting.
    let same = model(
        vec![
            clustering("web", &[&["cpu", "mem"], &["lat"]]),
            clustering("db", &[&["q"]]),
        ],
        vec![edge(("web", "cpu"), ("db", "q"), 500)],
    );
    let no_diffs = metric_diffs(&correct, &same);
    let no_assessments = assess_all_clusters(&correct, &same, &no_diffs);
    let unchanged = diff_edges(&correct, &same, &no_assessments);
    assert_eq!(unchanged.len(), 1);
    assert_eq!(unchanged[0].change, EdgeChangeKind::Unchanged);
    assert!(!unchanged[0].is_interesting(&config));
}
