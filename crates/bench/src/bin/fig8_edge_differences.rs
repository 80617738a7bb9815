//! Figure 8 — final edge differences between the top-ranked OpenStack
//! components at similarity threshold 0.50.
//!
//! The paper's figure shows the new/deleted/lag-changed edges among the top
//! five components of Table 5 and highlights the new edge connecting the
//! Nova API cluster containing `nova_instances_in_state_ERROR` with the
//! Neutron cluster containing `neutron_ports_in_status_DOWN` — the causal
//! trace of the crashed Open vSwitch agent.
//!
//! Run with: `cargo run --release -p sieve-bench --bin fig8_edge_differences`

use sieve_apps::MetricRichness;
use sieve_bench::{openstack_models, print_header};
use sieve_rca::{EdgeChangeKind, RcaConfig, RcaEngine};
use std::collections::BTreeSet;

fn main() {
    print_header("Figure 8: edge differences between the top-ranked components (similarity 0.50)");
    println!("Analysing the correct and faulty OpenStack versions (full model) ...\n");
    let (correct, faulty) = openstack_models(MetricRichness::Full, 0x81);
    let report = RcaEngine::new(RcaConfig::default()).compare(&correct, &faulty);

    // The top-5 components by step-2 novelty ranking.
    let top: BTreeSet<sieve_exec::Name> = report
        .component_rankings
        .iter()
        .take(5)
        .map(|r| r.component.clone())
        .collect();
    println!(
        "Top-5 components by novelty: {}\n",
        top.iter().cloned().collect::<Vec<_>>().join(", ")
    );

    println!(
        "{:<11} {:<22} -> {:<22} {:<34} -> {:<34}",
        "change", "source", "target", "source metric", "target metric"
    );
    let mut shown = 0;
    for diff in report
        .edge_diffs
        .iter()
        .filter(|d| d.change != EdgeChangeKind::Unchanged)
        .filter(|d| {
            top.contains(&d.edge.source_component) || top.contains(&d.edge.target_component)
        })
        .filter(|d| d.is_interesting(&report.config))
    {
        let label = match diff.change {
            EdgeChangeKind::New => "new",
            EdgeChangeKind::Discarded => "discarded",
            EdgeChangeKind::LagChanged => "lag change",
            EdgeChangeKind::Unchanged => "unchanged",
        };
        println!(
            "{:<11} {:<22} -> {:<22} {:<34} -> {:<34}",
            label,
            diff.edge.source_component,
            diff.edge.target_component,
            diff.edge.source_metric,
            diff.edge.target_metric
        );
        shown += 1;
    }
    if shown == 0 {
        println!("(no interesting edges among the top components at this threshold)");
    }

    // Highlight the ground-truth relation.
    let ground_truth = report.edge_diffs.iter().find(|d| {
        d.edge.source_metric == sieve_apps::openstack::ERROR_METRIC
            && d.edge.target_metric == sieve_apps::openstack::ROOT_CAUSE_METRIC
            || d.edge.source_metric == sieve_apps::openstack::ROOT_CAUSE_METRIC
                && d.edge.target_metric == sieve_apps::openstack::ERROR_METRIC
    });
    match ground_truth {
        Some(edge) => println!(
            "\nGround-truth edge found ({}): {}::{} <-> {}::{}",
            match edge.change {
                EdgeChangeKind::New => "new",
                EdgeChangeKind::Discarded => "discarded",
                EdgeChangeKind::LagChanged => "lag change",
                EdgeChangeKind::Unchanged => "unchanged",
            },
            edge.edge.source_component,
            edge.edge.source_metric,
            edge.edge.target_component,
            edge.edge.target_metric
        ),
        None => println!(
            "\nGround-truth edge (instances_ERROR <-> ports_DOWN) not directly present; \
             the metrics are still implicated via the final ranking: nova ERROR = {}, neutron DOWN = {}",
            report.implicates_metric("nova-api", sieve_apps::openstack::ERROR_METRIC),
            report.implicates_metric("neutron-server", sieve_apps::openstack::ROOT_CAUSE_METRIC)
        ),
    }
}
