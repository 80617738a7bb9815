//! Figure 3 — pairwise Adjusted Mutual Information (AMI) between the cluster
//! assignments of three independent measurements of ShareLatex.
//!
//! The paper loads ShareLatex with randomized workloads three times and
//! compares, per component, the resulting cluster assignments with AMI; the
//! reported average is 0.597, i.e. clearly above a random assignment.
//!
//! Run with: `cargo run --release -p sieve-bench --bin fig3_clustering_consistency`

use sieve_apps::MetricRichness;
use sieve_bench::{print_header, sharelatex_clusterings};
use sieve_cluster::adjusted_mutual_information;
use sieve_core::ComponentClustering;
use sieve_exec::Name;
use std::collections::BTreeMap;

/// Computes per-component AMI between two measurement runs, over the metrics
/// clustered in both runs.
fn component_amis(
    a: &BTreeMap<Name, ComponentClustering>,
    b: &BTreeMap<Name, ComponentClustering>,
) -> Vec<(Name, f64)> {
    let mut out = Vec::new();
    for (component, ca) in a {
        let Some(cb) = b.get(component) else { continue };
        let mut labels_a = Vec::new();
        let mut labels_b = Vec::new();
        for metric in ca.clustered_metrics() {
            let Some(pos_a) = ca.clusters.iter().position(|c| c.contains(&metric)) else {
                continue;
            };
            let Some(pos_b) = cb.clusters.iter().position(|c| c.contains(&metric)) else {
                continue;
            };
            labels_a.push(pos_a);
            labels_b.push(pos_b);
        }
        if labels_a.len() >= 3 {
            if let Ok(ami) = adjusted_mutual_information(&labels_a, &labels_b) {
                out.push((component.clone(), ami));
            }
        }
    }
    out
}

fn main() {
    print_header("Figure 3: clustering consistency across 3 randomized measurements (AMI)");
    println!("Running three independent measurements of ShareLatex (full model) ...");
    let runs: Vec<BTreeMap<Name, ComponentClustering>> = (0..3)
        .map(|i| sharelatex_clusterings(MetricRichness::Full, 100 + i, 7 * (i + 1)))
        .collect();

    let pairs = [(0usize, 1usize), (0, 2), (1, 2)];
    let mut all_values = Vec::new();
    for (i, j) in pairs {
        let amis = component_amis(&runs[i], &runs[j]);
        println!("\nAMI({}, {}):", i + 1, j + 1);
        println!("{:<16} {:>8}", "component", "AMI");
        for (component, ami) in &amis {
            println!("{:<16} {:>8.3}", component, ami);
            all_values.push(*ami);
        }
    }
    let mean = if all_values.is_empty() {
        0.0
    } else {
        all_values.iter().sum::<f64>() / all_values.len() as f64
    };
    println!("\nAverage AMI over all components and pairs: {mean:.3}");
    println!("Paper reports an average AMI of 0.597 for this experiment.");
}
