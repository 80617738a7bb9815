//! Metric reduction in isolation: how Sieve turns a component's raw metric
//! time series into a handful of representative metrics.
//!
//! This example builds a small set of synthetic metric series by hand (three
//! behaviour families plus constants), runs the reduction step directly and
//! shows the clusters, the silhouette-driven choice of `k` and the
//! representatives — the mechanism behind Figure 4 of the paper.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example metric_reduction
//! ```

use sieve::core::columnar::PreparedComponent;
use sieve::core::reduce::{reduce_component, NamedSeries};
use sieve::core::SieveConfig;
use sieve::timeseries::sbd;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let len = 120;
    let mut series: Vec<NamedSeries> = Vec::new();

    // Family 1: request-driven metrics (same diurnal shape, different units).
    for (name, scale, offset) in [
        ("http_requests_per_second", 1.0, 0.0),
        ("cpu_usage", 0.7, 5.0),
        ("net_bytes_sent_rate", 900.0, 1000.0),
    ] {
        series.push(NamedSeries::new(
            name,
            (0..len)
                .map(|i| offset + scale * (40.0 + 30.0 * ((i as f64) * 0.1).sin()))
                .collect::<Vec<f64>>(),
        ));
    }
    // Family 2: queue-style metrics that lag the request wave.
    for (name, lag) in [("queue_depth", 5usize), ("worker_backlog", 7usize)] {
        series.push(NamedSeries::new(
            name,
            (0..len)
                .map(|i: usize| 10.0 + 8.0 * ((i.saturating_sub(lag) as f64) * 0.1).sin())
                .collect::<Vec<f64>>(),
        ));
    }
    // Family 3: periodic housekeeping independent of load.
    series.push(NamedSeries::new(
        "gc_pause_ms",
        (0..len)
            .map(|i| 4.0 + 3.0 * ((i as f64) * 0.8).sin())
            .collect::<Vec<f64>>(),
    ));
    // Constants that the variance filter must drop.
    for (name, value) in [("open_file_limit", 65536.0), ("num_cpus", 8.0)] {
        series.push(NamedSeries::new(name, vec![value; len]));
    }

    let config = SieveConfig::default();
    // Pack the hand-built series into the columnar arena the pipeline uses.
    let prepared = PreparedComponent::from_named(&series);
    let clustering = reduce_component("example-service", &prepared, &config)?;

    println!(
        "Component `{}`: {} metrics, {} filtered as unvarying, k = {} (silhouette {:.2})",
        clustering.component,
        clustering.total_metrics,
        clustering.filtered_metrics.len(),
        clustering.chosen_k,
        clustering.silhouette
    );
    println!("Filtered: {}", clustering.filtered_metrics.join(", "));
    for (i, cluster) in clustering.clusters.iter().enumerate() {
        println!(
            "\nCluster {i}: representative `{}` (distance to centroid {:.3})",
            cluster.representative, cluster.representative_distance
        );
        for member in &cluster.members {
            println!("    - {member}");
        }
    }

    // Show that the representative really is shape-close to its cluster
    // members.
    let by_name: std::collections::HashMap<&str, &[f64]> = series
        .iter()
        .map(|s| (s.name.as_str(), &*s.values))
        .collect();
    println!("\nShape-based distances inside the first cluster:");
    if let Some(cluster) = clustering.clusters.first() {
        let rep = by_name[cluster.representative.as_str()];
        for member in &cluster.members {
            let d = sbd(rep, by_name[member.as_str()])?;
            println!("    SBD({}, {}) = {:.3}", cluster.representative, member, d);
        }
    }

    Ok(())
}
