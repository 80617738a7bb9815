//! Table 3 — monitoring-infrastructure overhead before and after Sieve's
//! metric reduction.
//!
//! The paper ingests all collected metrics into InfluxDB, measures CPU time,
//! database size and network traffic, then repeats the exercise with only
//! the representative metrics: CPU −81.2%, DB size −93.8%, network in
//! −79.3%, network out −50.7%.
//!
//! Run with: `cargo run --release -p sieve-bench --bin table3_monitoring_gains`

use sieve_apps::MetricRichness;
use sieve_bench::table3::monitoring_overhead;
use sieve_bench::{experiment_config, load_sharelatex, percent_reduction, print_header};
use sieve_core::pipeline::Sieve;
use sieve_simulator::store::MetricId;

fn main() {
    print_header("Table 3: metric-store overhead before/after Sieve's reduction");
    println!("Loading ShareLatex (full model) and running the reduction ...\n");

    let (store, call_graph) = load_sharelatex(MetricRichness::Full, 0x3A, 9);
    let model = Sieve::new(experiment_config())
        .analyze("sharelatex", &store, &call_graph)
        .expect("analysis succeeds");

    let keep: Vec<MetricId> = model
        .representative_metrics()
        .into_iter()
        .map(|(component, metric)| MetricId::new(component, metric))
        .collect();
    let reduced = store.retain_only(&keep);

    let before = monitoring_overhead(store.point_count(), store.series_count());
    let after = monitoring_overhead(reduced.point_count(), reduced.series_count());

    println!(
        "Metric series: {} -> {} ({}x reduction)",
        store.series_count(),
        reduced.series_count(),
        store.series_count() / reduced.series_count().max(1)
    );
    println!(
        "\n{:<22} {:>14} {:>14} {:>12} {:>14}",
        "Metric", "Before", "After", "Reduction", "Paper"
    );
    let paper = ["81.2 %", "93.8 %", "79.3 %", "50.7 %"];
    for (((label, b), (_, a)), paper) in before.into_iter().zip(after).zip(paper) {
        println!(
            "{:<22} {:>14.3} {:>14.3} {:>12} {:>14}",
            label,
            b,
            a,
            percent_reduction(b, a),
            paper
        );
    }
}
