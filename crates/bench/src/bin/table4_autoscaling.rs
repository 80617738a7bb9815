//! Table 4 — autoscaling with the traditional CPU-usage trigger vs the
//! metric selected by Sieve.
//!
//! The paper replays a one-hour WorldCup-98-shaped trace against ShareLatex
//! and compares the two trigger metrics under the same SLA (90% of request
//! latencies below 1000 ms). Reported outcome: Sieve's metric raises the
//! mean CPU usage per component by ~55% (better utilisation), and lowers SLA
//! violations by ~63% and scaling actions by ~34%.
//!
//! Run with: `cargo run --release -p sieve-bench --bin table4_autoscaling`

use sieve_apps::{sharelatex, MetricRichness};
use sieve_autoscale::{calibrated_rule, AutoscaleEngine, SlaCondition};
use sieve_bench::{percent_change, print_header};
use sieve_simulator::store::MetricId;
use sieve_simulator::{SimConfig, Workload};

fn main() {
    print_header("Table 4: CPU-usage trigger vs Sieve's metric selection for autoscaling");
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    let sla = SlaCondition::default();
    let peak_rate = 320.0;
    let scalable: Vec<String> = [
        "web",
        "real-time",
        "chat",
        "clsi",
        "contacts",
        "doc-updater",
        "docstore",
        "filestore",
        "spelling",
        "tags",
        "track-changes",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    // Guiding metrics: the paper's Sieve selection vs the traditional CPU
    // trigger on the web tier.
    let sieve_metric = MetricId::new(sharelatex::GUIDING_COMPONENT, sharelatex::GUIDING_METRIC);
    let cpu_metric = MetricId::new("web", "cpu_usage");

    println!("Calibrating thresholds on a 5-minute peak-load sample ...");
    let sieve_rule = calibrated_rule(&app, &sieve_metric, &sla, peak_rate, scalable.clone(), 21)
        .expect("calibration succeeds")
        .with_instance_bounds(1, 12)
        .with_cooldown_ticks(10);
    let cpu_rule = calibrated_rule(&app, &cpu_metric, &sla, peak_rate, scalable, 21)
        .expect("calibration succeeds")
        .with_instance_bounds(1, 12)
        .with_cooldown_ticks(10);
    println!(
        "  Sieve metric ({}): scale out > {:.0}, scale in < {:.0}",
        sieve_metric, sieve_rule.scale_out_threshold, sieve_rule.scale_in_threshold
    );
    println!(
        "  CPU usage ({}): scale out > {:.1}%, scale in < {:.1}%",
        cpu_metric, cpu_rule.scale_out_threshold, cpu_rule.scale_in_threshold
    );

    // One-hour WorldCup-like trace at 500 ms resolution.
    let workload = Workload::worldcup_like(7200, peak_rate, 1998);
    let config = SimConfig::new(0xE1).with_duration_ms(3_600_000);

    println!("\nReplaying the one-hour trace with the CPU-usage trigger ...");
    let cpu = AutoscaleEngine::new(cpu_rule, sla)
        .unwrap()
        .run(&app, &workload, config)
        .expect("run succeeds");
    println!("Replaying the one-hour trace with the Sieve-selected trigger ...");
    let sieve = AutoscaleEngine::new(sieve_rule, sla)
        .unwrap()
        .run(&app, &workload, config)
        .expect("run succeeds");

    println!(
        "\n{:<40} {:>12} {:>12} {:>12} {:>18}",
        "Metric", "CPU usage", "Sieve", "Difference", "Paper difference"
    );
    println!(
        "{:<40} {:>12.2} {:>12.2} {:>12} {:>18}",
        "Mean CPU usage per component [%]",
        cpu.mean_cpu_usage_per_component,
        sieve.mean_cpu_usage_per_component,
        percent_change(
            cpu.mean_cpu_usage_per_component,
            sieve.mean_cpu_usage_per_component
        ),
        "+54.8%"
    );
    println!(
        "{:<40} {:>12} {:>12} {:>12} {:>18}",
        format!("SLA violations (out of {} samples)", cpu.total_samples),
        cpu.sla_violations,
        sieve.sla_violations,
        percent_change(cpu.sla_violations as f64, sieve.sla_violations as f64),
        "-62.8%"
    );
    println!(
        "{:<40} {:>12} {:>12} {:>12} {:>18}",
        "Number of scaling actions",
        cpu.scaling_actions,
        sieve.scaling_actions,
        percent_change(cpu.scaling_actions as f64, sieve.scaling_actions as f64),
        "-34.4%"
    );
    println!(
        "\np90 end-to-end latency: CPU trigger {:.0} ms, Sieve trigger {:.0} ms (SLA: {:.0} ms)",
        cpu.latency_p90_ms, sieve.latency_p90_ms, sla.threshold_ms
    );
}
