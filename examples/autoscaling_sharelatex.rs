//! Case study 1: orchestration of autoscaling for the ShareLatex-like
//! application (§4.1 / §6.2 of the paper).
//!
//! The example runs the whole workflow:
//!
//! 1. analyse the application with Sieve to get the dependency graph;
//! 2. select the guiding metric (the one appearing most often in
//!    Granger-causality relations);
//! 3. calibrate scale-in/out thresholds against the SLA ("90% of request
//!    latencies below 1000 ms") on a 5-minute peak-load sample;
//! 4. replay a one-hour WorldCup-like trace with (a) the Sieve-selected
//!    metric and (b) the traditional CPU-usage trigger, and compare mean CPU
//!    usage, SLA violations and scaling actions (Table 4).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example autoscaling_sharelatex
//! ```

use sieve::autoscale::{calibrated_rule, select_guiding_metric, AutoscaleEngine, SlaCondition};
use sieve::core::{Sieve, SieveConfig};
use sieve::prelude::*;
use sieve_apps::sharelatex;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    let sla = SlaCondition::default();

    // 1. Sieve analysis.
    println!("Running the Sieve analysis of ShareLatex ...");
    let model = Sieve::new(SieveConfig::default()).analyze_application(
        &app,
        &Workload::randomized(120.0, 11),
        0xA11CE,
    )?;

    // 2. Guiding-metric selection.
    let guiding = select_guiding_metric(&model).unwrap_or_else(|| {
        MetricId::new(sharelatex::GUIDING_COMPONENT, sharelatex::GUIDING_METRIC)
    });
    println!("Guiding metric selected by Sieve: {guiding}");
    let cpu_metric = MetricId::new("web", "cpu_usage");

    // 3. Threshold calibration for both policies.
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
    let sieve_rule = calibrated_rule(&app, &guiding, &sla, peak_rate, scalable.clone(), 21)?
        .with_instance_bounds(1, 12)
        .with_cooldown_ticks(10);
    let cpu_rule = calibrated_rule(&app, &cpu_metric, &sla, peak_rate, scalable, 21)?
        .with_instance_bounds(1, 12)
        .with_cooldown_ticks(10);
    println!(
        "Calibrated thresholds — Sieve metric: out {:.0} / in {:.0};  CPU: out {:.1}% / in {:.1}%",
        sieve_rule.scale_out_threshold,
        sieve_rule.scale_in_threshold,
        cpu_rule.scale_out_threshold,
        cpu_rule.scale_in_threshold
    );

    // 4. Replay the one-hour trace under both policies.
    let trace_ticks = 7200; // one hour at 500 ms
    let workload = Workload::worldcup_like(trace_ticks, peak_rate, 1998);
    let config = SimConfig::new(0xE1).with_duration_ms(3_600_000);

    println!("\nReplaying the one-hour trace with the Sieve-selected trigger ...");
    let sieve_report = AutoscaleEngine::new(sieve_rule, sla)?.run(&app, &workload, config)?;
    println!("Replaying the one-hour trace with the CPU-usage trigger ...");
    let cpu_report = AutoscaleEngine::new(cpu_rule, sla)?.run(&app, &workload, config)?;

    println!("\n=== Table 4: CPU-usage trigger vs Sieve's selection ===");
    println!(
        "{:<38} {:>12} {:>12} {:>12}",
        "Metric", "CPU usage", "Sieve", "Difference"
    );
    let diff = |a: f64, b: f64| -> String {
        format!("{:+.2}%", if a == 0.0 { 0.0 } else { (b - a) / a * 100.0 })
    };
    println!(
        "{:<38} {:>12.2} {:>12.2} {:>12}",
        "Mean CPU usage per component [%]",
        cpu_report.mean_cpu_usage_per_component,
        sieve_report.mean_cpu_usage_per_component,
        diff(
            cpu_report.mean_cpu_usage_per_component,
            sieve_report.mean_cpu_usage_per_component
        )
    );
    println!(
        "{:<38} {:>12} {:>12} {:>12}",
        format!(
            "SLA violations (out of {} samples)",
            cpu_report.total_samples
        ),
        cpu_report.sla_violations,
        sieve_report.sla_violations,
        diff(
            cpu_report.sla_violations as f64,
            sieve_report.sla_violations as f64
        )
    );
    println!(
        "{:<38} {:>12} {:>12} {:>12}",
        "Number of scaling actions",
        cpu_report.scaling_actions,
        sieve_report.scaling_actions,
        diff(
            cpu_report.scaling_actions as f64,
            sieve_report.scaling_actions as f64
        )
    );

    Ok(())
}
