//! Cross-crate integration test: the autoscaling case study wiring
//! (Sieve model -> guiding metric -> calibrated rule -> scaling engine).

use sieve::autoscale::{
    calibrate_thresholds, calibrated_rule, run_without_scaling, select_guiding_metric,
    AutoscaleEngine, SlaCondition,
};
use sieve::core::{Sieve, SieveConfig};
use sieve::prelude::*;
use sieve_apps::sharelatex;

fn scalable_components() -> Vec<String> {
    [
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
    .collect()
}

#[test]
fn guiding_metric_selection_comes_from_the_dependency_graph() {
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    let model = Sieve::new(SieveConfig::default().with_cluster_range(2, 5))
        .analyze_application_for(&app, &Workload::randomized(90.0, 8), 0x5CA1E, 120_000)
        .unwrap();
    let guiding = select_guiding_metric(&model).expect("a guiding metric is selected");
    // The selected metric belongs to a component of the application and is
    // one of that component's exported metrics.
    let component = app
        .component(&guiding.component)
        .unwrap_or_else(|| panic!("unknown component {}", guiding.component));
    assert!(
        component.metrics.iter().any(|m| m.name == guiding.metric),
        "guiding metric {guiding} is not exported by its component"
    );
    // It is the metric that appears most often in dependency relations.
    let counts = model.dependency_graph.metric_appearance_counts();
    let ((component, metric), _) = counts[0].clone();
    assert_eq!(MetricId::new(component, metric), guiding);
}

#[test]
fn calibrated_autoscaling_keeps_the_sla_under_a_spiky_trace() {
    let app = sharelatex::app_spec(MetricRichness::Minimal);
    let sla = SlaCondition::default();
    let guiding = MetricId::new(sharelatex::GUIDING_COMPONENT, sharelatex::GUIDING_METRIC);

    let thresholds = calibrate_thresholds(&app, &guiding, &sla, 320.0, 3).unwrap();
    assert!(thresholds.scale_in < thresholds.scale_out);

    let rule = calibrated_rule(&app, &guiding, &sla, 320.0, scalable_components(), 3)
        .unwrap()
        .with_instance_bounds(1, 12)
        .with_cooldown_ticks(10);
    let engine = AutoscaleEngine::new(rule, sla).unwrap();

    // A 10-minute WorldCup-like slice with a strong spike.
    let workload = Workload::worldcup_like(1200, 320.0, 1998);
    let config = SimConfig::new(0x51).with_duration_ms(600_000);

    let scaled = engine.run(&app, &workload, config).unwrap();
    let unscaled = run_without_scaling(&app, &workload, config, &sla).unwrap();

    assert_eq!(scaled.total_samples, unscaled.total_samples);
    assert!(scaled.scaling_actions > 0, "the engine never scaled");
    assert!(
        scaled.sla_violations < unscaled.sla_violations,
        "autoscaling did not reduce SLA violations: {} vs {}",
        scaled.sla_violations,
        unscaled.sla_violations
    );
    assert!(
        scaled.violation_ratio() < 0.35,
        "too many SLA violations even with autoscaling: {:.2}",
        scaled.violation_ratio()
    );
}
