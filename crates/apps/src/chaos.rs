//! The chaos-scenario application profile.
//!
//! Unlike the well-behaved ShareLatex/OpenStack models, this profile is
//! built for *adversarial* runs with a known answer sheet: every component
//! exports three behaviourally distinct metric families (load-following,
//! saturating-latency, periodic housekeeping) plus one constant, so the
//! true cluster count per component is known by construction; the call
//! topology includes edges a scenario script can flip on and off
//! (dependency drift); and [`root_cause_fault`] produces the
//! remove+add+degrade fault signature whose injected component an RCA
//! comparison must rank first.

use crate::profiles::MetricRichness;
use sieve_simulator::{
    AppSpec, CallSpec, ComponentSpec, Fault, FaultScenario, MetricBehavior, MetricSpec,
};
use std::collections::BTreeMap;

/// Entry point of the chaos application.
pub(crate) const ENTRYPOINT: &str = "gateway";
/// Middle-tier service A (the default root-cause injection target).
pub const SVC_A: &str = "svc-a";
/// Middle-tier service B.
pub const SVC_B: &str = "svc-b";
/// Shared datastore.
pub const DB: &str = "db";
/// Async leaf worker (the default dropout/clock-skew target — not on any
/// drift-scored path, so its faults must not confuse the other scores).
pub const WORKER: &str = "worker";

/// The metric removed by [`root_cause_fault`].
pub(crate) const FAULT_REMOVED_METRIC: &str = "req_rate";
/// The metric added by [`root_cause_fault`].
pub(crate) const FAULT_ADDED_METRIC: &str = "req_errors";

/// A chaos application plus its ground-truth cluster structure.
#[derive(Debug, Clone)]
pub struct ChaosApp {
    /// The application specification (all potential call edges included).
    pub spec: AppSpec,
    /// True number of behaviourally distinct varying metric families per
    /// component — what a perfect k-sweep would choose as `k`.
    pub true_cluster_counts: BTreeMap<String, usize>,
}

/// One component's chaos metric family: three behaviourally distinct
/// varying families plus one constant (to be variance-filtered).
///
/// * **Load family** (3 metrics): `req_rate`, `io_ops` (lagged, scaled),
///   `conn_active` — linear in the component's load, one shape.
/// * **Latency family** (2 metrics): `lat_mean`, `lat_p99` — saturating
///   `base * (1 + u^2)` curves; under an oscillating load the squared
///   utilisation doubles the frequency, a genuinely different shape.
/// * **Periodic family** (2 metrics): `gc_pause`, `flush_ops` — a
///   load-independent housekeeping oscillation.
/// * **Constant** (1 metric): `buf_limit`.
///
/// `Full` richness adds one redundant member to each varying family; the
/// family count — the true `k` — stays 3 either way.
pub(crate) fn chaos_component_metrics(
    load_gain: f64,
    capacity: f64,
    periodic_ticks: usize,
    richness: MetricRichness,
) -> Vec<MetricSpec> {
    let mut metrics = vec![
        MetricSpec::gauge(
            "req_rate",
            MetricBehavior::LoadProportional {
                gain: load_gain,
                offset: 0.0,
                noise_amplitude: 0.02 * load_gain.abs().max(0.01),
                lag_ticks: 0,
                ceiling: None,
            },
        ),
        MetricSpec::gauge(
            "io_ops",
            MetricBehavior::LoadProportional {
                gain: 2.5 * load_gain,
                offset: 4.0,
                noise_amplitude: 0.1 * load_gain.abs().max(0.01),
                lag_ticks: 1,
                ceiling: None,
            },
        ),
        MetricSpec::gauge(
            "conn_active",
            MetricBehavior::LoadProportional {
                gain: 0.4 * load_gain,
                offset: 2.0,
                noise_amplitude: 0.08 * load_gain.abs().max(0.01),
                lag_ticks: 0,
                ceiling: None,
            },
        ),
        MetricSpec::gauge("lat_mean", MetricBehavior::latency(20.0, capacity)),
        MetricSpec::gauge("lat_p99", MetricBehavior::latency(60.0, capacity)),
        MetricSpec::gauge(
            "gc_pause",
            MetricBehavior::Periodic {
                period_ticks: periodic_ticks,
                amplitude: 6.0,
                offset: 9.0,
            },
        ),
        MetricSpec::gauge(
            "flush_ops",
            MetricBehavior::Periodic {
                period_ticks: periodic_ticks,
                amplitude: 3.0,
                offset: 5.0,
            },
        ),
        MetricSpec::gauge("buf_limit", MetricBehavior::constant(4096.0)),
    ];
    if matches!(richness, MetricRichness::Full) {
        metrics.push(MetricSpec::gauge(
            "cpu_pct",
            MetricBehavior::LoadProportional {
                gain: 0.8 * load_gain,
                offset: 3.0,
                noise_amplitude: 0.12 * load_gain.abs().max(0.01),
                lag_ticks: 0,
                ceiling: Some(100.0),
            },
        ));
        metrics.push(MetricSpec::gauge(
            "lat_p50",
            MetricBehavior::latency(12.0, capacity),
        ));
        metrics.push(MetricSpec::gauge(
            "compact_ops",
            MetricBehavior::Periodic {
                period_ticks: periodic_ticks,
                amplitude: 2.0,
                offset: 3.0,
            },
        ));
    }
    metrics
}

/// Builds the chaos application: a gateway fanning out to two services
/// over a shared datastore, plus an async worker. The spec lists every
/// *potential* call edge — including the `svc-b -> worker` edge the drift
/// scenarios script on and off — and per-component capacities sized so a
/// base rate around 40 requests/tick keeps utilisation in the shape-rich
/// 0.2–0.9 band.
pub fn chaos_app(richness: MetricRichness) -> ChaosApp {
    let mut app = AppSpec::new("chaos", ENTRYPOINT);
    // (name, load_gain, latency-metric capacity, periodic phase ticks,
    //  component capacity_per_instance)
    let components: [(&str, f64, f64, usize, f64); 5] = [
        (ENTRYPOINT, 1.0, 120.0, 12, 150.0),
        (SVC_A, 1.2, 100.0, 14, 130.0),
        (SVC_B, 0.9, 100.0, 16, 130.0),
        (DB, 0.6, 260.0, 12, 320.0),
        (WORKER, 1.5, 90.0, 18, 110.0),
    ];
    for (name, gain, capacity, period, component_capacity) in components {
        let mut spec = ComponentSpec::new(name).with_capacity(component_capacity);
        for metric in chaos_component_metrics(gain, capacity, period, richness) {
            spec = spec.with_metric(metric);
        }
        app.add_component(spec);
    }
    app.add_call(CallSpec::new(ENTRYPOINT, SVC_A).with_lag_ms(500));
    app.add_call(CallSpec::new(ENTRYPOINT, SVC_B).with_lag_ms(500));
    app.add_call(CallSpec::new(SVC_A, DB).with_fanout(2.0).with_lag_ms(500));
    app.add_call(CallSpec::new(SVC_B, DB).with_lag_ms(500));
    app.add_call(CallSpec::new(SVC_A, WORKER).with_lag_ms(1000));
    // The drift edge: present in the spec, scripted on/off by scenarios.
    app.add_call(CallSpec::new(SVC_B, WORKER).with_lag_ms(1000));

    let true_cluster_counts = [ENTRYPOINT, SVC_A, SVC_B, DB, WORKER]
        .into_iter()
        .map(|c| (c.to_string(), 3))
        .collect();
    ChaosApp {
        spec: app,
        true_cluster_counts,
    }
}

/// The root-cause fault signature injected by the RCA scenarios: the
/// component's `req_rate` exporter dies, a `req_errors` gauge appears in
/// its place, and the component's capacity halves. The name swap gives the
/// faulted component a metric-novelty score of 2 while every innocent
/// component scores 0, and the changed cluster memberships make its edges
/// pass the RCA edge filter — so a correct five-step comparison ranks it
/// first.
pub fn root_cause_fault(component: &str) -> FaultScenario {
    FaultScenario::new(format!("chaos-root-cause-{component}"))
        .with_fault(Fault::RemoveMetric {
            component: component.to_string(),
            metric: FAULT_REMOVED_METRIC.to_string(),
        })
        .with_fault(Fault::AddMetric {
            component: component.to_string(),
            metric: MetricSpec::gauge(
                FAULT_ADDED_METRIC,
                MetricBehavior::LoadProportional {
                    gain: 1.1,
                    offset: 0.5,
                    noise_amplitude: 0.15,
                    lag_ticks: 0,
                    ceiling: None,
                },
            ),
        })
        .with_fault(Fault::DegradeCapacity {
            component: component.to_string(),
            factor: 0.5,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_app_validates_and_names_the_expected_topology() {
        let chaos = chaos_app(MetricRichness::Minimal);
        assert!(chaos.spec.validate().is_ok());
        assert_eq!(chaos.spec.component_count(), 5);
        assert_eq!(chaos.spec.calls().len(), 6);
        assert_eq!(chaos.spec.entrypoint, ENTRYPOINT);
        assert!(chaos
            .spec
            .calls()
            .iter()
            .any(|c| c.caller == SVC_B && c.callee == WORKER));
        assert_eq!(chaos.true_cluster_counts.len(), 5);
        assert!(chaos.true_cluster_counts.values().all(|&k| k == 3));
    }

    #[test]
    fn component_metrics_have_three_varying_families_and_a_constant() {
        for richness in [MetricRichness::Minimal, MetricRichness::Full] {
            let metrics = chaos_component_metrics(1.0, 100.0, 12, richness);
            let constants = metrics
                .iter()
                .filter(|m| matches!(m.behavior, MetricBehavior::Constant { .. }))
                .count();
            assert_eq!(constants, 1);
            let varying = metrics.len() - constants;
            assert!(varying >= 7);
            let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            let before = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), before, "metric names unique");
        }
        assert!(
            chaos_component_metrics(1.0, 100.0, 12, MetricRichness::Full).len()
                > chaos_component_metrics(1.0, 100.0, 12, MetricRichness::Minimal).len()
        );
    }

    #[test]
    fn root_cause_fault_swaps_the_metric_names() {
        let chaos = chaos_app(MetricRichness::Minimal);
        let faulty = root_cause_fault(SVC_A).applied_to(&chaos.spec).unwrap();
        let comp = faulty.component(SVC_A).unwrap();
        assert!(comp.metrics.iter().all(|m| m.name != FAULT_REMOVED_METRIC));
        assert!(comp.metrics.iter().any(|m| m.name == FAULT_ADDED_METRIC));
        assert!(
            comp.capacity_per_instance < chaos.spec.component(SVC_A).unwrap().capacity_per_instance
        );
        // Innocent components are untouched.
        assert_eq!(
            faulty.component(DB).unwrap().metrics.len(),
            chaos.spec.component(DB).unwrap().metrics.len()
        );
        assert!(faulty.validate().is_ok());
    }
}
