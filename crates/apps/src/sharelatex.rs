//! The ShareLatex-like application model.
//!
//! ShareLatex (§4.1 of the paper) is "structured as a microservices-based
//! application, delegating tasks to multiple well-defined components that
//! include a KV-store, load balancer, two databases and 11 node.js based
//! components". The model below uses the same 15 component names that appear
//! in Figures 4 and 6 of the paper, wires them with the topology implied by
//! the application (haproxy in front of `web` and `real-time`, `web` fanning
//! out to the feature services, everything persisting into MongoDB /
//! PostgreSQL / Redis), and exports the metric families such services expose.
//!
//! The metric the paper's autoscaling case study ends up selecting,
//! `http-requests_Project_id_GET_mean`, is exported by the `web` component
//! as a saturating latency metric.

use crate::profiles::{datastore_metrics, http_service_metrics, system_metrics, MetricRichness};
use sieve_simulator::{AppSpec, CallSpec, ComponentSpec, MetricBehavior, MetricSpec};

/// Name of the application.
pub(crate) const APP_NAME: &str = "sharelatex";

/// The entrypoint component (the load balancer).
pub(crate) const ENTRYPOINT: &str = "haproxy";

/// The application metric Sieve identifies as the best autoscaling trigger
/// in the paper's case study (§6.2).
pub const GUIDING_METRIC: &str = "http-requests_Project_id_GET_mean";

/// The component exporting [`GUIDING_METRIC`].
pub const GUIDING_COMPONENT: &str = "web";

/// The 15 ShareLatex components modelled here (the names used in Figures 4
/// and 6 of the paper).
pub const COMPONENTS: [&str; 15] = [
    "haproxy",
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
    "mongodb",
    "postgresql",
    "redis",
];

/// Builds the ShareLatex application model.
pub fn app_spec(richness: MetricRichness) -> AppSpec {
    let mut app = AppSpec::new(APP_NAME, ENTRYPOINT);

    // Load balancer.
    app.add_component(
        ComponentSpec::new("haproxy")
            .with_capacity(400.0)
            .with_metrics(system_metrics(0.3, richness))
            .with_metrics(http_service_metrics("haproxy_frontend", 400.0, richness)),
    );

    // The main web front-end: exports the guiding metric of the case study.
    // The node.js web tier is I/O bound, so its CPU usage is a weak and
    // noisy proxy of the actual SLA risk — exactly the property that makes
    // the traditional CPU-based autoscaling trigger perform worse than the
    // latency metric Sieve selects (§6.2).
    let web_system_metrics: Vec<MetricSpec> = system_metrics(0.35, richness)
        .into_iter()
        .map(|m| {
            if m.name == "cpu_usage" {
                // CloudWatch-style CPU metrics are averaged over a reporting
                // window, so as an autoscaling trigger the signal is both
                // noisy and stale (here: 10 s behind the actual load, far
                // less than CloudWatch's one-minute minimum period).
                MetricSpec::gauge(
                    "cpu_usage",
                    MetricBehavior::LoadProportional {
                        gain: 0.35,
                        offset: 1.0,
                        noise_amplitude: 5.0,
                        lag_ticks: 20,
                        ceiling: Some(100.0),
                    },
                )
            } else {
                m
            }
        })
        .collect();
    let mut web = ComponentSpec::new("web")
        .with_capacity(120.0)
        .with_metrics(web_system_metrics)
        .with_metrics(http_service_metrics("http-requests", 120.0, richness))
        .with_metric(MetricSpec::gauge(
            GUIDING_METRIC,
            MetricBehavior::latency(180.0, 110.0),
        ))
        .with_metric(MetricSpec::gauge(
            "active_users",
            MetricBehavior::load_proportional(0.9),
        ));
    if matches!(richness, MetricRichness::Full) {
        web = web
            .with_metric(MetricSpec::gauge(
                "http-requests_Project_id_POST_mean",
                MetricBehavior::latency(210.0, 110.0),
            ))
            .with_metric(MetricSpec::gauge(
                "http-requests_project_id_download_mean",
                MetricBehavior::latency(260.0, 100.0),
            ))
            .with_metric(MetricSpec::counter(
                "login_attempts_total",
                MetricBehavior::counter(0.2),
            ));
    }
    app.add_component(web);

    // Websocket layer.
    app.add_component(
        ComponentSpec::new("real-time")
            .with_capacity(200.0)
            .with_metrics(system_metrics(0.7, richness))
            .with_metrics(http_service_metrics("websocket", 200.0, richness)),
    );

    // node.js feature services.
    for (name, gain, capacity) in [
        ("chat", 0.4, 150.0),
        ("clsi", 1.4, 60.0), // LaTeX compilation is CPU heavy
        ("contacts", 0.3, 200.0),
        ("doc-updater", 1.0, 100.0),
        ("docstore", 0.6, 150.0),
        ("filestore", 0.7, 120.0),
        ("spelling", 0.5, 150.0),
        ("tags", 0.3, 200.0),
        ("track-changes", 0.6, 130.0),
    ] {
        app.add_component(
            ComponentSpec::new(name)
                .with_capacity(capacity)
                .with_metrics(system_metrics(gain, richness))
                .with_metrics(http_service_metrics(name, capacity, richness)),
        );
    }

    // Datastores.
    app.add_component(
        ComponentSpec::new("mongodb")
            .with_capacity(500.0)
            .with_metrics(system_metrics(0.8, richness))
            .with_metrics(datastore_metrics("mongodb", 500.0, richness)),
    );
    app.add_component(
        ComponentSpec::new("postgresql")
            .with_capacity(300.0)
            .with_metrics(system_metrics(0.5, richness))
            .with_metrics(datastore_metrics("postgresql", 300.0, richness)),
    );
    app.add_component(
        ComponentSpec::new("redis")
            .with_capacity(800.0)
            .with_metrics(system_metrics(0.4, richness))
            .with_metrics(datastore_metrics("redis", 800.0, richness)),
    );

    // Topology: haproxy fronts web and the websocket layer.
    app.add_call(
        CallSpec::new("haproxy", "web")
            .with_fanout(1.0)
            .with_lag_ms(500),
    );
    app.add_call(
        CallSpec::new("haproxy", "real-time")
            .with_fanout(0.5)
            .with_lag_ms(500),
    );

    // web fans out to the feature services and the datastores.
    for (callee, fanout) in [
        ("chat", 0.2),
        ("clsi", 0.3),
        ("contacts", 0.1),
        ("doc-updater", 0.8),
        ("docstore", 0.6),
        ("filestore", 0.3),
        ("spelling", 0.4),
        ("tags", 0.1),
        ("track-changes", 0.3),
        ("mongodb", 1.2),
        ("redis", 1.5),
        ("postgresql", 0.4),
    ] {
        app.add_call(
            CallSpec::new("web", callee)
                .with_fanout(fanout)
                .with_lag_ms(500),
        );
    }

    // real-time pushes edits through doc-updater and Redis pub/sub.
    app.add_call(
        CallSpec::new("real-time", "doc-updater")
            .with_fanout(0.9)
            .with_lag_ms(500),
    );
    app.add_call(
        CallSpec::new("real-time", "redis")
            .with_fanout(1.2)
            .with_lag_ms(500),
    );

    // Feature services persist into the datastores.
    for (caller, callee, fanout) in [
        ("doc-updater", "mongodb", 1.0),
        ("doc-updater", "redis", 1.5),
        ("doc-updater", "track-changes", 0.5),
        ("docstore", "mongodb", 1.2),
        ("chat", "mongodb", 0.8),
        ("contacts", "mongodb", 0.6),
        ("tags", "mongodb", 0.7),
        ("track-changes", "mongodb", 0.9),
        ("spelling", "postgresql", 0.8),
        ("clsi", "postgresql", 0.5),
        ("filestore", "mongodb", 0.4),
    ] {
        app.add_call(
            CallSpec::new(caller, callee)
                .with_fanout(fanout)
                .with_lag_ms(1000),
        );
    }

    app
}

#[cfg(test)]
mod tests {
    use super::*;
    use sieve_simulator::store::MetricId;
    use sieve_simulator::{SimConfig, Simulation, Workload};

    #[test]
    fn spec_is_valid_in_both_richness_modes() {
        for richness in [MetricRichness::Minimal, MetricRichness::Full] {
            let app = app_spec(richness);
            assert!(app.validate().is_ok());
            assert_eq!(app.component_count(), 15);
        }
    }

    #[test]
    fn component_names_match_the_paper() {
        let app = app_spec(MetricRichness::Minimal);
        for name in COMPONENTS {
            assert!(app.component(name).is_some(), "missing component {name}");
        }
    }

    #[test]
    fn full_richness_approximates_the_papers_metric_count() {
        let full = app_spec(MetricRichness::Full).total_metric_count();
        // The paper reports 889 unique metrics for ShareLatex; the model
        // should be the same order of magnitude (several hundred).
        assert!(full > 300, "full model has only {full} metrics");
        assert!(full < 1500, "full model has {full} metrics, too many");
        let minimal = app_spec(MetricRichness::Minimal).total_metric_count();
        assert!(minimal < full / 2);
    }

    #[test]
    fn guiding_metric_is_exported_by_web() {
        let app = app_spec(MetricRichness::Minimal);
        let web = app.component(GUIDING_COMPONENT).unwrap();
        assert!(web.metrics.iter().any(|m| m.name == GUIDING_METRIC));
    }

    #[test]
    fn topology_connects_haproxy_through_web_to_the_datastores() {
        let app = app_spec(MetricRichness::Minimal);
        let calls = app.calls();
        assert!(calls
            .iter()
            .any(|c| c.caller == "haproxy" && c.callee == "web"));
        assert!(calls
            .iter()
            .any(|c| c.caller == "web" && c.callee == "mongodb"));
        assert!(calls
            .iter()
            .any(|c| c.caller == "doc-updater" && c.callee == "redis"));
        // No component calls haproxy (it is the entrypoint).
        assert!(calls.iter().all(|c| c.callee != "haproxy"));
    }

    #[test]
    fn simulation_produces_load_dependent_guiding_metric() {
        let app = app_spec(MetricRichness::Minimal);
        let config = SimConfig::new(42).with_duration_ms(60_000);
        let mut sim = Simulation::new(app, Workload::spike(5.0, 300.0, 40, 90), config).unwrap();
        sim.run_to_completion();
        let series = sim
            .store()
            .series(&MetricId::new(GUIDING_COMPONENT, GUIDING_METRIC))
            .unwrap();
        let early: f64 = series.values()[..30].iter().sum::<f64>() / 30.0;
        let spike: f64 = series.values()[60..90].iter().sum::<f64>() / 30.0;
        assert!(
            spike > 1.5 * early,
            "guiding metric should react to the load spike ({early} -> {spike})"
        );
        // The call graph observed by the tracer covers the whole topology.
        assert_eq!(sim.call_graph().component_count(), 15);
    }
}
