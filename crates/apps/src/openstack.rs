//! The OpenStack-like application model and the Launchpad-#1533942 fault.
//!
//! The paper's RCA case study (§4.2, §6.3) deploys OpenStack with Kolla,
//! drives it with Rally's `boot_and_delete` task and reproduces a documented
//! bug: the Neutron Open vSwitch agent crashes because of a deployment
//! configuration error, so newly launched VMs cannot get networking and fall
//! into the `ERROR` state ("No valid host was found"). Sieve's RCA engine is
//! expected to rank the Nova and Neutron components highest and to isolate
//! the edge between `nova_instances_in_state_ERROR` and
//! `neutron_ports_in_status_DOWN`.
//!
//! The model below mirrors the 16 components of Table 5, the metric families
//! they export, and — in the fault scenario [`faulty_app_spec`] applies —
//! the *observable* consequences of the bug: agent metrics freeze,
//! ACTIVE-state gauges go flat, ERROR/DOWN gauges start following load,
//! RabbitMQ retry traffic changes shape and some call edges change latency
//! or disappear.

use crate::profiles::{
    datastore_metrics, http_service_metrics, message_queue_metrics, system_metrics, MetricRichness,
};
use sieve_simulator::{
    AppSpec, CallSpec, ComponentSpec, Fault, FaultScenario, MetricBehavior, MetricSpec,
};

/// Name of the application.
pub(crate) const APP_NAME: &str = "openstack";

/// The entrypoint component (the API load balancer Rally talks to).
pub(crate) const ENTRYPOINT: &str = "haproxy";

/// The metric whose appearance signals the anomaly (VM launches failing).
pub const ERROR_METRIC: &str = "nova_instances_in_state_ERROR";

/// The metric carrying the true root cause (VM networking broken).
pub const ROOT_CAUSE_METRIC: &str = "neutron_ports_in_status_DOWN";

/// The 16 OpenStack components modelled here (matching Table 5).
pub const COMPONENTS: [&str; 16] = [
    "haproxy",
    "nova-api",
    "nova-scheduler",
    "nova-conductor",
    "nova-compute",
    "nova-libvirt",
    "nova-novncproxy",
    "neutron-server",
    "neutron-l3-agent",
    "neutron-dhcp-agent",
    "neutron-ovs-agent",
    "glance-api",
    "glance-registry",
    "keystone",
    "rabbitmq",
    "memcached",
];

/// Builds the (correct-version) OpenStack application model.
pub fn app_spec(richness: MetricRichness) -> AppSpec {
    let mut app = AppSpec::new(APP_NAME, ENTRYPOINT);

    app.add_component(
        ComponentSpec::new("haproxy")
            .with_capacity(400.0)
            .with_metrics(system_metrics(0.3, richness))
            .with_metrics(http_service_metrics("haproxy_frontend", 400.0, richness)),
    );

    // Nova control plane.
    let mut nova_api = ComponentSpec::new("nova-api")
        .with_capacity(150.0)
        .with_metrics(system_metrics(1.0, richness))
        .with_metrics(http_service_metrics("nova_api", 150.0, richness))
        .with_metric(MetricSpec::gauge(
            "nova_instances_in_state_ACTIVE",
            MetricBehavior::load_proportional(4.5),
        ))
        .with_metric(MetricSpec::gauge(
            "nova_instances_in_state_BUILD",
            MetricBehavior::LoadProportional {
                gain: 1.2,
                offset: 0.0,
                noise_amplitude: 0.3,
                lag_ticks: 1,
                ceiling: None,
            },
        ))
        .with_metric(MetricSpec::gauge(
            ERROR_METRIC,
            // Healthy deployments see essentially no ERROR instances.
            MetricBehavior::constant(0.0),
        ));
    if matches!(richness, MetricRichness::Full) {
        nova_api = nova_api
            .with_metric(MetricSpec::gauge(
                "nova_instances_in_state_DELETED",
                MetricBehavior::LoadProportional {
                    gain: 4.0,
                    offset: 0.0,
                    noise_amplitude: 0.4,
                    lag_ticks: 3,
                    ceiling: None,
                },
            ))
            .with_metric(MetricSpec::counter(
                "nova_boot_requests_total",
                MetricBehavior::counter(1.0),
            ));
    }
    app.add_component(nova_api);

    app.add_component(
        ComponentSpec::new("nova-scheduler")
            .with_capacity(200.0)
            .with_metrics(system_metrics(0.6, richness))
            .with_metric(MetricSpec::gauge(
                "scheduler_placements_per_second",
                MetricBehavior::load_proportional(1.0),
            ))
            .with_metric(MetricSpec::gauge(
                "scheduler_host_candidates",
                MetricBehavior::constant(2.0),
            ))
            .with_metric(MetricSpec::gauge(
                "scheduler_decision_time_ms",
                MetricBehavior::latency(12.0, 200.0),
            )),
    );

    app.add_component(
        ComponentSpec::new("nova-conductor")
            .with_capacity(250.0)
            .with_metrics(system_metrics(0.5, richness))
            .with_metric(MetricSpec::gauge(
                "conductor_rpc_per_second",
                MetricBehavior::load_proportional(2.0),
            ))
            .with_metric(MetricSpec::gauge(
                "conductor_db_time_ms",
                MetricBehavior::latency(6.0, 250.0),
            )),
    );

    app.add_component(
        ComponentSpec::new("nova-compute")
            .with_capacity(120.0)
            .with_metrics(system_metrics(1.2, richness))
            .with_metric(MetricSpec::gauge(
                "compute_build_requests_per_second",
                MetricBehavior::load_proportional(1.0),
            ))
            .with_metric(MetricSpec::gauge(
                "compute_build_time_ms",
                MetricBehavior::latency(150.0, 100.0),
            )),
    );

    app.add_component(
        ComponentSpec::new("nova-libvirt")
            .with_capacity(100.0)
            .with_metrics(system_metrics(1.5, richness))
            .with_metric(MetricSpec::gauge(
                "libvirt_domains_running",
                MetricBehavior::LoadProportional {
                    gain: 4.0,
                    offset: 0.0,
                    noise_amplitude: 0.3,
                    lag_ticks: 2,
                    ceiling: None,
                },
            ))
            .with_metric(MetricSpec::gauge(
                "libvirt_vcpus_used",
                MetricBehavior::LoadProportional {
                    gain: 8.0,
                    offset: 0.0,
                    noise_amplitude: 0.5,
                    lag_ticks: 2,
                    ceiling: None,
                },
            ))
            .with_metric(MetricSpec::gauge(
                "libvirt_memory_used_mb",
                MetricBehavior::LoadProportional {
                    gain: 512.0,
                    offset: 1024.0,
                    noise_amplitude: 32.0,
                    lag_ticks: 2,
                    ceiling: None,
                },
            )),
    );

    app.add_component(
        ComponentSpec::new("nova-novncproxy")
            .with_capacity(300.0)
            .with_metrics(system_metrics(0.2, richness))
            .with_metric(MetricSpec::gauge(
                "novnc_sessions_active",
                MetricBehavior::load_proportional(0.1),
            )),
    );

    // Neutron networking plane.
    let mut neutron_server = ComponentSpec::new("neutron-server")
        .with_capacity(180.0)
        .with_metrics(system_metrics(0.9, richness))
        .with_metrics(http_service_metrics("neutron_api", 180.0, richness))
        .with_metric(MetricSpec::gauge(
            "neutron_ports_in_status_ACTIVE",
            MetricBehavior::LoadProportional {
                gain: 3.0,
                offset: 0.0,
                noise_amplitude: 0.4,
                lag_ticks: 2,
                ceiling: None,
            },
        ))
        .with_metric(MetricSpec::gauge(
            ROOT_CAUSE_METRIC,
            // Healthy deployments keep essentially no DOWN ports.
            MetricBehavior::constant(0.0),
        ));
    if matches!(richness, MetricRichness::Full) {
        neutron_server = neutron_server.with_metric(MetricSpec::gauge(
            "neutron_networks_total",
            MetricBehavior::load_proportional(0.8),
        ));
    }
    app.add_component(neutron_server);

    for (agent, gain) in [
        ("neutron-l3-agent", 0.6),
        ("neutron-dhcp-agent", 0.5),
        ("neutron-ovs-agent", 0.8),
    ] {
        let prefix = agent.replace('-', "_");
        app.add_component(
            ComponentSpec::new(agent)
                .with_capacity(150.0)
                .with_metrics(system_metrics(gain, richness))
                .with_metric(MetricSpec::gauge(
                    format!("{prefix}_devices_configured_per_second"),
                    MetricBehavior::load_proportional(1.0),
                ))
                .with_metric(MetricSpec::gauge(
                    format!("{prefix}_sync_time_ms"),
                    MetricBehavior::latency(25.0, 150.0),
                )),
        );
    }

    // Glance image service.
    app.add_component(
        ComponentSpec::new("glance-api")
            .with_capacity(200.0)
            .with_metrics(system_metrics(0.7, richness))
            .with_metrics(http_service_metrics("glance_api", 200.0, richness)),
    );
    app.add_component(
        ComponentSpec::new("glance-registry")
            .with_capacity(250.0)
            .with_metrics(system_metrics(0.4, richness))
            .with_metrics(datastore_metrics("glance_registry", 250.0, richness)),
    );

    // Identity + auxiliaries.
    app.add_component(
        ComponentSpec::new("keystone")
            .with_capacity(300.0)
            .with_metrics(system_metrics(0.5, richness))
            .with_metrics(http_service_metrics("keystone", 300.0, richness)),
    );
    app.add_component(
        ComponentSpec::new("rabbitmq")
            .with_capacity(600.0)
            .with_metrics(system_metrics(0.6, richness))
            .with_metrics(message_queue_metrics(richness)),
    );
    app.add_component(
        ComponentSpec::new("memcached")
            .with_capacity(900.0)
            .with_metrics(system_metrics(0.3, richness))
            .with_metrics(datastore_metrics("memcached", 900.0, richness)),
    );

    // Topology: Rally -> haproxy -> the API services.
    for (callee, fanout) in [
        ("nova-api", 1.0),
        ("keystone", 0.8),
        ("glance-api", 0.3),
        ("neutron-server", 0.4),
        ("nova-novncproxy", 0.05),
    ] {
        app.add_call(
            CallSpec::new("haproxy", callee)
                .with_fanout(fanout)
                .with_lag_ms(500),
        );
    }

    // Nova boot workflow.
    for (caller, callee, fanout, lag) in [
        ("nova-api", "keystone", 0.5, 500),
        ("nova-api", "rabbitmq", 2.0, 500),
        ("nova-api", "neutron-server", 0.8, 500),
        ("nova-api", "glance-api", 0.5, 500),
        ("nova-api", "nova-scheduler", 1.0, 500),
        ("nova-scheduler", "rabbitmq", 1.5, 500),
        ("nova-scheduler", "nova-compute", 1.0, 1000),
        ("nova-conductor", "rabbitmq", 1.2, 500),
        ("nova-api", "nova-conductor", 0.8, 500),
        ("nova-compute", "nova-libvirt", 1.0, 1000),
        ("nova-compute", "glance-api", 0.4, 1000),
        ("nova-compute", "rabbitmq", 1.0, 500),
        ("nova-compute", "neutron-ovs-agent", 0.8, 1000),
        ("glance-api", "glance-registry", 1.0, 500),
        ("glance-api", "keystone", 0.3, 500),
        ("keystone", "memcached", 1.5, 500),
        ("neutron-server", "rabbitmq", 1.0, 500),
        ("neutron-server", "neutron-l3-agent", 0.6, 1000),
        ("neutron-server", "neutron-dhcp-agent", 0.6, 1000),
        ("neutron-server", "neutron-ovs-agent", 0.9, 1000),
        ("neutron-server", "keystone", 0.3, 500),
    ] {
        app.add_call(
            CallSpec::new(caller, callee)
                .with_fanout(fanout)
                .with_lag_ms(lag),
        );
    }

    app
}

/// The fault scenario reproducing the observable consequences of Launchpad
/// bug #1533942 (Neutron Open vSwitch agent crash caused by a Kolla
/// deployment misconfiguration).
pub(crate) fn ovs_agent_crash_scenario() -> FaultScenario {
    FaultScenario::new("neutron-ovs-agent-crash")
        // The agent itself dies: its activity metrics freeze at zero and the
        // components that used to push work to it stop reaching it.
        .with_fault(Fault::ReplaceMetricBehavior {
            component: "neutron-ovs-agent".into(),
            metric: "neutron_ovs_agent_devices_configured_per_second".into(),
            replacement: MetricSpec::gauge("ignored", MetricBehavior::constant(0.0)),
        })
        .with_fault(Fault::ReplaceMetricBehavior {
            component: "neutron-ovs-agent".into(),
            metric: "neutron_ovs_agent_sync_time_ms".into(),
            replacement: MetricSpec::gauge("ignored", MetricBehavior::constant(0.0)),
        })
        .with_fault(Fault::ReplaceMetricBehavior {
            component: "neutron-ovs-agent".into(),
            metric: "cpu_usage".into(),
            replacement: MetricSpec::gauge("ignored", MetricBehavior::constant(0.1)),
        })
        .with_fault(Fault::DropCall {
            caller: "neutron-server".into(),
            callee: "neutron-ovs-agent".into(),
        })
        .with_fault(Fault::DropCall {
            caller: "nova-compute".into(),
            callee: "neutron-ovs-agent".into(),
        })
        // VM networking never comes up: DOWN ports track load, ACTIVE ports
        // stay flat.
        .with_fault(Fault::ReplaceMetricBehavior {
            component: "neutron-server".into(),
            metric: ROOT_CAUSE_METRIC.into(),
            replacement: MetricSpec::gauge(
                "ignored",
                MetricBehavior::LoadProportional {
                    gain: 3.0,
                    offset: 0.0,
                    noise_amplitude: 0.4,
                    lag_ticks: 2,
                    ceiling: None,
                },
            ),
        })
        .with_fault(Fault::ReplaceMetricBehavior {
            component: "neutron-server".into(),
            metric: "neutron_ports_in_status_ACTIVE".into(),
            replacement: MetricSpec::gauge("ignored", MetricBehavior::constant(0.0)),
        })
        // Instances fail to launch: ERROR instances track load, ACTIVE and
        // BUILD states collapse.
        .with_fault(Fault::ReplaceMetricBehavior {
            component: "nova-api".into(),
            metric: ERROR_METRIC.into(),
            replacement: MetricSpec::gauge(
                "ignored",
                MetricBehavior::LoadProportional {
                    gain: 4.5,
                    offset: 0.0,
                    noise_amplitude: 0.3,
                    lag_ticks: 3,
                    ceiling: None,
                },
            ),
        })
        .with_fault(Fault::ReplaceMetricBehavior {
            component: "nova-api".into(),
            metric: "nova_instances_in_state_ACTIVE".into(),
            replacement: MetricSpec::gauge("ignored", MetricBehavior::constant(0.0)),
        })
        // No VMs ever reach the hypervisor: libvirt metrics flatten.
        .with_fault(Fault::ReplaceMetricBehavior {
            component: "nova-libvirt".into(),
            metric: "libvirt_domains_running".into(),
            replacement: MetricSpec::gauge("ignored", MetricBehavior::constant(0.0)),
        })
        .with_fault(Fault::ReplaceMetricBehavior {
            component: "nova-libvirt".into(),
            metric: "libvirt_vcpus_used".into(),
            replacement: MetricSpec::gauge("ignored", MetricBehavior::constant(0.0)),
        })
        .with_fault(Fault::ReplaceMetricBehavior {
            component: "nova-libvirt".into(),
            metric: "libvirt_memory_used_mb".into(),
            replacement: MetricSpec::gauge("ignored", MetricBehavior::constant(1024.0)),
        })
        .with_fault(Fault::ReplaceMetricBehavior {
            component: "nova-libvirt".into(),
            metric: "cpu_usage".into(),
            replacement: MetricSpec::gauge("ignored", MetricBehavior::constant(0.5)),
        })
        // Scheduler keeps retrying placements that fail late: its decision
        // time inflates and host candidates drop to zero variance at 0.
        .with_fault(Fault::ReplaceMetricBehavior {
            component: "nova-scheduler".into(),
            metric: "scheduler_decision_time_ms".into(),
            replacement: MetricSpec::gauge("ignored", MetricBehavior::latency(60.0, 80.0)),
        })
        // RabbitMQ sees retry storms: the ack backlog now follows load much
        // more strongly, and message delivery to compute slows down.
        .with_fault(Fault::ReplaceMetricBehavior {
            component: "rabbitmq".into(),
            metric: "messages_ack_diff".into(),
            replacement: MetricSpec::gauge(
                "ignored",
                MetricBehavior::LoadProportional {
                    gain: 2.5,
                    offset: 0.0,
                    noise_amplitude: 0.4,
                    lag_ticks: 2,
                    ceiling: None,
                },
            ),
        })
        .with_fault(Fault::ChangeCallLag {
            caller: "nova-scheduler".into(),
            callee: "nova-compute".into(),
            lag_ms: 2000,
        })
        .with_fault(Fault::ChangeCallLag {
            caller: "nova-api".into(),
            callee: "neutron-server".into(),
            lag_ms: 1500,
        })
        // The API returns errors quickly instead of doing real work, so some
        // of its request handling degrades.
        .with_fault(Fault::DegradeCapacity {
            component: "nova-api".into(),
            factor: 0.6,
        })
}

/// Convenience: the faulty-version application spec (correct spec + the OVS
/// agent crash scenario).
///
/// # Panics
///
/// Never panics for the specs built by [`app_spec`]; the scenario only
/// references components and metrics that exist in both richness modes.
pub fn faulty_app_spec(richness: MetricRichness) -> AppSpec {
    ovs_agent_crash_scenario()
        .applied_to(&app_spec(richness))
        .expect("fault scenario matches the OpenStack model")
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
            assert_eq!(app.component_count(), 16);
        }
    }

    #[test]
    fn component_names_match_table_5() {
        let app = app_spec(MetricRichness::Minimal);
        for name in COMPONENTS {
            assert!(app.component(name).is_some(), "missing component {name}");
        }
    }

    #[test]
    fn full_richness_approximates_the_papers_metric_count() {
        let total = app_spec(MetricRichness::Full).total_metric_count();
        // Table 5 reports 508 metrics across the 16 components.
        assert!(total > 250, "only {total} metrics");
        assert!(total < 900, "{total} metrics is far beyond Table 5");
    }

    #[test]
    fn faulty_spec_is_valid_and_differs_from_the_correct_one() {
        for richness in [MetricRichness::Minimal, MetricRichness::Full] {
            let correct = app_spec(richness);
            let faulty = faulty_app_spec(richness);
            assert!(faulty.validate().is_ok());
            assert_ne!(correct, faulty);
            // The crashed agent lost its call edges.
            assert!(correct
                .calls()
                .iter()
                .any(|c| c.callee == "neutron-ovs-agent"));
            assert!(!faulty
                .calls()
                .iter()
                .any(|c| c.callee == "neutron-ovs-agent"));
        }
    }

    #[test]
    fn scenario_matches_documented_symptoms() {
        let scenario = ovs_agent_crash_scenario();
        assert_eq!(scenario.name, "neutron-ovs-agent-crash");
        assert!(scenario.faults.len() >= 10);
    }

    #[test]
    fn error_metric_reacts_to_load_only_in_the_faulty_version() {
        let workload = Workload::constant(40.0);
        let config = SimConfig::new(7).with_duration_ms(60_000);

        let mut correct =
            Simulation::new(app_spec(MetricRichness::Minimal), workload.clone(), config).unwrap();
        correct.run_to_completion();
        let correct_errors = correct
            .store()
            .series(&MetricId::new("nova-api", ERROR_METRIC))
            .unwrap();
        assert!(sieve_timeseries::variance(correct_errors.values()) < 1e-9);

        let mut faulty =
            Simulation::new(faulty_app_spec(MetricRichness::Minimal), workload, config).unwrap();
        faulty.run_to_completion();
        let faulty_errors = faulty
            .store()
            .series(&MetricId::new("nova-api", ERROR_METRIC))
            .unwrap();
        assert!(sieve_timeseries::variance(faulty_errors.values()) > 1.0);
        let faulty_ports = faulty
            .store()
            .series(&MetricId::new("neutron-server", ROOT_CAUSE_METRIC))
            .unwrap();
        assert!(sieve_timeseries::variance(faulty_ports.values()) > 1.0);
    }
}
