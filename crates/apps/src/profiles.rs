//! Shared metric-family builders.
//!
//! Real components export a mixture of system metrics (collected by Telegraf
//! from the OS and Docker), runtime metrics (garbage collection, thread
//! pools) and application metrics (request rates, latencies, business
//! counters). The builders here generate those families with the behaviours
//! the Sieve pipeline cares about: load-following gauges, saturating
//! latencies, monotone counters, constants (to be filtered) and pure noise.

use sieve_simulator::{MetricBehavior, MetricSpec};

/// How many metrics each component exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricRichness {
    /// A handful of metrics per component; keeps tests fast.
    Minimal,
    /// Approximates the per-component metric counts reported in the paper
    /// (hundreds of metrics per application).
    Full,
}

/// System-level metrics every containerised component exports (CPU, memory,
/// network, disk, plus a few constants and noise metrics). `load_gain`
/// scales how strongly resource usage follows the component's load; `extra`
/// adds redundant percentile/average variants in `Full` mode.
pub(crate) fn system_metrics(load_gain: f64, richness: MetricRichness) -> Vec<MetricSpec> {
    let mut metrics = vec![
        MetricSpec::gauge("cpu_usage", MetricBehavior::cpu_like(load_gain)),
        MetricSpec::gauge(
            "memory_usage_bytes",
            MetricBehavior::LoadProportional {
                gain: load_gain * 1.0e5,
                offset: 5.0e7,
                noise_amplitude: 1.0e5,
                lag_ticks: 1,
                ceiling: None,
            },
        ),
        MetricSpec::counter(
            "net_bytes_recv_total",
            MetricBehavior::counter(load_gain * 900.0),
        ),
        MetricSpec::counter(
            "net_bytes_sent_total",
            MetricBehavior::counter(load_gain * 1400.0),
        ),
    ];
    if matches!(richness, MetricRichness::Full) {
        metrics.extend(vec![
            MetricSpec::gauge("cpu_usage_user", MetricBehavior::cpu_like(load_gain * 0.7)),
            MetricSpec::gauge(
                "cpu_usage_system",
                MetricBehavior::cpu_like(load_gain * 0.3),
            ),
            MetricSpec::gauge(
                "cpu_usage_iowait",
                MetricBehavior::cpu_like(load_gain * 0.1),
            ),
            MetricSpec::gauge(
                "memory_rss_bytes",
                MetricBehavior::LoadProportional {
                    gain: load_gain * 9.0e4,
                    offset: 4.5e7,
                    noise_amplitude: 1.0e5,
                    lag_ticks: 1,
                    ceiling: None,
                },
            ),
            MetricSpec::gauge(
                "memory_heap_bytes",
                MetricBehavior::LoadProportional {
                    gain: load_gain * 6.0e4,
                    offset: 2.0e7,
                    noise_amplitude: 2.0e5,
                    lag_ticks: 2,
                    ceiling: None,
                },
            ),
            MetricSpec::counter(
                "net_packets_recv_total",
                MetricBehavior::counter(load_gain * 12.0),
            ),
            MetricSpec::counter(
                "net_packets_sent_total",
                MetricBehavior::counter(load_gain * 15.0),
            ),
            MetricSpec::counter(
                "disk_read_bytes_total",
                MetricBehavior::counter(load_gain * 300.0),
            ),
            MetricSpec::counter(
                "disk_write_bytes_total",
                MetricBehavior::counter(load_gain * 800.0),
            ),
            MetricSpec::counter(
                "context_switches_total",
                MetricBehavior::counter(load_gain * 40.0),
            ),
            // Constants that the variance filter should drop.
            MetricSpec::gauge("open_file_limit", MetricBehavior::constant(65536.0)),
            MetricSpec::gauge("num_cpus", MetricBehavior::constant(4.0)),
            MetricSpec::gauge(
                "container_memory_limit_bytes",
                MetricBehavior::constant(8.0e9),
            ),
            // Load-independent noise and periodic housekeeping signals.
            MetricSpec::gauge(
                "clock_skew_ms",
                MetricBehavior::RandomWalk {
                    step: 0.2,
                    bound: 5.0,
                },
            ),
            MetricSpec::gauge(
                "gc_pause_ms",
                MetricBehavior::Periodic {
                    period_ticks: 53,
                    amplitude: 3.0,
                    offset: 4.0,
                },
            ),
        ]);
    }
    metrics
}

/// HTTP-service metrics (request rate, latency mean and percentiles, error
/// counters). The latency metrics saturate against `capacity`.
pub(crate) fn http_service_metrics(
    prefix: &str,
    capacity: f64,
    richness: MetricRichness,
) -> Vec<MetricSpec> {
    let mut metrics = vec![
        MetricSpec::gauge(
            format!("{prefix}_requests_per_second"),
            MetricBehavior::load_proportional(1.0),
        ),
        MetricSpec::gauge(
            format!("{prefix}_request_time_mean"),
            MetricBehavior::latency(35.0, capacity),
        ),
        MetricSpec::counter(
            format!("{prefix}_requests_total"),
            MetricBehavior::counter(1.0),
        ),
    ];
    if matches!(richness, MetricRichness::Full) {
        for (suffix, base) in [("p50", 30.0), ("p90", 55.0), ("p99", 90.0)] {
            metrics.push(MetricSpec::gauge(
                format!("{prefix}_request_time_{suffix}"),
                MetricBehavior::latency(base, capacity),
            ));
        }
        metrics.push(MetricSpec::gauge(
            format!("{prefix}_active_connections"),
            MetricBehavior::load_proportional(0.8),
        ));
        metrics.push(MetricSpec::gauge(
            format!("{prefix}_queue_depth"),
            MetricBehavior::LoadProportional {
                gain: 0.2,
                offset: 0.0,
                noise_amplitude: 0.1,
                lag_ticks: 1,
                ceiling: None,
            },
        ));
        metrics.push(MetricSpec::counter(
            format!("{prefix}_errors_total"),
            MetricBehavior::counter(0.01),
        ));
        metrics.push(MetricSpec::gauge(
            format!("{prefix}_response_size_mean_bytes"),
            MetricBehavior::LoadProportional {
                gain: 0.0,
                offset: 2048.0,
                noise_amplitude: 64.0,
                lag_ticks: 0,
                ceiling: None,
            },
        ));
    }
    metrics
}

/// Database/KV-store metrics (query rate, query latency, connections, cache
/// statistics).
pub(crate) fn datastore_metrics(
    prefix: &str,
    capacity: f64,
    richness: MetricRichness,
) -> Vec<MetricSpec> {
    let mut metrics = vec![
        MetricSpec::gauge(
            format!("{prefix}_queries_per_second"),
            MetricBehavior::load_proportional(2.5),
        ),
        MetricSpec::gauge(
            format!("{prefix}_query_time_mean"),
            MetricBehavior::latency(8.0, capacity),
        ),
        MetricSpec::gauge(
            format!("{prefix}_connections_active"),
            MetricBehavior::load_proportional(0.4),
        ),
    ];
    if matches!(richness, MetricRichness::Full) {
        metrics.extend(vec![
            MetricSpec::counter(
                format!("{prefix}_queries_total"),
                MetricBehavior::counter(2.5),
            ),
            MetricSpec::gauge(
                format!("{prefix}_cache_hit_ratio"),
                MetricBehavior::LoadProportional {
                    gain: -0.001,
                    offset: 0.95,
                    noise_amplitude: 0.01,
                    lag_ticks: 1,
                    ceiling: Some(1.0),
                },
            ),
            MetricSpec::gauge(
                format!("{prefix}_lock_wait_ms"),
                MetricBehavior::latency(0.5, capacity * 0.8),
            ),
            MetricSpec::counter(
                format!("{prefix}_bytes_written_total"),
                MetricBehavior::counter(500.0),
            ),
            MetricSpec::gauge(
                format!("{prefix}_open_cursors"),
                MetricBehavior::load_proportional(0.2),
            ),
            MetricSpec::gauge(
                format!("{prefix}_replication_lag_ms"),
                MetricBehavior::RandomWalk {
                    step: 0.5,
                    bound: 20.0,
                },
            ),
        ]);
    }
    metrics
}

/// Message-queue metrics (RabbitMQ-like: published/acked message counters,
/// queue depths, consumer counts).
pub(crate) fn message_queue_metrics(richness: MetricRichness) -> Vec<MetricSpec> {
    let mut metrics = vec![
        MetricSpec::gauge("messages", MetricBehavior::load_proportional(3.0)),
        MetricSpec::gauge(
            "messages_ack_diff",
            MetricBehavior::LoadProportional {
                gain: 0.5,
                offset: 0.0,
                noise_amplitude: 0.3,
                lag_ticks: 1,
                ceiling: None,
            },
        ),
        MetricSpec::counter("messages_published_total", MetricBehavior::counter(3.0)),
    ];
    if matches!(richness, MetricRichness::Full) {
        metrics.extend(vec![
            MetricSpec::counter("messages_acked_total", MetricBehavior::counter(2.9)),
            MetricSpec::counter("messages_redelivered_total", MetricBehavior::counter(0.05)),
            MetricSpec::gauge("queue_depth", MetricBehavior::load_proportional(0.6)),
            MetricSpec::gauge("consumers", MetricBehavior::constant(24.0)),
            MetricSpec::gauge("channels", MetricBehavior::load_proportional(0.1)),
            MetricSpec::gauge(
                "message_publish_rate",
                MetricBehavior::load_proportional(3.1),
            ),
            MetricSpec::gauge("memory_watermark_ratio", MetricBehavior::constant(0.4)),
        ]);
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_profiles_are_larger_than_minimal_ones() {
        assert!(
            system_metrics(1.0, MetricRichness::Full).len()
                > system_metrics(1.0, MetricRichness::Minimal).len()
        );
        assert!(
            http_service_metrics("web", 100.0, MetricRichness::Full).len()
                > http_service_metrics("web", 100.0, MetricRichness::Minimal).len()
        );
        assert!(
            datastore_metrics("mongodb", 200.0, MetricRichness::Full).len()
                > datastore_metrics("mongodb", 200.0, MetricRichness::Minimal).len()
        );
        assert!(
            message_queue_metrics(MetricRichness::Full).len()
                > message_queue_metrics(MetricRichness::Minimal).len()
        );
    }

    #[test]
    fn metric_names_are_unique_within_each_family() {
        for metrics in [
            system_metrics(1.0, MetricRichness::Full),
            http_service_metrics("api", 50.0, MetricRichness::Full),
            datastore_metrics("db", 50.0, MetricRichness::Full),
            message_queue_metrics(MetricRichness::Full),
        ] {
            let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            let before = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), before);
        }
    }

    #[test]
    fn full_system_profile_contains_constants_for_the_variance_filter() {
        let metrics = system_metrics(1.0, MetricRichness::Full);
        let constants = metrics
            .iter()
            .filter(|m| matches!(m.behavior, MetricBehavior::Constant { .. }))
            .count();
        assert!(constants >= 3);
    }

    #[test]
    fn http_metrics_use_the_given_prefix() {
        let metrics = http_service_metrics("chat", 10.0, MetricRichness::Full);
        assert!(metrics.iter().all(|m| m.name.starts_with("chat_")));
    }

    #[test]
    fn profiles_include_load_dependent_metrics() {
        for metrics in [
            system_metrics(2.0, MetricRichness::Minimal),
            datastore_metrics("redis", 100.0, MetricRichness::Minimal),
        ] {
            assert!(metrics.iter().any(|m| m.behavior.is_load_dependent()));
        }
    }
}
