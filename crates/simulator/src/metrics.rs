//! Metric specifications and behaviours.
//!
//! Real microservice components export a mixture of system metrics (CPU,
//! memory, network, disk) and application metrics (request rates, latencies,
//! queue depths, garbage-collection pauses, business counters). The paper's
//! pipeline only cares about how those metrics *behave over time relative to
//! load*, so the simulator describes every metric by a [`MetricBehavior`]
//! that maps the component's current load (plus deterministic noise) to a
//! sample value.

/// Whether a metric is an instantaneous gauge or a monotonically increasing
/// counter (counters are what the ADF/first-difference handling in the
//  causality step exists for).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Instantaneous value (CPU usage, queue depth, latency…).
    Gauge,
    /// Monotonically increasing value (bytes sent, requests served…).
    Counter,
}

/// How a metric responds to the component's load.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricBehavior {
    /// `value = offset + gain * load + noise_amplitude * noise`.
    ///
    /// Used for request rates, CPU usage, I/O throughput and most
    /// application metrics.
    LoadProportional {
        /// Multiplier applied to the per-instance load.
        gain: f64,
        /// Constant baseline.
        offset: f64,
        /// Amplitude of the deterministic pseudo-noise term.
        noise_amplitude: f64,
        /// Additional response delay in simulation ticks.
        lag_ticks: usize,
        /// Optional saturation ceiling (e.g. 100 for CPU percentages).
        ceiling: Option<f64>,
    },
    /// A queueing-style latency: `base * (1 + (load / capacity)^2)`.
    ///
    /// Grows slowly until the component approaches its capacity, then
    /// sharply — the shape autoscaling reacts to.
    Latency {
        /// Latency under negligible load, in milliseconds.
        base_ms: f64,
        /// Per-instance load at which latency has doubled.
        capacity: f64,
        /// Amplitude of the pseudo-noise term (milliseconds).
        noise_amplitude: f64,
    },
    /// A counter increasing by `rate_per_load * load + base_rate` each tick.
    Counter {
        /// Increment per unit of load per tick.
        rate_per_load: f64,
        /// Load-independent increment per tick.
        base_rate: f64,
    },
    /// A constant, unvarying metric (the kind Sieve's variance filter drops).
    Constant {
        /// The constant value.
        value: f64,
    },
    /// A periodic signal independent of load (e.g. a cron-driven flush).
    Periodic {
        /// Period in simulation ticks.
        period_ticks: usize,
        /// Amplitude of the oscillation.
        amplitude: f64,
        /// Constant baseline.
        offset: f64,
    },
    /// A bounded random walk independent of load (pure noise metrics).
    RandomWalk {
        /// Maximum step per tick.
        step: f64,
        /// Clamp for the absolute value.
        bound: f64,
    },
}

impl MetricBehavior {
    /// A plain load-proportional gauge with unit gain and small noise.
    pub fn load_proportional(gain: f64) -> Self {
        MetricBehavior::LoadProportional {
            gain,
            offset: 0.0,
            noise_amplitude: 0.05 * gain.abs().max(0.01),
            lag_ticks: 0,
            ceiling: None,
        }
    }

    /// A CPU-style percentage: proportional to load but capped at 100.
    pub fn cpu_like(gain: f64) -> Self {
        MetricBehavior::LoadProportional {
            gain,
            offset: 1.0,
            noise_amplitude: 0.5,
            lag_ticks: 0,
            ceiling: Some(100.0),
        }
    }

    /// A latency metric with the given base latency and capacity.
    pub fn latency(base_ms: f64, capacity: f64) -> Self {
        MetricBehavior::Latency {
            base_ms,
            capacity,
            noise_amplitude: base_ms * 0.02,
        }
    }

    /// A load-driven counter.
    pub fn counter(rate_per_load: f64) -> Self {
        MetricBehavior::Counter {
            rate_per_load,
            base_rate: 0.0,
        }
    }

    /// A constant metric.
    pub fn constant(value: f64) -> Self {
        MetricBehavior::Constant { value }
    }

    /// Whether the metric described by this behaviour reacts to load at all.
    pub fn is_load_dependent(&self) -> bool {
        matches!(
            self,
            MetricBehavior::LoadProportional { .. }
                | MetricBehavior::Latency { .. }
                | MetricBehavior::Counter { .. }
        )
    }
}

/// A named metric exported by a component.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name, unique within its component.
    pub name: String,
    /// Gauge or counter semantics.
    pub kind: MetricKind,
    /// How the metric responds to load.
    pub behavior: MetricBehavior,
}

impl MetricSpec {
    /// Creates a gauge metric.
    pub fn gauge(name: impl Into<String>, behavior: MetricBehavior) -> Self {
        Self {
            name: name.into(),
            kind: MetricKind::Gauge,
            behavior,
        }
    }

    /// Creates a counter metric.
    pub fn counter(name: impl Into<String>, behavior: MetricBehavior) -> Self {
        Self {
            name: name.into(),
            kind: MetricKind::Counter,
            behavior,
        }
    }
}

/// Deterministic pseudo-noise in `[-0.5, 0.5]`, parameterised by a seed and a
/// step index, so that simulation runs are reproducible for a given seed and
/// differ across seeds.
pub(crate) fn deterministic_noise(seed: u64, step: u64) -> f64 {
    let mut s = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(step.wrapping_mul(0xBF58476D1CE4E5B9));
    s ^= s >> 30;
    s = s.wrapping_mul(0xBF58476D1CE4E5B9);
    s ^= s >> 27;
    s = s.wrapping_mul(0x94D049BB133111EB);
    s ^= s >> 31;
    ((s >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
}

/// Internal evaluation state for one metric instance in a running simulation.
#[derive(Debug, Clone)]
pub(crate) struct MetricState {
    spec: MetricSpec,
    counter_value: f64,
    walk_value: f64,
    noise_seed: u64,
}

impl MetricState {
    /// Creates the evaluation state for a metric.
    pub(crate) fn new(spec: MetricSpec, noise_seed: u64) -> Self {
        Self {
            spec,
            counter_value: 0.0,
            walk_value: 0.0,
            noise_seed,
        }
    }

    /// The metric specification.
    pub(crate) fn spec(&self) -> &MetricSpec {
        &self.spec
    }

    /// Produces the metric's sample for the given tick.
    ///
    /// `load_history` must contain the component's per-instance load for all
    /// ticks up to and including the current one (index = tick).
    pub(crate) fn sample(&mut self, tick: usize, load_history: &[f64]) -> f64 {
        let noise = deterministic_noise(self.noise_seed, tick as u64);
        let current_load = load_history.last().copied().unwrap_or(0.0);
        match &self.spec.behavior {
            MetricBehavior::LoadProportional {
                gain,
                offset,
                noise_amplitude,
                lag_ticks,
                ceiling,
            } => {
                let idx = tick.saturating_sub(*lag_ticks);
                let load = load_history.get(idx).copied().unwrap_or(0.0);
                let mut v = offset + gain * load + noise_amplitude * noise;
                if let Some(c) = ceiling {
                    v = v.min(*c);
                }
                v.max(0.0)
            }
            MetricBehavior::Latency {
                base_ms,
                capacity,
                noise_amplitude,
            } => {
                let utilisation = if *capacity > 0.0 {
                    current_load / capacity
                } else {
                    0.0
                };
                (base_ms * (1.0 + utilisation * utilisation) + noise_amplitude * noise).max(0.0)
            }
            MetricBehavior::Counter {
                rate_per_load,
                base_rate,
            } => {
                self.counter_value += (base_rate + rate_per_load * current_load).max(0.0);
                self.counter_value
            }
            MetricBehavior::Constant { value } => *value,
            MetricBehavior::Periodic {
                period_ticks,
                amplitude,
                offset,
            } => {
                let period = (*period_ticks).max(1) as f64;
                offset + amplitude * (2.0 * std::f64::consts::PI * tick as f64 / period).sin()
            }
            MetricBehavior::RandomWalk { step, bound } => {
                self.walk_value = (self.walk_value + step * 2.0 * noise).clamp(-bound, *bound);
                self.walk_value
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_proportional_tracks_load() {
        let spec = MetricSpec::gauge("requests", MetricBehavior::load_proportional(2.0));
        let mut state = MetricState::new(spec, 1);
        let low = state.sample(0, &[1.0]);
        let high = state.sample(1, &[1.0, 50.0]);
        assert!(high > low);
        assert!((high - 100.0).abs() < 5.0);
    }

    #[test]
    fn cpu_like_saturates_at_100() {
        let spec = MetricSpec::gauge("cpu", MetricBehavior::cpu_like(1.0));
        let mut state = MetricState::new(spec, 2);
        let v = state.sample(0, &[10_000.0]);
        assert!(v <= 100.0);
    }

    #[test]
    fn lagged_metric_reacts_late() {
        let behavior = MetricBehavior::LoadProportional {
            gain: 1.0,
            offset: 0.0,
            noise_amplitude: 0.0,
            lag_ticks: 2,
            ceiling: None,
        };
        let spec = MetricSpec::gauge("lagged", behavior);
        let mut state = MetricState::new(spec, 3);
        // Load spikes at tick 3; a 2-tick lag means the metric reads the
        // value from tick 1 at tick 3 and only sees the spike at tick 5.
        let loads = [0.0, 0.0, 0.0, 100.0, 100.0, 100.0];
        assert_eq!(state.sample(3, &loads[..4]), 0.0);
        assert_eq!(state.sample(5, &loads[..6]), 100.0);
    }

    #[test]
    fn latency_grows_superlinearly_near_capacity() {
        let spec = MetricSpec::gauge("latency", MetricBehavior::latency(100.0, 50.0));
        let mut state = MetricState::new(spec, 4);
        let idle = state.sample(0, &[1.0]);
        let half = state.sample(1, &[1.0, 25.0]);
        let full = state.sample(2, &[1.0, 25.0, 50.0]);
        let over = state.sample(3, &[1.0, 25.0, 50.0, 100.0]);
        assert!(idle < half && half < full && full < over);
        assert!(
            over > 2.0 * full - idle * 0.5,
            "latency must grow faster than linear"
        );
    }

    #[test]
    fn counter_is_monotone() {
        let spec = MetricSpec::counter("bytes_total", MetricBehavior::counter(3.0));
        let mut state = MetricState::new(spec, 5);
        let mut prev = -1.0;
        for t in 0..20 {
            let loads: Vec<f64> = (0..=t).map(|i| (i % 7) as f64).collect();
            let v = state.sample(t, &loads);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn constant_metric_never_changes() {
        let spec = MetricSpec::gauge("buffer_size", MetricBehavior::constant(4096.0));
        let mut state = MetricState::new(spec, 6);
        for t in 0..10 {
            assert_eq!(state.sample(t, &[t as f64]), 4096.0);
        }
    }

    #[test]
    fn periodic_metric_oscillates_independently_of_load() {
        let behavior = MetricBehavior::Periodic {
            period_ticks: 8,
            amplitude: 5.0,
            offset: 10.0,
        };
        let mut state = MetricState::new(MetricSpec::gauge("gc", behavior), 7);
        let values: Vec<f64> = (0..16).map(|t| state.sample(t, &[0.0])).collect();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max > 14.0 && min < 6.0);
    }

    #[test]
    fn random_walk_stays_within_bounds() {
        let behavior = MetricBehavior::RandomWalk {
            step: 1.0,
            bound: 3.0,
        };
        let mut state = MetricState::new(MetricSpec::gauge("noise", behavior), 8);
        for t in 0..500 {
            let v = state.sample(t, &[0.0]);
            assert!(v.abs() <= 3.0);
        }
    }

    #[test]
    fn noise_is_deterministic_per_seed_and_varies_across_seeds() {
        assert_eq!(deterministic_noise(1, 10), deterministic_noise(1, 10));
        assert_ne!(deterministic_noise(1, 10), deterministic_noise(2, 10));
        for i in 0..100 {
            let v = deterministic_noise(42, i);
            assert!((-0.5..=0.5).contains(&v));
        }
    }

    #[test]
    fn behavior_classification() {
        assert!(MetricBehavior::load_proportional(1.0).is_load_dependent());
        assert!(MetricBehavior::latency(10.0, 5.0).is_load_dependent());
        assert!(MetricBehavior::counter(1.0).is_load_dependent());
        assert!(!MetricBehavior::constant(1.0).is_load_dependent());
    }
}
