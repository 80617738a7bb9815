//! Workload (load) generators.
//!
//! Sieve requires an application-specific load generator (Locust for
//! ShareLatex, Rally for OpenStack) and, for the autoscaling evaluation, a
//! one-hour trace shaped like the 1998 soccer World Cup HTTP trace (§6.2).
//! This module provides deterministic, seedable equivalents: constant, ramp,
//! spike, randomized and session-based workloads plus a
//! [`Workload::worldcup_like`] trace with the same "slow build-up, sharp
//! spike, decay" shape.

use crate::metrics::deterministic_noise;

/// A workload: the external request rate offered to the application's
/// entrypoint as a function of time.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Constant request rate.
    Constant {
        /// Requests per tick.
        rate: f64,
    },
    /// Linear ramp from `start_rate` to `end_rate` over the run.
    Ramp {
        /// Rate at the first tick.
        start_rate: f64,
        /// Rate at the last tick.
        end_rate: f64,
    },
    /// Baseline load with periodic sinusoidal variation — the randomized
    /// load shape used for the robustness measurements.
    Oscillating {
        /// Baseline requests per tick.
        base: f64,
        /// Amplitude of the oscillation.
        amplitude: f64,
        /// Period in ticks.
        period_ticks: usize,
        /// Relative amplitude of deterministic noise (0 disables it).
        noise: f64,
        /// Seed for the noise stream.
        seed: u64,
    },
    /// Baseline load with a square spike in the middle of the run.
    Spike {
        /// Baseline requests per tick.
        base: f64,
        /// Requests per tick during the spike.
        peak: f64,
        /// Tick at which the spike starts.
        start_tick: usize,
        /// Tick at which the spike ends (exclusive).
        end_tick: usize,
    },
    /// A session-arrival trace: each entry is the request rate for one tick.
    Trace {
        /// Requests per tick, one entry per tick (the last value is held if
        /// the simulation runs longer).
        rates: Vec<f64>,
    },
    /// Independent Poisson arrivals: the per-tick request count is drawn
    /// from a Poisson distribution with the given mean, so consecutive
    /// ticks are genuinely bursty (variance equals the mean) instead of
    /// smoothly oscillating — the M/M/c-style arrival process used by the
    /// chaos scenarios.
    Poisson {
        /// Mean arrivals per tick (clamped to `[0, 600]` so the Knuth
        /// sampler's `exp(-lambda)` stays representable).
        lambda_per_tick: f64,
        /// Seed for the deterministic arrival stream.
        seed: u64,
    },
}

/// A scripted load burst inside a [`Workload::diurnal_bursts`] trace: the
/// ground truth the autoscaling score checks reactions against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// First tick of the burst.
    pub start_tick: usize,
    /// Burst length in ticks.
    pub duration_ticks: usize,
    /// Mean arrival rate during the burst (replaces the diurnal mean).
    pub peak_rate: f64,
}

impl Burst {
    /// Creates a burst.
    pub fn new(start_tick: usize, duration_ticks: usize, peak_rate: f64) -> Self {
        Self {
            start_tick,
            duration_ticks,
            peak_rate,
        }
    }

    /// First tick after the burst.
    pub(crate) fn end_tick(&self) -> usize {
        self.start_tick + self.duration_ticks
    }

    /// Whether `tick` falls inside the burst window.
    pub(crate) fn contains(&self, tick: usize) -> bool {
        (self.start_tick..self.end_tick()).contains(&tick)
    }
}

/// Draws one Poisson-distributed arrival count, deterministically in
/// `(seed, step)`: Knuth's product-of-uniforms algorithm over the same
/// splitmix-style stream as [`deterministic_noise`]. `lambda` is clamped to
/// `[0, 600]` so `exp(-lambda)` stays above `f64::MIN_POSITIVE`.
pub(crate) fn poisson_sample(seed: u64, step: u64, lambda: f64) -> f64 {
    let lambda = if lambda.is_finite() {
        lambda.clamp(0.0, 600.0)
    } else {
        0.0
    };
    if lambda == 0.0 {
        return 0.0;
    }
    let limit = (-lambda).exp();
    let stream = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(step.wrapping_mul(0xD1B54A32D192ED03));
    let mut product = 1.0_f64;
    let mut count = 0u64;
    loop {
        let uniform = deterministic_noise(stream, count) + 0.5;
        product *= uniform;
        if product <= limit {
            return count as f64;
        }
        count += 1;
    }
}

impl Workload {
    /// Constant workload.
    pub fn constant(rate: f64) -> Self {
        Workload::Constant { rate }
    }

    /// Linear ramp workload.
    pub fn ramp(start_rate: f64, end_rate: f64) -> Self {
        Workload::Ramp {
            start_rate,
            end_rate,
        }
    }

    /// Randomized oscillating workload (the "random workloads" used for
    /// Sieve's robustness evaluation, §6.1).
    pub fn randomized(base: f64, seed: u64) -> Self {
        Workload::Oscillating {
            base,
            amplitude: base * 0.6,
            period_ticks: 37 + (seed % 23) as usize,
            noise: 0.3,
            seed,
        }
    }

    /// Square spike workload.
    pub fn spike(base: f64, peak: f64, start_tick: usize, end_tick: usize) -> Self {
        Workload::Spike {
            base,
            peak,
            start_tick,
            end_tick,
        }
    }

    /// A synthetic one-hour HTTP trace with the shape of the WorldCup-98
    /// sample used by the paper: a slow diurnal build-up, a sharp spike
    /// around two thirds of the trace, and a decay back to the baseline.
    /// `total_ticks` controls the resolution; `peak_rate` the height of the
    /// spike; `seed` the deterministic jitter.
    pub fn worldcup_like(total_ticks: usize, peak_rate: f64, seed: u64) -> Self {
        let mut rates = Vec::with_capacity(total_ticks);
        for t in 0..total_ticks {
            let phase = t as f64 / total_ticks.max(1) as f64;
            // Diurnal build-up: half a sine over the trace.
            let diurnal = 0.35 + 0.4 * (std::f64::consts::PI * phase).sin();
            // Sharp event spike centred at 65% of the trace.
            let spike = 0.9 * (-((phase - 0.65) / 0.06).powi(2)).exp();
            // Session-level burstiness.
            let jitter = 0.12 * deterministic_noise(seed, t as u64);
            let rate = peak_rate * (diurnal + spike) * (1.0 + jitter);
            rates.push(rate.max(0.0));
        }
        Workload::Trace { rates }
    }

    /// Poisson arrivals with the given mean per tick.
    pub fn poisson(lambda_per_tick: f64, seed: u64) -> Self {
        Workload::Poisson {
            lambda_per_tick,
            seed,
        }
    }

    /// A diurnal trace with Poisson burstiness and scripted load bursts:
    /// the per-tick mean follows `base * (1 + relative_amplitude *
    /// sin(2*pi*t/period_ticks))`, each [`Burst`] window replaces the mean
    /// with its `peak_rate`, and the offered rate is a Poisson draw around
    /// that mean — diurnal shape, bursty arrivals, and a ground-truth burst
    /// schedule in one trace. Fully deterministic in `seed`.
    pub fn diurnal_bursts(
        total_ticks: usize,
        base: f64,
        relative_amplitude: f64,
        period_ticks: usize,
        bursts: &[Burst],
        seed: u64,
    ) -> Self {
        let period = period_ticks.max(1) as f64;
        let mut rates = Vec::with_capacity(total_ticks);
        for t in 0..total_ticks {
            let diurnal = base
                * (1.0
                    + relative_amplitude * (2.0 * std::f64::consts::PI * t as f64 / period).sin());
            let mean = bursts
                .iter()
                .find(|b| b.contains(t))
                .map(|b| b.peak_rate)
                .unwrap_or(diurnal)
                .max(0.0);
            rates.push(poisson_sample(seed, t as u64, mean));
        }
        Workload::Trace { rates }
    }

    /// The request rate offered at `tick` of a run with `total_ticks` ticks.
    pub fn rate_at(&self, tick: usize, total_ticks: usize) -> f64 {
        match self {
            Workload::Constant { rate } => *rate,
            Workload::Ramp {
                start_rate,
                end_rate,
            } => {
                if total_ticks <= 1 {
                    return *start_rate;
                }
                let frac = tick as f64 / (total_ticks - 1) as f64;
                start_rate + (end_rate - start_rate) * frac.clamp(0.0, 1.0)
            }
            Workload::Oscillating {
                base,
                amplitude,
                period_ticks,
                noise,
                seed,
            } => {
                let period = (*period_ticks).max(1) as f64;
                let osc = (2.0 * std::f64::consts::PI * tick as f64 / period).sin();
                let jitter = noise * 2.0 * deterministic_noise(*seed, tick as u64);
                (base + amplitude * osc + base * jitter).max(0.0)
            }
            Workload::Spike {
                base,
                peak,
                start_tick,
                end_tick,
            } => {
                if tick >= *start_tick && tick < *end_tick {
                    *peak
                } else {
                    *base
                }
            }
            Workload::Trace { rates } => {
                if rates.is_empty() {
                    0.0
                } else {
                    rates[tick.min(rates.len() - 1)]
                }
            }
            Workload::Poisson {
                lambda_per_tick,
                seed,
            } => poisson_sample(*seed, tick as u64, *lambda_per_tick),
        }
    }

    /// Peak rate over a run of `total_ticks` ticks.
    #[cfg(test)]
    pub(crate) fn peak_rate(&self, total_ticks: usize) -> f64 {
        (0..total_ticks)
            .map(|t| self.rate_at(t, total_ticks))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean rate over a run of `total_ticks` ticks.
    fn mean_rate(workload: &Workload, total_ticks: usize) -> f64 {
        if total_ticks == 0 {
            return 0.0;
        }
        (0..total_ticks)
            .map(|t| workload.rate_at(t, total_ticks))
            .sum::<f64>()
            / total_ticks as f64
    }

    #[test]
    fn constant_workload_is_flat() {
        let w = Workload::constant(25.0);
        for t in 0..100 {
            assert_eq!(w.rate_at(t, 100), 25.0);
        }
    }

    #[test]
    fn ramp_interpolates_linearly() {
        let w = Workload::ramp(0.0, 100.0);
        assert_eq!(w.rate_at(0, 101), 0.0);
        assert!((w.rate_at(50, 101) - 50.0).abs() < 1e-9);
        assert_eq!(w.rate_at(100, 101), 100.0);
        // Degenerate single-tick run.
        assert_eq!(w.rate_at(0, 1), 0.0);
    }

    #[test]
    fn spike_is_active_only_in_window() {
        let w = Workload::spike(10.0, 200.0, 20, 30);
        assert_eq!(w.rate_at(19, 100), 10.0);
        assert_eq!(w.rate_at(20, 100), 200.0);
        assert_eq!(w.rate_at(29, 100), 200.0);
        assert_eq!(w.rate_at(30, 100), 10.0);
    }

    #[test]
    fn oscillating_workload_is_nonnegative_and_varies() {
        let w = Workload::randomized(50.0, 7);
        let rates: Vec<f64> = (0..200).map(|t| w.rate_at(t, 200)).collect();
        assert!(rates.iter().all(|&r| r >= 0.0));
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 20.0, "workload should vary substantially");
    }

    #[test]
    fn randomized_workloads_differ_across_seeds() {
        let a = Workload::randomized(50.0, 1);
        let b = Workload::randomized(50.0, 2);
        let differ = (0..100).any(|t| (a.rate_at(t, 100) - b.rate_at(t, 100)).abs() > 1e-9);
        assert!(differ);
    }

    #[test]
    fn worldcup_like_has_a_spike_above_the_baseline() {
        let w = Workload::worldcup_like(720, 100.0, 3);
        let peak = w.peak_rate(720);
        let mean = mean_rate(&w, 720);
        assert!(peak > 1.5 * mean, "peak {peak} vs mean {mean}");
        // The spike is located around 65% of the trace.
        let spike_region_max = (0..720)
            .filter(|&t| (430..510).contains(&t))
            .map(|t| w.rate_at(t, 720))
            .fold(0.0, f64::max);
        assert!((spike_region_max - peak).abs() < 1e-9);
    }

    #[test]
    fn trace_holds_last_value_beyond_its_end() {
        let w = Workload::Trace {
            rates: vec![1.0, 2.0, 3.0],
        };
        assert_eq!(w.rate_at(10, 20), 3.0);
        let empty = Workload::Trace { rates: vec![] };
        assert_eq!(empty.rate_at(5, 20), 0.0);
    }

    #[test]
    fn poisson_arrivals_have_the_right_mean_and_are_bursty() {
        let w = Workload::poisson(40.0, 11);
        let total = 400;
        let mean = mean_rate(&w, total);
        assert!(
            (mean - 40.0).abs() < 4.0,
            "empirical mean {mean} should be near lambda"
        );
        // Poisson variance equals the mean — far from a constant stream.
        let var = (0..total)
            .map(|t| {
                let d = w.rate_at(t, total) - mean;
                d * d
            })
            .sum::<f64>()
            / total as f64;
        assert!(
            var > 15.0 && var < 90.0,
            "variance {var} should be near lambda"
        );
        // Counts are nonnegative integers.
        assert!((0..total).all(|t| {
            let r = w.rate_at(t, total);
            r >= 0.0 && r.fract() == 0.0
        }));
    }

    #[test]
    fn poisson_is_deterministic_per_seed_and_differs_across_seeds() {
        let a = Workload::poisson(25.0, 5);
        let b = Workload::poisson(25.0, 5);
        let c = Workload::poisson(25.0, 6);
        assert!((0..200).all(|t| a.rate_at(t, 200) == b.rate_at(t, 200)));
        assert!((0..200).any(|t| a.rate_at(t, 200) != c.rate_at(t, 200)));
    }

    #[test]
    fn poisson_sample_handles_degenerate_lambdas() {
        assert_eq!(poisson_sample(1, 0, 0.0), 0.0);
        assert_eq!(poisson_sample(1, 0, -3.0), 0.0);
        assert_eq!(poisson_sample(1, 0, f64::NAN), 0.0);
        // The clamp keeps exp(-lambda) representable even for huge means.
        assert!(poisson_sample(1, 0, 1e9) > 400.0);
    }

    #[test]
    fn diurnal_bursts_spike_inside_the_scripted_windows() {
        let bursts = [Burst::new(60, 20, 300.0)];
        let w = Workload::diurnal_bursts(160, 40.0, 0.5, 48, &bursts, 9);
        let burst_mean = (60..80).map(|t| w.rate_at(t, 160)).sum::<f64>() / 20.0;
        let baseline_mean = (0..60)
            .chain(80..160)
            .map(|t| w.rate_at(t, 160))
            .sum::<f64>()
            / 140.0;
        assert!(
            burst_mean > 3.0 * baseline_mean,
            "burst mean {burst_mean} vs baseline {baseline_mean}"
        );
        assert!(bursts[0].contains(60) && bursts[0].contains(79));
        assert!(!bursts[0].contains(80) && bursts[0].end_tick() == 80);
        // Deterministic in the seed.
        let again = Workload::diurnal_bursts(160, 40.0, 0.5, 48, &bursts, 9);
        assert_eq!(w, again);
        let other = Workload::diurnal_bursts(160, 40.0, 0.5, 48, &bursts, 10);
        assert_ne!(w, other);
    }

    #[test]
    fn mean_and_peak_are_consistent() {
        let w = Workload::spike(10.0, 100.0, 0, 50);
        assert_eq!(w.peak_rate(100), 100.0);
        assert!((mean_rate(&w, 100) - 55.0).abs() < 1e-9);
        assert_eq!(mean_rate(&w, 0), 0.0);
    }
}
