//! Randomized property tests for the epoch-based incremental analysis
//! path: a session absorbing any sequence of deltas must emit the same
//! `SieveModel` as batch-analyzing the final store and as the stateless
//! `oracle` — bit for bit, across executor degrees.
//!
//! Deterministic splitmix64 case generation (the container has no registry
//! access for `proptest`): every run checks the identical pseudo-random
//! inputs, so failures are trivially reproducible.

use sieve_core::{AnalysisSession, Sieve, SieveConfig};
use sieve_exec::Name;
use sieve_graph::CallGraph;
use sieve_simulator::store::{MetricId, MetricStore};
use std::collections::BTreeMap;

/// Deterministic splitmix64 generator for test data.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        // `hash::splitmix64` advances by the golden-ratio increment and
        // finalizes in one step; feeding back the previous input keeps
        // the standard splitmix64 stream.
        let out = sieve_exec::hash::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        out
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }

    fn pick<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        &options[self.usize_in(0, options.len() - 1)]
    }
}

const INTERVAL_MS: u64 = 500;

/// One randomly shaped metric series of `len` ticks on the 500 ms grid.
fn shaped_series(rng: &mut Rng, kind: usize, scale: f64, phase: f64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|t| {
            let x = t as f64;
            let noise = (rng.unit() - 0.5) * 0.1 * scale;
            match kind {
                0 => scale * (30.0 + 20.0 * (0.2 * x + phase).sin()) + noise,
                1 => scale * (5.0 + 0.5 * x) + noise,
                2 => scale * if (t / 16) % 2 == 0 { 10.0 } else { 40.0 } + noise,
                _ => scale * 7.0, // constant: exercises the variance filter
            }
        })
        .collect()
}

/// A random multi-component scenario: full per-series point sequences, a
/// chain call graph, and the per-epoch advance schedule.
struct Scenario {
    /// Full point values per series, recorded incrementally.
    series: BTreeMap<MetricId, Vec<f64>>,
    call_graph: CallGraph,
    /// Per-epoch, per-series number of additional ticks to record.
    epochs: Vec<BTreeMap<MetricId, usize>>,
}

fn random_scenario(seed: u64) -> Scenario {
    let mut rng = Rng::new(seed);
    let components = rng.usize_in(2, 4);
    let total_ticks = rng.usize_in(70, 120);

    // Per component: a driving "requests" signal, a lagged follower (so
    // Granger has real structure), and one randomly shaped extra metric.
    let mut series: BTreeMap<MetricId, Vec<f64>> = BTreeMap::new();
    let mut drivers: Vec<Vec<f64>> = Vec::new();
    for c in 0..components {
        let phase = rng.unit() * 3.0;
        let scale = 1.0 + rng.unit();
        let driver = if c == 0 {
            shaped_series(&mut rng, 0, scale, phase, total_ticks)
        } else {
            // Downstream load: the previous component's driver, lagged one
            // tick, rescaled, with fresh noise.
            let upstream = &drivers[c - 1];
            (0..total_ticks)
                .map(|t| {
                    let base = if t == 0 { 0.0 } else { upstream[t - 1] };
                    base * (1.5 + rng.unit()) + (rng.unit() - 0.5)
                })
                .collect()
        };
        let component = format!("svc{c}");
        series.insert(
            MetricId::new(component.as_str(), "requests"),
            driver.clone(),
        );
        let follower: Vec<f64> = (0..total_ticks)
            .map(|t| {
                let base = if t == 0 { 0.0 } else { driver[t - 1] };
                2.0 * base + (rng.unit() - 0.5)
            })
            .collect();
        series.insert(MetricId::new(component.as_str(), "latency"), follower);
        let kind = rng.usize_in(1, 3);
        let extra_scale = 1.0 + rng.unit();
        series.insert(
            MetricId::new(component.as_str(), "extra"),
            shaped_series(&mut rng, kind, extra_scale, 0.0, total_ticks),
        );
        drivers.push(driver);
    }

    let mut call_graph = CallGraph::new();
    for c in 1..components {
        call_graph.record_call(format!("svc{}", c - 1), format!("svc{c}"));
    }

    // Random epoch schedule: each epoch advances each series by a random
    // (possibly zero) number of ticks; a final epoch tops every series up
    // to the full length so all cases analyse the same amount of data.
    let mut remaining: BTreeMap<MetricId, usize> =
        series.keys().map(|id| (id.clone(), total_ticks)).collect();
    let mut epochs = Vec::new();
    for _ in 0..rng.usize_in(1, 4) {
        let mut epoch = BTreeMap::new();
        for (id, rem) in remaining.iter_mut() {
            let advance = rng.usize_in(0, (*rem).min(40));
            *rem -= advance;
            epoch.insert(id.clone(), advance);
        }
        epochs.push(epoch);
    }
    epochs.push(remaining.clone());
    Scenario {
        series,
        call_graph,
        epochs,
    }
}

fn record_ticks(
    store: &MetricStore,
    scenario: &Scenario,
    clocks: &mut BTreeMap<MetricId, usize>,
    epoch: &BTreeMap<MetricId, usize>,
) {
    for (id, &advance) in epoch {
        let clock = clocks.get_mut(id).unwrap();
        let values = &scenario.series[id];
        for _ in 0..advance {
            store.record(id, (*clock as u64 + 1) * INTERVAL_MS, values[*clock]);
            *clock += 1;
        }
    }
}

#[test]
fn random_delta_sequences_converge_to_the_batch_model() {
    for seed in 0..8u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xDEAD);
        let scenario = random_scenario(seed);
        let config = SieveConfig::default()
            .with_cluster_range(2, 3)
            .with_parallelism(*rng.pick(&[1usize, 2, 4]));

        let store = MetricStore::new();
        let mut session = AnalysisSession::new(
            "random",
            store.clone(),
            scenario.call_graph.clone(),
            config.clone(),
        )
        .unwrap();

        let mut clocks: BTreeMap<MetricId, usize> =
            scenario.series.keys().map(|id| (id.clone(), 0)).collect();
        let mut streamed = None;
        for epoch in &scenario.epochs {
            record_ticks(&store, &scenario, &mut clocks, epoch);
            let delta = store.drain_delta();
            streamed = Some(session.update_shared(&delta).unwrap());
        }
        let streamed = streamed.unwrap();

        let batch = Sieve::new(config.clone())
            .analyze("random", &store, &scenario.call_graph)
            .unwrap();
        assert_eq!(
            *streamed, batch,
            "seed {seed}: streamed session must match batch analysis"
        );
        let reference =
            sieve_core::oracle_analyze("random", &store, &scenario.call_graph, &config).unwrap();
        assert_eq!(*streamed, reference, "seed {seed}: and the oracle");
    }
}

#[test]
fn incremental_and_batch_equal_the_oracle_across_parallelism() {
    // The acceptance sweep: at parallelism 1/4/8 the streamed model and
    // the batch model both equal the one oracle model of the final store.
    // One fixed scenario, re-streamed per degree.
    let scenario = random_scenario(0xC0FFEE % 8);
    let base = SieveConfig::default().with_cluster_range(2, 3);
    let mut reference = None;
    for parallelism in [1usize, 4, 8] {
        let config = base.clone().with_parallelism(parallelism);
        let store = MetricStore::new();
        let mut session = AnalysisSession::new(
            "matrix",
            store.clone(),
            scenario.call_graph.clone(),
            config.clone(),
        )
        .unwrap();
        let mut clocks: BTreeMap<MetricId, usize> =
            scenario.series.keys().map(|id| (id.clone(), 0)).collect();
        let mut streamed = None;
        for epoch in &scenario.epochs {
            record_ticks(&store, &scenario, &mut clocks, epoch);
            streamed = Some(session.update_shared(&store.drain_delta()).unwrap());
        }
        let batch = Sieve::new(config)
            .analyze("matrix", &store, &scenario.call_graph)
            .unwrap();

        let reference = reference.get_or_insert_with(|| {
            sieve_core::oracle_analyze("matrix", &store, &scenario.call_graph, &base).unwrap()
        });
        assert!(
            reference.dependency_graph.edge_count() > 0,
            "the scenario must produce dependency edges"
        );
        assert_eq!(reference, &*streamed.unwrap(), "parallelism {parallelism}");
        assert_eq!(reference, &batch, "parallelism {parallelism}");
    }
}

#[test]
fn sessions_follow_a_growing_component_set() {
    // Components that appear mid-stream (new services deployed) are
    // picked up by the session without a restart.
    let scenario = random_scenario(3);
    let store = MetricStore::new();
    let config = SieveConfig::default()
        .with_cluster_range(2, 3)
        .with_parallelism(2);
    let mut session =
        AnalysisSession::new("growing", store.clone(), CallGraph::new(), config.clone()).unwrap();

    // Epoch 1: only svc0 exists; the call graph knows nothing yet.
    let mut clocks: BTreeMap<MetricId, usize> =
        scenario.series.keys().map(|id| (id.clone(), 0)).collect();
    let first: BTreeMap<MetricId, usize> = scenario
        .series
        .keys()
        .map(|id| {
            let n = if id.component == "svc0" { 60 } else { 0 };
            (id.clone(), n)
        })
        .collect();
    record_ticks(&store, &scenario, &mut clocks, &first);
    let partial = session.update_shared(&store.drain_delta()).unwrap();
    assert_eq!(partial.clusterings.len(), 1);

    // Epoch 2: every component reports, the call graph fills in.
    let rest: BTreeMap<MetricId, usize> = clocks
        .iter()
        .map(|(id, &done)| (id.clone(), scenario.series[id].len() - done))
        .collect();
    record_ticks(&store, &scenario, &mut clocks, &rest);
    session.set_call_graph(scenario.call_graph.clone());
    let full = session.update_shared(&store.drain_delta()).unwrap();

    let batch = Sieve::new(config)
        .analyze("growing", &store, &scenario.call_graph)
        .unwrap();
    assert_eq!(*full, batch);
    assert!(full.clusterings.len() > 1);
    assert_eq!(
        full.clusterings.keys().cloned().collect::<Vec<Name>>(),
        store.components()
    );
}
