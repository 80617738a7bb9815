//! Randomized property tests for the multi-tenant serving layer: however
//! tenant ingests interleave across sweeps, every published model must be
//! bit-identical to a from-scratch per-tenant `Sieve::analyze` — and
//! identical across sweep parallelism 1/4/8.
//!
//! Deterministic splitmix64 case generation (the container has no registry
//! access for `proptest`): every run checks the identical pseudo-random
//! inputs, so failures are trivially reproducible.

use sieve_core::{Sieve, SieveConfig};
use sieve_graph::CallGraph;
use sieve_serve::{MetricPoint, ServeConfig, SieveService};

/// Deterministic splitmix64 generator for test data.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
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
}

const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];
const COMPONENTS: [&str; 3] = ["web", "api", "db"];
const METRICS: [&str; 3] = ["requests", "latency", "saturation"];

fn analysis_config() -> SieveConfig {
    SieveConfig::default()
        .with_cluster_range(2, 3)
        .with_parallelism(1)
}

fn tenant_graph() -> CallGraph {
    let mut graph = CallGraph::new();
    graph.record_calls("web", "api", 50);
    graph.record_calls("api", "db", 80);
    graph
}

/// One pseudo-random ingest wave for one tenant: a contiguous run of ticks
/// for a random subset of its series, values shaped per (component,
/// metric) so clusters and Granger edges are realistic.
fn wave(rng: &mut Rng, tenant_index: usize, from_tick: u64, ticks: u64) -> Vec<MetricPoint> {
    let mut points = Vec::new();
    for (ci, component) in COMPONENTS.iter().enumerate() {
        for (mi, metric) in METRICS.iter().enumerate() {
            // Roughly one series in five sits a wave out, so deltas touch
            // varying component subsets.
            if rng.unit() < 0.2 {
                continue;
            }
            let phase = tenant_index as f64 * 0.9 + ci as f64 * 0.4 + mi as f64 * 0.2;
            for t in from_tick..from_tick + ticks {
                let x = t as f64 * 0.15 + phase;
                let noise = (rng.unit() - 0.5) * 0.2;
                let value = match mi {
                    0 => 30.0 + 18.0 * x.sin() + noise,
                    1 => 10.0 + 6.0 * (x - 0.5).sin() + noise,
                    _ => 5.0 + 2.0 * (0.5 * x).cos() + noise,
                };
                points.push(MetricPoint::new(*component, *metric, t * 500, value));
            }
        }
    }
    points
}

/// Runs the full interleaved-ingest scenario on a service with the given
/// sweep parallelism and returns the final per-tenant models.
fn run_scenario(sweep_parallelism: usize) -> Vec<sieve_core::SieveModel> {
    // Same seed for every parallelism degree: identical ingest streams.
    let mut rng = Rng::new(0x5EEDED);
    let service = SieveService::new(
        ServeConfig::default()
            .with_shard_count(8)
            .with_sweep_parallelism(sweep_parallelism)
            .with_analysis(analysis_config()),
    )
    .unwrap();
    for tenant in TENANTS {
        service.create_tenant(tenant, tenant_graph()).unwrap();
    }

    // Interleave: several sweeps, each preceded by ingest waves for a
    // random subset of tenants, with tenants progressing at different
    // speeds (per-tenant tick cursors).
    let mut cursors = [0u64; TENANTS.len()];
    for _sweep in 0..5 {
        for (i, tenant) in TENANTS.iter().enumerate() {
            if rng.unit() < 0.35 {
                continue; // this tenant sits the sweep out
            }
            let ticks = rng.usize_in(8, 30) as u64;
            let points = wave(&mut rng, i, cursors[i], ticks);
            service.ingest(tenant, &points).unwrap();
            cursors[i] += ticks;
        }
        service.refresh_dirty().unwrap();
    }
    // A final sweep catches any tenant that ingested in the last round.
    service.refresh_dirty().unwrap();

    TENANTS
        .iter()
        .map(|tenant| {
            (*service
                .model(tenant)
                .unwrap()
                .unwrap_or_else(|| panic!("tenant {tenant} never published")))
            .clone()
        })
        .collect()
}

#[test]
fn sharded_sweeps_match_per_tenant_batch_analysis_at_any_parallelism() {
    let serial = run_scenario(1);

    // The service's published models equal a from-scratch batch analysis
    // of each tenant's final store. Re-run the scenario to rebuild the
    // stores (deterministic), then batch-analyse.
    let mut rng = Rng::new(0x5EEDED);
    let reference = SieveService::new(
        ServeConfig::default()
            .with_sweep_parallelism(1)
            .with_analysis(analysis_config()),
    )
    .unwrap();
    for tenant in TENANTS {
        reference.create_tenant(tenant, tenant_graph()).unwrap();
    }
    let mut cursors = [0u64; TENANTS.len()];
    for _sweep in 0..5 {
        for (i, tenant) in TENANTS.iter().enumerate() {
            if rng.unit() < 0.35 {
                continue;
            }
            let ticks = rng.usize_in(8, 30) as u64;
            let points = wave(&mut rng, i, cursors[i], ticks);
            reference.ingest(tenant, &points).unwrap();
            cursors[i] += ticks;
        }
        // No sweeps here: the reference only accumulates data.
    }
    let sieve = Sieve::new(analysis_config());
    for (i, tenant) in TENANTS.iter().enumerate() {
        let store = reference.store(tenant).unwrap();
        let batch = sieve.analyze(tenant, &store, &tenant_graph()).unwrap();
        assert_eq!(
            serial[i], batch,
            "tenant {tenant}: served model must equal per-tenant batch analysis"
        );
    }

    // And sweep parallelism never changes a bit of any tenant's model.
    for parallelism in [4usize, 8] {
        let parallel = run_scenario(parallelism);
        for (i, tenant) in TENANTS.iter().enumerate() {
            assert_eq!(
                serial[i], parallel[i],
                "tenant {tenant}: sweep parallelism {parallelism} changed the model"
            );
        }
    }
}
