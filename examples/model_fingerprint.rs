//! A fingerprint of what Sieve concludes, for checking that a change to the
//! analysis code changed no model bit.
//!
//! `production == oracle` asserts cannot see a change to code both sides
//! share (the FFT, the SBD kernel), and the benchmark's correctness gate
//! compares a run against a reference the same binary computed. This example
//! is the missing comparison *across* binaries: run it at the parent commit
//! and at the change, and `diff` the eight lines.
//!
//! It analyses ShareLatex and OpenStack at `Full` metric richness — the
//! `batch-analyze` benchmark's inputs — under data seeds 7 and 8 at
//! parallelism 1 and 4, and prints one line per analysis:
//! `application seed parallelism fingerprint`. The fingerprint folds the
//! model's `Debug` text (every cluster, representative distance, silhouette
//! and edge statistic, floats printed to round-trip precision) through
//! `sieve::exec::hash`, which is the same on every host and toolchain; the
//! *model* is not — libm's `sin`/`cos` feed the FFT twiddles — so there is no
//! golden value to compare against, only another run on the same host.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example model_fingerprint
//! ```

use sieve::apps::{openstack, sharelatex, MetricRichness};
use sieve::core::config::SieveConfig;
use sieve::core::pipeline::{load_application, Sieve};
use sieve::exec::hash::{mix_str, FINGERPRINT_SEED};
use sieve::simulator::workload::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let apps = [
        ("sharelatex", sharelatex::app_spec(MetricRichness::Full)),
        ("openstack", openstack::app_spec(MetricRichness::Full)),
    ];
    for (name, spec) in &apps {
        for seed in [7u64, 8] {
            // 240 ticks of 500 ms: one `batch-analyze` window.
            let workload = Workload::randomized(60.0, seed);
            let (store, call_graph) = load_application(spec, &workload, seed, 120_000, 500)?;
            for parallelism in [1usize, 4] {
                let config = SieveConfig::default().with_parallelism(parallelism);
                let model = Sieve::new(config).analyze(name, &store, &call_graph)?;
                let fingerprint = mix_str(FINGERPRINT_SEED, &format!("{model:?}"));
                println!("{name} {seed} {parallelism} {fingerprint:016x}");
            }
        }
    }
    Ok(())
}
