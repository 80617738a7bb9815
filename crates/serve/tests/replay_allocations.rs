//! Recovery's allocation budget: replaying an ingest batch allocates
//! nothing.
//!
//! The log reader decodes each ingest frame into buffers it reuses and
//! lends the batch to the store's verified apply, which keeps its own
//! working space; a windowed store holds each series in a buffer of at
//! most twice the window, whatever it has evicted, and the log is read
//! through a window of fixed size. So recovering a log of 2N batches must
//! cost the allocator no more calls than recovering one of N batches (the
//! two cost the same), up to [`SLACK`]. A per-batch `Vec`, interned name or
//! reference count shows up as at least N extra calls.
//!
//! The counting allocator sees every thread of this test binary, which is
//! why the file holds one test, and why [`SLACK`] is not zero.

use sieve_core::{RetentionPolicy, SieveConfig};
use sieve_graph::CallGraph;
use sieve_serve::{DurabilityConfig, FsyncPolicy, MetricPoint, ServeConfig, SieveService};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting the calls that hand out memory.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Batches in the shorter log.
const N: u64 = 1_000;
/// How many more allocator calls the log of 2N batches may cost: headroom
/// for a call the counter sees from outside recovery.
const SLACK: u64 = 2;

fn config(dir: &Path) -> ServeConfig {
    let analysis = SieveConfig::default()
        .with_cluster_range(2, 2)
        .with_parallelism(1)
        .with_retention(RetentionPolicy::windowed(32));
    ServeConfig::default()
        .with_shard_count(1)
        .with_sweep_parallelism(1)
        .with_analysis(analysis)
        .with_durability(
            DurabilityConfig::new(dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_events(u64::MAX),
        )
}

/// A one-shard durable directory whose log holds one tenant's creation
/// record and `batches` ingest batches of four points each.
fn crashed_dir(batches: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sieve-replay-allocations-{batches}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let service = SieveService::new(config(&dir)).unwrap();
    let mut graph = CallGraph::new();
    graph.record_calls("web", "db", 1);
    service.create_tenant("acme", graph).unwrap();
    for tick in 0..batches {
        let t = tick as f64;
        let points = [
            MetricPoint::new("web", "cpu", tick * 500, (t * 0.3).sin()),
            MetricPoint::new("web", "mem", tick * 500, (t * 0.7).cos()),
            MetricPoint::new("db", "cpu", tick * 500, (t * 0.2).sin() * 2.0),
            MetricPoint::new("db", "mem", tick * 500, t % 13.0),
        ];
        assert_eq!(service.ingest("acme", &points).unwrap(), 4);
    }
    drop(service);
    dir
}

/// Allocator calls made by recovering `dir`, which must replay `batches`
/// batches cleanly.
fn recovery_calls(dir: &Path, batches: u64) -> u64 {
    let before = CALLS.load(Ordering::Relaxed);
    let (service, report) = SieveService::recover(config(dir)).unwrap();
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.points_replayed(), 4 * batches);
    drop(service);
    calls
}

#[test]
fn replaying_twice_the_batches_costs_no_more_allocations() {
    let (short, long) = (crashed_dir(N), crashed_dir(2 * N));
    let short_calls = recovery_calls(&short, N);
    let long_calls = recovery_calls(&long, 2 * N);
    println!(
        "allocator calls recovering {N} batches: {short_calls}, {}: {long_calls}",
        2 * N
    );
    assert!(
        long_calls <= short_calls + SLACK,
        "{} batches cost {long_calls} allocator calls, {N} cost {short_calls}: \
         replay allocates per batch",
        2 * N
    );
    for dir in [short, long] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
