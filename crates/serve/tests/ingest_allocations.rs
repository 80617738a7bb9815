//! Durable ingest's allocation budget: logging an ingest batch allocates
//! nothing once the service is warm.
//!
//! A durable ingest applies the batch through the tenant's reused outcome
//! buffers (each point finds its series by one probe of the store's
//! address index, and the store collects the touched series in a reused
//! list), encodes its frame into the tenant's reused payload — finding
//! each point's slot in a per-thread index that outlives the batch — and
//! stages and commits it through the shard log's reused buffers; a
//! windowed store, once its window is full, holds each series in a buffer
//! of at most twice the window. So
//! after a warm-up, ingesting 2N batches must cost the allocator no more
//! calls than ingesting N, up to [`SLACK`]. A per-batch `Vec`, interned
//! name or reference count shows up as at least N extra calls.
//!
//! The counting allocator sees every thread of this test binary, which is
//! why the file holds one test.

use sieve_core::config::{RetentionPolicy, SieveConfig};
use sieve_graph::CallGraph;
use sieve_serve::{DurabilityConfig, FsyncPolicy, MetricPoint, ServeConfig, SieveService};
use std::alloc::{GlobalAlloc, Layout, System};
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

/// Batches in the shorter run.
const N: u64 = 1_000;
/// How many more allocator calls the run of 2N batches may cost.
const SLACK: u64 = 8;
/// Series per batch: more than 128, so some points' slots take two bytes.
const SERIES: u64 = 160;

/// One batch of `tick`: a point of every series, in an order that is not
/// the watermark list's (which is sorted by id).
fn batch(tick: u64) -> Vec<MetricPoint> {
    (0..SERIES)
        .rev()
        .map(|series| {
            let component = if series % 2 == 0 { "web" } else { "db" };
            let value = ((tick * 31 + series * 7) % 101) as f64 * 0.5;
            MetricPoint::new(component, format!("m{series:03}"), tick * 500, value)
        })
        .collect()
}

/// Allocator calls made by ingesting the batches of `ticks`, built before
/// the count starts.
fn ingest_calls(service: &SieveService, ticks: std::ops::Range<u64>) -> u64 {
    let batches: Vec<Vec<MetricPoint>> = ticks.map(batch).collect();
    let before = CALLS.load(Ordering::Relaxed);
    for points in &batches {
        assert_eq!(service.ingest("acme", points).unwrap(), points.len());
    }
    CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn ingesting_twice_the_batches_costs_no_more_allocations() {
    let dir = std::env::temp_dir().join(format!("sieve-ingest-allocations-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let analysis = SieveConfig::default()
        .with_cluster_range(2, 2)
        .with_parallelism(1)
        .with_retention(RetentionPolicy::windowed(32));
    let config = ServeConfig::default()
        .with_shard_count(1)
        .with_sweep_parallelism(1)
        .with_analysis(analysis)
        .with_durability(
            DurabilityConfig::new(&dir)
                .with_fsync(FsyncPolicy::Never)
                .with_snapshot_every_events(u64::MAX),
        );
    let service = SieveService::new(config).unwrap();
    let mut graph = CallGraph::new();
    graph.record_calls("web", "db", 1);
    service.create_tenant("acme", graph).unwrap();
    // Warm up until every series' buffer has reached its largest size,
    // twice the 32-point window, and the shard log's and the encoder's
    // buffers have grown to fit a batch.
    const WARM: u64 = 512;
    ingest_calls(&service, 0..WARM);

    let short = ingest_calls(&service, WARM..WARM + N);
    let long = ingest_calls(&service, WARM + N..WARM + 3 * N);
    println!(
        "allocator calls ingesting {N} batches of {SERIES} points: {short}, {}: {long}",
        2 * N
    );
    assert!(
        long <= short + SLACK,
        "{} batches cost {long} allocator calls, {N} cost {short}: \
         durable ingest allocates per batch",
        2 * N
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
