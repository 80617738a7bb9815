//! Recovery's memory bound: replaying a shard log holds a window of it,
//! never the whole log.
//!
//! The log reader refills one reused window from the log file and a
//! windowed store holds a bounded window of points, so what recovery has
//! allocated at its peak does not grow with the log. Recovering a log of
//! 2N batches must therefore peak no higher than recovering one of N
//! batches, up to one window of slack. A reader that holds the whole log
//! peaks higher by the N extra batches' bytes, several windows here.
//!
//! The counting allocator sees every thread of this test binary, which is
//! why the file holds one test.

use sieve_core::{RetentionPolicy, SieveConfig};
use sieve_graph::CallGraph;
use sieve_serve::{DurabilityConfig, FsyncPolicy, MetricPoint, ServeConfig, SieveService};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes it has handed out and not yet
/// taken back, and the most there have been at once.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            // Counted as the new block arriving before the old one leaves,
            // as a moving reallocation holds both.
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Batches in the shorter log: about 3.4 MB of it, over three windows.
const N: u64 = 1_152;
/// Series per batch, and points per series per batch.
const SERIES: u64 = 8;
const TICKS: u64 = 32;
/// How much higher recovering 2N batches may peak: one window of the log
/// reader, 1 MiB.
const SLACK: usize = 1 << 20;

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
/// record and `batches` ingest batches of `SERIES` x `TICKS` points each.
fn crashed_dir(batches: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sieve-recovery-memory-{batches}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let service = SieveService::new(config(&dir)).unwrap();
    let mut graph = CallGraph::new();
    graph.record_calls("web", "db", 1);
    service.create_tenant("acme", graph).unwrap();
    let names: Vec<(&str, String)> = (0..SERIES)
        .map(|s| (["web", "db"][s as usize % 2], format!("m{s}")))
        .collect();
    let mut points = Vec::with_capacity((SERIES * TICKS) as usize);
    for batch in 0..batches {
        points.clear();
        for tick in batch * TICKS..(batch + 1) * TICKS {
            for (s, (component, metric)) in names.iter().enumerate() {
                let value = (tick as f64 * 0.1 + s as f64).sin();
                points.push(MetricPoint::new(*component, metric, tick * 500, value));
            }
        }
        let accepted = service.ingest("acme", &points).unwrap();
        assert_eq!(accepted, points.len());
    }
    drop(service);
    dir
}

/// The most bytes recovering `dir` held allocated at once beyond what was
/// allocated before it began. The log must replay `batches` batches
/// cleanly.
fn recovery_peak(dir: &Path, batches: u64) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let (service, report) = SieveService::recover(config(dir)).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.points_replayed(), SERIES * TICKS * batches);
    drop(service);
    peak
}

#[test]
fn recovering_twice_the_log_peaks_no_higher_than_one_window_more() {
    let (short, long) = (crashed_dir(N), crashed_dir(2 * N));
    let log_bytes = |dir: &Path| {
        std::fs::metadata(dir.join("wal-shard-0.log"))
            .unwrap()
            .len()
    };
    let (short_log, long_log) = (log_bytes(&short), log_bytes(&long));
    let short_peak = recovery_peak(&short, N);
    let long_peak = recovery_peak(&long, 2 * N);
    println!(
        "peak bytes recovering {N} batches ({short_log} B of log): {short_peak}, \
         {} batches ({long_log} B): {long_peak}",
        2 * N
    );
    assert!(
        long_log - short_log > 3 * SLACK as u64,
        "the N extra batches must outweigh the slack"
    );
    assert!(
        long_peak <= short_peak + SLACK,
        "{} batches peaked at {long_peak} bytes, {N} at {short_peak}: \
         recovery holds memory in proportion to the log",
        2 * N
    );
    for dir in [short, long] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
