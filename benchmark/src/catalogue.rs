//! The benchmark's fixed vocabulary: workloads, end-to-end metrics, the
//! driver's columns and the per-layer metrics. `BENCHMARK.json` is emitted
//! from these tables (`--emit-benchmark-json`) and a test keeps the
//! committed file equal to them.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By how much `second` is worse than `first`, as a share of `first`
    /// (negative when it is better).
    pub fn worsening(self, first: f64, second: f64) -> f64 {
        if first == 0.0 {
            return if second == first { 0.0 } else { f64::INFINITY };
        }
        match self {
            Better::Lower => (second - first) / first,
            Better::Higher => (first - second) / first,
        }
    }
}

/// One workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Fixed name; later issues refer to it.
    pub name: &'static str,
    /// One line: what it stresses and what it bypasses.
    pub why: &'static str,
    /// Whether `BENCHMARK.json` lists it, i.e. the driver gates on it.
    /// Every workload runs under `run.sh` either way.
    pub gated: bool,
}

/// The five workloads, in run order.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "batch-analyze",
        why: "closed loop, from-scratch Sieve::analyze of ShareLatex+OpenStack Full on one thread: timeseries/cluster/causality/core carry all the time, wal and serve do nothing",
        gated: true,
    },
    WorkloadSpec {
        name: "stream-fresh",
        why: "open loop, 7 agent flushes/s into 4 durable tenants beside one sweeper: freshness is one incremental sweep, so the session caches matter",
        // The work of a flush varies from cycle to cycle, so a run has no
        // two windows of equal work to pick the quieter from, and two
        // threads share the vCPUs (see the README).
        gated: false,
    },
    WorkloadSpec {
        name: "ingest-durable",
        why: "closed loop, one writer replaying whole ticks with no sweeper: store and wal do nearly all the work, the analysis layers none",
        // Microsecond operations bound by memory: a busy neighbour doubles
        // them for minutes on end, every window of a run alike (see the
        // README).
        gated: false,
    },
    WorkloadSpec {
        name: "ingest-swept",
        why: "same writer contended by back-to-back all-dirty sweeps and the snapshot cadence: lock hand-off stalls no isolated ledger can see",
        // Two threads busy all the time on two shared vCPUs: what it reads
        // is mostly how the host schedules them (see the README).
        gated: false,
    },
    WorkloadSpec {
        name: "crash-recover",
        why: "closed loop, recover a crashed 32-tenant directory then sweep until all publish: the read side of what ingest writes",
        gated: true,
    },
];

/// A metric an operator of Sieve would see, measured untraced on the
/// workloads it is native to. The one command prints all of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share by which a second run of the same code may read worse before
    /// `--agree` fails; `0.0` means the value must repeat exactly.
    pub bound: f64,
    /// Workloads that report it.
    pub on: &'static [&'static str],
}

use Better::{Higher, Lower};

const ALL: &[&str] = &[
    "batch-analyze",
    "stream-fresh",
    "ingest-durable",
    "ingest-swept",
    "crash-recover",
];
const INGEST: &[&str] = &["ingest-durable", "ingest-swept"];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [&'static str],
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        on,
    }
}

/// The end-to-end catalogue.
#[rustfmt::skip] // one row per metric
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", Lower, 0.25, ALL),
    e2e("fail_frac", "ratio", Lower, 0.0, ALL),
    e2e("rss_mb", "MB", Lower, 0.10, ALL),
    e2e("analyze_s", "s", Lower, 0.10, &["batch-analyze"]),
    e2e("fresh_p50_ms", "ms", Lower, 0.15, &["stream-fresh"]),
    e2e("fresh_p90_ms", "ms", Lower, 0.25, &["stream-fresh"]),
    e2e("ingest_pts_per_s", "1/s", Higher, 0.20, INGEST),
    e2e("ingest_ack_p50_us", "us", Lower, 0.20, INGEST),
    e2e("ingest_ack_p95_us", "us", Lower, 0.20, INGEST),
    e2e("wal_bytes_per_point", "B/point", Lower, 0.0, &["ingest-durable"]),
    e2e("recover_s", "s", Lower, 0.15, &["crash-recover"]),
    e2e("recover_to_serving_s", "s", Lower, 0.10, &["crash-recover"]),
];

/// One of the driver's end-to-end metrics. The driver wants every metric
/// from every workload, so these name a *role*; which catalogue metric
/// fills the role on which workload is in the README's mapping table.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// Metric name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The driver's regression bound.
    pub bound: f64,
}

/// The driver's end-to-end metrics.
#[rustfmt::skip] // one row per metric
pub const COLUMNS: [Column; 4] = [
    Column { name: "op_ms", unit: "ms", better: Lower, bound: 0.25 },
    Column { name: "work_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    Column { name: "rss_mb", unit: "MB", better: Lower, bound: 0.15 },
    Column { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
];

/// A metric of one layer, from the traced pass unless it says otherwise.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric it should move, and on which workload —
    /// written down before measuring.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

/// The per-layer catalogue.
#[rustfmt::skip] // one row per metric
pub const LAYERS: [Layer; 59] = [
    layer("timeseries.resample_us", "us", Lower, "analyze_s on batch-analyze; fresh_p50_ms on stream-fresh"),
    layer("timeseries.spectra_ms", "ms", Lower, "analyze_s on batch-analyze"),
    layer("timeseries.sbd_us", "us", Lower, "analyze_s on batch-analyze; fresh_p50_ms on stream-fresh"),
    layer("cluster.distance_matrix_ms", "ms", Lower, "analyze_s on batch-analyze"),
    layer("cluster.kshape_fit_ms", "ms", Lower, "analyze_s on batch-analyze; fresh_p50_ms on stream-fresh"),
    layer("cluster.kshape_iters", "count", Lower, "analyze_s on batch-analyze"),
    layer("cluster.silhouette_ms", "ms", Lower, "analyze_s on batch-analyze"),
    layer("causality.prepare_ms", "ms", Lower, "analyze_s on batch-analyze"),
    layer("causality.granger_test_us", "us", Lower, "analyze_s on batch-analyze; fresh_p50_ms on stream-fresh"),
    layer("causality.tests", "count", Lower, "analyze_s on batch-analyze"),
    layer("core.prepare_ms", "ms", Lower, "analyze_s on batch-analyze"),
    layer("core.reduce_ms", "ms", Lower, "analyze_s on batch-analyze"),
    layer("core.dependencies_ms", "ms", Lower, "analyze_s on batch-analyze"),
    layer("core.staged_share", "ratio", Lower, "consistency: outside 0.9-1.1 a stage is missing (batch-analyze)"),
    layer("core.session_update_ms", "ms", Lower, "fresh_p50_ms and fresh_p90_ms on stream-fresh"),
    layer("core.components_prepared", "count", Lower, "fresh_p50_ms on stream-fresh; recover_to_serving_s on crash-recover"),
    layer("core.components_reclustered", "count", Lower, "fresh_p50_ms on stream-fresh; recover_to_serving_s on crash-recover"),
    layer("core.comparisons_planned", "count", Lower, "fresh_p50_ms on stream-fresh"),
    layer("core.comparisons_tested", "count", Lower, "fresh_p50_ms on stream-fresh; recover_to_serving_s on crash-recover"),
    layer("core.edge_reuse_ratio", "ratio", Higher, "fresh_p50_ms on stream-fresh"),
    layer("store.record_batch_us", "us", Lower, "ingest_pts_per_s and ingest_ack_p50_us on ingest-durable"),
    layer("store.drain_delta_us", "us", Lower, "fresh_p50_ms on stream-fresh"),
    layer("store.freeze_ms", "ms", Lower, "ingest_pts_per_s on ingest-swept (snapshot trips)"),
    layer("store.restore_ms", "ms", Lower, "recover_s on crash-recover"),
    layer("store.points_evicted", "count", Lower, "rss_mb on ingest-durable"),
    layer("store.points_retained", "count", Lower, "rss_mb on ingest-durable"),
    layer("wal.encode_us", "us", Lower, "ingest_pts_per_s on ingest-durable"),
    layer("wal.payload_bytes_per_point", "B/point", Lower, "wal_bytes_per_point on ingest-durable"),
    layer("wal.dir_bytes_per_point", "B/point", Lower, "is wal_bytes_per_point: disk bytes per retained point (untraced pass)"),
    layer("wal.commit_us", "us", Lower, "ingest_pts_per_s and ingest_ack_p95_us on ingest-durable"),
    layer("wal.fsync_calls", "count", Lower, "ingest_ack_p95_us on ingest-durable and ingest-swept"),
    layer("wal.commits_coalesced", "count", Higher, "ingest_ack_p95_us on ingest-swept"),
    layer("wal.commit_wait_ms", "ms", Lower, "ingest_ack_p95_us on ingest-swept"),
    layer("wal.scan_log_ms", "ms", Lower, "recover_s on crash-recover"),
    layer("wal.frames_scanned", "count", Lower, "recover_s on crash-recover"),
    layer("wal.snapshot_read_ms", "ms", Lower, "recover_s on crash-recover"),
    layer("wal.snapshot_write_ms", "ms", Lower, "recover_s on crash-recover; ingest_pts_per_s on ingest-swept (snapshot trips)"),
    layer("serve.ingest_us", "us", Lower, "ingest_pts_per_s and ingest_ack_p50_us on ingest-durable"),
    layer("serve.ingest_self_us", "us", Lower, "ingest_pts_per_s on ingest-durable"),
    layer("serve.refresh_dirty_ms", "ms", Lower, "fresh_p50_ms on stream-fresh"),
    layer("serve.sweep_self_ms", "ms", Lower, "fresh_p50_ms on stream-fresh"),
    layer("serve.idle_sweep_us", "us", Lower, "fresh_p50_ms (queue wait) on stream-fresh"),
    layer("serve.fresh_wait_ms", "ms", Lower, "fresh_p90_ms on stream-fresh (untraced pass)"),
    layer("serve.fresh_service_ms", "ms", Lower, "fresh_p50_ms on stream-fresh (untraced pass)"),
    layer("serve.sweeps", "count", Higher, "fresh_p90_ms on stream-fresh; ingest_pts_per_s on ingest-swept (untraced pass)"),
    layer("serve.batches_per_sweep", "ratio", Lower, "fresh_p90_ms on stream-fresh (untraced pass)"),
    layer("serve.sweeper_busy_frac", "ratio", Lower, "fresh_p90_ms on stream-fresh; ingest_pts_per_s on ingest-swept (untraced pass)"),
    layer("serve.ingest_stalls", "count", Lower, "ingest_pts_per_s on ingest-swept; zero expected on ingest-durable (untraced pass)"),
    layer("serve.ingest_stall_ms_total", "ms", Lower, "ingest_pts_per_s on ingest-swept (untraced pass)"),
    layer("serve.recover_ms", "ms", Lower, "is recover_s on crash-recover"),
    layer("serve.first_sweep_ms", "ms", Lower, "recover_to_serving_s on crash-recover"),
    layer("exec.pool_workers_spawned", "count", Lower, "analyze_s on batch-analyze"),
    layer("exec.pool_tasks", "count", Lower, "analyze_s on batch-analyze"),
    layer("exec.par_map_overhead_us", "us", Lower, "analyze_s on batch-analyze"),
    layer("bench.op_median_ms", "ms", Lower, "is op_ms read as the median over the whole run, host noise included (untraced pass)"),
    layer("bench.op_tail_ms", "ms", Lower, "the highest percentile of the op with 10 samples beyond it, over the whole run (untraced pass)"),
    layer("bench.sched_late_p95_ms", "ms", Lower, "validity: generator lateness on stream-fresh (untraced pass)"),
    layer("bench.trace_overhead_frac", "ratio", Lower, "validity: (traced - untraced) / untraced time of the same ops"),
    layer("bench.ops_traced", "count", Higher, "validity: operations behind the traced numbers"),
];

/// How long one driver run measures; also `--seconds`' default.
pub const RUN_SECONDS: u64 = 48;

/// The catalogue entry called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Renders `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let columns: Vec<String> = COLUMNS
        .iter()
        .map(|c| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(c.name),
                quote(c.unit),
                quote(c.better.word()),
                c.bound
            )
        })
        .collect();
    let layers: Vec<String> = LAYERS
        .iter()
        .map(|l| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(l.name),
                quote(l.unit),
                quote(l.better.word())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        columns.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn the_tables_fit_the_driver_contract() {
        let gated = WORKLOADS.iter().filter(|w| w.gated).count() as u64;
        assert!((2..=8).contains(&gated));
        assert!((1..=16).contains(&COLUMNS.len()));
        assert!((1..=128).contains(&LAYERS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for c in &COLUMNS {
            assert!(valid_name(c.name) && valid_unit(c.unit), "{}", c.name);
            assert!(c.bound > 0.0 && c.bound <= 0.25, "{}", c.name);
            names.push(c.name);
        }
        for l in &LAYERS {
            assert!(valid_name(l.name) && valid_unit(l.unit), "{}", l.name);
            names.push(l.name);
        }
        let setup = COLUMNS
            .iter()
            .find(|c| c.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            COLUMNS.iter().all(|c| c.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        // 4 + 22 runs per gated workload, each three set-ups + measure +
        // checks (~8 s, ~13 s in a noisy spell), and two builds, in 3420 s.
        let runs = 4 + 22 * gated;
        assert!(runs * (RUN_SECONDS + 13) + 120 <= 3420);
    }

    #[test]
    fn the_end_to_end_catalogue_names_real_workloads() {
        for metric in &END_TO_END {
            assert!(valid_unit(metric.unit), "{}", metric.name);
            for name in metric.on {
                assert!(
                    WORKLOADS.iter().any(|w| w.name == *name),
                    "{} on {name}",
                    metric.name
                );
            }
        }
        assert!(end_to_end("analyze_s").is_some() && end_to_end("nope").is_none());
    }

    #[test]
    fn the_committed_benchmark_json_is_the_emitted_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(Better::Lower.worsening(100.0, 90.0) < 0.0);
        assert_eq!(Better::Lower.worsening(0.0, 0.0), 0.0);
        assert_eq!(Better::Lower.worsening(0.0, 1.0), f64::INFINITY);
    }
}
