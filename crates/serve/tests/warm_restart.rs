//! Warm restart: recovery seeds every tenant's analysis caches from its
//! shard's checkpoint, and no checkpoint — current, stale, foreign, damaged
//! or absent — changes a recovered model or makes recovery fail.
//!
//! A durable service of four tenants over two shards sweeps, takes more
//! ingest, sweeps again and crashes right after that publish. Its
//! directory is then recovered once per kind of checkpoint, at analysis
//! parallelism 1, 4 and 8 and sweep parallelism 1 and 4, and every
//! recovered model must equal the live one (and so the cold restart's,
//! the `Missing` kind). The counts say what each kind saved: the current
//! checkpoint leaves the first sweep nothing to re-cluster or re-test.

use sieve_core::config::SieveConfig;
use sieve_graph::CallGraph;
use sieve_serve::{
    CheckpointSeeding, DurabilityConfig, FsyncPolicy, MetricPoint, ServeConfig, ServiceStats,
    SieveService,
};
use sieve_wal::{checkpoint_file_name, CheckpointRead, ShardCheckpoint, FORMAT};
use std::path::{Path, PathBuf};

const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
const SHARDS: usize = 2;

fn analysis(parallelism: usize, max_clusters: usize) -> SieveConfig {
    SieveConfig::default()
        .with_cluster_range(2, max_clusters)
        .with_parallelism(parallelism)
}

fn config(dir: &Path, analysis: SieveConfig, sweep_parallelism: usize) -> ServeConfig {
    ServeConfig::default()
        .with_shard_count(SHARDS)
        .with_sweep_parallelism(sweep_parallelism)
        .with_analysis(analysis)
        .with_durability(DurabilityConfig::new(dir).with_fsync(FsyncPolicy::Never))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sieve-warm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn wave(tenant: usize, ticks: std::ops::Range<u64>) -> Vec<MetricPoint> {
    let bias = tenant as f64 * 0.9;
    ticks
        .flat_map(|t| {
            let x = t as f64 * 0.17 + bias;
            [
                MetricPoint::new("web", "requests", t * 500, x.sin() * 4.0),
                MetricPoint::new("web", "latency", t * 500, x.cos() * 9.0),
                MetricPoint::new("web", "errors", t * 500, (x * 1.3).sin()),
                MetricPoint::new("db", "queries", t * 500, (x * 0.5).sin() * 2.0),
                MetricPoint::new("db", "io_wait", t * 500, (x * 0.5).cos()),
            ]
        })
        .collect()
}

fn graph() -> CallGraph {
    let mut graph = CallGraph::new();
    graph.record_calls("web", "db", 100);
    graph
}

/// Runs the service that crashes: a first sweep, more ingest for two
/// tenants, a second sweep that publishes the final content, then the
/// crash. Returns the live models.
fn run_and_crash(dir: &Path, analysis: SieveConfig) -> Vec<sieve_core::model::SieveModel> {
    let service = SieveService::new(config(dir, analysis, 1)).unwrap();
    for (i, tenant) in TENANTS.iter().enumerate() {
        service.create_tenant(*tenant, graph()).unwrap();
        service.ingest(tenant, &wave(i, 0..60)).unwrap();
    }
    service.refresh_dirty().unwrap();
    for (i, tenant) in TENANTS.iter().enumerate().take(2) {
        service.ingest(tenant, &wave(i, 60..90)).unwrap();
    }
    service.refresh_dirty().unwrap();
    let models = models(&service);
    drop(service);
    models
}

fn models(service: &SieveService) -> Vec<sieve_core::model::SieveModel> {
    TENANTS
        .iter()
        .map(|t| (*service.model(t).unwrap().expect("published")).clone())
        .collect()
}

/// The checkpoint files of `dir`, in shard order (`None` where a shard has
/// none).
fn checkpoints(dir: &Path) -> Vec<Option<Vec<u8>>> {
    (0..SHARDS)
        .map(|shard| std::fs::read(dir.join(checkpoint_file_name(shard))).ok())
        .collect()
}

fn put_checkpoints(dir: &Path, files: &[Option<Vec<u8>>]) {
    for (shard, file) in files.iter().enumerate() {
        let path = dir.join(checkpoint_file_name(shard));
        match file {
            Some(bytes) => std::fs::write(path, bytes).unwrap(),
            None => {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// Rewrites every checkpoint in `files` through `edit` of its decoded
/// records.
fn edited(files: &[Option<Vec<u8>>], edit: impl Fn(&mut ShardCheckpoint)) -> Vec<Option<Vec<u8>>> {
    files
        .iter()
        .map(|file| {
            let bytes = file.as_ref()?;
            let CheckpointRead::Read {
                mut checkpoint,
                damaged: 0,
            } = ShardCheckpoint::decode(bytes)
            else {
                panic!("the live checkpoint reads whole");
            };
            edit(&mut checkpoint);
            Some(checkpoint.encode())
        })
        .collect()
}

/// The kinds of checkpoint a recovery may meet.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Current,
    Older,
    OtherTenants,
    OtherConfig,
    OtherIdentity,
    BitFlipped,
    Truncated,
    OtherFormat,
    Missing,
}

const KINDS: [Kind; 9] = [
    Kind::Current,
    Kind::Older,
    Kind::OtherTenants,
    Kind::OtherConfig,
    Kind::OtherIdentity,
    Kind::BitFlipped,
    Kind::Truncated,
    Kind::OtherFormat,
    Kind::Missing,
];

/// The checkpoint files of each kind, built from the crashed directory's.
struct Variants {
    current: Vec<Option<Vec<u8>>>,
    older: Vec<Option<Vec<u8>>>,
    other_config: Vec<Option<Vec<u8>>>,
}

impl Variants {
    fn files(&self, kind: Kind) -> Vec<Option<Vec<u8>>> {
        let damaged = |damage: fn(&mut Vec<u8>)| -> Vec<Option<Vec<u8>>> {
            let mut files = self.current.clone();
            files.iter_mut().flatten().for_each(damage);
            files
        };
        match kind {
            Kind::Current => self.current.clone(),
            Kind::Older => self.older.clone(),
            // Each tenant's record carries a shard neighbour's caches.
            Kind::OtherTenants => edited(&self.current, |checkpoint| {
                let names: Vec<String> = checkpoint
                    .tenants
                    .iter()
                    .map(|t| t.tenant.clone())
                    .collect();
                checkpoint.tenants.rotate_left(1);
                for (tenant, name) in checkpoint.tenants.iter_mut().zip(names) {
                    tenant.tenant = name;
                }
            }),
            Kind::OtherConfig => self.other_config.clone(),
            // What a build whose analysis sources differ writes: the same
            // entries under another configuration fingerprint.
            Kind::OtherIdentity => edited(&self.current, |checkpoint| {
                for tenant in &mut checkpoint.tenants {
                    tenant.cache.config_fp ^= 0x5EED;
                }
            }),
            Kind::BitFlipped => damaged(|bytes| {
                let at = bytes.len() / 2;
                bytes[at] ^= 0x10;
            }),
            Kind::Truncated => damaged(|bytes| bytes.truncate(bytes.len() * 2 / 3)),
            Kind::OtherFormat => {
                damaged(|bytes| bytes[8..12].copy_from_slice(&(FORMAT + 1).to_le_bytes()))
            }
            Kind::Missing => vec![None; SHARDS],
        }
    }
}

/// Asserts what recovering with a checkpoint of `kind` seeded and what the
/// first sweep after it recomputed, against the cold restart's sweep.
fn assert_counts(
    kind: Kind,
    seeding: CheckpointSeeding,
    first: &ServiceStats,
    cold: &ServiceStats,
) {
    let all = TENANTS.len();
    let misses = seeding.missing + seeding.corrupt + seeding.other_format + seeding.key_mismatch;
    assert_eq!(
        seeding.tenants_seeded + misses,
        all,
        "{kind:?}: {seeding:?}"
    );
    let recomputed = (first.components_reclustered, first.comparisons_tested);
    let cold_work = (cold.components_reclustered, cold.comparisons_tested);
    assert!(cold_work.0 > 0 && cold_work.1 > 0);
    match kind {
        Kind::Current => {
            assert_eq!(seeding.tenants_seeded, all, "{kind:?}");
            assert_eq!(
                recomputed,
                (0, 0),
                "{kind:?}: the crash came right after a publish"
            );
        }
        Kind::Older => {
            assert_eq!(seeding.tenants_seeded, all, "{kind:?}");
            assert!(
                recomputed.0 > 0 && recomputed.0 < cold_work.0,
                "{kind:?}: {recomputed:?}"
            );
        }
        // Taken, but every entry names another tenant's content.
        Kind::OtherTenants => {
            assert_eq!(seeding.tenants_seeded, all, "{kind:?}");
            assert_eq!(recomputed, cold_work, "{kind:?}");
        }
        Kind::OtherConfig | Kind::OtherIdentity => {
            assert_eq!(seeding.key_mismatch, all, "{kind:?}");
            assert_eq!(recomputed, cold_work, "{kind:?}");
        }
        Kind::BitFlipped | Kind::Truncated => {
            assert!(seeding.corrupt > 0, "{kind:?}: {seeding:?}");
            assert!(recomputed.0 > 0 && recomputed.0 <= cold_work.0, "{kind:?}");
        }
        Kind::OtherFormat => assert_eq!(seeding.other_format, all, "{kind:?}"),
        Kind::Missing => {
            assert_eq!(seeding.missing, all, "{kind:?}");
            assert_eq!(recomputed, cold_work, "{kind:?}");
        }
    }
}

#[test]
fn every_kind_of_checkpoint_recovers_the_live_models() {
    for parallelism in [1, 4, 8] {
        let tag = format!("kinds-p{parallelism}");
        let dir = temp_dir(&tag);
        let older_dir = temp_dir(&format!("{tag}-older"));
        let other_dir = temp_dir(&format!("{tag}-other"));

        // The checkpoint after the first sweep: older than the crash.
        let service = SieveService::new(config(&older_dir, analysis(parallelism, 3), 1)).unwrap();
        for (i, tenant) in TENANTS.iter().enumerate() {
            service.create_tenant(*tenant, graph()).unwrap();
            service.ingest(tenant, &wave(i, 0..60)).unwrap();
        }
        service.refresh_dirty().unwrap();
        drop(service);
        let live = run_and_crash(&dir, analysis(parallelism, 3));
        run_and_crash(&other_dir, analysis(parallelism, 4));
        let variants = Variants {
            current: checkpoints(&dir),
            older: checkpoints(&older_dir),
            other_config: checkpoints(&other_dir),
        };
        assert!(
            variants.current.iter().all(Option::is_some),
            "both shards hold tenants"
        );

        let copy = temp_dir(&format!("{tag}-copy"));
        for sweep_parallelism in [1, 4] {
            let mut cold = None;
            for kind in KINDS.into_iter().rev() {
                copy_dir(&dir, &copy);
                put_checkpoints(&copy, &variants.files(kind));
                let recover_config = config(&copy, analysis(parallelism, 3), sweep_parallelism);
                let (recovered, report) = SieveService::recover(recover_config).unwrap();
                assert!(report.is_clean(), "{kind:?}: {report}");
                let first = recovered.refresh_dirty().unwrap();
                assert_eq!(first.tenants_refreshed, TENANTS.len());
                // Every window is on the grid: preparation copies it.
                assert_eq!(first.grid_points_interpolated, 0, "{kind:?}");
                assert_eq!(
                    models(&recovered),
                    live,
                    "{kind:?} at {parallelism}/{sweep_parallelism}"
                );
                // `Missing` runs first: the cold restart.
                let cold = cold.get_or_insert(first);
                assert_counts(kind, report.checkpoint(), &first, cold);
                let seeded = format!(
                    "{} cache entries seeded",
                    report.checkpoint().entries_seeded
                );
                assert!(report.to_string().contains(&seeded), "{report}");
            }
        }
        for dir in [dir, older_dir, other_dir, copy] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[test]
fn checkpoints_are_written_after_computing_sweeps_only_and_never_inherited() {
    let dir = temp_dir("writes");
    let service = SieveService::new(config(&dir, analysis(1, 3), 1)).unwrap();
    for (i, tenant) in TENANTS.iter().enumerate() {
        service.create_tenant(*tenant, graph()).unwrap();
        service.ingest(tenant, &wave(i, 0..60)).unwrap();
    }
    let stats = service.refresh_dirty().unwrap();
    assert_eq!(stats.checkpoint_writes, SHARDS as u64);
    assert_eq!(stats.checkpoint_failures, 0);
    let on_disk: u64 = (0..SHARDS)
        .map(|shard| {
            std::fs::metadata(dir.join(checkpoint_file_name(shard)))
                .unwrap()
                .len()
        })
        .sum();
    assert_eq!(stats.checkpoint_bytes, on_disk);
    // A sweep that computes nothing new writes nothing; one tenant's new
    // content rewrites its shard's checkpoint alone.
    assert_eq!(
        service.refresh_all().unwrap().checkpoint_writes,
        SHARDS as u64
    );
    service.ingest("gamma", &wave(2, 60..70)).unwrap();
    assert_eq!(
        service.refresh_dirty().unwrap().checkpoint_writes,
        SHARDS as u64 + 1
    );
    drop(service);

    // A new service wipes its predecessor's checkpoints with its logs.
    std::fs::write(dir.join("wal-shard-0.ckpt.tmp"), b"torn").unwrap();
    let fresh = SieveService::new(config(&dir, analysis(1, 3), 1)).unwrap();
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.contains(".ckpt"))
        .collect();
    assert!(left.is_empty(), "{left:?}");
    drop(fresh);

    // A memory-only service has nowhere to write.
    let memory = SieveService::new(ServeConfig::default().with_analysis(analysis(1, 3))).unwrap();
    memory.create_tenant("alpha", graph()).unwrap();
    memory.ingest("alpha", &wave(0, 0..60)).unwrap();
    assert_eq!(memory.refresh_dirty().unwrap().checkpoint_writes, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_sweeps_leave_whole_checkpoints() {
    let dir = temp_dir("concurrent");
    let service = SieveService::new(config(&dir, analysis(1, 3), 1)).unwrap();
    for (i, tenant) in TENANTS.iter().enumerate() {
        service.create_tenant(*tenant, graph()).unwrap();
        service.ingest(tenant, &wave(i, 0..40)).unwrap();
    }
    // Each round, both workers ingest and then sweep together: two sweeps
    // that both computed something race for the same shards' checkpoints.
    let rounds = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for worker in 0..2u64 {
            let (service, rounds) = (&service, &rounds);
            scope.spawn(move || {
                for round in 0..8u64 {
                    rounds.wait();
                    let start = 40 + (round * 2 + worker) * 5;
                    for (i, tenant) in TENANTS.iter().enumerate() {
                        service.ingest(tenant, &wave(i, start..start + 5)).unwrap();
                    }
                    service.refresh_dirty().unwrap();
                }
            });
        }
    });
    service.refresh_dirty().unwrap();
    let live = models(&service);
    drop(service);
    for shard in 0..SHARDS {
        let read = ShardCheckpoint::read(&dir.join(checkpoint_file_name(shard)));
        assert!(
            matches!(read, CheckpointRead::Read { damaged: 0, .. }),
            "shard {shard}: {read:?}"
        );
    }
    let (recovered, report) = SieveService::recover(config(&dir, analysis(1, 3), 1)).unwrap();
    assert_eq!(report.checkpoint().tenants_seeded, TENANTS.len());
    let first = recovered.refresh_dirty().unwrap();
    assert_eq!(
        (first.components_reclustered, first.comparisons_tested),
        (0, 0)
    );
    assert_eq!(models(&recovered), live);
    let _ = std::fs::remove_dir_all(&dir);
}
