//! Randomized crash-recovery property test.
//!
//! Each scenario drives a durable [`SieveService`] through a
//! splitmix64-generated interleaving of tenant-admin and ingest
//! operations, "crashes" it (drops the service and, depending on the
//! scenario, truncates a shard log at a random offset or flips a random
//! bit in it), and then recovers the directory at sweep parallelism 1, 4
//! and 8. The properties checked:
//!
//! * Recovery never panics and never produces a silently wrong model:
//!   every recovered tenant's published model is **bit-identical** to the
//!   one an uncrashed oracle service publishes when fed exactly the
//!   surviving operation prefix.
//! * Loss is frame-atomic: a tenant survives whole ingest batches or
//!   loses them entirely — `points_replayed` always lands on a batch
//!   boundary of the original operation stream.
//! * The sweep parallelism of the recovered service changes nothing: all
//!   three recoveries publish identical models.
//! * Degraded tenants re-converge: after recovery, resumed ingest brings
//!   the recovered service and the oracle to identical models again.

use sieve_core::config::{RetentionPolicy, SieveConfig};
use sieve_graph::CallGraph;
use sieve_serve::{DurabilityConfig, FsyncPolicy, MetricPoint, ServeConfig, SieveService};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];
const PARALLELISMS: [usize; 3] = [1, 4, 8];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn analysis_config() -> SieveConfig {
    SieveConfig::default()
        .with_cluster_range(2, 2)
        .with_parallelism(1)
}

fn serve_config(dir: &Path, snapshot_every: u64, sweep_parallelism: usize) -> ServeConfig {
    ServeConfig::default()
        .with_shard_count(4)
        .with_sweep_parallelism(sweep_parallelism)
        .with_analysis(analysis_config())
        .with_durability(
            DurabilityConfig::new(dir)
                .with_fsync(FsyncPolicy::EveryN(4))
                .with_snapshot_every_events(snapshot_every),
        )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sieve-recovery-prop-{tag}-{}", std::process::id()));
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

/// One randomly generated ingest batch: 4 series, `ticks` samples each,
/// with an occasional deliberately stale (rejected) point thrown in so the
/// accepted-points-only log discipline is part of what the oracle check
/// covers.
fn batch(tenant_bias: f64, next_tick: &mut u64, rng: &mut u64) -> Vec<MetricPoint> {
    let ticks = 6 + splitmix64(rng) % 6;
    let start = *next_tick;
    *next_tick += ticks;
    let mut points = Vec::new();
    for t in start..start + ticks {
        let x = t as f64 * 0.17 + tenant_bias;
        points.push(MetricPoint::new("web", "requests", t * 500, x.sin() * 4.0));
        points.push(MetricPoint::new("web", "latency", t * 500, x.cos() * 9.0));
        points.push(MetricPoint::new("db", "queries", t * 500, (x * 0.5).sin()));
        points.push(MetricPoint::new("db", "io_wait", t * 500, (x * 0.5).cos()));
    }
    if splitmix64(rng) % 4 == 0 && start > 0 {
        // A non-monotone straggler: rejected live, never logged, and
        // rejected identically by the oracle.
        points.push(MetricPoint::new("web", "requests", 0, 42.0));
    }
    points
}

fn graph_v1() -> CallGraph {
    let mut graph = CallGraph::new();
    graph.record_calls("web", "db", 100);
    graph
}

fn graph_v2() -> CallGraph {
    let mut graph = CallGraph::new();
    graph.record_calls("web", "db", 250);
    graph.record_calls("db", "web", 40);
    graph
}

/// The deterministic operation history of one scenario, so the oracle can
/// replay exactly the surviving prefix.
struct History {
    /// Per-tenant accepted point count of each ingest batch, in order.
    accepted: BTreeMap<&'static str, Vec<u64>>,
    /// Per-tenant raw batches, in order (the oracle re-ingests these).
    batches: BTreeMap<&'static str, Vec<Vec<MetricPoint>>>,
    /// Per-tenant tick cursor, for resumed ingest after recovery.
    next_tick: BTreeMap<&'static str, u64>,
}

/// Runs the setup phase (tenant creation + admin events) on any service —
/// the live durable one and every oracle run the same code path.
fn run_setup(service: &SieveService) {
    service.create_tenant("alpha", graph_v1()).unwrap();
    service
        .create_tenant_with_retention("beta", graph_v1(), RetentionPolicy::windowed(100))
        .unwrap();
    service.create_tenant("gamma", graph_v2()).unwrap();
    service.set_call_graph("alpha", graph_v2()).unwrap();
    service
        .set_retention("gamma", RetentionPolicy::windowed(80))
        .unwrap();
}

/// Runs the randomized ingest phase, recording what each tenant accepted.
fn run_ingest(service: &SieveService, seed: u64, rounds: usize) -> History {
    let mut history = History {
        accepted: BTreeMap::new(),
        batches: BTreeMap::new(),
        next_tick: TENANTS.iter().map(|t| (*t, 0u64)).collect(),
    };
    let mut rng = seed;
    for _ in 0..rounds {
        let tenant = TENANTS[(splitmix64(&mut rng) % TENANTS.len() as u64) as usize];
        let bias = tenant.len() as f64 * 0.7;
        let tick = history.next_tick.get_mut(tenant).unwrap();
        let points = batch(bias, tick, &mut rng);
        let accepted = service.ingest(tenant, &points).unwrap();
        history
            .accepted
            .entry(tenant)
            .or_default()
            .push(accepted as u64);
        history.batches.entry(tenant).or_default().push(points);
    }
    history
}

/// Builds the uncrashed oracle: a purely in-memory service fed the setup
/// phase plus each tenant's surviving batch prefix.
fn oracle_for(history: &History, survived: &BTreeMap<&str, usize>) -> SieveService {
    let config = ServeConfig::default()
        .with_shard_count(4)
        .with_sweep_parallelism(1)
        .with_analysis(analysis_config());
    let oracle = SieveService::new(config).unwrap();
    run_setup(&oracle);
    for tenant in TENANTS {
        let keep = survived.get(tenant).copied().unwrap_or(0);
        if let Some(batches) = history.batches.get(tenant) {
            for points in batches.iter().take(keep) {
                oracle.ingest(tenant, points).unwrap();
            }
        }
    }
    oracle.refresh_all().unwrap();
    oracle
}

/// Maps each tenant's replayed point count back to a batch-boundary prefix
/// of its ingest history — panics if the count does not land exactly on a
/// boundary (loss must be frame-atomic).
fn surviving_batches(
    history: &History,
    report: &sieve_serve::RecoveryReport,
) -> BTreeMap<&'static str, usize> {
    let mut survived = BTreeMap::new();
    for tenant in TENANTS {
        let replayed = report
            .tenant(tenant)
            .map(sieve_serve::TenantRecovery::points_replayed)
            .unwrap_or(0);
        let sizes = history.accepted.get(tenant).cloned().unwrap_or_default();
        let mut sum = 0u64;
        let mut count = 0usize;
        for size in &sizes {
            if sum == replayed {
                break;
            }
            sum += size;
            count += 1;
        }
        assert_eq!(
            sum, replayed,
            "{tenant}: {replayed} replayed points do not land on a batch boundary of {sizes:?}"
        );
        survived.insert(tenant, count);
    }
    survived
}

/// `report` with its stage timings zeroed: what two recoveries of one
/// directory must agree on.
fn untimed(report: &sieve_serve::RecoveryReport) -> sieve_serve::RecoveryReport {
    let mut report = report.clone();
    report.reanchor_ns = 0;
    for shard in &mut report.shards {
        shard.snapshot_ns = 0;
        shard.log_read_ns = 0;
        shard.replay_ns = 0;
        shard.rehydrate_ns = 0;
    }
    report
}

fn models_of(
    service: &SieveService,
) -> BTreeMap<&'static str, Option<sieve_core::model::SieveModel>> {
    TENANTS
        .iter()
        .map(|t| (*t, service.model(t).unwrap().map(|m| (*m).clone())))
        .collect()
}

enum Corruption {
    None,
    TruncateTail,
    BitFlip,
}

/// Corrupts one shard log at a random offset strictly after the setup
/// phase (so tenant creation records always survive and the surviving
/// prefix stays oracle-computable). Returns false if no shard had any
/// post-setup bytes to corrupt.
fn corrupt(dir: &Path, setup_sizes: &[u64], kind: &Corruption, rng: &mut u64) -> bool {
    let candidates: Vec<(usize, u64, u64)> = (0..setup_sizes.len())
        .filter_map(|shard| {
            let path = dir.join(sieve_wal::log_file_name(shard));
            let len = std::fs::metadata(&path).ok()?.len();
            (len > setup_sizes[shard]).then_some((shard, setup_sizes[shard], len))
        })
        .collect();
    let Some(&(shard, setup_len, len)) = candidates
        .get((splitmix64(rng) % candidates.len().max(1) as u64) as usize)
        .or(candidates.first())
    else {
        return false;
    };
    let path = dir.join(sieve_wal::log_file_name(shard));
    let offset = setup_len + 1 + splitmix64(rng) % (len - setup_len - 1).max(1);
    let mut bytes = std::fs::read(&path).unwrap();
    match kind {
        Corruption::None => return true,
        Corruption::TruncateTail => bytes.truncate(offset as usize),
        Corruption::BitFlip => bytes[offset as usize - 1] ^= 1 << (splitmix64(rng) % 8),
    }
    std::fs::write(&path, &bytes).unwrap();
    true
}

fn run_scenario(index: u64, corruption: Corruption, snapshot_every: u64) {
    let tag = format!("s{index}");
    let dir = temp_dir(&tag);
    let seed = 0x5EED_0000 + index;

    let service = SieveService::new(serve_config(&dir, snapshot_every, 1)).unwrap();
    run_setup(&service);
    let setup_sizes: Vec<u64> = (0..4)
        .map(|shard| {
            std::fs::metadata(dir.join(sieve_wal::log_file_name(shard)))
                .map(|m| m.len())
                .unwrap_or(0)
        })
        .collect();
    let mut history = run_ingest(&service, seed, 12);
    service.refresh_all().unwrap();
    let live = models_of(&service);
    drop(service);

    let mut rng = seed ^ 0xC0FF_EE00;
    if !matches!(corruption, Corruption::None)
        && !corrupt(&dir, &setup_sizes, &corruption, &mut rng)
    {
        // Nothing to corrupt (all ingest landed in snapshots) — still a
        // valid clean-recovery scenario.
    }

    // Recover the same crashed directory at every parallelism degree.
    // `recover` re-anchors the directory (fresh snapshot, truncated log),
    // so each degree works on its own copy.
    let mut per_parallelism = Vec::new();
    for (i, &parallelism) in PARALLELISMS.iter().enumerate() {
        let copy = temp_dir(&format!("{tag}-p{i}"));
        copy_dir(&dir, &copy);
        let (recovered, report) =
            SieveService::recover(serve_config(&copy, snapshot_every, parallelism)).unwrap();
        recovered.refresh_all().unwrap();
        per_parallelism.push((recovered, report, copy));
    }

    let (recovered, report, _) = &per_parallelism[0];
    let survived = if matches!(corruption, Corruption::None) {
        assert!(report.is_clean(), "scenario {index}: {report}");
        TENANTS
            .iter()
            .map(|t| (*t, history.batches.get(t).map_or(0, Vec::len)))
            .collect()
    } else {
        surviving_batches(&history, report)
    };

    // Property 1: bit-identical to the uncrashed oracle of the surviving
    // prefix (for clean scenarios that oracle saw everything, so this also
    // proves recovered == live).
    let oracle = oracle_for(&history, &survived);
    let oracle_models = models_of(&oracle);
    let recovered_models = models_of(recovered);
    assert_eq!(
        recovered_models, oracle_models,
        "scenario {index}: recovered models diverge from the oracle"
    );
    if matches!(corruption, Corruption::None) {
        assert_eq!(
            recovered_models, live,
            "scenario {index}: clean recovery changed a model"
        );
    }

    // Property 2: sweep parallelism changes nothing.
    for (other, other_report, _) in &per_parallelism[1..] {
        assert_eq!(models_of(other), recovered_models, "scenario {index}");
        assert_eq!(
            untimed(other_report),
            untimed(report),
            "scenario {index}: reports diverge"
        );
    }

    // Property 3: the recovered service re-converges once ingest resumes —
    // feed both sides the same fresh batches and compare again.
    let mut resume_rng = seed ^ 0x0DD5_EED5;
    for tenant in TENANTS {
        let bias = tenant.len() as f64 * 0.7;
        let tick = history.next_tick.get_mut(tenant).unwrap();
        let points = batch(bias, tick, &mut resume_rng);
        recovered.ingest(tenant, &points).unwrap();
        oracle.ingest(tenant, &points).unwrap();
    }
    recovered.refresh_all().unwrap();
    oracle.refresh_all().unwrap();
    assert_eq!(
        models_of(recovered),
        models_of(&oracle),
        "scenario {index}: no re-convergence after resumed ingest"
    );

    let _ = std::fs::remove_dir_all(&dir);
    for (_, _, copy) in &per_parallelism {
        let _ = std::fs::remove_dir_all(copy);
    }
}

#[test]
fn clean_crash_recovery_is_bit_identical() {
    run_scenario(1, Corruption::None, 1_000_000);
    run_scenario(2, Corruption::None, 1_000_000);
}

#[test]
fn clean_recovery_through_snapshots_is_bit_identical() {
    run_scenario(3, Corruption::None, 4);
    run_scenario(4, Corruption::None, 2);
}

#[test]
fn truncated_tails_lose_whole_frames_and_recover_the_prefix() {
    run_scenario(5, Corruption::TruncateTail, 1_000_000);
    run_scenario(6, Corruption::TruncateTail, 1_000_000);
}

#[test]
fn bit_flips_are_detected_and_cost_exactly_the_corrupt_suffix() {
    run_scenario(7, Corruption::BitFlip, 1_000_000);
    run_scenario(8, Corruption::BitFlip, 1_000_000);
}
