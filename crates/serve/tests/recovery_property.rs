//! Randomized crash-recovery property test.
//!
//! Each scenario drives a durable [`SieveService`] through a
//! splitmix64-generated interleaving of ingest batches with call-graph
//! swaps and retention changes (tightenings over windows that are already
//! full among them), "crashes" it (drops the service and, depending on the
//! scenario, truncates a shard log at a random offset or flips a random
//! bit in it), and then recovers the directory at sweep parallelism 1, 4
//! and 8. The properties checked:
//!
//! * Recovery never panics and never produces a silently wrong model:
//!   every recovered tenant's published model is **bit-identical** to the
//!   one an uncrashed oracle service publishes when fed exactly the
//!   surviving operation prefix.
//! * Loss is frame-atomic: a tenant survives whole operations or loses
//!   them entirely — `points_replayed` always lands on a batch boundary
//!   of the original operation stream, and equals what the operations
//!   whose frames end before the corrupt byte accepted.
//! * The sweep parallelism of the recovered service changes nothing: all
//!   three recoveries publish identical models.
//! * Degraded tenants re-converge: after recovery, resumed ingest brings
//!   the recovered service and the oracle to identical models again.
//! * A recovered directory survives a second crash: each recovered service
//!   runs a second random interleaving, crashes with a random truncation
//!   or bit flip of a log past what the first recovery left, and recovers
//!   again at the same sweep parallelism — bit-identical to the oracle of
//!   both generations' surviving prefixes. A shard the first recovery kept
//!   as found carries the first generation's frames into the second, so
//!   this is where a log outlives a recovery. Each recovery anchors exactly
//!   the shards that did not recover clean.
//! * The analysis checkpoint is a cache: the live service sweeps at random
//!   points of the interleaving, so the checkpoint it leaves is of a random
//!   age, and each scenario recovers with the newest one, an older one or
//!   none — the models are the same, and a clean recovery with the newest
//!   one re-clusters and re-tests nothing.

use sieve_core::{RetentionPolicy, SieveConfig};
use sieve_exec::hash::shard_index;
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

/// One operation of the randomized phase, as issued to the live service.
enum Op {
    Ingest(Vec<MetricPoint>),
    CallGraph(CallGraph),
    Retention(RetentionPolicy),
}

/// An issued operation with what it did: its round in the interleaving,
/// the points the live service accepted (0 for admin operations) and the
/// length of the tenant's shard log once it returned — the end of the
/// frame that recorded it, or 0 when the snapshot cadence tripped on it and
/// anchored the shard.
struct Issued {
    round: usize,
    op: Op,
    accepted: u64,
    log_end: u64,
}

/// The deterministic operation history of one scenario, so the oracle can
/// replay exactly the surviving prefix.
struct History {
    /// Per-tenant operations, in issue order.
    ops: BTreeMap<&'static str, Vec<Issued>>,
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

/// Issues `op` for `tenant` and returns the points it accepted.
fn issue(service: &SieveService, tenant: &str, op: &Op) -> u64 {
    match op {
        Op::Ingest(points) => service.ingest(tenant, points).unwrap() as u64,
        Op::CallGraph(graph) => service
            .set_call_graph(tenant, graph.clone())
            .map(|_| 0)
            .unwrap(),
        Op::Retention(policy) => service.set_retention(tenant, *policy).map(|_| 0).unwrap(),
    }
}

/// Runs the randomized phase: mostly ingest, with about one operation in
/// four a call-graph swap or a retention change, recording what each
/// tenant's operations did. About one operation in four is followed by a
/// sweep (drawn from a stream of its own, so the operations are those of
/// `seed` whatever the sweeps), each of which may rewrite a checkpoint.
/// Each tenant's ticks continue from `next_tick`.
fn run_ops(
    service: &SieveService,
    dir: &Path,
    seed: u64,
    rounds: usize,
    next_tick: BTreeMap<&'static str, u64>,
) -> History {
    let mut history = History {
        ops: BTreeMap::new(),
        next_tick,
    };
    let mut rng = seed;
    let mut sweeps = seed ^ 0x5EE9_5EE9;
    for round in 0..rounds {
        if splitmix64(&mut sweeps) % 4 == 0 {
            service.refresh_dirty().unwrap();
        }
        let tenant = TENANTS[(splitmix64(&mut rng) % TENANTS.len() as u64) as usize];
        let op = match splitmix64(&mut rng) % 8 {
            0 if splitmix64(&mut rng) % 2 == 0 => Op::CallGraph(graph_v1()),
            0 => Op::CallGraph(graph_v2()),
            1 => Op::Retention(match splitmix64(&mut rng) % 4 {
                0 => RetentionPolicy::unbounded(),
                window => RetentionPolicy::windowed(20 * window as usize),
            }),
            _ => {
                let bias = tenant.len() as f64 * 0.7;
                let tick = history.next_tick.get_mut(tenant).unwrap();
                Op::Ingest(batch(bias, tick, &mut rng))
            }
        };
        let accepted = issue(service, tenant, &op);
        let log = dir.join(sieve_wal::log_file_name(shard_index(tenant, 4)));
        let log_end = std::fs::metadata(log).unwrap().len();
        history.ops.entry(tenant).or_default().push(Issued {
            round,
            op,
            accepted,
            log_end,
        });
    }
    history
}

/// Each tenant's surviving operation prefix of one generation.
type Survived = BTreeMap<&'static str, usize>;

/// Builds the uncrashed oracle: a purely in-memory service fed the setup
/// phase plus, generation by generation, each tenant's surviving operation
/// prefix.
fn oracle_for(generations: &[(&History, &Survived)]) -> SieveService {
    let config = ServeConfig::default()
        .with_shard_count(4)
        .with_sweep_parallelism(1)
        .with_analysis(analysis_config());
    let oracle = SieveService::new(config).unwrap();
    run_setup(&oracle);
    for (history, survived) in generations {
        for (tenant, ops) in &history.ops {
            for issued in ops.iter().take(survived[tenant]) {
                issue(&oracle, tenant, &issued.op);
            }
        }
    }
    oracle.refresh_all().unwrap();
    oracle
}

/// Each tenant's surviving operation prefix: in the corrupted shard, the
/// operations a later anchor of the shard snapshotted and those whose
/// frames end at or before the first corrupt byte; all of them in other
/// shards, or when nothing was corrupted.
fn surviving_ops(history: &History, cut: Option<(usize, u64)>) -> Survived {
    let mut survived = BTreeMap::new();
    for (tenant, ops) in &history.ops {
        let count = match cut {
            Some((shard, cut)) if shard == shard_index(tenant, 4) => {
                let anchored_through = history
                    .ops
                    .iter()
                    .filter(|(other, _)| shard_index(other, 4) == shard)
                    .flat_map(|(_, ops)| ops)
                    .filter(|issued| issued.log_end == 0)
                    .map(|issued| issued.round)
                    .max();
                ops.iter()
                    .take_while(|issued| {
                        anchored_through.is_some_and(|round| issued.round <= round)
                            || issued.log_end <= cut
                    })
                    .count()
            }
            _ => ops.len(),
        };
        survived.insert(*tenant, count);
    }
    survived
}

/// Asserts that loss is frame-atomic on a recovery that replayed every
/// logged point (no snapshot covered any): each tenant's replayed point
/// count lands exactly on a batch boundary of its history, and is what its
/// surviving operations accepted.
fn assert_frame_atomic(
    history: &History,
    report: &sieve_serve::RecoveryReport,
    survived: &BTreeMap<&str, usize>,
) {
    for (tenant, ops) in &history.ops {
        let replayed = report
            .tenant(tenant)
            .map_or(0, sieve_serve::TenantRecovery::points_replayed);
        let sizes: Vec<u64> = ops
            .iter()
            .filter(|issued| matches!(issued.op, Op::Ingest(_)))
            .map(|issued| issued.accepted)
            .collect();
        let mut sum = 0u64;
        for size in &sizes {
            if sum >= replayed {
                break;
            }
            sum += size;
        }
        assert_eq!(
            sum, replayed,
            "{tenant}: {replayed} replayed points do not land on a batch boundary of {sizes:?}"
        );
        let count = survived[tenant];
        let prefix: u64 = ops[..count].iter().map(|issued| issued.accepted).sum();
        assert_eq!(
            prefix, replayed,
            "{tenant}: the first {count} operations accepted {prefix} points, {replayed} replayed"
        );
    }
}

/// `report` with its stage timings zeroed: what two recoveries of one
/// directory must agree on.
fn untimed(report: &sieve_serve::RecoveryReport) -> sieve_serve::RecoveryReport {
    let mut report = report.clone();
    report.reanchor_ns = 0;
    for shard in &mut report.shards {
        shard.checkpoint_ns = 0;
        shard.snapshot_ns = 0;
        shard.log_read_ns = 0;
        shard.replay_ns = 0;
        shard.rehydrate_ns = 0;
    }
    report
}

/// Asserts that `report` anchored exactly the shards that did not recover
/// clean: every shard's log existed, no crash came between a snapshot and
/// its log's truncation, and no shard replays a whole cadence.
fn assert_anchored_unclean(index: u64, report: &sieve_serve::RecoveryReport) {
    for shard in &report.shards {
        let clean = shard.corruption.is_none()
            && !shard.snapshot_corrupt
            && shard
                .tenants
                .values()
                .all(|tenant| matches!(tenant, sieve_serve::TenantRecovery::Clean { .. }));
        assert_eq!(
            shard.anchored, !clean,
            "scenario {index}, shard {}: {report}",
            shard.shard
        );
    }
}

fn models_of(service: &SieveService) -> BTreeMap<&'static str, Option<sieve_core::SieveModel>> {
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

/// Which analysis checkpoint a scenario recovers with.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CheckpointAge {
    /// The one the live service left.
    Newest,
    /// The one its last sweep before the final one left (none if there
    /// was no such sweep).
    Older,
    /// None at all: a cold restart.
    Absent,
}

/// The checkpoint files in `dir`, by name.
fn checkpoints(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "ckpt"))
        .map(|path| {
            (
                path.file_name().unwrap().to_owned(),
                std::fs::read(&path).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

/// Replaces the checkpoint files in `dir` with `files`.
fn put_checkpoints(dir: &Path, files: &[(std::ffi::OsString, Vec<u8>)]) {
    for (name, _) in checkpoints(dir) {
        std::fs::remove_file(dir.join(name)).unwrap();
    }
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// Corrupts one shard log at a random offset strictly after the setup
/// phase (so tenant creation records always survive and the surviving
/// prefix stays oracle-computable). Returns the corrupted shard and the
/// offset of its first corrupt byte — every frame ending at or before it
/// is intact — or `None` if no shard had any post-setup bytes to corrupt.
fn corrupt(
    dir: &Path,
    setup_sizes: &[u64],
    kind: &Corruption,
    rng: &mut u64,
) -> Option<(usize, u64)> {
    let candidates: Vec<(usize, u64, u64)> = (0..setup_sizes.len())
        .filter_map(|shard| {
            let path = dir.join(sieve_wal::log_file_name(shard));
            let len = std::fs::metadata(&path).ok()?.len();
            (len > setup_sizes[shard]).then_some((shard, setup_sizes[shard], len))
        })
        .collect();
    let &(shard, setup_len, len) = candidates
        .get((splitmix64(rng) % candidates.len().max(1) as u64) as usize)
        .or(candidates.first())?;
    let path = dir.join(sieve_wal::log_file_name(shard));
    let offset = setup_len + 1 + splitmix64(rng) % (len - setup_len - 1).max(1);
    let mut bytes = std::fs::read(&path).unwrap();
    let cut = match kind {
        Corruption::None => return None,
        Corruption::TruncateTail => {
            bytes.truncate(offset as usize);
            offset
        }
        Corruption::BitFlip => {
            bytes[offset as usize - 1] ^= 1 << (splitmix64(rng) % 8);
            offset - 1
        }
    };
    std::fs::write(&path, &bytes).unwrap();
    Some((shard, cut))
}

/// The log length of each of the four shards in `dir` (0 without a log).
fn log_sizes(dir: &Path) -> Vec<u64> {
    (0..4)
        .map(|shard| {
            std::fs::metadata(dir.join(sieve_wal::log_file_name(shard)))
                .map(|m| m.len())
                .unwrap_or(0)
        })
        .collect()
}

/// The second generation on `recovered`, whose directory is `dir`: a
/// random interleaving continuing from `next_tick`, a crash with a random
/// truncation or bit flip past the log lengths the generation started
/// from (anywhere in a log a cadence snapshot emptied meanwhile), and a
/// recovery at `parallelism`. Returns the twice-recovered service's models
/// after a full sweep and the oracle's of `earlier` plus this generation's
/// surviving prefixes.
fn second_generation(
    index: u64,
    recovered: &SieveService,
    dir: &Path,
    (parallelism, snapshot_every): (usize, u64),
    earlier: &[(&History, &Survived)],
    next_tick: BTreeMap<&'static str, u64>,
) -> [BTreeMap<&'static str, Option<sieve_core::SieveModel>>; 2] {
    let seed = 0x2EED_0000 + index;
    let mut floors = log_sizes(dir);
    let history = run_ops(recovered, dir, seed, 16, next_tick);
    for (tenant, ops) in &history.ops {
        if ops.iter().any(|issued| issued.log_end == 0) {
            floors[shard_index(tenant, 4)] = 0;
        }
    }
    let mut rng = seed ^ 0xC0FF_EE00;
    let corruption = if splitmix64(&mut rng) % 2 == 0 {
        Corruption::TruncateTail
    } else {
        Corruption::BitFlip
    };
    let cut = corrupt(dir, &floors, &corruption, &mut rng);
    let (again, report) =
        SieveService::recover(serve_config(dir, snapshot_every, parallelism)).unwrap();
    assert_anchored_unclean(index, &report);
    again.refresh_all().unwrap();
    let survived = surviving_ops(&history, cut);
    let generations = [earlier, &[(&history, &survived)]].concat();
    [models_of(&again), models_of(&oracle_for(&generations))]
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
    let ticks = TENANTS.iter().map(|t| (*t, 0u64)).collect();
    let history = run_ops(&service, &dir, seed, 16, ticks);
    let older = checkpoints(&dir);
    service.refresh_all().unwrap();
    let live = models_of(&service);
    drop(service);

    // `None` when there was nothing to corrupt (everything landed in
    // snapshots) — still a valid clean-recovery scenario.
    let mut rng = seed ^ 0xC0FF_EE00;
    let cut = corrupt(&dir, &setup_sizes, &corruption, &mut rng);
    let age = [
        CheckpointAge::Newest,
        CheckpointAge::Older,
        CheckpointAge::Absent,
    ][(splitmix64(&mut rng) % 3) as usize];
    match age {
        CheckpointAge::Newest => {}
        CheckpointAge::Older => put_checkpoints(&dir, &older),
        CheckpointAge::Absent => put_checkpoints(&dir, &[]),
    }

    // Recover the same crashed directory at every parallelism degree.
    // `recover` re-anchors the shards that did not recover clean (fresh
    // snapshot, truncated log), and each recovered service runs on, so each
    // degree works on its own copy.
    let mut per_parallelism = Vec::new();
    for (i, &parallelism) in PARALLELISMS.iter().enumerate() {
        let copy = temp_dir(&format!("{tag}-p{i}"));
        copy_dir(&dir, &copy);
        let (recovered, report) =
            SieveService::recover(serve_config(&copy, snapshot_every, parallelism)).unwrap();
        let first = recovered.refresh_all().unwrap();
        if age == CheckpointAge::Newest && matches!(corruption, Corruption::None) {
            assert_eq!(
                (first.components_reclustered, first.comparisons_tested),
                (0, 0),
                "scenario {index}: the newest checkpoint covers the final content ({report})"
            );
        }
        assert_anchored_unclean(index, &report);
        per_parallelism.push((recovered, report, copy));
    }

    let (recovered, report, _) = &per_parallelism[0];
    let survived = surviving_ops(&history, cut);
    let seeding = report.checkpoint();
    let opened = seeding.tenants_seeded + seeding.missing + seeding.corrupt;
    assert_eq!(
        opened,
        TENANTS.len(),
        "scenario {index} ({age:?}): {seeding:?}"
    );
    if age == CheckpointAge::Absent {
        assert_eq!(seeding.missing, TENANTS.len(), "scenario {index}");
    }
    if matches!(corruption, Corruption::None) {
        assert!(report.is_clean(), "scenario {index}: {report}");
    } else {
        assert_frame_atomic(&history, report, &survived);
    }

    // Property 1: bit-identical to the uncrashed oracle of the surviving
    // prefix (for clean scenarios that oracle saw everything, so this also
    // proves recovered == live).
    let oracle = oracle_for(&[(&history, &survived)]);
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

    // Property 3: every recovered service re-converges once ingest resumes
    // — feed all sides the same fresh batches and compare again.
    let mut resumed = History {
        ops: BTreeMap::new(),
        next_tick: history.next_tick.clone(),
    };
    let mut resume_rng = seed ^ 0x0DD5_EED5;
    for (round, tenant) in TENANTS.into_iter().enumerate() {
        let bias = tenant.len() as f64 * 0.7;
        let tick = resumed.next_tick.get_mut(tenant).unwrap();
        let points = batch(bias, tick, &mut resume_rng);
        let accepted = oracle.ingest(tenant, &points).unwrap();
        for (recovered, _, _) in &per_parallelism {
            assert_eq!(recovered.ingest(tenant, &points).unwrap(), accepted);
        }
        resumed.ops.entry(tenant).or_default().push(Issued {
            round,
            op: Op::Ingest(points),
            accepted: accepted as u64,
            // Never cut: the second generation corrupts only what follows.
            log_end: u64::MAX,
        });
    }
    oracle.refresh_all().unwrap();
    for (recovered, _, _) in &per_parallelism {
        recovered.refresh_all().unwrap();
        assert_eq!(
            models_of(recovered),
            models_of(&oracle),
            "scenario {index}: no re-convergence after resumed ingest"
        );
    }

    // Property 4: a second crash of each recovered directory, and a second
    // recovery at the same parallelism, equal the oracle of both
    // generations — and each other.
    let resumed_all = surviving_ops(&resumed, None);
    let earlier = [(&history, &survived), (&resumed, &resumed_all)];
    let mut second = Vec::new();
    for (&parallelism, (recovered, _, copy)) in PARALLELISMS.iter().zip(&per_parallelism) {
        let next_tick = resumed.next_tick.clone();
        let setting = (parallelism, snapshot_every);
        let [models, oracle] =
            second_generation(index, recovered, copy, setting, &earlier, next_tick);
        assert_eq!(
            models, oracle,
            "scenario {index}, parallelism {parallelism}: the second recovery diverges"
        );
        second.push(models);
    }
    assert!(second.windows(2).all(|pair| pair[0] == pair[1]));

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
