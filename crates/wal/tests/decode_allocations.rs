//! The decoders' allocation bound: whatever bytes a decoder is handed, it
//! holds at most [`PER_BYTE`] bytes allocated per byte of them at its peak,
//! plus [`FLOOR`] for a file's path, an error's message and the like. A
//! count read from the bytes and trusted to size a buffer breaks it.
//!
//! Each of the five decoders a durable directory is read through — an
//! ingest payload, an admin payload, a snapshot body, a checkpoint record
//! and the format record — is handed the bytes this build encodes for the
//! crate's golden values and [`MUTATIONS`] mutations of them, each sealed
//! under a checksum written out here from the documented layouts (so that
//! every mutation reaches the decoder; the golden bytes check the
//! written-out checksums), through the crate's public readers.
//!
//! The counting allocator keeps its counts per thread, so the harness's
//! own threads do not count.

use sieve_core::{
    CachedClustering, CachedVerdict, ComponentClustering, GrangerConfig, MetricCluster,
    SessionCache, SieveConfig,
};
use sieve_exec::hash::{fold_word, hash_str, splitmix64};
use sieve_exec::Name;
use sieve_graph::{CallGraph, DependencyEdge};
use sieve_simulator::store::{MetricId, MetricStore, Named, RetentionPolicy};
use sieve_wal::{
    AdminEvent, CheckpointRead, FsyncPolicy, IngestBatch, LogFrames, ShardCheckpoint, ShardDir,
    ShardSnapshot, TenantCheckpoint, TenantSnapshot, WalEvent, FORMAT, FORMAT_FILE_NAME,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// The system allocator, keeping for each thread the bytes it holds
/// allocated and their peak since [`peak_bytes`] last reset it.
struct Counting;

thread_local! {
    /// Bytes this thread holds allocated (what it frees of another
    /// thread's allocations counts against it).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has held since [`peak_bytes`] reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Moves this thread's live count by `bytes`, raising its peak with it.
fn count(bytes: isize) {
    // A thread being torn down no longer counts.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the thread's counters are the only addition, and touching
// them allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as received.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes a decoder may hold allocated at its peak per byte it is handed.
const PER_BYTE: usize = 8;
/// Bytes a decoder may hold allocated at its peak whatever it is handed.
const FLOOR: usize = 1024;
/// Mutations of each golden input.
const MUTATIONS: usize = 10_000;

/// The most bytes this thread held allocated at once while running `f`,
/// above what it held before; `f`'s result is dropped inside, so what it
/// returns counts too.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> usize {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    drop(f());
    (PEAK.with(Cell::get) - before).max(0) as usize
}

/// A deterministic stream of pseudo-random words.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(state)
    }
}

/// `bytes` after one to four random edits: a bit flipped, a byte set
/// (often to a varint's or a count's edge), a cut, or a byte inserted.
fn mutate(bytes: &[u8], rand: &mut impl FnMut() -> u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..1 + rand() % 4 {
        let at = |len: usize, r: u64| (r % (len as u64 + 1)) as usize;
        match rand() % 4 {
            0 if !out.is_empty() => {
                let byte = at(out.len() - 1, rand());
                out[byte] ^= 1 << (rand() % 8);
            }
            1 if !out.is_empty() => {
                let byte = at(out.len() - 1, rand());
                out[byte] = [0x00, 0x01, 0x7F, 0x80, 0xFF, rand() as u8][(rand() % 6) as usize];
            }
            2 => out.truncate(at(out.len(), rand())),
            _ => {
                let byte = at(out.len(), rand());
                out.insert(byte, rand() as u8);
            }
        }
    }
    out
}

/// The checksum of a log frame's payload, a snapshot body or a checkpoint
/// record under `seed`: the bytes cut into quarters at multiples of eight
/// (the last takes the rest), each summed by a chain of `fold_word` steps
/// from `fold_word(seed, length) + lane` over its 8-byte little-endian
/// words, the last zero-padded, and the four sums folded into `seed` with
/// `fold_word`, in lane order.
fn lane_checksum(seed: u64, bytes: &[u8]) -> u64 {
    let start = fold_word(seed, bytes.len() as u64);
    let quarter = bytes.len() / 32 * 8;
    (0..4u64).fold(seed, |sum, lane| {
        let from = lane as usize * quarter;
        let to = if lane == 3 {
            bytes.len()
        } else {
            from + quarter
        };
        let chain = bytes[from..to]
            .chunks(8)
            .fold(start.wrapping_add(lane), |sum, chunk| {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                fold_word(sum, u64::from_le_bytes(word))
            });
        fold_word(sum, chain)
    })
}

/// The checksum of a log frame of sequence `seq`: its payload's lane
/// checksum under "SIEVWALF" stepped with the sequence number.
fn frame_checksum(seq: u64, payload: &[u8]) -> u64 {
    lane_checksum(fold_word(0x5349_4556_5741_4C46, seq), payload)
}

/// A whole log frame of sequence 1 around `payload`.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(20 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&1u64.to_le_bytes());
    frame.extend_from_slice(&frame_checksum(1, payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// A snapshot file whose body is `body`, sealed under its checksum.
fn snapshot_file(body: &[u8]) -> Vec<u8> {
    let seed = 0x5349_4556_534E_4150 ^ u64::from(FORMAT);
    let mut file = 0x5349_4556_534E_4150u64.to_le_bytes().to_vec();
    file.extend_from_slice(&FORMAT.to_le_bytes());
    file.extend_from_slice(&lane_checksum(seed, body).to_le_bytes());
    file.extend_from_slice(body);
    file
}

/// A checkpoint file of one tenant record, `record`, sealed under its
/// checksum.
fn checkpoint_file(record: &[u8]) -> Vec<u8> {
    let seed = 0x5349_4556_434B_5054 ^ u64::from(FORMAT);
    let mut file = 0x5349_4556_434B_5054u64.to_le_bytes().to_vec();
    file.extend_from_slice(&FORMAT.to_le_bytes());
    file.extend_from_slice(&(record.len() as u64).to_le_bytes());
    file.extend_from_slice(&lane_checksum(seed, record).to_le_bytes());
    file.extend_from_slice(record);
    file
}

/// The configuration of the golden values: every field spelled out, as a
/// default would follow the host's core count.
fn golden_config(retention: RetentionPolicy) -> SieveConfig {
    SieveConfig {
        interval_ms: 250,
        variance_threshold: 0.01,
        min_clusters: 3,
        max_clusters: 4,
        kshape_max_iterations: 17,
        granger: GrangerConfig {
            max_lag: 5,
            significance: 0.01,
        },
        parallelism: 3,
        retention,
    }
}

/// The payloads of the golden log frames: a tenant's creation, call-graph
/// and retention records, and an ingest batch whose store held five series
/// before it, one created and spelled, one named by its place.
fn golden_payloads() -> Vec<Vec<u8>> {
    let mut graph = CallGraph::new();
    graph.add_component("lonely");
    graph.record_calls("web", "db", 12);
    let events = [
        WalEvent::Admin(AdminEvent::TenantCreated {
            tenant: "acme".into(),
            config: Box::new(golden_config(RetentionPolicy::windowed(128))),
            call_graph: graph.clone(),
        }),
        WalEvent::Admin(AdminEvent::CallGraphReplaced {
            tenant: "acme".into(),
            call_graph: graph,
        }),
        WalEvent::Admin(AdminEvent::RetentionChanged {
            tenant: "acme".into(),
            retention: RetentionPolicy::windowed(64),
        }),
        WalEvent::IngestBatch(IngestBatch {
            tenant: "acme".into(),
            points: vec![(1, 500, 1.5), (0, 500, -3.25)],
            series_before: Some(5),
            watermarks: vec![Named::Spelled(0), Named::Placed(3)],
            digest: 0xABCD_1234,
            spelled: vec![MetricId::new("db", "mem")],
        }),
    ];
    events
        .iter()
        .map(|event| {
            let mut payload = Vec::new();
            event.encode(&mut payload);
            payload
        })
        .collect()
}

/// The golden snapshot: a window of 3 that has evicted 12 points of
/// `web/cpu`, one drained epoch, and a point accepted since.
fn golden_snapshot() -> ShardSnapshot {
    let policy = RetentionPolicy::windowed(3);
    let store = MetricStore::with_retention(policy);
    let (cpu, mem) = (MetricId::new("web", "cpu"), MetricId::new("db", "mem"));
    for t in 0..14u64 {
        store.record(&cpu, t * 500, t as f64 * 0.25 - 1.0);
    }
    store.record(&mem, 0, 1.25);
    store.record(&mem, 500, -2.5);
    store.drain_delta();
    store.record(&cpu, 14 * 500, 2.5);
    let mut graph = CallGraph::new();
    graph.record_calls("web", "db", 3);
    ShardSnapshot {
        shard: 1,
        last_seq: 7,
        tenants: vec![TenantSnapshot {
            tenant: "acme".into(),
            config: Box::new(golden_config(policy)),
            call_graph: graph,
            store: store.freeze(),
        }],
    }
}

/// A checkpoint of one tenant: two clusterings of two clusters and two
/// cached verdicts, one of them with an edge.
fn golden_checkpoint() -> ShardCheckpoint {
    let clustering = |component: &str| {
        let name = |i: usize| Name::new(&format!("{component}_m{i}"));
        ComponentClustering {
            component: Name::new(component),
            total_metrics: 5,
            filtered_metrics: vec![name(99)],
            clusters: (0..2)
                .map(|c| MetricCluster {
                    members: vec![name(2 * c), name(2 * c + 1)],
                    representative: name(2 * c),
                    representative_distance: 0.125 * c as f64,
                })
                .collect(),
            silhouette: 0.48,
            chosen_k: 2,
        }
    };
    let verdict = |edges: Vec<DependencyEdge>| CachedVerdict {
        source_component: Name::new("web"),
        source_metric: Name::new("web_m0"),
        target_component: Name::new("db"),
        target_metric: Name::new(if edges.is_empty() { "db_m0" } else { "db_m2" }),
        source_fp: 22,
        target_fp: 26,
        edges,
    };
    let edge = DependencyEdge {
        source_component: Name::new("web"),
        source_metric: Name::new("web_m0"),
        target_component: Name::new("db"),
        target_metric: Name::new("db_m2"),
        p_value: 0.0125,
        f_statistic: 7.5,
        lag_ms: 1500,
    };
    ShardCheckpoint {
        tenants: vec![TenantCheckpoint {
            tenant: "acme".to_string(),
            cache: SessionCache {
                config_fp: 0xC0F1_6002,
                clusterings: ["db", "web"]
                    .map(|component| CachedClustering {
                        key: 62,
                        clustering: clustering(component),
                    })
                    .into(),
                verdicts: vec![verdict(Vec::new()), verdict(vec![edge])],
            },
        }],
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sieve-decode-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Hands `decode` the input `seal` makes of `golden` and of [`MUTATIONS`]
/// mutations of it, and asserts that each decode peaks within the bound
/// for the input's length. `decode` answers whether the input decoded and
/// its [`peak_bytes`], taken around the decode alone. Returns how many
/// inputs decoded, and the golden input's peak and the worst peak seen
/// against its input's length, each with that length.
fn assert_bounded(
    what: &str,
    golden: &[u8],
    seal: impl Fn(&[u8]) -> Vec<u8>,
    mut decode: impl FnMut(&[u8]) -> (bool, usize),
) -> (usize, [(usize, usize); 2]) {
    let mut rand = rng(hash_str(what));
    let (mut decoded, mut first, mut worst) = (0, (0, 0), (0, 0));
    for mutation in 0..=MUTATIONS {
        let input = seal(&if mutation == 0 {
            golden.to_vec()
        } else {
            mutate(golden, &mut rand)
        });
        let (ok, peak) = decode(&input);
        assert!(ok || mutation > 0, "{what}: the golden input decodes");
        decoded += usize::from(ok);
        let bound = PER_BYTE * input.len() + FLOOR;
        assert!(
            peak <= bound,
            "{what}: {peak} bytes at the peak of decoding {} bytes, past {bound}",
            input.len()
        );
        if mutation == 0 {
            first = (peak, input.len());
        }
        if peak * worst.1.max(1) > worst.0 * input.len().max(1) {
            worst = (peak, input.len());
        }
    }
    (decoded, [first, worst])
}

/// Writes `bytes` to `path` and returns them: the input of a decoder that
/// reads a file.
fn put(path: &Path, bytes: Vec<u8>) -> Vec<u8> {
    std::fs::write(path, &bytes).unwrap();
    bytes
}

#[test]
fn every_decoder_peaks_within_a_multiple_of_its_input() {
    // Names are interned in one table the process shares, which doubles as
    // names come and go until its sweeps hold it to one size. Churned
    // through throwaway names first, it has reached that size, so the
    // count sees a decode's own allocations, not the table's growth.
    for i in 0..8192 {
        drop(Name::new(&format!("throwaway {i}")));
    }
    let mut report = Vec::new();

    // The log's payloads, each framed and read by the log walk, built inside
    // the count: its read window is as long as the log.
    for (index, payload) in golden_payloads().iter().enumerate() {
        let what = ["tenant created", "call graph", "retention", "ingest batch"][index];
        let read = assert_bounded(what, payload, framed, |log| {
            let mut ok = false;
            let peak = peak_bytes(|| {
                let mut frames = LogFrames::new(log, log.len() as u64);
                let mut read = 0;
                while frames.next().is_some() {
                    read += 1;
                }
                ok = read == 1 && frames.finish().is_ok_and(|c| c.is_none());
            });
            (ok, peak)
        });
        report.push((what, read));
    }

    // The snapshot body, read back from its file.
    let dir = temp_dir("snapshot");
    let path = dir.join("wal-shard-1.snap");
    golden_snapshot().write_atomic(&path).unwrap();
    let file = std::fs::read(&path).unwrap();
    assert_eq!(snapshot_file(&file[20..]), file, "the written-out checksum");
    let seal = |body: &[u8]| put(&path, snapshot_file(body));
    let read = assert_bounded("snapshot", &file[20..], seal, |_| {
        let mut ok = false;
        let peak = peak_bytes(|| ok = ShardSnapshot::read(&path).is_ok_and(|s| s.is_some()));
        (ok, peak)
    });
    report.push(("snapshot", read));
    let _ = std::fs::remove_dir_all(&dir);

    // The checkpoint's one tenant record.
    let file = golden_checkpoint().encode();
    assert_eq!(
        checkpoint_file(&file[28..]),
        file,
        "the written-out checksum"
    );
    let read = assert_bounded("checkpoint record", &file[28..], checkpoint_file, |file| {
        let mut ok = false;
        let peak = peak_bytes(|| {
            let read = ShardCheckpoint::decode(file);
            ok = matches!(read, CheckpointRead::Read { damaged: 0, .. });
            read
        });
        (ok, peak)
    });
    report.push(("checkpoint record", read));

    // The format record, read back from its file.
    let dir = temp_dir("format");
    let (created, _) = ShardDir::create(&dir, 0, FsyncPolicy::Never).unwrap();
    let path = dir.join(FORMAT_FILE_NAME);
    let record = std::fs::read(&path).unwrap();
    let seal = |record: &[u8]| put(&path, record.to_vec());
    let read = assert_bounded("format record", &record, seal, |_| {
        let mut ok = false;
        let peak = peak_bytes(|| ok = created.format().is_ok_and(|n| n == Some(FORMAT)));
        (ok, peak)
    });
    report.push(("format record", read));
    let _ = std::fs::remove_dir_all(&dir);

    // A walk's peak is its window, as long as the log, and what the frame
    // decodes to: 283 B for the golden ingest frame (83 B), 38 B for the
    // retention frame (38 B).
    for (what, (decoded, [(golden, golden_len), (peak, len)])) in &report {
        println!(
            "{what}: {decoded} of {} inputs decoded; golden input's peak {golden} B for \
             {golden_len} B, worst peak {peak} B for {len} B",
            MUTATIONS + 1
        );
        // Not vacuous: images that decode are held to the bound too.
        assert!(*decoded > 100, "{what}: {decoded}");
    }
}
