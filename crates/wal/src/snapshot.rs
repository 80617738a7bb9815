//! Atomic per-shard snapshots: the log-truncation anchor.
//!
//! A [`ShardSnapshot`] captures every tenant of one shard — frozen store
//! image, analysis configuration, call graph — plus `last_seq`, the log
//! sequence number the snapshot covers. Recovery restores the snapshot
//! and replays only log frames with a *higher* sequence number, so the
//! log can be truncated whenever a snapshot lands and replay work stays
//! bounded no matter how long the service runs.
//!
//! Snapshots are written atomically (temp file, `fsync`, rename:
//! [`crate::ShardDir::anchor`]), so a crash leaves the old snapshot or
//! none, and the header's body checksum makes a bit-flipped one read as
//! absent (recovery then falls back to pure log replay).
//!
//! ```text
//! [magic: u64 LE][version: u32 LE][body checksum: u64 LE][body]
//! ```
//!
//! The body checksum is the directory's one checksum, the log frames' and
//! the checkpoint records' too ([`lane_checksum`]), seeded with the magic
//! and the version.
//!
//! The version is the directory's format number ([`FORMAT`]), and this
//! build reads no other. It sits outside what the checksum covers (it
//! seeds it instead), so a snapshot whose version is not [`FORMAT`] — its
//! field flipped, or a file copied in from a directory of another format
//! — is rejected as unsupported, like any other corruption, and recovery
//! falls back to the log. A whole directory of another format never gets
//! this far: its format record refuses it first.
//!
//! A checksum that verifies is not the last word: a body whose store image
//! breaks the store's rule (`StoreState::validate`) or whose configuration
//! a session would refuse is rejected as corrupt too, so every image a
//! snapshot hands back is one ingest could have built.

use crate::codec::{
    put_call_graph, put_sieve_config, put_store_state, put_str, put_u32, put_u64, put_usize,
    take_call_graph, take_sieve_config, take_store_state, Cursor, DecodeResult,
};
use crate::dir::{read_whole, write_durable};
use crate::format::FORMAT;
use crate::frame::lane_checksum;
use crate::{Result, WalError};
use sieve_core::SieveConfig;
use sieve_graph::CallGraph;
use sieve_simulator::store::StoreState;
use std::path::Path;

/// Magic prefix of a snapshot file ("SIEVSNAP" in ASCII).
const MAGIC: u64 = 0x5349_4556_534E_4150;

/// The header checksum of a snapshot body: [`lane_checksum`] seeded with
/// the magic and the format.
fn body_checksum(body: &[u8]) -> u64 {
    lane_checksum(MAGIC ^ u64::from(FORMAT), body)
}

/// One tenant's durable image inside a shard snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub tenant: String,
    /// The tenant's analysis configuration.
    pub config: Box<SieveConfig>,
    /// The call graph the tenant's session plans comparisons over.
    pub call_graph: CallGraph,
    /// The frozen metric store (retained windows, fingerprints, epoch
    /// watermark, written/evicted counters).
    pub store: StoreState,
}

/// Everything one shard needs to come back: its tenants plus the log
/// watermark the snapshot covers.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Index of the shard this snapshot belongs to.
    pub shard: usize,
    /// Highest log sequence number whose effects are inside the
    /// snapshot. Replay skips frames with `seq <= last_seq`.
    pub last_seq: u64,
    /// Every tenant of the shard, sorted by name.
    pub tenants: Vec<TenantSnapshot>,
}

impl ShardSnapshot {
    /// Encodes the snapshot: magic, version, checksum over the body, body.
    /// The body is written in place behind the header, whose checksum is
    /// filled in last.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, MAGIC);
        put_u32(&mut bytes, FORMAT);
        put_u64(&mut bytes, 0);
        let body_start = bytes.len();
        put_usize(&mut bytes, self.shard);
        put_u64(&mut bytes, self.last_seq);
        put_usize(&mut bytes, self.tenants.len());
        for tenant in &self.tenants {
            put_str(&mut bytes, &tenant.tenant);
            put_sieve_config(&mut bytes, &tenant.config);
            put_call_graph(&mut bytes, &tenant.call_graph);
            put_store_state(&mut bytes, &tenant.store);
        }
        let sum = body_checksum(&bytes[body_start..]);
        bytes[body_start - 8..body_start].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Decodes and verifies a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a descriptive reason if the magic, version, checksum or
    /// body is wrong — the caller treats any of these as "snapshot
    /// absent" and falls back to log replay.
    pub(crate) fn decode(bytes: &[u8]) -> DecodeResult<Self> {
        let mut cur = Cursor::new(bytes);
        let magic = cur.take_u64("snapshot magic")?;
        if magic != MAGIC {
            return Err(format!("bad snapshot magic {magic:#x}"));
        }
        let version = cur.take_u32("snapshot version")?;
        if version != FORMAT {
            return Err(format!("unsupported snapshot version {version}"));
        }
        let stored = cur.take_u64("snapshot checksum")?;
        let body = &bytes[cur.position()..];
        if body_checksum(body) != stored {
            return Err("snapshot checksum mismatch".to_string());
        }
        let shard = cur.take_usize("snapshot shard")?;
        let last_seq = cur.take_u64("snapshot last_seq")?;
        let tenant_count = cur.take_usize("snapshot tenant count")?;
        // Grown as tenants decode, so a damaged count reserves nothing.
        let mut tenants = Vec::new();
        for _ in 0..tenant_count {
            tenants.push(TenantSnapshot {
                tenant: cur.take_str("tenant name")?.to_string(),
                config: Box::new(take_sieve_config(&mut cur)?),
                call_graph: take_call_graph(&mut cur)?,
                store: take_store_state(&mut cur)?,
            });
        }
        if !cur.is_empty() {
            return Err("trailing garbage after snapshot".to_string());
        }
        Ok(Self {
            shard,
            last_seq,
            tenants,
        })
    }

    /// Writes the snapshot atomically: `<path>.tmp` + `fsync` + `rename`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; on error the previous snapshot (if
    /// any) is still in place.
    pub fn write_atomic(&self, path: &Path) -> Result<()> {
        write_durable(path, &self.encode())
    }

    /// Reads a snapshot from `path`: `Ok(None)` if the file does not
    /// exist, [`WalError::Corrupt`] if it exists but fails verification.
    ///
    /// # Errors
    ///
    /// I/O failures other than not-found, and corruption.
    pub fn read(path: &Path) -> Result<Option<Self>> {
        let Some(bytes) = read_whole(path)? else {
            return Ok(None);
        };
        Self::decode(&bytes)
            .map(Some)
            .map_err(|reason| WalError::Corrupt { offset: 0, reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::unhex;
    use crate::testing::{mutate, rng};
    use sieve_exec::hash::{fold_word, FINGERPRINT_SEED};
    use sieve_simulator::store::{MetricId, MetricStore, RetentionPolicy};

    fn sample() -> ShardSnapshot {
        let store = MetricStore::with_retention(RetentionPolicy::windowed(4));
        for t in 0..17u64 {
            store.record(&MetricId::new("web", "cpu"), t * 500, t as f64);
        }
        let mut graph = CallGraph::new();
        graph.record_calls("web", "db", 3);
        ShardSnapshot {
            shard: 2,
            last_seq: 19,
            tenants: vec![TenantSnapshot {
                tenant: "acme".into(),
                config: Box::new(SieveConfig::default().with_cluster_range(2, 2)),
                call_graph: graph,
                store: store.freeze(),
            }],
        }
    }

    #[test]
    fn snapshots_roundtrip_bit_identically() {
        let snapshot = sample();
        let decoded = ShardSnapshot::decode(&snapshot.encode()).unwrap();
        assert_eq!(decoded, snapshot);
        // The store image inside survives restore exactly.
        let restored = MetricStore::restore(decoded.tenants[0].store.clone());
        assert_eq!(restored.freeze(), snapshot.tenants[0].store);
    }

    #[test]
    fn corrupt_snapshots_are_rejected_not_misread() {
        let bytes = sample().encode();
        assert!(ShardSnapshot::decode(&[]).is_err(), "empty file");
        assert!(
            ShardSnapshot::decode(&bytes[..bytes.len() - 1]).is_err(),
            "truncation"
        );
        for position in [0, 9, 15, 40, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[position] ^= 0x01;
            assert!(
                ShardSnapshot::decode(&flipped).is_err(),
                "bit flip at byte {position} must not verify"
            );
        }
        // A file of any other version, older or newer: the layout is not
        // this build's, whatever the checksum says.
        for other in [1, 2, 3, 4, 5, 6, 7, 8, 9, FORMAT + 1] {
            let mut stale = bytes.clone();
            stale[8..12].copy_from_slice(&other.to_le_bytes());
            assert_eq!(
                ShardSnapshot::decode(&stale).unwrap_err(),
                format!("unsupported snapshot version {other}")
            );
        }
    }

    /// What every golden snapshot below encodes, with the live store behind
    /// it: a window of 3 that has evicted 12 points of `web/cpu`, one
    /// drained epoch, and a point accepted since — so `web/cpu` is frozen
    /// dirty.
    fn golden_snapshot() -> (ShardSnapshot, MetricStore) {
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
        // Every configuration field spelled out: a default would follow the
        // host's core count.
        let config = SieveConfig {
            interval_ms: 250,
            variance_threshold: 0.01,
            min_clusters: 3,
            max_clusters: 4,
            kshape_max_iterations: 17,
            granger: sieve_core::GrangerConfig {
                max_lag: 5,
                significance: 0.01,
            },
            parallelism: 3,
            retention: policy,
        };
        let snapshot = ShardSnapshot {
            shard: 1,
            last_seq: 7,
            tenants: vec![TenantSnapshot {
                tenant: "acme".into(),
                config: Box::new(config),
                call_graph: graph,
                store: store.freeze(),
            }],
        };
        (snapshot, store)
    }

    /// `ShardSnapshot::encode` of [`golden_snapshot`] today, format 10: the
    /// bytes a directory written today holds.
    const GOLDEN_SNAPSHOT: &str =
        "50414e53564549530a00000022d55b63cd0a8f1701000000000000000700000000000000010000000000000004000000\
         61636d65fa000000000000007b14ae47e17a843f03000000000000000400000000000000110000000000000005000000\
         000000007b14ae47e17a843f030000000000000001030000000000000002000000000000000200000064620300000077\
         656201000000000000000300000077656202000000646203000000000000000103000000000000000100000000000000\
         11000000000000000c000000000000000200000000000000020000006462030000006d656d0200000000000000000000\
         0000000000f401000000000000000000000000f43f00000000000004c0acdd56e6d9f478a40003000000776562030000\
         00637075030000000000000070170000000000006419000000000000581b000000000000000000000000004000000000\
         0000024000000000000004409a4382f489e38a8301";

    /// The same snapshot as the format-9 build wrote it: the same body under
    /// version 9, and under the checksum whose four lane sums folded with
    /// `mix`.
    const GOLDEN_V9_SNAPSHOT: &str =
        "50414e5356454953090000000c5df6fb59cab6a501000000000000000700000000000000010000000000000004000000\
         61636d65fa000000000000007b14ae47e17a843f03000000000000000400000000000000110000000000000005000000\
         000000007b14ae47e17a843f030000000000000001030000000000000002000000000000000200000064620300000077\
         656201000000000000000300000077656202000000646203000000000000000103000000000000000100000000000000\
         11000000000000000c000000000000000200000000000000020000006462030000006d656d0200000000000000000000\
         0000000000f401000000000000000000000000f43f00000000000004c0acdd56e6d9f478a40003000000776562030000\
         00637075030000000000000070170000000000006419000000000000581b000000000000000000000000004000000000\
         0000024000000000000004409a4382f489e38a8301";

    /// The same snapshot as the format-8 build wrote it: version 8, and
    /// each series' fingerprint stepped by two `mix` calls a point (and
    /// one an eviction) in place of one `fold_word` a word.
    const GOLDEN_V8_SNAPSHOT: &str =
        "50414e53564549530800000047a81610e32de52c01000000000000000700000000000000010000000000000004000000\
         61636d65fa000000000000007b14ae47e17a843f03000000000000000400000000000000110000000000000005000000\
         000000007b14ae47e17a843f030000000000000001030000000000000002000000000000000200000064620300000077\
         656201000000000000000300000077656202000000646203000000000000000103000000000000000100000000000000\
         11000000000000000c000000000000000200000000000000020000006462030000006d656d0200000000000000000000\
         0000000000f401000000000000000000000000f43f00000000000004c00d131ea9e317bdb20003000000776562030000\
         00637075030000000000000070170000000000006419000000000000581b000000000000000000000000004000000000\
         000002400000000000000440fe4082463203469f01";

    /// The same snapshot as the format-7 build wrote it: the same body under
    /// version 7, and under the checksum whose step was two `splitmix64`
    /// calls.
    const GOLDEN_V7_SNAPSHOT: &str =
        "50414e535645495307000000712e540cfb2b18dc01000000000000000700000000000000010000000000000004000000\
         61636d65fa000000000000007b14ae47e17a843f03000000000000000400000000000000110000000000000005000000\
         000000007b14ae47e17a843f030000000000000001030000000000000002000000000000000200000064620300000077\
         656201000000000000000300000077656202000000646203000000000000000103000000000000000100000000000000\
         11000000000000000c000000000000000200000000000000020000006462030000006d656d0200000000000000000000\
         0000000000f401000000000000000000000000f43f00000000000004c00d131ea9e317bdb20003000000776562030000\
         00637075030000000000000070170000000000006419000000000000581b000000000000000000000000004000000000\
         000002400000000000000440fe4082463203469f01";

    /// The same snapshot as the format-6 build wrote it: the same body under
    /// version 6, and so under another checksum.
    const GOLDEN_V6_SNAPSHOT: &str =
        "50414e5356454953060000003f0caf3371e6c53a01000000000000000700000000000000010000000000000004000000\
         61636d65fa000000000000007b14ae47e17a843f03000000000000000400000000000000110000000000000005000000\
         000000007b14ae47e17a843f030000000000000001030000000000000002000000000000000200000064620300000077\
         656201000000000000000300000077656202000000646203000000000000000103000000000000000100000000000000\
         11000000000000000c000000000000000200000000000000020000006462030000006d656d0200000000000000000000\
         0000000000f401000000000000000000000000f43f00000000000004c00d131ea9e317bdb20003000000776562030000\
         00637075030000000000000070170000000000006419000000000000581b000000000000000000000000004000000000\
         000002400000000000000440fe4082463203469f01";

    /// The same snapshot as the build before format 6 wrote it, version 5:
    /// the retention policy, in the configuration and in the store, one
    /// tier capacity (8 bytes) longer, and each series followed by its two
    /// tier images.
    const GOLDEN_V5_SNAPSHOT: &str =
        "50414e53564549530500000033e0d92fa451486701000000000000000700000000000000010000000000000004000000\
         61636d65fa000000000000007b14ae47e17a843f03000000000000000400000000000000110000000000000005000000\
         000000007b14ae47e17a843f030000000000000001030000000000000002000000000000000200000000000000020000\
         006462030000007765620100000000000000030000007765620200000064620300000000000000010300000000000000\
         0200000000000000010000000000000011000000000000000c0000000000000002000000000000000200000064620300\
         00006d656d02000000000000000000000000000000f401000000000000000000000000f43f00000000000004c00d131e\
         a9e317bdb200000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000300000077656203000000637075030000000000000070170000\
         000000006419000000000000581b000000000000000000000000004000000000000002400000000000000440fe408246\
         3203469f010100000000000000000000000000000094110000000000000a000000000000000000c03f000000000000f0\
         bf000000000000f43f02000000020000000000000000000a40000000000000f83f000000000000fc3f88130000000000\
         007c15000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000";

    #[test]
    fn a_snapshot_of_this_format_matches_its_golden_and_its_store_continues() {
        let (snapshot, live) = golden_snapshot();
        let golden = unhex(GOLDEN_SNAPSHOT);
        assert_eq!(snapshot.encode(), golden);
        let decoded = ShardSnapshot::decode(&golden).unwrap();
        assert_eq!(decoded, snapshot, "series, dirt, epoch, counters");
        assert_eq!(golden[8..12], FORMAT.to_le_bytes());

        // The same facts as the build that wrote the version-2 golden
        // printed them, so the equality above is not two copies of one
        // mistake — but for the fingerprints, which format 9 steps with
        // `fold_word`: `db/mem`'s is its two points' chain written out.
        let (cpu, mem) = (MetricId::new("web", "cpu"), MetricId::new("db", "mem"));
        let restored = MetricStore::restore(decoded.tenants[0].store.clone());
        assert_eq!(restored.epoch(), 1);
        assert_eq!(restored.point_count(), 17);
        assert_eq!(restored.evicted_point_count(), 12);
        assert_eq!(restored.fingerprint(&cpu), Some(0x838a_e389_f482_439a));
        assert_eq!(restored.fingerprint(&mem), Some(0xa478_f4d9_e656_ddac));
        let words = [0, 1.25f64.to_bits(), 500, (-2.5f64).to_bits()];
        let chain = words.into_iter().fold(FINGERPRINT_SEED, fold_word);
        assert_eq!(chain, 0xa478_f4d9_e656_ddac);

        // The frozen dirty mark survives, and the stream continues on the
        // restored store exactly as it does on the live one.
        let delta = restored.drain_delta();
        assert_eq!((delta.epoch, &delta.touched), (2, &vec![cpu.clone()]));
        assert_eq!(live.drain_delta(), delta);
        for t in 15..40u64 {
            for store in [&restored, &live] {
                store.record(&cpu, t * 500, (t % 7) as f64 * 0.5);
                store.record(&mem, t * 500, (t % 5) as f64);
            }
        }
        assert_eq!(restored.fingerprint(&cpu), Some(0xb7ad_0eec_2bc0_209c));
        assert_eq!(restored.fingerprint(&mem), Some(0x3754_3e21_3868_7a55));
        assert_eq!(restored.freeze(), live.freeze());

        // Format 10 changed the checksum, not the body: it is format 9's.
        assert_eq!(golden[20..], unhex(GOLDEN_V9_SNAPSHOT)[20..]);

        // Format 9 changed the fingerprint step: the body is format 8's
        // with each series' fingerprint re-stepped, and nothing else.
        let v8 = unhex(GOLDEN_V8_SNAPSHOT);
        let mut restepped = v8[20..].to_vec();
        for (format8, format9) in [
            (0xb2bd_17e3_a91e_130d_u64, 0xa478_f4d9_e656_ddac_u64),
            (0x9f46_0332_4682_40fe, 0x838a_e389_f482_439a),
        ] {
            let old = format8.to_le_bytes();
            let at = restepped.windows(8).position(|word| word == old).unwrap();
            restepped[at..at + 8].copy_from_slice(&format9.to_le_bytes());
        }
        assert_eq!(golden[20..], restepped);

        // Formats 7 and 8 changed the log's ingest frames and the checksum
        // step, not the snapshot body: format 8's is the version-6 golden's.
        assert_eq!(v8[20..], unhex(GOLDEN_V7_SNAPSHOT)[20..]);
        assert_eq!(v8[20..], unhex(GOLDEN_V6_SNAPSHOT)[20..]);

        // Against the version-5 body, each retention policy lost its tier
        // capacity (a `u64` after the raw capacity: the configuration's at
        // body offset 105, the store's at 172) and each series its two tier
        // images (`db/mem`'s two empty ones, 112 bytes at 274; `web/cpu`'s,
        // one closed 10x bucket among them, 156 bytes at 465).
        let v5 = unhex(GOLDEN_V5_SNAPSHOT);
        let body = &v5[20..];
        let kept = [
            &body[..105],
            &body[113..172],
            &body[180..274],
            &body[386..465],
            &body[621..],
        ];
        assert_eq!(v8[20..], kept.concat());
    }

    /// `ShardSnapshot::encode` of [`golden_snapshot`]'s store as commit
    /// 4bb2761 wrote it: format version 2, the store carrying a default cost
    /// model (41 bytes) and a read counter of 3 (8 bytes), the tenant
    /// configuration two Granger fields longer.
    const GOLDEN_V2_SNAPSHOT: &str =
        "50414e5356454953020000005f5a8d037aea11ee01000000000000000700000000000000010000000000000004000000\
         61636d65fa000000000000007b14ae47e17a843f03000000000000000400000000000000110000000000000005000000\
         000000007b14ae47e17a843f002900000000000000030000000000000001030000000000000002000000000000000200\
         000000000000020000006462030000007765620100000000000000030000007765620200000064620300000000000000\
         0103000000000000000200000000000000012d431cebe236fa3e00000000000028400000000000005e40000000000000\
         20400000000000c08240010000000000000011000000000000000c000000000000000300000000000000020000000000\
         0000020000006462030000006d656d02000000000000000000000000000000f401000000000000000000000000f43f00\
         000000000004c00d131ea9e317bdb2000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000003000000776562030000006370750300\
         00000000000070170000000000006419000000000000581b000000000000000000000000004000000000000002400000\
         000000000440fe4082463203469f010100000000000000000000000000000094110000000000000a0000000000000000\
         00c03f000000000000f0bf000000000000f43f02000000020000000000000000000a40000000000000f83f0000000000\
         00fc3f88130000000000007c150000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000";

    /// The same snapshot as commit 432bd7b wrote it, format version 3: its
    /// body checksummed by one chain.
    const GOLDEN_V3_SNAPSHOT: &str =
        "50414e535645495303000000ab592b978c5f55cd01000000000000000700000000000000010000000000000004000000\
         61636d65fa000000000000007b14ae47e17a843f03000000000000000400000000000000110000000000000005000000\
         000000007b14ae47e17a843f002900000000000000030000000000000001030000000000000002000000000000000200\
         000000000000020000006462030000007765620100000000000000030000007765620200000064620300000000000000\
         0103000000000000000200000000000000010000000000000011000000000000000c0000000000000002000000000000\
         00020000006462030000006d656d02000000000000000000000000000000f401000000000000000000000000f43f0000\
         0000000004c00d131ea9e317bdb200000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000300000077656203000000637075030000\
         000000000070170000000000006419000000000000581b00000000000000000000000000400000000000000240000000\
         0000000440fe4082463203469f010100000000000000000000000000000094110000000000000a000000000000000000\
         c03f000000000000f0bf000000000000f43f02000000020000000000000000000a40000000000000f83f000000000000\
         fc3f88130000000000007c15000000000000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000";

    /// The same snapshot as the build before format records wrote it,
    /// version 4: [`GOLDEN_V3_SNAPSHOT`]'s body under a four-lane checksum.
    const GOLDEN_V4_SNAPSHOT: &str =
        "50414e535645495304000000bc221d9a94c754b001000000000000000700000000000000010000000000000004000000\
         61636d65fa000000000000007b14ae47e17a843f03000000000000000400000000000000110000000000000005000000\
         000000007b14ae47e17a843f002900000000000000030000000000000001030000000000000002000000000000000200\
         000000000000020000006462030000007765620100000000000000030000007765620200000064620300000000000000\
         0103000000000000000200000000000000010000000000000011000000000000000c0000000000000002000000000000\
         00020000006462030000006d656d02000000000000000000000000000000f401000000000000000000000000f43f0000\
         0000000004c00d131ea9e317bdb200000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000000000000000000000000000300000077656203000000637075030000\
         000000000070170000000000006419000000000000581b00000000000000000000000000400000000000000240000000\
         0000000440fe4082463203469f010100000000000000000000000000000094110000000000000a000000000000000000\
         c03f000000000000f0bf000000000000f43f02000000020000000000000000000a40000000000000f83f000000000000\
         fc3f88130000000000007c15000000000000000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000000000";

    fn assert_refused_as_unsupported(hex: &str, version: u32) {
        assert_eq!(
            ShardSnapshot::decode(&unhex(hex)).unwrap_err(),
            format!("unsupported snapshot version {version}")
        );
    }

    #[test]
    fn a_version_2_snapshot_is_refused_as_unsupported() {
        assert_refused_as_unsupported(GOLDEN_V2_SNAPSHOT, 2);
    }

    #[test]
    fn a_version_3_snapshot_is_refused_as_unsupported() {
        assert_refused_as_unsupported(GOLDEN_V3_SNAPSHOT, 3);
    }

    #[test]
    fn a_version_4_snapshot_is_refused_as_unsupported() {
        assert_refused_as_unsupported(GOLDEN_V4_SNAPSHOT, 4);
    }

    #[test]
    fn a_version_5_snapshot_is_refused_as_unsupported() {
        assert_refused_as_unsupported(GOLDEN_V5_SNAPSHOT, 5);
    }

    #[test]
    fn a_version_6_snapshot_is_refused_as_unsupported() {
        assert_refused_as_unsupported(GOLDEN_V6_SNAPSHOT, 6);
    }

    #[test]
    fn a_version_7_snapshot_is_refused_as_unsupported() {
        assert_refused_as_unsupported(GOLDEN_V7_SNAPSHOT, 7);
    }

    #[test]
    fn a_version_8_snapshot_is_refused_as_unsupported() {
        assert_refused_as_unsupported(GOLDEN_V8_SNAPSHOT, 8);
    }

    #[test]
    fn a_version_9_snapshot_is_refused_as_unsupported() {
        assert_refused_as_unsupported(GOLDEN_V9_SNAPSHOT, 9);
    }

    /// The clauses of the store's rule `state` breaks, each checked here
    /// field by field rather than through `StoreState::validate`: ids out
    /// of order or repeated, a series with more timestamps than values or
    /// fewer, timestamps not ascending, a non-finite value, a window past
    /// the capacity, windows that do not sum to the written less the
    /// evicted points.
    fn broken_clauses(state: &StoreState) -> [bool; 6] {
        let series = &state.series;
        let retained: u64 = series.iter().map(|s| s.timestamps_ms.len() as u64).sum();
        let capacity = state.retention.raw_capacity();
        [
            series.windows(2).any(|pair| pair[0].id >= pair[1].id),
            series
                .iter()
                .any(|s| s.timestamps_ms.len() != s.values.len()),
            series
                .iter()
                .any(|s| s.timestamps_ms.windows(2).any(|pair| pair[0] >= pair[1])),
            series
                .iter()
                .any(|s| s.values.iter().any(|v| !v.is_finite())),
            series
                .iter()
                .any(|s| capacity.is_some_and(|cap| s.values.len() > cap)),
            state.points_written.checked_sub(state.points_evicted) != Some(retained),
        ]
    }

    #[test]
    fn mutated_golden_snapshot_bodies_decode_only_to_images_ingest_could_build() {
        // 100,000 mutations of the golden snapshot's body, each under a
        // recomputed checksum so that every one reaches the decoder. Run in
        // the debug build, so every `debug_assert!` on the way counts —
        // `MetricStore::restore`'s of the store's rule among them.
        const MUTATIONS: usize = 100_000;
        let golden = unhex(GOLDEN_SNAPSHOT);
        let (header, body) = golden.split_at(20);
        let mut rand = rng(0x5_4A95_0001);
        let (mut decoded, mut broken) = (0usize, [0usize; 6]);
        for _ in 0..MUTATIONS {
            let mut bytes = header.to_vec();
            let body = mutate(body, &mut rand);
            bytes[12..20].copy_from_slice(&body_checksum(&body).to_le_bytes());
            bytes.extend_from_slice(&body);
            let Ok(snapshot) = ShardSnapshot::decode(&bytes) else {
                continue;
            };
            decoded += 1;
            for tenant in snapshot.tenants {
                for (count, broke) in broken.iter_mut().zip(broken_clauses(&tenant.store)) {
                    *count += usize::from(broke);
                }
                let restored = MetricStore::restore(tenant.store.clone());
                assert_eq!(restored.freeze(), tenant.store, "restore keeps the image");
            }
        }
        assert_eq!(broken, [0; 6], "of {decoded} decoded snapshots");
        // Not vacuous: a share decodes — a value, a fingerprint, a name's
        // byte changed — and is held to the rule.
        assert!(decoded > 1_000, "{decoded}");
    }

    #[test]
    fn the_four_lane_checksum_catches_what_one_chain_catches() {
        let bytes = sample().encode();
        let body = &bytes[20..];
        let stored = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        assert_eq!(body_checksum(body), stored);
        // Every single bit flip of the body, in every lane and the tail.
        for at in 0..body.len() {
            for bit in 0..8 {
                let mut flipped = body.to_vec();
                flipped[at] ^= 1 << bit;
                assert_ne!(body_checksum(&flipped), stored, "byte {at} bit {bit}");
            }
        }
        // Swapping two whole quarters moves bytes between lanes.
        let quarter = body.len() / 32 * 8;
        let mut swapped = body.to_vec();
        swapped[..2 * quarter].rotate_left(quarter);
        assert_ne!(swapped, body, "the first two quarters differ");
        assert_ne!(body_checksum(&swapped), stored);
        // Bodies shorter than the four lanes, and empty, still checksum,
        // and the length is covered: bodies of zeros sum apart, however
        // many of them a zero-padded last word holds.
        let mut sums: Vec<u64> = (0..40).map(|len| body_checksum(&vec![0; len])).collect();
        sums.sort_unstable();
        sums.dedup();
        assert_eq!(sums.len(), 40);
    }

    #[test]
    fn write_atomic_and_read_roundtrip_via_the_filesystem() {
        let dir = std::env::temp_dir().join(format!("sieve-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-shard-2.snap");
        let _ = std::fs::remove_file(&path);

        assert!(ShardSnapshot::read(&path).unwrap().is_none(), "absent file");
        let snapshot = sample();
        snapshot.write_atomic(&path).unwrap();
        assert_eq!(ShardSnapshot::read(&path).unwrap().unwrap(), snapshot);

        // A corrupted file on disk surfaces as Corrupt, not a misread.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ShardSnapshot::read(&path),
            Err(WalError::Corrupt { .. })
        ));

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
