//! Atomic per-shard snapshots: the log-truncation anchor.
//!
//! A [`ShardSnapshot`] captures every tenant of one shard — frozen store
//! image, analysis configuration, call graph — plus `last_seq`, the log
//! sequence number the snapshot covers. Recovery restores the snapshot
//! and replays only log frames with a *higher* sequence number, so the
//! log can be truncated whenever a snapshot lands and replay work stays
//! bounded no matter how long the service runs.
//!
//! Snapshots are written atomically: encode to `<path>.tmp`, `fsync`,
//! then `rename` over the final path. A crash mid-write leaves either the
//! old snapshot or none — never a half-written one — and the whole file
//! carries a trailing checksum so a bit-flipped snapshot is detected and
//! treated as absent (recovery then falls back to pure log replay).

use crate::codec::{
    put_call_graph, put_sieve_config, put_store_state, put_str, put_u32, put_u64, put_usize,
    take_call_graph, take_sieve_config, take_store_state, Cursor, DecodeResult, IdMemo,
};
use crate::frame::checksum;
use crate::{Result, WalError};
use sieve_core::config::SieveConfig;
use sieve_graph::CallGraph;
use sieve_simulator::store::StoreState;
use std::io::Write;
use std::path::Path;

/// Magic prefix of a snapshot file ("SIEVSNAP" in ASCII).
const MAGIC: u64 = 0x5349_4556_534E_4150;
/// Format version, bumped on incompatible layout changes. Any other
/// version is rejected, never reinterpreted: version 1 carried two more
/// bytes per tenant configuration.
const VERSION: u32 = 2;

/// One tenant's durable image inside a shard snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub tenant: String,
    /// The tenant's analysis configuration.
    pub config: Box<SieveConfig>,
    /// The call graph the tenant's session plans comparisons over.
    pub call_graph: CallGraph,
    /// The frozen metric store (retained windows, tiers, fingerprints,
    /// epoch watermark, accounting).
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
    /// Encodes the snapshot: magic, version, body, trailing checksum over
    /// the body.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_usize(&mut body, self.shard);
        put_u64(&mut body, self.last_seq);
        put_usize(&mut body, self.tenants.len());
        for tenant in &self.tenants {
            put_str(&mut body, &tenant.tenant);
            put_sieve_config(&mut body, &tenant.config);
            put_call_graph(&mut body, &tenant.call_graph);
            put_store_state(&mut body, &tenant.store);
        }
        let mut bytes = Vec::with_capacity(body.len() + 28);
        put_u64(&mut bytes, MAGIC);
        put_u32(&mut bytes, VERSION);
        put_u64(&mut bytes, checksum(MAGIC ^ u64::from(VERSION), &body));
        bytes.extend_from_slice(&body);
        bytes
    }

    /// Decodes and verifies a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a descriptive reason if the magic, version, checksum or
    /// body is wrong — the caller treats any of these as "snapshot
    /// absent" and falls back to log replay.
    pub fn decode(bytes: &[u8]) -> DecodeResult<Self> {
        let mut cur = Cursor::new(bytes);
        let magic = cur.take_u64("snapshot magic")?;
        if magic != MAGIC {
            return Err(format!("bad snapshot magic {magic:#x}"));
        }
        let version = cur.take_u32("snapshot version")?;
        if version != VERSION {
            return Err(format!("unsupported snapshot version {version}"));
        }
        let stored = cur.take_u64("snapshot checksum")?;
        let body = &bytes[cur.position()..];
        if checksum(MAGIC ^ u64::from(version), body) != stored {
            return Err("snapshot checksum mismatch".to_string());
        }
        let shard = cur.take_usize("snapshot shard")?;
        let last_seq = cur.take_u64("snapshot last_seq")?;
        let tenant_count = cur.take_usize("snapshot tenant count")?;
        let mut tenants = Vec::with_capacity(tenant_count.min(4096));
        let mut memo = IdMemo::default();
        for _ in 0..tenant_count {
            tenants.push(TenantSnapshot {
                tenant: cur.take_str("tenant name")?.to_string(),
                config: Box::new(take_sieve_config(&mut cur)?),
                call_graph: take_call_graph(&mut cur)?,
                store: take_store_state(&mut cur, &mut memo)?,
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
        let tmp = path.with_extension("snap.tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&self.encode())?;
            file.sync_data()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads a snapshot from `path`: `Ok(None)` if the file does not
    /// exist, [`WalError::Corrupt`] if it exists but fails verification.
    ///
    /// # Errors
    ///
    /// I/O failures other than not-found, and corruption.
    pub fn read(path: &Path) -> Result<Option<Self>> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Self::decode(&bytes)
            .map(Some)
            .map_err(|reason| WalError::Corrupt { offset: 0, reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // An intact file of another format version: the checksum verifies,
        // the layout is not ours.
        let older = VERSION - 1;
        let body = &bytes[20..];
        let mut stale = Vec::new();
        put_u64(&mut stale, MAGIC);
        put_u32(&mut stale, older);
        put_u64(&mut stale, checksum(MAGIC ^ u64::from(older), body));
        stale.extend_from_slice(body);
        assert_eq!(
            ShardSnapshot::decode(&stale).unwrap_err(),
            "unsupported snapshot version 1"
        );
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
