//! Per-shard analysis checkpoints: a cache beside the durable state.
//!
//! A [`ShardCheckpoint`] holds, per tenant of one shard, the content-keyed
//! caches of its analysis session ([`SessionCache`]: clusterings by
//! clustering key, Granger verdicts by comparison and endpoint
//! fingerprints). Recovery seeds the sessions it opens with them, so the
//! first sweep after a crash re-clusters and re-tests only what changed
//! since the checkpoint was written instead of everything.
//!
//! It is a cache, never state: the logs and snapshots alone rebuild every
//! model, and every key names the content, the configuration and the
//! analysis build it was computed under, so an entry either matches exactly
//! or misses. A checkpoint that is missing, torn, bit-flipped, of another
//! format or stale therefore costs work, never correctness — reading one
//! never fails ([`CheckpointRead`]). Writing one takes a temp file and a
//! rename, and no `fsync` ([`crate::ShardDir::write_checkpoint`]): a crash
//! can lose the latest checkpoint, and then the one before it, or none,
//! serves.
//!
//! ```text
//! [magic: u64 LE][format: u32 LE]
//! then per tenant: [record length: u64 LE][record checksum: u64 LE][record]
//! record: tenant name, config fingerprint, clusterings, verdicts
//! ```
//!
//! The format is the directory's ([`FORMAT`]), repeated as a snapshot's
//! version is, and it seeds every record's checksum: a checkpoint of
//! another format is read as one, entry by entry a miss. A record's
//! checksum is the directory's one checksum, a log frame's and a snapshot
//! body's too ([`lane_checksum`]: four lanes of one-multiply steps,
//! [`sieve_exec::hash::fold_word`], in lockstep).

use crate::codec::{
    put_f64, put_str, put_u32, put_u64, put_usize, take_name, Cursor, DecodeResult,
};
use crate::format::FORMAT;
use crate::frame::lane_checksum;
use sieve_core::{
    CachedClustering, CachedVerdict, ComponentClustering, MetricCluster, SessionCache,
};
use sieve_exec::Name;
use sieve_graph::DependencyEdge;

/// Magic prefix of a checkpoint file ("SIEVCKPT" in ASCII).
const MAGIC: u64 = 0x5349_4556_434B_5054;

/// One tenant's cached analysis inside a shard checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantCheckpoint {
    /// Tenant name.
    pub tenant: String,
    /// The tenant session's caches.
    pub cache: SessionCache,
}

/// The cached analysis of every tenant of one shard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardCheckpoint {
    /// Every tenant of the shard, in the order written.
    pub tenants: Vec<TenantCheckpoint>,
}

/// What reading a checkpoint found. Every outcome is a cache outcome:
/// none is an error.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointRead {
    /// No checkpoint file.
    Missing,
    /// The file could not be read, or its header is not a checkpoint's.
    Corrupt {
        /// What failed.
        reason: String,
    },
    /// The file is a checkpoint of another format.
    OtherFormat {
        /// The format it names.
        found: u32,
    },
    /// The file's intact tenant records.
    Read {
        /// The records that verified and decoded, in file order.
        checkpoint: ShardCheckpoint,
        /// Records that failed their checksum or their decode, a torn last
        /// one included.
        damaged: usize,
    },
}

impl ShardCheckpoint {
    /// Encodes the checkpoint: the header, then one checksummed record per
    /// tenant.
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, MAGIC);
        put_u32(&mut bytes, FORMAT);
        let mut record = Vec::new();
        for tenant in &self.tenants {
            record.clear();
            put_tenant(&mut record, tenant);
            put_usize(&mut bytes, record.len());
            put_u64(&mut bytes, record_checksum(&record));
            bytes.extend_from_slice(&record);
        }
        bytes
    }

    /// Decodes a checkpoint, keeping every record that verifies. Never
    /// fails: whatever does not verify is reported, not returned.
    pub fn decode(bytes: &[u8]) -> CheckpointRead {
        let mut cur = Cursor::new(bytes);
        let header = (cur.take_u64("checkpoint magic"), cur.take_u32("format"));
        let found = match header {
            (Ok(MAGIC), Ok(found)) => found,
            (Ok(magic), Ok(_)) => {
                let reason = format!("bad checkpoint magic {magic:#x}");
                return CheckpointRead::Corrupt { reason };
            }
            (Err(reason), _) | (_, Err(reason)) => return CheckpointRead::Corrupt { reason },
        };
        if found != FORMAT {
            return CheckpointRead::OtherFormat { found };
        }
        let (mut checkpoint, mut damaged) = (ShardCheckpoint::default(), 0);
        while !cur.is_empty() {
            let Ok(record) = take_record(&mut cur) else {
                // A torn record: its length or its bytes are cut off, and
                // nothing after it can be framed.
                damaged += 1;
                break;
            };
            // A record that fails its checksum is skipped by its length; one
            // that verifies but does not decode was not written by this
            // build.
            match record.map(|record| take_tenant(&mut Cursor::new(record))) {
                Some(Ok(tenant)) => checkpoint.tenants.push(tenant),
                _ => damaged += 1,
            }
        }
        CheckpointRead::Read {
            checkpoint,
            damaged,
        }
    }
}

/// A record's checksum, seeded with the magic and the format.
fn record_checksum(record: &[u8]) -> u64 {
    lane_checksum(MAGIC ^ u64::from(FORMAT), record)
}

/// Frames one record: its length, its checksum, its bytes — `None` when
/// the bytes are all there but fail the checksum.
fn take_record<'a>(cur: &mut Cursor<'a>) -> DecodeResult<Option<&'a [u8]>> {
    let len = cur.take_usize("checkpoint record length")?;
    let stored = cur.take_u64("checkpoint record checksum")?;
    let record = cur.take_bytes(len, "checkpoint record")?;
    Ok((record_checksum(record) == stored).then_some(record))
}

fn put_tenant(buf: &mut Vec<u8>, tenant: &TenantCheckpoint) {
    let SessionCache {
        config_fp,
        clusterings,
        verdicts,
    } = &tenant.cache;
    put_str(buf, &tenant.tenant);
    put_u64(buf, *config_fp);
    put_usize(buf, clusterings.len());
    for CachedClustering { key, clustering } in clusterings {
        put_u64(buf, *key);
        put_clustering(buf, clustering);
    }
    put_usize(buf, verdicts.len());
    for verdict in verdicts {
        put_verdict(buf, verdict);
    }
}

/// One verified tenant record, decoded.
fn take_tenant(cur: &mut Cursor<'_>) -> DecodeResult<TenantCheckpoint> {
    let tenant = cur.take_str("checkpoint tenant")?.to_string();
    let config_fp = cur.take_u64("checkpoint config fingerprint")?;
    let mut cache = SessionCache {
        config_fp,
        ..SessionCache::default()
    };
    for _ in 0..take_count(cur, "checkpoint clustering count")? {
        let key = cur.take_u64("clustering key")?;
        let clustering = take_clustering(cur)?;
        cache.clusterings.push(CachedClustering { key, clustering });
    }
    for _ in 0..take_count(cur, "checkpoint verdict count")? {
        cache.verdicts.push(take_verdict(cur)?);
    }
    if !cur.is_empty() {
        return Err("trailing bytes after a checkpoint record".to_string());
    }
    Ok(TenantCheckpoint { tenant, cache })
}

/// A count read as a `usize`, bounded by the bytes left (every counted
/// item takes at least one), so a damaged count cannot reserve or loop
/// beyond the record.
fn take_count(cur: &mut Cursor<'_>, what: &str) -> DecodeResult<usize> {
    let count = cur.take_usize(what)?;
    if count > cur.remaining() {
        return Err(format!("{what}: {count} exceeds the record"));
    }
    Ok(count)
}

fn put_names(buf: &mut Vec<u8>, names: &[Name]) {
    put_usize(buf, names.len());
    for name in names {
        put_str(buf, name.as_str());
    }
}

fn take_names(cur: &mut Cursor<'_>, what: &str) -> DecodeResult<Vec<Name>> {
    (0..take_count(cur, what)?)
        .map(|_| take_name(cur, what))
        .collect()
}

fn put_clustering(buf: &mut Vec<u8>, clustering: &ComponentClustering) {
    // Destructured without `..`: a field added to the type and not written
    // here fails to compile instead of being dropped from the cache.
    let ComponentClustering {
        component,
        total_metrics,
        filtered_metrics,
        clusters,
        silhouette,
        chosen_k,
    } = clustering;
    put_str(buf, component.as_str());
    put_usize(buf, *total_metrics);
    put_names(buf, filtered_metrics);
    put_usize(buf, clusters.len());
    for MetricCluster {
        members,
        representative,
        representative_distance,
    } in clusters
    {
        put_names(buf, members);
        put_str(buf, representative.as_str());
        put_f64(buf, *representative_distance);
    }
    put_f64(buf, *silhouette);
    put_usize(buf, *chosen_k);
}

fn take_clustering(cur: &mut Cursor<'_>) -> DecodeResult<ComponentClustering> {
    let component = take_name(cur, "clustering component")?;
    let total_metrics = cur.take_usize("clustering total metrics")?;
    let filtered_metrics = take_names(cur, "clustering filtered metrics")?;
    let clusters = (0..take_count(cur, "clustering cluster count")?)
        .map(|_| {
            Ok(MetricCluster {
                members: take_names(cur, "cluster members")?,
                representative: take_name(cur, "cluster representative")?,
                representative_distance: cur.take_f64("cluster representative distance")?,
            })
        })
        .collect::<DecodeResult<_>>()?;
    Ok(ComponentClustering {
        component,
        total_metrics,
        filtered_metrics,
        clusters,
        silhouette: cur.take_f64("clustering silhouette")?,
        chosen_k: cur.take_usize("clustering chosen k")?,
    })
}

fn put_verdict(buf: &mut Vec<u8>, verdict: &CachedVerdict) {
    let CachedVerdict {
        source_component,
        source_metric,
        target_component,
        target_metric,
        source_fp,
        target_fp,
        edges,
    } = verdict;
    for name in [
        source_component,
        source_metric,
        target_component,
        target_metric,
    ] {
        put_str(buf, name.as_str());
    }
    put_u64(buf, *source_fp);
    put_u64(buf, *target_fp);
    put_usize(buf, edges.len());
    for edge in edges {
        put_edge(buf, edge);
    }
}

fn take_verdict(cur: &mut Cursor<'_>) -> DecodeResult<CachedVerdict> {
    Ok(CachedVerdict {
        source_component: take_name(cur, "verdict source component")?,
        source_metric: take_name(cur, "verdict source metric")?,
        target_component: take_name(cur, "verdict target component")?,
        target_metric: take_name(cur, "verdict target metric")?,
        source_fp: cur.take_u64("verdict source fingerprint")?,
        target_fp: cur.take_u64("verdict target fingerprint")?,
        edges: (0..take_count(cur, "verdict edge count")?)
            .map(|_| take_edge(cur))
            .collect::<DecodeResult<_>>()?,
    })
}

fn put_edge(buf: &mut Vec<u8>, edge: &DependencyEdge) {
    let DependencyEdge {
        source_component,
        source_metric,
        target_component,
        target_metric,
        p_value,
        f_statistic,
        lag_ms,
    } = edge;
    for name in [
        source_component,
        source_metric,
        target_component,
        target_metric,
    ] {
        put_str(buf, name.as_str());
    }
    put_f64(buf, *p_value);
    put_f64(buf, *f_statistic);
    put_u64(buf, *lag_ms);
}

fn take_edge(cur: &mut Cursor<'_>) -> DecodeResult<DependencyEdge> {
    Ok(DependencyEdge {
        source_component: take_name(cur, "edge source component")?,
        source_metric: take_name(cur, "edge source metric")?,
        target_component: take_name(cur, "edge target component")?,
        target_metric: take_name(cur, "edge target metric")?,
        p_value: cur.take_f64("edge p-value")?,
        f_statistic: cur.take_f64("edge F statistic")?,
        lag_ms: cur.take_u64("edge lag")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustering(component: &str, k: usize) -> ComponentClustering {
        let name = |i: usize| Name::new(&format!("{component}_m{i}"));
        ComponentClustering {
            component: Name::new(component),
            total_metrics: 2 * k + 1,
            filtered_metrics: vec![name(99)],
            clusters: (0..k)
                .map(|c| MetricCluster {
                    members: vec![name(2 * c), name(2 * c + 1)],
                    representative: name(2 * c),
                    representative_distance: 0.125 * c as f64,
                })
                .collect(),
            silhouette: 0.5 - k as f64 * 0.01,
            chosen_k: k,
        }
    }

    fn sample() -> ShardCheckpoint {
        let tenant = |name: &str, k: usize| {
            let edge = DependencyEdge {
                source_component: Name::new("web"),
                source_metric: Name::new("web_m0"),
                target_component: Name::new("db"),
                target_metric: Name::new("db_m2"),
                p_value: 0.0125,
                f_statistic: 7.5,
                lag_ms: 1500,
            };
            let verdict = |edges: Vec<DependencyEdge>| CachedVerdict {
                source_component: Name::new("web"),
                source_metric: Name::new("web_m0"),
                target_component: Name::new("db"),
                target_metric: Name::new(if edges.is_empty() { "db_m0" } else { "db_m2" }),
                source_fp: 11 * k as u64,
                target_fp: 13 * k as u64,
                edges,
            };
            TenantCheckpoint {
                tenant: name.to_string(),
                cache: SessionCache {
                    config_fp: 0xC0F1_6000 + k as u64,
                    clusterings: ["db", "web"]
                        .iter()
                        .map(|c| CachedClustering {
                            key: k as u64 * 31,
                            clustering: clustering(c, k),
                        })
                        .collect(),
                    verdicts: vec![verdict(Vec::new()), verdict(vec![edge])],
                },
            }
        };
        ShardCheckpoint {
            tenants: vec![tenant("acme", 2), tenant("bolt", 3), tenant("core", 1)],
        }
    }

    fn read(bytes: &[u8]) -> (Vec<TenantCheckpoint>, usize) {
        match ShardCheckpoint::decode(bytes) {
            CheckpointRead::Read {
                checkpoint,
                damaged,
            } => (checkpoint.tenants, damaged),
            other => panic!("expected records, got {other:?}"),
        }
    }

    #[test]
    fn checkpoints_roundtrip_bit_identically_through_the_filesystem() {
        let checkpoint = sample();
        assert_eq!(read(&checkpoint.encode()), (checkpoint.tenants.clone(), 0));

        let dir = std::env::temp_dir().join(format!("sieve-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shards = crate::dir::ShardDir::open(&dir).unwrap();
        assert_eq!(shards.read_checkpoint(3), CheckpointRead::Missing);
        let written = shards.write_checkpoint(3, &checkpoint).unwrap();
        let path = dir.join("wal-shard-3.ckpt");
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let read_back = shards.read_checkpoint(3);
        assert_eq!(
            read_back,
            CheckpointRead::Read {
                checkpoint,
                damaged: 0
            }
        );
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1, "the temp file was renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_of_another_format_or_header_is_read_as_a_miss() {
        let bytes = sample().encode();
        for other in [1, 5, FORMAT + 1] {
            let mut stale = bytes.clone();
            stale[8..12].copy_from_slice(&other.to_le_bytes());
            assert_eq!(
                ShardCheckpoint::decode(&stale),
                CheckpointRead::OtherFormat { found: other }
            );
        }
        let mut magic = bytes.clone();
        magic[0] ^= 1;
        assert!(matches!(
            ShardCheckpoint::decode(&magic),
            CheckpointRead::Corrupt { .. }
        ));
        for len in 0..12 {
            assert!(matches!(
                ShardCheckpoint::decode(&bytes[..len]),
                CheckpointRead::Corrupt { .. }
            ));
        }
        assert_eq!(read(&bytes[..12]), (Vec::new(), 0), "a header alone");
    }

    #[test]
    fn a_torn_checkpoint_keeps_exactly_its_whole_records() {
        let checkpoint = sample();
        let bytes = checkpoint.encode();
        let mut ends = vec![12];
        let mut at = 12;
        for _ in &checkpoint.tenants {
            let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
            at += 16 + len;
            ends.push(at);
        }
        assert_eq!(at, bytes.len());
        for cut in 12..=bytes.len() {
            let (tenants, damaged) = read(&bytes[..cut]);
            let whole = ends.iter().filter(|&&end| end <= cut).count() - 1;
            assert_eq!(tenants, checkpoint.tenants[..whole], "cut at {cut}");
            assert_eq!(damaged, usize::from(!ends.contains(&cut)), "cut at {cut}");
        }
    }

    #[test]
    fn mutated_checkpoint_records_decode_or_are_counted_damaged_without_panicking() {
        // 100,000 mutations of one tenant record, each framed under a
        // recomputed checksum so that every one reaches the record decoder.
        const MUTATIONS: usize = 100_000;
        let mut one = sample();
        one.tenants.truncate(1);
        let bytes = one.encode();
        let (header, record) = (&bytes[..12], &bytes[28..]);
        let mut rand = crate::testing::rng(0xC4EC_0001);
        let mut decoded = 0usize;
        for _ in 0..MUTATIONS {
            let record = crate::testing::mutate(record, &mut rand);
            let mut file = header.to_vec();
            put_usize(&mut file, record.len());
            put_u64(&mut file, record_checksum(&record));
            file.extend_from_slice(&record);
            let (tenants, damaged) = read(&file);
            assert_eq!(tenants.len() + damaged, 1);
            decoded += tenants.len();
        }
        // Not vacuous: a share decodes — a fingerprint, a distance, a
        // name's byte changed.
        assert!(decoded > 1_000, "{decoded}");
    }

    #[test]
    fn a_bit_flip_costs_at_most_the_records_it_touches_and_never_misreads() {
        let checkpoint = sample();
        let bytes = checkpoint.encode();
        for at in 12..bytes.len() {
            for bit in [0, 3, 7] {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                let (tenants, damaged) = read(&flipped);
                assert!(damaged >= 1, "byte {at} bit {bit}");
                for tenant in &tenants {
                    assert!(checkpoint.tenants.contains(tenant), "byte {at} bit {bit}");
                }
                assert!(tenants.len() < checkpoint.tenants.len());
            }
        }
    }
}
