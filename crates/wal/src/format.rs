//! The format number of a durable directory, and the record that names it.
//!
//! Everything a durable directory holds — the shard logs' frames and the
//! shard snapshots — has one layout, the one of [`FORMAT`], and one
//! decoder. A layout change to any of them bumps the number; no build
//! reads the layouts of another. The directory names its number in one
//! small record, a regular file beside the shard files:
//!
//! ```text
//! [magic: "SIEVEFMT"][format: u32 LE]
//! ```
//!
//! The directory's door ([`crate::dir`]) writes it whenever a service
//! creates the directory's logs, and recovery reads it, as this fixed-size
//! header, before it reads anything else: a directory of another number is
//! refused, untouched, instead of being misread or mistaken for
//! corruption. A snapshot's header carries the same number as its version.

use crate::{Result, WalError};

/// The format this build writes and reads. Format 6 dropped the downsampled
/// tiers: a snapshot series and a retention policy no longer carry them.
/// Format 7 names each series an ingest batch did not create by its place
/// in the tenant's store, guarded by the store's series count. Format 8
/// logs one digest per ingest batch in place of a fingerprint per
/// watermark, each point's timestamp as its distance from the frame's
/// base, and the counts as varints, and checksums frames, snapshots and
/// checkpoints with one multiply per word. Format 9 steps each series'
/// store fingerprint — a snapshot series holds it, and a logged batch's
/// digest folds it — with one multiply per word too. Format 10 checksums a
/// frame's payload in four lanes, as a snapshot body and a checkpoint
/// record are, and folds the four lane sums with that same step.
pub const FORMAT: u32 = 10;

/// First bytes of a format record.
const MAGIC: [u8; 8] = *b"SIEVEFMT";

/// Bytes of a format record: the magic and the number.
const RECORD_LEN: usize = MAGIC.len() + 4;

/// The record naming [`FORMAT`].
pub(crate) fn record() -> Vec<u8> {
    [&MAGIC[..], &FORMAT.to_le_bytes()].concat()
}

/// The format number a record's bytes name; bytes past its header are not
/// read.
///
/// # Errors
///
/// [`WalError::Corrupt`] when the bytes are shorter than a record's header
/// or do not begin with its magic.
pub(crate) fn parse(bytes: &[u8]) -> Result<u32> {
    let corrupt = |reason: &str| WalError::Corrupt {
        offset: 0,
        reason: reason.to_string(),
    };
    let record = bytes
        .get(..RECORD_LEN)
        .ok_or_else(|| corrupt("torn format record"))?;
    let (magic, number) = record.split_at(MAGIC.len());
    if magic != MAGIC {
        return Err(corrupt("bad format record magic"));
    }
    Ok(u32::from_le_bytes(number.try_into().expect("4 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::{ShardDir, FORMAT_FILE_NAME};
    use crate::writer::FsyncPolicy;

    #[test]
    fn mutated_format_records_parse_or_are_refused_without_panicking() {
        // 100,000 mutations of the record: whatever parses is read as the
        // number after a whole magic, and nothing else parses.
        const MUTATIONS: usize = 100_000;
        let record = record();
        let mut rand = crate::testing::rng(0xF0_4A77);
        let mut parsed = 0usize;
        for _ in 0..MUTATIONS {
            let bytes = crate::testing::mutate(&record, &mut rand);
            match parse(&bytes) {
                Ok(number) => {
                    assert_eq!(bytes[..MAGIC.len()], MAGIC);
                    assert_eq!(number.to_le_bytes(), bytes[MAGIC.len()..RECORD_LEN]);
                    parsed += 1;
                }
                Err(WalError::Corrupt { .. }) => {
                    assert!(bytes.len() < RECORD_LEN || bytes[..MAGIC.len()] != MAGIC);
                }
                Err(other) => panic!("a parse is no I/O: {other:?}"),
            }
        }
        // Not vacuous: an edit to the number, or past the record, parses.
        assert!(parsed > 1_000, "{parsed}");
    }

    #[test]
    fn the_record_names_this_build_s_format_and_only_a_whole_record_reads() {
        let dir = std::env::temp_dir().join(format!("sieve-format-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opened = ShardDir::open(&dir).unwrap();
        assert_eq!(opened.format().unwrap(), None, "no record");

        // A directory of no shard: the record alone.
        let (created, _) = ShardDir::create(&dir, 0, FsyncPolicy::Never).unwrap();
        assert_eq!(created.format().unwrap(), Some(FORMAT));
        let path = dir.join(FORMAT_FILE_NAME);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, b"SIEVEFMT\x0a\x00\x00\x00");
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1, "the temp file was renamed away");

        for (bytes, reason) in [
            (&bytes[..RECORD_LEN - 1], "torn format record"),
            (&b"SIEVEFMX\x0a\x00\x00\x00"[..], "bad format record magic"),
        ] {
            std::fs::write(&path, bytes).unwrap();
            match created.format() {
                Err(WalError::Corrupt { reason: found, .. }) => assert_eq!(found, reason),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
