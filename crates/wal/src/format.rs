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
//! [`write_format`] writes it whenever a service opens the directory's
//! logs, and recovery reads it, as this fixed-size header, before it reads
//! anything else: a directory of another number is refused, untouched,
//! instead of being misread or mistaken for corruption. A snapshot's header
//! carries the same number as its version.

use crate::{Result, WalError};
use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::path::Path;

/// The format this build writes and reads.
pub const FORMAT: u32 = 5;

/// File name of the format record inside a durability directory.
pub const FORMAT_FILE_NAME: &str = "wal-format";

/// First bytes of a format record.
const MAGIC: [u8; 8] = *b"SIEVEFMT";

/// Bytes of a format record: the magic and the number.
const RECORD_LEN: usize = MAGIC.len() + 4;

/// Writes the record naming [`FORMAT`] into `dir` atomically: a temp file,
/// `fsync`, then `rename` over the record. The rename is durable once the
/// caller syncs the directory.
///
/// # Errors
///
/// Propagates filesystem failures; on error the previous record (if any)
/// is still in place.
pub fn write_format(dir: &Path) -> Result<()> {
    let path = dir.join(FORMAT_FILE_NAME);
    let tmp = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&MAGIC)?;
        file.write_all(&FORMAT.to_le_bytes())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// The format number the record in `dir` names: `Ok(None)` if there is no
/// record.
///
/// # Errors
///
/// I/O failures other than not-found, and [`WalError::Corrupt`] when the
/// record is shorter than its header or does not begin with its magic.
pub fn read_format(dir: &Path) -> Result<Option<u32>> {
    let mut file = match File::open(dir.join(FORMAT_FILE_NAME)) {
        Ok(file) => file,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let corrupt = |reason: &str| WalError::Corrupt {
        offset: 0,
        reason: reason.to_string(),
    };
    let mut record = [0u8; RECORD_LEN];
    file.read_exact(&mut record).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => corrupt("torn format record"),
        _ => e.into(),
    })?;
    let (magic, number) = record.split_at(MAGIC.len());
    if magic != MAGIC {
        return Err(corrupt("bad format record magic"));
    }
    Ok(Some(u32::from_le_bytes(
        number.try_into().expect("4 bytes"),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_record_names_this_build_s_format_and_only_a_whole_record_reads() {
        let dir = std::env::temp_dir().join(format!("sieve-format-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(read_format(&dir).unwrap(), None, "no record");

        write_format(&dir).unwrap();
        assert_eq!(read_format(&dir).unwrap(), Some(FORMAT));
        let path = dir.join(FORMAT_FILE_NAME);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, b"SIEVEFMT\x05\x00\x00\x00");
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1, "the temp file was renamed away");

        for (bytes, reason) in [
            (&bytes[..RECORD_LEN - 1], "torn format record"),
            (&b"SIEVEFMX\x05\x00\x00\x00"[..], "bad format record magic"),
        ] {
            std::fs::write(&path, bytes).unwrap();
            match read_format(&dir) {
                Err(WalError::Corrupt { reason: found, .. }) => assert_eq!(found, reason),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
