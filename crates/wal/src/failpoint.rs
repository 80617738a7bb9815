//! Deterministic fault injection for the durability layer.
//!
//! [`FailpointFs`] wraps any [`WalMedia`] and corrupts the byte stream on
//! its way through, exactly as configured and perfectly reproducibly:
//!
//! * **Kill at offset** — the writer "process" dies mid-write: bytes up
//!   to the configured absolute offset reach the inner media, the rest
//!   never do, and every later operation fails. This is the torn-write /
//!   power-cut model.
//! * **Bit flips** — chosen bits at chosen absolute offsets are XOR-ed in
//!   flight. This is the silent-disk-corruption model.
//!
//! Because the offsets are plain numbers, a property test can derive them
//! from a seeded [`sieve_exec::hash::splitmix64`] stream and replay the
//! identical crash thousands of times — the harness demanded by the
//! recovery acceptance criterion: *never a panic, never a silently wrong
//! model*.

use crate::writer::WalMedia;

/// A [`WalMedia`] wrapper that kills the write stream at a configured
/// byte offset and flips configured bits in flight.
#[derive(Debug)]
pub struct FailpointFs {
    inner: Box<dyn WalMedia>,
    /// Absolute byte offset of the next byte to be written.
    written: u64,
    /// Absolute offset at which the writer dies, if configured.
    kill_at: Option<u64>,
    /// Whether the kill already happened; all later operations fail.
    killed: bool,
    /// `(absolute offset, xor mask)` corruptions applied in flight.
    bit_flips: Vec<(u64, u8)>,
}

impl FailpointFs {
    /// Wraps `inner` with no faults configured (a transparent proxy).
    pub fn new(inner: Box<dyn WalMedia>) -> Self {
        Self {
            inner,
            written: 0,
            kill_at: None,
            killed: false,
            bit_flips: Vec::new(),
        }
    }

    /// Configures the writer to die once `offset` total bytes have
    /// reached the inner media: the write crossing the offset is
    /// delivered only up to it (a torn write), and every later operation
    /// fails.
    pub fn kill_at(mut self, offset: u64) -> Self {
        self.kill_at = Some(offset);
        self
    }

    /// XORs `mask` into the byte at absolute stream offset `offset` as it
    /// passes through (silent corruption: the write "succeeds").
    pub fn flip_bits(mut self, offset: u64, mask: u8) -> Self {
        self.bit_flips.push((offset, mask));
        self
    }

    /// Total bytes delivered to the inner media so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Whether the configured kill has fired.
    pub fn is_killed(&self) -> bool {
        self.killed
    }

    fn killed_error() -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::BrokenPipe, "failpoint: writer killed")
    }

    fn corrupted(&self, bytes: &[u8], deliver: usize) -> Vec<u8> {
        let mut out = bytes[..deliver].to_vec();
        for &(offset, mask) in &self.bit_flips {
            if let Some(rel) = offset.checked_sub(self.written) {
                if (rel as usize) < out.len() {
                    out[rel as usize] ^= mask;
                }
            }
        }
        out
    }
}

impl WalMedia for FailpointFs {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if self.killed {
            return Err(Self::killed_error());
        }
        let deliver = match self.kill_at {
            Some(kill_at) if kill_at < self.written + bytes.len() as u64 => {
                self.killed = true;
                (kill_at - self.written) as usize
            }
            _ => bytes.len(),
        };
        let out = self.corrupted(bytes, deliver);
        self.inner.append(&out)?;
        self.written += deliver as u64;
        if self.killed {
            Err(Self::killed_error())
        } else {
            Ok(())
        }
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if self.killed {
            return Err(Self::killed_error());
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::testing::MemMedia;

    #[test]
    fn transparent_without_configured_faults() {
        let media = MemMedia::default();
        let mut fp = FailpointFs::new(Box::new(media.clone()));
        fp.append(b"hello").unwrap();
        fp.append(b" world").unwrap();
        fp.sync().unwrap();
        assert_eq!(*media.bytes.lock().unwrap(), b"hello world");
        assert_eq!(fp.written(), 11);
        assert!(!fp.is_killed());
    }

    #[test]
    fn kill_tears_the_crossing_write_and_fails_everything_after() {
        let media = MemMedia::default();
        let mut fp = FailpointFs::new(Box::new(media.clone())).kill_at(7);
        fp.append(b"hello").unwrap();
        let err = fp.append(b" world").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert_eq!(*media.bytes.lock().unwrap(), b"hello w", "torn mid-write");
        assert!(fp.is_killed());
        assert!(fp.append(b"x").is_err(), "dead writers stay dead");
        assert!(fp.sync().is_err());

        // A kill exactly on a write boundary delivers nothing of the
        // next write.
        let media = MemMedia::default();
        let mut fp = FailpointFs::new(Box::new(media.clone())).kill_at(0);
        assert!(fp.append(b"abc").is_err());
        assert!(media.bytes.lock().unwrap().is_empty());
    }

    #[test]
    fn bit_flips_corrupt_in_flight_silently() {
        let media = MemMedia::default();
        let mut fp = FailpointFs::new(Box::new(media.clone()))
            .flip_bits(1, 0x01)
            .flip_bits(6, 0x80);
        fp.append(b"abc").unwrap();
        fp.append(b"defg").unwrap();
        let on_disk = media.bytes.lock().unwrap().clone();
        assert_eq!(on_disk[0], b'a');
        assert_eq!(on_disk[1], b'b' ^ 0x01);
        assert_eq!(on_disk[6], b'g' ^ 0x80);
        assert_eq!(fp.written(), 7, "flipped writes still count as written");
    }

    #[test]
    fn kill_and_flip_compose() {
        // Flip a bit inside the surviving prefix of a torn write.
        let media = MemMedia::default();
        let mut fp = FailpointFs::new(Box::new(media.clone()))
            .kill_at(4)
            .flip_bits(2, 0xFF);
        assert!(fp.append(b"abcdef").is_err());
        let on_disk = media.bytes.lock().unwrap().clone();
        assert_eq!(on_disk.len(), 4);
        assert_eq!(on_disk[2], b'c' ^ 0xFF);
    }
}
