//! Error type of the serving layer.

use sieve_core::SieveError;
use sieve_exec::Name;

/// Errors produced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// A tenant name was not found in the registry.
    UnknownTenant {
        /// The name that failed to resolve.
        tenant: String,
    },
    /// A tenant with the same name already exists.
    DuplicateTenant {
        /// The name that collided.
        tenant: String,
    },
    /// The service configuration is internally inconsistent.
    InvalidConfig {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A tenant's analysis failed; the error carries which tenant so a
    /// multi-tenant sweep failure is attributable.
    Analysis {
        /// The tenant whose refresh failed.
        tenant: Name,
        /// The underlying pipeline error.
        source: SieveError,
    },
    /// The durability layer failed (log append, commit, snapshot or
    /// recovery I/O). Live in-memory state is unaffected, but the
    /// operation that triggered the write may not be durable.
    Wal {
        /// The underlying write-ahead-log error.
        source: sieve_wal::WalError,
    },
    /// Recovery met a durable directory of an older on-disk format than
    /// this build's ([`sieve_wal::FORMAT`]): shard files with no format
    /// record (every build before format records), or a record naming a
    /// lower number. This build has no reader for it; the directory is
    /// left as found.
    FormatTooOld {
        /// The number the record names, `None` when there is no record.
        found: Option<u32>,
    },
    /// Recovery met a durable directory whose format record names a newer
    /// format than this build's ([`sieve_wal::FORMAT`]): a later build
    /// wrote it. The directory is left as found.
    FormatTooNew {
        /// The number the record names.
        found: u32,
    },
    /// Recovery met a whole, checksum-verified log frame whose event tag
    /// this build does not read: another build wrote it. The directory is
    /// left as found rather than truncated at a frame that is not corrupt.
    ///
    /// A directory of another format is refused by its format record
    /// before any log is read ([`Self::FormatTooOld`],
    /// [`Self::FormatTooNew`]), so one case is left for this guard: a build
    /// that changed the set of event tags without bumping
    /// [`sieve_wal::FORMAT`].
    UnknownEventTag {
        /// The shard whose log holds the frame.
        shard: usize,
        /// Byte offset of the frame in that log.
        offset: u64,
        /// The event tag it carries.
        tag: u8,
    },
}

impl From<sieve_wal::WalError> for ServeError {
    fn from(source: sieve_wal::WalError) -> Self {
        Self::Wal { source }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownTenant { tenant } => write!(f, "unknown tenant `{tenant}`"),
            Self::DuplicateTenant { tenant } => {
                write!(f, "tenant `{tenant}` already exists")
            }
            Self::InvalidConfig { reason } => {
                write!(f, "invalid service configuration: {reason}")
            }
            Self::Analysis { tenant, source } => {
                write!(f, "analysis of tenant `{tenant}` failed: {source}")
            }
            Self::Wal { source } => {
                write!(f, "durability layer failure: {source}")
            }
            Self::FormatTooOld { found } => {
                match found {
                    Some(found) => write!(f, "the durable directory is of format {found}")?,
                    None => write!(f, "the durable directory has no format record")?,
                }
                write!(
                    f,
                    ", older than this build's format {}: recover it with the build that \
                     wrote it",
                    sieve_wal::FORMAT
                )
            }
            Self::FormatTooNew { found } => write!(
                f,
                "the durable directory is of format {found}, newer than this build's format \
                 {}: recover it with the build that wrote it",
                sieve_wal::FORMAT
            ),
            Self::UnknownEventTag { shard, offset, tag } => write!(
                f,
                "shard {shard}'s log holds a verified frame of event tag {tag} at byte \
                 {offset}, which this build does not read: recover the directory with the \
                 build that wrote it"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Analysis { source, .. } => Some(source),
            Self::Wal { source } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_tenant() {
        let e = ServeError::UnknownTenant {
            tenant: "acme".into(),
        };
        assert!(e.to_string().contains("acme"));
        let e = ServeError::Analysis {
            tenant: Name::from("acme"),
            source: SieveError::NoMetrics {
                scope: "tenant acme".into(),
            },
        };
        assert!(e.to_string().contains("acme"));
        assert!(std::error::Error::source(&e).is_some());
        let e = ServeError::UnknownEventTag {
            shard: 3,
            offset: 4096,
            tag: 7,
        };
        assert!(
            e.to_string()
                .starts_with("shard 3's log holds a verified frame of event tag 7 at byte 4096"),
            "{e}"
        );
        let e = ServeError::FormatTooOld { found: None };
        assert!(
            e.to_string()
                .starts_with("the durable directory has no format record, older than"),
            "{e}"
        );
        let e = ServeError::FormatTooNew { found: 11 };
        assert!(
            e.to_string()
                .starts_with("the durable directory is of format 11, newer than"),
            "{e}"
        );
    }
}
