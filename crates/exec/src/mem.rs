//! Process-memory introspection for the bounded-memory measurements.
//!
//! The repo benchmark (`rss_mb` of every `benchmark/run.sh` workload) and
//! the bounded-memory example need to show that RSS stays flat while a
//! windowed `MetricStore` ingests indefinitely. This module reads the
//! resident set size straight from `/proc/self/status` with no external
//! dependencies; on platforms without procfs it simply reports `None` and
//! callers skip their RSS readings.

/// Returns the current resident set size of this process in kilobytes, if
/// the platform exposes it.
///
/// Reads the `VmRSS` line of `/proc/self/status` (Linux). Returns `None`
/// when the file or the field is unavailable, so callers can degrade to
/// skipping memory assertions instead of failing.
pub fn current_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_rss_kb(&status)
}

/// Extracts the `VmRSS` value in kB from `/proc/self/status` contents.
fn parse_vm_rss_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let field = line.strip_prefix("VmRSS:")?.trim();
    let number = field.split_whitespace().next()?;
    number.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_rss_line() {
        let status = "Name:\ttest\nVmPeak:\t  100 kB\nVmRSS:\t   5128 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_rss_kb(status), Some(5128));
    }

    #[test]
    fn missing_field_yields_none() {
        assert_eq!(parse_vm_rss_kb("Name:\ttest\n"), None);
    }

    #[test]
    fn current_rss_is_positive_on_linux() {
        if let Some(kb) = current_rss_kb() {
            assert!(kb > 0);
        }
    }
}
