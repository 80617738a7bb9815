//! Host facts recorded with every run, and the scratch directory every
//! durable service of a run lives under.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Facts about where a run happened; printed with its numbers so that a
/// one-core run is never read as a regression.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// `sieve::exec::par::hardware_parallelism()`.
    pub cores: usize,
    /// `git rev-parse --short HEAD`, `-dirty` when the tree differs;
    /// `unknown` outside a git checkout (the driver's).
    pub git_rev: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Fsync policy of every durable service in the benchmark.
    pub fsync: String,
    /// Filesystem type the work directory is on.
    pub workdir_fs: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Filesystem type of the mount `path` is on: the longest mount point in
/// `/proc/mounts` that prefixes it.
fn filesystem_of(path: &Path, mounts: &str) -> String {
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

impl HostFacts {
    /// Collects the facts; anything unavailable reads `unknown`.
    pub fn collect(workdir: &Path) -> Self {
        let git_rev = command_line("git", &["rev-parse", "--short", "HEAD"]).map_or_else(
            || "unknown".to_string(),
            |rev| match command_line("git", &["status", "--porcelain"]) {
                Some(status) if !status.is_empty() => format!("{rev}-dirty"),
                _ => rev,
            },
        );
        let absolute = workdir
            .canonicalize()
            .unwrap_or_else(|_| workdir.to_path_buf());
        Self {
            cores: sieve::exec::par::hardware_parallelism(),
            git_rev,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            fsync: format!("{:?}", crate::fleet::FSYNC),
            workdir_fs: std::fs::read_to_string("/proc/mounts").map_or_else(
                |_| "unknown".to_string(),
                |mounts| filesystem_of(&absolute, &mounts),
            ),
        }
    }

    /// Whether the host can run the two-thread workloads without
    /// time-slicing the writer against the sweeper.
    pub fn enough_cores(&self) -> bool {
        self.cores >= 2
    }

    /// One line for the report.
    pub fn line(&self) -> String {
        format!(
            "host: cores={}{} git={} rustc=\"{}\" fsync={} workdir_fs={}",
            self.cores,
            if self.enough_cores() {
                ""
            } else {
                " (UNDER-PROVISIONED: stream-fresh and ingest-swept need 2)"
            },
            self.git_rev,
            self.rustc,
            self.fsync,
            self.workdir_fs
        )
    }
}

/// The run's scratch directory; removed when dropped, also on the way out
/// of a failed run.
#[derive(Debug)]
pub struct Workdir {
    root: PathBuf,
}

impl Workdir {
    /// Creates (emptying it first) the work directory at `root`.
    pub fn create(root: PathBuf) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// An empty sub-directory called `name`.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is noise, not an error.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Copies the regular files of `from` into the (emptied) directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Total size of the regular files directly inside `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// Peak resident set size (`VmHWM`) in MB; the current one where the
/// kernel does not report a peak, zero where procfs is missing.
///
/// The peak, because the current size at the end of a workload swings by
/// ±10 % with what the allocator happens to have handed back (49 to 60 MB
/// over six identical `ingest-durable` runs, against 58.4 to 59.6 MB peak).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| vm_hwm_kb(&status))
        .or_else(sieve::exec::mem::current_rss_kb)
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Restarts the kernel's peak-RSS watermark at the current size, so that a
/// workload run after another in one process reports its own peak. (What
/// the allocator kept from the earlier one is still resident: such a run
/// reads a few MB above a one-workload process. Compare like with like.)
pub fn reset_peak_rss() {
    // Best effort: without it the peak is merely the process's.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    line.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_is_read_from_the_status_file() {
        assert_eq!(
            vm_hwm_kb("Name:\tx\nVmHWM:\t   58404 kB\nVmRSS:\t 100 kB\n"),
            Some(58404)
        );
        assert_eq!(vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb() >= 0.0);
    }

    #[test]
    fn the_longest_mount_prefix_wins() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /tmp tmpfs rw 0 0\nproc /proc proc rw 0 0\n";
        assert_eq!(filesystem_of(Path::new("/tmp/work"), mounts), "tmpfs");
        assert_eq!(filesystem_of(Path::new("/root/repo"), mounts), "ext4");
        assert_eq!(filesystem_of(Path::new("relative"), mounts), "unknown");
    }

    #[test]
    fn the_workdir_is_removed_on_drop_and_copies_are_exact() {
        let root = std::env::temp_dir().join(format!("sieve-workdir-test-{}", std::process::id()));
        {
            let workdir = Workdir::create(root.clone()).unwrap();
            let a = workdir.fresh("a").unwrap();
            std::fs::write(a.join("x.log"), b"12345").unwrap();
            std::fs::write(a.join("y.snap"), b"678").unwrap();
            let b = workdir.path().join("b");
            copy_dir(&a, &b).unwrap();
            assert_eq!(dir_bytes(&b).unwrap(), 8);
            assert_eq!(std::fs::read(b.join("x.log")).unwrap(), b"12345");
            assert!(workdir
                .fresh("a")
                .unwrap()
                .read_dir()
                .unwrap()
                .next()
                .is_none());
        }
        assert!(!root.exists());
    }
}
