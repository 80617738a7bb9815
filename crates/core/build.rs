//! Computes the analysis-code identity: an FNV-1a digest of the sources of
//! every crate whose code decides a clustering or a Granger verdict
//! (`timeseries`, `cluster`, `causality`, `core` and `exec`), exported to
//! the crate as `SIEVE_ANALYSIS_IDENTITY`.
//!
//! `session::config_fingerprint` mixes it into every cache key, so a cache
//! entry computed by one build misses in any build whose analysis sources
//! differ — a checkpoint written before an upgrade can never serve a
//! verdict the new code would not reach. Nobody bumps a number by hand.

use std::path::{Path, PathBuf};

/// The crates whose sources the identity covers, relative to `crates/`.
const ANALYSIS_CRATES: [&str; 5] = ["timeseries", "cluster", "causality", "core", "exec"];

fn main() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the core crate sits inside crates/")
        .to_path_buf();
    let mut files = Vec::new();
    for name in ANALYSIS_CRATES {
        let src = crates.join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        collect_sources(&src, &mut files);
    }
    println!("cargo:rerun-if-changed=build.rs");
    files.sort();
    let mut digest = Fnv::default();
    for path in &files {
        let relative = path.strip_prefix(&crates).expect("listed under crates/");
        let bytes = std::fs::read(path).expect("readable analysis source");
        digest.write(relative.to_string_lossy().as_bytes());
        digest.write(&(bytes.len() as u64).to_le_bytes());
        digest.write(&bytes);
    }
    println!("cargo:rustc-env=SIEVE_ANALYSIS_IDENTITY={:016x}", digest.0);
}

/// Every `.rs` file under `dir`, recursively.
fn collect_sources(dir: &Path, files: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).expect("readable analysis source directory");
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            collect_sources(&path, files);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}
