//! Execution and data-plane substrate shared by every Sieve crate.
//!
//! Two concerns live here because every other crate needs them and they
//! must not depend on anything else:
//!
//! * [`intern`] — [`Name`], the interned identifier type used for
//!   component and metric names across the store, the graphs and the
//!   analysis model. Cloning is a reference-count bump and comparisons hit
//!   a pointer-identity fast path, so hot loops never clone or compare
//!   `String`s.
//! * [`par`] — [`par_map_chunks`], the single parallel executor behind the
//!   pipeline's per-component reduction and per-edge causality testing.
//!   Results always come back in input order, which is what makes
//!   `parallelism = 1` and `parallelism = N` runs produce identical
//!   models.
//! * [`pool`] — the persistent [`pool::WorkerPool`] the executor runs on:
//!   long-lived workers spawned lazily and reused across calls, so sweeps
//!   and per-stage fan-outs stop paying per-call thread-spawn cost.
//! * [`hash`] — the deterministic splitmix64-based content-fingerprint
//!   helpers behind the store's per-series fingerprints and the analysis
//!   session's dirty-tracking cache keys.
//! * [`mem`] — procfs-based RSS introspection used by the repo benchmark
//!   (`rss_mb`) to show flat memory under sustained ingest.

// `deny`, not `forbid`: the worker pool's lifetime-erased job pointer
// needs two narrowly-scoped, documented `unsafe` items (see `pool`);
// everything else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod intern;
pub mod mem;
pub mod par;
pub mod pool;

pub use intern::Name;
pub use par::{par_map_chunks, try_par_map_chunks};
pub use pool::PoolStats;
