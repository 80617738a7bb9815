//! The persistent worker pool behind [`crate::par_map_chunks`].
//!
//! The executor used to spawn fresh scoped threads on every call, which
//! made every sweep, every per-component reduction and every Granger
//! fan-out pay thread-creation cost. This module replaces that with one
//! process-wide pool of long-lived workers: a call hands the pool a
//! *job* (a total chunk count plus a `Fn(usize)` that runs one chunk),
//! workers claim chunk indices from a shared atomic counter, and the
//! calling thread participates in the claiming loop itself — so a job
//! always makes progress even when every pooled worker is busy, and
//! nested jobs (a pooled sweep whose per-tenant refresh fans out again)
//! cannot deadlock: waits only ever point down the job tree.
//!
//! Determinism is unaffected by design: the pool decides only *who* runs
//! a chunk, never *what* the chunks are. Chunk boundaries and result
//! order are fixed by the caller ([`crate::par_map_chunks`] keeps its
//! contiguous-chunk math bit-for-bit), so serial, scoped-thread and
//! pooled execution produce identical output.
//!
//! # Safety
//!
//! Jobs borrow the caller's stack (the closure captures `&[T]` slices
//! and result slots by reference), but workers are long-lived, so the
//! borrow cannot be expressed with scoped-thread lifetimes. The pool
//! erases the lifetime behind a raw pointer (`RunPtr`) and restores
//! soundness with a strict protocol:
//!
//! * a worker dereferences the pointer only *after* claiming a chunk
//!   index `i < total` from the job's atomic cursor;
//! * every claimed chunk decrements the job's `remaining` count only
//!   *after* its run (or its panic) finishes;
//! * the caller blocks until `remaining == 0` before returning.
//!
//! Therefore every dereference happens while at least one chunk —
//! the dereferencing worker's own — is unfinished, which keeps the
//! caller (and hence the borrowed data) alive. Once `remaining` hits
//! zero the cursor is exhausted, so no late ticket-holder can claim a
//! chunk and the stale pointer is never touched again.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Hard ceiling on pooled worker threads — far above any sane
/// parallelism degree; exists so a pathological caller cannot exhaust
/// process thread limits.
const MAX_WORKERS: usize = 512;

/// Monotone counters describing the pool's lifetime activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads spawned since the pool was created. A warm pool
    /// stops spawning: repeated jobs reuse the same workers.
    pub workers_spawned: u64,
    /// Chunks executed (by workers and participating callers alike).
    pub tasks_executed: u64,
}

/// Lifetime-erased pointer to a job's per-chunk closure. See the module
/// docs for the protocol that makes handing this to long-lived workers
/// sound.
struct RunPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (so `&`-access from any thread is fine)
// and the job protocol guarantees it outlives every dereference — the
// caller blocks until all chunks, and therefore all dereferences, are
// done.
#[allow(unsafe_code)]
unsafe impl Send for RunPtr {}
#[allow(unsafe_code)]
unsafe impl Sync for RunPtr {}

/// One submitted job: `total` chunks, claimed by index from `next`.
struct JobCore {
    run: RunPtr,
    total: usize,
    /// Claim cursor: `fetch_add` hands out chunk indices exactly once.
    next: AtomicUsize,
    /// Chunks not yet finished; the caller waits for this to hit zero.
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload from any chunk, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl JobCore {
    /// Claims and runs chunks until the cursor is exhausted. Shared by
    /// pooled workers and the participating caller.
    fn work(&self, tasks_executed: &AtomicU64) {
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.total {
                return;
            }
            // SAFETY: `index < total` was just claimed, so this chunk's
            // `remaining` slot is still outstanding and the caller is
            // blocked — the pointee is alive (module-level protocol).
            #[allow(unsafe_code)]
            let run = unsafe { &*self.run.0 };
            let outcome = catch_unwind(AssertUnwindSafe(|| run(index)));
            tasks_executed.fetch_add(1, Ordering::Relaxed);
            if let Err(payload) = outcome {
                let mut slot = self.panic.lock().expect("panic slot poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut remaining = self.remaining.lock().expect("job counter poisoned");
            *remaining -= 1;
            if *remaining == 0 {
                self.done.notify_all();
            }
        }
    }
}

/// Queue state guarded by the pool mutex: pending job tickets plus the
/// shutdown latch.
struct QueueState {
    tickets: VecDeque<Arc<JobCore>>,
    shutdown: bool,
}

/// State shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    workers_spawned: AtomicU64,
    tasks_executed: AtomicU64,
}

/// A pool of persistent worker threads executing chunked jobs.
///
/// Workers are spawned lazily: the pool grows to the high-water helper
/// demand of the jobs it has seen (capped) and stops — a warm pool
/// spawns nothing. Workers live until the pool is dropped (the global
/// pool behind [`crate::par_map_chunks`] lives for the process).
/// Dropping a pool wakes every worker and joins them all.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    max_workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("WorkerPool")
            .field("workers_spawned", &stats.workers_spawned)
            .field("tasks_executed", &stats.tasks_executed)
            .finish()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// Creates an empty pool; workers spawn on demand.
    pub(crate) fn new() -> Self {
        Self::with_max_workers(MAX_WORKERS)
    }

    /// Creates a pool that will never hold more than `max_workers`
    /// threads (jobs still complete — callers participate).
    pub(crate) fn with_max_workers(max_workers: usize) -> Self {
        Self {
            shared: Arc::new(Shared {
                queue: Mutex::new(QueueState {
                    tickets: VecDeque::new(),
                    shutdown: false,
                }),
                available: Condvar::new(),
                workers_spawned: AtomicU64::new(0),
                tasks_executed: AtomicU64::new(0),
            }),
            handles: Mutex::new(Vec::new()),
            max_workers,
        }
    }

    /// Runs `total` chunks of a job, blocking until all are finished.
    ///
    /// `run(i)` is called exactly once for every `i < total`, from the
    /// calling thread and/or pooled workers in unspecified assignment;
    /// the caller participates, so the job completes even with zero
    /// pooled workers available.
    ///
    /// # Panics
    ///
    /// Re-raises the first chunk panic on the calling thread — after
    /// every other chunk has finished, so borrowed data stays valid for
    /// stragglers.
    pub(crate) fn execute(&self, total: usize, run: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        if total == 1 {
            self.shared.tasks_executed.fetch_add(1, Ordering::Relaxed);
            run(0);
            return;
        }
        // SAFETY (lifetime erasure): the borrow lives until this function
        // returns, and the function returns only after `remaining == 0`,
        // i.e. after the last possible dereference (module-level protocol).
        #[allow(unsafe_code)]
        let erased: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(run as *const (dyn Fn(usize) + Sync + '_)) };
        let job = Arc::new(JobCore {
            run: RunPtr(erased),
            total,
            next: AtomicUsize::new(0),
            remaining: Mutex::new(total),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        // The caller is one participant; offer the rest of the chunks to
        // the pool as tickets (each ticket admits one worker to the
        // claiming loop — stale tickets for a finished job are no-ops).
        let helpers = total - 1;
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            for _ in 0..helpers {
                queue.tickets.push_back(Arc::clone(&job));
            }
        }
        self.shared.available.notify_all();
        self.spawn_up_to(helpers);

        job.work(&self.shared.tasks_executed);
        let mut remaining = job.remaining.lock().expect("job counter poisoned");
        while *remaining > 0 {
            remaining = job.done.wait(remaining).expect("job counter poisoned");
        }
        drop(remaining);
        let payload = job.panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Grows the pool to the high-water helper demand: after this call
    /// the pool holds `max(previous size, min(wanted, cap))` workers.
    /// Deterministic — a warm pool running same-degree jobs never spawns
    /// again; busy workers are *not* double-provisioned (callers always
    /// participate, so jobs complete regardless of pool size).
    fn spawn_up_to(&self, wanted: usize) {
        let target = wanted.min(self.max_workers);
        let mut handles = self.handles.lock().expect("pool handles poisoned");
        while handles.len() < target {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name("sieve-exec-worker".to_string())
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn pool worker");
            handles.push(handle);
            self.shared.workers_spawned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of the pool's lifetime counters.
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            workers_spawned: self.shared.workers_spawned.load(Ordering::Relaxed),
            tasks_executed: self.shared.tasks_executed.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().expect("pool handles poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// A pooled worker: pop a ticket, help its job to exhaustion, repeat;
/// exit when the pool shuts down and the queue is drained.
fn worker_loop(shared: &Shared) {
    loop {
        let ticket = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.tickets.pop_front() {
                    break Some(job);
                }
                if queue.shutdown {
                    break None;
                }
                queue = shared.available.wait(queue).expect("pool queue poisoned");
            }
        };
        match ticket {
            Some(job) => job.work(&shared.tasks_executed),
            None => return,
        }
    }
}

/// The process-wide pool behind [`crate::par_map_chunks`]. Lives for the
/// process; workers accumulate up to the demanded degree and are reused
/// by every subsequent parallel call.
pub(crate) fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::new)
}

/// Lifetime counters of the process-wide pool — surfaced by the serving
/// layer's `ServiceStats`.
pub fn pool_stats() -> PoolStats {
    global_pool().stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executes_every_chunk_exactly_once() {
        let pool = WorkerPool::new();
        let hits: Vec<AtomicU64> = (0..37).map(|_| AtomicU64::new(0)).collect();
        let run = |i: usize| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        };
        pool.execute(hits.len(), &run);
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "chunk {i}");
        }
    }

    #[test]
    fn warm_pool_reuses_workers_instead_of_spawning() {
        let pool = WorkerPool::new();
        let run = |_i: usize| {
            std::thread::yield_now();
        };
        for _ in 0..5 {
            pool.execute(4, &run);
        }
        assert_eq!(
            pool.stats().workers_spawned,
            3,
            "pool grows to the high-water helper demand exactly once"
        );
        for _ in 0..20 {
            pool.execute(4, &run);
        }
        assert_eq!(
            pool.stats().workers_spawned,
            3,
            "same-degree jobs must not spawn more workers"
        );
        assert_eq!(pool.stats().tasks_executed, 100);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new();
        pool.execute(8, &|_i| {});
        drop(pool); // must not hang or leak (loom-free smoke: join returns)
    }

    #[test]
    fn zero_and_single_chunk_jobs_run_inline() {
        let pool = WorkerPool::new();
        pool.execute(0, &|_| panic!("no chunk to run"));
        let ran = AtomicU64::new(0);
        pool.execute(1, &|i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(pool.stats().workers_spawned, 0, "inline jobs spawn nobody");
    }

    #[test]
    fn chunk_panics_propagate_after_all_chunks_finish() {
        let pool = WorkerPool::new();
        let finished = AtomicU64::new(0);
        let run = |i: usize| {
            if i == 3 {
                panic!("chunk 3 exploded");
            }
            finished.fetch_add(1, Ordering::Relaxed);
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| pool.execute(8, &run)));
        let payload = outcome.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("panic payload");
        assert_eq!(message, "chunk 3 exploded");
        assert_eq!(
            finished.load(Ordering::Relaxed),
            7,
            "every non-panicking chunk still ran"
        );
    }

    #[test]
    fn caller_participation_completes_jobs_with_no_pooled_workers() {
        let pool = WorkerPool::with_max_workers(0);
        let hits = AtomicU64::new(0);
        pool.execute(16, &|_i| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        assert_eq!(pool.stats().workers_spawned, 0);
    }

    #[test]
    fn nested_jobs_complete() {
        let pool = Arc::new(WorkerPool::new());
        let inner_hits = AtomicU64::new(0);
        let outer = {
            let pool = Arc::clone(&pool);
            let inner_hits = &inner_hits;
            move |_i: usize| {
                pool.execute(4, &|_j| {
                    inner_hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        };
        pool.execute(4, &outer);
        assert_eq!(inner_hits.load(Ordering::Relaxed), 16);
    }
}
