//! The shared parallel executor of the Sieve pipeline.
//!
//! Both embarrassingly parallel stages of the pipeline — the per-component
//! metric reduction (step 2) and the per-edge Granger comparisons (step 3)
//! — used to carry their own hand-rolled thread-scope blocks. This module
//! is the single policy layer that replaces them: callers describe *what*
//! to compute per item and the executor decides *how* (serial below the
//! parallelism threshold, chunked across the persistent
//! `WorkerPool` above it), always returning results in
//! input order so that serial and parallel runs are bit-for-bit
//! identical. Chunk boundaries are a pure function of `(workers,
//! items.len())` — the pool only decides which thread runs a chunk — so
//! moving from per-call scoped threads to pooled workers changes no
//! output anywhere.

/// The number of hardware threads worth spawning workers for.
///
/// `std::thread::available_parallelism` honours cgroup CPU quotas, so a
/// containerised run on a single core reports 1 — and the executor then
/// runs everything serially instead of paying thread overhead it can never
/// recoup.
pub fn hardware_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` with up to `workers` threads, preserving input
/// order in the output.
///
/// This is the execution-policy layer of the pipeline. An explicit request
/// is honoured exactly (clamped only to the item count): callers that say
/// "8 workers" get 8 worker threads even on a single-core host, which is
/// what keeps the serial-vs-parallel determinism tests meaningful on any
/// machine. Callers that want a hardware-appropriate degree pass
/// [`hardware_parallelism`] — that is what `SieveConfig::default()` does.
///
/// * An effective degree of 1 (or fewer than two items) runs serially on
///   the calling thread — no thread is ever spawned for degenerate inputs.
/// * Otherwise the items are split into contiguous chunks, each chunk runs
///   on the persistent `WorkerPool` (the calling thread
///   participates), and the per-chunk results are concatenated in chunk
///   order. Because chunks are contiguous and joined in order,
///   `par_map_chunks(w, items, f)[i] == f(&items[i])` for every `w` —
///   determinism is structural, not incidental, and independent of which
///   pooled worker ran which chunk.
///
/// # Panics
///
/// Propagates panics from `f` (the pool finishes all other chunks first).
///
/// # Example
///
/// ```
/// use sieve_exec::par_map_chunks;
///
/// let squares = par_map_chunks(4, &[1, 2, 3, 4, 5], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub fn par_map_chunks<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk_size = items.len().div_ceil(workers);
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    let slots: Vec<std::sync::Mutex<Option<Vec<R>>>> = (0..chunks.len())
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    let run = |index: usize| {
        let result: Vec<R> = chunks[index].iter().map(&f).collect();
        *slots[index].lock().expect("executor result slot poisoned") = Some(result);
    };
    crate::pool::global_pool().execute(chunks.len(), &run);
    let mut out = Vec::with_capacity(items.len());
    for slot in &slots {
        out.extend(
            slot.lock()
                .expect("executor result slot poisoned")
                .take()
                .expect("executor chunk completed"),
        );
    }
    out
}

/// Like [`par_map_chunks`], but for fallible per-item work: stops at the
/// first error *in input order* (later chunks still run to completion, but
/// the reported error is deterministic regardless of thread timing).
///
/// # Errors
///
/// Returns the error of the earliest (by input index) failing item.
pub fn try_par_map_chunks<T, R, E, F>(workers: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    par_map_chunks(workers, items, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order_for_any_worker_count() {
        let items: Vec<usize> = (0..103).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for workers in [0, 1, 2, 3, 7, 16, 200] {
            assert_eq!(
                par_map_chunks(workers, &items, |x| x * 2),
                expected,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_inputs_run_serially() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_chunks(8, &empty, |x| *x).is_empty());
        assert_eq!(par_map_chunks(8, &[42], |x| *x + 1), vec![43]);
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..57).collect();
        let out = par_map_chunks(5, &items, |x| {
            counter.fetch_add(1, Ordering::SeqCst);
            *x
        });
        assert_eq!(counter.load(Ordering::SeqCst), 57);
        assert_eq!(out, items);
    }

    #[test]
    fn try_variant_reports_the_earliest_error() {
        let items: Vec<usize> = (0..40).collect();
        let result = try_par_map_chunks(4, &items, |x| {
            if *x == 7 || *x == 31 {
                Err(*x)
            } else {
                Ok(*x)
            }
        });
        assert_eq!(result, Err(7));
        let ok: Result<Vec<usize>, usize> = try_par_map_chunks(4, &items, |x| Ok(*x));
        assert_eq!(ok.unwrap().len(), 40);
    }

    #[test]
    fn parallel_and_serial_results_agree_on_nontrivial_work() {
        let items: Vec<u64> = (0..64).collect();
        let work =
            |x: &u64| -> f64 { (0..200).fold(*x as f64, |acc, i| acc + (i as f64 * 0.01).sin()) };
        let serial = par_map_chunks(1, &items, work);
        let parallel = par_map_chunks(8, &items, work);
        assert_eq!(serial, parallel);
    }
}

#[cfg(test)]
mod cap_tests {
    use super::*;

    #[test]
    fn hardware_parallelism_is_at_least_one() {
        assert!(hardware_parallelism() >= 1);
    }
}
