//! When does an acknowledged batch become visible in a published model?
//!
//! Decided from outside the service, conservatively: a batch acknowledged
//! at `a` is visible at the end of the first `refresh_dirty` call that
//! **started** at or after `a` — that call drains every store before it
//! refreshes anything, so it cannot have missed the batch. A sweep already
//! running at `a` may or may not have seen it and is not credited.

/// One `refresh_dirty` call on the sweeper's timeline (seconds since the
/// workload's clock started).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sweep {
    /// When the call was made.
    pub start: f64,
    /// When it returned.
    pub end: f64,
    /// Tenants it refreshed; zero for an idle sweep.
    pub refreshed: usize,
}

/// Index of the covering sweep of a batch acknowledged at `ack`: the first
/// of `sweeps` (sorted by start, as one sweeper produces them) starting at
/// or after `ack`. `None` if the sweeper stopped too early.
pub fn covering_sweep(sweeps: &[Sweep], ack: f64) -> Option<usize> {
    let index = sweeps.partition_point(|sweep| sweep.start < ack);
    (index < sweeps.len()).then_some(index)
}

/// Freshness of one batch, split at the covering sweep's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Freshness {
    /// Due time → covering sweep start: generator lateness, the ingest
    /// call, and the wait for the sweeper to come round.
    pub wait: f64,
    /// Duration of the covering sweep.
    pub service: f64,
}

impl Freshness {
    /// Due time → model visible.
    pub fn total(&self) -> f64 {
        self.wait + self.service
    }
}

/// Freshness of a batch due at `due` and acknowledged at `ack`.
pub fn freshness(sweeps: &[Sweep], due: f64, ack: f64) -> Option<Freshness> {
    let sweep = sweeps[covering_sweep(sweeps, ack)?];
    Some(Freshness {
        wait: sweep.start - due,
        service: sweep.end - sweep.start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(start: f64, end: f64) -> Sweep {
        Sweep {
            start,
            end,
            refreshed: 1,
        }
    }

    #[test]
    fn a_running_sweep_is_not_credited() {
        // Sweeps: [0,3] [3,7] [9,10].
        let sweeps = [sweep(0.0, 3.0), sweep(3.0, 7.0), sweep(9.0, 10.0)];
        // Acked at 1 while the first sweep runs: visible when the *next*
        // one (started at 3) ends.
        assert_eq!(covering_sweep(&sweeps, 1.0), Some(1));
        let f = freshness(&sweeps, 0.5, 1.0).unwrap();
        assert_eq!((f.wait, f.service, f.total()), (2.5, 4.0, 6.5));
        // Acked exactly when a sweep starts: that sweep drains after the
        // ack, so it covers.
        assert_eq!(covering_sweep(&sweeps, 3.0), Some(1));
        // Acked in the idle gap: the sweep that starts at 9 covers.
        assert_eq!(covering_sweep(&sweeps, 8.0), Some(2));
        assert_eq!(freshness(&sweeps, 7.5, 8.0).unwrap().total(), 2.5);
    }

    #[test]
    fn batches_coalesce_into_one_covering_sweep() {
        let sweeps = [sweep(0.0, 5.0), sweep(5.0, 9.0)];
        let covered: Vec<_> = [0.5, 2.0, 4.9]
            .iter()
            .map(|&a| covering_sweep(&sweeps, a))
            .collect();
        assert_eq!(covered, vec![Some(1); 3]);
    }

    #[test]
    fn an_ack_after_the_last_sweep_is_uncovered() {
        let sweeps = [sweep(0.0, 1.0)];
        assert_eq!(covering_sweep(&sweeps, 0.5), None);
        assert_eq!(freshness(&sweeps, 0.2, 0.5), None);
        assert_eq!(covering_sweep(&[], 0.0), None);
    }
}
