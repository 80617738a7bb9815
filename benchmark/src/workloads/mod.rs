//! The five workloads. Each module has a `measure` (the untraced pass the
//! end-to-end numbers come from) and a `trace` (a fixed-work, sequential,
//! single-threaded replay with a span around every call into a layer).

pub mod batch_analyze;
pub mod crash_recover;
pub mod ingest;
pub mod stream_fresh;

use crate::fleet::Failure;
use crate::host::Workdir;
use crate::inputs::Schedule;
use crate::report::Outcome;
use crate::trace::Tracer;
use std::time::Instant;

/// How much a measured loop does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Whole operations until this many seconds have passed (the driver's
    /// `--seconds`), and at least [`Budget::MIN_OPS`] of them.
    Seconds(f64),
    /// Exactly this many operations, so that counts repeat exactly.
    Ops(u64),
}

impl Budget {
    /// Fewest operations a time-bound loop runs, however slow they are.
    pub const MIN_OPS: u64 = 3;

    /// Whether the loop is done after `ops` operations.
    pub fn spent(&self, ops: u64, clock: Instant) -> bool {
        match *self {
            Budget::Seconds(seconds) => {
                ops >= Self::MIN_OPS && clock.elapsed().as_secs_f64() >= seconds
            }
            Budget::Ops(limit) => ops >= limit,
        }
    }
}

/// What a pass needs to know about the run it belongs to.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// `--seed`.
    pub seed: u64,
    /// Where durable directories go.
    pub workdir: &'a Workdir,
}

/// How an untraced pass is sized.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// How much the measured loop does.
    pub budget: Budget,
    /// How many times set-up runs (the first one is kept); `setup_s` is the
    /// quietest.
    pub setup_reps: usize,
}

impl Ctx<'_> {
    /// The arrival schedule of this run.
    pub fn schedule(&self) -> Schedule {
        Schedule::new(self.seed)
    }
}

/// How long each set-up of a run took. The first set-up builds the state
/// the workload runs on; the repeats come *after* the workload, for their
/// time only, so that what they leave in the allocator is not in `rss_mb`
/// and so that `setup_s` is read half a minute apart.
#[derive(Debug, Default)]
pub struct SetupTimes {
    seconds: Vec<f64>,
}

impl SetupTimes {
    /// Runs and times one set-up.
    pub fn time<S>(&mut self, build: impl FnOnce() -> Result<S, Failure>) -> Result<S, Failure> {
        let started = Instant::now();
        let built = build()?;
        self.seconds.push(started.elapsed().as_secs_f64());
        Ok(built)
    }

    /// Repeats the set-up until it has run `reps` times in all, dropping
    /// each state at once.
    pub fn repeat<S>(
        &mut self,
        reps: usize,
        mut build: impl FnMut() -> Result<S, Failure>,
    ) -> Result<(), Failure> {
        while self.seconds.len() < reps {
            drop(self.time(&mut build)?);
        }
        Ok(())
    }

    /// Records `setup_s`: the quietest set-up (they are equal work, one
    /// before the measured loop and the others after it, and like every
    /// timing here the least of them is what repeats; see `stats::least`).
    pub fn report(&self, outcome: &mut Outcome) {
        outcome.metric(
            "setup_s",
            crate::stats::least(&self.seconds),
            self.seconds.len(),
        );
    }
}

/// The workload a name selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `batch-analyze`.
    BatchAnalyze,
    /// `stream-fresh`.
    StreamFresh,
    /// `ingest-durable`.
    IngestDurable,
    /// `ingest-swept`.
    IngestSwept,
    /// `crash-recover`.
    CrashRecover,
}

impl Kind {
    /// All workloads, in catalogue order.
    pub const ALL: [Kind; 5] = [
        Kind::BatchAnalyze,
        Kind::StreamFresh,
        Kind::IngestDurable,
        Kind::IngestSwept,
        Kind::CrashRecover,
    ];

    /// The catalogue name ([`Kind::ALL`] is in catalogue order).
    pub fn name(self) -> &'static str {
        crate::catalogue::WORKLOADS[self as usize].name
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// The untraced pass.
    pub fn measure(self, ctx: &Ctx<'_>, sizing: Sizing) -> Result<Outcome, Failure> {
        match self {
            Kind::BatchAnalyze => batch_analyze::measure(ctx, sizing),
            Kind::StreamFresh => stream_fresh::measure(ctx, sizing),
            Kind::IngestDurable => ingest::measure(ctx, sizing, false),
            Kind::IngestSwept => ingest::measure(ctx, sizing, true),
            Kind::CrashRecover => crash_recover::measure(ctx, sizing),
        }
    }

    /// The traced pass.
    pub fn trace(self, ctx: &Ctx<'_>, tracer: &mut Tracer) -> Result<Outcome, Failure> {
        match self {
            Kind::BatchAnalyze => batch_analyze::trace(ctx, tracer),
            Kind::StreamFresh => stream_fresh::trace(ctx, tracer),
            Kind::IngestDurable => ingest::trace(ctx, tracer, false),
            Kind::IngestSwept => ingest::trace(ctx, tracer, true),
            Kind::CrashRecover => crash_recover::trace(ctx, tracer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::WORKLOADS;

    #[test]
    fn kinds_and_catalogue_agree() {
        assert_eq!(Kind::ALL.len(), WORKLOADS.len());
        assert_eq!(Kind::ALL.map(|k| k as usize), [0, 1, 2, 3, 4]);
        assert_eq!(Kind::CrashRecover.name(), "crash-recover");
        assert_eq!(Kind::parse("ingest-swept"), Some(Kind::IngestSwept));
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn budgets_stop_where_they_say() {
        let clock = Instant::now();
        assert!(!Budget::Ops(2).spent(1, clock));
        assert!(Budget::Ops(2).spent(2, clock));
        assert!(!Budget::Seconds(0.0).spent(Budget::MIN_OPS - 1, clock));
        assert!(Budget::Seconds(0.0).spent(Budget::MIN_OPS, clock));
        assert!(!Budget::Seconds(3600.0).spent(1_000_000, clock));
    }

    #[test]
    fn setup_is_timed_once_per_run_of_it() {
        let mut built = 0;
        let mut build = || {
            built += 1;
            Ok(built)
        };
        let mut setups = SetupTimes::default();
        assert_eq!(setups.time(&mut build).unwrap(), 1);
        setups.repeat(3, &mut build).unwrap();
        setups.repeat(3, &mut build).unwrap();
        let mut outcome = Outcome::default();
        setups.report(&mut outcome);
        assert_eq!((built, outcome.end_to_end[0].samples), (3, 3));
    }
}
