//! The repo benchmark: five end-to-end workloads over the Sieve stack and
//! a traced per-layer pass. See `README.md` next to `Cargo.toml`.
//!
//! ```text
//! run.sh                                  every workload untraced, then traced
//! run.sh --only stream-fresh --trace 0    one workload, untraced pass only
//! run.sh --agree                          the full set twice, compared to the bounds
//! run.sh --workload W --seed N --seconds S --trace 0|1     what the driver runs
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalogue;
mod fleet;
mod fresh;
mod host;
mod inputs;
mod report;
mod stats;
mod trace;
mod workloads;

use catalogue::RUN_SECONDS;
use fleet::Failure;
use host::{HostFacts, Workdir};
use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Budget, Ctx, Kind, Sizing};

/// Times set-up runs in an untraced pass; `setup_s` is the quietest.
const SETUP_REPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    /// Driver mode: one workload, result line last.
    workload: Option<Kind>,
    /// Report mode: restrict to one workload.
    only: Option<Kind>,
    seed: u64,
    seconds: f64,
    /// `Some(false)` untraced only, `Some(true)` traced only, `None` both.
    trace: Option<bool>,
    agree: bool,
    emit_benchmark_json: bool,
    workdir: Option<PathBuf>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        only: None,
        seed: 7,
        seconds: RUN_SECONDS as f64,
        trace: None,
        agree: false,
        emit_benchmark_json: false,
        workdir: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let kind =
            |name: String| Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(kind(value()?)?),
            "--only" => parsed.only = Some(kind(value()?)?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--agree" => parsed.agree = true,
            "--emit-benchmark-json" => parsed.emit_benchmark_json = true,
            "--workdir" => parsed.workdir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Where traces go, relative to the checkout root `run.sh` changes into.
fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

fn untraced(
    kind: Kind,
    args: &Args,
    workdir: &Workdir,
    budget: Budget,
    setup_reps: usize,
) -> Result<Outcome, Failure> {
    let ctx = Ctx {
        seed: args.seed,
        workdir,
    };
    host::reset_peak_rss();
    kind.measure(&ctx, Sizing { budget, setup_reps })
}

fn traced(kind: Kind, args: &Args, workdir: &Workdir) -> Result<Outcome, Failure> {
    let mut tracer = Tracer::new(kind.name());
    let ctx = Ctx {
        seed: args.seed,
        workdir,
    };
    let outcome = kind.trace(&ctx, &mut tracer)?;
    let path = out_dir().join(format!("trace-{}.jsonl", kind.name()));
    tracer.write_jsonl(&path)?;
    println!(
        "trace: {} spans in {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(outcome)
}

/// What the driver runs: one workload, one pass, the result line last.
fn driver(kind: Kind, args: &Args, workdir: &Workdir) -> Result<bool, Failure> {
    let outcome = if args.trace == Some(true) {
        // Half the time on the real (concurrent, untraced) workload for the
        // per-layer numbers only it can give — waits, stalls, sweeper
        // utilisation — then the traced replay.
        let mut outcome = untraced(kind, args, workdir, Budget::Seconds(args.seconds / 2.0), 1)?;
        outcome.absorb(traced(kind, args, workdir)?);
        outcome
    } else {
        untraced(
            kind,
            args,
            workdir,
            Budget::Seconds(args.seconds),
            SETUP_REPS,
        )?
    };
    print!("{}", report::human_block(kind.name(), &outcome));
    println!(
        "{}",
        if args.trace == Some(true) {
            report::driver_line_traced(&outcome)
        } else {
            report::driver_line_untraced(&outcome)
        }
    );
    Ok(outcome.failed == 0)
}

/// Every selected workload, untraced and/or traced, printed by name.
fn full_report(args: &Args, workdir: &Workdir) -> Result<bool, Failure> {
    let mut ok = true;
    for kind in Kind::ALL
        .into_iter()
        .filter(|k| args.only.is_none_or(|only| only == *k))
    {
        let mut outcome = Outcome::default();
        if args.trace != Some(true) {
            outcome = untraced(
                kind,
                args,
                workdir,
                Budget::Seconds(args.seconds),
                SETUP_REPS,
            )?;
        }
        if args.trace != Some(false) {
            outcome.absorb(traced(kind, args, workdir)?);
        }
        print!("{}", report::human_block(kind.name(), &outcome));
        ok &= outcome.failed == 0;
    }
    Ok(ok)
}

/// The full untraced set twice — the second time with exactly the first's
/// operation counts — compared metric by metric against the bounds.
fn agree(args: &Args, workdir: &Workdir) -> Result<bool, Failure> {
    let mut ok = true;
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for kind in Kind::ALL
        .into_iter()
        .filter(|k| args.only.is_none_or(|only| only == *k))
    {
        let first = untraced(
            kind,
            args,
            workdir,
            Budget::Seconds(args.seconds),
            SETUP_REPS,
        )?;
        let second = untraced(kind, args, workdir, Budget::Ops(first.ops), SETUP_REPS)?;
        ok &= first.failed == 0 && second.failed == 0;
        for entry in catalogue::END_TO_END
            .iter()
            .filter(|m| m.on.contains(&kind.name()))
        {
            let name = entry.name;
            let (a, b) = if name == "fail_frac" {
                (first.fail_frac(), second.fail_frac())
            } else {
                let both = first.value(name).zip(second.value(name));
                both.ok_or_else(|| format!("{} did not report {name}", kind.name()))?
            };
            let diff = entry.better.worsening(a, b);
            let agrees = if entry.bound == 0.0 {
                a == b
            } else {
                diff.abs() <= entry.bound
            };
            ok &= agrees;
            println!(
                "{:<16} {:<22} {:>16.4} {:>16.4} {:>+8.2}% {:>6.0}% {}",
                kind.name(),
                name,
                a,
                b,
                diff * 100.0,
                entry.bound * 100.0,
                if agrees { "" } else { "DISAGREE" }
            );
        }
    }
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, Failure> {
    let root = args
        .workdir
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("work-{}", std::process::id())));
    // Dropped — and the directory removed — on every way out of here,
    // unwinding included.
    let workdir = Workdir::create(root)?;
    let facts = HostFacts::collect(workdir.path());
    println!("{}", facts.line());
    if !facts.enough_cores() {
        eprintln!("warning: fewer than 2 cores: stream-fresh and ingest-swept time-slice their two threads");
    }
    println!(
        "seed={} seconds={} data_seed={}",
        args.seed,
        args.seconds,
        inputs::DATA_SEED
    );
    match args.workload {
        Some(kind) => driver(kind, args, &workdir),
        None if args.agree => agree(args, &workdir),
        None => full_report(args, &workdir),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    if args.emit_benchmark_json {
        print!("{}", catalogue::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a correctness check failed, or (--agree) two sets disagreed");
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse("--workload crash-recover --seed 99 --seconds 15 --trace 1").unwrap();
        assert_eq!(args.workload, Some(Kind::CrashRecover));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (99, 15.0, Some(true))
        );
        let defaults = parse("").unwrap();
        assert_eq!(
            (defaults.seed, defaults.seconds, defaults.trace),
            (7, RUN_SECONDS as f64, None)
        );
        assert!(parse("--only ingest-swept --agree").unwrap().agree);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }
}
