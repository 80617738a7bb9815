//! `trajectory` — the performance-ledger trend reader.
//!
//! Every bench binary appends machine-readable runs to `BENCH_<bench>.json`
//! at the repository root (see [`sieve_bench::ledger`]). This tool reads
//! *all* of those ledgers, groups the runs by benchmark name, measuring
//! host (its core count — rows from different hosts are never compared) and
//! git revision, and prints the speedup curve of each benchmark across
//! revisions — the project's performance history, reconstructed from the
//! persisted records without re-running anything.
//!
//! It is also the CI regression gate: for every benchmark and host, the
//! latest revision's median is compared against the best prior median. A
//! slowdown of more than 20% exits nonzero and names the offending
//! benchmarks.
//! (`SIEVE_BENCH_SMOKE` runs measure a shrunken workload; the ledger never
//! records them, so none can poison the curve.)
//!
//! Usage: `cargo run -p sieve-bench --bin trajectory [ledger-dir]`
//! (the directory defaults to the repository root).

use sieve_bench::ledger::{ledger_files, LedgerRecord};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A regression is a latest median more than 20% above the best prior
/// median of the same benchmark.
const REGRESSION_FACTOR: f64 = 1.20;

/// One revision's aggregate for a benchmark: the best (lowest) median
/// observed at that revision, in chronological first-seen order.
#[derive(Debug)]
struct RevPoint {
    rev: String,
    best_median_ns: u64,
}

/// What makes two runs comparable: the bench, the benchmark name within it
/// and the core count of the host that measured them (`None`: a row from
/// before the ledger recorded it).
type GroupKey = (String, String, Option<u64>);

type Groups = BTreeMap<GroupKey, Vec<LedgerRecord>>;

fn group_key(record: &LedgerRecord) -> GroupKey {
    (record.bench.clone(), record.name.clone(), record.cores)
}

/// Parses every ledger line of every file, grouped by [`GroupKey`] and kept
/// in append order within each group.
fn load_groups(dir: &Path) -> Groups {
    let mut groups = Groups::new();
    for file in ledger_files(dir) {
        let Ok(contents) = std::fs::read_to_string(&file) else {
            eprintln!("trajectory: cannot read {}", file.display());
            continue;
        };
        for line in contents.lines().filter(|l| !l.trim().is_empty()) {
            match LedgerRecord::from_json_line(line) {
                Some(record) => groups.entry(group_key(&record)).or_default().push(record),
                None => eprintln!("trajectory: skipping malformed line in {}", file.display()),
            }
        }
    }
    groups
}

/// Folds a group's runs into one point per revision (first-seen order,
/// best median per revision).
fn rev_points(runs: &[LedgerRecord]) -> Vec<RevPoint> {
    let mut points: Vec<RevPoint> = Vec::new();
    for run in runs.iter().filter(|r| r.median_ns > 0) {
        match points.iter_mut().find(|p| p.rev == run.git_rev) {
            Some(point) => point.best_median_ns = point.best_median_ns.min(run.median_ns),
            None => points.push(RevPoint {
                rev: run.git_rev.clone(),
                best_median_ns: run.median_ns,
            }),
        }
    }
    points
}

fn format_ns(ns: u64) -> String {
    format!("{:.3?}", std::time::Duration::from_nanos(ns))
}

/// Prints every benchmark's speedup curve and returns the regressions.
fn evaluate(groups: &Groups) -> Vec<String> {
    let mut regressions = Vec::new();
    let mut current_bench = String::new();
    for ((bench, name, cores), runs) in groups {
        if *bench != current_bench {
            println!("ledger {bench} (BENCH_{bench}.json)");
            current_bench = bench.clone();
        }
        let points = rev_points(runs);
        let host = cores.map_or_else(
            || "host not recorded".to_string(),
            |cores| format!("{cores} cores"),
        );
        println!("  {name} [{host}] ({} run(s))", runs.len());
        let Some(baseline) = points.first() else {
            println!("    no timed runs — nothing to compare");
            continue;
        };
        for point in &points {
            let speedup = baseline.best_median_ns as f64 / point.best_median_ns as f64;
            println!(
                "    {:<10} median {:>12}   {speedup:>6.2}x vs first",
                point.rev,
                format_ns(point.best_median_ns)
            );
        }
        if points.len() < 2 {
            continue;
        }
        let latest = points.last().expect("len >= 2");
        let best_prior = points[..points.len() - 1]
            .iter()
            .map(|p| p.best_median_ns)
            .min()
            .expect("len >= 2");
        let ratio = latest.best_median_ns as f64 / best_prior as f64;
        if ratio > REGRESSION_FACTOR {
            regressions.push(format!(
                "{bench}/{name} [{host}]: latest median {} at {} is {:.0}% above the \
                 best prior median {}",
                format_ns(latest.best_median_ns),
                latest.rev,
                (ratio - 1.0) * 100.0,
                format_ns(best_prior)
            ));
        }
    }
    regressions
}

fn main() -> ExitCode {
    let dir = std::env::args().nth(1).map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
        PathBuf::from,
    );
    let groups = load_groups(&dir);
    if groups.is_empty() {
        println!(
            "trajectory: no ledger runs under {} — run any bench first",
            dir.display()
        );
        return ExitCode::SUCCESS;
    }
    let regressions = evaluate(&groups);
    if regressions.is_empty() {
        println!("trajectory: no >20% median regressions");
        return ExitCode::SUCCESS;
    }
    for regression in &regressions {
        eprintln!("trajectory: REGRESSION {regression}");
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, rev: &str, median_ns: u64, unix_s: u64) -> LedgerRecord {
        LedgerRecord {
            bench: "unit".to_string(),
            name: name.to_string(),
            config: "cfg".to_string(),
            iters: 3,
            min_ns: median_ns / 2,
            mean_ns: median_ns,
            median_ns,
            git_rev: rev.to_string(),
            unix_s,
            cores: None,
        }
    }

    fn groups_of(records: Vec<LedgerRecord>) -> Groups {
        let mut groups = Groups::new();
        for r in records {
            groups.entry(group_key(&r)).or_default().push(r);
        }
        groups
    }

    fn unit_a() -> GroupKey {
        ("unit".to_string(), "a".to_string(), None)
    }

    #[test]
    fn regression_fires_only_beyond_twenty_percent() {
        // 100µs → 115µs: within tolerance.
        let ok = groups_of(vec![
            record("a", "r1", 100_000, 1),
            record("a", "r2", 115_000, 2),
        ]);
        assert!(evaluate(&ok).is_empty());

        // 100µs → 130µs: 30% above the best prior — a regression.
        let bad = groups_of(vec![
            record("a", "r1", 100_000, 1),
            record("a", "r2", 130_000, 2),
        ]);
        let regressions = evaluate(&bad);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("unit/a"), "{}", regressions[0]);
    }

    #[test]
    fn comparison_is_against_the_best_prior_revision() {
        // The best prior is r1 (80µs), not the immediately preceding r2.
        let groups = groups_of(vec![
            record("a", "r1", 80_000, 1),
            record("a", "r2", 95_000, 2),
            record("a", "r3", 100_000, 3),
        ]);
        let regressions = evaluate(&groups);
        assert_eq!(regressions.len(), 1, "100µs vs best prior 80µs is +25%");
    }

    #[test]
    fn repeated_revisions_keep_their_best_median() {
        let groups = groups_of(vec![
            record("a", "r1", 100_000, 1),
            record("a", "r2", 140_000, 2),
            // A second, faster run at r2 rescues the revision.
            record("a", "r2", 105_000, 3),
        ]);
        assert!(evaluate(&groups).is_empty());
        let points = rev_points(&groups[&unit_a()]);
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].best_median_ns, 105_000);
    }

    #[test]
    fn rows_from_different_hosts_are_never_compared() {
        // 100µs where the host was not recorded, then 130µs on two cores:
        // +30% across hosts says nothing about the code.
        let two_cores = LedgerRecord {
            cores: Some(2),
            ..record("a", "r2", 130_000, 2)
        };
        let groups = groups_of(vec![record("a", "r1", 100_000, 1), two_cores.clone()]);
        assert_eq!(groups.len(), 2);
        assert!(evaluate(&groups).is_empty());

        // Inside one host's group the gate is what it was.
        let slower = LedgerRecord {
            git_rev: "r3".to_string(),
            median_ns: 169_000,
            ..two_cores.clone()
        };
        let regressions = evaluate(&groups_of(vec![two_cores, slower]));
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("[2 cores]"), "{}", regressions[0]);
    }

    #[test]
    fn ledger_files_are_discovered_and_parsed() {
        let dir = std::env::temp_dir().join(format!("sieve-trajectory-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_unit.json");
        let lines = [
            record("a", "r1", 100_000, 1).to_json_line(),
            "not json".to_string(),
            record("a", "r2", 110_000, 2).to_json_line(),
        ]
        .join("\n");
        std::fs::write(&path, lines).unwrap();
        std::fs::write(dir.join("NOT_A_LEDGER.txt"), "ignored").unwrap();

        assert_eq!(ledger_files(&dir), vec![path.clone()]);
        let groups = load_groups(&dir);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[&unit_a()].len(), 2);
        assert!(
            evaluate(&groups).is_empty(),
            "10% slower is not a regression"
        );

        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(dir.join("NOT_A_LEDGER.txt"));
        let _ = std::fs::remove_dir(&dir);
    }
}
