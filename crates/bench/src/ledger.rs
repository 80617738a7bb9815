//! A persisted, machine-readable performance ledger.
//!
//! Every bench binary appends one JSON object per benchmark run to
//! `BENCH_<bench>.json` at the repository root — one object per line, so
//! the file is both valid JSON-lines and trivially greppable. Records
//! carry the measured numbers (min/mean/median nanoseconds per
//! iteration), the workload note, the git revision and the measuring host's
//! core count, so regressions can be traced across commits — between rows
//! from like hosts — without re-running anything. A CI smoke run
//! (`SIEVE_BENCH_SMOKE`) measures a shrunken workload whose numbers compare
//! with nothing: it is printed and never recorded.
//!
//! The container this repo builds in has no access to crates.io, so both
//! the writer and the read-back parser below are dependency-free; the
//! parser understands exactly the flat objects the writer emits and
//! exists so tests (and tools) can round-trip the ledger.

use crate::harness::{smoke_mode, Measurement};
use sieve_exec::par::hardware_parallelism;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// One persisted benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    /// Bench binary the run belongs to (`analysis`, `pipeline`, ...).
    pub bench: String,
    /// Benchmark name within the binary (e.g. `fft/batch-1024`).
    pub name: String,
    /// Free-form workload/configuration note.
    pub config: String,
    /// Measured iterations.
    pub iters: u64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u64,
    /// Mean iteration, nanoseconds.
    pub mean_ns: u64,
    /// Median iteration, nanoseconds.
    pub median_ns: u64,
    /// `git rev-parse --short HEAD` at run time (`-dirty` when the tree
    /// differed from it), or `unknown`.
    pub git_rev: String,
    /// Seconds since the Unix epoch at record time.
    pub unix_s: u64,
    /// Hardware parallelism of the host that measured the run; `None` in
    /// rows written before the ledger recorded it. Timings from hosts that
    /// differ here are never compared.
    pub cores: Option<u64>,
}

impl LedgerRecord {
    /// Serializes the record as one flat JSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let cores = self
            .cores
            .map_or_else(String::new, |cores| format!(",\"cores\":{cores}"));
        format!(
            "{{\"bench\":{},\"name\":{},\"config\":{},\"iters\":{},\"min_ns\":{},\
             \"mean_ns\":{},\"median_ns\":{},\"git_rev\":{},\"unix_s\":{}{cores}}}",
            escape_json(&self.bench),
            escape_json(&self.name),
            escape_json(&self.config),
            self.iters,
            self.min_ns,
            self.mean_ns,
            self.median_ns,
            escape_json(&self.git_rev),
            self.unix_s
        )
    }

    /// Parses a record back from one ledger line.
    pub fn from_json_line(line: &str) -> Option<Self> {
        let fields = parse_flat_object(line)?;
        let s = |key: &str| match fields.get(key)? {
            JsonValue::Str(v) => Some(v.clone()),
            _ => None,
        };
        let n = |key: &str| match fields.get(key)? {
            JsonValue::Num(v) if *v >= 0.0 => Some(*v as u64),
            _ => None,
        };
        Some(Self {
            bench: s("bench")?,
            name: s("name")?,
            config: s("config")?,
            iters: n("iters")?,
            min_ns: n("min_ns")?,
            mean_ns: n("mean_ns")?,
            median_ns: n("median_ns")?,
            git_rev: s("git_rev")?,
            unix_s: n("unix_s")?,
            cores: match fields.get("cores") {
                None => None,
                Some(_) => Some(n("cores")?),
            },
        })
    }
}

/// Appends benchmark runs to `BENCH_<bench>.json` at the repository root.
#[derive(Debug)]
pub struct Ledger {
    bench: String,
    path: PathBuf,
    git_rev: String,
    cores: u64,
    smoke: bool,
}

impl Ledger {
    /// A ledger for the named bench binary, writing to the repo root
    /// (resolved relative to this crate's manifest at compile time).
    pub fn new(bench: &str) -> Self {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        Self::at(bench, &root)
    }

    /// A ledger rooted at an explicit directory (used by tests).
    pub fn at(bench: &str, dir: &Path) -> Self {
        Self {
            bench: bench.to_string(),
            path: dir.join(format!("BENCH_{bench}.json")),
            git_rev: git_rev(),
            cores: hardware_parallelism() as u64,
            smoke: smoke_mode(),
        }
    }

    /// The file the ledger appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What became of the runs handed to this ledger, for a bench's last
    /// line of output.
    pub fn outcome(&self) -> String {
        let path = self.path.display();
        if self.smoke {
            format!("smoke run, nothing appended to {path}")
        } else {
            format!("ledger appended to {path}")
        }
    }

    /// Builds a record for `measurement` without writing it.
    pub fn make_record(&self, measurement: &Measurement, config: &str) -> LedgerRecord {
        LedgerRecord {
            bench: self.bench.clone(),
            name: measurement.name.clone(),
            config: config.to_string(),
            iters: measurement.samples.len() as u64,
            min_ns: duration_ns(measurement.min()),
            mean_ns: duration_ns(measurement.mean()),
            median_ns: duration_ns(measurement.median()),
            git_rev: self.git_rev.clone(),
            unix_s: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            cores: Some(self.cores),
        }
    }

    /// Appends one run to the ledger file — or, in smoke mode, prints it
    /// and appends nothing. Benches treat the ledger as best-effort: an
    /// unwritable file prints a warning instead of failing the
    /// measurement.
    pub fn record(&self, measurement: &Measurement, config: &str) {
        let record = self.make_record(measurement, config);
        let line = record.to_json_line();
        if self.smoke {
            println!("ledger: smoke run, not recorded: {line}");
            return;
        }
        let appended = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .and_then(|mut file| writeln!(file, "{line}"));
        if let Err(err) = appended {
            eprintln!("ledger: could not append to {}: {err}", self.path.display());
        }
    }

    /// Records every measurement the runner collected, with one shared
    /// configuration note.
    pub fn record_all(&self, measurements: &[Measurement], config: &str) {
        for m in measurements {
            self.record(m, config);
        }
    }
}

/// All `BENCH_*.json` files directly inside `dir`, sorted by name.
pub fn ledger_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

/// Nanoseconds of a duration, saturated to `u64` (≈ 584 years).
fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `git rev-parse --short HEAD` of the repo this crate was built from —
/// with a `-dirty` suffix when tracked files other than the ledgers
/// themselves differ from it, so a row measured on uncommitted code is
/// never read as a measurement of `HEAD` — or `unknown` when git is
/// unavailable.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"])
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
    else {
        return "unknown".to_string();
    };
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .is_some_and(|status| status.lines().any(|line| !line.contains("BENCH_")));
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

/// Escapes a string as a JSON string literal (quotes included).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON scalar — the only value kinds ledger records contain.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string value.
    Str(String),
    /// A numeric value.
    Num(f64),
    /// A boolean value.
    Bool(bool),
}

/// Parses one flat JSON object of scalar values (the shape every ledger
/// line has). Returns `None` on anything malformed or nested.
pub fn parse_flat_object(line: &str) -> Option<BTreeMap<String, JsonValue>> {
    let mut chars = line.trim().chars().peekable();
    let mut fields = BTreeMap::new();
    if chars.next()? != '{' {
        return None;
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return chars.next().is_none().then_some(fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next()? != ':' {
            return None;
        }
        skip_ws(&mut chars);
        let value = parse_scalar(&mut chars)?;
        fields.insert(key, value);
        skip_ws(&mut chars);
        match chars.next()? {
            ',' => continue,
            '}' => break,
            _ => return None,
        }
    }
    skip_ws(&mut chars);
    chars.next().is_none().then_some(fields)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let code: String = (0..4).filter_map(|_| chars.next()).collect();
                    let value = u32::from_str_radix(&code, 16).ok()?;
                    out.push(char::from_u32(value)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

fn parse_scalar(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<JsonValue> {
    match chars.peek()? {
        '"' => parse_string(chars).map(JsonValue::Str),
        't' => {
            for expected in "true".chars() {
                if chars.next()? != expected {
                    return None;
                }
            }
            Some(JsonValue::Bool(true))
        }
        'f' => {
            for expected in "false".chars() {
                if chars.next()? != expected {
                    return None;
                }
            }
            Some(JsonValue::Bool(false))
        }
        _ => {
            let mut literal = String::new();
            while chars
                .peek()
                .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
            {
                literal.push(chars.next()?);
            }
            literal.parse().ok().map(JsonValue::Num)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::time::Duration;

    fn measurement() -> Measurement {
        Measurement {
            name: "stage/kernel-1024".to_string(),
            samples: vec![
                Duration::from_nanos(1_500),
                Duration::from_nanos(1_200),
                Duration::from_nanos(1_900),
            ],
        }
    }

    #[test]
    fn ledger_lines_parse_back() {
        let dir = std::env::temp_dir().join(format!("sieve-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = Ledger::at("unit", &dir);
        let _ = std::fs::remove_file(ledger.path());
        ledger.record(&measurement(), "len=1024 series=64");
        ledger.record(&measurement(), "len=2048 series=8");

        let contents = std::fs::read_to_string(ledger.path()).unwrap();
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let record = LedgerRecord::from_json_line(line).expect("line parses");
            assert_eq!(record.bench, "unit");
            assert_eq!(record.name, "stage/kernel-1024");
            assert_eq!(record.iters, 3);
            assert_eq!(record.min_ns, 1_200);
            assert_eq!(record.median_ns, 1_500);
            assert_eq!(record.mean_ns, 1_533);
            assert!(!record.git_rev.is_empty());
            assert!(record.unix_s > 0);
            assert_eq!(record.cores, Some(hardware_parallelism() as u64));
        }
        let _ = std::fs::remove_file(ledger.path());
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn record_round_trips_through_json_exactly() {
        let record = LedgerRecord {
            bench: "analysis".to_string(),
            name: "fft/batch".to_string(),
            config: "quote \" backslash \\ newline \n tab \t".to_string(),
            iters: 7,
            min_ns: 123,
            mean_ns: 456,
            median_ns: 234,
            git_rev: "abc1234".to_string(),
            unix_s: 1_700_000_000,
            cores: None,
        };
        // Without the host fact (every row committed before it existed: the
        // line is byte for byte what the ledger used to write) and with it.
        for cores in [None, Some(2)] {
            let record = LedgerRecord {
                cores,
                ..record.clone()
            };
            let line = record.to_json_line();
            assert_eq!(line.contains("\"cores\""), cores.is_some(), "{line}");
            assert_eq!(LedgerRecord::from_json_line(&line), Some(record));
        }
    }

    /// The `[[bench]]` target names declared in this crate's manifest.
    fn bench_targets() -> BTreeSet<String> {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        let manifest = std::fs::read_to_string(manifest).unwrap();
        manifest
            .split("[[bench]]")
            .skip(1)
            .map(|table| {
                let name = table.lines().find_map(|l| l.strip_prefix("name = "));
                name.expect("a [[bench]] table names its target")
                    .trim_matches('"')
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn every_bench_has_a_ledger_with_a_curve_and_every_ledger_a_bench() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ledgers: BTreeSet<String> = ledger_files(&root)
            .iter()
            .filter_map(|path| path.file_stem()?.to_str()?.strip_prefix("BENCH_"))
            .map(str::to_string)
            .collect();
        let benches = bench_targets();
        assert!(!benches.is_empty());
        assert_eq!(
            ledgers, benches,
            "BENCH_<name>.json at the repo root vs [[bench]] targets"
        );

        for bench in &benches {
            let contents =
                std::fs::read_to_string(root.join(format!("BENCH_{bench}.json"))).unwrap();
            let mut revisions = BTreeSet::new();
            for (index, line) in contents.lines().enumerate() {
                let record = LedgerRecord::from_json_line(line)
                    .unwrap_or_else(|| panic!("BENCH_{bench}.json:{}: not a record", index + 1));
                assert_eq!(record.bench, *bench, "BENCH_{bench}.json:{}", index + 1);
                revisions.insert(record.git_rev);
            }
            assert!(
                revisions.len() >= 2,
                "BENCH_{bench}.json holds {revisions:?}: `trajectory` needs two revisions to gate"
            );
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_flat_object("").is_none());
        assert!(parse_flat_object("{\"a\":1").is_none());
        assert!(parse_flat_object("{\"a\":1} trailing").is_none());
        assert!(parse_flat_object("{\"a\":}").is_none());
        assert!(LedgerRecord::from_json_line("{\"bench\":\"x\"}").is_none());
    }

    #[test]
    fn parser_handles_scalars_and_escapes() {
        let fields =
            parse_flat_object("{ \"s\" : \"a\\u0041\\n\" , \"n\" : -1.5e2 , \"b\" : false }")
                .unwrap();
        assert_eq!(fields["s"], JsonValue::Str("aA\n".to_string()));
        assert_eq!(fields["n"], JsonValue::Num(-150.0));
        assert_eq!(fields["b"], JsonValue::Bool(false));
        assert_eq!(parse_flat_object("{}").unwrap().len(), 0);
    }
}
