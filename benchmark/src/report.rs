//! What a pass over one workload produces, and how it is printed.

use crate::catalogue::{self, COLUMNS, LAYERS};
use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Catalogue name.
    pub name: &'static str,
    /// The value, in the catalogue's unit.
    pub value: f64,
    /// Samples behind it (ops for a median, calls for a percentile, 1 for
    /// a count read once).
    pub samples: usize,
}

/// The two role columns a workload fills for the driver, next to
/// `rss_mb` and `setup_s`; both read in the run's quietest window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Roles {
    /// Latency of the workload's operation (the median one where a window
    /// holds several), in ms.
    pub op_ms: f64,
    /// Work completed per second.
    pub work_per_s: f64,
}

/// Result of one pass (untraced or traced) over one workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted, correctness checks included.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Iterations of the measured loop (untraced pass only): what
    /// `Budget::Ops` takes to repeat exactly this much work.
    pub ops: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end catalogue metrics (untraced pass only).
    pub end_to_end: Vec<Measured>,
    /// The driver's role columns (untraced pass only).
    pub roles: Roles,
    /// Per-layer metrics this pass measured.
    pub layers: Vec<Measured>,
}

impl Outcome {
    /// Counts one attempted operation; records `message` if it failed.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(message());
            }
        }
    }

    /// Counts `ops` attempted operations that all succeeded.
    pub fn passed(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Adds an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            catalogue::end_to_end(name).is_some(),
            "{name} is not catalogued"
        );
        self.end_to_end.push(Measured {
            name,
            value,
            samples,
        });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            LAYERS.iter().any(|l| l.name == name),
            "{name} is not catalogued"
        );
        self.layers.push(Measured {
            name,
            value,
            samples,
        });
    }

    /// Folds a later pass over the same workload into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
        self.end_to_end.extend(other.end_to_end);
        self.layers.extend(other.layers);
    }

    /// Failed share of attempted operations.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Value of the end-to-end metric `name`, if this pass measured it.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Value of the per-layer metric `name`, if this pass measured it.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

fn json_number(value: f64) -> String {
    // `{}` prints the shortest digits that round-trip: the value as
    // measured. JSON has no NaN or infinity.
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn json_line(
    outcome: &Outcome,
    metrics: impl Iterator<Item = (&'static str, &'static str, f64)>,
) -> String {
    let mut body = String::new();
    for (i, (name, unit, value)) in metrics.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    )
}

/// The driver's result line of an untraced run: every end-to-end column.
pub fn driver_line_untraced(outcome: &Outcome) -> String {
    let value = |name: &str| match name {
        "op_ms" => outcome.roles.op_ms,
        "work_per_s" => outcome.roles.work_per_s,
        other => outcome.value(other).unwrap_or(0.0),
    };
    json_line(
        outcome,
        COLUMNS.iter().map(|c| (c.name, c.unit, value(c.name))),
    )
}

/// The driver's result line of a traced run: every per-layer metric, zero
/// for a layer the workload does not enter.
pub fn driver_line_traced(outcome: &Outcome) -> String {
    json_line(
        outcome,
        LAYERS
            .iter()
            .map(|l| (l.name, l.unit, outcome.layer_value(l.name).unwrap_or(0.0))),
    )
}

/// The readable block for one workload.
pub fn human_block(workload: &str, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {workload} ==");
    for m in &outcome.end_to_end {
        let entry = catalogue::end_to_end(m.name).expect("catalogued");
        let bound = if entry.bound == 0.0 {
            "exact".to_string()
        } else {
            format!("{:.0}%", entry.bound * 100.0)
        };
        let _ = writeln!(
            out,
            "  {:<24} {:>16.4} {:<8} n={:<7} {} is better, bound {bound}",
            m.name,
            m.value,
            entry.unit,
            m.samples,
            entry.better.word()
        );
    }
    let _ = writeln!(
        out,
        "  {:<24} {:>16.6} {:<8} n={:<7} lower is better, bound exact",
        "fail_frac",
        outcome.fail_frac(),
        "ratio",
        outcome.attempted
    );
    for m in &outcome.layers {
        let entry = LAYERS
            .iter()
            .find(|l| l.name == m.name)
            .expect("catalogued");
        let _ = writeln!(
            out,
            "    {:<30} {:>16.4} {:<8} n={:<7} | {}",
            m.name, m.value, entry.unit, m.samples, entry.moves
        );
    }
    for failure in &outcome.failures {
        let _ = writeln!(out, "  FAILED: {failure}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_driver_lines_carry_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.passed(10);
        outcome.metric("rss_mb", 12.5, 1);
        outcome.metric("setup_s", 0.25, 3);
        outcome.roles = Roles {
            op_ms: 1.5,
            work_per_s: 100.0,
        };
        let line = driver_line_untraced(&outcome);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        for column in &COLUMNS {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", column.name)),
                "{line}"
            );
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));

        outcome.layer("wal.fsync_calls", 7.0, 1);
        outcome.check(false, || "boom".to_string());
        let traced = driver_line_traced(&outcome);
        assert!(traced.starts_with("{\"correct\": false, \"attempted\": 11, \"failed\": 1,"));
        assert!(traced.contains("\"wal.fsync_calls\": {\"value\": 7, \"unit\": \"count\"}"));
        assert!(traced.contains("\"serve.sweeps\": {\"value\": 0, "));
        assert_eq!(outcome.failures, vec!["boom".to_string()]);
        assert!((outcome.fail_frac() - 1.0 / 11.0).abs() < 1e-12);
    }
}
