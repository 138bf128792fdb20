//! Compares a smoke-suite report against the committed baseline and fails
//! when a seeded metric regresses — the gate CI runs after the smoke suite.
//!
//! ```text
//! bench-compare --baseline <path> --current <path> [--summary <path>]
//! ```
//!
//! The `metrics` an experiment reports (φ/ρ/migration trajectories, record
//! counts, see `spinner_bench::emit_metric`) are seeded and exactly
//! reproducible, so one tight gate covers them all: a higher-is-better
//! metric (`phi*`) regresses when it drops more than [`TOLERANCE`] below
//! baseline; a lower-is-better one (`rho*`, `*migration*`, `*moved*`,
//! `remote_records*` — the physical record traffic the broadcast fabric
//! deduplicates — and `active_fraction*`) when it rises more than that
//! above. Other metric names are
//! reported but never gate. A failed experiment, an experiment missing from
//! the current report and a metric missing from it fail too.
//!
//! Wall-clock is not compared here: time is gated by the workloads of the
//! repo benchmark (`benchmark/`), which pairs runs to bound their noise.
//!
//! A markdown delta table goes to stdout and, with `--summary`, is appended
//! to the given file (pass `$GITHUB_STEP_SUMMARY` in CI). Exit code 1 on
//! any failure, 2 on usage/IO errors.

use spinner_bench::report::{parse_report, ExperimentOutcome};
use std::io::Write;
use std::process::ExitCode;

/// Largest tolerated relative drift of a gated metric against baseline.
const TOLERANCE: f64 = 0.05;

struct Args {
    baseline: String,
    current: String,
    summary: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args { baseline: String::new(), current: String::new(), summary: None };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => args.baseline = value(&mut it, "--baseline"),
            "--current" => args.current = value(&mut it, "--current"),
            "--summary" => args.summary = Some(value(&mut it, "--summary")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if args.baseline.is_empty() || args.current.is_empty() {
        eprintln!("usage: bench-compare --baseline <path> --current <path> [--summary <path>]");
        std::process::exit(2);
    }
    args
}

fn load(path: &str) -> Vec<ExperimentOutcome> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    parse_report(&text).unwrap_or_else(|| {
        eprintln!("{path} is not a bench report");
        std::process::exit(2);
    })
}

/// Which way a metric is allowed to move, inferred from its name.
enum Direction {
    /// Dropping below baseline is a regression.
    HigherBetter,
    /// Rising above baseline is a regression.
    LowerBetter,
    /// Anything else: reported for the record, never gated.
    Informational,
}

/// Name prefixes gated higher-is-better: `phi*` (edge locality).
const HIGHER_BETTER_PREFIXES: &[&str] = &["phi"];

/// Name prefixes gated lower-is-better: `rho*` (balance), `remote_records*`
/// (physical cross-worker fabric records — what the broadcast lane
/// deduplicates) and `active_fraction*` (per-superstep compute cost of
/// delta windows).
const LOWER_BETTER_PREFIXES: &[&str] = &["rho", "remote_records", "active_fraction"];

/// Substrings gated lower-is-better anywhere in a name: movement cost.
const LOWER_BETTER_INFIXES: &[&str] = &["migration", "moved"];

fn direction(name: &str) -> Direction {
    if HIGHER_BETTER_PREFIXES.iter().any(|p| name.starts_with(p)) {
        Direction::HigherBetter
    } else if LOWER_BETTER_PREFIXES.iter().any(|p| name.starts_with(p))
        || LOWER_BETTER_INFIXES.iter().any(|s| name.contains(s))
    {
        Direction::LowerBetter
    } else {
        Direction::Informational
    }
}

/// Gates `current` against `baseline`: returns the markdown delta table and
/// the number of failures (regressed metrics, failed experiments, and
/// experiments or metrics missing from `current`).
fn gate(baseline: &[ExperimentOutcome], current: &[ExperimentOutcome]) -> (String, usize) {
    let mut table = String::from("## Seeded metrics vs baseline\n\n");
    table.push_str(&format!(
        "Regression gate: phi must not drop, and rho / migration fractions must \
         not rise, by more than {:.0}% of baseline. Those metrics are seeded and \
         thread-count-invariant, so any drift is a real behaviour change. Failed \
         or missing experiments and missing metrics fail too.\n\n",
        100.0 * TOLERANCE
    ));
    table.push_str("| experiment | metric | baseline | current | delta | status |\n");
    table.push_str("|---|---|---:|---:|---:|---|\n");

    let mut failures = 0usize;
    for cur in current {
        if !cur.ok {
            failures += 1;
            table.push_str(&format!("| {} | — | — | — | — | FAILED |\n", cur.name));
        }
        let base = baseline.iter().find(|b| b.name == cur.name);
        for (name, cur_value) in &cur.metrics {
            let cur_value = *cur_value;
            let Some(base_value) = base.and_then(|b| b.metric(name)) else {
                table.push_str(&format!(
                    "| {} | {} | — | {:.4} | — | new (no baseline) |\n",
                    cur.name, name, cur_value
                ));
                continue;
            };
            let delta_pct = if base_value != 0.0 {
                100.0 * (cur_value - base_value) / base_value
            } else {
                0.0
            };
            let status = match direction(name) {
                Direction::Informational => "info",
                Direction::HigherBetter if cur_value < base_value * (1.0 - TOLERANCE) => {
                    failures += 1;
                    "REGRESSION"
                }
                Direction::LowerBetter if cur_value > base_value * (1.0 + TOLERANCE) => {
                    failures += 1;
                    "REGRESSION"
                }
                _ => "ok",
            };
            table.push_str(&format!(
                "| {} | {} | {:.4} | {:.4} | {:+.2}% | {} |\n",
                cur.name, name, base_value, cur_value, delta_pct, status
            ));
        }
        // Metrics that disappeared from an experiment still present in the
        // current report would otherwise silently shrink coverage.
        if let Some(base) = base {
            for (name, base_value) in &base.metrics {
                if cur.metric(name).is_none() {
                    failures += 1;
                    table.push_str(&format!(
                        "| {} | {} | {:.4} | — | — | MISSING |\n",
                        cur.name, name, base_value
                    ));
                }
            }
        }
    }
    for base in baseline {
        if !current.iter().any(|c| c.name == base.name) {
            failures += 1;
            table.push_str(&format!("| {} | — | — | — | — | MISSING |\n", base.name));
        }
    }
    (table, failures)
}

fn main() -> ExitCode {
    let args = parse_args();
    let (table, failures) = gate(&load(&args.baseline), &load(&args.current));

    println!("{table}");
    if let Some(path) = &args.summary {
        let mut file =
            std::fs::OpenOptions::new().create(true).append(true).open(path).unwrap_or_else(
                |e| {
                    eprintln!("cannot open summary {path}: {e}");
                    std::process::exit(2);
                },
            );
        writeln!(file, "{table}").expect("write summary");
    }

    if failures > 0 {
        eprintln!("{failures} metric(s) or experiment(s) regressed, failed, or went missing");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(name: &str, metrics: Vec<(String, f64)>) -> ExperimentOutcome {
        ExperimentOutcome { name: name.to_string(), seconds: 1.0, ok: true, metrics }
    }

    fn failures(baseline: &[ExperimentOutcome], current: &[ExperimentOutcome]) -> usize {
        gate(baseline, current).1
    }

    #[test]
    fn failed_experiment_fails() {
        let baseline = vec![outcome("exp-table1", vec![])];
        assert_eq!(failures(&baseline, &baseline), 0);
        let failed = vec![ExperimentOutcome { ok: false, ..outcome("exp-table1", vec![]) }];
        let (table, n) = gate(&baseline, &failed);
        assert_eq!(n, 1);
        assert!(table.contains("| exp-table1 | — | — | — | — | FAILED |"));
    }

    #[test]
    fn experiment_missing_from_current_fails() {
        let baseline = vec![outcome("exp-table1", vec![]), outcome("exp-fig3", vec![])];
        let current = vec![outcome("exp-table1", vec![])];
        let (table, n) = gate(&baseline, &current);
        assert_eq!(n, 1);
        assert!(table.contains("| exp-fig3 | — | — | — | — | MISSING |"));
        // A new experiment with no baseline is reported, not failed.
        assert_eq!(failures(&current, &baseline), 0);
    }

    #[test]
    fn metric_missing_from_current_fails() {
        let baseline = vec![outcome(
            "exp-stream",
            vec![("phi_final".into(), 0.7), ("rho_max".into(), 1.1)],
        )];
        let current = vec![outcome("exp-stream", vec![("phi_final".into(), 0.7)])];
        let (table, n) = gate(&baseline, &current);
        assert_eq!(n, 1);
        assert!(table.contains("| exp-stream | rho_max | 1.1000 | — | — | MISSING |"));
    }

    #[test]
    fn deterministic_phi_drift_gates_at_five_percent() {
        let phi = |v: f64| vec![outcome("exp-stream", vec![("phi_final".into(), v)])];
        let baseline = phi(0.80);
        assert_eq!(failures(&baseline, &phi(0.80)), 0);
        // A 1.7 % drop is inside the gate; a 6 % drop is not.
        assert_eq!(failures(&baseline, &phi(0.80 * (1.0 - 0.017))), 0);
        assert_eq!(failures(&baseline, &phi(0.80 * (1.0 - 0.06))), 1);
        // A rise of phi is an improvement, never a failure.
        assert_eq!(failures(&baseline, &phi(0.90)), 0);
    }

    /// A gating rule that no committed metric matches guards nothing: every
    /// prefix and infix must name at least one metric of the baseline.
    #[test]
    fn every_gating_rule_matches_a_baseline_metric() {
        let baseline =
            parse_report(include_str!("../../../../bench-results/BENCH_BASELINE.json"))
                .expect("committed baseline parses");
        let names: Vec<&str> =
            baseline.iter().flat_map(|e| e.metrics.iter().map(|(n, _)| n.as_str())).collect();
        for prefix in HIGHER_BETTER_PREFIXES.iter().chain(LOWER_BETTER_PREFIXES) {
            assert!(names.iter().any(|n| n.starts_with(prefix)), "no metric for {prefix}*");
        }
        for infix in LOWER_BETTER_INFIXES {
            assert!(names.iter().any(|n| n.contains(infix)), "no metric for *{infix}*");
        }
    }
}
