//! Shared harness utilities for the experiment binaries (`exp-*`).
//!
//! Every table and figure of the paper's evaluation has a dedicated binary
//! in `src/bin/` that regenerates it (the README's Quickstart lists them).
//! Binaries honour two environment variables:
//!
//! - `SPINNER_SCALE` — `tiny` / `small` / `full` (default `full`): dataset
//!   scale. `full` is the calibrated experiment scale; `tiny` is a smoke
//!   run.
//! - `SPINNER_THREADS` — OS threads for the engine, a positive integer
//!   (default: all cores).
//!
//! Any other value of either variable exits the binary with a message that
//! names the variable and the value.

use spinner_core::{PartitionResult, SpinnerConfig};
use spinner_graph::{Dataset, Scale, UndirectedGraph};

pub mod report;

pub use spinner_metrics::Table;

/// Parses a `SPINNER_SCALE` value.
fn parse_scale(value: &str) -> Option<Scale> {
    match value {
        "tiny" => Some(Scale::Tiny),
        "small" => Some(Scale::Small),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

/// Parses a `SPINNER_THREADS` value: a positive integer.
fn parse_threads(value: &str) -> Option<usize> {
    value.parse().ok().filter(|&n| n > 0)
}

/// Reads `name` from the environment through `parse`: `None` when unset,
/// and a process exit (status 2) naming the variable, the value and
/// `expected` when `parse` rejects it.
fn env_or_exit<T>(name: &str, parse: fn(&str) -> Option<T>, expected: &str) -> Option<T> {
    let raw = std::env::var_os(name)?;
    let parsed = raw.to_str().and_then(parse);
    if parsed.is_none() {
        eprintln!("invalid {name}={raw:?}: expected {expected}");
        std::process::exit(2);
    }
    parsed
}

/// Reads the dataset scale from `SPINNER_SCALE` (unset means `full`).
pub fn scale_from_env() -> Scale {
    env_or_exit("SPINNER_SCALE", parse_scale, "tiny, small or full").unwrap_or(Scale::Full)
}

/// Reads the thread count from `SPINNER_THREADS` (unset means all cores).
pub fn threads_from_env() -> usize {
    env_or_exit("SPINNER_THREADS", parse_threads, "a positive integer")
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
}

/// The paper's default Spinner configuration for the experiments
/// (§V-A: c = 1.05, ε = 0.001, w = 5).
pub fn spinner_cfg(k: u32, seed: u64) -> SpinnerConfig {
    let mut cfg = SpinnerConfig::new(k).with_seed(seed);
    cfg.num_threads = threads_from_env();
    cfg.num_workers = 16.max(cfg.num_threads);
    cfg
}

/// Runs Spinner and prints a one-line summary.
pub fn run_spinner(graph: &UndirectedGraph, cfg: &SpinnerConfig) -> PartitionResult {
    let r = spinner_core::partition(graph, cfg);
    eprintln!(
        "  spinner k={:<4} phi={:.3} rho={:.3} iters={} ({} supersteps, {:.1}s)",
        cfg.k,
        r.quality.phi,
        r.quality.rho,
        r.iterations,
        r.supersteps,
        r.wall_ns as f64 * 1e-9
    );
    r
}

/// Builds a dataset's undirected analogue, logging its size.
pub fn load_dataset(d: Dataset, scale: Scale) -> UndirectedGraph {
    let g = d.build_undirected(scale);
    eprintln!(
        "dataset {}: |V|={} |E|={} (total weight {})",
        d.short_name(),
        g.num_vertices(),
        g.num_edges(),
        g.total_weight()
    );
    g
}

/// Emits a machine-readable quality metric on stdout (`METRIC <name>
/// <value>`). `run-all` captures these lines into the JSON report's
/// per-experiment `metrics` object, and `bench-compare` gates φ/ρ
/// regressions on them — so only emit *deterministic* numbers (seeded runs,
/// thread-count-invariant), never wall-clock: print those instead.
pub fn emit_metric(name: &str, value: f64) {
    assert!(
        !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
        "metric names are [A-Za-z0-9_-]+: {name:?}"
    );
    assert!(value.is_finite(), "metric {name} must be finite, got {value}");
    println!("METRIC {name} {value:.6}");
}

/// Percentage savings of `new` relative to `base` (positive = cheaper).
pub fn savings_pct(base: f64, new: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        100.0 * (1.0 - new / base)
    }
}

/// Percentage improvement of `new` over `base` runtime (positive = faster).
pub fn improvement_pct(base: f64, new: f64) -> f64 {
    savings_pct(base, new)
}

/// Formats `x` with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats `x` with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage with 1 decimal.
pub fn pct1(x: f64) -> String {
    format!("{x:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_math() {
        assert_eq!(savings_pct(100.0, 20.0), 80.0);
        assert_eq!(savings_pct(0.0, 5.0), 0.0);
        assert!(savings_pct(50.0, 75.0) < 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(f2(1.057), "1.06");
        assert_eq!(f3(0.8512), "0.851");
        assert_eq!(pct1(86.23), "86.2%");
    }

    #[test]
    fn env_scale_defaults_to_full() {
        // Do not set the var in-process (tests run in parallel); just check
        // the default path.
        if std::env::var_os("SPINNER_SCALE").is_none() {
            assert_eq!(scale_from_env(), Scale::Full);
        }
    }

    #[test]
    fn only_exact_values_parse() {
        assert_eq!(parse_scale("tiny"), Some(Scale::Tiny));
        assert_eq!(parse_scale("small"), Some(Scale::Small));
        assert_eq!(parse_scale("full"), Some(Scale::Full));
        for typo in ["", "Tiny", "tiny ", "smal", "fulll"] {
            assert_eq!(parse_scale(typo), None, "{typo:?}");
        }
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("16"), Some(16));
        for bad in ["", "0", "-2", "four", "2.5", " 4"] {
            assert_eq!(parse_threads(bad), None, "{bad:?}");
        }
    }
}
