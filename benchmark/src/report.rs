//! What every workload hands back, and how it is printed.

use crate::names::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{five_numbers, highest_supported_percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Command-line settings shared by all workloads.
#[derive(Debug, Clone)]
pub struct Args {
    /// Drives the generators, the delta stream and `SpinnerConfig::seed`.
    pub seed: u64,
    /// Nominal length of the timed part of the run. Batch workloads turn it
    /// into a fixed op count (so counts repeat exactly for a fixed seed);
    /// `serve_lookup` serves for exactly this long.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Inputs at 1/20 scale: same code paths, checks and output schema.
    pub smoke: bool,
    /// Where the WAL directory and trace files go.
    pub out_dir: PathBuf,
}

impl Args {
    /// `full`, or a twentieth of it (at least `floor`) under `--smoke`.
    pub fn scaled(&self, full: u32, floor: u32) -> u32 {
        if self.smoke {
            (full / 20).max(floor)
        } else {
            full
        }
    }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Ops (and scheduled publishes) attempted in the measured part.
    pub attempted: u64,
    /// Of those, how many failed a check.
    pub failed: u64,
    /// Checks that are not per-op (replica digests, WAL resume) and failed.
    pub errors: Vec<String>,
    /// Sample counts and input sizes, printed beside the metrics.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Notes how many ops were timed, which percentile that many samples
    /// support, and how their durations are distributed.
    pub fn note_timed_ops(&mut self, ms: &[f64]) {
        let supported = highest_supported_percentile(ms.len())
            .map_or("none".to_string(), |p| format!("p{p}"));
        self.notes.push((
            "timed_ops",
            format!("{}; highest percentile with ten samples beyond: {supported}", ms.len()),
        ));
        self.notes.push(("op_ms_min_q1_med_q3_max", five_numbers(ms)));
    }

    /// Records a failed op with its reason (reasons go to stderr at once so a
    /// failing run says why).
    pub fn fail_op(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("op failed: {why}");
    }

    /// Records a failed whole-run check.
    pub fn error(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.errors.push(why);
    }

    /// True when every op and every whole-run check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn table(trace: bool) -> &'static [Metric] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The human-readable block: one `name value unit` line per metric, then
    /// a one-line summary that ends with `"claim": null` — this benchmark
    /// measures, it does not claim.
    pub fn summary(&self, workload: &str, args: &Args) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {workload} seed={} seconds={} trace={} smoke={} threads_available={}",
            args.seed,
            args.seconds,
            args.trace as u8,
            args.smoke,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        );
        for (key, value) in &self.notes {
            let _ = writeln!(out, "   {key}: {value}");
        }
        for (name, unit) in Self::table(args.trace) {
            let _ = writeln!(out, "{name:<40} {:>16.6} {unit}", self.value(name, args.trace));
        }
        let _ = writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {}, \"ops_attempted\": {}, \
             \"ops_failed\": {}, \"correct\": {}, \"claim\": null}}",
            args.seed,
            self.attempted,
            self.failed,
            self.correct()
        );
        out
    }

    fn value(&self, name: &str, trace: bool) -> f64 {
        match self.metrics.get(name) {
            Some(&v) => v,
            // A layer this workload does not drive did no work.
            None if trace => 0.0,
            None => panic!("workload did not report end-to-end metric {name}"),
        }
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, every value with all its digits.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::table(trace)
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.value(name, trace)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// FNV-1a over the labels: two labellings agree iff their digests do (up to
/// hash collisions, which a benchmark check can live with).
pub fn digest(labels: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &l in labels {
        for b in l.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is
/// absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(trace: bool) -> Args {
        Args { seed: 3, seconds: 1.0, trace, smoke: true, out_dir: PathBuf::from("out") }
    }

    #[test]
    fn result_line_carries_exactly_the_table() {
        let mut o = Outcome::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.set(name, 1.5 + i as f64);
        }
        o.attempted = 4;
        let line = o.result_line(false);
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {"
        ));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(o.summary("w", &args(false)).trim_end().ends_with("\"claim\": null}"));
    }

    #[test]
    fn undriven_layers_read_zero_and_failures_flip_correct() {
        let mut o = Outcome::default();
        o.set("pregel.supersteps", 74.0);
        let line = o.result_line(true);
        assert_eq!(line.matches("\"value\"").count(), PER_LAYER.len());
        assert!(line.contains("\"pregel.supersteps\": {\"value\": 74, \"unit\": \"count\"}"));
        assert!(line.contains("\"serving.lookup.ns\": {\"value\": 0, \"unit\": \"ns\"}"));
        o.fail_op("test");
        assert!(o.result_line(true).starts_with("{\"correct\": false"));
    }

    #[test]
    fn digest_separates_labellings() {
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 3, 2]));
        assert_ne!(digest(&[]), digest(&[0]));
    }

    #[test]
    fn smoke_scales_by_twenty_with_a_floor() {
        assert_eq!(args(false).scaled(60_000, 1), 3_000);
        assert_eq!(args(false).scaled(30, 4), 4);
        let mut full = args(false);
        full.smoke = false;
        assert_eq!(full.scaled(60_000, 1), 60_000);
    }
}
