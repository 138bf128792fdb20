//! Runs every experiment binary in sequence (the full paper reproduction).
//!
//! ```text
//! run-all [--smoke] [--json <path>]
//! ```
//!
//! - `--smoke`: run the tiny-scale smoke suite (forces `SPINNER_SCALE=tiny`
//!   for every child), finishing in seconds. CI runs this on each PR and
//!   uploads the JSON report as a workflow artifact.
//! - `--json <path>`: write a machine-readable report of the run (see
//!   `spinner_bench::report`). Defaults to `bench-out/BENCH_SMOKE.json` in
//!   smoke mode; omitted otherwise unless requested.
//!
//! `SPINNER_SCALE=tiny cargo run --release --bin run-all` remains the
//! manual equivalent; the default (full) scale regenerates the paper's
//! tables and figures.

use spinner_bench::report::{render_report, ExperimentOutcome};
use spinner_bench::scale_from_env;
use spinner_graph::Scale;
use std::io::BufRead;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "exp-table1",
    "exp-fig3",
    "exp-fig4",
    "exp-fig5",
    "exp-fig6",
    "exp-fig7",
    "exp-fig8",
    "exp-fig9",
    "exp-table4",
    "exp-ablation",
    "exp-theory",
    "exp-stream",
];

struct Args {
    smoke: bool,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args { smoke: false, json: None };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--json" => match it.next() {
                Some(path) => args.json = Some(path),
                None => {
                    eprintln!("missing value for --json");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: run-all [--smoke] [--json <path>]");
                std::process::exit(2);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if args.smoke && args.json.is_none() {
        args.json = Some("bench-out/BENCH_SMOKE.json".to_string());
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    // Children read SPINNER_SCALE themselves; in smoke mode force tiny so a
    // stray environment setting cannot turn CI into a multi-hour run.
    // Otherwise the scale is validated here, before any child starts.
    let scale = if args.smoke {
        "tiny"
    } else {
        match scale_from_env() {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    };

    let exe = std::env::current_exe().expect("current exe path");
    let dir = exe.parent().expect("exe dir");
    let mut outcomes = Vec::new();
    for name in EXPERIMENTS {
        println!("\n################ {name} ################\n");
        let mut cmd = Command::new(dir.join(name));
        if args.smoke {
            cmd.env("SPINNER_SCALE", "tiny");
        }
        // Pipe stdout through so `METRIC <name> <value>` lines (see
        // `spinner_bench::emit_metric`) can be captured into the report
        // while everything still reaches the console. Stderr stays
        // inherited (progress logging).
        cmd.stdout(Stdio::piped());
        let start = Instant::now();
        let mut child = cmd.spawn().unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        let mut metrics: Vec<(String, f64)> = Vec::new();
        let stdout = child.stdout.take().expect("piped child stdout");
        for line in std::io::BufReader::new(stdout).lines() {
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    // Surface decode/read errors instead of silently
                    // dropping whatever METRIC lines they may have carried.
                    eprintln!("warning: unreadable stdout line from {name}: {e}");
                    continue;
                }
            };
            if let Some((metric_name, value)) = line
                .strip_prefix("METRIC ")
                .and_then(|rest| rest.split_once(' '))
                .and_then(|(n, v)| v.trim().parse::<f64>().ok().map(|v| (n, v)))
            {
                metrics.push((metric_name.to_string(), value));
            }
            println!("{line}");
        }
        let status = child.wait().unwrap_or_else(|e| panic!("failed to wait on {name}: {e}"));
        let seconds = start.elapsed().as_secs_f64();
        if !status.success() {
            eprintln!("{name} FAILED with {status}");
        }
        outcomes.push(ExperimentOutcome {
            name: name.to_string(),
            ok: status.success(),
            seconds,
            metrics,
        });
    }

    if let Some(path) = &args.json {
        let suite = if args.smoke { "smoke" } else { "full" };
        let report = render_report(suite, scale, &outcomes);
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create report directory");
            }
        }
        std::fs::write(path, report).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote report to {path}");
    }

    let failed: Vec<&str> =
        outcomes.iter().filter(|o| !o.ok).map(|o| o.name.as_str()).collect();
    if failed.is_empty() {
        println!("\nall {} experiments completed", EXPERIMENTS.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("\nfailed experiments: {failed:?}");
        ExitCode::FAILURE
    }
}
