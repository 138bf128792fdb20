//! `spinner-benchmark --workload W [--seed N] [--seconds S] [--trace [0|1]]
//! [--smoke] [--out DIR]`: runs one workload in this process and prints its
//! metrics by name, ending with the one-line result the driver reads.

use spinner_benchmark::names::WORKLOADS;
use spinner_benchmark::report::Args;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!(
        "usage: spinner-benchmark --workload <{}> [--seed N] [--seconds S] [--trace [0|1]] \
         [--smoke] [--out DIR]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = Args {
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut workload = None;
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        let parsed = match flag.as_str() {
            "--workload" => value("a name").map(|v| workload = Some(v)),
            "--seed" => value("a number").and_then(|v| {
                v.parse().map(|n| args.seed = n).map_err(|e| format!("--seed {v}: {e}"))
            }),
            "--seconds" => value("a number").and_then(|v| match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => {
                    args.seconds = s;
                    Ok(())
                }
                _ => Err(format!("--seconds {v}: not a positive number")),
            }),
            "--out" => value("a directory").map(|v| args.out_dir = PathBuf::from(v)),
            "--smoke" => {
                args.smoke = true;
                Ok(())
            }
            "--trace" => {
                // Alone, or followed by 0 or 1.
                args.trace = argv.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1");
                Ok(())
            }
            other => Err(format!("unknown argument {other}")),
        };
        if let Err(problem) = parsed {
            return usage(&problem);
        }
    }
    let Some(workload) = workload else { return usage("--workload is required") };
    let Some(outcome) = spinner_benchmark::run_workload(&workload, &args) else {
        return usage(&format!("unknown workload {workload}"));
    };
    print!("{}", outcome.summary(&workload, &args));
    println!("{}", outcome.result_line(args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
