//! Command-line Spinner: partition an edge-list file.
//!
//! ```text
//! spinner <edges.txt> --k 32 [--c 1.05] [--seed 1] [--undirected]
//!         [--max-iterations 300] [--output labels.txt]
//! ```
//!
//! The input is a whitespace-separated `src dst` edge list (`#`/`%`
//! comments allowed). Directed inputs go through the paper's Eq. 3
//! conversion; pass `--undirected` when each line already denotes an
//! undirected edge. The output is one `vertex partition` pair per line —
//! the format §V-F feeds into Giraph.
//!
//! Arguments are checked before the input is read: a malformed value, a
//! `--k` outside `1..=MAX_K` or a `--c` that is not a finite number above 1
//! prints the usage and exits 2.

use spinner_core::{partition, SpinnerConfig, MAX_K};
use spinner_graph::conversion::{from_undirected_edges, to_weighted_undirected};
use spinner_graph::io::{read_edge_list_file, write_assignment};
use std::process::ExitCode;

struct Args {
    input: String,
    output: Option<String>,
    k: u32,
    c: f64,
    seed: u64,
    max_iterations: u32,
    undirected: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: spinner <edges.txt> --k <partitions> [--c 1.05] [--seed 1]\n\
         \x20             [--max-iterations 300] [--undirected] [--output labels.txt]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        input: String::new(),
        output: None,
        k: 0,
        c: 1.05,
        seed: 1,
        max_iterations: 300,
        undirected: false,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--k" => args.k = value(&mut it, "--k").parse().unwrap_or_else(|_| usage()),
            "--c" => args.c = value(&mut it, "--c").parse().unwrap_or_else(|_| usage()),
            "--seed" => {
                args.seed = value(&mut it, "--seed").parse().unwrap_or_else(|_| usage())
            }
            "--max-iterations" => {
                args.max_iterations =
                    value(&mut it, "--max-iterations").parse().unwrap_or_else(|_| usage())
            }
            "--output" => args.output = Some(value(&mut it, "--output")),
            "--undirected" => args.undirected = true,
            "--help" | "-h" => usage(),
            other if args.input.is_empty() && !other.starts_with('-') => {
                args.input = other.to_string()
            }
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    if args.input.is_empty() || args.k == 0 {
        usage()
    }
    if args.k > MAX_K {
        eprintln!("--k {} exceeds the largest supported partition count {MAX_K}", args.k);
        usage()
    }
    if !(args.c.is_finite() && args.c > 1.0) {
        eprintln!("--c {} must be a finite number above 1 (Eq. 5)", args.c);
        usage()
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let directed = match read_edge_list_file(&args.input) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error reading {}: {e}", args.input);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "loaded {}: {} vertices, {} edges",
        args.input,
        directed.num_vertices(),
        directed.num_edges()
    );
    let graph = if args.undirected {
        from_undirected_edges(&directed)
    } else {
        to_weighted_undirected(&directed)
    };

    let mut cfg = SpinnerConfig::new(args.k).with_seed(args.seed).with_c(args.c);
    cfg.max_iterations = args.max_iterations;
    let result = partition(&graph, &cfg);
    eprintln!(
        "partitioned into k={}: phi={:.4} rho={:.4} ({} iterations, {:.1}s)",
        args.k,
        result.quality.phi,
        result.quality.rho,
        result.iterations,
        result.wall_ns as f64 * 1e-9
    );

    let write = |w: &mut dyn std::io::Write| write_assignment(&result.labels, w);
    let out = match &args.output {
        Some(path) => std::fs::File::create(path)
            .map_err(spinner_graph::GraphError::from)
            .and_then(|mut f| write(&mut f)),
        None => write(&mut std::io::stdout().lock()),
    };
    if let Err(e) = out {
        eprintln!("error writing output: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
