//! **Figure 6** — scalability on Watts-Strogatz graphs (the paper's §V-B
//! setting: out-degree 40, β = 0.3): first-iteration runtime as a function
//! of (a) graph size, (b) worker/thread count, (c) number of partitions.
//!
//! The paper runs 2M–1B vertices on a 116-node cluster; we sweep scaled-down
//! sizes on one machine. Expected shapes: (a) linear in |V| (loglog slope
//! ≈ 1), (b) near-linear speedup with workers, (c) runtime grows with k.

use spinner_bench::{scale_from_env, spinner_cfg, threads_from_env, Table};
use spinner_core::driver::{random_labels, stages};
use spinner_core::SpinnerConfig;
use spinner_graph::generators::watts_strogatz;
use spinner_graph::{conversion, Scale, UndirectedGraph};

/// Wall time of the first LPA iteration (the paper's §V-B metric: the
/// ComputeScores + ComputeMigrations pair, where every vertex is notified by
/// all neighbours — the most deterministic and expensive iteration).
fn first_iteration_seconds(g: &UndirectedGraph, cfg: &SpinnerConfig) -> f64 {
    let mut cfg = cfg.clone();
    cfg.max_iterations = 1;
    cfg.ignore_halting = true;
    let n = g.num_vertices();
    let labels = random_labels(n, cfg.k, cfg.seed);
    let mut engine = stages::build_engine(g, &cfg, &stages::placement(n, &cfg), &labels);
    // The run starts seeded at ComputeScores: its first two supersteps are
    // the pair, then one more scores superstep reaches the halt check.
    let summary = engine.run();
    summary.metrics.iter().take(2).map(|s| s.wall_ns).sum::<u64>() as f64 * 1e-9
}

fn ws_graph(n: u32, seed: u64) -> UndirectedGraph {
    conversion::to_weighted_undirected(&watts_strogatz(n, 40, 0.3, seed))
}

fn main() {
    let scale = scale_from_env();
    let (sizes, fixed_n): (&[u32], u32) = match scale {
        Scale::Tiny => (&[1 << 12, 1 << 13, 1 << 14], 1 << 13),
        Scale::Small => (&[1 << 14, 1 << 15, 1 << 16, 1 << 17], 1 << 16),
        Scale::Full => (&[1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20], 1 << 18),
    };

    // (a) Runtime vs graph size (k = 64, like the paper).
    let mut ta = Table::new("Figure 6a: first-iteration runtime vs graph size (k=64, deg 40)")
        .header(["vertices", "edges(dir)", "runtime (s)"]);
    let mut prev: Option<(f64, f64)> = None;
    let mut slopes = Vec::new();
    for &n in sizes {
        let g = ws_graph(n, 7);
        let secs = first_iteration_seconds(&g, &spinner_cfg(64, 42));
        // Small graphs measure engine overhead, not scaling (the paper notes
        // the same for its first data points); fit the slope on the large
        // half only.
        if n >= fixed_n {
            if let Some((pn, ps)) = prev {
                slopes.push((secs / ps).log2() / (n as f64 / pn).log2());
            }
            prev = Some((n as f64, secs));
        }
        ta.row([n.to_string(), (g.total_weight() / 2).to_string(), format!("{secs:.3}")]);
        eprintln!("6a: n={n} {secs:.3}s");
    }
    println!("{ta}");
    if !slopes.is_empty() {
        let mean_slope = slopes.iter().sum::<f64>() / slopes.len() as f64;
        println!(
            "loglog slope over the large sizes: {mean_slope:.2} (paper: ~1.0, linear scaling)\n"
        );
    }

    // (b) Runtime vs thread count (the machine analogue of cluster workers).
    let g = ws_graph(fixed_n, 7);
    let max_threads = threads_from_env();
    let mut tb = Table::new(format!(
        "Figure 6b: first-iteration runtime vs threads (n={fixed_n}, k=64)"
    ))
    .header(["threads", "runtime (s)", "speedup"]);
    let mut base = None;
    let mut threads = 1usize;
    while threads <= max_threads {
        let mut cfg = spinner_cfg(64, 42);
        cfg.num_threads = threads;
        cfg.num_workers = cfg.num_workers.max(max_threads);
        let secs = first_iteration_seconds(&g, &cfg);
        let b = *base.get_or_insert(secs);
        tb.row([threads.to_string(), format!("{secs:.3}"), format!("{:.1}x", b / secs)]);
        eprintln!("6b: threads={threads} {secs:.3}s");
        threads *= 2;
    }
    println!("{tb}");
    println!("(paper: 7.6x speedup from 7.6x more workers)\n");

    // (c) Runtime vs number of partitions, in both candidate-scan modes:
    // the exhaustive O(k)-per-vertex scan the paper describes, and our
    // optimised scan whose cost is O(deg) amortised.
    let mut tc = Table::new(format!("Figure 6c: first-iteration runtime vs k (n={fixed_n})"))
        .header(["k", "paper O(k) scan (s)", "optimized scan (s)"]);
    for k in [2u32, 8, 32, 128, 512] {
        let mut exhaustive_cfg = spinner_cfg(k, 42);
        exhaustive_cfg.exhaustive_candidate_scan = true;
        let secs_ex = first_iteration_seconds(&g, &exhaustive_cfg);
        let secs_opt = first_iteration_seconds(&g, &spinner_cfg(k, 42));
        tc.row([k.to_string(), format!("{secs_ex:.3}"), format!("{secs_opt:.3}")]);
        eprintln!("6c: k={k} exhaustive {secs_ex:.3}s optimized {secs_opt:.3}s");
    }
    println!("{tc}");
    println!("(paper: near-linear growth with k — reproduced by the exhaustive scan;");
    println!(" the optimized scan removes the O(k) term, an improvement over the paper)");
}
