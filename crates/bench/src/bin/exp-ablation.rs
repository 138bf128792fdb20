//! **Ablations** — the paper's design choices, isolated:
//!
//! 1. Asynchronous per-worker load counters (§IV-A4) on/off → convergence.
//! 2. Directed-aware conversion (Eq. 3) vs naive symmetrisation (Fig. 1) →
//!    locality measured in *messages*.
//! 3. Balance penalty (Eq. 8) on/off → plain LPA's unbalance.
//! 4. Probabilistic migrations (Eq. 14) on/off → capacity violations and
//!    convergence stability.

use spinner_bench::{f2, f3, load_dataset, scale_from_env, spinner_cfg, Table};
use spinner_core::partition;
use spinner_graph::conversion::{to_naive_undirected, to_weighted_undirected};
use spinner_graph::Dataset;

fn main() {
    let scale = scale_from_env();
    let k = 32u32;

    // --- 1. async per-worker counters ---
    let g = load_dataset(Dataset::LiveJournal, scale);
    let mut t1 = Table::new("Ablation 1: asynchronous per-worker load counters (LJ, k=32)")
        .header(["variant", "iterations", "phi", "rho"]);
    for (name, on) in [("async (paper)", true), ("synchronous", false)] {
        let mut cfg = spinner_cfg(k, 42);
        cfg.async_worker_loads = on;
        let r = partition(&g, &cfg);
        t1.row([
            name.to_string(),
            r.iterations.to_string(),
            f2(r.quality.phi),
            f3(r.quality.rho),
        ]);
    }
    println!("{t1}");
    println!("(paper §IV-A4: the async view speeds up convergence)\n");

    // --- 2. Eq. 3 conversion vs naive symmetrisation ---
    let d = Dataset::GooglePlus.build_directed(scale);
    let weighted = to_weighted_undirected(&d);
    let naive = to_naive_undirected(&d);
    let mut t2 = Table::new("Ablation 2: Eq. 3 weights vs naive symmetrisation (G+, k=32)")
        .header(["conversion", "phi (messages)", "rho"]);
    for (name, graph) in [("Eq. 3 weighted", &weighted), ("naive unweighted", &naive)] {
        let r = partition(graph, &spinner_cfg(k, 42));
        // Evaluate locality in MESSAGE terms (on the weighted graph) in both
        // cases — the naive variant optimises the wrong objective.
        let phi_msgs = spinner_metrics::phi(&weighted, &r.labels);
        let rho = spinner_metrics::rho(&weighted, &r.labels, k);
        t2.row([name.to_string(), f2(phi_msgs), f3(rho)]);
    }
    println!("{t2}");
    println!("(paper §III-A/Fig. 1: direction-aware weights cut more message traffic)\n");

    // --- 3 & 4. penalty / probabilistic migrations on skewed graph ---
    let tw = load_dataset(Dataset::Twitter, scale);
    let mut t3 = Table::new("Ablations 3-4: balance machinery on the Twitter analogue (k=32)")
        .header(["variant", "phi", "rho", "iterations"]);
    for (name, penalty, prob) in [
        ("full spinner", true, true),
        ("no balance penalty (plain LPA)", false, true),
        ("migrate-all (no Eq. 14)", true, false),
        ("neither", false, false),
    ] {
        let mut cfg = spinner_cfg(k, 42);
        cfg.balance_penalty = penalty;
        cfg.probabilistic_migration = prob;
        cfg.max_iterations = 60;
        let r = partition(&tw, &cfg);
        t3.row([
            name.to_string(),
            f2(r.quality.phi),
            f3(r.quality.rho),
            r.iterations.to_string(),
        ]);
    }
    println!("{t3}");
    println!("(expected: dropping the penalty or the probabilistic step inflates rho)\n");
}
