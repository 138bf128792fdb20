//! **Figure 8** — adapting to resource changes on the Tuenti analogue:
//! grow a k = 32 partitioning by n ∈ {1..8} new partitions (Eq. 11) and
//! compare elastic adaptation against re-partitioning from scratch on
//! (a) savings in time and messages, (b) vertices moved.
//!
//! Expected shape (paper): adapting to +1 partition is ~74% faster than
//! re-partitioning and moves <17% of vertices (vs ~96% from scratch);
//! savings shrink as more partitions are added.
//!
//! Emits `phi_ratio_elastic_scratch_<n>`, φ after growing by n over φ from
//! scratch at the same k, so a loss of quality on growth is gated.

use spinner_bench::{
    emit_metric, f2, f3, load_dataset, pct1, savings_pct, scale_from_env, spinner_cfg, Table,
};
use spinner_core::{elastic, partition};
use spinner_graph::Dataset;
use spinner_metrics::partitioning_difference;

fn main() {
    let scale = scale_from_env();
    let old_k = 32u32;
    let g = load_dataset(Dataset::Tuenti, scale);

    eprintln!("initial partitioning at k={old_k}...");
    let initial = partition(&g, &spinner_cfg(old_k, 42));
    eprintln!("initial: phi={:.3} rho={:.3}", initial.quality.phi, initial.quality.rho);

    let mut t =
        Table::new("Figure 8: adapting to new partitions (Tuenti analogue, 32 -> 32+n)")
            .header([
                "new partitions",
                "time saved",
                "msgs saved",
                "moved elastic",
                "moved scratch",
                "phi",
                "rho",
            ]);

    for n in 1..=8u32 {
        let k = old_k + n;
        let cfg = spinner_cfg(k, 42);
        let grown = elastic(&g, &initial.labels, old_k, &cfg);
        let scratch = partition(&g, &cfg.clone().with_seed(4242));

        let time_saved = savings_pct(scratch.wall_ns as f64, grown.wall_ns as f64);
        let msg_saved =
            savings_pct(scratch.totals.messages as f64, grown.totals.messages as f64);
        let moved_elastic = partitioning_difference(&initial.labels, &grown.labels);
        let moved_scratch = partitioning_difference(&initial.labels, &scratch.labels);

        t.row([
            format!("+{n}"),
            pct1(time_saved),
            pct1(msg_saved),
            pct1(100.0 * moved_elastic),
            pct1(100.0 * moved_scratch),
            f2(grown.quality.phi),
            f3(grown.quality.rho),
        ]);
        emit_metric(
            &format!("phi_ratio_elastic_scratch_{n}"),
            grown.quality.phi / scratch.quality.phi,
        );
        eprintln!(
            "+{n}: time saved {time_saved:.1}%, moved {:.1}% vs {:.1}%",
            100.0 * moved_elastic,
            100.0 * moved_scratch
        );
    }
    println!("{t}");
    println!("(paper: +1 partition adapts 74% faster, moving <17% of vertices vs ~96%)");
}
