//! A sequential multilevel k-way partitioner in the METIS tradition
//! (Karypis & Kumar — reference \[12\] of the paper).
//!
//! Three classic stages:
//!
//! 1. **Coarsening** (`coarsen`): repeated heavy-edge matching contracts
//!    the graph until it is small enough to partition directly.
//! 2. **Initial partitioning** (`initial`): balanced greedy assignment of
//!    the coarsest graph.
//! 3. **Uncoarsening + refinement** (`refine`): the partition is projected
//!    back level by level, with FM-style boundary refinement at each level.
//!
//! Vertex weights default to weighted degree so balance is on *edges*,
//! matching Spinner's objective and the paper's ρ metric (the Wang baseline
//! reuses the machinery with unit vertex weights for vertex balance).
//!
//! This is the "golden standard" comparator of Table I: strongest locality,
//! tight balance, but inherently sequential and offline.

mod coarsen;
mod initial;
mod refine;
mod work_graph;

pub use work_graph::WorkGraph;

use crate::Label;
use spinner_graph::UndirectedGraph;

/// Multilevel partitioner configuration.
#[derive(Debug, Clone)]
pub struct MultilevelConfig {
    /// Number of partitions.
    pub k: u32,
    /// Balance constraint: no partition exceeds `balance · (total/k)` vertex
    /// weight (METIS default ~1.03).
    pub balance: f64,
    /// Stop coarsening when at most `coarsen_to · k` vertices remain (or the
    /// graph stops shrinking).
    pub coarsen_to: usize,
    /// FM refinement passes per level.
    pub refine_passes: u32,
    /// Seed for matching order and tie-breaks.
    pub seed: u64,
    /// Balance vertices instead of edges (used by the Wang-style baseline).
    pub vertex_balance: bool,
}

impl MultilevelConfig {
    /// METIS-flavoured defaults, balancing on edges.
    pub fn new(k: u32) -> Self {
        Self {
            k,
            balance: 1.03,
            coarsen_to: 30,
            refine_passes: 8,
            seed: 1,
            vertex_balance: false,
        }
    }
}

/// Partitions the graph with the full multilevel pipeline.
pub fn multilevel_partition(g: &UndirectedGraph, cfg: &MultilevelConfig) -> Vec<Label> {
    assert!(cfg.k >= 1);
    let base = if cfg.vertex_balance {
        WorkGraph::from_undirected_unit_weights(g)
    } else {
        WorkGraph::from_undirected(g)
    };
    partition_work_graph(base, cfg)
}

/// Partitions an explicit [`WorkGraph`] (entry point for the Wang baseline,
/// which contracts communities first).
pub fn partition_work_graph(base: WorkGraph, cfg: &MultilevelConfig) -> Vec<Label> {
    // Coarsening phase: keep each level's graph plus the fine→coarse map.
    let mut levels: Vec<(WorkGraph, Vec<u32>)> = Vec::new();
    let mut current = base;
    let target = (cfg.coarsen_to * cfg.k as usize).max(32);
    let mut round = 0u64;
    while current.num_vertices() > target {
        let (coarse, map) = coarsen::coarsen_once(&current, cfg.seed ^ round);
        // Stop if the matching barely shrank the graph (few matchable edges).
        if coarse.num_vertices() as f64 > 0.95 * current.num_vertices() as f64 {
            levels.push((current, map.clone()));
            current = coarse;
            break;
        }
        levels.push((current, map));
        current = coarse;
        round += 1;
    }

    // Initial partitioning of the coarsest level.
    let mut labels = initial::initial_partition(&current, cfg);
    refine::refine(&current, &mut labels, cfg);

    // Uncoarsening: project and refine level by level.
    while let Some((fine, map)) = levels.pop() {
        let mut fine_labels = vec![0 as Label; fine.num_vertices()];
        for (v, l) in fine_labels.iter_mut().enumerate() {
            *l = labels[map[v] as usize];
        }
        labels = fine_labels;
        refine::refine(&fine, &mut labels, cfg);
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_graph::conversion::to_weighted_undirected;
    use spinner_graph::generators::{planted_partition, SbmConfig};

    fn community_graph(n: u32, communities: u32) -> UndirectedGraph {
        to_weighted_undirected(&planted_partition(SbmConfig {
            n,
            communities,
            internal_degree: 8.0,
            external_degree: 1.0,
            skew: None,
            seed: 8,
        }))
    }

    #[test]
    fn strong_locality_and_balance_on_community_graph() {
        let g = community_graph(4000, 8);
        let labels = multilevel_partition(&g, &MultilevelConfig::new(8));
        let phi = spinner_metrics::phi(&g, &labels);
        let rho = spinner_metrics::rho(&g, &labels, 8);
        assert!(phi > 0.75, "phi {phi}");
        assert!(rho < 1.10, "rho {rho}");
    }

    #[test]
    fn beats_streaming_baselines_on_locality() {
        let g = community_graph(3000, 6);
        let ml = multilevel_partition(&g, &MultilevelConfig::new(6));
        let ldg = crate::ldg_partition(&g, &crate::LdgConfig::new(6));
        let phi_ml = spinner_metrics::phi(&g, &ml);
        let phi_ldg = spinner_metrics::phi(&g, &ldg);
        assert!(phi_ml >= phi_ldg - 0.02, "ml {phi_ml} vs ldg {phi_ldg}");
    }

    #[test]
    fn handles_small_graphs_without_coarsening() {
        let g = community_graph(300, 2);
        let labels = multilevel_partition(&g, &MultilevelConfig::new(2));
        assert!(labels.iter().all(|&l| l < 2));
        let rho = spinner_metrics::rho(&g, &labels, 2);
        assert!(rho < 1.2, "rho {rho}");
    }

    #[test]
    fn k_one_trivial() {
        let g = community_graph(200, 2);
        let labels = multilevel_partition(&g, &MultilevelConfig::new(1));
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn deterministic() {
        let g = community_graph(1000, 4);
        let cfg = MultilevelConfig::new(4);
        assert_eq!(multilevel_partition(&g, &cfg), multilevel_partition(&g, &cfg));
    }
}
