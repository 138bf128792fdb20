//! High-level Spinner API: partition from scratch, adapt to graph changes,
//! and adapt to partition-count changes. Each entry point picks its initial
//! labels and runs the shared [`stages`].

pub mod stages;

#[cfg(test)]
mod reference_tests;

use crate::config::SpinnerConfig;
use crate::state::{Label, NO_LABEL};
use spinner_graph::conversion::to_weighted_undirected;
use spinner_graph::rng::{vertex_stream, SplitMix64};
use spinner_graph::{DirectedGraph, UndirectedGraph, VertexId};
use spinner_metrics::PartitionQuality;
use spinner_pregel::metrics::RunTotals;
use spinner_pregel::Placement;

/// Per-iteration metrics (the curves of Fig. 4). φ/ρ/score are measured at
/// the ComputeScores superstep and therefore describe the state *entering*
/// the iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// LPA iteration (0-based).
    pub iteration: u32,
    /// Ratio of local edges φ.
    pub phi: f64,
    /// Maximum normalized load ρ.
    pub rho: f64,
    /// Global score(G) (Eq. 10).
    pub score: f64,
    /// Vertices that migrated in this iteration's ComputeMigrations step.
    pub migrations: u64,
}

/// The outcome of a Spinner run.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// Final label per vertex.
    pub labels: Vec<Label>,
    /// Number of partitions.
    pub k: u32,
    /// Exact final quality (recomputed from the labels, not the aggregators).
    pub quality: PartitionQuality,
    /// Per-iteration history.
    pub history: Vec<IterationStats>,
    /// LPA iterations executed.
    pub iterations: u32,
    /// Pregel supersteps executed, including initialisation (and the
    /// conversion run of [`partition_directed`]'s in-engine path).
    pub supersteps: u64,
    /// True when the ε/w steady-state heuristic triggered the halt.
    pub halted_steady: bool,
    /// Engine traffic/compute totals (messages are the network-cost proxy
    /// used by Figs. 7–8), over the same supersteps.
    pub totals: RunTotals,
    /// Wall-clock nanoseconds of those supersteps' runs.
    pub wall_ns: u64,
}

/// Partitions a weighted undirected graph from scratch with random initial
/// labels (§III-A).
pub fn partition(graph: &UndirectedGraph, cfg: &SpinnerConfig) -> PartitionResult {
    let labels = random_labels(graph.num_vertices(), cfg.k, cfg.seed);
    run_placed(graph, cfg, &stages::placement(graph.num_vertices(), cfg), &labels)
}

/// Like [`partition`], but hosting the computation on an explicit
/// vertex → worker [`Placement`] instead of the default hash placement
/// (`cfg.num_workers` is ignored in favour of the placement's worker
/// count). With the asynchronous per-worker load view disabled
/// (`cfg.async_worker_loads = false`) the result — labels, history, and
/// iteration counts — is bit-identical across *any* placement; the async
/// view is worker-topology-dependent by design (§IV-A4).
pub fn partition_with_placement(
    graph: &UndirectedGraph,
    cfg: &SpinnerConfig,
    placement: &Placement,
) -> PartitionResult {
    assert_eq!(
        placement.num_vertices(),
        graph.num_vertices(),
        "placement must cover the graph's vertex set"
    );
    let labels = random_labels(graph.num_vertices(), cfg.k, cfg.seed);
    run_placed(graph, cfg, placement, &labels)
}

/// Partitions a directed graph: converts it to the weighted undirected form
/// of Eq. 3 first — offline by default, or with the paper's two conversion
/// supersteps, a Pregel run of their own, when `cfg.in_engine_conversion`
/// is set (§IV-A1) — and partitions that graph. Both paths produce
/// identical partitionings; the in-engine path's supersteps, totals and
/// wall time cover the conversion run too.
pub fn partition_directed(graph: &DirectedGraph, cfg: &SpinnerConfig) -> PartitionResult {
    if !cfg.in_engine_conversion {
        return partition(&to_weighted_undirected(graph), cfg);
    }
    let (undirected, mut summary) = crate::conversion::convert_in_engine(graph, cfg);
    let n = undirected.num_vertices();
    let labels = random_labels(n, cfg.k, cfg.seed);
    let mut engine =
        stages::build_engine(&undirected, cfg, &stages::placement(n, cfg), &labels);
    let run = engine.run();
    // One summary over both runs, halting as the Spinner run did.
    summary.supersteps += run.supersteps;
    summary.wall_ns += run.wall_ns;
    summary.metrics.extend(run.metrics);
    summary.halt = run.halt;
    stages::collect(cfg, &engine, &summary, &undirected)
}

/// Adapts a previous partitioning to a changed graph (§III-D, incremental
/// label propagation). `previous` may cover fewer vertices than `graph`
/// (new vertices appended at the end); new vertices start in the least
/// loaded partition, then every vertex participates in migration.
pub fn adapt(
    graph: &UndirectedGraph,
    previous: &[Label],
    cfg: &SpinnerConfig,
) -> PartitionResult {
    assert!(
        previous.len() <= graph.num_vertices() as usize,
        "previous labelling covers more vertices than the graph has"
    );
    let n = graph.num_vertices();
    let labels = least_loaded_labels(graph, previous, &[], cfg.k);
    run_placed(graph, cfg, &stages::placement(n, cfg), &labels)
}

/// Adapts a previous `old_k`-way partitioning to `cfg.k` partitions
/// (§III-E, elastic label propagation): when adding `n = cfg.k - old_k`
/// partitions, each vertex moves to a random new partition with probability
/// `n/(k+n)` (Eq. 11); when removing, vertices of removed partitions
/// redistribute uniformly.
pub fn elastic(
    graph: &UndirectedGraph,
    previous: &[Label],
    old_k: u32,
    cfg: &SpinnerConfig,
) -> PartitionResult {
    assert_eq!(previous.len(), graph.num_vertices() as usize);
    let labels = elastic_labels(previous, old_k, cfg.k, cfg.seed);
    run_placed(graph, cfg, &stages::placement(graph.num_vertices(), cfg), &labels)
}

/// Random initial labels (scratch initialisation).
pub fn random_labels(n: VertexId, k: u32, seed: u64) -> Vec<Label> {
    (0..n)
        .map(|v| vertex_stream(seed, v as u64, 0x1417).next_bounded(k as u64) as Label)
        .collect()
}

/// Least-loaded reseed, the initialisation of incremental (§III-D) and
/// failure-recovery windows: a vertex keeps its `previous` label unless it
/// has none (it was appended) or is flagged in `reseed` (its worker lost
/// its state). Partition loads are summed over the kept vertices; then each
/// reseeded vertex, in id order, joins the least-loaded partition at that
/// point. Recovery thus starts balanced and deterministic, and LPA only has
/// to repair locality. The running minimum lives in a binary heap keyed
/// `(load, label)` — smallest load, then smallest label, as a min-scan
/// would pick — so each reseeded vertex costs O(log k), not O(k).
pub(crate) fn least_loaded_labels(
    graph: &UndirectedGraph,
    previous: &[Label],
    reseed: &[bool],
    k: u32,
) -> Vec<Label> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = graph.num_vertices() as usize;
    let fresh = |v: usize| v >= previous.len() || reseed.get(v).copied().unwrap_or(false);
    let mut loads = vec![0i64; k as usize];
    for (v, &l) in previous.iter().enumerate() {
        assert!(l < k, "previous label {l} out of range for k={k}");
        if !fresh(v) {
            loads[l as usize] += graph.weighted_degree(v as VertexId) as i64;
        }
    }
    let mut heap: BinaryHeap<Reverse<(i64, Label)>> =
        (0..k).map(|l| Reverse((loads[l as usize], l))).collect();
    let mut labels = previous.to_vec();
    labels.resize(n, NO_LABEL);
    for v in (0..n).filter(|&v| fresh(v)) {
        let Reverse((load, least)) = heap.pop().expect("k >= 1 labels");
        labels[v] = least;
        heap.push(Reverse((load + graph.weighted_degree(v as VertexId) as i64, least)));
    }
    labels
}

/// Elastic initialisation (§III-E / Eq. 11).
pub(crate) fn elastic_labels(
    previous: &[Label],
    old_k: u32,
    new_k: u32,
    seed: u64,
) -> Vec<Label> {
    assert!(old_k >= 1 && new_k >= 1);
    previous
        .iter()
        .enumerate()
        .map(|(v, &l)| {
            assert!(l < old_k, "previous label {l} out of range for old_k={old_k}");
            let mut rng: SplitMix64 = vertex_stream(seed, v as u64, 0xE1A5);
            if new_k > old_k {
                let n_new = (new_k - old_k) as u64;
                // Migrate with p = n/(k+n) to a uniformly random new
                // partition.
                if rng.next_f64() < n_new as f64 / new_k as f64 {
                    old_k + rng.next_bounded(n_new) as Label
                } else {
                    l
                }
            } else if l >= new_k {
                // Partition removed: choose uniformly among the remaining.
                rng.next_bounded(new_k as u64) as Label
            } else {
                l
            }
        })
        .collect()
}

/// The tail of every one-shot undirected run: build the engine on
/// `placement`, run it, read the result out.
fn run_placed(
    graph: &UndirectedGraph,
    cfg: &SpinnerConfig,
    placement: &Placement,
    labels: &[Label],
) -> PartitionResult {
    let mut engine = stages::build_engine(graph, cfg, placement, labels);
    let summary = engine.run();
    stages::collect(cfg, &engine, &summary, graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_graph::conversion::from_undirected_edges;
    use spinner_graph::generators::{planted_partition, SbmConfig};
    use spinner_pregel::{HaltReason, TransportKind};

    fn community_graph(n: u32, communities: u32, seed: u64) -> UndirectedGraph {
        to_weighted_undirected(&planted_partition(SbmConfig {
            n,
            communities,
            internal_degree: 8.0,
            external_degree: 1.5,
            skew: None,
            seed,
        }))
    }

    fn small_cfg(k: u32) -> SpinnerConfig {
        let mut cfg = SpinnerConfig::new(k);
        cfg.num_workers = 4;
        cfg.max_iterations = 60;
        cfg
    }

    #[test]
    fn recovers_locality_on_community_graph() {
        let g = community_graph(4000, 8, 3);
        let r = partition(&g, &small_cfg(8));
        assert!(r.quality.phi > 0.65, "phi {}", r.quality.phi);
        assert!(r.quality.rho < 1.15, "rho {}", r.quality.rho);
        assert!(r.iterations >= 5);
        // History φ must (weakly) trend upward from random (~1/k).
        let first = r.history.first().unwrap().phi;
        let last_phi = r.history.last().unwrap().phi;
        assert!(last_phi > first + 0.2, "phi {first} -> {last_phi}");
    }

    #[test]
    fn respects_capacity_bound() {
        let g = community_graph(3000, 6, 5);
        let cfg = small_cfg(6).with_c(1.10);
        let r = partition(&g, &cfg);
        // ρ ≤ c with high probability (§V-A1); allow slack for the
        // bounded-probability overshoot.
        assert!(r.quality.rho <= 1.10 + 0.05, "rho {}", r.quality.rho);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = community_graph(1500, 4, 7);
        let mut cfg1 = small_cfg(4);
        cfg1.num_threads = 1;
        let mut cfg8 = small_cfg(4);
        cfg8.num_threads = 8;
        let r1 = partition(&g, &cfg1);
        let r8 = partition(&g, &cfg8);
        assert_eq!(r1.labels, r8.labels);
        assert_eq!(r1.history.len(), r8.history.len());
    }

    #[test]
    fn k_equals_one_is_trivially_perfect() {
        let g = community_graph(500, 2, 9);
        let r = partition(&g, &small_cfg(1));
        assert!(r.labels.iter().all(|&l| l == 0));
        assert!((r.quality.phi - 1.0).abs() < 1e-9);
        assert!((r.quality.rho - 1.0).abs() < 1e-9);
    }

    #[test]
    fn in_engine_conversion_matches_offline() {
        let d = planted_partition(SbmConfig {
            n: 800,
            communities: 4,
            internal_degree: 6.0,
            external_degree: 1.0,
            skew: None,
            seed: 11,
        });
        let mut cfg = small_cfg(4);
        cfg.max_iterations = 20;
        cfg.ignore_halting = true;
        let offline = partition_directed(&d, &cfg);
        cfg.in_engine_conversion = true;
        let in_engine = partition_directed(&d, &cfg);
        assert_eq!(offline.labels, in_engine.labels);
        assert_eq!(offline.history.len(), in_engine.history.len());
        for (a, b) in offline.history.iter().zip(&in_engine.history) {
            assert!((a.phi - b.phi).abs() < 1e-12);
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    /// Every edge has its reverse, so the conversion weighs every edge 2,
    /// and the Spinner run's broadcasts must be stamped with those weights.
    #[test]
    fn in_engine_conversion_matches_offline_on_a_fully_reciprocal_graph() {
        let one_way = planted_partition(SbmConfig {
            n: 600,
            communities: 4,
            internal_degree: 5.0,
            external_degree: 1.0,
            skew: None,
            seed: 13,
        });
        let d = spinner_graph::GraphBuilder::new(one_way.num_vertices())
            .add_edges(one_way.edges().flat_map(|(u, v)| [(u, v), (v, u)]))
            .build();
        assert!(d.edges().all(|(u, v)| d.has_edge(v, u)));
        let mut cfg = small_cfg(4);
        cfg.max_iterations = 15;
        cfg.ignore_halting = true;
        let offline = partition_directed(&d, &cfg);
        cfg.in_engine_conversion = true;
        let in_engine = partition_directed(&d, &cfg);
        assert_eq!(offline.labels, in_engine.labels);
        assert_eq!(offline.history, in_engine.history);
    }

    /// The in-engine path reports the offline run's quality, φ counted on
    /// the final labels, and costs the offline run plus the conversion's 2
    /// supersteps, one message per directed edge and one computation per
    /// vertex in each of them; its wall time covers both runs. Both
    /// runs broadcast through the lane, which keeps remote records at
    /// 2 407.
    #[test]
    fn in_engine_conversion_adds_two_supersteps_and_one_message_per_edge() {
        let d = planted_partition(SbmConfig {
            n: 800,
            communities: 4,
            internal_degree: 6.0,
            external_degree: 1.0,
            skew: None,
            seed: 11,
        });
        let mut cfg = small_cfg(4);
        cfg.max_iterations = 3;
        cfg.ignore_halting = true;
        let offline = partition_directed(&d, &cfg);
        cfg.in_engine_conversion = true;
        let in_engine = partition_directed(&d, &cfg);
        assert_eq!(offline.labels, in_engine.labels);
        assert_eq!(offline.quality.phi.to_bits(), in_engine.quality.phi.to_bits());
        assert_eq!(in_engine.supersteps, offline.supersteps + 2);
        assert_eq!(in_engine.totals.messages, offline.totals.messages + d.num_edges());
        assert_eq!(in_engine.totals.computed, offline.totals.computed + 2 * 800);
        assert_eq!((in_engine.supersteps, in_engine.totals.messages), (9, 7_024));
        assert_eq!(in_engine.totals.remote_records, 2_407);
        // `totals.wall_ns` sums the wall time of every superstep of both
        // runs; each run's wall time covers its own supersteps.
        assert!(in_engine.wall_ns >= in_engine.totals.wall_ns);
    }

    /// The histogram recount holds at every stopping point: runs stopped
    /// after 1..=8 iterations on both transports, with the broadcast lane
    /// on and off. The graph mixes weight-1 and weight-2 edges, so a wrong
    /// stamp shows as a wrong histogram weight.
    #[test]
    fn histograms_recount_from_final_labels_at_every_stop() {
        let one_way = planted_partition(SbmConfig {
            n: 500,
            communities: 5,
            internal_degree: 6.0,
            external_degree: 1.5,
            skew: None,
            seed: 17,
        });
        let d = spinner_graph::GraphBuilder::new(one_way.num_vertices())
            .add_edges(one_way.edges().flat_map(|(u, v)| {
                let back = (u + v) % 3 == 0;
                [(u, v)].into_iter().chain(back.then_some((v, u)))
            }))
            .build();
        let g = to_weighted_undirected(&d);
        let weights: Vec<u8> =
            (0..g.num_vertices()).flat_map(|v| g.neighbors(v).1.to_vec()).collect();
        assert!(weights.contains(&1) && weights.contains(&2));
        for iterations in 1..=8 {
            let mut base = small_cfg(5);
            base.max_iterations = iterations;
            base.ignore_halting = true;
            let mut arms = Vec::new();
            for transport in [TransportKind::Direct, TransportKind::Ring] {
                for lane in [true, false] {
                    arms.push(
                        base.clone().with_transport(transport).with_broadcast_fabric(lane),
                    );
                }
            }
            let placement = stages::placement(g.num_vertices(), &base);
            let labels = random_labels(g.num_vertices(), base.k, base.seed);
            for cfg in &arms {
                let mut engine = stages::build_engine(&g, cfg, &placement, &labels);
                assert_eq!(engine.run().halt, HaltReason::Master);
                let checked = crate::program::recount_histograms(&engine);
                assert_eq!(checked, Ok(()), "{iterations} iterations, {cfg:?}");
            }
        }
    }

    #[test]
    fn adapt_moves_few_vertices() {
        let base = planted_partition(SbmConfig {
            n: 3000,
            communities: 6,
            internal_degree: 8.0,
            external_degree: 1.0,
            skew: None,
            seed: 13,
        });
        let g = to_weighted_undirected(&base);
        let cfg = small_cfg(6);
        let initial = partition(&g, &cfg);

        // Add 1% new edges and adapt.
        let new_edges = spinner_graph::mutation::sample_new_edges(&base, 240, 0.8, 17);
        let changed = spinner_graph::mutation::apply_delta(
            &base,
            &spinner_graph::GraphDelta::additions(new_edges),
        );
        let g2 = to_weighted_undirected(&changed);
        let adapted = adapt(&g2, &initial.labels, &cfg);
        let scratch = partition(&g2, &cfg.clone().with_seed(99));

        let d_adapt =
            spinner_metrics::partitioning_difference(&initial.labels, &adapted.labels);
        let d_scratch =
            spinner_metrics::partitioning_difference(&initial.labels, &scratch.labels);
        assert!(d_adapt < 0.35, "adaptive moved {d_adapt}");
        assert!(d_adapt < d_scratch, "adapt {d_adapt} vs scratch {d_scratch}");
        assert!(adapted.quality.phi > 0.6);
        // Adaptation converges in fewer iterations than repartitioning.
        assert!(adapted.iterations <= scratch.iterations);
    }

    #[test]
    fn elastic_grows_partitions() {
        let g = community_graph(2000, 8, 19);
        let cfg8 = small_cfg(8);
        let base = partition(&g, &cfg8);
        let cfg10 = small_cfg(10);
        let grown = elastic(&g, &base.labels, 8, &cfg10);
        assert_eq!(grown.k, 10);
        // All ten partitions must end up populated.
        assert!(grown.quality.loads.iter().all(|&l| l > 0));
        assert!(grown.quality.rho < 1.25, "rho {}", grown.quality.rho);
        let moved = spinner_metrics::partitioning_difference(&base.labels, &grown.labels);
        assert!(moved < 0.6, "moved {moved}");
    }

    #[test]
    fn elastic_shrinks_partitions() {
        let g = community_graph(2000, 8, 23);
        let base = partition(&g, &small_cfg(8));
        let shrunk = elastic(&g, &base.labels, 8, &small_cfg(6));
        assert_eq!(shrunk.k, 6);
        assert!(shrunk.labels.iter().all(|&l| l < 6));
        assert!(shrunk.quality.loads.iter().all(|&l| l > 0));
    }

    #[test]
    fn incremental_labels_fill_least_loaded() {
        let g = from_undirected_edges(
            &spinner_graph::GraphBuilder::new(4)
                .add_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
                .build(),
        );
        // Vertices 0,1 labelled 0; vertices 2,3 are new.
        let labels = least_loaded_labels(&g, &[0, 0], &[], 2);
        assert_eq!(labels[2], 1);
        assert_eq!(labels[3], 1);
    }

    #[test]
    fn incremental_labels_heap_matches_naive_min_scan() {
        // The heap must reproduce the former O(k)-scan assignment exactly,
        // including its (smallest load, then smallest label) tie-break.
        let g = community_graph(1200, 5, 21);
        let k = 7u32;
        let previous: Vec<Label> = (0..500u32).map(|v| v % k).collect();
        let fast = least_loaded_labels(&g, &previous, &[], k);

        let mut loads = vec![0i64; k as usize];
        let mut naive: Vec<Label> = Vec::new();
        for (v, &l) in previous.iter().enumerate() {
            loads[l as usize] += g.weighted_degree(v as VertexId) as i64;
            naive.push(l);
        }
        for v in previous.len()..g.num_vertices() as usize {
            let least = (0..k as usize).min_by_key(|&l| loads[l]).unwrap() as Label;
            loads[least as usize] += g.weighted_degree(v as VertexId) as i64;
            naive.push(least);
        }
        assert_eq!(fast, naive);
    }

    #[test]
    fn loss_labels_heap_matches_naive_min_scan() {
        // Worker-loss reseed: loads count only the surviving vertices, and
        // the lost ones — scattered, not a suffix — rejoin in id order.
        let g = community_graph(1200, 5, 23);
        let (n, k) = (g.num_vertices() as usize, 7u32);
        let previous: Vec<Label> = (0..n as u32).map(|v| (v * 3 + v / 7) % k).collect();
        let lost: Vec<bool> = (0..n).map(|v| v % 5 == 2 || v % 11 == 0).collect();
        let fast = least_loaded_labels(&g, &previous, &lost, k);

        let degree = |v: usize| g.weighted_degree(v as VertexId) as i64;
        let mut loads = vec![0i64; k as usize];
        for v in (0..n).filter(|&v| !lost[v]) {
            loads[previous[v] as usize] += degree(v);
        }
        let mut naive = previous.clone();
        for v in (0..n).filter(|&v| lost[v]) {
            let least = (0..k as usize).min_by_key(|&l| loads[l]).unwrap();
            loads[least] += degree(v);
            naive[v] = least as Label;
        }
        assert_eq!(fast, naive);
        assert_ne!(fast, previous, "the reseed must move some lost vertex");
    }

    #[test]
    fn plain_lpa_ablation_loses_balance_on_skewed_graph() {
        let d = spinner_graph::generators::rmat(
            spinner_graph::generators::RmatConfig::graph500(11, 12, 3),
        );
        let g = to_weighted_undirected(&d);
        let mut balanced_cfg = small_cfg(8);
        balanced_cfg.max_iterations = 30;
        let mut plain_cfg = balanced_cfg.clone();
        plain_cfg.balance_penalty = false;
        plain_cfg.probabilistic_migration = false;
        let balanced = partition(&g, &balanced_cfg);
        let plain = partition(&g, &plain_cfg);
        assert!(
            plain.quality.rho > balanced.quality.rho + 0.3,
            "plain {} vs balanced {}",
            plain.quality.rho,
            balanced.quality.rho
        );
    }

    /// The engine's loaded topology, counted in bytes on `stream_churn`'s
    /// shape at a tenth of its scale (6 000 vertices, 16 workers). Spinner's
    /// edge values are one byte per adjacency entry, the Eq. 3 weight: an
    /// engine with no edge value on the same load holds exactly that much
    /// less.
    #[test]
    fn engine_topology_holds_one_edge_byte_per_adjacency_entry() {
        struct NoEdgeValue;
        impl spinner_pregel::Program for NoEdgeValue {
            type V = ();
            type E = ();
            type M = ();
            type G = ();
            type WorkerState = ();
            fn init_global(&self) {}
            fn init_worker(&self, _: &(), _: spinner_pregel::WorkerId) {}
            fn compute(&self, _: &mut spinner_pregel::VertexContext<'_, Self>, _: &[()]) {}
        }
        let g = to_weighted_undirected(&planted_partition(SbmConfig {
            n: 6_000,
            communities: 100,
            internal_degree: 40.0,
            external_degree: 16.0,
            skew: None,
            seed: 7,
        }));
        let mut cfg = SpinnerConfig::new(16).with_seed(7);
        cfg.num_workers = 16;
        cfg.num_threads = 1;
        let placement = stages::placement(g.num_vertices(), &cfg);
        let labels = random_labels(g.num_vertices(), cfg.k, cfg.seed);
        let spinner = stages::build_engine(&g, &cfg, &placement, &labels);
        let config = stages::engine_config(&cfg);
        let bare = spinner_pregel::Engine::from_undirected(
            NoEdgeValue,
            &g,
            &placement,
            config,
            |_| (),
            |_, _, _| (),
        );
        let entries = g.num_adjacency_entries() as usize;
        assert_eq!(spinner.memory_bytes() - bare.memory_bytes(), entries);
        assert_eq!((entries, spinner.memory_bytes()), (454_716, 5_192_332));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::config::BalanceObjective;
    use spinner_graph::generators::{planted_partition, rmat, RmatConfig, SbmConfig};

    fn community_graph(n: u32, communities: u32, seed: u64) -> UndirectedGraph {
        to_weighted_undirected(&planted_partition(SbmConfig {
            n,
            communities,
            internal_degree: 8.0,
            external_degree: 1.5,
            skew: None,
            seed,
        }))
    }

    fn small_cfg(k: u32) -> SpinnerConfig {
        let mut cfg = SpinnerConfig::new(k);
        cfg.num_workers = 4;
        cfg.max_iterations = 60;
        cfg
    }

    #[test]
    fn heterogeneous_capacities_shift_load() {
        let g = community_graph(3000, 8, 31);
        // Partition 0 gets twice the capacity of each of the others.
        let mut weights = vec![1.0; 4];
        weights[0] = 2.0;
        let cfg = small_cfg(4).with_capacity_weights(weights);
        let r = partition(&g, &cfg);
        let total: u64 = r.quality.loads.iter().sum();
        let share0 = r.quality.loads[0] as f64 / total as f64;
        // Ideal share is 2/5 = 0.4 vs 0.2 for the others.
        assert!((0.30..=0.45).contains(&share0), "share0 {share0}");
        // Weighted rho stays near c.
        assert!(r.quality.rho < 1.2, "rho {}", r.quality.rho);
        for l in 1..4 {
            let share = r.quality.loads[l] as f64 / total as f64;
            assert!(share < share0, "partition {l} share {share} >= {share0}");
        }
    }

    /// Each iteration's φ is local weight over the total weighted degree
    /// under either objective, so the last one is the final labels' φ, bit
    /// for bit, on a cold and on an elastic run.
    #[test]
    fn last_iteration_phi_is_the_final_phi_under_both_objectives() {
        let g = community_graph(4000, 8, 3);
        for objective in [BalanceObjective::Edges, BalanceObjective::Vertices] {
            let cfg = |k: u32| {
                let mut cfg = small_cfg(k);
                cfg.objective = objective;
                cfg
            };
            let cold = partition(&g, &cfg(8));
            let grown = elastic(&g, &cold.labels, 8, &cfg(10));
            for (run, r) in [("partition", &cold), ("elastic", &grown)] {
                let last = r.history.last().expect("an iteration").phi;
                let exact = spinner_metrics::phi(&g, &r.labels);
                assert_eq!(last.to_bits(), exact.to_bits(), "{run}, {objective:?}");
                assert_eq!(r.quality.phi.to_bits(), exact.to_bits(), "{run}, {objective:?}");
            }
        }
    }

    #[test]
    fn vertex_objective_balances_vertex_counts_on_skewed_graph() {
        let g = to_weighted_undirected(&rmat(RmatConfig::graph500(11, 12, 5)));
        let mut cfg = small_cfg(8);
        cfg.objective = BalanceObjective::Vertices;
        let r = partition(&g, &cfg);
        let mut counts = [0u64; 8];
        for &l in &r.labels {
            counts[l as usize] += 1;
        }
        let ideal = g.num_vertices() as f64 / 8.0;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / ideal < 1.15, "vertex rho {}", max / ideal);
        // Edge loads are NOT balanced under this objective on a hub graph.
        let edge_rho = spinner_metrics::rho(&g, &r.labels, 8);
        assert!(edge_rho > max / ideal, "edge rho {edge_rho}");
    }

    /// Margin sleeping is exact on cold and elastic runs: each decides what
    /// it decides with every sleeper woken at every scores superstep. The
    /// elastic relabelling leaves a partition far from balance, so the
    /// asynchronous views stray far within a superstep while few vertices
    /// are awake.
    #[test]
    fn elastic_runs_match_waking_every_sleeper() {
        let wake_all = |on: bool| crate::program::WAKE_EVERY_SLEEPER.with(|w| w.set(on));
        let (mut slept, mut woke) = (0u64, 0u64);
        for seed in 0..20u64 {
            let g = to_weighted_undirected(&planted_partition(SbmConfig {
                n: 800,
                communities: 8,
                internal_degree: 6.0,
                external_degree: 1.5,
                skew: None,
                seed,
            }));
            let cfg = |k: u32| {
                let mut cfg = SpinnerConfig::new(k).with_seed(seed);
                cfg.num_workers = 4;
                cfg.num_threads = 1;
                cfg.max_iterations = 30;
                cfg.async_worker_loads = seed % 6 != 5;
                if seed % 4 == 3 {
                    cfg.objective = BalanceObjective::Vertices;
                }
                cfg
            };
            let old_k = 6;
            let base = partition(&g, &cfg(old_k));
            for k in (3..=9).filter(|&k| k != old_k) {
                let real = elastic(&g, &base.labels, old_k, &cfg(k));
                wake_all(true);
                let reference = elastic(&g, &base.labels, old_k, &cfg(k));
                wake_all(false);
                assert_eq!(real.labels, reference.labels, "seed {seed}, k {k}");
                assert_eq!(real.history, reference.history, "seed {seed}, k {k}");
                assert_eq!(real.supersteps, reference.supersteps, "seed {seed}, k {k}");
                assert_eq!(real.totals.messages, reference.totals.messages);
                slept += real.totals.computed;
                woke += reference.totals.computed;
            }
        }
        // The sleep schedule is deterministic: any change to a wake key or
        // clock shows here, even one that changes no label.
        assert_eq!((slept, woke), (2_055_461, 2_511_463), "visits sleeping, waking");
    }

    /// The optimised candidate scan (weight-sorted histogram, early exit,
    /// one min-penalty label) against the paper's all-k scan: on a graph
    /// with no isolated vertex they are the same run, label for label and
    /// iteration for iteration.
    #[test]
    fn exhaustive_scan_matches_optimized_quality() {
        for (n, communities, seed) in [(2500, 5, 41), (3000, 6, 7)] {
            let g = community_graph(n, communities, seed);
            let cfg_opt = small_cfg(communities);
            let mut cfg_ex = small_cfg(communities);
            cfg_ex.exhaustive_candidate_scan = true;
            let opt = partition(&g, &cfg_opt);
            let ex = partition(&g, &cfg_ex);
            assert_eq!(opt.labels, ex.labels, "labels, n={n}");
            assert_eq!(opt.iterations, ex.iterations, "iterations, n={n}");
            assert_eq!(opt.history, ex.history, "history, n={n}");
        }
    }

    /// Where the two scans may differ: a vertex whose best label is a
    /// non-adjacent one tied at the minimum penalty, which in practice is
    /// an isolated vertex — `min_load_label` takes the lowest index, the
    /// exhaustive scan a hash priority. R-MAT graphs have isolated
    /// vertices; they carry no load, so φ and ρ stay equal.
    #[test]
    fn exhaustive_scan_differs_only_on_isolated_vertices() {
        let g = to_weighted_undirected(&rmat(RmatConfig::graph500(11, 12, 5)));
        let mut differing = 0;
        for seed in 0..4 {
            let mut cfg_opt = small_cfg(8);
            cfg_opt.seed = seed;
            let mut cfg_ex = cfg_opt.clone();
            cfg_ex.exhaustive_candidate_scan = true;
            let opt = partition(&g, &cfg_opt);
            let ex = partition(&g, &cfg_ex);
            for (v, (a, b)) in opt.labels.iter().zip(&ex.labels).enumerate() {
                if a != b {
                    assert_eq!(g.degree(v as VertexId), 0, "vertex {v} differs, seed {seed}");
                    differing += 1;
                }
            }
            assert_eq!(opt.iterations, ex.iterations, "seed {seed}");
            let phi_rho = |r: &PartitionResult| -> Vec<(f64, f64)> {
                r.history.iter().map(|h| (h.phi, h.rho)).collect()
            };
            assert_eq!(phi_rho(&opt), phi_rho(&ex), "seed {seed}");
            assert_eq!((opt.quality.phi, opt.quality.rho), (ex.quality.phi, ex.quality.rho));
        }
        // The probe must reach the case it exists for.
        assert!(differing > 0, "no isolated vertex took a different tie-break");
    }

    /// The scan equivalence and the zero-allocation fabric at the
    /// benchmark's `cold_community` scale (SBM 60 k, k = 32, 16 workers,
    /// 2 threads, 32 iterations).
    #[test]
    #[ignore = "benchmark scale; run in release"]
    fn benchmark_scale_scans_agree_and_fabric_stays_flat() {
        let g =
            spinner_graph::conversion::from_undirected_edges(&planted_partition(SbmConfig {
                n: 60_000,
                communities: 1000,
                internal_degree: 40.0,
                external_degree: 16.0,
                skew: None,
                seed: 21,
            }));
        let mut cfg = SpinnerConfig::new(32);
        cfg.num_workers = 16;
        cfg.num_threads = 2;
        cfg.max_iterations = 32;
        cfg.ignore_halting = true;
        let run = |cfg: &SpinnerConfig| {
            let labels = random_labels(g.num_vertices(), cfg.k, cfg.seed);
            let placement = stages::placement(g.num_vertices(), cfg);
            let mut engine = stages::build_engine(&g, cfg, &placement, &labels);
            let summary = engine.run();
            for step in summary.metrics.iter().filter(|s| s.superstep >= 2) {
                let grown: u64 = step.per_worker.iter().map(|w| w.fabric_reallocs).sum();
                assert_eq!(grown, 0, "fabric grew at superstep {}", step.superstep);
            }
            stages::collect(cfg, &engine, &summary, &g)
        };
        let opt = run(&cfg);
        cfg.exhaustive_candidate_scan = true;
        let ex = run(&cfg);
        assert_eq!(opt.labels, ex.labels);
        assert_eq!(opt.iterations, ex.iterations);
        assert_eq!(opt.history, ex.history);
    }
}
