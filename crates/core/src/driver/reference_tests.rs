//! The seeded start against the paper's: every driver call equals an
//! engine built on the literal `SpinnerProgram { start_phase:
//! Phase::Initialize }` with fresh vertex states, as the repo benchmark's
//! cold replica builds it, from the same labels and placement.

use super::*;
use crate::program::SpinnerProgram;
use crate::state::{EdgeState, Phase, VertexState};
use spinner_graph::generators::{planted_partition, SbmConfig};
use spinner_graph::mutation::{apply_delta, sample_new_edges, sample_removed_edges};
use spinner_graph::GraphDelta;
use spinner_pregel::engine::Engine;
use spinner_pregel::TransportKind;

/// The reference run: the `Initialize` start on `cfg`'s hash placement.
fn reference(
    graph: &UndirectedGraph,
    cfg: &SpinnerConfig,
    labels: &[Label],
) -> PartitionResult {
    let placement = stages::placement(graph.num_vertices(), cfg);
    let mut engine = Engine::from_undirected(
        SpinnerProgram { cfg: cfg.clone(), start_phase: Phase::Initialize },
        graph,
        &placement,
        stages::engine_config(cfg),
        |v| VertexState::new(labels[v as usize], true),
        |_, _, w| EdgeState { weight: w, neighbor_label: NO_LABEL },
    );
    let summary = engine.run();
    stages::collect(cfg, &engine, &summary, graph)
}

/// The driver decides what the reference decides, in exactly its
/// `Initialize` superstep less: one superstep, one visit per vertex and one
/// announcement per adjacency entry.
fn assert_reference(
    what: &str,
    graph: &UndirectedGraph,
    driver: &PartitionResult,
    reference: &PartitionResult,
) {
    assert_eq!(driver.labels, reference.labels, "{what}: labels");
    assert_eq!(driver.history, reference.history, "{what}: history");
    assert_eq!(driver.iterations, reference.iterations, "{what}: iterations");
    assert_eq!(driver.halted_steady, reference.halted_steady, "{what}: halted_steady");
    assert_eq!(driver.supersteps + 1, reference.supersteps, "{what}: supersteps");
    let round = graph.num_adjacency_entries();
    assert_eq!(driver.totals.messages + round, reference.totals.messages, "{what}: messages");
    let n = u64::from(graph.num_vertices());
    assert_eq!(driver.totals.computed + n, reference.totals.computed, "{what}: visits");
}

/// Every lane and scan arm on 1 and 2 threads, through `partition`
/// (halting by the ε/w rule and at a fixed iteration count), the
/// exhaustive and dense-scan arms, an `adapt` to a changed graph and an
/// `elastic` resize.
#[test]
fn driver_runs_equal_the_initialize_reference() {
    let directed = planted_partition(SbmConfig {
        n: 400,
        communities: 5,
        internal_degree: 7.0,
        external_degree: 2.0,
        skew: None,
        seed: 42,
    });
    let graph = to_weighted_undirected(&directed);
    let delta = GraphDelta {
        added_edges: sample_new_edges(&directed, 16, 0.8, 3),
        removed_edges: sample_removed_edges(&directed, 8, 4),
        new_vertices: 0,
    };
    let grown = to_weighted_undirected(&apply_delta(&directed, &delta));
    let mut arms = Vec::new();
    for lane in [TransportKind::Direct, TransportKind::Ring] {
        for broadcast in [true, false] {
            for async_loads in [true, false] {
                for threads in [1, 2] {
                    arms.push((lane, broadcast, async_loads, threads));
                }
            }
        }
    }
    let mut halted_steady = 0;
    for (arm, (transport, broadcast, async_loads, threads)) in arms.into_iter().enumerate() {
        let mut cfg = SpinnerConfig::new(4)
            .with_seed(arm as u64)
            .with_transport(transport)
            .with_broadcast_fabric(broadcast);
        cfg.num_workers = 3;
        cfg.num_threads = threads;
        cfg.async_worker_loads = async_loads;
        cfg.max_iterations = 60;
        let what = |call: &str| format!("arm {arm}: {call}");
        let n = graph.num_vertices();
        let random = random_labels(n, cfg.k, cfg.seed);

        let halting = partition(&graph, &cfg);
        assert_reference(
            &what("partition"),
            &graph,
            &halting,
            &reference(&graph, &cfg, &random),
        );
        halted_steady += usize::from(halting.halted_steady);

        let mut fixed = cfg.clone();
        fixed.ignore_halting = true;
        fixed.max_iterations = 10;
        fixed.exhaustive_candidate_scan = arm % 2 == 0;
        fixed.dense_scan = arm % 2 == 1;
        let driver = partition(&graph, &fixed);
        let expect = reference(&graph, &fixed, &random);
        assert_reference(&what("partition, scan arm"), &graph, &driver, &expect);

        let driver = adapt(&grown, &halting.labels, &cfg);
        let labels = least_loaded_labels(&grown, &halting.labels, &[], cfg.k);
        let expect = reference(&grown, &cfg, &labels);
        assert_reference(&what("adapt"), &grown, &driver, &expect);

        let mut resized = cfg.clone();
        resized.k = 6;
        let driver = elastic(&graph, &halting.labels, cfg.k, &resized);
        let labels = elastic_labels(&halting.labels, cfg.k, resized.k, cfg.seed);
        let expect = reference(&graph, &resized, &labels);
        assert_reference(&what("elastic"), &graph, &driver, &expect);
    }
    assert!(halted_steady > 0, "no run halted by the ε/w rule");
}
