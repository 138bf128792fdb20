//! Warm restart: an engine re-targeted at a mutated graph, or re-hosted on a
//! new placement, via `warm_reset_undirected` must behave bit-identically to
//! a cold engine built over the same graph and placement, and the reused
//! fabric must not allocate on the message path — not even in the warm
//! run's first superstep, thanks to the inbound-volume pre-reservation.

use spinner_graph::conversion::from_undirected_edges;
use spinner_graph::{DirectedGraph, GraphBuilder, UndirectedGraph};
use spinner_pregel::engine::{Engine, EngineConfig, HaltReason, RunSummary};
use spinner_pregel::program::Program;
use spinner_pregel::{Placement, VertexContext};

/// Min-label propagation over the weighted undirected view: deterministic
/// regardless of message order, so any divergence between a warm and a cold
/// engine shows up in values or metrics.
struct MinLabel;

impl Program for MinLabel {
    type V = u32;
    type E = u8;
    type M = u32;
    type G = ();
    type WorkerState = ();

    fn init_global(&self) {}
    fn init_worker(&self, _g: &(), _w: u16) {}

    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[u32]) {
        let mut best = *ctx.value;
        if ctx.superstep == 0 {
            best = ctx.vertex;
        }
        for &m in messages {
            best = best.min(m);
        }
        if best != *ctx.value || ctx.superstep == 0 {
            *ctx.value = best;
            for &t in ctx.edges.targets {
                ctx.mail.send(t, best);
            }
        }
        ctx.vote_to_halt();
    }
}

fn ring_graph(n: u32) -> UndirectedGraph {
    from_undirected_edges(
        &GraphBuilder::new(n)
            .add_edges((0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v + 7) % n)]))
            .build(),
    )
}

/// The ring plus chords, with `extra` appended vertices each chained to the
/// existing range (a delta-grown graph).
fn grown_graph(n: u32, extra: u32) -> UndirectedGraph {
    let mut edges: Vec<(u32, u32)> =
        (0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v + 7) % n)]).collect();
    for i in 0..extra {
        edges.push((n + i, (i * 13) % n));
        edges.push((n + i, (i * 29 + 5) % n));
    }
    from_undirected_edges(&GraphBuilder::new(n + extra).add_edges(edges).build())
}

fn config(threads: usize) -> EngineConfig {
    EngineConfig { num_threads: threads, max_supersteps: 300, seed: 3, ..Default::default() }
}

fn cold_engine(g: &UndirectedGraph, placement: &Placement, threads: usize) -> Engine<MinLabel> {
    Engine::from_undirected(MinLabel, g, placement, config(threads), |_| u32::MAX, |_, _, w| w)
}

fn engine_over(g: &UndirectedGraph, workers: usize, threads: usize) -> Engine<MinLabel> {
    cold_engine(g, &Placement::hashed(g.num_vertices(), workers, 9), threads)
}

/// Resets `engine` onto `g` and `placement` with every vertex awake.
fn reset(engine: &mut Engine<MinLabel>, g: &UndirectedGraph, placement: &Placement) {
    engine.warm_reset_undirected(MinLabel, g, placement, |_| u32::MAX, |_, _, w| w);
}

fn trace(summary: &RunSummary) -> Vec<(u64, u64, u64, u64)> {
    summary
        .metrics
        .iter()
        .map(|s| {
            let recv: u64 = s.per_worker.iter().map(|w| w.recv_total()).sum();
            (s.computed_total(), s.sent_total(), recv, s.active_after)
        })
        .collect()
}

fn fabric_growth(summary: &RunSummary) -> u64 {
    summary.metrics.iter().flat_map(|s| s.per_worker.iter().map(|w| w.fabric_reallocs)).sum()
}

#[test]
fn warm_reset_matches_cold_engine_bit_for_bit() {
    let g1 = ring_graph(200);
    let g2 = grown_graph(200, 40);
    for &(workers, threads) in &[(1usize, 1usize), (4, 2), (7, 3)] {
        // Warm path: run over g1, then reset onto g2 and run again.
        let mut warm = engine_over(&g1, workers, threads);
        assert_eq!(warm.run().halt, HaltReason::AllHalted);
        reset(&mut warm, &g2, &Placement::hashed(g2.num_vertices(), workers, 9));
        let warm_summary = warm.run();

        // Cold path: a fresh engine over g2.
        let mut cold = engine_over(&g2, workers, threads);
        let cold_summary = cold.run();

        assert_eq!(warm_summary.halt, cold_summary.halt);
        assert_eq!(warm_summary.supersteps, cold_summary.supersteps);
        assert_eq!(
            warm.collect_values(),
            cold.collect_values(),
            "values diverged at workers={workers} threads={threads}"
        );
        assert_eq!(trace(&warm_summary), trace(&cold_summary));

        // The warm run inherits warmed-up capacities plus the inbound
        // reservation for the grown graph: zero fabric growth anywhere.
        for step in &warm_summary.metrics {
            let growth: u64 = step.per_worker.iter().map(|w| w.fabric_reallocs).sum();
            assert_eq!(
                growth, 0,
                "warm fabric grew at superstep {} (workers={workers})",
                step.superstep
            );
        }
    }
}

#[test]
fn warm_reset_supports_shrinking_vertex_sets() {
    let big = grown_graph(200, 40);
    let small = ring_graph(80);
    let mut warm = engine_over(&big, 4, 2);
    warm.run();
    reset(&mut warm, &small, &Placement::hashed(small.num_vertices(), 4, 9));
    let summary = warm.run();
    assert_eq!(summary.halt, HaltReason::AllHalted);
    assert_eq!(warm.num_vertices(), 80);

    let mut cold = engine_over(&small, 4, 2);
    cold.run();
    assert_eq!(warm.collect_values(), cold.collect_values());
}

/// Repeated warm resets over a growing stream of graphs: after the first
/// window the fabric never grows again.
#[test]
fn fabric_stays_warm_across_many_windows() {
    let mut engine = engine_over(&ring_graph(300), 5, 2);
    engine.run();
    for window in 1..=6u32 {
        let g = grown_graph(300, window * 15);
        reset(&mut engine, &g, &Placement::hashed(g.num_vertices(), 5, 9));
        let summary = engine.run();
        assert_eq!(summary.halt, HaltReason::AllHalted);
        assert_eq!(fabric_growth(&summary), 0, "fabric grew during window {window}");
    }
}

/// The warm reset is the one way to re-host an engine: a reset onto a
/// label-derived placement runs exactly like a cold engine built on that
/// placement, without fabric growth.
#[test]
fn warm_reset_rehosts_onto_a_new_placement() {
    let g = grown_graph(200, 40);
    for &(workers, threads) in &[(4usize, 2usize), (7, 3)] {
        let mut engine = engine_over(&g, workers, threads);
        assert_eq!(engine.run().halt, HaltReason::AllHalted);
        let values = engine.collect_values();

        // Re-place by the computed component labels (Spinner's §V-F move).
        let by_label = Placement::from_labels_balanced(&values, workers);
        assert_ne!(by_label, Placement::hashed(g.num_vertices(), workers, 9));

        // A fresh run on the new placement behaves exactly like a cold
        // engine built there, inside the preserved and reserved capacities.
        reset(&mut engine, &g, &by_label);
        let warm_summary = engine.run();
        let mut cold = cold_engine(&g, &by_label, threads);
        let cold_summary = cold.run();
        assert_eq!(engine.collect_values(), cold.collect_values());
        assert_eq!(trace(&warm_summary), trace(&cold_summary));
        assert_eq!(fabric_growth(&warm_summary), 0, "fabric grew at workers={workers}");
    }
}

/// `DirectedGraph` import sanity: the warm API composes with the same
/// conversion the streaming driver uses.
#[test]
fn conversion_roundtrip_compiles() {
    let d: DirectedGraph = GraphBuilder::new(3).add_edges([(0, 1), (1, 2)]).build();
    let u = from_undirected_edges(&d);
    assert_eq!(u.num_vertices(), 3);
}
