//! The linear graph maintenance against the sort-based oracles it replaced:
//! `apply_delta`, both conversions and the view patch must reproduce every
//! CSR array byte for byte, at exactly the same capacity (`memory_bytes`).
//! The recycled forms (`apply_delta_into`, `patch_undirected_edges_into`)
//! must reproduce the allocating forms' arrays whatever graph they write
//! into — empty, smaller or larger than the result, or full of stale rows —
//! and only their capacity may differ.

use crate::builder::GraphBuilder;
use crate::conversion::{
    self, from_undirected_edges, patch_undirected_edges, patch_undirected_edges_into,
    to_naive_undirected, to_weighted_undirected,
};
use crate::directed::DirectedGraph;
use crate::generators::{planted_partition, SbmConfig};
use crate::ids::VertexId;
use crate::mutation::{self, apply_delta, apply_delta_into, GraphDelta};
use crate::stream::{DeltaStream, DeltaStreamConfig};
use crate::undirected::UndirectedGraph;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn assert_same_directed(got: &DirectedGraph, want: &DirectedGraph) {
    assert_eq!(got, want);
    assert_eq!(got.memory_bytes(), want.memory_bytes(), "directed capacity differs");
}

fn assert_same_undirected(got: &UndirectedGraph, want: &UndirectedGraph) {
    assert_eq!(got, want);
    assert_eq!(got.memory_bytes(), want.memory_bytes(), "undirected capacity differs");
}

/// Both conversions of `g` against their oracles.
fn check_conversions(g: &DirectedGraph) {
    assert_same_undirected(
        &to_weighted_undirected(g),
        &conversion::oracle::to_weighted_undirected(g),
    );
    assert_same_undirected(
        &to_naive_undirected(g),
        &conversion::oracle::to_naive_undirected(g),
    );
}

/// Applies `delta` to `g` and to the unit-weight view `view` of `g`,
/// checking the merge, both conversions of the result and the patched view
/// against their oracles, and the patch's added and removed pairs against
/// the two views' edge sets. Returns the new graph and view.
fn check_window(
    g: &DirectedGraph,
    view: &UndirectedGraph,
    delta: &GraphDelta,
) -> (DirectedGraph, UndirectedGraph) {
    let next = apply_delta(g, delta);
    assert_same_directed(&next, &mutation::oracle::apply_delta(g, delta));
    check_conversions(&next);
    let patch = patch_undirected_edges(view, &next, delta);
    assert_same_undirected(&patch.graph, &conversion::oracle::to_naive_undirected(&next));
    let pairs = |g: &UndirectedGraph| -> BTreeSet<(VertexId, VertexId)> {
        g.edges_once().map(|(a, b, _)| (a, b)).collect()
    };
    let (before, after) = (pairs(view), pairs(&patch.graph));
    assert_eq!(patch.added, after.difference(&before).copied().collect::<Vec<_>>());
    assert_eq!(patch.removed, before.difference(&after).copied().collect::<Vec<_>>());
    for mut out in recycled(g) {
        let mut out_view = from_undirected_edges(&out);
        check_recycled(g, view, delta, &mut out, &mut out_view);
    }
    (next, patch.graph)
}

/// Graphs to recycle for a window on `g`: empty, smaller and larger than
/// any result here, and `g` itself, whose rows are all stale.
fn recycled(g: &DirectedGraph) -> [DirectedGraph; 4] {
    let large = (0..48u32).flat_map(|u| (0..48).filter(move |&v| v != u).map(move |v| (u, v)));
    [
        DirectedGraph::default(),
        GraphBuilder::new(2).add_edges([(0, 1)]).build(),
        GraphBuilder::new(48).add_edges(large).build(),
        g.clone(),
    ]
}

/// Writes the window `delta` on `g` and its view `view` into the recycled
/// `out_graph` and `out_view`, which must come out equal to the allocating
/// forms' results, array for array, with at least their capacity.
fn check_recycled(
    g: &DirectedGraph,
    view: &UndirectedGraph,
    delta: &GraphDelta,
    out_graph: &mut DirectedGraph,
    out_view: &mut UndirectedGraph,
) {
    let next = apply_delta(g, delta);
    apply_delta_into(g, delta, out_graph);
    assert_eq!(out_graph.as_csr(), next.as_csr());
    assert!(out_graph.memory_bytes() >= next.memory_bytes());
    let patch = patch_undirected_edges(view, &next, delta);
    let (added, removed) = patch_undirected_edges_into(view, out_graph, delta, out_view);
    assert_eq!(out_view.as_csr(), patch.graph.as_csr());
    assert_eq!(out_view.total_weight(), patch.graph.total_weight());
    assert!(out_view.memory_bytes() >= patch.graph.memory_bytes());
    assert_eq!((added, removed), (patch.added, patch.removed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random graphs over 0..24 vertices (empty, singleton and isolated
    /// vertices included, about half the edges mirrored into reciprocal
    /// pairs) and deltas carrying every case the merge must get right:
    /// duplicate and self-loop additions, re-additions of live edges,
    /// absent and out-of-range removals, remove-then-re-add, removal of one
    /// half of a reciprocal pair, new vertices, and additions past the id
    /// range that mint vertices.
    #[test]
    fn maintenance_matches_oracles(
        (n, edges, mirror) in (
            0u32..24,
            prop::collection::vec((0u32..24, 0u32..24), 0..120),
            prop::collection::vec(any::<bool>(), 120),
        ),
        fresh in prop::collection::vec((0u32..30, 0u32..30), 0..24),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..16),
        (new_vertices, loops, bogus) in (
            0u32..3,
            prop::collection::vec(0u32..30, 0..3),
            prop::collection::vec((0u32..40, 0u32..40), 0..4),
        ),
    ) {
        let edges: Vec<(VertexId, VertexId)> =
            edges.into_iter().filter(|&(a, b)| a < n && b < n).collect();
        let mirrored = edges.iter().zip(&mirror).filter(|(_, &m)| m).map(|(&(a, b), _)| (b, a));
        let g = GraphBuilder::new(n).add_edges(edges.iter().copied().chain(mirrored)).build();
        check_conversions(&g);

        let live: Vec<(VertexId, VertexId)> = g.edges().collect();
        let picked: Vec<(VertexId, VertexId)> = match live.is_empty() {
            true => vec![],
            false => picks.iter().map(|i| *i.get(&live)).collect(),
        };
        // Every other picked live edge is also re-added: removed-then-re-added
        // and a live edge added again.
        let mut added = fresh.clone();
        added.extend(fresh.iter().take(fresh.len() / 2));
        added.extend(loops.iter().map(|&x| (x, x)));
        added.extend(picked.iter().step_by(2));
        let mut removed = picked;
        removed.extend(bogus);
        removed.extend(fresh.iter().take(2));
        let delta = GraphDelta { added_edges: added, removed_edges: removed, new_vertices };
        check_window(&g, &from_undirected_edges(&g), &delta);
    }
}

fn community_graph(n: u32, seed: u64) -> DirectedGraph {
    planted_partition(SbmConfig {
        n,
        communities: n / 60,
        internal_degree: 40.0,
        external_degree: 16.0,
        skew: None,
        seed,
    })
}

/// Replays a churning `DeltaStream` (removals and arrivals) through the merge
/// and a chain of patched views, each window against the oracles, and
/// through the recycled forms as a stream session drives them: each window
/// writes into the graph and view the previous window replaced.
fn check_stream(base: DirectedGraph, windows: u32, seed: u64) {
    let cfg = DeltaStreamConfig { windows, seed, ..DeltaStreamConfig::default() };
    let deltas: Vec<GraphDelta> = DeltaStream::new(base.clone(), cfg).collect();
    let mut view = from_undirected_edges(&base);
    let mut g = base;
    let (mut spare_graph, mut spare_view) =
        (DirectedGraph::default(), UndirectedGraph::default());
    for delta in &deltas {
        assert!(!delta.removed_edges.is_empty() && delta.new_vertices > 0);
        check_recycled(&g, &view, delta, &mut spare_graph, &mut spare_view);
        let (next, next_view) = check_window(&g, &view, delta);
        spare_graph = std::mem::replace(&mut g, next);
        spare_view = std::mem::replace(&mut view, next_view);
    }
}

#[test]
fn patched_views_follow_a_delta_stream() {
    check_stream(community_graph(1800, 5), 6, 5);
}

/// The benchmark's shape: SBM 60 k (seed 21, the `stream_churn` base) and
/// eight windows. Run with `cargo test --release -p spinner-graph -- --ignored`.
#[test]
#[ignore = "benchmark scale; run in release"]
fn benchmark_scale_stream_matches_oracles() {
    let base = community_graph(60_000, 21);
    check_conversions(&base);
    check_stream(base, 8, 21);
}
