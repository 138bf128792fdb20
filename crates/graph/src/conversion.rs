//! Directed-to-weighted-undirected conversion (paper §III-A, Eq. 3).
//!
//! The naive symmetrisation used by vanilla LPA is agnostic to edge
//! direction, but Pregel applications send messages along *directed* edges.
//! Spinner therefore weights each undirected edge by the number of directed
//! edges between its endpoints:
//!
//! ```text
//! w(u,v) = 1  if (u,v) ∈ D xor (v,u) ∈ D
//! w(u,v) = 2  if (u,v) ∈ D and (v,u) ∈ D
//! ```
//!
//! so that a partitioning score expressed in these weights counts the number
//! of messages exchanged locally.
//!
//! The paper finds the in-neighbours with two Giraph supersteps
//! (NeighborPropagation / NeighborDiscovery) instead of the transpose below;
//! `spinner_core` runs those supersteps as a Pregel program of their own
//! and hands the in-rows they gather to
//! [`to_weighted_undirected_with_in_rows`], the same merge. The offline
//! transpose is the default because it sends no messages.
//!
//! The conversion is linear and sort-free: a counting transpose gives every
//! vertex its in-neighbour list already sorted (sources are visited in
//! ascending order), and the undirected row of `v` is one two-way merge of
//! `out(v)` with `in(v)`, where an id found in both lists is a reciprocal
//! pair. A first merge pass counts each row and a second fills it, so every
//! array is allocated once at exactly its final size.
//! [`patch_undirected_edges`] goes one step further for streams: it updates
//! an existing unit-weight view by a delta's pairs alone.

use crate::buffer::Fit;
use crate::directed::DirectedGraph;
use crate::ids::{EdgeWeight, VertexId};
use crate::mutation::{merge_rows, GraphDelta};
use crate::undirected::UndirectedGraph;

/// Converts a directed graph into the weighted undirected graph of Eq. 3.
pub fn to_weighted_undirected(g: &DirectedGraph) -> UndirectedGraph {
    let (in_offsets, sources) = transpose(g);
    union(g, &in_offsets, &sources, true)
}

/// The weighted undirected graph of Eq. 3 from `g`'s out-rows and its
/// in-rows, given as a CSR: `in_sources[in_offsets[v]..in_offsets[v + 1]]`
/// are the sources of `v`'s in-edges, ascending and distinct. With the
/// counting transpose of `g` as the in-rows this is
/// [`to_weighted_undirected`].
pub fn to_weighted_undirected_with_in_rows(
    g: &DirectedGraph,
    in_offsets: &[usize],
    in_sources: &[VertexId],
) -> UndirectedGraph {
    assert_eq!(in_offsets.len(), g.num_vertices() as usize + 1, "one in-row per vertex");
    union(g, in_offsets, in_sources, true)
}

/// Symmetrises a graph *without* weights (every edge weight 1), i.e. the
/// "naive approach" the paper contrasts against in §III-A/Fig. 1. Used by the
/// conversion ablation experiment.
pub fn to_naive_undirected(g: &DirectedGraph) -> UndirectedGraph {
    let (in_offsets, sources) = transpose(g);
    union(g, &in_offsets, &sources, false)
}

/// Interprets an already-undirected edge list (each edge listed once in an
/// arbitrary direction) as an [`UndirectedGraph`] with unit weights. Used for
/// datasets that are undirected at the source (Tuenti, Friendster).
pub fn from_undirected_edges(g: &DirectedGraph) -> UndirectedGraph {
    to_naive_undirected(g)
}

/// Unordered vertex pairs `(a, b)`, `a < b`, ascending.
pub type Pairs = Vec<(VertexId, VertexId)>;

/// A unit-weight view patched by one delta window, with the unordered pairs
/// whose edge the window added to it and removed from it.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewPatch {
    /// The patched view.
    pub graph: UndirectedGraph,
    /// The pairs `(a, b)`, `a < b`, with an edge in the patched view and
    /// none before, ascending.
    pub added: Vec<(VertexId, VertexId)>,
    /// The pairs `(a, b)`, `a < b`, with an edge before and none in the
    /// patched view, ascending.
    pub removed: Vec<(VertexId, VertexId)>,
}

/// Updates a unit-weight view by one delta window: given
/// `prev = from_undirected_edges(g)` and `next = apply_delta(g, delta)`,
/// returns exactly `from_undirected_edges(next)`, with the pairs whose edge
/// appeared and vanished.
///
/// Only the pairs `delta` names can change. A pair the delta adds an edge
/// to has one afterwards; one it only removes edges from keeps one exactly
/// when `next` still has the reverse of a removed edge, a lookup made in
/// one ascending sweep over the sorted removals. Both kinds of pair, in
/// both orientations, are merged into `prev`'s rows by the same kernel as
/// [`crate::mutation::apply_delta`], which reads where it lands whether
/// `prev` had the pair: adding a pair `prev` has, or removing one it lacks,
/// changes nothing, and neither pair is listed. The total weight follows
/// from `prev`'s and the listed pairs, with no pass over the weights. Cost
/// is `O(|V| + |E| + |Δ| log |Δ|)` with no conversion pass.
pub fn patch_undirected_edges(
    prev: &UndirectedGraph,
    next: &DirectedGraph,
    delta: &GraphDelta,
) -> ViewPatch {
    let mut graph = UndirectedGraph::default();
    let (added, removed) = write_patch(prev, next, delta, &mut graph, Fit::Exact);
    ViewPatch { graph, added, removed }
}

/// [`patch_undirected_edges`] into a recycled view: `out`'s previous
/// contents are discarded and its buffers hold the patched view. A buffer
/// that is too small is replaced, with headroom
/// ([`crate::buffer::refit`]). Returns the pairs the patch added and
/// removed, as [`ViewPatch`] lists them.
pub fn patch_undirected_edges_into(
    prev: &UndirectedGraph,
    next: &DirectedGraph,
    delta: &GraphDelta,
    out: &mut UndirectedGraph,
) -> (Pairs, Pairs) {
    write_patch(prev, next, delta, out, Fit::Recycled)
}

fn write_patch(
    prev: &UndirectedGraph,
    next: &DirectedGraph,
    delta: &GraphDelta,
    out: &mut UndirectedGraph,
    fit: Fit,
) -> (Pairs, Pairs) {
    let n = next.num_vertices();
    let in_range = |&&(u, v): &&(VertexId, VertexId)| u != v && u < n && v < n;
    let pair = |(u, v): (VertexId, VertexId)| (u.min(v), u.max(v));
    // A pair the delta adds an edge to has one in `next`.
    let mut add: Pairs = delta.added_edges.iter().filter(in_range).map(|&e| pair(e)).collect();
    add.sort_unstable();
    add.dedup();
    // A pair the delta removes `(u, v)` from keeps an edge only through
    // `(v, u)`, or through an addition, which `add` holds and which wins in
    // the merge. The reverse edges are looked up in one ascending sweep.
    let mut remove: Pairs =
        delta.removed_edges.iter().filter(in_range).map(|&(u, v)| (v, u)).collect();
    remove.sort_unstable();
    remove.retain(|&(v, u)| !next.has_edge(v, u));
    remove.iter_mut().for_each(|e| *e = pair(*e));
    remove.sort_unstable();
    remove.dedup();
    // Each pair is merged into both its rows: the orientations that point
    // down, `(b, a)`, sorted apart from the pairs themselves.
    let down = |pairs: &[(VertexId, VertexId)]| {
        let mut down: Vec<_> = pairs.iter().map(|&(a, b)| (b, a)).collect();
        down.sort_unstable();
        down
    };
    let (add_down, remove_down) = (down(&add), down(&remove));
    // The merge hears each pair that changed once from each of its rows;
    // the upward orientation, in row `a`, lists it.
    let (mut added, mut removed) =
        (Vec::with_capacity(add.len()), Vec::with_capacity(remove.len()));
    out.rewrite(|offsets, targets, weights| {
        fit.size(offsets, n as usize + 1);
        fit.size(targets, prev.num_adjacency_entries() as usize + 2 * add.len());
        let (prev_offsets, prev_targets, _) = prev.as_csr();
        let (csr, out) = ((prev_offsets, prev_targets), (&mut *offsets, &mut *targets));
        let (adds, removes) = ([&add_down[..], &add], [&remove_down[..], &remove]);
        merge_rows(csr, n as usize, adds, removes, out, |a, b, was_added| {
            match (a < b, was_added) {
                (true, true) => added.push((a, b)),
                (true, false) => removed.push((a, b)),
                (false, _) => {}
            }
        });
        fit.trim(targets);
        fit.size(weights, targets.len());
        weights.resize(targets.len(), 1);
        // Every weight is 1: each pair that came or went moves the total by
        // its two entries.
        prev.total_weight() + 2 * added.len() as u64 - 2 * removed.len() as u64
    });
    (added, removed)
}

/// The symmetric closure of `g`, each row the union of `v`'s out-row and
/// its in-row `sources[in_offsets[v]..in_offsets[v + 1]]`; with `weighted`,
/// reciprocal pairs get weight 2 (Eq. 3), otherwise every edge has weight 1.
fn union(
    g: &DirectedGraph,
    in_offsets: &[usize],
    sources: &[VertexId],
    weighted: bool,
) -> UndirectedGraph {
    let n = g.num_vertices();
    let in_neighbors =
        |v: VertexId| &sources[in_offsets[v as usize]..in_offsets[v as usize + 1]];

    let mut offsets = Vec::with_capacity(n as usize + 1);
    offsets.push(0u64);
    let mut total = 0u64;
    for v in 0..n {
        for_each_union(g.out_neighbors(v), in_neighbors(v), |_, _| total += 1);
        offsets.push(total);
    }

    let mut targets = Vec::with_capacity(total as usize);
    let mut weights: Vec<EdgeWeight> = Vec::with_capacity(total as usize);
    for v in 0..n {
        for_each_union(g.out_neighbors(v), in_neighbors(v), |t, both| {
            targets.push(t);
            weights.push(if both && weighted { 2 } else { 1 });
        });
    }
    UndirectedGraph::from_csr(offsets, targets, weights)
}

/// The counting transpose of `g`: `sources[offsets[v]..offsets[v + 1]]` are
/// the in-neighbours of `v`, sorted because sources are visited in order.
fn transpose(g: &DirectedGraph) -> (Vec<usize>, Vec<VertexId>) {
    let n = g.num_vertices() as usize;
    let (out_offsets, targets) = g.as_csr();
    let mut offsets = vec![0usize; n + 1];
    for &t in targets {
        offsets[t as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets[..n].to_vec();
    let mut sources = vec![0 as VertexId; targets.len()];
    for (u, row) in out_offsets.windows(2).enumerate() {
        for &t in &targets[row[0] as usize..row[1] as usize] {
            sources[cursor[t as usize]] = u as VertexId;
            cursor[t as usize] += 1;
        }
    }
    (offsets, sources)
}

/// Visits the sorted union of two sorted, deduplicated lists, flagging the
/// ids present in both.
#[inline]
fn for_each_union(a: &[VertexId], b: &[VertexId], mut visit: impl FnMut(VertexId, bool)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        visit(x.min(y), x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    a[i..].iter().chain(&b[j..]).for_each(|&t| visit(t, false));
}

/// The sort-based conversion this module used before the counting
/// transpose, kept as the oracle the linear one is compared against.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::directed::DirectedGraph;
    use crate::ids::{sym_edge_key, unpack_edge_key, EdgeWeight, VertexId};
    use crate::undirected::UndirectedGraph;

    /// Eq. 3 by sorting one canonical key per directed edge.
    pub(crate) fn to_weighted_undirected(g: &DirectedGraph) -> UndirectedGraph {
        let n = g.num_vertices() as usize;
        let mut pairs: Vec<u64> = Vec::with_capacity(g.num_edges() as usize);
        for (u, v) in g.edges() {
            pairs.push(sym_edge_key(u, v));
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0u64; n + 1];
        for &key in &pairs {
            let (a, b) = unpack_edge_key(key);
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let total = *offsets.last().unwrap() as usize;
        let mut targets = vec![0 as VertexId; total];
        let mut weights = vec![0 as EdgeWeight; total];
        for &key in &pairs {
            let (a, b) = unpack_edge_key(key);
            let w: EdgeWeight = if g.has_edge(a, b) && g.has_edge(b, a) { 2 } else { 1 };
            let ca = cursor[a as usize] as usize;
            targets[ca] = b;
            weights[ca] = w;
            cursor[a as usize] += 1;
            let cb = cursor[b as usize] as usize;
            targets[cb] = a;
            weights[cb] = w;
            cursor[b as usize] += 1;
        }
        UndirectedGraph::from_csr(offsets, targets, weights)
    }

    /// The weighted conversion with its weights overwritten by 1.
    pub(crate) fn to_naive_undirected(g: &DirectedGraph) -> UndirectedGraph {
        let weighted = to_weighted_undirected(g);
        let (offsets, targets, weights) = weighted.as_csr();
        UndirectedGraph::from_csr(offsets.to_vec(), targets.to_vec(), vec![1; weights.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// The example of Fig. 1: a directed graph whose reciprocal edges get
    /// weight 2 in the converted graph.
    #[test]
    fn figure_1_conversion() {
        // Vertices 0,1,2 in partitions; edges: 0->1, 1->0, 1->2, 2->1, 0->2.
        let d =
            GraphBuilder::new(3).add_edges([(0, 1), (1, 0), (1, 2), (2, 1), (0, 2)]).build();
        let u = to_weighted_undirected(&d);
        assert_eq!(u.edge_weight(0, 1), Some(2));
        assert_eq!(u.edge_weight(1, 2), Some(2));
        assert_eq!(u.edge_weight(0, 2), Some(1));
        assert_eq!(u.total_weight(), 2 * d.num_edges());
    }

    #[test]
    fn single_direction_edges_get_weight_one() {
        let d = GraphBuilder::new(4).add_edges([(0, 1), (1, 2), (2, 3)]).build();
        let u = to_weighted_undirected(&d);
        for (_, _, w) in u.edges_once() {
            assert_eq!(w, 1);
        }
        assert_eq!(u.num_edges(), 3);
    }

    #[test]
    fn total_weight_equals_twice_directed_edges() {
        let d = GraphBuilder::new(6)
            .add_edges([(0, 1), (1, 0), (2, 3), (3, 4), (4, 3), (5, 0), (0, 5), (1, 5)])
            .build();
        let u = to_weighted_undirected(&d);
        assert_eq!(u.total_weight(), 2 * d.num_edges());
    }

    #[test]
    fn naive_conversion_loses_weights() {
        let d = GraphBuilder::new(2).add_edges([(0, 1), (1, 0)]).build();
        let naive = to_naive_undirected(&d);
        assert_eq!(naive.edge_weight(0, 1), Some(1));
        let weighted = to_weighted_undirected(&d);
        assert_eq!(weighted.edge_weight(0, 1), Some(2));
    }

    #[test]
    fn conversion_of_empty_and_singleton() {
        let e = GraphBuilder::new(0).build();
        assert_eq!(to_weighted_undirected(&e).num_vertices(), 0);
        let s = GraphBuilder::new(1).build();
        let u = to_weighted_undirected(&s);
        assert_eq!(u.num_vertices(), 1);
        assert_eq!(u.num_edges(), 0);
    }
}
