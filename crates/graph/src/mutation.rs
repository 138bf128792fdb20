//! Dynamic-graph support: deltas and realistic new-edge sampling.
//!
//! §V-C of the paper takes a Tuenti snapshot, adds "a varying number of edges
//! that correspond to actual new friendships", and measures how cheaply
//! Spinner adapts the previous partitioning. We cannot replay Tuenti's
//! friendship log, so [`sample_new_edges`] generates new friendships with the
//! canonical social-network mechanism: most new edges close open triangles
//! (friend-of-friend), the rest connect random pairs.

use crate::buffer::Fit;
use crate::directed::DirectedGraph;
use crate::ids::VertexId;
use crate::rng::SplitMix64;

/// A batch of changes to apply to a directed graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Directed edges to add.
    pub added_edges: Vec<(VertexId, VertexId)>,
    /// Directed edges to remove (ignored if absent).
    pub removed_edges: Vec<(VertexId, VertexId)>,
    /// Number of brand-new vertices appended after the current id range.
    pub new_vertices: VertexId,
}

impl GraphDelta {
    /// A delta that only adds edges.
    pub fn additions(edges: Vec<(VertexId, VertexId)>) -> Self {
        Self { added_edges: edges, ..Self::default() }
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.added_edges.is_empty() && self.removed_edges.is_empty() && self.new_vertices == 0
    }

    /// The delta that undoes this one relative to `base`: applying `self` to
    /// `base` and then the inverse to the result yields `base` again.
    ///
    /// Normalisation happens against `base` because [`apply_delta`] is not
    /// injective on deltas — removing an absent edge or re-adding a removed
    /// one is a no-op, so a naive swap of the add/remove lists would not
    /// round-trip. The inverse removes exactly the additions that were
    /// genuinely new (`added \ E(base)`) and restores exactly the removals
    /// that genuinely existed and were not re-added (`removed ∩ E(base) \
    /// added`).
    ///
    /// Vertex additions are not invertible (ids are dense and stable, so a
    /// graph never loses vertices); inverting a delta with `new_vertices > 0`
    /// — or with added edges whose endpoints lie outside `base`'s id range,
    /// which mint vertices implicitly through [`apply_delta`] — panics.
    pub fn inverse(&self, base: &DirectedGraph) -> GraphDelta {
        assert_eq!(self.new_vertices, 0, "vertex additions cannot be inverted");
        let n = base.num_vertices();
        assert!(
            self.added_edges.iter().all(|&(u, v)| u < n && v < n),
            "added edges outside the base id range mint vertices and cannot be inverted"
        );
        let mut undo_add: Vec<(VertexId, VertexId)> = self
            .added_edges
            .iter()
            .copied()
            .filter(|&(u, v)| u != v && !base.has_edge(u, v))
            .collect();
        undo_add.sort_unstable();
        undo_add.dedup();
        // Removals of out-of-range (hence absent) edges are no-ops under
        // apply_delta, so they contribute nothing to the inverse. The added
        // set is indexed once so large churn deltas invert in linear time.
        let added: std::collections::HashSet<u64> =
            self.added_edges.iter().map(|&(u, v)| crate::ids::edge_key(u, v)).collect();
        let mut undo_remove: Vec<(VertexId, VertexId)> = self
            .removed_edges
            .iter()
            .copied()
            .filter(|&(u, v)| {
                u < n && base.has_edge(u, v) && !added.contains(&crate::ids::edge_key(u, v))
            })
            .collect();
        undo_remove.sort_unstable();
        undo_remove.dedup();
        GraphDelta { added_edges: undo_remove, removed_edges: undo_add, new_vertices: 0 }
    }
}

/// Applies a delta, producing the updated graph.
///
/// Self-loop additions are dropped, an addition wins over a removal of the
/// same edge, and removing an absent edge is a no-op. The result has
/// `g.num_vertices() + delta.new_vertices` vertices, grown further to fit
/// any addition whose endpoint lies past that range.
///
/// Cost is `O(|V| + |E| + |Δ| log |Δ|)`: only the delta is sorted, and each
/// CSR row is written once, as the old row copied in slices between that
/// row's edits (rows the delta does not touch are block copies). Whether an
/// edit takes effect is read where the merge lands on it, with no lookup
/// of its own. The result's arrays are allocated once, the targets for
/// every addition taking effect and then shrunk to their final size.
pub fn apply_delta(g: &DirectedGraph, delta: &GraphDelta) -> DirectedGraph {
    let mut out = DirectedGraph::default();
    write_delta(g, delta, &mut out, Fit::Exact);
    out
}

/// [`apply_delta`] into a recycled graph: `out`'s previous contents are
/// discarded and its buffers hold the result. A buffer that is too small is
/// replaced, with headroom ([`crate::buffer::refit`]), so a stream that
/// ping-pongs two graphs allocates nothing once they fit.
pub fn apply_delta_into(g: &DirectedGraph, delta: &GraphDelta, out: &mut DirectedGraph) {
    write_delta(g, delta, out, Fit::Recycled);
}

fn write_delta(g: &DirectedGraph, delta: &GraphDelta, out: &mut DirectedGraph, fit: Fit) {
    let old_n = g.num_vertices();
    let mut added: Vec<(VertexId, VertexId)> =
        delta.added_edges.iter().copied().filter(|&(u, v)| u != v).collect();
    added.sort_unstable();
    added.dedup();
    // A removal from a row past the old range is of an absent edge.
    let mut removed: Vec<(VertexId, VertexId)> =
        delta.removed_edges.iter().copied().filter(|&(u, _)| u < old_n).collect();
    removed.sort_unstable();
    removed.dedup();
    let n = added.iter().fold(old_n + delta.new_vertices, |n, &(u, v)| n.max(u.max(v) + 1));
    out.rewrite(|offsets, targets| {
        fit.size(offsets, n as usize + 1);
        fit.size(targets, g.num_edges() as usize + added.len());
        let (csr, out) = (g.as_csr(), (&mut *offsets, &mut *targets));
        merge_rows(csr, n as usize, [&[], &added], [&[], &removed], out, |_, _, _| {});
        fit.trim(targets);
    });
}

/// The edits of one side of a row merge — additions or removals — as two
/// lists of `(row, target)`, each sorted and deduplicated, where every
/// target a row has in the first list is below every target it has in the
/// second. A view patch lists the orientation of each pair that points
/// down first and the one that points up second (no one list holds both,
/// so neither is larger than the pairs themselves); a directed delta leaves
/// the first list empty.
pub(crate) type Edits<'a> = [&'a [(VertexId, VertexId)]; 2];

/// The row-merge kernel behind [`apply_delta`] and
/// [`crate::conversion::patch_undirected_edges`]: writes into the empty
/// `out` the CSR `(offsets, targets)` over `n` rows (rows past the old range
/// start empty), row `u` becoming its old row with its additions put in and
/// its removals taken out.
///
/// The edits are requests, resolved where the merge lands on them: adding
/// an edge the old row has, or removing one it lacks, is a no-op, and an
/// addition wins over a removal of the same edge. `changed` hears every
/// edit that took effect, as `(row, target, added)`, in ascending
/// `(row, target)` order within each list. The caller sizes `out` for
/// `n + 1` offsets and for `targets.len()` plus the additions targets, an
/// upper bound on the result, so nothing grows. Runs of rows the edits do
/// not touch are copied as one block.
pub(crate) fn merge_rows(
    (offsets, targets): (&[u64], &[VertexId]),
    n: usize,
    mut added: Edits<'_>,
    mut removed: Edits<'_>,
    (out_offsets, out_targets): (&mut Vec<u64>, &mut Vec<VertexId>),
    mut changed: impl FnMut(VertexId, VertexId, bool),
) {
    let old_n = offsets.len() - 1;
    debug_assert!(out_offsets.is_empty() && out_targets.is_empty());
    let bound = targets.len() + added[0].len() + added[1].len();
    debug_assert!(out_offsets.capacity() > n && out_targets.capacity() >= bound);
    out_offsets.push(0);
    let mut u = 0;
    while u < n {
        let src = |run: &[(VertexId, VertexId)]| run.first().map_or(n, |e| e.0 as usize);
        let next = added.iter().chain(&removed).map(|run| src(run)).min().unwrap_or(n);
        let copy_end = next.min(old_n).max(u);
        if u < copy_end {
            let (lo, base) = (offsets[u], out_targets.len() as u64);
            out_offsets.extend(offsets[u + 1..=copy_end].iter().map(|&o| o - lo + base));
            out_targets.extend_from_slice(&targets[lo as usize..offsets[copy_end] as usize]);
        }
        out_offsets.resize(next + 1, out_targets.len() as u64);
        if next == n {
            break;
        }
        let old_row = match offsets.get(next..next + 2) {
            Some(&[lo, hi]) => &targets[lo as usize..hi as usize],
            _ => &[],
        };
        let [a0, a1] = [split_row(&mut added[0], next), split_row(&mut added[1], next)];
        let [r0, r1] = [split_row(&mut removed[0], next), split_row(&mut removed[1], next)];
        // The first lists' targets all lie below the second lists', so the
        // old row splits after the first lists' last target, and each part
        // merges with its own runs.
        let split =
            a0.last().max(r0.last()).map_or(0, |e| old_row.partition_point(|&t| t <= e.1));
        merge_row(&old_row[..split], a0, r0, out_targets, &mut changed);
        merge_row(&old_row[split..], a1, r1, out_targets, &mut changed);
        out_offsets.push(out_targets.len() as u64);
        u = next + 1;
    }
    debug_assert!(out_targets.len() <= bound);
}

/// Splits row `row`'s run off the front of `edits`. A run is a few edits
/// long, so it is counted from the front, not searched for.
fn split_row<'a>(
    edits: &mut &'a [(VertexId, VertexId)],
    row: usize,
) -> &'a [(VertexId, VertexId)] {
    let len = edits.iter().take_while(|e| e.0 as usize == row).count();
    let (run, rest) = edits.split_at(len);
    *edits = rest;
    run
}

/// Writes one row's part `old` (sorted) with the row's `added` put in and
/// `removed` taken out (both sorted by target), as [`merge_rows`] resolves
/// them. The old row goes over in slices: each edit's position is a
/// binary search of what is left of it, and everything before that
/// position is copied whole.
fn merge_row(
    mut old: &[VertexId],
    mut added: &[(VertexId, VertexId)],
    mut removed: &[(VertexId, VertexId)],
    out: &mut Vec<VertexId>,
    changed: &mut impl FnMut(VertexId, VertexId, bool),
) {
    loop {
        let ((row, t), add) = match (added.first(), removed.first()) {
            (None, None) => break,
            (Some(&a), Some(&r)) if r.1 < a.1 => (r, false),
            (Some(&a), _) => (a, true),
            (None, Some(&r)) => (r, false),
        };
        let at = old.partition_point(|&x| x < t);
        out.extend_from_slice(&old[..at]);
        let present = old.get(at) == Some(&t);
        if add {
            added = &added[1..];
            // An addition wins over a removal of the same edge.
            if removed.first().is_some_and(|r| r.1 == t) {
                removed = &removed[1..];
            }
            out.push(t);
        } else {
            removed = &removed[1..];
        }
        if present != add {
            changed(row, t, add);
        }
        old = &old[at + usize::from(present)..];
    }
    out.extend_from_slice(old);
}

/// The `GraphBuilder` rebuild `apply_delta` used before the row merge
/// (`O(E log E)`), kept as the oracle the merge is compared against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::GraphDelta;
    use crate::builder::GraphBuilder;
    use crate::directed::DirectedGraph;
    use crate::ids::edge_key;

    /// Re-sorts every surviving edge plus the additions.
    pub(crate) fn apply_delta(g: &DirectedGraph, delta: &GraphDelta) -> DirectedGraph {
        let n = g.num_vertices() + delta.new_vertices;
        let mut removed: Vec<u64> =
            delta.removed_edges.iter().map(|&(u, v)| edge_key(u, v)).collect();
        removed.sort_unstable();
        let mut b = GraphBuilder::new(n)
            .with_edge_capacity(g.num_edges() as usize + delta.added_edges.len());
        for (u, v) in g.edges() {
            if removed.binary_search(&edge_key(u, v)).is_err() {
                b.add_edge(u, v);
            }
        }
        for &(u, v) in &delta.added_edges {
            b.add_edge(u, v);
        }
        b.build()
    }
}

/// Samples `count` plausible new friendship edges not present in `g`.
///
/// With probability `triadic_fraction` an edge closes an open triangle
/// (a random two-hop path from a random endpoint); otherwise it joins a
/// uniformly random pair. All sampled edges are distinct and absent from `g`.
pub fn sample_new_edges(
    g: &DirectedGraph,
    count: usize,
    triadic_fraction: f64,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let n = g.num_vertices() as u64;
    assert!(n >= 2, "need at least two vertices");
    let mut rng = SplitMix64::new(seed);
    let mut out: Vec<(VertexId, VertexId)> = Vec::with_capacity(count);
    let mut seen: std::collections::HashSet<u64> =
        std::collections::HashSet::with_capacity(count * 2);
    let mut attempts = 0usize;
    let max_attempts = count.saturating_mul(100).max(10_000);
    while out.len() < count && attempts < max_attempts {
        attempts += 1;
        let candidate = if rng.next_bool(triadic_fraction) {
            triadic_candidate(g, &mut rng)
        } else {
            let u = rng.next_bounded(n) as VertexId;
            let v = rng.next_bounded(n) as VertexId;
            Some((u, v))
        };
        let Some((u, v)) = candidate else {
            continue;
        };
        if u == v || g.has_edge(u, v) {
            continue;
        }
        let key = crate::ids::edge_key(u, v);
        if seen.insert(key) {
            out.push((u, v));
        }
    }
    out
}

/// Samples up to `count` distinct existing edges to delete (friendships that
/// end). Uniform over the edge set: an edge index is drawn and located in the
/// CSR offsets by binary search, so each draw is O(log n) regardless of the
/// degree distribution.
pub fn sample_removed_edges(
    g: &DirectedGraph,
    count: usize,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let m = g.num_edges();
    if m == 0 {
        return Vec::new();
    }
    let (offsets, targets) = g.as_csr();
    let mut rng = SplitMix64::new(seed ^ 0xDE1E7E);
    let mut picked: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut out = Vec::new();
    let want = count.min(m as usize);
    let mut attempts = 0usize;
    let max_attempts = want.saturating_mul(64).max(4_096);
    while out.len() < want && attempts < max_attempts {
        attempts += 1;
        let e = rng.next_bounded(m);
        if !picked.insert(e) {
            continue;
        }
        // `partition_point` finds the first offset beyond e; its predecessor
        // is the source vertex owning CSR slot e.
        let src = offsets.partition_point(|&o| o <= e) - 1;
        out.push((src as VertexId, targets[e as usize]));
    }
    out
}

/// One friend-of-friend candidate: follow two random out-hops from a random
/// start vertex.
fn triadic_candidate(g: &DirectedGraph, rng: &mut SplitMix64) -> Option<(VertexId, VertexId)> {
    let n = g.num_vertices() as u64;
    let u = rng.next_bounded(n) as VertexId;
    let nu = g.out_neighbors(u);
    if nu.is_empty() {
        return None;
    }
    let w = nu[rng.next_bounded(nu.len() as u64) as usize];
    let nw = g.out_neighbors(w);
    if nw.is_empty() {
        return None;
    }
    let v = nw[rng.next_bounded(nw.len() as u64) as usize];
    Some((u, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{planted_partition, SbmConfig};

    fn graph() -> DirectedGraph {
        planted_partition(SbmConfig {
            n: 2000,
            communities: 8,
            internal_degree: 6.0,
            external_degree: 1.0,
            skew: None,
            seed: 3,
        })
    }

    #[test]
    fn apply_delta_adds_and_removes() {
        let g = GraphBuilder::new(3).add_edges([(0, 1), (1, 2)]).build();
        let d = GraphDelta {
            added_edges: vec![(2, 0)],
            removed_edges: vec![(0, 1)],
            new_vertices: 1,
        };
        let g2 = apply_delta(&g, &d);
        assert_eq!(g2.num_vertices(), 4);
        assert!(g2.has_edge(2, 0));
        assert!(!g2.has_edge(0, 1));
        assert!(g2.has_edge(1, 2));
    }

    #[test]
    fn sampled_edges_are_new_and_distinct() {
        let g = graph();
        let edges = sample_new_edges(&g, 500, 0.8, 9);
        assert_eq!(edges.len(), 500);
        let mut keys: Vec<_> = edges.iter().map(|&(u, v)| crate::ids::edge_key(u, v)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 500);
        for (u, v) in edges {
            assert!(!g.has_edge(u, v));
            assert_ne!(u, v);
        }
    }

    #[test]
    fn triadic_edges_tend_to_stay_in_communities() {
        let g = graph();
        let n = g.num_vertices() as u64;
        let triadic = sample_new_edges(&g, 400, 1.0, 5);
        let random = sample_new_edges(&g, 400, 0.0, 5);
        let in_comm = |edges: &[(VertexId, VertexId)]| {
            edges.iter().filter(|&&(u, v)| u as u64 * 8 / n == v as u64 * 8 / n).count() as f64
                / edges.len() as f64
        };
        assert!(
            in_comm(&triadic) > in_comm(&random) + 0.2,
            "triadic {} vs random {}",
            in_comm(&triadic),
            in_comm(&random)
        );
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = graph();
        let g2 = apply_delta(&g, &GraphDelta::default());
        assert_eq!(g, g2);
    }

    #[test]
    fn inverse_round_trips_edge_deltas() {
        let g = graph();
        let delta = GraphDelta {
            added_edges: sample_new_edges(&g, 120, 0.7, 11),
            removed_edges: sample_removed_edges(&g, 80, 13),
            new_vertices: 0,
        };
        let g2 = apply_delta(&g, &delta);
        let back = apply_delta(&g2, &delta.inverse(&g));
        assert_eq!(g, back);
    }

    #[test]
    fn inverse_handles_noop_removals_and_readds() {
        let g = GraphBuilder::new(4).add_edges([(0, 1), (1, 2), (2, 3)]).build();
        // (3, 0) is absent => its removal is a no-op; (1, 2) is removed and
        // re-added => survives; (0, 1) is a genuine removal.
        let delta = GraphDelta {
            added_edges: vec![(1, 2), (0, 2)],
            removed_edges: vec![(3, 0), (1, 2), (0, 1)],
            new_vertices: 0,
        };
        let g2 = apply_delta(&g, &delta);
        assert!(g2.has_edge(1, 2) && g2.has_edge(0, 2) && !g2.has_edge(0, 1));
        let inv = delta.inverse(&g);
        assert_eq!(inv.removed_edges, vec![(0, 2)]);
        assert_eq!(inv.added_edges, vec![(0, 1)]);
        assert_eq!(apply_delta(&g2, &inv), g);
    }

    #[test]
    #[should_panic(expected = "cannot be inverted")]
    fn inverse_rejects_vertex_additions() {
        let g = graph();
        let _ = GraphDelta { new_vertices: 1, ..GraphDelta::default() }.inverse(&g);
    }

    #[test]
    #[should_panic(expected = "mint vertices")]
    fn inverse_rejects_out_of_range_additions() {
        let g = GraphBuilder::new(3).add_edges([(0, 1)]).build();
        // apply_delta would silently grow the graph to 6 vertices here.
        let _ = GraphDelta::additions(vec![(5, 0)]).inverse(&g);
    }

    #[test]
    fn inverse_ignores_out_of_range_removals() {
        let g = GraphBuilder::new(3).add_edges([(0, 1), (1, 2)]).build();
        let delta = GraphDelta {
            added_edges: vec![],
            removed_edges: vec![(7, 0), (0, 9), (0, 1)],
            new_vertices: 0,
        };
        let g2 = apply_delta(&g, &delta);
        let inv = delta.inverse(&g);
        assert_eq!(inv.added_edges, vec![(0, 1)]);
        assert_eq!(apply_delta(&g2, &inv), g);
    }

    #[test]
    fn removed_edge_sampler_yields_distinct_existing_edges() {
        let g = graph();
        let removed = sample_removed_edges(&g, 300, 7);
        assert_eq!(removed.len(), 300);
        let mut keys: Vec<_> =
            removed.iter().map(|&(u, v)| crate::ids::edge_key(u, v)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 300, "duplicate removals sampled");
        for (u, v) in removed {
            assert!(g.has_edge(u, v), "sampled a non-edge {u}->{v}");
        }
    }

    #[test]
    fn removed_edge_sampler_caps_at_edge_count() {
        let g = GraphBuilder::new(3).add_edges([(0, 1), (1, 2)]).build();
        let removed = sample_removed_edges(&g, 100, 1);
        assert_eq!(removed.len(), 2);
        let empty = GraphBuilder::new(2).build();
        assert!(sample_removed_edges(&empty, 5, 1).is_empty());
    }
}
