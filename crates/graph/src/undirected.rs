//! Weighted undirected graph in symmetric CSR form.
//!
//! This is the representation Spinner actually partitions: the result of the
//! Eq. 3 conversion, where each undirected edge carries weight 1 or 2
//! counting the directed edges between its endpoints (and therefore the
//! messages a Pregel application exchanges across it).

use crate::ids::{EdgeWeight, VertexId};

/// A symmetric weighted undirected graph.
///
/// Each undirected edge `{u, v}` appears in both adjacency lists with the same
/// weight. Adjacency lists are sorted by target, enabling `O(log deg)` edge
/// lookup. Sorted, symmetric rows are also what the Pregel engine's
/// per-worker broadcast fan-out index relies on: the senders whose
/// broadcasts reach a vertex are exactly its own row, so each worker builds
/// its index as the transpose of its own rows, in each sender's adjacency
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndirectedGraph {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Vec<EdgeWeight>,
    /// Sum of `weights` over all (directed) adjacency entries; equals
    /// `2 * (number of directed edges in the source graph)` after conversion.
    total_weight: u64,
}

impl Default for UndirectedGraph {
    /// The graph with no vertices.
    fn default() -> Self {
        Self { offsets: vec![0], targets: Vec::new(), weights: Vec::new(), total_weight: 0 }
    }
}

impl UndirectedGraph {
    /// Builds from symmetric CSR arrays. Invariants (checked in debug builds):
    /// sorted+deduplicated adjacency, symmetry with equal weights, no
    /// self-loops, `offsets` well-formed.
    pub(crate) fn from_csr(
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
        weights: Vec<EdgeWeight>,
    ) -> Self {
        let total_weight = weights.iter().map(|&w| u64::from(w)).sum();
        let g = Self { offsets, targets, weights, total_weight };
        g.debug_check();
        g
    }

    /// Rewrites the graph in place: `write` gets the CSR arrays `(offsets,
    /// targets, weights)`, must leave in them arrays [`Self::from_csr`]
    /// accepts and returns their total weight, so a caller that rebuilds a
    /// graph every round can reuse this one's buffers and carry the total
    /// over instead of summing it again.
    pub(crate) fn rewrite(
        &mut self,
        write: impl FnOnce(&mut Vec<u64>, &mut Vec<VertexId>, &mut Vec<EdgeWeight>) -> u64,
    ) {
        self.total_weight = write(&mut self.offsets, &mut self.targets, &mut self.weights);
        self.debug_check();
    }

    /// The invariants of freshly written arrays and their total weight,
    /// checked in debug builds.
    fn debug_check(&self) {
        debug_assert_eq!(self.targets.len(), self.weights.len());
        debug_assert_eq!(*self.offsets.last().unwrap() as usize, self.targets.len());
        debug_assert_eq!(
            self.total_weight,
            self.weights.iter().map(|&w| u64::from(w)).sum::<u64>(),
            "total weight out of sync with the weights"
        );
        #[cfg(debug_assertions)]
        self.check_symmetry();
    }

    #[cfg(debug_assertions)]
    fn check_symmetry(&self) {
        for v in 0..self.num_vertices() {
            let (ts, ws) = self.neighbors(v);
            debug_assert!(ts.windows(2).all(|w| w[0] < w[1]), "unsorted adjacency at {v}");
            for (&t, &w) in ts.iter().zip(ws) {
                debug_assert_ne!(t, v, "self loop at {v}");
                let back = self.edge_weight(t, v);
                debug_assert_eq!(back, Some(w), "asymmetric edge {v}-{t}");
            }
        }
    }

    /// The number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> VertexId {
        (self.offsets.len() - 1) as VertexId
    }

    /// The number of undirected edges (each `{u,v}` counted once).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64 / 2
    }

    /// Total edge weight counted from both endpoints: `Σ_v deg_w(v)`.
    ///
    /// After Eq. 3 conversion this equals twice the number of directed edges
    /// of the original graph, i.e. twice the number of messages per
    /// "broadcast to all neighbours" superstep.
    #[inline]
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Number of adjacency entries (`2 * num_edges`).
    #[inline]
    pub fn num_adjacency_entries(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Unweighted degree of `v` (number of distinct neighbours).
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Weighted degree `deg_w(v) = Σ_u w(u, v)`: the load contribution of `v`
    /// in the paper's balance objective (Eq. 6).
    #[inline]
    pub fn weighted_degree(&self, v: VertexId) -> u64 {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.weights[lo..hi].iter().map(|&w| w as u64).sum()
    }

    /// The sorted neighbour ids and matching weights of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> (&[VertexId], &[EdgeWeight]) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// The weight of edge `{u, v}`, or `None` if absent.
    #[inline]
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<EdgeWeight> {
        let (ts, ws) = self.neighbors(u);
        ts.binary_search(&v).ok().map(|i| ws[i])
    }

    /// Index of `v` inside `u`'s adjacency run, if present. Exposed so that
    /// engines storing per-edge values in parallel arrays can address them.
    #[inline]
    pub fn edge_index(&self, u: VertexId, v: VertexId) -> Option<usize> {
        let lo = self.offsets[u as usize] as usize;
        let (ts, _) = self.neighbors(u);
        ts.binary_search(&v).ok().map(|i| lo + i)
    }

    /// Iterates over each undirected edge once as `(u, v, w)` with `u < v`.
    pub fn edges_once(&self) -> impl Iterator<Item = (VertexId, VertexId, EdgeWeight)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            let (ts, ws) = self.neighbors(u);
            ts.iter().zip(ws).filter_map(
                move |(&v, &w)| {
                    if u < v {
                        Some((u, v, w))
                    } else {
                        None
                    }
                },
            )
        })
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices()
    }

    /// Borrow of the raw symmetric CSR arrays `(offsets, targets, weights)`.
    pub fn as_csr(&self) -> (&[u64], &[VertexId], &[EdgeWeight]) {
        (&self.offsets, &self.targets, &self.weights)
    }

    /// Heap memory used by the CSR arrays, in bytes (for reporting).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u64>()
            + self.targets.capacity() * std::mem::size_of::<VertexId>()
            + self.weights.capacity()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::conversion::to_weighted_undirected;

    fn triangle() -> crate::UndirectedGraph {
        // 0->1, 1->0 (reciprocal), 1->2, 2->0
        let d = GraphBuilder::new(3).add_edges([(0, 1), (1, 0), (1, 2), (2, 0)]).build();
        to_weighted_undirected(&d)
    }

    #[test]
    fn weighted_degrees_and_totals() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        // Eq. 3: {0,1} has both directions -> w=2; {1,2}, {0,2} -> w=1.
        assert_eq!(g.edge_weight(0, 1), Some(2));
        assert_eq!(g.edge_weight(1, 2), Some(1));
        assert_eq!(g.edge_weight(0, 2), Some(1));
        assert_eq!(g.weighted_degree(0), 3);
        assert_eq!(g.weighted_degree(1), 3);
        assert_eq!(g.weighted_degree(2), 2);
        // Σ deg_w = 2 * |directed edges| = 8
        assert_eq!(g.total_weight(), 8);
    }

    #[test]
    fn edges_once_yields_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges_once().collect();
        assert_eq!(edges, vec![(0, 1, 2), (0, 2, 1), (1, 2, 1)]);
    }

    #[test]
    fn edge_index_matches_weight_lookup() {
        let g = triangle();
        let (_, _, weights) = g.as_csr();
        for (u, v, w) in g.edges_once() {
            let i = g.edge_index(u, v).unwrap();
            assert_eq!(weights[i], w);
            let j = g.edge_index(v, u).unwrap();
            assert_eq!(weights[j], w);
        }
        assert_eq!(g.edge_index(0, 0), None);
    }
}
