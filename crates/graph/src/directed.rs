//! Directed graph in compressed sparse row (CSR) form.

use crate::error::GraphError;
use crate::ids::VertexId;

/// An immutable directed graph stored in CSR form.
///
/// Vertices are densely numbered `0..num_vertices()`. Out-neighbour lists are
/// sorted and deduplicated; self-loops are removed at construction. This is
/// the input representation for the Spinner pipeline: the paper's data model
/// (Pregel/Giraph) is a distributed directed graph where every vertex knows
/// its outgoing edges only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectedGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`.
    offsets: Vec<u64>,
    /// Concatenated out-neighbour lists, sorted within each vertex.
    targets: Vec<VertexId>,
}

impl Default for DirectedGraph {
    /// The graph with no vertices.
    fn default() -> Self {
        Self { offsets: vec![0], targets: Vec::new() }
    }
}

impl DirectedGraph {
    /// Builds a graph directly from CSR arrays.
    ///
    /// Callers must guarantee: `offsets.len() == n + 1`, `offsets[0] == 0`,
    /// offsets are non-decreasing, `offsets[n] == targets.len()`, each
    /// adjacency run is sorted/deduplicated, and all targets are `< n`.
    /// [`crate::builder::GraphBuilder`] produces such arrays; this
    /// constructor checks the invariants in debug builds.
    pub(crate) fn from_csr(offsets: Vec<u64>, targets: Vec<VertexId>) -> Self {
        let g = Self { offsets, targets };
        g.debug_check();
        g
    }

    /// Builds a graph from CSR arrays read from outside the program (a
    /// decoded file, say), checking what the crate's own builders only
    /// debug-assert: the offsets run from 0 up to `targets.len()` without
    /// descending, every row ascends strictly and every target is below the
    /// vertex count. It also checks that no vertex lists itself.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] for a target at or beyond the vertex
    /// count; [`GraphError::InvalidArgument`] for bad offsets, for more than
    /// `VertexId::MAX` vertices, and for a row that is not strictly
    /// ascending or names its own vertex.
    pub fn try_from_csr(offsets: Vec<u64>, targets: Vec<VertexId>) -> Result<Self, GraphError> {
        let invalid = |what: &str| Err(GraphError::InvalidArgument(format!("CSR: {what}")));
        let n = offsets.len().saturating_sub(1);
        if offsets.first() != Some(&0) || n > VertexId::MAX as usize {
            return invalid("offsets must start at 0 and name at most VertexId::MAX vertices");
        }
        let len = targets.len() as u64;
        if offsets[n] != len {
            return invalid("the last offset must equal the target count");
        }
        for (v, ends) in offsets.windows(2).enumerate() {
            if ends[0] > ends[1] || ends[1] > len {
                return invalid("offsets must not descend");
            }
            let row = &targets[ends[0] as usize..ends[1] as usize];
            if let Some(&t) = row.iter().find(|&&t| t as usize >= n) {
                let (vertex, num_vertices) = (u64::from(t), n as u64);
                return Err(GraphError::VertexOutOfRange { vertex, num_vertices });
            }
            if row.windows(2).any(|pair| pair[0] >= pair[1]) {
                return invalid("a row must ascend strictly");
            }
            if row.binary_search(&(v as VertexId)).is_ok() {
                return invalid("a row must not name its own vertex");
            }
        }
        Ok(Self { offsets, targets })
    }

    /// Rewrites the graph in place: `write` gets the CSR arrays and must
    /// leave in them arrays [`Self::from_csr`] accepts, so a caller that
    /// rebuilds a graph every round can reuse this one's buffers.
    pub(crate) fn rewrite(&mut self, write: impl FnOnce(&mut Vec<u64>, &mut Vec<VertexId>)) {
        write(&mut self.offsets, &mut self.targets);
        self.debug_check();
    }

    /// The invariants of [`Self::from_csr`], checked in debug builds.
    fn debug_check(&self) {
        let offsets = &self.offsets;
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets[0], 0);
        debug_assert_eq!(*offsets.last().unwrap() as usize, self.targets.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!((0..self.num_vertices()).all(|v| {
            self.out_neighbors(v).windows(2).all(|w| w[0] < w[1])
                && self.out_neighbors(v).iter().all(|&t| t < self.num_vertices())
        }));
    }

    /// The number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> VertexId {
        (self.offsets.len() - 1) as VertexId
    }

    /// The number of directed edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// The sorted out-neighbour list of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Whether the directed edge `(u, v)` exists (binary search).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all directed edges `(src, dst)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices())
            .flat_map(move |v| self.out_neighbors(v).iter().map(move |&t| (v, t)))
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices()
    }

    /// Borrow of the raw CSR arrays `(offsets, targets)`.
    pub fn as_csr(&self) -> (&[u64], &[VertexId]) {
        (&self.offsets, &self.targets)
    }

    /// Heap memory used by the CSR arrays, in bytes (for reporting).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u64>()
            + self.targets.capacity() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn basic_accessors() {
        let g = GraphBuilder::new(4).add_edges([(0, 1), (0, 2), (1, 2), (3, 0)]).build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(2), 0);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edges_iterator_covers_all_edges() {
        let g = GraphBuilder::new(3).add_edges([(0, 1), (1, 2), (2, 0)]).build();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn checked_csr_accepts_a_built_graph_and_rejects_each_broken_invariant() {
        let g = GraphBuilder::new(4).add_edges([(0, 1), (0, 2), (1, 2), (3, 0)]).build();
        let (offsets, targets) = g.as_csr();
        assert_eq!(DirectedGraph::try_from_csr(offsets.to_vec(), targets.to_vec()).unwrap(), g);
        assert_eq!(
            DirectedGraph::try_from_csr(vec![0], vec![]).unwrap(),
            DirectedGraph::default()
        );
        let out_of_range = DirectedGraph::try_from_csr(vec![0, 1, 1], vec![2]);
        assert!(matches!(out_of_range, Err(GraphError::VertexOutOfRange { vertex: 2, .. })));
        for (offsets, targets) in [
            (vec![], vec![]),
            (vec![1, 1], vec![0]),
            (vec![0, 2], vec![1]),
            (vec![0, 2, 1], vec![1]),
            (vec![0, 2, 2, 2], vec![2, 1]),
            (vec![0, 2, 2, 2], vec![1, 1]),
            (vec![0, 1, 1], vec![0]),
        ] {
            let err = DirectedGraph::try_from_csr(offsets.clone(), targets).unwrap_err();
            assert!(matches!(err, GraphError::InvalidArgument(_)), "{offsets:?}: {err}");
        }
    }

    #[test]
    fn isolated_vertices_have_empty_neighborhoods() {
        let g = GraphBuilder::new(5).add_edges([(0, 4)]).build();
        for v in 1..4 {
            assert_eq!(g.out_degree(v), 0);
            assert!(g.out_neighbors(v).is_empty());
        }
    }
}
