//! Shared type bounds and identifiers.

/// Identifier of a logical worker (a "machine" in Giraph terms).
pub type WorkerId = u16;

/// The all-to-all message exchange: a dense `W × W` matrix of [`Batch`]
/// cells, indexed `src * W + dst`. Cell `(i, j)` is published (swapped in)
/// by worker `i` at the end of its compute phase and drained by worker `j`
/// during its delivery phase; the two phases are separated by the superstep
/// barrier, so every lock is uncontended. Draining leaves the batch empty
/// but keeps its capacity, and the publish swap hands that capacity back to
/// the sender — a double buffer per cell, so the steady state allocates
/// nothing.
pub(crate) type OutboxGrid<M> = Vec<std::sync::Mutex<Batch<M>>>;

/// One batch of messages: `(id, msg)` records in send order, plus the
/// ascending positions of the **broadcast** records among them. A marked
/// record's id is the *sending* vertex, which the receiving worker fans out
/// to every local vertex in the sender's adjacency; any other id is a plain
/// destination. Broadcast and unicast records stay interleaved in one
/// buffer — which is what preserves per-vertex delivery order exactly —
/// while the marks travel beside them, so every vertex id stays usable.
/// The same layout backs each worker's outboxes, its local fast-path queue
/// and the grid cells, and maps onto a wire frame's sections.
#[derive(Debug)]
pub(crate) struct Batch<M> {
    pub(crate) records: Vec<(spinner_graph::VertexId, M)>,
    pub(crate) marks: Vec<u32>,
}

impl<M> Default for Batch<M> {
    fn default() -> Self {
        Self { records: Vec::new(), marks: Vec::new() }
    }
}

impl<M> Batch<M> {
    pub(crate) fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Empties both buffers, keeping their capacity.
    pub(crate) fn clear(&mut self) {
        self.records.clear();
        self.marks.clear();
    }

    /// Appends a record; `broadcast` marks `id` as the sending vertex.
    #[inline]
    pub(crate) fn push(&mut self, broadcast: bool, id: spinner_graph::VertexId, msg: M) {
        if broadcast {
            self.marks.push(self.records.len() as u32);
        }
        self.records.push((id, msg));
    }

    /// Visits every record in order through `visit(broadcast, id)` without
    /// consuming it and returns the sum of what `visit` returned.
    pub(crate) fn scan(&self, mut visit: impl FnMut(bool, u64) -> u64) -> u64 {
        let mut marks = self.marks.iter().map(|&m| m as usize).peekable();
        let mut total = 0;
        for (pos, &(id, _)) in self.records.iter().enumerate() {
            let broadcast = marks.next_if_eq(&pos).is_some();
            total += visit(broadcast, u64::from(id));
        }
        debug_assert!(marks.next().is_none(), "every mark names a record");
        total
    }

    /// Drains every record, in the order [`Self::scan`] visits them,
    /// through `stage(broadcast, id, msg)`.
    pub(crate) fn drain(&mut self, mut stage: impl FnMut(bool, u64, M)) {
        let mut marks = self.marks.iter().map(|&m| m as usize).peekable();
        for (pos, (id, msg)) in self.records.drain(..).enumerate() {
            let broadcast = marks.next_if_eq(&pos).is_some();
            stage(broadcast, u64::from(id), msg);
        }
        self.marks.clear();
    }
}

/// Sentinel in a broadcast plan's `lone` track: the sender has more than one
/// neighbour on that destination worker, so a marked broadcast record is
/// shipped. Any other value is the lone neighbour's position in the
/// sender's adjacency, shipped as a plain unicast record — one record
/// either way, but the unicast skips the receiver's fan-out lookup (and
/// the sender stamps it from the edge at that position).
pub(crate) const BROADCAST_MULTI: u32 = u32::MAX;

/// Bound for all user data carried by the engine (vertex values, edge
/// values, messages, global state). Auto-implemented.
pub trait Value: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Value for T {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_value<T: Value>() {}

    #[test]
    fn common_types_are_values() {
        assert_value::<u64>();
        assert_value::<f64>();
        assert_value::<(u32, u32)>();
        assert_value::<Vec<i64>>();
        assert_value::<()>();
    }
}
