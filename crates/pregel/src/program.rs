//! The vertex-program and master-compute traits.

use crate::aggregate::{AggValue, AggregatorSpec};
use crate::context::VertexContext;
use crate::types::{Value, WorkerId};
use crate::wire::WirePayload;

/// A Pregel program: associated data types plus the per-vertex compute
/// function and the per-superstep master compute.
///
/// The program object itself is immutable during a run (shared by all
/// threads); mutable algorithm state lives in the vertex values (`V`), the
/// broadcast global state (`G`, mutated only by the master), and the
/// per-worker state (`W`, rebuilt each superstep).
pub trait Program: Send + Sync + Sized + 'static {
    /// Vertex value.
    type V: Value;
    /// Edge value.
    type E: Value;
    /// Message payload. The [`WirePayload`] bound gives every message a
    /// wire encoding, so any program can run behind a serialising
    /// [`crate::transport::Transport`]; scalar and pair payloads are
    /// covered by the blanket impls in [`crate::wire`].
    type M: Value + WirePayload;
    /// Global state broadcast to every vertex, mutated by [`Program::master`]
    /// between supersteps (Giraph: master compute + broadcast aggregators).
    type G: Value;
    /// Worker-local scratch state shared by all vertices on one logical
    /// worker within a superstep (Giraph: `WorkerContext`).
    type WorkerState: Send;

    /// Builds the initial global state (before superstep 0).
    fn init_global(&self) -> Self::G;

    /// Builds the worker-local state at the start of each superstep.
    fn init_worker(&self, global: &Self::G, worker: WorkerId) -> Self::WorkerState;

    /// Re-initialises last superstep's worker state in place instead of
    /// building a fresh one. Return `true` when `state` was fully reset;
    /// returning `false` (the default) makes the engine fall back to
    /// [`Program::init_worker`]. Implement this when the state owns heap
    /// buffers worth keeping warm across supersteps.
    fn reset_worker(
        &self,
        _state: &mut Self::WorkerState,
        _global: &Self::G,
        _worker: WorkerId,
    ) -> bool {
        false
    }

    /// The aggregators this program uses, addressed by index in
    /// [`VertexContext`] and [`MasterContext`].
    fn aggregators(&self) -> Vec<AggregatorSpec> {
        Vec::new()
    }

    /// The per-vertex compute function, invoked for every active vertex each
    /// superstep with the messages sent to it in the previous superstep.
    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[Self::M]);

    /// Master compute, invoked once after every superstep. Reads this
    /// superstep's aggregates, may mutate the global state for the next
    /// superstep, and may halt the computation.
    fn master(&self, _ctx: &mut MasterContext<'_, Self::G>) {}

    /// Optional message combiner: fold `msg` into `acc` (both addressed to
    /// the same vertex) and return `true`, or return `false` to keep
    /// messages separate. Must be commutative and associative.
    fn combine(&self, _acc: &mut Self::M, _msg: &Self::M) -> bool {
        false
    }

    /// How many low bits of each broadcast fan-out entry keep the
    /// [`Program::edge_weight`] the engine stamps at delivery (at most 8).
    /// Every weight must fit, and each bit halves the vertices one worker
    /// may host (`2^(32 - STAMP_BITS)`). The default, 0, stores no weight,
    /// and the engine then stamps no fanned-out copy.
    const STAMP_BITS: u32 = 0;

    /// The weight of an edge, as [`Program::stamp`] receives it. Read by
    /// the engine when it loads a topology (into the broadcast lane's
    /// fan-out index) and by [`VertexContext::broadcast`] for the copies
    /// the sender addresses itself. Defaults to 1.
    fn edge_weight(_edge: &Self::E) -> u8 {
        1
    }

    /// Stamps one copy of a [`VertexContext::broadcast`] message with the
    /// [`Program::edge_weight`] of the edge it crosses, so the receiver
    /// learns that weight without searching its own adjacency. The engine
    /// stamps the copies the broadcast lane fans out at delivery (given
    /// [`Program::STAMP_BITS`]); the sender stamps the copies it addresses
    /// itself. The default stamps nothing.
    fn stamp(_msg: &mut Self::M, _weight: u8) {}
}

/// Master-compute context: aggregate access, global state, and halt control.
pub struct MasterContext<'a, G> {
    /// The superstep that just finished.
    pub superstep: u64,
    /// The global state, broadcast to vertices next superstep.
    pub global: &'a mut G,
    /// Aggregated values of the superstep that just finished. Entries may be
    /// overwritten to "set" an aggregator for the next superstep (Giraph's
    /// `setAggregatedValue`).
    pub aggregates: &'a mut [AggValue],
    /// Vertices still active after this superstep.
    pub active: u64,
    /// Messages sent during this superstep.
    pub messages_sent: u64,
    pub(crate) halt: bool,
}

impl<'a, G> MasterContext<'a, G> {
    /// Reads an aggregate by registration index.
    pub fn read(&self, id: usize) -> &AggValue {
        &self.aggregates[id]
    }

    /// Stops the computation after this superstep.
    pub fn halt(&mut self) {
        self.halt = true;
    }
}
