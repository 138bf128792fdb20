//! The vertex-program and master-compute traits.

use crate::aggregate::{AggValue, AggregatorSpec};
use crate::context::VertexContext;
use crate::types::{Value, WorkerId};
use crate::wire::WirePayload;
use spinner_graph::VertexId;

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
    /// A vertex asleep through a superstep ([`VertexContext::sleep`]) is
    /// not invoked.
    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[Self::M]);

    /// One worker's wake clock for the coming compute phase, or `None` when
    /// no sleeper wakes by time this superstep (the default: sleepers then
    /// wake only by message). Every sleeper on the worker whose key
    /// ([`VertexContext::sleep`]) is at most the clock wakes before the
    /// walk and is computed with the awake vertices, in vertex order.
    ///
    /// The engine calls this only while some vertex of the worker sleeps,
    /// after [`Program::reset_worker`] and after delivery has woken every
    /// messaged sleeper. `joined` yields the values of the vertices that
    /// joined the awake set since the last call: every awake vertex on the
    /// first call, then the vertices the returned clock woke. The engine
    /// calls again while a clock wakes anyone, so a clock that grows with
    /// the awake set reaches its fixpoint before the walk; within one
    /// superstep it never goes back. Across supersteps the clock may fall:
    /// a key is compared with each superstep's clock afresh.
    fn wake_clock(
        &self,
        _global: &Self::G,
        _worker: &mut Self::WorkerState,
        _joined: &mut dyn Iterator<Item = &Self::V>,
    ) -> Option<u64> {
        None
    }

    /// Debug builds call this for every vertex asleep through a compute
    /// phase, at the position in the walk where the vertex would have been
    /// computed, with the worker state as the vertices before it left it.
    /// A program that sleeps on a bound can assert here that the vertex
    /// would have done nothing; it must not change `worker` in any way a
    /// later vertex could observe. The default checks nothing.
    fn check_sleeper(
        &self,
        _global: &Self::G,
        _worker: &mut Self::WorkerState,
        _vertex: VertexId,
        _value: &Self::V,
    ) {
    }

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
    ///
    /// On an undirected load the engine reads the weight from the
    /// receiving endpoint's edge value, while the sender reads its own, so
    /// both directions of an edge must give the same weight: `init_e(u, v,
    /// w)` and `init_e(v, u, w)` agree here whenever they depend on `w`
    /// alone. A directed load reads the sender's edge value.
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
    /// Vertices still active after this superstep: every vertex that has
    /// not voted to halt, asleep ones included.
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
