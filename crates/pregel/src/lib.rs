//! A Pregel/Giraph-style BSP graph-processing engine.
//!
//! This crate is the substrate the Spinner paper builds on: the paper
//! implements its partitioner as a Giraph program, so we implement the
//! Giraph/Pregel primitives the algorithm needs, from scratch:
//!
//! - **Supersteps** with synchronous message delivery (messages sent in
//!   superstep `s` are visible in superstep `s + 1`).
//! - **Vertex programs** ([`Program::compute`]) with vote-to-halt semantics
//!   and message-triggered reactivation.
//! - **Aggregators** (commutative/associative global reductions, optionally
//!   *persistent* across supersteps) mirroring Giraph's sharded aggregators.
//! - **Master compute** ([`Program::master`]) running between supersteps,
//!   able to read aggregators, update a broadcast global state, and halt.
//! - **Worker-local state** ([`Program::WorkerState`]) shared by all vertices
//!   hosted on the same logical worker within a superstep — the feature
//!   Spinner uses for its asynchronous per-worker load counters (§IV-A4).
//! - **A fixed topology per run**: no run changes the graph it loaded. A
//!   program that derives a new graph — Spinner's directed → undirected
//!   conversion gathers each vertex's in-neighbours as its value — hands
//!   it to the next run's load.
//!
//! # Logical workers vs threads
//!
//! The engine hosts `L` *logical workers* (the unit Giraph calls a worker — a
//! cluster machine) executed by up to `T` OS threads. All worker-scoped
//! semantics (per-worker state, local vs remote message accounting,
//! per-worker timings) bind to logical workers, so a 256-worker cluster can
//! be emulated faithfully on a handful of cores; the [`sim`] module turns
//! per-worker message/compute counts into simulated cluster superstep times
//! through an explicit cost model.
//!
//! # Message fabric
//!
//! Messages move through flat, capacity-reusing buffers rather than
//! per-vertex queues: sends land in per-destination outboxes that are
//! swapped into a shared all-to-all grid (`OutboxGrid`) at the end
//! of the compute phase; each worker counting-sorts its own grid column
//! during delivery into a flat, epoch-stamped inbox
//! (`inbox_start`/`inbox_len`/`msgs`) touching only that superstep's
//! recipients; the next compute phase reads it as one slice per vertex.
//! Compute walks each worker's maintained **active list** (the non-halted
//! vertices) rather than its whole vertex range, so superstep cost scales
//! with the vertices that have work. A persistent pool (the engine thread
//! alone for a single-threaded run) created once per [`Engine::run`]
//! drives the phases through a barrier protocol (no per-superstep thread
//! spawns), claiming
//! workers through atomic tokens so idle threads steal from skewed ones
//! (see [`engine::EngineConfig::work_stealing`]).
//! Steady-state supersteps perform no heap allocation on the message path;
//! [`WorkerMetrics::fabric_reallocs`] counts (and tests pin) any buffer
//! growth.
//!
//! Same-payload sends to a vertex's whole adjacency — the dominant pattern
//! in announce-style programs — can take the **broadcast lane**
//! ([`Mailer::broadcast`]): one deduplicated record per destination worker,
//! expanded through a load-time fan-out index at delivery into exactly the
//! per-edge positions — each copy stamped with the weight of its edge
//! ([`Program::stamp`]) — so results stay bit-identical while cross-worker
//! record traffic drops from O(cut edges) to O(distinct (sender, worker)
//! pairs). See [`engine::EngineConfig::broadcast_fabric`].
//!
//! # Determinism
//!
//! Engine runs are bit-for-bit deterministic for a given seed and
//! configuration, *independent of the thread count*: vertex programs draw
//! randomness from per-`(seed, vertex, superstep)` streams and aggregator
//! merges happen in worker order.

pub mod aggregate;
pub mod algorithms;
pub mod codec;
pub mod context;
pub mod engine;
pub mod fault;
pub mod metrics;
pub mod placement;
pub mod program;
pub mod reliable;
pub mod sim;
pub mod transport;
pub mod types;
pub mod wire;
pub mod worker;

pub use aggregate::{AggOp, AggValue, AggregatorSpec};
pub use context::{AggCtx, Edges, Mailer, VertexContext};
pub use engine::{Engine, EngineConfig, HaltReason, RunSummary};
pub use fault::{FaultyTransport, TransportFault, TransportFaultPlan};
pub use metrics::{SuperstepMetrics, WorkerMetrics};
pub use placement::Placement;
pub use program::{MasterContext, Program};
pub use reliable::ReliableTransport;
pub use sim::CostModel;
pub use transport::{
    LaneHealth, RetryConfig, RingTransport, Transport, TransportError, TransportKind,
    TransportStats,
};
pub use types::{Value, WorkerId};
pub use wire::{WireError, WireFormat, WirePayload, WireRecord};
