//! The BSP engine: graph loading, the superstep loop, and halting.
//!
//! # Superstep anatomy
//!
//! Each superstep runs three phases over the logical workers:
//!
//! 1. **Compute** — the sleepers whose key the worker's wake clock
//!    ([`Program::wake_clock`]) reaches wake; then every active vertex not
//!    asleep runs [`Program::compute`] against its slice of the worker's
//!    flat inbox; sends accumulate in per-destination outboxes. At the end of the phase each worker *publishes*
//!    its outboxes: by buffer swap into the shared `OutboxGrid`, or as
//!    encoded frames through the configured [`EngineConfig::transport`].
//! 2. **Delivery** — each worker drains its own *column* of the fabric
//!    (disjoint cells or lanes, so the phase is embarrassingly parallel and
//!    the engine thread is not a transposition bottleneck), rebuilds its
//!    flat inbox, and wakes messaged vertices, halted or asleep
//!    ([`crate::VertexContext::sleep`]). The topology a run loaded
//!    stays fixed until the next (re)load.
//! 3. **Epilogue** (engine thread) — aggregator merge in worker order,
//!    metrics capture, master compute, halt decision.
//!
//! The phases execute on a persistent worker pool created once per
//! [`Engine::run`], whose first thread is the engine thread itself (so a
//! run with [`EngineConfig::num_threads`] 1 spawns nothing); a
//! barrier-driven protocol replaces the per-superstep thread
//! spawn/join of earlier versions. Within each phase
//! the logical workers are claimed through atomic tokens rather than
//! statically partitioned, so idle threads steal work from skewed ones
//! (see [`EngineConfig::work_stealing`]); compute itself walks each
//! worker's maintained active list instead of every vertex (see
//! [`EngineConfig::dense_scan`] for the dense verification arm). All
//! message buffers are reused across supersteps, so the steady-state
//! message path performs no heap allocation (see
//! [`WorkerMetrics::fabric_reallocs`]).

use crate::aggregate::{AggValue, AggregatorSpec};
use crate::fault::{FaultyTransport, TransportFaultPlan};
use crate::metrics::{RunTotals, SuperstepMetrics, WorkerMetrics};
use crate::program::{MasterContext, Program};
use crate::reliable::ReliableTransport;
use crate::transport::{
    RetryConfig, RingTransport, Transport, TransportError, TransportKind, TransportStats,
};
use crate::types::{OutboxGrid, WorkerId, BROADCAST_MULTI};
use crate::wire::WireFormat;
use crate::worker::{reserve_empty, Fabric, Worker};
use crate::Placement;
use spinner_graph::buffer::refit;
use spinner_graph::{DirectedGraph, UndirectedGraph, VertexId};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, PoisonError, RwLock};
use std::time::Instant;

#[cfg(test)]
mod load_tests;
mod patch;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of OS threads executing the logical workers. Defaults to the
    /// machine's available parallelism, capped by the worker count.
    pub num_threads: usize,
    /// Hard cap on supersteps (safety net; programs normally halt earlier).
    pub max_supersteps: u64,
    /// Seed for all vertex-level randomness.
    pub seed: u64,
    /// Enable the broadcast lane: [`crate::Mailer::broadcast`] (and
    /// full-adjacency `send_to_all`) then ships one record per destination
    /// worker, expanded through a per-worker fan-out index at delivery —
    /// results are bit-identical to per-edge unicast, only the record
    /// traffic shrinks. `false` keeps every send on the per-edge path (the
    /// verification arm; also skips building the fan-out index and the
    /// per-vertex broadcast plan — worth setting for programs that never
    /// broadcast, since the lane's load-time structures cost an extra
    /// O(E) build pass and O(V) offsets per worker). Default `true`.
    pub broadcast_fabric: bool,
    /// Enable work stealing in the pooled superstep loop: logical workers
    /// are claimed per phase through atomic tokens, so a thread that
    /// finishes its preferred chunk steals whatever its siblings have not
    /// claimed yet instead of idling at the barrier. Results are identical
    /// either way — a worker's phase runs exactly once on exactly one
    /// thread, and all cross-worker merges happen in worker order on the
    /// engine thread. `false` pins every worker to its static owner
    /// (the pre-stealing schedule). Default `true`.
    pub work_stealing: bool,
    /// Preferred-chunk granularity for the pooled scheduler: worker `w`'s
    /// preferred thread is `(w / steal_chunk) % threads`. `0` (the default)
    /// picks `num_workers.div_ceil(threads)` — the contiguous blocks of the
    /// static schedule. Smaller chunks interleave ownership, which spreads
    /// hot workers across threads even before stealing kicks in.
    pub steal_chunk: usize,
    /// Drive the compute phase by a dense `0..n_local` scan (with a
    /// halted/empty-inbox skip) instead of the maintained active list. Both
    /// drivers visit the same vertices in the same order, so results are
    /// bit-identical — this is the verification arm for the active-set
    /// scheduler, same spirit as `broadcast_fabric = false`. Default
    /// `false`.
    pub dense_scan: bool,
    /// How cross-worker message batches move: [`TransportKind::Direct`]
    /// (the default) swaps outbox buffers through the in-memory
    /// `OutboxGrid` with no serialization; [`TransportKind::Ring`]
    /// encodes every batch into a [`crate::wire`] frame and moves it
    /// through an in-process [`RingTransport`] — the serialization
    /// boundary a distributed (TCP/UDS) backend plugs into. Results are
    /// bit-identical across transports; only bytes and buffers differ.
    pub transport: TransportKind,
    /// Frame encoding used when `transport` serialises
    /// ([`WireFormat::Compact`], the only one). Ignored on the direct path.
    pub wire_format: WireFormat,
    /// Sender-side combiner folding on the wire path: records to the same
    /// destination vertex are folded through [`Program::combine`] in the
    /// outbox before framing. Bit-identical for a combiner that is
    /// associative and always folds (the fold regroups the receiver's own
    /// combine calls), so it defaults to `true`; `false` is the
    /// verification arm, and the exact arm for a float or partial
    /// combiner. Ignored on the direct path.
    pub sender_fold: bool,
    /// Retry/timeout budgets for the transport reliability layer. Every
    /// serialising transport is wrapped in
    /// [`crate::reliable::ReliableTransport`]: per-lane sequencing,
    /// cumulative-ack retransmission, dedup/reorder, and lane-health
    /// tracking. Ignored on the direct path.
    pub transport_retry: RetryConfig,
    /// Scripted frame-level chaos ([`crate::fault::FaultyTransport`])
    /// stacked under the reliability layer. Test/experiment apparatus —
    /// `None` (the default) injects nothing, and the plan is deliberately
    /// not part of any persisted configuration. Ignored on the direct path.
    pub transport_faults: Option<TransportFaultPlan>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            num_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            max_supersteps: 10_000,
            seed: 1,
            broadcast_fabric: true,
            work_stealing: true,
            steal_chunk: 0,
            dense_scan: false,
            transport: TransportKind::Direct,
            wire_format: WireFormat::Compact,
            sender_fold: true,
            transport_retry: RetryConfig::default(),
            transport_faults: None,
        }
    }
}

/// Assembles the configured transport stack, innermost first:
/// `RingTransport` → chaos wrapper (when a fault plan is scripted) →
/// reliability layer. The engine only ever sees the outermost
/// `dyn Transport`.
fn build_transport_stack(
    config: &EngineConfig,
    num_workers: usize,
) -> Option<Box<dyn Transport>> {
    match config.transport {
        TransportKind::Direct => None,
        TransportKind::Ring => {
            let ring = RingTransport::new(num_workers);
            let retry = config.transport_retry;
            Some(match &config.transport_faults {
                Some(plan) => Box::new(ReliableTransport::new(
                    FaultyTransport::new(ring, num_workers, plan.clone()),
                    num_workers,
                    retry,
                )),
                None => Box::new(ReliableTransport::new(ring, num_workers, retry)),
            })
        }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// Every vertex voted to halt and no messages were in flight.
    AllHalted,
    /// The master compute requested the halt.
    Master,
    /// The configured superstep cap was reached.
    MaxSupersteps,
    /// A transport lane failed unrecoverably (retry budget or deadline
    /// exhausted, peer panicked) — the run aborted with its last
    /// superstep's traffic accounted but its results unusable. Callers
    /// treat [`TransportError::sender`] as a lost worker and escalate into
    /// the same reseed-and-reconverge path a `WorkerLoss` event takes
    /// (after [`Engine::run`]'s built-in transport reset revives the
    /// lanes).
    TransportFailed(TransportError),
}

/// Result of a run: superstep count, halt cause, and per-superstep metrics.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Supersteps executed.
    pub supersteps: u64,
    /// Why the run stopped.
    pub halt: HaltReason,
    /// Total wall time of the run in nanoseconds.
    pub wall_ns: u64,
    /// Per-superstep metrics (per logical worker).
    pub metrics: Vec<SuperstepMetrics>,
}

impl RunSummary {
    /// Aggregate totals over all supersteps.
    pub fn totals(&self) -> RunTotals {
        RunTotals::from_supersteps(&self.metrics)
    }
}

/// The Pregel engine. Owns the program, the partitioned graph state, and the
/// aggregator machinery.
pub struct Engine<P: Program> {
    program: P,
    workers: Vec<Worker<P>>,
    /// Global vertex id -> logical worker.
    worker_of: Vec<WorkerId>,
    /// Global vertex id -> index within its worker.
    local_idx: Vec<u32>,
    config: EngineConfig,
    specs: Vec<AggregatorSpec>,
    /// Values visible to vertices/master; persistent entries accumulate.
    snapshot: Vec<AggValue>,
    global: P::G,
    num_vertices: u64,
    /// The all-to-all exchange buffers (capacity persists across runs).
    /// Idle (every cell empty) when a serialising transport is configured.
    mail_grid: OutboxGrid<P::M>,
    /// The serialization boundary, when one is configured
    /// ([`EngineConfig::transport`]): `None` keeps the zero-copy grid;
    /// `Some` frames every cross-worker batch (see [`Fabric`]).
    transport: Option<Box<dyn Transport>>,
    /// What kind of rows the loaded topology was built from; only a
    /// symmetric load can be patched ([`Self::warm_patch_undirected`]).
    rows: Rows,
    /// The arrays a patched re-host writes one worker's topology into,
    /// kept between re-hosts so a steady stream of windows reuses them.
    spare: patch::Spare,
}

/// Master-owned state the worker threads read during the compute phase.
/// The `RwLock` access windows never overlap — readers hold it only between
/// the start and mid barriers, the engine thread writes only after the end
/// barrier — so it never blocks in practice.
struct MasterState<'a, G> {
    snapshot: &'a mut Vec<AggValue>,
    global: &'a mut G,
}

/// What a worker reports to the engine thread at the end of each superstep.
#[derive(Default)]
struct StepSlot {
    metrics: WorkerMetrics,
    partials: Vec<AggValue>,
    halted: u64,
    /// First typed transport failure this worker's publish phase raised
    /// (cleared by the engine thread each superstep). Kept separate from
    /// the delivery error so error selection is phase-ordered, then in
    /// worker order — independent of the thread count and the schedule.
    publish_error: Option<TransportError>,
    /// First typed transport failure this worker's delivery phase raised.
    delivery_error: Option<TransportError>,
}

/// `count` as a `u32`, or a panic naming `worker` and the count: the
/// load-time indices keep `u32` offsets, which would wrap silently in a
/// release build.
fn checked_u32(worker: usize, what: &str, count: usize) -> u32 {
    u32::try_from(count).unwrap_or_else(|_| {
        panic!("worker {worker}: {count} {what} overflow the u32 offsets of its index")
    })
}

/// How a load's rows relate to the broadcasts their vertices receive,
/// which decides where each worker's fan-out index reads its in-rows.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rows {
    /// Symmetric, sorted rows (an [`UndirectedGraph`]): a vertex's own row
    /// lists exactly the senders whose broadcasts reach it.
    Symmetric,
    /// Out-rows (a [`DirectedGraph`]): the in-rows are their transpose.
    Directed,
}

/// Builds one worker's broadcast fan-out index (`Worker::fan_offsets` and
/// `fan_targets`) as the counting transpose of its in-rows: `in_row(li)`
/// yields, for hosted vertex `li`, each sender whose broadcasts reach it
/// with the [`Program::edge_weight`] of the edge between them. Walking the
/// hosted vertices in order lists each sender's entries by ascending local
/// index, which is ascending global id: the sender's adjacency order. The
/// build reads only the worker's own rows (or in-rows) and writes only its
/// own index, which keeps it within cache; both vectors keep their
/// capacity.
fn fill_fan_index<P: Program, I: Iterator<Item = (VertexId, u8)>>(
    worker: usize,
    senders: usize,
    hosted: usize,
    in_row: impl Fn(usize) -> I,
    offsets: &mut Vec<u32>,
    targets: &mut Vec<u32>,
) {
    check_fan_locals::<P>(worker, hosted);
    // Counts land two slots up, so that after the prefix sum
    // `offsets[s + 1]` is sender `s`'s fill cursor; the fill leaves it at
    // `s`'s end, where the CSR wants it.
    reserve_empty(offsets, senders + 2);
    offsets.resize(senders + 2, 0);
    for li in 0..hosted {
        for (s, _) in in_row(li) {
            offsets[s as usize + 2] += 1;
        }
    }
    let mut total = 0usize;
    for offset in &mut offsets[2..] {
        total += *offset as usize;
        *offset = total as u32;
    }
    // The running total only grows, so every offset above was exact if the
    // last one is.
    let total = checked_u32(worker, "fan-out entries", total) as usize;
    reserve_empty(targets, total);
    targets.resize(total, 0);
    for li in 0..hosted {
        for (s, weight) in in_row(li) {
            let cursor = &mut offsets[s as usize + 1];
            targets[*cursor as usize] = fan_entry::<P>(li, weight);
            *cursor += 1;
        }
    }
    offsets.pop();
}

/// Panics unless `hosted` local indices leave room for `P::STAMP_BITS` of
/// edge weight below them in a fan-out entry.
fn check_fan_locals<P: Program>(worker: usize, hosted: usize) {
    if hosted > (u32::MAX >> P::STAMP_BITS) as usize {
        panic!(
            "worker {worker}: {hosted} vertices overflow the {}-bit local indices of its \
             fan-out index",
            32 - P::STAMP_BITS
        );
    }
}

/// The fan-out entry of hosted vertex `li` for an edge of `weight`:
/// `li << P::STAMP_BITS | weight` (the weight dropped when nothing is
/// stamped).
fn fan_entry<P: Program>(li: usize, weight: u8) -> u32 {
    let weight = if P::STAMP_BITS > 0 {
        let weight = u32::from(weight);
        assert!(
            weight >> P::STAMP_BITS == 0,
            "edge weight {weight} wider than Program::STAMP_BITS"
        );
        weight
    } else {
        0
    };
    (li as u32) << P::STAMP_BITS | weight
}

/// Lists the destination workers of one row in first-occurrence order,
/// each as `(worker, adjacency position of its first entry, entry count)`,
/// into `dests`. `dst_count` is zeroed scratch of one slot per worker and
/// is left zeroed.
fn row_destinations(
    row: &[VertexId],
    worker_of: &[WorkerId],
    dst_count: &mut [u32],
    dests: &mut Vec<(WorkerId, u32, u32)>,
) {
    // Every entry is written at the cursor, which only a first occurrence
    // advances: no branch on the (unpredictable) first occurrences.
    dests.clear();
    dests.resize(row.len().min(dst_count.len()) + 1, (0, 0, 0));
    let mut len = 0;
    for (i, &t) in row.iter().enumerate() {
        let dst = worker_of[t as usize];
        let count = &mut dst_count[dst as usize];
        dests[len] = (dst, i as u32, 0);
        len += usize::from(*count == 0);
        *count += 1;
    }
    dests.truncate(len);
    for (dst, _, count) in dests.iter_mut() {
        *count = std::mem::take(&mut dst_count[*dst as usize]);
    }
}

impl<P: Program> Engine<P> {
    /// Builds an engine over a weighted undirected graph (each edge present
    /// in both adjacency lists). `init_v` produces initial vertex values;
    /// `init_e(src, dst, weight)` produces edge values.
    pub fn from_undirected(
        program: P,
        graph: &UndirectedGraph,
        placement: &Placement,
        config: EngineConfig,
        init_v: impl FnMut(VertexId) -> P::V,
        init_e: impl FnMut(VertexId, VertexId, u8) -> P::E,
    ) -> Self {
        assert_eq!(placement.num_vertices(), graph.num_vertices(), "placement size mismatch");
        Self::build(
            program,
            graph.num_vertices(),
            placement,
            config,
            Rows::Symmetric,
            |v| graph.neighbors(v).0,
            |v, i| graph.neighbors(v).1[i],
            init_v,
            init_e,
        )
    }

    /// Builds an engine over a directed graph (out-edges only), e.g. for
    /// PageRank-style applications. Edge weight passed to `init_e` is 1.
    /// With the broadcast lane on, the load transposes the out-rows into
    /// in-rows (O(E) scratch for the build) from which each worker builds
    /// its fan-out index.
    pub fn from_directed(
        program: P,
        graph: &DirectedGraph,
        placement: &Placement,
        config: EngineConfig,
        init_v: impl FnMut(VertexId) -> P::V,
        init_e: impl FnMut(VertexId, VertexId, u8) -> P::E,
    ) -> Self {
        assert_eq!(placement.num_vertices(), graph.num_vertices(), "placement size mismatch");
        Self::build(
            program,
            graph.num_vertices(),
            placement,
            config,
            Rows::Directed,
            |v| graph.out_neighbors(v),
            |_, _| 1,
            init_v,
            init_e,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build<'g>(
        program: P,
        n: VertexId,
        placement: &Placement,
        config: EngineConfig,
        rows: Rows,
        neighbors: impl Fn(VertexId) -> &'g [VertexId],
        weight_at: impl Fn(VertexId, usize) -> u8,
        init_v: impl FnMut(VertexId) -> P::V,
        init_e: impl FnMut(VertexId, VertexId, u8) -> P::E,
    ) -> Self {
        let num_workers = placement.num_workers();
        let workers: Vec<Worker<P>> =
            (0..num_workers).map(|i| Worker::new(i as WorkerId, num_workers)).collect();
        let specs = program.aggregators();
        let snapshot: Vec<AggValue> = specs.iter().map(|s| s.identity()).collect();
        let global = program.init_global();
        let mail_grid: OutboxGrid<P::M> =
            (0..num_workers * num_workers).map(|_| Mutex::default()).collect();
        let transport = build_transport_stack(&config, num_workers);
        let mut engine = Self {
            program,
            workers,
            worker_of: Vec::new(),
            local_idx: Vec::new(),
            config,
            specs,
            snapshot,
            global,
            num_vertices: 0,
            mail_grid,
            transport,
            rows,
            spare: patch::Spare::default(),
        };
        engine.load_topology(n, placement, rows, neighbors, weight_at, init_v, init_e);
        engine
    }

    /// Re-targets a finished engine at a (possibly changed) weighted
    /// undirected graph for another run, **in place**: program/aggregator
    /// state restarts fresh, but every message-fabric buffer — the outbox
    /// grid, the decoded-record buffers, the flat inboxes — and every
    /// topology vector keeps its allocation. A session that re-converges
    /// after a stream of graph deltas therefore performs no steady-state
    /// fabric reallocations after its first window (pinned by
    /// [`WorkerMetrics::fabric_reallocs`]).
    ///
    /// Every vertex lands on the worker `placement` names, wherever it lived
    /// before, so a caller that re-places vertices by computed label (paper
    /// §V-F) hands the new placement to its next reset. This re-host always
    /// reloads the whole graph; a caller that knows which vertex pairs
    /// changed since the last load uses [`Self::warm_patch_undirected`],
    /// which patches the loaded topology by them and falls back to this
    /// reload when a vertex moved or the vertex set shrank. Both leave the
    /// same arrays.
    ///
    /// `init_v` yields each vertex's initial value; every vertex starts the
    /// run awake. Pair with [`Self::set_global`] /
    /// [`Self::set_aggregate`] when the program's warm-up phases are skipped
    /// and their outputs seeded directly. `init_e(src, dst, weight)`
    /// produces edge values, as in [`Self::from_undirected`].
    ///
    /// The worker count is fixed for the life of an engine (`placement` must
    /// match); the vertex set may grow or shrink freely.
    pub fn warm_reset_undirected(
        &mut self,
        program: P,
        graph: &UndirectedGraph,
        placement: &Placement,
        init_v: impl FnMut(VertexId) -> P::V,
        init_e: impl FnMut(VertexId, VertexId, u8) -> P::E,
    ) {
        assert_eq!(placement.num_vertices(), graph.num_vertices(), "placement size mismatch");
        self.restart(program);
        self.load_topology(
            graph.num_vertices(),
            placement,
            Rows::Symmetric,
            |v| graph.neighbors(v).0,
            |v, i| graph.neighbors(v).1[i],
            init_v,
            init_e,
        );
    }

    /// Restarts program and aggregator state fresh for `program`'s next run.
    fn restart(&mut self, program: P) {
        self.program = program;
        self.specs = self.program.aggregators();
        self.snapshot = self.specs.iter().map(|s| s.identity()).collect();
        self.global = self.program.init_global();
    }

    /// Overwrites the global state ahead of a run — the seeding companion
    /// of [`Self::warm_reset_undirected`] for callers that skip a program's
    /// warm-up phases and install their outputs directly.
    pub fn set_global(&mut self, global: P::G) {
        self.global = global;
    }

    /// Overwrites one aggregator's snapshot value ahead of a run. Only
    /// meaningful for persistent aggregators (regular ones reset to
    /// identity at the next epilogue); the caller owns type agreement with
    /// the aggregator's spec.
    pub fn set_aggregate(&mut self, id: usize, value: AggValue) {
        self.snapshot[id] = value;
    }

    /// (Re)loads vertices, values, and adjacency into the workers `placement`
    /// names, reusing every existing allocation. Shared by the cold
    /// [`Self::build`] path and [`Self::warm_reset_undirected`].
    /// `vertex_init` yields each vertex's value;
    /// `edge_init(src, dst, weight)` yields each edge's value, where the
    /// weight of the `i`-th edge of `src` is `weight_at(src, i)`.
    /// `rows` says whether the rows are symmetric, which decides where each
    /// worker's fan-out index reads its in-rows.
    #[allow(clippy::too_many_arguments)]
    fn load_topology<'g>(
        &mut self,
        n: VertexId,
        placement: &Placement,
        rows: Rows,
        neighbors: impl Fn(VertexId) -> &'g [VertexId],
        weight_at: impl Fn(VertexId, usize) -> u8,
        mut vertex_init: impl FnMut(VertexId) -> P::V,
        mut edge_init: impl FnMut(VertexId, VertexId, u8) -> P::E,
    ) {
        let num_workers = self.workers.len();
        assert_eq!(
            placement.num_workers(),
            num_workers,
            "the worker count is fixed for the life of an engine"
        );
        self.rows = rows;
        self.num_vertices = 0;
        self.worker_of.clear();
        self.local_idx.clear();
        for w in &mut self.workers {
            w.clear_topology();
        }
        // First pass: assign vertices and values.
        self.host_vertices(placement, &mut vertex_init);
        debug_assert_eq!(self.num_vertices, u64::from(n));
        // Second pass, worker by worker: the CSR, the broadcast plan, and
        // the counts that bound the message fabric. Each row's plan is built
        // in two phases: first every entry's destination worker and the
        // count per destination, then one plan entry per destination, in
        // first-occurrence order.
        let build_fanout = self.config.broadcast_fabric;
        let wired = self.transport.is_some();
        let worker_of = &self.worker_of;
        // `inbound[dst]`: adjacency entries addressed to `dst` from other
        // workers, the delivery volume one send-along-edges superstep brings.
        let mut inbound = vec![0usize; num_workers];
        // `plan_in[dst]`: plan entries addressed to `dst` from other workers
        // — the records one all-broadcast superstep ships to `dst`, which
        // bounds its decoded wire records.
        let mut plan_in = vec![0usize; num_workers];
        // `lone[dst]`: the current worker's lone-neighbour plan entries for
        // `dst` — the unicast records of one all-broadcast superstep's frame
        // to `dst`, which bound that frame's wire sort keys.
        let mut lone = vec![0usize; num_workers];
        let mut dests: Vec<(WorkerId, u32, u32)> = Vec::new();
        let mut dst_count = vec![0u32; num_workers];
        for w in &mut self.workers {
            let me = w.id as usize;
            w.bounds.reset(num_workers);
            lone.fill(0);
            let mut edge_count = 0usize;
            for &gid in &w.global_ids {
                edge_count += neighbors(gid).len();
            }
            w.offsets.reserve(w.global_ids.len() + 1);
            w.offsets.push(0);
            reserve_empty(&mut w.targets, edge_count);
            reserve_empty(&mut w.edge_values, edge_count);
            if build_fanout {
                w.plan_offsets.push(0);
            }
            for &gid in &w.global_ids {
                let ts = neighbors(gid);
                w.targets.extend_from_slice(ts);
                w.edge_values.extend(
                    ts.iter().enumerate().map(|(i, &t)| edge_init(gid, t, weight_at(gid, i))),
                );
                row_destinations(ts, worker_of, &mut dst_count, &mut dests);
                let mut local_count = 0u32;
                for &(dst, first, count) in &dests {
                    let d = dst as usize;
                    if d == me {
                        local_count = count;
                    } else {
                        inbound[d] += count as usize;
                    }
                    if build_fanout {
                        w.plan_workers.push(dst);
                        plan_in[d] += usize::from(d != me);
                        if count == 1 {
                            // A lone neighbour on `dst` ships as a unicast.
                            w.plan_lone.push(first);
                            lone[d] += 1;
                        } else {
                            w.plan_lone.push(BROADCAST_MULTI);
                            w.bounds.marks[d] += 1;
                        }
                    }
                }
                w.bounds.local += local_count as usize;
                w.offsets.push(w.targets.len() as u64);
                if build_fanout {
                    w.plan_offsets.push(w.plan_workers.len() as u32);
                    w.plan_local.push(local_count);
                    w.plan_remote.push(ts.len() as u32 - local_count);
                }
            }
            // Lengths only grow, so the `as u32` offsets above were exact
            // if the final one is.
            checked_u32(me, "broadcast plan entries", w.plan_workers.len());
            if wired {
                // A warm run may reach its all-broadcast superstep only
                // late, so the sort keys of its largest outbound frame are
                // reserved at load rather than grown then.
                let others = lone.iter().enumerate().filter(|&(dst, _)| dst != me);
                w.bounds.sort_keys = others.map(|(_, &n)| n).max().unwrap_or(0);
            }
        }
        for ((w, inb), plan_inb) in self.workers.iter_mut().zip(inbound).zip(plan_in) {
            w.bounds.set_inbound(inb, plan_inb, wired, build_fanout);
        }
        self.size_fabric();
        if build_fanout {
            // Each worker's fan-out index is the transpose of its in-rows.
            // A symmetric row is its own vertex's in-row; a directed load's
            // in-rows come from transposing the out-rows it just loaded.
            let in_rows = match rows {
                Rows::Symmetric => None,
                Rows::Directed => Some(self.directed_in_rows()),
            };
            let n = n as usize;
            for w in &mut self.workers {
                let Worker {
                    id,
                    global_ids,
                    offsets,
                    targets,
                    edge_values,
                    fan_offsets,
                    fan_targets,
                    ..
                } = w;
                let (me, hosted) = (*id as usize, global_ids.len());
                match &in_rows {
                    None => fill_fan_index::<P, _>(
                        me,
                        n,
                        hosted,
                        |li| {
                            let (lo, hi) = (offsets[li] as usize, offsets[li + 1] as usize);
                            let weights = edge_values[lo..hi].iter().map(P::edge_weight);
                            targets[lo..hi].iter().copied().zip(weights)
                        },
                        fan_offsets,
                        fan_targets,
                    ),
                    Some((in_offsets, in_entries)) => fill_fan_index::<P, _>(
                        me,
                        n,
                        hosted,
                        |li| {
                            let gid = global_ids[li] as usize;
                            in_entries[in_offsets[gid]..in_offsets[gid + 1]].iter().copied()
                        },
                        fan_offsets,
                        fan_targets,
                    ),
                }
            }
        }
    }

    /// Hosts the vertices `placement` adds beyond the `num_vertices` already
    /// hosted — each on its worker, after the ones there, so every worker
    /// keeps its vertices in ascending global id and local indices ascend
    /// with global id — and (re)fills every vertex's value from
    /// `vertex_init`, called once per vertex in ascending id. Every vertex
    /// starts awake. The vertices already hosted must keep their workers.
    fn host_vertices(
        &mut self,
        placement: &Placement,
        vertex_init: &mut impl FnMut(VertexId) -> P::V,
    ) {
        let (old_n, n) = (self.num_vertices as usize, placement.num_vertices() as usize);
        self.worker_of.extend_from_slice(&placement.as_slice()[old_n..]);
        self.local_idx.resize(n, 0);
        for w in &mut self.workers {
            w.values.clear();
            w.halted.clear();
            w.num_halted = 0;
        }
        for v in 0..n {
            let w = &mut self.workers[self.worker_of[v] as usize];
            if v >= old_n {
                self.local_idx[v] = w.global_ids.len() as u32;
                w.global_ids.push(v as VertexId);
            }
            w.values.push(vertex_init(v as VertexId));
            w.halted.push(false);
        }
        self.num_vertices = n as u64;
    }

    /// Resets every worker's message fabric for its hosted vertices and
    /// reserves it, and the grid cells beside it, for the volumes in its
    /// (already computed) bounds.
    fn size_fabric(&mut self) {
        for w in &mut self.workers {
            w.reset_fabric();
            w.reserve_fabric();
        }
        // The grid cells hold the other half of each outbox's double buffer.
        if self.transport.is_none() {
            let num_workers = self.workers.len();
            for (row, w) in self.mail_grid.chunks_mut(num_workers).zip(&self.workers) {
                for (cell, &n) in row.iter_mut().zip(&w.bounds.marks) {
                    if let Ok(cell) = cell.get_mut() {
                        reserve_empty(&mut cell.marks, n);
                    }
                }
            }
        }
        // A finished run leaves every grid cell drained (delivery precedes
        // the halt decision), so the grid carries only capacity forward.
        debug_assert!(
            self.mail_grid.iter_mut().all(|c| c.get_mut().map_or(true, |c| c.is_empty())),
            "mail grid not drained before topology reload"
        );
    }

    /// The in-rows of a directed load: for every vertex, the senders whose
    /// loaded out-rows name it, ascending, each with the
    /// [`Program::edge_weight`] of the sender's edge value. A counting
    /// transpose of the rows the workers just loaded, as `spinner_graph`'s
    /// conversion makes of a whole graph: `offsets[v]..offsets[v + 1]`
    /// indexes vertex `v`'s entries.
    fn directed_in_rows(&self) -> (Vec<usize>, Vec<(VertexId, u8)>) {
        let n = self.num_vertices as usize;
        // Counts land two slots up, so that after the prefix sum
        // `offsets[v + 1]` is `v`'s fill cursor and finishes at `v`'s end.
        let mut offsets = vec![0usize; n + 2];
        for w in &self.workers {
            for &t in &w.targets {
                offsets[t as usize + 2] += 1;
            }
        }
        for v in 2..n + 2 {
            offsets[v] += offsets[v - 1];
        }
        let mut entries = vec![(0, 0); offsets[n + 1]];
        for (s, (&w, &li)) in self.worker_of.iter().zip(&self.local_idx).enumerate() {
            let w = &self.workers[w as usize];
            let (lo, hi) =
                (w.offsets[li as usize] as usize, w.offsets[li as usize + 1] as usize);
            for (&t, e) in w.targets[lo..hi].iter().zip(&w.edge_values[lo..hi]) {
                let cursor = &mut offsets[t as usize + 1];
                entries[*cursor] = (s as VertexId, P::edge_weight(e));
                *cursor += 1;
            }
        }
        offsets.pop();
        (offsets, entries)
    }

    /// Number of logical workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Read access to the global state.
    pub fn global(&self) -> &P::G {
        &self.global
    }

    /// Installs (or replaces) a scripted transport fault plan and rebuilds
    /// the transport stack around it. A no-op on the direct path — chaos
    /// only makes sense where frames exist. Call between runs; in-flight
    /// frames of a previous stack are discarded with it (a finished run
    /// leaves none).
    pub fn inject_transport_faults(&mut self, plan: TransportFaultPlan) {
        self.config.transport_faults = Some(plan);
        let num_workers = self.workers.len();
        self.transport = build_transport_stack(&self.config, num_workers);
    }

    /// `(degraded, dead)` transport lane tallies — `(0, 0)` on the direct
    /// path or a fault-free run.
    pub fn transport_health_counts(&self) -> (u64, u64) {
        self.transport.as_ref().map_or((0, 0), |t| t.health_counts())
    }

    /// `(injected, remaining)` scripted-fault tallies from the chaos layer
    /// — `(0, 0)` when no fault plan is installed.
    pub fn transport_chaos_counts(&self) -> (u64, u64) {
        self.transport.as_ref().map_or((0, 0), |t| t.chaos_counts())
    }

    /// Cumulative receive-side recovery counters summed over all workers
    /// (retransmits, NACKs, dedups, reorders) — all zero on the direct
    /// path or a fault-free run.
    pub fn transport_recv_stats(&self) -> TransportStats {
        let mut total = TransportStats::default();
        if let Some(t) = &self.transport {
            for dst in 0..self.workers.len() {
                total.add(&t.recv_stats(dst));
            }
        }
        total
    }

    /// Runs the program to completion.
    pub fn run(&mut self) -> RunSummary {
        let run_start = Instant::now();
        // Every run starts on clean lanes: after a normal halt this only
        // zeroes sequence windows (all frames were delivered), but after a
        // `TransportFailed` abort it drains stranded frames and revives
        // dead lanes — the in-process model of a replacement worker's
        // fresh connections. Buffer pools survive, so no reallocation.
        if let Some(t) = &self.transport {
            t.reset();
        }
        // The grid's analogue: a cell poisoned by a panicked peer (surfaced
        // as `PeerPanicked`) is replaced, stranded records and all.
        for cell in &mut self.mail_grid {
            if cell.is_poisoned() {
                *cell = Mutex::default();
            }
        }
        // No sleep outlives a run: a vertex asleep when the last run halted
        // starts this one awake.
        for w in &mut self.workers {
            w.wake_all();
        }
        let num_workers = self.workers.len();
        let threads = self.config.num_threads.clamp(1, num_workers.max(1));
        let mut metrics: Vec<SuperstepMetrics> = Vec::new();
        let halt = self.run_pooled(threads, &mut metrics);
        RunSummary {
            supersteps: metrics.len() as u64,
            halt,
            wall_ns: run_start.elapsed().as_nanos() as u64,
            metrics,
        }
    }

    /// The superstep loop, on a persistent worker pool: the engine thread
    /// plus `threads - 1` scoped threads advance through the compute and
    /// delivery phases via a barrier protocol — no thread is spawned or
    /// joined between supersteps, and a single-threaded run spawns none.
    ///
    /// Within each phase, logical workers are *claimed*, not statically
    /// assigned: `claims[w]` holds the next unclaimed phase token
    /// (`2 x superstep` for compute, `2 x superstep + 1` for delivery), and
    /// a thread takes worker `w` by compare-exchanging the token forward.
    /// Every thread first walks its preferred chunks (worker `w` prefers
    /// thread `(w / chunk) % threads`, reproducing the old contiguous
    /// blocks when `steal_chunk` is 0), then — with `work_stealing` on —
    /// sweeps the remaining workers from the high end, picking up whatever
    /// slower siblings have not claimed. Exactly-once execution per phase
    /// is guaranteed by the CAS; cross-phase visibility by the barriers
    /// (a claim sweep completes before its thread's barrier wait, so every
    /// worker's phase has run when the barrier releases). All cross-worker
    /// merges happen in worker order on the engine thread, so the schedule
    /// — static, stolen, or interleaved — never affects results. Transport
    /// errors are picked the same way (first publish-phase error in worker
    /// order, else first delivery-phase error), so the failure a run
    /// surfaces is independent of the thread count too.
    ///
    /// A panic in a phase — the program's compute, its debug sleeper check,
    /// delivery, or the master's epilogue — is caught on the thread that
    /// raised it. Every thread still keeps the barrier protocol, skipping
    /// the rest of the superstep's work, the loop stops, and the first
    /// panic is raised again once the pool has exited, so a failing run
    /// fails instead of leaving its siblings waiting at a barrier.
    fn run_pooled(
        &mut self,
        threads: usize,
        metrics: &mut Vec<SuperstepMetrics>,
    ) -> HaltReason {
        let num_workers = self.workers.len();
        let seed = self.config.seed;
        let max_supersteps = self.config.max_supersteps;
        let num_vertices = self.num_vertices;
        let dense_scan = self.config.dense_scan;
        let work_stealing = self.config.work_stealing;
        // Shared by every pool thread (the grid and the transport are both
        // `Sync`).
        let fabric = match self.transport.as_deref() {
            Some(transport) => Fabric::Wire {
                transport,
                format: self.config.wire_format,
                fold: self.config.sender_fold,
            },
            None => Fabric::Grid(&self.mail_grid),
        };
        let chunk = if self.config.steal_chunk == 0 {
            num_workers.div_ceil(threads)
        } else {
            self.config.steal_chunk
        };
        // Split borrows: the worker cells move into the pool threads while
        // the engine thread keeps the master-owned state.
        let program = &self.program;
        let specs = self.specs.as_slice();
        let worker_of = self.worker_of.as_slice();
        let local_idx = self.local_idx.as_slice();
        let lane_open = self.config.broadcast_fabric;
        let master =
            RwLock::new(MasterState { snapshot: &mut self.snapshot, global: &mut self.global });
        let slots: Vec<Mutex<StepSlot>> =
            (0..num_workers).map(|_| Mutex::new(StepSlot::default())).collect();
        // One cell and one claim token per logical worker. The mutex is
        // uncontended by construction — only the CAS winner ever locks a
        // cell — it exists to move `&mut Worker` across threads safely.
        let cells: Vec<Mutex<&mut Worker<P>>> =
            self.workers.iter_mut().map(Mutex::new).collect();
        let claims: Vec<AtomicU64> = (0..num_workers).map(|_| AtomicU64::new(0)).collect();

        // Phase barrier across the pool. The engine thread is pool thread 0,
        // so a single-threaded run spawns nothing and never blocks. Three
        // waits per superstep (start -> compute, mid -> deliver, end ->
        // epilogue).
        let barrier = Barrier::new(threads);
        let stop = AtomicBool::new(false);
        // The first panic any pool thread caught, and whether there is one.
        let panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let failed = AtomicBool::new(false);
        let guarded = |work: &mut dyn FnMut()| {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(work)) {
                panic.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(payload);
                failed.store(true, Ordering::Release);
            }
        };

        // Pool thread `t`'s share of one superstep, up to the end barrier.
        let step = |t: usize, superstep: u64| {
            let claim = |w: usize, token: u64| {
                claims[w]
                    .compare_exchange(token, token + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            };
            // Walks this thread's preferred chunks, then (stealing on) the
            // rest from the high end — farthest first from the low-indexed
            // chunks the static schedule starts on.
            let sweep = |token: u64, run: &mut dyn FnMut(usize)| {
                let mut start = t * chunk;
                while start < num_workers {
                    for w in start..(start + chunk).min(num_workers) {
                        if claim(w, token) {
                            run(w);
                        }
                    }
                    start += threads * chunk;
                }
                if work_stealing {
                    for w in (0..num_workers).rev() {
                        if claim(w, token) {
                            run(w);
                        }
                    }
                }
            };
            guarded(&mut || {
                let guard = master.read().expect("master state");
                let m = &*guard;
                sweep(superstep * 2, &mut |wi| {
                    let mut w = cells[wi].lock().expect("worker cell");
                    w.compute_phase(
                        program,
                        &*m.global,
                        m.snapshot,
                        specs,
                        worker_of,
                        superstep,
                        seed,
                        num_vertices,
                        lane_open,
                        dense_scan,
                    );
                    if let Err(e) = w.publish(program, &fabric) {
                        slots[wi].lock().expect("step slot").publish_error.get_or_insert(e);
                    }
                });
            });
            barrier.wait();
            if failed.load(Ordering::Acquire) {
                return;
            }
            guarded(&mut || {
                sweep(superstep * 2 + 1, &mut |wi| {
                    let mut w = cells[wi].lock().expect("worker cell");
                    let delivered = w.deliver(program, &fabric, local_idx);
                    let mut slot = slots[wi].lock().expect("step slot");
                    if let Err(e) = delivered {
                        slot.delivery_error.get_or_insert(e);
                    }
                    slot.metrics.clone_from(&w.metrics);
                    // Swap (not take): the stale vector handed back is reset in
                    // place next superstep, so the partials rotate without
                    // reallocating.
                    std::mem::swap(&mut slot.partials, &mut w.partial_aggs);
                    slot.halted = w.halted_count();
                });
            });
        };

        let mut halt = HaltReason::MaxSupersteps;
        std::thread::scope(|s| {
            for t in 1..threads {
                let (barrier, stop, step) = (&barrier, &stop, &step);
                s.spawn(move || {
                    for superstep in 0u64.. {
                        barrier.wait();
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        step(t, superstep);
                        barrier.wait();
                    }
                });
            }

            // Reused across supersteps: swapped against the slots so the
            // partial vectors rotate worker -> slot -> here and back.
            let mut partials: Vec<Vec<AggValue>> =
                (0..num_workers).map(|_| Vec::new()).collect();
            for superstep in 0..max_supersteps {
                let step_start = Instant::now();
                barrier.wait(); // the pool starts the superstep
                step(0, superstep);
                barrier.wait(); // every worker has delivered and reported
                if failed.load(Ordering::Acquire) {
                    break;
                }
                let mut stopped = None;
                guarded(&mut || {
                    let mut per_worker = Vec::with_capacity(num_workers);
                    let mut halted = 0u64;
                    let mut publish_error: Option<TransportError> = None;
                    let mut delivery_error: Option<TransportError> = None;
                    for (slot, buf) in slots.iter().zip(partials.iter_mut()) {
                        let mut slot = slot.lock().expect("step slot");
                        per_worker.push(slot.metrics.clone());
                        std::mem::swap(&mut slot.partials, buf);
                        halted += slot.halted;
                        if let Some(e) = slot.publish_error.take() {
                            publish_error.get_or_insert(e);
                        }
                        if let Some(e) = slot.delivery_error.take() {
                            delivery_error.get_or_insert(e);
                        }
                    }
                    let mut guard = master.write().expect("master state");
                    let m = &mut *guard;
                    let (step, reason) = superstep_epilogue(
                        program,
                        specs,
                        m.snapshot,
                        m.global,
                        superstep,
                        num_vertices,
                        step_start,
                        per_worker,
                        partials.iter().map(|p| p.as_slice()),
                        halted,
                    );
                    drop(guard);
                    metrics.push(step);
                    // Transport failure aborts after the metrics push — the
                    // failed superstep's traffic is accounted — and outranks
                    // any program-level halt decision taken on its partial
                    // state.
                    let failure = publish_error.or(delivery_error);
                    stopped = failure.map(HaltReason::TransportFailed).or(reason);
                });
                if failed.load(Ordering::Acquire) {
                    break;
                }
                if let Some(reason) = stopped {
                    halt = reason;
                    break;
                }
            }
            stop.store(true, Ordering::Release);
            barrier.wait(); // release the pool to observe `stop` and exit
        });
        if let Some(payload) = panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
            resume_unwind(payload);
        }
        halt
    }

    /// Clones all vertex values into a dense global-id-indexed vector.
    pub fn collect_values(&self) -> Vec<P::V> {
        self.collect_values_with(Clone::clone)
    }

    /// Moves every vertex value out of the engine into a dense
    /// global-id-indexed vector. Nothing is cloned: each value, and any heap
    /// buffer it owns, stays where the program allocated it, so a caller
    /// can patch the values and hand them back through the `init_v` of
    /// [`Self::warm_reset_undirected`]. The workers keep their value
    /// vectors' capacity.
    ///
    /// Call it only between runs, and re-host the engine with
    /// [`Self::warm_reset_undirected`] before the next [`Self::run`] or any
    /// value read: until then the engine holds no vertex values.
    pub fn take_values(&mut self) -> Vec<P::V> {
        let mut values = Vec::with_capacity(self.num_vertices as usize);
        self.take_values_into(&mut values);
        values
    }

    /// [`Self::take_values`] into a recycled vector: `values` is emptied
    /// and refilled, and keeps its block while it has room (it is replaced
    /// with headroom otherwise, see [`spinner_graph::buffer::refit`]). A
    /// caller that hands the same vector back and forth between this and
    /// its re-host allocates no value vector per window.
    pub fn take_values_into(&mut self, values: &mut Vec<P::V>) {
        refit(values, self.num_vertices as usize);
        let mut drains: Vec<_> = self.workers.iter_mut().map(|w| w.values.drain(..)).collect();
        // Each worker holds its vertices in ascending global id, so walking
        // the ids in order takes every worker's values front to back.
        values.extend((0..self.num_vertices as usize).map(|v| {
            let w = self.worker_of[v] as usize;
            drains[w].next().expect("one value per hosted vertex")
        }));
        debug_assert!(drains.iter().all(|d| d.len() == 0), "values left behind");
    }

    /// Maps every vertex value through `f` into a dense global-id-indexed
    /// vector (direct gather through the placement maps — no `Option`
    /// round-trip), so a caller that needs one field never clones the rest.
    pub fn collect_values_with<T>(&self, mut f: impl FnMut(&P::V) -> T) -> Vec<T> {
        (0..self.num_vertices as usize)
            .map(|v| {
                let w = &self.workers[self.worker_of[v] as usize];
                f(&w.values[self.local_idx[v] as usize])
            })
            .collect()
    }

    /// Vertex `v`'s engine adjacency — sorted targets and the edge values
    /// beside them.
    pub fn adjacency(&self, v: VertexId) -> (&[VertexId], &[P::E]) {
        let w = &self.workers[self.worker_of[v as usize] as usize];
        let li = self.local_idx[v as usize] as usize;
        let (lo, hi) = (w.offsets[li] as usize, w.offsets[li + 1] as usize);
        (&w.targets[lo..hi], &w.edge_values[lo..hi])
    }

    /// The last aggregated value of aggregator `id`.
    pub fn aggregate(&self, id: usize) -> &AggValue {
        &self.snapshot[id]
    }
}

/// Serial tail of a superstep: merge aggregator partials in worker order,
/// capture metrics, run master compute, and decide whether to halt.
#[allow(clippy::too_many_arguments)]
fn superstep_epilogue<'a, P: Program>(
    program: &P,
    specs: &[AggregatorSpec],
    snapshot: &mut Vec<AggValue>,
    global: &mut P::G,
    superstep: u64,
    num_vertices: u64,
    step_start: Instant,
    per_worker: Vec<WorkerMetrics>,
    partials: impl Iterator<Item = &'a [AggValue]>,
    halted: u64,
) -> (SuperstepMetrics, Option<HaltReason>) {
    // Merge aggregates (worker order => deterministic).
    let mut merged: Vec<AggValue> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| if s.persistent { snapshot[i].clone() } else { s.identity() })
        .collect();
    for worker_partials in partials {
        for (i, spec) in specs.iter().enumerate() {
            spec.merge(&mut merged[i], &worker_partials[i]);
        }
    }

    let active_after = num_vertices - halted;
    let sent: u64 = per_worker.iter().map(|m| m.sent_local + m.sent_remote).sum();
    let step = SuperstepMetrics {
        superstep,
        per_worker,
        wall_ns: step_start.elapsed().as_nanos() as u64,
        active_after,
    };

    let mut mctx = MasterContext {
        superstep,
        global,
        aggregates: &mut merged,
        active: active_after,
        messages_sent: sent,
        halt: false,
    };
    program.master(&mut mctx);
    let master_halt = mctx.halt;
    *snapshot = merged;

    let reason = if master_halt {
        Some(HaltReason::Master)
    } else if active_after == 0 && sent == 0 {
        Some(HaltReason::AllHalted)
    } else {
        None
    };
    (step, reason)
}
