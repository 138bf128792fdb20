//! The BSP engine: graph loading, the superstep loop, and halting.
//!
//! # Superstep anatomy
//!
//! Each superstep runs three phases over the logical workers:
//!
//! 1. **Compute** — every active vertex runs [`Program::compute`] against
//!    its slice of the worker's flat inbox; sends accumulate in per-
//!    destination outboxes. At the end of the phase each worker *publishes*
//!    its outboxes: by buffer swap into the shared `OutboxGrid`, or as
//!    encoded frames through the configured [`EngineConfig::transport`].
//! 2. **Delivery** — each worker drains its own *column* of the fabric
//!    (disjoint cells or lanes, so the phase is embarrassingly parallel and
//!    the engine thread is not a transposition bottleneck), rebuilds its
//!    flat inbox, wakes messaged vertices, and applies buffered graph
//!    mutations.
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
use crate::worker::{Fabric, Worker};
use crate::Placement;
use spinner_graph::{DirectedGraph, UndirectedGraph, VertexId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, RwLock};
use std::time::Instant;

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
    /// ([`WireFormat::Compact`] by default; [`WireFormat::Raw`] is the
    /// byte-hungry verification arm). Ignored on the direct path.
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

/// Why the broadcast lane is (or is not) usable right now — the diagnosable
/// face of the engine's internal `lane_open` flag. Every closed state used
/// to look identical from outside (broadcasts silently fell back to
/// per-edge unicast); [`Engine::lane_status`] names the cause so the perf
/// cliff of a mid-run mutation shows up in diagnostics instead of only in
/// throughput. The lane has no vertex-id cap and behaves the same on every
/// transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneStatus {
    /// The lane is open: broadcasts ship one record per destination worker.
    Open,
    /// `EngineConfig::broadcast_fabric` is off (the verification arm).
    DisabledByConfig,
    /// A graph mutation was applied mid-run, outdating the load-time
    /// fan-out index; the lane reopens at the next topology (re)load.
    ClosedByMutation,
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
    /// Whether the broadcast lane is currently usable: opened at (re)load
    /// time (config on) and closed — for the rest of
    /// the run — by the first applied graph mutation, which outdates the
    /// load-time fan-out index. Workers snapshot it at each compute phase;
    /// the store happens in the delivery phase, so the superstep barrier
    /// orders it before every read.
    lane_open: AtomicBool,
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
            |v| graph.neighbors(v).0,
            |v, i| graph.neighbors(v).1[i],
            init_v,
            init_e,
        )
    }

    /// Builds an engine over a directed graph (out-edges only), e.g. for
    /// PageRank-style applications. Edge weight passed to `init_e` is 1.
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
        neighbors: impl Fn(VertexId) -> &'g [VertexId],
        weight_at: impl Fn(VertexId, usize) -> u8,
        mut init_v: impl FnMut(VertexId) -> P::V,
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
            lane_open: AtomicBool::new(false),
        };
        engine.load_topology(
            n,
            placement,
            neighbors,
            weight_at,
            |v| (init_v(v), false),
            init_e,
        );
        engine
    }

    /// Re-targets a finished engine at a (possibly mutated) weighted
    /// undirected graph for another run, **in place**: program/aggregator
    /// state restarts fresh, but every message-fabric buffer — the outbox
    /// grid, the decoded-record buffers, the flat inboxes — and every
    /// topology vector keeps its allocation. A session that re-converges
    /// after a stream of graph deltas therefore performs no steady-state
    /// fabric reallocations after its first window (pinned by
    /// [`WorkerMetrics::fabric_reallocs`]).
    ///
    /// This is the one way to re-host an engine: every vertex lands on the
    /// worker `placement` names, wherever it lived before, so a caller that
    /// re-places vertices by computed label (paper §V-F) hands the new
    /// placement to its next reset.
    ///
    /// `init_v` yields each vertex's initial value and halted flag, so a
    /// caller that already knows which vertices have work (e.g. a frontier
    /// derived from a graph delta) can start the run with everything else
    /// parked — the active-set scheduler then never visits a parked vertex
    /// unless a message wakes it. Pair with [`Self::set_global`] /
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
        init_v: impl FnMut(VertexId) -> (P::V, bool),
        init_e: impl FnMut(VertexId, VertexId, u8) -> P::E,
    ) {
        assert_eq!(placement.num_vertices(), graph.num_vertices(), "placement size mismatch");
        self.program = program;
        self.specs = self.program.aggregators();
        self.snapshot = self.specs.iter().map(|s| s.identity()).collect();
        self.global = self.program.init_global();
        self.load_topology(
            graph.num_vertices(),
            placement,
            |v| graph.neighbors(v).0,
            |v, i| graph.neighbors(v).1[i],
            init_v,
            init_e,
        );
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
    /// `vertex_init` yields each vertex's value and halted flag;
    /// `edge_init(src, dst, weight)` yields each edge's value, where the
    /// weight of the `i`-th edge of `src` is `weight_at(src, i)`.
    fn load_topology<'g>(
        &mut self,
        n: VertexId,
        placement: &Placement,
        neighbors: impl Fn(VertexId) -> &'g [VertexId],
        weight_at: impl Fn(VertexId, usize) -> u8,
        mut vertex_init: impl FnMut(VertexId) -> (P::V, bool),
        mut edge_init: impl FnMut(VertexId, VertexId, u8) -> P::E,
    ) {
        let num_workers = self.workers.len();
        assert_eq!(
            placement.num_workers(),
            num_workers,
            "the worker count is fixed for the life of an engine"
        );
        self.num_vertices = n as u64;
        self.worker_of.clear();
        self.worker_of.extend_from_slice(placement.as_slice());
        self.local_idx.clear();
        self.local_idx.resize(n as usize, 0);
        for w in &mut self.workers {
            w.clear_topology();
        }
        // First pass: assign vertices, values, and halted flags.
        for v in 0..n {
            let w = &mut self.workers[self.worker_of[v as usize] as usize];
            self.local_idx[v as usize] = w.global_ids.len() as u32;
            w.global_ids.push(v);
            let (value, halted) = vertex_init(v);
            w.values.push(value);
            w.halted.push(halted);
            w.num_halted += u64::from(halted);
        }
        // Second pass: adjacency, counting per-worker inbound entries (the
        // delivery-volume bound used to pre-reserve the message fabric),
        // split into worker-local ones (served by the fast-path queue) and
        // the rest — and, with the broadcast lane on, counting each worker's
        // fan-out index entries per sender in the same sweep.
        let build_fanout = self.config.broadcast_fabric;
        // The fan-out vectors move out of the workers for the build (two
        // simultaneous worker borrows otherwise: reading one worker's
        // adjacency while counting into another's index) and are handed
        // back below, capacities intact across warm resets.
        let mut fans: Vec<(Vec<u32>, Vec<u32>)> = self
            .workers
            .iter_mut()
            .map(|w| (std::mem::take(&mut w.fan_offsets), std::mem::take(&mut w.fan_targets)))
            .collect();
        for (offsets, targets) in &mut fans {
            offsets.clear();
            targets.clear();
            if build_fanout {
                offsets.resize(n as usize + 1, 0);
            }
        }
        let worker_of = &self.worker_of;
        let mut inbound = vec![0usize; num_workers];
        let mut self_inbound = vec![0usize; num_workers];
        // Scratch for the per-vertex destination-worker dedup of the
        // broadcast *plan* (stamps keyed by a monotonically growing vertex
        // epoch, so no per-vertex reset).
        let mut plan_stamp = vec![0u64; num_workers];
        let mut plan_pos = vec![0usize; num_workers];
        let mut plan_epoch = 0u64;
        // `marks[src * W + dst]`: fanned-out broadcast records one superstep
        // can send from `src` to `dst` (one per multi-neighbour plan entry),
        // the bound that pre-reserves the broadcast marks.
        let mut marks = vec![0usize; num_workers * num_workers];
        // `plan_in[dst]`: plan entries addressed to `dst` from other workers
        // — the records one all-broadcast superstep ships to `dst`, which
        // bounds its decoded wire records.
        let mut plan_in = vec![0usize; num_workers];
        for w in &mut self.workers {
            let me = w.id as usize;
            let mut edge_count = 0usize;
            for &gid in &w.global_ids {
                edge_count += neighbors(gid).len();
            }
            w.offsets.reserve(w.global_ids.len() + 1);
            w.offsets.push(0);
            w.targets.reserve(edge_count);
            w.edge_values.reserve(edge_count);
            if build_fanout {
                w.plan_offsets.push(0);
            }
            for &gid in &w.global_ids {
                let ts = neighbors(gid);
                plan_epoch += 1;
                let mut local_count = 0u32;
                for (i, &t) in ts.iter().enumerate() {
                    w.targets.push(t);
                    w.edge_values.push(edge_init(gid, t, weight_at(gid, i)));
                    let dst = worker_of[t as usize] as usize;
                    if dst == me {
                        self_inbound[dst] += 1;
                        local_count += 1;
                    } else {
                        inbound[dst] += 1;
                    }
                    if build_fanout {
                        fans[dst].0[gid as usize + 1] += 1;
                        if plan_stamp[dst] != plan_epoch {
                            plan_stamp[dst] = plan_epoch;
                            plan_pos[dst] = w.plan_workers.len();
                            w.plan_workers.push(dst as WorkerId);
                            plan_in[dst] += usize::from(dst != me);
                            // Tentatively a lone neighbour on `dst`; a
                            // second one demotes the entry to a fanned-out
                            // broadcast record.
                            w.plan_lone.push(i as u32);
                        } else if w.plan_lone[plan_pos[dst]] != BROADCAST_MULTI {
                            w.plan_lone[plan_pos[dst]] = BROADCAST_MULTI;
                            marks[me * num_workers + dst] += 1;
                        }
                    }
                }
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
        }
        let wired = self.transport.is_some();
        for (((w, inb), self_inb), plan_inb) in
            self.workers.iter_mut().zip(inbound).zip(self_inbound).zip(plan_in)
        {
            w.reset_fabric();
            // The flat inbox sees every message; the fast-path queue only
            // the worker-local ones; the wire only the others, as one
            // record per plan entry when every sender broadcasts (a
            // unicast-only program's first wired superstep grows it to
            // `inb`).
            let me = w.id as usize;
            w.reserve_inbound(
                inb + self_inb,
                self_inb,
                &marks[me * num_workers..(me + 1) * num_workers],
                match (wired, build_fanout) {
                    (false, _) => 0,
                    (true, true) => plan_inb,
                    (true, false) => inb,
                },
            );
        }
        // The grid cells hold the other half of each outbox's double buffer.
        if self.transport.is_none() {
            for (cell, &n) in self.mail_grid.iter_mut().zip(&marks) {
                if let Ok(cell) = cell.get_mut() {
                    cell.marks.reserve(n);
                }
            }
        }
        if build_fanout {
            // Prefix-sum the per-sender counts into CSR offsets, then fill
            // each index by revisiting the (now loaded) adjacency once. A
            // sender's entries per destination worker are contiguous and in
            // adjacency order — the positions per-edge unicasts would
            // occupy — so a small per-worker cursor that resets per sender
            // suffices; no additional O(V x W) cursor scratch on top of the
            // offsets. (The offset arrays themselves are O(V) per worker —
            // the dense global-sender keying that makes delivery-time
            // lookups O(1); a compacted sender remap would shrink that to
            // O(cut senders) if worker counts ever grow large.)
            for (dst, (offsets, targets)) in fans.iter_mut().enumerate() {
                let mut total = 0usize;
                for offset in &mut offsets[1..] {
                    total += *offset as usize;
                    *offset = total as u32;
                }
                // The running total only grows, so every offset above was
                // exact if the last one is.
                targets.resize(checked_u32(dst, "fan-out entries", total) as usize, 0);
                // Each entry keeps `P::STAMP_BITS` of edge weight below the
                // local index.
                let hosted = self.workers[dst].global_ids.len();
                if hosted > (u32::MAX >> P::STAMP_BITS) as usize {
                    panic!(
                        "worker {dst}: {hosted} vertices overflow the {}-bit local indices \
                         of its fan-out index",
                        32 - P::STAMP_BITS
                    );
                }
            }
            let local_idx = &self.local_idx;
            let mut written = vec![0u32; num_workers];
            for w in &self.workers {
                for (li, &gid) in w.global_ids.iter().enumerate() {
                    let lo = w.offsets[li] as usize;
                    let hi = w.offsets[li + 1] as usize;
                    for (&t, e) in w.targets[lo..hi].iter().zip(&w.edge_values[lo..hi]) {
                        let dst = worker_of[t as usize] as usize;
                        let (offs, tgts) = &mut fans[dst];
                        let weight = if P::STAMP_BITS > 0 {
                            let weight = u32::from(P::edge_weight(e));
                            assert!(
                                weight >> P::STAMP_BITS == 0,
                                "edge weight {weight} wider than Program::STAMP_BITS"
                            );
                            weight
                        } else {
                            0
                        };
                        tgts[(offs[gid as usize] + written[dst]) as usize] =
                            local_idx[t as usize] << P::STAMP_BITS | weight;
                        written[dst] += 1;
                    }
                    for &t in &w.targets[lo..hi] {
                        written[worker_of[t as usize] as usize] = 0;
                    }
                }
            }
        }
        for (w, (offsets, targets)) in self.workers.iter_mut().zip(fans) {
            w.fan_offsets = offsets;
            w.fan_targets = targets;
        }
        // A fresh topology always reopens the lane: mutations applied by the
        // previous run are folded into the adjacency the index was just
        // rebuilt from.
        self.lane_open.store(build_fanout, Ordering::Release);
        // A finished run leaves every grid cell drained (delivery precedes
        // the halt decision), so the grid carries only capacity forward.
        debug_assert!(
            self.mail_grid.iter_mut().all(|c| c.get_mut().map_or(true, |c| c.is_empty())),
            "mail grid not drained before topology reload"
        );
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

    /// Current state of the broadcast lane, with the cause when closed —
    /// see [`LaneStatus`]. Derived, not stored: the engine keeps one
    /// boolean and this method names why it is what it is.
    pub fn lane_status(&self) -> LaneStatus {
        if self.lane_open.load(Ordering::Acquire) {
            LaneStatus::Open
        } else if !self.config.broadcast_fabric {
            LaneStatus::DisabledByConfig
        } else {
            LaneStatus::ClosedByMutation
        }
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
        let lane = &self.lane_open;
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
            {
                let guard = master.read().expect("master state");
                let m = &*guard;
                // Lane stores happen in the delivery phase, so the start
                // barrier orders them before this load.
                let lane_open = lane.load(Ordering::Acquire);
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
            }
            barrier.wait();
            sweep(superstep * 2 + 1, &mut |wi| {
                let mut w = cells[wi].lock().expect("worker cell");
                let delivered = w.deliver(program, &fabric, local_idx);
                w.apply_mutations(lane);
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
                // failed superstep's traffic is accounted — and outranks any
                // program-level halt decision taken on its partial state.
                if let Some(e) = publish_error.or(delivery_error) {
                    halt = HaltReason::TransportFailed(e);
                    break;
                }
                if let Some(reason) = reason {
                    halt = reason;
                    break;
                }
            }
            stop.store(true, Ordering::Release);
            barrier.wait(); // release the pool to observe `stop` and exit
        });
        halt
    }

    /// Clones all vertex values into a dense global-id-indexed vector.
    pub fn collect_values(&self) -> Vec<P::V> {
        self.collect_values_with(Clone::clone)
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

    /// Vertex `v`'s current engine adjacency — sorted targets and the edge
    /// values beside them, graph mutations included.
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
