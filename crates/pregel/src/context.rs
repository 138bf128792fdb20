//! The per-vertex compute context.

use crate::aggregate::AggValue;
use crate::program::Program;
use crate::types::{Batch, WorkerId, BROADCAST_MULTI};
use spinner_graph::rng::SplitMix64;
use spinner_graph::VertexId;

/// View over a vertex's adjacency: immutable targets, mutable edge values.
///
/// Targets are sorted, so [`Edges::index_of`] is a binary search. A message
/// handler that needs the value of the edge a message arrived over need not
/// search at all when the sender broadcasts: [`Program::stamp`] hands the
/// receiver that edge's weight inside the message.
///
/// [`Program::stamp`]: crate::program::Program::stamp
pub struct Edges<'a, E> {
    /// Neighbour ids, sorted ascending.
    pub targets: &'a [VertexId],
    /// Edge values, parallel to `targets`.
    pub values: &'a mut [E],
}

impl<'a, E> Edges<'a, E> {
    /// Number of edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when the vertex has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Position of `target` in the adjacency, if present.
    #[inline]
    pub fn index_of(&self, target: VertexId) -> Option<usize> {
        self.targets.binary_search(&target).ok()
    }

    /// Iterates `(target, &value)`.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &E)> {
        self.targets.iter().copied().zip(self.values.iter())
    }
}

/// Message-sending handle; routes to the destination worker's outbox and
/// keeps the local/remote traffic counters the evaluation relies on.
///
/// Remote sends are double-buffered against the engine's `OutboxGrid`: the
/// buffer a send pushes into was drained (capacity intact) by the receiving
/// worker two supersteps ago, so steady-state sends never allocate.
///
/// **Locality fast path**: a message addressed to a vertex on the *same*
/// worker never touches the grid — it appends straight into the worker's own
/// local queue, which the delivery phase delivers from at the position the
/// grid's diagonal cell used to occupy. No mutex, no
/// publish swap, and per-vertex message order is unchanged, so results stay
/// bit-identical while label-aligned placements turn most of the message
/// volume into lock-free appends.
///
/// **Broadcast lane**: [`Mailer::broadcast`] ships one *record* per
/// destination worker (plus one fast-path record) instead of one per edge —
/// the receiver expands it through its fan-out index, stamping each copy
/// with the weight of the edge it crosses ([`Program::stamp`]); a lone
/// neighbour on a worker gets a plain unicast record instead — so the
/// announce-to-all-neighbours pattern costs `O(workers)` records per vertex
/// instead of `O(degree)`. Delivery expansion reproduces the per-edge send
/// order exactly, so results stay bit-identical to the unicast path (pinned
/// by the `fabric_grid` tests; the unicast arm stays available through
/// [`EngineConfig::broadcast_fabric`]).
///
/// [`Program::stamp`]: crate::program::Program::stamp
/// [`EngineConfig::broadcast_fabric`]: crate::engine::EngineConfig::broadcast_fabric
pub struct Mailer<'a, M> {
    /// Outboxes indexed by destination worker; broadcast records are
    /// marked in each batch's marks, beside the records.
    pub(crate) outboxes: &'a mut [Batch<M>],
    /// The worker-local queue (fast path for `worker_of[target] == my_worker`).
    pub(crate) local: &'a mut Batch<M>,
    pub(crate) worker_of: &'a [WorkerId],
    pub(crate) my_worker: WorkerId,
    /// The sending vertex (the id of its broadcast records).
    pub(crate) sender: VertexId,
    /// The sending vertex's full engine adjacency — the target set a
    /// broadcast implies, and the slice `send_to_all` compares against to
    /// recognise a full-adjacency send.
    pub(crate) adjacency: &'a [VertexId],
    /// Whether the broadcast lane is on ([`EngineConfig::broadcast_fabric`]).
    ///
    /// [`EngineConfig::broadcast_fabric`]: crate::engine::EngineConfig::broadcast_fabric
    pub(crate) lane_open: bool,
    /// The sender's broadcast plan, precomputed at load time: its
    /// adjacency's distinct destination workers in first-occurrence order
    /// (one fabric record each). Empty when the lane is off.
    pub(crate) bcast_plan: &'a [WorkerId],
    /// Parallel to `bcast_plan`: `BROADCAST_MULTI` for a fanned-out
    /// record, or the lone neighbour's position in `adjacency` where a
    /// plain unicast record is cheaper.
    pub(crate) bcast_lone: &'a [u32],
    /// Worker-local neighbours of the sender (the logical local deliveries
    /// one broadcast implies), precomputed at load time.
    pub(crate) bcast_local: u32,
    /// Remote neighbours of the sender (logical remote deliveries).
    pub(crate) bcast_remote: u32,
    pub(crate) sent_local: &'a mut u64,
    pub(crate) sent_remote: &'a mut u64,
    pub(crate) sent_local_records: &'a mut u64,
    pub(crate) sent_remote_records: &'a mut u64,
}

impl<'a, M> Mailer<'a, M> {
    /// Sends `msg` to `target`, delivered at the next superstep.
    ///
    /// This is the per-edge primitive — required whenever payloads differ
    /// per neighbour (e.g. SSSP's per-edge distances). A send of the *same*
    /// payload to every neighbour should go through [`Self::broadcast`]
    /// instead, which collapses the cross-worker traffic to one record per
    /// destination worker.
    #[inline]
    pub fn send(&mut self, target: VertexId, msg: M) {
        let w = self.worker_of[target as usize];
        if w == self.my_worker {
            *self.sent_local += 1;
            *self.sent_local_records += 1;
            self.local.push(false, target, msg);
        } else {
            *self.sent_remote += 1;
            *self.sent_remote_records += 1;
            self.outboxes[w as usize].push(false, target, msg);
        }
    }
}

impl<'a, M: Clone> Mailer<'a, M> {
    /// Sends `msg` to **every neighbour** of this vertex, deduplicated at
    /// the worker level: one record lands in each destination worker's grid
    /// cell (plus one in the local fast-path queue when any neighbour is
    /// worker-local), and the receiving worker fans it out to the sender's
    /// adjacent vertices through its fan-out index. Logical delivery — each
    /// neighbour receives exactly one copy, in the position a per-edge send
    /// loop would have produced — is unchanged, so results are bit-identical
    /// to `for &t in ctx.edges.targets { ctx.mail.send(t, msg) }` while
    /// remote traffic drops from `O(cut edges)` to `O(distinct (sender,
    /// worker) pairs)`.
    ///
    /// Falls back to per-edge sends when the lane is off
    /// ([`EngineConfig::broadcast_fabric`]).
    ///
    /// The engine stamps the copies it fans out ([`Program::stamp`]). The
    /// copies the sender addresses itself — a lone neighbour's unicast
    /// record, and every copy with the lane off — go out unstamped, since
    /// the mailer cannot read edge values; [`VertexContext::broadcast`]
    /// stamps those too.
    ///
    /// [`EngineConfig::broadcast_fabric`]: crate::engine::EngineConfig::broadcast_fabric
    /// [`Program::stamp`]: crate::program::Program::stamp
    pub fn broadcast(&mut self, msg: M) {
        self.broadcast_with(msg, |_, _| {});
    }

    /// [`Self::broadcast`], where `stamp(copy, i)` stamps each copy the
    /// sender addresses itself with its receiver's position `i` in the
    /// adjacency.
    pub(crate) fn broadcast_with(&mut self, msg: M, stamp: impl Fn(&mut M, usize)) {
        if !self.lane_open {
            for (i, &t) in self.adjacency.iter().enumerate() {
                let mut copy = msg.clone();
                stamp(&mut copy, i);
                self.send(t, copy);
            }
            return;
        }
        // The load-time plan already deduplicated the destination workers
        // and counted the logical local/remote split, so a broadcast costs
        // O(distinct destination workers) — no per-edge scan at all.
        *self.sent_local += self.bcast_local as u64;
        *self.sent_remote += self.bcast_remote as u64;
        for (&w, &lone) in self.bcast_plan.iter().zip(self.bcast_lone) {
            let mut copy = msg.clone();
            let (multi, id) = if lone == BROADCAST_MULTI {
                (true, self.sender)
            } else {
                stamp(&mut copy, lone as usize);
                (false, self.adjacency[lone as usize])
            };
            if w == self.my_worker {
                *self.sent_local_records += 1;
                self.local.push(multi, id, copy);
            } else {
                *self.sent_remote_records += 1;
                self.outboxes[w as usize].push(multi, id, copy);
            }
        }
    }

    /// Sends `msg` to every id in `targets`. When `targets` is the vertex's
    /// full adjacency slice (the common announce-to-neighbours pattern),
    /// the send is routed through the deduplicating broadcast lane; any
    /// other target list goes out as per-edge records, since the receiver
    /// can only expand a broadcast to the sender's *complete* local
    /// neighbour set.
    pub fn send_to_all(&mut self, targets: &[VertexId], msg: &M) {
        if std::ptr::eq(targets.as_ptr(), self.adjacency.as_ptr())
            && targets.len() == self.adjacency.len()
        {
            self.broadcast(msg.clone());
            return;
        }
        for &t in targets {
            self.send(t, msg.clone());
        }
    }
}

/// Aggregation handle: contribute to this superstep's partials and read the
/// previous superstep's merged values.
pub struct AggCtx<'a> {
    pub(crate) partial: &'a mut [AggValue],
    pub(crate) snapshot: &'a [AggValue],
}

impl<'a> AggCtx<'a> {
    /// Adds to a `SumI64` aggregator.
    #[inline]
    pub fn add_i64(&mut self, id: usize, v: i64) {
        match &mut self.partial[id] {
            AggValue::I64(acc) => *acc += v,
            other => panic!("aggregator {id} is not I64: {other:?}"),
        }
    }

    /// Adds to one element of a `VecSumI64` aggregator.
    #[inline]
    pub fn add_vec_i64(&mut self, id: usize, index: usize, v: i64) {
        match &mut self.partial[id] {
            AggValue::VecI64(acc) => acc[index] += v,
            other => panic!("aggregator {id} is not VecI64: {other:?}"),
        }
    }

    /// Merges a maximum into a `MaxI64` aggregator.
    #[inline]
    pub fn max_i64(&mut self, id: usize, v: i64) {
        match &mut self.partial[id] {
            AggValue::I64(acc) => *acc = (*acc).max(v),
            other => panic!("aggregator {id} is not I64: {other:?}"),
        }
    }

    /// Reads the value aggregated during the *previous* superstep (possibly
    /// overridden by master compute).
    #[inline]
    pub fn read(&self, id: usize) -> &AggValue {
        &self.snapshot[id]
    }
}

/// Everything a vertex can see and do during `compute`.
///
/// Fields are public so that disjoint borrows work naturally (e.g. iterating
/// `edges` while sending through `mail` and updating `worker`).
pub struct VertexContext<'a, P: Program> {
    /// Current superstep (0-based).
    pub superstep: u64,
    /// This vertex's global id.
    pub vertex: VertexId,
    /// Total number of vertices in the graph.
    pub num_vertices: u64,
    /// The logical worker hosting this vertex.
    pub worker_id: WorkerId,
    /// Engine seed (combine with vertex/superstep for local randomness).
    pub seed: u64,
    /// Global broadcast state (master-owned).
    pub global: &'a P::G,
    /// This vertex's value.
    pub value: &'a mut P::V,
    /// This vertex's adjacency.
    pub edges: Edges<'a, P::E>,
    /// Worker-local shared state (Spinner's async load counters live here).
    pub worker: &'a mut P::WorkerState,
    /// Message sending.
    pub mail: Mailer<'a, P::M>,
    /// Aggregator access.
    pub agg: AggCtx<'a>,
    pub(crate) halted: &'a mut bool,
    /// The wake key [`Self::sleep`] set, [`AWAKE`] while the vertex stays
    /// awake.
    pub(crate) sleep_key: &'a mut u64,
}

/// The sleep key of an awake vertex.
pub(crate) const AWAKE: u64 = u64::MAX;

impl<'a, P: Program> VertexContext<'a, P> {
    /// Vote to halt: the vertex is skipped in subsequent supersteps until a
    /// message re-activates it.
    #[inline]
    pub fn vote_to_halt(&mut self) {
        *self.halted = true;
    }

    /// Sleep: the vertex is skipped in subsequent supersteps until a
    /// message arrives or its worker's wake clock
    /// ([`Program::wake_clock`]) reaches `key`, whichever comes first; it
    /// then computes as if it had been awake all along. Unlike a halted
    /// vertex a sleeper stays active: [`MasterContext::active`], the
    /// engine's all-halted termination test and every superstep and
    /// message count see it as awake, and only `computed` drops. A key no
    /// later clock can be below (0 for a clock that starts at 0) wakes the
    /// vertex at the next superstep that has a clock. [`Self::vote_to_halt`]
    /// in the same superstep wins over a sleep.
    ///
    /// [`Program::wake_clock`]: crate::program::Program::wake_clock
    /// [`MasterContext::active`]: crate::program::MasterContext::active
    #[inline]
    pub fn sleep(&mut self, key: u64) {
        *self.sleep_key = key.min(AWAKE - 1);
    }

    /// A deterministic random stream for this `(seed, vertex, superstep)`.
    /// Independent of scheduling and of other vertices' draws.
    #[inline]
    pub fn rng(&self) -> SplitMix64 {
        spinner_graph::rng::vertex_stream(self.seed, self.vertex as u64, self.superstep)
    }

    /// Degree (number of out-edges in the engine's adjacency).
    #[inline]
    pub fn degree(&self) -> usize {
        self.edges.len()
    }

    /// [`Mailer::broadcast`] with every copy stamped through
    /// [`Program::stamp`] with the weight of the edge it crosses: the
    /// engine stamps the copies it fans out at delivery, and the copies
    /// the sender addresses itself are stamped here from
    /// [`Program::edge_weight`] of the live edge values. Either way every
    /// neighbour receives the same stamped copy in the same position.
    pub fn broadcast(&mut self, msg: P::M) {
        let values = &*self.edges.values;
        self.mail.broadcast_with(msg, |copy, i| P::stamp(copy, P::edge_weight(&values[i])));
    }
}
