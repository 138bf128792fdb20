//! A logical worker: hosts a subset of vertices and executes the compute and
//! delivery phases of each superstep.
//!
//! Messages flow through a flat, reusable fabric instead of per-vertex
//! `Vec`s: delivery drains the batches addressed to the worker — its column
//! of the `OutboxGrid`, or its transport frames — into a
//! staging buffer (chained per destination vertex), then a single gather
//! pass over the *recipients* rebuilds the flat inbox
//! `(inbox_start, inbox_len, msgs)` that the compute phase reads as one
//! slice per vertex. All buffers keep their capacity across supersteps, so
//! the steady state performs no heap allocation on the message path.
//!
//! Compute is driven by an **active list** — the sorted local indices of
//! the non-halted vertices, maintained incrementally (compute survivors
//! merged with delivery wake-ups) — so a superstep's cost scales with the
//! vertices that actually have work, not with the worker's vertex count.
//! The engine's `dense_scan` configuration switches compute back to the
//! full `0..n_local` walk (with a halted/empty-inbox skip); both drivers
//! visit exactly the same vertices in the same order, so results are
//! bit-identical by construction.
//!
//! One publish/deliver pair serves both fabrics (grid and transport):
//! broadcast records are flagged by the marks every batch carries beside its
//! records, so the grid cells, the local fast-path queue and the wire
//! frames all share one record layout and one staging routine.

use crate::aggregate::{AggValue, AggregatorSpec};
use crate::context::{AggCtx, EdgeAddition, Edges, Mailer, VertexContext};
use crate::metrics::WorkerMetrics;
use crate::program::Program;
use crate::transport::{Transport, TransportError};
use crate::types::{Batch, OutboxGrid, WorkerId};
use crate::wire::{decode_frame, encode_frame, WireFormat, WireRecord};
use spinner_graph::VertexId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Sentinel for "no next message" in the staging chains.
const NIL: u32 = u32::MAX;

/// Where cross-worker batches go and come from: the in-memory `OutboxGrid`
/// (zero-copy buffer swaps) or a serialising [`Transport`] (folded, framed
/// batches). [`Worker::publish`] and [`Worker::deliver`] differ between the
/// two only where they hand over or obtain a batch.
pub(crate) enum Fabric<'a, M> {
    Grid(&'a OutboxGrid<M>),
    Wire { transport: &'a dyn Transport, format: WireFormat, fold: bool },
}

/// One logical worker's vertex store, mailboxes, and per-superstep scratch.
pub struct Worker<P: Program> {
    pub(crate) id: WorkerId,
    /// Local index -> global vertex id.
    pub(crate) global_ids: Vec<VertexId>,
    pub(crate) values: Vec<P::V>,
    pub(crate) halted: Vec<bool>,
    /// Maintained count of `true` entries in `halted` (updated on every
    /// halt/wake transition so the engine never rescans the vector).
    pub(crate) num_halted: u64,
    /// Local CSR: `offsets[i]..offsets[i+1]` indexes `targets`/`edge_values`.
    pub(crate) offsets: Vec<u64>,
    pub(crate) targets: Vec<VertexId>,
    pub(crate) edge_values: Vec<P::E>,
    /// Flat inbox: vertex `i` reads `msgs[inbox_start[i]..][..inbox_len[i]]`
    /// — but only when `inbox_epoch[i]` matches the current delivery epoch;
    /// a stale stamp means an empty inbox. Stamping lets the gather pass
    /// touch only the vertices that actually received messages instead of
    /// rebuilding an O(n_local) offset array every superstep.
    pub(crate) inbox_start: Vec<u32>,
    pub(crate) inbox_len: Vec<u32>,
    pub(crate) inbox_epoch: Vec<u64>,
    pub(crate) msgs: Vec<P::M>,
    /// Active list: sorted local indices of the non-halted vertices, i.e.
    /// exactly the set the dense scan would compute. Rebuilt by every
    /// delivery phase as the merge of `survivors` and `woken`; seeded from
    /// `halted` at (re)load time.
    active: Vec<u32>,
    /// Compute-phase scratch: vertices that computed and did not halt, in
    /// ascending order (the compute loop itself is ascending).
    survivors: Vec<u32>,
    /// Delivery-phase scratch: halted vertices woken by a message this
    /// epoch (sorted before the merge; disjoint from `survivors` because
    /// survivors are never halted).
    woken: Vec<u32>,
    /// Delivery-phase scratch: local indices that received at least one
    /// message this epoch, in first-arrival order — the gather pass walks
    /// this instead of every local vertex.
    recipients: Vec<u32>,
    /// Delivery staging: messages in arrival order; the gather pass clones
    /// them into `msgs` in vertex order (messages are `Clone` by the
    /// [`crate::types::Value`] bound, and in practice plain-old-data).
    staging: Vec<P::M>,
    /// `staging_next[i]` chains message `i` to the next message addressed to
    /// the same vertex (or [`NIL`]).
    staging_next: Vec<u32>,
    /// Locality fast path: messages this worker sent to its own vertices
    /// during the compute phase. They bypass the fabric entirely and are
    /// folded into the staging chains by the next delivery phase, at the
    /// position the grid's diagonal cell used to occupy (so per-vertex
    /// message order — and therefore every result — is unchanged).
    local: Batch<P::M>,
    /// Broadcast fan-out index (the receive side of the broadcast lane): a
    /// reverse CSR over *global sender ids* — `fan_targets[fan_offsets[s]..
    /// fan_offsets[s + 1]]` lists, in `s`'s adjacency order, the local
    /// indices of this worker's vertices that appear in `s`'s engine
    /// adjacency. Built by `load_topology` alongside the inbound counts
    /// (capacity preserved across warm resets and migrations), read by the
    /// delivery phase to expand marked broadcast records. Empty when the
    /// broadcast lane is disabled.
    pub(crate) fan_offsets: Vec<u32>,
    pub(crate) fan_targets: Vec<u32>,
    /// Broadcast *plan* (the send side of the broadcast lane), also built
    /// by `load_topology`: for local vertex `li`,
    /// `plan_workers[plan_offsets[li]..plan_offsets[li + 1]]` lists the
    /// distinct destination workers of its adjacency (first-occurrence
    /// order), and `plan_local[li]`/`plan_remote[li]` the logical
    /// local/remote delivery counts one broadcast implies — so
    /// [`Mailer::broadcast`] costs O(distinct workers), not O(degree).
    /// Empty (all four) when the broadcast lane is disabled.
    pub(crate) plan_offsets: Vec<u32>,
    pub(crate) plan_workers: Vec<WorkerId>,
    /// Parallel to `plan_workers`: the lone neighbour's id where the
    /// record can ship as a plain unicast, `BROADCAST_MULTI` otherwise.
    pub(crate) plan_single: Vec<VertexId>,
    pub(crate) plan_local: Vec<u32>,
    pub(crate) plan_remote: Vec<u32>,
    /// Per-vertex chain head/tail into `staging`, valid only when
    /// `chain_epoch[v]` equals the current delivery epoch (stamping avoids
    /// an O(vertices) reset every superstep).
    chain_head: Vec<u32>,
    chain_tail: Vec<u32>,
    chain_epoch: Vec<u64>,
    /// Current delivery epoch (bumped once per delivery phase).
    epoch: u64,
    /// Outboxes indexed by destination worker; handed to the [`Fabric`] at
    /// the end of the compute phase (swapped into the grid, or folded and
    /// encoded into transport frames).
    pub(crate) outboxes: Vec<Batch<P::M>>,
    /// Wire publish scratch: the sorted/folded records of one frame.
    wire_stage: Vec<WireRecord<P::M>>,
    /// Wire publish scratch: `(id << 32) | position` sort keys — unique by
    /// position, so `sort_unstable` yields a *stable* by-destination order
    /// without the allocation a stable sort would make.
    sort_keys: Vec<u64>,
    /// Wire delivery scratch: decoded records of one inbound frame.
    wire_recv: Vec<WireRecord<P::M>>,
    /// Wire delivery scratch: one section's decoded ids.
    wire_ids: Vec<u64>,
    /// Buffered edge additions, applied at the barrier.
    pub(crate) additions: Vec<EdgeAddition<P::E>>,
    /// This superstep's aggregator partials.
    pub(crate) partial_aggs: Vec<AggValue>,
    /// Last superstep's worker state, offered back to
    /// [`Program::reset_worker`] so its buffers stay warm.
    cached_worker_state: Option<P::WorkerState>,
    pub(crate) metrics: WorkerMetrics,
}

impl<P: Program> Worker<P> {
    pub(crate) fn new(id: WorkerId, num_workers: usize) -> Self {
        Self {
            id,
            global_ids: Vec::new(),
            values: Vec::new(),
            halted: Vec::new(),
            num_halted: 0,
            offsets: vec![0],
            targets: Vec::new(),
            edge_values: Vec::new(),
            inbox_start: Vec::new(),
            inbox_len: Vec::new(),
            inbox_epoch: Vec::new(),
            msgs: Vec::new(),
            active: Vec::new(),
            survivors: Vec::new(),
            woken: Vec::new(),
            recipients: Vec::new(),
            staging: Vec::new(),
            staging_next: Vec::new(),
            local: Batch::default(),
            fan_offsets: Vec::new(),
            fan_targets: Vec::new(),
            plan_offsets: Vec::new(),
            plan_workers: Vec::new(),
            plan_single: Vec::new(),
            plan_local: Vec::new(),
            plan_remote: Vec::new(),
            chain_head: Vec::new(),
            chain_tail: Vec::new(),
            chain_epoch: Vec::new(),
            epoch: 0,
            outboxes: (0..num_workers).map(|_| Batch::default()).collect(),
            wire_stage: Vec::new(),
            sort_keys: Vec::new(),
            wire_recv: Vec::new(),
            wire_ids: Vec::new(),
            additions: Vec::new(),
            partial_aggs: Vec::new(),
            cached_worker_state: None,
            metrics: WorkerMetrics::default(),
        }
    }

    /// Empties every topology-bearing vector (vertices, values, adjacency)
    /// while keeping its allocation, ahead of a (re)load. Message-fabric
    /// buffers are untouched — [`Self::reset_fabric`] handles those.
    pub(crate) fn clear_topology(&mut self) {
        self.global_ids.clear();
        self.values.clear();
        self.halted.clear();
        self.num_halted = 0;
        self.offsets.clear();
        self.targets.clear();
        self.edge_values.clear();
        self.plan_offsets.clear();
        self.plan_workers.clear();
        self.plan_single.clear();
        self.plan_local.clear();
        self.plan_remote.clear();
        debug_assert!(self.additions.is_empty(), "additions drained at the last barrier");
    }

    /// (Re)sizes the per-vertex fabric state once the vertex set is known.
    /// All buffers keep their capacity, so a warm engine re-targeted at a
    /// mutated graph starts from the previous run's high-water marks. The
    /// delivery epoch is *not* reset: it grows monotonically for the life of
    /// the worker, so stale `chain_epoch` stamps can never alias a future
    /// delivery.
    pub(crate) fn reset_fabric(&mut self) {
        let n_local = self.global_ids.len();
        self.inbox_start.clear();
        self.inbox_start.resize(n_local, 0);
        self.inbox_len.clear();
        self.inbox_len.resize(n_local, 0);
        self.inbox_epoch.clear();
        self.inbox_epoch.resize(n_local, 0);
        self.chain_head.clear();
        self.chain_head.resize(n_local, NIL);
        self.chain_tail.clear();
        self.chain_tail.resize(n_local, NIL);
        self.chain_epoch.clear();
        self.chain_epoch.resize(n_local, 0);
        self.msgs.clear();
        // A fresh inbox must read as empty even though the monotonic epoch
        // keeps climbing: bump past every zeroed `inbox_epoch` stamp. (The
        // first delivery bumps it again, so stamps written by the *previous*
        // topology can never alias a future inbox either.)
        self.epoch += 1;
        // Seed the active list from the load-time halted flags; the
        // scheduler scratch is sized once here so the per-superstep merge
        // never allocates (each list is bounded by n_local).
        self.active.clear();
        self.active.reserve(n_local);
        self.active
            .extend(self.halted.iter().enumerate().filter(|(_, &h)| !h).map(|(i, _)| i as u32));
        self.survivors.clear();
        self.survivors.reserve(n_local);
        self.woken.clear();
        self.woken.reserve(n_local);
        self.recipients.clear();
        self.recipients.reserve(n_local);
        self.metrics.reset();
        debug_assert!(
            self.staging.is_empty()
                && self.staging_next.is_empty()
                && self.local.is_empty()
                && self.outboxes.iter().all(Batch::is_empty)
        );
    }

    /// Pre-reserves the delivery-side buffers for `inbound` messages — the
    /// number of adjacency entries addressed to this worker, which bounds the
    /// per-superstep delivery volume of every send-along-edges program —
    /// plus the worker-local send queue for the `self_inbound` of them that
    /// originate on this worker (the locality fast path). `marks[dst]` bounds
    /// the broadcast records one superstep sends to worker `dst` (the
    /// diagonal entry: to the local queue). Done at (re)load time so graph
    /// growth between warm runs never forces a message-path reallocation
    /// (see [`WorkerMetrics::fabric_reallocs`]).
    pub(crate) fn reserve_inbound(
        &mut self,
        inbound: usize,
        self_inbound: usize,
        marks: &[usize],
    ) {
        debug_assert!(self.staging.is_empty() && self.msgs.is_empty());
        self.staging.reserve(inbound);
        self.staging_next.reserve(inbound);
        self.msgs.reserve(inbound);
        self.local.records.reserve(self_inbound);
        self.local.marks.reserve(marks[self.id as usize]);
        for (outbox, &n) in self.outboxes.iter_mut().zip(marks) {
            outbox.marks.reserve(n);
        }
    }

    /// Number of vertices hosted here.
    pub fn num_local_vertices(&self) -> usize {
        self.global_ids.len()
    }

    /// Number of halted vertices (maintained, O(1)).
    pub(crate) fn halted_count(&self) -> u64 {
        self.num_halted
    }

    /// Executes the compute phase of one superstep. The default driver
    /// walks the maintained active list (exactly the non-halted vertices,
    /// ascending); `dense_scan` walks `0..n_local` with a halted/empty-inbox
    /// skip instead — the same visit set in the same order, so the two
    /// drivers are bit-identical and the dense arm serves as a cheap
    /// verification oracle. `lane_open` snapshots the engine's
    /// broadcast-lane state for the whole phase (the lane only closes at a
    /// barrier, so the snapshot is exact).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn compute_phase(
        &mut self,
        program: &P,
        global: &P::G,
        snapshot: &[AggValue],
        specs: &[AggregatorSpec],
        worker_of: &[WorkerId],
        superstep: u64,
        seed: u64,
        num_vertices: u64,
        lane_open: bool,
        dense_scan: bool,
    ) {
        let start = Instant::now();
        self.metrics.reset();
        // Fast-path queue growth counts as fabric growth: it replaces the
        // grid's diagonal cell, whose capacity reuse the steady-state
        // zero-allocation guarantee used to cover. So does growth of the
        // outboxes' broadcast marks, which double-buffer against the grid.
        let local_caps = (self.local.records.capacity(), self.local.marks.capacity());
        let marks_cap = self.outbox_marks_capacity();
        // Reset partials and worker state in place where possible — both are
        // per-superstep, but their buffers need not be.
        if self.partial_aggs.len() == specs.len() {
            for (spec, acc) in specs.iter().zip(&mut self.partial_aggs) {
                spec.reset_to_identity(acc);
            }
        } else {
            self.partial_aggs = specs.iter().map(|s| s.identity()).collect();
        }
        let mut worker_state = match self.cached_worker_state.take() {
            Some(mut state) => {
                if !program.reset_worker(&mut state, global, self.id) {
                    state = program.init_worker(global, self.id);
                }
                state
            }
            None => program.init_worker(global, self.id),
        };

        let n_local = self.global_ids.len();
        debug_assert_eq!(self.inbox_epoch.len(), n_local);
        debug_assert!(self.survivors.is_empty());
        let survivors_cap = self.survivors.capacity();
        let count = if dense_scan { n_local } else { self.active.len() };
        for idx in 0..count {
            let i = if dense_scan { idx } else { self.active[idx] as usize };
            let (m_lo, m_len) = if self.inbox_epoch[i] == self.epoch {
                (self.inbox_start[i] as usize, self.inbox_len[i] as usize)
            } else {
                (0, 0)
            };
            if self.halted[i] {
                debug_assert!(dense_scan, "active list never holds a halted vertex");
                if m_len == 0 {
                    continue;
                }
                // Delivery wakes messaged vertices, so this is unreachable
                // today; kept so the halted counter stays correct if the
                // wake-up ever moves.
                self.halted[i] = false;
                self.num_halted -= 1;
            }
            self.metrics.computed += 1;
            let lo = self.offsets[i] as usize;
            let hi = self.offsets[i + 1] as usize;
            // The broadcast plan exists exactly when the lane can open;
            // with the lane closed the Mailer never reads it.
            let (bcast_plan, bcast_single, bcast_local, bcast_remote) = if lane_open {
                let p_lo = self.plan_offsets[i] as usize;
                let p_hi = self.plan_offsets[i + 1] as usize;
                (
                    &self.plan_workers[p_lo..p_hi],
                    &self.plan_single[p_lo..p_hi],
                    self.plan_local[i],
                    self.plan_remote[i],
                )
            } else {
                (&[][..], &[][..], 0, 0)
            };
            // Split borrows: every field of the context aliases a distinct
            // part of `self`; the inbox slice is read-only and disjoint from
            // all of them.
            let mut ctx = VertexContext::<P> {
                superstep,
                vertex: self.global_ids[i],
                num_vertices,
                worker_id: self.id,
                seed,
                global,
                value: &mut self.values[i],
                edges: Edges {
                    targets: &self.targets[lo..hi],
                    values: &mut self.edge_values[lo..hi],
                },
                worker: &mut worker_state,
                mail: Mailer {
                    outboxes: &mut self.outboxes,
                    local: &mut self.local,
                    worker_of,
                    my_worker: self.id,
                    sender: self.global_ids[i],
                    adjacency: &self.targets[lo..hi],
                    lane_open,
                    bcast_plan,
                    bcast_single,
                    bcast_local,
                    bcast_remote,
                    sent_local: &mut self.metrics.sent_local,
                    sent_remote: &mut self.metrics.sent_remote,
                    sent_local_records: &mut self.metrics.sent_local_records,
                    sent_remote_records: &mut self.metrics.sent_remote_records,
                },
                agg: AggCtx { partial: &mut self.partial_aggs, snapshot },
                halted: &mut self.halted[i],
                additions: &mut self.additions,
                local_idx: i as u32,
            };
            program.compute(&mut ctx, &self.msgs[m_lo..m_lo + m_len]);
            if self.halted[i] {
                self.num_halted += 1;
            } else {
                // Ascending in both drivers, so `survivors` stays sorted.
                self.survivors.push(i as u32);
            }
        }
        self.cached_worker_state = Some(worker_state);
        self.metrics.fabric_reallocs +=
            u64::from(self.local.records.capacity() != local_caps.0)
                + u64::from(self.local.marks.capacity() != local_caps.1)
                + u64::from(self.outbox_marks_capacity() != marks_cap)
                + u64::from(self.survivors.capacity() != survivors_cap);
        self.metrics.compute_ns = start.elapsed().as_nanos() as u64;
    }

    /// Summed capacity of the outboxes' broadcast marks (capacities only
    /// grow during a compute phase, so a changed sum means a growth event).
    fn outbox_marks_capacity(&self) -> usize {
        self.outboxes.iter().map(|o| o.marks.capacity()).sum()
    }

    /// Publishes this worker's outboxes into the fabric. Worker-local
    /// messages never pass through here: the fast path keeps them in
    /// `local`, so the grid's diagonal cells stay empty and no frame is ever
    /// addressed to the sender itself.
    ///
    /// On the grid each non-empty outbox is swapped with its (drained) cell,
    /// records and marks together — the capacities double-buffer between
    /// sender and grid, so neither side reallocates in the steady state. On
    /// the wire each is folded, sorted and encoded into one frame (see
    /// [`stage_frame`]) and published through the transport.
    ///
    /// Every outbox is emptied even when a publish fails, and the first
    /// typed [`TransportError`] is returned afterwards, keeping outbox and
    /// metric state consistent for the abort path. A grid cell poisoned by
    /// a panicked peer reports [`TransportError::PeerPanicked`], exactly as
    /// a poisoned ring channel does.
    pub(crate) fn publish(
        &mut self,
        program: &P,
        fabric: &Fabric<'_, P::M>,
    ) -> Result<(), TransportError> {
        let Self { id, outboxes, wire_stage, sort_keys, metrics, .. } = self;
        let me = *id as usize;
        let num_workers = outboxes.len();
        debug_assert!(outboxes[me].is_empty(), "local sends bypass the fabric");
        let scratch_caps = (wire_stage.capacity(), sort_keys.capacity());
        let mut failure: Option<TransportError> = None;
        for (dst, outbox) in outboxes.iter_mut().enumerate() {
            if outbox.is_empty() {
                continue;
            }
            let published = match *fabric {
                Fabric::Grid(grid) => match grid[me * num_workers + dst].lock() {
                    Ok(mut cell) => {
                        debug_assert!(cell.is_empty(), "cell drained by last delivery");
                        std::mem::swap(outbox, &mut *cell);
                        Ok(())
                    }
                    Err(_) => Err(TransportError::PeerPanicked { src: me, dst }),
                },
                Fabric::Wire { transport, format, fold } => {
                    let unicast_logical =
                        stage_frame(program, outbox, fold, wire_stage, sort_keys, metrics);
                    let buf = transport.begin(me, dst);
                    let cap = buf.capacity();
                    let frame = encode_frame(format, wire_stage, unicast_logical, buf);
                    metrics.bytes_sent += frame.len() as u64;
                    metrics.frames_sent += 1;
                    // Frame-buffer growth is fabric growth: recycling keeps
                    // the capacity across supersteps, so the steady state
                    // stays at zero.
                    metrics.fabric_reallocs += u64::from(frame.capacity() != cap);
                    transport.publish(me, dst, frame)
                }
            };
            // A no-op after a grid swap; the wire path copied the batch out.
            outbox.clear();
            if let Err(e) = published {
                failure.get_or_insert(e);
            }
        }
        metrics.fabric_reallocs += u64::from(wire_stage.capacity() != scratch_caps.0)
            + u64::from(sort_keys.capacity() != scratch_caps.1);
        failure.map_or(Ok(()), Err)
    }

    /// Delivery phase: drains the batches addressed to this worker — the
    /// fast-path local queue in place of the diagonal, then each source's
    /// grid cell or transport frames, in source order — into the staging
    /// chains (applying the program's combiner), then runs
    /// [`Self::finish_delivery`]. Marked broadcast records fan out through
    /// the load-time index to every local vertex adjacent to the sender, in
    /// the sender's adjacency order — exactly the positions the per-edge
    /// unicasts would have occupied, so per-vertex message order (and
    /// therefore every result) is identical across the two lanes. Messages
    /// keep (source-worker, send-order) order per vertex.
    ///
    /// Logical receive accounting is fabric- and fold-invariant: a broadcast
    /// record counts its fan-out width, and a wire frame's trailer carries
    /// its *pre-fold* unicast count — so `recv_remote` matches bit-for-bit
    /// across every transport × format × fold arm.
    ///
    /// On a typed failure the remaining sources are still drained and the
    /// tail still runs — buffer and scheduler state stay consistent for the
    /// abort/recovery path — and the first error is returned afterwards.
    /// Receive-side recovery work (retransmits the reliability layer
    /// performed on this worker's behalf) is attributed to
    /// [`WorkerMetrics::retransmits`] by diffing the transport's cumulative
    /// counters around the drain.
    pub(crate) fn deliver(
        &mut self,
        program: &P,
        fabric: &Fabric<'_, P::M>,
        local_idx: &[u32],
    ) -> Result<(), TransportError> {
        let me = self.id as usize;
        let num_workers = self.outboxes.len();
        let retransmits = |fabric: &Fabric<'_, P::M>| match *fabric {
            Fabric::Grid(_) => 0,
            Fabric::Wire { transport, .. } => transport.recv_stats(me).retransmits,
        };
        let retransmits_before = retransmits(fabric);
        let caps =
            (self.staging.capacity(), self.staging_next.capacity(), self.msgs.capacity());
        let sched_caps =
            (self.recipients.capacity(), self.woken.capacity(), self.active.capacity());
        self.epoch += 1;
        let epoch = self.epoch;
        debug_assert!(self.staging.is_empty() && self.staging_next.is_empty());

        let mut failure: Option<TransportError> = None;
        {
            // Split borrows: the staging chains grow while the fan-out index
            // is read to expand broadcasts, so the fields are borrowed once
            // here and threaded through a free-function stager.
            let Self {
                staging,
                staging_next,
                chain_head,
                chain_tail,
                chain_epoch,
                fan_offsets,
                fan_targets,
                local,
                recipients,
                metrics,
                wire_recv,
                wire_ids,
                ..
            } = self;
            debug_assert!(recipients.is_empty());
            let wire_scratch_caps = (wire_recv.capacity(), wire_ids.capacity());
            // Stages one record and returns the logical deliveries it
            // produced (one per message, not per record, so the traffic
            // accounting is lane-independent).
            let mut stage_record = |broadcast: bool, id: u64, msg: P::M| -> u64 {
                let mut stage = |li: u32, msg: P::M| {
                    stage_message(
                        program,
                        staging,
                        staging_next,
                        chain_head,
                        chain_tail,
                        chain_epoch,
                        recipients,
                        li as usize,
                        msg,
                        epoch,
                    )
                };
                if broadcast {
                    let lo = fan_offsets[id as usize] as usize;
                    let hi = fan_offsets[id as usize + 1] as usize;
                    for &li in &fan_targets[lo..hi] {
                        stage(li, msg.clone());
                    }
                    (hi - lo) as u64
                } else {
                    stage(local_idx[id as usize], msg);
                    1
                }
            };
            for src in 0..num_workers {
                if src == me {
                    // Locality fast path: this worker's own sends never
                    // entered the fabric. Draining them here — where the
                    // diagonal cell would sit — preserves the (source-worker,
                    // send-order) order per vertex exactly.
                    metrics.recv_local += local.drain(&mut stage_record);
                    continue;
                }
                match *fabric {
                    Fabric::Grid(grid) => match grid[src * num_workers + me].lock() {
                        Ok(mut cell) => metrics.recv_remote += cell.drain(&mut stage_record),
                        Err(_) => {
                            failure
                                .get_or_insert(TransportError::PeerPanicked { src, dst: me });
                        }
                    },
                    Fabric::Wire { transport, .. } => loop {
                        let frame = match transport.take(src, me) {
                            Ok(Some(frame)) => frame,
                            Ok(None) => break,
                            Err(e) => {
                                failure.get_or_insert(e);
                                break;
                            }
                        };
                        wire_recv.clear();
                        let decoded = decode_frame::<P::M>(&frame, wire_ids, wire_recv);
                        transport.recycle(src, me, frame);
                        let Ok(unicast_logical) = decoded else {
                            // Undecodable after transport-level acceptance:
                            // only reachable without the reliability layer
                            // (which NACKs corrupt frames instead). Typed,
                            // not a panic.
                            failure.get_or_insert(TransportError::Corrupt { src, dst: me });
                            break;
                        };
                        metrics.recv_remote += unicast_logical;
                        for rec in wire_recv.drain(..) {
                            let expanded = stage_record(rec.broadcast, rec.id, rec.msg);
                            if rec.broadcast {
                                metrics.recv_remote += expanded;
                            }
                        }
                    },
                }
            }
            metrics.fabric_reallocs += u64::from(wire_recv.capacity() != wire_scratch_caps.0)
                + u64::from(wire_ids.capacity() != wire_scratch_caps.1);
        }
        self.metrics.retransmits += retransmits(fabric) - retransmits_before;
        self.finish_delivery(caps, sched_caps);
        failure.map_or(Ok(()), Err)
    }

    /// Tail of [`Self::deliver`]: gather the staging chains into the flat
    /// inbox, wake messaged vertices, rebuild the active list, and account
    /// buffer growth.
    fn finish_delivery(
        &mut self,
        caps: (usize, usize, usize),
        sched_caps: (usize, usize, usize),
    ) {
        let epoch = self.epoch;
        // u32 indices/offsets cap a worker at ~4.29e9 staged messages per
        // superstep; fail loudly instead of wrapping (one check per phase).
        assert!(self.staging.len() < NIL as usize, "per-superstep message overflow");

        // Gather: walk each *recipient's* chain once, cloning messages into
        // the flat inbox and stamping its epoch; vertices with no messages
        // keep a stale stamp and read as empty without being touched.
        // `clear` keeps every capacity for the next superstep.
        self.msgs.clear();
        self.woken.clear();
        for r in 0..self.recipients.len() {
            let v = self.recipients[r] as usize;
            debug_assert_eq!(self.chain_epoch[v], epoch);
            let start = self.msgs.len() as u32;
            let mut i = self.chain_head[v] as usize;
            loop {
                self.msgs.push(self.staging[i].clone());
                let next = self.staging_next[i];
                if next == NIL {
                    break;
                }
                i = next as usize;
            }
            self.inbox_start[v] = start;
            self.inbox_len[v] = self.msgs.len() as u32 - start;
            self.inbox_epoch[v] = epoch;
            if self.halted[v] {
                self.halted[v] = false;
                self.num_halted -= 1;
                self.woken.push(v as u32);
            }
        }
        self.recipients.clear();
        self.staging.clear();
        self.staging_next.clear();

        // Rebuild the active list: the compute survivors (already sorted)
        // merged with the newly woken (sorted here; arrival order follows
        // the grid drain, not vertex order). The two are disjoint — a
        // survivor is by definition not halted, so it cannot be woken.
        self.woken.sort_unstable();
        self.active.clear();
        let (mut a, mut b) = (0, 0);
        while a < self.survivors.len() && b < self.woken.len() {
            if self.survivors[a] < self.woken[b] {
                self.active.push(self.survivors[a]);
                a += 1;
            } else {
                self.active.push(self.woken[b]);
                b += 1;
            }
        }
        self.active.extend_from_slice(&self.survivors[a..]);
        self.active.extend_from_slice(&self.woken[b..]);
        self.survivors.clear();

        let caps_after =
            (self.staging.capacity(), self.staging_next.capacity(), self.msgs.capacity());
        let sched_caps_after =
            (self.recipients.capacity(), self.woken.capacity(), self.active.capacity());
        self.metrics.fabric_reallocs += u64::from(caps_after.0 != caps.0)
            + u64::from(caps_after.1 != caps.1)
            + u64::from(caps_after.2 != caps.2)
            + u64::from(sched_caps_after.0 != sched_caps.0)
            + u64::from(sched_caps_after.1 != sched_caps.1)
            + u64::from(sched_caps_after.2 != sched_caps.2);
    }

    /// Applies buffered edge additions, keeping each adjacency run sorted and
    /// duplicate-free (a re-added edge overwrites the existing value).
    ///
    /// Any applied addition outdates every worker's load-time broadcast
    /// fan-out index (the new target's hosting worker cannot be patched from
    /// here mid-phase), so the first mutation closes the engine's broadcast
    /// `lane_open` for the rest of the run — subsequent broadcasts fall back
    /// to per-edge unicast, which always reads the live adjacency. The next
    /// topology (re)load rebuilds the index and reopens the lane.
    pub(crate) fn apply_mutations(&mut self, lane_open: &AtomicBool) {
        if self.additions.is_empty() {
            return;
        }
        lane_open.store(false, Ordering::Release);
        let mut additions = std::mem::take(&mut self.additions);
        additions.sort_by_key(|a| (a.local_src, a.target));

        let n_local = self.global_ids.len();
        let mut new_offsets = Vec::with_capacity(n_local + 1);
        let mut new_targets = Vec::with_capacity(self.targets.len() + additions.len());
        let mut new_values: Vec<P::E> = Vec::with_capacity(new_targets.capacity());
        new_offsets.push(0u64);

        let mut add_iter = additions.into_iter().peekable();
        // Drain the old parallel arrays through owned iterators so values
        // move without cloning.
        let old_targets = std::mem::take(&mut self.targets);
        let old_values = std::mem::take(&mut self.edge_values);
        let mut old_iter = old_targets.into_iter().zip(old_values).peekable();

        for i in 0..n_local {
            let hi = self.offsets[i + 1];
            let mut consumed = self.offsets[i];
            let run_start = new_targets.len();
            // Merge the sorted old run with the sorted additions for vertex i.
            loop {
                let next_add = match add_iter.peek() {
                    Some(a) if a.local_src == i as u32 => Some(a.target),
                    _ => None,
                };
                let next_old =
                    if consumed < hi { old_iter.peek().map(|(t, _)| *t) } else { None };
                match (next_old, next_add) {
                    (None, None) => break,
                    (Some(t), None) => {
                        let (_, v) = old_iter.next().unwrap();
                        consumed += 1;
                        new_targets.push(t);
                        new_values.push(v);
                    }
                    (None, Some(t)) => {
                        let a = add_iter.next().unwrap();
                        // Skip duplicate additions of the same target
                        // (within this vertex's run only).
                        if new_targets.len() > run_start && new_targets.last() == Some(&t) {
                            *new_values.last_mut().unwrap() = a.value;
                        } else {
                            new_targets.push(t);
                            new_values.push(a.value);
                        }
                    }
                    (Some(to), Some(ta)) => {
                        if to < ta {
                            let (_, v) = old_iter.next().unwrap();
                            consumed += 1;
                            new_targets.push(to);
                            new_values.push(v);
                        } else if to == ta {
                            // Overwrite: addition replaces the existing edge.
                            let _ = old_iter.next().unwrap();
                            consumed += 1;
                            let a = add_iter.next().unwrap();
                            new_targets.push(to);
                            new_values.push(a.value);
                        } else {
                            let a = add_iter.next().unwrap();
                            if new_targets.len() > run_start && new_targets.last() == Some(&ta)
                            {
                                *new_values.last_mut().unwrap() = a.value;
                            } else {
                                new_targets.push(ta);
                                new_values.push(a.value);
                            }
                        }
                    }
                }
            }
            new_offsets.push(new_targets.len() as u64);
        }
        self.offsets = new_offsets;
        self.targets = new_targets;
        self.edge_values = new_values;
    }
}

/// Copies one outbox into `stage` as the records of one wire frame and
/// returns its pre-fold unicast count (the frame trailer's logical count).
///
/// Within each maximal unicast run (broadcast records — the marked
/// positions — are never crossed), records are stably sorted by destination
/// id and consecutive same-destination records are folded through
/// [`Program::combine`] when `fold` is on. That is the exact combine call,
/// in the exact order, that the receiver's staging chains would have applied
/// at delivery, so results are bit-identical for *any* combiner — including
/// non-associative-looking float folds and partial combiners (a `combine`
/// returning `false` simply keeps both records). Sorting only permutes
/// records *across* destinations inside a run, never within one (the sort
/// keys embed the original position), so per-vertex delivery order is
/// preserved exactly.
fn stage_frame<P: Program>(
    program: &P,
    outbox: &Batch<P::M>,
    fold: bool,
    stage: &mut Vec<WireRecord<P::M>>,
    sort_keys: &mut Vec<u64>,
    metrics: &mut WorkerMetrics,
) -> u64 {
    let Batch { records, marks } = outbox;
    stage.clear();
    let mut unicast_logical = 0u64;
    let mut mi = 0usize;
    let mut pos = 0usize;
    while pos < records.len() {
        if mi < marks.len() && marks[mi] as usize == pos {
            // Broadcast run: consecutive marked positions, kept in send
            // order (fan-out expansion positions depend on it).
            while mi < marks.len() && marks[mi] as usize == pos {
                let (bid, msg) = records[pos].clone();
                stage.push(WireRecord { broadcast: true, id: u64::from(bid), msg });
                mi += 1;
                pos += 1;
            }
            continue;
        }
        let run_end = if mi < marks.len() { marks[mi] as usize } else { records.len() };
        let run = &records[pos..run_end];
        unicast_logical += run.len() as u64;
        sort_keys.clear();
        for (k, &(idv, _)) in run.iter().enumerate() {
            sort_keys.push((u64::from(idv) << 32) | k as u64);
        }
        sort_keys.sort_unstable();
        for &key in sort_keys.iter() {
            let idv = key >> 32;
            let msg = run[(key & 0xFFFF_FFFF) as usize].1.clone();
            if fold {
                if let Some(last) = stage.last_mut() {
                    if !last.broadcast && last.id == idv && program.combine(&mut last.msg, &msg)
                    {
                        metrics.wire_folded += 1;
                        continue;
                    }
                }
            }
            stage.push(WireRecord { broadcast: false, id: idv, msg });
        }
        pos = run_end;
    }
    debug_assert_eq!(mi, marks.len());
    unicast_logical
}

/// Appends one delivered message to its vertex's staging chain (after the
/// program's combiner had a chance to fold it into the chain tail). A free
/// function over the individual buffers — not a `&mut self` method — so the
/// delivery loop can stage while holding a shared borrow of the broadcast
/// fan-out index it is expanding from.
#[allow(clippy::too_many_arguments)]
#[inline]
fn stage_message<P: Program>(
    program: &P,
    staging: &mut Vec<P::M>,
    staging_next: &mut Vec<u32>,
    chain_head: &mut [u32],
    chain_tail: &mut [u32],
    chain_epoch: &mut [u64],
    recipients: &mut Vec<u32>,
    v: usize,
    msg: P::M,
    epoch: u64,
) {
    if chain_epoch[v] == epoch {
        let tail = chain_tail[v] as usize;
        if program.combine(&mut staging[tail], &msg) {
            return;
        }
        let idx = staging.len() as u32;
        staging.push(msg);
        staging_next.push(NIL);
        staging_next[tail] = idx;
        chain_tail[v] = idx;
    } else {
        chain_epoch[v] = epoch;
        recipients.push(v as u32);
        let idx = staging.len() as u32;
        staging.push(msg);
        staging_next.push(NIL);
        chain_head[v] = idx;
        chain_tail[v] = idx;
    }
}
