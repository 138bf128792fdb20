//! A logical worker: hosts a subset of vertices and executes the compute and
//! delivery phases of each superstep.
//!
//! Messages flow through a flat, reusable fabric instead of per-vertex
//! `Vec`s. Delivery is a counting sort over the batches addressed to the
//! worker — its column of the `OutboxGrid`, or its transport frames decoded
//! into one record buffer. A counting pass walks them without consuming
//! anything and counts each recipient's messages; a prefix sum over the
//! recipients, in first-arrival order, gives each one its slot range; a
//! scatter pass then drains the batches and moves every message straight
//! into the flat inbox `(inbox_start, inbox_len, msgs)` that the compute
//! phase reads as one slice per vertex. All buffers keep their capacity
//! across supersteps, so the steady state performs no heap allocation on
//! the message path.
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
//! frames all share one record layout and one delivery routine.

use crate::aggregate::{AggValue, AggregatorSpec};
use crate::context::{AggCtx, EdgeAddition, Edges, Mailer, VertexContext};
use crate::metrics::WorkerMetrics;
use crate::program::Program;
use crate::transport::{Transport, TransportError};
use crate::types::{Batch, OutboxGrid, WorkerId};
use crate::wire::{decode_frame, encode_frame, WireFormat, WirePayload, WireRecord};
use spinner_graph::VertexId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

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
    /// a stale stamp means an empty inbox. Stamping lets delivery touch only
    /// the vertices that actually received messages instead of rebuilding
    /// an O(n_local) offset array every superstep. During delivery the same
    /// two arrays hold each recipient's message count (counting pass) and
    /// then its fill cursor (scatter pass).
    pub(crate) inbox_start: Vec<u32>,
    pub(crate) inbox_len: Vec<u32>,
    pub(crate) inbox_epoch: Vec<u64>,
    /// Inbox slots. A recipient owns as many slots as messages were counted
    /// for it; a combiner that folds some of them leaves the tail of its
    /// range unread. The length is a high-water mark — slots are
    /// overwritten, not cleared, between supersteps, so the scatter pass
    /// never needs a placeholder value for a message type without one.
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
    /// message this epoch, in first-arrival order — the prefix sum that
    /// lays out the inbox walks this instead of every local vertex.
    recipients: Vec<u32>,
    /// Locality fast path: messages this worker sent to its own vertices
    /// during the compute phase. They bypass the fabric entirely and are
    /// delivered by the next delivery phase at the position the grid's
    /// diagonal cell used to occupy (so per-vertex message order — and
    /// therefore every result — is unchanged).
    local: Batch<P::M>,
    /// Broadcast fan-out index (the receive side of the broadcast lane): a
    /// reverse CSR over *global sender ids* — `fan_targets[fan_offsets[s]..
    /// fan_offsets[s + 1]]` lists, in `s`'s adjacency order, the local
    /// indices of this worker's vertices that appear in `s`'s engine
    /// adjacency. Each entry is `local << P::STAMP_BITS | weight`: its low
    /// bits keep the [`Program::edge_weight`] of that edge, which delivery
    /// stamps into the copy it fans out ([`Program::stamp`]). Built by
    /// `load_topology` alongside the inbound counts (capacity preserved
    /// across warm resets), read by the delivery phase to expand marked
    /// broadcast records. Empty when the broadcast lane is disabled.
    pub(crate) fan_offsets: Vec<u32>,
    pub(crate) fan_targets: Vec<u32>,
    /// Broadcast *plan* (the send side of the broadcast lane), also built
    /// by `load_topology`: for local vertex `li`,
    /// `plan_workers[plan_offsets[li]..plan_offsets[li + 1]]` lists the
    /// distinct destination workers of its adjacency (first-occurrence
    /// order, one record each), and `plan_local[li]`/`plan_remote[li]` the
    /// logical local/remote delivery counts one broadcast implies — so
    /// [`Mailer::broadcast`] costs O(distinct workers), not O(degree).
    /// Empty (all five) when the broadcast lane is disabled.
    pub(crate) plan_offsets: Vec<u32>,
    pub(crate) plan_workers: Vec<WorkerId>,
    /// Parallel to `plan_workers`: the lone neighbour's adjacency position
    /// where the record can ship as a plain unicast, `BROADCAST_MULTI`
    /// otherwise.
    pub(crate) plan_lone: Vec<u32>,
    pub(crate) plan_local: Vec<u32>,
    pub(crate) plan_remote: Vec<u32>,
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
    /// Wire delivery scratch: every record decoded from this superstep's
    /// inbound frames, grouped by source worker in source order (reserved
    /// at load time, like the inbox).
    wire_recv: Vec<WireRecord<P::M>>,
    /// `wire_recv[wire_bounds[src]..wire_bounds[src + 1]]` holds source
    /// `src`'s records.
    wire_bounds: Vec<usize>,
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
            local: Batch::default(),
            fan_offsets: Vec::new(),
            fan_targets: Vec::new(),
            plan_offsets: Vec::new(),
            plan_workers: Vec::new(),
            plan_lone: Vec::new(),
            plan_local: Vec::new(),
            plan_remote: Vec::new(),
            epoch: 0,
            outboxes: (0..num_workers).map(|_| Batch::default()).collect(),
            wire_stage: Vec::new(),
            sort_keys: Vec::new(),
            wire_recv: Vec::new(),
            wire_bounds: vec![0; num_workers + 1],
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
        self.plan_lone.clear();
        self.plan_local.clear();
        self.plan_remote.clear();
        debug_assert!(self.additions.is_empty(), "additions drained at the last barrier");
    }

    /// (Re)sizes the per-vertex fabric state once the vertex set is known.
    /// All buffers keep their capacity, so a warm engine re-targeted at a
    /// mutated graph starts from the previous run's high-water marks. The
    /// delivery epoch is *not* reset: it grows monotonically for the life of
    /// the worker, so stale `inbox_epoch` stamps can never alias a future
    /// delivery.
    pub(crate) fn reset_fabric(&mut self) {
        let n_local = self.global_ids.len();
        self.inbox_start.clear();
        self.inbox_start.resize(n_local, 0);
        self.inbox_len.clear();
        self.inbox_len.resize(n_local, 0);
        self.inbox_epoch.clear();
        self.inbox_epoch.resize(n_local, 0);
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
        debug_assert!(self.local.is_empty() && self.outboxes.iter().all(Batch::is_empty));
    }

    /// Pre-reserves the delivery-side buffers for `inbound` messages — the
    /// number of adjacency entries addressed to this worker, which bounds the
    /// per-superstep delivery volume of every send-along-edges program —
    /// plus the worker-local send queue for the `self_inbound` of them that
    /// originate on this worker (the locality fast path). `marks[dst]` bounds
    /// the broadcast records one superstep sends to worker `dst` (the
    /// diagonal entry: to the local queue), and `wire_records` the records
    /// one superstep's inbound frames decode to (0 off the wire). Done at
    /// (re)load time so graph growth between warm runs never forces a
    /// message-path reallocation (see [`WorkerMetrics::fabric_reallocs`]).
    pub(crate) fn reserve_inbound(
        &mut self,
        inbound: usize,
        self_inbound: usize,
        marks: &[usize],
        wire_records: usize,
    ) {
        debug_assert!(self.msgs.is_empty() && self.wire_recv.is_empty());
        self.msgs.reserve(inbound);
        self.wire_recv.reserve(wire_records);
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
            let (bcast_plan, bcast_lone, bcast_local, bcast_remote) = if lane_open {
                let p_lo = self.plan_offsets[i] as usize;
                let p_hi = self.plan_offsets[i + 1] as usize;
                (
                    &self.plan_workers[p_lo..p_hi],
                    &self.plan_lone[p_lo..p_hi],
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
                    bcast_lone,
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

    /// Delivery phase: a counting sort of the batches addressed to this
    /// worker into the flat inbox. The sources, in order, are each source
    /// worker's grid cell or decoded transport frames, with the fast-path
    /// local queue in place of the diagonal.
    ///
    /// 1. The counting pass walks the sources without consuming them,
    ///    counts each recipient's messages and records first arrivals in
    ///    `recipients`.
    /// 2. A prefix sum in `recipients` order gives each recipient its
    ///    `inbox_start` (and wakes halted ones).
    /// 3. The scatter pass drains the sources in the same order and moves
    ///    each message to its recipient's cursor, after the program's
    ///    combiner had a chance to fold it into the recipient's previous
    ///    message.
    ///
    /// Marked broadcast records fan out through the load-time index to every
    /// local vertex adjacent to the sender, in the sender's adjacency order —
    /// exactly the positions the per-edge unicasts would have occupied, so
    /// per-vertex message order (and therefore every result) is identical
    /// across the two lanes. Each fanned-out copy is stamped with its edge's
    /// weight ([`Program::stamp`]) on its way into the inbox. Messages keep
    /// (source-worker, send-order) order per vertex.
    ///
    /// Logical receive accounting is fabric- and fold-invariant: a broadcast
    /// record counts its fan-out width, and a wire frame's trailer carries
    /// its *pre-fold* unicast count — so `recv_remote` matches bit-for-bit
    /// across every transport × format × fold arm.
    ///
    /// On a typed failure the remaining sources are still delivered and the
    /// tail still runs — buffer and scheduler state stay consistent for the
    /// abort/recovery path — and the first error is returned afterwards.
    /// Receive-side recovery work (retransmits the reliability layer
    /// performed on this worker's behalf) is attributed to
    /// [`WorkerMetrics::retransmits`] by diffing the transport's cumulative
    /// counters around the frame takes.
    pub(crate) fn deliver(
        &mut self,
        program: &P,
        fabric: &Fabric<'_, P::M>,
        local_idx: &[u32],
    ) -> Result<(), TransportError> {
        let me = self.id as usize;
        let num_workers = self.outboxes.len();
        let caps = self.delivery_caps();
        self.epoch += 1;
        let epoch = self.epoch;

        // Split borrows: the inbox is written while the fan-out index and
        // the sources are read.
        let Self {
            fan_offsets,
            fan_targets,
            local,
            recipients,
            woken,
            halted,
            num_halted,
            inbox_start,
            inbox_len,
            inbox_epoch,
            msgs,
            metrics,
            wire_recv,
            wire_bounds,
            wire_ids,
            ..
        } = self;
        debug_assert!(recipients.is_empty() && wire_recv.is_empty());
        let (fan_offsets, fan_targets) = (&fan_offsets[..], &fan_targets[..]);
        let targets = |broadcast: bool, id: u64| {
            record_targets(fan_offsets, fan_targets, local_idx, broadcast, id, P::STAMP_BITS)
        };

        let mut failure: Option<TransportError> = None;
        if let Fabric::Wire { transport, .. } = *fabric {
            // `take` consumes frames, so the superstep's frames are decoded
            // up front, straight into the one buffer both passes read.
            let retransmits_before = transport.recv_stats(me).retransmits;
            for (src, end) in wire_bounds[1..].iter_mut().enumerate() {
                if src != me {
                    let (unicast_logical, error) =
                        decode_source(transport, src, me, wire_ids, wire_recv);
                    metrics.recv_remote += unicast_logical;
                    if let Some(e) = error {
                        failure.get_or_insert(e);
                    }
                }
                *end = wire_recv.len();
            }
            metrics.retransmits += transport.recv_stats(me).retransmits - retransmits_before;
        }

        // Counting pass: `inbox_len` counts each recipient's messages.
        let mut delivered = 0usize;
        let mut count = |broadcast: bool, id: u64| -> u64 {
            let (ts, shift) = targets(broadcast, id);
            for &v in ts {
                let v = (v >> shift) as usize;
                if inbox_epoch[v] == epoch {
                    inbox_len[v] += 1;
                } else {
                    inbox_epoch[v] = epoch;
                    inbox_len[v] = 1;
                    recipients.push(v as u32);
                }
            }
            delivered += ts.len();
            ts.len() as u64
        };
        for src in 0..num_workers {
            if src == me {
                // Locality fast path: this worker's own sends never entered
                // the fabric. Delivering them here — where the diagonal cell
                // would sit — preserves the (source-worker, send-order)
                // order per vertex exactly.
                metrics.recv_local += local.scan(&mut count);
                continue;
            }
            match *fabric {
                Fabric::Grid(grid) => match grid[src * num_workers + me].lock() {
                    Ok(cell) => metrics.recv_remote += cell.scan(&mut count),
                    Err(_) => {
                        failure.get_or_insert(TransportError::PeerPanicked { src, dst: me });
                    }
                },
                Fabric::Wire { .. } => {
                    for rec in &wire_recv[wire_bounds[src]..wire_bounds[src + 1]] {
                        let expanded = count(rec.broadcast, rec.id);
                        // Unicasts were counted from the frame trailer.
                        if rec.broadcast {
                            metrics.recv_remote += expanded;
                        }
                    }
                }
            }
        }
        // u32 offsets cap a worker at ~4.29e9 messages per superstep; fail
        // loudly instead of wrapping (one check per phase).
        assert!(delivered < u32::MAX as usize, "per-superstep message overflow");

        // Prefix sum: lay the recipients out in first-arrival order, reset
        // their counts to fill cursors, and wake the halted ones. Vertices
        // with no messages keep a stale stamp and read as empty without
        // being touched.
        let mut next = 0u32;
        woken.clear();
        for &v in recipients.iter() {
            let v = v as usize;
            inbox_start[v] = next;
            next += inbox_len[v];
            inbox_len[v] = 0;
            if halted[v] {
                halted[v] = false;
                *num_halted -= 1;
                woken.push(v as u32);
            }
        }
        recipients.clear();
        msgs.reserve(delivered.saturating_sub(msgs.len()));

        // Scatter pass: same sources, same order, now consumed.
        let mut put = |v: u32, msg: P::M| {
            let v = v as usize;
            let start = inbox_start[v] as usize;
            let filled = inbox_len[v] as usize;
            if filled > 0 && program.combine(&mut msgs[start + filled - 1], &msg) {
                return;
            }
            let slot = start + filled;
            if slot < msgs.len() {
                msgs[slot] = msg;
            } else {
                // First use of this slot: any valid value pads the not yet
                // written slots before it.
                if slot > msgs.len() {
                    msgs.resize(slot, msg.clone());
                }
                msgs.push(msg);
            }
            inbox_len[v] += 1;
        };
        // Below its `shift` bits of index, a fan-out entry keeps the weight
        // its copy is stamped with.
        let mut put_entry = |entry: u32, shift: u32, mut msg: P::M| {
            if shift > 0 {
                P::stamp(&mut msg, (entry & ((1 << shift) - 1)) as u8);
            }
            put(entry >> shift, msg);
        };
        let mut scatter = |broadcast: bool, id: u64, msg: P::M| {
            let (ts, shift) = targets(broadcast, id);
            if let Some((&last, rest)) = ts.split_last() {
                for &entry in rest {
                    put_entry(entry, shift, msg.clone());
                }
                put_entry(last, shift, msg);
            }
        };
        let mut wire = wire_recv.drain(..);
        for src in 0..num_workers {
            if src == me {
                local.drain(&mut scatter);
                continue;
            }
            match *fabric {
                Fabric::Grid(grid) => {
                    // A poisoned cell was reported by the counting pass.
                    if let Ok(mut cell) = grid[src * num_workers + me].lock() {
                        cell.drain(&mut scatter);
                    }
                }
                Fabric::Wire { .. } => {
                    let len = wire_bounds[src + 1] - wire_bounds[src];
                    for rec in wire.by_ref().take(len) {
                        scatter(rec.broadcast, rec.id, rec.msg);
                    }
                }
            }
        }
        drop(wire);
        self.finish_delivery(caps);
        failure.map_or(Ok(()), Err)
    }

    /// Tail of [`Self::deliver`]: rebuild the active list and account
    /// buffer growth.
    fn finish_delivery(&mut self, caps: [usize; 6]) {
        // Rebuild the active list: the compute survivors (already sorted)
        // merged with the newly woken (sorted here; arrival order follows
        // the source order, not vertex order). The two are disjoint — a
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

        let now = self.delivery_caps();
        let grown = now.iter().zip(caps).filter(|&(&now, then)| now != then).count();
        self.metrics.fabric_reallocs += grown as u64;
    }

    /// Capacities of every buffer delivery writes (a changed entry means a
    /// growth event).
    fn delivery_caps(&self) -> [usize; 6] {
        [
            self.msgs.capacity(),
            self.wire_recv.capacity(),
            self.wire_ids.capacity(),
            self.recipients.capacity(),
            self.woken.capacity(),
            self.active.capacity(),
        ]
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
/// [`Program::combine`] when `fold` is on. Folding regroups the combiner's
/// calls: a receiver whose inbox already holds `p` gets `p ⊕ (m1 ⊕ m2)`
/// where an unfolded frame would give `(p ⊕ m1) ⊕ m2`. Results are
/// therefore bit-identical for a combiner that is associative and always
/// folds (integer min or sum), not for a float sum or a partial combiner
/// (one that may return `false`); the `fabric_grid` delivery oracle pins
/// the exact cases. Sorting only permutes records *across* destinations
/// inside a run, never within one (the sort keys embed the original
/// position), so per-vertex delivery order is preserved exactly.
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

/// The local indices one inbound record delivers to, each shifted left by
/// the returned amount: a broadcast record's sender fans out to its
/// adjacent local vertices (in the sender's adjacency order, the fan-out
/// entries keeping `stamp_bits` of edge weight below the index), any other
/// record goes to its one addressee.
#[inline]
fn record_targets<'a>(
    fan_offsets: &[u32],
    fan_targets: &'a [u32],
    local_idx: &'a [u32],
    broadcast: bool,
    id: u64,
    stamp_bits: u32,
) -> (&'a [u32], u32) {
    if broadcast {
        let lo = fan_offsets[id as usize] as usize;
        let hi = fan_offsets[id as usize + 1] as usize;
        (&fan_targets[lo..hi], stamp_bits)
    } else {
        (std::slice::from_ref(&local_idx[id as usize]), 0)
    }
}

/// Takes every frame `src` sent `me` this superstep and decodes it onto the
/// end of `out`. Returns the frames' summed pre-fold unicast count and the
/// first failure, which ends the source: a frame that does not decode —
/// only a corruption the reliability layer's CRC misses, as it NACKs every
/// frame that fails the check — is dropped whole (typed, not a panic).
fn decode_source<M: WirePayload>(
    transport: &dyn Transport,
    src: usize,
    me: usize,
    ids: &mut Vec<u64>,
    out: &mut Vec<WireRecord<M>>,
) -> (u64, Option<TransportError>) {
    let mut unicast_logical = 0;
    loop {
        let frame = match transport.take(src, me) {
            Ok(Some(frame)) => frame,
            Ok(None) => return (unicast_logical, None),
            Err(e) => return (unicast_logical, Some(e)),
        };
        let mark = out.len();
        let decoded = decode_frame::<M>(&frame, ids, out);
        transport.recycle(src, me, frame);
        match decoded {
            Ok(n) => unicast_logical += n,
            Err(_) => {
                out.truncate(mark);
                return (unicast_logical, Some(TransportError::Corrupt { src, dst: me }));
            }
        }
    }
}
