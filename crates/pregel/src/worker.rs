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
//! A vertex may also *sleep* ([`VertexContext::sleep`]): it leaves the
//! active list, neither computed nor halted, until a message arrives —
//! delivery wakes it as it wakes a halted vertex — or the worker's wake
//! clock ([`Program::wake_clock`]) reaches its key. The `SleepQueue`
//! files sleepers in buckets by key, so filing one and waking it cost O(1)
//! each; the timed wake-ups run at the start of the compute phase, before
//! the walk, in both drivers.
//!
//! One publish/deliver pair serves both fabrics (grid and transport):
//! broadcast records are flagged by the marks every batch carries beside its
//! records, so the grid cells, the local fast-path queue and the wire
//! frames all share one record layout and one delivery routine.

use crate::aggregate::{AggValue, AggregatorSpec};
use crate::context::{AggCtx, Edges, Mailer, VertexContext, AWAKE};
use crate::metrics::WorkerMetrics;
use crate::program::Program;
use crate::transport::{Transport, TransportError};
use crate::types::{Batch, OutboxGrid, WorkerId};
use crate::wire::{decode_frame, encode_frame, WireFormat, WirePayload, WireRecord};
use spinner_graph::buffer::refit;
use spinner_graph::VertexId;
use std::time::Instant;

/// Where cross-worker batches go and come from: the in-memory `OutboxGrid`
/// (zero-copy buffer swaps) or a serialising [`Transport`] (folded, framed
/// batches). [`Worker::publish`] and [`Worker::deliver`] differ between the
/// two only where they hand over or obtain a batch.
pub(crate) enum Fabric<'a, M> {
    Grid(&'a OutboxGrid<M>),
    Wire { transport: &'a dyn Transport, format: WireFormat, fold: bool },
}

/// The per-superstep message volumes `load_topology` sizes one worker's
/// message fabric for, counted from the loaded adjacency and broadcast plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FabricBounds {
    /// Messages the flat inbox receives when every vertex sends along every
    /// edge: the adjacency entries addressed to this worker's vertices.
    pub(crate) inbox: usize,
    /// The ones among them sent by this worker's own vertices (the
    /// worker-local send queue of the locality fast path).
    pub(crate) local: usize,
    /// `marks[dst]`: broadcast records one superstep sends to worker `dst`,
    /// one per multi-neighbour plan entry (the diagonal entry: to the local
    /// queue).
    pub(crate) marks: Vec<usize>,
    /// Records one superstep's inbound frames decode to: one per plan entry
    /// from another worker (every entry from another worker without the
    /// broadcast lane); 0 off the wire.
    pub(crate) wire_records: usize,
    /// Sort keys of the largest outbound frame of one all-broadcast
    /// superstep: the most lone-neighbour plan entries for one other worker;
    /// 0 off the wire.
    pub(crate) sort_keys: usize,
}

impl FabricBounds {
    /// Zeroes every bound for `num_workers` destinations, keeping the
    /// allocation of `marks`.
    pub(crate) fn reset(&mut self, num_workers: usize) {
        let mut marks = std::mem::take(&mut self.marks);
        marks.clear();
        marks.resize(num_workers, 0);
        *self = Self { marks, ..Self::default() };
    }

    /// Sets the inbox and wire bounds once `local` is counted: `inbound` is
    /// the adjacency entries addressed to this worker from other workers,
    /// `plan_in` the plan entries among them, `wired` whether a transport
    /// serialises and `lane` whether the broadcast lane is on.
    pub(crate) fn set_inbound(
        &mut self,
        inbound: usize,
        plan_in: usize,
        wired: bool,
        lane: bool,
    ) {
        // The flat inbox sees every message; the fast-path queue only the
        // worker-local ones; the wire only the others, as one record per
        // plan entry when every sender broadcasts (a unicast-only
        // program's first wired superstep grows it to `inbound`).
        self.inbox = inbound + self.local;
        self.wire_records = match (wired, lane) {
            (false, _) => 0,
            (true, true) => plan_in,
            (true, false) => inbound,
        };
    }
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
    /// delivery phase as the merge of `survivors` and `woken`; every hosted
    /// vertex at (re)load time.
    active: Vec<u32>,
    /// Compute-phase scratch: vertices that computed and did not halt, in
    /// ascending order (the compute loop itself is ascending).
    survivors: Vec<u32>,
    /// Delivery-phase scratch: halted or sleeping vertices woken by a
    /// message this epoch (sorted before the merge; disjoint from
    /// `survivors` because survivors neither halted nor fell asleep). The
    /// compute phase reuses it for the vertices the wake clock wakes.
    woken: Vec<u32>,
    /// The vertices asleep on this worker, by wake key.
    sleep: SleepQueue,
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
    /// stamps into the copy it fans out ([`Program::stamp`]).
    ///
    /// `load_topology` builds it from this worker's own rows, as their
    /// counting transpose: walking the hosted vertices in order and
    /// appending each to the list of every sender in its in-row lists each
    /// sender's targets by ascending local index, which is ascending global
    /// id and so the sender's adjacency order. On an undirected load a
    /// vertex's in-row is its own sorted, symmetric row, and the stamped
    /// weight is read from the vertex's own edge value; a directed load
    /// first transposes the out-rows it loaded into in-rows, each entry
    /// keeping the weight of the sender's edge value. Capacity is kept
    /// across warm resets; the delivery phase reads the index to expand
    /// marked broadcast records. Empty when the broadcast lane is disabled.
    pub(crate) fan_offsets: Vec<u32>,
    pub(crate) fan_targets: Vec<u32>,
    /// Broadcast *plan* (the send side of the broadcast lane), also built
    /// by `load_topology`: for local vertex `li`,
    /// `plan_workers[plan_offsets[li]..plan_offsets[li + 1]]` lists the
    /// distinct destination workers of its adjacency (first-occurrence
    /// order, one record each), and `plan_local[li]`/`plan_remote[li]` the
    /// logical local/remote delivery counts one broadcast implies — so
    /// [`Mailer::broadcast`] costs O(distinct workers), not O(degree). The
    /// load builds a row's entries in two phases: first every entry's
    /// destination worker and the count per destination, then one entry per
    /// destination in first-occurrence order, a lone neighbour or a
    /// fanned-out record by that count. Empty (all five) when the broadcast
    /// lane is disabled.
    pub(crate) plan_offsets: Vec<u32>,
    pub(crate) plan_workers: Vec<WorkerId>,
    /// Parallel to `plan_workers`: the lone neighbour's adjacency position
    /// where the record can ship as a plain unicast, `BROADCAST_MULTI`
    /// otherwise.
    pub(crate) plan_lone: Vec<u32>,
    pub(crate) plan_local: Vec<u32>,
    pub(crate) plan_remote: Vec<u32>,
    /// What the last (re)load sized the message fabric for (see
    /// [`Self::reserve_fabric`]).
    pub(crate) bounds: FabricBounds,
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
            sleep: SleepQueue::default(),
            recipients: Vec::new(),
            local: Batch::default(),
            fan_offsets: Vec::new(),
            fan_targets: Vec::new(),
            plan_offsets: Vec::new(),
            plan_workers: Vec::new(),
            plan_lone: Vec::new(),
            plan_local: Vec::new(),
            plan_remote: Vec::new(),
            bounds: FabricBounds::default(),
            epoch: 0,
            outboxes: (0..num_workers).map(|_| Batch::default()).collect(),
            wire_stage: Vec::new(),
            sort_keys: Vec::new(),
            wire_recv: Vec::new(),
            wire_bounds: vec![0; num_workers + 1],
            wire_ids: Vec::new(),
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
        // Every hosted vertex starts awake; the scheduler scratch is sized
        // once here so the per-superstep merge never allocates (each list
        // is bounded by n_local).
        debug_assert_eq!(self.num_halted, 0, "a vertex is hosted awake");
        self.active.clear();
        self.active.reserve(n_local);
        self.active.extend(0..n_local as u32);
        self.survivors.clear();
        self.survivors.reserve(n_local);
        self.woken.clear();
        self.woken.reserve(n_local);
        self.recipients.clear();
        self.recipients.reserve(n_local);
        self.sleep.reset(n_local);
        self.metrics.reset();
        debug_assert!(self.local.is_empty() && self.outboxes.iter().all(Batch::is_empty));
    }

    /// Pre-reserves the message-path buffers for the volumes in
    /// [`Self::bounds`]: the flat inbox, the wire decode buffer, the
    /// worker-local send queue, every outbox's broadcast marks and the wire
    /// sort keys. Done at (re)load time so graph growth between warm runs
    /// never forces a message-path reallocation (see
    /// [`WorkerMetrics::fabric_reallocs`]). Every one of them is empty here.
    pub(crate) fn reserve_fabric(&mut self) {
        let Self { id, bounds, msgs, wire_recv, local, outboxes, sort_keys, .. } = self;
        debug_assert!(msgs.is_empty() && wire_recv.is_empty());
        reserve_empty(msgs, bounds.inbox);
        reserve_empty(wire_recv, bounds.wire_records);
        reserve_empty(&mut local.records, bounds.local);
        reserve_empty(&mut local.marks, bounds.marks[*id as usize]);
        for (outbox, &n) in outboxes.iter_mut().zip(&bounds.marks) {
            reserve_empty(&mut outbox.marks, n);
        }
        reserve_empty(sort_keys, bounds.sort_keys);
    }

    /// Whether every message-path buffer [`Self::reserve_fabric`] sizes has
    /// room for the volumes in [`Self::bounds`].
    #[cfg(test)]
    pub(crate) fn fabric_covers_bounds(&self) -> bool {
        let b = &self.bounds;
        self.msgs.capacity() >= b.inbox
            && self.wire_recv.capacity() >= b.wire_records
            && self.local.records.capacity() >= b.local
            && self.local.marks.capacity() >= b.marks[self.id as usize]
            && self.outboxes.iter().zip(&b.marks).all(|(o, &n)| o.marks.capacity() >= n)
            && self.sort_keys.capacity() >= b.sort_keys
    }

    /// Number of vertices hosted here.
    pub fn num_local_vertices(&self) -> usize {
        self.global_ids.len()
    }

    /// Number of halted vertices (maintained, O(1)).
    pub(crate) fn halted_count(&self) -> u64 {
        self.num_halted
    }

    /// Executes the compute phase of one superstep. First the sleepers the
    /// wake clock reaches join the active list ([`Self::wake_on_clock`]).
    /// The default driver then walks the maintained active list (exactly
    /// the vertices neither halted nor asleep, ascending); `dense_scan`
    /// walks `0..n_local` with a halted/empty-inbox and asleep skip
    /// instead — the same visit set in the same order, so the two drivers
    /// are bit-identical and the dense arm serves as a cheap verification
    /// oracle. Debug builds hand every sleeper to [`Program::check_sleeper`]
    /// at its place in the walk. `lane_open` is the engine's
    /// `broadcast_fabric` setting.
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
        if self.sleep.asleep > 0 {
            self.wake_on_clock(program, global, &mut worker_state);
        }
        let survivors_cap = self.survivors.capacity();
        // Sleepers not yet handed to `check_sleeper` start here (the
        // active-list driver checks the gaps between its vertices).
        let check = cfg!(debug_assertions) && self.sleep.asleep > 0;
        let mut unchecked = 0usize;
        let count = if dense_scan { n_local } else { self.active.len() };
        for idx in 0..count {
            let i = if dense_scan { idx } else { self.active[idx] as usize };
            let (m_lo, m_len) = if self.inbox_epoch[i] == self.epoch {
                (self.inbox_start[i] as usize, self.inbox_len[i] as usize)
            } else {
                (0, 0)
            };
            if check {
                self.check_sleepers(program, global, &mut worker_state, unchecked..i + 1);
            }
            unchecked = i + 1;
            debug_assert!(
                dense_scan || !self.sleep.is_asleep(i),
                "a sleeper on the active list"
            );
            if dense_scan && self.sleep.is_asleep(i) {
                debug_assert_eq!(m_len, 0, "a message wakes a sleeper");
                continue;
            }
            if self.halted[i] {
                debug_assert!(dense_scan, "active list never holds a halted vertex");
                debug_assert_eq!(m_len, 0, "delivery wakes every messaged vertex");
                continue;
            }
            self.metrics.computed += 1;
            let lo = self.offsets[i] as usize;
            let hi = self.offsets[i + 1] as usize;
            // The broadcast plan exists exactly when the lane is on; with
            // the lane off the Mailer never reads it.
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
            let mut sleep_key = AWAKE;
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
                sleep_key: &mut sleep_key,
            };
            program.compute(&mut ctx, &self.msgs[m_lo..m_lo + m_len]);
            if self.halted[i] {
                self.num_halted += 1;
            } else if sleep_key != AWAKE {
                self.sleep.push(i as u32, sleep_key);
            } else {
                // Ascending in both drivers, so `survivors` stays sorted.
                self.survivors.push(i as u32);
            }
        }
        if check {
            self.check_sleepers(program, global, &mut worker_state, unchecked..n_local);
        }
        self.cached_worker_state = Some(worker_state);
        self.metrics.fabric_reallocs +=
            u64::from(self.local.records.capacity() != local_caps.0)
                + u64::from(self.local.marks.capacity() != local_caps.1)
                + u64::from(self.outbox_marks_capacity() != marks_cap)
                + u64::from(self.survivors.capacity() != survivors_cap);
        self.metrics.compute_ns = start.elapsed().as_nanos() as u64;
    }

    /// Wakes the sleepers the program's wake clock reaches and merges them
    /// into the active list. Each wake-up joins the awake set, which may
    /// advance the clock, so the clock is asked again until it wakes no
    /// one more (a fixpoint); it never goes back within the superstep.
    fn wake_on_clock(&mut self, program: &P, global: &P::G, worker_state: &mut P::WorkerState) {
        let Self { active, values, sleep, woken, .. } = self;
        let mut joined = active.iter().map(|&i| &values[i as usize]);
        let Some(mut clock) = program.wake_clock(global, worker_state, &mut joined) else {
            return;
        };
        woken.clear();
        let mut asked = 0;
        loop {
            sleep.expire(clock, woken);
            if woken.len() == asked {
                break;
            }
            let mut joined = woken[asked..].iter().map(|&i| &values[i as usize]);
            asked = woken.len();
            match program.wake_clock(global, worker_state, &mut joined) {
                Some(next) => clock = clock.max(next),
                None => break,
            }
        }
        if woken.is_empty() {
            return;
        }
        self.join_woken();
    }

    /// Merges `woken` into the active list. Many wake-ups (a cold run's
    /// scores superstep wakes nearly every napping vertex by message) are
    /// cheaper to gather by one pass over the vertices than to sort.
    fn join_woken(&mut self) {
        let n_local = self.halted.len();
        let Self { active, woken, survivors, halted, sleep, .. } = self;
        survivors.clear();
        if woken.len() > n_local / 8 {
            let awake = |&i: &u32| !halted[i as usize] && !sleep.is_asleep(i as usize);
            survivors.extend((0..n_local as u32).filter(awake));
        } else {
            woken.sort_unstable();
            merge_sorted(active, woken, survivors);
        }
        std::mem::swap(active, survivors);
        survivors.clear();
    }

    /// Hands every sleeper among the local indices `range` to
    /// [`Program::check_sleeper`], in order.
    fn check_sleepers(
        &self,
        program: &P,
        global: &P::G,
        worker_state: &mut P::WorkerState,
        range: std::ops::Range<usize>,
    ) {
        for j in range.filter(|&j| self.sleep.is_asleep(j)) {
            program.check_sleeper(global, worker_state, self.global_ids[j], &self.values[j]);
        }
    }

    /// Wakes every sleeper, so that none outlives a run.
    pub(crate) fn wake_all(&mut self) {
        if self.sleep.asleep == 0 {
            return;
        }
        self.woken.clear();
        self.sleep.expire_all(&mut self.woken);
        self.join_woken();
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
    ///    `inbox_start` (and wakes halted and sleeping ones).
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
    /// across every transport × fold arm.
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
            sleep,
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
            } else if sleep.wake(v) {
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
        // merged with the newly woken (arrival order follows the source
        // order, not vertex order). The two are disjoint — a survivor is by
        // definition neither halted nor asleep, so it cannot be woken.
        std::mem::swap(&mut self.active, &mut self.survivors);
        self.join_woken();

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
}

/// Makes room for `len` items in the empty buffer `buf`. A buffer that never
/// allocated (a cold load) reserves exactly what it needs. A re-host that
/// outgrows the buffer replaces it ([`refit`]) instead of growing it:
/// `reserve` would copy the whole old block, making every page of a
/// reservation nothing ever wrote resident.
pub(crate) fn reserve_empty<T>(buf: &mut Vec<T>, len: usize) {
    if buf.capacity() == 0 {
        buf.reserve(len);
    } else {
        refit(buf, len);
    }
}

/// Replaces `out` with the merge of the ascending, disjoint `a` and `b`.
fn merge_sorted(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Wake keys at or above this share the last bucket of a [`SleepQueue`].
const SLEEP_BUCKETS: usize = 2048;

/// One worker's sleepers, filed by wake key ([`VertexContext::sleep`]).
///
/// Bucket `b` below the last holds the sleepers keyed `b`; the last holds
/// every larger key, and only its entries are compared key by key. A
/// program scales its keys so that they mostly fall below
/// `SLEEP_BUCKETS`. Filing a sleeper is one push; a message wakes it by
/// resetting its key alone and leaves its entry behind, stale. Expiring a
/// clock drains the occupied buckets up to the clock's (a bitmap finds
/// them), waking each entry whose vertex's current key is due and
/// dropping the stale ones, so every entry is touched O(1) times. Keys are
/// compared against each clock afresh, so a clock lower than the last one
/// expires nothing it should not. When stale entries outnumber twice the
/// hosted vertices, the buckets are rebuilt from the keys.
#[derive(Debug, Default)]
struct SleepQueue {
    /// Per hosted vertex: its wake key, or [`AWAKE`].
    keys: Vec<u64>,
    /// Allocated at the first sleep, so a program that never sleeps pays
    /// nothing.
    buckets: Vec<Vec<u32>>,
    /// Bit `b` set when bucket `b` may hold an entry.
    occupied: [u64; SLEEP_BUCKETS / 64],
    /// Entries in all buckets, stale ones included.
    entries: usize,
    /// Vertices asleep.
    asleep: u64,
}

impl SleepQueue {
    /// Every one of `n_local` vertices awake, keeping the allocations.
    fn reset(&mut self, n_local: usize) {
        self.keys.clear();
        self.keys.resize(n_local, AWAKE);
        self.clear_buckets();
        self.asleep = 0;
    }

    fn clear_buckets(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.occupied = [0; SLEEP_BUCKETS / 64];
        self.entries = 0;
    }

    #[inline]
    fn is_asleep(&self, i: usize) -> bool {
        self.keys[i] != AWAKE
    }

    /// Files vertex `i` in the bucket of `key`.
    #[inline]
    fn file(&mut self, i: u32, key: u64) {
        let b = key.min(SLEEP_BUCKETS as u64 - 1) as usize;
        self.buckets[b].push(i);
        self.occupied[b / 64] |= 1 << (b % 64);
        self.entries += 1;
    }

    /// Puts awake vertex `i` to sleep until `key`.
    fn push(&mut self, i: u32, key: u64) {
        debug_assert!(!self.is_asleep(i as usize) && key != AWAKE);
        if self.buckets.is_empty() {
            self.buckets.resize_with(SLEEP_BUCKETS, Vec::new);
        }
        self.keys[i as usize] = key;
        self.asleep += 1;
        self.file(i, key);
        if self.entries > 2 * self.keys.len() + SLEEP_BUCKETS {
            self.rebuild();
        }
    }

    /// Wakes vertex `i` if it sleeps (a message arrived); its entry goes
    /// stale.
    #[inline]
    fn wake(&mut self, i: usize) -> bool {
        if self.keys[i] == AWAKE {
            return false;
        }
        self.keys[i] = AWAKE;
        self.asleep -= 1;
        true
    }

    /// Wakes every sleeper keyed at most `clock`, appending it to `woken`.
    fn expire(&mut self, clock: u64, woken: &mut Vec<u32>) {
        if self.asleep == 0 {
            return;
        }
        let last = SLEEP_BUCKETS - 1;
        let hi = clock.min(last as u64) as usize;
        let Self { keys, buckets, occupied, entries, asleep } = self;
        for (word, occupied) in occupied.iter_mut().enumerate().take(hi / 64 + 1) {
            let mut bits = *occupied;
            if word == hi / 64 {
                bits &= u64::MAX >> (63 - hi % 64);
            }
            while bits != 0 {
                let b = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bucket = &mut buckets[b];
                *entries -= bucket.len();
                bucket.retain(|&i| {
                    let key = keys[i as usize];
                    if key == AWAKE {
                        return false;
                    }
                    if key <= clock {
                        keys[i as usize] = AWAKE;
                        *asleep -= 1;
                        woken.push(i);
                        return false;
                    }
                    // A later key below the last bucket is filed in its
                    // own bucket, above this one: this entry is stale.
                    b == last
                });
                *entries += bucket.len();
                if bucket.is_empty() {
                    *occupied &= !(1 << (b % 64));
                }
            }
        }
    }

    /// Wakes every sleeper, appending them to `woken` in ascending order.
    fn expire_all(&mut self, woken: &mut Vec<u32>) {
        for (i, key) in self.keys.iter_mut().enumerate() {
            if *key != AWAKE {
                *key = AWAKE;
                woken.push(i as u32);
            }
        }
        self.clear_buckets();
        self.asleep = 0;
    }

    /// Refiles every sleeper from the keys, dropping the stale entries.
    fn rebuild(&mut self) {
        self.clear_buckets();
        for i in 0..self.keys.len() {
            let key = self.keys[i];
            if key != AWAKE {
                self.file(i as u32, key);
            }
        }
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
