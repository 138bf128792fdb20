//! The warm re-host that patches a loaded topology instead of reloading it.
//!
//! A stream window changes few adjacency entries (about 1.5 % of them per
//! window on a 60 k-vertex community graph) but touches most rows (about
//! two thirds), so the re-host works entry by entry, not row by row:
//!
//! - each worker's CSR copies every run of unchanged rows from its old one
//!   in one piece and reads only the changed and arrived rows from the
//!   graph;
//! - the broadcast plans of unchanged rows are copied with them, and a
//!   changed row's plan is derived afresh from its new row;
//! - each sender's fan-out list is its old list with the changed entries
//!   merged in, every run of unchanged senders copied in one piece.
//!
//! Every edge value still comes from `init_e`, called in the order a full
//! load calls it, with the weight read from the graph's row, so nothing is
//! read back from an edge value a program owned. Debug builds reload the
//! graph after every patched re-host and assert that every per-worker array
//! and bound came out the same.

use super::{check_fan_locals, checked_u32, fan_entry, plan_row, Engine, PlanScratch, Rows};
use crate::program::Program;
use crate::types::WorkerId;
use crate::worker::Worker;
use crate::Placement;
use spinner_graph::buffer::refit;
use spinner_graph::{EdgeWeight, UndirectedGraph, VertexId};
use std::ops::Range;

/// The arrays one worker's patch is built into. They are swapped with the
/// worker's own when its patch is done, so the next worker's patch is
/// written into the previous worker's old arrays: a re-host holds one
/// worker's worth of spare topology, not a second copy of all of it. The
/// engine keeps the last worker's old arrays for the next re-host.
#[derive(Default)]
pub(super) struct Spare {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    plan: PlanSpare,
    fan_offsets: Vec<u32>,
    fan_targets: Vec<u32>,
    /// One row's changed entries: the partner, and its position in the new
    /// row unless it was removed.
    row_ops: Vec<(VertexId, Option<usize>)>,
    /// The worker's changed entries as fan-out changes: `sender << 32 |
    /// local index`, and the new fan-out entry unless it was removed.
    fan_ops: Vec<(u64, Option<u32>)>,
}

/// The broadcast plan one worker's patch is built into, and its scratch.
#[derive(Default)]
struct PlanSpare {
    offsets: Vec<u32>,
    workers: Vec<WorkerId>,
    lone: Vec<u32>,
    scratch: PlanScratch,
}

impl<P: Program> Engine<P> {
    /// Re-hosts a finished engine on `graph` for another run, like
    /// [`Self::warm_reset_undirected`], given `changed`: every unordered
    /// vertex pair whose edge was added, removed or re-weighted since the
    /// graph the engine last loaded (listing a pair that did not change, or
    /// a pair twice, is harmless). `init_v` and `init_e` are called exactly
    /// as a full load calls them, and every per-worker array and bound
    /// comes out as a full load builds it.
    ///
    /// When every vertex the engine hosts keeps its worker, the vertex set
    /// does not shrink and the engine last loaded an undirected graph, each
    /// worker keeps its loaded rows and their plans but re-reads from
    /// `graph` the rows the pairs touch, merges the pairs into its fan-out
    /// index, and appends the arrived vertices; with no pair and no arrival
    /// that copies the loaded topology as it is. Otherwise the graph is
    /// loaded afresh, as by [`Self::warm_reset_undirected`].
    ///
    /// Values and edge values are re-initialised on both paths. A `changed`
    /// list that misses a change leaves the engine on the wrong topology: a
    /// kept row whose length then differs from `graph`'s panics, and
    /// debug builds check every patched re-host against a full load and
    /// panic on any difference.
    pub fn warm_patch_undirected(
        &mut self,
        program: P,
        graph: &UndirectedGraph,
        placement: &Placement,
        changed: &[(VertexId, VertexId)],
        mut init_v: impl FnMut(VertexId) -> P::V,
        mut init_e: impl FnMut(VertexId, VertexId, EdgeWeight) -> P::E,
    ) {
        assert_eq!(placement.num_vertices(), graph.num_vertices(), "placement size mismatch");
        if !self.keeps_hosts(placement) {
            self.warm_reset_undirected(program, graph, placement, init_v, init_e);
            return;
        }
        let old_n = self.num_vertices as usize;
        self.restart(program);
        self.host_vertices(placement, &mut init_v);
        self.patch_rows(graph, old_n, changed, &mut init_e);
        self.count_bounds();
        self.size_fabric();
        #[cfg(debug_assertions)]
        self.check_against_a_full_load(graph, placement);
    }

    /// Whether a re-host onto `placement` can patch the loaded topology:
    /// the engine last loaded an undirected graph, and every vertex it
    /// hosts stays on its worker.
    pub(super) fn keeps_hosts(&self, placement: &Placement) -> bool {
        let old_n = self.num_vertices as usize;
        self.rows == Rows::Symmetric
            && placement.num_workers() == self.workers.len()
            && placement.num_vertices() as usize >= old_n
            && placement.as_slice()[..old_n] == self.worker_of[..]
    }

    /// Merges `changed` and the vertices hosted beyond the first `old_n`
    /// into every worker's loaded arrays.
    fn patch_rows(
        &mut self,
        graph: &UndirectedGraph,
        old_n: usize,
        changed: &[(VertexId, VertexId)],
        init_e: &mut impl FnMut(VertexId, VertexId, EdgeWeight) -> P::E,
    ) {
        let num_workers = self.workers.len();
        let n = self.num_vertices as usize;
        // Each worker's changed entries in the rows it hosted before, as
        // `row << 32 | partner`; an arrived vertex's row is read whole.
        let mut changes: Vec<Vec<u64>> = vec![Vec::new(); num_workers];
        for &(a, b) in changed {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "changed pair ({a}, {b}) names a vertex beyond the graph"
            );
            for (v, u) in [(a, b), (b, a)] {
                if (v as usize) < old_n {
                    let w = self.worker_of[v as usize] as usize;
                    changes[w].push(u64::from(v) << 32 | u64::from(u));
                }
            }
        }
        let lane = self.config.broadcast_fabric;
        let rooms: Vec<Room> = (self.workers.iter().zip(&mut changes))
            .map(|(w, edits)| {
                edits.sort_unstable();
                edits.dedup();
                Room::of(w, graph, edits, num_workers)
            })
            .collect();
        let room = rooms.iter().fold(Room::default(), |room, &own| room.max(own));
        let spare = &mut self.spare;
        spare.plan.scratch.dst_count.resize(num_workers, 0);
        for ((w, edits), own) in self.workers.iter_mut().zip(&changes).zip(rooms) {
            let (worker_of, local_idx) = (&self.worker_of[..], &self.local_idx[..]);
            let patch = Patch { graph, worker_of, local_idx, old_n, lane, edits, room, own };
            patch.apply(w, init_e, spare);
        }
    }

    /// Reloads the graph with the values and edge values the re-host just
    /// installed and asserts that every per-worker array and bound equals
    /// what the re-host left.
    #[cfg(debug_assertions)]
    fn check_against_a_full_load(&mut self, graph: &UndirectedGraph, placement: &Placement) {
        let kept: Vec<Loaded> = self.workers.iter().map(Loaded::of).collect();
        let mut values = self.take_values().into_iter();
        let edges: Vec<P::E> =
            self.workers.iter_mut().flat_map(|w| w.edge_values.drain(..)).collect();
        let mut edges = edges.into_iter();
        self.load_topology(
            graph.num_vertices(),
            placement,
            Rows::Symmetric,
            |v| graph.neighbors(v).0,
            |v, i| graph.neighbors(v).1[i],
            |_| values.next().expect("one value per vertex"),
            |_, _, _| edges.next().expect("one edge value per entry"),
        );
        for (w, kept) in self.workers.iter().zip(kept) {
            assert!(
                Loaded::of(w) == kept,
                "worker {}: the re-hosted topology differs from a full load",
                w.id
            );
        }
    }
}

/// What the arrays one worker's patch writes must hold, an upper bound
/// for each, so that none grows while it is written. Each is counted from
/// the worker's loaded arrays, its edits and its arrived rows, never by a
/// pass over its rows.
#[derive(Clone, Copy, Default)]
struct Room {
    /// Hosted vertices: one offset each, plus one.
    hosted: usize,
    /// Adjacency entries: the rows' and, a symmetric row being its
    /// vertex's in-row, the fan-out index's. A kept row gains at most one
    /// entry per edit.
    entries: usize,
    /// Broadcast plan entries: a kept row's plan gains at most one per
    /// edit, an arrived row's has at most one per worker.
    plan: usize,
}

impl Room {
    /// Worker `w`'s room on `graph`, given its sorted `edits`.
    fn of<P: Program>(
        w: &Worker<P>,
        graph: &UndirectedGraph,
        edits: &[u64],
        workers: usize,
    ) -> Self {
        let arrived = w.global_ids[w.offsets.len() - 1..].iter();
        let degrees = arrived.map(|&gid| graph.degree(gid) as usize);
        let (rows, plans) = degrees.fold((0, 0), |(r, p), d| (r + d, p + d.min(workers)));
        Self {
            hosted: w.global_ids.len(),
            entries: w.targets.len() + edits.len() + rows,
            plan: w.plan_workers.len() + edits.len() + plans,
        }
    }

    fn max(self, other: Self) -> Self {
        Self {
            hosted: self.hosted.max(other.hosted),
            entries: self.entries.max(other.entries),
            plan: self.plan.max(other.plan),
        }
    }
}

/// What one worker's patch merges in.
struct Patch<'a> {
    /// The new graph: its weights, and the rows of arrived vertices.
    graph: &'a UndirectedGraph,
    worker_of: &'a [WorkerId],
    local_idx: &'a [u32],
    /// The vertices hosted before the re-host.
    old_n: usize,
    /// Whether the broadcast lane (plan and fan-out index) is built.
    lane: bool,
    /// The worker's changed entries, `row << 32 | partner` ascending.
    edits: &'a [u64],
    /// The largest room any worker's patch needs. The spare arrays pass
    /// from worker to worker, so one that must be replaced is sized for
    /// every worker, and the next window finds them all large enough.
    room: Room,
    /// This worker's own room, which its edge values (never passed on)
    /// are sized for.
    own: Room,
}

impl Patch<'_> {
    /// Patches worker `w`: copies its unchanged rows, reads its changed and
    /// arrived rows from the graph, re-fills its edge values in load order,
    /// derives the plans of the rows it read and merges their changed
    /// entries into its fan-out index.
    fn apply<P: Program>(
        &self,
        w: &mut Worker<P>,
        init_e: &mut impl FnMut(VertexId, VertexId, EdgeWeight) -> P::E,
        s: &mut Spare,
    ) {
        let (me, lane, edits) = (w.id, self.lane, self.edits);
        let hosted = w.global_ids.len();
        let old_hosted = w.offsets.len() - 1;
        // Every array the patch rewrites is sized up front, so none grows
        // while it is written; the edge values stay with the worker.
        let room = self.room;
        refit(&mut w.edge_values, self.own.entries);
        refit(&mut s.offsets, room.hosted + 1);
        refit(&mut s.targets, room.entries);
        s.offsets.push(0);
        s.fan_ops.clear();
        if lane {
            check_fan_locals::<P>(me as usize, hosted);
            refit(&mut s.plan.offsets, room.hosted + 1);
            refit(&mut s.plan.workers, room.plan);
            refit(&mut s.plan.lone, room.plan);
            refit(&mut s.fan_offsets, self.graph.num_vertices() as usize + 1);
            refit(&mut s.fan_targets, room.entries);
            s.plan.offsets.push(0);
        }
        let Worker {
            global_ids,
            offsets,
            targets,
            edge_values,
            plan_offsets,
            plan_workers,
            plan_lone,
            plan_local,
            ..
        } = &mut *w;
        // Row by row: runs of unchanged rows are copied whole, their offsets
        // rebased; a changed or arrived row is read from the graph.
        let (mut copied, mut at) = (0, 0);
        loop {
            let next = edits
                .get(at)
                .map_or(old_hosted, |&key| self.local_idx[(key >> 32) as usize] as usize);
            copy_rows((offsets, targets), copied..next, &mut s.offsets, &mut s.targets);
            for (li, &gid) in global_ids.iter().enumerate().take(next).skip(copied) {
                let row = &s.targets[s.offsets[li] as usize..s.offsets[li + 1] as usize];
                push_edge_values(self.graph, gid, row, init_e, edge_values);
            }
            if lane {
                let plan = (&plan_offsets[..], &plan_workers[..]);
                let run =
                    copy_rows(plan, copied..next, &mut s.plan.offsets, &mut s.plan.workers);
                s.plan.lone.extend_from_slice(&plan_lone[run]);
            }
            if next == old_hosted {
                break;
            }
            let (li, gid) = (next, global_ids[next]);
            let row = self.graph.neighbors(gid).0;
            let lo = s.targets.len();
            s.targets.extend_from_slice(row);
            s.offsets.push(s.targets.len() as u64);
            push_edge_values(self.graph, gid, row, init_e, edge_values);
            copied = li + 1;
            // Each edit's position in the new row, unless it was removed.
            s.row_ops.clear();
            let mut p = 0;
            for &key in edits[at..].iter().take_while(|&&key| key >> 32 == u64::from(gid)) {
                at += 1;
                let u = key as VertexId;
                let q = p + row[p..].partition_point(|&t| t < u);
                let present = q < row.len() && row[q] == u;
                s.row_ops.push((u, present.then_some(q)));
                p = q + usize::from(present);
            }
            if !lane {
                continue;
            }
            stamp_ops::<P>(li, &s.row_ops, &edge_values[lo..], &mut s.fan_ops);
            let PlanSpare { workers, lone, scratch, .. } = &mut s.plan;
            plan_local[li] = plan_row(me, row, self.worker_of, scratch, workers, lone);
            s.plan.offsets.push(s.plan.workers.len() as u32);
        }
        for (li, &gid) in global_ids.iter().enumerate().skip(old_hosted) {
            let row = self.graph.neighbors(gid).0;
            let lo = s.targets.len();
            s.targets.extend_from_slice(row);
            s.offsets.push(s.targets.len() as u64);
            push_edge_values(self.graph, gid, row, init_e, edge_values);
            if lane {
                s.row_ops.clear();
                s.row_ops.extend(row.iter().enumerate().map(|(i, &u)| (u, Some(i))));
                stamp_ops::<P>(li, &s.row_ops, &edge_values[lo..], &mut s.fan_ops);
                let PlanSpare { workers, lone, scratch, .. } = &mut s.plan;
                plan_local.push(plan_row(me, row, self.worker_of, scratch, workers, lone));
                s.plan.offsets.push(s.plan.workers.len() as u32);
            }
        }
        debug_assert_eq!(at, edits.len(), "an edit of a row the worker does not host");
        if lane {
            // Lengths only grow, so the `as u32` offsets above were exact
            // if the final one is.
            checked_u32(me as usize, "broadcast plan entries", s.plan.workers.len());
            merge_fan_index::<P>(w, self.old_n, self.graph.num_vertices() as usize, s);
            checked_u32(me as usize, "fan-out entries", s.fan_targets.len());
            std::mem::swap(&mut w.plan_offsets, &mut s.plan.offsets);
            std::mem::swap(&mut w.plan_workers, &mut s.plan.workers);
            std::mem::swap(&mut w.plan_lone, &mut s.plan.lone);
            std::mem::swap(&mut w.fan_offsets, &mut s.fan_offsets);
            std::mem::swap(&mut w.fan_targets, &mut s.fan_targets);
        }
        std::mem::swap(&mut w.offsets, &mut s.offsets);
        std::mem::swap(&mut w.targets, &mut s.targets);
    }
}

/// Appends the edge values of vertex `gid`'s row `row`, each from `init_e`
/// with the weight `graph` gives the edge.
fn push_edge_values<E>(
    graph: &UndirectedGraph,
    gid: VertexId,
    row: &[VertexId],
    init_e: &mut impl FnMut(VertexId, VertexId, EdgeWeight) -> E,
    edge_values: &mut Vec<E>,
) {
    let (targets, weights) = graph.neighbors(gid);
    // A missed addition or removal would pair the row with the wrong
    // weights; the full comparison is left to debug builds.
    assert_eq!(row.len(), targets.len(), "row {gid}: the changed pairs miss a change");
    debug_assert_eq!(row, targets, "row {gid}: the changed pairs miss a change");
    edge_values.extend(row.iter().zip(weights).map(|(&t, &wt)| init_e(gid, t, wt)));
}

/// Appends the fan-out changes of hosted vertex `li`'s changed entries
/// `row_ops` to `fan_ops`, each present entry stamped with the weight of its
/// new edge value in `edges` (the row's).
fn stamp_ops<P: Program>(
    li: usize,
    row_ops: &[(VertexId, Option<usize>)],
    edges: &[P::E],
    fan_ops: &mut Vec<(u64, Option<u32>)>,
) {
    fan_ops.extend(row_ops.iter().map(|&(u, at)| {
        let entry = at.map(|i| fan_entry::<P>(li, P::edge_weight(&edges[i])));
        (u64::from(u) << 32 | li as u64, entry)
    }));
}

/// A CSR offset type.
trait Offset: Copy {
    fn index(self) -> usize;
    /// The offset moved from a run starting at `from` to one at `to`.
    fn rebase(self, from: usize, to: usize) -> Self;
}

impl Offset for u32 {
    fn index(self) -> usize {
        self as usize
    }
    fn rebase(self, from: usize, to: usize) -> Self {
        (self as usize - from + to) as u32
    }
}

impl Offset for u64 {
    fn index(self) -> usize {
        self as usize
    }
    fn rebase(self, from: usize, to: usize) -> Self {
        (self as usize - from + to) as u64
    }
}

/// Appends the rows `rows` of an old CSR (`offsets`, `items`) to a new one
/// in one piece, rebasing their offsets, and returns the range of `items`
/// they span (for an array parallel to `items`).
fn copy_rows<O: Offset, T: Copy>(
    (offsets, items): (&[O], &[T]),
    rows: Range<usize>,
    new_offsets: &mut Vec<O>,
    new_items: &mut Vec<T>,
) -> Range<usize> {
    if rows.is_empty() {
        return 0..0;
    }
    let (lo, hi) = (offsets[rows.start].index(), offsets[rows.end].index());
    let to = new_items.len();
    new_items.extend_from_slice(&items[lo..hi]);
    new_offsets.extend(offsets[rows.start + 1..=rows.end].iter().map(|&o| o.rebase(lo, to)));
    lo..hi
}

/// Builds the worker's fan-out index over `n` senders into `s` from its
/// old index over `old_n` senders and the changes in `s.fan_ops`: the runs
/// of senders without a change are copied in one piece, offsets rebased,
/// and every other sender's list is its old list with its changes merged
/// in by local index.
fn merge_fan_index<P: Program>(w: &Worker<P>, old_n: usize, n: usize, s: &mut Spare) {
    let Spare { fan_ops: ops, fan_offsets: offsets, fan_targets: targets, .. } = s;
    ops.sort_unstable_by_key(|&(key, _)| key);
    offsets.push(0);
    let (mut sender, mut at) = (0, 0);
    loop {
        let changed = ops.get(at).map_or(n, |&(key, _)| (key >> 32) as usize);
        // Senders `sender..changed` keep their lists: copied while they had
        // one, empty after.
        let old_index = (&w.fan_offsets[..], &w.fan_targets[..]);
        copy_rows(old_index, sender..changed.min(old_n).max(sender), offsets, targets);
        offsets.resize(changed + 1, targets.len() as u32);
        if changed == n {
            break;
        }
        let old: &[u32] = if changed < old_n {
            &w.fan_targets[w.fan_offsets[changed] as usize..w.fan_offsets[changed + 1] as usize]
        } else {
            &[]
        };
        let mut p = 0;
        let mine = |&&(key, _): &&(u64, Option<u32>)| key >> 32 == changed as u64;
        while let Some(&(key, entry)) = ops.get(at).filter(mine) {
            at += 1;
            let li = key as u32;
            let q = p + old[p..].partition_point(|&e| e >> P::STAMP_BITS < li);
            targets.extend_from_slice(&old[p..q]);
            p = q + usize::from(q < old.len() && old[q] >> P::STAMP_BITS == li);
            targets.extend(entry);
        }
        targets.extend_from_slice(&old[p..]);
        offsets.push(targets.len() as u32);
        sender = changed + 1;
    }
}

/// Every topology array one worker holds, for the debug comparison with a
/// full load.
#[cfg(debug_assertions)]
#[derive(PartialEq)]
struct Loaded {
    global_ids: Vec<VertexId>,
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    plan_offsets: Vec<u32>,
    plan_workers: Vec<WorkerId>,
    plan_lone: Vec<u32>,
    plan_local: Vec<u32>,
    fan_offsets: Vec<u32>,
    fan_targets: Vec<u32>,
    bounds: crate::worker::FabricBounds,
}

#[cfg(debug_assertions)]
impl Loaded {
    fn of<P: Program>(w: &Worker<P>) -> Self {
        Self {
            global_ids: w.global_ids.clone(),
            offsets: w.offsets.clone(),
            targets: w.targets.clone(),
            plan_offsets: w.plan_offsets.clone(),
            plan_workers: w.plan_workers.clone(),
            plan_lone: w.plan_lone.clone(),
            plan_local: w.plan_local.clone(),
            fan_offsets: w.fan_offsets.clone(),
            fan_targets: w.fan_targets.clone(),
            bounds: w.bounds.clone(),
        }
    }
}
