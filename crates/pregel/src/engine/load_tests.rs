//! `load_topology` against a reference loader written from the definitions
//! of the arrays it produces: every per-worker array of a loaded engine —
//! CSR, broadcast plan, fan-out index with its stamped weights, and the
//! bounds the message fabric is reserved for — must equal the reference,
//! after a cold build from an undirected or a directed graph and after every
//! warm reset of a chain that grows and shrinks the graph and re-places it.
//! The patched re-host (`Engine::warm_patch_undirected`) must leave the same
//! arrays as the reference and as a fresh load after every window of a
//! chain of edits, and must reload when a vertex moves or the vertex set
//! shrinks.

use super::{Engine, EngineConfig};
use crate::context::VertexContext;
use crate::program::Program;
use crate::transport::TransportKind;
use crate::types::{WorkerId, BROADCAST_MULTI};
use crate::worker::FabricBounds;
use crate::Placement;
use proptest::prelude::*;
use spinner_graph::conversion::{
    from_undirected_edges, patch_undirected_edges, to_weighted_undirected,
};
use spinner_graph::generators::{planted_partition, rmat, RmatConfig, SbmConfig};
use spinner_graph::mutation::apply_delta;
use spinner_graph::{
    DeltaStream, DeltaStreamConfig, DirectedGraph, GraphBuilder, UndirectedGraph, VertexId,
};
use std::collections::BTreeMap;

/// A program whose edge value is the weight stamped into its fan-out
/// entries; it never runs.
struct Stamped;

impl Program for Stamped {
    type V = ();
    type E = u8;
    type M = u32;
    type G = ();
    type WorkerState = ();

    fn init_global(&self) {}

    fn init_worker(&self, _: &(), _: WorkerId) {}

    fn compute(&self, _: &mut VertexContext<'_, Self>, _: &[u32]) {}

    const STAMP_BITS: u32 = 2;

    fn edge_weight(edge: &u8) -> u8 {
        *edge
    }
}

/// The same without stamping: its fan-out entries are bare local indices.
struct Plain;

impl Program for Plain {
    type V = ();
    type E = u8;
    type M = u32;
    type G = ();
    type WorkerState = ();

    fn init_global(&self) {}

    fn init_worker(&self, _: &(), _: WorkerId) {}

    fn compute(&self, _: &mut VertexContext<'_, Self>, _: &[u32]) {}
}

/// Every array `load_topology` leaves in one worker.
#[derive(Debug, PartialEq, Eq)]
struct Topology {
    global_ids: Vec<VertexId>,
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    edge_values: Vec<u8>,
    plan_offsets: Vec<u32>,
    plan_workers: Vec<WorkerId>,
    plan_lone: Vec<u32>,
    plan_local: Vec<u32>,
    fan_offsets: Vec<u32>,
    fan_targets: Vec<u32>,
    bounds: FabricBounds,
}

/// What a load was asked to build: every vertex's row as
/// `(target, edge value)` pairs, the placement, and the engine settings the
/// arrays depend on.
struct Load<'a> {
    rows: &'a [Vec<(VertexId, u8)>],
    worker_of: &'a [WorkerId],
    num_workers: usize,
    stamp_bits: u32,
    broadcast: bool,
    wired: bool,
}

/// Worker `d`'s arrays, computed from their definitions: the CSR holds
/// `d`'s vertices in ascending id; a plan entry per distinct destination
/// worker of a row, in first-occurrence order; for every sender, in its row
/// order, the entries it has on `d`, each stamped with the sender's edge
/// value; and the per-superstep volumes of the message fabric.
fn reference(load: &Load<'_>, d: usize) -> Topology {
    let Load { rows, worker_of, num_workers, stamp_bits, broadcast, wired } = *load;
    let on = |v: VertexId| worker_of[v as usize] as usize;
    let n = rows.len() as VertexId;
    // A vertex's local index counts the vertices before it on its worker.
    let mut hosted = vec![0u32; num_workers];
    let local_idx: Vec<u32> = worker_of
        .iter()
        .map(|&w| {
            hosted[w as usize] += 1;
            hosted[w as usize] - 1
        })
        .collect();
    let global_ids: Vec<VertexId> = (0..n).filter(|&v| on(v) == d).collect();
    let mut t = Topology {
        global_ids: global_ids.clone(),
        offsets: vec![0],
        targets: Vec::new(),
        edge_values: Vec::new(),
        plan_offsets: Vec::new(),
        plan_workers: Vec::new(),
        plan_lone: Vec::new(),
        plan_local: Vec::new(),
        fan_offsets: Vec::new(),
        fan_targets: Vec::new(),
        bounds: FabricBounds { marks: vec![0; num_workers], ..FabricBounds::default() },
    };
    let mut lone_to = vec![0usize; num_workers];
    if broadcast {
        t.plan_offsets.push(0);
    }
    for &v in &global_ids {
        let row = &rows[v as usize];
        t.targets.extend(row.iter().map(|&(u, _)| u));
        t.edge_values.extend(row.iter().map(|&(_, e)| e));
        t.offsets.push(t.targets.len() as u64);
        let local = row.iter().filter(|&&(u, _)| on(u) == d).count() as u32;
        t.bounds.local += local as usize;
        if !broadcast {
            continue;
        }
        let mut per_dst = vec![0usize; num_workers];
        for &(u, _) in row {
            per_dst[on(u)] += 1;
        }
        let mut seen = vec![false; num_workers];
        for (i, &(u, _)) in row.iter().enumerate() {
            let dst = on(u);
            if std::mem::replace(&mut seen[dst], true) {
                continue;
            }
            t.plan_workers.push(dst as WorkerId);
            if per_dst[dst] == 1 {
                t.plan_lone.push(i as u32);
                lone_to[dst] += 1;
            } else {
                t.plan_lone.push(BROADCAST_MULTI);
                t.bounds.marks[dst] += 1;
            }
        }
        t.plan_offsets.push(t.plan_workers.len() as u32);
        t.plan_local.push(local);
    }
    let mut from_others = 0;
    let mut plan_entries_from_others = 0;
    if broadcast {
        t.fan_offsets.push(0);
    }
    for s in 0..n {
        let row = &rows[s as usize];
        let here: Vec<_> = row.iter().filter(|&&(u, _)| on(u) == d).collect();
        if on(s) != d {
            from_others += here.len();
            plan_entries_from_others += usize::from(!here.is_empty());
        }
        if broadcast {
            for &&(u, e) in &here {
                let weight = if stamp_bits > 0 { u32::from(e) } else { 0 };
                t.fan_targets.push(local_idx[u as usize] << stamp_bits | weight);
            }
            t.fan_offsets.push(t.fan_targets.len() as u32);
        }
    }
    t.bounds.inbox = from_others + t.bounds.local;
    if wired {
        t.bounds.wire_records = if broadcast { plan_entries_from_others } else { from_others };
        lone_to[d] = 0;
        t.bounds.sort_keys = lone_to.into_iter().max().unwrap_or(0);
    }
    t
}

/// Worker `d`'s arrays as the engine holds them, after checking that its
/// message-path buffers (and, on the grid, its outgoing grid cells) have
/// room for the bounds it reports.
fn loaded<P: Program<E = u8>>(engine: &Engine<P>, d: usize) -> Topology {
    let w = &engine.workers[d];
    assert!(w.fabric_covers_bounds(), "worker {d}: fabric reserved below its bounds");
    if engine.transport.is_none() {
        let num_workers = engine.workers.len();
        for (dst, &n) in w.bounds.marks.iter().enumerate() {
            let cell = engine.mail_grid[d * num_workers + dst].lock().expect("grid cell");
            assert!(cell.marks.capacity() >= n, "grid cell {d}->{dst} reserved below {n}");
        }
    }
    Topology {
        global_ids: w.global_ids.clone(),
        offsets: w.offsets.clone(),
        targets: w.targets.clone(),
        edge_values: w.edge_values.clone(),
        plan_offsets: w.plan_offsets.clone(),
        plan_workers: w.plan_workers.clone(),
        plan_lone: w.plan_lone.clone(),
        plan_local: w.plan_local.clone(),
        fan_offsets: w.fan_offsets.clone(),
        fan_targets: w.fan_targets.clone(),
        bounds: w.bounds.clone(),
    }
}

/// Compares every worker of `engine` with the reference for `load`.
fn check<P: Program<E = u8>>(engine: &Engine<P>, load: &Load<'_>) -> Result<(), TestCaseError> {
    prop_assert_eq!(engine.workers.len(), load.num_workers);
    for d in 0..load.num_workers {
        let (got, want) = (loaded(engine, d), reference(load, d));
        prop_assert!(got == want, "worker {}: loaded {:?}\nreference {:?}", d, got, want);
    }
    Ok(())
}

fn config(workers: usize, transport: TransportKind, broadcast: bool) -> EngineConfig {
    EngineConfig {
        num_threads: workers.min(2),
        broadcast_fabric: broadcast,
        transport,
        ..EngineConfig::default()
    }
}

/// An undirected graph's rows, each edge value its weight.
fn undirected_rows(g: &UndirectedGraph) -> Vec<Vec<(VertexId, u8)>> {
    g.vertices()
        .map(|v| {
            let (ts, ws) = g.neighbors(v);
            ts.iter().copied().zip(ws.iter().copied()).collect()
        })
        .collect()
}

/// A directed edge's value: 1 to 3 and different in the two directions, so
/// a fan-out entry shows whose edge value it was stamped from.
fn directed_value(src: VertexId, dst: VertexId) -> u8 {
    1 + ((src.wrapping_mul(7).wrapping_add(dst)) % 3) as u8
}

/// A placement over `workers` workers that uses only the workers whose bit
/// is set in `mask` (all of them when none is), so some may host nothing.
fn placement(n: VertexId, workers: usize, mask: u8, draws: &[u8]) -> Placement {
    let mut used: Vec<WorkerId> =
        (0..workers).filter(|w| mask >> w & 1 == 1).map(|w| w as WorkerId).collect();
    if used.is_empty() {
        used = (0..workers as WorkerId).collect();
    }
    let worker_of = (0..n as usize).map(|v| used[draws[v % draws.len()] as usize % used.len()]);
    Placement::explicit(worker_of.collect(), workers)
}

fn directed(n: VertexId, edges: &[(u32, u32)]) -> DirectedGraph {
    GraphBuilder::new(n).add_edges(edges.iter().map(|&(a, b)| (a % n, b % n))).build()
}

const TRANSPORTS: [TransportKind; 2] = [TransportKind::Direct, TransportKind::Ring];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A cold build from a weighted undirected graph (weights 1 and 2,
    /// isolated vertices, workers that host nothing) loads exactly the
    /// reference arrays, stamping and not, on both transports, with and
    /// without the broadcast lane.
    #[test]
    fn undirected_load_matches_the_reference(
        n in 1u32..40,
        edges in prop::collection::vec((0u32..1000, 0u32..1000), 0..120),
        workers in 1usize..8,
        mask in any::<u8>(),
        draws in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let g = to_weighted_undirected(&directed(n, &edges));
        let placement = placement(n, workers, mask, &draws);
        let rows = undirected_rows(&g);
        for transport in TRANSPORTS {
            for broadcast in [true, false] {
                let cfg = config(workers, transport, broadcast);
                let load = Load {
                    rows: &rows,
                    worker_of: placement.as_slice(),
                    num_workers: workers,
                    stamp_bits: 2,
                    broadcast,
                    wired: transport == TransportKind::Ring,
                };
                let (none, weight) = (|_| (), |_, _, w| w);
                let engine =
                    Engine::from_undirected(Stamped, &g, &placement, cfg.clone(), none, weight);
                check(&engine, &load)?;
                let engine = Engine::from_undirected(Plain, &g, &placement, cfg, none, weight);
                check(&engine, &Load { stamp_bits: 0, ..load })?;
            }
        }
    }

    /// A cold build from a directed graph loads exactly the reference
    /// arrays, with and without the broadcast lane: each fan-out entry
    /// lists a sender's out-neighbour and keeps the weight of the sender's
    /// own edge value.
    #[test]
    fn directed_load_matches_the_reference(
        n in 1u32..40,
        edges in prop::collection::vec((0u32..1000, 0u32..1000), 0..120),
        workers in 1usize..8,
        mask in any::<u8>(),
        draws in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let g = directed(n, &edges);
        let placement = placement(n, workers, mask, &draws);
        let rows: Vec<Vec<(VertexId, u8)>> = g
            .vertices()
            .map(|s| g.out_neighbors(s).iter().map(|&t| (t, directed_value(s, t))).collect())
            .collect();
        for transport in TRANSPORTS {
            for broadcast in [true, false] {
                let load = Load {
                    rows: &rows,
                    worker_of: placement.as_slice(),
                    num_workers: workers,
                    stamp_bits: 2,
                    broadcast,
                    wired: transport == TransportKind::Ring,
                };
                let cfg = config(workers, transport, broadcast);
                let engine = Engine::from_directed(
                    Stamped,
                    &g,
                    &placement,
                    cfg.clone(),
                    |_| (),
                    |s, t, _| directed_value(s, t),
                );
                check(&engine, &load)?;
                let value = |s, t, _| directed_value(s, t);
                let engine = Engine::from_directed(Plain, &g, &placement, cfg, |_| (), value);
                check(&engine, &Load { stamp_bits: 0, ..load })?;
            }
        }
    }

    /// A chain of warm resets that grows and shrinks the graph and moves
    /// vertices between workers reloads exactly the reference arrays each
    /// time, whatever the previous topology left in the buffers.
    #[test]
    fn warm_reset_chain_matches_the_reference(
        sizes in prop::collection::vec(1u32..40, 4),
        edges in prop::collection::vec((0u32..1000, 0u32..1000), 0..120),
        workers in 1usize..8,
        masks in prop::collection::vec(any::<u8>(), 4),
        draws in prop::collection::vec(any::<u8>(), 1..40),
        ring in any::<bool>(),
    ) {
        let transport = if ring { TransportKind::Ring } else { TransportKind::Direct };
        let mut engine: Option<Engine<Stamped>> = None;
        for (step, (&n, &mask)) in sizes.iter().zip(&masks).enumerate() {
            // Each graph keeps a different slice of the edges.
            let kept: Vec<_> = edges.iter().copied().skip(step * 7).collect();
            let g = to_weighted_undirected(&directed(n, &kept));
            let rotated: Vec<u8> = draws.iter().map(|&x| x.wrapping_add(step as u8)).collect();
            let placement = placement(n, workers, mask, &rotated);
            match &mut engine {
                None => {
                    let cfg = config(workers, transport, true);
                    let (none, weight) = (|_| (), |_, _, w| w);
                    let e = Engine::from_undirected(Stamped, &g, &placement, cfg, none, weight);
                    engine = Some(e);
                }
                Some(engine) => {
                    let awake = |_| ();
                    engine.warm_reset_undirected(Stamped, &g, &placement, awake, |_, _, w| w);
                }
            }
            let rows = undirected_rows(&g);
            let load = Load {
                rows: &rows,
                worker_of: placement.as_slice(),
                num_workers: workers,
                stamp_bits: 2,
                broadcast: true,
                wired: ring,
            };
            check(engine.as_ref().expect("built above"), &load)?;
        }
    }
}

/// The loader at benchmark scale: `cold_community`'s 60 k SBM on 16
/// workers, and a weighted R-MAT 2^15 on 32 workers behind the Ring
/// transport, `cold_skew_wire`'s shape.
#[test]
#[ignore = "benchmark scale; run in release"]
fn loader_matches_the_reference_at_benchmark_scale() {
    let sbm = from_undirected_edges(&planted_partition(SbmConfig {
        n: 60_000,
        communities: 1000,
        internal_degree: 40.0,
        external_degree: 16.0,
        skew: None,
        seed: 11,
    }));
    let skewed = to_weighted_undirected(&rmat(RmatConfig::graph500(15, 24, 11)));
    for (g, workers, transport) in
        [(&sbm, 16, TransportKind::Direct), (&skewed, 32, TransportKind::Ring)]
    {
        let placement = Placement::hashed(g.num_vertices(), workers, 11);
        let cfg = config(workers, transport, true);
        let engine = Engine::from_undirected(Stamped, g, &placement, cfg, |_| (), |_, _, w| w);
        let rows = undirected_rows(g);
        let load = Load {
            rows: &rows,
            worker_of: placement.as_slice(),
            num_workers: workers,
            stamp_bits: 2,
            broadcast: true,
            wired: transport == TransportKind::Ring,
        };
        check(&engine, &load).expect("loaded arrays equal the reference");
    }
}

/// The unordered pairs whose edge weight differs between `prev` and `next`
/// (a missing edge weighs 0), ascending.
fn changed_pairs(prev: &UndirectedGraph, next: &UndirectedGraph) -> Vec<(VertexId, VertexId)> {
    let weights = |g: &UndirectedGraph| -> BTreeMap<(VertexId, VertexId), u8> {
        g.edges_once().map(|(a, b, w)| ((a, b), w)).collect()
    };
    let (before, after) = (weights(prev), weights(next));
    let mut pairs: Vec<_> =
        before.keys().chain(after.keys()).filter(|k| before.get(k) != after.get(k)).collect();
    pairs.sort();
    pairs.dedup();
    pairs.into_iter().copied().collect()
}

/// One window of an edit chain: directed edges added (ids wrap into the
/// grown vertex range), the reverses of existing edges added (Eq. 3 weights
/// 1 → 2), existing edges removed (2 → 1 or gone), a star of edits around
/// one vertex (edges to `star.1` added, its first `star.2` edges removed, so
/// that one row sees several), vertices appended, and whether the window
/// changes nothing at all.
#[derive(Debug, Clone)]
struct Window {
    adds: Vec<(u32, u32)>,
    mirrors: Vec<usize>,
    removes: Vec<usize>,
    star: (u32, Vec<u32>, usize),
    grow: u32,
    empty: bool,
}

fn window() -> impl Strategy<Value = Window> {
    (
        (
            prop::collection::vec((0u32..1000, 0u32..1000), 0..10),
            prop::collection::vec(any::<usize>(), 0..5),
            prop::collection::vec(any::<usize>(), 0..8),
        ),
        (0u32..1000, prop::collection::vec(0u32..1000, 0..6), 0usize..4),
        0u32..4,
        any::<u8>(),
    )
        .prop_map(|((adds, mirrors, removes), star, grow, empty)| Window {
            adds,
            mirrors,
            removes,
            star,
            grow,
            empty: empty % 5 == 0,
        })
}

/// `edges` (over `n` vertices) after `window`, and the new vertex count.
fn edit(n: u32, edges: &[(u32, u32)], window: &Window) -> (u32, Vec<(u32, u32)>) {
    if window.empty {
        return (n, edges.to_vec());
    }
    let n = n + window.grow;
    let mut next: Vec<(u32, u32)> = edges.to_vec();
    for &i in &window.removes {
        if !next.is_empty() {
            next.swap_remove(i % next.len());
        }
    }
    for &i in &window.mirrors {
        if let Some(&(a, b)) = edges.get(i % edges.len().max(1)) {
            next.push((b, a));
        }
    }
    next.extend(window.adds.iter().map(|&(a, b)| (a % n, b % n)));
    let (center, ref star, cut) = window.star;
    let center = center % n;
    for _ in 0..cut {
        if let Some(i) = next.iter().position(|&(a, b)| a == center || b == center) {
            next.swap_remove(i);
        }
    }
    next.extend(star.iter().map(|&t| (center, t % n)));
    (n, next)
}

/// `placement` grown to `n` vertices: the old vertices keep their workers,
/// the new ones are drawn from the workers `mask` selects.
fn grown(placement: &Placement, n: VertexId, mask: u8, draws: &[u8]) -> Placement {
    let workers = placement.num_workers();
    let fresh = self::placement(n, workers, mask, draws);
    let mut worker_of = placement.as_slice().to_vec();
    worker_of.extend_from_slice(&fresh.as_slice()[worker_of.len()..]);
    Placement::explicit(worker_of, workers)
}

/// Every per-worker array of `engine` equals a fresh load of `g` on
/// `placement` and the reference for it.
fn check_fresh<P: Program<E = u8>>(
    engine: &Engine<P>,
    fresh: Engine<P>,
    g: &UndirectedGraph,
    placement: &Placement,
    stamp_bits: u32,
    (broadcast, wired): (bool, bool),
) -> Result<(), TestCaseError> {
    for d in 0..engine.workers.len() {
        let (got, want) = (loaded(engine, d), loaded(&fresh, d));
        prop_assert!(got == want, "worker {}: patched {:?}\nfresh {:?}", d, got, want);
    }
    let rows = undirected_rows(g);
    let load = Load {
        rows: &rows,
        worker_of: placement.as_slice(),
        num_workers: engine.workers.len(),
        stamp_bits,
        broadcast,
        wired,
    };
    check(engine, &load)
}

/// Drives `windows` through one engine of `program` (built by `make`) and
/// checks every re-host against a fresh load and the reference.
#[allow(clippy::too_many_arguments)]
fn patch_chain<P: Program<V = (), E = u8>>(
    make: impl Fn() -> P,
    stamp_bits: u32,
    cfg: &EngineConfig,
    (n, edges): (u32, &[(u32, u32)]),
    placement: &Placement,
    windows: &[Window],
    (mask, draws): (u8, &[u8]),
    noisy: bool,
) -> Result<(), TestCaseError> {
    let lane = (cfg.broadcast_fabric, cfg.transport == TransportKind::Ring);
    let (none, weight) = (|_| (), |_, _, w| w);
    let mut g = to_weighted_undirected(&directed(n, edges));
    let mut engine = Engine::from_undirected(make(), &g, placement, cfg.clone(), none, weight);
    let (mut n, mut edges, mut placement) = (n, edges.to_vec(), placement.clone());
    for window in windows {
        let (next_n, next_edges) = edit(n, &edges, window);
        let next = to_weighted_undirected(&directed(next_n, &next_edges));
        let mut changed = changed_pairs(&g, &next);
        if noisy {
            // Unchanged pairs, duplicates and reversed pairs are harmless.
            changed.extend(next.edges_once().take(2).map(|(a, b, _)| (b, a)));
            changed.extend(changed.clone().into_iter().take(2));
        }
        placement = grown(&placement, next_n, mask, draws);
        prop_assert!(engine.keeps_hosts(&placement), "the re-host patches");
        let awake = |_| ();
        engine.warm_patch_undirected(make(), &next, &placement, &changed, awake, weight);
        let fresh =
            Engine::from_undirected(make(), &next, &placement, cfg.clone(), none, weight);
        check_fresh(&engine, fresh, &next, &placement, stamp_bits, lane)?;
        (n, edges, g) = (next_n, next_edges, next);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A chain of patched re-hosts — edges added and removed, Eq. 3 weights
    /// moving between 1 and 2, vertices appended, windows that change
    /// nothing — leaves every per-worker array equal to a fresh load and to
    /// the reference after every window, stamping and not, on both
    /// transports, with and without the broadcast lane, on placements with
    /// empty workers.
    #[test]
    fn patched_rehost_chain_matches_a_fresh_load(
        n in 1u32..40,
        edges in prop::collection::vec((0u32..1000, 0u32..1000), 0..120),
        workers in 1usize..8,
        mask in any::<u8>(),
        draws in prop::collection::vec(any::<u8>(), 1..40),
        windows in prop::collection::vec(window(), 1..5),
        noisy in any::<bool>(),
    ) {
        let edges: Vec<(u32, u32)> = edges.iter().map(|&(a, b)| (a % n, b % n)).collect();
        let placement = placement(n, workers, mask, &draws);
        for transport in TRANSPORTS {
            for broadcast in [true, false] {
                let cfg = config(workers, transport, broadcast);
                let start = (n, &edges[..]);
                let grow = (mask, &draws[..]);
                patch_chain(|| Stamped, 2, &cfg, start, &placement, &windows, grow, noisy)?;
                patch_chain(|| Plain, 0, &cfg, start, &placement, &windows, grow, noisy)?;
            }
        }
    }

    /// A re-host that moves a vertex to another worker, or drops vertices,
    /// reloads the graph, and still leaves the arrays of a fresh load.
    #[test]
    fn moved_or_dropped_vertices_reload(
        n in 2u32..40,
        edges in prop::collection::vec((0u32..1000, 0u32..1000), 0..120),
        workers in 2usize..8,
        draws in prop::collection::vec(any::<u8>(), 1..40),
        moved in any::<prop::sample::Index>(),
        ring in any::<bool>(),
    ) {
        let transport = if ring { TransportKind::Ring } else { TransportKind::Direct };
        let cfg = config(workers, transport, true);
        let g = to_weighted_undirected(&directed(n, &edges));
        let placement = placement(n, workers, 0, &draws);
        let (none, weight) = (|_| (), |_, _, w| w);
        let mut engine = Engine::from_undirected(Stamped, &g, &placement, cfg.clone(), none, weight);
        let mut worker_of = placement.as_slice().to_vec();
        let v = moved.index(n as usize);
        worker_of[v] = (worker_of[v] + 1) % workers as WorkerId;
        let moved = Placement::explicit(worker_of, workers);
        let awake = |_| ();
        prop_assert!(!engine.keeps_hosts(&moved), "a moved vertex reloads");
        engine.warm_patch_undirected(Stamped, &g, &moved, &[], awake, weight);
        let fresh = Engine::from_undirected(Stamped, &g, &moved, cfg.clone(), none, weight);
        check_fresh(&engine, fresh, &g, &moved, 2, (true, ring))?;
        // One vertex fewer: its edges go with it.
        let kept: Vec<(u32, u32)> =
            edges.iter().map(|&(a, b)| (a % n, b % n)).filter(|&(a, b)| a < n - 1 && b < n - 1).collect();
        let smaller = to_weighted_undirected(&directed(n - 1, &kept));
        let fewer = Placement::explicit(moved.as_slice()[..n as usize - 1].to_vec(), workers);
        let changed = changed_pairs(&g, &smaller);
        prop_assert!(!engine.keeps_hosts(&fewer), "a shrinking vertex set reloads");
        engine.warm_patch_undirected(Stamped, &smaller, &fewer, &changed, awake, weight);
        let fresh = Engine::from_undirected(Stamped, &smaller, &fewer, cfg, none, weight);
        check_fresh(&engine, fresh, &smaller, &fewer, 2, (true, ring))?;
    }
}

/// A changed-pair list that misses an added edge panics instead of pairing
/// the stale row with the new graph's weights, in release builds too.
#[test]
#[should_panic(expected = "the changed pairs miss a change")]
fn a_missed_addition_panics() {
    let placement = Placement::explicit(vec![0, 1, 0], 2);
    let cfg = config(2, TransportKind::Direct, true);
    let (none, weight) = (|_| (), |_, _, w| w);
    let g = to_weighted_undirected(&directed(3, &[(0, 1)]));
    let mut engine = Engine::from_undirected(Stamped, &g, &placement, cfg, none, weight);
    // Vertex 1 gains neighbour 2, but no pair says so.
    let next = to_weighted_undirected(&directed(3, &[(0, 1), (1, 2)]));
    let awake = |_| ();
    engine.warm_patch_undirected(Stamped, &next, &placement, &[], awake, weight);
}

/// The patched re-host at benchmark scale: `stream_churn`'s 60 k SBM view
/// on 16 workers through 20 `DeltaStream` windows, every window patched
/// and every per-worker array equal to a fresh load and to the reference.
#[test]
#[ignore = "benchmark scale; run in release"]
fn patched_rehost_matches_a_fresh_load_at_benchmark_scale() {
    let base = planted_partition(SbmConfig {
        n: 60_000,
        communities: 1000,
        internal_degree: 40.0,
        external_degree: 16.0,
        skew: None,
        seed: 11,
    });
    let deltas = DeltaStream::new(
        base.clone(),
        DeltaStreamConfig { windows: 20, seed: 11, ..Default::default() },
    );
    let workers = 16;
    let cfg = config(workers, TransportKind::Direct, true);
    let (none, weight) = (|_| (), |_, _, w| w);
    let mut graph = base;
    let mut view = from_undirected_edges(&graph);
    let placement = Placement::hashed(view.num_vertices(), workers, 11);
    let mut engine =
        Engine::from_undirected(Stamped, &view, &placement, cfg.clone(), none, weight);
    for delta in deltas {
        let next = apply_delta(&graph, &delta);
        let patch = patch_undirected_edges(&view, &next, &delta);
        let changed: Vec<_> = patch.added.iter().chain(&patch.removed).copied().collect();
        let placement = Placement::hashed(patch.graph.num_vertices(), workers, 11);
        assert!(engine.keeps_hosts(&placement), "every window patches");
        let awake = |_| ();
        engine.warm_patch_undirected(
            Stamped,
            &patch.graph,
            &placement,
            &changed,
            awake,
            weight,
        );
        let fresh = Engine::from_undirected(
            Stamped,
            &patch.graph,
            &placement,
            cfg.clone(),
            none,
            weight,
        );
        check_fresh(&engine, fresh, &patch.graph, &placement, 2, (true, false))
            .expect("patched arrays equal a fresh load and the reference");
        (graph, view) = (next, patch.graph);
    }
}
