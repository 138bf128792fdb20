//! Fabric determinism: the flat mailbox + persistent pool must produce
//! bit-identical results across every `num_workers x num_threads`
//! combination, with and without a message combiner, across the unicast
//! and deduplicated-broadcast lanes, and must stop allocating on the
//! message path once buffer capacities have warmed up.

use proptest::prelude::*;
use spinner_graph::generators::{planted_partition, SbmConfig};
use spinner_graph::rng::{mix3, vertex_stream};
use spinner_graph::{DirectedGraph, GraphBuilder, VertexId};
use spinner_pregel::engine::{Engine, EngineConfig, HaltReason};
use spinner_pregel::program::{MasterContext, Program};
use spinner_pregel::{Placement, TransportKind, VertexContext};

fn sbm() -> DirectedGraph {
    planted_partition(SbmConfig {
        n: 600,
        communities: 5,
        internal_degree: 7.0,
        external_degree: 1.5,
        skew: None,
        seed: 42,
    })
}

/// Min-label propagation (WCC-style): deterministic regardless of message
/// order, so any fabric bug that reorders, drops, or duplicates messages
/// shows up as a value or metrics difference.
struct MinLabel {
    /// Whether to fold messages through the combiner (exercises the
    /// combine-into-chain-tail path) or deliver them individually
    /// (exercises multi-message chains).
    combine: bool,
    /// Send through [`spinner_pregel::Mailer::broadcast`] instead of a
    /// per-edge send loop (the payload is the same for every neighbour, so
    /// the two must deliver identically).
    broadcast: bool,
}

impl Program for MinLabel {
    type V = u32;
    type E = ();
    type M = u32;
    type G = ();
    type WorkerState = ();

    fn init_global(&self) {}
    fn init_worker(&self, _g: &(), _w: u16) {}

    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[u32]) {
        let mut best = *ctx.value;
        if ctx.superstep == 0 {
            best = ctx.vertex;
        }
        for &m in messages {
            best = best.min(m);
        }
        if best != *ctx.value || ctx.superstep == 0 {
            *ctx.value = best;
            let msg = best;
            if self.broadcast {
                ctx.mail.broadcast(msg);
            } else {
                for &t in ctx.edges.targets {
                    ctx.mail.send(t, msg);
                }
            }
        }
        ctx.vote_to_halt();
    }

    fn combine(&self, acc: &mut u32, msg: &u32) -> bool {
        if self.combine {
            *acc = (*acc).min(*msg);
            true
        } else {
            false
        }
    }
}

/// Everything a run exposes that must be identical across the grid:
/// final values plus the integer per-superstep history (logical message
/// counts — lane-independent by design).
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    values: Vec<u32>,
    history: Vec<HistoryRow>,
    halt_supersteps: u64,
    /// Physical grid records over the whole run (NOT part of the
    /// equality digest: the broadcast lane exists to shrink this).
    remote_records: u64,
}

fn run_program(
    g: &DirectedGraph,
    workers: usize,
    threads: usize,
    program: MinLabel,
    fabric: bool,
) -> Trace {
    let placement = Placement::hashed(g.num_vertices(), workers, 9);
    let cfg = EngineConfig {
        num_threads: threads,
        max_supersteps: 200,
        seed: 3,
        broadcast_fabric: fabric,
        ..EngineConfig::default()
    };
    let mut engine =
        Engine::from_directed(program, g, &placement, cfg, |_| u32::MAX, |_, _, _| ());
    let summary = engine.run();
    assert_eq!(summary.halt, HaltReason::AllHalted);
    Trace {
        values: engine.collect_values(),
        history: summary
            .metrics
            .iter()
            .map(|s| {
                let recv: u64 = s.per_worker.iter().map(|w| w.recv_total()).sum();
                (s.superstep, s.computed_total(), s.sent_total(), recv, s.active_after)
            })
            .collect(),
        halt_supersteps: summary.supersteps,
        remote_records: summary.metrics.iter().map(|s| s.sent_remote_records()).sum(),
    }
}

fn run(g: &DirectedGraph, workers: usize, threads: usize, combine: bool) -> Trace {
    run_program(g, workers, threads, MinLabel { combine, broadcast: false }, true)
}

/// One superstep's integer history row: `(superstep, computed, sent, recv,
/// active_after)`.
type HistoryRow = (u64, u64, u64, u64, u64);

fn digest(t: &Trace) -> (&[u32], &[HistoryRow], u64) {
    (&t.values, &t.history, t.halt_supersteps)
}

#[test]
fn identical_across_worker_and_thread_grid() {
    let g = sbm();
    for &combine in &[false, true] {
        let reference = run(&g, 1, 1, combine);
        // Values must match the offline WCC answer regardless of placement.
        assert!(reference.values.iter().all(|&v| v != u32::MAX));
        for &workers in &[1usize, 2, 4, 7] {
            for &threads in &[1usize, 2, 4, 7] {
                let trace = run(&g, workers, threads, combine);
                assert_eq!(
                    trace.values, reference.values,
                    "values diverged at workers={workers} threads={threads} combine={combine}"
                );
                assert_eq!(
                    trace.history, reference.history,
                    "history diverged at workers={workers} threads={threads} combine={combine}"
                );
                assert_eq!(trace.halt_supersteps, reference.halt_supersteps);
            }
        }
    }
}

/// The broadcast lane against the per-edge baseline, over the full
/// combiner x workers x threads grid: values, logical message history, and
/// superstep counts must be bit-identical whether the program broadcasts
/// with the lane open, broadcasts with the lane closed (per-edge
/// fallback), or unicasts — while the open lane strictly reduces the
/// physical cross-worker records on every multi-worker shape.
#[test]
fn broadcast_lane_is_bit_identical_to_unicast() {
    let g = sbm();
    for &combine in &[false, true] {
        let reference = run_program(&g, 1, 1, MinLabel { combine, broadcast: false }, false);
        for &workers in &[1usize, 2, 4, 7] {
            for &threads in &[1usize, 2, 4] {
                let unicast = run_program(
                    &g,
                    workers,
                    threads,
                    MinLabel { combine, broadcast: false },
                    false,
                );
                let fallback = run_program(
                    &g,
                    workers,
                    threads,
                    MinLabel { combine, broadcast: true },
                    false,
                );
                let broadcast = run_program(
                    &g,
                    workers,
                    threads,
                    MinLabel { combine, broadcast: true },
                    true,
                );
                for (name, t) in
                    [("unicast", &unicast), ("fallback", &fallback), ("broadcast", &broadcast)]
                {
                    assert_eq!(
                        digest(t),
                        digest(&reference),
                        "{name} diverged at workers={workers} threads={threads} combine={combine}"
                    );
                }
                // The closed lane is record-for-record the unicast path.
                assert_eq!(fallback.remote_records, unicast.remote_records);
                if workers > 1 {
                    assert!(
                        broadcast.remote_records < unicast.remote_records,
                        "no dedup at workers={workers}: {} vs {}",
                        broadcast.remote_records,
                        unicast.remote_records
                    );
                } else {
                    assert_eq!(broadcast.remote_records, 0);
                }
            }
        }
    }
}

#[test]
fn combiner_reduces_delivered_messages_but_not_results() {
    let g = sbm();
    let plain = run(&g, 4, 2, false);
    let combined = run(&g, 4, 2, true);
    assert_eq!(plain.values, combined.values);
    // Same sends, fewer (combined) deliveries overall.
    let sent: u64 = plain.history.iter().map(|h| h.2).sum();
    let sent_c: u64 = combined.history.iter().map(|h| h.2).sum();
    let recv: u64 = plain.history.iter().map(|h| h.3).sum();
    assert_eq!(sent, sent_c);
    assert_eq!(recv, sent, "every sent message is counted on receipt");
}

/// `send_to_all` routes through the broadcast lane exactly when handed the
/// vertex's full adjacency slice; any sub-slice stays per-edge (the
/// receiver could not expand it to a partial target set).
struct SendToAll {
    /// Pass the full adjacency (lane-eligible) or skip the first neighbour.
    full: bool,
}

impl Program for SendToAll {
    type V = u32;
    type E = ();
    type M = u32;
    type G = ();
    type WorkerState = ();
    fn init_global(&self) {}
    fn init_worker(&self, _g: &(), _w: u16) {}
    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[u32]) {
        if ctx.superstep == 0 {
            let targets = if self.full { ctx.edges.targets } else { &ctx.edges.targets[1..] };
            let msg = ctx.vertex;
            ctx.mail.send_to_all(targets, &msg);
        } else {
            *ctx.value = messages.iter().sum();
        }
        ctx.vote_to_halt();
    }
}

#[test]
fn send_to_all_routes_full_adjacency_through_the_lane() {
    // Complete-ish graph: every vertex has neighbours on both workers.
    let g = GraphBuilder::new(8)
        .add_edges(
            (0..8u32).flat_map(|v| (0..8u32).filter(move |&t| t != v).map(move |t| (v, t))),
        )
        .build();
    let placement = Placement::modulo(8, 2);
    let cfg =
        EngineConfig { num_threads: 1, max_supersteps: 10, seed: 1, ..Default::default() };
    let records = |full: bool| {
        let mut engine = Engine::from_directed(
            SendToAll { full },
            &g,
            &placement,
            cfg.clone(),
            |_| 0,
            |_, _, _| (),
        );
        let summary = engine.run();
        let step0 = &summary.metrics[0];
        (step0.sent_remote(), step0.sent_remote_records(), engine.collect_values())
    };
    let (full_logical, full_records, full_values) = records(true);
    let (part_logical, part_records, _) = records(false);
    // Full adjacency: 8 vertices x 4 remote neighbours logical, but only
    // one record each to the single other worker.
    assert_eq!(full_logical, 32);
    assert_eq!(full_records, 8);
    // Sub-slice: plain unicast, record per message.
    assert_eq!(part_records, part_logical);
    // Each vertex hears every other vertex exactly once.
    let expect: u32 = (0..8).sum();
    assert!(full_values.iter().enumerate().all(|(v, &x)| x == expect - v as u32));
}

/// Constant-volume chatter: every vertex messages all neighbours every
/// superstep until the master halts.
struct Chatter {
    /// Announce through the broadcast lane instead of per-edge sends.
    broadcast: bool,
}

impl Program for Chatter {
    type V = u64;
    type E = ();
    type M = u64;
    type G = ();
    type WorkerState = ();
    fn init_global(&self) {}
    fn init_worker(&self, _g: &(), _w: u16) {}
    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[u64]) {
        *ctx.value += messages.iter().sum::<u64>();
        let msg = ctx.vertex as u64;
        if self.broadcast {
            ctx.mail.broadcast(msg);
        } else {
            for &t in ctx.edges.targets {
                ctx.mail.send(t, msg);
            }
        }
    }
    fn master(&self, ctx: &mut spinner_pregel::program::MasterContext<'_, ()>) {
        if ctx.superstep >= 12 {
            ctx.halt();
        }
    }
}

#[test]
fn steady_state_inbox_path_does_not_allocate() {
    let g = GraphBuilder::new(64)
        .add_edges((0..64u32).flat_map(|v| {
            // Ring plus two chords: constant per-superstep message volume.
            [(v, (v + 1) % 64), (v, (v + 7) % 64), (v, (v + 19) % 64)]
        }))
        .build();
    // Both fabrics: the grid double-buffers records and broadcast marks
    // against its cells, the ring recycles frame buffers — and a
    // single-threaded multi-worker run puts the whole pool on the engine
    // thread.
    for transport in [TransportKind::Direct, TransportKind::Ring] {
        for &broadcast in &[false, true] {
            for &(workers, threads) in &[(1usize, 1usize), (4, 1), (4, 2), (7, 4)] {
                let placement = Placement::hashed(g.num_vertices(), workers, 5);
                let cfg = EngineConfig {
                    num_threads: threads,
                    max_supersteps: 100,
                    seed: 1,
                    transport,
                    ..Default::default()
                };
                let mut engine = Engine::from_directed(
                    Chatter { broadcast },
                    &g,
                    &placement,
                    cfg,
                    |_| 0,
                    |_, _, _| (),
                );
                let summary = engine.run();
                assert_eq!(summary.halt, HaltReason::Master);
                // Buffers may grow during the first supersteps; after that
                // the fabric must reuse capacity — zero growth events.
                for step in summary.metrics.iter().filter(|s| s.superstep >= 3) {
                    let growth: u64 = step.per_worker.iter().map(|w| w.fabric_reallocs).sum();
                    assert_eq!(
                        growth, 0,
                        "fabric buffers grew in steady state at superstep {} ({transport:?}, \
                         workers={workers}, threads={threads}, broadcast={broadcast})",
                        step.superstep
                    );
                }
            }
        }
    }
}

/// A delivery-oracle message: the `(hash, len)` of a run of original
/// messages. Combining concatenates runs, which is associative but not
/// commutative, so a reordered inbox changes the hash.
type Run = (u64, u32);

fn concat(acc: &mut Run, msg: &Run) {
    const BASE: u64 = 0x9E37_79B9_7F4A_7C15;
    acc.0 = acc.0.wrapping_mul(BASE.wrapping_pow(msg.1)).wrapping_add(msg.0);
    acc.1 += msg.1;
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Combiner {
    Off,
    /// Always concatenates.
    Total,
    /// Concatenates only while the result holds at most three messages.
    Partial,
}

impl Combiner {
    fn combine(self, acc: &mut Run, msg: &Run) -> bool {
        let fold = match self {
            Combiner::Off => false,
            Combiner::Total => true,
            Combiner::Partial => acc.1 + msg.1 <= 3,
        };
        if fold {
            concat(acc, msg);
        }
        fold
    }
}

/// One send of the oracle's random traffic.
enum Send {
    To(VertexId, Run),
    All(Run),
}

/// The sends vertex `v` makes in `superstep`: up to four, each a unicast
/// to any vertex (local or remote) or, one time in three, a broadcast.
fn traffic(seed: u64, v: VertexId, superstep: u64, n: u64) -> Vec<Send> {
    let mut rng = vertex_stream(seed, u64::from(v), superstep);
    (0..rng.next_bounded(5))
        .map(|seq| {
            let msg = (mix3(u64::from(v), superstep, seq), 1);
            if rng.next_bounded(3) == 0 {
                Send::All(msg)
            } else {
                Send::To(rng.next_bounded(n) as VertexId, msg)
            }
        })
        .collect()
}

/// Sends [`traffic`] every superstep and records every inbox it reads.
struct Traffic {
    seed: u64,
    combiner: Combiner,
    steps: u64,
}

impl Program for Traffic {
    type V = Vec<Vec<Run>>;
    type E = ();
    type M = Run;
    type G = ();
    type WorkerState = ();

    fn init_global(&self) {}
    fn init_worker(&self, _g: &(), _w: u16) {}

    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[Run]) {
        ctx.value.push(messages.to_vec());
        for send in traffic(self.seed, ctx.vertex, ctx.superstep, ctx.num_vertices) {
            match send {
                Send::To(t, msg) => ctx.mail.send(t, msg),
                Send::All(msg) => ctx.mail.broadcast(msg),
            }
        }
    }

    fn combine(&self, acc: &mut Run, msg: &Run) -> bool {
        self.combiner.combine(acc, msg)
    }

    fn master(&self, ctx: &mut MasterContext<'_, ()>) {
        if ctx.superstep + 1 >= self.steps {
            ctx.halt();
        }
    }
}

/// The inboxes [`Traffic`] must read, built by walking the sources the way
/// the fabric defines them: source workers in order (a worker's own sends
/// at its own position), each worker's vertices in id order, each vertex's
/// sends in order, a broadcast as one send per out-edge in adjacency order,
/// and the combiner folding each message into the recipient's last one.
fn reference_inboxes(
    g: &DirectedGraph,
    placement: &Placement,
    program: &Traffic,
) -> Vec<Vec<Vec<Run>>> {
    let n = g.num_vertices();
    let mut senders: Vec<VertexId> = (0..n).collect();
    senders.sort_by_key(|&v| (placement.worker_of(v), v));
    let mut inboxes: Vec<Vec<Vec<Run>>> = vec![vec![Vec::new()]; n as usize];
    for superstep in 0..program.steps - 1 {
        let mut arrivals: Vec<Vec<Run>> = vec![Vec::new(); n as usize];
        for &u in &senders {
            for send in traffic(program.seed, u, superstep, u64::from(n)) {
                match send {
                    Send::To(t, msg) => arrivals[t as usize].push(msg),
                    Send::All(msg) => {
                        for &t in g.out_neighbors(u) {
                            arrivals[t as usize].push(msg);
                        }
                    }
                }
            }
        }
        for (inbox, arrived) in inboxes.iter_mut().zip(arrivals) {
            let mut folded: Vec<Run> = Vec::new();
            for msg in arrived {
                let combined =
                    folded.last_mut().is_some_and(|last| program.combiner.combine(last, &msg));
                if !combined {
                    folded.push(msg);
                }
            }
            inbox.push(folded);
        }
    }
    inboxes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every vertex's inbox, every superstep, equals the naive reference on
    /// both fabrics, with and without sender folding, the broadcast lane and
    /// a total or partial combiner — random unicasts and broadcasts, local
    /// and remote.
    #[test]
    fn inboxes_match_a_naive_walk_of_the_sources(
        seed in any::<u64>(),
        n in 2u32..40,
        edges in prop::collection::vec((0u32..1000, 0u32..1000), 0..160),
        workers in 1usize..5,
        threads in 1usize..3,
    ) {
        let g = GraphBuilder::new(n)
            .add_edges(edges.iter().map(|&(a, b)| (a % n, b % n)))
            .build();
        let placement = Placement::hashed(n, workers, seed);
        for combiner in [Combiner::Off, Combiner::Total, Combiner::Partial] {
            let program = Traffic { seed, combiner, steps: 5 };
            let expect = reference_inboxes(&g, &placement, &program);
            for (transport, sender_fold) in [
                (TransportKind::Direct, false),
                (TransportKind::Ring, false),
                (TransportKind::Ring, true),
            ] {
                // Sender folding regroups a partial combiner's calls (it
                // folds a run before the receiver sees its first message),
                // so only total combiners are exact under it.
                if sender_fold && combiner == Combiner::Partial {
                    continue;
                }
                for broadcast_fabric in [true, false] {
                    let cfg = EngineConfig {
                        num_threads: threads,
                        max_supersteps: 20,
                        seed: 1,
                        transport,
                        sender_fold,
                        broadcast_fabric,
                        ..EngineConfig::default()
                    };
                    let mut engine = Engine::from_directed(
                        Traffic { seed, combiner, steps: 5 },
                        &g,
                        &placement,
                        cfg,
                        |_| Vec::new(),
                        |_, _, _| (),
                    );
                    prop_assert_eq!(engine.run().halt, HaltReason::Master);
                    prop_assert_eq!(
                        engine.collect_values(),
                        expect.clone(),
                        "{:?} fold={} lane={} {:?}",
                        transport,
                        sender_fold,
                        broadcast_fabric,
                        combiner
                    );
                }
            }
        }
    }
}
