//! The stages every Spinner run on an undirected graph is made of.
//!
//! Spinner is one Pregel vertex program; its runs differ only in the labels
//! they start from (random §III-A, incremental §III-D, elastic §III-E, or
//! reseeded after a worker loss). Everything else — the engine settings,
//! the default placement, the program and its seeded start, the vertex and
//! edge state, and the read-out of the finished engine — lives here, once:
//!
//! ```
//! use spinner_core::driver::{random_labels, stages};
//! use spinner_core::{partition, SpinnerConfig};
//! use spinner_graph::{conversion, generators};
//!
//! let graph = conversion::to_weighted_undirected(&generators::planted_partition(
//!     generators::SbmConfig {
//!         n: 400, communities: 4, internal_degree: 6.0, external_degree: 1.0,
//!         skew: None, seed: 3,
//!     },
//! ));
//! let cfg = SpinnerConfig::new(4);
//! let labels = random_labels(graph.num_vertices(), cfg.k, cfg.seed);
//! let placement = stages::placement(graph.num_vertices(), &cfg);
//! let mut engine = stages::build_engine(&graph, &cfg, &placement, &labels);
//! let summary = engine.run();
//! let result = stages::collect(&cfg, &engine, &summary, &graph);
//! assert_eq!(result.labels, partition(&graph, &cfg).labels);
//! ```
//!
//! # Bit-identity contract
//!
//! [`crate::partition`], [`crate::partition_with_placement`],
//! [`crate::partition_directed`], [`crate::adapt`], [`crate::elastic`] and
//! every [`crate::StreamSession`] window (bootstrap, delta, resize, worker
//! loss, transport escalation, the first after a resume) are these stages
//! around one [`Engine::run`]. A resumed session builds its engine with
//! [`build_engine`] from its saved labels and placement when its first
//! window starts (or a fault injection needs it), not when it is restored;
//! that window then warm-resets the engine like any other, so deferring
//! the build changes no result. A caller that builds an engine here from
//! the same graph, config, placement and labels, runs it, and collects it
//! gets the same labels, per-iteration history, iteration and superstep
//! counts and message totals as the driver call, bit for bit; only
//! wall-clock fields differ.
//!
//! Every run starts seeded at `ComputeScores`: [`build_engine`] counts each
//! vertex's degree and label histogram from the labels it is given, and a
//! warm window's [`warm_reset`] installs carried or recounted ones; both
//! sum the partition loads from them. No vertex announces its initial
//! label. The paper's own start (§IV-A2) stays as the reference: an engine
//! built on `SpinnerProgram { start_phase: Phase::Initialize, .. }` with
//! fresh [`VertexState`]s, in whose first superstep every vertex computes
//! its degree and announces its label to every neighbour. It reaches the
//! same labels, per-iteration history (score included), iteration count
//! and `halted_steady` flag, in exactly one superstep and one announcement
//! round — one message per adjacency entry, one visit per vertex — more.
//!
//! How [`warm_reset`] re-hosts the engine never changes a result, since
//! both paths leave the arrays a full load builds (debug builds assert it
//! after every patch):
//!
//! - a delta window passes the pairs the view patch added and removed, and
//!   the engine merges them into its loaded topology; a window on the same
//!   graph and placement (a resize, a worker loss or a transport
//!   escalation's re-run that re-places nothing) passes no pairs, and the
//!   patch copies the loaded topology as it is;
//! - a window whose placement moves a vertex (placement feedback, a
//!   recovery's by-label re-place) reloads the graph.

use super::PartitionResult;
use crate::config::SpinnerConfig;
use crate::program::{load_of, rho_of, seeded_global, SpinnerProgram, AGG_LOADS};
use crate::state::{
    label_histogram, EdgeState, Label, Phase, VertexState, NOT_COUNTED, NO_LABEL,
};
use spinner_graph::{UndirectedGraph, VertexId};
use spinner_metrics::PartitionQuality;
use spinner_pregel::engine::{Engine, EngineConfig};
use spinner_pregel::{AggValue, HaltReason, Placement, RunSummary};

/// The engine settings a run derives from its config.
pub fn engine_config(cfg: &SpinnerConfig) -> EngineConfig {
    EngineConfig {
        num_threads: cfg.num_threads,
        // Two supersteps per iteration, plus the reference path's
        // Initialize and slack.
        max_supersteps: 2 * cfg.max_iterations as u64 + 8,
        seed: cfg.seed,
        broadcast_fabric: cfg.broadcast_fabric,
        work_stealing: cfg.work_stealing,
        steal_chunk: cfg.steal_chunk,
        dense_scan: cfg.dense_scan,
        transport: cfg.transport,
        wire_format: cfg.wire_format,
        sender_fold: cfg.sender_fold,
        transport_retry: cfg.transport_retry,
        // Fault plans are transient chaos apparatus, injected through
        // `Engine::inject_transport_faults` / `StreamSession::
        // inject_transport_faults` — never part of a persisted config.
        transport_faults: None,
    }
}

/// The default vertex → worker placement of an `n`-vertex run: a hash over
/// `cfg.num_workers` seeded from `cfg.seed`.
pub fn placement(n: VertexId, cfg: &SpinnerConfig) -> Placement {
    Placement::hashed(n, cfg.num_workers, cfg.seed ^ 0x70C)
}

/// Builds an engine that starts Spinner at `ComputeScores` from `labels`
/// (one per vertex): every vertex's weighted degree and label histogram are
/// counted from `graph` by [`recount_states`] on `cfg.num_threads` threads,
/// and the partition loads are summed from them into both the persistent
/// loads aggregator and the master's state — what the reference
/// `Initialize` superstep and the first histogram fold would have left, so
/// the run skips that superstep and its announcement round.
pub fn build_engine(
    graph: &UndirectedGraph,
    cfg: &SpinnerConfig,
    placement: &Placement,
    labels: &[Label],
) -> Engine<SpinnerProgram> {
    let mut states = recount_states(graph, placement, labels, cfg.num_threads);
    let mut built = None;
    seed(cfg, &mut states, |program, init_v| {
        let config = engine_config(cfg);
        built.insert(Engine::from_undirected(program, graph, placement, config, init_v, edge))
    });
    built.expect("the engine was built")
}

/// Re-hosts a finished engine for a warm window that starts at
/// `ComputeScores`, as [`build_engine`] starts a run: `states` (one per
/// vertex, in global-id order) carry each vertex's label, weighted degree
/// and label histogram exactly as the reference `Initialize` superstep and
/// the first histogram fold would have left them for this graph, and the
/// partition loads are summed from them into both the persistent loads
/// aggregator and the master's state. The engine moves onto `placement`,
/// its fabric buffers keep their capacity, its settings stay those it was
/// built with, and every histogram's heap buffer stays where `states`
/// allocated it. `states` is left empty with its capacity, for the caller
/// to refill next window ([`Engine::take_values_into`]).
///
/// `changed` lists the unordered vertex pairs whose edge differs between
/// `graph` and the graph the engine last ran on (empty when it is the same
/// graph). The engine patches its loaded topology by them, or reloads
/// `graph` when a vertex moved or the vertex set shrank (see
/// [`Engine::warm_patch_undirected`]).
///
/// Debug builds first check the states against `graph`: every degree, and
/// the mass law Σ_v hist_v\[l\] = Σ_{u : label(u) = l} deg_w(u) for every
/// label.
pub fn warm_reset(
    engine: &mut Engine<SpinnerProgram>,
    graph: &UndirectedGraph,
    changed: &[(VertexId, VertexId)],
    cfg: &SpinnerConfig,
    placement: &Placement,
    states: &mut Vec<VertexState>,
) {
    assert_eq!(states.len(), graph.num_vertices() as usize, "one vertex state per vertex");
    #[cfg(debug_assertions)]
    if let Err(e) = crate::program::check_mass_law(graph, states) {
        panic!("seeded label histograms out of sync with the graph: {e}");
    }
    seed(cfg, states, |program, init_v| {
        engine.warm_patch_undirected(program, graph, placement, changed, init_v, edge);
        engine
    });
}

/// The seeded start every run shares. Sums the partition loads from
/// `states`, hands `host` the program starting at `ComputeScores` and each
/// vertex's state — its candidate and locality count cleared — and
/// installs the loads into the engine `host` returns: the persistent loads
/// aggregator, which the migration phase folds its load deltas into, and
/// the master's state. `states` is left empty.
fn seed<'e>(
    cfg: &SpinnerConfig,
    states: &mut Vec<VertexState>,
    host: impl FnOnce(
        SpinnerProgram,
        &mut dyn FnMut(VertexId) -> VertexState,
    ) -> &'e mut Engine<SpinnerProgram>,
) {
    let mut loads = vec![0i64; cfg.k as usize];
    let mut total_weight = 0u64;
    for s in states.iter() {
        loads[s.label as usize] += load_of(cfg.objective, s.degree) as i64;
        total_weight += s.degree;
    }
    let program = SpinnerProgram { cfg: cfg.clone(), start_phase: Phase::ComputeScores };
    let engine = host(program, &mut |v| {
        let v = v as usize;
        let mut state = std::mem::replace(&mut states[v], VertexState::new(0, false));
        state.candidate = NO_LABEL;
        state.counted = NOT_COUNTED;
        state
    });
    states.clear();
    engine.set_aggregate(AGG_LOADS, AggValue::VecI64(loads.clone()));
    engine.set_global(seeded_global(cfg, loads, total_weight));
}

/// Vertices below which [`recount_states`] counts on one thread: spawning
/// a thread costs more than counting a few thousand small rows.
const MIN_RECOUNT_RUN: usize = 4096;

/// Every vertex's state for a run starting from `labels`: the label, the
/// weighted degree and the label histogram counted from `graph`, on up to
/// `threads` threads. The vertices are counted in the order the engine
/// hosted on `placement` visits them — by worker, then ascending id — one
/// contiguous run of that order per thread, so each thread allocates its
/// histograms in visit order and a scores superstep walks them through
/// memory front to back.
pub fn recount_states(
    graph: &UndirectedGraph,
    placement: &Placement,
    labels: &[Label],
    threads: usize,
) -> Vec<VertexState> {
    assert_eq!(labels.len(), graph.num_vertices() as usize, "one label per vertex");
    // The vertices by worker, ascending id within each: a counting pass
    // over the placement.
    let mut next = vec![0usize; placement.num_workers() + 1];
    for &w in placement.as_slice() {
        next[w as usize + 1] += 1;
    }
    for w in 1..next.len() {
        next[w] += next[w - 1];
    }
    let mut order: Vec<VertexId> = vec![0; labels.len()];
    for (v, &w) in placement.as_slice().iter().enumerate() {
        order[next[w as usize]] = v as VertexId;
        next[w as usize] += 1;
    }
    let count = |run: &[VertexId]| -> Vec<(Vec<(Label, u32)>, u64)> {
        let mut counts = Vec::new();
        let row = |v: VertexId| {
            let (targets, weights) = graph.neighbors(v);
            targets.iter().copied().zip(weights.iter().copied())
        };
        run.iter().map(|&v| label_histogram(row(v), labels, &mut counts)).collect()
    };
    let threads = threads.clamp(1, order.len().div_ceil(MIN_RECOUNT_RUN).max(1));
    let mut runs = order.chunks(order.len().div_ceil(threads).max(1));
    let counted = std::thread::scope(|s| {
        let first = runs.next().unwrap_or_default();
        let spawned: Vec<_> = runs.map(|run| s.spawn(move || count(run))).collect();
        let mut counted = vec![count(first)];
        for handle in spawned {
            counted.push(handle.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        counted
    });
    let mut states: Vec<VertexState> =
        labels.iter().map(|&l| VertexState::new(l, true)).collect();
    for (&v, (hist, degree)) in order.iter().zip(counted.into_iter().flatten()) {
        let state = &mut states[v as usize];
        state.label_weights = hist;
        state.degree = degree;
    }
    states
}

fn edge(_: VertexId, _: VertexId, weight: u8) -> EdgeState {
    EdgeState { weight, neighbor_label: NO_LABEL }
}

/// Reads a [`PartitionResult`] out of a finished engine without consuming
/// it (a streaming session keeps the engine warm for the next window). φ is
/// the last iteration's when the master halted the run, which is exactly
/// φ of the final labels on `graph`, the graph the engine ran on (debug
/// builds check it); after any other halt it is recomputed from them.
pub fn collect(
    cfg: &SpinnerConfig,
    engine: &Engine<SpinnerProgram>,
    summary: &RunSummary,
    graph: &UndirectedGraph,
) -> PartitionResult {
    // Debug builds recount every histogram from the final labels after a
    // clean halt, when every announcement sent has been folded.
    #[cfg(debug_assertions)]
    if matches!(summary.halt, HaltReason::Master | HaltReason::AllHalted) {
        if let Err(e) = crate::program::recount_histograms(engine) {
            panic!("label histograms out of sync with the final labels: {e}");
        }
    }
    let labels: Vec<Label> = engine.collect_values_with(|v| v.label);
    let global = engine.global();
    let loads: Vec<u64> = global.loads.iter().map(|&l| l.max(0) as u64).collect();
    let rho = rho_of(&global.loads, &global.capacities, cfg.c);
    let last = global.history.last();
    // A master halt comes from the scores superstep, whose history entry
    // divides the exact locality sum of the final labels by the total
    // weighted degree: φ itself. Every other halt scores the labels again.
    let phi = match (&summary.halt, last) {
        (HaltReason::Master, Some(last)) => {
            debug_assert_eq!(
                last.phi.to_bits(),
                spinner_metrics::phi(graph, &labels).to_bits(),
                "the last iteration's φ is not the final labels' φ"
            );
            last.phi
        }
        _ => spinner_metrics::phi(graph, &labels),
    };
    let quality = PartitionQuality { phi, rho, score: last.map_or(0.0, |h| h.score), loads };
    PartitionResult {
        labels,
        k: cfg.k,
        quality,
        history: global.history.clone(),
        iterations: global.iteration,
        supersteps: summary.supersteps,
        halted_steady: global.halted_steady,
        totals: summary.totals(),
        wall_ns: summary.wall_ns,
    }
}
