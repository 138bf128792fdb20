//! The stages every Spinner run on an undirected graph is made of.
//!
//! Spinner is one Pregel vertex program; its runs differ only in the labels
//! they start from (random §III-A, incremental §III-D, elastic §III-E, or
//! reseeded after a worker loss). Everything else — the engine settings,
//! the default placement, the program and its start phase, the vertex and
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
//! let mut engine = stages::build_engine(&graph, &cfg, &placement, &labels, &[]);
//! let summary = engine.run();
//! let result = stages::collect(&cfg, &engine, &summary, &graph);
//! assert_eq!(result.labels, partition(&graph, &cfg).labels);
//! ```
//!
//! # Bit-identity contract
//!
//! [`crate::partition`], [`crate::partition_with_placement`],
//! [`crate::adapt`], [`crate::adapt_with_delta`], [`crate::elastic`] and
//! every [`crate::StreamSession`] window (bootstrap, delta, resize, worker
//! loss, transport escalation) are these stages around one
//! [`Engine::run`]. A caller that builds an engine here from the same
//! graph, config, placement, labels and affected flags, runs it, and
//! collects it gets the same labels, per-iteration history, iteration and
//! superstep counts and message totals as the driver call, bit for bit;
//! only wall-clock fields differ.
//!
//! A warm window instead re-hosts a finished engine with [`warm_reset`],
//! seeded with every vertex's degree and label histogram and with the
//! partition loads, so it starts at `ComputeScores`: it runs one superstep
//! fewer than the driver call and sends none of the `Initialize`
//! announcements. Its labels, per-iteration history, iteration count and
//! `halted_steady` flag still match the driver bit for bit; only its
//! superstep count, its message, record, wire and `computed` totals, and
//! wall-clock fields are lower.
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
use spinner_pregel::{AggValue, Placement, RunSummary};

/// The engine settings a run derives from its config.
pub fn engine_config(cfg: &SpinnerConfig) -> EngineConfig {
    EngineConfig {
        num_threads: cfg.num_threads,
        // Two supersteps per iteration, plus Initialize and slack.
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

/// Builds an engine that starts Spinner at the `Initialize` phase from
/// `labels` (one per vertex). `affected` marks the vertices that restart
/// migrations under [`crate::config::RestartScope::AffectedOnly`]; an
/// empty slice marks every vertex affected.
pub fn build_engine(
    graph: &UndirectedGraph,
    cfg: &SpinnerConfig,
    placement: &Placement,
    labels: &[Label],
    affected: &[bool],
) -> Engine<SpinnerProgram> {
    Engine::from_undirected(
        program(cfg),
        graph,
        placement,
        engine_config(cfg),
        |v| vertex(labels, affected, v),
        edge,
    )
}

/// Re-hosts a finished engine for a warm window that starts at
/// `ComputeScores`: `states` (one per vertex, in global-id order) carry each
/// vertex's label, weighted degree and label histogram exactly as the
/// `Initialize` superstep and the first histogram fold would have left them
/// for this graph, and the partition loads are summed from them into both
/// the persistent loads aggregator and the master's state. The engine moves
/// onto `placement`, its fabric buffers keep their capacity, its settings
/// stay those it was built with, and every histogram's heap buffer stays
/// where `states` allocated it.
///
/// `changed` lists the unordered vertex pairs whose edge differs between
/// `graph` and the graph the engine last ran on (empty when it is the same
/// graph). The engine patches its loaded topology by them, or reloads
/// `graph` when a vertex moved or the vertex set shrank (see
/// [`Engine::warm_patch_undirected`]).
///
/// `affected` marks the vertices that restart migrations under
/// [`crate::config::RestartScope::AffectedOnly`] (empty marks every vertex);
/// with `park_unaffected` the others also start halted, so only a message
/// wakes them (frontier windows). Debug builds first check the states
/// against `graph`: every degree, and the mass law
/// Σ_v hist_v\[l\] = Σ_{u : label(u) = l} deg_w(u) for every label.
#[allow(clippy::too_many_arguments)]
pub fn warm_reset(
    engine: &mut Engine<SpinnerProgram>,
    graph: &UndirectedGraph,
    changed: &[(VertexId, VertexId)],
    cfg: &SpinnerConfig,
    placement: &Placement,
    mut states: Vec<VertexState>,
    affected: &[bool],
    park_unaffected: bool,
) {
    assert_eq!(states.len(), graph.num_vertices() as usize, "one vertex state per vertex");
    #[cfg(debug_assertions)]
    if let Err(e) = crate::program::check_mass_law(graph, &states) {
        panic!("seeded label histograms out of sync with the graph: {e}");
    }
    let mut loads = vec![0i64; cfg.k as usize];
    for s in &states {
        loads[s.label as usize] += load_of(cfg.objective, s.degree) as i64;
    }
    engine.warm_patch_undirected(
        SpinnerProgram { cfg: cfg.clone(), start_phase: Phase::ComputeScores },
        graph,
        placement,
        changed,
        |v| {
            let v = v as usize;
            let mut state = std::mem::replace(&mut states[v], VertexState::new(0, false));
            state.candidate = NO_LABEL;
            state.counted = NOT_COUNTED;
            state.affected = affected.get(v).copied().unwrap_or(true);
            let parked = park_unaffected && !state.affected;
            (state, parked)
        },
        edge,
    );
    // The migration phase folds load deltas into the *persistent* loads
    // aggregator, so its snapshot is seeded alongside the master's state.
    engine.set_aggregate(AGG_LOADS, AggValue::VecI64(loads.clone()));
    engine.set_global(seeded_global(cfg, loads));
}

/// Every vertex's state for a warm window starting from `labels`: the label,
/// the weighted degree and the label histogram counted from `graph`. The
/// histograms are allocated in the order the engine hosted on `placement`
/// visits its vertices — by worker, then ascending id — so a scores
/// superstep walks them through memory front to back.
pub fn recount_states(
    graph: &UndirectedGraph,
    placement: &Placement,
    labels: &[Label],
) -> Vec<VertexState> {
    assert_eq!(labels.len(), graph.num_vertices() as usize, "one label per vertex");
    let mut states: Vec<VertexState> =
        labels.iter().map(|&l| VertexState::new(l, true)).collect();
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
    let mut counts = Vec::new();
    for v in order {
        let (targets, weights) = graph.neighbors(v);
        let neighbours = targets.iter().copied().zip(weights.iter().copied());
        let (hist, degree) = label_histogram(neighbours, labels, &mut counts);
        let state = &mut states[v as usize];
        state.label_weights = hist;
        state.degree = degree;
    }
    states
}

fn program(cfg: &SpinnerConfig) -> SpinnerProgram {
    SpinnerProgram { cfg: cfg.clone(), start_phase: Phase::Initialize }
}

fn vertex(labels: &[Label], affected: &[bool], v: VertexId) -> VertexState {
    VertexState::new(labels[v as usize], affected.get(v as usize).copied().unwrap_or(true))
}

fn edge(_: VertexId, _: VertexId, weight: u8) -> EdgeState {
    EdgeState { weight, neighbor_label: NO_LABEL }
}

/// Reads a [`PartitionResult`] out of a finished engine without consuming
/// it (a streaming session keeps the engine warm for the next window). φ is
/// recomputed exactly from the final labels on `graph`, the graph the
/// engine ran on.
pub fn collect(
    cfg: &SpinnerConfig,
    engine: &Engine<SpinnerProgram>,
    summary: &RunSummary,
    graph: &UndirectedGraph,
) -> PartitionResult {
    // Debug builds recount every histogram from the final labels after a
    // clean halt, when every announcement sent has been folded.
    #[cfg(debug_assertions)]
    if matches!(
        summary.halt,
        spinner_pregel::HaltReason::Master | spinner_pregel::HaltReason::AllHalted
    ) {
        if let Err(e) = crate::program::recount_histograms(engine) {
            panic!("label histograms out of sync with the final labels: {e}");
        }
    }
    let labels: Vec<Label> = engine.collect_values_with(|v| v.label);
    let global = engine.global();
    let loads: Vec<u64> = global.loads.iter().map(|&l| l.max(0) as u64).collect();
    let rho = rho_of(&global.loads, &global.capacities, cfg.c);
    let last = global.history.last();
    // Per-iteration aggregates only cover vertices that computed in that
    // superstep; under `RestartScope::AffectedOnly` most vertices sleep.
    let phi = spinner_metrics::phi(graph, &labels);
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
