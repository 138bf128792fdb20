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
//! let result = stages::collect(&cfg, &engine, &summary, Some(&graph));
//! assert_eq!(result.labels, partition(&graph, &cfg).labels);
//! ```
//!
//! # Bit-identity contract
//!
//! [`crate::partition`], [`crate::partition_with_placement`],
//! [`crate::adapt`], [`crate::adapt_with_delta`], [`crate::elastic`] and
//! every [`crate::StreamSession`] window (bootstrap, delta, resize, worker
//! loss, transport escalation) are these stages around one
//! [`Engine::run`]. A caller that builds (or warm-resets) an engine here
//! from the same graph, config, placement, labels and affected flags, runs
//! it, and collects it gets the same labels, per-iteration history,
//! iteration and superstep counts and message totals as the driver call,
//! bit for bit; only wall-clock fields differ. A warm reset is
//! interchangeable with a fresh build.

use super::PartitionResult;
use crate::config::SpinnerConfig;
use crate::program::{rho_of, SpinnerProgram};
use crate::state::{EdgeState, Label, Phase, VertexState, NO_LABEL};
use spinner_graph::{UndirectedGraph, VertexId};
use spinner_metrics::PartitionQuality;
use spinner_pregel::engine::{Engine, EngineConfig};
use spinner_pregel::{Placement, RunSummary};

/// The engine settings a run derives from its config.
pub fn engine_config(cfg: &SpinnerConfig) -> EngineConfig {
    EngineConfig {
        num_threads: cfg.num_threads,
        // Two supersteps per iteration plus conversion/init slack.
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

/// [`build_engine`] applied to a finished engine in place: the engine is
/// re-hosted on `placement`, its fabric buffers keep their capacity, and
/// its settings stay those it was built with.
pub fn reset_engine(
    engine: &mut Engine<SpinnerProgram>,
    graph: &UndirectedGraph,
    cfg: &SpinnerConfig,
    placement: &Placement,
    labels: &[Label],
    affected: &[bool],
) {
    engine.warm_reset_undirected(
        program(cfg),
        graph,
        placement,
        |v| (vertex(labels, affected, v), false),
        edge,
    );
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
/// it (a streaming session keeps the engine warm for the next window).
/// With `graph`, φ is recomputed exactly from the labels; without it (the
/// in-engine conversion path, where every vertex stays active) the last
/// iteration's aggregate is kept.
pub fn collect(
    cfg: &SpinnerConfig,
    engine: &Engine<SpinnerProgram>,
    summary: &RunSummary,
    graph: Option<&UndirectedGraph>,
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
    // Loads come from the persistent aggregator, which covers the
    // in-engine conversion path too.
    let loads: Vec<u64> = global.loads.iter().map(|&l| l.max(0) as u64).collect();
    let rho = rho_of(&global.loads, &global.capacities, cfg.c);
    let last = global.history.last();
    // Per-iteration aggregates only cover vertices that computed in that
    // superstep; under `RestartScope::AffectedOnly` most vertices sleep.
    let phi = match graph {
        Some(g) => spinner_metrics::phi(g, &labels),
        None => last.map_or(1.0, |h| h.phi),
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
