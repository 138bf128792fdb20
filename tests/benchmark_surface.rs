//! Pins the repo surface `benchmark/src/*.rs` builds against (ROADMAP 0c).
//!
//! The benchmark is a separate cargo package that tier-1 never compiles, so
//! a rename or a changed field there would only show as a failed benchmark
//! run. Every repo item the benchmark imports is used here in the shape the
//! benchmark uses it — struct literals with all their fields, the same call
//! chains, return types spelled out — so tier-1 breaks first. When this file
//! has to change, `benchmark/` has to change with it. The `driver::stages`
//! case pins the facade the benchmark's cold replica is to be built on
//! instead of those literals.

use std::path::PathBuf;

use spinner_core::driver::{random_labels, stages};
use spinner_core::program::SpinnerProgram;
use spinner_core::state::{EdgeState, Phase, VertexState, NO_LABEL};
use spinner_core::{
    partition, Label, PartitionResult, SpinnerConfig, StreamEvent, StreamSession, WindowReport,
};
use spinner_graph::conversion::{from_undirected_edges, to_weighted_undirected};
use spinner_graph::generators::{planted_partition, rmat, RmatConfig, SbmConfig};
use spinner_graph::mutation::apply_delta;
use spinner_graph::rng::SplitMix64;
use spinner_graph::{
    DeltaStream, DeltaStreamConfig, DirectedGraph, GraphDelta, UndirectedGraph,
};
use spinner_metrics::PartitionQuality;
use spinner_pregel::engine::{Engine, EngineConfig};
use spinner_pregel::metrics::RunTotals;
use spinner_pregel::wire::{decode_frame, encode_frame};
use spinner_pregel::{Placement, RunSummary, TransportKind, WireFormat, WireRecord, WorkerId};
use spinner_serving::{
    encode_state, Health, Lookup, RoutingReader, RoutingTable, ServingNode, SessionStore,
    WalRecord,
};

/// The benchmark's community graph at a test-sized scale.
fn community(n: u32, seed: u64) -> DirectedGraph {
    planted_partition(SbmConfig {
        n,
        communities: n / 60,
        internal_degree: 40.0,
        external_degree: 16.0,
        skew: None,
        seed,
    })
}

fn cold_config(transport: TransportKind) -> SpinnerConfig {
    let mut cfg = SpinnerConfig::new(4).with_transport(transport);
    cfg.num_workers = 4;
    cfg.num_threads = 1;
    cfg.max_iterations = 4;
    cfg.ignore_halting = true;
    cfg.seed = 7;
    cfg
}

/// `benchmark/src/cold.rs::engine_config`: the 12-field literal.
fn engine_config(cfg: &SpinnerConfig) -> EngineConfig {
    EngineConfig {
        num_threads: cfg.num_threads,
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
        transport_faults: None,
    }
}

/// `benchmark/src/cold.rs::partition_replica`: `partition` re-assembled.
fn partition_replica(
    graph: &UndirectedGraph,
    cfg: &SpinnerConfig,
) -> (Vec<Label>, PartitionQuality, RunSummary, u32) {
    let n = graph.num_vertices();
    let initial: Vec<Label> = random_labels(n, cfg.k, cfg.seed);
    let placement = Placement::hashed(n, cfg.num_workers, cfg.seed ^ 0x70C);
    let mut engine = Engine::from_undirected(
        SpinnerProgram { cfg: cfg.clone(), start_phase: Phase::Initialize },
        graph,
        &placement,
        engine_config(cfg),
        |v| VertexState::new(initial[v as usize], true),
        |_, _, w| EdgeState { weight: w, neighbor_label: NO_LABEL },
    );
    let summary: RunSummary = engine.run();
    let labels: Vec<Label> = engine.collect_values().into_iter().map(|v| v.label).collect();
    let quality = spinner_metrics::quality(graph, &labels, cfg.k, cfg.c);
    let iterations: u32 = engine.global().iteration;
    (labels, quality, summary, iterations)
}

#[test]
fn cold_replica_matches_partition_on_both_transports() {
    let community = from_undirected_edges(&community(600, 3));
    let skewed = to_weighted_undirected(&rmat(RmatConfig::graph500(8, 24, 3)));
    for (graph, transport) in
        [(&community, TransportKind::Direct), (&skewed, TransportKind::Ring)]
    {
        let cfg = cold_config(transport);
        let mono = partition(graph, &cfg);
        let (labels, quality, summary, iterations) = partition_replica(graph, &cfg);
        assert_eq!(labels, mono.labels, "{transport:?}: replica labels");
        assert_eq!(iterations, mono.iterations);
        let (phi, rho): (f64, f64) = (quality.phi, quality.rho);
        assert!(phi > 0.0 && rho >= 1.0);

        // The per-superstep fields and totals `EngineSeries::add` reads.
        let t = summary.totals();
        let walls: Vec<f64> = summary.metrics.iter().map(|s| s.wall_ns as f64).collect();
        let compute: u64 = summary
            .metrics
            .iter()
            .flat_map(|s| s.per_worker.iter().map(|w| w.compute_ns))
            .sum();
        let reallocs: u64 = summary
            .metrics
            .iter()
            .flat_map(|s| s.per_worker.iter().map(|w| w.fabric_reallocs))
            .sum();
        assert_eq!(walls.len() as u64, summary.supersteps);
        assert!(compute > 0 && t.computed > 0 && t.messages >= t.remote_messages);
        let _: [u64; 6] = [
            t.remote_records,
            t.wire_bytes,
            t.wire_frames,
            t.wire_folded,
            t.retransmits,
            reallocs,
        ];
        let _: f64 = t.wire_bytes_per_remote_message();
    }
}

/// The counts of a run's totals (everything but wall-clock time).
fn counts(t: &RunTotals) -> [u64; 9] {
    [
        t.messages,
        t.remote_messages,
        t.remote_records,
        t.local_records,
        t.computed,
        t.wire_bytes,
        t.wire_frames,
        t.wire_folded,
        t.retransmits,
    ]
}

/// The cold replica built through `driver::stages`, the surface the
/// benchmark is to move to: no config mapping, placement salt, program or
/// state literal of its own.
#[test]
fn stages_replica_matches_partition_on_both_transports() {
    let community = from_undirected_edges(&community(600, 3));
    let skewed = to_weighted_undirected(&rmat(RmatConfig::graph500(8, 24, 3)));
    for (graph, transport) in
        [(&community, TransportKind::Direct), (&skewed, TransportKind::Ring)]
    {
        let cfg = cold_config(transport);
        let mono = partition(graph, &cfg);
        let n = graph.num_vertices();
        let initial: Vec<Label> = random_labels(n, cfg.k, cfg.seed);
        let placement: Placement = stages::placement(n, &cfg);
        let mut engine = stages::build_engine(graph, &cfg, &placement, &initial, &[]);
        let summary: RunSummary = engine.run();
        let replica: PartitionResult = stages::collect(&cfg, &engine, &summary, graph);
        assert_eq!(replica.labels, mono.labels, "{transport:?}: stages labels");
        assert_eq!(replica.iterations, mono.iterations);
        assert_eq!(counts(&replica.totals), counts(&mono.totals), "{transport:?}: totals");
    }
}

#[test]
fn wire_codec_round_trips_the_benchmarks_frame() {
    let batch: Vec<WireRecord<(u32, u32)>> = (0..64u32)
        .map(|i| WireRecord { broadcast: true, id: u64::from(i * 3), msg: (i * 3, i % 4) })
        .collect();
    let buf: Vec<u8> = encode_frame(WireFormat::Compact, &batch, 0, Vec::new());
    let (mut ids, mut decoded) = (Vec::new(), Vec::new());
    decode_frame::<(u32, u32)>(&buf, &mut ids, &mut decoded).expect("round trip");
    assert_eq!(decoded, batch);
}

/// `benchmark/src/stream.rs::build_session`.
fn build_session(n: u32, windows: usize, seed: u64) -> (StreamSession, Vec<GraphDelta>) {
    let base = community(n, seed);
    let cfg =
        DeltaStreamConfig { windows: windows as u32, seed, ..DeltaStreamConfig::default() };
    let deltas: Vec<GraphDelta> = DeltaStream::new(base.clone(), cfg).collect();
    let mut cfg = SpinnerConfig::new(4).with_seed(seed);
    cfg.num_workers = 4;
    cfg.num_threads = 1;
    (StreamSession::new(base, cfg), deltas)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("spinner-surface-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn ingest_and_its_replica_agree_and_resume() {
    let (dir, replica_dir) = (fresh_dir("node"), fresh_dir("replica"));
    let (session, deltas) = build_session(600, 2, 5);
    let mut node = ServingNode::with_persistence(session, &dir).expect("store");

    // The replica: `state → apply → state → WalRecord::diff →
    // SessionStore::append → publish_at`, from the node's state.
    let state = node.session().state();
    let mut replica = StreamSession::from_state(state.clone());
    let mut store = SessionStore::create(&replica_dir, &state).expect("replica store");
    let mut table = RoutingTable::with_capacity(replica.placement().num_vertices());
    table.publish_at(replica.windows().len() as u64, replica.placement().as_slice());
    let reallocs: u64 = table.reallocs();

    let mut events: Vec<StreamEvent> = deltas.into_iter().map(StreamEvent::Delta).collect();
    events.push(StreamEvent::Resize { k: 6 });
    for event in events {
        if let StreamEvent::Delta(delta) = &event {
            let graph: &DirectedGraph = replica.graph();
            let _: UndirectedGraph = from_undirected_edges(&apply_delta(graph, delta));
        }
        let reader = node.reader();
        let r = node.ingest(event.clone()).expect("ingest");
        assert_eq!(r.health(), Health::Healthy);
        let _: u32 = r.persist_retries();
        assert!(
            reader.head() == r.epoch()
                && reader.lookup(0).is_some_and(|l| l.epoch() == r.epoch())
        );

        let before = replica.state();
        let report: WindowReport = replica.apply(event.clone()).clone();
        let after = replica.state();
        let record = WalRecord::diff(&before, &after, event);
        let bytes: u64 = store.append(&record).expect("append");
        assert!(bytes > 0 && !record.encode_framed().is_empty());
        table.publish_at(replica.windows().len() as u64, replica.placement().as_slice());
        assert_eq!(replica.labels(), node.session().labels());

        let _: [f64; 4] =
            [report.phi(), report.rho(), report.migration_fraction(), report.active_fraction()];
        let _: [u64; 7] = [
            report.wall_ns(),
            report.supersteps(),
            report.computed(),
            report.messages(),
            report.sent_remote(),
            report.sent_remote_records(),
            report.fabric_reallocs(),
        ];
    }
    assert_eq!(table.reallocs(), reallocs);
    let session = node.session();
    assert!(session.labels().iter().all(|&l| l < session.k()));
    assert!(session.last().rho() >= 1.0 && session.last().phi() > 0.0);
    let _: (u32, u64) = (session.undirected().num_vertices(), session.undirected().num_edges());

    let state = replica.state();
    assert!(!encode_state(&state).is_empty());
    store.compact(&state).expect("compact");
    let (state, _, _) = SessionStore::load(&replica_dir).expect("replica resume");
    assert_eq!(StreamSession::from_state(state).labels(), node.session().labels());

    node.compact().expect("node compact");
    let (resumed, _) = ServingNode::resume_from(&dir).expect("node resume");
    assert_eq!(resumed.session().placement().as_slice(), node.session().placement().as_slice());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

#[test]
fn serve_lookup_surface() {
    let entries: usize = 3 * 4096 + 5;
    let arrays: Vec<Vec<WorkerId>> =
        (0..4u16).map(|e| (0..entries).map(|v| (v as u16 ^ e) % 16).collect()).collect();
    let mut table = RoutingTable::with_capacity(entries as u32);
    table.publish_at(1, &arrays[1]);
    let reader: RoutingReader = table.reader();
    let at_start = table.reallocs();

    let mut rng = SplitMix64::new(0x1D5);
    for epoch in 2..6u64 {
        table.publish_at(epoch, &arrays[epoch as usize % 4]);
        let head_before: u64 = reader.head();
        for _ in 0..64 {
            let id = rng.next_bounded(entries as u64) as u32;
            let hit: Lookup = reader.lookup(id).expect("published");
            let (worker, at): (WorkerId, u64) = (hit.worker(), hit.epoch());
            assert!(at >= head_before);
            assert_eq!(arrays[at as usize % 4][id as usize], worker);
        }
    }
    assert_eq!(table.head(), 5);
    let _: u64 = table.retries();
    assert_eq!(table.reallocs(), at_start);
}
