//! The repo benchmark's two Spinner workloads at full scale, as counts.
//!
//! `stream_churn`'s session (SBM 60 k in communities of 60, k = 16, 16
//! workers, 1 thread) through 8 `DeltaStream` windows, and
//! `cold_community`'s cold run (k = 32, 16 workers, 2 threads, 32 fixed
//! iterations). Vertex visits are counts, so one run shows what sleeping
//! saves; what a window decides and sends is pinned.

use spinner_core::driver::{random_labels, stages};
use spinner_core::program::SpinnerProgram;
use spinner_core::state::{EdgeState, Phase, VertexState, NO_LABEL};
use spinner_core::{partition, SpinnerConfig, StreamEvent, StreamSession};
use spinner_graph::conversion::from_undirected_edges;
use spinner_graph::generators::{planted_partition, SbmConfig};
use spinner_graph::{DeltaStream, DeltaStreamConfig, DirectedGraph};
use spinner_pregel::engine::Engine;

const SEED: u64 = 11;

fn community(n: u32) -> DirectedGraph {
    planted_partition(SbmConfig {
        n,
        communities: n / 60,
        internal_degree: 40.0,
        external_degree: 16.0,
        skew: None,
        seed: SEED,
    })
}

/// FNV-1a over 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Each delta window visits at most one vertex in eight per superstep,
/// and sends, steps and decides exactly what it did when every vertex
/// was visited in every superstep.
#[test]
#[ignore = "benchmark scale; run in release"]
fn stream_churn_windows_visit_an_eighth_of_the_graph() {
    let base = community(60_000);
    let deltas: Vec<_> = DeltaStream::new(
        base.clone(),
        DeltaStreamConfig { windows: 8, seed: SEED, ..DeltaStreamConfig::default() },
    )
    .collect();
    let mut cfg = SpinnerConfig::new(16).with_seed(SEED);
    cfg.num_workers = 16;
    cfg.num_threads = 1;
    let mut session = StreamSession::new(base, cfg);
    let mut steps = Vec::new();
    for delta in deltas {
        let w = session.apply(StreamEvent::Delta(delta)).clone();
        let n = u64::from(w.num_vertices());
        println!(
            "window {}: supersteps {} messages {} computed {} ({:.4} of n x supersteps)",
            w.window(),
            w.supersteps(),
            w.messages(),
            w.computed(),
            w.active_fraction()
        );
        assert!(
            w.computed() * 8 <= n * w.supersteps(),
            "window {} computed {} of {} x {}",
            w.window(),
            w.computed(),
            n,
            w.supersteps()
        );
        // The window's φ is its last iteration's: the final labels' φ.
        let phi = spinner_metrics::phi(session.undirected(), session.labels());
        assert_eq!(session.last().phi().to_bits(), phi.to_bits(), "window {} φ", w.window());
        let labels = digest(session.labels().iter().map(|&l| u64::from(l)));
        steps.push((w.supersteps(), w.messages(), labels));
    }
    assert_eq!(steps, PINNED_WINDOWS);
}

/// Supersteps, messages and a digest of the labels after each window, as
/// every vertex visited in every superstep gave them.
const PINNED_WINDOWS: [(u64, u64, u64); 8] = [
    (13, 337, 0xfe77_9b38_c75d_e303),
    (13, 332, 0x5f73_90f8_18ef_51e7),
    (13, 495, 0xb912_e088_47e6_34e4),
    (13, 609, 0xf628_f413_60ec_f5c7),
    (13, 726, 0xa9c7_3c57_9b6f_c94a),
    (13, 808, 0x8caf_e6a0_b6c6_9226),
    (13, 867, 0xcaac_ae7b_d184_ab66),
    (13, 972, 0x09da_a8b1_7463_5823),
];

/// The cold 32-iteration run decides what it did when every vertex was
/// visited in every superstep, in fewer visits. It starts seeded; the
/// reference `Initialize` start, built as the benchmark's cold replica
/// builds it, decides the same in exactly one superstep and one
/// announcement per adjacency entry more, and the digest pins the
/// reference's counts.
#[test]
#[ignore = "benchmark scale; run in release"]
fn cold_community_run_keeps_its_digest() {
    let g = from_undirected_edges(&community(60_000));
    let mut cfg = SpinnerConfig::new(32).with_seed(SEED);
    cfg.num_workers = 16;
    cfg.num_threads = 2;
    cfg.max_iterations = 32;
    cfg.ignore_halting = true;
    let r = partition(&g, &cfg);
    let n = g.num_vertices();
    let initial = random_labels(n, cfg.k, cfg.seed);
    let mut engine = Engine::from_undirected(
        SpinnerProgram { cfg: cfg.clone(), start_phase: Phase::Initialize },
        &g,
        &stages::placement(n, &cfg),
        stages::engine_config(&cfg),
        |v| VertexState::new(initial[v as usize], true),
        |_, _, w| EdgeState { weight: w, neighbor_label: NO_LABEL },
    );
    let summary = engine.run();
    let reference = stages::collect(&cfg, &engine, &summary, &g);
    drop(engine);
    assert_eq!(r.labels, reference.labels);
    assert_eq!(r.history, reference.history);
    assert_eq!(r.iterations, reference.iterations);
    assert_eq!(r.supersteps + 1, reference.supersteps);
    let round = g.num_adjacency_entries();
    assert_eq!(r.totals.messages + round, reference.totals.messages);
    let history =
        r.history.iter().flat_map(|h| [h.phi.to_bits(), h.rho.to_bits(), h.migrations]);
    let got = digest(r.labels.iter().map(|&l| u64::from(l)).chain(history).chain([
        u64::from(r.iterations),
        reference.supersteps,
        reference.totals.messages,
    ]));
    assert_eq!(got, 0xc944_9558_d39d_0c56);
    // Every vertex in every superstep, before sleeping: 60 000 x 65.
    assert!(r.totals.computed < 60_000 * 65, "computed {}", r.totals.computed);
}
