//! Scheduler invariance: *how* supersteps are executed — any worker × thread
//! grid of the work-stealing pool, dense vertex scans vs the incremental
//! active list — is pure plumbing. With the §IV-A4 asynchronous load view
//! disabled, every combination must produce bit-identical labels **and**
//! history (φ/ρ/score per iteration, compared by raw f64 bits), plus
//! identical `computed` counts: the active list is by construction exactly
//! the visit set of the dense scan (dense computes `i` iff `!halted[i]`,
//! and delivery wakes every halted recipient before the next compute).
//!
//! This is what lets the engine default to work-stealing + active-set
//! scheduling without a correctness trade: determinism comes from merging
//! all per-worker partials engine-side in worker order, never from which
//! thread happened to run a worker.

use proptest::prelude::*;
use spinner_core::{
    partition_with_placement, PartitionResult, SpinnerConfig, StreamEvent, StreamSession,
    WindowReport,
};
use spinner_graph::conversion::to_weighted_undirected;
use spinner_graph::generators::{barabasi_albert, planted_partition, SbmConfig};
use spinner_graph::{DeltaStream, DeltaStreamConfig, UndirectedGraph};
use spinner_pregel::Placement;

fn community_graph(n: u32, communities: u32, seed: u64) -> UndirectedGraph {
    to_weighted_undirected(&planted_partition(SbmConfig {
        n,
        communities,
        internal_degree: 7.0,
        external_degree: 1.5,
        skew: None,
        seed,
    }))
}

fn sync_cfg(k: u32, num_threads: usize) -> SpinnerConfig {
    let mut cfg = SpinnerConfig::new(k).with_seed(5);
    cfg.num_threads = num_threads;
    cfg.max_iterations = 25;
    cfg.async_worker_loads = false;
    cfg
}

/// Everything that must match bit-for-bit, including the computed-vertex
/// total: an active list that visited a different set than the dense scan
/// would show up here even if it happened to converge to the same labels.
fn digest(r: &PartitionResult) -> (&[u32], &[spinner_core::IterationStats], u32, u64, u64) {
    (&r.labels, &r.history, r.iterations, r.supersteps, r.totals.computed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random community graphs: one serial dense reference per case; every
    /// grid × scan-mode combination must match it.
    #[test]
    fn any_scheduler_yields_identical_labels_and_history(
        graph_seed in 0u64..1000,
        k in 3u32..7,
    ) {
        let g = community_graph(500, k, graph_seed);
        let mut ref_cfg = sync_cfg(k, 1);
        ref_cfg.dense_scan = true;
        let reference =
            partition_with_placement(&g, &ref_cfg, &Placement::contiguous(500, 1));
        prop_assert!(reference.iterations > 0);
        for &(workers, threads) in &[(3usize, 2usize), (5, 4), (8, 3)] {
            for dense in [false, true] {
                let mut cfg = sync_cfg(k, threads);
                cfg.dense_scan = dense;
                let p = Placement::hashed(500, workers, 11);
                let r = partition_with_placement(&g, &cfg, &p);
                prop_assert_eq!(
                    digest(&r),
                    digest(&reference),
                    "diverged: dense={} workers={} threads={}",
                    dense, workers, threads
                );
            }
        }
    }
}

/// Deterministic anchor at a larger size with a hub-skewed placement — the
/// shape work-stealing exists for (contiguous placement parks the heavy
/// low-id hubs of a preferential-attachment graph on worker 0).
#[test]
fn scheduler_grid_anchor_on_skewed_hubs() {
    let g = to_weighted_undirected(&barabasi_albert(2000, 8, 7));
    let mut ref_cfg = sync_cfg(6, 1);
    ref_cfg.dense_scan = true;
    let reference = partition_with_placement(&g, &ref_cfg, &Placement::contiguous(2000, 1));
    assert!(reference.iterations > 0);
    assert_eq!(
        (reference.quality.phi, reference.quality.rho),
        (0.36125031320471057, 1.0647707341518415)
    );
    for &(workers, threads) in &[(8usize, 4usize), (16, 8), (7, 3)] {
        let cfg = sync_cfg(6, threads);
        let p = Placement::contiguous(2000, workers);
        let r = partition_with_placement(&g, &cfg, &p);
        assert_eq!(
            digest(&r),
            digest(&reference),
            "diverged: workers={workers} threads={threads}"
        );
    }
}

/// The per-window digest for the streaming arms — everything the report
/// carries except wall time, including the computed-vertex count the
/// active-set scheduler could get wrong.
fn window_digest(w: &WindowReport) -> (u32, f64, f64, f64, u32, u64, u64, u64, u64, u64, u64) {
    (
        w.window(),
        w.phi(),
        w.rho(),
        w.migration_fraction(),
        w.iterations(),
        w.supersteps(),
        w.messages(),
        w.sent_local(),
        w.sent_remote(),
        w.placement_moved(),
        w.computed(),
    )
}

fn stream_cfg(k: u32, dense_scan: bool) -> SpinnerConfig {
    let mut cfg = SpinnerConfig::new(k).with_seed(7);
    cfg.num_workers = 4;
    cfg.num_threads = 2;
    cfg.max_iterations = 30;
    cfg.async_worker_loads = false;
    cfg.dense_scan = dense_scan;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random delta streams: the active-set arm must be bit-identical to the
    /// dense-scan arm window by window — same labels, same quality bits,
    /// same computed counts — while sleeping keeps delta windows from
    /// re-running the full graph.
    #[test]
    fn active_set_stream_matches_dense_scan_stream(
        graph_seed in 0u64..1000,
        stream_seed in 0u64..1000,
        k in 4u32..8,
    ) {
        let base = barabasi_albert(1000, 6, graph_seed);
        let deltas: Vec<_> = DeltaStream::new(
            base.clone(),
            DeltaStreamConfig {
                windows: 3,
                hub_bias: 0.5,
                seed: stream_seed,
                ..DeltaStreamConfig::default()
            },
        )
        .collect();

        let mut dense = StreamSession::new(base.clone(), stream_cfg(k, true));
        let mut active = StreamSession::new(base, stream_cfg(k, false));
        for delta in deltas {
            dense.apply(StreamEvent::Delta(delta.clone()));
            active.apply(StreamEvent::Delta(delta));
        }

        prop_assert_eq!(dense.labels(), active.labels(), "labels diverged across scan modes");
        for (d, a) in dense.windows().iter().zip(active.windows()) {
            prop_assert_eq!(
                window_digest(d),
                window_digest(a),
                "window {} diverged across scan modes",
                d.window()
            );
            // A vertex whose score margin holds sleeps after the window's
            // first scores superstep, so neither arm re-computes the full
            // vertex set every superstep.
            if d.window() >= 2 {
                prop_assert!(
                    d.active_fraction() < 1.0,
                    "window {} recomputed everything (active fraction {})",
                    d.window(),
                    d.active_fraction()
                );
            }
        }
    }
}
