//! Broadcast-lane equivalence on streaming Spinner workloads: a
//! [`StreamSession`] running with the deduplicating broadcast fabric must
//! be **bit-identical** — labels, φ/ρ bits, iteration counts, logical
//! message totals — to the per-edge unicast arm, across hub-biased delta
//! windows that exercise the fan-out index through every lifecycle the
//! engine offers: the cold build and `warm_reset_undirected` after each
//! delta, including the reset onto the by-label placement that
//! label-driven placement feedback installs mid-stream. The only permitted
//! difference is the physical record traffic, which the broadcast arm must
//! strictly shrink on hub-heavy graphs. The same stream over the serialising Ring
//! transport must match the direct path too, with only the framed bytes
//! differing.

use proptest::prelude::*;
use spinner_core::{SpinnerConfig, StreamEvent, StreamSession, WindowReport};
use spinner_graph::generators::barabasi_albert;
use spinner_graph::{DeltaStream, DeltaStreamConfig, DirectedGraph, GraphDelta};
use spinner_pregel::{TransportKind, WireFormat};

/// Preferential-attachment base: the hub-heavy regime the dedup targets
/// (a hub with `d` neighbours over `L` workers costs `d` unicast records
/// but at most `L` broadcast records).
fn hub_graph(n: u32, seed: u64) -> DirectedGraph {
    barabasi_albert(n, 8, seed)
}

fn cfg(k: u32, seed: u64, broadcast: bool) -> SpinnerConfig {
    let mut cfg = SpinnerConfig::new(k).with_seed(seed);
    cfg.num_workers = 4;
    cfg.num_threads = 2;
    cfg.max_iterations = 30;
    cfg.broadcast_fabric = broadcast;
    // Feedback re-places vertices by computed label once the remote share
    // crosses 0.5 — on a 4-worker hash placement the bootstrap window
    // always does, so every stream's first delta window resets the engine
    // onto the by-label layout, with the fan-out index rebuilt there.
    cfg.placement_feedback = Some(0.5);
    cfg
}

/// The per-window digest that must match across the two lanes (everything
/// except the physical record counts; f64 fields compare by bits via
/// `PartialEq`, and none are NaN by construction).
fn digest(w: &WindowReport) -> (u32, f64, f64, f64, u32, u64, u64, u64, u64, u64) {
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
    )
}

/// Three hub-biased delta windows over `base`.
fn hub_deltas(base: &DirectedGraph, seed: u64) -> Vec<GraphDelta> {
    DeltaStream::new(
        base.clone(),
        DeltaStreamConfig {
            windows: 3,
            add_fraction: 0.02,
            remove_fraction: 0.005,
            vertex_fraction: 0.004,
            attach_degree: 4,
            triadic_fraction: 0.5,
            hub_bias: 1.0,
            seed,
        },
    )
    .collect()
}

fn run_arms(graph_seed: u64, stream_seed: u64, k: u32) {
    let base = hub_graph(1200, graph_seed);
    let deltas = hub_deltas(&base, stream_seed);

    let mut unicast = StreamSession::new(base.clone(), cfg(k, 7, false));
    let mut broadcast = StreamSession::new(base, cfg(k, 7, true));
    for delta in deltas {
        unicast.apply(StreamEvent::Delta(delta.clone()));
        broadcast.apply(StreamEvent::Delta(delta));
    }

    assert_eq!(unicast.labels(), broadcast.labels(), "labels diverged across lanes");
    // The feedback re-place must actually have fired, so the broadcast
    // index was demonstrably rebuilt on a new layout.
    assert!(broadcast.windows()[0].placement_moved() > 0, "feedback never re-placed");
    let mut remote_unicast = 0u64;
    let mut remote_broadcast = 0u64;
    for (u, b) in unicast.windows().iter().zip(broadcast.windows()) {
        assert_eq!(digest(u), digest(b), "window {} diverged across lanes", u.window());
        // Unicast is the identity arm: records == logical messages.
        assert_eq!(u.sent_remote_records(), u.sent_remote());
        assert_eq!(u.sent_local_records(), u.sent_local());
        // Broadcast never ships more than unicast would.
        assert!(b.sent_remote_records() <= u.sent_remote_records());
        assert!(b.sent_local_records() <= u.sent_local_records());
        remote_unicast += u.sent_remote_records();
        remote_broadcast += b.sent_remote_records();
        // Warm resets keep both arms allocation-free once
        // capacities have warmed up.
        if u.window() >= 2 {
            assert_eq!(u.fabric_reallocs(), 0, "unicast window {} grew", u.window());
            assert_eq!(b.fabric_reallocs(), 0, "broadcast window {} grew", b.window());
        }
    }
    assert!(
        remote_broadcast < remote_unicast,
        "no dedup on a hub graph: {remote_broadcast} vs {remote_unicast}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random hub-biased streams: the broadcast arm matches the unicast arm
    /// bit-for-bit through the cold build and warm resets, including the
    /// reset onto the feedback's by-label placement, while shipping fewer
    /// records.
    #[test]
    fn broadcast_stream_matches_unicast_stream(
        graph_seed in 0u64..1000,
        stream_seed in 0u64..1000,
        k in 4u32..9,
    ) {
        run_arms(graph_seed, stream_seed, k);
    }
}

/// Deterministic anchor: on a preferential-attachment graph over 4 workers
/// the whole-stream dedup ratio (logical remote deliveries per grid
/// record) must be substantial, not marginal — the hub mass dominates the
/// announcement traffic.
#[test]
fn hub_stream_dedup_ratio_is_substantial() {
    let base = hub_graph(2000, 0xB0A);
    let mut session = StreamSession::new(base, cfg(8, 11, true));
    let deltas: Vec<_> = DeltaStream::new(
        session.graph().clone(),
        DeltaStreamConfig {
            windows: 2,
            hub_bias: 1.0,
            seed: 3,
            ..DeltaStreamConfig::default()
        },
    )
    .collect();
    for delta in deltas {
        session.apply(StreamEvent::Delta(delta));
    }
    let (logical, records) = session
        .windows()
        .iter()
        .fold((0u64, 0u64), |(l, r), w| (l + w.sent_remote(), r + w.sent_remote_records()));
    assert!(records > 0);
    let ratio = logical as f64 / records as f64;
    assert!(ratio > 3.0, "dedup ratio {ratio:.2} too small ({logical} / {records})");
    assert_eq!((logical, records), (110_049, 29_887));
    assert_eq!(session.last().phi(), 0.3361818069230293);
}

/// Deterministic anchor for the serialising transport: the hub stream plus
/// a trailing empty delta, on Direct, Ring/Raw and Ring/Compact. Labels
/// and every window are bit-identical; only the framed bytes differ. The
/// empty delta re-converges over an unchanged graph, so framing, transport
/// channels and decode scratch must all fit the capacity the stream warmed
/// up.
#[test]
fn ring_stream_matches_direct_stream() {
    let base = hub_graph(1200, 0x51);
    let direct_cfg = cfg(8, 7, true);
    let arms = [
        direct_cfg.clone(),
        direct_cfg
            .clone()
            .with_transport(TransportKind::Ring)
            .with_wire_format(WireFormat::Raw),
        direct_cfg.with_transport(TransportKind::Ring),
    ];
    let sessions: Vec<StreamSession> = arms
        .into_iter()
        .map(|arm| {
            let mut session = StreamSession::new(base.clone(), arm);
            for delta in hub_deltas(&base, 9).into_iter().chain([GraphDelta::default()]) {
                session.apply(StreamEvent::Delta(delta));
            }
            session
        })
        .collect();
    let direct = &sessions[0];
    for session in &sessions {
        assert_eq!(session.labels(), direct.labels(), "labels diverged across transports");
        for (d, w) in direct.windows().iter().zip(session.windows()) {
            assert_eq!(
                digest(d),
                digest(w),
                "window {} diverged across transports",
                d.window()
            );
        }
        assert_eq!(session.last().fabric_reallocs(), 0, "the empty-delta window grew");
    }
    let bytes: Vec<u64> =
        sessions.iter().map(|s| s.windows().iter().map(|w| w.wire_bytes()).sum()).collect();
    assert_eq!(bytes, [0, 439_312, 114_589], "direct, raw, compact");
    assert_eq!(direct.last().phi(), 0.33300198807157055);
}
