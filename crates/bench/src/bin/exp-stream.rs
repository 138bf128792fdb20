//! **Streaming dynamic-graph trajectory** — the continuous extension of
//! Figs. 7–8: a [`StreamSession`] holds engine and partition state warm
//! across a stream of delta windows (edge churn + vertex arrivals, with a
//! mid-stream elastic grow and shrink), re-converging incrementally after
//! each window; every window is also repartitioned from scratch as the
//! baseline.
//!
//! Expected shape: per-window migration fraction stays far below the
//! from-scratch baseline (the paper's 8–11% vs 95–98% at one-shot scale),
//! ρ stays within the configured balance slack throughout, and the warm
//! engine performs zero fabric reallocations from window 2 on. The binary
//! **asserts** these acceptance criteria and exits non-zero on violation,
//! so the CI smoke suite doubles as the streaming quality gate.
//!
//! Writes a per-window trajectory JSON (default
//! `bench-out/STREAM_TRAJECTORY.json`, override with
//! `SPINNER_STREAM_JSON`) and emits deterministic `METRIC` lines for the
//! φ/ρ regression tracking in `bench-compare`.
//!
//! Every window computes all vertices in its first scores superstep; after
//! it, a vertex whose score margin holds sleeps until a message or the
//! drift clock wakes it, so superstep cost follows the churn rather than
//! |V|. The delta windows' `active_fraction_*` cost series is emitted for
//! the regression gate. The Tuenti analogue oscillates near its
//! equilibrium (~20-26% of labels move every window at smoke scale), so on
//! *that* stream the active fraction tracks genuine churn, not scheduler
//! overhead — the "active fraction << 1" acceptance gate therefore runs on
//! a dedicated converged probe: a planted-partition graph warmed through a
//! couple of delta windows, then hit with one small delta whose cost must
//! stay far below a full sweep.

use spinner_bench::{emit_metric, f2, f3, pct1, scale_from_env, threads_from_env, Table};
use spinner_core::{partition, SpinnerConfig, StreamEvent, StreamSession, WindowReport};
use spinner_graph::generators::{planted_partition, SbmConfig};
use spinner_graph::{Dataset, DeltaStream, DeltaStreamConfig, GraphDelta, Scale};
use spinner_metrics::partitioning_difference;
use std::process::ExitCode;

/// Delta windows in the stream (the resize events ride on two of them).
const DELTA_WINDOWS: u32 = 10;
/// Balance slack over the capacity constant `c` tolerated across windows
/// (tiny analogues are noisier than the paper's full graphs).
const RHO_SLACK: f64 = 0.15;
/// The converged-arm probe window (a handful of edges) must compute well
/// under this fraction of |V| per superstep — the "cost scales with churn,
/// not |V|" acceptance gate. After the first scores superstep only the
/// probe's neighbourhood and the neighbours of actual label changes stay
/// awake, so a settled partition sits far below this.
const ACTIVE_FRACTION_BOUND: f64 = 0.5;
/// Edges in the synthetic probe delta.
const PROBE_EDGES: u32 = 8;

struct WindowRow {
    report: WindowReport,
    event: String,
    migration_scratch: f64,
}

fn main() -> ExitCode {
    let scale = scale_from_env();
    let k = 16u32;
    let base = Dataset::Tuenti.build_directed(scale);
    eprintln!("tuenti analogue: |V|={} |E|={}", base.num_vertices(), base.num_edges());

    let mut cfg = SpinnerConfig::new(k).with_seed(42);
    cfg.num_threads = threads_from_env();
    // Fixed logical-worker count: the §IV-A4 async load view makes results
    // depend on it, so pinning it keeps every METRIC machine-independent.
    cfg.num_workers = 16;

    let stream_cfg = DeltaStreamConfig {
        windows: DELTA_WINDOWS,
        add_fraction: 0.010,
        remove_fraction: 0.004,
        vertex_fraction: 0.002,
        attach_degree: 3,
        triadic_fraction: 0.8,
        hub_bias: 0.5,
        seed: 99,
    };
    let mut deltas = DeltaStream::new(base.clone(), stream_cfg);

    eprintln!("bootstrap partitioning (k={k})...");
    let mut session = StreamSession::new(base, cfg.clone());
    let bootstrap = session.last().clone();
    eprintln!(
        "bootstrap: phi={:.3} rho={:.3} iters={}",
        bootstrap.phi(),
        bootstrap.rho(),
        bootstrap.iterations()
    );
    let mut rows = vec![WindowRow {
        report: bootstrap,
        event: "bootstrap".to_string(),
        migration_scratch: 1.0,
    }];

    // The stream: 10 delta windows with an elastic grow after the 4th and a
    // shrink back after the 7th — graph and cluster changes interleaved.
    let mut events: Vec<(String, StreamEvent)> = Vec::new();
    for i in 1..=DELTA_WINDOWS {
        events.push(("delta".to_string(), StreamEvent::Delta(deltas.next().expect("window"))));
        if i == 4 {
            events.push((format!("resize {k}->{}", k + 4), StreamEvent::Resize { k: k + 4 }));
        }
        if i == 7 {
            events.push((format!("resize {}->{k}", k + 4), StreamEvent::Resize { k }));
        }
    }

    for (event, stream_event) in &events {
        let previous = session.labels().to_vec();
        let report = session.apply(stream_event.clone()).clone();
        // From-scratch baseline on the same post-delta graph and k.
        let scratch_cfg = session.config().clone().with_seed(4242 + report.window() as u64);
        let scratch = partition(session.undirected(), &scratch_cfg);
        let shared = previous.len().min(scratch.labels.len());
        let migration_scratch =
            partitioning_difference(&previous[..shared], &scratch.labels[..shared]);
        eprintln!(
            "window {:>2} [{event}]: phi={:.3} rho={:.3} moved {:.1}% (scratch {:.1}%) \
             active={:.3} iters={} reallocs={}",
            report.window(),
            report.phi(),
            report.rho(),
            100.0 * report.migration_fraction(),
            100.0 * migration_scratch,
            report.active_fraction(),
            report.iterations(),
            report.fabric_reallocs()
        );
        rows.push(WindowRow { report, event: event.clone(), migration_scratch });
    }

    let mut t = Table::new(format!(
        "Streaming trajectory: {DELTA_WINDOWS} delta windows + elastic grow/shrink \
         (Tuenti analogue, k={k})"
    ))
    .header(["window", "event", "k", "phi", "rho", "moved", "moved scratch", "reallocs"]);
    for r in &rows {
        t.row([
            r.report.window().to_string(),
            r.event.clone(),
            r.report.k().to_string(),
            f2(r.report.phi()),
            f3(r.report.rho()),
            pct1(100.0 * r.report.migration_fraction()),
            pct1(100.0 * r.migration_scratch),
            r.report.fabric_reallocs().to_string(),
        ]);
    }
    println!("{t}");

    write_json(&rows, scale, k);

    emit_metric("phi_final", rows.last().expect("windows").report.phi());
    emit_metric("phi_min", phi_min(&rows));
    emit_metric("rho_max", rho_max(&rows));
    emit_metric("migration_mean", migration_mean(&rows));
    // Locality accounting (already counted per window by the engine): the
    // stream's total local/remote split as *logical* deliveries — lane-
    // independent, so these stay comparable whether the broadcast fabric
    // is on or off — plus the physical cross-worker records the broadcast
    // lane actually shipped (gated lower-is-better by bench-compare; the
    // unicast/broadcast comparison itself is pinned by
    // crates/core/tests/broadcast_equivalence.rs). These run under the
    // default hash placement — the label-placement counterpart is pinned by
    // spinner_core's `placement_feedback_improves_locality_but_not_labels`.
    let sent_local: u64 = rows.iter().map(|r| r.report.sent_local()).sum();
    let sent_remote: u64 = rows.iter().map(|r| r.report.sent_remote()).sum();
    let remote_records: u64 = rows.iter().map(|r| r.report.sent_remote_records()).sum();
    emit_metric("sent_local", sent_local as f64);
    emit_metric("sent_remote", sent_remote as f64);
    emit_metric("remote_records", remote_records as f64);

    // The active-set cost series over *delta* windows only: resize
    // windows restart dense by design (a new k invalidates every score),
    // and the bootstrap necessarily sweeps everything.
    let delta_windows: Vec<&WindowReport> =
        rows.iter().filter(|r| r.event == "delta").map(|r| &r.report).collect();
    let active_mean = delta_windows.iter().map(|w| w.active_fraction()).sum::<f64>()
        / delta_windows.len().max(1) as f64;
    let active_max = delta_windows.iter().map(|w| w.active_fraction()).fold(0.0f64, f64::max);
    emit_metric("active_fraction_mean", active_mean);
    emit_metric("active_fraction_max", active_max);

    // ---- acceptance criteria (self-gating: CI runs this in the smoke
    // suite, so a violation fails the build) ----
    let mut violations: Vec<String> = Vec::new();
    for r in &rows[1..] {
        if r.report.migration_fraction() >= r.migration_scratch {
            violations.push(format!(
                "window {} [{}]: adaptive moved {:.3} >= scratch {:.3}",
                r.report.window(),
                r.event,
                r.report.migration_fraction(),
                r.migration_scratch
            ));
        }
        let rho_bound = cfg.c + RHO_SLACK;
        if r.report.rho() > rho_bound {
            violations.push(format!(
                "window {} [{}]: rho {:.3} exceeds balance slack {:.3}",
                r.report.window(),
                r.event,
                r.report.rho(),
                rho_bound
            ));
        }
    }
    for r in rows.iter().filter(|r| r.report.window() >= 2) {
        if r.report.fabric_reallocs() != 0 {
            violations.push(format!(
                "window {} [{}]: {} steady-state fabric reallocations (want 0)",
                r.report.window(),
                r.event,
                r.report.fabric_reallocs()
            ));
        }
    }
    // The active-set probe: on the Tuenti analogue even an 8-edge delta
    // cascades (near-tie labels keep ~20% of the graph moving every
    // window), so the probe arm uses a community-structured graph the
    // partitioner actually settles on, warms it through two realistic
    // delta windows, and then measures a small delta. Its churn is tiny by
    // construction, so its cost exposes what sleeping saves.
    let probe_report = converged_probe(threads_from_env());
    eprintln!(
        "probe window {}: active={:.4} moved={:.3} supersteps={}",
        probe_report.window(),
        probe_report.active_fraction(),
        probe_report.migration_fraction(),
        probe_report.supersteps()
    );
    emit_metric("active_fraction_probe", probe_report.active_fraction());
    if probe_report.active_fraction() >= ACTIVE_FRACTION_BOUND {
        violations.push(format!(
            "probe window: active fraction {:.3} not << 1 (bound {}) — the \
             window is sweeping the graph for a {}-edge delta",
            probe_report.active_fraction(),
            ACTIVE_FRACTION_BOUND,
            PROBE_EDGES
        ));
    }
    if violations.is_empty() {
        println!(
            "all {} windows within gates: migration below scratch, rho <= {:.2}, \
             zero fabric reallocations from window 2",
            rows.len(),
            cfg.c + RHO_SLACK
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("ACCEPTANCE VIOLATION: {v}");
        }
        ExitCode::FAILURE
    }
}

/// The converged probe arm for the active-set gate: a planted-partition
/// graph (strong communities, so the partitioner settles instead of
/// oscillating like the Tuenti analogue), warmed through two realistic
/// delta windows, then hit with an 8-edge delta.
/// Fixed-size regardless of `SPINNER_SCALE` — the gate is about the
/// scheduler, not the workload, and a fixed graph keeps the probe METRIC
/// deterministic across scales.
fn converged_probe(num_threads: usize) -> WindowReport {
    let base = planted_partition(SbmConfig {
        n: 2_000,
        communities: 8,
        internal_degree: 8.0,
        external_degree: 1.0,
        skew: None,
        seed: 7,
    });
    let mut cfg = SpinnerConfig::new(8).with_seed(42);
    cfg.num_threads = num_threads;
    cfg.num_workers = 4;
    let mut session = StreamSession::new(base.clone(), cfg);
    let warm: Vec<GraphDelta> = DeltaStream::new(
        base,
        DeltaStreamConfig {
            windows: 2,
            add_fraction: 0.010,
            remove_fraction: 0.004,
            vertex_fraction: 0.002,
            attach_degree: 3,
            triadic_fraction: 0.8,
            hub_bias: 0.5,
            seed: 99,
        },
    )
    .collect();
    for delta in warm {
        session.apply(StreamEvent::Delta(delta));
    }
    let n = session.graph().num_vertices();
    let probe = GraphDelta {
        new_vertices: 0,
        added_edges: (0..PROBE_EDGES).map(|i| (n / 2 + 2 * i, n / 2 + 2 * i + 1)).collect(),
        removed_edges: vec![],
    };
    session.apply(StreamEvent::Delta(probe)).clone()
}

/// The worst (smallest) φ across all windows (1.0 when there are none).
fn phi_min(rows: &[WindowRow]) -> f64 {
    rows.iter().map(|r| r.report.phi()).fold(1.0, f64::min)
}

/// The worst (largest) ρ across all windows (1.0 when there are none).
fn rho_max(rows: &[WindowRow]) -> f64 {
    rows.iter().map(|r| r.report.rho()).fold(1.0, f64::max)
}

/// Mean migration fraction over the windows after the bootstrap, whose
/// fraction is 1 by construction (0.0 when there are none).
fn migration_mean(rows: &[WindowRow]) -> f64 {
    let tail = &rows[rows.len().min(1)..];
    if tail.is_empty() {
        return 0.0;
    }
    tail.iter().map(|r| r.report.migration_fraction()).sum::<f64>() / tail.len() as f64
}

/// The per-window φ/ρ/migration series as a JSON array.
fn trajectory_json(rows: &[WindowRow]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let report = &r.report;
        out.push_str(&format!(
            "    {{\"window\": {}, \"phi\": {:.6}, \"rho\": {:.6}, \
             \"migration_fraction\": {:.6}, \"local_share\": {:.6}, \
             \"lost_fraction\": {:.6}, \"active_fraction\": {:.6}, \
             \"retransmits\": {}}}{sep}\n",
            report.window(),
            report.phi(),
            report.rho(),
            report.migration_fraction(),
            report.local_share(),
            report.lost_vertices() as f64 / f64::from(report.num_vertices().max(1)),
            report.active_fraction(),
            report.retransmits()
        ));
    }
    out.push_str("  ]");
    out
}

/// Writes the per-window trajectory report (hand-rolled JSON like the suite
/// reports; no JSON dependency in the workspace).
fn write_json(rows: &[WindowRow], scale: Scale, k0: u32) {
    let path = std::env::var("SPINNER_STREAM_JSON")
        .unwrap_or_else(|_| "bench-out/STREAM_TRAJECTORY.json".to_string());
    let scale_name = match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    };
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"exp-stream\",\n");
    out.push_str(&format!("  \"scale\": \"{scale_name}\",\n"));
    out.push_str(&format!("  \"k0\": {k0},\n"));
    out.push_str(&format!("  \"rho_max\": {:.6},\n", rho_max(rows)));
    out.push_str(&format!("  \"phi_min\": {:.6},\n", phi_min(rows)));
    out.push_str(&format!("  \"migration_mean\": {:.6},\n", migration_mean(rows)));
    out.push_str(&format!("  \"trajectory\": {},\n", trajectory_json(rows)));
    out.push_str("  \"windows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"window\": {}, \"event\": \"{}\", \"k\": {}, \"num_vertices\": {}, \
             \"num_edges\": {}, \"phi\": {:.6}, \"rho\": {:.6}, \
             \"migration_fraction\": {:.6}, \"migration_scratch\": {:.6}, \
             \"iterations\": {}, \"supersteps\": {}, \"messages\": {}, \
             \"sent_local\": {}, \"sent_remote\": {}, \"remote_records\": {}, \
             \"local_share\": {:.6}, \"remote_dedup\": {:.6}, \
             \"fabric_reallocs\": {}}}{sep}\n",
            r.report.window(),
            r.event,
            r.report.k(),
            r.report.num_vertices(),
            r.report.num_edges(),
            r.report.phi(),
            r.report.rho(),
            r.report.migration_fraction(),
            r.migration_scratch,
            r.report.iterations(),
            r.report.supersteps(),
            r.report.messages(),
            r.report.sent_local(),
            r.report.sent_remote(),
            r.report.sent_remote_records(),
            r.report.local_share(),
            r.report.remote_dedup(),
            r.report.fabric_reallocs()
        ));
    }
    out.push_str("  ]\n}\n");
    if let Some(parent) = std::path::Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create report directory");
        }
    }
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote trajectory to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_core::WindowReportParts;

    /// A window with the given φ, ρ and migration fraction, a quarter of
    /// its messages local, every vertex computed in each superstep, and no
    /// lost vertex or retransmit.
    fn row(window: u32, phi: f64, rho: f64, moved: f64) -> WindowRow {
        let report = WindowReport::from_parts(WindowReportParts {
            window,
            k: 4,
            num_vertices: 10,
            num_edges: 20,
            phi,
            rho,
            migration_fraction: moved,
            iterations: 3,
            supersteps: 6,
            messages: 4,
            sent_local: 1,
            sent_remote: 3,
            sent_local_records: 1,
            sent_remote_records: 3,
            placement_moved: 0,
            computed: 60,
            wall_ns: 0,
            fabric_reallocs: 0,
            lost_vertices: 0,
            wire_bytes: 0,
            wire_frames: 0,
            wire_folded: 0,
            retransmits: 0,
            lanes_degraded: 0,
            lanes_dead: 0,
        });
        WindowRow { report, event: "delta".to_string(), migration_scratch: 1.0 }
    }

    fn sample() -> Vec<WindowRow> {
        vec![row(0, 0.70, 1.04, 1.0), row(1, 0.72, 1.08, 0.10), row(2, 0.71, 1.05, 0.06)]
    }

    #[test]
    fn aggregates_skip_the_bootstrap_window() {
        let rows = sample();
        assert!((rho_max(&rows) - 1.08).abs() < 1e-12);
        assert!((phi_min(&rows) - 0.70).abs() < 1e-12);
        // Bootstrap's migration_fraction = 1.0 must not poison the mean.
        assert!((migration_mean(&rows) - 0.08).abs() < 1e-12);
    }

    #[test]
    fn empty_trajectory_has_neutral_aggregates() {
        assert_eq!(rho_max(&[]), 1.0);
        assert_eq!(phi_min(&[]), 1.0);
        assert_eq!(migration_mean(&[]), 0.0);
    }

    #[test]
    fn single_window_has_no_steady_state_tail() {
        assert_eq!(migration_mean(&[row(0, 0.8, 1.02, 1.0)]), 0.0);
    }

    #[test]
    fn json_lists_every_window() {
        let json = trajectory_json(&sample());
        assert_eq!(json.matches("\"window\"").count(), 3);
        assert!(json.contains("\"phi\": 0.700000"));
        assert!(json.contains("\"migration_fraction\": 0.060000"));
        assert!(json.contains("\"local_share\": 0.250000"));
        assert!(json.contains("\"active_fraction\": 1.000000"));
        assert!(json.contains("\"retransmits\": 0"));
        assert!(json.starts_with("[\n") && json.ends_with(']'));
        // Exactly two separators for three entries.
        assert_eq!(json.matches("},\n").count(), 2);
    }
}
