//! **Work-stealing under hub skew** — the scheduler counterpart of the
//! Fig. 6 scaling sweep: a preferential-attachment graph placed
//! *contiguously*, so the low-id hubs (and with them most of the edge
//! work) land on worker 0. A static worker→thread split makes whichever
//! thread owns worker 0 the straggler every superstep; the work-stealing
//! pool lets the idle threads claim its chunks instead.
//!
//! Both arms run the identical partition (the synchronous load view makes
//! labels scheduler-invariant), so the experiment **asserts bit-identical
//! labels and history** between static and stealing before comparing
//! wall-clock — any timing difference is pure scheduling, never a quality
//! trade. Wall times use the min over repeats (the standard noise floor
//! estimator). They and the stealing speedup are printed and written to
//! the report but never gated: wall-clock on a shared CI runner is not
//! reproducible, so the deterministic `phi_skew` / `rho_skew` METRICs are
//! what the regression gate pins, and time is gated by the repo
//! benchmark's workloads.
//!
//! Writes `bench-out/SKEW_POOL.json` (override with `SPINNER_SKEW_JSON`)
//! and self-gates on identical results across arms. Zero-realloc steady
//! state is a *warm* property and is gated where warm engines live, in
//! exp-stream / exp-locality.

use spinner_bench::{emit_metric, f2, scale_from_env, threads_from_env, Table};
use spinner_core::{partition_with_placement, PartitionResult, SpinnerConfig};
use spinner_graph::conversion::to_weighted_undirected;
use spinner_graph::generators::barabasi_albert;
use spinner_graph::{Scale, UndirectedGraph};
use spinner_pregel::Placement;
use std::process::ExitCode;
use std::time::Instant;

/// Timing repeats per arm; the minimum is reported (least-noise estimator).
const REPEATS: usize = 3;

struct Arm {
    name: &'static str,
    work_stealing: bool,
    steal_chunk: usize,
    wall_s: f64,
    result: PartitionResult,
}

fn run_arm(
    name: &'static str,
    g: &UndirectedGraph,
    p: &Placement,
    base: &SpinnerConfig,
    work_stealing: bool,
    steal_chunk: usize,
) -> Arm {
    let mut cfg = base.clone();
    cfg.work_stealing = work_stealing;
    cfg.steal_chunk = steal_chunk;
    let mut wall_s = f64::INFINITY;
    let mut result = None;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let r = partition_with_placement(g, &cfg, p);
        wall_s = wall_s.min(start.elapsed().as_secs_f64());
        result = Some(r);
    }
    Arm { name, work_stealing, steal_chunk, wall_s, result: result.expect("repeats > 0") }
}

fn digest(r: &PartitionResult) -> (&[u32], &[spinner_core::IterationStats], u32, u64, u64) {
    (&r.labels, &r.history, r.iterations, r.supersteps, r.totals.computed)
}

fn main() -> ExitCode {
    let scale = scale_from_env();
    let (n, m_attach) = match scale {
        Scale::Tiny => (20_000u32, 8u32),
        Scale::Small => (100_000, 12),
        Scale::Full => (300_000, 16),
    };
    let g = to_weighted_undirected(&barabasi_albert(n, m_attach, 7));
    eprintln!(
        "hub-skewed graph: |V|={} |E|={} (preferential attachment, m={m_attach})",
        g.num_vertices(),
        g.num_edges()
    );

    let k = 16u32;
    let workers = 16usize;
    let mut cfg = SpinnerConfig::new(k).with_seed(42);
    cfg.num_threads = threads_from_env();
    cfg.num_workers = workers;
    // Bit-identity across schedulers holds only under the synchronous load
    // view (the §IV-A4 async view is schedule-dependent by design).
    cfg.async_worker_loads = false;
    // Contiguous placement is the adversarial layout: BA vertex ids are
    // insertion-ordered, so the low-id block that worker 0 receives holds
    // the oldest, highest-degree hubs.
    let placement = Placement::contiguous(n, workers);

    let arms = [
        run_arm("static", &g, &placement, &cfg, false, 0),
        run_arm("stealing", &g, &placement, &cfg, true, 0),
        run_arm("stealing chunk=1", &g, &placement, &cfg, true, 1),
    ];
    let static_arm = &arms[0];
    let stealing_arm = &arms[1];

    let mut t = Table::new(format!(
        "Work-stealing vs static split on hub-skewed placement \
         (k={k}, L={workers}, {} threads)",
        cfg.num_threads
    ))
    .header(["scheduler", "wall (s)", "vs static", "phi", "iters", "supersteps"]);
    for a in &arms {
        t.row([
            a.name.to_string(),
            format!("{:.3}", a.wall_s),
            format!("{:.2}x", static_arm.wall_s / a.wall_s),
            f2(a.result.quality.phi),
            a.result.iterations.to_string(),
            a.result.supersteps.to_string(),
        ]);
    }
    println!("{t}");

    // Deterministic quality METRICs (gated); the speedup is printed only.
    emit_metric("phi_skew", static_arm.result.quality.phi);
    emit_metric("rho_skew", static_arm.result.quality.rho);
    write_json(&arms, scale, n, cfg.num_threads);

    let mut violations: Vec<String> = Vec::new();
    for a in &arms[1..] {
        if digest(&a.result) != digest(&static_arm.result) {
            violations
                .push(format!("{}: labels/history diverged from the static scheduler", a.name));
        }
    }
    if violations.is_empty() {
        println!(
            "all gates passed: bit-identical across schedulers (steal speedup {:.2}x)",
            static_arm.wall_s / stealing_arm.wall_s
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("ACCEPTANCE VIOLATION: {v}");
        }
        ExitCode::FAILURE
    }
}

/// Hand-rolled JSON like the other experiment reports (no JSON dependency
/// in the workspace).
fn write_json(arms: &[Arm], scale: Scale, n: u32, threads: usize) {
    let path = std::env::var("SPINNER_SKEW_JSON")
        .unwrap_or_else(|_| "bench-out/SKEW_POOL.json".to_string());
    let scale_name = match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    };
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"exp-skew\",\n");
    out.push_str(&format!("  \"scale\": \"{scale_name}\",\n"));
    out.push_str(&format!("  \"num_vertices\": {n},\n"));
    out.push_str(&format!("  \"num_threads\": {threads},\n"));
    out.push_str("  \"arms\": [\n");
    for (i, a) in arms.iter().enumerate() {
        let sep = if i + 1 == arms.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"work_stealing\": {}, \"steal_chunk\": {}, \
             \"wall_s\": {:.6}, \"phi\": {:.6}, \"rho\": {:.6}, \"iterations\": {}, \
             \"supersteps\": {}, \"computed\": {}}}{sep}\n",
            a.name,
            a.work_stealing,
            a.steal_chunk,
            a.wall_s,
            a.result.quality.phi,
            a.result.quality.rho,
            a.result.iterations,
            a.result.supersteps,
            a.result.totals.computed
        ));
    }
    out.push_str("  ]\n}\n");
    if let Some(parent) = std::path::Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create report directory");
        }
    }
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote skew-pool report to {path}");
}
