//! **Online partition serving** — the serving-path companion to
//! `exp-stream`: a [`ServingNode`] hosts a streaming session behind the
//! epoch-versioned routing table while lookup threads hammer it, first
//! over a quiescent partition and then concurrently with delta-window
//! ingest (the migration path), and finally across a process "restart"
//! that warm-starts from the snapshot + WAL store.
//!
//! Expected shape: lookups are wait-free, so churn costs the readers
//! almost nothing (measured as the throughput drop vs quiescent, with a
//! stand-in spinner thread keeping the CPU pressure of the two phases
//! equal); a served lookup is never more than one routing epoch behind
//! head while a window publishes (p99 staleness <= 1, exactly 0 after
//! quiesce); the lookup path never allocates; and the restarted node
//! serves labels bit-identical to the one that "died". The binary
//! **asserts** the staleness, allocation and restart criteria and exits
//! non-zero on violation, so the CI smoke suite doubles as the serving
//! correctness gate. Throughput and restart time are wall-clock readings:
//! they are printed and written to the report but never gated here (the
//! repo benchmark's `serve_lookup` and `stream_churn` workloads gate
//! serving time).
//!
//! Writes `bench-out/SERVING.json` (override with `SPINNER_SERVING_JSON`).

use spinner_bench::{scale_from_env, threads_from_env, Table};
use spinner_core::{SpinnerConfig, StreamEvent, StreamSession};
use spinner_graph::{Dataset, DeltaStream, DeltaStreamConfig};
use spinner_serving::{RoutingReader, ServingNode};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lookup threads in both measured phases.
const READERS: usize = 4;
/// Quiescent measurement window.
const QUIESCENT_MS: u64 = 300;
/// Delta windows ingested during the churn phase (plus one elastic resize).
const DELTA_WINDOWS: u32 = 6;
/// Staleness histogram width; anything deeper is clamped into the last
/// bucket (and would fail the p99 gate anyway).
const BUCKETS: usize = 8;

/// What one lookup thread observed.
struct ReaderStats {
    lookups: u64,
    /// `staleness_buckets[s]` = lookups whose served epoch was `s` behind
    /// the head observed right after the read.
    staleness_buckets: [u64; BUCKETS],
}

/// Runs `READERS` lookup threads against cloned readers until `stop` is
/// set, verifying every hit against the reader-visible head.
fn hammer(reader: &RoutingReader, stop: &Arc<AtomicBool>) -> Vec<ReaderStats> {
    let mut handles = Vec::new();
    for t in 0..READERS {
        let reader = reader.clone();
        let stop = Arc::clone(stop);
        handles.push(std::thread::spawn(move || {
            let mut stats = ReaderStats { lookups: 0, staleness_buckets: [0; BUCKETS] };
            let mut rng = 0x853C_49E6_748F_EA9Bu64 ^ ((t as u64) << 48);
            while !stop.load(Ordering::Relaxed) {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let len = reader.len();
                if len == 0 {
                    continue;
                }
                let v = (rng >> 33) as u32 % len as u32;
                let Some(hit) = reader.lookup(v) else { continue };
                let staleness = reader.head().saturating_sub(hit.epoch()) as usize;
                stats.staleness_buckets[staleness.min(BUCKETS - 1)] += 1;
                stats.lookups += 1;
            }
            stats
        }));
    }
    handles.into_iter().map(|h| h.join().expect("reader thread")).collect()
}

fn total_lookups(stats: &[ReaderStats]) -> u64 {
    stats.iter().map(|s| s.lookups).sum()
}

/// p99 of the merged staleness histogram (in epochs).
fn p99_staleness(stats: &[ReaderStats]) -> u64 {
    let mut merged = [0u64; BUCKETS];
    for s in stats {
        for (m, b) in merged.iter_mut().zip(s.staleness_buckets) {
            *m += b;
        }
    }
    let total: u64 = merged.iter().sum();
    let threshold = (total as f64 * 0.99).ceil() as u64;
    let mut cumulative = 0;
    for (s, &count) in merged.iter().enumerate() {
        cumulative += count;
        if cumulative >= threshold {
            return s as u64;
        }
    }
    (BUCKETS - 1) as u64
}

fn main() -> ExitCode {
    let scale = scale_from_env();
    let k = 16u32;
    let base = Dataset::Tuenti.build_directed(scale);
    eprintln!("tuenti analogue: |V|={} |E|={}", base.num_vertices(), base.num_edges());

    let mut cfg = SpinnerConfig::new(k).with_seed(42);
    cfg.num_threads = threads_from_env();
    cfg.num_workers = 16;

    let mut deltas = DeltaStream::new(
        base.clone(),
        DeltaStreamConfig {
            windows: DELTA_WINDOWS,
            add_fraction: 0.010,
            remove_fraction: 0.004,
            vertex_fraction: 0.002,
            attach_degree: 3,
            triadic_fraction: 0.8,
            hub_bias: 0.5,
            seed: 99,
        },
    );

    let store_dir = std::env::var("SPINNER_SERVING_DIR")
        .unwrap_or_else(|_| "bench-out/serving-state".to_string());
    let _ = std::fs::remove_dir_all(&store_dir);

    eprintln!("bootstrap partitioning (k={k})...");
    let session = StreamSession::new(base, cfg);
    let mut node =
        ServingNode::with_persistence(session, &store_dir).expect("create serving store");
    let reallocs_after_bootstrap = node.routing().reallocs();

    // ---- phase 1: quiescent lookup throughput. One spinner thread stands
    // in for the (idle) ingest thread so both phases contend for the same
    // number of cores.
    let stop = Arc::new(AtomicBool::new(false));
    let spinner = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        })
    };
    let reader = node.reader();
    let quiescent_start = Instant::now();
    let quiescent_stats = {
        let stop_timer = Arc::clone(&stop);
        let timer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(QUIESCENT_MS));
            stop_timer.store(true, Ordering::Relaxed);
        });
        let stats = hammer(&reader, &stop);
        timer.join().expect("timer thread");
        stats
    };
    spinner.join().expect("spinner thread");
    let quiescent_secs = quiescent_start.elapsed().as_secs_f64();
    let quiescent_tput = total_lookups(&quiescent_stats) as f64 / quiescent_secs;
    let reallocs_after_reads = node.routing().reallocs();
    eprintln!("quiescent: {:.2} Mlookups/s over {READERS} readers", quiescent_tput / 1e6);

    // ---- phase 2: the same hammering while the ingest thread applies
    // delta windows plus an elastic resize, publishing a routing epoch per
    // window.
    let mut events: Vec<StreamEvent> = (0..DELTA_WINDOWS)
        .map(|_| StreamEvent::Delta(deltas.next().expect("window")))
        .collect();
    events.insert(3, StreamEvent::Resize { k: k + 4 });

    let stop = Arc::new(AtomicBool::new(false));
    let churn_start = Instant::now();
    let (churn_stats, windows_applied) = {
        let reader = node.reader();
        let stop_readers = Arc::clone(&stop);
        let readers = std::thread::spawn(move || hammer(&reader, &stop_readers));
        let mut applied = 0u32;
        for event in events {
            let report = node.ingest(event).expect("ingest");
            applied += 1;
            eprintln!(
                "epoch {:>2}: phi={:.3} rho={:.3} moved {:.1}% wal {} B",
                report.epoch(),
                report.report().phi(),
                report.report().rho(),
                100.0 * report.report().migration_fraction(),
                report.wal_bytes()
            );
        }
        stop.store(true, Ordering::Relaxed);
        (readers.join().expect("reader pool"), applied)
    };
    let churn_secs = churn_start.elapsed().as_secs_f64();
    let churn_tput = total_lookups(&churn_stats) as f64 / churn_secs;
    let p99 = p99_staleness(&churn_stats);
    eprintln!(
        "churn: {:.2} Mlookups/s across {windows_applied} windows, p99 staleness {p99} epochs",
        churn_tput / 1e6
    );

    // ---- phase 3: quiesced staleness + restart-to-serving.
    let head = node.epoch();
    let quiesced_reader = node.reader();
    let mut quiesced_stale = 0u64;
    for v in (0..quiesced_reader.len() as u32).step_by(101) {
        let hit = quiesced_reader.lookup(v).expect("published");
        if hit.epoch() != head {
            quiesced_stale += 1;
        }
    }

    let restart_start = Instant::now();
    let (resumed, resume_stats) = ServingNode::resume_from(&store_dir).expect("resume");
    // Serving is up once a lookup answers — include one in the timing.
    let probe = resumed.lookup(0).expect("resumed table published");
    let restart_ms = restart_start.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "restart: {restart_ms:.1} ms to serving (replayed {} WAL windows, {} B snapshot)",
        resume_stats.replayed_windows, resume_stats.snapshot_bytes
    );

    let mut t = Table::new(format!(
        "Online serving: {READERS} lookup threads vs {windows_applied} ingest windows \
         (Tuenti analogue, k={k})"
    ))
    .header(["phase", "lookups/s", "p99 staleness", "epochs", "notes"]);
    t.row([
        "quiescent".to_string(),
        format!("{:.3e}", quiescent_tput),
        p99_staleness(&quiescent_stats).to_string(),
        "1".to_string(),
        format!("{} lookups", total_lookups(&quiescent_stats)),
    ]);
    t.row([
        "churn".to_string(),
        format!("{:.3e}", churn_tput),
        p99.to_string(),
        format!("2..={head}"),
        format!("drop {:.1}%", 100.0 * (1.0 - churn_tput / quiescent_tput)),
    ]);
    t.row([
        "restart".to_string(),
        "-".to_string(),
        "0".to_string(),
        head.to_string(),
        format!("{restart_ms:.1} ms to first lookup"),
    ]);
    println!("{t}");

    write_json(quiescent_tput, churn_tput, p99, restart_ms, &resume_stats, head);

    // ---- acceptance criteria (no wall-clock reading decides one) ----
    let mut violations: Vec<String> = Vec::new();
    if p99 > 1 {
        violations.push(format!("p99 lookup staleness {p99} epochs (want <= 1)"));
    }
    if quiesced_stale != 0 {
        violations.push(format!(
            "{quiesced_stale} lookups behind head {head} after quiesce (want 0)"
        ));
    }
    if reallocs_after_reads != reallocs_after_bootstrap {
        violations.push(format!(
            "lookup path allocated: routing grows went {reallocs_after_bootstrap} -> \
             {reallocs_after_reads} across the read-only phase"
        ));
    }
    if resumed.session().labels() != node.session().labels() {
        violations.push("resumed labels differ from the live session".to_string());
    }
    if resumed.epoch() != node.epoch() || probe.epoch() != node.epoch() {
        violations.push(format!(
            "resumed node serves epoch {} (probe {}), live head is {}",
            resumed.epoch(),
            probe.epoch(),
            node.epoch()
        ));
    }
    if violations.is_empty() {
        println!(
            "serving gates hold: p99 staleness {p99} <= 1, quiesced staleness 0, \
             zero-allocation reads, restart bit-identical (churn drop {:.1}%, \
             restart {restart_ms:.1} ms)",
            100.0 * (1.0 - churn_tput / quiescent_tput)
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("ACCEPTANCE VIOLATION: {v}");
        }
        ExitCode::FAILURE
    }
}

/// Writes the serving report (hand-rolled JSON like the suite reports).
fn write_json(
    quiescent_tput: f64,
    churn_tput: f64,
    p99: u64,
    restart_ms: f64,
    resume: &spinner_serving::ResumeStats,
    head: u64,
) {
    let path = std::env::var("SPINNER_SERVING_JSON")
        .unwrap_or_else(|_| "bench-out/SERVING.json".to_string());
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"exp-serving\",\n");
    out.push_str(&format!("  \"readers\": {READERS},\n"));
    out.push_str(&format!("  \"head_epoch\": {head},\n"));
    out.push_str(&format!("  \"lookup_throughput\": {quiescent_tput:.1},\n"));
    out.push_str(&format!("  \"churn_throughput\": {churn_tput:.1},\n"));
    out.push_str(&format!(
        "  \"throughput_drop\": {:.6},\n",
        1.0 - churn_tput / quiescent_tput
    ));
    out.push_str(&format!("  \"p99_staleness_epochs\": {p99},\n"));
    out.push_str(&format!("  \"restart_ms\": {restart_ms:.3},\n"));
    out.push_str(&format!("  \"replayed_windows\": {},\n", resume.replayed_windows));
    out.push_str(&format!("  \"snapshot_bytes\": {},\n", resume.snapshot_bytes));
    out.push_str(&format!("  \"wal_bytes\": {}\n", resume.wal_bytes));
    out.push_str("}\n");
    if let Some(parent) = std::path::Path::new(&path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create report directory");
        }
    }
    std::fs::write(&path, out).expect("write serving report");
    eprintln!("wrote {path}");
}
