//! `stream_churn`: delta window → published epoch through
//! `ServingNode::ingest`, with a real WAL directory — the adaptive path of
//! §III-D/E and the *write* use of the routing table.

use crate::cold::{MIN_TIMED_OPS, WARMUP_OPS};
use crate::report::{digest, peak_rss_mb, Args, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use spinner_core::{SpinnerConfig, StreamEvent, StreamSession, WindowReport};
use spinner_graph::conversion::from_undirected_edges;
use spinner_graph::generators::{planted_partition, SbmConfig};
use spinner_graph::mutation::apply_delta;
use spinner_graph::{DeltaStream, DeltaStreamConfig, DirectedGraph, GraphDelta};
use spinner_serving::{
    encode_state, Health, RoutingTable, ServingNode, SessionStore, WalRecord,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seconds one ingest takes on the 2-core build container.
const NOMINAL_OP_S: f64 = 0.75;
/// Timed windows between the two elastic resizes (k → k+4 → k).
const RESIZE_EVERY: usize = 10;
/// The WAL is folded into the snapshot when this many timed ops remain, so
/// the closing resume replays a short log instead of the whole stream.
const OPS_AFTER_COMPACT: usize = 4;
/// An op fails above this ρ.
const RHO_LIMIT: f64 = 1.20;
/// Delta windows the `--trace` run times before its resize.
const TRACED_DELTAS: usize = 6;

/// The evolving graph a session partitions.
#[derive(Debug, Clone, Copy)]
pub struct SessionSpec {
    /// Vertices at full scale.
    pub n: u32,
    /// Vertices per planted community.
    pub community_size: u32,
    /// Partitions at bootstrap.
    pub k: u32,
    /// Logical workers.
    pub workers: usize,
    /// OS threads. One: a window's time is the session's and the store's
    /// (the LPA is a fifth of it), and on a 2-core box a second engine thread
    /// adds barrier-wait noise and per-thread allocator arenas (unsteady
    /// `peak_rss_mb`) without driving anything `cold_community` does not.
    pub threads: usize,
}

const SPEC: SessionSpec =
    SessionSpec { n: 60_000, community_size: 60, k: 16, workers: 16, threads: 1 };

/// Generates the base graph and `windows` consistent delta windows (add 1 %,
/// remove 0.5 %, 0.2 % new vertices attaching 3 edges, triadic 0.8, hub bias
/// 0.5 — the `DeltaStreamConfig` defaults), then bootstraps a session on the
/// base. Everything is derived from `args.seed`.
pub fn build_session(
    tr: &mut Tracer,
    spec: &SessionSpec,
    args: &Args,
    windows: usize,
) -> (StreamSession, Vec<GraphDelta>) {
    let n = args.scaled(spec.n, 600);
    let base = tr.span("graph.generate", |_| {
        planted_partition(SbmConfig {
            n,
            communities: n / spec.community_size,
            internal_degree: 40.0,
            external_degree: 16.0,
            skew: None,
            seed: args.seed,
        })
    });
    let deltas: Vec<GraphDelta> = tr.span("graph.delta_sample", |_| {
        let cfg = DeltaStreamConfig {
            windows: windows as u32,
            seed: args.seed,
            ..DeltaStreamConfig::default()
        };
        DeltaStream::new(base.clone(), cfg).collect()
    });
    let mut cfg = SpinnerConfig::new(spec.k).with_seed(args.seed);
    cfg.num_workers = spec.workers;
    cfg.num_threads = spec.threads;
    let session = tr.span("core.session_new", |_| StreamSession::new(base, cfg));
    (session, deltas)
}

/// A fresh, empty directory under the output directory.
fn fresh_dir(args: &Args, name: &str) -> PathBuf {
    let dir = args.out_dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the WAL directory under the output directory");
    dir
}

/// Interleaves the two resizes into the delta windows: `k+4` after timed
/// window `RESIZE_EVERY`, back to `k` after `2 * RESIZE_EVERY`.
fn events(deltas: Vec<GraphDelta>, k: u32, total: usize) -> Vec<StreamEvent> {
    let mut out = Vec::with_capacity(total);
    let mut deltas = deltas.into_iter();
    while out.len() < total {
        let timed = out.len().saturating_sub(WARMUP_OPS);
        out.push(if out.len() >= WARMUP_OPS && timed == RESIZE_EVERY {
            StreamEvent::Resize { k: k + 4 }
        } else if out.len() >= WARMUP_OPS && timed == 2 * RESIZE_EVERY + 1 {
            StreamEvent::Resize { k }
        } else {
            StreamEvent::Delta(deltas.next().expect("one delta per non-resize op"))
        });
    }
    out
}

fn resizes_within(total: usize) -> usize {
    let timed = total - WARMUP_OPS;
    usize::from(timed > RESIZE_EVERY) + usize::from(timed > 2 * RESIZE_EVERY + 1)
}

/// One `ingest` plus the reader-visibility check, timed as the client sees
/// it: milliseconds and storage retries, or `None` when the op failed.
fn timed_ingest(
    out: &mut Outcome,
    node: &mut ServingNode,
    event: StreamEvent,
    i: usize,
) -> Option<(f64, u32)> {
    let reader = node.reader();
    let t = Instant::now();
    let result = node.ingest(event);
    let visible = result.as_ref().is_ok_and(|r| {
        reader.head() == r.epoch() && reader.lookup(0).is_some_and(|l| l.epoch() == r.epoch())
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let session = node.session();
    match result {
        Err(e) => out.fail_op(&format!("window {i}: ingest returned {e}")),
        Ok(_) if !visible => {
            out.fail_op(&format!("window {i}: new epoch not visible to a reader"))
        }
        Ok(r) if r.health() != Health::Healthy => {
            out.fail_op(&format!("window {i}: persistence {:?}", r.health()))
        }
        Ok(_) if session.labels().iter().any(|&l| l >= session.k()) => {
            out.fail_op(&format!("window {i}: a label is >= k"))
        }
        Ok(_) if session.last().rho() > RHO_LIMIT || session.last().rho().is_nan() => {
            out.fail_op(&format!("window {i}: rho {} above {RHO_LIMIT}", session.last().rho()))
        }
        Ok(r) => return Some((ms, r.persist_retries())),
    }
    None
}

/// Restarts a node from `dir` and checks it against the live one.
fn check_resume(out: &mut Outcome, dir: &Path, live: &StreamSession) {
    match ServingNode::resume_from(dir) {
        Ok((resumed, _)) => {
            let (a, b) = (resumed.session(), live);
            if digest(a.labels()) != digest(b.labels())
                || a.placement().as_slice() != b.placement().as_slice()
            {
                out.error("the WAL-resumed node differs from the live one".to_string());
            }
        }
        Err(e) => out.error(format!("resume from the WAL directory failed: {e}")),
    }
}

/// Runs the workload: the untraced end-to-end run, or the traced one.
pub fn run(name: &str, args: &Args) -> Outcome {
    if args.trace {
        return traced(name, args);
    }
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let ops = MIN_TIMED_OPS.max((args.seconds / NOMINAL_OP_S).round() as usize);
    let total = WARMUP_OPS + ops;
    let dir = fresh_dir(args, "wal-stream_churn");

    // One build: a single one takes seconds, long enough to time once.
    tr.next_op();
    let (mut node, events) = tr.span("setup", |tr| {
        let (session, deltas) = build_session(tr, &SPEC, args, total - resizes_within(total));
        let node =
            tr.span("serving.node_new", |_| ServingNode::with_persistence(session, &dir));
        (node.expect("create the session store"), events(deltas, SPEC.k, total))
    });
    out.notes.push(("vertices", node.session().undirected().num_vertices().to_string()));
    out.notes.push(("edges", node.session().undirected().num_edges().to_string()));

    let mut ms = Vec::new();
    for (i, event) in events.into_iter().enumerate() {
        let took = timed_ingest(&mut out, &mut node, event, i);
        if i >= WARMUP_OPS {
            out.attempted += 1;
            ms.extend(took.map(|(ms, _)| ms));
        }
        if total - (i + 1) == OPS_AFTER_COMPACT {
            if let Err(e) = node.compact() {
                out.error(format!("compact failed: {e}"));
            }
        }
    }
    check_resume(&mut out, &dir, node.session());
    let _ = std::fs::remove_dir_all(&dir);

    out.note_timed_ops(&ms);
    out.set("setup_s", median(&tr.per_op_ms("setup")) / 1e3);
    out.set("op_p50_ms", median(&ms));
    out.set("ops_per_s", ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3));
    out.set("phi", node.session().last().phi());
    out.set("rho", node.session().last().rho());
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// `ServingNode` taken apart: the pieces `ingest` drives, owned side by side
/// so each call can carry a span.
struct ReplicaNode {
    session: StreamSession,
    store: SessionStore,
    table: RoutingTable,
}

/// `ServingNode::ingest` re-assembled from the public functions beneath it:
/// `state() → StreamSession::apply → state() → WalRecord::diff →
/// SessionStore::append → RoutingTable::publish_at`. Returns the window's
/// report and the WAL bytes appended.
fn replica_ingest(
    tr: &mut Tracer,
    node: &mut ReplicaNode,
    event: &StreamEvent,
) -> (WindowReport, u64) {
    let apply_span = match event {
        StreamEvent::Delta(_) => "core.apply_delta",
        _ => "core.apply_resize",
    };
    let (report, record, bytes) = tr.span("serving.ingest", |tr| {
        let before = tr.span("core.state_clone", |_| node.session.state());
        let report = tr.span(apply_span, |_| node.session.apply(event.clone()).clone());
        let after = tr.span("core.state_clone", |_| node.session.state());
        let record =
            tr.span("serving.wal_diff", |_| WalRecord::diff(&before, &after, event.clone()));
        let bytes =
            tr.span("serving.wal_append", |_| node.store.append(&record)).expect("WAL append");
        let epoch = node.session.windows().len() as u64;
        tr.span("serving.publish", |_| {
            node.table.publish_at(epoch, node.session.placement().as_slice())
        });
        (report, record, bytes)
    });
    // `append` encodes and writes in one call; encoding alone is a probe.
    tr.probe("serving.wal_encode", || record.encode_framed());
    (report, bytes)
}

fn traced(name: &str, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let dir = fresh_dir(args, "wal-stream_churn");
    let replica_dir = fresh_dir(args, "wal-stream_churn-replica");
    // warm-ups, the traced deltas, a resize, one more delta for the resume
    // to replay together with the resize.
    let windows = WARMUP_OPS + TRACED_DELTAS + 1;

    tr.next_op();
    let (mut node, deltas) = tr.span("setup", |tr| {
        let (session, deltas) = build_session(tr, &SPEC, args, windows);
        let node =
            tr.span("serving.node_new", |_| ServingNode::with_persistence(session, &dir));
        (node.expect("create the session store"), deltas)
    });
    let mut events: Vec<StreamEvent> = deltas.into_iter().map(StreamEvent::Delta).collect();
    events.insert(WARMUP_OPS + TRACED_DELTAS, StreamEvent::Resize { k: SPEC.k + 4 });

    // The replica starts from the monolith's state, as a restarted process
    // would.
    let state = node.session().state();
    let session = tr.span("core.from_state", |_| StreamSession::from_state(state.clone()));
    let store = SessionStore::create(&replica_dir, &state).expect("create the replica store");
    let mut table = RoutingTable::with_capacity(session.placement().num_vertices());
    table.publish_at(session.windows().len() as u64, session.placement().as_slice());
    let reallocs_at_start = table.reallocs();
    let mut replica = ReplicaNode { session, store, table };
    drop(state);

    let mut scratch = Tracer::new();
    let (mut monolith_ms, mut wal_bytes, mut reports) = (Vec::new(), Vec::new(), Vec::new());
    let mut retries = 0u64;
    for (i, event) in events.into_iter().enumerate() {
        let timed_op = i >= WARMUP_OPS;
        let is_delta = matches!(event, StreamEvent::Delta(_));
        if timed_op {
            tr.next_op();
        }
        if let (true, StreamEvent::Delta(delta)) = (timed_op, &event) {
            // The graph work inside `StreamSession::apply`, repeated beside it.
            let graph: &DirectedGraph = replica.session.graph();
            let next = tr.probe("graph.apply_delta", || apply_delta(graph, delta));
            tr.probe("graph.convert", || from_undirected_edges(&next));
        }
        let monolith = timed_ingest(&mut out, &mut node, event.clone(), i);
        retries += monolith.map_or(0, |(_, retries)| u64::from(retries));
        let (report, bytes) = if timed_op {
            replica_ingest(&mut tr, &mut replica, &event)
        } else {
            replica_ingest(&mut scratch, &mut replica, &event)
        };
        if digest(replica.session.labels()) != digest(node.session().labels()) {
            out.error(format!("window {i}: the replica's labels differ from ingest()'s"));
        }
        if timed_op {
            out.attempted += 1;
            if is_delta {
                monolith_ms.extend(monolith.map(|(ms, _)| ms));
                wal_bytes.push(bytes as f64);
                reports.push(report);
            }
        }
        if i + 1 == WARMUP_OPS + TRACED_DELTAS {
            let state = replica.session.state();
            let encoded = tr.probe("serving.snapshot_encode", || encode_state(&state));
            out.set("serving.snapshot_bytes", encoded.len() as f64);
            tr.span("serving.compact", |_| replica.store.compact(&state)).expect("compact");
        }
    }

    let resumed = tr.span("serving.resume", |tr| {
        SessionStore::load(&replica_dir).map(|(state, _, _)| {
            tr.span("core.from_state", |_| StreamSession::from_state(state))
        })
    });
    match resumed {
        Ok(session) if digest(session.labels()) == digest(node.session().labels()) => {}
        Ok(_) => out.error("the replica's WAL resumes to different labels".to_string()),
        Err(e) => out.error(format!("replica resume failed: {e}")),
    }
    check_resume(&mut out, &dir, node.session());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&replica_dir);

    let over =
        |f: &dyn Fn(&WindowReport) -> f64| median(&reports.iter().map(f).collect::<Vec<_>>());
    let graph = node.session().undirected();
    out.set("graph.generate.ms", tr.median_ms("graph.generate"));
    out.set("graph.delta_sample.ms", tr.median_ms("graph.delta_sample"));
    out.set("graph.vertices", f64::from(graph.num_vertices()));
    out.set("graph.edges", graph.num_edges() as f64);
    out.set("graph.apply_delta.ms", tr.median_ms("graph.apply_delta"));
    out.set("graph.convert.ms", tr.median_ms("graph.convert"));
    // `StreamSession::apply` cannot be split from outside; the engine's share
    // of it is the program's own `wall_ns` clock, the rest is the session's.
    let engine_ms = over(&|r| r.wall_ns() as f64 / 1e6);
    out.set("pregel.engine_run.ms", engine_ms);
    out.set("pregel.supersteps", over(&|r| r.supersteps() as f64));
    out.set("pregel.computed_vertices", over(&|r| r.computed() as f64));
    out.set("pregel.messages", over(&|r| r.messages() as f64));
    out.set("pregel.remote_messages", over(&|r| r.sent_remote() as f64));
    out.set("pregel.remote_records", over(&|r| r.sent_remote_records() as f64));
    out.set("pregel.fabric_reallocs", over(&|r| r.fabric_reallocs() as f64));
    out.set("core.session_new.ms", tr.median_ms("core.session_new"));
    out.set("core.from_state.ms", tr.median_ms("core.from_state"));
    out.set("core.apply_delta.ms", tr.median_ms("core.apply_delta"));
    out.set("core.apply_delta.self_ms", tr.median_ms("core.apply_delta") - engine_ms);
    out.set("core.apply_resize.ms", tr.median_ms("core.apply_resize"));
    out.set("core.state_clone.ms", tr.median_ms("core.state_clone"));
    out.set("core.migration_fraction", over(&|r| r.migration_fraction()));
    out.set("core.active_fraction", over(&|r| r.active_fraction()));
    out.set("core.window_supersteps", over(&|r| r.supersteps() as f64));
    out.set("core.window_messages", over(&|r| r.messages() as f64));
    // Ingest spans of delta windows only: the resize is a different op.
    let ingest: Vec<f64> =
        tr.per_op_ms("serving.ingest").into_iter().take(TRACED_DELTAS).collect();
    let ingest_ms = median(&ingest);
    out.set("serving.ingest.ms", ingest_ms);
    let own: Vec<f64> = tr.self_ms("serving.ingest").into_iter().take(TRACED_DELTAS).collect();
    out.set("serving.ingest.self_ms", median(&own));
    out.set("serving.wal_diff.ms", tr.median_ms("serving.wal_diff"));
    out.set("serving.wal_encode.ms", tr.median_ms("serving.wal_encode"));
    out.set("serving.wal_append.ms", tr.median_ms("serving.wal_append"));
    out.set("serving.wal_bytes_per_window", median(&wal_bytes));
    out.set("serving.snapshot_encode.ms", tr.median_ms("serving.snapshot_encode"));
    out.set("serving.compact.ms", tr.median_ms("serving.compact"));
    out.set("serving.resume.ms", tr.median_ms("serving.resume"));
    out.set("serving.persist_retries", retries as f64);
    out.set("serving.publish.ms", tr.median_ms("serving.publish"));
    out.set("serving.seqlock_retries", replica.table.retries() as f64);
    out.set("serving.routing_reallocs", (replica.table.reallocs() - reallocs_at_start) as f64);
    // Per pair, because the two sides of a pair ran back to back.
    let excess: Vec<f64> = ingest.iter().zip(&monolith_ms).map(|(r, m)| r / m - 1.0).collect();
    out.set("bench.trace_overhead_pct", median(&excess) * 100.0);
    out.set(
        "bench.unattributed_pct",
        own.iter().sum::<f64>() / ingest.iter().sum::<f64>() * 100.0,
    );
    crate::write_trace(&mut out, args, name, &tr.to_json(name, args.seed, ""));
    out
}
