//! The two cold-start workloads: edge list → labels through
//! `spinner_core::partition`, on a community graph with the 2-thread pool and
//! the direct transport, and on a skewed graph with one thread and every
//! cross-worker batch on the wire.

use crate::report::{digest, peak_rss_mb, Args, Outcome};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use spinner_core::driver::random_labels;
use spinner_core::program::SpinnerProgram;
use spinner_core::state::{EdgeState, Phase, VertexState, NO_LABEL};
use spinner_core::{partition, Label, SpinnerConfig};
use spinner_graph::conversion::{from_undirected_edges, to_weighted_undirected};
use spinner_graph::generators::{planted_partition, rmat, RmatConfig, SbmConfig};
use spinner_graph::UndirectedGraph;
use spinner_metrics::PartitionQuality;
use spinner_pregel::engine::{Engine, EngineConfig};
use spinner_pregel::wire::{decode_frame, encode_frame};
use spinner_pregel::{Placement, RunSummary, TransportKind, WireFormat, WireRecord};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Ops before timing starts: the first op of a process pays page faults and
/// allocator growth that no later op pays.
pub const WARMUP_OPS: usize = 2;
/// Fewest timed ops: leaves ten samples beyond the median.
pub const MIN_TIMED_OPS: usize = 24;
/// Distinct LPA seeds a run cycles through. Label propagation lands in a
/// different local optimum per seed (φ varies by a few percent, ρ on the
/// skewed graph by 20 %), so one run samples several and reports the median;
/// every repeat of a seed must reproduce its labels bit for bit. Half the
/// fewest timed ops, so every seed is run at least twice.
const SUB_SEEDS: u64 = 12;
/// Ops the `--trace` run times, each as a monolith/replica pair.
const TRACED_OPS: usize = 6;
/// Ops each probe of the `--trace` run repeats.
const PROBE_OPS: usize = 2;

/// Which generator builds the input.
#[derive(Debug, Clone, Copy)]
pub enum GraphSpec {
    /// Planted partition with internal/external degree 40/16 — the Tuenti
    /// analogue's shape — read as undirected friendships.
    Community {
        /// Vertices at full scale.
        n: u32,
        /// Vertices per planted community.
        community_size: u32,
    },
    /// Graph500 R-MAT with edge factor 24, converted with Eq. 3 weights.
    Rmat {
        /// log2 of the vertex count at full scale.
        scale: u32,
    },
}

/// One cold workload.
#[derive(Debug, Clone, Copy)]
pub struct ColdSpec {
    /// Input generator.
    pub graph: GraphSpec,
    /// Partitions.
    pub k: u32,
    /// Logical Pregel workers.
    pub workers: usize,
    /// OS threads.
    pub threads: usize,
    /// Message transport.
    pub transport: TransportKind,
    /// LPA iterations per op. The ε/w halting rule stops after 30–39
    /// iterations on the community graph and 38–62 on the skewed one
    /// depending on the seed; a fixed count makes every op the same amount of
    /// work, so op time measures the code and not the seed.
    pub iterations: u32,
    /// An op fails above this ρ. 1.20 on the community graph; hubs make the
    /// skewed graph overshoot `c` on some seeds, so it gets more room.
    pub rho_limit: f64,
    /// Seconds one op takes on the 2-core build container; turns `--seconds`
    /// into an op count.
    pub nominal_op_s: f64,
    /// Input builds per run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// `cold_community`.
pub const COMMUNITY: ColdSpec = ColdSpec {
    graph: GraphSpec::Community { n: 60_000, community_size: 60 },
    k: 32,
    workers: 16,
    threads: 2,
    transport: TransportKind::Direct,
    iterations: 32,
    rho_limit: 1.20,
    nominal_op_s: 0.85,
    setup_reps: 7,
};

/// `cold_skew_wire`.
pub const SKEW_WIRE: ColdSpec = ColdSpec {
    graph: GraphSpec::Rmat { scale: 15 },
    k: 32,
    workers: 32,
    threads: 1,
    transport: TransportKind::Ring,
    iterations: 36,
    rho_limit: 2.0,
    nominal_op_s: 0.85,
    setup_reps: 9,
};

fn build_graph(tr: &mut Tracer, spec: &ColdSpec, args: &Args) -> UndirectedGraph {
    tr.next_op();
    tr.span("setup", |tr| match spec.graph {
        GraphSpec::Community { n, community_size } => {
            let n = args.scaled(n, 600);
            let directed = tr.span("graph.generate", |_| {
                planted_partition(SbmConfig {
                    n,
                    communities: n / community_size,
                    internal_degree: 40.0,
                    external_degree: 16.0,
                    skew: None,
                    seed: args.seed,
                })
            });
            tr.span("graph.convert", |_| from_undirected_edges(&directed))
        }
        GraphSpec::Rmat { scale } => {
            // 2^-4 is the nearest power of two to a twentieth.
            let scale = if args.smoke { scale - 4 } else { scale };
            let directed =
                tr.span("graph.generate", |_| rmat(RmatConfig::graph500(scale, 24, args.seed)));
            tr.span("graph.convert", |_| to_weighted_undirected(&directed))
        }
    })
}

fn config(spec: &ColdSpec) -> SpinnerConfig {
    let mut cfg = SpinnerConfig::new(spec.k).with_transport(spec.transport);
    cfg.num_workers = spec.workers;
    cfg.num_threads = spec.threads;
    cfg.max_iterations = spec.iterations;
    cfg.ignore_halting = true;
    cfg
}

/// The LPA seed of op `i` of a run seeded `seed`.
fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i as u64 % SUB_SEEDS)
}

/// Output checks shared by monolith and replica; remembers the label digest of
/// each LPA seed's first run.
fn check(
    out: &mut Outcome,
    spec: &ColdSpec,
    graph: &UndirectedGraph,
    labels: &[Label],
    quality: &PartitionQuality,
    seen: &mut [Option<u64>],
    i: usize,
) {
    let d = digest(labels);
    if labels.len() != graph.num_vertices() as usize {
        out.fail_op(&format!(
            "op {i}: {} labels for {} vertices",
            labels.len(),
            graph.num_vertices()
        ));
    } else if labels.iter().any(|&l| l >= spec.k) {
        out.fail_op(&format!("op {i}: a label is >= k"));
    } else if quality.rho > spec.rho_limit || quality.rho.is_nan() {
        out.fail_op(&format!("op {i}: rho {} above {}", quality.rho, spec.rho_limit));
    } else if seen[i % SUB_SEEDS as usize].is_some_and(|first| first != d) {
        out.fail_op(&format!("op {i}: labels differ from the first run of the same seed"));
    }
    seen[i % SUB_SEEDS as usize].get_or_insert(d);
}

/// Runs a cold workload: the untraced end-to-end run, or the traced one.
pub fn run(name: &str, spec: &ColdSpec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let mut graph = build_graph(&mut tr, spec, args);
    for _ in 1..spec.setup_reps {
        drop(graph);
        graph = build_graph(&mut tr, spec, args);
    }
    out.notes.push(("vertices", graph.num_vertices().to_string()));
    out.notes.push(("edges", graph.num_edges().to_string()));
    out.notes.push(("setup_reps", spec.setup_reps.to_string()));
    let mut cfg = config(spec);
    let mut seen = vec![None; SUB_SEEDS as usize];

    let mut first_ms = 0.0;
    for i in 0..WARMUP_OPS {
        cfg.seed = sub_seed(args.seed, i);
        let t = Instant::now();
        let r = partition(&graph, &cfg);
        if i == 0 {
            first_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        check(&mut out, spec, &graph, &r.labels, &r.quality, &mut seen, i);
    }

    if args.trace {
        traced(&mut out, &mut tr, spec, args, &graph, &mut cfg, &mut seen, first_ms);
        let json = tr.to_json(name, args.seed, "");
        crate::write_trace(&mut out, args, name, &json);
        return out;
    }

    let ops = MIN_TIMED_OPS.max((args.seconds / spec.nominal_op_s).round() as usize);
    let (mut ms, mut phis, mut rhos) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..ops {
        cfg.seed = sub_seed(args.seed, i);
        let t = Instant::now();
        let r = partition(black_box(&graph), &cfg);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        check(&mut out, spec, &graph, &r.labels, &r.quality, &mut seen, i);
        phis.push(r.quality.phi);
        rhos.push(r.quality.rho);
    }
    out.note_timed_ops(&ms);
    out.set("setup_s", median(&tr.per_op_ms("setup")) / 1e3);
    out.set("op_p50_ms", median(&ms));
    out.set("ops_per_s", ops as f64 / (ms.iter().sum::<f64>() / 1e3));
    out.set("phi", median(&phis));
    out.set("rho", median(&rhos));
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// `spinner_core::driver::engine_config`, which is private: the engine
/// settings `partition` derives from a `SpinnerConfig`.
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

/// What a replica op returns beside its spans.
struct Replica {
    labels: Vec<Label>,
    quality: PartitionQuality,
    summary: RunSummary,
    iterations: u32,
}

/// `partition` re-assembled from the public functions beneath it, a span
/// around each. `run_span` names the `Engine::run` span so the probes (other
/// thread count, other transport) stay apart from the real ops.
fn partition_replica(
    tr: &mut Tracer,
    graph: &UndirectedGraph,
    cfg: &SpinnerConfig,
    root_span: &'static str,
    run_span: &'static str,
) -> Replica {
    tr.next_op();
    tr.span(root_span, |tr| {
        let n = graph.num_vertices();
        let initial = tr.span("core.random_labels", |_| random_labels(n, cfg.k, cfg.seed));
        let placement = tr.span("pregel.placement", |_| {
            Placement::hashed(n, cfg.num_workers, cfg.seed ^ 0x70C)
        });
        let mut engine = tr.span("pregel.engine_build", |_| {
            Engine::from_undirected(
                SpinnerProgram { cfg: cfg.clone(), start_phase: Phase::Initialize },
                graph,
                &placement,
                engine_config(cfg),
                |v| VertexState::new(initial[v as usize], true),
                |_, _, w| EdgeState { weight: w, neighbor_label: NO_LABEL },
            )
        });
        let summary = tr.span(run_span, |_| engine.run());
        let labels: Vec<Label> = tr.span("pregel.collect_values", |_| {
            engine.collect_values().into_iter().map(|v| v.label).collect()
        });
        let quality = tr.span("metrics.quality", |_| {
            spinner_metrics::quality(graph, &labels, cfg.k, cfg.c)
        });
        let iterations = engine.global().iteration;
        Replica { labels, quality, summary, iterations }
    })
}

/// Per-op engine numbers derived from a `RunSummary`.
#[derive(Default)]
struct EngineSeries {
    series: BTreeMap<&'static str, Vec<f64>>,
}

impl EngineSeries {
    fn push(&mut self, name: &'static str, value: f64) {
        self.series.entry(name).or_default().push(value);
    }

    fn add(&mut self, summary: &RunSummary, run_ns: f64, threads: usize, iterations: u32) {
        let t = summary.totals();
        let walls: Vec<f64> = summary.metrics.iter().map(|s| s.wall_ns as f64 / 1e3).collect();
        let wall_ns: f64 = summary.metrics.iter().map(|s| s.wall_ns as f64).sum();
        let workers = summary.metrics.first().map_or(0, |s| s.per_worker.len());
        let mut per_worker = vec![0f64; workers];
        for step in &summary.metrics {
            for (w, m) in step.per_worker.iter().enumerate() {
                per_worker[w] += m.compute_ns as f64;
            }
        }
        let compute_ns: f64 = per_worker.iter().sum();
        let reallocs: u64 = summary
            .metrics
            .iter()
            .flat_map(|s| s.per_worker.iter().map(|w| w.fabric_reallocs))
            .sum();
        self.push("pregel.supersteps", summary.supersteps as f64);
        self.push("pregel.computed_vertices", t.computed as f64);
        self.push("pregel.messages", t.messages as f64);
        self.push("pregel.remote_messages", t.remote_messages as f64);
        self.push("pregel.remote_records", t.remote_records as f64);
        self.push("pregel.ns_per_computed_vertex", run_ns / (t.computed.max(1)) as f64);
        self.push("pregel.ns_per_message", run_ns / (t.messages.max(1)) as f64);
        self.push("pregel.compute_share", compute_ns / (threads as f64 * wall_ns.max(1.0)));
        self.push("pregel.noncompute.ms", (wall_ns - compute_ns / threads as f64) / 1e6);
        self.push("pregel.superstep_wall.p50_us", median(&walls));
        self.push("pregel.superstep_wall.max_us", quantile(&walls, 1.0));
        self.push("pregel.fabric_reallocs", reallocs as f64);
        let mean = compute_ns / workers.max(1) as f64;
        self.push("pregel.worker_skew", quantile(&per_worker, 1.0) / mean.max(1.0));
        self.push("pregel.wire_bytes", t.wire_bytes as f64);
        self.push("pregel.wire_frames", t.wire_frames as f64);
        self.push("pregel.wire_folded", t.wire_folded as f64);
        self.push("pregel.wire_bytes_per_remote_message", t.wire_bytes_per_remote_message());
        self.push("pregel.retransmits", t.retransmits as f64);
        self.push("core.iterations", f64::from(iterations));
    }
}

#[allow(clippy::too_many_arguments)]
fn traced(
    out: &mut Outcome,
    tr: &mut Tracer,
    spec: &ColdSpec,
    args: &Args,
    graph: &UndirectedGraph,
    cfg: &mut SpinnerConfig,
    seen: &mut [Option<u64>],
    first_ms: f64,
) {
    // Monolith and replica alternate on the same seed, so slow stretches of
    // the machine hit both sides of the overhead comparison alike.
    let mut monolith_ms = Vec::new();
    let mut engine = EngineSeries::default();
    let mut frame_records = 0usize;
    for i in 0..TRACED_OPS {
        cfg.seed = sub_seed(args.seed, i);
        let t = Instant::now();
        let mono = partition(black_box(graph), cfg);
        monolith_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let rep = partition_replica(tr, graph, cfg, "core.partition", "pregel.engine_run");
        out.attempted += 1;
        check(out, spec, graph, &rep.labels, &rep.quality, seen, i);
        if digest(&rep.labels) != digest(&mono.labels) || rep.iterations != mono.iterations {
            out.error(format!("op {i}: the replica's labels differ from partition()'s"));
        }
        let run_ns = tr.per_op_ms("pregel.engine_run").last().copied().unwrap_or(0.0) * 1e6;
        engine.add(&rep.summary, run_ns, spec.threads, rep.iterations);
        let t = rep.summary.totals();
        let framed = t.remote_records - t.wire_folded;
        frame_records = framed.checked_div(t.wire_frames).unwrap_or(0) as usize;
    }

    for (name, values) in &engine.series {
        out.set(name, median(values));
    }
    out.set("graph.generate.ms", tr.median_ms("graph.generate"));
    out.set("graph.convert.ms", tr.median_ms("graph.convert"));
    out.set("graph.vertices", f64::from(graph.num_vertices()));
    out.set("graph.edges", graph.num_edges() as f64);
    out.set("metrics.quality.ms", tr.median_ms("metrics.quality"));
    out.set("pregel.engine_run.ms", tr.median_ms("pregel.engine_run"));
    out.set("pregel.engine_build.ms", tr.median_ms("pregel.engine_build"));
    out.set("pregel.placement.ms", tr.median_ms("pregel.placement"));
    out.set("pregel.collect_values.ms", tr.median_ms("pregel.collect_values"));
    out.set("core.partition.ms", tr.median_ms("core.partition"));
    out.set("core.partition.first_ms", first_ms);
    out.set("core.random_labels.ms", tr.median_ms("core.random_labels"));
    // Per pair, because the two sides of a pair ran back to back.
    let replica_ms = tr.per_op_ms("core.partition");
    let excess: Vec<f64> =
        replica_ms.iter().zip(&monolith_ms).map(|(r, m)| r / m - 1.0).collect();
    out.set("bench.trace_overhead_pct", median(&excess) * 100.0);
    let own = tr.self_ms("core.partition");
    out.set("core.partition.self_ms", median(&own));
    out.set(
        "bench.unattributed_pct",
        own.iter().sum::<f64>() / replica_ms.iter().sum::<f64>() * 100.0,
    );

    // Pool probe: the same ops on one thread say what the second thread buys.
    if spec.threads > 1 {
        let mut one = cfg.clone();
        one.num_threads = 1;
        probe(out, tr, graph, &mut one, args.seed, seen, "pregel.engine_run_1thread");
        let t1 = tr.median_ms("pregel.engine_run_1thread");
        out.set("pregel.engine_run_1thread.ms", t1);
        out.set(
            "pregel.parallel_efficiency",
            t1 / (spec.threads as f64 * tr.median_ms("pregel.engine_run")),
        );
    }

    // Wire probe: the same ops on the direct transport say what the wire
    // path costs; encode and decode are timed alone on a frame of the size
    // the run produced.
    if spec.transport != TransportKind::Direct {
        let mut direct = cfg.clone();
        direct.transport = TransportKind::Direct;
        probe(out, tr, graph, &mut direct, args.seed, seen, "pregel.engine_run_direct");
        let ring: Vec<f64> =
            tr.per_op_ms("pregel.engine_run").into_iter().take(PROBE_OPS).collect();
        out.set(
            "pregel.wire_overhead.ms",
            median(&ring) - tr.median_ms("pregel.engine_run_direct"),
        );
        let (enc, dec) =
            codec_ns_per_record(frame_records.max(1), graph.num_vertices(), spec.k);
        out.set("pregel.wire_encode.ns_per_record", enc);
        out.set("pregel.wire_decode.ns_per_record", dec);
    }
}

/// Re-runs the first `PROBE_OPS` ops under a varied configuration (`cfg`
/// differs from the workload's in thread count or transport only), with the
/// `Engine::run` span named `run_span`. Neither variation may change a label.
fn probe(
    out: &mut Outcome,
    tr: &mut Tracer,
    graph: &UndirectedGraph,
    cfg: &mut SpinnerConfig,
    seed: u64,
    seen: &[Option<u64>],
    run_span: &'static str,
) {
    for (i, expected) in seen.iter().take(PROBE_OPS).enumerate() {
        cfg.seed = sub_seed(seed, i);
        let rep = partition_replica(tr, graph, cfg, "probe.partition", run_span);
        if Some(digest(&rep.labels)) != *expected {
            out.error(format!("{run_span} probe {i}: labels differ from the workload's"));
        }
    }
}

/// Times `wire::encode_frame` / `decode_frame` on one frame shaped like the
/// run's: `records` broadcast records (Spinner announces labels on the
/// broadcast lane) with ascending sender ids and `(sender, label)` payloads.
fn codec_ns_per_record(records: usize, n: u32, k: u32) -> (f64, f64) {
    let step = (n as usize / records).max(1);
    let batch: Vec<WireRecord<(u32, u32)>> = (0..records)
        .map(|i| {
            let id = (i * step) as u32 % n;
            WireRecord { broadcast: true, id: u64::from(id), msg: (id, id % k) }
        })
        .collect();
    // Enough repetitions for ~20 ms per side at a few ns per record.
    let reps = (4_000_000 / records).max(10);
    let mut buf = Vec::new();
    let t = Instant::now();
    for _ in 0..reps {
        buf.clear();
        buf = encode_frame(WireFormat::Compact, black_box(&batch), 0, buf);
    }
    let enc = t.elapsed().as_nanos() as f64 / (reps * records) as f64;
    let (mut ids, mut decoded) = (Vec::new(), Vec::new());
    let t = Instant::now();
    for _ in 0..reps {
        decoded.clear();
        decode_frame::<(u32, u32)>(black_box(&buf), &mut ids, &mut decoded)
            .expect("a frame this process encoded");
    }
    let dec = t.elapsed().as_nanos() as f64 / (reps * records) as f64;
    assert_eq!(decoded, batch, "codec round trip");
    (enc, dec)
}
