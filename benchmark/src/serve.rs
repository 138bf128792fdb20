//! `serve_lookup`: `RoutingReader::lookup` on the main thread while a writer
//! thread publishes the next epoch on an open-loop schedule — the *read* use
//! of the routing table beside `stream_churn`'s write use. The engine does
//! nothing here once set-up has produced the placements.

use crate::report::{peak_rss_mb, Args, Outcome};
use crate::stats::{highest_supported_percentile, median, median_or_zero, quantile};
use crate::stream::{build_session, SessionSpec};
use crate::trace::{LogHistogram, Tracer};
use spinner_core::StreamEvent;
use spinner_graph::rng::SplitMix64;
use spinner_pregel::WorkerId;
use spinner_serving::{RoutingReader, RoutingTable};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Routing-table entries at full scale: 8 MB per buffer, twice the 4 MB L2
/// of the build container. One short of 4 Mi so the table's power-of-two
/// segments are filled exactly instead of allocating the next 8 MB one.
const ENTRIES: u32 = 4096 * 1023;
/// Distinct placements the writer cycles through; epoch `e` serves array
/// `e % EPOCHS`.
const EPOCHS: usize = 4;
/// Lookups per op.
const BATCH: usize = 4096;
/// Every `SAMPLE`-th lookup of a batch is verified against the expected
/// placement (after the batch's clock has stopped).
const SAMPLE: usize = 64;
/// Pre-generated uniform ids, cycled batch by batch.
const ID_POOL: usize = 1 << 20;
/// The writer's schedule. A publish of the full table takes about a fifth of
/// the period, so the writer is busy about a fifth of the time.
const PUBLISH_PERIOD: Duration = Duration::from_millis(100);
/// Length of the trace run's aggregate spans.
const INTERVAL: Duration = Duration::from_millis(100);

/// The session whose successive placements fill the table: entry `v` of
/// epoch `e` is the worker hosting vertex `v mod n` after window `e`. The
/// vertex count grows from window to window, so the epochs' tables differ
/// almost everywhere, which gives the sampled check its teeth.
const SESSION: SessionSpec =
    SessionSpec { n: 30_000, community_size: 60, k: 16, workers: 16, threads: 1 };

/// Everything set-up hands to the measured part.
struct Input {
    arrays: Vec<Vec<WorkerId>>,
    ids: Vec<u32>,
    workers: usize,
    phi: f64,
    rho: f64,
    session_vertices: u32,
    session_edges: u64,
}

fn build(tr: &mut Tracer, args: &Args) -> (RoutingTable, Input) {
    tr.next_op();
    tr.span("setup", |tr| {
        let (mut session, deltas) = build_session(tr, &SESSION, args, EPOCHS - 1);
        let mut placements = vec![session.placement().as_slice().to_vec()];
        for delta in deltas {
            tr.span("core.apply_delta", |_| {
                session.apply(StreamEvent::Delta(delta));
            });
            placements.push(session.placement().as_slice().to_vec());
        }
        let entries = args.scaled(ENTRIES, 4096) as usize;
        let (table, arrays) = tr.span("serving.table_build", |_| {
            let arrays: Vec<Vec<WorkerId>> = placements
                .iter()
                .map(|p| (0..entries).map(|v| p[v % p.len()]).collect())
                .collect();
            let mut table = RoutingTable::with_capacity(entries as u32);
            table.publish_at(1, &arrays[1 % EPOCHS]);
            (table, arrays)
        });
        let ids = tr.span("bench.lookup_ids", |_| {
            let mut rng = SplitMix64::new(args.seed ^ 0x1D5);
            (0..ID_POOL).map(|_| rng.next_bounded(entries as u64) as u32).collect()
        });
        let input = Input {
            arrays,
            ids,
            workers: SESSION.workers,
            phi: session.last().phi(),
            rho: session.last().rho(),
            session_vertices: session.undirected().num_vertices(),
            session_edges: session.undirected().num_edges(),
        };
        (table, input)
    })
}

/// One scheduled publish, in nanoseconds since the tracer's origin.
struct Publish {
    due_ns: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The writer thread: publishes epoch after epoch, one every
/// `PUBLISH_PERIOD`, on a schedule that does not wait for a slow publish
/// (open loop). Returns its log once `stop` is set.
fn writer(
    table: &mut RoutingTable,
    arrays: &[Vec<WorkerId>],
    origin: Instant,
    stop: &AtomicBool,
) -> Vec<Publish> {
    let period = PUBLISH_PERIOD.as_nanos() as u64;
    let now = || origin.elapsed().as_nanos() as u64;
    let mut log = Vec::new();
    let mut epoch = table.head();
    let mut due_ns = now() + period;
    // Nothing but the flag is published through it, so `Relaxed` will do.
    while !stop.load(Ordering::Relaxed) {
        let t = now();
        if t < due_ns {
            // Short naps, so a stop request is seen within 2 ms.
            std::thread::sleep(Duration::from_nanos((due_ns - t).min(2_000_000)));
            continue;
        }
        epoch += 1;
        let start_ns = now();
        table.publish_at(epoch, &arrays[epoch as usize % EPOCHS]);
        log.push(Publish { due_ns, start_ns, end_ns: now() });
        due_ns += period;
    }
    log
}

/// What one serving phase measured.
#[derive(Default)]
struct Phase {
    /// Nanoseconds per batch.
    batch_ns: Vec<u32>,
    failed: u64,
    /// Why the first failed batch failed.
    first_failure: Option<&'static str>,
    staleness_max: u64,
    wall_ns: u64,
}

impl Phase {
    fn batch_ms(&self) -> Vec<f64> {
        self.batch_ns.iter().map(|&ns| f64::from(ns) / 1e6).collect()
    }

    fn busy_ns(&self) -> f64 {
        self.batch_ns.iter().map(|&ns| f64::from(ns)).sum()
    }
}

/// Looks up batch after batch for `length`. With `trace`, also counts each
/// batch into the histogram and closes an aggregate span every `INTERVAL`.
fn serve(
    input: &Input,
    reader: &RoutingReader,
    length: Duration,
    mut trace: Option<(&mut Tracer, &mut LogHistogram)>,
) -> Phase {
    let mut phase = Phase::default();
    phase.batch_ns.reserve((length.as_secs_f64() * 80_000.0) as usize);
    let mut samples = [(0 as WorkerId, 0u64); BATCH / SAMPLE];
    let mut pos = 0;
    let begin = Instant::now();
    let mut interval = (begin, 0u64);
    while begin.elapsed() < length {
        let ids = &input.ids[pos..pos + BATCH];
        pos = (pos + BATCH) % ID_POOL;
        let head_before = reader.head();

        let t = Instant::now();
        let (mut misses, mut max_worker, mut min_epoch) = (0u32, 0 as WorkerId, u64::MAX);
        for (j, &id) in ids.iter().enumerate() {
            match reader.lookup(id) {
                Some(hit) => {
                    max_worker = max_worker.max(hit.worker());
                    min_epoch = min_epoch.min(hit.epoch());
                    if j % SAMPLE == 0 {
                        samples[j / SAMPLE] = (hit.worker(), hit.epoch());
                    }
                }
                None => misses += 1,
            }
        }
        let took = t.elapsed();
        phase.batch_ns.push(took.as_nanos() as u32);

        // A lookup answers from the head it read when it began, so nothing in
        // the batch may be older than the head read before the batch.
        let wrong = samples.iter().enumerate().any(|(s, &(worker, epoch))| {
            input.arrays[epoch as usize % EPOCHS][ids[s * SAMPLE] as usize] != worker
        });
        let why = if misses > 0 {
            Some("a lookup missed")
        } else if usize::from(max_worker) >= input.workers {
            Some("a lookup named a worker that does not exist")
        } else if min_epoch < head_before {
            Some("a lookup answered from an epoch older than the head it began under")
        } else if wrong {
            Some("a sampled lookup disagrees with the expected placement")
        } else {
            None
        };
        if let Some(why) = why {
            phase.failed += 1;
            phase.first_failure.get_or_insert(why);
        }
        phase.staleness_max = phase.staleness_max.max(reader.head().saturating_sub(min_epoch));

        if let Some((tr, hist)) = trace.as_mut() {
            hist.record(took.as_nanos() as u64);
            interval.1 += 1;
            if interval.0.elapsed() >= INTERVAL {
                let start = interval.0.duration_since(tr.origin()).as_nanos() as u64;
                tr.record("serving.lookup_interval", start, tr.now_ns(), interval.1);
                interval = (Instant::now(), 0);
            }
        }
    }
    phase.wall_ns = begin.elapsed().as_nanos() as u64;
    phase
}

/// Runs the workload: the untraced end-to-end run, or the traced one.
pub fn run(name: &str, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    // One build: repeating it leaves the heap fragmented by a seed-dependent
    // amount, which made `peak_rss_mb` spread 9 % across seeds against 1.4 %.
    let (mut table, input) = build(&mut tr, args);
    let seconds = if args.smoke { args.seconds / 20.0 } else { args.seconds };
    out.notes.push(("table_entries", input.arrays[0].len().to_string()));
    out.notes.push(("publish_period_ms", PUBLISH_PERIOD.as_millis().to_string()));

    let reader = table.reader();
    let reallocs_at_start = table.reallocs();
    let stop = AtomicBool::new(false);
    let origin = tr.origin();
    let mut hist = LogHistogram::new();
    let (input, stop) = (&input, &stop);
    let stretch = |share: f64| Duration::from_secs_f64(seconds * share);

    // Trace run: a stretch without tracing (the overhead baseline), the
    // traced stretch and, once the writer has gone, a quiet stretch.
    let (churn, plain, publishes) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| writer(&mut table, &input.arrays, origin, stop));
        // Warm-up: page in the table and the id pool.
        serve(input, &reader, stretch(0.02), None);
        let (churn, plain) = if args.trace {
            let plain = serve(input, &reader, stretch(0.15), None);
            (serve(input, &reader, stretch(0.6), Some((&mut tr, &mut hist))), Some(plain))
        } else {
            (serve(input, &reader, stretch(1.0), None), None)
        };
        stop.store(true, Ordering::Relaxed);
        (churn, plain, handle.join().expect("writer thread"))
    });
    let quiet = args.trace.then(|| serve(input, &reader, stretch(0.15), None));

    // A publish that finishes after its successor was due has fallen behind
    // the schedule: the table could not keep up with the epoch rate.
    let period = PUBLISH_PERIOD.as_nanos() as u64;
    let late = publishes.iter().filter(|p| p.end_ns > p.due_ns + period).count() as u64;
    if late > 0 {
        eprintln!("op failed: {late} publishes finished after the next one was due");
    }
    out.attempted = churn.batch_ns.len() as u64 + publishes.len() as u64;
    out.failed = late;
    for phase in [Some(&churn), plain.as_ref(), quiet.as_ref()].into_iter().flatten() {
        out.failed += phase.failed;
        if let Some(why) = phase.first_failure {
            eprintln!("op failed: {} batches, the first because {why}", phase.failed);
        }
    }
    out.notes.push(("publishes", publishes.len().to_string()));

    let batch_ms = churn.batch_ms();
    out.note_timed_ops(&batch_ms);
    if !args.trace {
        out.set("setup_s", median(&tr.per_op_ms("setup")) / 1e3);
        out.set("op_p50_ms", median(&batch_ms));
        out.set("ops_per_s", batch_ms.len() as f64 / (churn.busy_ns() / 1e9));
        out.set("phi", input.phi);
        out.set("rho", input.rho);
        out.set("peak_rss_mb", peak_rss_mb());
        return out;
    }

    for p in &publishes {
        tr.record("serving.publish", p.start_ns, p.end_ns, 1);
    }
    let per_lookup_ns = |phase: &Phase| median(&phase.batch_ms()) * 1e6 / BATCH as f64;
    let (plain, quiet) = (plain.expect("trace run"), quiet.expect("trace run"));
    out.set("graph.generate.ms", tr.median_ms("graph.generate"));
    out.set("graph.delta_sample.ms", tr.median_ms("graph.delta_sample"));
    out.set("graph.vertices", f64::from(input.session_vertices));
    out.set("graph.edges", input.session_edges as f64);
    out.set("core.session_new.ms", tr.median_ms("core.session_new"));
    out.set("core.apply_delta.ms", median_or_zero(&tr.each_ms("core.apply_delta")));
    out.set("serving.publish.ms", median_or_zero(&tr.each_ms("serving.publish")));
    out.set("serving.publish_late", late as f64);
    out.set(
        "serving.publish_lateness.p50_ms",
        median(
            &publishes.iter().map(|p| (p.start_ns - p.due_ns) as f64 / 1e6).collect::<Vec<_>>(),
        ),
    );
    out.set("serving.seqlock_retries", table.retries() as f64);
    out.set("serving.routing_reallocs", (table.reallocs() - reallocs_at_start) as f64);
    out.set("serving.staleness_max_epochs", churn.staleness_max as f64);
    out.set("serving.lookup.ns", per_lookup_ns(&churn));
    if highest_supported_percentile(batch_ms.len()).is_some_and(|p| p >= 99.0) {
        out.set("serving.lookup_batch.p99_us", quantile(&batch_ms, 0.99) * 1e3);
    }
    out.set("serving.lookups_per_s", (batch_ms.len() * BATCH) as f64 / (churn.busy_ns() / 1e9));
    out.set("serving.lookup_quiescent.ns", per_lookup_ns(&quiet));
    out.set(
        "serving.churn_drop_pct",
        (1.0 - per_lookup_ns(&quiet) / per_lookup_ns(&churn)) * 100.0,
    );
    out.set(
        "bench.trace_overhead_pct",
        (per_lookup_ns(&churn) / per_lookup_ns(&plain) - 1.0) * 100.0,
    );
    out.set("bench.unattributed_pct", (1.0 - churn.busy_ns() / churn.wall_ns as f64) * 100.0);
    let json = tr.to_json(name, args.seed, &hist.to_json_member());
    crate::write_trace(&mut out, args, name, &json);
    out
}
