//! One composed fault schedule for a serving node. A random stream of
//! graph deltas, elastic resizes and worker losses runs on the Ring wire
//! under a seeded plan of recoverable transport faults, while the storage
//! is killed at *every* op index in turn (snapshot write, WAL reset, each
//! append). After every window the node's invariants are checked; after
//! each death a new node resumes over the same medium, finishes the
//! stream, and must be bit-identical to an uninterrupted, fault-free run.
//! No surviving kill point may lose an acknowledged window or invent one.
//!
//! A deterministic test covers the recoveries such a reference cannot: a
//! reported worker loss and a stalled sender escalating to lane death,
//! with a reader thread checking every lookup it makes against the
//! placement of the epoch the lookup names.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use proptest::prelude::*;
use spinner_core::{SpinnerConfig, StreamEvent, StreamSession};
use spinner_graph::generators::{planted_partition, SbmConfig};
use spinner_graph::{DirectedGraph, GraphBuilder, GraphDelta};
use spinner_pregel::{TransportFault, TransportFaultPlan, TransportKind, WorkerId};
use spinner_serving::{
    Fault, FaultPlan, FaultyStorage, Health, MemStorage, PersistError, ResumeStats,
    RetryPolicy, ServingNode, SessionStore,
};

const WORKERS: usize = 8;

fn base_graph(n: u32, seed: u64) -> DirectedGraph {
    let mut edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    let mut rng = seed | 1;
    for _ in 0..n * 2 {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let a = (rng >> 33) as u32 % n;
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let b = (rng >> 33) as u32 % n;
        if a != b {
            edges.push((a, b));
        }
    }
    GraphBuilder::new(n).add_edges(edges).build()
}

fn cfg(k: u32, seed: u64) -> SpinnerConfig {
    let mut cfg = SpinnerConfig::new(k).with_seed(seed).with_transport(TransportKind::Ring);
    cfg.num_workers = WORKERS;
    cfg.num_threads = 2;
    cfg.max_iterations = 10;
    cfg.placement_feedback = Some(0.05);
    cfg
}

/// A growth delta keyed off the current vertex count `n`.
fn grow(kind: u8, seed: u64, n: u32) -> StreamEvent {
    let mut rng = seed | 1;
    let new_vertices = 4 + (kind % 8) as u32;
    let mut added = Vec::new();
    for i in 0..6 {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let a = (rng >> 33) as u32 % n;
        added.push((a, n + (i % new_vertices)));
    }
    StreamEvent::Delta(GraphDelta { new_vertices, added_edges: added, removed_edges: vec![] })
}

/// Turns a proptest-drawn spec into a concrete event for `session`'s next
/// window: a growth delta, an elastic resize, or the loss of the worker
/// hosting a random vertex (so the loss always has state to recover).
fn materialize(spec: (u8, u64), session: &StreamSession) -> StreamEvent {
    let (kind, seed) = spec;
    let placement = session.placement().as_slice();
    match kind % 6 {
        4 => StreamEvent::Resize { k: 2 + u32::from(kind / 6 % 3) },
        5 => StreamEvent::WorkerLoss { worker: placement[seed as usize % placement.len()] },
        _ => grow(kind, seed, session.graph().num_vertices()),
    }
}

/// The invariants every window leaves behind: labels below `k`, every
/// lookup answering the live placement at the node's epoch with a real
/// worker, and — while the node is Healthy — a store on `disk` that
/// decodes to exactly the live labels and placement.
fn check_window(node: &ServingNode, disk: &MemStorage) -> Result<(), TestCaseError> {
    let session = node.session();
    let k = session.k();
    prop_assert!(session.labels().iter().all(|&l| l < k), "a label is not below k = {}", k);
    let placement = session.placement().as_slice();
    for (v, &w) in placement.iter().enumerate() {
        let Some(hit) = node.lookup(v as u32) else {
            return Err(TestCaseError::fail(format!("vertex {v} is not routed")));
        };
        prop_assert_eq!((hit.worker(), hit.epoch()), (w, node.epoch()), "vertex {}", v);
        prop_assert!(usize::from(w) < WORKERS, "vertex {} on retired worker {}", v, w);
    }
    if node.health() == Health::Healthy {
        let (state, _, _) = SessionStore::load_on(Box::new(disk.clone()))
            .map_err(|e| TestCaseError::fail(format!("a Healthy node's store: {e}")))?;
        prop_assert_eq!(state.labels.as_slice(), session.labels());
        prop_assert_eq!(state.placement.as_slice(), placement);
    }
    Ok(())
}

/// Resumes a node from `disk` onto the Ring transport and two threads,
/// the runtime settings of [`cfg`], which a store does not keep.
fn resume_on_the_wire(disk: &MemStorage) -> Result<(ServingNode, ResumeStats), PersistError> {
    let (mut state, store, stats) = SessionStore::load_on(Box::new(disk.clone()))?;
    state.cfg.transport = TransportKind::Ring;
    state.cfg.num_threads = 2;
    Ok((ServingNode::resume(state, store), stats))
}

/// Worker losses that reseeded state, resizes that changed `k`, and
/// transport faults injected, summed over every case of the schedule.
static WORKER_LOSSES: AtomicU64 = AtomicU64::new(0);
static RESIZES: AtomicU64 = AtomicU64::new(0);
static TRANSPORT_FAULTS: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For a random stream and a seeded recoverable transport plan,
    /// schedule a process death at every storage op index the
    /// uninterrupted run would perform — op 0 is the bootstrap snapshot,
    /// op 1 the WAL reset, op `2 + i` window `i`'s append — and verify each
    /// death point resumes to the fault-free reference's exact state.
    /// `keep` tears that many bytes of a killed append onto the medium
    /// first, exercising the torn-tail truncation path. Recoverable
    /// transport faults are invisible and a worker loss is a logged event,
    /// so the reference holds through both.
    fn composed_fault_schedule(
        seed in 0u64..1000,
        specs in prop::collection::vec((any::<u8>(), any::<u64>()), 2..5),
        keep in 0usize..12,
        fault_seed in any::<u64>(),
    ) {
        let n0 = 200;
        let plan = TransportFaultPlan::seeded(fault_seed, WORKERS, 64, 0.01);

        // Reference: one uninterrupted, fault-free session over the stream.
        let mut reference = StreamSession::new(base_graph(n0, seed), cfg(3, seed));
        let mut events = Vec::new();
        for &spec in &specs {
            let event = materialize(spec, &reference);
            let k_before = reference.k();
            let report = reference.apply(event.clone());
            match event {
                StreamEvent::WorkerLoss { .. } if report.is_recovery() => {
                    WORKER_LOSSES.fetch_add(1, Ordering::Relaxed);
                }
                StreamEvent::Resize { k } if k != k_before => {
                    RESIZES.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
            events.push(event);
        }
        let total_ops = 2 + events.len() as u64;

        for kill_op in 0..total_ops {
            let disk = MemStorage::new();
            let kill = FaultPlan::new().fail(kill_op, Fault::Kill { keep });
            let storage = FaultyStorage::new(disk.clone(), kill);
            // No retries, no grace: the first failure after the kill is the
            // moment the "process" stops ingesting.
            let policy = RetryPolicy {
                attempts: 1,
                base_backoff: Duration::ZERO,
                max_degraded_windows: 0,
            };

            // Run until the kill fires; count windows acknowledged durable.
            let mut durable = 0usize;
            if let Ok(node) = ServingNode::with_storage(
                StreamSession::new(base_graph(n0, seed), cfg(3, seed)),
                Box::new(storage),
            ) {
                let mut node = node.with_retry_policy(policy);
                node.inject_transport_faults(plan.clone());
                check_window(&node, &disk)?;
                for event in &events {
                    match node.ingest(event.clone()) {
                        Ok(rep) if rep.health() == Health::Healthy => durable += 1,
                        _ => break, // storage dead — the process dies here
                    }
                    check_window(&node, &disk)?;
                }
                let (injected, _) = node.session().transport_chaos_counts();
                TRANSPORT_FAULTS.fetch_add(injected, Ordering::Relaxed);
                drop(node); // the crash
            }
            if kill_op >= 2 {
                prop_assert_eq!(durable as u64, kill_op - 2, "kill at op {}", kill_op);
            } else {
                prop_assert_eq!(durable, 0, "store creation died at op {}", kill_op);
            }

            // Restart over the same medium and finish the stream.
            let (mut node, start) =
                match resume_on_the_wire(&disk) {
                    Ok((node, stats)) => {
                        prop_assert_eq!(
                            stats.replayed_windows, durable,
                            "kill at op {} lost or invented a window", kill_op
                        );
                        // A killed append with torn bytes leaves a tail the
                        // resume must discard; a clean kill leaves none.
                        let torn = keep > 0 && kill_op >= 2;
                        prop_assert_eq!(stats.truncated_tail, torn);
                        prop_assert_eq!(stats.truncated_bytes > 0, torn);
                        (node, durable)
                    }
                    Err(_) => {
                        // Only a death before the bootstrap snapshot landed
                        // loses the store entirely; recreate from scratch.
                        prop_assert_eq!(kill_op, 0, "post-snapshot death must resume");
                        let node = ServingNode::with_storage(
                            StreamSession::new(base_graph(n0, seed), cfg(3, seed)),
                            Box::new(disk.clone()),
                        )
                        .expect("clean medium");
                        (node, 0)
                    }
                };
            node.inject_transport_faults(plan.clone());
            check_window(&node, &disk)?;
            for event in &events[start..] {
                node.ingest(event.clone()).expect("ingest after resume");
                check_window(&node, &disk)?;
            }
            let (injected, _) = node.session().transport_chaos_counts();
            TRANSPORT_FAULTS.fetch_add(injected, Ordering::Relaxed);

            prop_assert_eq!(node.session().labels(), reference.labels());
            prop_assert_eq!(
                node.session().placement().as_slice(),
                reference.placement().as_slice()
            );
            prop_assert_eq!(node.session().windows().len(), reference.windows().len());
            for (a, b) in node.session().windows().iter().zip(reference.windows()) {
                prop_assert_eq!(a.phi().to_bits(), b.phi().to_bits());
                prop_assert_eq!(a.rho().to_bits(), b.rho().to_bits());
                prop_assert_eq!(a.messages(), b.messages());
                prop_assert_eq!(a.lost_vertices(), b.lost_vertices());
            }
            prop_assert_eq!(node.epoch(), reference.windows().len() as u64);

            // And the finished store itself resumes clean — the recovery
            // left no torn or stale bytes behind.
            let (again, stats) = resume_on_the_wire(&disk).expect("final resume");
            prop_assert!(!stats.truncated_tail);
            prop_assert_eq!(again.session().labels(), reference.labels());
        }
    }
}

/// Runs the composed schedule, then checks that its cases exercised every
/// fault it composes: a worker loss that reseeded state, a resize that
/// changed `k`, and an injected transport fault.
#[test]
fn kill_at_every_op_index_resumes_bit_identical() {
    composed_fault_schedule();
    for (fault, fired) in [
        ("worker loss", &WORKER_LOSSES),
        ("resize", &RESIZES),
        ("transport fault", &TRANSPORT_FAULTS),
    ] {
        assert!(fired.load(Ordering::Relaxed) > 0, "no {fault} fired in any case");
    }
}

/// The worker whose loss the deterministic test reports.
const LOST_WORKER: WorkerId = 5;
/// The sender whose lanes the deterministic test stalls.
const STALLED_SENDER: usize = 3;

/// `(vertex, epoch, worker, head before the call)` for every lookup the
/// reader thread made, and how many lookups went unanswered.
type Samples = (Vec<(u32, u64, WorkerId, u64)>, u64);

/// Samples lookups through `node`'s reader until `stop`, pausing a few
/// microseconds between them so a long run stays small. Returns once the
/// reader has made its first lookup.
fn sample_lookups(
    node: &ServingNode,
    stop: &Arc<AtomicBool>,
) -> std::thread::JoinHandle<Samples> {
    let reader = node.reader();
    let stop = Arc::clone(stop);
    let started = Arc::new(Barrier::new(2));
    let handle = {
        let started = Arc::clone(&started);
        std::thread::spawn(move || {
            let (mut samples, mut misses) = (Vec::new(), 0u64);
            let mut rng = 0x2545_F491_4F6C_DD1Du64;
            loop {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let head = reader.head();
                let v = (rng >> 33) as u32 % reader.len() as u32;
                match reader.lookup(v) {
                    Some(hit) => samples.push((v, hit.epoch(), hit.worker(), head)),
                    None => misses += 1,
                }
                if samples.len() as u64 + misses == 1 {
                    started.wait();
                }
                if stop.load(Ordering::Relaxed) {
                    return (samples, misses);
                }
                std::thread::sleep(Duration::from_micros(20));
            }
        })
    };
    started.wait();
    handle
}

/// The two recoveries a fault-free reference cannot cover, on one live
/// node with a reader thread sampling lookups throughout: a reported
/// worker loss, and a stalled sender whose lanes die and escalate into the
/// same reseed. Before them, a scripted plan of every recoverable fault
/// kind must leave every window's labels bit-identical to a clean run at a
/// pinned repair cost, with an allocation-free empty-delta probe window.
#[test]
fn worker_loss_and_lane_death_recover_under_live_lookups() {
    // A converged partition of a community graph, so a recovery has a
    // partition worth keeping.
    let graph = planted_partition(SbmConfig {
        n: 800,
        communities: WORKERS as u32,
        internal_degree: 8.0,
        external_degree: 0.5,
        skew: None,
        seed: 5,
    });
    let converging = SpinnerConfig { max_iterations: 100, ..cfg(WORKERS as u32, 5) };
    let state0 = StreamSession::new(graph, converging).state();
    let mut n = state0.graph.num_vertices();
    let mut deltas = (0..8u64).map(|i| {
        let event = grow(0, 0x9E37 + i, n);
        n += 4;
        event
    });

    // Recoverable faults are invisible, counted, and leave no allocation
    // behind in the steady state: a churn window, a resize (a warm window
    // on a converged partition ships frames only for its migrations, and a
    // resize migrates on every lane), another churn window, then an
    // empty-delta probe window that runs on warm buffers.
    let probe = StreamEvent::Delta(GraphDelta::default());
    let resize = StreamEvent::Resize { k: 2 * WORKERS as u32 };
    let events = [resize, deltas.next().unwrap(), deltas.next().unwrap(), probe];
    #[derive(Default)]
    struct WireRun {
        labels: Vec<Vec<u32>>,
        retransmits: u64,
        frames: u64,
        repairs: u64,
        probe_reallocs: u64,
    }
    let run = |plan: Option<TransportFaultPlan>| {
        let mut session = StreamSession::from_state(state0.clone());
        let scripted = plan.as_ref().map_or(0, TransportFaultPlan::remaining) as u64;
        if let Some(plan) = plan {
            session.inject_transport_faults(plan);
        }
        let mut out = WireRun::default();
        for (i, event) in events.iter().enumerate() {
            if i + 1 == events.len() {
                // Every scripted fault fired before the probe.
                assert_eq!(session.transport_chaos_counts(), (scripted, 0));
            }
            let report = session.apply(event.clone());
            out.retransmits += report.retransmits();
            out.frames += report.wire_frames();
            out.probe_reallocs = report.fabric_reallocs();
            out.labels.push(session.labels().to_vec());
        }
        out.repairs = session.transport_recv_stats().recovery_actions();
        out
    };
    let clean = run(None);
    assert_eq!((clean.retransmits, clean.repairs), (0, 0), "a clean wire repairs nothing");
    let plan = TransportFaultPlan::new()
        .fail(0, 1, 0, TransportFault::Drop)
        .fail(1, 2, 1, TransportFault::Duplicate)
        .fail(2, 3, 0, TransportFault::Reorder { window: 2 })
        .fail(3, 0, 1, TransportFault::FlipBit { bit: 17 })
        .fail(4, 5, 0, TransportFault::Torn { keep: 3 })
        .fail(5, 6, 0, TransportFault::Delay { ticks: 2 });
    let faulty = run(Some(plan));
    assert_eq!(faulty.labels, clean.labels, "recoverable faults must be invisible");
    assert_eq!((faulty.retransmits, faulty.repairs), (4, 8), "pinned repair cost");
    assert!(faulty.retransmits * 10 <= faulty.frames, "retransmit ratio above 0.1");
    assert_eq!(faulty.probe_reallocs, clean.probe_reallocs, "the probe allocated");

    // The live node: every published epoch's placement, indexed by epoch.
    let mut node = ServingNode::new(StreamSession::from_state(state0.clone()));
    let mut placements = vec![Vec::new(), node.session().placement().as_slice().to_vec()];
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = sample_lookups(&node, &stop);
    let mut ingest = |node: &mut ServingNode, event: StreamEvent| {
        let report = node.ingest(event).expect("no store attached");
        assert_eq!(report.epoch(), placements.len() as u64);
        placements.push(node.session().placement().as_slice().to_vec());
        report.report().clone()
    };
    let hosted_by = |node: &ServingNode, w: WorkerId| {
        node.session().placement().as_slice().iter().filter(|&&p| p == w).count() as u64
    };

    let before = ingest(&mut node, deltas.next().unwrap());
    let hosted = hosted_by(&node, LOST_WORKER);
    let labels_before = node.session().labels().to_vec();
    let loss = ingest(&mut node, StreamEvent::WorkerLoss { worker: LOST_WORKER });
    let moved =
        labels_before.iter().zip(node.session().labels()).filter(|(a, b)| a != b).count();
    assert_eq!((loss.lost_vertices(), moved), (100, 0), "pinned worker-loss recovery");
    assert_eq!(loss.lost_vertices(), hosted, "the loss reseeds exactly the hosted vertices");
    assert!((moved as u64) < 2 * hosted, "recovery moved {moved} labels for {hosted} lost");
    let after = ingest(&mut node, deltas.next().unwrap());
    assert!(!after.is_recovery());
    assert!(after.phi() >= before.phi() - 0.05, "phi {} -> {}", before.phi(), after.phi());
    assert!(after.rho() <= node.session().config().c + 0.15, "rho {}", after.rho());

    // A resize leaves the partition still migrating into the next window,
    // so the stalled sender has frames to publish on every lane there. A
    // warm window's lanes first carry frames in different supersteps, so
    // the three lanes die in separate escalations: the first reseeds the
    // sender, the later ones replay that same recovery.
    ingest(&mut node, StreamEvent::Resize { k: 2 * WORKERS as u32 });
    let stalled = hosted_by(&node, STALLED_SENDER as WorkerId);
    node.inject_transport_faults(
        (0..3)
            .fold(TransportFaultPlan::new(), |plan, dst| plan.stall_at(STALLED_SENDER, dst, 0)),
    );
    let death = ingest(&mut node, deltas.next().unwrap());
    assert_eq!((death.lost_vertices(), death.lanes_dead()), (102, 3), "pinned lane death");
    assert_eq!(death.lost_vertices(), stalled, "escalation reseeds the stalled sender");
    assert_eq!(node.transport_recoveries(), 1);
    let next = ingest(&mut node, deltas.next().unwrap());
    assert_eq!((next.lanes_dead(), next.lost_vertices()), (0, 0), "the next window is clean");
    assert_eq!(node.transport_recoveries(), 1);

    stop.store(true, Ordering::Relaxed);
    let (samples, misses) = sampler.join().expect("reader thread");
    assert_eq!(misses, 0, "every lookup is answered");
    for (v, epoch, worker, head) in samples {
        assert!(epoch >= head, "lookup of {v} served epoch {epoch} after head {head}");
        assert_eq!(
            worker, placements[epoch as usize][v as usize],
            "vertex {v} at epoch {epoch}"
        );
    }
}
