//! Transport chaos properties: under *any* seeded recoverable fault plan —
//! drops, duplicates, reorders, bit flips, torn frames, delivery delays —
//! an engine run over the reliable transport either completes with results
//! bit-identical to the fault-free run, or aborts with a typed
//! [`HaltReason::TransportFailed`]. It never panics, never hangs past the
//! configured deadline, and never diverges silently. A `Stall` fault (the
//! one unrecoverable kind) must surface as a typed error within the retry
//! budget, and a subsequent run on the same engine must self-heal.

use proptest::prelude::*;
use spinner_graph::generators::{planted_partition, SbmConfig};
use spinner_graph::DirectedGraph;
use spinner_pregel::engine::{Engine, EngineConfig, HaltReason};
use spinner_pregel::program::Program;
use spinner_pregel::{
    Placement, RetryConfig, TransportError, TransportFault, TransportFaultPlan, TransportKind,
    VertexContext,
};
use std::time::{Duration, Instant};

const WORKERS: usize = 4;

fn sbm() -> DirectedGraph {
    planted_partition(SbmConfig {
        n: 300,
        communities: 4,
        internal_degree: 6.0,
        external_degree: 1.5,
        skew: None,
        seed: 11,
    })
}

/// Min-label propagation: any frame the fabric loses, corrupts, duplicates,
/// or reorders without the reliable layer repairing it shows up as a value
/// difference against the fault-free run.
struct MinLabel;

impl Program for MinLabel {
    type V = u32;
    type E = ();
    type M = u32;
    type G = ();
    type WorkerState = ();

    fn init_global(&self) {}
    fn init_worker(&self, _g: &(), _w: u16) {}

    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[u32]) {
        let mut best = *ctx.value;
        if ctx.superstep == 0 {
            best = ctx.vertex;
        }
        for &m in messages {
            best = best.min(m);
        }
        if best != *ctx.value || ctx.superstep == 0 {
            *ctx.value = best;
            for &t in ctx.edges.targets {
                ctx.mail.send(t, best);
            }
        }
        ctx.vote_to_halt();
    }

    fn combine(&self, _acc: &mut u32, _msg: &u32) -> bool {
        false
    }
}

fn engine_for(
    g: &DirectedGraph,
    threads: usize,
    retry: RetryConfig,
    plan: Option<TransportFaultPlan>,
) -> Engine<MinLabel> {
    let placement = Placement::hashed(g.num_vertices(), WORKERS, 9);
    let cfg = EngineConfig {
        num_threads: threads,
        max_supersteps: 200,
        seed: 3,
        transport: TransportKind::Ring,
        transport_retry: retry,
        transport_faults: plan,
        ..EngineConfig::default()
    };
    Engine::from_directed(MinLabel, g, &placement, cfg, |_| u32::MAX, |_, _, _| ())
}

/// A short, test-friendly retry budget: enough retransmits to absorb
/// scripted fault bursts, and a deadline that turns any hang into a fast,
/// loud failure instead of a stuck suite.
fn fast_retry() -> RetryConfig {
    RetryConfig {
        reliable: true,
        max_retransmits: 8,
        backoff_base: Duration::from_micros(5),
        take_deadline: Duration::from_millis(500),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any seeded recoverable plan, serial or pooled: the run either
    /// completes bit-identical to the fault-free reference, or every abort
    /// is a typed transport error and re-running the same engine self-heals
    /// to the reference within a plan-bounded number of attempts.
    #[test]
    fn seeded_plans_are_absorbed_or_typed(
        seed in any::<u64>(),
        density_pct in 1u64..30,
        threads in 1u64..4,
    ) {
        let density = density_pct as f64 / 100.0;
        let threads = threads as usize;
        let g = sbm();
        let reference = {
            let mut engine = engine_for(&g, 1, fast_retry(), None);
            let summary = engine.run();
            prop_assert_eq!(summary.halt, HaltReason::AllHalted);
            engine.collect_values()
        };

        let plan = TransportFaultPlan::seeded(seed, WORKERS, 40, density);
        prop_assert!(!plan.has_stall(), "seeded plans script only recoverable faults");
        let mut engine = engine_for(&g, threads, fast_retry(), Some(plan));
        // Each rerun consumes at least the fault that killed the lane
        // (consumed faults stay consumed across the run's transport reset),
        // so the escalation loop is bounded by the plan size.
        let mut attempts = 0u32;
        let halt = loop {
            let summary = engine.run();
            match summary.halt {
                HaltReason::TransportFailed(err) => {
                    let (src, dst) = err.lane();
                    prop_assert!(src < WORKERS && dst < WORKERS, "error names a real lane");
                    attempts += 1;
                    prop_assert!(attempts <= 64, "escalation loop must terminate");
                }
                reason => break reason,
            }
        };
        prop_assert_eq!(halt, HaltReason::AllHalted);
        prop_assert_eq!(engine.collect_values(), reference);
        let (injected, _) = engine.transport_chaos_counts();
        prop_assert!(attempts == 0 || injected > 0, "aborts imply injected faults");
    }
}

/// Recoverable faults on exact frame coordinates are invisible in the
/// results and visible in the counters: the run stays bit-identical while
/// the receive-side stats record the repairs.
#[test]
fn scripted_recoverable_faults_keep_results_bit_identical() {
    let g = sbm();
    let reference = {
        let mut engine = engine_for(&g, 2, fast_retry(), None);
        assert_eq!(engine.run().halt, HaltReason::AllHalted);
        engine.collect_values()
    };
    let plan = TransportFaultPlan::new()
        .fail(0, 1, 0, TransportFault::Drop)
        .fail(1, 2, 1, TransportFault::Duplicate)
        .fail(2, 3, 0, TransportFault::Reorder { window: 2 })
        .fail(3, 0, 1, TransportFault::FlipBit { bit: 17 })
        .fail(0, 2, 2, TransportFault::Torn { keep: 3 })
        .fail(1, 3, 0, TransportFault::Delay { ticks: 2 });
    let mut engine = engine_for(&g, 2, fast_retry(), Some(plan));
    let summary = engine.run();
    assert_eq!(summary.halt, HaltReason::AllHalted);
    assert_eq!(engine.collect_values(), reference, "recoverable chaos must be invisible");
    let (injected, remaining) = engine.transport_chaos_counts();
    assert_eq!(injected, 6, "every scripted fault fired");
    assert_eq!(remaining, 0);
    let stats = engine.transport_recv_stats();
    assert!(stats.recovery_actions() > 0, "the repairs must be accounted: {stats:?}");
    assert!(summary.totals().retransmits > 0, "drops and corruption force retransmits");
}

/// A stalled lane can never hang the engine: with retransmits effectively
/// unbounded the take deadline fires, and with a finite retransmit budget
/// the lane dies first — both surface as `TransportFailed` on the stalled
/// lane, well before the suite-level timeout.
#[test]
fn stalled_lanes_hit_the_deadline_not_a_hang() {
    let g = sbm();
    for (retry, expect_timeout) in [
        (
            RetryConfig {
                max_retransmits: u32::MAX,
                backoff_base: Duration::from_micros(50),
                take_deadline: Duration::from_millis(50),
                ..RetryConfig::default()
            },
            true,
        ),
        (fast_retry(), false),
    ] {
        let plan = TransportFaultPlan::new().stall_at(2, 0, 0);
        let mut engine = engine_for(&g, 2, retry, Some(plan));
        let start = Instant::now();
        let summary = engine.run();
        let elapsed = start.elapsed();
        let HaltReason::TransportFailed(err) = summary.halt else {
            panic!("stall must abort the run, got {:?}", summary.halt);
        };
        assert_eq!(err.lane(), (2, 0), "the stalled lane is named: {err}");
        if expect_timeout {
            assert!(matches!(err, TransportError::Timeout { .. }), "deadline path: {err}");
        } else {
            assert!(matches!(err, TransportError::LaneDead { .. }), "budget path: {err}");
        }
        assert!(elapsed < Duration::from_secs(5), "bounded abort, took {elapsed:?}");

        // The stall was consumed; the next run on the same engine resets
        // the transport (replacement worker connects fresh) and completes.
        let healed = engine.run();
        assert_eq!(healed.halt, HaltReason::AllHalted, "self-healing rerun");
    }
}

/// Lane health is observable while degraded and resets with the transport:
/// a recovered run reports fully healthy lanes again.
#[test]
fn lane_health_recovers_after_the_stall_is_consumed() {
    let g = sbm();
    let plan = TransportFaultPlan::new().stall_at(1, 2, 0);
    let mut engine = engine_for(&g, 1, fast_retry(), Some(plan));
    let summary = engine.run();
    assert!(matches!(summary.halt, HaltReason::TransportFailed(_)));
    let (_, dead) = engine.transport_health_counts();
    assert_eq!(dead, 1, "the stalled lane is reported dead");
    assert_eq!(engine.run().halt, HaltReason::AllHalted);
    let (degraded, dead) = engine.transport_health_counts();
    assert_eq!((degraded, dead), (0, 0), "clean rerun leaves every lane healthy");
}

/// The failure a run surfaces does not depend on the thread count: errors
/// are picked phase-first, then in worker order, whichever pool thread
/// raised them. The same scripted stall aborts a single-threaded and a
/// three-threaded run with the same typed error after the same superstep.
#[test]
fn transport_failures_are_thread_count_invariant() {
    let g = sbm();
    let abort = |threads: usize| {
        let plan = TransportFaultPlan::new().stall_at(1, 3, 1);
        let summary = engine_for(&g, threads, fast_retry(), Some(plan)).run();
        let HaltReason::TransportFailed(err) = summary.halt else {
            panic!("stall must abort the run, got {:?}", summary.halt);
        };
        (err, summary.supersteps)
    };
    let serial = abort(1);
    assert_eq!(serial.0.lane(), (1, 3), "the stalled lane is named: {}", serial.0);
    assert_eq!(abort(3), serial);
}
