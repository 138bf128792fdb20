//! Behavioural tests of the BSP engine itself: superstep semantics,
//! aggregator persistence, halting reasons, and metrics accounting.

use spinner_graph::GraphBuilder;
use spinner_pregel::aggregate::{AggOp, AggregatorSpec};
use spinner_pregel::engine::{Engine, EngineConfig, HaltReason};
use spinner_pregel::program::{MasterContext, Program};
use spinner_pregel::{Placement, VertexContext};

fn config() -> EngineConfig {
    EngineConfig { num_threads: 2, max_supersteps: 50, seed: 1, ..Default::default() }
}

/// Counts both persistent and per-superstep aggregation.
struct Accumulator {
    steps: u64,
}

impl Program for Accumulator {
    type V = ();
    type E = ();
    type M = ();
    type G = ();
    type WorkerState = ();

    fn init_global(&self) {}
    fn init_worker(&self, _g: &(), _w: u16) {}

    fn aggregators(&self) -> Vec<AggregatorSpec> {
        vec![
            AggregatorSpec::persistent("lifetime", AggOp::SumI64, 0),
            AggregatorSpec::regular("per-step", AggOp::SumI64, 0),
            AggregatorSpec::regular("max", AggOp::MaxI64, 0),
        ]
    }

    fn compute(&self, ctx: &mut VertexContext<'_, Self>, _messages: &[()]) {
        ctx.agg.add_i64(0, 1);
        ctx.agg.add_i64(1, 1);
        ctx.agg.max_i64(2, ctx.vertex as i64);
    }

    fn master(&self, ctx: &mut MasterContext<'_, ()>) {
        if ctx.superstep + 1 >= self.steps {
            ctx.halt();
        }
    }
}

#[test]
fn persistent_aggregators_accumulate_regular_ones_reset() {
    let g = GraphBuilder::new(4).add_edges([(0, 1)]).build();
    let placement = Placement::modulo(4, 2);
    let mut engine = Engine::from_directed(
        Accumulator { steps: 3 },
        &g,
        &placement,
        config(),
        |_| (),
        |_, _, _| (),
    );
    engine.run();
    // 4 vertices x 3 supersteps accumulated persistently...
    assert_eq!(engine.aggregate(0).as_i64(), 12);
    // ... but the regular aggregator holds only the last superstep.
    assert_eq!(engine.aggregate(1).as_i64(), 4);
    assert_eq!(engine.aggregate(2).as_i64(), 3);
}

/// A program that never halts must hit the superstep cap.
struct Forever;

impl Program for Forever {
    type V = ();
    type E = ();
    type M = ();
    type G = ();
    type WorkerState = ();
    fn init_global(&self) {}
    fn init_worker(&self, _g: &(), _w: u16) {}
    fn compute(&self, _ctx: &mut VertexContext<'_, Self>, _messages: &[()]) {}
}

#[test]
fn superstep_cap_is_enforced() {
    let g = GraphBuilder::new(2).add_edges([(0, 1)]).build();
    let placement = Placement::modulo(2, 1);
    let cfg = EngineConfig { num_threads: 1, max_supersteps: 7, seed: 1, ..Default::default() };
    let mut engine = Engine::from_directed(Forever, &g, &placement, cfg, |_| (), |_, _, _| ());
    let summary = engine.run();
    assert_eq!(summary.halt, HaltReason::MaxSupersteps);
    assert_eq!(summary.supersteps, 7);
}

/// Panics in one vertex's compute at superstep 1.
struct PanicsAt {
    vertex: u32,
}

impl Program for PanicsAt {
    type V = ();
    type E = ();
    type M = ();
    type G = ();
    type WorkerState = ();
    fn init_global(&self) {}
    fn init_worker(&self, _g: &(), _w: u16) {}
    fn compute(&self, ctx: &mut VertexContext<'_, Self>, _messages: &[()]) {
        if ctx.superstep == 1 && ctx.vertex == self.vertex {
            panic!("vertex {} fails at superstep 1", ctx.vertex);
        }
    }
}

/// A panic in compute on either worker of a two-thread run — the engine
/// thread's or the pool thread's — fails the run with that panic instead of
/// leaving the other thread waiting at a phase barrier. The run goes on a
/// helper thread, so a hang fails the test at the timeout.
#[test]
fn a_panic_in_a_pooled_run_fails_it() {
    for vertex in [0, 1] {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let g = GraphBuilder::new(4).add_edges([(0, 1), (2, 3)]).build();
            let placement = Placement::modulo(4, 2);
            let cfg = EngineConfig {
                num_threads: 2,
                max_supersteps: 10,
                seed: 1,
                ..Default::default()
            };
            let mut engine = Engine::from_directed(
                PanicsAt { vertex },
                &g,
                &placement,
                cfg,
                |_| (),
                |_, _, _| (),
            );
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run()));
            let _ = tx.send(outcome.err().and_then(|p| p.downcast_ref::<String>().cloned()));
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the run neither returned nor panicked within 30 s");
        assert_eq!(message, Some(format!("vertex {vertex} fails at superstep 1")));
    }
}

/// Message metrics: local vs remote accounting must follow the placement.
struct Broadcast;

impl Program for Broadcast {
    type V = u64;
    type E = ();
    type M = u64;
    type G = ();
    type WorkerState = ();
    fn init_global(&self) {}
    fn init_worker(&self, _g: &(), _w: u16) {}
    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[u64]) {
        if ctx.superstep == 0 {
            for &t in ctx.edges.targets {
                ctx.mail.send(t, 1);
            }
        } else {
            *ctx.value = messages.iter().sum();
        }
        ctx.vote_to_halt();
    }
}

#[test]
fn local_remote_split_follows_placement() {
    // 4-cycle. Two workers split {0,1} / {2,3}: edges 0->1 and 2->3 are
    // local; 1->2 and 3->0 are remote.
    let g = GraphBuilder::new(4).add_edges([(0, 1), (1, 2), (2, 3), (3, 0)]).build();
    let placement = Placement::contiguous(4, 2);
    let mut engine =
        Engine::from_directed(Broadcast, &g, &placement, config(), |_| 0, |_, _, _| ());
    let summary = engine.run();
    let m = &summary.metrics[0];
    let local: u64 = m.per_worker.iter().map(|w| w.sent_local).sum();
    let remote: u64 = m.per_worker.iter().map(|w| w.sent_remote).sum();
    assert_eq!(local, 2);
    assert_eq!(remote, 2);
    // Everything sent is received exactly once.
    let recv: u64 = m.per_worker.iter().map(|w| w.recv_total()).sum();
    assert_eq!(recv, 4);
}

#[test]
fn single_worker_means_no_remote_traffic() {
    let g = GraphBuilder::new(4).add_edges([(0, 1), (1, 2), (2, 3), (3, 0)]).build();
    let placement = Placement::modulo(4, 1);
    let mut engine =
        Engine::from_directed(Broadcast, &g, &placement, config(), |_| 0, |_, _, _| ());
    let summary = engine.run();
    assert_eq!(summary.metrics[0].sent_remote(), 0);
    assert_eq!(summary.metrics[0].sent_total(), 4);
}

/// Vote-to-halt semantics: halted vertices are skipped until a message
/// arrives; the engine stops when all are halted with no traffic.
struct Relay {
    hops: u64,
}

impl Program for Relay {
    type V = u64;
    type E = ();
    type M = u64;
    type G = ();
    type WorkerState = ();
    fn init_global(&self) {}
    fn init_worker(&self, _g: &(), _w: u16) {}
    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[u64]) {
        if ctx.superstep == 0 {
            if ctx.vertex == 0 {
                ctx.mail.send(1 % ctx.num_vertices as u32, 1);
            }
        } else if let Some(&hop) = messages.first() {
            *ctx.value = hop;
            if hop < self.hops {
                let next = (ctx.vertex + 1) % ctx.num_vertices as u32;
                ctx.mail.send(next, hop + 1);
            }
        }
        ctx.vote_to_halt();
    }
}

#[test]
fn halted_vertices_wake_on_messages_and_engine_stops_when_quiet() {
    let g = GraphBuilder::new(5).add_edges((0..5u32).map(|i| (i, (i + 1) % 5))).build();
    let placement = Placement::modulo(5, 2);
    let mut engine =
        Engine::from_directed(Relay { hops: 3 }, &g, &placement, config(), |_| 0, |_, _, _| ());
    let summary = engine.run();
    assert_eq!(summary.halt, HaltReason::AllHalted);
    let values = engine.collect_values();
    assert_eq!(values, vec![0, 1, 2, 3, 0]);
    // Per-superstep active counts shrink to zero.
    assert_eq!(summary.metrics.last().unwrap().active_after, 0);
}

/// Every vertex sleeps until the clock reaches its id; vertex 0 messages
/// vertex 7 in superstep 1. The clock of superstep t is t plus half the
/// vertices it has woken so far, so each batch of wake-ups can advance it.
struct Sleepy;

impl Program for Sleepy {
    /// The supersteps the vertex computed in.
    type V = Vec<u64>;
    type E = ();
    type M = ();
    /// The coming superstep, and every superstep's `MasterContext::active`.
    type G = (u64, Vec<u64>);
    /// Calls of `wake_clock` and vertices woken by the clock.
    type WorkerState = (u32, u64);

    fn init_global(&self) -> Self::G {
        (0, Vec::new())
    }
    fn init_worker(&self, _g: &Self::G, _w: u16) -> (u32, u64) {
        (0, 0)
    }

    fn compute(&self, ctx: &mut VertexContext<'_, Self>, _messages: &[()]) {
        ctx.value.push(ctx.superstep);
        if ctx.vertex == 0 && ctx.superstep == 1 {
            ctx.mail.send(7, ());
        }
        ctx.sleep(u64::from(ctx.vertex));
    }

    fn wake_clock(
        &self,
        global: &Self::G,
        worker: &mut (u32, u64),
        joined: &mut dyn Iterator<Item = &Vec<u64>>,
    ) -> Option<u64> {
        let joined = joined.count() as u64;
        if worker.0 > 0 {
            worker.1 += joined;
        }
        worker.0 += 1;
        Some(global.0 + worker.1 / 2)
    }

    fn master(&self, ctx: &mut MasterContext<'_, Self::G>) {
        ctx.global.0 = ctx.superstep + 1;
        ctx.global.1.push(ctx.active);
        if ctx.superstep == 4 {
            ctx.halt();
        }
    }
}

fn sleepy_run(
    workers: usize,
    threads: usize,
    dense_scan: bool,
) -> (Vec<Vec<u64>>, Vec<u64>, u64) {
    let g = GraphBuilder::new(8).add_edges([(0, 7)]).build();
    let placement = Placement::modulo(8, workers);
    let cfg = EngineConfig { num_threads: threads, dense_scan, ..config() };
    let mut engine =
        Engine::from_directed(Sleepy, &g, &placement, cfg, |_| Vec::new(), |_, _, _| ());
    let summary = engine.run();
    assert_eq!(summary.halt, HaltReason::Master);
    let computed: Vec<u64> = summary.metrics.iter().map(|s| s.computed_total()).collect();
    (engine.collect_values(), computed, engine.global().1.iter().sum())
}

/// A sleeper wakes when its worker's clock reaches its key — the clock
/// asked again after each batch of wake-ups — or when a message arrives,
/// and counts as active throughout.
#[test]
fn sleepers_wake_by_clock_fixpoint_or_message_and_stay_active() {
    let (visits, computed, active) = sleepy_run(1, 1, false);
    // Superstep 1: clock 1 wakes {0, 1}, then 1 + 2/2 = 2 wakes {2}.
    // Superstep 2: the message wakes 7; clock 2 wakes {0, 1, 2}, then 3
    // wakes {3}, then 4 wakes {4}. Superstep 3 reaches 6, superstep 4 all.
    let expect: [&[u64]; 8] = [
        &[0, 1, 2, 3, 4],
        &[0, 1, 2, 3, 4],
        &[0, 1, 2, 3, 4],
        &[0, 2, 3, 4],
        &[0, 2, 3, 4],
        &[0, 3, 4],
        &[0, 3, 4],
        &[0, 2, 4],
    ];
    for (v, want) in expect.iter().enumerate() {
        assert_eq!(visits[v], *want, "vertex {v}");
    }
    assert_eq!(computed, [8, 3, 6, 7, 8]);
    // Sleepers stay active: 8 in each of the 5 supersteps.
    assert_eq!(active, 40);
}

/// The dense scan and any thread count visit exactly the active list's
/// sleepers-skipped set.
#[test]
fn sleeping_is_identical_across_scan_arms_and_threads() {
    let reference = sleepy_run(2, 1, false);
    for (threads, dense) in [(1, true), (2, false), (2, true)] {
        assert_eq!(
            sleepy_run(2, threads, dense),
            reference,
            "threads {threads}, dense {dense}"
        );
    }
}
