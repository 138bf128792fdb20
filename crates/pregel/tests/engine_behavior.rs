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
