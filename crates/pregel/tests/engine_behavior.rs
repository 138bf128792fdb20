//! Behavioural tests of the BSP engine itself: superstep semantics, graph
//! mutation at barriers, aggregator persistence, combiner behaviour, halting
//! reasons, and metrics accounting.

use spinner_graph::GraphBuilder;
use spinner_pregel::aggregate::{AggOp, AggregatorSpec};
use spinner_pregel::engine::{Engine, EngineConfig, HaltReason};
use spinner_pregel::program::{MasterContext, Program};
use spinner_pregel::{Placement, VertexContext};

fn config() -> EngineConfig {
    EngineConfig { num_threads: 2, max_supersteps: 50, seed: 1, ..Default::default() }
}

/// Adds a reverse edge for every received id, then stops — exercises the
/// mutation path (the NeighborDiscovery pattern).
struct Reverser;

impl Program for Reverser {
    type V = u32; // number of edges seen at the end
    type E = u8;
    type M = u32; // sender id
    type G = ();
    type WorkerState = ();

    fn init_global(&self) {}
    fn init_worker(&self, _g: &(), _w: u16) {}

    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[u32]) {
        match ctx.superstep {
            0 => {
                let me = ctx.vertex;
                for &t in ctx.edges.targets {
                    ctx.mail.send(t, me);
                }
            }
            1 => {
                for &sender in messages {
                    if ctx.edges.index_of(sender).is_none() {
                        ctx.add_edge(sender, 9);
                    }
                }
            }
            _ => {
                *ctx.value = ctx.edges.len() as u32;
            }
        }
        if ctx.superstep >= 2 {
            ctx.vote_to_halt();
        }
    }

    fn master(&self, ctx: &mut MasterContext<'_, ()>) {
        if ctx.superstep >= 2 {
            ctx.halt();
        }
    }
}

#[test]
fn barrier_mutations_create_reverse_edges() {
    // Path 0 -> 1 -> 2 plus reciprocal 2 <-> 1.
    let g = GraphBuilder::new(3).add_edges([(0, 1), (1, 2), (2, 1)]).build();
    let placement = Placement::modulo(3, 2);
    let mut engine =
        Engine::from_directed(Reverser, &g, &placement, config(), |_| 0, |_, _, _| 1u8);
    let summary = engine.run();
    assert_eq!(summary.halt, HaltReason::Master);
    let degrees = engine.collect_values();
    // After symmetrisation: 0:{1}, 1:{0,2}, 2:{1}.
    assert_eq!(degrees, vec![1, 2, 1]);
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

#[test]
fn lane_status_names_why_broadcasts_fall_back() {
    use spinner_pregel::{LaneStatus, TransportKind};
    let g = GraphBuilder::new(3).add_edges([(0, 1), (1, 2), (2, 1)]).build();
    let placement = Placement::modulo(3, 2);

    // Fabric on, no mutations yet: the lane is open. Mid-run edge additions
    // outdate the load-time fan-out index; the run finishes with the lane
    // closed and the cause named — this used to be a silent unicast
    // fallback visible only as a throughput cliff. Both transports carry
    // broadcasts the same way, so the status does not depend on which.
    for transport in [TransportKind::Direct, TransportKind::Ring] {
        let cfg = EngineConfig { transport, ..config() };
        let mut engine =
            Engine::from_directed(Reverser, &g, &placement, cfg, |_| 0, |_, _, _| 1u8);
        assert_eq!(engine.lane_status(), LaneStatus::Open);
        engine.run();
        assert_eq!(engine.lane_status(), LaneStatus::ClosedByMutation);
    }

    // With the fabric disabled by config the lane never opens, and the
    // status says so rather than blaming a mutation.
    let cfg = EngineConfig { broadcast_fabric: false, ..config() };
    let engine = Engine::from_directed(Reverser, &g, &placement, cfg, |_| 0, |_, _, _| 1u8);
    assert_eq!(engine.lane_status(), LaneStatus::DisabledByConfig);
}
