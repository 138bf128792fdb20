//! The in-engine directed → undirected conversion (paper §IV-A1), a Pregel
//! program of its own on the directed graph:
//!
//! 1. **NeighborPropagation** (superstep 0): every vertex broadcasts its id
//!    along its out-edges.
//! 2. **NeighborDiscovery** (superstep 1): every vertex keeps the ids it
//!    received, sorted, as its value — its in-row.
//!
//! The graph crate then merges the out-rows with these in-rows into the
//! weighted undirected graph of Eq. 3, the same merge the offline
//! conversion runs on its counting transpose. The run costs the paper's 2
//! supersteps and one message per directed edge; the Spinner run that
//! follows loads the converted graph afresh, so no run changes its
//! topology.

use crate::config::SpinnerConfig;
use crate::driver::stages;
use spinner_graph::conversion::to_weighted_undirected_with_in_rows;
use spinner_graph::{DirectedGraph, UndirectedGraph, VertexId};
use spinner_pregel::engine::{Engine, HaltReason, RunSummary};
use spinner_pregel::program::Program;
use spinner_pregel::{VertexContext, WorkerId};

/// NeighborPropagation, then NeighborDiscovery.
struct NeighborDiscovery;

impl Program for NeighborDiscovery {
    /// The vertex's in-neighbours, ascending.
    type V = Vec<VertexId>;
    type E = ();
    /// The sender's id.
    type M = VertexId;
    type G = ();
    type WorkerState = ();

    fn init_global(&self) {}

    fn init_worker(&self, _: &(), _: WorkerId) {}

    fn compute(&self, ctx: &mut VertexContext<'_, Self>, senders: &[VertexId]) {
        if ctx.superstep == 0 {
            let me = ctx.vertex;
            ctx.mail.broadcast(me);
        } else {
            ctx.value.extend_from_slice(senders);
            ctx.value.sort_unstable();
            ctx.vote_to_halt();
        }
    }
}

/// Converts `graph` into the weighted undirected graph of Eq. 3 with the
/// two conversion supersteps, on the engine settings and default placement
/// a Spinner run with `cfg` uses. Returns the graph — equal, array for
/// array, to [`spinner_graph::conversion::to_weighted_undirected`] — and
/// the conversion run's summary.
pub(crate) fn convert_in_engine(
    graph: &DirectedGraph,
    cfg: &SpinnerConfig,
) -> (UndirectedGraph, RunSummary) {
    let n = graph.num_vertices();
    let mut engine = Engine::from_directed(
        NeighborDiscovery,
        graph,
        &stages::placement(n, cfg),
        stages::engine_config(cfg),
        |_| Vec::new(),
        |_, _, _| (),
    );
    let summary = engine.run();
    assert_eq!(summary.halt, HaltReason::AllHalted, "the conversion run did not finish");
    let in_rows = engine.take_values();
    let mut offsets = Vec::with_capacity(in_rows.len() + 1);
    offsets.push(0);
    for row in &in_rows {
        offsets.push(offsets[offsets.len() - 1] + row.len());
    }
    let sources = in_rows.concat();
    (to_weighted_undirected_with_in_rows(graph, &offsets, &sources), summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spinner_graph::conversion::to_weighted_undirected;
    use spinner_graph::generators::{planted_partition, rmat, RmatConfig, SbmConfig};
    use spinner_graph::GraphBuilder;
    use spinner_pregel::TransportKind;

    fn cfg(workers: usize, transport: TransportKind, fabric: bool) -> SpinnerConfig {
        let mut cfg =
            SpinnerConfig::new(2).with_transport(transport).with_broadcast_fabric(fabric);
        cfg.num_workers = workers;
        cfg.num_threads = 2;
        cfg
    }

    fn assert_converts(d: &DirectedGraph, cfg: &SpinnerConfig) -> Result<(), TestCaseError> {
        let (g, summary) = convert_in_engine(d, cfg);
        let offline = to_weighted_undirected(d);
        prop_assert_eq!(g.as_csr(), offline.as_csr());
        prop_assert_eq!(summary.supersteps, 2);
        prop_assert_eq!(summary.totals().messages, d.num_edges());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random directed graphs — reciprocal pairs, one-way edges and
        /// isolated vertices past the edges' id range — convert to exactly
        /// the offline graph on 1–7 workers, both transports, with and
        /// without the broadcast lane.
        #[test]
        fn the_pregel_built_graph_equals_the_offline_conversion(
            linked in 1u32..40,
            isolated in 0u32..6,
            one_way in prop::collection::vec((0u32..1000, 0u32..1000), 0..100),
            reciprocal in prop::collection::vec((0u32..1000, 0u32..1000), 0..40),
            workers in 1usize..8,
            ring in any::<bool>(),
            fabric in any::<bool>(),
        ) {
            let edges = one_way.iter().map(|&(u, v)| (u % linked, v % linked)).chain(
                reciprocal
                    .iter()
                    .flat_map(|&(u, v)| [(u % linked, v % linked), (v % linked, u % linked)]),
            );
            let d = GraphBuilder::new(linked + isolated).add_edges(edges).build();
            let transport = if ring { TransportKind::Ring } else { TransportKind::Direct };
            assert_converts(&d, &cfg(workers, transport, fabric))?;
        }
    }

    /// The conversion at benchmark scale: the directed 60 k SBM of
    /// `cold_community` on 16 workers, and the R-MAT 2^15 of
    /// `cold_skew_wire` on 32 workers behind the Ring transport.
    #[test]
    #[ignore = "benchmark scale; run in release"]
    fn the_pregel_built_graph_equals_the_offline_conversion_at_benchmark_scale() {
        let sbm = planted_partition(SbmConfig {
            n: 60_000,
            communities: 1000,
            internal_degree: 40.0,
            external_degree: 16.0,
            skew: None,
            seed: 11,
        });
        let skewed = rmat(RmatConfig::graph500(15, 24, 11));
        for (d, workers, transport) in
            [(&sbm, 16, TransportKind::Direct), (&skewed, 32, TransportKind::Ring)]
        {
            assert_converts(d, &cfg(workers, transport, true)).expect("graphs equal");
        }
    }
}
