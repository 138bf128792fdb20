//! Umbrella crate for the Spinner reproduction suite: re-exports the
//! workspace crates so examples and integration tests can use one import
//! root. See `spinner_core` for the partitioner itself.
//!
//! Most programs only need [`prelude`]:
//!
//! ```
//! use spinner::prelude::*;
//!
//! let graph = GraphBuilder::new(10).add_edges([(0, 1), (1, 2)]).build();
//! let session = StreamSession::new(graph, SpinnerConfig::new(2));
//! assert_eq!(session.windows().len(), 1);
//! ```

pub use spinner_baselines as baselines;
pub use spinner_core as core;
pub use spinner_graph as graph;
pub use spinner_metrics as metrics;
pub use spinner_pregel as pregel;
pub use spinner_serving as serving;

/// The one-import surface for typical Spinner programs: build a graph,
/// partition it (one-shot or streaming), inspect quality, and serve the
/// resulting placement online.
///
/// Everything here is a re-export; the canonical homes (`spinner::core`,
/// `spinner::graph`, …) remain available for less common items.
pub mod prelude {
    pub use spinner_core::{
        adapt, elastic, partition, PartitionResult, SessionState, SpinnerConfig, StreamEvent,
        StreamSession, WindowReport,
    };
    pub use spinner_graph::{
        DirectedGraph, GraphBuilder, GraphDelta, UndirectedGraph, VertexId,
    };
    pub use spinner_pregel::{
        LaneHealth, Placement, RetryConfig, TransportFault, TransportFaultPlan, TransportKind,
        WireFormat, WorkerId,
    };
    pub use spinner_serving::{
        Fault, FaultPlan, FaultyStorage, Health, Lookup, MemStorage, RetryPolicy,
        RoutingReader, RoutingTable, ServingNode, SessionPersist, SessionStore, Storage,
    };
}
