//! Graph substrate for the Spinner reproduction.
//!
//! This crate provides everything below the Pregel engine:
//!
//! - Compact CSR graph storage for directed graphs ([`DirectedGraph`]) and
//!   symmetric weighted undirected graphs ([`UndirectedGraph`]).
//! - The directed-to-weighted-undirected conversion of the Spinner paper
//!   (Eq. 3): an undirected edge gets weight 2 when both directions exist in
//!   the original directed graph and weight 1 otherwise, so that partitioning
//!   scores count the number of messages a Pregel application would exchange.
//! - Synthetic graph generators (Watts-Strogatz, R-MAT, Barabási-Albert,
//!   Erdős-Rényi, planted-partition/SBM, and a hierarchical web-like model)
//!   standing in for the proprietary datasets of the paper's evaluation.
//! - Dynamic-graph deltas and a triadic-closure edge sampler used by the
//!   incremental repartitioning experiments (§V-C of the paper).
//! - A registry of scaled-down synthetic analogues of the paper's datasets
//!   (LiveJournal, Google+, Tuenti, Twitter, Friendster, Yahoo!).

pub mod buffer;
pub mod builder;
pub mod conversion;
pub mod datasets;
pub mod directed;
#[cfg(test)]
mod equivalence;
pub mod error;
pub mod generators;
pub mod ids;
pub mod io;
pub mod mutation;
pub mod rng;
pub mod stats;
pub mod stream;
pub mod undirected;

pub use builder::GraphBuilder;
pub use datasets::{Dataset, Scale};
pub use directed::DirectedGraph;
pub use error::GraphError;
pub use ids::{EdgeWeight, VertexId};
pub use mutation::GraphDelta;
pub use stream::{DeltaStream, DeltaStreamConfig};
pub use undirected::UndirectedGraph;
