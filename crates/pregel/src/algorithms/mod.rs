//! Reference Pregel applications.
//!
//! The paper measures Spinner's impact on three representative analytical
//! applications run on Giraph (§V-F, Fig. 9): Single-Source Shortest Paths
//! computed through BFS, PageRank, and Weakly Connected Components. These are
//! also the engine's primary correctness tests, since their fixpoints are
//! independently checkable.

mod pagerank;
mod sssp;
mod wcc;

pub use pagerank::{run_pagerank, PageRank};
pub use sssp::{run_sssp, Sssp, UNREACHED};
pub use wcc::{run_wcc, Wcc};
