//! **Spinner**: scalable and adaptive k-way balanced graph partitioning via
//! label propagation, implemented as a Pregel program — a reproduction of
//! *Martella, Logothetis, Loukas, Siganos: "Spinner: Scalable Graph
//! Partitioning in the Cloud" (ICDE 2017)*.
//!
//! # Algorithm
//!
//! Spinner assigns one of `k` labels (partitions) to every vertex so that
//! edge locality is maximised while partitions stay balanced on edge load:
//!
//! 1. **K-way LPA** (Eq. 4): a vertex prefers the label most frequent among
//!    its neighbours, weighted by the Eq. 3 conversion weights so the score
//!    counts the messages a Pregel application would exchange.
//! 2. **Balance** (Eq. 8): the normalised locality score is penalised by
//!    `π(l) = b(l)/C` where `b(l)` is the partition's current load and
//!    `C = c·|E|/k` its capacity.
//! 3. **Decentralised migrations** (Eq. 14): candidates for a label `l`
//!    migrate with probability `r(l)/m(l)`, which keeps expected load within
//!    capacity without any coordination (Hoeffding bound, Prop. 3, in
//!    [`theory`]).
//! 4. **Asynchronous per-worker counters** (§IV-A4): within a superstep,
//!    vertices on the same logical worker observe each other's candidacies
//!    through worker-local load counters, speeding up convergence.
//! 5. **Halting** (Eq. 10): stop when the global score improves less than
//!    `ε` for `w` consecutive iterations.
//! 6. **Incremental & elastic repartitioning** (§III-D/E): restart from the
//!    previous assignment on graph changes; on partition-count changes move
//!    each vertex to a new partition with probability `n/(k+n)` (Eq. 11).
//!
//! # Quick start
//!
//! ```
//! use spinner_core::{partition, SpinnerConfig};
//! use spinner_graph::{generators, conversion};
//!
//! let directed = generators::planted_partition(generators::SbmConfig {
//!     n: 2000, communities: 8, internal_degree: 8.0, external_degree: 2.0,
//!     skew: None, seed: 7,
//! });
//! let graph = conversion::to_weighted_undirected(&directed);
//! let result = partition(&graph, &SpinnerConfig::new(8));
//! assert_eq!(result.labels.len(), 2000);
//! println!("phi = {:.2}, rho = {:.2}", result.quality.phi, result.quality.rho);
//! ```

pub mod config;
mod conversion;
pub mod driver;
pub mod program;
pub mod state;
pub mod stream;
pub mod theory;

pub use config::SpinnerConfig;
pub use driver::{
    adapt, elastic, partition, partition_directed, partition_with_placement, IterationStats,
    PartitionResult,
};
pub use state::{Label, MAX_K, NO_LABEL};
pub use stream::{SessionState, StreamEvent, StreamSession, WindowReport, WindowReportParts};
