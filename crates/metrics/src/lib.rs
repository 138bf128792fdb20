//! Partitioning-quality metrics and text-table reporting.
//!
//! Implements the paper's evaluation metrics (Eq. 16):
//!
//! - `φ` — ratio of local edges: the fraction of edge weight whose endpoints
//!   share a partition (higher is better locality).
//! - `ρ` — maximum normalized load: the most loaded partition relative to
//!   the ideal `|E|/k` (1.0 is perfect balance).
//! - `score(G)` — the paper's global objective (Eq. 10), used by the halting
//!   heuristic.
//! - *partitioning difference* (§V-D) — the fraction of vertices whose
//!   partition changed between two partitionings (stability).

pub mod difference;
pub mod quality;
pub mod table;

pub use difference::partitioning_difference;
pub use quality::{
    partition_loads, phi, quality, rho, rho_from_loads, score, PartitionQuality,
};
pub use table::Table;
