//! Spinner configuration.

use spinner_pregel::{RetryConfig, TransportKind, WireFormat};

/// What a partition's load counts (§II-A: "although our approach is general,
/// here we will focus on balancing partitions on the number of edges they
/// contain" — both options are implemented).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BalanceObjective {
    /// Balance weighted-degree mass (messages) — the paper's default.
    #[default]
    Edges,
    /// Balance vertex counts (the objective of Wang et al. \[30\]).
    Vertices,
}

/// Tunable parameters of the Spinner algorithm.
///
/// The paper's evaluation settings (§V-A) are the defaults: `c = 1.05`,
/// `ε = 0.001`, `w = 5`. The ablation switches (`balance_penalty`,
/// `probabilistic_migration`, `async_worker_loads`) all default to the
/// paper's design and exist for the `exp-ablation` experiment.
#[derive(Debug, Clone)]
pub struct SpinnerConfig {
    /// Number of partitions `k`.
    pub k: u32,
    /// Additional capacity constant `c > 1` (Eq. 5). Bounds unbalance
    /// (`ρ ≤ c` with high probability) and trades balance for convergence
    /// speed (Fig. 5).
    pub c: f64,
    /// Halting threshold ε: minimum per-vertex-normalised score improvement
    /// counted as progress.
    pub epsilon: f64,
    /// Halting window w: iterations without progress before halting.
    pub window: u32,
    /// Hard cap on LPA iterations.
    pub max_iterations: u32,
    /// Ignore the ε/w halting heuristic and run to `max_iterations`
    /// (used by Fig. 4, which plots the full evolution).
    pub ignore_halting: bool,
    /// Seed for label initialisation, tie-breaking, and migration draws.
    pub seed: u64,
    /// Number of logical Pregel workers hosting the computation.
    pub num_workers: usize,
    /// Number of OS threads executing the logical workers. Not persisted:
    /// a resumed session runs with the resuming process's value.
    pub num_threads: usize,
    /// §IV-A4 asynchronous per-worker load counters (ablation switch).
    pub async_worker_loads: bool,
    /// Eq. 8 balance penalty; disabling yields plain (unbalanced) LPA
    /// (ablation switch).
    pub balance_penalty: bool,
    /// Eq. 14 probabilistic migrations; disabling migrates every candidate
    /// greedily (ablation switch).
    pub probabilistic_migration: bool,
    /// Perform the directed→undirected conversion as the paper's two
    /// Pregel supersteps (NeighborPropagation/NeighborDiscovery, §IV-A1), a
    /// run of its own ahead of the Spinner run, instead of offline. Same
    /// partitioning, plus the conversion's Pregel cost: 2 supersteps and
    /// one message per directed edge. Only affects
    /// [`crate::partition_directed`]. Not persisted: a resumed session runs
    /// with the resuming process's value.
    pub in_engine_conversion: bool,
    /// What to balance: edge load (paper default) or vertex counts.
    pub objective: BalanceObjective,
    /// Optional per-partition capacity weights for heterogeneous clusters
    /// (length `k`, positive): partition `l` gets capacity
    /// `c · total · w_l / Σw`. `None` means the paper's homogeneous setup.
    pub capacity_weights: Option<Vec<f64>>,
    /// Label-driven placement feedback for streaming sessions (§V-F: "we
    /// plug a hash function that uses only the l_j field"). `Some(t)`:
    /// whenever a window converges with a remote-message share above `t`,
    /// the session re-places every vertex onto the worker owning its
    /// computed label (balanced greedy packing,
    /// `Placement::from_labels_balanced`), and the next window's warm reset
    /// hosts the engine there, so subsequent re-convergences exchange
    /// mostly worker-local messages.
    /// `None` (the default) keeps the initial hash placement for the whole
    /// stream. Labels are unaffected either way; with
    /// `async_worker_loads = false` they are bit-identical.
    pub placement_feedback: Option<f64>,
    /// Ship label announcements through the engine's deduplicating
    /// broadcast lane (one record per `(vertex, destination worker)` pair
    /// instead of one per crossing edge; §IV-A2's broadcast is Spinner's
    /// only message). Results — labels, history, φ/ρ, iteration counts —
    /// are bit-identical either way; only the physical record traffic
    /// (`sent_remote_records` vs the logical `sent_remote`) changes, so
    /// `false` is the per-edge verification arm that
    /// `crates/core/tests/broadcast_equivalence.rs` runs against. Default
    /// `true`. Not persisted: a resumed session runs with the resuming
    /// process's value.
    pub broadcast_fabric: bool,
    /// Evaluate all `k` labels per vertex, as the paper's implementation
    /// does ("the complexity of the heuristic executed by each vertex is
    /// proportional to the number of partitions k", §V-B). The default
    /// `false` uses an exact optimisation: only labels adjacent to the
    /// vertex plus the minimum-penalty label can maximise Eq. 8, so the
    /// scan is O(deg) amortised. Both modes find the same maximum score;
    /// they can only differ in tie-breaks among equally-penalised
    /// non-adjacent labels.
    pub exhaustive_candidate_scan: bool,
    /// Ignored; deleted with ROADMAP item 0(b).
    pub work_stealing: bool,
    /// Ignored; deleted with ROADMAP item 0(b).
    pub steal_chunk: usize,
    /// Drive compute by a dense per-worker vertex scan instead of the
    /// maintained active list (the verification arm; bit-identical, see
    /// [`spinner_pregel::engine::EngineConfig::dense_scan`]). Not
    /// persisted: a resumed session runs with the resuming process's value.
    pub dense_scan: bool,
    /// Message transport between logical workers: the default
    /// [`TransportKind::Direct`] moves outbox buffers by pointer swap
    /// (never serialises), [`TransportKind::Ring`] pushes encoded frames
    /// through in-memory ring channels — the serialisation arm a
    /// distributed deployment would run. Results are bit-identical across
    /// transports; only the wire counters change. Not persisted: a resumed
    /// session runs with the resuming process's value.
    pub transport: TransportKind,
    /// Ignored; deleted with ROADMAP item 0(b).
    pub wire_format: WireFormat,
    /// Ignored; deleted with ROADMAP item 0(b).
    pub sender_fold: bool,
    /// Retry/timeout budgets for the transport reliability layer (ignored
    /// on the direct path). A serialising transport always runs under
    /// per-lane sequencing with cumulative-ack retransmission, so
    /// dropped/duplicated/reordered/corrupted frames are masked and a dead
    /// lane surfaces as a typed error the stream session escalates into
    /// worker-loss recovery. Not persisted: a resumed session runs with the
    /// resuming process's value.
    pub transport_retry: RetryConfig,
}

impl SpinnerConfig {
    /// The paper's default configuration for `k` partitions
    /// (`1..=`[`crate::state::MAX_K`]).
    pub fn new(k: u32) -> Self {
        assert!(k >= 1, "need at least one partition");
        assert!(k <= crate::state::MAX_K, "k = {k} exceeds MAX_K");
        Self {
            k,
            c: 1.05,
            epsilon: 0.001,
            window: 5,
            max_iterations: 300,
            ignore_halting: false,
            seed: 1,
            num_workers: 16,
            num_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            async_worker_loads: true,
            balance_penalty: true,
            probabilistic_migration: true,
            in_engine_conversion: false,
            objective: BalanceObjective::default(),
            capacity_weights: None,
            placement_feedback: None,
            broadcast_fabric: true,
            exhaustive_candidate_scan: false,
            work_stealing: true,
            steal_chunk: 0,
            dense_scan: false,
            transport: TransportKind::default(),
            wire_format: WireFormat::default(),
            sender_fold: true,
            transport_retry: RetryConfig::default(),
        }
    }

    /// Builder-style heterogeneous-capacity override. `weights[l]` is the
    /// relative share of partition `l` (e.g. machine memory sizes).
    pub fn with_capacity_weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), self.k as usize, "need one weight per partition");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        self.capacity_weights = Some(weights);
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style capacity-constant override (finite, above 1).
    pub fn with_c(mut self, c: f64) -> Self {
        assert!(c.is_finite() && c > 1.0, "c must exceed 1 (Eq. 5) and be finite");
        self.c = c;
        self
    }

    /// Builder-style broadcast-lane override (the per-edge unicast arm is
    /// the verification baseline; see [`Self::broadcast_fabric`]).
    pub fn with_broadcast_fabric(mut self, enabled: bool) -> Self {
        self.broadcast_fabric = enabled;
        self
    }

    /// Builder-style transport override (see [`Self::transport`]).
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Builder-style placement-feedback override: re-place vertices by
    /// computed label whenever a window's remote-message share exceeds
    /// `threshold` (a fraction in `[0, 1)`; 0 re-places after every
    /// window that sent any remote message).
    pub fn with_placement_feedback(mut self, threshold: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&threshold),
            "placement-feedback threshold is a share in [0, 1)"
        );
        self.placement_feedback = Some(threshold);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = SpinnerConfig::new(32);
        assert_eq!(cfg.k, 32);
        assert!((cfg.c - 1.05).abs() < 1e-12);
        assert!((cfg.epsilon - 0.001).abs() < 1e-12);
        assert_eq!(cfg.window, 5);
        assert!(cfg.balance_penalty && cfg.probabilistic_migration);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        SpinnerConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "c must exceed 1")]
    fn c_below_one_rejected() {
        let _ = SpinnerConfig::new(2).with_c(0.9);
    }

    #[test]
    fn broadcast_fabric_defaults_on() {
        assert!(SpinnerConfig::new(4).broadcast_fabric);
        assert!(!SpinnerConfig::new(4).with_broadcast_fabric(false).broadcast_fabric);
    }

    #[test]
    fn dense_scan_defaults_off() {
        assert!(!SpinnerConfig::new(4).dense_scan, "active-set driver is the default");
    }

    #[test]
    fn fabric_knobs_default_to_the_direct_path() {
        let cfg = SpinnerConfig::new(4);
        assert_eq!(cfg.transport, TransportKind::Direct);
        let cfg = cfg.with_transport(TransportKind::Ring);
        assert_eq!(cfg.transport, TransportKind::Ring);
    }

    #[test]
    fn transport_retry_defaults_to_the_reliable_layer() {
        let cfg = SpinnerConfig::new(4);
        assert_eq!(cfg.transport_retry, RetryConfig::default());
    }

    #[test]
    fn placement_feedback_defaults_off() {
        assert_eq!(SpinnerConfig::new(4).placement_feedback, None);
        let cfg = SpinnerConfig::new(4).with_placement_feedback(0.5);
        assert_eq!(cfg.placement_feedback, Some(0.5));
    }

    #[test]
    #[should_panic(expected = "share in [0, 1)")]
    fn placement_feedback_rejects_full_share() {
        let _ = SpinnerConfig::new(4).with_placement_feedback(1.0);
    }
}
