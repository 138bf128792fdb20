//! Streaming dynamic-graph driver: a session that keeps engine and
//! partition state warm across an ordered sequence of graph and cluster
//! changes, re-converging incrementally after each window.
//!
//! The one-shot entry points ([`crate::adapt`], [`crate::elastic`]) rebuild
//! the whole Pregel engine per call. A [`StreamSession`] instead holds one
//! engine for its lifetime and re-targets it at every window through the
//! fabric-preserving warm reset, so a long stream of deltas performs no
//! steady-state message-path allocation after the first window while
//! producing **bit-identical results** to the cold-start driver functions.
//!
//! Windows are [`StreamEvent`]s: a [`GraphDelta`] (edge additions/removals,
//! vertex arrivals — §III-D incremental repartitioning) or a partition-count
//! change (§III-E elastic repartitioning). Both unify on the same warm-start
//! path; only the label initialisation differs.
//!
//! With [`SpinnerConfig::placement_feedback`] enabled the session also
//! closes the paper's §V-F loop: when a window converges with a remote-
//! message share above the threshold, the session re-places every vertex
//! onto workers chosen by computed label (balanced greedy packing), and the
//! next window's warm reset hosts the engine there, so later windows run
//! with label-aligned locality — most messages then take the fabric's
//! lock-free local fast path instead of the cross-worker grid. Labels are
//! unaffected; with `async_worker_loads = false` they are bit-identical to
//! a feedback-free run.

use crate::config::{RestartScope, SpinnerConfig};
use crate::driver::{
    delta_affected, elastic_labels, least_loaded_labels, random_labels, stages, PartitionResult,
};
use crate::program::{load_of, seeded_global, SpinnerProgram, AGG_LOADS};
use crate::state::{label_histogram, EdgeState, Label, Phase, VertexState, NO_LABEL};
use spinner_graph::conversion::{from_undirected_edges, patch_undirected_edges};
use spinner_graph::mutation::apply_delta;
use spinner_graph::{DirectedGraph, GraphDelta, UndirectedGraph, VertexId};
use spinner_pregel::engine::Engine;
use spinner_pregel::{
    AggValue, HaltReason, Placement, RunSummary, TransportFaultPlan, TransportStats, WorkerId,
};

/// One window of a dynamic-graph stream.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// The graph changed: apply the delta and adapt the previous
    /// partitioning incrementally (§III-D).
    Delta(GraphDelta),
    /// The cluster changed: repartition elastically to `k` partitions
    /// (§III-E, Eq. 11). The graph is untouched.
    Resize {
        /// The new partition count.
        k: u32,
    },
    /// A worker failed and its partition state was lost (the paper's §V
    /// failure scenario). The vertices the engine hosted on that worker are
    /// reseeded with balanced labels, restarted as the only affected set,
    /// and re-converged warm; the window then re-places all vertices by
    /// computed label onto the worker slot's replacement. The graph and
    /// `k` are untouched — only labels and placement recover.
    WorkerLoss {
        /// The worker slot whose hosted state was lost.
        worker: WorkerId,
    },
}

/// The raw measurements of one [`WindowReport`], with public fields.
///
/// This is the construction / serialization surface of the report:
/// [`WindowReport`] itself keeps its fields private behind read accessors
/// (so derived statistics like [`WindowReport::local_share`] and plain
/// measurements present one uniform method-call surface), while `Parts`
/// is the plain-old-data form used to build one
/// ([`WindowReport::from_parts`]) or take one apart
/// ([`WindowReport::to_parts`]) — e.g. for the binary window log kept by
/// `spinner_serving`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReportParts {
    /// Window index (0 is the bootstrap partitioning).
    pub window: u32,
    /// Partition count in effect for this window.
    pub k: u32,
    /// Vertices after the window's delta.
    pub num_vertices: VertexId,
    /// Undirected edges after the window's delta.
    pub num_edges: u64,
    /// Final ratio of local edges φ.
    pub phi: f64,
    /// Final maximum normalized load ρ.
    pub rho: f64,
    /// Fraction of the vertices that existed *before* the window whose label
    /// changed while re-converging (1.0 for the bootstrap window).
    pub migration_fraction: f64,
    /// LPA iterations to re-converge.
    pub iterations: u32,
    /// Pregel supersteps executed.
    pub supersteps: u64,
    /// Messages exchanged while re-converging.
    pub messages: u64,
    /// Messages (logical deliveries) that stayed on their worker.
    pub sent_local: u64,
    /// Messages (logical deliveries) that crossed workers.
    pub sent_remote: u64,
    /// Physical records pushed into the worker-local fast-path queue.
    pub sent_local_records: u64,
    /// Physical records pushed across workers.
    pub sent_remote_records: u64,
    /// Vertices migrated by label-driven placement feedback.
    pub placement_moved: u64,
    /// Vertex compute invocations across the window's supersteps — the
    /// active-set scheduler's cost measure: a dense window computes close
    /// to `supersteps x num_vertices`; a frontier-seeded window only the
    /// churn (see [`WindowReport::active_fraction`]).
    pub computed: u64,
    /// Wall-clock nanoseconds of the window's run.
    pub wall_ns: u64,
    /// Message-fabric buffer growth events during the window.
    pub fabric_reallocs: u64,
    /// Vertices whose hosted state was lost to a failed worker and reseeded
    /// this window (non-zero only for [`StreamEvent::WorkerLoss`] windows —
    /// the recovery-cost denominator: compare against
    /// `migration_fraction × num_vertices` to see how much of the lost set
    /// actually ended up migrating).
    pub lost_vertices: u64,
    /// Encoded frame bytes moved through the message transport (0 on the
    /// default direct in-memory path, which never serialises).
    pub wire_bytes: u64,
    /// Encoded frames moved through the message transport.
    pub wire_frames: u64,
    /// Outbox records eliminated by sender-side combiner folding before
    /// framing (0 on the direct path or with folding disabled).
    pub wire_folded: u64,
    /// Frames re-published by the reliable transport layer after a detected
    /// loss or corruption (0 on the direct path, and on a clean wire).
    pub retransmits: u64,
    /// Peak number of transport lanes that entered the `Degraded` health
    /// state during the window (they recovered — traffic got through).
    pub lanes_degraded: u64,
    /// Transport lanes declared `Dead` during the window. Each death was
    /// escalated into worker-loss recovery before the window completed, so
    /// a non-zero count always pairs with a recovery
    /// ([`WindowReport::is_recovery`]).
    pub lanes_dead: u64,
}

/// Per-window convergence, quality, and cost accounting — one point of a
/// Fig. 7-style trajectory.
///
/// Every measurement is read through an accessor method of the same name —
/// fields are private, so raw values (`report.messages()`) and derived
/// statistics ([`Self::local_share`], [`Self::remote_dedup`]) present one
/// uniform surface, and layers above (e.g. `spinner_serving`, which pairs a
/// report with its routing epoch and snapshot sizes) can extend it without
/// mixing fields and methods. To construct or serialize a report, go
/// through [`WindowReportParts`].
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    parts: WindowReportParts,
}

impl WindowReport {
    /// Builds a report from its raw measurements.
    pub fn from_parts(parts: WindowReportParts) -> Self {
        Self { parts }
    }

    /// The raw measurements, cloned out (inverse of [`Self::from_parts`]).
    pub fn to_parts(&self) -> WindowReportParts {
        self.parts.clone()
    }

    /// Window index (0 is the bootstrap partitioning).
    pub fn window(&self) -> u32 {
        self.parts.window
    }

    /// Partition count in effect for this window.
    pub fn k(&self) -> u32 {
        self.parts.k
    }

    /// Vertices after the window's delta.
    pub fn num_vertices(&self) -> VertexId {
        self.parts.num_vertices
    }

    /// Undirected edges after the window's delta.
    pub fn num_edges(&self) -> u64 {
        self.parts.num_edges
    }

    /// Final ratio of local edges φ.
    pub fn phi(&self) -> f64 {
        self.parts.phi
    }

    /// Final maximum normalized load ρ.
    pub fn rho(&self) -> f64 {
        self.parts.rho
    }

    /// Fraction of the vertices that existed *before* the window whose label
    /// changed while re-converging (1.0 for the bootstrap window).
    pub fn migration_fraction(&self) -> f64 {
        self.parts.migration_fraction
    }

    /// LPA iterations to re-converge.
    pub fn iterations(&self) -> u32 {
        self.parts.iterations
    }

    /// Pregel supersteps executed.
    pub fn supersteps(&self) -> u64 {
        self.parts.supersteps
    }

    /// Messages exchanged while re-converging.
    pub fn messages(&self) -> u64 {
        self.parts.messages
    }

    /// Messages (logical deliveries) that stayed on their worker (served by
    /// the fabric's locality fast path). Logical counts are
    /// lane-independent, so [`Self::local_share`] is comparable across the
    /// unicast and broadcast arms.
    pub fn sent_local(&self) -> u64 {
        self.parts.sent_local
    }

    /// Messages (logical deliveries) that crossed workers.
    pub fn sent_remote(&self) -> u64 {
        self.parts.sent_remote
    }

    /// Physical records pushed into the worker-local fast-path queue (one
    /// per broadcast; equals [`Self::sent_local`] under the per-edge unicast
    /// arm).
    pub fn sent_local_records(&self) -> u64 {
        self.parts.sent_local_records
    }

    /// Physical records pushed across workers — the wire traffic a
    /// distributed deployment would serialise for this window (one per
    /// `(sender, destination worker)` pair under the broadcast lane; equals
    /// [`Self::sent_remote`] under unicast).
    pub fn sent_remote_records(&self) -> u64 {
        self.parts.sent_remote_records
    }

    /// Vertices migrated onto a different worker by label-driven placement
    /// feedback *after* this window converged (0 when feedback is disabled
    /// or the remote share stayed under the threshold).
    pub fn placement_moved(&self) -> u64 {
        self.parts.placement_moved
    }

    /// Vertex compute invocations across the window's supersteps.
    pub fn computed(&self) -> u64 {
        self.parts.computed
    }

    /// Mean fraction of the graph computed per superstep — `computed /
    /// (supersteps x num_vertices)`, 0.0 for an empty denominator. Close to
    /// 1 for dense windows (every non-halted vertex every superstep), and
    /// « 1 for frontier-seeded delta windows, whose cost scales with churn.
    pub fn active_fraction(&self) -> f64 {
        let denom = self.parts.supersteps * self.parts.num_vertices as u64;
        if denom == 0 {
            0.0
        } else {
            self.parts.computed as f64 / denom as f64
        }
    }

    /// Wall-clock nanoseconds of the window's run.
    pub fn wall_ns(&self) -> u64 {
        self.parts.wall_ns
    }

    /// Message-fabric buffer growth events during the window (see
    /// `WorkerMetrics::fabric_reallocs`); 0 from window 2 on when the warm
    /// engine absorbs the stream.
    pub fn fabric_reallocs(&self) -> u64 {
        self.parts.fabric_reallocs
    }

    /// Vertices reseeded because a failed worker lost their state (non-zero
    /// only for [`StreamEvent::WorkerLoss`] recovery windows).
    pub fn lost_vertices(&self) -> u64 {
        self.parts.lost_vertices
    }

    /// True when this window recovered from a worker loss.
    pub fn is_recovery(&self) -> bool {
        self.parts.lost_vertices > 0
    }

    /// Encoded frame bytes moved through the message transport during the
    /// window (0 on the default direct in-memory path).
    pub fn wire_bytes(&self) -> u64 {
        self.parts.wire_bytes
    }

    /// Encoded frames moved through the message transport.
    pub fn wire_frames(&self) -> u64 {
        self.parts.wire_frames
    }

    /// Outbox records eliminated by sender-side combiner folding before
    /// framing.
    pub fn wire_folded(&self) -> u64 {
        self.parts.wire_folded
    }

    /// Share of this window's messages that stayed worker-local (1.0 for a
    /// window that exchanged none).
    pub fn local_share(&self) -> f64 {
        if self.parts.messages == 0 {
            1.0
        } else {
            self.parts.sent_local as f64 / self.parts.messages as f64
        }
    }

    /// Remote dedup ratio of this window: logical cross-worker deliveries
    /// per physical grid record (1.0 under unicast or with no remote
    /// traffic) — the broadcast lane's compression factor.
    pub fn remote_dedup(&self) -> f64 {
        if self.parts.sent_remote_records == 0 {
            1.0
        } else {
            self.parts.sent_remote as f64 / self.parts.sent_remote_records as f64
        }
    }

    /// Frames re-published by the reliable transport layer after a detected
    /// loss or corruption.
    pub fn retransmits(&self) -> u64 {
        self.parts.retransmits
    }

    /// Peak number of transport lanes that entered `Degraded` health during
    /// the window.
    pub fn lanes_degraded(&self) -> u64 {
        self.parts.lanes_degraded
    }

    /// Transport lanes declared `Dead` during the window (each one was
    /// escalated into worker-loss recovery).
    pub fn lanes_dead(&self) -> u64 {
        self.parts.lanes_dead
    }

    /// Retransmitted frames per encoded frame — the reliable layer's
    /// delivery overhead for this window (0.0 for a clean wire or the
    /// direct path).
    pub fn retransmit_ratio(&self) -> f64 {
        if self.parts.wire_frames == 0 {
            0.0
        } else {
            self.parts.retransmits as f64 / self.parts.wire_frames as f64
        }
    }
}

/// A warm streaming session over an evolving graph.
///
/// ```
/// use spinner_core::{SpinnerConfig, StreamEvent, StreamSession};
/// use spinner_graph::generators::{planted_partition, SbmConfig};
/// use spinner_graph::GraphDelta;
///
/// let base = planted_partition(SbmConfig {
///     n: 600, communities: 4, internal_degree: 6.0, external_degree: 1.0,
///     skew: None, seed: 7,
/// });
/// let mut cfg = SpinnerConfig::new(4);
/// cfg.num_workers = 4;
/// let mut session = StreamSession::new(base, cfg);
/// let report =
///     session.apply(StreamEvent::Delta(GraphDelta::additions(vec![(0, 300)])));
/// assert!(report.migration_fraction() < 0.5);
/// assert_eq!(session.windows().len(), 2); // bootstrap + one delta window
/// ```
pub struct StreamSession {
    cfg: SpinnerConfig,
    /// The evolving directed edge list (deltas apply here).
    graph: DirectedGraph,
    /// The current undirected view the partitioner runs on.
    undirected: UndirectedGraph,
    labels: Vec<Label>,
    engine: Engine<SpinnerProgram>,
    windows: Vec<WindowReport>,
    /// Label → worker map installed by the latest placement-feedback
    /// migration (`None` until feedback first triggers: vertices then sit
    /// on the bootstrap hash placement). Kept as the label-level map — not
    /// a per-vertex [`Placement`] — so vertices appended by later deltas
    /// are placed consistently with their initial label.
    label_to_worker: Option<Vec<WorkerId>>,
    /// Where the session's vertices live, and what the serving layer
    /// publishes: the placement the latest window ran on, or the by-label
    /// re-place installed after it, which the engine adopts at the next
    /// window's warm reset. Tracked explicitly because it is not derivable
    /// from the final labels — the window's reset placement was computed
    /// from the window's *initial* labels.
    placement: Placement,
}

impl StreamSession {
    /// Bootstraps a session: partitions `graph` from scratch (window 0) and
    /// keeps the engine warm for the stream. The directed edge list is
    /// treated as undirected friendships (the Tuenti/§V-C setting).
    ///
    /// With [`SpinnerConfig::placement_feedback`] set, every window —
    /// including this bootstrap — is followed by the label-driven placement
    /// check: if the window's remote-message share exceeded the threshold,
    /// every vertex is re-placed onto workers chosen by computed label
    /// (paper §V-F), and the next window runs on that placement.
    pub fn new(graph: DirectedGraph, cfg: SpinnerConfig) -> Self {
        let undirected = from_undirected_edges(&graph);
        let n = undirected.num_vertices();
        let labels = random_labels(n, cfg.k, cfg.seed);
        let placement = stages::placement(n, &cfg);
        let mut engine = stages::build_engine(&undirected, &cfg, &placement, &labels, &[]);
        let summary = engine.run();
        let result = stages::collect(&cfg, &engine, &summary, Some(&undirected));
        let lanes_degraded = engine.transport_health_counts().0;
        let mut session = Self {
            cfg,
            graph,
            undirected,
            labels: result.labels.clone(),
            engine,
            windows: Vec::new(),
            label_to_worker: None,
            placement,
        };
        let placement_moved = session.feedback_replace(&result);
        session.push_window(&result, &summary, 1.0, placement_moved, 0, (lanes_degraded, 0));
        session
    }

    /// Rebuilds a session from a [`SessionState`] snapshot without
    /// re-partitioning: the engine is constructed directly on the saved
    /// labels and hosted on the saved placement, so the next
    /// [`Self::apply`] behaves bit-identically to the session the state was
    /// taken from (the warm reset reloads topology and labels either way;
    /// what matters is that graph, labels, feedback map, and `k` match).
    ///
    /// This is the cross-process extension of the warm reset: a restarted
    /// process resumes serving and streaming from persisted state instead
    /// of paying a full bootstrap partitioning. `spinner_serving` layers a
    /// binary snapshot + write-ahead-log codec on top of this.
    pub fn from_state(state: SessionState) -> Self {
        let SessionState { cfg, graph, labels, placement, label_assignment, windows } = state;
        assert!(!windows.is_empty(), "session state must contain the bootstrap window");
        let undirected = from_undirected_edges(&graph);
        assert_eq!(
            labels.len(),
            undirected.num_vertices() as usize,
            "labels do not cover the graph"
        );
        let placement = Placement::explicit(placement, cfg.num_workers);
        assert_eq!(placement.num_vertices(), undirected.num_vertices());
        let engine = stages::build_engine(&undirected, &cfg, &placement, &labels, &[]);
        Self {
            cfg,
            graph,
            undirected,
            labels,
            engine,
            windows,
            label_to_worker: label_assignment,
            placement,
        }
    }

    /// Snapshots everything a restarted process needs to continue this
    /// session via [`Self::from_state`]. The undirected view and the engine
    /// are deliberately absent: both are derived deterministically from the
    /// directed graph, labels, and placement.
    pub fn state(&self) -> SessionState {
        SessionState {
            cfg: self.cfg.clone(),
            graph: self.graph.clone(),
            labels: self.labels.clone(),
            placement: self.placement.as_slice().to_vec(),
            label_assignment: self.label_to_worker.clone(),
            windows: self.windows.clone(),
        }
    }

    /// Applies the next stream window and re-converges, warm. Returns the
    /// window's report (also appended to [`Self::windows`]).
    ///
    /// The result is bit-identical to what the cold-start driver would
    /// produce for the same state: [`crate::adapt_with_delta`] for
    /// [`StreamEvent::Delta`], [`crate::elastic`] for
    /// [`StreamEvent::Resize`].
    pub fn apply(&mut self, event: StreamEvent) -> &WindowReport {
        let old_n = self.labels.len();
        // Which vertices restart migrations (only consulted under
        // `RestartScope::AffectedOnly`; empty marks everyone affected).
        let mut affected: Vec<bool> = Vec::new();
        let mut lost_vertices = 0u64;
        let labels = match &event {
            StreamEvent::Delta(delta) => {
                let next = apply_delta(&self.graph, delta);
                self.undirected = patch_undirected_edges(&self.undirected, &next, delta);
                self.graph = next;
                if self.cfg.restart_scope == RestartScope::AffectedOnly {
                    let n = self.undirected.num_vertices();
                    affected = delta_affected(n, old_n as VertexId, delta);
                }
                least_loaded_labels(&self.undirected, &self.labels, &[], self.cfg.k)
            }
            StreamEvent::Resize { k } => {
                assert!(*k >= 1, "need at least one partition");
                assert!(*k <= crate::state::MAX_K, "k = {k} exceeds MAX_K");
                let labels = elastic_labels(&self.labels, self.cfg.k, *k, self.cfg.seed);
                self.cfg.k = *k;
                labels
            }
            StreamEvent::WorkerLoss { worker } => {
                assert!(
                    usize::from(*worker) < self.cfg.num_workers,
                    "lost worker {worker} out of range for {} workers",
                    self.cfg.num_workers
                );
                // Recovery windows always restart only the lost vertices,
                // regardless of the configured scope: recovery cost must
                // scale with the lost fraction, not the graph (survivors
                // still adapt passively — they recompute scores as
                // neighbors move).
                let (labels, lost, count) = self.reseed_hosted_by(*worker, &self.labels);
                (affected, lost_vertices) = (lost, count);
                labels
            }
        };

        // Frontier-seeded delta windows (opt-in): instead of replaying the
        // Initialize warm-up densely, seed the engine with everything that
        // warm-up would recompute — labels, weighted degrees, neighbour-
        // label histograms, partition loads (both the
        // master's view and the persistent aggregator the migration phase
        // folds into) — and park every vertex outside the delta's frontier.
        // The frontier is the delta-touched vertices plus their direct
        // neighbours: touched vertices can re-score against changed
        // adjacency, and their neighbours are exactly the vertices whose
        // histograms or load penalties the delta (or a touched vertex's
        // first migration) can change. Anything farther only reacts to
        // migration announcements, which wake parked vertices through the
        // normal message path. Resize and worker-loss windows stay dense:
        // their perturbation is global.
        let frontier = match &event {
            StreamEvent::Delta(delta) if self.cfg.frontier_windows => {
                let touched =
                    delta_affected(self.undirected.num_vertices(), old_n as VertexId, delta);
                Some(expand_frontier(&self.undirected, touched))
            }
            _ => None,
        };

        let placement = self.placement_for(&labels);
        if let Some(frontier) = &frontier {
            let mut pcfg = self.cfg.clone();
            // Parked bystanders must stay parked once they settle again —
            // the existing affected-only halt in ComputeMigrations does
            // exactly that, with `affected` seeded from the frontier.
            pcfg.restart_scope = RestartScope::AffectedOnly;
            let program = SpinnerProgram { cfg: pcfg, start_phase: Phase::ComputeScores };
            let und = &self.undirected;
            let mut loads = vec![0i64; self.cfg.k as usize];
            for (v, &l) in labels.iter().enumerate() {
                let degree = und.weighted_degree(v as VertexId);
                loads[l as usize] += load_of(self.cfg.objective, degree) as i64;
            }
            self.engine.warm_reset_undirected(
                program,
                und,
                &placement,
                |v| {
                    let vi = v as usize;
                    let (ts, ws) = und.neighbors(v);
                    let (hist, degree) =
                        label_histogram(ts.iter().copied().zip(ws.iter().copied()), &labels);
                    let state = VertexState {
                        label: labels[vi],
                        degree,
                        candidate: NO_LABEL,
                        affected: frontier[vi],
                        label_weights: hist,
                    };
                    (state, !frontier[vi])
                },
                |_, _, w| EdgeState { weight: w, neighbor_label: NO_LABEL },
            );
            // The migration phase folds load deltas into the *persistent*
            // loads aggregator and the master re-reads it each iteration,
            // so the aggregator snapshot must be seeded alongside the
            // global state — identity there would collapse the loads to
            // just the migration deltas.
            self.engine.set_aggregate(AGG_LOADS, AggValue::VecI64(loads.clone()));
            self.engine.set_global(seeded_global(&self.cfg, loads));
        } else {
            stages::reset_engine(
                &mut self.engine,
                &self.undirected,
                &self.cfg,
                &placement,
                &labels,
                &affected,
            );
        }
        self.placement = placement;
        let mut summary = self.engine.run();

        // Lane-health escalation: when the transport declares a lane dead
        // (retry budget exhausted or take deadline hit), the engine aborts
        // the run with a typed [`HaltReason::TransportFailed`] instead of
        // hanging. The session treats the failing lane's *sender* as a lost
        // worker — its outbound state is unreachable, which is
        // operationally the same as the worker being gone — and drives the
        // exact [`StreamEvent::WorkerLoss`] recovery path: reseed the
        // vertices it hosted, dense warm reset restarting only those, and
        // re-run. [`Engine::run`] resets the transport on entry (the
        // replacement worker connects fresh), and scripted fault plans keep
        // their per-lane frame clocks across resets (consumed faults stay
        // consumed), so the loop terminates on any finite plan. Failed
        // attempts' metrics are kept and prepended below so the window
        // accounts every frame that actually moved.
        let mut transport_lost = 0u64;
        let mut lanes_degraded = 0u64;
        let mut lanes_dead = 0u64;
        let mut failed_metrics = Vec::new();
        let mut escalation_labels: Option<Vec<Label>> = None;
        while let HaltReason::TransportFailed(err) = summary.halt {
            let (degraded, dead) = self.engine.transport_health_counts();
            lanes_degraded = lanes_degraded.max(degraded);
            lanes_dead += dead.max(1);
            failed_metrics.append(&mut summary.metrics);
            let seed = escalation_labels.as_deref().unwrap_or(&labels);
            let (relabeled, lost, count) =
                self.reseed_hosted_by(err.sender() as WorkerId, seed);
            transport_lost += count;
            let placement = self.placement_for(&relabeled);
            stages::reset_engine(
                &mut self.engine,
                &self.undirected,
                &self.cfg,
                &placement,
                &relabeled,
                &lost,
            );
            self.placement = placement;
            escalation_labels = Some(relabeled);
            summary = self.engine.run();
        }
        if !failed_metrics.is_empty() {
            failed_metrics.append(&mut summary.metrics);
            summary.metrics = failed_metrics;
        }
        let (degraded, dead) = self.engine.transport_health_counts();
        let lanes = (lanes_degraded.max(degraded), lanes_dead + dead);

        let result = stages::collect(&self.cfg, &self.engine, &summary, Some(&self.undirected));
        let moved =
            self.labels.iter().zip(&result.labels).filter(|&(&old, &new)| old != new).count();
        let migration_fraction = if old_n > 0 { moved as f64 / old_n as f64 } else { 1.0 };
        self.labels = result.labels.clone();
        // A recovery window re-places every vertex by computed label
        // unconditionally, installing the label → worker map even with
        // feedback off: the reseeded vertices must land on deliberate,
        // balanced workers, and later windows keep that placement.
        let recovering = matches!(&event, StreamEvent::WorkerLoss { .. }) || transport_lost > 0;
        let placement_moved =
            if recovering { self.replace_by_label() } else { self.feedback_replace(&result) };
        let lost = lost_vertices + transport_lost;
        self.push_window(&result, &summary, migration_fraction, placement_moved, lost, lanes);
        self.windows.last().expect("window just pushed")
    }

    /// The vertices the engine hosts on `worker` (flags, and their count),
    /// with the least-loaded reseed of `labels` that recovers them.
    fn reseed_hosted_by(
        &self,
        worker: WorkerId,
        labels: &[Label],
    ) -> (Vec<Label>, Vec<bool>, u64) {
        let lost: Vec<bool> = self.placement.as_slice().iter().map(|&w| w == worker).collect();
        let count = lost.iter().filter(|&&f| f).count() as u64;
        (least_loaded_labels(&self.undirected, labels, &lost, self.cfg.k), lost, count)
    }

    /// Appends the report of the window that converged to `result`.
    fn push_window(
        &mut self,
        result: &PartitionResult,
        summary: &RunSummary,
        migration_fraction: f64,
        placement_moved: u64,
        lost_vertices: u64,
        (lanes_degraded, lanes_dead): (u64, u64),
    ) {
        let totals = &result.totals;
        self.windows.push(WindowReport::from_parts(WindowReportParts {
            window: self.windows.len() as u32,
            k: self.cfg.k,
            num_vertices: self.undirected.num_vertices(),
            num_edges: self.undirected.num_edges(),
            phi: result.quality.phi,
            rho: result.quality.rho,
            migration_fraction,
            iterations: result.iterations,
            supersteps: result.supersteps,
            messages: totals.messages,
            sent_local: totals.local_messages(),
            sent_remote: totals.remote_messages,
            sent_local_records: totals.local_records,
            sent_remote_records: totals.remote_records,
            placement_moved,
            computed: totals.computed,
            wall_ns: result.wall_ns,
            fabric_reallocs: fabric_reallocs(summary),
            lost_vertices,
            wire_bytes: totals.wire_bytes,
            wire_frames: totals.wire_frames,
            wire_folded: totals.wire_folded,
            retransmits: totals.retransmits,
            lanes_degraded,
            lanes_dead,
        }));
    }

    /// Installs a scripted transport fault plan on the engine, rebuilding
    /// the transport stack ([`spinner_pregel::FaultyTransport`] under the
    /// reliable layer, with [`SpinnerConfig::transport_retry`]'s budgets).
    /// No-op on the default direct in-memory transport — chaos needs a
    /// wire. Fault plans are transient chaos apparatus: they are never
    /// persisted into [`SessionState`].
    pub fn inject_transport_faults(&mut self, plan: TransportFaultPlan) {
        self.engine.inject_transport_faults(plan);
    }

    /// `(injected, remaining)` counts from the installed fault plan —
    /// `(0, 0)` when no plan is installed.
    pub fn transport_chaos_counts(&self) -> (u64, u64) {
        self.engine.transport_chaos_counts()
    }

    /// Receive-side reliability counters summed over every lane of the
    /// engine's transport (all-zero on the direct path or a clean wire).
    pub fn transport_recv_stats(&self) -> TransportStats {
        self.engine.transport_recv_stats()
    }

    /// The placement for a window starting from `labels`: hash placement
    /// until feedback first triggers, the label-driven map afterwards
    /// (labels beyond the map — partitions added by an elastic resize —
    /// fall back to the modulo wrap until the next by-label re-place).
    fn placement_for(&self, labels: &[Label]) -> Placement {
        match &self.label_to_worker {
            Some(assignment) => {
                Placement::from_label_assignment(labels, assignment, self.cfg.num_workers)
            }
            None => stages::placement(labels.len() as VertexId, &self.cfg),
        }
    }

    /// Label-driven placement feedback (§V-F): when the window that just
    /// converged pushed more than the configured share of its messages
    /// across workers, re-place every vertex onto the worker owning its
    /// computed label — balanced greedy packing, so `k > num_workers` does
    /// not pile large labels onto one worker. Returns the number of
    /// vertices that changed worker (0 when feedback is off or locality was
    /// good enough).
    fn feedback_replace(&mut self, result: &PartitionResult) -> u64 {
        let Some(threshold) = self.cfg.placement_feedback else { return 0 };
        let remote_share = 1.0 - result.totals.local_share();
        if remote_share <= threshold {
            return 0;
        }
        self.replace_by_label()
    }

    /// Re-places every vertex onto the balanced by-label placement for the
    /// current labels, installing the label → worker map. Returns how many
    /// vertices changed worker. The engine moves with the next window's
    /// warm reset, which every window starts with, so nothing is copied
    /// here.
    fn replace_by_label(&mut self) -> u64 {
        let assignment =
            Placement::balanced_label_assignment(&self.labels, self.cfg.num_workers);
        let placement =
            Placement::from_label_assignment(&self.labels, &assignment, self.cfg.num_workers);
        let moved = placement
            .as_slice()
            .iter()
            .zip(self.placement.as_slice())
            .filter(|(new, old)| new != old)
            .count() as u64;
        self.placement = placement;
        self.label_to_worker = Some(assignment);
        moved
    }

    /// Runs a whole stream of events, returning the final report.
    pub fn run_stream(
        &mut self,
        events: impl IntoIterator<Item = StreamEvent>,
    ) -> &WindowReport {
        for event in events {
            self.apply(event);
        }
        self.windows.last().expect("bootstrap window always present")
    }

    /// The current labelling.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The current partition count.
    pub fn k(&self) -> u32 {
        self.cfg.k
    }

    /// The session configuration (k tracks [`StreamEvent::Resize`] events).
    pub fn config(&self) -> &SpinnerConfig {
        &self.cfg
    }

    /// The evolving directed edge list.
    pub fn graph(&self) -> &DirectedGraph {
        &self.graph
    }

    /// The current undirected view.
    pub fn undirected(&self) -> &UndirectedGraph {
        &self.undirected
    }

    /// All window reports so far (index 0 is the bootstrap).
    pub fn windows(&self) -> &[WindowReport] {
        &self.windows
    }

    /// The partition quality the last window converged to.
    pub fn last(&self) -> &WindowReport {
        self.windows.last().expect("bootstrap window always present")
    }

    /// The label → worker map installed by the latest placement-feedback
    /// migration, if feedback has triggered yet.
    pub fn label_assignment(&self) -> Option<&[WorkerId]> {
        self.label_to_worker.as_deref()
    }

    /// Where the session's vertices live — what a serving layer should
    /// publish for vertex → worker routing. Updated by every window's warm
    /// reset and by each by-label re-place (feedback or recovery).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }
}

/// A self-contained snapshot of a [`StreamSession`] — everything
/// [`StreamSession::from_state`] needs to continue the stream (and serve
/// lookups) bit-identically in another process. Produced by
/// [`StreamSession::state`]; `spinner_serving` defines the binary on-disk
/// encoding.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// The session configuration; `k` reflects any [`StreamEvent::Resize`]
    /// already applied.
    pub cfg: SpinnerConfig,
    /// The evolving directed edge list as of the snapshot.
    pub graph: DirectedGraph,
    /// The current labelling (one label per vertex).
    pub labels: Vec<Label>,
    /// The worker hosting each vertex — the engine's live placement.
    pub placement: Vec<WorkerId>,
    /// The label → worker map installed by the latest placement-feedback
    /// migration, if any.
    pub label_assignment: Option<Vec<WorkerId>>,
    /// All window reports so far (index 0 is the bootstrap).
    pub windows: Vec<WindowReport>,
}

/// A delta window's frontier: the touched flags widened by one hop. A
/// touched vertex's direct neighbours see their label histograms or load
/// penalties change (or receive its first migration announcement before any
/// message could wake them), so one hop is exactly the set whose next score
/// can differ; everything farther is reachable only through migration
/// announcements, which wake parked vertices through the normal path.
fn expand_frontier(graph: &UndirectedGraph, touched: Vec<bool>) -> Vec<bool> {
    let mut out = touched.clone();
    for (v, &t) in touched.iter().enumerate() {
        if t {
            for &n in graph.neighbors(v as VertexId).0 {
                out[n as usize] = true;
            }
        }
    }
    out
}

/// Total message-fabric growth events across a run.
fn fabric_reallocs(summary: &spinner_pregel::RunSummary) -> u64 {
    summary.metrics.iter().flat_map(|s| s.per_worker.iter().map(|w| w.fabric_reallocs)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{adapt_with_delta, elastic, partition};
    use spinner_graph::generators::{planted_partition, SbmConfig};
    use spinner_graph::mutation::{sample_new_edges, sample_removed_edges};
    use spinner_graph::{DeltaStream, DeltaStreamConfig, GraphBuilder};

    fn base(n: u32, seed: u64) -> DirectedGraph {
        planted_partition(SbmConfig {
            n,
            communities: 6,
            internal_degree: 8.0,
            external_degree: 1.5,
            skew: None,
            seed,
        })
    }

    fn cfg(k: u32) -> SpinnerConfig {
        let mut cfg = SpinnerConfig::new(k).with_seed(42);
        cfg.num_workers = 4;
        cfg.max_iterations = 60;
        cfg
    }

    #[test]
    fn warm_delta_window_matches_cold_adapt() {
        let g0 = base(2000, 3);
        let cfg = cfg(6);
        let mut session = StreamSession::new(g0.clone(), cfg.clone());
        let cold_initial = partition(&from_undirected_edges(&g0), &cfg);
        assert_eq!(session.labels(), cold_initial.labels.as_slice());

        let delta = GraphDelta {
            added_edges: sample_new_edges(&g0, 120, 0.8, 9),
            removed_edges: sample_removed_edges(&g0, 40, 11),
            new_vertices: 0,
        };
        let g1 = apply_delta(&g0, &delta);
        let cold =
            adapt_with_delta(&from_undirected_edges(&g1), &cold_initial.labels, &delta, &cfg);
        session.apply(StreamEvent::Delta(delta));
        assert_eq!(session.labels(), cold.labels.as_slice(), "warm adapt diverged from cold");
        let w = session.last();
        assert_eq!(w.iterations(), cold.iterations);
        assert!((w.phi() - cold.quality.phi).abs() < 1e-15);
        assert!((w.rho() - cold.quality.rho).abs() < 1e-15);
    }

    #[test]
    fn warm_resize_window_matches_cold_elastic() {
        let g0 = base(1500, 5);
        let c6 = cfg(6);
        let mut session = StreamSession::new(g0.clone(), c6.clone());
        let initial = session.labels().to_vec();

        let undirected = from_undirected_edges(&g0);
        let grown = elastic(&undirected, &initial, 6, &cfg(8));
        session.apply(StreamEvent::Resize { k: 8 });
        assert_eq!(session.k(), 8);
        assert_eq!(session.labels(), grown.labels.as_slice(), "warm elastic diverged");
    }

    #[test]
    fn multi_window_stream_stays_warm_and_balanced() {
        let g0 = base(2500, 7);
        let cfg = cfg(6);
        let mut session = StreamSession::new(g0.clone(), cfg.clone());
        let stream = DeltaStream::new(
            g0,
            DeltaStreamConfig { windows: 5, seed: 17, ..DeltaStreamConfig::default() },
        );
        for delta in stream {
            let report = session.apply(StreamEvent::Delta(delta));
            assert!(report.migration_fraction() < 0.5, "window moved too much");
            assert!(report.rho() < cfg.c + 0.25, "rho {}", report.rho());
        }
        assert_eq!(session.windows().len(), 6);
        // Windows >= 2 run entirely inside warmed buffers.
        for w in &session.windows()[2..] {
            assert_eq!(w.fabric_reallocs(), 0, "window {} grew the fabric", w.window());
        }
        // Labels cover the grown vertex set.
        assert_eq!(session.labels().len(), session.undirected().num_vertices() as usize);
        assert!(session.labels().iter().all(|&l| l < session.k()));
    }

    /// `apply` patches the undirected view instead of re-converting it: after
    /// every window of a churning stream the view equals a fresh conversion,
    /// and both graphs hold exactly the capacity a fresh build allocates.
    #[test]
    fn patched_view_matches_fresh_conversion_every_window() {
        let g0 = base(1500, 13);
        let mut session = StreamSession::new(g0.clone(), cfg(6));
        let stream = DeltaStream::new(
            g0,
            DeltaStreamConfig {
                windows: 4,
                remove_fraction: 0.02,
                vertex_fraction: 0.01,
                seed: 23,
                ..DeltaStreamConfig::default()
            },
        );
        for delta in stream {
            assert!(!delta.removed_edges.is_empty() && delta.new_vertices > 0);
            session.apply(StreamEvent::Delta(delta));
            let graph = session.graph();
            let rebuilt =
                GraphBuilder::new(graph.num_vertices()).add_edges(graph.edges()).build();
            let converted = from_undirected_edges(graph);
            assert_eq!(graph, &rebuilt);
            assert_eq!(session.undirected(), &converted);
            assert_eq!(graph.memory_bytes(), rebuilt.memory_bytes());
            assert_eq!(session.undirected().memory_bytes(), converted.memory_bytes());
        }
    }

    /// The §V-F feedback loop: with the synchronous load view, re-placing
    /// vertices by computed label must leave every label and every
    /// label-space number of every window bit-identical while strictly
    /// raising the worker-local message share of later windows, and the
    /// re-placed layout must run inside warmed buffers.
    #[test]
    fn placement_feedback_improves_locality_but_not_labels() {
        let g0 = base(2000, 29);
        let mut plain_cfg = cfg(6);
        plain_cfg.async_worker_loads = false;
        let feedback_cfg = plain_cfg.clone().with_placement_feedback(0.5);

        let mut plain = StreamSession::new(g0.clone(), plain_cfg);
        let mut fed = StreamSession::new(g0.clone(), feedback_cfg);
        // Hash placement over 4 workers leaves ~3/4 of messages remote, so
        // the bootstrap window must trigger the migration.
        assert!(fed.last().placement_moved() > 0, "feedback did not trigger");
        assert!(fed.label_assignment().is_some());
        assert_eq!(plain.labels(), fed.labels());

        let stream = DeltaStream::new(
            g0,
            DeltaStreamConfig { windows: 3, seed: 31, ..DeltaStreamConfig::default() },
        );
        for delta in stream {
            plain.apply(StreamEvent::Delta(delta.clone()));
            fed.apply(StreamEvent::Delta(delta));
            assert_eq!(plain.labels(), fed.labels(), "feedback changed the label space");
        }
        // Everything but where the messages went, wall time and buffer
        // growth.
        let label_space = |w: &WindowReport| WindowReportParts {
            sent_local: 0,
            sent_remote: 0,
            sent_local_records: 0,
            sent_remote_records: 0,
            placement_moved: 0,
            wall_ns: 0,
            fabric_reallocs: 0,
            ..w.to_parts()
        };
        for (p, f) in plain.windows().iter().zip(fed.windows()) {
            assert_eq!(label_space(p), label_space(f), "window {} diverged", p.window());
            if f.window() >= 1 {
                assert!(f.local_share() > p.local_share(), "window {}", f.window());
            }
            if f.window() >= 2 {
                assert_eq!(
                    f.fabric_reallocs(),
                    0,
                    "window {} grew after migrating",
                    f.window()
                );
            }
        }
        let shares = |s: &StreamSession| -> Vec<f64> {
            s.windows().iter().map(|w| w.local_share()).collect()
        };
        assert_eq!(
            shares(&plain),
            [0.25330571755600373, 0.2522424499761159, 0.25312360259883737, 0.25329704835670924]
        );
        assert_eq!(
            shares(&fed),
            [0.25330571755600373, 0.8550236187038904, 0.852302917116027, 0.8504291396273812]
        );
        let records: u64 = fed.windows().iter().map(|w| w.sent_remote_records()).sum();
        assert_eq!((records, fed.last().phi()), (25_618, 0.829000577700751));
    }

    /// `state()` → `from_state()` round-trips mid-stream: the restored
    /// session must continue the stream bit-identically to the original —
    /// labels, reports (modulo wall-clock), placement, and feedback map.
    #[test]
    fn from_state_continues_bit_identically() {
        let g0 = base(1800, 19);
        let cfg = cfg(6).with_placement_feedback(0.5);
        let mut original = StreamSession::new(g0.clone(), cfg);
        let mut stream = DeltaStream::new(
            g0,
            DeltaStreamConfig { windows: 6, seed: 37, ..DeltaStreamConfig::default() },
        );
        // Advance two windows (plus a resize) before snapshotting.
        original.apply(StreamEvent::Delta(stream.next().expect("window")));
        original.apply(StreamEvent::Resize { k: 8 });

        let mut restored = StreamSession::from_state(original.state());
        assert_eq!(restored.labels(), original.labels());
        assert_eq!(restored.k(), original.k());
        assert_eq!(restored.placement(), original.placement());
        assert_eq!(restored.label_assignment(), original.label_assignment());
        assert_eq!(restored.windows().len(), original.windows().len());

        for event in [
            StreamEvent::Delta(stream.next().expect("window")),
            StreamEvent::Resize { k: 5 },
            StreamEvent::Delta(stream.next().expect("window")),
        ] {
            original.apply(event.clone());
            restored.apply(event);
            assert_eq!(restored.labels(), original.labels(), "restored session diverged");
            assert_eq!(restored.placement(), original.placement());
            let (o, r) = (original.last(), restored.last());
            assert_eq!(r.window(), o.window());
            assert_eq!(r.iterations(), o.iterations());
            assert_eq!(r.phi().to_bits(), o.phi().to_bits());
            assert_eq!(r.rho().to_bits(), o.rho().to_bits());
            assert_eq!(r.messages(), o.messages());
            assert_eq!(r.placement_moved(), o.placement_moved());
        }
    }

    /// Worker-loss recovery: reseeding + affected-only re-convergence must
    /// keep label migration proportional to the lost fraction (not the
    /// graph), land a valid labelling, and be deterministic across a
    /// `state()`/`from_state()` process boundary.
    #[test]
    fn worker_loss_recovery_is_scoped_and_deterministic() {
        let g0 = base(2500, 11);
        let cfg = cfg(6).with_placement_feedback(0.5);
        let mut session = StreamSession::new(g0, cfg);
        session.apply(StreamEvent::Delta(GraphDelta::additions(vec![(0, 1200), (3, 900)])));
        let mut twin = StreamSession::from_state(session.state());
        let phi_before = session.last().phi();
        let n = session.labels().len();

        let lost_worker: WorkerId = 2;
        let hosted =
            session.placement().as_slice().iter().filter(|&&w| w == lost_worker).count() as u64;
        assert!(hosted > 0, "test worker hosts nothing");

        let report = session.apply(StreamEvent::WorkerLoss { worker: lost_worker }).clone();
        assert_eq!(report.lost_vertices(), hosted);
        assert!(report.is_recovery());
        let moved = (report.migration_fraction() * n as f64).round() as u64;
        assert!(moved < 2 * hosted, "recovery moved {moved} labels for {hosted} lost vertices");
        assert!(moved < n as u64 / 2, "recovery approached a scratch repartition");
        assert!(
            report.phi() > phi_before - 0.1,
            "recovery φ {} collapsed from {phi_before}",
            report.phi()
        );
        assert!(session.labels().iter().all(|&l| l < session.k()));

        // Same loss applied to the restored twin: bit-identical recovery
        // (modulo wall-clock).
        twin.apply(StreamEvent::WorkerLoss { worker: lost_worker });
        assert_eq!(twin.labels(), session.labels());
        assert_eq!(twin.placement(), session.placement());
        let mut a = twin.last().to_parts();
        let mut b = report.to_parts();
        a.wall_ns = 0;
        b.wall_ns = 0;
        assert_eq!(a, b);
    }

    /// A loss window installs the label → worker map even on a session
    /// without placement feedback: the reseeded vertices must land on
    /// deliberate workers (hash placement scatters each label across all
    /// workers, so the by-label re-place genuinely migrates here), and
    /// later windows keep the recovered placement.
    #[test]
    fn worker_loss_replaces_even_without_feedback() {
        let g0 = base(1200, 17);
        let mut session = StreamSession::new(g0, cfg(4));
        assert!(session.label_assignment().is_none());
        let hashed = session.placement().as_slice().to_vec();
        let report = session.apply(StreamEvent::WorkerLoss { worker: 0 }).clone();
        assert!(session.label_assignment().is_some(), "loss must install the label map");
        assert!(report.is_recovery());
        // The window ran on the hash placement; the count is its diff
        // against the by-label one.
        let moved = hashed.iter().zip(session.placement().as_slice()).filter(|(h, l)| h != l);
        assert_eq!(report.placement_moved(), moved.count() as u64);
        assert!(report.placement_moved() > 0, "hash → by-label re-place must migrate");
    }

    #[test]
    fn interleaved_deltas_and_resizes_unify() {
        let g0 = base(1200, 13);
        let mut session = StreamSession::new(g0.clone(), cfg(4));
        let mut stream = DeltaStream::new(
            g0,
            DeltaStreamConfig { windows: 4, seed: 23, ..DeltaStreamConfig::default() },
        );
        session.apply(StreamEvent::Delta(stream.next().expect("window")));
        session.apply(StreamEvent::Resize { k: 6 }); // grow mid-stream
        session.apply(StreamEvent::Delta(stream.next().expect("window")));
        session.apply(StreamEvent::Resize { k: 3 }); // shrink mid-stream
        session.apply(StreamEvent::Delta(stream.next().expect("window")));
        assert_eq!(session.k(), 3);
        assert!(session.labels().iter().all(|&l| l < 3));
        let loads = {
            let mut loads = vec![0u64; 3];
            for &l in session.labels() {
                loads[l as usize] += 1;
            }
            loads
        };
        assert!(loads.iter().all(|&l| l > 0), "empty partition after shrink: {loads:?}");
        assert_eq!(session.windows().len(), 6);
    }
}
