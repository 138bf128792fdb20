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
//! Like every driver run, a window starts at `ComputeScores` with degrees,
//! label histograms and loads seeded, here by [`stages::warm_reset`]; no
//! vertex announces its initial label. A delta window carries the previous
//! run's histograms and applies the delta's edge-weight changes to them,
//! so its seeding costs O(delta + |V|); every other window recounts them
//! from the labels. The view patch names the pairs the delta added and
//! removed, and the same pairs patch the engine's loaded topology in place
//! of a reload (a window on an unchanged graph and placement patches by no
//! pairs). Labels, history, iterations, supersteps and messages equal the
//! driver's; the window's messages are its migrations' announcements.
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

use crate::config::SpinnerConfig;
use crate::driver::{
    elastic_labels, least_loaded_labels, random_labels, stages, PartitionResult,
};
use crate::program::SpinnerProgram;
use crate::state::{label_histogram, Label, VertexState};
use spinner_graph::buffer::refit;
use spinner_graph::conversion::{from_undirected_edges, patch_undirected_edges_into};
use spinner_graph::mutation::apply_delta_into;
use spinner_graph::{DirectedGraph, GraphDelta, UndirectedGraph, VertexId};
use spinner_pregel::engine::Engine;
use spinner_pregel::metrics::RunTotals;
use spinner_pregel::{
    HaltReason, Placement, RunSummary, TransportFaultPlan, TransportStats, WorkerId,
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
    /// reseeded with balanced labels and every vertex restarts, warm, as in
    /// a delta window; the window then re-places all vertices by computed
    /// label onto the worker slot's replacement. The graph and `k` are
    /// untouched — only labels and placement recover.
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
    /// active-set scheduler's cost measure: every vertex computes in a
    /// window's first scores superstep, and after it only those the window's
    /// churn keeps awake (see [`WindowReport::active_fraction`]).
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
    /// (supersteps x num_vertices)`, 0.0 for an empty denominator. Every
    /// vertex computes in the window's first scores superstep; after it a
    /// vertex whose score margin holds sleeps until a message or the drift
    /// clock wakes it, so a delta window's fraction falls with its churn.
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
    /// The graph and view the last delta window replaced: the buffers the
    /// next delta window writes its graph and view into.
    spare_graph: DirectedGraph,
    spare_view: UndirectedGraph,
    labels: Vec<Label>,
    /// The engine; `None` after [`Self::from_state`] until something needs
    /// it (see [`Self::engine`]).
    engine: Option<Engine<SpinnerProgram>>,
    /// The vector every window's vertex states travel in, empty between
    /// windows: a delta window takes the engine's states into it, patches
    /// them, and [`stages::warm_reset`] hands it back emptied.
    states: Vec<VertexState>,
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
    /// Whether the engine's vertex states are exact for `labels` and
    /// `undirected` — degrees and label histograms included — so the next
    /// delta window can carry them instead of recounting: true after a run
    /// that halted cleanly (every announcement folded) and after a resume,
    /// whose engine was built on recounted states; false after a run that
    /// stopped with announcements in flight.
    states_exact: bool,
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
        let mut engine = stages::build_engine(&undirected, &cfg, &placement, &labels);
        let summary = engine.run();
        let result = stages::collect(&cfg, &engine, &summary, &undirected);
        let lanes_degraded = engine.transport_health_counts().0;
        let mut session = Self {
            cfg,
            graph,
            undirected,
            spare_graph: DirectedGraph::default(),
            spare_view: UndirectedGraph::default(),
            labels: result.labels.clone(),
            engine: Some(engine),
            states: Vec::new(),
            windows: Vec::new(),
            label_to_worker: None,
            placement,
            states_exact: halted_cleanly(&summary),
        };
        let placement_moved = session.feedback_replace(&result.totals);
        session.push_window(&result, &summary, 1.0, placement_moved, 0, (lanes_degraded, 0));
        session
    }

    /// Rebuilds a session from a [`SessionState`] snapshot without
    /// re-partitioning: the next [`Self::apply`] behaves bit-identically to
    /// the session the state was taken from (the warm reset reloads
    /// topology and labels either way; what matters is that graph, labels,
    /// feedback map, and `k` match).
    ///
    /// Only the undirected view is derived here; labels, placement and
    /// reports are readable at once. The engine is built on first need —
    /// the first [`Self::apply`] or [`Self::inject_transport_faults`] — by
    /// [`stages::build_engine`] on the saved labels, hosted on the saved
    /// placement, exactly as an eager build would have been: it counts
    /// every label histogram from the saved labels, so a first delta window
    /// carries those exact histograms as it would a finished run's. Until
    /// then the transport counters read as a fresh engine's: no fault
    /// plan, nothing received.
    ///
    /// This is the cross-process extension of the warm reset: a restarted
    /// process resumes serving and streaming from persisted state instead
    /// of paying a full bootstrap partitioning, and serves its recovered
    /// placement before paying for an engine. `spinner_serving` layers a
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
        Self {
            cfg,
            graph,
            undirected,
            spare_graph: DirectedGraph::default(),
            spare_view: UndirectedGraph::default(),
            labels,
            engine: None,
            states: Vec::new(),
            windows,
            label_to_worker: label_assignment,
            placement,
            states_exact: true,
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
    /// The labels, iterations and per-iteration history are bit-identical
    /// to what the cold-start driver would produce for the same state:
    /// [`crate::adapt`] for [`StreamEvent::Delta`],
    /// [`crate::elastic`] for [`StreamEvent::Resize`]. Like the driver, the
    /// window starts seeded at `ComputeScores`, so its supersteps and
    /// messages equal the driver's too; the paper's `Initialize` start
    /// would count one superstep and one announcement round more (see
    /// [`stages`]).
    pub fn apply(&mut self, event: StreamEvent) -> &WindowReport {
        // Out of `self` for the window; put back before the report.
        let mut engine = self.engine.take().unwrap_or_else(|| self.build_engine());
        let old_n = self.labels.len();
        let mut lost_vertices = 0u64;
        // A delta window carries the previous run's vertex states when they
        // are exact, patched by the delta; every other window recounts them.
        let mut carried = false;
        // The pairs whose edge the window added or removed: the engine's
        // loaded topology is patched by them.
        let mut changed: Vec<(VertexId, VertexId)> = Vec::new();
        let labels = match &event {
            StreamEvent::Delta(delta) => {
                // The graph and view are written into the ones the previous
                // delta window replaced, which this one replaces in turn.
                apply_delta_into(&self.graph, delta, &mut self.spare_graph);
                let (added, removed) = patch_undirected_edges_into(
                    &self.undirected,
                    &self.spare_graph,
                    delta,
                    &mut self.spare_view,
                );
                std::mem::swap(&mut self.graph, &mut self.spare_graph);
                std::mem::swap(&mut self.undirected, &mut self.spare_view);
                let n = self.undirected.num_vertices();
                let labels =
                    least_loaded_labels(&self.undirected, &self.labels, &[], self.cfg.k);
                if self.states_exact {
                    // Room for the arrivals too, so the carry never grows it.
                    refit(&mut self.states, n as usize);
                    engine.take_values_into(&mut self.states);
                    let changes = unit_weight_changes(&added, &removed);
                    carry_states(&mut self.states, changes, &self.undirected, &labels);
                    carried = true;
                }
                changed = added;
                changed.extend(removed);
                labels
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
                // Every vertex restarts, as in a delta window: the lost ones
                // from least-loaded labels, the survivors from their own.
                // The survivors start settled, so few of them move.
                let (labels, count) = self.reseed_hosted_by(*worker, &self.labels);
                lost_vertices = count;
                labels
            }
        };

        let mut summary = self.rehost_and_run(&mut engine, &labels, &changed, carried);

        // Lane-health escalation: when the transport declares a lane dead
        // (retry budget exhausted or take deadline hit), the engine aborts
        // the run with a typed [`HaltReason::TransportFailed`] instead of
        // hanging. The session treats the failing lane's *sender* as a lost
        // worker — its outbound state is unreachable, which is
        // operationally the same as the worker being gone — and drives the
        // exact [`StreamEvent::WorkerLoss`] recovery path: reseed the
        // vertices it hosted, warm reset restarting every vertex, and
        // re-run. [`Engine::run`] resets the transport on entry (the
        // replacement worker connects fresh), and scripted fault plans keep
        // their per-lane frame clocks across resets (consumed faults stay
        // consumed), so the loop terminates on any finite plan. Failed
        // attempts' metrics are kept and prepended below so the window
        // accounts every frame that actually moved.
        //
        // A sender reseeded earlier in the window whose lane dies again is
        // the same loss, not a new one: the re-run started from the
        // recovery's labels, so the failure cost only that re-run's
        // progress. The recovery is replayed as it was (same labels and
        // placement) and nothing is counted lost twice, however many of one
        // sender's lanes die in different supersteps.
        let mut transport_lost = 0u64;
        let mut lanes_degraded = 0u64;
        let mut lanes_dead = 0u64;
        let mut failed_metrics = Vec::new();
        let mut reseeded: Vec<WorkerId> = Vec::new();
        let mut escalation: Option<Vec<Label>> = None;
        while let HaltReason::TransportFailed(err) = summary.halt {
            let (degraded, dead) = engine.transport_health_counts();
            lanes_degraded = lanes_degraded.max(degraded);
            lanes_dead += dead.max(1);
            failed_metrics.append(&mut summary.metrics);
            let sender = err.sender() as WorkerId;
            if !reseeded.contains(&sender) {
                let seed = escalation.as_ref().unwrap_or(&labels);
                let (relabeled, count) = self.reseed_hosted_by(sender, seed);
                transport_lost += count;
                reseeded.push(sender);
                escalation = Some(relabeled);
            }
            let relabeled = escalation.as_ref().expect("a reseeded sender");
            summary = self.rehost_and_run(&mut engine, relabeled, &[], false);
        }
        if !failed_metrics.is_empty() {
            failed_metrics.append(&mut summary.metrics);
            summary.metrics = failed_metrics;
        }
        let (degraded, dead) = engine.transport_health_counts();
        let lanes = (lanes_degraded.max(degraded), lanes_dead + dead);
        self.states_exact = halted_cleanly(&summary);

        let result = stages::collect(&self.cfg, &engine, &summary, &self.undirected);
        self.engine = Some(engine);
        let moved =
            self.labels.iter().zip(&result.labels).filter(|&(&old, &new)| old != new).count();
        let migration_fraction = if old_n > 0 { moved as f64 / old_n as f64 } else { 1.0 };
        self.labels = result.labels.clone();
        // A recovery window re-places every vertex by computed label
        // unconditionally, installing the label → worker map even with
        // feedback off: the reseeded vertices must land on deliberate,
        // balanced workers, and later windows keep that placement.
        let recovering = matches!(&event, StreamEvent::WorkerLoss { .. }) || transport_lost > 0;
        let placement_moved = if recovering {
            self.replace_by_label()
        } else {
            self.feedback_replace(&result.totals)
        };
        let lost = lost_vertices + transport_lost;
        self.push_window(&result, &summary, migration_fraction, placement_moved, lost, lanes);
        self.windows.last().expect("window just pushed")
    }

    /// Places the vertices by `labels`, seeds their states (recounted
    /// unless `carried` holds the delta-patched previous ones), re-hosts
    /// `engine` on the result, patching its topology by the `changed` pairs,
    /// and runs it.
    fn rehost_and_run(
        &mut self,
        engine: &mut Engine<SpinnerProgram>,
        labels: &[Label],
        changed: &[(VertexId, VertexId)],
        carried: bool,
    ) -> RunSummary {
        let placement = self.placement_for(labels);
        if !carried {
            // Recount into the states the engine hands back: their
            // histograms are freed before the new ones are counted.
            engine.take_values_into(&mut self.states);
            let (und, threads) = (&self.undirected, self.cfg.num_threads);
            stages::recount_states(und, &placement, labels, threads, &mut self.states);
        }
        let (und, cfg, states) = (&self.undirected, &self.cfg, &mut self.states);
        stages::warm_reset(engine, und, changed, cfg, &placement, states);
        self.placement = placement;
        engine.run()
    }

    /// The least-loaded reseed of `labels` that recovers the vertices the
    /// engine hosts on `worker`, and how many those are.
    fn reseed_hosted_by(&self, worker: WorkerId, labels: &[Label]) -> (Vec<Label>, u64) {
        let lost: Vec<bool> = self.placement.as_slice().iter().map(|&w| w == worker).collect();
        let count = lost.iter().filter(|&&f| f).count() as u64;
        (least_loaded_labels(&self.undirected, labels, &lost, self.cfg.k), count)
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
        self.engine().inject_transport_faults(plan);
    }

    /// `(injected, remaining)` counts from the installed fault plan —
    /// `(0, 0)` when no plan is installed (always, before a resumed
    /// session's engine is built).
    pub fn transport_chaos_counts(&self) -> (u64, u64) {
        self.engine.as_ref().map_or((0, 0), Engine::transport_chaos_counts)
    }

    /// Receive-side reliability counters summed over every lane of the
    /// engine's transport (all-zero on the direct path or a clean wire, and
    /// before a resumed session's engine is built).
    pub fn transport_recv_stats(&self) -> TransportStats {
        self.engine.as_ref().map_or_else(TransportStats::default, Engine::transport_recv_stats)
    }

    /// The engine, built first if the session was resumed and nothing has
    /// needed it yet.
    fn engine(&mut self) -> &mut Engine<SpinnerProgram> {
        if self.engine.is_none() {
            self.engine = Some(self.build_engine());
        }
        self.engine.as_mut().expect("the engine was just built")
    }

    /// The engine [`Self::from_state`] defers: built on the session's view,
    /// labels and placement, as an eager build would have made it.
    fn build_engine(&self) -> Engine<SpinnerProgram> {
        stages::build_engine(&self.undirected, &self.cfg, &self.placement, &self.labels)
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
    ///
    /// The judged traffic also counts the round in which every vertex
    /// announces its label to every neighbour on the window's placement.
    /// The paper's `Initialize` superstep sends that round; every run here
    /// starts seeded past it, bootstrap included, but the decision stays the
    /// one the full round would make.
    fn feedback_replace(&mut self, totals: &RunTotals) -> u64 {
        let Some(threshold) = self.cfg.placement_feedback else { return 0 };
        let (round_local, round) = announcement_round(&self.undirected, &self.placement);
        let local = totals.local_messages() + round_local;
        let messages = totals.messages + round;
        let local_share = if messages == 0 { 1.0 } else { local as f64 / messages as f64 };
        if 1.0 - local_share <= threshold {
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

/// True when a run halted with every message folded: its vertex states are
/// exact for its final labels.
fn halted_cleanly(summary: &RunSummary) -> bool {
    matches!(summary.halt, HaltReason::Master | HaltReason::AllHalted)
}

/// The weight changes of a unit-weight view patch, `(a, b, Δw)` in
/// ascending pair order: Δw = +1 for each added pair, −1 for each removed
/// one. Both lists are ascending and disjoint, so this merges them.
fn unit_weight_changes<'a>(
    added: &'a [(VertexId, VertexId)],
    removed: &'a [(VertexId, VertexId)],
) -> impl Iterator<Item = (VertexId, VertexId, i32)> + 'a {
    let (mut added, mut removed) = (added.iter().peekable(), removed.iter().peekable());
    std::iter::from_fn(move || match (added.peek(), removed.peek()) {
        (Some(a), Some(r)) if r < a => removed.next().map(|&(a, b)| (a, b, -1)),
        (Some(_), _) => added.next().map(|&(a, b)| (a, b, 1)),
        (None, _) => removed.next().map(|&(a, b)| (a, b, -1)),
    })
}

/// The weight change of every unordered pair `delta` names: `(a, b, Δw)`
/// with `a < b` and `Δw = w_next − w_prev ≠ 0`, where a missing edge (or a
/// vertex `prev` lacks) weighs 0. Each pair appears once however often the
/// delta names it, in either direction. The test oracle for
/// [`unit_weight_changes`], by lookups in both views.
#[cfg(test)]
fn weight_changes(
    prev: &UndirectedGraph,
    next: &UndirectedGraph,
    delta: &GraphDelta,
) -> Vec<(VertexId, VertexId, i32)> {
    let mut pairs: Vec<(VertexId, VertexId)> = delta
        .added_edges
        .iter()
        .chain(&delta.removed_edges)
        .filter(|(a, b)| a != b)
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let weight = |g: &UndirectedGraph, a: VertexId, b: VertexId| -> i32 {
        if b < g.num_vertices() {
            g.edge_weight(a, b).map_or(0, i32::from)
        } else {
            0
        }
    };
    pairs
        .into_iter()
        .filter_map(|(a, b)| {
            let dw = weight(next, a, b) - weight(prev, a, b);
            (dw != 0).then_some((a, b, dw))
        })
        .collect()
}

/// Carries the previous window's vertex `states` (one per vertex it had, in
/// global-id order) into a delta window on `graph`, starting from `labels`:
/// each weight change moves its edge in both endpoints' histograms and
/// degrees, and every appended vertex gets its state counted from its
/// edges. O(delta + appended edges); the histograms' heap buffers stay
/// where they were.
fn carry_states(
    states: &mut Vec<VertexState>,
    changes: impl IntoIterator<Item = (VertexId, VertexId, i32)>,
    graph: &UndirectedGraph,
    labels: &[Label],
) {
    let old_n = states.len();
    for (a, b, dw) in changes {
        for (v, u) in [(a, b), (b, a)] {
            // An appended vertex is counted whole below.
            if let Some(state) = states.get_mut(v as usize) {
                state.reweigh_edge(labels[u as usize], dw);
            }
        }
    }
    let mut counts = Vec::new();
    states.extend((old_n as VertexId..graph.num_vertices()).map(|v| {
        let (targets, weights) = graph.neighbors(v);
        let neighbours = targets.iter().copied().zip(weights.iter().copied());
        let (hist, degree) = label_histogram(neighbours, labels, &mut counts);
        VertexState {
            degree,
            label_weights: hist,
            ..VertexState::new(labels[v as usize], true)
        }
    }));
}

/// The `(worker-local, total)` logical messages of one round in which every
/// vertex announces its label to every neighbour, hosted on `placement` —
/// the round the reference `Initialize` superstep sends. Logical counts do
/// not depend on the delivery lane.
fn announcement_round(graph: &UndirectedGraph, placement: &Placement) -> (u64, u64) {
    let worker_of = placement.as_slice();
    let local = (0..graph.num_vertices())
        .map(|v| {
            let me = worker_of[v as usize];
            graph.neighbors(v).0.iter().filter(|&&u| worker_of[u as usize] == me).count() as u64
        })
        .sum();
    (local, graph.num_adjacency_entries())
}

/// Total message-fabric growth events across a run.
fn fabric_reallocs(summary: &spinner_pregel::RunSummary) -> u64 {
    summary.metrics.iter().flat_map(|s| s.per_worker.iter().map(|w| w.fabric_reallocs)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{adapt, elastic, least_loaded_labels, partition, IterationStats};
    use crate::program::check_mass_law;
    use proptest::prelude::*;
    use spinner_graph::conversion::patch_undirected_edges;
    use spinner_graph::generators::{planted_partition, SbmConfig};
    use spinner_graph::mutation::{apply_delta, sample_new_edges, sample_removed_edges};
    use spinner_graph::rng::SplitMix64;
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

    /// What a session decides over `events`, window by window: labels,
    /// history (score included) and the report, visits and wall clock
    /// aside; plus the visits summed over the windows.
    type Decisions = (Vec<(Vec<Label>, Vec<IterationStats>, WindowReportParts)>, u64);

    fn decisions(g0: &DirectedGraph, cfg: &SpinnerConfig, events: &[StreamEvent]) -> Decisions {
        let mut session = StreamSession::new(g0.clone(), cfg.clone());
        let mut visits = session.last().computed();
        let mut out = Vec::new();
        for event in events {
            let w = session.apply(event.clone()).clone();
            visits += w.computed();
            let parts = WindowReportParts { computed: 0, wall_ns: 0, ..w.to_parts() };
            let history = session.engine().global().history.clone();
            out.push((session.labels().to_vec(), history, parts));
        }
        (out, visits)
    }

    /// Margin sleeping is exact: sessions whose sleepers all wake at every
    /// scores superstep decide the same labels, histories, supersteps and
    /// messages. Small graphs on one to three workers with tight
    /// capacities make every candidacy move a large share of a partition,
    /// so the asynchronous views stray far and penalties drift far; deltas,
    /// resizes and a worker loss shrink the awake set after a first dense
    /// superstep.
    #[test]
    fn margin_sleep_matches_waking_every_sleeper() {
        let (mut slept, mut woke) = (0u64, 0u64);
        for seed in 0..16u64 {
            let g0 = planted_partition(SbmConfig {
                n: 240 + 40 * (seed % 3) as u32,
                communities: 4 + (seed % 3) as u32,
                internal_degree: 6.0,
                external_degree: 2.5,
                skew: None,
                seed: 300 + seed,
            });
            let k = 2 + (seed % 4) as u32;
            let mut cfg = SpinnerConfig::new(k).with_seed(seed);
            cfg.num_workers = 1 + (seed % 3) as usize;
            cfg.num_threads = 1;
            cfg.c = [1.02, 1.05, 1.2][(seed % 3) as usize];
            cfg.max_iterations = 20;
            cfg.ignore_halting = seed % 2 == 0;
            cfg.async_worker_loads = seed % 4 != 3;
            let deltas = DeltaStream::new(
                g0.clone(),
                DeltaStreamConfig {
                    windows: 4,
                    add_fraction: 0.05,
                    remove_fraction: 0.03,
                    seed,
                    ..DeltaStreamConfig::default()
                },
            );
            let mut events: Vec<StreamEvent> = deltas.map(StreamEvent::Delta).collect();
            events.insert(1, StreamEvent::Resize { k: k + 1 });
            events.insert(3, StreamEvent::WorkerLoss { worker: 0 });
            let (real, real_visits) = decisions(&g0, &cfg, &events);
            crate::program::WAKE_EVERY_SLEEPER.with(|w| w.set(true));
            let (reference, reference_visits) = decisions(&g0, &cfg, &events);
            crate::program::WAKE_EVERY_SLEEPER.with(|w| w.set(false));
            for (i, (r, e)) in real.iter().zip(&reference).enumerate() {
                assert_eq!(r, e, "seed {seed}, window {}", i + 1);
            }
            slept += real_visits;
            woke += reference_visits;
        }
        // The margin sleepers must exist for the comparison to mean anything
        // ... and the sleep schedule is deterministic: any change to a wake
        // key or clock shows here, even one that changes no label.
        assert_eq!((slept, woke), (598_730, 688_075), "visits sleeping, waking");
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
        let cold = adapt(&from_undirected_edges(&g1), &cold_initial.labels, &cfg);
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
    /// every window of a churning stream the view equals a fresh conversion.
    /// Both graphs are written into recycled buffers, so they may hold more
    /// capacity than a fresh build allocates, but never twice as much.
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
            assert!(graph.memory_bytes() <= 2 * rebuilt.memory_bytes());
            assert!(session.undirected().memory_bytes() <= 2 * converted.memory_bytes());
        }
    }

    /// The worker-local share the feedback check judged for window `w` of
    /// `s`: its own messages plus the announcement round on `ran_on`, the
    /// placement it ran on — the share a window that still sent the round
    /// in an `Initialize` superstep measured.
    fn share_with_round(s: &StreamSession, w: &WindowReport, ran_on: &Placement) -> f64 {
        let (local, round) = announcement_round(s.undirected(), ran_on);
        (local + w.sent_local()) as f64 / (round + w.messages()) as f64
    }

    /// Applies `event` and returns the worker-local share the window's
    /// feedback check judged ([`share_with_round`]).
    fn judged_share(s: &mut StreamSession, event: StreamEvent) -> f64 {
        let previous = s.labels().to_vec();
        let assignment = s.label_assignment().map(<[WorkerId]>::to_vec);
        let w = s.apply(event).clone();
        let initial = least_loaded_labels(s.undirected(), &previous, &[], s.k());
        let workers = s.config().num_workers;
        let ran_on = match assignment {
            Some(a) => Placement::from_label_assignment(&initial, &a, workers),
            None => stages::placement(initial.len() as VertexId, s.config()),
        };
        share_with_round(s, &w, &ran_on)
    }

    /// The §V-F feedback loop: with the synchronous load view, re-placing
    /// vertices by computed label must leave every label and every
    /// label-space number of every window bit-identical while strictly
    /// raising the worker-local message share the feedback check judges,
    /// and the re-placed layout must run inside warmed buffers.
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
        // The bootstrap starts seeded too, on the hash placement.
        let hashed = stages::placement(plain.undirected().num_vertices(), plain.config());
        let mut plain_shares = vec![share_with_round(&plain, plain.last(), &hashed)];
        let mut fed_shares = vec![share_with_round(&fed, fed.last(), &hashed)];
        for delta in stream {
            plain_shares.push(judged_share(&mut plain, StreamEvent::Delta(delta.clone())));
            fed_shares.push(judged_share(&mut fed, StreamEvent::Delta(delta)));
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
            let i = f.window() as usize;
            if i >= 1 {
                assert!(fed_shares[i] > plain_shares[i], "window {i}");
            }
            if i >= 2 {
                assert_eq!(f.fabric_reallocs(), 0, "window {i} grew after migrating");
            }
        }
        // The shares a session that still announced every label measured.
        assert_eq!(
            plain_shares,
            [0.25330571755600373, 0.2522424499761159, 0.25312360259883737, 0.25329704835670924]
        );
        assert_eq!(
            fed_shares,
            [0.25330571755600373, 0.8550236187038904, 0.852302917116027, 0.8504291396273812]
        );
        // A warm window's own traffic is its migrations alone.
        let own = |s: &StreamSession| -> Vec<(u64, u64)> {
            s.windows()[1..].iter().map(|w| (w.sent_local(), w.messages())).collect()
        };
        assert_eq!(own(&plain), [(7, 18), (55, 141), (52, 134)]);
        assert_eq!(own(&fed), [(5, 18), (56, 141), (58, 134)]);
        let records: u64 = fed.windows().iter().map(|w| w.sent_remote_records()).sum();
        assert_eq!((records, fed.last().phi()), (8_753, 0.829000577700751));
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

    /// A resumed session builds its engine on first need. Before that its
    /// transport counters read as an eagerly built engine's, a fault plan
    /// injected before the first window builds the engine, and the windows
    /// after it run — labels, reports, counters — as on an eagerly built
    /// one.
    #[test]
    fn a_deferred_engine_answers_and_runs_as_an_eager_one() {
        let g0 = base(900, 43);
        let cfg = cfg(5).with_transport(spinner_pregel::TransportKind::Ring);
        let workers = cfg.num_workers;
        let mut original = StreamSession::new(g0.clone(), cfg);
        let mut stream = DeltaStream::new(
            g0,
            DeltaStreamConfig { windows: 2, seed: 47, ..DeltaStreamConfig::default() },
        );
        original.apply(StreamEvent::Delta(stream.next().expect("window")));

        let mut deferred = StreamSession::from_state(original.state());
        let mut eager = StreamSession::from_state(original.state());
        eager.engine();
        assert!(deferred.engine.is_none());
        let counters =
            |s: &StreamSession| (s.transport_chaos_counts(), s.transport_recv_stats());
        assert_eq!(counters(&deferred), counters(&eager));

        let plan = TransportFaultPlan::seeded(11, workers, 64, 0.05);
        deferred.inject_transport_faults(plan.clone());
        eager.inject_transport_faults(plan);
        assert!(deferred.engine.is_some());
        assert_eq!(counters(&deferred), counters(&eager));

        // The delta window carries the states the deferred build counted;
        // the resize's migrations put frames on the faulty wire.
        let parts = |s: &StreamSession| WindowReportParts { wall_ns: 0, ..s.last().to_parts() };
        for event in
            [StreamEvent::Delta(stream.next().expect("window")), StreamEvent::Resize { k: 7 }]
        {
            deferred.apply(event.clone());
            eager.apply(event);
            assert_eq!(counters(&deferred), counters(&eager));
            assert_eq!(deferred.labels(), eager.labels());
            assert_eq!(deferred.placement(), eager.placement());
            assert_eq!(parts(&deferred), parts(&eager));
        }
        assert!(deferred.transport_chaos_counts().0 > 0, "the plan injected no fault");
    }

    /// Worker-loss recovery reseeds the lost vertices and restarts every
    /// vertex; the labels that move must stay proportional to the lost
    /// fraction (below twice the lost count, not the graph), land a valid
    /// labelling, and be deterministic across a `state()`/`from_state()`
    /// process boundary.
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

    /// A random delta on `g`: additions and removals, reciprocal edges
    /// (which leave the unit-weight view's pair weight unchanged), and
    /// appended vertices with edges to old and to other new vertices.
    fn random_delta(rng: &mut SplitMix64, g: &DirectedGraph) -> GraphDelta {
        let n = g.num_vertices();
        let new_vertices = rng.next_bounded(4) as VertexId;
        let total = u64::from(n + new_vertices);
        let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let mut delta = GraphDelta { new_vertices, ..GraphDelta::default() };
        let pick = |rng: &mut SplitMix64| rng.next_bounded(total) as VertexId;
        for _ in 0..rng.next_bounded(10) {
            let (a, b) = (pick(rng), pick(rng));
            if a != b {
                delta.added_edges.push((a, b));
            }
        }
        for _ in 0..rng.next_bounded(8) {
            let (a, b) = edges[rng.next_bounded(edges.len() as u64) as usize];
            match rng.next_bounded(3) {
                0 => delta.added_edges.push((b, a)),
                1 => delta.removed_edges.push((b, a)),
                _ => delta.removed_edges.push((a, b)),
            }
        }
        for v in n..n + new_vertices {
            for _ in 0..1 + rng.next_bounded(3) {
                let u = pick(rng);
                if u != v {
                    delta.added_edges.push((v, u));
                }
            }
        }
        delta
    }

    /// What a cold run of the window `event` would start from on `s`: the
    /// graph, config and labels its driver call passes to
    /// `stages::build_engine`.
    fn cold_inputs(
        s: &StreamSession,
        event: &StreamEvent,
    ) -> (UndirectedGraph, SpinnerConfig, Vec<Label>) {
        let mut cfg = s.cfg.clone();
        match event {
            StreamEvent::Delta(delta) => {
                let graph = from_undirected_edges(&apply_delta(&s.graph, delta));
                let labels = least_loaded_labels(&graph, &s.labels, &[], cfg.k);
                (graph, cfg, labels)
            }
            StreamEvent::Resize { k } => {
                let labels = elastic_labels(&s.labels, cfg.k, *k, cfg.seed);
                cfg.k = *k;
                (s.undirected.clone(), cfg, labels)
            }
            StreamEvent::WorkerLoss { worker } => {
                let (labels, _) = s.reseed_hosted_by(*worker, &s.labels);
                (s.undirected.clone(), cfg, labels)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every warm window equals its cold driver call: the same labels,
        /// iterations, per-iteration history and halting flag as an engine
        /// built cold on the window's graph, config, placement and labels
        /// (and so `adapt` or `elastic` whenever the window ran on the hash
        /// placement or the load view is synchronous), and the same
        /// supersteps, visits, messages and records: both start seeded. A
        /// session resumed from `state()` before each window recounts every
        /// histogram and must report the same window, wall clock aside.
        /// Debug builds check the mass law before every seeded run.
        #[test]
        fn warm_windows_equal_their_cold_driver(
            graph_seed in 0u64..1000,
            stream_seed in 0u64..1000,
            arm in 0u32..4,
            k in 2u32..5,
            workers in 1usize..5,
        ) {
            let g0 = planted_partition(SbmConfig {
                n: 90,
                communities: 3,
                internal_degree: 5.0,
                external_degree: 1.0,
                skew: None,
                seed: graph_seed,
            });
            let mut cfg = SpinnerConfig::new(k).with_seed(stream_seed);
            cfg.num_workers = workers;
            cfg.num_threads = 1;
            cfg.max_iterations = 15;
            cfg.async_worker_loads = arm & 1 == 0;
            if arm & 2 != 0 {
                cfg.placement_feedback = Some(0.4);
            }
            let mut session = StreamSession::new(g0, cfg);
            let mut rng = SplitMix64::new(stream_seed ^ 0x57EA);
            for _ in 0..6 {
                let event = match rng.next_bounded(6) {
                    0 => {
                        let k = session.k();
                        let grow = k < 3 || rng.next_bounded(2) == 0;
                        StreamEvent::Resize { k: if grow { k + 1 } else { k - 1 } }
                    }
                    1 => StreamEvent::WorkerLoss {
                        worker: rng.next_bounded(workers as u64) as WorkerId,
                    },
                    _ => StreamEvent::Delta(random_delta(&mut rng, &session.graph)),
                };
                let (graph, cold_cfg, labels) = cold_inputs(&session, &event);
                let placement = session.placement_for(&labels);
                let mut twin = StreamSession::from_state(session.state());

                let warm = session.apply(event.clone()).clone();
                prop_assert!(session.states_exact, "a clean window leaves exact states");
                let mut engine = stages::build_engine(&graph, &cold_cfg, &placement, &labels);
                let summary = engine.run();
                let cold = stages::collect(&cold_cfg, &engine, &summary, &graph);
                let global = session.engine.as_ref().expect("built by apply").global();
                prop_assert_eq!(session.labels(), cold.labels.as_slice());
                prop_assert_eq!(warm.iterations(), cold.iterations);
                prop_assert_eq!(&global.history, &cold.history);
                prop_assert_eq!(global.halted_steady, cold.halted_steady);
                prop_assert_eq!(warm.phi().to_bits(), cold.quality.phi.to_bits());
                prop_assert_eq!(warm.rho().to_bits(), cold.quality.rho.to_bits());
                prop_assert_eq!(warm.supersteps(), cold.supersteps);
                prop_assert_eq!(warm.computed(), cold.totals.computed);
                prop_assert_eq!(warm.messages(), cold.totals.messages);
                prop_assert_eq!(warm.sent_local_records(), cold.totals.local_records);
                prop_assert_eq!(warm.sent_remote_records(), cold.totals.remote_records);
                let hashed = placement == stages::placement(graph.num_vertices(), &cold_cfg);
                if hashed || !cold_cfg.async_worker_loads {
                    let driver = match &event {
                        StreamEvent::Delta(_) => Some(adapt(&graph, twin.labels(), &cold_cfg)),
                        StreamEvent::Resize { .. } => {
                            let old_k = twin.k();
                            Some(elastic(&graph, twin.labels(), old_k, &cold_cfg))
                        }
                        StreamEvent::WorkerLoss { .. } => None,
                    };
                    if let Some(driver) = driver {
                        prop_assert_eq!(&driver.labels, &cold.labels);
                        prop_assert_eq!(&driver.history, &cold.history);
                    }
                }
                twin.apply(event);
                prop_assert_eq!(twin.labels(), session.labels());
                prop_assert_eq!(twin.placement(), session.placement());
                let parts = |w: &WindowReport| WindowReportParts { wall_ns: 0, ..w.to_parts() };
                prop_assert_eq!(parts(twin.last()), parts(&warm));
            }
        }
    }

    /// The weight changes a delta window carries, read off the view patch's
    /// added and removed pairs, equal the lookup oracle's on random windows
    /// (re-additions, removals of one direction of a reciprocal pair, absent
    /// removals, arrivals).
    #[test]
    fn patch_pairs_equal_the_weight_change_lookups() {
        let mut rng = SplitMix64::new(29);
        let mut graph = base(300, 31);
        let mut view = from_undirected_edges(&graph);
        for _ in 0..40 {
            let delta = random_delta(&mut rng, &graph);
            let next = apply_delta(&graph, &delta);
            let patch = patch_undirected_edges(&view, &next, &delta);
            let changes: Vec<_> = unit_weight_changes(&patch.added, &patch.removed).collect();
            assert_eq!(changes, weight_changes(&view, &patch.graph, &delta));
            (graph, view) = (next, patch.graph);
        }
    }

    /// The mass law catches a carried window that loses one weight change:
    /// patched with every change the carried states pass, and with any
    /// single change to an old vertex dropped they fail.
    #[test]
    fn mass_law_catches_a_dropped_weight_change() {
        let g0 = base(600, 41);
        let mut session = StreamSession::new(g0.clone(), cfg(5));
        assert!(session.states_exact);
        let delta = GraphDelta {
            added_edges: sample_new_edges(&g0, 40, 0.8, 3),
            removed_edges: sample_removed_edges(&g0, 20, 5),
            new_vertices: 3,
        };
        let mut delta = delta;
        delta.added_edges.extend([(600, 4), (601, 600), (602, 17)]);
        let next = patch_undirected_edges(
            &session.undirected,
            &apply_delta(&session.graph, &delta),
            &delta,
        )
        .graph;
        let labels = least_loaded_labels(&next, &session.labels, &[], session.k());
        let changes = weight_changes(&session.undirected, &next, &delta);
        assert!(changes.iter().any(|c| c.2 > 0) && changes.iter().any(|c| c.2 < 0));
        let states = session.engine().take_values();
        let carried = |changes: &[(VertexId, VertexId, i32)]| {
            let mut states = states.clone();
            carry_states(&mut states, changes.iter().copied(), &next, &labels);
            check_mass_law(&next, &states)
        };
        assert_eq!(carried(&changes), Ok(()));
        // A change between two appended vertices patches nothing: both are
        // counted whole from the new graph.
        let old_n = states.len() as VertexId;
        for skip in (0..changes.len()).filter(|&i| changes[i].0 < old_n) {
            let mut dropped = changes.clone();
            dropped.remove(skip);
            assert!(carried(&dropped).is_err(), "dropping change {skip} went unnoticed");
        }
    }
}
