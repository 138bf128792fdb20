//! The serving front-end: one ingest thread owns a [`ServingNode`] and
//! applies stream windows; any number of lookup threads hold cloned
//! [`RoutingReader`]s and answer "which worker hosts vertex v?" without
//! locks.
//!
//! Persistence failures do not stop serving. The node runs a three-state
//! health machine:
//!
//! - **Healthy** — every window's record reaches the WAL (with bounded
//!   retry + exponential backoff on transient faults) before the epoch is
//!   published.
//! - **Degraded** — an append failed past its retries. The WAL now misses
//!   at least one window, so appending later windows would leave a gap a
//!   resume would misread; instead each subsequent ingest attempts a full
//!   re-checkpoint ([`SessionStore::compact`]), which resynchronises the
//!   snapshot past the gap and returns the node to Healthy. Throughout,
//!   epochs keep publishing and lookups keep serving — routing never
//!   depends on the store.
//! - **Poisoned** — the degraded recovery failed
//!   [`RetryPolicy::max_degraded_windows`] windows in a row. The store is
//!   dropped (resuming its directory recovers the last fully persisted
//!   window) and the node serves on, non-persistent, reporting the state so
//!   an operator can re-attach storage deliberately.

use std::io;
use std::path::Path;
use std::time::Duration;

use spinner_core::{StreamEvent, StreamSession, WindowReport};
use spinner_graph::VertexId;
use spinner_pregel::WorkerId;

use crate::fault::Storage;
use crate::persist::{PersistError, ResumeStats, SessionStore};
use crate::routing::{Lookup, RoutingReader, RoutingTable};
use crate::wal::WindowBase;

/// Persistence health of a [`ServingNode`] (see the module docs for the
/// state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Every applied window is durably logged.
    Healthy,
    /// At least one window is not persisted; each ingest retries a full
    /// re-checkpoint while serving continues from memory.
    Degraded,
    /// Persistence was abandoned after repeated degraded-mode failures; the
    /// node serves on without a store.
    Poisoned,
}

/// How a [`ServingNode`] retries failed storage operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per storage operation, including the first (min 1).
    pub attempts: u32,
    /// Sleep before the first retry; doubles per subsequent retry. Zero
    /// disables sleeping (useful in tests).
    pub base_backoff: Duration,
    /// Consecutive windows the node may spend Degraded (failing to persist)
    /// before it gives up on the store and poisons.
    pub max_degraded_windows: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { attempts: 3, base_backoff: Duration::from_millis(1), max_degraded_windows: 8 }
    }
}

/// Runs `op` under `policy`, counting extra attempts into `retries`.
fn with_retry<T>(
    policy: &RetryPolicy,
    retries: &mut u32,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut delay = policy.base_backoff;
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                attempt += 1;
                if attempt >= policy.attempts.max(1) {
                    return Err(e);
                }
                *retries += 1;
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                delay = delay.saturating_mul(2);
            }
        }
    }
}

/// What one [`ServingNode::ingest`] call did, for callers that meter the
/// write path.
#[derive(Debug, Clone)]
pub struct IngestReport {
    epoch: u64,
    record_bytes: u64,
    wal_bytes: u64,
    snapshot_bytes: u64,
    health: Health,
    persist_retries: u32,
    report: WindowReport,
}

impl IngestReport {
    /// The routing epoch published for this window (equals the session's
    /// window count).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Framed bytes this window appended to the WAL (0 when the node runs
    /// without persistence, and 0 for a Degraded-mode window recovered by a
    /// re-checkpoint — the window lands in the snapshot, not the log).
    pub fn record_bytes(&self) -> u64 {
        self.record_bytes
    }

    /// Total WAL size after the append (0 without persistence).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Current snapshot size (0 without persistence).
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes
    }

    /// Persistence health after this window.
    pub fn health(&self) -> Health {
        self.health
    }

    /// Storage retries this ingest performed beyond first attempts.
    pub fn persist_retries(&self) -> u32 {
        self.persist_retries
    }

    /// The partition-quality report the session produced for this window.
    pub fn report(&self) -> &WindowReport {
        &self.report
    }
}

/// A partition-serving node: a [`StreamSession`] that repartitions as the
/// graph changes, an epoch-versioned [`RoutingTable`] that publishes where
/// every vertex lives, and (optionally) a [`SessionStore`] that makes the
/// whole thing restartable.
///
/// Threading model: exactly one thread calls [`ingest`](Self::ingest);
/// lookup threads each clone a [`RoutingReader`] once and call
/// [`RoutingReader::lookup`] freely — reads are wait-free against the
/// writer and never observe a torn table.
pub struct ServingNode {
    session: StreamSession,
    table: RoutingTable,
    /// Serves [`Self::lookup`].
    reader: RoutingReader,
    store: Option<SessionStore>,
    health: Health,
    retry: RetryPolicy,
    /// Consecutive windows spent Degraded (0 unless Degraded).
    degraded_windows: u32,
    /// Windows applied to the live session but not yet persisted (reset by
    /// a successful re-checkpoint; frozen once Poisoned).
    unpersisted_windows: u64,
    /// Windows in which the session's transport declared a lane dead and
    /// escalated into worker-loss recovery (see
    /// [`Self::transport_recoveries`]).
    transport_recoveries: u64,
}

impl ServingNode {
    /// Wraps `session` for serving without persistence. The session's
    /// current placement is published immediately, so lookups work before
    /// the first ingest.
    pub fn new(session: StreamSession) -> Self {
        let mut table =
            RoutingTable::with_capacity(session.placement().as_slice().len() as u32);
        table.publish_at(session.windows().len() as u64, session.placement().as_slice());
        Self {
            session,
            reader: table.reader(),
            table,
            store: None,
            health: Health::Healthy,
            retry: RetryPolicy::default(),
            degraded_windows: 0,
            unpersisted_windows: 0,
            transport_recoveries: 0,
        }
    }

    /// Wraps `session` for serving and starts a fresh store at `dir`
    /// (snapshot of the current state, empty WAL).
    pub fn with_persistence(
        session: StreamSession,
        dir: impl AsRef<Path>,
    ) -> Result<Self, PersistError> {
        let store = SessionStore::create(dir, &session.state())?;
        let mut node = Self::new(session);
        node.store = Some(store);
        Ok(node)
    }

    /// Like [`Self::with_persistence`], over an arbitrary [`Storage`]
    /// backend — an in-memory one, or a fault-injecting wrapper.
    pub fn with_storage(
        session: StreamSession,
        storage: Box<dyn Storage>,
    ) -> Result<Self, PersistError> {
        let store = SessionStore::create_on(storage, &session.state())?;
        let mut node = Self::new(session);
        node.store = Some(store);
        Ok(node)
    }

    /// Restarts a node from `dir`: loads the snapshot, replays the WAL
    /// (dropping a torn tail — [`ResumeStats::truncated_bytes`] says how
    /// much was lost) and resumes onto the recovered state with
    /// [`Self::resume`]. Labels and placement are bit-identical to the node
    /// that wrote the store; the runtime settings are this process's
    /// defaults.
    pub fn resume_from(dir: impl AsRef<Path>) -> Result<(Self, ResumeStats), PersistError> {
        let (state, store, stats) = SessionStore::load(dir)?;
        Ok((Self::resume(state, store), stats))
    }

    /// Like [`Self::resume_from`], over an arbitrary [`Storage`] backend.
    pub fn resume_from_storage(
        storage: Box<dyn Storage>,
    ) -> Result<(Self, ResumeStats), PersistError> {
        let (state, store, stats) = SessionStore::load_on(storage)?;
        Ok((Self::resume(state, store), stats))
    }

    /// Resumes a node onto `state` and the `store` it was loaded from (see
    /// [`SessionStore::load`]) and publishes the recovered placement. A
    /// store keeps only the settings that decide labels, so `state.cfg`
    /// carries this process's defaults for the runtime ones (threads,
    /// transport, scheduler); a caller that wants others sets them on
    /// `state.cfg` first. The session's engine is not built here: the
    /// first [`Self::ingest`] (or [`Self::inject_transport_faults`]) builds
    /// it, exactly as an eager build would (see
    /// [`StreamSession::from_state`]), so the node serves lookups as soon
    /// as the store is decoded.
    pub fn resume(state: spinner_core::SessionState, store: SessionStore) -> Self {
        let mut node = Self::new(StreamSession::from_state(state));
        node.store = Some(store);
        node
    }

    /// Replaces the retry/degradation policy (builder-style).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Current persistence health.
    pub fn health(&self) -> Health {
        self.health
    }

    /// Windows applied to the live session but not persisted (0 when
    /// Healthy; frozen at its last value once Poisoned).
    pub fn unpersisted_windows(&self) -> u64 {
        self.unpersisted_windows
    }

    /// Applies one stream window: repartitions, persists the window (when a
    /// store is attached), then publishes the new placement as the next
    /// routing epoch. Readers flip to the new epoch atomically; until then
    /// they serve the previous one.
    ///
    /// Persistence faults never block serving: the epoch is published and
    /// the report returned regardless, with [`IngestReport::health`] saying
    /// where the window's bytes stand. A Healthy append is retried under
    /// the [`RetryPolicy`] (safe: a duplicate from an ambiguous failure is
    /// skipped on load by window number); on exhaustion the node turns
    /// Degraded and each subsequent ingest attempts a full re-checkpoint
    /// instead, which heals the WAL gap and restores Healthy.
    ///
    /// # Errors
    ///
    /// Only the transition to [`Health::Poisoned`] — degraded recovery
    /// failing [`RetryPolicy::max_degraded_windows`] windows in a row —
    /// returns the final storage error; the store is dropped (resuming the
    /// directory recovers the last persisted window) and the node keeps
    /// serving without one.
    pub fn ingest(&mut self, event: StreamEvent) -> Result<IngestReport, PersistError> {
        // Only a Healthy append diffs the window; a Degraded one
        // re-checkpoints the whole state instead.
        let before = (self.store.is_some() && self.health == Health::Healthy)
            .then(|| WindowBase::capture(&self.session));
        let report = self.session.apply(event.clone()).clone();
        if report.lanes_dead() > 0 {
            // The session already ran worker-loss recovery for the dead
            // lane(s) inside `apply` — the node just counts it, and the
            // recovered placement is published below like any window.
            self.transport_recoveries += 1;
        }
        let mut record_bytes = 0;
        let mut retries = 0u32;
        let mut failure: Option<io::Error> = None;
        if self.store.is_some() {
            match self.health {
                Health::Healthy => {
                    let before = before.as_ref().expect("captured while Healthy");
                    let record = before.record(&self.session, event);
                    let store = self.store.as_mut().expect("store checked above");
                    match with_retry(&self.retry, &mut retries, || store.append(&record)) {
                        Ok(bytes) => record_bytes = bytes,
                        Err(e) => {
                            self.health = Health::Degraded;
                            self.degraded_windows = 1;
                            self.unpersisted_windows += 1;
                            failure = Some(e);
                        }
                    }
                }
                Health::Degraded => {
                    // The WAL already misses >= 1 window; appending would
                    // leave a gap, so recover via a full re-checkpoint.
                    if let Err(e) = self.heal(&mut retries) {
                        self.degraded_windows += 1;
                        self.unpersisted_windows += 1;
                        failure = Some(e);
                    }
                }
                Health::Poisoned => unreachable!("poisoned nodes hold no store"),
            }
        }
        let poisoned =
            failure.is_some() && self.degraded_windows > self.retry.max_degraded_windows;
        if poisoned {
            self.health = Health::Poisoned;
            self.store = None;
            self.degraded_windows = 0;
        }
        let epoch = self.session.windows().len() as u64;
        self.table.publish_at(epoch, self.session.placement().as_slice());
        if poisoned {
            return Err(failure.expect("poisoning requires a failure").into());
        }
        Ok(IngestReport {
            epoch,
            record_bytes,
            wal_bytes: self.store.as_ref().map_or(0, SessionStore::wal_bytes),
            snapshot_bytes: self.store.as_ref().map_or(0, SessionStore::snapshot_bytes),
            health: self.health,
            persist_retries: retries,
            report,
        })
    }

    /// Reports that worker `w`'s hosted partition state was lost, running a
    /// [`StreamEvent::WorkerLoss`] recovery window: the lost vertices are
    /// reseeded and re-converged warm, the whole graph is re-placed by
    /// computed label, and the recovered placement is published as the next
    /// epoch. Lookups keep serving the previous epoch throughout.
    pub fn report_worker_loss(&mut self, w: WorkerId) -> Result<IngestReport, PersistError> {
        self.ingest(StreamEvent::WorkerLoss { worker: w })
    }

    /// The single degraded-heal path, shared by [`Self::ingest`],
    /// [`Self::try_recover`] and [`Self::compact`]: re-checkpoint the
    /// current session state and, **only once the compact has succeeded**,
    /// reset the health machine. The order is load-bearing — zeroing
    /// `unpersisted_windows` (or flipping Healthy) before the compact lands
    /// would erase the evidence of the WAL gap on a failed heal, so a later
    /// poisoning or operator probe would report a clean store that silently
    /// misses windows.
    fn heal(&mut self, retries: &mut u32) -> io::Result<()> {
        let state = self.session.state();
        let store = self.store.as_mut().expect("heal requires a store");
        with_retry(&self.retry, retries, || store.compact(&state))?;
        self.health = Health::Healthy;
        self.degraded_windows = 0;
        self.unpersisted_windows = 0;
        Ok(())
    }

    /// Attempts to heal a Degraded node *now* (instead of at the next
    /// ingest) by re-checkpointing the current state. Returns the health
    /// afterwards; a no-op when Healthy or Poisoned. A failed attempt
    /// leaves the health state and [`Self::unpersisted_windows`] untouched.
    pub fn try_recover(&mut self) -> Health {
        if self.health == Health::Degraded && self.store.is_some() {
            let mut retries = 0;
            let _ = self.heal(&mut retries);
        }
        self.health
    }

    /// Folds the WAL into a fresh snapshot, bounding restart time. No-op
    /// without persistence; on a Degraded node a success doubles as
    /// recovery (it persists exactly the state the WAL is missing). Runs
    /// under the [`RetryPolicy`]; a final failure propagates with the
    /// health counters intact.
    pub fn compact(&mut self) -> Result<(), PersistError> {
        if self.store.is_some() {
            let mut retries = 0;
            self.heal(&mut retries)?;
        }
        Ok(())
    }

    /// A wait-free routing handle to hand to a lookup thread.
    pub fn reader(&self) -> RoutingReader {
        self.table.reader()
    }

    /// Convenience single lookup, through a reader the node keeps (no
    /// refcount traffic per call).
    #[inline]
    pub fn lookup(&self, v: VertexId) -> Option<Lookup> {
        self.reader.lookup(v)
    }

    /// The currently published routing epoch.
    pub fn epoch(&self) -> u64 {
        self.table.head()
    }

    /// Windows whose ingest recovered from a transport lane death: the
    /// session's reliable layer exhausted its retry budget on a lane,
    /// declared it dead, and escalated into the worker-loss recovery path
    /// — lookups kept serving the previous epoch throughout. 0 on a
    /// healthy wire.
    pub fn transport_recoveries(&self) -> u64 {
        self.transport_recoveries
    }

    /// Installs a scripted transport fault plan on the live session (chaos
    /// testing; see [`spinner_core::StreamSession::inject_transport_faults`]).
    /// Transient apparatus — never persisted.
    pub fn inject_transport_faults(&mut self, plan: spinner_pregel::TransportFaultPlan) {
        self.session.inject_transport_faults(plan);
    }

    /// The underlying session, for labels / windows / quality inspection.
    pub fn session(&self) -> &StreamSession {
        &self.session
    }

    /// The routing table, for its allocation / retry counters.
    pub fn routing(&self) -> &RoutingTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultPlan, FaultyStorage, MemStorage};
    use spinner_core::SpinnerConfig;
    use spinner_graph::{DirectedGraph, GraphBuilder, GraphDelta};

    fn ring(n: u32) -> DirectedGraph {
        GraphBuilder::new(n).add_edges((0..n).map(|v| (v, (v + 1) % n))).build()
    }

    fn cfg(k: u32) -> SpinnerConfig {
        SpinnerConfig { seed: 7, max_iterations: 12, ..SpinnerConfig::new(k) }
    }

    fn delta(i: u32, n: u32) -> StreamEvent {
        StreamEvent::Delta(GraphDelta {
            new_vertices: 5,
            added_edges: vec![(i % n, n + i * 5)],
            removed_edges: vec![],
        })
    }

    fn fast_retry(attempts: u32, max_degraded_windows: u32) -> RetryPolicy {
        RetryPolicy { attempts, base_backoff: Duration::ZERO, max_degraded_windows }
    }

    #[test]
    fn node_serves_the_session_placement() {
        let session = StreamSession::new(ring(400), cfg(4));
        let node = ServingNode::new(session);
        assert_eq!(node.epoch(), 1, "bootstrap window is epoch 1");
        assert_eq!(node.health(), Health::Healthy);
        let placement = node.session().placement().as_slice().to_vec();
        let reader = node.reader();
        for (v, &w) in placement.iter().enumerate() {
            let hit = reader.lookup(v as u32).expect("published");
            assert_eq!(hit.worker(), w);
            assert_eq!(hit.epoch(), 1);
        }
        assert!(reader.lookup(placement.len() as u32).is_none(), "past-end lookup misses");
    }

    #[test]
    fn ingest_advances_the_epoch_and_routing() {
        let session = StreamSession::new(ring(300), cfg(3));
        let mut node = ServingNode::new(session);
        let delta = GraphDelta {
            new_vertices: 20,
            added_edges: vec![(0, 305), (300, 310)],
            removed_edges: vec![],
        };
        let report = node.ingest(StreamEvent::Delta(delta)).expect("no persistence, no I/O");
        assert_eq!(report.epoch(), 2);
        assert_eq!(node.epoch(), 2);
        assert_eq!(report.record_bytes(), 0, "no store attached");
        assert_eq!(report.health(), Health::Healthy);
        let placement = node.session().placement().as_slice().to_vec();
        assert_eq!(placement.len(), 320);
        let reader = node.reader();
        for (v, &w) in placement.iter().enumerate() {
            assert_eq!(reader.lookup(v as u32).expect("published").worker(), w);
        }
    }

    #[test]
    fn persistent_node_restarts_bit_identical() {
        let dir = std::env::temp_dir().join(format!("spinner-node-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut live = {
            let session = StreamSession::new(ring(500), cfg(4));
            ServingNode::with_persistence(session, &dir).expect("create store")
        };
        for i in 0..3u32 {
            let delta = GraphDelta {
                new_vertices: 10,
                added_edges: vec![(i, 500 + i * 10), (i * 7 % 500, 501 + i * 10)],
                removed_edges: vec![],
            };
            let rep = live.ingest(StreamEvent::Delta(delta)).expect("append");
            assert!(rep.record_bytes() > 0);
            assert!(rep.wal_bytes() > 0);
        }

        let (resumed, stats) = ServingNode::resume_from(&dir).expect("resume");
        assert_eq!(stats.replayed_windows, 3);
        assert!(!stats.truncated_tail);
        assert_eq!(stats.truncated_bytes, 0);
        assert_eq!(resumed.epoch(), live.epoch());
        assert_eq!(resumed.session().labels(), live.session().labels());
        assert_eq!(
            resumed.session().placement().as_slice(),
            live.session().placement().as_slice()
        );
        // The resumed node serves every vertex as the live one does: same
        // worker, same epoch.
        for v in 0..live.session().labels().len() as u32 {
            assert_eq!(resumed.lookup(v), live.lookup(v), "lookup({v})");
        }

        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn resume_skips_stale_wal_after_crash_mid_compact() {
        let dir =
            std::env::temp_dir().join(format!("spinner-midcompact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let session = StreamSession::new(ring(300), cfg(3));
        let mut node = ServingNode::with_persistence(session, &dir).expect("create store");
        for i in 0..3u32 {
            node.ingest(delta(i, 300)).expect("ingest");
        }
        let labels = node.session().labels().to_vec();
        let epoch = node.epoch();

        // Simulate compact() dying between the snapshot rename and the WAL
        // truncation: fresh snapshot on disk, full stale WAL left behind.
        let snapshot = crate::snapshot::encode_state(&node.session().state());
        drop(node);
        std::fs::write(dir.join(crate::persist::SNAPSHOT_FILE), snapshot).expect("snapshot");

        let (mut resumed, stats) = ServingNode::resume_from(&dir).expect("resume");
        assert_eq!(stats.replayed_windows, 0, "every record predates the snapshot");
        assert_eq!(stats.skipped_windows, 3);
        assert_eq!(resumed.epoch(), epoch);
        assert_eq!(resumed.session().labels(), labels.as_slice());

        // The store stays appendable: a further window and a second resume
        // replay exactly that window on top of the skipped prefix.
        resumed.ingest(delta(7, 315)).expect("ingest after resume");
        let labels = resumed.session().labels().to_vec();
        drop(resumed);
        let (again, stats) = ServingNode::resume_from(&dir).expect("second resume");
        assert_eq!(stats.skipped_windows, 3);
        assert_eq!(stats.replayed_windows, 1);
        assert_eq!(again.session().labels(), labels.as_slice());

        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn compact_folds_wal_into_snapshot() {
        let dir = std::env::temp_dir().join(format!("spinner-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let session = StreamSession::new(ring(200), cfg(2));
        let mut node = ServingNode::with_persistence(session, &dir).expect("create store");
        node.ingest(delta(1, 200)).expect("ingest");
        node.ingest(StreamEvent::Resize { k: 3 }).expect("ingest");
        let labels = node.session().labels().to_vec();
        node.compact().expect("compact");

        let (resumed, stats) = ServingNode::resume_from(&dir).expect("resume");
        assert_eq!(stats.replayed_windows, 0, "WAL was folded in");
        assert_eq!(resumed.session().labels(), labels.as_slice());

        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// `ingest` builds each WAL record from the session's labels,
    /// placement and feedback map instead of two `state()` clones; the
    /// bytes must equal `WalRecord::diff` over those states, window for
    /// window, through deltas, resizes, a worker loss and feedback
    /// re-places. The twin runs the same windows on its own clock, so its
    /// reports take the node's `wall_ns` before encoding.
    #[test]
    fn wal_records_equal_the_state_diff() {
        use crate::fault::{Storage, StoreFile};
        use crate::wal::{read_wal, WalRecord};

        let disk = MemStorage::new();
        let mut cfg = cfg(4).with_placement_feedback(0.3);
        cfg.num_workers = 4;
        let mut twin = StreamSession::new(ring(300), cfg);
        let session = StreamSession::from_state(twin.state());
        let mut node =
            ServingNode::with_storage(session, Box::new(disk.clone())).expect("store");
        let events = [
            delta(0, 300),
            StreamEvent::Resize { k: 6 },
            delta(1, 305),
            StreamEvent::WorkerLoss { worker: 2 },
            StreamEvent::Resize { k: 3 },
            delta(2, 310),
        ];
        let mut expected = Vec::new();
        for event in events {
            let before = twin.state();
            twin.apply(event.clone());
            expected.push(WalRecord::diff(&before, &twin.state(), event.clone()));
            let report = node.ingest(event).expect("append");
            assert_eq!(report.health(), Health::Healthy);
        }
        assert!(twin.windows().iter().any(|w| w.placement_moved() > 0), "no re-place");
        let mut disk = disk;
        let wal = disk.read(StoreFile::Wal).expect("read").expect("a WAL");
        let scan = read_wal(&wal);
        assert_eq!(scan.clean_bytes, wal.len() as u64);
        assert_eq!(scan.records.len(), expected.len());
        let mut written = 0;
        for (mut want, got) in expected.into_iter().zip(&scan.records) {
            want.report.wall_ns = got.report.wall_ns;
            let bytes = want.encode_framed();
            assert_eq!(&wal[written..written + bytes.len()], bytes.as_slice());
            written += bytes.len();
        }
    }

    #[test]
    fn transient_append_fault_is_retried_transparently() {
        let disk = MemStorage::new();
        let session = StreamSession::new(ring(200), cfg(2));
        // Ops 0–1 are the store creation; op 2 is the first append, which
        // fails once — the retry (op 3) goes through clean.
        let storage = FaultyStorage::new(disk.clone(), FaultPlan::new().fail(2, Fault::Full));
        let mut node = ServingNode::with_storage(session, Box::new(storage))
            .expect("create")
            .with_retry_policy(fast_retry(3, 8));
        let rep = node.ingest(delta(0, 200)).expect("ingest");
        assert_eq!(rep.health(), Health::Healthy);
        assert_eq!(rep.persist_retries(), 1);
        assert!(rep.record_bytes() > 0);

        let labels = node.session().labels().to_vec();
        drop(node);
        let (resumed, stats) =
            ServingNode::resume_from_storage(Box::new(disk)).expect("resume");
        assert_eq!(stats.replayed_windows, 1);
        assert_eq!(resumed.session().labels(), labels.as_slice());
    }

    #[test]
    fn ambiguous_append_retry_is_idempotent_on_resume() {
        let disk = MemStorage::new();
        let session = StreamSession::new(ring(200), cfg(2));
        // SyncFailed lands the record but reports failure; the retry
        // appends a duplicate. Resume must skip the duplicate by window
        // number and reconstruct the exact same state.
        let storage =
            FaultyStorage::new(disk.clone(), FaultPlan::new().fail(2, Fault::SyncFailed));
        let mut node = ServingNode::with_storage(session, Box::new(storage))
            .expect("create")
            .with_retry_policy(fast_retry(3, 8));
        let rep = node.ingest(delta(0, 200)).expect("ingest");
        assert_eq!(rep.health(), Health::Healthy);
        assert_eq!(rep.persist_retries(), 1);

        let labels = node.session().labels().to_vec();
        let windows = node.session().windows().len();
        drop(node);
        let (resumed, stats) =
            ServingNode::resume_from_storage(Box::new(disk)).expect("resume");
        assert_eq!(stats.replayed_windows, 1, "first copy applies");
        assert_eq!(stats.skipped_windows, 1, "duplicate copy is skipped");
        assert_eq!(resumed.session().labels(), labels.as_slice());
        assert_eq!(resumed.session().windows().len(), windows);
    }

    #[test]
    fn degraded_node_keeps_serving_then_recovers_by_recheckpoint() {
        let disk = MemStorage::new();
        let session = StreamSession::new(ring(300), cfg(3));
        // First append fails through all 2 attempts (ops 2–3) → Degraded.
        let plan = FaultPlan::new().fail(2, Fault::Full).fail(3, Fault::Full);
        let storage = FaultyStorage::new(disk.clone(), plan);
        let mut node = ServingNode::with_storage(session, Box::new(storage))
            .expect("create")
            .with_retry_policy(fast_retry(2, 8));

        let rep = node.ingest(delta(0, 300)).expect("degraded, not fatal");
        assert_eq!(rep.health(), Health::Degraded);
        assert_eq!(node.unpersisted_windows(), 1);
        assert_eq!(rep.epoch(), 2, "epoch still published");
        assert!(node.lookup(0).is_some(), "serving continues while degraded");

        // Next ingest re-checkpoints (faults exhausted) and heals.
        let rep = node.ingest(delta(1, 305)).expect("recovered");
        assert_eq!(rep.health(), Health::Healthy);
        assert_eq!(node.unpersisted_windows(), 0);
        assert_eq!(rep.record_bytes(), 0, "recovery re-checkpoints instead of appending");
        assert_eq!(rep.epoch(), 3);

        // Both windows — including the one that never hit the WAL — are in
        // the re-checkpointed snapshot.
        let labels = node.session().labels().to_vec();
        drop(node);
        let (resumed, stats) =
            ServingNode::resume_from_storage(Box::new(disk)).expect("resume");
        assert_eq!(stats.replayed_windows, 0, "snapshot carries everything");
        assert_eq!(resumed.session().labels(), labels.as_slice());
        assert_eq!(resumed.session().windows().len(), 3);
    }

    #[test]
    fn failed_heal_compact_keeps_the_degraded_evidence() {
        let disk = MemStorage::new();
        let session = StreamSession::new(ring(300), cfg(3));
        // Ops 0-1 create the store. Op 2 (first append) fails → Degraded.
        // Op 3 is the heal's snapshot write — fail it too, so the
        // re-checkpoint dies before anything lands.
        let plan = FaultPlan::new().fail(2, Fault::Full).fail(3, Fault::Full);
        let storage = FaultyStorage::new(disk.clone(), plan);
        let mut node = ServingNode::with_storage(session, Box::new(storage))
            .expect("create")
            .with_retry_policy(fast_retry(1, 8));

        let rep = node.ingest(delta(0, 300)).expect("degraded, not fatal");
        assert_eq!(rep.health(), Health::Degraded);
        assert_eq!(node.unpersisted_windows(), 1);

        // The heal fails: the node must still know it is Degraded and must
        // still count BOTH unpersisted windows — a heal that zeroed the
        // counter before compacting would report a clean store here.
        let rep = node.ingest(delta(1, 305)).expect("failed heal is not fatal");
        assert_eq!(rep.health(), Health::Degraded);
        assert_eq!(node.health(), Health::Degraded);
        assert_eq!(node.unpersisted_windows(), 2);
        assert_eq!(rep.record_bytes(), 0, "nothing was appended");
        assert_eq!(rep.epoch(), 3, "serving publishes regardless");
        assert!(node.lookup(0).is_some());

        // Faults exhausted: the next ingest's heal lands and resets the
        // machine, and the re-checkpoint carries every window.
        let rep = node.ingest(delta(2, 310)).expect("healed");
        assert_eq!(rep.health(), Health::Healthy);
        assert_eq!(node.unpersisted_windows(), 0);
        let labels = node.session().labels().to_vec();
        drop(node);
        let (resumed, stats) =
            ServingNode::resume_from_storage(Box::new(disk)).expect("resume");
        assert_eq!(stats.replayed_windows, 0, "snapshot carries everything");
        assert_eq!(resumed.session().labels(), labels.as_slice());
        assert_eq!(resumed.session().windows().len(), 4);
    }

    #[test]
    fn failed_heal_between_snapshot_and_truncate_stays_degraded() {
        let disk = MemStorage::new();
        let session = StreamSession::new(ring(300), cfg(3));
        // Op 2: append fails → Degraded. Op 3 (heal snapshot write)
        // succeeds, op 4 (heal WAL truncate) fails: the compact as a whole
        // failed, so the node must NOT report Healthy even though the
        // snapshot happens to be current.
        let plan = FaultPlan::new().fail(2, Fault::Full).fail(4, Fault::Full);
        let storage = FaultyStorage::new(disk.clone(), plan);
        let mut node = ServingNode::with_storage(session, Box::new(storage))
            .expect("create")
            .with_retry_policy(fast_retry(1, 8));

        node.ingest(delta(0, 300)).expect("degraded");
        assert_eq!(node.health(), Health::Degraded);
        assert_eq!(node.unpersisted_windows(), 1);

        // Direct recovery attempt fails mid-compact: counters survive.
        assert_eq!(node.try_recover(), Health::Degraded);
        assert_eq!(node.unpersisted_windows(), 1);

        // Second attempt (faults exhausted) heals and zeroes the counter.
        assert_eq!(node.try_recover(), Health::Healthy);
        assert_eq!(node.unpersisted_windows(), 0);
    }

    #[test]
    fn public_compact_failure_propagates_and_keeps_counters() {
        let disk = MemStorage::new();
        let session = StreamSession::new(ring(200), cfg(2));
        // Op 2: append fails → Degraded; op 3: compact's snapshot write
        // fails → the explicit compact() call must error without touching
        // the health machine.
        let plan = FaultPlan::new().fail(2, Fault::Full).fail(3, Fault::Full);
        let storage = FaultyStorage::new(disk.clone(), plan);
        let mut node = ServingNode::with_storage(session, Box::new(storage))
            .expect("create")
            .with_retry_policy(fast_retry(1, 8));

        node.ingest(delta(0, 200)).expect("degraded");
        assert_eq!(node.health(), Health::Degraded);
        node.compact().expect_err("compact fault propagates");
        assert_eq!(node.health(), Health::Degraded);
        assert_eq!(node.unpersisted_windows(), 1);
        node.compact().expect("faults exhausted");
        assert_eq!(node.health(), Health::Healthy);
        assert_eq!(node.unpersisted_windows(), 0);
    }

    /// A snapshot in a retired format resumes to a typed version error that
    /// names its magic; any other foreign prefix stays corrupt.
    #[test]
    fn retired_snapshot_magic_is_an_unsupported_version() {
        use crate::fault::StoreFile;
        let disk = MemStorage::new();
        let session = StreamSession::new(ring(200), cfg(3));
        ServingNode::with_storage(session, Box::new(disk.clone())).expect("create");
        let snapshot = disk.dump(StoreFile::Snapshot).expect("snapshot written");
        for (magic, retired) in [
            (b"SPNRSNP8", true),
            (b"SPNRSNP1", true),
            (b"SPNRSNPA", false),
            (b"SPNRSNQ8", false),
        ] {
            let store = MemStorage::new();
            store.plant(StoreFile::Snapshot, [magic.as_slice(), &snapshot[8..]].concat());
            match (ServingNode::resume_from_storage(Box::new(store)), retired) {
                (Err(PersistError::UnsupportedVersion { found }), true) => {
                    assert_eq!(&found, magic)
                }
                (Err(PersistError::Corrupt(e)), false) => {
                    assert_eq!(e.context, "snapshot magic")
                }
                (Err(e), _) => panic!("{}: wrong error {e}", magic.escape_ascii()),
                (Ok(_), _) => panic!("{}: resumed a foreign snapshot", magic.escape_ascii()),
            }
        }
    }

    /// Runtime knobs decide no label, so a store does not keep them: two
    /// states that differ only in those encode to the same bytes, and both
    /// decode to this process's defaults.
    #[test]
    fn runtime_knobs_leave_no_trace_in_the_snapshot() {
        use spinner_pregel::{RetryConfig, TransportKind};
        let mut plain = StreamSession::new(ring(200), cfg(3)).state();
        plain.cfg.num_threads = 1;
        plain.cfg.transport = TransportKind::Direct;
        let mut tuned = plain.clone();
        tuned.cfg.num_threads = 3;
        tuned.cfg.transport = TransportKind::Ring;
        tuned.cfg.dense_scan = true;
        tuned.cfg.broadcast_fabric = false;
        tuned.cfg.in_engine_conversion = true;
        tuned.cfg.transport_retry = RetryConfig {
            max_retransmits: 2,
            backoff_base: Duration::from_micros(7),
            take_deadline: Duration::from_millis(90),
        };
        let bytes = crate::snapshot::encode_state(&plain);
        assert_eq!(bytes, crate::snapshot::encode_state(&tuned));

        // Every field, label settings and runtime defaults alike.
        let decoded = crate::snapshot::decode_state(&bytes).expect("decodes").cfg;
        assert_eq!(format!("{decoded:?}"), format!("{:?}", cfg(3)));
    }

    /// A store written by a direct, single-threaded node resumes onto the
    /// Ring transport and two threads; its next window equals the live
    /// node's, and it did run on the wire.
    #[test]
    fn resume_runs_on_the_runtime_settings_it_is_given() {
        use spinner_pregel::TransportKind;
        let disk = MemStorage::new();
        let mut direct = cfg(4);
        direct.num_threads = 1;
        direct.transport = TransportKind::Direct;
        let session = StreamSession::new(ring(300), direct);
        let mut live =
            ServingNode::with_storage(session, Box::new(disk.clone())).expect("store");
        live.ingest(delta(0, 300)).expect("ingest");

        let (mut state, store, _) = SessionStore::load_on(Box::new(disk)).expect("load");
        state.cfg.transport = TransportKind::Ring;
        state.cfg.num_threads = 2;
        let mut resumed = ServingNode::resume(state, store);
        let resumed_cfg = resumed.session().config();
        assert_eq!((resumed_cfg.transport, resumed_cfg.num_threads), (TransportKind::Ring, 2));

        let want = live.ingest(delta(1, 305)).expect("live ingest");
        let got = resumed.ingest(delta(1, 305)).expect("resumed ingest");
        assert_eq!(resumed.session().labels(), live.session().labels());
        assert_eq!(
            resumed.session().placement().as_slice(),
            live.session().placement().as_slice()
        );
        let bits = |r: &IngestReport| (r.report().phi().to_bits(), r.report().rho().to_bits());
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(want.report().wire_frames(), 0, "the live node moves no frames");
        assert!(got.report().wire_frames() > 0, "the resumed node ran on the wire");
    }

    #[test]
    fn dead_storage_poisons_after_the_grace_window_and_serving_survives() {
        let disk = MemStorage::new();
        let session = StreamSession::new(ring(300), cfg(3));
        // Storage dies at the first append; nothing ever succeeds again.
        let storage = FaultyStorage::new(disk.clone(), FaultPlan::kill_at(2));
        let mut node = ServingNode::with_storage(session, Box::new(storage))
            .expect("create")
            .with_retry_policy(fast_retry(2, 1));

        assert_eq!(
            node.ingest(delta(0, 300)).expect("first failure degrades").health(),
            Health::Degraded
        );
        let err = node.ingest(delta(1, 305)).expect_err("grace exhausted poisons");
        assert!(matches!(err, PersistError::Io(_)));
        assert_eq!(node.health(), Health::Poisoned);
        assert_eq!(node.unpersisted_windows(), 2);

        // Poisoned ≠ dead: epochs advance and lookups serve, store-free.
        let rep = node.ingest(delta(2, 310)).expect("poisoned node serves on");
        assert_eq!(rep.health(), Health::Poisoned);
        assert_eq!(rep.epoch(), 4);
        assert!(node.lookup(10).is_some());

        // The store directory still resumes to the last persisted state —
        // the bootstrap snapshot, since no append ever landed.
        let (resumed, stats) =
            ServingNode::resume_from_storage(Box::new(disk)).expect("resume");
        assert_eq!(stats.replayed_windows, 0);
        assert_eq!(resumed.session().windows().len(), 1);
    }

    #[test]
    fn worker_loss_recovers_and_republishes() {
        let mut cfg = cfg(4);
        cfg.num_workers = 8;
        let session = StreamSession::new(ring(600), cfg);
        let mut node = ServingNode::new(session);
        let lost: WorkerId = 3;
        let hosted =
            node.session().placement().as_slice().iter().filter(|&&w| w == lost).count() as u64;
        assert!(hosted > 0, "worker 3 hosts nothing; test graph too small");

        let rep = node.report_worker_loss(lost).expect("no store");
        assert_eq!(rep.epoch(), 2);
        assert!(rep.report().is_recovery());
        assert_eq!(rep.report().lost_vertices(), hosted);
        // The published routing matches the recovered placement exactly.
        let placement = node.session().placement().as_slice().to_vec();
        let reader = node.reader();
        for (v, &w) in placement.iter().enumerate() {
            let hit = reader.lookup(v as u32).expect("published");
            assert_eq!(hit.worker(), w);
            assert_eq!(hit.epoch(), 2);
        }
    }
}
