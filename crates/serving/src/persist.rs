//! Session store: a snapshot plus an append-only WAL behind a [`Storage`]
//! backend, and the [`SessionPersist`] extension that gives
//! [`StreamSession`] a `resume_from` warm start.

use std::path::Path;
use std::{fmt, io};

use spinner_core::{SessionState, StreamSession};
use spinner_graph::DirectedGraph;
use spinner_pregel::codec::CorruptError;

use crate::fault::{DiskStorage, Storage, StoreFile};
use crate::snapshot::{decode_state, encode_state, retired_magic, SNAPSHOT_MAGIC};
use crate::wal::{read_wal, WalRecord};

/// Snapshot file name inside a disk-backed store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Write-ahead-log file name inside a disk-backed store directory.
pub const WAL_FILE: &str = "wal.bin";

/// Failure while persisting or restoring a session.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying storage operation failed.
    Io(io::Error),
    /// The stored bytes are corrupt beyond the recoverable WAL tail.
    Corrupt(CorruptError),
    /// The snapshot was written in a retired format version, which this
    /// build no longer reads.
    UnsupportedVersion {
        /// The snapshot's magic.
        found: [u8; 8],
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "session store I/O error: {e}"),
            Self::Corrupt(e) => write!(f, "session store corrupt: {e}"),
            Self::UnsupportedVersion { found } => write!(
                f,
                "session store snapshot format {} is retired; this build reads {}",
                found.escape_ascii(),
                SNAPSHOT_MAGIC.escape_ascii()
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CorruptError> for PersistError {
    fn from(e: CorruptError) -> Self {
        Self::Corrupt(e)
    }
}

/// What a [`SessionStore::load`] recovered, for observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeStats {
    /// WAL records replayed on top of the snapshot.
    pub replayed_windows: usize,
    /// Stale WAL records skipped because a [`SessionStore::compact`] had
    /// already folded their windows into the snapshot (non-zero only after
    /// a crash between the snapshot rename and the WAL truncation).
    pub skipped_windows: usize,
    /// True when a torn tail (crash mid-append) was discarded.
    pub truncated_tail: bool,
    /// How many torn-tail bytes were discarded (0 on a clean resume) — the
    /// operator-facing difference between "resumed clean" and "resumed,
    /// lost a partial record".
    pub truncated_bytes: u64,
    /// Size of the snapshot in bytes.
    pub snapshot_bytes: u64,
    /// Clean WAL bytes retained after recovery.
    pub wal_bytes: u64,
}

/// A snapshot + WAL pair for one session, on any [`Storage`] backend.
///
/// The write path is: [`SessionStore::create`] once with the bootstrap (or
/// checkpoint) state, then [`SessionStore::append`] one [`WalRecord`] per
/// window. The read path is [`SessionStore::load`], which replays the WAL
/// onto the snapshot — truncating a torn tail — and reopens the store for
/// append, so a restarted process continues logging where the dead one
/// stopped.
///
/// `create`/`load` take a directory and run on [`DiskStorage`]; the `_on`
/// variants take any boxed backend — an in-memory one for tests, or a
/// [`FaultyStorage`](crate::FaultyStorage) wrapper for chaos runs.
pub struct SessionStore {
    storage: Box<dyn Storage>,
    wal_bytes: u64,
    snapshot_bytes: u64,
}

impl SessionStore {
    /// Creates (or resets) a disk-backed store at `dir`: writes `state` as
    /// the snapshot and starts an empty WAL.
    pub fn create(dir: impl AsRef<Path>, state: &SessionState) -> io::Result<Self> {
        Self::create_on(Box::new(DiskStorage::open(dir)?), state)
    }

    /// [`SessionStore::create`] over an arbitrary backend.
    pub fn create_on(mut storage: Box<dyn Storage>, state: &SessionState) -> io::Result<Self> {
        let bytes = encode_state(state);
        storage.write_atomic(StoreFile::Snapshot, &bytes)?;
        storage.truncate(StoreFile::Wal, 0)?;
        Ok(Self { storage, wal_bytes: 0, snapshot_bytes: bytes.len() as u64 })
    }

    /// Opens the disk-backed store at `dir`, replays the WAL onto the
    /// snapshot, and returns the recovered state together with the reopened
    /// store. A torn WAL tail is truncated away; corruption anywhere else
    /// errors, as does a checksum-clean state that no session could host
    /// (labels or placement not covering the graph, a label ≥ `k` or
    /// `k = 0`, a worker id ≥ `num_workers`, no windows).
    pub fn load(
        dir: impl AsRef<Path>,
    ) -> Result<(SessionState, Self, ResumeStats), PersistError> {
        Self::load_on(Box::new(DiskStorage::open(dir)?))
    }

    /// [`SessionStore::load`] over an arbitrary backend.
    pub fn load_on(
        mut storage: Box<dyn Storage>,
    ) -> Result<(SessionState, Self, ResumeStats), PersistError> {
        let snapshot_bytes = storage.read(StoreFile::Snapshot)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no snapshot in session store at {}", storage.describe()),
            )
        })?;
        if let Some(found) = retired_magic(&snapshot_bytes) {
            return Err(PersistError::UnsupportedVersion { found });
        }
        // Neither file's bytes outlive its decoding: the replay below holds
        // only the decoded state and records.
        let mut state = decode_state(&snapshot_bytes)?;
        let snapshot_len = snapshot_bytes.len() as u64;
        drop(snapshot_bytes);

        let scan = read_wal(&storage.read(StoreFile::Wal)?.unwrap_or_default());
        let mut replayed = 0usize;
        let mut skipped = 0usize;
        // Each replayed delta writes its graph into the one the previous
        // delta replaced.
        let mut spare = DirectedGraph::default();
        for record in &scan.records {
            // A compact() that died between the snapshot swap and the WAL
            // truncation leaves the whole old log behind the new snapshot.
            // Records for windows the snapshot already contains are skipped
            // (which also makes a re-appended duplicate harmless); a record
            // that skips *ahead* still fails apply_to.
            if (record.window as usize) < state.windows.len() {
                skipped += 1;
                continue;
            }
            record.apply_recycling(&mut state, &mut spare)?;
            replayed += 1;
        }
        check_resumable(&state)?;

        storage.truncate(StoreFile::Wal, scan.clean_bytes)?;
        let stats = ResumeStats {
            replayed_windows: replayed,
            skipped_windows: skipped,
            truncated_tail: scan.truncated_tail,
            truncated_bytes: scan.truncated_bytes,
            snapshot_bytes: snapshot_len,
            wal_bytes: scan.clean_bytes,
        };
        let store = Self { storage, wal_bytes: scan.clean_bytes, snapshot_bytes: snapshot_len };
        Ok((state, store, stats))
    }

    /// Appends one window record durably (for [`DiskStorage`], `sync_data`
    /// before returning — an acknowledged window survives OS crash or power
    /// loss, not just a process kill). Returns the framed size in bytes.
    ///
    /// Safe to retry: if an ambiguous failure (e.g. a failed sync) actually
    /// landed the record, the duplicate a retry appends is skipped on load
    /// by the same window-number check that guards crashed compactions.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        let framed = record.encode_framed();
        self.storage.append(StoreFile::Wal, &framed)?;
        self.wal_bytes += framed.len() as u64;
        Ok(framed.len() as u64)
    }

    /// Rewrites the snapshot as `state` and empties the WAL — bounding
    /// restart time for long streams. Crash-safe: the new snapshot lands
    /// atomically before the WAL is truncated, and a crash between the two
    /// leaves a stale log prefix that [`Self::load`] recognises by window
    /// number and skips.
    pub fn compact(&mut self, state: &SessionState) -> io::Result<()> {
        let bytes = encode_state(state);
        self.storage.write_atomic(StoreFile::Snapshot, &bytes)?;
        self.snapshot_bytes = bytes.len() as u64;
        self.storage.truncate(StoreFile::Wal, 0)?;
        self.wal_bytes = 0;
        Ok(())
    }

    /// Where the store lives (a directory path, or `<mem>` for the
    /// in-memory backend).
    pub fn location(&self) -> String {
        self.storage.describe()
    }

    /// Current WAL size in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Current snapshot size in bytes.
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes
    }
}

/// Checks what a checksum cannot: that the recovered state is one
/// [`StreamSession::from_state`] can host. Labels and placement cover the
/// graph, every label is below `k ≥ 1`, every worker id (placement and
/// feedback map) is below `num_workers`, and the bootstrap window exists.
fn check_resumable(state: &SessionState) -> Result<(), CorruptError> {
    let n = state.graph.num_vertices() as usize;
    let (k, workers) = (state.cfg.k, state.cfg.num_workers);
    let assignment = state.label_assignment.as_deref().unwrap_or_default();
    let context = if state.labels.len() != n || state.placement.len() != n {
        "state does not cover the graph"
    } else if k == 0 || state.labels.iter().any(|&l| l >= k) {
        "state label out of range"
    } else if state.placement.iter().chain(assignment).any(|&w| usize::from(w) >= workers) {
        "state worker id out of range"
    } else if state.windows.is_empty() {
        "state has no bootstrap window"
    } else {
        return Ok(());
    };
    Err(CorruptError { context })
}

/// Persistence extension for [`StreamSession`]: warm-start a restarted
/// process from a [`SessionStore`] directory instead of re-partitioning
/// from scratch.
///
/// Bring the trait into scope (`use spinner_serving::SessionPersist;` or
/// via `spinner::prelude::*`) and call
/// `StreamSession::resume_from("state-dir")`.
pub trait SessionPersist: Sized {
    /// Rebuilds the session from `dir`'s snapshot + WAL. The result is
    /// bit-identical — labels, placement, feedback map, report history — to
    /// the session that wrote the store, including when its process died
    /// mid-append (the torn record's window is simply not yet applied).
    fn resume_from(dir: impl AsRef<Path>) -> Result<Self, PersistError>;

    /// Writes the session's current state as a fresh store at `dir`
    /// (snapshot only, empty WAL) — a one-shot checkpoint for sessions not
    /// fronted by a [`crate::ServingNode`].
    fn checkpoint_to(&self, dir: impl AsRef<Path>) -> Result<(), PersistError>;
}

impl SessionPersist for StreamSession {
    fn resume_from(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        let (state, _store, _stats) = SessionStore::load(dir)?;
        Ok(StreamSession::from_state(state))
    }

    fn checkpoint_to(&self, dir: impl AsRef<Path>) -> Result<(), PersistError> {
        SessionStore::create(dir, &self.state())?;
        Ok(())
    }
}
