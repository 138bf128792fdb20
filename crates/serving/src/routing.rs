//! Epoch-versioned vertex → worker routing table.
//!
//! The table is the serving-side mirror of the partitioner's placement: a
//! compact flat array of [`WorkerId`]s keyed by vertex id, double-buffered
//! like the engine's `OutboxGrid` so an ingest thread can publish a new
//! placement epoch while lookup threads read without locks. Readers get
//! O(1), torn-read-free lookups through a versioned two-buffer scheme (a
//! per-buffer seqlock): the writer fills the *inactive* buffer, stamps it
//! with the new epoch's version, and only then advances the head epoch, so
//! a validated read is guaranteed to be internally consistent with some
//! published epoch — never a mix of two.
//!
//! Entries live in power-of-two *segments* that are allocated once and
//! never moved, so the read path performs zero allocations and publishing
//! allocates only when the vertex set outgrows the already-initialised
//! capacity (counted by [`RoutingTable::reallocs`], pinned in tests the
//! same way the engine's `fabric_reallocs` is).
//!
//! # Hot paths
//!
//! A lookup returns one register-sized word: [`Lookup`] packs the epoch and
//! the worker into a single `NonZeroU64` (`epoch << 16 | worker`), so
//! `Option<Lookup>` is 8 bytes and comes back in a register. With
//! [`RoutingReader::lookup`] inlined into the caller's loop, nothing goes
//! through the stack between one lookup and the next, and independent
//! lookups overlap their cache misses instead of queueing behind each other.
//! Epochs are therefore limited to 48 bits (checked by
//! [`RoutingTable::publish_at`]).
//!
//! A publish is a segment-wise fill: each segment's entry slice is zipped
//! with the matching sub-slice of the new placement and stored in one pass,
//! with no per-entry segment lookup.
//!
//! # Recovery epochs
//!
//! A worker-loss recovery (`ServingNode::report_worker_loss`) publishes its
//! repaired placement as an ordinary next epoch — there is no special
//! "recovery" state on the table, and readers never observe a partial
//! repair. While the recovery epoch is being written, lookups keep serving
//! the *pre-loss* epoch in full; those answers may still name the lost
//! worker, exactly as they would have an instant before the loss was
//! reported. The moment the head advances, every lookup resolves against
//! the repaired table and the lost worker no longer appears. Staleness is
//! therefore bounded the same as any publish: an answer is at most one
//! epoch behind the head observed after the call, so a caller that gets a
//! connection failure from a dead worker re-resolves at most one epoch
//! later and lands on the replacement.

use std::fmt;
use std::num::NonZeroU64;
use std::sync::atomic::{fence, AtomicU16, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use spinner_graph::VertexId;
use spinner_pregel::WorkerId;

/// log2 of the first segment's size.
const LOG_BASE: u32 = 12;
/// Size of the first segment; segment `s` holds `BASE << s` entries.
const BASE: usize = 1 << LOG_BASE;
/// Segments 0..21 cover the full `VertexId` (u32) range.
const MAX_SEGMENTS: usize = 21;
/// Bits of a packed [`Lookup`] below the epoch, holding the worker.
const WORKER_BITS: u32 = WorkerId::BITS;
/// Epochs must stay below this to fit a [`Lookup`] beside the worker.
const EPOCH_LIMIT: u64 = 1 << (u64::BITS - WORKER_BITS);

/// Splits a flat index into its (segment, offset) coordinates.
#[inline]
fn locate(index: usize) -> (usize, usize) {
    let slot = index + BASE;
    let level = usize::BITS - 1 - slot.leading_zeros();
    ((level - LOG_BASE) as usize, slot - (1usize << level))
}

/// One of the two publication buffers.
struct Buffer {
    /// Seqlock version: `2 * epoch` when the buffer holds that epoch's
    /// complete table, `2 * epoch - 1` (odd) while the writer is filling it
    /// toward `epoch`. Strictly increasing, so a reader that observes the
    /// same even version before and after its entry load has read a value
    /// belonging to exactly that epoch.
    version: AtomicU64,
    /// Number of routable vertices in the buffer's current epoch.
    len: AtomicUsize,
    /// Entry storage: segment `s` holds indices `[BASE·(2^s − 1), BASE·(2^(s+1) − 1))`.
    /// Segments are initialised once and never freed or moved, keeping
    /// readers pointer-stable without locks.
    segments: [OnceLock<Box<[AtomicU16]>>; MAX_SEGMENTS],
}

impl Buffer {
    fn new() -> Self {
        Self {
            version: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            segments: [const { OnceLock::new() }; MAX_SEGMENTS],
        }
    }
}

/// State shared between the single writer and all reader handles.
struct Shared {
    /// The latest published epoch; 0 means nothing is published yet.
    head: AtomicU64,
    bufs: [Buffer; 2],
    /// Segment allocations performed since creation (the routing-table
    /// analogue of the engine's `fabric_reallocs`): 0 in steady state once
    /// both buffers cover the working vertex range.
    grows: AtomicU64,
    /// Lookups that had to restart because a publication overlapped them.
    retries: AtomicU64,
}

/// The result of a successful routing lookup: the worker hosting the
/// vertex, tagged with the epoch the answer is consistent with.
///
/// Packed as `epoch << 16 | worker` in one non-zero word (epochs start at
/// 1), so `Option<Lookup>` is 8 bytes and returns in a register.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Lookup(NonZeroU64);

impl Lookup {
    /// Packs an answer; `None` only for epoch 0, which is never published.
    #[inline]
    fn pack(worker: WorkerId, epoch: u64) -> Option<Self> {
        NonZeroU64::new(epoch << WORKER_BITS | u64::from(worker)).map(Self)
    }

    /// The worker hosting the vertex at [`Self::epoch`].
    #[inline]
    pub fn worker(&self) -> WorkerId {
        self.0.get() as WorkerId
    }

    /// The published epoch this answer belongs to. Staleness of the answer
    /// is `head − epoch`, and is at most 1 for a read that completes after
    /// a concurrent publish (the publish after that would have invalidated
    /// and retried the read).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.0.get() >> WORKER_BITS
    }
}

impl fmt::Debug for Lookup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lookup")
            .field("worker", &self.worker())
            .field("epoch", &self.epoch())
            .finish()
    }
}

/// Writer handle of the routing table (see the [module docs](self)).
///
/// There is exactly one writer: publishing takes `&mut self`, while any
/// number of [`RoutingReader`] handles (from [`Self::reader`]) look up
/// concurrently. Dropping the table does not invalidate readers — storage
/// is shared and readers keep serving the last published epoch.
pub struct RoutingTable {
    shared: Arc<Shared>,
}

impl RoutingTable {
    /// An empty table: lookups return `None` until the first publish.
    pub fn new() -> Self {
        Self {
            shared: Arc::new(Shared {
                head: AtomicU64::new(0),
                bufs: [Buffer::new(), Buffer::new()],
                grows: AtomicU64::new(0),
                retries: AtomicU64::new(0),
            }),
        }
    }

    /// An empty table with both buffers pre-sized for `capacity` vertices,
    /// so publishing never allocates until the vertex set outgrows it
    /// (keeps [`Self::reallocs`] at its creation value through a stream of
    /// same-sized windows).
    pub fn with_capacity(capacity: VertexId) -> Self {
        let table = Self::new();
        for buf in &table.shared.bufs {
            table.ensure_capacity(buf, capacity as usize);
        }
        table
    }

    /// A reader handle sharing this table's storage. Cheap to clone and
    /// `Send`, so lookup threads each take their own.
    pub fn reader(&self) -> RoutingReader {
        RoutingReader { shared: Arc::clone(&self.shared) }
    }

    /// Publishes `workers` as the next epoch (`head + 1`) and returns that
    /// epoch. Readers switch over atomically: a lookup observes either the
    /// previous epoch's table in full or this one's, never a mix.
    pub fn publish(&mut self, workers: &[WorkerId]) -> u64 {
        let next = self.shared.head.load(Ordering::Relaxed) + 1;
        self.publish_at(next, workers);
        next
    }

    /// Publishes `workers` as epoch `epoch`, which must exceed the current
    /// head. Used on restart to re-enter the epoch sequence where the
    /// persisted session left off (epoch = number of applied windows)
    /// rather than restarting from 1.
    ///
    /// # Panics
    ///
    /// Buffers alternate by epoch parity, so once anything is published,
    /// `epoch` must differ from the head in parity — otherwise the write
    /// would land on the buffer readers are actively serving and lookups
    /// would spin for the whole rewrite instead of staying wait-free.
    /// Consecutive epochs (all [`Self::publish`] calls) always satisfy
    /// this; a same-parity jump past the head (e.g. head 2 → epoch 4)
    /// panics. From head 0 any starting epoch is fine.
    ///
    /// Epochs share a [`Lookup`] word with the worker, so `epoch` must be
    /// below 2^48; a larger one panics.
    pub fn publish_at(&mut self, epoch: u64, workers: &[WorkerId]) {
        let head = self.shared.head.load(Ordering::Relaxed);
        assert!(
            epoch < EPOCH_LIMIT,
            "epoch {epoch} does not fit a lookup: it must be below 2^48"
        );
        assert!(epoch > head, "epoch {epoch} must exceed head {head}");
        assert!(
            head == 0 || (epoch ^ head) & 1 == 1,
            "epoch {epoch} shares parity with head {head}: it would rewrite the buffer \
             readers are serving; publish an adjacent-parity (e.g. consecutive) epoch"
        );
        let buf = &self.shared.bufs[(epoch & 1) as usize];
        // Mark the buffer as being rewritten *before* touching entries; the
        // release fence orders the marker ahead of the entry stores, so a
        // reader that sees any new entry also sees the odd version and
        // retries instead of attributing the value to the old epoch.
        buf.version.store(2 * epoch - 1, Ordering::Relaxed);
        fence(Ordering::Release);
        self.ensure_capacity(buf, workers.len());
        // Segment by segment: each one takes the next run of `workers`.
        let mut rest = workers;
        for segment in &buf.segments {
            if rest.is_empty() {
                break;
            }
            let segment = segment.get().expect("capacity ensured");
            let (run, tail) = rest.split_at(rest.len().min(segment.len()));
            for (slot, &w) in segment.iter().zip(run) {
                slot.store(w, Ordering::Relaxed);
            }
            rest = tail;
        }
        buf.len.store(workers.len(), Ordering::Relaxed);
        // Stamp the buffer complete, then advance the head. Release on both
        // stores: a reader that observes the new head (or the new version)
        // observes every entry written above.
        buf.version.store(2 * epoch, Ordering::Release);
        self.shared.head.store(epoch, Ordering::Release);
    }

    /// The latest published epoch (0 before the first publish).
    pub fn head(&self) -> u64 {
        self.shared.head.load(Ordering::Acquire)
    }

    /// Total segment allocations since creation — the zero-steady-state
    /// allocation pin: after warm-up (or [`Self::with_capacity`]) this must
    /// not change while the stream's vertex range stays within capacity.
    pub fn reallocs(&self) -> u64 {
        self.shared.grows.load(Ordering::Relaxed)
    }

    /// Total lookup restarts caused by concurrent publications, across all
    /// readers. Lookups never block — this counts the (rare) spins.
    pub fn retries(&self) -> u64 {
        self.shared.retries.load(Ordering::Relaxed)
    }

    fn ensure_capacity(&self, buf: &Buffer, len: usize) {
        if len == 0 {
            return;
        }
        let (last_seg, _) = locate(len - 1);
        for seg in 0..=last_seg {
            buf.segments[seg].get_or_init(|| {
                self.shared.grows.fetch_add(1, Ordering::Relaxed);
                (0..BASE << seg).map(|_| AtomicU16::new(0)).collect()
            });
        }
    }
}

impl Default for RoutingTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Lock-free reader handle of a [`RoutingTable`].
#[derive(Clone)]
pub struct RoutingReader {
    shared: Arc<Shared>,
}

impl RoutingReader {
    /// Resolves vertex `v` to its hosting worker at some published epoch
    /// (at most one behind the head by completion time). Returns `None`
    /// before the first publish or for a vertex the answering epoch does
    /// not know (beyond its vertex count).
    ///
    /// O(1), lock-free, and allocation-free: the read validates a seqlock
    /// version around a single array load and retries only when a publish
    /// overlapped it. Inlined, so a caller's loop keeps the packed answer in
    /// a register and overlaps the loads of consecutive lookups.
    #[inline]
    pub fn lookup(&self, v: VertexId) -> Option<Lookup> {
        loop {
            let epoch = self.shared.head.load(Ordering::Acquire);
            if epoch == 0 {
                return None;
            }
            let buf = &self.shared.bufs[(epoch & 1) as usize];
            if buf.version.load(Ordering::Acquire) != 2 * epoch {
                // The writer is already two epochs ahead and mid-rewrite of
                // this buffer; re-read the head (it has since advanced).
                self.shared.retries.fetch_add(1, Ordering::Relaxed);
                std::hint::spin_loop();
                continue;
            }
            let len = buf.len.load(Ordering::Relaxed);
            let worker = if (v as usize) < len {
                let (seg, off) = locate(v as usize);
                match buf.segments[seg].get() {
                    Some(segment) => Some(segment[off].load(Ordering::Relaxed)),
                    // Unreachable when the version validates below; treat
                    // as a torn read and retry.
                    None => {
                        self.shared.retries.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
            } else {
                None
            };
            // Order the entry load before the validation load, then accept
            // the answer only if no publication touched the buffer
            // in between (versions only grow — no ABA).
            fence(Ordering::Acquire);
            if buf.version.load(Ordering::Relaxed) == 2 * epoch {
                return worker.and_then(|worker| Lookup::pack(worker, epoch));
            }
            self.shared.retries.fetch_add(1, Ordering::Relaxed);
            std::hint::spin_loop();
        }
    }

    /// The latest published epoch (0 before the first publish). A lookup
    /// completed after this call returns an epoch `>=` this value minus 1.
    pub fn head(&self) -> u64 {
        self.shared.head.load(Ordering::Acquire)
    }

    /// The vertex count of the head epoch's table.
    pub fn len(&self) -> usize {
        loop {
            let epoch = self.shared.head.load(Ordering::Acquire);
            if epoch == 0 {
                return 0;
            }
            let buf = &self.shared.bufs[(epoch & 1) as usize];
            if buf.version.load(Ordering::Acquire) != 2 * epoch {
                std::hint::spin_loop();
                continue;
            }
            let len = buf.len.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if buf.version.load(Ordering::Relaxed) == 2 * epoch {
                return len;
            }
        }
    }

    /// True before the first publish (no epoch to serve).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_serves_nothing() {
        let table = RoutingTable::new();
        let reader = table.reader();
        assert_eq!(reader.lookup(0), None);
        assert_eq!(reader.head(), 0);
        assert!(reader.is_empty());
    }

    #[test]
    fn publish_and_lookup_round_trip() {
        let mut table = RoutingTable::new();
        let reader = table.reader();
        let epoch = table.publish(&[3, 1, 4, 1, 5]);
        assert_eq!(epoch, 1);
        for (v, &w) in [3u16, 1, 4, 1, 5].iter().enumerate() {
            let hit = reader.lookup(v as VertexId).expect("published vertex");
            assert_eq!(hit.worker(), w);
            assert_eq!(hit.epoch(), 1);
        }
        assert_eq!(reader.lookup(5), None, "beyond the table");
        assert_eq!(reader.len(), 5);
    }

    #[test]
    fn epochs_supersede_and_grow() {
        let mut table = RoutingTable::new();
        let reader = table.reader();
        table.publish(&[0, 0]);
        table.publish(&[1, 1, 1]);
        assert_eq!(reader.head(), 2);
        assert_eq!(reader.lookup(0).expect("v0").worker(), 1);
        assert_eq!(reader.lookup(2).expect("grown v2").worker(), 1);
        let third = table.publish(&[2, 2, 2, 2]);
        assert_eq!(third, 3);
        assert_eq!(reader.lookup(3).expect("v3").epoch(), 3);
    }

    #[test]
    fn publish_at_reenters_epoch_sequence() {
        let mut table = RoutingTable::new();
        table.publish_at(7, &[9, 9]);
        let reader = table.reader();
        assert_eq!(reader.head(), 7);
        assert_eq!(reader.lookup(1).expect("v1").epoch(), 7);
        assert_eq!(table.publish(&[8, 8]), 8);
    }

    #[test]
    #[should_panic(expected = "shares parity with head")]
    fn same_parity_jump_past_head_is_rejected() {
        let mut table = RoutingTable::new();
        table.publish(&[1, 1]); // head 1
        table.publish(&[2, 2]); // head 2
        table.publish_at(4, &[4, 4]); // would rewrite the buffer serving head 2
    }

    #[test]
    fn odd_parity_jump_past_head_is_fine() {
        let mut table = RoutingTable::new();
        table.publish(&[1, 1]);
        table.publish(&[2, 2]);
        table.publish_at(5, &[5, 5]);
        let reader = table.reader();
        assert_eq!(reader.head(), 5);
        assert_eq!(reader.lookup(0).expect("v0").worker(), 5);
    }

    #[test]
    fn with_capacity_pins_reallocs() {
        let mut table = RoutingTable::with_capacity(10_000);
        let grows = table.reallocs();
        assert!(grows > 0);
        let workers: Vec<WorkerId> = (0..10_000).map(|v| (v % 7) as WorkerId).collect();
        for _ in 0..20 {
            table.publish(&workers);
        }
        assert_eq!(table.reallocs(), grows, "steady-state publish allocated");
    }

    #[test]
    fn optional_lookup_is_one_word() {
        assert_eq!(std::mem::size_of::<Option<Lookup>>(), 8);
    }

    #[test]
    fn lookup_debug_names_worker_and_epoch() {
        let hit = Lookup::pack(7, 42).expect("non-zero epoch");
        assert_eq!(format!("{hit:?}"), "Lookup { worker: 7, epoch: 42 }");
    }

    #[test]
    fn largest_epoch_round_trips() {
        let mut table = RoutingTable::new();
        let last = EPOCH_LIMIT - 1;
        table.publish_at(last, &[WorkerId::MAX, 0]);
        let hit = table.reader().lookup(0).expect("v0");
        assert_eq!((hit.worker(), hit.epoch()), (WorkerId::MAX, last));
        assert_eq!(table.reader().lookup(1).expect("v1").epoch(), last);
    }

    #[test]
    #[should_panic(expected = "must be below 2^48")]
    fn epoch_beyond_48_bits_is_rejected() {
        RoutingTable::new().publish_at(1 << 48, &[1]);
    }

    /// The worker epoch `epoch` publishes for vertex `v`: differs between
    /// neighbouring epochs everywhere, so a stale entry cannot pass.
    fn worker_at(epoch: u64, v: usize) -> WorkerId {
        ((v as u64).wrapping_mul(31).wrapping_add(epoch * 7) % 65_521) as WorkerId
    }

    /// Publishes `len` entries as the next epoch and checks every entry on
    /// either side of every segment boundary below `len`, the last entry,
    /// and that `len` itself misses.
    fn publish_and_check(table: &mut RoutingTable, len: usize) {
        let next = table.head() + 1;
        let workers: Vec<WorkerId> = (0..len).map(|v| worker_at(next, v)).collect();
        assert_eq!(table.publish(&workers), next);
        let reader = table.reader();
        let starts = (0..MAX_SEGMENTS as u32).map(|s| BASE * ((1 << s) - 1));
        let probes =
            starts.take_while(|&b| b <= len).flat_map(|b| [b.wrapping_sub(1), b, b + 1]);
        for v in probes.chain([len.wrapping_sub(1)]).filter(|&v| v < len) {
            let hit = reader.lookup(v as VertexId).expect("published vertex");
            assert_eq!(
                (hit.worker(), hit.epoch()),
                (worker_at(next, v), next),
                "len {len} v {v}"
            );
        }
        assert_eq!(reader.lookup(len as VertexId), None, "len {len}: one past the end");
        assert_eq!(reader.len(), len);
    }

    #[test]
    fn round_trip_at_every_segment_boundary() {
        let mut table = RoutingTable::new();
        let boundaries: Vec<usize> = (0..=10).map(|s| BASE * ((1 << s) - 1)).collect();
        for &b in &boundaries {
            for len in [b.checked_sub(1), Some(b), Some(b + 1)].into_iter().flatten() {
                publish_and_check(&mut table, len);
            }
        }
        // Shrink below the first boundary, then regrow past the last: the
        // regrown entries must be the new epoch's, not leftovers.
        let top = boundaries[boundaries.len() - 1] + 1;
        for len in [BASE - 1, top, 1, top] {
            publish_and_check(&mut table, len);
        }
    }

    #[test]
    fn segment_coordinates_are_dense_and_in_bounds() {
        let mut expect: usize = 0;
        let mut prev = (0usize, 0usize);
        for index in 0..(BASE * 8) {
            let (seg, off) = locate(index);
            assert!(off < BASE << seg, "offset out of segment {seg}");
            if index == 0 {
                assert_eq!((seg, off), (0, 0));
            } else if seg == prev.0 {
                assert_eq!(off, prev.1 + 1, "gap within segment at {index}");
            } else {
                assert_eq!(seg, prev.0 + 1, "segment skip at {index}");
                assert_eq!(off, 0);
            }
            prev = (seg, off);
            expect += 1;
        }
        assert_eq!(expect, BASE * 8);
        // The last segment covers the top of the u32 vertex range.
        let (seg, _) = locate(u32::MAX as usize);
        assert!(seg < MAX_SEGMENTS);
    }
}
