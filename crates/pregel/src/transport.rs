//! Transport abstraction for framed record batches.
//!
//! The engine's default message path hands outbox buffers to the
//! in-memory `OutboxGrid` by pointer swap — zero copies, zero
//! serialization, but inherently single-process. A [`Transport`] is the
//! serialization boundary a distributed backend needs: at the end of a
//! compute phase each worker encodes one frame ([`crate::wire`]) per
//! non-empty destination and publishes it; during delivery each worker
//! takes the frames addressed to it and decodes them. The engine only ever
//! speaks this trait, so process-local and cross-process backends are
//! interchangeable:
//!
//! - [`RingTransport`] — in-memory per-channel ring buffers with frame
//!   recycling (the arm every test grid exercises).
//! - [`crate::fault::FaultyTransport`] — a chaos wrapper that injects
//!   scripted frame-level faults into any inner transport.
//! - [`crate::reliable::ReliableTransport`] — the seq/ack/retransmit
//!   reliability layer that masks those faults (and a lossy socket's).
//! - TCP/UDS — a follow-up that implements the same methods over sockets;
//!   nothing above the trait changes, and the reliability layer already
//!   handles loss, duplication, reordering, and corruption for it.
//!
//! Frame buffers are *recycled*: a consumed frame goes back to its
//! channel's free list via [`Transport::recycle`], and [`Transport::begin`]
//! hands it out again (cleared, capacity intact) for the next superstep, so
//! steady-state supersteps allocate nothing on the wire path — the same
//! invariant [`crate::WorkerMetrics::fabric_reallocs`] pins for the direct
//! path.
//!
//! Faults are *typed*, never panics: `publish`/`take` return a
//! [`TransportError`] when a peer panicked mid-superstep (mutex poisoning),
//! a frame could not be recovered within the configured retry budget, or a
//! stalled sender ran the receiver past its deadline. The engine surfaces
//! the first such error as [`crate::engine::HaltReason::TransportFailed`],
//! which the streaming session escalates into the same reseed-and-
//! reconverge path a `StreamEvent::WorkerLoss` takes.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// How the engine moves message batches between workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-memory pointer swap through the `OutboxGrid` — no serialization.
    /// The default and the bit-identity verification arm.
    #[default]
    Direct,
    /// Serialize every cross-worker batch through [`RingTransport`] using
    /// the configured [`crate::wire::WireFormat`], always wrapped by the
    /// reliability layer ([`crate::reliable::ReliableTransport`]).
    Ring,
}

/// Typed failure of a transport operation. `Copy` and lane-addressed so the
/// engine can carry it across threads and the recovery path can name the
/// peer it should presume lost ([`TransportError::sender`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// A peer worker panicked while holding the `(src, dst)` channel lock
    /// (or, on the direct path, the `(src, dst)` grid cell). The superstep
    /// the peer abandoned cannot complete.
    PeerPanicked {
        /// Sending worker of the poisoned channel.
        src: usize,
        /// Receiving worker of the poisoned channel.
        dst: usize,
    },
    /// The receiver's blocking `take` ran past
    /// [`RetryConfig::take_deadline`] with a frame still outstanding — a
    /// stalled sender, surfaced as a timeout instead of a wedged barrier.
    Timeout {
        /// Sending worker of the stalled lane.
        src: usize,
        /// Receiving worker of the stalled lane.
        dst: usize,
    },
    /// The lane exhausted its retransmit budget
    /// ([`RetryConfig::max_retransmits`]) and is [`LaneHealth::Dead`].
    LaneDead {
        /// Sending worker of the dead lane.
        src: usize,
        /// Receiving worker of the dead lane.
        dst: usize,
    },
    /// A frame failed structural decoding after passing the reliability
    /// layer's CRC check. A frame that fails the check is NACKed and
    /// retransmitted instead, so only a corruption the CRC misses gets
    /// here.
    Corrupt {
        /// Sending worker of the corrupt frame.
        src: usize,
        /// Receiving worker of the corrupt frame.
        dst: usize,
    },
}

impl TransportError {
    /// The `(src, dst)` lane the failure occurred on.
    pub fn lane(&self) -> (usize, usize) {
        match *self {
            Self::PeerPanicked { src, dst }
            | Self::Timeout { src, dst }
            | Self::LaneDead { src, dst }
            | Self::Corrupt { src, dst } => (src, dst),
        }
    }

    /// The worker the receiver should presume lost: the sender whose
    /// frames stopped arriving (or arrived corrupt) — the input the
    /// `WorkerLoss` escalation reseeds.
    pub fn sender(&self) -> usize {
        self.lane().0
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (src, dst) = self.lane();
        match self {
            Self::PeerPanicked { .. } => {
                write!(f, "peer panicked on transport lane {src} -> {dst}")
            }
            Self::Timeout { .. } => {
                write!(f, "take deadline exceeded on transport lane {src} -> {dst}")
            }
            Self::LaneDead { .. } => {
                write!(f, "retransmit budget exhausted on transport lane {src} -> {dst}")
            }
            Self::Corrupt { .. } => {
                write!(f, "unrecoverable corrupt frame on transport lane {src} -> {dst}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Health of one ordered `(src, dst)` lane, as tracked by the reliability
/// layer: `Healthy` until the first recovery action, `Degraded` (sticky for
/// the run — it means "this lane needed recovery", not "currently failing")
/// once a retransmit/NACK/reorder fired, `Dead` once the retry budget or
/// deadline was exhausted. A `Dead` lane fails every subsequent `take` with
/// a typed [`TransportError`] until the transport is [`Transport::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum LaneHealth {
    /// No anomaly observed on the lane.
    #[default]
    Healthy,
    /// The lane recovered from at least one fault this run.
    Degraded,
    /// The lane exhausted its recovery budget; a replacement worker (and a
    /// transport reset) is required.
    Dead,
}

/// Retry/timeout budgets for the transport reliability layer
/// ([`crate::reliable::ReliableTransport`]), configured through
/// `EngineConfig::transport_retry`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Consecutive recovery attempts per outstanding frame before the lane
    /// is declared [`LaneHealth::Dead`].
    pub max_retransmits: u32,
    /// Base of the exponential backoff between retransmit attempts
    /// (attempt `n` sleeps `backoff_base << n`). `Duration::ZERO` disables
    /// the sleep (useful in tests); results never depend on it.
    pub backoff_base: Duration,
    /// Hard wall-clock deadline for one blocking `take`: a stalled sender
    /// yields [`TransportError::Timeout`] instead of wedging the superstep
    /// barrier. Default is generous — it only fires when the retransmit
    /// budget alone cannot bound the wait.
    pub take_deadline: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            max_retransmits: 6,
            backoff_base: Duration::from_micros(20),
            take_deadline: Duration::from_secs(5),
        }
    }
}

/// Cumulative receive-side recovery counters, per receiving worker (see
/// [`Transport::recv_stats`]). Monotonic — callers diff snapshots to
/// attribute activity to a delivery phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames re-published from the retransmit buffer to fill a gap.
    pub retransmits: u64,
    /// Frames rejected by the reliability layer's CRC/structure check
    /// (each reject is an implicit NACK: the gap triggers a retransmit).
    pub nacks: u64,
    /// Duplicate frames discarded by the sequence window.
    pub duplicates_dropped: u64,
    /// Frames that arrived ahead of sequence and were held in the reorder
    /// window.
    pub reordered: u64,
}

impl TransportStats {
    /// Component-wise sum.
    pub fn add(&mut self, other: &TransportStats) {
        self.retransmits += other.retransmits;
        self.nacks += other.nacks;
        self.duplicates_dropped += other.duplicates_dropped;
        self.reordered += other.reordered;
    }

    /// Total recovery actions — the "extra work" count the delivery-
    /// overhead gates bound.
    pub fn recovery_actions(&self) -> u64 {
        self.retransmits + self.nacks + self.duplicates_dropped + self.reordered
    }
}

/// A point-to-point frame mover between logical workers.
///
/// One channel exists per ordered `(src, dst)` worker pair; `publish` /
/// `take` on distinct channels never contend. Within a channel, frames are
/// delivered in publish order (the reliability layer restores that order
/// when an inner transport violates it). Implementations must be
/// `Send + Sync`: the thread pool drives many workers concurrently.
pub trait Transport: Send + Sync {
    /// Hands out a cleared buffer for `src` to encode its next frame to
    /// `dst` into — recycled from a previously consumed frame when one is
    /// available, so its capacity persists across supersteps.
    fn begin(&self, src: usize, dst: usize) -> Vec<u8>;

    /// Publishes an encoded frame from `src` to `dst`. Fails only on
    /// lane-level conditions ([`TransportError::PeerPanicked`], a dead
    /// lane); an in-flight fault is the receiver's problem to recover.
    fn publish(&self, src: usize, dst: usize, frame: Vec<u8>) -> Result<(), TransportError>;

    /// Takes the next pending frame on the `(src, dst)` channel.
    /// `Ok(None)` means the channel is drained *and consistent* (under the
    /// reliability layer: every published frame was delivered). A typed
    /// error reports an unrecoverable lane — the caller must not expect
    /// further frames from `src` this run.
    fn take(&self, src: usize, dst: usize) -> Result<Option<Vec<u8>>, TransportError>;

    /// Returns a consumed frame's buffer to the `(src, dst)` channel's free
    /// list for reuse by a later [`begin`](Self::begin).
    fn recycle(&self, src: usize, dst: usize, frame: Vec<u8>);

    /// Clears in-flight state — pending frames, sequence windows, lane
    /// health — while *keeping* every pooled buffer (capacities persist, so
    /// a reset does not reintroduce steady-state allocations). Called by
    /// the engine at the start of every run; after an aborted run this is
    /// what models the replacement worker's fresh connections. Default:
    /// nothing to clear.
    fn reset(&self) {}

    /// Cumulative recovery counters for frames addressed *to* `dst`
    /// (summed over all senders). Default: all zero (perfect transports
    /// never recover anything).
    fn recv_stats(&self, _dst: usize) -> TransportStats {
        TransportStats::default()
    }

    /// Health of the ordered `(src, dst)` lane. Default: always healthy.
    fn lane_health(&self, _src: usize, _dst: usize) -> LaneHealth {
        LaneHealth::Healthy
    }

    /// `(degraded, dead)` lane tallies across the whole grid. Default:
    /// `(0, 0)`.
    fn health_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    /// `(injected, remaining)` scripted-fault tallies when a chaos layer is
    /// stacked ([`crate::fault::FaultyTransport`]); `(0, 0)` otherwise.
    fn chaos_counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn begin(&self, src: usize, dst: usize) -> Vec<u8> {
        (**self).begin(src, dst)
    }
    fn publish(&self, src: usize, dst: usize, frame: Vec<u8>) -> Result<(), TransportError> {
        (**self).publish(src, dst, frame)
    }
    fn take(&self, src: usize, dst: usize) -> Result<Option<Vec<u8>>, TransportError> {
        (**self).take(src, dst)
    }
    fn recycle(&self, src: usize, dst: usize, frame: Vec<u8>) {
        (**self).recycle(src, dst, frame)
    }
    fn reset(&self) {
        (**self).reset()
    }
    fn recv_stats(&self, dst: usize) -> TransportStats {
        (**self).recv_stats(dst)
    }
    fn lane_health(&self, src: usize, dst: usize) -> LaneHealth {
        (**self).lane_health(src, dst)
    }
    fn health_counts(&self) -> (u64, u64) {
        (**self).health_counts()
    }
    fn chaos_counts(&self) -> (u64, u64) {
        (**self).chaos_counts()
    }
}

/// One `(src, dst)` channel: pending frames plus a free list of spent
/// buffers awaiting reuse.
#[derive(Debug, Default)]
struct Channel {
    ready: VecDeque<Vec<u8>>,
    free: Vec<Vec<u8>>,
}

/// Process-local [`Transport`]: a `W × W` grid of mutex-guarded ring
/// buffers with frame recycling.
///
/// Senders and receivers touch disjoint channels in the engine's superstep
/// protocol (worker `w` publishes row `w` during the publish phase and
/// drains column `w` during delivery, separated by a barrier), so the
/// per-channel mutexes are uncontended in practice; they exist so the type
/// is safely `Sync` without unsafe code.
///
/// A worker thread that panics mid-superstep poisons whatever channel lock
/// it held. Frames are plain byte vectors — the queue state is consistent
/// regardless of where the panic landed — so every operation *recovers* the
/// inner state instead of propagating the poison as a second panic:
/// `begin`/`recycle` proceed silently, while `publish`/`take` report the
/// condition as a typed [`TransportError::PeerPanicked`] so surviving
/// workers back off cleanly.
#[derive(Debug)]
pub struct RingTransport {
    workers: usize,
    cells: Vec<Mutex<Channel>>,
}

impl RingTransport {
    /// A transport connecting `workers` logical workers.
    pub fn new(workers: usize) -> Self {
        let cells = (0..workers * workers).map(|_| Mutex::new(Channel::default())).collect();
        Self { workers, cells }
    }

    /// Number of workers the grid connects.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn cell(&self, src: usize, dst: usize) -> &Mutex<Channel> {
        debug_assert!(src < self.workers && dst < self.workers);
        &self.cells[src * self.workers + dst]
    }

    /// Locks a channel, recovering the guard when a panicking peer
    /// poisoned it. Returns the guard plus whether poison was observed.
    fn lock(&self, src: usize, dst: usize) -> (MutexGuard<'_, Channel>, bool) {
        match self.cell(src, dst).lock() {
            Ok(guard) => (guard, false),
            Err(poisoned) => (poisoned.into_inner(), true),
        }
    }
}

impl Transport for RingTransport {
    fn begin(&self, src: usize, dst: usize) -> Vec<u8> {
        let (mut ch, _) = self.lock(src, dst);
        let mut buf = ch.free.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    fn publish(&self, src: usize, dst: usize, frame: Vec<u8>) -> Result<(), TransportError> {
        let (mut ch, poisoned) = self.lock(src, dst);
        ch.ready.push_back(frame);
        if poisoned {
            Err(TransportError::PeerPanicked { src, dst })
        } else {
            Ok(())
        }
    }

    fn take(&self, src: usize, dst: usize) -> Result<Option<Vec<u8>>, TransportError> {
        let (mut ch, poisoned) = self.lock(src, dst);
        if poisoned {
            return Err(TransportError::PeerPanicked { src, dst });
        }
        Ok(ch.ready.pop_front())
    }

    fn recycle(&self, src: usize, dst: usize, frame: Vec<u8>) {
        let (mut ch, _) = self.lock(src, dst);
        ch.free.push(frame);
    }

    fn reset(&self) {
        for cell in &self.cells {
            let mut ch = match cell.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            // Pending frames from an aborted run become free buffers —
            // contents are stale, capacity is the asset.
            while let Some(frame) = ch.ready.pop_front() {
                ch.free.push(frame);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_arrive_in_publish_order_per_channel() {
        let t = RingTransport::new(3);
        t.publish(0, 2, vec![1]).unwrap();
        t.publish(0, 2, vec![2]).unwrap();
        t.publish(1, 2, vec![9]).unwrap();
        assert_eq!(t.take(0, 2).unwrap(), Some(vec![1]));
        assert_eq!(t.take(0, 2).unwrap(), Some(vec![2]));
        assert_eq!(t.take(0, 2).unwrap(), None);
        assert_eq!(t.take(1, 2).unwrap(), Some(vec![9]));
    }

    #[test]
    fn recycled_buffers_keep_their_capacity() {
        let t = RingTransport::new(2);
        let mut frame = t.begin(0, 1);
        frame.extend_from_slice(&[0u8; 128]);
        let cap = frame.capacity();
        t.publish(0, 1, frame).unwrap();
        let frame = t.take(0, 1).unwrap().expect("published");
        t.recycle(0, 1, frame);
        let reused = t.begin(0, 1);
        assert!(reused.is_empty());
        assert_eq!(reused.capacity(), cap, "begin must reuse the recycled buffer");
    }

    #[test]
    fn channels_are_independent() {
        let t = RingTransport::new(2);
        t.publish(0, 1, vec![5]).unwrap();
        assert_eq!(t.take(1, 0).unwrap(), None, "reverse channel must be empty");
        assert_eq!(t.take(0, 0).unwrap(), None);
        assert_eq!(t.take(0, 1).unwrap(), Some(vec![5]));
    }

    #[test]
    fn reset_turns_pending_frames_into_free_buffers() {
        let t = RingTransport::new(2);
        let mut frame = t.begin(0, 1);
        frame.extend_from_slice(&[7u8; 64]);
        let cap = frame.capacity();
        t.publish(0, 1, frame).unwrap();
        t.reset();
        assert_eq!(t.take(0, 1).unwrap(), None, "reset discards pending frames");
        let reused = t.begin(0, 1);
        assert!(reused.is_empty());
        assert_eq!(reused.capacity(), cap, "reset must keep the buffer pooled");
    }

    /// A panicking peer poisons a channel lock; survivors get a typed
    /// error from `take`/`publish` instead of a propagated panic, and the
    /// queue state (plain bytes) stays usable for `begin`/`recycle`.
    #[test]
    fn poisoned_channel_reports_peer_panicked_not_panic() {
        let t = RingTransport::new(2);
        t.publish(0, 1, vec![1]).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = t.cell(0, 1).lock().unwrap();
            panic!("worker dies mid-superstep");
        }));
        assert!(result.is_err());
        assert_eq!(t.take(0, 1), Err(TransportError::PeerPanicked { src: 0, dst: 1 }));
        assert_eq!(
            t.publish(0, 1, vec![2]),
            Err(TransportError::PeerPanicked { src: 0, dst: 1 })
        );
        // Unrelated channels are unaffected.
        assert_eq!(t.take(1, 0).unwrap(), None);
        // begin/recycle recover silently: buffers keep flowing.
        let buf = t.begin(0, 1);
        t.recycle(0, 1, buf);
    }

    /// The in-memory grid fails the same way: a peer that panics while
    /// holding a grid cell poisons it, and both the publishing and the
    /// delivering worker get the typed error instead of a propagated panic.
    #[test]
    fn poisoned_grid_cell_reports_peer_panicked_not_panic() {
        use crate::algorithms::Wcc;
        use crate::types::OutboxGrid;
        use crate::worker::{Fabric, Worker};

        let grid: OutboxGrid<u32> = (0..4).map(|_| Mutex::default()).collect();
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = grid[1].lock().unwrap();
                panic!("worker dies mid-superstep");
            })
            .join()
        });
        assert!(died.is_err());
        let fabric = Fabric::Grid(&grid);
        let lane = Err(TransportError::PeerPanicked { src: 0, dst: 1 });

        let mut sender = Worker::<Wcc>::new(0, 2);
        sender.outboxes[1].push(false, 1, 7);
        assert_eq!(sender.publish(&fabric), lane);
        assert!(sender.outboxes[1].is_empty(), "a failed publish still empties the outbox");

        let mut receiver = Worker::<Wcc>::new(1, 2);
        receiver.reset_fabric();
        assert_eq!(receiver.deliver(&Wcc, &fabric, &[]), lane);
        // Unrelated cells are unaffected.
        let mut healthy = Worker::<Wcc>::new(0, 2);
        healthy.reset_fabric();
        assert_eq!(healthy.deliver(&Wcc, &fabric, &[]), Ok(()));
    }

    #[test]
    fn transport_error_names_its_lane_and_sender() {
        let e = TransportError::LaneDead { src: 3, dst: 1 };
        assert_eq!(e.lane(), (3, 1));
        assert_eq!(e.sender(), 3);
        assert!(e.to_string().contains("3 -> 1"));
    }
}
