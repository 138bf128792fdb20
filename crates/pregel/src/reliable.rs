//! Seq/ack/retransmit reliability layer over any [`Transport`].
//!
//! [`ReliableTransport`] makes an unreliable frame mover (a chaos-wrapped
//! ring today, a lossy socket tomorrow) look perfect to the engine:
//! frames arrive exactly once, in publish order, or the lane fails with a
//! typed [`TransportError`] — never a hang, never silent divergence.
//!
//! ## Protocol
//!
//! Each ordered `(src, dst)` lane carries an independent sequence space.
//! `publish` appends a 12-byte trailer — `[seq u64 LE][crc32 LE]`, the CRC
//! covering payload *and* sequence so trailer corruption is caught — and
//! retains a copy of the sealed frame in a bounded retransmit buffer
//! (pooled buffers; steady state allocates nothing). `take` validates the
//! trailer, dedups against the cumulative ack, stashes early frames in a
//! reorder window, and strips the trailer before handing the frame up.
//!
//! Because both lane endpoints live in this one structure, the receiver
//! *knows* how many frames the sender sealed (`next_seq`). A drained inner
//! transport with `ack < next_seq` is therefore a detected gap, not a
//! silent loss: the receiver re-publishes the first unacked frame from the
//! retained buffer, with exponential backoff, up to
//! [`RetryConfig::max_retransmits`] attempts and bounded overall by
//! [`RetryConfig::take_deadline`]. A corrupt frame is rejected and counts
//! as a NACK — the gap it leaves triggers the same retransmit path instead
//! of aborting the run. When the budget or deadline is exhausted the lane
//! is marked [`LaneHealth::Dead`] and every subsequent `take` fails fast
//! with a typed error, which the engine surfaces as
//! `HaltReason::TransportFailed` and the streaming session escalates into
//! worker-loss recovery.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::codec::crc32;
use crate::transport::{LaneHealth, RetryConfig, Transport, TransportError, TransportStats};
use crate::wire::MIN_FRAME_LEN;

/// Bytes the reliability layer appends to every frame:
/// `[seq u64 LE][crc32 LE]`.
pub const RELIABLE_TRAILER_LEN: usize = 12;

/// Per-lane protocol state. One struct holds both endpoints: the sender
/// side (`next_seq`, retransmit buffer) and the receiver side (cumulative
/// `ack`, reorder stash, retry bookkeeping). The engine's superstep
/// barrier separates the phases that touch each side, so the single mutex
/// is uncontended.
#[derive(Debug, Default)]
struct Lane {
    /// Sender: sequence number the next published frame gets.
    next_seq: u64,
    /// Sender: sealed copies of unacked frames, oldest first.
    sent: VecDeque<(u64, Vec<u8>)>,
    /// Receiver: next sequence number to deliver (cumulative ack).
    ack: u64,
    /// Receiver: early frames parked until their turn.
    stash: BTreeMap<u64, Vec<u8>>,
    /// Receiver: consecutive recovery attempts for the current gap.
    attempts: u32,
    /// Pooled buffers for retained copies and retransmissions.
    pool: Vec<Vec<u8>>,
    health: LaneHealth,
    stats: TransportStats,
}

impl Lane {
    fn degrade(&mut self) {
        if self.health == LaneHealth::Healthy {
            self.health = LaneHealth::Degraded;
        }
    }

    /// Returns acked retained frames to the pool.
    fn prune_sent(&mut self) {
        while self.sent.front().is_some_and(|(seq, _)| *seq < self.ack) {
            let (_, buf) = self.sent.pop_front().expect("front checked");
            self.pool.push(buf);
        }
    }
}

/// The reliability decorator — see the module docs for the protocol.
#[derive(Debug)]
pub struct ReliableTransport<T: Transport> {
    inner: T,
    workers: usize,
    cfg: RetryConfig,
    lanes: Vec<Mutex<Lane>>,
}

impl<T: Transport> ReliableTransport<T> {
    /// Wraps `inner` (connecting `workers` workers) with the given retry
    /// budgets.
    pub fn new(inner: T, workers: usize, cfg: RetryConfig) -> Self {
        let lanes = (0..workers * workers).map(|_| Mutex::new(Lane::default())).collect();
        Self { inner, workers, cfg, lanes }
    }

    fn lane(&self, src: usize, dst: usize) -> MutexGuard<'_, Lane> {
        debug_assert!(src < self.workers && dst < self.workers);
        self.lanes[src * self.workers + dst].lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Validates a raw frame's reliability trailer and returns its
    /// sequence number; `None` means corrupt (bad length or CRC).
    fn parse_seq(frame: &[u8]) -> Option<u64> {
        if frame.len() < MIN_FRAME_LEN + RELIABLE_TRAILER_LEN {
            return None;
        }
        let (body, crc_bytes) = frame.split_at(frame.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().ok()?);
        if crc32(body) != stored {
            return None;
        }
        let seq_bytes: [u8; 8] = body[body.len() - 8..].try_into().ok()?;
        Some(u64::from_le_bytes(seq_bytes))
    }

    /// Strips the trailer, advances the ack, and releases acked retained
    /// buffers.
    fn deliver(lane: &mut Lane, mut frame: Vec<u8>) -> Vec<u8> {
        frame.truncate(frame.len() - RELIABLE_TRAILER_LEN);
        lane.ack += 1;
        lane.attempts = 0;
        lane.prune_sent();
        frame
    }
}

impl<T: Transport> Transport for ReliableTransport<T> {
    fn begin(&self, src: usize, dst: usize) -> Vec<u8> {
        self.inner.begin(src, dst)
    }

    fn publish(
        &self,
        src: usize,
        dst: usize,
        mut frame: Vec<u8>,
    ) -> Result<(), TransportError> {
        let mut lane = self.lane(src, dst);
        let seq = lane.next_seq;
        lane.next_seq += 1;
        frame.extend_from_slice(&seq.to_le_bytes());
        let crc = crc32(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());
        let mut copy = lane.pool.pop().unwrap_or_default();
        copy.clear();
        copy.extend_from_slice(&frame);
        lane.sent.push_back((seq, copy));
        lane.prune_sent();
        self.inner.publish(src, dst, frame)
    }

    fn take(&self, src: usize, dst: usize) -> Result<Option<Vec<u8>>, TransportError> {
        let mut lane = self.lane(src, dst);
        if lane.health == LaneHealth::Dead {
            return Err(TransportError::LaneDead { src, dst });
        }
        let deadline = Instant::now() + self.cfg.take_deadline;
        loop {
            // In-order frame already parked in the reorder window?
            let want = lane.ack;
            if let Some(frame) = lane.stash.remove(&want) {
                return Ok(Some(Self::deliver(&mut lane, frame)));
            }
            match self.inner.take(src, dst)? {
                Some(raw) => match Self::parse_seq(&raw) {
                    None => {
                        // Corrupt: reject and treat as a NACK — the gap it
                        // leaves drives the retransmit path below.
                        lane.stats.nacks += 1;
                        lane.degrade();
                        self.inner.recycle(src, dst, raw);
                    }
                    Some(seq) if seq < lane.ack => {
                        lane.stats.duplicates_dropped += 1;
                        self.inner.recycle(src, dst, raw);
                    }
                    Some(seq) if seq == lane.ack => {
                        return Ok(Some(Self::deliver(&mut lane, raw)));
                    }
                    Some(seq) if seq < lane.next_seq => {
                        if lane.stash.contains_key(&seq) {
                            lane.stats.duplicates_dropped += 1;
                            self.inner.recycle(src, dst, raw);
                        } else {
                            lane.stats.reordered += 1;
                            lane.degrade();
                            lane.stash.insert(seq, raw);
                        }
                    }
                    Some(_) => {
                        // A sequence number the sender never issued: the
                        // trailer survived a CRC check by accident or the
                        // frame predates a reset. Reject like corruption.
                        lane.stats.nacks += 1;
                        lane.degrade();
                        self.inner.recycle(src, dst, raw);
                    }
                },
                None => {
                    if lane.ack == lane.next_seq {
                        // Drained and consistent: every sealed frame was
                        // delivered.
                        lane.attempts = 0;
                        return Ok(None);
                    }
                    // Detected gap: the sender sealed frames the receiver
                    // never saw. Recover from the retained buffer.
                    if lane.attempts >= self.cfg.max_retransmits {
                        lane.health = LaneHealth::Dead;
                        return Err(TransportError::LaneDead { src, dst });
                    }
                    if Instant::now() >= deadline {
                        lane.health = LaneHealth::Dead;
                        return Err(TransportError::Timeout { src, dst });
                    }
                    if !self.cfg.backoff_base.is_zero() {
                        let shift = lane.attempts.min(10);
                        std::thread::sleep(self.cfg.backoff_base * (1u32 << shift));
                    }
                    lane.degrade();
                    lane.attempts += 1;
                    lane.stats.retransmits += 1;
                    let want = lane.ack;
                    let Some(pos) = lane.sent.iter().position(|(seq, _)| *seq == want) else {
                        // The gap frame is no longer retained — cannot
                        // recover (should be unreachable: pruning only
                        // drops acked frames).
                        lane.health = LaneHealth::Dead;
                        return Err(TransportError::LaneDead { src, dst });
                    };
                    let mut copy = lane.pool.pop().unwrap_or_default();
                    copy.clear();
                    copy.extend_from_slice(&lane.sent[pos].1);
                    self.inner.publish(src, dst, copy)?;
                }
            }
        }
    }

    fn recycle(&self, src: usize, dst: usize, frame: Vec<u8>) {
        self.inner.recycle(src, dst, frame)
    }

    fn reset(&self) {
        for src in 0..self.workers {
            for dst in 0..self.workers {
                let mut lane = self.lane(src, dst);
                while let Some((_, buf)) = lane.sent.pop_front() {
                    lane.pool.push(buf);
                }
                while let Some((_, buf)) = lane.stash.pop_first() {
                    lane.pool.push(buf);
                }
                lane.next_seq = 0;
                lane.ack = 0;
                lane.attempts = 0;
                lane.health = LaneHealth::Healthy;
                // Cumulative stats survive: callers attribute activity by
                // diffing snapshots, so the clock must never rewind.
            }
        }
        self.inner.reset();
        // Drain frames stranded in the inner transport by an aborted run
        // (a reset inner may or may not have cleared them itself).
        for src in 0..self.workers {
            for dst in 0..self.workers {
                while let Ok(Some(frame)) = self.inner.take(src, dst) {
                    self.inner.recycle(src, dst, frame);
                }
            }
        }
    }

    fn recv_stats(&self, dst: usize) -> TransportStats {
        let mut total = TransportStats::default();
        for src in 0..self.workers {
            total.add(&self.lane(src, dst).stats);
        }
        total
    }

    fn lane_health(&self, src: usize, dst: usize) -> LaneHealth {
        self.lane(src, dst).health
    }

    fn health_counts(&self) -> (u64, u64) {
        let mut degraded = 0;
        let mut dead = 0;
        for lane in &self.lanes {
            match lane.lock().unwrap_or_else(|p| p.into_inner()).health {
                LaneHealth::Healthy => {}
                LaneHealth::Degraded => degraded += 1,
                LaneHealth::Dead => dead += 1,
            }
        }
        (degraded, dead)
    }

    fn chaos_counts(&self) -> (u64, u64) {
        self.inner.chaos_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultyTransport, TransportFault, TransportFaultPlan};
    use crate::transport::RingTransport;
    use std::time::Duration;

    fn quick_cfg() -> RetryConfig {
        RetryConfig { backoff_base: Duration::ZERO, ..RetryConfig::default() }
    }

    fn reliable_over(
        plan: TransportFaultPlan,
    ) -> ReliableTransport<FaultyTransport<RingTransport>> {
        ReliableTransport::new(
            FaultyTransport::new(RingTransport::new(3), 3, plan),
            3,
            quick_cfg(),
        )
    }

    /// A payload long enough to satisfy the minimum frame length the
    /// trailer check expects under the reliability layer.
    fn payload(tag: u8) -> Vec<u8> {
        let mut p = vec![tag; MIN_FRAME_LEN];
        p[0] = tag;
        p
    }

    #[test]
    fn clean_lane_round_trips_and_strips_trailer() {
        let t = reliable_over(TransportFaultPlan::new());
        t.publish(0, 1, payload(1)).unwrap();
        t.publish(0, 1, payload(2)).unwrap();
        assert_eq!(t.take(0, 1).unwrap(), Some(payload(1)));
        assert_eq!(t.take(0, 1).unwrap(), Some(payload(2)));
        assert_eq!(t.take(0, 1).unwrap(), None);
        assert_eq!(t.lane_health(0, 1), LaneHealth::Healthy);
        assert_eq!(t.recv_stats(1), TransportStats::default());
    }

    #[test]
    fn dropped_frame_is_retransmitted() {
        let t = reliable_over(TransportFaultPlan::new().fail(0, 1, 0, TransportFault::Drop));
        t.publish(0, 1, payload(1)).unwrap();
        assert_eq!(t.take(0, 1).unwrap(), Some(payload(1)));
        assert!(t.recv_stats(1).retransmits >= 1);
        assert_eq!(t.lane_health(0, 1), LaneHealth::Degraded);
        assert_eq!(t.health_counts(), (1, 0));
    }

    #[test]
    fn duplicate_frame_is_delivered_once() {
        let t =
            reliable_over(TransportFaultPlan::new().fail(0, 1, 0, TransportFault::Duplicate));
        t.publish(0, 1, payload(1)).unwrap();
        assert_eq!(t.take(0, 1).unwrap(), Some(payload(1)));
        assert_eq!(t.take(0, 1).unwrap(), None);
        assert_eq!(t.recv_stats(1).duplicates_dropped, 1);
    }

    #[test]
    fn reordered_frames_are_delivered_in_sequence() {
        let t = reliable_over(TransportFaultPlan::new().fail(
            0,
            1,
            0,
            TransportFault::Reorder { window: 2 },
        ));
        t.publish(0, 1, payload(1)).unwrap();
        t.publish(0, 1, payload(2)).unwrap();
        t.publish(0, 1, payload(3)).unwrap();
        assert_eq!(t.take(0, 1).unwrap(), Some(payload(1)));
        assert_eq!(t.take(0, 1).unwrap(), Some(payload(2)));
        assert_eq!(t.take(0, 1).unwrap(), Some(payload(3)));
        assert!(t.recv_stats(1).reordered >= 1);
    }

    #[test]
    fn corrupt_frame_is_nacked_and_recovered() {
        for fault in [TransportFault::FlipBit { bit: 13 }, TransportFault::Torn { keep: 5 }] {
            let t = reliable_over(TransportFaultPlan::new().fail(0, 1, 0, fault));
            t.publish(0, 1, payload(9)).unwrap();
            assert_eq!(
                t.take(0, 1).unwrap(),
                Some(payload(9)),
                "fault {fault:?} must be masked"
            );
            let stats = t.recv_stats(1);
            assert!(stats.nacks >= 1, "fault {fault:?} must be rejected, not decoded");
            assert!(stats.retransmits >= 1);
        }
    }

    #[test]
    fn delayed_frame_is_recovered_without_divergence() {
        let t = reliable_over(TransportFaultPlan::new().fail(
            0,
            1,
            0,
            TransportFault::Delay { ticks: 2 },
        ));
        t.publish(0, 1, payload(4)).unwrap();
        assert_eq!(t.take(0, 1).unwrap(), Some(payload(4)));
        assert_eq!(t.take(0, 1).unwrap(), None, "late original must dedup, not redeliver");
    }

    #[test]
    fn stalled_lane_dies_with_typed_error() {
        let t = reliable_over(TransportFaultPlan::new().stall_at(0, 1, 0));
        t.publish(0, 1, payload(1)).unwrap();
        assert_eq!(t.take(0, 1), Err(TransportError::LaneDead { src: 0, dst: 1 }));
        assert_eq!(t.lane_health(0, 1), LaneHealth::Dead);
        // Dead lanes fail fast on every subsequent take.
        assert_eq!(t.take(0, 1), Err(TransportError::LaneDead { src: 0, dst: 1 }));
        assert_eq!(t.health_counts(), (0, 1));
    }

    #[test]
    fn deadline_bounds_a_stalled_take() {
        let cfg = RetryConfig {
            max_retransmits: u32::MAX,
            backoff_base: Duration::from_micros(50),
            take_deadline: Duration::from_millis(50),
        };
        let plan = TransportFaultPlan::new().stall_at(0, 1, 0);
        let t = ReliableTransport::new(
            FaultyTransport::new(RingTransport::new(2), 2, plan),
            2,
            cfg,
        );
        t.publish(0, 1, payload(1)).unwrap();
        let start = Instant::now();
        assert_eq!(t.take(0, 1), Err(TransportError::Timeout { src: 0, dst: 1 }));
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "an unbounded retry budget must still respect the take deadline"
        );
    }

    #[test]
    fn reset_revives_a_dead_lane_and_keeps_buffers_pooled() {
        let t = reliable_over(TransportFaultPlan::new().stall_at(0, 1, 0));
        t.publish(0, 1, payload(1)).unwrap();
        assert!(t.take(0, 1).is_err());
        let stats_before = t.recv_stats(1);
        t.reset();
        assert_eq!(t.lane_health(0, 1), LaneHealth::Healthy);
        assert_eq!(t.recv_stats(1), stats_before, "cumulative stats survive reset");
        t.publish(0, 1, payload(2)).unwrap();
        assert_eq!(t.take(0, 1).unwrap(), Some(payload(2)));
    }

    #[test]
    fn steady_state_publishing_reuses_pooled_buffers() {
        let t = reliable_over(TransportFaultPlan::new());
        // Warm-up: establish pools.
        for round in 0..3u8 {
            t.publish(0, 1, payload(round)).unwrap();
            let frame = t.take(0, 1).unwrap().expect("published");
            t.recycle(0, 1, frame);
        }
        // Steady state: recycled buffer capacity must survive the full
        // begin -> publish(+trailer) -> take(strip) -> recycle cycle.
        let mut frame = t.begin(0, 1);
        assert!(frame.capacity() >= MIN_FRAME_LEN + RELIABLE_TRAILER_LEN);
        frame.extend_from_slice(&payload(9));
        let cap = frame.capacity();
        t.publish(0, 1, frame).unwrap();
        let frame = t.take(0, 1).unwrap().expect("published");
        assert_eq!(frame.capacity(), cap, "trailer strip must preserve capacity");
    }
}
