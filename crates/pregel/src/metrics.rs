//! Per-superstep, per-worker execution metrics.
//!
//! These counters drive the cluster simulation ([`crate::sim`]) and the
//! paper's cost/savings experiments (messages exchanged in Figs. 7–8, worker
//! balance in Table IV).

/// Counters for one logical worker within one superstep.
///
/// Message counters come in two flavours since the broadcast lane landed:
/// **logical** counts (`sent_local`/`sent_remote`/`recv_*`) tally the
/// per-destination-vertex deliveries a program's sends imply — identical
/// whether the fabric moves them as per-edge unicasts or deduplicated
/// broadcasts — while **record** counts (`sent_local_records`/
/// `sent_remote_records`) tally the physical entries pushed into the
/// fabric's buffers, the thing a distributed deployment would serialise
/// onto the wire. Under pure unicast the two coincide; under broadcast the
/// record count drops to one per `(sender, destination worker)` pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Vertices whose compute function ran.
    pub computed: u64,
    /// Messages (logical deliveries) sent to vertices on the same worker.
    pub sent_local: u64,
    /// Messages (logical deliveries) sent to vertices on other workers.
    pub sent_remote: u64,
    /// Physical records pushed into the worker-local fast-path queue (one
    /// per broadcast regardless of local fan-out; equals `sent_local` under
    /// pure unicast).
    pub sent_local_records: u64,
    /// Physical records pushed into the cross-worker outbox grid — the
    /// network traffic a distributed deployment would see (one per
    /// `(sender, destination worker)` pair for broadcasts; equals
    /// `sent_remote` under pure unicast).
    pub sent_remote_records: u64,
    /// Messages received from the same worker.
    pub recv_local: u64,
    /// Messages received from other workers.
    pub recv_remote: u64,
    /// Wall-clock nanoseconds spent in the compute phase of this worker.
    pub compute_ns: u64,
    /// Delivery-phase buffer growth events: how many message-fabric buffers
    /// (flat inbox, decoded wire records, scheduler lists, send queues)
    /// grew during this superstep. Zero in the steady state — the fabric
    /// reuses all capacity
    /// across supersteps — so a nonzero tail is an allocation regression.
    pub fabric_reallocs: u64,
    /// Bytes of encoded frames this worker published through the transport
    /// (zero on the direct in-memory path, which moves buffers by pointer
    /// swap and never serialises).
    pub bytes_sent: u64,
    /// Encoded frames published through the transport (at most one per
    /// destination worker per superstep).
    pub frames_sent: u64,
    /// Outbox records eliminated by sender-side combiner folding before
    /// framing (records to the same destination vertex merged through
    /// [`crate::Program::combine`] — exactly the fold the receiver's
    /// delivery would have applied, so results are unchanged).
    pub wire_folded: u64,
    /// Frames the transport reliability layer re-published to recover a
    /// detected gap while delivering to this worker. Zero on the direct
    /// path and on any fault-free run — the delivery-overhead figure the
    /// chaos gates bound.
    pub retransmits: u64,
}

impl WorkerMetrics {
    /// Total messages sent by this worker.
    pub fn sent_total(&self) -> u64 {
        self.sent_local + self.sent_remote
    }

    /// Total messages received by this worker.
    pub fn recv_total(&self) -> u64 {
        self.recv_local + self.recv_remote
    }

    /// Resets all counters to zero (reused across supersteps).
    pub fn reset(&mut self) {
        *self = WorkerMetrics::default();
    }
}

/// Metrics for one superstep across all logical workers.
#[derive(Debug, Clone)]
pub struct SuperstepMetrics {
    /// The superstep index.
    pub superstep: u64,
    /// Per-logical-worker counters.
    pub per_worker: Vec<WorkerMetrics>,
    /// Wall-clock nanoseconds of the whole superstep (compute + delivery +
    /// barrier work), as executed on this machine.
    pub wall_ns: u64,
    /// Vertices still active (not halted) after the superstep.
    pub active_after: u64,
}

impl SuperstepMetrics {
    /// Total messages sent in this superstep.
    pub fn sent_total(&self) -> u64 {
        self.per_worker.iter().map(|w| w.sent_total()).sum()
    }

    /// Total remote (cross-worker) messages in this superstep: the network
    /// traffic a distributed deployment would see.
    pub fn sent_remote(&self) -> u64 {
        self.per_worker.iter().map(|w| w.sent_remote).sum()
    }

    /// Total worker-local messages in this superstep — the traffic served by
    /// the fabric's locality fast path instead of the network.
    pub fn sent_local(&self) -> u64 {
        self.per_worker.iter().map(|w| w.sent_local).sum()
    }

    /// Total cross-worker *records* in this superstep — the entries the
    /// outbox grid physically carried (≤ [`Self::sent_remote`]; strictly
    /// fewer when the broadcast lane deduplicated fan-outs).
    pub fn sent_remote_records(&self) -> u64 {
        self.per_worker.iter().map(|w| w.sent_remote_records).sum()
    }

    /// Total worker-local *records* in this superstep (one per broadcast on
    /// the fast path, one per message for unicasts).
    pub fn sent_local_records(&self) -> u64 {
        self.per_worker.iter().map(|w| w.sent_local_records).sum()
    }

    /// Total vertices computed.
    pub fn computed_total(&self) -> u64 {
        self.per_worker.iter().map(|w| w.computed).sum()
    }

    /// Total encoded frame bytes published through the transport.
    pub fn bytes_sent(&self) -> u64 {
        self.per_worker.iter().map(|w| w.bytes_sent).sum()
    }

    /// Total frames published through the transport.
    pub fn frames_sent(&self) -> u64 {
        self.per_worker.iter().map(|w| w.frames_sent).sum()
    }

    /// Total records eliminated by sender-side combiner folding.
    pub fn wire_folded(&self) -> u64 {
        self.per_worker.iter().map(|w| w.wire_folded).sum()
    }

    /// Total reliability-layer retransmissions during delivery.
    pub fn retransmits(&self) -> u64 {
        self.per_worker.iter().map(|w| w.retransmits).sum()
    }
}

/// Aggregates a whole run's metrics.
#[derive(Debug, Clone, Default)]
pub struct RunTotals {
    /// Total messages (logical deliveries) sent across all supersteps.
    pub messages: u64,
    /// Total remote messages — logical deliveries that crossed workers.
    pub remote_messages: u64,
    /// Total cross-worker records the fabric physically carried (the
    /// network-traffic proxy after broadcast dedup; equals
    /// `remote_messages` under pure unicast).
    pub remote_records: u64,
    /// Total worker-local records (fast-path queue entries).
    pub local_records: u64,
    /// Total vertex computations.
    pub computed: u64,
    /// Total wall nanoseconds.
    pub wall_ns: u64,
    /// Total encoded frame bytes moved through the transport (zero on the
    /// direct in-memory path).
    pub wire_bytes: u64,
    /// Total frames moved through the transport.
    pub wire_frames: u64,
    /// Total outbox records eliminated by sender-side combiner folding.
    pub wire_folded: u64,
    /// Total frames the transport reliability layer retransmitted (zero on
    /// the direct path and on fault-free runs).
    pub retransmits: u64,
}

impl RunTotals {
    /// Sums the given superstep metrics.
    pub fn from_supersteps(steps: &[SuperstepMetrics]) -> Self {
        let mut t = RunTotals::default();
        for s in steps {
            t.messages += s.sent_total();
            t.remote_messages += s.sent_remote();
            t.remote_records += s.sent_remote_records();
            t.local_records += s.sent_local_records();
            t.computed += s.computed_total();
            t.wall_ns += s.wall_ns;
            t.wire_bytes += s.bytes_sent();
            t.wire_frames += s.frames_sent();
            t.wire_folded += s.wire_folded();
            t.retransmits += s.retransmits();
        }
        t
    }

    /// Retransmitted frames per frame originally published (0.0 on the
    /// direct path or any fault-free run). The reliability layer's recovery
    /// cost, which the chaos experiment gates to a bounded value.
    pub fn retransmit_ratio(&self) -> f64 {
        if self.wire_frames == 0 {
            0.0
        } else {
            self.retransmits as f64 / self.wire_frames as f64
        }
    }

    /// Encoded wire bytes per remote *logical* message — the cost figure
    /// the compact format is built to shrink (0.0 when nothing crossed a
    /// worker, or on the direct path where nothing is serialised).
    pub fn wire_bytes_per_remote_message(&self) -> f64 {
        if self.remote_messages == 0 {
            0.0
        } else {
            self.wire_bytes as f64 / self.remote_messages as f64
        }
    }

    /// Sender-side fold ratio: outbox records per record actually framed
    /// (1.0 when nothing folded — direct path, fold disabled, or no
    /// combiner; > 1.0 when the sender's combiner fold shrank the batch).
    pub fn fold_ratio(&self) -> f64 {
        let framed = self.remote_records.saturating_sub(self.wire_folded);
        if framed == 0 {
            1.0
        } else {
            self.remote_records as f64 / framed as f64
        }
    }

    /// Remote dedup ratio: logical cross-worker deliveries per physical
    /// grid record (1.0 under pure unicast or when nothing crossed a
    /// worker; grows with the fan-out the broadcast lane compressed away).
    pub fn remote_dedup(&self) -> f64 {
        if self.remote_records == 0 {
            1.0
        } else {
            self.remote_messages as f64 / self.remote_records as f64
        }
    }

    /// Total worker-local messages: `messages - remote_messages`.
    pub fn local_messages(&self) -> u64 {
        self.messages - self.remote_messages
    }

    /// Share of the run's messages that stayed worker-local (1.0 for a run
    /// that exchanged no messages at all). This is the number a label-driven
    /// placement is meant to push up — remote share `1 - local_share` is the
    /// network-cost proxy.
    pub fn local_share(&self) -> f64 {
        if self.messages == 0 {
            1.0
        } else {
            self.local_messages() as f64 / self.messages as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wm(sl: u64, sr: u64) -> WorkerMetrics {
        WorkerMetrics {
            computed: 1,
            sent_local: sl,
            sent_remote: sr,
            sent_local_records: sl,
            sent_remote_records: sr / 2,
            ..Default::default()
        }
    }

    #[test]
    fn totals_roll_up() {
        let s = SuperstepMetrics {
            superstep: 0,
            per_worker: vec![wm(2, 3), wm(0, 5)],
            wall_ns: 100,
            active_after: 4,
        };
        assert_eq!(s.sent_total(), 10);
        assert_eq!(s.sent_remote(), 8);
        assert_eq!(s.sent_local(), 2);
        assert_eq!(s.sent_remote_records(), 3);
        assert_eq!(s.sent_local_records(), 2);
        assert_eq!(s.computed_total(), 2);
        let t = RunTotals::from_supersteps(&[s.clone(), s]);
        assert_eq!(t.messages, 20);
        assert_eq!(t.remote_messages, 16);
        assert_eq!(t.remote_records, 6);
        assert_eq!(t.local_records, 4);
        assert_eq!(t.local_messages(), 4);
        assert!((t.local_share() - 0.2).abs() < 1e-12);
        assert!((t.remote_dedup() - 16.0 / 6.0).abs() < 1e-12);
        assert_eq!(t.wall_ns, 200);
    }

    #[test]
    fn unicast_runs_have_neutral_dedup() {
        assert_eq!(RunTotals::default().remote_dedup(), 1.0);
        let t = RunTotals { remote_messages: 7, remote_records: 7, ..Default::default() };
        assert_eq!(t.remote_dedup(), 1.0);
    }

    #[test]
    fn empty_run_is_fully_local() {
        assert_eq!(RunTotals::default().local_share(), 1.0);
    }

    #[test]
    fn reset_clears() {
        let mut m = wm(1, 2);
        m.reset();
        assert_eq!(m, WorkerMetrics::default());
    }

    #[test]
    fn wire_counters_roll_up() {
        let mut w = wm(0, 8);
        w.bytes_sent = 40;
        w.frames_sent = 2;
        w.wire_folded = 1;
        w.retransmits = 1;
        let s =
            SuperstepMetrics { superstep: 0, per_worker: vec![w], wall_ns: 1, active_after: 0 };
        assert_eq!(s.bytes_sent(), 40);
        assert_eq!(s.frames_sent(), 2);
        assert_eq!(s.wire_folded(), 1);
        assert_eq!(s.retransmits(), 1);
        let t = RunTotals::from_supersteps(&[s]);
        assert_eq!(t.wire_bytes, 40);
        assert_eq!(t.wire_frames, 2);
        assert_eq!(t.wire_folded, 1);
        assert_eq!(t.retransmits, 1);
        assert!((t.retransmit_ratio() - 0.5).abs() < 1e-12);
        // 8 remote logical messages, 40 bytes => 5 bytes/message.
        assert!((t.wire_bytes_per_remote_message() - 5.0).abs() < 1e-12);
        // 4 outbox records, 1 folded => 4/3.
        assert!((t.fold_ratio() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn direct_path_ratios_are_neutral() {
        let t = RunTotals::default();
        assert_eq!(t.wire_bytes_per_remote_message(), 0.0);
        assert_eq!(t.fold_ratio(), 1.0);
        assert_eq!(t.retransmit_ratio(), 0.0);
    }
}
