//! Wire-format and transport properties: arbitrary record batches must
//! round-trip bit-identically through `encode_frame`/`decode_frame`, torn,
//! corrupted or unknown-format frames must surface as typed errors (never a
//! panic), and a full engine run must produce bit-identical results on
//! either transport.

use proptest::prelude::*;
use spinner_graph::generators::{planted_partition, SbmConfig};
use spinner_graph::DirectedGraph;
use spinner_pregel::codec::crc32;
use spinner_pregel::engine::{Engine, EngineConfig, HaltReason};
use spinner_pregel::program::Program;
use spinner_pregel::wire::{decode_frame, encode_frame, WireError, WireRecord};
use spinner_pregel::{Placement, TransportKind, VertexContext, WireFormat};

/// Arbitrary wire record: broadcast flag, an id drawn from one of three
/// regimes (small, straddling the 2³¹ direct-path cap, full `u64`), and a
/// payload. Ids at and above `1 << 31` are the point: the frame format must
/// carry them even though the in-memory direct path cannot.
fn record() -> impl Strategy<Value = WireRecord<u64>> {
    (any::<bool>(), 0u8..3, any::<u64>(), any::<u64>()).prop_map(
        |(broadcast, regime, raw, msg)| {
            let id = match regime {
                0 => raw % 1000,
                1 => (1u64 << 31) - 2 + raw % 5,
                _ => raw,
            };
            WireRecord { broadcast, id, msg }
        },
    )
}

fn batch() -> impl Strategy<Value = Vec<WireRecord<u64>>> {
    prop::collection::vec(record(), 0..80)
}

fn roundtrip(records: &[WireRecord<u64>]) -> (Vec<u8>, Vec<WireRecord<u64>>) {
    let frame = encode_frame(WireFormat::Compact, records, 0, Vec::new());
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    decode_frame::<u64>(&frame, &mut scratch, &mut out).expect("valid frame decodes");
    (frame, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every batch — any mix of broadcast and unicast, ids across the full
    /// `u64` range — decodes back to exactly the input, in order. The same
    /// frame with format byte 0 and a valid checksum is `UnknownFormat(0)`.
    #[test]
    fn arbitrary_batches_round_trip(records in batch()) {
        let (mut frame, decoded) = roundtrip(&records);
        prop_assert_eq!(&decoded, &records);
        let body = frame.len() - 4;
        frame[0] = 0;
        let crc = crc32(&frame[..body]);
        frame[body..].copy_from_slice(&crc.to_le_bytes());
        let err = decode_frame::<u64>(&frame, &mut Vec::new(), &mut Vec::new());
        prop_assert_eq!(err, Err(WireError::UnknownFormat(0)));
    }

    /// Every strict prefix of a valid frame is a typed error — truncation
    /// can never panic or decode to records.
    #[test]
    fn torn_frames_are_typed_errors(records in batch()) {
        let (frame, _) = roundtrip(&records);
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        for len in 0..frame.len() {
            let err = decode_frame::<u64>(&frame[..len], &mut scratch, &mut out)
                .expect_err("torn frame must not decode");
            prop_assert!(matches!(
                err,
                WireError::Truncated | WireError::ChecksumMismatch | WireError::Corrupt(_)
            ));
        }
    }

    /// Any single flipped bit is caught: CRC-32 is linear, so a one-bit
    /// change always breaks the checksum (or the length/magic checks first).
    #[test]
    fn corrupted_frames_are_typed_errors(
        records in batch(),
        byte_pick in any::<u64>(),
        bit in 0u8..8,
    ) {
        let (frame, _) = roundtrip(&records);
        let mut bad = frame.clone();
        let pos = (byte_pick % frame.len() as u64) as usize;
        bad[pos] ^= 1 << bit;
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        prop_assert!(decode_frame::<u64>(&bad, &mut scratch, &mut out).is_err());
    }

    /// Appending garbage after the checksum is rejected, not ignored: a
    /// frame is a complete unit.
    #[test]
    fn trailing_bytes_are_rejected(records in batch(), extra in 1u8..16) {
        let (mut frame, _) = roundtrip(&records);
        frame.extend(std::iter::repeat_n(0xABu8, extra as usize));
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        let err = decode_frame::<u64>(&frame, &mut scratch, &mut out)
            .expect_err("padded frame must not decode");
        prop_assert!(matches!(
            err,
            WireError::TrailingBytes | WireError::ChecksumMismatch | WireError::Corrupt(_)
        ));
    }

    /// Float payloads (f64 here) survive bit-exactly, including NaN
    /// payload bits and signed zeros.
    #[test]
    fn float_payloads_round_trip_bit_exact(bits in prop::collection::vec(any::<u64>(), 1..40)) {
        let records: Vec<WireRecord<f64>> = bits
            .iter()
            .enumerate()
            .map(|(i, &b)| WireRecord {
                broadcast: i % 3 == 0,
                id: i as u64,
                msg: f64::from_bits(b),
            })
            .collect();
        let frame = encode_frame(WireFormat::Compact, &records, 0, Vec::new());
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        decode_frame::<f64>(&frame, &mut scratch, &mut out).expect("valid frame");
        prop_assert_eq!(out.len(), records.len());
        for (got, want) in out.iter().zip(&records) {
            prop_assert_eq!(got.broadcast, want.broadcast);
            prop_assert_eq!(got.id, want.id);
            prop_assert_eq!(got.msg.to_bits(), want.msg.to_bits());
        }
    }
}

// ---------------------------------------------------------------------------
// Engine-level equivalence: the wire path against the direct path.
// ---------------------------------------------------------------------------

fn sbm() -> DirectedGraph {
    planted_partition(SbmConfig {
        n: 600,
        communities: 5,
        internal_degree: 7.0,
        external_degree: 1.5,
        skew: None,
        seed: 42,
    })
}

/// Min-label propagation with optional combiner and broadcast sends — any
/// fabric bug that reorders, drops, duplicates, or mis-folds messages shows
/// up as a value or history difference.
struct MinLabel {
    combine: bool,
    broadcast: bool,
}

impl Program for MinLabel {
    type V = u32;
    type E = ();
    type M = u32;
    type G = ();
    type WorkerState = ();

    fn init_global(&self) {}
    fn init_worker(&self, _g: &(), _w: u16) {}

    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[u32]) {
        let mut best = *ctx.value;
        if ctx.superstep == 0 {
            best = ctx.vertex;
        }
        for &m in messages {
            best = best.min(m);
        }
        if best != *ctx.value || ctx.superstep == 0 {
            *ctx.value = best;
            if self.broadcast {
                ctx.mail.broadcast(best);
            } else {
                for &t in ctx.edges.targets {
                    ctx.mail.send(t, best);
                }
            }
        }
        ctx.vote_to_halt();
    }

    fn combine(&self, acc: &mut u32, msg: &u32) -> bool {
        if self.combine {
            *acc = (*acc).min(*msg);
            true
        } else {
            false
        }
    }
}

/// One superstep's integer history row: `(superstep, computed, sent, recv,
/// active_after)` — logical counts, identical across every fabric arm.
type HistoryRow = (u64, u64, u64, u64, u64);

struct Trace {
    values: Vec<u32>,
    history: Vec<HistoryRow>,
    halt_supersteps: u64,
    wire_bytes: u64,
    wire_frames: u64,
    remote_records: u64,
    wire_folded: u64,
    /// Fabric growth events per superstep, to pin the steady state.
    reallocs: Vec<u64>,
}

struct Arm {
    transport: TransportKind,
    /// Sets the fields the engine ignores (`sender_fold`, `work_stealing`,
    /// `steal_chunk`) away from their defaults.
    ignored_fields: bool,
}

fn run_arm(g: &DirectedGraph, threads: usize, program: MinLabel, arm: &Arm) -> Trace {
    let workers = 4;
    let placement = Placement::hashed(g.num_vertices(), workers, 9);
    let mut cfg = EngineConfig {
        num_threads: threads,
        max_supersteps: 200,
        seed: 3,
        transport: arm.transport,
        ..EngineConfig::default()
    };
    if arm.ignored_fields {
        cfg.sender_fold = false;
        cfg.work_stealing = false;
        cfg.steal_chunk = 7;
    }
    let mut engine =
        Engine::from_directed(program, g, &placement, cfg, |_| u32::MAX, |_, _, _| ());
    let summary = engine.run();
    assert_eq!(summary.halt, HaltReason::AllHalted);
    let totals = summary.totals();
    Trace {
        values: engine.collect_values(),
        history: summary
            .metrics
            .iter()
            .map(|s| {
                let recv: u64 = s.per_worker.iter().map(|w| w.recv_total()).sum();
                (s.superstep, s.computed_total(), s.sent_total(), recv, s.active_after)
            })
            .collect(),
        halt_supersteps: summary.supersteps,
        wire_bytes: totals.wire_bytes,
        wire_frames: totals.wire_frames,
        remote_records: totals.remote_records,
        wire_folded: totals.wire_folded,
        reallocs: summary
            .metrics
            .iter()
            .map(|s| s.per_worker.iter().map(|w| w.fabric_reallocs).sum())
            .collect(),
    }
}

/// Both transports, with and without a combiner, unicast and broadcast
/// sends, serial and pooled: values and the logical message history must be
/// bit-identical to the direct path everywhere, while the wire arms actually
/// serialise (bytes > 0) and fold nothing. The last Ring arm sets the fields
/// the engine ignores away from their defaults; its values and wire counters
/// must equal the default Ring run's exactly.
#[test]
fn wire_arms_are_bit_identical_to_direct() {
    let g = sbm();
    let ring = |ignored_fields| Arm { transport: TransportKind::Ring, ignored_fields };
    for &combine in &[false, true] {
        for &broadcast in &[false, true] {
            for &threads in &[1usize, 3] {
                let run =
                    |arm: &Arm| run_arm(&g, threads, MinLabel { combine, broadcast }, arm);
                let direct =
                    run(&Arm { transport: TransportKind::Direct, ignored_fields: false });
                assert_eq!(direct.wire_bytes, 0, "direct path never serialises");
                let [plain, ignored] = [ring(false), ring(true)].map(|arm| {
                    let t = run(&arm);
                    let tag = format!(
                        "combine={combine} broadcast={broadcast} threads={threads} \
                         ignored_fields={}",
                        arm.ignored_fields
                    );
                    assert_eq!(t.values, direct.values, "values diverged: {tag}");
                    assert_eq!(t.history, direct.history, "history diverged: {tag}");
                    assert_eq!(t.halt_supersteps, direct.halt_supersteps, "{tag}");
                    assert!(t.wire_bytes > 0, "wire arm must serialise: {tag}");
                    assert_eq!(t.wire_folded, 0, "no record is folded: {tag}");
                    // Steady state: once capacities warm up the wire path
                    // allocates nothing — the tail supersteps are all zero.
                    let tail: u64 = t.reallocs.iter().skip(3).sum();
                    assert_eq!(tail, 0, "fabric must stop allocating: {tag}");
                    t
                });
                let counters = |t: &Trace| (t.wire_bytes, t.wire_frames, t.remote_records);
                assert_eq!(ignored.values, plain.values, "ignored fields moved a value");
                assert_eq!(counters(&ignored), counters(&plain), "ignored fields moved a byte");
            }
        }
    }
}
