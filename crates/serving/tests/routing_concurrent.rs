//! Lookup-during-migration safety: reader threads hammer a [`RoutingTable`]
//! while one writer publishes a long sequence of growing placements. Every
//! lookup must be internally consistent with *some* published epoch — never
//! a torn mix of two — and no staler than the head the reader itself
//! observed around the call. The last test runs the staleness check on a
//! [`ServingNode`] whose epochs come from ingesting stream windows.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use spinner_core::{SpinnerConfig, StreamEvent, StreamSession};
use spinner_graph::generators::{planted_partition, SbmConfig};
use spinner_graph::{DeltaStream, DeltaStreamConfig};
use spinner_pregel::WorkerId;
use spinner_serving::{RoutingTable, ServingNode};

/// Deterministic worker for `(epoch, v)` — lets readers verify a lookup
/// against the publishing epoch without sharing the placement vectors.
fn expected(epoch: u64, v: u32) -> WorkerId {
    let x = epoch
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(v).wrapping_mul(0xD1B5_4A32_D192_ED03));
    ((x >> 33) % 64) as WorkerId
}

fn placement(epoch: u64, len: usize) -> Vec<WorkerId> {
    (0..len as u32).map(|v| expected(epoch, v)).collect()
}

/// Table size at `epoch` — crosses the 4096-entry segment boundary and
/// keeps growing, so readers race both epoch flips and segment allocation.
fn len_at(epoch: u64) -> usize {
    3_000 + (epoch as usize) * 700
}

#[test]
fn concurrent_lookups_always_match_a_published_epoch() {
    const EPOCHS: u64 = 48;
    const READERS: usize = 4;

    let mut table = RoutingTable::with_capacity(len_at(EPOCHS) as u32);
    table.publish_at(1, &placement(1, len_at(1)));

    let done = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..READERS {
        let reader = table.reader();
        let done = Arc::clone(&done);
        handles.push(std::thread::spawn(move || {
            let mut verified = 0u64;
            let mut last_epoch = 0u64;
            let mut rng = 0x1234_5678_u64 ^ (t as u64) << 40;
            while !done.load(Ordering::Relaxed) {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let head_before = reader.head();
                let v = (rng >> 33) as u32 % len_at(head_before) as u32;
                let Some(hit) = reader.lookup(v) else {
                    // Only possible when v raced past a *shrinking* table;
                    // our tables only grow, so a published v must resolve.
                    panic!("lookup({v}) missed at head {head_before}");
                };
                let head_after = reader.head();
                // Torn-read check: worker and epoch must agree.
                assert_eq!(
                    hit.worker(),
                    expected(hit.epoch(), v),
                    "worker/epoch mismatch at v={v} epoch={}",
                    hit.epoch()
                );
                // Staleness: the hit comes from an epoch that was head at
                // some instant during the call.
                assert!(
                    hit.epoch() >= head_before && hit.epoch() <= head_after,
                    "epoch {} outside [{head_before}, {head_after}]",
                    hit.epoch()
                );
                // Head never runs backwards for a single reader.
                assert!(hit.epoch() >= last_epoch, "epoch regressed");
                last_epoch = hit.epoch();
                verified += 1;
            }
            verified
        }));
    }

    for epoch in 2..=EPOCHS {
        table.publish_at(epoch, &placement(epoch, len_at(epoch)));
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    done.store(true, Ordering::Relaxed);

    let verified: u64 = handles.into_iter().map(|h| h.join().expect("reader panicked")).sum();
    assert!(verified > 1_000, "readers barely ran ({verified} lookups)");

    // Quiesced: every read now serves the final epoch exactly — staleness 0.
    let reader = table.reader();
    assert_eq!(reader.head(), EPOCHS);
    for v in (0..len_at(EPOCHS) as u32).step_by(97) {
        let hit = reader.lookup(v).expect("published");
        assert_eq!(hit.epoch(), EPOCHS);
        assert_eq!(hit.worker(), expected(EPOCHS, v));
    }
}

/// Worker-loss recovery publish: a recovery epoch is an ordinary publish,
/// so readers racing it must (a) never see a torn mix of the pre-loss and
/// repaired tables, (b) stop naming the lost worker the instant their
/// answer carries the recovery epoch, and (c) keep getting answers the
/// whole time — availability never drops while the repair is written.
#[test]
fn worker_loss_publish_never_tears_and_retires_the_lost_worker() {
    const LOST: WorkerId = 13;
    const VERTICES: usize = 20_000;
    const READERS: usize = 4;
    const ROUNDS: u64 = 24;

    // Pre-loss placement at odd epochs, repaired placement at even epochs:
    // the repair moves exactly the lost worker's vertices (round-robin over
    // survivors) and leaves everything else in place, like
    // `StreamSession`'s by-label re-placement after a `WorkerLoss` event.
    fn pre_loss(round: u64, v: u32) -> WorkerId {
        expected(round, v)
    }
    fn repaired(round: u64, v: u32) -> WorkerId {
        let w = pre_loss(round, v);
        if w == LOST {
            (usize::from(LOST) + 1 + v as usize % 7) as WorkerId
        } else {
            w
        }
    }

    let mut table = RoutingTable::with_capacity(VERTICES as u32);
    table.publish_at(1, &(0..VERTICES as u32).map(|v| pre_loss(0, v)).collect::<Vec<_>>());

    let done = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..READERS {
        let reader = table.reader();
        let done = Arc::clone(&done);
        handles.push(std::thread::spawn(move || {
            let mut verified = 0u64;
            let mut rng = 0xBEEF_CAFE_u64 ^ (t as u64) << 40;
            while !done.load(Ordering::Relaxed) {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = (rng >> 33) as u32 % VERTICES as u32;
                let hit = reader.lookup(v).expect("availability dropped during recovery");
                // Epoch 2r+1 serves pre-loss round r, epoch 2r+2 its repair.
                let round = (hit.epoch() - 1) / 2;
                if hit.epoch() & 1 == 1 {
                    assert_eq!(hit.worker(), pre_loss(round, v), "torn pre-loss read at v={v}");
                } else {
                    assert_eq!(hit.worker(), repaired(round, v), "torn recovery read at v={v}");
                    assert_ne!(
                        hit.worker(),
                        LOST,
                        "recovery epoch still routed to the lost worker"
                    );
                }
                verified += 1;
            }
            verified
        }));
    }

    for round in 0..ROUNDS {
        // Loss reported: publish the repair, then the next window's table.
        table.publish_at(
            2 * round + 2,
            &(0..VERTICES as u32).map(|v| repaired(round, v)).collect::<Vec<_>>(),
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
        if round + 1 < ROUNDS {
            table.publish_at(
                2 * round + 3,
                &(0..VERTICES as u32).map(|v| pre_loss(round + 1, v)).collect::<Vec<_>>(),
            );
        }
    }
    done.store(true, Ordering::Relaxed);

    let verified: u64 = handles.into_iter().map(|h| h.join().expect("reader panicked")).sum();
    assert!(verified > 1_000, "readers barely ran ({verified} lookups)");

    // Quiesced on the final repair: the lost worker is gone from the table.
    let reader = table.reader();
    assert_eq!(reader.head(), 2 * ROUNDS);
    for v in (0..VERTICES as u32).step_by(61) {
        let hit = reader.lookup(v).expect("published");
        assert_ne!(hit.worker(), LOST);
        assert_eq!(hit.worker(), repaired(ROUNDS - 1, v));
    }
}

#[test]
fn preallocated_table_publishes_without_growing() {
    let mut table = RoutingTable::with_capacity(len_at(8) as u32);
    let baseline = table.reallocs();
    for epoch in 1..=8 {
        table.publish_at(epoch, &placement(epoch, len_at(epoch)));
    }
    assert_eq!(table.reallocs(), baseline, "publishes within capacity must not allocate");
}

/// Readers hammer a serving node's routing while it ingests delta windows
/// and a resize, each publishing one epoch: every hit comes from an epoch
/// that was head at some instant during the call. Once ingest stops, every
/// lookup serves the head and the session's placement.
#[test]
fn node_lookups_stay_between_the_heads_around_them_while_it_ingests() {
    const READERS: usize = 2;
    let base = planted_partition(SbmConfig {
        n: 1_200,
        communities: 20,
        internal_degree: 10.0,
        external_degree: 4.0,
        skew: None,
        seed: 5,
    });
    let stream = DeltaStreamConfig { windows: 4, seed: 5, ..DeltaStreamConfig::default() };
    let mut events: Vec<StreamEvent> =
        DeltaStream::new(base.clone(), stream).map(StreamEvent::Delta).collect();
    events.insert(2, StreamEvent::Resize { k: 6 });
    let windows = events.len() as u64;
    let mut cfg = SpinnerConfig::new(4).with_seed(5);
    cfg.num_workers = 8;
    cfg.num_threads = 1;
    let mut node = ServingNode::new(StreamSession::new(base, cfg));

    let done = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..READERS {
        let reader = node.reader();
        let done = Arc::clone(&done);
        handles.push(std::thread::spawn(move || {
            let mut verified = 0u64;
            let mut rng = 0x853C_49E6_748F_EA9B_u64 ^ (t as u64) << 48;
            while !done.load(Ordering::Relaxed) {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let head_before = reader.head();
                // The stream only adds vertices, so a vertex any epoch knows
                // resolves at every later one.
                let v = (rng >> 33) as u32 % reader.len() as u32;
                let hit = reader.lookup(v).expect("a published vertex resolves");
                let head_after = reader.head();
                assert!(
                    hit.epoch() >= head_before && hit.epoch() <= head_after,
                    "epoch {} outside [{head_before}, {head_after}]",
                    hit.epoch()
                );
                verified += 1;
            }
            verified
        }));
    }

    for event in events {
        node.ingest(event).expect("ingest");
    }
    done.store(true, Ordering::Relaxed);
    let verified: u64 = handles.into_iter().map(|h| h.join().expect("reader panicked")).sum();
    assert!(verified > 0, "readers never ran");

    let head = node.epoch();
    assert_eq!(head, 1 + windows, "one epoch per window after the bootstrap");
    for (v, &w) in node.session().placement().as_slice().iter().enumerate() {
        let hit = node.lookup(v as u32).expect("published");
        assert_eq!((hit.epoch(), hit.worker()), (head, w), "lookup({v})");
    }
}
