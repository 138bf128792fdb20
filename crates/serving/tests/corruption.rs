//! Single-bit corruption property: flip *any one bit* of a valid session
//! store — snapshot or WAL — and resume. The store must never panic and
//! never serve silently wrong data: a corrupt snapshot is a typed
//! [`PersistError::Corrupt`], and a corrupt WAL record cleanly truncates
//! the log at the last record that still checks out, resuming to exactly
//! the state those records rebuild. A checksum-clean store whose content
//! no session can host is a typed error too.

use std::sync::OnceLock;

use proptest::prelude::*;
use spinner_core::{SessionState, SpinnerConfig, StreamEvent, StreamSession};
use spinner_graph::{GraphBuilder, GraphDelta};
use spinner_pregel::WorkerId;
use spinner_serving::{
    decode_state, encode_state, read_wal, MemStorage, PersistError, ServingNode, StoreFile,
};

/// A valid store's bytes plus, for every possible replay depth, the exact
/// state a resume stopping there must reconstruct.
struct Fixture {
    snapshot: Vec<u8>,
    wal: Vec<u8>,
    wal_records: usize,
    /// `expected[r]` = (labels, placement, window count) after the snapshot
    /// plus the first `r` WAL records.
    expected: Vec<(Vec<u32>, Vec<WorkerId>, usize)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let n = 220;
        let graph = GraphBuilder::new(n)
            .add_edges((0..n).map(|v| (v, (v + 1) % n)))
            .add_edges((0..n / 2).map(|v| (v, (v * 7 + 3) % n)))
            .build();
        let mut cfg = SpinnerConfig::new(3).with_seed(17).with_placement_feedback(0.05);
        cfg.num_workers = 4;
        cfg.num_threads = 2;
        cfg.max_iterations = 10;

        let disk = MemStorage::new();
        let session = StreamSession::new(graph, cfg);
        let mut node =
            ServingNode::with_storage(session, Box::new(disk.clone())).expect("create store");
        let state_of = |node: &ServingNode| {
            (
                node.session().labels().to_vec(),
                node.session().placement().as_slice().to_vec(),
                node.session().windows().len(),
            )
        };
        let mut expected = vec![state_of(&node)];
        for i in 0..3u32 {
            node.ingest(StreamEvent::Delta(GraphDelta {
                new_vertices: 6,
                added_edges: vec![(i * 11 % n, n + i * 6), (i * 29 % n, n + 1 + i * 6)],
                removed_edges: vec![],
            }))
            .expect("ingest");
            expected.push(state_of(&node));
        }
        drop(node);
        Fixture {
            snapshot: disk.dump(StoreFile::Snapshot).expect("snapshot written"),
            wal: disk.dump(StoreFile::Wal).expect("wal written"),
            wal_records: 3,
            expected,
        }
    })
}

/// Checksum-clean stores whose content no session can host: each one
/// resumes to a typed [`PersistError::Corrupt`] naming the broken rule.
#[test]
fn semantically_invalid_store_is_a_typed_error_never_a_panic() {
    let fx = fixture();
    let valid = decode_state(&fx.snapshot).expect("valid snapshot");
    type Mutation = fn(&mut SessionState);
    let mutations: [(Mutation, &str); 6] = [
        (|s| s.labels.truncate(s.labels.len() - 1), "state does not cover the graph"),
        (|s| s.placement.truncate(s.placement.len() - 1), "state does not cover the graph"),
        (|s| s.labels[7] = s.cfg.k, "state label out of range"),
        (|s| s.placement[5] = s.cfg.num_workers as WorkerId, "state worker id out of range"),
        (
            |s| {
                s.label_assignment = Some(vec![s.cfg.num_workers as WorkerId; s.cfg.k as usize])
            },
            "state worker id out of range",
        ),
        (|s| s.windows.clear(), "state has no bootstrap window"),
    ];
    let mut stores: Vec<(Vec<u8>, Vec<u8>, &str)> = mutations
        .into_iter()
        .map(|(mutate, context)| {
            let mut state = valid.clone();
            mutate(&mut state);
            (encode_state(&state), Vec::new(), context)
        })
        .collect();
    // A WAL record whose post-window k is 0, on top of the valid snapshot.
    let mut record = read_wal(&fx.wal).records.remove(0);
    record.k = 0;
    stores.push((fx.snapshot.clone(), record.encode_framed(), "state label out of range"));

    for (snapshot, wal, context) in stores {
        let disk = MemStorage::new();
        disk.plant(StoreFile::Snapshot, snapshot);
        disk.plant(StoreFile::Wal, wal);
        match ServingNode::resume_from_storage(Box::new(disk)) {
            Err(PersistError::Corrupt(err)) => assert_eq!(err.context, context),
            Err(other) => panic!("{context}: wrong error kind: {other}"),
            Ok(_) => panic!("{context}: resumed from an invalid store"),
        }
    }
}

fn flipped(bytes: &[u8], bit: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let bit = (bit % (out.len() as u64 * 8)) as usize;
    out[bit / 8] ^= 1 << (bit % 8);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any snapshot bit — magic, payload, or checksum — flips to a typed
    /// corruption error, both at the decoder and through a full resume.
    #[test]
    fn snapshot_bit_flip_is_a_typed_error_never_a_panic(bit in any::<u64>()) {
        let fx = fixture();
        let bad = flipped(&fx.snapshot, bit);
        prop_assert!(decode_state(&bad).is_err(), "checksum missed the flip");

        let disk = MemStorage::new();
        disk.plant(StoreFile::Snapshot, bad);
        disk.plant(StoreFile::Wal, fx.wal.clone());
        match ServingNode::resume_from_storage(Box::new(disk)) {
            Err(PersistError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "wrong error kind: {other}"),
            Ok(_) => prop_assert!(false, "resumed from a corrupt snapshot"),
        }
    }

    /// Any WAL bit-flip lands inside some record's CRC frame, so the scan
    /// truncates at that record — never a panic, and the resumed state is
    /// exactly what the surviving clean prefix rebuilds.
    #[test]
    fn wal_bit_flip_truncates_cleanly_never_serves_wrong_data(bit in any::<u64>()) {
        let fx = fixture();
        let bad = flipped(&fx.wal, bit);

        let scan = read_wal(&bad);
        prop_assert!(scan.truncated_tail, "flipped record passed its checksum");
        prop_assert!(scan.records.len() < fx.wal_records);
        prop_assert!(scan.truncated_bytes > 0);

        let disk = MemStorage::new();
        disk.plant(StoreFile::Snapshot, fx.snapshot.clone());
        disk.plant(StoreFile::Wal, bad);
        let (node, stats) =
            ServingNode::resume_from_storage(Box::new(disk.clone())).expect("prefix resumes");
        prop_assert!(stats.truncated_tail);
        prop_assert_eq!(stats.replayed_windows, scan.records.len());
        let (labels, placement, windows) = &fx.expected[stats.replayed_windows];
        prop_assert_eq!(node.session().labels(), labels.as_slice());
        prop_assert_eq!(node.session().placement().as_slice(), placement.as_slice());
        prop_assert_eq!(&node.session().windows().len(), windows);

        // The resume truncated the corrupt tail off the medium: a second
        // resume is clean and identical.
        drop(node);
        let (again, stats) =
            ServingNode::resume_from_storage(Box::new(disk)).expect("clean second resume");
        prop_assert!(!stats.truncated_tail);
        prop_assert_eq!(again.session().labels(), labels.as_slice());
    }
}
