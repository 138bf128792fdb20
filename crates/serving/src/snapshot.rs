//! Binary snapshot of a [`SessionState`]: everything a restarted process
//! needs to rebuild a [`spinner_core::StreamSession`] via
//! [`spinner_core::StreamSession::from_state`] — config, directed graph,
//! labels, live placement, feedback map, and the window-report history.
//!
//! Layout: an 8-byte magic, a varint-encoded payload, and a trailing
//! CRC-32 of the payload. The graph is stored as per-vertex degree plus
//! delta-encoded sorted neighbour gaps (CSR order is already sorted), which
//! keeps the file a small multiple of the in-memory CSR.

use spinner_core::config::BalanceObjective;
use spinner_core::{SessionState, SpinnerConfig, WindowReport, WindowReportParts};
use spinner_graph::{DirectedGraph, VertexId};
use spinner_pregel::codec::{crc32, ByteReader, ByteWriter, CorruptError, Result};
use spinner_pregel::{RetryConfig, TransportKind, WireFormat};
use std::time::Duration;

/// Magic prefix of a snapshot file (versioned; bump on layout change —
/// `SPNRSNP2` added `lost_vertices` to the window-report record;
/// `SPNRSNP3` added `computed` to the window-report record and the
/// scheduler knobs — the frontier-window flag, `work_stealing`, `steal_chunk`,
/// `dense_scan` — to the config record; `SPNRSNP4` added the message-fabric
/// knobs — `transport`, `wire_format`, `sender_fold` — to the config record
/// and the wire counters — `wire_bytes`, `wire_frames`, `wire_folded` — to
/// the window-report record; `SPNRSNP5` added the transport-reliability
/// knobs — `transport_retry` — to the config record and the resilience
/// counters — `retransmits`, `lanes_degraded`, `lanes_dead` — to the
/// window-report record; `SPNRSNP6` dropped the `transport_retry.reliable`
/// byte from the config record, as the reliability layer is always on;
/// `SPNRSNP7` dropped the frontier-window byte from the config record, as
/// every delta window restarts its vertices as the driver does; `SPNRSNP8`
/// dropped the restart-scope byte from the config record, as every window
/// restarts every vertex).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SPNRSNP8";

/// The magic `bytes` begins with when it is a snapshot of a retired format
/// version, `SPNRSNP1` up to the one before [`SNAPSHOT_MAGIC`].
pub(crate) fn retired_magic(bytes: &[u8]) -> Option<[u8; 8]> {
    let (family, version) = SNAPSHOT_MAGIC.split_at(7);
    let found: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
    (found.starts_with(family) && (b'1'..version[0]).contains(&found[7])).then_some(found)
}

/// Encodes `state` into a self-verifying snapshot byte vector.
pub fn encode_state(state: &SessionState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_config(&mut w, &state.cfg);
    // Graph: vertex count, then degree + neighbour gaps per vertex.
    let graph = &state.graph;
    w.put_varint(u64::from(graph.num_vertices()));
    for v in graph.vertices() {
        let neighbors = graph.out_neighbors(v);
        w.put_varint(neighbors.len() as u64);
        let mut prev = 0u64;
        for &d in neighbors {
            w.put_varint(u64::from(d) - prev);
            prev = u64::from(d);
        }
    }
    w.put_varint(state.labels.len() as u64);
    for &l in &state.labels {
        w.put_varint(u64::from(l));
    }
    w.put_varint(state.placement.len() as u64);
    for &p in &state.placement {
        w.put_varint(u64::from(p));
    }
    match &state.label_assignment {
        None => w.put_u8(0),
        Some(assignment) => {
            w.put_u8(1);
            w.put_varint(assignment.len() as u64);
            for &a in assignment {
                w.put_varint(u64::from(a));
            }
        }
    }
    w.put_varint(state.windows.len() as u64);
    for report in &state.windows {
        put_report(&mut w, &report.to_parts());
    }

    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out
}

/// Decodes a snapshot produced by [`encode_state`], verifying magic and
/// checksum.
pub fn decode_state(bytes: &[u8]) -> Result<SessionState> {
    let payload =
        bytes.strip_prefix(SNAPSHOT_MAGIC).ok_or(CorruptError { context: "snapshot magic" })?;
    if payload.len() < 4 {
        return Err(CorruptError { context: "snapshot checksum" });
    }
    let (payload, crc_bytes) = payload.split_at(payload.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(payload) != stored {
        return Err(CorruptError { context: "snapshot checksum" });
    }

    let mut r = ByteReader::new(payload);
    let cfg = read_config(&mut r)?;
    let n = read_u32(&mut r, "graph vertex count")?;
    // A counting pass sizes the CSR arrays exactly; the rows are stored in
    // ascending order, so the second pass writes them where they belong.
    let mut count = ByteReader::new(&payload[r.position()..]);
    let mut num_edges = 0u64;
    for _ in 0..n {
        let degree = count.varint("vertex degree")?;
        for _ in 0..degree {
            count.varint("neighbour gap")?;
        }
        num_edges += degree;
    }
    let mut offsets = Vec::with_capacity(n as usize + 1);
    let mut targets = Vec::with_capacity(num_edges as usize);
    offsets.push(0);
    for _ in 0..n {
        let degree = r.varint("vertex degree")?;
        let mut prev = 0u64;
        for _ in 0..degree {
            prev = prev.saturating_add(r.varint("neighbour gap")?);
            targets.push(
                VertexId::try_from(prev)
                    .map_err(|_| CorruptError { context: "neighbour id" })?,
            );
        }
        offsets.push(targets.len() as u64);
    }
    // An id past the vertex count, a repeated neighbour or a self-loop.
    let graph = DirectedGraph::try_from_csr(offsets, targets)
        .map_err(|_| CorruptError { context: "neighbour id" })?;

    let labels = read_u32_list(&mut r, "labels")?;
    let placement_raw = read_u32_list(&mut r, "placement")?;
    let mut placement = Vec::with_capacity(placement_raw.len());
    for p in placement_raw {
        placement.push(u16::try_from(p).map_err(|_| CorruptError { context: "worker id" })?);
    }
    let label_assignment = match r.u8("assignment tag")? {
        0 => None,
        1 => {
            let raw = read_u32_list(&mut r, "label assignment")?;
            let mut assignment = Vec::with_capacity(raw.len());
            for a in raw {
                assignment
                    .push(u16::try_from(a).map_err(|_| CorruptError { context: "worker id" })?);
            }
            Some(assignment)
        }
        _ => return Err(CorruptError { context: "assignment tag" }),
    };
    let window_count = r.varint("window count")?;
    let mut windows = Vec::new();
    for _ in 0..window_count {
        windows.push(WindowReport::from_parts(read_report(&mut r)?));
    }
    if !r.is_exhausted() {
        return Err(CorruptError { context: "snapshot trailing bytes" });
    }
    Ok(SessionState { cfg, graph, labels, placement, label_assignment, windows })
}

fn read_u32_list(r: &mut ByteReader<'_>, context: &'static str) -> Result<Vec<u32>> {
    let len = r.varint(context)?;
    let mut out = Vec::with_capacity(len.min(1 << 24) as usize);
    for _ in 0..len {
        out.push(u32::try_from(r.varint(context)?).map_err(|_| CorruptError { context })?);
    }
    Ok(out)
}

fn put_config(w: &mut ByteWriter, cfg: &SpinnerConfig) {
    w.put_varint(u64::from(cfg.k));
    w.put_f64(cfg.c);
    w.put_f64(cfg.epsilon);
    w.put_varint(u64::from(cfg.window));
    w.put_varint(u64::from(cfg.max_iterations));
    w.put_u8(u8::from(cfg.ignore_halting));
    w.put_varint(cfg.seed);
    w.put_varint(cfg.num_workers as u64);
    w.put_varint(cfg.num_threads as u64);
    w.put_u8(u8::from(cfg.async_worker_loads));
    w.put_u8(u8::from(cfg.balance_penalty));
    w.put_u8(u8::from(cfg.probabilistic_migration));
    w.put_u8(u8::from(cfg.in_engine_conversion));
    w.put_u8(match cfg.objective {
        BalanceObjective::Edges => 0,
        BalanceObjective::Vertices => 1,
    });
    match &cfg.capacity_weights {
        None => w.put_u8(0),
        Some(weights) => {
            w.put_u8(1);
            w.put_varint(weights.len() as u64);
            for &weight in weights {
                w.put_f64(weight);
            }
        }
    }
    match cfg.placement_feedback {
        None => w.put_u8(0),
        Some(threshold) => {
            w.put_u8(1);
            w.put_f64(threshold);
        }
    }
    w.put_u8(u8::from(cfg.broadcast_fabric));
    w.put_u8(u8::from(cfg.exhaustive_candidate_scan));
    w.put_u8(u8::from(cfg.work_stealing));
    w.put_varint(cfg.steal_chunk as u64);
    w.put_u8(u8::from(cfg.dense_scan));
    w.put_u8(match cfg.transport {
        TransportKind::Direct => 0,
        TransportKind::Ring => 1,
    });
    w.put_u8(match cfg.wire_format {
        WireFormat::Raw => 0,
        WireFormat::Compact => 1,
    });
    w.put_u8(u8::from(cfg.sender_fold));
    w.put_varint(u64::from(cfg.transport_retry.max_retransmits));
    w.put_varint(cfg.transport_retry.backoff_base.as_micros() as u64);
    w.put_varint(cfg.transport_retry.take_deadline.as_millis() as u64);
}

fn read_config(r: &mut ByteReader<'_>) -> Result<SpinnerConfig> {
    let k = u32::try_from(r.varint("config k")?)
        .ok()
        .filter(|&k| k >= 1)
        .ok_or(CorruptError { context: "config k" })?;
    let mut cfg = SpinnerConfig::new(k);
    cfg.c = r.f64("config c")?;
    cfg.epsilon = r.f64("config epsilon")?;
    cfg.window = read_u32(r, "config window")?;
    cfg.max_iterations = read_u32(r, "config max_iterations")?;
    cfg.ignore_halting = read_bool(r, "config ignore_halting")?;
    cfg.seed = r.varint("config seed")?;
    cfg.num_workers = read_count(r, "config num_workers")?;
    cfg.num_threads = read_count(r, "config num_threads")?;
    cfg.async_worker_loads = read_bool(r, "config async_worker_loads")?;
    cfg.balance_penalty = read_bool(r, "config balance_penalty")?;
    cfg.probabilistic_migration = read_bool(r, "config probabilistic_migration")?;
    cfg.in_engine_conversion = read_bool(r, "config in_engine_conversion")?;
    cfg.objective = match r.u8("config objective")? {
        0 => BalanceObjective::Edges,
        1 => BalanceObjective::Vertices,
        _ => return Err(CorruptError { context: "config objective" }),
    };
    cfg.capacity_weights = match r.u8("config capacity tag")? {
        0 => None,
        1 => {
            let len = r.varint("config capacity len")?;
            let mut weights = Vec::with_capacity(len.min(1 << 16) as usize);
            for _ in 0..len {
                weights.push(r.f64("config capacity weight")?);
            }
            Some(weights)
        }
        _ => return Err(CorruptError { context: "config capacity tag" }),
    };
    cfg.placement_feedback = match r.u8("config feedback tag")? {
        0 => None,
        1 => Some(r.f64("config feedback threshold")?),
        _ => return Err(CorruptError { context: "config feedback tag" }),
    };
    cfg.broadcast_fabric = read_bool(r, "config broadcast_fabric")?;
    cfg.exhaustive_candidate_scan = read_bool(r, "config exhaustive_candidate_scan")?;
    cfg.work_stealing = read_bool(r, "config work_stealing")?;
    cfg.steal_chunk = usize::try_from(r.varint("config steal_chunk")?)
        .map_err(|_| CorruptError { context: "config steal_chunk" })?;
    cfg.dense_scan = read_bool(r, "config dense_scan")?;
    cfg.transport = match r.u8("config transport")? {
        0 => TransportKind::Direct,
        1 => TransportKind::Ring,
        _ => return Err(CorruptError { context: "config transport" }),
    };
    cfg.wire_format = match r.u8("config wire_format")? {
        0 => WireFormat::Raw,
        1 => WireFormat::Compact,
        _ => return Err(CorruptError { context: "config wire_format" }),
    };
    cfg.sender_fold = read_bool(r, "config sender_fold")?;
    cfg.transport_retry = RetryConfig {
        max_retransmits: read_u32(r, "config retry max_retransmits")?,
        backoff_base: Duration::from_micros(r.varint("config retry backoff_base")?),
        take_deadline: Duration::from_millis(r.varint("config retry take_deadline")?),
    };
    Ok(cfg)
}

fn read_u32(r: &mut ByteReader<'_>, context: &'static str) -> Result<u32> {
    u32::try_from(r.varint(context)?).map_err(|_| CorruptError { context })
}

/// Reads a worker/thread count: 1..=2^16 (worker ids are `u16`). Keeps a
/// corrupt-but-CRC-valid snapshot from panicking downstream (e.g. in
/// `Placement::explicit`'s asserts) or allocating per a huge bogus count.
fn read_count(r: &mut ByteReader<'_>, context: &'static str) -> Result<usize> {
    let raw = r.varint(context)?;
    if !(1..=1 << 16).contains(&raw) {
        return Err(CorruptError { context });
    }
    Ok(raw as usize)
}

fn read_bool(r: &mut ByteReader<'_>, context: &'static str) -> Result<bool> {
    match r.u8(context)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CorruptError { context }),
    }
}

/// Appends one [`WindowReportParts`] (shared by snapshot and WAL records).
pub(crate) fn put_report(w: &mut ByteWriter, parts: &WindowReportParts) {
    w.put_varint(u64::from(parts.window));
    w.put_varint(u64::from(parts.k));
    w.put_varint(u64::from(parts.num_vertices));
    w.put_varint(parts.num_edges);
    w.put_f64(parts.phi);
    w.put_f64(parts.rho);
    w.put_f64(parts.migration_fraction);
    w.put_varint(u64::from(parts.iterations));
    w.put_varint(parts.supersteps);
    w.put_varint(parts.messages);
    w.put_varint(parts.sent_local);
    w.put_varint(parts.sent_remote);
    w.put_varint(parts.sent_local_records);
    w.put_varint(parts.sent_remote_records);
    w.put_varint(parts.placement_moved);
    w.put_varint(parts.computed);
    w.put_varint(parts.wall_ns);
    w.put_varint(parts.fabric_reallocs);
    w.put_varint(parts.lost_vertices);
    w.put_varint(parts.wire_bytes);
    w.put_varint(parts.wire_frames);
    w.put_varint(parts.wire_folded);
    w.put_varint(parts.retransmits);
    w.put_varint(parts.lanes_degraded);
    w.put_varint(parts.lanes_dead);
}

/// Reads one [`WindowReportParts`] appended by [`put_report`].
pub(crate) fn read_report(r: &mut ByteReader<'_>) -> Result<WindowReportParts> {
    Ok(WindowReportParts {
        window: read_u32(r, "report window")?,
        k: read_u32(r, "report k")?,
        num_vertices: read_u32(r, "report num_vertices")?,
        num_edges: r.varint("report num_edges")?,
        phi: r.f64("report phi")?,
        rho: r.f64("report rho")?,
        migration_fraction: r.f64("report migration_fraction")?,
        iterations: read_u32(r, "report iterations")?,
        supersteps: r.varint("report supersteps")?,
        messages: r.varint("report messages")?,
        sent_local: r.varint("report sent_local")?,
        sent_remote: r.varint("report sent_remote")?,
        sent_local_records: r.varint("report sent_local_records")?,
        sent_remote_records: r.varint("report sent_remote_records")?,
        placement_moved: r.varint("report placement_moved")?,
        computed: r.varint("report computed")?,
        wall_ns: r.varint("report wall_ns")?,
        fabric_reallocs: r.varint("report fabric_reallocs")?,
        lost_vertices: r.varint("report lost_vertices")?,
        wire_bytes: r.varint("report wire_bytes")?,
        wire_frames: r.varint("report wire_frames")?,
        wire_folded: r.varint("report wire_folded")?,
        retransmits: r.varint("report retransmits")?,
        lanes_degraded: r.varint("report lanes_degraded")?,
        lanes_dead: r.varint("report lanes_dead")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_core::{StreamEvent, StreamSession};
    use spinner_graph::generators::{planted_partition, SbmConfig};
    use spinner_graph::{GraphBuilder, GraphDelta};

    fn sample_state() -> SessionState {
        let graph = planted_partition(SbmConfig {
            n: 400,
            communities: 4,
            internal_degree: 6.0,
            external_degree: 1.0,
            skew: None,
            seed: 11,
        });
        let mut cfg = SpinnerConfig::new(4).with_seed(5).with_placement_feedback(0.5);
        cfg.num_workers = 4;
        cfg.max_iterations = 40;
        let mut session = StreamSession::new(graph, cfg);
        session.apply(StreamEvent::Delta(GraphDelta::additions(vec![(0, 200), (1, 399)])));
        session.state()
    }

    #[test]
    fn snapshot_round_trips_bit_identical() {
        let state = sample_state();
        let bytes = encode_state(&state);
        let decoded = decode_state(&bytes).expect("decodes");
        assert_eq!(decoded.labels, state.labels);
        assert_eq!(decoded.placement, state.placement);
        assert_eq!(decoded.label_assignment, state.label_assignment);
        assert_eq!(decoded.windows, state.windows);
        assert_eq!(decoded.graph.num_vertices(), state.graph.num_vertices());
        assert_eq!(decoded.graph.num_edges(), state.graph.num_edges());
        let edges_a: Vec<_> = state.graph.edges().collect();
        let edges_b: Vec<_> = decoded.graph.edges().collect();
        assert_eq!(edges_a, edges_b);
        assert_eq!(decoded.cfg.k, state.cfg.k);
        assert_eq!(decoded.cfg.seed, state.cfg.seed);
        assert_eq!(decoded.cfg.placement_feedback, state.cfg.placement_feedback);
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut bytes = encode_state(&sample_state());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(decode_state(&bytes).is_err(), "checksum missed a flipped bit");
    }

    #[test]
    fn out_of_range_config_counts_are_corrupt_not_panics() {
        for workers in [0usize, (1 << 16) + 1] {
            let mut state = sample_state();
            state.cfg.num_workers = workers;
            let bytes = encode_state(&state);
            let err = decode_state(&bytes).expect_err("bogus num_workers must not decode");
            assert!(format!("{err}").contains("num_workers"), "unexpected error: {err}");
        }
        let mut state = sample_state();
        state.cfg.num_threads = 0;
        assert!(decode_state(&encode_state(&state)).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_state(&sample_state());
        assert!(decode_state(&bytes[..bytes.len() - 9]).is_err());
        assert!(decode_state(&bytes[..4]).is_err());
    }

    /// The graph section of [`tiny_state`]: 3 vertices, degree + gaps each.
    const TINY_GRAPH: [u8; 6] = [3, 1, 1, 1, 2, 0];

    /// A state whose graph encodes as [`TINY_GRAPH`] and whose one report
    /// starts `window, k, num_vertices, num_edges` (one byte each), then
    /// three 8-byte floats, then `iterations` at byte 28.
    fn tiny_state() -> SessionState {
        let report = WindowReportParts {
            window: 0,
            k: 2,
            num_vertices: 3,
            num_edges: 2,
            phi: 0.5,
            rho: 1.02,
            migration_fraction: 1.0,
            iterations: 5,
            supersteps: 10,
            messages: 9,
            sent_local: 5,
            sent_remote: 4,
            sent_local_records: 5,
            sent_remote_records: 3,
            placement_moved: 1,
            computed: 17,
            wall_ns: 123_456,
            fabric_reallocs: 2,
            lost_vertices: 1,
            wire_bytes: 77,
            wire_frames: 6,
            wire_folded: 1,
            retransmits: 1,
            lanes_degraded: 1,
            lanes_dead: 0,
        };
        SessionState {
            cfg: SpinnerConfig { num_threads: 1, ..SpinnerConfig::new(2) },
            graph: GraphBuilder::new(3).add_edges([(0, 1), (1, 2)]).build(),
            labels: vec![0, 1, 0],
            placement: vec![0, 0, 0],
            label_assignment: None,
            windows: vec![WindowReport::from_parts(report)],
        }
    }

    /// The format version and an FNV-1a digest of [`tiny_state`]'s snapshot.
    const TINY_SNAPSHOT: (&[u8; 8], u64) = (b"SPNRSNP8", 0x305a_3e27_e66f_b148);

    /// A layout change that keeps the magic fails here, not at a resume of
    /// a store an older build wrote.
    #[test]
    fn snapshot_bytes_are_pinned_to_their_magic() {
        let digest =
            encode_state(&tiny_state()).iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(
            (SNAPSHOT_MAGIC, digest),
            TINY_SNAPSHOT,
            "format changed: bump SNAPSHOT_MAGIC and re-pin (digest {digest:#018x})"
        );
    }

    /// Splits `state`'s snapshot payload into (config, graph, rest).
    fn payload_sections(state: &SessionState) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let bytes = encode_state(state);
        let payload = &bytes[SNAPSHOT_MAGIC.len()..bytes.len() - 4];
        let mut config = ByteWriter::new();
        put_config(&mut config, &state.cfg);
        let start = config.into_bytes().len();
        let end = start + TINY_GRAPH.len();
        assert_eq!(payload[start..end], TINY_GRAPH);
        (payload[..start].to_vec(), payload[start..end].to_vec(), payload[end..].to_vec())
    }

    /// A hand-edited payload framed as a snapshot with a valid checksum.
    fn reframe(sections: &[&[u8]]) -> Vec<u8> {
        let payload = sections.concat();
        [SNAPSHOT_MAGIC.as_slice(), &payload, &crc32(&payload).to_le_bytes()].concat()
    }

    fn varint(value: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_varint(value);
        w.into_bytes()
    }

    #[test]
    fn neighbour_ids_outside_the_vertex_set_are_corrupt() {
        let (config, graph, rest) = payload_sections(&tiny_state());
        let genuine = decode_state(&reframe(&[&config, &graph, &rest])).expect("unedited");
        assert_eq!(genuine.graph.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 2)]);
        let far = [[3, 1, 1, 1].as_slice(), &varint(u64::from(u32::MAX)), &[0]].concat();
        let beyond_u32 = [[3, 1, 1, 1].as_slice(), &varint(1 << 32), &[0]].concat();
        // Vertex 1's only neighbour: id 3 == n, id u32::MAX, id 2^32; vertex
        // 1 naming neighbour 2 twice; vertex 1 naming itself.
        let repeated = vec![3, 1, 1, 2, 2, 0, 0];
        let itself = vec![3, 1, 1, 1, 1, 0];
        for graph in [vec![3, 1, 1, 1, 3, 0], far, beyond_u32, repeated, itself] {
            let err = decode_state(&reframe(&[&config, &graph, &rest])).unwrap_err();
            assert_eq!(err.context, "neighbour id");
        }
    }

    #[test]
    fn vertex_count_beyond_u32_is_corrupt_not_truncated() {
        let (config, graph, rest) = payload_sections(&tiny_state());
        let count = [varint((1 << 32) + 3).as_slice(), &graph[1..]].concat();
        let err = decode_state(&reframe(&[&config, &count, &rest])).unwrap_err();
        assert_eq!(err.context, "graph vertex count");
    }

    #[test]
    fn report_counts_beyond_u32_are_corrupt_not_truncated() {
        let state = tiny_state();
        let (config, graph, rest) = payload_sections(&state);
        let mut w = ByteWriter::new();
        put_report(&mut w, &state.windows[0].to_parts());
        let report = w.into_bytes();
        let head = &rest[..rest.len() - report.len()];
        assert_eq!((report[0], report[1], report[2], report[28]), (0, 2, 3, 5));
        for (at, context) in [
            (0, "report window"),
            (1, "report k"),
            (2, "report num_vertices"),
            (28, "report iterations"),
        ] {
            let mut edited = report.clone();
            edited.splice(at..at + 1, varint(1 << 32));
            let err = decode_state(&reframe(&[&config, &graph, head, &edited])).unwrap_err();
            assert_eq!(err.context, context);
        }
    }
}
