//! The benchmark's vocabulary: every workload and metric name, with its unit.
//! `BENCHMARK.json` at the repo root lists the same names; a unit test keeps
//! the two in step.

/// `(name, unit)`.
pub type Metric = (&'static str, &'static str);

/// Workload names, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] =
    ["cold_community", "cold_skew_wire", "stream_churn", "serve_lookup"];

/// What a user of the system sees; every workload reports all of them from
/// the untraced run.
pub const END_TO_END: [Metric; 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("phi", "ratio"),
    ("rho", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Single-layer numbers from the `--trace` run. A workload that does not
/// drive a layer reports 0 for that layer's metrics — which is the "must not
/// move" column of the layer table in README.md.
pub const PER_LAYER: [Metric; 73] = [
    // graph: generators, conversion, delta sampling and application.
    ("graph.generate.ms", "ms"),
    ("graph.convert.ms", "ms"),
    ("graph.delta_sample.ms", "ms"),
    ("graph.vertices", "count"),
    ("graph.edges", "count"),
    ("graph.apply_delta.ms", "ms"),
    // metrics: scoring the final labels.
    ("metrics.quality.ms", "ms"),
    // pregel: the engine.
    ("pregel.engine_run.ms", "ms"),
    ("pregel.engine_build.ms", "ms"),
    ("pregel.placement.ms", "ms"),
    ("pregel.collect_values.ms", "ms"),
    ("pregel.supersteps", "count"),
    ("pregel.computed_vertices", "count"),
    ("pregel.messages", "count"),
    ("pregel.remote_messages", "count"),
    ("pregel.remote_records", "count"),
    ("pregel.ns_per_computed_vertex", "ns"),
    ("pregel.ns_per_message", "ns"),
    ("pregel.compute_share", "ratio"),
    ("pregel.noncompute.ms", "ms"),
    ("pregel.superstep_wall.p50_us", "us"),
    ("pregel.superstep_wall.max_us", "us"),
    ("pregel.fabric_reallocs", "count"),
    // pregel: the thread pool.
    ("pregel.worker_skew", "ratio"),
    ("pregel.engine_run_1thread.ms", "ms"),
    ("pregel.parallel_efficiency", "ratio"),
    // pregel: the wire path.
    ("pregel.wire_bytes", "count"),
    ("pregel.wire_frames", "count"),
    ("pregel.wire_folded", "count"),
    ("pregel.wire_bytes_per_remote_message", "ratio"),
    ("pregel.retransmits", "count"),
    ("pregel.wire_encode.ns_per_record", "ns"),
    ("pregel.wire_decode.ns_per_record", "ns"),
    ("pregel.wire_overhead.ms", "ms"),
    // core: the one-shot driver.
    ("core.partition.ms", "ms"),
    ("core.partition.self_ms", "ms"),
    ("core.partition.first_ms", "ms"),
    ("core.random_labels.ms", "ms"),
    ("core.iterations", "count"),
    // core: the streaming session.
    ("core.session_new.ms", "ms"),
    ("core.from_state.ms", "ms"),
    ("core.apply_delta.ms", "ms"),
    ("core.apply_delta.self_ms", "ms"),
    ("core.apply_resize.ms", "ms"),
    ("core.state_clone.ms", "ms"),
    ("core.migration_fraction", "ratio"),
    ("core.active_fraction", "ratio"),
    ("core.window_supersteps", "count"),
    ("core.window_messages", "count"),
    // serving: the ingest path.
    ("serving.ingest.ms", "ms"),
    ("serving.ingest.self_ms", "ms"),
    ("serving.wal_diff.ms", "ms"),
    ("serving.wal_encode.ms", "ms"),
    ("serving.wal_append.ms", "ms"),
    ("serving.wal_bytes_per_window", "count"),
    ("serving.snapshot_encode.ms", "ms"),
    ("serving.snapshot_bytes", "count"),
    ("serving.compact.ms", "ms"),
    ("serving.resume.ms", "ms"),
    ("serving.persist_retries", "count"),
    // serving: the routing table, written and read.
    ("serving.publish.ms", "ms"),
    ("serving.publish_late", "count"),
    ("serving.publish_lateness.p50_ms", "ms"),
    ("serving.seqlock_retries", "count"),
    ("serving.routing_reallocs", "count"),
    ("serving.staleness_max_epochs", "count"),
    ("serving.lookup.ns", "ns"),
    ("serving.lookup_batch.p99_us", "us"),
    ("serving.lookups_per_s", "1/s"),
    ("serving.lookup_quiescent.ns", "ns"),
    ("serving.churn_drop_pct", "pct"),
    // the harness itself.
    ("bench.trace_overhead_pct", "pct"),
    ("bench.unattributed_pct", "pct"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The `"name"`/`"unit"` pairs of the objects in top-level array `key`
    /// of `BENCHMARK.json`. The file is flat enough — arrays of one-level
    /// objects with string values — that a scan does for a parser.
    fn entries(json: &str, key: &str) -> Vec<(String, String)> {
        let at = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
        let open = at + json[at..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        let field = |obj: &str, name: &str| -> String {
            let Some(at) = obj.find(&format!("\"{name}\"")) else { return String::new() };
            let rest = &obj[at + name.len() + 2..];
            let start = rest.find('"').expect("string value") + 1;
            let end = start + rest[start..].find('"').expect("string ends");
            rest[start..end].to_string()
        };
        json[open + 1..close]
            .split('}')
            .filter(|obj| obj.contains("\"name\""))
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0))
            .collect();
        for name in &all {
            assert!(well_formed(name), "bad name {name:?}");
        }
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "a name repeats");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?} on {name}"
            );
        }
    }

    #[test]
    fn every_printed_name_is_in_benchmark_json_and_back() {
        let json = benchmark_json();
        let workloads: Vec<String> =
            entries(&json, "workloads").into_iter().map(|(name, _)| name).collect();
        assert_eq!(workloads, WORKLOADS);
        let as_pairs = |table: &[Metric]| -> Vec<(String, String)> {
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(entries(&json, "end_to_end"), as_pairs(&END_TO_END));
        assert_eq!(entries(&json, "per_layer"), as_pairs(&PER_LAYER));
    }

    #[test]
    fn the_scan_reads_names_and_units() {
        let json = r#"{"workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
            "end_to_end": [{"name": "t", "unit": "ms", "better": "lower", "bound": 0.1}]}"#;
        assert_eq!(
            entries(json, "workloads"),
            [("a".to_string(), String::new()), ("b".to_string(), String::new())]
        );
        assert_eq!(entries(json, "end_to_end"), [("t".to_string(), "ms".to_string())]);
    }
}
