//! The repo benchmark: four workloads over the public entry points of the
//! Spinner workspace, six end-to-end metrics per workload from an untraced
//! run, and per-layer metrics from a separate `--trace` run in which the
//! benchmark re-assembles each entry point from the public functions beneath
//! it. See `README.md` beside this package for the layer table.

pub mod cold;
pub mod names;
pub mod report;
pub mod serve;
pub mod stats;
pub mod stream;
pub mod trace;

use report::{Args, Outcome};

/// A trace file may not exceed this: spans are per op and per interval,
/// never per lookup batch.
const MAX_TRACE_BYTES: usize = 1 << 20;

/// Writes `out/trace-<workload>.json`, failing the run if it cannot or if
/// the file is over the size cap.
pub(crate) fn write_trace(out: &mut Outcome, args: &Args, workload: &str, json: &str) {
    let path = args.out_dir.join(format!("trace-{workload}.json"));
    if json.len() > MAX_TRACE_BYTES {
        out.error(format!("trace is {} bytes, over the {MAX_TRACE_BYTES} cap", json.len()));
    }
    let written =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, json));
    if let Err(e) = written {
        out.error(format!("cannot write {}: {e}", path.display()));
    }
    out.notes.push(("trace_file", format!("{} ({} bytes)", path.display(), json.len())));
}

/// Runs one workload by name; `None` for a name that is not a workload.
pub fn run_workload(name: &str, args: &Args) -> Option<Outcome> {
    Some(match name {
        "cold_community" => cold::run(name, &cold::COMMUNITY, args),
        "cold_skew_wire" => cold::run(name, &cold::SKEW_WIRE, args),
        "stream_churn" => stream::run(name, args),
        "serve_lookup" => serve::run(name, args),
        _ => return None,
    })
}
