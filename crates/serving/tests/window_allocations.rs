//! What a serving node's stream windows allocate, counted by a global
//! allocator that keeps one tally per thread (the engine runs on the
//! calling thread, `num_threads = 1`):
//!
//! - once two delta windows have sized the session's recycled buffers, no
//!   delta window allocates or reallocates a block of
//!   `num_adjacency_entries / 8` bytes or more: nothing a steady window
//!   allocates scales with |E|;
//! - resuming a node from its store allocates less than one
//!   `stages::build_engine` of the same session, because the resumed
//!   session builds its engine at its first ingest, not at the resume.
//!
//! Debug builds re-check every patched window against a full reload, which
//! allocates whole copies of the topology, so the window count runs in
//! release: `cargo test --release -p spinner-serving --test
//! window_allocations`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use spinner_core::driver::stages;
use spinner_core::{SpinnerConfig, StreamEvent, StreamSession};
use spinner_graph::generators::{planted_partition, SbmConfig};
use spinner_graph::{DeltaStream, DeltaStreamConfig, GraphDelta};
use spinner_serving::{Health, ServingNode};

/// The system allocator, tallying on each thread the bytes it hands out
/// (a reallocation counts its new size) and the largest single block.
struct Counting;

thread_local! {
    static TALLY: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

fn note(size: usize) {
    // A thread being torn down has no tally left; its blocks go uncounted.
    let _ = TALLY.try_with(|t| {
        let (bytes, largest) = t.get();
        t.set((bytes + size as u64, largest.max(size)));
    });
}

// A global allocator is an `unsafe` trait; this one is the only unsafe code
// in the workspace, allowed here alone.
// SAFETY: every call is forwarded unchanged to `System`.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the bytes it allocated on this
/// thread and the largest block among them.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    TALLY.with(|t| t.set((0, 0)));
    let out = f();
    let (bytes, largest) = TALLY.with(Cell::get);
    (out, bytes, largest)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("spinner-window-allocations-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A persistent node on a 6 000-vertex community graph — `stream_churn`'s
/// shape at a tenth of its scale: 16 workers on one thread — and `windows`
/// churning delta windows for it.
fn node(dir: &PathBuf, windows: u32) -> (ServingNode, Vec<GraphDelta>) {
    let base = planted_partition(SbmConfig {
        n: 6_000,
        communities: 100,
        internal_degree: 40.0,
        external_degree: 16.0,
        skew: None,
        seed: 7,
    });
    let stream = DeltaStreamConfig { windows, seed: 7, ..DeltaStreamConfig::default() };
    let deltas = DeltaStream::new(base.clone(), stream).collect();
    let mut cfg = SpinnerConfig::new(16).with_seed(7);
    cfg.num_workers = 16;
    cfg.num_threads = 1;
    let node = ServingNode::with_persistence(StreamSession::new(base, cfg), dir);
    (node.expect("create the store"), deltas)
}

fn ingest(node: &mut ServingNode, delta: GraphDelta) {
    let report = node.ingest(StreamEvent::Delta(delta)).expect("ingest");
    assert_eq!(report.health(), Health::Healthy);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds reload every patched window; run in release"
)]
fn steady_delta_windows_allocate_nothing_that_scales_with_the_graph() {
    let dir = scratch_dir("steady");
    let (mut node, deltas) = node(&dir, 6);
    let mut deltas = deltas.into_iter();
    for delta in deltas.by_ref().take(2) {
        ingest(&mut node, delta);
    }
    for (window, delta) in deltas.enumerate() {
        let entries = node.session().undirected().num_adjacency_entries() as usize;
        let ((), bytes, largest) = counted(|| ingest(&mut node, delta));
        assert!(
            largest < entries / 8,
            "window {}: a {largest}-byte block (of {bytes} bytes allocated) against \
             {entries} adjacency entries",
            window + 2
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_resume_allocates_less_than_one_engine_build() {
    let dir = scratch_dir("resume");
    let (mut node, deltas) = node(&dir, 3);
    for delta in deltas {
        ingest(&mut node, delta);
    }
    let s = node.session();
    let (_, build, _) =
        counted(|| stages::build_engine(s.undirected(), s.config(), s.placement(), s.labels()));
    let (resumed, resume, _) = counted(|| ServingNode::resume_from(&dir).expect("resume"));
    let (resumed, _) = resumed;
    assert_eq!(resumed.session().labels(), node.session().labels());
    assert_eq!(resumed.session().placement(), node.session().placement());
    assert!(resume < build, "the resume allocated {resume} bytes, one engine build {build}");
    let _ = std::fs::remove_dir_all(&dir);
}
