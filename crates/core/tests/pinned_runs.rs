//! Pinned 64-bit digests of whole Spinner runs.
//!
//! Each row pins two digests. The *decision* digest covers what a run
//! decides: its labels, per-iteration φ, ρ and migrations, iteration count
//! and final φ and ρ (per session window also k and the migration
//! fraction). The *count* digest covers what the run cost in engine rounds:
//! its superstep count and message total. Both leave out `computed` (how
//! many vertex visits it took) and `score` (the halting heuristic's
//! aggregate). A change that only makes runs cheaper keeps every decision
//! digest, and re-pins only the count digests whose runs it made cheaper.
//! Rows whose run has a fixed iteration count (`ignore_halting`) pin labels
//! outright; rows that halt by the ε/w rule also pin where it lands.
//!
//! On a mismatch the test prints every row's actual digests, so a declared
//! behaviour change re-pins by copying them.

use spinner_core::{partition, PartitionResult, SpinnerConfig, StreamEvent, StreamSession};
use spinner_graph::conversion::to_weighted_undirected;
use spinner_graph::generators::{planted_partition, rmat, RmatConfig, SbmConfig};
use spinner_graph::{DeltaStream, DeltaStreamConfig, DirectedGraph, GraphDelta};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }
}

/// A row's two digests: what its runs decide, and what they cost in
/// supersteps and messages.
struct Digests {
    decision: Digest,
    count: Digest,
}

impl Digests {
    fn new() -> Self {
        Self { decision: Digest::new(), count: Digest::new() }
    }

    fn pair(&self) -> (u64, u64) {
        (self.decision.0, self.count.0)
    }
}

/// Everything a driver run decides, and its superstep and message counts.
fn run_digest(d: &mut Digests, r: &PartitionResult) {
    d.decision.words(r.labels.iter().map(|&l| u64::from(l)));
    for h in &r.history {
        let words = [u64::from(h.iteration), h.phi.to_bits(), h.rho.to_bits(), h.migrations];
        d.decision.words(words);
    }
    d.decision.word(u64::from(r.iterations));
    d.decision.words([r.quality.phi.to_bits(), r.quality.rho.to_bits()]);
    d.count.words([r.supersteps, r.totals.messages]);
}

/// Every window of a session: its labels and what its report decides, and
/// its superstep and message counts.
fn session_digest(d: &mut Digests, session: &mut StreamSession, events: Vec<StreamEvent>) {
    for event in events {
        let w = session.apply(event).clone();
        d.decision.words(session.labels().iter().map(|&l| u64::from(l)));
        d.decision.words([
            u64::from(w.k()),
            w.phi().to_bits(),
            w.rho().to_bits(),
            w.migration_fraction().to_bits(),
            u64::from(w.iterations()),
        ]);
        d.count.words([w.supersteps(), w.messages()]);
    }
}

fn sbm(n: u32, communities: u32, internal: f64, external: f64, seed: u64) -> DirectedGraph {
    planted_partition(SbmConfig {
        n,
        communities,
        internal_degree: internal,
        external_degree: external,
        skew: None,
        seed,
    })
}

fn fixed(k: u32, workers: usize, threads: usize, iterations: u32, seed: u64) -> SpinnerConfig {
    let mut cfg = SpinnerConfig::new(k).with_seed(seed);
    cfg.num_workers = workers;
    cfg.num_threads = threads;
    cfg.max_iterations = iterations;
    cfg.ignore_halting = true;
    cfg
}

fn deltas(base: &DirectedGraph, windows: u32, seed: u64) -> Vec<GraphDelta> {
    let cfg = DeltaStreamConfig { windows, seed, ..DeltaStreamConfig::default() };
    DeltaStream::new(base.clone(), cfg).collect()
}

/// Delta windows with one resize to `k + 2` after the second.
fn chain(base: &DirectedGraph, k: u32, seed: u64) -> Vec<StreamEvent> {
    let mut events: Vec<StreamEvent> =
        deltas(base, 5, seed).into_iter().map(StreamEvent::Delta).collect();
    events.insert(2, StreamEvent::Resize { k: k + 2 });
    events
}

fn cold_sbm_fixed() -> (u64, u64) {
    let g = to_weighted_undirected(&sbm(1200, 12, 8.0, 2.0, 5));
    let mut d = Digests::new();
    run_digest(&mut d, &partition(&g, &fixed(8, 4, 2, 24, 11)));
    d.pair()
}

fn cold_rmat_isolated_fixed() -> (u64, u64) {
    let g = to_weighted_undirected(&rmat(RmatConfig::graph500(10, 3, 9)));
    assert!((0..g.num_vertices()).any(|v| g.weighted_degree(v) == 0), "an isolated vertex");
    let mut d = Digests::new();
    run_digest(&mut d, &partition(&g, &fixed(6, 3, 1, 20, 12)));
    d.pair()
}

fn cold_sbm_halting() -> (u64, u64) {
    let g = to_weighted_undirected(&sbm(1500, 10, 9.0, 2.0, 6));
    let mut cfg = SpinnerConfig::new(6).with_seed(13);
    cfg.num_workers = 4;
    cfg.num_threads = 1;
    let r = partition(&g, &cfg);
    assert!(r.halted_steady, "the ε/w rule halts this run");
    let mut d = Digests::new();
    run_digest(&mut d, &r);
    d.pair()
}

fn stream_chain_halting() -> (u64, u64) {
    let base = sbm(1500, 25, 12.0, 4.0, 7);
    let mut cfg = SpinnerConfig::new(6).with_seed(14);
    cfg.num_workers = 4;
    cfg.num_threads = 1;
    let events = chain(&base, 6, 14);
    let mut session = StreamSession::new(base, cfg);
    let mut d = Digests::new();
    session_digest(&mut d, &mut session, events);
    d.pair()
}

fn stream_chain_fixed() -> (u64, u64) {
    let base = sbm(1200, 20, 12.0, 4.0, 8);
    let cfg = fixed(5, 3, 1, 10, 15);
    let events = chain(&base, 5, 15);
    let mut session = StreamSession::new(base, cfg);
    let mut d = Digests::new();
    session_digest(&mut d, &mut session, events);
    d.pair()
}

fn cold_sync_fixed() -> (u64, u64) {
    let g = to_weighted_undirected(&sbm(1200, 12, 8.0, 2.0, 9));
    let mut cfg = fixed(8, 4, 2, 24, 16);
    cfg.async_worker_loads = false;
    let mut d = Digests::new();
    run_digest(&mut d, &partition(&g, &cfg));
    d.pair()
}

fn cold_exhaustive_fixed() -> (u64, u64) {
    let g = to_weighted_undirected(&rmat(RmatConfig::graph500(10, 3, 10)));
    let mut cfg = fixed(6, 3, 1, 20, 17);
    cfg.exhaustive_candidate_scan = true;
    let mut d = Digests::new();
    run_digest(&mut d, &partition(&g, &cfg));
    d.pair()
}

/// Many small, tightly balanced runs on one or two workers: every
/// candidacy moves a large share of a partition's capacity, so the
/// asynchronous load view strays far from the global loads within a
/// superstep, and penalties drift far between iterations.
fn small_tight_sweep() -> (u64, u64) {
    let mut d = Digests::new();
    for seed in 0..24u64 {
        let g = to_weighted_undirected(&sbm(160, 4, 6.0, 3.0, 100 + seed));
        let k = 2 + (seed % 3) as u32;
        let mut cfg = fixed(k, 1 + (seed % 2) as usize, 1, 30, seed);
        cfg.c = if seed % 4 < 2 { 1.02 } else { 1.1 };
        cfg.async_worker_loads = seed % 5 != 0;
        run_digest(&mut d, &partition(&g, &cfg));
    }
    d.pair()
}

/// Small sessions through delta and resize windows with fixed iterations.
fn small_stream_sweep() -> (u64, u64) {
    let mut d = Digests::new();
    for seed in 0..6u64 {
        let base = sbm(240, 6, 6.0, 2.0, 200 + seed);
        let k = 3 + (seed % 2) as u32;
        let mut cfg = fixed(k, 1 + (seed % 3) as usize, 1, 12, seed);
        cfg.c = 1.03;
        cfg.async_worker_loads = seed % 3 != 2;
        let events = chain(&base, k, seed);
        let mut session = StreamSession::new(base, cfg);
        session_digest(&mut d, &mut session, events);
    }
    d.pair()
}

/// A row: its name, its run, and the decision and count digests pinned
/// for it.
type Row = (&'static str, fn() -> (u64, u64), u64, u64);

#[test]
fn pinned_run_digests() {
    let rows: [Row; 9] = [
        ("cold_sbm_fixed", cold_sbm_fixed, 0x3831_312f_d7b5_7f5d, 0x0dd3_3698_abc8_f50e),
        (
            "cold_rmat_isolated_fixed",
            cold_rmat_isolated_fixed,
            0xe870_5db2_1d35_b914,
            0xf80d_6ad6_ac31_c300,
        ),
        ("cold_sbm_halting", cold_sbm_halting, 0x5646_5a97_2ccc_86e6, 0x258e_d65e_7bb4_7018),
        (
            "stream_chain_halting",
            stream_chain_halting,
            0x296d_2860_7b30_848f,
            0xb0eb_1f96_32dd_952d,
        ),
        (
            "stream_chain_fixed",
            stream_chain_fixed,
            0xb1f1_807c_eded_8489,
            0x6ef3_9534_737d_6cf9,
        ),
        ("cold_sync_fixed", cold_sync_fixed, 0x7bed_101b_3af1_8d26, 0x199f_d47c_eadb_897f),
        (
            "cold_exhaustive_fixed",
            cold_exhaustive_fixed,
            0xa82b_d83c_09f0_f1be,
            0x0041_24f6_29c9_d918,
        ),
        ("small_tight_sweep", small_tight_sweep, 0x955f_c772_3590_2036, 0x2d3e_cdd5_6461_c843),
        (
            "small_stream_sweep",
            small_stream_sweep,
            0xe19f_c4b0_36fc_401c,
            0xc8fc_18b9_831a_8f01,
        ),
    ];
    let mut bad = Vec::new();
    for (name, run, decision, count) in rows {
        let (got_decision, got_count) = run();
        println!("(\"{name}\", {name}, {got_decision:#018x}, {got_count:#018x}),");
        if got_decision != decision {
            bad.push(format!("{name}: decision {got_decision:#018x}, pinned {decision:#018x}"));
        }
        if got_count != count {
            bad.push(format!("{name}: count {got_count:#018x}, pinned {count:#018x}"));
        }
    }
    assert!(bad.is_empty(), "pinned digests differ:\n{}", bad.join("\n"));
}
