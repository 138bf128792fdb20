//! The Spinner vertex program (paper §IV), expressed against the Pregel
//! engine: phases, score maximisation, and decentralised migrations.

use crate::config::{BalanceObjective, RestartScope, SpinnerConfig};
use crate::driver::IterationStats;
use crate::state::{
    sort_by_weight, EdgeState, GlobalState, Label, MigrationMsg, Phase, VertexState,
    WorkerState, NO_LABEL,
};
use spinner_graph::rng::vertex_stream;
use spinner_pregel::aggregate::{AggOp, AggregatorSpec};
use spinner_pregel::program::{MasterContext, Program};
use spinner_pregel::{VertexContext, WorkerId};

/// Aggregator: persistent partition loads b(l) (VecSumI64, length k).
pub const AGG_LOADS: usize = 0;
/// Aggregator: candidate load m(l) per label for Eq. 14 (VecSumI64).
pub const AGG_CANDIDATES: usize = 1;
/// Aggregator: global score Σ_v score''(v, α(v)) (Eq. 10), accumulated in
/// fixed point (see [`SCORE_SCALE`]).
pub const AGG_SCORE: usize = 2;

/// Fixed-point scale for the global score aggregation. Per-vertex scores
/// are rounded to `1/SCORE_SCALE` (2⁻²⁰ ≈ 10⁻⁶) and summed as integers, so
/// the total — unlike an `f64` sum — is independent of summation order and
/// therefore bit-identical across any vertex placement, worker count, or
/// thread count. The quantisation sits three orders of magnitude below the
/// ε = 10⁻³ per-vertex halting threshold. Overflow bound: |score''(v)| ≤
/// 1 + k/c (the worst penalty is a partition holding all load, k/c), so
/// the sum stays within `i64::MAX` while `n · (1 + k/c) < 2⁴³ ≈ 8.8·10¹²`
/// — with the engine's u32 vertex ids (n < 2³²), safe for any `k/c` up to
/// ~2000 even at the maximum vertex count.
pub const SCORE_SCALE: f64 = (1u64 << 20) as f64;

/// A per-vertex score contribution in fixed point.
#[inline]
fn score_fixed(score: f64) -> i64 {
    (score * SCORE_SCALE).round() as i64
}
/// Aggregator: Σ_v (local incident weight) = 2·(local edge weight) (SumI64).
pub const AGG_LOCAL_WEIGHT: usize = 3;
/// Aggregator: number of migrations this superstep (SumI64).
pub const AGG_MIGRATIONS: usize = 4;

/// What one edge of a label-histogram rebuild costs, in units of one
/// histogram entry passed by a per-message shift. A rebuild's per-edge step
/// is a scattered read and write of the k-sized scratch, plus a sort; a
/// shift's per-entry step is a sequential compare (the scan, then the
/// bubble that keeps the weight order). Fitted on the ComputeScores
/// compute time of the benchmark's two graphs (1 thread, 2-vCPU x86 VM,
/// medians of 5 interleaved rounds): against a ratio of 1 it is 11 %
/// faster on the 60 k-vertex community graph (degree ~76, ~3.6 messages
/// against ~24 entries, which a ratio of 1 rebuilds) and 2 % faster on the
/// scale-15 R-MAT graph. A degree floor of 256 in front of a ratio of 1
/// was 8 % faster on the first but 2 % slower on the second, whose hubs
/// want the rebuild.
const REBUILD_EDGE_COST: usize = 2;

/// The Spinner Pregel program. Immutable during a run; all evolving state
/// lives in vertex values, edge values, and [`GlobalState`].
pub struct SpinnerProgram {
    /// Algorithm parameters.
    pub cfg: SpinnerConfig,
    /// Phase to start from: `NeighborPropagation` for in-engine conversion
    /// of a directed graph, `Initialize` otherwise.
    pub start_phase: Phase,
}

impl SpinnerProgram {
    /// Deterministic per-vertex randomness, keyed by *logical* step rather
    /// than raw superstep so that runs with and without the two conversion
    /// supersteps make identical draws.
    fn logical_rng(
        &self,
        vertex: u32,
        global: &GlobalState,
        salt: u64,
    ) -> spinner_graph::rng::SplitMix64 {
        let step = (global.iteration as u64) << 3 | salt;
        vertex_stream(self.cfg.seed, vertex as u64, step)
    }

    fn compute_scores(&self, ctx: &mut VertexContext<'_, Self>, messages: &[MigrationMsg]) {
        let w = &mut *ctx.worker;
        // (i) Fold migration announcements into the cached edge labels and
        // the vertex's label histogram. Neighbour labels change only through
        // these messages, so the histogram stays exact without a
        // per-iteration O(deg) edge re-scan. Per-message maintenance costs
        // O(messages x entries); a dense rebuild through the k-sized
        // scratch is O(deg + entries log entries), so rebuild an empty
        // histogram (the first scores superstep) and any histogram whose
        // shifts would cost more (see `REBUILD_EDGE_COST`). Both paths
        // produce the same entries in weight order (ties aside, which no
        // result depends on).
        let hist_len = ctx.value.label_weights.len();
        let shift_work = messages.len() * (hist_len + messages.len() / 2);
        let heavy = !messages.is_empty()
            && (hist_len == 0 || shift_work > REBUILD_EDGE_COST * ctx.edges.len());
        if heavy {
            for &(sender, label) in messages {
                debug_assert!(label != NO_LABEL);
                if let Some(i) = ctx.edges.index_of(sender) {
                    ctx.edges.values[i].neighbor_label = label;
                }
            }
            let hist = &mut ctx.value.label_weights;
            hist.clear();
            for ev in ctx.edges.values.iter() {
                let l = ev.neighbor_label;
                if l != NO_LABEL {
                    if w.counts[l as usize] == 0 {
                        hist.push((l, 0));
                    }
                    w.counts[l as usize] += ev.weight as u64;
                }
            }
            for (l, cnt) in hist.iter_mut() {
                *cnt = w.counts[*l as usize] as u32;
                w.counts[*l as usize] = 0;
            }
            sort_by_weight(hist);
        } else {
            for &(sender, label) in messages {
                if let Some(i) = ctx.edges.index_of(sender) {
                    let edge = &mut ctx.edges.values[i];
                    let old = edge.neighbor_label;
                    edge.neighbor_label = label;
                    ctx.value.shift_label_weight(old, label, edge.weight as u32);
                }
            }
        }

        let g = ctx.global;
        let current = ctx.value.label;
        let degw = ctx.value.degree;
        debug_assert!(current < g.k);
        #[cfg(debug_assertions)]
        Self::assert_histogram_in_sync(ctx.edges.values, ctx.value, ctx.vertex);

        // Resolve the least-loaded label before borrowing the load slice
        // (any label with zero adjacent weight scores -π(l), so only the
        // min-load label can win among the non-adjacent ones).
        let exhaustive = self.cfg.exhaustive_candidate_scan;
        // The exhaustive scan borrows the dense scratch while the score
        // closure below borrows the rest of the worker state.
        let mut exhaustive_counts =
            if exhaustive { std::mem::take(&mut w.counts) } else { Vec::new() };
        let min_label = if self.cfg.balance_penalty { w.min_load_label() } else { current };
        let loads: &[i64] = if self.cfg.async_worker_loads { &w.local_loads } else { &g.loads };
        // Under the async view the worker's cached penalties equal
        // `loads[l] as f64 / capacities[l]` bit-for-bit whenever C_l > 0,
        // halving the divisions in the candidate scan.
        let penalties: Option<&[f64]> =
            if self.cfg.async_worker_loads { Some(w.penalties()) } else { None };
        let score = |neighbor_weight: u64, l: usize| -> f64 {
            let locality = if degw > 0 { neighbor_weight as f64 / degw as f64 } else { 0.0 };
            if !self.cfg.balance_penalty {
                return locality;
            }
            let cap = g.capacities[l];
            let penalty = match penalties {
                Some(p) if cap > 0.0 => p[l],
                _ => loads[l] as f64 / cap,
            };
            locality - penalty
        };
        let count_current = ctx.value.label_weight(current) as u64;
        let current_score = score(count_current, current as usize);

        // (iii) Best label among the touched ones plus the globally
        // least-loaded one, or all k labels in the paper-faithful
        // exhaustive mode. The two are not the same scan: they differ when
        // the winner is a non-adjacent label and several labels share the
        // minimum penalty, because `min_load_label` returns the lowest
        // index among them while the exhaustive scan breaks the tie by
        // hash priority. In practice that is an isolated vertex, for which
        // every label is non-adjacent; it carries no load under the edge
        // objective, so φ and ρ agree (`driver.rs` pins both facts).
        let mut best_score = current_score;
        let mut best: Label = current;
        // Random but order-independent tie-breaking: among equally-scored
        // labels the one with the smallest per-(vertex, iteration, label)
        // hash priority wins, so the exhaustive and optimised candidate
        // scans agree despite enumerating candidates in different orders.
        // The seed is derived lazily — ties are rare, and hashing one per
        // vertex per superstep is measurable on the hot path.
        let vertex = ctx.vertex;
        let mut tie_seed: Option<u64> = None;
        let priority = |l: Label, tie_seed: &mut Option<u64>| {
            let seed =
                *tie_seed.get_or_insert_with(|| self.logical_rng(vertex, g, 1).next_u64());
            spinner_graph::rng::mix3(seed, l as u64, 0xBEA7)
        };
        // `None` = not yet hashed for the incumbent `best` (lazy, like the
        // seed); `Some` once a tie forced the comparison.
        let mut best_priority: Option<u64> = None;
        let histogram = &ctx.value.label_weights;
        // Sound fast-path prune: score(l) = cnt/degw - π(l) is bounded above
        // by cnt * inv_up - π_min, where inv_up >= 1/degw even after
        // rounding (two ulps of slack) and π_min = π(min_label) is the
        // smallest cached penalty. A label whose bound is strictly below the
        // incumbent best score can neither win nor tie, so skipping the
        // exact score cannot change the selected label. `consider` returns
        // false exactly when the bound prunes `l`.
        let prune = self.cfg.balance_penalty
            && self.cfg.async_worker_loads
            && degw > 0
            && w.caps_positive();
        let (inv_up, min_penalty) = if prune {
            let inv = 1.0 / degw as f64;
            let pen = penalties.expect("async penalties")[min_label as usize];
            (f64::from_bits(inv.to_bits() + 2), pen)
        } else {
            (0.0, 0.0)
        };
        let mut consider = |l: Label, neighbor_weight: u64| -> bool {
            if prune && neighbor_weight as f64 * inv_up - min_penalty < best_score {
                return false;
            }
            if l == current {
                return true;
            }
            let s = score(neighbor_weight, l as usize);
            // Break ties randomly but prefer the current label (§III-A):
            // `current` started as the incumbent best and an equal score
            // never displaces it; among other tied labels the hash priority
            // decides.
            if s > best_score {
                best_score = s;
                best = l;
                best_priority = None;
            } else if s == best_score && best != current {
                let incumbent = *best_priority.get_or_insert_with(|| {
                    let b = best;
                    priority(b, &mut tie_seed)
                });
                let p = priority(l, &mut tie_seed);
                if p < incumbent {
                    best = l;
                    best_priority = Some(p);
                }
            }
            true
        };
        if exhaustive {
            // Dense scratch keeps the paper-faithful mode O(k + len) per
            // vertex; 0..k is not sorted by weight, so prune per label but
            // never stop early.
            for &(l, cnt) in histogram {
                exhaustive_counts[l as usize] = cnt as u64;
            }
            for l in 0..g.k {
                consider(l, exhaustive_counts[l as usize]);
            }
            for &(l, _) in histogram {
                exhaustive_counts[l as usize] = 0;
            }
        } else {
            // The histogram is sorted by weight, descending, so the prune
            // bound never rises along the scan: once one entry's bound
            // loses, every later one's does too. An unscanned `min_label`
            // then reaches `consider(min_label, 0)`, which the same bound
            // prunes.
            let mut min_label_weight = None;
            for &(l, cnt) in histogram {
                if l == min_label {
                    min_label_weight = Some(cnt);
                }
                if !consider(l, cnt as u64) {
                    break;
                }
            }
            if min_label != current && min_label_weight.is_none() {
                consider(min_label, 0);
            }
        }
        if exhaustive {
            w.counts = exhaustive_counts;
        }

        // (iv) Aggregate this vertex's contribution to score(G) and φ.
        ctx.agg.add_i64(AGG_SCORE, score_fixed(current_score));
        ctx.agg.add_i64(AGG_LOCAL_WEIGHT, count_current as i64);

        // (v) Candidacy: flag and update the async worker view. With
        // `async_worker_loads` disabled the worker-local view must stay the
        // superstep-start global snapshot — updating it would leak intra-
        // superstep information into the min-penalty scan, making the
        // ablation arm depend on how vertices are spread over workers.
        // Skipping the update keeps the async=off arm fully synchronous and
        // its results invariant to the logical worker count.
        if best != current {
            let load = load_of(self.cfg.objective, degw);
            ctx.value.candidate = best;
            ctx.agg.add_vec_i64(AGG_CANDIDATES, best as usize, load as i64);
            if self.cfg.async_worker_loads {
                w.apply_candidacy(current, best, load);
            }
        } else {
            ctx.value.candidate = NO_LABEL;
        }
    }

    /// Debug-only: recomputes the label histogram and cached degree from
    /// the edge list and asserts they match the incremental state, whose
    /// entries must also be sorted by weight, descending.
    #[cfg(debug_assertions)]
    fn assert_histogram_in_sync(edge_values: &[EdgeState], value: &VertexState, vertex: u32) {
        assert!(
            value.label_weights.windows(2).all(|p| p[0].1 >= p[1].1),
            "label histogram out of weight order for vertex {vertex}"
        );
        let mut expect: Vec<(Label, u32)> = Vec::new();
        let mut degw = 0u64;
        for ev in edge_values.iter() {
            degw += ev.weight as u64;
            if ev.neighbor_label != NO_LABEL {
                match expect.iter_mut().find(|(l, _)| *l == ev.neighbor_label) {
                    Some(entry) => entry.1 += ev.weight as u32,
                    None => expect.push((ev.neighbor_label, ev.weight as u32)),
                }
            }
        }
        expect.sort_unstable();
        let mut cached = value.label_weights.clone();
        cached.sort_unstable();
        assert_eq!(expect, cached, "label histogram out of sync for vertex {vertex}");
        assert_eq!(degw, value.degree, "cached degree out of sync for vertex {vertex}");
    }

    fn compute_migrations(&self, ctx: &mut VertexContext<'_, Self>) {
        let candidate = ctx.value.candidate;
        if candidate == NO_LABEL {
            // Under the affected-only restart strategy, settled bystanders
            // go to sleep until a neighbour's migration wakes them.
            if self.cfg.restart_scope == RestartScope::AffectedOnly && !ctx.value.affected {
                ctx.vote_to_halt();
            }
            return;
        }
        ctx.value.candidate = NO_LABEL;
        let p = ctx.global.migration_prob[candidate as usize];
        let mut rng = self.logical_rng(ctx.vertex, ctx.global, 2);
        if rng.next_f64() >= p {
            return; // Deferred; retries next iteration (stays awake).
        }
        let old = ctx.value.label;
        let load = load_of(self.cfg.objective, ctx.value.degree) as i64;
        ctx.value.label = candidate;
        ctx.value.affected = true; // A mover keeps optimising.
        ctx.agg.add_vec_i64(AGG_LOADS, old as usize, -load);
        ctx.agg.add_vec_i64(AGG_LOADS, candidate as usize, load);
        ctx.agg.add_i64(AGG_MIGRATIONS, 1);
        // Announce to all neighbours through the deduplicating broadcast
        // lane: one record per destination worker instead of one per edge
        // (§IV-A2 — the payload is identical for every neighbour, so no
        // per-edge send is needed).
        let announce: MigrationMsg = (ctx.vertex, candidate);
        ctx.mail.broadcast(announce);
    }

    fn master_scores(&self, ctx: &mut MasterContext<'_, GlobalState>) {
        let k = ctx.global.k as usize;
        let loads = ctx.read(AGG_LOADS).as_vec_i64().to_vec();
        let m = ctx.read(AGG_CANDIDATES).as_vec_i64().to_vec();
        let score = ctx.read(AGG_SCORE).as_i64() as f64 / SCORE_SCALE;
        let local_weight = ctx.read(AGG_LOCAL_WEIGHT).as_i64();

        // Migration probabilities p(l) = r(l)/m(l), clamped to [0, 1]
        // (Eq. 14). r(l) ≤ 0 means the partition is at/over capacity: no
        // migrations into it this iteration.
        for l in 0..k {
            let r = ctx.global.capacities[l] - loads[l] as f64;
            ctx.global.migration_prob[l] = if !self.cfg.probabilistic_migration {
                1.0
            } else if m[l] <= 0 || r <= 0.0 {
                0.0
            } else {
                (r / m[l] as f64).min(1.0)
            };
        }

        // Iteration metrics (pushed to history after the migration step).
        let total = ctx.global.total_weight;
        let phi = if total > 0 { local_weight as f64 / total as f64 } else { 1.0 };
        let rho = rho_of(&loads, &ctx.global.capacities, self.cfg.c);
        ctx.global.pending = Some((phi, rho, score));

        // Halting heuristic: per-vertex-normalised improvement < ε for w
        // consecutive iterations (§III-C).
        let n = ctx.active.max(1) as f64;
        let improvement = (score - ctx.global.best_score) / n;
        if score > ctx.global.best_score {
            ctx.global.best_score = score;
        }
        if improvement < self.cfg.epsilon {
            ctx.global.no_improvement += 1;
        } else {
            ctx.global.no_improvement = 0;
        }
        let steady = ctx.global.no_improvement > self.cfg.window;
        if (steady && !self.cfg.ignore_halting)
            || ctx.global.iteration >= self.cfg.max_iterations
        {
            ctx.global.halted_steady = steady;
            self.push_history(ctx.global, 0);
            ctx.halt();
        } else {
            ctx.global.phase = Phase::ComputeMigrations;
        }
    }

    fn push_history(&self, g: &mut GlobalState, migrations: u64) {
        if let Some((phi, rho, score)) = g.pending.take() {
            g.history.push(IterationStats {
                iteration: g.iteration,
                phi,
                rho,
                score,
                migrations,
            });
        }
    }
}

/// Builds the [`GlobalState`] the master's `Initialize` step would have
/// produced from the given per-partition loads — the same total-weight,
/// capacity, and load math, phase set to `ComputeScores`. Used by
/// frontier-seeded windows that skip the Initialize superstep entirely:
/// vertex degrees, histograms, and the persistent loads aggregator are
/// seeded on the engine side, and this supplies the matching master state.
pub(crate) fn seeded_global(cfg: &SpinnerConfig, loads: Vec<i64>) -> GlobalState {
    let mut g = GlobalState::new(Phase::ComputeScores, cfg.k);
    install_loads(&mut g, cfg, loads);
    g
}

/// Installs the initial partition loads and what the master derives from
/// them: the total weight and the capacities — homogeneous `C = c·total/k`,
/// or proportional to the configured heterogeneous weights.
fn install_loads(g: &mut GlobalState, cfg: &SpinnerConfig, loads: Vec<i64>) {
    let total: i64 = loads.iter().sum();
    g.total_weight = total as u64;
    g.capacities = match &cfg.capacity_weights {
        Some(weights) => {
            let sum: f64 = weights.iter().sum();
            weights.iter().map(|w| cfg.c * total as f64 * w / sum).collect()
        }
        None => vec![cfg.c * total as f64 / cfg.k as f64; cfg.k as usize],
    };
    g.loads = loads;
}

/// The load a vertex of weighted degree `degw` contributes to its partition
/// under the balance objective.
#[inline]
pub(crate) fn load_of(objective: BalanceObjective, degw: u64) -> u64 {
    match objective {
        BalanceObjective::Edges => degw,
        BalanceObjective::Vertices => 1,
    }
}

/// Maximum normalized load: each partition's load relative to its ideal
/// share `C_l / c` (reduces to `max b / (total/k)` in the homogeneous case).
pub(crate) fn rho_of(loads: &[i64], capacities: &[f64], c: f64) -> f64 {
    loads
        .iter()
        .zip(capacities)
        .map(|(&b, &cap)| if cap > 0.0 { b as f64 * c / cap } else { 1.0 })
        .fold(1.0, f64::max)
}

impl Program for SpinnerProgram {
    type V = VertexState;
    type E = EdgeState;
    type M = MigrationMsg;
    type G = GlobalState;
    type WorkerState = WorkerState;

    fn init_global(&self) -> GlobalState {
        GlobalState::new(self.start_phase, self.cfg.k)
    }

    fn init_worker(&self, global: &GlobalState, _worker: WorkerId) -> WorkerState {
        WorkerState::new(&global.loads, &global.capacities)
    }

    fn reset_worker(
        &self,
        state: &mut WorkerState,
        global: &GlobalState,
        _worker: WorkerId,
    ) -> bool {
        state.reset(&global.loads, &global.capacities)
    }

    fn aggregators(&self) -> Vec<AggregatorSpec> {
        let k = self.cfg.k as usize;
        vec![
            AggregatorSpec::persistent("loads", AggOp::VecSumI64, k),
            AggregatorSpec::regular("candidates", AggOp::VecSumI64, k),
            AggregatorSpec::regular("score", AggOp::SumI64, 0),
            AggregatorSpec::regular("local-weight", AggOp::SumI64, 0),
            AggregatorSpec::regular("migrations", AggOp::SumI64, 0),
        ]
    }

    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[MigrationMsg]) {
        match ctx.global.phase {
            Phase::NeighborPropagation => {
                // Send our id along the (directed) out-edges — same payload
                // everywhere, so the broadcast lane applies (its fan-out
                // index is the adjacency transpose, valid for directed
                // graphs too). The NeighborDiscovery mutations that follow
                // close the lane for the rest of the conversion run.
                let me = ctx.vertex;
                ctx.mail.broadcast((me, NO_LABEL));
            }
            Phase::NeighborDiscovery => {
                // For each in-neighbour: reciprocal edge -> weight 2,
                // otherwise create the reverse edge with weight 1 (Eq. 3).
                for &(sender, _) in messages {
                    match ctx.edges.index_of(sender) {
                        Some(i) => ctx.edges.values[i].weight = 2,
                        None => ctx.add_edge(
                            sender,
                            EdgeState { weight: 1, neighbor_label: NO_LABEL },
                        ),
                    }
                }
            }
            Phase::Initialize => {
                // Weighted degree over the (now undirected) adjacency;
                // aggregate the initial load and announce the label.
                let degw: u64 = ctx.edges.values.iter().map(|e| e.weight as u64).sum();
                ctx.value.degree = degw;
                let label = ctx.value.label;
                debug_assert!(label < ctx.global.k);
                let load = load_of(self.cfg.objective, degw) as i64;
                ctx.agg.add_vec_i64(AGG_LOADS, label as usize, load);
                let announce: MigrationMsg = (ctx.vertex, label);
                ctx.mail.broadcast(announce);
            }
            Phase::ComputeScores => self.compute_scores(ctx, messages),
            Phase::ComputeMigrations => self.compute_migrations(ctx),
        }
    }

    fn master(&self, ctx: &mut MasterContext<'_, GlobalState>) {
        match ctx.global.phase {
            Phase::NeighborPropagation => ctx.global.phase = Phase::NeighborDiscovery,
            Phase::NeighborDiscovery => ctx.global.phase = Phase::Initialize,
            Phase::Initialize => {
                let loads = ctx.read(AGG_LOADS).as_vec_i64().to_vec();
                install_loads(ctx.global, &self.cfg, loads);
                ctx.global.phase = Phase::ComputeScores;
            }
            Phase::ComputeScores => self.master_scores(ctx),
            Phase::ComputeMigrations => {
                let migrations = ctx.read(AGG_MIGRATIONS).as_i64() as u64;
                ctx.global.loads = ctx.read(AGG_LOADS).as_vec_i64().to_vec();
                self.push_history(ctx.global, migrations);
                ctx.global.iteration += 1;
                ctx.global.phase = Phase::ComputeScores;
            }
        }
    }
}
