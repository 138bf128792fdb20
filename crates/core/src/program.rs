//! The Spinner vertex program (paper §IV), expressed against the Pregel
//! engine: phases, score maximisation, and decentralised migrations.

use crate::config::{BalanceObjective, SpinnerConfig};
use crate::driver::IterationStats;
use crate::state::{
    sort_by_weight, GlobalState, Label, MigrationMsg, Phase, VertexState, WorkerState,
    NOT_COUNTED, NO_LABEL,
};
use spinner_graph::rng::vertex_stream;
use spinner_graph::VertexId;
use spinner_pregel::aggregate::{AggOp, AggregatorSpec};
use spinner_pregel::program::{MasterContext, Program};
use spinner_pregel::{VertexContext, WorkerId};

/// Aggregator: persistent partition loads b(l) (VecSumI64, length k).
pub const AGG_LOADS: usize = 0;
/// Aggregator: candidate load m(l) per label for Eq. 14 (VecSumI64).
pub const AGG_CANDIDATES: usize = 1;
/// Aggregator: the locality half of the global score (Eq. 10),
/// Σ_v round(S · w_v(α(v)) / deg_w(v)) in fixed point (see
/// [`SCORE_SCALE`]), persistent (SumI64). The master subtracts the penalty
/// half, Σ_l n_l · π(l), from the global loads and [`AGG_COUNTS`].
pub const AGG_SCORE: usize = 2;

/// Fixed-point scale `S` of the global score. Each vertex's locality and
/// each label's penalty term are rounded to `1/SCORE_SCALE` (2⁻²⁰ ≈ 10⁻⁶)
/// and summed as integers, so the total — unlike an `f64` sum — is
/// independent of summation order and therefore bit-identical across any
/// vertex placement, worker count, or thread count. The quantisation sits
/// three orders of magnitude below the ε = 10⁻³ per-vertex halting
/// threshold. Overflow bound: the locality sum is at most n, and the
/// penalty term at most n · k/c (the worst penalty is a partition holding
/// all load, k/c), so both stay within `i64::MAX` while
/// `n · (1 + k/c) < 2⁴³ ≈ 8.8·10¹²` — with the engine's u32 vertex ids
/// (n < 2³²), safe for any `k/c` up to ~2000 even at the maximum vertex
/// count.
pub const SCORE_SCALE: f64 = (1u64 << 20) as f64;

/// A score term in fixed point.
#[inline]
fn score_fixed(score: f64) -> i64 {
    (score * SCORE_SCALE).round() as i64
}

/// A vertex's locality w/deg_w in fixed point.
#[inline]
fn locality_fixed(weight: u32, degw: u64) -> i64 {
    if degw > 0 {
        score_fixed(f64::from(weight) / degw as f64)
    } else {
        0
    }
}
/// Aggregator: Σ_v (local incident weight) = 2·(local edge weight),
/// persistent (SumI64).
pub const AGG_LOCAL_WEIGHT: usize = 3;
/// Aggregator: number of migrations this superstep (SumI64).
pub const AGG_MIGRATIONS: usize = 4;
/// Aggregator: n_l, the vertices per label the locality aggregates count,
/// persistent (VecSumI64, length k).
pub const AGG_COUNTS: usize = 5;
/// Aggregator: Σ_v deg_w(v), summed by the reference `Initialize` superstep
/// only (SumI64).
pub const AGG_DEGREE: usize = 6;

/// Wake-clock ticks per unit of penalty: keys and clocks are D + … values
/// rounded down to 1/512, so a sleeper wakes at most one tick early and a
/// run's keys fall in the engine's per-tick buckets while D stays below 4.
const WAKE_SCALE: f64 = 512.0;

/// Taken off every margin key: far above the rounding error of the scores,
/// penalties and drift sums the bound is computed from.
const WAKE_SLACK: f64 = 1e-9;

/// A penalty-unit value as wake-clock ticks, rounded down (0 for anything
/// not positive, saturating above).
#[inline]
fn wake_ticks(x: f64) -> u64 {
    if x > 0.0 {
        (x * WAKE_SCALE) as u64
    } else {
        0
    }
}

#[cfg(test)]
thread_local! {
    /// Set, every sleeper on an engine driven from this thread wakes at
    /// every scores superstep: the reference margin sleeping must match.
    pub(crate) static WAKE_EVERY_SLEEPER: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

/// One scores visit's candidate scan.
struct Scan {
    /// The winning label (the current one on a tie).
    best: Label,
    /// The current label's score.
    current_score: f64,
    /// The current label's weight in the histogram.
    count_current: u64,
    /// At least every other label's score.
    alt_max: f64,
}

/// What one item of a dense histogram fold costs — an entry loaded into
/// or read back from the k-sized scratch, or a message applied to it — in
/// units of one histogram entry passed by a per-message shift. A fold's
/// per-item step is a scattered read and write of the scratch, plus a sort
/// of the result; a shift's per-entry step is a sequential compare (the
/// scan, then the bubble that keeps the weight order). Fitted on the
/// benchmark's two cold workloads (2-vCPU x86 VM, two interleaved rounds
/// of 0, 1, 2, 4, 8 and never-fold): 4 had the lowest summed `op_p50_ms`.
/// Never folding a non-empty histogram is 2 % faster on the community
/// graph but 37 % slower on the R-MAT graph, whose hubs take many
/// messages per superstep.
const FOLD_ITEM_COST: usize = 4;

/// The Spinner Pregel program. Immutable during a run; all evolving state
/// lives in vertex values, edge values, and [`GlobalState`].
pub struct SpinnerProgram {
    /// Algorithm parameters.
    pub cfg: SpinnerConfig,
    /// Phase to start from: `ComputeScores` for every run the driver and a
    /// streaming session make, seeded by
    /// [`crate::driver::stages::build_engine`] or
    /// [`crate::driver::stages::warm_reset`]; `Initialize` for the paper's
    /// reference start, whose first superstep announces every label.
    pub start_phase: Phase,
}

impl SpinnerProgram {
    /// Deterministic per-vertex randomness, keyed by *logical* step rather
    /// than raw superstep so that a seeded run and the reference run, which
    /// spends one superstep more in `Initialize`, make identical draws.
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
        // (i) Fold the announced label changes into the vertex's label
        // histogram. Each message moves its edge weight from the
        // neighbour's old label to its new one, so the histogram stays
        // exact without touching the adjacency. Shifting entries per
        // message costs O(messages x entries); a dense fold through the
        // k-sized scratch costs O(entries + messages) plus a sort, so fold
        // an empty histogram (the first scores superstep) and any histogram
        // whose shifts would cost more (see `FOLD_ITEM_COST`). Both paths
        // produce the same entries in weight order (ties aside, which no
        // result depends on).
        let hist_len = ctx.value.label_weights.len();
        let shift_work = messages.len() * (hist_len + messages.len() / 2);
        let dense = !messages.is_empty()
            && (hist_len == 0 || shift_work > FOLD_ITEM_COST * (hist_len + messages.len()));
        if dense {
            fold_label_changes(&mut ctx.value.label_weights, messages, &mut w.counts);
        } else {
            for m in messages {
                ctx.value.shift_label_weight(m.old(), m.new_label(), m.weight());
            }
        }

        // (ii) Score the labels.
        let scan = self.scan(ctx.vertex, ctx.value, ctx.global, ctx.worker);
        let current = ctx.value.label;

        // (iii) Count the vertex's locality into the persistent aggregates
        // of φ and score(G).
        count_locality(ctx, scan.count_current);

        // (iv) Candidacy: flag and update the async worker view. With
        // `async_worker_loads` disabled the worker-local view must stay the
        // superstep-start global snapshot — updating it would leak intra-
        // superstep information into the min-penalty scan, making the
        // ablation arm depend on how vertices are spread over workers.
        // Skipping the update keeps the async=off arm fully synchronous and
        // its results invariant to the logical worker count.
        if scan.best != current {
            let load = load_of(self.cfg.objective, ctx.value.degree);
            ctx.value.candidate = scan.best;
            ctx.agg.add_vec_i64(AGG_CANDIDATES, scan.best as usize, load as i64);
            if self.cfg.async_worker_loads {
                ctx.worker.apply_candidacy(current, scan.best, load);
            }
            return;
        }
        ctx.value.candidate = NO_LABEL;

        // (v) Sleep. A non-candidate skips the migration superstep, which
        // has nothing for it (key 0 wakes it at the next scores superstep).
        // With a strict margin m over every alternative it sleeps longer:
        // no penalty moves by more than the drift D adds plus the
        // asynchronous views' excursions (its own now, e_s, and the a-priori
        // bound E_w of the superstep it would be visited in), and score
        // differences move by at most twice that, so the label keeps
        // winning while D_t + E_w ≤ D_s + m/2 − e_s.
        let margin = scan.current_score - scan.alt_max;
        let key = if margin > 0.0 && self.margin_sleep(ctx.worker) {
            let e_s = if self.excursions() { ctx.worker.excursion() } else { 0.0 };
            wake_ticks(ctx.global.drift + margin / 2.0 - e_s - WAKE_SLACK)
        } else {
            0
        };
        ctx.sleep(key);
    }

    /// Whether margin sleeping is sound: without the balance penalty scores
    /// never move without a message; with it, every penalty must be finite.
    fn margin_sleep(&self, w: &WorkerState) -> bool {
        !self.cfg.balance_penalty || w.caps_positive()
    }

    /// Whether the worker-local view can stray from the global penalties
    /// within a superstep, and does so in a way scores see.
    fn excursions(&self) -> bool {
        self.cfg.balance_penalty && self.cfg.async_worker_loads
    }

    /// The candidate scan of one scores visit: the best label for `value`
    /// under the worker's view, the current label's score and weight, and
    /// a bound on every other label's score. Reads `w` only (its min-label
    /// cache and the zeroed dense scratch aside), so the debug sleeper
    /// check can replay it.
    fn scan(
        &self,
        vertex: u32,
        value: &VertexState,
        g: &GlobalState,
        w: &mut WorkerState,
    ) -> Scan {
        let current = value.label;
        let degw = value.degree;
        debug_assert!(current < g.k);

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
        let count_current = value.label_weight(current) as u64;
        let current_score = score(count_current, current as usize);

        // The best label among the touched ones plus the globally
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
        let mut tie_seed: Option<u64> = None;
        let priority = |l: Label, tie_seed: &mut Option<u64>| {
            let seed =
                *tie_seed.get_or_insert_with(|| self.logical_rng(vertex, g, 1).next_u64());
            spinner_graph::rng::mix3(seed, l as u64, 0xBEA7)
        };
        // `None` = not yet hashed for the incumbent `best` (lazy, like the
        // seed); `Some` once a tie forced the comparison.
        let mut best_priority: Option<u64> = None;
        let histogram = &value.label_weights;
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
        // An upper bound on every other label's score: the exact score of
        // each one scored, the bound of each one pruned.
        let mut alt_max = f64::NEG_INFINITY;
        let mut consider = |l: Label, neighbor_weight: u64| -> bool {
            if prune {
                let bound = neighbor_weight as f64 * inv_up - min_penalty;
                if bound < best_score {
                    alt_max = alt_max.max(bound);
                    return false;
                }
            }
            if l == current {
                return true;
            }
            let s = score(neighbor_weight, l as usize);
            alt_max = alt_max.max(s);
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
            // Every label off the histogram scores at most what the
            // least-penalty one does, -π_min, or 0 without the penalty.
            let listed = histogram.len() + usize::from(count_current == 0);
            if listed < g.k as usize {
                let off = if self.cfg.balance_penalty {
                    -w.penalties()[min_label as usize]
                } else {
                    0.0
                };
                alt_max = alt_max.max(off);
            }
        }
        if exhaustive {
            w.counts = exhaustive_counts;
        }
        Scan { best, current_score, count_current, alt_max }
    }

    fn compute_migrations(&self, ctx: &mut VertexContext<'_, Self>) {
        let candidate = ctx.value.candidate;
        if candidate == NO_LABEL {
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
        ctx.agg.add_vec_i64(AGG_LOADS, old as usize, -load);
        ctx.agg.add_vec_i64(AGG_LOADS, candidate as usize, load);
        if ctx.value.counted != NOT_COUNTED {
            ctx.agg.add_vec_i64(AGG_COUNTS, old as usize, -1);
            ctx.agg.add_vec_i64(AGG_COUNTS, candidate as usize, 1);
        }
        ctx.agg.add_i64(AGG_MIGRATIONS, 1);
        // Announce the change to all neighbours through the deduplicating
        // broadcast lane: one record per destination worker instead of one
        // per edge (§IV-A2 — the payload is identical for every neighbour
        // until the engine stamps each copy with its edge weight).
        ctx.broadcast(MigrationMsg::announce(old, candidate));
    }

    fn master_scores(&self, ctx: &mut MasterContext<'_, GlobalState>) {
        let k = ctx.global.k as usize;
        let loads = ctx.read(AGG_LOADS).as_vec_i64().to_vec();
        let m = ctx.read(AGG_CANDIDATES).as_vec_i64().to_vec();
        let local_weight = ctx.read(AGG_LOCAL_WEIGHT).as_i64();
        // score(G) = Σ_v locality(v) − Σ_l n_l · π(l), the penalty half
        // from the global loads.
        let mut score = ctx.read(AGG_SCORE).as_i64();
        if self.cfg.balance_penalty {
            let counts = ctx.read(AGG_COUNTS).as_vec_i64();
            for l in 0..k {
                let cap = ctx.global.capacities[l];
                if counts[l] != 0 && cap > 0.0 {
                    let penalty = loads[l] as f64 / cap;
                    score = score.saturating_sub(score_fixed(counts[l] as f64 * penalty));
                }
            }
        }
        let score = score as f64 / SCORE_SCALE;

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
/// produced from the given per-partition loads and total weighted degree —
/// the same capacity and load math, phase set to `ComputeScores`. Used by
/// every seeded run, which skips the Initialize superstep entirely: vertex
/// degrees, histograms, and the persistent loads aggregator are seeded on
/// the engine side, and this supplies the matching master state.
pub(crate) fn seeded_global(
    cfg: &SpinnerConfig,
    loads: Vec<i64>,
    total_weight: u64,
) -> GlobalState {
    let mut g = GlobalState::new(Phase::ComputeScores, cfg.k);
    install_loads(&mut g, cfg, loads, total_weight);
    g
}

/// Installs the initial partition loads, the total weighted degree, and
/// the capacities the master derives from the loads — homogeneous
/// `C = c·Σb/k`, or proportional to the configured heterogeneous weights.
fn install_loads(g: &mut GlobalState, cfg: &SpinnerConfig, loads: Vec<i64>, total_weight: u64) {
    let total: i64 = loads.iter().sum();
    g.total_weight = total_weight;
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

/// Counts the vertex into the persistent locality aggregates with its
/// current label weight `weight`: the change against what they last
/// counted for it, or the whole vertex (and its label in [`AGG_COUNTS`])
/// when they did not count it.
fn count_locality(ctx: &mut VertexContext<'_, SpinnerProgram>, weight: u64) {
    let value = &mut *ctx.value;
    let weight = weight as u32;
    let (old_weight, old_fixed) = match value.counted {
        NOT_COUNTED => {
            ctx.agg.add_vec_i64(AGG_COUNTS, value.label as usize, 1);
            (0, 0)
        }
        c if c == weight => return,
        c => (c, locality_fixed(c, value.degree)),
    };
    ctx.agg.add_i64(AGG_LOCAL_WEIGHT, i64::from(weight) - i64::from(old_weight));
    ctx.agg.add_i64(AGG_SCORE, locality_fixed(weight, value.degree) - old_fixed);
    value.counted = weight;
}

/// Applies every announced label change to `hist` through the dense
/// scratch `counts` (k entries, all zero on entry and on return) and
/// re-sorts it: O(entries + messages) plus the sort, however many entries
/// the changes touch. The histogram never holds more entries than before
/// or after the fold.
fn fold_label_changes(
    hist: &mut Vec<(Label, u32)>,
    messages: &[MigrationMsg],
    counts: &mut [u64],
) {
    for &(l, c) in hist.iter() {
        counts[l as usize] = u64::from(c);
    }
    for m in messages {
        let (old, new, weight) = (m.old(), m.new_label(), u64::from(m.weight()));
        debug_assert!(new != NO_LABEL);
        if old != NO_LABEL {
            counts[old as usize] -= weight;
        }
        counts[new as usize] += weight;
    }
    // Read the counts back — the listed labels, then the ones the changes
    // introduced. Reading a count zeroes it, so each label is listed once.
    hist.retain_mut(|(l, c)| {
        *c = std::mem::take(&mut counts[*l as usize]) as u32;
        *c > 0
    });
    for m in messages {
        let c = std::mem::take(&mut counts[m.new_label() as usize]);
        if c > 0 {
            hist.push((m.new_label(), c as u32));
        }
    }
    sort_by_weight(hist);
}

/// Recounts every vertex's label histogram and weighted degree from the
/// engine's adjacency — its edge weights and its vertices' current labels,
/// no per-edge label cache — and reports the first vertex whose
/// maintained state disagrees, or whose histogram is out of weight order.
/// Valid wherever no announcement is in flight: after a run that halted
/// cleanly, every message sent has been folded.
#[cfg(any(test, debug_assertions))]
pub(crate) fn recount_histograms(
    engine: &spinner_pregel::Engine<SpinnerProgram>,
) -> Result<(), String> {
    let labels: Vec<Label> = engine.collect_values_with(|v| v.label);
    for (v, value) in engine.collect_values().iter().enumerate() {
        let hist = &value.label_weights;
        if !hist.windows(2).all(|p| p[0].1 >= p[1].1) {
            return Err(format!("vertex {v}: histogram out of weight order: {hist:?}"));
        }
        let (targets, edges) = engine.adjacency(v as u32);
        let neighbours = targets.iter().copied().zip(edges.iter().copied());
        let (mut expect, degree) = crate::state::label_histogram_scan(neighbours, &labels);
        expect.sort_unstable();
        let mut got = hist.clone();
        got.sort_unstable();
        if got != expect {
            return Err(format!(
                "vertex {v}: histogram {got:?}, neighbour labels give {expect:?}"
            ));
        }
        if degree != value.degree {
            return Err(format!("vertex {v}: degree {}, edges give {degree}", value.degree));
        }
    }
    Ok(())
}

/// Checks vertex states seeded for a warm run against `graph`: every
/// weighted degree matches the graph's, and the label histograms obey the
/// mass law Σ_v hist_v\[l\] = Σ_{u : label(u) = l} deg_w(u) for every label
/// `l` — each edge `{u, v}` of weight `w` puts `w` under `label(u)` in
/// `v`'s histogram and under `label(v)` in `u`'s. Linear in the vertices
/// and histogram entries, so cheap enough to run before every warm window.
/// Reports the first degree or label that disagrees.
#[cfg(any(test, debug_assertions))]
pub(crate) fn check_mass_law(
    graph: &spinner_graph::UndirectedGraph,
    states: &[VertexState],
) -> Result<(), String> {
    let mut mass: Vec<i64> = Vec::new();
    let mut add = |l: Label, w: i64| {
        if mass.len() <= l as usize {
            mass.resize(l as usize + 1, 0);
        }
        mass[l as usize] += w;
    };
    for (v, s) in states.iter().enumerate() {
        let degree = graph.weighted_degree(v as u32);
        if s.degree != degree {
            return Err(format!("vertex {v}: degree {}, the graph gives {degree}", s.degree));
        }
        add(s.label, degree as i64);
        for &(l, w) in &s.label_weights {
            add(l, -i64::from(w));
        }
    }
    match mass.iter().position(|&m| m != 0) {
        Some(l) => Err(format!("label {l}: histograms and degrees differ by {}", -mass[l])),
        None => Ok(()),
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
    /// The Eq. 3 weight w(u, v) ∈ {1, 2} of the edge.
    type E = u8;
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
            AggregatorSpec::persistent("score", AggOp::SumI64, 0),
            AggregatorSpec::persistent("local-weight", AggOp::SumI64, 0),
            AggregatorSpec::regular("migrations", AggOp::SumI64, 0),
            AggregatorSpec::persistent("counts", AggOp::VecSumI64, k),
            AggregatorSpec::regular("degree", AggOp::SumI64, 0),
        ]
    }

    fn compute(&self, ctx: &mut VertexContext<'_, Self>, messages: &[MigrationMsg]) {
        match ctx.global.phase {
            Phase::Initialize => {
                // Weighted degree over the adjacency; aggregate the initial
                // load and announce the label.
                let degw: u64 = ctx.edges.values.iter().map(|&w| u64::from(w)).sum();
                ctx.value.degree = degw;
                let label = ctx.value.label;
                debug_assert!(label < ctx.global.k);
                let load = load_of(self.cfg.objective, degw) as i64;
                ctx.agg.add_vec_i64(AGG_LOADS, label as usize, load);
                ctx.agg.add_i64(AGG_DEGREE, degw as i64);
                ctx.broadcast(MigrationMsg::announce(NO_LABEL, label));
            }
            Phase::ComputeScores => self.compute_scores(ctx, messages),
            Phase::ComputeMigrations => self.compute_migrations(ctx),
        }
    }

    /// D_t + E_w: the run's drift plus this worker's a-priori excursion
    /// bound, which grows with the load awake on the worker.
    fn wake_clock(
        &self,
        global: &GlobalState,
        w: &mut WorkerState,
        joined: &mut dyn Iterator<Item = &VertexState>,
    ) -> Option<u64> {
        if global.phase != Phase::ComputeScores {
            return None;
        }
        #[cfg(test)]
        if WAKE_EVERY_SLEEPER.with(std::cell::Cell::get) {
            return Some(u64::MAX - 1);
        }
        if !self.excursions() {
            return Some(wake_ticks(global.drift));
        }
        let objective = self.cfg.objective;
        w.awake_load += joined.map(|v| load_of(objective, v.degree)).sum::<u64>();
        Some(wake_ticks(global.drift + w.excursion_bound()))
    }

    /// A scores-superstep sleeper must not have been a candidate, and the
    /// aggregates must count its current label weight.
    fn check_sleeper(
        &self,
        global: &GlobalState,
        w: &mut WorkerState,
        vertex: VertexId,
        value: &VertexState,
    ) {
        if global.phase != Phase::ComputeScores {
            return;
        }
        let weight = value.label_weight(value.label);
        assert_eq!(value.counted, weight, "vertex {vertex} sleeps on a stale locality");
        let scan = self.scan(vertex, value, global, w);
        assert_eq!(
            scan.best, value.label,
            "vertex {vertex} slept through a candidacy (scores {} vs at most {})",
            scan.current_score, scan.alt_max
        );
    }

    // Eq. 3 weights are 1 or 2.
    const STAMP_BITS: u32 = 2;

    fn edge_weight(weight: &u8) -> u8 {
        *weight
    }

    fn stamp(msg: &mut MigrationMsg, weight: u8) {
        msg.stamp(weight);
    }

    fn master(&self, ctx: &mut MasterContext<'_, GlobalState>) {
        match ctx.global.phase {
            Phase::Initialize => {
                let loads = ctx.read(AGG_LOADS).as_vec_i64().to_vec();
                let total_weight = ctx.read(AGG_DEGREE).as_i64() as u64;
                install_loads(ctx.global, &self.cfg, loads, total_weight);
                ctx.global.phase = Phase::ComputeScores;
            }
            Phase::ComputeScores => self.master_scores(ctx),
            Phase::ComputeMigrations => {
                let migrations = ctx.read(AGG_MIGRATIONS).as_i64() as u64;
                let loads = ctx.read(AGG_LOADS).as_vec_i64().to_vec();
                let g = &mut *ctx.global;
                if self.cfg.balance_penalty {
                    let moved = (0..loads.len()).map(|l| {
                        let cap = g.capacities[l];
                        (loads[l] as f64 / cap - g.loads[l] as f64 / cap).abs()
                    });
                    g.drift += moved.fold(0.0, f64::max);
                }
                ctx.global.loads = loads;
                self.push_history(ctx.global, migrations);
                ctx.global.iteration += 1;
                ctx.global.phase = Phase::ComputeScores;
            }
        }
    }
}
