//! Vertex, edge, message, global, and worker state of the Spinner program.

use spinner_graph::VertexId;
use spinner_pregel::codec::{ByteReader, ByteWriter};
use spinner_pregel::WirePayload;

/// A partition label (`0..k`).
pub type Label = u32;

/// Sentinel for "no label": a vertex's first announcement has no previous
/// label, and a vertex that is no migration candidate has no candidate.
pub const NO_LABEL: Label = Label::MAX;

/// The largest partition count a [`MigrationMsg`] can carry: it packs a
/// previous label into 31 bits (see [`MigrationMsg::announce`]).
pub const MAX_K: u32 = (1 << 31) - 1;

/// Per-vertex state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexState {
    /// Current partition label α(v).
    pub label: Label,
    /// Weighted degree deg_w(v) (Eq. 3 weights). Computed during the
    /// reference Initialize superstep, seeded for every other run. Under the
    /// `Edges` objective this is also the vertex's load contribution; under
    /// `Vertices` the load is 1.
    pub degree: u64,
    /// The label this vertex is a candidate to migrate to (set in
    /// ComputeScores, consumed in ComputeMigrations), or [`NO_LABEL`].
    pub candidate: Label,
    /// Histogram of adjacent labels: summed edge weight per distinct
    /// neighbour label (entries are strictly positive; zeroed entries are
    /// removed). Maintained incrementally by the ComputeScores message fold
    /// — neighbour labels only change via migration announcements, each of
    /// which carries the change and its edge weight — so the per-iteration
    /// candidate scan is O(distinct labels), not O(degree).
    /// Entries are sorted by weight, descending (the order among equal
    /// weights is unspecified): a label's score bound grows with its
    /// weight, so the candidate scan stops at the first entry that cannot
    /// win. Candidate selection itself is order-independent (hash-priority
    /// tie-breaking), so the order never changes a result.
    pub label_weights: Vec<(Label, u32)>,
    /// The weight of the vertex's own label in its histogram as the
    /// persistent locality aggregates last counted it, or [`NOT_COUNTED`]
    /// while they do not count the vertex (before its first scores visit
    /// of a run). A sleeping vertex keeps its count, so the aggregates stay
    /// exact without visiting it.
    pub(crate) counted: u32,
}

/// [`VertexState::counted`] of a vertex the locality aggregates leave out.
pub(crate) const NOT_COUNTED: u32 = u32::MAX;

/// Sorts a label histogram into [`VertexState::label_weights`]' order.
pub(crate) fn sort_by_weight(hist: &mut [(Label, u32)]) {
    hist.sort_unstable_by_key(|&(_, w)| std::cmp::Reverse(w));
}

/// A vertex's label histogram, in [`VertexState::label_weights`]' order,
/// and its weighted degree, counted from its `(neighbour, edge weight)`
/// pairs and every vertex's current `labels`.
///
/// `counts` is label-indexed scratch, zero on entry and again on return
/// (grown to the largest label seen), so a caller counting many vertices
/// passes the same one each time: each pair adds its (positive) weight to
/// its label's slot, and a label joins the histogram at its first
/// occurrence. The histogram therefore lists its labels in the order a
/// linear scan of the pairs meets them, and the unstable weight sort sees
/// exactly the input `label_histogram_scan` gives it.
pub(crate) fn label_histogram(
    neighbours: impl Iterator<Item = (VertexId, u8)>,
    labels: &[Label],
    counts: &mut Vec<u32>,
) -> (Vec<(Label, u32)>, u64) {
    let mut degree = 0u64;
    let mut hist: Vec<(Label, u32)> = Vec::new();
    for (t, w) in neighbours {
        degree += u64::from(w);
        let l = labels[t as usize];
        if l as usize >= counts.len() {
            counts.resize(l as usize + 1, 0);
        }
        let count = &mut counts[l as usize];
        if *count == 0 {
            hist.push((l, 0));
        }
        *count += u32::from(w);
    }
    for (l, c) in &mut hist {
        *c = std::mem::take(&mut counts[*l as usize]);
    }
    sort_by_weight(&mut hist);
    (hist, degree)
}

/// [`label_histogram`] by a linear search of the histogram for every pair:
/// the oracle the counting kernel is checked against, and the independent
/// recount behind `recount_histograms`.
#[cfg(any(test, debug_assertions))]
pub(crate) fn label_histogram_scan(
    neighbours: impl Iterator<Item = (VertexId, u8)>,
    labels: &[Label],
) -> (Vec<(Label, u32)>, u64) {
    let mut degree = 0u64;
    let mut hist: Vec<(Label, u32)> = Vec::new();
    for (t, w) in neighbours {
        degree += u64::from(w);
        let l = labels[t as usize];
        match hist.iter_mut().find(|(hl, _)| *hl == l) {
            Some(entry) => entry.1 += u32::from(w),
            None => hist.push((l, u32::from(w))),
        }
    }
    sort_by_weight(&mut hist);
    (hist, degree)
}

impl VertexState {
    /// Fresh state with the given initial label (degree and the label
    /// histogram are seeded before a run, or fill in during the reference
    /// Initialize/ComputeScores supersteps). The second argument is
    /// ignored: it stays until the repo benchmark's cold replica, which
    /// still passes it, builds through [`crate::driver::stages`] instead
    /// (ROADMAP item 0(b)).
    pub fn new(label: Label, _: bool) -> Self {
        Self {
            label,
            degree: 0,
            candidate: NO_LABEL,
            label_weights: Vec::new(),
            counted: NOT_COUNTED,
        }
    }

    /// Summed adjacent edge weight cached for `label` (0 when absent).
    #[inline]
    pub fn label_weight(&self, label: Label) -> u32 {
        self.label_weights.iter().find(|&&(l, _)| l == label).map_or(0, |&(_, c)| c)
    }

    /// Applies a change of `delta` to the weight of an edge whose other end
    /// is labelled `label`: the histogram entry and the weighted degree move
    /// together, and the histogram stays positive and sorted by weight.
    pub(crate) fn reweigh_edge(&mut self, label: Label, delta: i32) {
        let w = delta.unsigned_abs();
        if delta > 0 {
            self.shift_label_weight(NO_LABEL, label, w);
            self.degree += u64::from(w);
        } else {
            self.shift_label_weight(label, NO_LABEL, w);
            self.degree -= u64::from(w);
        }
    }

    /// Applies a neighbour's label change `old -> new` over an edge of the
    /// given weight, keeping the histogram's entries positive and sorted by
    /// weight: the raised entry bubbles up past lighter ones, the lowered
    /// one down past heavier ones, and an emptied one is removed in place.
    /// Both entries are located in a single pass.
    #[inline]
    pub fn shift_label_weight(&mut self, old: Label, new: Label, weight: u32) {
        if old == new {
            return;
        }
        let hist = &mut self.label_weights;
        let (mut old_i, mut new_i) = (None, None);
        let (want_old, want_new) = (old != NO_LABEL, new != NO_LABEL);
        for (i, &(l, _)) in hist.iter().enumerate() {
            if l == new {
                new_i = Some(i);
            } else if l == old {
                old_i = Some(i);
            } else {
                continue;
            }
            if old_i.is_some() == want_old && new_i.is_some() == want_new {
                break;
            }
        }
        if want_new {
            let from = match new_i {
                Some(i) => {
                    hist[i].1 += weight;
                    i
                }
                None => {
                    hist.push((new, weight));
                    hist.len() - 1
                }
            };
            let mut to = from;
            while to > 0 && hist[to - 1].1 < hist[to].1 {
                hist.swap(to - 1, to);
                to -= 1;
            }
            // The entries it passed moved down one slot.
            if let Some(i) = old_i.as_mut() {
                if (to..from).contains(i) {
                    *i += 1;
                }
            }
        }
        if want_old {
            let i = old_i.expect("histogram entry for the previous neighbour label");
            debug_assert!(hist[i].1 >= weight);
            hist[i].1 -= weight;
            if hist[i].1 == 0 {
                hist.remove(i);
            } else {
                let mut at = i;
                while at + 1 < hist.len() && hist[at + 1].1 > hist[at].1 {
                    hist.swap(at, at + 1);
                    at += 1;
                }
            }
        }
    }
}

/// The input of the repo benchmark's cold replica, which spells out an
/// `EdgeState { weight, neighbor_label }` literal for each edge value it
/// hands [`spinner_pregel::Engine::from_undirected`].
///
/// The engine keeps only the Eq. 3 weight: Spinner's edge value is a `u8`
/// (see [`crate::program::SpinnerProgram`]), and `From<EdgeState> for u8`
/// converts the literal. The paper stores each neighbour's label in the
/// value of the connecting edge (§IV-A2), because a Giraph vertex can only
/// read its own edges; here a [`MigrationMsg`] carries the label change
/// and the edge weight itself, so nothing reads `neighbor_label`. This type
/// and its conversion go when the benchmark stops spelling the literal
/// (ROADMAP item 0(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeState {
    /// w(u, v) ∈ {1, 2}.
    pub weight: u8,
    /// Unused: set it to [`NO_LABEL`] (or anything else; nothing reads it).
    pub neighbor_label: Label,
}

impl From<EdgeState> for u8 {
    #[inline]
    fn from(edge: EdgeState) -> u8 {
        edge.weight
    }
}

/// A Spinner message, 8 bytes.
///
/// In the label-propagation phases it announces a neighbour's label change
/// `old → new` together with the Eq. 3 weight of the edge it crossed: the
/// receiver moves that weight from `old` to `new` in its label histogram.
/// The sender fills in the change; the weight arrives through
/// [`spinner_pregel::Program::stamp`] — from the engine for the copies the
/// broadcast lane fans out, from the sender for the ones it addresses
/// itself. A vertex's first announcement has `old = NO_LABEL`.
///
/// Applying a change twice would move the weight twice, so delivery must be
/// exactly once; the transport's reliability layer provides that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationMsg {
    /// `(old + 1) << 1 | (weight - 1)`, where `old = NO_LABEL` wraps to 0.
    change: u32,
    /// The new label.
    label: Label,
}

// The inbox holds one message per adjacency entry: a wider message costs
// memory on every edge.
const _: () = assert!(std::mem::size_of::<MigrationMsg>() == 8);

// The engine keeps one edge value per adjacency entry: a wider edge value
// costs memory on every adjacency entry.
const _: () = assert!(
    std::mem::size_of::<<crate::program::SpinnerProgram as spinner_pregel::Program>::E>() == 1
);

impl MigrationMsg {
    /// A label change `old → new` ([`NO_LABEL`] for no previous label),
    /// with a weight of 1 until [`Self::stamp`]ed. `old` must be below
    /// [`MAX_K`].
    #[inline]
    pub fn announce(old: Label, new: Label) -> Self {
        debug_assert!(old == NO_LABEL || old < MAX_K, "label {old} beyond MAX_K");
        debug_assert!(new < MAX_K, "label {new} beyond MAX_K");
        Self { change: old.wrapping_add(1) << 1, label: new }
    }

    /// Records the weight (1 or 2) of the edge a label change crossed.
    #[inline]
    pub fn stamp(&mut self, weight: u8) {
        debug_assert!(weight == 1 || weight == 2, "Eq. 3 weight {weight}");
        self.change = (self.change & !1) | u32::from(weight - 1);
    }

    /// The announced label's predecessor, or [`NO_LABEL`].
    #[inline]
    pub fn old(&self) -> Label {
        (self.change >> 1).wrapping_sub(1)
    }

    /// The announced label.
    #[inline]
    pub fn new_label(&self) -> Label {
        self.label
    }

    /// The stamped edge weight.
    #[inline]
    pub fn weight(&self) -> u32 {
        (self.change & 1) + 1
    }
}

impl WirePayload for MigrationMsg {
    fn write(&self, w: &mut ByteWriter) {
        (self.change, self.label).write(w);
    }
    fn read(r: &mut ByteReader<'_>) -> spinner_pregel::codec::Result<Self> {
        let (change, label) = <(u32, u32)>::read(r)?;
        Ok(Self { change, label })
    }
}

/// The phases of Fig. 2, advanced by master compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Aggregate initial loads and announce initial labels: the paper's
    /// start, kept as the reference for the seeded `ComputeScores` start.
    Initialize,
    /// LPA iteration step 1: find each vertex's best label.
    ComputeScores,
    /// LPA iteration step 2: probabilistic migrations (Eq. 14).
    ComputeMigrations,
}

/// Master-owned global state, broadcast to vertices each superstep.
#[derive(Debug, Clone)]
pub struct GlobalState {
    /// Current phase.
    pub phase: Phase,
    /// Number of partitions.
    pub k: u32,
    /// Per-partition capacities C_l (Eq. 5: `c·|E|/k` for homogeneous
    /// systems; proportional to the configured weights otherwise), set by
    /// the seeded start or after the reference Initialize.
    pub capacities: Vec<f64>,
    /// Total weighted degree Σ_v deg_w(v), the denominator of each
    /// iteration's φ (2·|directed edges| after the Eq. 3 conversion). Kept
    /// apart from the loads Σ_l b(l), which under
    /// [`crate::config::BalanceObjective::Vertices`] count vertices.
    pub total_weight: u64,
    /// Current partition loads b(l) (from the persistent aggregator).
    pub loads: Vec<i64>,
    /// Migration probabilities p(l) = r(l)/m(l) for the next
    /// ComputeMigrations superstep (Eq. 14).
    pub migration_prob: Vec<f64>,
    /// LPA iteration counter (one iteration = scores + migrations).
    pub iteration: u32,
    /// Per-iteration φ/ρ/score history (the curves of Fig. 4).
    pub history: Vec<crate::driver::IterationStats>,
    /// Metrics of the latest ComputeScores superstep, pending the matching
    /// ComputeMigrations superstep before being pushed to `history`.
    pub pending: Option<(f64, f64, f64)>,
    /// Best score seen so far (halting heuristic).
    pub best_score: f64,
    /// Consecutive iterations with < ε normalised improvement.
    pub no_improvement: u32,
    /// Set when the ε/w steady-state condition triggered the halt.
    pub halted_steady: bool,
    /// The run's penalty drift D: Σ over iterations of max_l |Δπ(l)|, the
    /// most any label's global penalty π(l) = b(l)/C_l can have moved since
    /// the run began. Zero without the balance penalty. A sleeping vertex's
    /// wake key is measured on it (see [`crate::program::SpinnerProgram`]).
    pub drift: f64,
}

impl GlobalState {
    /// Initial state for a run starting at `phase` with `k` partitions.
    pub fn new(phase: Phase, k: u32) -> Self {
        Self {
            phase,
            k,
            capacities: vec![0.0; k as usize],
            total_weight: 0,
            loads: vec![0; k as usize],
            migration_prob: vec![0.0; k as usize],
            iteration: 0,
            history: Vec::new(),
            pending: None,
            best_score: f64::NEG_INFINITY,
            no_improvement: 0,
            halted_steady: false,
            drift: 0.0,
        }
    }
}

/// Worker-local scratch: the asynchronous load view of §IV-A4.
#[derive(Debug)]
pub struct WorkerState {
    /// Worker-local view of partition loads, updated as vertices on this
    /// worker become migration candidates within the superstep.
    pub local_loads: Vec<i64>,
    /// Per-partition capacities C_l (for penalty-minimum tracking).
    pub capacities: Vec<f64>,
    /// Dense per-label scratch for the exhaustive candidate scan (k
    /// entries, all zero between vertices; the per-vertex label histogram
    /// serves the optimised scan instead).
    pub counts: Vec<u64>,
    /// Cached penalties π(l) = b(l)/C_l, kept in sync with `local_loads`
    /// so the min scan and candidacy updates never re-divide.
    penalties: Vec<f64>,
    /// Whether every capacity is strictly positive (gates the candidate-
    /// scan prune, whose bound is unsound across zero capacities).
    caps_positive: bool,
    /// Cached index of the minimum-penalty label.
    min_label: Label,
    min_dirty: bool,
    /// The global penalties the superstep started from.
    global_penalties: Vec<f64>,
    /// The largest |π_local(l) − π_global(l)| the candidacies so far this
    /// superstep produced: how far the asynchronous view has strayed.
    excursion: f64,
    /// Summed load of the vertices awake on this worker this superstep
    /// (fed by [`spinner_pregel::Program::wake_clock`]).
    pub(crate) awake_load: u64,
    /// min_l C_l.
    min_capacity: f64,
}

impl WorkerState {
    /// Builds worker state from the current global loads and capacities.
    pub fn new(loads: &[i64], capacities: &[f64]) -> Self {
        let mut state = Self {
            local_loads: loads.to_vec(),
            capacities: capacities.to_vec(),
            counts: vec![0; loads.len()],
            penalties: vec![0.0; loads.len()],
            caps_positive: capacities.iter().all(|&c| c > 0.0),
            min_label: 0,
            min_dirty: true,
            global_penalties: vec![0.0; loads.len()],
            excursion: 0.0,
            awake_load: 0,
            min_capacity: capacities.iter().copied().fold(f64::INFINITY, f64::min),
        };
        state.refresh_penalties();
        state
    }

    /// Re-initialises in place from fresh loads/capacities, keeping every
    /// buffer (the per-superstep reset on the engine's hot path). Returns
    /// `false` when the shape changed and the caller must rebuild.
    pub fn reset(&mut self, loads: &[i64], capacities: &[f64]) -> bool {
        if self.local_loads.len() != loads.len() || self.capacities.len() != capacities.len() {
            return false;
        }
        self.local_loads.copy_from_slice(loads);
        self.capacities.copy_from_slice(capacities);
        self.counts.fill(0);
        self.caps_positive = capacities.iter().all(|&c| c > 0.0);
        self.min_capacity = capacities.iter().copied().fold(f64::INFINITY, f64::min);
        self.refresh_penalties();
        self.min_label = 0;
        self.min_dirty = true;
        self.excursion = 0.0;
        self.awake_load = 0;
        true
    }

    /// How far the asynchronous view has strayed from the global
    /// penalties so far this superstep: the largest |π_local(l) −
    /// π_global(l)| over the labels candidacies touched.
    #[inline]
    pub fn excursion(&self) -> f64 {
        self.excursion
    }

    /// A bound on every excursion this superstep can reach on this worker,
    /// known before the walk: no label's local load can move by more than
    /// the awake vertices' summed load, and no penalty by more than that
    /// over min_l C_l.
    #[inline]
    pub fn excursion_bound(&self) -> f64 {
        self.awake_load as f64 / self.min_capacity
    }

    /// True when every capacity is strictly positive.
    #[inline]
    pub fn caps_positive(&self) -> bool {
        self.caps_positive
    }

    fn refresh_penalties(&mut self) {
        for l in 0..self.local_loads.len() {
            self.penalties[l] = Self::penalty_of(self.local_loads[l], self.capacities[l]);
        }
        self.global_penalties.clone_from(&self.penalties);
    }

    /// The cached penalties π(l) = b(l)/C_l (entries with `C_l <= 0` hold
    /// `f64::INFINITY`). Each entry is bit-identical to recomputing
    /// `local_loads[l] as f64 / capacities[l]` whenever `C_l > 0`, so score
    /// evaluation can read it instead of dividing.
    #[inline]
    pub fn penalties(&self) -> &[f64] {
        &self.penalties
    }

    /// Penalty π(l) = b(l)/C_l under the worker-local view.
    #[inline]
    fn penalty_of(load: i64, cap: f64) -> f64 {
        if cap > 0.0 {
            load as f64 / cap
        } else {
            f64::INFINITY
        }
    }

    /// Records a candidacy: the async view moves `load` from `old` to `new`
    /// so later vertices on this worker see it (§IV-A4).
    pub fn apply_candidacy(&mut self, old: Label, new: Label, load: u64) {
        self.local_loads[new as usize] += load as i64;
        self.local_loads[old as usize] -= load as i64;
        self.penalties[new as usize] =
            Self::penalty_of(self.local_loads[new as usize], self.capacities[new as usize]);
        self.penalties[old as usize] =
            Self::penalty_of(self.local_loads[old as usize], self.capacities[old as usize]);
        for l in [new as usize, old as usize] {
            let moved = (self.penalties[l] - self.global_penalties[l]).abs();
            self.excursion = self.excursion.max(moved);
        }
        if new == self.min_label {
            self.min_dirty = true;
        } else if !self.min_dirty
            && self.penalties[old as usize] < self.penalties[self.min_label as usize]
        {
            self.min_label = old;
        }
    }

    /// The label with the smallest worker-local penalty π(l). Any label not
    /// adjacent to a vertex scores `-π(l)`, so only the minimum-penalty one
    /// can beat the adjacent candidates — evaluating it makes the candidate
    /// scan exact without an O(k) pass per vertex.
    pub fn min_load_label(&mut self) -> Label {
        if self.min_dirty {
            let mut best = 0usize;
            for l in 1..self.penalties.len() {
                if self.penalties[l] < self.penalties[best] {
                    best = l;
                }
            }
            self.min_label = best as Label;
            self.min_dirty = false;
        }
        self.min_label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const CAPS: [f64; 3] = [10.0, 10.0, 10.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The counting kernel gives every row exactly the linear scan's
        /// histogram — same entries in the same order — and degree, with
        /// one scratch reused across rows and left zeroed.
        #[test]
        fn counted_histogram_matches_the_linear_scan(
            k in 1u32..65,
            picks in prop::collection::vec(0u32..1000, 1..80),
            rows in prop::collection::vec(
                prop::collection::vec((0usize..1000, 1u8..3), 0..40),
                1..12,
            ),
        ) {
            let labels: Vec<Label> = picks.iter().map(|&p| p % k).collect();
            let mut counts = Vec::new();
            for row in rows {
                let pairs: Vec<(VertexId, u8)> = row
                    .iter()
                    .map(|&(t, w)| ((t % labels.len()) as VertexId, w))
                    .collect();
                let got = label_histogram(pairs.iter().copied(), &labels, &mut counts);
                let want = label_histogram_scan(pairs.iter().copied(), &labels);
                prop_assert_eq!(got, want);
                prop_assert!(counts.iter().all(|&c| c == 0));
                prop_assert!(counts.len() <= k as usize);
            }
        }

        /// Any sequence of neighbour label changes keeps the incrementally
        /// shifted histogram equal to a naive recount of the edges, with
        /// positive, distinct entries sorted by weight, descending.
        #[test]
        fn shifted_histogram_matches_a_recount(
            weights in prop::collection::vec(1u32..3, 1..24),
            k in 1u32..9,
            moves in prop::collection::vec((0usize..1000, 0u32..10), 0..80),
        ) {
            let mut edge_labels = vec![NO_LABEL; weights.len()];
            let mut v = VertexState::new(0, true);
            for (pick, to) in moves {
                let e = pick % weights.len();
                // Labels in 0..k, with k itself standing in for NO_LABEL.
                let new = if to % (k + 1) == k { NO_LABEL } else { to % (k + 1) };
                v.shift_label_weight(edge_labels[e], new, weights[e]);
                edge_labels[e] = new;

                let mut recount = vec![0u32; k as usize];
                for (&l, &w) in edge_labels.iter().zip(&weights) {
                    if l != NO_LABEL {
                        recount[l as usize] += w;
                    }
                }
                let hist = &v.label_weights;
                prop_assert!(hist.iter().all(|&(_, w)| w > 0), "zero entry in {:?}", hist);
                prop_assert!(
                    hist.windows(2).all(|p| p[0].1 >= p[1].1),
                    "out of weight order: {:?}",
                    hist
                );
                let mut got = hist.clone();
                got.sort_unstable();
                prop_assert!(got.windows(2).all(|p| p[0].0 != p[1].0), "duplicate: {:?}", hist);
                let expect: Vec<(Label, u32)> = (0..k)
                    .filter(|&l| recount[l as usize] > 0)
                    .map(|l| (l, recount[l as usize]))
                    .collect();
                prop_assert_eq!(got, expect);
            }
        }
    }

    #[test]
    fn migration_msg_packs_the_change_and_its_weight() {
        for (old, new) in [(NO_LABEL, 0), (0, 5), (MAX_K - 1, 3), (7, MAX_K - 1)] {
            let mut m = MigrationMsg::announce(old, new);
            assert_eq!((m.old(), m.new_label(), m.weight()), (old, new, 1));
            m.stamp(2);
            assert_eq!((m.old(), m.new_label(), m.weight()), (old, new, 2));
            let mut w = ByteWriter::new();
            m.write(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(MigrationMsg::read(&mut r), Ok(m));
            assert!(r.is_exhausted());
            m.stamp(1);
            assert_eq!((m.old(), m.new_label(), m.weight()), (old, new, 1));
        }
    }

    #[test]
    fn sort_by_weight_orders_descending() {
        let mut hist = vec![(3, 1), (0, 4), (7, 2), (1, 4)];
        sort_by_weight(&mut hist);
        let weights: Vec<u32> = hist.iter().map(|&(_, w)| w).collect();
        assert_eq!(weights, [4, 4, 2, 1]);
    }

    #[test]
    fn worker_state_tracks_minimum() {
        let mut w = WorkerState::new(&[10, 5, 8], &CAPS);
        assert_eq!(w.min_load_label(), 1);
        // Simulate candidacy 0 -> 1 with load 6.
        w.apply_candidacy(0, 1, 6);
        // loads now [4, 11, 8]
        assert_eq!(w.min_load_label(), 0);
        w.apply_candidacy(0, 2, 10);
        // loads now [-6, 11, 18]
        assert_eq!(w.min_load_label(), 0);
    }

    #[test]
    fn min_recomputed_when_minimum_gains_load() {
        let mut w = WorkerState::new(&[1, 2, 3], &CAPS);
        assert_eq!(w.min_load_label(), 0);
        w.apply_candidacy(2, 0, 5); // loads [6, 2, -2]
        assert_eq!(w.min_load_label(), 2);
    }

    #[test]
    fn heterogeneous_capacities_bias_the_minimum() {
        // Equal loads but partition 2 has double capacity => its penalty is
        // the smallest.
        let mut w = WorkerState::new(&[6, 6, 6], &[10.0, 10.0, 20.0]);
        assert_eq!(w.min_load_label(), 2);
    }

    #[test]
    fn global_state_initialises_cleanly() {
        let g = GlobalState::new(Phase::Initialize, 4);
        assert_eq!(g.loads, vec![0; 4]);
        assert_eq!(g.iteration, 0);
        assert!(!g.halted_steady);
    }
}
