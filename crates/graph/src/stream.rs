//! Continuous delta streams for dynamic-graph workloads.
//!
//! §V-C of the paper evaluates one-shot adaptation: add a batch of edges,
//! re-converge once. Streaming systems (SDP, Hanai et al.) instead face an
//! ordered sequence of change windows — edges appear *and* disappear,
//! vertices join, and the partitioner must re-converge after every window.
//! [`DeltaStream`] generates such a sequence from any base graph with
//! explicit churn and skew knobs, applying each emitted [`GraphDelta`] to
//! its internal copy so consecutive deltas are consistent (removals always
//! name live edges, additions are always genuinely new).

use crate::directed::DirectedGraph;
use crate::ids::VertexId;
use crate::mutation::{apply_delta, sample_new_edges, sample_removed_edges, GraphDelta};
use crate::rng::SplitMix64;

/// Knobs of a [`DeltaStream`]. Fractions are per window, relative to the
/// *current* (evolved) graph, so a long stream compounds.
#[derive(Debug, Clone)]
pub struct DeltaStreamConfig {
    /// Number of delta windows to emit.
    pub windows: u32,
    /// New edges per window as a fraction of the current edge count.
    pub add_fraction: f64,
    /// Removed edges per window as a fraction of the current edge count
    /// (churn knob; 0 disables deletions).
    pub remove_fraction: f64,
    /// New vertices per window as a fraction of the current vertex count.
    pub vertex_fraction: f64,
    /// Edges attaching each new vertex to the existing graph.
    pub attach_degree: u32,
    /// Fraction of added edges that close open triangles (friend-of-friend)
    /// rather than joining uniform random pairs — the locality-skew knob of
    /// [`sample_new_edges`].
    pub triadic_fraction: f64,
    /// Probability that a new vertex attaches to a degree-proportional
    /// endpoint (preferential attachment) instead of a uniform one — the
    /// degree-skew knob. 0 keeps arrivals uniform; 1 piles them onto hubs.
    pub hub_bias: f64,
    /// Stream seed (each window derives its own sub-seeds).
    pub seed: u64,
}

impl Default for DeltaStreamConfig {
    fn default() -> Self {
        Self {
            windows: 8,
            add_fraction: 0.01,
            remove_fraction: 0.005,
            vertex_fraction: 0.002,
            attach_degree: 3,
            triadic_fraction: 0.8,
            hub_bias: 0.5,
            seed: 1,
        }
    }
}

/// An iterator of consistent [`GraphDelta`] windows over an evolving graph.
///
/// The stream owns a copy of the graph and applies every delta it emits, so
/// `stream.graph()` is always the state *after* the last emitted window —
/// exactly what a consumer replaying the deltas independently should hold.
#[derive(Debug)]
pub struct DeltaStream {
    graph: DirectedGraph,
    cfg: DeltaStreamConfig,
    rng: SplitMix64,
    window: u32,
}

impl DeltaStream {
    /// A stream evolving from `base` under `cfg`.
    pub fn new(base: DirectedGraph, cfg: DeltaStreamConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.triadic_fraction) && (0.0..=1.0).contains(&cfg.hub_bias),
            "triadic_fraction and hub_bias are probabilities"
        );
        assert!(
            cfg.add_fraction >= 0.0 && cfg.remove_fraction >= 0.0 && cfg.vertex_fraction >= 0.0,
            "fractions must be non-negative"
        );
        let rng = SplitMix64::new(cfg.seed ^ 0x57_BEA8);
        Self { graph: base, cfg, rng, window: 0 }
    }

    /// The current (post-last-window) state of the evolving graph.
    pub fn graph(&self) -> &DirectedGraph {
        &self.graph
    }

    /// Windows emitted so far.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// One attachment target for a new vertex: a degree-proportional
    /// endpoint with probability `hub_bias` (a uniformly random CSR slot's
    /// target has in-degree-proportional distribution), uniform otherwise.
    fn attach_target(&mut self) -> VertexId {
        let n = self.graph.num_vertices() as u64;
        let m = self.graph.num_edges();
        if m > 0 && self.rng.next_bool(self.cfg.hub_bias) {
            let (_, targets) = self.graph.as_csr();
            targets[self.rng.next_bounded(m) as usize]
        } else {
            self.rng.next_bounded(n) as VertexId
        }
    }
}

impl Iterator for DeltaStream {
    type Item = GraphDelta;

    fn next(&mut self) -> Option<GraphDelta> {
        if self.window >= self.cfg.windows {
            return None;
        }
        self.window += 1;
        let n = self.graph.num_vertices();
        let m = self.graph.num_edges() as f64;
        let add_count = (m * self.cfg.add_fraction).round() as usize;
        let remove_count = (m * self.cfg.remove_fraction).round() as usize;
        let new_vertices = (n as f64 * self.cfg.vertex_fraction).round() as VertexId;

        let add_seed = self.rng.next_u64();
        let remove_seed = self.rng.next_u64();
        let mut added =
            sample_new_edges(&self.graph, add_count, self.cfg.triadic_fraction, add_seed);
        let removed = sample_removed_edges(&self.graph, remove_count, remove_seed);
        // Arrivals: each new vertex friends `attach_degree` distinct existing
        // vertices. New ids are dense and above the current range, so these
        // edges can never collide with the sampled additions.
        for i in 0..new_vertices {
            let src = n + i;
            let mut targets: Vec<VertexId> =
                Vec::with_capacity(self.cfg.attach_degree as usize);
            let mut tries = 0u32;
            while targets.len() < self.cfg.attach_degree as usize && tries < 64 {
                tries += 1;
                let t = self.attach_target();
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
            added.extend(targets.into_iter().map(|t| (src, t)));
        }

        let delta = GraphDelta { added_edges: added, removed_edges: removed, new_vertices };
        self.graph = apply_delta(&self.graph, &delta);
        Some(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{planted_partition, SbmConfig};

    fn base() -> DirectedGraph {
        planted_partition(SbmConfig {
            n: 1500,
            communities: 6,
            internal_degree: 6.0,
            external_degree: 1.0,
            skew: None,
            seed: 21,
        })
    }

    #[test]
    fn emits_the_configured_number_of_windows() {
        let cfg = DeltaStreamConfig { windows: 5, ..DeltaStreamConfig::default() };
        let stream = DeltaStream::new(base(), cfg);
        assert_eq!(stream.count(), 5);
    }

    #[test]
    fn deltas_replay_to_the_stream_graph() {
        let g0 = base();
        let mut stream = DeltaStream::new(g0.clone(), DeltaStreamConfig::default());
        let mut replayed = g0;
        for delta in &mut stream {
            replayed = apply_delta(&replayed, &delta);
        }
        assert_eq!(&replayed, stream.graph());
    }

    #[test]
    fn stream_grows_and_churns() {
        let g0 = base();
        let (n0, m0) = (g0.num_vertices(), g0.num_edges());
        let cfg = DeltaStreamConfig {
            windows: 6,
            add_fraction: 0.02,
            remove_fraction: 0.01,
            vertex_fraction: 0.01,
            ..DeltaStreamConfig::default()
        };
        let mut stream = DeltaStream::new(g0, cfg);
        let mut removed_total = 0usize;
        for delta in &mut stream {
            assert!(!delta.added_edges.is_empty());
            assert!(!delta.removed_edges.is_empty());
            removed_total += delta.removed_edges.len();
        }
        assert!(stream.graph().num_vertices() > n0);
        assert!(stream.graph().num_edges() > m0, "net growth expected");
        assert!(removed_total > 0);
    }

    #[test]
    fn hub_bias_skews_arrival_degree() {
        // With hub_bias = 1 new vertices attach degree-proportionally; the
        // maximum in-degree must grow faster than under uniform attachment.
        let max_in_degree = |g: &DirectedGraph| {
            let mut indeg = vec![0u32; g.num_vertices() as usize];
            for (_, t) in g.edges() {
                indeg[t as usize] += 1;
            }
            indeg.into_iter().max().unwrap_or(0)
        };
        let mk = |hub_bias: f64| {
            let cfg = DeltaStreamConfig {
                windows: 10,
                add_fraction: 0.0,
                remove_fraction: 0.0,
                vertex_fraction: 0.05,
                attach_degree: 4,
                hub_bias,
                seed: 5,
                ..DeltaStreamConfig::default()
            };
            let mut s = DeltaStream::new(base(), cfg);
            for _ in &mut s {}
            max_in_degree(s.graph())
        };
        assert!(mk(1.0) > mk(0.0), "preferential attachment must create hubs");
    }

    #[test]
    fn zero_churn_stream_only_adds() {
        let cfg = DeltaStreamConfig {
            windows: 3,
            remove_fraction: 0.0,
            vertex_fraction: 0.0,
            ..DeltaStreamConfig::default()
        };
        for delta in DeltaStream::new(base(), cfg) {
            assert!(delta.removed_edges.is_empty());
            assert_eq!(delta.new_vertices, 0);
            assert!(!delta.added_edges.is_empty());
        }
    }
}
