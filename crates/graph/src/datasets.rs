//! Synthetic analogues of the paper's evaluation datasets (Table II).
//!
//! The original datasets are proprietary (Tuenti), enormous (Yahoo!: 1.4B
//! vertices), or both. Each analogue reproduces the *structural properties*
//! that drive Spinner's behaviour on that dataset — community locality,
//! degree skew, host-level web locality, directedness — at a scale that runs
//! on one machine.

use crate::conversion::{from_undirected_edges, to_weighted_undirected};
use crate::directed::DirectedGraph;
use crate::generators::{
    barabasi_albert, planted_partition, rmat, weblike, PowerLawConfig, RmatConfig, SbmConfig,
    WeblikeConfig,
};
use crate::ids::VertexId;
use crate::undirected::UndirectedGraph;

/// The datasets of Table II, by their paper abbreviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// LiveJournal: directed social graph, strong communities (4.8M/69M).
    LiveJournal,
    /// Tuenti: undirected social graph, dense (12M/685M).
    Tuenti,
    /// Google+: directed social graph (29M/462M).
    GooglePlus,
    /// Twitter: directed follower graph with extreme hubs (40M/1.5B).
    Twitter,
    /// Friendster: undirected social graph, weak communities (66M/1.8B).
    Friendster,
    /// Yahoo!: directed web graph with host locality (1.4B/6.6B).
    Yahoo,
}

/// How large an analogue to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few thousand vertices; for unit/integration tests.
    Tiny,
    /// Tens of thousands of vertices; for quick experiment previews.
    Small,
    /// The experiment scale used to regenerate the paper's numbers.
    Full,
}

impl Scale {
    fn factor(self) -> f64 {
        match self {
            Scale::Tiny => 0.02,
            Scale::Small => 0.2,
            Scale::Full => 1.0,
        }
    }
}

impl Dataset {
    /// All datasets in Table II order.
    pub const ALL: [Dataset; 6] = [
        Dataset::LiveJournal,
        Dataset::Tuenti,
        Dataset::GooglePlus,
        Dataset::Twitter,
        Dataset::Friendster,
        Dataset::Yahoo,
    ];

    /// The five graphs of Fig. 3 (Yahoo! is shown separately in Fig. 4b).
    pub const FIG3: [Dataset; 5] = [
        Dataset::LiveJournal,
        Dataset::GooglePlus,
        Dataset::Tuenti,
        Dataset::Twitter,
        Dataset::Friendster,
    ];

    /// Paper abbreviation (Table II).
    pub fn short_name(self) -> &'static str {
        match self {
            Dataset::LiveJournal => "LJ",
            Dataset::Tuenti => "TU",
            Dataset::GooglePlus => "G+",
            Dataset::Twitter => "TW",
            Dataset::Friendster => "FR",
            Dataset::Yahoo => "Y!",
        }
    }

    /// Whether the source dataset is directed (Table II).
    pub fn directed(self) -> bool {
        !matches!(self, Dataset::Tuenti | Dataset::Friendster)
    }

    /// Builds the directed synthetic analogue at the requested scale.
    ///
    /// For the undirected datasets (TU, FR) the emitted edges should be
    /// interpreted as undirected; [`Dataset::build_undirected`] does so.
    pub fn build_directed(self, scale: Scale) -> DirectedGraph {
        let f = scale.factor();
        let n = |base: u32| -> VertexId { ((base as f64 * f) as VertexId).max(256) };
        match self {
            Dataset::LiveJournal => planted_partition(SbmConfig {
                n: n(100_000),
                communities: (200.0 * f).max(8.0) as u32,
                internal_degree: 10.0,
                external_degree: 4.0,
                skew: Some(PowerLawConfig { alpha: 2.4, min_degree: 1, max_degree: 2_000 }),
                seed: 0xA11CE,
            }),
            Dataset::Tuenti => planted_partition(SbmConfig {
                n: n(60_000),
                communities: (120.0 * f).max(6.0) as u32,
                internal_degree: 40.0,
                external_degree: 16.0,
                skew: None,
                seed: 0x7E17,
            }),
            Dataset::GooglePlus => planted_partition(SbmConfig {
                n: n(120_000),
                communities: (150.0 * f).max(8.0) as u32,
                internal_degree: 10.0,
                external_degree: 6.0,
                skew: Some(PowerLawConfig { alpha: 2.2, min_degree: 1, max_degree: 5_000 }),
                seed: 0x600613,
            }),
            Dataset::Twitter => {
                // R-MAT scale chosen to approximate n; power-of-two sizes.
                let scale_bits = (n(150_000) as f64).log2().ceil() as u32;
                rmat(RmatConfig::graph500(scale_bits, 24, 0x7117))
            }
            Dataset::Friendster => {
                let nn = n(160_000);
                barabasi_albert(nn, 14, 0xF12E)
            }
            Dataset::Yahoo => weblike(WeblikeConfig {
                n: n(500_000),
                hosts: (5_000.0 * f).max(64.0) as u32,
                avg_degree: 5.0,
                intra_host_fraction: 0.85,
                seed: 0x1A400,
            }),
        }
    }

    /// Builds the weighted undirected analogue that Spinner partitions:
    /// Eq. 3 conversion for directed datasets, unit weights for undirected
    /// ones.
    pub fn build_undirected(self, scale: Scale) -> UndirectedGraph {
        let d = self.build_directed(scale);
        if self.directed() {
            to_weighted_undirected(&d)
        } else {
            from_undirected_edges(&d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_build_at_tiny_scale() {
        for d in Dataset::ALL {
            let g = d.build_undirected(Scale::Tiny);
            assert!(g.num_vertices() >= 256, "{:?}", d);
            assert!(g.num_edges() > 0, "{:?}", d);
        }
    }

    #[test]
    fn twitter_analogue_is_skewed() {
        let g = Dataset::Twitter.build_directed(Scale::Tiny);
        let s = crate::stats::degree_stats(&g);
        assert!(s.skew > 10.0, "skew {}", s.skew);
    }

    #[test]
    fn tuenti_analogue_is_denser_than_livejournal() {
        let tu = Dataset::Tuenti.build_directed(Scale::Tiny);
        let lj = Dataset::LiveJournal.build_directed(Scale::Tiny);
        let d_tu = tu.num_edges() as f64 / tu.num_vertices() as f64;
        let d_lj = lj.num_edges() as f64 / lj.num_vertices() as f64;
        assert!(d_tu > 2.0 * d_lj, "tu {d_tu} lj {d_lj}");
    }

    #[test]
    fn directedness_matches_table_ii() {
        assert!(Dataset::LiveJournal.directed());
        assert!(!Dataset::Tuenti.directed());
        assert!(Dataset::GooglePlus.directed());
        assert!(Dataset::Twitter.directed());
        assert!(!Dataset::Friendster.directed());
        assert!(Dataset::Yahoo.directed());
    }

    #[test]
    fn scales_are_ordered() {
        let tiny = Dataset::LiveJournal.build_directed(Scale::Tiny);
        let small = Dataset::LiveJournal.build_directed(Scale::Small);
        assert!(small.num_vertices() > tiny.num_vertices());
    }
}
