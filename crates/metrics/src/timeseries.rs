//! Per-window quality trajectories for streaming workloads.
//!
//! A dynamic-graph session produces one `(φ, ρ, migration fraction)` point
//! per re-convergence window; [`Trajectory`] collects those points, exposes
//! the aggregates the quality gates check (worst balance, locality floor,
//! movement averages), and renders the series as JSON for the experiment
//! reports.

/// One window's quality observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPoint {
    /// Window index (0 is the bootstrap partitioning).
    pub window: u32,
    /// Ratio of local edges φ at convergence.
    pub phi: f64,
    /// Maximum normalized load ρ at convergence.
    pub rho: f64,
    /// Fraction of pre-window vertices that changed partition.
    pub migration_fraction: f64,
    /// Share of the window's messages that stayed worker-local — the
    /// placement-locality series a label-driven placement is meant to push
    /// towards φ (1.0 for a window that exchanged no messages).
    pub local_share: f64,
    /// Fraction of the graph's vertices whose hosted state this window
    /// recovered after a worker loss (0.0 for every ordinary window, so
    /// recovery windows stand out in the series).
    pub lost_fraction: f64,
    /// Mean fraction of vertices actually computed per superstep — the
    /// active-set scheduler's cost series. 1.0 means every superstep
    /// visited the whole graph; delta windows, whose settled vertices sleep
    /// after the first scores superstep, should sit below it, scaling the
    /// window's cost with churn rather than |V|.
    pub active_fraction: f64,
    /// Frames the reliable transport layer re-published during the window
    /// (0 on a clean wire or the direct in-memory path), so lossy-wire
    /// windows stand out in the series.
    pub retransmits: u64,
}

/// A φ/ρ/migration time series across stream windows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trajectory {
    points: Vec<WindowPoint>,
}

impl Trajectory {
    /// An empty trajectory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a window's observation.
    pub fn push(&mut self, point: WindowPoint) {
        self.points.push(point);
    }

    /// The recorded points, in window order.
    pub fn points(&self) -> &[WindowPoint] {
        &self.points
    }

    /// Number of recorded windows.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no window has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last recorded point.
    pub fn last(&self) -> Option<&WindowPoint> {
        self.points.last()
    }

    /// The worst (largest) ρ across all windows (1.0 when empty).
    pub fn max_rho(&self) -> f64 {
        self.points.iter().map(|p| p.rho).fold(1.0, f64::max)
    }

    /// The worst (smallest) φ across all windows (1.0 when empty).
    pub fn min_phi(&self) -> f64 {
        self.points.iter().map(|p| p.phi).fold(1.0, f64::min)
    }

    /// Mean migration fraction over the *post-bootstrap* windows — the
    /// steady-state movement cost of staying adapted. 0.0 with fewer than
    /// two windows.
    pub fn mean_migration_fraction(&self) -> f64 {
        let tail = &self.points[self.points.len().min(1)..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|p| p.migration_fraction).sum::<f64>() / tail.len() as f64
    }

    /// The largest post-bootstrap migration fraction (0.0 with fewer than
    /// two windows).
    pub fn max_migration_fraction(&self) -> f64 {
        self.points[self.points.len().min(1)..]
            .iter()
            .map(|p| p.migration_fraction)
            .fold(0.0, f64::max)
    }

    /// Mean per-superstep active fraction over the *post-bootstrap*
    /// windows — the steady-state compute cost of staying adapted, in
    /// units of full-graph sweeps. The bootstrap is skipped because it
    /// necessarily computes everything. 0.0 with fewer than two windows.
    pub fn mean_active_fraction(&self) -> f64 {
        let tail = &self.points[self.points.len().min(1)..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|p| p.active_fraction).sum::<f64>() / tail.len() as f64
    }

    /// The largest post-bootstrap active fraction (0.0 with fewer than two
    /// windows) — the gate that catches a single window regressing to a
    /// full-graph sweep even when the mean stays low.
    pub fn max_active_fraction(&self) -> f64 {
        self.points[self.points.len().min(1)..]
            .iter()
            .map(|p| p.active_fraction)
            .fold(0.0, f64::max)
    }

    /// Renders the series as a JSON array of per-window objects (the format
    /// embedded in the streaming experiment report).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, p) in self.points.iter().enumerate() {
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"window\": {}, \"phi\": {:.6}, \"rho\": {:.6}, \
                 \"migration_fraction\": {:.6}, \"local_share\": {:.6}, \
                 \"lost_fraction\": {:.6}, \"active_fraction\": {:.6}, \
                 \"retransmits\": {}}}{sep}\n",
                p.window,
                p.phi,
                p.rho,
                p.migration_fraction,
                p.local_share,
                p.lost_fraction,
                p.active_fraction,
                p.retransmits
            ));
        }
        out.push_str("  ]");
        out
    }
}

impl FromIterator<WindowPoint> for Trajectory {
    fn from_iter<I: IntoIterator<Item = WindowPoint>>(iter: I) -> Self {
        Self { points: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(window: u32, phi: f64, rho: f64, moved: f64) -> WindowPoint {
        WindowPoint {
            window,
            phi,
            rho,
            migration_fraction: moved,
            local_share: 0.25,
            lost_fraction: 0.0,
            active_fraction: 1.0,
            retransmits: 0,
        }
    }

    fn sample() -> Trajectory {
        [point(0, 0.70, 1.04, 1.0), point(1, 0.72, 1.08, 0.10), point(2, 0.71, 1.05, 0.06)]
            .into_iter()
            .collect()
    }

    #[test]
    fn aggregates_skip_the_bootstrap_window() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!((t.max_rho() - 1.08).abs() < 1e-12);
        assert!((t.min_phi() - 0.70).abs() < 1e-12);
        // Bootstrap's migration_fraction = 1.0 must not poison the mean.
        assert!((t.mean_migration_fraction() - 0.08).abs() < 1e-12);
        assert!((t.max_migration_fraction() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn empty_trajectory_has_neutral_aggregates() {
        let t = Trajectory::new();
        assert!(t.is_empty());
        assert_eq!(t.max_rho(), 1.0);
        assert_eq!(t.min_phi(), 1.0);
        assert_eq!(t.mean_migration_fraction(), 0.0);
        assert_eq!(t.max_migration_fraction(), 0.0);
        assert_eq!(t.mean_active_fraction(), 0.0);
        assert_eq!(t.max_active_fraction(), 0.0);
    }

    #[test]
    fn single_window_has_no_steady_state_tail() {
        let mut t = Trajectory::new();
        t.push(point(0, 0.8, 1.02, 1.0));
        assert_eq!(t.mean_migration_fraction(), 0.0);
    }

    /// Delta windows keep the active series far below the dense bootstrap;
    /// both aggregates skip the bootstrap window, whose
    /// full sweep is structural.
    #[test]
    fn active_fraction_aggregates_skip_the_bootstrap() {
        let mut t = Trajectory::new();
        t.push(WindowPoint { active_fraction: 1.0, ..point(0, 0.7, 1.04, 1.0) });
        t.push(WindowPoint { active_fraction: 0.08, ..point(1, 0.72, 1.05, 0.1) });
        t.push(WindowPoint { active_fraction: 0.12, ..point(2, 0.73, 1.05, 0.05) });
        assert!((t.mean_active_fraction() - 0.10).abs() < 1e-12);
        assert!((t.max_active_fraction() - 0.12).abs() < 1e-12);
    }

    #[test]
    fn json_lists_every_window() {
        let json = sample().to_json();
        assert_eq!(json.matches("\"window\"").count(), 3);
        assert!(json.contains("\"phi\": 0.700000"));
        assert!(json.contains("\"migration_fraction\": 0.060000"));
        assert!(json.contains("\"local_share\": 0.250000"));
        assert!(json.contains("\"active_fraction\": 1.000000"));
        assert!(json.contains("\"retransmits\": 0"));
        assert!(json.starts_with("[\n") && json.ends_with(']'));
        // Exactly two separators for three entries.
        assert_eq!(json.matches("},\n").count(), 2);
    }
}
