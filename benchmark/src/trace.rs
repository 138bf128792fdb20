//! In-memory span recorder for the `--trace` run.
//!
//! The benchmark re-assembles each top-level entry point from the public
//! functions beneath it and wraps every call in a span, so each layer is
//! timed from outside the program. Spans stay in memory until the run ends
//! and are then written to `out/trace-<workload>.json`.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the crate the call lands in.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by all spans of one op (or one set-up repetition).
    pub op: u32,
    /// A probe repeats an inner public function on the same input beside a
    /// monolith that cannot be split from outside. It is work the program
    /// does not do twice, so it is left out of self-time arithmetic.
    pub probe: bool,
    /// Work items the span covers (1 for a plain call; the number of lookup
    /// batches for an aggregate interval span).
    pub count: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread; other threads hand their intervals in through
/// [`Tracer::record`] after the fact, stamped against [`Tracer::origin`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    /// The instant all span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next op: spans recorded from here on carry the returned id.
    pub fn next_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    /// Times `f` as a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.timed(name, false, f)
    }

    /// Like [`Self::span`], flagged as a probe.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, true, |_| f())
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        probe: bool,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
            probe,
            count: 1,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Adds a finished top-level span measured elsewhere (another thread, or
    /// an aggregate over many calls).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, count: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op: self.op,
            probe: false,
            count,
        });
    }

    /// All spans, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Milliseconds of every span named `name`, one entry per span.
    pub fn each_ms(&self, name: &str) -> Vec<f64> {
        let named = self.spans.iter().filter(|s| s.name == name);
        named.map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    /// Milliseconds spent in spans named `name`, summed per op, one entry per
    /// op that has such a span.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: Vec<(u32, u64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match by_op.last_mut() {
                Some((op, ns)) if *op == s.op => *ns += s.duration_ns(),
                _ => by_op.push((s.op, s.duration_ns())),
            }
        }
        by_op.into_iter().map(|(_, ns)| ns as f64 / 1e6).collect()
    }

    /// Median of [`Self::per_op_ms`], or 0 when no op has such a span (a layer
    /// the workload does not drive).
    pub fn median_ms(&self, name: &str) -> f64 {
        crate::stats::median_or_zero(&self.per_op_ms(name))
    }

    /// Self time of span `id`: its duration minus the part of its interval
    /// that its non-probe child spans cover (overlapping children count
    /// once).
    pub fn self_ns(&self, id: u32) -> u64 {
        let me = &self.spans[id as usize];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id) && !s.probe)
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = me.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        me.duration_ns() - covered
    }

    /// Self time in milliseconds of every span named `name`, one per span.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len() as u32)
            .filter(|&i| self.spans[i as usize].name == name)
            .map(|i| self.self_ns(i) as f64 / 1e6)
            .collect()
    }

    /// The trace file's contents: one JSON object holding every span and the
    /// caller's extra top-level members (`extra` is spliced in verbatim, e.g.
    /// `"histogram": [...]`; empty for none).
    pub fn to_json(&self, workload: &str, seed: u64, extra: &str) -> String {
        let mut out = String::with_capacity(64 + 128 * self.spans.len());
        let _ = write!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed}, ");
        if !extra.is_empty() {
            let _ = write!(out, "{extra}, ");
        }
        out.push_str("\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}, \"probe\": {}, \"count\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.probe, s.count
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

/// Log-bucketed latency histogram: four buckets per power of two, so a
/// bucket's bounds are within 19 % of each other at any magnitude. Keeps the
/// shape of a distribution with hundreds of thousands of samples in a few
/// dozen counters.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram covering the whole `u64` range.
    pub fn new() -> Self {
        Self { counts: vec![0; 64 * 4] }
    }

    fn bucket(ns: u64) -> usize {
        let ns = ns.max(1);
        let octave = 63 - ns.leading_zeros() as usize;
        // The two bits below the leading one split the octave in four.
        let quarter = if octave >= 2 { (ns >> (octave - 2)) & 3 } else { 0 };
        octave * 4 + quarter as usize
    }

    /// Inclusive lower bound of bucket `b` in nanoseconds.
    fn lower_bound(b: usize) -> u64 {
        let (octave, quarter) = (b / 4, (b % 4) as u64);
        if octave >= 2 {
            (4 + quarter) << (octave - 2)
        } else {
            1 << octave
        }
    }

    /// Counts one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
    }

    /// `"histogram": [[lower_bound_ns, count], ...]` over non-empty buckets.
    pub fn to_json_member(&self) -> String {
        let cells: Vec<String> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, c)| format!("[{}, {c}]", Self::lower_bound(b)))
            .collect();
        format!("\"histogram_unit\": \"ns\", \"histogram\": [{}]", cells.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans (times in ns).
    fn tracer(spans: &[(&'static str, u64, u64, Option<u32>, bool)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, start_ns, end_ns, parent, probe) in spans {
            t.spans.push(Span { name, start_ns, end_ns, parent, op: 1, probe, count: 1 });
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let t = tracer(&[
            ("root", 0, 100, None, false),
            ("a", 10, 40, Some(0), false),
            ("a.inner", 15, 35, Some(1), false),
            ("b", 50, 90, Some(0), false),
        ]);
        // Grandchildren are the child's business, not the root's.
        assert_eq!(t.self_ns(0), 100 - 30 - 40);
        assert_eq!(t.self_ns(1), 30 - 20);
        assert_eq!(t.self_ns(2), 20);
    }

    #[test]
    fn self_time_ignores_probes_and_counts_overlap_once() {
        let t = tracer(&[
            ("root", 0, 100, None, false),
            ("child", 10, 60, Some(0), false),
            ("overlapping", 40, 80, Some(0), false),
            ("probe", 80, 100, Some(0), true),
            ("spills", 90, 120, Some(0), false),
        ]);
        // Children cover [10, 80) and, clipped to the root, [90, 100); the
        // probe's 20 ns stay with the root.
        assert_eq!(t.self_ns(0), 100 - 70 - 10);
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::new();
        t.next_op();
        let v = t.span("outer", |t| t.span("inner", |_| 7) + t.probe("peek", || 1));
        assert_eq!(v, 8);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent, s.probe)).collect();
        assert_eq!(
            names,
            [("outer", None, false), ("inner", Some(0), false), ("peek", Some(0), true)]
        );
        assert!(t.spans()[0].end_ns >= t.spans()[2].end_ns);
        assert_eq!(t.per_op_ms("outer").len(), 1);
        assert_eq!(t.median_ms("outer"), t.per_op_ms("outer")[0]);
        assert_eq!(t.median_ms("absent"), 0.0);
    }

    #[test]
    fn per_op_sums_repeated_spans_within_an_op() {
        let mut t = tracer(&[("clone", 0, 10, None, false), ("clone", 20, 50, None, false)]);
        t.spans.push(Span {
            name: "clone",
            start_ns: 60,
            end_ns: 61,
            parent: None,
            op: 2,
            probe: false,
            count: 1,
        });
        assert_eq!(t.per_op_ms("clone"), [40e-6, 1e-6]);
        assert_eq!(t.each_ms("clone"), [10e-6, 30e-6, 1e-6]);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in [1u64, 2, 3, 4, 5, 7, 8, 100, 1_000, 32_000, 1 << 40] {
            let b = LogHistogram::bucket(ns);
            assert!(b >= last, "bucket order at {ns}");
            last = b;
            let lo = LogHistogram::lower_bound(b);
            assert!(lo <= ns && ns < lo + lo / 4 + 1 + (lo < 4) as u64, "{ns} in [{lo}, ..)");
        }
        let mut h = LogHistogram::new();
        h.record(31_000);
        h.record(33_000);
        h.record(0);
        assert_eq!(h.counts.iter().sum::<u64>(), 3);
        assert!(h.to_json_member().contains("[28672, 1], [32768, 1]"));
    }

    #[test]
    fn trace_json_has_one_object_per_span() {
        let t = tracer(&[("root", 0, 5, None, false), ("kid", 1, 2, Some(0), true)]);
        let json = t.to_json("w", 3, "\"x\": 1");
        assert!(json.starts_with("{\"workload\": \"w\", \"seed\": 3, \"x\": 1, \"spans\": ["));
        assert_eq!(json.matches("\"name\"").count(), 2);
        assert!(json.contains("\"parent\": 0, \"op\": 1, \"probe\": true"));
    }
}
