//! In-memory span recording for the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around its calls
//! into each layer's public functions.  Every span carries the id of the
//! request that caused it, its layer (the metric prefix: `db`, `query`,
//! `core.draw`, `core.stop`, `stream`, or `bench` for the request root)
//! and its parent span.  Per-draw work is aggregated per request into one
//! span with a total time and an event count, not one span per draw.  A
//! layer's self time is its spans' time minus the part their child spans
//! cover.  The spans stay in memory and are written out once, at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Duration;

use crate::stats::{median, ms, ratio};

/// One recorded span (or one per-request aggregate of repeated events).
#[derive(Debug, Clone)]
pub struct Span {
    /// The request that caused the span (`u32::MAX` for set-up).
    pub request: u32,
    /// Metric prefix of the layer the span times.
    pub layer: &'static str,
    /// The public call (or call group) the span surrounds.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Total time inside the span.
    pub time: Duration,
    /// How many calls the span aggregates.
    pub count: u64,
}

/// The request id of set-up spans.
pub const SETUP: u32 = u32::MAX;

/// The layer of request roots: time the benchmark spends between layer
/// calls.
pub const BENCH: &str = "bench";

/// The name of request root spans.
pub const REQUEST: &str = "request";

/// An append-only span store.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Opens a span whose time is filled in by [`Tracer::close`], so that
    /// children recorded meanwhile can name it as their parent.
    pub fn open(
        &mut self,
        request: u32,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
    ) -> usize {
        self.record(request, layer, name, parent, Duration::ZERO, 1)
    }

    /// Sets the time of a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: usize, time: Duration) {
        self.spans[span].time = time;
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        request: u32,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        time: Duration,
        count: u64,
    ) -> usize {
        self.spans.push(Span {
            request,
            layer,
            name,
            parent,
            time,
            count,
        });
        self.spans.len() - 1
    }

    /// Total time and event count of the spans called `name`, restricted
    /// to requests (set-up spans excluded).
    pub fn total(&self, name: &str) -> (Duration, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.request != SETUP)
            .fold((Duration::ZERO, 0), |(time, count), s| {
                (time + s.time, count + s.count)
            })
    }

    /// Per request, the summed time of the spans called `name`, in
    /// request order (requests without such a span are skipped).
    pub fn per_request(&self, name: &str) -> Vec<Duration> {
        let mut by_request: BTreeMap<u32, Duration> = BTreeMap::new();
        for span in self
            .spans
            .iter()
            .filter(|s| s.name == name && s.request != SETUP)
        {
            *by_request.entry(span.request).or_default() += span.time;
        }
        by_request.into_values().collect()
    }

    /// Self time per layer and request: each span's time minus its
    /// children's, summed over the spans of one layer within one request.
    /// Only spans under a `request` root count; set-up spans and
    /// out-of-request replays are left out.
    pub fn self_times(&self) -> BTreeMap<&'static str, BTreeMap<u32, Duration>> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        // Parents are recorded before their children, so one forward pass
        // resolves every span's root.
        let mut root = Vec::with_capacity(self.spans.len());
        for (index, span) in self.spans.iter().enumerate() {
            root.push(span.parent.map_or(index, |parent| root[parent]));
            if let Some(parent) = span.parent {
                children[parent] += span.time;
            }
        }
        let mut out: BTreeMap<&'static str, BTreeMap<u32, Duration>> = BTreeMap::new();
        for ((span, covered), root) in self.spans.iter().zip(children).zip(root) {
            if span.request == SETUP || self.spans[root].name != REQUEST {
                continue;
            }
            *out.entry(span.layer)
                .or_default()
                .entry(span.request)
                .or_default() += span.time.saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut text = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let request = if span.request == SETUP {
                "\"setup\"".to_string()
            } else {
                span.request.to_string()
            };
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"request\": {request}, \"layer\": \"{}\", \"name\": \"{}\", \
                 \"parent\": {parent}, \"ns\": {}, \"count\": {}}}",
                span.layer,
                span.name,
                span.time.as_nanos(),
                span.count
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Inserts the per-request median self time of the `query`, `core.draw`
/// and `core.stop` layers, and `trace.self_coverage`: the share of the
/// traced request time `traced` that the layers' self times cover.
/// Returns a line stating whether that share is within the tracing
/// overhead, `trace.overhead_ratio`, which `layer` must already hold.
pub fn insert_self_times(
    layer: &mut BTreeMap<&'static str, f64>,
    tracer: &Tracer,
    traced: Duration,
) -> String {
    let selves = tracer.self_times();
    for (name, metric) in [
        ("query", "query.self_ms"),
        ("core.draw", "core.draw.self_ms"),
        ("core.stop", "core.stop.self_ms"),
    ] {
        if let Some(per_request) = selves.get(name) {
            let values: Vec<f64> = per_request.values().copied().map(ms).collect();
            layer.insert(metric, median(&values));
        }
    }
    let covered: Duration = selves
        .iter()
        .filter(|(name, _)| **name != BENCH)
        .flat_map(|(_, per_request)| per_request.values())
        .sum();
    let coverage = ratio(covered.as_secs_f64(), traced.as_secs_f64());
    layer.insert("trace.self_coverage", coverage);
    let overhead = layer["trace.overhead_ratio"];
    let within = (1.0 - coverage).abs() <= (overhead - 1.0).abs().max(0.01);
    format!(
        "layer self times cover {coverage:.4} of the traced request time, {} the tracing \
         overhead {overhead:.4}",
        if within { "within" } else { "outside" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_within_a_request() {
        let mut tracer = Tracer::default();
        let root = tracer.open(0, BENCH, "request", None);
        let stop = tracer.record(
            0,
            "core.stop",
            "loop",
            Some(root),
            Duration::from_micros(80),
            1,
        );
        tracer.record(
            0,
            "core.draw",
            "sample",
            Some(stop),
            Duration::from_micros(50),
            10,
        );
        tracer.record(
            0,
            "query",
            "check",
            Some(stop),
            Duration::from_micros(20),
            10,
        );
        tracer.record(0, "query", "plan", Some(root), Duration::from_micros(5), 1);
        tracer.close(root, Duration::from_micros(90));
        let selves = tracer.self_times();
        assert_eq!(selves["core.stop"][&0], Duration::from_micros(10));
        assert_eq!(selves["core.draw"][&0], Duration::from_micros(50));
        assert_eq!(selves["query"][&0], Duration::from_micros(25));
        assert_eq!(selves[BENCH][&0], Duration::from_micros(5));
        assert_eq!(tracer.total("sample"), (Duration::from_micros(50), 10));
    }
}
