//! What one run prints: a human-readable table, then, as the last line of
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`.

use std::fmt::Write as _;

/// How a metric was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Measured with a clock: varies from run to run.
    Timed,
    /// Counted: must repeat exactly across runs of one seed.
    Counted,
}

/// One named, unit-carrying measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric's registered name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples the value summarises (printed beside percentiles).
    pub samples: Option<usize>,
    /// Timed or counted.
    pub kind: Kind,
}

impl Metric {
    /// A clock-measured metric.
    pub fn timed(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            samples: None,
            kind: Kind::Timed,
        }
    }

    /// Attaches the sample count the value summarises.
    pub fn over(mut self, samples: usize) -> Self {
        self.samples = Some(samples);
        self
    }
}

/// Every per-layer metric, in print order, with its unit and kind.  Each
/// workload reports all of them; a layer a workload does not exercise
/// reads zero there.  `BENCHMARK.json` registers the same names.
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("db.ingest_ms", "ms", Kind::Timed),
    ("db.relation_index_ms", "ms", Kind::Timed),
    ("db.conflict_index_ms", "ms", Kind::Timed),
    ("db.conflict_pairs", "count", Kind::Counted),
    ("db.components", "count", Kind::Counted),
    ("db.relevant_components", "count", Kind::Counted),
    ("query.plan_ms", "ms", Kind::Timed),
    ("query.compile_ms", "ms", Kind::Timed),
    ("query.witnesses", "count", Kind::Counted),
    ("query.fallback_entries", "count", Kind::Counted),
    ("query.check_us_per_draw", "us", Kind::Timed),
    ("query.live_witnesses_per_draw", "count", Kind::Counted),
    ("query.fallback_us_per_draw", "us", Kind::Timed),
    ("query.self_ms", "ms", Kind::Timed),
    ("core.draw.build_ms", "ms", Kind::Timed),
    ("core.draw.us_per_draw", "us", Kind::Timed),
    ("core.draw.share", "ratio", Kind::Timed),
    ("core.draw.self_ms", "ms", Kind::Timed),
    ("core.stop.draws", "count", Kind::Counted),
    ("core.stop.draws_per_answer", "count", Kind::Counted),
    ("core.stop.overhead_us_per_draw", "us", Kind::Timed),
    ("core.stop.self_ms", "ms", Kind::Timed),
    ("stream.tick_ms", "ms", Kind::Timed),
    ("stream.replayed", "count", Kind::Counted),
    ("stream.estimate_ms", "ms", Kind::Timed),
    ("stream.tick_draws", "count", Kind::Counted),
    ("stream.reused_ratio", "ratio", Kind::Counted),
    ("stream.zero_draw_tick_ratio", "ratio", Kind::Counted),
    ("stream.changed_entries", "count", Kind::Counted),
    ("stream.replans", "count", Kind::Counted),
    ("trace.overhead_ratio", "ratio", Kind::Timed),
    ("trace.self_coverage", "ratio", Kind::Timed),
];

/// The per-layer metrics of [`PER_LAYER`], valued from `values` (zero for
/// a name the workload did not measure).
///
/// # Panics
/// Panics if `values` names a metric outside the registry.
pub fn per_layer(values: &std::collections::BTreeMap<&'static str, f64>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| n == name),
            "per-layer metric {name} is not registered"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit, kind)| Metric {
            kind,
            ..Metric::timed(name, unit, values.get(name).copied().unwrap_or(0.0))
        })
        .collect()
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Bank entries attempted (every entry of every request).
    pub attempted: u64,
    /// Entries that failed (see the workload modules for the rules).
    pub failed: u64,
    /// Structural checks that failed: traced replay diverging from the
    /// untraced outcome, or a windowed state diverging from its rebuild.
    pub mismatches: u64,
    /// Digest of the generated inputs (data and the counted requests'
    /// queries), which must change with the seed.
    pub inputs_digest: u64,
    /// Extra lines for the human-readable table.
    pub notes: Vec<String>,
    /// Metrics a user of the library would see.
    pub end_to_end: Vec<Metric>,
    /// End-to-end metrics printed in the table only: too noisy run to run
    /// to gate a change on.
    pub table_only: Vec<Metric>,
    /// Metrics of single layers, from the traced run.
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// Sets the end-to-end metrics every workload reports.  The p90
    /// latency goes to the table only: in a shared sandbox its spread
    /// across runs exceeds any bound a gate could use.
    pub fn set_end_to_end(
        &mut self,
        setup_s: f64,
        setup_runs: usize,
        latencies_ms: &[f64],
        answers_per_s: f64,
    ) {
        let (p50, _) = crate::stats::percentile(latencies_ms, 0.5);
        let (p90, _) = crate::stats::percentile(latencies_ms, 0.9);
        let n = latencies_ms.len();
        self.end_to_end = vec![
            Metric::timed("setup_s", "s", setup_s).over(setup_runs),
            Metric::timed("latency_p50_ms", "ms", p50).over(n),
            Metric::timed("answers_per_s", "1/s", answers_per_s).over(n),
            Metric::timed("peak_rss_mb", "MB", crate::stats::peak_rss_mb()),
        ];
        self.table_only = vec![Metric::timed("latency_p90_ms", "ms", p90).over(n)];
    }

    /// `true` iff no entry failed and every structural check held.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.mismatches == 0
    }

    /// Prints the table and the final JSON line; the JSON carries the
    /// end-to-end metrics, or with `trace` the per-layer ones.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perfbench workload={workload} seed={seed} trace={}",
            u8::from(trace)
        );
        for metric in self
            .end_to_end
            .iter()
            .chain(&self.table_only)
            .chain(&self.per_layer)
        {
            let samples = match (metric.name, metric.samples) {
                ("latency_p90_ms", Some(n)) => {
                    let beyond = crate::stats::beyond(n, 0.9);
                    let resolved = if beyond >= 10 { "" } else { ", unresolved" };
                    format!("  (n={n}, {beyond} beyond{resolved})")
                }
                (_, Some(n)) => format!("  (n={n})"),
                (_, None) => String::new(),
            };
            let _ = writeln!(
                out,
                "  {:<34} {:>16} {}{samples}",
                metric.name,
                format!("{:.4}", metric.value),
                metric.unit
            );
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>16} (failed {} of {} attempted entries)",
            "failed_ratio",
            format!(
                "{:.4}",
                crate::stats::ratio(self.failed as f64, self.attempted as f64)
            ),
            self.failed,
            self.attempted
        );
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        let _ = writeln!(out, "inputs_digest {:016x}", self.inputs_digest);
        for metric in self.per_layer.iter().filter(|m| m.kind == Kind::Counted) {
            let _ = writeln!(out, "count {} {}", metric.name, metric.value);
        }
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        );
        print!("{out}");
    }
}

/// A finite JSON number with every digit of the measurement.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}
