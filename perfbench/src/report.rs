//! The metric registry and the two output lines of a run.
//!
//! Every name the benchmark can put on its result line is declared here
//! once, with its unit; `BENCHMARK.json` lists the same names. A workload
//! sets the metrics it measures; a per-layer metric it leaves unset (its
//! layer is idle on that workload) is reported as 0 and listed under
//! `missing` with the reason.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics of an untraced run, on every workload. What an
/// "op" is depends on the workload: a read (`lubm-read`), a write
/// (`lubm-write`) or a whole batch job (`tc-batch`). Latency percentiles
/// per query class, write type and job are on the report line: on a
/// machine whose speed shifts between runs they spread wider than any
/// bound the result line may carry (see the README).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("ingest.parse_ms", "ms"),
    ("ingest.sink_ms", "ms"),
    ("ingest.atoms", "count"),
    ("chase.run_ms", "ms"),
    ("chase.fixpoint_atoms", "count"),
    ("chase.rounds", "count"),
    ("chase.trigger_firings", "count"),
    ("chase.nulls_created", "count"),
    ("maint.build_ms", "ms"),
    ("maint.build_over_run", "ratio"),
    ("maint.thaw_ms", "ms"),
    ("maint.clone_ms", "ms"),
    ("maint.insert_ms", "ms"),
    ("maint.retract_ms", "ms"),
    ("maint.triggers_fired", "count"),
    ("maint.atoms_overdeleted", "count"),
    ("maint.atoms_rederived", "count"),
    ("maint.rescue_ratio", "ratio"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.bytes", "B"),
    ("snapshot.bytes_per_atom", "B"),
    ("query.prepare_ms", "ms"),
    ("query.eval_ms.lookup", "ms"),
    ("query.eval_ms.join", "ms"),
    ("query.eval_ms.scan", "ms"),
    ("query.eval_ms.triangle", "ms"),
    ("query.answers.lookup", "count"),
    ("query.answers.join", "count"),
    ("query.answers.scan", "count"),
    ("query.answers.triangle", "count"),
    ("query.wcoj_share", "ratio"),
    ("kernel.nodes_visited", "count"),
    ("wcoj.seeks", "count"),
    ("query.plan_hit_ratio", "ratio"),
    ("serve.overhead_ms.lookup", "ms"),
    ("serve.overhead_ms.join", "ms"),
    ("serve.overhead_ms.scan", "ms"),
    ("serve.write_overhead_ms", "ms"),
    ("data.live_bytes_per_atom", "B"),
    ("data.alloc_bytes.ingest", "B"),
    ("data.alloc_bytes.chase", "B"),
    ("data.alloc_bytes.maint", "B"),
    ("data.alloc_bytes.snapshot", "B"),
    ("data.alloc_bytes.query", "B"),
    ("data.alloc_bytes.serve", "B"),
    ("index.full_builds", "count"),
    ("index.merge_extends", "count"),
    ("dense.remaps", "count"),
    ("trace.coverage.setup", "ratio"),
    ("trace.coverage.write", "ratio"),
    ("trace.coverage.job", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase (or the traced replay).
    pub attempted: u64,
    /// Error replies, transport errors and wrong answers among them.
    pub failed: u64,
    /// Result-line metrics by name (registry names only).
    metrics: BTreeMap<&'static str, f64>,
    /// Reasons for per-layer metrics left at 0.
    missing: BTreeMap<&'static str, String>,
    /// The issue-level metrics of the workload, printed on the report
    /// line: `(name, value, unit)`.
    pub detail: Vec<(String, f64, &'static str)>,
    /// Free-form facts about the run (seeds, sizes, policies, flags).
    pub notes: Vec<(String, String)>,
    /// What the correctness checks found wrong, if anything.
    pub errors: Vec<String>,
    /// Every span of a traced run, as TSV.
    pub spans_tsv: Option<String>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

impl Outcome {
    /// Sets a registry metric.
    ///
    /// # Panics
    /// If `name` is not in the registry (a bug in the benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not registered");
        self.metrics.insert(name, value);
    }

    /// Marks a per-layer metric as not measured here, with the reason.
    pub fn missing(&mut self, name: &'static str, reason: &str) {
        assert!(unit_of(name).is_some(), "metric {name} is not registered");
        self.missing.insert(name, reason.to_owned());
    }

    /// Adds a report-line metric.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.detail.push((name.to_owned(), value, unit));
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    /// Counts one failed operation, keeping the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result-line metrics for the registry `names`: every name, in
    /// registry order. An unset end-to-end metric is an error; an unset
    /// per-layer metric reads 0 and is listed as missing.
    pub fn metrics_for(
        &self,
        names: &[(&'static str, &'static str)],
        per_layer: bool,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        names
            .iter()
            .map(|&(name, unit)| match self.metrics.get(name) {
                Some(&v) if v.is_finite() => Ok((name, v, unit)),
                Some(&v) => Err(format!("metric {name} is not finite: {v}")),
                None if per_layer => Ok((name, 0.0, unit)),
                None => Err(format!("end-to-end metric {name} was not measured")),
            })
            .collect()
    }

    /// Names of unset per-layer metrics and why.
    pub fn missing_list(&self) -> Vec<(&'static str, String)> {
        PER_LAYER
            .iter()
            .filter(|(n, _)| !self.metrics.contains_key(n))
            .map(|&(n, _)| {
                let why = self
                    .missing
                    .get(n)
                    .cloned()
                    .unwrap_or_else(|| "layer idle on this workload".to_owned());
                (n, why)
            })
            .collect()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON, with all its digits (`Display` for `f64` prints the
/// shortest exact decimal and never an exponent).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn metric_object(items: impl IntoIterator<Item = (String, f64, &'static str)>) -> String {
    let body: Vec<String> = items
        .into_iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&n),
                json_num(v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (String, f64, &'static str)>,
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metric_object(metrics)
    )
}

/// The report line printed before the result: the workload's own
/// metrics, notes, missing per-layer metrics and check failures.
pub fn report_line(workload: &str, seed: u64, trace: bool, o: &Outcome) -> String {
    let notes: Vec<String> = o
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let missing: Vec<String> = if trace {
        o.missing_list()
            .iter()
            .map(|(n, why)| format!("{}: {}", json_str(n), json_str(why)))
            .collect()
    } else {
        Vec::new()
    };
    let errors: Vec<String> = o.errors.iter().map(|e| json_str(e)).collect();
    format!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"metrics\": {}, \"notes\": {{{}}}, \"missing\": {{{}}}, \"errors\": [{}]}}}}",
        json_str(workload),
        metric_object(o.detail.iter().cloned()),
        notes.join(", "),
        missing.join(", "),
        errors.join(", ")
    )
}
