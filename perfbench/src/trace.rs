//! Spans recorded from the outside, around calls into the toolkit's public
//! functions: name, start, end, parent and op id, plus the bytes allocated
//! and the `gtgd_data::obs` counters that moved while the span was open.
//! Spans stay in memory and are written out once, at the end of the run.
//!
//! The traced run is single-threaded: one span is open per layer call, and
//! the daemon thread works only while the bench thread waits on its reply,
//! so the process-global allocation and obs counters read at the span
//! boundaries belong to that span alone.

use crate::alloc;
use crate::report::Outcome;
use gtgd_data::obs::{self, Metric};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The obs counters read at every span boundary.
pub const COUNTERS: [Metric; 11] = [
    Metric::ChaseRounds,
    Metric::TriggerFirings,
    Metric::NullsCreated,
    Metric::KernelNodes,
    Metric::WcojSeeks,
    Metric::IndexFullBuilds,
    Metric::IndexMergeExtends,
    Metric::DenseRemaps,
    Metric::MaintTriggersFired,
    Metric::MaintAtomsOverdeleted,
    Metric::MaintAtomsRederived,
];

/// Layers for `data.alloc_bytes.<layer>`, keyed by span-name prefix.
pub const LAYERS: [&str; 6] = ["ingest", "chase", "maint", "snapshot", "query", "serve"];

/// A parent whose children explain less than this share of it is flagged.
pub const COVERAGE_FLAG: f64 = 0.9;

struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    alloc: u64,
    counts: [u64; COUNTERS.len()],
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    /// Time covered by child spans, for spans that have children.
    pub child_ms: f64,
    /// Total time of the spans that have children.
    pub parent_ms: f64,
}

impl NameStats {
    /// Share of the parent spans' time their children explain, if any of
    /// the spans has children.
    pub fn coverage(&self) -> Option<f64> {
        (self.parent_ms > 0.0).then(|| self.child_ms / self.parent_ms)
    }
}

/// The span recorder. Creating one switches the obs probes and allocation
/// counting on; dropping it switches them off again.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    op: u64,
}

fn counters_now() -> [u64; COUNTERS.len()] {
    COUNTERS.map(obs::counter_value)
}

impl Tracer {
    pub fn new() -> Tracer {
        obs::set_enabled(true);
        alloc::set_counting(true);
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new operation; later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let counts0 = counters_now();
        let alloc0 = alloc::allocated_bytes();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            alloc: 0,
            counts: [0; COUNTERS.len()],
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        let counts1 = counters_now();
        let rec = &mut self.spans[idx];
        rec.end_ns = end_ns;
        rec.alloc = alloc::allocated_bytes() - alloc0;
        for (k, c) in rec.counts.iter_mut().enumerate() {
            *c = counts1[k] - counts0[k];
        }
        out
    }

    /// Runs `f` with the probes and allocation counting off, timed by a
    /// bare clock: the untraced twin of a traced call, for
    /// `trace.overhead`.
    pub fn untraced<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        obs::set_enabled(false);
        alloc::set_counting(false);
        let t = Instant::now();
        let out = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        alloc::set_counting(true);
        obs::set_enabled(true);
        (out, ms)
    }

    fn ms(rec: &SpanRec) -> f64 {
        (rec.end_ns - rec.start_ns) as f64 / 1e6
    }

    /// Durations of every span called `name`, in ms, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::ms)
            .collect()
    }

    /// Duration of the last span called `name` (0 if none).
    pub fn last_ms(&self, name: &str) -> f64 {
        self.durations(name).last().copied().unwrap_or(0.0)
    }

    /// Sum of counter `m` over the spans whose name starts with `prefix`
    /// (no span of such a name may nest in another).
    pub fn counter(&self, prefix: &str, m: Metric) -> u64 {
        let k = COUNTERS
            .iter()
            .position(|&c| c == m)
            .expect("counter is read at span boundaries");
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.counts[k])
            .sum()
    }

    /// Sum of counter `m` over root spans: everything the run recorded.
    pub fn counter_total(&self, m: Metric) -> u64 {
        let k = COUNTERS
            .iter()
            .position(|&c| c == m)
            .expect("counter is read at span boundaries");
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.counts[k])
            .sum()
    }

    /// Per-name aggregates: count, total, self time (duration minus the
    /// time its children cover) and child coverage.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += Self::ms(s);
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            let ms = Self::ms(s);
            e.count += 1;
            e.total_ms += ms;
            e.self_ms += ms - child_ms[i];
            if child_ms[i] > 0.0 {
                e.child_ms += child_ms[i];
                e.parent_ms += ms;
            }
        }
        out
    }

    /// Bytes allocated by each layer: every span's own allocations (minus
    /// its children's) credited to the layer its name starts with.
    pub fn alloc_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| i128::from(s.alloc)).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= i128::from(s.alloc);
            }
        }
        let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
        for (s, bytes) in self.spans.iter().zip(own) {
            let layer = s.name.split('.').next().unwrap_or("");
            if let Some(total) = out.get_mut(layer) {
                *total += bytes.max(0) as u64;
            }
        }
        out
    }

    /// Every span as one tab-separated line:
    /// `id parent op name start_ns end_ns alloc_bytes`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\talloc_bytes\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, s.alloc
            );
        }
        out
    }
}

impl Tracer {
    /// Files the span table into `o`: one note per span name (count,
    /// total, self time, child coverage), a flag for every parent its
    /// children explain less than [`COVERAGE_FLAG`] of, and every span as
    /// TSV for the run to write out.
    pub fn summarize(&self, o: &mut Outcome) {
        for (name, s) in self.by_name() {
            let coverage = s.coverage();
            let cov = coverage.map_or("-".to_owned(), |c| format!("{c:.3}"));
            o.note(
                &format!("span.{name}"),
                format!(
                    "n={} total_ms={:.3} self_ms={:.3} coverage={cov}",
                    s.count, s.total_ms, s.self_ms
                ),
            );
            if coverage.is_some_and(|c| c < COVERAGE_FLAG) {
                o.note(
                    &format!("flag.{name}"),
                    format!("children explain {cov} of it"),
                );
            }
        }
        o.spans_tsv = Some(self.to_tsv());
    }
}

/// Runs `f` as a span called `name` when a tracer is given, bare
/// otherwise: one code path for the untraced and the traced run.
pub fn step<T>(t: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        obs::set_enabled(false);
        alloc::set_counting(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_coverage_follow_nesting() {
        let mut t = Tracer::new();
        t.span("setup", |t| {
            t.span("ingest.parse", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            std::thread::sleep(std::time::Duration::from_millis(4));
        });
        drop(t.span("chase.run", |_| vec![0u8; 1 << 16]));
        let stats = t.by_name();
        let setup = &stats["setup"];
        let cov = setup.coverage().expect("setup has a child");
        assert!(cov > 0.2 && cov < 0.9, "{cov}");
        assert!(setup.self_ms >= 3.0 && setup.self_ms < setup.total_ms);
        assert_eq!(stats["chase.run"].coverage(), None);
        assert!(t.alloc_by_layer()["chase"] >= 1 << 16);
        assert_eq!(t.to_tsv().lines().count(), 4);
    }
}
