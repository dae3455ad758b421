//! Std-only engine observability: gated counters, coarse latency
//! histograms, hierarchical spans, and serializable run reports.
//!
//! Every engine in the workspace (chase rounds and trigger firings,
//! saturator bag closures, the kernel backtracker, the worst-case-optimal
//! executor, the sorted-index cache, the worker pool) carries *probes* —
//! calls into this module at its interesting events. Probes are **off by
//! default**: each one compiles to a single branch on one process-global
//! `AtomicBool` ([`enabled`]), so an untraced run pays one relaxed load
//! per probe site and nothing else (measured < 3% on the E15 chase and the
//! E10 WCOJ enumeration — see DESIGN.md §10). Switching the gate on makes
//! the same probes record into lock-free global state:
//!
//! * **Counters** ([`Metric`], [`count`]) — monotonically increasing
//!   `AtomicU64`s, one per metric, `fetch_add(Relaxed)` per hit.
//! * **Histograms** ([`Hist`], [`observe`]) — 64 power-of-two buckets per
//!   metric (`bucket = floor(log2(v))`), good enough to separate "10 µs
//!   rounds" from "10 ms rounds" without any allocation on the hot path.
//! * **Spans** ([`span`]) — monotonic-clock ([`std::time::Instant`])
//!   timings with parent/child nesting, kept per thread on a thread-local
//!   stack; a span that finishes with an empty stack is a *root* and is
//!   published to the global finished list (one short mutex hold per root,
//!   never per event).
//!
//! A [`RunReport`] snapshots all three into a plain serializable tree;
//! [`RunReport::to_json`] renders it (metric and span names are `'static`
//! identifiers chosen by this workspace, so the rendering needs no string
//! escaping). The intended protocol for "trace this run" is
//! enable → [`reset`] → run → [`report`] → disable, which the
//! `ChaseRunner`/`PreparedQuery` facades and the `experiments --trace-json`
//! harness all follow. State is process-global: two *concurrently* traced
//! runs fold into one report (the counters still add up; the span forests
//! interleave), which is the right trade for a std-only layer with
//! branch-only disabled cost.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The global probe gate. All probes are branches on this flag.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether probes currently record. One relaxed load; inlined into every
/// probe site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns probe recording on or off. Callers that want a per-run report
/// follow enable → [`reset`] → run → [`report`] → disable.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// A named global counter. Every variant is one `AtomicU64` in a static
/// array; the discriminant is the array index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Semi-naive rounds completed by the oblivious chase (one-shot runs
    /// and maintenance runs alike).
    ChaseRounds,
    /// Triggers fired, across both chase engines and incremental
    /// maintenance.
    TriggerFirings,
    /// Fresh nulls invented by trigger firings.
    NullsCreated,
    /// Head-satisfaction checks (`TriggerPlan::head_satisfied`): one per
    /// trigger the restricted chase considers firing, and one per body
    /// match `tgd::satisfies` checks.
    RestrictedHeadChecks,
    /// Type evaluations run by the saturator's worklist: one per dequeued
    /// canonical type, which fires the rules on the type's closure and
    /// imports its child types' closures until nothing more is added.
    BagClosures,
    /// Saturator closure requests answered by an already interned type,
    /// whose closure is exact, without running the worklist.
    BagClosureMemoHits,
    /// Nodes visited by the kernel backtracker (`search_node` entries).
    /// A projected search (the answer methods of `PreparedQuery`) stops
    /// each answer's subtree at its first witness, so it visits fewer
    /// nodes than the full enumeration of the same body.
    KernelNodes,
    /// Exhausted candidate lists in the backtracker (a visited node whose
    /// alternatives all failed — the backtrack edges of the search tree).
    KernelBacktracks,
    /// `seek` calls on WCOJ trie cursors. A projected search stops each
    /// answer's subtree at its first witness, so it seeks less than the
    /// full enumeration of the same body.
    WcojSeeks,
    /// Galloping/binary-search steps taken inside cursor seeks.
    WcojGallopSteps,
    /// Dense tries built by a full sort.
    IndexFullBuilds,
    /// Dense tries extended by a delta sort + merge.
    IndexMergeExtends,
    /// Parallel pool invocations that actually spawned worker threads.
    PoolRuns,
    /// Work chunks claimed by pool workers.
    PoolChunksClaimed,
    /// Widest worker count any pool ran with (a high-water gauge, via
    /// [`record_max`]).
    PoolMaxWidth,
    /// Bag checks performed by the decomposition-guided evaluator.
    DecompBagChecks,
    /// Dense-dictionary encode lookups answered by an existing code.
    DenseDictHits,
    /// Dense-dictionary encode lookups that minted a fresh code.
    DenseDictMisses,
    /// Order-preserving dictionary remaps (a new value sorted before an
    /// existing one, forcing a code shift across all encoded storage).
    DenseRemaps,
    /// Morsels (bounded WCOJ sub-searches) executed by the parallel
    /// scheduler.
    WcojMorselsExecuted,
    /// Morsels claimed by a worker other than their round-robin home (the
    /// work-stealing rebalance count).
    WcojMorselsStolen,
    /// Never incremented: maintenance firings count under
    /// [`Metric::TriggerFirings`], and `MaintenanceReport::triggers_fired`
    /// counts them per operation. The variant stays because the
    /// `perfbench` harness still names it in its span counter list.
    MaintTriggersFired,
    /// Atoms placed in the DRed over-delete set during a retraction
    /// (before re-derivation rescues survivors).
    MaintAtomsOverdeleted,
    /// Over-deleted atoms rescued by an alternative surviving derivation
    /// during the DRed re-derive phase.
    MaintAtomsRederived,
    /// Serve-mode prepared-query cache hits (query answered off a warm
    /// compiled plan, skipping parse + compile).
    ServePlanHits,
    /// Serve-mode prepared-query cache misses (query parsed and compiled,
    /// then cached for the rest of the daemon's lifetime).
    ServePlanMisses,
}

impl Metric {
    /// All metrics, in report order.
    pub const ALL: [Metric; 26] = [
        Metric::ChaseRounds,
        Metric::TriggerFirings,
        Metric::NullsCreated,
        Metric::RestrictedHeadChecks,
        Metric::BagClosures,
        Metric::BagClosureMemoHits,
        Metric::KernelNodes,
        Metric::KernelBacktracks,
        Metric::WcojSeeks,
        Metric::WcojGallopSteps,
        Metric::IndexFullBuilds,
        Metric::IndexMergeExtends,
        Metric::PoolRuns,
        Metric::PoolChunksClaimed,
        Metric::PoolMaxWidth,
        Metric::DecompBagChecks,
        Metric::DenseDictHits,
        Metric::DenseDictMisses,
        Metric::DenseRemaps,
        Metric::WcojMorselsExecuted,
        Metric::WcojMorselsStolen,
        Metric::MaintTriggersFired,
        Metric::MaintAtomsOverdeleted,
        Metric::MaintAtomsRederived,
        Metric::ServePlanHits,
        Metric::ServePlanMisses,
    ];

    /// The metric's stable report name (a dotted static identifier; no
    /// characters that need JSON escaping).
    pub fn name(self) -> &'static str {
        match self {
            Metric::ChaseRounds => "chase.rounds",
            Metric::TriggerFirings => "chase.trigger_firings",
            Metric::NullsCreated => "chase.nulls_created",
            Metric::RestrictedHeadChecks => "chase.restricted_head_checks",
            Metric::BagClosures => "saturator.bag_closures",
            Metric::BagClosureMemoHits => "saturator.memo_hits",
            Metric::KernelNodes => "kernel.nodes_visited",
            Metric::KernelBacktracks => "kernel.backtracks",
            Metric::WcojSeeks => "wcoj.seeks",
            Metric::WcojGallopSteps => "wcoj.gallop_steps",
            Metric::IndexFullBuilds => "index.full_builds",
            Metric::IndexMergeExtends => "index.merge_extends",
            Metric::PoolRuns => "pool.parallel_runs",
            Metric::PoolChunksClaimed => "pool.chunks_claimed",
            Metric::PoolMaxWidth => "pool.max_width",
            Metric::DecompBagChecks => "decomp.bag_checks",
            Metric::DenseDictHits => "dense.dict_hits",
            Metric::DenseDictMisses => "dense.dict_misses",
            Metric::DenseRemaps => "dense.remaps",
            Metric::WcojMorselsExecuted => "wcoj.morsels_executed",
            Metric::WcojMorselsStolen => "wcoj.morsels_stolen",
            Metric::MaintTriggersFired => "maint.triggers_fired",
            Metric::MaintAtomsOverdeleted => "maint.atoms_overdeleted",
            Metric::MaintAtomsRederived => "maint.atoms_rederived",
            Metric::ServePlanHits => "serve.plan_hits",
            Metric::ServePlanMisses => "serve.plan_misses",
        }
    }
}

const N_METRICS: usize = Metric::ALL.len();
// A const item may be repeated into an array even though `AtomicU64` is
// not `Copy`.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTERS: [AtomicU64; N_METRICS] = [ZERO; N_METRICS];

/// Adds `n` to a counter if probes are enabled. The disabled path is one
/// relaxed load and a branch.
#[inline(always)]
pub fn count(m: Metric, n: u64) {
    if enabled() {
        COUNTERS[m as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Raises a gauge-style counter to at least `v` (used for high-water
/// values like the pool width, where adding makes no sense).
#[inline(always)]
pub fn record_max(m: Metric, v: u64) {
    if enabled() {
        COUNTERS[m as usize].fetch_max(v, Ordering::Relaxed);
    }
}

/// The current value of a counter (regardless of the gate).
pub fn counter_value(m: Metric) -> u64 {
    COUNTERS[m as usize].load(Ordering::Relaxed)
}

/// A named global log2 histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Wall time of one oblivious-chase round, in nanoseconds.
    ChaseRoundNs,
    /// Wall time of one saturator worklist step (one type evaluation), in
    /// nanoseconds.
    BagClosureNs,
    /// Wall time of one dense-trie build or merge-extend, in
    /// nanoseconds.
    IndexBuildNs,
    /// Chunks claimed by one pool worker during one parallel run (the
    /// per-worker utilization shape: a balanced run concentrates mass in
    /// one or two adjacent buckets).
    PoolWorkerChunks,
    /// Per-worker busy wall time over one morsel-driven WCOJ enumeration,
    /// in nanoseconds (one observation per worker per run — a balanced run
    /// concentrates mass in adjacent buckets).
    WcojWorkerBusyNs,
}

impl Hist {
    /// All histograms, in report order.
    pub const ALL: [Hist; 5] = [
        Hist::ChaseRoundNs,
        Hist::BagClosureNs,
        Hist::IndexBuildNs,
        Hist::PoolWorkerChunks,
        Hist::WcojWorkerBusyNs,
    ];

    /// The histogram's stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Hist::ChaseRoundNs => "chase.round_ns",
            Hist::BagClosureNs => "saturator.closure_ns",
            Hist::IndexBuildNs => "index.build_ns",
            Hist::PoolWorkerChunks => "pool.worker_chunks",
            Hist::WcojWorkerBusyNs => "wcoj.worker_busy_ns",
        }
    }
}

const N_HISTS: usize = Hist::ALL.len();
const BUCKETS: usize = 64;
#[allow(clippy::declare_interior_mutable_const)]
const ROW: [AtomicU64; BUCKETS] = [ZERO; BUCKETS];
static HISTS: [[AtomicU64; BUCKETS]; N_HISTS] = [ROW; N_HISTS];

/// Records `v` into a histogram if probes are enabled. Bucket `b` counts
/// values with `floor(log2(v)) == b` (0 counts both 0 and 1).
#[inline(always)]
pub fn observe(h: Hist, v: u64) {
    if enabled() {
        let bucket = (63 - v.max(1).leading_zeros()) as usize;
        HISTS[h as usize][bucket].fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One node of a finished span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The span's static name (workspace-chosen identifier).
    pub name: &'static str,
    /// Elapsed wall time, monotonic clock, in nanoseconds.
    pub elapsed_ns: u64,
    /// Spans opened and closed while this one was open, on this thread.
    pub children: Vec<SpanNode>,
}

struct OpenSpan {
    name: &'static str,
    started: Instant,
    children: Vec<SpanNode>,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

/// Root spans finished since the last [`reset`], in finish order.
static FINISHED: Mutex<Vec<SpanNode>> = Mutex::new(Vec::new());

/// A live span; closing happens on drop. Obtained from [`span`].
#[must_use = "a span measures the scope it is held for"]
pub struct Span {
    armed: bool,
}

/// Opens a span. When probes are disabled this is a branch and returns an
/// inert guard; when enabled, the span nests under the innermost open span
/// of the current thread and is timed until the guard drops.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { armed: false };
    }
    SPAN_STACK.with(|stack| {
        stack.borrow_mut().push(OpenSpan {
            name,
            started: Instant::now(),
            children: Vec::new(),
        });
    });
    Span { armed: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // The guard was armed, so its frame is on this thread's stack
            // (guards are droppable only in LIFO scope order).
            let Some(open) = stack.pop() else { return };
            let node = SpanNode {
                name: open.name,
                elapsed_ns: open.started.elapsed().as_nanos() as u64,
                children: open.children,
            };
            match stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => FINISHED.lock().expect("span list").push(node),
            }
        });
    }
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// One counter's snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// [`Metric::name`].
    pub name: &'static str,
    /// Value at snapshot time.
    pub value: u64,
}

/// One histogram's snapshot: only its non-empty buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// [`Hist::name`].
    pub name: &'static str,
    /// `(floor(log2(value)), count)` pairs, ascending.
    pub buckets: Vec<(u32, u64)>,
}

/// A serializable snapshot of everything the probes recorded since the
/// last [`reset`]: non-zero counters, non-empty histograms, and the forest
/// of finished root spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Non-zero counters, in [`Metric::ALL`] order.
    pub counters: Vec<CounterSnapshot>,
    /// Non-empty histograms, in [`Hist::ALL`] order.
    pub histograms: Vec<HistSnapshot>,
    /// Finished root spans, in finish order.
    pub spans: Vec<SpanNode>,
}

impl RunReport {
    /// The value of a counter in this report (0 if absent).
    pub fn counter(&self, m: Metric) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == m.name())
            .map_or(0, |c| c.value)
    }

    /// Renders the report as a JSON object. All names are static
    /// workspace-chosen identifiers without `"` or `\`, so no escaping is
    /// required; numbers are plain `u64`s.
    pub fn to_json(&self) -> String {
        fn span_json(out: &mut String, s: &SpanNode, indent: usize) {
            let pad = " ".repeat(indent);
            out.push_str(&format!(
                "{pad}{{\"name\": \"{}\", \"elapsed_ns\": {}, \"children\": [",
                s.name, s.elapsed_ns
            ));
            if s.children.is_empty() {
                out.push_str("]}");
                return;
            }
            out.push('\n');
            for (i, c) in s.children.iter().enumerate() {
                span_json(out, c, indent + 2);
                if i + 1 < s.children.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&format!("{pad}]}}"));
        }
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", c.name, c.value));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": [", h.name));
            for (j, &(b, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{{\"log2\": {b}, \"count\": {n}}}"));
            }
            out.push(']');
        }
        out.push_str("\n  },\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            span_json(&mut out, s, 4);
            if i + 1 < self.spans.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}");
        out
    }
}

/// Zeroes every counter and histogram and clears the finished-span list.
/// Does not touch the gate or any *open* span.
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for row in &HISTS {
        for b in row {
            b.store(0, Ordering::Relaxed);
        }
    }
    FINISHED.lock().expect("span list").clear();
}

/// Snapshots the probes into a [`RunReport`]. Non-destructive: call
/// [`reset`] to start the next run from zero.
pub fn report() -> RunReport {
    let counters = Metric::ALL
        .iter()
        .filter_map(|&m| {
            let value = counter_value(m);
            (value > 0).then_some(CounterSnapshot {
                name: m.name(),
                value,
            })
        })
        .collect();
    let histograms = Hist::ALL
        .iter()
        .filter_map(|&h| {
            let buckets: Vec<(u32, u64)> = HISTS[h as usize]
                .iter()
                .enumerate()
                .filter_map(|(b, c)| {
                    let n = c.load(Ordering::Relaxed);
                    (n > 0).then_some((b as u32, n))
                })
                .collect();
            (!buckets.is_empty()).then_some(HistSnapshot {
                name: h.name(),
                buckets,
            })
        })
        .collect();
    let spans = FINISHED.lock().expect("span list").clone();
    RunReport {
        counters,
        histograms,
        spans,
    }
}

/// Runs `f` with probes enabled against a clean slate and returns its
/// result together with the run's report; the gate is switched off again
/// afterwards. This is the one-call form of the
/// enable → reset → run → report → disable protocol used by the facades.
pub fn trace_run<T>(f: impl FnOnce() -> T) -> (T, RunReport) {
    set_enabled(true);
    reset();
    let out = f();
    let rep = report();
    set_enabled(false);
    (out, rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The obs state is process-global and rust test binaries run tests
    // concurrently, so every test here serializes on one lock.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = GATE.lock().unwrap();
        set_enabled(false);
        reset();
        count(Metric::ChaseRounds, 5);
        observe(Hist::ChaseRoundNs, 1024);
        drop(span("t"));
        let r = report();
        assert!(r.counters.is_empty());
        assert!(r.histograms.is_empty());
        assert!(r.spans.is_empty());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let _g = GATE.lock().unwrap();
        let ((), r) = trace_run(|| {
            count(Metric::TriggerFirings, 3);
            count(Metric::TriggerFirings, 4);
            record_max(Metric::PoolMaxWidth, 4);
            record_max(Metric::PoolMaxWidth, 2);
        });
        assert_eq!(r.counter(Metric::TriggerFirings), 7);
        assert_eq!(r.counter(Metric::PoolMaxWidth), 4);
        assert_eq!(r.counter(Metric::ChaseRounds), 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let _g = GATE.lock().unwrap();
        let ((), r) = trace_run(|| {
            observe(Hist::PoolWorkerChunks, 0); // bucket 0
            observe(Hist::PoolWorkerChunks, 1); // bucket 0
            observe(Hist::PoolWorkerChunks, 2); // bucket 1
            observe(Hist::PoolWorkerChunks, 3); // bucket 1
            observe(Hist::PoolWorkerChunks, 1 << 20); // bucket 20
        });
        let h = r
            .histograms
            .iter()
            .find(|h| h.name == "pool.worker_chunks")
            .unwrap();
        assert_eq!(h.buckets, vec![(0, 2), (1, 2), (20, 1)]);
    }

    #[test]
    fn spans_nest_and_roots_publish() {
        let _g = GATE.lock().unwrap();
        let ((), r) = trace_run(|| {
            let root = span("outer");
            {
                let _child = span("inner");
            }
            drop(root);
            let _sibling = span("second");
        });
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[0].name, "outer");
        assert_eq!(r.spans[0].children.len(), 1);
        assert_eq!(r.spans[0].children[0].name, "inner");
        assert!(r.spans[0].elapsed_ns >= r.spans[0].children[0].elapsed_ns);
        assert_eq!(r.spans[1].name, "second");
    }

    #[test]
    fn json_is_balanced_and_names_are_clean() {
        let _g = GATE.lock().unwrap();
        for m in Metric::ALL {
            assert!(!m.name().contains(['"', '\\']), "{}", m.name());
        }
        for h in Hist::ALL {
            assert!(!h.name().contains(['"', '\\']), "{}", h.name());
        }
        let ((), r) = trace_run(|| {
            count(Metric::WcojSeeks, 2);
            observe(Hist::IndexBuildNs, 4096);
            let _s = span("run");
        });
        let json = r.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"wcoj.seeks\": 2"));
        assert!(json.contains("\"index.build_ns\""));
        assert!(json.contains("\"name\": \"run\""));
    }

    #[test]
    fn reset_clears_everything() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        reset();
        count(Metric::KernelNodes, 9);
        let _ = span("x");
        reset();
        let r = report();
        set_enabled(false);
        assert!(r.counters.is_empty());
        assert!(r.spans.is_empty());
    }
}
