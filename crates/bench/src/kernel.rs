//! Before/after benchmark for the compiled query kernel
//! (`BENCH_kernel.json`).
//!
//! The kernel PR replaced the map-based backtracker with
//! compiled access plans (`gtgd_query::CompiledQuery`) and made the
//! restricted chase incremental. This module re-runs the four experiment
//! series the kernel touches (E2, E9, E12, E15), pulls the headline cells
//! out of the freshly measured tables, and pairs them with the seed-commit
//! baselines recorded in EXPERIMENTS.md before the kernel landed. The
//! result is a small JSON report (`--kernel-json` on the experiments
//! binary) that makes the speedup auditable without diffing prose.

use crate::experiments::{
    e12_engine_shootout, e15_parallel_shootout, e16_incremental_maintenance, e2_chase,
    e9_chase_ablation, ExperimentTable,
};
use gtgd_data::json::escape;

/// One before/after measurement for a single experiment cell.
#[derive(Debug, Clone)]
pub struct KernelMetric {
    /// Experiment id the cell comes from (`E2`, `E9`, `E12`, `E15`).
    pub experiment: &'static str,
    /// Human-readable metric name (the source column header).
    pub metric: &'static str,
    /// Workload size (the row key, first column of the table).
    pub n: &'static str,
    /// Seed-commit time in ms (EXPERIMENTS.md, best-of-3).
    pub before_ms: f64,
    /// Freshly measured time in ms (min over adaptive repeats, same
    /// workload).
    pub after_ms: f64,
}

impl KernelMetric {
    /// Speedup factor `before / after` (∞-safe: 0 if `after` is 0).
    pub fn speedup(&self) -> f64 {
        if self.after_ms > 0.0 {
            self.before_ms / self.after_ms
        } else {
            0.0
        }
    }

    /// Worker-pool width of the measured cell (`par@N` columns), reported
    /// in the BENCH JSON under the obs metric name `pool.max_width` so the
    /// tables and [`gtgd_data::obs::RunReport`] use one vocabulary.
    pub fn pool_width(&self) -> Option<u64> {
        let (_, rest) = self.metric.split_once("par@")?;
        rest.split_whitespace().next()?.parse().ok()
    }
}

/// Finds the cell at (row with first column == `row_key`, column named
/// `col`) and parses it as milliseconds.
fn cell_ms(t: &ExperimentTable, row_key: &str, col: &str) -> f64 {
    let ci = t
        .columns
        .iter()
        .position(|c| c == col)
        .unwrap_or_else(|| panic!("{}: no column {col:?}", t.id));
    let row = t
        .rows
        .iter()
        .find(|r| r.first().is_some_and(|k| k == row_key))
        .unwrap_or_else(|| panic!("{}: no row {row_key:?}", t.id));
    row[ci]
        .parse()
        .unwrap_or_else(|_| panic!("{}: cell {row_key}/{col} is not a number", t.id))
}

/// Extracts the kernel-relevant cells from freshly measured tables,
/// pairing each with its seed-commit baseline. Split from
/// [`kernel_benchmark`] so tests can drive it with synthetic tables.
pub fn kernel_metrics(
    e2: &ExperimentTable,
    e9: &ExperimentTable,
    e12: &ExperimentTable,
    e15: &ExperimentTable,
) -> Vec<KernelMetric> {
    // Baselines: EXPERIMENTS.md as of the pre-kernel seed commit
    // (best-of-3 ms on the same container; largest workload per series).
    let spec: [(
        &'static str,
        &ExperimentTable,
        &'static str,
        &'static str,
        f64,
    ); 6] = [
        ("E9", e9, "restricted ms", "400", 236.0),
        ("E9", e9, "oblivious ms", "400", 1.9),
        ("E12", e12, "enum ms", "400", 4.74),
        ("E12", e12, "enum par@4 ms", "400", 5.28),
        ("E2", e2, "chase↓ ms", "400", 92.5),
        ("E15", e15, "chase seq ms", "400", 553.0),
    ];
    spec.iter()
        .map(|&(experiment, table, metric, n, before_ms)| KernelMetric {
            experiment,
            metric,
            n,
            before_ms,
            after_ms: cell_ms(table, n, metric),
        })
        .collect()
}

/// Extracts the incremental-maintenance cells from a freshly measured E16
/// table (DESIGN §13). Unlike [`kernel_metrics`] there is no static seed
/// baseline: the "before" is the from-scratch re-chase measured by the
/// *same* run on the same grown base, so the pair is an apples-to-apples
/// recompute-vs-maintain comparison rather than a commit-over-commit one.
pub fn maintenance_metrics(e16: &ExperimentTable) -> Vec<KernelMetric> {
    let spec: [(&'static str, &'static str); 4] = [
        ("insert 1 fact ms", "org/400"),
        ("retract 1 fact ms", "org/400"),
        ("insert 1 fact ms", "tc/120"),
        ("retract 1 fact ms", "tc/120"),
    ];
    spec.iter()
        .map(|&(metric, n)| KernelMetric {
            experiment: "E16",
            metric,
            n,
            before_ms: cell_ms(e16, n, "full re-chase ms"),
            after_ms: cell_ms(e16, n, metric),
        })
        .collect()
}

/// Runs E2, E9, E12, E15 and E16 and returns the kernel before/after
/// metrics plus the maintenance recompute-vs-maintain pairs.
pub fn kernel_benchmark() -> Vec<KernelMetric> {
    let e2 = e2_chase();
    let e9 = e9_chase_ablation();
    let e12 = e12_engine_shootout();
    let e15 = e15_parallel_shootout();
    let mut metrics = kernel_metrics(&e2, &e9, &e12, &e15);
    metrics.extend(maintenance_metrics(&e16_incremental_maintenance()));
    metrics
}

/// Renders the metrics as the `BENCH_kernel.json` document.
pub fn kernel_json(metrics: &[KernelMetric]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"description\": \"{}\",\n",
        escape(
            "Compiled query kernel: before/after timings in ms for the \
             experiment cells the kernel touches. 'before' is the \
             pre-kernel seed baseline from EXPERIMENTS.md (best-of-3); \
             'after' is measured by this run on the same workloads (min \
             over adaptive repeats). E16 rows pair differently: 'before' \
             is the from-scratch re-chase of the updated base and 'after' \
             the single-fact maintained update, both measured by this run."
        )
    ));
    out.push_str("  \"metrics\": [\n");
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let pool = m.pool_width().map_or(String::new(), |w| {
                format!(
                    ",\n      \"{}\": {w}",
                    gtgd_data::obs::Metric::PoolMaxWidth.name()
                )
            });
            format!(
                "    {{\n      \"experiment\": \"{}\",\n      \"metric\": \"{}\",\n      \
                 \"n\": \"{}\",\n      \"before_ms\": {:.3},\n      \"after_ms\": {:.3},\n      \
                 \"speedup\": {:.2}{pool}\n    }}",
                escape(m.experiment),
                escape(m.metric),
                escape(m.n),
                m.before_ms,
                m.after_ms,
                m.speedup()
            )
        })
        .collect();
    out.push_str(&items.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(id: &str, columns: &[&str], rows: &[&[&str]]) -> ExperimentTable {
        ExperimentTable {
            id: id.into(),
            title: String::new(),
            claim: String::new(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|s| s.to_string()).collect())
                .collect(),
            notes: String::new(),
        }
    }

    fn fixtures() -> (
        ExperimentTable,
        ExperimentTable,
        ExperimentTable,
        ExperimentTable,
    ) {
        let e2 = table("E2", &["n", "chase↓ ms"], &[&["400", "40.0"]]);
        let e9 = table(
            "E9",
            &["n", "oblivious ms", "restricted ms"],
            &[&["200", "1.0", "30.0"], &["400", "2.0", "59.0"]],
        );
        let e12 = table(
            "E12",
            &["grid cols", "enum ms", "enum par@4 ms"],
            &[&["400", "2.37", "2.64"]],
        );
        let e15 = table("E15", &["n", "chase seq ms"], &[&["400", "300.0"]]);
        (e2, e9, e12, e15)
    }

    #[test]
    fn extracts_largest_workload_cells() {
        let (e2, e9, e12, e15) = fixtures();
        let metrics = kernel_metrics(&e2, &e9, &e12, &e15);
        assert_eq!(metrics.len(), 6);
        let restricted = metrics
            .iter()
            .find(|m| m.experiment == "E9" && m.metric == "restricted ms")
            .unwrap();
        assert_eq!(restricted.n, "400");
        assert_eq!(restricted.before_ms, 236.0);
        assert_eq!(restricted.after_ms, 59.0);
        assert!((restricted.speedup() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn maintenance_pairs_rechase_with_incremental_cells() {
        let e16 = table(
            "E16",
            &[
                "workload/n",
                "full re-chase ms",
                "insert 1 fact ms",
                "retract 1 fact ms",
            ],
            &[
                &["org/400", "1.2", "0.01", "0.6"],
                &["tc/120", "400.0", "40.0", "20.0"],
            ],
        );
        let metrics = maintenance_metrics(&e16);
        assert_eq!(metrics.len(), 4);
        assert!(metrics.iter().all(|m| m.experiment == "E16"));
        let ins = &metrics[0];
        assert_eq!((ins.metric, ins.n), ("insert 1 fact ms", "org/400"));
        assert_eq!((ins.before_ms, ins.after_ms), (1.2, 0.01));
        assert!((ins.speedup() - 120.0).abs() < 1e-9);
        // The re-chase 'before' is shared by both ops of a workload.
        assert_eq!(metrics[1].before_ms, 1.2);
        assert_eq!(metrics[3].before_ms, 400.0);
    }

    #[test]
    fn json_is_balanced_and_complete() {
        let (e2, e9, e12, e15) = fixtures();
        let json = kernel_json(&kernel_metrics(&e2, &e9, &e12, &e15));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches("\"experiment\"").count(), 6);
        assert!(json.contains("\"before_ms\": 236.000"));
        assert!(json.contains("\"speedup\": 4.00"));
    }
}
