//! Traced experiment runs: the `--trace-json` mode of the experiments
//! binary.
//!
//! Each entry here re-runs a (small, fixed-size) slice of an experiment's
//! workload through the *facades* — [`ChaseRunner`] and [`Engine`] — inside
//! one [`obs::trace_run`] window, and keeps the resulting [`RunReport`].
//! Together the three traced experiments exercise every probe family:
//!
//! * **E9** (chase ablation): oblivious vs restricted chase — chase
//!   rounds, trigger firings, nulls created, restricted head checks, and
//!   the kernel node visits of trigger search.
//! * **E10** (hardness shape): clique enumeration under both join
//!   strategies, then again after growing the graph — WCOJ seeks and
//!   galloping steps, kernel backtracking, and dense-trie full builds
//!   *and* merge-extends (the re-run after growth extends the cached
//!   tries incrementally).
//! * **E15** (parallel shootout): the sequential chase and pool-parallel
//!   ground saturation — chase rounds and firings, pool runs/chunks/width,
//!   per-worker utilization, bag closures and memo hits.
//!
//! [`trace_json`] renders the collected reports as one JSON document,
//! composing [`RunReport::to_json`] (whose names are static identifiers)
//! with this crate's hand-rolled [`crate::json::escape`] for the
//! experiment titles.

use crate::workloads::{
    clique_cq, graph_db, org_db, path_db, plant_clique, random_graph, tc_ontology,
};
use gtgd_chase::{par_ground_saturation, parse_tgds, ChaseRunner, ChaseVariant};
use gtgd_data::obs::{self, RunReport};
use gtgd_data::GroundAtom;
use gtgd_query::{Engine, Strategy};

/// One experiment's traced run.
#[derive(Debug, Clone)]
pub struct TracedExperiment {
    /// Experiment id ("E9", "E10", "E15").
    pub id: &'static str,
    /// Human-readable description of the traced workload.
    pub title: String,
    /// The probe report of the run.
    pub report: RunReport,
}

/// E9 traced: oblivious and restricted chase of the org ontology through
/// [`ChaseRunner`].
pub fn trace_e9() -> TracedExperiment {
    let sigma =
        parse_tgds("Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D). Dept(D) -> Audited(D)")
            .unwrap();
    let db = org_db(100);
    let ((), report) = obs::trace_run(|| {
        let runner = ChaseRunner::new(&sigma);
        let obl = runner.run(&db);
        let res = runner.variant(ChaseVariant::Restricted).run(&db);
        assert!(obl.complete && res.complete);
        assert!(res.instance.len() <= obl.instance.len());
    });
    TracedExperiment {
        id: "E9",
        title: "oblivious vs restricted chase, org ontology (n=100)".into(),
        report,
    }
}

/// E10 traced: clique enumeration through [`Engine::prepare`] under both
/// join strategies, plus a morsel-parallel run, then re-run on a grown
/// graph so the incremental-maintenance path fires: the dense store
/// extends its dictionary and merge-extends its tries.
pub fn trace_e10() -> TracedExperiment {
    let mut g = random_graph(13, 0.5, 97);
    plant_clique(&mut g, 5, 13);
    let db = graph_db(&g);
    let q = clique_cq(4);
    let ((), report) = obs::trace_run(|| {
        let dense = Engine::prepare(&q).strategy(Strategy::Wcoj).answers(&db);
        let bt = Engine::prepare(&q)
            .strategy(Strategy::Backtrack)
            .answers(&db);
        assert_eq!(dense, bt, "dense WCOJ must agree with the backtracker");
        // Morsel-driven parallel enumeration (for the scheduler probes).
        let par = Engine::prepare(&q)
            .strategy(Strategy::Wcoj)
            .parallel(2)
            .answers(&db);
        assert_eq!(par, bt, "morsel-parallel WCOJ must agree");
        // Grow the trie-cached instance and enumerate again: the dense
        // dictionary and tries extend incrementally (delta-sort + merge),
        // not rebuilt.
        let mut grown = db.clone();
        for i in 0..4 {
            let a = format!("x{i}");
            let b = format!("x{}", (i + 1) % 4);
            grown.insert(GroundAtom::named("E", &[a.as_str(), b.as_str()]));
            grown.insert(GroundAtom::named("E", &[b.as_str(), a.as_str()]));
        }
        let _ = Engine::prepare(&q).strategy(Strategy::Wcoj).answers(&grown);
    });
    TracedExperiment {
        id: "E10",
        title: "clique enumeration (k=4), both strategies, then on a grown graph".into(),
        report,
    }
}

/// E15 traced: the sequential oblivious chase next to parallel ground
/// saturation.
pub fn trace_e15() -> TracedExperiment {
    let tc = tc_ontology();
    let pdb = path_db(120);
    let org = crate::workloads::org_ontology();
    let odb = org_db(200);
    let ((), report) = obs::trace_run(|| {
        let outcome = ChaseRunner::new(&tc).run(&pdb);
        assert!(outcome.complete);
        let sat = par_ground_saturation(&odb, &org, 4);
        assert!(sat.len() >= odb.len());
    });
    TracedExperiment {
        id: "E15",
        title: "sequential chase (tc) + parallel ground saturation (org, 4 workers)".into(),
        report,
    }
}

/// The traced experiments, in id order.
pub fn trace_all() -> Vec<TracedExperiment> {
    vec![trace_e9(), trace_e10(), trace_e15()]
}

/// Renders traced experiments as one JSON document:
/// `{"trace": [{"id", "title", "report"}, ...]}`.
pub fn trace_json(traced: &[TracedExperiment]) -> String {
    let mut out = String::from("{\n  \"trace\": [\n");
    for (i, t) in traced.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"id\": \"{}\",\n      \"title\": \"{}\",\n      \"report\": ",
            crate::json::escape(t.id),
            crate::json::escape(&t.title)
        ));
        // Reports indent from column 0; acceptable inside the document.
        out.push_str(&t.report.to_json());
        out.push_str("\n    }");
        if i + 1 < traced.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtgd_data::obs::Metric;
    use std::sync::Mutex;

    // obs state is process-global: traced tests must not interleave.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn e9_covers_chase_metrics() {
        let _g = GATE.lock().unwrap();
        let t = trace_e9();
        let r = &t.report;
        assert!(r.counter(Metric::ChaseRounds) > 0);
        assert!(r.counter(Metric::TriggerFirings) > 0);
        assert!(r.counter(Metric::NullsCreated) > 0);
        assert!(r.counter(Metric::RestrictedHeadChecks) > 0);
        assert!(r.counter(Metric::KernelNodes) > 0);
        assert!(r.spans.iter().any(|s| s.name == "chase.oblivious"));
        assert!(r.spans.iter().any(|s| s.name == "chase.restricted"));
    }

    #[test]
    fn e10_covers_wcoj_and_index_metrics() {
        let _g = GATE.lock().unwrap();
        let t = trace_e10();
        let r = &t.report;
        assert!(r.counter(Metric::WcojSeeks) > 0);
        assert!(r.counter(Metric::KernelNodes) > 0);
        assert!(r.counter(Metric::KernelBacktracks) > 0);
        assert!(r.counter(Metric::IndexFullBuilds) > 0);
        assert!(
            r.counter(Metric::IndexMergeExtends) > 0,
            "re-run on a grown instance must extend cached tries"
        );
        assert!(r.counter(Metric::DenseDictMisses) > 0);
        assert!(r.counter(Metric::DenseDictHits) > 0);
        assert!(
            r.counter(Metric::WcojMorselsExecuted) > 0,
            "the parallel run must schedule morsels"
        );
    }

    #[test]
    fn e15_covers_pool_and_saturation_metrics() {
        let _g = GATE.lock().unwrap();
        let t = trace_e15();
        let r = &t.report;
        assert!(r.counter(Metric::ChaseRounds) > 0);
        assert!(r.counter(Metric::TriggerFirings) > 0);
        assert!(r.counter(Metric::PoolRuns) > 0);
        assert!(r.counter(Metric::PoolChunksClaimed) > 0);
        assert_eq!(r.counter(Metric::PoolMaxWidth), 4);
        assert!(r.counter(Metric::BagClosures) > 0);
        assert!(r.spans.iter().any(|s| s.name == "chase.oblivious"));
        assert!(r.spans.iter().any(|s| s.name == "chase.saturation"));
    }

    #[test]
    fn trace_json_is_balanced() {
        let _g = GATE.lock().unwrap();
        let json = trace_json(&trace_all());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for id in ["\"E9\"", "\"E10\"", "\"E15\""] {
            assert!(json.contains(id), "{id} missing");
        }
        assert!(json.contains("\"chase.rounds\""));
        assert!(json.contains("\"wcoj.seeks\""));
        assert!(json.contains("\"index.merge_extends\""));
        assert!(json.contains("\"dense.dict_hits\""));
        assert!(json.contains("\"wcoj.morsels_executed\""));
    }
}
