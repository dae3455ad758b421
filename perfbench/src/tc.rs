//! `tc-batch`: the one-shot batch path, back to back. Each job parses a
//! random DAG's fact text, runs the plain oblivious chase of the E15 rule
//! `E(X,Y),E(Y,Z) -> E(X,Z)` to its fixpoint (the transitive closure),
//! prepares two queries and answers them. This is a full TGD, not a
//! guarded one: the join-heavy chase stressor next to the linear LUBM
//! rules.

use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::{step, Tracer};
use crate::{alloc, mix, Run, Stop, READS};
use gtgd_chase::{parse_tgds, ChaseBudget, ChaseRunner, Tgd};
use gtgd_data::obs::Metric;
use gtgd_data::parse_facts;
use gtgd_data::rng::Rng;
use gtgd_query::{parse_cq, CompiledQuery, Engine};
use std::collections::HashSet;
use std::time::Instant;

/// The E15 transitive-closure rule.
pub const RULE: &str = "E(X,Y), E(Y,Z) -> E(X,Z)";
/// Triangles in the closure (cyclic: the planner routes it to WCOJ).
pub const TRIANGLE: &str = "Q(X) :- E(X,Y), E(Y,Z), E(X,Z)";
/// Everything reachable from `v0` (acyclic: the backtracker).
pub const LOOKUP: &str = "Q(Y) :- E(v0,Y)";

/// One generated DAG: its fact text and its edges.
pub struct Dag {
    pub text: String,
    pub edges: Vec<(usize, usize)>,
    pub nodes: usize,
}

/// A DAG on `nodes` vertices with exactly `edges` distinct edges `vi → vj`
/// (`i < j`), drawn uniformly: G(n, m), so the size does not vary with the
/// seed.
pub fn dag(nodes: usize, edges: usize, seed: u64) -> Dag {
    let mut rng = Rng::seed(seed);
    let mut seen = HashSet::new();
    let mut list = Vec::with_capacity(edges);
    while list.len() < edges {
        let a = rng.below(nodes as u64) as usize;
        let b = rng.below(nodes as u64) as usize;
        let e = (a.min(b), a.max(b));
        if a != b && seen.insert(e) {
            list.push(e);
        }
    }
    let text = list
        .iter()
        .map(|(a, b)| format!("E(v{a},v{b}).\n"))
        .collect();
    Dag {
        text,
        edges: list,
        nodes,
    }
}

/// What a job reports: fixpoint size and the two answer counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobResult {
    fixpoint: usize,
    triangles: usize,
    reach: usize,
}

fn budget() -> ChaseBudget {
    ChaseBudget::unbounded()
}

/// One whole job. With a tracer, each step is a child span of `job`.
fn job(text: &str, tgds: &[Tgd], t: Option<&mut Tracer>) -> Result<JobResult, String> {
    let steps = |t: &mut Option<&mut Tracer>| -> Result<JobResult, String> {
        let db = step(t, "ingest.parse", || parse_facts(text)).map_err(|e| e.to_string())?;
        let out = step(t, "chase.run", || {
            ChaseRunner::new(tgds).budget(budget()).run(&db)
        });
        let prep = |q: &str| {
            parse_cq(q)
                .map(|cq| Engine::prepare(&cq))
                .map_err(|e| e.to_string())
        };
        let tri = step(t, "query.prepare", || prep(TRIANGLE))?;
        let look = step(t, "query.prepare", || prep(LOOKUP))?;
        let triangles = step(t, "query.eval.triangle", || {
            tri.answers(&out.instance).len()
        });
        let reach = step(t, "query.eval.lookup", || look.answers(&out.instance).len());
        Ok(JobResult {
            fixpoint: out.instance.len(),
            triangles,
            reach,
        })
    };
    match t {
        Some(t) => t.span("job", |t| steps(&mut Some(t))),
        None => steps(&mut None),
    }
}

/// `reach[x][y]`: whether `y` is reachable from `x` by a non-empty path,
/// by a graph search per vertex.
fn reachability(d: &Dag) -> Vec<Vec<bool>> {
    let mut succ = vec![Vec::new(); d.nodes];
    for &(a, b) in &d.edges {
        succ[a].push(b);
    }
    (0..d.nodes)
        .map(|s| {
            let mut seen = vec![false; d.nodes];
            let mut stack = succ[s].clone();
            while let Some(v) = stack.pop() {
                if !seen[v] {
                    seen[v] = true;
                    stack.extend(&succ[v]);
                }
            }
            seen
        })
        .collect()
}

fn closure_size(reach: &[Vec<bool>]) -> usize {
    reach.iter().flatten().filter(|&&r| r).count()
}

/// The reference result, by graph search instead of the chase: the
/// closure size, the reach of `v0`, and the triangle answers by brute
/// force over the closure.
fn reference(d: &Dag) -> JobResult {
    let reach = reachability(d);
    let fixpoint = closure_size(&reach);
    let triangles = (0..d.nodes)
        .filter(|&x| {
            (0..d.nodes).any(|y| reach[x][y] && (0..d.nodes).any(|z| reach[y][z] && reach[x][z]))
        })
        .count();
    // A DAG without edges leaves `v0` out of the fact text, so the lookup
    // answers nothing either way.
    let reach0 = reach
        .first()
        .map_or(0, |r| r.iter().filter(|&&r| r).count());
    JobResult {
        fixpoint,
        triangles,
        reach: reach0,
    }
}

/// The chase's work on a DAG: its triggers, one per path `x → y → z` in
/// the closure. The triangle query's homomorphisms are the same paths.
fn chase_work(reach: &[Vec<bool>]) -> usize {
    let n = reach.len();
    (0..n)
        .map(|y| {
            let ins = (0..n).filter(|&x| reach[x][y]).count();
            let outs = reach[y].iter().filter(|&&r| r).count();
            ins * outs
        })
        .sum()
}

/// DAG `k` of a run: the first DAG drawn from seeds derived from
/// `(seed, k)` whose [`chase_work`] lies within 1% of `target`. The edges
/// vary with the seed; the work a job does, and so its cost, does not.
fn pinned_dag(nodes: usize, edges: usize, seed: u64, k: u64, target: usize) -> Dag {
    let mut best: Option<(usize, Dag)> = None;
    for j in 0..10_000 {
        let d = dag(nodes, edges, mix(seed, (k << 32) + j));
        let gap = chase_work(&reachability(&d)).abs_diff(target);
        if gap * 100 <= target {
            return d;
        }
        if best.as_ref().is_none_or(|(g, _)| gap < *g) {
            best = Some((gap, d));
        }
    }
    best.expect("at least one candidate").1
}

/// The work the DAGs are pinned to: the median over 31 DAGs drawn from
/// fixed seeds at this scale.
fn target_work(nodes: usize, edges: usize) -> usize {
    let mut work: Vec<usize> = (0..31)
        .map(|i| chase_work(&reachability(&dag(nodes, edges, mix(0x7c, i)))))
        .collect();
    work.sort_unstable();
    work[work.len() / 2]
}

fn write_inputs(run: &Run) -> Result<Vec<(Dag, std::path::PathBuf)>, String> {
    let (nodes, edges) = (run.scale.tc_nodes, run.scale.tc_edges);
    let target = target_work(nodes, edges);
    (0..run.scale.tc_dags)
        .map(|k| {
            let d = pinned_dag(nodes, edges, run.seed, k as u64, target);
            let path = run.dir.join(format!("dag{k}.facts"));
            std::fs::write(&path, &d.text).map_err(|e| format!("write {}: {e}", path.display()))?;
            Ok((d, path))
        })
        .collect()
}

/// Set-up: read every input file, parse the rule and run one warm-up job
/// per input.
fn setup(
    inputs: &[(Dag, std::path::PathBuf)],
    t: Option<&mut Tracer>,
) -> Result<(Vec<String>, Vec<Tgd>), String> {
    let read = || -> Result<(Vec<String>, Vec<Tgd>), String> {
        let texts = inputs
            .iter()
            .map(|(_, p)| {
                std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let tgds = parse_tgds(RULE).map_err(|e| e.to_string())?;
        Ok((texts, tgds))
    };
    match t {
        Some(t) => t.span("setup", |t| {
            let (texts, tgds) = t.span("input.read", |_| read())?;
            for text in &texts {
                job(text, &tgds, Some(t))?;
            }
            Ok((texts, tgds))
        }),
        None => {
            let (texts, tgds) = read()?;
            for text in &texts {
                job(text, &tgds, None)?;
            }
            Ok((texts, tgds))
        }
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let inputs = write_inputs(run)?;
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..run.scale.tc_setups {
        let t = Instant::now();
        ready = Some(setup(&inputs, None)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (texts, tgds) = ready.ok_or("no set-up ran")?;

    let stop = Stop::new(run.seconds, [100, 0]);
    let mut jobs: Vec<(usize, f64, Result<JobResult, String>)> = Vec::new();
    for k in (0..texts.len()).cycle() {
        if stop.done() {
            break;
        }
        let t = Instant::now();
        let r = job(&texts[k], &tgds, None);
        jobs.push((k, t.elapsed().as_secs_f64() * 1e3, r));
        stop.tick(READS);
    }
    let elapsed = stop.elapsed();
    let rss = alloc::peak_rss_mb();

    if run.inject_wrong {
        if let Some((_, _, Ok(r))) = jobs.first_mut() {
            r.fixpoint += 1;
        }
    }
    let want: Vec<JobResult> = inputs.iter().map(|(d, _)| reference(d)).collect();
    o.attempted = jobs.len() as u64;
    for (k, _, r) in &jobs {
        match r {
            Ok(got) if *got == want[*k] => {}
            Ok(got) => o.fail(format!("job on dag{k}: {got:?}, expected {:?}", want[*k])),
            Err(e) => o.fail(e.clone()),
        }
    }

    // Set up again after the timed phase, so that `setup_s` samples the
    // machine at both ends of the run.
    for _ in 0..run.scale.tc_setups {
        let t = Instant::now();
        setup(&inputs, None)?;
        setups.push(t.elapsed().as_secs_f64());
    }

    let ms: Vec<f64> = jobs.iter().map(|j| j.1).collect();
    let p = |q| percentile(&ms, q).map_err(|e| format!("jobs: {e}"));
    o.set("setup_s", median(&setups));
    o.set("ops_per_s", jobs.len() as f64 / elapsed);
    o.set("peak_rss_mb", rss);
    o.detail("setup_s", median(&setups), "s");
    o.detail("job_p50_ms", p(0.5)?, "ms");
    o.detail("job_p90_ms", p(0.9)?, "ms");
    o.detail("failed_ratio", o.failed_ratio(), "ratio");
    o.detail("peak_rss_mb", rss, "MB");
    o.note("dags", texts.len());
    o.note("nodes", run.scale.tc_nodes);
    o.note("edges", run.scale.tc_edges);
    o.note(
        "fixpoint_atoms",
        want.iter()
            .map(|w| w.fixpoint.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    o.note("jobs", jobs.len());
    o.note("measured_s", elapsed);
    o.note("clients", "1 in-process client, closed loop");
    Ok(o)
}

/// The traced run: set-up under spans, then a replay of the first jobs of
/// the same sequence, each traced and once more untraced.
pub fn traced(run: &Run) -> Result<Outcome, String> {
    let inputs = write_inputs(run)?;
    let want: Vec<JobResult> = inputs.iter().map(|(d, _)| reference(d)).collect();
    let mut o = Outcome::default();
    let mut t = Tracer::new();
    let (texts, tgds) = setup(&inputs, Some(&mut t))?;
    let (mut traced_ms, mut plain_ms) = (0.0, 0.0);
    let mut live = Vec::new();
    for (i, k) in (0..texts.len())
        .cycle()
        .take(run.scale.replay_jobs)
        .enumerate()
    {
        t.next_op();
        o.attempted += 1;
        match job(&texts[k], &tgds, Some(&mut t)) {
            Ok(got) if got == want[k] => {}
            Ok(got) => o.fail(format!("job on dag{k}: {got:?}, expected {:?}", want[k])),
            Err(e) => o.fail(e),
        }
        traced_ms += t.last_ms("job");
        plain_ms += t.untraced(|| job(&texts[k], &tgds, None)).1;
        if i < texts.len() {
            let db = parse_facts(&texts[k]).map_err(|e| e.to_string())?;
            let before = alloc::live_bytes();
            let out = ChaseRunner::new(&tgds).budget(budget()).run(&db);
            let bytes = alloc::live_growth(before);
            live.push(bytes as f64 / out.instance.len().max(1) as f64);
        }
    }

    let by_name = t.by_name();
    o.set("ingest.parse_ms", median(&t.durations("ingest.parse")));
    o.missing(
        "ingest.sink_ms",
        "parse_facts lands each atom as it parses it",
    );
    o.set(
        "ingest.atoms",
        median(
            &inputs
                .iter()
                .map(|(d, _)| d.edges.len() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    o.set("chase.run_ms", median(&t.durations("chase.run")));
    o.set(
        "chase.fixpoint_atoms",
        median(&want.iter().map(|w| w.fixpoint as f64).collect::<Vec<_>>()),
    );
    o.set(
        "chase.rounds",
        t.counter("chase.run", Metric::ChaseRounds) as f64,
    );
    o.set(
        "chase.trigger_firings",
        t.counter("chase.run", Metric::TriggerFirings) as f64,
    );
    o.set(
        "chase.nulls_created",
        t.counter("chase.run", Metric::NullsCreated) as f64,
    );
    o.set("query.prepare_ms", median(&t.durations("query.prepare")));
    let rows =
        |f: fn(&JobResult) -> usize| median(&want.iter().map(|w| f(w) as f64).collect::<Vec<_>>());
    o.set(
        "query.eval_ms.lookup",
        median(&t.durations("query.eval.lookup")),
    );
    o.set(
        "query.eval_ms.triangle",
        median(&t.durations("query.eval.triangle")),
    );
    o.set("query.answers.lookup", rows(|w| w.reach));
    o.set("query.answers.triangle", rows(|w| w.triangles));
    let wcoj = [TRIANGLE, LOOKUP]
        .iter()
        .filter(|q| parse_cq(q).is_ok_and(|cq| CompiledQuery::compile(&cq.atoms).prefers_wcoj()))
        .count();
    o.set("query.wcoj_share", wcoj as f64 / 2.0);
    o.set(
        "kernel.nodes_visited",
        t.counter("query.eval", Metric::KernelNodes) as f64,
    );
    o.set(
        "wcoj.seeks",
        t.counter("query.eval", Metric::WcojSeeks) as f64,
    );
    o.set("data.live_bytes_per_atom", median(&live));
    for (layer, bytes) in t.alloc_by_layer() {
        match layer {
            "ingest" => o.set("data.alloc_bytes.ingest", bytes as f64),
            "chase" => o.set("data.alloc_bytes.chase", bytes as f64),
            "query" => o.set("data.alloc_bytes.query", bytes as f64),
            _ => {}
        }
    }
    o.set(
        "index.full_builds",
        t.counter_total(Metric::IndexFullBuilds) as f64,
    );
    o.set(
        "index.merge_extends",
        t.counter_total(Metric::IndexMergeExtends) as f64,
    );
    o.set("dense.remaps", t.counter_total(Metric::DenseRemaps) as f64);
    for (name, span) in [
        ("trace.coverage.setup", "setup"),
        ("trace.coverage.job", "job"),
    ] {
        if let Some(c) = by_name.get(span).and_then(|s| s.coverage()) {
            o.set(name, c);
        }
    }
    o.missing("trace.coverage.write", "no writes on tc-batch");
    o.set("trace.overhead", traced_ms / plain_ms - 1.0);
    t.summarize(&mut o);
    o.note("dags", texts.len());
    o.note("nodes", run.scale.tc_nodes);
    o.note("edges", run.scale.tc_edges);
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_has_exact_size_and_reference_agrees_with_the_chase() {
        let d = dag(40, 120, 7);
        assert_eq!(d.edges.len(), 120);
        assert!(d.edges.iter().all(|&(a, b)| a < b));
        let tgds = parse_tgds(RULE).unwrap();
        assert_eq!(job(&d.text, &tgds, None).unwrap(), reference(&d));
    }
}
