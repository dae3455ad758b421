//! E17 — snapshot + serve amortization benchmark (`BENCH_serve.json`).
//!
//! Measures what `gtgd serve` buys over the one-shot CLI on the org
//! (E9/E16-style existential chain) and transitive-closure (E15-style)
//! workloads: the *cold* column times a full `gtgd` process run — spawn,
//! parse, chase, plan, evaluate — while the *warm* column times one query
//! round-trip against a long-lived daemon that loaded a snapshot once
//! (no chase, no index build, and after the first request no plan
//! compilation on the hot path). The *load vs re-chase* pair isolates the
//! snapshot itself: deserializing the persisted fixpoint (sequential
//! read; dense tries and row indexes stay deferred, and no firing log is
//! stored) against re-running the chase that produced it.

use crate::experiments::bench_ms;
use crate::workloads::{org_db, path_db};
use gtgd_chase::{parse_tgds, ChaseBudget, ChaseRunner, MaintainedInstance, Tgd};
use gtgd_data::json::escape;
use gtgd_data::Instance;
use gtgd_query::{parse_cq, Engine};
use gtgd_storage::{load_snapshot, save_snapshot, Client, Server};
use std::path::PathBuf;
use std::time::Instant;

/// One serve workload: rules (one string per TGD so they render as script
/// `tgd` lines), a base database, and the query the daemon will answer.
pub struct ServeWorkload {
    /// Row label (`"org/400"`).
    pub key: String,
    /// The ontology, one parseable rule per entry.
    pub rules: Vec<String>,
    /// The base database.
    pub db: Instance,
    /// The query, in `Q(X) :- ...` syntax.
    pub query: String,
}

/// The org workload at employee count `n`: the terminating existential
/// chain ontology E16 uses over [`org_db`], plus a same-department join
/// rule so the chase performs real join discovery (not just chain
/// firing), queried for the named employee→department pairs.
pub fn org_workload(n: usize) -> ServeWorkload {
    ServeWorkload {
        key: format!("org/{n}"),
        rules: vec![
            "Emp(X) -> WorksIn(X,D)".into(),
            "WorksIn(X,D) -> Dept(D)".into(),
            "Dept(D) -> Audited(D)".into(),
            "WorksIn(X,D), WorksIn(Y,D) -> Colleague(X,Y)".into(),
        ],
        db: org_db(n),
        query: "Q(X, D) :- Emp(X), WorksIn(X, D)".into(),
    }
}

/// The transitive-closure workload over a path of length `n`: the E15
/// ontology `E(X,Y), E(Y,Z) -> E(X,Z)`, queried for every edge of the
/// closure (all answers are named, so the daemon streams the full TC).
pub fn tc_workload(n: usize) -> ServeWorkload {
    ServeWorkload {
        key: format!("tc/{n}"),
        rules: vec!["E(X,Y), E(Y,Z) -> E(X,Z)".into()],
        db: path_db(n),
        query: "Q(X, Y) :- E(X, Y)".into(),
    }
}

/// One measured row of `BENCH_serve.json`.
#[derive(Debug, Clone)]
pub struct ServeMetric {
    /// Workload label.
    pub workload: String,
    /// Atoms in the chased fixpoint (what the snapshot persists).
    pub atoms: usize,
    /// Certain (null-free) answers the query returns.
    pub answers: usize,
    /// Snapshot file size in bytes.
    pub snapshot_bytes: u64,
    /// Full cold run in ms: chase + plan + evaluate from nothing. Spawns
    /// the real `gtgd` binary when one is built next to the current
    /// executable; otherwise falls back to the same work in-process (see
    /// `cold_source`).
    pub cold_ms: f64,
    /// `"gtgd process"` or `"in-process"` — how the cold column ran.
    pub cold_source: String,
    /// First daemon query in ms (pays the one plan compilation).
    pub warm_first_ms: f64,
    /// Steady-state warm query round-trip in ms (plan cache hit; no
    /// chase, no index build).
    pub warm_query_ms: f64,
    /// Re-running the chase that produced the fixpoint, in ms.
    pub rechase_ms: f64,
    /// Loading the snapshot back to a query-ready instance (sequential
    /// decode; indexes build on first use), in ms.
    pub load_ms: f64,
    /// Thawing the loaded snapshot into a write-ready maintained state
    /// (the logged chase re-run from the base facts — paid once, by the
    /// first write, off the query hot path), in ms.
    pub thaw_ms: f64,
    /// Daemon answers identical to a single-shot `Engine::prepare` over
    /// the maintained fixpoint (and to the cold process's answer count).
    pub answers_agree: bool,
}

impl ServeMetric {
    /// How many times cheaper the warm daemon query is than the cold run
    /// (`cold / warm`; 0-safe).
    pub fn cold_over_warm(&self) -> f64 {
        if self.warm_query_ms > 0.0 {
            self.cold_ms / self.warm_query_ms
        } else {
            0.0
        }
    }

    /// How many times faster loading the snapshot is than re-chasing
    /// (`rechase / load`; 0-safe).
    pub fn load_speedup(&self) -> f64 {
        if self.load_ms > 0.0 {
            self.rechase_ms / self.load_ms
        } else {
            0.0
        }
    }
}

/// The `gtgd` binary built alongside the current executable, if any —
/// `target/<profile>/gtgd` for both the `experiments` binary and the test
/// runners (which live one level deeper, in `deps/`).
pub fn gtgd_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let name = format!("gtgd{}", std::env::consts::EXE_SUFFIX);
    exe.ancestors()
        .skip(1)
        .take(4)
        .map(|d| d.join(&name))
        .find(|p| p.is_file())
}

/// Renders a workload as a `gtgd` script (see `gtgd::script`).
fn script_text(w: &ServeWorkload) -> String {
    let mut s = String::from("mode open.\n");
    for r in &w.rules {
        s.push_str(&format!("tgd {r}.\n"));
    }
    for a in w.db.iter() {
        s.push_str(&format!("fact {a}.\n"));
    }
    s.push_str(&format!("query {}.\n", w.query));
    s
}

fn temp_file(tag: &str, key: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gtgd-serve-bench-{}-{tag}-{}",
        std::process::id(),
        key.replace('/', "_")
    ))
}

/// Runs the cold leg once and returns its reported answer count, or
/// `None` if the process failed.
fn cold_process_answers(bin: &PathBuf, script: &PathBuf) -> Option<usize> {
    let out = std::process::Command::new(bin).arg(script).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The summary line reads "open-world (OMQ); N answer(s); exact = …".
    let tail = stdout.split("; ").nth(1)?;
    tail.strip_suffix(" answer(s)")
        .or_else(|| tail.split(' ').next())?
        .trim()
        .parse()
        .ok()
}

/// Measures one workload end to end. The daemon runs in-process (same
/// `Server` the `gtgd serve` subcommand drives); the cold column spawns
/// the real binary when available so it pays genuine process startup.
pub fn measure(w: &ServeWorkload) -> ServeMetric {
    let tgds: Vec<Tgd> = parse_tgds(&w.rules.join(". ")).unwrap();
    let budget = ChaseBudget::atoms(10_000_000);
    let rechase =
        || -> MaintainedInstance { ChaseRunner::new(&tgds).budget(budget).maintain(&w.db) };
    let rechase_ms = bench_ms(|| rechase().instance().len());
    let m = rechase();

    let snap_path = temp_file("snap", &w.key);
    save_snapshot(&snap_path, &tgds, &m).unwrap();
    let snapshot_bytes = std::fs::metadata(&snap_path)
        .map(|md| md.len())
        .unwrap_or(0);
    let load_ms = bench_ms(|| load_snapshot(&snap_path).unwrap().instance().len());
    let loaded = load_snapshot(&snap_path).unwrap();
    let thaw_ms = bench_ms(|| loaded.to_maintained().unwrap().instance().len());

    // Reference answers: single-shot prepared evaluation over the
    // maintained fixpoint, certain (null-free) rows only, string-sorted.
    let cq = parse_cq(&w.query).unwrap();
    let mut expect: Vec<Vec<String>> = Engine::prepare(&cq)
        .answers(m.instance())
        .into_iter()
        .filter(|row| row.iter().all(|v| v.is_named()))
        .map(|row| row.iter().map(ToString::to_string).collect())
        .collect();
    expect.sort();

    // Cold leg: the real binary when built, the same work in-process
    // otherwise (test runs of this crate alone don't build `gtgd`).
    let script_path = temp_file("script", &w.key);
    std::fs::write(&script_path, script_text(w)).unwrap();
    let bin = gtgd_binary();
    let (cold_ms, cold_source, cold_answers) = match &bin {
        Some(bin) => {
            let n = cold_process_answers(bin, &script_path);
            let ms = bench_ms(|| {
                let out = std::process::Command::new(bin)
                    .arg(&script_path)
                    .output()
                    .expect("spawn gtgd");
                assert!(out.status.success(), "cold gtgd run failed");
            });
            (ms, "gtgd process".to_string(), n)
        }
        None => {
            let ms = bench_ms(|| {
                let cold = rechase();
                Engine::prepare(&cq).answers(cold.instance()).len()
            });
            (ms, "in-process".to_string(), None)
        }
    };

    // Warm leg: daemon up from the snapshot, one client, first query pays
    // the plan compile, then the steady-state round-trip.
    let server = Server::start(snap_path.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).unwrap();
    let t = Instant::now();
    let mut got = client.query(&w.query).unwrap();
    let warm_first_ms = t.elapsed().as_secs_f64() * 1e3;
    got.sort();
    let warm_query_ms = bench_ms(|| client.query(&w.query).unwrap().len());
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    let answers_agree = got == expect && cold_answers.is_none_or(|n| n == expect.len());
    let metric = ServeMetric {
        workload: w.key.clone(),
        atoms: m.instance().len(),
        answers: expect.len(),
        snapshot_bytes,
        cold_ms,
        cold_source,
        warm_first_ms,
        warm_query_ms,
        rechase_ms,
        load_ms,
        thaw_ms,
        answers_agree,
    };
    std::fs::remove_file(&snap_path).ok();
    std::fs::remove_file(&script_path).ok();
    metric
}

/// Runs the published serve workloads: org at 100 and 400 employees, the
/// 120-node transitive closure.
pub fn serve_benchmark() -> Vec<ServeMetric> {
    [org_workload(100), org_workload(400), tc_workload(120)]
        .iter()
        .map(measure)
        .collect()
}

/// Renders the metrics as the `BENCH_serve.json` document.
pub fn serve_json(metrics: &[ServeMetric]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"description\": \"{}\",\n",
        escape(
            "Snapshot + serve amortization: timings in ms (min over \
             adaptive repeats: >=3, within a ~30 ms budget). 'cold_ms' is \
             a full cold run — spawn the gtgd binary, parse, chase, plan, \
             evaluate ('cold_source' records whether a real process was \
             spawned); 'warm_query_ms' is one round-trip against a \
             long-lived daemon serving the persisted fixpoint with a warm \
             plan cache ('warm_first_ms' paid the one compile). \
             'load_ms' deserializes the snapshot to a query-ready \
             instance (sequential read; indexes build on first use) vs \
             'rechase_ms' re-running the chase; 'thaw_ms' is the deferred \
             logged re-chase from the base facts that the first write pays. \
             'answers_agree' checks the daemon's certain answers \
             bit-identical to a single-shot prepared evaluation of the \
             same fixpoint."
        )
    ));
    out.push_str("  \"metrics\": [\n");
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    {{\n      \"workload\": \"{}\",\n      \"atoms\": {},\n      \
                 \"answers\": {},\n      \"snapshot_bytes\": {},\n      \
                 \"cold_ms\": {:.3},\n      \"cold_source\": \"{}\",\n      \
                 \"warm_first_ms\": {:.3},\n      \"warm_query_ms\": {:.3},\n      \
                 \"cold_over_warm\": {:.2},\n      \"rechase_ms\": {:.3},\n      \
                 \"load_ms\": {:.3},\n      \"load_speedup\": {:.2},\n      \
                 \"thaw_ms\": {:.3},\n      \"answers_agree\": {}\n    }}",
                escape(&m.workload),
                m.atoms,
                m.answers,
                m.snapshot_bytes,
                m.cold_ms,
                escape(&m.cold_source),
                m.warm_first_ms,
                m.warm_query_ms,
                m.cold_over_warm(),
                m.rechase_ms,
                m.load_ms,
                m.load_speedup(),
                m.thaw_ms,
                m.answers_agree
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

    #[test]
    fn org_measure_agrees_and_amortizes() {
        let m = measure(&org_workload(60));
        assert!(m.answers_agree, "daemon disagrees with single shot: {m:?}");
        assert_eq!(m.answers, 30, "org/60 has n/2 named WorksIn rows");
        assert!(m.atoms > 60);
        assert!(m.snapshot_bytes > 0);
        assert!(m.warm_query_ms > 0.0 && m.load_ms > 0.0);
        // The warm daemon answers without chasing; even against the
        // in-process cold fallback the gap is at least one chase.
        assert!(m.cold_over_warm() > 1.0, "warm must beat cold: {m:?}");
        assert!(m.load_speedup() > 0.0);
    }

    #[test]
    fn ratios_are_zero_safe() {
        let mut m = ServeMetric {
            workload: "x".into(),
            atoms: 1,
            answers: 1,
            snapshot_bytes: 10,
            cold_ms: 100.0,
            cold_source: "gtgd process".into(),
            warm_first_ms: 1.0,
            warm_query_ms: 0.5,
            rechase_ms: 50.0,
            load_ms: 2.0,
            thaw_ms: 3.0,
            answers_agree: true,
        };
        assert!((m.cold_over_warm() - 200.0).abs() < 1e-9);
        assert!((m.load_speedup() - 25.0).abs() < 1e-9);
        m.warm_query_ms = 0.0;
        m.load_ms = 0.0;
        assert_eq!(m.cold_over_warm(), 0.0);
        assert_eq!(m.load_speedup(), 0.0);
    }

    #[test]
    fn json_is_balanced_and_complete() {
        let metrics = vec![ServeMetric {
            workload: "org/400".into(),
            atoms: 1800,
            answers: 200,
            snapshot_bytes: 123456,
            cold_ms: 25.0,
            cold_source: "gtgd process".into(),
            warm_first_ms: 0.4,
            warm_query_ms: 0.1,
            rechase_ms: 20.0,
            load_ms: 1.0,
            thaw_ms: 2.5,
            answers_agree: true,
        }];
        let json = serve_json(&metrics);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"cold_over_warm\": 250.00"));
        assert!(json.contains("\"load_speedup\": 20.00"));
        assert!(json.contains("\"thaw_ms\": 2.500"));
        assert!(json.contains("\"cold_source\": \"gtgd process\""));
        assert!(json.contains("\"answers_agree\": true"));
        assert!(json.contains("\"snapshot_bytes\": 123456"));
    }

    /// The published `BENCH_serve.json` must carry the acceptance-bar
    /// numbers: every row agrees, warm queries beat the cold process run
    /// by >= 50x, and snapshot load beats re-chase by >= 10x.
    #[test]
    fn published_bench_meets_acceptance_bars() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        let text = std::fs::read_to_string(path).expect("BENCH_serve.json is committed");
        assert!(text.contains("\"answers_agree\": true"));
        assert!(!text.contains("\"answers_agree\": false"));
        let field = |name: &str| -> Vec<f64> {
            text.lines()
                .filter_map(|l| l.trim().strip_prefix(&format!("\"{name}\": ")))
                .map(|v| v.trim_end_matches(',').parse().expect("numeric field"))
                .collect()
        };
        let warm = field("cold_over_warm");
        let load = field("load_speedup");
        assert_eq!(warm.len(), load.len());
        assert!(!warm.is_empty(), "published file has rows");
        // Every row must amortize; the acceptance bars (warm query ≥ 50×
        // under the cold process run, load ≥ 10× under re-chase) are set
        // at the org n = 400 scale — smaller rows are context, and the
        // tiniest cold runs are spawn-bound, so a fixed multiple of a
        // ~2 ms process launch is not meaningful there.
        for (i, (w, l)) in warm.iter().zip(&load).enumerate() {
            assert!(*w > 1.0, "row {i}: cold/warm {w} does not amortize");
            assert!(*l > 1.0, "row {i}: load {l} not faster than re-chase");
        }
        let names: Vec<&str> = text
            .lines()
            .filter_map(|l| l.trim().strip_prefix("\"workload\": "))
            .map(|v| v.trim_end_matches(','))
            .collect();
        assert_eq!(names.len(), warm.len(), "one workload name per row");
        let at400 = names
            .iter()
            .position(|n| *n == "\"org/400\"")
            .expect("org/400 row is published");
        assert!(
            warm[at400] >= 50.0,
            "org/400 cold/warm {} below the 50x bar",
            warm[at400]
        );
        assert!(
            load[at400] >= 10.0,
            "org/400 load speedup {} below the 10x bar",
            load[at400]
        );
        // The published numbers must come from a genuine process spawn.
        assert!(text.contains("\"cold_source\": \"gtgd process\""));
    }
}
