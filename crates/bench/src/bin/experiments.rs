//! Regenerates the experiment tables (DESIGN.md §4 / EXPERIMENTS.md).
//!
//! Usage:
//! ```text
//! experiments                    # run everything
//! experiments E4 E6              # run selected experiments
//! experiments --json out.json E1
//! experiments --jobs 4           # run independent series concurrently
//! experiments --kernel-json BENCH_kernel.json   # kernel before/after only
//! experiments --wcoj-json BENCH_wcoj.json       # WCOJ vs backtracker only
//! experiments --serve-json BENCH_serve.json     # snapshot + serve amortization only
//! experiments --ingest-json BENCH_ingest.json   # E18 ingestion-at-scale sweep (to ~10^6 atoms)
//! experiments --ingest-smoke                    # E18 small scales with an enforced time bar
//! experiments --trace-json TRACE.json           # traced E9/E10/E15 probe reports
//! experiments --obs-smoke                       # disabled-probe overhead check
//! experiments --certify-sample                  # emit + independently check certificates
//! experiments --cert-smoke                      # uncertified-run overhead check
//! ```
//!
//! With `--jobs N`, independent experiment series run on an N-worker pool;
//! tables are still printed in request order. Timings measured under
//! `--jobs > 1` are noisier (series share cores), so published numbers
//! should come from a sequential run — the flag exists to make full-suite
//! regeneration fast on developer machines.

use gtgd_bench::{
    ingest_benchmark, ingest_json, ingest_smoke, kernel_benchmark, kernel_json, run_experiment,
    serve_benchmark, serve_json, tables_to_json, trace_all, trace_json, wcoj_benchmark, wcoj_json,
    ExperimentTable, IngestMetric,
};
use gtgd_data::Pool;
use std::io::Write;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut kernel_path: Option<String> = None;
    let mut wcoj_path: Option<String> = None;
    let mut serve_path: Option<String> = None;
    let mut ingest_path: Option<String> = None;
    let mut do_ingest_smoke = false;
    let mut trace_path: Option<String> = None;
    let mut obs_smoke = false;
    let mut certify_sample = false;
    let mut cert_smoke = false;
    let mut jobs = 1usize;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--kernel-json" => {
                kernel_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--wcoj-json" => {
                wcoj_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--serve-json" => {
                serve_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--ingest-json" => {
                ingest_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--ingest-smoke" => {
                do_ingest_smoke = true;
                i += 1;
            }
            "--trace-json" => {
                trace_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--obs-smoke" => {
                obs_smoke = true;
                i += 1;
            }
            "--certify-sample" => {
                certify_sample = true;
                i += 1;
            }
            "--cert-smoke" => {
                cert_smoke = true;
                i += 1;
            }
            "--jobs" => {
                jobs = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--jobs expects a positive integer");
                        std::process::exit(2);
                    });
                i += 2;
            }
            other => {
                ids.push(other.to_string());
                i += 1;
            }
        }
    }
    if let Some(path) = trace_path {
        // Trace mode: re-run small slices of E9/E10/E15 through the facades
        // with probes enabled and emit the RunReport tree; skips the suite.
        let traced = trace_all();
        for t in &traced {
            println!("{:>4}  {}", t.id, t.title);
            for c in &t.report.counters {
                println!("      {:<24} {:>12}", c.name, c.value);
            }
        }
        let mut f = std::fs::File::create(&path).expect("create trace json output");
        f.write_all(trace_json(&traced).as_bytes())
            .expect("write trace json");
        eprintln!("wrote {path}");
        return;
    }
    if obs_smoke {
        // Overhead smoke: with the probe gate off (the default), the facade
        // must not be measurably slower than the legacy free function on an
        // E15-style chase — both route through the same probed engine, so
        // this catches any accidental always-on instrumentation.
        run_obs_smoke();
        return;
    }
    if certify_sample {
        // Certificate sample: run certified chases over the E9-style org
        // and E15-style transitive-closure workloads, certify every
        // null-free answer with both join strategies, and pipe the JSON
        // through the *independent* gtgd-check library; skips the suite.
        run_certify_sample();
        return;
    }
    if cert_smoke {
        // Overhead smoke for certification: an uncertified run carries no
        // firing log and costs what the legacy free function costs (plus
        // an informational capture-on ratio).
        run_cert_smoke();
        return;
    }
    if let Some(path) = kernel_path {
        // Kernel mode: run only the kernel-relevant series (E2/E9/E12/E15)
        // and emit the before/after report; skips the full suite.
        let metrics = kernel_benchmark();
        for m in &metrics {
            println!(
                "{:>4} {:<18} n={:<4} before {:>9.3} ms  after {:>9.3} ms  speedup {:>6.2}x",
                m.experiment,
                m.metric,
                m.n,
                m.before_ms,
                m.after_ms,
                m.speedup()
            );
        }
        let mut f = std::fs::File::create(&path).expect("create kernel json output");
        f.write_all(kernel_json(&metrics).as_bytes())
            .expect("write kernel json");
        eprintln!("wrote {path}");
        return;
    }
    if let Some(path) = wcoj_path {
        // WCOJ mode: measure the leapfrog executor against the forced
        // backtracker live on the cyclic-shape workloads; skips the suite.
        let metrics = wcoj_benchmark();
        for m in &metrics {
            println!(
                "{:<38} backtrack {:>9.3} ms  dense {:>9.3} ms  \
                 speedup {:>6.2}x  planner {:<9} agree {}",
                m.workload,
                m.backtrack_ms,
                m.dense_ms,
                m.speedup(),
                m.planner,
                m.answers_agree
            );
            if !m.scaling.is_empty() {
                let row: Vec<String> = m
                    .scaling
                    .iter()
                    .map(|&(w, ms)| match ms {
                        Some(ms) => format!("w={w} {ms:.3} ms"),
                        None => format!("w={w} skipped (single-core)"),
                    })
                    .collect();
                println!("{:<38} morsel scaling: {}", "", row.join("  "));
            }
        }
        let mut f = std::fs::File::create(&path).expect("create wcoj json output");
        f.write_all(wcoj_json(&metrics).as_bytes())
            .expect("write wcoj json");
        eprintln!("wrote {path}");
        return;
    }
    if let Some(path) = serve_path {
        // Serve mode: measure snapshot load vs re-chase and warm daemon
        // queries vs cold process runs; skips the suite.
        let metrics = serve_benchmark();
        for m in &metrics {
            println!(
                "{:<10} atoms {:>6}  cold {:>9.3} ms ({})  warm {:>7.3} ms  \
                 cold/warm {:>7.0}x  re-chase {:>9.3} ms  load {:>7.3} ms  \
                 load-speedup {:>5.0}x  agree {}",
                m.workload,
                m.atoms,
                m.cold_ms,
                m.cold_source,
                m.warm_query_ms,
                m.cold_over_warm(),
                m.rechase_ms,
                m.load_ms,
                m.load_speedup(),
                m.answers_agree
            );
        }
        let mut f = std::fs::File::create(&path).expect("create serve json output");
        f.write_all(serve_json(&metrics).as_bytes())
            .expect("write serve json");
        eprintln!("wrote {path}");
        return;
    }
    if let Some(path) = ingest_path {
        // Ingest mode: run the full E18 sweep (~10^3 to ~10^6 base atoms
        // through the Source pipeline) and emit BENCH_ingest.json; skips
        // the suite. The top scale takes minutes — that is the point.
        let metrics = ingest_benchmark();
        print_ingest_rows(&metrics);
        let mut f = std::fs::File::create(&path).expect("create ingest json output");
        f.write_all(ingest_json(&metrics).as_bytes())
            .expect("write ingest json");
        eprintln!("wrote {path}");
        return;
    }
    if do_ingest_smoke {
        run_ingest_smoke();
        return;
    }
    if ids.is_empty() {
        ids = (1..=15).map(|i| format!("E{i}")).collect();
    }
    let results: Vec<Option<ExperimentTable>> =
        Pool::with_workers(jobs).map(&ids, |id| run_experiment(id));
    let mut tables: Vec<ExperimentTable> = Vec::new();
    let mut unknown = false;
    for (id, result) in ids.iter().zip(results) {
        match result {
            Some(t) => {
                println!("{}", t.render());
                tables.push(t);
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                unknown = true;
            }
        }
    }
    if unknown {
        // A usage error, like a bad `--jobs`: a typo in a scripted run
        // must not pass silently.
        std::process::exit(2);
    }
    if let Some(path) = json_path {
        let mut f = std::fs::File::create(&path).expect("create json output");
        f.write_all(tables_to_json(&tables).as_bytes())
            .expect("write json");
        eprintln!("wrote {path}");
    }
}

fn print_ingest_rows(metrics: &[IngestMetric]) {
    for m in metrics {
        println!(
            "univ {:>4}  base {:>8}  ingest {:>9.1} ms  chase {:>10.1} ms  \
             fixpoint {:>8} ({})  query {:>8.3} ms  answers {:>6}  \
             maintain-build {:>10.1} ms  snap save {:>8.1} ms / load {:>8.1} ms \
             ({} B)  1-fact insert {:>7.3} ms",
            m.universities,
            m.base_atoms,
            m.ingest_ms,
            m.chase_ms,
            m.fixpoint_atoms,
            if m.chase_complete { "complete" } else { "CUT" },
            m.query_ms,
            m.answers,
            m.maintain_build_ms,
            m.snapshot_save_ms,
            m.snapshot_load_ms,
            m.snapshot_bytes,
            m.maintain_insert_ms,
        );
    }
}

fn run_ingest_smoke() {
    // CI smoke for E18: the two small scales (~10^3 and ~10^4 base atoms),
    // each with an enforced wall-clock bar on the whole measured pipeline
    // (ingest + chase + maintain build + snapshot round-trip). The bars
    // are ~20x over measured dev-machine times so they only trip on a
    // gross regression (e.g. batching accidentally bypassed), not on
    // shared-container noise.
    let metrics = ingest_smoke();
    print_ingest_rows(&metrics);
    let bars_ms = [4_000.0, 30_000.0];
    let mut ok = true;
    for (m, bar) in metrics.iter().zip(bars_ms) {
        let total =
            m.ingest_ms + m.chase_ms + m.maintain_build_ms + m.snapshot_save_ms + m.snapshot_load_ms;
        if !m.chase_complete {
            eprintln!("ingest smoke FAILED: univ={} chase hit the budget", m.universities);
            ok = false;
        }
        if m.answers == 0 {
            eprintln!("ingest smoke FAILED: univ={} query returned no answers", m.universities);
            ok = false;
        }
        if total > bar {
            eprintln!(
                "ingest smoke FAILED: univ={} pipeline took {total:.0} ms (bar {bar:.0} ms)",
                m.universities
            );
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    println!("ingest smoke OK");
}

/// Ratio of total paired wall times `sum(b)/sum(a)` over `rounds`
/// back-to-back rounds, alternating which side goes first. Pairing keeps
/// machine-speed drift from landing on one side only, alternation cancels
/// any first-runner advantage, and summing averages per-run scheduler
/// noise down by `sqrt(rounds)` — single runs on a shared container
/// bounce ±10%, far too much for any per-run statistic to compare.
fn paired_total_ratio(rounds: u32, mut a: impl FnMut(), mut b: impl FnMut()) -> f64 {
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos() as u64
    };
    let (mut total_a, mut total_b) = (0u64, 0u64);
    for round in 0..rounds {
        if round % 2 == 0 {
            total_a += time(&mut a);
            total_b += time(&mut b);
        } else {
            total_b += time(&mut b);
            total_a += time(&mut a);
        }
    }
    total_b as f64 / total_a as f64
}

fn run_certify_sample() {
    use gtgd_bench::workloads::{org_db, org_ontology, path_db, tc_ontology};
    use gtgd_chase::{certificates_to_json, CertificateStore, ChaseBudget, ChaseRunner};
    use gtgd_query::{parse_cq, Strategy};

    let samples: [(&str, Vec<gtgd_chase::Tgd>, gtgd_data::Instance, &str); 2] = [
        (
            "E9 org",
            org_ontology(),
            org_db(12),
            "Q(X) :- WorksIn(X,D), Dept(D)",
        ),
        ("E15 tc", tc_ontology(), path_db(12), "Q(X,Y) :- E(X,Y)"),
    ];
    let mut total = 0usize;
    for (name, tgds, db, query) in &samples {
        let outcome = ChaseRunner::new(tgds)
            .budget(ChaseBudget::levels(4))
            .certify(true)
            .run(db);
        let store = CertificateStore::new(db, tgds, outcome.firings.expect("certified run"));
        let q = parse_cq(query).unwrap();
        for strategy in [Strategy::Backtrack, Strategy::Wcoj] {
            let certs = store.certify_answers(&q, &outcome.instance, strategy);
            assert!(!certs.is_empty(), "{name}: no certifiable answers");
            let json = certificates_to_json(&certs);
            match gtgd_check::check_all(&json) {
                Ok(n) => {
                    println!("{name} {strategy:?}: {n} certificate(s) accepted");
                    total += n;
                }
                Err((i, e)) => {
                    eprintln!("certify sample FAILED: {name} {strategy:?} cert {i}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    println!("certify sample OK ({total} certificates)");
}

fn run_cert_smoke() {
    use gtgd_bench::workloads::{path_db, tc_ontology};
    use gtgd_chase::{chase, ChaseBudget, ChaseRunner, ChaseVariant};

    let tgds = tc_ontology();
    let db = path_db(100);
    let expect = chase(&db, &tgds, &ChaseBudget::unbounded()).instance.len();
    // Deterministic half of the contract: uncertified runs of either
    // variant carry no firings, also right after a certified run.
    for variant in [ChaseVariant::Oblivious, ChaseVariant::Restricted] {
        let runner = ChaseRunner::new(&tgds).variant(variant);
        assert!(runner.certify(true).run(&db).firings.is_some());
        let warm = runner.run(&db);
        assert!(
            warm.firings.is_none(),
            "uncertified {variant:?} run must carry no firings"
        );
    }

    // The acceptance guard: with no firing log requested, the facade must
    // stay within noise of the legacy free function — same pairing and
    // 25% slack as the obs smoke, for the same shared-container reasons.
    let ratio = paired_total_ratio(
        10,
        || {
            let r = chase(&db, &tgds, &ChaseBudget::unbounded());
            assert_eq!(r.instance.len(), expect);
        },
        || {
            let o = ChaseRunner::new(&tgds).run(&db);
            assert_eq!(o.instance.len(), expect);
        },
    );
    println!("cert smoke: uncertified/legacy paired total ratio {ratio:.3}");
    if ratio > 1.25 {
        eprintln!("cert smoke FAILED: uncertified facade overhead above 25% of legacy chase");
        std::process::exit(1);
    }

    // Informational: what switching the collector ON costs (EXPERIMENTS.md
    // §certificates records this; it is not a pass/fail bound — capture is
    // opt-in and pays for the record it produces).
    let on_ratio = paired_total_ratio(
        10,
        || {
            let o = ChaseRunner::new(&tgds).run(&db);
            assert_eq!(o.instance.len(), expect);
        },
        || {
            let o = ChaseRunner::new(&tgds).certify(true).run(&db);
            assert_eq!(o.instance.len(), expect);
            assert!(o.firings.is_some());
        },
    );
    println!("cert smoke: capture-on/off paired total ratio {on_ratio:.3} (informational)");
    println!("cert smoke OK");
}

fn run_obs_smoke() {
    use gtgd_bench::workloads::{path_db, tc_ontology};
    use gtgd_chase::{chase, ChaseBudget, ChaseRunner};

    assert!(
        !gtgd_data::obs::enabled(),
        "probe gate must be off by default"
    );
    let tgds = tc_ontology();
    // Long enough that per-run timer noise stays in the single digits;
    // sub-25ms cells bounce ±7%+ on shared containers.
    let db = path_db(100);
    // Warm both paths once (index caches, allocator) before timing, and
    // check the deterministic half of the contract: an untraced facade
    // run must not materialize a report or leave the gate enabled.
    let expect = chase(&db, &tgds, &ChaseBudget::unbounded()).instance.len();
    let warm = ChaseRunner::new(&tgds).run(&db);
    assert_eq!(warm.instance.len(), expect);
    assert!(warm.report.is_none(), "untraced run must carry no report");
    assert!(
        !gtgd_data::obs::enabled(),
        "probe gate must stay off after an untraced run"
    );

    let ratio = paired_total_ratio(
        10,
        || {
            let r = chase(&db, &tgds, &ChaseBudget::unbounded());
            assert_eq!(r.instance.len(), expect);
        },
        || {
            let o = ChaseRunner::new(&tgds).run(&db);
            assert_eq!(o.instance.len(), expect);
        },
    );
    println!("obs smoke: facade/legacy paired total ratio {ratio:.3}");
    // Gross-regression guard, not the acceptance measurement: the <3%
    // disabled-probe bound is established by the interleaved A/B against
    // the pre-obs seed build (DESIGN.md §10). Shared CI containers have
    // slow phases longer than a measurement pair, so individual batches
    // can drift double digits either way; 25% slack stays above that
    // noise while still failing on any always-on instrumentation left
    // in the wrapper path.
    if ratio > 1.25 {
        eprintln!("obs smoke FAILED: facade overhead above 25% of legacy chase");
        std::process::exit(1);
    }
    println!("obs smoke OK");
}
