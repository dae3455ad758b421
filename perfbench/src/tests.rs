//! The benchmark's own tests, at tiny scale with a fixed seed.

use super::*;

const TINY: Scale = Scale {
    read_univ: 1,
    write_univ: 1,
    lubm_setups: 1,
    tc_setups: 2,
    replay_reads: 60,
    replay_writes: 8,
    tc_nodes: 30,
    tc_edges: 60,
    tc_dags: 2,
    replay_jobs: 4,
};

/// Workload runs switch the process-global obs and allocation-counting
/// gates and compete for the cores, so the tests that run them take turns.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tiny(tag: &str, inject_wrong: bool) -> Run {
    Run {
        seed: 7,
        seconds: 0.5,
        dir: Path::new(".bench_work").join(format!("test-{tag}-{}", std::process::id())),
        scale: TINY,
        inject_wrong,
    }
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let _turn = SERIAL.lock().expect("no test panicked holding the lock");
    let spec = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
    let registry: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
    for (name, unit) in &registry {
        assert!(
            spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {name} in {unit}"
        );
    }
    assert_eq!(
        spec.matches("\"name\":").count(),
        registry.len() + WORKLOADS.len(),
        "BENCHMARK.json lists a metric the runner does not emit"
    );
    for w in WORKLOADS {
        for trace in [false, true] {
            let o = run_workload(w, &tiny(&format!("{w}-{trace}"), false), trace)
                .unwrap_or_else(|e| panic!("{w} trace={trace}: {e}"));
            assert!(o.correct(), "{w} trace={trace}: {:?}", o.errors);
            assert!(o.attempted >= 1);
            let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let line = report::result_line(
                o.correct(),
                o.attempted,
                o.failed,
                result_metrics(&o, trace).unwrap(),
            );
            for (name, unit) in names {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{w} trace={trace} lacks {name}: {line}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert_eq!(line.matches("\"value\"").count(), names.len());
            if !trace {
                for (name, _) in END_TO_END {
                    let v = result_metrics(&o, false)
                        .unwrap()
                        .into_iter()
                        .find(|m| m.0 == name)
                        .unwrap()
                        .1;
                    assert!(v > 0.0, "{w}: {name} = {v}");
                }
            }
        }
    }
}

#[test]
fn an_injected_wrong_answer_is_counted_as_failed() {
    let _turn = SERIAL.lock().expect("no test panicked holding the lock");
    for w in WORKLOADS {
        let o = run_workload(w, &tiny(&format!("{w}-inject"), true), false).unwrap();
        assert!(!o.correct(), "{w}");
        assert!(o.failed >= 1, "{w}");
        assert!(o.failed_ratio() > 0.0);
    }
}

#[test]
fn arguments_are_checked() {
    let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
    let a = args(&[
        "--workload",
        "tc-batch",
        "--seed",
        "9",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
    assert!(args(&["--workload", "nope"]).is_err());
    assert!(args(&["--workload", "tc-batch", "--trace", "2"]).is_err());
    assert!(args(&["--workload", "tc-batch", "--seconds", "0"]).is_err());
    assert!(args(&["--workload"]).is_err());
}
