//! The gtgd benchmark: one runner for three workloads, each printing a
//! report line and then a result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lubm-read|lubm-write|tc-batch|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Without `--trace` (or with `--trace 0`) a run measures the end-to-end
//! metrics with tracing off; `--trace 1` makes the separate traced run that
//! reports the per-layer metrics. See `perfbench/README.md` for the
//! workloads, the metric definitions and how they interact.

mod alloc;
mod lubm;
mod report;
mod stats;
mod tc;
mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

pub const WORKLOADS: [&str; 3] = ["lubm-read", "lubm-write", "tc-batch"];

/// Input sizes and repeat counts.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub read_univ: usize,
    pub write_univ: usize,
    /// Set-ups of a LUBM run before the timed phase, and again after it;
    /// `setup_s` is the median of all of them.
    pub lubm_setups: usize,
    /// The same for `tc-batch` (a set-up reads the inputs and runs one job
    /// per input).
    pub tc_setups: usize,
    pub replay_reads: usize,
    pub replay_writes: usize,
    pub tc_nodes: usize,
    pub tc_edges: usize,
    pub tc_dags: usize,
    pub replay_jobs: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        read_univ: 40,
        write_univ: 8,
        lubm_setups: 3,
        tc_setups: 3,
        replay_reads: 600,
        replay_writes: 60,
        tc_nodes: 150,
        tc_edges: 559,
        tc_dags: 16,
        replay_jobs: 16,
    };
}

/// One workload run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Where inputs and snapshots go; removed after the run.
    pub dir: PathBuf,
    pub scale: Scale,
    /// Corrupts one recorded answer before the checks (for the tests).
    pub inject_wrong: bool,
}

/// Derives the `k`-th sub-seed of `seed` (SplitMix64 finalizer).
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub const READS: usize = 0;
pub const WRITES: usize = 1;

/// When a timed phase ends: after `seconds`, once every operation kind
/// has the samples its reported percentiles need — or, if that never
/// happens, at four times `seconds`, when the percentiles refuse.
pub struct Stop {
    start: Instant,
    seconds: f64,
    need: [usize; 2],
    done: [AtomicUsize; 2],
}

impl Stop {
    pub fn new(seconds: f64, need: [usize; 2]) -> Stop {
        Stop {
            start: Instant::now(),
            seconds,
            need,
            done: [AtomicUsize::new(0), AtomicUsize::new(0)],
        }
    }

    /// Counts one completed operation of kind `k`.
    pub fn tick(&self, k: usize) {
        self.done[k].fetch_add(1, Ordering::Relaxed);
    }

    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    pub fn done(&self) -> bool {
        let t = self.elapsed();
        let enough = (0..2).all(|k| self.done[k].load(Ordering::Relaxed) >= self.need[k]);
        t >= 4.0 * self.seconds || (t >= self.seconds && enough)
    }
}

/// Runs one workload in `run.dir`.
pub fn run_workload(name: &str, run: &Run, trace: bool) -> Result<Outcome, String> {
    std::fs::create_dir_all(&run.dir).map_err(|e| format!("{}: {e}", run.dir.display()))?;
    let out = match (name, trace) {
        ("lubm-read", false) => lubm::run(run, false),
        ("lubm-read", true) => lubm::traced(run, false),
        ("lubm-write", false) => lubm::run(run, true),
        ("lubm-write", true) => lubm::traced(run, true),
        ("tc-batch", false) => tc::run(run),
        ("tc-batch", true) => tc::traced(run),
        _ => Err(format!("unknown workload {name:?}")),
    };
    let _ = std::fs::remove_dir_all(&run.dir);
    if let Some(parent) = run.dir.parent() {
        // Succeeds only once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let mut o = out?;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    o.note("cores", cores);
    o.note(
        "flush_policy",
        "snapshot rewritten per write: temp file + rename, no fsync",
    );
    Ok(o)
}

/// The result-line metrics of `o`.
pub fn result_metrics(
    o: &Outcome,
    trace: bool,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    Ok(o.metrics_for(names, trace)?
        .into_iter()
        .map(|(n, v, u)| (n.to_owned(), v, u))
        .collect())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload lubm-read|lubm-write|tc-batch|all \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for name in &names {
        let run = Run {
            seed: args.seed,
            seconds: args.seconds,
            dir: Path::new(".bench_work").join(format!("{name}-{}", std::process::id())),
            scale: Scale::FULL,
            inject_wrong: false,
        };
        let o = match run_workload(name, &run, args.trace)
            .and_then(|o| result_metrics(&o, args.trace).map(|m| (o, m)))
        {
            Ok(x) => x,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(3);
            }
        };
        let (o, m) = o;
        println!("{}", report::report_line(name, args.seed, args.trace, &o));
        if let Some(tsv) = &o.spans_tsv {
            let path = Path::new(".bench_out").join(format!("spans-{name}-seed{}.tsv", args.seed));
            if let Err(e) =
                std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, tsv))
            {
                eprintln!("perfbench: {}: {e}", path.display());
            }
        }
        for e in &o.errors {
            eprintln!("perfbench: {name}: wrong: {e}");
        }
        correct &= o.correct();
        attempted += o.attempted;
        failed += o.failed;
        if names.len() == 1 {
            metrics = m;
        } else {
            println!(
                "{}",
                report::result_line(o.correct(), o.attempted, o.failed, m.clone())
            );
            metrics.extend(m.into_iter().map(|(n, v, u)| (format!("{name}.{n}"), v, u)));
        }
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests;
