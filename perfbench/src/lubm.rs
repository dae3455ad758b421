//! The two serving workloads over LUBM: `lubm-read` (two reader clients)
//! and `lubm-write` (one writer alternating insert and retract, plus one
//! reader). Both go through the whole user path — N-Triples + OWL files on
//! disk → `gtgd_ingest::ingest` → `Program::maintain` → `save_snapshot` →
//! `gtgd_storage::Server` on loopback — and talk to the daemon with the
//! closed-loop `gtgd_storage::Client`.

use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::{step, Tracer, COVERAGE_FLAG};
use crate::{alloc, mix, Run, Stop, READS, WRITES};
use gtgd_chase::{ChaseBudget, MaintainedInstance, MaintenanceReport};
use gtgd_data::obs::Metric;
use gtgd_data::rng::Rng;
use gtgd_data::{parse_fact, GroundAtom, Instance, Value};
use gtgd_ingest::{
    ingest, FactSink, IngestError, LubmConfig, LubmSource, OwlSource, Program, RdfSource, Source,
    ONTOLOGY_OWL,
};
use gtgd_query::{instance_isomorphic, parse_cq, CompiledQuery, Engine, PreparedQuery};
use gtgd_storage::bytes::fnv1a64;
use gtgd_storage::{load_snapshot, save_snapshot, snapshot_bytes, Client, Server};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// The E18 join: professors with the university of their department.
pub const JOIN: &str = "Ans(X,U) :- Professor(X), worksFor(X,D), subOrganizationOf(D,U)";
/// LUBM query 9, a cyclic triangle the planner routes to the WCOJ path.
pub const TRIANGLE: &str = "Q(S,C) :- takesCourse(S,C), teacherOf(P,C), advisor(S,P)";
/// Every student with its department (~6.9k rows at 40 universities).
pub const SCAN: &str = "Q(X,D) :- Student(X), memberOf(X,D)";
/// At most this many entities feed the lookup constants.
const POOL: usize = 256;
/// The warm-up write (inserted, then retracted) that thaws the daemon.
const WARM_FACT: &str = "Professor(warmup_prof)";

fn budget() -> ChaseBudget {
    ChaseBudget::atoms(20_000_000)
}

fn text<E: std::fmt::Display>(ctx: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{ctx}: {e}")
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The generator seed for `(univ, seed)`: the first seed derived from
/// `seed` whose data has the same atom count, within 0.5%, as the
/// generator's default seed at this scale. Entity names and links vary
/// with the seed; the instance size, which every cost here scales with,
/// does not.
fn data_seed(univ: usize, seed: u64) -> u64 {
    let count = |s: u64| {
        LubmSource::new(LubmConfig {
            universities: univ,
            seed: s,
        })
        .atom_count() as i64
    };
    let target = count(LubmConfig::default().seed);
    let mut best = (i64::MAX, seed);
    for k in 0..10_000u64 {
        let s = mix(seed, k);
        let gap = (count(s) - target).abs();
        if gap * 200 <= target {
            return s;
        }
        best = best.min((gap, s));
    }
    best.1
}

struct Inputs {
    nt: PathBuf,
    owl: PathBuf,
    snap: PathBuf,
    data_seed: u64,
}

fn write_inputs(dir: &Path, univ: usize, seed: u64) -> Result<Inputs, String> {
    let data_seed = data_seed(univ, seed);
    let inp = Inputs {
        nt: dir.join("data.nt"),
        owl: dir.join("ontology.ofn"),
        snap: dir.join("served.gsnap"),
        data_seed,
    };
    let nt = LubmSource::new(LubmConfig {
        universities: univ,
        seed: data_seed,
    })
    .ntriples();
    std::fs::write(&inp.nt, nt).map_err(text("write data.nt"))?;
    std::fs::write(&inp.owl, ONTOLOGY_OWL).map_err(text("write ontology.ofn"))?;
    Ok(inp)
}

fn source(inp: &Inputs) -> Result<OwlSource, String> {
    let abox = RdfSource::from_path(&inp.nt).map_err(text("read data.nt"))?;
    Ok(OwlSource::from_path(&inp.owl)
        .map_err(text("read ontology.ofn"))?
        .with_abox(abox))
}

fn ingest_program(inp: &Inputs) -> Result<Program, String> {
    ingest(&mut source(inp)?).map_err(text("ingest"))
}

/// A sink that only counts: `Source::schema` + `Source::facts` into it
/// is the parse share of `ingest`.
struct CountingSink(usize);

impl FactSink for CountingSink {
    fn push(&mut self, _atom: GroundAtom) -> Result<(), IngestError> {
        self.0 += 1;
        Ok(())
    }
}

fn parse_only(inp: &Inputs) -> Result<usize, String> {
    let mut src = source(inp)?;
    src.schema().map_err(text("schema"))?;
    let mut sink = CountingSink(0);
    src.facts(&mut sink).map_err(text("facts"))?;
    Ok(sink.0)
}

// ---------------------------------------------------------------------------
// Traffic
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Lookup,
    Join,
    Scan,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Lookup => "lookup",
            Class::Join => "join",
            Class::Scan => "scan",
        }
    }
}

struct Query {
    class: Class,
    text: String,
    triangle: bool,
}

/// Every query text of a run, and how the mix picks among them.
struct Traffic {
    queries: Vec<Query>,
    lookups: Vec<usize>,
}

impl Traffic {
    /// Lookups over a seeded pool of at most [`POOL`] entities, the two
    /// joins and the scan. Every entity named exists at any data seed: the
    /// generator makes at least 4 departments per university, 8 professors,
    /// 15 courses and 30 students per department.
    fn new(univ: usize, seed: u64) -> Traffic {
        let mut rng = Rng::seed(mix(seed, 0x5eed));
        let mut texts = BTreeSet::new();
        for i in 0..POOL {
            let dept = format!("u{}_d{}", rng.below(univ as u64), rng.below(4));
            texts.insert(match i % 3 {
                0 => format!("Q(X) :- worksFor(X, {dept})"),
                1 => format!("Q(C) :- takesCourse({dept}_s{}, C)", rng.below(30)),
                _ => format!("Q(S) :- advisor(S, {dept}_p{})", rng.below(8)),
            });
        }
        let mut queries: Vec<Query> = texts
            .into_iter()
            .map(|text| Query {
                class: Class::Lookup,
                text,
                triangle: false,
            })
            .collect();
        let lookups = (0..queries.len()).collect();
        for (text, class, triangle) in [
            (JOIN, Class::Join, false),
            (TRIANGLE, Class::Join, true),
            (SCAN, Class::Scan, false),
        ] {
            queries.push(Query {
                class,
                text: text.to_owned(),
                triangle,
            });
        }
        Traffic { queries, lookups }
    }

    /// Client `client`'s read sequence: 70% lookup, 25% join, 5% scan.
    fn stream(&self, seed: u64, client: u64) -> impl Iterator<Item = usize> + '_ {
        let mut rng = Rng::seed(mix(seed, 100 + client));
        let n = self.queries.len();
        std::iter::repeat_with(move || match rng.below(100) {
            0..=69 => self.lookups[rng.below(self.lookups.len() as u64) as usize],
            70..=94 => n - 3 + rng.below(2) as usize,
            _ => n - 1,
        })
    }
}

#[derive(Debug, Clone)]
struct WriteOp {
    insert: bool,
    atom: String,
}

/// Write `i` of the writer's sequence. Cycle `k = i / 4` inserts a fresh
/// fact F, retracts a base fact B whose derivation cone is not empty (so
/// DRed over-deletes and rescues), inserts B back and retracts F: inserts
/// and retracts alternate, retracts alternate between base and inserted
/// facts, and every cycle ends on the state it began with.
fn write_op(univ: usize, seed: u64, i: usize) -> WriteOp {
    let k = i / 4;
    let mut rng = Rng::seed(mix(seed, 0x1000_0000 + k as u64));
    let dept = format!("u{}_d{}", rng.below(univ as u64), rng.below(4));
    let (fresh, base) = if k.is_multiple_of(2) {
        (
            format!("Professor(bench_prof{k})"),
            format!("Professor({dept}_p{})", rng.below(8)),
        )
    } else {
        (
            format!("takesCourse(bench_stud{k}, {dept}_c{})", rng.below(15)),
            format!("memberOf({dept}_s{}, {dept})", rng.below(30)),
        )
    };
    let (insert, atom) = match i % 4 {
        0 => (true, fresh),
        1 => (false, base),
        2 => (true, base),
        _ => (false, fresh),
    };
    WriteOp { insert, atom }
}

/// Renders an answer set the way the daemon does (certain rows only,
/// sorted, tab/newline-joined) and returns its hash and row count.
fn render(answers: HashSet<Vec<Value>>) -> (u64, usize) {
    let mut rows: Vec<Vec<Value>> = answers
        .into_iter()
        .filter(|row| row.iter().all(|v| v.is_named()))
        .collect();
    rows.sort();
    let rendered = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect::<Vec<_>>()
        .join("\n");
    (fnv1a64(rendered.as_bytes()), rows.len())
}

fn prepare(q: &str) -> Result<(PreparedQuery, bool), String> {
    let cq = parse_cq(q).map_err(text("query"))?;
    let wcoj = CompiledQuery::compile(&cq.atoms).prefers_wcoj();
    Ok((Engine::prepare(&cq), wcoj))
}

/// The expected `(hash, rows)` of every query text over `i`.
fn expected(traffic: &Traffic, i: &Instance) -> Result<Vec<(u64, usize)>, String> {
    traffic
        .queries
        .iter()
        .map(|q| Ok(render(prepare(&q.text)?.0.answers(i))))
        .collect()
}

// ---------------------------------------------------------------------------
// The daemon and its set-up
// ---------------------------------------------------------------------------

struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(snap: &Path) -> Result<Daemon, String> {
        let server = Server::start(snap.to_path_buf(), "127.0.0.1:0").map_err(text("serve"))?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, handle })
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(text("connect"))
    }

    fn stop(self) -> Result<(), String> {
        self.client()?.shutdown().map_err(text("shutdown"))?;
        match self.handle.join() {
            Ok(r) => r.map_err(text("daemon")),
            Err(_) => Err("daemon thread panicked".to_owned()),
        }
    }
}

/// A query round trip; the reply's `(hash, rows)` on success.
fn ask(c: &mut Client, q: &str) -> Result<(u64, usize), String> {
    let resp = c
        .request(&[("op", "query"), ("q", q)])
        .map_err(text("transport"))?;
    if resp.get("ok").map(String::as_str) != Some("true") {
        return Err(format!("error reply to {q}: {:?}", resp.get("error")));
    }
    let answers = resp.get("answers").map_or("", String::as_str);
    let rows = resp
        .get("count")
        .and_then(|c| c.parse().ok())
        .ok_or("reply without a count")?;
    Ok((fnv1a64(answers.as_bytes()), rows))
}

/// A write round trip; the atom count after it on success.
fn write(c: &mut Client, op: &WriteOp) -> Result<usize, String> {
    let resp = if op.insert {
        c.insert(&op.atom)
    } else {
        c.retract(&op.atom)
    };
    let resp = resp.map_err(|e| format!("{}: {e}", op.atom))?;
    resp.get("atoms")
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| "write reply without an atom count".to_owned())
}

struct Ready {
    daemon: Daemon,
    base_atoms: usize,
    fixpoint_atoms: usize,
    snapshot_bytes: u64,
    /// Atoms served after warm-up; every write cycle returns to it.
    baseline: usize,
}

/// Set-up, from input files on disk to a daemon that has answered
/// warm-up: ingest, maintain, save the snapshot, start the server (which
/// loads it), then one request per query text, plus a thawing insert and
/// retract for `lubm-write`. A traced set-up keeps the program and its
/// maintained fixpoint for the context measurements.
fn setup(
    inp: &Inputs,
    traffic: &Traffic,
    writes: bool,
    mut t: Option<&mut Tracer>,
) -> Result<(Ready, Option<(Program, MaintainedInstance)>), String> {
    let program = step(&mut t, "ingest", || ingest_program(inp))?;
    let m = step(&mut t, "maint.build", || program.maintain(budget()));
    step(&mut t, "snapshot.save", || {
        save_snapshot(&inp.snap, &program.tgds, &m)
    })
    .map_err(text("save snapshot"))?;
    let base_atoms = program.facts.len();
    let fixpoint_atoms = m.instance().len();
    let kept = if t.is_some() {
        Some((program, m))
    } else {
        // The untraced path frees the build before serving, as separate
        // `gtgd ingest --snapshot` and `gtgd serve` processes would.
        None
    };
    let snapshot_bytes = std::fs::metadata(&inp.snap).map_or(0, |md| md.len());
    let daemon = step(&mut t, "serve.start", || Daemon::start(&inp.snap))?;
    let baseline = step(&mut t, "serve.warmup", || -> Result<usize, String> {
        let mut c = daemon.client()?;
        for q in &traffic.queries {
            ask(&mut c, &q.text)?;
        }
        if writes {
            let warm = |insert| WriteOp {
                insert,
                atom: WARM_FACT.to_owned(),
            };
            write(&mut c, &warm(true))?;
            write(&mut c, &warm(false))
        } else {
            c.stats()
                .map_err(text("stats"))?
                .get("atoms")
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| "stats without atoms".to_owned())
        }
    })?;
    Ok((
        Ready {
            daemon,
            base_atoms,
            fixpoint_atoms,
            snapshot_bytes,
            baseline,
        },
        kept,
    ))
}

// ---------------------------------------------------------------------------
// Untraced run
// ---------------------------------------------------------------------------

struct ReadSample {
    q: usize,
    ms: f64,
    reply: Result<(u64, usize), String>,
}

struct WriteSample {
    i: usize,
    ms: f64,
    reply: Result<usize, String>,
}

fn reader(
    addr: SocketAddr,
    traffic: &Traffic,
    seed: u64,
    client: u64,
    stop: &Stop,
) -> Vec<ReadSample> {
    let mut out = Vec::new();
    let mut conn = Client::connect(addr).map_err(text("connect"));
    for q in traffic.stream(seed, client) {
        if stop.done() {
            break;
        }
        let t = Instant::now();
        let reply = match &mut conn {
            Ok(c) => ask(c, &traffic.queries[q].text),
            Err(e) => Err(e.clone()),
        };
        out.push(ReadSample {
            q,
            ms: t.elapsed().as_secs_f64() * 1e3,
            reply,
        });
        stop.tick(READS);
    }
    out
}

fn writer(addr: SocketAddr, univ: usize, seed: u64, stop: &Stop) -> Vec<WriteSample> {
    let mut out = Vec::new();
    let mut conn = Client::connect(addr).map_err(text("connect"));
    for i in 0.. {
        if stop.done() {
            break;
        }
        let op = write_op(univ, seed, i);
        let t = Instant::now();
        let reply = match &mut conn {
            Ok(c) => write(c, &op),
            Err(e) => Err(e.clone()),
        };
        out.push(WriteSample {
            i,
            ms: t.elapsed().as_secs_f64() * 1e3,
            reply,
        });
        stop.tick(WRITES);
    }
    out
}

fn p(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    percentile(samples, q).map_err(|e| format!("{what}: {e}"))
}

/// The untraced run of `lubm-read` (`writes == false`) or `lubm-write`.
pub fn run(run: &Run, writes: bool) -> Result<Outcome, String> {
    let univ = if writes {
        run.scale.write_univ
    } else {
        run.scale.read_univ
    };
    let inp = write_inputs(&run.dir, univ, run.seed)?;
    let traffic = Traffic::new(univ, run.seed);
    let mut o = Outcome::default();

    let mut setups = Vec::new();
    let mut ready: Option<Ready> = None;
    for _ in 0..run.scale.lubm_setups {
        if let Some(r) = ready.take() {
            r.daemon.stop()?;
        }
        let t = Instant::now();
        ready = Some(setup(&inp, &traffic, writes, None)?.0);
        setups.push(t.elapsed().as_secs_f64());
    }
    let ready = ready.ok_or("no set-up ran")?;

    let stop = Stop::new(run.seconds, [1000, if writes { 100 } else { 0 }]);
    let addr = ready.daemon.addr;
    let (mut reads, wrote): (Vec<ReadSample>, Vec<WriteSample>) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..if writes { 1 } else { 2 })
            .map(|c| {
                let (traffic, stop) = (&traffic, &stop);
                s.spawn(move || reader(addr, traffic, run.seed, c, stop))
            })
            .collect();
        let w = writes.then(|| s.spawn(|| writer(addr, univ, run.seed, &stop)));
        let reads = readers
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread"))
            .collect();
        let wrote = w.map_or_else(Vec::new, |h| h.join().expect("writer thread"));
        (reads, wrote)
    });
    let elapsed = stop.elapsed();
    let rss = alloc::peak_rss_mb();

    // After the timed phase: the daemon's final answers (lubm-write), then
    // the references.
    let mut finals: Vec<Result<(u64, usize), String>> = if writes {
        let mut c = ready.daemon.client()?;
        traffic
            .queries
            .iter()
            .map(|q| ask(&mut c, &q.text))
            .collect()
    } else {
        Vec::new()
    };
    let baseline = ready.baseline;
    let (base_atoms, fixpoint_atoms, snap_bytes) =
        (ready.base_atoms, ready.fixpoint_atoms, ready.snapshot_bytes);
    ready.daemon.stop()?;

    if run.inject_wrong {
        // The first reply the checks below compare with a reference.
        let checked = if writes {
            finals.first_mut()
        } else {
            reads.first_mut().map(|r| &mut r.reply)
        };
        if let Some(Ok((_, rows))) = checked {
            *rows += 1;
        }
    }

    o.attempted = (reads.len() + wrote.len()) as u64;
    let program = ingest_program(&inp)?;
    if writes {
        // Reads race the writer, so they are checked for an ok reply only;
        // the final state is checked against a re-chase.
        for r in &reads {
            if let Err(e) = &r.reply {
                o.fail(e.clone());
            }
        }
        let mut facts: HashSet<GroundAtom> = program.facts.iter().cloned().collect();
        for w in &wrote {
            match &w.reply {
                Err(e) => o.fail(e.clone()),
                Ok(atoms) => {
                    let op = write_op(univ, run.seed, w.i);
                    let atom = parse_fact(&op.atom).map_err(text("write atom"))?;
                    if op.insert {
                        facts.insert(atom);
                    } else {
                        facts.remove(&atom);
                    }
                    if w.i % 4 == 3 && *atoms != baseline {
                        o.fail(format!(
                            "write {} ends a cycle with {atoms} atoms, expected {baseline}",
                            w.i
                        ));
                    }
                }
            }
        }
        let rechased = program
            .runner()
            .budget(budget())
            .run(&Instance::from_atoms(facts));
        let served = load_snapshot(&inp.snap).map_err(text("load final snapshot"))?;
        if !instance_isomorphic(served.instance(), &rechased.instance) {
            o.fail("final state is not isomorphic to a re-chase of the writes".to_owned());
        }
        let want = expected(&traffic, &rechased.instance)?;
        o.attempted += finals.len() as u64;
        for (i, got) in finals.into_iter().enumerate() {
            match got {
                Ok(got) if got == want[i] => {}
                Ok(got) => o.fail(format!(
                    "final answer to {} has {} rows, expected {}",
                    traffic.queries[i].text, got.1, want[i].1
                )),
                Err(e) => o.fail(e),
            }
        }
    } else {
        let m = program.maintain(budget());
        let want = expected(&traffic, m.instance())?;
        for r in &reads {
            match &r.reply {
                Ok(got) if *got == want[r.q] => {}
                Ok(got) => o.fail(format!(
                    "answer to {} has {} rows, expected {}",
                    traffic.queries[r.q].text, got.1, want[r.q].1
                )),
                Err(e) => o.fail(e.clone()),
            }
        }
    }

    let read_ms: Vec<f64> = reads.iter().map(|r| r.ms).collect();
    let class_ms = |c: Class| -> Vec<f64> {
        reads
            .iter()
            .filter(|r| traffic.queries[r.q].class == c)
            .map(|r| r.ms)
            .collect()
    };
    let write_ms = |insert: Option<bool>| -> Vec<f64> {
        wrote
            .iter()
            .filter(|w| insert.is_none_or(|ins| write_op(univ, run.seed, w.i).insert == ins))
            .map(|w| w.ms)
            .collect()
    };
    // Set up again after the timed phase (and after the checks, which read
    // the final snapshot), so that `setup_s` samples the machine at both
    // ends of the run.
    for _ in 0..run.scale.lubm_setups {
        let t = Instant::now();
        let again = setup(&inp, &traffic, writes, None)?.0;
        setups.push(t.elapsed().as_secs_f64());
        again.daemon.stop()?;
    }

    // The workload's own operations: reads on lubm-read, writes on
    // lubm-write (whose reader's rate is `query_per_s` on the report line).
    let ops = if writes { wrote.len() } else { reads.len() };
    o.set("setup_s", median(&setups));
    o.set("ops_per_s", ops as f64 / elapsed);
    o.set("peak_rss_mb", rss);

    o.detail("setup_s", median(&setups), "s");
    for c in [Class::Lookup, Class::Join, Class::Scan] {
        let name = format!("{}_p50_ms", c.name());
        o.detail(&name, p(&class_ms(c), 0.5, &name)?, "ms");
    }
    o.detail("query_p99_ms", p(&read_ms, 0.99, "reads")?, "ms");
    o.detail("query_per_s", reads.len() as f64 / elapsed, "1/s");
    if writes {
        o.detail(
            "insert_p50_ms",
            p(&write_ms(Some(true)), 0.5, "inserts")?,
            "ms",
        );
        o.detail(
            "retract_p50_ms",
            p(&write_ms(Some(false)), 0.5, "retracts")?,
            "ms",
        );
        o.detail("write_p90_ms", p(&write_ms(None), 0.9, "writes")?, "ms");
    }
    o.detail("failed_ratio", o.failed_ratio(), "ratio");
    o.detail("peak_rss_mb", rss, "MB");
    o.detail(
        "snapshot_bytes_per_atom",
        snap_bytes as f64 / fixpoint_atoms as f64,
        "B",
    );
    o.note("universities", univ);
    o.note("data_seed", inp.data_seed);
    o.note("base_atoms", base_atoms);
    o.note("fixpoint_atoms", fixpoint_atoms);
    o.note("snapshot_bytes", snap_bytes);
    o.note("reads", reads.len());
    o.note("writes", wrote.len());
    o.note("measured_s", elapsed);
    o.note(
        "clients",
        if writes {
            "1 writer + 1 reader, closed loop"
        } else {
            "2 readers, closed loop"
        },
    );
    o.note("query_texts", traffic.queries.len());
    Ok(o)
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// The query's kind in span and metric names: its class, with the
/// triangle told apart from the E18 join.
fn kind(q: &Query) -> &'static str {
    match q.class {
        Class::Join if q.triangle => "triangle",
        c => c.name(),
    }
}

fn rt_span(q: &Query) -> &'static str {
    match kind(q) {
        "lookup" => "serve.rt.lookup",
        "join" => "serve.rt.join",
        "triangle" => "serve.rt.triangle",
        _ => "serve.rt.scan",
    }
}

fn eval_span(q: &Query) -> &'static str {
    match kind(q) {
        "lookup" => "query.eval.lookup",
        "join" => "query.eval.join",
        "triangle" => "query.eval.triangle",
        _ => "query.eval.scan",
    }
}

/// The traced run: set-up once under spans, context measurements of the
/// layers set-up calls through wrappers (parse alone, the plain chase,
/// encode, load, thaw), then a single-threaded replay of the first reads
/// of reader 0's sequence (each both as a round trip and in-process on the
/// same state) and, for `lubm-write`, the first writes of the writer's
/// sequence (each in-process under spans, on an untraced twin, and as a
/// round trip).
pub fn traced(run: &Run, writes: bool) -> Result<Outcome, String> {
    let univ = if writes {
        run.scale.write_univ
    } else {
        run.scale.read_univ
    };
    let inp = write_inputs(&run.dir, univ, run.seed)?;
    let traffic = Traffic::new(univ, run.seed);
    let mut o = Outcome::default();
    let mut t = Tracer::new();

    let (ready, kept) = t.span("setup", |t| setup(&inp, &traffic, writes, Some(t)))?;
    let (program, m) = kept.ok_or("traced set-up keeps its build")?;
    let parsed = t.span("ingest.parse", |_| parse_only(&inp))?;
    let chased = t.span("chase.run", |_| {
        program.runner().budget(budget()).run(&program.facts)
    });
    t.span("snapshot.encode", |_| {
        snapshot_bytes(&program.tgds, &m).len()
    });
    let live0 = alloc::live_bytes();
    let loaded = t.span("snapshot.load", |_| {
        load_snapshot(&inp.snap).map_err(text("load"))
    })?;
    let live = alloc::live_growth(live0);
    let want = expected(&traffic, m.instance())?;

    let mut client = ready.daemon.client()?;
    let mut prepared: HashMap<usize, (PreparedQuery, bool)> = HashMap::new();
    let mut answers: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let (mut wcoj_runs, mut evals) = (0usize, 0usize);
    let (mut traced_ms, mut plain_ms) = (0.0, 0.0);
    for q in traffic.stream(run.seed, 0).take(run.scale.replay_reads) {
        t.next_op();
        o.attempted += 1;
        let query = &traffic.queries[q];
        // Prepared once per text, as the daemon's plan cache does.
        let (pq, wcoj) = match prepared.entry(q) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(t.span("query.prepare", |_| prepare(&query.text))?),
        };
        match t.span(rt_span(query), |_| ask(&mut client, &query.text)) {
            Ok(got) if got == want[q] => {}
            Ok(got) => o.fail(format!("reply to {} has {} rows", query.text, got.1)),
            Err(e) => o.fail(e),
        }
        let name = eval_span(query);
        let rows = t.span(name, |_| pq.answers(loaded.instance()));
        traced_ms += t.last_ms(name);
        plain_ms += t.untraced(|| pq.answers(loaded.instance()).len()).1;
        let got = render(rows);
        if got != want[q] {
            o.fail(format!("in-process {} has {} rows", query.text, got.1));
        }
        answers.entry(kind(query)).or_default().push(got.1 as f64);
        evals += 1;
        wcoj_runs += usize::from(*wcoj);
    }

    let mut maint = MaintenanceReport::default();
    if writes {
        let mut state = t.span("maint.thaw", |_| {
            loaded.to_maintained().map_err(text("thaw"))
        })?;
        let mut twin = loaded.to_maintained().map_err(text("thaw"))?;
        let (path, twin_path) = (run.dir.join("replay.gsnap"), run.dir.join("twin.gsnap"));
        let tgds = &program.tgds;
        for i in 0..run.scale.replay_writes {
            t.next_op();
            o.attempted += 1;
            let op = write_op(univ, run.seed, i);
            let atom = parse_fact(&op.atom).map_err(text("write atom"))?;
            let apply = |m: &mut MaintainedInstance| {
                if op.insert {
                    m.insert([atom.clone()])
                } else {
                    m.retract([atom.clone()])
                }
            };
            let (next, rep) = t.span("write", |t| {
                let mut next = t.span("maint.clone", |_| state.clone());
                let name = if op.insert {
                    "maint.insert"
                } else {
                    "maint.retract"
                };
                let rep = t.span(name, |_| apply(&mut next));
                t.span("snapshot.save", |_| save_snapshot(&path, tgds, &next))
                    .map(|()| (next, rep))
                    .map_err(text("save"))
            })?;
            state = next;
            traced_ms += t.last_ms("write");
            let (n, ms) = t.untraced(|| {
                let mut n = twin.clone();
                apply(&mut n);
                save_snapshot(&twin_path, tgds, &n).map(|()| n)
            });
            twin = n.map_err(text("save"))?;
            plain_ms += ms;
            t.span("snapshot.encode", |_| snapshot_bytes(tgds, &state).len());
            if let Err(e) = t.span("serve.write_rt", |_| write(&mut client, &op)) {
                o.fail(e);
            }
            maint.triggers_fired += rep.triggers_fired;
            maint.atoms_overdeleted += rep.atoms_overdeleted;
            maint.atoms_rederived += rep.atoms_rederived;
        }
        let served_state = {
            let stats = client.stats().map_err(text("stats"))?;
            stats.get("atoms").cloned().unwrap_or_default()
        };
        if served_state != state.instance().len().to_string() {
            o.fail(format!(
                "daemon serves {served_state} atoms, in-process replay has {}",
                state.instance().len()
            ));
        }
        o.set("maint.thaw_ms", t.last_ms("maint.thaw"));
        o.set("maint.clone_ms", median(&t.durations("maint.clone")));
        o.set("maint.insert_ms", median(&t.durations("maint.insert")));
        o.set("maint.retract_ms", median(&t.durations("maint.retract")));
        o.set("maint.triggers_fired", maint.triggers_fired as f64);
        o.set("maint.atoms_overdeleted", maint.atoms_overdeleted as f64);
        o.set("maint.atoms_rederived", maint.atoms_rederived as f64);
        if maint.atoms_overdeleted > 0 {
            o.set(
                "maint.rescue_ratio",
                maint.atoms_rederived as f64 / maint.atoms_overdeleted as f64,
            );
        }
        o.set(
            "serve.write_overhead_ms",
            median(&t.durations("serve.write_rt")) - median(&t.durations("write")),
        );
    } else {
        for name in [
            "maint.thaw_ms",
            "maint.clone_ms",
            "maint.insert_ms",
            "maint.retract_ms",
        ] {
            o.missing(name, "the daemon is never written to on lubm-read");
        }
    }
    let stats = client.stats().map_err(text("stats"))?;
    let num = |k: &str| -> f64 { stats.get(k).and_then(|v| v.parse().ok()).unwrap_or(0.0) };
    let plan_lookups = num("plan_hits") + num("plan_misses");
    drop(client);
    ready.daemon.stop()?;

    // Per-layer metrics.
    let by_name = t.by_name();
    let ingest_ms = t.last_ms("ingest");
    let parse_ms = t.last_ms("ingest.parse");
    o.set("ingest.parse_ms", parse_ms);
    o.set("ingest.sink_ms", ingest_ms - parse_ms);
    o.set("ingest.atoms", program.facts.len() as f64);
    o.note("parsed_facts", parsed);
    let run_ms = t.last_ms("chase.run");
    o.set("chase.run_ms", run_ms);
    o.set("chase.fixpoint_atoms", chased.instance.len() as f64);
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
    o.set("maint.build_ms", t.last_ms("maint.build"));
    o.set("maint.build_over_run", t.last_ms("maint.build") / run_ms);
    let encode = median(&t.durations("snapshot.encode"));
    o.set("snapshot.encode_ms", encode);
    o.set(
        "snapshot.write_ms",
        median(&t.durations("snapshot.save")) - encode,
    );
    o.set("snapshot.load_ms", t.last_ms("snapshot.load"));
    o.set("snapshot.bytes", ready.snapshot_bytes as f64);
    o.set(
        "snapshot.bytes_per_atom",
        ready.snapshot_bytes as f64 / ready.fixpoint_atoms as f64,
    );
    o.set("query.prepare_ms", median(&t.durations("query.prepare")));
    let kinds = [
        (
            "lookup",
            "query.eval_ms.lookup",
            "query.answers.lookup",
            Some("serve.overhead_ms.lookup"),
        ),
        (
            "join",
            "query.eval_ms.join",
            "query.answers.join",
            Some("serve.overhead_ms.join"),
        ),
        (
            "scan",
            "query.eval_ms.scan",
            "query.answers.scan",
            Some("serve.overhead_ms.scan"),
        ),
        (
            "triangle",
            "query.eval_ms.triangle",
            "query.answers.triangle",
            None,
        ),
    ];
    for (kind, eval, rows, overhead) in kinds {
        let eval_ms = median(&t.durations(&format!("query.eval.{kind}")));
        o.set(eval, eval_ms);
        o.set(
            rows,
            median(answers.get(kind).map_or(&[][..], Vec::as_slice)),
        );
        if let Some(name) = overhead {
            let rt_ms = median(&t.durations(&format!("serve.rt.{kind}")));
            o.set(name, rt_ms - eval_ms);
        }
    }
    o.set("query.wcoj_share", wcoj_runs as f64 / evals.max(1) as f64);
    o.set(
        "kernel.nodes_visited",
        t.counter("query.eval", Metric::KernelNodes) as f64,
    );
    o.set(
        "wcoj.seeks",
        t.counter("query.eval", Metric::WcojSeeks) as f64,
    );
    o.set(
        "query.plan_hit_ratio",
        num("plan_hits") / plan_lookups.max(1.0),
    );
    o.set(
        "data.live_bytes_per_atom",
        live as f64 / loaded.instance().len() as f64,
    );
    for (layer, bytes) in t.alloc_by_layer() {
        let name = match layer {
            "ingest" => "data.alloc_bytes.ingest",
            "chase" => "data.alloc_bytes.chase",
            "maint" => "data.alloc_bytes.maint",
            "snapshot" => "data.alloc_bytes.snapshot",
            "query" => "data.alloc_bytes.query",
            _ => "data.alloc_bytes.serve",
        };
        o.set(name, bytes as f64);
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
        ("trace.coverage.write", "write"),
    ] {
        if let Some(c) = by_name.get(span).and_then(|s| s.coverage()) {
            o.set(name, c);
        }
    }
    if !writes {
        o.missing("trace.coverage.write", "no writes on lubm-read");
        o.missing("serve.write_overhead_ms", "no writes on lubm-read");
    }
    o.missing("trace.coverage.job", "no batch jobs on the LUBM workloads");
    o.set("trace.overhead", traced_ms / plain_ms - 1.0);
    t.summarize(&mut o);
    o.note("universities", univ);
    o.note("data_seed", inp.data_seed);
    o.note("coverage_flag_below", COVERAGE_FLAG);
    Ok(o)
}
