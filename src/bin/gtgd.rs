//! `gtgd` — evaluate query scripts, ingest external data, generate
//! workloads, snapshot, and serve. Every subcommand routes through the
//! shared [`gtgd::cli`] machinery (per-subcommand `--help`, unknown-flag
//! rejection) and fails with the stable exit codes of
//! [`gtgd::error::GtgdError`].
//!
//! ```text
//! gtgd script.gtgd                # evaluate a script file (or - for stdin)
//! gtgd --trace script.gtgd        # also print the probe report (JSON, stderr)
//! gtgd --certify script.gtgd      # print answer certificates (JSON, stdout)
//! gtgd maintain script.gtgd       # apply +atom / -atom ops incrementally
//! gtgd snapshot script.gtgd o.gsnap         # chase once, persist the fixpoint
//! gtgd serve o.gsnap [--addr HOST:PORT]     # serve a snapshot
//! gtgd serve o.gsnap --ingest --lubm 2      # build the snapshot by ingestion, then serve
//! gtgd ingest --rdf data.nt --owl onto.ofn --query 'Ans(X) :- Person(X)'
//! gtgd ingest --csv manifest.txt --chase
//! gtgd gen lubm --univ 100 --out bench/     # deterministic LUBM-style workload
//! ```
//!
//! `gtgd <subcommand> --help` documents each surface. See `gtgd::script`
//! for the script format and `gtgd_ingest` for the frontends.

use gtgd::chase::{certificates_to_json, ChaseBudget, ChaseRunner};
use gtgd::cli::{Command, Flag, Invocation, Parsed};
use gtgd::data::obs;
use gtgd::error::GtgdError;
use gtgd::ingest::{
    ingest, CsvSource, LubmConfig, LubmSource, OwlSource, Program, RdfSource, Source, ONTOLOGY_OWL,
    ONTOLOGY_TGDS,
};
use gtgd::query::Engine;
use gtgd::script::{certify_script, eval_script, parse_script, run_maintained, MaintOp, Mode};
use gtgd::storage::{save_snapshot, Server};
use std::io::Read;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------- commands

const EVAL: Command = Command {
    name: "",
    args: "<script-file | ->",
    about: "Evaluate a query script open- or closed-world.",
    flags: &[
        Flag {
            name: "--trace",
            value: None,
            help: "print the probe report (JSON, stderr)",
        },
        Flag {
            name: "--certify",
            value: None,
            help: "print answer certificates (JSON, stdout); summary moves to stderr",
        },
        Flag {
            name: "--maintain",
            value: None,
            help: "apply +atom / -atom ops incrementally (same as `gtgd maintain`)",
        },
    ],
    min_args: 1,
    max_args: 1,
};

const MAINTAIN: Command = Command {
    name: "maintain",
    args: "<script-file | ->",
    about: "Chase a script's base once, then apply its +atom / -atom ops \
            incrementally (delta chase / DRed), answering over the final instance.",
    flags: &[Flag {
        name: "--trace",
        value: None,
        help: "print the probe report (JSON, stderr)",
    }],
    min_args: 1,
    max_args: 1,
};

const SNAPSHOT: Command = Command {
    name: "snapshot",
    args: "<script-file | -> <out.gsnap>",
    about: "Chase an open-world script once (applying any maintenance ops) and \
            persist the maintained fixpoint as a binary snapshot.",
    flags: &[BUDGET_FLAG],
    min_args: 2,
    max_args: 2,
};

const BUDGET_FLAG: Flag = Flag {
    name: "--budget",
    value: Some("ATOMS"),
    help: "chase atom budget (0 = unbounded; default 10000000)",
};

// The ingestion source flags, shared verbatim by `ingest` and
// `serve --ingest` so the two surfaces never drift.
const RDF_FLAG: Flag = Flag {
    name: "--rdf",
    value: Some("FILE"),
    help: "RDF data (N-Triples / Turtle subset)",
};
const OWL_FLAG: Flag = Flag {
    name: "--owl",
    value: Some("FILE"),
    help: "OWL 2 functional-syntax ontology (DL-Lite/ELHI\u{2293} fragment)",
};
const CSV_FLAG: Flag = Flag {
    name: "--csv",
    value: Some("MANIFEST"),
    help: "CSV manifest declaring tables, keys, inclusion dependencies",
};
const LUBM_FLAG: Flag = Flag {
    name: "--lubm",
    value: Some("UNIV"),
    help: "generate a LUBM-style workload with UNIV universities",
};
const SEED_FLAG: Flag = Flag {
    name: "--seed",
    value: Some("N"),
    help: "generator seed (with --lubm)",
};
const FULL_IRIS_FLAG: Flag = Flag {
    name: "--full-iris",
    value: None,
    help: "keep absolute IRIs instead of shortening to local names",
};

const INGEST: Command = Command {
    name: "ingest",
    args: "",
    about: "Ingest external data through one of the frontends into a program \
            (facts + guarded TGDs), then optionally chase, query, or snapshot it.\n\
            Sources: --rdf (optionally with --owl), --csv, or --lubm.",
    flags: &[
        RDF_FLAG,
        OWL_FLAG,
        CSV_FLAG,
        LUBM_FLAG,
        SEED_FLAG,
        FULL_IRIS_FLAG,
        BUDGET_FLAG,
        Flag {
            name: "--chase",
            value: None,
            help: "chase to the fixpoint and report its size",
        },
        Flag {
            name: "--query",
            value: Some("CQ"),
            help: "chase, then answer this conjunctive query (Ans(X) :- Body)",
        },
        Flag {
            name: "--snapshot",
            value: Some("OUT"),
            help: "chase into a maintained fixpoint and persist it as a snapshot",
        },
    ],
    min_args: 0,
    max_args: 0,
};

const SERVE: Command = Command {
    name: "serve",
    args: "<snapshot.gsnap>",
    about: "Serve a snapshot over line-delimited JSON/TCP. With --ingest, build \
            the snapshot first from the given source flags, then serve it.",
    flags: &[
        Flag {
            name: "--addr",
            value: Some("HOST:PORT"),
            help: "bind address (default 127.0.0.1:7411)",
        },
        Flag {
            name: "--ingest",
            value: None,
            help: "build the snapshot from --rdf/--owl/--csv/--lubm before serving",
        },
        RDF_FLAG,
        OWL_FLAG,
        CSV_FLAG,
        LUBM_FLAG,
        SEED_FLAG,
        FULL_IRIS_FLAG,
        BUDGET_FLAG,
    ],
    min_args: 1,
    max_args: 1,
};

const GEN: Command = Command {
    name: "gen",
    args: "<workload>",
    about: "Generate a deterministic benchmark workload. Workloads: lubm \
            (university domain; ~1.3k atoms per university). Same --univ and \
            --seed produce byte-identical output.",
    flags: &[
        Flag {
            name: "--univ",
            value: Some("N"),
            help: "number of universities (default 1)",
        },
        SEED_FLAG,
        Flag {
            name: "--format",
            value: Some("FMT"),
            help: "ntriples (default) or facts (datalog text)",
        },
        Flag {
            name: "--out",
            value: Some("DIR"),
            help: "write data + ontology into DIR instead of stdout",
        },
    ],
    min_args: 1,
    max_args: 1,
};

// ------------------------------------------------------------------ helpers

fn read_source(arg: &str) -> Result<String, GtgdError> {
    if arg == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| GtgdError::Io {
                path: "<stdin>".to_string(),
                message: e.to_string(),
            })?;
        Ok(buf)
    } else {
        std::fs::read_to_string(arg).map_err(|e| GtgdError::Io {
            path: arg.to_string(),
            message: e.to_string(),
        })
    }
}

fn budget_from(p: &Parsed) -> Result<ChaseBudget, GtgdError> {
    Ok(match p.int_value("--budget")? {
        Some(0) => ChaseBudget::unbounded(),
        Some(n) => ChaseBudget::atoms(n as usize),
        None => ChaseBudget::atoms(10_000_000),
    })
}

/// Builds the ingestion source the shared `--rdf/--owl/--csv/--lubm`
/// flags describe. Exactly one source family must be selected.
fn source_from(p: &Parsed) -> Result<Box<dyn Source>, GtgdError> {
    let rdf = p.value("--rdf");
    let owl = p.value("--owl");
    let csv = p.value("--csv");
    let lubm = p.int_value("--lubm")?;
    let seed = p.int_value("--seed")?;
    let families = usize::from(rdf.is_some() || owl.is_some())
        + usize::from(csv.is_some())
        + usize::from(lubm.is_some());
    if families != 1 {
        return Err(GtgdError::Usage(
            "select exactly one source: --rdf [--owl], --csv, or --lubm".to_string(),
        ));
    }
    if seed.is_some() && lubm.is_none() {
        return Err(GtgdError::Usage(
            "--seed only applies to --lubm".to_string(),
        ));
    }
    if p.has("--full-iris") && rdf.is_none() {
        return Err(GtgdError::Usage(
            "--full-iris only applies to --rdf".to_string(),
        ));
    }
    if let Some(univ) = lubm {
        let cfg = LubmConfig {
            universities: univ as usize,
            seed: seed.unwrap_or(LubmConfig::default().seed),
        };
        return Ok(Box::new(LubmSource::new(cfg)));
    }
    if let Some(manifest) = csv {
        return Ok(Box::new(CsvSource::from_path(Path::new(manifest))?));
    }
    let rdf_source = match rdf {
        Some(f) => Some(RdfSource::from_path(Path::new(f))?.full_iris(p.has("--full-iris"))),
        None => None,
    };
    match (owl, rdf_source) {
        (Some(f), abox) => {
            let mut s = OwlSource::from_path(Path::new(f))?;
            if let Some(abox) = abox {
                s = s.with_abox(abox);
            }
            Ok(Box::new(s))
        }
        (None, Some(r)) => Ok(Box::new(r)),
        (None, None) => unreachable!("families == 1 guarantees a source"),
    }
}

fn ingest_program(p: &Parsed) -> Result<Program, GtgdError> {
    let mut source = source_from(p)?;
    let program = ingest(&mut *source)?;
    println!(
        "ingested {}: {} fact(s), {} tgd(s), {} predicate(s)",
        program.name,
        program.facts.len(),
        program.tgds.len(),
        program.schema.iter().count()
    );
    Ok(program)
}

// -------------------------------------------------------------- subcommands

fn cmd_eval(p: &Parsed, maintain: bool) -> Result<(), GtgdError> {
    let src = read_source(&p.args[0])?;
    let trace = p.has("--trace");
    // Parse first so syntax failures classify as Script (exit 3), not Eval.
    let script = parse_script(&src).map_err(|e| GtgdError::Script(e.to_string()))?;
    if maintain || p.has("--maintain") {
        let run = || run_maintained(&script);
        let (result, report) = if trace {
            let (r, rep) = obs::trace_run(run);
            (r, Some(rep))
        } else {
            (run(), None)
        };
        let out = result.map_err(|e| GtgdError::Eval(e.to_string()))?;
        for step in &out.steps {
            println!("{step}");
        }
        println!(
            "maintained (open-world); {} answer(s); exact = {}",
            out.answers.len(),
            out.exact
        );
        for a in &out.answers {
            println!("  ({a})");
        }
        if let Some(rep) = report {
            eprintln!("{}", rep.to_json());
        }
        return Ok(());
    }
    let (result, report) = if trace {
        let (r, rep) = obs::trace_run(|| eval_script(&src));
        (r, Some(rep))
    } else {
        (eval_script(&src), None)
    };
    let out = result.map_err(|e| GtgdError::Eval(e.to_string()))?;
    let mode = match out.mode {
        Mode::Open => "open-world (OMQ)",
        Mode::Closed => "closed-world (CQS)",
    };
    let mut summary = format!(
        "{mode}; {} answer(s); exact = {}",
        out.answers.len(),
        out.exact
    );
    for a in &out.answers {
        summary.push_str(&format!("\n  ({a})"));
    }
    if p.has("--certify") {
        // Certificates own stdout; everything human goes to stderr.
        eprintln!("{summary}");
        let certs = certify_script(&script).map_err(|e| GtgdError::Eval(e.to_string()))?;
        eprintln!("{} certificate(s)", certs.len());
        println!("{}", certificates_to_json(&certs));
    } else {
        println!("{summary}");
    }
    if let Some(rep) = report {
        // The report goes to stderr so piped answer output stays clean.
        eprintln!("{}", rep.to_json());
    }
    Ok(())
}

fn cmd_snapshot(p: &Parsed) -> Result<(), GtgdError> {
    let src = read_source(&p.args[0])?;
    let out = &p.args[1];
    let script = parse_script(&src).map_err(|e| GtgdError::Script(e.to_string()))?;
    if script.mode == Mode::Closed {
        return Err(GtgdError::Eval(
            "snapshots are open-world only (closed mode has no chase to persist)".to_string(),
        ));
    }
    // Same budget discipline as `maintain`: an atom cap, never levels.
    let budget = budget_from(p)?;
    let mut m = ChaseRunner::new(&script.tgds)
        .budget(budget)
        .maintain(&script.facts);
    for op in &script.ops {
        match op {
            MaintOp::Insert(a) => {
                m.insert([a.clone()]);
            }
            MaintOp::Retract(a) => {
                m.retract([a.clone()]);
            }
        }
    }
    save_snapshot(out.as_ref(), &script.tgds, &m).map_err(|e| GtgdError::Storage(e.to_string()))?;
    println!(
        "snapshot {out}: {} atom(s), {} rule(s), complete = {}",
        m.instance().len(),
        script.tgds.len(),
        m.complete()
    );
    Ok(())
}

fn cmd_serve(p: &Parsed) -> Result<(), GtgdError> {
    let snap = &p.args[0];
    if p.has("--ingest") {
        let program = ingest_program(p)?;
        let m = program.maintain(budget_from(p)?);
        save_snapshot(snap.as_ref(), &program.tgds, &m)
            .map_err(|e| GtgdError::Storage(e.to_string()))?;
        println!(
            "snapshot {snap}: {} atom(s), complete = {}",
            m.instance().len(),
            m.complete()
        );
    }
    let addr = p.value("--addr").unwrap_or("127.0.0.1:7411");
    let server =
        Server::start(PathBuf::from(snap), addr).map_err(|e| GtgdError::Serve(e.to_string()))?;
    println!("serving {snap} on {}", server.local_addr());
    server.run().map_err(|e| GtgdError::Serve(e.to_string()))
}

fn cmd_ingest(p: &Parsed) -> Result<(), GtgdError> {
    let program = ingest_program(p)?;
    let budget = budget_from(p)?;
    if let Some(out) = p.value("--snapshot") {
        let m = program.maintain(budget);
        save_snapshot(out.as_ref(), &program.tgds, &m)
            .map_err(|e| GtgdError::Storage(e.to_string()))?;
        println!(
            "snapshot {out}: {} atom(s), complete = {}",
            m.instance().len(),
            m.complete()
        );
        return Ok(());
    }
    if let Some(q) = p.value("--query") {
        let q = gtgd::query::parse_cq(q).map_err(|e| GtgdError::Eval(e.to_string()))?;
        let out = program.chase(budget);
        println!(
            "chase: {} atom(s), complete = {}",
            out.instance.len(),
            out.complete
        );
        let mut answers: Vec<String> = Engine::prepare(&q)
            .answers(&out.instance)
            .into_iter()
            .map(|row| {
                row.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        answers.sort();
        println!("{} answer(s)", answers.len());
        for a in answers {
            println!("  ({a})");
        }
        return Ok(());
    }
    if p.has("--chase") {
        let out = program.chase(budget);
        println!(
            "chase: {} atom(s), complete = {}",
            out.instance.len(),
            out.complete
        );
    }
    Ok(())
}

fn cmd_gen(p: &Parsed) -> Result<(), GtgdError> {
    let workload = p.args[0].as_str();
    if workload != "lubm" {
        return Err(GtgdError::Usage(format!(
            "unknown workload `{workload}` (available: lubm)"
        )));
    }
    let mut cfg = LubmConfig::default();
    if let Some(n) = p.int_value("--univ")? {
        cfg.universities = n as usize;
    }
    if let Some(s) = p.int_value("--seed")? {
        cfg.seed = s;
    }
    let format = p.value("--format").unwrap_or("ntriples");
    let src = LubmSource::new(cfg);
    let write = |path: &Path, content: &str| -> Result<(), GtgdError> {
        std::fs::write(path, content).map_err(|e| GtgdError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    };
    match (format, p.value("--out")) {
        ("ntriples", None) => {
            print!("{}", src.ntriples());
            eprintln!(
                "lubm: {} universities, seed {}, {} atom(s)",
                cfg.universities,
                cfg.seed,
                src.atom_count()
            );
        }
        ("facts", None) => {
            print!("{}", src.datalog_facts());
            eprintln!(
                "lubm: {} universities, seed {}, {} atom(s)",
                cfg.universities,
                cfg.seed,
                src.atom_count()
            );
        }
        (fmt @ ("ntriples" | "facts"), Some(dir)) => {
            let dir = PathBuf::from(dir);
            std::fs::create_dir_all(&dir).map_err(|e| GtgdError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            })?;
            let (data_file, onto_file) = if fmt == "ntriples" {
                let d = dir.join("data.nt");
                let o = dir.join("ontology.ofn");
                write(&d, &src.ntriples())?;
                write(&o, ONTOLOGY_OWL)?;
                (d, o)
            } else {
                let d = dir.join("data.gtgd");
                let o = dir.join("ontology.tgds");
                write(&d, &src.datalog_facts())?;
                write(&o, ONTOLOGY_TGDS)?;
                (d, o)
            };
            println!(
                "lubm: {} universities, seed {}, {} atom(s) -> {} + {}",
                cfg.universities,
                cfg.seed,
                src.atom_count(),
                data_file.display(),
                onto_file.display()
            );
        }
        (other, _) => {
            return Err(GtgdError::Usage(format!(
                "--format must be ntriples or facts, got `{other}`"
            )))
        }
    }
    Ok(())
}

// --------------------------------------------------------------------- main

fn top_help() -> String {
    let mut out = String::from(
        "gtgd — open- and closed-world query evaluation under guarded TGDs\n\n\
         usage:\n",
    );
    for c in [&EVAL, &MAINTAIN, &SNAPSHOT, &SERVE, &INGEST, &GEN] {
        out.push_str(&format!("  {}\n", c.usage()));
    }
    out.push_str("\n`gtgd <subcommand> --help` documents each surface.\n");
    out
}

fn dispatch(args: &[String]) -> Result<(), GtgdError> {
    let (cmd, rest): (&Command, &[String]) = match args.first().map(String::as_str) {
        None => return Err(GtgdError::Usage(top_help())),
        Some("--help") | Some("-h") if args.len() == 1 => {
            print!("{}", top_help());
            return Ok(());
        }
        Some("maintain") => (&MAINTAIN, &args[1..]),
        Some("snapshot") => (&SNAPSHOT, &args[1..]),
        Some("serve") => (&SERVE, &args[1..]),
        Some("ingest") => (&INGEST, &args[1..]),
        Some("gen") => (&GEN, &args[1..]),
        Some(_) => (&EVAL, args),
    };
    let parsed = match cmd.parse(rest)? {
        Invocation::Help(page) => {
            print!("{page}");
            return Ok(());
        }
        Invocation::Run(p) => p,
    };
    match cmd.name {
        "" => cmd_eval(&parsed, false),
        "maintain" => cmd_eval(&parsed, true),
        "snapshot" => cmd_snapshot(&parsed),
        "serve" => cmd_serve(&parsed),
        "ingest" => cmd_ingest(&parsed),
        "gen" => cmd_gen(&parsed),
        other => unreachable!("unrouted subcommand {other}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = dispatch(&args) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}
