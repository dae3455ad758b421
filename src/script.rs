//! A small script format and interpreter for the `gtgd` CLI: declare facts,
//! TGDs, and a query, then evaluate open-world (OMQ) or closed-world (CQS).
//!
//! ```text
//! # comments start with '#' outside a "quoted" constant
//! mode open                          # or: mode closed
//! fact Emp(ann).
//! fact WorksIn(ann, sales).
//! tgd Emp(X) -> WorksIn(X, D).
//! tgd WorksIn(X, D) -> Dept(D).
//! query Q(X) :- WorksIn(X, D), Dept(D).
//! ```
//!
//! Multiple `query` lines form a UCQ. In `closed` mode the facts must
//! satisfy the TGDs (they are integrity constraints); in `open` mode the
//! TGDs are an ontology.

use gtgd_chase::{parse_tgd, Certificate, CertificateStore, ChaseBudget, ChaseRunner, Tgd};
use gtgd_core::{evaluate_omq, Cqs, EvalConfig, Omq};
use gtgd_data::{GroundAtom, Instance};
use gtgd_query::{parse_cq, Cq, Engine, Strategy, Ucq};

/// Evaluation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Open-world: certain answers of the OMQ (Section 3.1).
    Open,
    /// Closed-world: direct evaluation under the constraint promise
    /// (Section 3.2).
    Closed,
}

/// One maintenance operation of a `--maintain` script: a line `+Atom(...)`
/// asserts a base fact, `-Atom(...)` retracts one. Operations apply in
/// script order, after the initial `fact` base is chased.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintOp {
    /// `+Emp(ann).` — assert and incrementally chase.
    Insert(GroundAtom),
    /// `-Emp(ann).` — retract and DRed-repair.
    Retract(GroundAtom),
}

/// A parsed script.
#[derive(Debug, Clone)]
pub struct Script {
    /// The database.
    pub facts: Instance,
    /// The TGDs (ontology or constraints, depending on mode).
    pub tgds: Vec<Tgd>,
    /// The query disjuncts.
    pub queries: Vec<Cq>,
    /// Evaluation mode.
    pub mode: Mode,
    /// Maintenance operations (`+atom` / `-atom` lines), in script order.
    pub ops: Vec<MaintOp>,
}

/// Script errors.
#[derive(Debug, Clone)]
pub struct ScriptError {
    /// Line number (1-based).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScriptError {}

fn err(line: usize, message: impl Into<String>) -> ScriptError {
    ScriptError {
        line,
        message: message.into(),
    }
}

/// Parses a fact through the one fact grammar ([`gtgd_data::parse_fact`]).
fn parse_fact(src: &str, line: usize) -> Result<GroundAtom, ScriptError> {
    gtgd_data::parse_fact(src).map_err(|e| err(line, format!("bad fact: {e}")))
}

/// Parses a script.
pub fn parse_script(src: &str) -> Result<Script, ScriptError> {
    let mut facts = Instance::new();
    let mut tgds = Vec::new();
    let mut queries = Vec::new();
    let mut mode = Mode::Open;
    let mut ops = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let line = i + 1;
        let text = gtgd_data::strip_comment(raw).trim();
        if text.is_empty() {
            continue;
        }
        // Maintenance ops: the sign is glued to the atom (`+Emp(ann).`).
        if let Some(atom_src) = text.strip_prefix('+') {
            ops.push(MaintOp::Insert(parse_fact(atom_src, line)?));
            continue;
        }
        if let Some(atom_src) = text.strip_prefix('-') {
            ops.push(MaintOp::Retract(parse_fact(atom_src, line)?));
            continue;
        }
        let (keyword, rest) = match text.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => (text, ""),
        };
        match keyword {
            "mode" => {
                mode = match rest.trim_end_matches('.') {
                    "open" => Mode::Open,
                    "closed" => Mode::Closed,
                    other => return Err(err(line, format!("unknown mode {other:?}"))),
                };
            }
            "fact" => {
                facts.insert(parse_fact(rest, line)?);
            }
            "tgd" => {
                let t =
                    parse_tgd(rest.trim_end_matches('.')).map_err(|e| err(line, e.to_string()))?;
                tgds.push(t);
            }
            "query" => {
                let q =
                    parse_cq(rest.trim_end_matches('.')).map_err(|e| err(line, e.to_string()))?;
                queries.push(q);
            }
            other => return Err(err(line, format!("unknown directive {other:?}"))),
        }
    }
    if queries.is_empty() {
        return Err(err(src.lines().count(), "script has no query"));
    }
    let arity = queries[0].arity();
    if queries.iter().any(|q| q.arity() != arity) {
        return Err(err(0, "all query lines must share arity"));
    }
    Ok(Script {
        facts,
        tgds,
        queries,
        mode,
        ops,
    })
}

/// Evaluation output.
#[derive(Debug, Clone)]
pub struct ScriptOutput {
    /// Sorted answers rendered as comma-joined constants.
    pub answers: Vec<String>,
    /// Whether the answer set is provably complete (always true for closed
    /// mode).
    pub exact: bool,
    /// The mode that was run.
    pub mode: Mode,
}

/// Runs a parsed script.
pub fn run_script(script: &Script) -> Result<ScriptOutput, Box<dyn std::error::Error>> {
    let ucq = Ucq::new(script.queries.clone());
    let (answers, exact) = match script.mode {
        Mode::Open => {
            let omq = Omq::full_schema(script.tgds.clone(), ucq);
            let out = evaluate_omq(&omq, &script.facts, &EvalConfig::default());
            (out.answers, out.exact)
        }
        Mode::Closed => {
            let cqs = Cqs::new(script.tgds.clone(), ucq);
            (cqs.evaluate(&script.facts)?, true)
        }
    };
    let mut rendered: Vec<String> = answers
        .into_iter()
        .map(|t| {
            t.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    rendered.sort();
    Ok(ScriptOutput {
        answers: rendered,
        exact,
        mode: script.mode,
    })
}

/// Parses and runs in one step.
pub fn eval_script(src: &str) -> Result<ScriptOutput, Box<dyn std::error::Error>> {
    let script = parse_script(src)?;
    run_script(&script)
}

/// Output of a `--maintain` run: one rendered line per operation, then
/// the final answers.
#[derive(Debug, Clone)]
pub struct MaintainOutput {
    /// One line per `+`/`-` op: the op and its maintenance report.
    pub steps: Vec<String>,
    /// Sorted null-free answers over the final maintained instance.
    pub answers: Vec<String>,
    /// Whether the maintained instance is a true fixpoint (false only if
    /// the safety atom cap truncated a diverging ontology).
    pub exact: bool,
}

/// Runs a script's maintenance ops over a [`gtgd_chase::MaintainedInstance`]
/// (the `gtgd --maintain` path, open-world only): chase the `fact` base
/// once, apply each `+atom` / `-atom` incrementally, then evaluate the
/// query disjuncts over the final materialization. Answers are the
/// null-free tuples of the maintained oblivious fixpoint — the certain
/// answers of the OMQ whenever the chase terminated (`exact`).
pub fn run_maintained(script: &Script) -> Result<MaintainOutput, Box<dyn std::error::Error>> {
    if script.mode == Mode::Closed {
        return Err(
            "maintain mode is open-world only (closed mode has no chase to maintain)"
                .to_string()
                .into(),
        );
    }
    // Levels are not maintainable, so the safety net against diverging
    // ontologies is an atom cap instead of the default level budget.
    let mut m = ChaseRunner::new(&script.tgds)
        .budget(ChaseBudget::atoms(1_000_000))
        .maintain(&script.facts);
    let mut steps = Vec::new();
    for op in &script.ops {
        let line = match op {
            MaintOp::Insert(a) => {
                let rep = m.insert([a.clone()]);
                format!(
                    "+{a}: fired={} added={}",
                    rep.triggers_fired, rep.atoms_added
                )
            }
            MaintOp::Retract(a) => {
                let rep = m.retract([a.clone()]);
                format!(
                    "-{a}: overdeleted={} rederived={} removed={} refired={}",
                    rep.atoms_overdeleted,
                    rep.atoms_rederived,
                    rep.atoms_removed,
                    rep.triggers_fired
                )
            }
        };
        steps.push(line);
    }
    let mut rendered: Vec<String> = Vec::new();
    for q in &script.queries {
        let rows = Engine::prepare(q).certain_rows(m.instance());
        rendered.extend(rows.rows().map(|t| {
            t.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        }));
    }
    // The disjuncts' rows are merged in string order.
    rendered.sort();
    rendered.dedup();
    Ok(MaintainOutput {
        steps,
        answers: rendered,
        exact: m.complete(),
    })
}

/// Builds proof-carrying certificates for a script's answers (the
/// `gtgd --certify` path).
///
/// Open mode runs a *certified* oblivious chase under the default
/// fallback budget ([`EvalConfig::default`]) and certifies every
/// null-free answer of every disjunct against the recorded firing chain.
/// Closed mode needs no chase at all: the facts are the whole world, so
/// every certificate carries an empty firing chain. Either way the
/// output is independently re-checkable with `gtgd-check` — the answers
/// certified here are sound even when the budget stops the chase early
/// (a derivation prefix proves no less), though a truncated chase may
/// certify fewer answers than [`run_script`] reports.
pub fn certify_script(script: &Script) -> Result<Vec<Certificate>, Box<dyn std::error::Error>> {
    let mut certs = Vec::new();
    match script.mode {
        Mode::Open => {
            let outcome = ChaseRunner::new(&script.tgds)
                .budget(EvalConfig::default().fallback_budget)
                .certify(true)
                .run(&script.facts);
            let firings = outcome.firings.expect("certify was requested");
            let store = CertificateStore::new(&script.facts, &script.tgds, firings);
            for q in &script.queries {
                certs.extend(store.certify_answers(q, &outcome.instance, Strategy::Auto));
            }
        }
        Mode::Closed => {
            let store = CertificateStore::new(&script.facts, &script.tgds, Vec::new());
            for q in &script.queries {
                certs.extend(store.certify_answers(q, &script.facts, Strategy::Auto));
            }
        }
    }
    Ok(certs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_world_script() {
        let out = eval_script(
            "# demo\n\
             fact Emp(ann).\n\
             tgd Emp(X) -> WorksIn(X, D).\n\
             tgd WorksIn(X, D) -> Dept(D).\n\
             query Q(X) :- WorksIn(X, D), Dept(D).\n",
        )
        .unwrap();
        assert!(out.exact);
        assert_eq!(out.answers, vec!["ann"]);
    }

    #[test]
    fn closed_world_script_checks_promise() {
        let bad = eval_script(
            "mode closed\n\
             fact Emp(ann, sales).\n\
             tgd Emp(X, D) -> Dept(D).\n\
             query Q(X) :- Emp(X, D).\n",
        );
        assert!(bad.is_err(), "promise violated: no Dept(sales)");
        let good = eval_script(
            "mode closed\n\
             fact Emp(ann, sales).\n\
             fact Dept(sales).\n\
             tgd Emp(X, D) -> Dept(D).\n\
             query Q(X) :- Emp(X, D).\n",
        )
        .unwrap();
        assert_eq!(good.answers, vec!["ann"]);
    }

    #[test]
    fn ucq_scripts() {
        let out = eval_script(
            "fact A(x1).\nfact B(x2).\n\
             query Q(X) :- A(X).\nquery Q(X) :- B(X).\n",
        )
        .unwrap();
        assert_eq!(out.answers, vec!["x1", "x2"]);
    }

    #[test]
    fn parse_errors_carry_lines() {
        let e = parse_script("fact Broken(\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_script("nonsense foo\nquery Q(X) :- A(X).").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_script("fact A(x).").unwrap_err();
        assert!(e.message.contains("no query"));
    }

    #[test]
    fn maintain_ops_parse_in_order() {
        let s = parse_script(
            "fact Emp(ann).\n\
             tgd Emp(X) -> WorksIn(X, D).\n\
             +Emp(bob).\n\
             -Emp(ann).  # retract the original\n\
             query Q(X) :- WorksIn(X, D).\n",
        )
        .unwrap();
        assert_eq!(
            s.ops,
            vec![
                MaintOp::Insert(GroundAtom::named("Emp", &["bob"])),
                MaintOp::Retract(GroundAtom::named("Emp", &["ann"])),
            ]
        );
    }

    #[test]
    fn maintained_script_applies_ops_incrementally() {
        let s = parse_script(
            "fact Emp(ann).\n\
             tgd Emp(X) -> WorksIn(X, D).\n\
             tgd WorksIn(X, D) -> Dept(D).\n\
             +Emp(bob).\n\
             -Emp(ann).\n\
             query Q(X) :- WorksIn(X, D), Dept(D).\n",
        )
        .unwrap();
        let out = run_maintained(&s).unwrap();
        assert!(out.exact);
        assert_eq!(
            out.answers,
            vec!["bob"],
            "ann was retracted after bob joined"
        );
        assert_eq!(out.steps.len(), 2);
        assert!(
            out.steps[0].starts_with("+Emp(bob): fired=2"),
            "{}",
            out.steps[0]
        );
        assert!(
            out.steps[1].starts_with("-Emp(ann): overdeleted=3"),
            "{}",
            out.steps[1]
        );
    }

    #[test]
    fn maintain_mode_rejects_closed_world() {
        let s = parse_script("mode closed\nfact A(x).\n+A(y).\nquery Q(X) :- A(X).\n").unwrap();
        assert!(run_maintained(&s).is_err());
    }

    #[test]
    fn zero_ary_facts_and_boolean_queries() {
        let out = eval_script("fact Go().\nquery Q() :- Go().\n").unwrap();
        assert_eq!(out.answers, vec![""]);
        let out = eval_script("fact Stop().\nquery Q() :- Go().\n").unwrap();
        assert!(out.answers.is_empty());
    }

    #[test]
    fn facts_use_the_one_fact_grammar() {
        let s = parse_script("fact City(\"st. louis\", mo).\n+Emp(a).\nquery Q(X) :- Emp(X).\n")
            .unwrap();
        assert!(s
            .facts
            .contains(&GroundAtom::named("City", &["st. louis", "mo"])));
        for (bad, says) in [
            ("fact A(c0). fact B(c3).", "after the fact"),
            ("fact A(c0) B(c3).", "after the fact"),
            ("fact A(c 0).", "expected ',' or ')'"),
            ("fact A((c0).", "expected a constant, found '('"),
            ("fact A(c0)).", "after the fact"),
            ("fact A(c.0).", "found '.'"),
            ("+Emp(a), Emp(b)", "after the fact"),
            ("-Emp(a b)", "expected ',' or ')'"),
        ] {
            let src = format!("mode open\n{bad}\nquery Q(X) :- A(X).\n");
            let e = parse_script(&src).unwrap_err();
            assert_eq!(e.line, 2, "{bad:?}");
            assert!(e.message.contains(says), "{bad:?}: {e}");
        }
    }

    #[test]
    fn comments_start_outside_quoted_constants() {
        let s = parse_script(
            "fact City(\"a#b\"). # note\nfact Emp(ann). # plain\nquery Q(X) :- City(X). # q\n",
        )
        .unwrap();
        assert_eq!(s.facts.len(), 2);
        assert!(s.facts.contains(&GroundAtom::named("City", &["a#b"])));
        assert!(s.facts.contains(&GroundAtom::named("Emp", &["ann"])));
        assert_eq!(s.queries.len(), 1);
    }
}
