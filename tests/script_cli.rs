//! End-to-end checks of the script engine and the shipped sample scripts.

use gtgd::chase::certificates_to_json;
use gtgd::ingest::{LubmConfig, LubmSource, ONTOLOGY_TGDS};
use gtgd::script::{certify_script, eval_script, parse_script, run_maintained, Mode};

#[test]
fn shipped_hr_script_runs_open_world() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/scripts/hr.gtgd"
    ))
    .expect("sample script present");
    let out = eval_script(&src).expect("script evaluates");
    assert_eq!(out.mode, Mode::Open);
    assert!(out.exact);
    // The ontology guarantees both employees a managed department.
    assert_eq!(out.answers, vec!["ann", "bob"]);
}

#[test]
fn shipped_inventory_script_runs_closed_world() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/scripts/inventory.gtgd"
    ))
    .expect("sample script present");
    let script = parse_script(&src).unwrap();
    assert_eq!(script.mode, Mode::Closed);
    let out = eval_script(&src).unwrap();
    assert_eq!(out.answers, vec!["gadget", "widget"]);
}

#[test]
fn closed_world_script_rejects_violating_facts() {
    let src = "mode closed\n\
               fact Stock(widget, aisle3).\n\
               tgd Stock(Item, Loc) -> Location(Loc).\n\
               query Q(Item) :- Stock(Item, Loc).\n";
    assert!(eval_script(src).is_err(), "missing Location(aisle3)");
}

#[test]
fn open_world_script_with_dl_style_hierarchy() {
    let src = "fact Cat(tom).\n\
               tgd Cat(X) -> Animal(X).\n\
               tgd Animal(X) -> Eats(X, F), Food(F).\n\
               query Q(X) :- Eats(X, F), Food(F).\n";
    let out = eval_script(src).unwrap();
    assert!(out.exact);
    assert_eq!(out.answers, vec!["tom"]);
}

#[test]
fn facts_loader_matches_script_facts() {
    // The data-crate bulk loader and the script engine agree on syntax.
    let facts = gtgd::data::parse_facts("Emp(ann). WorksIn(ann, sales)").unwrap();
    assert_eq!(facts.len(), 2);
    let rendered = gtgd::data::render_facts(&facts);
    let reparsed = gtgd::data::parse_facts(&rendered).unwrap();
    assert_eq!(facts, reparsed);
}

#[test]
fn multi_atom_head_script_is_answered_exactly() {
    // All seven rules of the multi-atom-head pool of
    // `differential_parallel.rs` over four facts: the chase is infinite and
    // branches at every level, and both queries are answered exactly with
    // no depth setting.
    let rules = [
        "R(X,Y) -> S(X,Y), R(Z,X)",
        "S(X,Y) -> S(X,Z), B(X), B(Z)",
        "S(X,Y) -> R(X,Y), R(Y,X)",
        "A(X) -> R(X,Y), B(Y)",
        "B(X) -> S(X,Y), A(Y)",
        "R(X,Y), B(Y) -> A(X)",
        "R(X,Y), A(Y) -> S(Y,Z), A(Z)",
    ];
    for query in ["Q(X) :- A(X)", "Q(X) :- R(X,Y), S(Y,Z), A(Z)"] {
        let mut src = String::from("fact A(c0).\nfact R(c1,c2).\nfact S(c2,c3).\nfact B(c3).\n");
        for r in rules {
            src.push_str(&format!("tgd {r}.\n"));
        }
        src.push_str(&format!("query {query}.\n"));
        let out = eval_script(&src).unwrap();
        assert!(out.exact, "{query}");
        assert_eq!(out.answers, vec!["c0", "c1", "c2", "c3"], "{query}");
    }
}

/// LUBM/1 as an open-world script: the piece saturation behind
/// `eval_script` must be exact and agree with the maintained oblivious
/// fixpoint, which is finite for LUBM's ontology.
#[test]
fn lubm_open_world_script_matches_the_maintained_fixpoint() {
    let mut src = String::from("mode open\n");
    for fact in LubmSource::new(LubmConfig::default())
        .datalog_facts()
        .lines()
    {
        src.push_str(&format!("fact {fact}\n"));
    }
    for tgd in ONTOLOGY_TGDS
        .split('.')
        .map(str::trim)
        .filter(|t| !t.is_empty())
    {
        src.push_str(&format!("tgd {tgd}.\n"));
    }
    src.push_str("query Q(X) :- Faculty(X), worksFor(X,D), subOrganizationOf(D,U).\n");
    let open = eval_script(&src).expect("script evaluates");
    assert!(open.exact);
    let maintained = run_maintained(&parse_script(&src).unwrap()).expect("maintain runs");
    assert!(maintained.exact, "LUBM's chase is finite");
    assert!(!open.answers.is_empty());
    assert_eq!(open.answers, maintained.answers);
}

/// Renames the null labels (`"n:<id>"`) of a certificate rendering to
/// `"n:0"`, `"n:1"`, … in order of first appearance: the labels a process
/// mints depend on what else it chased before.
fn canonical_nulls(json: &str) -> String {
    let mut seen: Vec<&str> = Vec::new();
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find("\"n:") {
        let (head, tail) = rest.split_at(at + 3);
        out.push_str(head);
        let digits = tail
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(tail.len());
        let label = &tail[..digits];
        let rank = seen.iter().position(|&l| l == label).unwrap_or_else(|| {
            seen.push(label);
            seen.len() - 1
        });
        out.push_str(&rank.to_string());
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// The certificates of the shipped `hr.gtgd` render as the committed
/// golden file, up to null labels: the firing order, each firing's
/// valuation (body variables, then existentials) and the pruned chains.
#[test]
fn hr_certificates_match_the_golden_rendering() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let src = std::fs::read_to_string(format!("{dir}/examples/scripts/hr.gtgd")).unwrap();
    let golden = std::fs::read_to_string(format!("{dir}/tests/fixtures/hr.certify.json")).unwrap();
    let certs = certify_script(&parse_script(&src).unwrap()).unwrap();
    assert_eq!(certs.len(), 2);
    assert_eq!(
        canonical_nulls(&certificates_to_json(&certs)),
        canonical_nulls(&golden)
    );
}
