//! Open-world ontology-mediated querying in depth: the chase, data-schema
//! restrictions, and the difference between open- and closed-world reading
//! of the same query.
//!
//! Run with: `cargo run --example ontology_reasoning`

use gtgd::chase::{parse_tgds, ChaseBudget, ChaseRunner};
use gtgd::data::{GroundAtom, Instance, Schema};
use gtgd::omq::{evaluate_omq, EvalConfig, Omq};
use gtgd::query::{parse_cq, parse_ucq, Engine};

fn main() {
    // A publication ontology: every paper has an author who is a person;
    // every person works at an institution; co-authorship is symmetric.
    let sigma = parse_tgds(
        "Paper(P) -> AuthorOf(A,P), Person(A). \
         Person(A) -> AffiliatedWith(A,I), Inst(I). \
         CoAuthor(A,B) -> CoAuthor(B,A)",
    )
    .expect("ontology parses");

    let db = Instance::from_atoms([
        GroundAtom::named("Paper", &["pods20"]),
        GroundAtom::named("AuthorOf", &["barcelo", "pods20"]),
        GroundAtom::named("Person", &["barcelo"]),
        GroundAtom::named("CoAuthor", &["barcelo", "lutz"]),
    ]);

    // Closed-world: evaluate directly over the database through the
    // `Engine` facade. Nothing says lutz co-authors barcelo (the symmetric
    // fact is missing), and no affiliation exists at all.
    let q_sym_cq = parse_cq("Q(X) :- CoAuthor(lutz, X)").unwrap();
    let closed = Engine::prepare(&q_sym_cq).answers(&db);
    let q_sym = parse_ucq("Q(X) :- CoAuthor(lutz, X)").unwrap();
    println!("closed-world CoAuthor(lutz, ·): {} answers", closed.len());
    assert!(closed.is_empty());

    // Open-world: the OMQ derives the symmetric fact.
    let omq_sym = Omq::full_schema(sigma.clone(), q_sym);
    let open = evaluate_omq(&omq_sym, &db, &EvalConfig::default());
    println!(
        "open-world   CoAuthor(lutz, ·): {} answers (exact = {})",
        open.answers.len(),
        open.exact
    );
    assert_eq!(open.answers.len(), 1);

    // The ontology also invents unnamed affiliations: a query *about* them
    // has certain answers even though Inst is empty in the data.
    let q_aff = parse_ucq("Q(A) :- Person(A), AffiliatedWith(A,I), Inst(I)").unwrap();
    let omq_aff = Omq::full_schema(sigma.clone(), q_aff.clone());
    let open_aff = evaluate_omq(&omq_aff, &db, &EvalConfig::default());
    println!(
        "open-world   affiliated persons: {} answers",
        open_aff.answers.len()
    );
    assert_eq!(open_aff.answers.len(), 1); // barcelo (lutz is not asserted Person)

    // Peek at the chase: the universal model the answers come from
    // (Prop 3.1: Q(D) = q(chase(D, Σ))). `ChaseRunner` is the facade over
    // the chase engines.
    let prefix = ChaseRunner::new(&sigma)
        .budget(ChaseBudget::levels(2))
        .run(&db);
    println!(
        "chase prefix to level 2: {} atoms (complete = {})",
        prefix.instance.len(),
        prefix.complete
    );

    // A restricted data schema: inputs may only mention Paper/AuthorOf —
    // the ontology vocabulary stays available for querying.
    let data_schema = Schema::from_pairs([("Paper", 1), ("AuthorOf", 2)]);
    let omq_restricted = Omq::new(
        data_schema,
        sigma,
        parse_ucq("Q(P) :- AuthorOf(A,P), AffiliatedWith(A,I)").unwrap(),
    )
    .expect("schema-consistent OMQ");
    let db_s = Instance::from_atoms([GroundAtom::named("Paper", &["pods20"])]);
    let r = evaluate_omq(&omq_restricted, &db_s, &EvalConfig::default());
    let shown: Vec<String> = r
        .answers
        .iter()
        .map(|t| {
            t.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    println!("restricted-schema OMQ answers: {shown:?}");
    assert_eq!(r.answers.len(), 1);

    // No depth setting is involved: the query compiles to piece rules that
    // the type saturator closes alongside Σ, and a rewritten UCQ is read
    // off the ground saturation. That is what makes the infinite chase
    // above answerable exactly.
    let p = gtgd::chase::piece_saturation(&db_s, &omq_restricted.sigma, &omq_restricted.query);
    println!(
        "piece saturation: {} ground atoms, {} types, {} rewritten disjuncts, exact = {}",
        p.instance.len(),
        p.type_count,
        p.query.disjuncts.len(),
        r.exact
    );
    assert!(r.exact);
}
