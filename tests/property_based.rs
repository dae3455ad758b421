//! Randomized property tests on the toolkit's core invariants.
//!
//! The build is offline, so instead of proptest these are seeded loops over
//! a deterministic [`Rng`] (SplitMix64): every case is reproducible by its
//! printed seed, and the case count per property matches what the proptest
//! configuration used to run.

use gtgd::chase::{chase, parse_tgds, satisfies_all, ChaseBudget};
use gtgd::data::{GroundAtom, Instance, Rng, Value};
use gtgd::query::{
    check_answer, contractions, core_of, cq_contained, cq_equivalent,
    decomp_eval::check_answer_decomposed, evaluate_cq, Cq, QAtom, Term, Var,
};
use gtgd::treewidth::{treewidth_exact, Graph};

/// A random small graph over `2..8` vertices with up to 16 edge attempts.
fn arb_graph(rng: &mut Rng) -> Graph {
    let n = rng.range(2, 8);
    let mut g = Graph::new(n);
    for _ in 0..rng.range(0, 16) {
        let (u, v) = (rng.range(0, 8), rng.range(0, 8));
        if u < n && v < n && u != v {
            g.add_edge(u, v);
        }
    }
    g
}

/// A random binary-relation database over a 5-element domain.
fn arb_db(rng: &mut Rng) -> Instance {
    let k = rng.range(1, 10);
    Instance::from_atoms((0..k).map(|_| {
        let (a, b) = (rng.range(0, 5), rng.range(0, 5));
        GroundAtom::named("E", &[&format!("d{a}"), &format!("d{b}")])
    }))
}

/// A random connected-ish Boolean CQ over `E` with ≤ 5 variables.
fn arb_cq(rng: &mut Rng) -> Cq {
    let k = rng.range(1, 6);
    let pairs: Vec<(u32, u32)> = (0..k)
        .map(|_| (rng.below(5) as u32, rng.below(5) as u32))
        .collect();
    let max = pairs.iter().map(|&(a, b)| a.max(b)).max().unwrap_or(0);
    let names: Vec<String> = (0..=max).map(|i| format!("V{i}")).collect();
    let atoms = pairs
        .into_iter()
        .map(|(a, b)| {
            QAtom::new(
                gtgd::data::Predicate::new("E"),
                vec![Term::Var(Var(a)), Term::Var(Var(b))],
            )
        })
        .collect();
    Cq::new(names, atoms, vec![])
}

/// Runs `body` for `cases` seeds derived from a fixed master seed; the
/// per-case seed is passed through so failures identify their case.
fn for_cases(cases: u64, mut body: impl FnMut(u64, &mut Rng)) {
    for case in 0..cases {
        let seed = 0xC0FFEE ^ (case.wrapping_mul(0x9E3779B97F4A7C15));
        body(seed, &mut Rng::seed(seed));
    }
}

/// Exact treewidth is sandwiched by the degeneracy lower bound and both
/// greedy upper bounds, and its decomposition validates.
#[test]
fn treewidth_bounds_consistent() {
    use gtgd::treewidth::{degeneracy_lower_bound, treewidth_upper_bound, Heuristic};
    for_cases(64, |seed, rng| {
        let g = arb_graph(rng);
        let (w, d) = treewidth_exact(&g);
        assert!(d.validate(&g).is_ok(), "seed {seed}");
        assert_eq!(d.width(), w, "seed {seed}");
        assert!(degeneracy_lower_bound(&g) <= w, "seed {seed}");
        for h in [Heuristic::MinDegree, Heuristic::MinFill] {
            assert!(treewidth_upper_bound(&g, h).0 >= w, "seed {seed}");
        }
    });
}

/// The core is equivalent to the original query and is itself a fixed point
/// of core computation.
#[test]
fn core_is_equivalent_retract() {
    for_cases(64, |seed, rng| {
        let q = arb_cq(rng);
        let c = core_of(&q);
        assert!(cq_equivalent(&q, &c), "seed {seed}");
        let cc = core_of(&c);
        assert_eq!(cc.atom_count(), c.atom_count(), "seed {seed}");
        assert!(c.atom_count() <= q.atom_count(), "seed {seed}");
    });
}

/// Every contraction of a CQ is contained in it.
#[test]
fn contractions_are_contained() {
    for_cases(64, |seed, rng| {
        let q = arb_cq(rng);
        for c in contractions(&q) {
            assert!(cq_contained(&c, &q), "seed {seed}: contraction {c} ⊄ {q}");
        }
    });
}

/// The Prop 2.1 DP agrees with backtracking on Boolean queries over random
/// databases.
#[test]
fn dp_agrees_with_backtracking() {
    for_cases(64, |seed, rng| {
        let q = arb_cq(rng);
        let d = arb_db(rng);
        assert_eq!(
            check_answer_decomposed(&q, &d, &[]),
            check_answer(&q, &d, &[]),
            "seed {seed}"
        );
    });
}

/// The chase of a full TGD set reaches a model, and evaluation over it is
/// monotone in the database.
#[test]
fn full_chase_reaches_model() {
    let sigma = parse_tgds("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
    let q = gtgd::query::parse_cq("Q(X) :- E(X,Y)").unwrap();
    for_cases(64, |seed, rng| {
        let d = arb_db(rng);
        let r = chase(&d, &sigma, &ChaseBudget::unbounded());
        assert!(r.complete, "seed {seed}");
        assert!(satisfies_all(&r.instance, &sigma), "seed {seed}");
        // Monotonicity: answers over D are preserved over chase(D).
        let before = evaluate_cq(&q, &d);
        let after = evaluate_cq(&q, &r.instance);
        assert!(before.is_subset(&after), "seed {seed}");
    });
}

/// Guarded ground saturation contains the database and only named constants.
#[test]
fn ground_saturation_sound() {
    let sigma = parse_tgds("E(X,Y) -> Reach(X,Z). Reach(X,Z) -> Mark(X)").unwrap();
    for_cases(64, |seed, rng| {
        let d = arb_db(rng);
        let sat = gtgd::chase::ground_saturation(&d, &sigma);
        for a in d.iter() {
            assert!(sat.contains(a), "seed {seed}");
        }
        for v in sat.dom() {
            assert!(v.is_named(), "seed {seed}");
        }
        // Mark(x) holds exactly for constants with outgoing edges.
        for v in d.dom() {
            let has_out = d.iter().any(|a| a.args[0] == v);
            let marked = sat.contains(&GroundAtom::new(
                gtgd::data::Predicate::new("Mark"),
                vec![v],
            ));
            assert_eq!(has_out, marked, "seed {seed}");
        }
    });
}

/// The Grohe reduction verdict always matches brute force (k = 2).
#[test]
fn grohe_reduction_correct_k2() {
    use gtgd::omq::grohe::has_clique;
    use gtgd::omq::reduction::{decide_clique_via_cqs, grid_cqs_family};
    let fam = grid_cqs_family(2);
    for_cases(32, |seed, rng| {
        let g = arb_graph(rng);
        assert_eq!(
            decide_clique_via_cqs(&g, 2, &fam),
            has_clique(&g, 2),
            "seed {seed}"
        );
    });
}

/// OMQ evaluation is monotone under database extension (certain answers only
/// grow).
#[test]
fn omq_monotone() {
    use gtgd::omq::{evaluate_omq, EvalConfig, Omq};
    let sigma = parse_tgds("E(X,Y) -> Conn(X)").unwrap();
    let q = Omq::full_schema(sigma, gtgd::query::parse_ucq("Q(X) :- Conn(X)").unwrap());
    for_cases(32, |seed, rng| {
        let d = arb_db(rng);
        let small = evaluate_omq(&q, &d, &EvalConfig::default());
        let mut bigger = d.clone();
        bigger.insert(GroundAtom::named("E", &["extra1", "extra2"]));
        let big = evaluate_omq(&q, &bigger, &EvalConfig::default());
        assert!(small.answers.is_subset(&big.answers), "seed {seed}");
    });
}

/// Specializations are syntactically well formed: V always contains the
/// answer variables and the contraction part is a genuine contraction.
#[test]
fn specializations_well_formed() {
    for_cases(64, |seed, rng| {
        let q = arb_cq(rng);
        for s in gtgd::query::specializations(&q) {
            for v in &s.cq.answer_vars {
                assert!(s.v.contains(v), "seed {seed}");
            }
            assert!(s.cq.atom_count() <= q.atom_count(), "seed {seed}");
            assert!(cq_contained(&s.cq, &q), "seed {seed}");
        }
    });
}

/// The CQ parser never panics on arbitrary input — it returns a result.
#[test]
fn parser_never_panics() {
    // A byte soup biased toward the grammar's own alphabet so deeper parse
    // paths are exercised, not just lexer rejections.
    const ALPHABET: &[u8] = b"QXYZabc01(),.:-> \t_";
    for_cases(128, |_, rng| {
        let len = rng.range(0, 80);
        let input: String = (0..len)
            .map(|_| {
                if rng.chance(0.9) {
                    ALPHABET[rng.range(0, ALPHABET.len())] as char
                } else {
                    char::from_u32(rng.below(0xD7FF) as u32).unwrap_or('?')
                }
            })
            .collect();
        let _ = gtgd::query::parse_cq(&input);
        let _ = gtgd::query::parse_ucq(&input);
        let _ = gtgd::chase::parse_tgd(&input);
    });
}

/// Parsing round-trips through Display for well-formed CQs.
#[test]
fn parser_display_roundtrip() {
    for_cases(128, |seed, rng| {
        let q = arb_cq(rng);
        let printed = q.to_string();
        let reparsed = gtgd::query::parse_cq(&printed).expect("display output parses");
        assert!(cq_equivalent(&q, &reparsed), "seed {seed}");
    });
}

/// Prop D.2 as a property: the linear rewriting agrees with chase-based
/// evaluation on random databases.
#[test]
fn linear_rewriting_agrees_with_chase() {
    use gtgd::chase::linear_rewrite;
    let sigma = parse_tgds("E(X,Y) -> R(Y,Z). R(Y,Z) -> M(Y)").unwrap();
    let q = gtgd::query::parse_ucq("Q(X) :- E(X,Y), M(Y)").unwrap();
    let rewritten = linear_rewrite(&q, &sigma);
    for_cases(24, |seed, rng| {
        let d = arb_db(rng);
        let via_rewrite: std::collections::HashSet<Vec<Value>> =
            gtgd::query::evaluate_ucq(&rewritten, &d)
                .into_iter()
                .filter(|t| t.iter().all(|v| d.dom_contains(*v)))
                .collect();
        let reference = chase(&d, &sigma, &ChaseBudget::levels(4));
        let via_chase: std::collections::HashSet<Vec<Value>> =
            gtgd::query::evaluate_ucq(&q, &reference.instance)
                .into_iter()
                .filter(|t| t.iter().all(|v| d.dom_contains(*v)))
                .collect();
        assert_eq!(via_rewrite, via_chase, "seed {seed}");
    });
}

/// Yannakakis agrees with backtracking on acyclic queries over random
/// databases.
#[test]
fn yannakakis_agrees() {
    use gtgd::query::check_answer_yannakakis;
    let q = gtgd::query::parse_cq("Q(X) :- E(X,Y), E(Y,Z)").unwrap();
    for_cases(24, |seed, rng| {
        let d = arb_db(rng);
        for v in d.dom() {
            let expected = check_answer(&q, &d, &[v]);
            assert_eq!(
                check_answer_yannakakis(&q, &d, &[v]),
                Some(expected),
                "seed {seed}"
            );
        }
    });
}

/// Non-randomized sanity: instance equality is set semantics, used
/// throughout the properties above.
#[test]
fn instance_set_semantics() {
    let a = Instance::from_atoms([
        GroundAtom::named("E", &["x", "y"]),
        GroundAtom::named("E", &["y", "z"]),
    ]);
    let b = Instance::from_atoms([
        GroundAtom::named("E", &["y", "z"]),
        GroundAtom::named("E", &["x", "y"]),
        GroundAtom::named("E", &["x", "y"]),
    ]);
    assert_eq!(a, b);
    assert_eq!(a.dom().len(), 3);
    let _ = Value::named("x");
}
