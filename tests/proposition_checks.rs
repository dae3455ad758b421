//! Cross-crate checks of the paper's propositions on concrete workloads.

use gtgd::chase::{chase, parse_tgds, satisfies_all, ChaseBudget};
use gtgd::data::{GroundAtom, Instance, Valuation, Value};
use gtgd::omq::approx::cqs_uniformly_ucqk_equivalent;
use gtgd::omq::containment::ucq_contained_under;
use gtgd::omq::{evaluate_omq, Cqs, EvalConfig, Omq};
use gtgd::query::{
    check_answer, decomp_eval::check_answer_decomposed, evaluate_cq, evaluate_ucq,
    instance_homomorphism_fixing, parse_cq, parse_ucq,
};

fn cfg() -> EvalConfig {
    EvalConfig::default()
}

fn db(atoms: &[(&str, &[&str])]) -> Instance {
    Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
}

/// Prop 2.1: the tree-decomposition DP agrees with backtracking on every
/// candidate answer, across a workload sweep.
#[test]
fn prop_2_1_dp_agrees_with_backtracking() {
    let queries = [
        parse_cq("Q(X) :- E(X,Y), E(Y,Z)").unwrap(),
        parse_cq("Q(X,W) :- E(X,Y), E(Y,Z), E(Z,W)").unwrap(),
        parse_cq("Q() :- E(X,Y), E(Y,Z), E(Z,X)").unwrap(),
    ];
    // Databases: cycles of several lengths plus a loop-bearing instance.
    let mut dbs = Vec::new();
    for n in [3usize, 4, 6] {
        let names: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
        dbs.push(Instance::from_atoms((0..n).map(|i| {
            GroundAtom::named("E", &[names[i].as_str(), names[(i + 1) % n].as_str()])
        })));
    }
    let mut with_loop = dbs[0].clone();
    with_loop.insert(GroundAtom::named("E", &["c0", "c0"]));
    dbs.push(with_loop);
    for q in &queries {
        for d in &dbs {
            let dom: Vec<Value> = d.dom();
            let tuples: Vec<Vec<Value>> = match q.arity() {
                0 => vec![vec![]],
                1 => dom.iter().map(|&v| vec![v]).collect(),
                2 => dom
                    .iter()
                    .flat_map(|&a| dom.iter().map(move |&b| vec![a, b]))
                    .collect(),
                _ => unreachable!(),
            };
            for t in tuples {
                assert_eq!(
                    check_answer_decomposed(q, d, &t),
                    check_answer(q, d, &t),
                    "query {q} tuple {t:?}"
                );
            }
        }
    }
}

/// Prop 2.2 (chase universality): the chase maps homomorphically, fixing
/// `dom(D)`, into every model of `D` and Σ.
#[test]
fn prop_2_2_chase_universality() {
    let sigma = parse_tgds("A(X) -> R(X,Y). R(X,Y) -> B(Y)").unwrap();
    let d = db(&[("A", &["a"]), ("A", &["b"])]);
    let result = chase(&d, &sigma, &ChaseBudget::unbounded());
    assert!(result.complete);
    // A hand-built model: both a and b point at a shared witness w.
    let model = db(&[
        ("A", &["a"]),
        ("A", &["b"]),
        ("R", &["a", "w"]),
        ("R", &["b", "w"]),
        ("B", &["w"]),
    ]);
    assert!(satisfies_all(&model, &sigma));
    let fixed: Valuation = d.dom().iter().map(|&v| (v, v)).collect();
    let h = instance_homomorphism_fixing(&result.instance, &model, &fixed)
        .expect("chase(D,Σ) → M fixing dom(D)");
    assert_eq!(h[&Value::named("a")], Value::named("a"));
}

/// Prop 3.1: OMQ evaluation equals UCQ evaluation over the chase.
#[test]
fn prop_3_1_omq_equals_chase_evaluation() {
    let sigma = parse_tgds("P(X) -> R(X,Y). R(X,Y) -> S(Y)").unwrap();
    let q = parse_ucq("Q(X) :- P(X), R(X,Y), S(Y)").unwrap();
    let omq = Omq::full_schema(sigma.clone(), q.clone());
    let d = db(&[("P", &["a"]), ("P", &["b"])]);
    let open = evaluate_omq(&omq, &d, &cfg());
    assert!(open.exact);
    // Reference: materialize the (terminating) chase and evaluate directly.
    let reference = chase(&d, &sigma, &ChaseBudget::unbounded());
    assert!(reference.complete);
    let direct: std::collections::HashSet<Vec<Value>> = evaluate_ucq(&q, &reference.instance)
        .into_iter()
        .filter(|t| t.iter().all(|v| d.dom_contains(*v)))
        .collect();
    assert_eq!(open.answers, direct);
    assert_eq!(open.answers.len(), 2);
}

/// Prop 4.5: chase-based containment matches semantic containment, checked
/// against direct evaluation on a database family.
#[test]
fn prop_4_5_containment_is_semantic() {
    let sigma = parse_tgds("Cat(X) -> Animal(X)").unwrap();
    let q1 = parse_ucq("Q(X) :- Cat(X)").unwrap();
    let q2 = parse_ucq("Q(X) :- Animal(X)").unwrap();
    let c = ucq_contained_under(&sigma, &q1, &q2, &cfg());
    assert!(c.holds && c.exact);
    // Spot-check the semantics on Σ-satisfying databases.
    for n in 1..4usize {
        let mut atoms = Vec::new();
        for i in 0..n {
            atoms.push(GroundAtom::named("Cat", &[&format!("c{i}")]));
            atoms.push(GroundAtom::named("Animal", &[&format!("c{i}")]));
            atoms.push(GroundAtom::named("Animal", &[&format!("dog{i}")]));
        }
        let d = Instance::from_atoms(atoms);
        assert!(satisfies_all(&d, &sigma));
        let a1 = evaluate_cq(&q1.disjuncts[0], &d);
        let a2 = evaluate_cq(&q2.disjuncts[0], &d);
        assert!(a1.is_subset(&a2));
    }
}

/// Prop 5.5: a CQS is uniformly UCQ_k-equivalent iff its companion OMQ
/// (full data schema) is UCQ_k-equivalent — checked on both a positive and
/// a negative instance.
#[test]
fn prop_5_5_cqs_omq_equivalence_transfer() {
    use gtgd::omq::approx::{omq_ucqk_equivalent, GroundingPolicy};
    let sigma = parse_tgds("R2(X) -> R4(X)").unwrap();
    let q =
        parse_ucq("Q() :- P(X2,X1), P(X4,X1), P(X2,X3), P(X4,X3), R1(X1), R2(X2), R3(X3), R4(X4)")
            .unwrap();
    for (sig, expected) in [(sigma.clone(), true), (vec![], false)] {
        let s = Cqs::new(sig, q.clone());
        let (cqs_v, _) = cqs_uniformly_ucqk_equivalent(&s, 1, &cfg());
        let (omq_v, _) = omq_ucqk_equivalent(&s.omq(), 1, &GroundingPolicy::default(), &cfg());
        assert_eq!(cqs_v.holds, expected);
        assert_eq!(
            cqs_v.holds, omq_v.holds,
            "Prop 5.5: CQS and omq(S) agree on UCQ_1-equivalence"
        );
    }
}

/// Prop 3.3(2)'s observation: a Boolean CQ becomes a frontier-guarded TGD
/// with empty frontier, and OMQ evaluation then simulates CQ evaluation.
#[test]
fn boolean_cq_as_fg_tgd() {
    let sigma = parse_tgds("E(X,Y), E(Y,Z), E(Z,X) -> Ans()").unwrap();
    assert!(sigma[0].is_in(gtgd::chase::TgdClass::FrontierGuarded));
    let omq = Omq::full_schema(sigma, parse_ucq("Q() :- Ans()").unwrap());
    let tri = db(&[("E", &["a", "b"]), ("E", &["b", "c"]), ("E", &["c", "a"])]);
    let (holds, exact) = gtgd::omq::check_omq(&omq, &tri, &[], &cfg());
    assert!(holds && exact);
    let path = db(&[("E", &["a", "b"]), ("E", &["b", "c"])]);
    let (holds, _) = gtgd::omq::check_omq(&omq, &path, &[], &cfg());
    assert!(!holds);
}

/// App. C.3's unraveling property (3): for `Q ∈ (G, UCQ_k)`,
/// `c̄ ∈ Q(D)` implies `c̄ ∈ Q(D^k_c̄)` — matches of low-treewidth OMQs
/// survive the k-unraveling.
#[test]
fn k_unraveling_preserves_low_treewidth_omq_answers() {
    use gtgd::chase::k_unraveling;
    let sigma = parse_tgds("E(X,Y) -> Conn(X)").unwrap();
    let q = parse_ucq("Q(X) :- Conn(X), E(X,Y), E(Y,Z)").unwrap();
    assert!(gtgd::query::tw::is_ucq_treewidth_at_most(&q, 1));
    let omq = Omq::full_schema(sigma, q);
    // A triangle database.
    let d = db(&[("E", &["a", "b"]), ("E", &["b", "c"]), ("E", &["c", "a"])]);
    let open = evaluate_omq(&omq, &d, &cfg());
    assert!(open.exact);
    assert_eq!(open.answers.len(), 3);
    for t in &open.answers {
        let anchor = vec![t[0]];
        let unraveled = k_unraveling(&d, &anchor, 1, 4);
        let (holds, exact) = gtgd::omq::check_omq(&omq, &unraveled, &t[..], &cfg());
        assert!(exact);
        assert!(holds, "answer {t:?} must survive the 1-unraveling");
    }
    // Contrast: a treewidth-2 query (the triangle) does NOT survive.
    let tri = Omq::full_schema(vec![], parse_ucq("Q() :- E(X,Y), E(Y,Z), E(Z,X)").unwrap());
    let unraveled = k_unraveling(&d, &[], 1, 4);
    let (holds, _) = gtgd::omq::check_omq(&tri, &unraveled, &[], &cfg());
    assert!(!holds, "the cyclic match breaks at treewidth 1");
}

/// Section 7's key structural fact: chasing a bounded-treewidth database
/// with FG_m TGDs over arity-r schemas keeps treewidth ≤ max(k, r·m − 1).
#[test]
fn fgm_chase_preserves_bounded_treewidth() {
    // r = 3, m = 1: chased treewidth stays ≤ 2.
    let sigma = parse_tgds("E(X,Y) -> F(X,Y,Z)").unwrap();
    assert!(sigma[0].is_in(gtgd::chase::TgdClass::FrontierGuarded));
    let d = db(&[("E", &["a", "b"]), ("E", &["b", "c"]), ("E", &["c", "d"])]); // tw 1
    let r = chase(&d, &sigma, &ChaseBudget::unbounded());
    assert!(r.complete);
    let (g, _) = r.instance.gaifman();
    let tw = gtgd::treewidth::treewidth(&g);
    assert!(tw <= 2, "treewidth {tw} exceeds r·m − 1 = 2");
}

/// Lemma D.3: a satisfied CQ always has a contraction satisfied
/// injectively-only.
#[test]
fn lemma_d3_injective_contraction() {
    use gtgd::query::{eval::holds_injectively_only, injective_contraction, parse_cq};
    // A loop database: the 2-path query only matches by collapsing.
    let d = db(&[("E", &["a", "a"])]);
    let q = parse_cq("Q() :- E(X,Y), E(Y,Z)").unwrap();
    let qc = injective_contraction(&q, &d, &[]).expect("D |= q");
    assert!(holds_injectively_only(&qc, &d, &[]));
    assert!(qc.all_vars().len() < q.all_vars().len());
    // On a genuine 2-path no contraction is needed.
    let d2 = db(&[("E", &["a", "b"]), ("E", &["b", "c"])]);
    let qc2 = injective_contraction(&q, &d2, &[]).expect("D2 |= q");
    assert_eq!(qc2.all_vars().len(), 3);
    // And an unsatisfied query yields None.
    assert!(injective_contraction(&q, &db(&[("P", &["x"])]), &[]).is_none());
}

/// Lemma D.7: guarded unraveling preserves atomic-query entailment over
/// the root tuple.
#[test]
fn lemma_d7_unraveling_preserves_atomic_queries() {
    use gtgd::chase::guarded_unraveling;
    use gtgd::data::Value;
    let sigma = parse_tgds("E(X,Y) -> Mark(X). Mark(X) -> Tagged(X)").unwrap();
    let d = db(&[("E", &["a", "b"]), ("E", &["b", "c"]), ("E", &["c", "a"])]);
    let root = [Value::named("a"), Value::named("b")];
    let unraveled = guarded_unraveling(&d, &root, 4);
    // Atomic queries over the root constants agree between D and D^ā.
    for aq in ["Q(X) :- Mark(X)", "Q(X) :- Tagged(X)"] {
        let omq = Omq::full_schema(sigma.clone(), parse_ucq(aq).unwrap());
        for &c in &root {
            let (on_d, e1) = gtgd::omq::check_omq(&omq, &d, &[c], &cfg());
            let (on_u, e2) = gtgd::omq::check_omq(&omq, &unraveled, &[c], &cfg());
            assert!(e1 && e2);
            assert_eq!(on_d, on_u, "AQ {aq} on {c}");
        }
    }
}

/// Finite controllability in action (Lemma E.1's practical face): the
/// CQS-level equivalence `≡_Σ` agrees with evaluation over finite
/// Σ-satisfying databases.
#[test]
fn finite_controllability_spot_check() {
    let sigma = parse_tgds("Emp(X,D) -> Dept(D)").unwrap();
    let q1 = parse_ucq("Q(X) :- Emp(X,D), Dept(D)").unwrap();
    let q2 = parse_ucq("Q(X) :- Emp(X,D)").unwrap();
    // Under Σ every Emp's department exists: q1 ≡_Σ q2.
    let c12 = ucq_contained_under(&sigma, &q1, &q2, &cfg());
    let c21 = ucq_contained_under(&sigma, &q2, &q1, &cfg());
    assert!(c12.holds && c21.holds);
    // And indeed they agree on any Σ-satisfying database.
    let d = db(&[("Emp", &["ann", "hr"]), ("Dept", &["hr"])]);
    assert!(satisfies_all(&d, &sigma));
    assert_eq!(evaluate_ucq(&q1, &d), evaluate_ucq(&q2, &d));
}
