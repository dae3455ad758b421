//! Differential testing of the open-world answer paths against the plain
//! oblivious chase: on randomized guarded ontologies and databases, ground
//! atoms and query answers must agree wherever the engines are
//! authoritative. The library's exact path (`evaluate_omq` over the piece
//! saturation) is checked against the typed-chase reference in
//! `tests/common` (the Lemma A.3 engine with adaptive blocking) and against
//! a deep plain chase; the reference is checked against the plain chase
//! too. The plain chase itself is checked level by level against a naive
//! oblivious reference written here, and the restricted chase's level
//! totals are checked on the same cases.
//!
//! Randomization is a seeded loop over [`Rng`] (the build is offline, so no
//! proptest); every TGD subset mask 0..128 is exercised with a database
//! derived from it, which covers strictly more rule combinations than the
//! sampled proptest run did.

mod common;

use common::typed_chase::{typed_chase, DepthPolicy};
use gtgd::chase::{
    chase, ground_saturation, linearize, restricted_chase, ChaseBudget, ChaseResult, ChaseRunner,
    Tgd, TgdClass,
};
use gtgd::data::{GroundAtom, Instance, Rng, Value};
use gtgd::omq::{evaluate_omq, EvalConfig, Omq};
use gtgd::query::{
    evaluate_cq, instance_isomorphic, parse_cq, CompiledQuery, Cq, QAtom, Term, Ucq, Var,
};
use std::collections::{HashMap, HashSet};

/// A pool of guarded rule templates over predicates A/B (unary), R/S
/// (binary). Each subset of the pool is a guarded, constant-free Σ.
fn rule_pool() -> Vec<Tgd> {
    gtgd::chase::parse_tgds(
        "A(X) -> B(X). \
         B(X) -> R(X,Y). \
         R(X,Y) -> S(Y,X). \
         R(X,Y), A(X) -> B(Y). \
         S(X,Y) -> A(X). \
         R(X,Y), B(Y) -> S(X,X). \
         B(X) -> A(X)",
    )
    .unwrap()
}

fn query_pool() -> Vec<Cq> {
    vec![
        parse_cq("Q(X) :- A(X)").unwrap(),
        parse_cq("Q(X) :- B(X)").unwrap(),
        parse_cq("Q(X) :- R(X,Y), S(Y,Z)").unwrap(),
        parse_cq("Q() :- R(X,Y), B(Y)").unwrap(),
        parse_cq("Q(X,Y) :- S(X,Y), A(X)").unwrap(),
    ]
}

/// A random database over A/R/S with a 4-element domain.
fn arb_db(rng: &mut Rng) -> Instance {
    let k = rng.range(1, 8);
    Instance::from_atoms((0..k).map(|_| {
        let kind = rng.range(0, 3);
        let (a, b) = (rng.range(0, 4), rng.range(0, 4));
        match kind {
            0 => GroundAtom::named("A", &[&format!("c{a}")]),
            1 => GroundAtom::named("R", &[&format!("c{a}"), &format!("c{b}")]),
            _ => GroundAtom::named("S", &[&format!("c{a}"), &format!("c{b}")]),
        }
    }))
}

fn sigma_for_mask(pool: &[Tgd], mask: u8) -> Vec<Tgd> {
    pool.iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, t)| t.clone())
        .collect()
}

/// Ground saturation equals the ground part of a deep plain chase.
#[test]
fn ground_saturation_matches_deep_chase() {
    let pool = rule_pool();
    for mask in 0u8..128 {
        let mut rng = Rng::seed(0xD1FF ^ u64::from(mask));
        let d = arb_db(&mut rng);
        let sigma = sigma_for_mask(&pool, mask);
        let sat = ground_saturation(&d, &sigma);
        let deep = chase(&d, &sigma, &ChaseBudget::levels(7));
        // Every ground atom of the deep prefix appears in the saturation…
        for a in deep.instance.iter() {
            if a.args.iter().all(|v| d.dom_contains(*v)) {
                assert!(sat.contains(a), "missing {a} (mask {mask:#b})");
            }
        }
        // …and the saturation is sound w.r.t. the deep prefix when the
        // prefix is complete.
        if deep.complete {
            for a in sat.iter() {
                assert!(deep.instance.contains(a), "unsound {a} (mask {mask:#b})");
            }
        }
    }
}

/// Typed-chase query answers over dom(D) match a deep plain chase whenever
/// the typed chase reports saturation.
#[test]
fn typed_chase_answers_match_plain_chase() {
    let pool = rule_pool();
    for mask in 0u8..128 {
        let mut rng = Rng::seed(0x7E57 ^ u64::from(mask));
        let d = arb_db(&mut rng);
        let sigma = sigma_for_mask(&pool, mask);
        let typed = typed_chase(
            &d,
            &sigma,
            DepthPolicy::Adaptive {
                extra_levels: 4,
                max_level: 24,
            },
        );
        let deep = chase(&d, &sigma, &ChaseBudget::levels(8));
        for q in query_pool() {
            let filter = |ans: std::collections::HashSet<Vec<gtgd::data::Value>>| {
                ans.into_iter()
                    .filter(|t| t.iter().all(|v| d.dom_contains(*v)))
                    .collect::<std::collections::HashSet<_>>()
            };
            let from_typed = filter(evaluate_cq(&q, &typed.instance));
            let from_deep = filter(evaluate_cq(&q, &deep.instance));
            if typed.saturated {
                // The typed chase is authoritative: it must cover everything
                // the deep prefix finds.
                assert!(
                    from_deep.is_subset(&from_typed),
                    "typed chase missed answers for {q} (mask {mask:#b}): \
                     deep {from_deep:?} vs typed {from_typed:?}"
                );
            }
            // Soundness both ways: typed answers must come from real chase
            // atoms, so when the plain chase is complete they must appear.
            if deep.complete {
                assert!(
                    from_typed.is_subset(&from_deep),
                    "typed chase invented answers for {q} (mask {mask:#b})"
                );
            }
        }
    }
}

/// Queries whose matches reach below the ground part: a two-step null
/// chain with an answer, a three-step chain, and a cycle through nulls.
fn deep_queries() -> Vec<Cq> {
    vec![
        parse_cq("Q(X) :- R(X,Y), S(Y,Z), A(Z)").unwrap(),
        parse_cq("Q() :- R(X,Y), R(Y,Z), R(Z,W), B(W)").unwrap(),
        parse_cq("Q() :- R(X,Y), S(Y,Z), R(Z,X)").unwrap(),
    ]
}

/// `evaluate_omq`'s exact answers (the piece saturation) on every mask,
/// for the query pool and [`deep_queries`]: equal to the typed-chase
/// reference's wherever it saturates, containing every answer of a deep
/// plain chase (level 10, 20 000 atoms) and equal to them when that chase
/// completes, and always flagged exact.
#[test]
fn piece_saturation_answers_match_typed_and_deep_chase() {
    let pool = rule_pool();
    let budget = ChaseBudget {
        max_level: Some(10),
        max_atoms: Some(20_000),
    };
    let (mut saturated, mut complete) = (0, 0);
    for mask in 0u8..128 {
        let mut rng = Rng::seed(0x7E57 ^ u64::from(mask));
        let d = arb_db(&mut rng);
        let sigma = sigma_for_mask(&pool, mask);
        let typed = typed_chase(
            &d,
            &sigma,
            DepthPolicy::Adaptive {
                extra_levels: 4,
                max_level: 24,
            },
        );
        let deep = chase(&d, &sigma, &budget);
        saturated += usize::from(typed.saturated);
        complete += usize::from(deep.complete);
        let over_dom = |ans: HashSet<Vec<Value>>| -> HashSet<Vec<Value>> {
            ans.into_iter()
                .filter(|t| t.iter().all(|v| d.dom_contains(*v)))
                .collect()
        };
        for q in query_pool().into_iter().chain(deep_queries()) {
            let ctx = format!("{q} (mask {mask:#b})");
            let omq = Omq::full_schema(sigma.clone(), Ucq::single(q.clone()));
            let got = evaluate_omq(&omq, &d, &EvalConfig::default());
            assert!(got.exact, "{ctx}");
            if typed.saturated {
                assert_eq!(
                    got.answers,
                    over_dom(evaluate_cq(&q, &typed.instance)),
                    "{ctx}"
                );
            }
            let from_deep = over_dom(evaluate_cq(&q, &deep.instance));
            assert!(from_deep.is_subset(&got.answers), "missed answers: {ctx}");
            if deep.complete {
                assert_eq!(got.answers, from_deep, "{ctx}");
            }
        }
    }
    // The reference saturates on every mask; the deep chase completes on
    // 111 of them.
    assert!(saturated == 128 && complete > 100, "{saturated} {complete}");
}

/// The `(D*, Σ*)` linearization (Lemma A.3) on every mask: every rule of
/// Σ* is linear, and for each query of the pool the answers over `dom(D)`
/// of a capped chase of `(D*, Σ*)` are contained in `evaluate_omq`'s exact
/// answers (the piece saturation) and equal to them when that chase
/// completes.
#[test]
fn linearized_chase_answers_match_piece_saturation() {
    let pool = rule_pool();
    let budget = ChaseBudget {
        max_level: Some(12),
        max_atoms: Some(5_000),
    };
    let mut complete = 0;
    for mask in 0u8..128 {
        let mut rng = Rng::seed(0x7E57 ^ u64::from(mask));
        let d = arb_db(&mut rng);
        let sigma = sigma_for_mask(&pool, mask);
        let lin = linearize(&d, &sigma);
        for r in &lin.sigma_star {
            assert!(
                r.is_in(TgdClass::Linear),
                "not linear: {r} (mask {mask:#b})"
            );
        }
        let expanded = chase(&lin.d_star, &lin.sigma_star, &budget);
        complete += usize::from(expanded.complete);
        for q in query_pool() {
            let ctx = format!("{q} (mask {mask:#b})");
            let omq = Omq::full_schema(sigma.clone(), Ucq::single(q.clone()));
            let exact = evaluate_omq(&omq, &d, &EvalConfig::default()).answers;
            let got: HashSet<Vec<Value>> = evaluate_cq(&q, &expanded.instance)
                .into_iter()
                .filter(|t| t.iter().all(|v| v.is_named()))
                .collect();
            assert!(got.is_subset(&exact), "unsound answers: {ctx}");
            if expanded.complete {
                assert_eq!(got, exact, "{ctx}");
            }
        }
    }
    // The Σ* chase completes on 91 of the 128 masks.
    assert!(complete > 80, "{complete} complete Σ* chases");
}

/// The result of [`naive_chase`].
struct NaiveChase {
    instance: Instance,
    levels: Vec<usize>,
    complete: bool,
    max_level: usize,
    /// Triggers fired.
    fired: usize,
}

fn ground(a: &QAtom, val: &HashMap<Var, Value>) -> GroundAtom {
    GroundAtom::new(
        a.predicate,
        a.args
            .iter()
            .map(|t| match *t {
                Term::Const(c) => c,
                Term::Var(v) => val[&v],
            })
            .collect(),
    )
}

/// The oblivious chase by its definition: level `ℓ` fires every body
/// homomorphism into the instance of levels below `ℓ` that has not fired
/// yet, with fresh nulls for the existential variables; no semi-naive
/// pinning. The atom cap counts the distinct new atoms of the round and
/// stops before a trigger fires once it is reached.
fn naive_chase(d: &Instance, sigma: &[Tgd], budget: &ChaseBudget) -> NaiveChase {
    let mut instance = d.clone();
    let mut levels = vec![0; d.len()];
    let mut fired: HashSet<(usize, Vec<Value>)> = HashSet::new();
    let (mut level, mut complete) = (0, true);
    loop {
        if budget.max_level.is_some_and(|max| level >= max)
            || budget.atoms_exhausted(instance.len())
        {
            complete = false;
            break;
        }
        let mut produced: Vec<GroundAtom> = Vec::new();
        let mut gain: HashSet<GroundAtom> = HashSet::new();
        let mut cut = false;
        'round: for (ti, tgd) in sigma.iter().enumerate() {
            let body = CompiledQuery::compile(&tgd.body);
            for mut val in body.search(&instance).table().to_maps() {
                let key: Vec<Value> = tgd.body_vars().iter().map(|v| val[v]).collect();
                if fired.contains(&(ti, key.clone())) {
                    continue;
                }
                if budget.atoms_exhausted(instance.len() + gain.len()) {
                    cut = true;
                    break 'round;
                }
                fired.insert((ti, key));
                for z in tgd.existential_vars() {
                    val.insert(z, Value::fresh_null());
                }
                for a in &tgd.head {
                    let g = ground(a, &val);
                    if !instance.contains(&g) {
                        gain.insert(g.clone());
                    }
                    produced.push(g);
                }
            }
        }
        let before = instance.len();
        for a in produced {
            if instance.insert(a) {
                levels.push(level + 1);
            }
        }
        if instance.len() == before {
            complete &= !cut;
            break;
        }
        level += 1;
        if cut {
            complete = false;
            break;
        }
    }
    NaiveChase {
        instance,
        levels,
        complete,
        max_level: level,
        fired: fired.len(),
    }
}

/// The totals every chase result carries, for either variant: one level
/// per atom, the database at level 0, `max_level` the largest level, and
/// no level above a level cap.
fn assert_totals(r: &ChaseResult, d: &Instance, budget: &ChaseBudget, ctx: &str) {
    assert_eq!(r.levels.len(), r.instance.len(), "{ctx}");
    for (a, &l) in r.instance.iter().zip(&r.levels) {
        assert!(l > 0 || d.contains(a), "{ctx}: {a} at level 0");
        assert!(l == 0 || !d.contains(a), "{ctx}: database atom {a} at {l}");
    }
    assert_eq!(Some(&r.max_level), r.levels.iter().max(), "{ctx}");
    if let Some(k) = budget.max_level {
        assert!(r.max_level <= k, "{ctx}");
    }
}

fn level_counts(levels: &[usize]) -> Vec<usize> {
    let mut counts = vec![0; levels.iter().max().map_or(1, |m| m + 1)];
    for &l in levels {
        counts[l] += 1;
    }
    counts
}

/// The semi-naive chase agrees with the naive level-by-level reference on
/// every mask, under level and atom budgets: the same number of atoms at
/// each level, the same highest level and completeness, and isomorphic
/// instances. An atom cap that stops a round midway leaves that round's
/// atoms up to firing order, so there only the levels below it are
/// compared up to isomorphism (the rule pool's single-atom heads make the
/// counts exact even then). Outside such cuts the engine fires exactly as
/// many triggers as the reference, whose fired set makes each trigger
/// fire once: the semi-naive split neither repeats nor misses one. The
/// restricted chase runs on every case too, and both variants carry the
/// same totals: one level per atom, the database at level 0, `max_level`
/// the largest level and at most the level cap.
#[test]
fn chase_levels_match_naive_reference() {
    let pool = rule_pool();
    for mask in 0u8..128 {
        let mut rng = Rng::seed(0xAB5E ^ u64::from(mask));
        let d = arb_db(&mut rng);
        let sigma = sigma_for_mask(&pool, mask);
        for budget in [
            ChaseBudget::levels(2),
            ChaseBudget::levels(5),
            ChaseBudget::atoms(d.len() + 3),
            ChaseBudget::atoms(d.len() + 12),
        ] {
            let ctx = format!("mask {mask:#b}, {budget:?}");
            let r = chase(&d, &sigma, &budget);
            let naive = naive_chase(&d, &sigma, &budget);
            assert_totals(&r, &d, &budget, &ctx);
            let restricted = restricted_chase(&d, &sigma, &budget);
            assert_totals(&restricted, &d, &budget, &format!("restricted, {ctx}"));
            if r.complete || budget.max_atoms.is_none() {
                let certified = ChaseRunner::new(&sigma)
                    .budget(budget)
                    .certify(true)
                    .run(&d);
                let firings = certified.firings.expect("certified run records firings");
                assert_eq!(firings.len(), naive.fired, "{ctx}");
                assert_eq!(certified.fired, firings.len(), "{ctx}");
                assert_eq!(r.fired, firings.len(), "{ctx}");
            }
            assert_eq!(
                level_counts(&r.levels),
                level_counts(&naive.levels),
                "{ctx}"
            );
            assert_eq!(r.max_level, naive.max_level, "{ctx}");
            assert_eq!(r.complete, naive.complete, "{ctx}");
            let below_cut = |levels: &[usize], instance: &Instance| {
                Instance::from_atoms(
                    instance
                        .iter()
                        .zip(levels)
                        .filter(|&(_, &l)| l < r.max_level)
                        .map(|(a, _)| a.clone()),
                )
            };
            if budget.max_atoms.is_some() && !r.complete {
                assert!(
                    instance_isomorphic(
                        &below_cut(&r.levels, &r.instance),
                        &below_cut(&naive.levels, &naive.instance)
                    ),
                    "{ctx}"
                );
            } else {
                assert!(instance_isomorphic(&r.instance, &naive.instance), "{ctx}");
            }
        }
    }
}

/// The typed-chase reference's own checks.
mod typed_chase_reference {
    use super::common::typed_chase::{typed_chase, DepthPolicy};
    use gtgd::chase::{chase, linearize, parse_tgds, ChaseBudget};
    use gtgd::data::{GroundAtom, Instance};
    use gtgd::query::{holds_boolean, parse_cq};

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    #[test]
    fn matches_plain_chase_on_terminating_sets() {
        let tgds = parse_tgds("A(X) -> R(X,Y). R(X,Y) -> B(Y)").unwrap();
        let d = db(&[("A", &["a"])]);
        let t = typed_chase(&d, &tgds, DepthPolicy::Fixed(5));
        let q = parse_cq("Q() :- A(X), R(X,Y), B(Y)").unwrap();
        assert!(holds_boolean(&q, &t.instance));
        let reference = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert!(holds_boolean(&q, &reference.instance));
    }

    #[test]
    fn infinite_chase_blocks_adaptively() {
        let tgds = parse_tgds("Person(X) -> Parent(X,Y), Person(Y)").unwrap();
        let d = db(&[("Person", &["eve"])]);
        let t = typed_chase(
            &d,
            &tgds,
            DepthPolicy::Adaptive {
                extra_levels: 3,
                max_level: 50,
            },
        );
        assert!(t.saturated, "blocking should stop expansion well before 50");
        assert!(t.max_level < 10, "max level {}", t.max_level);
        // Query matches that fit in the materialized depth are found.
        let q = parse_cq("Q() :- Parent(X,Y), Parent(Y,Z), Parent(Z,W)").unwrap();
        assert!(holds_boolean(&q, &t.instance));
    }

    #[test]
    fn fixed_cap_reports_unsaturated() {
        let tgds = parse_tgds("Person(X) -> Parent(X,Y), Person(Y)").unwrap();
        let d = db(&[("Person", &["eve"])]);
        let t = typed_chase(&d, &tgds, DepthPolicy::Fixed(2));
        assert!(!t.saturated);
        assert_eq!(t.max_level, 2);
    }

    #[test]
    fn deep_detour_atoms_present_at_low_levels() {
        // T(b) needs a child bag round trip; the typed chase has it in the
        // ground part immediately, unlike a level-1 plain chase prefix.
        let tgds = parse_tgds("R(X,Y) -> S(Y,Z). S(Y,Z) -> T(Y)").unwrap();
        let d = db(&[("R", &["a", "b"])]);
        let t = typed_chase(&d, &tgds, DepthPolicy::Fixed(0));
        assert!(t.instance.contains(&GroundAtom::named("T", &["b"])));
    }

    #[test]
    fn queries_over_infinite_chase_guarded_ontology() {
        // Every department's manager works in some department, recursively.
        let tgds =
            parse_tgds("Dept(D) -> HasMgr(D,M), Emp(M). Emp(M) -> WorksIn(M,D), Dept(D)").unwrap();
        let d = db(&[("Dept", &["sales"])]);
        let t = typed_chase(
            &d,
            &tgds,
            DepthPolicy::Adaptive {
                extra_levels: 4,
                max_level: 30,
            },
        );
        assert!(t.saturated);
        let q = parse_cq("Q() :- HasMgr(D1,M1), WorksIn(M1,D2), HasMgr(D2,M2), WorksIn(M2,D3)")
            .unwrap();
        assert!(holds_boolean(&q, &t.instance));
    }

    #[test]
    fn bag_count_grows_with_database() {
        let tgds = parse_tgds("A(X) -> R(X,Y)").unwrap();
        let small = typed_chase(&db(&[("A", &["a"])]), &tgds, DepthPolicy::Fixed(3));
        let large = typed_chase(
            &db(&[("A", &["a"]), ("A", &["b"]), ("A", &["c"])]),
            &tgds,
            DepthPolicy::Fixed(3),
        );
        assert!(large.bag_count > small.bag_count);
    }

    #[test]
    fn expanded_chase_matches_typed_chase_on_queries() {
        let tgds = parse_tgds("Dept(D) -> HasMgr(D,M), Emp(M). Emp(M) -> WorksIn(M,D2), Dept(D2)")
            .unwrap();
        let d = db(&[("Dept", &["sales"])]);
        let lin = linearize(&d, &tgds);
        // Chase D* with the linear rules, bounded level (Lemma A.1).
        let expanded = chase(&lin.d_star, &lin.sigma_star, &ChaseBudget::levels(8));
        let reference = typed_chase(
            &d,
            &tgds,
            DepthPolicy::Adaptive {
                extra_levels: 5,
                max_level: 24,
            },
        );
        assert!(reference.saturated);
        for q_src in [
            "Q() :- HasMgr(D,M), WorksIn(M,D2)",
            "Q() :- WorksIn(M,D2), HasMgr(D2,M2), WorksIn(M2,D3)",
            "Q() :- Emp(M), WorksIn(M,D), HasMgr(D,M2), Emp(M2)",
        ] {
            let q = parse_cq(q_src).unwrap();
            assert_eq!(
                holds_boolean(&q, &expanded.instance),
                holds_boolean(&q, &reference.instance),
                "disagreement on {q_src}"
            );
        }
    }
}
