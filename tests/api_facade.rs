//! Contract test for the two facades: on 64 seeded CQ × instance × TGD-set
//! cases, [`Engine::prepare`] must agree with the legacy query entry points
//! (and with the independent `HomSearch` valuation path), and
//! [`ChaseRunner`] must agree with the legacy chase free functions —
//! answers as sets, chase instances up to isomorphism, budget-stop
//! behaviour included. Query evaluation is checked at worker widths 1, 2,
//! and 4.

use gtgd::chase::{
    chase, parse_tgds, restricted_chase, ChaseBudget, ChaseRunner, ChaseVariant, Tgd,
};
use gtgd::data::{GroundAtom, Instance, Rng, Value};
use gtgd::query::{
    evaluate_cq, evaluate_cq_par, instance_isomorphic, parse_cq, Cq, Engine, HomSearch,
};
use std::collections::HashSet;

const WIDTHS: [usize; 3] = [1, 2, 4];
const CASES: u64 = 64;

fn rule_pool() -> Vec<Tgd> {
    parse_tgds(
        "A(X) -> B(X). \
         B(X) -> R(X,Y). \
         R(X,Y) -> S(Y,X). \
         R(X,Y), A(X) -> B(Y). \
         S(X,Y) -> A(X). \
         B(X) -> A(X)",
    )
    .unwrap()
}

fn query_pool() -> Vec<Cq> {
    vec![
        parse_cq("Q(X) :- A(X)").unwrap(),
        parse_cq("Q(X) :- R(X,Y), S(Y,Z)").unwrap(),
        parse_cq("Q(X,Y) :- S(X,Y), A(X)").unwrap(),
        parse_cq("Q(X,Y) :- R(X,Y), B(Y)").unwrap(),
        parse_cq("Q() :- R(X,Y), S(Y,X)").unwrap(),
    ]
}

fn arb_db(rng: &mut Rng) -> Instance {
    let k = rng.range(2, 10);
    Instance::from_atoms((0..k).map(|_| {
        let kind = rng.range(0, 4);
        let (a, b) = (rng.range(0, 5), rng.range(0, 5));
        match kind {
            0 => GroundAtom::named("A", &[&format!("c{a}")]),
            1 => GroundAtom::named("B", &[&format!("c{a}")]),
            2 => GroundAtom::named("R", &[&format!("c{a}"), &format!("c{b}")]),
            _ => GroundAtom::named("S", &[&format!("c{a}"), &format!("c{b}")]),
        }
    }))
}

fn sigma_for(pool: &[Tgd], case: u64) -> Vec<Tgd> {
    pool.iter()
        .enumerate()
        .filter(|(i, _)| case >> i & 1 == 1)
        .map(|(_, t)| t.clone())
        .collect()
}

/// The `HomSearch` answer set: an evaluation path independent of the
/// compiled-kernel machinery the facade builds on.
fn hom_answers(q: &Cq, i: &Instance) -> HashSet<Vec<Value>> {
    HomSearch::new(&q.atoms, i)
        .all()
        .into_iter()
        .map(|val| q.answer_vars.iter().map(|v| val[v]).collect())
        .collect()
}

/// Engine::prepare agrees with the legacy evaluators and the raw
/// valuation search on every seeded case, at every width.
#[test]
fn engine_facade_matches_legacy_answers() {
    let pool = rule_pool();
    let queries = query_pool();
    for case in 0..CASES {
        let mut rng = Rng::seed(0xFACADE ^ case);
        let d = arb_db(&mut rng);
        let sigma = sigma_for(&pool, case);
        let chased = chase(&d, &sigma, &ChaseBudget::levels(3)).instance;
        let q = &queries[(case % queries.len() as u64) as usize];
        for target in [&d, &chased] {
            let legacy = evaluate_cq(q, target);
            assert_eq!(legacy, hom_answers(q, target), "case {case}");
            let facade = Engine::prepare(q).answers(target);
            assert_eq!(facade, legacy, "case {case} (sequential)");
            for w in WIDTHS {
                assert_eq!(
                    Engine::prepare(q).parallel(w).answers(target),
                    legacy,
                    "case {case} (width {w})"
                );
                assert_eq!(evaluate_cq_par(q, target, w), legacy, "case {case}");
            }
            // check/holds/count agree with the answer set.
            for t in legacy.iter().take(2) {
                assert!(Engine::prepare(q).check(target, t), "case {case}");
            }
            assert_eq!(
                Engine::prepare(q).count(target) > 0,
                HomSearch::new(&q.atoms, target).exists(),
                "case {case}"
            );
        }
    }
}

/// ChaseRunner agrees with the legacy chase free functions on every seeded
/// case: identical oblivious results, identical restricted results, and
/// identical budget-stop points.
#[test]
fn chase_runner_matches_legacy_engines() {
    let pool = rule_pool();
    for case in 0..CASES {
        let mut rng = Rng::seed(0xC0FFEE ^ case);
        let d = arb_db(&mut rng);
        let sigma = sigma_for(&pool, case);
        // Alternate between an ample budget and a tight one that stops
        // mid-run, so budget-stop behaviour is part of the contract.
        let budget = if case % 2 == 0 {
            ChaseBudget::levels(4)
        } else {
            ChaseBudget::atoms((d.len() + 3).min(12))
        };
        let seq = chase(&d, &sigma, &budget);
        let outcome = ChaseRunner::new(&sigma).budget(budget).run(&d);
        assert_eq!(outcome.complete, seq.complete, "case {case}");
        assert_eq!(outcome.instance.len(), seq.instance.len(), "case {case}");
        assert_eq!(
            outcome.levels.as_deref(),
            Some(seq.levels.as_slice()),
            "case {case}"
        );
        assert_eq!(outcome.max_level, Some(seq.max_level), "case {case}");
        assert!(
            instance_isomorphic(&outcome.instance, &seq.instance),
            "case {case}"
        );
        assert!(outcome.report.is_none(), "untraced run carries no report");
        // The restricted chase bounds derivation depth per-atom, so the
        // same levels-or-atoms budget alternation bounds even the
        // non-terminating rule subsets.
        let r_budget = budget;
        let legacy_r = restricted_chase(&d, &sigma, &r_budget);
        let restricted = ChaseRunner::new(&sigma)
            .variant(ChaseVariant::Restricted)
            .budget(r_budget)
            .run(&d);
        // Null labels come from a global counter, so two runs agree only up
        // to isomorphism.
        assert_eq!(
            restricted.instance.len(),
            legacy_r.instance.len(),
            "case {case}"
        );
        assert!(
            instance_isomorphic(&restricted.instance, &legacy_r.instance),
            "case {case}"
        );
        assert_eq!(restricted.complete, legacy_r.complete, "case {case}");
        assert_eq!(restricted.fired, Some(legacy_r.fired), "case {case}");
    }
}
