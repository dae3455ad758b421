//! Contract test for the two facades: on 64 seeded CQ × instance × TGD-set
//! cases, [`Engine::prepare`] must agree with `evaluate_cq` and with the
//! raw rows of a `KernelSearch` projected onto the answer variables, and
//! [`ChaseRunner`] must agree with the chase free functions — answers as
//! sets, chase instances up to isomorphism, budget-stop behaviour
//! included. Query evaluation is checked at worker widths 1, 2, and 4.

use gtgd::chase::{
    chase, parse_tgds, restricted_chase, satisfies_all, ChaseBudget, ChaseRunner, ChaseVariant,
    Firing, Tgd,
};
use gtgd::data::{GroundAtom, Instance, Rng, Value};
use gtgd::query::{
    evaluate_cq, instance_isomorphic, parse_cq, CompiledQuery, Cq, Engine, Term, Var,
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

/// The answer set read off the raw `KernelSearch` rows: every
/// homomorphism materialized as a table, then projected onto the answer
/// variables, without the facade's answer-slot plumbing.
fn hom_answers(q: &Cq, i: &Instance) -> HashSet<Vec<Value>> {
    let plan = CompiledQuery::compile_with_extra(&q.atoms, q.answer_vars.iter().copied());
    let slots: Vec<usize> = q
        .answer_vars
        .iter()
        .map(|&v| plan.slot_of(v).unwrap())
        .collect();
    let table = plan.search(i).table();
    table
        .rows()
        .map(|row| slots.iter().map(|&s| row[s]).collect())
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
            }
            // check/holds/count agree with the answer set.
            for t in legacy.iter().take(2) {
                assert!(Engine::prepare(q).check(target, t), "case {case}");
            }
            assert_eq!(
                Engine::prepare(q).count(target) > 0,
                CompiledQuery::compile(&q.atoms).search(target).exists(),
                "case {case}"
            );
        }
    }
}

/// Replays a restricted run's certified firings in order over `d`: no
/// firing's head may already hold, with its frontier as the firing bound
/// it, in the atoms present before it (the database plus the earlier
/// firings' products: each head with the key and the nulls substituted).
/// Returns the replayed instance.
fn replay_restricted(d: &Instance, sigma: &[Tgd], firings: &[Firing], ctx: &str) -> Instance {
    let mut live = d.clone();
    for (i, f) in firings.iter().enumerate() {
        let tgd = &sigma[f.tgd];
        let frontier = tgd.frontier();
        let head = CompiledQuery::compile(&tgd.head);
        // The key binds the body variables in ascending order.
        let bound = tgd
            .body_vars()
            .into_iter()
            .zip(f.key.iter().copied())
            .filter(|(v, _)| frontier.contains(v))
            .map(|(v, value)| (head.slot_of(v).unwrap(), value));
        assert!(
            !head.search(&live).fix_slots(bound).exists(),
            "{ctx}: firing {i} of rule {} was not active",
            f.tgd
        );
        // The key binds the body variables and the nulls the existential
        // ones, each in ascending order.
        let valuation: Vec<(Var, Value)> = (tgd.body_vars().into_iter())
            .zip(f.key.iter().copied())
            .chain(
                tgd.existential_vars()
                    .into_iter()
                    .zip(f.nulls.iter().copied()),
            )
            .collect();
        for a in &tgd.head {
            let image = |t: &Term| match *t {
                Term::Const(c) => c,
                Term::Var(v) => valuation.iter().find(|(u, _)| *u == v).unwrap().1,
            };
            live.insert(GroundAtom::new(
                a.predicate,
                a.args.iter().map(image).collect(),
            ));
        }
    }
    live
}

/// ChaseRunner agrees with the legacy chase free functions on every seeded
/// case: identical oblivious results, identical restricted results, and
/// identical budget-stop points. Every restricted firing was active when
/// it fired, and a complete restricted run is a model of Σ.
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
        assert_eq!(outcome.levels, seq.levels, "case {case}");
        assert_eq!(outcome.max_level, seq.max_level, "case {case}");
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
            .certify(true)
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
        assert_eq!(restricted.fired, legacy_r.fired, "case {case}");
        let firings = restricted.firings.as_deref().expect("certified");
        assert_eq!(firings.len(), legacy_r.fired, "case {case}");
        let replayed = replay_restricted(&d, &sigma, firings, &format!("case {case}"));
        assert_eq!(replayed, restricted.instance, "case {case}");
        if restricted.complete {
            assert!(satisfies_all(&restricted.instance, &sigma), "case {case}");
        }
    }
}
