//! Differential testing of the saturation and the parallel execution layer:
//! on randomized TGD sets and databases,
//!
//! * `ground_saturation` must be *equal* to the ground part (the atoms over
//!   `dom(D)`) of the independent oblivious chase run deep enough, on two
//!   rule pools (the second with multi-atom existential heads);
//! * CQ answer sets enumerated by `Engine::prepare(q).parallel(w)` must be
//!   identical, as sorted sets, to the sequential evaluation, for several
//!   worker counts.

use gtgd::chase::{chase, ground_saturation, ChaseBudget, Tgd};
use gtgd::data::{GroundAtom, Instance, Rng, Value};
use gtgd::omq::{evaluate_omq, EvalConfig, Omq};
use gtgd::query::{evaluate_cq, parse_cq, Cq, Engine, Ucq};
use std::collections::HashSet;

const WORKER_WIDTHS: [usize; 3] = [1, 2, 4];

/// A pool of guarded rule templates (same shape as the typed-chase
/// differential suite): subsets are guarded, constant-free TGD sets mixing
/// full and existential rules.
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
        parse_cq("Q(X,Y) :- S(X,Y), A(X)").unwrap(),
        parse_cq("Q() :- R(X,Y), B(Y)").unwrap(),
    ]
}

fn arb_db(rng: &mut Rng) -> Instance {
    let k = rng.range(1, 9);
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

fn sorted_answers(ans: std::collections::HashSet<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut v: Vec<Vec<Value>> = ans.into_iter().collect();
    v.sort();
    v
}

/// A second pool, shaped like an input that once made the saturator
/// exponential: heads with two or three atoms and an existential, whose
/// child bags lead back into each other's types.
fn two_atom_head_pool() -> Vec<Tgd> {
    gtgd::chase::parse_tgds(
        "R(X,Y) -> S(X,Y), R(Z,X). \
         S(X,Y) -> S(X,Z), B(X), B(Z). \
         S(X,Y) -> R(X,Y), R(Y,X). \
         A(X) -> R(X,Y), B(Y). \
         B(X) -> S(X,Y), A(Y). \
         R(X,Y), B(Y) -> A(X). \
         R(X,Y), A(Y) -> S(Y,Z), A(Z)",
    )
    .unwrap()
}

/// Atom cap of the deep chase the second pool is checked against.
const DEEP_ATOM_CAP: usize = 20_000;

/// The atoms of `inst` over `dom(d)`.
fn ground_part(inst: &Instance, d: &Instance) -> Instance {
    Instance::from_atoms(
        inst.iter()
            .filter(|a| a.args.iter().all(|v| d.dom_contains(*v)))
            .cloned(),
    )
}

/// The ground saturation is set-equal to the ground part of the oblivious
/// chase at level 8 (every first-pool case reaches its ground part by
/// level 6). On the second pool the level-8 chase may hit its atom cap;
/// its ground part must then still be contained in the saturation.
#[test]
fn par_saturation_equals_sequential() {
    let pool = rule_pool();
    for mask in 0u8..128 {
        let mut rng = Rng::seed(0x5A7 ^ u64::from(mask));
        let d = arb_db(&mut rng);
        let sigma = sigma_for_mask(&pool, mask);
        let deep = chase(&d, &sigma, &ChaseBudget::levels(8)).instance;
        assert_eq!(
            ground_saturation(&d, &sigma),
            ground_part(&deep, &d),
            "saturation differs from the ground chase (mask {mask:#b})"
        );
    }
    let pool = two_atom_head_pool();
    let budget = ChaseBudget {
        max_level: Some(8),
        max_atoms: Some(DEEP_ATOM_CAP),
    };
    let (mut equal, mut contained) = (0, 0);
    for mask in 0u8..128 {
        let mut rng = Rng::seed(0x2B7 ^ u64::from(mask));
        let d = arb_db(&mut rng);
        let sigma = sigma_for_mask(&pool, mask);
        let sat = ground_saturation(&d, &sigma);
        let deep = chase(&d, &sigma, &budget).instance;
        let ground = ground_part(&deep, &d);
        if deep.len() < DEEP_ATOM_CAP {
            assert_eq!(
                sat, ground,
                "saturation differs from the ground chase (second pool, mask {mask:#b})"
            );
            equal += 1;
        } else {
            let missing = ground.iter().find(|a| !sat.contains(a));
            assert!(
                missing.is_none(),
                "saturation lacks {} (second pool, mask {mask:#b})",
                missing.unwrap()
            );
            contained += 1;
        }
    }
    // 124 of the 128 second-pool cases finish level 8 under the cap.
    assert!(
        contained < equal,
        "the deep chase hit its cap on {contained} of {} cases",
        equal + contained
    );
}

/// On the second pool, `evaluate_omq`'s exact answers (the piece
/// saturation) contain every answer of a deep plain chase (level 10,
/// [`DEEP_ATOM_CAP`] atoms) and equal them when that chase completes, for
/// the query pool and three queries whose matches reach below the ground
/// part; every answer set is flagged exact. Most of these chases are
/// infinite, and the typed chase takes minutes per run here, so the deep
/// chase is the reference. A seeded die keeps 350 of the 1 024 mask ×
/// query pairs: the whole product takes 12 s alone in a debug build on a
/// quiet 2-core host and up to 25 s on a busy one, over the 15 s this
/// test may add.
#[test]
fn piece_saturation_contains_deep_chase_on_second_pool() {
    let pool = two_atom_head_pool();
    let budget = ChaseBudget {
        max_level: Some(10),
        max_atoms: Some(DEEP_ATOM_CAP),
    };
    let queries: Vec<Cq> = query_pool()
        .into_iter()
        .chain(
            [
                "Q(X) :- R(X,Y), S(Y,Z), A(Z)",
                "Q() :- R(X,Y), R(Y,Z), R(Z,W), B(W)",
                "Q() :- R(X,Y), S(Y,Z), R(Z,X)",
            ]
            .map(|q| parse_cq(q).unwrap()),
        )
        .collect();
    let mut complete = 0;
    for mask in 0u8..128 {
        let mut rng = Rng::seed(0x2B7 ^ u64::from(mask));
        let d = arb_db(&mut rng);
        let sigma = sigma_for_mask(&pool, mask);
        let deep = chase(&d, &sigma, &budget);
        complete += usize::from(deep.complete);
        for q in &queries {
            if rng.range(0, 3) != 0 {
                continue;
            }
            let ctx = format!("{q} (second pool, mask {mask:#b})");
            let omq = Omq::full_schema(sigma.clone(), Ucq::single(q.clone()));
            let got = evaluate_omq(&omq, &d, &EvalConfig::default());
            assert!(got.exact, "{ctx}");
            let from_deep: HashSet<Vec<Value>> = evaluate_cq(q, &deep.instance)
                .into_iter()
                .filter(|t| t.iter().all(|v| d.dom_contains(*v)))
                .collect();
            assert!(from_deep.is_subset(&got.answers), "missed answers: {ctx}");
            if deep.complete {
                assert_eq!(got.answers, from_deep, "{ctx}");
            }
        }
    }
    // The deep chase reaches a fixpoint on 34 of the 128 masks.
    assert!(complete > 30, "{complete} complete deep chases");
}

/// Parallel answer enumeration is identical (as a sorted set) to the
/// sequential evaluation, over both raw databases and chase results.
#[test]
fn par_enumeration_matches_sequential() {
    let pool = rule_pool();
    for mask in (0u8..128).step_by(5) {
        let mut rng = Rng::seed(0xE9A ^ u64::from(mask));
        let d = arb_db(&mut rng);
        let sigma = sigma_for_mask(&pool, mask);
        let chased = chase(&d, &sigma, &ChaseBudget::levels(4)).instance;
        for target in [&d, &chased] {
            for q in query_pool() {
                let seq = sorted_answers(evaluate_cq(&q, target));
                for w in WORKER_WIDTHS {
                    let par = sorted_answers(Engine::prepare(&q).parallel(w).answers(target));
                    assert_eq!(
                        par, seq,
                        "answers differ for {q} (mask {mask:#b}, workers {w})"
                    );
                }
            }
        }
    }
}
