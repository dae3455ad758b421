//! Differential testing of the parallel execution layer against the
//! sequential engines: on randomized TGD sets and databases, for several
//! worker counts,
//!
//! * `par_ground_saturation` must be *equal* to `ground_saturation` (its
//!   output mentions only named constants);
//! * CQ answer sets enumerated by `HomSearch::par_all` /
//!   `evaluate_cq_par` must be identical, as sorted sets, to the
//!   sequential evaluation.

use gtgd::chase::{chase, ground_saturation, par_ground_saturation, ChaseBudget, Tgd};
use gtgd::data::{GroundAtom, Instance, Rng, Value};
use gtgd::query::{evaluate_cq, evaluate_cq_par, parse_cq, Cq};

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

/// The parallel ground saturation is set-equal to the sequential one for
/// every worker width.
#[test]
fn par_saturation_equals_sequential() {
    let pool = rule_pool();
    for mask in 0u8..128 {
        let mut rng = Rng::seed(0x5A7 ^ u64::from(mask));
        let d = arb_db(&mut rng);
        let sigma = sigma_for_mask(&pool, mask);
        let seq = ground_saturation(&d, &sigma);
        for w in WORKER_WIDTHS {
            assert_eq!(
                par_ground_saturation(&d, &sigma, w),
                seq,
                "saturation differs (mask {mask:#b}, workers {w})"
            );
        }
    }
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
                    let par = sorted_answers(evaluate_cq_par(&q, target, w));
                    assert_eq!(
                        par, seq,
                        "answers differ for {q} (mask {mask:#b}, workers {w})"
                    );
                }
            }
        }
    }
}
