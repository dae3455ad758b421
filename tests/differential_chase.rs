//! Differential testing of the typed chase (the Lemma A.3 engine with
//! adaptive blocking) against the plain oblivious chase: on randomized
//! guarded ontologies and databases, ground atoms and query answers must
//! agree wherever both engines are authoritative. The plain chase itself is
//! checked level by level against a naive oblivious reference written here.
//!
//! Randomization is a seeded loop over [`Rng`] (the build is offline, so no
//! proptest); every TGD subset mask 0..128 is exercised with a database
//! derived from it, which covers strictly more rule combinations than the
//! sampled proptest run did.

use gtgd::chase::{chase, ground_saturation, typed_chase, ChaseBudget, DepthPolicy, Tgd};
use gtgd::data::{GroundAtom, Instance, Rng, Value};
use gtgd::query::{
    all_homomorphisms, evaluate_cq, instance_isomorphic, parse_cq, Cq, QAtom, Term, Var,
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

/// The result of [`naive_chase`].
struct NaiveChase {
    instance: Instance,
    levels: Vec<usize>,
    complete: bool,
    max_level: usize,
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
            for mut val in all_homomorphisms(&tgd.body, &instance) {
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
/// counts exact even then).
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
