//! Hypergraph acyclicity (GYO reduction) and Yannakakis evaluation for
//! acyclic CQs.
//!
//! Acyclic CQs are the treewidth story's older sibling: α-acyclic queries
//! admit join trees and evaluate in linear time via semijoins. They are a
//! natural companion to the Prop 2.1 engine (every α-acyclic CQ whose atoms
//! have arity ≤ r has "generalized hypertreewidth 1" and, modulo guards,
//! interacts with guarded TGDs exactly as the paper's bags do), and serve as
//! an independent oracle in tests.

use crate::compile::CompiledQuery;
use crate::cq::{Cq, QAtom, Var};
use gtgd_data::{Instance, Value};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::ControlFlow;

/// A join tree of an α-acyclic CQ: one node per atom, with the
/// connectedness property for shared variables.
#[derive(Debug, Clone)]
pub struct JoinTree {
    /// `parent[i]` is the parent atom index of atom `i` (`None` for the
    /// root(s); forests are chained by Yannakakis).
    pub parent: Vec<Option<usize>>,
    /// Elimination order of atoms discovered by GYO (ears first).
    pub order: Vec<usize>,
}

/// Attempts a GYO reduction of the query's hypergraph. Returns a join tree
/// when the CQ is α-acyclic, `None` otherwise.
pub fn gyo_join_tree(q: &Cq) -> Option<JoinTree> {
    let n = q.atoms.len();
    let mut alive: Vec<bool> = vec![true; n];
    let mut vars: Vec<BTreeSet<Var>> = q
        .atoms
        .iter()
        .map(|a| a.vars().into_iter().collect())
        .collect();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut order: Vec<usize> = Vec::new();
    loop {
        let remaining: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
        if remaining.len() <= 1 {
            order.extend(remaining);
            return Some(JoinTree { parent, order });
        }
        // An ear: an atom e whose variables are either exclusive to e or all
        // contained in some other live atom w (the witness).
        let mut found = None;
        'ears: for &e in &remaining {
            // Variables shared with any other atom.
            let shared: BTreeSet<Var> = vars[e]
                .iter()
                .copied()
                .filter(|v| remaining.iter().any(|&o| o != e && vars[o].contains(v)))
                .collect();
            if shared.is_empty() {
                found = Some((e, None));
                break 'ears;
            }
            for &w in &remaining {
                if w != e && shared.is_subset(&vars[w]) {
                    found = Some((e, Some(w)));
                    break 'ears;
                }
            }
        }
        match found {
            None => return None, // cyclic
            Some((e, w)) => {
                alive[e] = false;
                parent[e] = w;
                order.push(e);
                // Exclusive variables of e disappear with it.
                vars[e].clear();
            }
        }
    }
}

/// Whether the CQ is α-acyclic.
pub fn is_alpha_acyclic(q: &Cq) -> bool {
    gyo_join_tree(q).is_some()
}

/// Yannakakis evaluation of an α-acyclic CQ: decides `c̄ ∈ q(D)` with a
/// semijoin program over the join tree. Linear in `|D|` per atom.
pub fn check_answer_yannakakis(q: &Cq, i: &Instance, answer: &[Value]) -> Option<bool> {
    assert_eq!(answer.len(), q.arity(), "candidate answer has wrong arity");
    let tree = gyo_join_tree(q)?;
    // Substitute the candidate answer.
    let binding: HashMap<Var, Value> = q
        .answer_vars
        .iter()
        .copied()
        .zip(answer.iter().copied())
        .collect();
    let atoms: Vec<QAtom> = q
        .atoms
        .iter()
        .map(|a| QAtom {
            predicate: a.predicate,
            args: a
                .args
                .iter()
                .map(|t| match *t {
                    crate::cq::Term::Var(v) => match binding.get(&v) {
                        Some(&c) => crate::cq::Term::Const(c),
                        None => crate::cq::Term::Var(v),
                    },
                    c => c,
                })
                .collect(),
        })
        .collect();
    // Per-atom relations (sets of variable assignments restricted to the
    // atom's variables).
    let mut relations: Vec<HashSet<Vec<(Var, Value)>>> = Vec::with_capacity(atoms.len());
    for a in &atoms {
        // A fully ground atom has one empty row if present, none if not.
        let rel = atom_relation(a, i);
        if rel.is_empty() {
            return Some(false);
        }
        relations.push(rel);
    }
    // Bottom-up semijoins along the GYO elimination order: when atom e is
    // eliminated into witness w, keep only w-tuples consistent with some
    // e-tuple on the shared variables.
    for &e in &tree.order {
        let Some(w) = tree.parent[e] else { continue };
        let shared: Vec<Var> = atoms[e]
            .vars()
            .into_iter()
            .filter(|v| atoms[w].mentions(*v))
            .collect();
        let e_keys: HashSet<Vec<Value>> = relations[e]
            .iter()
            .map(|t| {
                shared
                    .iter()
                    .map(|v| t.iter().find(|(u, _)| u == v).expect("shared var").1)
                    .collect()
            })
            .collect();
        let filtered: HashSet<Vec<(Var, Value)>> = relations[w]
            .iter()
            .filter(|t| {
                let key: Vec<Value> = shared
                    .iter()
                    .map(|v| t.iter().find(|(u, _)| u == v).expect("shared var").1)
                    .collect();
                e_keys.contains(&key)
            })
            .cloned()
            .collect();
        if filtered.is_empty() {
            return Some(false);
        }
        relations[w] = filtered;
    }
    Some(true)
}

/// The relation of one atom over `i`: the images of its variables (in
/// `a.vars()` order) under every match of `a`.
fn atom_relation(a: &QAtom, i: &Instance) -> HashSet<Vec<(Var, Value)>> {
    let plan = CompiledQuery::compile(std::slice::from_ref(a));
    let vs: Vec<(Var, usize)> = (a.vars().into_iter())
        .map(|v| (v, plan.slot_of(v).expect("atom vars have slots")))
        .collect();
    let mut rel = HashSet::new();
    plan.search(i).for_each_row(|row| {
        rel.insert(vs.iter().map(|&(v, s)| (v, row[s])).collect());
        ControlFlow::Continue(())
    });
    rel
}

/// Full Yannakakis evaluation of an α-acyclic CQ: all answers, via a
/// bottom-up semijoin pass (dangling-tuple elimination) followed by
/// backtracking over the reduced relations. Returns `None` for cyclic
/// queries.
pub fn evaluate_yannakakis(q: &Cq, i: &Instance) -> Option<HashSet<Vec<Value>>> {
    let tree = gyo_join_tree(q)?;
    // Phase 1: per-atom relations.
    let mut relations: Vec<HashSet<Vec<(Var, Value)>>> = Vec::with_capacity(q.atoms.len());
    for a in &q.atoms {
        let rel = atom_relation(a, i);
        if rel.is_empty() {
            return Some(HashSet::new());
        }
        relations.push(rel);
    }
    // Phase 2: bottom-up semijoins.
    for &e in &tree.order {
        let Some(w) = tree.parent[e] else { continue };
        let shared: Vec<Var> = q.atoms[e]
            .vars()
            .into_iter()
            .filter(|v| q.atoms[w].mentions(*v))
            .collect();
        let e_keys: HashSet<Vec<Value>> = relations[e]
            .iter()
            .map(|t| {
                shared
                    .iter()
                    .map(|v| t.iter().find(|(u, _)| u == v).expect("shared").1)
                    .collect()
            })
            .collect();
        relations[w].retain(|t| {
            let key: Vec<Value> = shared
                .iter()
                .map(|v| t.iter().find(|(u, _)| u == v).expect("shared").1)
                .collect();
            e_keys.contains(&key)
        });
        if relations[w].is_empty() {
            return Some(HashSet::new());
        }
    }
    // Phase 3: enumerate over the reduced sub-instance. (Dangling tuples
    // are gone, so backtracking on the reduced data does no wasted work in
    // the acyclic case.)
    let reduced: Instance = relations
        .iter()
        .zip(q.atoms.iter())
        .flat_map(|(rel, atom)| {
            rel.iter()
                .map(move |t| atom.ground(&t.iter().copied().collect::<HashMap<Var, Value>>()))
        })
        .collect();
    Some(crate::eval::evaluate_cq(q, &reduced))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::check_answer;
    use crate::parser::parse_cq;
    use gtgd_data::GroundAtom;

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    #[test]
    fn paths_and_stars_are_acyclic() {
        assert!(is_alpha_acyclic(
            &parse_cq("Q() :- E(X,Y), E(Y,Z), E(Z,W)").unwrap()
        ));
        assert!(is_alpha_acyclic(
            &parse_cq("Q() :- E(X,A), E(X,B), E(X,C)").unwrap()
        ));
    }

    #[test]
    fn triangle_is_cyclic_but_guarded_triangle_is_acyclic() {
        assert!(!is_alpha_acyclic(
            &parse_cq("Q() :- E(X,Y), E(Y,Z), E(Z,X)").unwrap()
        ));
        // With a guard atom covering all three, GYO succeeds (α-acyclicity
        // is not closed under subqueries — the classic example).
        assert!(is_alpha_acyclic(
            &parse_cq("Q() :- E(X,Y), E(Y,Z), E(Z,X), T(X,Y,Z)").unwrap()
        ));
    }

    #[test]
    fn yannakakis_agrees_with_backtracking() {
        let d = db(&[
            ("E", &["a", "b"]),
            ("E", &["b", "c"]),
            ("E", &["c", "a"]),
            ("P", &["b"]),
        ]);
        let q = parse_cq("Q(X) :- E(X,Y), P(Y)").unwrap();
        for v in ["a", "b", "c"] {
            let cand = vec![Value::named(v)];
            assert_eq!(
                check_answer_yannakakis(&q, &d, &cand),
                Some(check_answer(&q, &d, &cand)),
                "candidate {v}"
            );
        }
    }

    #[test]
    fn cyclic_queries_report_none() {
        let q = parse_cq("Q() :- E(X,Y), E(Y,Z), E(Z,X)").unwrap();
        assert_eq!(check_answer_yannakakis(&q, &Instance::new(), &[]), None);
    }

    #[test]
    fn semijoin_prunes_dangling_tuples() {
        // E(a,b) dangles: b has no P. Yannakakis must reject.
        let d = db(&[("E", &["a", "b"])]);
        let q = parse_cq("Q() :- E(X,Y), P(Y)").unwrap();
        assert_eq!(check_answer_yannakakis(&q, &d, &[]), Some(false));
    }

    #[test]
    fn disconnected_acyclic_query() {
        let d = db(&[("A", &["x"]), ("B", &["y"])]);
        let q = parse_cq("Q() :- A(U), B(V)").unwrap();
        assert_eq!(check_answer_yannakakis(&q, &d, &[]), Some(true));
        let d2 = db(&[("A", &["x"])]);
        assert_eq!(check_answer_yannakakis(&q, &d2, &[]), Some(false));
    }

    #[test]
    fn full_evaluation_matches_backtracking() {
        let d = db(&[
            ("E", &["a", "b"]),
            ("E", &["b", "c"]),
            ("E", &["c", "d"]),
            ("P", &["b"]),
            ("P", &["d"]),
        ]);
        let q = parse_cq("Q(X,Y) :- E(X,Y), P(Y)").unwrap();
        let yan = evaluate_yannakakis(&q, &d).expect("acyclic");
        let bt = crate::eval::evaluate_cq(&q, &d);
        assert_eq!(yan, bt);
        assert_eq!(yan.len(), 2);
    }

    #[test]
    fn full_evaluation_empty_when_no_match() {
        let d = db(&[("E", &["a", "b"])]);
        let q = parse_cq("Q(X) :- E(X,Y), P(Y)").unwrap();
        assert_eq!(evaluate_yannakakis(&q, &d), Some(HashSet::new()));
    }

    #[test]
    fn exhaustive_agreement_on_random_grid() {
        let mut atoms = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    atoms.push(("H", vec![format!("g{r}{c}"), format!("g{r}{}", c + 1)]));
                }
                if r + 1 < 3 {
                    atoms.push(("V", vec![format!("g{r}{c}"), format!("g{}{c}", r + 1)]));
                }
            }
        }
        let d = Instance::from_atoms(atoms.iter().map(|(p, args)| {
            GroundAtom::named(p, &args.iter().map(String::as_str).collect::<Vec<_>>())
        }));
        let q = parse_cq("Q(X) :- H(X,Y), V(Y,Z)").unwrap();
        for v in d.dom().to_vec() {
            assert_eq!(
                check_answer_yannakakis(&q, &d, &[v]),
                Some(check_answer(&q, &d, &[v]))
            );
        }
    }
}
