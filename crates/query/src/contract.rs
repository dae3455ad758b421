//! Contractions and specializations of CQs (Section 4.2 / Appendix C.1).
//!
//! A *contraction* of `q(x̄)` identifies variables; identifying an answer
//! variable `x` with a non-answer variable `y` yields `x`, and identifying
//! two answer variables is not allowed. A *specialization* of `q` is a pair
//! `(p, V)` with `p` a contraction and `x̄ ⊆ V ⊆ var(p)` (Definition C.1).

use crate::compile::CompiledQuery;
use crate::cq::{Cq, Var};
use gtgd_data::{Instance, Value};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::ControlFlow;

/// Safety cap on contraction enumeration: the number of contractions is the
/// Bell number of the variable count, so we refuse to enumerate beyond this
/// many variables rather than silently hang.
pub const MAX_CONTRACTION_VARS: usize = 12;

/// Merges variable `from` into variable `into` (the pair must be mergeable:
/// not both answer variables). Returns the contracted CQ (not compacted).
pub fn merge_vars(q: &Cq, into: Var, from: Var) -> Cq {
    let into_ans = q.answer_vars.contains(&into);
    let from_ans = q.answer_vars.contains(&from);
    assert!(
        !(into_ans && from_ans) || into == from,
        "cannot identify two answer variables"
    );
    // The representative must be the answer variable if one is involved.
    let (keep, drop) = if from_ans && !into_ans {
        (from, into)
    } else {
        (into, from)
    };
    q.map_vars(|v| if v == drop { keep } else { v })
}

/// All contractions of `q`, including `q` itself, deduplicated by structural
/// key and compacted. Panics if `q` has more than [`MAX_CONTRACTION_VARS`]
/// variables.
pub fn contractions(q: &Cq) -> Vec<Cq> {
    let vars = q.all_vars();
    assert!(
        vars.len() <= MAX_CONTRACTION_VARS,
        "refusing to enumerate contractions of a CQ with {} variables (cap {})",
        vars.len(),
        MAX_CONTRACTION_VARS
    );
    let answer: HashSet<Var> = q.answer_vars.iter().copied().collect();
    // Enumerate set partitions with at most one answer variable per class.
    let mut results: Vec<Cq> = Vec::new();
    let mut seen: HashSet<(Vec<crate::cq::QAtom>, Vec<Var>)> = HashSet::new();
    let mut classes: Vec<Vec<Var>> = Vec::new();
    partition_rec(&vars, 0, &answer, &mut classes, &mut |classes| {
        let mut remap: HashMap<Var, Var> = HashMap::new();
        for class in classes {
            // Representative: the answer variable if present, else the first.
            let rep = class
                .iter()
                .copied()
                .find(|v| answer.contains(v))
                .unwrap_or(class[0]);
            for &v in class {
                remap.insert(v, rep);
            }
        }
        let contracted = q.map_vars(|v| remap[&v]).compact();
        if seen.insert(contracted.dedup_key()) {
            results.push(contracted);
        }
    });
    results
}

fn partition_rec(
    vars: &[Var],
    i: usize,
    answer: &HashSet<Var>,
    classes: &mut Vec<Vec<Var>>,
    emit: &mut impl FnMut(&[Vec<Var>]),
) {
    if i == vars.len() {
        emit(classes);
        return;
    }
    let v = vars[i];
    let v_is_answer = answer.contains(&v);
    for ci in 0..classes.len() {
        if v_is_answer && classes[ci].iter().any(|u| answer.contains(u)) {
            continue; // two answer variables may not be identified
        }
        classes[ci].push(v);
        partition_rec(vars, i + 1, answer, classes, emit);
        classes[ci].pop();
    }
    classes.push(vec![v]);
    partition_rec(vars, i + 1, answer, classes, emit);
    classes.pop();
}

/// Lemma D.3: if `I |= q(ā)` (with `ā` distinct constants), some
/// contraction `q_c` of `q` satisfies `I |=io q_c(ā)` — witnessed here by
/// returning such a contraction, or `None` when `ā ∉ q(I)`.
pub fn injective_contraction(q: &Cq, i: &Instance, answer: &[Value]) -> Option<Cq> {
    // Take any witnessing homomorphism and contract variables that share an
    // image; the induced match of the contraction is injective. Repeat on
    // the contraction until a |=io witness emerges (termination: variable
    // count strictly decreases).
    let mut seen_answers = HashSet::new();
    assert!(
        answer.iter().all(|&c| seen_answers.insert(c)),
        "Lemma D.3 requires a tuple of distinct constants"
    );
    let mut current = q.compact();
    loop {
        let plan =
            CompiledQuery::compile_with_extra(&current.atoms, current.answer_vars.iter().copied());
        let slot = |v: Var| plan.slot_of(v).expect("query vars are interned");
        let search = || {
            plan.search(i).fix_slots(
                current
                    .answer_vars
                    .iter()
                    .map(|&v| slot(v))
                    .zip(answer.iter().copied()),
            )
        };
        // Group variables by their image under a witnessing row.
        let group = |row: &[Value]| {
            let mut by_image: HashMap<Value, Vec<Var>> = HashMap::new();
            for v in current.all_vars() {
                by_image.entry(row[slot(v)]).or_default().push(v);
            }
            by_image
        };
        let mut by_image = group(&search().first_row()?);
        if by_image.values().all(|vs| vs.len() == 1) {
            if crate::eval::holds_injectively_only(&current, i, answer) {
                return Some(current);
            }
            // Some *other* witness is non-injective: contract along it.
            // The row's slots are the query's variables, so it is
            // non-injective iff two of its values coincide.
            let mut found: Option<Vec<Value>> = None;
            search().for_each_row(|row| {
                let mut seen = HashSet::new();
                if row.iter().any(|&x| !seen.insert(x)) {
                    found = Some(row.to_vec());
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            by_image = group(&found.expect("a non-injective witness exists"));
        }
        // Contract each image class onto one representative.
        let mut remap: HashMap<Var, Var> = HashMap::new();
        let answer_set: HashSet<Var> = current.answer_vars.iter().copied().collect();
        for vs in by_image.values() {
            let rep = vs
                .iter()
                .copied()
                .find(|v| answer_set.contains(v))
                .unwrap_or(vs[0]);
            for &v in vs {
                remap.insert(v, rep);
            }
        }
        current = current.map_vars(|v| remap[&v]).compact();
    }
}

/// A specialization `(p, V)` of a CQ (Definition C.1): `p` is a contraction
/// and `V` contains all answer variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Specialization {
    /// The contraction `p`.
    pub cq: Cq,
    /// The chosen variable set `V` (`x̄ ⊆ V ⊆ var(p)`).
    pub v: BTreeSet<Var>,
}

/// All specializations of `q`: every contraction paired with every superset
/// `V` of the answer variables. Exponential; intended for the small queries
/// inside OMQs, as in the paper's constructions.
pub fn specializations(q: &Cq) -> Vec<Specialization> {
    let mut out = Vec::new();
    for p in contractions(q) {
        let answer: BTreeSet<Var> = p.answer_vars.iter().copied().collect();
        let optional: Vec<Var> = p
            .all_vars()
            .into_iter()
            .filter(|v| !answer.contains(v))
            .collect();
        // Every subset of the optional variables.
        let m = optional.len();
        assert!(m < usize::BITS as usize, "too many variables");
        for mask in 0..(1usize << m) {
            let mut v = answer.clone();
            for (bit, &ov) in optional.iter().enumerate() {
                if mask >> bit & 1 == 1 {
                    v.insert(ov);
                }
            }
            out.push(Specialization { cq: p.clone(), v });
        }
    }
    out
}

/// The atoms of `q[V]`: atoms **not** contained in `q|V`, i.e. atoms that
/// mention at least one variable outside `V` (Appendix C.1). Returned as
/// atom indexes into `q.atoms`.
pub fn atoms_outside(q: &Cq, v: &BTreeSet<Var>) -> Vec<usize> {
    (0..q.atoms.len())
        .filter(|&i| q.atoms[i].vars().iter().any(|x| !v.contains(x)))
        .collect()
}

/// The atoms of `q|V`: atoms whose variables all lie in `V`.
pub fn atoms_within(q: &Cq, v: &BTreeSet<Var>) -> Vec<usize> {
    (0..q.atoms.len())
        .filter(|&i| q.atoms[i].vars().iter().all(|x| v.contains(x)))
        .collect()
}

/// The maximally `[V]`-connected components of `q[V]` (Appendix C.1): group
/// the atoms of `q[V]` by connectivity of their variables **outside** `V` in
/// the Gaifman graph restricted to `var(q) \ V`. Returns groups of atom
/// indexes.
pub fn v_components(q: &Cq, v: &BTreeSet<Var>) -> Vec<Vec<usize>> {
    let outside_atoms = atoms_outside(q, v);
    // Union-find over outside variables.
    let outside_vars: Vec<Var> = q
        .all_vars()
        .into_iter()
        .filter(|x| !v.contains(x))
        .collect();
    let idx_of: HashMap<Var, usize> = outside_vars
        .iter()
        .enumerate()
        .map(|(i, &x)| (x, i))
        .collect();
    let mut parent: Vec<usize> = (0..outside_vars.len()).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
        }
        parent[i]
    }
    for &ai in &outside_atoms {
        let outs: Vec<usize> = q.atoms[ai]
            .vars()
            .into_iter()
            .filter_map(|x| idx_of.get(&x).copied())
            .collect();
        for w in outs.windows(2) {
            let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
            parent[a] = b;
        }
    }
    // Group atoms by the root of any of their outside variables.
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for &ai in &outside_atoms {
        let root = q.atoms[ai]
            .vars()
            .into_iter()
            .find_map(|x| idx_of.get(&x).copied())
            .map(|i| find(&mut parent, i))
            .expect("atom outside V has an outside variable");
        groups.entry(root).or_default().push(ai);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_cq;

    #[test]
    fn merge_respects_answer_priority() {
        let q = parse_cq("Q(X) :- R(X,Y)").unwrap();
        let x = q.answer_vars[0];
        let y = q.all_vars().into_iter().find(|&v| v != x).unwrap();
        // Merging the answer variable "into" y must still keep x.
        let m = merge_vars(&q, y, x);
        assert_eq!(m.answer_vars, vec![x]);
        assert!(m.atoms[0].mentions(x));
        assert!(!m.atoms[0].mentions(y));
    }

    #[test]
    #[should_panic(expected = "two answer variables")]
    fn merging_two_answer_vars_panics() {
        let q = parse_cq("Q(X,Y) :- R(X,Y)").unwrap();
        merge_vars(&q, q.answer_vars[0], q.answer_vars[1]);
    }

    #[test]
    fn contraction_counts_boolean() {
        // 3 variables, no answer vars: Bell(3) = 5 partitions, but some
        // contractions coincide structurally after dedup.
        let q = parse_cq("Q() :- E(X,Y), E(Y,Z)").unwrap();
        let cs = contractions(&q);
        // Partitions: {x}{y}{z}, {xy}{z}, {xz}{y}, {x}{yz}, {xyz}.
        // {xy}{z} gives E(x,x),E(x,z); {x}{yz} gives E(x,y),E(y,y) — distinct.
        assert_eq!(cs.len(), 5);
        assert!(cs.iter().any(|c| c.atom_count() == 1)); // full collapse E(x,x)
    }

    #[test]
    fn contractions_respect_answer_vars() {
        let q = parse_cq("Q(X,Y) :- E(X,Y), E(Y,Z)").unwrap();
        let cs = contractions(&q);
        // Z can merge into X or Y or stay: 3 partitions (X,Y never merge).
        assert_eq!(cs.len(), 3);
        for c in &cs {
            assert_eq!(c.arity(), 2);
        }
    }

    #[test]
    fn specialization_counts() {
        let q = parse_cq("Q() :- E(X,Y)").unwrap();
        // Contractions: {x}{y} -> E(x,y); {xy} -> E(x,x).
        // First has 2^2 V-choices, second 2^1.
        assert_eq!(specializations(&q).len(), 6);
    }

    #[test]
    fn v_components_split_correctly() {
        // E(X,Y), E(Y,Z), F(A,B): with V = {Y}, components of q[V] are
        // {E(X,Y)}, {E(Y,Z)} (X and Z separated by Y) and {F(A,B)}.
        let q = parse_cq("Q() :- E(X,Y), E(Y,Z), F(A,B)").unwrap();
        let vars = q.all_vars();
        let y = vars
            .iter()
            .copied()
            .find(|&v| q.var_name(v) == "Y")
            .unwrap();
        let v: BTreeSet<Var> = [y].into_iter().collect();
        let comps = v_components(&q, &v);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn v_components_with_full_v_are_empty() {
        let q = parse_cq("Q() :- E(X,Y)").unwrap();
        let v: BTreeSet<Var> = q.all_vars().into_iter().collect();
        assert!(v_components(&q, &v).is_empty());
        assert_eq!(atoms_within(&q, &v), vec![0]);
        assert!(atoms_outside(&q, &v).is_empty());
    }

    #[test]
    fn atoms_partition_by_v() {
        let q = parse_cq("Q() :- E(X,Y), P(X)").unwrap();
        let x = q
            .all_vars()
            .into_iter()
            .find(|&v| q.var_name(v) == "X")
            .unwrap();
        let v: BTreeSet<Var> = [x].into_iter().collect();
        assert_eq!(atoms_within(&q, &v), vec![1]);
        assert_eq!(atoms_outside(&q, &v), vec![0]);
    }

    #[test]
    #[should_panic(expected = "refusing to enumerate")]
    fn contraction_cap_enforced() {
        // 13 variables exceeds the cap.
        let atoms: Vec<String> = (0..13).map(|i| format!("P(V{i})")).collect();
        let q = parse_cq(&format!("Q() :- {}", atoms.join(", "))).unwrap();
        contractions(&q);
    }
}
