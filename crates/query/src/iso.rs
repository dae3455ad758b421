//! CQ isomorphism: exact structural equality up to variable renaming.
//! Stronger than the structural `dedup_key` (which is atom-order-sensitive
//! only up to the compaction heuristic) and cheaper than full equivalence;
//! used to deduplicate rewriting and approximation outputs.

use crate::compile::CompiledQuery;
use crate::cq::{Cq, Term, Var};
use crate::hom::instance_as_atoms;
use gtgd_data::Instance;
use std::collections::HashMap;

/// Whether two instances are isomorphic *over the named constants*: equal
/// up to a bijective renaming of nulls, with every named constant mapped to
/// itself. This is the right equivalence for comparing chase results, where
/// null identities are an artifact of trigger-firing order (e.g. sequential
/// vs parallel runs) but database constants are shared.
pub fn instance_isomorphic(a: &Instance, b: &Instance) -> bool {
    if a.len() != b.len() || a.dom().len() != b.dom().len() {
        return false;
    }
    let (atoms, var_of) = instance_as_atoms(a);
    let plan = CompiledQuery::compile(&atoms);
    let fixed = var_of
        .iter()
        .filter(|(v, _)| v.is_named())
        .map(|(&val, &var)| {
            (
                plan.slot_of(var).expect("domain values occur in atoms"),
                val,
            )
        });
    // An injective hom fixing the constants maps distinct atoms to distinct
    // atoms; with equal atom counts it is onto, hence an isomorphism.
    plan.search(b).fix_slots(fixed).injective().exists()
}

/// Whether `q1` and `q2` are isomorphic: a bijection on variables mapping
/// the atom set of one onto the other and the answer tuple pointwise.
pub fn cq_isomorphic(q1: &Cq, q2: &Cq) -> bool {
    if q1.arity() != q2.arity()
        || q1.atom_count() != q2.atom_count()
        || q1.all_vars().len() != q2.all_vars().len()
    {
        return false;
    }
    // Backtracking over an atom matching that induces the bijection.
    let mut var_map: HashMap<Var, Var> = HashMap::new();
    let mut used_vars: HashMap<Var, Var> = HashMap::new(); // inverse
                                                           // Seed: answer variables map pointwise.
    for (&a, &b) in q1.answer_vars.iter().zip(q2.answer_vars.iter()) {
        if let Some(&prev) = var_map.get(&a) {
            if prev != b {
                return false;
            }
        }
        if let Some(&prev) = used_vars.get(&b) {
            if prev != a {
                return false;
            }
        }
        var_map.insert(a, b);
        used_vars.insert(b, a);
    }
    let mut used_atoms = vec![false; q2.atoms.len()];
    match_atoms(q1, q2, 0, &mut var_map, &mut used_vars, &mut used_atoms)
}

fn match_atoms(
    q1: &Cq,
    q2: &Cq,
    i: usize,
    var_map: &mut HashMap<Var, Var>,
    used_vars: &mut HashMap<Var, Var>,
    used_atoms: &mut Vec<bool>,
) -> bool {
    if i == q1.atoms.len() {
        return true;
    }
    let a = &q1.atoms[i];
    for j in 0..q2.atoms.len() {
        if used_atoms[j] {
            continue;
        }
        let b = &q2.atoms[j];
        if a.predicate != b.predicate || a.args.len() != b.args.len() {
            continue;
        }
        // Try to extend the bijection along this atom pair.
        let mut added: Vec<(Var, Var)> = Vec::new();
        let mut ok = true;
        for (ta, tb) in a.args.iter().zip(b.args.iter()) {
            match (*ta, *tb) {
                (Term::Const(ca), Term::Const(cb)) => {
                    if ca != cb {
                        ok = false;
                        break;
                    }
                }
                (Term::Var(va), Term::Var(vb)) => match (var_map.get(&va), used_vars.get(&vb)) {
                    (Some(&img), _) if img != vb => {
                        ok = false;
                        break;
                    }
                    (_, Some(&pre)) if pre != va => {
                        ok = false;
                        break;
                    }
                    (Some(_), Some(_)) => {}
                    _ => {
                        var_map.insert(va, vb);
                        used_vars.insert(vb, va);
                        added.push((va, vb));
                    }
                },
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            used_atoms[j] = true;
            if match_atoms(q1, q2, i + 1, var_map, used_vars, used_atoms) {
                return true;
            }
            used_atoms[j] = false;
        }
        for (va, vb) in added {
            var_map.remove(&va);
            used_vars.remove(&vb);
        }
    }
    false
}

/// Deduplicates a list of CQs up to isomorphism (keeps first occurrences).
pub fn dedup_isomorphic(cqs: Vec<Cq>) -> Vec<Cq> {
    let mut out: Vec<Cq> = Vec::new();
    for q in cqs {
        if !out.iter().any(|kept| cq_isomorphic(kept, &q)) {
            out.push(q);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_cq;
    use gtgd_data::Value;

    #[test]
    fn renamed_queries_are_isomorphic() {
        let q1 = parse_cq("Q(X) :- E(X,Y), E(Y,Z)").unwrap();
        let q2 = parse_cq("Q(A) :- E(B,C), E(A,B)").unwrap();
        assert!(cq_isomorphic(&q1, &q2));
    }

    #[test]
    fn different_shapes_are_not() {
        let path = parse_cq("Q() :- E(X,Y), E(Y,Z)").unwrap();
        let fork = parse_cq("Q() :- E(X,Y), E(X,Z)").unwrap();
        assert!(!cq_isomorphic(&path, &fork));
    }

    #[test]
    fn answer_variables_anchor_the_bijection() {
        let q1 = parse_cq("Q(X) :- E(X,Y)").unwrap();
        let q2 = parse_cq("Q(Y) :- E(X,Y)").unwrap();
        assert!(!cq_isomorphic(&q1, &q2));
        let q3 = parse_cq("Q(A) :- E(A,B)").unwrap();
        assert!(cq_isomorphic(&q1, &q3));
    }

    #[test]
    fn constants_must_match_exactly() {
        let q1 = parse_cq("Q() :- E(a, X)").unwrap();
        let q2 = parse_cq("Q() :- E(b, X)").unwrap();
        assert!(!cq_isomorphic(&q1, &q2));
        let q3 = parse_cq("Q() :- E(a, Y)").unwrap();
        assert!(cq_isomorphic(&q1, &q3));
    }

    #[test]
    fn symmetric_queries_need_backtracking() {
        // Two triangles that differ only in traversal order.
        let t1 = parse_cq("Q() :- E(X,Y), E(Y,Z), E(Z,X)").unwrap();
        let t2 = parse_cq("Q() :- E(C,A), E(A,B), E(B,C)").unwrap();
        assert!(cq_isomorphic(&t1, &t2));
    }

    #[test]
    fn instances_isomorphic_up_to_null_renaming() {
        use gtgd_data::GroundAtom;
        let n1 = Value::fresh_null();
        let n2 = Value::fresh_null();
        let m1 = Value::fresh_null();
        let m2 = Value::fresh_null();
        let a = Instance::from_atoms([
            GroundAtom::new(gtgd_data::Predicate::new("R"), vec![Value::named("c"), n1]),
            GroundAtom::new(gtgd_data::Predicate::new("R"), vec![n1, n2]),
        ]);
        let b = Instance::from_atoms([
            GroundAtom::new(gtgd_data::Predicate::new("R"), vec![Value::named("c"), m1]),
            GroundAtom::new(gtgd_data::Predicate::new("R"), vec![m1, m2]),
        ]);
        assert!(instance_isomorphic(&a, &b));
        // Collapsing the two nulls breaks the bijection.
        let c = Instance::from_atoms([
            GroundAtom::new(gtgd_data::Predicate::new("R"), vec![Value::named("c"), m1]),
            GroundAtom::new(gtgd_data::Predicate::new("R"), vec![m1, m1]),
        ]);
        assert!(!instance_isomorphic(&a, &c));
    }

    #[test]
    fn instance_isomorphism_fixes_named_constants() {
        use gtgd_data::GroundAtom;
        // Same shape but different constants: NOT isomorphic over constants.
        let a = Instance::from_atoms([GroundAtom::named("R", &["a", "b"])]);
        let b = Instance::from_atoms([GroundAtom::named("R", &["b", "a"])]);
        assert!(!instance_isomorphic(&a, &b));
        assert!(instance_isomorphic(&a, &a));
        // Different atom counts short-circuit.
        let mut bigger = a.clone();
        bigger.insert(GroundAtom::named("R", &["b", "b"]));
        assert!(!instance_isomorphic(&a, &bigger));
    }

    #[test]
    fn dedup_keeps_one_per_class() {
        let qs = vec![
            parse_cq("Q() :- E(X,Y)").unwrap(),
            parse_cq("Q() :- E(A,B)").unwrap(),
            parse_cq("Q() :- E(X,X)").unwrap(),
        ];
        assert_eq!(dedup_isomorphic(qs).len(), 2);
    }
}
