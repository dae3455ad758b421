//! CQ cores (Section 4): a ⊆-minimal equivalent subquery.
//!
//! The classic facts used throughout the paper: every CQ has a core, unique
//! up to isomorphism; `q ∈ CQ_k^≡` iff the core of `q` is in `CQ_k`
//! (Theorem 4.1's decidability footnote); and every homomorphism from a core
//! to itself that fixes the answer variables is injective.

use crate::compile::CompiledQuery;
use crate::cq::{Cq, Var};
use gtgd_data::Value;
use std::collections::{HashMap, HashSet};

/// Computes the core of `q`: a minimal retract equivalent to `q` (answer
/// variables fixed). The result is compacted.
pub fn core_of(q: &Cq) -> Cq {
    let mut current = q.compact();
    'outer: loop {
        let (db, frozen) = current.canonical_database();
        let plan =
            CompiledQuery::compile_with_extra(&current.atoms, current.answer_vars.iter().copied());
        let fixed: Vec<(usize, Value)> = current
            .answer_vars
            .iter()
            .map(|&v| {
                (
                    plan.slot_of(v).expect("answer vars are interned"),
                    frozen[&v],
                )
            })
            .collect();
        let vars = current.all_vars();
        for &drop in &vars {
            if current.answer_vars.contains(&drop) {
                continue;
            }
            // Retract onto the subinstance that avoids drop's frozen value.
            let allowed: HashSet<Value> = vars
                .iter()
                .filter(|&&v| v != drop)
                .map(|v| frozen[v])
                .collect();
            let found = plan
                .search(&db)
                .fix_slots(fixed.iter().copied())
                .restrict_images(&allowed)
                .first_row();
            if let Some(h) = found {
                // Fold variables along the retraction: v ↦ the variable whose
                // frozen value is h(v).
                let var_of: HashMap<Value, Var> = vars.iter().map(|&v| (frozen[&v], v)).collect();
                current = current
                    .map_vars(|v| var_of[&h[plan.slot_of(v).expect("query vars have slots")]])
                    .compact();
                continue 'outer;
            }
        }
        return current;
    }
}

/// Whether `q` is a core: every endomorphism fixing the answer variables is
/// surjective (equivalently: the core computation is a no-op).
pub fn is_core(q: &Cq) -> bool {
    core_of(q).all_vars().len() == q.all_vars().len() && core_of(q).atom_count() == q.atom_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::cq_equivalent;
    use crate::parser::parse_cq;

    #[test]
    fn path_folds_onto_edge() {
        // E(X,Y), E(Y,Z) has core E(X,Y)? No!  A 2-path's core is itself
        // (no endomorphism into a single edge unless the edge is a loop).
        let q = parse_cq("Q() :- E(X,Y), E(Y,Z)").unwrap();
        let c = core_of(&q);
        assert_eq!(c.atom_count(), 2);
    }

    #[test]
    fn disjoint_copies_fold() {
        // Two disjoint edges fold onto one.
        let q = parse_cq("Q() :- E(X,Y), E(Z,W)").unwrap();
        let c = core_of(&q);
        assert_eq!(c.atom_count(), 1);
        assert!(cq_equivalent(&q, &c));
    }

    #[test]
    fn loop_absorbs_path() {
        // A loop absorbs everything connected to nothing else.
        let q = parse_cq("Q() :- E(X,X), E(Y,Z), E(Z,W)").unwrap();
        let c = core_of(&q);
        assert_eq!(c.atom_count(), 1);
        assert_eq!(c.all_vars().len(), 1);
    }

    #[test]
    fn triangle_is_core() {
        let q = parse_cq("Q() :- E(X,Y), E(Y,Z), E(Z,X)").unwrap();
        assert!(is_core(&q));
    }

    #[test]
    fn answer_vars_are_fixed() {
        // With X free, E(X,Y) cannot fold away even alongside E(Z,W):
        // Z,W fold onto X,Y but X stays.
        let q = parse_cq("Q(X) :- E(X,Y), E(Z,W)").unwrap();
        let c = core_of(&q);
        assert_eq!(c.arity(), 1);
        assert_eq!(c.atom_count(), 1);
        assert!(cq_equivalent(&q, &c));
    }

    #[test]
    fn free_variables_block_folding() {
        // Both edges have a free endpoint: nothing folds.
        let q = parse_cq("Q(X,Z) :- E(X,Y), E(Z,W)").unwrap();
        let c = core_of(&q);
        assert_eq!(c.atom_count(), 2);
    }

    #[test]
    fn example_4_4_query_is_core() {
        // The paper's q in Example 4.4 is stated to be a core from CQ_2.
        let q = parse_cq(
            "Q() :- P(X2,X1), P(X4,X1), P(X2,X3), P(X4,X3), R1(X1), R2(X2), R3(X3), R4(X4)",
        )
        .unwrap();
        assert!(is_core(&q));
        assert_eq!(crate::tw::cq_treewidth(&q), 2);
    }

    #[test]
    fn core_is_equivalent_and_idempotent() {
        let q = parse_cq("Q() :- E(X,Y), E(Y,Z), E(Z,W), E(A,B)").unwrap();
        let c = core_of(&q);
        assert!(cq_equivalent(&q, &c));
        let cc = core_of(&c);
        assert_eq!(cc.atom_count(), c.atom_count());
    }
}
