//! CQ and UCQ evaluation over instances (the problem of Section 2), plus the
//! injectively-only satisfaction check `|=io` from Appendix D.
//!
//! Every function here is a short call of the [`Engine`] facade
//! (`Engine::prepare(&q)` and one of its evaluation paths) or of the
//! compiled kernel ([`crate::compile`]): answer projection reads slots out
//! of the kernel's flat rows, so no per-witness `HashMap` is ever built.
//! Parallel evaluation is `Engine::prepare(&q).parallel(width)`.

use crate::compile::CompiledQuery;
use crate::cq::{Cq, Ucq};
use crate::engine::Engine;
use gtgd_data::{Instance, Value};
use std::collections::HashSet;
use std::ops::ControlFlow;

/// `q(I)`: the set of answers to `q` over `I`: `Engine::prepare(q).answers(i)`.
pub fn evaluate_cq(q: &Cq, i: &Instance) -> HashSet<Vec<Value>> {
    Engine::prepare(q).answers(i)
}

/// Whether `c̄ ∈ q(I)` (the evaluation problem's decision form):
/// `Engine::prepare(q).check(i, answer)`.
pub fn check_answer(q: &Cq, i: &Instance, answer: &[Value]) -> bool {
    Engine::prepare(q).check(i, answer)
}

/// Whether a Boolean CQ holds: `I |= q`.
pub fn holds_boolean(q: &Cq, i: &Instance) -> bool {
    assert!(q.is_boolean(), "holds_boolean requires a Boolean CQ");
    CompiledQuery::compile(&q.atoms).search(i).exists()
}

/// `q(I)` for a UCQ: the union of the disjuncts' answers.
pub fn evaluate_ucq(q: &Ucq, i: &Instance) -> HashSet<Vec<Value>> {
    let mut out = HashSet::new();
    for d in &q.disjuncts {
        out.extend(evaluate_cq(d, i));
    }
    out
}

/// Whether `c̄ ∈ q(I)` for a UCQ.
pub fn check_answer_ucq(q: &Ucq, i: &Instance, answer: &[Value]) -> bool {
    q.disjuncts.iter().any(|d| check_answer(d, i, answer))
}

/// Whether a Boolean UCQ holds.
pub fn ucq_holds_boolean(q: &Ucq, i: &Instance) -> bool {
    q.disjuncts.iter().any(|d| holds_boolean(d, i))
}

/// `I |=io q(c̄)` (Appendix D): `c̄ ∈ q(I)` **and** every witnessing
/// homomorphism is injective. Used by the lower-bound machinery, where
/// candidate answers are tuples of distinct constants.
pub fn holds_injectively_only(q: &Cq, i: &Instance, answer: &[Value]) -> bool {
    let mut any = false;
    let mut all_injective = true;
    let mut seen: HashSet<Value> = HashSet::new();
    Engine::prepare(q)
        .answer_search(i, answer)
        .for_each_row(|row| {
            any = true;
            // Slots are distinct variables, so a row is injective iff its
            // values are pairwise distinct.
            seen.clear();
            if row.iter().any(|&v| !seen.insert(v)) {
                all_injective = false;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
    any && all_injective
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_cq, parse_ucq};
    use gtgd_data::GroundAtom;

    fn v(s: &str) -> Value {
        Value::named(s)
    }

    fn cycle_db(n: usize) -> Instance {
        let names: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
        Instance::from_atoms(
            (0..n)
                .map(|i| GroundAtom::named("E", &[names[i].as_str(), names[(i + 1) % n].as_str()])),
        )
    }

    #[test]
    fn unary_answers() {
        let q = parse_cq("Q(X) :- E(X,Y)").unwrap();
        let ans = evaluate_cq(&q, &cycle_db(3));
        assert_eq!(ans.len(), 3);
        assert!(ans.contains(&vec![v("c0")]));
    }

    #[test]
    fn binary_answers_and_check() {
        let q = parse_cq("Q(X,Z) :- E(X,Y), E(Y,Z)").unwrap();
        let db = cycle_db(4);
        let ans = evaluate_cq(&q, &db);
        assert_eq!(ans.len(), 4);
        assert!(check_answer(&q, &db, &[v("c0"), v("c2")]));
        assert!(!check_answer(&q, &db, &[v("c0"), v("c1")]));
    }

    #[test]
    fn boolean_cq() {
        let q = parse_cq("Q() :- E(X,X)").unwrap();
        assert!(!holds_boolean(&q, &cycle_db(3)));
        let loop_db = Instance::from_atoms([GroundAtom::named("E", &["a", "a"])]);
        assert!(holds_boolean(&q, &loop_db));
    }

    #[test]
    fn ucq_union_semantics() {
        let u = parse_ucq("Q(X) :- A(X). Q(X) :- B(X)").unwrap();
        let db = Instance::from_atoms([
            GroundAtom::named("A", &["a"]),
            GroundAtom::named("B", &["b"]),
        ]);
        let ans = evaluate_ucq(&u, &db);
        assert_eq!(ans.len(), 2);
        assert!(ucq_holds_boolean(
            &parse_ucq("Q() :- A(X). Q() :- C(X)").unwrap(),
            &db
        ));
        assert!(!ucq_holds_boolean(
            &parse_ucq("Q() :- C(X). Q() :- D(X)").unwrap(),
            &db
        ));
    }

    #[test]
    fn empty_database_no_answers() {
        let q = parse_cq("Q(X) :- E(X,Y)").unwrap();
        assert!(evaluate_cq(&q, &Instance::new()).is_empty());
    }

    #[test]
    fn injectively_only_detection() {
        // On a 3-cycle, the 2-path query has only injective witnesses from c0.
        let q = parse_cq("Q(X) :- E(X,Y), E(Y,Z)").unwrap();
        let db = cycle_db(3);
        assert!(holds_injectively_only(&q, &db, &[v("c0")]));
        // Add a loop at c0: now E(c0,c0),E(c0,c0) is a non-injective witness.
        let mut db2 = db.clone();
        db2.insert(GroundAtom::named("E", &["c0", "c0"]));
        assert!(!holds_injectively_only(&q, &db2, &[v("c0")]));
        // And a tuple with no witness at all is not |=io.
        let empty = Instance::new();
        assert!(!holds_injectively_only(&q, &empty, &[v("c0")]));
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn arity_mismatch_panics() {
        let q = parse_cq("Q(X) :- E(X,Y)").unwrap();
        check_answer(&q, &Instance::new(), &[]);
    }
}
