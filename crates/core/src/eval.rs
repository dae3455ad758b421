//! Open-world OMQ evaluation (Section 3.1).
//!
//! By Prop 3.1, `Q(D) = q(chase(D, Σ))`. For guarded, constant-free Σ the
//! evaluator answers exactly with no depth bound: the UCQ compiles to piece
//! rules that the saturator closes alongside Σ
//! ([`gtgd_chase::piece_saturation`]), and a rewritten UCQ is evaluated
//! over the ground saturation — the FPT algorithm of Prop 3.3(3) when
//! `q ∈ UCQ_k`, where [`check_omq_fpt`] runs the candidate check through
//! the tree-decomposition DP of Prop 2.1. For other TGD classes it falls
//! back to a budgeted oblivious chase and reports whether the result is
//! exact.

use crate::omq::Omq;
use gtgd_chase::{chase, piece_saturation, ChaseBudget, Tgd, TgdClass};
use gtgd_data::{Instance, Value};
use gtgd_query::decomp_eval::check_answer_ucq_decomposed;
use gtgd_query::{evaluate_ucq, Ucq};
use std::collections::HashSet;

/// Evaluation configuration.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Budget for the fallback oblivious chase (non-guarded Σ).
    pub fallback_budget: ChaseBudget,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            fallback_budget: ChaseBudget {
                max_level: Some(16),
                max_atoms: Some(200_000),
            },
        }
    }
}

/// Certain answers, with an exactness flag: when `exact` is `false` the
/// fallback chase budget ran out before saturation and the answer set is a
/// (sound) under-approximation of `Q(D)`. It is always `true` for guarded,
/// constant-free Σ.
#[derive(Debug, Clone)]
pub struct OmqAnswers {
    /// The certain answers found (always sound).
    pub answers: HashSet<Vec<Value>>,
    /// Whether the set is provably complete.
    pub exact: bool,
}

/// The instance to evaluate over, the UCQ to evaluate there, and whether
/// its answers are exactly `Q(D)`: the piece saturation for guarded,
/// constant-free Σ, else the fallback chase with `q` itself.
fn materialize(q: &Omq, db: &Instance, cfg: &EvalConfig) -> (Instance, Ucq, bool) {
    if q.sigma.is_empty() {
        (db.clone(), q.query.clone(), true)
    } else if q.sigma_in(TgdClass::Guarded) && q.sigma.iter().all(Tgd::is_constant_free) {
        let p = piece_saturation(db, &q.sigma, &q.query);
        (p.instance, p.query, true)
    } else {
        let r = chase(db, &q.sigma, &cfg.fallback_budget);
        (r.instance, q.query.clone(), r.complete)
    }
}

/// `Q(D)`: the certain answers of the OMQ over an `S`-database (Prop 3.1).
/// Only tuples over `dom(D)` qualify as answers.
pub fn evaluate_omq(q: &Omq, db: &Instance, cfg: &EvalConfig) -> OmqAnswers {
    let (instance, query, exact) = materialize(q, db, cfg);
    let dom: HashSet<Value> = db.dom().into_iter().collect();
    let answers = evaluate_ucq(&query, &instance)
        .into_iter()
        .filter(|t| t.iter().all(|v| dom.contains(v)))
        .collect();
    OmqAnswers { answers, exact }
}

/// Decision form: `c̄ ∈ Q(D)`, by generic backtracking over the
/// materialized instance. Returns `(holds, exact)`.
pub fn check_omq(q: &Omq, db: &Instance, answer: &[Value], cfg: &EvalConfig) -> (bool, bool) {
    let (instance, query, exact) = materialize(q, db, cfg);
    let holds = gtgd_query::eval::check_answer_ucq(&query, &instance, answer);
    (holds, exact)
}

/// The FPT evaluation pipeline of Prop 3.3(3) for `(G, UCQ_k)`: the piece
/// saturation followed by the tree-decomposition DP of Prop 2.1 for the
/// candidate check. Returns `(holds, exact)`.
pub fn check_omq_fpt(q: &Omq, db: &Instance, answer: &[Value], cfg: &EvalConfig) -> (bool, bool) {
    let (instance, query, exact) = materialize(q, db, cfg);
    let holds = check_answer_ucq_decomposed(&query, &instance, answer);
    (holds, exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtgd_chase::parse_tgds;
    use gtgd_data::GroundAtom;
    use gtgd_query::parse_ucq;

    fn v(s: &str) -> Value {
        Value::named(s)
    }

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    #[test]
    fn ontology_derives_answers() {
        // Example 4.4's Σ: R2(x) → R4(x).
        let q = Omq::full_schema(
            parse_tgds("R2(X) -> R4(X)").unwrap(),
            parse_ucq("Q(X) :- R4(X)").unwrap(),
        );
        let d = db(&[("R2", &["a"]), ("R4", &["b"])]);
        let ans = evaluate_omq(&q, &d, &EvalConfig::default());
        assert!(ans.exact);
        assert_eq!(ans.answers.len(), 2);
        assert!(ans.answers.contains(&vec![v("a")]));
    }

    #[test]
    fn infinite_chase_answers_via_blocking() {
        let q = Omq::full_schema(
            parse_tgds("Person(X) -> Parent(X,Y), Person(Y)").unwrap(),
            parse_ucq("Q(X) :- Person(X), Parent(X,Y), Parent(Y,Z)").unwrap(),
        );
        let d = db(&[("Person", &["eve"])]);
        let ans = evaluate_omq(&q, &d, &EvalConfig::default());
        assert!(ans.exact, "adaptive blocking should saturate");
        assert_eq!(ans.answers, HashSet::from([vec![v("eve")]]));
    }

    #[test]
    fn answers_restricted_to_database_domain() {
        // The chase invents parents, but only eve is in dom(D).
        let q = Omq::full_schema(
            parse_tgds("Person(X) -> Parent(X,Y), Person(Y)").unwrap(),
            parse_ucq("Q(X) :- Person(X)").unwrap(),
        );
        let d = db(&[("Person", &["eve"])]);
        let ans = evaluate_omq(&q, &d, &EvalConfig::default());
        assert_eq!(ans.answers.len(), 1);
    }

    #[test]
    fn fpt_and_generic_checks_agree() {
        let q = Omq::full_schema(
            parse_tgds("Dept(D) -> HasMgr(D,M), Emp(M). Emp(M) -> WorksIn(M,D2), Dept(D2)")
                .unwrap(),
            parse_ucq("Q(D) :- HasMgr(D,M), WorksIn(M,D2), HasMgr(D2,M2)").unwrap(),
        );
        let d = db(&[("Dept", &["sales"])]);
        let cfg = EvalConfig::default();
        let (a, ea) = check_omq(&q, &d, &[v("sales")], &cfg);
        let (b, eb) = check_omq_fpt(&q, &d, &[v("sales")], &cfg);
        assert_eq!(a, b);
        assert!(ea && eb);
        assert!(a, "the guarded ontology entails the 2-hop pattern");
    }

    #[test]
    fn non_guarded_fallback_reports_exactness() {
        // A frontier-guarded, weakly acyclic set: fallback chase terminates.
        let q = Omq::full_schema(
            parse_tgds("R(X,Y), S(Y,Z) -> T(X)").unwrap(),
            parse_ucq("Q(X) :- T(X)").unwrap(),
        );
        let d = db(&[("R", &["a", "b"]), ("S", &["b", "c"])]);
        let ans = evaluate_omq(&q, &d, &EvalConfig::default());
        assert!(ans.exact);
        assert_eq!(ans.answers, HashSet::from([vec![v("a")]]));
    }

    #[test]
    fn empty_sigma_is_plain_evaluation() {
        let q = Omq::full_schema(vec![], parse_ucq("Q(X) :- E(X,Y)").unwrap());
        let d = db(&[("E", &["a", "b"])]);
        let ans = evaluate_omq(&q, &d, &EvalConfig::default());
        assert!(ans.exact);
        assert_eq!(ans.answers.len(), 1);
    }

    #[test]
    fn boolean_omq() {
        let q = Omq::full_schema(
            parse_tgds("A(X) -> B(X)").unwrap(),
            parse_ucq("Q() :- B(X)").unwrap(),
        );
        let (holds, exact) = check_omq(&q, &db(&[("A", &["a"])]), &[], &EvalConfig::default());
        assert!(holds && exact);
        let (holds, _) = check_omq(&q, &db(&[("C", &["a"])]), &[], &EvalConfig::default());
        assert!(!holds);
    }
}
