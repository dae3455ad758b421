//! The *restricted* (standard) chase: fires a trigger only when its head is
//! not already satisfied.
//!
//! The paper works with the oblivious chase (every chase sequence yields the
//! same result, levels are canonical). The restricted chase produces smaller
//! results — often finite where the oblivious chase is infinite — at the
//! cost of order dependence. Both compute universal models, so certain
//! answers agree wherever both terminate; the ablation experiment E9 and
//! several tests cross-check the two engines.
//!
//! The restricted chase runs on the oblivious engine's round loop
//! (`ObliviousChase::run` with [`ChaseVariant::Restricted`]),
//! breadth-first: each round finds its triggers by the same exact
//! semi-naive discovery, against the instance as it stood before the
//! round, then fires them in discovery order, each only if its head is
//! not satisfied by the live instance, and inserts the products at once.
//! Checking against the live instance is sound because satisfaction is
//! monotone under instance growth: a trigger found satisfied stays
//! satisfied. Every trigger active in a round fires or is found satisfied
//! in that round, so the sequence is fair. A firing's level is its round,
//! which is also its derivation depth, so a level budget cuts each
//! derivation chain at depth `max`. The run returns the oblivious chase's
//! [`ChaseResult`] with every field filled: `levels` holds those rounds
//! and `fired` the firings that passed the head check. The historical implementation
//! restarted a full trigger scan over all TGDs and all body homomorphisms
//! after *every* firing, which is quadratic in the number of firings (the
//! E9 ablation measures the difference).

use crate::engine::{ChaseBudget, ChaseResult};
use crate::runner::{ChaseRunner, ChaseVariant};
use crate::tgd::Tgd;
use gtgd_data::Instance;

/// Runs the restricted chase in breadth-first rounds: each round fires,
/// in discovery order, the triggers found over the previous round's atoms
/// whose heads are not yet satisfied. Deterministic: discovery scans
/// (TGD, pinned atom, delta atom) in a fixed order.
pub fn restricted_chase(db: &Instance, tgds: &[Tgd], budget: &ChaseBudget) -> ChaseResult {
    ChaseRunner::new(tgds)
        .variant(ChaseVariant::Restricted)
        .budget(*budget)
        .run(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::chase;
    use crate::tgd::{parse_tgds, satisfies_all};
    use gtgd_data::GroundAtom;
    use gtgd_query::{evaluate_cq, parse_cq};

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    #[test]
    fn restricted_skips_satisfied_triggers() {
        // D already satisfies the TGD: restricted fires nothing, oblivious
        // invents a null anyway.
        let tgds = parse_tgds("P(X) -> R(X,Y)").unwrap();
        let d = db(&[("P", &["a"]), ("R", &["a", "b"])]);
        let r = restricted_chase(&d, &tgds, &ChaseBudget::unbounded());
        assert!(r.complete);
        assert_eq!(r.fired, 0);
        assert_eq!(r.instance.len(), 2);
        let o = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert_eq!(o.instance.len(), 3);
    }

    #[test]
    fn restricted_terminates_where_oblivious_does_not() {
        // Person(x) → ∃y Parent(x,y), Person(y): with a pre-existing
        // parent loop the restricted chase is finite.
        let tgds = parse_tgds("Person(X) -> Parent(X,Y), Person(Y)").unwrap();
        let d = db(&[("Person", &["eve"]), ("Parent", &["eve", "eve"])]);
        let r = restricted_chase(&d, &tgds, &ChaseBudget::atoms(100));
        assert!(r.complete, "the loop satisfies the TGD");
        assert!(satisfies_all(&r.instance, &tgds));
        let o = chase(&d, &tgds, &ChaseBudget::atoms(100));
        assert!(!o.complete, "the oblivious chase keeps inventing parents");
    }

    #[test]
    fn certain_answers_agree_when_both_terminate() {
        let tgds = parse_tgds("A(X) -> R(X,Y). R(X,Y) -> B(Y)").unwrap();
        let d = db(&[("A", &["a"]), ("A", &["b"])]);
        let r = restricted_chase(&d, &tgds, &ChaseBudget::unbounded());
        let o = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert!(r.complete && o.complete);
        let q = parse_cq("Q(X) :- A(X), R(X,Y), B(Y)").unwrap();
        // Answers over dom(D) agree (both are universal models).
        let ans_r: std::collections::HashSet<_> = evaluate_cq(&q, &r.instance)
            .into_iter()
            .filter(|t| t.iter().all(|v| d.dom_contains(*v)))
            .collect();
        let ans_o: std::collections::HashSet<_> = evaluate_cq(&q, &o.instance)
            .into_iter()
            .filter(|t| t.iter().all(|v| d.dom_contains(*v)))
            .collect();
        assert_eq!(ans_r, ans_o);
        assert!(r.instance.len() <= o.instance.len());
    }

    #[test]
    fn budget_respected() {
        let tgds = parse_tgds("P(X) -> Q(X,Y). Q(X,Y) -> P(Y)").unwrap();
        let d = db(&[("P", &["a"])]);
        let r = restricted_chase(&d, &tgds, &ChaseBudget::atoms(30));
        assert!(!r.complete);
        assert!(r.instance.len() >= 30);
    }

    #[test]
    fn budget_already_exhausted_keeps_database() {
        // Mirrors the oblivious engine's edge: an exhausted budget stops
        // before any trigger is even considered.
        let tgds = parse_tgds("P(X) -> Q(X)").unwrap();
        let d = db(&[("P", &["a"]), ("P", &["b"]), ("P", &["c"])]);
        let r = restricted_chase(&d, &tgds, &ChaseBudget::atoms(3));
        assert!(!r.complete);
        assert_eq!(r.instance, d);
        assert_eq!(r.fired, 0);
        let r0 = restricted_chase(&d, &tgds, &ChaseBudget::levels(0));
        assert!(!r0.complete);
        assert_eq!(r0.instance, d);
    }

    #[test]
    fn atom_budget_exact_hit_stops_mid_frontier() {
        // Single-atom heads: firing stops the moment the cap is reached,
        // leaving the rest of the frontier unfired.
        let tgds = parse_tgds("P(X) -> Q(X)").unwrap();
        let names: Vec<String> = (0..10).map(|i| format!("c{i}")).collect();
        let d = Instance::from_atoms(names.iter().map(|n| GroundAtom::named("P", &[n.as_str()])));
        let r = restricted_chase(&d, &tgds, &ChaseBudget::atoms(13));
        assert!(!r.complete);
        assert_eq!(r.instance.len(), 13);
        assert_eq!(r.fired, 3);
    }

    #[test]
    fn atom_budget_at_fixpoint_boundary_is_complete() {
        // The fixpoint arrives before the cap: the run is complete.
        let tgds = parse_tgds("P(X) -> Q(X)").unwrap();
        let d = db(&[("P", &["a"])]);
        let r = restricted_chase(&d, &tgds, &ChaseBudget::atoms(3));
        assert!(r.complete);
        assert_eq!(r.instance.len(), 2);
        assert_eq!(r.fired, 1);
    }

    #[test]
    fn levels_only_budget_halts_a_diverging_chase() {
        // Person(x) → ∃y Parent(x,y), Person(y) with no loop diverges: the
        // old level-budget interpretation (triggers scaled by instance
        // size) never halted this, because the instance grows faster than
        // the fired count. The real stopping edge cuts each derivation
        // chain at depth `max`.
        let tgds = parse_tgds("Person(X) -> Parent(X,Y), Person(Y)").unwrap();
        let d = db(&[("Person", &["a"])]);
        let r = restricted_chase(&d, &tgds, &ChaseBudget::levels(3));
        assert!(!r.complete);
        // Levels 1..3 each add Parent + Person; the level-4 trigger is
        // skipped.
        assert_eq!(r.instance.len(), 1 + 2 * 3);
        assert_eq!(r.fired, 3);
    }

    #[test]
    fn level_budget_edges_around_fixpoint() {
        let tgds = parse_tgds("A(X) -> B(X). B(X) -> C(X).").unwrap();
        let d = db(&[("A", &["a"])]);
        // Below the chain depth: the level-2 trigger is skipped.
        let under = restricted_chase(&d, &tgds, &ChaseBudget::levels(1));
        assert!(!under.complete);
        assert_eq!(under.fired, 1);
        assert!(under.instance.contains(&GroundAtom::named("B", &["a"])));
        assert!(!under.instance.contains(&GroundAtom::named("C", &["a"])));
        // At the chain depth: every trigger fires and the drained frontier
        // certifies the fixpoint (the frontier engine knows no deeper
        // trigger exists, unlike the round-based oblivious engine).
        let at = restricted_chase(&d, &tgds, &ChaseBudget::levels(2));
        assert!(at.complete);
        assert_eq!(at.fired, 2);
        assert_eq!(at.instance.len(), 3);
    }

    #[test]
    fn level_budget_skips_deep_triggers_but_keeps_shallow_ones() {
        // Two independent chains of different depth share the frontier:
        // the cap must prune only the deep chain's tail, not stop the
        // whole run the moment one deep trigger is seen.
        let tgds = parse_tgds("A(X) -> B(X). B(X) -> C(X). C(X) -> D(X). P(X) -> Q(X).").unwrap();
        let d = db(&[("A", &["a"]), ("P", &["p"])]);
        let r = restricted_chase(&d, &tgds, &ChaseBudget::levels(2));
        assert!(!r.complete);
        assert!(r.instance.contains(&GroundAtom::named("C", &["a"])));
        assert!(!r.instance.contains(&GroundAtom::named("D", &["a"])));
        assert!(r.instance.contains(&GroundAtom::named("Q", &["p"])));
    }

    #[test]
    fn level_budget_ignores_satisfied_deep_triggers() {
        // The level-2 trigger's head is already satisfied: it would never
        // have fired, so skipping it must not cost completeness.
        let tgds = parse_tgds("A(X) -> B(X). B(X) -> C(X).").unwrap();
        let d = db(&[("A", &["a"]), ("C", &["a"])]);
        let r = restricted_chase(&d, &tgds, &ChaseBudget::levels(1));
        assert!(r.complete);
        assert_eq!(r.fired, 1);
    }

    #[test]
    fn both_budget_edges_compose() {
        // A diverging chase under both caps stops at whichever edge bites
        // first: a tight atom cap wins over a loose level cap and vice
        // versa.
        let tgds = parse_tgds("Person(X) -> Parent(X,Y), Person(Y)").unwrap();
        let d = db(&[("Person", &["a"])]);
        let atoms_first = restricted_chase(
            &d,
            &tgds,
            &ChaseBudget {
                max_level: Some(50),
                max_atoms: Some(5),
            },
        );
        assert!(!atoms_first.complete);
        assert!(atoms_first.instance.len() >= 5 && atoms_first.instance.len() <= 7);
        let levels_first = restricted_chase(
            &d,
            &tgds,
            &ChaseBudget {
                max_level: Some(2),
                max_atoms: Some(1_000),
            },
        );
        assert!(!levels_first.complete);
        assert_eq!(levels_first.instance.len(), 1 + 2 * 2);
    }

    #[test]
    fn full_tgds_fixpoint_matches_oblivious() {
        let tgds = parse_tgds("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let d = db(&[("E", &["a", "b"]), ("E", &["b", "c"]), ("E", &["c", "d"])]);
        let r = restricted_chase(&d, &tgds, &ChaseBudget::unbounded());
        let o = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert_eq!(r.instance, o.instance);
    }
}
