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
//! Trigger discovery is *incremental*: a FIFO frontier of discovered
//! triggers is seeded from the database and extended, after each firing,
//! with only the triggers whose body uses a newly created atom (found by
//! pinning each body atom of each cached trigger plan (`plan::TriggerPlan`) to the delta).
//! Head satisfaction is checked when a trigger is *popped*, against the
//! instance as it stands then. This is sound because satisfaction is
//! monotone under instance growth — once a trigger's head is satisfied it
//! stays satisfied, so a popped-and-skipped trigger never needs to be
//! revisited, and a trigger never enters the frontier twice (a seen-set
//! dedups discovery). The historical implementation restarted a full
//! trigger scan over all TGDs and all body homomorphisms after *every*
//! firing, which is quadratic in the number of firings (the E9 ablation
//! measures the difference).

use crate::engine::{ChaseBudget, FiringObserver};
use crate::plan::TriggerPlan;
use crate::tgd::Tgd;
use gtgd_data::{obs, GroundAtom, Instance, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::ControlFlow;

/// Result of a restricted chase run.
#[derive(Debug, Clone)]
pub struct RestrictedChaseResult {
    /// The materialized instance.
    pub instance: Instance,
    /// Whether a fixpoint was reached within budget.
    pub complete: bool,
    /// Number of triggers fired.
    pub fired: usize,
}

/// Runs the restricted chase: repeatedly pop a discovered trigger from the
/// FIFO frontier, fire it if its head is not yet satisfied, and discover
/// the new triggers its output enables. Deterministic: the database seeds
/// the frontier in TGD-then-homomorphism order, and discovery after each
/// firing scans (TGD, pinned atom, delta atom) in a fixed order.
pub fn restricted_chase(
    db: &Instance,
    tgds: &[Tgd],
    budget: &ChaseBudget,
) -> RestrictedChaseResult {
    crate::runner::ChaseRunner::new(tgds)
        .variant(crate::runner::ChaseVariant::Restricted)
        .budget(*budget)
        .run(db)
        .into_restricted_result()
}

/// The engine behind [`restricted_chase`] and
/// [`crate::runner::ChaseRunner`]; `observer` sees every firing.
pub(crate) fn restricted_chase_impl(
    db: &Instance,
    tgds: &[Tgd],
    budget: &ChaseBudget,
    observer: &mut impl FiringObserver,
) -> RestrictedChaseResult {
    let _span = obs::span("chase.restricted");
    let plans = TriggerPlan::compile_all(tgds);
    let mut instance = db.clone();
    let mut fired = 0usize;
    let mut complete = true;

    // An already-exhausted budget stops before any trigger search, like the
    // historical scan loop (which checked budgets at the top of every
    // iteration, including the first).
    if budget.max_atoms.is_some_and(|max| instance.len() >= max)
        || budget.max_level.is_some_and(|max| max == 0)
    {
        return RestrictedChaseResult {
            instance,
            complete: false,
            fired: 0,
        };
    }

    // The frontier holds (TGD index, body row) triggers; `seen` guarantees
    // each trigger enters at most once.
    let mut queue: VecDeque<(usize, Vec<Value>)> = VecDeque::new();
    let mut seen: HashSet<(usize, Vec<Value>)> = HashSet::new();
    let push = |ti: usize,
                row: Vec<Value>,
                queue: &mut VecDeque<(usize, Vec<Value>)>,
                seen: &mut HashSet<(usize, Vec<Value>)>| {
        if seen.insert((ti, row.clone())) {
            queue.push_back((ti, row));
        }
    };

    // Seed: all triggers over the database (empty-body TGDs have exactly
    // one trigger, the empty row).
    for (ti, tgd) in tgds.iter().enumerate() {
        if tgd.body.is_empty() {
            push(ti, Vec::new(), &mut queue, &mut seen);
            continue;
        }
        plans[ti].body.search(&instance).for_each_row(|row| {
            push(ti, row.to_vec(), &mut queue, &mut seen);
            ControlFlow::Continue(())
        });
    }

    // Per-atom derivation levels, tracked only under a level budget:
    // database atoms are level 0; a firing's level is 1 + the maximum
    // level of its body atoms, and its products inherit that level (the
    // oblivious chase's level notion, applied per firing — not canonical
    // for the restricted chase, but a sound derivation-depth bound).
    let track_levels = budget.max_level.is_some();
    let mut levels: HashMap<GroundAtom, usize> = HashMap::new();
    if track_levels {
        levels.extend(instance.iter().map(|a| (a.clone(), 0)));
    }

    let mut new_atoms: Vec<GroundAtom> = Vec::new();
    let mut nulls: Vec<Value> = Vec::new();
    while let Some((ti, row)) = queue.pop_front() {
        if let Some(max) = budget.max_atoms {
            if instance.len() >= max {
                complete = false;
                break;
            }
        }
        // Satisfaction is monotone, so checking at pop time (against the
        // grown instance) only ever *skips* triggers the historical
        // implementation would also have skipped. Checked before the level
        // budget so a too-deep trigger that would not have fired anyway
        // does not spuriously mark the run incomplete.
        if plans[ti].head_satisfied(&row, &instance) {
            continue;
        }
        let mut firing_level = 0usize;
        if let Some(max) = budget.max_level {
            firing_level = 1 + plans[ti]
                .ground_body(&row)
                .iter()
                .map(|a| levels.get(a).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            if firing_level > max {
                // This trigger is too deep, but shallower ones may still
                // be queued behind it: skip it instead of stopping the
                // whole frontier. A diverging chase drains because every
                // derivation chain eventually exceeds the cap.
                complete = false;
                continue;
            }
        }
        new_atoms.clear();
        plans[ti].fire_row(&row, &mut nulls, &mut new_atoms);
        fired += 1;
        obs::count(obs::Metric::TriggerFirings, 1);
        observer.fired(&plans[ti], &row, &nulls, &new_atoms);
        // Insert, keeping only the genuinely new atoms as the delta.
        let mut delta_start = instance.len();
        instance.reserve_additional(new_atoms.len());
        for a in &new_atoms {
            if instance.insert(a.clone()) && track_levels {
                levels.insert(a.clone(), firing_level);
            }
        }
        // Discover triggers that use at least one delta atom.
        while delta_start < instance.len() {
            let d = instance.atom(delta_start).clone();
            delta_start += 1;
            for (tj, tgd) in tgds.iter().enumerate() {
                for pin in 0..tgd.body.len() {
                    let Some(seed) = plans[tj].body.unify_atom(pin, &d) else {
                        continue;
                    };
                    plans[tj]
                        .body
                        .search(&instance)
                        .fix_slots(seed)
                        .skip_atom(pin)
                        .for_each_row(|row| {
                            push(tj, row.to_vec(), &mut queue, &mut seen);
                            ControlFlow::Continue(())
                        });
                }
            }
        }
    }
    RestrictedChaseResult {
        instance,
        complete,
        fired,
    }
}

/// Whether the restricted chase result is a model (sanity hook for tests).
pub fn is_model(result: &RestrictedChaseResult, tgds: &[Tgd]) -> bool {
    result.complete && crate::tgd::satisfies_all(&result.instance, tgds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::chase;
    use crate::tgd::parse_tgds;
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
        assert!(is_model(&r, &tgds));
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
