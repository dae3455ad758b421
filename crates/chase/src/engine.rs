//! The oblivious chase (Section 2), with level tracking and budgets.
//!
//! The oblivious chase fires every trigger `(σ, h)` exactly once, whether or
//! not the head is already satisfied, so every chase sequence yields the same
//! result up to isomorphism and level structure is well defined: the level
//! of an atom is `1 +` the maximum level of the body atoms that produced it
//! (0 for database atoms).
//!
//! Trigger discovery is *semi-naive*: after round `ℓ`, only triggers whose
//! body uses at least one atom created in round `ℓ` are searched, by pinning
//! each body atom in turn to the round-`ℓ` delta.
//!
//! [`ObliviousChase::run`] is the only oblivious driver. The one-shot
//! [`chase`] runs it from the whole database; incremental maintenance
//! (`crate::maintain`) runs it on a persistent state from the inserted or
//! rescued atoms; certified runs and the maintenance dependency index
//! watch its firings through a [`FiringObserver`].

use crate::plan::TriggerPlan;
use crate::tgd::Tgd;
use gtgd_data::{obs, GroundAtom, Instance, Value};
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::time::Instant;

/// Resource limits for a chase run. The chase of a database under TGDs with
/// existential heads is infinite in general, so callers choose how much of
/// it to materialize.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaseBudget {
    /// Stop after materializing all atoms of this level.
    pub max_level: Option<usize>,
    /// Hard cap on materialized atoms: trigger firing stops as soon as the
    /// instance plus the distinct new atoms pending insertion reaches this
    /// count, even in the middle of a round. The final instance may exceed
    /// the cap by at most one head's worth of atoms (the trigger that
    /// reached it).
    pub max_atoms: Option<usize>,
}

impl ChaseBudget {
    /// No limits: run to a fixpoint (only safe for terminating chases —
    /// full or weakly acyclic TGD sets).
    pub fn unbounded() -> ChaseBudget {
        ChaseBudget::default()
    }

    /// Limit by level only.
    pub fn levels(max_level: usize) -> ChaseBudget {
        ChaseBudget {
            max_level: Some(max_level),
            max_atoms: None,
        }
    }

    /// Limit by atom count only.
    pub fn atoms(max_atoms: usize) -> ChaseBudget {
        ChaseBudget {
            max_level: None,
            max_atoms: Some(max_atoms),
        }
    }

    /// Whether a projected atom count exhausts the atom budget.
    pub fn atoms_exhausted(&self, projected: usize) -> bool {
        self.max_atoms.is_some_and(|max| projected >= max)
    }
}

/// The materialized prefix of a chase.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The atoms materialized so far (includes the input database).
    pub instance: Instance,
    /// `levels[i]` is the chase level of `instance.atom(i)`.
    pub levels: Vec<usize>,
    /// Whether a fixpoint was reached (the result is the full
    /// `chase(D, Σ)`), as opposed to stopping on a budget.
    pub complete: bool,
    /// The highest level materialized.
    pub max_level: usize,
}

impl ChaseResult {
    /// The atoms up to and including `level` (the instance
    /// `chase^ℓ_s(D, Σ)` of Appendix A).
    pub fn up_to_level(&self, level: usize) -> Instance {
        Instance::from_atoms(
            self.instance
                .iter()
                .enumerate()
                .filter(|&(i, _)| self.levels[i] <= level)
                .map(|(_, a)| a.clone()),
        )
    }
}

/// Runs the oblivious chase of `db` under `tgds` within `budget`.
///
/// Each TGD is compiled into a trigger plan (`plan::TriggerPlan`) once; every round re-probes
/// the cached plan with a delta atom pinned, instead of rebuilding atom
/// lists per firing.
///
/// Compatibility wrapper over [`crate::runner::ChaseRunner`] — prefer the
/// facade in new code.
pub fn chase(db: &Instance, tgds: &[Tgd], budget: &ChaseBudget) -> ChaseResult {
    crate::runner::ChaseRunner::new(tgds)
        .budget(*budget)
        .run(db)
        .into_chase_result()
}

/// The one-shot oblivious chase behind [`chase`] and
/// [`crate::runner::ChaseRunner`]: one [`ObliviousChase::run`] from the
/// whole database, with levels.
pub(crate) fn chase_impl(
    db: &Instance,
    tgds: &[Tgd],
    budget: &ChaseBudget,
    observer: &mut impl FiringObserver,
) -> ChaseResult {
    let _span = obs::span("chase.oblivious");
    let mut state = ObliviousChase::new(tgds, db.clone());
    let mut levels = vec![0usize; db.len()];
    let run = state.run(Delta::Since(0), budget, Some(&mut levels), observer);
    ChaseResult {
        instance: state.instance,
        levels,
        complete: run.complete,
        max_level: run.max_level,
    }
}

/// Sees every trigger firing of a run, in firing order: the plan of the
/// fired TGD, the body row (slot order of `plan.body`), the fresh nulls
/// (ascending existential-variable order) and the head atoms produced
/// (whether or not the instance already holds them).
pub(crate) trait FiringObserver {
    fn fired(
        &mut self,
        plan: &TriggerPlan,
        row: &[Value],
        nulls: &[Value],
        products: &[GroundAtom],
    );
}

/// No observer: the plain chase.
impl FiringObserver for () {
    #[inline(always)]
    fn fired(&mut self, _: &TriggerPlan, _: &[Value], _: &[Value], _: &[GroundAtom]) {}
}

/// Where a run's first round looks for triggers. Every later round
/// searches from the atoms the previous round added.
pub(crate) enum Delta {
    /// The instance's atoms from this position on (insertion order).
    Since(usize),
    /// These atoms, all present in the instance.
    Atoms(Vec<GroundAtom>),
}

/// What one [`ObliviousChase::run`] did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunStats {
    /// Whether the run reached a fixpoint within budget.
    pub complete: bool,
    /// Rounds that added atoms (the highest level materialized, for a
    /// run from the whole database).
    pub max_level: usize,
    /// Triggers fired.
    pub fired: usize,
    /// Atoms added to the instance.
    pub added: usize,
}

/// The state the oblivious chase carries between runs: the compiled
/// plans, the instance, and the `(TGD index, trigger key)` of every
/// trigger fired so far — the once-per-trigger discipline.
#[derive(Debug, Clone)]
pub(crate) struct ObliviousChase {
    pub plans: Vec<TriggerPlan>,
    pub instance: Instance,
    pub fired: HashSet<(usize, Vec<Value>)>,
}

/// The head atoms one round produced, pending insertion.
struct Pending {
    atoms: Vec<GroundAtom>,
    nulls: Vec<Value>,
    /// The distinct pending atoms the instance lacks, which is what the
    /// atom cap counts. Built only once the pending atoms, duplicates
    /// included, could reach the cap; until then no product is hashed.
    gain: Option<HashSet<GroundAtom>>,
    fired: usize,
}

impl Pending {
    fn fire(
        &mut self,
        plan: &TriggerPlan,
        row: &[Value],
        instance: &Instance,
        observer: &mut impl FiringObserver,
    ) {
        let start = self.atoms.len();
        plan.fire_row(row, &mut self.nulls, &mut self.atoms);
        self.fired += 1;
        obs::count(obs::Metric::TriggerFirings, 1);
        let products = &self.atoms[start..];
        observer.fired(plan, row, &self.nulls, products);
        if let Some(gain) = &mut self.gain {
            for p in products {
                if !instance.contains(p) {
                    gain.insert(p.clone());
                }
            }
        }
    }

    /// Whether the instance, once this round's atoms are inserted,
    /// reaches the atom cap.
    fn exhausts(&mut self, budget: &ChaseBudget, instance: &Instance) -> bool {
        if !budget.atoms_exhausted(instance.len() + self.atoms.len()) {
            return false;
        }
        let gain = self.gain.get_or_insert_with(|| {
            self.atoms
                .iter()
                .filter(|a| !instance.contains(a))
                .cloned()
                .collect()
        });
        budget.atoms_exhausted(instance.len() + gain.len())
    }
}

impl ObliviousChase {
    /// A state with nothing fired yet over `instance`.
    pub fn new(tgds: &[Tgd], instance: Instance) -> ObliviousChase {
        ObliviousChase {
            plans: TriggerPlan::compile_all(tgds),
            instance,
            fired: HashSet::new(),
        }
    }

    /// Runs semi-naive rounds from `delta` until a round adds nothing or
    /// `budget` stops the run. Round `ℓ` (from 0) fires every not yet fired
    /// trigger whose body uses an atom of the round's delta, against the
    /// instance as it stood before the round; its atoms are inserted at
    /// level `ℓ + 1` (appended to `levels`, when given) and become the
    /// next delta. Empty-body TGDs fire in round 0, once ever.
    pub fn run(
        &mut self,
        delta: Delta,
        budget: &ChaseBudget,
        mut levels: Option<&mut Vec<usize>>,
        observer: &mut impl FiringObserver,
    ) -> RunStats {
        let ObliviousChase {
            plans,
            instance,
            fired,
        } = self;
        let mut stats = RunStats {
            complete: true,
            max_level: 0,
            fired: 0,
            added: 0,
        };
        let mut pending = Pending {
            atoms: Vec::new(),
            nulls: Vec::new(),
            gain: None,
            fired: 0,
        };
        let mut delta = delta;
        let mut level = 0usize;
        loop {
            if budget.max_level.is_some_and(|max| level >= max)
                || budget.atoms_exhausted(instance.len())
            {
                stats.complete = false;
                break;
            }
            let round_t = obs::enabled().then(Instant::now);
            let mut hit_cap = false;
            let round_delta: &[GroundAtom] = match &delta {
                Delta::Since(start) => &instance.atoms()[*start..],
                Delta::Atoms(atoms) => atoms,
            };
            'round: for (ti, plan) in plans.iter().enumerate() {
                if plan.body_atoms.is_empty() {
                    if level == 0 && fired.insert((ti, Vec::new())) {
                        pending.fire(plan, &[], instance, observer);
                    }
                    continue;
                }
                for pin in 0..plan.body_atoms.len() {
                    for d in round_delta {
                        let Some(seed) = plan.body.unify_atom(pin, d) else {
                            continue;
                        };
                        plan.body
                            .search(instance)
                            .fix_slots(seed)
                            .skip_atom(pin)
                            .for_each_row(|row| {
                                if !fired.insert((ti, plan.trigger_key(row))) {
                                    return ControlFlow::Continue(());
                                }
                                if pending.exhausts(budget, instance) {
                                    fired.remove(&(ti, plan.trigger_key(row)));
                                    hit_cap = true;
                                    return ControlFlow::Break(());
                                }
                                pending.fire(plan, row, instance, observer);
                                ControlFlow::Continue(())
                            });
                        if hit_cap {
                            break 'round;
                        }
                    }
                }
            }
            obs::count(obs::Metric::ChaseRounds, 1);
            if let Some(t0) = round_t {
                obs::observe(obs::Hist::ChaseRoundNs, t0.elapsed().as_nanos() as u64);
            }
            level += 1;
            let start = instance.len();
            instance.reserve_additional(pending.atoms.len());
            for a in pending.atoms.drain(..) {
                if instance.insert(a) {
                    if let Some(levels) = levels.as_deref_mut() {
                        levels.push(level);
                    }
                }
            }
            pending.gain = None;
            stats.added += instance.len() - start;
            if instance.len() == start {
                // No new atom (nothing fired, or a full TGD re-derived
                // existing atoms): fixpoint, unless the cap cut the round.
                stats.complete &= !hit_cap;
                break;
            }
            stats.max_level = level;
            if hit_cap {
                // The atom budget was exhausted mid-round: stop here rather
                // than searching another round's triggers.
                stats.complete = false;
                break;
            }
            delta = Delta::Since(start);
        }
        stats.fired = pending.fired;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tgd::{parse_tgds, satisfies_all};
    use gtgd_query::{holds_boolean, parse_cq};

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    #[test]
    fn full_tgds_reach_fixpoint() {
        // Transitive closure.
        let tgds = parse_tgds("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let d = db(&[("E", &["a", "b"]), ("E", &["b", "c"]), ("E", &["c", "d"])]);
        let r = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert!(r.complete);
        assert_eq!(r.instance.len(), 6); // all pairs (a,b),(b,c),(c,d),(a,c),(b,d),(a,d)
        assert!(satisfies_all(&r.instance, &tgds));
    }

    #[test]
    fn levels_track_derivation_depth() {
        let tgds = parse_tgds("A(X) -> B(X). B(X) -> C(X).").unwrap();
        let d = db(&[("A", &["a"])]);
        let r = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert!(r.complete);
        assert_eq!(r.max_level, 2);
        let l1 = r.up_to_level(1);
        assert!(l1.contains(&GroundAtom::named("B", &["a"])));
        assert!(!l1.contains(&GroundAtom::named("C", &["a"])));
    }

    #[test]
    fn existential_heads_create_nulls() {
        let tgds = parse_tgds("Person(X) -> HasParent(X,Y), Person(Y)").unwrap();
        let d = db(&[("Person", &["alice"])]);
        let r = chase(&d, &tgds, &ChaseBudget::levels(3));
        assert!(!r.complete); // infinite chase cut off
        assert_eq!(r.max_level, 3);
        // Levels 1..3 each add HasParent + Person.
        assert_eq!(r.instance.len(), 1 + 2 * 3);
        let parents = r
            .instance
            .iter()
            .filter(|a| a.predicate == gtgd_data::Predicate::new("HasParent"))
            .count();
        assert_eq!(parents, 3);
    }

    #[test]
    fn oblivious_fires_even_if_satisfied() {
        // D already satisfies the TGD, but the oblivious chase still fires.
        let tgds = parse_tgds("P(X) -> R(X,Y)").unwrap();
        let d = db(&[("P", &["a"]), ("R", &["a", "b"])]);
        let r = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert!(r.complete);
        // A fresh null was invented despite R(a,b) existing.
        assert_eq!(r.instance.len(), 3);
    }

    #[test]
    fn triggers_fire_once() {
        let tgds = parse_tgds("P(X) -> R(X,Y)").unwrap();
        let d = db(&[("P", &["a"])]);
        let r = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert!(r.complete);
        assert_eq!(r.instance.len(), 2); // P(a), R(a,⊥) — not refired on ⊥
    }

    #[test]
    fn empty_body_tgd_fires_once() {
        let tgds = parse_tgds("-> R(X,X)").unwrap();
        let r = chase(&Instance::new(), &tgds, &ChaseBudget::unbounded());
        assert!(r.complete);
        assert_eq!(r.instance.len(), 1);
    }

    #[test]
    fn atom_budget_stops() {
        let tgds = parse_tgds("P(X) -> Q(X,Y). Q(X,Y) -> P(Y)").unwrap();
        let d = db(&[("P", &["a"])]);
        let r = chase(&d, &tgds, &ChaseBudget::atoms(20));
        assert!(!r.complete);
        // Single-atom heads: the hard cap is hit exactly.
        assert_eq!(r.instance.len(), 20);
    }

    #[test]
    fn atom_budget_is_enforced_within_a_round() {
        // One round would fire 100 triggers; the cap must stop firing
        // mid-round, not after materializing the whole round.
        let tgds = parse_tgds("P(X) -> Q(X)").unwrap();
        let names: Vec<String> = (0..100).map(|i| format!("c{i}")).collect();
        let d = Instance::from_atoms(names.iter().map(|n| GroundAtom::named("P", &[n.as_str()])));
        let r = chase(&d, &tgds, &ChaseBudget::atoms(110));
        assert!(!r.complete);
        assert_eq!(r.instance.len(), 110);
        assert_eq!(r.levels.iter().filter(|&&l| l == 1).count(), 10);
    }

    #[test]
    fn atom_budget_overshoots_by_at_most_one_head() {
        // Three-atom heads: the trigger that reaches the cap still fires
        // whole, so the overshoot is bounded by head size - 1.
        let tgds = parse_tgds("P(X) -> A(X,Y), B(Y), C(Y)").unwrap();
        let names: Vec<String> = (0..10).map(|i| format!("c{i}")).collect();
        let d = Instance::from_atoms(names.iter().map(|n| GroundAtom::named("P", &[n.as_str()])));
        let r = chase(&d, &tgds, &ChaseBudget::atoms(14));
        assert!(!r.complete);
        assert!(r.instance.len() >= 14);
        assert!(r.instance.len() <= 14 + 2);
    }

    #[test]
    fn atom_budget_already_exhausted_keeps_database() {
        let tgds = parse_tgds("P(X) -> Q(X)").unwrap();
        let d = db(&[("P", &["a"]), ("P", &["b"]), ("P", &["c"])]);
        let r = chase(&d, &tgds, &ChaseBudget::atoms(3));
        assert!(!r.complete);
        assert_eq!(r.instance, d);
        assert_eq!(r.max_level, 0);
    }

    #[test]
    fn atom_budget_at_fixpoint_boundary_is_complete() {
        // The fixpoint is reached before the budget: the run is complete
        // even though the final size equals the cap.
        let tgds = parse_tgds("P(X) -> Q(X)").unwrap();
        let d = db(&[("P", &["a"])]);
        let r = chase(&d, &tgds, &ChaseBudget::atoms(3));
        assert!(r.complete);
        assert_eq!(r.instance.len(), 2);
    }

    /// `E(a,m_i), E(m_i,c)` for `k` middles: transitive closure derives
    /// `E(a,c)` once per middle, so `k` triggers produce one atom.
    fn diamond(k: usize) -> Instance {
        let mids: Vec<String> = (0..k).map(|i| format!("m{i}")).collect();
        Instance::from_atoms(mids.iter().flat_map(|m| {
            [
                GroundAtom::named("E", &["a", m.as_str()]),
                GroundAtom::named("E", &[m.as_str(), "c"]),
            ]
        }))
    }

    #[test]
    fn atom_budget_counts_distinct_new_atoms_only() {
        // The fixpoint is the base plus E(a,c): below the cap, duplicate
        // products of the other middles must not read as cap pressure.
        let tgds = parse_tgds("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        for (k, cap) in [(2, 6), (3, 8)] {
            let r = chase(&diamond(k), &tgds, &ChaseBudget::atoms(cap));
            assert!(r.complete, "{k} middles, cap {cap}");
            assert_eq!(r.instance.len(), 2 * k + 1);
            assert_eq!(r.max_level, 1);
        }
    }

    #[test]
    fn chase_and_maintain_agree_on_atom_caps() {
        let tgds = parse_tgds("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let d = diamond(2);
        for cap in 5..=9 {
            let budget = ChaseBudget::atoms(cap);
            let r = chase(&d, &tgds, &budget);
            let m = crate::MaintainedInstance::new(&d, &tgds, budget);
            assert_eq!(r.complete, m.complete(), "cap {cap}");
            assert_eq!(r.instance.len(), m.instance().len(), "cap {cap}");
            assert_eq!(r.complete, cap > 5, "cap {cap}");
        }
    }

    #[test]
    fn level_budget_zero_keeps_database() {
        let tgds = parse_tgds("A(X) -> B(X)").unwrap();
        let d = db(&[("A", &["a"])]);
        let r = chase(&d, &tgds, &ChaseBudget::levels(0));
        assert!(!r.complete);
        assert_eq!(r.instance, d);
        assert_eq!(r.max_level, 0);
    }

    #[test]
    fn level_budget_edges_around_fixpoint() {
        // The chain needs exactly 2 levels. `levels(2)` stops *at* the cap
        // without searching the (empty) third round, so it cannot certify
        // completeness; `levels(3)` searches it and does.
        let tgds = parse_tgds("A(X) -> B(X). B(X) -> C(X).").unwrap();
        let d = db(&[("A", &["a"])]);
        let at = chase(&d, &tgds, &ChaseBudget::levels(2));
        assert!(!at.complete);
        assert_eq!(at.max_level, 2);
        assert_eq!(at.instance.len(), 3);
        let past = chase(&d, &tgds, &ChaseBudget::levels(3));
        assert!(past.complete);
        assert_eq!(past.instance.len(), 3);
        assert_eq!(past.max_level, 2);
    }

    #[test]
    fn chase_answers_queries_prop_3_1_style() {
        // Σ: every employee works in some department with a manager.
        let tgds =
            parse_tgds("Emp(X) -> WorksIn(X,D), Dept(D). Dept(D) -> HasMgr(D,M), Emp(M)").unwrap();
        let d = db(&[("Emp", &["ann"])]);
        let r = chase(&d, &tgds, &ChaseBudget::levels(4));
        let q = parse_cq("Q() :- WorksIn(X,D), HasMgr(D,M)").unwrap();
        assert!(holds_boolean(&q, &r.instance));
    }

    #[test]
    fn multiway_join_body() {
        let tgds = parse_tgds("R(X,Y), S(Y,Z), T(Z,W) -> U(X,W)").unwrap();
        let d = db(&[
            ("R", &["a", "b"]),
            ("S", &["b", "c"]),
            ("T", &["c", "d"]),
            ("S", &["b", "e"]), // dead end
        ]);
        let r = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert!(r.instance.contains(&GroundAtom::named("U", &["a", "d"])));
        assert_eq!(r.instance.len(), 5);
    }

    #[test]
    fn constants_in_tgd_bodies() {
        let tgds = parse_tgds("Color(X, red) -> Warm(X)").unwrap();
        let d = db(&[("Color", &["car", "red"]), ("Color", &["sky", "blue"])]);
        let r = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert!(r.instance.contains(&GroundAtom::named("Warm", &["car"])));
        assert!(!r.instance.contains(&GroundAtom::named("Warm", &["sky"])));
    }
}
