//! The oblivious chase (Section 2), with level tracking and budgets, and
//! the restricted chase on the same round loop.
//!
//! The oblivious chase fires every trigger `(σ, h)` exactly once, whether or
//! not the head is already satisfied, so every chase sequence yields the same
//! result up to isomorphism and level structure is well defined: the level
//! of an atom is `1 +` the maximum level of the body atoms that produced it
//! (0 for database atoms).
//!
//! Trigger discovery is *exact semi-naive*: round `ℓ` pins each body atom
//! `i` in turn to the atoms round `ℓ - 1` created (the delta), with the
//! atoms `j < i` matching only atoms outside the delta
//! ([`gtgd_query::KernelSearch::semi_naive`]). So each trigger is found
//! once: at its first delta position, in the round after its newest body
//! atom was created. No record of fired triggers is kept. One pinned batch
//! search ([`gtgd_query::KernelSearch::for_each_pinned_row`]) per rule and
//! pin covers the whole delta. Each firing grounds its head into a reused
//! buffer, and only the products the instance lacks are copied into the
//! round's pending atoms. Empty-body rules fire in a state's first round.
//!
//! The restricted chase ([`ChaseVariant::Restricted`]) runs the same
//! rounds breadth-first: a round collects what discovery finds, then fires
//! each trigger whose head the live instance does not satisfy, inserting
//! its products at once. Every trigger active in a round fires or is found
//! satisfied in that round, so the sequence is fair.
//!
//! `ObliviousChase::run` is the only chase driver: [`ChaseRunner::run`]
//! (behind [`chase`] and [`crate::restricted_chase`]) runs it from the
//! whole database for either variant, incremental maintenance
//! (`crate::maintain`) from the inserted or rescued atoms. When handed a
//! log, a run appends one [`Firing`] per trigger fired: certified runs
//! return it, and the dependency index indexes what its runs appended.

use crate::plan::{Firing, TriggerPlan};
use crate::runner::{ChaseRunner, ChaseVariant};
use crate::tgd::Tgd;
use gtgd_data::idhash::IdHashSet;
use gtgd_data::{obs, GroundAtom, Instance, Value};
pub(crate) use gtgd_query::Delta;
use std::borrow::Cow;
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

/// What a chase run produced: the materialized prefix of a chase, for
/// either [`ChaseVariant`]. For a restricted run, an atom's level is the
/// round that added it, which is also its derivation depth.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The atoms materialized so far (includes the input database).
    pub instance: Instance,
    /// `levels[i]` is the chase level of `instance.atom(i)` (indexed by
    /// atom id, so its length is the instance's `id_bound()`).
    pub levels: Vec<usize>,
    /// The highest level materialized.
    pub max_level: usize,
    /// Whether a fixpoint was reached (the result is the full
    /// `chase(D, Σ)`), as opposed to stopping on a budget.
    pub complete: bool,
    /// Triggers fired.
    pub fired: usize,
    /// The run's probe report; `None` unless the run was built with
    /// [`ChaseRunner::trace`](crate::ChaseRunner::trace).
    pub report: Option<obs::RunReport>,
    /// Every trigger firing, in firing order; `None` unless the run was
    /// built with [`ChaseRunner::certify`](crate::ChaseRunner::certify).
    pub firings: Option<Vec<Firing>>,
}

impl ChaseResult {
    /// The atoms up to and including `level` (the instance
    /// `chase^ℓ_s(D, Σ)` of Appendix A).
    pub fn up_to_level(&self, level: usize) -> Instance {
        Instance::from_atoms(
            self.instance
                .iter_ids()
                .filter(|&(i, _)| self.levels[i] <= level)
                .map(|(_, a)| a.clone()),
        )
    }
}

/// Runs the oblivious chase of `db` under `tgds` within `budget`:
/// `ChaseRunner::new(tgds).budget(*budget).run(db)`.
pub fn chase(db: &Instance, tgds: &[Tgd], budget: &ChaseBudget) -> ChaseResult {
    ChaseRunner::new(tgds).budget(*budget).run(db)
}

/// What one [`ObliviousChase::run`] did.
#[derive(Debug, Clone, Copy, Default)]
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

/// The state a chase carries between runs: the compiled plans, the
/// instance, the variant its runs fire by, and whether the empty-body
/// rules have fired.
#[derive(Debug, Clone)]
pub(crate) struct ObliviousChase {
    pub plans: Vec<TriggerPlan>,
    pub instance: Instance,
    pub variant: ChaseVariant,
    /// Set once the first round of the first run has passed the
    /// empty-body rules (an atom cap may cut some, like any trigger).
    pub empty_fired: bool,
}

/// The head atoms one round produced that the instance lacks, pending
/// insertion, and the buffers each firing reuses.
#[derive(Default)]
struct Pending {
    /// The products absent from the instance, in firing order. An atom two
    /// triggers of the round produce appears twice; insertion keeps the
    /// first.
    atoms: Vec<GroundAtom>,
    /// The latest firing's fresh nulls.
    nulls: Vec<Value>,
    /// The latest firing's head atoms, grounded in place.
    products: Vec<GroundAtom>,
    /// The distinct pending atoms, which is what the atom cap counts. Built
    /// only once the pending atoms, duplicates included, could reach the
    /// cap; until then no product is hashed twice.
    gain: Option<IdHashSet<GroundAtom>>,
    fired: usize,
}

impl Pending {
    /// Fires the trigger `row` of `plan`, appending its record to `log`
    /// when given.
    fn fire(
        &mut self,
        plan: &TriggerPlan,
        row: &[Value],
        instance: &Instance,
        log: Option<&mut Vec<Firing>>,
    ) {
        plan.fire_row(row, &mut self.nulls, &mut self.products);
        self.fired += 1;
        obs::count(obs::Metric::TriggerFirings, 1);
        if let Some(log) = log {
            log.push(Firing {
                tgd: plan.index,
                key: plan.trigger_key(row),
                nulls: self.nulls.clone(),
            });
        }
        for p in &self.products {
            if !instance.contains(p) {
                if let Some(gain) = &mut self.gain {
                    gain.insert(p.clone());
                }
                self.atoms.push(p.clone());
            }
        }
    }

    /// Whether the instance, once this round's atoms are inserted,
    /// reaches the atom cap.
    fn exhausts(&mut self, budget: &ChaseBudget, instance: &Instance) -> bool {
        if !budget.atoms_exhausted(instance.len() + self.atoms.len()) {
            return false;
        }
        let gain = self
            .gain
            .get_or_insert_with(|| self.atoms.iter().cloned().collect());
        budget.atoms_exhausted(instance.len() + gain.len())
    }

    /// Inserts the pending atoms at `level`, appending it to `levels` per
    /// atom new to the instance.
    fn insert(&mut self, instance: &mut Instance, levels: Option<&mut Vec<usize>>, level: usize) {
        instance.reserve_additional(self.atoms.len());
        for a in self.atoms.drain(..) {
            instance.insert(a);
        }
        if let Some(levels) = levels {
            levels.resize(instance.id_bound(), level);
        }
        self.gain = None;
    }
}

impl ObliviousChase {
    /// A state with nothing fired yet over `instance`.
    pub fn new(tgds: &[Tgd], instance: Instance, variant: ChaseVariant) -> ObliviousChase {
        ObliviousChase {
            plans: TriggerPlan::compile_all(tgds),
            instance,
            variant,
            empty_fired: false,
        }
    }

    /// Runs rounds from `delta` until a round adds nothing or `budget`
    /// stops the run. Round `ℓ` (from 0) finds every trigger whose body
    /// uses an atom of the round's delta, against the instance as it stood
    /// before the round; the atoms it adds get level `ℓ + 1` (appended to
    /// `levels`, when given) and become the next delta.
    ///
    /// Oblivious: every trigger found fires, and the round's atoms are
    /// inserted after it; the run stops before a round at the level cap.
    /// Restricted: the triggers found fire in discovery order, each only
    /// if its head is not satisfied by the live instance, and their
    /// products are inserted at once; a round at the level cap fires
    /// nothing and leaves the run complete iff it found no active trigger.
    /// Both stop as soon as the atom cap is reached. Every firing is
    /// appended to `log`, when given, in firing order.
    pub fn run(
        &mut self,
        delta: Delta,
        budget: &ChaseBudget,
        mut levels: Option<&mut Vec<usize>>,
        mut log: Option<&mut Vec<Firing>>,
    ) -> RunStats {
        let ObliviousChase {
            plans,
            instance,
            variant,
            empty_fired,
        } = self;
        let restricted = *variant == ChaseVariant::Restricted;
        let mut stats = RunStats {
            complete: true,
            ..RunStats::default()
        };
        let mut pending = Pending::default();
        let mut delta = delta;
        let mut level = 0usize;
        loop {
            let at_level_cap = budget.max_level.is_some_and(|max| level >= max);
            if !restricted && (at_level_cap || budget.atoms_exhausted(instance.len())) {
                stats.complete = false;
                break;
            }
            let round_t = obs::enabled().then(Instant::now);
            // Whether a budget stopped the round with a trigger left.
            let mut hit_cap = false;
            // Restricted rounds: the rule of each trigger found, and its row.
            let (mut found, mut found_rows) = (Vec::new(), Vec::new());
            // Ids are stable, so the atoms this round adds are those at
            // or past the id bound it starts from.
            let start = instance.id_bound();
            let round_delta: Cow<[GroundAtom]> = match &delta {
                Delta::Since(from) => instance.tail(*from),
                Delta::Atoms(ids) => ids.iter().map(|&i| instance.atom(i).clone()).collect(),
            };
            'round: for (ti, plan) in plans.iter().enumerate() {
                let mut visit = |row: &[Value]| {
                    if restricted {
                        found.push(ti);
                        found_rows.extend_from_slice(row);
                    } else if pending.exhausts(budget, instance) {
                        return ControlFlow::Break(());
                    } else {
                        pending.fire(plan, row, instance, log.as_deref_mut());
                    }
                    ControlFlow::Continue(())
                };
                if plan.body_atoms.is_empty() {
                    if !*empty_fired {
                        hit_cap = visit(&[]).is_break();
                    }
                } else {
                    let search = plan.body.search(instance).semi_naive(&delta);
                    for pin in 0..plan.body_atoms.len() {
                        hit_cap = search.for_each_pinned_row(pin, &round_delta, &mut visit);
                        if hit_cap {
                            break;
                        }
                    }
                }
                if hit_cap {
                    break 'round;
                }
            }
            *empty_fired = true;
            if restricted {
                // The gate: fire each trigger found that is still active.
                let mut offset = 0;
                for &ti in &found {
                    let plan = &plans[ti];
                    let row = &found_rows[offset..offset + plan.body.slot_count()];
                    offset += row.len();
                    if budget.atoms_exhausted(instance.len()) {
                        hit_cap = true;
                        break;
                    }
                    if plan.head_satisfied(row, instance) {
                        continue;
                    }
                    if at_level_cap {
                        hit_cap = true;
                        break;
                    }
                    pending.fire(plan, row, instance, log.as_deref_mut());
                    pending.insert(instance, levels.as_deref_mut(), level + 1);
                }
                if at_level_cap {
                    stats.complete = !hit_cap;
                    break;
                }
            }
            obs::count(obs::Metric::ChaseRounds, 1);
            if let Some(t0) = round_t {
                obs::observe(obs::Hist::ChaseRoundNs, t0.elapsed().as_nanos() as u64);
            }
            level += 1;
            pending.insert(instance, levels.as_deref_mut(), level);
            stats.added += instance.id_bound() - start;
            if instance.id_bound() == start {
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

    /// Runs the engine from the whole database, logging its firings.
    fn run_all(d: &Instance, tgds: &[Tgd]) -> (ObliviousChase, RunStats, Vec<Firing>) {
        let mut state = ObliviousChase::new(tgds, d.clone(), ChaseVariant::Oblivious);
        let mut levels = vec![0; d.len()];
        let mut log = Vec::new();
        let run = state.run(
            Delta::Since(0),
            &ChaseBudget::unbounded(),
            Some(&mut levels),
            Some(&mut log),
        );
        assert_eq!(levels.len(), state.instance.len());
        (state, run, log)
    }

    #[test]
    fn transitive_closure_fires_each_trigger_exactly_once() {
        // Over a 40-node path every triple x < y < z is one trigger, the
        // closure holds all 40·39/2 pairs, and a path of length ≤ 2^ℓ is
        // derived by level ℓ (39 ≤ 2^6).
        let tgds = parse_tgds("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let names: Vec<String> = (0..40).map(|i| format!("n{i}")).collect();
        let path = Instance::from_atoms(
            names
                .windows(2)
                .map(|w| GroundAtom::named("E", &[w[0].as_str(), w[1].as_str()])),
        );
        let (state, run, log) = run_all(&path, &tgds);
        assert!(run.complete);
        assert_eq!(run.fired, 9_880); // C(40, 3)
        let keys: std::collections::HashSet<_> = log.iter().map(|f| (f.tgd, &f.key)).collect();
        assert_eq!((log.len(), keys.len()), (9_880, 9_880));
        assert_eq!(state.instance.len(), 780); // C(40, 2)
        assert_eq!(run.added, 780 - 39);
        assert_eq!(run.max_level, 6);
    }

    #[test]
    fn a_trigger_with_both_body_atoms_in_one_delta_fires_once() {
        // E(a,b), E(b,c): round 0 finds the trigger with either body atom
        // pinned. E(a,a): both body atoms are the same delta atom.
        let tgds = parse_tgds("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let (state, run, _) = run_all(&db(&[("E", &["a", "b"]), ("E", &["b", "c"])]), &tgds);
        assert_eq!(run.fired, 1);
        assert_eq!(state.instance.len(), 3);
        let (state, run, _) = run_all(&db(&[("E", &["a", "a"])]), &tgds);
        assert_eq!(run.fired, 1);
        assert_eq!(state.instance.len(), 1);
        assert_eq!(run.max_level, 0);
        assert!(run.complete);
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
