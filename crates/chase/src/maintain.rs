//! Incremental materialization: a chased instance maintained under fact
//! inserts and retracts without re-chasing from scratch.
//!
//! [`MaintainedInstance`] keeps the **oblivious** chase fixpoint of a base
//! database live across updates:
//!
//! * [`insert`](MaintainedInstance::insert) runs a *delta chase*: the
//!   oblivious engine's semi-naive round loop (the same loop as
//!   [`crate::chase`]) starts from the inserted atoms only — never the
//!   whole instance — on the persistent engine state, so the warm
//!   `TriggerPlan` caches are reused and a single-fact insert costs a
//!   handful of pinned index probes instead of a full re-chase. Every
//!   trigger the loop finds uses an inserted atom, so none of them fired
//!   before: the once-per-trigger discipline needs no record of past
//!   firings.
//! * [`retract`](MaintainedInstance::retract) runs **DRed**
//!   (delete-and-re-derive) over the per-firing dependency index recorded
//!   at insert time: first *over-delete* everything transitively derived
//!   through a retracted atom, then *re-derive* — rescue the over-deleted
//!   atoms that still have an alive alternative support (or are surviving
//!   base facts), physically remove the rest, and re-run the round loop
//!   from the rescued atoms. The over-delete killed every firing that used
//!   an over-deleted atom, so every trigger with a rescued body atom is
//!   dead and must re-fire, and the loop's semi-naive split finds each of
//!   them once.
//!
//! Every run appends its firings to the dependency index's own log of
//! [`Firing`] records, and one step then links the new tail into the
//! `supports`/`uses` maps DRed walks, rebuilding each body from its key.
//! The same step indexes a thawed snapshot's firings; a compaction drops
//! the dead records and renumbers the linked lists in place.
//!
//! Why oblivious semantics: the oblivious chase fires every trigger
//! exactly once, so its fixpoint is order-independent up to null renaming
//! — incrementally reaching it and re-chasing from scratch agree up to
//! isomorphism, which is this module's differential contract
//! (`tests/differential_maintenance.rs`). The restricted chase offers no
//! such contract: whether a trigger fires depends on what happened to be
//! derived first, so an incremental run and a from-scratch run can
//! legitimately disagree (insert `R(a,b)` after chasing
//! `P(x) → ∃y R(x,y)` and the incremental instance keeps the null the
//! from-scratch run never mints).
//!
//! Support counting alone (no re-derive phase) is *not* sound here:
//! a self-supporting cycle — `A(x) → B(x)`, `B(x) → A(x)` with base
//! `A(a)` — keeps every count positive after `A(a)` is retracted even
//! though nothing is derivable any more. DRed's over-delete phase cuts
//! the whole cycle first; re-derivation only rescues atoms reachable from
//! *surviving* facts. `tests/maintenance_mutants.rs` pins these cases.

use crate::engine::{ChaseBudget, Delta, ObliviousChase};
use crate::plan::{Firing, TriggerPlan};
use crate::runner::ChaseVariant;
use crate::tgd::Tgd;
use gtgd_data::idhash::{IdHashMap, IdHashSet};
use gtgd_data::{obs, GroundAtom, Instance, Value};
use std::collections::{HashSet, VecDeque};

/// What one maintenance operation did. Every count is exact (not a
/// high-water mark), which is what lets the mutation-grade tests assert
/// per-phase outcomes instead of end states only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Triggers fired by this operation's delta chase (insert) or
    /// re-derivation chase (retract).
    pub triggers_fired: usize,
    /// Atoms the operation materialized (genuinely new to the instance).
    pub atoms_added: usize,
    /// Retract only: atoms placed in the DRed over-delete set — every atom
    /// reachable through a retracted fact's derivations, before rescue.
    pub atoms_overdeleted: usize,
    /// Retract only: over-deleted atoms rescued by an alive alternative
    /// support (or surviving base-fact status) instead of being removed.
    pub atoms_rederived: usize,
    /// Retract only: atoms physically removed from the instance.
    pub atoms_removed: usize,
}

/// Portable snapshot of a [`MaintainedInstance`]'s chase state — everything
/// *except* the instance itself (persisted separately as atoms + index
/// sections) and the TGDs (the caller owns the rule set and must supply the
/// same rules, in the same order, at import).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintainExport {
    /// Base (user-asserted) facts, in instance insertion order.
    pub base: Vec<GroundAtom>,
    /// Alive firings in firing order. Dead (tombstoned) firings are
    /// dropped: they exist only to keep in-memory ids stable, which a
    /// rebuild renumbers anyway.
    pub firings: Vec<Firing>,
    /// Whether the maintained instance is the true fixpoint.
    pub complete: bool,
    /// The atom cap of the maintenance budget, if any.
    pub max_atoms: Option<usize>,
}

/// The firing graph DRed walks: every recorded firing plus, per atom, the
/// firings producing it and the firings using it.
#[derive(Debug, Clone, Default)]
struct DepIndex {
    /// All recorded firings, in firing order; dead ones stay as
    /// tombstones so ids in the adjacency lists below never dangle.
    /// [`DepIndex::compact`] drops them once they outnumber the alive ones.
    /// A chase run appends here; [`DepIndex::link`] indexes what it
    /// appended.
    firings: Vec<Firing>,
    /// `alive[fid]` is cleared when a body atom of firing `fid` is
    /// over-deleted. Shorter than `firings` only between a run and the
    /// `link` that follows it.
    alive: Vec<bool>,
    /// How many of `firings` are dead.
    dead: usize,
    /// atom → ids of firings producing it (its supports). Only atoms of
    /// the instance are keys: retraction drops the keys of the atoms it
    /// removes.
    supports: IdHashMap<GroundAtom, Vec<usize>>,
    /// atom → ids of firings using it in their body. Keyed like
    /// `supports`.
    uses: IdHashMap<GroundAtom, Vec<usize>>,
}

impl DepIndex {
    /// The one indexing path: links the firings not yet linked (the tail
    /// past `alive`) as alive, each body rebuilt from its key
    /// ([`TriggerPlan::body_from_key`]) and passed to `check` with its
    /// firing first. Chase runs and snapshot import both index
    /// here. Fails on a rule index out of range, a key of the wrong arity,
    /// or the first error `check` returns.
    fn link(
        &mut self,
        plans: &[TriggerPlan],
        mut check: impl FnMut(&Firing, &[GroundAtom]) -> Result<(), String>,
    ) -> Result<(), String> {
        for fid in self.alive.len()..self.firings.len() {
            let f = &self.firings[fid];
            let Some(plan) = plans.get(f.tgd) else {
                return Err(format!(
                    "firing names rule {} but only {} rules were supplied",
                    f.tgd,
                    plans.len()
                ));
            };
            if f.key.len() != plan.key_slots.len() {
                return Err(format!(
                    "firing of rule {} has a {}-ary key, expected {}",
                    f.tgd,
                    f.key.len(),
                    plan.key_slots.len()
                ));
            }
            let body = plan.body_from_key(&f.key);
            check(f, &body)?;
            for b in body {
                self.uses.entry(b).or_default().push(fid);
            }
            for p in &f.products {
                self.supports.entry(p.clone()).or_default().push(fid);
            }
            self.alive.push(true);
        }
        Ok(())
    }

    /// The alive firings, in firing order.
    fn alive_firings(&self) -> impl Iterator<Item = &Firing> {
        self.firings
            .iter()
            .zip(&self.alive)
            .filter_map(|(f, &alive)| alive.then_some(f))
    }

    /// Once dead firings outnumber alive ones, drops them and renumbers
    /// the alive firings in place: the log keeps the alive records in
    /// firing order, an id map sends each alive id to its new one, and
    /// every adjacency list is filtered and rewritten through it (lists
    /// left empty go with their keys). No body is rebuilt and no atom is
    /// re-hashed. Each compaction at least halves `firings`, so its cost
    /// is amortized over the retractions that killed them, and `firings`
    /// never holds more than twice the alive firings after a retraction.
    fn compact(&mut self) {
        if self.dead <= self.firings.len() - self.dead {
            return;
        }
        let mut new_id = Vec::with_capacity(self.alive.len());
        let mut next = 0;
        for &alive in &self.alive {
            new_id.push(alive.then_some(next));
            next += usize::from(alive);
        }
        let mut fid = 0;
        self.firings.retain(|_| {
            fid += 1;
            new_id[fid - 1].is_some()
        });
        self.alive = vec![true; next];
        self.dead = 0;
        for lists in [&mut self.supports, &mut self.uses] {
            lists.retain(|_, fids| {
                fids.retain_mut(|fid| match new_id[*fid] {
                    Some(id) => {
                        *fid = id;
                        true
                    }
                    None => false,
                });
                !fids.is_empty()
            });
        }
    }

    /// Whether any firing in `fids` is alive.
    fn any_alive(&self, fids: Option<&Vec<usize>>) -> bool {
        fids.into_iter().flatten().any(|&fid| self.alive[fid])
    }
}

/// A live oblivious-chase fixpoint over a mutable base database. Built by
/// [`crate::ChaseRunner::maintain`]; updated by
/// [`insert`](MaintainedInstance::insert) and
/// [`retract`](MaintainedInstance::retract); read through
/// [`instance`](MaintainedInstance::instance). Compiled/prepared queries
/// evaluate against the instance reference directly — and take their
/// sorted/dense index snapshots per evaluation — so they stay valid
/// across any number of maintenance operations.
#[derive(Debug, Clone)]
pub struct MaintainedInstance {
    /// The engine state: plans and the instance.
    chase: ObliviousChase,
    budget: ChaseBudget,
    /// User-asserted facts. A base fact is never deleted by over-delete
    /// propagation alone — only by being explicitly retracted.
    base: IdHashSet<GroundAtom>,
    deps: DepIndex,
    complete: bool,
}

impl MaintainedInstance {
    /// Chases `db` to its oblivious fixpoint (within `budget`) and records
    /// the full dependency index. `budget` may cap atoms; level caps are
    /// rejected — an atom's level is not stable under base updates, so a
    /// level-capped prefix cannot be maintained.
    ///
    /// # Panics
    /// If `budget.max_level` is set.
    pub fn new(db: &Instance, tgds: &[Tgd], budget: ChaseBudget) -> MaintainedInstance {
        assert!(
            budget.max_level.is_none(),
            "MaintainedInstance maintains a fixpoint; level-capped prefixes are not maintainable"
        );
        let mut m = MaintainedInstance {
            chase: ObliviousChase::new(tgds, db.clone(), ChaseVariant::Oblivious),
            budget,
            base: db.iter().cloned().collect(),
            deps: DepIndex::default(),
            complete: true,
        };
        m.chase_from(Delta::Since(0), &mut MaintenanceReport::default());
        m
    }

    /// The maintained instance (the base facts plus everything derived).
    pub fn instance(&self) -> &Instance {
        &self.chase.instance
    }

    /// Whether `atom` is currently a base (user-asserted) fact.
    pub fn is_base(&self, atom: &GroundAtom) -> bool {
        self.base.contains(atom)
    }

    /// How many firing records the dependency index holds: the alive
    /// firings plus the dead ones kept until its next compaction (at most
    /// as many as the alive ones after a retraction).
    pub fn recorded_firings(&self) -> usize {
        self.deps.firings.len()
    }

    /// Whether the maintained instance is the true fixpoint, as opposed to
    /// an atom-budget-truncated prefix. Sticky: once an update hits the
    /// cap the flag stays false (a truncation is not repairable
    /// incrementally).
    pub fn complete(&self) -> bool {
        self.complete
    }

    /// Asserts base facts and chases only their consequences: the round
    /// loop starts from the atoms new to the instance, so it finds only
    /// triggers that never fired.
    pub fn insert(&mut self, atoms: impl IntoIterator<Item = GroundAtom>) -> MaintenanceReport {
        let _span = obs::span("maint.insert");
        let start = self.chase.instance.id_bound();
        for a in atoms {
            self.base.insert(a.clone());
            self.chase.instance.insert(a);
        }
        let mut report = MaintenanceReport {
            atoms_added: self.chase.instance.id_bound() - start,
            ..MaintenanceReport::default()
        };
        self.chase_from(Delta::Since(start), &mut report);
        report
    }

    /// Retracts base facts via DRed. Atoms not currently in the base are
    /// ignored (retracting a derived atom is meaningless — it would be
    /// re-derived immediately; retract its supports instead).
    pub fn retract(&mut self, atoms: impl IntoIterator<Item = GroundAtom>) -> MaintenanceReport {
        let _span = obs::span("maint.retract");
        let mut report = MaintenanceReport::default();
        // Phase 0: drop base status. Only atoms that actually were base
        // facts seed the over-delete.
        let mut worklist: VecDeque<GroundAtom> =
            atoms.into_iter().filter(|a| self.base.remove(a)).collect();
        if worklist.is_empty() {
            return report;
        }
        // Phase 1 — over-delete: everything transitively derived through a
        // deleted atom. Killing a firing with a dead body atom
        // conservatively dooms its products; rescue comes later.
        // `over_list` mirrors `over` in first-insertion order so every
        // later pass over the set is deterministic.
        let mut over: HashSet<GroundAtom> = HashSet::new();
        let mut over_list: Vec<GroundAtom> = Vec::new();
        while let Some(a) = worklist.pop_front() {
            if !over.insert(a.clone()) {
                continue;
            }
            over_list.push(a.clone());
            for &fid in self.deps.uses.get(&a).into_iter().flatten() {
                if !std::mem::replace(&mut self.deps.alive[fid], false) {
                    continue;
                }
                self.deps.dead += 1;
                for p in &self.deps.firings[fid].products {
                    if !over.contains(p) {
                        worklist.push_back(p.clone());
                    }
                }
            }
        }
        report.atoms_overdeleted = over.len();
        obs::count(obs::Metric::MaintAtomsOverdeleted, over.len() as u64);
        // Phase 2 — re-derive: an over-deleted atom survives if it is
        // still a base fact or some alive firing still produces it; the
        // rest is physically removed.
        let (rescued, doomed): (Vec<GroundAtom>, Vec<GroundAtom>) = over_list
            .into_iter()
            .partition(|a| self.base.contains(a) || self.deps.any_alive(self.deps.supports.get(a)));
        report.atoms_rederived = rescued.len();
        obs::count(obs::Metric::MaintAtomsRederived, rescued.len() as u64);
        report.atoms_removed = self.chase.instance.retract_atoms(&doomed);
        // Every firing that produces or uses a removed atom is dead, so
        // the atom's adjacency lists go with it. The tombstoned records
        // keep ids stable until the compaction below; the adjacency lists
        // are filtered by `alive` at every read.
        for a in &doomed {
            self.deps.supports.remove(a);
            self.deps.uses.remove(a);
        }
        // Re-run the round loop from the rescued atoms: every dead trigger
        // whose body survived has a rescued body atom, so pinning on the
        // rescue set rediscovers exactly the derivations DRed cut too
        // eagerly.
        let instance = &self.chase.instance;
        let mut ids: Vec<usize> = rescued
            .iter()
            .map(|a| instance.id_of(a).expect("rescued atoms stay"))
            .collect();
        ids.sort_unstable();
        self.chase_from(Delta::Atoms(ids), &mut report);
        self.deps.compact();
        report
    }

    /// Exports the chase state in portable form: base facts in insertion
    /// order, alive firings only (tombstones compacted), the completeness
    /// flag, and the budget's atom cap. Pair with the instance's own
    /// export to persist the whole maintained fixpoint.
    pub fn export_state(&self) -> MaintainExport {
        MaintainExport {
            base: self
                .chase
                .instance
                .iter()
                .filter(|a| self.base.contains(*a))
                .cloned()
                .collect(),
            firings: self.deps.alive_firings().cloned().collect(),
            complete: self.complete,
            max_atoms: self.budget.max_atoms,
        }
    }

    /// Reassembles a maintained instance from an exported chase state and
    /// an already-rebuilt `instance` (atoms restored in insertion order,
    /// index sections optionally installed). `tgds` must be the rule set
    /// the export was created under, in the same order — firing records
    /// name rules by index.
    ///
    /// The dependency index (`supports`/`uses`) is rebuilt from the
    /// exported firings: each firing's body is rebuilt from its trigger
    /// key (the step every chase run's firings are indexed by), and its
    /// body and products are checked against the instance — any
    /// inconsistency (dangling atom, out-of-range rule index, key arity
    /// mismatch) fails the whole import with a description rather than
    /// producing a silently wrong fixpoint. **No chase runs**: import cost
    /// is hashing the firing records, which is what makes snapshot load
    /// re-chase-free.
    pub fn from_parts(
        tgds: &[Tgd],
        export: &MaintainExport,
        instance: Instance,
    ) -> Result<MaintainedInstance, String> {
        let mut m = MaintainedInstance {
            chase: ObliviousChase::new(tgds, instance, ChaseVariant::Oblivious),
            budget: ChaseBudget {
                max_level: None,
                max_atoms: export.max_atoms,
            },
            base: IdHashSet::default(),
            deps: DepIndex::default(),
            complete: export.complete,
        };
        for a in &export.base {
            if !m.chase.instance.contains(a) {
                return Err(format!("base fact {a} missing from the instance"));
            }
            m.base.insert(a.clone());
        }
        let ObliviousChase {
            plans,
            instance,
            empty_fired,
            ..
        } = &mut m.chase;
        let mut keys: IdHashSet<(usize, &[Value])> =
            IdHashSet::with_capacity_and_hasher(export.firings.len(), Default::default());
        if let Some(f) = (export.firings.iter()).find(|f| !keys.insert((f.tgd, &f.key))) {
            return Err(format!("duplicate firing of rule {}", f.tgd));
        }
        drop(keys);
        m.deps.firings = export.firings.clone();
        m.deps.link(plans, |f, body| {
            if let Some(b) = body.iter().find(|b| !instance.contains(b)) {
                return Err(format!("firing body atom {b} missing from the instance"));
            }
            match f.products.iter().find(|p| !instance.contains(p)) {
                Some(p) => Err(format!("firing product {p} missing from the instance")),
                None => Ok(()),
            }
        })?;
        *empty_fired = export
            .firings
            .iter()
            .any(|f| plans[f.tgd].body_atoms.is_empty());
        // Every non-base atom must have a support: otherwise a later
        // retraction would "rescue" atoms that nothing derives.
        for a in m.chase.instance.iter() {
            if !m.base.contains(a) && !m.deps.supports.contains_key(a) {
                return Err(format!(
                    "atom {a} is neither base nor derived by any firing"
                ));
            }
        }
        Ok(m)
    }

    /// Runs the round loop from `delta` on the persistent state, logging
    /// every firing into the dependency index, and links them there.
    fn chase_from(&mut self, delta: Delta, report: &mut MaintenanceReport) {
        let run = self
            .chase
            .run(delta, &self.budget, None, Some(&mut self.deps.firings));
        self.deps
            .link(&self.chase.plans, |_, _| Ok(()))
            .expect("the run's firings were recorded under these plans");
        report.triggers_fired += run.fired;
        report.atoms_added += run.added;
        self.complete &= run.complete;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::chase;
    use crate::tgd::parse_tgds;
    use gtgd_query::instance_isomorphic;

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    #[test]
    fn initial_build_matches_from_scratch_chase() {
        let tgds = parse_tgds("A(X) -> B(X). B(X) -> R(X,Y). R(X,Y), A(X) -> C(Y)").unwrap();
        let d = db(&[("A", &["a"]), ("A", &["b"])]);
        let m = MaintainedInstance::new(&d, &tgds, ChaseBudget::unbounded());
        let scratch = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert!(m.complete());
        assert!(instance_isomorphic(m.instance(), &scratch.instance));
    }

    #[test]
    fn insert_extends_to_the_rechased_fixpoint() {
        let tgds = parse_tgds("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let d = db(&[("E", &["a", "b"]), ("E", &["b", "c"])]);
        let mut m = MaintainedInstance::new(&d, &tgds, ChaseBudget::unbounded());
        let rep = m.insert([GroundAtom::named("E", &["c", "d"])]);
        assert!(rep.triggers_fired > 0);
        let mut grown = d.clone();
        grown.insert(GroundAtom::named("E", &["c", "d"]));
        let scratch = chase(&grown, &tgds, &ChaseBudget::unbounded());
        assert!(instance_isomorphic(m.instance(), &scratch.instance));
    }

    #[test]
    fn duplicate_insert_is_a_noop() {
        let tgds = parse_tgds("A(X) -> B(X)").unwrap();
        let d = db(&[("A", &["a"])]);
        let mut m = MaintainedInstance::new(&d, &tgds, ChaseBudget::unbounded());
        let rep = m.insert([GroundAtom::named("A", &["a"])]);
        assert_eq!(rep, MaintenanceReport::default());
        assert_eq!(m.instance().len(), 2);
    }

    #[test]
    fn retract_removes_the_derivation_cone() {
        let tgds = parse_tgds("A(X) -> B(X). B(X) -> C(X)").unwrap();
        let d = db(&[("A", &["a"]), ("A", &["b"])]);
        let mut m = MaintainedInstance::new(&d, &tgds, ChaseBudget::unbounded());
        let rep = m.retract([GroundAtom::named("A", &["a"])]);
        assert_eq!(rep.atoms_overdeleted, 3); // A(a), B(a), C(a)
        assert_eq!(rep.atoms_rederived, 0);
        assert_eq!(rep.atoms_removed, 3);
        let rest = db(&[("A", &["b"])]);
        let scratch = chase(&rest, &tgds, &ChaseBudget::unbounded());
        assert!(instance_isomorphic(m.instance(), &scratch.instance));
    }

    #[test]
    fn retract_of_an_unknown_or_derived_atom_is_a_noop() {
        let tgds = parse_tgds("A(X) -> B(X)").unwrap();
        let d = db(&[("A", &["a"])]);
        let mut m = MaintainedInstance::new(&d, &tgds, ChaseBudget::unbounded());
        // B(a) is derived, not base; Z(q) is absent entirely.
        let rep = m.retract([
            GroundAtom::named("B", &["a"]),
            GroundAtom::named("Z", &["q"]),
        ]);
        assert_eq!(rep, MaintenanceReport::default());
        assert_eq!(m.instance().len(), 2);
    }

    #[test]
    fn retract_then_reinsert_roundtrips_up_to_isomorphism() {
        let tgds = parse_tgds("Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D)").unwrap();
        let d = db(&[("Emp", &["ann"]), ("Emp", &["bob"])]);
        let mut m = MaintainedInstance::new(&d, &tgds, ChaseBudget::unbounded());
        m.retract([GroundAtom::named("Emp", &["ann"])]);
        m.insert([GroundAtom::named("Emp", &["ann"])]);
        let scratch = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert!(instance_isomorphic(m.instance(), &scratch.instance));
    }

    #[test]
    fn base_fact_that_is_also_derived_survives_retraction_of_its_support() {
        // B(a) is both asserted and derived from A(a): retracting A(a)
        // over-deletes B(a) but base status rescues it.
        let tgds = parse_tgds("A(X) -> B(X)").unwrap();
        let d = db(&[("A", &["a"]), ("B", &["a"])]);
        let mut m = MaintainedInstance::new(&d, &tgds, ChaseBudget::unbounded());
        let rep = m.retract([GroundAtom::named("A", &["a"])]);
        assert_eq!(rep.atoms_overdeleted, 2);
        assert_eq!(rep.atoms_rederived, 1);
        assert_eq!(rep.atoms_removed, 1);
        assert!(m.instance().contains(&GroundAtom::named("B", &["a"])));
        assert!(!m.instance().contains(&GroundAtom::named("A", &["a"])));
    }

    #[test]
    fn export_from_parts_round_trips_and_keeps_maintaining() {
        let tgds =
            parse_tgds("Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D). Dept(D) -> Audited(D)")
                .unwrap();
        let d = db(&[("Emp", &["ann"]), ("Emp", &["bob"])]);
        let mut m = MaintainedInstance::new(&d, &tgds, ChaseBudget::unbounded());
        let export = m.export_state();
        assert!(export.complete);
        assert_eq!(export.base.len(), 2);
        assert_eq!(export.firings.len(), 6); // 3 rules × 2 employees

        // Rebuild the instance the way a snapshot load does: re-insert the
        // atoms in insertion order.
        let rebuilt = Instance::from_atoms(m.instance().iter().cloned());
        let mut r = MaintainedInstance::from_parts(&tgds, &export, rebuilt).unwrap();
        assert!(r.complete());
        assert_eq!(r.instance(), m.instance());

        // The restored fixpoint keeps maintaining: the same mutations on
        // both sides stay isomorphic (null labels differ — the delta
        // chases mint their own).
        for mi in [&mut m, &mut r] {
            mi.retract([GroundAtom::named("Emp", &["ann"])]);
            mi.insert([GroundAtom::named("Emp", &["carol"])]);
        }
        assert!(instance_isomorphic(m.instance(), r.instance()));
        // And neither re-fires persisted triggers: inserting an existing
        // base fact is still a no-op after the round trip.
        assert_eq!(
            r.insert([GroundAtom::named("Emp", &["bob"])]),
            MaintenanceReport::default()
        );
    }

    #[test]
    fn from_parts_rejects_inconsistent_exports() {
        let tgds = parse_tgds("A(X) -> B(X)").unwrap();
        let m = MaintainedInstance::new(&db(&[("A", &["a"])]), &tgds, ChaseBudget::unbounded());
        let good = m.export_state();
        let rebuilt = || Instance::from_atoms(m.instance().iter().cloned());

        let mut missing_base = good.clone();
        missing_base.base.push(GroundAtom::named("A", &["ghost"]));
        assert!(
            MaintainedInstance::from_parts(&tgds, &missing_base, rebuilt())
                .unwrap_err()
                .contains("base fact")
        );

        let mut bad_rule = good.clone();
        bad_rule.firings[0].tgd = 7;
        assert!(MaintainedInstance::from_parts(&tgds, &bad_rule, rebuilt())
            .unwrap_err()
            .contains("rules were supplied"));

        let mut bad_key = good.clone();
        bad_key.firings[0].key.push(Value::named("extra"));
        assert!(MaintainedInstance::from_parts(&tgds, &bad_key, rebuilt())
            .unwrap_err()
            .contains("key"));

        let mut orphan = good.clone();
        orphan.firings.clear();
        assert!(MaintainedInstance::from_parts(&tgds, &orphan, rebuilt())
            .unwrap_err()
            .contains("neither base nor derived"));

        // Dropping the derived atom's product from the firing must also
        // fail (the product list no longer covers the instance).
        let mut no_product = good.clone();
        no_product.firings[0].products.clear();
        assert!(MaintainedInstance::from_parts(&tgds, &no_product, rebuilt()).is_err());
    }

    #[test]
    fn dependency_index_stays_bounded_under_write_cycles() {
        // Each cycle retracts and re-inserts a base fact, then inserts and
        // retracts a fresh one: the instance and its alive firings keep
        // one size, so the dependency index must too.
        let tgds =
            parse_tgds("Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D). Dept(D) -> HasHead(D,H)")
                .unwrap();
        let emps: Vec<String> = (0..20).map(|i| format!("e{i}")).collect();
        let base = Instance::from_atoms(emps.iter().map(|e| GroundAtom::named("Emp", &[e])));
        let mut m = MaintainedInstance::new(&base, &tgds, ChaseBudget::unbounded());
        let atoms = m.instance().len();
        let (mut instance_compactions, mut index_compactions) = (0, 0);
        for i in 0..300 {
            let (bound, logged) = (m.instance().id_bound(), m.deps.firings.len());
            let e = GroundAtom::named("Emp", &[&emps[i % emps.len()]]);
            m.retract([e.clone()]);
            m.insert([e]);
            let fresh = GroundAtom::named("Emp", &[&format!("x{i}")]);
            m.insert([fresh.clone()]);
            m.retract([fresh]);

            assert_eq!(m.instance().len(), atoms);
            let deps = &m.deps;
            let alive = deps.alive.iter().filter(|&&a| a).count();
            assert_eq!(alive, 3 * emps.len(), "cycle {i}");
            assert!(deps.firings.len() <= 2 * alive, "cycle {i}");
            assert!(deps.supports.len() <= atoms, "cycle {i}");
            assert!(deps.uses.len() <= atoms, "cycle {i}");
            // Tombstoned atom ids are bounded the same way.
            assert!(m.instance().id_bound() <= 2 * atoms, "cycle {i}");
            instance_compactions += usize::from(m.instance().id_bound() < bound);
            index_compactions += usize::from(deps.firings.len() < logged);
        }
        assert!(instance_compactions > 0 && index_compactions > 0);
    }

    #[test]
    fn atom_budget_truncates_and_marks_incomplete() {
        let tgds = parse_tgds("P(X) -> Q(X,Y). Q(X,Y) -> P(Y)").unwrap();
        let d = db(&[("P", &["a"])]);
        let m = MaintainedInstance::new(&d, &tgds, ChaseBudget::atoms(20));
        assert!(!m.complete());
        assert!(m.instance().len() >= 20);
    }

    #[test]
    #[should_panic(expected = "level-capped")]
    fn level_budgets_are_rejected() {
        let tgds = parse_tgds("A(X) -> B(X)").unwrap();
        MaintainedInstance::new(&db(&[("A", &["a"])]), &tgds, ChaseBudget::levels(3));
    }
}
