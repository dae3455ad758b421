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
//!   handful of pinned index probes instead of a full re-chase. The
//!   engine's *persistent* fired set (`(TGD, trigger key)`) carries the
//!   oblivious once-per-trigger discipline across updates.
//! * [`retract`](MaintainedInstance::retract) runs **DRed**
//!   (delete-and-re-derive) over the per-firing dependency index recorded
//!   at insert time: first *over-delete* everything transitively derived
//!   through a retracted atom, then *re-derive* — rescue the over-deleted
//!   atoms that still have an alive alternative support (or are surviving
//!   base facts), physically remove the rest, and re-run the round loop
//!   from the rescued atoms so the purged triggers whose bodies survived
//!   can re-fire.
//!
//! Every firing of those runs is recorded, through the engine's firing
//! observer, into the dependency index (`supports`/`uses`) DRed walks.
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

use crate::engine::{ChaseBudget, Delta, FiringObserver, ObliviousChase};
use crate::plan::TriggerPlan;
use crate::tgd::Tgd;
use gtgd_data::{obs, GroundAtom, Instance, Value};
use std::collections::{HashMap, HashSet, VecDeque};

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

/// One *alive* firing in portable form, as persisted by snapshots: the
/// `(TGD index, trigger key)` pair plus the produced head atoms. The
/// firing's body atoms are **not** stored — the key is the full body
/// valuation in ascending-variable order, so the body is reconstructed at
/// load via `TriggerPlan::row_from_key` +
/// `ground_body`. Dead (tombstoned) firings are compacted away at export:
/// they exist only to keep in-memory ids stable, which a rebuild
/// renumbers anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiringExport {
    /// TGD index in the rule set.
    pub tgd: usize,
    /// The oblivious trigger key (body-variable images, ascending
    /// variable order).
    pub key: Vec<Value>,
    /// The head atoms the firing produced.
    pub products: Vec<GroundAtom>,
}

/// Portable snapshot of a [`MaintainedInstance`]'s chase state — everything
/// *except* the instance itself (persisted separately as atoms + index
/// sections) and the TGDs (the caller owns the rule set and must supply the
/// same rules, in the same order, at import).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintainExport {
    /// Base (user-asserted) facts, in instance insertion order.
    pub base: Vec<GroundAtom>,
    /// Alive firings in firing-id order.
    pub firings: Vec<FiringExport>,
    /// Whether the maintained instance is the true fixpoint.
    pub complete: bool,
    /// The atom cap of the maintenance budget, if any.
    pub max_atoms: Option<usize>,
}

/// One recorded trigger firing: the dependency-graph edge set DRed walks.
/// Records stay in place when killed (`alive = false`) so firing ids in
/// the `supports`/`uses` adjacency lists remain stable.
#[derive(Debug, Clone)]
struct Firing {
    /// TGD index (pairs with `key` as the fired-set entry to purge).
    tgd: usize,
    /// The oblivious trigger key (body-variable images).
    key: Vec<Value>,
    /// The head atoms the firing produced.
    products: Vec<GroundAtom>,
    /// Cleared when a body atom is over-deleted.
    alive: bool,
}

/// The firing graph DRed walks: every recorded firing plus, per atom, the
/// firings producing it and the firings using it.
#[derive(Debug, Clone, Default)]
struct DepIndex {
    /// All recorded firings; dead ones stay as tombstones so ids in the
    /// adjacency lists below never dangle.
    firings: Vec<Firing>,
    /// atom → ids of firings producing it (its supports).
    supports: HashMap<GroundAtom, Vec<usize>>,
    /// atom → ids of firings using it in their body.
    uses: HashMap<GroundAtom, Vec<usize>>,
}

impl DepIndex {
    /// Records one firing of rule `tgd` with trigger key `key`, body atoms
    /// `body`, producing `products`.
    fn record(
        &mut self,
        tgd: usize,
        key: Vec<Value>,
        body: Vec<GroundAtom>,
        products: &[GroundAtom],
    ) {
        let fid = self.firings.len();
        for b in body {
            self.uses.entry(b).or_default().push(fid);
        }
        for p in products {
            self.supports.entry(p.clone()).or_default().push(fid);
        }
        self.firings.push(Firing {
            tgd,
            key,
            products: products.to_vec(),
            alive: true,
        });
    }

    /// Whether any firing in `fids` is alive.
    fn any_alive(&self, fids: Option<&Vec<usize>>) -> bool {
        fids.into_iter()
            .flatten()
            .any(|&fid| self.firings[fid].alive)
    }
}

impl FiringObserver for DepIndex {
    fn fired(
        &mut self,
        plan: &TriggerPlan,
        row: &[Value],
        _nulls: &[Value],
        products: &[GroundAtom],
    ) {
        self.record(
            plan.index,
            plan.trigger_key(row),
            plan.ground_body(row),
            products,
        );
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
    /// The engine state: plans, the instance, and the fired set, which
    /// holds the `(TGD index, trigger key)` of every firing not yet purged
    /// by retraction.
    chase: ObliviousChase,
    budget: ChaseBudget,
    /// User-asserted facts. A base fact is never deleted by over-delete
    /// propagation alone — only by being explicitly retracted.
    base: HashSet<GroundAtom>,
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
            chase: ObliviousChase::new(tgds, db.clone()),
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

    /// Whether the maintained instance is the true fixpoint, as opposed to
    /// an atom-budget-truncated prefix. Sticky: once an update hits the
    /// cap the flag stays false (a truncation is not repairable
    /// incrementally).
    pub fn complete(&self) -> bool {
        self.complete
    }

    /// Asserts base facts and chases only their consequences: the round
    /// loop starts from the atoms new to the instance, and the persistent
    /// fired set keeps every previously fired trigger from firing again.
    pub fn insert(&mut self, atoms: impl IntoIterator<Item = GroundAtom>) -> MaintenanceReport {
        let _span = obs::span("maint.insert");
        let start = self.chase.instance.len();
        for a in atoms {
            self.base.insert(a.clone());
            self.chase.instance.insert(a);
        }
        let mut report = MaintenanceReport {
            atoms_added: self.chase.instance.len() - start,
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
        let mut dead_firings: Vec<usize> = Vec::new();
        while let Some(a) = worklist.pop_front() {
            if !over.insert(a.clone()) {
                continue;
            }
            over_list.push(a.clone());
            for &fid in self.deps.uses.get(&a).into_iter().flatten() {
                if !self.deps.firings[fid].alive {
                    continue;
                }
                self.deps.firings[fid].alive = false;
                dead_firings.push(fid);
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
        let rescued: Vec<GroundAtom> = over_list
            .iter()
            .filter(|a| self.base.contains(*a) || self.deps.any_alive(self.deps.supports.get(*a)))
            .cloned()
            .collect();
        report.atoms_rederived = rescued.len();
        obs::count(obs::Metric::MaintAtomsRederived, rescued.len() as u64);
        let rescued_set: HashSet<&GroundAtom> = rescued.iter().collect();
        let doomed: Vec<GroundAtom> = over_list
            .iter()
            .filter(|a| !rescued_set.contains(*a))
            .cloned()
            .collect();
        report.atoms_removed = self.chase.instance.retract_atoms(&doomed);
        // Purge dead firings from the fired set so their triggers can
        // re-fire (with fresh nulls — correct up to isomorphism) if their
        // bodies still hold. The tombstoned records keep ids stable; the
        // adjacency lists are filtered by `alive` at every read.
        for &fid in &dead_firings {
            let f = &self.deps.firings[fid];
            self.chase.fired.remove(&(f.tgd, f.key.clone()));
        }
        // Re-run the round loop from the rescued atoms: every purged
        // trigger whose body survived has a rescued body atom, so pinning
        // on the rescue set rediscovers exactly the derivations DRed cut
        // too eagerly.
        self.chase_from(Delta::Atoms(rescued), &mut report);
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
            firings: self
                .deps
                .firings
                .iter()
                .filter(|f| f.alive)
                .map(|f| FiringExport {
                    tgd: f.tgd,
                    key: f.key.clone(),
                    products: f.products.clone(),
                })
                .collect(),
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
    /// exported firings: each firing's body row is reconstructed from its
    /// trigger key (`TriggerPlan::row_from_key`), and its
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
            chase: ObliviousChase::new(tgds, instance),
            budget: ChaseBudget {
                max_level: None,
                max_atoms: export.max_atoms,
            },
            base: HashSet::new(),
            deps: DepIndex::default(),
            complete: export.complete,
        };
        m.deps.firings.reserve(export.firings.len());
        for a in &export.base {
            if !m.chase.instance.contains(a) {
                return Err(format!("base fact {a} missing from the instance"));
            }
            m.base.insert(a.clone());
        }
        for f in &export.firings {
            let Some(plan) = m.chase.plans.get(f.tgd) else {
                return Err(format!(
                    "firing names rule {} but only {} rules were supplied",
                    f.tgd,
                    m.chase.plans.len()
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
            if !m.chase.fired.insert((f.tgd, f.key.clone())) {
                return Err(format!("duplicate firing of rule {}", f.tgd));
            }
            let body = plan.ground_body(&plan.row_from_key(&f.key));
            if let Some(b) = body.iter().find(|b| !m.chase.instance.contains(b)) {
                return Err(format!("firing body atom {b} missing from the instance"));
            }
            for p in &f.products {
                if !m.chase.instance.contains(p) {
                    return Err(format!("firing product {p} missing from the instance"));
                }
            }
            m.deps.record(f.tgd, f.key.clone(), body, &f.products);
        }
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

    /// Runs the round loop from `delta` on the persistent state,
    /// recording every firing into the dependency index.
    fn chase_from(&mut self, delta: Delta, report: &mut MaintenanceReport) {
        let run = self.chase.run(delta, &self.budget, None, &mut self.deps);
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
