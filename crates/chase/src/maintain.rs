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
//! [`Firing`] records. One step links the log's unlinked tail into what
//! DRed walks, all keyed by atom id: each firing's body atom and product
//! ids, and per atom id the lists of firings producing and using it. The
//! body is re-grounded from the key and the products from the key and
//! the fresh nulls, each into a reused buffer, and every atom is found by
//! a lookup in the instance, so no atom is cloned. A retraction links
//! what the runs since the previous one logged before it walks the index,
//! so a build or an insert leaves its firings unlinked.
//! Base facts are a bitset over atom ids. The instance's compaction, its
//! only renumbering point, reports the ids it dropped, and the lists, the
//! firing ids and the base bits are renumbered the same way. A
//! compaction of the index itself drops the dead records and renumbers
//! the firing ids in place.
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
use gtgd_data::idhash::IdHashSet;
use gtgd_data::{obs, GroundAtom, IdBits, Instance};
use std::collections::VecDeque;

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

/// What [`compaction_map`] sends a dropped id to.
const DROPPED: u32 = u32::MAX;

/// The id map of an instance compaction ([`Instance::retract_ids`]) over
/// `bound` slots that dropped the ascending ids `dropped`: entry `id` is
/// the new id of surviving atom `id`, or [`DROPPED`].
fn compaction_map(bound: usize, dropped: &[usize]) -> Vec<u32> {
    let mut map = Vec::with_capacity(bound);
    let mut gone = dropped.iter().peekable();
    let mut next = 0u32;
    for id in 0..bound {
        if gone.next_if_eq(&&id).is_some() {
            map.push(DROPPED);
        } else {
            map.push(next);
            next += 1;
        }
    }
    map
}

/// An atom id, firing id or span offset as the dependency index stores
/// it.
fn id32(id: usize) -> u32 {
    u32::try_from(id).expect("atom and firing ids fit u32")
}

/// Where one linked firing's atom ids sit in [`DepIndex::atom_ids`]: its
/// body atoms' ids (in body order) at `body..products`, then its
/// products' ids (in head order) at `products..end`.
#[derive(Debug, Clone, Copy)]
struct Span {
    body: u32,
    products: u32,
    end: u32,
}

/// The firing graph DRed walks: every recorded firing with the ids of the
/// atoms it used and produced, plus, per atom id, the firings producing it
/// and the firings using it. Every atom id an alive firing or a list
/// holds names a live atom of the instance the index was linked against;
/// the instance's compaction, its only renumbering point, is replayed
/// here by [`DepIndex::renumber_atoms`].
#[derive(Debug, Clone, Default)]
struct DepIndex {
    /// All recorded firings, in firing order; dead ones stay as
    /// tombstones so ids in the adjacency lists below never dangle.
    /// [`DepIndex::compact`] drops them once they outnumber the alive ones.
    /// A chase run appends here; [`DepIndex::link`] indexes what was
    /// appended, but only once a retraction needs it: the firings past
    /// `alive` are recorded, alive and not yet linked.
    firings: Vec<Firing>,
    /// `alive[fid]` is cleared when a body atom of firing `fid` is
    /// over-deleted. One entry per linked firing, like `spans`.
    alive: Vec<bool>,
    /// How many of `firings` are dead.
    dead: usize,
    /// Each linked firing's span of `atom_ids`.
    spans: Vec<Span>,
    /// The atom ids of every linked firing, back to back. A dead firing's
    /// ids are never read again, so they may name atoms since removed.
    atom_ids: Vec<u32>,
    /// Indexed by atom id (as long as the instance's `id_bound()` after
    /// every link): the ids of the firings producing the atom (its
    /// supports). A removed atom's list is emptied with it.
    supports: Vec<Vec<u32>>,
    /// Indexed like `supports`: the ids of the firings using the atom in
    /// their body.
    uses: Vec<Vec<u32>>,
}

impl DepIndex {
    /// The one indexing path: links the firings not yet linked (the tail
    /// past `alive`) as alive. Each body and head is re-grounded
    /// ([`TriggerPlan::body_into`], [`TriggerPlan::head_into`]) into a
    /// reused buffer, and every body atom and product is looked up in
    /// `instance` by reference, so no atom is cloned. Every firing was
    /// logged by a run under `plans` on `instance`, and no atom was
    /// removed since, so every lookup hits.
    fn link(&mut self, plans: &[TriggerPlan], instance: &Instance) {
        self.supports.resize_with(instance.id_bound(), Vec::new);
        self.uses.resize_with(instance.id_bound(), Vec::new);
        let (mut body, mut head) = (Vec::new(), Vec::new());
        let id_of = |a: &GroundAtom| instance.id_of(a).expect("a logged atom is in the instance");
        for fid in self.alive.len()..self.firings.len() {
            let f = &self.firings[fid];
            let plan = &plans[f.tgd];
            plan.body_into(&f.key, &mut body);
            plan.head_into(&f.key, &f.nulls, &mut head);
            let fid = id32(fid);
            let start = id32(self.atom_ids.len());
            for b in &body {
                let id = id_of(b);
                self.uses[id].push(fid);
                self.atom_ids.push(id32(id));
            }
            let products = id32(self.atom_ids.len());
            for p in &head {
                let id = id_of(p);
                self.supports[id].push(fid);
                self.atom_ids.push(id32(id));
            }
            self.spans.push(Span {
                body: start,
                products,
                end: id32(self.atom_ids.len()),
            });
            self.alive.push(true);
        }
    }

    /// The alive firings, in firing order: the linked ones still alive,
    /// then the unlinked tail.
    fn alive_firings(&self) -> impl Iterator<Item = &Firing> {
        let alive = self.alive.iter().copied().chain(std::iter::repeat(true));
        self.firings
            .iter()
            .zip(alive)
            .filter_map(|(f, alive)| alive.then_some(f))
    }

    /// The ids of the body atoms of linked firing `fid`, in body order.
    #[cfg(test)]
    fn body_ids(&self, fid: usize) -> &[u32] {
        let s = self.spans[fid];
        &self.atom_ids[s.body as usize..s.products as usize]
    }

    /// The ids of the products of linked firing `fid`, in head order.
    fn product_ids(&self, fid: usize) -> &[u32] {
        let s = self.spans[fid];
        &self.atom_ids[s.products as usize..s.end as usize]
    }

    /// Whether any firing in `fids` is alive.
    fn any_alive(&self, fids: &[u32]) -> bool {
        fids.iter().any(|&fid| self.alive[fid as usize])
    }

    /// Once dead firings outnumber alive ones, drops them and renumbers
    /// the alive firings in place: the log and the spans keep the alive
    /// records in firing order (their atom ids close up behind them), an
    /// id map sends each alive id to its new one, and every adjacency
    /// list is filtered and rewritten through it. No body is regrounded
    /// and no atom is hashed. Each compaction at least halves `firings`,
    /// so its cost is amortized over the retractions that killed them,
    /// and `firings` never holds more than twice the alive firings after
    /// a retraction.
    fn compact(&mut self) {
        debug_assert_eq!(
            self.alive.len(),
            self.firings.len(),
            "compaction links first"
        );
        if self.dead <= self.firings.len() - self.dead {
            return;
        }
        let mut new_id = Vec::with_capacity(self.alive.len());
        let mut next = 0u32;
        for &alive in &self.alive {
            new_id.push(if alive { next } else { DROPPED });
            next += u32::from(alive);
        }
        let mut fid = 0;
        self.firings.retain(|_| {
            fid += 1;
            new_id[fid - 1] != DROPPED
        });
        let (mut spans, mut kept) = (Vec::with_capacity(next as usize), 0);
        for (s, &id) in self.spans.iter().zip(&new_id) {
            if id == DROPPED {
                continue;
            }
            self.atom_ids
                .copy_within(s.body as usize..s.end as usize, kept);
            let body = id32(kept);
            kept += (s.end - s.body) as usize;
            spans.push(Span {
                body,
                products: body + (s.products - s.body),
                end: id32(kept),
            });
        }
        self.atom_ids.truncate(kept);
        self.spans = spans;
        self.alive = vec![true; next as usize];
        self.dead = 0;
        for fids in self.supports.iter_mut().chain(&mut self.uses) {
            fids.retain_mut(|fid| {
                *fid = new_id[*fid as usize];
                *fid != DROPPED
            });
        }
    }

    /// Replays an instance compaction (`new_id` from [`compaction_map`]):
    /// the dropped atoms' lists, already emptied, go, and every span id
    /// moves to its new id. A dead firing may name a dropped atom; such
    /// ids turn to [`DROPPED`], stay so, and are never read again.
    fn renumber_atoms(&mut self, new_id: &[u32]) {
        for lists in [&mut self.supports, &mut self.uses] {
            let mut id = 0;
            lists.retain(|fids| {
                id += 1;
                debug_assert!(new_id[id - 1] != DROPPED || fids.is_empty());
                new_id[id - 1] != DROPPED
            });
        }
        for id in &mut self.atom_ids {
            if *id != DROPPED {
                *id = new_id[*id as usize];
            }
        }
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
    /// The ids of the user-asserted facts. A base fact is never deleted
    /// by over-delete propagation alone — only by being explicitly
    /// retracted.
    base: IdBits,
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
        MaintainedInstance::rechase(db.clone(), tgds, budget, budget)
    }

    /// Like [`MaintainedInstance::new`], but takes the base facts by value
    /// and runs the first chase under `first` (a snapshot thaw caps it at
    /// the saved state's size); later updates run under `budget`.
    ///
    /// # Panics
    /// If either budget caps levels.
    pub fn rechase(
        base: Instance,
        tgds: &[Tgd],
        first: ChaseBudget,
        budget: ChaseBudget,
    ) -> MaintainedInstance {
        assert!(
            first.max_level.is_none() && budget.max_level.is_none(),
            "MaintainedInstance maintains a fixpoint; level-capped prefixes are not maintainable"
        );
        let bits = base.iter_ids().map(|(id, _)| id).collect();
        let mut m = MaintainedInstance {
            chase: ObliviousChase::new(tgds, base, ChaseVariant::Oblivious),
            budget: first,
            base: bits,
            deps: DepIndex::default(),
            complete: true,
        };
        m.chase_from(Delta::Since(0), &mut MaintenanceReport::default());
        m.budget = budget;
        m
    }

    /// The maintained instance (the base facts plus everything derived).
    pub fn instance(&self) -> &Instance {
        &self.chase.instance
    }

    /// Whether `atom` is currently a base (user-asserted) fact.
    pub fn is_base(&self, atom: &GroundAtom) -> bool {
        (self.chase.instance.id_of(atom)).is_some_and(|id| self.base.contains(id))
    }

    /// The base facts, in instance order.
    pub fn base_facts(&self) -> impl Iterator<Item = &GroundAtom> {
        self.base.iter().map(|id| self.chase.instance.atom(id))
    }

    /// The alive firings, in firing order: one per trigger of the
    /// fixpoint.
    pub fn alive_firings(&self) -> impl Iterator<Item = &Firing> {
        self.deps.alive_firings()
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

    /// The atom cap of the maintenance budget, if any.
    pub fn max_atoms(&self) -> Option<usize> {
        self.budget.max_atoms
    }

    /// Asserts base facts and chases only their consequences: the round
    /// loop starts from the atoms new to the instance, so it finds only
    /// triggers that never fired.
    pub fn insert(&mut self, atoms: impl IntoIterator<Item = GroundAtom>) -> MaintenanceReport {
        let _span = obs::span("maint.insert");
        let instance = &mut self.chase.instance;
        let start = instance.id_bound();
        for a in atoms {
            let id = instance.id_of(&a).unwrap_or(instance.id_bound());
            instance.insert(a);
            self.base.insert(id);
        }
        let mut report = MaintenanceReport {
            atoms_added: instance.id_bound() - start,
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
        let instance = &self.chase.instance;
        let mut worklist: VecDeque<usize> = atoms
            .into_iter()
            .filter_map(|a| instance.id_of(&a))
            .filter(|&id| self.base.remove(id))
            .collect();
        if worklist.is_empty() {
            return report;
        }
        self.link();
        // Phase 1 — over-delete: everything transitively derived through a
        // deleted atom. Killing a firing with a dead body atom
        // conservatively dooms its products; rescue comes later.
        // `over_list` mirrors `over` in first-insertion order so every
        // later pass over the set is deterministic.
        let deps = &mut self.deps;
        let mut over: IdHashSet<usize> = IdHashSet::default();
        let mut over_list: Vec<usize> = Vec::new();
        while let Some(a) = worklist.pop_front() {
            if !over.insert(a) {
                continue;
            }
            over_list.push(a);
            for &fid in &deps.uses[a] {
                if !std::mem::replace(&mut deps.alive[fid as usize], false) {
                    continue;
                }
                deps.dead += 1;
                for &p in deps.product_ids(fid as usize) {
                    if !over.contains(&(p as usize)) {
                        worklist.push_back(p as usize);
                    }
                }
            }
        }
        report.atoms_overdeleted = over.len();
        obs::count(obs::Metric::MaintAtomsOverdeleted, over.len() as u64);
        // Phase 2 — re-derive: an over-deleted atom survives if it is
        // still a base fact or some alive firing still produces it; the
        // rest is physically removed.
        let (mut rescued, doomed): (Vec<usize>, Vec<usize>) = over_list
            .into_iter()
            .partition(|&a| self.base.contains(a) || deps.any_alive(&deps.supports[a]));
        report.atoms_rederived = rescued.len();
        obs::count(obs::Metric::MaintAtomsRederived, rescued.len() as u64);
        // Every firing that produces or uses a removed atom is dead, so
        // the atom's adjacency lists go with it. The tombstoned records
        // keep firing ids stable until the compaction below; the
        // adjacency lists are filtered by `alive` at every read.
        for &a in &doomed {
            deps.supports[a] = Vec::new();
            deps.uses[a] = Vec::new();
        }
        report.atoms_removed = doomed.len();
        let bound = self.chase.instance.id_bound();
        if let Some(dropped) = self.chase.instance.retract_ids(&doomed) {
            let new_id = compaction_map(bound, &dropped);
            self.deps.renumber_atoms(&new_id);
            self.base = (self.base.iter())
                .map(|id| {
                    assert_ne!(new_id[id], DROPPED, "a dropped id was still set");
                    new_id[id] as usize
                })
                .collect();
            for a in &mut rescued {
                *a = new_id[*a] as usize;
            }
        }
        // Re-run the round loop from the rescued atoms: every dead trigger
        // whose body survived has a rescued body atom, so pinning on the
        // rescue set rediscovers exactly the derivations DRed cut too
        // eagerly.
        rescued.sort_unstable();
        self.chase_from(Delta::Atoms(rescued), &mut report);
        self.link();
        self.deps.compact();
        report
    }

    /// Runs the round loop from `delta` on the persistent state, logging
    /// every firing into the dependency index (unlinked until
    /// [`MaintainedInstance::link`]).
    fn chase_from(&mut self, delta: Delta, report: &mut MaintenanceReport) {
        let run = self
            .chase
            .run(delta, &self.budget, None, Some(&mut self.deps.firings));
        report.triggers_fired += run.fired;
        report.atoms_added += run.added;
        self.complete &= run.complete;
    }

    /// Links the firings the runs since the last retraction logged. Only
    /// DRed reads the adjacency lists, so a build or an insert leaves its
    /// firings unlinked, and a maintained instance that is only saved or
    /// queried never pays for its index. No atom was removed since those
    /// runs, so every atom they name is in the instance.
    fn link(&mut self) {
        self.deps.link(&self.chase.plans, &self.chase.instance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::chase;
    use crate::tgd::parse_tgds;
    use gtgd_query::instance_isomorphic;
    use std::collections::HashSet;

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
            for lists in [&deps.supports, &deps.uses] {
                assert_eq!(lists.len(), m.instance().id_bound(), "cycle {i}");
                let linked = lists.iter().filter(|fids| !fids.is_empty()).count();
                assert!(linked <= atoms, "cycle {i}");
            }
            // Tombstoned atom ids are bounded the same way.
            assert!(m.instance().id_bound() <= 2 * atoms, "cycle {i}");
            instance_compactions += usize::from(m.instance().id_bound() < bound);
            index_compactions += usize::from(deps.firings.len() < logged);
        }
        assert!(instance_compactions > 0 && index_compactions > 0);
    }

    /// Links what the runs since the last retraction logged, then checks
    /// the dependency index against the instance: every alive firing's
    /// body and product ids name live atoms that are exactly its body and
    /// head re-grounded from its key and nulls, and the lists name it
    /// back; every live non-base atom has an alive support; and no list,
    /// span or base bit names an id that is dead or at/above `id_bound()`.
    fn assert_index_consistent(m: &mut MaintainedInstance, ctx: &str) {
        m.link();
        let (instance, deps) = (&m.chase.instance, &m.deps);
        let bound = instance.id_bound();
        let live: HashSet<usize> = instance.iter_ids().map(|(id, _)| id).collect();
        assert_eq!(deps.alive.len(), deps.firings.len(), "{ctx}: all linked");
        for (fid, f) in deps.firings.iter().enumerate() {
            if !deps.alive[fid] {
                continue;
            }
            let named = |ids: &[u32]| -> Vec<GroundAtom> {
                ids.iter()
                    .map(|&id| {
                        let id = id as usize;
                        assert!(
                            live.contains(&id),
                            "{ctx}: firing {fid} names dead atom {id}"
                        );
                        instance.atom(id).clone()
                    })
                    .collect()
            };
            let (mut body, mut head) = (Vec::new(), Vec::new());
            m.chase.plans[f.tgd].body_into(&f.key, &mut body);
            m.chase.plans[f.tgd].head_into(&f.key, &f.nulls, &mut head);
            assert_eq!(named(deps.body_ids(fid)), body, "{ctx}: firing {fid} body");
            assert_eq!(named(deps.product_ids(fid)), head, "{ctx}: firing {fid}");
            let fid32 = fid as u32;
            for &b in deps.body_ids(fid) {
                assert!(deps.uses[b as usize].contains(&fid32), "{ctx}: uses of {b}");
            }
            for &p in deps.product_ids(fid) {
                assert!(
                    deps.supports[p as usize].contains(&fid32),
                    "{ctx}: supports of {p}"
                );
            }
        }
        for (id, a) in instance.iter_ids() {
            if !m.base.contains(id) {
                assert!(
                    deps.any_alive(&deps.supports[id]),
                    "{ctx}: {a} has no support"
                );
            }
        }
        assert_eq!(deps.supports.len(), bound, "{ctx}");
        assert_eq!(deps.uses.len(), bound, "{ctx}");
        for id in (0..bound).filter(|id| !live.contains(id)) {
            assert!(
                deps.supports[id].is_empty(),
                "{ctx}: dead atom {id} has supports"
            );
            assert!(deps.uses[id].is_empty(), "{ctx}: dead atom {id} has uses");
        }
        for fids in deps.supports.iter().chain(&deps.uses) {
            assert!(
                fids.iter().all(|&fid| (fid as usize) < deps.firings.len()),
                "{ctx}"
            );
        }
        assert!(
            m.base.iter().all(|id| live.contains(&id)),
            "{ctx}: dead base bit"
        );
    }

    #[test]
    fn dependency_index_names_live_ids_across_both_compactions() {
        use gtgd_data::rng::Rng;
        // Two supports for some Emp facts (base and Boss), existentials,
        // and a two-atom body, so rescues happen and firings die in bulk.
        let tgds = parse_tgds(
            "Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D). Dept(D) -> HasHead(D,H). \
             Emp(X), Mgr(X) -> Boss(X). Boss(X) -> Emp(X)",
        )
        .unwrap();
        let names: Vec<String> = (0..10).map(|i| format!("p{i}")).collect();
        let mut rng = Rng::seed(0x1D_C0DE);
        let mut base: Vec<GroundAtom> = Vec::new();
        let mut m = MaintainedInstance::new(&Instance::new(), &tgds, ChaseBudget::unbounded());
        let (mut instance_compactions, mut index_compactions) = (0, 0);
        for step in 0..300 {
            let ctx = format!("step {step}");
            let (bound, logged) = (m.instance().id_bound(), m.recorded_firings());
            if base.is_empty() || rng.chance(0.5) {
                let pred = ["Emp", "Mgr"][rng.range(0, 2)];
                let a = GroundAtom::named(pred, &[&names[rng.range(0, names.len())]]);
                if !base.contains(&a) {
                    base.push(a.clone());
                }
                m.insert([a]);
            } else {
                let n = rng.range(1, base.len().min(3) + 1);
                let victims: Vec<GroundAtom> = (0..n)
                    .map(|_| base.swap_remove(rng.range(0, base.len())))
                    .collect();
                m.retract(victims);
                instance_compactions += usize::from(m.instance().id_bound() < bound);
                index_compactions += usize::from(m.recorded_firings() < logged);
            }
            assert_index_consistent(&mut m, &ctx);
            let scratch = chase(
                &Instance::from_atoms(base.clone()),
                &tgds,
                &ChaseBudget::unbounded(),
            );
            assert!(
                instance_isomorphic(m.instance(), &scratch.instance),
                "{ctx}"
            );
        }
        assert!(
            instance_compactions > 0 && index_compactions > 0,
            "{instance_compactions} instance and {index_compactions} index compactions"
        );
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
