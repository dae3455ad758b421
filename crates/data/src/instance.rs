//! Instances and databases: indexed sets of ground atoms.

use crate::atom::GroundAtom;
use crate::dense::{DenseStats, DenseStore, DenseTrie, Dict, RelationIds};
use crate::idhash::IdHashMap;
use crate::schema::{Predicate, Schema};
use crate::value::Value;
use gtgd_treewidth::Graph;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// Shared static-empty candidate list: the miss path of every index
/// accessor returns this without touching (or hashing into) any map.
const EMPTY_IDS: &[usize] = &[];

/// A finitely materialized instance (the paper's *database* when finite by
/// construction; also used to hold finite prefixes of infinite chase
/// results).
///
/// Maintains secondary indexes by predicate and by `(predicate, position,
/// value)` so homomorphism search and chase trigger matching get selective
/// candidate lists. Insertion order is preserved and deduplicated, so
/// iteration is deterministic.
///
/// **Atom ids are stable.** An atom's id is its slot in insertion order;
/// retraction leaves a tombstone in the slot instead of moving the
/// survivors, so ids lie below [`Instance::id_bound`] but need not be
/// dense. Only a compaction renumbers, and it runs inside
/// [`Instance::retract_ids`] once tombstones outnumber live atoms. Every
/// accessor (`iter`, candidate lists, `dom`, …) sees live atoms only.
#[derive(Debug, Default, Clone)]
pub struct Instance {
    /// The atom slots, by id. A tombstoned slot keeps an emptied atom
    /// until the next compaction.
    atoms: Vec<GroundAtom>,
    /// Which slots of `atoms` are retracted.
    dead: Tombstones,
    /// Row-level hash indexes (dedup map, per-predicate and per-position
    /// candidate lists, domain), built lazily from `atoms` on first
    /// demand. Bulk construction ([`Instance::from_unique_atoms`] — the
    /// snapshot load path) skips them entirely; the first lookup or
    /// mutation pays one linear build. Interior mutability like `dense`
    /// below: reads go through `&Instance`.
    rows: OnceLock<RowIndexes>,
    /// Dense-dictionary encoded relations plus sorted CSR tries — the
    /// storage the worst-case-optimal join path scans (see
    /// [`crate::dense`]). Encoded straight from `atoms` through the
    /// per-relation candidate lists; built lazily, extended
    /// incrementally. Interior mutability: tries are built on demand
    /// through `&Instance` (query execution never holds `&mut`).
    dense: DenseStore,
}

/// The tombstone bitmap of an [`Instance`]: one bit per atom slot, set
/// once the slot's atom is retracted. Empty while no slot is dead.
#[derive(Debug, Clone, Default)]
struct Tombstones {
    bits: Vec<u64>,
    /// How many bits are set.
    count: usize,
    /// The highest dead id (0 while `count` is 0).
    max: usize,
}

impl Tombstones {
    fn contains(&self, id: usize) -> bool {
        self.bits
            .get(id / 64)
            .is_some_and(|w| w >> (id % 64) & 1 == 1)
    }

    fn insert(&mut self, id: usize) {
        if self.bits.len() <= id / 64 {
            self.bits.resize(id / 64 + 1, 0);
        }
        self.bits[id / 64] |= 1 << (id % 64);
        self.max = self.max.max(id);
        self.count += 1;
    }

    /// Whether some slot at or past `from` is dead.
    fn any_since(&self, from: usize) -> bool {
        self.count > 0 && self.max >= from
    }

    /// The dead ids, ascending.
    fn ids(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count);
        for (w, &word) in self.bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                out.push(w * 64 + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        }
        out
    }
}

/// The live atoms of an instance with their ids, in id order.
#[derive(Clone)]
struct LiveIds<'a> {
    slots: std::iter::Enumerate<std::slice::Iter<'a, GroundAtom>>,
    dead: &'a Tombstones,
}

impl<'a> Iterator for LiveIds<'a> {
    type Item = (usize, &'a GroundAtom);

    fn next(&mut self) -> Option<Self::Item> {
        let dead = self.dead;
        self.slots.find(|&(id, _)| !dead.contains(id))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, self.slots.size_hint().1)
    }
}

/// The live atoms of an instance, in id order: the plain slice walk while
/// no slot is dead.
enum Live<'a> {
    Plain(std::slice::Iter<'a, GroundAtom>),
    Sparse(LiveIds<'a>),
}

impl<'a> Iterator for Live<'a> {
    type Item = &'a GroundAtom;

    fn next(&mut self) -> Option<&'a GroundAtom> {
        match self {
            Live::Plain(slots) => slots.next(),
            Live::Sparse(live) => live.next().map(|(_, a)| a),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Live::Plain(slots) => slots.size_hint(),
            Live::Sparse(live) => live.size_hint(),
        }
    }
}

/// The row-level hash indexes of an [`Instance`]: the dedup map, the
/// per-relation and per-`(predicate, position, value)` candidate lists,
/// and the first-occurrence domain. Kept together so they can be built
/// lazily in one pass over the atom vector. Every candidate list is
/// sorted ascending, never empty, and holds live ids only.
#[derive(Debug, Clone, Default)]
struct RowIndexes {
    index_of: IdHashMap<GroundAtom, usize>,
    /// Per `(predicate, arity)` relation, its atoms' ids in insertion
    /// order. This is also the dense store's row order: row `r` of a
    /// relation is `atoms[by_pred[rel][r]]`.
    by_pred: RelationIds,
    by_pred_pos_val: IdHashMap<(Predicate, u16, Value), Vec<usize>>,
    dom: Vec<Value>,
    /// The row id of each `dom` value's first occurrence. `dom` is sorted
    /// by (this id, the value's first position in that atom), which is
    /// what lets retraction re-place only the values whose first
    /// occurrence leaves, each by binary search.
    dom_first: IdHashMap<Value, usize>,
}

impl RowIndexes {
    /// Indexes one atom already appended to the atom vector at `idx`.
    /// Shared by the lazy one-pass build and incremental insertion.
    fn note(&mut self, atom: &GroundAtom, idx: usize) {
        self.by_pred.entry(relation(atom)).or_default().push(idx);
        for (pos, &v) in atom.args.iter().enumerate() {
            let pos = u16::try_from(pos).expect("arity fits u16");
            self.by_pred_pos_val
                .entry((atom.predicate, pos, v))
                .or_default()
                .push(idx);
            if let Entry::Vacant(e) = self.dom_first.entry(v) {
                e.insert(idx);
                self.dom.push(v);
            }
        }
        self.index_of.insert(atom.clone(), idx);
    }

    /// One-pass build over the live atoms, pre-sized so the maps do not
    /// regrow once per atom.
    fn build<'a>(atoms: impl Iterator<Item = (usize, &'a GroundAtom)> + Clone) -> RowIndexes {
        let (n, cells) = atoms
            .clone()
            .fold((0, 0), |(n, cells), (_, a)| (n + 1, cells + a.args.len()));
        let mut r = RowIndexes {
            index_of: IdHashMap::with_capacity_and_hasher(n, Default::default()),
            by_pred_pos_val: IdHashMap::with_capacity_and_hasher(cells, Default::default()),
            ..RowIndexes::default()
        };
        for (idx, a) in atoms {
            r.note(a, idx);
        }
        r
    }

    /// The key `dom` is sorted by: `v`'s first-occurrence id and its first
    /// position in that atom.
    fn dom_key(&self, atoms: &[GroundAtom], v: Value) -> (usize, usize) {
        let id = self.dom_first[&v];
        let pos = atoms[id].args.iter().position(|&x| x == v);
        (id, pos.expect("first occurrence mentions the value"))
    }

    /// The smallest live id mentioning `v`: the least first entry among
    /// `v`'s `(predicate, position, v)` lists, probed once per relation
    /// and position.
    fn first_occurrence(&self, v: Value) -> Option<usize> {
        let mut first = None;
        for &(p, arity) in self.by_pred.keys() {
            for pos in 0..arity {
                if let Some(ids) = self.by_pred_pos_val.get(&(p, pos, v)) {
                    first = Some(first.map_or(ids[0], |f: usize| f.min(ids[0])));
                }
            }
        }
        first
    }

    /// Re-places `v` in `dom` after its first occurrence, the dead atom
    /// `id` (where `v` first sits at `pos`), was unlinked from every
    /// candidate list: at its next occurrence, which lies after `id`, or
    /// out of `dom` if no live atom mentions it. The old slot is found by
    /// binary search; only the values between the old and the new slot
    /// shift.
    fn replace_first(&mut self, atoms: &[GroundAtom], v: Value, id: usize, pos: usize) {
        let from = self
            .dom
            .partition_point(|&u| self.dom_key(atoms, u) < (id, pos));
        debug_assert_eq!(self.dom[from], v, "dom is sorted by first occurrence");
        let Some(next) = self.first_occurrence(v) else {
            self.dom_first.remove(&v);
            self.dom.remove(from);
            return;
        };
        let key = (next, atoms[next].args.iter().position(|&x| x == v).unwrap());
        let after = &self.dom[from + 1..];
        let to = from + 1 + after.partition_point(|&u| self.dom_key(atoms, u) < key);
        self.dom[from..to].rotate_left(1);
        self.dom_first.insert(v, next);
    }
}

/// The `(predicate, arity)` relation an atom belongs to: the key of its
/// candidate list and of its dense table.
fn relation(a: &GroundAtom) -> (Predicate, u16) {
    (
        a.predicate,
        u16::try_from(a.args.len()).expect("arity fits u16"),
    )
}

/// Removes `id` from the sorted candidate list under `key`, by binary
/// search, dropping the list once it is empty.
fn unlink<K: Hash + Eq>(lists: &mut IdHashMap<K, Vec<usize>>, key: K, id: usize) {
    if let Entry::Occupied(mut e) = lists.entry(key) {
        let ids = e.get_mut();
        if let Ok(at) = ids.binary_search(&id) {
            ids.remove(at);
        }
        if ids.is_empty() {
            e.remove();
        }
    }
}

/// The post-compaction id of live row `id`, given the sorted dead row
/// ids: it moves down by the number of dead rows before it.
fn renumbered(id: usize, dead: &[usize]) -> usize {
    id - dead.partition_point(|&d| d < id)
}

/// Renumbers the sorted candidate list `ids` (which holds no dead id) for
/// a compaction over the sorted `dead` row ids. A list that ends before
/// the first dead row is left untouched.
fn renumber_list(ids: &mut [usize], dead: &[usize]) {
    let start = ids.partition_point(|&id| id < dead[0]);
    // `skipped`: how many dead rows lie below the current id.
    let mut skipped = 0;
    for id in &mut ids[start..] {
        skipped += dead[skipped..].partition_point(|&d| d < *id);
        *id -= skipped;
    }
}

/// Removes the elements at the given sorted, distinct indexes in one
/// order-preserving pass.
fn remove_sorted<T>(v: &mut Vec<T>, dead: &[usize]) {
    let mut at = 0;
    let mut next_dead = dead.iter().peekable();
    v.retain(|_| {
        let gone = next_dead.peek() == Some(&&at);
        if gone {
            next_dead.next();
        }
        at += 1;
        !gone
    });
}

impl Instance {
    /// The row indexes, built on first demand.
    fn rows(&self) -> &RowIndexes {
        self.rows.get_or_init(|| RowIndexes::build(self.live_ids()))
    }

    /// The row indexes for mutation: builds first if still deferred.
    fn rows_mut(&mut self) -> &mut RowIndexes {
        if self.rows.get().is_none() {
            let built = RowIndexes::build(self.live_ids());
            let _ = self.rows.set(built);
        }
        self.rows.get_mut().expect("row indexes just built")
    }

    /// The live atoms with their ids, in id order.
    fn live_ids(&self) -> LiveIds<'_> {
        LiveIds {
            slots: self.atoms.iter().enumerate(),
            dead: &self.dead,
        }
    }

    /// The empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Builds an instance from atoms, deduplicating.
    pub fn from_atoms(atoms: impl IntoIterator<Item = GroundAtom>) -> Instance {
        let mut i = Instance::new();
        for a in atoms {
            i.insert(a);
        }
        i
    }

    /// Builds an instance from atoms the caller guarantees are already
    /// distinct — the snapshot load path, whose atom section was written
    /// from an instance and is therefore duplicate-free. Only the atom
    /// vector is materialized; the row-level hash indexes stay deferred
    /// until first demand. Feeding duplicates violates the contract and
    /// leaves lookups over-counting.
    pub fn from_unique_atoms(atoms: Vec<GroundAtom>) -> Instance {
        Instance {
            atoms,
            ..Instance::new()
        }
    }

    /// Inserts an atom; returns `true` if it was new. A new atom takes the
    /// id [`Instance::id_bound`] had before the call.
    pub fn insert(&mut self, atom: GroundAtom) -> bool {
        let idx = self.atoms.len();
        let rows = self.rows_mut();
        if rows.index_of.contains_key(&atom) {
            return false;
        }
        rows.note(&atom, idx);
        self.atoms.push(atom);
        true
    }

    /// Inserts a batch of atoms, deduplicating; returns how many were new.
    ///
    /// The bulk-load counterpart of [`Instance::insert`]: the primary
    /// stores (atom vector, dedup map, per-position candidate lists) are
    /// reserved once for the whole batch and the per-relation candidate
    /// lists once per relation, so a 10⁶-atom ingest pays amortized map
    /// growth instead of a rehash/regrow cadence driven by per-atom
    /// inserts. The lazy dense mirror (dictionary and tries) is
    /// untouched until the *next demand after* the
    /// batch — one delta-extend over the whole batch, never one per row.
    /// Ingestion sinks and the CLI bulk loaders feed this; the snapshot
    /// load path goes further and skips index construction entirely via
    /// [`Instance::from_unique_atoms`].
    pub fn insert_batch(&mut self, atoms: impl IntoIterator<Item = GroundAtom>) -> usize {
        let batch: Vec<GroundAtom> = atoms.into_iter().collect();
        if batch.is_empty() {
            return 0;
        }
        self.atoms.reserve(batch.len());
        let cells: usize = batch.iter().map(|a| a.args.len()).sum();
        {
            let rows = self.rows_mut();
            rows.index_of.reserve(batch.len());
            rows.by_pred_pos_val.reserve(cells);
        }
        // Pre-size each touched relation's candidate list once.
        let mut per_rel: HashMap<(Predicate, u16), usize> = HashMap::new();
        for a in &batch {
            *per_rel.entry(relation(a)).or_default() += 1;
        }
        {
            let rows = self.rows_mut();
            for (rel, n) in per_rel {
                rows.by_pred.entry(rel).or_default().reserve(n);
            }
        }
        let mut added = 0;
        for a in batch {
            added += usize::from(self.insert(a));
        }
        added
    }

    /// Removes the atoms with the given distinct live ids (an atom's id is
    /// [`Instance::id_of`]). Returns the ids a compaction dropped
    /// (ascending: every tombstone, these ids included) if the call ended
    /// with one, so a caller keeping its own id-indexed state can renumber
    /// it the same way: a surviving id moves down by the number of dropped
    /// ids below it. `None` means no id moved.
    ///
    /// Retraction **keeps every survivor's id**. Each dead atom loses its
    /// dedup key, its slot becomes a tombstone, and its id is unlinked by
    /// binary search from its own relation list and its own
    /// `(predicate, position, value)` lists; no other list is touched.
    /// `dom()` keeps first-occurrence order over the survivors: a value
    /// whose first occurrence dies is found in `dom()` by binary search
    /// on the (first id, position) order and moves to its next
    /// occurrence — the least first entry among its `(predicate,
    /// position, value)` lists, one probe per relation and position — or
    /// leaves `dom()` if no survivor mentions it. So the cost is
    /// O(dead atoms × arity) list edits plus O(moved values × relations)
    /// probes, never a pass over the instance or over `dom()`; list and
    /// `dom()` edits are `memmove`s of the entries past the edit point.
    /// The lazy dense mirror drops only the touched `(predicate, arity)`
    /// relations while keeping the dictionary.
    ///
    /// Once tombstones outnumber live atoms, the call ends with a
    /// **compaction**, the only point that renumbers: live ids close up
    /// in order, every candidate list, the dedup map and the
    /// first-occurrence map are renumbered in place (no index is rebuilt
    /// or re-hashed), and the slots shrink to the live atoms. A
    /// compaction at least halves the slots, so its cost is amortized over
    /// the retractions that made the tombstones, and
    /// [`Instance::id_bound`] stays within twice [`Instance::len`] after
    /// every retraction. Either way every accessor reads, through
    /// [`Instance::atom`], exactly as on `Instance::from_atoms(survivors)`;
    /// right after a compaction the ids are equal too.
    pub fn retract_ids(&mut self, ids: &[usize]) -> Option<Vec<usize>> {
        self.rows_mut();
        let Instance { atoms, rows, .. } = self;
        let rows = rows.get_mut().expect("row indexes just built");
        for &id in ids {
            let removed = rows.index_of.remove(&atoms[id]);
            assert_eq!(removed, Some(id), "retract_ids takes distinct live ids");
        }
        self.unlink_dead(ids)
    }

    /// Tombstones the dead ids, whose dedup keys are already gone, and
    /// unlinks them from the other row indexes; compacts once tombstones
    /// outnumber live atoms, returning the dropped ids.
    fn unlink_dead(&mut self, dead: &[usize]) -> Option<Vec<usize>> {
        if dead.is_empty() {
            return None;
        }
        let Instance {
            atoms: slots,
            dead: tombstones,
            rows,
            dense,
        } = self;
        let rows = rows.get_mut().expect("row indexes built above");
        // Relations that lose rows: their dense tables must be dropped.
        let mut touched: HashSet<(Predicate, u16)> = HashSet::new();
        for &id in dead {
            tombstones.insert(id);
            let a = &slots[id];
            let rel = relation(a);
            touched.insert(rel);
            unlink(&mut rows.by_pred, rel, id);
            for (pos, &v) in a.args.iter().enumerate() {
                let pos = u16::try_from(pos).expect("arity fits u16");
                unlink(&mut rows.by_pred_pos_val, (a.predicate, pos, v), id);
            }
        }
        // dom(): re-place each value whose first occurrence died. The dead
        // atoms keep their arguments until every value is placed, so the
        // sort key of a value not yet re-placed stays readable.
        for &id in dead {
            for (pos, &v) in slots[id].args.iter().enumerate() {
                if rows.dom_first.get(&v) == Some(&id) && !slots[id].args[..pos].contains(&v) {
                    rows.replace_first(slots, v, id, pos);
                }
            }
        }
        for &id in dead {
            slots[id].args = Vec::new();
        }
        dense.invalidate_relations(&touched);
        (tombstones.count > slots.len() - tombstones.count).then(|| self.compact())
    }

    /// Drops every tombstone and closes up the live ids in order,
    /// renumbering the row indexes in place (see
    /// [`Instance::retract_ids`]), and returns the dropped ids. The
    /// dense mirror needs no upkeep: it reads rows through the relation
    /// lists, whose order is unchanged.
    fn compact(&mut self) -> Vec<usize> {
        let dead = self.dead.ids();
        let rows = self.rows.get_mut().expect("tombstones imply built rows");
        for id in rows.index_of.values_mut() {
            *id = renumbered(*id, &dead);
        }
        for id in rows.dom_first.values_mut() {
            *id = renumbered(*id, &dead);
        }
        for ids in rows.by_pred.values_mut() {
            renumber_list(ids, &dead);
        }
        for ids in rows.by_pred_pos_val.values_mut() {
            renumber_list(ids, &dead);
        }
        remove_sorted(&mut self.atoms, &dead);
        self.dead = Tombstones::default();
        dead
    }

    /// Reserves capacity for `n` further atoms in the primary stores (the
    /// atom vector and the dedup map), so bulk loads — chase round
    /// materialization, [`Instance::extend_from`] — do not rehash/regrow
    /// once per atom.
    pub fn reserve_additional(&mut self, n: usize) {
        self.atoms.reserve(n);
        self.rows_mut().index_of.reserve(n);
    }

    /// Whether the atom is present.
    pub fn contains(&self, atom: &GroundAtom) -> bool {
        self.rows().index_of.contains_key(atom)
    }

    /// The id of the atom, if present: stable until the next compaction
    /// (see [`Instance::retract_ids`]).
    pub fn id_of(&self, atom: &GroundAtom) -> Option<usize> {
        self.rows().index_of.get(atom).copied()
    }

    /// Number of (live) atoms.
    pub fn len(&self) -> usize {
        self.atoms.len() - self.dead.count
    }

    /// One past the largest id an atom has had since the last compaction:
    /// every live id lies below it, and the next inserted atom takes it.
    /// Equal to [`Instance::len`] when no slot is tombstoned.
    pub fn id_bound(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the instance has no atoms.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over atoms in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &GroundAtom> {
        if self.dead.count == 0 {
            Live::Plain(self.atoms.iter())
        } else {
            Live::Sparse(self.live_ids())
        }
    }

    /// Iterates over atoms with their ids, in insertion order.
    pub fn iter_ids(&self) -> impl Iterator<Item = (usize, &GroundAtom)> {
        self.live_ids()
    }

    /// The atom with id `idx`, which must be live.
    pub fn atom(&self, idx: usize) -> &GroundAtom {
        debug_assert!(!self.dead.contains(idx), "atom {idx} was retracted");
        &self.atoms[idx]
    }

    /// The atoms with id `from` or later, in id order — what was inserted
    /// since [`Instance::id_bound`] read `from`. Borrowed as one slice
    /// unless a tombstone lies in that range.
    pub fn tail(&self, from: usize) -> Cow<'_, [GroundAtom]> {
        let slots = &self.atoms[from.min(self.atoms.len())..];
        if !self.dead.any_since(from) {
            return Cow::Borrowed(slots);
        }
        Cow::Owned(
            self.live_ids()
                .skip_while(|&(id, _)| id < from)
                .map(|(_, a)| a.clone())
                .collect(),
        )
    }

    /// `dom(I)`: distinct constants in first-occurrence order.
    pub fn dom(&self) -> &[Value] {
        &self.rows().dom
    }

    /// Whether `v ∈ dom(I)`.
    pub fn dom_contains(&self, v: Value) -> bool {
        self.rows().dom_first.contains_key(&v)
    }

    /// Indexes of atoms with predicate `p` at `arity`, in insertion
    /// order.
    pub fn atoms_with_pred(&self, p: Predicate, arity: usize) -> &[usize] {
        let rows = self.rows();
        if rows.by_pred.is_empty() {
            return EMPTY_IDS;
        }
        let arity = u16::try_from(arity).expect("arity fits u16");
        rows.by_pred
            .get(&(p, arity))
            .map_or(EMPTY_IDS, |v| v.as_slice())
    }

    /// Indexes of atoms with predicate `p` whose argument at `pos` is `v`.
    pub fn atoms_matching(&self, p: Predicate, pos: usize, v: Value) -> &[usize] {
        let rows = self.rows();
        if rows.by_pred_pos_val.is_empty() {
            return EMPTY_IDS;
        }
        let pos = u16::try_from(pos).expect("arity fits u16");
        rows.by_pred_pos_val
            .get(&(p, pos, v))
            .map_or(EMPTY_IDS, |ids| ids.as_slice())
    }

    /// A consistent dense-encoded snapshot serving one query: the global
    /// order-preserving dictionary plus, per request
    /// `(predicate, arity, column order)`, the flat sorted trie — `None`
    /// when the relation is empty. Builds or delta-extends stale parts
    /// first; current parts cost one read-lock hold and `Arc` clones (see
    /// [`crate::dense::DenseStore::snapshot`]).
    pub fn dense_snapshot(
        &self,
        reqs: &[(Predicate, usize, &[u16])],
    ) -> (Arc<Dict>, Vec<Option<Arc<DenseTrie>>>) {
        let reqs16: Vec<(Predicate, u16, &[u16])> = reqs
            .iter()
            .map(|&(p, a, o)| (p, u16::try_from(a).expect("arity fits u16"), o))
            .collect();
        self.dense
            .snapshot(&self.atoms, &self.rows().by_pred, &reqs16)
    }

    /// Counters of the dense store (the append-mostly growth contract:
    /// `remaps` stays at zero while every fresh value — e.g. every
    /// chase-invented null — sorts after the existing maximum; the
    /// incremental trie contract: `full_builds` grows once per distinct
    /// trie, `merge_extends` on every delta extension).
    pub fn dense_stats(&self) -> DenseStats {
        self.dense.stats()
    }

    /// The distinct predicates appearing in the instance, in first-use order.
    pub fn predicates(&self) -> Vec<Predicate> {
        let mut seen = Vec::new();
        for a in self.iter() {
            if !seen.contains(&a.predicate) {
                seen.push(a.predicate);
            }
        }
        seen
    }

    /// Infers the schema realized by this instance (each used predicate with
    /// the arity of its first occurrence). Panics if a predicate is used at
    /// two different arities.
    pub fn schema(&self) -> Schema {
        let mut s = Schema::new();
        for a in self.iter() {
            s.add(a.predicate, a.arity());
        }
        s
    }

    /// `I|T`: the restriction to atoms mentioning only constants of `keep`.
    pub fn restrict_to(&self, keep: &HashSet<Value>) -> Instance {
        Instance::from_atoms(
            self.iter()
                .filter(|a| a.args.iter().all(|v| keep.contains(v)))
                .cloned(),
        )
    }

    /// Restriction to atoms over the given predicates.
    pub fn restrict_predicates(&self, keep: &HashSet<Predicate>) -> Instance {
        Instance::from_atoms(self.iter().filter(|a| keep.contains(&a.predicate)).cloned())
    }

    /// Applies a value mapping to every atom, producing a new instance (the
    /// homomorphic image when `f` is a homomorphism).
    pub fn map_values(&self, f: impl Fn(Value) -> Value) -> Instance {
        Instance::from_atoms(self.iter().map(|a| a.map(&f)))
    }

    /// Inserts all atoms of `other`. Capacity is reserved up front — in
    /// the primary stores and per relation — so the bulk load does not
    /// regrow them once per atom.
    pub fn extend_from(&mut self, other: &Instance) {
        self.reserve_additional(other.len());
        let mine = self.rows_mut();
        for (&rel, ids) in &other.rows().by_pred {
            mine.by_pred.entry(rel).or_default().reserve(ids.len());
        }
        for a in other.iter() {
            self.insert(a.clone());
        }
    }

    /// Whether the tuple `vs` is *guarded* in the instance: some atom
    /// mentions every value of `vs`.
    pub fn is_guarded(&self, vs: &[Value]) -> bool {
        match vs.first() {
            None => !self.is_empty(),
            Some(&v0) => {
                // Scan only atoms containing v0 at some position.
                self.iter()
                    .any(|a| a.mentions(v0) && vs.iter().all(|&v| a.mentions(v)))
            }
        }
    }

    /// All maximal guarded sets: for each atom, `dom(α)` — deduplicated and
    /// restricted to the ⊆-maximal ones. Used by the guarded unraveling and
    /// the OMQ→CQS reduction.
    pub fn maximal_guarded_sets(&self) -> Vec<Vec<Value>> {
        let mut sets: Vec<Vec<Value>> = Vec::new();
        for a in self.iter() {
            let mut d = a.dom();
            d.sort_unstable();
            if !sets.contains(&d) {
                sets.push(d);
            }
        }
        let maximal: Vec<Vec<Value>> = sets
            .iter()
            .filter(|s| {
                !sets
                    .iter()
                    .any(|t| t.len() > s.len() && s.iter().all(|v| t.contains(v)))
            })
            .cloned()
            .collect();
        maximal
    }

    /// The Gaifman graph `G_I`: vertices are `dom(I)` (in domain order),
    /// edges join constants co-occurring in an atom. Returns the graph and
    /// the vertex-id → value mapping.
    pub fn gaifman(&self) -> (Graph, Vec<Value>) {
        let dom = &self.rows().dom;
        let mut id_of: HashMap<Value, usize> = HashMap::new();
        for (i, &v) in dom.iter().enumerate() {
            id_of.insert(v, i);
        }
        let mut g = Graph::new(dom.len());
        for a in self.iter() {
            let d = a.dom();
            for (i, &u) in d.iter().enumerate() {
                for &v in &d[i + 1..] {
                    g.add_edge(id_of[&u], id_of[&v]);
                }
            }
        }
        (g, dom.clone())
    }

    /// A constant is *isolated* if exactly one atom mentions it
    /// (Section 6 / Theorem 6.1).
    pub fn is_isolated(&self, v: Value) -> bool {
        self.iter().filter(|a| a.mentions(v)).count() == 1
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|a| other.contains(a))
    }
}

impl Eq for Instance {}

impl FromIterator<GroundAtom> for Instance {
    fn from_iter<T: IntoIterator<Item = GroundAtom>>(iter: T) -> Instance {
        Instance::from_atoms(iter)
    }
}

impl std::fmt::Display for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::named(s)
    }

    /// Retracts the atoms of `atoms` that are present, each once, through
    /// [`Instance::id_of`] and [`Instance::retract_ids`]; returns how many
    /// were present.
    fn retract(i: &mut Instance, atoms: &[GroundAtom]) -> usize {
        let mut ids: Vec<usize> = atoms.iter().filter_map(|a| i.id_of(a)).collect();
        ids.sort_unstable();
        ids.dedup();
        i.retract_ids(&ids);
        ids.len()
    }

    #[test]
    fn insert_dedup_and_indexes() {
        let mut i = Instance::new();
        assert!(i.insert(GroundAtom::named("R", &["a", "b"])));
        assert!(!i.insert(GroundAtom::named("R", &["a", "b"])));
        assert!(i.insert(GroundAtom::named("R", &["b", "c"])));
        assert_eq!(i.len(), 2);
        assert_eq!(i.atoms_with_pred(Predicate::new("R"), 2).len(), 2);
        assert_eq!(i.atoms_matching(Predicate::new("R"), 0, v("a")).len(), 1);
        assert_eq!(i.atoms_matching(Predicate::new("R"), 1, v("b")).len(), 1);
        assert!(i.atoms_matching(Predicate::new("R"), 0, v("z")).is_empty());
        assert_eq!(i.dom(), &[v("a"), v("b"), v("c")]);
    }

    #[test]
    fn selectivity_accessors_match_slices() {
        let mut i = Instance::new();
        i.insert(GroundAtom::named("R", &["a", "b"]));
        i.insert(GroundAtom::named("R", &["a", "c"]));
        i.insert(GroundAtom::named("S", &["a"]));
        let r = Predicate::new("R");
        assert_eq!(i.tail(0).len(), i.len());
        assert_eq!(i.atoms_with_pred(r, 2).len(), 2);
        assert_eq!(i.atoms_with_pred(Predicate::new("T"), 2).len(), 0);
        assert_eq!(i.atoms_matching(r, 0, v("a")).len(), 2);
        assert_eq!(i.atoms_matching(r, 1, v("z")).len(), 0);
    }

    #[test]
    fn set_equality_ignores_order() {
        let i1 = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("P", &["c"]),
        ]);
        let i2 = Instance::from_atoms([
            GroundAtom::named("P", &["c"]),
            GroundAtom::named("R", &["a", "b"]),
        ]);
        assert_eq!(i1, i2);
    }

    #[test]
    fn restriction_by_values() {
        let i = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("R", &["b", "c"]),
            GroundAtom::named("P", &["a"]),
        ]);
        let keep: HashSet<Value> = [v("a"), v("b")].into_iter().collect();
        let r = i.restrict_to(&keep);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&GroundAtom::named("R", &["a", "b"])));
        assert!(r.contains(&GroundAtom::named("P", &["a"])));
    }

    #[test]
    fn gaifman_graph_of_triangle_fact() {
        let i = Instance::from_atoms([GroundAtom::named("T", &["a", "b", "c"])]);
        let (g, vals) = i.gaifman();
        assert_eq!(vals.len(), 3);
        assert_eq!(g.edge_count(), 3); // a 3-ary atom induces a triangle
    }

    #[test]
    fn guardedness_checks() {
        let i = Instance::from_atoms([
            GroundAtom::named("T", &["a", "b", "c"]),
            GroundAtom::named("R", &["c", "d"]),
        ]);
        assert!(i.is_guarded(&[v("a"), v("c")]));
        assert!(!i.is_guarded(&[v("a"), v("d")]));
        assert!(i.is_guarded(&[]));
        let max = i.maximal_guarded_sets();
        assert_eq!(max.len(), 2);
    }

    #[test]
    fn isolation() {
        let i = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("R", &["b", "c"]),
        ]);
        assert!(i.is_isolated(v("a")));
        assert!(!i.is_isolated(v("b")));
    }

    #[test]
    fn map_values_applies_substitution() {
        let i = Instance::from_atoms([GroundAtom::named("R", &["a", "b"])]);
        let j = i.map_values(|x| if x == v("a") { v("z") } else { x });
        assert!(j.contains(&GroundAtom::named("R", &["z", "b"])));
    }

    /// Reference argsort over the relation's rows (by key tuple, then
    /// row id).
    fn naive_perm(i: &Instance, p: Predicate, arity: usize, order: &[u16]) -> Vec<u32> {
        let rel = i.atoms_with_pred(p, arity);
        let mut ids: Vec<u32> = (0..rel.len() as u32).collect();
        ids.sort_by_key(|&r| {
            let args = &i.atom(rel[r as usize]).args;
            let key: Vec<Value> = order.iter().map(|&j| args[j as usize]).collect();
            (key, r)
        });
        ids
    }

    /// The row permutation of the dense trie serving `(p, arity, order)`.
    fn trie_perm(i: &Instance, p: Predicate, arity: usize, order: &[u16]) -> Vec<u32> {
        let (_, tries) = i.dense_snapshot(&[(p, arity, order)]);
        tries[0].as_ref().map_or(Vec::new(), |t| t.perm().to_vec())
    }

    #[test]
    fn clones_carry_independent_trie_caches() {
        let mut i = Instance::new();
        i.insert(GroundAtom::named("E", &["b", "x"]));
        let e = Predicate::new("E");
        trie_perm(&i, e, 2, &[0, 1]);
        let mut j = i.clone();
        j.insert(GroundAtom::named("E", &["a", "w"]));
        assert_eq!(trie_perm(&j, e, 2, &[0, 1]), naive_perm(&j, e, 2, &[0, 1]));
        // The clone extended its own trie; the original is untouched.
        assert_eq!(j.dense_stats().merge_extends, 1);
        assert_eq!(i.dense_stats().merge_extends, 0);
    }

    #[test]
    fn insert_batch_matches_per_atom_insert() {
        use crate::rng::Rng;
        let mut rng = Rng::seed(0xba7c4);
        for case in 0..20 {
            let n = rng.range(0, 60);
            let atoms: Vec<GroundAtom> = (0..n)
                .map(|_| {
                    let p = ["R", "S", "T"][rng.range(0, 3)];
                    let arity = rng.range(0, 4);
                    let args: Vec<&str> = (0..arity)
                        .map(|_| ["a", "b", "c", "d"][rng.range(0, 4)])
                        .collect();
                    GroundAtom::named(p, &args)
                })
                .collect();
            let mut batched = Instance::new();
            // Split the batch so one call lands on a non-empty instance.
            let mid = atoms.len() / 2;
            let added_1 = batched.insert_batch(atoms[..mid].iter().cloned());
            let added_2 = batched.insert_batch(atoms[mid..].iter().cloned());
            let mut serial = Instance::new();
            let mut added_serial = 0;
            for a in &atoms {
                added_serial += usize::from(serial.insert(a.clone()));
            }
            assert_eq!(added_1 + added_2, added_serial, "case {case}");
            assert_eq!(batched, serial, "case {case}");
            assert_eq!(batched.dom(), serial.dom(), "case {case}");
            // Insertion order (hence row ids) is identical.
            assert!(batched.iter().eq(serial.iter()), "case {case}");
            for p in ["R", "S", "T"].map(Predicate::new) {
                for arity in 0..4 {
                    assert_eq!(
                        batched.atoms_with_pred(p, arity).len(),
                        serial.atoms_with_pred(p, arity).len()
                    );
                }
            }
        }
    }

    #[test]
    fn insert_batch_extends_built_indexes_once() {
        let mut i = Instance::new();
        i.insert_batch([
            GroundAtom::named("E", &["c", "x"]),
            GroundAtom::named("E", &["a", "y"]),
        ]);
        let e = Predicate::new("E");
        trie_perm(&i, e, 2, &[0, 1]);
        assert_eq!(i.dense_stats().full_builds, 1);
        // A whole batch lands before the next demand: exactly one
        // merge-extend, not one per row.
        i.insert_batch([
            GroundAtom::named("E", &["b", "z"]),
            GroundAtom::named("E", &["d", "w"]),
            GroundAtom::named("E", &["a", "q"]),
        ]);
        assert_eq!(trie_perm(&i, e, 2, &[0, 1]), naive_perm(&i, e, 2, &[0, 1]));
        let stats = i.dense_stats();
        assert_eq!(stats.full_builds, 1);
        assert_eq!(stats.merge_extends, 1);
    }

    #[test]
    fn reserve_and_extend_preserve_contents() {
        let mut i = Instance::new();
        i.reserve_additional(16);
        i.insert(GroundAtom::named("R", &["a", "b"]));
        let other = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("R", &["b", "c"]),
            GroundAtom::named("P", &["a"]),
        ]);
        i.extend_from(&other);
        assert_eq!(i.len(), 3);
        assert_eq!(i.atoms_with_pred(Predicate::new("R"), 2).len(), 2);
        assert_eq!(i.atoms_with_pred(Predicate::new("P"), 1).len(), 1);
    }

    #[test]
    fn retract_keeps_survivor_ids_and_updates_every_index() {
        let mut i = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("R", &["b", "c"]),
            GroundAtom::named("P", &["a"]),
        ]);
        assert_eq!(retract(&mut i, &[GroundAtom::named("R", &["a", "b"])]), 1);
        // One tombstone against two live atoms: no compaction, no id moves.
        assert_eq!(i.id_bound(), 3);
        assert_eq!(i.id_of(&GroundAtom::named("P", &["a"])), Some(2));
        assert_eq!(i.atoms_with_pred(Predicate::new("R"), 2), &[1]);
        assert!(
            retract(&mut i, &[GroundAtom::named("R", &["a", "b"])]) == 0,
            "already gone"
        );
        assert_eq!(i.len(), 2);
        assert!(!i.contains(&GroundAtom::named("R", &["a", "b"])));
        let r = Predicate::new("R");
        assert_eq!(i.atoms_with_pred(r, 2).len(), 1);
        assert!(i.atoms_matching(r, 0, v("a")).is_empty());
        assert_eq!(i.atoms_matching(r, 0, v("b")).len(), 1);
        // dom() is exact: "a" survives through P(a), nothing else changes.
        assert_eq!(i.dom(), &[v("b"), v("c"), v("a")]);
    }

    #[test]
    fn retract_ids_reports_the_ids_its_compaction_dropped() {
        let atoms: Vec<GroundAtom> = (0..6)
            .map(|i| GroundAtom::named("R", &[&format!("v{i}")]))
            .collect();
        let mut by_id = Instance::from_atoms(atoms.clone());
        let mut by_atom = by_id.clone();
        // Two tombstones against four live atoms: no compaction.
        assert_eq!(by_id.retract_ids(&[1, 4]), None);
        retract(&mut by_atom, &[atoms[1].clone(), atoms[4].clone()]);
        assert_eq!(by_id.id_of(&atoms[5]), Some(5));
        // Four against two: the compaction drops every tombstone.
        assert_eq!(by_id.retract_ids(&[2, 0]), Some(vec![0, 1, 2, 4]));
        retract(&mut by_atom, &[atoms[2].clone(), atoms[0].clone()]);
        assert_eq!(by_id.id_of(&atoms[3]), Some(0));
        assert_eq!(by_id.id_of(&atoms[5]), Some(1));
        assert!(by_id.iter_ids().eq(by_atom.iter_ids()));
        assert_eq!(by_id.dom(), by_atom.dom());
        assert_eq!(by_id.atoms_with_pred(Predicate::new("R"), 1), &[0, 1]);
    }

    #[test]
    fn retract_drops_values_no_atom_mentions() {
        let mut i = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("P", &["c"]),
        ]);
        assert_eq!(retract(&mut i, &[GroundAtom::named("R", &["a", "b"])]), 1);
        assert_eq!(i.dom(), &[v("c")]);
        assert!(!i.dom_contains(v("a")));
        assert!(!i.dom_contains(v("b")));
    }

    #[test]
    fn retract_batch_counts_only_present_atoms() {
        let mut i = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("P", &["a"]),
        ]);
        let n = retract(
            &mut i,
            &[
                GroundAtom::named("R", &["a", "b"]),
                GroundAtom::named("R", &["z", "z"]), // absent
                GroundAtom::named("P", &["a"]),
            ],
        );
        assert_eq!(n, 2);
        assert!(i.is_empty());
        assert!(i.dom().is_empty());
        assert_eq!(retract(&mut i, &[GroundAtom::named("P", &["a"])]), 0);
    }

    #[test]
    fn retracting_a_whole_relation_drops_its_trie() {
        let mut i = Instance::new();
        i.insert(GroundAtom::named("E", &["a", "b"]));
        i.insert(GroundAtom::named("P", &["c"]));
        let e = Predicate::new("E");
        trie_perm(&i, e, 2, &[0, 1]);
        retract(&mut i, &[GroundAtom::named("E", &["a", "b"])]);
        // The only E-row is gone: its trie is dropped, not left empty.
        assert_eq!(i.dense_stats().tries, 0);
        assert!(trie_perm(&i, e, 2, &[0, 1]).is_empty());
    }

    #[test]
    fn dense_snapshot_after_retraction_matches_fresh_build() {
        let mut i = Instance::new();
        for (a, b) in [("b", "x"), ("a", "z"), ("c", "y")] {
            i.insert(GroundAtom::named("E", &[a, b]));
        }
        i.insert(GroundAtom::named("P", &["p"]));
        let e = Predicate::new("E");
        let p = Predicate::new("P");
        let reqs: [(Predicate, usize, &[u16]); 2] = [(e, 2, &[0, 1]), (p, 1, &[0])];
        let (_, before) = i.dense_snapshot(&reqs);
        retract(&mut i, &[GroundAtom::named("E", &["a", "z"])]);
        let (dict, tries) = i.dense_snapshot(&reqs);
        let fresh = Instance::from_atoms(i.iter().cloned());
        let (fdict, ftries) = fresh.dense_snapshot(&reqs);
        let decode = |d: &Dict, t: &DenseTrie, arity: usize| -> Vec<Vec<Value>> {
            (0..t.rows())
                .map(|r| (0..arity).map(|l| d.decode(t.level(l)[r])).collect())
                .collect()
        };
        for (k, arity) in [(0, 2), (1, 1)] {
            assert_eq!(
                decode(&dict, tries[k].as_ref().unwrap(), arity),
                decode(&fdict, ftries[k].as_ref().unwrap(), arity)
            );
        }
        // Untouched relation P kept its trie through the invalidation; the
        // dictionary may keep the stale "z" but never loses a surviving
        // value.
        assert!(Arc::ptr_eq(
            before[1].as_ref().unwrap(),
            tries[1].as_ref().unwrap()
        ));
        for a in i.iter() {
            for &val in &a.args {
                assert!(dict.code(val).is_some());
            }
        }
    }

    #[test]
    fn schema_inference() {
        let i = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("P", &["a"]),
        ]);
        let s = i.schema();
        assert_eq!(s.arity(Predicate::new("R")), Some(2));
        assert_eq!(s.arity(Predicate::new("P")), Some(1));
        assert_eq!(s.max_arity(), 2);
    }
}
