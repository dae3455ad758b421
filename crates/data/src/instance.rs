//! Instances and databases: indexed sets of ground atoms.

use crate::atom::GroundAtom;
use crate::dense::{DenseExport, DenseStats, DenseStore, DenseTrie, Dict, RelationIds};
use crate::idhash::IdHashMap;
use crate::schema::{Predicate, Schema};
use crate::value::Value;
use gtgd_treewidth::Graph;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
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
#[derive(Debug, Default, Clone)]
pub struct Instance {
    atoms: Vec<GroundAtom>,
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

/// The row-level hash indexes of an [`Instance`]: the dedup map, the
/// per-relation and per-`(predicate, position, value)` candidate lists,
/// and the first-occurrence domain. Kept together so they can be built
/// lazily in one pass over the atom vector. Every candidate list is
/// sorted ascending and never empty.
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
    /// occurrence leaves.
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

    /// One-pass build over a deduplicated atom vector, pre-sized so the
    /// maps do not regrow once per atom.
    fn build(atoms: &[GroundAtom]) -> RowIndexes {
        let cells: usize = atoms.iter().map(|a| a.args.len()).sum();
        let mut r = RowIndexes {
            index_of: IdHashMap::with_capacity_and_hasher(atoms.len(), Default::default()),
            by_pred_pos_val: IdHashMap::with_capacity_and_hasher(cells, Default::default()),
            ..RowIndexes::default()
        };
        for (idx, a) in atoms.iter().enumerate() {
            r.note(a, idx);
        }
        r
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

/// The post-retraction id of surviving row `id`, given the sorted dead
/// row ids: it moves down by the number of dead rows before it.
fn renumbered(id: usize, dead: &[usize]) -> usize {
    id - dead.partition_point(|&d| d < id)
}

/// Drops the sorted `dead` row ids from the sorted candidate list `ids`
/// and renumbers the rest. A list that ends before the first dead row is
/// left untouched.
fn drop_and_renumber(ids: &mut Vec<usize>, dead: &[usize]) {
    let start = ids.partition_point(|&id| id < dead[0]);
    let mut write = start;
    // `skipped`: how many dead rows lie below the current id.
    let mut skipped = 0;
    for read in start..ids.len() {
        let id = ids[read];
        skipped += dead[skipped..].partition_point(|&d| d < id);
        if dead.get(skipped) == Some(&id) {
            continue;
        }
        ids[write] = id - skipped;
        write += 1;
    }
    ids.truncate(write);
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
        self.rows.get_or_init(|| RowIndexes::build(&self.atoms))
    }

    /// The row indexes for mutation: builds first if still deferred.
    fn rows_mut(&mut self) -> &mut RowIndexes {
        if self.rows.get().is_none() {
            let built = RowIndexes::build(&self.atoms);
            let _ = self.rows.set(built);
        }
        self.rows.get_mut().expect("row indexes just built")
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

    /// Inserts an atom; returns `true` if it was new.
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

    /// Removes one atom; returns `true` if it was present. See
    /// [`Instance::retract_atoms`] for the cost model — batch retractions
    /// through that method when removing more than one atom.
    pub fn retract(&mut self, atom: &GroundAtom) -> bool {
        self.retract_atoms(std::slice::from_ref(atom)) == 1
    }

    /// Removes a batch of atoms; returns how many were actually present.
    /// Atoms absent from the instance are ignored.
    ///
    /// Retraction **renumbers in place**: row ids stay dense, so the
    /// survivors after the first dead row move down. The atom vector loses
    /// the dead rows in one order-preserving pass; the dedup map loses
    /// only their keys; every candidate list drops the dead ids and shifts
    /// its later ids down (lists that end before the first dead row are
    /// skipped after one comparison). `dom()` keeps first-occurrence order
    /// over the survivors:
    /// a value whose first occurrence dies moves to its next occurrence,
    /// found by a scan that starts at the dead row and stops once every
    /// such value is placed, or leaves `dom()` if no survivor mentions it.
    /// The cost is a few integer operations per index entry and no
    /// re-hashing of survivors; every accessor then reads exactly as on
    /// `Instance::from_atoms(survivors)`. The lazy dense mirror drops only
    /// the touched `(predicate, arity)` relations while keeping the
    /// dictionary.
    pub fn retract_atoms(&mut self, atoms: &[GroundAtom]) -> usize {
        let rows = self.rows_mut();
        let mut dead: Vec<usize> = atoms
            .iter()
            .filter_map(|a| rows.index_of.get(a).copied())
            .collect();
        if dead.is_empty() {
            return 0;
        }
        dead.sort_unstable();
        dead.dedup();
        let rows = self.rows.get_mut().expect("row indexes built above");
        // Relations that lose rows: their dense tables must be dropped.
        let touched: HashSet<(Predicate, u16)> =
            dead.iter().map(|&id| relation(&self.atoms[id])).collect();

        // dom(): the values whose first occurrence dies must be re-placed.
        // Their next occurrence (if any) lies after that dead row, so the
        // scan below starts at the first such row's post-retraction id.
        let mut moved: HashSet<Value> = HashSet::new();
        let mut scan_from = usize::MAX;
        for (rank, &id) in dead.iter().enumerate() {
            for &v in &self.atoms[id].args {
                if rows.dom_first.get(&v) == Some(&id) && moved.insert(v) {
                    scan_from = scan_from.min(id - rank);
                }
            }
        }
        for v in &moved {
            rows.dom_first.remove(v);
        }
        for id in rows.dom_first.values_mut() {
            *id = renumbered(*id, &dead);
        }

        for &id in &dead {
            rows.index_of.remove(&self.atoms[id]);
        }
        for id in rows.index_of.values_mut() {
            *id = renumbered(*id, &dead);
        }
        rows.by_pred.retain(|_, ids| {
            drop_and_renumber(ids, &dead);
            !ids.is_empty()
        });
        rows.by_pred_pos_val.retain(|_, ids| {
            drop_and_renumber(ids, &dead);
            !ids.is_empty()
        });

        remove_sorted(&mut self.atoms, &dead);

        if !moved.is_empty() {
            rows.dom.retain(|v| !moved.contains(v));
            // (value, first row, first position), in dom order.
            let mut found: Vec<(Value, usize, usize)> = Vec::new();
            'scan: for (id, a) in self.atoms.iter().enumerate().skip(scan_from) {
                for (pos, &v) in a.args.iter().enumerate() {
                    if moved.remove(&v) {
                        rows.dom_first.insert(v, id);
                        found.push((v, id, pos));
                        if moved.is_empty() {
                            break 'scan;
                        }
                    }
                }
            }
            let atoms = &self.atoms;
            let first = &rows.dom_first;
            let key = |u: &Value| {
                let id = first[u];
                let pos = atoms[id].args.iter().position(|x| x == u);
                (id, pos.expect("first occurrence mentions the value"))
            };
            let mut merged = Vec::with_capacity(rows.dom.len() + found.len());
            let mut rest = rows.dom.as_slice();
            for (v, id, pos) in found {
                let at = rest.partition_point(|u| key(u) < (id, pos));
                merged.extend_from_slice(&rest[..at]);
                merged.push(v);
                rest = &rest[at..];
            }
            merged.extend_from_slice(rest);
            rows.dom = merged;
        }
        self.dense.invalidate_relations(&touched);
        dead.len()
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

    /// The id (insertion-order position) of the atom, if present.
    pub fn id_of(&self, atom: &GroundAtom) -> Option<usize> {
        self.rows().index_of.get(atom).copied()
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the instance has no atoms.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Iterates over atoms in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &GroundAtom> {
        self.atoms.iter()
    }

    /// The atom at `idx` (insertion order).
    pub fn atom(&self, idx: usize) -> &GroundAtom {
        &self.atoms[idx]
    }

    /// All atoms in insertion order as one slice — the bulk accessor used
    /// by compiled query plans to resolve candidate indexes without
    /// per-atom bounds checks.
    pub fn atoms(&self) -> &[GroundAtom] {
        &self.atoms
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

    /// Exports the dense-encoded store in portable form, for snapshot
    /// persistence (see [`crate::dense::DenseExport`]).
    pub fn export_dense(&self) -> DenseExport {
        self.dense.export_state()
    }

    /// Re-installs an exported dense store after validating the dictionary
    /// order and every encoded cell against the atoms; invalid
    /// sections are skipped and rebuild lazily. Only a pristine (never
    /// dense-queried) instance accepts the import. Returns
    /// `(tables installed, tries installed)`.
    pub fn install_dense(&self, export: &DenseExport) -> (usize, usize) {
        if export.dict.is_empty() && export.tables.is_empty() && export.tries.is_empty() {
            return (0, 0);
        }
        self.dense.install_state(export, &self.atoms)
    }

    /// The distinct predicates appearing in the instance, in first-use order.
    pub fn predicates(&self) -> Vec<Predicate> {
        let mut seen = Vec::new();
        for a in &self.atoms {
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
        for a in &self.atoms {
            s.add(a.predicate, a.arity());
        }
        s
    }

    /// `I|T`: the restriction to atoms mentioning only constants of `keep`.
    pub fn restrict_to(&self, keep: &HashSet<Value>) -> Instance {
        Instance::from_atoms(
            self.atoms
                .iter()
                .filter(|a| a.args.iter().all(|v| keep.contains(v)))
                .cloned(),
        )
    }

    /// Restriction to atoms over the given predicates.
    pub fn restrict_predicates(&self, keep: &HashSet<Predicate>) -> Instance {
        Instance::from_atoms(
            self.atoms
                .iter()
                .filter(|a| keep.contains(&a.predicate))
                .cloned(),
        )
    }

    /// Applies a value mapping to every atom, producing a new instance (the
    /// homomorphic image when `f` is a homomorphism).
    pub fn map_values(&self, f: impl Fn(Value) -> Value) -> Instance {
        Instance::from_atoms(self.atoms.iter().map(|a| a.map(&f)))
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
                self.atoms
                    .iter()
                    .any(|a| a.mentions(v0) && vs.iter().all(|&v| a.mentions(v)))
            }
        }
    }

    /// All maximal guarded sets: for each atom, `dom(α)` — deduplicated and
    /// restricted to the ⊆-maximal ones. Used by the guarded unraveling and
    /// the OMQ→CQS reduction.
    pub fn maximal_guarded_sets(&self) -> Vec<Vec<Value>> {
        let mut sets: Vec<Vec<Value>> = Vec::new();
        for a in &self.atoms {
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
        for a in &self.atoms {
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
        self.atoms.iter().filter(|a| a.mentions(v)).count() == 1
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
        for (i, a) in self.atoms.iter().enumerate() {
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
        assert_eq!(i.atoms().len(), i.len());
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
    fn retract_renumbers_every_index() {
        let mut i = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("R", &["b", "c"]),
            GroundAtom::named("P", &["a"]),
        ]);
        assert!(i.retract(&GroundAtom::named("R", &["a", "b"])));
        assert!(
            !i.retract(&GroundAtom::named("R", &["a", "b"])),
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
    fn retract_drops_values_no_atom_mentions() {
        let mut i = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("P", &["c"]),
        ]);
        assert_eq!(i.retract_atoms(&[GroundAtom::named("R", &["a", "b"])]), 1);
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
        let n = i.retract_atoms(&[
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("R", &["z", "z"]), // absent
            GroundAtom::named("P", &["a"]),
        ]);
        assert_eq!(n, 2);
        assert!(i.is_empty());
        assert!(i.dom().is_empty());
        assert_eq!(i.retract_atoms(&[GroundAtom::named("P", &["a"])]), 0);
    }

    #[test]
    fn retracting_a_whole_relation_drops_its_trie() {
        let mut i = Instance::new();
        i.insert(GroundAtom::named("E", &["a", "b"]));
        i.insert(GroundAtom::named("P", &["c"]));
        let e = Predicate::new("E");
        trie_perm(&i, e, 2, &[0, 1]);
        i.retract(&GroundAtom::named("E", &["a", "b"]));
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
        i.retract(&GroundAtom::named("E", &["a", "z"]));
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
