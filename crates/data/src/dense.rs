//! Dense-dictionary columnar storage: order-preserving `Value → u32`
//! codes, per-relation encoded code columns, and flat sorted trie
//! levels for the worst-case-optimal join executor.
//!
//! This is the only key representation the WCOJ executor runs on: it
//! recompresses relations so the executor gallops over plain `&[u32]`
//! slices instead of comparing 16-byte [`Value`]s:
//!
//! * [`Dict`] — one **global** dictionary per [`crate::Instance`] mapping
//!   every value that occurs in any encoded relation to a dense `u32`
//!   code. Codes are **order-preserving** (`code(a) < code(b)` iff
//!   `a < b`), so comparing codes *is* comparing values — leapfrog
//!   intersections across atoms stay valid without ever decoding.
//! * [`DenseTrie`] — per `(predicate, arity, column order)`, the sorted
//!   row permutation together with **materialized per-level key arrays**:
//!   `level(l)[i]` is the code of the `i`-th sorted row at trie level `l`.
//!   Seeks touch one cache-linear `u32` array, no permutation chasing.
//! * [`DenseStore`] — the epoch-consistent owner: encoded tables, tries,
//!   and the dictionary evolve together under one lock; readers take
//!   `Arc` snapshots that stay mutually consistent even while the store
//!   moves on (copy-on-write on remap).
//!
//! **Rows.** The store keeps no `Value` copy of the facts. It encodes
//! straight from the instance's atom vector: a `(predicate, arity)`
//! relation's rows are its atoms in insertion order, handed over as the
//! relation's id list ([`RelationIds`]), so row `r` is
//! `atoms[ids[rel][r]]`.
//!
//! **Growth discipline.** Appending a value larger than every existing
//! one (the common case: chase-invented nulls — [`Value::Null`] labels are
//! globally monotone and nulls sort after all named constants) extends
//! the dictionary in place without touching any code. Only a value that
//! sorts *before* an existing one forces a **remap**: every code shifts
//! by the insertion offsets, applied in one pass over all encoded storage
//! (`O(cells)`), never a re-sort — the remap is monotone, so every trie's
//! permutation survives unchanged. The `dict_hits` / `dict_misses` /
//! `remaps` counters (also surfaced as `dense.*` obs metrics) make the
//! contract observable; `tests/instance_invariants.rs` asserts it.
//!
//! **Trie maintenance.** A trie is built by one full sort on first demand
//! and, when its relation has grown since, extended by sorting only the
//! delta rows and merging (`O(d log d + n)`) — a chase that inserts a few
//! atoms per round never pays a full re-sort. The `full_builds` /
//! `merge_extends` counters (the `index.*` obs metrics) make that contract
//! observable too.

use crate::atom::GroundAtom;
use crate::idhash::IdHashMap;
use crate::obs;
use crate::schema::Predicate;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Per `(predicate, arity)` relation, the ids of its atoms in insertion
/// order: the relation's row order. The instance's per-relation candidate
/// lists.
pub type RelationIds = IdHashMap<(Predicate, u16), Vec<usize>>;

/// The rows of `(p, arity)` as atom ids (empty when the relation is).
fn relation_ids(ids: &RelationIds, p: Predicate, arity: u16) -> &[usize] {
    ids.get(&(p, arity)).map_or(&[], Vec::as_slice)
}

/// The global order-preserving dictionary of one [`DenseStore`] epoch:
/// `decode(code(v)) == v` and `code(a) < code(b) ⇔ a < b` for all values
/// present. Immutable once handed out (snapshots clone-on-write).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dict {
    /// All encoded values, ascending; a value's code is its index.
    sorted: Vec<Value>,
    code_of: HashMap<Value, u32>,
}

impl Dict {
    /// Number of distinct encoded values.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The code of `v`, if `v` occurs in any encoded relation of this
    /// epoch. `None` means `v` is provably absent from every encoded
    /// column.
    #[inline]
    pub fn code(&self, v: Value) -> Option<u32> {
        self.code_of.get(&v).copied()
    }

    /// The value behind a code (codes come from this dictionary's own
    /// epoch; panics on a foreign code).
    #[inline]
    pub fn decode(&self, code: u32) -> Value {
        self.sorted[code as usize]
    }

    /// All encoded values in code (= value) order.
    pub fn values(&self) -> &[Value] {
        &self.sorted
    }
}

/// One predicate's tuples under one column order, dense-encoded: the
/// lexicographically sorted row permutation plus flat per-level key
/// arrays. This is what a dense trie cursor walks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseTrie {
    /// Row ids sorted lex by the encoded key tuple, ties by row id —
    /// codes are order-preserving, so this is also the rows' value order.
    perm: Vec<u32>,
    /// `levels[l][i]`: the code at trie level `l` of the `i`-th sorted
    /// row. One flat array per level; `levels.len()` is the arity.
    levels: Vec<Vec<u32>>,
    rows: usize,
    /// CSR trie derived from `levels`: `entries[l]` holds each level's
    /// **distinct** keys (within their parent group), concatenated in
    /// parent order. A trie cursor walks these instead of the
    /// row-duplicated `levels`: `next` is `pos + 1`, a key group is one
    /// entry, and seeks gallop over short duplicate-free `u32` runs.
    entries: Vec<Vec<u32>>,
    /// `child[l][e] .. child[l][e + 1]`: the entry range at level `l + 1`
    /// below entry `e` of level `l` (one offsets array per non-leaf
    /// level).
    child: Vec<Vec<u32>>,
}

impl DenseTrie {
    /// Number of rows covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The sorted key codes of trie level `l` (aligned with [`DenseTrie::perm`]).
    #[inline]
    pub fn level(&self, l: usize) -> &[u32] {
        &self.levels[l]
    }

    /// The sorted row ids (row `perm()[i]` of the relation is the `i`-th
    /// trie row).
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// The distinct keys of trie level `l` in CSR entry order (grouped by
    /// parent entry, ascending within each group).
    #[inline]
    pub fn entry_keys(&self, l: usize) -> &[u32] {
        &self.entries[l]
    }

    /// The child entry range at level `l + 1` below entry `e` of level
    /// `l`.
    #[inline]
    pub fn entry_children(&self, l: usize, e: usize) -> (u32, u32) {
        let c = &self.child[l];
        (c[e], c[e + 1])
    }

    /// The raw child-offset array of non-leaf level `l`: entry `e`'s
    /// children at level `l + 1` span `offsets[e] .. offsets[e + 1]`.
    #[inline]
    pub fn entry_child_offsets(&self, l: usize) -> &[u32] {
        &self.child[l]
    }

    /// Builds the CSR arrays from freshly (re)computed flat levels.
    fn build_csr(levels: &[Vec<u32>], rows: usize) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let depth = levels.len();
        let mut entries: Vec<Vec<u32>> = vec![Vec::new(); depth];
        let mut child: Vec<Vec<u32>> = vec![Vec::new(); depth.saturating_sub(1)];
        for i in 0..rows {
            // The first level where row i diverges from row i-1 starts a
            // fresh entry there and at every level below.
            let fd = if i == 0 {
                0
            } else {
                (0..depth)
                    .find(|&l| levels[l][i] != levels[l][i - 1])
                    .unwrap_or(depth)
            };
            for l in fd..depth {
                if l + 1 < depth {
                    child[l].push(entries[l + 1].len() as u32);
                }
                entries[l].push(levels[l][i]);
            }
        }
        for (l, c) in child.iter_mut().enumerate() {
            c.push(entries[l + 1].len() as u32);
        }
        (entries, child)
    }
}

/// One relation's rows, encoded: `cols[j][r]` is the code of argument
/// `j` of row `r`. `rows` counts the prefix of the relation's id list
/// encoded so far.
#[derive(Debug, Clone, Default)]
struct EncodedTable {
    cols: Vec<Vec<u32>>,
    rows: usize,
}

/// Counters and sizes of a [`DenseStore`], for asserting the
/// append-mostly growth contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DenseStats {
    /// Distinct values in the dictionary.
    pub dict_size: usize,
    /// Encode lookups answered by an existing code.
    pub dict_hits: usize,
    /// Encode lookups that minted a fresh code.
    pub dict_misses: usize,
    /// Order-preserving remaps (a fresh value sorted before an existing
    /// one). Appends — including every chase-invented null — never remap.
    pub remaps: usize,
    /// Dense tries currently materialized.
    pub tries: usize,
    /// Tries built by a full sort (first demand, or first demand after a
    /// retraction dropped the relation's tries). A loaded snapshot has no
    /// tries, so its first demand of each order is one full build.
    pub full_builds: usize,
    /// Tries extended by sorting only the insert delta and merging.
    pub merge_extends: usize,
}

/// Trie key: `(predicate, arity, column order)`.
type TrieKey = (Predicate, u16, Vec<u16>);

/// The mutable core: dictionary, encoded tables, and tries move through
/// epochs together (every mutation happens under one write lock, so any
/// snapshot taken under the read lock is internally consistent).
#[derive(Debug, Default)]
struct Inner {
    dict: Arc<Dict>,
    tables: HashMap<(Predicate, u16), EncodedTable>,
    tries: HashMap<TrieKey, Arc<DenseTrie>>,
    /// What snapshots hand out for each key: usually the key's own trie,
    /// but when two column orders of one predicate produce **identical**
    /// level arrays (symmetric relations are the canonical case: `E`
    /// sorted `(src, dst)` equals `E` sorted `(dst, src)`), both keys
    /// share one `Arc` — the executor then recognizes duplicate cursors
    /// by pointer and drops redundant leapfrog participants. `perm` may
    /// differ between the aliased keys, so delta extension keeps reading
    /// the per-key trie in `tries`; cursors never touch `perm`.
    canon: HashMap<TrieKey, Arc<DenseTrie>>,
}

/// Lazily built, incrementally maintained dense-encoded storage. Interior
/// mutability: queries build/extend through `&Instance` (query execution
/// never holds `&mut`), concurrent readers share `Arc` snapshots.
#[derive(Debug, Default)]
pub struct DenseStore {
    inner: RwLock<Inner>,
    dict_hits: AtomicUsize,
    dict_misses: AtomicUsize,
    remaps: AtomicUsize,
    full_builds: AtomicUsize,
    merge_extends: AtomicUsize,
}

impl Clone for DenseStore {
    fn clone(&self) -> DenseStore {
        let inner = self.inner.read().expect("dense lock");
        DenseStore {
            inner: RwLock::new(Inner {
                dict: Arc::clone(&inner.dict),
                tables: inner.tables.clone(),
                // Shared `Arc`s are safe: any later remap in either copy
                // goes through `Arc::make_mut` and clones first.
                tries: inner.tries.clone(),
                canon: inner.canon.clone(),
            }),
            dict_hits: AtomicUsize::new(self.dict_hits.load(AtomicOrdering::Relaxed)),
            dict_misses: AtomicUsize::new(self.dict_misses.load(AtomicOrdering::Relaxed)),
            remaps: AtomicUsize::new(self.remaps.load(AtomicOrdering::Relaxed)),
            full_builds: AtomicUsize::new(self.full_builds.load(AtomicOrdering::Relaxed)),
            merge_extends: AtomicUsize::new(self.merge_extends.load(AtomicOrdering::Relaxed)),
        }
    }
}

impl DenseStore {
    /// Drops the encoded tables, tries, and canon entries of the touched
    /// `(predicate, arity)` relations after some of their atoms were
    /// retracted. The encoded tables are row-aligned and grow-only
    /// (`snapshot` keys freshness on `trie.rows == ids.len()`), so a
    /// shrunk relation cannot be patched in place — the next snapshot
    /// rebuilds it from the surviving rows.
    ///
    /// The dictionary is retained: codes of surviving values are
    /// unchanged, and an entry for a value no longer present is harmless —
    /// it only means `Dict::code` answers `Some` for a value every seek
    /// will miss anyway (the `None ⇒ absent` direction still holds).
    /// Untouched relations keep their tries; canon aliases only ever link
    /// column orders of one `(predicate, arity)`, so dropping by that key
    /// can never leave a dangling alias.
    pub(crate) fn invalidate_relations(
        &self,
        touched: &std::collections::HashSet<(Predicate, u16)>,
    ) {
        if touched.is_empty() {
            return;
        }
        let mut inner = self.inner.write().expect("dense lock");
        inner.tables.retain(|k, _| !touched.contains(k));
        inner.tries.retain(|k, _| !touched.contains(&(k.0, k.1)));
        inner.canon.retain(|k, _| !touched.contains(&(k.0, k.1)));
    }

    /// Current counters.
    pub fn stats(&self) -> DenseStats {
        let inner = self.inner.read().expect("dense lock");
        DenseStats {
            dict_size: inner.dict.len(),
            dict_hits: self.dict_hits.load(AtomicOrdering::Relaxed),
            dict_misses: self.dict_misses.load(AtomicOrdering::Relaxed),
            remaps: self.remaps.load(AtomicOrdering::Relaxed),
            tries: inner.tries.len(),
            full_builds: self.full_builds.load(AtomicOrdering::Relaxed),
            merge_extends: self.merge_extends.load(AtomicOrdering::Relaxed),
        }
    }

    /// A consistent snapshot serving one query: the dictionary plus, per
    /// request `(predicate, arity, column order)`, the dense trie —
    /// `None` when the relation is empty (provably no matching rows).
    /// Builds or delta-extends whatever is stale first; when everything
    /// is current this is one read-lock hold and `Arc` clones.
    ///
    /// All returned parts come from **one** lock hold, so they are
    /// mutually consistent even if the store moves to a new epoch (a
    /// remap copy-on-writes the stored tries; this snapshot keeps the
    /// old ones).
    pub fn snapshot(
        &self,
        atoms: &[GroundAtom],
        ids: &RelationIds,
        reqs: &[(Predicate, u16, &[u16])],
    ) -> (Arc<Dict>, Vec<Option<Arc<DenseTrie>>>) {
        // Fast path: everything current under the read lock.
        {
            let inner = self.inner.read().expect("dense lock");
            let mut out: Vec<Option<Arc<DenseTrie>>> = Vec::with_capacity(reqs.len());
            let mut fresh = true;
            for &(p, arity, order) in reqs {
                let rows = relation_ids(ids, p, arity).len();
                if rows == 0 {
                    out.push(None);
                    continue;
                }
                match inner.canon.get(&(p, arity, order.to_vec())) {
                    Some(t) if t.rows == rows => out.push(Some(Arc::clone(t))),
                    _ => {
                        fresh = false;
                        break;
                    }
                }
            }
            if fresh {
                return (Arc::clone(&inner.dict), out);
            }
        }
        let mut inner = self.inner.write().expect("dense lock");
        for &(p, arity, order) in reqs {
            let rel = relation_ids(ids, p, arity);
            if !rel.is_empty() {
                self.ensure_table(&mut inner, p, arity, atoms, rel);
                self.ensure_trie(&mut inner, p, arity, order);
            }
        }
        let out = reqs
            .iter()
            .map(|&(p, arity, order)| {
                (!relation_ids(ids, p, arity).is_empty()).then(|| {
                    Arc::clone(
                        inner
                            .canon
                            .get(&(p, arity, order.to_vec()))
                            .expect("trie ensured above"),
                    )
                })
            })
            .collect();
        (Arc::clone(&inner.dict), out)
    }

    /// Brings the encoded table of `(p, arity)` up to date with the
    /// relation's rows `rel` (atom ids into `atoms`): extends the
    /// dictionary by the delta's fresh values (append when they all sort
    /// last, one monotone remap otherwise) and encodes the delta rows.
    fn ensure_table(
        &self,
        inner: &mut Inner,
        p: Predicate,
        arity: u16,
        atoms: &[GroundAtom],
        rel: &[usize],
    ) {
        let done = inner
            .tables
            .get(&(p, arity))
            .map_or(0, |t: &EncodedTable| t.rows);
        let rows = rel.len();
        if done >= rows {
            return;
        }
        let delta = &rel[done..];
        // Pass 1: collect the delta's values missing from the dictionary.
        let (mut hits, mut misses) = (0usize, 0usize);
        let mut fresh: BTreeSet<Value> = BTreeSet::new();
        for &id in delta {
            for &v in &atoms[id].args {
                if inner.dict.code_of.contains_key(&v) {
                    hits += 1;
                } else if fresh.insert(v) {
                    misses += 1;
                } else {
                    hits += 1;
                }
            }
        }
        self.dict_hits.fetch_add(hits, AtomicOrdering::Relaxed);
        self.dict_misses.fetch_add(misses, AtomicOrdering::Relaxed);
        obs::count(obs::Metric::DenseDictHits, hits as u64);
        obs::count(obs::Metric::DenseDictMisses, misses as u64);
        if !fresh.is_empty() {
            self.extend_dict(inner, fresh);
        }
        // Pass 2: encode the delta.
        let dict = Arc::clone(&inner.dict);
        let table = inner.tables.entry((p, arity)).or_default();
        if table.cols.len() != arity as usize {
            table.cols = vec![Vec::new(); arity as usize];
        }
        for col in &mut table.cols {
            col.reserve(delta.len());
        }
        for &id in delta {
            for (col, v) in table.cols.iter_mut().zip(&atoms[id].args) {
                col.push(dict.code_of[v]);
            }
        }
        table.rows = rows;
    }

    /// Extends the dictionary by `fresh` (nonempty, sorted, disjoint from
    /// the current contents). Append path: all fresh values sort after
    /// the current maximum — codes are minted past the end and nothing
    /// else moves. Merge path: codes shift monotonically; every encoded
    /// cell of every table and trie is rewritten in one pass
    /// (copy-on-write for tries already snapshotted by readers).
    fn extend_dict(&self, inner: &mut Inner, fresh: BTreeSet<Value>) {
        let append = match (inner.dict.sorted.last(), fresh.first()) {
            (Some(&max), Some(&min)) => max < min,
            _ => true,
        };
        let dict = Arc::make_mut(&mut inner.dict);
        if append {
            for v in fresh {
                let code = dict.sorted.len() as u32;
                dict.sorted.push(v);
                dict.code_of.insert(v, code);
            }
            return;
        }
        self.remaps.fetch_add(1, AtomicOrdering::Relaxed);
        obs::count(obs::Metric::DenseRemaps, 1);
        // Two-pointer merge of the (sorted, disjoint) sequences, recording
        // where every old code lands.
        let old = std::mem::take(&mut dict.sorted);
        let mut old_to_new: Vec<u32> = Vec::with_capacity(old.len());
        let mut merged: Vec<Value> = Vec::with_capacity(old.len() + fresh.len());
        let mut fresh = fresh.into_iter().peekable();
        for v in old {
            while let Some(&f) = fresh.peek() {
                if f < v {
                    merged.push(f);
                    fresh.next();
                } else {
                    break;
                }
            }
            old_to_new.push(merged.len() as u32);
            merged.push(v);
        }
        merged.extend(fresh);
        dict.code_of = merged
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        dict.sorted = merged;
        for table in inner.tables.values_mut() {
            for col in &mut table.cols {
                for c in col.iter_mut() {
                    *c = old_to_new[*c as usize];
                }
            }
        }
        for trie in inner.tries.values_mut() {
            // The remap is monotone, so the sort order, the permutation,
            // and the CSR grouping all survive; only stored keys shift.
            let trie = Arc::make_mut(trie);
            for level in &mut trie.levels {
                for c in level.iter_mut() {
                    *c = old_to_new[*c as usize];
                }
            }
            for level in &mut trie.entries {
                for c in level.iter_mut() {
                    *c = old_to_new[*c as usize];
                }
            }
        }
        // `Arc::make_mut` above may have diverged from the `Arc`s aliased
        // in `canon`; re-point every key at its own (freshly remapped)
        // trie. Aliases re-form the next time a sibling is (re)built —
        // remaps only happen while loading named constants, before any
        // query has materialized tries, so this rarely drops sharing.
        inner.canon = inner
            .tries
            .iter()
            .map(|(k, t)| (k.clone(), Arc::clone(t)))
            .collect();
    }

    /// Builds or delta-extends the dense trie of `(p, arity, order)` from
    /// the (already current) encoded table. Extension sorts only the new
    /// row ids and merges — `O(d log d + n)`, never a full re-sort; each
    /// branch bumps its counter (`full_builds` / `merge_extends`).
    fn ensure_trie(&self, inner: &mut Inner, p: Predicate, arity: u16, order: &[u16]) {
        let table = &inner.tables[&(p, arity)];
        let rows = table.rows;
        let key = (p, arity, order.to_vec());
        let prev = inner.tries.get(&key);
        if prev.is_some_and(|t| t.rows == rows) {
            return;
        }
        let timer = obs::enabled().then(Instant::now);
        let cmp = |a: u32, b: u32| -> Ordering {
            for &j in order {
                let col = &table.cols[j as usize];
                match col[a as usize].cmp(&col[b as usize]) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            a.cmp(&b)
        };
        let perm: Vec<u32> = match prev {
            Some(t) => {
                let mut delta: Vec<u32> = (t.rows as u32..rows as u32).collect();
                delta.sort_unstable_by(|&a, &b| cmp(a, b));
                let old = &t.perm;
                let mut out: Vec<u32> = Vec::with_capacity(rows);
                let (mut i, mut j) = (0usize, 0usize);
                while i < old.len() && j < delta.len() {
                    if cmp(old[i], delta[j]) != Ordering::Greater {
                        out.push(old[i]);
                        i += 1;
                    } else {
                        out.push(delta[j]);
                        j += 1;
                    }
                }
                out.extend_from_slice(&old[i..]);
                out.extend_from_slice(&delta[j..]);
                self.merge_extends.fetch_add(1, AtomicOrdering::Relaxed);
                obs::count(obs::Metric::IndexMergeExtends, 1);
                out
            }
            None => {
                let mut all: Vec<u32> = (0..rows as u32).collect();
                all.sort_unstable_by(|&a, &b| cmp(a, b));
                self.full_builds.fetch_add(1, AtomicOrdering::Relaxed);
                obs::count(obs::Metric::IndexFullBuilds, 1);
                all
            }
        };
        let levels: Vec<Vec<u32>> = order
            .iter()
            .map(|&j| {
                let col = &table.cols[j as usize];
                perm.iter().map(|&r| col[r as usize]).collect()
            })
            .collect();
        let (entries, child) = DenseTrie::build_csr(&levels, rows);
        if let Some(t0) = timer {
            obs::observe(obs::Hist::IndexBuildNs, t0.elapsed().as_nanos() as u64);
        }
        let arc = Arc::new(DenseTrie {
            perm,
            levels,
            rows,
            entries,
            child,
        });
        // Content dedup: when a sibling column order of the same predicate
        // holds the *identical* sorted key sequence (symmetric relations —
        // a graph's `E` stored both ways), snapshots hand out the sibling's
        // `Arc` so the executor can drop duplicate leapfrog participants by
        // pointer identity. `perm` may differ across the alias, so `tries`
        // still keeps the key's own trie for delta extension.
        let shared = inner
            .tries
            .iter()
            .find(|(k2, t2)| {
                k2.0 == p
                    && k2.1 == arity
                    && k2.2 != key.2
                    && t2.rows == rows
                    && t2.levels == arc.levels
            })
            .map(|(k2, _)| Arc::clone(&inner.canon[k2]));
        inner
            .canon
            .insert(key.clone(), shared.unwrap_or_else(|| Arc::clone(&arc)));
        inner.tries.insert(key, arc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::named(s)
    }

    /// Relation rows as an instance hands them over: the atom vector and
    /// each relation's atom ids in insertion order.
    #[derive(Default)]
    struct Rows {
        atoms: Vec<GroundAtom>,
        ids: RelationIds,
    }

    impl Rows {
        fn push(&mut self, p: Predicate, args: &[Value]) {
            let rel = (p, args.len() as u16);
            self.ids.entry(rel).or_default().push(self.atoms.len());
            self.atoms.push(GroundAtom::new(p, args.to_vec()));
        }

        fn of(p: &str, rows: &[(&str, &str)]) -> Rows {
            let mut out = Rows::default();
            for &(a, b) in rows {
                out.push(Predicate::new(p), &[v(a), v(b)]);
            }
            out
        }
    }

    /// Snapshot of `store` over `rows`.
    fn snap(
        store: &DenseStore,
        rows: &Rows,
        reqs: &[(Predicate, u16, &[u16])],
    ) -> (Arc<Dict>, Vec<Option<Arc<DenseTrie>>>) {
        store.snapshot(&rows.atoms, &rows.ids, reqs)
    }

    fn arena(rows: &[&[&str]]) -> Rows {
        let mut out = Rows::default();
        for r in rows {
            let args: Vec<Value> = r.iter().map(|s| v(s)).collect();
            out.push(Predicate::new("R"), &args);
        }
        out
    }

    fn decoded_rows(dict: &Dict, trie: &DenseTrie) -> Vec<Vec<Value>> {
        (0..trie.rows())
            .map(|i| {
                (0..trie.levels.len())
                    .map(|l| dict.decode(trie.level(l)[i]))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn codes_are_order_preserving_and_rows_sorted() {
        let cols = arena(&[&["b", "x"], &["a", "z"], &["a", "y"], &["c", "w"]]);
        let store = DenseStore::default();
        let p = Predicate::new("R");
        let (dict, tries) = snap(&store, &cols, &[(p, 2, &[0, 1])]);
        let trie = tries[0].as_ref().unwrap();
        assert_eq!(trie.rows(), 4);
        for w in dict.values().windows(2) {
            assert!(w[0] < w[1]);
        }
        for (i, &val) in dict.values().iter().enumerate() {
            assert_eq!(dict.code(val), Some(i as u32));
            assert_eq!(dict.decode(i as u32), val);
        }
        let rows = decoded_rows(&dict, trie);
        let mut expect = rows.clone();
        expect.sort();
        assert_eq!(rows, expect);
    }

    #[test]
    fn append_only_growth_never_remaps() {
        let mut cols = arena(&[&["a"], &["b"]]);
        let store = DenseStore::default();
        let p = Predicate::new("R");
        snap(&store, &cols, &[(p, 1, &[0])]);
        assert_eq!(store.stats().remaps, 0);
        // Nulls sort after every named constant and their labels are
        // globally monotone: repeated inserts stay on the append path.
        for _ in 0..4 {
            let n = Value::fresh_null();
            cols.push(p, &[n]);
            snap(&store, &cols, &[(p, 1, &[0])]);
        }
        let s = store.stats();
        assert_eq!(s.remaps, 0);
        assert_eq!(s.dict_size, 6);
    }

    #[test]
    fn remap_shifts_codes_and_keeps_snapshots_consistent() {
        let mut cols = arena(&[&["m", "m"], &["x", "m"]]);
        let store = DenseStore::default();
        let p = Predicate::new("R");
        let (dict1, tries1) = snap(&store, &cols, &[(p, 2, &[0, 1])]);
        let rows1 = decoded_rows(&dict1, tries1[0].as_ref().unwrap());
        // A value sorting into the middle (or front) forces one remap.
        let small = *dict1.values().first().unwrap();
        let tiny = if v("a") < small { v("a") } else { v("zzz") };
        let forces_remap = tiny < *dict1.values().last().unwrap();
        cols.push(p, &[tiny, tiny]);
        let (dict2, tries2) = snap(&store, &cols, &[(p, 2, &[0, 1])]);
        assert_eq!(store.stats().remaps, usize::from(forces_remap));
        // The old snapshot still decodes to the same rows.
        assert_eq!(rows1, decoded_rows(&dict1, tries1[0].as_ref().unwrap()));
        // The new snapshot is sorted and complete.
        let rows2 = decoded_rows(&dict2, tries2[0].as_ref().unwrap());
        let mut expect = rows2.clone();
        expect.sort();
        assert_eq!(rows2, expect);
        assert_eq!(rows2.len(), 3);
        for w in dict2.values().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn empty_relation_yields_no_trie() {
        let store = DenseStore::default();
        let cols = Rows::default();
        let (dict, tries) = snap(&store, &cols, &[(Predicate::new("Z"), 2, &[0, 1])]);
        assert!(tries[0].is_none());
        assert!(dict.is_empty());
        assert_eq!(store.stats().tries, 0);
    }

    #[test]
    fn delta_extension_matches_full_rebuild() {
        let mut cols = arena(&[&["d", "q"], &["b", "r"]]);
        let store = DenseStore::default();
        let p = Predicate::new("R");
        snap(&store, &cols, &[(p, 2, &[1, 0])]);
        cols.push(p, &[v("c"), v("p")]);
        cols.push(p, &[v("a"), v("s")]);
        let (dict, tries) = snap(&store, &cols, &[(p, 2, &[1, 0])]);
        let trie = tries[0].as_ref().unwrap();
        let fresh = DenseStore::default();
        let (fdict, ftries) = snap(&fresh, &cols, &[(p, 2, &[1, 0])]);
        assert_eq!(
            decoded_rows(&dict, trie),
            decoded_rows(&fdict, ftries[0].as_ref().unwrap())
        );
        assert_eq!(trie.perm(), ftries[0].as_ref().unwrap().perm());
        // One full sort, then one delta merge — never a second full sort.
        let s = store.stats();
        assert_eq!((s.full_builds, s.merge_extends), (1, 1));
        // A repeat demand with no growth is a hit: no counter moves.
        snap(&store, &cols, &[(p, 2, &[1, 0])]);
        assert_eq!(store.stats(), s);
    }

    #[test]
    fn symmetric_orders_share_one_trie() {
        let cols = Rows::of("E", &[("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")]);
        let p = Predicate::new("E");
        let store = DenseStore::default();
        let (_, tries) = snap(&store, &cols, &[(p, 2, &[0, 1]), (p, 2, &[1, 0])]);
        let t01 = tries[0].as_ref().unwrap();
        let t10 = tries[1].as_ref().unwrap();
        assert!(
            Arc::ptr_eq(t01, t10),
            "identical-content tries of sibling column orders must alias"
        );
        // The alias serves snapshots only: each key keeps its own trie
        // (with its own permutation) for delta extension.
        assert_eq!(store.stats().tries, 2);
    }

    #[test]
    fn asymmetric_orders_stay_distinct() {
        let cols = Rows::of("R", &[("a", "b"), ("a", "c")]);
        let p = Predicate::new("R");
        let store = DenseStore::default();
        let (_, tries) = snap(&store, &cols, &[(p, 2, &[0, 1]), (p, 2, &[1, 0])]);
        assert!(!Arc::ptr_eq(
            tries[0].as_ref().unwrap(),
            tries[1].as_ref().unwrap()
        ));
    }

    #[test]
    fn remap_keeps_aliased_snapshots_decoding_consistently() {
        let mut cols = Rows::of("E", &[("m", "x"), ("x", "m")]);
        let p = Predicate::new("E");
        let store = DenseStore::default();
        let (dict1, tries1) = snap(&store, &cols, &[(p, 2, &[0, 1]), (p, 2, &[1, 0])]);
        assert!(Arc::ptr_eq(
            tries1[0].as_ref().unwrap(),
            tries1[1].as_ref().unwrap()
        ));
        let rows_before = decoded_rows(&dict1, tries1[0].as_ref().unwrap());
        // Force a remap (a value sorting before the existing minimum),
        // keeping the relation symmetric.
        cols.push(p, &[v("a"), v("a")]);
        let (dict2, tries2) = snap(&store, &cols, &[(p, 2, &[0, 1]), (p, 2, &[1, 0])]);
        assert_eq!(store.stats().remaps, 1);
        // Old aliased snapshot still decodes with its own dictionary.
        assert_eq!(
            rows_before,
            decoded_rows(&dict1, tries1[0].as_ref().unwrap())
        );
        // New snapshot: both orders complete, sorted, and mutually equal.
        let r01 = decoded_rows(&dict2, tries2[0].as_ref().unwrap());
        let r10 = decoded_rows(&dict2, tries2[1].as_ref().unwrap());
        assert_eq!(r01.len(), 3);
        assert_eq!(r01, r10);
        let mut expect = r01.clone();
        expect.sort();
        assert_eq!(r01, expect);
    }

    #[test]
    fn extension_after_aliasing_rebuilds_correct_tries() {
        let mut cols = Rows::of("E", &[("a", "b"), ("b", "a")]);
        let p = Predicate::new("E");
        let store = DenseStore::default();
        snap(&store, &cols, &[(p, 2, &[0, 1]), (p, 2, &[1, 0])]);
        // Grow asymmetrically: the alias must dissolve and both orders
        // must match a from-scratch build.
        cols.push(p, &[v("b"), v("c")]);
        let (dict, tries) = snap(&store, &cols, &[(p, 2, &[0, 1]), (p, 2, &[1, 0])]);
        assert!(!Arc::ptr_eq(
            tries[0].as_ref().unwrap(),
            tries[1].as_ref().unwrap()
        ));
        let fresh = DenseStore::default();
        let (fdict, ftries) = snap(&fresh, &cols, &[(p, 2, &[0, 1]), (p, 2, &[1, 0])]);
        for i in 0..2 {
            assert_eq!(
                decoded_rows(&dict, tries[i].as_ref().unwrap()),
                decoded_rows(&fdict, ftries[i].as_ref().unwrap())
            );
        }
    }

    #[test]
    fn invalidated_relation_rebuilds_from_shrunk_relation() {
        let mut cols = arena(&[&["b", "x"], &["a", "z"], &["c", "y"]]);
        let store = DenseStore::default();
        let p = Predicate::new("R");
        let (dict1, _) = snap(&store, &cols, &[(p, 2, &[0, 1])]);
        // Shrink the relation (drop the middle row) and invalidate.
        cols = Rows::of("R", &[("b", "x"), ("c", "y")]);
        let touched = [(p, 2u16)].into_iter().collect();
        store.invalidate_relations(&touched);
        assert_eq!(store.stats().tries, 0);
        let (dict2, tries) = snap(&store, &cols, &[(p, 2, &[0, 1])]);
        let trie = tries[0].as_ref().unwrap();
        assert_eq!(trie.rows(), 2);
        // The dropped trie comes back by a full sort, not a bogus merge.
        let s = store.stats();
        assert_eq!((s.full_builds, s.merge_extends), (2, 0));
        // The dictionary survived: codes of surviving values are stable
        // and the stale "a"/"z" entries are harmless.
        assert_eq!(dict1.code(v("b")), dict2.code(v("b")));
        assert!(dict2.code(v("a")).is_some());
        assert_eq!(store.stats().remaps, 0);
        let decoded = decoded_rows(&dict2, trie);
        assert_eq!(decoded, vec![vec![v("b"), v("x")], vec![v("c"), v("y")]]);
    }

    #[test]
    fn invalidation_spares_untouched_relations() {
        let p = Predicate::new("R");
        let q = Predicate::new("S");
        let mut cols = Rows::default();
        cols.push(p, &[v("a")]);
        cols.push(q, &[v("b")]);
        let store = DenseStore::default();
        let (_, before) = snap(&store, &cols, &[(p, 1, &[0]), (q, 1, &[0])]);
        store.invalidate_relations(&[(p, 1u16)].into_iter().collect());
        assert_eq!(store.stats().tries, 1);
        let (_, after) = snap(&store, &cols, &[(p, 1, &[0]), (q, 1, &[0])]);
        assert!(Arc::ptr_eq(
            before[1].as_ref().unwrap(),
            after[1].as_ref().unwrap()
        ));
        assert!(!Arc::ptr_eq(
            before[0].as_ref().unwrap(),
            after[0].as_ref().unwrap()
        ));
    }

    #[test]
    fn hit_miss_accounting() {
        let cols = arena(&[&["a", "b"], &["a", "b"], &["c", "b"]]);
        let store = DenseStore::default();
        let p = Predicate::new("R");
        snap(&store, &cols, &[(p, 2, &[0, 1])]);
        let s = store.stats();
        // 6 cells, 3 distinct values: 3 misses, 3 repeat hits.
        assert_eq!(s.dict_misses, 3);
        assert_eq!(s.dict_hits, 3);
        assert_eq!(s.dict_size, 3);
    }
}
