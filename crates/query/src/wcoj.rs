//! Worst-case-optimal join execution: leapfrog triejoin over the dense
//! CSR tries of `gtgd-data`.
//!
//! The backtracking kernel ([`crate::compile::KernelSearch`]) matches one
//! *atom* at a time; on cyclic bodies (triangles, cliques — the paper's
//! hardness core, Thms 5.4/5.13) its intermediate candidate sets can exceed
//! the AGM fractional-cover bound by polynomial factors. This module binds
//! one *variable* at a time instead: every atom containing the current
//! variable exposes a sorted trie iterator, and a leapfrog intersection
//! enumerates exactly the values present in *all* of them. The total work
//! is within the worst-case-optimal bound for the chosen variable order.
//!
//! Keys are `u32` codes from the instance's order-preserving dictionary
//! ([`gtgd_data::Dict`]), read from the CSR entry arrays of a
//! [`gtgd_data::DenseTrie`]: one cache-linear load per key, 4-byte
//! comparisons, decode back to [`Value`] only at answer materialization
//! (and mode checks). Codes compare in value order, so intersections are
//! valid across atoms and enumeration is ascending in value order.
//!
//! Three pieces live here:
//!
//! * [`build_plan`] — the planner: a global variable (slot) order — seeded
//!   guard-first from the widest atom, grown connected-first, degree then
//!   min-slot tie-breaks — plus, per atom, the trie level layout (which
//!   column is keyed by which depth, constants first).
//! * [`prefers_wcoj`] — the gate: slot-level GYO acyclicity test plus a
//!   high-arity multiway-join trigger. Acyclic low-join queries keep the
//!   backtracker (it wins on paths and stars with selective constants).
//! * [`WcojRun`] — the executor: trie cursors with `open`/`seek`/`next`/
//!   `up`, recursing over the variable order. Semantics (fixed slots,
//!   injectivity, image restriction, skipped atoms) mirror the
//!   backtracker exactly; `tests/differential_wcoj.rs` and
//!   `tests/differential_dense.rs` prove answer-set equality against it.
//!   [`WcojRun::split_probe`] exposes the next unbound
//!   intersection to the morsel scheduler
//!   ([`crate::compile::KernelSearch::par_table`]).

use crate::compile::{first_match, CAtom, CTerm};
use gtgd_data::{obs, DenseTrie, Dict, Instance, Value};
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::Arc;

/// What keys one trie level of one atom: an inline constant (descended
/// before any variable is bound) or the variable bound at a global depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LevelKey {
    /// The level's column holds this constant on every matching row.
    Const(Value),
    /// The level's column is keyed by the slot bound at this depth of the
    /// global variable order.
    Depth(u32),
}

/// One atom's trie layout: the column order its sorted index is requested
/// in, and what keys each level.
#[derive(Debug, Clone)]
pub(crate) struct AtomPlan {
    pub(crate) predicate: gtgd_data::Predicate,
    pub(crate) arity: usize,
    /// Term positions in trie-level order: constants first, then positions
    /// in increasing depth of their slot (position order within a depth).
    pub(crate) col_order: Vec<u16>,
    /// Aligned with `col_order`.
    pub(crate) keys: Vec<LevelKey>,
}

/// A compiled worst-case-optimal execution plan: the global variable order
/// plus per-atom trie layouts. Built once per [`crate::CompiledQuery`].
#[derive(Debug, Clone)]
pub(crate) struct WcojPlan {
    /// `order[d]` is the slot bound at depth `d`. Slots that occur in no
    /// atom (ghost slots) come last.
    pub(crate) order: Vec<u32>,
    /// One plan per compiled atom (same indexing).
    pub(crate) atoms: Vec<AtomPlan>,
}

/// Distinct slots of an atom, in first-occurrence order.
fn atom_slots(a: &CAtom) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for t in &a.terms {
        if let CTerm::Slot(s) = *t {
            if !out.contains(&s) {
                out.push(s);
            }
        }
    }
    out
}

/// Slot-level GYO reduction: `true` iff the hypergraph whose edges are the
/// atoms' slot sets is α-acyclic. (The query-level test in
/// [`crate::acyclic`] works on `Cq`/`Var`; this one runs at compile time
/// on interned slots.)
fn slots_acyclic(atoms: &[CAtom], slot_count: usize) -> bool {
    let mut edges: Vec<Vec<u32>> = atoms
        .iter()
        .map(|a| {
            let mut s = atom_slots(a);
            s.sort_unstable();
            s
        })
        .filter(|s| !s.is_empty())
        .collect();
    edges.sort();
    edges.dedup();
    loop {
        let mut changed = false;
        // Ear rule 1: drop vertices occurring in at most one edge.
        let mut occurs = vec![0usize; slot_count];
        for e in &edges {
            for &s in e {
                occurs[s as usize] += 1;
            }
        }
        for e in &mut edges {
            let before = e.len();
            e.retain(|&s| occurs[s as usize] > 1);
            changed |= e.len() != before;
        }
        // Ear rule 2: drop edges contained in another edge (and empties).
        let snapshot = edges.clone();
        let before = edges.len();
        edges.retain(|e| {
            !e.is_empty()
                && !snapshot
                    .iter()
                    .any(|f| f.len() > e.len() && e.iter().all(|s| f.contains(s)))
        });
        edges.sort();
        edges.dedup();
        changed |= edges.len() != before;
        if !changed {
            return edges.is_empty();
        }
    }
}

/// The planner gate: worst-case-optimal execution pays off on cyclic
/// bodies (its raison d'être) and on high-arity multiway joins where one
/// variable is shared by three or more atoms. Everything else — paths,
/// low-join lookups, E12's acyclic workloads — keeps the backtracker.
pub(crate) fn prefers_wcoj(atoms: &[CAtom], slot_count: usize) -> bool {
    if atoms.len() < 2 {
        return false;
    }
    if !slots_acyclic(atoms, slot_count) {
        return true;
    }
    if atoms.len() < 3 {
        return false;
    }
    let mut degree = vec![0usize; slot_count];
    for a in atoms {
        for s in atom_slots(a) {
            degree[s as usize] += 1;
        }
    }
    degree.iter().any(|&d| d >= 3)
}

/// Chooses the global variable order and builds per-atom trie layouts.
///
/// Order heuristic: seed with the *guard* — the atom with the most
/// distinct slots (widest scheme; in guarded bodies this is the guard
/// atom) — then repeatedly append the unordered slot sharing an atom with
/// an already-ordered slot (connectedness), preferring highest degree
/// (most atoms constrain it), breaking ties by smallest slot. Ghost slots
/// (interned but absent from every atom) are appended last.
pub(crate) fn build_plan(atoms: &[CAtom], slot_count: usize) -> WcojPlan {
    let slots_per_atom: Vec<Vec<u32>> = atoms.iter().map(atom_slots).collect();
    let mut degree = vec![0usize; slot_count];
    let mut occurring = vec![false; slot_count];
    for sa in &slots_per_atom {
        for &s in sa {
            degree[s as usize] += 1;
            occurring[s as usize] = true;
        }
    }
    let total_occurring = occurring.iter().filter(|&&b| b).count();
    let mut chosen = vec![false; slot_count];
    let mut order: Vec<u32> = Vec::with_capacity(slot_count);
    while order.len() < total_occurring {
        // Connected candidates: unchosen slots sharing an atom with a
        // chosen slot.
        let mut cands: Vec<u32> = Vec::new();
        for sa in &slots_per_atom {
            if sa.iter().any(|&s| chosen[s as usize]) {
                for &s in sa {
                    if !chosen[s as usize] && !cands.contains(&s) {
                        cands.push(s);
                    }
                }
            }
        }
        if cands.is_empty() {
            // New component: guard-first — the widest atom with any
            // unchosen slot seeds the candidates.
            let guard = slots_per_atom
                .iter()
                .enumerate()
                .filter(|(_, sa)| sa.iter().any(|&s| !chosen[s as usize]))
                .max_by_key(|(i, sa)| (sa.len(), std::cmp::Reverse(*i)))
                .map(|(i, _)| i)
                .expect("unchosen occurring slot implies a candidate atom");
            cands = slots_per_atom[guard]
                .iter()
                .copied()
                .filter(|&s| !chosen[s as usize])
                .collect();
        }
        let best = cands
            .into_iter()
            .min_by_key(|&s| (std::cmp::Reverse(degree[s as usize]), s))
            .expect("candidates nonempty");
        chosen[best as usize] = true;
        order.push(best);
    }
    for s in 0..slot_count as u32 {
        if !chosen[s as usize] {
            order.push(s);
        }
    }
    let mut depth_of = vec![u32::MAX; slot_count];
    for (d, &s) in order.iter().enumerate() {
        depth_of[s as usize] = d as u32;
    }
    let atom_plans = atoms
        .iter()
        .map(|a| {
            // (turn, position) sort: constants (turn −1) descend at init,
            // then levels in depth order; within one depth, term-position
            // order (the first is the intersection's primary, the rest are
            // repeated-variable checks).
            let mut levels: Vec<(i64, u16, LevelKey)> = a
                .terms
                .iter()
                .enumerate()
                .map(|(pos, t)| {
                    let pos = u16::try_from(pos).expect("arity fits u16");
                    match *t {
                        CTerm::Const(c) => (-1i64, pos, LevelKey::Const(c)),
                        CTerm::Slot(s) => {
                            let d = depth_of[s as usize];
                            (d as i64, pos, LevelKey::Depth(d))
                        }
                    }
                })
                .collect();
            levels.sort_by_key(|&(turn, pos, _)| (turn, pos));
            AtomPlan {
                predicate: a.predicate,
                arity: a.terms.len(),
                col_order: levels.iter().map(|&(_, pos, _)| pos).collect(),
                keys: levels.iter().map(|&(_, _, k)| k).collect(),
            }
        })
        .collect();
    WcojPlan {
        order,
        atoms: atom_plans,
    }
}

// ---------------------------------------------------------------------
// Dense snapshot
// ---------------------------------------------------------------------

/// One query's consistent view of the dense store: the dictionary plus
/// the trie of every active atom, from a single epoch. Owned by the
/// caller so the run (and its cursors) can borrow plain slices out of it
/// — the executor's hot loop then runs on `&[u32]` with no `Arc`
/// indirection.
pub(crate) struct DenseSnapshot {
    dict: Arc<Dict>,
    /// Aligned with the plan's atoms **after** the skip filter; `None`
    /// marks an empty relation.
    tries: Vec<Option<Arc<DenseTrie>>>,
}

impl DenseSnapshot {
    /// Takes one consistent snapshot serving every non-skipped atom of
    /// `wplan` against `target`.
    pub(crate) fn take(wplan: &WcojPlan, target: &Instance, skip: Option<usize>) -> DenseSnapshot {
        let reqs: Vec<(gtgd_data::Predicate, usize, &[u16])> = wplan
            .atoms
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != skip)
            .map(|(_, ap)| (ap.predicate, ap.arity, ap.col_order.as_slice()))
            .collect();
        let (dict, tries) = target.dense_snapshot(&reqs);
        DenseSnapshot { dict, tries }
    }
}

// ---------------------------------------------------------------------
// Cursors
// ---------------------------------------------------------------------

/// Below this range width, seeks scan linearly instead of galloping: on
/// short runs (tight key groups, small relations — the E4 k=2 regime) the
/// branchy exponential probe loses to a straight-line scan the optimizer
/// can unroll.
const LINEAR_SEEK_THRESHOLD: usize = 16;

/// One open level of a [`CsrCursor`]: the entry range `[pos, hi)` plus
/// the level's key array, cached in the frame so `key`/`seek`/`at_end`
/// touch one slice with no per-op trie indirection.
struct CsrFrame<'a> {
    keys: &'a [u32],
    pos: u32,
    hi: u32,
}

/// The trie iterator the executor recursion drives: walks
/// [`DenseTrie`]'s CSR entry arrays through slices borrowed from the
/// run's [`DenseSnapshot`]. Distinct keys make `next` a position
/// increment, child ranges are two offset loads, and seeks gallop over
/// short duplicate-free `u32` runs — no group-end searches anywhere.
pub(crate) struct CsrCursor<'a> {
    /// Per level: `(entry keys, child offsets)`; the leaf level's offset
    /// slice is empty.
    levels: Vec<(&'a [u32], &'a [u32])>,
    stack: Vec<CsrFrame<'a>>,
    /// Locally batched probe counters, flushed to obs once per run (the
    /// hot loop must not pay an atomic load per seek).
    seeks: u64,
    steps: u64,
}

impl<'a> CsrCursor<'a> {
    fn new(trie: &'a DenseTrie, depth: usize) -> CsrCursor<'a> {
        let levels = (0..depth)
            .map(|l| {
                let child: &[u32] = if l + 1 < depth {
                    trie.entry_child_offsets(l)
                } else {
                    &[]
                };
                (trie.entry_keys(l), child)
            })
            .collect();
        CsrCursor {
            levels,
            stack: Vec::with_capacity(depth),
            seeks: 0,
            steps: 0,
        }
    }

    /// Descends into the current key's children (or the root level).
    #[inline]
    fn open(&mut self) {
        let level = self.stack.len();
        let (lo, hi) = match self.stack.last() {
            None => (0, self.levels[0].0.len() as u32),
            Some(f) => {
                let offsets = self.levels[level - 1].1;
                (offsets[f.pos as usize], offsets[f.pos as usize + 1])
            }
        };
        self.stack.push(CsrFrame {
            keys: self.levels[level].0,
            pos: lo,
            hi,
        });
    }

    /// Ascends one level.
    fn up(&mut self) {
        self.stack.pop();
    }

    /// The current key, or `None` when the level is exhausted.
    ///
    /// The position/key accessors fold "at end?" and "which key?" into
    /// one call on purpose: the leapfrog alignment loop touches every
    /// participant once per pass, and each separate method call re-reads
    /// the cursor's top frame.
    #[inline]
    fn current(&self) -> Option<u32> {
        let f = self.stack.last().expect("cursor is open");
        if f.pos < f.hi {
            Some(f.keys[f.pos as usize])
        } else {
            None
        }
    }

    /// Advances to the next key at the current level and returns it
    /// (`None` when the level runs out).
    #[inline]
    fn advance(&mut self) -> Option<u32> {
        let f = self.stack.last_mut().expect("cursor is open");
        f.pos += 1;
        if f.pos < f.hi {
            Some(f.keys[f.pos as usize])
        } else {
            None
        }
    }

    /// Positions at the first key `>= v` (keys only move forward) and
    /// returns it (`None` when the level runs out).
    #[inline]
    fn seek(&mut self, v: u32) -> Option<u32> {
        self.seeks += 1;
        let f = self.stack.last_mut().expect("cursor is open");
        f.pos = seek_entries(f.keys, f.pos as usize, f.hi as usize, v, &mut self.steps) as u32;
        if f.pos < f.hi {
            Some(f.keys[f.pos as usize])
        } else {
            None
        }
    }

    /// An identity of the open top frame: two cursors with equal tokens
    /// are positioned on the **same range of the same key array** — they
    /// will enumerate identical keys here and expose identical subtrees
    /// below. The recursion uses this to elide duplicate leapfrog
    /// participants. The key slice is the whole CSR entry array of one
    /// trie level (never empty for a materialized trie), so its base
    /// pointer pins trie + level; `[pos, hi)` pins the frame.
    /// Content-deduped tries of a symmetric relation under both column
    /// orders share the arrays, so their cursors collide here.
    fn token(&self) -> (usize, u32, u32) {
        let f = self.stack.last().expect("cursor is open");
        (f.keys.as_ptr() as usize, f.pos, f.hi)
    }

    /// A pointer-identity of the cursor's backing trie (0 when there is
    /// none to share): cursors with equal nonzero ids read the same
    /// arrays, so equal seek histories leave them on identical frames.
    /// The root entry array pins the trie (content-deduped orders share
    /// it); degenerate zero-arity cursors opt out with 0.
    fn source_id(&self) -> usize {
        self.levels.first().map_or(0, |l| l.0.as_ptr() as usize)
    }

    /// The top frame's remaining keys as one contiguous slice. Powers the
    /// leaf-depth intersection fast path.
    #[inline]
    fn top_slice(&self) -> &[u32] {
        let f = self.stack.last().expect("cursor is open");
        &f.keys[f.pos as usize..f.hi as usize]
    }

    /// The top frame's position. Only meaningful for mirroring onto a
    /// cursor whose token equaled this one's at open: the backing arrays
    /// are the same, so the position transfers verbatim.
    #[inline]
    fn frame_pos(&self) -> u32 {
        self.stack.last().expect("cursor is open").pos
    }

    /// Overwrites the top frame's position (see [`CsrCursor::frame_pos`]).
    #[inline]
    fn set_frame_pos(&mut self, pos: u32) {
        self.stack.last_mut().expect("cursor is open").pos = pos;
    }

    /// Drains the locally batched `(seeks, gallop_steps)` probe counts.
    fn drain_obs(&mut self) -> (u64, u64) {
        let out = (self.seeks, self.steps);
        self.seeks = 0;
        self.steps = 0;
        out
    }
}

/// First index in `keys[lo..hi]` holding a key `>= v` (the slice is
/// strictly ascending): linear below [`LINEAR_SEEK_THRESHOLD`], gallop +
/// binary beyond.
#[inline]
fn seek_entries(keys: &[u32], lo: usize, hi: usize, v: u32, steps: &mut u64) -> usize {
    // One range check up front; the scan loops below then run over `sub`
    // without per-element bounds checks.
    let sub = &keys[lo..hi];
    match sub.first() {
        None => return lo,
        Some(&k) if k >= v => return lo,
        _ => {}
    }
    if sub.len() <= LINEAR_SEEK_THRESHOLD {
        let mut i = 1usize;
        for &k in &sub[1..] {
            if k >= v {
                break;
            }
            i += 1;
        }
        *steps += (i - 1) as u64;
        return lo + i;
    }
    let mut base = 0usize;
    let mut step = 1usize;
    let mut n = 0u64;
    while base + step < sub.len() && sub[base + step] < v {
        base += step;
        step <<= 1;
        n += 1;
    }
    let mut l = base + 1;
    let mut h = (base + step).min(sub.len());
    while l < h {
        let mid = l + (h - l) / 2;
        if sub[mid] < v {
            l = mid + 1;
        } else {
            h = mid;
        }
        n += 1;
    }
    *steps += n;
    lo + l
}

/// Intersects two strictly ascending slices into `out` (cleared first):
/// two-pointer merge when the sizes are comparable, per-element binary
/// probes into the larger side when they are skewed.
fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (a, b) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if a.is_empty() {
        return;
    }
    if b.len() / 8 > a.len() {
        let mut lo = 0usize;
        for &x in a {
            lo += b[lo..].partition_point(|&y| y < x);
            if lo == b.len() {
                return;
            }
            if b[lo] == x {
                out.push(x);
                lo += 1;
            }
        }
        return;
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        match x.cmp(&y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Streams the intersection of two strictly ascending slices to `f` in
/// ascending order without materializing it: two-pointer merge when the
/// sizes are comparable, per-element binary probes into the larger side
/// when they are skewed.
fn intersect_stream(
    a: &[u32],
    b: &[u32],
    mut f: impl FnMut(u32) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let (a, b) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if a.is_empty() {
        return ControlFlow::Continue(());
    }
    if b.len() / 8 > a.len() {
        let mut lo = 0usize;
        for &x in a {
            lo += b[lo..].partition_point(|&y| y < x);
            if lo == b.len() {
                return ControlFlow::Continue(());
            }
            if b[lo] == x {
                f(x)?;
                lo += 1;
            }
        }
        return ControlFlow::Continue(());
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(a[i])?;
                i += 1;
                j += 1;
            }
        }
    }
    ControlFlow::Continue(())
}

// ---------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------

/// One atom's executor state: its cursor plus a pointer to the next trie
/// level to descend.
struct RunAtom<'a> {
    cursor: CsrCursor<'a>,
    keys: &'a [LevelKey],
    ptr: usize,
}

/// What [`WcojRun::split_probe`] found at the first unbound constrained
/// depth — the morsel scheduler's expansion step.
pub(crate) enum SplitProbe {
    /// The bound prefix provably yields no answers.
    Dead,
    /// Every depth is pre-bound or unconstrained: the prefix is its own
    /// (indivisible) morsel.
    Exhausted,
    /// The slot at the first unbound constrained depth, with its
    /// candidate values (the leapfrog intersection) in ascending order —
    /// prefix + candidate `i` is a child morsel, and child order is
    /// sequential enumeration order.
    Candidates(usize, Vec<Value>),
}

/// A running worst-case-optimal search: the recursion over the global
/// variable order. Constructed per enumeration by the kernel
/// ([`crate::compile::KernelSearch`] routes here when the strategy gate
/// picks WCOJ).
pub(crate) struct WcojRun<'a> {
    /// The snapshot's dictionary: encodes fixed bindings and constants,
    /// decodes matched codes.
    dict: &'a Dict,
    order: &'a [u32],
    atoms: Vec<RunAtom<'a>>,
    injective: bool,
    allowed: Option<&'a HashSet<Value>>,
    /// Encoded bindings, indexed by slot (what the cursors compare).
    val: Vec<Option<u32>>,
    /// Decoded pre-bound values, indexed by slot. A fixed value absent
    /// from the dictionary can be bound here while `val` stays `None` —
    /// legal only for slots no atom constrains. Search-bound slots live
    /// in `val` only and decode at answer materialization.
    raw: Vec<Option<Value>>,
    used: HashSet<Value>,
    row: Vec<Value>,
    /// Per depth, every atom level keyed by that depth (atom index, with
    /// multiplicity, grouped in ascending atom order) — precomputed at
    /// init so the recursion never scans atom key lists.
    levels_at: Vec<Vec<u32>>,
    /// Per depth, the leapfrog participants: the first level per atom.
    leap_at: Vec<Vec<u32>>,
    /// Per depth, the repeated-variable levels: every level beyond an
    /// atom's first, in participant order.
    extra_at: Vec<Vec<u32>>,
    /// Per depth, the leapfrog ring scratch `(current key, atom)` — kept
    /// on the run so the recursion never allocates per node.
    ring_at: Vec<Vec<(u32, u32)>>,
    /// Per depth, scratch for the duplicate-cursor partition: the ring
    /// participants after eliding duplicates, the elided ("lazy")
    /// participants, and the open-frame tokens seen. Recomputed per node
    /// (frames differ per node), allocated once.
    active_at: Vec<Vec<u32>>,
    lazy_at: Vec<Vec<(u32, u32)>>,
    tok_at: Vec<Vec<(usize, u32, u32)>>,
    /// Leaf-depth intersection scratch (ping-pong pair): the last
    /// variable's candidates are materialized by slice intersection and
    /// emitted in one tight loop instead of driving the ring.
    leaf_buf: Vec<u32>,
    leaf_tmp: Vec<u32>,
    /// `true` when every slot is provably bound by emit time (pre-bound
    /// or keyed by some atom at its depth): `row` is then maintained
    /// incrementally — one decode per binding, not one per slot per
    /// answer — and emit is a bare callback. The `false` fallback keeps
    /// the checked per-slot materialization (and its unbound-slot panic).
    row_live: bool,
    /// The projection cut ([`WcojRun::project`]): the depth below which
    /// one full match suffices; `usize::MAX` enumerates every match.
    cut: usize,
}

impl<'a> WcojRun<'a> {
    /// Builds a run over trie cursors borrowing the caller's
    /// [`DenseSnapshot`] (one consistent [`gtgd_data::Dict`]/
    /// [`gtgd_data::DenseTrie`] epoch): encodes the fixed bindings,
    /// rejects provably empty searches (an empty relation, an
    /// un-encodable constrained binding or constant), and descends every
    /// atom's constant trie prefix.
    pub(crate) fn new(
        snap: &'a DenseSnapshot,
        wplan: &'a WcojPlan,
        raw: Vec<Option<Value>>,
        used: HashSet<Value>,
        injective: bool,
        allowed: Option<&'a HashSet<Value>>,
        skip: Option<usize>,
    ) -> Option<WcojRun<'a>> {
        let active = wplan
            .atoms
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != skip)
            .map(|(_, ap)| ap);
        let mut cursors: Vec<(CsrCursor<'a>, &'a [LevelKey])> = Vec::new();
        for (ap, trie) in active.zip(&snap.tries) {
            // An absent trie means the relation is empty: no answers.
            let trie = trie.as_ref()?;
            let levels = ap.col_order.len();
            cursors.push((CsrCursor::new(trie, levels), ap.keys.as_slice()));
        }
        let dict: &'a Dict = &snap.dict;
        let order: &'a [u32] = &wplan.order;
        let n = raw.len();
        let mut val: Vec<Option<u32>> = vec![None; n];
        for (s, bound) in raw.iter().enumerate() {
            if let Some(x) = *bound {
                val[s] = dict.code(x);
                if val[s].is_none() {
                    // The value occurs in no scanned relation: any atom
                    // level keyed by this slot's depth is unsatisfiable.
                    let d = order
                        .iter()
                        .position(|&o| o as usize == s)
                        .expect("every slot has a depth") as u32;
                    if cursors
                        .iter()
                        .any(|(_, keys)| keys.contains(&LevelKey::Depth(d)))
                    {
                        return None;
                    }
                }
            }
        }
        // A later atom whose cursor reads the same backing data as an
        // earlier one through the **same level-key sequence** repeats that
        // atom's constraint at every depth (same arrays, same seeks ⇒
        // same frames, by induction over the shared keys): drop it. This
        // is where content-deduped symmetric tries pay off — `E(x,y)`
        // and `E(y,x)` compile to one trie and identical key sequences,
        // halving the atom set of clique-style queries.
        let mut kept: Vec<(CsrCursor<'a>, &'a [LevelKey])> = Vec::with_capacity(cursors.len());
        for (cursor, keys) in cursors {
            let id = cursor.source_id();
            let dup = id != 0
                && kept
                    .iter()
                    .any(|(c2, k2)| c2.source_id() == id && *k2 == keys);
            if !dup {
                kept.push((cursor, keys));
            }
        }
        let atoms = kept
            .into_iter()
            .map(|(cursor, keys)| RunAtom {
                cursor,
                keys,
                ptr: 0,
            })
            .collect();
        let depths = order.len();
        let mut run = WcojRun {
            dict,
            order,
            atoms,
            injective,
            allowed,
            val,
            raw,
            used,
            // A placeholder: every cell is written before a row is handed out.
            row: vec![Value::Null(0); n],
            levels_at: vec![Vec::new(); depths],
            leap_at: vec![Vec::new(); depths],
            extra_at: vec![Vec::new(); depths],
            ring_at: vec![Vec::new(); depths],
            active_at: vec![Vec::new(); depths],
            lazy_at: vec![Vec::new(); depths],
            tok_at: vec![Vec::new(); depths],
            leaf_buf: Vec::new(),
            leaf_tmp: Vec::new(),
            row_live: false,
            cut: usize::MAX,
        };
        for ai in 0..run.atoms.len() {
            while let Some(LevelKey::Const(c)) = run.next_key(ai) {
                let code = run.dict.code(c)?;
                if !run.open_seek(ai, code) {
                    return None;
                }
            }
        }
        // Constants sort before all depth levels in every atom plan, so
        // after the constant descent each atom's remaining keys are depth
        // levels in recursion order: the participant sets per depth are
        // static. Precompute them once (the recursion is the hot path).
        for (ai, a) in run.atoms.iter().enumerate() {
            for k in &a.keys[a.ptr..] {
                let LevelKey::Depth(d) = *k else {
                    unreachable!("constants precede depth levels");
                };
                let d = d as usize;
                if run.levels_at[d].last() == Some(&(ai as u32)) {
                    run.extra_at[d].push(ai as u32);
                } else {
                    run.leap_at[d].push(ai as u32);
                }
                run.levels_at[d].push(ai as u32);
            }
        }
        run.row_live = run.order.iter().enumerate().all(|(d, &sl)| {
            let sl = sl as usize;
            run.raw[sl].is_some() || run.val[sl].is_some() || !run.leap_at[d].is_empty()
        });
        if run.row_live {
            for sl in 0..run.raw.len() {
                if let Some(v) = run.raw[sl] {
                    run.row[sl] = v;
                } else if let Some(k) = run.val[sl] {
                    run.row[sl] = run.dict.decode(k);
                }
            }
        }
        Some(run)
    }

    #[inline]
    fn next_key(&self, ai: usize) -> Option<LevelKey> {
        let a = &self.atoms[ai];
        a.keys.get(a.ptr).copied()
    }

    #[inline]
    fn next_is_depth(&self, ai: usize, d: usize) -> bool {
        self.next_key(ai) == Some(LevelKey::Depth(d as u32))
    }

    /// Opens atom `ai`'s next trie level and seeks `x`; `true` iff the
    /// level contains `x`. The level stays open either way (the caller
    /// unwinds with [`WcojRun::close`]).
    fn open_seek(&mut self, ai: usize, x: u32) -> bool {
        let a = &mut self.atoms[ai];
        a.cursor.open();
        a.ptr += 1;
        a.cursor.seek(x) == Some(x)
    }

    fn close(&mut self, ai: usize) {
        let a = &mut self.atoms[ai];
        a.cursor.up();
        a.ptr -= 1;
    }

    /// Projects the run onto the answer slots `slots`: the cut sits one
    /// depth past the deepest answer slot of the variable order (depth 0
    /// for a Boolean query). Each binding of the depths above it then
    /// yields one row, the first full match below; a cut at the last
    /// depth or beyond leaves full enumeration, since every row there
    /// binds a distinct prefix already.
    pub(crate) fn project(&mut self, slots: &[usize]) {
        let depth = self
            .order
            .iter()
            .rposition(|&o| slots.contains(&(o as usize)))
            .map_or(0, |deepest| deepest + 1);
        self.cut = if depth < self.order.len() {
            depth
        } else {
            usize::MAX
        };
    }

    /// Runs the search, invoking `f` per answer row (slot order).
    pub(crate) fn run(
        &mut self,
        f: &mut impl FnMut(&[Value]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let r = self.rec(0, f);
        self.flush_obs();
        r
    }

    /// Flushes the cursors' locally batched probe counters to obs (one
    /// atomic add per counter per run instead of one per seek).
    fn flush_obs(&mut self) {
        if !obs::enabled() {
            return;
        }
        let mut seeks = 0u64;
        let mut steps = 0u64;
        for a in &mut self.atoms {
            let (s, g) = a.cursor.drain_obs();
            seeks += s;
            steps += g;
        }
        obs::count(obs::Metric::WcojSeeks, seeks);
        obs::count(obs::Metric::WcojGallopSteps, steps);
    }

    /// Binds depth `d` and below; at the projection cut, only until the
    /// first full match ([`first_match`]). Stopping a subtree unwinds its
    /// cursors, bindings and scratch as any stop does.
    fn rec(
        &mut self,
        d: usize,
        f: &mut impl FnMut(&[Value]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if d == self.cut {
            return first_match(f, |g| self.descend(d, g));
        }
        self.descend(d, f)
    }

    fn descend(
        &mut self,
        d: usize,
        f: &mut impl FnMut(&[Value]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if d == self.order.len() {
            return self.emit(f);
        }
        let s = self.order[d] as usize;
        if let Some(x) = self.val[s] {
            // Pre-bound (fixed or a morsel seed): every level keyed by
            // this depth must contain x.
            let mut opened = 0usize;
            let mut ok = true;
            for i in 0..self.levels_at[d].len() {
                let ai = self.levels_at[d][i] as usize;
                opened = i + 1;
                if !self.open_seek(ai, x) {
                    ok = false;
                    break;
                }
            }
            let r = if ok {
                self.rec(d + 1, f)
            } else {
                ControlFlow::Continue(())
            };
            for i in (0..opened).rev() {
                let ai = self.levels_at[d][i] as usize;
                self.close(ai);
            }
            return r;
        }
        if self.leap_at[d].is_empty() {
            // No atom constrains this slot. The backtracker leaves such a
            // slot unbound too (and the emit `expect` fires on both paths
            // if it is ever reached without a fixed binding).
            return self.rec(d + 1, f);
        }
        // Depth-monotone recursion never revisits depth `d` while this
        // frame is live, so the participant list can be moved out to
        // sidestep per-iteration re-indexing through `self`.
        let parts = std::mem::take(&mut self.leap_at[d]);
        for &ai in &parts {
            let a = &mut self.atoms[ai as usize];
            a.cursor.open();
            a.ptr += 1;
        }
        // At an emit-eligible leaf depth the partition below is pointless
        // work: the leaf fast path never moves cursors per match, so
        // duplicate participants cost nothing (and init already dropped
        // full duplicates) — go straight to the intersection.
        let r = if self.leaf_eligible(d) {
            self.leapfrog(d, s, &parts, &[], f)
        } else {
            // Duplicate-cursor elision: participants whose freshly opened
            // frames carry equal tokens enumerate the same keys — only
            // the first joins the ring; the rest turn "lazy" and follow
            // each matched value by mirroring their twin's frame, keeping
            // their deeper levels reachable. Both-direction atoms over a
            // symmetric relation halve the ring this way at every depth.
            let mut active = std::mem::take(&mut self.active_at[d]);
            let mut lazy = std::mem::take(&mut self.lazy_at[d]);
            let mut toks = std::mem::take(&mut self.tok_at[d]);
            active.clear();
            lazy.clear();
            toks.clear();
            for &ai in &parts {
                let t = self.atoms[ai as usize].cursor.token();
                if let Some(j) = toks.iter().position(|&t2| t2 == t) {
                    lazy.push((ai, active[j]));
                } else {
                    toks.push(t);
                    active.push(ai);
                }
            }
            let r = self.leapfrog(d, s, &active, &lazy, f);
            self.active_at[d] = active;
            self.lazy_at[d] = lazy;
            self.tok_at[d] = toks;
            r
        };
        for &ai in parts.iter().rev() {
            self.close(ai as usize);
        }
        self.leap_at[d] = parts;
        r
    }

    /// Whether depth `d` qualifies for the leaf emit path: it binds the
    /// last variable, no repeated-variable levels key on it, and no
    /// per-value mode checks run.
    #[inline]
    fn leaf_eligible(&self, d: usize) -> bool {
        d + 1 == self.order.len()
            && self.extra_at[d].is_empty()
            && !self.injective
            && self.allowed.is_none()
    }

    /// Materializes and reports one answer row: pre-bound slots carry
    /// their decoded value in `raw`; search-bound slots decode from their
    /// code here, once per emitted answer.
    fn emit(&mut self, f: &mut impl FnMut(&[Value]) -> ControlFlow<()>) -> ControlFlow<()> {
        if self.row_live {
            return f(&self.row);
        }
        for i in 0..self.row.len() {
            self.row[i] = match self.raw[i] {
                Some(v) => v,
                None => {
                    let k = self.val[i].expect("every slot is bound at a full match");
                    self.dict.decode(k)
                }
            };
        }
        f(&self.row)
    }

    /// The leaf emit path: intersects the participants' key slices
    /// directly, smallest first, streaming the *final* intersection
    /// straight into the answer callback — the last merge is never
    /// materialized, and with one or two participants nothing is.
    /// `None` when the fan-in exceeds the stack scratch; the caller
    /// falls back to the ring.
    fn leaf_emit(
        &mut self,
        parts: &[u32],
        s: usize,
        f: &mut impl FnMut(&[Value]) -> ControlFlow<()>,
    ) -> Option<ControlFlow<()>> {
        let mut buf = std::mem::take(&mut self.leaf_buf);
        let mut tmp = std::mem::take(&mut self.leaf_tmp);
        let mut row = std::mem::take(&mut self.row);
        let r = self.leaf_emit_inner(parts, s, &mut buf, &mut tmp, &mut row, f);
        self.leaf_buf = buf;
        self.leaf_tmp = tmp;
        self.row = row;
        r
    }

    fn leaf_emit_inner(
        &self,
        parts: &[u32],
        s: usize,
        buf: &mut Vec<u32>,
        tmp: &mut Vec<u32>,
        row: &mut [Value],
        f: &mut impl FnMut(&[Value]) -> ControlFlow<()>,
    ) -> Option<ControlFlow<()>> {
        if parts.len() > 8 {
            return None;
        }
        let empty: &[u32] = &[];
        let mut sl = [empty; 8];
        let mut n = 0usize;
        for &ai in parts {
            sl[n] = self.atoms[ai as usize].cursor.top_slice();
            n += 1;
        }
        let sl = &mut sl[..n];
        sl.sort_unstable_by_key(|x| x.len());
        // Every slot but `s` is already bound: a maintained row needs no
        // work; otherwise materialize the prefix once and rewrite only
        // the leaf slot per answer.
        if !self.row_live {
            for (i, slot) in row.iter_mut().enumerate() {
                if i == s {
                    continue;
                }
                *slot = match self.raw[i] {
                    Some(v) => v,
                    None => {
                        let k = self.val[i].expect("every slot is bound at a full match");
                        self.dict.decode(k)
                    }
                };
            }
        }
        let mut emit = |x: u32| {
            row[s] = self.dict.decode(x);
            f(row)
        };
        Some(match n {
            1 => {
                for &x in sl[0].iter() {
                    if emit(x).is_break() {
                        return Some(ControlFlow::Break(()));
                    }
                }
                ControlFlow::Continue(())
            }
            2 => intersect_stream(sl[0], sl[1], emit),
            _ => {
                intersect_into(sl[0], sl[1], buf);
                for sx in &sl[2..n - 1] {
                    if buf.is_empty() {
                        break;
                    }
                    tmp.clear();
                    intersect_into(buf, sx, tmp);
                    std::mem::swap(buf, tmp);
                }
                intersect_stream(buf, sl[n - 1], emit)
            }
        })
    }

    /// The multiway intersection at depth `d`: every participant cursor is
    /// freshly opened on its keying level; enumerate common keys in
    /// ascending order.
    ///
    /// Classic leapfrog ring: each participant's current key is cached in
    /// the ring, so a round touches exactly one cursor (a seek past the
    /// frontier, or an advance after a match) — the other comparisons run
    /// on local state. `aligned` counts ring entries known to equal the
    /// frontier `x` since `x` last moved; hitting the ring size means
    /// every participant sits on `x`.
    fn leapfrog(
        &mut self,
        d: usize,
        s: usize,
        parts: &[u32],
        lazy: &[(u32, u32)],
        f: &mut impl FnMut(&[Value]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // Leaf fast path: the last variable binds no deeper levels, so
        // when nothing inspects cursor state per match (no repeated
        // variables here, no mode checks) the candidate set is computed
        // by direct slice intersection, the final merge streaming each
        // answer straight out — no ring bookkeeping, no per-match cursor
        // moves (elided duplicates need no mirroring: their frames pop
        // right after). Enumeration stays ascending, identical to the
        // ring.
        if self.leaf_eligible(d) {
            if let Some(r) = self.leaf_emit(parts, s, f) {
                return r;
            }
        }
        // The two smallest fan-ins dominate real plans (duplicate elision
        // shrinks most rings to one or two members): run them on locals,
        // no ring indexing, no wrap-around counter.
        match *parts {
            [a0] => {
                let mut k = self.atoms[a0 as usize].cursor.current();
                while let Some(x) = k {
                    if self.try_value(d, s, x, lazy, f).is_break() {
                        return ControlFlow::Break(());
                    }
                    k = self.atoms[a0 as usize].cursor.advance();
                }
                return ControlFlow::Continue(());
            }
            [a0, a1] => {
                let (Some(mut k0), Some(mut k1)) = (
                    self.atoms[a0 as usize].cursor.current(),
                    self.atoms[a1 as usize].cursor.current(),
                ) else {
                    return ControlFlow::Continue(());
                };
                loop {
                    match k0.cmp(&k1) {
                        std::cmp::Ordering::Equal => {
                            if self.try_value(d, s, k0, lazy, f).is_break() {
                                return ControlFlow::Break(());
                            }
                            let Some(n0) = self.atoms[a0 as usize].cursor.advance() else {
                                return ControlFlow::Continue(());
                            };
                            k0 = n0;
                        }
                        std::cmp::Ordering::Less => {
                            let Some(n0) = self.atoms[a0 as usize].cursor.seek(k1) else {
                                return ControlFlow::Continue(());
                            };
                            k0 = n0;
                        }
                        std::cmp::Ordering::Greater => {
                            let Some(n1) = self.atoms[a1 as usize].cursor.seek(k0) else {
                                return ControlFlow::Continue(());
                            };
                            k1 = n1;
                        }
                    }
                }
            }
            _ => {}
        }
        let mut ring = std::mem::take(&mut self.ring_at[d]);
        ring.clear();
        for &ai in parts {
            let Some(k) = self.atoms[ai as usize].cursor.current() else {
                self.ring_at[d] = ring;
                return ControlFlow::Continue(());
            };
            ring.push((k, ai));
        }
        let p = ring.len();
        let mut x = ring[0].0;
        let mut aligned = 1usize;
        let mut i = 1 % p;
        let r = loop {
            if aligned == p {
                if self.try_value(d, s, x, lazy, f).is_break() {
                    break ControlFlow::Break(());
                }
                let ai = ring[i].1;
                let Some(k) = self.atoms[ai as usize].cursor.advance() else {
                    break ControlFlow::Continue(());
                };
                ring[i].0 = k;
                x = k;
                aligned = 1;
                i += 1;
                if i == p {
                    i = 0;
                }
                continue;
            }
            let (k, ai) = ring[i];
            if k == x {
                aligned += 1;
            } else if k > x {
                x = k;
                aligned = 1;
            } else {
                let Some(k) = self.atoms[ai as usize].cursor.seek(x) else {
                    break ControlFlow::Continue(());
                };
                ring[i].0 = k;
                if k == x {
                    aligned += 1;
                } else {
                    x = k;
                    aligned = 1;
                }
            }
            i += 1;
            if i == p {
                i = 0;
            }
        };
        self.ring_at[d] = ring;
        r
    }

    /// Binds `x` at depth `d` (mode checks, repeated-variable levels) and
    /// recurses.
    fn try_value(
        &mut self,
        d: usize,
        s: usize,
        x: u32,
        lazy: &[(u32, u32)],
        f: &mut impl FnMut(&[Value]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // Injectivity and answer filters compare decoded values; skip the
        // decode entirely on the (common) unchecked path.
        let mut xv = None;
        if self.injective || self.allowed.is_some() {
            let v = self.dict.decode(x);
            if self.injective && self.used.contains(&v) {
                return ControlFlow::Continue(());
            }
            if let Some(allowed) = self.allowed {
                if !allowed.contains(&v) {
                    return ControlFlow::Continue(());
                }
            }
            xv = Some(v);
        }
        // Elided duplicate participants follow the ring to the matched
        // value by copying their twin's frame position — the backing
        // arrays are identical (equal tokens at open), and the twin sits
        // exactly on `x` whenever a match fires, so the copy is the seek
        // the duplicate would have performed, for two loads and a store.
        // This keeps the duplicate's position correct for the deeper
        // levels it opens below.
        for &(lz, tw) in lazy {
            let pos = self.atoms[tw as usize].cursor.frame_pos();
            self.atoms[lz as usize].cursor.set_frame_pos(pos);
        }
        // Repeated variables: further levels of the same atom keyed by this
        // depth must also contain x.
        let mut opened = 0usize;
        let mut ok = true;
        for i in 0..self.extra_at[d].len() {
            let ai = self.extra_at[d][i] as usize;
            opened = i + 1;
            if !self.open_seek(ai, x) {
                ok = false;
                break;
            }
        }
        let r = if ok {
            self.val[s] = Some(x);
            if self.row_live {
                self.row[s] = xv.unwrap_or_else(|| self.dict.decode(x));
            }
            if self.injective {
                self.used
                    .insert(xv.expect("decoded under the injective check"));
            }
            let r = self.rec(d + 1, f);
            self.val[s] = None;
            if self.injective {
                self.used
                    .remove(&xv.expect("decoded under the injective check"));
            }
            r
        } else {
            ControlFlow::Continue(())
        };
        for i in (0..opened).rev() {
            let ai = self.extra_at[d][i] as usize;
            self.close(ai);
        }
        r
    }

    /// Walks the pre-bound prefix of the variable order and reports the
    /// first unbound constrained depth's candidate values — the morsel
    /// scheduler's expansion step. Consumes the run's cursor state (the
    /// probe run is discarded afterwards).
    pub(crate) fn split_probe(&mut self) -> SplitProbe {
        let r = self.split_probe_inner();
        self.flush_obs();
        r
    }

    fn split_probe_inner(&mut self) -> SplitProbe {
        let mut d = 0usize;
        loop {
            if d == self.order.len() {
                return SplitProbe::Exhausted;
            }
            let s = self.order[d] as usize;
            if let Some(x) = self.val[s] {
                for ai in 0..self.atoms.len() {
                    while self.next_is_depth(ai, d) {
                        if !self.open_seek(ai, x) {
                            return SplitProbe::Dead;
                        }
                    }
                }
                d += 1;
                continue;
            }
            let parts: Vec<usize> = (0..self.atoms.len())
                .filter(|&ai| self.next_is_depth(ai, d))
                .collect();
            if parts.is_empty() {
                d += 1;
                continue;
            }
            for &ai in &parts {
                let a = &mut self.atoms[ai];
                a.cursor.open();
                a.ptr += 1;
            }
            let mut out: Vec<Value> = Vec::new();
            let mut x0 = self.atoms[parts[0]].cursor.current();
            'outer: while let Some(mut x) = x0 {
                loop {
                    let mut moved = false;
                    for &ai in &parts {
                        let c = &mut self.atoms[ai].cursor;
                        let Some(k) = c.current() else { break 'outer };
                        if k < x {
                            let Some(k) = c.seek(x) else { break 'outer };
                            if k > x {
                                x = k;
                                moved = true;
                            }
                        } else if k > x {
                            x = k;
                            moved = true;
                        }
                    }
                    if !moved {
                        break;
                    }
                }
                out.push(self.dict.decode(x));
                x0 = self.atoms[parts[0]].cursor.advance();
            }
            return SplitProbe::Candidates(s, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::compile::{CompiledQuery, Strategy};
    use crate::cq::{QAtom, Term, Var};
    use crate::parser::parse_cq;
    use gtgd_data::{GroundAtom, Instance, Predicate, Rng, Value};
    use std::collections::HashSet;

    fn v(s: &str) -> Value {
        Value::named(s)
    }

    fn tri_db() -> Instance {
        // A triangle a-b-c plus a dangling path d-e (both edge directions).
        let mut atoms = Vec::new();
        for (x, y) in [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e")] {
            atoms.push(GroundAtom::named("E", &[x, y]));
            atoms.push(GroundAtom::named("E", &[y, x]));
        }
        Instance::from_atoms(atoms)
    }

    fn rows_sorted(q: &CompiledQuery, db: &Instance, s: Strategy) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = q
            .search(db)
            .strategy(s)
            .table()
            .rows()
            .map(|r| r.to_vec())
            .collect();
        rows.sort();
        rows
    }

    fn assert_strategies_agree(src: &str, db: &Instance) {
        let q = parse_cq(src).unwrap();
        let plan = CompiledQuery::compile(&q.atoms);
        assert_eq!(
            rows_sorted(&plan, db, Strategy::Wcoj),
            rows_sorted(&plan, db, Strategy::Backtrack),
            "{src}"
        );
    }

    #[test]
    fn wcoj_matches_backtracker_on_shapes() {
        let db = tri_db();
        for src in [
            "Q() :- E(X,Y)",
            "Q() :- E(X,Y), E(Y,Z)",
            "Q() :- E(X,Y), E(Y,Z), E(Z,X)",
            "Q() :- E(X,Y), E(Y,X)",
            "Q() :- E(X,X)",
            "Q() :- E(a,Y), E(Y,Z)",
            "Q() :- E(X,Y), E(X,Z), E(X,W)",
        ] {
            assert_strategies_agree(src, &db);
        }
    }

    /// Sequential enumeration order is pinned: dictionary codes are
    /// order-preserving and every intersection ascends, so the executor
    /// emits rows in lexicographic value order over the plan's variable
    /// order. The oracle is the backtracker's row set sorted that way, on
    /// seeded random bodies × instances × modes.
    #[test]
    fn sequential_order_is_lexicographic_under_the_variable_order() {
        let dom: Vec<Value> = ["a", "b", "c", "d"].iter().map(|s| v(s)).collect();
        let preds = [("U", 1usize), ("E", 2), ("R", 2), ("T", 3)];
        let mut rng = Rng::seed(0x0de7_5eed);
        let mut multi_row = 0usize;
        for case in 0..160u32 {
            let mut db = Instance::new();
            for _ in 0..8 + rng.below(32) {
                let (p, arity) = preds[rng.below(4) as usize];
                let args = (0..arity).map(|_| dom[rng.below(4) as usize]).collect();
                db.insert(GroundAtom::new(Predicate::new(p), args));
            }
            let atoms: Vec<QAtom> = (0..2 + rng.below(4))
                .map(|_| {
                    let (p, arity) = preds[rng.below(4) as usize];
                    let args = (0..arity)
                        .map(|_| {
                            if rng.chance(0.15) {
                                Term::Const(dom[rng.below(4) as usize])
                            } else {
                                Term::Var(Var(rng.below(4) as u32))
                            }
                        })
                        .collect();
                    QAtom::new(Predicate::new(p), args)
                })
                .collect();
            let plan = CompiledQuery::compile(&atoms);
            let injective = rng.chance(0.34);
            let allowed: Option<HashSet<Value>> = rng
                .chance(0.34)
                .then(|| dom.iter().copied().filter(|_| rng.chance(0.67)).collect());
            let fixed: Vec<(usize, Value)> = match rng.chance(0.5) {
                true if plan.slot_count() > 0 => {
                    let s = rng.below(plan.slot_count() as u64) as usize;
                    vec![(s, dom[rng.below(4) as usize])]
                }
                _ => Vec::new(),
            };
            let rows = |s: Strategy| -> Vec<Vec<Value>> {
                let mut k = plan.search(&db).strategy(s).fix_slots(fixed.clone());
                if injective {
                    k = k.injective();
                }
                if let Some(a) = &allowed {
                    k = k.restrict_images(a);
                }
                k.table().rows().map(|r| r.to_vec()).collect()
            };
            let order = &plan.wcoj_plan().order;
            let mut expect = rows(Strategy::Backtrack);
            expect.sort_by_key(|r| order.iter().map(|&s| r[s as usize]).collect::<Vec<_>>());
            multi_row += usize::from(expect.len() > 1);
            assert_eq!(rows(Strategy::Wcoj), expect, "case {case}: {atoms:?}");
        }
        assert!(
            multi_row > 30,
            "too few cases with an order to check: {multi_row}"
        );
    }

    #[test]
    fn planner_gate_prefers_wcoj_only_on_hard_shapes() {
        let gate = |src: &str| {
            let q = parse_cq(src).unwrap();
            CompiledQuery::compile(&q.atoms).prefers_wcoj()
        };
        // Cyclic: triangle, square, clique.
        assert!(gate("Q() :- E(X,Y), E(Y,Z), E(Z,X)"));
        assert!(gate("Q() :- E(X,Y), E(Y,Z), E(Z,W), E(W,X)"));
        // High-arity multiway join: one variable in three atoms.
        assert!(gate("Q() :- E(X,Y), E(X,Z), E(X,W)"));
        // Acyclic, low-join: paths, single atoms, pairs.
        assert!(!gate("Q() :- E(X,Y)"));
        assert!(!gate("Q() :- E(X,Y), E(Y,Z)"));
        assert!(!gate("Q() :- E(X,Y), E(Y,Z), E(Z,W)"));
        // Guarded triangle: the covering atom makes it α-acyclic, but the
        // shared variables still hit the multiway trigger.
        assert!(gate("Q() :- T(X,Y,Z), E(X,Y), E(Y,Z), E(Z,X)"));
    }

    #[test]
    fn wcoj_respects_modes_and_fixed_slots() {
        let db = tri_db();
        let q = parse_cq("Q() :- E(X,Y), E(Y,Z), E(Z,X)").unwrap();
        let plan = CompiledQuery::compile(&q.atoms);
        let wcoj = || plan.search(&db).strategy(Strategy::Wcoj);
        let back = || plan.search(&db).strategy(Strategy::Backtrack);
        // Triangle homs: 6 oriented triangles on {a,b,c} plus 2-cycles
        // using repeated vertices; count must match the backtracker.
        assert_eq!(wcoj().count(), back().count());
        assert_eq!(wcoj().injective().count(), back().injective().count());
        let allowed: HashSet<Value> = [v("a"), v("b"), v("c")].into_iter().collect();
        assert_eq!(
            wcoj().restrict_images(&allowed).count(),
            back().restrict_images(&allowed).count()
        );
        let sx = plan.slot_of(crate::cq::Var(0)).unwrap();
        assert_eq!(
            wcoj().fix_slots([(sx, v("a"))]).count(),
            back().fix_slots([(sx, v("a"))]).count()
        );
        // A fixed value outside the active domain: zero rows, no panic.
        assert_eq!(wcoj().fix_slots([(sx, v("zz"))]).count(), 0);
    }

    #[test]
    fn wcoj_skip_atom_with_pinned_bindings() {
        let db = tri_db();
        let q = parse_cq("Q() :- E(X,Y), E(Y,Z), E(Z,X)").unwrap();
        let plan = CompiledQuery::compile(&q.atoms);
        let seed = plan
            .unify_atom(0, &GroundAtom::named("E", &["a", "b"]))
            .unwrap();
        let rows = |s: Strategy| {
            let mut out: Vec<Vec<Value>> = Vec::new();
            plan.search(&db)
                .strategy(s)
                .fix_slots(seed.clone())
                .skip_atom(0)
                .for_each_row(|r| {
                    out.push(r.to_vec());
                    std::ops::ControlFlow::Continue(())
                });
            out.sort();
            out
        };
        let wcoj = rows(Strategy::Wcoj);
        assert_eq!(wcoj, rows(Strategy::Backtrack));
        assert!(!wcoj.is_empty());
    }

    #[test]
    fn wcoj_par_table_equals_sequential() {
        let db = tri_db();
        for src in [
            "Q() :- E(X,Y), E(Y,Z), E(Z,X)",
            "Q() :- E(X,Y), E(X,Z), E(X,W)",
        ] {
            let q = parse_cq(src).unwrap();
            let plan = CompiledQuery::compile(&q.atoms);
            assert!(plan.prefers_wcoj());
            let seq: Vec<Vec<Value>> = plan
                .search(&db)
                .table()
                .rows()
                .map(|r| r.to_vec())
                .collect();
            for w in [1usize, 2, 4, 7] {
                let par: Vec<Vec<Value>> = plan
                    .search(&db)
                    .par_table(w)
                    .rows()
                    .map(|r| r.to_vec())
                    .collect();
                // The morsel merge preserves sequential order exactly
                // (not just as a set).
                assert_eq!(par, seq, "{src} at {w} workers");
            }
        }
    }
}
