//! The compiled homomorphism kernel: the one homomorphism search of the
//! workspace. CQ evaluation ([`crate::engine::Engine`]), chase trigger
//! matching, cores, contractions, isomorphism and instance homomorphisms
//! all run it. [`CompiledQuery::compile_with_extra`] compiles the atoms
//! once and [`CompiledQuery::search`] starts a [`KernelSearch`], the one
//! search builder: pre-bound slots ([`KernelSearch::fix_slots`]),
//! injectivity, image restriction, then [`KernelSearch::first_row`],
//! [`KernelSearch::for_each_row`], [`KernelSearch::table`] or
//! [`KernelSearch::par_table`].
//!
//! A generic backtracking search over `HashMap<Var, Value>` assignments
//! pays for generality on every call: each answer materializes a fresh map,
//! and candidate selection allocates a `Vec` per pending atom per node of
//! the search tree. This module compiles the query *once* into a form the
//! search can run over flat arrays:
//!
//! * **Slot interning** — every variable is assigned a dense slot index at
//!   compile time; the runtime valuation is a `Vec<Option<Value>>` indexed
//!   by slot (O(1) reads/writes, no hashing).
//! * **Access plans** — each atom's terms are pre-resolved to
//!   `Const(value)` / `Slot(index)`, so probing the instance's
//!   `(predicate, position, value)` indexes needs no per-step term
//!   analysis. A static atom order (constant-rich atoms first) seeds the
//!   pending list; the actual order is refined dynamically by picking the
//!   pending atom with the fewest candidates, exactly as the legacy engine
//!   did — which is why the answer *set* is unchanged. Each pending atom's
//!   candidate slice is fetched once per node and the shortest is kept, so
//!   the choice costs one index probe per pending atom.
//! * **Columnar answers** — enumeration writes rows into a reusable buffer
//!   and full materialization targets a [`ValuationTable`]
//!   (one `Vec<Value>` for all rows) instead of one `HashMap` per answer.
//! * **Pinned batches** — [`KernelSearch::for_each_pinned_row`] runs the
//!   chase's delta probes (one body atom pinned to each delta atom in
//!   turn) on one reused search state instead of one search per atom.
//!   With [`KernelSearch::semi_naive`] the atoms before the pin match only
//!   atoms outside the [`Delta`], so a row with several delta atoms is
//!   found under one pin only: its first delta position.
//! * **Projected answers** — `PreparedQuery` hands its answer slots to the
//!   search (`KernelSearch::project`, crate-private): once every answer
//!   slot is bound, the first full match below settles the answer, and
//!   the search returns to the parent's next candidate. Every other
//!   search enumerates every homomorphism.
//!
//! A `CompiledQuery` is immutable and `Sync`: the chase compiles each TGD
//! body once and re-probes it every round from many worker threads.

use crate::cq::{QAtom, Term, Var};
use crate::wcoj::{self, DenseSnapshot, SplitProbe, WcojPlan, WcojRun};
use gtgd_data::{obs, GroundAtom, Instance, Pool, Value};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A compiled query term: a dense slot or an inline constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CTerm {
    /// A variable, interned to a slot index.
    Slot(u32),
    /// A constant.
    Const(Value),
}

/// A compiled atom: predicate plus pre-resolved terms.
#[derive(Debug, Clone)]
pub(crate) struct CAtom {
    pub(crate) predicate: gtgd_data::Predicate,
    pub(crate) terms: Vec<CTerm>,
}

/// A chase round's delta, named by instance atom ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delta {
    /// Every atom from this id on (the atoms a round appended).
    Since(usize),
    /// These ids, ascending.
    Atoms(Vec<usize>),
}

impl Delta {
    /// Whether atom `id` is in the delta.
    pub fn contains(&self, id: usize) -> bool {
        match self {
            Delta::Since(start) => id >= *start,
            Delta::Atoms(ids) => ids.binary_search(&id).is_ok(),
        }
    }
}

/// Which join algorithm a [`KernelSearch`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Let the planner gate decide per compiled query: worst-case-optimal
    /// for cyclic bodies and high-arity multiway joins, backtracking
    /// otherwise. The default.
    #[default]
    Auto,
    /// Force the atom-at-a-time backtracking search.
    Backtrack,
    /// Force the variable-at-a-time leapfrog triejoin (worst-case optimal
    /// for the planner's variable order).
    Wcoj,
}

/// A query compiled for repeated homomorphism search: variables interned to
/// dense slots, per-atom access plans, and a static selectivity order.
///
/// Compile once (per query, per TGD body, …), then run any number of
/// [`CompiledQuery::search`]es against any instance, with any fixed
/// bindings. Build one with [`CompiledQuery::compile`] or
/// [`CompiledQuery::compile_with_extra`] (the latter also interns variables
/// that occur only in fixed bindings, e.g. ghost answer variables).
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    atoms: Vec<CAtom>,
    /// Slot → original variable.
    vars: Vec<Var>,
    slot_of: HashMap<Var, u32>,
    /// Static atom order seeding the pending list: constant-rich atoms
    /// first (cheap, deterministic tie-break for the dynamic refinement).
    static_order: Vec<usize>,
    /// The worst-case-optimal execution plan (variable order + per-atom
    /// trie layouts), built once at compile time.
    wcoj: WcojPlan,
    /// The planner gate's verdict: run WCOJ under [`Strategy::Auto`]?
    prefer_wcoj: bool,
}

impl CompiledQuery {
    /// Compiles `atoms`, interning their variables in first-occurrence
    /// order.
    pub fn compile(atoms: &[QAtom]) -> CompiledQuery {
        CompiledQuery::compile_with_extra(atoms, [])
    }

    /// Compiles `atoms` and additionally interns `extra` variables (those
    /// that may be fixed or projected without occurring in any atom).
    pub fn compile_with_extra(atoms: &[QAtom], extra: impl IntoIterator<Item = Var>) -> Self {
        let mut slot_of: HashMap<Var, u32> = HashMap::new();
        let mut vars: Vec<Var> = Vec::new();
        let intern = |v: Var, slot_of: &mut HashMap<Var, u32>, vars: &mut Vec<Var>| -> u32 {
            *slot_of.entry(v).or_insert_with(|| {
                vars.push(v);
                (vars.len() - 1) as u32
            })
        };
        let catoms: Vec<CAtom> = atoms
            .iter()
            .map(|a| CAtom {
                predicate: a.predicate,
                terms: a
                    .args
                    .iter()
                    .map(|t| match *t {
                        Term::Var(v) => CTerm::Slot(intern(v, &mut slot_of, &mut vars)),
                        Term::Const(c) => CTerm::Const(c),
                    })
                    .collect(),
            })
            .collect();
        for v in extra {
            intern(v, &mut slot_of, &mut vars);
        }
        let mut static_order: Vec<usize> = (0..catoms.len()).collect();
        static_order.sort_by_key(|&i| {
            let consts = catoms[i]
                .terms
                .iter()
                .filter(|t| matches!(t, CTerm::Const(_)))
                .count();
            (std::cmp::Reverse(consts), i)
        });
        let wcoj = wcoj::build_plan(&catoms, vars.len());
        let prefer_wcoj = wcoj::prefers_wcoj(&catoms, vars.len());
        CompiledQuery {
            atoms: catoms,
            vars,
            slot_of,
            static_order,
            wcoj,
            prefer_wcoj,
        }
    }

    /// The worst-case-optimal execution plan (tests pin enumeration order
    /// against its variable order).
    #[cfg(test)]
    pub(crate) fn wcoj_plan(&self) -> &WcojPlan {
        &self.wcoj
    }

    /// Whether the planner gate picks the worst-case-optimal path for this
    /// query under [`Strategy::Auto`]: cyclic (slot-level GYO fails) or a
    /// high-arity multiway join (≥ 3 atoms sharing one variable).
    pub fn prefers_wcoj(&self) -> bool {
        self.prefer_wcoj
    }

    /// Number of slots (distinct interned variables).
    pub fn slot_count(&self) -> usize {
        self.vars.len()
    }

    /// Number of compiled atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// The slot of `v`, if it was interned.
    pub fn slot_of(&self, v: Var) -> Option<usize> {
        self.slot_of.get(&v).map(|&s| s as usize)
    }

    /// Slot → variable mapping (row columns of every [`ValuationTable`]
    /// this plan produces).
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Unifies compiled atom `idx` with a ground atom, returning the slot
    /// bindings it induces, or `None` on a predicate/arity/constant clash
    /// or an inconsistent repeated slot. This is the slot-level analogue of
    /// the chase's pinned-atom unification.
    pub fn unify_atom(
        &self,
        idx: usize,
        ground: &gtgd_data::GroundAtom,
    ) -> Option<Vec<(usize, Value)>> {
        let atom = &self.atoms[idx];
        if ground.predicate != atom.predicate || ground.args.len() != atom.terms.len() {
            return None;
        }
        let mut out: Vec<(usize, Value)> = Vec::with_capacity(atom.terms.len());
        for (t, &gv) in atom.terms.iter().zip(ground.args.iter()) {
            match *t {
                CTerm::Const(c) => {
                    if c != gv {
                        return None;
                    }
                }
                CTerm::Slot(s) => {
                    let s = s as usize;
                    match out.iter().find(|&&(b, _)| b == s) {
                        Some(&(_, prev)) if prev != gv => return None,
                        Some(_) => {}
                        None => out.push((s, gv)),
                    }
                }
            }
        }
        Some(out)
    }

    /// Starts configuring a search of this plan against `target`.
    pub fn search<'a>(&'a self, target: &'a Instance) -> KernelSearch<'a> {
        KernelSearch {
            plan: self,
            target,
            fixed: Vec::new(),
            injective: false,
            allowed: None,
            skip: None,
            delta: None,
            strategy: Strategy::Auto,
            project: None,
        }
    }
}

/// Answers in columnar form: one flat `Vec<Value>` holding all rows, each
/// row one `Value` per slot of the producing [`CompiledQuery`] (in slot
/// order, i.e. [`CompiledQuery::vars`] order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValuationTable {
    vars: Vec<Var>,
    data: Vec<Value>,
    rows: usize,
}

impl ValuationTable {
    /// An empty table over the given columns.
    pub fn new(vars: Vec<Var>) -> ValuationTable {
        ValuationTable {
            vars,
            data: Vec::new(),
            rows: 0,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row width (number of columns; may be 0 for Boolean queries).
    pub fn width(&self) -> usize {
        self.vars.len()
    }

    /// Column → variable mapping.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// The `i`-th row.
    pub fn row(&self, i: usize) -> &[Value] {
        let w = self.vars.len();
        &self.data[i * w..(i + 1) * w]
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        let w = self.vars.len();
        (0..self.rows).map(move |i| &self.data[i * w..(i + 1) * w])
    }

    /// Appends a row (must match the width).
    pub fn push_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.vars.len());
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Appends all rows of `other` (must have the same columns).
    pub fn append(&mut self, other: &ValuationTable) {
        debug_assert_eq!(self.vars, other.vars);
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Appends the row `cols.map(|c| row[c])`: a projection of a wider
    /// row, without an intermediate buffer.
    pub(crate) fn push_projected(&mut self, row: &[Value], cols: &[usize]) {
        debug_assert_eq!(cols.len(), self.vars.len());
        self.data.extend(cols.iter().map(|&c| row[c]));
        self.rows += 1;
    }

    /// Sorts the rows in `Value` order (lexicographic over the columns)
    /// and drops duplicates. A width-0 table keeps at most one row.
    pub(crate) fn sort_dedup(&mut self) {
        let w = self.vars.len();
        if w == 0 {
            self.rows = self.rows.min(1);
            return;
        }
        let mut order: Vec<usize> = (0..self.rows).collect();
        order.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
        order.dedup_by(|a, b| self.row(*a) == self.row(*b));
        let mut data = Vec::with_capacity(order.len() * w);
        for &r in &order {
            data.extend_from_slice(self.row(r));
        }
        self.data = data;
        self.rows = order.len();
    }

    /// Expands every row into the legacy `HashMap<Var, Value>` shape.
    pub fn to_maps(&self) -> Vec<HashMap<Var, Value>> {
        self.rows()
            .map(|row| self.vars.iter().copied().zip(row.iter().copied()).collect())
            .collect()
    }
}

/// The projection cut of both executors: runs `subtree` with a callback
/// that hands its first full match to `f` and stops the subtree, then
/// returns what `f` returned (`Continue` if the subtree had no match), so
/// the caller goes on to its parent's next candidate unless `f` stopped.
/// The subtree's callback is a trait object, so the recursion below a cut
/// is one more instance of the executor, not one per cut.
pub(crate) fn first_match(
    f: &mut impl FnMut(&[Value]) -> ControlFlow<()>,
    subtree: impl FnOnce(&mut &mut dyn FnMut(&[Value]) -> ControlFlow<()>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut out = ControlFlow::Continue(());
    let mut take_first = |row: &[Value]| {
        out = f(row);
        ControlFlow::Break(())
    };
    let _ = subtree(&mut (&mut take_first as &mut dyn FnMut(&[Value]) -> ControlFlow<()>));
    out
}

/// A configured kernel search: a [`CompiledQuery`] plus target instance,
/// fixed slot bindings, and modes. Its row sets equal those of a plain
/// backtracking search over `HashMap` assignments in every mode (the
/// differential suite `tests/differential_kernel.rs` checks them against
/// such a reference).
#[derive(Clone)]
pub struct KernelSearch<'a> {
    plan: &'a CompiledQuery,
    target: &'a Instance,
    fixed: Vec<(usize, Value)>,
    injective: bool,
    allowed: Option<&'a HashSet<Value>>,
    skip: Option<usize>,
    delta: Option<&'a Delta>,
    strategy: Strategy,
    /// The answer slots of a projected search ([`KernelSearch::project`]);
    /// `None` enumerates every homomorphism.
    project: Option<&'a [usize]>,
}

/// Mutable search state, reused across the whole enumeration: the flat
/// valuation, the injectivity set, the pending-atom list, a binding trail
/// for rollback, and the reusable output row.
struct State {
    val: Vec<Option<Value>>,
    used: HashSet<Value>,
    pending: Vec<usize>,
    /// Compiled atoms below this index match only atoms outside the delta
    /// (the pin under [`KernelSearch::semi_naive`], else 0).
    cut: usize,
    trail: Vec<u32>,
    row: Vec<Value>,
    /// Whether the search runs below a projection cut (the first node
    /// that bound every answer slot), where one full match suffices.
    below_cut: bool,
    // Probe accumulators, flushed to the obs counters once per search so
    // the hot recursion never touches an atomic.
    nodes: u64,
    backtracks: u64,
}

impl<'a> KernelSearch<'a> {
    /// Pre-binds slots (later bindings of the same slot must agree or the
    /// search yields nothing).
    pub fn fix_slots(mut self, bindings: impl IntoIterator<Item = (usize, Value)>) -> Self {
        self.fixed.extend(bindings);
        self
    }

    /// Requires injectivity on slots (distinct slots map to distinct
    /// values).
    pub fn injective(mut self) -> Self {
        self.injective = true;
        self
    }

    /// Restricts slot images to `allowed`.
    pub fn restrict_images(mut self, allowed: &'a HashSet<Value>) -> Self {
        self.allowed = Some(allowed);
        self
    }

    /// Excludes one atom from the search (its slots must be pre-bound via
    /// [`KernelSearch::fix_slots`] — the chase uses this to pin a body atom
    /// to a delta atom without recompiling the body).
    pub fn skip_atom(mut self, idx: usize) -> Self {
        self.skip = Some(idx);
        self
    }

    /// The semi-naive split: the compiled atoms before the pinned atom (the
    /// `pin` of [`KernelSearch::for_each_pinned_row`], or the
    /// [`KernelSearch::skip_atom`]) match only atoms outside `delta`, the
    /// atoms after it any atom. Pinning each atom in turn to the delta then
    /// finds each row that uses a delta atom once.
    pub fn semi_naive(mut self, delta: &'a Delta) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Projects the search onto the answer slots `slots` (empty for a
    /// Boolean query): once every answer slot is bound, the rest of the
    /// search only needs one witness. The backtracker cuts at the first
    /// node whose valuation binds every answer slot, the worst-case-optimal
    /// path at the depth one past the deepest answer slot of its variable
    /// order; below the cut the first full match goes to the callback and
    /// the search returns to the parent's next candidate. The projected row
    /// *set* is unchanged, while fewer witness rows are visited. Only
    /// [`crate::PreparedQuery`] projects; every other search enumerates
    /// every homomorphism.
    pub(crate) fn project(mut self, slots: &'a [usize]) -> Self {
        self.project = Some(slots);
        self
    }

    /// Overrides the join algorithm (the default, [`Strategy::Auto`],
    /// defers to the compile-time planner gate). The differential suite
    /// and the benchmarks force both paths; ordinary consumers never call
    /// this.
    pub fn strategy(mut self, s: Strategy) -> Self {
        self.strategy = s;
        self
    }

    /// Whether this search runs the worst-case-optimal path.
    pub fn uses_wcoj(&self) -> bool {
        match self.strategy {
            Strategy::Auto => self.plan.prefer_wcoj,
            Strategy::Backtrack => false,
            Strategy::Wcoj => true,
        }
    }

    /// Validates the fixed bindings against the modes; `None` if they are
    /// inconsistent (no answers). Shared by both execution strategies.
    fn init_val(&self) -> Option<(Vec<Option<Value>>, HashSet<Value>)> {
        let n = self.plan.slot_count();
        let mut val: Vec<Option<Value>> = vec![None; n];
        for &(s, v) in &self.fixed {
            match val[s] {
                Some(prev) if prev != v => return None,
                _ => val[s] = Some(v),
            }
        }
        let mut used: HashSet<Value> = HashSet::new();
        if self.injective {
            for v in val.iter().flatten() {
                if !used.insert(*v) {
                    return None;
                }
            }
        }
        if let Some(allowed) = self.allowed {
            if val.iter().flatten().any(|v| !allowed.contains(v)) {
                return None;
            }
        }
        Some((val, used))
    }

    /// Initializes the backtracking search state from the fixed bindings;
    /// `None` if the fixed bindings are inconsistent or violate a mode (no
    /// answers).
    fn init(&self) -> Option<State> {
        let (val, used) = self.init_val()?;
        Some(self.state(val, used, self.skip))
    }

    /// A backtracking state over `val` whose pending list is every atom
    /// but `skip`, in static order.
    fn state(&self, val: Vec<Option<Value>>, used: HashSet<Value>, skip: Option<usize>) -> State {
        let n = self.plan.slot_count();
        let pending: Vec<usize> = self
            .plan
            .static_order
            .iter()
            .copied()
            .filter(|&i| Some(i) != skip)
            .collect();
        State {
            val,
            used,
            pending,
            cut: skip.filter(|_| self.delta.is_some()).unwrap_or(0),
            trail: Vec::new(),
            // A placeholder: every cell is overwritten before a row is
            // handed out.
            row: vec![Value::Null(0); n],
            below_cut: false,
            nodes: 0,
            backtracks: 0,
        }
    }

    /// Candidate atom ids for compiled atom `ai` under the current
    /// valuation, from the most selective available index. Allocation-free:
    /// returns a borrowed index slice. Atoms below `cut` of a `Since(start)`
    /// split get the ids below `start`, a prefix: the lists are in id order.
    fn candidates(&self, ai: usize, val: &[Option<Value>], cut: usize) -> &'a [usize] {
        let atom = &self.plan.atoms[ai];
        let mut best: Option<&'a [usize]> = None;
        for (pos, t) in atom.terms.iter().enumerate() {
            let bound = match *t {
                CTerm::Const(c) => Some(c),
                CTerm::Slot(s) => val[s as usize],
            };
            if let Some(v) = bound {
                let ids = self.target.atoms_matching(atom.predicate, pos, v);
                if best.is_none_or(|b| ids.len() < b.len()) {
                    best = Some(ids);
                }
            }
        }
        let ids = best.unwrap_or_else(|| {
            self.target
                .atoms_with_pred(atom.predicate, atom.terms.len())
        });
        match self.delta {
            Some(&Delta::Since(start)) if ai < cut => &ids[..ids.partition_point(|&c| c < start)],
            _ => ids,
        }
    }

    /// One node of the backtracking search. The first node of a projected
    /// search whose valuation binds every answer slot is the cut
    /// ([`first_match`]); a leaf needs no cut.
    fn search_rec(
        &self,
        st: &mut State,
        f: &mut impl FnMut(&[Value]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if !st.below_cut
            && !st.pending.is_empty()
            && self
                .project
                .is_some_and(|slots| slots.iter().all(|&s| st.val[s].is_some()))
        {
            return first_match(f, |g| {
                st.below_cut = true;
                let r = self.search_node(st, g);
                st.below_cut = false;
                r
            });
        }
        self.search_node(st, f)
    }

    /// Expands one node: picks the pending atom with the fewest candidates
    /// and recurses on each candidate that unifies. The valuation, trail
    /// and pending list are restored on return, also when `f` stopped the
    /// search, so a projection cut can resume the parent.
    fn search_node(
        &self,
        st: &mut State,
        f: &mut impl FnMut(&[Value]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        st.nodes += 1;
        if st.pending.is_empty() {
            for (i, v) in st.val.iter().enumerate() {
                st.row[i] = v.expect("every slot is bound at a full match");
            }
            return f(&st.row);
        }
        // Dynamic refinement: the pending atom with the fewest candidates
        // (the first on ties). Each slice is fetched once and the winner's
        // is kept, so choosing costs no second index probe.
        let mut best_idx = 0usize;
        let mut cand: Option<&'a [usize]> = None;
        for (idx, &ai) in st.pending.iter().enumerate() {
            let ids = self.candidates(ai, &st.val, st.cut);
            if cand.is_none_or(|best| ids.len() < best.len()) {
                cand = Some(ids);
                best_idx = idx;
            }
        }
        let cand = cand.expect("pending is nonempty");
        let ai = st.pending.swap_remove(best_idx);
        let atom = &self.plan.atoms[ai];
        let excluded = match self.delta {
            Some(Delta::Atoms(ids)) if ai < st.cut => ids.as_slice(),
            _ => &[],
        };
        let mut r = ControlFlow::Continue(());
        for &ci in cand {
            let ground = self.target.atom(ci);
            if ground.args.len() != atom.terms.len() || excluded.binary_search(&ci).is_ok() {
                continue;
            }
            let mark = st.trail.len();
            let mut ok = true;
            for (t, &gv) in atom.terms.iter().zip(ground.args.iter()) {
                match *t {
                    CTerm::Const(c) => {
                        if c != gv {
                            ok = false;
                            break;
                        }
                    }
                    CTerm::Slot(s) => match st.val[s as usize] {
                        Some(bound) => {
                            if bound != gv {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            if self.injective && st.used.contains(&gv) {
                                ok = false;
                                break;
                            }
                            if let Some(allowed) = self.allowed {
                                if !allowed.contains(&gv) {
                                    ok = false;
                                    break;
                                }
                            }
                            st.val[s as usize] = Some(gv);
                            if self.injective {
                                st.used.insert(gv);
                            }
                            st.trail.push(s);
                        }
                    },
                }
            }
            if ok {
                r = self.search_rec(st, f);
            }
            for i in (mark..st.trail.len()).rev() {
                let s = st.trail[i] as usize;
                let v = st.val[s].take().expect("trail slot was bound");
                if self.injective {
                    st.used.remove(&v);
                }
            }
            st.trail.truncate(mark);
            if r.is_break() {
                break;
            }
        }
        if r.is_continue() {
            st.backtracks += 1;
        }
        // Restore the pending list for sibling branches.
        st.pending.push(ai);
        let last = st.pending.len() - 1;
        st.pending.swap(best_idx, last);
        r
    }

    /// Visits every homomorphism as a slot-indexed row (the columns are
    /// [`CompiledQuery::vars`]). The row buffer is reused — callers must
    /// copy what they keep. Returns `true` if enumeration stopped early.
    ///
    /// Which join algorithm runs is decided by [`KernelSearch::strategy`]
    /// (default: the compile-time planner gate). Both produce the same
    /// answer *set*; the enumeration order differs.
    pub fn for_each_row(&self, mut f: impl FnMut(&[Value]) -> ControlFlow<()>) -> bool {
        if self.uses_wcoj() {
            return self.wcoj_for_each_row(&mut f);
        }
        let Some(mut st) = self.init() else {
            return false;
        };
        let stopped = self.search_rec(&mut st, &mut f).is_break();
        obs::count(obs::Metric::KernelNodes, st.nodes);
        obs::count(obs::Metric::KernelBacktracks, st.backtracks);
        stopped
    }

    /// Runs one search per seed with compiled atom `pin` unified with that
    /// seed and skipped, and visits every row, seed by seed in slice order.
    /// This yields the same rows, in the same order and with the same
    /// `kernel.nodes_visited`, as running
    /// `fix_slots(unify_atom(pin, seed)).skip_atom(pin).for_each_row(..)`
    /// for each seed that unifies; `pin` replaces any
    /// [`KernelSearch::skip_atom`], also as the pin of a
    /// [`KernelSearch::semi_naive`] split. Returns `true` if `f` stopped
    /// the batch.
    ///
    /// The backtracking search without modes keeps one state (valuation,
    /// trail, pending list, output row) for the whole batch: each seed's
    /// bindings are written into the valuation and undone after its
    /// search. The worst-case-optimal path and searches with modes run the
    /// per-seed searches themselves.
    pub fn for_each_pinned_row(
        &self,
        pin: usize,
        seeds: &[GroundAtom],
        mut f: impl FnMut(&[Value]) -> ControlFlow<()>,
    ) -> bool {
        if self.uses_wcoj() || self.injective || self.allowed.is_some() {
            for seed in seeds {
                let Some(bindings) = self.plan.unify_atom(pin, seed) else {
                    continue;
                };
                let mut sub = self.clone();
                sub.skip = Some(pin);
                sub.fixed.extend(bindings);
                if sub.for_each_row(&mut f) {
                    return true;
                }
            }
            return false;
        }
        let Some((val, used)) = self.init_val() else {
            return false;
        };
        let mut st = self.state(val, used, Some(pin));
        let atom = &self.plan.atoms[pin];
        let mut stopped = false;
        for seed in seeds {
            if seed.predicate != atom.predicate || seed.args.len() != atom.terms.len() {
                continue;
            }
            // Bind the seed on the trail, exactly as `unify_atom` followed
            // by the fixed-binding check would accept or reject it.
            let mut ok = true;
            for (t, &gv) in atom.terms.iter().zip(&seed.args) {
                match *t {
                    CTerm::Const(c) => ok = c == gv,
                    CTerm::Slot(s) => match st.val[s as usize] {
                        Some(bound) => ok = bound == gv,
                        None => {
                            st.val[s as usize] = Some(gv);
                            st.trail.push(s);
                        }
                    },
                }
                if !ok {
                    break;
                }
            }
            if ok && self.search_rec(&mut st, &mut f).is_break() {
                stopped = true;
                break;
            }
            for &s in &st.trail {
                st.val[s as usize] = None;
            }
            st.trail.clear();
        }
        obs::count(obs::Metric::KernelNodes, st.nodes);
        obs::count(obs::Metric::KernelBacktracks, st.backtracks);
        stopped
    }

    /// The worst-case-optimal path of [`KernelSearch::for_each_row`]. A
    /// [`KernelSearch::semi_naive`] split filters each finished row: a row
    /// that grounds an atom before the pin into the delta is dropped.
    fn wcoj_for_each_row(&self, f: &mut impl FnMut(&[Value]) -> ControlFlow<()>) -> bool {
        let Some((val, used)) = self.init_val() else {
            return false;
        };
        let snap = DenseSnapshot::take(&self.plan.wcoj, self.target, self.skip);
        let Some(mut run) = WcojRun::new(
            &snap,
            &self.plan.wcoj,
            val,
            used,
            self.injective,
            self.allowed,
            self.skip,
        ) else {
            return false;
        };
        if let Some(slots) = self.project {
            // The semi-naive filter below drops rows after the run, which
            // would leave a cut subtree without its witness; only the
            // chase uses the split and it never projects.
            debug_assert!(
                self.delta.is_none(),
                "a projected search has no delta split"
            );
            run.project(slots);
        }
        let (Some(delta), Some(pin)) = (self.delta, self.skip) else {
            return run.run(f).is_break();
        };
        let mut image = GroundAtom::new(self.plan.atoms[0].predicate, Vec::new());
        run.run(&mut |row: &[Value]| {
            let in_delta = self.plan.atoms[..pin].iter().any(|atom| {
                image.predicate = atom.predicate;
                image.args.clear();
                image.args.extend(atom.terms.iter().map(|t| match *t {
                    CTerm::Const(c) => c,
                    CTerm::Slot(s) => row[s as usize],
                }));
                delta.contains(self.target.id_of(&image).expect("row images are atoms"))
            });
            if in_delta {
                ControlFlow::Continue(())
            } else {
                f(row)
            }
        })
        .is_break()
    }

    /// Whether any homomorphism exists (no materialization at all).
    pub fn exists(&self) -> bool {
        self.for_each_row(|_| ControlFlow::Break(()))
    }

    /// The first row found, if any.
    pub fn first_row(&self) -> Option<Vec<Value>> {
        let mut out = None;
        self.for_each_row(|row| {
            out = Some(row.to_vec());
            ControlFlow::Break(())
        });
        out
    }

    /// Number of homomorphisms (without materializing them).
    pub fn count(&self) -> usize {
        let mut n = 0usize;
        self.for_each_row(|_| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    }

    /// All homomorphisms, materialized columnar.
    pub fn table(&self) -> ValuationTable {
        let mut t = ValuationTable::new(self.plan.vars.clone());
        self.for_each_row(|row| {
            t.push_row(row);
            ControlFlow::Continue(())
        });
        t
    }

    /// All homomorphisms, enumerated on a `workers`-wide pool: the most
    /// selective atom's candidate list is split across workers and each
    /// candidate seeds a sub-search that *skips* the split atom (no
    /// recompilation, no rebuilt atom lists). Same row *set* as
    /// [`KernelSearch::table`]; deterministic for any worker count (chunk
    /// results are concatenated in chunk order). The sub-searches of a
    /// projected search keep its cut, so the rows project to the same
    /// answer set (an answer may come from several chunks).
    pub fn par_table(&self, workers: usize) -> ValuationTable {
        if self.uses_wcoj() {
            return self.wcoj_par_table(workers);
        }
        if workers <= 1 || self.plan.atoms.is_empty() || self.skip.is_some() {
            return self.table();
        }
        let Some(base) = self.init() else {
            return ValuationTable::new(self.plan.vars.clone());
        };
        let (split, cand) = (0..self.plan.atoms.len())
            .map(|i| (i, self.candidates(i, &base.val, 0)))
            .min_by_key(|&(_, ids)| ids.len())
            .expect("atoms nonempty");
        let per_chunk = Pool::with_workers(workers).map_chunks(cand, |_, chunk| {
            let mut out = ValuationTable::new(self.plan.vars.clone());
            for &ci in chunk {
                let Some(seed) = self.plan.unify_atom(split, self.target.atom(ci)) else {
                    continue;
                };
                // Distinct candidates bind the split atom's slots to
                // distinct tuples, so per-candidate row sets are disjoint:
                // concatenation needs no deduplication. Conflicts between
                // the seed and the caller's fixed bindings (or the modes)
                // are rejected by the sub-search's own validation.
                let mut sub = self.clone();
                sub.skip = Some(split);
                sub.delta = None;
                sub.strategy = Strategy::Backtrack;
                sub.fixed.extend(seed);
                sub.for_each_row(|row| {
                    out.push_row(row);
                    ControlFlow::Continue(())
                });
            }
            out
        });
        let mut all = ValuationTable::new(self.plan.vars.clone());
        for t in &per_chunk {
            all.append(t);
        }
        all
    }

    /// Runs a discardable probe with `seeds` appended to the fixed
    /// bindings and reports how the search tree splits below that prefix.
    fn probe_split(&self, seeds: &[(usize, Value)]) -> SplitProbe {
        let mut probe = self.clone();
        probe.strategy = Strategy::Wcoj;
        probe.fixed.extend_from_slice(seeds);
        // A seed conflicting with the modes kills the whole subtree —
        // exactly what the sequential search's per-value checks do.
        let Some((val, used)) = probe.init_val() else {
            return SplitProbe::Dead;
        };
        let snap = DenseSnapshot::take(&probe.plan.wcoj, probe.target, probe.skip);
        match WcojRun::new(
            &snap,
            &probe.plan.wcoj,
            val,
            used,
            probe.injective,
            probe.allowed,
            probe.skip,
        ) {
            None => SplitProbe::Dead,
            Some(mut run) => run.split_probe(),
        }
    }

    /// The worst-case-optimal variant of [`KernelSearch::par_table`]:
    /// morsel-driven scheduling over the full depth of the variable order.
    ///
    /// Task generation expands prefixes of the search tree breadth-first:
    /// each morsel is a binding prefix (one seed per expanded depth, in
    /// candidate order), and a prefix splits into one child per value of
    /// the leapfrog intersection at its first unbound constrained depth
    /// ([`crate::wcoj::WcojRun::split_probe`]). Expansion stops once
    /// roughly `8 × workers` morsels exist — enough over-partitioning that
    /// idle workers always find a morsel to steal off the shared task
    /// counter ([`Pool::run_tasks`]), wherever in the tree it lives.
    ///
    /// Determinism: each morsel carries its hierarchical path (candidate
    /// ordinals per expanded depth); leaf paths sorted lexicographically
    /// are exactly depth-first order, and distinct prefixes yield disjoint
    /// row sets, so concatenating shard tables in sorted-path order
    /// reproduces the sequential enumeration order *exactly* — for any
    /// worker count.
    fn wcoj_par_table(&self, workers: usize) -> ValuationTable {
        let empty = || ValuationTable::new(self.plan.vars.clone());
        if workers <= 1 || self.skip.is_some() || self.plan.wcoj.order.is_empty() {
            return self.table();
        }
        if self.init_val().is_none() {
            return empty();
        }
        struct Morsel {
            /// Candidate ordinals per expanded depth (lex order = DFS
            /// order).
            path: Vec<u32>,
            /// The binding prefix: one `(slot, value)` per expanded depth.
            seeds: Vec<(usize, Value)>,
        }
        let target = workers.saturating_mul(8);
        let mut queue: VecDeque<Morsel> = VecDeque::new();
        queue.push_back(Morsel {
            path: Vec::new(),
            seeds: Vec::new(),
        });
        let mut leaves: Vec<Morsel> = Vec::new();
        while let Some(m) = queue.pop_front() {
            if leaves.len() + queue.len() + 1 >= target {
                leaves.push(m);
                leaves.extend(queue.drain(..));
                break;
            }
            match self.probe_split(&m.seeds) {
                SplitProbe::Dead => {}
                SplitProbe::Exhausted => leaves.push(m),
                SplitProbe::Candidates(slot, values) => {
                    for (i, v) in values.into_iter().enumerate() {
                        let mut path = m.path.clone();
                        path.push(i as u32);
                        let mut seeds = m.seeds.clone();
                        seeds.push((slot, v));
                        queue.push_back(Morsel { path, seeds });
                    }
                }
            }
        }
        if leaves.len() <= 1 {
            // Dead root (no answers) or a single indivisible morsel:
            // nothing to fan out on.
            return self.table();
        }
        leaves.sort_by(|a, b| a.path.cmp(&b.path));
        let spawned = workers.min(leaves.len());
        let stolen = AtomicU64::new(0);
        let busy: Vec<AtomicU64> = (0..spawned).map(|_| AtomicU64::new(0)).collect();
        let timing = obs::enabled();
        let shards = Pool::with_workers(workers).run_tasks(&leaves, |w, i, m| {
            let t0 = timing.then(Instant::now);
            let mut out = ValuationTable::new(self.plan.vars.clone());
            let mut sub = self.clone();
            sub.strategy = Strategy::Wcoj;
            sub.fixed.extend_from_slice(&m.seeds);
            sub.for_each_row(|row| {
                out.push_row(row);
                ControlFlow::Continue(())
            });
            // "Stolen": executed by a different worker than round-robin
            // home assignment would give — i.e. the shared counter
            // re-balanced it onto an idle worker.
            if i % spawned != w {
                stolen.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(t0) = t0 {
                busy[w].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            out
        });
        obs::count(obs::Metric::WcojMorselsExecuted, leaves.len() as u64);
        obs::count(
            obs::Metric::WcojMorselsStolen,
            stolen.load(Ordering::Relaxed),
        );
        if timing {
            for b in &busy {
                obs::observe(obs::Hist::WcojWorkerBusyNs, b.load(Ordering::Relaxed));
            }
        }
        let mut all = empty();
        for t in &shards {
            all.append(t);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_cq;
    use gtgd_data::GroundAtom;

    fn v(s: &str) -> Value {
        Value::named(s)
    }

    fn path_db(n: usize) -> Instance {
        let names: Vec<String> = (0..=n).map(|i| format!("n{i}")).collect();
        Instance::from_atoms(
            (0..n).map(|i| GroundAtom::named("E", &[names[i].as_str(), names[i + 1].as_str()])),
        )
    }

    #[test]
    fn interning_is_first_occurrence_order() {
        let q = parse_cq("Q() :- E(X,Y), E(Y,Z)").unwrap();
        let plan = CompiledQuery::compile(&q.atoms);
        assert_eq!(plan.slot_count(), 3);
        assert_eq!(plan.vars(), &[Var(0), Var(1), Var(2)]);
        assert_eq!(plan.slot_of(Var(1)), Some(1));
        assert_eq!(plan.slot_of(Var(9)), None);
    }

    #[test]
    fn compile_with_extra_adds_ghost_slots() {
        let q = parse_cq("Q() :- E(X,Y)").unwrap();
        let plan = CompiledQuery::compile_with_extra(&q.atoms, [Var(7)]);
        assert_eq!(plan.slot_count(), 3);
        assert_eq!(plan.slot_of(Var(7)), Some(2));
    }

    #[test]
    fn table_matches_counts() {
        let q = parse_cq("Q() :- E(X,Y), E(Y,Z)").unwrap();
        let db = path_db(4);
        let plan = CompiledQuery::compile(&q.atoms);
        let t = plan.search(&db).table();
        assert_eq!(t.len(), 3); // 3 length-2 walks on a 4-path
        assert_eq!(t.width(), 3);
        assert_eq!(plan.search(&db).count(), 3);
        assert!(plan.search(&db).exists());
        let first = plan.search(&db).first_row().unwrap();
        assert_eq!(first.len(), 3);
    }

    #[test]
    fn fixed_slots_filter() {
        let q = parse_cq("Q(X) :- E(X,Y)").unwrap();
        let db = path_db(2);
        let plan = CompiledQuery::compile(&q.atoms);
        let s = plan.slot_of(q.answer_vars[0]).unwrap();
        assert!(plan.search(&db).fix_slots([(s, v("n0"))]).exists());
        assert!(!plan.search(&db).fix_slots([(s, v("n2"))]).exists());
        // Conflicting bindings of the same slot: no answers.
        assert!(!plan
            .search(&db)
            .fix_slots([(s, v("n0")), (s, v("n1"))])
            .exists());
    }

    #[test]
    fn injective_and_allowed_modes() {
        let db = Instance::from_atoms([GroundAtom::named("E", &["a", "a"])]);
        let q = parse_cq("Q() :- E(X,Y), E(Y,X)").unwrap();
        let plan = CompiledQuery::compile(&q.atoms);
        assert!(plan.search(&db).exists());
        assert!(!plan.search(&db).injective().exists());
        let db2 = path_db(3);
        let plan2 = CompiledQuery::compile(&parse_cq("Q() :- E(X,Y)").unwrap().atoms);
        let allowed: HashSet<Value> = [v("n0"), v("n1")].into_iter().collect();
        assert_eq!(plan2.search(&db2).restrict_images(&allowed).count(), 1);
    }

    #[test]
    fn skip_atom_with_pinned_bindings() {
        let q = parse_cq("Q() :- E(X,Y), E(Y,Z)").unwrap();
        let db = path_db(3);
        let plan = CompiledQuery::compile(&q.atoms);
        // Pin the first atom to E(n0,n1): exactly one extension remains.
        let seed = plan
            .unify_atom(0, &GroundAtom::named("E", &["n0", "n1"]))
            .unwrap();
        let t = plan.search(&db).fix_slots(seed).skip_atom(0).table();
        assert_eq!(t.len(), 1);
        let z = plan.slot_of(Var(2)).unwrap();
        assert_eq!(t.row(0)[z], v("n2"));
    }

    #[test]
    fn unify_atom_rejects_clashes() {
        let q = parse_cq("Q() :- E(X,X), F(n0,Y)").unwrap();
        let plan = CompiledQuery::compile(&q.atoms);
        // Repeated slot must unify consistently.
        assert!(plan
            .unify_atom(0, &GroundAtom::named("E", &["a", "b"]))
            .is_none());
        assert!(plan
            .unify_atom(0, &GroundAtom::named("E", &["a", "a"]))
            .is_some());
        // Predicate, arity, and constant clashes.
        assert!(plan
            .unify_atom(0, &GroundAtom::named("F", &["a", "a"]))
            .is_none());
        assert!(plan
            .unify_atom(0, &GroundAtom::named("E", &["a"]))
            .is_none());
        assert!(plan
            .unify_atom(1, &GroundAtom::named("F", &["n1", "b"]))
            .is_none());
        assert!(plan
            .unify_atom(1, &GroundAtom::named("F", &["n0", "b"]))
            .is_some());
    }

    #[test]
    fn par_table_equals_table_as_set() {
        let db = path_db(6);
        for src in [
            "Q() :- E(X,Y)",
            "Q() :- E(X,Y), E(Y,Z)",
            "Q() :- E(X,X)",
            "Q() :- E(n0,Y)",
        ] {
            let q = parse_cq(src).unwrap();
            let plan = CompiledQuery::compile(&q.atoms);
            let mut seq: Vec<Vec<Value>> = plan
                .search(&db)
                .table()
                .rows()
                .map(|r| r.to_vec())
                .collect();
            seq.sort();
            for w in [1usize, 2, 4, 7] {
                let mut par: Vec<Vec<Value>> = plan
                    .search(&db)
                    .par_table(w)
                    .rows()
                    .map(|r| r.to_vec())
                    .collect();
                par.sort();
                assert_eq!(par, seq, "{src} at {w} workers");
            }
        }
    }

    #[test]
    fn boolean_width_zero_table() {
        let db = Instance::from_atoms([GroundAtom::named("Goal", &[])]);
        let q = parse_cq("Q() :- Goal()").unwrap();
        let plan = CompiledQuery::compile(&q.atoms);
        let t = plan.search(&db).table();
        assert_eq!(t.width(), 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0), &[] as &[Value]);
    }

    #[test]
    fn empty_query_yields_one_empty_row() {
        let db = path_db(2);
        let plan = CompiledQuery::compile(&[]);
        assert_eq!(plan.search(&db).count(), 1);
        assert_eq!(plan.search(&db).par_table(4).len(), 1);
    }

    #[test]
    fn to_maps_round_trip() {
        let q = parse_cq("Q() :- E(X,Y)").unwrap();
        let db = path_db(2);
        let plan = CompiledQuery::compile(&q.atoms);
        let maps = plan.search(&db).table().to_maps();
        assert_eq!(maps.len(), 2);
        assert!(maps.iter().all(|m| m.len() == 2));
    }
}
