//! Σ-types and guarded saturation (the machinery of Appendix A / Lemma A.3).
//!
//! For guarded TGDs, the atoms derivable from a *bag* (a guarded set of
//! constants together with the atoms over them) depend only on the bag's
//! isomorphism type. This module implements:
//!
//! * canonicalization of bags into [`CanonType`]s,
//! * a bag-closure engine ([`Saturator`]): the atoms over a bag's
//!   constants entailed by the chase, for all reachable canonical types at
//!   once as one worklist fixpoint. Each type also records its
//!   transitions, the child type and shared positions of each existential
//!   trigger over its closure: the one type-transition graph, which
//!   [`crate::linearize()`] reads. Closures and transitions are exact once
//!   the worklist drains,
//! * `child_bag`: the one "existential trigger → child bag" step,
//! * [`ground_saturation`]: `chase↓(D, Σ)` — the ground part of the chase,
//!   i.e. every atom over `dom(D)` entailed by `D` and Σ (the paper's
//!   `complete(D, Σ)` and the `D⁺` of Section 6.2). Each round re-closes
//!   only the bags whose restriction grew, and same-type bags share one
//!   closure, so the closure work tracks the number of reachable types
//!   rather than the number of bags,
//! * [`type_of_atom`]: `type_{D,Σ}(α)` (Appendix A.1).
//!
//! This is the ExpTime (for bounded arity) decision machinery that the paper
//! invokes from \[14\]/\[24\]; only *reachable* types are ever materialized.

use crate::plan::{AtomTemplate, TriggerPlan};
use crate::tgd::{Tgd, TgdClass};
use gtgd_data::idhash::IdHashMap;
use gtgd_data::{obs, GroundAtom, Instance, Predicate, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::time::Instant;

/// An atom in canonical coordinates: arguments are positions `0..width`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TAtom {
    /// The relation symbol.
    pub pred: Predicate,
    /// Arguments as canonical constant positions.
    pub args: Vec<u8>,
}

/// A canonicalized bag: a set of atoms over `width` anonymous constants.
/// Two bags with the same `CanonType` are isomorphic, so chase-derivable
/// atom sets over them coincide.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonType {
    /// Number of constants in the bag.
    pub width: u8,
    /// The atoms, in canonical coordinates.
    pub atoms: BTreeSet<TAtom>,
}

/// Largest bag width we canonicalize by brute-force permutation search.
/// `8! = 40320` permutations is still fast; the paper's bags have width
/// `≤ ar(T)`, small by the bounded-arity standing assumption.
pub const MAX_CANON_WIDTH: usize = 8;

fn encode(atoms: &Instance, position: &IdHashMap<Value, u8>) -> BTreeSet<TAtom> {
    atoms
        .iter()
        .map(|a| TAtom {
            pred: a.predicate,
            args: a.args.iter().map(|v| position[v]).collect(),
        })
        .collect()
}

/// Canonicalizes a bag by minimizing over all constant orderings. Returns
/// the canonical type and the ordering that realizes it
/// (`perm[canonical_position] = value`).
pub fn canonicalize(atoms: &Instance, consts: &[Value]) -> (CanonType, Vec<Value>) {
    canonicalize_rigid(atoms, &[], consts)
}

/// Canonicalizes while keeping `rigid` constants pinned at positions
/// `0..rigid.len()` in the given order; only `flexible` constants are
/// permuted, so constants shared with an enclosing structure keep their
/// identity relative to each other.
pub fn canonicalize_rigid(
    atoms: &Instance,
    rigid: &[Value],
    flexible: &[Value],
) -> (CanonType, Vec<Value>) {
    let width = rigid.len() + flexible.len();
    assert!(width <= u8::MAX as usize, "bag too wide");
    // Pre-sort the flexible constants by an isomorphism-invariant signature
    // (occurrence profile across predicates/positions and co-occurrence
    // with the rigid prefix), and only permute within equal-signature
    // groups: isomorphic bags have matching group structures, so the
    // restricted minimum is still a canonical form, at a fraction of the
    // `n!` cost (groups are usually singletons).
    type Occurrence = (u32, usize, usize);
    let signature = |v: Value| -> Vec<Occurrence> {
        let mut sig: Vec<Occurrence> = Vec::new();
        for a in atoms.iter() {
            for (pos, &arg) in a.args.iter().enumerate() {
                if arg == v {
                    let rigid_mask = a
                        .args
                        .iter()
                        .enumerate()
                        .filter(|(_, x)| rigid.contains(x))
                        .fold(0usize, |m, (i, _)| m | (1 << i));
                    sig.push((a.predicate.0.id(), pos, rigid_mask));
                }
            }
        }
        sig.sort_unstable();
        sig
    };
    let mut groups: Vec<(Vec<Occurrence>, Vec<Value>)> = Vec::new();
    {
        let mut sorted: Vec<(Vec<Occurrence>, Value)> =
            flexible.iter().map(|&v| (signature(v), v)).collect();
        sorted.sort();
        for (sig, v) in sorted {
            match groups.last_mut() {
                Some((s, vs)) if *s == sig => vs.push(v),
                _ => groups.push((sig, vec![v])),
            }
        }
    }
    let largest_group = groups.iter().map(|(_, vs)| vs.len()).max().unwrap_or(0);
    assert!(
        largest_group <= MAX_CANON_WIDTH,
        "canonicalization group of {largest_group} indistinguishable constants \
         exceeds the permutation limit"
    );
    let mut best: Option<(BTreeSet<TAtom>, Vec<Value>)> = None;
    let mut group_orders: Vec<Vec<Value>> = groups.iter().map(|(_, vs)| vs.clone()).collect();
    permute_groups(&mut group_orders, 0, &mut |perm| {
        let mut position: IdHashMap<Value, u8> = IdHashMap::default();
        for (i, &v) in rigid.iter().enumerate() {
            position.insert(v, i as u8);
        }
        for (i, &v) in perm.iter().enumerate() {
            position.insert(v, (rigid.len() + i) as u8);
        }
        let enc = encode(atoms, &position);
        if best.as_ref().is_none_or(|(b, _)| enc < *b) {
            let mut full: Vec<Value> = rigid.to_vec();
            full.extend_from_slice(perm);
            best = Some((enc, full));
        }
    });
    let (enc, perm) = best.expect("at least one ordering");
    (
        CanonType {
            width: width as u8,
            atoms: enc,
        },
        perm,
    )
}

/// Visits every ordering obtainable by permuting each group internally,
/// concatenated in group order.
fn permute_groups(groups: &mut Vec<Vec<Value>>, gi: usize, f: &mut impl FnMut(&[Value])) {
    if gi == groups.len() {
        let flat: Vec<Value> = groups.iter().flatten().copied().collect();
        f(&flat);
        return;
    }
    fn permute_within(
        groups: &mut Vec<Vec<Value>>,
        gi: usize,
        k: usize,
        f: &mut impl FnMut(&[Value]),
    ) {
        if k == groups[gi].len() {
            permute_groups(groups, gi + 1, f);
            return;
        }
        for i in k..groups[gi].len() {
            groups[gi].swap(k, i);
            permute_within(groups, gi, k + 1, f);
            groups[gi].swap(k, i);
        }
    }
    permute_within(groups, gi, 0, f);
}

/// Decodes a canonical atom set back to concrete constants
/// (`perm[position] = value`).
pub fn decode(atoms: &BTreeSet<TAtom>, perm: &[Value]) -> Instance {
    Instance::from_atoms(atoms.iter().map(|t| decode_atom(t, perm)))
}

fn decode_atom(t: &TAtom, perm: &[Value]) -> GroundAtom {
    GroundAtom::new(t.pred, t.args.iter().map(|&p| perm[p as usize]).collect())
}

/// One interned canonical type of the [`Saturator`]'s worklist.
pub(crate) struct TypeEntry {
    /// The closure so far, in canonical coordinates: it only grows, and it
    /// is exact whenever the worklist is empty.
    pub(crate) closure: BTreeSet<TAtom>,
    pub(crate) width: u8,
    /// The existential triggers over the closure, by TGD index and body
    /// row in canonical positions; exact whenever the closure is.
    pub(crate) transitions: BTreeMap<(usize, Vec<u8>), Transition>,
    /// The types whose evaluation imported this closure; they go back on
    /// the worklist when it grows.
    importers: Vec<usize>,
    /// Whether an evaluation searched every rule over the closure.
    evaluated: bool,
}

/// The child bag an existential trigger of a type creates: an edge of the
/// type-transition graph.
pub(crate) struct Transition {
    /// The child bag's type.
    pub(crate) child: usize,
    /// For each canonical position of the child, the parent position it
    /// shares, or `None` for a fresh null.
    pub(crate) shared: Vec<Option<u8>>,
    /// How many parent atoms the child bag inherited. The parent's atoms
    /// only grow, so while the count holds the child bag is the same.
    inherited: usize,
    /// The size of the child's closure when the parent last imported it.
    imported: usize,
}

impl Transition {
    /// Imports the child's `closure` into `bag`, a bag of the parent over
    /// `consts`, through the shared positions, unless it has not grown
    /// since the last import. Returns whether the bag grew.
    fn import(&mut self, closure: &BTreeSet<TAtom>, consts: &[Value], bag: &mut Instance) -> bool {
        if std::mem::replace(&mut self.imported, closure.len()) == closure.len() {
            return false;
        }
        let value = |p: &u8| self.shared[*p as usize].map(|q| consts[q as usize]);
        let mut grew = false;
        for a in closure {
            if let Some(args) = a.args.iter().map(value).collect() {
                grew |= bag.insert(GroundAtom::new(a.pred, args));
            }
        }
        grew
    }
}

/// The bag-closure engine for a fixed set of guarded TGDs.
///
/// The closure of a bag depends only on its canonical type, so all the
/// closures together are the least fixpoint of one system over types,
/// which a worklist solves. Evaluating a type fires the full rules on its
/// current closure and imports, over its own constants, the current
/// closure of each child type its existential triggers create, until
/// nothing more is added; a type whose closure grew requeues every type
/// that imported it. Closures only grow, within finitely many atoms, so
/// the worklist drains, and then every interned closure is exact.
///
/// Each type keeps its transitions, the type-transition graph that
/// [`crate::linearize()`] reads. A transition is rebuilt only when its
/// child bag inherits more atoms; once the worklist drains, each was built
/// over the exact closure.
pub struct Saturator {
    plans: Vec<TriggerPlan>,
    /// The piece rules' head predicates, which no child bag inherits.
    pieces: HashSet<Predicate>,
    ids: IdHashMap<CanonType, usize>,
    types: Vec<TypeEntry>,
    queue: VecDeque<usize>,
}

impl Saturator {
    /// Creates a saturator. Panics unless every TGD is guarded and
    /// constant-free (the paper's standing assumptions for this machinery).
    pub fn new(tgds: &[Tgd]) -> Saturator {
        for t in tgds {
            assert!(
                t.is_in(TgdClass::Guarded),
                "the type machinery requires guarded TGDs: {t}"
            );
            assert!(
                t.is_constant_free(),
                "the type machinery requires constant-free TGDs: {t}"
            );
        }
        Saturator {
            plans: TriggerPlan::compile_all(tgds),
            pieces: HashSet::new(),
            ids: IdHashMap::default(),
            types: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// A saturator that also closes the query's piece rules ([`crate::pieces`]),
    /// which need not be guarded: a full rule fired inside one bag is sound.
    pub(crate) fn with_pieces(tgds: &[Tgd], pieces: &[Tgd]) -> Saturator {
        let mut sat = Saturator::new(tgds);
        sat.pieces = pieces.iter().map(|t| t.head[0].predicate).collect();
        let plans = (pieces.iter().enumerate()).map(|(i, t)| TriggerPlan::new(t, tgds.len() + i));
        sat.plans.extend(plans);
        sat
    }

    /// Number of distinct canonical types materialized so far (telemetry for
    /// the experiments).
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// The interned types, indexed by id.
    pub(crate) fn types(&self) -> &[TypeEntry] {
        &self.types
    }

    /// Closes a bag: returns every atom over `consts` entailed by the chase
    /// of the bag's atoms under the TGDs. `atoms` must only mention
    /// `consts`.
    pub fn close_bag(&mut self, atoms: &Instance, consts: &[Value]) -> Instance {
        debug_assert!(atoms
            .iter()
            .all(|a| a.args.iter().all(|v| consts.contains(v))));
        let (key, perm) = canonicalize(atoms, consts);
        let id = self.close_type(key);
        decode(&self.types[id].closure, &perm)
    }

    /// The id of type `key`, whose closure in canonical coordinates decodes
    /// to every bag of the type through that bag's own ordering: a known
    /// type's, else the new type's once the worklist drains.
    pub(crate) fn close_type(&mut self, key: CanonType) -> usize {
        let known = self.types.len();
        let id = self.intern(key);
        if id < known {
            obs::count(obs::Metric::BagClosureMemoHits, 1);
        }
        while let Some(next) = self.queue.pop_front() {
            self.evaluate(next);
        }
        id
    }

    /// The id of `key`; an unseen type is seeded with its own atoms and
    /// queued.
    fn intern(&mut self, key: CanonType) -> usize {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.types.len();
        self.types.push(TypeEntry {
            closure: key.atoms.clone(),
            width: key.width,
            transitions: BTreeMap::new(),
            importers: Vec::new(),
            evaluated: false,
        });
        self.ids.insert(key, id);
        self.queue.push_back(id);
        id
    }

    /// One worklist step: brings type `id` to a local fixpoint against the
    /// current closures of its child types, and requeues its importers if
    /// its closure grew.
    ///
    /// A rule is searched again only once the bag has grown, and an
    /// evaluated type starts from its recorded transitions. The bag only
    /// grows, so each rule's last search, and each transition, is over the
    /// final bag.
    fn evaluate(&mut self, id: usize) {
        obs::count(obs::Metric::BagClosures, 1);
        let started = obs::enabled().then(Instant::now);
        let consts: Vec<Value> = (0..self.types[id].width)
            .map(|_| Value::fresh_null())
            .collect();
        let position: IdHashMap<Value, u8> = consts.iter().zip(0..).map(|(&v, i)| (v, i)).collect();
        let mut bag = decode(&self.types[id].closure, &consts);
        // Taken out for the loop: interning child types borrows `self`.
        let plans = std::mem::take(&mut self.plans);
        let mut transitions = std::mem::take(&mut self.types[id].transitions);
        // The bag's size at each rule's last search.
        let mut searched = vec![self.types[id].evaluated.then_some(bag.len()); plans.len()];
        for t in transitions.values_mut() {
            t.import(&self.types[t.child].closure, &consts, &mut bag);
        }
        let (mut nulls, mut head) = (Vec::new(), Vec::new());
        loop {
            let mut grew = false;
            for (plan, searched) in plans.iter().zip(&mut searched) {
                if *searched == Some(bag.len()) {
                    continue;
                }
                *searched = Some(bag.len());
                // A rule whose body predicate the bag lacks cannot fire.
                let held =
                    |a: &AtomTemplate| !bag.atoms_with_pred(a.predicate, a.args.len()).is_empty();
                if !plan.body_atoms.iter().all(held) {
                    continue;
                }
                let rows = plan.body.search(&bag).table();
                for row in rows.rows() {
                    if plan.n_exist == 0 {
                        plan.fire_row(row, &mut nulls, &mut head);
                        for a in head.drain(..) {
                            grew |= bag.insert(a);
                        }
                        continue;
                    }
                    let key = (plan.index, row.iter().map(|v| position[v]).collect());
                    let inherited = inherited(plan, row, &bag, &self.pieces).count();
                    let stale = |t: &Transition| t.inherited != inherited;
                    if transitions.get(&key).is_none_or(stale) {
                        let (child_consts, child) = child_bag(plan, row, &bag, &self.pieces);
                        let (child_key, perm) = canonicalize(&child, &child_consts);
                        let child = self.intern(child_key);
                        if !self.types[child].importers.contains(&id) {
                            self.types[child].importers.push(id);
                        }
                        let shared = perm.iter().map(|v| position.get(v).copied()).collect();
                        let t = Transition {
                            child,
                            shared,
                            inherited,
                            imported: 0,
                        };
                        transitions.insert(key.clone(), t);
                    }
                    let t = transitions.get_mut(&key).expect("recorded above");
                    grew |= t.import(&self.types[t.child].closure, &consts, &mut bag);
                }
            }
            if !grew {
                break;
            }
        }
        self.plans = plans;
        self.types[id].transitions = transitions;
        self.types[id].evaluated = true;
        let closure = encode(&bag, &position);
        if closure.len() > self.types[id].closure.len() {
            self.types[id].closure = closure;
            for i in self.types[id].importers.clone() {
                if !self.queue.contains(&i) {
                    self.queue.push_back(i);
                }
            }
        }
        if let Some(t0) = started {
            obs::observe(obs::Hist::BagClosureNs, t0.elapsed().as_nanos() as u64);
        }
    }

    /// `chase↓(D, Σ)`: all atoms over `dom(D)` entailed by the chase.
    ///
    /// Every guarded set of D is `dom(α)` for some atom α, and every chase
    /// derivation over `dom(D)` is local to one such bag, so each round
    /// closes the bags and adds the closures until nothing changes. A round
    /// re-closes only the bags whose restriction is no longer the closure
    /// they last got: type closures are exact, so closing a bag's own
    /// closure again has nothing more to give. Same-type bags share one
    /// closure, decoded through each bag's own ordering.
    pub fn ground_saturation(&mut self, db: &Instance) -> Instance {
        let _span = obs::span("chase.saturation");
        let mut ground = db.clone();
        // The size of each bag's last closure. A closure holds its seed
        // atoms and lands in `ground`, which only grows, so the bag's
        // restriction contains it: an equal size means the restriction is
        // that closure, and closing it again adds nothing.
        let mut closed_sizes: HashMap<Vec<Value>, usize> = HashMap::new();
        loop {
            let mut dirty = Vec::new();
            for (consts, ids) in guarded_bags(&ground) {
                if closed_sizes.get(&consts) != Some(&ids.len()) {
                    let key = canonicalize(&restriction(&ground, &ids), &consts);
                    dirty.push((consts, key));
                }
            }
            let mut added = false;
            for (consts, (key, perm)) in dirty {
                let id = self.close_type(key);
                let closure = &self.types[id].closure;
                closed_sizes.insert(consts, closure.len());
                for t in closure {
                    added |= ground.insert(decode_atom(t, &perm));
                }
            }
            if !added {
                return ground;
            }
        }
    }
}

/// The atoms of `parent` that the child bag of the existential trigger
/// `row` of `plan` inherits: those over the trigger's frontier images
/// whose predicate is not in `skip`.
fn inherited<'a>(
    plan: &'a TriggerPlan,
    row: &'a [Value],
    parent: &'a Instance,
    skip: &'a HashSet<Predicate>,
) -> impl Iterator<Item = &'a GroundAtom> {
    let shared = |v: &Value| plan.frontier_links.iter().any(|&(_, slot)| row[slot] == *v);
    let over = move |a: &&GroundAtom| a.args.iter().all(shared) && !skip.contains(&a.predicate);
    parent.iter().filter(over)
}

/// The child bag of the existential trigger that `row`, a body row of
/// `plan`, witnesses in the bag `parent`. Returns the child's constants —
/// the frontier images in [`Tgd::frontier`] order without repeats, then
/// the firing's fresh nulls — and its atoms: the head atoms, then the
/// atoms the child [`inherited`] from `parent`.
pub(crate) fn child_bag(
    plan: &TriggerPlan,
    row: &[Value],
    parent: &Instance,
    skip: &HashSet<Predicate>,
) -> (Vec<Value>, Instance) {
    let mut consts: Vec<Value> = Vec::new();
    for &(_, slot) in &plan.frontier_links {
        if !consts.contains(&row[slot]) {
            consts.push(row[slot]);
        }
    }
    let (mut nulls, mut head) = (Vec::new(), Vec::new());
    plan.fire_row(row, &mut nulls, &mut head);
    consts.extend_from_slice(&nulls);
    head.sort_unstable();
    head.dedup();
    let inherited = inherited(plan, row, parent, skip).filter(|a| !head.contains(a));
    let inherited: Vec<GroundAtom> = inherited.cloned().collect();
    head.extend(inherited);
    // The atoms are distinct; a child bag needs no row indexes.
    (consts, Instance::from_unique_atoms(head))
}

/// The guarded sets `dom(α)` of the atoms α of `inst`, sorted, in
/// first-appearance order, each with its restriction `inst|dom(α)` as
/// ascending atom ids. Restrictions come from a value → atom-id index
/// built once, not from a scan of the whole instance per set.
pub(crate) fn guarded_bags(inst: &Instance) -> Vec<(Vec<Value>, Vec<usize>)> {
    // Nullary atoms lie over every set.
    let mut nullary: Vec<usize> = Vec::new();
    let mut atoms_of: HashMap<Value, Vec<usize>> = HashMap::new();
    for (i, a) in inst.iter_ids() {
        if a.args.is_empty() {
            nullary.push(i);
        }
        for v in a.dom() {
            atoms_of.entry(v).or_default().push(i);
        }
    }
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    let mut bags = Vec::new();
    for a in inst.iter() {
        let mut consts = a.dom();
        consts.sort_unstable();
        if !seen.insert(consts.clone()) {
            continue;
        }
        let mut ids = nullary.clone();
        for v in &consts {
            ids.extend(atoms_of[v].iter().copied().filter(|&i| {
                inst.atom(i)
                    .args
                    .iter()
                    .all(|x| consts.binary_search(x).is_ok())
            }));
        }
        ids.sort_unstable();
        ids.dedup();
        bags.push((consts, ids));
    }
    bags
}

/// The atoms of `inst` with the given ids, as an instance.
pub(crate) fn restriction(inst: &Instance, ids: &[usize]) -> Instance {
    Instance::from_atoms(ids.iter().map(|&i| inst.atom(i).clone()))
}

/// `chase↓(D, Σ)` for a set of guarded TGDs: the ground part of the chase,
/// i.e. `D ∪ {R(ā) ∈ chase(D, Σ) | ā ⊆ dom(D)}`.
pub fn ground_saturation(db: &Instance, tgds: &[Tgd]) -> Instance {
    Saturator::new(tgds).ground_saturation(db)
}

/// `type_{D,Σ}(α)`: the atoms of `chase(D, Σ)` over `dom(α)`.
pub fn type_of_atom(db: &Instance, tgds: &[Tgd], atom: &GroundAtom) -> Instance {
    let sat = ground_saturation(db, tgds);
    let keep: HashSet<Value> = atom.dom().into_iter().collect();
    sat.restrict_to(&keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{chase, ChaseBudget};
    use crate::tgd::parse_tgds;

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    #[test]
    fn canonicalization_is_rename_invariant() {
        let b1 = db(&[("R", &["a", "b"]), ("P", &["a"])]);
        let b2 = db(&[("R", &["x", "y"]), ("P", &["x"])]);
        let (k1, _) = canonicalize(&b1, &[Value::named("a"), Value::named("b")]);
        let (k2, _) = canonicalize(&b2, &[Value::named("y"), Value::named("x")]);
        assert_eq!(k1, k2);
        let b3 = db(&[("R", &["a", "b"]), ("P", &["b"])]); // P on the other side
        let (k3, _) = canonicalize(&b3, &[Value::named("a"), Value::named("b")]);
        assert_ne!(k1, k3);
    }

    #[test]
    fn canonicalize_decode_roundtrip() {
        let b = db(&[("R", &["a", "b"]), ("S", &["b", "a"]), ("P", &["a"])]);
        let consts = [Value::named("a"), Value::named("b")];
        let (k, perm) = canonicalize(&b, &consts);
        assert_eq!(decode(&k.atoms, &perm), b);
    }

    #[test]
    fn rigid_canonicalization_pins_prefix() {
        let b = db(&[("R", &["a", "b"])]);
        let (k, perm) = canonicalize_rigid(&b, &[Value::named("a")], &[Value::named("b")]);
        assert_eq!(perm[0], Value::named("a"));
        assert!(k.atoms.contains(&TAtom {
            pred: Predicate::new("R"),
            args: vec![0, 1],
        }));
    }

    #[test]
    fn full_tgds_saturate_like_chase() {
        let tgds = parse_tgds("R(X,Y) -> R(Y,X). R(X,Y) -> P(X)").unwrap();
        let d = db(&[("R", &["a", "b"])]);
        let sat = ground_saturation(&d, &tgds);
        let reference = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert!(reference.complete);
        assert_eq!(sat, reference.instance);
    }

    #[test]
    fn existential_round_trip_derives_ground_atoms() {
        // R(x,y) → ∃z S(y,z); S(y,z) → T(y). T is derivable over dom(D)
        // even though it needs a detour through a null.
        let tgds = parse_tgds("R(X,Y) -> S(Y,Z). S(Y,Z) -> T(Y)").unwrap();
        let d = db(&[("R", &["a", "b"])]);
        let sat = ground_saturation(&d, &tgds);
        assert!(sat.contains(&GroundAtom::named("T", &["b"])));
        // And nothing about nulls leaks into the ground part.
        assert!(sat.dom().iter().all(|v| v.is_named()));
        assert_eq!(sat.len(), 2); // R(a,b) and T(b); S(b,⊥) is not ground
    }

    #[test]
    fn deep_recursion_through_types() {
        // An infinite chase whose ground part is finite: the classic
        // person/parent ontology plus an attribute that flows back.
        let tgds = parse_tgds(
            "Person(X) -> Parent(X,Y), Person(Y). \
             Parent(X,Y), Royal(Y) -> Royal(X)",
        )
        .unwrap();
        let d = db(&[("Person", &["eve"])]);
        let sat = ground_saturation(&d, &tgds);
        // Royal never becomes derivable; Person(eve) is all the ground part.
        assert_eq!(sat.len(), 1);
    }

    #[test]
    fn ground_saturation_agrees_with_deep_chase() {
        // Cross-validate on a guarded ontology with existential heads.
        let tgds = parse_tgds(
            "Emp(X) -> WorksIn(X,D). \
             WorksIn(X,D) -> Dept(D). \
             Dept(D) -> HasMgr(D,M), Emp(M). \
             HasMgr(D,M) -> Reports(M,D). \
             Reports(M,D), HasMgr(D,M) -> Runs(M,D)",
        )
        .unwrap();
        let d = db(&[("Emp", &["ann"]), ("WorksIn", &["ann", "sales"])]);
        let sat = ground_saturation(&d, &tgds);
        let deep = chase(&d, &tgds, &ChaseBudget::levels(8));
        // Every ground atom of the deep chase prefix must be in sat.
        for a in deep.instance.iter() {
            if a.args.iter().all(|v| v.is_named()) {
                assert!(sat.contains(a), "missing ground atom {a}");
            }
        }
        // And sat contains no atom the deep chase prefix lacks.
        for a in sat.iter() {
            assert!(deep.instance.contains(a), "unsound atom {a}");
        }
    }

    #[test]
    fn ground_saturation_recloses_every_bag_after_the_memo_grows() {
        // Both S bags reach the type of R(c,⊥), whose child R(z,c) has
        // that type again: a type cycle. Bag {c1,c2} gains A(c1) only from
        // the cycle's least fixpoint; an in-progress approximation of the
        // cycle stops one step short of it, although the bag's own
        // restriction never grows.
        let tgds = parse_tgds("R(Y,X) -> R(Z,Y). R(X,Y) -> A(Y). S(Y,X) -> R(Y,Z)").unwrap();
        let d = db(&[("S", &["c1", "c2"]), ("S", &["c0", "c1"]), ("A", &["c2"])]);
        let sat = ground_saturation(&d, &tgds);
        let mut want = d.clone();
        want.insert(GroundAtom::named("A", &["c0"]));
        want.insert(GroundAtom::named("A", &["c1"]));
        assert_eq!(sat, want);
        let deep = chase(&d, &tgds, &ChaseBudget::levels(6));
        assert_eq!(
            sat,
            deep.instance
                .restrict_to(&d.dom().iter().copied().collect())
        );
    }

    #[test]
    fn two_atom_existential_heads_close_in_few_type_evaluations() {
        // Heads with two atoms and an existential, whose child types lead
        // back into each other. A closure that re-descends every type on a
        // cycle needs 17 248 type evaluations over 25 types here; solving
        // all types as one fixpoint needs 40.
        let tgds = parse_tgds(
            "R(X,Y) -> S(X,Y), R(Z,X). \
             S(X,Y) -> S(X,Z), B(X), B(Z). \
             S(X,Y) -> R(X,Y), R(Y,X)",
        )
        .unwrap();
        let d = db(&[("R", &["c1", "c1"]), ("A", &["c0"]), ("S", &["c2", "c1"])]);
        let (sat, report) = obs::trace_run(|| ground_saturation(&d, &tgds));
        // The ground part is complete by level 2; level 8 leaves margin.
        let deep = chase(&d, &tgds, &ChaseBudget::levels(8));
        assert_eq!(
            sat,
            deep.instance
                .restrict_to(&d.dom().iter().copied().collect())
        );
        assert_eq!(sat.len(), 9);
        // Other tests of this binary may count into the same global
        // counter while this one runs, so the bound leaves room.
        let evaluations = report.counter(obs::Metric::BagClosures);
        assert!(evaluations < 400, "type evaluations: {evaluations}");
    }

    #[test]
    fn existential_detour_adds_nothing_ground() {
        // Emp(a) only reaches Dept and Super through a fresh null, and the
        // named d0 never becomes a Dept, so the ground part is D itself.
        let tgds = parse_tgds(
            "Emp(X) -> WorksIn(X,D), Dept(D). \
             WorksIn(X,D), Dept(D) -> Super(D,X). \
             Super(D,X) -> Emp(X)",
        )
        .unwrap();
        let d = db(&[("Emp", &["a"]), ("Emp", &["b"]), ("WorksIn", &["a", "d0"])]);
        assert_eq!(ground_saturation(&d, &tgds), d);
    }

    #[test]
    fn recursive_types_saturate() {
        // The existential rules cycle A → B → A through types; only the
        // 2-cycle over dom(D) yields S.
        let tgds = parse_tgds("A(X) -> R(X,Y), B(Y). B(X) -> R(X,Y), A(Y). R(X,Y), R(Y,X) -> S(X)")
            .unwrap();
        let d = db(&[("A", &["a"]), ("R", &["a", "b"]), ("R", &["b", "a"])]);
        let expected = db(&[
            ("A", &["a"]),
            ("R", &["a", "b"]),
            ("R", &["b", "a"]),
            ("S", &["a"]),
            ("S", &["b"]),
        ]);
        let mut sat = Saturator::new(&tgds);
        assert_eq!(sat.ground_saturation(&d), expected);
        // A second run on the warm memo agrees.
        assert_eq!(sat.ground_saturation(&d), expected);
    }

    #[test]
    fn recorded_transitions_match_a_fresh_recomputation() {
        // Recomputed from each type's exact closure, the existential
        // triggers give exactly the recorded transitions: none survives
        // from a partial closure. Inputs: the two-atom heads above, and
        // the recursive types.
        let inputs = [
            (
                "R(X,Y) -> S(X,Y), R(Z,X). \
                 S(X,Y) -> S(X,Z), B(X), B(Z). \
                 S(X,Y) -> R(X,Y), R(Y,X)",
                db(&[("R", &["c1", "c1"]), ("A", &["c0"]), ("S", &["c2", "c1"])]),
            ),
            (
                "A(X) -> R(X,Y), B(Y). B(X) -> R(X,Y), A(Y). R(X,Y), R(Y,X) -> S(X)",
                db(&[("A", &["a"]), ("R", &["a", "b"]), ("R", &["b", "a"])]),
            ),
        ];
        for (src, d) in inputs {
            let mut sat = Saturator::new(&parse_tgds(src).unwrap());
            sat.ground_saturation(&d);
            let mut edges = 0;
            for (id, entry) in sat.types.iter().enumerate() {
                let consts: Vec<Value> = (0..entry.width).map(|_| Value::fresh_null()).collect();
                let bag = decode(&entry.closure, &consts);
                let mut want = BTreeSet::new();
                for plan in sat.plans.iter().filter(|p| p.n_exist > 0) {
                    for row in plan.body.search(&bag).table().rows() {
                        let (child_consts, child) = child_bag(plan, row, &bag, &sat.pieces);
                        let (key, perm) = canonicalize(&child, &child_consts);
                        let at = |v: &Value| consts.iter().position(|c| c == v);
                        let row: Vec<usize> = row.iter().map(|v| at(v).unwrap()).collect();
                        let shared: Vec<Option<usize>> = perm.iter().map(at).collect();
                        want.insert((plan.index, row, sat.ids[&key], shared));
                    }
                }
                let got: BTreeSet<_> = (entry.transitions.iter())
                    .map(|((tgd, row), t)| {
                        let row = row.iter().map(|&p| usize::from(p)).collect();
                        let shared = t.shared.iter().map(|p| p.map(usize::from)).collect();
                        (*tgd, row, t.child, shared)
                    })
                    .collect();
                assert_eq!(got, want, "transitions of type {id} under {src}");
                edges += got.len();
            }
            assert!(edges > 0, "{src}");
        }
    }

    #[test]
    fn guarded_bags_match_restrict_to() {
        let d = db(&[
            ("R", &["a", "b"]),
            ("P", &["a"]),
            ("R", &["b", "c"]),
            ("Q", &[]),
            ("R", &["b", "a"]),
        ]);
        let bags = guarded_bags(&d);
        let sets: Vec<Vec<Value>> = bags.iter().map(|(c, _)| c.clone()).collect();
        // Sets come sorted by value; interning order fixes that order.
        let set = |names: &[&str]| {
            let mut vs: Vec<Value> = names.iter().map(|n| Value::named(n)).collect();
            vs.sort_unstable();
            vs
        };
        assert_eq!(
            sets,
            vec![set(&["a", "b"]), set(&["a"]), set(&["b", "c"]), set(&[])]
        );
        for (consts, ids) in &bags {
            let keep: HashSet<Value> = consts.iter().copied().collect();
            assert_eq!(restriction(&d, ids), d.restrict_to(&keep), "bag {consts:?}");
        }
    }

    #[test]
    fn type_of_atom_restricts_to_guard() {
        let tgds = parse_tgds("R(X,Y) -> P(X). R(X,Y) -> Q(Y)").unwrap();
        let d = db(&[("R", &["a", "b"]), ("R", &["b", "c"])]);
        let t = type_of_atom(&d, &tgds, &GroundAtom::named("R", &["a", "b"]));
        assert!(t.contains(&GroundAtom::named("P", &["a"])));
        assert!(t.contains(&GroundAtom::named("Q", &["b"])));
        assert!(t.contains(&GroundAtom::named("P", &["b"]))); // from R(b,c), over {a,b}
        assert!(!t.contains(&GroundAtom::named("R", &["b", "c"])));
    }

    #[test]
    fn memoization_reuses_types() {
        let tgds = parse_tgds("A(X) -> R(X,Y), A(Y)").unwrap();
        let mut sat = Saturator::new(&tgds);
        let d = db(&[("A", &["a"]), ("A", &["b"]), ("A", &["c"])]);
        sat.ground_saturation(&d);
        // All three start atoms have the same type; the infinite forward
        // chain collapses into a few canonical types.
        assert!(sat.type_count() <= 4, "types: {}", sat.type_count());
    }

    #[test]
    #[should_panic(expected = "requires guarded")]
    fn rejects_unguarded_tgds() {
        let tgds = parse_tgds("R(X,Y), S(Y,Z) -> T(X,Z)").unwrap();
        Saturator::new(&tgds);
    }

    #[test]
    fn linear_tgd_inclusion_dependencies() {
        // Inclusion dependencies (the paper's referential constraints).
        let tgds = parse_tgds("Emp(X, D) -> Dept(D). Dept(D) -> DeptHasEmp(D, E)").unwrap();
        let d = db(&[("Emp", &["ann", "sales"])]);
        let sat = ground_saturation(&d, &tgds);
        assert!(sat.contains(&GroundAtom::named("Dept", &["sales"])));
        assert_eq!(sat.len(), 2);
    }
}
