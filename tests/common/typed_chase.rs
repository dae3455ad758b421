//! The *typed chase*, kept as a test reference: a level-bounded
//! materialization of `chase(D, Σ)` for guarded Σ in which every bag
//! carries its complete closed type, mirroring the `(D*, Σ*)`
//! linearization of Lemma A.3. The library answers guarded OMQs with no
//! depth bound through `piece_saturation`; this reference is what those
//! answers are checked against wherever it saturates.
//!
//! Every materialized bag is *closed* (contains every atom over its
//! constants entailed below it, via `Saturator::close_bag`), so evaluating
//! a UCQ over the materialized instance is complete for matches confined
//! to the materialized levels.
//!
//! Depth control ([`DepthPolicy`]): either a fixed level bound, or
//! *adaptive* blocking: expansion below a bag stops `extra_levels` levels
//! after the bag's blocking signature repeats along its ancestor path. A
//! signature is the closed type canonicalized with named constants rigid
//! and inherited nulls marked (but anonymized), so two bags with equal
//! signatures root isomorphic subtrees. Trigger firing is deduplicated by
//! `(TGD, trigger key)`, as in the oblivious chase.
//!
//! Written against the public API only: `Saturator`, `canonicalize_rigid`
//! and the query kernel's body search.

use gtgd::chase::types::{canonicalize_rigid, CanonType};
use gtgd::chase::{Saturator, Tgd};
use gtgd::data::{GroundAtom, Instance, Predicate, Value};
use gtgd::query::CompiledQuery;
use std::collections::HashSet;

/// How deep to materialize the typed chase.
#[derive(Debug, Clone, Copy)]
pub enum DepthPolicy {
    /// Materialize exactly the bags up to this level.
    Fixed(usize),
    /// Expand until each path blocks (signature repeats), then `extra_levels`
    /// more; `max_level` is a hard safety stop.
    Adaptive {
        /// Extra levels to expand below a blocking point.
        extra_levels: usize,
        /// Hard cap on the level regardless of blocking.
        max_level: usize,
    },
}

/// The result of a typed chase materialization.
#[derive(Debug, Clone)]
pub struct TypedChaseResult {
    /// The materialized, per-bag-closed prefix of the chase.
    pub instance: Instance,
    /// Highest bag level materialized.
    pub max_level: usize,
    /// `true` when expansion ceased because every frontier bag was blocked
    /// (adaptive mode) or the chase reached a fixpoint; `false` when the
    /// hard level cap hit first.
    pub saturated: bool,
    /// Number of bags materialized.
    pub bag_count: usize,
}

struct Bag {
    atoms: Instance,
    level: usize,
    /// The bag's blocking signature; `None` for a root bag.
    signature: Option<CanonType>,
    /// The parent's index in the queue; `None` for a root bag.
    parent: Option<usize>,
    /// Levels since this path first blocked, if blocked.
    blocked_for: Option<usize>,
}

/// The blocking signature of a bag: its closed atoms plus `__inherited`
/// marker atoms on the constants shared with the parent, canonicalized with
/// named constants rigid and nulls anonymized.
fn blocking_signature(atoms: &Instance, consts: &[Value], inherited: &[Value]) -> CanonType {
    let marker = Predicate::new("__inherited");
    let mut sig = atoms.clone();
    for &v in inherited {
        sig.insert(GroundAtom::new(marker, vec![v]));
    }
    let rigid: Vec<Value> = consts.iter().copied().filter(|v| v.is_named()).collect();
    let flexible: Vec<Value> = consts.iter().copied().filter(|v| v.is_null()).collect();
    canonicalize_rigid(&sig, &rigid, &flexible).0
}

/// Materializes the typed chase of `db` under guarded `tgds`.
pub fn typed_chase(db: &Instance, tgds: &[Tgd], policy: DepthPolicy) -> TypedChaseResult {
    let mut sat = Saturator::new(tgds);
    typed_chase_with(db, tgds, policy, &mut sat)
}

/// [`typed_chase`] reusing a caller-owned [`Saturator`].
pub fn typed_chase_with(
    db: &Instance,
    tgds: &[Tgd],
    policy: DepthPolicy,
    sat: &mut Saturator,
) -> TypedChaseResult {
    let ground = sat.ground_saturation(db);
    let mut instance = ground.clone();
    // Root bags: one per guarded set of the saturated ground part.
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    let mut queue: Vec<Bag> = Vec::new();
    for a in ground.iter() {
        let mut consts = a.dom();
        consts.sort_unstable();
        if seen.insert(consts.clone()) {
            queue.push(Bag {
                atoms: ground.restrict_to(&consts.into_iter().collect()),
                level: 0,
                signature: None,
                parent: None,
                blocked_for: None,
            });
        }
    }
    let (hard_cap, extra) = match policy {
        DepthPolicy::Fixed(l) => (l, None),
        DepthPolicy::Adaptive {
            extra_levels,
            max_level,
        } => (max_level, Some(extra_levels)),
    };
    let bodies: Vec<CompiledQuery> = tgds
        .iter()
        .map(|t| CompiledQuery::compile(&t.body))
        .collect();
    let mut max_level = 0usize;
    let mut saturated = true;
    // Oblivious-chase trigger dedup: (tgd index, trigger key).
    let mut fired: HashSet<(usize, Vec<Value>)> = HashSet::new();
    let mut qi = 0;
    while qi < queue.len() {
        let bag_idx = qi;
        qi += 1;
        let (level, blocked_for) = (queue[bag_idx].level, queue[bag_idx].blocked_for);
        max_level = max_level.max(level);
        if level >= hard_cap {
            saturated = false;
            continue;
        }
        if let (Some(extra), Some(b)) = (extra, blocked_for) {
            if b >= extra {
                continue; // blocked long enough; subtree repeats above
            }
        }
        // Expand: every existential trigger creates a closed child bag.
        for (ti, tgd) in tgds.iter().enumerate() {
            let exist = tgd.existential_vars();
            if exist.is_empty() {
                continue; // full consequences are already in the closure
            }
            for mut val in bodies[ti].search(&queue[bag_idx].atoms).table().to_maps() {
                let key: Vec<Value> = tgd.body_vars().iter().map(|v| val[v]).collect();
                if !fired.insert((ti, key)) {
                    continue;
                }
                // The child's constants: the frontier images without
                // repeats, then the firing's fresh nulls.
                let mut consts: Vec<Value> = Vec::new();
                for v in tgd.frontier() {
                    if !consts.contains(&val[&v]) {
                        consts.push(val[&v]);
                    }
                }
                let inherited = consts.len();
                for z in &exist {
                    let null = Value::fresh_null();
                    val.insert(*z, null);
                    consts.push(null);
                }
                let mut atoms = Instance::from_atoms(tgd.head.iter().map(|a| a.ground(&val)));
                for a in queue[bag_idx].atoms.iter() {
                    if a.args.iter().all(|v| consts.contains(v)) {
                        atoms.insert(a.clone());
                    }
                }
                let atoms = sat.close_bag(&atoms, &consts);
                let signature = blocking_signature(&atoms, &consts, &consts[..inherited]);
                let mut ancestor = Some(bag_idx);
                while let Some(i) =
                    ancestor.filter(|&i| queue[i].signature.as_ref() != Some(&signature))
                {
                    ancestor = queue[i].parent;
                }
                instance.extend_from(&atoms);
                queue.push(Bag {
                    atoms,
                    level: level + 1,
                    signature: Some(signature),
                    parent: Some(bag_idx),
                    // A path stays blocked once a signature repeats on it.
                    blocked_for: blocked_for
                        .map(|b| b + 1)
                        .or(ancestor.is_some().then_some(0)),
                });
            }
        }
    }
    TypedChaseResult {
        instance,
        max_level,
        saturated,
        bag_count: queue.len(),
    }
}
