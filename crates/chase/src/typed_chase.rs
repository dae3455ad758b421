//! The *typed chase*: a level-bounded materialization of `chase(D, Σ)` for
//! guarded Σ in which every bag carries its complete closed type, mirroring
//! the `(D*, Σ*)` linearization of Lemma A.3.
//!
//! Plain level-bounded chasing is not enough for query evaluation: an atom
//! over shallow constants may only be derivable via a deep detour, so a
//! prefix can miss query matches. Here every materialized bag is *closed*
//! (contains every atom over its constants entailed below it, via the
//! memoized [`Saturator`]), so evaluating a UCQ over the materialized
//! instance is complete for matches confined to the materialized levels.
//!
//! Depth control ([`DepthPolicy`]): either a fixed level bound (the paper's
//! computable bound `g(‖Σ‖+‖q‖)` exists but is exponential; callers may pass
//! any bound), or *adaptive* blocking: expansion below a bag stops
//! `extra_levels` levels after the bag's blocking signature repeats along
//! its ancestor path, a chain of parent indices. A signature is the closed
//! type canonicalized with named constants rigid and inherited nulls
//! marked (but anonymized), so two bags with equal signatures root
//! isomorphic subtrees; matches of queries with at most `extra_levels`
//! variables can then be relocated above the blocking frontier. See
//! DESIGN.md §3 for the substitution argument.
//!
//! Expansion fires each existential trigger of a bag through its TGD's
//! compiled `TriggerPlan` and builds the child bag with the same step the
//! saturator uses (`types::child_bag`). Trigger firing is globally
//! deduplicated by `(TGD, trigger key)`, matching the oblivious chase: the
//! same trigger reachable from two bags fires once.

use crate::plan::TriggerPlan;
use crate::tgd::Tgd;
use crate::types::{
    canonicalize_rigid, child_bag, guarded_bags, restriction, CanonType, Saturator,
};
use gtgd_data::{Instance, Value};
use std::collections::HashSet;

/// How deep to materialize the typed chase.
#[derive(Debug, Clone, Copy)]
pub enum DepthPolicy {
    /// Materialize exactly the bags up to this level.
    Fixed(usize),
    /// Expand until each path blocks (signature repeats), then `extra_levels`
    /// more; `max_level` is a hard safety stop.
    Adaptive {
        /// Extra levels to expand below a blocking point (choose ≥ the
        /// number of variables of the queries to be evaluated).
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
    /// (adaptive mode) or the chase reached a fixpoint — i.e. deep enough
    /// for the configured policy; `false` when the hard level cap hit first.
    pub saturated: bool,
    /// Number of bags materialized.
    pub bag_count: usize,
}

struct Bag {
    atoms: Instance,
    level: usize,
    /// The bag's blocking signature; `None` for a root bag.
    signature: Option<CanonType>,
    /// The parent's index in the queue; `None` for a root bag. Blocking
    /// walks this chain to compare signatures along the ancestor path.
    parent: Option<usize>,
    /// Levels since this path first blocked, if blocked.
    blocked_for: Option<usize>,
}

/// The blocking signature of a bag: its closed atoms plus `__inherited`
/// marker atoms on the constants shared with the parent, canonicalized with
/// named constants rigid and nulls anonymized. Equal signatures mean the
/// bags root isomorphic chase subtrees (named constants fixed pointwise).
fn blocking_signature(atoms: &Instance, consts: &[Value], inherited: &[Value]) -> CanonType {
    let marker = gtgd_data::Predicate::new("__inherited");
    let mut sig = atoms.clone();
    for &v in inherited {
        sig.insert(gtgd_data::GroundAtom::new(marker, vec![v]));
    }
    let rigid: Vec<Value> = consts.iter().copied().filter(|v| v.is_named()).collect();
    let flexible: Vec<Value> = consts.iter().copied().filter(|v| v.is_null()).collect();
    let (key, _) = canonicalize_rigid(&sig, &rigid, &flexible);
    key
}

/// Materializes the typed chase of `db` under guarded `tgds`.
pub fn typed_chase(db: &Instance, tgds: &[Tgd], policy: DepthPolicy) -> TypedChaseResult {
    let mut sat = Saturator::new(tgds);
    typed_chase_with(db, tgds, policy, &mut sat)
}

/// [`typed_chase`] reusing a caller-owned [`Saturator`] (so repeated calls —
/// e.g. one per candidate answer tuple — share the type memo).
pub fn typed_chase_with(
    db: &Instance,
    tgds: &[Tgd],
    policy: DepthPolicy,
    sat: &mut Saturator<'_>,
) -> TypedChaseResult {
    let ground = sat.ground_saturation(db);
    let mut instance = ground.clone();
    // Root bags: one per guarded set of the saturated ground part.
    let mut queue: Vec<Bag> = guarded_bags(&ground)
        .into_iter()
        .map(|(_, ids)| Bag {
            atoms: restriction(&ground, &ids),
            level: 0,
            signature: None,
            parent: None,
            blocked_for: None,
        })
        .collect();
    let (hard_cap, extra) = match policy {
        DepthPolicy::Fixed(l) => (l, None),
        DepthPolicy::Adaptive {
            extra_levels,
            max_level,
        } => (max_level, Some(extra_levels)),
    };
    let plans = TriggerPlan::compile_all(tgds);
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
        for plan in &plans {
            if plan.n_exist == 0 {
                continue; // full consequences are already in the closure
            }
            let rows = plan.body.search(&queue[bag_idx].atoms).table();
            for row in rows.rows() {
                if !fired.insert((plan.index, plan.trigger_key(row))) {
                    continue;
                }
                let (consts, atoms) = child_bag(plan, row, &queue[bag_idx].atoms);
                let atoms = sat.close_bag(&atoms, &consts);
                let inherited = &consts[..consts.len() - plan.n_exist];
                let signature = blocking_signature(&atoms, &consts, inherited);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{chase, ChaseBudget};
    use crate::tgd::parse_tgds;
    use gtgd_data::GroundAtom;
    use gtgd_query::{holds_boolean, parse_cq};

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    #[test]
    fn matches_plain_chase_on_terminating_sets() {
        let tgds = parse_tgds("A(X) -> R(X,Y). R(X,Y) -> B(Y)").unwrap();
        let d = db(&[("A", &["a"])]);
        let t = typed_chase(&d, &tgds, DepthPolicy::Fixed(5));
        let q = parse_cq("Q() :- A(X), R(X,Y), B(Y)").unwrap();
        assert!(holds_boolean(&q, &t.instance));
        let reference = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert!(holds_boolean(&q, &reference.instance));
    }

    #[test]
    fn infinite_chase_blocks_adaptively() {
        let tgds = parse_tgds("Person(X) -> Parent(X,Y), Person(Y)").unwrap();
        let d = db(&[("Person", &["eve"])]);
        let t = typed_chase(
            &d,
            &tgds,
            DepthPolicy::Adaptive {
                extra_levels: 3,
                max_level: 50,
            },
        );
        assert!(t.saturated, "blocking should stop expansion well before 50");
        assert!(t.max_level < 10, "max level {}", t.max_level);
        // Query matches that fit in the materialized depth are found.
        let q = parse_cq("Q() :- Parent(X,Y), Parent(Y,Z), Parent(Z,W)").unwrap();
        assert!(holds_boolean(&q, &t.instance));
    }

    #[test]
    fn fixed_cap_reports_unsaturated() {
        let tgds = parse_tgds("Person(X) -> Parent(X,Y), Person(Y)").unwrap();
        let d = db(&[("Person", &["eve"])]);
        let t = typed_chase(&d, &tgds, DepthPolicy::Fixed(2));
        assert!(!t.saturated);
        assert_eq!(t.max_level, 2);
    }

    #[test]
    fn deep_detour_atoms_present_at_low_levels() {
        // T(b) needs a child bag round trip; the typed chase has it in the
        // ground part immediately, unlike a level-1 plain chase prefix.
        let tgds = parse_tgds("R(X,Y) -> S(Y,Z). S(Y,Z) -> T(Y)").unwrap();
        let d = db(&[("R", &["a", "b"])]);
        let t = typed_chase(&d, &tgds, DepthPolicy::Fixed(0));
        assert!(t.instance.contains(&GroundAtom::named("T", &["b"])));
    }

    #[test]
    fn queries_over_infinite_chase_guarded_ontology() {
        // Every department's manager works in some department, recursively.
        let tgds =
            parse_tgds("Dept(D) -> HasMgr(D,M), Emp(M). Emp(M) -> WorksIn(M,D), Dept(D)").unwrap();
        let d = db(&[("Dept", &["sales"])]);
        let t = typed_chase(
            &d,
            &tgds,
            DepthPolicy::Adaptive {
                extra_levels: 4,
                max_level: 30,
            },
        );
        assert!(t.saturated);
        let q = parse_cq("Q() :- HasMgr(D1,M1), WorksIn(M1,D2), HasMgr(D2,M2), WorksIn(M2,D3)")
            .unwrap();
        assert!(holds_boolean(&q, &t.instance));
    }

    #[test]
    fn bag_count_grows_with_database() {
        let tgds = parse_tgds("A(X) -> R(X,Y)").unwrap();
        let small = typed_chase(&db(&[("A", &["a"])]), &tgds, DepthPolicy::Fixed(3));
        let large = typed_chase(
            &db(&[("A", &["a"]), ("A", &["b"]), ("A", &["c"])]),
            &tgds,
            DepthPolicy::Fixed(3),
        );
        assert!(large.bag_count > small.bag_count);
    }
}
