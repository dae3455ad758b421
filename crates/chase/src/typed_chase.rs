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
//! its ancestor path. A signature is the closed type canonicalized with
//! named constants rigid and inherited nulls marked (but anonymized), so two
//! bags with equal signatures root isomorphic subtrees; matches of queries
//! with at most `extra_levels` variables can then be relocated above the
//! blocking frontier. See DESIGN.md §3 for the substitution argument.
//!
//! Trigger firing is globally deduplicated by `(TGD, body image)`, matching
//! the oblivious chase: the same trigger reachable from two bags fires once.

use crate::tgd::Tgd;
use crate::types::{canonicalize_rigid, guarded_bags, restriction, CanonType, Saturator};
use gtgd_data::{Instance, Value};
use gtgd_query::{HomSearch, Var};
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

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
    consts: Vec<Value>,
    atoms: Instance,
    level: usize,
    /// Blocking signatures along the ancestor path.
    ancestry: Vec<CanonType>,
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
    let mut queue: Vec<Bag> = Vec::new();
    // Root bags: one per guarded set of the saturated ground part.
    for (consts, ids) in guarded_bags(&ground) {
        queue.push(Bag {
            atoms: restriction(&ground, &ids),
            consts,
            level: 0,
            ancestry: Vec::new(),
            blocked_for: None,
        });
    }
    let (hard_cap, extra) = match policy {
        DepthPolicy::Fixed(l) => (l, None),
        DepthPolicy::Adaptive {
            extra_levels,
            max_level,
        } => (max_level, Some(extra_levels)),
    };
    let mut max_level = 0usize;
    let mut saturated = true;
    let mut bag_count = queue.len();
    // Oblivious-chase trigger dedup: (tgd index, body-variable images).
    let mut fired: HashSet<(usize, Vec<Value>)> = HashSet::new();
    let mut qi = 0;
    while qi < queue.len() {
        let bag_idx = qi;
        qi += 1;
        let level = queue[bag_idx].level;
        max_level = max_level.max(level);
        if level >= hard_cap {
            saturated = false;
            continue;
        }
        if let (Some(extra), Some(b)) = (extra, queue[bag_idx].blocked_for) {
            if b >= extra {
                continue; // blocked long enough; subtree repeats above
            }
        }
        // Expand: every existential trigger creates a closed child bag.
        let mut children: Vec<(Bag, Vec<Value>)> = Vec::new();
        {
            let bag = &queue[bag_idx];
            for (ti, tgd) in tgds.iter().enumerate() {
                let exist = tgd.existential_vars();
                if exist.is_empty() {
                    continue; // full consequences are already in the closure
                }
                let frontier = tgd.frontier();
                let body_vars = tgd.body_vars();
                let homs: Vec<HashMap<Var, Value>> = {
                    let mut out = Vec::new();
                    HomSearch::new(&tgd.body, &bag.atoms).for_each(|h| {
                        out.push(h.clone());
                        ControlFlow::Continue(())
                    });
                    out
                };
                for h in homs {
                    let trigger: Vec<Value> = body_vars.iter().map(|v| h[v]).collect();
                    if !fired.insert((ti, trigger)) {
                        continue;
                    }
                    let mut assignment = h.clone();
                    let mut inherited: Vec<Value> = Vec::new();
                    for &v in &frontier {
                        let img = assignment[&v];
                        if !inherited.contains(&img) {
                            inherited.push(img);
                        }
                    }
                    let mut child_consts = inherited.clone();
                    for &z in &exist {
                        let n = Value::fresh_null();
                        assignment.insert(z, n);
                        child_consts.push(n);
                    }
                    let mut child = Instance::new();
                    for head in &tgd.head {
                        child.insert(head.ground(&assignment));
                    }
                    let keep: HashSet<Value> = child_consts.iter().copied().collect();
                    child.extend_from(&bag.atoms.restrict_to(&keep));
                    children.push((
                        Bag {
                            consts: child_consts,
                            atoms: child,
                            level: level + 1,
                            ancestry: Vec::new(), // filled below
                            blocked_for: None,
                        },
                        inherited,
                    ));
                }
            }
        }
        for (mut child, inherited) in children {
            // Close the child and compute its blocking signature.
            let closed = sat.close_bag(&child.atoms, &child.consts);
            child.atoms = closed;
            let signature = blocking_signature(&child.atoms, &child.consts, &inherited);
            let mut ancestry = queue[bag_idx].ancestry.clone();
            let blocked_now = ancestry.contains(&signature);
            child.blocked_for = match (queue[bag_idx].blocked_for, blocked_now) {
                (Some(b), _) => Some(b + 1),
                (None, true) => Some(0),
                (None, false) => None,
            };
            ancestry.push(signature);
            child.ancestry = ancestry;
            instance.extend_from(&child.atoms);
            bag_count += 1;
            queue.push(child);
        }
    }
    TypedChaseResult {
        instance,
        max_level,
        saturated,
        bag_count,
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
