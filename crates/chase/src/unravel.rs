//! Guarded unraveling of a database at a guarded set (Appendix D.1).
//!
//! `Dᵃ̄`, the guarded unraveling of `D` at `ā`, is the (potentially
//! infinite) tree-shaped database whose nodes are sequences `ā₀ ā₁ … āₙ` of
//! guarded sets of `D` with `ā₀ = ā` and consecutive overlaps, each node
//! carrying a fresh copy of `D|āᵢ` that shares constants with its parent
//! exactly on the overlap. We materialize it to a finite depth.

use gtgd_data::{Instance, Value};
use std::collections::{HashMap, HashSet};

/// Materializes the guarded unraveling of `db` at the guarded set `start`
/// down to `depth` levels (level 0 is the root copy of `D|start`).
///
/// Panics if `start` is not guarded in `db`.
pub fn guarded_unraveling(db: &Instance, start: &[Value], depth: usize) -> Instance {
    assert!(db.is_guarded(start), "start set must be guarded in db");
    let guarded_sets: Vec<Vec<Value>> = db.maximal_guarded_sets();
    let mut out = Instance::new();
    // Node: (guarded set of D, mapping from D-constants of the set to copies).
    struct Node {
        set: Vec<Value>,
        copy: HashMap<Value, Value>,
        level: usize,
    }
    let root_copy: HashMap<Value, Value> = start.iter().map(|&v| (v, v)).collect();
    let mut queue = vec![Node {
        set: start.to_vec(),
        copy: root_copy,
        level: 0,
    }];
    let mut qi = 0;
    while qi < queue.len() {
        let node_idx = qi;
        qi += 1;
        // Emit this node's copy of D restricted to its guarded set.
        let keep: HashSet<Value> = queue[node_idx].set.iter().copied().collect();
        let restricted = db.restrict_to(&keep);
        let copy = queue[node_idx].copy.clone();
        out.extend_from(&restricted.map_values(|v| copy[&v]));
        let level = queue[node_idx].level;
        if level >= depth {
            continue;
        }
        // Children: guarded sets overlapping this one.
        for b in &guarded_sets {
            let overlap: Vec<Value> = b
                .iter()
                .copied()
                .filter(|v| queue[node_idx].set.contains(v))
                .collect();
            if overlap.is_empty() {
                continue;
            }
            if b == &queue[node_idx].set {
                // A child equal to its parent adds an isomorphic copy glued
                // on the full set — nothing new up to homomorphic
                // equivalence; skip to keep the materialization lean.
                continue;
            }
            let parent_copy = &queue[node_idx].copy;
            let mut child_copy: HashMap<Value, Value> = HashMap::new();
            for &v in b {
                if overlap.contains(&v) {
                    child_copy.insert(v, parent_copy[&v]);
                } else {
                    child_copy.insert(v, Value::fresh_null());
                }
            }
            queue.push(Node {
                set: b.clone(),
                copy: child_copy,
                level: level + 1,
            });
        }
    }
    out
}

/// The `k`-unraveling `D^k_c̄` of a database up to a tuple (Appendix C.3):
/// a treewidth-`≤ k`-up-to-`c̄` database that maps homomorphically onto `D`
/// fixing `c̄`, materialized to `depth` levels of the bag tree.
///
/// Nodes are sequences of overlapping bags (subsets of `dom(D)` of size
/// `≤ k + 1`); the anchor constants `c̄` are global (shared by every copy),
/// which realizes "treewidth `k` **up to** `c̄`". The full unraveling is
/// infinite; `depth` controls the finite prefix. Property (3) of the paper
/// (`c̄ ∈ Q(D)` implies `c̄ ∈ Q(D^k_c̄)` for `Q ∈ (G, UCQ_k)`) holds for
/// matches within the materialized depth.
pub fn k_unraveling(db: &Instance, anchor: &[Value], k: usize, depth: usize) -> Instance {
    // Bags: every subset of size min(k+1, n) of the non-anchor domain.
    let non_anchor: Vec<Value> = (db.dom().into_iter())
        .filter(|v| !anchor.contains(v))
        .collect();
    let bag_size = (k + 1).min(non_anchor.len());
    let mut bags: Vec<Vec<Value>> = Vec::new();
    fn combos(
        items: &[Value],
        size: usize,
        start: usize,
        current: &mut Vec<Value>,
        out: &mut Vec<Vec<Value>>,
    ) {
        if current.len() == size {
            out.push(current.clone());
            assert!(
                out.len() <= 100_000,
                "k-unraveling bag count exploded; use a smaller database"
            );
            return;
        }
        for i in start..items.len() {
            current.push(items[i]);
            combos(items, size, i + 1, current, out);
            current.pop();
        }
    }
    if bag_size > 0 {
        combos(&non_anchor, bag_size, 0, &mut Vec::new(), &mut bags);
    }
    let mut out = Instance::new();
    struct Node {
        bag: Vec<Value>,
        copy: HashMap<Value, Value>,
        level: usize,
    }
    let mut queue: Vec<Node> = Vec::new();
    for b in &bags {
        let copy: HashMap<Value, Value> = b.iter().map(|&v| (v, Value::fresh_null())).collect();
        queue.push(Node {
            bag: b.clone(),
            copy,
            level: 0,
        });
    }
    let mut qi = 0;
    while qi < queue.len() {
        let idx = qi;
        qi += 1;
        // Emit the atoms over bag ∪ anchor under this node's copy.
        let mut keep: HashSet<Value> = queue[idx].bag.iter().copied().collect();
        keep.extend(anchor.iter().copied());
        let restricted = db.restrict_to(&keep);
        let copy = queue[idx].copy.clone();
        out.extend_from(&restricted.map_values(|v| *copy.get(&v).unwrap_or(&v)));
        let level = queue[idx].level;
        if level >= depth {
            continue;
        }
        for b in &bags {
            let overlap: Vec<Value> = b
                .iter()
                .copied()
                .filter(|v| queue[idx].bag.contains(v))
                .collect();
            if overlap.is_empty() || b == &queue[idx].bag {
                continue;
            }
            let parent_copy = &queue[idx].copy;
            let child_copy: HashMap<Value, Value> = b
                .iter()
                .map(|&v| {
                    if overlap.contains(&v) {
                        (v, parent_copy[&v])
                    } else {
                        (v, Value::fresh_null())
                    }
                })
                .collect();
            queue.push(Node {
                bag: b.clone(),
                copy: child_copy,
                level: level + 1,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtgd_data::{GroundAtom, Valuation};
    use gtgd_query::{holds_boolean, instance_homomorphism_fixing, parse_cq};

    fn v(s: &str) -> Value {
        Value::named(s)
    }

    fn triangle_db() -> Instance {
        Instance::from_atoms([
            GroundAtom::named("E", &["a", "b"]),
            GroundAtom::named("E", &["b", "c"]),
            GroundAtom::named("E", &["c", "a"]),
        ])
    }

    #[test]
    fn unraveling_is_acyclic() {
        let d = triangle_db();
        let u = guarded_unraveling(&d, &[v("a"), v("b")], 4);
        // The unraveled triangle loses its cycle: no triangle CQ match.
        let tri = parse_cq("Q() :- E(X,Y), E(Y,Z), E(Z,X)").unwrap();
        assert!(holds_boolean(&tri, &d));
        assert!(!holds_boolean(&tri, &u));
        // But paths of any materialized length survive.
        let path = parse_cq("Q() :- E(X,Y), E(Y,Z), E(Z,W)").unwrap();
        assert!(holds_boolean(&path, &u));
    }

    #[test]
    fn unraveling_maps_home_identically_on_root() {
        let d = triangle_db();
        let root = [v("a"), v("b")];
        let u = guarded_unraveling(&d, &root, 3);
        let fixed: Valuation = root.iter().map(|&x| (x, x)).collect();
        let h = instance_homomorphism_fixing(&u, &d, &fixed)
            .expect("unraveling maps homomorphically back to D, fixing the root");
        assert_eq!(h[&v("a")], v("a"));
    }

    #[test]
    fn depth_zero_is_root_restriction() {
        let d = triangle_db();
        let u = guarded_unraveling(&d, &[v("a"), v("b")], 0);
        assert_eq!(u.len(), 1);
        assert!(u.contains(&GroundAtom::named("E", &["a", "b"])));
    }

    #[test]
    fn growth_with_depth() {
        let d = triangle_db();
        let u2 = guarded_unraveling(&d, &[v("a"), v("b")], 2);
        let u4 = guarded_unraveling(&d, &[v("a"), v("b")], 4);
        assert!(u4.len() > u2.len());
    }

    #[test]
    #[should_panic(expected = "guarded")]
    fn unguarded_start_rejected() {
        let d = triangle_db();
        guarded_unraveling(&d, &[v("a"), v("z")], 1);
    }

    #[test]
    fn k_unraveling_breaks_cycles() {
        let d = triangle_db();
        let u = k_unraveling(&d, &[], 1, 4);
        let tri = parse_cq("Q() :- E(X,Y), E(Y,Z), E(Z,X)").unwrap();
        assert!(!holds_boolean(&tri, &u), "tw-1 unraveling has no triangle");
        let path = parse_cq("Q() :- E(X,Y), E(Y,Z)").unwrap();
        assert!(holds_boolean(&path, &u), "paths survive");
    }

    #[test]
    fn k_unraveling_maps_home() {
        let d = triangle_db();
        let u = k_unraveling(&d, &[], 1, 3);
        assert!(
            gtgd_query::instance_homomorphism(&u, &d).is_some(),
            "unraveling maps homomorphically onto D"
        );
    }

    #[test]
    fn anchored_unraveling_keeps_anchor_constants() {
        let d = triangle_db();
        let u = k_unraveling(&d, &[v("a")], 1, 3);
        assert!(u.dom_contains(v("a")), "anchor constants are global");
        // And the anchor-fixing homomorphism home exists.
        let fixed: Valuation = [(v("a"), v("a"))].into_iter().collect();
        assert!(instance_homomorphism_fixing(&u, &d, &fixed).is_some());
    }

    #[test]
    fn k2_unraveling_preserves_triangle() {
        // With k = 2 the whole triangle fits in one bag: the triangle match
        // survives unraveling, as Lemma C.7(2) requires.
        let d = triangle_db();
        let u = k_unraveling(&d, &[], 2, 2);
        let tri = parse_cq("Q() :- E(X,Y), E(Y,Z), E(Z,X)").unwrap();
        assert!(holds_boolean(&tri, &u));
    }
}
