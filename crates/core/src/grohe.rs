//! The Grohe database `D* = D*(G, D, D′, A, µ)` (Theorem 7.1 / Appendix
//! H.1): the engine of every W\[1\]-hardness proof in the paper.
//!
//! Given a graph `G`, a clique size `k`, databases `D ⊆ D′`, a set
//! `A ⊆ dom(D)` whose restricted Gaifman graph contains the `k × K`-grid as
//! a minor (`K = C(k,2)`), and the minor map `µ`, the construction replaces
//! each `A`-constant `z` of each `D′`-fact by tuples
//! `(v, e, i, p, z)` — one per *labelled clique* `η` of `G` covering the
//! fact — so that homomorphisms `D → D*` with `h0 ∘ h` the identity on `A`
//! exist iff `G` has a `k`-clique.

use gtgd_data::{GroundAtom, Instance, Valuation, Value};
use gtgd_treewidth::grid::PairBijection;
use gtgd_treewidth::Graph;
use std::collections::{BTreeSet, HashMap};

/// The output of the construction.
#[derive(Debug, Clone)]
pub struct GroheDatabase {
    /// The database `D*`.
    pub instance: Instance,
    /// The surjective homomorphism `h0 : D* → D′` (identity on
    /// `dom(D′) \ A`, last-component projection on the grid elements).
    pub h0: Valuation,
}

/// All labelled cliques `η : I → V(G)`: assignments of the index set `I`
/// (⊆ `[k]`) to vertices of `G` with pairwise-adjacent (hence distinct)
/// images.
pub fn labelled_cliques(g: &Graph, indices: &[usize]) -> Vec<HashMap<usize, usize>> {
    let mut out = Vec::new();
    let mut current: HashMap<usize, usize> = HashMap::new();
    fn rec(
        g: &Graph,
        indices: &[usize],
        pos: usize,
        current: &mut HashMap<usize, usize>,
        out: &mut Vec<HashMap<usize, usize>>,
    ) {
        if pos == indices.len() {
            out.push(current.clone());
            return;
        }
        let idx = indices[pos];
        for v in 0..g.vertex_count() {
            if current.values().all(|&u| g.has_edge(u, v)) {
                current.insert(idx, v);
                rec(g, indices, pos + 1, current, out);
                current.remove(&idx);
            }
        }
    }
    rec(g, indices, 0, &mut current, &mut out);
    out
}

/// Builds `D*(G, D′, A, µ)` for clique size `k`.
///
/// `mu[(i-1)*K + (p-1)]` is the branch set `µ(i, p) ⊆ A` of grid vertex
/// `(i, p)`; the branch sets must partition `A` (the minor map is onto
/// `G^D|A`). The `D`-part of Theorem 7.1 matters only for the
/// *correctness statement* (homomorphisms from `D`), not for the
/// construction, which reads `D′`.
pub fn build_grohe_database(
    g: &Graph,
    k: usize,
    d_prime: &Instance,
    a: &BTreeSet<Value>,
    mu: &[BTreeSet<Value>],
) -> GroheDatabase {
    let chi = PairBijection::new(k);
    let big_k = chi.len();
    assert_eq!(mu.len(), k * big_k, "µ must cover the k × K grid");
    // grid_vertex_of[z] = (i, p), 1-based.
    let mut grid_vertex_of: HashMap<Value, (usize, usize)> = HashMap::new();
    for i in 1..=k {
        for p in 1..=big_k {
            for &z in &mu[(i - 1) * big_k + (p - 1)] {
                assert!(a.contains(&z), "branch sets must lie inside A");
                let prev = grid_vertex_of.insert(z, (i, p));
                assert!(prev.is_none(), "branch sets must be disjoint");
            }
        }
    }
    for &z in a {
        assert!(
            grid_vertex_of.contains_key(&z),
            "µ must be onto: {z} is uncovered"
        );
    }
    // (v, e, i, p, z) — the paper's grid-element tuples.
    type GridElem = (usize, (usize, usize), usize, usize, Value);
    let mut elements: HashMap<GridElem, Value> = HashMap::new();
    let mut h0 = Valuation::new();
    let mut instance = Instance::new();
    for fact in d_prime.iter() {
        // Indices any covering labelled clique must assign.
        let mut needed: BTreeSet<usize> = BTreeSet::new();
        for &z in &fact.args {
            if let Some(&(i, p)) = grid_vertex_of.get(&z) {
                let (j, l) = chi.pair_of(p);
                needed.extend([i, j, l]);
            }
        }
        let indices: Vec<usize> = needed.into_iter().collect();
        for eta in labelled_cliques(g, &indices) {
            let args: Vec<Value> = fact
                .args
                .iter()
                .map(|&z| match grid_vertex_of.get(&z) {
                    None => z,
                    Some(&(i, p)) => {
                        let (j, l) = chi.pair_of(p);
                        let v = eta[&i];
                        let (e0, e1) = {
                            let (u, w) = (eta[&j], eta[&l]);
                            (u.min(w), u.max(w))
                        };
                        *elements.entry((v, (e0, e1), i, p, z)).or_insert_with(|| {
                            Value::named(&format!("γ⟨{v},{e0}-{e1},{i},{p},{z}⟩"))
                        })
                    }
                })
                .collect();
            instance.insert(GroundAtom::new(fact.predicate, args));
        }
    }
    for ((_, _, _, _, z), &val) in &elements {
        h0.insert(val, *z);
    }
    for z in d_prime.dom() {
        if !a.contains(&z) {
            h0.insert(z, z);
        }
    }
    GroheDatabase { instance, h0 }
}

/// Pads a graph for the clique-extension precondition of Theorem 7.1(3):
/// joins a `c`-clique adjacent to every original vertex, so every clique
/// extends by `c` vertices, and `G` has a `k`-clique iff the result has a
/// `(k + c)`-clique. Returns the padded graph and the new clique target.
pub fn pad_for_clique_extension(g: &Graph, k: usize, c: usize) -> (Graph, usize) {
    let mut padded = g.clone();
    let start = padded.vertex_count();
    for _ in 0..c {
        padded.add_vertex();
    }
    for u in start..start + c {
        for v in 0..u {
            padded.add_edge(u, v);
        }
    }
    (padded, k + c)
}

/// Brute-force `k`-clique test (the ground truth for reduction tests).
pub fn has_clique(g: &Graph, k: usize) -> bool {
    let mut current: Vec<usize> = Vec::new();
    fn rec(g: &Graph, k: usize, from: usize, current: &mut Vec<usize>) -> bool {
        if current.len() == k {
            return true;
        }
        for v in from..g.vertex_count() {
            if current.iter().all(|&u| g.has_edge(u, v)) {
                current.push(v);
                if rec(g, k, v + 1, current) {
                    return true;
                }
                current.pop();
            }
        }
        false
    }
    k == 0 || rec(g, k, 0, &mut current)
}

/// Builds the identity minor map inputs for a database whose `A`-part
/// Gaifman graph **is** the `k × K` grid: `values[(i-1)*K + (p-1)]` is the
/// constant at grid position `(i, p)`; each becomes a singleton branch set.
pub fn identity_grid_mu(values: &[Value]) -> Vec<BTreeSet<Value>> {
    values.iter().map(|&v| BTreeSet::from([v])).collect()
}

/// Validates `h0` as a homomorphism from `D*` to `D′` (Theorem 7.1(1)).
pub fn validate_h0(db: &GroheDatabase, d_prime: &Instance) -> bool {
    gtgd_data::is_homomorphism(&db.h0, &db.instance, d_prime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtgd_treewidth::grid::big_k;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        g
    }

    fn complete_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        g.make_clique(&(0..n).collect::<Vec<_>>());
        g
    }

    #[test]
    fn labelled_cliques_enumeration() {
        let tri = complete_graph(3);
        // η over two indices on a triangle: ordered pairs of distinct
        // adjacent vertices: 3 * 2 = 6.
        assert_eq!(labelled_cliques(&tri, &[1, 2]).len(), 6);
        // Over an empty index set: exactly the empty assignment.
        assert_eq!(labelled_cliques(&tri, &[]).len(), 1);
        // A path has no triangle: no 3-index cliques.
        assert_eq!(labelled_cliques(&path_graph(4), &[1, 2, 3]).len(), 0);
    }

    #[test]
    fn has_clique_ground_truth() {
        assert!(has_clique(&complete_graph(4), 4));
        assert!(!has_clique(&complete_graph(4), 5));
        assert!(has_clique(&path_graph(5), 2));
        assert!(!has_clique(&path_graph(5), 3));
    }

    #[test]
    fn padding_preserves_clique_question() {
        let g = path_graph(4); // max clique 2
        let (padded, kp) = pad_for_clique_extension(&g, 3, 5);
        assert_eq!(kp, 8);
        // G has no 3-clique, so padded has no 8-clique...
        assert!(!has_clique(&padded, 8));
        // ...but a graph with a 3-clique does.
        let (padded2, kp2) = pad_for_clique_extension(&complete_graph(3), 3, 5);
        assert!(has_clique(&padded2, kp2));
    }

    /// A tiny end-to-end sanity check of the construction for k = 2:
    /// D = D′ = a path of K = 1 × k = 2 grid shape (a single edge),
    /// A = both endpoints. G has a 2-clique iff G has an edge.
    #[test]
    fn k2_reduction_single_edge() {
        let k = 2;
        assert_eq!(big_k(k), 1);
        let z1 = Value::named("z1");
        let z2 = Value::named("z2");
        // The 2×1 grid over A = {z1, z2}: one vertical edge.
        let d = Instance::from_atoms([GroundAtom::new(
            gtgd_data::Predicate::new("E"),
            vec![z1, z2],
        )]);
        let a: BTreeSet<Value> = [z1, z2].into_iter().collect();
        let mu = identity_grid_mu(&[z1, z2]);
        // Graph with an edge: D* nonempty and h0 valid.
        let g = path_graph(2);
        let out = build_grohe_database(&g, k, &d, &a, &mu);
        assert!(!out.instance.is_empty());
        assert!(validate_h0(&out, &d));
        // Graph with no edge: no labelled clique covers the fact.
        let g0 = Graph::new(3);
        let out0 = build_grohe_database(&g0, k, &d, &a, &mu);
        assert!(out0.instance.is_empty());
    }

    #[test]
    #[should_panic(expected = "onto")]
    fn non_onto_mu_rejected() {
        let z1 = Value::named("w1");
        let z2 = Value::named("w2");
        let d = Instance::from_atoms([GroundAtom::new(
            gtgd_data::Predicate::new("E"),
            vec![z1, z2],
        )]);
        let a: BTreeSet<Value> = [z1, z2].into_iter().collect();
        // µ covers only z1.
        let mut mu = identity_grid_mu(&[z1, z1]);
        mu[1] = BTreeSet::new();
        let _ = build_grohe_database(&path_graph(2), 2, &d, &a, &mu);
    }
}
