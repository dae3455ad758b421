//! The OMQ-side p-Clique reduction (Theorem 5.4 / Appendix D), scoped to
//! the ternary-encoding family of Example 6.3 / D.9.
//!
//! The pipeline mirrors Appendix D.2: start from a database `D₀` over the
//! data schema with `D₀ |= Q`, *diversify* it maximally (replacing tangle
//! constants by fresh isolated ones while `Q` still holds — the paper's
//! ⪯-minimal `D₁`), then apply the Grohe construction to `D₁` with `A` the
//! old non-isolated constants. Evaluating the OMQ on the result decides
//! k-clique. The general proof also attaches guarded unravelings (`D⁺`);
//! for this family the ontology is full and guarded, so entailments are
//! atom-local and no attachment is needed (`D⁺ = D`), which keeps the
//! construction exact.

use crate::diversify::diversify_maximally;
use crate::eval::{check_omq, EvalConfig};
use crate::grohe::{build_grohe_database, identity_grid_mu, GroheDatabase};
use crate::omq::Omq;
use gtgd_chase::parse_tgds;
use gtgd_data::{GroundAtom, Instance, Schema, Value};
use gtgd_query::parse_cq;
use gtgd_treewidth::grid::big_k;
use gtgd_treewidth::Graph;
use std::collections::BTreeSet;

/// The Example 6.3 OMQ family: data schema `{Xp/3, Yp/3}`, ontology
/// projecting the ternary encodings to binary grid edges, and the
/// `k × K` grid as the actual query.
pub fn ternary_grid_omq_family(k: usize) -> Omq {
    let (rows, cols) = (k, big_k(k).max(1));
    let sigma = parse_tgds("Xp(X,Y,Z) -> X2(X,Y). Yp(X,Y,Z) -> Y2(X,Y)").unwrap();
    let mut atoms = Vec::new();
    for i in 1..=rows {
        for j in 1..=cols {
            if j < cols {
                atoms.push(format!("X2(G{i}_{j}, G{i}_{})", j + 1));
            }
            if i < rows {
                atoms.push(format!("Y2(G{i}_{j}, G{}_{j})", i + 1));
            }
        }
    }
    let q = parse_cq(&format!("Q() :- {}", atoms.join(", "))).unwrap();
    Omq::new(
        Schema::from_pairs([("Xp", 3), ("Yp", 3)]),
        sigma,
        gtgd_query::Ucq::single(q),
    )
    .expect("schema-consistent family")
}

/// The tangled start database `D₀` of Example D.9 for the `rows × cols`
/// grid: every third position is the same constant `b`.
pub fn tangled_grid_db(rows: usize, cols: usize) -> Instance {
    let name = |i: usize, j: usize| format!("a{i}_{j}");
    let mut atoms = Vec::new();
    for i in 1..=rows {
        for j in 1..=cols {
            if j < cols {
                atoms.push(GroundAtom::named(
                    "Xp",
                    &[&name(i, j), &name(i, j + 1), "b"],
                ));
            }
            if i < rows {
                atoms.push(GroundAtom::named(
                    "Yp",
                    &[&name(i, j), &name(i + 1, j), "b"],
                ));
            }
        }
    }
    Instance::from_atoms(atoms)
}

/// The reduced OMQ instance and its pieces.
#[derive(Debug, Clone)]
pub struct OmqReducedInstance {
    /// The diversified `D₁`.
    pub d1: Instance,
    /// The Grohe database over `D₁`.
    pub grohe: GroheDatabase,
}

/// Runs the Theorem 5.4-style reduction for the ternary grid family:
/// `(G, k) ↦ D*_G` such that `G` has a `k`-clique iff `D*_G |= Q`.
pub fn clique_to_omq_instance(
    g: &Graph,
    k: usize,
    q: &Omq,
    cfg: &EvalConfig,
) -> OmqReducedInstance {
    let (rows, cols) = (k, big_k(k).max(1));
    let d0 = tangled_grid_db(rows, cols);
    // The grid constants must survive diversification untouched (they are
    // the A-part); everything else may untangle.
    let protect: Vec<Value> = (d0.dom().into_iter())
        .filter(|v| v.is_named() && !matches!(*v, v2 if v2 == Value::named("b")))
        .collect();
    let d1 = diversify_maximally(&d0, &protect, |cand| {
        let (holds, exact) = check_omq(q, cand, &[], cfg);
        holds && exact
    })
    .instance;
    // A: the grid constants, grid-major.
    let mut a_values = Vec::new();
    for i in 1..=rows {
        for j in 1..=cols {
            a_values.push(Value::named(&format!("a{i}_{j}")));
        }
    }
    let a: BTreeSet<Value> = a_values.iter().copied().collect();
    let mu = identity_grid_mu(&a_values);
    let grohe = build_grohe_database(g, k, &d1, &a, &mu);
    OmqReducedInstance { d1, grohe }
}

/// Decides `k`-clique through OMQ evaluation on the reduced database.
pub fn decide_clique_via_omq(g: &Graph, k: usize, cfg: &EvalConfig) -> bool {
    let q = ternary_grid_omq_family(k);
    let reduced = clique_to_omq_instance(g, k, &q, cfg);
    let (holds, exact) = check_omq(&q, &reduced.grohe.instance, &[], cfg);
    assert!(exact, "full guarded ontology evaluates exactly");
    holds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grohe::has_clique;

    fn graph_zoo() -> Vec<Graph> {
        let mut graphs = Vec::new();
        let mut g = Graph::new(4);
        g.make_clique(&[0, 1, 2]);
        g.add_edge(2, 3);
        graphs.push(g);
        let mut g = Graph::new(5);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5);
        }
        graphs.push(g); // C5: no triangle
        let mut g = Graph::new(4);
        g.make_clique(&[0, 1, 2, 3]);
        graphs.push(g); // K4
        graphs
    }

    #[test]
    fn family_is_well_formed() {
        let q = ternary_grid_omq_family(3);
        assert!(!q.has_full_data_schema(), "X2/Y2 are ontology-only");
        assert!(q.sigma_in(gtgd_chase::TgdClass::Guarded));
        assert_eq!(q.arity(), 0);
    }

    #[test]
    fn diversification_untangles_the_encoding() {
        let cfg = EvalConfig::default();
        let q = ternary_grid_omq_family(2);
        let g = graph_zoo().remove(2); // K4
        let reduced = clique_to_omq_instance(&g, 2, &q, &cfg);
        // In D1 the tangle constant b occurs at most once.
        let b = Value::named("b");
        assert!(
            reduced.d1.iter().filter(|a| a.mentions(b)).count() <= 1,
            "b was untangled"
        );
    }

    #[test]
    fn omq_reduction_correct_k2() {
        let cfg = EvalConfig::default();
        for (i, g) in graph_zoo().into_iter().enumerate() {
            assert_eq!(
                decide_clique_via_omq(&g, 2, &cfg),
                has_clique(&g, 2),
                "graph {i}"
            );
        }
        assert!(!decide_clique_via_omq(&Graph::new(3), 2, &cfg));
    }

    #[test]
    fn omq_reduction_correct_k3() {
        let cfg = EvalConfig::default();
        for (i, g) in graph_zoo().into_iter().enumerate() {
            assert_eq!(
                decide_clique_via_omq(&g, 3, &cfg),
                has_clique(&g, 3),
                "graph {i}"
            );
        }
    }
}
