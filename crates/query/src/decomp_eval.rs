//! Bounded-treewidth CQ evaluation (Proposition 2.1 / \[18\]):
//! given `q ∈ CQ_k`, a database `D`, and a candidate answer `c̄`, decide
//! `c̄ ∈ q(D)` in time `O(‖D‖^{k+1} · ‖q‖)` by dynamic programming over a
//! tree decomposition of the existential Gaifman graph.
//!
//! This is the engine behind the tractable sides of the paper's
//! characterizations (Prop 3.3(3) uses it after reducing OMQ evaluation to
//! plain evaluation over a chase prefix; CQS evaluation in `(FG, UCQ_k)`
//! uses it directly).

use crate::compile::CompiledQuery;
use crate::cq::{Cq, QAtom, Term, Ucq, Var};
use crate::tw::existential_gaifman;
use gtgd_data::{Instance, Value};
use gtgd_treewidth::{treewidth_upper_bound, Heuristic, TreeDecomposition};
use std::collections::{HashMap, HashSet};

/// A relation over a fixed variable schema; the DP's intermediate result.
#[derive(Debug, Clone)]
struct Relation {
    vars: Vec<Var>,
    tuples: HashSet<Vec<Value>>,
}

impl Relation {
    /// The neutral relation: empty schema, one (empty) tuple.
    fn unit() -> Relation {
        Relation {
            vars: Vec::new(),
            tuples: HashSet::from([Vec::new()]),
        }
    }

    fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Natural join.
    fn join(&self, other: &Relation) -> Relation {
        let common: Vec<Var> = self
            .vars
            .iter()
            .copied()
            .filter(|v| other.vars.contains(v))
            .collect();
        let extra: Vec<Var> = other
            .vars
            .iter()
            .copied()
            .filter(|v| !self.vars.contains(v))
            .collect();
        let out_vars: Vec<Var> = self
            .vars
            .iter()
            .copied()
            .chain(extra.iter().copied())
            .collect();
        // Index `other` by its common-column values.
        let key_positions_other: Vec<usize> = common
            .iter()
            .map(|v| other.vars.iter().position(|u| u == v).expect("common var"))
            .collect();
        let extra_positions: Vec<usize> = extra
            .iter()
            .map(|v| other.vars.iter().position(|u| u == v).expect("extra var"))
            .collect();
        let mut index: HashMap<Vec<Value>, Vec<&Vec<Value>>> = HashMap::new();
        for t in &other.tuples {
            let key: Vec<Value> = key_positions_other.iter().map(|&p| t[p]).collect();
            index.entry(key).or_default().push(t);
        }
        let key_positions_self: Vec<usize> = common
            .iter()
            .map(|v| self.vars.iter().position(|u| u == v).expect("common var"))
            .collect();
        let mut tuples = HashSet::new();
        for t in &self.tuples {
            let key: Vec<Value> = key_positions_self.iter().map(|&p| t[p]).collect();
            if let Some(matches) = index.get(&key) {
                for m in matches {
                    let mut row = t.clone();
                    row.extend(extra_positions.iter().map(|&p| m[p]));
                    tuples.insert(row);
                }
            }
        }
        Relation {
            vars: out_vars,
            tuples,
        }
    }

    /// Projection onto `keep ∩ self.vars`.
    fn project(&self, keep: &HashSet<Var>) -> Relation {
        let positions: Vec<usize> = (0..self.vars.len())
            .filter(|&i| keep.contains(&self.vars[i]))
            .collect();
        Relation {
            vars: positions.iter().map(|&i| self.vars[i]).collect(),
            tuples: self
                .tuples
                .iter()
                .map(|t| positions.iter().map(|&i| t[i]).collect())
                .collect(),
        }
    }
}

/// The match relation of one bag's atoms over `i`: the whole bag is
/// compiled as a *single* multiway join instead of a fold of binary joins,
/// so a cyclic bag (exactly what a width-`k` bag of a cyclic query holds)
/// is routed through the kernel's worst-case-optimal path by the planner
/// gate. Columns follow the compiled slot order (first-occurrence variable
/// order across the bag's atoms); repeated variables and constants are
/// enforced by the kernel.
fn bag_relation(atoms: &[&QAtom], i: &Instance) -> Relation {
    gtgd_data::obs::count(gtgd_data::obs::Metric::DecompBagChecks, 1);
    let owned: Vec<QAtom> = atoms.iter().map(|&a| a.clone()).collect();
    let plan = CompiledQuery::compile(&owned);
    let vars = plan.vars().to_vec();
    let mut tuples = HashSet::new();
    plan.search(i).for_each_row(|row| {
        tuples.insert(row.to_vec());
        std::ops::ControlFlow::Continue(())
    });
    Relation { vars, tuples }
}

/// Decides `c̄ ∈ q(D)` via tree-decomposition DP. A decomposition of the
/// existential Gaifman graph is computed with the min-fill heuristic (exact
/// on the tree-like queries this routine is meant for; a wider heuristic
/// decomposition affects only running time, never correctness).
pub fn check_answer_decomposed(q: &Cq, i: &Instance, answer: &[Value]) -> bool {
    assert_eq!(answer.len(), q.arity(), "candidate answer has wrong arity");
    let (g, vars) = existential_gaifman(q);
    let (_, order) = treewidth_upper_bound(&g, Heuristic::MinFill);
    let td = gtgd_treewidth::elimination::decomposition_from_order(&g, &order);
    check_answer_with_decomposition(q, i, answer, &td, &vars)
}

/// Like [`check_answer_decomposed`], but with a caller-supplied tree
/// decomposition of the existential Gaifman graph (`var_ids[vertex]` is the
/// query variable of each decomposition vertex). Used by benchmarks to pin
/// the width.
pub fn check_answer_with_decomposition(
    q: &Cq,
    i: &Instance,
    answer: &[Value],
    td: &TreeDecomposition,
    var_ids: &[Var],
) -> bool {
    // Substitute the candidate answer for the answer variables.
    let binding: HashMap<Var, Value> = q
        .answer_vars
        .iter()
        .copied()
        .zip(answer.iter().copied())
        .collect();
    let atoms: Vec<QAtom> = q
        .atoms
        .iter()
        .map(|a| QAtom {
            predicate: a.predicate,
            args: a
                .args
                .iter()
                .map(|t| match *t {
                    Term::Var(v) => match binding.get(&v) {
                        Some(&c) => Term::Const(c),
                        None => Term::Var(v),
                    },
                    c => c,
                })
                .collect(),
        })
        .collect();
    // Ground atoms (no variables left) are checked directly.
    let mut var_atoms: Vec<&QAtom> = Vec::new();
    for a in &atoms {
        if a.vars().is_empty() {
            let ground = a.ground(&HashMap::new());
            if !i.contains(&ground) {
                return false;
            }
        } else {
            var_atoms.push(a);
        }
    }
    if var_atoms.is_empty() {
        return true;
    }
    if td.bag_count() == 0 {
        // No existential variables but atoms with variables: impossible if
        // the decomposition really covers the existential graph.
        panic!("decomposition does not cover the query's existential variables");
    }
    // Assign each atom to a bag containing all its variables (exists: an
    // atom's variables form a clique in the existential Gaifman graph).
    let vertex_of: HashMap<Var, usize> = var_ids.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut bag_atoms: Vec<Vec<&QAtom>> = vec![Vec::new(); td.bag_count()];
    for a in var_atoms {
        let vs: Vec<usize> = a.vars().iter().map(|v| vertex_of[v]).collect();
        let bag = td
            .bag_containing(&vs)
            .expect("atom variables form a clique; some bag contains them");
        bag_atoms[bag].push(a);
    }
    // Build the bag tree (rooted at 0) and run Yannakakis bottom-up.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); td.bag_count()];
    let mut parent: Vec<Option<usize>> = vec![None; td.bag_count()];
    {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); td.bag_count()];
        for &(a, b) in td.tree_edges() {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut stack = vec![0usize];
        let mut seen = vec![false; td.bag_count()];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for &w in &adj[u] {
                if !seen[w] {
                    seen[w] = true;
                    parent[w] = Some(u);
                    children[u].push(w);
                    stack.push(w);
                }
            }
        }
    }
    // Post-order without recursion.
    let mut order = Vec::with_capacity(td.bag_count());
    let mut stack = vec![(0usize, false)];
    while let Some((u, expanded)) = stack.pop() {
        if expanded {
            order.push(u);
        } else {
            stack.push((u, true));
            for &c in &children[u] {
                stack.push((c, false));
            }
        }
    }
    let mut results: Vec<Option<Relation>> = vec![None; td.bag_count()];
    for &u in &order {
        let mut rel = if bag_atoms[u].is_empty() {
            Relation::unit()
        } else {
            bag_relation(&bag_atoms[u], i)
        };
        if rel.is_empty() {
            return false;
        }
        for &c in &children[u] {
            let child_rel = results[c].take().expect("post-order");
            // Project the child onto the separator with u.
            let sep: HashSet<Var> = td.bags()[u]
                .intersection(&td.bags()[c])
                .map(|&vertex| var_ids[vertex])
                .collect();
            rel = rel.join(&child_rel.project(&sep));
            if rel.is_empty() {
                return false;
            }
        }
        results[u] = Some(rel);
    }
    !results[0].as_ref().expect("root computed").is_empty()
}

/// UCQ variant: `c̄ ∈ q(D)` iff some disjunct accepts.
pub fn check_answer_ucq_decomposed(q: &Ucq, i: &Instance, answer: &[Value]) -> bool {
    q.disjuncts
        .iter()
        .any(|d| check_answer_decomposed(d, i, answer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::check_answer;
    use crate::parser::parse_cq;
    use gtgd_data::GroundAtom;

    fn v(s: &str) -> Value {
        Value::named(s)
    }

    fn grid_db(rows: usize, cols: usize) -> Instance {
        // H: horizontal edges, V: vertical edges on an rows x cols grid.
        let name = |r: usize, c: usize| format!("g{r}_{c}");
        let mut atoms = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    atoms.push(GroundAtom::named("H", &[&name(r, c), &name(r, c + 1)]));
                }
                if r + 1 < rows {
                    atoms.push(GroundAtom::named("V", &[&name(r, c), &name(r + 1, c)]));
                }
            }
        }
        Instance::from_atoms(atoms)
    }

    #[test]
    fn agrees_with_backtracking_on_path_queries() {
        let db = grid_db(3, 4);
        let q = parse_cq("Q(X) :- H(X,Y), H(Y,Z)").unwrap();
        for cand in ["g0_0", "g0_1", "g2_3"] {
            assert_eq!(
                check_answer_decomposed(&q, &db, &[v(cand)]),
                check_answer(&q, &db, &[v(cand)]),
                "mismatch on {cand}"
            );
        }
    }

    #[test]
    fn boolean_tree_query() {
        let db = grid_db(2, 3);
        let q = parse_cq("Q() :- H(X,Y), V(X,Z)").unwrap();
        assert!(check_answer_decomposed(&q, &db, &[]));
        let q2 = parse_cq("Q() :- H(X,X)").unwrap();
        assert!(!check_answer_decomposed(&q2, &db, &[]));
    }

    #[test]
    fn ladder_query_treewidth_two() {
        let db = grid_db(2, 4);
        // A 2x2 sub-grid pattern (treewidth 2 existential graph).
        let q = parse_cq("Q() :- H(A,B), H(C,D), V(A,C), V(B,D)").unwrap();
        assert!(check_answer_decomposed(&q, &db, &[]));
        // Same but on a 1-row grid: no vertical edges.
        let db2 = grid_db(1, 5);
        assert!(!check_answer_decomposed(&q, &db2, &[]));
    }

    #[test]
    fn repeated_vars_and_constants() {
        let db = Instance::from_atoms([
            GroundAtom::named("R", &["a", "a", "b"]),
            GroundAtom::named("R", &["a", "b", "b"]),
        ]);
        let q = parse_cq("Q() :- R(X,X,Y)").unwrap();
        assert!(check_answer_decomposed(&q, &db, &[]));
        let q2 = parse_cq("Q() :- R(X,X,X)").unwrap();
        assert!(!check_answer_decomposed(&q2, &db, &[]));
        let q3 = parse_cq("Q() :- R(a,b,Y)").unwrap();
        assert!(check_answer_decomposed(&q3, &db, &[]));
    }

    #[test]
    fn fully_ground_after_substitution() {
        let db = Instance::from_atoms([GroundAtom::named("E", &["a", "b"])]);
        let q = parse_cq("Q(X,Y) :- E(X,Y)").unwrap();
        assert!(check_answer_decomposed(&q, &db, &[v("a"), v("b")]));
        assert!(!check_answer_decomposed(&q, &db, &[v("b"), v("a")]));
    }

    #[test]
    fn disconnected_query_components() {
        let db = grid_db(2, 2);
        let q = parse_cq("Q() :- H(X,Y), V(Z,W)").unwrap();
        assert!(check_answer_decomposed(&q, &db, &[]));
        let db2 = Instance::from_atoms([GroundAtom::named("H", &["a", "b"])]);
        assert!(!check_answer_decomposed(&q, &db2, &[]));
    }

    #[test]
    fn exhaustive_agreement_random_answers() {
        // Compare DP and backtracking across all candidate answers.
        let db = grid_db(3, 3);
        let q = parse_cq("Q(X,Y) :- H(X,Z), V(Z,W), H(W,Y)").unwrap();
        let dom = db.dom();
        for &a in &dom {
            for &b in &dom {
                assert_eq!(
                    check_answer_decomposed(&q, &db, &[a, b]),
                    check_answer(&q, &db, &[a, b])
                );
            }
        }
    }
}
