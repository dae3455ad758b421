//! The explicit `(D*, Σ*)` linearization of Lemma A.3: guarded OMQ
//! evaluation reduced to **linear** TGDs over type predicates.
//!
//! Each reachable canonical Σ-type `τ` becomes a fresh predicate `[τ]`
//! whose arity is the type's width. The construction emits:
//!
//! * the typed database `D*`: one `[τ_α](c̄)` atom per guarded set of the
//!   ground saturation, where `τ_α` is the set's closed type;
//! * the *type generator* `Σ*_tg`: a linear rule `[τ](x̄) → ∃z̄ [τ′](ȳ)` per
//!   existential-head firing inside a type's closure, discovered by a
//!   breadth-first exploration of the type-transition graph. Each firing
//!   runs through its TGD's compiled trigger plan and builds the child bag
//!   with the saturator's own step (`types::child_bag`);
//! * the *expander* `Σ*_ex`: `[τ](x̄) → R(x̄|_args)` for every atom the type
//!   contains.
//!
//! `chase(D*, Σ*)` then reproduces `chase(D, Σ)` atom-for-atom on the
//! original schema (up to null renaming) — which the integration tests
//! verify on queries against the typed-chase reference in `tests/common`,
//! giving an independent implementation of the paper's FPT pipeline.

use crate::plan::TriggerPlan;
use crate::tgd::Tgd;
use crate::types::{canonicalize, child_bag, guarded_bags, restriction, CanonType, Saturator};
use gtgd_data::{GroundAtom, Instance, Predicate, Value};
use gtgd_query::{QAtom, Term, Var};
use std::collections::{HashMap, HashSet};

/// The output of the linearization.
#[derive(Debug, Clone)]
pub struct Linearization {
    /// The typed database `D*`.
    pub d_star: Instance,
    /// The linear rule set `Σ* = Σ*_tg ∪ Σ*_ex`.
    pub sigma_star: Vec<Tgd>,
    /// Number of reachable canonical types registered.
    pub type_count: usize,
}

struct Registry {
    ids: HashMap<CanonType, usize>,
    types: Vec<CanonType>,
}

impl Registry {
    fn intern(&mut self, key: CanonType) -> (usize, bool) {
        if let Some(&id) = self.ids.get(&key) {
            return (id, false);
        }
        let id = self.types.len();
        self.ids.insert(key.clone(), id);
        self.types.push(key);
        (id, true)
    }
}

fn type_predicate(id: usize) -> Predicate {
    Predicate::new(&format!("__type{id}"))
}

/// Builds the explicit `(D*, Σ*)` for a guarded, constant-free Σ (the
/// saturator panics on any other Σ).
///
/// `max_types` caps the type-transition exploration (the paper's Σ* ranges
/// over *all* Σ-types, exponentially many; only reachable ones matter, and
/// the cap fails loudly rather than exploding).
pub fn linearize(db: &Instance, tgds: &[Tgd], max_types: usize) -> Linearization {
    let mut sat = Saturator::new(tgds);
    let ground = sat.ground_saturation(db);
    let mut registry = Registry {
        ids: HashMap::new(),
        types: Vec::new(),
    };
    // D*: a typed atom per guarded set of the saturated ground part.
    let mut d_star = Instance::new();
    let mut frontier: Vec<usize> = Vec::new();
    for (consts, ids) in guarded_bags(&ground) {
        let closed = sat.close_bag(&restriction(&ground, &ids), &consts);
        let (key, perm) = canonicalize(&closed, &consts);
        let (id, new) = registry.intern(key);
        if new {
            frontier.push(id);
        }
        d_star.insert(GroundAtom::new(type_predicate(id), perm));
    }
    // Explore type transitions breadth-first.
    let plans = TriggerPlan::compile_all(tgds);
    let mut sigma_tg: Vec<Tgd> = Vec::new();
    let mut qi = 0usize;
    while qi < frontier.len() {
        let id = frontier[qi];
        qi += 1;
        assert!(
            registry.types.len() <= max_types,
            "type-transition exploration exceeded {max_types} types"
        );
        // Materialize a concrete bag of this type over scratch constants.
        let key = registry.types[id].clone();
        let width = key.width as usize;
        let scratch: Vec<Value> = (0..width).map(|_| Value::fresh_null()).collect();
        let bag = crate::types::decode(&key.atoms, &scratch);
        // Fire every existential-head trigger once.
        for plan in &plans {
            if plan.n_exist == 0 {
                continue; // full consequences are already inside closures
            }
            let rows = plan.body.search(&bag).table();
            for row in rows.rows() {
                let (child_consts, child) = child_bag(plan, row, &bag, &HashSet::new());
                let closed = sat.close_bag(&child, &child_consts);
                let (child_key, child_perm) = canonicalize(&closed, &child_consts);
                let (child_id, new) = registry.intern(child_key);
                if new {
                    frontier.push(child_id);
                }
                // Emit the linear rule [τ](x0..x_{w-1}) → ∃ fresh [τ′](args):
                // each child canonical position is either a parent position
                // (shared constant) or an existential variable.
                let parent_pos: HashMap<Value, usize> =
                    scratch.iter().enumerate().map(|(i, &v)| (v, i)).collect();
                let mut names: Vec<String> = (0..width).map(|i| format!("x{i}")).collect();
                let body = vec![QAtom::new(
                    type_predicate(id),
                    (0..width as u32).map(|i| Term::Var(Var(i))).collect(),
                )];
                let mut next = width as u32;
                let head_args: Vec<Term> = child_perm
                    .iter()
                    .map(|v| match parent_pos.get(v) {
                        Some(&i) => Term::Var(Var(i as u32)),
                        None => {
                            names.push(format!("z{next}"));
                            let t = Term::Var(Var(next));
                            next += 1;
                            t
                        }
                    })
                    .collect();
                let head = vec![QAtom::new(type_predicate(child_id), head_args)];
                let rule = Tgd::new(names, body, head);
                // Transitions repeat across firings; dedupe by display.
                if !sigma_tg.iter().any(|r| r.to_string() == rule.to_string()) {
                    sigma_tg.push(rule);
                }
            }
        }
    }
    // The expander: one rule per (type, member atom).
    let mut sigma_ex: Vec<Tgd> = Vec::new();
    for (id, key) in registry.types.iter().enumerate() {
        let width = key.width as usize;
        let names: Vec<String> = (0..width).map(|i| format!("x{i}")).collect();
        for atom in &key.atoms {
            let body = vec![QAtom::new(
                type_predicate(id),
                (0..width as u32).map(|i| Term::Var(Var(i))).collect(),
            )];
            let head = vec![QAtom::new(
                atom.pred,
                atom.args
                    .iter()
                    .map(|&p| Term::Var(Var(p as u32)))
                    .collect(),
            )];
            sigma_ex.push(Tgd::new(names.clone(), body, head));
        }
    }
    let mut sigma_star = sigma_tg;
    sigma_star.extend(sigma_ex);
    Linearization {
        d_star,
        sigma_star,
        type_count: registry.types.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{chase, ChaseBudget};
    use crate::tgd::{parse_tgds, TgdClass};

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    #[test]
    fn all_rules_are_linear() {
        let tgds = parse_tgds("Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D)").unwrap();
        let d = db(&[("Emp", &["ann"])]);
        let lin = linearize(&d, &tgds, 64);
        assert!(lin.type_count >= 1);
        for r in &lin.sigma_star {
            assert!(r.is_in(TgdClass::Linear), "not linear: {r}");
        }
    }

    #[test]
    fn ground_types_expand_to_ground_atoms() {
        let tgds = parse_tgds("R(X,Y) -> S(Y,Z). S(Y,Z) -> T(Y)").unwrap();
        let d = db(&[("R", &["a", "b"])]);
        let lin = linearize(&d, &tgds, 64);
        let expanded = chase(&lin.d_star, &lin.sigma_star, &ChaseBudget::levels(4));
        // The deep-detour atom T(b) must be recoverable from D* alone.
        assert!(expanded.instance.contains(&GroundAtom::named("T", &["b"])));
        assert!(expanded
            .instance
            .contains(&GroundAtom::named("R", &["a", "b"])));
    }

    #[test]
    fn type_count_is_data_independent() {
        let tgds = parse_tgds("A(X) -> R(X,Y), A(Y)").unwrap();
        let small = linearize(&db(&[("A", &["a"])]), &tgds, 64);
        let large = linearize(
            &db(&[("A", &["a"]), ("A", &["b"]), ("A", &["c"])]),
            &tgds,
            64,
        );
        assert_eq!(small.type_count, large.type_count);
        assert!(large.d_star.len() > small.d_star.len());
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn type_cap_enforced() {
        let tgds = parse_tgds("A(X) -> R(X,Y), B(Y). B(X) -> S(X,Y), A(Y)").unwrap();
        linearize(&db(&[("A", &["a"])]), &tgds, 1);
    }
}
