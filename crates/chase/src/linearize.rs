//! The explicit `(D*, Σ*)` linearization of Lemma A.3: guarded OMQ
//! evaluation reduced to **linear** TGDs over type predicates.
//!
//! The construction reads the type-transition graph the [`Saturator`]
//! records while it computes the ground saturation. Each of its canonical
//! types `τ` becomes a fresh predicate `[τ]` whose arity is the type's
//! width, and the construction emits:
//!
//! * the typed database `D*`: one `[τ_α](c̄)` atom per guarded set of the
//!   ground saturation, where `τ_α` is the type of the set's restriction;
//! * the *type generator* `Σ*_tg`: a linear rule `[τ](x̄) → ∃z̄ [τ′](ȳ)` per
//!   distinct transition of `τ`, i.e. per child type and shared positions
//!   of an existential trigger over `τ`'s closure;
//! * the *expander* `Σ*_ex`: `[τ](x̄) → R(x̄|_args)` for every atom of the
//!   type's closure.
//!
//! Every rule of `Σ*` is linear. The tests check that a chase of
//! `(D*, Σ*)` answers queries as the exact evaluation does: its answers
//! over `dom(D)` are certain answers, and all of them once that chase
//! completes.

use crate::tgd::Tgd;
use crate::types::{canonicalize, guarded_bags, restriction, Saturator};
use gtgd_data::{GroundAtom, Instance, Predicate};
use gtgd_query::{QAtom, Term, Var};
use std::collections::HashSet;

/// The output of the linearization.
#[derive(Debug, Clone)]
pub struct Linearization {
    /// The typed database `D*`.
    pub d_star: Instance,
    /// The linear rule set `Σ* = Σ*_tg ∪ Σ*_ex`.
    pub sigma_star: Vec<Tgd>,
    /// Number of canonical types, i.e. of type predicates.
    pub type_count: usize,
}

fn type_predicate(id: usize) -> Predicate {
    Predicate::new(&format!("__type{id}"))
}

/// `[τ](x0, …, x_{w-1}) → head(args)` for type `id` of width `width`: an
/// argument is a body position, or `None` for a fresh existential.
fn type_rule(id: usize, width: u8, head: Predicate, args: &[Option<u8>]) -> Tgd {
    let mut names: Vec<String> = (0..width).map(|i| format!("x{i}")).collect();
    let body = (0..u32::from(width)).map(|i| Term::Var(Var(i))).collect();
    let mut var = |p: &Option<u8>| match *p {
        Some(p) => Term::Var(Var(u32::from(p))),
        None => {
            names.push(format!("z{}", names.len()));
            Term::Var(Var(names.len() as u32 - 1))
        }
    };
    let head = vec![QAtom::new(head, args.iter().map(&mut var).collect())];
    Tgd::new(names, vec![QAtom::new(type_predicate(id), body)], head)
}

/// Builds the explicit `(D*, Σ*)` for a guarded, constant-free Σ (the
/// saturator panics on any other Σ). `Σ*` ranges over the types the
/// saturation reaches, not over all Σ-types.
pub fn linearize(db: &Instance, tgds: &[Tgd]) -> Linearization {
    let mut sat = Saturator::new(tgds);
    let ground = sat.ground_saturation(db);
    let mut d_star = Instance::new();
    for (consts, ids) in guarded_bags(&ground) {
        let (key, perm) = canonicalize(&restriction(&ground, &ids), &consts);
        d_star.insert(GroundAtom::new(type_predicate(sat.close_type(key)), perm));
    }
    let mut sigma_star = Vec::new();
    for (id, t) in sat.types().iter().enumerate() {
        // Σ*_tg: triggers that differ only in the row make the same rule.
        let mut seen = HashSet::new();
        for tr in t.transitions.values() {
            if seen.insert((tr.child, &tr.shared)) {
                sigma_star.push(type_rule(id, t.width, type_predicate(tr.child), &tr.shared));
            }
        }
        // Σ*_ex.
        for a in &t.closure {
            let args: Vec<Option<u8>> = a.args.iter().map(|&p| Some(p)).collect();
            sigma_star.push(type_rule(id, t.width, a.pred, &args));
        }
    }
    Linearization {
        d_star,
        sigma_star,
        type_count: sat.type_count(),
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
        let lin = linearize(&d, &tgds);
        assert!(lin.type_count >= 1);
        for r in &lin.sigma_star {
            assert!(r.is_in(TgdClass::Linear), "not linear: {r}");
        }
    }

    #[test]
    fn ground_types_expand_to_ground_atoms() {
        let tgds = parse_tgds("R(X,Y) -> S(Y,Z). S(Y,Z) -> T(Y)").unwrap();
        let d = db(&[("R", &["a", "b"])]);
        let lin = linearize(&d, &tgds);
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
        let small = linearize(&db(&[("A", &["a"])]), &tgds);
        let large = linearize(&db(&[("A", &["a"]), ("A", &["b"]), ("A", &["c"])]), &tgds);
        assert_eq!(small.type_count, large.type_count);
        assert!(large.d_star.len() > small.d_star.len());
    }
}
