//! Instance homomorphisms in the paper's sense: any function on the
//! domain, constants included, that maps every atom of one instance onto
//! an atom of another.
//!
//! Homomorphism search itself has one implementation, the compiled kernel
//! ([`crate::compile`]): [`CompiledQuery::compile`] once, then configure a
//! [`KernelSearch`](crate::compile::KernelSearch) with pre-bound slots,
//! injectivity or an image restriction, and enumerate its rows. This module
//! views an instance as query atoms ([`instance_as_atoms`]) and runs that
//! kernel on them.

use crate::compile::CompiledQuery;
use crate::cq::{QAtom, Term, Var};
use gtgd_data::{Instance, Valuation, Value};
use std::collections::HashMap;

/// Views an instance as a set of query atoms: every domain value becomes a
/// variable. Returns the atoms and the value → variable mapping. This
/// implements the paper's notion of instance homomorphism, where constants
/// are *not* fixed.
pub fn instance_as_atoms(i: &Instance) -> (Vec<QAtom>, HashMap<Value, Var>) {
    let mut var_of: HashMap<Value, Var> = HashMap::new();
    for (idx, &v) in i.dom().iter().enumerate() {
        var_of.insert(v, Var(idx as u32));
    }
    let atoms = i
        .iter()
        .map(|a| {
            QAtom::new(
                a.predicate,
                a.args.iter().map(|&v| Term::Var(var_of[&v])).collect(),
            )
        })
        .collect();
    (atoms, var_of)
}

/// Finds a homomorphism (paper semantics: any function on the domain) from
/// instance `from` to instance `to`.
pub fn instance_homomorphism(from: &Instance, to: &Instance) -> Option<Valuation> {
    instance_homomorphism_fixing(from, to, &Valuation::new())
}

/// Like [`instance_homomorphism`], with some domain values pre-mapped (e.g.
/// the identity on `dom(D)` for Proposition 2.2-style checks). Values of
/// `fixed` outside `dom(from)` are ignored.
pub fn instance_homomorphism_fixing(
    from: &Instance,
    to: &Instance,
    fixed: &Valuation,
) -> Option<Valuation> {
    let (atoms, var_of) = instance_as_atoms(from);
    let plan = CompiledQuery::compile(&atoms);
    // Every domain value occurs in an atom, so every variable has a slot.
    let slot = |var: Var| plan.slot_of(var).expect("domain values occur in atoms");
    let row = plan
        .search(to)
        .fix_slots(
            fixed
                .iter()
                .filter_map(|(v, &img)| var_of.get(v).map(|&var| (slot(var), img))),
        )
        .first_row()?;
    Some(
        var_of
            .iter()
            .map(|(&value, &var)| (value, row[slot(var)]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::KernelSearch;
    use crate::parser::parse_cq;
    use gtgd_data::GroundAtom;
    use std::collections::HashSet;
    use std::ops::ControlFlow;

    fn v(s: &str) -> Value {
        Value::named(s)
    }

    fn path_db(n: usize) -> Instance {
        let names: Vec<String> = (0..=n).map(|i| format!("n{i}")).collect();
        Instance::from_atoms(
            (0..n).map(|i| GroundAtom::named("E", &[names[i].as_str(), names[i + 1].as_str()])),
        )
    }

    /// Compiles `atoms` with the variables of `fixed` interned (they may
    /// be ghosts, absent from the atoms) and hands `f` a search over `db`
    /// with them pre-bound.
    fn with_search<R>(
        atoms: &[QAtom],
        db: &Instance,
        fixed: &[(Var, Value)],
        f: impl FnOnce(&CompiledQuery, KernelSearch<'_>) -> R,
    ) -> R {
        let plan = CompiledQuery::compile_with_extra(atoms, fixed.iter().map(|&(v, _)| v));
        let search = plan
            .search(db)
            .fix_slots(fixed.iter().map(|&(v, x)| (plan.slot_of(v).unwrap(), x)));
        f(&plan, search)
    }

    #[test]
    fn finds_path_homomorphism() {
        let q = parse_cq("Q() :- E(X,Y), E(Y,Z)").unwrap();
        let db = path_db(2);
        let plan = CompiledQuery::compile(&q.atoms);
        assert!(plan.search(&db).exists());
        assert_eq!(plan.search(&db).first_row().unwrap().len(), 3);
    }

    #[test]
    fn respects_fixed_bindings() {
        let q = parse_cq("Q(X) :- E(X,Y)").unwrap();
        let db = path_db(2);
        let x = q.answer_vars[0];
        assert!(with_search(&q.atoms, &db, &[(x, v("n0"))], |_, s| s.exists()));
        assert!(!with_search(&q.atoms, &db, &[(x, v("n2"))], |_, s| s.exists()));
    }

    #[test]
    fn all_homs_counts_paths() {
        let q = parse_cq("Q() :- E(X,Y)").unwrap();
        let db = path_db(3);
        let plan = CompiledQuery::compile(&q.atoms);
        assert_eq!(plan.search(&db).table().len(), 3);
        assert_eq!(plan.search(&db).count(), 3);
    }

    #[test]
    fn injective_mode_excludes_collapses() {
        // A reflexive loop satisfies E(X,Y),E(Y,X) non-injectively only.
        let db = Instance::from_atoms([GroundAtom::named("E", &["a", "a"])]);
        let q = parse_cq("Q() :- E(X,Y), E(Y,X)").unwrap();
        let plan = CompiledQuery::compile(&q.atoms);
        assert!(plan.search(&db).exists());
        assert!(!plan.search(&db).injective().exists());
        // A genuine 2-cycle satisfies it injectively.
        let db2 = Instance::from_atoms([
            GroundAtom::named("E", &["a", "b"]),
            GroundAtom::named("E", &["b", "a"]),
        ]);
        assert!(plan.search(&db2).injective().exists());
    }

    #[test]
    fn image_restriction() {
        let q = parse_cq("Q() :- E(X,Y)").unwrap();
        let db = path_db(3);
        let allowed: HashSet<Value> = [v("n0"), v("n1")].into_iter().collect();
        let plan = CompiledQuery::compile(&q.atoms);
        // Only E(n0,n1).
        assert_eq!(plan.search(&db).restrict_images(&allowed).table().len(), 1);
    }

    #[test]
    fn constants_in_query_must_match() {
        let q = parse_cq("Q() :- E(n0, Y)").unwrap();
        let db = path_db(2);
        assert!(CompiledQuery::compile(&q.atoms).search(&db).exists());
        let q2 = parse_cq("Q() :- E(n2, Y)").unwrap();
        assert!(!CompiledQuery::compile(&q2.atoms).search(&db).exists());
    }

    #[test]
    fn instance_homomorphism_not_constant_preserving() {
        // R(a,b) → R(c,c): legal under the paper's definition.
        let from = Instance::from_atoms([GroundAtom::named("R", &["a", "b"])]);
        let to = Instance::from_atoms([GroundAtom::named("R", &["c", "c"])]);
        let h = instance_homomorphism(&from, &to).unwrap();
        assert_eq!(h[&v("a")], v("c"));
        assert_eq!(h[&v("b")], v("c"));
        assert!(gtgd_data::is_homomorphism(&h, &from, &to));
    }

    #[test]
    fn instance_homomorphism_fixing_identity() {
        let from = Instance::from_atoms([GroundAtom::named("R", &["a", "b"])]);
        let to = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("R", &["x", "y"]),
        ]);
        let fixed: Valuation = [(v("a"), v("a")), (v("b"), v("b"))].into_iter().collect();
        let h = instance_homomorphism_fixing(&from, &to, &fixed).unwrap();
        assert_eq!(h[&v("a")], v("a"));
        // Fixing to something impossible fails.
        let bad: Valuation = [(v("a"), v("y"))].into_iter().collect();
        assert!(instance_homomorphism_fixing(&from, &to, &bad).is_none());
    }

    #[test]
    fn early_stop_enumeration() {
        let q = parse_cq("Q() :- E(X,Y)").unwrap();
        let db = path_db(5);
        let mut count = 0;
        let stopped = CompiledQuery::compile(&q.atoms)
            .search(&db)
            .for_each_row(|_| {
                count += 1;
                if count == 2 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
        assert!(stopped);
        assert_eq!(count, 2);
    }

    #[test]
    fn empty_atom_list_yields_exactly_the_fixed_assignment() {
        let db = path_db(2);
        let atoms: Vec<QAtom> = Vec::new();
        // No atoms, no fixed bindings: one empty homomorphism.
        let homs = CompiledQuery::compile(&atoms).search(&db).table();
        assert_eq!((homs.len(), homs.width()), (1, 0));
        // No atoms with fixed bindings: the fixed assignment itself.
        let fixed = [(Var(0), v("n0"))];
        let homs = with_search(&atoms, &db, &fixed, |_, s| s.table().to_maps());
        assert_eq!(homs, vec![HashMap::from(fixed)]);
        assert_eq!(CompiledQuery::compile(&atoms).search(&db).count(), 1);
        assert_eq!(
            CompiledQuery::compile(&atoms)
                .search(&db)
                .par_table(4)
                .len(),
            1
        );
    }

    #[test]
    fn fixing_a_variable_absent_from_atoms_is_kept() {
        let q = parse_cq("Q() :- E(X,Y)").unwrap();
        let db = path_db(2);
        let ghost = Var(99);
        let fixed = [(ghost, v("n0"))];
        let homs = with_search(&q.atoms, &db, &fixed, |_, s| s.table().to_maps());
        assert_eq!(homs.len(), 2);
        assert!(homs.iter().all(|h| h[&ghost] == v("n0")));
        // Injectivity counts the ghost binding's value as used.
        let inj = with_search(&q.atoms, &db, &fixed, |_, s| s.injective().table());
        assert_eq!(inj.len(), 1); // E(n0,n1) would reuse n0
                                  // And an image restriction excluding the ghost's value kills all.
        let allowed: HashSet<Value> = [v("n1"), v("n2")].into_iter().collect();
        let restricted = with_search(&q.atoms, &db, &fixed, |_, s| {
            s.restrict_images(&allowed).table()
        });
        assert!(restricted.is_empty());
    }

    #[test]
    fn restrict_images_combined_with_injective() {
        let q = parse_cq("Q() :- E(X,Y), E(Y,Z)").unwrap();
        let db = path_db(3);
        let allowed: HashSet<Value> = [v("n0"), v("n1"), v("n2")].into_iter().collect();
        let homs = CompiledQuery::compile(&q.atoms)
            .search(&db)
            .restrict_images(&allowed)
            .injective()
            .table();
        // Only the walk n0→n1→n2 stays inside the allowed set injectively.
        assert_eq!(homs.len(), 1);
        let imgs: HashSet<Value> = homs.row(0).iter().copied().collect();
        assert_eq!(imgs, allowed);
    }

    #[test]
    fn duplicate_fixed_values_fail_injective_search() {
        let q = parse_cq("Q(X,Y) :- E(X,Y)").unwrap();
        let db = path_db(2);
        let fixed = [(q.answer_vars[0], v("n0")), (q.answer_vars[1], v("n0"))];
        assert!(with_search(&q.atoms, &db, &fixed, |_, s| s.injective().table()).is_empty());
        assert!(with_search(&q.atoms, &db, &fixed, |_, s| s.injective().par_table(3)).is_empty());
    }

    /// The rows of a table as a sorted list (enumeration order differs
    /// between widths).
    fn sorted_rows(t: &crate::compile::ValuationTable) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = t.rows().map(<[Value]>::to_vec).collect();
        rows.sort();
        rows
    }

    #[test]
    fn par_table_matches_table_as_a_set() {
        let db = path_db(6);
        for q in [
            "Q() :- E(X,Y)",
            "Q() :- E(X,Y), E(Y,Z)",
            "Q() :- E(X,Y), E(Y,Z), E(Z,W)",
            "Q() :- E(X,X)",
            "Q() :- E(n0, Y)",
        ] {
            let q = parse_cq(q).unwrap();
            let plan = CompiledQuery::compile(&q.atoms);
            let seq = sorted_rows(&plan.search(&db).table());
            for w in [1usize, 2, 4, 7] {
                let par = sorted_rows(&plan.search(&db).par_table(w));
                assert_eq!(par, seq, "query {:?} workers {w}", q.atoms.len());
            }
        }
    }

    #[test]
    fn par_table_respects_modes() {
        let db = Instance::from_atoms([
            GroundAtom::named("E", &["a", "b"]),
            GroundAtom::named("E", &["b", "a"]),
            GroundAtom::named("E", &["a", "a"]),
        ]);
        let q = parse_cq("Q() :- E(X,Y), E(Y,X)").unwrap();
        let plan = CompiledQuery::compile(&q.atoms);
        let seq = plan.search(&db).injective().table().len();
        assert_eq!(plan.search(&db).injective().par_table(4).len(), seq);
        let allowed: HashSet<Value> = [v("a")].into_iter().collect();
        let seq = plan.search(&db).restrict_images(&allowed).table().len();
        assert_eq!(
            plan.search(&db)
                .restrict_images(&allowed)
                .par_table(4)
                .len(),
            seq
        );
    }

    #[test]
    fn zero_ary_atom_matching() {
        let db = Instance::from_atoms([GroundAtom::named("Goal", &[])]);
        let q = parse_cq("Q() :- Goal()").unwrap();
        assert!(CompiledQuery::compile(&q.atoms).search(&db).exists());
        let q2 = parse_cq("Q() :- Start()").unwrap();
        assert!(!CompiledQuery::compile(&q2.atoms).search(&db).exists());
    }

    #[test]
    fn repeated_variable_positions() {
        let db = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("R", &["c", "c"]),
        ]);
        let q = parse_cq("Q() :- R(X,X)").unwrap();
        let homs = CompiledQuery::compile(&q.atoms).search(&db).table();
        assert_eq!(homs.len(), 1);
        assert_eq!(homs.row(0), [v("c")]);
    }
}
