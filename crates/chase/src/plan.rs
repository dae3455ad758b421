//! Cached trigger plans: each TGD compiled once per chase run.
//!
//! The engines used to rebuild the "rest of the body" atom list and re-hash
//! variable bindings for every (pin, delta-atom) pair — for every firing.
//! A [`TriggerPlan`] compiles the body and head of a TGD into the
//! slot-based kernel form ([`CompiledQuery`]) up front:
//!
//! * the **body plan** is probed every round with a delta atom pinned via
//!   [`CompiledQuery::unify_atom`] + [`gtgd_query::KernelSearch::skip_atom`]
//!   — no atom lists are cloned, ever;
//! * the **trigger key** (the body-variable images that deduplicate
//!   oblivious-chase firings) is read straight out of the kernel row via
//!   precomputed slots, in the same ascending-variable order as the legacy
//!   engine, so `fired`-set semantics are unchanged;
//! * the **head plan** grounds head atoms from the row plus fresh nulls,
//!   allocating nulls in ascending existential-variable order — the exact
//!   null-naming sequence of the legacy `fire`;
//! * the **head satisfaction check** of the restricted chase is a compiled
//!   head query with the frontier slots pre-linked to body slots.

use crate::tgd::Tgd;
use gtgd_data::{obs, GroundAtom, Instance, Predicate, Value};
use gtgd_query::{CompiledQuery, Term};

/// One argument of a compiled body atom template.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BodyArg {
    /// A constant from the TGD body.
    Const(Value),
    /// A body variable: read this slot of the body row.
    Slot(u32),
}

/// A compiled body atom template: grounds one body atom from a trigger
/// row. This is the trigger's *support set* — the atoms whose presence
/// witnessed the firing — which restricted-chase level tracking and the
/// maintenance dependency index both need to reconstruct per firing.
#[derive(Debug, Clone)]
pub(crate) struct BodyAtomPlan {
    pub predicate: Predicate,
    pub args: Vec<BodyArg>,
}

/// One argument of a compiled head atom.
#[derive(Debug, Clone, Copy)]
pub(crate) enum HeadArg {
    /// A constant from the TGD head.
    Const(Value),
    /// A frontier variable: read this slot of the body row.
    Body(u32),
    /// An existential variable: use the `i`-th fresh null of the firing.
    Exist(u32),
}

/// A compiled head atom.
#[derive(Debug, Clone)]
pub(crate) struct HeadAtomPlan {
    pub predicate: Predicate,
    pub args: Vec<HeadArg>,
}

/// A TGD compiled for repeated trigger search and firing.
#[derive(Debug, Clone)]
pub(crate) struct TriggerPlan {
    /// Index of the TGD in the rule set (names the rule in provenance
    /// records).
    pub index: usize,
    /// The compiled body (one slot per body variable).
    pub body: CompiledQuery,
    /// Body atom templates in body order (see [`BodyAtomPlan`]).
    pub body_atoms: Vec<BodyAtomPlan>,
    /// Body slots in ascending variable order — the legacy trigger-key
    /// order ([`Tgd::body_vars`]).
    pub key_slots: Vec<usize>,
    /// Body variable indices in the same ascending order as `key_slots`
    /// (the provenance-record valuation keys).
    pub key_vars: Vec<u32>,
    /// Existential variable indices in ascending order (the order
    /// [`TriggerPlan::fire_row`] allocates fresh nulls in).
    pub exist_vars: Vec<u32>,
    /// The compiled head atoms for firing.
    pub head: Vec<HeadAtomPlan>,
    /// Number of existential variables (fresh nulls per firing).
    pub n_exist: usize,
    /// The compiled head as a query (for restricted-chase satisfaction
    /// checks).
    pub head_query: CompiledQuery,
    /// `(head slot, body slot)` pairs linking each frontier variable.
    pub frontier_links: Vec<(usize, usize)>,
}

impl TriggerPlan {
    /// Compiles one TGD; `index` is its position in the rule set.
    pub fn new(tgd: &Tgd, index: usize) -> TriggerPlan {
        let body = CompiledQuery::compile(&tgd.body);
        let body_atoms = tgd
            .body
            .iter()
            .map(|a| BodyAtomPlan {
                predicate: a.predicate,
                args: a
                    .args
                    .iter()
                    .map(|t| match *t {
                        Term::Const(c) => BodyArg::Const(c),
                        Term::Var(v) => {
                            BodyArg::Slot(body.slot_of(v).expect("body vars are interned") as u32)
                        }
                    })
                    .collect(),
            })
            .collect();
        let body_vars = tgd.body_vars();
        let key_slots = body_vars
            .iter()
            .map(|&v| body.slot_of(v).expect("body vars are interned"))
            .collect();
        let key_vars = body_vars.iter().map(|v| v.index() as u32).collect();
        let exist = tgd.existential_vars();
        let head = tgd
            .head
            .iter()
            .map(|a| HeadAtomPlan {
                predicate: a.predicate,
                args: a
                    .args
                    .iter()
                    .map(|t| match *t {
                        Term::Const(c) => HeadArg::Const(c),
                        Term::Var(v) => match body.slot_of(v) {
                            Some(s) => HeadArg::Body(s as u32),
                            None => {
                                let i = exist
                                    .iter()
                                    .position(|&z| z == v)
                                    .expect("non-frontier head var is existential");
                                HeadArg::Exist(i as u32)
                            }
                        },
                    })
                    .collect(),
            })
            .collect();
        let head_query = CompiledQuery::compile(&tgd.head);
        let frontier_links = tgd
            .frontier()
            .iter()
            .map(|&v| {
                (
                    head_query.slot_of(v).expect("frontier occurs in head"),
                    body.slot_of(v).expect("frontier occurs in body"),
                )
            })
            .collect();
        TriggerPlan {
            index,
            body,
            body_atoms,
            key_slots,
            key_vars,
            exist_vars: exist.iter().map(|v| v.index() as u32).collect(),
            head,
            n_exist: exist.len(),
            head_query,
            frontier_links,
        }
    }

    /// Compiles every TGD of a rule set.
    pub fn compile_all(tgds: &[Tgd]) -> Vec<TriggerPlan> {
        tgds.iter()
            .enumerate()
            .map(|(i, t)| TriggerPlan::new(t, i))
            .collect()
    }

    /// The trigger key (body-variable images in ascending variable order)
    /// of a body row.
    pub fn trigger_key(&self, row: &[Value]) -> Vec<Value> {
        self.key_slots.iter().map(|&s| row[s]).collect()
    }

    /// Inverts [`TriggerPlan::trigger_key`]: reconstructs the full body
    /// row from a trigger key. `key_slots` maps ascending-variable order
    /// to body slots and covers every slot exactly once (each body
    /// variable has one slot), so the key *is* the row, permuted — this is
    /// what lets snapshot persistence store only `(tgd, key)` per firing
    /// and still rebuild the firing's body atoms on load.
    pub fn row_from_key(&self, key: &[Value]) -> Vec<Value> {
        debug_assert_eq!(key.len(), self.key_slots.len());
        let mut row = vec![Value::Null(0); self.key_slots.len()];
        for (&s, &v) in self.key_slots.iter().zip(key) {
            row[s] = v;
        }
        row
    }

    /// Fires the trigger witnessed by `row`: instantiates the head with
    /// fresh nulls for the existential variables (allocated in ascending
    /// variable order, like the legacy engine, and left in `nulls`) and
    /// appends the atoms to `out`.
    pub fn fire_row(&self, row: &[Value], nulls: &mut Vec<Value>, out: &mut Vec<GroundAtom>) {
        obs::count(obs::Metric::NullsCreated, self.n_exist as u64);
        nulls.clear();
        nulls.extend((0..self.n_exist).map(|_| Value::fresh_null()));
        for atom in &self.head {
            out.push(GroundAtom::new(
                atom.predicate,
                atom.args
                    .iter()
                    .map(|a| match *a {
                        HeadArg::Const(c) => c,
                        HeadArg::Body(s) => row[s as usize],
                        HeadArg::Exist(i) => nulls[i as usize],
                    })
                    .collect(),
            ))
        }
    }

    /// Grounds the body atoms witnessed by `row` — the firing's support
    /// set. Restricted-chase level tracking reads derivation depth off
    /// these, and maintenance records them as the firing's dependencies.
    pub fn ground_body(&self, row: &[Value]) -> Vec<GroundAtom> {
        self.body_atoms
            .iter()
            .map(|a| {
                GroundAtom::new(
                    a.predicate,
                    a.args
                        .iter()
                        .map(|t| match *t {
                            BodyArg::Const(c) => c,
                            BodyArg::Slot(s) => row[s as usize],
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// Whether the trigger's head is already satisfied in `instance`
    /// (restricted-chase activity check): does the compiled head query
    /// match with the frontier pinned to the body row's images?
    pub fn head_satisfied(&self, row: &[Value], instance: &Instance) -> bool {
        obs::count(obs::Metric::RestrictedHeadChecks, 1);
        self.head_query
            .search(instance)
            .fix_slots(self.frontier_links.iter().map(|&(hs, bs)| (hs, row[bs])))
            .exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tgd::parse_tgds;
    use gtgd_data::Instance;

    fn v(s: &str) -> Value {
        Value::named(s)
    }

    #[test]
    fn fire_row_grounds_head_with_fresh_nulls() {
        let tgds = parse_tgds("Emp(X) -> WorksIn(X,D), Dept(D)").unwrap();
        let plan = TriggerPlan::new(&tgds[0], 0);
        assert_eq!(plan.n_exist, 1);
        let (mut nulls, mut out) = (Vec::new(), Vec::new());
        plan.fire_row(&[v("ann")], &mut nulls, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].args[0], v("ann"));
        // Both head atoms share the same fresh null for D.
        assert_eq!(out[0].args[1], out[1].args[0]);
        assert_eq!(nulls, [out[0].args[1]]);
        assert!(matches!(out[0].args[1], Value::Null(_)));
    }

    #[test]
    fn trigger_key_is_ascending_var_order() {
        // Body vars Y(=1), X(=0) appear out of order in the body text; the
        // key must still come out in ascending Var order, like
        // `Tgd::body_vars`.
        let tgds = parse_tgds("R(Y,X) -> S(X,Y)").unwrap();
        let plan = TriggerPlan::new(&tgds[0], 0);
        let bv = tgds[0].body_vars();
        let row_y_x = [v("a"), v("b")]; // slot order: first occurrence = Y, X
        let key = plan.trigger_key(&row_y_x);
        let by_var: Vec<Value> = bv
            .iter()
            .map(|&u| row_y_x[plan.body.slot_of(u).unwrap()])
            .collect();
        assert_eq!(key, by_var);
    }

    #[test]
    fn row_from_key_inverts_trigger_key() {
        // Out-of-order body variables: slot order (first occurrence) is
        // Y, X while key order (ascending var) is X, Y.
        let tgds = parse_tgds("R(Y,X), S(X,Z) -> T(X)").unwrap();
        let plan = TriggerPlan::new(&tgds[0], 0);
        let row = vec![v("a"), v("b"), v("c")];
        let key = plan.trigger_key(&row);
        assert_eq!(plan.row_from_key(&key), row);
    }

    #[test]
    fn ground_body_reconstructs_the_witness_atoms() {
        let tgds = parse_tgds("R(X,Y), S(Y, red) -> T(X)").unwrap();
        let plan = TriggerPlan::new(&tgds[0], 0);
        // Slot order is first-occurrence: X then Y.
        let body = plan.ground_body(&[v("a"), v("b")]);
        assert_eq!(body.len(), 2);
        assert_eq!(body[0], GroundAtom::named("R", &["a", "b"]));
        assert_eq!(body[1], GroundAtom::named("S", &["b", "red"]));
    }

    #[test]
    fn head_satisfied_checks_frontier_extension() {
        let tgds = parse_tgds("P(X) -> R(X,Y)").unwrap();
        let plan = TriggerPlan::new(&tgds[0], 0);
        let with = Instance::from_atoms([GroundAtom::named("R", &["a", "b"])]);
        let without = Instance::from_atoms([GroundAtom::named("R", &["z", "b"])]);
        assert!(plan.head_satisfied(&[v("a")], &with));
        assert!(!plan.head_satisfied(&[v("a")], &without));
    }
}
