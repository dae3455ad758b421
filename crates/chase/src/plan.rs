//! Cached trigger plans: each TGD compiled once per chase run, and the
//! one record of a trigger firing.
//!
//! The engines used to rebuild the "rest of the body" atom list and re-hash
//! variable bindings for every (pin, delta-atom) pair — for every firing.
//! A [`TriggerPlan`] compiles the body and head of a TGD into the
//! slot-based kernel form ([`CompiledQuery`]) up front:
//!
//! * the **body plan** is probed every round with each body atom pinned
//!   to the delta via [`gtgd_query::KernelSearch::for_each_pinned_row`]
//!   — no atom lists are cloned, ever;
//! * the **trigger key** (the body-variable images that name a
//!   [`Firing`]) is read straight out of the kernel row via precomputed
//!   slots, in ascending-variable order;
//! * the **body templates** ground a firing's body atoms straight from
//!   its key ([`TriggerPlan::body_from_key`]), which is how the dependency
//!   index, snapshot thaw and certificate pruning all recover a firing's
//!   support set;
//! * the **head plan** grounds head atoms from the row plus fresh nulls,
//!   allocating nulls in ascending existential-variable order — the exact
//!   null-naming sequence of the legacy `fire`;
//! * the **head satisfaction check** of the restricted chase is a compiled
//!   head query with the frontier slots pre-linked to body slots.

use crate::tgd::Tgd;
use gtgd_data::{obs, GroundAtom, Instance, Predicate, Value};
use gtgd_query::{CompiledQuery, Term};

/// One trigger firing `(σ, h)` of the oblivious or restricted chase: the
/// rule, the body images of `h`, and the head atoms the firing produced.
/// A log of these is the chase's one firing record: a certified run
/// returns its log ([`crate::ChaseRunner::certify`]), the dependency index
/// of [`crate::MaintainedInstance`] keeps one, snapshots persist its alive
/// firings, and certificates are pruned from either.
///
/// The body atoms are not stored: the key is the full body valuation, so
/// the rule's compiled plan rebuilds them from it. Neither are the fresh
/// nulls: every existential variable occurs in the head, so its null is
/// read off `products`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// Index of the TGD in the rule set the chase ran.
    pub tgd: usize,
    /// The trigger key: the body-variable images in ascending variable
    /// order ([`Tgd::body_vars`]).
    pub key: Vec<Value>,
    /// The head atoms the firing produced, in head order, whether or not
    /// the instance already held them.
    pub products: Vec<GroundAtom>,
}

/// One argument of a compiled body atom template.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BodyArg {
    /// A constant from the TGD body.
    Const(Value),
    /// A body variable: read this position of the trigger key.
    Key(u32),
}

/// A compiled body atom template: grounds one body atom from a trigger
/// key. The grounded body is the firing's *support set* — the atoms whose
/// presence witnessed it — which the dependency index and certificate
/// pruning rebuild per firing.
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
    /// Body slots in ascending variable order — the trigger-key order
    /// ([`Tgd::body_vars`]).
    pub key_slots: Vec<usize>,
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
        let body_vars = tgd.body_vars();
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
                        Term::Var(v) => BodyArg::Key(
                            body_vars.binary_search(&v).expect("a body variable") as u32,
                        ),
                    })
                    .collect(),
            })
            .collect();
        let key_slots = body_vars
            .iter()
            .map(|&v| body.slot_of(v).expect("body vars are interned"))
            .collect();
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

    /// Fires the trigger witnessed by `row`: instantiates the head with
    /// fresh nulls for the existential variables (allocated in ascending
    /// variable order, like the legacy engine, and left in `nulls`) and
    /// leaves the head atoms, in head order, in `out`. Both buffers are
    /// overwritten: `out`'s atoms are regrounded in place, so a buffer
    /// reused across firings allocates only when a head outgrows it.
    pub fn fire_row(&self, row: &[Value], nulls: &mut Vec<Value>, out: &mut Vec<GroundAtom>) {
        obs::count(obs::Metric::NullsCreated, self.n_exist as u64);
        nulls.clear();
        nulls.extend((0..self.n_exist).map(|_| Value::fresh_null()));
        out.truncate(self.head.len());
        for (k, atom) in self.head.iter().enumerate() {
            let args = atom.args.iter().map(|a| match *a {
                HeadArg::Const(c) => c,
                HeadArg::Body(s) => row[s as usize],
                HeadArg::Exist(i) => nulls[i as usize],
            });
            match out.get_mut(k) {
                Some(g) => {
                    g.predicate = atom.predicate;
                    g.args.clear();
                    g.args.extend(args);
                }
                None => out.push(GroundAtom::new(atom.predicate, args.collect())),
            }
        }
    }

    /// Grounds the body atoms of the firing with trigger key `key`, in
    /// body order — its support set. The key is the whole body valuation
    /// (each body variable at its ascending-order position), so this
    /// needs nothing else.
    pub fn body_from_key(&self, key: &[Value]) -> Vec<GroundAtom> {
        let mut body = Vec::new();
        self.body_into(key, &mut body);
        body
    }

    /// [`TriggerPlan::body_from_key`] into a reused buffer: `out`'s atoms
    /// are regrounded in place, as in [`TriggerPlan::fire_row`], so a
    /// buffer reused across firings allocates only when a body outgrows
    /// it.
    pub fn body_into(&self, key: &[Value], out: &mut Vec<GroundAtom>) {
        debug_assert_eq!(key.len(), self.key_slots.len());
        out.truncate(self.body_atoms.len());
        for (k, atom) in self.body_atoms.iter().enumerate() {
            let args = atom.args.iter().map(|t| match *t {
                BodyArg::Const(c) => c,
                BodyArg::Key(i) => key[i as usize],
            });
            match out.get_mut(k) {
                Some(g) => {
                    g.predicate = atom.predicate;
                    g.args.clear();
                    g.args.extend(args);
                }
                None => out.push(GroundAtom::new(atom.predicate, args.collect())),
            }
        }
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
    fn body_from_key_grounds_the_body_of_a_fired_row() {
        // A shared variable and a constant: the key holds each variable
        // once, the body repeats X and carries `red`.
        let tgds = parse_tgds("R(Y,X), S(X,Z,red) -> T(X)").unwrap();
        let plan = TriggerPlan::new(&tgds[0], 0);
        let row = [v("a"), v("b"), v("c")];
        let body = plan.body_from_key(&plan.trigger_key(&row));
        assert_eq!(body.len(), 2);
        assert_eq!(body[0], GroundAtom::named("R", &["a", "b"]));
        assert_eq!(body[1], GroundAtom::named("S", &["b", "c", "red"]));
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
