//! Cached trigger plans: each TGD compiled once per chase run, and the
//! one record of a trigger firing.
//!
//! A [`TriggerPlan`] compiles the body and head of a TGD once, up front:
//!
//! * the **body plan** ([`CompiledQuery`]) is probed every round with each
//!   body atom pinned to the delta via
//!   [`gtgd_query::KernelSearch::for_each_pinned_row`], so no atom list is
//!   cloned;
//! * the **trigger key** (the body-variable images that name a
//!   [`Firing`]) is read straight out of the kernel row via precomputed
//!   slots, in ascending-variable order;
//! * the **atom templates** ([`AtomTemplate`]) of the body and the head
//!   ground atoms from a trigger key and a firing's fresh nulls through
//!   one loop. Firing grounds the head from the kernel row and nulls
//!   minted in ascending existential-variable order; the dependency index
//!   and certificate pruning re-ground a logged firing's body (its support
//!   set) and head (its products) from its key and nulls;
//! * the **head satisfaction check** of the restricted chase is a compiled
//!   head query with the frontier slots pre-linked to body slots.

use crate::tgd::Tgd;
use gtgd_data::{obs, GroundAtom, Instance, Predicate, Value};
use gtgd_query::{CompiledQuery, QAtom, Term};

/// One trigger firing `(σ, h)` of the oblivious or restricted chase: the
/// rule, the body images of `h`, and the fresh nulls the firing minted.
/// A log of these is the chase's one firing record: a certified run
/// returns its log ([`crate::ChaseRunner::certify`]), the dependency index
/// of [`crate::MaintainedInstance`] keeps one, and certificates are pruned
/// from either.
///
/// Neither the body atoms nor the head atoms are stored: the key binds
/// every body variable and `nulls` every existential one, so the rule's
/// body and head are ground by substituting them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// Index of the TGD in the rule set the chase ran.
    pub tgd: usize,
    /// The trigger key: the body-variable images in ascending variable
    /// order ([`Tgd::body_vars`]).
    pub key: Vec<Value>,
    /// The fresh nulls the firing minted, one per existential variable in
    /// ascending variable order ([`Tgd::existential_vars`]); empty for a
    /// full TGD.
    pub nulls: Vec<Value>,
}

/// One argument of an [`AtomTemplate`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arg {
    /// A constant from the TGD.
    Const(Value),
    /// A body variable: the `i`-th value of the trigger key.
    Key(u32),
    /// An existential variable: the `i`-th fresh null of the firing.
    Null(u32),
}

/// A compiled body or head atom of a TGD, ground from a trigger key and a
/// firing's fresh nulls.
#[derive(Debug, Clone)]
pub(crate) struct AtomTemplate {
    pub predicate: Predicate,
    pub args: Vec<Arg>,
}

/// Grounds `templates` into `out`, in order, reading `Key(i)` as `key(i)`
/// and `Null(i)` as `nulls[i]`. `out`'s atoms are regrounded in place, so
/// a buffer reused across firings allocates only when an atom list
/// outgrows it.
fn ground_into(
    templates: &[AtomTemplate],
    key: impl Fn(usize) -> Value,
    nulls: &[Value],
    out: &mut Vec<GroundAtom>,
) {
    out.truncate(templates.len());
    for (k, atom) in templates.iter().enumerate() {
        let args = atom.args.iter().map(|a| match *a {
            Arg::Const(c) => c,
            Arg::Key(i) => key(i as usize),
            Arg::Null(i) => nulls[i as usize],
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

/// A TGD compiled for repeated trigger search and firing.
#[derive(Debug, Clone)]
pub(crate) struct TriggerPlan {
    /// Index of the TGD in the rule set (names the rule in [`Firing`]
    /// records).
    pub index: usize,
    /// The compiled body (one slot per body variable).
    pub body: CompiledQuery,
    /// The body atom templates, in body order.
    pub body_atoms: Vec<AtomTemplate>,
    /// Body slots in ascending variable order — the trigger-key order
    /// ([`Tgd::body_vars`]).
    pub key_slots: Vec<usize>,
    /// The head atom templates, in head order.
    pub head: Vec<AtomTemplate>,
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
        let (body_vars, exist) = (tgd.body_vars(), tgd.existential_vars());
        let templates = |atoms: &[QAtom]| -> Vec<AtomTemplate> {
            atoms
                .iter()
                .map(|a| AtomTemplate {
                    predicate: a.predicate,
                    args: (a.args.iter())
                        .map(|t| match *t {
                            Term::Const(c) => Arg::Const(c),
                            Term::Var(v) => match body_vars.binary_search(&v) {
                                Ok(i) => Arg::Key(i as u32),
                                Err(_) => Arg::Null(
                                    exist.binary_search(&v).expect("an existential") as u32,
                                ),
                            },
                        })
                        .collect(),
                })
                .collect()
        };
        let (body_atoms, head) = (templates(&tgd.body), templates(&tgd.head));
        let key_slots = body_vars
            .iter()
            .map(|&v| body.slot_of(v).expect("body vars are interned"))
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

    /// Fires the trigger witnessed by `row`: mints fresh nulls for the
    /// existential variables (in ascending variable order, left in
    /// `nulls`) and grounds the head atoms, in head order, into `out`.
    /// Both buffers are overwritten; see [`ground_into`].
    pub fn fire_row(&self, row: &[Value], nulls: &mut Vec<Value>, out: &mut Vec<GroundAtom>) {
        obs::count(obs::Metric::NullsCreated, self.n_exist as u64);
        nulls.clear();
        nulls.extend((0..self.n_exist).map(|_| Value::fresh_null()));
        ground_into(&self.head, |i| row[self.key_slots[i]], nulls, out);
    }

    /// Grounds the body atoms of the firing with trigger key `key`, in
    /// body order (its support set), into a reused buffer.
    pub fn body_into(&self, key: &[Value], out: &mut Vec<GroundAtom>) {
        debug_assert_eq!(key.len(), self.key_slots.len());
        ground_into(&self.body_atoms, |i| key[i], &[], out);
    }

    /// Grounds the head atoms of the firing with trigger key `key` and
    /// fresh nulls `nulls`, in head order (its products), into a reused
    /// buffer.
    pub fn head_into(&self, key: &[Value], nulls: &[Value], out: &mut Vec<GroundAtom>) {
        debug_assert_eq!(nulls.len(), self.n_exist);
        ground_into(&self.head, |i| key[i], nulls, out);
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
    use gtgd_query::Var;

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
        let mut body = Vec::new();
        plan.body_into(&plan.trigger_key(&row), &mut body);
        assert_eq!(body.len(), 2);
        assert_eq!(body[0], GroundAtom::named("R", &["a", "b"]));
        assert_eq!(body[1], GroundAtom::named("S", &["b", "c", "red"]));
    }

    #[test]
    fn head_reground_from_key_and_nulls_is_the_fired_head() {
        // `A(X) -> R(X,Z), S(Z,Y), T(Y,Y)` with X = v0, Y = v1, Z = v2: the
        // existentials occur out of variable order (Z first), Y only from
        // the second head atom on, and twice in the third.
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let atom = |p: &str, args: &[Var]| {
            QAtom::new(
                Predicate::new(p),
                args.iter().map(|&v| Term::Var(v)).collect(),
            )
        };
        let tgd = Tgd::new(
            vec!["X".into(), "Y".into(), "Z".into()],
            vec![atom("A", &[x])],
            vec![atom("R", &[x, z]), atom("S", &[z, y]), atom("T", &[y, y])],
        );
        let plan = TriggerPlan::new(&tgd, 0);
        let row = [v("a")];
        let (mut nulls, mut fired) = (Vec::new(), Vec::new());
        plan.fire_row(&row, &mut nulls, &mut fired);
        // The nulls come in variable order: Y's, then Z's.
        assert_eq!(nulls, [fired[1].args[1], fired[0].args[1]]);
        // A reused buffer holding longer, unrelated atoms is overwritten.
        let mut head = vec![GroundAtom::named("Q", &["x", "y", "z"]); 4];
        plan.head_into(&plan.trigger_key(&row), &nulls, &mut head);
        assert_eq!(head, fired);
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
