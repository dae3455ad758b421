//! Answer certificates: self-contained, re-checkable evidence that a tuple
//! is a certain answer.
//!
//! A [`Certificate`] bundles everything an independent verifier needs to
//! re-derive one answer by naive substitution alone:
//!
//! * the database facts (the axioms of the derivation),
//! * the TGDs, with variables as dense indices,
//! * a chain of trigger firings — each names a TGD and a full valuation
//!   (body variables to their images, existential variables to the fresh
//!   nulls the chase invented) — pruned backward from the answer so only
//!   firings the answer actually depends on remain,
//! * the query, the witnessing homomorphism, and the answer tuple.
//!
//! The [`CertificateStore`] builds certificates from the chase's firing
//! log — the [`Firing`] records of a certified run
//! ([`crate::runner::ChaseRunner::certify`]) or the alive firings of a
//! maintained instance ([`crate::MaintainedInstance::alive_firings`]) —
//! plus per-answer witnesses
//! ([`gtgd_query::PreparedQuery::answer_witnesses`]). A [`Firing`] stores
//! only its trigger key and its fresh nulls: pruning re-grounds its head
//! from both and its body from the key, as the dependency index does, and
//! serialization writes its valuation as the body variables bound to the
//! key, then the existential variables bound to the nulls. Soundness does
//! not depend on the chase having terminated: every firing chain derives
//! atoms that hold in *every* model of the database and the TGDs
//! (existential bindings are checked fresh, so they behave as the
//! universally valid Skolem witnesses of the paper's chase, Section 2),
//! hence a null-free answer backed by a chain is a certain answer even
//! over a budget-stopped prefix. Completeness — that every certain answer is certified — is
//! exactly the chase-termination question and is *not* claimed here.
//!
//! Serialization is the hand-rolled std-only JSON of the workspace
//! (strings escaped by [`gtgd_data::json::escape`]): values are encoded as
//! `"c:<name>"` (named constant) / `"n:<id>"` (labelled null), variables
//! as `"v:<index>"`, atoms as `["Pred", term...]` arrays. The schema is
//! what the standalone `gtgd-check` crate parses; the two ends share
//! nothing but this format.

use crate::plan::{Firing, TriggerPlan};
use crate::tgd::Tgd;
use gtgd_data::json::escape;
use gtgd_data::{GroundAtom, Instance, Value};
use gtgd_query::{Cq, Engine, QAtom, Strategy, Term, Var};
use std::collections::HashSet;

/// Proof-carrying evidence for one answer tuple. Build with
/// [`CertificateStore::certificate`]; serialize with
/// [`Certificate::to_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The database facts, sorted (identical across engines for the same
    /// database, whatever order each engine fired in).
    pub facts: Vec<GroundAtom>,
    /// The TGDs of the run (all of them — firing records index into this
    /// list).
    pub tgds: Vec<Tgd>,
    /// The firing chain the answer depends on, in chase order.
    pub firings: Vec<Firing>,
    /// The query atoms.
    pub query: Vec<QAtom>,
    /// The query's answer variables.
    pub answer_vars: Vec<Var>,
    /// The witnessing homomorphism: every query variable to its image.
    pub hom: Vec<(Var, Value)>,
    /// The certified answer tuple (null-free).
    pub answer: Vec<Value>,
}

/// Builds certificates for the answers of one certified chase run.
#[derive(Debug, Clone)]
pub struct CertificateStore<'a> {
    tgds: &'a [Tgd],
    /// The rules compiled, for re-grounding firings' bodies and heads.
    plans: Vec<TriggerPlan>,
    firings: Vec<Firing>,
    facts: Vec<GroundAtom>,
    fact_set: HashSet<GroundAtom>,
}

impl<'a> CertificateStore<'a> {
    /// A store over the original database `db` (not the chased instance),
    /// the rule set, and a firing log over them in firing order: a
    /// certified run's ([`crate::ChaseResult::firings`]) or a maintained
    /// instance's alive firings ([`crate::MaintainedInstance::alive_firings`]).
    pub fn new(db: &Instance, tgds: &'a [Tgd], firings: Vec<Firing>) -> CertificateStore<'a> {
        let mut facts: Vec<GroundAtom> = db.iter().cloned().collect();
        facts.sort();
        let fact_set = facts.iter().cloned().collect();
        CertificateStore {
            tgds,
            plans: TriggerPlan::compile_all(tgds),
            firings,
            facts,
            fact_set,
        }
    }

    /// The certificate for one answer of `q`, witnessed by `hom` (a total
    /// map on the query's variables, as produced by
    /// [`gtgd_query::PreparedQuery::answer_witnesses`]). The firing chain
    /// is pruned backward from the answer: a firing is kept only if it
    /// produces an atom the witness (or a kept later firing's body) needs
    /// beyond the database facts.
    ///
    /// Panics if `hom` leaves a query variable unbound — certificates for
    /// partial witnesses would be vacuous.
    pub fn certificate(&self, q: &Cq, hom: &[(Var, Value)], answer: &[Value]) -> Certificate {
        let mut needed: HashSet<GroundAtom> = q
            .atoms
            .iter()
            .map(|a| ground(a, |v| image(hom, v)))
            .filter(|a| !self.fact_set.contains(a))
            .collect();
        let mut kept: Vec<Firing> = Vec::new();
        let (mut body, mut head) = (Vec::new(), Vec::new());
        for f in self.firings.iter().rev() {
            let plan = &self.plans[f.tgd];
            plan.head_into(&f.key, &f.nulls, &mut head);
            if !head.iter().any(|a| needed.contains(a)) {
                continue;
            }
            for a in &head {
                needed.remove(a);
            }
            plan.body_into(&f.key, &mut body);
            for g in &body {
                if !self.fact_set.contains(g) {
                    needed.insert(g.clone());
                }
            }
            kept.push(f.clone());
        }
        kept.reverse();
        Certificate {
            facts: self.facts.clone(),
            tgds: self.tgds.to_vec(),
            firings: kept,
            query: q.atoms.clone(),
            answer_vars: q.answer_vars.clone(),
            hom: hom.to_vec(),
            answer: answer.to_vec(),
        }
    }

    /// Certificates for every *null-free* answer of `q` over `instance`
    /// (the chased instance), evaluated with `strategy`. Null-containing
    /// tuples are witnesses about invented values, not certain answers,
    /// so they carry no certificate and are skipped.
    pub fn certify_answers(
        &self,
        q: &Cq,
        instance: &Instance,
        strategy: Strategy,
    ) -> Vec<Certificate> {
        Engine::prepare(q)
            .strategy(strategy)
            .answer_witnesses(instance)
            .into_iter()
            .filter(|(answer, _)| answer.iter().all(|v| v.is_named()))
            .map(|(answer, hom)| self.certificate(q, &hom, &answer))
            .collect()
    }
}

fn image(hom: &[(Var, Value)], v: Var) -> Value {
    hom.iter()
        .find(|(u, _)| *u == v)
        .expect("witness binds every query variable")
        .1
}

/// The full valuation of firing `f` of `tgd`, as certificates state it:
/// the body variables in ascending order paired with the trigger key, then
/// the existential variables in ascending order paired with its nulls.
fn valuation(f: &Firing, tgd: &Tgd) -> Vec<(Var, Value)> {
    let body = tgd.body_vars().into_iter().zip(f.key.iter().copied());
    let exist = tgd
        .existential_vars()
        .into_iter()
        .zip(f.nulls.iter().copied());
    body.chain(exist).collect()
}

fn ground(a: &QAtom, f: impl Fn(Var) -> Value) -> GroundAtom {
    GroundAtom::new(
        a.predicate,
        a.args
            .iter()
            .map(|t| match *t {
                Term::Const(c) => c,
                Term::Var(v) => f(v),
            })
            .collect(),
    )
}

// --- JSON emission (the `gtgd-check` wire format) ---

fn enc_value(v: Value) -> String {
    match v {
        Value::Named(s) => format!("\"c:{}\"", escape(&s.name())),
        Value::Null(n) => format!("\"n:{n}\""),
    }
}

fn enc_var(v: usize) -> String {
    format!("\"v:{v}\"")
}

fn enc_term(t: &Term) -> String {
    match *t {
        Term::Var(v) => enc_var(v.index()),
        Term::Const(c) => enc_value(c),
    }
}

fn enc_qatom(a: &QAtom) -> String {
    let mut parts = vec![format!("\"{}\"", escape(&a.predicate.name()))];
    parts.extend(a.args.iter().map(enc_term));
    format!("[{}]", parts.join(","))
}

fn enc_ground_atom(a: &GroundAtom) -> String {
    let mut parts = vec![format!("\"{}\"", escape(&a.predicate.name()))];
    parts.extend(a.args.iter().map(|&v| enc_value(v)));
    format!("[{}]", parts.join(","))
}

fn enc_atoms(atoms: &[QAtom]) -> String {
    let items: Vec<String> = atoms.iter().map(enc_qatom).collect();
    format!("[{}]", items.join(","))
}

impl Certificate {
    /// One compact JSON object per certificate — the format `gtgd-check`
    /// parses. Single-line so a stream of certificates pipes as JSON
    /// lines or wraps in a plain array.
    pub fn to_json(&self) -> String {
        let facts: Vec<String> = self.facts.iter().map(enc_ground_atom).collect();
        let tgds: Vec<String> = self
            .tgds
            .iter()
            .map(|t| {
                format!(
                    "{{\"body\":{},\"head\":{}}}",
                    enc_atoms(&t.body),
                    enc_atoms(&t.head)
                )
            })
            .collect();
        let firings: Vec<String> = self
            .firings
            .iter()
            .map(|f| {
                let val: Vec<String> = valuation(f, &self.tgds[f.tgd])
                    .into_iter()
                    .map(|(v, x)| format!("[{},{}]", enc_var(v.index()), enc_value(x)))
                    .collect();
                format!("{{\"tgd\":{},\"val\":[{}]}}", f.tgd, val.join(","))
            })
            .collect();
        let hom: Vec<String> = self
            .hom
            .iter()
            .map(|&(v, x)| format!("[{},{}]", enc_var(v.index()), enc_value(x)))
            .collect();
        let answer_vars: Vec<String> = self
            .answer_vars
            .iter()
            .map(|v| enc_var(v.index()))
            .collect();
        let answer: Vec<String> = self.answer.iter().map(|&v| enc_value(v)).collect();
        format!(
            "{{\"version\":1,\"facts\":[{}],\"tgds\":[{}],\"firings\":[{}],\"query\":{},\"answer_vars\":[{}],\"hom\":[{}],\"answer\":[{}]}}",
            facts.join(","),
            tgds.join(","),
            firings.join(","),
            enc_atoms(&self.query),
            answer_vars.join(","),
            hom.join(","),
            answer.join(","),
        )
    }
}

/// Renders a batch of certificates as one JSON array (the `gtgd --certify`
/// stdout format).
pub fn certificates_to_json(certs: &[Certificate]) -> String {
    let items: Vec<String> = certs.iter().map(|c| c.to_json()).collect();
    format!("[{}]", items.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ChaseRunner;
    use crate::tgd::parse_tgds;
    use gtgd_query::parse_cq;

    fn setup() -> (Vec<Tgd>, Instance) {
        let tgds = parse_tgds("A(X) -> B(X). B(X) -> R(X,Y). R(X,Y), A(X) -> B(Y).").unwrap();
        let db = Instance::from_atoms([
            GroundAtom::named("A", &["a"]),
            GroundAtom::named("A", &["b"]),
        ]);
        (tgds, db)
    }

    #[test]
    fn pruning_keeps_only_the_needed_chain() {
        let (tgds, db) = setup();
        let outcome = ChaseRunner::new(&tgds)
            .budget(crate::engine::ChaseBudget::levels(3))
            .certify(true)
            .run(&db);
        let store = CertificateStore::new(&db, &tgds, outcome.firings.unwrap());
        // B(a) needs exactly one firing (rule 0 on a), not b's derivations.
        let q = parse_cq("Q(X) :- B(X)").unwrap();
        let certs = store.certify_answers(&q, &outcome.instance, Strategy::Backtrack);
        let a = Value::named("a");
        let cert = certs.iter().find(|c| c.answer == [a]).expect("B(a) holds");
        assert_eq!(cert.firings.len(), 1);
        assert_eq!(cert.firings[0].tgd, 0);
        assert_eq!(cert.firings[0].key, vec![a]);
    }

    #[test]
    fn database_only_answers_have_empty_chains() {
        let (tgds, db) = setup();
        let outcome = ChaseRunner::new(&tgds)
            .budget(crate::engine::ChaseBudget::levels(2))
            .certify(true)
            .run(&db);
        let store = CertificateStore::new(&db, &tgds, outcome.firings.unwrap());
        let q = parse_cq("Q(X) :- A(X)").unwrap();
        let certs = store.certify_answers(&q, &outcome.instance, Strategy::Backtrack);
        assert_eq!(certs.len(), 2);
        assert!(certs.iter().all(|c| c.firings.is_empty()));
    }

    #[test]
    fn null_answers_are_not_certified() {
        let (tgds, db) = setup();
        let outcome = ChaseRunner::new(&tgds)
            .budget(crate::engine::ChaseBudget::levels(2))
            .certify(true)
            .run(&db);
        let store = CertificateStore::new(&db, &tgds, outcome.firings.unwrap());
        // R's second column is always a fresh null here.
        let q = parse_cq("Q(X,Y) :- R(X,Y)").unwrap();
        let certs = store.certify_answers(&q, &outcome.instance, Strategy::Backtrack);
        assert!(certs.is_empty());
    }

    #[test]
    fn json_shape_is_stable() {
        let (tgds, db) = setup();
        let outcome = ChaseRunner::new(&tgds)
            .budget(crate::engine::ChaseBudget::levels(2))
            .certify(true)
            .run(&db);
        let store = CertificateStore::new(&db, &tgds, outcome.firings.unwrap());
        let q = parse_cq("Q(X) :- B(X)").unwrap();
        let certs = store.certify_answers(&q, &outcome.instance, Strategy::Backtrack);
        let json = certs[0].to_json();
        assert!(json.starts_with("{\"version\":1,\"facts\":[[\"A\",\"c:a\"]"));
        assert!(json.contains("\"tgds\":[{\"body\":[[\"A\",\"v:0\"]],\"head\":[[\"B\",\"v:0\"]]}"));
        assert!(json.contains("\"answer_vars\":[\"v:0\"]"));
        let wrapped = certificates_to_json(&certs);
        assert!(wrapped.starts_with('[') && wrapped.ends_with(']'));
    }

    #[test]
    fn valuations_recover_nulls_from_head_positions() {
        // `A(X) -> R(X,Z), S(Z,Y), T(Y,Y)` with X = v0, Y = v1, Z = v2: the
        // existentials occur out of variable order (Z first), Y only from
        // the second head atom on, and twice in the third.
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let atom = |p: &str, args: &[Var]| {
            QAtom::new(
                gtgd_data::Predicate::new(p),
                args.iter().map(|&v| Term::Var(v)).collect(),
            )
        };
        let tgds = vec![Tgd::new(
            vec!["X".into(), "Y".into(), "Z".into()],
            vec![atom("A", &[x])],
            vec![atom("R", &[x, z]), atom("S", &[z, y]), atom("T", &[y, y])],
        )];
        let db = Instance::from_atoms([GroundAtom::named("A", &["a"])]);
        let outcome = ChaseRunner::new(&tgds).certify(true).run(&db);
        let firings = outcome.firings.unwrap();
        assert_eq!(firings.len(), 1);
        // The nulls as the products in the chased instance hold them.
        let arg = |p: &str, i: usize| {
            let p = gtgd_data::Predicate::new(p);
            outcome
                .instance
                .iter()
                .find(|a| a.predicate == p)
                .unwrap()
                .args[i]
        };
        let (null_y, null_z) = (arg("S", 1), arg("R", 1));
        assert!(matches!(null_y, Value::Null(_)) && matches!(null_z, Value::Null(_)));
        assert_ne!(null_y, null_z);
        assert_eq!(
            valuation(&firings[0], &tgds[0]),
            vec![(x, Value::named("a")), (y, null_y), (z, null_z)]
        );

        let store = CertificateStore::new(&db, &tgds, firings);
        let q = parse_cq("Q(X) :- R(X,Z), S(Z,Y), T(Y,Y)").unwrap();
        let certs = store.certify_answers(&q, &outcome.instance, Strategy::Backtrack);
        assert_eq!(certs.len(), 1);
        let parsed = gtgd_check::Certificate::from_json(&certs[0].to_json()).unwrap();
        assert_eq!(gtgd_check::check(&parsed), Ok(()));
    }
}
