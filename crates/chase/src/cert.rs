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
//! The [`CertificateStore`] builds certificates from a certified chase run
//! ([`crate::runner::ChaseRunner::certify`]) plus per-answer witnesses
//! ([`gtgd_query::PreparedQuery::answer_witnesses`]). Soundness does not
//! depend on the chase having terminated: every firing chain derives atoms
//! that hold in *every* model of the database and the TGDs (existential
//! bindings are checked fresh, so they behave as the universally valid
//! Skolem witnesses of the paper's chase, Section 2), hence a null-free
//! answer backed by a chain is a certain answer even over a budget-stopped
//! prefix. Completeness — that every certain answer is certified — is
//! exactly the chase-termination question and is *not* claimed here.
//!
//! Serialization is the hand-rolled std-only JSON of the workspace (see
//! `gtgd-bench::json`): values are encoded as `"c:<name>"` (named
//! constant) / `"n:<id>"` (labelled null), variables as `"v:<index>"`,
//! atoms as `["Pred", term...]` arrays. The schema is what the standalone
//! `gtgd-check` crate parses; the two ends share nothing but this format.

use crate::engine::FiringObserver;
use crate::plan::TriggerPlan;
use crate::tgd::Tgd;
use gtgd_data::{GroundAtom, Instance, Value};
use gtgd_query::{Cq, Engine, QAtom, Strategy, Term, Var};
use std::collections::HashSet;

/// One trigger firing of a certified run: the `tgd`-th rule fired under
/// `val`, producing `atoms`. Replaying a run's records by naive
/// substitution re-derives exactly the chase-added atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiringRecord {
    /// Index of the TGD in the rule set the chase ran.
    pub tgd: usize,
    /// The full valuation: body variables (the trigger's homomorphism, in
    /// ascending variable order) followed by existential variables bound to
    /// the fresh nulls this firing invented. Pairs are `(variable index,
    /// value)`.
    pub val: Vec<(u32, Value)>,
    /// The ground head atoms the firing produced (whether or not the
    /// instance already contained them).
    pub atoms: Vec<GroundAtom>,
}

/// A certified run's firing log: one record per firing, in firing order.
impl FiringObserver for Vec<FiringRecord> {
    fn fired(
        &mut self,
        plan: &TriggerPlan,
        row: &[Value],
        nulls: &[Value],
        products: &[GroundAtom],
    ) {
        let val = plan
            .key_vars
            .iter()
            .zip(&plan.key_slots)
            .map(|(&v, &s)| (v, row[s]))
            .chain(plan.exist_vars.iter().zip(nulls).map(|(&v, &n)| (v, n)))
            .collect();
        self.push(FiringRecord {
            tgd: plan.index,
            val,
            atoms: products.to_vec(),
        });
    }
}

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
    pub firings: Vec<FiringRecord>,
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
    firings: Vec<FiringRecord>,
    facts: Vec<GroundAtom>,
    fact_set: HashSet<GroundAtom>,
}

impl<'a> CertificateStore<'a> {
    /// A store over the original database `db` (not the chased instance),
    /// the rule set, and the firing log of a certified run
    /// ([`crate::runner::ChaseOutcome::firings`]).
    pub fn new(db: &Instance, tgds: &'a [Tgd], firings: Vec<FiringRecord>) -> CertificateStore<'a> {
        let mut facts: Vec<GroundAtom> = db.iter().cloned().collect();
        facts.sort();
        let fact_set = facts.iter().cloned().collect();
        CertificateStore {
            tgds,
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
        let mut kept: Vec<FiringRecord> = Vec::new();
        for f in self.firings.iter().rev() {
            if !f.atoms.iter().any(|a| needed.contains(a)) {
                continue;
            }
            for a in &f.atoms {
                needed.remove(a);
            }
            for a in &self.tgds[f.tgd].body {
                let g = ground(a, |v| image_idx(&f.val, v));
                if !self.fact_set.contains(&g) {
                    needed.insert(g);
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

fn image_idx(val: &[(u32, Value)], v: Var) -> Value {
    val.iter()
        .find(|(u, _)| *u as usize == v.index())
        .expect("firing valuation binds every rule variable")
        .1
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

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn enc_value(v: Value) -> String {
    match v {
        Value::Named(s) => format!("\"c:{}\"", esc(&s.name())),
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
    let mut parts = vec![format!("\"{}\"", esc(&a.predicate.name()))];
    parts.extend(a.args.iter().map(enc_term));
    format!("[{}]", parts.join(","))
}

fn enc_ground_atom(a: &GroundAtom) -> String {
    let mut parts = vec![format!("\"{}\"", esc(&a.predicate.name()))];
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
                let val: Vec<String> = f
                    .val
                    .iter()
                    .map(|&(v, x)| format!("[{},{}]", enc_var(v as usize), enc_value(x)))
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
        assert_eq!(cert.firings[0].val, vec![(0, a)]);
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
}
