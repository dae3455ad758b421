//! Differential testing of proof-carrying answers: on randomized guarded
//! TGD sets and databases, every null-free answer reported by every
//! {chase engine} × {join strategy} combination must round-trip through a
//! certificate the *independent* checker (`gtgd-check`, which shares no
//! code with the engines) accepts. This is a strictly stronger oracle
//! than the answer-set comparisons of the other differential suites:
//! equality of two engines' answers cannot catch a shared bug, but a
//! fail-closed replay from the stated facts can.
//!
//! The suite also pins the cross-engine contract: certificates produced
//! by different engines for the same case state the identical fact base
//! (sorted database atoms), so a certificate is evidence about the
//! *database*, not about which engine happened to produce it.
//!
//! The firing log is one record shared by certified runs and the
//! maintained instance's dependency index, so the last case certifies
//! straight from a `MaintainedInstance`'s exported log across DRed.

use gtgd::chase::{CertificateStore, ChaseBudget, ChaseRunner, ChaseVariant, Tgd};
use gtgd::data::{GroundAtom, Instance, Rng, Value};
use gtgd::query::{parse_cq, Cq, Strategy};
use std::collections::BTreeSet;

/// The guarded rule templates of the chase differential suites.
fn rule_pool() -> Vec<Tgd> {
    gtgd::chase::parse_tgds(
        "A(X) -> B(X). \
         B(X) -> R(X,Y). \
         R(X,Y) -> S(Y,X). \
         R(X,Y), A(X) -> B(Y). \
         S(X,Y) -> A(X). \
         R(X,Y), B(Y) -> S(X,X). \
         B(X) -> A(X)",
    )
    .unwrap()
}

fn query_pool() -> Vec<Cq> {
    vec![
        parse_cq("Q(X) :- A(X)").unwrap(),
        parse_cq("Q(X) :- B(X)").unwrap(),
        parse_cq("Q(X) :- R(X,Y), S(Y,Z)").unwrap(),
        parse_cq("Q(X,Y) :- S(X,Y), A(X)").unwrap(),
    ]
}

fn arb_db(rng: &mut Rng) -> Instance {
    let k = rng.range(1, 9);
    Instance::from_atoms((0..k).map(|_| {
        let kind = rng.range(0, 3);
        let (a, b) = (rng.range(0, 4), rng.range(0, 4));
        match kind {
            0 => GroundAtom::named("A", &[&format!("c{a}")]),
            1 => GroundAtom::named("R", &[&format!("c{a}"), &format!("c{b}")]),
            _ => GroundAtom::named("S", &[&format!("c{a}"), &format!("c{b}")]),
        }
    }))
}

fn sigma_for_mask(pool: &[Tgd], mask: u8) -> Vec<Tgd> {
    pool.iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, t)| t.clone())
        .collect()
}

/// Every engine configuration the suite certifies under: the oblivious
/// and the restricted chase.
const ENGINE_CONFIGS: [(&str, ChaseVariant); 2] = [
    ("oblivious", ChaseVariant::Oblivious),
    ("restricted", ChaseVariant::Restricted),
];

/// 160 seeded cases × 2 engine configurations × both join strategies:
/// every null-free answer yields a checker-accepted certificate, and all
/// configurations state the same fact base.
#[test]
fn every_answer_round_trips_through_an_accepted_certificate() {
    let pool = rule_pool();
    let queries = query_pool();
    // Some rule subsets diverge; a levels cap bounds every engine — the
    // restricted chase included, which tracks per-atom derivation depth.
    // Certification is sound over any budget-truncated prefix, so stopping
    // early loses nothing.
    let budget = ChaseBudget::levels(4);
    let mut checked = 0usize;
    for case in 0u64..160 {
        let mask = (case % 128) as u8;
        let mut rng = Rng::seed(0xCE47 ^ case);
        let d = arb_db(&mut rng);
        let sigma = sigma_for_mask(&pool, mask);
        let mut fact_sections: Vec<String> = Vec::new();
        for (name, variant) in ENGINE_CONFIGS {
            let outcome = ChaseRunner::new(&sigma)
                .variant(variant)
                .budget(budget)
                .certify(true)
                .run(&d);
            let firings = outcome.firings.expect("certified run records firings");
            let store = CertificateStore::new(&d, &sigma, firings);
            for q in &queries {
                for strategy in [Strategy::Backtrack, Strategy::Wcoj] {
                    let certs = store.certify_answers(q, &outcome.instance, strategy);
                    // The engine's own answer view: certify_answers must
                    // cover exactly the null-free answers.
                    let null_free = gtgd::query::Engine::prepare(q)
                        .strategy(strategy)
                        .answers(&outcome.instance)
                        .into_iter()
                        .filter(|t| t.iter().all(|v| v.is_named()))
                        .count();
                    assert_eq!(
                        certs.len(),
                        null_free,
                        "case {case} {name} {strategy:?} {q}: missing certificates"
                    );
                    for cert in &certs {
                        let json = cert.to_json();
                        let parsed =
                            gtgd_check::Certificate::from_json(&json).unwrap_or_else(|e| {
                                panic!("case {case} {name} {strategy:?}: unparsable: {e}")
                            });
                        if let Err(e) = gtgd_check::check(&parsed) {
                            panic!("case {case} {name} {strategy:?} {q}: rejected: {e}\n{json}");
                        }
                        fact_sections.push(
                            json.split("\"tgds\"")
                                .next()
                                .expect("facts prefix")
                                .to_string(),
                        );
                        checked += 1;
                    }
                }
            }
        }
        // Same case ⇒ same stated fact base, whatever engine or strategy
        // produced the certificate.
        if let Some(first) = fact_sections.first() {
            assert!(
                fact_sections.iter().all(|s| s == first),
                "case {case}: fact bases differ across engines"
            );
        }
    }
    assert!(
        checked > 1000,
        "suite must exercise a meaningful number of certificates, got {checked}"
    );
}

/// The batch forms round-trip too: a whole case's certificates serialized
/// as one array are accepted wholesale by the checker's batch entry point.
#[test]
fn certificate_batches_round_trip() {
    let pool = rule_pool();
    let budget = ChaseBudget {
        max_level: Some(4),
        max_atoms: Some(2_000),
    };
    for case in [3u64, 41, 77, 123] {
        let mask = (case % 128) as u8;
        let mut rng = Rng::seed(0xCE47 ^ case);
        let d = arb_db(&mut rng);
        let sigma = sigma_for_mask(&pool, mask);
        let outcome = ChaseRunner::new(&sigma)
            .budget(budget)
            .certify(true)
            .run(&d);
        let store = CertificateStore::new(&d, &sigma, outcome.firings.unwrap());
        let mut certs = Vec::new();
        for q in query_pool() {
            certs.extend(store.certify_answers(&q, &outcome.instance, Strategy::Backtrack));
        }
        let json = gtgd::chase::certificates_to_json(&certs);
        assert_eq!(gtgd_check::check_all(&json), Ok(certs.len()), "case {case}");
    }
}

/// The weakly acyclic pool of `differential_maintenance`: every subset
/// has a terminating oblivious chase, `A(X) -> R(X,Y)` is the only
/// null-creating rule, and the two-atom body gives firings more than one
/// support to die through.
fn terminating_pool() -> Vec<Tgd> {
    gtgd::chase::parse_tgds(
        "A(X) -> B(X). \
         B(X) -> C(X). \
         A(X) -> R(X,Y). \
         R(X,Y) -> S(Y,X). \
         R(X,Y), B(X) -> T(X,Y). \
         S(X,Y) -> U(Y). \
         T(X,Y) -> S(X,Y)",
    )
    .unwrap()
}

/// The certified null-free answers of every query, as `(query, answer)`
/// pairs, from `store` over `instance`; each certificate must be accepted
/// by the independent checker.
fn certified_answers(
    store: &CertificateStore,
    instance: &Instance,
    queries: &[Cq],
    ctx: &str,
) -> BTreeSet<(usize, Vec<Value>)> {
    let mut answers = BTreeSet::new();
    for (qi, q) in queries.iter().enumerate() {
        for cert in store.certify_answers(q, instance, Strategy::Auto) {
            let json = cert.to_json();
            let parsed = gtgd_check::Certificate::from_json(&json)
                .unwrap_or_else(|e| panic!("{ctx} {q}: unparsable: {e}"));
            if let Err(e) = gtgd_check::check(&parsed) {
                panic!("{ctx} {q}: rejected: {e}\n{json}");
            }
            answers.insert((qi, cert.answer));
        }
    }
    answers
}

/// One firing log serves both readers across DRed: seeded insert/retract
/// scripts over the terminating pool, and after every operation a
/// certificate store built from the maintained instance's exported state
/// (its base facts as the database, its alive firings as the log). Every
/// certificate must be accepted, and the certified answers must equal
/// those of a certified re-chase of the base. This pins that the alive
/// firings stay in derivation order through over-delete, rescue,
/// re-derive and compaction.
#[test]
fn maintained_firing_logs_certify_across_dred() {
    let pool = terminating_pool();
    let queries: Vec<Cq> = [
        "Q(X) :- B(X)",
        "Q(X) :- C(X), A(X)",
        "Q(X,Y) :- R(X,Y), S(Y,X)",
        "Q(Y) :- T(X,Y), U(Y)",
        "Q(X) :- S(X,Y)",
    ]
    .iter()
    .map(|src| parse_cq(src).unwrap())
    .collect();
    let (mut checked, mut rescues) = (0usize, 0usize);
    for case in 0u64..128 {
        let mut rng = Rng::seed(0xF1E1D ^ case);
        let sigma = sigma_for_mask(&pool, (case % 127 + 1) as u8);
        let atoms: Vec<GroundAtom> = arb_db(&mut rng).iter().cloned().collect();
        let mut base: Vec<GroundAtom> = atoms[..atoms.len().div_ceil(2)].to_vec();
        let mut m = ChaseRunner::new(&sigma).maintain(&Instance::from_atoms(base.clone()));
        for step in 0..12 {
            let ctx = format!("case {case} step {step}");
            if base.is_empty() || rng.chance(0.5) {
                let a = atoms[rng.range(0, atoms.len())].clone();
                if !base.contains(&a) {
                    base.push(a.clone());
                }
                m.insert([a]);
            } else {
                let n = rng.range(1, base.len().min(2) + 1);
                let victims: Vec<GroundAtom> = (0..n)
                    .map(|_| base.swap_remove(rng.range(0, base.len())))
                    .collect();
                rescues += usize::from(m.retract(victims).atoms_rederived > 0);
            }
            let db = Instance::from_atoms(m.base_facts().cloned());
            let store = CertificateStore::new(&db, &sigma, m.alive_firings().cloned().collect());
            let maintained = certified_answers(&store, m.instance(), &queries, &ctx);
            let scratch = ChaseRunner::new(&sigma).certify(true).run(&db);
            assert!(scratch.complete, "{ctx}: terminating pool");
            let store = CertificateStore::new(&db, &sigma, scratch.firings.unwrap());
            let rechased = certified_answers(&store, &scratch.instance, &queries, &ctx);
            assert_eq!(maintained, rechased, "{ctx}: certified answers");
            checked += maintained.len();
        }
    }
    assert!(checked > 1500, "only {checked} certificates checked");
    assert!(rescues > 10, "only {rescues} retractions rescued an atom");
}
