//! Differential testing of incremental materialization: a
//! [`MaintainedInstance`] driven through seeded random scripts of
//! `insert` / `retract` operations must agree — after *every* operation —
//! with a from-scratch oblivious re-chase of its current base, under
//! four oracles at once:
//!
//! * **instance isomorphism** (`instance_isomorphic`): the maintained
//!   fixpoint and the re-chased fixpoint are identical up to null
//!   renaming;
//! * **the firing log**: the maintained state's alive firings
//!   (`export_state().firings`) are as many as a certified re-chase
//!   records, rule by rule — every trigger of the fixpoint fired exactly
//!   once, with no stale firing left behind by DRed;
//! * **query answers**: prepared queries — compiled *once*, before any
//!   maintenance, under both join strategies — return the same null-free
//!   answer set and the same total answer count on the maintained
//!   instance as on the re-chase (answers over nulls can only differ by
//!   the renaming, so sets are compared on the named fragment and
//!   cardinality on the whole);
//! * **base-fact bookkeeping**: the maintained base always equals the
//!   script's own ledger.
//!
//! The rule pool is weakly acyclic (no existential position feeds a rule
//! that creates existentials), so every rule subset terminates and the
//! differential contract is over true fixpoints, never truncations.
//! Scripts come in three shapes per the case index: insert-only (grow
//! from a seed base), retract-only (shrink from the full base), and
//! interleaved (random walks that also re-assert previously retracted
//! facts, exercising DRed rescue followed by re-fire).

use gtgd::chase::{parse_tgds, ChaseRunner, MaintainedInstance, Tgd};
use gtgd::data::{GroundAtom, Instance, Rng, Value};
use gtgd::query::{instance_isomorphic, parse_cq, Engine, PreparedQuery, Strategy};
use std::collections::HashSet;

/// Weakly acyclic guarded pool: `A(X) -> R(X,Y)` is the only
/// null-creating rule, and nothing derives `A` (or anything that feeds
/// it), so no null ever reaches an existential body — every subset of the
/// pool has a terminating oblivious chase. The `R,B -> T -> S -> U`
/// cascade gives retraction multi-hop cones, and the two-atom bodies give
/// firings more than one support to die through.
fn rule_pool() -> Vec<Tgd> {
    parse_tgds(
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

/// Prepared once per case — before any maintenance — and reused across
/// every operation: compiled plans must stay valid as the instance
/// underneath them grows and shrinks.
fn prepared_queries() -> Vec<(String, PreparedQuery)> {
    [
        "Q(X) :- B(X)",
        "Q(X) :- C(X), A(X)",
        "Q(X,Y) :- R(X,Y), S(Y,X)",
        "Q(Y) :- T(X,Y), U(Y)",
        "Q(X) :- S(X,Y)",
    ]
    .iter()
    .flat_map(|src| {
        let q = parse_cq(src).unwrap();
        [Strategy::Backtrack, Strategy::Wcoj]
            .map(|s| (format!("{src} {s:?}"), Engine::prepare(&q).strategy(s)))
    })
    .collect()
}

/// Random base facts over `A` / `R` / `S` with a 4-constant domain —
/// small enough that scripts collide on shared subtrees, which is where
/// rescue logic earns its keep.
fn arb_atoms(rng: &mut Rng) -> Vec<GroundAtom> {
    let k = rng.range(4, 12);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for _ in 0..k {
        let (a, b) = (rng.range(0, 4), rng.range(0, 4));
        let atom = match rng.range(0, 3) {
            0 => GroundAtom::named("A", &[&format!("c{a}")]),
            1 => GroundAtom::named("R", &[&format!("c{a}"), &format!("c{b}")]),
            _ => GroundAtom::named("S", &[&format!("c{a}"), &format!("c{b}")]),
        };
        if seen.insert(atom.clone()) {
            out.push(atom);
        }
    }
    out
}

fn sigma_for_mask(pool: &[Tgd], mask: u8) -> Vec<Tgd> {
    pool.iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, t)| t.clone())
        .collect()
}

fn named_only(answers: &HashSet<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut named: Vec<Vec<Value>> = answers
        .iter()
        .filter(|t| t.iter().all(|v| v.is_named()))
        .cloned()
        .collect();
    named.sort();
    named
}

/// The full oracle battery after one maintenance operation.
fn check_equiv(
    m: &MaintainedInstance,
    base: &[GroundAtom],
    sigma: &[Tgd],
    queries: &[(String, PreparedQuery)],
    ctx: &str,
) {
    assert!(m.complete(), "{ctx}: terminating pool must reach fixpoint");
    assert!(
        base.iter().all(|a| m.is_base(a)),
        "{ctx}: base ledger disagrees"
    );
    let base_db = Instance::from_atoms(base.iter().cloned());
    let scratch = ChaseRunner::new(sigma).certify(true).run(&base_db);
    assert!(scratch.complete, "{ctx}: oracle incomplete");
    assert!(
        instance_isomorphic(m.instance(), &scratch.instance),
        "{ctx}: maintained ({} atoms) is not isomorphic to the re-chase ({} atoms)",
        m.instance().len(),
        scratch.instance.len()
    );
    let logged = m.export_state().firings;
    let certified = scratch.firings.expect("certified run records firings");
    assert_eq!(logged.len(), certified.len(), "{ctx}: firing count");
    let per_rule = |tgds: Vec<usize>| {
        let mut n = vec![0usize; sigma.len()];
        for t in tgds {
            n[t] += 1;
        }
        n
    };
    assert_eq!(
        per_rule(logged.iter().map(|f| f.tgd).collect()),
        per_rule(certified.iter().map(|f| f.tgd).collect()),
        "{ctx}: per-rule firing counts"
    );
    for (qname, pq) in queries {
        let mine = pq.answers(m.instance());
        let theirs = pq.answers(&scratch.instance);
        assert_eq!(
            mine.len(),
            theirs.len(),
            "{ctx} [{qname}]: answer cardinality"
        );
        assert_eq!(
            named_only(&mine),
            named_only(&theirs),
            "{ctx} [{qname}]: null-free answers"
        );
    }
}

/// 168 seeded cases × {insert-only, retract-only, interleaved} × both
/// prepared join strategies, checked after every single operation.
#[test]
fn maintained_scripts_match_from_scratch_rechase() {
    let pool = rule_pool();
    let queries = prepared_queries();
    let mut ops = 0usize;
    for case in 0u64..168 {
        let mut rng = Rng::seed(0x0D_5EED ^ case);
        // Never an empty rule set: an identity script would test nothing.
        let sigma = sigma_for_mask(&pool, (case % 127 + 1) as u8);
        let atoms = arb_atoms(&mut rng);
        let mode = case % 3;
        let ctx = |step: usize| format!("case {case} mode {mode} step {step}");
        match mode {
            // Insert-only: grow from a single seed fact to the full set.
            0 => {
                let seed_db = Instance::from_atoms(atoms[..1].iter().cloned());
                let mut base: Vec<GroundAtom> = atoms[..1].to_vec();
                let mut m = ChaseRunner::new(&sigma).maintain(&seed_db);
                check_equiv(&m, &base, &sigma, &queries, &ctx(0));
                let mut next = 1;
                let mut step = 1;
                while next < atoms.len() {
                    let batch_end = (next + rng.range(1, 3)).min(atoms.len());
                    let batch = &atoms[next..batch_end];
                    base.extend(batch.iter().cloned());
                    m.insert(batch.iter().cloned());
                    check_equiv(&m, &base, &sigma, &queries, &ctx(step));
                    next = batch_end;
                    step += 1;
                    ops += 1;
                }
            }
            // Retract-only: shrink from the full set down to one fact.
            1 => {
                let full_db = Instance::from_atoms(atoms.iter().cloned());
                let mut base = atoms.clone();
                let mut m = ChaseRunner::new(&sigma).maintain(&full_db);
                check_equiv(&m, &base, &sigma, &queries, &ctx(0));
                let mut step = 1;
                while base.len() > 1 {
                    let n = if base.len() > 2 && rng.chance(0.4) {
                        2
                    } else {
                        1
                    };
                    let victims: Vec<GroundAtom> = (0..n)
                        .map(|_| base.swap_remove(rng.range(0, base.len())))
                        .collect();
                    m.retract(victims);
                    check_equiv(&m, &base, &sigma, &queries, &ctx(step));
                    step += 1;
                    ops += 1;
                }
            }
            // Interleaved: random inserts (including re-asserting facts
            // retracted earlier in the same script) and retracts.
            _ => {
                let half = atoms.len() / 2;
                let seed_db = Instance::from_atoms(atoms[..half].iter().cloned());
                let mut base: Vec<GroundAtom> = atoms[..half].to_vec();
                let mut m = ChaseRunner::new(&sigma).maintain(&seed_db);
                check_equiv(&m, &base, &sigma, &queries, &ctx(0));
                for step in 1..=6 {
                    let grow = base.is_empty() || rng.chance(0.5);
                    if grow {
                        let a = atoms[rng.range(0, atoms.len())].clone();
                        if !base.contains(&a) {
                            base.push(a.clone());
                        }
                        m.insert([a]);
                    } else {
                        let a = base.swap_remove(rng.range(0, base.len()));
                        m.retract([a]);
                    }
                    check_equiv(&m, &base, &sigma, &queries, &ctx(step));
                    ops += 1;
                }
            }
        }
    }
    assert!(ops >= 600, "scripts exercised only {ops} operations");
}

/// The oblivious-semantics boundary, pinned as a test: after maintenance,
/// the maintained instance can legitimately differ from a from-scratch
/// *restricted* chase (insert a ground `R` fact after an existential
/// fired — the incremental run keeps the null the restricted re-chase
/// never mints). This is exactly why [`MaintainedInstance`] maintains the
/// oblivious fixpoint and `ChaseRunner::maintain` rejects the restricted
/// variant.
#[test]
fn restricted_semantics_would_break_maintenance() {
    use gtgd::chase::{restricted_chase, ChaseBudget};
    let sigma = parse_tgds("P(X) -> R(X,Y)").unwrap();
    let db = Instance::from_atoms([GroundAtom::named("P", &["a"])]);
    let mut m = ChaseRunner::new(&sigma).maintain(&db);
    m.insert([GroundAtom::named("R", &["a", "b"])]);
    let mut grown = db.clone();
    grown.insert(GroundAtom::named("R", &["a", "b"]));
    let restricted = restricted_chase(&grown, &sigma, &ChaseBudget::unbounded());
    // The restricted re-chase sees R(a,b) up front and never fires; the
    // maintained oblivious fixpoint keeps its null witness.
    assert_eq!(restricted.instance.len(), 2);
    assert_eq!(m.instance().len(), 3);
    // And the oblivious re-chase agrees with the maintained result.
    let oblivious = ChaseRunner::new(&sigma).run(&grown);
    assert!(instance_isomorphic(m.instance(), &oblivious.instance));
}
