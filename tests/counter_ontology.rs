//! A binary-counter ontology in the spirit of Appendix C.5: a guarded set
//! Σ₁ over a 6-ary guard `G` that forces, from a single `T1` atom, an
//! `S`-path of length exactly `2^n − 1`. This stresses the type machinery
//! (wide guards, many side atoms, deep expansion with pairwise-distinct
//! types — no premature blocking allowed) and reproduces the paper's point
//! that ontologies can force structures exponentially larger than the OMQ.

mod common;

use common::typed_chase::{typed_chase, DepthPolicy};
use gtgd::chase::{parse_tgds, Tgd};
use gtgd::data::{GroundAtom, Instance};
use gtgd::query::{holds_boolean, parse_cq, Cq};

/// Σ₁ for an `n`-bit counter: `T1(x̄)` starts at 0; every non-maximal
/// counter value spawns a successor bag via the guard
/// `G(x1,x2,x3,y1,y2,y3)` with an `S(x1,y1)` edge; increment rules carry
/// bits across the guard.
fn counter_sigma(n: usize) -> Vec<Tgd> {
    let mut rules: Vec<String> = Vec::new();
    // Initialization: all bits zero.
    for i in 0..n {
        rules.push(format!("T1(X1,X2,X3) -> Bz{i}(X1,X2,X3)"));
    }
    // Expansion: any zero bit means a successor exists.
    for i in 0..n {
        rules.push(format!("Bz{i}(X1,X2,X3) -> G(X1,X2,X3,Y1,Y2,Y3), S(X1,Y1)"));
    }
    // Increment across the guard: the lowest zero bit i flips to one, lower
    // bits reset to zero, higher bits copy.
    let guard = "G(X1,X2,X3,Y1,Y2,Y3)";
    for i in 0..n {
        let mut body = vec![guard.to_string()];
        for j in 0..i {
            body.push(format!("Bo{j}(X1,X2,X3)"));
        }
        body.push(format!("Bz{i}(X1,X2,X3)"));
        let mut head = vec![format!("Bo{i}(Y1,Y2,Y3)")];
        for j in 0..i {
            head.push(format!("Bz{j}(Y1,Y2,Y3)"));
        }
        rules.push(format!("{} -> {}", body.join(", "), head.join(", ")));
        // Copy rules for higher bits.
        for j in (i + 1)..n {
            for (bit, pred) in [("z", "Bz"), ("o", "Bo")] {
                let _ = bit;
                let mut cbody = vec![guard.to_string()];
                for l in 0..i {
                    cbody.push(format!("Bo{l}(X1,X2,X3)"));
                }
                cbody.push(format!("Bz{i}(X1,X2,X3)"));
                cbody.push(format!("{pred}{j}(X1,X2,X3)"));
                rules.push(format!("{} -> {pred}{j}(Y1,Y2,Y3)", cbody.join(", ")));
            }
        }
    }
    parse_tgds(&rules.join(". ")).unwrap()
}

fn s_path_query(len: usize) -> Cq {
    let atoms: Vec<String> = (0..len).map(|i| format!("S(P{i},P{})", i + 1)).collect();
    parse_cq(&format!("Q() :- {}", atoms.join(", "))).unwrap()
}

fn run_counter(n: usize) -> Instance {
    let sigma = counter_sigma(n);
    let db = Instance::from_atoms([GroundAtom::named("T1", &["c1", "c2", "c3"])]);
    let result = typed_chase(
        &db,
        &sigma,
        DepthPolicy::Adaptive {
            extra_levels: (1 << n) + 2,
            max_level: (1 << n) + 4,
        },
    );
    assert!(result.saturated, "counter chase must terminate on its own");
    result.instance
}

#[test]
fn two_bit_counter_builds_path_of_length_three() {
    let chase = run_counter(2);
    // 00 → 01 → 10 → 11: exactly 3 S-edges on every branch.
    assert!(holds_boolean(&s_path_query(3), &chase));
    assert!(!holds_boolean(&s_path_query(4), &chase));
}

#[test]
fn three_bit_counter_builds_path_of_length_seven() {
    let chase = run_counter(3);
    assert!(holds_boolean(&s_path_query(7), &chase));
    assert!(!holds_boolean(&s_path_query(8), &chase));
}

#[test]
fn counter_rules_are_guarded() {
    use gtgd::chase::TgdClass;
    for t in counter_sigma(3) {
        assert!(t.is_in(TgdClass::Guarded), "not guarded: {t}");
    }
}

#[test]
fn omq_over_counter_ontology() {
    // The OMQ "is there an S-path of length 3?" is certain from a single
    // T1 atom under the 2-bit ontology — the paper's point that small OMQs
    // can force long derivations.
    use gtgd::omq::{check_omq, EvalConfig, Omq};
    let sigma = counter_sigma(2);
    let q = Omq::full_schema(sigma, gtgd::query::Ucq::single(s_path_query(3)));
    let db = Instance::from_atoms([GroundAtom::named("T1", &["c1", "c2", "c3"])]);
    let cfg = EvalConfig::default();
    let (holds, exact) = check_omq(&q, &db, &[], &cfg);
    assert!(holds && exact);
    // And from T2-style data (no counter start), nothing follows.
    let db2 = Instance::from_atoms([GroundAtom::named("T2", &["c1", "c2", "c3"])]);
    let (holds2, _) = check_omq(&q, &db2, &[], &cfg);
    assert!(!holds2);
}

#[test]
fn omq_decides_three_bit_counter_paths_exactly() {
    // The path of length 7 runs 7 levels below the database, and the
    // finite chase holds no path of length 8: both verdicts are exact,
    // with no depth setting.
    use gtgd::omq::{check_omq, EvalConfig, Omq};
    let db = Instance::from_atoms([GroundAtom::named("T1", &["c1", "c2", "c3"])]);
    for (len, certain) in [(7, true), (8, false)] {
        let q = Omq::full_schema(
            counter_sigma(3),
            gtgd::query::Ucq::single(s_path_query(len)),
        );
        assert_eq!(
            check_omq(&q, &db, &[], &EvalConfig::default()),
            (certain, true),
            "S-path of length {len}"
        );
    }
}
