//! Differential testing of the dense-dictionary WCOJ executor: the *same*
//! `CompiledQuery` forced onto `Strategy::Wcoj` must agree with
//! `Strategy::Backtrack` (the oracle) on seeded random CQs × random
//! instances × modes (plain / injective / fixed bindings /
//! restrict_images), with `exists` / `count` / `first_row` agreeing and
//! `par_table` matching at widths 1, 2, and 4.
//!
//! One property is *stronger* than set-equality: **order identity across
//! widths** — the morsel scheduler's sorted-path merge must reproduce the
//! sequential enumeration order exactly, for every worker count (this is
//! what keeps differential transcripts and proof certificates
//! bit-identical). The sequential order itself is pinned by a unit test
//! in `crates/query/src/wcoj.rs`.
//!
//! The random sweep is complemented by the named shapes most likely to
//! trip a dictionary-coded trie: cliques, triangles, self-joins `E(X,X)`,
//! constants inside the body (encodable and not), repeated variables —
//! and by a growth test that forces a dictionary *remap* (a fresh value
//! sorting before every existing code) between two evaluations of the
//! same plan.

use gtgd::data::{GroundAtom, Instance, Predicate, Rng, Value};
use gtgd::query::{CompiledQuery, QAtom, Strategy, Term, Var};
use std::collections::HashSet;

const WORKER_WIDTHS: [usize; 3] = [1, 2, 4];

/// 4-value domain shared by all random instances.
fn dom() -> Vec<Value> {
    ["a", "b", "c", "d"]
        .iter()
        .map(|s| Value::named(s))
        .collect()
}

/// Random instance over unary `U`, binary `E`/`R`, ternary `T`.
fn arb_db(rng: &mut Rng) -> Instance {
    let d = dom();
    let mut i = Instance::new();
    let n_atoms = 3 + rng.below(18) as usize;
    for _ in 0..n_atoms {
        match rng.below(4) {
            0 => {
                i.insert(GroundAtom::new(
                    Predicate::new("U"),
                    vec![d[rng.below(4) as usize]],
                ));
            }
            1 => {
                i.insert(GroundAtom::new(
                    Predicate::new("E"),
                    vec![d[rng.below(4) as usize], d[rng.below(4) as usize]],
                ));
            }
            2 => {
                i.insert(GroundAtom::new(
                    Predicate::new("R"),
                    vec![d[rng.below(4) as usize], d[rng.below(4) as usize]],
                ));
            }
            _ => {
                i.insert(GroundAtom::new(
                    Predicate::new("T"),
                    vec![
                        d[rng.below(4) as usize],
                        d[rng.below(4) as usize],
                        d[rng.below(4) as usize],
                    ],
                ));
            }
        }
    }
    i
}

/// Random CQ body biased toward *joins*: 2–5 atoms over few variables
/// (X0..X3) so cyclic shapes come up often; occasional constants and
/// repeated variables.
fn arb_atoms(rng: &mut Rng) -> Vec<QAtom> {
    let d = dom();
    let term = |rng: &mut Rng| -> Term {
        if rng.chance(0.15) {
            Term::Const(d[rng.below(4) as usize])
        } else {
            Term::Var(Var(rng.below(4) as u32))
        }
    };
    let n = 2 + rng.below(4) as usize;
    (0..n)
        .map(|_| match rng.below(5) {
            0 => QAtom::new(Predicate::new("U"), vec![term(rng)]),
            1 | 2 => QAtom::new(Predicate::new("E"), vec![term(rng), term(rng)]),
            3 => QAtom::new(Predicate::new("R"), vec![term(rng), term(rng)]),
            _ => QAtom::new(Predicate::new("T"), vec![term(rng), term(rng), term(rng)]),
        })
        .collect()
}

fn canon_rows(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut rows = rows;
    rows.sort();
    rows
}

/// One differential case: the same compiled plan forced onto the
/// backtracker (the oracle) and onto the dense WCOJ executor.
fn check_case(
    atoms: &[QAtom],
    db: &Instance,
    fixed: &[(Var, Value)],
    injective: bool,
    allowed: Option<&HashSet<Value>>,
    ctx: &str,
) {
    let plan = CompiledQuery::compile_with_extra(atoms, fixed.iter().map(|&(v, _)| v));
    let search = |s: Strategy| {
        let mut k = plan
            .search(db)
            .strategy(s)
            .fix_slots(fixed.iter().map(|&(v, x)| (plan.slot_of(v).unwrap(), x)));
        if injective {
            k = k.injective();
        }
        if let Some(a) = allowed {
            k = k.restrict_images(a);
        }
        k
    };
    let oracle = canon_rows(
        search(Strategy::Backtrack)
            .table()
            .rows()
            .map(|r| r.to_vec())
            .collect(),
    );
    let seq: Vec<Vec<Value>> = search(Strategy::Wcoj)
        .table()
        .rows()
        .map(|r| r.to_vec())
        .collect();
    assert_eq!(canon_rows(seq.clone()), oracle, "table() {ctx}");
    assert_eq!(
        search(Strategy::Wcoj).count(),
        oracle.len(),
        "count() {ctx}"
    );
    assert_eq!(
        search(Strategy::Wcoj).exists(),
        !oracle.is_empty(),
        "exists() {ctx}"
    );
    match search(Strategy::Wcoj).first_row() {
        Some(r) => assert!(oracle.contains(&r), "first_row() not an answer {ctx}"),
        None => assert!(oracle.is_empty(), "first_row() missed an answer {ctx}"),
    }
    // Morsel-parallel enumeration must reproduce the sequential order
    // *exactly* (not merely the same set), at every width.
    for w in WORKER_WIDTHS {
        let par: Vec<Vec<Value>> = search(Strategy::Wcoj)
            .par_table(w)
            .rows()
            .map(|r| r.to_vec())
            .collect();
        assert_eq!(par, seq, "par_table({w}) order {ctx}");
    }
}

#[test]
fn dense_matches_backtracker_on_random_cases() {
    let mut rng = Rng::seed(0x5eed_dea1);
    let d = dom();
    for case in 0..160u32 {
        let db = arb_db(&mut rng);
        let atoms = arb_atoms(&mut rng);
        let injective = rng.chance(0.34);
        let restrict = rng.chance(0.34);
        let allowed: Option<HashSet<Value>> = restrict.then(|| {
            d.iter()
                .copied()
                .filter(|_| rng.chance(0.67))
                .collect::<HashSet<Value>>()
        });
        let mut fixed: Vec<(Var, Value)> = Vec::new();
        if rng.chance(0.5) {
            // Fix 1–2 variables, sometimes a ghost var absent from atoms.
            for _ in 0..=rng.below(2) {
                let v = if rng.chance(0.17) {
                    Var(40 + rng.below(2) as u32)
                } else {
                    Var(rng.below(4) as u32)
                };
                let x = d[rng.below(4) as usize];
                if fixed.iter().all(|&(u, _)| u != v) {
                    fixed.push((v, x));
                }
            }
        }
        check_case(
            &atoms,
            &db,
            &fixed,
            injective,
            allowed.as_ref(),
            &format!("case {case}: atoms={atoms:?} fixed={fixed:?} inj={injective}"),
        );
    }
}

/// A dense-ish binary instance so multiway shapes actually have answers.
fn dense_db() -> Instance {
    let d = dom();
    let mut i = Instance::new();
    for (x, y) in [
        (0, 1),
        (1, 0),
        (1, 2),
        (2, 1),
        (0, 2),
        (2, 0),
        (2, 3),
        (3, 3),
        (0, 0),
    ] {
        i.insert(GroundAtom::new(Predicate::new("E"), vec![d[x], d[y]]));
    }
    for &x in d.iter().take(3) {
        i.insert(GroundAtom::new(Predicate::new("U"), vec![x]));
    }
    i
}

fn e(x: Term, y: Term) -> QAtom {
    QAtom::new(Predicate::new("E"), vec![x, y])
}

fn v(i: u32) -> Term {
    Term::Var(Var(i))
}

/// The named shapes, each under every mode combination — including a
/// fixed value and a body constant that are *absent* from the instance
/// (and hence from the dense dictionary): the dense path must reject
/// them without panicking.
#[test]
fn dense_matches_on_named_shapes() {
    let d = dom();
    let mut clique4 = Vec::new();
    for i in 0..4u32 {
        for j in 0..4u32 {
            if i != j {
                clique4.push(e(v(i), v(j)));
            }
        }
    }
    let ghost = Value::named("zz-not-in-any-db");
    let shapes: Vec<(&str, Vec<QAtom>)> = vec![
        (
            "triangle",
            vec![e(v(0), v(1)), e(v(1), v(2)), e(v(2), v(0))],
        ),
        ("clique4", clique4),
        ("self-join", vec![e(v(0), v(0)), e(v(0), v(1))]),
        (
            "constant-in-body",
            vec![
                e(v(0), Term::Const(d[1])),
                e(Term::Const(d[1]), v(1)),
                e(v(0), v(1)),
            ],
        ),
        (
            "unencodable-constant",
            vec![e(v(0), Term::Const(ghost)), e(v(0), v(1)), e(v(1), v(0))],
        ),
        (
            "repeated-variable",
            vec![
                QAtom::new(Predicate::new("T"), vec![v(0), v(0), v(1)]),
                e(v(1), v(0)),
                e(v(0), v(1)),
            ],
        ),
        (
            "star-multiway",
            vec![e(v(0), v(1)), e(v(0), v(2)), e(v(0), v(3)), e(v(0), v(0))],
        ),
    ];
    let mut rng = Rng::seed(0xdea1_5eed);
    let dbs = [dense_db(), arb_db(&mut rng), arb_db(&mut rng)];
    for (name, atoms) in &shapes {
        for (di, db) in dbs.iter().enumerate() {
            for injective in [false, true] {
                for fixed in [vec![], vec![(Var(0), d[1])], vec![(Var(0), ghost)]] {
                    check_case(
                        atoms,
                        db,
                        &fixed,
                        injective,
                        None,
                        &format!("shape {name} db {di} inj {injective} fixed {fixed:?}"),
                    );
                }
            }
            let allowed: HashSet<Value> = [d[0], d[1], d[2]].into_iter().collect();
            check_case(
                atoms,
                db,
                &[],
                false,
                Some(&allowed),
                &format!("shape {name} db {di} restricted"),
            );
        }
    }
}

/// A fully symmetric instance: every edge is stored in both directions,
/// so the CSR tries for column orders (0,1) and (1,0) hold identical
/// level arrays and the store hands out one shared trie for both. A
/// clique query over such an instance lists every atom in both
/// directions too, so the executor's duplicate-atom elision and the
/// shared-source frame mirroring both fire — this is the configuration
/// the aliasing machinery exists for, and it must stay answer-identical
/// to the oracle and order-identical across widths.
#[test]
fn dense_matches_on_fully_symmetric_instance() {
    let d = dom();
    let mut db = Instance::new();
    for (x, y) in [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 0)] {
        db.insert(GroundAtom::new(Predicate::new("E"), vec![d[x], d[y]]));
        db.insert(GroundAtom::new(Predicate::new("E"), vec![d[y], d[x]]));
    }
    let triangle_both: Vec<QAtom> = vec![
        e(v(0), v(1)),
        e(v(1), v(0)),
        e(v(1), v(2)),
        e(v(2), v(1)),
        e(v(2), v(0)),
        e(v(0), v(2)),
    ];
    let mut clique4_both = Vec::new();
    for i in 0..4u32 {
        for j in 0..4u32 {
            if i != j {
                clique4_both.push(e(v(i), v(j)));
            }
        }
    }
    for (name, atoms) in [
        ("symmetric triangle", &triangle_both),
        ("symmetric clique4", &clique4_both),
    ] {
        for injective in [false, true] {
            check_case(
                atoms,
                &db,
                &[],
                injective,
                None,
                &format!("{name} inj {injective}"),
            );
        }
        let allowed: HashSet<Value> = [d[0], d[1], d[2]].into_iter().collect();
        check_case(
            atoms,
            &db,
            &[],
            false,
            Some(&allowed),
            &format!("{name} restricted"),
        );
        check_case(
            atoms,
            &db,
            &[(Var(0), d[1])],
            false,
            None,
            &format!("{name} fixed"),
        );
    }
}

/// Growth between evaluations of the *same* plan: first a batch whose
/// values extend the dictionary by appends, then a value sorting before
/// every existing code (forcing a remap). After each step the dense path
/// must still agree with the oracle.
#[test]
fn dense_stays_correct_across_dictionary_growth_and_remap() {
    let triangle = vec![e(v(0), v(1)), e(v(1), v(2)), e(v(2), v(0))];
    let ep = Predicate::new("E");
    let named = |s: &str| Value::named(s);
    let mut db = Instance::new();
    for (x, y) in [("m", "n"), ("n", "p"), ("p", "m")] {
        db.insert(GroundAtom::new(ep, vec![named(x), named(y)]));
    }
    check_case(&triangle, &db, &[], false, None, "initial triangle");
    assert_eq!(db.dense_stats().remaps, 0, "initial build never remaps");

    // Append-only growth: "q"/"r" sort after every existing value.
    for (x, y) in [("p", "q"), ("q", "r"), ("r", "p")] {
        db.insert(GroundAtom::new(ep, vec![named(x), named(y)]));
    }
    check_case(&triangle, &db, &[], false, None, "after append growth");
    assert_eq!(
        db.dense_stats().remaps,
        0,
        "suffix values extend the dictionary without remapping"
    );

    // "a" sorts before everything: the next dense evaluation must remap
    // every stored code — and still agree with the oracle.
    for (x, y) in [("a", "m"), ("n", "a"), ("a", "a")] {
        db.insert(GroundAtom::new(ep, vec![named(x), named(y)]));
    }
    check_case(&triangle, &db, &[], false, None, "after remap growth");
    let stats = db.dense_stats();
    assert!(stats.remaps >= 1, "prefix value must force a remap");
    // And once more with modes, post-remap.
    let allowed: HashSet<Value> = ["a", "m", "n", "p"].iter().map(|s| named(s)).collect();
    check_case(
        &triangle,
        &db,
        &[],
        true,
        Some(&allowed),
        "post-remap with modes",
    );
}
