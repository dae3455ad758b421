//! Differential testing of the worst-case-optimal (leapfrog triejoin)
//! executor against the backtracking kernel: the *same* `CompiledQuery`,
//! forced onto `Strategy::Wcoj` and `Strategy::Backtrack`, must produce
//! identical answer sets on seeded random CQs × random instances × modes
//! (plain / injective / fixed bindings / restrict_images), with `exists` /
//! `count` / `first_row` agreeing and the parallel split (`par_table`)
//! matching at widths 1, 2, and 4.
//!
//! The random sweep is complemented by the shapes the WCOJ path exists
//! for — cliques and triangles — plus the shapes most likely to trip a
//! trie executor: self-joins `E(X,X)`, constants inside the body, and
//! repeated variables across atoms.
//!
//! The projection contract closes the file: `PreparedQuery`'s answer
//! methods stop each answer's subtree at its first witness, and must still
//! return exactly the projection of the unprojected `KernelSearch::table()`.

use gtgd::data::{GroundAtom, Instance, Predicate, Rng, Value};
use gtgd::query::{CompiledQuery, Cq, Engine, QAtom, Strategy, Term, Var};
use std::collections::{HashMap, HashSet};

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
/// (X0..X3), so cyclic shapes — the ones the WCOJ gate actually routes —
/// come up often; occasional constants and repeated variables.
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

/// Canonical form of an answer table: sorted rows (slot order is shared by
/// both strategies, so rows compare positionally).
fn canon_rows(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut rows = rows;
    rows.sort();
    rows
}

/// One differential case: the same compiled plan forced onto each strategy.
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
    let expected = canon_rows(
        search(Strategy::Backtrack)
            .table()
            .rows()
            .map(|r| r.to_vec())
            .collect(),
    );
    let got = canon_rows(
        search(Strategy::Wcoj)
            .table()
            .rows()
            .map(|r| r.to_vec())
            .collect(),
    );
    assert_eq!(got, expected, "table() {ctx}");
    assert_eq!(
        search(Strategy::Wcoj).count(),
        expected.len(),
        "count() {ctx}"
    );
    assert_eq!(
        search(Strategy::Wcoj).exists(),
        !expected.is_empty(),
        "exists() {ctx}"
    );
    match search(Strategy::Wcoj).first_row() {
        Some(r) => assert!(expected.contains(&r), "first_row() not an answer {ctx}"),
        None => assert!(expected.is_empty(), "first_row() missed an answer {ctx}"),
    }
    for w in WORKER_WIDTHS {
        let par = canon_rows(
            search(Strategy::Wcoj)
                .par_table(w)
                .rows()
                .map(|r| r.to_vec())
                .collect(),
        );
        assert_eq!(par, expected, "par_table({w}) {ctx}");
    }
}

#[test]
fn wcoj_matches_backtracker_on_random_cases() {
    let mut rng = Rng::seed(0x5eed_cafe);
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

/// The shapes the ISSUE names: clique, triangle, self-join,
/// constant-in-body, repeated-variable — each checked with every mode
/// combination on both a dense and a random instance.
#[test]
fn wcoj_matches_backtracker_on_named_shapes() {
    let d = dom();
    // 4-clique (directed both ways, i != j handled by injective mode too).
    let mut clique4 = Vec::new();
    for i in 0..4u32 {
        for j in 0..4u32 {
            if i != j {
                clique4.push(e(v(i), v(j)));
            }
        }
    }
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
    let mut rng = Rng::seed(0xd1ff_5eed);
    let dbs = [dense_db(), arb_db(&mut rng), arb_db(&mut rng)];
    for (name, atoms) in &shapes {
        for (di, db) in dbs.iter().enumerate() {
            for injective in [false, true] {
                for fixed in [vec![], vec![(Var(0), d[1])]] {
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

/// The planner gate routes the shapes it should: cyclic and high-degree
/// multiway bodies take the WCOJ path, acyclic chains stay on the
/// backtracker (the E12 guard), and explicit overrides win either way.
#[test]
fn planner_gate_routes_named_shapes() {
    let db = dense_db();
    let triangle = vec![e(v(0), v(1)), e(v(1), v(2)), e(v(2), v(0))];
    let path = vec![e(v(0), v(1)), e(v(1), v(2)), e(v(2), v(3))];
    let tri_plan = CompiledQuery::compile(&triangle);
    let path_plan = CompiledQuery::compile(&path);
    assert!(tri_plan.prefers_wcoj(), "triangle is cyclic");
    assert!(!path_plan.prefers_wcoj(), "a path is acyclic");
    assert!(tri_plan.search(&db).uses_wcoj());
    assert!(!path_plan.search(&db).uses_wcoj());
    assert!(!tri_plan
        .search(&db)
        .strategy(Strategy::Backtrack)
        .uses_wcoj());
    assert!(path_plan.search(&db).strategy(Strategy::Wcoj).uses_wcoj());
    // Both overridden routes still agree with each other.
    check_case(&path, &db, &[], false, None, "overridden path");
}

/// Each atom over the 4-value domain for `U`, `E`, `R` and `T`, kept with
/// probability one half.
fn dense_arb_db(rng: &mut Rng) -> Instance {
    let d = dom();
    let mut i = Instance::new();
    for (p, arity) in [("U", 1u32), ("E", 2), ("R", 2), ("T", 3)] {
        for code in 0..4usize.pow(arity) {
            if rng.chance(0.5) {
                let args = (0..arity).map(|k| d[code / 4usize.pow(k) % 4]).collect();
                i.insert(GroundAtom::new(Predicate::new(p), args));
            }
        }
    }
    i
}

/// How one projection case constrains the search.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Plain,
    Injective,
    /// One existential variable fixed to a constant: the reference search
    /// fixes its slot, the prepared query has the constant in its place.
    Fixed,
    Restricted,
}

/// The projection contract of `PreparedQuery`: on seeded random CQs with a
/// random subset of answer variables, `answers`, `certain_rows` and the
/// answer set of `answer_witnesses` equal the projection of the
/// unprojected `KernelSearch::table()`, every witness is a row of that
/// table, and `count` stays its row count. The answer variables include
/// the empty set (Boolean queries), variables repeated inside one atom and
/// across atoms, and variables that occur only next to constants; each
/// case runs under both strategies, every mode and widths 1, 2 and 4.
#[test]
fn projected_answers_equal_the_projection_of_every_witness() {
    let d = dom();
    let mut rng = Rng::seed(0x9e0_5eed);
    let (mut boolean, mut collapsed) = (0usize, 0usize);
    for case in 0..160u32 {
        // Every other case runs on a dense instance, where joins have
        // many witnesses per answer.
        let db = if case % 2 == 0 {
            arb_db(&mut rng)
        } else {
            dense_arb_db(&mut rng)
        };
        let mut atoms = arb_atoms(&mut rng);
        let mut body: Vec<Var> = Vec::new();
        for t in atoms.iter().flat_map(|a| &a.args) {
            if let Term::Var(x) = *t {
                if !body.contains(&x) {
                    body.push(x);
                }
            }
        }
        let mut answer: Vec<Var> = if rng.chance(0.2) {
            Vec::new()
        } else {
            body.iter().copied().filter(|_| rng.chance(0.5)).collect()
        };
        if rng.chance(0.5) {
            answer.reverse();
        }
        if rng.chance(0.2) {
            // An answer variable that occurs only next to constants.
            let lone = Var(5);
            atoms.push(QAtom::new(
                Predicate::new("T"),
                vec![
                    Term::Const(d[rng.below(4) as usize]),
                    Term::Var(lone),
                    Term::Const(d[rng.below(4) as usize]),
                ],
            ));
            answer.push(lone);
        }
        if let Some(&x) = answer.first().filter(|_| rng.chance(0.25)) {
            // An answer variable repeated inside one atom.
            atoms.push(QAtom::new(
                Predicate::new("E"),
                vec![Term::Var(x), Term::Var(x)],
            ));
        }
        let names = (0..6).map(|i| format!("X{i}")).collect::<Vec<_>>();
        let q = Cq::new(names.clone(), atoms, answer.clone());
        boolean += usize::from(answer.is_empty());
        let existential: Vec<Var> = body
            .iter()
            .copied()
            .filter(|x| !answer.contains(x))
            .collect();
        let allowed: HashSet<Value> = d.iter().copied().filter(|_| rng.chance(0.67)).collect();
        let pinned = (!existential.is_empty()).then(|| {
            (
                existential[rng.below(existential.len() as u64) as usize],
                d[rng.below(4) as usize],
            )
        });
        let plan = CompiledQuery::compile_with_extra(&q.atoms, answer.iter().copied());
        let cols: Vec<usize> = answer.iter().map(|&x| plan.slot_of(x).unwrap()).collect();
        for mode in [Mode::Plain, Mode::Injective, Mode::Fixed, Mode::Restricted] {
            let fixed = match mode {
                Mode::Fixed => match pinned {
                    Some(p) => vec![p],
                    None => continue,
                },
                _ => Vec::new(),
            };
            // The prepared query: the fixed variable replaced by its value.
            let prepared_q = match fixed.first() {
                Some(&(y, c)) => {
                    let atoms = q
                        .atoms
                        .iter()
                        .map(|a| {
                            let args = a
                                .args
                                .iter()
                                .map(|&t| if t == Term::Var(y) { Term::Const(c) } else { t })
                                .collect();
                            QAtom::new(a.predicate, args)
                        })
                        .collect();
                    Cq::new(names.clone(), atoms, answer.clone())
                }
                None => q.clone(),
            };
            for s in [Strategy::Backtrack, Strategy::Wcoj] {
                let mut k = plan
                    .search(&db)
                    .strategy(s)
                    .fix_slots(fixed.iter().map(|&(x, c)| (plan.slot_of(x).unwrap(), c)));
                match mode {
                    Mode::Injective => k = k.injective(),
                    Mode::Restricted => k = k.restrict_images(&allowed),
                    Mode::Plain | Mode::Fixed => {}
                }
                let table = k.table();
                let rows: HashSet<Vec<Value>> = table.rows().map(|r| r.to_vec()).collect();
                let want: HashSet<Vec<Value>> = table
                    .rows()
                    .map(|r| cols.iter().map(|&c| r[c]).collect())
                    .collect();
                collapsed += usize::from(want.len() < table.len());
                let mut sorted: Vec<Vec<Value>> = want.iter().cloned().collect();
                sorted.sort();
                for w in WORKER_WIDTHS {
                    let ctx = format!("case {case} {mode:?} {s:?} w={w}: {q:?}");
                    let mut p = Engine::prepare(&prepared_q).strategy(s).parallel(w);
                    match mode {
                        Mode::Injective => p = p.injective(),
                        Mode::Restricted => p = p.restrict_images(allowed.iter().copied()),
                        Mode::Plain | Mode::Fixed => {}
                    }
                    assert_eq!(p.answers(&db), want, "answers {ctx}");
                    let certain: Vec<Vec<Value>> =
                        p.certain_rows(&db).rows().map(|r| r.to_vec()).collect();
                    assert_eq!(certain, sorted, "certain_rows {ctx}");
                    assert_eq!(p.count(&db), table.len(), "count {ctx}");
                    let witnesses = p.answer_witnesses(&db);
                    let tuples: HashSet<Vec<Value>> =
                        witnesses.iter().map(|(a, _)| a.clone()).collect();
                    assert_eq!(tuples, want, "answer_witnesses {ctx}");
                    assert_eq!(
                        tuples.len(),
                        witnesses.len(),
                        "one witness per answer {ctx}"
                    );
                    for (tuple, hom) in &witnesses {
                        let image: HashMap<Var, Value> =
                            hom.iter().copied().chain(fixed.iter().copied()).collect();
                        let row: Vec<Value> = plan.vars().iter().map(|x| image[x]).collect();
                        assert!(rows.contains(&row), "witness {row:?} not a table row {ctx}");
                        let projected: Vec<Value> = cols.iter().map(|&c| row[c]).collect();
                        assert_eq!(&projected, tuple, "witness projects to its answer {ctx}");
                    }
                }
            }
        }
    }
    assert!(boolean >= 10, "too few Boolean cases: {boolean}");
    assert!(
        collapsed >= 150,
        "too few cases with several witnesses per answer: {collapsed}"
    );
}
