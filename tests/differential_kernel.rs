//! Differential testing of the compiled query kernel against the
//! *historical* generic backtracking search of the workspace's first
//! version, embedded below as `reference`: on seeded random CQs × random
//! instances × modes (plain / injective / fixed bindings /
//! restrict_images), the kernel must produce exactly the same
//! homomorphism *sets*, with `exists` / `count` / `first_row` agreeing, and
//! the parallel split (`par_table`) matching at widths 1, 2, and 4.
//! The certain-answer output (`PreparedQuery::certain_rows`) is pinned to
//! `answers()` filtered to null-free rows, sorted and deduplicated, on
//! instances with nulls under both strategies.
//! The pinned batch search (`KernelSearch::for_each_pinned_row`) is pinned
//! to one `fix_slots(unify_atom(..)).skip_atom(..)` search per seed, rows
//! concatenated in seed order, under both strategies; with a semi-naive
//! delta split, to those rows filtered by "no atom before the pin grounds
//! into the delta".

use gtgd::data::{GroundAtom, Instance, Predicate, Rng, Value};
use gtgd::query::{CompiledQuery, Cq, Delta, Engine, KernelSearch, QAtom, Strategy, Term, Var};
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

const WORKER_WIDTHS: [usize; 3] = [1, 2, 4];

/// The pre-kernel search: generic backtracking over `HashMap`
/// assignments with dynamic most-selective-atom ordering. Copied verbatim
/// (modulo visibility) from the engine the kernel replaced, so the suite
/// pins today's kernel to yesterday's semantics.
mod reference {
    use super::*;

    pub struct RefSearch<'a> {
        atoms: &'a [QAtom],
        target: &'a Instance,
        pub fixed: HashMap<Var, Value>,
        pub injective: bool,
        pub allowed: Option<HashSet<Value>>,
    }

    impl<'a> RefSearch<'a> {
        pub fn new(atoms: &'a [QAtom], target: &'a Instance) -> Self {
            RefSearch {
                atoms,
                target,
                fixed: HashMap::new(),
                injective: false,
                allowed: None,
            }
        }

        pub fn all(&self) -> Vec<HashMap<Var, Value>> {
            let mut out = Vec::new();
            self.for_each(|h| {
                out.push(h.clone());
                ControlFlow::Continue(())
            });
            out
        }

        pub fn for_each(&self, mut f: impl FnMut(&HashMap<Var, Value>) -> ControlFlow<()>) -> bool {
            let mut assignment = self.fixed.clone();
            if self.injective {
                let mut used = HashSet::new();
                for &v in assignment.values() {
                    if !used.insert(v) {
                        return false;
                    }
                }
            }
            if let Some(allowed) = &self.allowed {
                if assignment.values().any(|v| !allowed.contains(v)) {
                    return false;
                }
            }
            let mut pending: Vec<usize> = (0..self.atoms.len()).collect();
            let mut used: HashSet<Value> = assignment.values().copied().collect();
            self.search(&mut pending, &mut assignment, &mut used, &mut f)
                .is_break()
        }

        fn candidates(&self, atom: &QAtom, assignment: &HashMap<Var, Value>) -> Vec<usize> {
            let mut best: Option<&[usize]> = None;
            for (pos, t) in atom.args.iter().enumerate() {
                let bound = match *t {
                    Term::Const(c) => Some(c),
                    Term::Var(v) => assignment.get(&v).copied(),
                };
                if let Some(val) = bound {
                    let ids = self.target.atoms_matching(atom.predicate, pos, val);
                    if best.is_none_or(|b| ids.len() < b.len()) {
                        best = Some(ids);
                    }
                }
            }
            best.unwrap_or_else(|| self.target.atoms_with_pred(atom.predicate, atom.args.len()))
                .to_vec()
        }

        fn search(
            &self,
            pending: &mut Vec<usize>,
            assignment: &mut HashMap<Var, Value>,
            used: &mut HashSet<Value>,
            f: &mut impl FnMut(&HashMap<Var, Value>) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            if pending.is_empty() {
                return f(assignment);
            }
            let (slot, _) = pending
                .iter()
                .enumerate()
                .map(|(slot, &ai)| (slot, self.candidates(&self.atoms[ai], assignment).len()))
                .min_by_key(|&(_, n)| n)
                .expect("pending nonempty");
            let ai = pending.swap_remove(slot);
            let atom = &self.atoms[ai];
            let cand = self.candidates(atom, assignment);
            for ci in cand {
                let ground = self.target.atom(ci);
                if ground.args.len() != atom.args.len() {
                    continue;
                }
                let mut newly: Vec<Var> = Vec::new();
                let mut ok = true;
                for (t, &gv) in atom.args.iter().zip(ground.args.iter()) {
                    match *t {
                        Term::Const(c) => {
                            if c != gv {
                                ok = false;
                                break;
                            }
                        }
                        Term::Var(v) => match assignment.get(&v) {
                            Some(&bound) => {
                                if bound != gv {
                                    ok = false;
                                    break;
                                }
                            }
                            None => {
                                if self.injective && used.contains(&gv) {
                                    ok = false;
                                    break;
                                }
                                if let Some(allowed) = &self.allowed {
                                    if !allowed.contains(&gv) {
                                        ok = false;
                                        break;
                                    }
                                }
                                assignment.insert(v, gv);
                                used.insert(gv);
                                newly.push(v);
                            }
                        },
                    }
                }
                if ok && self.search(pending, assignment, used, f).is_break() {
                    return ControlFlow::Break(());
                }
                for v in newly {
                    let val = assignment.remove(&v).expect("was bound");
                    used.remove(&val);
                }
            }
            pending.push(ai);
            let last = pending.len() - 1;
            pending.swap(slot, last);
            ControlFlow::Continue(())
        }
    }
}

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

/// Random CQ body over the same schema: 1–4 atoms, variables X0..X4,
/// occasional constants and repeated variables.
fn arb_atoms(rng: &mut Rng) -> Vec<QAtom> {
    let d = dom();
    let term = |rng: &mut Rng| -> Term {
        if rng.chance(0.2) {
            Term::Const(d[rng.below(4) as usize])
        } else {
            Term::Var(Var(rng.below(5) as u32))
        }
    };
    let n = 1 + rng.below(4) as usize;
    (0..n)
        .map(|_| match rng.below(4) {
            0 => QAtom::new(Predicate::new("U"), vec![term(rng)]),
            1 => QAtom::new(Predicate::new("E"), vec![term(rng), term(rng)]),
            2 => QAtom::new(Predicate::new("R"), vec![term(rng), term(rng)]),
            _ => QAtom::new(Predicate::new("T"), vec![term(rng), term(rng), term(rng)]),
        })
        .collect()
}

/// Canonical form of a homomorphism set: sorted vectors of sorted pairs.
fn canon(homs: &[HashMap<Var, Value>]) -> Vec<Vec<(Var, Value)>> {
    let mut out: Vec<Vec<(Var, Value)>> = homs
        .iter()
        .map(|h| {
            let mut kv: Vec<(Var, Value)> = h.iter().map(|(&k, &v)| (k, v)).collect();
            kv.sort_unstable();
            kv
        })
        .collect();
    out.sort();
    out
}

/// One differential case: reference vs kernel, sequential and parallel.
fn check_case(
    atoms: &[QAtom],
    db: &Instance,
    fixed: &[(Var, Value)],
    injective: bool,
    allowed: Option<&HashSet<Value>>,
    ctx: &str,
) {
    let mut reference = reference::RefSearch::new(atoms, db);
    reference.fixed = fixed.iter().copied().collect();
    reference.injective = injective;
    reference.allowed = allowed.cloned();
    let expected = canon(&reference.all());

    // The raw kernel, driven directly.
    let plan = CompiledQuery::compile_with_extra(atoms, fixed.iter().map(|&(v, _)| v));
    let kernel = || {
        let mut k = plan
            .search(db)
            .fix_slots(fixed.iter().map(|&(v, x)| (plan.slot_of(v).unwrap(), x)));
        if injective {
            k = k.injective();
        }
        if let Some(a) = allowed {
            k = k.restrict_images(a);
        }
        k
    };
    assert_eq!(
        canon(&kernel().table().to_maps()),
        expected,
        "table() {ctx}"
    );
    assert_eq!(kernel().count(), expected.len(), "count() {ctx}");
    assert_eq!(kernel().exists(), !expected.is_empty(), "exists() {ctx}");
    match kernel().first_row() {
        Some(row) => {
            let h: HashMap<Var, Value> = plan.vars().iter().copied().zip(row).collect();
            assert!(
                expected.contains(&canon(&[h])[0]),
                "first_row() not in reference set {ctx}"
            );
        }
        None => assert!(expected.is_empty(), "first_row() missed a hom {ctx}"),
    }
    for w in WORKER_WIDTHS {
        assert_eq!(
            canon(&kernel().par_table(w).to_maps()),
            expected,
            "par_table({w}) {ctx}"
        );
    }
}

#[test]
fn kernel_matches_reference_plain_and_modes() {
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
                    Var(rng.below(5) as u32)
                };
                let x = d[rng.below(4) as usize];
                if fixed.iter().all(|&(u, _)| u != v) {
                    fixed.push((v, x));
                }
            }
        }
        let ctx = format!(
            "case {case}: {} atoms, inj={injective}, fixed={}, allowed={}",
            atoms.len(),
            fixed.len(),
            allowed.is_some()
        );
        check_case(&atoms, &db, &fixed, injective, allowed.as_ref(), &ctx);
    }
}

#[test]
fn kernel_matches_reference_on_edge_shapes() {
    let db = arb_db(&mut Rng::seed(7));
    let d = dom();
    // Empty atom list, with and without fixed bindings.
    check_case(&[], &db, &[], false, None, "empty atoms");
    check_case(&[], &db, &[(Var(3), d[0])], true, None, "empty atoms + fix");
    // Duplicate fixed values under injectivity: both engines yield nothing.
    check_case(
        &[QAtom::new(
            Predicate::new("E"),
            vec![Term::Var(Var(0)), Term::Var(Var(1))],
        )],
        &db,
        &[(Var(0), d[1]), (Var(1), d[1])],
        true,
        None,
        "duplicate fixed + injective",
    );
    // Unsatisfiable constant.
    check_case(
        &[QAtom::new(
            Predicate::new("U"),
            vec![Term::Const(Value::named("zz"))],
        )],
        &db,
        &[],
        false,
        None,
        "foreign constant",
    );
    // Empty allowed set.
    check_case(
        &[QAtom::new(
            Predicate::new("E"),
            vec![Term::Var(Var(0)), Term::Var(Var(1))],
        )],
        &db,
        &[],
        false,
        Some(&HashSet::new()),
        "empty allowed set",
    );
}

#[test]
fn certain_rows_equal_sorted_null_free_answers() {
    let mut rng = Rng::seed(0xce27_a1e5);
    let d = dom();
    let var_names: Vec<String> = (0..5).map(|i| format!("X{i}")).collect();
    for case in 0..160u32 {
        let mut db = arb_db(&mut rng);
        // Mix two labelled nulls into the instance, next to named values.
        let nulls = [Value::fresh_null(), Value::fresh_null()];
        let pick = |rng: &mut Rng| {
            if rng.chance(0.4) {
                nulls[rng.below(2) as usize]
            } else {
                d[rng.below(4) as usize]
            }
        };
        for _ in 0..rng.below(8) {
            let atom = match rng.below(3) {
                0 => GroundAtom::new(Predicate::new("U"), vec![pick(&mut rng)]),
                1 => GroundAtom::new(Predicate::new("E"), vec![pick(&mut rng), pick(&mut rng)]),
                _ => GroundAtom::new(
                    Predicate::new("T"),
                    vec![pick(&mut rng), pick(&mut rng), pick(&mut rng)],
                ),
            };
            db.insert(atom);
        }
        let atoms = arb_atoms(&mut rng);
        // A random subset of the body's variables, in random order (empty:
        // a Boolean query).
        let mut body_vars: Vec<Var> = atoms.iter().flat_map(QAtom::vars).collect();
        body_vars.sort();
        body_vars.dedup();
        let mut answer_vars = Vec::new();
        while !body_vars.is_empty() && rng.chance(0.6) {
            answer_vars.push(body_vars.remove(rng.below(body_vars.len() as u64) as usize));
        }
        let q = Cq::new(var_names.clone(), atoms, answer_vars);
        for s in [Strategy::Backtrack, Strategy::Wcoj] {
            for w in [1usize, 2] {
                let p = Engine::prepare(&q).strategy(s).parallel(w);
                let mut want: Vec<Vec<Value>> = p
                    .answers(&db)
                    .into_iter()
                    .filter(|row| row.iter().all(|v| v.is_named()))
                    .collect();
                want.sort();
                let got = p.certain_rows(&db);
                assert_eq!(got.width(), q.arity(), "case {case} {s:?} w={w}");
                let got: Vec<Vec<Value>> = got.rows().map(<[Value]>::to_vec).collect();
                assert_eq!(got, want, "case {case} {s:?} w={w}");
            }
        }
    }
}

/// The instance id of `atom`'s image under a slot-ordered row of `plan`.
fn image_id(plan: &CompiledQuery, atom: &QAtom, row: &[Value], db: &Instance) -> usize {
    let args = atom.args.iter().map(|t| match *t {
        Term::Const(c) => c,
        Term::Var(v) => row[plan.slot_of(v).expect("atom vars are interned")],
    });
    db.id_of(&GroundAtom::new(atom.predicate, args.collect()))
        .expect("row images are atoms")
}

/// The pinned batch under a semi-naive split, with the delta's atoms as
/// seeds: its rows are the unrestricted per-seed rows minus those that
/// ground an atom before the pin into the delta (the cut may reorder a
/// seed's rows), in the order of the same per-seed searches under the
/// split; a `Break` at any row stops it.
fn check_split<'a>(
    search: &dyn Fn() -> KernelSearch<'a>,
    (db, plan, atoms): (&Instance, &CompiledQuery, &[QAtom]),
    pin: usize,
    delta: &'a Delta,
    rng: &mut Rng,
    ctx: &str,
) {
    let seeds: Vec<GroundAtom> = (0..db.len())
        .filter(|&i| delta.contains(i))
        .map(|i| db.atom(i).clone())
        .collect();
    let mut want: Vec<Vec<Value>> = Vec::new();
    let mut per_seed: Vec<Vec<Value>> = Vec::new();
    for seed in &seeds {
        let Some(bindings) = plan.unify_atom(pin, seed) else {
            continue;
        };
        search()
            .fix_slots(bindings.iter().copied())
            .skip_atom(pin)
            .for_each_row(|row| {
                if !atoms[..pin]
                    .iter()
                    .any(|a| delta.contains(image_id(plan, a, row, db)))
                {
                    want.push(row.to_vec());
                }
                ControlFlow::Continue(())
            });
        search()
            .semi_naive(delta)
            .fix_slots(bindings)
            .skip_atom(pin)
            .for_each_row(|row| {
                per_seed.push(row.to_vec());
                ControlFlow::Continue(())
            });
    }
    let mut got: Vec<Vec<Value>> = Vec::new();
    let stopped = search()
        .semi_naive(delta)
        .for_each_pinned_row(pin, &seeds, |row| {
            got.push(row.to_vec());
            ControlFlow::Continue(())
        });
    assert!(!stopped, "{ctx}");
    assert_eq!(got, per_seed, "{ctx}");
    let mut sorted = got.clone();
    sorted.sort();
    want.sort();
    assert_eq!(sorted, want, "{ctx}");
    if got.is_empty() {
        return;
    }
    let stop_at = rng.below(got.len() as u64) as usize;
    let mut visited = 0usize;
    let stopped = search()
        .semi_naive(delta)
        .for_each_pinned_row(pin, &seeds, |row| {
            assert_eq!(row, got[visited].as_slice(), "{ctx}");
            visited += 1;
            if visited > stop_at {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
    assert!(stopped, "{ctx}");
    assert_eq!(visited, stop_at + 1, "{ctx}");
}

#[test]
fn pinned_batch_equals_per_seed_searches() {
    let mut rng = Rng::seed(0x919e_d5ee);
    let d = dom();
    for case in 0..160u32 {
        let db = arb_db(&mut rng);
        let atoms = arb_atoms(&mut rng);
        let plan = CompiledQuery::compile(&atoms);
        // Sometimes a caller binding the seeds must merge with.
        let mut fixed: Vec<(usize, Value)> = Vec::new();
        if plan.slot_count() > 0 && rng.chance(0.3) {
            let slot = rng.below(plan.slot_count() as u64) as usize;
            fixed.push((slot, d[rng.below(4) as usize]));
        }
        // Injective searches take the per-seed path on both strategies.
        let injective = rng.chance(0.25);
        let seeds = &*db.tail(0);
        // The semi-naive split, drawn from a stream of its own: a suffix
        // of the instance or a sorted id subset.
        let mut split_rng = Rng::seed(0x5e1d ^ u64::from(case));
        let delta = if split_rng.chance(0.5) {
            Delta::Since(split_rng.below(db.len() as u64 + 1) as usize)
        } else {
            Delta::Atoms((0..db.len()).filter(|_| split_rng.chance(0.5)).collect())
        };
        for s in [Strategy::Backtrack, Strategy::Wcoj] {
            let search = || {
                let k = plan
                    .search(&db)
                    .strategy(s)
                    .fix_slots(fixed.iter().copied());
                if injective {
                    k.injective()
                } else {
                    k
                }
            };
            for pin in 0..atoms.len() {
                let ctx = format!("case {case} {s:?} pin {pin}, fixed={fixed:?}, inj={injective}");
                let mut want: Vec<Vec<Value>> = Vec::new();
                for seed in seeds {
                    let Some(bindings) = plan.unify_atom(pin, seed) else {
                        continue;
                    };
                    search()
                        .fix_slots(bindings)
                        .skip_atom(pin)
                        .for_each_row(|row| {
                            want.push(row.to_vec());
                            ControlFlow::Continue(())
                        });
                }
                let mut got: Vec<Vec<Value>> = Vec::new();
                let stopped = search().for_each_pinned_row(pin, seeds, |row| {
                    got.push(row.to_vec());
                    ControlFlow::Continue(())
                });
                assert!(!stopped, "{ctx}");
                assert_eq!(got, want, "{ctx}");
                let ctx_split = format!("{ctx}, {delta:?}");
                let body = (&db, &plan, atoms.as_slice());
                check_split(&search, body, pin, &delta, &mut split_rng, &ctx_split);

                if want.is_empty() {
                    continue;
                }
                // A `Break` at any row stops the whole batch.
                let stop_at = rng.below(want.len() as u64) as usize;
                let mut visited = 0usize;
                let stopped = search().for_each_pinned_row(pin, seeds, |row| {
                    assert_eq!(row, want[visited].as_slice(), "{ctx}");
                    visited += 1;
                    if visited > stop_at {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                assert!(stopped, "{ctx}");
                assert_eq!(visited, stop_at + 1, "{ctx}");
            }
        }
    }
}
