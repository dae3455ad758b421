//! UCQ rewriting for linear TGDs (Proposition D.2, from \[15\]):
//! given Σ ∈ L and a UCQ `q`, compute a UCQ `q′` with
//! `q(chase(D, Σ)) = q′(D)` for every database `D`.
//!
//! This is the classic backward piece-rewriting: pick a *piece* of a
//! disjunct (a set of atoms that can simultaneously map into one
//! instantiation of a TGD head, respecting existential variables), and
//! replace it by the TGD's (single) body atom. Linearity guarantees
//! termination: every step replaces a nonempty piece by one atom, so atom
//! counts never increase, and there are finitely many CQs of bounded size
//! up to renaming.

use crate::tgd::{Tgd, TgdClass};
use gtgd_query::{Cq, QAtom, Term, Ucq, Var};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Rewrites `q` under linear, constant-free Σ into a UCQ `q′` with
/// `q′(D) = q(chase(D, Σ))` for all `D`. Panics if some TGD is not linear
/// or mentions constants.
pub fn linear_rewrite(q: &Ucq, sigma: &[Tgd]) -> Ucq {
    for t in sigma {
        assert!(t.is_in(TgdClass::Linear), "linear_rewrite needs Σ ⊆ L: {t}");
        assert!(
            t.is_constant_free(),
            "linear_rewrite needs constant-free TGDs: {t}"
        );
    }
    let mut seen: HashSet<(Vec<QAtom>, Vec<Var>)> = HashSet::new();
    let mut out: Vec<Cq> = Vec::new();
    let mut frontier: Vec<Cq> = q.disjuncts.iter().map(normalize).collect();
    while let Some(cq) = frontier.pop() {
        if !seen.insert(cq.dedup_key()) {
            continue;
        }
        for next in rewrite_steps(&cq, sigma) {
            frontier.push(normalize(&next));
        }
        out.push(cq);
    }
    // Drop disjuncts classically subsumed by others (keeps the result lean;
    // does not change semantics).
    let mut kept: Vec<Cq> = Vec::new();
    for (i, c) in out.iter().enumerate() {
        let subsumed = out.iter().enumerate().any(|(j, d)| {
            j != i && gtgd_query::cq_contained(c, d) && (!gtgd_query::cq_contained(d, c) || j < i)
        });
        if !subsumed {
            kept.push(c.clone());
        }
    }
    Ucq::new(kept)
}

/// A deterministic normal form: sort atoms, renumber variables by first
/// occurrence, repeat to a fixpoint. Not a full isomorphism canonicalizer,
/// but stable enough to keep the rewriting set small.
fn normalize(q: &Cq) -> Cq {
    let mut current = q.compact();
    for _ in 0..4 {
        let mut atoms = current.atoms.clone();
        atoms.sort();
        let reordered = Cq::new(
            current.var_names().to_vec(),
            atoms,
            current.answer_vars.clone(),
        );
        let next = reordered.compact();
        if next.dedup_key() == current.dedup_key() {
            return next;
        }
        current = next;
    }
    current
}

/// Factorizations of a CQ: for each pair of same-predicate atoms, the
/// contraction that unifies them (when the unification respects answer
/// variables). Factorized disjuncts are contained in the original, so
/// adding them is always sound; they are what lets a multi-occurrence
/// existential position collapse before a piece rewriting (the classic
/// XRewrite factorization step).
fn factorizations(cq: &Cq) -> Vec<Cq> {
    let answer: BTreeSet<Var> = cq.answer_vars.iter().copied().collect();
    let mut out = Vec::new();
    for i in 0..cq.atoms.len() {
        for j in (i + 1)..cq.atoms.len() {
            let (a, b) = (&cq.atoms[i], &cq.atoms[j]);
            if a.predicate != b.predicate || a.args.len() != b.args.len() {
                continue;
            }
            // Unify positionally: build a substitution Var -> Term.
            let mut subst: HashMap<Var, Term> = HashMap::new();
            let mut ok = true;
            let resolve = |subst: &HashMap<Var, Term>, t: Term| -> Term {
                let mut cur = t;
                for _ in 0..cq.atoms.len() * 4 {
                    match cur {
                        Term::Var(v) => match subst.get(&v) {
                            Some(&next) if next != cur => cur = next,
                            _ => return cur,
                        },
                        c => return c,
                    }
                }
                cur
            };
            for (ta, tb) in a.args.iter().zip(b.args.iter()) {
                let ra = resolve(&subst, *ta);
                let rb = resolve(&subst, *tb);
                if ra == rb {
                    continue;
                }
                match (ra, rb) {
                    (Term::Var(va), Term::Var(vb)) => {
                        let (keep, drop) = if answer.contains(&vb) {
                            (vb, va)
                        } else {
                            (va, vb)
                        };
                        if answer.contains(&keep) && answer.contains(&drop) {
                            ok = false;
                            break;
                        }
                        subst.insert(drop, Term::Var(keep));
                    }
                    (Term::Var(v), c) | (c, Term::Var(v)) => {
                        if answer.contains(&v) {
                            ok = false;
                            break;
                        }
                        subst.insert(v, c);
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok || subst.is_empty() {
                continue;
            }
            let atoms: Vec<QAtom> = cq
                .atoms
                .iter()
                .map(|at| {
                    QAtom::new(
                        at.predicate,
                        at.args.iter().map(|&t| resolve(&subst, t)).collect(),
                    )
                })
                .collect();
            out.push(Cq::new(
                cq.var_names().to_vec(),
                atoms,
                cq.answer_vars.clone(),
            ));
        }
    }
    out
}

/// All single-step rewritings of `cq` using some TGD of Σ.
fn rewrite_steps(cq: &Cq, sigma: &[Tgd]) -> Vec<Cq> {
    let answer: BTreeSet<Var> = cq.answer_vars.iter().copied().collect();
    let mut results = factorizations(cq);
    for tgd in sigma {
        if tgd.body.is_empty() {
            // An empty body asserts the head unconditionally; pieces rewrite
            // to the empty conjunction, which a CQ cannot express. Such TGDs
            // are out of scope for rewriting (and rare); skip.
            continue;
        }
        let exist: BTreeSet<Var> = tgd.existential_vars().into_iter().collect();
        // Enumerate pieces: nonempty subsets of cq atoms whose predicates
        // all appear in the head. To stay tractable, pieces grow from a
        // single seed atom by need: we enumerate subsets of candidate atoms
        // (bounded by the head size in practice).
        let candidates: Vec<usize> = (0..cq.atoms.len())
            .filter(|&i| {
                tgd.head
                    .iter()
                    .any(|h| h.predicate == cq.atoms[i].predicate)
            })
            .collect();
        let max_piece = tgd.head.len().min(candidates.len());
        for piece in subsets_up_to(&candidates, max_piece) {
            if piece.is_empty() {
                continue;
            }
            rewrite_piece(cq, tgd, &piece, &answer, &exist, &mut results);
        }
    }
    results
}

fn subsets_up_to(items: &[usize], max_len: usize) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![Vec::new()];
    for &x in items {
        let mut extra: Vec<Vec<usize>> = Vec::new();
        for s in &out {
            if s.len() < max_len {
                let mut t = s.clone();
                t.push(x);
                extra.push(t);
            }
        }
        out.extend(extra);
    }
    out
}

/// Attempts to unify the piece with head atoms of `tgd` and emit the
/// rewritten CQ. The unifier maps TGD variables to query terms; existential
/// TGD variables must map to *local* existential query variables (occurring
/// only inside the piece), and two query terms mapped from the same
/// existential variable must be equal.
fn rewrite_piece(
    cq: &Cq,
    tgd: &Tgd,
    piece: &[usize],
    answer: &BTreeSet<Var>,
    exist: &BTreeSet<Var>,
    results: &mut Vec<Cq>,
) {
    // For each assignment of piece atoms to head atoms, try to unify.
    let head_choices: Vec<Vec<usize>> = piece
        .iter()
        .map(|&ai| {
            (0..tgd.head.len())
                .filter(|&hi| {
                    tgd.head[hi].predicate == cq.atoms[ai].predicate
                        && tgd.head[hi].args.len() == cq.atoms[ai].args.len()
                })
                .collect()
        })
        .collect();
    let mut assignment = vec![0usize; piece.len()];
    enumerate_assignments(&head_choices, 0, &mut assignment, &mut |assign| {
        try_unifier(cq, tgd, piece, assign, answer, exist, results);
    });
}

fn enumerate_assignments(
    choices: &[Vec<usize>],
    i: usize,
    current: &mut Vec<usize>,
    f: &mut impl FnMut(&[usize]),
) {
    if i == choices.len() {
        f(current);
        return;
    }
    for &c in &choices[i] {
        current[i] = c;
        enumerate_assignments(choices, i + 1, current, f);
    }
}

fn try_unifier(
    cq: &Cq,
    tgd: &Tgd,
    piece: &[usize],
    assign: &[usize],
    answer: &BTreeSet<Var>,
    exist: &BTreeSet<Var>,
    results: &mut Vec<Cq>,
) {
    // Unify: tgd var -> query term (most-general unifier with the query
    // side frozen; query variables are treated as constants except that
    // terms matched to the same existential variable must coincide).
    let mut theta: HashMap<Var, Term> = HashMap::new();
    for (pi, &ai) in piece.iter().enumerate() {
        let head_atom = &tgd.head[assign[pi]];
        for (ht, qt) in head_atom.args.iter().zip(cq.atoms[ai].args.iter()) {
            let Term::Var(hv) = *ht else {
                return; // constant-free asserted, unreachable
            };
            match theta.get(&hv) {
                None => {
                    theta.insert(hv, *qt);
                }
                Some(&prev) if prev == *qt => {}
                Some(_) => return, // clash
            }
        }
    }
    // Existential-variable conditions.
    let piece_set: HashSet<usize> = piece.iter().copied().collect();
    for (&hv, &qt) in &theta {
        if !exist.contains(&hv) {
            continue;
        }
        match qt {
            Term::Const(_) => return, // an invented null is never a constant
            Term::Var(qv) => {
                if answer.contains(&qv) {
                    return; // answers range over dom(D), never nulls
                }
                // qv must occur only inside the piece.
                for (i, a) in cq.atoms.iter().enumerate() {
                    if !piece_set.contains(&i) && a.mentions(qv) {
                        return;
                    }
                }
            }
        }
    }
    // Distinct existential variables denote distinct nulls: two of them may
    // not unify to the same query variable.
    {
        let mut images: HashMap<Term, Var> = HashMap::new();
        for (&hv, &qt) in &theta {
            if exist.contains(&hv) {
                if let Some(&other) = images.get(&qt) {
                    if other != hv {
                        return;
                    }
                }
                images.insert(qt, hv);
            }
        }
    }
    // Build the rewritten CQ: drop the piece, add body(σ)θ with fresh
    // variables for unmapped body variables.
    let mut names = cq.var_names().to_vec();
    let mut next = names.len() as u32;
    let mut theta_full = theta.clone();
    let body_atom = &tgd.body[0];
    for v in body_atom.vars() {
        theta_full.entry(v).or_insert_with(|| {
            names.push(format!("r{next}"));
            let nv = Var(next);
            next += 1;
            Term::Var(nv)
        });
    }
    let new_atom = QAtom::new(
        body_atom.predicate,
        body_atom
            .args
            .iter()
            .map(|t| match *t {
                Term::Var(v) => theta_full[&v],
                c => c,
            })
            .collect(),
    );
    let mut atoms: Vec<QAtom> = cq
        .atoms
        .iter()
        .enumerate()
        .filter(|(i, _)| !piece_set.contains(i))
        .map(|(_, a)| a.clone())
        .collect();
    atoms.push(new_atom);
    // Safety: all answer variables must survive.
    let candidate = Cq::new(names, atoms, cq.answer_vars.clone());
    for &v in &candidate.answer_vars {
        if !candidate.atoms.iter().any(|a| a.mentions(v)) {
            return;
        }
    }
    results.push(candidate);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{chase, ChaseBudget};
    use crate::tgd::parse_tgds;
    use gtgd_data::{GroundAtom, Instance, Value};
    use gtgd_query::{evaluate_ucq, parse_ucq};
    use std::collections::HashSet as StdHashSet;

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    /// Cross-checks `q′(D) = q(chase(D, Σ))` on a database.
    fn check_equiv(sigma_src: &str, q_src: &str, d: &Instance, levels: usize) {
        let sigma = parse_tgds(sigma_src).unwrap();
        let q = parse_ucq(q_src).unwrap();
        let rewritten = linear_rewrite(&q, &sigma);
        let direct: StdHashSet<Vec<Value>> = evaluate_ucq(&rewritten, d)
            .into_iter()
            .filter(|t| t.iter().all(|v| d.dom_contains(*v)))
            .collect();
        let reference_chase = chase(d, &sigma, &ChaseBudget::levels(levels));
        let reference: StdHashSet<Vec<Value>> = evaluate_ucq(&q, &reference_chase.instance)
            .into_iter()
            .filter(|t| t.iter().all(|v| d.dom_contains(*v)))
            .collect();
        assert_eq!(direct, reference, "rewriting disagrees with chase");
    }

    #[test]
    fn unary_chain_rewriting() {
        check_equiv(
            "A(X) -> B(X). B(X) -> C(X)",
            "Q(X) :- C(X)",
            &db(&[("A", &["a"]), ("B", &["b"]), ("C", &["c"])]),
            4,
        );
    }

    #[test]
    fn existential_head_rewriting() {
        // Emp(x) → ∃d WorksIn(x, d): asking for some workplace rewrites to
        // just Emp(x) ∨ WorksIn(x, d).
        check_equiv(
            "Emp(X) -> WorksIn(X,D)",
            "Q(X) :- WorksIn(X,D)",
            &db(&[("Emp", &["ann"]), ("WorksIn", &["bob", "hr"])]),
            3,
        );
    }

    #[test]
    fn existential_join_blocks_rewriting() {
        // Q(X,D) :- WorksIn(X,D): D is an answer variable, so the
        // existential rewriting must NOT apply — only explicit workplaces
        // qualify.
        let sigma = parse_tgds("Emp(X) -> WorksIn(X,D)").unwrap();
        let q = parse_ucq("Q(X,D) :- WorksIn(X,D)").unwrap();
        let r = linear_rewrite(&q, &sigma);
        let d = db(&[("Emp", &["ann"]), ("WorksIn", &["bob", "hr"])]);
        let ans = evaluate_ucq(&r, &d);
        assert_eq!(ans.len(), 1, "only bob/hr, ann's workplace is a null");
    }

    #[test]
    fn shared_existential_piece() {
        // σ: A(x) → ∃z R(x,z), S(z). A query joining R and S on z must
        // rewrite both atoms together (a 2-atom piece).
        check_equiv(
            "A(X) -> R(X,Z), S(Z)",
            "Q(X) :- R(X,Z), S(Z)",
            &db(&[("A", &["a"]), ("R", &["b", "c"]), ("S", &["c"])]),
            3,
        );
    }

    #[test]
    fn partial_piece_must_not_fire() {
        // Same σ, but S(z) joined with something external: rewriting only
        // R(x,z) while z also occurs in T(z,w) is unsound and must not
        // produce answers from A alone.
        let sigma = parse_tgds("A(X) -> R(X,Z), S(Z)").unwrap();
        let q = parse_ucq("Q(X) :- R(X,Z), T(Z,W)").unwrap();
        let r = linear_rewrite(&q, &sigma);
        let d = db(&[("A", &["a"]), ("T", &["c", "w"])]);
        let ans = evaluate_ucq(&r, &d);
        assert!(ans.is_empty(), "the null z never joins a database T");
    }

    #[test]
    fn binary_projection_rewriting() {
        check_equiv(
            "Xp(X,Y,Z) -> X2(X,Y)",
            "Q(X,Y) :- X2(X,Y)",
            &db(&[("Xp", &["a", "b", "c"]), ("X2", &["d", "e"])]),
            2,
        );
    }

    #[test]
    fn multi_level_existential_chain() {
        check_equiv(
            "P(X) -> R(X,Y). R(X,Y) -> S(Y)",
            "Q() :- R(X,Y), S(Y)",
            &db(&[("P", &["a"])]),
            4,
        );
    }

    #[test]
    fn rewriting_is_a_ucq_over_the_data_schema_only() {
        let sigma = parse_tgds("A(X) -> B(X)").unwrap();
        let q = parse_ucq("Q(X) :- B(X)").unwrap();
        let r = linear_rewrite(&q, &sigma);
        assert_eq!(r.disjuncts.len(), 2); // B(x) ∨ A(x)
    }

    #[test]
    #[should_panic(expected = "Σ ⊆ L")]
    fn non_linear_rejected() {
        let sigma = parse_tgds("R(X,Y), S(Y,Z) -> T(X,Z)").unwrap();
        linear_rewrite(&parse_ucq("Q() :- T(X,Y)").unwrap(), &sigma);
    }
}
