//! Exact certain answers of a UCQ under guarded, constant-free Σ, with no
//! depth bound (the algorithm behind Prop 3.3(3)). A match into
//! `chase(D, Σ)` splits into a part over `dom(D)` and pieces that each hang
//! below one bag (the squid decomposition of Calì, Gottlob & Kifer), and
//! only a non-answer variable whose every occurrence sits at an *affected*
//! position of Σ (a *nullable* one) can map to a null. The pieces compile to
//! full rules over fresh predicates `P_K`, which the [`Saturator`] closes
//! bag by bag alongside Σ; the answers are then a rewritten UCQ evaluated
//! over the ground saturation. DESIGN.md §3 states the construction and
//! argues completeness. Inside pieces each query constant becomes a fresh
//! non-nullable variable, so the rules stay constant-free; the rewritten
//! UCQ keeps the constant. Rules and disjuncts grow exponentially with a
//! disjunct's nullable variables: the `f(|q|)` factor of Prop 3.3(3).

use crate::tgd::Tgd;
use crate::types::Saturator;
use gtgd_data::{Instance, Predicate};
use gtgd_query::{Cq, QAtom, Term, Ucq, Var};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Most nullable variables per disjunct: their sets are `u64` masks.
pub const MAX_NULLABLE_VARS: usize = 63;

/// What [`piece_saturation`] returns.
#[derive(Debug, Clone)]
pub struct PieceSaturation {
    /// `chase↓(D, Σ ∪ pieces)`: the atoms over `dom(D)`, piece atoms too.
    pub instance: Instance,
    /// The rewritten UCQ, whose answers over `instance` are the certain
    /// answers (less the disjuncts over a predicate `instance` lacks).
    pub query: Ucq,
    /// Canonical types the saturator interned.
    pub type_count: usize,
}

/// Compiles `query` into piece rules and saturates `db` under `tgds` plus
/// those rules. Panics unless every TGD is guarded and constant-free, or
/// when a disjunct has more than [`MAX_NULLABLE_VARS`] nullable variables.
pub fn piece_saturation(db: &Instance, tgds: &[Tgd], query: &Ucq) -> PieceSaturation {
    let affected = affected_positions(tgds);
    let (mut rules, mut rewritten) = (Vec::new(), Vec::new());
    for (tag, q) in query.disjuncts.iter().enumerate() {
        let mut p = Pieces::new(q, tag, &affected);
        let mut r = p.all;
        while r != 0 {
            rewritten.push(p.top_level(q, r));
            r = (r - 1) & p.all;
        }
        rules.append(&mut p.rules);
    }
    let mut sat = Saturator::with_pieces(tgds, &rules);
    let instance = sat.ground_saturation(db);
    let held: HashSet<Predicate> = instance.iter().map(|a| a.predicate).collect();
    rewritten.retain(|q: &Cq| q.atoms.iter().all(|a| held.contains(&a.predicate)));
    PieceSaturation {
        instance,
        query: Ucq::new(query.disjuncts.iter().cloned().chain(rewritten).collect()),
        type_count: sat.type_count(),
    }
}

/// The positions of Σ where a null can occur: those of an existential head
/// variable, and those of a frontier variable whose every body occurrence
/// is affected.
fn affected_positions(tgds: &[Tgd]) -> HashSet<(Predicate, usize)> {
    let mut affected = HashSet::new();
    loop {
        let before = affected.len();
        for (t, a) in tgds.iter().flat_map(|t| t.head.iter().map(move |a| (t, a))) {
            for (i, &arg) in a.args.iter().enumerate() {
                // Vacuously true for an existential variable.
                if t.body.iter().all(|b| all_affected(b, arg, &affected)) {
                    affected.insert((a.predicate, i));
                }
            }
        }
        if affected.len() == before {
            return affected;
        }
    }
}

/// Whether every occurrence of `t` in `a` is at an affected position.
fn all_affected(a: &QAtom, t: Term, affected: &HashSet<(Predicate, usize)>) -> bool {
    (a.args.iter().enumerate()).all(|(i, &x)| x != t || affected.contains(&(a.predicate, i)))
}

/// The piece compiler of one disjunct. A mask's bit `i` is the `i`-th
/// nullable variable.
struct Pieces {
    /// The disjunct's atoms, each constant replaced by a fresh variable.
    atoms: Vec<QAtom>,
    /// The disjunct's variable names, then the fresh variables'.
    names: Vec<String>,
    /// The constant each fresh variable (one per occurrence) stands for.
    constants: HashMap<Term, Term>,
    nullable: Vec<Var>,
    /// The mask of every nullable variable.
    all: u64,
    /// The mask of the nullable variables each atom touches.
    touch: Vec<u64>,
    tag: usize,
    /// `P_K(interface)` of each K compiled so far.
    heads: HashMap<u64, QAtom>,
    rules: Vec<Tgd>,
}

impl Pieces {
    fn new(q: &Cq, tag: usize, affected: &HashSet<(Predicate, usize)>) -> Pieces {
        let (mut names, mut constants) = (q.var_names().to_vec(), HashMap::new());
        let mut atoms = q.atoms.clone();
        for t in atoms.iter_mut().flat_map(|a| a.args.iter_mut()) {
            if let Term::Const(c) = *t {
                *t = Term::Var(Var(names.len() as u32));
                constants.insert(*t, Term::Const(c));
                names.push(format!("__c{}", names.len()));
            }
        }
        let nullable: Vec<Var> = (q.existential_vars().into_iter())
            .filter(|&v| (q.atoms.iter()).all(|a| all_affected(a, Term::Var(v), affected)))
            .collect();
        let n = nullable.len();
        assert!(n <= MAX_NULLABLE_VARS, "{n} nullable variables");
        let mask = |a: &QAtom| (0..n).fold(0, |m, i| m | u64::from(a.mentions(nullable[i])) << i);
        let touch = atoms.iter().map(mask).collect();
        Pieces {
            atoms,
            names,
            constants,
            nullable,
            all: (1 << n) - 1,
            touch,
            tag,
            heads: HashMap::new(),
            rules: Vec::new(),
        }
    }

    /// The disjunct for the nonempty set `r` of variables mapped to nulls:
    /// the atoms touching none of `r`, and `P_K` for each component `K` of
    /// `r`, constants restored.
    fn top_level(&mut self, q: &Cq, r: u64) -> Cq {
        let mut atoms: Vec<QAtom> = (q.atoms.iter().zip(&self.touch))
            .filter(|&(_, t)| t & r == 0)
            .map(|(a, _)| a.clone())
            .collect();
        for k in self.components(r) {
            let mut head = self.piece(k);
            head.args = (head.args.iter())
                .map(|t| *self.constants.get(t).unwrap_or(t))
                .collect();
            atoms.push(head);
        }
        Cq::new(self.names.clone(), atoms, q.answer_vars.clone())
    }

    /// The components of `mask`, connected through the atoms touching it.
    fn components(&self, mask: u64) -> Vec<u64> {
        let (mut out, mut rest) = (Vec::new(), mask);
        while rest != 0 {
            let (mut comp, mut grown) = (0, rest & rest.wrapping_neg());
            while grown != comp {
                comp = grown;
                grown = (self.touch.iter().filter(|&&t| t & comp != 0))
                    .fold(comp, |c, &t| c | t & mask);
            }
            out.push(comp);
            rest &= !comp;
        }
        out
    }

    /// The atoms touching `k` and none of `skip`.
    fn touching(&self, k: u64, skip: u64) -> impl Iterator<Item = &QAtom> {
        (self.atoms.iter().zip(&self.touch))
            .filter(move |&(_, &t)| t & k != 0 && t & skip == 0)
            .map(|(a, _)| a)
    }

    /// `P_K(interface)` for a connected `k`; the interface is the other
    /// variables of the atoms touching `k`, ascending. On first use, one
    /// rule per nonempty `v0 ⊆ k` (the variables mapped to one bag's own
    /// nulls): the atoms touching `k` but none of `k∖v0`, and `P_Kj` for
    /// each component `Kj` of `k∖v0`, imply `P_K`.
    fn piece(&mut self, k: u64) -> QAtom {
        if let Some(head) = self.heads.get(&k) {
            return head.clone();
        }
        let outside =
            |v: &Var| (self.nullable.iter().position(|n| n == v)).is_none_or(|i| k >> i & 1 == 0);
        let interface: BTreeSet<Var> = self
            .touching(k, 0)
            .flat_map(QAtom::vars)
            .filter(outside)
            .collect();
        let pred = Predicate::new(&format!("__piece{}_{k:x}", self.tag));
        let head = QAtom::new(pred, interface.into_iter().map(Term::Var).collect());
        self.heads.insert(k, head.clone());
        let mut v0 = k;
        while v0 != 0 {
            let below = k & !v0;
            let mut body: Vec<QAtom> = self.touching(k, below).cloned().collect();
            for kj in self.components(below) {
                body.push(self.piece(kj));
            }
            (self.rules).push(Tgd::new(self.names.clone(), body, vec![head.clone()]));
            v0 = (v0 - 1) & k;
        }
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{chase, ChaseBudget};
    use crate::tgd::parse_tgds;
    use gtgd_data::{GroundAtom, Value};
    use gtgd_query::{evaluate_ucq, parse_ucq};

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    fn answers(d: &Instance, sigma: &str, q: &str) -> HashSet<Vec<Value>> {
        let tgds = parse_tgds(sigma).unwrap();
        let p = piece_saturation(d, &tgds, &parse_ucq(q).unwrap());
        evaluate_ucq(&p.query, &p.instance)
    }

    #[test]
    fn affected_positions_follow_nulls() {
        let tgds = parse_tgds("A(X) -> R(X,Y). R(X,Y) -> S(Y,X). S(X,Y), B(Y) -> T(Y)").unwrap();
        let affected = affected_positions(&tgds);
        let at = |p: &str, i| affected.contains(&(Predicate::new(p), i));
        assert!(at("R", 1) && at("S", 0));
        assert!(!at("R", 0) && !at("S", 1));
        // Y also occurs at B's unaffected position, so T stays null-free.
        assert!(!at("T", 0));
    }

    #[test]
    fn full_sigma_compiles_the_query_to_itself() {
        let tgds = parse_tgds("A(X) -> B(X)").unwrap();
        let q = parse_ucq("Q(X) :- B(X), R(X,Y)").unwrap();
        let p = piece_saturation(&db(&[("A", &["a"]), ("R", &["a", "b"])]), &tgds, &q);
        assert_eq!(p.query, q);
    }

    #[test]
    fn pieces_below_the_ground_part_are_found_without_a_depth() {
        // The match needs a null chain of length 3 below eve.
        let got = answers(
            &db(&[("Person", &["eve"])]),
            "Person(X) -> Parent(X,Y), Person(Y)",
            "Q(X) :- Parent(X,Y), Parent(Y,Z), Parent(Z,W), Person(W)",
        );
        assert_eq!(got, HashSet::from([vec![Value::named("eve")]]));
    }

    #[test]
    fn query_constants_stay_rigid_inside_pieces() {
        let sigma = "R(X,Y) -> S(Y,Z), T(Z,Y)";
        let d = db(&[("R", &["a", "b"]), ("R", &["a", "c"])]);
        // Z is a null whose T edge points back at the constant it hangs below.
        let got = answers(&d, sigma, "Q(X) :- R(X,Y), S(b,Z), T(Z,b)");
        assert_eq!(got, HashSet::from([vec![Value::named("a")]]));
        assert!(answers(&d, sigma, "Q() :- S(c,Z), T(Z,b)").is_empty());
        assert!(answers(&d, sigma, "Q() :- S(d,Z)").is_empty());
    }

    #[test]
    fn answers_match_a_complete_chase() {
        let sigma = "A(X) -> R(X,Y), B(Y). B(X) -> S(X,Y). S(X,Y) -> C(X). R(X,Y), C(Y) -> D(X)";
        let d = db(&[("A", &["a"]), ("R", &["b", "a"])]);
        let tgds = parse_tgds(sigma).unwrap();
        let full = chase(&d, &tgds, &ChaseBudget::unbounded());
        assert!(full.complete);
        for q in [
            "Q(X) :- D(X)",
            "Q(X) :- R(X,Y), S(Y,Z)",
            "Q(X) :- R(X,Y), R(Y,Z), D(Y)",
            "Q() :- R(X,Y), B(Y), S(Y,Z), C(Y)",
            "Q(X) :- R(X,Y), B(Y). Q(X) :- S(X,Y)",
        ] {
            let ucq = parse_ucq(q).unwrap();
            let want: HashSet<Vec<Value>> = evaluate_ucq(&ucq, &full.instance)
                .into_iter()
                .filter(|t| t.iter().all(|v| d.dom_contains(*v)))
                .collect();
            assert_eq!(answers(&d, sigma, q), want, "{q}");
        }
    }
}
