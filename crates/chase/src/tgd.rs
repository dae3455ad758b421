//! Tuple-generating dependencies: representation, parsing, syntactic
//! classes (Section 2), and satisfaction checking.

use crate::plan::TriggerPlan;
use gtgd_data::{Instance, Schema};
use gtgd_query::{parse_cq, QAtom, Term, Var};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// A TGD `ϕ(x̄, ȳ) → ∃z̄ ψ(x̄, z̄)`.
///
/// The body may be empty (the paper allows it; such a TGD unconditionally
/// asserts its head). Variables shared between body and head form the
/// *frontier*; head variables outside the body are existentially quantified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tgd {
    var_names: Vec<String>,
    /// Body atoms `ϕ` (possibly empty).
    pub body: Vec<QAtom>,
    /// Head atoms `ψ` (nonempty).
    pub head: Vec<QAtom>,
}

/// The syntactic classes of Section 2 that a TGD can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TgdClass {
    /// `G`: some body atom contains every body variable (or the body is
    /// empty).
    Guarded,
    /// `FG`: some body atom contains every frontier variable (or the body is
    /// empty). `G ⊊ FG`.
    FrontierGuarded,
    /// `L`: at most one body atom. `L ⊊ G`.
    Linear,
    /// `FULL`: no existentially quantified head variables.
    Full,
}

impl Tgd {
    /// Builds a TGD; panics on an empty head.
    pub fn new(var_names: Vec<String>, body: Vec<QAtom>, head: Vec<QAtom>) -> Tgd {
        assert!(!head.is_empty(), "a TGD head is a non-empty conjunction");
        let t = Tgd {
            var_names,
            body,
            head,
        };
        for v in t.all_vars() {
            assert!(v.index() < t.var_names.len(), "variable without a name");
        }
        t
    }

    /// The name of `v`.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// A copy of the variable-name table (for constructing derived TGDs).
    pub fn var_name_table(&self) -> Vec<String> {
        self.var_names.clone()
    }

    /// All variables of the TGD, ascending.
    pub fn all_vars(&self) -> Vec<Var> {
        let mut s: BTreeSet<Var> = BTreeSet::new();
        for a in self.body.iter().chain(self.head.iter()) {
            s.extend(a.vars());
        }
        s.into_iter().collect()
    }

    /// The body variables, ascending.
    pub fn body_vars(&self) -> Vec<Var> {
        let mut s: BTreeSet<Var> = BTreeSet::new();
        for a in &self.body {
            s.extend(a.vars());
        }
        s.into_iter().collect()
    }

    /// The frontier `fr(σ)`: variables occurring in both body and head.
    pub fn frontier(&self) -> Vec<Var> {
        let body: BTreeSet<Var> = self.body_vars().into_iter().collect();
        let mut s: BTreeSet<Var> = BTreeSet::new();
        for a in &self.head {
            for v in a.vars() {
                if body.contains(&v) {
                    s.insert(v);
                }
            }
        }
        s.into_iter().collect()
    }

    /// The existentially quantified head variables `z̄`.
    pub fn existential_vars(&self) -> Vec<Var> {
        let body: BTreeSet<Var> = self.body_vars().into_iter().collect();
        let mut s: BTreeSet<Var> = BTreeSet::new();
        for a in &self.head {
            for v in a.vars() {
                if !body.contains(&v) {
                    s.insert(v);
                }
            }
        }
        s.into_iter().collect()
    }

    /// Whether the TGD is guarded; returns the index of a guard body atom,
    /// or `None` for an empty body (guarded by convention).
    pub fn guard(&self) -> Option<usize> {
        let vars = self.body_vars();
        (0..self.body.len()).find(|&i| vars.iter().all(|&v| self.body[i].mentions(v)))
    }

    /// Whether the TGD is frontier-guarded; returns the index of a body atom
    /// containing all frontier variables.
    pub fn frontier_guard(&self) -> Option<usize> {
        let fr = self.frontier();
        (0..self.body.len()).find(|&i| fr.iter().all(|&v| self.body[i].mentions(v)))
    }

    /// Membership test for a syntactic class.
    pub fn is_in(&self, class: TgdClass) -> bool {
        match class {
            TgdClass::Guarded => self.body.is_empty() || self.guard().is_some(),
            TgdClass::FrontierGuarded => self.body.is_empty() || self.frontier_guard().is_some(),
            TgdClass::Linear => self.body.len() <= 1,
            TgdClass::Full => self.existential_vars().is_empty(),
        }
    }

    /// Whether every argument of every atom is a variable.
    pub fn is_constant_free(&self) -> bool {
        (self.body.iter().chain(&self.head))
            .all(|a| a.args.iter().all(|t| matches!(t, Term::Var(_))))
    }

    /// Number of head atoms (the `m` of `FG_m`).
    pub fn head_atom_count(&self) -> usize {
        self.head.len()
    }

    /// The schema realized by the TGD's atoms.
    pub fn schema(&self) -> Schema {
        let mut s = Schema::new();
        for a in self.body.iter().chain(self.head.iter()) {
            s.add(a.predicate, a.args.len());
        }
        s
    }
}

impl std::fmt::Display for Tgd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fmt_atom = |f: &mut std::fmt::Formatter<'_>, a: &QAtom| -> std::fmt::Result {
            write!(f, "{}(", a.predicate)?;
            for (j, t) in a.args.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                match t {
                    Term::Var(v) => write!(f, "{}", self.var_name(*v))?,
                    Term::Const(c) => write!(f, "\"{c}\"")?,
                }
            }
            write!(f, ")")
        };
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            fmt_atom(f, a)?;
        }
        write!(f, " -> ")?;
        for (i, a) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            fmt_atom(f, a)?;
        }
        Ok(())
    }
}

/// Parses a TGD written as `body -> head`, with the same term conventions as
/// the CQ parser (uppercase = variable). The body may be empty:
/// `-> R(X)` asserts `∃x R(x)`.
///
/// Example: `R(X,Y), S(Y) -> T(X,Z), U(Z)`.
pub fn parse_tgd(input: &str) -> Result<Tgd, gtgd_query::ParseError> {
    let (body_src, head_src) = input
        .split_once("->")
        .ok_or_else(|| gtgd_query::ParseError {
            message: "expected '->' separating body and head".into(),
            offset: 0,
        })?;
    // Parse body and head as separate rule bodies, then unify variables by
    // name (the CQ parser scopes variables per rule).
    let body_trim = body_src.trim();
    let head_trim = head_src.trim();
    if head_trim.is_empty() {
        return Err(gtgd_query::ParseError {
            message: "a TGD needs a non-empty head".into(),
            offset: input.len(),
        });
    }
    let (mut var_names, body) = if body_trim.is_empty() {
        (Vec::new(), Vec::new())
    } else {
        let cq = parse_cq(&format!("H() :- {body_trim}"))?;
        (cq.var_names().to_vec(), cq.atoms.clone())
    };
    let head_cq = parse_cq(&format!("H() :- {head_trim}"))?;
    // Remap head variables: reuse the body's id when the name matches,
    // otherwise append a fresh variable.
    let mut remap: Vec<Var> = Vec::with_capacity(head_cq.var_names().len());
    for name in head_cq.var_names() {
        let id = match var_names.iter().position(|n| n == name) {
            Some(i) => Var(i as u32),
            None => {
                var_names.push(name.clone());
                Var((var_names.len() - 1) as u32)
            }
        };
        remap.push(id);
    }
    let head: Vec<QAtom> = head_cq
        .atoms
        .iter()
        .map(|a| a.map_vars(|v| remap[v.index()]))
        .collect();
    Ok(Tgd::new(var_names, body, head))
}

/// Parses a set of TGDs separated by `.`, skipping blank segments.
pub fn parse_tgds(input: &str) -> Result<Vec<Tgd>, gtgd_query::ParseError> {
    input
        .split('.')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_tgd)
        .collect()
}

/// Whether `I |= σ`: every homomorphism from the body extends to the head
/// (`q_ϕ(I) ⊆ q_ψ(I)` on the frontier). Runs the chase's own compiled
/// trigger plan: one body search, and per row the head check the
/// restricted chase makes before a firing.
pub fn satisfies(i: &Instance, tgd: &Tgd) -> bool {
    let plan = TriggerPlan::new(tgd, 0);
    !plan.body.search(i).for_each_row(|row| {
        if plan.head_satisfied(row, i) {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    })
}

/// Whether `I |= Σ`.
pub fn satisfies_all(i: &Instance, tgds: &[Tgd]) -> bool {
    tgds.iter().all(|t| satisfies(i, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtgd_data::GroundAtom;

    #[test]
    fn parse_and_display() {
        let t = parse_tgd("R(X,Y), S(Y) -> T(X,Z)").unwrap();
        assert_eq!(t.body.len(), 2);
        assert_eq!(t.head.len(), 1);
        assert_eq!(t.to_string(), "R(X,Y), S(Y) -> T(X,Z)");
    }

    #[test]
    fn frontier_and_existentials() {
        let t = parse_tgd("R(X,Y) -> T(X,Z), U(Z,W)").unwrap();
        let names: Vec<&str> = t.frontier().iter().map(|&v| t.var_name(v)).collect();
        assert_eq!(names, vec!["X"]);
        let ex: Vec<&str> = t
            .existential_vars()
            .iter()
            .map(|&v| t.var_name(v))
            .collect();
        assert_eq!(ex, vec!["Z", "W"]);
    }

    #[test]
    fn classification() {
        // Guarded: R(X,Y) guards both body vars.
        let g = parse_tgd("R(X,Y) -> T(X)").unwrap();
        assert!(g.is_in(TgdClass::Guarded));
        assert!(g.is_in(TgdClass::FrontierGuarded));
        assert!(g.is_in(TgdClass::Linear));
        assert!(g.is_in(TgdClass::Full));

        // Frontier-guarded but not guarded: body vars X,Y,Z not co-guarded,
        // but frontier {X} is.
        let fg = parse_tgd("R(X,Y), S(Y,Z) -> T(X)").unwrap();
        assert!(!fg.is_in(TgdClass::Guarded));
        assert!(fg.is_in(TgdClass::FrontierGuarded));
        assert!(!fg.is_in(TgdClass::Linear));

        // Neither: frontier {X, Z} spans two atoms.
        let nfg = parse_tgd("R(X,Y), S(Y,Z) -> T(X,Z)").unwrap();
        assert!(!nfg.is_in(TgdClass::FrontierGuarded));

        // Existential head.
        let e = parse_tgd("R(X,Y) -> T(Y,Z)").unwrap();
        assert!(!e.is_in(TgdClass::Full));
        assert!(e.is_in(TgdClass::Guarded));
    }

    #[test]
    fn boolean_cq_as_frontier_guarded_tgd() {
        // Prop 3.3(2)'s observation: ϕ(x̄) → Ans is frontier-guarded because
        // the frontier is empty.
        let t = parse_tgd("E(X,Y), E(Y,Z), E(Z,X) -> Ans()").unwrap();
        assert!(t.frontier().is_empty());
        assert!(t.is_in(TgdClass::FrontierGuarded));
        assert!(!t.is_in(TgdClass::Guarded));
    }

    #[test]
    fn empty_body_tgd() {
        let t = parse_tgd("-> R(X)").unwrap();
        assert!(t.body.is_empty());
        assert!(t.is_in(TgdClass::Guarded));
        assert!(t.is_in(TgdClass::Linear));
        assert!(!t.is_in(TgdClass::Full));
    }

    #[test]
    fn satisfaction() {
        let t = parse_tgd("R(X,Y) -> R(Y,X)").unwrap();
        let sym = Instance::from_atoms([
            GroundAtom::named("R", &["a", "b"]),
            GroundAtom::named("R", &["b", "a"]),
        ]);
        assert!(satisfies(&sym, &t));
        let asym = Instance::from_atoms([GroundAtom::named("R", &["a", "b"])]);
        assert!(!satisfies(&asym, &t));
    }

    #[test]
    fn satisfaction_with_existential_head() {
        let t = parse_tgd("Person(X) -> HasParent(X,Y)").unwrap();
        let good = Instance::from_atoms([
            GroundAtom::named("Person", &["alice"]),
            GroundAtom::named("HasParent", &["alice", "bob"]),
        ]);
        assert!(satisfies(&good, &t));
        let bad = Instance::from_atoms([GroundAtom::named("Person", &["alice"])]);
        assert!(!satisfies(&bad, &t));
        assert!(!satisfies_all(&bad, &[t]));
    }

    #[test]
    fn parse_tgds_multiple() {
        let ts = parse_tgds("R(X) -> S(X). S(X) -> T(X,Y).").unwrap();
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn parse_rejects_missing_head() {
        assert!(parse_tgd("R(X) -> ").is_err());
        assert!(parse_tgd("R(X)").is_err());
    }
}
