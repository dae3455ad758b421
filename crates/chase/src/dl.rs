//! An ELHI⊥ description-logic front-end (the paper's Section 1 contrast:
//! the DL-based characterizations of \[7\] concern ELHI⊥, "essentially a
//! fragment of guarded TGDs"). This module makes that fragment concrete:
//! ELHI⊥ TBoxes translate into **guarded** TGDs, so every guarded-OMQ
//! algorithm in this toolkit applies to DL ontologies unchanged.
//!
//! Supported axioms (`C`, `D` concepts; `r`, `s` roles, possibly inverse):
//!
//! * concept inclusions `C ⊑ D`,
//! * role inclusions `r ⊑ s`,
//! * disjointness via `C ⊑ ⊥` (translated to a `__Bot` marker; a consistent
//!   ABox never derives it).
//!
//! Concepts: `⊤`, atomic names, conjunction `C ⊓ D`, and existential
//! restriction `∃r.C` (with `r⁻` allowed). Nested concepts are normalized
//! with fresh names before translation.
//!
//! Text syntax (ASCII): `A & exists r. B < C`, `A < exists inv r. B`,
//! `r < s` (role inclusion when both sides are role names), `A < bot`,
//! `top < A`.

use crate::tgd::Tgd;
use gtgd_data::Predicate;
use gtgd_query::{QAtom, Term, Var};

/// A role: a role name, possibly inverted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Role {
    /// The role name (a binary predicate).
    pub name: String,
    /// Whether the role is inverted (`r⁻`).
    pub inverse: bool,
}

/// An ELHI⊥ concept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Concept {
    /// `⊤`.
    Top,
    /// `⊥` (only meaningful on right-hand sides).
    Bottom,
    /// An atomic concept name (a unary predicate).
    Atomic(String),
    /// Conjunction `C ⊓ D`.
    And(Box<Concept>, Box<Concept>),
    /// Existential restriction `∃r.C`.
    Exists(Role, Box<Concept>),
}

/// A TBox axiom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Axiom {
    /// `C ⊑ D`.
    ConceptInclusion(Concept, Concept),
    /// `r ⊑ s`.
    RoleInclusion(Role, Role),
}

/// The marker predicate standing in for `⊥` (TGDs have no negation; a
/// consistent database never entails it).
pub fn bottom_predicate() -> Predicate {
    Predicate::new("__Bot")
}

/// Parse errors for the DL syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DlParseError(pub String);

impl std::fmt::Display for DlParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DL parse error: {}", self.0)
    }
}

impl std::error::Error for DlParseError {}

/// An axiom that parses but does not land in the guarded-TGD fragment this
/// module targets (e.g. `⊤` on a left-hand side, which would need an
/// unguarded domain rule). Produced by [`try_tbox_to_tgds`]; ingestion
/// frontends surface it as a described rejection instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentError {
    /// A rendering of the offending (sub-)axiom.
    pub axiom: String,
    /// Why the translation cannot stay guarded.
    pub reason: String,
}

impl std::fmt::Display for FragmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "axiom outside the guarded fragment: {} ({})",
            self.axiom, self.reason
        )
    }
}

impl std::error::Error for FragmentError {}

/// Parses one axiom: `lhs < rhs`. Both sides are concepts unless both are
/// bare role names occurring after `exists` nowhere — then it is a role
/// inclusion. To force a role inclusion, write `role r < s`.
pub fn parse_axiom(src: &str) -> Result<Axiom, DlParseError> {
    let src = src.trim();
    if let Some(rest) = src.strip_prefix("role ") {
        let (l, r) = rest
            .split_once('<')
            .ok_or_else(|| DlParseError("expected '<'".into()))?;
        return Ok(Axiom::RoleInclusion(parse_role(l)?, parse_role(r)?));
    }
    let (l, r) = src
        .split_once('<')
        .ok_or_else(|| DlParseError("expected '<'".into()))?;
    Ok(Axiom::ConceptInclusion(
        parse_concept(l)?,
        parse_concept(r)?,
    ))
}

/// Parses a whole TBox: axioms separated by `;` or newlines (`.` belongs
/// to the `exists r. C` syntax).
pub fn parse_tbox(src: &str) -> Result<Vec<Axiom>, DlParseError> {
    src.split([';', '\n'])
        .map(str::trim)
        .filter(|s| !s.is_empty() && !s.starts_with('#'))
        .map(parse_axiom)
        .collect()
}

fn parse_role(src: &str) -> Result<Role, DlParseError> {
    let src = src.trim();
    if let Some(rest) = src.strip_prefix("inv ") {
        Ok(Role {
            name: ident(rest)?,
            inverse: true,
        })
    } else {
        Ok(Role {
            name: ident(src)?,
            inverse: false,
        })
    }
}

fn ident(src: &str) -> Result<String, DlParseError> {
    let s = src.trim();
    if s.is_empty() || !s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(DlParseError(format!("bad identifier {s:?}")));
    }
    Ok(s.to_string())
}

/// Parses a concept: conjunctions of factors, where a factor is `top`,
/// `bot`, an atomic name, or `exists [inv] r. C` (the restriction extends
/// to the end of the factor; parenthesize with `( … )`).
fn parse_concept(src: &str) -> Result<Concept, DlParseError> {
    let parts = split_top_level(src.trim(), '&')?;
    let mut factors = Vec::new();
    for p in parts {
        factors.push(parse_factor(p.trim())?);
    }
    let mut it = factors.into_iter();
    let first = it
        .next()
        .ok_or_else(|| DlParseError("empty concept".into()))?;
    Ok(it.fold(first, |acc, c| Concept::And(Box::new(acc), Box::new(c))))
}

fn parse_factor(src: &str) -> Result<Concept, DlParseError> {
    if src.starts_with('(') && src.ends_with(')') {
        return parse_concept(&src[1..src.len() - 1]);
    }
    match src {
        "top" => return Ok(Concept::Top),
        "bot" => return Ok(Concept::Bottom),
        _ => {}
    }
    if let Some(rest) = src.strip_prefix("exists ") {
        let (role_src, filler_src) = rest
            .split_once('.')
            .ok_or_else(|| DlParseError("exists needs 'r. C'".into()))?;
        return Ok(Concept::Exists(
            parse_role(role_src)?,
            Box::new(parse_concept(filler_src)?),
        ));
    }
    Ok(Concept::Atomic(ident(src)?))
}

/// Splits on a separator at parenthesis depth 0.
fn split_top_level(src: &str, sep: char) -> Result<Vec<&str>, DlParseError> {
    let mut depth = 0i32;
    let mut parts = Vec::new();
    let mut start = 0usize;
    for (i, c) in src.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth < 0 {
                    return Err(DlParseError("unbalanced ')'".into()));
                }
            }
            c if c == sep && depth == 0 => {
                parts.push(&src[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err(DlParseError("unbalanced '('".into()));
    }
    parts.push(&src[start..]);
    Ok(parts)
}

/// Translator state: emits TGDs, inventing fresh concept names for nested
/// concepts (standard ELHI normalization).
struct Translator {
    tgds: Vec<Tgd>,
    fresh: usize,
}

impl Translator {
    fn fresh_name(&mut self) -> String {
        self.fresh += 1;
        format!("__C{}", self.fresh)
    }

    /// A role atom `r(x, y)` respecting inversion.
    fn role_atom(role: &Role, x: Var, y: Var) -> QAtom {
        let (a, b) = if role.inverse { (y, x) } else { (x, y) };
        QAtom::new(Predicate::new(&role.name), vec![Term::Var(a), Term::Var(b)])
    }

    /// Whether a concept flattens into a guarded one-hop body: no nested
    /// existential restrictions.
    fn is_flat(c: &Concept) -> bool {
        match c {
            Concept::Top | Concept::Bottom | Concept::Atomic(_) => true,
            Concept::And(l, r) => Self::is_flat(l) && Self::is_flat(r),
            Concept::Exists(..) => false,
        }
    }

    /// Returns body atoms over variable `x` (plus auxiliaries) asserting
    /// membership in `c`. One-hop existentials (`∃r.C` with flat `C`)
    /// flatten into the body, where the role atom guards `{x, y}`; deeper
    /// nesting is named apart (`filler ⊑ F`, recursively translated) so
    /// every produced TGD stays **guarded**, not merely frontier-guarded.
    fn lhs_atoms(
        &mut self,
        c: &Concept,
        x: Var,
        next: &mut u32,
        names: &mut Vec<String>,
    ) -> Result<Vec<QAtom>, FragmentError> {
        Ok(match c {
            Concept::Top => Vec::new(),
            Concept::Bottom => vec![QAtom::new(bottom_predicate(), vec![Term::Var(x)])],
            Concept::Atomic(a) => vec![QAtom::new(Predicate::new(a), vec![Term::Var(x)])],
            Concept::And(l, r) => {
                let mut out = self.lhs_atoms(l, x, next, names)?;
                out.extend(self.lhs_atoms(r, x, next, names)?);
                out
            }
            Concept::Exists(role, filler) => {
                names.push(format!("y{next}"));
                let y = Var(*next);
                *next += 1;
                let mut out = vec![Self::role_atom(role, x, y)];
                let flat_filler = if Self::is_flat(filler) {
                    filler.as_ref().clone()
                } else {
                    // filler ⊑ F, then use F(y): keeps this body one-hop.
                    let name = self.fresh_name();
                    self.emit_inclusion(filler, &Concept::Atomic(name.clone()))?;
                    Concept::Atomic(name)
                };
                out.extend(self.flat_atoms(&flat_filler, y));
                out
            }
        })
    }

    /// Atoms for a flat concept over one variable.
    fn flat_atoms(&self, c: &Concept, v: Var) -> Vec<QAtom> {
        match c {
            Concept::Top => Vec::new(),
            Concept::Bottom => vec![QAtom::new(bottom_predicate(), vec![Term::Var(v)])],
            Concept::Atomic(a) => vec![QAtom::new(Predicate::new(a), vec![Term::Var(v)])],
            Concept::And(l, r) => {
                let mut out = self.flat_atoms(l, v);
                out.extend(self.flat_atoms(r, v));
                out
            }
            Concept::Exists(..) => unreachable!("flat concepts have no existentials"),
        }
    }

    /// Reduces a right-hand-side concept to an atomic name (or Top/Bottom),
    /// emitting definitional TGDs for complex fillers.
    fn rhs_name(&mut self, c: &Concept) -> Result<Concept, FragmentError> {
        match c {
            Concept::Top | Concept::Bottom | Concept::Atomic(_) => Ok(c.clone()),
            _ => {
                let name = self.fresh_name();
                // __Ci ⊑ c, i.e. a TGD __Ci(x) → atoms(c).
                self.emit_inclusion(&Concept::Atomic(name.clone()), c)?;
                Ok(Concept::Atomic(name))
            }
        }
    }

    /// Emits TGDs for `lhs ⊑ rhs`, or reports why the inclusion falls
    /// outside the guarded fragment.
    fn emit_inclusion(&mut self, lhs: &Concept, rhs: &Concept) -> Result<(), FragmentError> {
        // Body: flatten lhs over x.
        let mut names = vec!["x".to_string()];
        let x = Var(0);
        let mut next = 1u32;
        let body = self.lhs_atoms(lhs, x, &mut next, &mut names)?;
        // Head: by rhs shape.
        match rhs {
            Concept::Top => {} // trivial, no TGD
            Concept::Bottom => {
                let head = vec![QAtom::new(bottom_predicate(), vec![Term::Var(x)])];
                self.push_tgd(names, body, head, lhs)?;
            }
            Concept::Atomic(a) => {
                let head = vec![QAtom::new(Predicate::new(a), vec![Term::Var(x)])];
                self.push_tgd(names, body, head, lhs)?;
            }
            Concept::And(l, r) => {
                self.emit_inclusion(lhs, l)?;
                self.emit_inclusion(lhs, r)?;
            }
            Concept::Exists(role, filler) => {
                let filler_name = self.rhs_name(filler)?;
                let mut names2 = names.clone();
                names2.push(format!("y{next}"));
                let y = Var(next);
                let mut head = vec![Self::role_atom(role, x, y)];
                match &filler_name {
                    Concept::Top => {}
                    Concept::Atomic(a) => {
                        head.push(QAtom::new(Predicate::new(a), vec![Term::Var(y)]));
                    }
                    Concept::Bottom => {
                        head.push(QAtom::new(bottom_predicate(), vec![Term::Var(y)]));
                    }
                    _ => unreachable!("rhs_name returns atomic-like concepts"),
                }
                self.push_tgd(names2, body, head, lhs)?;
            }
        }
        Ok(())
    }

    fn push_tgd(
        &mut self,
        names: Vec<String>,
        body: Vec<QAtom>,
        head: Vec<QAtom>,
        lhs: &Concept,
    ) -> Result<(), FragmentError> {
        // An empty body arises from ⊤ ⊑ …, which is not expressible as a
        // safe guarded TGD over unary/binary signatures unless we guard by
        // a domain predicate; require a nonempty lhs instead.
        if body.is_empty() {
            return Err(FragmentError {
                axiom: format!("{lhs:?}"),
                reason: "⊤ on the left-hand side is unsupported; \
                         guard it with an atomic concept"
                    .into(),
            });
        }
        self.tgds.push(Tgd::new(names, body, head));
        Ok(())
    }
}

/// Translates an ELHI⊥ TBox into guarded TGDs.
///
/// Every produced TGD is guarded: bodies are tree-shaped neighborhoods of
/// `x` whose atoms pairwise share variables along the tree, and each rule's
/// frontier is `{x}` — the translation emits one rule per flattening, with
/// the role atom incident to `x` acting as guard for binary rules and the
/// concept atom for unary ones. (Asserted in tests.)
pub fn tbox_to_tgds(axioms: &[Axiom]) -> Vec<Tgd> {
    match try_tbox_to_tgds(axioms) {
        Ok(tgds) => tgds,
        Err(e) => panic!("{e}"),
    }
}

/// Translates an ELHI⊥ TBox into guarded TGDs, reporting (instead of
/// panicking on) axioms that fall outside the guarded fragment. The
/// fallible twin of [`tbox_to_tgds`]; the ingestion frontends route
/// through this so an out-of-fragment ontology is a described error.
pub fn try_tbox_to_tgds(axioms: &[Axiom]) -> Result<Vec<Tgd>, FragmentError> {
    let mut tr = Translator {
        tgds: Vec::new(),
        fresh: 0,
    };
    for ax in axioms {
        match ax {
            Axiom::ConceptInclusion(l, r) => {
                // Normalize deep existentials on the left: ∃r.(∃s.C) bodies
                // flatten directly (lhs_atoms handles nesting), so no fresh
                // names are needed there.
                tr.emit_inclusion(l, r)?;
            }
            Axiom::RoleInclusion(r, s) => {
                let names = vec!["x".to_string(), "y".to_string()];
                let (x, y) = (Var(0), Var(1));
                let body = vec![Translator::role_atom(r, x, y)];
                let head = vec![Translator::role_atom(s, x, y)];
                tr.tgds.push(Tgd::new(names, body, head));
            }
        }
    }
    Ok(tr.tgds)
}

/// Parses a TBox and translates it in one step.
pub fn parse_dl_ontology(src: &str) -> Result<Vec<Tgd>, DlParseError> {
    Ok(tbox_to_tgds(&parse_tbox(src)?))
}

/// ABox consistency: whether the chase of `db` under a translated TBox
/// never derives the `⊥` marker, decided exactly by running
/// `Q() :- __Bot(X)` through [`crate::piece_saturation`].
pub fn abox_consistent(tgds: &[Tgd], db: &gtgd_data::Instance) -> bool {
    let bot = gtgd_query::parse_ucq(&format!("Q() :- {}(X)", bottom_predicate())).unwrap();
    let p = crate::piece_saturation(db, tgds, &bot);
    !gtgd_query::ucq_holds_boolean(&p.query, &p.instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{chase, ChaseBudget};
    use crate::tgd::TgdClass;
    use gtgd_data::{GroundAtom, Instance};
    use gtgd_query::{holds_boolean, parse_cq};

    #[test]
    fn parses_and_translates_simple_inclusions() {
        let tgds =
            parse_dl_ontology("Cat < Animal; Animal < exists eats. Food; role eats < consumes")
                .unwrap();
        assert_eq!(tgds.len(), 3);
        for t in &tgds {
            assert!(t.is_in(TgdClass::Guarded), "not guarded: {t}");
        }
    }

    #[test]
    fn existential_lhs_flattens_into_guarded_body() {
        // ∃eats.Plant ⊑ Herbivore: eats(x,y), Plant(y) → Herbivore(x).
        let tgds = parse_dl_ontology("exists eats. Plant < Herbivore").unwrap();
        assert_eq!(tgds.len(), 1);
        assert!(tgds[0].is_in(TgdClass::Guarded));
        assert_eq!(tgds[0].body.len(), 2);
        assert_eq!(tgds[0].frontier().len(), 1);
    }

    #[test]
    fn inverse_roles() {
        // ∃inv(hasParent).⊤ ⊑ Parent: hasParent(y, x) → Parent(x).
        let tgds = parse_dl_ontology("exists inv hasParent. top < Parent").unwrap();
        assert_eq!(tgds.len(), 1);
        let db = Instance::from_atoms([GroundAtom::named("hasParent", &["child", "mom"])]);
        let r = chase(&db, &tgds, &ChaseBudget::unbounded());
        assert!(r.instance.contains(&GroundAtom::named("Parent", &["mom"])));
    }

    #[test]
    fn nested_rhs_normalizes_with_fresh_names() {
        // A ⊑ ∃r.(B ⊓ C): needs a fresh name for B ⊓ C.
        let tgds = parse_dl_ontology("A < exists r. (B & C)").unwrap();
        assert!(tgds.len() >= 2);
        for t in &tgds {
            assert!(t.is_in(TgdClass::Guarded));
        }
        let db = Instance::from_atoms([GroundAtom::named("A", &["a"])]);
        let r = chase(&db, &tgds, &ChaseBudget::levels(4));
        let q = parse_cq("Q() :- r(X,Y), B(Y), C(Y)").unwrap();
        assert!(holds_boolean(&q, &r.instance));
    }

    #[test]
    fn bottom_marks_inconsistency() {
        let tgds = parse_dl_ontology("Cat & Dog < bot").unwrap();
        let consistent = Instance::from_atoms([GroundAtom::named("Cat", &["tom"])]);
        let r = chase(&consistent, &tgds, &ChaseBudget::unbounded());
        assert!(!r.instance.contains(&GroundAtom::new(
            bottom_predicate(),
            vec![gtgd_data::Value::named("tom")]
        )));
        let clash = Instance::from_atoms([
            GroundAtom::named("Cat", &["x"]),
            GroundAtom::named("Dog", &["x"]),
        ]);
        let r = chase(&clash, &tgds, &ChaseBudget::unbounded());
        assert!(r.instance.iter().any(|a| a.predicate == bottom_predicate()));
    }

    #[test]
    fn elhi_ontology_through_the_omq_pipeline() {
        // The point of the module: a DL TBox drives the guarded machinery.
        let tgds = parse_dl_ontology(
            "Prof < exists teaches. Course; \
             Course < exists taughtAt. Uni; \
             exists teaches. Course < Teacher",
        )
        .unwrap();
        for t in &tgds {
            assert!(t.is_in(TgdClass::Guarded));
        }
        let db = Instance::from_atoms([GroundAtom::named("Prof", &["ada"])]);
        // Certain answer: ada is a Teacher, via invented course.
        let r = chase(&db, &tgds, &ChaseBudget::levels(4));
        assert!(r.instance.contains(&GroundAtom::named("Teacher", &["ada"])));
    }

    #[test]
    fn nested_lhs_existentials_stay_guarded() {
        // ∃r.(∃s.A) ⊑ B must normalize: flattening would only be
        // frontier-guarded.
        let tgds = parse_dl_ontology("exists r. exists s. A < B").unwrap();
        assert!(tgds.len() >= 2);
        for t in &tgds {
            assert!(t.is_in(TgdClass::Guarded), "not guarded: {t}");
        }
        // Semantics: r(x,y), s(y,z), A(z) entails B(x).
        let db = Instance::from_atoms([
            GroundAtom::named("r", &["x", "y"]),
            GroundAtom::named("s", &["y", "z"]),
            GroundAtom::named("A", &["z"]),
        ]);
        let res = chase(&db, &tgds, &ChaseBudget::unbounded());
        assert!(res.instance.contains(&GroundAtom::named("B", &["x"])));
    }

    #[test]
    fn abox_consistency_decision() {
        let tgds = parse_dl_ontology("Cat < Animal; Cat & Robot < bot; Animal < exists eats. Food")
            .unwrap();
        let ok = Instance::from_atoms([GroundAtom::named("Cat", &["tom"])]);
        assert!(abox_consistent(&tgds, &ok));
        let clash = Instance::from_atoms([
            GroundAtom::named("Cat", &["r2"]),
            GroundAtom::named("Robot", &["r2"]),
        ]);
        assert!(!abox_consistent(&tgds, &clash));
    }

    #[test]
    fn abox_inconsistency_at_chase_depth_63_is_decided() {
        // A 6-bit counter: from T1, a chain of guard bags counts 0..63, and
        // ⊥ fires only at 63 (all bits one), 63 levels below the database.
        let n = 6;
        let mut rules: Vec<String> = Vec::new();
        for i in 0..n {
            rules.push(format!("T1(X1,X2,X3) -> Bz{i}(X1,X2,X3)"));
            rules.push(format!("Bz{i}(X1,X2,X3) -> G(X1,X2,X3,Y1,Y2,Y3), S(X1,Y1)"));
            let mut body = vec!["G(X1,X2,X3,Y1,Y2,Y3)".to_string()];
            body.extend((0..i).map(|j| format!("Bo{j}(X1,X2,X3)")));
            body.push(format!("Bz{i}(X1,X2,X3)"));
            let mut head = vec![format!("Bo{i}(Y1,Y2,Y3)")];
            head.extend((0..i).map(|j| format!("Bz{j}(Y1,Y2,Y3)")));
            rules.push(format!("{} -> {}", body.join(", "), head.join(", ")));
            for j in i + 1..n {
                for bit in ["Bz", "Bo"] {
                    let copy = format!("{}, {bit}{j}(X1,X2,X3)", body.join(", "));
                    rules.push(format!("{copy} -> {bit}{j}(Y1,Y2,Y3)"));
                }
            }
        }
        let all_ones: Vec<String> = (0..n).map(|i| format!("Bo{i}(X1,X2,X3)")).collect();
        rules.push(format!("{} -> __Bot(X1)", all_ones.join(", ")));
        let tgds = crate::tgd::parse_tgds(&rules.join(". ")).unwrap();
        assert!(tgds.iter().all(|t| t.is_in(TgdClass::Guarded)));
        let db = Instance::from_atoms([GroundAtom::named("T1", &["c1", "c2", "c3"])]);
        assert!(!abox_consistent(&tgds, &db));
        let quiet = Instance::from_atoms([GroundAtom::named("T2", &["c1", "c2", "c3"])]);
        assert!(abox_consistent(&tgds, &quiet));
    }

    #[test]
    fn parse_errors_reported() {
        assert!(parse_axiom("A B").is_err());
        assert!(parse_axiom("A < exists r").is_err());
        assert!(parse_axiom("(A < B").is_err());
        assert!(parse_axiom("A-! < B").is_err());
    }

    #[test]
    #[should_panic(expected = "⊤ on the left-hand side")]
    fn top_lhs_rejected() {
        parse_dl_ontology("top < A").unwrap();
    }

    #[test]
    fn fallible_lowering_describes_out_of_fragment_axioms() {
        let axioms = parse_tbox("top < A").unwrap();
        let e = try_tbox_to_tgds(&axioms).unwrap_err();
        assert!(e.to_string().contains("⊤ on the left-hand side"), "{e}");
        // A nested ⊤-lhs inside a definitional expansion is caught too.
        let ok = parse_tbox("A < exists r. (B & C); exists s. top < D").unwrap();
        assert!(try_tbox_to_tgds(&ok).is_ok());
    }
}
