//! OWL 2 frontend: a functional-syntax reader for the DL-Lite/ELHI⊥
//! overlap that lowers onto the existing [`gtgd_chase::dl`] axiom
//! encodings (and from there onto guarded TGDs via
//! [`gtgd_chase::try_tbox_to_tgds`]).
//!
//! Supported: `Prefix`, `Ontology`, `Declaration` (classes / object
//! properties / individuals), `SubClassOf`, `EquivalentClasses`,
//! `DisjointClasses`, `SubObjectPropertyOf`, `InverseObjectProperties`,
//! `SymmetricObjectProperty`, `ObjectPropertyDomain`/`Range`, class
//! expressions built from named classes, `owl:Thing`/`owl:Nothing`,
//! `ObjectIntersectionOf` and `ObjectSomeValuesFrom`, plus ABox
//! `ClassAssertion` / `ObjectPropertyAssertion` facts.
//!
//! Everything OWL 2 allows beyond that fragment — unions, negation,
//! universal restrictions, cardinalities, nominals, transitivity,
//! functionality, data properties — is rejected with a line-precise
//! [`IngestError::Fragment`] naming the construct and why it falls
//! outside guarded-TGD reasoning. Precise rejection is the point: the
//! paper's tractability results are *for* the guarded fragment, and a
//! silent approximation would change the semantics of every answer.

use crate::error::IngestError;
use crate::rdf::RdfSource;
use crate::source::{FactSink, Source, SourceSchema};
use gtgd_chase::{try_tbox_to_tgds, Axiom, Concept, Role};
use gtgd_data::{GroundAtom, Predicate, Schema, Value};
use std::collections::HashMap;

const OWL_NS: &str = "http://www.w3.org/2002/07/owl#";

/// An OWL 2 functional-syntax document (TBox + optional inline ABox),
/// optionally paired with an RDF data file as the ABox.
pub struct OwlSource {
    name: String,
    text: String,
    abox: Option<RdfSource>,
    parsed: Option<Parsed>,
}

struct Parsed {
    schema: Schema,
    axioms: Vec<(usize, Axiom)>,
    facts: Vec<GroundAtom>,
}

impl OwlSource {
    /// A source over in-memory OWL functional-syntax text.
    pub fn from_str(name: &str, text: &str) -> OwlSource {
        OwlSource {
            name: name.to_string(),
            text: text.to_string(),
            abox: None,
            parsed: None,
        }
    }

    /// A source reading `path` from disk.
    pub fn from_path(path: &std::path::Path) -> Result<OwlSource, IngestError> {
        let text = std::fs::read_to_string(path).map_err(|e| IngestError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(OwlSource {
            name: path.display().to_string(),
            text,
            abox: None,
            parsed: None,
        })
    }

    /// Attaches an RDF document as the ABox; its triples stream after any
    /// inline `ClassAssertion`/`ObjectPropertyAssertion` facts.
    pub fn with_abox(mut self, abox: RdfSource) -> OwlSource {
        self.abox = Some(abox);
        self
    }

    fn ensure_parsed(&mut self) -> Result<&Parsed, IngestError> {
        if self.parsed.is_none() {
            self.parsed = Some(OwlParser::new(&self.text).document()?);
        }
        Ok(self.parsed.as_ref().expect("just parsed"))
    }
}

impl Source for OwlSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&mut self) -> Result<SourceSchema, IngestError> {
        let parsed = self.ensure_parsed()?;
        let bare: Vec<Axiom> = parsed.axioms.iter().map(|(_, a)| a.clone()).collect();
        let tgds = match try_tbox_to_tgds(&bare) {
            Ok(tgds) => tgds,
            Err(e) => {
                // Locate the offending axiom: fragment errors are local,
                // so the axiom that sank the batch also fails alone.
                let line = parsed
                    .axioms
                    .iter()
                    .find(|(_, a)| try_tbox_to_tgds(std::slice::from_ref(a)).is_err())
                    .map_or(0, |(l, _)| *l);
                return Err(IngestError::Fragment {
                    line,
                    construct: e.axiom,
                    reason: e.reason,
                });
            }
        };
        Ok(SourceSchema {
            schema: parsed.schema.clone(),
            tgds,
        })
    }

    fn facts(&mut self, sink: &mut dyn FactSink) -> Result<(), IngestError> {
        self.ensure_parsed()?;
        for atom in &self.parsed.as_ref().expect("parsed").facts {
            sink.push(atom.clone())?;
        }
        if let Some(abox) = &mut self.abox {
            abox.facts(sink)?;
        }
        Ok(())
    }
}

/// A functional-syntax token.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    LParen,
    RParen,
    Eq,
    /// `<...>` IRI reference.
    Iri(String),
    /// Bare or prefixed name (`SubClassOf`, `ex:Emp`, `ex:`).
    Name(String),
    /// `"..."` quoted literal.
    Literal(String),
}

struct OwlParser<'a> {
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
    line: usize,
    prefixes: HashMap<String, String>,
}

impl<'a> OwlParser<'a> {
    fn new(text: &'a str) -> OwlParser<'a> {
        let mut prefixes = HashMap::new();
        // Standard namespaces are pre-declared, as every OWL tool does.
        prefixes.insert("owl".to_string(), OWL_NS.to_string());
        prefixes.insert(
            "rdf".to_string(),
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#".to_string(),
        );
        prefixes.insert(
            "rdfs".to_string(),
            "http://www.w3.org/2000/01/rdf-schema#".to_string(),
        );
        prefixes.insert(
            "xsd".to_string(),
            "http://www.w3.org/2001/XMLSchema#".to_string(),
        );
        OwlParser {
            bytes: text.as_bytes(),
            text,
            pos: 0,
            line: 1,
            prefixes,
        }
    }

    fn err(&self, message: impl Into<String>) -> IngestError {
        IngestError::Owl {
            line: self.line,
            message: message.into(),
        }
    }

    fn fragment(&self, construct: &str, reason: &str) -> IngestError {
        IngestError::Fragment {
            line: self.line,
            construct: construct.to_string(),
            reason: reason.to_string(),
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek_byte() {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'#' => {
                    while self.peek_byte().is_some_and(|c| c != b'\n') {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn next_tok(&mut self) -> Result<Option<Tok>, IngestError> {
        self.skip_ws();
        let Some(b) = self.peek_byte() else {
            return Ok(None);
        };
        match b {
            b'(' => {
                self.bump();
                Ok(Some(Tok::LParen))
            }
            b')' => {
                self.bump();
                Ok(Some(Tok::RParen))
            }
            b'=' => {
                self.bump();
                Ok(Some(Tok::Eq))
            }
            b'<' => {
                self.bump();
                let start = self.pos;
                loop {
                    match self.peek_byte() {
                        Some(b'>') => {
                            let iri = self.text[start..self.pos].to_string();
                            self.bump();
                            return Ok(Some(Tok::Iri(iri)));
                        }
                        Some(b'\n') | None => {
                            return Err(self.err("unterminated IRI (missing `>`)"))
                        }
                        Some(_) => {
                            self.bump();
                        }
                    }
                }
            }
            b'"' => {
                self.bump();
                let mut out = String::new();
                loop {
                    match self.bump() {
                        Some(b'"') => return Ok(Some(Tok::Literal(out))),
                        Some(b'\\') => match self.bump() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(c) => {
                                return Err(
                                    self.err(format!("bad escape `\\{}` in literal", c as char))
                                )
                            }
                            None => return Err(self.err("unterminated literal")),
                        },
                        Some(b'\n') | None => return Err(self.err("unterminated literal")),
                        Some(c) => out.push(c as char),
                    }
                }
            }
            b if b.is_ascii_alphanumeric() || b == b'_' => {
                let start = self.pos;
                while self.peek_byte().is_some_and(|c| {
                    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':')
                }) {
                    self.bump();
                }
                Ok(Some(Tok::Name(self.text[start..self.pos].to_string())))
            }
            other => Err(self.err(format!("unexpected character `{}`", other as char))),
        }
    }

    fn expect(&mut self, want: Tok) -> Result<(), IngestError> {
        match self.next_tok()? {
            Some(t) if t == want => Ok(()),
            Some(t) => Err(self.err(format!("expected {want:?}, found {t:?}"))),
            None => Err(self.err(format!("expected {want:?}, found end of input"))),
        }
    }

    /// Resolves a `Tok::Iri`/`Tok::Name` to a full IRI string.
    fn resolve(&self, tok: &Tok) -> Result<String, IngestError> {
        match tok {
            Tok::Iri(i) => Ok(i.clone()),
            Tok::Name(n) => match n.split_once(':') {
                Some((prefix, local)) => match self.prefixes.get(prefix) {
                    Some(ns) => Ok(format!("{ns}{local}")),
                    None => Err(self.err(format!("unknown prefix `{prefix}:`"))),
                },
                // Bare names resolve to themselves — handy for tests.
                None => Ok(n.clone()),
            },
            t => Err(self.err(format!("expected an entity, found {t:?}"))),
        }
    }

    /// Local-name shortening, matching the RDF frontend.
    fn local(iri: &str) -> String {
        let local = match iri.rfind(['#', '/']) {
            Some(i) => &iri[i + 1..],
            None => iri,
        };
        if local.is_empty() {
            iri.to_string()
        } else {
            local.to_string()
        }
    }

    fn entity_name(&mut self) -> Result<String, IngestError> {
        match self.next_tok()? {
            Some(t) => Ok(Self::local(&self.resolve(&t)?)),
            None => Err(self.err("expected an entity, found end of input")),
        }
    }

    fn document(mut self) -> Result<Parsed, IngestError> {
        let mut parsed = Parsed {
            schema: Schema::new(),
            axioms: Vec::new(),
            facts: Vec::new(),
        };
        let mut depth = 0usize; // open `Ontology(` wrappers
        loop {
            self.skip_ws();
            let line = self.line;
            let tok = match self.next_tok()? {
                Some(t) => t,
                None => {
                    if depth > 0 {
                        return Err(self.err("unclosed Ontology( — missing `)`"));
                    }
                    return Ok(parsed);
                }
            };
            match tok {
                Tok::RParen if depth > 0 => {
                    depth -= 1;
                }
                Tok::Name(ref n) if n == "Prefix" => self.prefix_decl()?,
                Tok::Name(ref n) if n == "Ontology" => {
                    self.expect(Tok::LParen)?;
                    depth += 1;
                    // Optional ontology IRI(s) directly after the paren.
                    loop {
                        let save = (self.pos, self.line);
                        match self.next_tok()? {
                            Some(Tok::Iri(_)) => {}
                            Some(_) | None => {
                                self.pos = save.0;
                                self.line = save.1;
                                break;
                            }
                        }
                    }
                }
                Tok::Name(n) => self.axiom(&n, line, &mut parsed)?,
                t => return Err(self.err(format!("expected an axiom, found {t:?}"))),
            }
        }
    }

    /// `Prefix(ex:=<http://ex.org/>)`
    fn prefix_decl(&mut self) -> Result<(), IngestError> {
        self.expect(Tok::LParen)?;
        let name = match self.next_tok()? {
            Some(Tok::Name(n)) => n,
            t => return Err(self.err(format!("expected a prefix name in Prefix, found {t:?}"))),
        };
        let prefix = match name.strip_suffix(':') {
            Some(p) => p.to_string(),
            None if name.contains(':') => name.split(':').next().unwrap_or("").to_string(),
            None => return Err(self.err(format!("prefix `{name}` must end with `:`"))),
        };
        self.expect(Tok::Eq)?;
        let iri = match self.next_tok()? {
            Some(Tok::Iri(i)) => i,
            t => return Err(self.err(format!("expected <iri> in Prefix, found {t:?}"))),
        };
        self.expect(Tok::RParen)?;
        self.prefixes.insert(prefix, iri);
        Ok(())
    }

    fn axiom(&mut self, head: &str, line: usize, out: &mut Parsed) -> Result<(), IngestError> {
        self.expect(Tok::LParen)?;
        match head {
            "Declaration" => self.declaration(out)?,
            "SubClassOf" => {
                let sub = self.concept()?;
                let sup = self.concept()?;
                out.axioms.push((line, Axiom::ConceptInclusion(sub, sup)));
            }
            "EquivalentClasses" => {
                let a = self.concept()?;
                let b = self.concept()?;
                out.axioms
                    .push((line, Axiom::ConceptInclusion(a.clone(), b.clone())));
                out.axioms.push((line, Axiom::ConceptInclusion(b, a)));
            }
            "DisjointClasses" => {
                let a = self.concept()?;
                let b = self.concept()?;
                out.axioms.push((
                    line,
                    Axiom::ConceptInclusion(
                        Concept::And(Box::new(a), Box::new(b)),
                        Concept::Bottom,
                    ),
                ));
            }
            "SubObjectPropertyOf" => {
                let r = self.role()?;
                let s = self.role()?;
                out.axioms.push((line, Axiom::RoleInclusion(r, s)));
            }
            "InverseObjectProperties" => {
                let r = self.role()?;
                let s = self.role()?;
                let inv = |role: &Role| Role {
                    name: role.name.clone(),
                    inverse: !role.inverse,
                };
                out.axioms
                    .push((line, Axiom::RoleInclusion(r.clone(), inv(&s))));
                out.axioms.push((line, Axiom::RoleInclusion(s, inv(&r))));
            }
            "SymmetricObjectProperty" => {
                let r = self.role()?;
                let inv = Role {
                    name: r.name.clone(),
                    inverse: !r.inverse,
                };
                out.axioms.push((line, Axiom::RoleInclusion(r, inv)));
            }
            "ObjectPropertyDomain" => {
                let r = self.role()?;
                let c = self.concept()?;
                out.axioms.push((
                    line,
                    Axiom::ConceptInclusion(Concept::Exists(r, Box::new(Concept::Top)), c),
                ));
            }
            "ObjectPropertyRange" => {
                let r = self.role()?;
                let c = self.concept()?;
                let inv = Role {
                    name: r.name,
                    inverse: !r.inverse,
                };
                out.axioms.push((
                    line,
                    Axiom::ConceptInclusion(Concept::Exists(inv, Box::new(Concept::Top)), c),
                ));
            }
            "ClassAssertion" => {
                let c = self.concept()?;
                let ind = self.entity_name()?;
                match c {
                    Concept::Atomic(name) => out.facts.push(GroundAtom {
                        predicate: Predicate::new(&name),
                        args: vec![Value::named(&ind)],
                    }),
                    other => {
                        return Err(self.fragment(
                            "ClassAssertion",
                            &format!(
                                "ABox assertions must use a named class, not {other:?}; \
                                 assert the named class and let the TBox entail the rest"
                            ),
                        ))
                    }
                }
            }
            "ObjectPropertyAssertion" => {
                let r = self.role()?;
                let a = self.entity_name()?;
                let b = self.entity_name()?;
                let (s, o) = if r.inverse { (b, a) } else { (a, b) };
                out.facts.push(GroundAtom {
                    predicate: Predicate::new(&r.name),
                    args: vec![Value::named(&s), Value::named(&o)],
                });
            }
            "AnnotationAssertion" => {
                // Annotations carry no semantics here; skip the balanced body.
                self.skip_balanced(1)?;
                return Ok(());
            }
            // Known OWL 2 constructs that cannot be guarded TGDs.
            "TransitiveObjectProperty" => {
                return Err(self.fragment(
                    head,
                    "transitivity r(x,y) ∧ r(y,z) → r(x,z) has no guard atom covering \
                     all three variables",
                ))
            }
            "FunctionalObjectProperty" | "InverseFunctionalObjectProperty" | "HasKey" => {
                return Err(self.fragment(
                    head,
                    "functionality/keys are EGDs, not TGDs; declare keys in the CSV \
                     manifest frontend instead",
                ))
            }
            "ReflexiveObjectProperty"
            | "IrreflexiveObjectProperty"
            | "AsymmetricObjectProperty" => {
                return Err(self.fragment(head, "(ir)reflexivity and asymmetry are outside ELHI⊥"))
            }
            "DisjointObjectProperties" => {
                return Err(self.fragment(head, "property disjointness is outside ELHI⊥"))
            }
            "SubDataPropertyOf"
            | "DataPropertyDomain"
            | "DataPropertyRange"
            | "DataPropertyAssertion"
            | "FunctionalDataProperty" => {
                return Err(self.fragment(
                    head,
                    "data properties are not modeled; only object properties lower to \
                     binary predicates",
                ))
            }
            "SameIndividual" | "DifferentIndividuals" => {
                return Err(self.fragment(
                    head,
                    "individual (in)equality needs equality reasoning outside the TGD fragment",
                ))
            }
            other => return Err(self.err(format!("unsupported axiom `{other}`"))),
        }
        self.expect(Tok::RParen)?;
        Ok(())
    }

    /// `Declaration(Class(ex:C))` etc. — records arities in the schema.
    fn declaration(&mut self, out: &mut Parsed) -> Result<(), IngestError> {
        let kind = match self.next_tok()? {
            Some(Tok::Name(n)) => n,
            t => return Err(self.err(format!("expected an entity kind, found {t:?}"))),
        };
        self.expect(Tok::LParen)?;
        let name = self.entity_name()?;
        self.expect(Tok::RParen)?;
        match kind.as_str() {
            "Class" => {
                out.schema.add(Predicate::new(&name), 1);
            }
            "ObjectProperty" => {
                out.schema.add(Predicate::new(&name), 2);
            }
            "NamedIndividual" => {}
            "DataProperty" | "Datatype" => {
                return Err(self.fragment(
                    &format!("Declaration({kind})"),
                    "data properties/datatypes are not modeled",
                ))
            }
            "AnnotationProperty" => {}
            other => return Err(self.err(format!("unsupported declaration kind `{other}`"))),
        }
        Ok(())
    }

    fn concept(&mut self) -> Result<Concept, IngestError> {
        let tok = match self.next_tok()? {
            Some(t) => t,
            None => return Err(self.err("expected a class expression, found end of input")),
        };
        let name = match &tok {
            Tok::Name(n) => n.clone(),
            Tok::Iri(_) => {
                let iri = self.resolve(&tok)?;
                return Ok(self.named_concept(&iri));
            }
            t => return Err(self.err(format!("expected a class expression, found {t:?}"))),
        };
        // Constructor or named class? Peek for `(`.
        let save = (self.pos, self.line);
        let is_ctor = matches!(self.next_tok()?, Some(Tok::LParen));
        if !is_ctor {
            self.pos = save.0;
            self.line = save.1;
            let iri = self.resolve(&Tok::Name(name))?;
            return Ok(self.named_concept(&iri));
        }
        match name.as_str() {
            "ObjectIntersectionOf" => {
                let mut parts = vec![self.concept()?, self.concept()?];
                loop {
                    let save = (self.pos, self.line);
                    match self.next_tok()? {
                        Some(Tok::RParen) => break,
                        Some(_) => {
                            self.pos = save.0;
                            self.line = save.1;
                            parts.push(self.concept()?);
                        }
                        None => return Err(self.err("unclosed ObjectIntersectionOf")),
                    }
                }
                let mut it = parts.into_iter();
                let first = it.next().expect("two parts parsed");
                Ok(it.fold(first, |acc, c| Concept::And(Box::new(acc), Box::new(c))))
            }
            "ObjectSomeValuesFrom" => {
                let r = self.role()?;
                let c = self.concept()?;
                self.expect(Tok::RParen)?;
                Ok(Concept::Exists(r, Box::new(c)))
            }
            "ObjectUnionOf" => Err(self.fragment(
                "ObjectUnionOf",
                "disjunction is outside ELHI⊥ (only conjunction and existentials lower \
                 to guarded TGDs)",
            )),
            "ObjectComplementOf" => {
                Err(self.fragment("ObjectComplementOf", "negation is outside ELHI⊥"))
            }
            "ObjectAllValuesFrom" => Err(self.fragment(
                "ObjectAllValuesFrom",
                "universal restrictions are outside ELHI⊥",
            )),
            "ObjectMinCardinality" | "ObjectMaxCardinality" | "ObjectExactCardinality" => Err(self
                .fragment(
                    &name,
                    "cardinality restrictions need counting/equality outside the TGD fragment",
                )),
            "ObjectOneOf" | "ObjectHasValue" => {
                Err(self.fragment(&name, "nominals are outside ELHI⊥"))
            }
            "ObjectHasSelf" => Err(self.fragment("ObjectHasSelf", "self-loops are outside ELHI⊥")),
            "DataSomeValuesFrom" | "DataAllValuesFrom" | "DataHasValue" => Err(self.fragment(
                &name,
                "data ranges are not modeled; only object properties lower to binary predicates",
            )),
            other => Err(self.err(format!("unsupported class expression `{other}`"))),
        }
    }

    fn named_concept(&self, iri: &str) -> Concept {
        if iri == format!("{OWL_NS}Thing") {
            Concept::Top
        } else if iri == format!("{OWL_NS}Nothing") {
            Concept::Bottom
        } else {
            Concept::Atomic(Self::local(iri))
        }
    }

    fn role(&mut self) -> Result<Role, IngestError> {
        let tok = match self.next_tok()? {
            Some(t) => t,
            None => return Err(self.err("expected an object property, found end of input")),
        };
        if let Tok::Name(n) = &tok {
            if n == "ObjectInverseOf" {
                self.expect(Tok::LParen)?;
                let inner = self.role()?;
                self.expect(Tok::RParen)?;
                return Ok(Role {
                    name: inner.name,
                    inverse: !inner.inverse,
                });
            }
        }
        let iri = self.resolve(&tok)?;
        Ok(Role {
            name: Self::local(&iri),
            inverse: false,
        })
    }

    /// Skips tokens until `depth` open parens are closed, consuming the
    /// final `)` — callers must not also expect it.
    fn skip_balanced(&mut self, mut depth: usize) -> Result<(), IngestError> {
        while depth > 0 {
            match self.next_tok()? {
                Some(Tok::LParen) => depth += 1,
                Some(Tok::RParen) => depth -= 1,
                Some(_) => {}
                None => return Err(self.err("unexpected end of input inside axiom")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ingest;
    use gtgd_chase::ChaseBudget;

    const UNI: &str = r#"
        Prefix(ex:=<http://ex.org/uni#>)
        Ontology(<http://ex.org/uni>
          Declaration(Class(ex:Professor))
          Declaration(Class(ex:Faculty))
          Declaration(Class(ex:Department))
          Declaration(ObjectProperty(ex:worksFor))
          SubClassOf(ex:Professor ex:Faculty)
          SubClassOf(ex:Professor ObjectSomeValuesFrom(ex:worksFor ex:Department))
          ObjectPropertyRange(ex:worksFor ex:Department)
          ClassAssertion(ex:Professor ex:ann)
        )
    "#;

    #[test]
    fn tbox_lowers_and_abox_chases() {
        let mut src = OwlSource::from_str("uni", UNI);
        let p = ingest(&mut src).unwrap();
        assert_eq!(p.facts.len(), 1);
        assert_eq!(p.schema.arity(Predicate::new("worksFor")), Some(2));
        let out = p.chase(ChaseBudget::unbounded());
        assert!(out.complete);
        let preds: Vec<String> = out
            .instance
            .iter()
            .map(|a| a.predicate.to_string())
            .collect();
        assert!(preds.iter().any(|s| s == "Faculty"), "{preds:?}");
        assert!(preds.iter().any(|s| s == "worksFor"), "{preds:?}");
        assert!(preds.iter().any(|s| s == "Department"), "{preds:?}");
    }

    #[test]
    fn out_of_fragment_constructs_are_precise_rejections() {
        for (axiom, needle) in [
            (
                "SubClassOf(ex:A ObjectUnionOf(ex:B ex:C))",
                "disjunction is outside",
            ),
            (
                "SubClassOf(ex:A ObjectAllValuesFrom(ex:r ex:B))",
                "universal restrictions",
            ),
            (
                "SubClassOf(ex:A ObjectMinCardinality(2 ex:r))",
                "cardinality",
            ),
            ("TransitiveObjectProperty(ex:r)", "no guard atom"),
            ("FunctionalObjectProperty(ex:r)", "EGDs, not TGDs"),
            ("SubClassOf(ex:A ObjectComplementOf(ex:B))", "negation"),
            (
                "DataPropertyAssertion(ex:age ex:a \"4\")",
                "data properties",
            ),
        ] {
            let text = format!("Prefix(ex:=<http://e/>)\n{axiom}\n");
            let e = ingest(&mut OwlSource::from_str("t", &text)).unwrap_err();
            assert!(
                matches!(e, IngestError::Fragment { line: 2, .. }),
                "{axiom}: {e}"
            );
            assert!(e.to_string().contains(needle), "{axiom}: {e}");
        }
    }

    #[test]
    fn top_on_lhs_is_rejected_at_lowering_with_line() {
        let text = "Prefix(ex:=<http://e/>)\nSubClassOf(ex:A ex:B)\nSubClassOf(owl:Thing ex:C)\n";
        let e = ingest(&mut OwlSource::from_str("t", text)).unwrap_err();
        match &e {
            IngestError::Fragment { line, reason, .. } => {
                assert_eq!(*line, 3, "{e}");
                assert!(reason.contains("⊤ on the left-hand side"), "{e}");
            }
            other => panic!("expected Fragment, got {other}"),
        }
    }

    #[test]
    fn malformed_syntax_is_owl_error() {
        for text in [
            "SubClassOf(ex:A",             // unclosed
            "Prefix(ex=<http://e/>)",      // missing colon
            "Frobnicate(ex:A ex:B)",       // unknown axiom
            "SubClassOf(ex:A ex:B) extra", // trailing garbage -> unknown axiom `extra`
        ] {
            let e = ingest(&mut OwlSource::from_str("t", text)).unwrap_err();
            assert!(
                matches!(e, IngestError::Owl { .. } | IngestError::Fragment { .. }),
                "{text}: {e}"
            );
        }
    }

    #[test]
    fn inverse_and_domain_range_lower() {
        let text = "Prefix(ex:=<http://e/>)\n\
                    InverseObjectProperties(ex:teaches ex:taughtBy)\n\
                    ObjectPropertyDomain(ex:teaches ex:Teacher)\n\
                    ObjectPropertyAssertion(ex:taughtBy ex:cs101 ex:ann)\n";
        let p = ingest(&mut OwlSource::from_str("t", text)).unwrap();
        let out = p.chase(ChaseBudget::unbounded());
        let have: Vec<String> = out.instance.iter().map(|a| a.to_string()).collect();
        assert!(have.iter().any(|s| s == "teaches(ann,cs101)"), "{have:?}");
        assert!(have.iter().any(|s| s == "Teacher(ann)"), "{have:?}");
    }

    #[test]
    fn rdf_abox_streams_through_owl_schema() {
        let abox = RdfSource::from_str(
            "abox",
            "@prefix ex: <http://ex.org/uni#> .\nex:bob a ex:Professor .",
        );
        let mut src = OwlSource::from_str("uni", UNI).with_abox(abox);
        let p = ingest(&mut src).unwrap();
        assert_eq!(p.facts.len(), 2); // ann + bob
    }
}
