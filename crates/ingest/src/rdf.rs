//! RDF frontend: N-Triples plus the Turtle subset the benchmark suites
//! actually use (`@prefix`, prefixed names, `a`, `;`/`,` object lists,
//! quoted literals with escapes, comments). `rdf:type` triples become
//! unary atoms `C(s)`; every other triple becomes a binary atom `p(s,o)`.
//!
//! By default IRIs are shortened to their local name (the part after the
//! last `#` or `/`), which keeps programs readable and makes the RDF path
//! line up with hand-written datalog over the same vocabulary; pass
//! [`RdfSource::full_iris`] to keep absolute IRIs as constant names.
//!
//! Malformed input is rejected with a line-precise [`IngestError::Rdf`] —
//! never a panic, never a silently dropped triple.

use crate::error::IngestError;
use crate::source::{FactSink, Source, SourceSchema};
use gtgd_data::{GroundAtom, Predicate, Value};
use std::collections::HashMap;

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// An RDF document (N-Triples / Turtle subset) as an ingestion source.
#[derive(Debug, Clone)]
pub struct RdfSource {
    name: String,
    text: String,
    full_iris: bool,
}

impl RdfSource {
    /// A source over in-memory RDF text. `name` labels errors and the
    /// resulting program (use the path or a logical dataset name).
    pub fn from_str(name: &str, text: &str) -> RdfSource {
        RdfSource {
            name: name.to_string(),
            text: text.to_string(),
            full_iris: false,
        }
    }

    /// A source reading `path` from disk.
    pub fn from_path(path: &std::path::Path) -> Result<RdfSource, IngestError> {
        let text = std::fs::read_to_string(path).map_err(|e| IngestError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(RdfSource {
            name: path.display().to_string(),
            text,
            full_iris: false,
        })
    }

    /// Keeps absolute IRIs as constant/predicate names instead of
    /// shortening to the local part.
    pub fn full_iris(mut self, yes: bool) -> RdfSource {
        self.full_iris = yes;
        self
    }
}

impl Source for RdfSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&mut self) -> Result<SourceSchema, IngestError> {
        // Plain RDF declares nothing; the data's arities (1 for classes,
        // 2 for properties) are inferred by the driver. Ontologies ride
        // in via `OwlSource`, which wraps an `RdfSource` ABox.
        Ok(SourceSchema::default())
    }

    fn facts(&mut self, sink: &mut dyn FactSink) -> Result<(), IngestError> {
        let mut p = Parser::new(&self.text, self.full_iris);
        p.run(sink)
    }
}

/// One parsed RDF term.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Term {
    Iri(String),
    Blank(String),
    Literal(String),
}

struct Parser<'a> {
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
    line: usize,
    prefixes: HashMap<String, String>,
    full_iris: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, full_iris: bool) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            text,
            pos: 0,
            line: 1,
            prefixes: HashMap::new(),
            full_iris,
        }
    }

    fn err(&self, message: impl Into<String>) -> IngestError {
        IngestError::Rdf {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    /// Skips whitespace and `#` comments.
    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'#' => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn run(&mut self, sink: &mut dyn FactSink) -> Result<(), IngestError> {
        loop {
            self.skip_ws();
            if self.peek().is_none() {
                return Ok(());
            }
            if self.peek() == Some(b'@') {
                self.directive()?;
            } else {
                self.statement(sink)?;
            }
        }
    }

    /// `@prefix p: <iri> .`
    fn directive(&mut self) -> Result<(), IngestError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphabetic() || b == b'@')
        {
            self.bump();
        }
        let word = &self.text[start..self.pos];
        if word != "@prefix" {
            return Err(self.err(format!("unsupported directive `{word}` (only @prefix)")));
        }
        self.skip_ws();
        let pstart = self.pos;
        while self.peek().is_some_and(is_name_byte) {
            self.bump();
        }
        let prefix = self.text[pstart..self.pos].to_string();
        if self.bump() != Some(b':') {
            return Err(self.err("expected `:` after prefix name in @prefix"));
        }
        self.skip_ws();
        let iri = match self.term()? {
            Term::Iri(i) => i,
            other => return Err(self.err(format!("expected <iri> in @prefix, found {other:?}"))),
        };
        self.skip_ws();
        if self.bump() != Some(b'.') {
            return Err(self.err("expected `.` ending @prefix directive"));
        }
        self.prefixes.insert(prefix, iri);
        Ok(())
    }

    /// `subject verb obj (, obj)* (; verb obj...)* .`
    fn statement(&mut self, sink: &mut dyn FactSink) -> Result<(), IngestError> {
        let subject = self.term()?;
        if matches!(subject, Term::Literal(_)) {
            return Err(self.err("a literal cannot be the subject of a triple"));
        }
        loop {
            self.skip_ws();
            let verb = self.verb()?;
            loop {
                self.skip_ws();
                let object = self.term()?;
                self.emit(&subject, &verb, &object, sink)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.bump();
                    }
                    _ => break,
                }
            }
            match self.peek() {
                Some(b';') => {
                    self.bump();
                    self.skip_ws();
                    // Turtle allows a trailing `;` before the final `.`.
                    if self.peek() == Some(b'.') {
                        self.bump();
                        return Ok(());
                    }
                }
                Some(b'.') => {
                    self.bump();
                    return Ok(());
                }
                Some(other) => {
                    return Err(self.err(format!(
                        "expected `.`, `;` or `,` after object, found `{}`",
                        other as char
                    )))
                }
                None => return Err(self.err("unexpected end of input: triple not closed by `.`")),
            }
        }
    }

    /// Predicate position: `a` or an IRI.
    fn verb(&mut self) -> Result<Term, IngestError> {
        // `a` must be the bare keyword, not a prefix of a longer name.
        if self.peek() == Some(b'a')
            && !self
                .bytes
                .get(self.pos + 1)
                .copied()
                .is_some_and(|b| is_name_byte(b) || b == b':')
        {
            self.bump();
            return Ok(Term::Iri(RDF_TYPE.to_string()));
        }
        match self.term()? {
            t @ Term::Iri(_) => Ok(t),
            other => Err(self.err(format!("predicate must be an IRI, found {other:?}"))),
        }
    }

    fn term(&mut self) -> Result<Term, IngestError> {
        self.skip_ws();
        match self.peek() {
            Some(b'<') => self.iri_ref(),
            Some(b'"') => self.literal(),
            Some(b'_') if self.bytes.get(self.pos + 1) == Some(&b':') => self.blank(),
            Some(b) if b.is_ascii_digit() || b == b'+' || b == b'-' => self.number(),
            Some(_) => self.prefixed_name(),
            None => Err(self.err("unexpected end of input: expected an RDF term")),
        }
    }

    fn iri_ref(&mut self) -> Result<Term, IngestError> {
        self.bump(); // `<`
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'>') => {
                    let iri = self.text[start..self.pos].to_string();
                    self.bump();
                    return Ok(Term::Iri(iri));
                }
                Some(b'\n') | None => return Err(self.err("unterminated IRI (missing `>`)")),
                Some(_) => {
                    self.bump();
                }
            }
        }
    }

    fn literal(&mut self) -> Result<Term, IngestError> {
        self.bump(); // `"`
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => out.push(self.unicode_escape(4)?),
                    Some(b'U') => out.push(self.unicode_escape(8)?),
                    Some(c) => {
                        return Err(self.err(format!("bad escape `\\{}` in literal", c as char)))
                    }
                    None => return Err(self.err("unterminated literal (ends mid-escape)")),
                },
                Some(b'\n') | None => {
                    return Err(self.err("unterminated literal (missing closing `\"`)"))
                }
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble the multi-byte UTF-8 sequence starting at b.
                    let mut buf = vec![b];
                    while self.peek().is_some_and(|n| n & 0xC0 == 0x80) {
                        buf.push(self.bump().unwrap());
                    }
                    match std::str::from_utf8(&buf) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid UTF-8 in literal")),
                    }
                }
            }
        }
        // Optional language tag or datatype; parsed, then discarded.
        if self.peek() == Some(b'@') {
            self.bump();
            while self
                .peek()
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'-')
            {
                self.bump();
            }
        } else if self.peek() == Some(b'^') {
            self.bump();
            if self.bump() != Some(b'^') {
                return Err(self.err("expected `^^` introducing a datatype"));
            }
            self.skip_ws();
            match self.term()? {
                Term::Iri(_) => {}
                other => return Err(self.err(format!("datatype must be an IRI, found {other:?}"))),
            }
        }
        Ok(Term::Literal(out))
    }

    fn unicode_escape(&mut self, digits: usize) -> Result<char, IngestError> {
        let start = self.pos;
        for _ in 0..digits {
            match self.bump() {
                Some(b) if b.is_ascii_hexdigit() => {}
                _ => {
                    return Err(
                        self.err(format!("bad unicode escape: expected {digits} hex digits"))
                    )
                }
            }
        }
        let hex = &self.text[start..self.pos];
        let code = u32::from_str_radix(hex, 16).expect("hex digits checked");
        char::from_u32(code)
            .ok_or_else(|| self.err(format!("bad unicode escape: U+{hex} is not a scalar value")))
    }

    fn blank(&mut self) -> Result<Term, IngestError> {
        self.bump(); // `_`
        self.bump(); // `:`
        let start = self.pos;
        while self.peek().is_some_and(is_name_byte) {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("blank node `_:` needs a label"));
        }
        Ok(Term::Blank(format!("_:{}", &self.text[start..self.pos])))
    }

    fn number(&mut self) -> Result<Term, IngestError> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'+') | Some(b'-')) {
            self.bump();
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
        }
        if self.peek() == Some(b'.')
            && self
                .bytes
                .get(self.pos + 1)
                .copied()
                .is_some_and(|b| b.is_ascii_digit())
        {
            self.bump();
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.bump();
            }
        }
        if self.pos == digits_start {
            return Err(self.err("expected a number"));
        }
        Ok(Term::Literal(self.text[start..self.pos].to_string()))
    }

    /// `prefix:local`, resolved against `@prefix` declarations.
    fn prefixed_name(&mut self) -> Result<Term, IngestError> {
        let start = self.pos;
        while self.peek().is_some_and(is_name_byte) {
            self.bump();
        }
        let prefix = self.text[start..self.pos].to_string();
        if self.peek() != Some(b':') {
            return Err(self.err(format!(
                "expected an RDF term, found `{}`",
                if prefix.is_empty() {
                    (self.peek().unwrap_or(b'?') as char).to_string()
                } else {
                    prefix.clone()
                }
            )));
        }
        self.bump(); // `:`
        let lstart = self.pos;
        while self.peek().is_some_and(is_name_byte) {
            self.bump();
        }
        let local = &self.text[lstart..self.pos];
        match self.prefixes.get(&prefix) {
            Some(ns) => Ok(Term::Iri(format!("{ns}{local}"))),
            None => Err(self.err(format!(
                "unknown prefix `{prefix}:` (no @prefix declares it)"
            ))),
        }
    }

    fn emit(
        &self,
        subject: &Term,
        verb: &Term,
        object: &Term,
        sink: &mut dyn FactSink,
    ) -> Result<(), IngestError> {
        let verb_iri = match verb {
            Term::Iri(i) => i.as_str(),
            _ => unreachable!("verb() only returns IRIs"),
        };
        let s = self.constant(subject);
        if verb_iri == RDF_TYPE {
            let class = match object {
                Term::Iri(i) => self.shorten(i),
                other => {
                    return Err(self.err(format!(
                        "the object of rdf:type must be a class IRI, found {other:?}"
                    )))
                }
            };
            sink.push(GroundAtom {
                predicate: Predicate::new(&class),
                args: vec![s],
            })
        } else {
            let p = self.shorten(verb_iri);
            let o = self.constant(object);
            sink.push(GroundAtom {
                predicate: Predicate::new(&p),
                args: vec![s, o],
            })
        }
    }

    fn constant(&self, term: &Term) -> Value {
        match term {
            Term::Iri(i) => Value::named(&self.shorten(i)),
            Term::Blank(b) => Value::named(b),
            Term::Literal(l) => Value::named(l),
        }
    }

    fn shorten(&self, iri: &str) -> String {
        if self.full_iris {
            return iri.to_string();
        }
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
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' || b == b'%'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ingest;

    fn atoms(text: &str) -> Vec<String> {
        let mut src = RdfSource::from_str("test", text);
        let p = ingest(&mut src).unwrap();
        let mut v: Vec<String> = p.facts.iter().map(|a| a.to_string()).collect();
        v.sort();
        v
    }

    fn rejection(text: &str) -> IngestError {
        let mut src = RdfSource::from_str("test", text);
        ingest(&mut src).unwrap_err()
    }

    #[test]
    fn ntriples_types_and_properties() {
        let got = atoms(
            "<http://ex.org/ann> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/Emp> .\n\
             <http://ex.org/ann> <http://ex.org/worksIn> <http://ex.org/sales> .\n",
        );
        assert_eq!(got, vec!["Emp(ann)", "worksIn(ann,sales)"]);
    }

    #[test]
    fn turtle_prefixes_semicolons_commas() {
        let got = atoms(
            "@prefix ex: <http://ex.org/> .\n\
             ex:ann a ex:Emp ;\n\
                ex:worksIn ex:sales, ex:hr ;\n\
                ex:name \"Ann \\\"A\\\" B\" .\n",
        );
        assert_eq!(
            got,
            vec![
                "Emp(ann)",
                "name(ann,Ann \"A\" B)",
                "worksIn(ann,hr)",
                "worksIn(ann,sales)",
            ]
        );
    }

    #[test]
    fn literals_with_datatype_lang_and_numbers() {
        let got = atoms(
            "@prefix ex: <http://ex.org/> .\n\
             ex:a ex:age 42 .\n\
             ex:a ex:label \"hi\"@en .\n\
             ex:a ex:score \"9.5\"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n",
        );
        assert_eq!(got, vec!["age(a,42)", "label(a,hi)", "score(a,9.5)"]);
    }

    #[test]
    fn full_iris_mode_keeps_absolute_names() {
        let mut src = RdfSource::from_str(
            "t",
            "<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .",
        )
        .full_iris(true);
        let p = ingest(&mut src).unwrap();
        let got: Vec<String> = p.facts.iter().map(|a| a.to_string()).collect();
        assert_eq!(
            got,
            vec!["http://ex.org/p(http://ex.org/a,http://ex.org/b)"]
        );
    }

    #[test]
    fn blank_nodes_become_named_constants() {
        let got =
            atoms("@prefix ex: <http://ex.org/> .\n_:b1 a ex:Dept .\nex:ann ex:worksIn _:b1 .");
        assert_eq!(got, vec!["Dept(_:b1)", "worksIn(ann,_:b1)"]);
    }

    #[test]
    fn malformed_inputs_are_line_precise_errors() {
        // Truncated triple: missing object.
        let e = rejection("@prefix ex: <http://e/> .\nex:a ex:p .");
        assert!(matches!(e, IngestError::Rdf { line: 2, .. }), "{e}");
        // Missing final dot at EOF.
        let e = rejection("<http://e/a> <http://e/p> <http://e/b>");
        assert!(e.to_string().contains("not closed"), "{e}");
        // Unknown prefix, reported on its line.
        let e = rejection("# comment\n\nex:a ex:p ex:b .");
        assert!(matches!(e, IngestError::Rdf { line: 3, .. }), "{e}");
        assert!(e.to_string().contains("unknown prefix `ex:`"), "{e}");
        // Bad escape.
        let e = rejection("<http://e/a> <http://e/p> \"bad \\q escape\" .");
        assert!(e.to_string().contains("bad escape `\\q`"), "{e}");
        // Unterminated literal.
        let e = rejection("<http://e/a> <http://e/p> \"no end .");
        assert!(e.to_string().contains("unterminated literal"), "{e}");
        // Unterminated IRI.
        let e = rejection("<http://e/a> <http://e/p> <http://e/b .");
        assert!(e.to_string().contains("unterminated IRI"), "{e}");
        // Literal in subject position.
        let e = rejection("\"x\" <http://e/p> <http://e/b> .");
        assert!(e.to_string().contains("subject"), "{e}");
        // Literal in predicate position.
        let e = rejection("<http://e/a> \"p\" <http://e/b> .");
        assert!(e.to_string().contains("predicate must be an IRI"), "{e}");
    }

    #[test]
    fn from_path_missing_file_is_io_error() {
        let e = RdfSource::from_path(std::path::Path::new("/nonexistent/x.ttl")).unwrap_err();
        assert!(matches!(e, IngestError::Io { .. }), "{e}");
    }
}
