//! A minimal text format for ground facts: one atom per line (or separated
//! by `.`), e.g. `Emp(ann)` / `WorksIn(ann, sales)`. Predicate names and
//! unquoted constants are identifiers (ASCII letters, digits, `_`); a
//! constant may be `"`-quoted to include anything else (a `\"` inside
//! the quotes does not end them). A `#` outside quotes starts a comment
//! that runs to the end of the line.
//!
//! This is the one fact grammar: fixture/bulk loading, script `fact` and
//! `+`/`-` lines, daemon writes and commit-log replay all parse through
//! [`parse_fact`]. The richer query/TGD syntax lives in `gtgd-query`'s
//! parser.

use crate::atom::GroundAtom;
use crate::instance::Instance;
use crate::schema::Predicate;
use crate::value::Value;

/// A fact-parsing failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactParseError {
    /// Line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for FactParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FactParseError {}

/// Whether `c` may appear in a predicate name or an unquoted constant:
/// ASCII letters, digits and `_`.
fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifier at the front of `s` and the text after it.
fn ident(s: &str) -> (&str, &str) {
    s.split_at(s.find(|c: char| !is_ident_char(c)).unwrap_or(s.len()))
}

/// "expected `what`", naming what `rest` starts with instead.
fn expected(what: &str, rest: &str) -> String {
    match rest.chars().next() {
        None => format!("expected {what}, found end of input"),
        Some(c) => format!("expected {what}, found {c:?}"),
    }
}

/// The byte offset of the `"` that ends a quoted constant whose text
/// starts `s`: the first `"` not escaped by a `\`.
fn closing_quote(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut at = 0;
    loop {
        match bytes.get(at)? {
            b'"' => return Some(at),
            b'\\' => at += 2,
            _ => at += 1,
        }
    }
}

/// `line` up to its first `#` outside a `"`-quoted constant: the line
/// without its comment. Inside quotes a `\"` does not end them, as in the
/// fact grammar.
pub fn strip_comment(line: &str) -> &str {
    let mut rest = line;
    while let Some(at) = rest.find(['#', '"']) {
        if rest.as_bytes()[at] == b'#' {
            return &line[..line.len() - rest.len() + at];
        }
        match closing_quote(&rest[at + 1..]) {
            Some(end) => rest = &rest[at + end + 2..],
            None => break,
        }
    }
    line
}

/// Parses one fact from the front of `src` and returns it with the text
/// after its closing `)`. The one fact grammar: an identifier, `(`, then
/// comma-separated constants and `)`, with spaces allowed around every
/// token. A constant is an identifier or a `"`-quoted string: the raw
/// text between the quotes, where a `\` keeps the next `"` from ending
/// it (the backslash stays part of the constant).
fn parse_fact_prefix(src: &str) -> Result<(GroundAtom, &str), String> {
    let (name, rest) = ident(src.trim_start());
    if name.is_empty() {
        return Err(expected("a predicate name", rest));
    }
    let Some(rest) = rest.trim_start().strip_prefix('(') else {
        return Err(expected("'(' after the predicate name", rest.trim_start()));
    };
    let mut rest = rest.trim_start();
    let mut args = Vec::new();
    if let Some(after) = rest.strip_prefix(')') {
        return Ok((GroundAtom::new(Predicate::new(name), args), after));
    }
    loop {
        let (constant, after) = if let Some(quoted) = rest.strip_prefix('"') {
            let end = closing_quote(quoted).ok_or("unterminated quoted constant")?;
            (&quoted[..end], &quoted[end + 1..])
        } else {
            let (constant, after) = ident(rest);
            if constant.is_empty() {
                return Err(expected("a constant", rest));
            }
            (constant, after)
        };
        args.push(Value::named(constant));
        rest = after.trim_start();
        if let Some(after) = rest.strip_prefix(')') {
            return Ok((GroundAtom::new(Predicate::new(name), args), after));
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| expected("',' or ')'", rest))?
            .trim_start();
    }
}

/// Parses a single fact like `R(a, b)`, `City("new york")` or `Flag()`,
/// optionally ended by one `.`. Anything else after the fact is an error.
pub fn parse_fact(src: &str) -> Result<GroundAtom, String> {
    let (atom, rest) = parse_fact_prefix(src)?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('.').unwrap_or(rest).trim();
    if !rest.is_empty() {
        return Err(format!("unexpected {rest:?} after the fact"));
    }
    Ok(atom)
}

/// Parses a block of facts into an [`Instance`]. Facts on one line are
/// separated by `.`; blank lines and `#` comments ([`strip_comment`]) are
/// skipped.
pub fn parse_facts(src: &str) -> Result<Instance, FactParseError> {
    let mut out = Instance::new();
    for (i, raw) in src.lines().enumerate() {
        let fail = |message| FactParseError {
            line: i + 1,
            message,
        };
        let mut rest = strip_comment(raw).trim();
        while !rest.is_empty() {
            let (atom, after) = parse_fact_prefix(rest).map_err(fail)?;
            out.insert(atom);
            let after = after.trim_start();
            rest = match after.strip_prefix('.') {
                Some(next) => next.trim_start(),
                None if after.is_empty() => after,
                None => return Err(fail(expected("'.' between facts", after))),
            };
        }
    }
    Ok(out)
}

/// Renders an instance back into the fact format (one atom per line,
/// insertion order). A constant outside the identifier grammar is quoted,
/// so the text parses back to the same instance.
pub fn render_facts(i: &Instance) -> String {
    let mut out = String::new();
    for a in i.iter() {
        out.push_str(&format!("{}(", a.predicate));
        for (k, v) in a.args.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let text = v.to_string();
            if !text.is_empty() && text.chars().all(is_ident_char) {
                out.push_str(&text);
            } else {
                out.push_str(&format!("\"{text}\""));
            }
        }
        out.push_str(").\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_facts() {
        let i = parse_facts(
            "# a comment\n\
             Emp(ann). Emp(bob).\n\
             WorksIn(ann, sales)\n\
             \n\
             Flag().\n",
        )
        .unwrap();
        assert_eq!(i.len(), 4);
        assert!(i.contains(&GroundAtom::named("WorksIn", &["ann", "sales"])));
        assert!(i.contains(&GroundAtom::named("Flag", &[])));
    }

    #[test]
    fn comments_end_outside_quotes() {
        let i = parse_facts("City(\"a#b\"). # note\nEmp(ann) # trailing\n").unwrap();
        assert_eq!(i.len(), 2);
        assert!(i.contains(&GroundAtom::named("City", &["a#b"])));
        assert!(i.contains(&GroundAtom::named("Emp", &["ann"])));
        assert_eq!(
            strip_comment(r##"R("x\"#y", z) # c"##),
            r##"R("x\"#y", z) "##
        );
        assert_eq!(strip_comment(r##"R("open#"##), r##"R("open#"##);
        assert_eq!(strip_comment("# only"), "");
    }

    #[test]
    fn quoted_arguments() {
        let i = parse_facts("City(\"new york\")").unwrap();
        assert!(i.contains(&GroundAtom::named("City", &["new york"])));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_facts("Emp(ann).\nbroken").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_facts("Emp(ann").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn round_trip() {
        let src = "R(a,b).\nP(c).\n";
        let i = parse_facts(src).unwrap();
        assert_eq!(render_facts(&i), src);
    }

    #[test]
    fn rejects_bad_predicates() {
        assert!(parse_fact("(a,b)").is_err());
        assert!(parse_fact("R!(a)").is_err());
    }

    #[test]
    fn constants_follow_the_identifier_grammar() {
        assert_eq!(
            parse_fact(" R ( a , b_1 ) . ").unwrap(),
            GroundAtom::named("R", &["a", "b_1"])
        );
        assert_eq!(
            parse_fact("R(\"x). y(\")").unwrap(),
            GroundAtom::named("R", &["x). y("])
        );
        assert_eq!(
            parse_fact(r#"R("q\"uote", "back\slash")"#).unwrap(),
            GroundAtom::named("R", &[r#"q\"uote"#, r"back\slash"])
        );
        for (bad, says) in [
            ("A(c0). fact B(c3).", "after the fact"),
            ("Emp(a), Emp(b)", "after the fact"),
            ("Emp(a b)", "expected ',' or ')', found 'b'"),
            ("Emp(a(b)", "found '('"),
            ("Emp(a)b)", "after the fact"),
            ("Emp(a.b)", "found '.'"),
            ("Emp(a,)", "expected a constant, found ')'"),
            ("Emp(,a)", "expected a constant, found ','"),
            ("Emp(a", "found end of input"),
            ("Emp a", "expected '(' after the predicate name"),
            ("Emp(\"a)", "unterminated"),
            (r#"Emp("a\")"#, "unterminated"),
            ("Emp(a)..", "after the fact"),
        ] {
            let e = parse_fact(bad).unwrap_err();
            assert!(e.contains(says), "{bad:?}: {e}");
        }
    }

    #[test]
    fn fact_blocks_need_dots_between_facts() {
        let i = parse_facts("A(c0). B(c3).\nC(c4)").unwrap();
        assert_eq!(i.len(), 3);
        assert!(i.contains(&GroundAtom::named("B", &["c3"])));
        let e = parse_facts("A(c0)\nA(c1) B(c2)").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("'.' between facts"), "{e}");
        assert!(parse_facts("City(\"st. louis\"). Emp(a)").unwrap().len() == 2);
        assert!(parse_facts("Emp(a)) .").is_err());
    }

    #[test]
    fn rendering_quotes_what_the_grammar_cannot_read_bare() {
        let i = parse_facts("City(\"new york\", ny). Flag().").unwrap();
        let text = render_facts(&i);
        assert_eq!(text, "City(\"new york\",ny).\nFlag().\n");
        assert_eq!(parse_facts(&text).unwrap(), i);
    }
}
