//! SQL-style CSV frontend: a plain-text **manifest** declares tables,
//! keys, and inclusion dependencies; the data rides in ordinary CSV
//! files (or inline blocks for tests). The constraint story mirrors the
//! paper's database setting:
//!
//! * `key Emp(id)` — a primary key, enforced as the EGD
//!   `Emp(x̄,ȳ) ∧ Emp(x̄,ȳ′) → ȳ = ȳ′` *during streaming*: two rows that
//!   agree on the key but differ elsewhere are an unrepairable violation
//!   (the EGD equates distinct named constants), reported with both line
//!   numbers. Exact duplicate rows are fine — they dedup in the instance.
//! * `include Emp(dept) -> Dept(id)` — an inclusion dependency, lowered
//!   to the linear (hence guarded) TGD
//!   `Emp(x₁..xₙ) → ∃z̄ Dept(..)` where head positions not covered by the
//!   mapping become existential variables.
//!
//! Manifest grammar (one declaration per line, `#` comments):
//!
//! ```text
//! table Emp(id, name, dept) from emp.csv with header
//! key   Emp(id)
//! include Emp(dept) -> Dept(id)
//! ```

use crate::error::IngestError;
use crate::source::{FactSink, Source, SourceSchema};
use gtgd_chase::Tgd;
use gtgd_data::{GroundAtom, Predicate, Schema, Value};
use gtgd_query::{QAtom, Term, Var};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// One declared table.
#[derive(Debug, Clone)]
struct Table {
    name: String,
    columns: Vec<String>,
    /// The CSV file the rows come from (resolved against the manifest's
    /// directory unless shadowed by an inline block).
    file: String,
    /// Whether the first data line is a header to validate and skip.
    header: bool,
    /// Key column indices (empty = no key declared).
    key: Vec<usize>,
}

/// An inclusion dependency `Src(cols) -> Dst(cols)`.
#[derive(Debug, Clone)]
struct Inclusion {
    src: String,
    src_cols: Vec<String>,
    dst: String,
    dst_cols: Vec<String>,
    line: usize,
}

/// A CSV-with-manifest dataset as an ingestion source.
pub struct CsvSource {
    name: String,
    manifest: String,
    /// Directory `from` paths resolve against.
    base: PathBuf,
    /// Inline data blocks keyed by file name (tests, generators).
    inline: HashMap<String, String>,
}

impl CsvSource {
    /// A source over in-memory manifest text. File references resolve
    /// against `base` unless shadowed by [`CsvSource::with_inline`].
    pub fn from_manifest_str(name: &str, manifest: &str) -> CsvSource {
        CsvSource {
            name: name.to_string(),
            manifest: manifest.to_string(),
            base: PathBuf::from("."),
            inline: HashMap::new(),
        }
    }

    /// A source reading the manifest at `path`; CSV files resolve
    /// relative to its directory.
    pub fn from_path(path: &Path) -> Result<CsvSource, IngestError> {
        let manifest = std::fs::read_to_string(path).map_err(|e| IngestError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(CsvSource {
            name: path.display().to_string(),
            manifest,
            base: path.parent().unwrap_or(Path::new(".")).to_path_buf(),
            inline: HashMap::new(),
        })
    }

    /// Shadows `file` with inline CSV text (no disk access).
    pub fn with_inline(mut self, file: &str, csv: &str) -> CsvSource {
        self.inline.insert(file.to_string(), csv.to_string());
        self
    }

    fn parse_manifest(&self) -> Result<(Vec<Table>, Vec<Inclusion>), IngestError> {
        let mut tables: Vec<Table> = Vec::new();
        let mut inclusions: Vec<Inclusion> = Vec::new();
        for (i, raw) in self.manifest.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: String| IngestError::Manifest {
                line: lineno,
                message,
            };
            if let Some(rest) = line.strip_prefix("table ") {
                let (name, cols, rest) = parse_sig(rest).map_err(&err)?;
                let rest = rest.trim();
                let Some(rest) = rest.strip_prefix("from ") else {
                    return Err(err(format!(
                        "expected `from <file>` after table {name}(...)"
                    )));
                };
                let (file, header) = match rest.trim().strip_suffix("with header") {
                    Some(f) => (f.trim(), true),
                    None => (rest.trim(), false),
                };
                if file.is_empty() {
                    return Err(err("missing file name after `from`".to_string()));
                }
                if tables.iter().any(|t| t.name == name) {
                    return Err(err(format!("table {name} declared twice")));
                }
                let mut seen = std::collections::HashSet::new();
                for c in &cols {
                    if !seen.insert(c.clone()) {
                        return Err(err(format!("duplicate column `{c}` in table {name}")));
                    }
                }
                tables.push(Table {
                    name,
                    columns: cols,
                    file: file.to_string(),
                    header,
                    key: Vec::new(),
                });
            } else if let Some(rest) = line.strip_prefix("key ") {
                let (name, cols, rest) = parse_sig(rest).map_err(&err)?;
                if !rest.trim().is_empty() {
                    return Err(err(format!("unexpected trailing `{}`", rest.trim())));
                }
                let Some(table) = tables.iter_mut().find(|t| t.name == name) else {
                    return Err(err(format!(
                        "key declared for unknown table {name} (declare the table first)"
                    )));
                };
                if !table.key.is_empty() {
                    return Err(err(format!("table {name} already has a key")));
                }
                let mut key = Vec::new();
                for c in &cols {
                    match table.columns.iter().position(|tc| tc == c) {
                        Some(idx) => key.push(idx),
                        None => {
                            return Err(err(format!("key column `{c}` is not a column of {name}")))
                        }
                    }
                }
                if key.is_empty() {
                    return Err(err(format!("key of {name} needs at least one column")));
                }
                table.key = key;
            } else if let Some(rest) = line.strip_prefix("include ") {
                let Some((src_part, dst_part)) = rest.split_once("->") else {
                    return Err(err("expected `include Src(cols) -> Dst(cols)`".to_string()));
                };
                let (src, src_cols, tail) = parse_sig(src_part).map_err(&err)?;
                if !tail.trim().is_empty() {
                    return Err(err(format!("unexpected `{}` before ->", tail.trim())));
                }
                let (dst, dst_cols, tail) = parse_sig(dst_part).map_err(&err)?;
                if !tail.trim().is_empty() {
                    return Err(err(format!("unexpected trailing `{}`", tail.trim())));
                }
                if src_cols.len() != dst_cols.len() {
                    return Err(err(format!(
                        "inclusion maps {} source columns to {} target columns",
                        src_cols.len(),
                        dst_cols.len()
                    )));
                }
                if src_cols.is_empty() {
                    return Err(err("inclusion needs at least one column".to_string()));
                }
                inclusions.push(Inclusion {
                    src,
                    src_cols,
                    dst,
                    dst_cols,
                    line: lineno,
                });
            } else {
                return Err(err(format!(
                    "unrecognized declaration `{}` (expected table/key/include)",
                    line.split_whitespace().next().unwrap_or(line)
                )));
            }
        }
        if tables.is_empty() {
            return Err(IngestError::Manifest {
                line: 1,
                message: "manifest declares no tables".to_string(),
            });
        }
        Ok((tables, inclusions))
    }

    /// Lowers an inclusion dependency to a linear TGD. Unmapped head
    /// positions become existential variables.
    fn lower_inclusion(inc: &Inclusion, tables: &[Table]) -> Result<Tgd, IngestError> {
        let err = |message: String| IngestError::Manifest {
            line: inc.line,
            message,
        };
        let src = tables.iter().find(|t| t.name == inc.src).ok_or_else(|| {
            err(format!(
                "inclusion source {} is not a declared table",
                inc.src
            ))
        })?;
        let dst = tables.iter().find(|t| t.name == inc.dst).ok_or_else(|| {
            err(format!(
                "inclusion target {} is not a declared table",
                inc.dst
            ))
        })?;
        // Body: Src(x0..xn) with one universal variable per column.
        let mut names: Vec<String> = src.columns.iter().map(|c| format!("x_{c}")).collect();
        let body = vec![QAtom::new(
            Predicate::new(&src.name),
            (0..src.columns.len())
                .map(|i| Term::Var(Var(i as u32)))
                .collect(),
        )];
        // Head: Dst(...) — mapped positions reuse body variables, the
        // rest are fresh existentials.
        let mut head_terms: Vec<Option<Term>> = vec![None; dst.columns.len()];
        for (sc, dc) in inc.src_cols.iter().zip(&inc.dst_cols) {
            let si = src
                .columns
                .iter()
                .position(|c| c == sc)
                .ok_or_else(|| err(format!("`{sc}` is not a column of {}", src.name)))?;
            let di = dst
                .columns
                .iter()
                .position(|c| c == dc)
                .ok_or_else(|| err(format!("`{dc}` is not a column of {}", dst.name)))?;
            if head_terms[di].is_some() {
                return Err(err(format!("target column `{dc}` mapped twice")));
            }
            head_terms[di] = Some(Term::Var(Var(si as u32)));
        }
        let head_terms: Vec<Term> = head_terms
            .into_iter()
            .enumerate()
            .map(|(di, t)| {
                t.unwrap_or_else(|| {
                    let v = Var(names.len() as u32);
                    names.push(format!("z_{}", dst.columns[di]));
                    Term::Var(v)
                })
            })
            .collect();
        let head = vec![QAtom::new(Predicate::new(&dst.name), head_terms)];
        Ok(Tgd::new(names, body, head))
    }

    fn stream_table(&self, table: &Table, sink: &mut dyn FactSink) -> Result<(), IngestError> {
        let file = table.file.clone();
        let text: String = match self.inline.get(&file) {
            Some(t) => t.clone(),
            None => {
                let path = self.base.join(&file);
                std::fs::read_to_string(&path).map_err(|e| IngestError::Io {
                    path: path.display().to_string(),
                    message: format!("{e} (referenced by table {} in the manifest)", table.name),
                })?
            }
        };
        let pred = Predicate::new(&table.name);
        let arity = table.columns.len();
        // Key enforcement: key values -> (first line, non-key values).
        let mut key_index: HashMap<Vec<String>, (usize, Vec<String>)> = HashMap::new();
        let mut lines = text.lines().enumerate();
        if table.header {
            match lines.next() {
                Some((_, h)) => {
                    let fields = split_csv_line(h, &file, 1)?;
                    if fields != table.columns {
                        return Err(IngestError::Csv {
                            file,
                            line: 1,
                            message: format!(
                                "header ({}) does not match declared columns ({})",
                                fields.join(", "),
                                table.columns.join(", ")
                            ),
                        });
                    }
                }
                None => {
                    return Err(IngestError::Csv {
                        file,
                        line: 1,
                        message: "file is empty but `with header` was declared".to_string(),
                    })
                }
            }
        }
        for (i, raw) in lines {
            let lineno = i + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let fields = split_csv_line(raw, &file, lineno)?;
            if fields.len() != arity {
                return Err(IngestError::Csv {
                    file,
                    line: lineno,
                    message: format!(
                        "table {} declares {arity} columns but row has {} fields",
                        table.name,
                        fields.len()
                    ),
                });
            }
            if !table.key.is_empty() {
                let key_vals: Vec<String> = table.key.iter().map(|&k| fields[k].clone()).collect();
                let rest: Vec<String> = (0..arity)
                    .filter(|i| !table.key.contains(i))
                    .map(|i| fields[i].clone())
                    .collect();
                match key_index.get(&key_vals) {
                    Some((first_line, prev_rest)) if *prev_rest != rest => {
                        return Err(IngestError::KeyViolation {
                            table: table.name.clone(),
                            key: table
                                .key
                                .iter()
                                .map(|&k| table.columns[k].clone())
                                .collect(),
                            key_values: key_vals.join(", "),
                            first_line: *first_line,
                            second_line: lineno,
                        });
                    }
                    Some(_) => {} // exact duplicate row: dedups downstream
                    None => {
                        key_index.insert(key_vals, (lineno, rest));
                    }
                }
            }
            sink.push(GroundAtom {
                predicate: pred,
                args: fields.iter().map(|f| Value::named(f)).collect(),
            })?;
        }
        Ok(())
    }
}

impl Source for CsvSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&mut self) -> Result<SourceSchema, IngestError> {
        let (tables, inclusions) = self.parse_manifest()?;
        let mut schema = Schema::new();
        for t in &tables {
            schema.add(Predicate::new(&t.name), t.columns.len());
        }
        let mut tgds = Vec::new();
        for inc in &inclusions {
            tgds.push(Self::lower_inclusion(inc, &tables)?);
        }
        Ok(SourceSchema { schema, tgds })
    }

    fn facts(&mut self, sink: &mut dyn FactSink) -> Result<(), IngestError> {
        let (tables, _) = self.parse_manifest()?;
        for t in &tables {
            self.stream_table(t, sink)?;
        }
        Ok(())
    }
}

/// Parses `Name(c1, c2, ...)` returning the name, columns, and the
/// remainder of the line.
fn parse_sig(src: &str) -> Result<(String, Vec<String>, &str), String> {
    let src = src.trim_start();
    let open = src
        .find('(')
        .ok_or_else(|| format!("expected `Name(columns...)`, found `{src}`"))?;
    let name = src[..open].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Err(format!("bad table name `{name}`"));
    }
    let rest = &src[open + 1..];
    let close = rest
        .find(')')
        .ok_or_else(|| format!("unclosed `(` after {name}"))?;
    let cols: Vec<String> = rest[..close]
        .split(',')
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .collect();
    if cols.is_empty() {
        return Err(format!("table {name} needs at least one column"));
    }
    for c in &cols {
        if !c.chars().all(|ch| ch.is_alphanumeric() || ch == '_') {
            return Err(format!("bad column name `{c}`"));
        }
    }
    Ok((name.to_string(), cols, &rest[close + 1..]))
}

/// Splits one CSV line: commas separate fields, double quotes protect
/// commas and quotes (RFC 4180's `""` escape), surrounding whitespace of
/// unquoted fields is trimmed.
fn split_csv_line(line: &str, file: &str, lineno: usize) -> Result<Vec<String>, IngestError> {
    let err = |message: String| IngestError::Csv {
        file: file.to_string(),
        line: lineno,
        message,
    };
    let bytes = line.as_bytes();
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut i = 0usize;
    loop {
        // One field: quoted or bare.
        if bytes.get(i) == Some(&b'"') {
            i += 1;
            loop {
                match bytes.get(i) {
                    Some(b'"') if bytes.get(i + 1) == Some(&b'"') => {
                        field.push('"');
                        i += 2;
                    }
                    Some(b'"') => {
                        i += 1;
                        break;
                    }
                    Some(_) => {
                        // Copy the full UTF-8 character.
                        let ch = line[i..].chars().next().expect("in bounds");
                        field.push(ch);
                        i += ch.len_utf8();
                    }
                    None => return Err(err("unterminated quoted field".to_string())),
                }
            }
            // Only a separator or end may follow a closing quote.
            match bytes.get(i) {
                None | Some(b',') => {}
                Some(_) => {
                    return Err(err(
                        "unexpected text after closing quote (missing comma?)".to_string()
                    ))
                }
            }
        } else {
            let start = i;
            while i < bytes.len() && bytes[i] != b',' {
                if bytes[i] == b'"' {
                    return Err(err(
                        "bare `\"` inside unquoted field (quote the whole field)".to_string(),
                    ));
                }
                i += 1;
            }
            field.push_str(line[start..i].trim());
        }
        fields.push(std::mem::take(&mut field));
        match bytes.get(i) {
            Some(b',') => i += 1,
            None => return Ok(fields),
            Some(_) => unreachable!("field parser stops at `,` or end"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ingest;
    use gtgd_chase::ChaseBudget;

    const MANIFEST: &str = "\
# a two-table schema with a key and an inclusion dependency\n\
table Emp(id, name, dept) from emp.csv with header\n\
key   Emp(id)\n\
table Dept(id, city) from dept.csv\n\
key   Dept(id)\n\
include Emp(dept) -> Dept(id)\n";

    fn source(emp: &str, dept: &str) -> CsvSource {
        CsvSource::from_manifest_str("test", MANIFEST)
            .with_inline("emp.csv", emp)
            .with_inline("dept.csv", dept)
    }

    #[test]
    fn tables_keys_and_inclusions_ingest() {
        let mut s = source("id,name,dept\ne1,Ann,sales\ne2,Bob,hr\n", "sales,Paris\n");
        let p = ingest(&mut s).unwrap();
        assert_eq!(p.facts.len(), 3);
        assert_eq!(p.tgds.len(), 1);
        // The inclusion dep invents the missing hr department (with a
        // null city) when chased. The default oblivious chase also fires
        // for sales, so Dept holds the base row plus two null-witnessed
        // rows; what matters is that hr now appears.
        let out = p.chase(ChaseBudget::unbounded());
        assert!(out.complete);
        let dept_keys: Vec<String> = out
            .instance
            .iter()
            .filter(|a| a.predicate == Predicate::new("Dept"))
            .map(|a| a.args[0].to_string())
            .collect();
        assert!(dept_keys.iter().any(|k| k == "hr"), "{dept_keys:?}");
        assert!(dept_keys.iter().any(|k| k == "sales"), "{dept_keys:?}");
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let mut s = CsvSource::from_manifest_str("t", "table T(a, b) from t.csv\n").with_inline(
            "t.csv",
            "\"x, y\",\"he said \"\"hi\"\"\"\nplain , trimmed\n",
        );
        let p = ingest(&mut s).unwrap();
        let rows: Vec<String> = p.facts.iter().map(|a| a.to_string()).collect();
        assert!(
            rows.contains(&"T(x, y,he said \"hi\")".to_string()),
            "{rows:?}"
        );
        assert!(rows.contains(&"T(plain,trimmed)".to_string()), "{rows:?}");
    }

    #[test]
    fn key_violation_reports_both_lines() {
        let mut s = source("id,name,dept\ne1,Ann,sales\ne1,Ann,hr\n", "sales,Paris\n");
        let e = ingest(&mut s).unwrap_err();
        match &e {
            IngestError::KeyViolation {
                table,
                first_line,
                second_line,
                ..
            } => {
                assert_eq!(table, "Emp");
                assert_eq!((*first_line, *second_line), (2, 3), "{e}");
            }
            other => panic!("expected KeyViolation, got {other}"),
        }
        // Exact duplicates are not violations.
        let mut s = source(
            "id,name,dept\ne1,Ann,sales\ne1,Ann,sales\n",
            "sales,Paris\n",
        );
        let p = ingest(&mut s).unwrap();
        assert_eq!(p.facts.len(), 2);
    }

    #[test]
    fn malformed_manifests_are_line_precise() {
        for (manifest, line, needle) in [
            ("tabel Emp(id) from e.csv", 1, "unrecognized declaration"),
            ("table Emp(id)", 1, "expected `from"),
            ("table Emp() from e.csv", 1, "at least one column"),
            ("table Emp(id) from e.csv\nkey Emp(nope)", 2, "not a column"),
            ("key Emp(id)", 1, "unknown table"),
            (
                "table Emp(id) from e.csv\ninclude Emp(id) -> Dept(id)",
                2,
                "not a declared table",
            ),
            (
                "table Emp(id) from e.csv\ntable Dept(a,b) from d.csv\ninclude Emp(id) -> Dept(a,b)",
                3,
                "1 source columns to 2",
            ),
            ("", 1, "no tables"),
        ] {
            let e = ingest(&mut CsvSource::from_manifest_str("t", manifest)).unwrap_err();
            match &e {
                IngestError::Manifest { line: l, message } => {
                    assert_eq!(*l, line, "{manifest}: {e}");
                    assert!(message.contains(needle), "{manifest}: {e}");
                }
                other => panic!("{manifest}: expected Manifest error, got {other}"),
            }
        }
    }

    #[test]
    fn malformed_csv_is_file_and_line_precise() {
        // Arity mismatch.
        let mut s = source("id,name,dept\ne1,Ann\n", "sales,Paris\n");
        let e = ingest(&mut s).unwrap_err();
        match &e {
            IngestError::Csv {
                file,
                line,
                message,
            } => {
                assert_eq!((file.as_str(), *line), ("emp.csv", 2), "{e}");
                assert!(message.contains("3 columns"), "{e}");
            }
            other => panic!("expected Csv error, got {other}"),
        }
        // Header mismatch.
        let mut s = source("id,nom,dept\n", "sales,Paris\n");
        let e = ingest(&mut s).unwrap_err();
        assert!(e.to_string().contains("header"), "{e}");
        // Unterminated quote.
        let mut s = source("id,name,dept\ne1,\"Ann,sales\n", "sales,Paris\n");
        let e = ingest(&mut s).unwrap_err();
        assert!(e.to_string().contains("unterminated quoted field"), "{e}");
        // Missing data file.
        let mut s = CsvSource::from_manifest_str("t", "table T(a) from missing.csv\n");
        let e = ingest(&mut s).unwrap_err();
        assert!(matches!(e, IngestError::Io { .. }), "{e}");
    }

    #[test]
    fn inclusion_head_existentials_are_fresh_per_head_position() {
        // Dept has 2 columns, only id is mapped; the TGD head must use an
        // existential for city.
        let s = CsvSource::from_manifest_str("t", MANIFEST);
        let mut s = s
            .with_inline("emp.csv", "id,name,dept\ne1,Ann,sales\n")
            .with_inline("dept.csv", "");
        let p = ingest(&mut s).unwrap();
        let tgd = &p.tgds[0];
        let s = tgd.to_string();
        assert!(s.contains("Emp(") && s.contains("Dept("), "{s}");
    }
}
