//! The one error type every frontend speaks: typed variants with precise
//! locations, so the CLI can print a described rejection and exit with a
//! stable code — malformed input is **never** a panic.

use gtgd_chase::FragmentError;

/// An ingestion failure. Every variant carries enough location detail
/// (file, line, construct) to point at the offending input directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// Malformed RDF (N-Triples / Turtle subset) input.
    Rdf {
        /// 1-based line in the RDF document.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Malformed OWL functional-syntax input.
    Owl {
        /// 1-based line in the OWL document.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A well-formed OWL construct that is not expressible in the guarded
    /// fragment this toolkit evaluates (e.g. `ObjectUnionOf`,
    /// cardinalities, `⊤` on a left-hand side).
    Fragment {
        /// 1-based line of the axiom, when known (0 = lowering stage).
        line: usize,
        /// The rejected construct or axiom.
        construct: String,
        /// Why it falls outside the fragment.
        reason: String,
    },
    /// Malformed table manifest.
    Manifest {
        /// 1-based line in the manifest.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Malformed CSV data.
    Csv {
        /// The CSV file (as named in the manifest).
        file: String,
        /// 1-based line in that file.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A declared key violated by the data: two rows agree on the key
    /// columns but differ elsewhere — the EGD `P(x̄,ȳ), P(x̄,ȳ′) → ȳ = ȳ′`
    /// fails on named constants, which is unrepairable.
    KeyViolation {
        /// The table whose key failed.
        table: String,
        /// The key columns.
        key: Vec<String>,
        /// The shared key values, comma-joined.
        key_values: String,
        /// 1-based line of the first row.
        first_line: usize,
        /// 1-based line of the conflicting row.
        second_line: usize,
    },
    /// A fact contradicting the declared schema (wrong arity, undeclared
    /// predicate under a strict source).
    Schema {
        /// What went wrong.
        message: String,
    },
    /// An I/O failure reading source files.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying error, rendered.
        message: String,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Rdf { line, message } => write!(f, "rdf: line {line}: {message}"),
            IngestError::Owl { line, message } => write!(f, "owl: line {line}: {message}"),
            IngestError::Fragment {
                line,
                construct,
                reason,
            } => {
                if *line > 0 {
                    write!(
                        f,
                        "owl: line {line}: `{construct}` is outside the guarded fragment: {reason}"
                    )
                } else {
                    write!(
                        f,
                        "owl: `{construct}` is outside the guarded fragment: {reason}"
                    )
                }
            }
            IngestError::Manifest { line, message } => {
                write!(f, "manifest: line {line}: {message}")
            }
            IngestError::Csv {
                file,
                line,
                message,
            } => write!(f, "csv: {file}: line {line}: {message}"),
            IngestError::KeyViolation {
                table,
                key,
                key_values,
                first_line,
                second_line,
            } => write!(
                f,
                "csv: key ({}) of table {table} violated: rows at lines {first_line} and \
                 {second_line} share key ({key_values}) but differ elsewhere",
                key.join(", ")
            ),
            IngestError::Schema { message } => write!(f, "schema: {message}"),
            IngestError::Io { path, message } => write!(f, "io: {path}: {message}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<FragmentError> for IngestError {
    fn from(e: FragmentError) -> IngestError {
        IngestError::Fragment {
            line: 0,
            construct: e.axiom,
            reason: e.reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_locations() {
        let e = IngestError::Csv {
            file: "emp.csv".into(),
            line: 7,
            message: "expected 3 fields, found 2".into(),
        };
        assert_eq!(
            e.to_string(),
            "csv: emp.csv: line 7: expected 3 fields, found 2"
        );
        let e = IngestError::KeyViolation {
            table: "Emp".into(),
            key: vec!["id".into()],
            key_values: "e1".into(),
            first_line: 2,
            second_line: 5,
        };
        let s = e.to_string();
        assert!(s.contains("Emp") && s.contains("lines 2 and 5"), "{s}");
    }
}
