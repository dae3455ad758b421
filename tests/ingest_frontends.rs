//! Robustness and determinism suite for the three ingestion frontends
//! (DESIGN.md §15). The contract under test: **every** rejection is a
//! described [`IngestError`] — with a location where one exists — and no
//! input, however mangled, panics a frontend. Plus the generator's
//! byte-determinism guarantee and the streaming EGD key check.

use gtgd::ingest::{
    ingest, CsvSource, IngestError, LubmConfig, LubmSource, OwlSource, RdfSource, Source,
};

/// Ingests and returns the error, asserting the frontend rejected.
fn must_reject(src: &mut dyn Source) -> IngestError {
    match ingest(src) {
        Ok(p) => panic!(
            "{}: expected rejection, got a program with {} facts",
            src.name(),
            p.facts.len()
        ),
        Err(e) => {
            let msg = e.to_string();
            assert!(!msg.is_empty(), "empty error message");
            e
        }
    }
}

// ---------------------------------------------------------------- RDF --

#[test]
fn rdf_truncated_triples_are_line_precise() {
    let cases = [
        ("<a> <b>", 1),                               // missing object
        ("<a> <b> <c> .\n<d> <e>", 2),                // truncated second triple
        ("<a> <b> <c> .\n<d> <e> \"unterminated", 2), // open literal
        ("<a> <b> <c>", 1),                           // missing terminating dot
        ("@prefix ex: <http://e.org/", 1),            // unterminated IRI ref
        ("<a> <b> <c> ;\n", 2),                       // dangling predicate list (EOF on line 2)
    ];
    for (text, want_line) in cases {
        let e = must_reject(&mut RdfSource::from_str("t", text));
        match e {
            IngestError::Rdf { line, ref message } => {
                assert_eq!(line, want_line, "{text:?}: {message}");
                assert!(!message.is_empty());
            }
            other => panic!("{text:?}: expected Rdf error, got {other}"),
        }
    }
}

#[test]
fn rdf_bad_escapes_are_rejected_not_mangled() {
    for text in [
        "<a> <b> \"bad \\q escape\" .",
        "<a> <b> \"\\u12\" .",       // truncated \u
        "<a> <b> \"\\UDEADBEEF\" .", // not a scalar value
    ] {
        let e = must_reject(&mut RdfSource::from_str("t", text));
        assert!(matches!(e, IngestError::Rdf { .. }), "{text:?}: {e}");
    }
}

/// Seeded mutation fuzz: random truncations and byte substitutions of a
/// valid document must parse or reject, never panic. (Panics would abort
/// the test process, so plain invocation is the assertion.)
#[test]
fn rdf_seeded_mutations_never_panic() {
    let valid = LubmSource::new(LubmConfig {
        universities: 1,
        seed: 3,
    })
    .ntriples();
    let mut rng = gtgd::data::rng::Rng::seed(0xf00d);
    for _ in 0..200 {
        let mut bytes = valid.as_bytes().to_vec();
        bytes.truncate(rng.range(0, bytes.len()));
        if !bytes.is_empty() && rng.chance(0.7) {
            let i = rng.range(0, bytes.len());
            bytes[i] = rng.next_u64() as u8;
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = ingest(&mut RdfSource::from_str("fuzz", &text));
    }
}

// ---------------------------------------------------------------- OWL --

#[test]
fn owl_out_of_fragment_axioms_name_construct_and_line() {
    let cases = [
        ("SubClassOf(ex:A ObjectUnionOf(ex:B ex:C))", "ObjectUnionOf"),
        (
            "SubClassOf(ex:A ObjectAllValuesFrom(ex:r ex:B))",
            "ObjectAllValuesFrom",
        ),
        (
            "SubClassOf(ex:A ObjectComplementOf(ex:B))",
            "ObjectComplementOf",
        ),
        ("TransitiveObjectProperty(ex:r)", "TransitiveObjectProperty"),
        ("FunctionalObjectProperty(ex:r)", "FunctionalObjectProperty"),
    ];
    for (axiom, construct) in cases {
        let doc = format!(
            "Prefix(ex:=<http://e.org/>)\nOntology(\nDeclaration(Class(ex:A))\n{axiom}\n)\n"
        );
        let e = must_reject(&mut OwlSource::from_str("t", &doc));
        let msg = e.to_string();
        assert!(msg.contains(construct), "{axiom}: {msg}");
        match e {
            IngestError::Fragment { line, .. } | IngestError::Owl { line, .. } => {
                assert_eq!(line, 4, "{axiom}: wrong line in {msg}")
            }
            other => panic!("{axiom}: expected Fragment/Owl error, got {other}"),
        }
    }
}

#[test]
fn owl_syntax_errors_are_described() {
    for doc in [
        "Ontology(",                                                 // unbalanced
        "Prefix(ex:=<http://e.org/>)\nOntology(SubClassOf(ex:A))\n", // missing RHS
        "Ontology(SubClassOf(ex:A :B))",                             // undeclared prefix
        "Garbage(:x)",
    ] {
        let e = must_reject(&mut OwlSource::from_str("t", doc));
        assert!(
            matches!(e, IngestError::Owl { .. } | IngestError::Fragment { .. }),
            "{doc:?}: {e}"
        );
    }
}

#[test]
fn owl_seeded_mutations_never_panic() {
    let valid = gtgd::ingest::ONTOLOGY_OWL;
    let mut rng = gtgd::data::rng::Rng::seed(0xbeef);
    for _ in 0..200 {
        let mut bytes = valid.as_bytes().to_vec();
        bytes.truncate(rng.range(0, bytes.len()));
        if !bytes.is_empty() && rng.chance(0.7) {
            let i = rng.range(0, bytes.len());
            bytes[i] = rng.next_u64() as u8;
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = ingest(&mut OwlSource::from_str("fuzz", &text));
    }
}

// ---------------------------------------------------------------- CSV --

const EMP_MANIFEST: &str = "\
table Emp(id, dept) from emp.csv with header
key Emp(id)
table Dept(name) from dept.csv
include Emp(dept) -> Dept(name)
";

#[test]
fn csv_arity_mismatch_names_file_and_line() {
    let mut src = CsvSource::from_manifest_str("t", EMP_MANIFEST)
        .with_inline("emp.csv", "id,dept\nann,hr\nbob,hr,EXTRA\n")
        .with_inline("dept.csv", "hr\n");
    let e = must_reject(&mut src);
    match e {
        IngestError::Csv {
            ref file,
            line,
            ref message,
        } => {
            assert!(file.contains("emp.csv"), "{e}");
            assert_eq!(line, 3);
            assert!(message.contains('2') && message.contains('3'), "{message}");
        }
        other => panic!("expected Csv error, got {other}"),
    }
}

#[test]
fn csv_key_violation_reports_both_lines() {
    let mut src = CsvSource::from_manifest_str("t", EMP_MANIFEST)
        .with_inline("emp.csv", "id,dept\nann,hr\nbob,it\nann,it\n")
        .with_inline("dept.csv", "hr\nit\n");
    let e = must_reject(&mut src);
    match e {
        IngestError::KeyViolation {
            ref table,
            first_line,
            second_line,
            ..
        } => {
            assert_eq!(table, "Emp");
            assert_eq!((first_line, second_line), (2, 4));
        }
        other => panic!("expected KeyViolation, got {other}"),
    }
    // Exact duplicate rows are not violations — same key, same rest.
    let mut ok = CsvSource::from_manifest_str("t", EMP_MANIFEST)
        .with_inline("emp.csv", "id,dept\nann,hr\nann,hr\n")
        .with_inline("dept.csv", "hr\n");
    ingest(&mut ok).expect("exact duplicates are fine");
}

#[test]
fn csv_manifest_errors_are_line_precise() {
    let cases = [
        ("table Emp(id from emp.csv", 1),
        (
            "table Emp(id) from emp.csv\ntable Emp(id) from other.csv",
            2,
        ),
        ("table Emp(id) from emp.csv\nkey Nope(id)", 2),
        (
            "table Emp(id) from emp.csv\ntable D(a,b) from d.csv\ninclude Emp(id) -> D(a,b)",
            3,
        ),
        ("", 1),
    ];
    for (manifest, want_line) in cases {
        let e = must_reject(&mut CsvSource::from_manifest_str("t", manifest));
        match e {
            IngestError::Manifest { line, ref message } => {
                assert_eq!(line, want_line, "{manifest:?}: {message}")
            }
            other => panic!("{manifest:?}: expected Manifest error, got {other}"),
        }
    }
}

#[test]
fn csv_quoting_errors_are_rejected() {
    for body in [
        "id,dept\n\"ann,hr\n",
        "id,dept\nan\"n,hr\n",
        "id,dept\n\"ann\"x,hr\n",
    ] {
        let mut src =
            CsvSource::from_manifest_str("t", "table Emp(id, dept) from emp.csv with header\n")
                .with_inline("emp.csv", body);
        let e = must_reject(&mut src);
        assert!(matches!(e, IngestError::Csv { .. }), "{body:?}: {e}");
    }
}

#[test]
fn csv_seeded_mutations_never_panic() {
    let mut rng = gtgd::data::rng::Rng::seed(0xcafe);
    let manifest = EMP_MANIFEST;
    let csv = "id,dept\nann,hr\nbob,it\n";
    for _ in 0..200 {
        let mutate = |text: &str, rng: &mut gtgd::data::rng::Rng| {
            let mut bytes = text.as_bytes().to_vec();
            bytes.truncate(rng.range(0, bytes.len()));
            if !bytes.is_empty() && rng.chance(0.7) {
                let i = rng.range(0, bytes.len());
                bytes[i] = rng.next_u64() as u8;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        };
        let (m, c) = (mutate(manifest, &mut rng), mutate(csv, &mut rng));
        let mut src = CsvSource::from_manifest_str("fuzz", &m)
            .with_inline("emp.csv", &c)
            .with_inline("dept.csv", "hr\nit\n");
        let _ = ingest(&mut src);
    }
}

// -------------------------------------------------------- determinism --

#[test]
fn generator_is_byte_deterministic_and_seed_sensitive() {
    let cfg = LubmConfig {
        universities: 2,
        seed: 41,
    };
    assert_eq!(
        LubmSource::new(cfg).ntriples(),
        LubmSource::new(cfg).ntriples()
    );
    assert_eq!(
        LubmSource::new(cfg).datalog_facts(),
        LubmSource::new(cfg).datalog_facts()
    );
    let other = LubmSource::new(LubmConfig {
        universities: 2,
        seed: 42,
    });
    assert_ne!(LubmSource::new(cfg).ntriples(), other.ntriples());
}

#[test]
fn ingest_is_deterministic_across_runs() {
    let cfg = LubmConfig {
        universities: 1,
        seed: 5,
    };
    let a = ingest(&mut LubmSource::new(cfg)).unwrap();
    let b = ingest(&mut LubmSource::new(cfg)).unwrap();
    assert_eq!(a.facts, b.facts);
    assert_eq!(a.tgds.len(), b.tgds.len());
}
