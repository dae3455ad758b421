//! End-to-end checks of the `gtgd ingest` / `gtgd gen` CLI surfaces and
//! the stable exit-code contract (src/error.rs): generated workloads run
//! through the real binary, and every failure class exits with its
//! documented code and a described message on stderr — never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gtgd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gtgd"))
        .args(args)
        .output()
        .expect("spawn gtgd")
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gtgd-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

#[test]
fn gen_then_ingest_roundtrip_through_files() {
    let dir = temp_dir("roundtrip");
    let out = gtgd(&[
        "gen",
        "lubm",
        "--univ",
        "1",
        "--seed",
        "9",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let nt = dir.join("data.nt");
    let ofn = dir.join("ontology.ofn");
    assert!(nt.exists() && ofn.exists());

    let out = gtgd(&[
        "ingest",
        "--rdf",
        nt.to_str().unwrap(),
        "--owl",
        ofn.to_str().unwrap(),
        "--query",
        "Ans(X) :- Professor(X), worksFor(X,D)",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().count() > 5,
        "expected answers, got: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gen_is_deterministic_at_the_cli() {
    let a = gtgd(&["gen", "lubm", "--univ", "1", "--seed", "4"]);
    let b = gtgd(&["gen", "lubm", "--univ", "1", "--seed", "4"]);
    let c = gtgd(&["gen", "lubm", "--univ", "1", "--seed", "5"]);
    assert!(a.status.success() && b.status.success() && c.status.success());
    assert_eq!(a.stdout, b.stdout, "same seed must be byte-identical");
    assert_ne!(a.stdout, c.stdout, "different seed must differ");
}

#[test]
fn ingest_lubm_query_answers_are_sorted_and_stable() {
    let run = || {
        let out = gtgd(&[
            "ingest",
            "--lubm",
            "1",
            "--seed",
            "2",
            "--query",
            "Ans(X,U) :- Professor(X), worksFor(X,D), subOrganizationOf(D,U)",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "two runs over the same seed must print identically");
    // Answer rows (indented tuples) follow the summary lines, sorted.
    let rows: Vec<&str> = a.lines().filter(|l| l.starts_with("  (")).collect();
    assert!(rows.len() > 3, "{a}");
    let mut sorted = rows.clone();
    sorted.sort();
    assert_eq!(rows, sorted, "answers must print sorted");
}

#[test]
fn usage_errors_exit_2_with_description() {
    for args in [
        &["ingest", "--nope"][..],
        &["ingest"][..], // no source selected
        &["gen", "lubm", "--univ", "zero"][..],
        &["gen", "pubmed"][..],                        // unknown generator
        &["ingest", "--lubm", "1", "--full-iris"][..], // flag needs --rdf
    ] {
        let out = gtgd(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{args:?}: {err}");
    }
}

#[test]
fn malformed_input_files_exit_4_with_location() {
    let dir = temp_dir("malformed");
    let bad = dir.join("bad.nt");
    std::fs::write(&bad, "<a> <b> <c> .\n<d> <e>").unwrap();
    let out = gtgd(&["ingest", "--rdf", bad.to_str().unwrap(), "--chase"]);
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ingest:") && err.contains("line 2"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_input_file_is_described_not_panicked() {
    let out = gtgd(&["ingest", "--rdf", "/nonexistent/nope.nt", "--chase"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:") && err.contains("nope.nt"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn per_subcommand_help_lists_flags_and_exits_0() {
    for (args, needle) in [
        (&["ingest", "--help"][..], "--lubm"),
        (&["gen", "--help"][..], "--univ"),
        (&["serve", "--help"][..], "--ingest"),
        (&["snapshot", "--help"][..], "usage: gtgd snapshot"),
        (&["maintain", "--help"][..], "usage: gtgd maintain"),
        (&["--help"][..], "gtgd ingest"),
    ] {
        let out = gtgd(args);
        assert!(out.status.success(), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(needle), "{args:?}: {stdout}");
    }
}

#[test]
fn ingest_snapshot_then_serve_snapshot_agree() {
    let dir = temp_dir("snap");
    let snap = dir.join("lubm.gsnap");
    let out = gtgd(&[
        "ingest",
        "--lubm",
        "1",
        "--seed",
        "6",
        "--snapshot",
        snap.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(snap.exists());
    // The snapshot must reload as a queryable maintained instance.
    let loaded = gtgd::storage::load_snapshot(&snap).expect("snapshot loads");
    assert!(loaded.instance().len() > 1000);
    let _ = std::fs::remove_dir_all(&dir);
}
