//! Exit-code contract of the `experiments` binary: usage errors exit 2.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

#[test]
fn unknown_experiment_id_exits_2() {
    let out = experiments(&["E99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment id: E99"),
        "stderr: {stderr}"
    );
}

#[test]
fn non_positive_jobs_exits_2() {
    let out = experiments(&["--jobs", "0", "E1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--jobs expects a positive integer"),
        "stderr: {stderr}"
    );
}
