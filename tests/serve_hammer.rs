//! Concurrency hammer for the serve daemon: many client threads fire
//! mixed read/write scripts at one daemon over loopback, then the final
//! served answers must be *bit-identical* to a from-scratch
//! `Engine::prepare` evaluation over a chase of the final base set.
//!
//! Threads own disjoint atoms, so the write operations commute and the
//! final state is deterministic no matter how the daemon's write gate
//! interleaves them; what the test exercises is the commit-log append +
//! `Arc`-swap publication discipline under contention — readers must
//! never observe a half-applied write, and no acknowledged write may be
//! lost.

use gtgd::chase::{parse_tgds, ChaseBudget, ChaseRunner};
use gtgd::data::{GroundAtom, Instance};
use gtgd::query::{parse_cq, Engine};
use gtgd::storage::{save_snapshot, Client, Server};
use std::path::PathBuf;

const THREADS: usize = 16;

fn rules() -> &'static str {
    "Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D). Assigned(X,P) -> Proj(P)"
}

/// The base facts thread `t`'s script leaves behind when it finishes.
fn final_base_of_thread(t: usize) -> Vec<GroundAtom> {
    vec![
        GroundAtom::named("Emp", &[&format!("hm_t{t}_a")]),
        GroundAtom::named("Emp", &[&format!("hm_t{t}_c")]),
        GroundAtom::named("Assigned", &[&format!("hm_t{t}_a"), &format!("hm_proj{t}")]),
    ]
}

/// One client's script: inserts, interleaved queries, one retraction.
/// Every operation must be acknowledged; queries mid-stream just have to
/// succeed (their answers depend on the interleaving and are checked only
/// at the end, on the quiesced daemon).
fn run_script(t: usize, mut c: Client) {
    let a = format!("hm_t{t}_a");
    let b = format!("hm_t{t}_b");
    let cc = format!("hm_t{t}_c");
    c.insert(&format!("Emp({a})")).unwrap();
    c.query("Q(X) :- Emp(X)").unwrap();
    c.insert(&format!("Emp({b})")).unwrap();
    c.insert(&format!("Assigned({a}, hm_proj{t})")).unwrap();
    c.query("Q(X, P) :- Assigned(X, P)").unwrap();
    c.insert(&format!("Emp({cc})")).unwrap();
    c.retract(&format!("Emp({b})")).unwrap();
    c.query("Q(P) :- Proj(P)").unwrap();
}

#[test]
fn hammer_matches_single_shot_evaluation() {
    let tgds = parse_tgds(rules()).unwrap();
    let seed_base = vec![
        GroundAtom::named("Emp", &["hm_seed0"]),
        GroundAtom::named("Emp", &["hm_seed1"]),
    ];
    let m = ChaseRunner::new(&tgds)
        .budget(ChaseBudget::atoms(1_000_000))
        .maintain(&Instance::from_atoms(seed_base.clone()));
    let path: PathBuf =
        std::env::temp_dir().join(format!("gtgd-hammer-{}.gsnap", std::process::id()));
    save_snapshot(&path, &tgds, &m).unwrap();

    let server = Server::start(path.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let server_handle = std::thread::spawn(move || server.run());

    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || run_script(t, Client::connect(addr).unwrap()));
        }
    });

    // The deterministic final base: seed plus every thread's residue.
    let mut final_base = seed_base;
    for t in 0..THREADS {
        final_base.extend(final_base_of_thread(t));
    }
    let reference = ChaseRunner::new(&tgds)
        .budget(ChaseBudget::atoms(1_000_000))
        .maintain(&Instance::from_atoms(final_base));

    let queries = [
        "Q(X) :- Emp(X)",
        "Q(X, P) :- Assigned(X, P)",
        "Q(P) :- Proj(P)",
        "Q(X, D) :- Emp(X), WorksIn(X, D)",
    ];
    let expect: Vec<Vec<Vec<String>>> = queries
        .iter()
        .map(|q| {
            let cq = parse_cq(q).unwrap();
            let mut rows: Vec<Vec<String>> = Engine::prepare(&cq)
                .answers(reference.instance())
                .into_iter()
                .filter(|row| row.iter().all(|v| v.is_named()))
                .map(|row| row.iter().map(ToString::to_string).collect())
                .collect();
            rows.sort();
            rows
        })
        .collect();

    // The daemon sorts rows by interned-value order, the reference by
    // rendered string; normalize both to string order before comparing —
    // the *sets* must be bit-identical.
    let mut c = Client::connect(addr).unwrap();
    for (q, want) in queries.iter().zip(&expect) {
        let mut got = c.query(q).unwrap();
        got.sort();
        assert_eq!(&got, want, "daemon disagrees with single-shot run on {q}");
    }
    // Sanity on the workload shape: every WorksIn row is null-valued, so
    // the last query must certify nothing.
    assert!(expect[3].is_empty());
    assert!(!expect[0].is_empty());
    let stats = c.stats().unwrap();
    assert_eq!(stats["complete"], "true");
    c.shutdown().unwrap();
    server_handle.join().unwrap().unwrap();

    // Every acknowledged write reached the snapshot (the shutdown
    // checkpoint): a cold restart from the file serves the same answers.
    let server = Server::start(path.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let server_handle = std::thread::spawn(move || server.run());
    let mut c = Client::connect(addr).unwrap();
    for (q, want) in queries.iter().zip(&expect) {
        let mut got = c.query(q).unwrap();
        got.sort();
        assert_eq!(&got, want, "restarted daemon disagrees on {q}");
    }
    c.shutdown().unwrap();
    server_handle.join().unwrap().unwrap();
    std::fs::remove_file(&path).ok();
}
