//! Snapshot round-trip properties (seeded, many instances): a maintained
//! fixpoint saved and loaded back must be isomorphic to the original,
//! answer prepared queries identically under both join strategies, and
//! re-serve its persisted dense tries from cache instead of rebuilding
//! them.
//! Damaged files must fail closed with the precise error for the damage.

use gtgd::chase::{parse_tgds, ChaseBudget, ChaseRunner, MaintainedInstance, Tgd};
use gtgd::data::{GroundAtom, Predicate, Rng, Symbol, Value};
use gtgd::query::{instance_isomorphic, parse_cq, Engine, Strategy};
use gtgd::storage::{load_snapshot, save_snapshot, SnapshotError, SNAPSHOT_VERSION};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "gtgd-roundtrip-{}-{}-{tag}.gsnap",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// An org-style workload: guarded rules with one existential, a seeded
/// base, and a seeded burst of inserts and retractions so the persisted
/// state includes DRed-compacted fired sets, not just a fresh chase.
fn seeded_fixture(seed: u64) -> (Vec<Tgd>, MaintainedInstance) {
    // Terminating rules: the existentials bottom out (nulls never
    // re-trigger `Emp`), so the fixpoint stays small and retraction fast.
    let tgds =
        parse_tgds("Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D). Dept(D) -> HasHead(D,H)")
            .unwrap();
    let mut rng = Rng::seed(seed);
    let n = rng.range(4, 12);
    let mut atoms = Vec::new();
    for i in 0..n {
        atoms.push(GroundAtom::named("Emp", &[&format!("rt{seed}_e{i}")]));
        if rng.chance(0.5) {
            atoms.push(GroundAtom::named(
                "WorksIn",
                &[&format!("rt{seed}_e{i}"), &format!("rt{seed}_d{}", i % 3)],
            ));
        }
    }
    let mut m = ChaseRunner::new(&tgds)
        .budget(ChaseBudget::atoms(100_000))
        .maintain(&gtgd::data::Instance::from_atoms(atoms));
    // Mutate: some inserts, some retractions of existing base facts.
    for i in 0..rng.range(2, 6) {
        m.insert([GroundAtom::named("Emp", &[&format!("rt{seed}_x{i}")])]);
    }
    for i in 0..rng.range(1, 4) {
        m.retract([GroundAtom::named("Emp", &[&format!("rt{seed}_e{i}")])]);
    }
    (tgds, m)
}

/// Saves, loads back, and checks every round-trip property for one
/// fixture. Queries are evaluated with *both* join strategies on both
/// sides; in-process ids are stable, so answers must be bit-identical.
fn assert_round_trips(tag: &str, tgds: &[Tgd], m: &MaintainedInstance) {
    let queries = [
        "Q(X) :- Emp(X)",
        "Q(X, D) :- Emp(X), WorksIn(X, D)",
        "Q(D, H) :- Dept(D), HasHead(D, H)",
    ];
    // Warm a dense trie so the snapshot persists one.
    let worksin = Predicate(Symbol::new("WorksIn"));
    m.instance().dense_snapshot(&[(worksin, 2, &[1, 0])]);
    let stats_before = m.instance().dense_stats();

    let path = temp_path(tag);
    save_snapshot(&path, tgds, m).unwrap();
    let loaded = load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Trie rebuild behavior: every persisted trie installed (same process
    // → same interning order → validation passes) without a sort, and
    // demanding the persisted order again is a cache hit, not a rebuild.
    // Checked first: the isomorphism check and the forced-WCOJ queries
    // below build tries of their own.
    assert_eq!(
        loaded.dense_tries_installed, stats_before.tries,
        "{tag}: all persisted tries install"
    );
    let after_load = loaded.instance().dense_stats();
    assert_eq!((after_load.full_builds, after_load.merge_extends), (0, 0));
    loaded.instance().dense_snapshot(&[(worksin, 2, &[1, 0])]);
    assert_eq!(
        loaded.instance().dense_stats(),
        after_load,
        "{tag}: re-demanding a persisted trie must not rebuild it"
    );

    assert!(
        instance_isomorphic(m.instance(), loaded.instance()),
        "{tag}: loaded instance must be isomorphic"
    );
    for q in queries {
        let cq = parse_cq(q).unwrap();
        for s in [Strategy::Backtrack, Strategy::Wcoj] {
            let orig = Engine::prepare(&cq).strategy(s).answers(m.instance());
            let back = Engine::prepare(&cq).strategy(s).answers(loaded.instance());
            assert_eq!(orig, back, "{tag}: answers differ for {q} under {s:?}");
        }
    }
    // Thawing for writes validates the persisted fired set and yields the
    // same (isomorphic) maintainable state.
    let thawed = loaded.into_maintained().unwrap();
    assert!(
        instance_isomorphic(m.instance(), thawed.instance()),
        "{tag}: thawed instance must be isomorphic"
    );
}

#[test]
fn seeded_fixtures_round_trip() {
    for seed in [1, 2, 3, 4, 5] {
        let (tgds, m) = seeded_fixture(seed);
        assert_round_trips(&format!("seed{seed}"), &tgds, &m);
    }
}

/// Retraction leaves tombstones in the live instance (ids stay stable
/// until a compaction); a snapshot persists the live atoms only, in id
/// order, and loads back equal — same atoms, same order, same `dom()` —
/// with dense ids, its tries installed and the thawed state maintainable.
#[test]
fn tombstoned_instances_save_only_live_atoms() {
    let (tgds, mut m) = seeded_fixture(9);
    for i in 0..2 {
        m.insert([GroundAtom::named("Emp", &[&format!("tomb_x{i}")])]);
    }
    m.retract([GroundAtom::named("Emp", &["tomb_x0"])]);
    let live = m.instance();
    assert!(
        live.id_bound() > live.len(),
        "the fixture must hold tombstones"
    );
    let worksin = Predicate(Symbol::new("WorksIn"));
    live.dense_snapshot(&[(worksin, 2, &[1, 0])]);

    let path = temp_path("tombstones");
    save_snapshot(&path, &tgds, &m).unwrap();
    let loaded = load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let back = loaded.instance();
    assert_eq!(back, live);
    assert!(back.iter().eq(live.iter()), "atoms keep their order");
    assert_eq!(
        back.id_bound(),
        back.len(),
        "a loaded instance has no tombstones"
    );
    assert_eq!(back.dom(), live.dom());
    assert_eq!(loaded.dense_tries_installed, live.dense_stats().tries);
    let mut thawed = loaded.into_maintained().unwrap();
    thawed.retract([GroundAtom::named("Emp", &["tomb_x1"])]);
    m.retract([GroundAtom::named("Emp", &["tomb_x1"])]);
    assert!(instance_isomorphic(m.instance(), thawed.instance()));
}

/// A state that crossed both compaction thresholds (instance tombstones
/// and dead firings, each outnumbering the live ones at some point) saves,
/// loads, thaws and saves again to the same bytes: the encoder reads the
/// maintained state in place, so the thawed copy, whose ids and firing
/// log were rebuilt from the file, must encode exactly as the original.
#[test]
fn compacted_state_resaves_byte_identically_after_thaw() {
    let tgds = parse_tgds(
        "Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D). Dept(D) -> HasHead(D,H). \
         Emp(X), Mgr(X) -> Boss(X). Boss(X) -> Emp(X)",
    )
    .unwrap();
    let emps: Vec<GroundAtom> = (0..6)
        .map(|i| GroundAtom::named("Emp", &[&format!("cmp_e{i}")]))
        .collect();
    let mut m = ChaseRunner::new(&tgds).maintain(&gtgd::data::Instance::from_atoms(emps.clone()));
    m.insert([GroundAtom::named("Mgr", &["cmp_e0"])]);
    let (mut instance_compactions, mut index_compactions) = (0, 0);
    for round in 0..4 {
        for (i, e) in emps.iter().enumerate().skip(1) {
            let (bound, logged) = (m.instance().id_bound(), m.recorded_firings());
            m.retract([e.clone()]);
            instance_compactions += usize::from(m.instance().id_bound() < bound);
            index_compactions += usize::from(m.recorded_firings() < logged);
            if (i + round) % 2 == 0 {
                m.insert([e.clone()]);
            }
        }
        for e in &emps[1..] {
            m.insert([e.clone()]);
        }
    }
    m.retract([emps[3].clone(), GroundAtom::named("Emp", &["cmp_e0"])]);
    assert!(
        instance_compactions > 0 && index_compactions > 0,
        "{instance_compactions} instance and {index_compactions} index compactions"
    );
    let worksin = Predicate(Symbol::new("WorksIn"));
    m.instance().dense_snapshot(&[(worksin, 2, &[1, 0])]);

    let (first, second) = (temp_path("compacted-1"), temp_path("compacted-2"));
    save_snapshot(&first, &tgds, &m).unwrap();
    let loaded = load_snapshot(&first).unwrap();
    let thawed = loaded.into_maintained().unwrap();
    save_snapshot(&second, &tgds, &thawed).unwrap();
    let (a, b) = (
        std::fs::read(&first).unwrap(),
        std::fs::read(&second).unwrap(),
    );
    std::fs::remove_file(&first).ok();
    std::fs::remove_file(&second).ok();
    assert!(a == b, "the re-saved thawed state differs");
}

#[test]
fn post_remap_dense_state_round_trips() {
    // Force an order-preserving dictionary remap: intern a symbol *early*
    // (low id), build the dense dictionary without it, then insert a fact
    // mentioning it — the fresh dict entry sorts before existing ones.
    let early = Value::named("remap_aa_early");
    let tgds = parse_tgds("Edge(X,Y) -> Node(X), Node(Y)").unwrap();
    let mut m = ChaseRunner::new(&tgds)
        .budget(ChaseBudget::atoms(100_000))
        .maintain(&gtgd::data::Instance::from_atoms([GroundAtom::named(
            "Edge",
            &["remap_zz1", "remap_zz2"],
        )]));
    let edge = Predicate(Symbol::new("Edge"));
    m.instance().dense_snapshot(&[(edge, 2, &[0, 1])]);
    assert_eq!(m.instance().dense_stats().remaps, 0);
    m.insert([GroundAtom::new(
        edge,
        vec![early, Value::named("remap_zz3")],
    )]);
    m.instance().dense_snapshot(&[(edge, 2, &[0, 1])]);
    let stats = m.instance().dense_stats();
    assert!(stats.remaps >= 1, "fixture must actually remap");

    let path = temp_path("remap");
    save_snapshot(&path, &tgds, &m).unwrap();
    let loaded = load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();
    // The remapped dense state is still strictly ascending, so it
    // installs, counters included.
    assert!(loaded.dense_tables_installed >= 1);
    assert_eq!(loaded.dense_tries_installed, 1);
    assert_eq!(loaded.instance().dense_stats().remaps, stats.remaps);
    assert!(instance_isomorphic(m.instance(), loaded.instance()));
}

#[test]
fn damaged_files_fail_closed_with_precise_errors() {
    let (tgds, m) = seeded_fixture(99);
    let path = temp_path("damage");
    save_snapshot(&path, &tgds, &m).unwrap();
    let good = std::fs::read(&path).unwrap();

    // Truncated: cut the file mid-payload.
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    assert!(matches!(
        load_snapshot(&path),
        Err(SnapshotError::Truncated)
    ));

    // Corrupt: flip one payload byte; the checksum catches it.
    let mut corrupt = good.clone();
    let mid = 28 + (corrupt.len() - 28) / 2;
    corrupt[mid] ^= 0x40;
    std::fs::write(&path, &corrupt).unwrap();
    assert!(matches!(
        load_snapshot(&path),
        Err(SnapshotError::ChecksumMismatch)
    ));

    // Version bump: reported as unsupported, not as corruption.
    let mut bumped = good.clone();
    bumped[8] = bumped[8].wrapping_add(3);
    std::fs::write(&path, &bumped).unwrap();
    assert!(matches!(
        load_snapshot(&path),
        Err(SnapshotError::UnsupportedVersion(v)) if v == SNAPSHOT_VERSION + 3
    ));

    // A version-1 file (which carried a sorted-permutation section the
    // current format dropped) is refused with a described error.
    let mut v1 = good.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &v1).unwrap();
    let err = load_snapshot(&path).unwrap_err();
    assert!(
        matches!(err, SnapshotError::UnsupportedVersion(1)),
        "{err:?}"
    );
    assert_eq!(
        err.to_string(),
        format!("unsupported snapshot version 1 (expected {SNAPSHOT_VERSION})")
    );
    assert_eq!(SNAPSHOT_VERSION, 2);

    // Not a snapshot at all.
    std::fs::write(&path, b"mode open.\nfact Emp(ann).\n").unwrap();
    assert!(matches!(load_snapshot(&path), Err(SnapshotError::BadMagic)));

    // Missing file surfaces the io error.
    std::fs::remove_file(&path).ok();
    assert!(matches!(load_snapshot(&path), Err(SnapshotError::Io(_))));
}

/// A version-2 snapshot written by an earlier build and committed as a
/// golden file. Its rules are `GoldE(X,Y) -> GoldN(X)`,
/// `GoldM(X,Y) -> GoldM(Y)` and `GoldM(X) -> GoldW(X,Z)`. Before saving,
/// its writer warmed four tries, inserted `GoldM(gold_c,gold_d)`,
/// retracted `GoldE(gold_a,gold_b)` and `GoldM(gold_a,gold_b)`, and
/// warmed the tries again. So the file has nonempty dense table and trie
/// sections, and `GoldM` occurs at arity 1 and at arity 2.
const GOLDEN_V2: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_v2.gsnap"
);

#[test]
fn golden_v2_file_loads_installs_and_resaves_byte_identically() {
    let path = std::path::Path::new(GOLDEN_V2);
    let golden = std::fs::read(path).unwrap();
    let loaded = load_snapshot(path).unwrap();
    assert_eq!(loaded.instance().len(), 10);

    // Every persisted table and trie installs: the file holds four of
    // each (GoldE/2, GoldM/1, GoldM/2, GoldW/2).
    assert_eq!(
        (loaded.dense_tables_installed, loaded.dense_tries_installed),
        (4, 4)
    );
    let export = loaded.instance().export_dense();
    assert_eq!((export.tables.len(), export.tries.len()), (4, 4));

    // The installed tables are what encoding the loaded atoms afresh
    // gives: the on-disk row order is each relation's insertion order.
    let fresh = gtgd::data::Instance::from_atoms(loaded.instance().iter().cloned());
    for t in &export.tries {
        fresh.dense_snapshot(&[(t.predicate, t.arity as usize, &t.order)]);
    }
    let fresh_export = fresh.export_dense();
    let decode = |e: &gtgd::data::DenseExport| -> Vec<Vec<Vec<Value>>> {
        e.tables
            .iter()
            .map(|t| {
                t.cols
                    .iter()
                    .map(|c| c.iter().map(|&code| e.dict[code as usize]).collect())
                    .collect()
            })
            .collect()
    };
    assert_eq!(decode(&fresh_export), decode(&export));

    // Re-saving the thawed state reproduces the file byte for byte.
    let tgds = loaded.tgds.clone();
    let m = loaded.into_maintained().unwrap();
    let out = temp_path("golden");
    save_snapshot(&out, &tgds, &m).unwrap();
    let resaved = std::fs::read(&out).unwrap();
    std::fs::remove_file(&out).ok();
    assert!(resaved == golden, "re-saved golden file differs");
}
