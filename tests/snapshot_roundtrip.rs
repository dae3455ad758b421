//! Snapshot round-trip properties (seeded, many instances): a maintained
//! fixpoint saved and loaded back must be isomorphic to the original,
//! answer prepared queries identically under both join strategies, and
//! build its dense tries on first demand, once, to the live instance's
//! tries.
//! Damaged files must fail closed with the precise error for the damage.

use gtgd::chase::{parse_tgds, ChaseBudget, ChaseRunner, MaintainedInstance, Tgd};
use gtgd::data::{DenseStats, GroundAtom, Instance, Predicate, Rng, Symbol, Value};
use gtgd::query::{instance_isomorphic, parse_cq, Engine, Strategy};
use gtgd::storage::bytes::{fnv1a64x8, Writer};
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

/// The sorted rows of `p`'s dense trie under `order`, decoded to values.
fn decoded_trie(i: &Instance, p: Predicate, arity: usize, order: &[u16]) -> Vec<Vec<Value>> {
    let (dict, tries) = i.dense_snapshot(&[(p, arity, order)]);
    let trie = tries[0].as_ref().expect("the relation is nonempty");
    (0..trie.rows())
        .map(|r| {
            (0..order.len())
                .map(|l| dict.decode(trie.level(l)[r]))
                .collect()
        })
        .collect()
}

/// A loaded snapshot holds no dense state: its first demand of `order`
/// on `p` is exactly one full build (no merge extend) whose decoded levels
/// equal the live instance's trie, and a second demand is a cache hit.
/// Called before anything else queries `loaded`.
fn assert_first_demand_builds_once(
    tag: &str,
    live: &Instance,
    loaded: &Instance,
    p: Predicate,
    order: &[u16],
) {
    let arity = order.len();
    assert_eq!(
        loaded.dense_stats(),
        DenseStats::default(),
        "{tag}: a loaded snapshot has no dense state"
    );
    let rows = decoded_trie(loaded, p, arity, order);
    let built = loaded.dense_stats();
    assert_eq!(
        (built.tries, built.full_builds, built.merge_extends),
        (1, 1, 0),
        "{tag}: the first demand is one full build"
    );
    assert_eq!(
        rows,
        decoded_trie(live, p, arity, order),
        "{tag}: trie rows"
    );
    decoded_trie(loaded, p, arity, order);
    assert_eq!(
        loaded.dense_stats(),
        built,
        "{tag}: a second demand is a cache hit"
    );
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
    // Warm a dense trie on the live side; the snapshot stores none.
    let worksin = Predicate(Symbol::new("WorksIn"));
    m.instance().dense_snapshot(&[(worksin, 2, &[1, 0])]);

    let path = temp_path(tag);
    save_snapshot(&path, tgds, m).unwrap();
    let loaded = load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Checked first: the isomorphism check and the forced-WCOJ queries
    // below build tries of their own.
    assert_first_demand_builds_once(tag, m.instance(), loaded.instance(), worksin, &[1, 0]);

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
/// with dense ids, tries that build once on first demand, and the thawed
/// state maintainable.
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
    assert_first_demand_builds_once("tombstones", live, back, worksin, &[1, 0]);
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
    // The remapped trie rebuilds to the same rows. The remap counter is
    // not persisted: the loaded dictionary is built in one ascending
    // pass, so it never remaps.
    assert_first_demand_builds_once("remap", m.instance(), loaded.instance(), edge, &[0, 1]);
    assert_eq!(loaded.instance().dense_stats().remaps, 0);
    assert!(instance_isomorphic(m.instance(), loaded.instance()));
}

/// A hand-built snapshot: one symbol, no rules, no atoms, section 5 as
/// `dense` writes it, then a complete, uncapped, empty maintain section,
/// behind a header with the payload's checksum.
fn snapshot_with_section5(dense: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut p = Writer::new();
    p.len(1);
    p.str("Section5P");
    p.u64(0); // null fence
    p.len(0); // rules
    p.len(0); // atoms
    dense(&mut p);
    p.bool(true);
    p.u8(0); // no atom cap
    p.len(0); // base facts
    p.len(0); // firings
    let mut out = b"GTGDSNAP".to_vec();
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(p.buf.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64x8(&p.buf).to_le_bytes());
    out.extend_from_slice(&p.buf);
    out
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

    // Section 5 (dense state) is read past, never installed. A file
    // from an earlier writer may hold one, and it must load; counts that
    // overrun the payload are malformed, even under a valid checksum.
    let dense_ok = snapshot_with_section5(|w| {
        w.len(1); // dictionary: one named value
        w.u8(0);
        w.u64(0);
        w.len(1); // one table: predicate 0, arity 1, one column of one code
        w.u64(0);
        w.u16(1);
        w.len(1);
        w.len(1);
        w.u32(0);
        w.len(1); // one trie: order [0], permutation [0]
        w.u64(0);
        w.u16(1);
        w.len(1);
        w.u16(0);
        w.len(1);
        w.u32(0);
        for _ in 0..3 {
            w.u64(5); // counters
        }
    });
    std::fs::write(&path, &dense_ok).unwrap();
    let loaded = load_snapshot(&path).unwrap();
    assert_eq!(loaded.instance().dense_stats().tries, 0);
    type Section5 = fn(&mut Writer);
    let overruns: [(&str, Section5); 4] = [
        ("table count", |w| {
            w.len(0);
            w.u64(1 << 40);
        }),
        ("table column length", |w| {
            w.len(0);
            w.len(1);
            w.u64(0);
            w.u16(1);
            w.len(1);
            w.len(12); // fits as a count, not as 12 four-byte codes
        }),
        ("trie count", |w| {
            w.len(0);
            w.len(0);
            w.u64(u64::MAX);
        }),
        ("trie permutation length", |w| {
            w.len(0);
            w.len(0);
            w.len(1);
            w.u64(0);
            w.u16(1);
            w.len(1);
            w.u16(0);
            w.len(12);
        }),
    ];
    for (what, dense) in overruns {
        std::fs::write(&path, snapshot_with_section5(dense)).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Malformed(why) if why.contains("exceeds") || why.contains("overrun")),
            "{what}: {err:?}"
        );
    }

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

/// What the golden file re-saves to under the current writer: the same
/// symbols, rules, atoms and firing records, and an empty section 5.
const GOLDEN_V2_RESAVED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_v2_resaved.gsnap"
);

/// Thaws a loaded snapshot and returns the bytes it saves to.
fn thaw_and_resave(loaded: gtgd::storage::LoadedSnapshot) -> Vec<u8> {
    let tgds = loaded.tgds.clone();
    let m = loaded.into_maintained().unwrap();
    let out = temp_path("golden");
    save_snapshot(&out, &tgds, &m).unwrap();
    let bytes = std::fs::read(&out).unwrap();
    std::fs::remove_file(&out).ok();
    bytes
}

#[test]
fn golden_v2_file_loads_installs_and_resaves_byte_identically() {
    let loaded = load_snapshot(std::path::Path::new(GOLDEN_V2)).unwrap();
    assert_eq!(loaded.instance().len(), 10);
    // The file's dense tables and tries are read past: loading builds no
    // dense state at all.
    assert_eq!(loaded.instance().dense_stats(), DenseStats::default());

    // Re-saving the thawed state writes the committed re-save byte for
    // byte, and that file re-saves to itself: a byte-level pin on the
    // writer.
    let pinned = std::fs::read(GOLDEN_V2_RESAVED).unwrap();
    assert!(
        thaw_and_resave(loaded) == pinned,
        "re-saved golden file differs"
    );
    let again = load_snapshot(std::path::Path::new(GOLDEN_V2_RESAVED)).unwrap();
    assert_eq!(again.instance().len(), 10);
    assert!(
        thaw_and_resave(again) == pinned,
        "the pinned re-save does not re-save to itself"
    );
}
