//! Snapshot round-trip properties (seeded, many instances): a maintained
//! fixpoint saved and loaded back must be isomorphic to the original,
//! answer prepared queries identically under both join strategies, and
//! build its dense tries on first demand, once, to the live instance's
//! tries. A thaw re-chases the base facts: complete states come back
//! isomorphic, capped ones as a sound prefix.
//! Damaged files must fail closed with the precise error for the damage,
//! and no mutated payload may make a load or a thaw panic.

use gtgd::chase::{parse_tgds, ChaseBudget, ChaseRunner, MaintainedInstance, Tgd};
use gtgd::data::{DenseStats, GroundAtom, Instance, Predicate, Rng, Symbol, Value};
use gtgd::query::{instance_isomorphic, parse_cq, Engine, Strategy};
use gtgd::storage::bytes::{fnv1a64x8, Writer};
use gtgd::storage::{
    load_snapshot, load_snapshot_bytes, save_snapshot, snapshot_bytes, Client, Server,
    SnapshotError, SNAPSHOT_VERSION,
};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
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
    // Thawing for writes re-chases the base facts to the same
    // (isomorphic) maintainable state.
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
/// loads and thaws to an isomorphic state. The thaw re-chases the base
/// facts, so its atom order and null names are its own; the same writes
/// on both sides then keep them isomorphic, step for step.
#[test]
fn compacted_state_thaws_isomorphic_and_maintains_in_lockstep() {
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

    let path = temp_path("compacted");
    save_snapshot(&path, &tgds, &m).unwrap();
    let loaded = load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut thawed = loaded.into_maintained().unwrap();
    assert!(thawed.complete());
    assert!(instance_isomorphic(m.instance(), thawed.instance()));
    let boss = GroundAtom::named("Mgr", &["cmp_e2"]);
    let writes = [
        (true, GroundAtom::named("Emp", &["cmp_e0"])),
        (true, boss.clone()),
        (false, emps[2].clone()),
        (true, emps[3].clone()),
        (false, boss),
        (false, emps[1].clone()),
        (true, GroundAtom::named("Emp", &["cmp_new"])),
    ];
    for (step, (insert, atom)) in writes.into_iter().enumerate() {
        for side in [&mut m, &mut thawed] {
            if insert {
                side.insert([atom.clone()]);
            } else {
                side.retract([atom.clone()]);
            }
        }
        assert!(
            instance_isomorphic(m.instance(), thawed.instance()),
            "step {step}: the thawed state left lockstep"
        );
    }
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

/// A hand-built version-2 snapshot: one symbol, no rules, no atoms, the
/// dense section as `dense` writes it, then a complete, uncapped, empty
/// maintain section, behind a header with the payload's checksum.
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
    sealed(2, &p.buf)
}

/// `payload` behind a header of `version` that carries its length and
/// checksum.
fn sealed(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = b"GTGDSNAP".to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64x8(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A hand-built version-3 snapshot of the one base fact `FenceP(n)`,
/// where `n` is the null labelled 7, under the null fence `fence`.
fn snapshot_fenced_at(fence: u64) -> Vec<u8> {
    let mut p = Writer::new();
    p.len(1);
    p.str("FenceP");
    p.u64(fence);
    p.len(0); // rules
    p.len(1); // atoms: predicate 0, arity 1, the null labelled 7
    p.u64(0);
    p.len(1);
    p.u8(1);
    p.u64(7);
    p.bool(true);
    p.u8(0); // no atom cap
    p.u64(1); // base bits: atom 0
    sealed(SNAPSHOT_VERSION, &p.buf)
}

/// The null fence is reserved process-wide, so a load checks it first: it
/// must be at least every persisted null label, or a later chase could
/// mint a label the instance already holds, and it must leave the
/// process room to mint.
#[test]
fn null_fences_must_fence_the_atoms_nulls() {
    let loaded = load_snapshot_bytes(&snapshot_fenced_at(7)).unwrap();
    assert_eq!(loaded.instance().len(), 1);
    for fence in [6, u64::MAX] {
        let err = load_snapshot_bytes(&snapshot_fenced_at(fence)).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Malformed(why) if why.contains("null fence")),
            "fence {fence}: {err:?}"
        );
    }
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
    assert_eq!(SNAPSHOT_VERSION, 3);

    // A version-2 file's section 5 (dense state) is read past, never
    // installed. A file from an earlier writer may hold one, and it must
    // load; counts that overrun the payload are malformed, even under a
    // valid checksum.
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

/// What the golden file re-saved to under the version-2 writer that
/// stopped writing dense state: the same symbols, rules, atoms and
/// firing records, and an empty section 5.
const GOLDEN_V2_RESAVED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_v2_resaved.gsnap"
);

/// A version-3 snapshot of a null-free fixpoint, written by `gtgd
/// snapshot` right after the chase of four facts under the full rules
/// `GvE(X,Y) -> GvT(X,Y)`, `GvT(X,Y), GvE(Y,Z) -> GvT(X,Z)`,
/// `GvT(X,Y), GvL(X) -> GvR(Y)` and `GvR(X) -> GvS(X,gv3_k)`. A thaw
/// re-chases its base facts to the same atoms in the same order, and
/// full rules mint no nulls, so it re-saves to the same bytes.
const GOLDEN_V3: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_v3.gsnap"
);

/// Both committed version-2 files still load (the dense state of the
/// first is read past, and neither builds any) and thaw to states
/// isomorphic to their 10 atoms. The thaw re-saves as version 3.
#[test]
fn golden_v2_files_load_and_thaw_isomorphically() {
    for path in [GOLDEN_V2, GOLDEN_V2_RESAVED] {
        let bytes = std::fs::read(path).unwrap();
        assert_eq!(bytes[8..12], 2u32.to_le_bytes(), "{path}");
        let loaded = load_snapshot_bytes(&bytes).unwrap();
        assert_eq!(loaded.instance().len(), 10, "{path}");
        assert_eq!(loaded.instance().dense_stats(), DenseStats::default());
        assert!(loaded.complete(), "{path}");
        let thawed = loaded.to_maintained().unwrap();
        assert!(thawed.complete(), "{path}");
        assert!(
            instance_isomorphic(loaded.instance(), thawed.instance()),
            "{path}: the thaw is not isomorphic to the file"
        );
        let resaved = snapshot_bytes(&loaded.tgds, &thawed);
        assert_eq!(resaved[8..12], SNAPSHOT_VERSION.to_le_bytes());
        let again = load_snapshot_bytes(&resaved).unwrap();
        assert!(instance_isomorphic(loaded.instance(), again.instance()));
    }
}

/// The byte-level pin on the writer: the committed version-3 file loads,
/// thaws and saves back to itself.
#[test]
fn golden_v3_file_resaves_byte_identically() {
    let pinned = std::fs::read(GOLDEN_V3).unwrap();
    assert_eq!(pinned[8..12], SNAPSHOT_VERSION.to_le_bytes());
    let loaded = load_snapshot(Path::new(GOLDEN_V3)).unwrap();
    assert!(loaded.complete());
    let tgds = loaded.tgds.clone();
    let thawed = loaded.into_maintained().unwrap();
    let path = temp_path("golden-v3");
    save_snapshot(&path, &tgds, &thawed).unwrap();
    let resaved = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(resaved == pinned, "the re-saved golden v3 file differs");
}

/// The rules of `examples/scripts/hr.gtgd`, whose chase is infinite: every
/// department's manager is an employee who works in a fresh department.
const HR_RULES: &str =
    "Emp(X) -> WorksIn(X, D). WorksIn(X, D) -> Dept(D). Dept(D) -> HasMgr(D, M), Emp(M)";

/// The null-free answers of `q` over `i`.
fn certain(q: &str, i: &Instance) -> BTreeSet<Vec<Value>> {
    (Engine::prepare(&parse_cq(q).unwrap())
        .answers(i)
        .into_iter())
    .filter(|row| row.iter().all(|v| v.is_named()))
    .collect()
}

/// A capped file thaws to a capped state: the re-chase stops within one
/// head of the file's size, and answers no more than a deeper chase of
/// the same facts. The thawed state keeps the file's cap, and a daemon
/// over the file, and over the checkpoint its first write leads to,
/// answers `exact: false`.
#[test]
fn capped_state_thaws_to_a_sound_prefix() {
    let tgds = parse_tgds(HR_RULES).unwrap();
    let base = Instance::from_atoms([
        GroundAtom::named("Emp", &["cap_ann"]),
        GroundAtom::named("Emp", &["cap_bob"]),
        GroundAtom::named("WorksIn", &["cap_ann", "cap_sales"]),
    ]);
    let m = ChaseRunner::new(&tgds)
        .budget(ChaseBudget::atoms(40))
        .maintain(&base);
    assert!(!m.complete());
    let path = temp_path("capped");
    save_snapshot(&path, &tgds, &m).unwrap();
    let loaded = load_snapshot(&path).unwrap();
    assert!(!loaded.complete());
    let saved = loaded.instance().len();
    let thawed = loaded.to_maintained().unwrap();
    assert!(!thawed.complete());
    assert_eq!(thawed.max_atoms(), Some(40));
    let widest_head = tgds.iter().map(|t| t.head.len()).max().unwrap();
    assert!(
        thawed.instance().len() <= saved + widest_head,
        "{} atoms thawed from {saved}",
        thawed.instance().len()
    );
    let deeper = ChaseRunner::new(&tgds)
        .budget(ChaseBudget::atoms(10 * saved))
        .run(&base)
        .instance;
    for q in [
        "Q(X) :- Emp(X)",
        "Q(D) :- Dept(D)",
        "Q(X) :- WorksIn(X, D), HasMgr(D, M)",
        "Q(X, D) :- WorksIn(X, D)",
    ] {
        let got = certain(q, thawed.instance());
        assert!(got.is_subset(&certain(q, &deeper)), "{q}: {got:?}");
        assert!(certain(q, loaded.instance()).is_subset(&certain(q, &deeper)));
    }

    let exact = |c: &mut Client| {
        c.request(&[("op", "query"), ("q", "Q(X) :- Emp(X)")])
            .unwrap()["exact"]
            .clone()
    };
    for write in [true, false] {
        let server = Server::start(path.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(exact(&mut c), "false");
        if write {
            c.insert("Emp(cap_carol)").unwrap();
            assert_eq!(exact(&mut c), "false");
        }
        c.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
    std::fs::remove_file(&path).ok();
}

/// The base bits of version-3 snapshot `bytes` over `natoms` atoms: the
/// byte offset of the first word, which closes the payload.
fn base_bits_at(bytes: &[u8], natoms: usize) -> usize {
    bytes.len() - 8 * natoms.div_ceil(64)
}

/// Re-seals a hand-edited snapshot: the header checksum over its payload.
fn reseal(bytes: &mut [u8]) {
    let sum = fnv1a64x8(&bytes[28..]);
    bytes[20..28].copy_from_slice(&sum.to_le_bytes());
}

/// A complete file whose base bits lost a fact still loads, since its
/// bytes are well formed, but its thaw fails closed: the base facts no
/// longer chase to the complete fixpoint the file claims.
#[test]
fn complete_file_missing_a_base_fact_fails_closed_at_thaw() {
    let (tgds, m) = seeded_fixture(7);
    let mut bytes = snapshot_bytes(&tgds, &m);
    assert!(load_snapshot_bytes(&bytes).unwrap().to_maintained().is_ok());
    let at = base_bits_at(&bytes, m.instance().len());
    let word = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    assert_ne!(word, 0, "the first atoms include a base fact");
    bytes[at..at + 8].copy_from_slice(&(word & (word - 1)).to_le_bytes());
    reseal(&mut bytes);
    let loaded = load_snapshot_bytes(&bytes).unwrap();
    assert!(loaded.complete());
    let err = loaded.to_maintained().unwrap_err();
    assert!(
        matches!(&err, SnapshotError::Malformed(why) if why.contains("complete chase")),
        "{err:?}"
    );
}

/// Seeded payload mutations, with the checksum recomputed each time so
/// the decoder, not the checksum, meets them: single-byte flips, and
/// eight-byte runs overwritten with counts that overrun the payload.
/// Neither a load nor a thaw may panic: each returns a value or a
/// described error.
#[test]
fn seeded_payload_mutations_never_panic() {
    let (tgds, m) = seeded_fixture(11);
    let files = [
        ("v3", snapshot_bytes(&tgds, &m)),
        ("v2", std::fs::read(GOLDEN_V2).unwrap()),
    ];
    let mut rng = Rng::seed(0x6d75_7461_7465);
    let (mut refused, mut thawed, mut tried) = (0, 0, 0);
    for (name, file) in &files {
        let payload = file.len() - 28;
        for i in 0..5000 {
            let mut bytes = file.clone();
            let at = 28 + rng.range(0, payload - 8);
            if rng.chance(0.5) {
                bytes[at] ^= rng.range(1, 256) as u8;
            } else {
                let counts = [u64::MAX, 1 << 40, payload as u64, rng.below(64)];
                let count = counts[rng.range(0, counts.len())];
                bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
            }
            reseal(&mut bytes);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                load_snapshot_bytes(&bytes).map(|l| l.to_maintained().map(|_| ()))
            }));
            match outcome {
                Err(_) => panic!("{name} mutation {i} at byte {at} panicked"),
                Ok(Err(e)) | Ok(Ok(Err(e))) => {
                    assert!(!e.to_string().is_empty());
                    refused += 1;
                }
                Ok(Ok(Ok(()))) => thawed += 1,
            }
            tried += 1;
        }
    }
    assert!(
        refused > 0 && thawed > 0,
        "{refused} refused, {thawed} thawed of {tried}"
    );
}
