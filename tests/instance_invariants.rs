//! Property testing of `Instance` index invariants under random
//! interleavings of `insert` / `extend_from` / `restrict_to` /
//! `map_values` (a seeded loop over [`Rng`]; the build is offline, so no
//! proptest):
//!
//! * every `(predicate, position, value)` index entry round-trips to the
//!   atoms it names, and every atom is reachable through each of its
//!   argument positions;
//! * `dom()` is exactly the set of argument values, deduplicated in
//!   first-occurrence order;
//! * each `(predicate, arity)` relation lists its atoms in insertion
//!   order — the row order the dense store encodes;
//! * the dense tries decode to a naive sort of the relation's rows under
//!   every requested column order and are maintained *incrementally* — a chase
//!   run never full-re-sorts a trie whose predicate only received insert
//!   deltas (asserted by the `full_builds` / `merge_extends` counter tests
//!   at the bottom).

mod common;

use common::trie_codes;
use gtgd::chase::{chase, parse_tgds, ChaseBudget};
use gtgd::data::{GroundAtom, Instance, Predicate, Rng, Value};
use std::collections::{HashMap, HashSet};

fn dom_pool() -> Vec<Value> {
    ["a", "b", "c", "d", "e", "f"]
        .iter()
        .map(|s| Value::named(s))
        .collect()
}

fn preds() -> Vec<(Predicate, usize)> {
    vec![
        (Predicate::new("U"), 1),
        (Predicate::new("E"), 2),
        (Predicate::new("T"), 3),
    ]
}

fn arb_atom(rng: &mut Rng) -> GroundAtom {
    let d = dom_pool();
    let ps = preds();
    let (p, k) = ps[rng.below(ps.len() as u64) as usize];
    let args: Vec<Value> = (0..k).map(|_| d[rng.below(6) as usize]).collect();
    GroundAtom::new(p, args)
}

/// Reference model: the deduplicated atom sequence in insertion order.
/// Every instance operation is mirrored here with the obvious O(n²)
/// implementation, and the real `Instance` must agree on everything.
fn model_insert(model: &mut Vec<GroundAtom>, a: GroundAtom) {
    if !model.contains(&a) {
        model.push(a);
    }
}

/// The model atoms at the given ranks.
fn resolve_model(model: &[GroundAtom], ranks: &[usize]) -> Vec<GroundAtom> {
    ranks.iter().map(|&i| model[i].clone()).collect()
}

/// The model's rows of `p` projected onto a column order and sorted: what
/// the dense trie for that order must decode to.
fn naive_rows(model: &[GroundAtom], p: Predicate, arity: usize, order: &[u16]) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = model
        .iter()
        .filter(|a| a.predicate == p && a.args.len() == arity)
        .map(|a| order.iter().map(|&j| a.args[j as usize]).collect())
        .collect();
    rows.sort();
    rows
}

/// The dense trie of `p` under `order`, its CSR expanded into rows and
/// decoded (empty when the relation is). Also checks that the trie's row
/// permutation is a bijection on row ids.
fn trie_rows(inst: &Instance, p: Predicate, arity: usize, order: &[u16]) -> Vec<Vec<Value>> {
    let (dict, tries) = inst.dense_snapshot(&[(p, arity, order)]);
    let Some(t) = &tries[0] else {
        return Vec::new();
    };
    let distinct: HashSet<u32> = t.perm().iter().copied().collect();
    assert_eq!(distinct.len(), t.rows(), "trie perm is a bijection");
    let rows = trie_codes(t, order.len()).into_iter();
    rows.map(|r| r.into_iter().map(|c| dict.decode(c)).collect())
        .collect()
}

/// The atoms behind a candidate list: what the list means, whatever ids
/// the instance gave them.
fn resolve(inst: &Instance, ids: &[usize]) -> Vec<GroundAtom> {
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascend");
    ids.iter().map(|&id| inst.atom(id).clone()).collect()
}

/// Whether the instance has no tombstone (fresh, or right after a
/// compaction): then ids are exactly the insertion ranks.
/// Retracts the atoms of `atoms` that are present, each once, through
/// [`Instance::id_of`] and [`Instance::retract_ids`]; returns how many
/// were present.
fn retract(inst: &mut Instance, atoms: &[GroundAtom]) -> usize {
    let mut ids: Vec<usize> = atoms.iter().filter_map(|a| inst.id_of(a)).collect();
    ids.sort_unstable();
    ids.dedup();
    inst.retract_ids(&ids);
    ids.len()
}

fn compacted(inst: &Instance) -> bool {
    inst.id_bound() == inst.len()
}

fn check_invariants(inst: &Instance, model: &[GroundAtom], ctx: &str) {
    // The live atoms are the model, exactly and in order; ids are stable
    // handles to them, and exactly the ranks when nothing is tombstoned.
    assert_eq!(inst.len(), model.len(), "len {ctx}");
    assert!(inst.iter().eq(model.iter()), "atoms in order {ctx}");
    assert!(inst.id_bound() <= 2 * inst.len(), "id bound {ctx}");
    for (i, a) in model.iter().enumerate() {
        assert!(inst.contains(a), "contains {ctx}");
        let id = inst.id_of(a).expect("live atoms have ids");
        assert_eq!(inst.atom(id), a, "atom {id} {ctx}");
        if compacted(inst) {
            assert_eq!(id, i, "compacted id {ctx}");
        }
    }

    // dom(): exact value set, first-occurrence order, no duplicates.
    let mut expected_dom: Vec<Value> = Vec::new();
    for a in model {
        for &v in &a.args {
            if !expected_dom.contains(&v) {
                expected_dom.push(v);
            }
        }
    }
    assert_eq!(inst.dom(), expected_dom.as_slice(), "dom {ctx}");
    for &v in &expected_dom {
        assert!(inst.dom_contains(v), "dom_contains {ctx}");
    }

    // (predicate, position, value) round-trip, both directions, and the
    // count accessor agrees with the id list.
    let mut expected_ids: HashMap<(Predicate, usize, Value), Vec<usize>> = HashMap::new();
    for (i, a) in model.iter().enumerate() {
        for (pos, &v) in a.args.iter().enumerate() {
            expected_ids
                .entry((a.predicate, pos, v))
                .or_default()
                .push(i);
        }
    }
    for ((p, pos, v), ids) in &expected_ids {
        let got = inst.atoms_matching(*p, *pos, *v);
        assert_eq!(resolve(inst, got), resolve_model(model, ids), "ids {ctx}");
        if compacted(inst) {
            assert_eq!(got, ids.as_slice(), "compacted ids {ctx}");
        }
    }
    // Absent keys report empty (a value in dom but never at this slot).
    let ghost = Value::named("never-inserted");
    for (p, k) in preds() {
        for pos in 0..k {
            if !expected_ids.contains_key(&(p, pos, ghost)) {
                assert!(inst.atoms_matching(p, pos, ghost).is_empty(), "ghost {ctx}");
            }
        }
    }

    // Each relation lists its atoms in insertion order, and the dense
    // tries agree with a naive sort under several column orders. After a
    // retraction the touched tries are rebuilt from the surviving rows
    // while the dictionary keeps stale entries (harmless: absent values
    // still probe to nothing).
    for (p, k) in preds() {
        let expected_ids: Vec<usize> = (0..model.len())
            .filter(|&i| model[i].predicate == p && model[i].args.len() == k)
            .collect();
        let got = inst.atoms_with_pred(p, k);
        assert_eq!(
            resolve(inst, got),
            resolve_model(model, &expected_ids),
            "relation rows {ctx}"
        );
        if compacted(inst) {
            assert_eq!(
                got,
                expected_ids.as_slice(),
                "compacted relation rows {ctx}"
            );
        }
        let forward: Vec<u16> = (0..k as u16).collect();
        let reverse: Vec<u16> = (0..k as u16).rev().collect();
        for order in [forward, reverse] {
            assert_eq!(
                trie_rows(inst, p, k, &order),
                naive_rows(model, p, k, &order),
                "trie {order:?} {ctx}"
            );
        }
    }
}

#[test]
fn instance_invariants_under_random_interleavings() {
    let mut rng = Rng::seed(0xbeef_f00d);
    let d = dom_pool();
    for round in 0..24u32 {
        let mut inst = Instance::new();
        let mut model: Vec<GroundAtom> = Vec::new();
        let n_ops = 6 + rng.below(14);
        for op in 0..n_ops {
            let ctx = format!("round {round} op {op}");
            match rng.below(10) {
                // insert: the common case, weighted accordingly.
                0..=5 => {
                    let a = arb_atom(&mut rng);
                    let expected_new = !model.contains(&a);
                    assert_eq!(inst.insert(a.clone()), expected_new, "insert {ctx}");
                    model_insert(&mut model, a);
                }
                // extend_from a small random instance.
                6 | 7 => {
                    let mut other = Instance::new();
                    for _ in 0..rng.below(6) {
                        other.insert(arb_atom(&mut rng));
                    }
                    inst.extend_from(&other);
                    for a in other.iter() {
                        model_insert(&mut model, a.clone());
                    }
                }
                // restrict_to a random keep-set of values.
                8 => {
                    let keep: HashSet<Value> =
                        d.iter().copied().filter(|_| rng.chance(0.6)).collect();
                    inst = inst.restrict_to(&keep);
                    model.retain(|a| a.args.iter().all(|v| keep.contains(v)));
                }
                // map_values: collapse one random value onto another.
                _ => {
                    let from = d[rng.below(6) as usize];
                    let to = d[rng.below(6) as usize];
                    inst = inst.map_values(|v| if v == from { to } else { v });
                    let mapped: Vec<GroundAtom> = model
                        .iter()
                        .map(|a| {
                            GroundAtom::new(
                                a.predicate,
                                a.args
                                    .iter()
                                    .map(|&v| if v == from { to } else { v })
                                    .collect::<Vec<_>>(),
                            )
                        })
                        .collect();
                    model.clear();
                    for a in mapped {
                        model_insert(&mut model, a);
                    }
                }
            }
            check_invariants(&inst, &model, &ctx);
        }
    }
}

/// Random insert/retract interleavings: after every operation the whole
/// invariant battery must hold — index round-trip in both directions,
/// `dom()` exactness (a retraction that removes a value's last occurrence
/// must remove it from `dom()`), relation row order, and dense trie
/// agreement with a naive sort.
/// Batches mix present atoms, duplicates, and absent ghosts, and the
/// reported removal count must equal the distinct present victims.
#[test]
fn instance_invariants_under_insert_retract_interleavings() {
    let mut rng = Rng::seed(0xde1e_7e57);
    let mut compactions = 0;
    for round in 0..24u32 {
        let mut inst = Instance::new();
        let mut model: Vec<GroundAtom> = Vec::new();
        let n_ops = 8 + rng.below(14);
        for op in 0..n_ops {
            let ctx = format!("retract-round {round} op {op}");
            if model.is_empty() || rng.chance(0.55) {
                for _ in 0..rng.range(1, 4) {
                    let a = arb_atom(&mut rng);
                    inst.insert(a.clone());
                    model_insert(&mut model, a);
                }
            } else {
                let n = rng.range(1, 3.min(model.len()) + 1);
                let mut victims: Vec<GroundAtom> = (0..n)
                    .map(|_| model.remove(rng.range(0, model.len())))
                    .collect();
                let distinct = victims.len();
                if rng.chance(0.4) {
                    // A ghost never inserted: must not affect the count.
                    victims.push(GroundAtom::new(
                        Predicate::new("U"),
                        vec![Value::named("ghost-victim")],
                    ));
                }
                if rng.chance(0.3) {
                    // A duplicate victim: counted once.
                    victims.push(victims[0].clone());
                }
                let bound = inst.id_bound();
                assert_eq!(
                    retract(&mut inst, &victims),
                    distinct,
                    "removal count {ctx}"
                );
                if inst.id_bound() < bound {
                    compactions += 1;
                    assert!(compacted(&inst), "a compaction drops every tombstone {ctx}");
                } else {
                    assert_eq!(inst.id_bound(), bound, "retraction moves no id {ctx}");
                }
            }
            check_invariants(&inst, &model, &ctx);
        }
    }
    assert!(
        compactions > 0,
        "no script crossed the compaction threshold"
    );
}

/// Retracting every atom of a predicate and re-inserting fresh ones must
/// leave no stale trie: the emptied tries are dropped, the rebuilt ones
/// come back by a full sort (not a merge onto a stale trie) and agree with
/// a naive sort, and `dom()` forgets the values that left with the atoms.
#[test]
fn retract_all_then_reinsert_rebuilds_clean_indexes() {
    let d = dom_pool();
    let e = Predicate::new("E");
    let mut inst = Instance::new();
    for (x, y) in [(0, 1), (1, 2), (2, 0)] {
        inst.insert(GroundAtom::new(e, vec![d[x], d[y]]));
    }
    // Warm both column orders, then delete everything.
    inst.dense_snapshot(&[(e, 2, &[0, 1]), (e, 2, &[1, 0])]);
    let s = inst.dense_stats();
    assert_eq!((s.tries, s.full_builds, s.merge_extends), (2, 2, 0));
    let all: Vec<GroundAtom> = inst.iter().cloned().collect();
    assert_eq!(retract(&mut inst, &all), 3);
    assert_eq!(inst.len(), 0);
    assert!(inst.dom().is_empty(), "dom forgets retracted values");
    assert_eq!(inst.dense_stats().tries, 0, "emptied tries are dropped");

    let mut model = Vec::new();
    for (x, y) in [(3, 4), (4, 5)] {
        let a = GroundAtom::new(e, vec![d[x], d[y]]);
        inst.insert(a.clone());
        model_insert(&mut model, a);
    }
    check_invariants(&inst, &model, "post-reinsert");
    // Both orders were rebuilt from scratch: two more full builds, still
    // no merge.
    let s = inst.dense_stats();
    assert_eq!((s.tries, s.full_builds, s.merge_extends), (2, 4, 0));
}

/// Requesting the same trie twice without an intervening insert is a
/// cache hit: neither counter moves. An insert followed by a request is a
/// merge-extend, never a rebuild.
#[test]
fn sorted_index_maintenance_is_incremental() {
    let d = dom_pool();
    let e = Predicate::new("E");
    let mut inst = Instance::new();
    let mut model = Vec::new();
    for (x, y) in [(0, 1), (1, 2), (2, 0)] {
        let a = GroundAtom::new(e, vec![d[x], d[y]]);
        inst.insert(a.clone());
        model_insert(&mut model, a);
    }
    let counts = |inst: &Instance| {
        let s = inst.dense_stats();
        (s.full_builds, s.merge_extends)
    };

    assert_eq!(inst.dense_stats().tries, 0);
    assert_eq!(
        trie_rows(&inst, e, 2, &[0, 1]),
        naive_rows(&model, e, 2, &[0, 1])
    );
    assert_eq!(counts(&inst), (1, 0));

    // Cache hit: same trie, no growth.
    trie_rows(&inst, e, 2, &[0, 1]);
    assert_eq!(counts(&inst), (1, 0));

    // A second column order is a second trie (one more full build).
    trie_rows(&inst, e, 2, &[1, 0]);
    assert_eq!(inst.dense_stats().tries, 2);
    assert_eq!(counts(&inst), (2, 0));

    // Insert deltas + re-request: extended by merge, never re-sorted.
    for (x, y) in [(3, 4), (0, 3), (4, 1)] {
        let a = GroundAtom::new(e, vec![d[x], d[y]]);
        inst.insert(a.clone());
        model_insert(&mut model, a);
    }
    assert_eq!(
        trie_rows(&inst, e, 2, &[0, 1]),
        naive_rows(&model, e, 2, &[0, 1])
    );
    assert_eq!(counts(&inst), (2, 1), "delta must merge, not rebuild");
}

/// The acceptance counter test: a chase whose rounds keep inserting into a
/// predicate that the WCOJ executor scans. The executor's default (dense)
/// representation maintains the dictionary and tries incrementally: over
/// the whole run the dictionary encodes each distinct value exactly once
/// (every further sighting is a hit) and — because this workload's domain
/// is fixed from round 0 — never remaps a code.
#[test]
fn chase_extends_wcoj_indexes_incrementally() {
    // Transitive closure grows E every round; the cyclic triangle body
    // routes through the WCOJ executor, whose dense tries over E must be
    // extended as E grows.
    let tgds = parse_tgds(
        "E(X,Y), E(Y,Z) -> E(X,Z). \
         E(X,Y), E(Y,Z), E(Z,X) -> Tri(X,Y,Z)",
    )
    .unwrap();
    let d = dom_pool();
    let e = Predicate::new("E");
    let mut db = Instance::new();
    for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] {
        db.insert(GroundAtom::new(e, vec![d[x], d[y]]));
    }
    let result = chase(&db, &tgds, &ChaseBudget::unbounded());
    assert!(result.complete, "the full-TGD chase reaches a fixpoint");
    assert!(
        !result
            .instance
            .atoms_with_pred(Predicate::new("Tri"), 3)
            .is_empty(),
        "the 5-cycle closure contains triangles"
    );
    let stats = result.instance.dense_stats();
    assert!(stats.tries > 0, "the WCOJ path built dense tries");
    assert_eq!(
        stats.dict_size, 5,
        "the dictionary holds exactly the five cycle vertices"
    );
    assert_eq!(
        stats.dict_misses, stats.dict_size,
        "each distinct value is encoded exactly once over the whole chase"
    );
    assert!(
        stats.dict_hits > 0,
        "later rounds re-encode known values as dictionary hits"
    );
    assert_eq!(
        stats.remaps, 0,
        "a fixed-domain chase never disturbs existing codes"
    );
}

/// Dictionary growth that introduces a value sorting *before* existing
/// entries must remap — and the remap is invisible to prior snapshots:
/// an old `(Dict, DenseTrie)` pair keeps decoding consistently
/// (copy-on-write), while the new pair is order-preserving over the grown
/// value set.
#[test]
fn dense_dictionary_remap_keeps_snapshots_consistent() {
    let e = Predicate::new("E");
    let mut inst = Instance::new();
    inst.insert(GroundAtom::named("E", &["m", "x"]));
    let order: [u16; 2] = [0, 1];
    let reqs: [(Predicate, usize, &[u16]); 1] = [(e, 2, &order)];
    let (dict1, tries1) = inst.dense_snapshot(&reqs);
    let t1 = tries1[0].clone().expect("nonempty relation has a trie");
    assert_eq!(inst.dense_stats().remaps, 0);
    assert_eq!(dict1.decode(trie_codes(&t1, 2)[0][0]), Value::named("m"));
    assert_eq!(dict1.decode(trie_codes(&t1, 2)[0][1]), Value::named("x"));

    // "a" sorts before every existing entry: growth must remap, not append.
    inst.insert(GroundAtom::named("E", &["a", "m"]));
    let (dict2, tries2) = inst.dense_snapshot(&reqs);
    let t2 = tries2[0].clone().expect("nonempty relation has a trie");
    assert!(
        inst.dense_stats().remaps >= 1,
        "prepended value forces a remap"
    );

    // The new dictionary is order-preserving and round-trips every value.
    let vals = ["a", "m", "x"].map(Value::named);
    let codes = vals.map(|v| dict2.code(v).expect("value is encoded"));
    assert!(
        codes.windows(2).all(|w| w[0] < w[1]),
        "codes follow value order"
    );
    for v in vals {
        assert_eq!(dict2.decode(dict2.code(v).unwrap()), v);
    }
    // The new trie decodes to the sorted row set.
    let rows: Vec<(Value, Value)> = (trie_codes(&t2, 2).iter())
        .map(|r| (dict2.decode(r[0]), dict2.decode(r[1])))
        .collect();
    assert_eq!(
        rows,
        vec![
            (Value::named("a"), Value::named("m")),
            (Value::named("m"), Value::named("x")),
        ]
    );
    // The *old* snapshot still decodes with its own dictionary: the remap
    // copied rather than mutated what readers hold.
    assert_eq!(dict1.decode(trie_codes(&t1, 2)[0][0]), Value::named("m"));
    assert_eq!(dict1.decode(trie_codes(&t1, 2)[0][1]), Value::named("x"));
}

/// Labelled nulls sort after every named constant, so a chase that keeps
/// inventing nulls grows the dictionary by pure appends: codes of existing
/// values are never disturbed.
#[test]
fn chase_nulls_append_to_dense_dictionary_without_remaps() {
    let tgds = parse_tgds("E(X,Y), E(Y,Z), E(Z,X) -> E(X,W)").unwrap();
    let e = Predicate::new("E");
    let d = dom_pool();
    let mut db = Instance::new();
    for (x, y) in [(0, 1), (1, 2), (2, 0)] {
        db.insert(GroundAtom::new(e, vec![d[x], d[y]]));
    }
    let result = chase(&db, &tgds, &ChaseBudget::unbounded());
    assert!(result.complete);
    let stats = result.instance.dense_stats();
    assert!(stats.tries > 0, "the cyclic body ran the dense WCOJ path");
    assert!(
        stats.dict_size > 3,
        "invented nulls joined the dictionary (size {})",
        stats.dict_size
    );
    assert_eq!(stats.remaps, 0, "null growth is append-only");
}

/// Every read accessor of `inst` against the same accessor of `fresh`,
/// over a universe of predicates (with their arities), values and the
/// ghost value.
fn assert_same_accessors(
    inst: &Instance,
    fresh: &Instance,
    universe: &[(Predicate, usize)],
    values: &[Value],
    ctx: &str,
) {
    assert_eq!(inst.len(), fresh.len(), "len {ctx}");
    assert!(inst.iter().eq(fresh.iter()), "atoms {ctx}");
    // Ids may differ from the fresh build's until a compaction; what
    // every list names, read through `atom(id)`, may not.
    let exact = compacted(inst);
    if exact {
        assert_eq!(inst.tail(0), fresh.tail(0), "compacted slots {ctx}");
    }
    for a in fresh.iter() {
        assert!(inst.contains(a), "contains {ctx}");
    }
    assert_eq!(inst.dom(), fresh.dom(), "dom {ctx}");
    let ghost = Value::named("never-inserted");
    for v in values.iter().chain([&ghost]) {
        assert_eq!(
            inst.dom_contains(*v),
            fresh.dom_contains(*v),
            "dom_contains {ctx}"
        );
    }
    assert_eq!(inst.predicates(), fresh.predicates(), "predicates {ctx}");
    for &(p, arity) in universe {
        let (mine, theirs) = (
            inst.atoms_with_pred(p, arity),
            fresh.atoms_with_pred(p, arity),
        );
        assert_eq!(resolve(inst, mine), resolve(fresh, theirs), "by_pred {ctx}");
        if exact {
            assert_eq!(mine, theirs, "compacted by_pred {ctx}");
        }
        for pos in 0..arity {
            for v in values.iter().chain([&ghost]) {
                let (mine, theirs) = (
                    inst.atoms_matching(p, pos, *v),
                    fresh.atoms_matching(p, pos, *v),
                );
                let what = format!("ids ({p}, {pos}, {v}) {ctx}");
                assert_eq!(resolve(inst, mine), resolve(fresh, theirs), "{what}");
                if exact {
                    assert_eq!(mine, theirs, "compacted {what}");
                }
            }
        }
        if arity > 0 {
            let forward: Vec<u16> = (0..arity as u16).collect();
            let reverse: Vec<u16> = (0..arity as u16).rev().collect();
            for order in [forward, reverse] {
                assert_eq!(
                    trie_rows(inst, p, arity, &order),
                    trie_rows(fresh, p, arity, &order),
                    "trie {order:?} {ctx}"
                );
            }
        }
    }
}

/// In-place retraction against a fresh build over the survivors, on a few
/// hundred atoms per round. Every batch kills the first occurrence of some
/// value (so `dom()` must re-place it or drop it); some batches make the
/// smallest dead row id the *last* entry of a candidate list (the edge of
/// the "skip lists that end before the first dead row" test); some rounds
/// start from `from_unique_atoms`, whose row indexes are still unbuilt at
/// the first retraction. The universe also has a predicate at two arities
/// and a nullary one, so one predicate's relations shrink independently.
/// Odd rounds end on a majority batch, which crosses the compaction
/// threshold: ids must then equal the fresh build's exactly.
#[test]
fn in_place_retraction_matches_a_fresh_build() {
    let mut rng = Rng::seed(0x5e7a_c7ed);
    let values: Vec<Value> = (0..40).map(|i| Value::named(&format!("r{i}"))).collect();
    let universe = [
        (Predicate::new("U"), 1),
        (Predicate::new("E"), 2),
        (Predicate::new("T"), 3),
        (Predicate::new("M"), 1),
        (Predicate::new("M"), 2),
        (Predicate::new("Z"), 0),
    ];
    let mut compactions = 0;
    for round in 0..12u32 {
        let mut model: Vec<GroundAtom> = Vec::new();
        let target = rng.range(200, 400);
        while model.len() < target {
            let (p, arity) = universe[rng.range(0, universe.len())];
            // Skewed values: low ids recur, so candidate lists get long.
            let args: Vec<Value> = (0..arity)
                .map(|_| {
                    let hi = rng.range(1, values.len() + 1);
                    values[rng.range(0, hi)]
                })
                .collect();
            model_insert(&mut model, GroundAtom::new(p, args));
        }
        let unbuilt = round % 3 == 0;
        let mut inst = if unbuilt {
            Instance::from_unique_atoms(model.clone())
        } else {
            Instance::from_atoms(model.clone())
        };
        for batch in 0..8u32 {
            let ctx = format!("round {round} batch {batch}");
            if model.is_empty() {
                break;
            }
            if !(unbuilt && batch == 0) && rng.chance(0.5) {
                // Warm some tries, so their upkeep runs.
                inst.dense_snapshot(&[(Predicate::new("E"), 2, &[0, 1])]);
            }
            let mut doomed: Vec<usize> = Vec::new();
            // The floor every other dead id must respect; in some batches
            // it is the last entry of a candidate list.
            let floor = if rng.chance(0.4) {
                let a = &model[rng.range(0, model.len())];
                if a.args.is_empty() {
                    0
                } else {
                    let pos = rng.range(0, a.args.len());
                    let last = model
                        .iter()
                        .rposition(|b| {
                            b.predicate == a.predicate && b.args.get(pos) == Some(&a.args[pos])
                        })
                        .expect("a lies in its own list");
                    doomed.push(last);
                    last
                }
            } else {
                0
            };
            // A value's first occurrence, at or above the floor.
            let mut firsts: Vec<usize> = Vec::new();
            let mut seen: HashSet<Value> = HashSet::new();
            for (i, a) in model.iter().enumerate() {
                for &v in &a.args {
                    if seen.insert(v) && i >= floor {
                        firsts.push(i);
                    }
                }
            }
            if !firsts.is_empty() {
                doomed.push(firsts[rng.range(0, firsts.len())]);
            }
            for _ in 0..rng.range(0, 6) {
                doomed.push(rng.range(floor, model.len()));
            }
            if round % 2 == 1 && batch == 7 {
                doomed.extend((0..model.len()).filter(|_| rng.chance(0.7)));
            }
            doomed.sort_unstable();
            doomed.dedup();
            let mut victims: Vec<GroundAtom> = doomed.iter().map(|&i| model[i].clone()).collect();
            let present = victims.len();
            if rng.chance(0.3) {
                victims.push(victims[0].clone());
            }
            if rng.chance(0.3) {
                victims.push(GroundAtom::new(
                    Predicate::new("U"),
                    vec![Value::named("ghost")],
                ));
            }
            rng.shuffle(&mut victims);
            let bound = inst.id_bound();
            assert_eq!(retract(&mut inst, &victims), present, "removed {ctx}");
            if inst.id_bound() < bound {
                compactions += 1;
                assert!(compacted(&inst), "a compaction drops every tombstone {ctx}");
            } else {
                assert_eq!(inst.id_bound(), bound, "retraction moves no id {ctx}");
            }
            let mut i = 0;
            model.retain(|_| {
                i += 1;
                doomed.binary_search(&(i - 1)).is_err()
            });
            let fresh = Instance::from_atoms(model.clone());
            assert_same_accessors(&inst, &fresh, &universe, &values, &ctx);
        }
    }
    assert!(
        compactions >= 6,
        "only {compactions} majority batches compacted"
    );
}

/// Retraction moves no survivor: every live atom keeps its `id_of` (and
/// `atom(id)` still names it) across retractions until tombstones
/// outnumber live atoms. The retraction that tips the balance compacts,
/// and ids are then the insertion ranks of the survivors.
#[test]
fn survivors_keep_their_ids_until_compaction() {
    let mut rng = Rng::seed(0x57ab_1e1d);
    let atoms: Vec<GroundAtom> = (0..64)
        .map(|i| GroundAtom::named("E", &[&format!("v{}", i % 9), &format!("w{i}")]))
        .collect();
    let mut inst = Instance::from_atoms(atoms.clone());
    let mut live = atoms.clone();
    let mut compacted_once = false;
    while !live.is_empty() {
        let before: Vec<(GroundAtom, usize)> = live
            .iter()
            .map(|a| (a.clone(), inst.id_of(a).unwrap()))
            .collect();
        let bound = inst.id_bound();
        let victim = live.remove(rng.range(0, live.len()));
        assert_eq!(retract(&mut inst, std::slice::from_ref(&victim)), 1);
        assert_eq!(inst.id_of(&victim), None);
        if inst.id_bound() == bound {
            for (a, id) in before.iter().filter(|(a, _)| *a != victim) {
                assert_eq!(inst.id_of(a), Some(*id), "{a} moved");
                assert_eq!(inst.atom(*id), a);
            }
            assert!(
                inst.id_bound() - inst.len() <= inst.len(),
                "compaction overdue"
            );
        } else {
            compacted_once = true;
            assert!(compacted(&inst), "a compaction drops every tombstone");
            for (rank, a) in live.iter().enumerate() {
                assert_eq!(inst.id_of(a), Some(rank), "{a} after compaction");
            }
        }
        assert!(inst.iter().eq(live.iter()));
    }
    assert!(compacted_once);
    assert_eq!(
        inst.id_bound(),
        0,
        "retracting everything compacts to nothing"
    );
}
