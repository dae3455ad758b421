//! Parallel ground saturation on the std-only worker pool.
//!
//! [`par_ground_saturation`] computes `chase↓(D, Σ)` with the closure
//! work of a Kleene round distributed across workers, each owning its own
//! memoizing [`Saturator`]. The output contains only named constants, so
//! it is *equal* (as a set) to the sequential
//! [`crate::types::ground_saturation`]. On top of the thread-level
//! parallelism the round itself is restructured: (1) bag restrictions are
//! assembled from a value → atom index built once per round instead of a
//! per-bag `restrict_to` scan of the whole instance; (2) only *dirty*
//! bags — those whose restriction grew since they were last closed — are
//! reconsidered; (3) dirty bags are canonicalized first and grouped by
//! [`CanonType`], so the expensive closure computation runs once per
//! *type* and every same-type bag just decodes the canonical closure
//! through its own constant ordering (the caller-side analogue of the
//! saturator's stable-key fast path, but it also covers keys on recursive
//! type cycles, which the saturator must otherwise recompute every call).
//! These changes make the parallel path much faster even at one worker.

use crate::tgd::Tgd;
use crate::types::{canonicalize, decode, CanonType, Saturator, TAtom};
use gtgd_data::{obs, Instance, Pool, Value};
use std::collections::{BTreeSet, HashMap, HashSet};

/// `chase↓(D, Σ)` with closure work distributed over `workers` worker
/// threads (one memoizing [`Saturator`] each), dirty-bag tracking, and
/// one closure computation per canonical bag type per round. Returns the
/// same instance (as a set) as [`crate::types::ground_saturation`].
pub fn par_ground_saturation(db: &Instance, tgds: &[Tgd], workers: usize) -> Instance {
    let _span = obs::span("chase.saturation");
    let pool = Pool::with_workers(workers);
    let mut saturators: Vec<Saturator> =
        (0..pool.workers()).map(|_| Saturator::new(tgds)).collect();
    let mut ground = db.clone();
    // Atom count of each bag's restriction when it was last closed. The
    // instance only grows, so a count match means the restriction is
    // unchanged and the bag's last closure is still exact.
    let mut closed_sizes: HashMap<Vec<Value>, usize> = HashMap::new();
    // When any worker's memo grew, previously-closed bags may have been
    // under-approximated (recursive type cycles), so the next round must
    // re-close everything, matching the sequential Kleene iteration.
    let mut refine_all = true;
    loop {
        // Per-atom bags in first-appearance order (as in the sequential
        // version: every guarded set of D is dom(α) for some atom α).
        let mut seen_bags: HashSet<Vec<Value>> = HashSet::new();
        let mut bags: Vec<Vec<Value>> = Vec::new();
        for a in ground.iter() {
            let mut d = a.dom();
            d.sort_unstable();
            if seen_bags.insert(d.clone()) {
                bags.push(d);
            }
        }
        // Value → atom-id index, built once per round. Bag restrictions are
        // assembled from it instead of scanning the whole instance per bag.
        let mut atoms_of: HashMap<Value, Vec<usize>> = HashMap::new();
        for (i, a) in ground.iter().enumerate() {
            let mut vals = a.args.clone();
            vals.sort_unstable();
            vals.dedup();
            for v in vals {
                atoms_of.entry(v).or_default().push(i);
            }
        }
        let mut work: Vec<(Vec<Value>, Instance)> = Vec::new();
        for consts in bags {
            let keep: HashSet<Value> = consts.iter().copied().collect();
            let mut ids: Vec<usize> = Vec::new();
            let mut seen: HashSet<usize> = HashSet::new();
            for v in &consts {
                if let Some(list) = atoms_of.get(v) {
                    for &i in list {
                        if seen.insert(i) && ground.atom(i).args.iter().all(|x| keep.contains(x)) {
                            ids.push(i);
                        }
                    }
                }
            }
            if refine_all || closed_sizes.get(&consts) != Some(&ids.len()) {
                closed_sizes.insert(consts.clone(), ids.len());
                ids.sort_unstable();
                let restriction = Instance::from_atoms(ids.iter().map(|&i| ground.atom(i).clone()));
                work.push((consts, restriction));
            }
        }
        if work.is_empty() {
            // Every bag was closed against its current restriction with no
            // memo growth since: fixpoint.
            return ground;
        }
        // Canonicalize the dirty bags (parallel), then group them by type:
        // two bags of the same canonical type have, by guardedness, the same
        // closure up to the renaming their orderings realize, so only one
        // representative per type needs the (expensive) closure computation.
        let canons: Vec<(CanonType, Vec<Value>)> = pool
            .map_chunks(&work, |_, chunk| {
                chunk
                    .iter()
                    .map(|(consts, bag)| canonicalize(bag, consts))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        let mut type_index: HashMap<&CanonType, usize> = HashMap::new();
        let mut distinct: Vec<(CanonType, Vec<Value>)> = Vec::new();
        let mut bag_type: Vec<usize> = Vec::with_capacity(canons.len());
        for (key, perm) in &canons {
            let next = distinct.len();
            let idx = *type_index.entry(key).or_insert(next);
            if idx == next {
                distinct.push((key.clone(), perm.clone()));
            }
            bag_type.push(idx);
        }
        // Close each distinct type once, distributed over the per-worker
        // saturators; collect the closures in canonical coordinates.
        let closures: Vec<BTreeSet<TAtom>> = pool
            .map_with_state(&distinct, &mut saturators, |sat, _, chunk| {
                chunk
                    .iter()
                    .map(|(key, perm)| {
                        sat.close_canonical(key, perm);
                        sat.encoded_closure(key).expect("closed above").clone()
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        // Translate each bag's type closure through the bag's own ordering
        // and merge. All atoms are over the bag's constants, hence ground.
        let mut added = false;
        for (ti, (_, perm)) in bag_type.iter().zip(&canons) {
            let bag_closure = decode(&closures[*ti], perm);
            for a in bag_closure.iter() {
                added |= ground.insert(a.clone());
            }
        }
        let mut memo_changed = false;
        for s in &mut saturators {
            memo_changed |= s.take_changed();
        }
        refine_all = memo_changed;
        if !added && !memo_changed {
            return ground;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tgd::parse_tgds;
    use crate::types::ground_saturation;
    use gtgd_data::GroundAtom;

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    #[test]
    fn par_saturation_equals_sequential() {
        let tgds = parse_tgds(
            "Emp(X) -> WorksIn(X,D), Dept(D). \
             WorksIn(X,D), Dept(D) -> Super(D,X). \
             Super(D,X) -> Emp(X)",
        )
        .unwrap();
        let d = db(&[("Emp", &["a"]), ("Emp", &["b"]), ("WorksIn", &["a", "d0"])]);
        let seq = ground_saturation(&d, &tgds);
        for w in [1, 2, 4] {
            assert_eq!(par_ground_saturation(&d, &tgds, w), seq, "workers {w}");
        }
    }

    #[test]
    fn par_saturation_recursive_types() {
        // A recursive linear TGD set whose closure cycles through types.
        let tgds = parse_tgds("A(X) -> R(X,Y), B(Y). B(X) -> R(X,Y), A(Y). R(X,Y), R(Y,X) -> S(X)")
            .unwrap();
        let d = db(&[("A", &["a"]), ("R", &["a", "b"]), ("R", &["b", "a"])]);
        let seq = ground_saturation(&d, &tgds);
        for w in [1, 2, 4] {
            assert_eq!(par_ground_saturation(&d, &tgds, w), seq, "workers {w}");
        }
    }
}
