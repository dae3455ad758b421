//! Diversification of databases (Appendix D.2): replacing constants in
//! atoms by fresh *isolated* constants, used in the OMQ lower-bound proof to
//! untangle a database before applying the Grohe construction
//! (Example 6.3 / D.9 is the canonical picture).

use gtgd_data::{GroundAtom, Instance, Valuation, Value};

/// A diversification of a database `D₀`: a database whose atoms are copies
/// of `D₀`-atoms with some constants replaced by fresh ones, together with
/// the `·↑` map sending fresh constants to the originals they replace.
#[derive(Debug, Clone)]
pub struct Diversification {
    /// The diversified database.
    pub instance: Instance,
    /// `·↑`: fresh constant → original constant (old constants map to
    /// themselves).
    pub up: Valuation,
}

impl Diversification {
    /// The trivial diversification (`D = D₀`).
    pub fn trivial(d0: &Instance) -> Diversification {
        Diversification {
            instance: d0.clone(),
            up: d0.dom().into_iter().map(|v| (v, v)).collect(),
        }
    }

    /// Whether every fresh constant is isolated (a structural invariant of
    /// diversifications: fresh constants occur in exactly one atom).
    pub fn fresh_constants_isolated(&self) -> bool {
        self.up
            .iter()
            .filter(|&(&c, &o)| c != o)
            .all(|(&c, _)| self.instance.is_isolated(c))
    }
}

/// All single-step refinements of one atom: for each occurrence of a
/// non-protected constant, the variant where that occurrence becomes a
/// fresh constant.
pub fn diversifications_of_atom(
    atom: &GroundAtom,
    protect: &[Value],
) -> Vec<(GroundAtom, Value, Value)> {
    let mut out = Vec::new();
    for (pos, &c) in atom.args.iter().enumerate() {
        if protect.contains(&c) {
            continue;
        }
        let fresh = Value::fresh_null();
        let mut args = atom.args.clone();
        args[pos] = fresh;
        out.push((GroundAtom::new(atom.predicate, args), fresh, c));
    }
    out
}

/// Greedily computes a ⪯-minimal diversification of `d0` (with constants of
/// `protect` — the paper's `ā₀` — never replaced) among those satisfying
/// `test`. Starting from `D₀` itself, each step replaces one constant
/// occurrence by a fresh isolated constant if `test` still accepts; this
/// terminates at a diversification where no further untangling is possible.
///
/// `test` receives the candidate diversified database (the caller wires in
/// `D⁺ |= Q`, attaching guarded unravelings as needed).
pub fn diversify_maximally(
    d0: &Instance,
    protect: &[Value],
    mut test: impl FnMut(&Instance) -> bool,
) -> Diversification {
    let mut current = Diversification::trivial(d0);
    assert!(test(&current.instance), "D₀ itself must pass the test");
    loop {
        let mut improved = false;
        let atoms: Vec<GroundAtom> = current.instance.iter().cloned().collect();
        // Never re-diversify constants that are already fresh — they are
        // isolated by construction, so splitting them again only renames.
        let mut skip: Vec<Value> = protect.to_vec();
        skip.extend(
            current
                .up
                .iter()
                .filter(|&(&c, &o)| c != o)
                .map(|(&c, _)| c),
        );
        'outer: for atom in &atoms {
            for (variant, fresh, orig) in diversifications_of_atom(atom, &skip) {
                // Replace `atom` by `variant`.
                let candidate: Instance = current
                    .instance
                    .iter()
                    .map(|a| {
                        if a == atom {
                            variant.clone()
                        } else {
                            a.clone()
                        }
                    })
                    .collect();
                if test(&candidate) {
                    let orig_up = *current.up.get(&orig).unwrap_or(&orig);
                    current.instance = candidate;
                    current.up.insert(fresh, orig_up);
                    improved = true;
                    break 'outer;
                }
            }
        }
        if !improved {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtgd_query::{holds_boolean, parse_cq};

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    #[test]
    fn example_d9_untangling() {
        // Example D.9 in miniature: a 2×2 grid encoded with ternary atoms
        // sharing a single tangle constant b. The query only needs the first
        // two positions, so diversification frees every third position.
        let d0 = db(&[
            ("Xp", &["a11", "a12", "b"]),
            ("Xp", &["a21", "a22", "b"]),
            ("Yp", &["a11", "a21", "b"]),
            ("Yp", &["a12", "a22", "b"]),
        ]);
        let q = parse_cq("Q() :- Xp(A,B,U1), Xp(C,D,U2), Yp(A,C,U3), Yp(B,D,U4)").unwrap();
        let result = diversify_maximally(&d0, &[], |cand| holds_boolean(&q, cand));
        assert!(result.fresh_constants_isolated());
        // b must have been freed from at least three of the four atoms
        // (the query never joins on the third position).
        let b = Value::named("b");
        let occurrences = result.instance.iter().filter(|a| a.mentions(b)).count();
        assert!(occurrences <= 1, "b still occurs {occurrences} times");
        assert!(holds_boolean(&q, &result.instance));
    }

    #[test]
    fn joins_are_preserved() {
        // The query joins on the shared constant; diversification must not
        // break it.
        let d0 = db(&[("E", &["a", "b"]), ("E", &["b", "c"])]);
        let q = parse_cq("Q() :- E(X,Y), E(Y,Z)").unwrap();
        let result = diversify_maximally(&d0, &[], |cand| holds_boolean(&q, cand));
        assert!(holds_boolean(&q, &result.instance));
        // The join constant b survives in both atoms; only the endpoints
        // may diversify (and they can, harmlessly, since the query pattern
        // is a path with free endpoints... but a and c occur once each, so
        // replacing them changes nothing structurally).
        let b = Value::named("b");
        assert_eq!(result.instance.iter().filter(|a| a.mentions(b)).count(), 2);
    }

    #[test]
    fn protected_constants_never_replaced() {
        let d0 = db(&[("P", &["a"]), ("R", &["a", "b"])]);
        let q = parse_cq("Q() :- P(X)").unwrap();
        let a = Value::named("a");
        let result = diversify_maximally(&d0, &[a], |cand| holds_boolean(&q, cand));
        // `a` still occurs in both atoms.
        assert_eq!(result.instance.iter().filter(|x| x.mentions(a)).count(), 2);
    }

    #[test]
    fn up_maps_back_to_originals() {
        let d0 = db(&[("R", &["a", "b"]), ("S", &["b", "c"])]);
        let q = parse_cq("Q() :- R(X,Y)").unwrap();
        let result = diversify_maximally(&d0, &[], |cand| holds_boolean(&q, cand));
        // Applying ·↑ recovers a database mapping onto D₀.
        let recovered = result
            .instance
            .map_values(|v| *result.up.get(&v).unwrap_or(&v));
        for atom in recovered.iter() {
            assert!(d0.contains(atom), "{atom} not in D0");
        }
    }
}
