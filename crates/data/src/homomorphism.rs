//! Instance-level homomorphisms.
//!
//! Per Section 2 of the paper, a homomorphism from instance `I` to instance
//! `J` is **any** function `h : dom(I) → dom(J)` with `R(h(t̄)) ∈ J` for every
//! `R(t̄) ∈ I` — constants are *not* required to map to themselves. Searching
//! for homomorphisms lives in `gtgd-query` (it is the same engine as CQ
//! evaluation); this module provides the valuation type and the checker.

use crate::instance::Instance;
use crate::value::Value;
use std::collections::HashMap;

/// A (partial) mapping of constants to constants.
pub type Valuation = HashMap<Value, Value>;

/// Checks that `h` is a homomorphism from `from` to `to`: it must be defined
/// on all of `dom(from)` and preserve every atom.
pub fn is_homomorphism(h: &Valuation, from: &Instance, to: &Instance) -> bool {
    for v in from.dom() {
        if !h.contains_key(&v) {
            return false;
        }
    }
    from.iter().all(|a| to.contains(&a.map(|v| h[&v])))
}

/// Composes two valuations: `(g ∘ h)(x) = g(h(x))`. Values outside `g`'s
/// domain pass through unchanged, matching the paper's habit of implicitly
/// extending homomorphisms by the identity.
pub fn compose(g: &Valuation, h: &Valuation) -> Valuation {
    h.iter()
        .map(|(&x, &hx)| (x, g.get(&hx).copied().unwrap_or(hx)))
        .collect()
}

/// The identity valuation on the domain of `i`.
pub fn identity_on(i: &Instance) -> Valuation {
    i.dom().into_iter().map(|v| (v, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::GroundAtom;

    fn v(s: &str) -> Value {
        Value::named(s)
    }

    #[test]
    fn identity_is_homomorphism() {
        let i = Instance::from_atoms([GroundAtom::named("R", &["a", "b"])]);
        let h = identity_on(&i);
        assert!(is_homomorphism(&h, &i, &i));
    }

    #[test]
    fn collapsing_hom_into_loop() {
        // R(a,b) maps into R(c,c) by a ↦ c, b ↦ c.
        let from = Instance::from_atoms([GroundAtom::named("R", &["a", "b"])]);
        let to = Instance::from_atoms([GroundAtom::named("R", &["c", "c"])]);
        let h: Valuation = [(v("a"), v("c")), (v("b"), v("c"))].into_iter().collect();
        assert!(is_homomorphism(&h, &from, &to));
        // But not the other way around: R(c,c) needs a reflexive image.
        let g: Valuation = [(v("c"), v("a"))].into_iter().collect();
        assert!(!is_homomorphism(&g, &to, &from));
    }

    #[test]
    fn partial_valuation_rejected() {
        let from = Instance::from_atoms([GroundAtom::named("R", &["a", "b"])]);
        let h: Valuation = [(v("a"), v("a"))].into_iter().collect();
        assert!(!is_homomorphism(&h, &from, &from));
    }

    #[test]
    fn composition() {
        let h: Valuation = [(v("x"), v("y"))].into_iter().collect();
        let g: Valuation = [(v("y"), v("z"))].into_iter().collect();
        let gh = compose(&g, &h);
        assert_eq!(gh[&v("x")], v("z"));
    }

    #[test]
    fn composition_passes_through_unmapped() {
        let h: Valuation = [(v("x"), v("w"))].into_iter().collect();
        let g: Valuation = Valuation::new();
        assert_eq!(compose(&g, &h)[&v("x")], v("w"));
    }
}
