//! The chase facade: one builder in front of both chase variants.
//!
//! [`ChaseRunner`] is the one door to a whole-database chase: pick a
//! [`ChaseVariant`], a [`ChaseBudget`], and optionally tracing and
//! certification, then [`run`]. Both variants run the one round loop
//! (`ObliviousChase::run`) and return the one [`ChaseResult`], with the
//! same budget-stop exactness, null naming and level bookkeeping. The
//! free functions [`crate::chase`] and [`crate::restricted_chase`] are
//! one-line calls of this builder.
//!
//! ```
//! use gtgd_chase::{parse_tgds, ChaseBudget, ChaseRunner};
//! use gtgd_data::{GroundAtom, Instance};
//!
//! let tgds = parse_tgds("A(X) -> B(X). B(X) -> C(X).").unwrap();
//! let db = Instance::from_atoms([GroundAtom::named("A", &["a"])]);
//! let result = ChaseRunner::new(&tgds)
//!     .budget(ChaseBudget::unbounded())
//!     .run(&db);
//! assert!(result.complete);
//! assert_eq!(result.instance.len(), 3);
//! assert_eq!((result.max_level, result.fired), (2, 2));
//! ```
//!
//! [`run`]: ChaseRunner::run

use crate::engine::{ChaseBudget, ChaseResult, Delta, ObliviousChase};
use crate::plan::Firing;
use crate::tgd::Tgd;
use gtgd_data::{obs, Instance};

/// Which chase semantics to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChaseVariant {
    /// The oblivious chase: every trigger fires exactly once, levels are
    /// canonical.
    #[default]
    Oblivious,
    /// The restricted (standard) chase: a trigger fires only if its head is
    /// not yet satisfied. Smaller results, order-dependent; run in
    /// breadth-first rounds, which makes the firing sequence fair.
    Restricted,
}

/// A configured chase run over a fixed TGD set. Built with
/// [`ChaseRunner::new`], executed with [`ChaseRunner::run`]; reusable
/// across databases.
#[derive(Debug, Clone, Copy)]
pub struct ChaseRunner<'a> {
    tgds: &'a [Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
    trace: bool,
    certify: bool,
}

impl<'a> ChaseRunner<'a> {
    /// A runner over `tgds` with defaults: oblivious variant, unbounded
    /// budget, no tracing, no certification.
    pub fn new(tgds: &'a [Tgd]) -> ChaseRunner<'a> {
        ChaseRunner {
            tgds,
            variant: ChaseVariant::default(),
            budget: ChaseBudget::unbounded(),
            trace: false,
            certify: false,
        }
    }

    /// Selects the chase semantics (default: [`ChaseVariant::Oblivious`]).
    pub fn variant(mut self, v: ChaseVariant) -> Self {
        self.variant = v;
        self
    }

    /// Sets the resource budget (default: unbounded — only safe for
    /// terminating chases).
    pub fn budget(mut self, b: ChaseBudget) -> Self {
        self.budget = b;
        self
    }

    /// Enables probe collection: the result's
    /// [`report`](ChaseResult::report) will carry chase rounds, trigger
    /// firings, nulls created, kernel work, index maintenance, and pool
    /// utilization for this run.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enables derivation-provenance capture: the result's
    /// [`firings`](ChaseResult::firings) will list every trigger firing
    /// ([`Firing`]) in firing order, the engine's own log collected by
    /// this run alone, so concurrent certified runs neither mix nor wait
    /// on each other. This is the raw material for answer certificates
    /// (see the `cert` module).
    pub fn certify(mut self, on: bool) -> Self {
        self.certify = on;
        self
    }

    fn run_now(&self, db: &Instance, log: Option<&mut Vec<Firing>>) -> ChaseResult {
        let _span = obs::span(match self.variant {
            ChaseVariant::Oblivious => "chase.oblivious",
            ChaseVariant::Restricted => "chase.restricted",
        });
        let mut state = ObliviousChase::new(self.tgds, db.clone(), self.variant);
        let mut levels = vec![0usize; db.id_bound()];
        let run = state.run(Delta::Since(0), &self.budget, Some(&mut levels), log);
        ChaseResult {
            instance: state.instance,
            levels,
            max_level: run.max_level,
            complete: run.complete,
            fired: run.fired,
            report: None,
            firings: None,
        }
    }

    /// Runs the configured chase on `db`.
    pub fn run(&self, db: &Instance) -> ChaseResult {
        let mut firings = self.certify.then(Vec::new);
        let mut result = if self.trace {
            let (mut result, report) = obs::trace_run(|| self.run_now(db, firings.as_mut()));
            result.report = Some(report);
            result
        } else {
            self.run_now(db, firings.as_mut())
        };
        result.firings = firings;
        result
    }

    /// Builds a [`crate::MaintainedInstance`]: chases `db` to its fixpoint
    /// once, then keeps the result live under
    /// [`insert`](crate::MaintainedInstance::insert) /
    /// [`retract`](crate::MaintainedInstance::retract) without re-chasing.
    /// Maintenance has oblivious semantics regardless of the configured
    /// variant (the restricted chase's fixpoint is order-dependent, so an
    /// incrementally maintained result could legitimately diverge from a
    /// re-chase — see the `maintain` module docs); the runner's budget is
    /// honored, except that level caps are rejected there.
    ///
    /// # Panics
    /// If the configured variant is [`ChaseVariant::Restricted`] or the
    /// budget has a level cap.
    pub fn maintain(&self, db: &Instance) -> crate::MaintainedInstance {
        assert_eq!(
            self.variant,
            ChaseVariant::Oblivious,
            "maintenance is oblivious-only: the restricted fixpoint is order-dependent"
        );
        crate::MaintainedInstance::new(db, self.tgds, self.budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tgd::parse_tgds;
    use gtgd_data::{GroundAtom, Value};

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    #[test]
    fn both_variants_fill_every_total() {
        // Oblivious: the closure of a → b → c adds E(a,c) at level 1.
        let tgds = parse_tgds("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let d = db(&[("E", &["a", "b"]), ("E", &["b", "c"])]);
        let r = ChaseRunner::new(&tgds).run(&d);
        assert!(r.complete);
        assert_eq!(r.levels, [0, 0, 1]);
        assert_eq!((r.max_level, r.fired), (1, 1));
        // Restricted: a level is the round that added the atom.
        let tgds = parse_tgds("A(X) -> B(X). B(X) -> C(X).").unwrap();
        let r = ChaseRunner::new(&tgds)
            .variant(ChaseVariant::Restricted)
            .run(&db(&[("A", &["a"])]));
        assert!(r.complete);
        assert_eq!(r.levels, [0, 1, 2]);
        assert_eq!((r.max_level, r.fired), (2, 2));
        // Restricted over a database that satisfies the rule: nothing
        // fires and the database stays at level 0.
        let tgds = parse_tgds("P(X) -> R(X,Y)").unwrap();
        let r = ChaseRunner::new(&tgds)
            .variant(ChaseVariant::Restricted)
            .run(&db(&[("P", &["a"]), ("R", &["a", "b"])]));
        assert_eq!(r.levels, [0, 0]);
        assert_eq!((r.max_level, r.fired), (0, 0));
    }

    #[test]
    fn atom_budget_stops_both_variants_at_the_cap() {
        // Single-atom heads: the run stops on exactly the capped count.
        let tgds = parse_tgds("P(X) -> Q(X,Y). Q(X,Y) -> P(Y)").unwrap();
        let d = db(&[("P", &["a"])]);
        for variant in [ChaseVariant::Oblivious, ChaseVariant::Restricted] {
            let r = ChaseRunner::new(&tgds)
                .variant(variant)
                .budget(ChaseBudget::atoms(20))
                .run(&d);
            assert!(!r.complete, "{variant:?}");
            assert_eq!(r.instance.len(), 20, "{variant:?}");
            assert_eq!(r.levels.len(), 20, "{variant:?}");
            assert_eq!(r.fired, 19, "{variant:?}");
        }
    }

    #[test]
    fn traced_run_reports_chase_work() {
        let tgds = parse_tgds("A(X) -> B(X). B(X) -> C(X).").unwrap();
        let d = db(&[("A", &["a"])]);
        let result = ChaseRunner::new(&tgds).trace(true).run(&d);
        let report = result.report.expect("trace was requested");
        assert!(report.counter(obs::Metric::ChaseRounds) >= 2);
        assert!(report.counter(obs::Metric::TriggerFirings) >= 2);
        assert!(report.spans.iter().any(|s| s.name == "chase.oblivious"));
        // Untraced runs carry no report.
        assert!(ChaseRunner::new(&tgds).run(&d).report.is_none());
    }

    #[test]
    fn certified_run_captures_every_firing() {
        let tgds = parse_tgds("A(X) -> B(X). B(X) -> R(X,Y).").unwrap();
        let d = db(&[("A", &["a"])]);
        let result = ChaseRunner::new(&tgds).certify(true).run(&d);
        let firings = result.firings.expect("certify was requested");
        // A(a) ⇒ B(a) ⇒ R(a,⊥): two firings, in chase order.
        assert_eq!(firings.len(), 2);
        assert_eq!(firings[0].tgd, 0);
        assert_eq!(firings[1].tgd, 1);
        // Every re-grounded head atom is in the materialized instance.
        let plans = crate::plan::TriggerPlan::compile_all(&tgds);
        let mut head = Vec::new();
        for f in &firings {
            plans[f.tgd].head_into(&f.key, &f.nulls, &mut head);
            for a in &head {
                assert!(result.instance.contains(a));
            }
        }
        // The first firing minted nothing, the second one fresh null.
        assert!(firings[0].nulls.is_empty());
        assert!(matches!(firings[1].nulls[..], [Value::Null(_)]));
        // Uncertified runs carry no firings.
        assert!(ChaseRunner::new(&tgds).run(&d).firings.is_none());
    }
}
