//! The chase facade: one builder in front of both chase variants.
//!
//! The crate has two chase entry points — the oblivious
//! [`crate::engine::chase`] and the [`crate::restricted::restricted_chase`]
//! — each with its own result type; both run the one round loop
//! (`ObliviousChase::run`). [`ChaseRunner`] unifies them: pick a
//! [`ChaseVariant`], a [`ChaseBudget`], and optionally tracing and
//! certification, then [`run`]. The legacy free functions delegate here,
//! so their behaviour (budget-stop exactness, null naming, level
//! bookkeeping) is the same through either door.
//!
//! ```
//! use gtgd_chase::{parse_tgds, ChaseBudget, ChaseRunner};
//! use gtgd_data::{GroundAtom, Instance};
//!
//! let tgds = parse_tgds("A(X) -> B(X). B(X) -> C(X).").unwrap();
//! let db = Instance::from_atoms([GroundAtom::named("A", &["a"])]);
//! let outcome = ChaseRunner::new(&tgds)
//!     .budget(ChaseBudget::unbounded())
//!     .run(&db);
//! assert!(outcome.complete);
//! assert_eq!(outcome.instance.len(), 3);
//! ```
//!
//! [`run`]: ChaseRunner::run

use crate::cert::FiringRecord;
use crate::engine::{ChaseBudget, ChaseResult, FiringObserver};
use crate::restricted::RestrictedChaseResult;
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

/// What a chase run produced. Field availability depends on the variant:
/// the oblivious chase has canonical levels, the restricted chase has a
/// fired-trigger count.
#[derive(Debug, Clone)]
pub struct ChaseOutcome {
    /// The materialized instance (includes the input database).
    pub instance: Instance,
    /// Whether a fixpoint was reached within budget.
    pub complete: bool,
    /// Per-atom chase levels (oblivious variant only).
    pub levels: Option<Vec<usize>>,
    /// The highest level materialized (oblivious variant only).
    pub max_level: Option<usize>,
    /// Triggers fired (restricted variant only; the oblivious chase
    /// reports firings through the [`obs`] counters instead).
    pub fired: Option<usize>,
    /// The run's probe report; `None` unless built with `.trace(true)`.
    pub report: Option<obs::RunReport>,
    /// The run's derivation provenance — every trigger firing, in firing
    /// order; `None` unless built with `.certify(true)`.
    pub firings: Option<Vec<FiringRecord>>,
}

impl ChaseOutcome {
    /// Converts to the legacy oblivious-chase result type. Panics on a
    /// restricted-variant outcome (no level structure).
    pub fn into_chase_result(self) -> ChaseResult {
        ChaseResult {
            instance: self.instance,
            levels: self.levels.expect("oblivious outcome has levels"),
            complete: self.complete,
            max_level: self.max_level.expect("oblivious outcome has max level"),
        }
    }

    /// Converts to the legacy restricted-chase result type. Panics on an
    /// oblivious-variant outcome (no fired count).
    pub fn into_restricted_result(self) -> RestrictedChaseResult {
        RestrictedChaseResult {
            instance: self.instance,
            complete: self.complete,
            fired: self.fired.expect("restricted outcome has a fired count"),
        }
    }
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

    /// Enables probe collection: the outcome's
    /// [`report`](ChaseOutcome::report) will carry chase rounds, trigger
    /// firings, nulls created, kernel work, index maintenance, and pool
    /// utilization for this run.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enables derivation-provenance capture: the outcome's
    /// [`firings`](ChaseOutcome::firings) will list every trigger firing
    /// ([`FiringRecord`]) in firing order, collected by this run alone, so
    /// concurrent certified runs neither mix nor wait on each other. This
    /// is the raw material for answer certificates (see the `cert`
    /// module).
    pub fn certify(mut self, on: bool) -> Self {
        self.certify = on;
        self
    }

    fn run_now(&self, db: &Instance, observer: &mut impl FiringObserver) -> ChaseOutcome {
        match self.variant {
            ChaseVariant::Oblivious => {
                let r = crate::engine::chase_impl(db, self.tgds, &self.budget, observer);
                ChaseOutcome {
                    instance: r.instance,
                    complete: r.complete,
                    levels: Some(r.levels),
                    max_level: Some(r.max_level),
                    fired: None,
                    report: None,
                    firings: None,
                }
            }
            ChaseVariant::Restricted => {
                let r =
                    crate::restricted::restricted_chase_impl(db, self.tgds, &self.budget, observer);
                ChaseOutcome {
                    instance: r.instance,
                    complete: r.complete,
                    levels: None,
                    max_level: None,
                    fired: Some(r.fired),
                    report: None,
                    firings: None,
                }
            }
        }
    }

    /// Runs the configured chase on `db`.
    pub fn run(&self, db: &Instance) -> ChaseOutcome {
        if self.certify {
            let mut firings: Vec<FiringRecord> = Vec::new();
            let mut outcome = self.run_traced(db, &mut firings);
            outcome.firings = Some(firings);
            outcome
        } else {
            self.run_traced(db, &mut ())
        }
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

    fn run_traced(&self, db: &Instance, observer: &mut impl FiringObserver) -> ChaseOutcome {
        if self.trace {
            let (mut outcome, report) = obs::trace_run(|| self.run_now(db, observer));
            outcome.report = Some(report);
            outcome
        } else {
            self.run_now(db, observer)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::chase;
    use crate::restricted::restricted_chase;
    use crate::tgd::parse_tgds;
    use gtgd_data::{GroundAtom, Value};

    fn db(atoms: &[(&str, &[&str])]) -> Instance {
        Instance::from_atoms(atoms.iter().map(|(p, args)| GroundAtom::named(p, args)))
    }

    #[test]
    fn oblivious_outcome_matches_free_function() {
        let tgds = parse_tgds("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let d = db(&[("E", &["a", "b"]), ("E", &["b", "c"])]);
        let legacy = chase(&d, &tgds, &ChaseBudget::unbounded());
        let outcome = ChaseRunner::new(&tgds).run(&d);
        assert_eq!(outcome.instance, legacy.instance);
        assert_eq!(outcome.levels.as_deref(), Some(legacy.levels.as_slice()));
        assert_eq!(outcome.max_level, Some(legacy.max_level));
        assert_eq!(outcome.complete, legacy.complete);
    }

    #[test]
    fn restricted_outcome_matches_free_function() {
        let tgds = parse_tgds("P(X) -> R(X,Y)").unwrap();
        let d = db(&[("P", &["a"]), ("R", &["a", "b"])]);
        let legacy = restricted_chase(&d, &tgds, &ChaseBudget::unbounded());
        let outcome = ChaseRunner::new(&tgds)
            .variant(ChaseVariant::Restricted)
            .run(&d);
        assert_eq!(outcome.instance, legacy.instance);
        assert_eq!(outcome.fired, Some(legacy.fired));
        assert!(outcome.levels.is_none());
    }

    #[test]
    fn budget_stop_behaviour_is_preserved() {
        let tgds = parse_tgds("P(X) -> Q(X,Y). Q(X,Y) -> P(Y)").unwrap();
        let d = db(&[("P", &["a"])]);
        let legacy = chase(&d, &tgds, &ChaseBudget::atoms(20));
        let outcome = ChaseRunner::new(&tgds)
            .budget(ChaseBudget::atoms(20))
            .run(&d);
        assert!(!outcome.complete);
        assert_eq!(outcome.instance.len(), legacy.instance.len());
    }

    #[test]
    fn traced_run_reports_chase_work() {
        let tgds = parse_tgds("A(X) -> B(X). B(X) -> C(X).").unwrap();
        let d = db(&[("A", &["a"])]);
        let outcome = ChaseRunner::new(&tgds).trace(true).run(&d);
        let report = outcome.report.expect("trace was requested");
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
        let outcome = ChaseRunner::new(&tgds).certify(true).run(&d);
        let firings = outcome.firings.expect("certify was requested");
        // A(a) ⇒ B(a) ⇒ R(a,⊥): two firings, in chase order.
        assert_eq!(firings.len(), 2);
        assert_eq!(firings[0].tgd, 0);
        assert_eq!(firings[1].tgd, 1);
        // Every recorded head atom is in the materialized instance.
        for f in &firings {
            for a in &f.atoms {
                assert!(outcome.instance.contains(a));
            }
        }
        // The second firing bound its existential to a fresh null.
        assert!(f_null(&firings[1].val));
        // Uncertified runs carry no firings.
        assert!(ChaseRunner::new(&tgds).run(&d).firings.is_none());
    }

    fn f_null(val: &[(u32, Value)]) -> bool {
        val.iter().any(|(_, v)| matches!(v, Value::Null(_)))
    }
}
