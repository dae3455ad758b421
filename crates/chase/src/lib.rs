#![warn(missing_docs)]

//! Tuple-generating dependencies and the chase (Section 2 of the paper),
//! plus the guarded-specific machinery the paper's algorithms rely on:
//! Σ-types, the ground saturation `chase↓` (the paper's `complete`; one
//! implementation, [`ground_saturation`], run on a memoizing [`Saturator`])
//! and `type_{D,Σ}`; exact certain answers with no depth bound behind
//! Prop 3.3(3) ([`piece_saturation`]: the query compiles to piece rules that
//! the same saturator closes alongside Σ); guarded unraveling (Appendix
//! D.1); and finite universal models for terminating fragments (the
//! realization of finite witnesses we use in place of the paper's GNFO
//! construction — see DESIGN.md §3).
//!
//! Both chase variants, oblivious and restricted, run through one builder,
//! [`ChaseRunner`], and return one [`ChaseResult`]; [`chase`] and
//! [`restricted_chase`] are one-line calls of it.
//!
//! ```
//! use gtgd_chase::{chase, parse_tgds, ChaseBudget};
//! use gtgd_data::{GroundAtom, Instance};
//!
//! let sigma = parse_tgds("Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D)")?;
//! let db = Instance::from_atoms([GroundAtom::named("Emp", &["ann"])]);
//! let result = chase(&db, &sigma, &ChaseBudget::unbounded());
//! assert!(result.complete);
//! assert_eq!(result.instance.len(), 3); // Emp, WorksIn(ann, ⊥), Dept(⊥)
//! assert_eq!(result.max_level, 2);
//! # Ok::<(), gtgd_query::ParseError>(())
//! ```

pub mod acyclicity;
pub mod cert;
pub mod dl;
pub mod engine;
pub mod linearize;
pub mod maintain;
pub mod pieces;
pub(crate) mod plan;
pub mod restricted;
pub mod rewrite;
pub mod runner;
pub mod tgd;
pub mod types;
pub mod unravel;
pub mod witness;

pub use acyclicity::is_weakly_acyclic;
pub use cert::{certificates_to_json, Certificate, CertificateStore};
pub use dl::{
    abox_consistent, parse_dl_ontology, parse_tbox, tbox_to_tgds, try_tbox_to_tgds, Axiom, Concept,
    FragmentError, Role,
};
pub use engine::{chase, ChaseBudget, ChaseResult};
pub use linearize::{linearize, Linearization};
pub use maintain::{MaintainedInstance, MaintenanceReport};
pub use pieces::{piece_saturation, PieceSaturation};
pub use plan::Firing;
pub use restricted::restricted_chase;
pub use rewrite::linear_rewrite;
pub use runner::{ChaseRunner, ChaseVariant};
pub use tgd::{parse_tgd, parse_tgds, satisfies, satisfies_all, Tgd, TgdClass};
pub use types::{ground_saturation, type_of_atom, CanonType, Saturator};
pub use unravel::{guarded_unraveling, k_unraveling};
pub use witness::{finite_witness, WitnessError};
