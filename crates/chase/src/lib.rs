#![warn(missing_docs)]

//! Tuple-generating dependencies and the chase (Section 2 of the paper),
//! plus the guarded-specific machinery the paper's algorithms rely on:
//! Σ-types and ground saturation (`chase↓`, `complete`, `type_{D,Σ}`),
//! the typed (level-bounded, type-closed) chase behind the FPT algorithm of
//! Prop 3.3(3), guarded unraveling (Appendix D.1), and finite universal
//! models for terminating fragments (the realization of finite witnesses we
//! use in place of the paper's GNFO construction — see DESIGN.md §3).
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
pub mod par_engine;
pub(crate) mod plan;
pub mod restricted;
pub mod rewrite;
pub mod runner;
pub mod tgd;
pub mod typed_chase;
pub mod types;
pub mod unravel;
pub mod witness;

pub use acyclicity::is_weakly_acyclic;
pub use cert::{certificates_to_json, Certificate, CertificateStore, FiringRecord};
pub use dl::{
    abox_consistent, parse_dl_ontology, parse_tbox, tbox_to_tgds, try_tbox_to_tgds, Axiom, Concept,
    FragmentError, Role,
};
pub use engine::{chase, ChaseBudget, ChaseResult};
pub use linearize::{linearize, Linearization};
pub use maintain::{FiringExport, MaintainExport, MaintainedInstance, MaintenanceReport};
pub use par_engine::par_ground_saturation;
pub use restricted::{restricted_chase, RestrictedChaseResult};
pub use rewrite::linear_rewrite;
pub use runner::{ChaseOutcome, ChaseRunner, ChaseVariant};
pub use tgd::{parse_tgd, parse_tgds, satisfies, satisfies_all, Tgd, TgdClass};
pub use typed_chase::{typed_chase, typed_chase_with, DepthPolicy, TypedChaseResult};
pub use types::{complete_ground, ground_saturation, type_of_atom, CanonType, Saturator};
pub use unravel::{guarded_unraveling, k_unraveling};
pub use witness::{finite_witness, WitnessError};
