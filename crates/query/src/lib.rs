#![warn(missing_docs)]

//! Conjunctive queries and unions of conjunctive queries (Section 2 of the
//! paper): representation, parsing, the homomorphism kernel
//! ([`CompiledQuery`] / [`KernelSearch`]) and its evaluation facade
//! ([`Engine`]), the bounded-treewidth algorithm of Prop 2.1, cores,
//! contractions, specializations, and classical containment.
//!
//! ```
//! use gtgd_query::{parse_cq, evaluate_cq, cq_semantic_treewidth};
//! use gtgd_data::{GroundAtom, Instance};
//!
//! let db = Instance::from_atoms([
//!     GroundAtom::named("E", &["a", "b"]),
//!     GroundAtom::named("E", &["b", "c"]),
//! ]);
//! let q = parse_cq("Q(X) :- E(X,Y), E(Y,Z)")?;
//! assert_eq!(evaluate_cq(&q, &db).len(), 1); // only a reaches 2 steps
//! assert_eq!(cq_semantic_treewidth(&q), 1);
//! # Ok::<(), gtgd_query::ParseError>(())
//! ```

pub mod acyclic;
pub mod compile;
pub mod containment;
pub mod contract;
pub mod cq;
pub mod cq_core;
pub mod decomp_eval;
pub mod engine;
pub mod eval;
pub mod hom;
pub mod iso;
pub mod parser;
pub mod plan_cache;
pub mod semantic;
pub mod tw;
mod wcoj;

pub use acyclic::{
    check_answer_yannakakis, evaluate_yannakakis, gyo_join_tree, is_alpha_acyclic, JoinTree,
};
pub use compile::{CTerm, CompiledQuery, Delta, KernelSearch, Strategy, ValuationTable};
pub use containment::{cq_contained, cq_equivalent, ucq_contained, ucq_equivalent};
pub use contract::{
    contractions, injective_contraction, merge_vars, specializations, Specialization,
};
pub use cq::{Cq, QAtom, Term, Ucq, Var};
pub use cq_core::core_of;
pub use decomp_eval::check_answer_decomposed;
pub use engine::{AnswerWitness, Engine, PreparedQuery, QueryOutcome};
pub use eval::{check_answer, evaluate_cq, evaluate_ucq, holds_boolean, ucq_holds_boolean};
pub use hom::{instance_homomorphism, instance_homomorphism_fixing};
pub use iso::{cq_isomorphic, dedup_isomorphic, instance_isomorphic};
pub use parser::{parse_cq, parse_ucq, ParseError};
pub use plan_cache::{normalize_query_text, PlanCache};
pub use semantic::{
    cq_semantic_treewidth, is_cq_semantically_at_most, is_ucq_semantically_at_most,
    ucq_semantic_rewriting,
};
pub use tw::{cq_gaifman, cq_treewidth, existential_gaifman, ucq_treewidth};
