#![warn(missing_docs)]

//! Relational data model for the guarded-TGD toolkit.
//!
//! Terminology follows Section 2 of the paper:
//!
//! * a [`Schema`] is a finite set of predicates with arities;
//! * an *instance* is a (possibly infinite, here: finitely materialized) set
//!   of atoms over constants; a *database* is a finite instance — both are
//!   represented by [`Instance`];
//! * constants are [`Value`]s: either named constants from the input or
//!   labelled nulls invented by the chase;
//! * homomorphisms between instances are arbitrary functions on domains that
//!   preserve atoms (the paper does **not** require constants to be fixed).
//!
//! ```
//! use gtgd_data::{GroundAtom, Instance};
//!
//! let db = Instance::from_atoms([
//!     GroundAtom::named("R", &["a", "b"]),
//!     GroundAtom::named("R", &["b", "c"]),
//! ]);
//! assert_eq!(db.len(), 2);
//! assert_eq!(db.dom().len(), 3);
//! let (gaifman, _) = db.gaifman();
//! assert_eq!(gaifman.edge_count(), 2);
//! ```

pub mod atom;
pub mod columnar;
pub mod dense;
pub mod homomorphism;
pub mod instance;
pub mod obs;
pub mod par;
pub mod rng;
pub mod schema;
pub mod symbols;
pub mod text;
pub mod value;

pub use atom::GroundAtom;
pub use columnar::PredColumns;
pub use dense::{DenseExport, DenseStats, DenseTableExport, DenseTrie, DenseTrieExport, Dict};
pub use homomorphism::{is_homomorphism, Valuation};
pub use instance::Instance;
pub use obs::RunReport;
pub use par::{default_workers, Pool};
pub use rng::Rng;
pub use schema::{Predicate, Schema};
pub use symbols::Symbol;
pub use text::{parse_fact, parse_facts, render_facts, FactParseError};
pub use value::Value;
