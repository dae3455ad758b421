#![warn(missing_docs)]

//! Persistence and serving for the guarded-TGD toolkit: a versioned,
//! checksummed binary snapshot of a maintained chase fixpoint
//! ([`snapshot`]), an fsynced commit log of the writes since the last
//! snapshot ([`log`]), and a long-lived daemon that loads one snapshot and
//! answers queries with zero chase, index-build, or plan-compilation work
//! on the hot path ([`serve`]).
//!
//! The division of labor with the rest of the workspace: `gtgd-data` and
//! `gtgd-chase` own the *state* (and validate persisted index sections at
//! install time); this crate owns the *bytes* and the *wire protocol*.
//! Everything is std-only, like the rest of the workspace.
//!
//! ```no_run
//! use gtgd_storage::{load_snapshot, save_snapshot};
//! use gtgd_chase::{parse_tgds, ChaseBudget, ChaseRunner};
//! use gtgd_data::{GroundAtom, Instance};
//!
//! let tgds = parse_tgds("Emp(X) -> WorksIn(X,D)")?;
//! let db = Instance::from_atoms([GroundAtom::named("Emp", &["ann"])]);
//! let m = ChaseRunner::new(&tgds).budget(ChaseBudget::atoms(1_000)).maintain(&db);
//! save_snapshot("org.gsnap".as_ref(), &tgds, &m).unwrap();
//! let back = load_snapshot("org.gsnap".as_ref()).unwrap();
//! assert_eq!(back.instance().len(), m.instance().len());
//! # Ok::<(), gtgd_query::ParseError>(())
//! ```

pub mod bytes;
pub mod log;
pub mod serve;
pub mod snapshot;

pub use serve::{Client, Server};
pub use snapshot::{
    load_snapshot, load_snapshot_bytes, save_snapshot, snapshot_bytes, LoadedSnapshot,
    SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
