//! E18 — ingestion-at-scale benchmark (`BENCH_ingest.json`).
//!
//! Drives the LUBM-style generator through the full `Source` →
//! [`Program`] → chase → query → snapshot → maintenance pipeline at
//! scales from ~10³ to beyond 10⁶ base atoms, recording where the time
//! goes as the workload grows three orders of magnitude:
//!
//! * `ingest_ms` — generate + stream through the batching
//!   [`InstanceSink`] (`Instance::insert_batch`) into a program;
//! * `chase_ms` — oblivious fixpoint under the lowered LUBM ontology;
//! * `query_ms` — a prepared 3-atom join (professors with the university
//!   their department belongs to) over the saturated instance;
//! * `snapshot_save_ms` / `snapshot_load_ms` — persisting and reloading
//!   the maintained fixpoint;
//! * `maintain_insert_ms` — a single-fact delta chase against the
//!   maintained instance: the headline number, because it should stay
//!   roughly flat while everything else scales with `n`.
//!
//! Heavy legs (chase, maintenance build, snapshot) are timed single-shot
//! — at 10⁶ atoms a repeat-until-stable harness would turn one benchmark
//! row into minutes — while the cheap per-operation legs (query, single
//! insert) use the adaptive-repeat `bench_ms` harness.
//!
//! [`InstanceSink`]: gtgd_ingest::InstanceSink
//! [`Program`]: gtgd_ingest::Program

use crate::experiments::bench_ms;
use gtgd_chase::ChaseBudget;
use gtgd_data::json::escape;
use gtgd_data::GroundAtom;
use gtgd_ingest::{ingest, LubmConfig, LubmSource, Program};
use gtgd_query::{parse_cq, Engine};
use gtgd_storage::{load_snapshot, save_snapshot};
use std::path::PathBuf;
use std::time::Instant;

/// The E18 scaling query: a 3-atom join over derived and base relations.
pub const E18_QUERY: &str = "Ans(X,U) :- Professor(X), worksFor(X,D), subOrganizationOf(D,U)";

/// The generator seed every E18 row uses (fixed so `BENCH_ingest.json`
/// is reproducible byte-for-byte across runs and machines).
pub const E18_SEED: u64 = 0x10b3;

/// One measured row of `BENCH_ingest.json`.
#[derive(Debug, Clone)]
pub struct IngestMetric {
    /// Scale knob: number of universities.
    pub universities: usize,
    /// Base atoms after ingestion (deduplicated).
    pub base_atoms: usize,
    /// Generate + stream + batched insert, in ms.
    pub ingest_ms: f64,
    /// Oblivious chase to the fixpoint, in ms (single-shot).
    pub chase_ms: f64,
    /// Atoms in the chased fixpoint.
    pub fixpoint_atoms: usize,
    /// Whether the chase completed within the atom budget.
    pub chase_complete: bool,
    /// Prepared evaluation of [`E18_QUERY`] over the fixpoint, in ms.
    pub query_ms: f64,
    /// Answers the query returns.
    pub answers: usize,
    /// Chasing into the maintained (incremental) state, in ms
    /// (single-shot; pays firing/dependency tracking on top of the chase).
    pub maintain_build_ms: f64,
    /// Persisting the maintained fixpoint, in ms (single-shot).
    pub snapshot_save_ms: f64,
    /// Snapshot file size in bytes.
    pub snapshot_bytes: u64,
    /// Loading the snapshot back to a query-ready instance, in ms.
    pub snapshot_load_ms: f64,
    /// One single-fact insert through the delta chase, in ms (adaptive
    /// repeats over *fresh* facts, so dedup never shortcuts the work).
    pub maintain_insert_ms: f64,
}

fn once_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64() * 1e3, out)
}

fn temp_file(universities: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gtgd-ingest-bench-{}-u{universities}.gsnap",
        std::process::id()
    ))
}

/// Measures one scale row end to end.
pub fn measure(universities: usize) -> IngestMetric {
    let cfg = LubmConfig {
        universities,
        seed: E18_SEED,
    };
    let (ingest_ms, program): (f64, Program) = once_ms(|| {
        let mut src = LubmSource::new(cfg);
        ingest(&mut src).expect("LUBM generator is always well-formed")
    });
    let base_atoms = program.facts.len();
    let budget = ChaseBudget::atoms(20_000_000);

    let (chase_ms, chased) = once_ms(|| program.chase(budget));
    let fixpoint_atoms = chased.instance.len();
    let chase_complete = chased.complete;

    let prepared = Engine::prepare(&parse_cq(E18_QUERY).expect("E18 query parses"));
    let answers = prepared.answers(&chased.instance).len();
    let query_ms = bench_ms(|| prepared.answers(&chased.instance).len());

    let (maintain_build_ms, mut m) = once_ms(|| program.maintain(budget));

    let snap = temp_file(universities);
    let (snapshot_save_ms, _) = once_ms(|| {
        save_snapshot(&snap, &program.tgds, &m).expect("snapshot save");
    });
    let snapshot_bytes = std::fs::metadata(&snap).map(|md| md.len()).unwrap_or(0);
    let (snapshot_load_ms, _) = once_ms(|| {
        load_snapshot(&snap)
            .expect("snapshot load")
            .instance()
            .len()
    });
    let _ = std::fs::remove_file(&snap);

    // Fresh professor per repeat: the delta chase must actually fire
    // (Faculty/Employee/Person closure + the worksFor existential).
    let mut k = 0usize;
    let maintain_insert_ms = bench_ms(|| {
        k += 1;
        m.insert([GroundAtom::named("Professor", &[&format!("e18_p{k}")])])
            .atoms_added
    });

    IngestMetric {
        universities,
        base_atoms,
        ingest_ms,
        chase_ms,
        fixpoint_atoms,
        chase_complete,
        query_ms,
        answers,
        maintain_build_ms,
        snapshot_save_ms,
        snapshot_bytes,
        snapshot_load_ms,
        maintain_insert_ms,
    }
}

/// The full E18 sweep: ~10³ → ~10⁴ → ~10⁵ → ~10⁶ base atoms.
pub fn ingest_benchmark() -> Vec<IngestMetric> {
    [1, 8, 80, 800].into_iter().map(measure).collect()
}

/// The CI smoke sweep: the two small scales (~10³ and ~10⁴ atoms).
pub fn ingest_smoke() -> Vec<IngestMetric> {
    [1, 8].into_iter().map(measure).collect()
}

/// Renders the metrics as the `BENCH_ingest.json` document.
pub fn ingest_json(metrics: &[IngestMetric]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"description\": \"{}\",\n",
        escape(
            "E18 ingestion at scale: the LUBM-style generator streamed \
             through the Source API into a program, then chased, queried, \
             snapshotted, and incrementally maintained. Heavy legs \
             (ingest, chase, maintain build, snapshot save/load) are \
             single-shot ms; per-operation legs (query_ms, \
             maintain_insert_ms) are min over adaptive repeats. The \
             single-fact maintain_insert_ms should stay roughly flat \
             across three orders of magnitude of base_atoms."
        )
    ));
    out.push_str(&format!("  \"query\": \"{}\",\n", escape(E18_QUERY)));
    out.push_str(&format!("  \"seed\": {E18_SEED},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!(
            "\"universities\": {}, \"base_atoms\": {}, \"ingest_ms\": {:.3}, \
             \"chase_ms\": {:.3}, \"fixpoint_atoms\": {}, \"chase_complete\": {}, \
             \"query_ms\": {:.3}, \"answers\": {}, \"maintain_build_ms\": {:.3}, \
             \"snapshot_save_ms\": {:.3}, \"snapshot_bytes\": {}, \
             \"snapshot_load_ms\": {:.3}, \"maintain_insert_ms\": {:.3}",
            m.universities,
            m.base_atoms,
            m.ingest_ms,
            m.chase_ms,
            m.fixpoint_atoms,
            m.chase_complete,
            m.query_ms,
            m.answers,
            m.maintain_build_ms,
            m.snapshot_save_ms,
            m.snapshot_bytes,
            m.snapshot_load_ms,
            m.maintain_insert_ms,
        ));
        out.push_str(if i + 1 == metrics.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_row_measures_sanely() {
        let m = measure(1);
        assert!(m.base_atoms >= 1000, "{}", m.base_atoms);
        assert!(m.chase_complete);
        assert!(m.fixpoint_atoms > m.base_atoms);
        assert!(m.answers > 30, "{}", m.answers);
        assert!(m.snapshot_bytes > 0);
        assert!(m.maintain_insert_ms >= 0.0);
    }

    #[test]
    fn json_renders_all_rows() {
        let m = measure(1);
        let doc = ingest_json(&[m]);
        assert!(doc.contains("\"universities\": 1"), "{doc}");
        assert!(doc.contains("maintain_insert_ms"), "{doc}");
    }
}
