//! The unified ingestion API: a [`Source`] yields a schema-plus-TGDs
//! header and then streams facts into a [`FactSink`]; [`ingest`] drives
//! any source into a [`Program`] — the one value the rest of the toolkit
//! consumes (`ChaseRunner::new(&program.tgds).run(&program.facts)`).
//!
//! The streaming contract matters at scale: sources never build a giant
//! intermediate `Vec` of atoms. They push facts one at a time; the
//! [`InstanceSink`] buffers a batch (default [`DEFAULT_BATCH`]) and lands
//! it with [`Instance::insert_batch`], so the dedup map and candidate
//! lists grow amortized-once per batch and the lazy dense tables and
//! tries extend once per *demand*, not once per row.

use crate::error::IngestError;
use gtgd_chase::{ChaseBudget, ChaseResult, ChaseRunner, MaintainedInstance, Tgd};
use gtgd_data::{GroundAtom, Instance, Schema};

/// What a source declares up front: the relations it will emit facts over
/// and the dependencies (ontology / constraints-as-TGDs) it compiles to.
#[derive(Debug, Clone, Default)]
pub struct SourceSchema {
    /// Declared predicates with arities. May undercover the data for
    /// schema-free formats (plain RDF); the sink still enforces that any
    /// predicate it *does* declare is used at the declared arity.
    pub schema: Schema,
    /// The lowered dependencies: DL/OWL axioms, inclusion dependencies.
    pub tgds: Vec<Tgd>,
}

/// Receives the fact stream of a [`Source`]. Implementations decide where
/// atoms land (an [`Instance`], a counter, a file); sources just push.
pub trait FactSink {
    /// Accepts one fact. Errors propagate out of [`Source::facts`].
    fn push(&mut self, atom: GroundAtom) -> Result<(), IngestError>;

    /// Lands any buffered facts. Called once by the driver after the
    /// source finishes; batching sinks must not lose the tail without it.
    fn flush(&mut self) -> Result<(), IngestError> {
        Ok(())
    }
}

/// An ingestion frontend: anything that can compile an external format
/// into the toolkit's schema/TGD substrate and stream its facts.
///
/// The contract: `schema()` is called first and returns the declared
/// relations and lowered dependencies; `facts(sink)` then pushes every
/// ground atom. Both may fail with a described [`IngestError`]; neither
/// may panic on malformed input.
pub trait Source {
    /// A human-readable name for reports (usually the input path).
    fn name(&self) -> &str;

    /// Declares predicates and lowers the format's axioms/constraints to
    /// TGDs. Rejections (out-of-fragment axioms, bad manifests) happen
    /// here, before any data is read.
    fn schema(&mut self) -> Result<SourceSchema, IngestError>;

    /// Streams every fact into `sink`, in a deterministic order.
    fn facts(&mut self, sink: &mut dyn FactSink) -> Result<(), IngestError>;
}

/// An ingested program: the unified output of every frontend, ready for
/// the chase (`ChaseRunner::new(&p.tgds)`), query evaluation, snapshotting
/// ([`gtgd_storage::save_snapshot`] over [`Program::maintain`]'s result),
/// or serving.
///
/// [`gtgd_storage::save_snapshot`]: ../gtgd_storage/fn.save_snapshot.html
#[derive(Debug, Clone)]
pub struct Program {
    /// Where the program came from ([`Source::name`]).
    pub name: String,
    /// Declared predicates, unioned with the arities realized by the data.
    pub schema: Schema,
    /// The lowered dependencies.
    pub tgds: Vec<Tgd>,
    /// The fact base.
    pub facts: Instance,
}

impl Program {
    /// A chase runner over this program's TGDs (configure and then
    /// `run(&program.facts)`, or use the [`Program::chase`] shortcut).
    pub fn runner(&self) -> ChaseRunner<'_> {
        ChaseRunner::new(&self.tgds)
    }

    /// Chases the fact base under the program's TGDs within `budget`.
    pub fn chase(&self, budget: ChaseBudget) -> ChaseResult {
        self.runner().budget(budget).run(&self.facts)
    }

    /// Chases once into a maintained (incrementally updatable) fixpoint —
    /// the value `gtgd_storage::save_snapshot` persists and `gtgd serve`
    /// serves. `budget` may cap atoms; level caps are rejected there.
    pub fn maintain(&self, budget: ChaseBudget) -> MaintainedInstance {
        self.runner().budget(budget).maintain(&self.facts)
    }

    /// Chases within `budget`, then answers a conjunctive query (usual
    /// `Ans(X) :- Body(...)` syntax) over the saturated instance — the
    /// certain answers when the chase completed within budget.
    pub fn answers(
        &self,
        cq: &str,
        budget: ChaseBudget,
    ) -> Result<std::collections::HashSet<Vec<gtgd_data::Value>>, gtgd_query::ParseError> {
        let q = gtgd_query::parse_cq(cq)?;
        let out = self.chase(budget);
        Ok(gtgd_query::Engine::prepare(&q).answers(&out.instance))
    }
}

/// Default sink batch size: big enough to amortize map growth, small
/// enough that a batch stays cache-resident while deduplicating.
pub const DEFAULT_BATCH: usize = 8192;

/// The standard sink: validates each atom against the declared schema
/// (arity mismatches are described errors, not index corruption) and lands
/// atoms in an [`Instance`] through [`Instance::insert_batch`].
pub struct InstanceSink<'a> {
    instance: &'a mut Instance,
    declared: &'a Schema,
    buf: Vec<GroundAtom>,
    batch: usize,
    pushed: usize,
}

impl<'a> InstanceSink<'a> {
    /// A sink writing into `instance`, checking arities against
    /// `declared` (predicates absent from `declared` are accepted — plain
    /// RDF declares nothing).
    pub fn new(instance: &'a mut Instance, declared: &'a Schema) -> InstanceSink<'a> {
        InstanceSink {
            instance,
            declared,
            buf: Vec::with_capacity(DEFAULT_BATCH),
            batch: DEFAULT_BATCH,
            pushed: 0,
        }
    }

    /// Overrides the batch size (mainly for tests).
    pub fn with_batch(mut self, batch: usize) -> InstanceSink<'a> {
        self.batch = batch.max(1);
        self
    }

    /// Total facts pushed (before deduplication).
    pub fn pushed(&self) -> usize {
        self.pushed
    }
}

impl FactSink for InstanceSink<'_> {
    fn push(&mut self, atom: GroundAtom) -> Result<(), IngestError> {
        if let Some(declared) = self.declared.arity(atom.predicate) {
            if declared != atom.arity() {
                return Err(IngestError::Schema {
                    message: format!(
                        "predicate {} declared with arity {declared} but fact {atom} has arity {}",
                        atom.predicate,
                        atom.arity()
                    ),
                });
            }
        }
        self.pushed += 1;
        self.buf.push(atom);
        if self.buf.len() >= self.batch {
            self.instance.insert_batch(self.buf.drain(..));
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), IngestError> {
        if !self.buf.is_empty() {
            self.instance.insert_batch(self.buf.drain(..));
        }
        Ok(())
    }
}

/// Drives a source end to end: schema first, then the fact stream through
/// a batching [`InstanceSink`]. The returned program's schema is the
/// declared schema unioned with the arities the data realized.
pub fn ingest(source: &mut dyn Source) -> Result<Program, IngestError> {
    let header = source.schema()?;
    let mut facts = Instance::new();
    {
        let mut sink = InstanceSink::new(&mut facts, &header.schema);
        source.facts(&mut sink)?;
        sink.flush()?;
    }
    // The sink enforced declared arities, so the union cannot clash.
    let schema = header.schema.union(&facts.schema());
    Ok(Program {
        name: source.name().to_string(),
        schema,
        tgds: header.tgds,
        facts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ToySource {
        n: usize,
    }

    impl Source for ToySource {
        fn name(&self) -> &str {
            "toy"
        }

        fn schema(&mut self) -> Result<SourceSchema, IngestError> {
            Ok(SourceSchema {
                schema: Schema::from_pairs([("E", 2)]),
                tgds: gtgd_chase::parse_tgds("E(X,Y) -> V(X)").unwrap(),
            })
        }

        fn facts(&mut self, sink: &mut dyn FactSink) -> Result<(), IngestError> {
            for i in 0..self.n {
                sink.push(GroundAtom::named(
                    "E",
                    &[&format!("a{i}"), &format!("a{}", i + 1)],
                ))?;
            }
            Ok(())
        }
    }

    #[test]
    fn ingest_drives_schema_then_facts() {
        let p = ingest(&mut ToySource { n: 10 }).unwrap();
        assert_eq!(p.facts.len(), 10);
        assert_eq!(p.schema.arity(gtgd_data::Predicate::new("E")), Some(2));
        assert_eq!(p.tgds.len(), 1);
        let out = p.chase(ChaseBudget::unbounded());
        assert!(out.complete);
        assert_eq!(out.instance.len(), 20); // every edge endpoint gets V
    }

    #[test]
    fn sink_batches_and_dedups() {
        let mut i = Instance::new();
        let declared = Schema::from_pairs([("R", 2)]);
        let mut sink = InstanceSink::new(&mut i, &declared).with_batch(3);
        for _ in 0..2 {
            for k in 0..5 {
                sink.push(GroundAtom::named("R", &["a", &format!("b{k}")]))
                    .unwrap();
            }
        }
        sink.flush().unwrap();
        assert_eq!(sink.pushed(), 10);
        assert_eq!(i.len(), 5);
    }

    #[test]
    fn sink_rejects_arity_mismatch() {
        let mut i = Instance::new();
        let declared = Schema::from_pairs([("R", 2)]);
        let mut sink = InstanceSink::new(&mut i, &declared);
        let e = sink.push(GroundAtom::named("R", &["a"])).unwrap_err();
        assert!(matches!(e, IngestError::Schema { .. }), "{e}");
        // Undeclared predicates pass through.
        sink.push(GroundAtom::named("S", &["a"])).unwrap();
    }
}
