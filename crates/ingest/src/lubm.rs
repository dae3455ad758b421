//! A deterministic LUBM-style workload generator: the classic
//! university-domain benchmark shape (universities → departments →
//! faculty/courses/students/publications) scaled by a single `--univ`
//! knob, from ~10³ atoms at `univ = 1` to beyond 10⁶ at `univ ≈ 800`.
//!
//! Everything is driven by one seeded [`Rng`] walked in a fixed traversal
//! order, so the same `(universities, seed)` pair produces a
//! **byte-identical** program however it is rendered — as N-Triples
//! ([`LubmSource::ntriples`]), as datalog fact text
//! ([`LubmSource::datalog_facts`]), or streamed directly through the
//! [`Source`] API. All three renderings share one emit path; the
//! differential test suite leans on that to check the RDF parser against
//! the direct path atom-for-atom.
//!
//! The companion TBox [`ONTOLOGY_OWL`] stays inside the ELHI⊥ overlap the
//! OWL frontend accepts, and is written so lowering introduces no
//! auxiliary concept names — each axiom becomes exactly the guarded TGD
//! you would write by hand, which keeps the differential datalog mirror
//! honest.

use crate::error::IngestError;
use crate::owl::OwlSource;
use crate::source::{FactSink, Source, SourceSchema};
use gtgd_data::rng::Rng;
use gtgd_data::{GroundAtom, Predicate, Value};

/// The LUBM namespace (entity and vocabulary IRIs live here).
pub const LUBM_NS: &str = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";

/// The university-domain TBox, in OWL functional syntax. Within the
/// supported fragment by construction; `gtgd gen lubm` writes it next to
/// the data so the pair round-trips through `gtgd ingest`.
pub const ONTOLOGY_OWL: &str = r#"Prefix(ub:=<http://swat.cse.lehigh.edu/onto/univ-bench.owl#>)
Ontology(<http://swat.cse.lehigh.edu/onto/univ-bench.owl>
  Declaration(Class(ub:University))
  Declaration(Class(ub:Department))
  Declaration(Class(ub:Professor))
  Declaration(Class(ub:Faculty))
  Declaration(Class(ub:Employee))
  Declaration(Class(ub:Person))
  Declaration(Class(ub:Student))
  Declaration(Class(ub:Course))
  Declaration(Class(ub:Publication))
  Declaration(ObjectProperty(ub:subOrganizationOf))
  Declaration(ObjectProperty(ub:worksFor))
  Declaration(ObjectProperty(ub:headOf))
  Declaration(ObjectProperty(ub:memberOf))
  Declaration(ObjectProperty(ub:teacherOf))
  Declaration(ObjectProperty(ub:takesCourse))
  Declaration(ObjectProperty(ub:advisor))
  Declaration(ObjectProperty(ub:publicationAuthor))
  SubClassOf(ub:Professor ub:Faculty)
  SubClassOf(ub:Faculty ub:Employee)
  SubClassOf(ub:Employee ub:Person)
  SubClassOf(ub:Student ub:Person)
  SubClassOf(ub:Faculty ObjectSomeValuesFrom(ub:worksFor ub:Department))
  SubClassOf(ub:Student ObjectSomeValuesFrom(ub:memberOf ub:Department))
  SubClassOf(ub:Department ObjectSomeValuesFrom(ub:subOrganizationOf ub:University))
  SubObjectPropertyOf(ub:headOf ub:worksFor)
  ObjectPropertyDomain(ub:teacherOf ub:Faculty)
  ObjectPropertyRange(ub:teacherOf ub:Course)
  ObjectPropertyDomain(ub:takesCourse ub:Student)
  ObjectPropertyRange(ub:takesCourse ub:Course)
  ObjectPropertyDomain(ub:advisor ub:Student)
  ObjectPropertyRange(ub:advisor ub:Professor)
  ObjectPropertyDomain(ub:publicationAuthor ub:Publication)
  ObjectPropertyRange(ub:publicationAuthor ub:Person)
  ObjectPropertyDomain(ub:worksFor ub:Employee)
  ObjectPropertyRange(ub:worksFor ub:Department)
  ObjectPropertyDomain(ub:memberOf ub:Person)
  ObjectPropertyRange(ub:memberOf ub:Department)
)
"#;

/// The same TBox as hand-written guarded TGDs — the datalog mirror the
/// differential suite compares the OWL lowering against. Kept adjacent
/// to [`ONTOLOGY_OWL`] so the two are reviewed together.
pub const ONTOLOGY_TGDS: &str = "\
Professor(X) -> Faculty(X). Faculty(X) -> Employee(X). Employee(X) -> Person(X).
Student(X) -> Person(X).
Faculty(X) -> worksFor(X,D), Department(D).
Student(X) -> memberOf(X,D), Department(D).
Department(X) -> subOrganizationOf(X,U), University(U).
headOf(X,Y) -> worksFor(X,Y).
teacherOf(X,Y) -> Faculty(X). teacherOf(X,Y) -> Course(Y).
takesCourse(X,Y) -> Student(X). takesCourse(X,Y) -> Course(Y).
advisor(X,Y) -> Student(X). advisor(X,Y) -> Professor(Y).
publicationAuthor(X,Y) -> Publication(X). publicationAuthor(X,Y) -> Person(Y).
worksFor(X,Y) -> Employee(X). worksFor(X,Y) -> Department(Y).
memberOf(X,Y) -> Person(X). memberOf(X,Y) -> Department(Y).
";

/// Generator knobs.
#[derive(Debug, Clone, Copy)]
pub struct LubmConfig {
    /// Number of universities (the scale knob; ~1.3k atoms each).
    pub universities: usize,
    /// RNG seed. Same `(universities, seed)` ⇒ byte-identical output.
    pub seed: u64,
}

impl Default for LubmConfig {
    fn default() -> LubmConfig {
        LubmConfig {
            universities: 1,
            seed: 0x10b3,
        }
    }
}

/// One generated fact, before rendering.
enum Fact<'a> {
    Class(&'static str, &'a str),
    Prop(&'static str, &'a str, &'a str),
}

/// The LUBM-style generator as an ingestion source.
pub struct LubmSource {
    cfg: LubmConfig,
}

impl LubmSource {
    /// A generator for `cfg`.
    pub fn new(cfg: LubmConfig) -> LubmSource {
        LubmSource { cfg }
    }

    /// The single emit path behind every rendering: walks the seeded RNG
    /// in a fixed order and hands each fact to `out`.
    fn emit<E>(&self, out: &mut dyn FnMut(Fact<'_>) -> Result<(), E>) -> Result<(), E> {
        let mut rng = Rng::seed(self.cfg.seed);
        for u in 0..self.cfg.universities {
            let uni = format!("u{u}");
            out(Fact::Class("University", &uni))?;
            let depts = 4 + rng.below(2) as usize;
            for d in 0..depts {
                let dept = format!("{uni}_d{d}");
                out(Fact::Class("Department", &dept))?;
                out(Fact::Prop("subOrganizationOf", &dept, &uni))?;

                let n_profs = 8 + rng.below(5) as usize;
                let profs: Vec<String> = (0..n_profs).map(|p| format!("{dept}_p{p}")).collect();
                for (p, prof) in profs.iter().enumerate() {
                    out(Fact::Class("Professor", prof))?;
                    if p == 0 {
                        out(Fact::Prop("headOf", prof, &dept))?;
                    } else {
                        out(Fact::Prop("worksFor", prof, &dept))?;
                    }
                }

                let n_courses = 15 + rng.below(10) as usize;
                let courses: Vec<String> = (0..n_courses).map(|c| format!("{dept}_c{c}")).collect();
                for course in &courses {
                    out(Fact::Class("Course", course))?;
                    let teacher = &profs[rng.below(n_profs as u64) as usize];
                    out(Fact::Prop("teacherOf", teacher, course))?;
                }

                for prof in &profs {
                    let n_pubs = 2 + rng.below(3) as usize;
                    for k in 0..n_pubs {
                        let publ = format!("{prof}_pub{k}");
                        out(Fact::Class("Publication", &publ))?;
                        out(Fact::Prop("publicationAuthor", &publ, prof))?;
                    }
                }

                let n_students = 30 + rng.below(20) as usize;
                for s in 0..n_students {
                    let student = format!("{dept}_s{s}");
                    out(Fact::Class("Student", &student))?;
                    out(Fact::Prop("memberOf", &student, &dept))?;
                    for _ in 0..2 {
                        let course = &courses[rng.below(n_courses as u64) as usize];
                        out(Fact::Prop("takesCourse", &student, course))?;
                    }
                    if rng.chance(0.3) {
                        let adv = &profs[rng.below(n_profs as u64) as usize];
                        out(Fact::Prop("advisor", &student, adv))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Renders the data as N-Triples (full IRIs in [`LUBM_NS`]).
    pub fn ntriples(&self) -> String {
        let mut out = String::new();
        let infallible: Result<(), std::convert::Infallible> = self.emit(&mut |f| {
            match f {
                Fact::Class(c, e) => {
                    out.push_str(&format!(
                        "<{LUBM_NS}{e}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <{LUBM_NS}{c}> .\n"
                    ));
                }
                Fact::Prop(p, s, o) => {
                    out.push_str(&format!("<{LUBM_NS}{s}> <{LUBM_NS}{p}> <{LUBM_NS}{o}> .\n"));
                }
            }
            Ok(())
        });
        infallible.expect("string rendering cannot fail");
        out
    }

    /// Renders the data as datalog fact text (`parse_facts` format).
    pub fn datalog_facts(&self) -> String {
        let mut out = String::new();
        let infallible: Result<(), std::convert::Infallible> = self.emit(&mut |f| {
            match f {
                Fact::Class(c, e) => out.push_str(&format!("{c}({e}).\n")),
                Fact::Prop(p, s, o) => out.push_str(&format!("{p}({s},{o}).\n")),
            }
            Ok(())
        });
        infallible.expect("string rendering cannot fail");
        out
    }

    /// Counts the atoms this configuration generates (duplicates from
    /// repeated random draws included, as in every rendering).
    pub fn atom_count(&self) -> usize {
        let mut n = 0usize;
        let infallible: Result<(), std::convert::Infallible> = self.emit(&mut |_| {
            n += 1;
            Ok(())
        });
        infallible.expect("counting cannot fail");
        n
    }
}

impl Source for LubmSource {
    fn name(&self) -> &str {
        "lubm"
    }

    fn schema(&mut self) -> Result<SourceSchema, IngestError> {
        // Dogfood the OWL frontend: the generator's schema IS its
        // ontology, lowered exactly the way a user's ontology would be.
        OwlSource::from_str("lubm-ontology", ONTOLOGY_OWL).schema()
    }

    fn facts(&mut self, sink: &mut dyn FactSink) -> Result<(), IngestError> {
        self.emit(&mut |f| {
            let atom = match f {
                Fact::Class(c, e) => GroundAtom {
                    predicate: Predicate::new(c),
                    args: vec![Value::named(e)],
                },
                Fact::Prop(p, s, o) => GroundAtom {
                    predicate: Predicate::new(p),
                    args: vec![Value::named(s), Value::named(o)],
                },
            };
            sink.push(atom)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ingest;

    #[test]
    fn same_seed_is_byte_identical() {
        let cfg = LubmConfig {
            universities: 2,
            seed: 42,
        };
        let a = LubmSource::new(cfg).ntriples();
        let b = LubmSource::new(cfg).ntriples();
        assert_eq!(a, b);
        let other = LubmSource::new(LubmConfig {
            universities: 2,
            seed: 43,
        })
        .ntriples();
        assert_ne!(a, other);
    }

    #[test]
    fn scale_tracks_universities() {
        let at = |universities| {
            LubmSource::new(LubmConfig {
                universities,
                seed: 7,
            })
            .atom_count()
        };
        let one = at(1);
        assert!(one >= 1000, "one university is ~1.3k atoms, got {one}");
        let ten = at(10);
        assert!(ten > 8 * one && ten < 12 * one, "{one} vs {ten}");
    }

    #[test]
    fn ontology_is_in_fragment_and_program_chases() {
        let mut src = LubmSource::new(LubmConfig {
            universities: 1,
            seed: 1,
        });
        let p = ingest(&mut src).unwrap();
        assert!(p.tgds.len() >= 20, "{}", p.tgds.len());
        assert!(p.facts.len() >= 900);
        let out = p.chase(gtgd_chase::ChaseBudget::unbounded());
        assert!(out.complete);
        // Saturation derives Person for every professor and student.
        let persons = out
            .instance
            .iter()
            .filter(|a| a.predicate == Predicate::new("Person"))
            .count();
        assert!(persons > 100, "{persons}");
    }

    #[test]
    fn renderings_agree_with_the_source_path() {
        let cfg = LubmConfig {
            universities: 1,
            seed: 99,
        };
        let direct = ingest(&mut LubmSource::new(cfg)).unwrap();
        let text = LubmSource::new(cfg).datalog_facts();
        let parsed = gtgd_data::text::parse_facts(&text).unwrap();
        assert_eq!(direct.facts, parsed);
    }
}
