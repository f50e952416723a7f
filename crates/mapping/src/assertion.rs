//! GAV mapping assertions: SQL over the sources → ontology atoms.
//!
//! A [`MappingAssertion`] pairs one SQL query (in the `obda-sqlstore`
//! subset) with one or more head atoms whose arguments are built from the
//! query's answer columns through [`IriTemplate`]s — the classic
//! Mastro/Ontop mapping shape. Individuals are identified by the IRI
//! string `prefix + value`, so two mappings produce the same individual
//! exactly when prefix and value agree (this is what makes compile-time
//! template matching during unfolding sound).

use obda_dllite::{AttributeId, ConceptId, RoleId, Signature};
use obda_sqlstore::{Database, SelectQuery, SqlError};

/// IRI template `prefix{column}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IriTemplate {
    /// Constant prefix (e.g. `person/`).
    pub prefix: String,
    /// Answer-column name supplying the suffix.
    pub column: String,
}

impl IriTemplate {
    /// Renders the IRI for a concrete value.
    pub fn render(&self, value: &obda_sqlstore::SqlValue) -> String {
        format!("{}{}", self.prefix, value)
    }
}

/// A head atom of a mapping assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingHead {
    /// Populates a concept.
    Concept {
        /// Target concept.
        concept: ConceptId,
        /// Subject IRI template.
        subject: IriTemplate,
    },
    /// Populates a role.
    Role {
        /// Target role.
        role: RoleId,
        /// Subject IRI template.
        subject: IriTemplate,
        /// Object IRI template.
        object: IriTemplate,
    },
    /// Populates an attribute.
    Attribute {
        /// Target attribute.
        attribute: AttributeId,
        /// Subject IRI template.
        subject: IriTemplate,
        /// Answer column supplying the value verbatim.
        value_column: String,
    },
}

impl MappingHead {
    /// Answer columns referenced by this head.
    pub fn referenced_columns(&self) -> Vec<&str> {
        match self {
            MappingHead::Concept { subject, .. } => vec![&subject.column],
            MappingHead::Role {
                subject, object, ..
            } => vec![&subject.column, &object.column],
            MappingHead::Attribute {
                subject,
                value_column,
                ..
            } => vec![&subject.column, value_column],
        }
    }
}

/// One mapping assertion.
#[derive(Debug, Clone)]
pub struct MappingAssertion {
    /// Source query text.
    pub sql: String,
    /// Head atoms.
    pub heads: Vec<MappingHead>,
}

/// A mapping body parsed once, when its assertion is added: the query,
/// or the parse error [`MappingSet::validate`] reports.
pub type ParsedBody = Result<SelectQuery, SqlError>;

/// A validated collection of mapping assertions.
#[derive(Debug, Clone, Default)]
pub struct MappingSet {
    assertions: Vec<MappingAssertion>,
    /// `bodies[i]` is `assertions[i].sql` parsed.
    bodies: Vec<ParsedBody>,
}

impl MappingSet {
    /// Creates an empty mapping set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an assertion and parses its body (unvalidated; call
    /// [`MappingSet::validate`]).
    pub fn add(&mut self, m: MappingAssertion) {
        self.bodies.push(obda_sqlstore::parse_query(&m.sql));
        self.assertions.push(m);
    }

    /// All assertions.
    pub fn assertions(&self) -> &[MappingAssertion] {
        &self.assertions
    }

    /// Number of assertions.
    pub fn len(&self) -> usize {
        self.assertions.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.assertions.is_empty()
    }

    /// Validates every assertion against the source database: the SQL must
    /// plan, and every referenced answer column must exist in its output.
    pub fn validate(&self, db: &Database) -> Result<(), SqlError> {
        for (i, (m, body)) in self.assertions.iter().zip(&self.bodies).enumerate() {
            let q = body
                .as_ref()
                .map_err(|e| SqlError::new(format!("mapping {i}: {e}")))?;
            let planned = obda_sqlstore::plan_query(db, q)
                .map_err(|e| SqlError::new(format!("mapping {i}: {e}")))?;
            for h in &m.heads {
                for col in h.referenced_columns() {
                    if !planned.columns.iter().any(|c| c == col) {
                        return Err(SqlError::new(format!(
                            "mapping {i}: head references column `{col}` not in SQL output {:?}",
                            planned.columns
                        )));
                    }
                }
            }
            if m.heads.is_empty() {
                return Err(SqlError::new(format!("mapping {i}: no head atoms")));
            }
        }
        Ok(())
    }

    /// Every head atom with its assertion's parsed body.
    fn heads(&self) -> impl Iterator<Item = (&ParsedBody, &MappingHead)> {
        self.assertions
            .iter()
            .zip(&self.bodies)
            .flat_map(|(m, body)| m.heads.iter().map(move |h| (body, h)))
    }

    /// Sources populating a concept: `(parsed body, subject template)`.
    pub fn concept_sources(
        &self,
        a: ConceptId,
    ) -> impl Iterator<Item = (&ParsedBody, &IriTemplate)> {
        self.heads().filter_map(move |(body, h)| match h {
            MappingHead::Concept { concept, subject } if *concept == a => Some((body, subject)),
            _ => None,
        })
    }

    /// Sources populating a role: `(parsed body, subject, object)`.
    pub fn role_sources(
        &self,
        p: RoleId,
    ) -> impl Iterator<Item = (&ParsedBody, &IriTemplate, &IriTemplate)> {
        self.heads().filter_map(move |(body, h)| match h {
            MappingHead::Role {
                role,
                subject,
                object,
            } if *role == p => Some((body, subject, object)),
            _ => None,
        })
    }

    /// Sources populating an attribute: `(parsed body, subject, value
    /// col)`.
    pub fn attribute_sources(
        &self,
        u: AttributeId,
    ) -> impl Iterator<Item = (&ParsedBody, &IriTemplate, &str)> {
        self.heads().filter_map(move |(body, h)| match h {
            MappingHead::Attribute {
                attribute,
                subject,
                value_column,
            } if *attribute == u => Some((body, subject, value_column.as_str())),
            _ => None,
        })
    }

    /// Predicates of the signature with no mapping source at all — a
    /// design-time lint (Section 8: design quality control).
    pub fn unmapped_predicates(&self, sig: &Signature) -> Vec<String> {
        let mut out = Vec::new();
        for a in sig.concepts() {
            if self.concept_sources(a).next().is_none() {
                out.push(sig.concept_name(a).to_owned());
            }
        }
        for p in sig.roles() {
            if self.role_sources(p).next().is_none() {
                out.push(sig.role_name(p).to_owned());
            }
        }
        for u in sig.attributes() {
            if self.attribute_sources(u).next().is_none() {
                out.push(sig.attribute_name(u).to_owned());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_sqlstore::Database;

    fn setup() -> (Database, Signature, MappingSet) {
        let mut db = Database::new();
        db.execute("CREATE TABLE TB_P (id INT, kind INT)").unwrap();
        let mut sig = Signature::new();
        let student = sig.concept("Student");
        sig.concept("Unmapped");
        let mut ms = MappingSet::new();
        ms.add(MappingAssertion {
            sql: "SELECT id FROM TB_P WHERE kind = 1".into(),
            heads: vec![MappingHead::Concept {
                concept: student,
                subject: IriTemplate {
                    prefix: "person/".into(),
                    column: "id".into(),
                },
            }],
        });
        (db, sig, ms)
    }

    #[test]
    fn validate_accepts_well_formed() {
        let (db, _, ms) = setup();
        ms.validate(&db).unwrap();
    }

    #[test]
    fn validate_rejects_missing_column() {
        let (db, sig, mut ms) = setup();
        ms.add(MappingAssertion {
            sql: "SELECT id FROM TB_P".into(),
            heads: vec![MappingHead::Concept {
                concept: sig.find_concept("Student").unwrap(),
                subject: IriTemplate {
                    prefix: "x/".into(),
                    column: "nope".into(),
                },
            }],
        });
        let e = ms.validate(&db).unwrap_err();
        assert!(e.message().contains("nope"));
    }

    #[test]
    fn validate_rejects_bad_sql() {
        let (db, sig, mut ms) = setup();
        ms.add(MappingAssertion {
            sql: "SELECT id FROM missing_table".into(),
            heads: vec![MappingHead::Concept {
                concept: sig.find_concept("Student").unwrap(),
                subject: IriTemplate {
                    prefix: "x/".into(),
                    column: "id".into(),
                },
            }],
        });
        assert!(ms.validate(&db).is_err());
    }

    #[test]
    fn validate_reports_a_body_that_does_not_parse() {
        let (db, sig, mut ms) = setup();
        ms.add(MappingAssertion {
            sql: "SELECT id FROM".into(),
            heads: vec![MappingHead::Concept {
                concept: sig.find_concept("Student").unwrap(),
                subject: IriTemplate {
                    prefix: "x/".into(),
                    column: "id".into(),
                },
            }],
        });
        let e = ms.validate(&db).unwrap_err();
        assert!(e.message().starts_with("mapping 1: "), "{e}");
        let student = sig.find_concept("Student").unwrap();
        let bodies: Vec<bool> = ms
            .concept_sources(student)
            .map(|(b, _)| b.is_ok())
            .collect();
        assert_eq!(bodies, vec![true, false]);
    }

    #[test]
    fn unmapped_predicates_lint() {
        let (_, sig, ms) = setup();
        assert_eq!(ms.unmapped_predicates(&sig), vec!["Unmapped"]);
    }

    #[test]
    fn source_lookup_by_predicate() {
        let (_, sig, ms) = setup();
        let student = sig.find_concept("Student").unwrap();
        assert_eq!(ms.concept_sources(student).count(), 1);
        let other = sig.find_concept("Unmapped").unwrap();
        assert_eq!(ms.concept_sources(other).count(), 0);
    }
}
