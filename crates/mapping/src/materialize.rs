//! Virtual-ABox materialization: evaluating every mapping against the
//! sources and collecting the produced membership assertions.
//!
//! This is "ABox mode" OBDA: useful for moderate data sizes, for tests,
//! and as the baseline against unfolding in the A4 ablation.

use obda_dllite::{Abox, Value};
use obda_sqlstore::{Database, SqlError, SqlValue};

use crate::assertion::{MappingHead, MappingSet};

/// Per-run materialization counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaterializeStats {
    /// Per mapping assertion (indexed like `MappingSet::assertions()`):
    /// how many (row, head) derivations were dropped because a
    /// head-referenced column was NULL — a NULL means the source had no
    /// value, so no assertion is derived from that row for that head.
    pub skipped_rows: Vec<u64>,
}

impl MaterializeStats {
    /// Total skipped rows across all mappings.
    pub fn total_skipped(&self) -> u64 {
        self.skipped_rows.iter().sum()
    }
}

// Process-wide skipped-rows counter, resolved once.
obda_obs::counter_handle!(fn skipped_total, "materialize.skipped_rows");

/// Evaluates all mappings over `db`, producing the virtual ABox.
pub fn materialize(mappings: &MappingSet, db: &Database) -> Result<Abox, SqlError> {
    materialize_with_stats(mappings, db).map(|(abox, _)| abox)
}

/// The columns a mapping head derives assertions from; a row is used by
/// that head iff all of them are non-NULL. Centralizing this is what
/// keeps NULL handling uniform across the three head shapes.
fn head_columns(
    h: &MappingHead,
    col: &impl Fn(&str) -> Result<usize, SqlError>,
) -> Result<Vec<usize>, SqlError> {
    match h {
        MappingHead::Concept { subject, .. } => Ok(vec![col(&subject.column)?]),
        MappingHead::Role {
            subject, object, ..
        } => Ok(vec![col(&subject.column)?, col(&object.column)?]),
        MappingHead::Attribute {
            subject,
            value_column,
            ..
        } => Ok(vec![col(&subject.column)?, col(value_column)?]),
    }
}

/// [`materialize`] plus per-mapping skipped-row counters. Skips are also
/// published to the metrics registry (`materialize.skipped_rows` total,
/// `materialize.skipped_rows.m{i}` per mapping with skips).
pub fn materialize_with_stats(
    mappings: &MappingSet,
    db: &Database,
) -> Result<(Abox, MaterializeStats), SqlError> {
    let mut abox = Abox::new();
    let mut stats = MaterializeStats::default();
    for (mi, m) in mappings.assertions().iter().enumerate() {
        let rs = db.query(&m.sql)?;
        let col = |name: &str| -> Result<usize, SqlError> {
            rs.columns
                .iter()
                .position(|c| c == name)
                .ok_or_else(|| SqlError::new(format!("missing answer column `{name}`")))
        };
        let mut skipped = 0u64;
        for h in &m.heads {
            let required = head_columns(h, &col)?;
            for row in &rs.rows {
                if required.iter().any(|&i| row[i].is_null()) {
                    skipped += 1;
                    continue;
                }
                match h {
                    MappingHead::Concept { concept, subject } => {
                        abox.assert_concept(*concept, &subject.render(&row[required[0]]));
                    }
                    MappingHead::Role {
                        role,
                        subject,
                        object,
                    } => {
                        let (s, o) = (required[0], required[1]);
                        abox.assert_role(*role, &subject.render(&row[s]), &object.render(&row[o]));
                    }
                    MappingHead::Attribute {
                        attribute, subject, ..
                    } => {
                        let (s, v) = (required[0], required[1]);
                        let value = match &row[v] {
                            SqlValue::Int(i) => Value::Int(*i),
                            SqlValue::Text(t) => Value::Text(t.clone()),
                            SqlValue::Null => unreachable!("filtered above"),
                        };
                        abox.assert_attribute(*attribute, &subject.render(&row[s]), value);
                    }
                }
            }
        }
        if skipped > 0 {
            skipped_total().add(skipped);
            obda_obs::registry().add(&format!("materialize.skipped_rows.m{mi}"), skipped);
        }
        stats.skipped_rows.push(skipped);
    }
    Ok((abox, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::{IriTemplate, MappingAssertion};
    use obda_dllite::Signature;

    #[test]
    fn materializes_concepts_roles_attributes() {
        let mut db = Database::new();
        db.execute("CREATE TABLE T (id INT, boss INT, name TEXT)")
            .unwrap();
        db.execute("INSERT INTO T VALUES (1, 2, 'ada'), (2, NULL, 'bob')")
            .unwrap();
        let mut sig = Signature::new();
        let person = sig.concept("Person");
        let reports = sig.role("reportsTo");
        let name = sig.attribute("name");
        let tpl = |col: &str| IriTemplate {
            prefix: "p/".into(),
            column: col.into(),
        };
        let mut ms = MappingSet::new();
        ms.add(MappingAssertion {
            sql: "SELECT id, boss, name FROM T".into(),
            heads: vec![
                MappingHead::Concept {
                    concept: person,
                    subject: tpl("id"),
                },
                MappingHead::Role {
                    role: reports,
                    subject: tpl("id"),
                    object: tpl("boss"),
                },
                MappingHead::Attribute {
                    attribute: name,
                    subject: tpl("id"),
                    value_column: "name".into(),
                },
            ],
        });
        let abox = materialize(&ms, &db).unwrap();
        assert_eq!(abox.concept_instances(person).count(), 2);
        // NULL boss row contributes no role assertion.
        assert_eq!(abox.role_instances(reports).count(), 1);
        assert_eq!(abox.attribute_instances(name).count(), 2);
        assert!(abox.find_individual("p/1").is_some());
        assert!(abox.find_individual("p/2").is_some());
    }

    #[test]
    fn null_skips_are_counted_per_mapping_and_published() {
        let mut db = Database::new();
        db.execute("CREATE TABLE T (id INT, boss INT, name TEXT)")
            .unwrap();
        db.execute("INSERT INTO T VALUES (1, NULL, 'ada'), (2, NULL, NULL), (3, 1, 'eve')")
            .unwrap();
        let mut sig = Signature::new();
        let person = sig.concept("Person");
        let reports = sig.role("reportsTo");
        let name = sig.attribute("name");
        let tpl = |col: &str| IriTemplate {
            prefix: "p/".into(),
            column: col.into(),
        };
        let mut ms = MappingSet::new();
        // Mapping 0 never sees a NULL subject.
        ms.add(MappingAssertion {
            sql: "SELECT id FROM T".into(),
            heads: vec![MappingHead::Concept {
                concept: person,
                subject: tpl("id"),
            }],
        });
        // Mapping 1: two NULL bosses + one NULL name → 3 skips.
        ms.add(MappingAssertion {
            sql: "SELECT id, boss, name FROM T".into(),
            heads: vec![
                MappingHead::Role {
                    role: reports,
                    subject: tpl("id"),
                    object: tpl("boss"),
                },
                MappingHead::Attribute {
                    attribute: name,
                    subject: tpl("id"),
                    value_column: "name".into(),
                },
            ],
        });
        let (abox, stats) = materialize_with_stats(&ms, &db).unwrap();
        assert_eq!(stats.skipped_rows, vec![0, 3]);
        assert_eq!(stats.total_skipped(), 3);
        assert_eq!(abox.role_instances(reports).count(), 1);
        assert_eq!(abox.attribute_instances(name).count(), 2);
        // The registry side is checked in tests/skipped_rows_registry.rs,
        // a test binary of its own: the registry is process-global and
        // sibling tests here materialize NULL rows concurrently.
    }

    #[test]
    fn shared_templates_unify_individuals() {
        let mut db = Database::new();
        db.execute("CREATE TABLE A (x INT)").unwrap();
        db.execute("CREATE TABLE B (y INT)").unwrap();
        db.execute("INSERT INTO A VALUES (7)").unwrap();
        db.execute("INSERT INTO B VALUES (7)").unwrap();
        let mut sig = Signature::new();
        let c1 = sig.concept("C1");
        let c2 = sig.concept("C2");
        let mut ms = MappingSet::new();
        ms.add(MappingAssertion {
            sql: "SELECT x FROM A".into(),
            heads: vec![MappingHead::Concept {
                concept: c1,
                subject: IriTemplate {
                    prefix: "p/".into(),
                    column: "x".into(),
                },
            }],
        });
        ms.add(MappingAssertion {
            sql: "SELECT y FROM B".into(),
            heads: vec![MappingHead::Concept {
                concept: c2,
                subject: IriTemplate {
                    prefix: "p/".into(),
                    column: "y".into(),
                },
            }],
        });
        let abox = materialize(&ms, &db).unwrap();
        // Same prefix + same value → one individual in both concepts.
        assert_eq!(abox.num_individuals(), 1);
        assert_eq!(abox.concept_instances(c1).count(), 1);
        assert_eq!(abox.concept_instances(c2).count(), 1);
    }
}
