//! `materialize.skipped_rows` registry publication. This binary holds
//! this one test on purpose: the registry is process-global, so an exact
//! delta holds only when no other test in the process materializes NULL
//! rows at the same time.

use obda_dllite::Signature;
use obda_mapping::{
    materialize_with_stats, IriTemplate, MappingAssertion, MappingHead, MappingSet,
};
use obda_sqlstore::Database;

#[test]
fn null_skips_are_published_to_the_registry() {
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
    let skipped_total = obda_obs::registry().counter("materialize.skipped_rows");
    let before = skipped_total.get();
    let (_, stats) = materialize_with_stats(&ms, &db).unwrap();
    assert_eq!(stats.total_skipped(), 3);
    // The registry totals move by exactly this run's skips (the
    // registry is process-global, so assert on the delta).
    assert_eq!(skipped_total.get() - before, 3);
}
