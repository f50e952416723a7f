//! Equivalence properties for the streaming write path: after any
//! interleaving of delta batches and queries, an incrementally
//! maintained engine must answer byte-identically to one rebuilt from
//! scratch over the same final fact set.
//!
//! The matrix covers:
//!
//! * UCQ (PerfectRef) and NDL rewriting — the NDL runs exercise the
//!   memoized view extents' incremental maintenance;
//! * warm and cold memo: warm runs query *between* batches (so deltas
//!   patch live extents), cold runs only query at checkpoints;
//! * deletes that hit, deletes that miss, duplicate inserts, and
//!   batches mixing all three (the `genont::churn` stream);
//! * the soundness corner: deleting one of two role pairs with the same
//!   subject must keep the subject in `∃p`-derived concept answers.

use mastro::{
    parse_cq, AboxDelta, AboxSystem, ConjunctiveQuery, DeltaStatement, QueryEngine, RewritingMode,
};
use obda_dllite::{Abox, Assertion, Tbox, Value};
use obda_genont::{churn_stream, university_scenario, ChurnFact, ChurnOp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A churn fact as the wire-level statement the write path consumes.
fn to_statement(f: &ChurnFact) -> DeltaStatement {
    match f {
        ChurnFact::Concept {
            concept,
            individual,
        } => DeltaStatement::unary(concept, individual),
        ChurnFact::Role {
            role,
            subject,
            object,
        } => DeltaStatement::binary(role, subject, object),
        ChurnFact::Attr {
            attr,
            individual,
            text,
        } => DeltaStatement::binary_value(attr, individual, Value::Text(text.clone())),
    }
}

/// Resolves a churn fact against the shadow ABox without interning —
/// `None` means the fact can't be present (unknown individual).
fn find_shadow_assertion(tbox: &Tbox, shadow: &Abox, f: &ChurnFact) -> Option<Assertion> {
    match f {
        ChurnFact::Concept {
            concept,
            individual,
        } => Some(Assertion::Concept(
            tbox.sig.find_concept(concept)?,
            shadow.find_individual(individual)?,
        )),
        ChurnFact::Role {
            role,
            subject,
            object,
        } => Some(Assertion::Role(
            tbox.sig.find_role(role)?,
            shadow.find_individual(subject)?,
            shadow.find_individual(object)?,
        )),
        ChurnFact::Attr {
            attr,
            individual,
            text,
        } => Some(Assertion::Attribute(
            tbox.sig.find_attribute(attr)?,
            shadow.find_individual(individual)?,
            Value::Text(text.clone()),
        )),
    }
}

/// Applies one batch to the shadow ABox with the write path's
/// semantics: deletes first, then inserts.
fn shadow_apply(tbox: &Tbox, shadow: &mut Abox, deletes: &[ChurnFact], inserts: &[ChurnFact]) {
    for f in deletes {
        if let Some(a) = find_shadow_assertion(tbox, shadow, f) {
            shadow.remove(&a);
        }
    }
    for f in inserts {
        match f {
            ChurnFact::Concept {
                concept,
                individual,
            } => {
                let c = tbox.sig.find_concept(concept).expect(concept);
                shadow.assert_concept(c, individual);
            }
            ChurnFact::Role {
                role,
                subject,
                object,
            } => {
                let p = tbox.sig.find_role(role).expect(role);
                shadow.assert_role(p, subject, object);
            }
            ChurnFact::Attr {
                attr,
                individual,
                text,
            } => {
                let u = tbox.sig.find_attribute(attr).expect(attr);
                shadow.assert_attribute(u, individual, Value::Text(text.clone()));
            }
        }
    }
}

fn engine(tbox: Tbox, abox: Abox, mode: RewritingMode) -> AboxSystem {
    AboxSystem::new(tbox, abox).with_rewriting(mode)
}

/// The core property: replay a churn stream in random batches against
/// an incremental engine; at every checkpoint its answers must be
/// byte-identical to a from-scratch rebuild over the shadow ABox.
fn check_interleaving(mode: RewritingMode, seed: u64, warm: bool) {
    let scenario = university_scenario(1, seed);
    let base = mastro::demo::build_system(&scenario)
        .expect("build")
        .materialized_abox()
        .expect("materialize")
        .abox
        .clone();
    let tbox = scenario.tbox.clone();
    let queries: Vec<ConjunctiveQuery> = scenario
        .queries
        .iter()
        .map(|q| parse_cq(&q.text, &tbox.sig).expect("scenario query parses"))
        .collect();

    let sys = engine(tbox.clone(), base.clone(), mode);
    let mut shadow = base;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let stream = churn_stream(1, seed, 96);
    let mut cursor = 0;
    let mut checked = 0;
    while cursor < stream.len() {
        let size = rng.gen_range(1..=8usize).min(stream.len() - cursor);
        let batch = &stream[cursor..cursor + size];
        cursor += size;

        let mut delta = AboxDelta::new();
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        for op in batch {
            match op {
                ChurnOp::Insert(f) => {
                    delta = delta.insert(to_statement(f));
                    ins.push(f.clone());
                }
                ChurnOp::Delete(f) => {
                    delta = delta.delete(to_statement(f));
                    del.push(f.clone());
                }
            }
        }
        sys.apply_delta(&delta).expect("apply");
        shadow_apply(&tbox, &mut shadow, &del, &ins);

        // Warm runs keep the memo live by querying after every batch;
        // cold runs only look at every third checkpoint (the memo was
        // never populated for the epochs in between).
        if warm || cursor % 3 == 0 {
            let q = &queries[rng.gen_range(0..queries.len())];
            let reference = engine(tbox.clone(), shadow.clone(), mode);
            assert_eq!(
                sys.answer_cq(q),
                reference.answer_cq(q),
                "{mode:?} diverged after {cursor} ops on {q:?}"
            );
            checked += 1;
        }
    }
    assert!(checked >= 5, "interleaving checked too little: {checked}");
}

#[test]
fn ucq_incremental_matches_rebuild_unsharded() {
    check_interleaving(RewritingMode::PerfectRef, 11, true);
    check_interleaving(RewritingMode::PerfectRef, 12, false);
}

#[test]
fn ndl_incremental_matches_rebuild_unsharded() {
    check_interleaving(RewritingMode::Ndl, 21, true);
    check_interleaving(RewritingMode::Ndl, 22, false);
}

/// The delete-soundness corner the targeted invalidation exists for:
/// `∃takesCourse ⊑ Student`, so a subject with *two* course pairs must
/// stay a Student answer when one pair is deleted, and drop out only
/// when the last pair goes. A memo patched by naive member-removal
/// would evict the subject too early.
#[test]
fn deleting_one_of_two_role_pairs_keeps_the_subject_in_exists() {
    let scenario = university_scenario(1, 7);
    let base = mastro::demo::build_system(&scenario)
        .expect("build")
        .materialized_abox()
        .expect("materialize")
        .abox
        .clone();
    let tbox = scenario.tbox.clone();
    let q = parse_cq("q(x) :- Student(x)", &tbox.sig).expect("parse");
    let ind = "person/exists-corner";

    for mode in [RewritingMode::PerfectRef, RewritingMode::Ndl] {
        let sys = engine(tbox.clone(), base.clone(), mode);
        let baseline = sys.answer_cq(&q);
        assert!(!baseline.iter().any(|t| t[0].to_string().contains(ind)));

        // Two pairs, warm the memo, then delete one.
        sys.apply_delta(
            &AboxDelta::new()
                .insert(DeltaStatement::binary("takesCourse", ind, "course/0"))
                .insert(DeltaStatement::binary("takesCourse", ind, "course/1")),
        )
        .expect("apply");
        let with_both = sys.answer_cq(&q);
        assert_eq!(with_both.len(), baseline.len() + 1, "{mode:?}");

        sys.apply_delta(&AboxDelta::new().delete(DeltaStatement::binary(
            "takesCourse",
            ind,
            "course/0",
        )))
        .expect("apply");
        assert_eq!(
            sys.answer_cq(&q),
            with_both,
            "{mode:?}: subject must survive while one pair remains"
        );

        sys.apply_delta(&AboxDelta::new().delete(DeltaStatement::binary(
            "takesCourse",
            ind,
            "course/1",
        )))
        .expect("apply");
        assert_eq!(
            sys.answer_cq(&q),
            baseline,
            "{mode:?}: subject must drop with its last pair"
        );
    }
}

/// Unknown predicates are rejected atomically: nothing from the batch
/// lands, and the engine keeps answering.
#[test]
fn bad_batches_are_rejected_atomically() {
    let scenario = university_scenario(1, 3);
    let base = mastro::demo::build_system(&scenario)
        .expect("build")
        .materialized_abox()
        .expect("materialize")
        .abox
        .clone();
    let tbox = scenario.tbox.clone();
    let q = parse_cq("q(x) :- Student(x)", &tbox.sig).expect("parse");
    let sys = AboxSystem::new(tbox, base).with_rewriting(RewritingMode::Ndl);
    let before = sys.answer_cq(&q);

    let bad = AboxDelta::new()
        .insert(DeltaStatement::unary("Student", "person/good"))
        .insert(DeltaStatement::unary("NoSuchConcept", "person/bad"));
    assert!(sys.apply_delta(&bad).is_err());
    assert_eq!(
        sys.answer_cq(&q),
        before,
        "a rejected batch must change nothing"
    );
}
