//! Equivalence properties for EBox constraint-aware pruning: enabling
//! the EBox must never change an answer, only the amount of rewriting
//! work performed. Two properties pin that down:
//!
//! * **Random ontologies**: on random positive-only TBoxes and ABoxes,
//!   an `Infer`-mode engine, an `Off`-mode engine, and the independent
//!   bounded-chase oracle must all return the same certain answers —
//!   and the inferred EBoxes must actually carry constraints, so the
//!   comparison exercises the pruned code path.
//! * **Constraint-invalidating writes**: a delta that asserts a fact
//!   for a predicate the EBox marked empty must retract the stale
//!   constraint *and* keep the engine byte-identical to a system
//!   rebuilt (constraints re-inferred) from the post-write fact set,
//!   also across a whole churn stream.

use mastro::{
    parse_cq, AboxDelta, AboxSystem, AnswerTerm, Answers, DeltaStatement, EboxMode, QueryEngine,
};
use obda_dllite::{Abox, Assertion, ConceptId, RoleId, Signature, Tbox, Value};
use obda_genont::{churn_stream, random_abox, random_tbox, university_scenario, ChurnFact};
use obda_reasoners::chase;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random small safe CQ over the TBox signature (same generator shape
/// as `rewriting_correctness.rs`, different seeds).
fn random_query(seed: u64, t: &Tbox) -> Option<mastro::ConjunctiveQuery> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_atoms = rng.gen_range(1..=3);
    let vars = ["x", "y", "z", "w"];
    let mut atoms = Vec::new();
    for _ in 0..n_atoms {
        let v1 = mastro::Term::Var(vars[rng.gen_range(0..vars.len())].to_owned());
        match rng.gen_range(0..2) {
            0 if t.sig.num_concepts() > 0 => {
                let c = ConceptId(rng.gen_range(0..t.sig.num_concepts() as u32));
                atoms.push(mastro::Atom::Concept(c, v1));
            }
            _ if t.sig.num_roles() > 0 => {
                let p = RoleId(rng.gen_range(0..t.sig.num_roles() as u32));
                let v2 = mastro::Term::Var(vars[rng.gen_range(0..vars.len())].to_owned());
                atoms.push(mastro::Atom::Role(p, v1, v2));
            }
            _ => return None,
        }
    }
    let body_vars: Vec<String> = {
        let q = mastro::ConjunctiveQuery {
            head: vec![],
            atoms: atoms.clone(),
        };
        q.body_vars().into_iter().map(str::to_owned).collect()
    };
    if body_vars.is_empty() {
        return None;
    }
    let head = vec![body_vars[rng.gen_range(0..body_vars.len())].clone()];
    Some(mastro::ConjunctiveQuery { head, atoms })
}

/// Certain answers through the bounded chase — the oracle is entirely
/// independent of the rewriting and of the EBox machinery.
fn certain_answers_via_chase(q: &mastro::ConjunctiveQuery, tbox: &Tbox, abox: &Abox) -> Answers {
    let depth = q.atoms.len() + 2;
    let chased = chase(tbox, abox, depth);
    mastro::evaluate_cq(q, &chased.abox)
        .into_iter()
        .filter(|tuple| {
            tuple.iter().all(|t| match t {
                AnswerTerm::Iri(name) => chased
                    .abox
                    .find_individual(name)
                    .is_some_and(|i| !chased.is_null(i)),
                AnswerTerm::Value(_) => true,
            })
        })
        .collect()
}

/// Positive-only restriction of a random TBox (certain answers are
/// defined for consistent KBs; negative inclusions don't change CQ
/// answers on consistent data).
fn positive_tbox(seed: u64) -> Tbox {
    let full = random_tbox(seed, 4, 2, 0, 10);
    let mut pos = Tbox::with_signature(full.sig.clone());
    for ax in full.positive_inclusions() {
        pos.add(*ax);
    }
    pos
}

#[test]
fn ebox_pruned_answers_equal_unpruned_and_chase() {
    let mut non_trivial = 0;
    let mut constrained = 0;
    for seed in 0u64..120 {
        let t = positive_tbox(seed.wrapping_add(0xEB0));
        let ab = random_abox(seed ^ 0xE0B0, &t, 4, 8);
        let Some(q) = random_query(seed ^ 0x0BDA, &t) else {
            continue;
        };
        let pruned = AboxSystem::new(t.clone(), ab.clone()).with_ebox_mode(EboxMode::Infer);
        let unpruned = AboxSystem::new(t.clone(), ab.clone());
        assert_eq!(
            unpruned.ebox_constraints(),
            0,
            "Off mode must carry no EBox"
        );
        if pruned.ebox_constraints() > 0 {
            constrained += 1;
        }
        let with_ebox = pruned.answer_cq(&q);
        let without = unpruned.answer_cq(&q);
        let certain = certain_answers_via_chase(&q, &t, &ab);
        assert_eq!(
            with_ebox, without,
            "seed {seed}: EBox pruning changed answers for {q:?}"
        );
        assert_eq!(
            with_ebox,
            certain,
            "seed {seed}: pruned rewriting diverged from the chase for {q:?} over {} axioms",
            t.len()
        );
        if !certain.is_empty() {
            non_trivial += 1;
        }
    }
    assert!(
        non_trivial >= 20,
        "only {non_trivial} runs had answers; generators drifted"
    );
    assert!(
        constrained >= 40,
        "only {constrained} runs inferred any EBox constraint; the property no longer \
         exercises the pruned path"
    );
}

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

/// Applies one batch to the shadow ABox with the write path's
/// semantics: deletes first, then inserts.
fn shadow_apply(tbox: &Tbox, shadow: &mut Abox, deletes: &[ChurnFact], inserts: &[ChurnFact]) {
    for f in deletes {
        let a = match f {
            ChurnFact::Concept {
                concept,
                individual,
            } => tbox
                .sig
                .find_concept(concept)
                .and_then(|c| Some(Assertion::Concept(c, shadow.find_individual(individual)?))),
            ChurnFact::Role {
                role,
                subject,
                object,
            } => tbox.sig.find_role(role).and_then(|p| {
                Some(Assertion::Role(
                    p,
                    shadow.find_individual(subject)?,
                    shadow.find_individual(object)?,
                ))
            }),
            ChurnFact::Attr {
                attr,
                individual,
                text,
            } => tbox.sig.find_attribute(attr).and_then(|u| {
                Some(Assertion::Attribute(
                    u,
                    shadow.find_individual(individual)?,
                    Value::Text(text.clone()),
                ))
            }),
        };
        if let Some(a) = a {
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

/// The scenario's benchmark queries, parsed.
fn scenario_queries(
    scale: usize,
    seed: u64,
    sig: &Signature,
) -> Vec<(String, mastro::ConjunctiveQuery)> {
    university_scenario(scale, seed)
        .queries
        .into_iter()
        .map(|q| {
            let parsed = parse_cq(&q.text, sig).expect("scenario query parses");
            (q.name, parsed)
        })
        .collect()
}

/// The materialized university ABox (entailed facts included) — the
/// same fact set `demo::build_system` serves from.
fn university_abox(scale: usize, seed: u64) -> (Tbox, Abox) {
    let scenario = university_scenario(scale, seed);
    let sys = mastro::demo::build_system(&scenario).expect("university system");
    let mat = sys.materialized_abox().expect("materializes");
    (scenario.tbox.clone(), mat.abox.clone())
}

#[test]
fn constraint_invalidating_delta_matches_rebuild() {
    let (tbox, abox) = university_abox(1, 11);
    let live = AboxSystem::new(tbox.clone(), abox.clone()).with_ebox_mode(EboxMode::Infer);
    let before = live.ebox_constraints();
    assert!(
        before > 0,
        "university data must yield inferred constraints"
    );

    // A concept with no instances in the materialized ABox: its
    // emptiness is exactly the kind of constraint `Infer` records and
    // an insert must invalidate.
    let empty_concept = tbox
        .sig
        .concepts()
        .map(|c| tbox.sig.concept_name(c).to_owned())
        .find(|name| {
            let q = parse_cq(&format!("q(x) :- {name}(x)"), &tbox.sig).unwrap();
            live.answer_cq(&q).is_empty()
        })
        .expect("some concept is unasserted in the university ABox");
    let probe = parse_cq(&format!("q(x) :- {empty_concept}(x)"), &tbox.sig).unwrap();

    // Insert a fresh individual into the empty concept through the
    // write path. The stale "empty" constraint must be retracted…
    let delta = AboxDelta::new().insert(DeltaStatement::unary(&empty_concept, "being/omega"));
    let summary = live.apply_delta(&delta).expect("write path accepts");
    assert_eq!(summary.inserted, 1);
    let after = live.ebox_constraints();
    assert!(
        after < before,
        "inserting into `{empty_concept}` must retract its emptiness \
         constraint ({before} -> {after})"
    );

    // …and the engine must now agree, answer for answer, with a system
    // rebuilt over the post-write fact set — both with constraints
    // re-inferred from scratch and with the EBox off entirely.
    let mut shadow = abox.clone();
    shadow_apply(
        &tbox,
        &mut shadow,
        &[],
        &[ChurnFact::Concept {
            concept: empty_concept.clone(),
            individual: "being/omega".into(),
        }],
    );
    let rebuilt = AboxSystem::new(tbox.clone(), shadow.clone()).with_ebox_mode(EboxMode::Infer);
    let plain = AboxSystem::new(tbox.clone(), shadow.clone());
    let mut queries = scenario_queries(1, 11, &tbox.sig);
    queries.push(("probe".into(), probe.clone()));
    for (name, q) in &queries {
        let got = live.answer_cq(q);
        assert_eq!(got, rebuilt.answer_cq(q), "{name}: live vs rebuilt-Infer");
        assert_eq!(got, plain.answer_cq(q), "{name}: live vs rebuilt-Off");
    }
    assert!(!live.answer_cq(&probe).is_empty(), "the insert must answer");

    // Deleting the fact again keeps the engine sound: the EBox only
    // ever weakens on writes, so the re-emptied predicate stays
    // unconstrained — and answers still match a from-scratch rebuild.
    let undo = AboxDelta::new().delete(DeltaStatement::unary(&empty_concept, "being/omega"));
    live.apply_delta(&undo).expect("delete applies");
    assert!(live.answer_cq(&probe).is_empty());
    let reverted = AboxSystem::new(tbox.clone(), abox.clone());
    for (name, q) in &queries {
        assert_eq!(
            live.answer_cq(q),
            reverted.answer_cq(q),
            "{name}: undo must restore the original answers"
        );
    }
}

#[test]
fn churn_stream_keeps_infer_engine_rebuild_identical() {
    let (tbox, abox) = university_abox(1, 23);
    let live = AboxSystem::new(tbox.clone(), abox.clone()).with_ebox_mode(EboxMode::Infer);
    let off = AboxSystem::new(tbox.clone(), abox.clone());
    let mut shadow = abox;
    let queries = scenario_queries(1, 23, &tbox.sig);

    let stream = churn_stream(1, 23, 96);
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut i = 0;
    let mut checkpoints = 0;
    while i < stream.len() {
        let take = rng.gen_range(1usize..=7).min(stream.len() - i);
        let mut delta = AboxDelta::new();
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for op in &stream[i..i + take] {
            if op.is_insert() {
                delta = delta.insert(to_statement(op.fact()));
                inserts.push(op.fact().clone());
            } else {
                delta = delta.delete(to_statement(op.fact()));
                deletes.push(op.fact().clone());
            }
        }
        i += take;
        live.apply_delta(&delta).expect("churn batch applies");
        off.apply_delta(&delta).expect("churn batch applies");
        shadow_apply(&tbox, &mut shadow, &deletes, &inserts);

        // Checkpoint: the incrementally maintained Infer engine, the
        // Off engine fed the same writes, and an Infer engine rebuilt
        // from the shadow fact set all agree on every benchmark query.
        let rebuilt = AboxSystem::new(tbox.clone(), shadow.clone()).with_ebox_mode(EboxMode::Infer);
        for (name, q) in &queries {
            let got = live.answer_cq(q);
            assert_eq!(got, off.answer_cq(q), "{name} after {i} churn ops (vs Off)");
            assert_eq!(
                got,
                rebuilt.answer_cq(q),
                "{name} after {i} churn ops (vs rebuild)"
            );
        }
        checkpoints += 1;
    }
    assert!(
        checkpoints >= 5,
        "stream sliced too coarsely: {checkpoints}"
    );
}
