//! Equivalence and invalidation properties for the NDL rewriting target:
//!
//! * on the `exp_chain` preset the NDL program is polynomially sized
//!   where the raw UCQ rewriting blows past the prune cap;
//! * NDL answers are byte-identical to the unpruned UCQ's answers, to
//!   the bounded chase, and across the virtual and materialized paths;
//! * every ordering of a skeleton's body answers alike;
//! * memoized view extents are invalidated by ABox refresh and by a
//!   TBox-epoch bump — never served stale.

use std::collections::HashMap;
use std::sync::Arc;

use mastro::rewrite::ndl::{build_extent, eval_skeletons};
use mastro::rewrite::presto::ViewQuery;
use mastro::{
    evaluate_ucq_indexed, ndl_compile, perfect_ref, AboxIndex, AnswerTerm, Answers,
    ConjunctiveQuery, RewritingMode, ValueTerm,
};
use obda_dllite::{Abox, AttributeId, ConceptId, RoleId, Tbox, Value};
use obda_genont::{exp_chain, random_abox, random_tbox, university_scenario};
use obda_reasoners::chase;
use quonto::Classification;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random small safe CQ over the TBox signature (same generator shape
/// as the fastpath-equivalence suite).
fn random_query(seed: u64, t: &Tbox) -> Option<ConjunctiveQuery> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_atoms = rng.gen_range(1..=3);
    let vars = ["x", "y", "z", "w"];
    let val_vars = ["n", "m"];
    let mut atoms = Vec::new();
    for _ in 0..n_atoms {
        let v1 = mastro::Term::Var(vars[rng.gen_range(0..vars.len())].to_owned());
        match rng.gen_range(0..4) {
            0 if t.sig.num_concepts() > 0 => {
                let c = ConceptId(rng.gen_range(0..t.sig.num_concepts() as u32));
                atoms.push(mastro::Atom::Concept(c, v1));
            }
            1 if t.sig.num_attributes() > 0 => {
                let u = AttributeId(rng.gen_range(0..t.sig.num_attributes() as u32));
                let v = if rng.gen_bool(0.7) {
                    ValueTerm::Var(val_vars[rng.gen_range(0..val_vars.len())].to_owned())
                } else {
                    ValueTerm::Lit(Value::Int(rng.gen_range(0..5)))
                };
                atoms.push(mastro::Atom::Attribute(u, v1, v));
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
        let q = ConjunctiveQuery {
            head: vec![],
            atoms: atoms.clone(),
        };
        q.body_vars().into_iter().map(str::to_owned).collect()
    };
    if body_vars.is_empty() {
        return None;
    }
    let head = vec![body_vars[rng.gen_range(0..body_vars.len())].clone()];
    Some(ConjunctiveQuery { head, atoms })
}

/// Positive-only projection of a random TBox.
fn random_positive_tbox(
    seed: u64,
    concepts: usize,
    roles: usize,
    attrs: usize,
    axioms: usize,
) -> Tbox {
    let full = random_tbox(seed, concepts, roles, attrs, axioms);
    let mut pos = Tbox::with_signature(full.sig.clone());
    for ax in full.positive_inclusions() {
        pos.add(*ax);
    }
    pos
}

/// Every ordering of a query body (bodies here have at most four atoms).
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, first) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first.clone());
            out.push(tail);
        }
    }
    out
}

/// Certain answers through the bounded chase (null-filtered).
fn certain_answers_via_chase(q: &ConjunctiveQuery, tbox: &Tbox, abox: &Abox) -> Answers {
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
                AnswerTerm::Value(Value::Text(s)) => !s.starts_with("_:"),
                AnswerTerm::Value(_) => true,
            })
        })
        .collect()
}

#[test]
fn ndl_program_is_polynomial_where_ucq_explodes() {
    let c = exp_chain(5, 3, 12);
    let q = mastro::parse_cq(&c.star_query, &c.tbox.sig).unwrap();
    let raw = perfect_ref(&q, &c.tbox);
    assert_eq!(raw.len(), c.expected_ucq_disjuncts());
    assert!(
        raw.len() > 512,
        "exp_chain(5, 3) must blow past the default prune cap, got {}",
        raw.len()
    );
    let cls = Classification::classify(&c.tbox);
    let prog = ndl_compile(&q, &cls);
    assert_eq!(prog.num_rules, c.expected_ndl_rules());
    assert!(
        prog.num_rules < 64,
        "NDL program must stay polynomial, got {} rules",
        prog.num_rules
    );
}

#[test]
fn ndl_answers_match_unpruned_ucq_on_exp_chain() {
    let c = exp_chain(5, 3, 12);
    let q = mastro::parse_cq(&c.star_query, &c.tbox.sig).unwrap();
    let raw = perfect_ref(&q, &c.tbox);
    let index = AboxIndex::build(&c.abox);
    let ucq_answers = evaluate_ucq_indexed(&raw, &c.abox, &index);
    // Every individual is asserted into a subsumee of every level.
    assert_eq!(ucq_answers.len(), 12);

    let sys =
        mastro::AboxSystem::new(c.tbox.clone(), c.abox.clone()).with_rewriting(RewritingMode::Ndl);
    let ndl_answers = sys.answer_cq(&q);
    assert_eq!(ndl_answers, ucq_answers);
    // Warm pass (memoized extents) must not change anything.
    assert_eq!(sys.answer_cq(&q), ucq_answers);
}

#[test]
fn ndl_matches_perfectref_and_chase_on_random_ontologies() {
    let mut non_empty = 0;
    for seed in 0u64..80 {
        let t = random_positive_tbox(seed.wrapping_add(50_000), 4, 2, 2, 10);
        let ab = random_abox(seed ^ 0xBEEF, &t, 5, 12);
        let Some(q) = random_query(seed ^ 0xA11, &t) else {
            continue;
        };
        let pr = mastro::AboxSystem::new(t.clone(), ab.clone())
            .with_rewriting(RewritingMode::PerfectRef);
        let ndl = mastro::AboxSystem::new(t.clone(), ab.clone()).with_rewriting(RewritingMode::Ndl);
        let pr_answers = pr.answer_cq(&q);
        let ndl_answers = ndl.answer_cq(&q);
        assert_eq!(
            ndl_answers, pr_answers,
            "seed {seed}: NDL diverged from PerfectRef on {q:?}"
        );
        let certain = certain_answers_via_chase(&q, &t, &ab);
        assert_eq!(
            ndl_answers, certain,
            "seed {seed}: NDL disagrees with the chase on {q:?}"
        );
        if !ndl_answers.is_empty() {
            non_empty += 1;
        }
    }
    assert!(
        non_empty >= 15,
        "only {non_empty} runs answered anything; generators drifted"
    );
}

#[test]
fn skeleton_atom_order_never_changes_ndl_answers() {
    let mut reordered_some = 0;
    for seed in 0u64..80 {
        let t = random_positive_tbox(seed.wrapping_add(50_000), 4, 2, 2, 10);
        let ab = random_abox(seed ^ 0xBEEF, &t, 5, 12);
        let Some(q) = random_query(seed ^ 0xA11, &t) else {
            continue;
        };
        let prog = ndl_compile(&q, &Classification::classify(&t));
        let index = AboxIndex::build(&ab);
        let extents: HashMap<_, _> = prog
            .views
            .iter()
            .map(|def| (def.pred(), Arc::new(build_extent(def, &ab, &index))))
            .collect();
        // The NDL kernel plans its own join order, so every ordering of
        // a skeleton's body must answer alike.
        for vq in &prog.queries {
            let expected = eval_skeletons(std::slice::from_ref(vq), &extents);
            for atoms in permutations(&vq.atoms) {
                let reordered = ViewQuery {
                    head: vq.head.clone(),
                    atoms,
                };
                assert_eq!(
                    eval_skeletons(std::slice::from_ref(&reordered), &extents),
                    expected,
                    "seed {seed}: atom order changed the answers of {reordered:?}"
                );
            }
            if vq.atoms.len() > 1 {
                reordered_some += 1;
            }
        }
    }
    assert!(
        reordered_some >= 20,
        "only {reordered_some} skeletons had more than one atom; generators drifted"
    );
}

#[test]
fn ndl_virtual_matches_materialized_on_university() {
    let scenario = university_scenario(1, 23);
    let base = mastro::demo::build_system(&scenario).unwrap();
    let ndl_virtual = base
        .clone()
        .with_rewriting(RewritingMode::Ndl)
        .with_data_mode(mastro::DataMode::Virtual);
    let ndl_materialized = base
        .clone()
        .with_rewriting(RewritingMode::Ndl)
        .with_data_mode(mastro::DataMode::Materialized);
    let reference = base
        .with_rewriting(RewritingMode::PerfectRef)
        .with_data_mode(mastro::DataMode::Materialized);
    let mut non_empty = 0;
    for qs in &scenario.queries {
        let expected = reference.answer(&qs.text).unwrap();
        let virt = ndl_virtual.answer(&qs.text).unwrap();
        let mat = ndl_materialized.answer(&qs.text).unwrap();
        assert_eq!(virt, expected, "{}: NDL virtual diverged", qs.name);
        assert_eq!(mat, expected, "{}: NDL materialized diverged", qs.name);
        // Warm passes: shared-subplan SQL and memoized extents.
        assert_eq!(ndl_virtual.answer(&qs.text).unwrap(), expected);
        assert_eq!(ndl_materialized.answer(&qs.text).unwrap(), expected);
        if !expected.is_empty() {
            non_empty += 1;
        }
    }
    assert!(non_empty >= 3, "university scenario queries mostly empty");
}

#[test]
fn ndl_memo_is_invalidated_by_abox_refresh_and_epoch_bump() {
    let c = exp_chain(3, 2, 6);
    let q = mastro::parse_cq(&c.star_query, &c.tbox.sig).unwrap();
    let mut sys =
        mastro::AboxSystem::new(c.tbox.clone(), c.abox.clone()).with_rewriting(RewritingMode::Ndl);

    let hit = obda_obs::registry().counter("ndl_view_memo_hit");
    let miss = obda_obs::registry().counter("ndl_view_memo_miss");

    let (h0, m0) = (hit.get(), miss.get());
    let cold = sys.answer_cq(&q);
    assert_eq!(cold.len(), 6);
    // Cold pass built every view extent (other tests may add more).
    assert!(miss.get() - m0 >= 3, "cold pass must miss the memo");

    let (h1, _) = (hit.get(), miss.get());
    assert_eq!(sys.answer_cq(&q), cold);
    assert!(hit.get() - h1 >= 3, "warm pass must hit the memo");
    let _ = h0;

    // ABox mutation + refresh: the memo must drop the old extents, and
    // the new individual must show up (a stale memo would drop it).
    sys.mutate_abox(|abox| {
        abox.individual("fresh");
        for i in 1..=3u32 {
            let b = c.tbox.sig.find_concept(&format!("B{i}_0")).unwrap();
            abox.assert_concept(b, "fresh");
        }
    });
    let m2 = miss.get();
    let refreshed = sys.answer_cq(&q);
    assert_eq!(refreshed.len(), 7, "refreshed answers must include `fresh`");
    assert!(miss.get() - m2 >= 3, "refresh must rebuild the extents");

    // Epoch bump (TBox invalidation): same answers, rebuilt extents.
    sys.invalidate_rewrites();
    let m3 = miss.get();
    assert_eq!(sys.answer_cq(&q), refreshed);
    assert!(miss.get() - m3 >= 3, "epoch bump must rebuild the extents");
}
