//! Equivalence properties for the query-answering fast path:
//!
//! * the predicate-indexed PerfectRef must produce the same UCQ (as a
//!   canonical set) as the original axiom-scanning loop;
//! * subsumption pruning must not change answers — pruned and unpruned
//!   UCQs agree with each other and with the certain answers computed
//!   independently by the bounded chase;
//! * a UCQ answers as the union of its disjuncts' answers, and every
//!   ordering of a query's body answers alike;
//! * the rewrite caches answer warm queries identically to cold ones.

use std::collections::BTreeSet;

use mastro::{
    evaluate_cq_indexed, evaluate_ucq_indexed, perfect_ref, perfect_ref_scan, prune_ucq, AboxIndex,
    AnswerTerm, Answers, ConjunctiveQuery, Ucq, ValueTerm,
};
use obda_dllite::{Abox, AttributeId, ConceptId, RoleId, Tbox, Value};
use obda_genont::{random_abox, random_tbox, university_scenario};
use obda_reasoners::chase;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random small safe CQ over the TBox signature (same shape as the
/// rewriting-correctness suite, plus attribute atoms). The head picks
/// any body variable, so value-typed head variables (`q(n) :- u0(x, n)`)
/// occur regularly — the shape that exercises the sort-aware head
/// seeding in subsumption pruning.
fn random_query(seed: u64, t: &Tbox) -> Option<ConjunctiveQuery> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_atoms = rng.gen_range(1..=3);
    let vars = ["x", "y", "z", "w"];
    // Disjoint pool for attribute value positions: generated queries
    // stay well-sorted, like everything the parser accepts.
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

fn canonical_set(u: &Ucq) -> BTreeSet<ConjunctiveQuery> {
    u.disjuncts.iter().map(|q| q.canonical()).collect()
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

/// Certain answers through the bounded chase (null-filtered). Besides
/// null individuals, the chase invents null *values* (`_:v…` text
/// literals, from attribute-domain existentials) — neither may appear
/// in a certain answer.
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
fn indexed_rewriter_matches_scanning_loop_on_random_tboxes() {
    let mut non_trivial = 0;
    for seed in 0u64..150 {
        // Keep the full TBox (negative inclusions included): PerfectRef
        // only looks at positive inclusions, and the index must agree
        // with the scan in skipping the rest.
        let t = random_tbox(seed.wrapping_add(2_000), 5, 3, 1, 14);
        let Some(q) = random_query(seed ^ 0x1D8, &t) else {
            continue;
        };
        let indexed = perfect_ref(&q, &t);
        let scanned = perfect_ref_scan(&q, &t);
        assert_eq!(
            canonical_set(&indexed),
            canonical_set(&scanned),
            "seed {seed}: query {q:?} over {} axioms",
            t.len()
        );
        if indexed.len() > 1 {
            non_trivial += 1;
        }
    }
    assert!(
        non_trivial >= 30,
        "only {non_trivial} runs rewrote into >1 disjunct; generators drifted"
    );
}

#[test]
fn pruned_ucq_answers_match_unpruned_and_chase() {
    let mut pruned_something = 0;
    let mut value_headed = 0;
    for seed in 0u64..120 {
        let t = random_positive_tbox(seed.wrapping_add(9_000), 4, 2, 2, 10);
        let ab = random_abox(seed ^ 0xCAFE, &t, 4, 8);
        let Some(q) = random_query(seed ^ 0xD1CE, &t) else {
            continue;
        };
        if q.atoms.iter().any(
            |a| matches!(a, mastro::Atom::Attribute(_, _, ValueTerm::Var(v)) if Some(v.as_str()) == q.head.first().map(String::as_str)),
        ) {
            value_headed += 1;
        }
        let raw = perfect_ref(&q, &t);
        let pruned = prune_ucq(&raw);
        assert!(pruned.len() <= raw.len());
        let index = AboxIndex::build(&ab);
        let unpruned_answers = evaluate_ucq_indexed(&raw, &ab, &index);
        let pruned_answers = evaluate_ucq_indexed(&pruned, &ab, &index);
        assert_eq!(
            unpruned_answers,
            pruned_answers,
            "seed {seed}: pruning {} -> {} disjuncts changed answers for {q:?}",
            raw.len(),
            pruned.len()
        );
        let certain = certain_answers_via_chase(&q, &t, &ab);
        assert_eq!(
            pruned_answers, certain,
            "seed {seed}: pruned UCQ disagrees with the chase for {q:?}"
        );
        if pruned.len() < raw.len() {
            pruned_something += 1;
        }
    }
    assert!(
        pruned_something >= 10,
        "only {pruned_something} runs pruned anything; generators drifted"
    );
    assert!(
        value_headed >= 10,
        "only {value_headed} runs had a value-typed head variable; generators drifted"
    );
}

#[test]
fn ucq_answers_are_the_union_of_every_disjunct_order() {
    for seed in 0u64..40 {
        let t = random_positive_tbox(seed.wrapping_add(31_000), 5, 3, 2, 12);
        let ab = random_abox(seed ^ 0xFEED, &t, 6, 16);
        let Some(q) = random_query(seed ^ 0xACE, &t) else {
            continue;
        };
        let ucq = perfect_ref(&q, &t);
        let index = AboxIndex::build(&ab);
        // The join kernel plans its own order, so every ordering of a
        // body answers alike: the query's and each disjunct's.
        for body in std::iter::once(&q).chain(&ucq.disjuncts) {
            let answers = evaluate_cq_indexed(body, &ab, &index);
            for atoms in permutations(&body.atoms) {
                let reordered = ConjunctiveQuery {
                    head: body.head.clone(),
                    atoms,
                };
                assert_eq!(
                    evaluate_cq_indexed(&reordered, &ab, &index),
                    answers,
                    "seed {seed}: atom order changed the answers of {reordered:?}"
                );
            }
        }
        let union: Answers = ucq
            .disjuncts
            .iter()
            .flat_map(|d| evaluate_cq_indexed(d, &ab, &index))
            .collect();
        assert_eq!(
            evaluate_ucq_indexed(&ucq, &ab, &index),
            union,
            "seed {seed}: the UCQ diverged from its {} disjuncts' union",
            ucq.len()
        );
    }
}

#[test]
fn warm_rewrite_cache_answers_match_cold() {
    let scenario = university_scenario(1, 13);
    let mut sys = mastro::demo::build_system(&scenario)
        .unwrap()
        .with_rewriting(mastro::RewritingMode::PerfectRef)
        .with_data_mode(mastro::DataMode::Materialized);
    for qs in &scenario.queries {
        let cold = sys.answer(&qs.text).unwrap();
        let warm = sys.answer(&qs.text).unwrap();
        assert_eq!(cold, warm, "{}: warm cache changed answers", qs.name);
    }
    let stats = sys.rewrite_cache_stats();
    assert_eq!(stats.hits, scenario.queries.len() as u64);
    assert_eq!(stats.misses, scenario.queries.len() as u64);
    // Invalidation restores the cold path.
    sys.invalidate_rewrites();
    assert_eq!(sys.tbox_epoch(), 1);
    let again = sys.answer(&scenario.queries[0].text).unwrap();
    assert!(!again.is_empty());
    assert_eq!(
        sys.rewrite_cache_stats().misses,
        scenario.queries.len() as u64 + 1
    );
}

#[test]
fn abox_system_warm_cache_preserves_answers() {
    let t = random_positive_tbox(77, 5, 3, 2, 14);
    let ab = random_abox(0x5CA1E, &t, 8, 24);
    let sys = mastro::AboxSystem::new(t.clone(), ab.clone());
    for seed in 0u64..30 {
        let Some(q) = random_query(seed ^ 0xB0B, &t) else {
            continue;
        };
        let text = mastro::print_cq(&q, &t.sig);
        let cold = sys.answer(&text).unwrap();
        let warm = sys.answer(&text).unwrap();
        assert_eq!(cold, warm, "warm cache changed answers for {text}");
    }
    assert!(sys.rewrite_cache_stats().hits > 0);
}
