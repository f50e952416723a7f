//! The UCQ and NDL kernels against an evaluator that shares none of
//! their code.
//!
//! The chase oracle of the other equivalence suites evaluates through
//! `mastro::evaluate_cq`, the kernel itself, so a kernel fault would show
//! on both sides and cancel out. The reference here tries every
//! assignment of a disjunct's variables over the ABox's individuals and
//! values and checks each atom against `Abox::assertions`.
//!
//! Random small ABoxes meet random UCQs with heads of arity 0–2,
//! unbound variables in subject, object and value positions, repeated
//! variables, constants (present and absent) and literals. The same
//! queries are checked again after random deletes, applied through an
//! `AboxSystem` over a TBox with no axioms — answering is then plain
//! evaluation over an index whose buckets the deletes have emptied.
//!
//! The NDL arm answers the same query shapes through an `AboxSystem` in
//! `RewritingMode::Ndl` over random positive TBoxes, so views carry
//! several members, `∃`-members and inverse roles. Its reference is the
//! brute-force evaluator over `perfect_ref`'s unpruned UCQ, so no join
//! kernel runs on the reference side. It is checked again after each of
//! three write batches of random deletes and inserts, which patch the
//! memoized view extents in place.

use std::collections::HashSet;

use mastro::rewrite::ndl::ViewDef;
use mastro::{
    evaluate_ucq_indexed, ndl_compile, perfect_ref, AboxDelta, AboxIndex, AboxSystem, AnswerTerm,
    Answers, Atom, ConjunctiveQuery, DeltaStatement, QueryEngine, RewritingMode, Term, Ucq,
    ValueTerm,
};
use obda_dllite::{
    Abox, Assertion, AttributeId, BasicConcept, BasicRole, ConceptId, IndividualId, RoleId, Tbox,
    Value,
};
use obda_genont::{random_abox, random_tbox};
use quonto::Classification;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// IRI-position variables: a small shared pool (so variables repeat)
/// plus fresh names that occur once (so they are usually unbound).
fn iri_var(rng: &mut SmallRng, fresh: &mut usize) -> String {
    if rng.gen_bool(0.35) {
        *fresh += 1;
        format!("_i{fresh}")
    } else {
        ["x", "y", "z"][rng.gen_range(0..3usize)].to_owned()
    }
}

/// Value-position variables, drawn from a disjoint pool so the queries
/// stay well-sorted, like everything the parser accepts.
fn value_var(rng: &mut SmallRng, fresh: &mut usize) -> String {
    if rng.gen_bool(0.35) {
        *fresh += 1;
        format!("_v{fresh}")
    } else {
        ["n", "m"][rng.gen_range(0..2usize)].to_owned()
    }
}

fn iri_term(rng: &mut SmallRng, fresh: &mut usize) -> Term {
    match rng.gen_range(0..10) {
        // `x5` exists (random_abox interns x0..x5); `ghost` does not.
        0 => Term::Const("x5".into()),
        1 => Term::Const("ghost".into()),
        _ => Term::Var(iri_var(rng, fresh)),
    }
}

/// A random disjunct with a head of `arity` variables picked from its
/// body; `None` when the body has too few variables for the head.
fn random_disjunct(rng: &mut SmallRng, t: &Tbox, arity: usize) -> Option<ConjunctiveQuery> {
    let mut fresh = 0;
    let mut atoms = Vec::new();
    for _ in 0..rng.gen_range(1..=3) {
        let s = iri_term(rng, &mut fresh);
        atoms.push(match rng.gen_range(0..3) {
            0 => Atom::Concept(ConceptId(rng.gen_range(0..t.sig.num_concepts() as u32)), s),
            1 => Atom::Role(
                RoleId(rng.gen_range(0..t.sig.num_roles() as u32)),
                s,
                iri_term(rng, &mut fresh),
            ),
            _ => {
                let v = if rng.gen_bool(0.25) {
                    // 0..=4 occur in random_abox's data, 5 never does.
                    ValueTerm::Lit(Value::Int(rng.gen_range(0..6)))
                } else {
                    ValueTerm::Var(value_var(rng, &mut fresh))
                };
                Atom::Attribute(
                    AttributeId(rng.gen_range(0..t.sig.num_attributes() as u32)),
                    s,
                    v,
                )
            }
        });
    }
    let mut q = ConjunctiveQuery {
        head: Vec::new(),
        atoms,
    };
    let vars: Vec<String> = q.body_vars().into_iter().map(str::to_owned).collect();
    if vars.is_empty() && arity > 0 {
        return None;
    }
    q.head = (0..arity)
        .map(|_| vars[rng.gen_range(0..vars.len())].clone())
        .collect();
    Some(q)
}

fn random_ucq(seed: u64, t: &Tbox) -> Ucq {
    let mut rng = SmallRng::seed_from_u64(seed);
    let arity = rng.gen_range(0..=2);
    let mut disjuncts = Vec::new();
    while disjuncts.len() < rng.gen_range(1..=3) {
        disjuncts.extend(random_disjunct(&mut rng, t, arity));
    }
    Ucq { disjuncts }
}

/// One candidate binding of the brute-force evaluator.
#[derive(Debug, Clone, PartialEq)]
enum Cand {
    Ind(IndividualId),
    Val(Value),
}

/// The reference: every assignment of the body's variables, each atom
/// checked against the assertion list. A variable ranges over the
/// ABox's individuals if it occurs in an IRI position and over the
/// values of its attribute assertions if it occurs in a value
/// position (over nothing if both: no candidate of the other sort
/// could satisfy its atoms anyway).
fn brute_force(q: &ConjunctiveQuery, abox: &Abox) -> Answers {
    let facts: HashSet<&Assertion> = abox.assertions().iter().collect();
    let individuals: Vec<Cand> = (0..abox.num_individuals() as u32)
        .map(|i| Cand::Ind(IndividualId(i)))
        .collect();
    let mut values: Vec<Cand> = Vec::new();
    for a in abox.assertions() {
        if let Assertion::Attribute(_, _, v) = a {
            if !values.contains(&Cand::Val(v.clone())) {
                values.push(Cand::Val(v.clone()));
            }
        }
    }
    let vars = q.body_vars();
    let in_value_position = |var: &str| {
        q.atoms
            .iter()
            .any(|a| matches!(a, Atom::Attribute(_, _, ValueTerm::Var(x)) if x == var))
    };
    let in_iri_position = |var: &str| {
        q.atoms.iter().any(|a| match a {
            Atom::Concept(_, t) => t.as_var() == Some(var),
            Atom::Role(_, s, o) => s.as_var() == Some(var) || o.as_var() == Some(var),
            Atom::Attribute(_, s, _) => s.as_var() == Some(var),
        })
    };
    let domains: Vec<&[Cand]> = vars
        .iter()
        .map(|v| match (in_iri_position(v), in_value_position(v)) {
            (true, false) => &individuals[..],
            (false, true) => &values[..],
            _ => &[][..],
        })
        .collect();
    let mut out = Answers::new();
    // A head variable missing from the body (PerfectRef's reduce can
    // bind one to a literal) makes the disjunct unsafe: it answers
    // nothing, as in the kernels, and the unreduced disjunct it came
    // from keeps its answers.
    let unsafe_head = q.head.iter().any(|h| !vars.contains(&h.as_str()));
    if unsafe_head || domains.iter().any(|d| d.is_empty()) {
        return out;
    }
    let mut pick = vec![0usize; vars.len()];
    loop {
        let value_of = |name: &str| {
            let k = vars.iter().position(|v| *v == name).unwrap();
            &domains[k][pick[k]]
        };
        let ind = |t: &Term| match t {
            Term::Const(c) => abox.find_individual(c),
            Term::Var(v) => match value_of(v) {
                Cand::Ind(i) => Some(*i),
                Cand::Val(_) => None,
            },
        };
        let holds = q.atoms.iter().all(|atom| {
            let fact = match atom {
                Atom::Concept(c, t) => ind(t).map(|i| Assertion::Concept(*c, i)),
                Atom::Role(p, s, o) => ind(s).zip(ind(o)).map(|(s, o)| Assertion::Role(*p, s, o)),
                Atom::Attribute(u, s, v) => {
                    let val = match v {
                        ValueTerm::Lit(l) => Some(l.clone()),
                        ValueTerm::Var(x) => match value_of(x) {
                            Cand::Val(val) => Some(val.clone()),
                            Cand::Ind(_) => None,
                        },
                    };
                    ind(s).zip(val).map(|(s, v)| Assertion::Attribute(*u, s, v))
                }
            };
            fact.is_some_and(|f| facts.contains(&f))
        });
        if holds {
            out.insert(
                q.head
                    .iter()
                    .map(|h| match value_of(h) {
                        Cand::Ind(i) => AnswerTerm::Iri(abox.individual_name(*i).to_owned()),
                        Cand::Val(v) => AnswerTerm::Value(v.clone()),
                    })
                    .collect(),
            );
        }
        // Next assignment (an odometer over `pick`).
        let Some(k) = (0..pick.len()).find(|&k| pick[k] + 1 < domains[k].len()) else {
            return out;
        };
        pick[k] += 1;
        for p in &mut pick[..k] {
            *p = 0;
        }
    }
}

fn brute_force_ucq(u: &Ucq, abox: &Abox) -> Answers {
    u.disjuncts
        .iter()
        .flat_map(|d| brute_force(d, abox))
        .collect()
}

/// An assertion as the write-path statement that deletes it.
fn statement(t: &Tbox, abox: &Abox, a: &Assertion) -> DeltaStatement {
    let name = |i: &IndividualId| abox.individual_name(*i).to_owned();
    match a {
        Assertion::Concept(c, i) => DeltaStatement::unary(t.sig.concept_name(*c), name(i)),
        Assertion::Role(p, s, o) => DeltaStatement::binary(t.sig.role_name(*p), name(s), name(o)),
        Assertion::Attribute(u, s, v) => {
            DeltaStatement::binary_value(t.sig.attribute_name(*u), name(s), v.clone())
        }
    }
}

#[test]
fn kernel_matches_brute_force_before_and_after_deletes() {
    let mut compared = 0;
    // Unbound variables seen in subject, object and value positions.
    let mut unbound_positions = [0usize; 3];
    let mut emptied = 0;
    for seed in 0..40u64 {
        let t = random_tbox(seed, 3, 2, 2, 0);
        let mut abox = random_abox(seed, &t, 6, 24);
        let queries: Vec<Ucq> = (0..12).map(|k| random_ucq(seed * 100 + k, &t)).collect();
        for d in queries.iter().flat_map(|u| &u.disjuncts) {
            let unbound = |v: Option<&str>| v.is_some_and(|v| d.is_unbound(v));
            for atom in &d.atoms {
                let (s, o) = match atom {
                    Atom::Concept(_, t) => (t.as_var(), None),
                    Atom::Role(_, s, o) => (s.as_var(), o.as_var()),
                    Atom::Attribute(_, s, v) => (s.as_var(), v.as_var()),
                };
                let value = matches!(atom, Atom::Attribute(..));
                unbound_positions[0] += usize::from(unbound(s));
                unbound_positions[1] += usize::from(!value && unbound(o));
                unbound_positions[2] += usize::from(value && unbound(o));
            }
        }

        let index = AboxIndex::build(&abox);
        for u in &queries {
            let want = brute_force_ucq(u, &abox);
            assert_eq!(
                evaluate_ucq_indexed(u, &abox, &index),
                want,
                "seed {seed}: {u:?}"
            );
            compared += 1;
        }

        // Delete about half the facts in three batches, and every fact
        // of one predicate, so whole extensions and buckets empty.
        let sys = AboxSystem::new(t.clone(), abox.clone());
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let victim = rng.gen_range(0..2);
        let doomed: Vec<Assertion> = abox
            .assertions()
            .iter()
            .filter(|a| match a {
                Assertion::Role(p, _, _) if victim == 0 => p.0 == 0,
                Assertion::Attribute(u, _, _) if victim == 1 => u.0 == 0,
                _ => rng.gen_bool(0.5),
            })
            .cloned()
            .collect();
        for batch in doomed.chunks(doomed.len().div_ceil(3).max(1)) {
            let delta = batch
                .iter()
                .fold(AboxDelta::new(), |d, a| d.delete(statement(&t, &abox, a)));
            sys.apply_delta(&delta).unwrap();
        }
        for a in &doomed {
            assert!(abox.remove(a));
        }
        // Subject buckets the deletes emptied (the subject has no fact
        // of that role or attribute left).
        emptied += doomed
            .iter()
            .filter(|a| {
                !abox.assertions().iter().any(|b| match (a, b) {
                    (Assertion::Role(p, s, _), Assertion::Role(q, r, _)) => p == q && s == r,
                    (Assertion::Attribute(u, s, _), Assertion::Attribute(w, r, _)) => {
                        u == w && s == r
                    }
                    _ => false,
                })
            })
            .filter(|a| !matches!(a, Assertion::Concept(..)))
            .count();
        for u in &queries {
            let want = brute_force_ucq(u, &abox);
            let mut got = Answers::new();
            for d in &u.disjuncts {
                let answers = sys.answer_cq(d);
                assert_eq!(
                    answers,
                    brute_force(d, &abox),
                    "seed {seed} after deletes: {d:?}"
                );
                got.extend(answers);
            }
            assert_eq!(got, want, "seed {seed} after deletes: {u:?}");
            compared += 1;
        }
    }
    // Guard against the generator drifting away from the shapes under test.
    assert_eq!(compared, 40 * 12 * 2);
    assert!(
        unbound_positions.iter().all(|&n| n > 50),
        "unbound subject/object/value positions: {unbound_positions:?}"
    );
    assert!(emptied > 100, "{emptied} buckets emptied");
}

/// The positive inclusions of a random TBox: every ABox is consistent
/// with it, and its views carry several members.
fn positive_tbox(seed: u64) -> Tbox {
    let full = random_tbox(seed, 3, 2, 2, 10);
    let mut pos = Tbox::with_signature(full.sig.clone());
    for ax in full.positive_inclusions() {
        pos.add(*ax);
    }
    pos
}

/// A random fact over `t`'s signature, its subject and object drawn
/// from `x0`…`x6` (`x6` is new to `random_abox`'s data); interned into
/// `abox` so the write statement can name it.
fn random_fact(rng: &mut SmallRng, t: &Tbox, abox: &mut Abox) -> Assertion {
    let mut ind = |rng: &mut SmallRng| abox.individual(&format!("x{}", rng.gen_range(0..7)));
    let s = ind(rng);
    match rng.gen_range(0..3) {
        0 => Assertion::Concept(ConceptId(rng.gen_range(0..t.sig.num_concepts() as u32)), s),
        1 => Assertion::Role(
            RoleId(rng.gen_range(0..t.sig.num_roles() as u32)),
            s,
            ind(rng),
        ),
        _ => Assertion::Attribute(
            AttributeId(rng.gen_range(0..t.sig.num_attributes() as u32)),
            s,
            Value::Int(rng.gen_range(0..5)),
        ),
    }
}

#[test]
fn ndl_matches_brute_force_over_perfect_ref_before_and_after_writes() {
    let mut compared = 0;
    // View members: all, beyond a view's own target, `∃`-members, and
    // inverse role members.
    let mut members = [0usize; 4];
    let mut deleted = 0;
    for seed in 0..20u64 {
        let t = positive_tbox(seed.wrapping_add(70_000));
        let mut abox = random_abox(seed, &t, 6, 24);
        let queries: Vec<ConjunctiveQuery> = (0..6)
            .flat_map(|k| random_ucq(seed * 100 + k, &t).disjuncts)
            .collect();
        let cls = Classification::classify(&t);
        for q in &queries {
            for view in ndl_compile(q, &cls).views {
                match view {
                    ViewDef::Concept { target, members: m } => {
                        members[0] += m.len();
                        members[1] += m.iter().filter(|b| **b != target).count();
                        members[2] += m
                            .iter()
                            .filter(|b| matches!(b, BasicConcept::Exists(_)))
                            .count();
                    }
                    ViewDef::Role { target, members: m } => {
                        members[0] += m.len();
                        members[1] += m.iter().filter(|r| **r != target).count();
                        members[3] += m
                            .iter()
                            .filter(|r| matches!(r, BasicRole::Inverse(_)))
                            .count();
                    }
                    ViewDef::Attr { target, members: m } => {
                        members[0] += m.len();
                        members[1] += m.iter().filter(|u| **u != target).count();
                    }
                }
            }
        }

        let sys = AboxSystem::new(t.clone(), abox.clone()).with_rewriting(RewritingMode::Ndl);
        let check = |abox: &Abox, when: &str| {
            for q in &queries {
                let want = brute_force_ucq(&perfect_ref(q, &t), abox);
                assert_eq!(sys.answer_cq(q), want, "seed {seed} {when}: {q:?}");
            }
        };
        // The first pass memoizes every view extent, so the writes below
        // patch them rather than build them afresh.
        check(&abox, "before writes");
        compared += queries.len();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD17A);
        for batch in 0..3 {
            let doomed: Vec<Assertion> = abox
                .assertions()
                .iter()
                .filter(|_| rng.gen_bool(0.25))
                .cloned()
                .collect();
            let fresh: Vec<Assertion> = (0..4)
                .map(|_| random_fact(&mut rng, &t, &mut abox))
                .collect();
            let delta = doomed
                .iter()
                .fold(AboxDelta::new(), |d, a| d.delete(statement(&t, &abox, a)));
            let delta = fresh
                .iter()
                .fold(delta, |d, a| d.insert(statement(&t, &abox, a)));
            sys.apply_delta(&delta).unwrap();
            // Deletes apply before inserts, as the write path orders them.
            for a in &doomed {
                assert!(abox.remove(a));
            }
            for a in fresh {
                abox.add(a);
            }
            deleted += doomed.len();
            check(&abox, &format!("after write batch {batch}"));
            compared += queries.len();
        }
    }
    // Guard against the generators drifting away from the shapes under test.
    assert!(compared > 500, "{compared} queries compared");
    assert!(
        members[1] > 300 && members[2] > 200 && members[3] > 20,
        "view members (all, non-target, ∃, inverse): {members:?}"
    );
    assert!(deleted > 150, "{deleted} facts deleted");
}
