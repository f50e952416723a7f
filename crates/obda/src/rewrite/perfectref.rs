//! **PerfectRef**: the classic UCQ rewriting algorithm for DL-Lite
//! (Calvanese, De Giacomo, Lembo, Lenzerini, Rosati), extended with the
//! pair rule for the qualified existentials of the paper's dialect.
//!
//! Given a CQ `q` and a TBox `T`, the rewriting is a UCQ `q'` such that
//! evaluating `q'` over any ABox alone returns exactly the certain
//! answers of `q` over `(T, ABox)`. The loop alternates two steps until
//! no new (canonicalized) CQ appears:
//!
//! * **applicability** — a positive inclusion is applied backwards to one
//!   atom: `A(x)` with `B ⊑ A` becomes the atom of `B` on `x`;
//!   `P(x, _)` with `B ⊑ ∃P` (or `B ⊑ ∃P.C`) becomes the atom of `B` on
//!   `x`; role/attribute inclusions rewrite role/attribute atoms; the
//!   **pair rule** rewrites `{Q(x, y), A(y)}` with `y` local to the pair
//!   into the atom of `B` for an axiom `B ⊑ ∃Q.A`;
//! * **reduce** — two unifiable atoms are merged by their most general
//!   unifier, which can turn bound variables into unbound ones and enable
//!   further applicability steps.
//!
//! Completeness is property-tested against the bounded chase in the
//! crate's integration tests.

use std::collections::{HashMap, HashSet, VecDeque};

use obda_dllite::{Axiom, BasicConcept, BasicRole, GeneralConcept, GeneralRole, PiIndex, Tbox};

use crate::query::{Atom, ConjunctiveQuery, Term, Ucq, ValueTerm};

/// Where the rewriting loop finds candidate axioms for an atom: either
/// the original axiom-scanning loop (every positive inclusion, for
/// every atom — kept as the differential-testing baseline) or the
/// predicate-indexed applicability map, which only yields axioms whose
/// right-hand side mentions the atom's predicate.
enum AxiomSource<'a> {
    Scan(&'a Tbox),
    Indexed(&'a PiIndex),
}

impl<'a> AxiomSource<'a> {
    /// Candidate axioms for step (a) on `atom`.
    fn applicable(&self, atom: &Atom) -> Box<dyn Iterator<Item = &'a Axiom> + 'a> {
        match self {
            AxiomSource::Scan(t) => Box::new(t.positive_inclusions()),
            AxiomSource::Indexed(ix) => match atom {
                Atom::Concept(c, _) => Box::new(ix.for_concept_atom(*c).iter()),
                Atom::Role(p, _, _) => Box::new(ix.for_role_atom(*p).iter()),
                Atom::Attribute(u, _, _) => Box::new(ix.for_attribute_atom(*u).iter()),
            },
        }
    }

    /// Candidate qualified axioms for the pair rule on a role atom of
    /// `p`.
    fn qual_candidates(&self, p: obda_dllite::RoleId) -> Box<dyn Iterator<Item = &'a Axiom> + 'a> {
        match self {
            AxiomSource::Scan(t) => Box::new(t.positive_inclusions()),
            AxiomSource::Indexed(ix) => Box::new(ix.quals_for_role(p).iter()),
        }
    }
}

/// Rewrites a CQ into the PerfectRef UCQ, using the predicate-indexed
/// applicability map (the fast path).
pub fn perfect_ref(q: &ConjunctiveQuery, tbox: &Tbox) -> Ucq {
    let ix = tbox.pi_index();
    perfect_ref_with_index(q, &ix)
}

/// [`perfect_ref_with_index`] under a `perfectref` trace span recording
/// the raw disjunct count.
pub fn perfect_ref_traced(q: &ConjunctiveQuery, ix: &PiIndex, ctx: &obda_obs::TraceCtx) -> Ucq {
    let guard = obda_obs::span!(ctx, "perfectref");
    let u = perfect_ref_with_index(q, ix);
    guard.count("disjuncts", u.len() as u64);
    u
}

/// Rewrites against a pre-built [`PiIndex`] (callers that rewrite many
/// queries over one TBox build the index once).
pub fn perfect_ref_with_index(q: &ConjunctiveQuery, ix: &PiIndex) -> Ucq {
    perfect_ref_loop(q, &AxiomSource::Indexed(ix))
}

/// The original axiom-scanning rewriting loop: every positive inclusion
/// is tried against every atom of every candidate CQ. Kept public as
/// the baseline the indexed rewriter is differentially tested (and
/// benchmarked) against.
pub fn perfect_ref_scan(q: &ConjunctiveQuery, tbox: &Tbox) -> Ucq {
    perfect_ref_loop(q, &AxiomSource::Scan(tbox))
}

fn perfect_ref_loop(q: &ConjunctiveQuery, src: &AxiomSource<'_>) -> Ucq {
    let mut seen: HashSet<ConjunctiveQuery> = HashSet::new();
    let mut out: Vec<ConjunctiveQuery> = Vec::new();
    let mut queue: VecDeque<ConjunctiveQuery> = VecDeque::new();
    let start = q.canonical();
    seen.insert(start.clone());
    out.push(start.clone());
    queue.push_back(start);
    let mut fresh = 0usize;

    while let Some(cur) = queue.pop_front() {
        // Step (a): applicability of each positive inclusion to each atom.
        for (i, atom) in cur.atoms.iter().enumerate() {
            for ax in src.applicable(atom) {
                for replacement in apply_pi(ax, atom, &cur, &mut fresh) {
                    let mut atoms = cur.atoms.clone();
                    // lint: allow(R1.index, "i enumerates cur.atoms and atoms is a clone of it")
                    atoms[i] = replacement;
                    push(
                        ConjunctiveQuery {
                            head: cur.head.clone(),
                            atoms,
                        },
                        &mut seen,
                        &mut out,
                        &mut queue,
                    );
                }
            }
        }
        // Step (a'): the qualified pair rule.
        for (i, g1) in cur.atoms.iter().enumerate() {
            let Atom::Role(p, s, o) = g1 else { continue };
            for (j, g2) in cur.atoms.iter().enumerate() {
                if i == j {
                    continue;
                }
                let Atom::Concept(a2, t2) = g2 else { continue };
                // The pair {Q(x, y), A(y)} in both orientations of g1.
                for (q_role, x, y) in [
                    (BasicRole::Direct(*p), s, o),
                    (BasicRole::Inverse(*p), o, s),
                ] {
                    let Term::Var(yv) = y else { continue };
                    if t2 != y {
                        continue;
                    }
                    // y must occur only in these two atoms and not in the
                    // head.
                    if cur.head.iter().any(|h| h == yv) {
                        continue;
                    }
                    let occurrences: usize = cur
                        .atoms
                        .iter()
                        .map(|a| a.vars().iter().filter(|v| **v == yv).count())
                        .sum();
                    if occurrences != 2 {
                        continue;
                    }
                    for ax in src.qual_candidates(*p) {
                        let Axiom::ConceptIncl(b, GeneralConcept::QualExists(q0, a0)) = ax else {
                            continue;
                        };
                        if *q0 != q_role || a0 != a2 {
                            continue;
                        }
                        let mut atoms: Vec<Atom> = cur
                            .atoms
                            .iter()
                            .enumerate()
                            .filter(|(k, _)| *k != i && *k != j)
                            .map(|(_, a)| a.clone())
                            .collect();
                        atoms.push(atom_of_basic(*b, x.clone(), &mut fresh));
                        push(
                            ConjunctiveQuery {
                                head: cur.head.clone(),
                                atoms,
                            },
                            &mut seen,
                            &mut out,
                            &mut queue,
                        );
                    }
                }
            }
        }
        // Step (b): reduce — unify pairs of atoms.
        for i in 0..cur.atoms.len() {
            for j in (i + 1)..cur.atoms.len() {
                // lint: allow(R1.index, "i < j < cur.atoms.len() by the loop bounds")
                if let Some((subst, vsubst)) = unify(&cur.atoms[i], &cur.atoms[j], &cur.head) {
                    let reduced = cur.substitute_full(&subst, &vsubst);
                    push(reduced, &mut seen, &mut out, &mut queue);
                }
            }
        }
    }
    Ucq { disjuncts: out }
}

fn push(
    q: ConjunctiveQuery,
    seen: &mut HashSet<ConjunctiveQuery>,
    out: &mut Vec<ConjunctiveQuery>,
    queue: &mut VecDeque<ConjunctiveQuery>,
) {
    let c = q.canonical();
    if seen.insert(c.clone()) {
        out.push(c.clone());
        queue.push_back(c);
    }
}

/// The atom asserting membership of `t` in the basic concept `b`,
/// inventing a fresh unbound variable where needed.
fn atom_of_basic(b: BasicConcept, t: Term, fresh: &mut usize) -> Atom {
    let mut new_var = || {
        *fresh += 1;
        Term::Var(format!("_pr{fresh}"))
    };
    match b {
        BasicConcept::Atomic(a) => Atom::Concept(a, t),
        BasicConcept::Exists(BasicRole::Direct(p)) => Atom::Role(p, t, new_var()),
        BasicConcept::Exists(BasicRole::Inverse(p)) => Atom::Role(p, new_var(), t),
        BasicConcept::AttrDomain(u) => {
            *fresh += 1;
            Atom::Attribute(u, t, ValueTerm::Var(format!("_pr{fresh}")))
        }
    }
}

/// Applies a positive inclusion backwards to a single atom, returning the
/// replacement atoms (possibly several orientations).
fn apply_pi(ax: &Axiom, atom: &Atom, q: &ConjunctiveQuery, fresh: &mut usize) -> Vec<Atom> {
    let unbound = |t: &Term| -> bool {
        match t {
            Term::Var(v) => q.is_unbound(v),
            Term::Const(_) => false,
        }
    };
    let mut out = Vec::new();
    match (ax, atom) {
        // B ⊑ A applied to A(x).
        (
            Axiom::ConceptIncl(b, GeneralConcept::Basic(BasicConcept::Atomic(a))),
            Atom::Concept(c, t),
        ) if a == c => out.push(atom_of_basic(*b, t.clone(), fresh)),
        // B ⊑ ∃Q (or ⊑ ∃Q.C) applied to a role atom whose object side is
        // unbound, in the orientation matching Q.
        (
            Axiom::ConceptIncl(b, GeneralConcept::Basic(BasicConcept::Exists(qr))),
            Atom::Role(p, s, o),
        )
        | (Axiom::ConceptIncl(b, GeneralConcept::QualExists(qr, _)), Atom::Role(p, s, o)) => {
            match qr {
                BasicRole::Direct(pp) if pp == p && unbound(o) => {
                    out.push(atom_of_basic(*b, s.clone(), fresh))
                }
                BasicRole::Inverse(pp) if pp == p && unbound(s) => {
                    out.push(atom_of_basic(*b, o.clone(), fresh))
                }
                _ => {}
            }
        }
        // B ⊑ ∃Q.A applied to A(x) with x unbound: every B instance has a
        // Q-successor in A, so A is populated whenever B is — the atom
        // weakens to B on a fresh unbound variable. (This is what the
        // standard normalization B ⊑ ∃Q', Q' ⊑ Q, ∃Q'⁻ ⊑ A yields after
        // two applicability steps on the auxiliary role Q'.)
        (Axiom::ConceptIncl(b, GeneralConcept::QualExists(_, a0)), Atom::Concept(c, t))
            if a0 == c && unbound(t) =>
        {
            *fresh += 1;
            let witness = Term::Var(format!("_pr{fresh}"));
            out.push(atom_of_basic(*b, witness, fresh));
        }
        // B ⊑ δ(u) applied to u(x, v) with v unbound.
        (
            Axiom::ConceptIncl(b, GeneralConcept::Basic(BasicConcept::AttrDomain(ua))),
            Atom::Attribute(u, s, ValueTerm::Var(x)),
        ) if ua == u && q.is_unbound(x) => {
            out.push(atom_of_basic(*b, s.clone(), fresh));
        }
        // Q1 ⊑ Q2 applied to a role atom of Q2 (both orientations).
        (Axiom::RoleIncl(q1, GeneralRole::Basic(q2)), Atom::Role(p, s, o)) => {
            // View the atom as q2 in its two orientations.
            let orientations = [
                (BasicRole::Direct(*p), s.clone(), o.clone()),
                (BasicRole::Inverse(*p), o.clone(), s.clone()),
            ];
            for (view, x, y) in orientations {
                if view == *q2 {
                    // Replace with q1(x, y).
                    let replaced = match q1 {
                        BasicRole::Direct(p1) => Atom::Role(*p1, x, y),
                        BasicRole::Inverse(p1) => Atom::Role(*p1, y, x),
                    };
                    out.push(replaced);
                }
            }
            // Both orientations coincide when q2's role == p in both
            // direct and inverse view only if the atom is symmetric —
            // duplicates are deduplicated by canonicalization.
        }
        // U1 ⊑ U2 applied to u2(x, v).
        (Axiom::AttrIncl(u1, u2), Atom::Attribute(u, s, v)) if u2 == u => {
            out.push(Atom::Attribute(*u1, s.clone(), v.clone()));
        }
        _ => {}
    }
    out
}

/// Most general unifier of two atoms (same predicate), oriented to keep
/// head variables as representatives. Returns the IRI-position and
/// value-position substitutions, or `None` if not unifiable.
fn unify(
    a: &Atom,
    b: &Atom,
    head: &[String],
) -> Option<(HashMap<String, Term>, HashMap<String, obda_dllite::Value>)> {
    let mut subst: HashMap<String, Term> = HashMap::new();
    let mut vsubst: HashMap<String, obda_dllite::Value> = HashMap::new();
    let pairs: Vec<(Term, Term)> = match (a, b) {
        (Atom::Concept(c1, t1), Atom::Concept(c2, t2)) if c1 == c2 => {
            vec![(t1.clone(), t2.clone())]
        }
        (Atom::Role(p1, s1, o1), Atom::Role(p2, s2, o2)) if p1 == p2 => {
            vec![(s1.clone(), s2.clone()), (o1.clone(), o2.clone())]
        }
        (Atom::Attribute(u1, s1, v1), Atom::Attribute(u2, s2, v2)) if u1 == u2 => {
            // Value positions: variables unify with anything of value
            // sort; literals must be equal.
            match (v1, v2) {
                (ValueTerm::Lit(l1), ValueTerm::Lit(l2)) if l1 != l2 => return None,
                (ValueTerm::Var(x), ValueTerm::Lit(l)) | (ValueTerm::Lit(l), ValueTerm::Var(x)) => {
                    vsubst.insert(x.clone(), l.clone());
                }
                _ => {}
            }
            let mut pairs = vec![(s1.clone(), s2.clone())];
            if let (ValueTerm::Var(x), ValueTerm::Var(y)) = (v1, v2) {
                if x != y {
                    pairs.push((Term::Var(x.clone()), Term::Var(y.clone())));
                }
            }
            pairs
        }
        _ => return None,
    };
    for (t1, t2) in pairs {
        let r1 = resolve(&t1, &subst);
        let r2 = resolve(&t2, &subst);
        match (r1, r2) {
            (Term::Var(x), Term::Var(y)) if x == y => {}
            (Term::Var(x), Term::Var(y)) => {
                // Keep head variables as representatives.
                if head.contains(&x) {
                    subst.insert(y, Term::Var(x));
                } else {
                    subst.insert(x, Term::Var(y));
                }
            }
            (Term::Var(x), t) | (t, Term::Var(x)) => {
                subst.insert(x, t);
            }
            (Term::Const(c1), Term::Const(c2)) => {
                if c1 != c2 {
                    return None;
                }
            }
        }
    }
    Some((subst, vsubst))
}

fn resolve(t: &Term, subst: &HashMap<String, Term>) -> Term {
    let mut cur = t.clone();
    let mut fuel = 64;
    while let Term::Var(v) = &cur {
        match subst.get(v) {
            Some(next) if fuel > 0 => {
                fuel -= 1;
                cur = next.clone();
            }
            _ => break,
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{parse_cq, print_cq};
    use obda_dllite::parse_tbox;

    fn rewrite(tbox_src: &str, query: &str) -> (Tbox, Vec<String>) {
        let t = parse_tbox(tbox_src).unwrap();
        let q = parse_cq(query, &t.sig).unwrap();
        let ucq = perfect_ref(&q, &t);
        let mut strings: Vec<String> = ucq.disjuncts.iter().map(|d| print_cq(d, &t.sig)).collect();
        strings.sort();
        (t, strings)
    }

    #[test]
    fn concept_hierarchy_expands() {
        let (_, rw) = rewrite("concept A B C\nB [= A\nC [= B", "q(x) :- A(x)");
        assert_eq!(
            rw,
            vec!["q(v0) :- A(v0)", "q(v0) :- B(v0)", "q(v0) :- C(v0)"]
        );
    }

    #[test]
    fn existential_elimination() {
        // ∃p ⊒ Student via Student ⊑ ∃p: q(x) :- p(x, y) gains Student(x).
        let (_, rw) = rewrite(
            "concept Student\nrole p\nStudent [= exists p",
            "q(x) :- p(x, y)",
        );
        assert!(rw.contains(&"q(v0) :- Student(v0)".to_owned()), "{rw:?}");
        assert_eq!(rw.len(), 2);
    }

    #[test]
    fn existential_not_applicable_when_bound() {
        // y is bound (head variable): no elimination.
        let (_, rw) = rewrite(
            "concept Student\nrole p\nStudent [= exists p",
            "q(x, y) :- p(x, y)",
        );
        assert_eq!(rw.len(), 1);
    }

    #[test]
    fn role_hierarchy_and_inverse() {
        let (_, rw) = rewrite("role p r\np [= inv(r)", "q(x, y) :- r(x, y)");
        // p ⊑ r⁻ rewrites r(x, y) to p(y, x).
        assert!(rw.contains(&"q(v0, v1) :- r(v0, v1)".to_owned()));
        assert!(rw.contains(&"q(v0, v1) :- p(v1, v0)".to_owned()), "{rw:?}");
    }

    #[test]
    fn qualified_pair_rule() {
        // GradStudent ⊑ ∃advisor.Professor; q(x) :- advisor(x,y), Professor(y).
        let (_, rw) = rewrite(
            "concept GradStudent Professor\nrole advisor\nGradStudent [= exists advisor . Professor",
            "q(x) :- advisor(x, y), Professor(y)",
        );
        assert!(
            rw.contains(&"q(v0) :- GradStudent(v0)".to_owned()),
            "{rw:?}"
        );
    }

    #[test]
    fn qualified_acts_as_unqualified_too() {
        let (_, rw) = rewrite(
            "concept G P\nrole advisor\nG [= exists advisor . P",
            "q(x) :- advisor(x, y)",
        );
        assert!(rw.contains(&"q(v0) :- G(v0)".to_owned()), "{rw:?}");
    }

    #[test]
    fn qualified_existential_populates_concept() {
        // G ⊑ ∃advisor.P entails that P is nonempty whenever G is, so
        // P(y) with y unbound must rewrite to G on a fresh variable.
        let (_, rw) = rewrite(
            "concept G P\nrole advisor\nG [= exists advisor . P",
            "q(x) :- G(x), P(y)",
        );
        assert!(
            rw.iter()
                .any(|d| d == "q(v0) :- G(v0)" || d == "q(v0) :- G(v0), G(v1)"),
            "{rw:?}"
        );
    }

    #[test]
    fn reduce_enables_applicability() {
        // Classic: q(x) :- p(x, y), p(z, y). Reduce unifies the atoms,
        // making y unbound, then A ⊑ ∃p applies.
        let (_, rw) = rewrite(
            "concept A\nrole p\nA [= exists p",
            "q(x) :- p(x, y), p(z, y)",
        );
        assert!(rw.iter().any(|d| d.contains("A(")), "{rw:?}");
    }

    #[test]
    fn attribute_rewriting() {
        let (_, rw) = rewrite(
            "concept Person\nattribute name nick\nPerson [= domain(name)\nnick [= name",
            "q(x) :- name(x, n)",
        );
        assert!(rw.contains(&"q(v0) :- Person(v0)".to_owned()), "{rw:?}");
        assert!(rw.contains(&"q(v0) :- nick(v0, v1)".to_owned()), "{rw:?}");
    }

    #[test]
    fn attribute_literal_blocks_domain_rewriting() {
        let (_, rw) = rewrite(
            "concept Person\nattribute name\nPerson [= domain(name)",
            "q(x) :- name(x, \"ada\")",
        );
        // The value is a literal, so Person ⊑ δ(name) must not apply.
        assert_eq!(rw.len(), 1);
    }

    #[test]
    fn no_inclusions_means_identity() {
        let (_, rw) = rewrite("concept A\nrole p", "q(x) :- A(x), p(x, y)");
        assert_eq!(rw.len(), 1);
    }

    #[test]
    fn indexed_matches_scanning_loop() {
        let cases = [
            ("concept A B C\nB [= A\nC [= B", "q(x) :- A(x)"),
            (
                "concept G P\nrole advisor p\nG [= exists advisor . P\nP [= exists p",
                "q(x) :- advisor(x, y), P(y)",
            ),
            (
                "concept Person\nattribute name nick\nPerson [= domain(name)\nnick [= name",
                "q(x) :- name(x, n)",
            ),
            ("role p r\np [= inv(r)", "q(x, y) :- r(x, y)"),
        ];
        for (tbox_src, query) in cases {
            let t = parse_tbox(tbox_src).unwrap();
            let q = parse_cq(query, &t.sig).unwrap();
            let mut indexed: Vec<ConjunctiveQuery> = perfect_ref(&q, &t)
                .disjuncts
                .into_iter()
                .map(|d| d.canonical())
                .collect();
            let mut scanned: Vec<ConjunctiveQuery> = perfect_ref_scan(&q, &t)
                .disjuncts
                .into_iter()
                .map(|d| d.canonical())
                .collect();
            indexed.sort();
            scanned.sort();
            assert_eq!(indexed, scanned, "{tbox_src} / {query}");
        }
    }

    #[test]
    fn constants_survive_rewriting() {
        let (_, rw) = rewrite("concept A B\nB [= A", "q(x) :- A(x), A(\"iri/1\")");
        assert!(rw.iter().any(|d| d.contains("\"iri/1\"")));
        // Four combinations (A/B × A/B) plus reduce-merged variants.
        assert!(rw.len() >= 4, "{rw:?}");
    }
}
