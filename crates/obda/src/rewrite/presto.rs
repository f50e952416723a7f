//! **Presto-style rewriting**: classification-aware rewriting into a
//! small non-recursive program of *view atoms*, avoiding PerfectRef's
//! CQ explosion.
//!
//! Presto (Rosati & Almatelli 2010) — cited by the paper as the consumer
//! of QuOnto's classification — rewrites into non-recursive datalog whose
//! intensional predicates denote unions of subsumees. We reproduce that
//! architecture:
//!
//! * a **view atom** `V[S](x)` denotes the union, over all basic
//!   expressions `B ⊑* S` (read off the classification closure), of `B`'s
//!   direct extension — so the ontology's hierarchy lives in the *views*,
//!   computed once from the transitive closure, instead of being unfolded
//!   into exponentially many CQs;
//! * the rewriting loop only rewrites the query's *skeleton*: collapsing
//!   role atoms with unbound sides into domain views, eliminating
//!   qualified-existential pairs against the *maximal* witnesses (the
//!   asserted qualified axioms and the range-forcing `∃Q₀` nodes), and
//!   PerfectRef-style reduction — so the number of produced skeletons
//!   stays small.
//!
//! The answers of the view program equal the answers of the PerfectRef
//! UCQ (cross-checked in the integration tests and the A2 ablation).

use std::collections::{HashSet, VecDeque};

use obda_dllite::{AttributeId, BasicConcept, BasicRole, RoleId};
use quonto::{Classification, NodeId, NodeKind};

use crate::answer::{eval_disjuncts, AboxIndex, JoinWork};
use crate::query::{Atom, ConjunctiveQuery, Term, ValueTerm};

/// An atom over a *view* of the classified ontology.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ViewAtom {
    /// `x` belongs to some basic concept subsumed by the target.
    ConceptView(BasicConcept, Term),
    /// `(x, y)` belongs to some basic role subsumed by the target.
    RoleView(BasicRole, Term, Term),
    /// `(x, v)` belongs to some attribute subsumed by the target.
    AttrView(AttributeId, Term, ValueTerm),
}

impl ViewAtom {
    /// Variables of the atom.
    pub fn vars(&self) -> Vec<&str> {
        let mut out = Vec::new();
        match self {
            ViewAtom::ConceptView(_, t) => {
                if let Some(v) = t.as_var() {
                    out.push(v);
                }
            }
            ViewAtom::RoleView(_, s, o) => {
                for t in [s, o] {
                    if let Some(v) = t.as_var() {
                        out.push(v);
                    }
                }
            }
            ViewAtom::AttrView(_, s, v) => {
                if let Some(x) = s.as_var() {
                    out.push(x);
                }
                if let Some(x) = v.as_var() {
                    out.push(x);
                }
            }
        }
        out
    }
}

/// A conjunctive query over view atoms.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewQuery {
    /// Answer variables.
    pub head: Vec<String>,
    /// View atoms.
    pub atoms: Vec<ViewAtom>,
}

impl ViewQuery {
    fn is_unbound(&self, var: &str) -> bool {
        if self.head.iter().any(|h| h == var) {
            return false;
        }
        let occ: usize = self
            .atoms
            .iter()
            .map(|a| a.vars().iter().filter(|v| **v == var).count())
            .sum();
        occ == 1
    }

    /// Canonical renaming for duplicate detection.
    fn canonical(&self) -> ViewQuery {
        let mut cur = self.clone();
        for _ in 0..4 {
            let mut names: std::collections::HashMap<String, String> =
                std::collections::HashMap::new();
            let mut fresh = 0usize;
            let mut rename = |v: &str, names: &mut std::collections::HashMap<String, String>| {
                names
                    .entry(v.to_owned())
                    .or_insert_with(|| {
                        let n = format!("v{fresh}");
                        fresh += 1;
                        n
                    })
                    .clone()
            };
            let term = |t: &Term,
                        names: &mut std::collections::HashMap<String, String>,
                        rename: &mut dyn FnMut(
                &str,
                &mut std::collections::HashMap<String, String>,
            ) -> String|
             -> Term {
                match t {
                    Term::Var(v) => Term::Var(rename(v, names)),
                    Term::Const(_) => t.clone(),
                }
            };
            let mut head = Vec::new();
            for h in &cur.head {
                head.push(rename(h, &mut names));
            }
            let mut atoms: Vec<ViewAtom> = cur
                .atoms
                .iter()
                .map(|a| match a {
                    ViewAtom::ConceptView(s, t) => {
                        ViewAtom::ConceptView(*s, term(t, &mut names, &mut rename))
                    }
                    ViewAtom::RoleView(q, s, o) => ViewAtom::RoleView(
                        *q,
                        term(s, &mut names, &mut rename),
                        term(o, &mut names, &mut rename),
                    ),
                    ViewAtom::AttrView(u, s, v) => {
                        let s = term(s, &mut names, &mut rename);
                        let v = match v {
                            ValueTerm::Var(x) => ValueTerm::Var(rename(x, &mut names)),
                            ValueTerm::Lit(_) => v.clone(),
                        };
                        ViewAtom::AttrView(*u, s, v)
                    }
                })
                .collect();
            atoms.sort();
            atoms.dedup();
            let next = ViewQuery { head, atoms };
            if next == cur {
                break;
            }
            cur = next;
        }
        cur
    }
}

/// The Presto-style rewriting: a small set of view queries.
#[derive(Debug, Clone)]
pub struct PrestoRewriting {
    /// Skeleton queries over views.
    pub queries: Vec<ViewQuery>,
}

impl PrestoRewriting {
    /// Number of skeletons (compare with the PerfectRef disjunct count in
    /// the A2 ablation).
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// [`presto_rewrite`] under a `presto` trace span recording the view
/// skeleton count.
pub fn presto_rewrite_traced(
    q: &ConjunctiveQuery,
    cls: &Classification,
    ctx: &obda_obs::TraceCtx,
) -> PrestoRewriting {
    let guard = obda_obs::span!(ctx, "presto");
    let rw = presto_rewrite(q, cls);
    guard.count("disjuncts", rw.len() as u64);
    rw
}

/// Rewrites a CQ using the classification (Presto-style).
pub fn presto_rewrite(q: &ConjunctiveQuery, cls: &Classification) -> PrestoRewriting {
    // Initial conversion: every atom becomes the view of its predicate.
    let start = ViewQuery {
        head: q.head.clone(),
        atoms: q
            .atoms
            .iter()
            .map(|a| match a {
                Atom::Concept(c, t) => ViewAtom::ConceptView(BasicConcept::Atomic(*c), t.clone()),
                Atom::Role(p, s, o) => {
                    ViewAtom::RoleView(BasicRole::Direct(*p), s.clone(), o.clone())
                }
                Atom::Attribute(u, s, v) => ViewAtom::AttrView(*u, s.clone(), v.clone()),
            })
            .collect(),
    }
    .canonical();

    let mut seen: HashSet<ViewQuery> = HashSet::new();
    let mut out: Vec<ViewQuery> = Vec::new();
    let mut queue: VecDeque<ViewQuery> = VecDeque::new();
    seen.insert(start.clone());
    out.push(start.clone());
    queue.push_back(start);
    // Witness lookup is a scan over the classification's qualified
    // axioms plus every role (closure probes each); the same
    // (role, filler) pattern recurs across skeletons, so memoize per
    // rewrite call.
    let mut qual_memo: std::collections::HashMap<(BasicRole, BasicConcept), Vec<BasicConcept>> =
        std::collections::HashMap::new();
    let mut lone_memo: std::collections::HashMap<BasicConcept, Vec<BasicConcept>> =
        std::collections::HashMap::new();

    while let Some(cur) = queue.pop_front() {
        // Collapse: role atom with an unbound side → domain view.
        for (i, atom) in cur.atoms.iter().enumerate() {
            let replacement = match atom {
                ViewAtom::RoleView(qr, s, o) => {
                    let o_unbound = matches!(o, Term::Var(v) if cur.is_unbound(v));
                    let s_unbound = matches!(s, Term::Var(v) if cur.is_unbound(v));
                    if o_unbound {
                        Some(ViewAtom::ConceptView(BasicConcept::Exists(*qr), s.clone()))
                    } else if s_unbound {
                        Some(ViewAtom::ConceptView(
                            BasicConcept::Exists(qr.inverse()),
                            o.clone(),
                        ))
                    } else {
                        None
                    }
                }
                ViewAtom::AttrView(u, s, ValueTerm::Var(v)) if cur.is_unbound(v) => Some(
                    ViewAtom::ConceptView(BasicConcept::AttrDomain(*u), s.clone()),
                ),
                _ => None,
            };
            if let Some(r) = replacement {
                let mut atoms = cur.atoms.clone();
                // lint: allow(R1.index, "i enumerates cur.atoms and atoms is a clone of it")
                atoms[i] = r;
                push(
                    ViewQuery {
                        head: cur.head.clone(),
                        atoms,
                    },
                    &mut seen,
                    &mut out,
                    &mut queue,
                );
            }
        }
        // Qualified pair elimination against maximal witnesses.
        for (i, g1) in cur.atoms.iter().enumerate() {
            let ViewAtom::RoleView(p, s, o) = g1 else {
                continue;
            };
            for (j, g2) in cur.atoms.iter().enumerate() {
                if i == j {
                    continue;
                }
                let ViewAtom::ConceptView(target_c, t2) = g2 else {
                    continue;
                };
                for (q_view, x, y) in [(*p, s, o), (p.inverse(), o, s)] {
                    let Term::Var(yv) = y else { continue };
                    if t2 != y || cur.head.iter().any(|h| h == yv) {
                        continue;
                    }
                    let occ: usize = cur
                        .atoms
                        .iter()
                        .map(|a| a.vars().iter().filter(|v| **v == yv).count())
                        .sum();
                    if occ != 2 {
                        continue;
                    }
                    // Maximal witnesses for the pattern ∃q_view.target_c.
                    let witnesses = qual_memo
                        .entry((q_view, *target_c))
                        .or_insert_with(|| maximal_qual_witnesses(cls, q_view, *target_c))
                        .clone();
                    for w in witnesses {
                        let mut atoms: Vec<ViewAtom> = cur
                            .atoms
                            .iter()
                            .enumerate()
                            .filter(|(k, _)| *k != i && *k != j)
                            .map(|(_, a)| a.clone())
                            .collect();
                        atoms.push(ViewAtom::ConceptView(w, x.clone()));
                        push(
                            ViewQuery {
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
        // Lone qualified elimination: a concept view on an unbound
        // variable is also witnessed by the *anonymous* individuals
        // qualified axioms generate — `W ⊑ ∃Q.A₀` with `A₀ ⊑* s` puts a
        // fresh `s`-member next to every `W` instance, so the atom
        // weakens to the witness's view on the same (still unbound)
        // variable. This is the unbound-atom case of PerfectRef's
        // qualified-existential rule; unlike the pair elimination above
        // the role is unconstrained (any anonymous witness certifies
        // the existential), so the witness scan ranges over all roles.
        for (i, atom) in cur.atoms.iter().enumerate() {
            let ViewAtom::ConceptView(s, Term::Var(v)) = atom else {
                continue;
            };
            if !cur.is_unbound(v) {
                continue;
            }
            let witnesses = lone_memo
                .entry(*s)
                .or_insert_with(|| lone_qual_witnesses(cls, *s))
                .clone();
            for w in witnesses {
                let mut atoms = cur.atoms.clone();
                // lint: allow(R1.index, "i enumerates cur.atoms and atoms is a clone of it")
                atoms[i] = ViewAtom::ConceptView(w, Term::Var(v.clone()));
                push(
                    ViewQuery {
                        head: cur.head.clone(),
                        atoms,
                    },
                    &mut seen,
                    &mut out,
                    &mut queue,
                );
            }
        }
        // Reduce: unify same-target atoms (minimal variant sufficient to
        // unlock collapses, mirroring PerfectRef's reduce).
        for i in 0..cur.atoms.len() {
            for j in (i + 1)..cur.atoms.len() {
                if let Some(next) = reduce_pair(&cur, i, j) {
                    push(next, &mut seen, &mut out, &mut queue);
                }
            }
        }
        // Intersection reduction: two views over the same (unified)
        // arguments with *different* targets merge into one view per
        // maximal common subsumee — the Presto counterpart of
        // PerfectRef's "rewrite both into B, then merge", which unblocks
        // existential eliminations by lowering variable occurrence
        // counts. The original conjunction skeleton is kept (it covers
        // witnesses reached through different members of each view).
        for i in 0..cur.atoms.len() {
            for j in (i + 1)..cur.atoms.len() {
                for next in intersect_pair(&cur, i, j, cls) {
                    push(next, &mut seen, &mut out, &mut queue);
                }
            }
        }
    }
    PrestoRewriting { queries: out }
}

/// Maximal common subsumees of two same-sort nodes: nodes `B` with
/// `B ⊑* S₁` and `B ⊑* S₂`, keeping only those not strictly below
/// another common one.
fn maximal_common_nodes(cls: &Classification, n1: NodeId, n2: NodeId) -> Vec<NodeId> {
    let g = cls.graph();
    let closure = cls.closure();
    let mut set1: std::collections::HashSet<u32> = quonto::closure::predecessors_reflexive(g, n1)
        .into_iter()
        .collect();
    let common: Vec<NodeId> = quonto::closure::predecessors_reflexive(g, n2)
        .into_iter()
        .filter(|v| set1.remove(v))
        .map(NodeId)
        .collect();
    common
        .iter()
        .copied()
        .filter(|&m| {
            !common
                .iter()
                .any(|&m2| m2 != m && closure.reaches(m, m2) && !closure.reaches(m2, m))
        })
        .collect()
}

/// Intersection reduction over a pair of view atoms (see the loop in
/// [`presto_rewrite`]).
fn intersect_pair(q: &ViewQuery, i: usize, j: usize, cls: &Classification) -> Vec<ViewQuery> {
    let g = cls.graph();
    let mut results = Vec::new();
    let mut emit = |replacement: ViewAtom, u: &Unifier| {
        results.extend(u.apply(q, &[i, j], Some(replacement)));
    };
    let unify_terms = |pairs: &[(&Term, &Term)]| -> Option<Unifier> {
        let mut u = Unifier::default();
        pairs
            .iter()
            .all(|(t1, t2)| u.unify(t1, t2, &q.head))
            .then_some(u)
    };
    // lint: allow(R1.index, "the only caller iterates i < j < q.atoms.len() (rewrite driver loop)")
    match (&q.atoms[i], &q.atoms[j]) {
        (ViewAtom::ConceptView(s1, t1), ViewAtom::ConceptView(s2, t2)) if s1 != s2 => {
            if let Some(u) = unify_terms(&[(t1, t2)]) {
                for m in maximal_common_nodes(cls, g.concept_node(*s1), g.concept_node(*s2)) {
                    emit(ViewAtom::ConceptView(g.node_as_concept(m), t1.clone()), &u);
                }
            }
        }
        (ViewAtom::RoleView(p1, s1, o1), ViewAtom::RoleView(p2, s2, o2)) => {
            // Same orientation.
            if p1 != p2 {
                if let Some(u) = unify_terms(&[(s1, s2), (o1, o2)]) {
                    for m in maximal_common_nodes(cls, g.role_node(*p1), g.role_node(*p2)) {
                        emit(
                            ViewAtom::RoleView(g.node_as_role(m), s1.clone(), o1.clone()),
                            &u,
                        );
                    }
                }
            }
            // Opposite orientation: members of p1 ∩ p2⁻.
            if *p1 != p2.inverse() {
                if let Some(u) = unify_terms(&[(s1, o2), (o1, s2)]) {
                    for m in maximal_common_nodes(cls, g.role_node(*p1), g.role_node(p2.inverse()))
                    {
                        emit(
                            ViewAtom::RoleView(g.node_as_role(m), s1.clone(), o1.clone()),
                            &u,
                        );
                    }
                }
            }
        }
        (ViewAtom::AttrView(u1, s1, v1), ViewAtom::AttrView(u2, s2, v2)) if u1 != u2 => {
            let values_compatible = match (v1, v2) {
                (ValueTerm::Var(_), ValueTerm::Var(_)) => true,
                (ValueTerm::Lit(a), ValueTerm::Lit(b)) => a == b,
                // A variable against a literal: the merged atom would
                // have to bind the variable to the literal, and it
                // keeps no unbound value for a collapse to use.
                _ => false,
            };
            if values_compatible {
                if let Some(mut u) = unify_terms(&[(s1, s2)]) {
                    if let (ValueTerm::Var(x), ValueTerm::Var(y)) = (v1, v2) {
                        u.unify(&Term::Var(x.clone()), &Term::Var(y.clone()), &q.head);
                    }
                    for m in maximal_common_nodes(cls, g.attr_node(*u1), g.attr_node(*u2)) {
                        if let NodeKind::Attr(w) = g.node_kind(m) {
                            emit(ViewAtom::AttrView(w, s1.clone(), v1.clone()), &u);
                        }
                    }
                }
            }
        }
        _ => {}
    }
    results
}

/// Maximal basic concepts `W` with `W ⊑ ∃Q.C` whose views jointly cover
/// every such basic concept: the left sides of matching asserted
/// qualified axioms, and `∃Q₀` for subroles `Q₀ ⊑* Q` whose range is
/// forced into a subsumee of `C`.
fn maximal_qual_witnesses(
    cls: &Classification,
    q: BasicRole,
    target_c: BasicConcept,
) -> Vec<BasicConcept> {
    let g = cls.graph();
    let closure = cls.closure();
    let target_role = g.role_node(q);
    let target_c_node = g.concept_node(target_c);
    let mut out = Vec::new();
    // Asserted qualified axioms B ⊑ ∃Q₀.A₀ with Q₀ ⊑* Q and A₀ ⊑* C. The
    // *axiom's own LHS view* covers every B' ⊑* B.
    for qa in &g.qual_axioms {
        if closure.reaches(g.role_node(qa.role), target_role)
            && closure.reaches(g.atomic_node(qa.filler), target_c_node)
        {
            out.push(g.node_as_concept(qa.lhs));
        }
    }
    // Range forcing: Q₀ ⊑* Q with ∃Q₀⁻ ⊑* C ⟹ ∃Q₀ ⊑ ∃Q.C.
    for p in 0..g.num_roles() {
        for q0 in [BasicRole::Direct(RoleId(p)), BasicRole::Inverse(RoleId(p))] {
            if closure.reaches(g.role_node(q0), target_role)
                && closure.reaches(g.role_exists_node(q0.inverse()), target_c_node)
            {
                out.push(BasicConcept::Exists(q0));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Witnesses for a lone concept view on an unbound variable: basic
/// concepts `W` whose instances force an anonymous `s`-member into the
/// canonical model. Two sources, mirroring [`maximal_qual_witnesses`]
/// with the role constraint dropped: asserted qualified axioms
/// `W ⊑ ∃Q.A₀` with `A₀ ⊑* s`, and `∃Q₀` for roles whose range is
/// forced into a subsumee of `s` (`∃Q₀⁻ ⊑* s`) — the latter's view
/// members cover every `B ⊑* ∃Q₀`, qualified or not.
fn lone_qual_witnesses(cls: &Classification, target: BasicConcept) -> Vec<BasicConcept> {
    let g = cls.graph();
    let closure = cls.closure();
    let target_node = g.concept_node(target);
    let mut out = Vec::new();
    for qa in &g.qual_axioms {
        if closure.reaches(g.atomic_node(qa.filler), target_node) {
            out.push(g.node_as_concept(qa.lhs));
        }
    }
    for p in 0..g.num_roles() {
        for q0 in [BasicRole::Direct(RoleId(p)), BasicRole::Inverse(RoleId(p))] {
            if closure.reaches(g.role_exists_node(q0.inverse()), target_node) {
                out.push(BasicConcept::Exists(q0));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn push(
    q: ViewQuery,
    seen: &mut HashSet<ViewQuery>,
    out: &mut Vec<ViewQuery>,
    queue: &mut VecDeque<ViewQuery>,
) {
    let c = q.canonical();
    if seen.insert(c.clone()) {
        out.push(c.clone());
        queue.push_back(c);
    }
}

/// Unifies two same-target atoms into one (keeping head variables as
/// representatives), or `None`.
fn reduce_pair(q: &ViewQuery, i: usize, j: usize) -> Option<ViewQuery> {
    let mut u = Unifier::default();
    // lint: allow(R1.index, "the only caller iterates i < j < q.atoms.len() (rewrite driver loop)")
    let ok = match (&q.atoms[i], &q.atoms[j]) {
        (ViewAtom::ConceptView(s1, t1), ViewAtom::ConceptView(s2, t2)) if s1 == s2 => {
            u.unify(t1, t2, &q.head)
        }
        (ViewAtom::RoleView(p1, s1, o1), ViewAtom::RoleView(p2, s2, o2)) if p1 == p2 => {
            u.unify(s1, s2, &q.head) && u.unify(o1, o2, &q.head)
        }
        (ViewAtom::AttrView(u1, s1, v1), ViewAtom::AttrView(u2, s2, v2)) if u1 == u2 => {
            let values_ok = match (v1, v2) {
                (ValueTerm::Lit(a), ValueTerm::Lit(b)) => a == b,
                _ => true,
            };
            values_ok && u.unify(s1, s2, &q.head)
        }
        _ => false,
    };
    if !ok || u.0.is_empty() {
        return None;
    }
    u.apply(q, &[], None)
}

/// A unifier of view-atom arguments (value variables included, as
/// variables). It is built one binding at a time, each binding a
/// variable that is not yet bound to a term that is fully resolved, so
/// following bindings always ends and applying it once is idempotent.
#[derive(Debug, Clone, Default)]
struct Unifier(std::collections::HashMap<String, Term>);

impl Unifier {
    /// `t` with every binding applied.
    fn term(&self, t: &Term) -> Term {
        let mut cur = t;
        while let Term::Var(v) = cur {
            match self.0.get(v) {
                Some(next) => cur = next,
                None => break,
            }
        }
        cur.clone()
    }

    /// Unifies `t1` and `t2`, keeping a head variable as the
    /// representative; false on two distinct constants.
    fn unify(&mut self, t1: &Term, t2: &Term, head: &[String]) -> bool {
        match (self.term(t1), self.term(t2)) {
            (Term::Var(x), Term::Var(y)) if x == y => true,
            (Term::Var(x), Term::Var(y)) => {
                if head.contains(&x) {
                    self.0.insert(y, Term::Var(x));
                } else {
                    self.0.insert(x, Term::Var(y));
                }
                true
            }
            (Term::Var(x), c @ Term::Const(_)) | (c @ Term::Const(_), Term::Var(x)) => {
                self.0.insert(x, c);
                true
            }
            (Term::Const(a), Term::Const(b)) => a == b,
        }
    }

    fn atom(&self, a: &ViewAtom) -> ViewAtom {
        match a {
            ViewAtom::ConceptView(s, t) => ViewAtom::ConceptView(*s, self.term(t)),
            ViewAtom::RoleView(p, s, o) => ViewAtom::RoleView(*p, self.term(s), self.term(o)),
            ViewAtom::AttrView(u, s, v) => {
                let v = match v {
                    ValueTerm::Var(x) => match self.term(&Term::Var(x.clone())) {
                        Term::Var(w) => ValueTerm::Var(w),
                        Term::Const(_) => v.clone(),
                    },
                    ValueTerm::Lit(_) => v.clone(),
                };
                ViewAtom::AttrView(*u, self.term(s), v)
            }
        }
    }

    /// `q` under the unifier, with the atoms at `drop` replaced by
    /// `add`. Unifying two head variables renames one to the other in
    /// the head too, as PerfectRef's reduce does (`q(x, y) :- p(z, x),
    /// p(z, y)` reduces to `q(x, x) :- p(z, x)`). `None` when a head
    /// variable is bound to a constant: the skeleton would be unsafe,
    /// and the unreduced one keeps its answers.
    fn apply(&self, q: &ViewQuery, drop: &[usize], add: Option<ViewAtom>) -> Option<ViewQuery> {
        let head = q
            .head
            .iter()
            .map(|h| match self.term(&Term::Var(h.clone())) {
                Term::Var(w) => Some(w),
                Term::Const(_) => None,
            })
            .collect::<Option<Vec<String>>>()?;
        let kept = q
            .atoms
            .iter()
            .enumerate()
            .filter(|(k, _)| !drop.contains(k))
            .map(|(_, a)| a);
        let atoms = kept.chain(&add).map(|a| self.atom(a)).collect();
        Some(ViewQuery { head, atoms })
    }
}

/// Expands a view target into the basic expressions it covers: every
/// basic concept `B ⊑* S` (including `S`).
pub fn concept_view_members(cls: &Classification, s: BasicConcept) -> Vec<BasicConcept> {
    let g = cls.graph();
    let node = g.concept_node(s);
    let mut out = vec![s];
    for p in quonto::closure::predecessors_reflexive(g, node) {
        let n = NodeId(p);
        if n == node {
            continue;
        }
        out.push(g.node_as_concept(n));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Basic roles subsumed by the target (including it).
pub fn role_view_members(cls: &Classification, q: BasicRole) -> Vec<BasicRole> {
    let g = cls.graph();
    let node = g.role_node(q);
    let mut out = vec![q];
    for p in quonto::closure::predecessors_reflexive(g, node) {
        let n = NodeId(p);
        if n == node {
            continue;
        }
        out.push(g.node_as_role(n));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Attributes subsumed by the target (including it).
pub fn attr_view_members(cls: &Classification, u: AttributeId) -> Vec<AttributeId> {
    let g = cls.graph();
    let node = g.attr_node(u);
    let mut out = vec![u];
    for p in quonto::closure::predecessors_reflexive(g, node) {
        let n = NodeId(p);
        if n == node {
            continue;
        }
        if let NodeKind::Attr(w) = g.node_kind(n) {
            out.push(w);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Evaluates a view query directly over an ABox (ABox-mode Presto
/// answering; also the test oracle for the SQL unfolding). Builds one
/// [`AboxIndex`] per call.
pub fn evaluate_view_query(
    vq: &ViewQuery,
    cls: &Classification,
    abox: &obda_dllite::Abox,
) -> crate::answer::Answers {
    let index = AboxIndex::build(abox);
    evaluate_view_query_ebox(vq, cls, abox, &index, None).0
}

/// [`evaluate_view_query`] over a prebuilt index of `abox`, with EBox
/// member pruning: members with provably empty or subsumed asserted
/// extensions are skipped before the cross-product is built (counted
/// `ebox_pruned_views`), which the evaluation-level containments keep
/// answer-preserving. Returns the answers and the join work done.
pub(crate) fn evaluate_view_query_ebox(
    vq: &ViewQuery,
    cls: &Classification,
    abox: &obda_dllite::Abox,
    index: &AboxIndex,
    ebox: Option<&obda_mapping::Ebox>,
) -> (crate::answer::Answers, JoinWork) {
    use crate::rewrite::eboxprune::{
        prune_attr_members, prune_concept_members, prune_role_members,
    };
    // Expand each view atom into a UCQ-of-basics and evaluate the cross
    // product of choices through the CQ join kernel.
    let mut disjuncts: Vec<ConjunctiveQuery> = vec![ConjunctiveQuery {
        head: vq.head.clone(),
        atoms: Vec::new(),
    }];
    let mut fresh = 0usize;
    for atom in &vq.atoms {
        let choices: Vec<Vec<Atom>> = match atom {
            ViewAtom::ConceptView(s, t) => {
                let members = match ebox {
                    Some(e) => prune_concept_members(concept_view_members(cls, *s), e),
                    None => concept_view_members(cls, *s),
                };
                members
                    .into_iter()
                    .map(|b| {
                        fresh += 1;
                        vec![basic_membership_atom(b, t.clone(), fresh)]
                    })
                    .collect()
            }
            ViewAtom::RoleView(q, s, o) => {
                let members = match ebox {
                    Some(e) => prune_role_members(role_view_members(cls, *q), e),
                    None => role_view_members(cls, *q),
                };
                members
                    .into_iter()
                    .map(|q2| {
                        vec![match q2 {
                            BasicRole::Direct(p) => Atom::Role(p, s.clone(), o.clone()),
                            BasicRole::Inverse(p) => Atom::Role(p, o.clone(), s.clone()),
                        }]
                    })
                    .collect()
            }
            ViewAtom::AttrView(u, s, v) => {
                let members = match ebox {
                    Some(e) => prune_attr_members(attr_view_members(cls, *u), e),
                    None => attr_view_members(cls, *u),
                };
                members
                    .into_iter()
                    .map(|u2| vec![Atom::Attribute(u2, s.clone(), v.clone())])
                    .collect()
            }
        };
        let mut next = Vec::with_capacity(disjuncts.len() * choices.len());
        for d in &disjuncts {
            for choice in &choices {
                let mut atoms = d.atoms.clone();
                atoms.extend(choice.iter().cloned());
                next.push(ConjunctiveQuery {
                    head: d.head.clone(),
                    atoms,
                });
            }
        }
        disjuncts = next;
    }
    eval_disjuncts(&disjuncts, abox, index)
}

fn basic_membership_atom(b: BasicConcept, t: Term, fresh: usize) -> Atom {
    match b {
        BasicConcept::Atomic(a) => Atom::Concept(a, t),
        BasicConcept::Exists(BasicRole::Direct(p)) => {
            Atom::Role(p, t, Term::Var(format!("_vw{fresh}")))
        }
        BasicConcept::Exists(BasicRole::Inverse(p)) => {
            Atom::Role(p, Term::Var(format!("_vw{fresh}")), t)
        }
        BasicConcept::AttrDomain(u) => Atom::Attribute(u, t, ValueTerm::Var(format!("_vw{fresh}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_cq;
    use obda_dllite::parse_tbox;

    #[test]
    fn skeleton_count_stays_small_on_hierarchies() {
        // A deep hierarchy: PerfectRef would emit one CQ per subsumee;
        // Presto keeps a single skeleton.
        let mut src = String::from("concept A0");
        for i in 1..30 {
            src.push_str(&format!(" A{i}"));
        }
        src.push('\n');
        for i in 1..30 {
            src.push_str(&format!("A{i} [= A{}\n", i - 1));
        }
        let t = parse_tbox(&src).unwrap();
        let cls = Classification::classify(&t);
        let q = parse_cq("q(x) :- A0(x)", &t.sig).unwrap();
        let rw = presto_rewrite(&q, &cls);
        assert_eq!(rw.len(), 1);
        // But the view covers all 30 concepts.
        let a0 = t.sig.find_concept("A0").unwrap();
        assert_eq!(
            concept_view_members(&cls, BasicConcept::Atomic(a0)).len(),
            30
        );
    }

    #[test]
    fn collapse_unbound_role_side() {
        let t = parse_tbox("concept A\nrole p\nA [= exists p").unwrap();
        let cls = Classification::classify(&t);
        let q = parse_cq("q(x) :- p(x, y)", &t.sig).unwrap();
        let rw = presto_rewrite(&q, &cls);
        // Skeletons: the role view and the collapsed ∃p view.
        assert_eq!(rw.len(), 2);
        let p = t.sig.find_role("p").unwrap();
        let members = concept_view_members(&cls, BasicConcept::exists(p));
        // ∃p's view includes A.
        let a = t.sig.find_concept("A").unwrap();
        assert!(members.contains(&BasicConcept::Atomic(a)));
    }

    #[test]
    fn qualified_pair_elimination_uses_maximal_witnesses() {
        let t =
            parse_tbox("concept G G2 P\nrole advisor\nG [= exists advisor . P\nG2 [= G").unwrap();
        let cls = Classification::classify(&t);
        let q = parse_cq("q(x) :- advisor(x, y), P(y)", &t.sig).unwrap();
        let rw = presto_rewrite(&q, &cls);
        let g_id = t.sig.find_concept("G").unwrap();
        // One skeleton must contain the view of G (which covers G2).
        let has_g_view = rw.queries.iter().any(|vq| {
            vq.atoms.iter().any(
                |a| matches!(a, ViewAtom::ConceptView(BasicConcept::Atomic(c), _) if *c == g_id),
            )
        });
        assert!(has_g_view, "{rw:?}");
        let members = concept_view_members(&cls, BasicConcept::Atomic(g_id));
        assert_eq!(members.len(), 2);
    }

    /// Two attribute atoms on one subject, one value a variable and the
    /// other a literal, are not intersected: the merged atom would drop
    /// the literal or the variable.
    #[test]
    fn attribute_intersection_keeps_variables_and_literals() {
        use crate::answer::AnswerTerm;
        let t = parse_tbox("attribute u0 u1\nu0 [= u1").unwrap();
        let cls = Classification::classify(&t);
        let ab = obda_dllite::parse_abox("u0(a, 7)\nu0(b, 5)", &t.sig).unwrap();
        let b = || AnswerTerm::Iri("b".to_owned());
        let five = AnswerTerm::Value(obda_dllite::Value::Int(5));
        for (text, want) in [
            ("q(s) :- u0(s, x), u1(s, 5)", vec![b()]),
            ("q(s, y) :- u0(s, 5), u1(s, y)", vec![b(), five]),
        ] {
            let q = parse_cq(text, &t.sig).unwrap();
            let rw = presto_rewrite(&q, &cls);
            let mut answers = crate::answer::Answers::new();
            for vq in &rw.queries {
                let body: Vec<&str> = vq.atoms.iter().flat_map(ViewAtom::vars).collect();
                assert!(
                    vq.head.iter().all(|h| body.contains(&h.as_str())),
                    "{text}: {vq:?}"
                );
                answers.extend(evaluate_view_query(vq, &cls, &ab));
            }
            assert_eq!(answers, [want].into(), "{text}");
        }
    }

    #[test]
    fn view_evaluation_answers_hierarchy_queries() {
        let t = parse_tbox("concept Student Grad\nrole takes\nGrad [= Student").unwrap();
        let cls = Classification::classify(&t);
        let ab = obda_dllite::parse_abox("Grad(g1)\nStudent(s1)\ntakes(s1, c1)", &t.sig).unwrap();
        let q = parse_cq("q(x) :- Student(x)", &t.sig).unwrap();
        let rw = presto_rewrite(&q, &cls);
        let mut answers = crate::answer::Answers::new();
        for vq in &rw.queries {
            answers.extend(evaluate_view_query(vq, &cls, &ab));
        }
        assert_eq!(answers.len(), 2);
    }
}
