//! CQ/UCQ evaluation over a concrete [`Abox`] ("ABox mode").
//!
//! Each disjunct is compiled once, then run: its variables become dense
//! slots (bindings over individuals and values live in a slice, not a
//! map keyed by name), and `plan_join` picks the atom order — the
//! given one when every atom after the first joins an earlier one,
//! otherwise a greedy order that starts from constants and small
//! extensions and follows bound variables. The run is a backtracking
//! join over that order. This is both the execution engine for
//! materialized OBDA and the reference evaluator the rewriting tests
//! compare against; the NDL evaluator ([`crate::rewrite::ndl`]) shares
//! the planner.
//!
//! Evaluation is under set semantics from the first join step. An
//! *unbound* variable (one body occurrence, not in the head — the
//! [`ConjunctiveQuery::is_unbound`] test) is never enumerated: an atom
//! whose arguments are all unbound (`A(_)`, `p(_, _)`) is decided once
//! at compile time (dropped when its extension is non-empty, otherwise
//! the disjunct cannot match), and `p(x, _)`, `p(_, x)` and `u(x, _)`
//! become unary steps over the keys of the role's or attribute's
//! subject or object index — an existence check when `x` is bound, the
//! distinct values of `x` when it is free. Each match appends its head
//! bindings (interned ids and borrowed values) to one flat row buffer
//! (`Rows`, shared with the NDL kernel); after the last disjunct the
//! rows are deduplicated on ids and only the distinct ones are named
//! into [`Answers`].
//!
//! The engine runs off an [`AboxIndex`]: per-predicate fact lists plus
//! secondary hash indexes (role facts by subject and by object,
//! attribute facts by subject, concept membership sets), so a join step
//! with a bound term probes a hash bucket instead of scanning the
//! predicate's whole extension. The index is a standalone value —
//! [`crate::system::ObdaSystem`] builds it once per ABox epoch and
//! reuses it across queries; the plain [`evaluate_cq`]/[`evaluate_ucq`]
//! entry points build a throwaway one per call.
//!
//! A query runs on the thread that asked for it: the serving layer gets
//! its concurrency from the worker pool, one query per worker.

use std::collections::{BTreeSet, HashMap, HashSet};

use obda_dllite::{Abox, Assertion, IndividualId, Value};

use crate::query::{Atom, ConjunctiveQuery, Term, Ucq, ValueTerm};

/// One answer component: an individual (by name) or a data value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AnswerTerm {
    /// Individual IRI.
    Iri(String),
    /// Data value.
    Value(Value),
}

impl std::fmt::Display for AnswerTerm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnswerTerm::Iri(s) => f.write_str(s),
            AnswerTerm::Value(v) => write!(f, "{v}"),
        }
    }
}

/// A set of answer tuples (sorted, deduplicated).
pub type Answers = BTreeSet<Vec<AnswerTerm>>;

/// Concept extension: member list (for free-variable iteration) plus a
/// membership set (for bound-term probes).
#[derive(Debug, Clone, Default)]
pub(crate) struct ConceptFacts {
    pub(crate) members: Vec<IndividualId>,
    pub(crate) set: HashSet<IndividualId>,
}

/// Role extension: the pair list plus subject→objects and
/// object→subjects hash indexes.
///
/// Invariant: every `by_subject`/`by_object` key has a non-empty
/// bucket, so the key sets are exactly the role's domain and range.
/// The UCQ kernel's key-set steps and the NDL view extents both read
/// them that way; [`AboxIndex::remove_assertion`] keeps it.
#[derive(Debug, Clone, Default)]
pub(crate) struct RoleFacts {
    pub(crate) pairs: Vec<(IndividualId, IndividualId)>,
    pub(crate) by_subject: HashMap<IndividualId, Vec<IndividualId>>,
    pub(crate) by_object: HashMap<IndividualId, Vec<IndividualId>>,
}

/// Attribute extension: the pair list plus a subject→values index,
/// whose keys are exactly the attribute's domain (the same invariant
/// as [`RoleFacts`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct AttrFacts {
    pub(crate) pairs: Vec<(IndividualId, Value)>,
    pub(crate) by_subject: HashMap<IndividualId, Vec<Value>>,
}

/// Per-predicate fact index with secondary hash indexes, so each atom
/// scans only its own predicate's facts and bound join terms probe hash
/// buckets (the naive all-assertions scan made materialized-mode
/// answering quadratic at data scale).
///
/// Build it once per ABox version and reuse across queries; rebuilding
/// is only needed after the ABox changes.
#[derive(Debug, Clone, Default)]
pub struct AboxIndex {
    pub(crate) concepts: HashMap<u32, ConceptFacts>,
    pub(crate) roles: HashMap<u32, RoleFacts>,
    pub(crate) attributes: HashMap<u32, AttrFacts>,
}

impl AboxIndex {
    /// Indexes every assertion of `abox`.
    pub fn build(abox: &Abox) -> Self {
        let mut ix = AboxIndex::default();
        for a in abox.assertions() {
            match a {
                Assertion::Concept(c, i) => {
                    let f = ix.concepts.entry(c.0).or_default();
                    f.members.push(*i);
                    f.set.insert(*i);
                }
                Assertion::Role(p, s, o) => {
                    let f = ix.roles.entry(p.0).or_default();
                    f.pairs.push((*s, *o));
                    f.by_subject.entry(*s).or_default().push(*o);
                    f.by_object.entry(*o).or_default().push(*s);
                }
                Assertion::Attribute(u, s, v) => {
                    let f = ix.attributes.entry(u.0).or_default();
                    f.pairs.push((*s, v.clone()));
                    f.by_subject.entry(*s).or_default().push(v.clone());
                }
            }
        }
        ix
    }

    /// Patches one freshly added assertion into the index, mirroring
    /// what [`AboxIndex::build`] would have done for it. The caller must
    /// only pass assertions that are *new* to the underlying ABox
    /// ([`Abox::add`] returned `true`) — the fact lists carry no
    /// duplicate detection of their own.
    pub(crate) fn insert_assertion(&mut self, a: &Assertion) {
        match a {
            Assertion::Concept(c, i) => {
                let f = self.concepts.entry(c.0).or_default();
                f.members.push(*i);
                f.set.insert(*i);
            }
            Assertion::Role(p, s, o) => {
                let f = self.roles.entry(p.0).or_default();
                f.pairs.push((*s, *o));
                f.by_subject.entry(*s).or_default().push(*o);
                f.by_object.entry(*o).or_default().push(*s);
            }
            Assertion::Attribute(u, s, v) => {
                let f = self.attributes.entry(u.0).or_default();
                f.pairs.push((*s, v.clone()));
                f.by_subject.entry(*s).or_default().push(v.clone());
            }
        }
    }

    /// Removes one assertion from the index. The caller must only pass
    /// assertions that were actually present ([`Abox::remove`] returned
    /// `true`), so every bucket holds exactly one copy.
    ///
    /// Ordering inside fact lists is *not* preserved (`swap_remove`) —
    /// sound because every evaluation path lands answers in a sorted
    /// `BTreeSet`. Hash-bucket keys whose list empties are removed
    /// outright: the UCQ kernel's existence checks and key-set steps
    /// and the NDL view extents (`∃q` / attribute-domain membership)
    /// all read `by_subject`/`by_object` *keys* as the extension, so a
    /// lingering empty bucket would answer for a fact that is gone.
    pub(crate) fn remove_assertion(&mut self, a: &Assertion) {
        fn drop_from<K: std::hash::Hash + Eq, V: PartialEq>(
            map: &mut HashMap<K, Vec<V>>,
            key: &K,
            value: &V,
        ) {
            if let Some(bucket) = map.get_mut(key) {
                if let Some(pos) = bucket.iter().position(|x| x == value) {
                    bucket.swap_remove(pos);
                }
                if bucket.is_empty() {
                    map.remove(key);
                }
            }
        }
        match a {
            Assertion::Concept(c, i) => {
                if let Some(f) = self.concepts.get_mut(&c.0) {
                    if let Some(pos) = f.members.iter().position(|m| m == i) {
                        f.members.swap_remove(pos);
                    }
                    f.set.remove(i);
                }
            }
            Assertion::Role(p, s, o) => {
                if let Some(f) = self.roles.get_mut(&p.0) {
                    if let Some(pos) = f.pairs.iter().position(|x| x == &(*s, *o)) {
                        f.pairs.swap_remove(pos);
                    }
                    drop_from(&mut f.by_subject, s, o);
                    drop_from(&mut f.by_object, o, s);
                }
            }
            Assertion::Attribute(u, s, v) => {
                if let Some(f) = self.attributes.get_mut(&u.0) {
                    if let Some(pos) = f.pairs.iter().position(|(ps, pv)| ps == s && pv == v) {
                        f.pairs.swap_remove(pos);
                    }
                    drop_from(&mut f.by_subject, s, v);
                }
            }
        }
    }

    /// Total number of indexed facts (diagnostics).
    pub fn num_facts(&self) -> usize {
        self.concepts
            .values()
            .map(|f| f.members.len())
            .sum::<usize>()
            + self.roles.values().map(|f| f.pairs.len()).sum::<usize>()
            + self
                .attributes
                .values()
                .map(|f| f.pairs.len())
                .sum::<usize>()
    }
}

/// Evaluates a CQ over an ABox (builds a throwaway [`AboxIndex`]).
pub fn evaluate_cq(q: &ConjunctiveQuery, abox: &Abox) -> Answers {
    let index = AboxIndex::build(abox);
    evaluate_cq_indexed(q, abox, &index)
}

/// Evaluates a UCQ (builds a throwaway [`AboxIndex`]).
pub fn evaluate_ucq(u: &Ucq, abox: &Abox) -> Answers {
    let index = AboxIndex::build(abox);
    evaluate_ucq_indexed(u, abox, &index)
}

/// Evaluates a CQ against a prebuilt index. The index must have been
/// built from this `abox`.
pub fn evaluate_cq_indexed(q: &ConjunctiveQuery, abox: &Abox, index: &AboxIndex) -> Answers {
    eval_disjuncts([q], abox, index).0
}

/// Evaluates a UCQ against a prebuilt index (union of the disjuncts'
/// answers).
pub fn evaluate_ucq_indexed(u: &Ucq, abox: &Abox, index: &AboxIndex) -> Answers {
    eval_disjuncts(&u.disjuncts, abox, index).0
}

/// [`evaluate_ucq_indexed`] under an `eval` trace span that counts the
/// disjuncts and the kernel's [`JoinWork`].
pub(crate) fn evaluate_ucq_traced(
    u: &Ucq,
    abox: &Abox,
    index: &AboxIndex,
    ctx: &obda_obs::TraceCtx,
) -> Answers {
    let guard = obda_obs::span!(ctx, "eval");
    guard.count("disjuncts", u.len() as u64);
    let (answers, work) = eval_disjuncts(&u.disjuncts, abox, index);
    work.count_on(&guard);
    answers
}

/// The work counters of one kernel run, recorded on its `eval` span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct JoinWork {
    /// Candidates the joins enumerated from scans, hash buckets and key
    /// sets (`join_steps`; membership probes of bound terms and
    /// existence checks are not counted).
    pub(crate) steps: u64,
    /// Matches found, before duplicates are dropped (`rows`).
    pub(crate) rows: u64,
}

impl JoinWork {
    /// Records both counters on an `eval` span.
    pub(crate) fn count_on(self, guard: &obda_obs::SpanGuard) {
        guard.count("join_steps", self.steps);
        guard.count("rows", self.rows);
    }
}

impl std::ops::AddAssign for JoinWork {
    fn add_assign(&mut self, other: JoinWork) {
        self.steps += other.steps;
        self.rows += other.rows;
    }
}

/// The join kernel: evaluates `disjuncts` one by one, each compiled
/// once into dense variable slots and a [`plan_join`] order, and
/// returns their unioned answers with the [`JoinWork`] done.
pub(crate) fn eval_disjuncts<'a>(
    disjuncts: impl IntoIterator<Item = &'a ConjunctiveQuery>,
    abox: &Abox,
    index: &'a AboxIndex,
) -> (Answers, JoinWork) {
    let mut rows = Rows::default();
    let mut plan = Compiled::default();
    let mut slots = Vec::new();
    let mut steps = 0;
    for q in disjuncts {
        if compile_cq(&mut plan, q, abox, index) {
            rows.start(plan.head.len(), abox);
            slots.clear();
            slots.resize(plan.num_slots(), None);
            let mut join = CqJoin {
                steps: &plan.steps,
                head: &plan.head,
                slots: &mut slots,
                rows: &mut rows,
                tried: 0,
            };
            join.run(0);
            steps += join.tried;
        }
    }
    let (answers, rows) = rows.finish(abox);
    (answers, JoinWork { steps, rows })
}

/// A binding the row buffer holds: ordered, so rows are deduplicated
/// before they are named, and named into an [`AnswerTerm`] by reading
/// `Names`.
pub(crate) trait RowTerm: Copy + Ord {
    /// What naming reads: the ABox for interned ids, nothing for terms
    /// that already borrow their names.
    type Names;

    /// The answer term this binding names.
    fn name(self, names: &Self::Names) -> AnswerTerm;
}

/// The head bindings of the matches found so far, one row of `width`
/// bindings after another in one flat buffer. Rows stay bindings
/// (interned ids, or names borrowed from view extents) until
/// [`Rows::finish`] drops the duplicates and names only the distinct
/// ones. Both join kernels fill one.
pub(crate) struct Rows<B> {
    width: usize,
    /// Number of buffered rows; a boolean head's rows have no bindings.
    len: usize,
    /// Rows appended since the buffer was made, duplicates included.
    matches: u64,
    flat: Vec<B>,
    /// Named rows of an earlier head arity (only a union whose heads
    /// differ in arity leaves any here).
    named: Answers,
}

impl<B> Default for Rows<B> {
    fn default() -> Self {
        Rows {
            width: 0,
            len: 0,
            matches: 0,
            flat: Vec::new(),
            named: Answers::new(),
        }
    }
}

impl<B: RowTerm> Rows<B> {
    /// Readies the buffer for rows of `width` bindings; rows of another
    /// width are named first.
    pub(crate) fn start(&mut self, width: usize, names: &B::Names) {
        if width != self.width {
            self.flush(names);
            self.width = width;
        }
    }

    /// Appends the bindings of the `head` slots as one row; a head slot
    /// still free drops the row.
    pub(crate) fn emit(&mut self, head: &[usize], slots: &[Option<B>]) {
        let start = self.flat.len();
        for &h in head {
            match slots.get(h).copied().flatten() {
                Some(b) => self.flat.push(b),
                None => {
                    self.flat.truncate(start);
                    return;
                }
            }
        }
        self.len += 1;
    }

    /// Deduplicates the buffered rows and names the distinct ones into
    /// `named`. Bindings and their names are one to one, so distinct
    /// rows stay distinct once named. When the bindings sort like their
    /// names, the named rows arrive in order and `collect` bulk-builds
    /// the set.
    fn flush(&mut self, names: &B::Names) {
        if self.len == 0 {
            return;
        }
        let mut named: Answers = if self.width == 0 {
            Answers::from([Vec::new()])
        } else {
            let mut distinct: Vec<&[B]> = self.flat.chunks_exact(self.width).collect();
            distinct.sort_unstable();
            distinct.dedup();
            distinct
                .into_iter()
                .map(|row| row.iter().map(|b| b.name(names)).collect())
                .collect()
        };
        self.named.append(&mut named);
        self.flat.clear();
        self.matches += self.len as u64;
        self.len = 0;
    }

    /// The distinct rows, named, and the number of rows appended.
    pub(crate) fn finish(mut self, names: &B::Names) -> (Answers, u64) {
        self.flush(names);
        (self.named, self.matches)
    }
}

/// The planner's view of one body atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AtomShape {
    /// Variable slots of the atom's (at most two) arguments.
    slots: [Option<usize>; 2],
    /// Whether an argument is a constant or a literal.
    has_const: bool,
    /// Size of the extension the atom is evaluated against.
    extent: usize,
}

impl AtomShape {
    /// The shape of an atom whose arguments have these slots (`None` for
    /// a constant or a literal) over an extension of `extent` facts.
    pub(crate) fn of(args: &[Option<usize>], extent: usize) -> AtomShape {
        AtomShape {
            slots: [
                args.first().copied().flatten(),
                args.get(1).copied().flatten(),
            ],
            has_const: args.contains(&None),
            extent,
        }
    }

    fn vars(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().flatten().copied()
    }
}

/// The join-order policy of both in-memory kernels: writes into `order`
/// the positions of `shapes` in evaluation order. Slots must be
/// numbered by first occurrence over `shapes`, as both kernels compile
/// them, so "a variable of an earlier atom" is a slot below the count
/// of slots seen so far.
///
/// The given order is kept when every atom after the first touches a
/// constant or an earlier variable. Otherwise atoms are picked
/// greedily: those tied to a constant or an already-bound variable
/// first, then fewest free variables, then smallest extent, then
/// position.
pub(crate) fn plan_join(shapes: &[AtomShape], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..shapes.len());
    let mut seen = 0;
    let mut connected = true;
    for (i, a) in shapes.iter().enumerate() {
        if i > 0 && !a.has_const && !a.vars().any(|s| s < seen) {
            connected = false;
            break;
        }
        seen = a.vars().fold(seen, |m, s| m.max(s + 1));
    }
    if connected {
        return;
    }
    let num_slots = shapes
        .iter()
        .flat_map(AtomShape::vars)
        .max()
        .map_or(0, |s| s + 1);
    let mut bound = vec![false; num_slots];
    for k in 0..order.len() {
        let rest = order.get(k..).unwrap_or(&[]);
        let best = rest
            .iter()
            .enumerate()
            .filter_map(|(j, &pos)| shapes.get(pos).map(|a| (j, pos, a)))
            .min_by_key(|&(_, pos, a)| {
                let is_bound = |s: usize| bound.get(s) == Some(&true);
                let tied = a.has_const || a.vars().any(is_bound);
                let free = match a.slots {
                    [Some(x), Some(y)] if x == y => usize::from(!is_bound(x)),
                    _ => a.vars().filter(|&s| !is_bound(s)).count(),
                };
                (!tied, free, a.extent, pos)
            });
        let Some((j, _, a)) = best else { break };
        order.swap(k, k + j);
        for s in a.vars() {
            if let Some(b) = bound.get_mut(s) {
                *b = true;
            }
        }
    }
}

/// A slot's value during a join: an individual, or a data value borrowed
/// from the index or the query. Ordered, so rows of bindings can be
/// deduplicated before they are named.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Binding<'a> {
    Ind(IndividualId),
    Val(&'a Value),
}

impl RowTerm for Binding<'_> {
    type Names = Abox;

    fn name(self, abox: &Abox) -> AnswerTerm {
        match self {
            Binding::Ind(i) => AnswerTerm::Iri(abox.individual_name(i).to_owned()),
            Binding::Val(v) => AnswerTerm::Value(v.clone()),
        }
    }
}

/// A compiled argument of either kernel: a constant, as a value of the
/// kernel's binding type `B`, or a variable slot.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arg<B> {
    Const(B),
    Slot(usize),
}

impl<B: Copy> Arg<B> {
    pub(crate) fn slot(self) -> Option<usize> {
        match self {
            Arg::Slot(s) => Some(s),
            Arg::Const(_) => None,
        }
    }

    /// The argument's value under `slots`, or `Err(slot)` when it is a
    /// free slot.
    pub(crate) fn resolve(self, slots: &[Option<B>]) -> Result<B, usize> {
        match self {
            Arg::Const(b) => Ok(b),
            Arg::Slot(s) => slots.get(s).copied().flatten().ok_or(s),
        }
    }
}

/// One compiled atom, bound to its predicate's facts.
#[derive(Debug, Clone, Copy)]
enum Step<'a> {
    /// A concept atom, or a role or attribute atom with one unbound
    /// argument, over the individuals its other argument may take.
    Unary(Members<'a>, Arg<Binding<'a>>),
    Role(&'a RoleFacts, Arg<Binding<'a>>, Arg<Binding<'a>>),
    Attr(&'a AttrFacts, Arg<Binding<'a>>, Arg<Binding<'a>>),
}

/// The individuals a unary step ranges over.
#[derive(Debug, Clone, Copy)]
enum Members<'a> {
    Concept(&'a ConceptFacts),
    /// The keys of a role's `by_subject` or `by_object` index — its
    /// domain or range, by the non-empty-bucket invariant of
    /// [`RoleFacts`].
    RoleKeys(&'a HashMap<IndividualId, Vec<IndividualId>>),
    /// The keys of an attribute's `by_subject` index (its domain).
    AttrKeys(&'a HashMap<IndividualId, Vec<Value>>),
}

impl Members<'_> {
    fn contains(self, i: IndividualId) -> bool {
        match self {
            Members::Concept(f) => f.set.contains(&i),
            Members::RoleKeys(m) => m.contains_key(&i),
            Members::AttrKeys(m) => m.contains_key(&i),
        }
    }

    fn len(self) -> usize {
        match self {
            Members::Concept(f) => f.members.len(),
            Members::RoleKeys(m) => m.len(),
            Members::AttrKeys(m) => m.len(),
        }
    }
}

/// A body compiled for one of the join kernels: dense variable slots,
/// the kernel's steps in planned order, and the head's slots. The
/// buffers are reused from body to body, so a UCQ of thousands of
/// one-atom disjuncts allocates them once.
pub(crate) struct Compiled<'a, S> {
    names: Vec<&'a str>,
    given: Vec<S>,
    shapes: Vec<AtomShape>,
    order: Vec<usize>,
    /// Steps in planned order.
    pub(crate) steps: Vec<S>,
    /// Slot of each head variable.
    pub(crate) head: Vec<usize>,
}

impl<S> Default for Compiled<'_, S> {
    fn default() -> Self {
        Compiled {
            names: Vec::new(),
            given: Vec::new(),
            shapes: Vec::new(),
            order: Vec::new(),
            steps: Vec::new(),
            head: Vec::new(),
        }
    }
}

impl<'a, S: Copy> Compiled<'a, S> {
    /// Starts the next body.
    pub(crate) fn reset(&mut self) {
        self.names.clear();
        self.given.clear();
        self.shapes.clear();
    }

    /// The slot of `var`; slots are numbered by first occurrence.
    pub(crate) fn slot(&mut self, var: &'a str) -> usize {
        match self.names.iter().position(|n| *n == var) {
            Some(s) => s,
            None => {
                self.names.push(var);
                self.names.len() - 1
            }
        }
    }

    /// Appends the body's next atom.
    pub(crate) fn push(&mut self, step: S, shape: AtomShape) {
        self.given.push(step);
        self.shapes.push(shape);
    }

    /// Maps the head onto slots and plans the join order; false when a
    /// head variable is missing from the body (the parser rejects such
    /// queries).
    pub(crate) fn finish(&mut self, head: &[String]) -> bool {
        self.head.clear();
        for h in head {
            match self.names.iter().position(|n| n == h) {
                Some(s) => self.head.push(s),
                None => return false,
            }
        }
        plan_join(&self.shapes, &mut self.order);
        self.steps.clear();
        let given = &self.given;
        self.steps
            .extend(self.order.iter().filter_map(|&i| given.get(i).copied()));
        true
    }

    /// Number of variable slots of the body.
    pub(crate) fn num_slots(&self) -> usize {
        self.names.len()
    }
}

/// Compiles `q` for [`CqJoin`]; false when it cannot match (a predicate
/// with no facts, a constant absent from the ABox, an unsafe head).
///
/// Unboundness belongs to the disjunct, so it is decided here: an atom
/// whose arguments are all unbound is dropped when its extension is
/// non-empty (and the disjunct fails otherwise), and an atom with one
/// unbound argument becomes a unary step over the other argument's
/// key set.
fn compile_cq<'a>(
    c: &mut Compiled<'a, Step<'a>>,
    q: &'a ConjunctiveQuery,
    abox: &Abox,
    index: &'a AboxIndex,
) -> bool {
    compile_body(c, q, abox, index).is_some() && c.finish(&q.head)
}

/// The body half of [`compile_cq`]; `None` when the disjunct cannot
/// match.
fn compile_body<'a>(
    c: &mut Compiled<'a, Step<'a>>,
    q: &'a ConjunctiveQuery,
    abox: &Abox,
    index: &'a AboxIndex,
) -> Option<()> {
    // `None` when the term is a constant absent from the ABox.
    let arg = |c: &mut Compiled<'a, Step<'a>>, t: &'a Term| match t {
        Term::Const(name) => abox
            .find_individual(name)
            .map(|i| Arg::Const(Binding::Ind(i))),
        Term::Var(v) => Some(Arg::Slot(c.slot(v))),
    };
    let unary = |members: Members<'a>, t: Arg<Binding<'a>>| {
        let shape = AtomShape::of(&[t.slot()], members.len());
        (Step::Unary(members, t), shape)
    };
    // A body variable is unbound exactly when it occurs once, head
    // occurrences counted: the test of [`ConjunctiveQuery::is_unbound`].
    let occ = q.var_occurrences();
    let unbound = |var: Option<&str>| var.is_some_and(|v| occ.get(v) == Some(&1));
    c.reset();
    for atom in &q.atoms {
        let (step, shape) = match atom {
            Atom::Concept(p, t) => {
                let facts = index.concepts.get(&p.0)?;
                match unbound(t.as_var()) {
                    true if facts.members.is_empty() => return None,
                    true => continue,
                    false => unary(Members::Concept(facts), arg(c, t)?),
                }
            }
            Atom::Role(p, s, o) => {
                let facts = index.roles.get(&p.0)?;
                match (unbound(s.as_var()), unbound(o.as_var())) {
                    (true, true) if facts.pairs.is_empty() => return None,
                    (true, true) => continue,
                    (false, true) => unary(Members::RoleKeys(&facts.by_subject), arg(c, s)?),
                    (true, false) => unary(Members::RoleKeys(&facts.by_object), arg(c, o)?),
                    (false, false) => {
                        let (s, o) = (arg(c, s)?, arg(c, o)?);
                        let shape = AtomShape::of(&[s.slot(), o.slot()], facts.pairs.len());
                        (Step::Role(facts, s, o), shape)
                    }
                }
            }
            Atom::Attribute(u, s, v) => {
                let facts = index.attributes.get(&u.0)?;
                match (unbound(s.as_var()), unbound(v.as_var())) {
                    (true, true) if facts.pairs.is_empty() => return None,
                    (true, true) => continue,
                    (false, true) => unary(Members::AttrKeys(&facts.by_subject), arg(c, s)?),
                    _ => {
                        let s = arg(c, s)?;
                        let v = match v {
                            ValueTerm::Lit(l) => Arg::Const(Binding::Val(l)),
                            ValueTerm::Var(x) => Arg::Slot(c.slot(x)),
                        };
                        let shape = AtomShape::of(&[s.slot(), v.slot()], facts.pairs.len());
                        (Step::Attr(facts, s, v), shape)
                    }
                }
            }
        };
        c.push(step, shape);
    }
    Some(())
}

/// One run of a compiled disjunct: a backtracking join over the planned
/// steps, probing hash buckets for bound terms.
struct CqJoin<'a, 'r> {
    steps: &'r [Step<'a>],
    head: &'r [usize],
    slots: &'r mut [Option<Binding<'a>>],
    rows: &'r mut Rows<Binding<'a>>,
    tried: u64,
}

impl<'a> CqJoin<'a, '_> {
    fn run(&mut self, depth: usize) {
        let Some(&step) = self.steps.get(depth) else {
            self.rows.emit(self.head, self.slots);
            return;
        };
        let next = depth + 1;
        match step {
            Step::Unary(members, t) => match t.resolve(self.slots) {
                Ok(Binding::Ind(i)) => {
                    if members.contains(i) {
                        self.run(next);
                    }
                }
                Ok(Binding::Val(_)) => {} // sort clash
                Err(s) => match members {
                    Members::Concept(f) => self.each(s, f.members.iter().copied(), next),
                    Members::RoleKeys(m) => self.each(s, m.keys().copied(), next),
                    Members::AttrKeys(m) => self.each(s, m.keys().copied(), next),
                },
            },
            Step::Role(facts, s, o) => match (s.resolve(self.slots), o.resolve(self.slots)) {
                (Ok(Binding::Val(_)), _) | (_, Ok(Binding::Val(_))) => {} // sort clash
                (Ok(Binding::Ind(ws)), Ok(Binding::Ind(wo))) => {
                    if bucket(&facts.by_subject, &ws).contains(&wo) {
                        self.run(next);
                    }
                }
                (Ok(Binding::Ind(ws)), Err(os)) => {
                    for &ob in bucket(&facts.by_subject, &ws) {
                        self.tried += 1;
                        self.descend(os, Binding::Ind(ob), next);
                    }
                }
                (Err(ss), Ok(Binding::Ind(wo))) => {
                    for &sb in bucket(&facts.by_object, &wo) {
                        self.tried += 1;
                        self.descend(ss, Binding::Ind(sb), next);
                    }
                }
                (Err(ss), Err(os)) => {
                    for &(sb, ob) in &facts.pairs {
                        self.tried += 1;
                        if ss == os {
                            if sb == ob {
                                self.descend(ss, Binding::Ind(sb), next);
                            }
                        } else {
                            self.set(ss, Some(Binding::Ind(sb)));
                            self.descend(os, Binding::Ind(ob), next);
                            self.set(ss, None);
                        }
                    }
                }
            },
            Step::Attr(facts, s, v) => match s.resolve(self.slots) {
                Ok(Binding::Ind(ws)) => {
                    for val in bucket(&facts.by_subject, &ws) {
                        self.tried += 1;
                        self.match_value(v, val, next);
                    }
                }
                Ok(Binding::Val(_)) => {} // sort clash
                Err(ss) => {
                    for (sb, val) in &facts.pairs {
                        self.tried += 1;
                        self.set(ss, Some(Binding::Ind(*sb)));
                        self.match_value(v, val, next);
                        self.set(ss, None);
                    }
                }
            },
        }
    }

    /// Binds `slot` to each individual of `members` in turn.
    fn each(&mut self, slot: usize, members: impl Iterator<Item = IndividualId>, next: usize) {
        for m in members {
            self.tried += 1;
            self.descend(slot, Binding::Ind(m), next);
        }
    }

    fn set(&mut self, slot: usize, b: Option<Binding<'a>>) {
        if let Some(x) = self.slots.get_mut(slot) {
            *x = b;
        }
    }

    /// Binds `slot` for the rest of the join, then unbinds it.
    fn descend(&mut self, slot: usize, b: Binding<'a>, next: usize) {
        self.set(slot, Some(b));
        self.run(next);
        self.set(slot, None);
    }

    /// Continues the join if a fact's value matches the value position.
    fn match_value(&mut self, v: Arg<Binding<'a>>, val: &'a Value, next: usize) {
        match v.resolve(self.slots) {
            Ok(Binding::Val(b)) => {
                if b == val {
                    self.run(next);
                }
            }
            Ok(Binding::Ind(_)) => {} // sort clash
            Err(k) => self.descend(k, Binding::Val(val), next),
        }
    }
}

/// A hash bucket as a slice (empty when the key is absent).
fn bucket<'m, K: std::hash::Hash + Eq, V>(map: &'m HashMap<K, Vec<V>>, key: &K) -> &'m [V] {
    map.get(key).map(Vec::as_slice).unwrap_or(&[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_cq;
    use obda_dllite::{parse_abox, parse_tbox};

    fn setup() -> (obda_dllite::Signature, Abox) {
        let t = parse_tbox("concept A B\nrole p\nattribute u").unwrap();
        let ab = parse_abox(
            "A(x1)\nA(x2)\nB(x2)\np(x1, x2)\np(x2, x2)\nu(x1, 5)\nu(x2, \"hi\")",
            &t.sig,
        )
        .unwrap();
        (t.sig, ab)
    }

    fn names(ans: &Answers) -> Vec<String> {
        ans.iter()
            .map(|t| {
                t.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect()
    }

    #[test]
    fn single_concept_atom() {
        let (sig, ab) = setup();
        let q = parse_cq("q(x) :- A(x)", &sig).unwrap();
        assert_eq!(names(&evaluate_cq(&q, &ab)), vec!["x1", "x2"]);
    }

    #[test]
    fn join_across_atoms() {
        let (sig, ab) = setup();
        let q = parse_cq("q(x) :- A(x), p(x, y), B(y)", &sig).unwrap();
        assert_eq!(names(&evaluate_cq(&q, &ab)), vec!["x1", "x2"]);
        let q2 = parse_cq("q(x) :- B(x), p(x, x)", &sig).unwrap();
        assert_eq!(names(&evaluate_cq(&q2, &ab)), vec!["x2"]);
    }

    #[test]
    fn constants_restrict() {
        let (sig, ab) = setup();
        let q = parse_cq("q(y) :- p(\"x1\", y)", &sig).unwrap();
        assert_eq!(names(&evaluate_cq(&q, &ab)), vec!["x2"]);
        let q2 = parse_cq("q(y) :- p(\"ghost\", y)", &sig).unwrap();
        assert!(evaluate_cq(&q2, &ab).is_empty());
    }

    #[test]
    fn attribute_values_and_literals() {
        let (sig, ab) = setup();
        let q = parse_cq("q(x, n) :- u(x, n)", &sig).unwrap();
        assert_eq!(evaluate_cq(&q, &ab).len(), 2);
        let q2 = parse_cq("q(x) :- u(x, 5)", &sig).unwrap();
        assert_eq!(names(&evaluate_cq(&q2, &ab)), vec!["x1"]);
        let q3 = parse_cq("q(x) :- u(x, \"hi\")", &sig).unwrap();
        assert_eq!(names(&evaluate_cq(&q3, &ab)), vec!["x2"]);
    }

    #[test]
    fn repeated_variable_in_role_atom() {
        let (sig, ab) = setup();
        let q = parse_cq("q(x) :- p(x, x)", &sig).unwrap();
        assert_eq!(names(&evaluate_cq(&q, &ab)), vec!["x2"]);
    }

    #[test]
    fn shared_value_variable_joins() {
        let (sig, mut_ab) = setup();
        let mut ab = mut_ab;
        // Give x2 the same value 5 so a value join has a witness.
        let u = sig.find_attribute("u").unwrap();
        ab.assert_attribute(u, "x2", Value::Int(5));
        let q = parse_cq("q(x, y) :- u(x, n), u(y, n)", &sig).unwrap();
        let ans = evaluate_cq(&q, &ab);
        // (x1,x1), (x1,x2), (x2,x1), (x2,x2 via 5 and via "hi").
        assert_eq!(ans.len(), 4);
    }

    /// Every atom after the first touches a constant or a variable of
    /// an earlier atom.
    fn connected(shapes: &[AtomShape], order: &[usize]) -> bool {
        let mut bound: Vec<usize> = Vec::new();
        order.iter().enumerate().all(|(k, &i)| {
            let a = &shapes[i];
            let ok = k == 0 || a.has_const || a.vars().any(|s| bound.contains(&s));
            bound.extend(a.vars());
            ok
        })
    }

    #[test]
    fn planner_connects_the_canonical_q3_shape() {
        // GradStudent(v0), FullProfessor(v1), teacherOf(v1, v2),
        // takesCourse(v0, v2): the canonical order starts with a cross
        // product of the two concepts.
        let shapes = [
            AtomShape::of(&[Some(0)], 224),
            AtomShape::of(&[Some(1)], 80),
            AtomShape::of(&[Some(1), Some(2)], 96),
            AtomShape::of(&[Some(0), Some(2)], 900),
        ];
        assert!(!connected(&shapes, &[0, 1, 2, 3]));
        let mut order = Vec::new();
        plan_join(&shapes, &mut order);
        assert!(connected(&shapes, &order), "{order:?}");
        // The smaller concept opens the join.
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn planner_keeps_an_order_that_is_already_connected() {
        // Student(x), takesCourse(x, y), Course(y), u(y, "t"): large
        // extents first, but every atom joins an earlier one.
        let shapes = [
            AtomShape::of(&[Some(0)], 5_000),
            AtomShape::of(&[Some(0), Some(1)], 9_000),
            AtomShape::of(&[Some(1)], 10),
            AtomShape::of(&[Some(1), None], 1),
        ];
        let mut order = Vec::new();
        plan_join(&shapes, &mut order);
        assert_eq!(order, vec![0, 1, 2, 3]);
        // A constant alone connects an atom too.
        let ground = [AtomShape::of(&[Some(0)], 7), AtomShape::of(&[None], 3)];
        plan_join(&ground, &mut order);
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn disconnected_queries_still_answer_the_cross_product() {
        let (sig, ab) = setup();
        let q = parse_cq("q(x, y) :- A(x), B(y)", &sig).unwrap();
        assert_eq!(names(&evaluate_cq(&q, &ab)), vec!["x1,x2", "x2,x2"]);
        let q2 = parse_cq("q(x, n) :- p(x, y), u(z, n), B(y)", &sig).unwrap();
        assert_eq!(
            names(&evaluate_cq(&q2, &ab)),
            vec!["x1,5", "x1,\"hi\"", "x2,5", "x2,\"hi\""]
        );
    }

    #[test]
    fn edge_cases_answer_alike_in_every_atom_order() {
        let (sig, mut ab) = setup();
        let u = sig.find_attribute("u").unwrap();
        ab.assert_attribute(u, "x2", Value::Int(5));
        // (query bodies, expected answers) — each body in every order.
        let cases: &[(&str, &[&str], &[&str])] = &[
            // A repeated variable.
            ("q(x)", &["p(x, x)", "A(x)", "B(x)"], &["x2"]),
            // A constant absent from the ABox, joined and disconnected.
            ("q(y)", &["A(y)", "p(\"ghost\", y)"], &[]),
            ("q(x)", &["A(x)", "B(\"ghost\")"], &[]),
            // A value variable shared by two attribute atoms.
            (
                "q(x, y)",
                &["u(x, n)", "u(y, n)", "A(x)"],
                &["x1,x1", "x1,x2", "x2,x1", "x2,x2"],
            ),
            // A variable in both an IRI and a value position: individuals
            // and values are disjoint, so it never matches, in one atom
            // or across two.
            ("q(x)", &["A(x)", "u(y, x)"], &[]),
            ("q(y)", &["u(y, x)", "p(x, z)"], &[]),
            ("q(x)", &["u(x, x)", "A(x)"], &[]),
            // Unbound variables (one occurrence, not in the head) in the
            // object, subject and value positions.
            ("q(x)", &["p(x, w)", "A(x)"], &["x1", "x2"]),
            ("q(x)", &["p(w, x)", "A(x)"], &["x2"]),
            ("q(x)", &["u(x, w)", "B(x)"], &["x2"]),
            ("q(n)", &["u(w, n)"], &["5", "\"hi\""]),
            ("q(x)", &["u(x, n)", "u(w, n)"], &["x1", "x2"]),
            // Disconnected atoms whose arguments are all unbound.
            ("q(x)", &["B(x)", "A(w)", "p(w1, w2)"], &["x2"]),
            ("q(x)", &["B(x)", "u(w1, w2)"], &["x2"]),
            // An unbound subject beside a literal.
            ("q(x)", &["A(x)", "u(w, 5)"], &["x1", "x2"]),
            ("q(x)", &["A(x)", "u(w, 7)"], &[]),
            // Boolean queries: one empty tuple when anything matches.
            ("q()", &["p(x, y)"], &[""]),
            ("q()", &["p(x, y)", "u(y, 7)"], &[]),
        ];
        let index = AboxIndex::build(&ab);
        for &(head, body, want) in cases {
            for perm in permutations(body.len()) {
                let atoms: Vec<&str> = perm.iter().map(|&i| body[i]).collect();
                let text = format!("{head} :- {}", atoms.join(", "));
                let q = parse_cq(&text, &sig).unwrap();
                assert_eq!(names(&evaluate_cq_indexed(&q, &ab, &index)), want, "{text}");
            }
        }
        // A two-variable head whose rows repeat across disjuncts.
        let bodies: [&[&str]; 3] = [&["p(x, y)"], &["p(x, y)", "A(x)"], &["p(x, y)", "B(y)"]];
        for perm in permutations(2) {
            let disjuncts = bodies
                .iter()
                .map(|body| {
                    let atoms: Vec<&str> =
                        perm.iter().filter_map(|&i| body.get(i)).copied().collect();
                    parse_cq(&format!("q(x, y) :- {}", atoms.join(", ")), &sig).unwrap()
                })
                .collect();
            let ucq = Ucq { disjuncts };
            let ans = evaluate_ucq_indexed(&ucq, &ab, &index);
            assert_eq!(names(&ans), ["x1,x2", "x2,x2"], "{perm:?}");
        }
        // Disjuncts whose heads differ in arity keep their own tuples.
        let mixed = [
            "q(x) :- B(x)",
            "q(x, y) :- p(x, y)",
            "q() :- A(x)",
            "q(y) :- A(y)",
        ];
        let ucq = Ucq {
            disjuncts: mixed.iter().map(|t| parse_cq(t, &sig).unwrap()).collect(),
        };
        let ans = evaluate_ucq_indexed(&ucq, &ab, &index);
        assert_eq!(names(&ans), ["", "x1", "x1,x2", "x2", "x2,x2"]);
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for at in 0..=p.len() {
                let mut q = p.clone();
                q.insert(at, n - 1);
                out.push(q);
            }
        }
        out
    }

    /// Join steps of `q` evaluated in its given atom order.
    fn steps_in_given_order(q: &ConjunctiveQuery, abox: &Abox, index: &AboxIndex) -> u64 {
        let mut plan = Compiled::default();
        assert!(compile_cq(&mut plan, q, abox, index));
        let mut slots = vec![None; plan.num_slots()];
        let mut rows = Rows::default();
        rows.start(plan.head.len(), abox);
        let mut join = CqJoin {
            steps: &plan.given,
            head: &plan.head,
            slots: &mut slots,
            rows: &mut rows,
            tried: 0,
        };
        join.run(0);
        join.tried
    }

    #[test]
    fn q3_join_steps_undercut_the_canonical_cross_product() {
        use obda_genont::university_scenario;
        // Scale 20: at scale 1 the cross product is only 16 × 2 pairs.
        let scenario = university_scenario(20, 42);
        let db = crate::demo::load_database(&scenario).unwrap();
        let abox = obda_mapping::materialize(&crate::demo::build_mappings(&scenario), &db).unwrap();
        let q3 = &scenario.queries[2];
        let q = parse_cq(&q3.text, &scenario.tbox.sig).unwrap();
        let ucq = crate::prune_ucq(&crate::perfect_ref(&q, &scenario.tbox));
        assert_eq!(ucq.len(), 1);
        let index = AboxIndex::build(&abox);
        let ctx = obda_obs::TraceCtx::new();
        let answers = evaluate_ucq_traced(&ucq, &abox, &index, &ctx);
        let trace = ctx.finish("ok", answers.len() as u64).unwrap();
        let steps = trace.counter("join_steps");
        assert!(!answers.is_empty());
        assert!(steps > 0);
        // The canonical order (GradStudent, FullProfessor, …) binds every
        // pair of the two concepts before its first join probe.
        let count = |name: &str| {
            let c = scenario.tbox.sig.find_concept(name).unwrap();
            abox.concept_instances(c).count() as u64
        };
        let cross = count("GradStudent") * count("FullProfessor");
        let canonical = steps_in_given_order(&ucq.disjuncts[0], &abox, &index);
        assert!(canonical >= cross, "{canonical} < {cross}");
        assert!(
            steps < cross,
            "{steps} join steps planned vs the {cross}-pair cross product"
        );
    }
}
