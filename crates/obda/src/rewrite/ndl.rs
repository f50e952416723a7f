//! **NDL rewriting target**: the Presto view skeletons compiled into a
//! stratified nonrecursive-datalog program, evaluated with *shared* view
//! extents instead of a per-skeleton cross-product of members.
//!
//! Presto already keeps the number of *skeletons* small, but our
//! evaluation path expanded each view atom into the union of its member
//! predicates per skeleton — re-deriving the same view extension once per
//! occurrence, and (on the PerfectRef path) exploding into a UCQ that the
//! `PRUNE_DISJUNCT_CAP` has to cap. Bienvenu et al. show this gap is
//! inherent: UCQ rewritings are exponential in the worst case while
//! NDL rewritings stay polynomial. The NDL program makes the sharing
//! explicit:
//!
//! * **stratum 0** — one rule per view member: `V_S(x) :- B(x)` for every
//!   basic expression `B ⊑* S` in the classification closure;
//! * **stratum 1** — one rule per Presto skeleton, over the stratum-0
//!   view predicates.
//!
//! Each distinct view predicate appears **once** in the program, so
//! program size is `O(skeletons + Σ |members|)` — polynomial in the
//! TBox — and evaluation materializes each view extent exactly once:
//!
//! * **materialized mode**: [`build_extent`] computes the extent from the
//!   [`AboxIndex`], keyed by name so per-shard extents merge without
//!   re-interning; a [`ViewMemo`] caches extents per ABox epoch
//!   (`ndl_view_memo_{hit,miss}` registry counters), and
//!   [`eval_skeletons`] joins each skeleton over the extents: compiled
//!   to slots and ordered by the UCQ evaluator's planner
//!   ([`crate::answer`]), with extent sizes as the cost, then a
//!   backtracking join that iterates extent buckets by reference. The
//!   join runs under set semantics, as the UCQ kernel does: each match
//!   appends its head bindings to the shared row buffer as borrowed
//!   names, and after the last skeleton the rows are sorted,
//!   deduplicated and only then named; extents are name-sorted, so rows
//!   mostly arrive in answer order already and the answer set is
//!   bulk-built. A binary extent indexes its objects by IRI
//!   ([`ViewExtent::by_object`]) and by value ([`ViewExtent::by_value`])
//!   separately, so a bound-object probe borrows its key;
//! * **virtual mode**: [`answer_ndl_virtual_traced`] compiles the whole
//!   program into **one** SQL plan — each view extent is a
//!   [`Plan::SharedScan`] (CTE-style `WITH v AS (...)`) over the union of
//!   its member sources, with IRI templates concatenated into full-IRI
//!   text columns so skeleton joins are single-column string equality;
//!   every skeleton referencing a view reuses the same materialized
//!   intermediate within the statement.
//!
//! Memo keying note: the memo key is the view predicate alone, not
//! (predicate, binding pattern) — an extent carries its own secondary
//! indexes (by-subject / by-object / by-value / membership set), so one
//! materialization serves every binding pattern that arises during the
//! join. Invalidation is keyed on a [`DataEpoch`] — the pair of the
//! TBox epoch and an ABox version: a TBox change or a wholesale ABox
//! swap moves the epoch and the memo self-clears on next access, while
//! the incremental write path ([`crate::delta`]) *patches* memoized
//! extents in place and restamps the memo at the new ABox version.

use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use obda_dllite::{Abox, AttributeId, BasicConcept, BasicRole, Value};
use obda_mapping::MappingSet;
use obda_obs::TraceCtx;
use obda_sqlstore::plan::{CompiledCmp, Source};
use obda_sqlstore::sql::ast::{
    CmpOp, Comparison, Join, Operand, SelectCore, SelectItem, SelectQuery,
};
use obda_sqlstore::{
    execute_traced, plan_query, ComputeExpr, Database, Plan, PlannedQuery, SqlError, SqlValue,
};
use quonto::sync::lock_or_recover;
use quonto::Classification;

use crate::answer::{
    AboxIndex, AnswerTerm, Answers, Arg, AtomShape, Compiled, JoinWork, RowTerm, Rows,
};
use crate::error::{ErrorPhase, ObdaError};
use crate::query::{ConjunctiveQuery, Term, ValueTerm};
use crate::rewrite::presto::{
    attr_view_members, concept_view_members, presto_rewrite, role_view_members, ViewAtom, ViewQuery,
};
use crate::rewrite::unfold::{view_atom_sources, ArgBinding, FlatSource};

/// A stratum-0 intensional predicate: the view of one basic expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ViewPred {
    /// Unary concept view `V_S(x)`.
    Concept(BasicConcept),
    /// Binary role view `V_Q(x, y)` (orientation included).
    Role(BasicRole),
    /// Attribute view `V_U(x, v)`.
    Attr(AttributeId),
}

impl ViewPred {
    /// The view predicate a skeleton atom reads.
    pub fn of(atom: &ViewAtom) -> ViewPred {
        match atom {
            ViewAtom::ConceptView(s, _) => ViewPred::Concept(*s),
            ViewAtom::RoleView(r, _, _) => ViewPred::Role(*r),
            ViewAtom::AttrView(u, _, _) => ViewPred::Attr(*u),
        }
    }
}

/// A view predicate plus its member rules (one rule per member).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewDef {
    /// Concept view: members are basic concepts `B ⊑* S`.
    Concept {
        /// The view's target expression.
        target: BasicConcept,
        /// Subsumee members, sorted and deduplicated.
        members: Vec<BasicConcept>,
    },
    /// Role view: members are basic roles `Q' ⊑* Q`.
    Role {
        /// The view's target role (with orientation).
        target: BasicRole,
        /// Subsumee members, sorted and deduplicated.
        members: Vec<BasicRole>,
    },
    /// Attribute view: members are attributes `U' ⊑* U`.
    Attr {
        /// The view's target attribute.
        target: AttributeId,
        /// Subsumee members, sorted and deduplicated.
        members: Vec<AttributeId>,
    },
}

impl ViewDef {
    /// The predicate this definition defines.
    pub fn pred(&self) -> ViewPred {
        match self {
            ViewDef::Concept { target, .. } => ViewPred::Concept(*target),
            ViewDef::Role { target, .. } => ViewPred::Role(*target),
            ViewDef::Attr { target, .. } => ViewPred::Attr(*target),
        }
    }

    /// Number of stratum-0 rules (one per member).
    pub fn num_members(&self) -> usize {
        match self {
            ViewDef::Concept { members, .. } => members.len(),
            ViewDef::Role { members, .. } => members.len(),
            ViewDef::Attr { members, .. } => members.len(),
        }
    }
}

/// A compiled NDL program: shared stratum-0 view definitions plus the
/// stratum-1 skeleton rules over them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NdlProgram {
    /// Distinct view predicates, in deterministic (sorted) order.
    pub views: Vec<ViewDef>,
    /// Skeleton rules (shape shared with the Presto rewriting).
    pub queries: Vec<ViewQuery>,
    /// Total rule count: one per view member plus one per skeleton.
    pub num_rules: usize,
}

impl NdlProgram {
    /// Number of skeleton rules.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the program has no skeletons (unsatisfiable query shape).
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

// Registry counters for the NDL path, resolved once.
obda_obs::counter_handle!(fn ndl_rules_total, "ndl_rules");
obda_obs::counter_handle!(fn ndl_memo_hit_total, "ndl_view_memo_hit");
obda_obs::counter_handle!(fn ndl_memo_miss_total, "ndl_view_memo_miss");

/// Compiles `q` into an NDL program: Presto skeletons plus one shared
/// view definition per distinct view predicate they mention.
pub fn ndl_compile(q: &ConjunctiveQuery, cls: &Classification) -> NdlProgram {
    ndl_compile_ebox(q, cls, None)
}

/// [`ndl_compile`] with EBox member pruning: each view definition keeps
/// only members with non-empty, non-subsumed asserted extensions
/// (counted `ebox_pruned_views`). Extents built from the pruned members
/// stay correct under delta maintenance because `maintain_memo` patches
/// against the *full* classification-derived member list: an insert
/// into a pruned member lands in the extent through its kept subsumer's
/// containment, revalidated (or retracted) by the write path first.
pub(crate) fn ndl_compile_ebox(
    q: &ConjunctiveQuery,
    cls: &Classification,
    ebox: Option<&obda_mapping::Ebox>,
) -> NdlProgram {
    use crate::rewrite::eboxprune::{
        prune_attr_members, prune_concept_members, prune_role_members,
    };
    let presto = presto_rewrite(q, cls);
    let mut preds: BTreeSet<ViewPred> = BTreeSet::new();
    for vq in &presto.queries {
        for atom in &vq.atoms {
            preds.insert(ViewPred::of(atom));
        }
    }
    let views: Vec<ViewDef> = preds
        .into_iter()
        .map(|p| match p {
            ViewPred::Concept(s) => ViewDef::Concept {
                target: s,
                members: match ebox {
                    Some(e) => prune_concept_members(concept_view_members(cls, s), e),
                    None => concept_view_members(cls, s),
                },
            },
            ViewPred::Role(r) => ViewDef::Role {
                target: r,
                members: match ebox {
                    Some(e) => prune_role_members(role_view_members(cls, r), e),
                    None => role_view_members(cls, r),
                },
            },
            ViewPred::Attr(u) => ViewDef::Attr {
                target: u,
                members: match ebox {
                    Some(e) => prune_attr_members(attr_view_members(cls, u), e),
                    None => attr_view_members(cls, u),
                },
            },
        })
        .collect();
    let num_rules = views.iter().map(ViewDef::num_members).sum::<usize>() + presto.queries.len();
    NdlProgram {
        views,
        queries: presto.queries,
        num_rules,
    }
}

/// Traced [`ndl_compile`]: child span `ndl` (under the engine's
/// `rewrite` span) with rule/view/skeleton counters, plus the
/// process-wide `ndl_rules` registry counter.
pub fn ndl_compile_traced(
    q: &ConjunctiveQuery,
    cls: &Classification,
    ctx: &TraceCtx,
) -> NdlProgram {
    ndl_compile_traced_ebox(q, cls, ctx, None)
}

/// [`ndl_compile_traced`] with EBox member pruning (see
/// [`ndl_compile_ebox`]).
pub(crate) fn ndl_compile_traced_ebox(
    q: &ConjunctiveQuery,
    cls: &Classification,
    ctx: &TraceCtx,
    ebox: Option<&obda_mapping::Ebox>,
) -> NdlProgram {
    let guard = ctx.span("ndl");
    let prog = ndl_compile_ebox(q, cls, ebox);
    guard.count("rules", prog.num_rules as u64);
    guard.count("views", prog.views.len() as u64);
    guard.count("skeletons", prog.queries.len() as u64);
    ndl_rules_total().add(prog.num_rules as u64);
    prog
}

// ---------------------------------------------------------------------------
// Native evaluation: name-keyed view extents + memo + planned join.
// ---------------------------------------------------------------------------

/// A materialized view extent, keyed by individual *name* so per-shard
/// extents (whose `IndividualId`s are shard-local) merge directly.
/// Carries the same secondary indexes as [`AboxIndex`], so one extent
/// serves every binding pattern.
///
/// Invariant: every `by_subject`, `by_object` and `by_value` key has a
/// non-empty bucket (`remove_pair` drops emptied ones), so an extent
/// patched in place equals the one `from_pairs` builds from its pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewExtent {
    /// Unary members (concept views), sorted and deduplicated.
    pub members: Vec<String>,
    /// Membership set for bound-term probes (unary views).
    pub member_set: HashSet<String>,
    /// Binary pairs (role views: IRI/IRI; attribute views: IRI/value
    /// with the value in [`ExtTerm::Val`]), sorted and deduplicated.
    pub pairs: Vec<(String, ExtTerm)>,
    /// Subject → objects index over `pairs`, buckets sorted.
    pub by_subject: HashMap<String, Vec<ExtTerm>>,
    /// IRI object → subjects index (role views), buckets sorted.
    pub by_object: HashMap<String, Vec<String>>,
    /// Value → subjects index (attribute views), buckets sorted.
    pub by_value: HashMap<Value, Vec<String>>,
}

/// Second component of a binary extent pair: an IRI or a data value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExtTerm {
    /// Individual IRI.
    Iri(String),
    /// Attribute value.
    Val(Value),
}

/// Inserts `value` into the sorted bucket of `key`.
fn insert_sorted<K: Hash + Eq, V: Ord>(map: &mut HashMap<K, Vec<V>>, key: K, value: V) {
    let bucket = map.entry(key).or_default();
    if let Err(at) = bucket.binary_search(&value) {
        bucket.insert(at, value);
    }
}

/// Removes `value` from the sorted bucket of `key`, dropping the key
/// when its bucket empties.
fn remove_sorted<K, Q, V, W>(map: &mut HashMap<K, Vec<V>>, key: &Q, value: &W)
where
    K: Borrow<Q> + Hash + Eq,
    Q: Hash + Eq + ?Sized,
    V: Borrow<W>,
    W: Ord + ?Sized,
{
    if let Some(bucket) = map.get_mut(key) {
        if let Ok(at) = bucket.binary_search_by(|x| x.borrow().cmp(value)) {
            bucket.remove(at);
        }
        if bucket.is_empty() {
            map.remove(key);
        }
    }
}

impl ViewExtent {
    pub(crate) fn from_members(mut members: Vec<String>) -> ViewExtent {
        members.sort();
        members.dedup();
        let member_set = members.iter().cloned().collect();
        ViewExtent {
            members,
            member_set,
            ..ViewExtent::default()
        }
    }

    pub(crate) fn from_pairs(mut pairs: Vec<(String, ExtTerm)>) -> ViewExtent {
        pairs.sort();
        pairs.dedup();
        let mut ext = ViewExtent::default();
        // Pairs arrive sorted, so every bucket fills in order.
        for (s, o) in &pairs {
            ext.by_subject.entry(s.clone()).or_default().push(o.clone());
            match o {
                ExtTerm::Iri(n) => ext.by_object.entry(n.clone()).or_default(),
                ExtTerm::Val(v) => ext.by_value.entry(v.clone()).or_default(),
            }
            .push(s.clone());
        }
        ext.pairs = pairs;
        ext
    }

    /// Adds one member in place (unary extents), keeping `members`
    /// sorted/deduplicated and `member_set` consistent. Duplicates are
    /// no-ops. The write path patches extents with this instead of
    /// rebuilding them, so a delta's memo cost is O(batch · log extent)
    /// plus the insertion memmoves — not a clone of the extent.
    pub(crate) fn add_member(&mut self, name: String) {
        if self.member_set.contains(&name) {
            return;
        }
        let pos = self
            .members
            .binary_search(&name)
            .expect_err("member_set said absent");
        self.members.insert(pos, name.clone());
        self.member_set.insert(name);
    }

    /// Removes one member in place; absent names are no-ops.
    pub(crate) fn remove_member(&mut self, name: &str) {
        if !self.member_set.remove(name) {
            return;
        }
        if let Ok(pos) = self.members.binary_search_by(|m| m.as_str().cmp(name)) {
            self.members.remove(pos);
        }
    }

    /// Adds one pair in place (binary extents), keeping `pairs` and the
    /// secondary-index buckets in the same sorted order a from-scratch
    /// [`ViewExtent::from_pairs`] build produces. Duplicates are no-ops.
    pub(crate) fn add_pair(&mut self, s: String, o: ExtTerm) {
        let pair = (s, o);
        let Err(pos) = self.pairs.binary_search(&pair) else {
            return;
        };
        self.pairs.insert(pos, pair.clone());
        let (s, o) = pair;
        match &o {
            ExtTerm::Iri(n) => insert_sorted(&mut self.by_object, n.clone(), s.clone()),
            ExtTerm::Val(v) => insert_sorted(&mut self.by_value, v.clone(), s.clone()),
        }
        insert_sorted(&mut self.by_subject, s, o);
    }

    /// Removes one pair in place, dropping emptied index buckets;
    /// absent pairs are no-ops.
    pub(crate) fn remove_pair(&mut self, s: &str, o: &ExtTerm) {
        let found = self
            .pairs
            .binary_search_by(|(ps, po)| ps.as_str().cmp(s).then_with(|| po.cmp(o)));
        let Ok(pos) = found else { return };
        self.pairs.remove(pos);
        remove_sorted(&mut self.by_subject, s, o);
        match o {
            ExtTerm::Iri(n) => remove_sorted(&mut self.by_object, n.as_str(), s),
            ExtTerm::Val(v) => remove_sorted(&mut self.by_value, v, s),
        }
    }

    /// Number of tuples in the extent.
    pub fn len(&self) -> usize {
        self.members.len() + self.pairs.len()
    }

    /// True when the extent is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty() && self.pairs.is_empty()
    }
}

/// Builds one view extent from the fact index (stratum-0 evaluation:
/// the union over the view's members of their direct extensions).
pub fn build_extent(def: &ViewDef, abox: &Abox, index: &AboxIndex) -> ViewExtent {
    let name = |i| abox.individual_name(i).to_string();
    match def {
        ViewDef::Concept { members, .. } => {
            let mut out = Vec::new();
            for m in members {
                match m {
                    BasicConcept::Atomic(a) => {
                        if let Some(f) = index.concepts.get(&a.0) {
                            out.extend(f.members.iter().map(|&i| name(i)));
                        }
                    }
                    BasicConcept::Exists(q) => {
                        if let Some(f) = index.roles.get(&q.role().0) {
                            let keys = if q.is_inverse() {
                                f.by_object.keys()
                            } else {
                                f.by_subject.keys()
                            };
                            out.extend(keys.map(|&i| name(i)));
                        }
                    }
                    BasicConcept::AttrDomain(u) => {
                        if let Some(f) = index.attributes.get(&u.0) {
                            out.extend(f.by_subject.keys().map(|&i| name(i)));
                        }
                    }
                }
            }
            ViewExtent::from_members(out)
        }
        ViewDef::Role { members, .. } => {
            let mut out = Vec::new();
            for m in members {
                if let Some(f) = index.roles.get(&m.role().0) {
                    for &(s, o) in &f.pairs {
                        let (s, o) = if m.is_inverse() { (o, s) } else { (s, o) };
                        out.push((name(s), ExtTerm::Iri(name(o))));
                    }
                }
            }
            ViewExtent::from_pairs(out)
        }
        ViewDef::Attr { members, .. } => {
            let mut out = Vec::new();
            for m in members {
                if let Some(f) = index.attributes.get(&m.0) {
                    for (s, v) in &f.pairs {
                        out.push((name(*s), ExtTerm::Val(v.clone())));
                    }
                }
            }
            ViewExtent::from_pairs(out)
        }
    }
}

/// Merges per-shard partial extents into one (ordered concatenation
/// then sort + dedup — byte-identical regardless of shard count).
pub fn merge_extents(parts: &[Arc<ViewExtent>]) -> ViewExtent {
    if parts.iter().any(|p| !p.members.is_empty()) {
        let mut members = Vec::new();
        for p in parts {
            members.extend(p.members.iter().cloned());
        }
        ViewExtent::from_members(members)
    } else {
        let mut pairs = Vec::new();
        for p in parts {
            pairs.extend(p.pairs.iter().cloned());
        }
        ViewExtent::from_pairs(pairs)
    }
}

/// The pair of epochs data-derived caches depend on. The rewrite cache
/// is keyed on the TBox epoch alone (rewritings never read the ABox);
/// memoized view extents depend on both components — `tbox` moves on
/// schema-level invalidation, `abox` is a monotone per-system version
/// counter bumped by every ABox change (wholesale swap *or* incremental
/// delta).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataEpoch {
    /// TBox / classification epoch (rewrite-cache generation).
    pub tbox: u64,
    /// ABox version within that TBox epoch.
    pub abox: u64,
}

/// Epoch-guarded memo of materialized view extents. Shared by the
/// unsharded systems (whole-ABox extents), each shard (shard-local
/// partial extents) and the sharded coordinator (merged extents).
#[derive(Debug, Default)]
pub struct ViewMemo {
    epoch: DataEpoch,
    extents: HashMap<ViewPred, Arc<ViewExtent>>,
}

impl ViewMemo {
    /// Drops every memoized extent (ABox refresh without an epoch bump).
    pub fn clear(&mut self) {
        self.extents.clear();
    }

    /// The epoch the memoized extents were built at.
    pub(crate) fn epoch(&self) -> DataEpoch {
        self.epoch
    }

    /// Restamps the memo (the write path patches extents in place and
    /// then declares them current at the new ABox version).
    pub(crate) fn set_epoch(&mut self, epoch: DataEpoch) {
        self.epoch = epoch;
    }

    /// The currently memoized view predicates.
    pub(crate) fn preds(&self) -> Vec<ViewPred> {
        self.extents.keys().cloned().collect()
    }

    /// Replaces the memoized extent of `pred`.
    pub(crate) fn insert(&mut self, pred: ViewPred, ext: Arc<ViewExtent>) {
        self.extents.insert(pred, ext);
    }

    /// Removes and returns the memoized extent of `pred`. The write
    /// path takes the extent *out* of the map before patching so the
    /// memo's own reference is gone: `Arc::make_mut` then mutates in
    /// place whenever no in-flight query still holds the snapshot, and
    /// copies only when one does.
    pub(crate) fn take(&mut self, pred: &ViewPred) -> Option<Arc<ViewExtent>> {
        self.extents.remove(pred)
    }

    /// Drops one memoized extent (targeted invalidation). Returns
    /// whether it was present.
    pub(crate) fn remove(&mut self, pred: &ViewPred) -> bool {
        self.extents.remove(pred).is_some()
    }
}

/// Looks up `pred` in the memo for `epoch`, building (outside the lock)
/// and inserting on miss. A stale epoch clears the memo first. Returns
/// the extent and whether it was a memo hit; bumps the
/// `ndl_view_memo_{hit,miss}` registry counters.
pub fn memoized_extent(
    memo: &Mutex<ViewMemo>,
    epoch: DataEpoch,
    pred: ViewPred,
    build: impl FnOnce() -> ViewExtent,
) -> (Arc<ViewExtent>, bool) {
    {
        let mut m = lock_or_recover(memo);
        if m.epoch != epoch {
            m.extents.clear();
            m.epoch = epoch;
        } else if let Some(e) = m.extents.get(&pred) {
            ndl_memo_hit_total().add(1);
            return (Arc::clone(e), true);
        }
    }
    // Build outside the lock; a concurrent builder of the same extent
    // produces an identical value, so last-insert-wins is harmless.
    let built = Arc::new(build());
    let mut m = lock_or_recover(memo);
    if m.epoch == epoch {
        m.extents.insert(pred, Arc::clone(&built));
    }
    ndl_memo_miss_total().add(1);
    (built, false)
}

/// A skeleton-atom argument, uniform across the three atom shapes.
enum SkArg<'a> {
    IriConst(&'a str),
    IriVar(&'a str),
    ValLit(&'a Value),
    ValVar(&'a str),
}

fn atom_args(atom: &ViewAtom) -> (ViewPred, Vec<SkArg<'_>>) {
    fn conv(t: &Term) -> SkArg<'_> {
        match t {
            Term::Var(v) => SkArg::IriVar(v),
            Term::Const(c) => SkArg::IriConst(c),
        }
    }
    let args = match atom {
        ViewAtom::ConceptView(_, t) => vec![conv(t)],
        ViewAtom::RoleView(_, s, o) => vec![conv(s), conv(o)],
        ViewAtom::AttrView(_, s, v) => vec![
            conv(s),
            match v {
                ValueTerm::Var(x) => SkArg::ValVar(x),
                ValueTerm::Lit(l) => SkArg::ValLit(l),
            },
        ],
    };
    (ViewPred::of(atom), args)
}

/// Evaluates the stratum-1 skeletons over materialized view extents,
/// answers merged into a [`BTreeSet`]. Each skeleton is compiled once
/// into slots and a join order (the UCQ kernel's planner, with extent
/// sizes read off `extents`), then joined probing the extents' indexes.
pub fn eval_skeletons(
    queries: &[ViewQuery],
    extents: &HashMap<ViewPred, Arc<ViewExtent>>,
) -> Answers {
    join_skeletons(queries, extents).0
}

/// [`eval_skeletons`] plus the [`JoinWork`] done: the candidates
/// enumerated from extent scans and buckets, and the matches
/// before duplicates are dropped. Matches append borrowed names to one
/// row buffer; after the last skeleton the rows are sorted, deduplicated
/// and only then named.
pub(crate) fn join_skeletons(
    queries: &[ViewQuery],
    extents: &HashMap<ViewPred, Arc<ViewExtent>>,
) -> (Answers, JoinWork) {
    let mut rows = Rows::default();
    let mut plan = Compiled::default();
    let mut slots = Vec::new();
    let mut steps = 0;
    for vq in queries {
        if compile_skeleton(&mut plan, vq, extents) {
            rows.start(plan.head.len(), &());
            slots.clear();
            slots.resize(plan.num_slots(), None);
            let mut join = SkeletonJoin {
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
    let (answers, rows) = rows.finish(&());
    (answers, JoinWork { steps, rows })
}

/// A slot's value during a skeleton join, borrowed from an extent or
/// the skeleton. Ordered like [`AnswerTerm`] (IRIs before values, each
/// by name or value), so rows of bindings sort in answer order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Bound<'a> {
    Iri(&'a str),
    Val(&'a Value),
}

impl<'a> Bound<'a> {
    fn of(t: &'a ExtTerm) -> Bound<'a> {
        match t {
            ExtTerm::Iri(s) => Bound::Iri(s),
            ExtTerm::Val(v) => Bound::Val(v),
        }
    }
}

impl RowTerm for Bound<'_> {
    type Names = ();

    fn name(self, _: &()) -> AnswerTerm {
        match self {
            Bound::Iri(s) => AnswerTerm::Iri(s.to_owned()),
            Bound::Val(v) => AnswerTerm::Value(v.clone()),
        }
    }
}

/// One compiled skeleton atom over its view extent.
#[derive(Debug, Clone, Copy)]
enum Step<'a> {
    Unary(&'a ViewExtent, Arg<Bound<'a>>),
    Binary(&'a ViewExtent, Arg<Bound<'a>>, Arg<Bound<'a>>),
}

/// Compiles `vq` for [`SkeletonJoin`]; false when it cannot match (a
/// view without an extent, an unsafe head).
fn compile_skeleton<'a>(
    c: &mut Compiled<'a, Step<'a>>,
    vq: &'a ViewQuery,
    extents: &'a HashMap<ViewPred, Arc<ViewExtent>>,
) -> bool {
    let iri = |c: &mut Compiled<'a, Step<'a>>, t: &'a Term| match t {
        Term::Const(name) => Arg::Const(Bound::Iri(name)),
        Term::Var(v) => Arg::Slot(c.slot(v)),
    };
    c.reset();
    for atom in &vq.atoms {
        let (s, o) = match atom {
            ViewAtom::ConceptView(_, t) => (iri(c, t), None),
            ViewAtom::RoleView(_, s, o) => {
                let s = iri(c, s);
                (s, Some(iri(c, o)))
            }
            ViewAtom::AttrView(_, s, v) => {
                let s = iri(c, s);
                let v = match v {
                    ValueTerm::Var(x) => Arg::Slot(c.slot(x)),
                    ValueTerm::Lit(l) => Arg::Const(Bound::Val(l)),
                };
                (s, Some(v))
            }
        };
        let Some(ext) = extents.get(&ViewPred::of(atom)) else {
            return false;
        };
        match o {
            None => c.push(Step::Unary(ext, s), AtomShape::of(&[s.slot()], ext.len())),
            Some(o) => c.push(
                Step::Binary(ext, s, o),
                AtomShape::of(&[s.slot(), o.slot()], ext.len()),
            ),
        }
    }
    c.finish(&vq.head)
}

/// One run of a compiled skeleton: a backtracking join over the planned
/// steps, iterating extent buckets by reference.
struct SkeletonJoin<'a, 'r> {
    steps: &'r [Step<'a>],
    head: &'r [usize],
    slots: &'r mut [Option<Bound<'a>>],
    rows: &'r mut Rows<Bound<'a>>,
    tried: u64,
}

impl<'a> SkeletonJoin<'a, '_> {
    fn run(&mut self, depth: usize) {
        let Some(&step) = self.steps.get(depth) else {
            self.rows.emit(self.head, self.slots);
            return;
        };
        let next = depth + 1;
        match step {
            Step::Unary(ext, t) => match t.resolve(self.slots) {
                Ok(Bound::Iri(n)) => {
                    if ext.member_set.contains(n) {
                        self.run(next);
                    }
                }
                Ok(Bound::Val(_)) => {} // sort clash
                Err(s) => self.each(s, ext.members.iter().map(|n| Bound::Iri(n)), next),
            },
            Step::Binary(ext, s, o) => match (s.resolve(self.slots), o.resolve(self.slots)) {
                (Ok(Bound::Val(_)), _) => {} // sort clash
                (Ok(Bound::Iri(sn)), Ok(ob)) => {
                    // Buckets are sorted, and `Bound` orders like `ExtTerm`.
                    let objs = ext.by_subject.get(sn).map_or(&[][..], Vec::as_slice);
                    if objs.binary_search_by(|e| Bound::of(e).cmp(&ob)).is_ok() {
                        self.run(next);
                    }
                }
                (Ok(Bound::Iri(sn)), Err(os)) => {
                    let objs = ext.by_subject.get(sn).map_or(&[][..], Vec::as_slice);
                    self.each(os, objs.iter().map(Bound::of), next);
                }
                (Err(ss), Ok(ob)) => {
                    let subjects = match ob {
                        Bound::Iri(n) => ext.by_object.get(n),
                        Bound::Val(v) => ext.by_value.get(v),
                    };
                    let subjects = subjects.map_or(&[][..], Vec::as_slice);
                    self.each(ss, subjects.iter().map(|n| Bound::Iri(n)), next);
                }
                (Err(ss), Err(os)) => {
                    for (sn, e) in &ext.pairs {
                        self.tried += 1;
                        if ss == os {
                            if Bound::of(e) == Bound::Iri(sn) {
                                self.descend(ss, Bound::Iri(sn), next);
                            }
                        } else {
                            self.set(ss, Some(Bound::Iri(sn)));
                            self.descend(os, Bound::of(e), next);
                            self.set(ss, None);
                        }
                    }
                }
            },
        }
    }

    /// Binds `slot` to each of `terms` in turn.
    fn each(&mut self, slot: usize, terms: impl Iterator<Item = Bound<'a>>, next: usize) {
        for b in terms {
            self.tried += 1;
            self.descend(slot, b, next);
        }
    }

    fn set(&mut self, slot: usize, b: Option<Bound<'a>>) {
        if let Some(x) = self.slots.get_mut(slot) {
            *x = b;
        }
    }

    /// Binds `slot` for the rest of the join, then unbinds it.
    fn descend(&mut self, slot: usize, b: Bound<'a>, next: usize) {
        self.set(slot, Some(b));
        self.run(next);
        self.set(slot, None);
    }
}

/// Evaluates a compiled NDL program natively over the fact index, with
/// extents memoized in `memo` for `epoch`. Span `eval` carries
/// view/skeleton counters plus per-query memo hit/miss counts.
pub fn answer_ndl_indexed_traced(
    prog: &NdlProgram,
    abox: &Abox,
    index: &AboxIndex,
    memo: &Mutex<ViewMemo>,
    epoch: DataEpoch,
    ctx: &TraceCtx,
) -> Answers {
    let guard = ctx.span("eval");
    guard.count("views", prog.views.len() as u64);
    guard.count("skeletons", prog.queries.len() as u64);
    let mut extents: HashMap<ViewPred, Arc<ViewExtent>> = HashMap::new();
    for def in &prog.views {
        let (ext, hit) =
            memoized_extent(memo, epoch, def.pred(), || build_extent(def, abox, index));
        guard.count(
            if hit {
                "view_memo_hit"
            } else {
                "view_memo_miss"
            },
            1,
        );
        extents.insert(def.pred(), ext);
    }
    let (answers, work) = join_skeletons(&prog.queries, &extents);
    work.count_on(&guard);
    answers
}

// ---------------------------------------------------------------------------
// Virtual evaluation: one SQL plan with CTE-style SharedScan view extents.
// ---------------------------------------------------------------------------

/// Output sort of one head position (drives answer reconstruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutKind {
    Iri,
    Val,
}

/// Builds the relational plan of one member source: project the
/// argument columns, then concatenate IRI template prefixes into
/// full-IRI text columns ([`ComputeExpr::Concat`]).
fn member_plan(db: &Database, src: &FlatSource) -> Result<Plan, SqlError> {
    let items: Vec<SelectItem> = src
        .args
        .iter()
        .enumerate()
        .map(|(i, a)| SelectItem {
            col: match a {
                ArgBinding::Iri { col, .. } | ArgBinding::Val { col } => col.clone(),
            },
            alias: Some(format!("c{i}")),
        })
        .collect();
    // Place each condition on the last table it references (the same
    // FROM/JOIN placement the UCQ unfolder uses), so the planner sees
    // equi-join keys instead of residual cross-join filters.
    let alias_pos: HashMap<&str, usize> = src
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| (t.alias.as_str(), i))
        .collect();
    let mut per_table: Vec<Vec<Comparison>> = vec![Vec::new(); src.tables.len()];
    for cmp in src.own_conditions.iter().chain(&src.filters).cloned() {
        let mut pos = 0;
        for op in [&cmp.lhs, &cmp.rhs] {
            if let Operand::Col(c) = op {
                if let Some(p) = c.qualifier.as_deref().and_then(|a| alias_pos.get(a)) {
                    pos = pos.max(*p);
                }
            }
        }
        // lint: allow(R1.index, "pos comes from alias_pos values, all < src.tables.len() == per_table.len()")
        per_table[pos].push(cmp);
    }
    let mut tables = src.tables.iter().cloned().enumerate();
    let Some((_, from)) = tables.next() else {
        return Err(SqlError::new("view source with no tables"));
    };
    let filter = std::mem::take(&mut per_table[0]);
    let joins: Vec<Join> = tables
        .map(|(pos, t)| Join {
            table: t,
            // lint: allow(R1.index, "pos enumerates src.tables, and per_table has one slot per table")
            on: std::mem::take(&mut per_table[pos]),
        })
        .collect();
    let q = SelectQuery {
        first: SelectCore {
            distinct: false,
            items,
            from,
            joins,
            filter,
        },
        rest: Vec::new(),
        order_by: Vec::new(),
        limit: None,
    };
    let planned = plan_query(db, &q)?;
    let exprs: Vec<ComputeExpr> = src
        .args
        .iter()
        .enumerate()
        .map(|(i, a)| match a {
            ArgBinding::Iri { prefix, .. } => ComputeExpr::Concat {
                prefix: prefix.clone(),
                col: i,
            },
            ArgBinding::Val { .. } => ComputeExpr::Col(i),
        })
        .collect();
    Ok(Plan::Compute {
        input: Box::new(planned.plan),
        exprs,
    })
}

/// Builds the shared extent plan of one view: the deduplicated union of
/// its member sources, wrapped in a [`Plan::SharedScan`] so every
/// skeleton that references the view reuses one materialization.
#[allow(clippy::too_many_arguments)]
fn view_plan(
    db: &Database,
    cls: &Classification,
    mappings: &MappingSet,
    def: &ViewDef,
    id: usize,
    counter: &mut usize,
    ebox: Option<&obda_mapping::Ebox>,
) -> Result<Plan, SqlError> {
    // Canonical atom: the terms are ignored by source expansion.
    let x = || Term::Var("x".to_string());
    let atom = match def {
        ViewDef::Concept { target, .. } => ViewAtom::ConceptView(*target, x()),
        ViewDef::Role { target, .. } => ViewAtom::RoleView(*target, x(), Term::Var("y".into())),
        ViewDef::Attr { target, .. } => {
            ViewAtom::AttrView(*target, x(), ValueTerm::Var("v".into()))
        }
    };
    let sources = view_atom_sources(&atom, cls, mappings, db, counter, ebox)?;
    let inputs: Vec<Plan> = sources
        .iter()
        .map(|s| member_plan(db, s))
        .collect::<Result<_, _>>()?;
    Ok(Plan::SharedScan {
        id,
        input: Box::new(Plan::Union { inputs, all: false }),
    })
}

/// Builds the join plan of one skeleton over the shared view extents.
fn skeleton_plan(vq: &ViewQuery, view_plans: &HashMap<ViewPred, Plan>) -> Result<Plan, SqlError> {
    let mut plan: Option<Plan> = None;
    let mut var_pos: HashMap<String, usize> = HashMap::new();
    let mut width = 0usize;
    for atom in &vq.atoms {
        let (pred, args) = atom_args(atom);
        let base = view_plans
            .get(&pred)
            .cloned()
            .ok_or_else(|| SqlError::new("skeleton references unknown view"))?;
        let arity = args.len();
        // Per-atom constant filters and intra-atom repeated variables.
        let mut predicates: Vec<CompiledCmp> = Vec::new();
        let mut new_vars: Vec<(String, usize)> = Vec::new();
        let eq = |i: usize, rhs: Source| CompiledCmp {
            lhs: Source::Col(i),
            op: CmpOp::Eq,
            rhs,
        };
        for (i, a) in args.iter().enumerate() {
            match a {
                SkArg::IriConst(c) => {
                    predicates.push(eq(i, Source::Lit(SqlValue::Text((*c).to_string()))));
                }
                SkArg::ValLit(v) => predicates.push(eq(i, Source::Lit(sql_value(v)))),
                SkArg::IriVar(v) | SkArg::ValVar(v) => {
                    match new_vars.iter().find(|(n, _)| n == v) {
                        Some(&(_, j)) => predicates.push(eq(i, Source::Col(j))),
                        None => new_vars.push(((*v).to_string(), i)),
                    }
                }
            }
        }
        let mut node = base;
        if !predicates.is_empty() {
            node = Plan::Filter {
                input: Box::new(node),
                predicates,
            };
        }
        match plan.take() {
            None => {
                plan = Some(node);
                for (v, j) in new_vars {
                    var_pos.entry(v).or_insert(j);
                }
                width = arity;
            }
            Some(left) => {
                let mut left_keys = Vec::new();
                let mut right_keys = Vec::new();
                for (v, j) in &new_vars {
                    if let Some(&p) = var_pos.get(v) {
                        left_keys.push(p);
                        right_keys.push(*j);
                    }
                }
                plan = Some(Plan::HashJoin {
                    left: Box::new(left),
                    right: Box::new(node),
                    left_keys,
                    right_keys,
                    residual: Vec::new(),
                });
                for (v, j) in new_vars {
                    var_pos.entry(v).or_insert(width + j);
                }
                width += arity;
            }
        }
    }
    let Some(joined) = plan else {
        return Err(SqlError::new("skeleton with no atoms"));
    };
    let cols: Vec<usize> = vq
        .head
        .iter()
        .map(|h| {
            var_pos
                .get(h)
                .copied()
                .ok_or_else(|| SqlError::new("unsafe head variable"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Plan::Project {
        input: Box::new(joined),
        cols,
    })
}

fn sql_value(v: &Value) -> SqlValue {
    match v {
        Value::Int(i) => SqlValue::Int(*i),
        Value::Text(s) => SqlValue::Text(s.clone()),
    }
}

/// Head-position sorts, read off the first skeleton (sorts are
/// consistent across skeletons of one rewriting).
fn out_kinds(prog: &NdlProgram) -> Vec<OutKind> {
    let Some(vq) = prog.queries.first() else {
        return Vec::new();
    };
    vq.head
        .iter()
        .map(|h| {
            for atom in &vq.atoms {
                if let ViewAtom::AttrView(_, _, ValueTerm::Var(v)) = atom {
                    if v == h {
                        return OutKind::Val;
                    }
                }
            }
            OutKind::Iri
        })
        .collect()
}

/// Evaluates a compiled NDL program in virtual mode: one SQL statement
/// whose plan unions every skeleton join over [`Plan::SharedScan`] view
/// extents. Span `unfold` covers plan construction; execution runs
/// under the engine's SQL tracing (`rows_scanned`, `sql_statements`).
pub fn answer_ndl_virtual_traced(
    prog: &NdlProgram,
    cls: &Classification,
    mappings: &MappingSet,
    db: &Database,
    ctx: &TraceCtx,
    ebox: Option<&obda_mapping::Ebox>,
) -> Result<Answers, ObdaError> {
    let planned = {
        let guard = ctx.span("unfold");
        guard.count("views", prog.views.len() as u64);
        guard.count("skeletons", prog.queries.len() as u64);
        let mut counter = 0usize;
        let mut view_plans: HashMap<ViewPred, Plan> = HashMap::new();
        for (id, def) in prog.views.iter().enumerate() {
            let p = view_plan(db, cls, mappings, def, id, &mut counter, ebox)
                .map_err(|e| ObdaError::sql_in(ErrorPhase::Unfold, "ndl view", e))?;
            view_plans.insert(def.pred(), p);
        }
        let inputs: Vec<Plan> = prog
            .queries
            .iter()
            .map(|vq| skeleton_plan(vq, &view_plans))
            .collect::<Result<_, _>>()
            .map_err(|e| ObdaError::sql_in(ErrorPhase::Unfold, "ndl skeleton", e))?;
        let arity = prog.queries.first().map_or(0, |vq| vq.head.len());
        PlannedQuery {
            plan: Plan::Union { inputs, all: false },
            columns: (0..arity).map(|i| format!("o{i}")).collect(),
        }
    };
    let kinds = out_kinds(prog);
    let res = {
        let _guard = ctx.span("sql");
        ctx.count("sql_queries", 1);
        execute_traced(db, &planned, ctx)
            .map_err(|e| ObdaError::sql_in(ErrorPhase::Evaluate, "ndl program", e))?
    };
    let mut answers = Answers::new();
    'row: for row in &res.rows {
        let mut tuple = Vec::with_capacity(kinds.len());
        for (v, kind) in row.iter().zip(&kinds) {
            match (kind, v) {
                (_, SqlValue::Null) => continue 'row,
                (OutKind::Iri, SqlValue::Text(s)) => tuple.push(AnswerTerm::Iri(s.clone())),
                (OutKind::Iri, SqlValue::Int(i)) => tuple.push(AnswerTerm::Iri(i.to_string())),
                (OutKind::Val, SqlValue::Int(i)) => tuple.push(AnswerTerm::Value(Value::Int(*i))),
                (OutKind::Val, SqlValue::Text(s)) => {
                    tuple.push(AnswerTerm::Value(Value::Text(s.clone())))
                }
            }
        }
        answers.insert(tuple);
    }
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::RoleId;

    fn iri(n: &str) -> ExtTerm {
        ExtTerm::Iri(n.to_owned())
    }

    fn text(s: &str) -> ExtTerm {
        ExtTerm::Val(Value::Text(s.to_owned()))
    }

    /// A role extent and an attribute extent patched pair by pair stay
    /// equal, every index map included, to a from-scratch build of the
    /// pairs they hold: the write path's in-place maintenance relies on
    /// it.
    #[test]
    fn patched_extents_equal_a_rebuild_of_their_pairs() {
        let role = [
            ("a", iri("b")),
            ("a", iri("c")),
            ("b", iri("b")),
            ("c", iri("b")),
        ];
        let attr = [
            ("a", text("x")),
            ("a", ExtTerm::Val(Value::Int(3))),
            ("b", text("x")),
            ("c", ExtTerm::Val(Value::Int(3))),
        ];
        for universe in [&role, &attr] {
            // Every subset of the pairs in Gray-code order, so each step
            // adds or removes one pair; then a duplicate add and an absent
            // remove, which must both be no-ops.
            let mut ext = ViewExtent::default();
            let mut held: Vec<(String, ExtTerm)> = Vec::new();
            let n = universe.len();
            for k in 1..(1usize << n) {
                let bit = k.trailing_zeros() as usize;
                let (s, o) = &universe[bit];
                let pair = ((*s).to_owned(), o.clone());
                match held.iter().position(|p| *p == pair) {
                    Some(at) => {
                        held.remove(at);
                        ext.remove_pair(s, o);
                    }
                    None => {
                        held.push(pair.clone());
                        ext.add_pair(pair.0, pair.1);
                    }
                }
                assert_eq!(ext, ViewExtent::from_pairs(held.clone()), "after step {k}");
                if let Some((s, o)) = held.first().cloned() {
                    ext.add_pair(s, o);
                }
                ext.remove_pair("absent", &iri("b"));
                assert_eq!(ext, ViewExtent::from_pairs(held.clone()), "no-ops at {k}");
            }
            // Emptied buckets are gone, so the key sets stay exact.
            for (s, o) in held.clone() {
                ext.remove_pair(&s, &o);
            }
            assert_eq!(ext, ViewExtent::default());
        }
    }

    /// `q(x) :- V(x, t)` over one extent, `t` an IRI constant or a
    /// literal.
    fn lookup(pred: &ViewPred, object: &ExtTerm, ext: ViewExtent) -> Vec<String> {
        let x = Term::Var("x".to_owned());
        let atom = match (pred, object) {
            (ViewPred::Role(r), ExtTerm::Iri(n)) => {
                ViewAtom::RoleView(*r, x, Term::Const(n.clone()))
            }
            (ViewPred::Attr(u), ExtTerm::Val(v)) => {
                ViewAtom::AttrView(*u, x, ValueTerm::Lit(v.clone()))
            }
            _ => unreachable!("lookups pair roles with IRIs and attributes with values"),
        };
        let vq = ViewQuery {
            head: vec!["x".to_owned()],
            atoms: vec![atom],
        };
        let extents = HashMap::from([(pred.clone(), Arc::new(ext))]);
        eval_skeletons(std::slice::from_ref(&vq), &extents)
            .into_iter()
            .flat_map(|row| row.into_iter().map(|t| t.to_string()))
            .collect()
    }

    #[test]
    fn object_bound_lookups_answer_alike_before_and_after_patching() {
        let role = ViewPred::Role(BasicRole::Direct(RoleId(0)));
        let attr = ViewPred::Attr(AttributeId(0));
        let cases = [
            (
                role,
                iri("b"),
                vec![("a", iri("b")), ("c", iri("b")), ("c", iri("d"))],
            ),
            (
                attr,
                text("Ann"),
                vec![("p1", text("Ann")), ("p2", text("Bo")), ("p3", text("Ann"))],
            ),
        ];
        for (pred, object, pairs) in cases {
            let pairs: Vec<(String, ExtTerm)> =
                pairs.into_iter().map(|(s, o)| (s.to_owned(), o)).collect();
            let mut ext = ViewExtent::from_pairs(pairs.clone());
            let want = |held: &[(String, ExtTerm)]| -> Vec<String> {
                let mut out: Vec<String> = held
                    .iter()
                    .filter(|(_, o)| *o == object)
                    .map(|(s, _)| s.clone())
                    .collect();
                out.sort();
                out
            };
            assert_eq!(lookup(&pred, &object, ext.clone()), want(&pairs));
            // Patch: drop the first matching subject, add a new one and an
            // unrelated pair.
            let mut held = pairs.clone();
            let gone = held.remove(0);
            ext.remove_pair(&gone.0, &gone.1);
            for (s, o) in [("b", object.clone()), ("z", pairs[1].1.clone())] {
                held.push((s.to_owned(), o.clone()));
                ext.add_pair(s.to_owned(), o);
            }
            let patched = lookup(&pred, &object, ext.clone());
            assert_eq!(patched, want(&held));
            assert_eq!(
                patched,
                lookup(&pred, &object, ViewExtent::from_pairs(held))
            );
        }
    }
}
