//! The **write subsystem**: [`AboxDelta`] batches applied incrementally.
//!
//! The paper's deployments are operational settings where the extensional
//! data changes continuously. Before this module every ABox mutation was
//! wholesale: bump an epoch, drop the [`AboxIndex`], the materialized
//! ABox and every memoized NDL view extent, rebuild from scratch on the
//! next query. A delta batch instead:
//!
//! 1. **patches the store** — new assertions are appended to the ABox
//!    (deduplicated) and spliced into the index's subject/object hash
//!    buckets; removed assertions are dropped from both, with hash-bucket
//!    keys deleted when their bucket empties (the NDL `∃q` /
//!    attribute-domain extents are derived from bucket *keys*);
//! 2. **maintains the view memo** — inserts are monotone, so every
//!    memoized extent is patched in place by unioning in the new tuples
//!    the batch contributes to that view. Deletes are not *naively*
//!    sound to patch (removing `p(a,b)` need not remove `a` from `∃p` —
//!    another `p(a,c)` may remain), so each tuple a delete touches is
//!    *rechecked* against the already-patched [`AboxIndex`]: the tuple
//!    is evicted from the extent only when no member predicate of the
//!    view still supports it — exact, and O(1) per (tuple, member) via
//!    the index's hash buckets;
//! 3. **keeps rewritings** — the rewrite cache is keyed on the TBox
//!    epoch only; a data-only change bumps the ABox *version* (the
//!    second component of [`DataEpoch`]) and leaves every cached
//!    rewriting valid.
//!
//! Batch semantics: within one [`AboxDelta`], **deletes apply first,
//! then inserts** — a batch carrying both for the same fact leaves it
//! present. Duplicate inserts and deletes of absent facts are no-ops
//! (only actually-changed rows count toward `delta_rows`).
//!
//! `QUONTO_WRITE_FALLBACK=1` disables incremental memo maintenance
//! entirely: every batch invalidates every memoized extent (each counted
//! as a fallback). This is the A/B lever the A10 experiment uses to
//! price the incremental path against rebuild-on-next-read.

use std::sync::{Arc, Mutex};

use obda_dllite::{
    Abox, Assertion, AttributeId, BasicConcept, BasicRole, ConceptId, IndividualId, RoleId,
    Signature, Value,
};
use quonto::sync::lock_or_recover;
use quonto::Classification;

use crate::answer::AboxIndex;
use crate::error::ObdaError;
use crate::query::QueryParseError;
use crate::rewrite::ndl::{DataEpoch, ExtTerm, ViewMemo, ViewPred};
use crate::rewrite::presto::{attr_view_members, concept_view_members, role_view_members};

/// One statement of a delta batch, with predicates by name (resolved
/// against the engine's signature at apply time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaStatement {
    /// `A(c)`: a concept membership.
    Unary {
        /// Concept name.
        predicate: String,
        /// Individual IRI.
        individual: String,
    },
    /// `p(c, d)` or `U(c, v)`: a role or attribute assertion — which of
    /// the two is decided by what `predicate` resolves to.
    Binary {
        /// Role or attribute name.
        predicate: String,
        /// Subject IRI.
        subject: String,
        /// Object: an IRI (role; or attribute, read as a text value) or
        /// an explicit data value (attribute only).
        object: DeltaObject,
    },
}

/// The object position of a binary delta statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaObject {
    /// An IRI — or, when the predicate resolves to an attribute, a text
    /// value.
    Iri(String),
    /// An explicit data value (attribute assertions only).
    Value(Value),
}

impl DeltaStatement {
    /// A concept statement `predicate(individual)`.
    pub fn unary(predicate: impl Into<String>, individual: impl Into<String>) -> DeltaStatement {
        DeltaStatement::Unary {
            predicate: predicate.into(),
            individual: individual.into(),
        }
    }

    /// A binary statement with an IRI/text object.
    pub fn binary(
        predicate: impl Into<String>,
        subject: impl Into<String>,
        object: impl Into<String>,
    ) -> DeltaStatement {
        DeltaStatement::Binary {
            predicate: predicate.into(),
            subject: subject.into(),
            object: DeltaObject::Iri(object.into()),
        }
    }

    /// A binary statement with an explicit data value.
    pub fn binary_value(
        predicate: impl Into<String>,
        subject: impl Into<String>,
        value: Value,
    ) -> DeltaStatement {
        DeltaStatement::Binary {
            predicate: predicate.into(),
            subject: subject.into(),
            object: DeltaObject::Value(value),
        }
    }
}

/// A batch of ABox changes. Deletes apply before inserts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AboxDelta {
    /// Assertions to add.
    pub inserts: Vec<DeltaStatement>,
    /// Assertions to remove.
    pub deletes: Vec<DeltaStatement>,
}

impl AboxDelta {
    /// An empty batch.
    pub fn new() -> AboxDelta {
        AboxDelta::default()
    }

    /// Adds an insert statement (builder style).
    pub fn insert(mut self, stmt: DeltaStatement) -> AboxDelta {
        self.inserts.push(stmt);
        self
    }

    /// Adds a delete statement (builder style).
    pub fn delete(mut self, stmt: DeltaStatement) -> AboxDelta {
        self.deletes.push(stmt);
        self
    }

    /// Total statement count.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True when the batch carries no statements.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// What applying a batch actually changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Assertions newly added (duplicates of existing facts excluded).
    pub inserted: usize,
    /// Assertions actually removed (absent facts excluded).
    pub deleted: usize,
    /// Memoized view extents invalidated instead of patched (the
    /// unsound-to-patch delete path, or `QUONTO_WRITE_FALLBACK=1`).
    pub fallbacks: u64,
}

// Registry counters for the write path, resolved once: applied batches,
// changed assertions, extents invalidated instead of patched.
obda_obs::counter_handle!(pub(crate) fn delta_applied_total, "delta_applied");
obda_obs::counter_handle!(pub(crate) fn delta_rows_total, "delta_rows");
obda_obs::counter_handle!(pub(crate) fn delta_fallback_total, "delta_fallback");

/// Publishes a finished batch to the registry counters.
pub(crate) fn record_batch(summary: &DeltaSummary) {
    delta_applied_total().add(1);
    delta_rows_total().add((summary.inserted + summary.deleted) as u64);
    delta_fallback_total().add(summary.fallbacks);
}

/// A delta statement with its predicate resolved against a signature,
/// individuals still by name (the target ABox interns them on apply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ResolvedFact {
    Concept(ConceptId, String),
    Role(RoleId, String, String),
    Attr(AttributeId, String, Value),
}

fn unknown(kind: &str, name: &str) -> ObdaError {
    ObdaError::Query(QueryParseError {
        message: format!("unknown {kind} `{name}` in delta statement"),
    })
}

/// Resolves one statement's predicate. A binary statement's object sort
/// follows the predicate: role → IRI, attribute → value (a string
/// object is read as a text value).
pub(crate) fn resolve_statement(
    sig: &Signature,
    stmt: &DeltaStatement,
) -> Result<ResolvedFact, ObdaError> {
    match stmt {
        DeltaStatement::Unary {
            predicate,
            individual,
        } => sig
            .find_concept(predicate)
            .map(|c| ResolvedFact::Concept(c, individual.clone()))
            .ok_or_else(|| unknown("concept", predicate)),
        DeltaStatement::Binary {
            predicate,
            subject,
            object,
        } => {
            if let Some(p) = sig.find_role(predicate) {
                return match object {
                    DeltaObject::Iri(o) => Ok(ResolvedFact::Role(p, subject.clone(), o.clone())),
                    DeltaObject::Value(_) => Err(ObdaError::Query(QueryParseError {
                        message: format!("role `{predicate}` takes an IRI object, got a value"),
                    })),
                };
            }
            if let Some(u) = sig.find_attribute(predicate) {
                let v = match object {
                    DeltaObject::Iri(s) => Value::Text(s.clone()),
                    DeltaObject::Value(v) => v.clone(),
                };
                return Ok(ResolvedFact::Attr(u, subject.clone(), v));
            }
            Err(unknown("role or attribute", predicate))
        }
    }
}

/// Resolves a whole batch against `sig`. Fails atomically — a batch
/// with any unknown predicate changes nothing.
pub(crate) fn resolve_delta(
    sig: &Signature,
    delta: &AboxDelta,
) -> Result<(Vec<ResolvedFact>, Vec<ResolvedFact>), ObdaError> {
    let inserts = delta
        .inserts
        .iter()
        .map(|s| resolve_statement(sig, s))
        .collect::<Result<Vec<_>, _>>()?;
    let deletes = delta
        .deletes
        .iter()
        .map(|s| resolve_statement(sig, s))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((inserts, deletes))
}

/// The assertions a batch actually changed, for memo maintenance.
#[derive(Debug, Default)]
pub(crate) struct AppliedBatch {
    /// Newly added assertions ([`Abox::add`] returned `true`).
    pub(crate) inserted: Vec<Assertion>,
    /// Actually removed assertions ([`Abox::remove`] returned `true`).
    pub(crate) deleted: Vec<Assertion>,
}

fn to_assertion(abox: &mut Abox, fact: &ResolvedFact) -> Assertion {
    match fact {
        ResolvedFact::Concept(c, s) => Assertion::Concept(*c, abox.individual(s)),
        ResolvedFact::Role(p, s, o) => {
            let si = abox.individual(s);
            let oi = abox.individual(o);
            Assertion::Role(*p, si, oi)
        }
        ResolvedFact::Attr(u, s, v) => Assertion::Attribute(*u, abox.individual(s), v.clone()),
    }
}

/// Looks a fact up without interning (deletes must not mint ids).
fn find_assertion(abox: &Abox, fact: &ResolvedFact) -> Option<Assertion> {
    match fact {
        ResolvedFact::Concept(c, s) => Some(Assertion::Concept(*c, abox.find_individual(s)?)),
        ResolvedFact::Role(p, s, o) => Some(Assertion::Role(
            *p,
            abox.find_individual(s)?,
            abox.find_individual(o)?,
        )),
        ResolvedFact::Attr(u, s, v) => Some(Assertion::Attribute(
            *u,
            abox.find_individual(s)?,
            v.clone(),
        )),
    }
}

/// Applies a resolved batch to one (ABox, index) pair in place:
/// deletes first, then inserts, the index patched fact by fact.
pub(crate) fn apply_to_store(
    abox: &mut Abox,
    index: &mut AboxIndex,
    inserts: &[ResolvedFact],
    deletes: &[ResolvedFact],
) -> AppliedBatch {
    let mut applied = AppliedBatch::default();
    for fact in deletes {
        let Some(a) = find_assertion(abox, fact) else {
            continue; // unknown individual ⇒ the fact cannot be present
        };
        if abox.remove(&a) {
            index.remove_assertion(&a);
            applied.deleted.push(a);
        }
    }
    for fact in inserts {
        let a = to_assertion(abox, fact);
        if abox.add(a.clone()) {
            index.insert_assertion(&a);
            applied.inserted.push(a);
        }
    }
    applied
}

// ---------------------------------------------------------------------------
// View-memo maintenance.
// ---------------------------------------------------------------------------

/// The individuals a batch of assertions contributes to (or withdraws
/// from) a concept view — one entry per matching (fact, member) pair.
fn concept_view_touched(members: &[BasicConcept], facts: &[Assertion]) -> Vec<IndividualId> {
    let mut out = Vec::new();
    for a in facts {
        for m in members {
            let id = match (m, a) {
                (BasicConcept::Atomic(c), Assertion::Concept(ac, i)) if c == ac => Some(*i),
                (BasicConcept::Exists(q), Assertion::Role(p, s, o)) if q.role() == *p => {
                    Some(if q.is_inverse() { *o } else { *s })
                }
                (BasicConcept::AttrDomain(u), Assertion::Attribute(au, s, _)) if u == au => {
                    Some(*s)
                }
                _ => None,
            };
            if let Some(i) = id {
                out.push(i);
            }
        }
    }
    out
}

/// Whether `i` still satisfies some member of a concept view, per the
/// post-batch index. Each probe is a hash lookup; `∃q` and
/// attribute-domain membership read bucket *keys*, which
/// [`AboxIndex::remove_assertion`] keeps exact by dropping emptied
/// buckets.
fn concept_still_member(members: &[BasicConcept], index: &AboxIndex, i: IndividualId) -> bool {
    members.iter().any(|m| match m {
        BasicConcept::Atomic(c) => index.concepts.get(&c.0).is_some_and(|f| f.set.contains(&i)),
        BasicConcept::Exists(q) => index.roles.get(&q.role().0).is_some_and(|f| {
            if q.is_inverse() {
                f.by_object.contains_key(&i)
            } else {
                f.by_subject.contains_key(&i)
            }
        }),
        BasicConcept::AttrDomain(u) => index
            .attributes
            .get(&u.0)
            .is_some_and(|f| f.by_subject.contains_key(&i)),
    })
}

/// The oriented pairs a batch of assertions contributes to (or
/// withdraws from) a role view.
fn role_view_touched(
    members: &[BasicRole],
    facts: &[Assertion],
) -> Vec<(IndividualId, IndividualId)> {
    let mut out = Vec::new();
    for a in facts {
        let Assertion::Role(p, s, o) = a else {
            continue;
        };
        for m in members {
            if m.role() != *p {
                continue;
            }
            out.push(if m.is_inverse() { (*o, *s) } else { (*s, *o) });
        }
    }
    out
}

/// Whether the oriented pair `(s, o)` is still derivable from some
/// member of a role view, per the post-batch index.
fn role_pair_still_member(
    members: &[BasicRole],
    index: &AboxIndex,
    s: IndividualId,
    o: IndividualId,
) -> bool {
    members.iter().any(|m| {
        let (a, b) = if m.is_inverse() { (o, s) } else { (s, o) };
        index
            .roles
            .get(&m.role().0)
            .is_some_and(|f| f.by_subject.get(&a).is_some_and(|objs| objs.contains(&b)))
    })
}

/// The (subject, value) pairs a batch of assertions contributes to (or
/// withdraws from) an attribute view.
fn attr_view_touched(members: &[AttributeId], facts: &[Assertion]) -> Vec<(IndividualId, Value)> {
    let mut out = Vec::new();
    for a in facts {
        let Assertion::Attribute(u, s, v) = a else {
            continue;
        };
        if members.contains(u) {
            out.push((*s, v.clone()));
        }
    }
    out
}

/// Whether `(s, v)` is still asserted under some member of an attribute
/// view, per the post-batch index.
fn attr_pair_still_member(
    members: &[AttributeId],
    index: &AboxIndex,
    s: IndividualId,
    v: &Value,
) -> bool {
    members.iter().any(|u| {
        index
            .attributes
            .get(&u.0)
            .is_some_and(|f| f.by_subject.get(&s).is_some_and(|vals| vals.contains(v)))
    })
}

/// The members a newly inserted assertion adds to a concept view.
fn concept_view_additions(
    members: &[BasicConcept],
    inserted: &[Assertion],
    abox: &Abox,
) -> Vec<String> {
    concept_view_touched(members, inserted)
        .into_iter()
        .map(|i| abox.individual_name(i).to_string())
        .collect()
}

/// The pairs a newly inserted assertion adds to a role view.
fn role_view_additions(
    members: &[BasicRole],
    inserted: &[Assertion],
    abox: &Abox,
) -> Vec<(String, ExtTerm)> {
    role_view_touched(members, inserted)
        .into_iter()
        .map(|(s, o)| {
            (
                abox.individual_name(s).to_string(),
                ExtTerm::Iri(abox.individual_name(o).to_string()),
            )
        })
        .collect()
}

/// The pairs a newly inserted assertion adds to an attribute view.
fn attr_view_additions(
    members: &[AttributeId],
    inserted: &[Assertion],
    abox: &Abox,
) -> Vec<(String, ExtTerm)> {
    attr_view_touched(members, inserted)
        .into_iter()
        .map(|(s, v)| (abox.individual_name(s).to_string(), ExtTerm::Val(v)))
        .collect()
}

/// Maintains a [`ViewMemo`] across an applied batch and restamps it at
/// `new_epoch`. Returns the number of extents invalidated instead of
/// patched (`delta_fallback`).
///
/// Only a memo that is exactly one ABox version behind (same TBox
/// epoch) is patched; anything else was already stale and is simply
/// cleared — the next query rebuilds lazily, no fallback counted.
/// On the patch path, per memoized view:
///
/// * tuples the batch's deletes touch are *rechecked* against `index`
///   (the already-patched post-batch [`AboxIndex`]) and evicted only
///   when no member predicate still supports them — exact maintenance,
///   O(1) hash probes per (tuple, member);
/// * the tuples the batch's inserts contribute are unioned in;
/// * an untouched extent is kept as-is.
///
/// Patched extents are mutated *in place* ([`ViewMemo::take`] +
/// `Arc::make_mut`): the memo's reference is taken out of the map
/// first, so unless an in-flight query still holds the pre-batch
/// snapshot (which then keeps its consistent copy), no clone of the
/// extent is made — the memo cost of a batch is O(batch · log extent),
/// independent of the ABox size.
pub(crate) fn maintain_memo(
    memo: &Mutex<ViewMemo>,
    new_epoch: DataEpoch,
    applied: &AppliedBatch,
    cls: &Classification,
    abox: &Abox,
    index: &AboxIndex,
) -> u64 {
    let mut m = lock_or_recover(memo);
    let expected = DataEpoch {
        tbox: new_epoch.tbox,
        abox: new_epoch.abox.wrapping_sub(1),
    };
    if m.epoch() != expected {
        m.clear();
        m.set_epoch(new_epoch);
        return 0;
    }
    if quonto::env::write_fallback() {
        let fallbacks = m.preds().len() as u64;
        m.clear();
        m.set_epoch(new_epoch);
        return fallbacks;
    }
    for pred in m.preds() {
        match &pred {
            ViewPred::Concept(target) => {
                let members = concept_view_members(cls, *target);
                let mut evicted: Vec<String> = Vec::new();
                let mut affected = concept_view_touched(&members, &applied.deleted);
                affected.sort_unstable();
                affected.dedup();
                for i in affected {
                    if !concept_still_member(&members, index, i) {
                        evicted.push(abox.individual_name(i).to_string());
                    }
                }
                let additions = concept_view_additions(&members, &applied.inserted, abox);
                if additions.is_empty() && evicted.is_empty() {
                    continue;
                }
                let Some(mut arc) = m.take(&pred) else {
                    continue;
                };
                let ext = Arc::make_mut(&mut arc);
                for n in evicted {
                    ext.remove_member(&n);
                }
                for n in additions {
                    ext.add_member(n);
                }
                m.insert(pred, arc);
            }
            ViewPred::Role(target) => {
                let members = role_view_members(cls, *target);
                let mut evicted: Vec<(String, ExtTerm)> = Vec::new();
                let mut affected = role_view_touched(&members, &applied.deleted);
                affected.sort_unstable();
                affected.dedup();
                for (s, o) in affected {
                    if !role_pair_still_member(&members, index, s, o) {
                        evicted.push((
                            abox.individual_name(s).to_string(),
                            ExtTerm::Iri(abox.individual_name(o).to_string()),
                        ));
                    }
                }
                let additions = role_view_additions(&members, &applied.inserted, abox);
                if additions.is_empty() && evicted.is_empty() {
                    continue;
                }
                let Some(mut arc) = m.take(&pred) else {
                    continue;
                };
                let ext = Arc::make_mut(&mut arc);
                for (s, o) in &evicted {
                    ext.remove_pair(s, o);
                }
                for (s, o) in additions {
                    ext.add_pair(s, o);
                }
                m.insert(pred, arc);
            }
            ViewPred::Attr(target) => {
                let members = attr_view_members(cls, *target);
                let mut evicted: Vec<(String, ExtTerm)> = Vec::new();
                for (s, v) in attr_view_touched(&members, &applied.deleted) {
                    if !attr_pair_still_member(&members, index, s, &v) {
                        evicted.push((abox.individual_name(s).to_string(), ExtTerm::Val(v)));
                    }
                }
                let additions = attr_view_additions(&members, &applied.inserted, abox);
                if additions.is_empty() && evicted.is_empty() {
                    continue;
                }
                let Some(mut arc) = m.take(&pred) else {
                    continue;
                };
                let ext = Arc::make_mut(&mut arc);
                for (s, v) in &evicted {
                    ext.remove_pair(s, v);
                }
                for (s, v) in additions {
                    ext.add_pair(s, v);
                }
                m.insert(pred, arc);
            }
        }
    }
    m.set_epoch(new_epoch);
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::Tbox;
    use std::collections::{BTreeMap, HashMap};

    fn sig3() -> Signature {
        let mut t = Tbox::default();
        t.sig.concept("A");
        t.sig.role("p");
        t.sig.attribute("u");
        t.sig
    }

    #[test]
    fn resolution_follows_the_predicate_sort() {
        let sig = sig3();
        let c = resolve_statement(&sig, &DeltaStatement::unary("A", "x")).unwrap();
        assert!(matches!(c, ResolvedFact::Concept(_, ref s) if s == "x"));
        let r = resolve_statement(&sig, &DeltaStatement::binary("p", "x", "y")).unwrap();
        assert!(matches!(r, ResolvedFact::Role(_, _, ref o) if o == "y"));
        // A string object of an *attribute* predicate is a text value.
        let a = resolve_statement(&sig, &DeltaStatement::binary("u", "x", "hello")).unwrap();
        assert!(matches!(a, ResolvedFact::Attr(_, _, Value::Text(ref v)) if v == "hello"));
        let ai = resolve_statement(&sig, &DeltaStatement::binary_value("u", "x", Value::Int(7)))
            .unwrap();
        assert!(matches!(ai, ResolvedFact::Attr(_, _, Value::Int(7))));

        assert!(resolve_statement(&sig, &DeltaStatement::unary("Nope", "x")).is_err());
        assert!(resolve_statement(&sig, &DeltaStatement::binary("Nope", "x", "y")).is_err());
        assert!(
            resolve_statement(&sig, &DeltaStatement::binary_value("p", "x", Value::Int(1)))
                .is_err(),
            "a role must reject a value object"
        );
    }

    #[test]
    fn apply_patches_store_and_index_consistently() {
        let sig = sig3();
        let mut abox = Abox::new();
        let mut index = AboxIndex::build(&abox);
        let delta = AboxDelta::new()
            .insert(DeltaStatement::unary("A", "x"))
            .insert(DeltaStatement::binary("p", "x", "y"))
            .insert(DeltaStatement::binary("p", "x", "y")) // duplicate
            .insert(DeltaStatement::binary_value("u", "y", Value::Int(3)));
        let (ins, del) = resolve_delta(&sig, &delta).unwrap();
        let applied = apply_to_store(&mut abox, &mut index, &ins, &del);
        assert_eq!(applied.inserted.len(), 3, "duplicate insert is a no-op");
        assert_eq!(abox.len(), 3);
        // The patched index must equal a from-scratch rebuild in content.
        assert_eq!(index.num_facts(), AboxIndex::build(&abox).num_facts());

        // Delete the role fact; its subject bucket must disappear.
        let d2 = AboxDelta::new()
            .delete(DeltaStatement::binary("p", "x", "y"))
            .delete(DeltaStatement::binary("p", "ghost", "y")); // absent subject
        let (ins2, del2) = resolve_delta(&sig, &d2).unwrap();
        let applied2 = apply_to_store(&mut abox, &mut index, &ins2, &del2);
        assert_eq!(applied2.deleted.len(), 1);
        assert_eq!(index.num_facts(), 2);
        assert_eq!(index.num_facts(), AboxIndex::build(&abox).num_facts());
    }

    type Buckets<V> = BTreeMap<IndividualId, Vec<V>>;
    /// A role's pairs, subject buckets and object buckets.
    type RoleIndex = (
        Vec<(IndividualId, IndividualId)>,
        Buckets<IndividualId>,
        Buckets<IndividualId>,
    );
    /// An attribute's pairs and subject buckets.
    type AttrIndex = (Vec<(IndividualId, Value)>, Buckets<Value>);

    /// Every predicate's facts and bucket contents, sorted; predicates
    /// with nothing left are left out.
    #[derive(Debug, PartialEq)]
    struct Canonical {
        concepts: BTreeMap<u32, Vec<IndividualId>>,
        roles: BTreeMap<u32, RoleIndex>,
        attributes: BTreeMap<u32, AttrIndex>,
    }

    fn sorted<T: Ord + Clone>(v: &[T]) -> Vec<T> {
        let mut v = v.to_vec();
        v.sort();
        v
    }

    fn buckets<V: Ord + Clone>(m: &HashMap<IndividualId, Vec<V>>) -> Buckets<V> {
        m.iter().map(|(k, v)| (*k, sorted(v))).collect()
    }

    fn canonical(ix: &AboxIndex) -> Canonical {
        Canonical {
            concepts: ix
                .concepts
                .iter()
                .filter(|(_, f)| !f.members.is_empty() || !f.set.is_empty())
                .map(|(c, f)| {
                    assert_eq!(f.set.len(), f.members.len(), "concept {c}");
                    assert!(f.members.iter().all(|m| f.set.contains(m)), "concept {c}");
                    (*c, sorted(&f.members))
                })
                .collect(),
            roles: ix
                .roles
                .iter()
                .filter(|(_, f)| {
                    !f.pairs.is_empty() || !f.by_subject.is_empty() || !f.by_object.is_empty()
                })
                .map(|(p, f)| {
                    let b = (buckets(&f.by_subject), buckets(&f.by_object));
                    (*p, (sorted(&f.pairs), b.0, b.1))
                })
                .collect(),
            attributes: ix
                .attributes
                .iter()
                .filter(|(_, f)| !f.pairs.is_empty() || !f.by_subject.is_empty())
                .map(|(u, f)| (*u, (sorted(&f.pairs), buckets(&f.by_subject))))
                .collect(),
        }
    }

    /// The invariant the UCQ kernel's existence checks and key-set steps
    /// rely on: after every batch of a churn stream through the delta
    /// path, no bucket is empty and the patched index holds what a
    /// rebuild from the same ABox holds.
    #[test]
    fn churned_index_keeps_nonempty_buckets_and_matches_a_rebuild() {
        use obda_genont::{churn_stream, university_scenario, ChurnFact, ChurnOp};
        let scenario = university_scenario(1, 42);
        let db = crate::demo::load_database(&scenario).unwrap();
        let mut abox =
            obda_mapping::materialize(&crate::demo::build_mappings(&scenario), &db).unwrap();
        let mut index = AboxIndex::build(&abox);
        let statement = |f: &ChurnFact| match f {
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
        };
        let (mut deleted, mut dropped_keys) = (0, 0);
        for batch in churn_stream(1, 11, 240).chunks(6) {
            let delta = batch.iter().fold(AboxDelta::new(), |d, op| match op {
                ChurnOp::Insert(f) => d.insert(statement(f)),
                ChurnOp::Delete(f) => d.delete(statement(f)),
            });
            let (ins, del) = resolve_delta(&scenario.tbox.sig, &delta).unwrap();
            let applied = apply_to_store(&mut abox, &mut index, &ins, &del);
            deleted += applied.deleted.len();
            // Deletes that took a subject's last fact of a predicate.
            dropped_keys += applied
                .deleted
                .iter()
                .filter(|a| match a {
                    Assertion::Role(p, s, _) => index
                        .roles
                        .get(&p.0)
                        .is_none_or(|f| !f.by_subject.contains_key(s)),
                    Assertion::Attribute(u, s, _) => index
                        .attributes
                        .get(&u.0)
                        .is_none_or(|f| !f.by_subject.contains_key(s)),
                    Assertion::Concept(..) => false,
                })
                .count();

            for (p, f) in &index.roles {
                let all = f.by_subject.values().chain(f.by_object.values());
                assert!(all.into_iter().all(|b| !b.is_empty()), "role {p}");
            }
            for (u, f) in &index.attributes {
                assert!(
                    f.by_subject.values().all(|b| !b.is_empty()),
                    "attribute {u}"
                );
            }
            assert_eq!(canonical(&index), canonical(&AboxIndex::build(&abox)));
        }
        // The stream must actually delete, and empty buckets.
        assert!(deleted > 20, "{deleted} facts deleted");
        assert!(dropped_keys > 5, "{dropped_keys} buckets emptied");
    }
}
