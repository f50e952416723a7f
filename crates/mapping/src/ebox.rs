//! **EBox**: extensional constraints over the asserted data, following
//! Hovland et al. ("OBDA Constraints for Effective Query Answering").
//!
//! A TBox axiom `B ⊑ A` speaks about *all models*; an EBox inclusion
//! `B ⊑ₑ A` speaks about the *current asserted data only*: every tuple
//! asserted for `B` is also asserted for `A`. Such constraints are not
//! part of the ontology — they are observations about one concrete data
//! state (or guarantees of the mapping layer) — but while they hold,
//! rewriting disjuncts, view members and unfolding unions whose
//! extension is provably covered by a kept branch can be dropped
//! without changing any answer, because every evaluation path of the
//! system (index lookups, view evaluation, SQL unions) runs over the
//! asserted data.
//!
//! Three constraint kinds are stored:
//!
//! * **inclusions** `sub ⊑ₑ sup` between [`EboxPredicate`]s of the same
//!   sort (unary ⊑ unary, role ⊑ role, attribute ⊑ attribute), closed
//!   under transitivity;
//! * **empties**: predicates whose asserted extension is empty — the
//!   strongest inclusion (`∅ ⊑ₑ` everything), kept separately because
//!   it prunes without needing a covering partner;
//! * **exact** annotations: named predicates whose asserted extension
//!   already contains every certain member, recorded together with the
//!   *support set* of inclusions that justify them so a retraction of
//!   any supporting inclusion retracts the annotation too.
//!
//! The type is pure data: inference, validation against a live
//! `AboxIndex`/`DataEpoch` and write-path revalidation live in
//! `mastro::ebox` (the `obda` crate), which owns the data structures
//! being scanned.

use std::collections::{BTreeSet, HashMap, HashSet};

use obda_dllite::{AttributeId, BasicConcept, BasicRole, NamedPredicate};

/// A predicate an EBox constraint can mention: a unary set of
/// individuals (any basic concept — atomic, `∃Q`, or `δ(U)`), an
/// orientation-aware role extension, or an attribute extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EboxPredicate {
    /// A set of individuals: `A`, `∃Q`, or `δ(U)` over asserted data.
    Concept(BasicConcept),
    /// The asserted pair set of a basic role (`P` or `P⁻`).
    Role(BasicRole),
    /// The asserted subject/value pair set of an attribute.
    Attribute(AttributeId),
}

impl EboxPredicate {
    /// Sort discriminant: inclusions are only meaningful within a sort.
    fn sort(self) -> u8 {
        match self {
            EboxPredicate::Concept(_) => 0,
            EboxPredicate::Role(_) => 1,
            EboxPredicate::Attribute(_) => 2,
        }
    }

    /// The named predicate whose asserted facts this extension is read
    /// from — the key write-path revalidation uses to find constraints
    /// affected by a delta fact.
    pub fn source_predicate(self) -> NamedPredicate {
        match self {
            EboxPredicate::Concept(BasicConcept::Atomic(a)) => NamedPredicate::Concept(a),
            EboxPredicate::Concept(BasicConcept::Exists(q)) => NamedPredicate::Role(q.role()),
            EboxPredicate::Concept(BasicConcept::AttrDomain(u)) => NamedPredicate::Attribute(u),
            EboxPredicate::Role(q) => NamedPredicate::Role(q.role()),
            EboxPredicate::Attribute(u) => NamedPredicate::Attribute(u),
        }
    }
}

/// One inclusion dependency `sub ⊑ₑ sup` over asserted extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EboxInclusion {
    /// The contained extension.
    pub sub: EboxPredicate,
    /// The containing extension.
    pub sup: EboxPredicate,
}

/// Extensional constraints over the current data state. See the module
/// docs for semantics; construction and maintenance protocol:
///
/// * inference adds base inclusions ([`Ebox::add_inclusion`]), empties
///   ([`Ebox::set_empty`]) and exact annotations with their support
///   ([`Ebox::set_exact`]);
/// * lookups go through [`Ebox::contains`] (reflexive-transitive) and
///   [`Ebox::is_empty_pred`];
/// * the write path calls [`Ebox::retract_specific`] with the
///   inclusions and empties a delta violated; the transitive closure is
///   rebuilt from the surviving base inclusions and exact annotations
///   whose support lost a member are dropped.
#[derive(Debug, Clone, Default)]
pub struct Ebox {
    base: Vec<EboxInclusion>,
    base_set: HashSet<EboxInclusion>,
    closed: HashSet<(EboxPredicate, EboxPredicate)>,
    empty: BTreeSet<EboxPredicate>,
    exact: HashMap<NamedPredicate, Vec<EboxInclusion>>,
}

impl Ebox {
    /// An EBox with no constraints (prunes nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a base inclusion and updates the transitive closure.
    /// Cross-sort pairs and trivial `x ⊑ₑ x` pairs are ignored. Returns
    /// `true` if the inclusion was new.
    pub fn add_inclusion(&mut self, sub: EboxPredicate, sup: EboxPredicate) -> bool {
        if sub.sort() != sup.sort() || sub == sup {
            return false;
        }
        let incl = EboxInclusion { sub, sup };
        if !self.base_set.insert(incl) {
            return false;
        }
        self.base.push(incl);
        // Incremental transitive closure: everything reaching `sub` now
        // also reaches everything reachable from `sup`.
        let into_sub: Vec<EboxPredicate> = self
            .closed
            .iter()
            .filter(|(_, b)| *b == sub)
            .map(|(a, _)| *a)
            .chain([sub])
            .collect();
        let from_sup: Vec<EboxPredicate> = self
            .closed
            .iter()
            .filter(|(a, _)| *a == sup)
            .map(|(_, b)| *b)
            .chain([sup])
            .collect();
        for &a in &into_sub {
            for &b in &from_sup {
                if a != b {
                    self.closed.insert((a, b));
                }
            }
        }
        true
    }

    /// Records that `pred`'s asserted extension is empty.
    pub fn set_empty(&mut self, pred: EboxPredicate) {
        self.empty.insert(pred);
    }

    /// Records an exact-extension annotation for a named predicate with
    /// the base inclusions that justify it. The annotation survives
    /// only as long as every supporting inclusion does.
    pub fn set_exact(&mut self, pred: NamedPredicate, support: Vec<EboxInclusion>) {
        self.exact.insert(pred, support);
    }

    /// Whether `sub ⊑ₑ sup` holds: reflexivity, an empty `sub`, or a
    /// (transitively closed) stored inclusion.
    pub fn contains(&self, sub: EboxPredicate, sup: EboxPredicate) -> bool {
        if sub.sort() != sup.sort() {
            return false;
        }
        sub == sup || self.empty.contains(&sub) || self.closed.contains(&(sub, sup))
    }

    /// Whether `pred`'s asserted extension is known to be empty.
    pub fn is_empty_pred(&self, pred: EboxPredicate) -> bool {
        self.empty.contains(&pred)
    }

    /// Whether `pred` carries an exact-extension annotation.
    pub fn is_exact(&self, pred: NamedPredicate) -> bool {
        self.exact.contains_key(&pred)
    }

    /// Whether `incl` is one of the *base* inclusions (not merely
    /// derivable through the closure) — exactness inference uses this to
    /// assemble support sets out of inclusions it actually checked
    /// against the data.
    pub fn has_inclusion(&self, incl: EboxInclusion) -> bool {
        self.base_set.contains(&incl)
    }

    /// Base inclusions, in insertion order.
    pub fn inclusions(&self) -> &[EboxInclusion] {
        &self.base
    }

    /// Known-empty predicates, ascending.
    pub fn empties(&self) -> impl Iterator<Item = &EboxPredicate> {
        self.empty.iter()
    }

    /// Exact-annotated predicates (unordered).
    pub fn exact_predicates(&self) -> impl Iterator<Item = &NamedPredicate> {
        self.exact.keys()
    }

    /// Number of base inclusions.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether the EBox holds no constraints of any kind.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.empty.is_empty() && self.exact.is_empty()
    }

    /// Total constraint count (inclusions + empties + exacts), the
    /// number reported by engine stats.
    pub fn constraint_count(&self) -> usize {
        self.base.len() + self.empty.len() + self.exact.len()
    }

    /// Retracts exactly the given inclusions and empties (the ones a
    /// write-path probe found violated), drops exact annotations whose
    /// support lost a member, and rebuilds the closure. Returns the
    /// number of constraints removed. Constraints over touched
    /// predicates that the probes re-validated survive.
    pub fn retract_specific(
        &mut self,
        incls: &HashSet<EboxInclusion>,
        empties: &HashSet<EboxPredicate>,
    ) -> usize {
        if incls.is_empty() && empties.is_empty() {
            return 0;
        }
        let before = self.constraint_count();
        self.base.retain(|i| !incls.contains(i));
        self.base_set = self.base.iter().copied().collect();
        self.empty.retain(|p| !empties.contains(p));
        let base_set = &self.base_set;
        self.exact
            .retain(|_, support| support.iter().all(|i| base_set.contains(i)));
        self.rebuild_closure();
        before - self.constraint_count()
    }

    fn rebuild_closure(&mut self) {
        self.closed.clear();
        // Floyd–Warshall-style saturation over the (small) base set.
        for i in &self.base {
            self.closed.insert((i.sub, i.sup));
        }
        loop {
            let mut added = Vec::new();
            for (a, b) in &self.closed {
                for (c, d) in &self.closed {
                    if b == c && a != d && !self.closed.contains(&(*a, *d)) {
                        added.push((*a, *d));
                    }
                }
            }
            if added.is_empty() {
                break;
            }
            for pair in added {
                self.closed.insert(pair);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::{ConceptId, RoleId};

    fn c(i: u32) -> EboxPredicate {
        EboxPredicate::Concept(BasicConcept::Atomic(ConceptId(i)))
    }

    fn exists(i: u32) -> EboxPredicate {
        EboxPredicate::Concept(BasicConcept::exists(RoleId(i)))
    }

    fn r(i: u32) -> EboxPredicate {
        EboxPredicate::Role(BasicRole::Direct(RoleId(i)))
    }

    #[test]
    fn contains_is_reflexive_and_transitive() {
        let mut e = Ebox::new();
        assert!(e.add_inclusion(c(0), c(1)));
        assert!(e.add_inclusion(c(1), c(2)));
        assert!(!e.add_inclusion(c(0), c(1)), "duplicate ignored");
        assert!(e.contains(c(0), c(0)));
        assert!(e.contains(c(0), c(2)), "transitive through c1");
        assert!(!e.contains(c(2), c(0)));
    }

    #[test]
    fn cross_sort_inclusions_are_rejected() {
        let mut e = Ebox::new();
        assert!(!e.add_inclusion(c(0), r(0)));
        assert!(!e.contains(c(0), r(0)));
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn empty_predicates_are_contained_in_everything() {
        let mut e = Ebox::new();
        e.set_empty(c(3));
        assert!(e.contains(c(3), c(9)));
        assert!(e.is_empty_pred(c(3)));
        assert!(!e.contains(c(9), c(3)));
    }

    #[test]
    fn retraction_removes_dependent_constraints_and_reclosures() {
        let mut e = Ebox::new();
        e.add_inclusion(c(0), c(1));
        e.add_inclusion(c(1), c(2));
        e.add_inclusion(exists(0), c(2));
        e.set_empty(c(1));
        e.set_exact(
            NamedPredicate::Concept(ConceptId(2)),
            vec![EboxInclusion {
                sub: c(1),
                sup: c(2),
            }],
        );
        let through_c1: HashSet<EboxInclusion> = [(c(0), c(1)), (c(1), c(2))]
            .into_iter()
            .map(|(sub, sup)| EboxInclusion { sub, sup })
            .collect();
        let removed = e.retract_specific(&through_c1, &[c(1)].into_iter().collect());
        // Both inclusions through c1, the empty on c1, and the exact
        // annotation whose support used c1 ⊑ c2 all go.
        assert_eq!(removed, 4);
        assert!(!e.contains(c(0), c(2)), "closure rebuilt without c1 path");
        assert!(e.contains(exists(0), c(2)), "unrelated constraint survives");
        assert!(!e.is_exact(NamedPredicate::Concept(ConceptId(2))));
    }

    #[test]
    fn exact_support_tracking() {
        let mut e = Ebox::new();
        e.add_inclusion(c(0), c(1));
        e.set_exact(
            NamedPredicate::Concept(ConceptId(1)),
            vec![EboxInclusion {
                sub: c(0),
                sup: c(1),
            }],
        );
        assert!(e.is_exact(NamedPredicate::Concept(ConceptId(1))));
        assert_eq!(e.constraint_count(), 2);
    }
}
