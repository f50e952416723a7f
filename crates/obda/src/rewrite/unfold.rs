//! **Unfolding**: translating a rewritten query into SQL over the sources
//! ("virtual mode" — the OBDA requirement of Section 7: query answering
//! "reduced to the evaluation of a first-order query (directly
//! translatable into SQL) over a database").
//!
//! Every query atom expands into its *sources*: flattened mapping bodies
//! (for the PerfectRef UCQ) or unions of subsumee sources (for the
//! Presto view program). One flat SQL join is built per choice of one
//! source per atom — the textbook UCQ-over-GAV unfolding — with two
//! template-level optimizations that real OBDA systems rely on:
//!
//! * **prefix pruning**: a variable shared between two atoms whose IRI
//!   templates have different prefixes can never join, so the combination
//!   is dropped at compile time;
//! * **suffix pushdown**: an IRI constant `person/7` against template
//!   `person/{id}` compiles to the SQL condition `id = 7` (typed by the
//!   column), not to string manipulation at runtime.

use std::collections::HashMap;

use obda_dllite::{AttributeId, ConceptId, RoleId, Value};
use obda_mapping::{Ebox, IriTemplate, MappingSet, ParsedBody};
use obda_sqlstore::sql::ast::{
    CmpOp, ColRef, Comparison, Join, Operand, SelectCore, SelectItem, TableRef,
};
use obda_sqlstore::{Database, SqlError, SqlValue};
use quonto::Classification;

use crate::answer::{AnswerTerm, Answers};
use crate::error::{ErrorPhase, ObdaError};
use crate::query::{Atom, ConjunctiveQuery, Term, Ucq, ValueTerm};
use crate::rewrite::presto::{
    attr_view_members, concept_view_members, role_view_members, PrestoRewriting, ViewAtom,
    ViewQuery,
};

/// How one argument position of an atom is produced by a source.
#[derive(Debug, Clone)]
pub(crate) enum ArgBinding {
    /// IRI built as `prefix + column value`.
    Iri { prefix: String, col: ColRef },
    /// Raw value column (attribute value position).
    Val { col: ColRef },
}

/// A flattened mapping body ready for inlining into a larger join.
#[derive(Debug, Clone)]
pub(crate) struct FlatSource {
    pub(crate) tables: Vec<TableRef>,
    /// Join conditions among this source's own tables (from the mapping's
    /// own JOINs), fully qualified.
    pub(crate) own_conditions: Vec<Comparison>,
    /// WHERE conjuncts of the mapping body, fully qualified.
    pub(crate) filters: Vec<Comparison>,
    /// Argument bindings for the atom's positions.
    pub(crate) args: Vec<ArgBinding>,
}

/// Flattens one core of a mapping's SQL for inclusion under an alias
/// prefix, resolving the head's referenced output columns.
fn flatten_core(
    db: &Database,
    core: &SelectCore,
    alias_prefix: &str,
    wanted: &[ColumnWant],
) -> Result<FlatSource, SqlError> {
    // Alias renaming.
    let mut refs = vec![core.from.clone()];
    refs.extend(core.joins.iter().map(|j| j.table.clone()));
    let rename: HashMap<String, String> = refs
        .iter()
        .map(|r| (r.alias.clone(), format!("{alias_prefix}{}", r.alias)))
        .collect();
    // Column ownership for qualification of bare column names.
    let mut owners: HashMap<String, Vec<String>> = HashMap::new();
    for r in &refs {
        let t = db.table(&r.table)?;
        for c in t.columns() {
            owners
                .entry(c.name.clone())
                .or_default()
                .push(r.alias.clone());
        }
    }
    let qualify = |c: &ColRef| -> Result<ColRef, SqlError> {
        let alias = match &c.qualifier {
            Some(q) => q.clone(),
            None => match owners.get(&c.column).map(Vec::as_slice) {
                Some([one]) => one.clone(),
                Some(_) => {
                    return Err(SqlError::new(format!(
                        "ambiguous column `{}` in mapping body",
                        c.column
                    )))
                }
                None => {
                    return Err(SqlError::new(format!(
                        "unknown column `{}` in mapping body",
                        c.column
                    )))
                }
            },
        };
        let renamed = rename
            .get(&alias)
            .ok_or_else(|| SqlError::new(format!("unknown alias `{alias}`")))?;
        Ok(ColRef {
            qualifier: Some(renamed.clone()),
            column: c.column.clone(),
        })
    };
    let remap_cmp = |cmp: &Comparison| -> Result<Comparison, SqlError> {
        let side = |o: &Operand| -> Result<Operand, SqlError> {
            Ok(match o {
                Operand::Col(c) => Operand::Col(qualify(c)?),
                Operand::Lit(v) => Operand::Lit(v.clone()),
            })
        };
        Ok(Comparison {
            lhs: side(&cmp.lhs)?,
            op: cmp.op,
            rhs: side(&cmp.rhs)?,
        })
    };

    let tables: Vec<TableRef> = refs
        .iter()
        .map(|r| TableRef {
            table: r.table.clone(),
            // lint: allow(R1.index, "`rename` was built from this same `refs` list, so every alias is a key")
            alias: rename[&r.alias].clone(),
        })
        .collect();
    let mut own_conditions = Vec::new();
    for j in &core.joins {
        for cmp in &j.on {
            own_conditions.push(remap_cmp(cmp)?);
        }
    }
    let mut filters = Vec::new();
    for cmp in &core.filter {
        filters.push(remap_cmp(cmp)?);
    }

    // Resolve an output-column name to the qualified underlying column.
    let resolve_output = |name: &str| -> Result<ColRef, SqlError> {
        if core.items.is_empty() {
            // SELECT *: the output name is the bare column name.
            return qualify(&ColRef {
                qualifier: None,
                column: name.to_owned(),
            });
        }
        for item in &core.items {
            let out_name = item.alias.as_deref().unwrap_or(&item.col.column);
            if out_name == name {
                return qualify(&item.col);
            }
        }
        Err(SqlError::new(format!(
            "mapping head references `{name}` not in SELECT list"
        )))
    };

    let mut args = Vec::new();
    for w in wanted {
        match w {
            ColumnWant::Iri { prefix, column } => args.push(ArgBinding::Iri {
                prefix: prefix.clone(),
                col: resolve_output(column)?,
            }),
            ColumnWant::Val { column } => args.push(ArgBinding::Val {
                col: resolve_output(column)?,
            }),
        }
    }
    Ok(FlatSource {
        tables,
        own_conditions,
        filters,
        args,
    })
}

/// What an atom position needs from the mapping's output.
enum ColumnWant {
    Iri { prefix: String, column: String },
    Val { column: String },
}

fn template_want(t: &IriTemplate) -> ColumnWant {
    ColumnWant::Iri {
        prefix: t.prefix.clone(),
        column: t.column.clone(),
    }
}

/// All sources of a plain signature atom (PerfectRef mode: direct
/// mappings only).
fn atom_sources(
    atom: &Atom,
    mappings: &MappingSet,
    db: &Database,
    counter: &mut usize,
) -> Result<Vec<FlatSource>, SqlError> {
    let mut out = Vec::new();
    match atom {
        Atom::Concept(c, _) => {
            for (body, subject) in mappings.concept_sources(*c) {
                add_body(db, body, vec![template_want(subject)], counter, &mut out)?;
            }
        }
        Atom::Role(p, _, _) => {
            for (body, subject, object) in mappings.role_sources(*p) {
                add_body(
                    db,
                    body,
                    vec![template_want(subject), template_want(object)],
                    counter,
                    &mut out,
                )?;
            }
        }
        Atom::Attribute(u, _, _) => {
            for (body, subject, value_col) in mappings.attribute_sources(*u) {
                add_body(
                    db,
                    body,
                    vec![
                        template_want(subject),
                        ColumnWant::Val {
                            column: value_col.to_owned(),
                        },
                    ],
                    counter,
                    &mut out,
                )?;
            }
        }
    }
    Ok(out)
}

/// Flattens every core of one parsed mapping body into `out`, each under
/// the next `m{counter}_` alias prefix.
fn add_body(
    db: &Database,
    body: &ParsedBody,
    wants: Vec<ColumnWant>,
    counter: &mut usize,
    out: &mut Vec<FlatSource>,
) -> Result<(), SqlError> {
    let q = body.as_ref().map_err(Clone::clone)?;
    if q.limit.is_some() || !q.order_by.is_empty() {
        return Err(SqlError::new(
            "mapping bodies must not use ORDER BY / LIMIT",
        ));
    }
    for core in std::iter::once(&q.first).chain(q.rest.iter().map(|(_, c)| c)) {
        *counter += 1;
        out.push(flatten_core(db, core, &format!("m{counter}_"), &wants)?);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Flat-source containment (EBox union pruning + mapping-level inference).
// ---------------------------------------------------------------------------

/// A comparison operand with aliases canonicalized to table positions,
/// so two flattenings of the same mapping body compare equal regardless
/// of the alias counter they were flattened under.
#[derive(PartialEq)]
enum CanonOperand {
    Col(usize, String),
    Lit(SqlValue),
    /// A column whose alias is not one of the source's own tables —
    /// malformed for containment purposes; never equal to anything.
    Foreign,
}

fn canon_operand(o: &Operand, pos: &HashMap<&str, usize>) -> CanonOperand {
    match o {
        Operand::Lit(v) => CanonOperand::Lit(v.clone()),
        Operand::Col(c) => match c.qualifier.as_deref().and_then(|q| pos.get(q)) {
            Some(i) => CanonOperand::Col(*i, c.column.clone()),
            None => CanonOperand::Foreign,
        },
    }
}

fn canon_cmp(cmp: &Comparison, pos: &HashMap<&str, usize>) -> (CanonOperand, CmpOp, CanonOperand) {
    (
        canon_operand(&cmp.lhs, pos),
        cmp.op,
        canon_operand(&cmp.rhs, pos),
    )
}

/// Whether two canonical comparisons assert the same thing (equality is
/// symmetric, so `a = b` matches `b = a`).
fn cmp_matches(
    a: &(CanonOperand, CmpOp, CanonOperand),
    b: &(CanonOperand, CmpOp, CanonOperand),
) -> bool {
    if matches!(a.0, CanonOperand::Foreign) || matches!(a.2, CanonOperand::Foreign) {
        return false;
    }
    (a.1 == b.1 && a.0 == b.0 && a.2 == b.2)
        || (a.1 == CmpOp::Eq && b.1 == CmpOp::Eq && a.0 == b.2 && a.2 == b.0)
}

fn alias_positions(src: &FlatSource) -> HashMap<&str, usize> {
    src.tables
        .iter()
        .enumerate()
        .map(|(i, t)| (t.alias.as_str(), i))
        .collect()
}

/// Whether every row `specific` produces is also produced by `general`:
/// both scan the same tables in the same order and bind the same
/// argument columns, and every condition `general` imposes is also
/// imposed by `specific` (which may impose more). Purely syntactic, so
/// it holds for **every** source database state.
pub(crate) fn flat_source_contains(general: &FlatSource, specific: &FlatSource) -> bool {
    if general.tables.len() != specific.tables.len() || general.args.len() != specific.args.len() {
        return false;
    }
    if general
        .tables
        .iter()
        .zip(&specific.tables)
        .any(|(g, s)| g.table != s.table)
    {
        return false;
    }
    let gpos = alias_positions(general);
    let spos = alias_positions(specific);
    for (g, s) in general.args.iter().zip(&specific.args) {
        let same = match (g, s) {
            (
                ArgBinding::Iri {
                    prefix: gp,
                    col: gc,
                },
                ArgBinding::Iri {
                    prefix: sp,
                    col: sc,
                },
            ) => {
                gp == sp
                    && canon_operand(&Operand::Col(gc.clone()), &gpos)
                        == canon_operand(&Operand::Col(sc.clone()), &spos)
            }
            (ArgBinding::Val { col: gc }, ArgBinding::Val { col: sc }) => {
                canon_operand(&Operand::Col(gc.clone()), &gpos)
                    == canon_operand(&Operand::Col(sc.clone()), &spos)
            }
            _ => false,
        };
        if !same {
            return false;
        }
    }
    let spec_cmps: Vec<_> = specific
        .own_conditions
        .iter()
        .chain(&specific.filters)
        .map(|c| canon_cmp(c, &spos))
        .collect();
    general
        .own_conditions
        .iter()
        .chain(&general.filters)
        .map(|c| canon_cmp(c, &gpos))
        .all(|g| spec_cmps.iter().any(|s| cmp_matches(&g, s)))
}

/// Drops union members (per-atom flat sources) whose rows are provably
/// produced by another kept member. Returns the kept list and the
/// number pruned.
fn prune_flat_sources(sources: Vec<FlatSource>) -> (Vec<FlatSource>, u64) {
    let mut kept: Vec<FlatSource> = Vec::new();
    let mut pruned = 0u64;
    'next: for s in sources {
        for k in &kept {
            if flat_source_contains(k, &s) {
                pruned += 1;
                continue 'next;
            }
        }
        kept.retain(|k| {
            let drop = flat_source_contains(&s, k);
            if drop {
                pruned += 1;
            }
            !drop
        });
        kept.push(s);
    }
    (kept, pruned)
}

/// Every flat source of one named predicate, under a throwaway alias
/// counter (canonical containment ignores alias numbering).
fn named_sources(
    atom: &Atom,
    mappings: &MappingSet,
    db: &Database,
) -> Result<Vec<FlatSource>, SqlError> {
    let mut counter = 0usize;
    atom_sources(atom, mappings, db, &mut counter)
}

fn sources_contained(sub: &Atom, sup: &Atom, mappings: &MappingSet, db: &Database) -> bool {
    let (Ok(subs), Ok(sups)) = (
        named_sources(sub, mappings, db),
        named_sources(sup, mappings, db),
    ) else {
        return false; // conservative: unparseable mapping ⇒ no constraint
    };
    subs.iter()
        .all(|s| sups.iter().any(|g| flat_source_contains(g, s)))
}

fn var(n: &str) -> Term {
    Term::Var(n.to_owned())
}

/// Whether concept `sub`'s virtual extension is contained in `sup`'s in
/// every source database state (each of `sub`'s mapping sources is a
/// syntactic specialization of one of `sup`'s).
pub(crate) fn concept_sources_contained(
    mappings: &MappingSet,
    db: &Database,
    sub: ConceptId,
    sup: ConceptId,
) -> bool {
    sources_contained(
        &Atom::Concept(sub, var("x")),
        &Atom::Concept(sup, var("x")),
        mappings,
        db,
    )
}

/// Role analogue of [`concept_sources_contained`] (same orientation).
pub(crate) fn role_sources_contained(
    mappings: &MappingSet,
    db: &Database,
    sub: RoleId,
    sup: RoleId,
) -> bool {
    sources_contained(
        &Atom::Role(sub, var("x"), var("y")),
        &Atom::Role(sup, var("x"), var("y")),
        mappings,
        db,
    )
}

/// Attribute analogue of [`concept_sources_contained`].
pub(crate) fn attr_sources_contained(
    mappings: &MappingSet,
    db: &Database,
    sub: AttributeId,
    sup: AttributeId,
) -> bool {
    sources_contained(
        &Atom::Attribute(sub, var("x"), ValueTerm::Var("v".to_owned())),
        &Atom::Attribute(sup, var("x"), ValueTerm::Var("v".to_owned())),
        mappings,
        db,
    )
}

/// All sources of a view atom (Presto mode: union over subsumee members).
/// With an EBox, members with provably empty or subsumed virtual
/// extensions are skipped before their sources are flattened (counted
/// `ebox_pruned_views`).
pub(crate) fn view_atom_sources(
    atom: &ViewAtom,
    cls: &Classification,
    mappings: &MappingSet,
    db: &Database,
    counter: &mut usize,
    ebox: Option<&Ebox>,
) -> Result<Vec<FlatSource>, SqlError> {
    use obda_dllite::{BasicConcept, BasicRole};
    let mut out = Vec::new();
    use crate::rewrite::eboxprune::{
        prune_attr_members, prune_concept_members, prune_role_members,
    };
    match atom {
        ViewAtom::ConceptView(s, _) => {
            let members = match ebox {
                Some(e) => prune_concept_members(concept_view_members(cls, *s), e),
                None => concept_view_members(cls, *s),
            };
            for member in members {
                match member {
                    BasicConcept::Atomic(a) => {
                        for (body, subject) in mappings.concept_sources(a) {
                            add_body(db, body, vec![template_want(subject)], counter, &mut out)?;
                        }
                    }
                    BasicConcept::Exists(BasicRole::Direct(p)) => {
                        for (body, subject, _) in mappings.role_sources(p) {
                            add_body(db, body, vec![template_want(subject)], counter, &mut out)?;
                        }
                    }
                    BasicConcept::Exists(BasicRole::Inverse(p)) => {
                        for (body, _, object) in mappings.role_sources(p) {
                            add_body(db, body, vec![template_want(object)], counter, &mut out)?;
                        }
                    }
                    BasicConcept::AttrDomain(u) => {
                        for (body, subject, _) in mappings.attribute_sources(u) {
                            add_body(db, body, vec![template_want(subject)], counter, &mut out)?;
                        }
                    }
                }
            }
        }
        ViewAtom::RoleView(q, _, _) => {
            let members = match ebox {
                Some(e) => prune_role_members(role_view_members(cls, *q), e),
                None => role_view_members(cls, *q),
            };
            for member in members {
                let p = member.role();
                for (body, subject, object) in mappings.role_sources(p) {
                    let wants = if member.is_inverse() {
                        vec![template_want(object), template_want(subject)]
                    } else {
                        vec![template_want(subject), template_want(object)]
                    };
                    add_body(db, body, wants, counter, &mut out)?;
                }
            }
        }
        ViewAtom::AttrView(u, _, _) => {
            let members = match ebox {
                Some(e) => prune_attr_members(attr_view_members(cls, *u), e),
                None => attr_view_members(cls, *u),
            };
            for member in members {
                for (body, subject, value_col) in mappings.attribute_sources(member) {
                    add_body(
                        db,
                        body,
                        vec![
                            template_want(subject),
                            ColumnWant::Val {
                                column: value_col.to_owned(),
                            },
                        ],
                        counter,
                        &mut out,
                    )?;
                }
            }
        }
    }
    Ok(out)
}

/// Argument terms of an atom, in binding order.
fn atom_args(atom: &Atom) -> Vec<ArgTerm> {
    match atom {
        Atom::Concept(_, t) => vec![ArgTerm::Iri(t.clone())],
        Atom::Role(_, s, o) => vec![ArgTerm::Iri(s.clone()), ArgTerm::Iri(o.clone())],
        Atom::Attribute(_, s, v) => vec![ArgTerm::Iri(s.clone()), ArgTerm::Val(v.clone())],
    }
}

fn view_atom_args(atom: &ViewAtom) -> Vec<ArgTerm> {
    match atom {
        ViewAtom::ConceptView(_, t) => vec![ArgTerm::Iri(t.clone())],
        ViewAtom::RoleView(_, s, o) => vec![ArgTerm::Iri(s.clone()), ArgTerm::Iri(o.clone())],
        ViewAtom::AttrView(_, s, v) => vec![ArgTerm::Iri(s.clone()), ArgTerm::Val(v.clone())],
    }
}

#[derive(Debug, Clone)]
enum ArgTerm {
    Iri(Term),
    Val(ValueTerm),
}

/// How an answer column is reconstructed from a SQL output column.
#[derive(Debug, Clone)]
pub enum OutBinding {
    /// IRI: prefix + column value.
    Iri {
        /// Template prefix.
        prefix: String,
        /// Output position in the SQL result.
        position: usize,
    },
    /// Plain value.
    Val {
        /// Output position in the SQL result.
        position: usize,
    },
}

/// One flat SQL query plus the recipe to rebuild answer tuples.
#[derive(Debug, Clone)]
pub struct ComboQuery {
    /// The flat join query.
    pub core: SelectCore,
    /// Answer reconstruction, one entry per head variable.
    pub out: Vec<OutBinding>,
}

/// Builds the flat SQL queries for one CQ given per-atom source lists.
fn build_combos(
    head: &[String],
    atoms_args: &[Vec<ArgTerm>],
    sources_per_atom: &[Vec<FlatSource>],
    db: &Database,
) -> Result<Vec<ComboQuery>, SqlError> {
    let mut combos = Vec::new();
    let mut choice = vec![0usize; sources_per_atom.len()];
    if sources_per_atom.iter().any(Vec::is_empty) {
        return Ok(combos); // some atom has no source: no answers
    }
    loop {
        if let Some(combo) = build_one(head, atoms_args, sources_per_atom, &choice, db)? {
            combos.push(combo);
        }
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == choice.len() {
                return Ok(combos);
            }
            // lint: allow(R1.index, "i < choice.len() checked above; choice and sources_per_atom have equal length by construction")
            choice[i] += 1;
            // lint: allow(R1.index, "i < choice.len() == sources_per_atom.len(); the odometer never exceeds either")
            if choice[i] < sources_per_atom[i].len() {
                break;
            }
            // lint: allow(R1.index, "i < choice.len() checked above")
            choice[i] = 0;
            i += 1;
        }
    }
}

/// Column type lookup for typed suffix pushdown.
fn column_literal(db: &Database, col: &ColRef, text: &str) -> SqlValue {
    // Find the column's type through its (renamed) alias: alias format is
    // `m{k}_{orig}`, but the table name is carried in the TableRef, so we
    // resolve lazily at condition-build time where the TableRef list is
    // in scope. Fallback: integers parse as Int, everything else Text.
    let _ = (db, col);
    match text.parse::<i64>() {
        Ok(n) => SqlValue::Int(n),
        Err(_) => SqlValue::Text(text.to_owned()),
    }
}

fn build_one(
    head: &[String],
    atoms_args: &[Vec<ArgTerm>],
    sources_per_atom: &[Vec<FlatSource>],
    choice: &[usize],
    db: &Database,
) -> Result<Option<ComboQuery>, SqlError> {
    let picked: Vec<&FlatSource> = sources_per_atom
        .iter()
        .zip(choice)
        // lint: allow(R1.index, "the odometer keeps every choice[k] < sources_per_atom[k].len()")
        .map(|(v, &i)| &v[i])
        .collect();

    // Gather variable bindings and constant conditions.
    let mut var_iri: HashMap<&str, Vec<(usize, &ArgBinding)>> = HashMap::new(); // atom idx for join placement
    let mut var_val: HashMap<&str, Vec<(usize, &ArgBinding)>> = HashMap::new();
    let mut const_conditions: Vec<(usize, Comparison)> = Vec::new();
    for (ai, (args, src)) in atoms_args.iter().zip(&picked).enumerate() {
        if args.len() != src.args.len() {
            return Err(SqlError::new("arity mismatch between atom and source"));
        }
        for (term, binding) in args.iter().zip(&src.args) {
            match (term, binding) {
                (ArgTerm::Iri(Term::Var(v)), b @ ArgBinding::Iri { .. }) => {
                    var_iri.entry(v).or_default().push((ai, b));
                }
                (ArgTerm::Iri(Term::Const(iri)), ArgBinding::Iri { prefix, col }) => {
                    match iri.strip_prefix(prefix.as_str()) {
                        None => return Ok(None), // constant can't match template
                        Some(suffix) => const_conditions.push((
                            ai,
                            Comparison {
                                lhs: Operand::Col(col.clone()),
                                op: CmpOp::Eq,
                                rhs: Operand::Lit(column_literal(db, col, suffix)),
                            },
                        )),
                    }
                }
                (ArgTerm::Val(ValueTerm::Var(v)), b @ ArgBinding::Val { .. }) => {
                    var_val.entry(v.as_str()).or_default().push((ai, b));
                }
                (ArgTerm::Val(ValueTerm::Lit(l)), ArgBinding::Val { col }) => {
                    let lit = match l {
                        Value::Int(i) => SqlValue::Int(*i),
                        Value::Text(s) => SqlValue::Text(s.clone()),
                    };
                    const_conditions.push((
                        ai,
                        Comparison {
                            lhs: Operand::Col(col.clone()),
                            op: CmpOp::Eq,
                            rhs: Operand::Lit(lit),
                        },
                    ));
                }
                _ => return Err(SqlError::new("binding sort mismatch")),
            }
        }
    }
    // A variable name used in both IRI and value positions never joins.
    for v in var_iri.keys() {
        if var_val.contains_key(*v) {
            return Ok(None);
        }
    }

    // Prefix pruning + join conditions per shared variable.
    let mut join_conditions: Vec<(usize, Comparison)> = Vec::new();
    for bindings in var_iri.values() {
        let first_prefix = match bindings[0].1 {
            ArgBinding::Iri { prefix, .. } => prefix,
            // lint: allow(R1.panic, "var_iri only ever receives ArgBinding::Iri entries (partitioned at insert above)")
            _ => unreachable!(),
        };
        for (_, b) in bindings {
            if let ArgBinding::Iri { prefix, .. } = b {
                if prefix != first_prefix {
                    return Ok(None); // different templates never join
                }
            }
        }
        for w in bindings.windows(2) {
            let (a0, b0) = (&w[0], &w[1]);
            let (c0, c1) = match (b0.1, a0.1) {
                (ArgBinding::Iri { col: c1, .. }, ArgBinding::Iri { col: c0, .. }) => (c0, c1),
                // lint: allow(R1.panic, "var_iri only ever receives ArgBinding::Iri entries (partitioned at insert above)")
                _ => unreachable!(),
            };
            join_conditions.push((
                a0.0.max(b0.0),
                Comparison {
                    lhs: Operand::Col(c0.clone()),
                    op: CmpOp::Eq,
                    rhs: Operand::Col(c1.clone()),
                },
            ));
        }
    }
    for bindings in var_val.values() {
        for w in bindings.windows(2) {
            let (a0, b0) = (&w[0], &w[1]);
            let (c0, c1) = match (a0.1, b0.1) {
                (ArgBinding::Val { col: c0 }, ArgBinding::Val { col: c1 }) => (c0, c1),
                // lint: allow(R1.panic, "var_val only ever receives ArgBinding::Val entries (partitioned at insert above)")
                _ => unreachable!(),
            };
            join_conditions.push((
                a0.0.max(b0.0),
                Comparison {
                    lhs: Operand::Col(c0.clone()),
                    op: CmpOp::Eq,
                    rhs: Operand::Col(c1.clone()),
                },
            ));
        }
    }

    // Assemble the flat core: tables in atom order. Each condition is
    // attached to the ON clause of the last table it references (so every
    // column it mentions is already in scope), or to WHERE when it only
    // touches the leading FROM table.
    let mut tables: Vec<TableRef> = Vec::new();
    let mut conditions: Vec<Comparison> = Vec::new();
    for src in &picked {
        tables.extend(src.tables.iter().cloned());
        conditions.extend(src.own_conditions.iter().cloned());
        conditions.extend(src.filters.iter().cloned());
    }
    conditions.extend(const_conditions.into_iter().map(|(_, c)| c));
    conditions.extend(join_conditions.into_iter().map(|(_, c)| c));

    let alias_pos: HashMap<&str, usize> = tables
        .iter()
        .enumerate()
        .map(|(i, t)| (t.alias.as_str(), i))
        .collect();
    let placement = |cmp: &Comparison| -> Result<usize, SqlError> {
        let mut pos = 0usize;
        for op in [&cmp.lhs, &cmp.rhs] {
            if let Operand::Col(c) = op {
                let alias = c
                    .qualifier
                    .as_deref()
                    .ok_or_else(|| SqlError::new("unfolding produced an unqualified column"))?;
                let p = alias_pos
                    .get(alias)
                    .ok_or_else(|| SqlError::new(format!("unknown alias `{alias}`")))?;
                pos = pos.max(*p);
            }
        }
        Ok(pos)
    };
    let mut per_table: Vec<Vec<Comparison>> = vec![Vec::new(); tables.len()];
    for cmp in conditions {
        let pos = placement(&cmp)?;
        // lint: allow(R1.index, "placement() returns a max over alias positions, all < tables.len() == per_table.len()")
        per_table[pos].push(cmp);
    }

    let mut iter = tables.into_iter().enumerate();
    let Some((_, from)) = iter.next() else {
        return Err(SqlError::new("empty source"));
    };
    let filters: Vec<Comparison> = std::mem::take(&mut per_table[0]);
    let mut joins: Vec<Join> = Vec::new();
    for (pos, t) in iter {
        joins.push(Join {
            table: t,
            // lint: allow(R1.index, "pos enumerates tables, and per_table was sized to tables.len()")
            on: std::mem::take(&mut per_table[pos]),
        });
    }

    // Head projection.
    let mut items: Vec<SelectItem> = Vec::new();
    let mut out: Vec<OutBinding> = Vec::new();
    for (i, h) in head.iter().enumerate() {
        if let Some(bindings) = var_iri.get(h.as_str()) {
            if let ArgBinding::Iri { prefix, col } = bindings[0].1 {
                items.push(SelectItem {
                    col: col.clone(),
                    alias: Some(format!("o{i}")),
                });
                out.push(OutBinding::Iri {
                    prefix: prefix.clone(),
                    position: items.len() - 1,
                });
                continue;
            }
        }
        if let Some(bindings) = var_val.get(h.as_str()) {
            if let ArgBinding::Val { col } = bindings[0].1 {
                items.push(SelectItem {
                    col: col.clone(),
                    alias: Some(format!("o{i}")),
                });
                out.push(OutBinding::Val {
                    position: items.len() - 1,
                });
                continue;
            }
        }
        return Err(SqlError::new(format!("unsafe head variable `{h}`")));
    }
    if items.is_empty() {
        // Boolean query: project something so the core is well-formed.
        let col = {
            let t = db.table(&from.table)?;
            ColRef {
                qualifier: Some(from.alias.clone()),
                column: t.columns()[0].name.clone(),
            }
        };
        items.push(SelectItem {
            col,
            alias: Some("o0".into()),
        });
    }

    Ok(Some(ComboQuery {
        core: SelectCore {
            distinct: false,
            items,
            from,
            joins,
            filter: filters,
        },
        out,
    }))
}

/// Executes combo queries, reconstructing answer tuples.
/// Reconstructs answer tuples from one flat-SQL result set. Rows with a
/// NULL in any output position are dropped: a NULL means the source had
/// no value for that answer term, so no fact is derived.
fn collect_rows(rs: obda_sqlstore::exec::ResultSet, combo: &ComboQuery, answers: &mut Answers) {
    for row in rs.rows {
        let mut tuple = Vec::with_capacity(combo.out.len());
        let mut skip = false;
        for ob in &combo.out {
            match ob {
                OutBinding::Iri { prefix, position } => {
                    // lint: allow(R1.index, "OutBinding positions index the SELECT items built alongside them; every result row has exactly that arity")
                    if row[*position].is_null() {
                        skip = true;
                        break;
                    }
                    // lint: allow(R1.index, "same SELECT-arity invariant as the null check above")
                    tuple.push(AnswerTerm::Iri(format!("{prefix}{}", row[*position])));
                }
                // lint: allow(R1.index, "OutBinding positions index the SELECT items built alongside them; every result row has exactly that arity")
                OutBinding::Val { position } => match &row[*position] {
                    SqlValue::Null => {
                        skip = true;
                        break;
                    }
                    SqlValue::Int(i) => tuple.push(AnswerTerm::Value(Value::Int(*i))),
                    SqlValue::Text(s) => tuple.push(AnswerTerm::Value(Value::Text(s.clone()))),
                },
            }
        }
        if !skip {
            answers.insert(tuple);
        }
    }
}

fn run_combos(combos: &[ComboQuery], db: &Database) -> Result<Answers, SqlError> {
    let mut answers = Answers::new();
    for combo in combos {
        let q = obda_sqlstore::SelectQuery {
            first: combo.core.clone(),
            rest: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        };
        let planned = obda_sqlstore::plan_query(db, &q)?;
        let rs = obda_sqlstore::exec::execute(db, &planned)?;
        collect_rows(rs, combo, &mut answers);
    }
    Ok(answers)
}

/// Traced variant of [`run_combos`]: executes under an `sql` span, with
/// per-statement scan counters on the trace and errors attributed to the
/// evaluation phase carrying the failing flat-SQL fragment.
fn run_combos_traced(
    combos: &[ComboQuery],
    db: &Database,
    ctx: &obda_obs::TraceCtx,
) -> Result<Answers, ObdaError> {
    let guard = obda_obs::span!(ctx, "sql");
    guard.count("sql_queries", combos.len() as u64);
    let mut answers = Answers::new();
    for combo in combos {
        let q = obda_sqlstore::SelectQuery {
            first: combo.core.clone(),
            rest: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        };
        let planned = obda_sqlstore::plan_query(db, &q).map_err(|e| {
            ObdaError::sql_in(
                ErrorPhase::Evaluate,
                obda_sqlstore::print_select_core(&combo.core),
                e,
            )
        })?;
        let rs = obda_sqlstore::exec::execute_traced(db, &planned, ctx).map_err(|e| {
            ObdaError::sql_in(
                ErrorPhase::Evaluate,
                obda_sqlstore::print_select_core(&combo.core),
                e,
            )
        })?;
        collect_rows(rs, combo, &mut answers);
    }
    Ok(answers)
}

/// Unfolds and executes a PerfectRef UCQ over the mappings and sources.
pub fn answer_ucq_virtual(
    ucq: &Ucq,
    mappings: &MappingSet,
    db: &Database,
) -> Result<Answers, SqlError> {
    let mut answers = Answers::new();
    for cq in &ucq.disjuncts {
        answers.extend(answer_cq_virtual(cq, mappings, db)?);
    }
    Ok(answers)
}

fn answer_cq_virtual(
    cq: &ConjunctiveQuery,
    mappings: &MappingSet,
    db: &Database,
) -> Result<Answers, SqlError> {
    let combos = unfold_cq(cq, mappings, db)?;
    run_combos(&combos, db)
}

/// Traced variant of [`answer_ucq_virtual`]: unfolds every disjunct
/// under an `unfold` span, then executes all flat SQL queries under an
/// `sql` span, with errors attributed to the failing phase.
pub fn answer_ucq_virtual_traced(
    ucq: &Ucq,
    mappings: &MappingSet,
    db: &Database,
    ctx: &obda_obs::TraceCtx,
    ebox: Option<&Ebox>,
) -> Result<Answers, ObdaError> {
    let combos = {
        let _guard = obda_obs::span!(ctx, "unfold");
        let mut all = Vec::new();
        for cq in &ucq.disjuncts {
            all.extend(
                unfold_cq_ebox(cq, mappings, db, ebox)
                    .map_err(|e| ObdaError::sql(ErrorPhase::Unfold, e))?,
            );
        }
        all
    };
    run_combos_traced(&combos, db, ctx)
}

/// Builds (without executing) the flat SQL queries a CQ unfolds into —
/// the EXPLAIN view of PerfectRef-mode answering.
pub fn unfold_cq(
    cq: &ConjunctiveQuery,
    mappings: &MappingSet,
    db: &Database,
) -> Result<Vec<ComboQuery>, SqlError> {
    unfold_cq_ebox(cq, mappings, db, None)
}

/// [`unfold_cq`] with EBox union pruning: per-atom source unions drop
/// members whose rows another kept member provably produces (counted
/// `ebox_pruned_unions`).
pub(crate) fn unfold_cq_ebox(
    cq: &ConjunctiveQuery,
    mappings: &MappingSet,
    db: &Database,
    ebox: Option<&Ebox>,
) -> Result<Vec<ComboQuery>, SqlError> {
    let mut counter = 0usize;
    let mut sources = Vec::with_capacity(cq.atoms.len());
    let mut pruned = 0u64;
    for atom in &cq.atoms {
        let srcs = atom_sources(atom, mappings, db, &mut counter)?;
        sources.push(if ebox.is_some() {
            let (kept, n) = prune_flat_sources(srcs);
            pruned += n;
            kept
        } else {
            srcs
        });
    }
    if pruned > 0 {
        crate::ebox::ebox_pruned_unions_total().add(pruned);
    }
    let args: Vec<Vec<ArgTerm>> = cq.atoms.iter().map(atom_args).collect();
    build_combos(&cq.head, &args, &sources, db)
}

/// Unfolds and executes a Presto view program over the mappings.
pub fn answer_presto_virtual(
    rw: &PrestoRewriting,
    cls: &Classification,
    mappings: &MappingSet,
    db: &Database,
) -> Result<Answers, SqlError> {
    let mut answers = Answers::new();
    for vq in &rw.queries {
        answers.extend(answer_view_query_virtual(vq, cls, mappings, db)?);
    }
    Ok(answers)
}

fn answer_view_query_virtual(
    vq: &ViewQuery,
    cls: &Classification,
    mappings: &MappingSet,
    db: &Database,
) -> Result<Answers, SqlError> {
    let combos = unfold_view_query(vq, cls, mappings, db)?;
    run_combos(&combos, db)
}

/// Traced variant of [`answer_presto_virtual`]: same `unfold` / `sql`
/// span structure as the PerfectRef path.
pub fn answer_presto_virtual_traced(
    rw: &PrestoRewriting,
    cls: &Classification,
    mappings: &MappingSet,
    db: &Database,
    ctx: &obda_obs::TraceCtx,
    ebox: Option<&Ebox>,
) -> Result<Answers, ObdaError> {
    let combos = {
        let _guard = obda_obs::span!(ctx, "unfold");
        let mut all = Vec::new();
        for vq in &rw.queries {
            all.extend(
                unfold_view_query_ebox(vq, cls, mappings, db, ebox)
                    .map_err(|e| ObdaError::sql(ErrorPhase::Unfold, e))?,
            );
        }
        all
    };
    run_combos_traced(&combos, db, ctx)
}

/// Builds (without executing) the flat SQL queries a Presto view query
/// unfolds into — the EXPLAIN view of Presto-mode answering.
pub fn unfold_view_query(
    vq: &ViewQuery,
    cls: &Classification,
    mappings: &MappingSet,
    db: &Database,
) -> Result<Vec<ComboQuery>, SqlError> {
    unfold_view_query_ebox(vq, cls, mappings, db, None)
}

/// [`unfold_view_query`] with EBox pruning at both levels: view members
/// are dropped before flattening (`ebox_pruned_views`) and the
/// remaining flat unions deduplicated by containment
/// (`ebox_pruned_unions`).
pub(crate) fn unfold_view_query_ebox(
    vq: &ViewQuery,
    cls: &Classification,
    mappings: &MappingSet,
    db: &Database,
    ebox: Option<&Ebox>,
) -> Result<Vec<ComboQuery>, SqlError> {
    let mut counter = 0usize;
    let mut sources = Vec::with_capacity(vq.atoms.len());
    let mut pruned = 0u64;
    for atom in &vq.atoms {
        let srcs = view_atom_sources(atom, cls, mappings, db, &mut counter, ebox)?;
        sources.push(if ebox.is_some() {
            let (kept, n) = prune_flat_sources(srcs);
            pruned += n;
            kept
        } else {
            srcs
        });
    }
    if pruned > 0 {
        crate::ebox::ebox_pruned_unions_total().add(pruned);
    }
    let args: Vec<Vec<ArgTerm>> = vq.atoms.iter().map(view_atom_args).collect();
    build_combos(&vq.head, &args, &sources, db)
}

/// Number of flat SQL queries the unfolding would produce (rewriting-size
/// metric for the A2 ablation).
pub fn count_ucq_combos(
    ucq: &Ucq,
    mappings: &MappingSet,
    db: &Database,
) -> Result<usize, SqlError> {
    let mut total = 0usize;
    for cq in &ucq.disjuncts {
        let mut counter = 0usize;
        let mut sources = Vec::with_capacity(cq.atoms.len());
        for atom in &cq.atoms {
            sources.push(atom_sources(atom, mappings, db, &mut counter)?);
        }
        let args: Vec<Vec<ArgTerm>> = cq.atoms.iter().map(atom_args).collect();
        total += build_combos(&cq.head, &args, &sources, db)?.len();
    }
    Ok(total)
}
