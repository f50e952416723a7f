//! Logical planning: name resolution, predicate compilation, filter
//! pushdown and index-aware join ordering.
//!
//! The planner turns a parsed [`SelectQuery`] into a [`Plan`] tree of
//! physical-ish operators. Every join in the SQL subset is an inner
//! join, so the WHERE conjuncts and all ON conditions form one pool.
//! Each ON condition is first resolved in its written scope (the tables
//! up to its own JOIN), so malformed SQL fails as written. Then:
//!
//! * a condition on one table is pushed into that table's
//!   [`Plan::Scan`]; an equality against a non-NULL literal on an
//!   indexed column becomes the scan's index access path;
//! * the join order starts from the most selective scan (an index
//!   equality, then pushed filters, then the written order) and keeps
//!   adding a table linked to the joined set by an equi-join, preferring
//!   one whose join column has a hash index;
//! * such a table is joined by probing that index once per outer row
//!   ([`Plan::IndexJoin`]), any other by a [`Plan::HashJoin`] on its
//!   equi-join keys (a cross product when it has none); conditions over
//!   several tables run as residual predicates of the join that brings
//!   in the last of them;
//! * the projection maps written column positions onto the joined row,
//!   so `SELECT *` keeps the written column order;
//! * `DISTINCT`, `UNION [ALL]`, `ORDER BY` and `LIMIT` become dedicated
//!   nodes.

use crate::catalog::Database;
use crate::error::SqlError;
use crate::sql::ast::*;
use crate::table::Table;
use crate::value::SqlValue;

/// A compiled operand: a column position in the operator's input row, or
/// a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// Input row position.
    Col(usize),
    /// Constant.
    Lit(SqlValue),
}

/// A compiled comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCmp {
    /// Left operand.
    pub lhs: Source,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Source,
}

impl Source {
    /// The operand's value in the row `left ++ right`.
    fn value<'a>(&'a self, left: &'a [SqlValue], right: &'a [SqlValue]) -> &'a SqlValue {
        match self {
            Source::Col(i) => left.get(*i).unwrap_or_else(|| &right[*i - left.len()]),
            Source::Lit(v) => v,
        }
    }
}

impl CompiledCmp {
    /// Evaluates against a row (NULL-involving comparisons are false).
    pub fn eval(&self, row: &[SqlValue]) -> bool {
        self.eval_split(row, &[])
    }

    /// Evaluates against the row `left ++ right` without building it.
    pub(crate) fn eval_split(&self, left: &[SqlValue], right: &[SqlValue]) -> bool {
        let (a, b) = (self.lhs.value(left, right), self.rhs.value(left, right));
        match a.sql_cmp(b) {
            None => false,
            Some(ord) => match self.op {
                CmpOp::Eq => ord.is_eq(),
                CmpOp::Ne => !ord.is_eq(),
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
            },
        }
    }
}

/// A per-row computed output (see [`Plan::Compute`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ComputeExpr {
    /// Pass an input column through.
    Col(usize),
    /// A constant.
    Lit(SqlValue),
    /// `prefix ‖ input[col]` rendered as `Text` (IRI-template
    /// concatenation); a NULL input stays NULL.
    Concat {
        /// Literal prefix.
        prefix: String,
        /// Input column position.
        col: usize,
    },
}

impl ComputeExpr {
    /// Evaluates against an input row.
    pub fn eval(&self, row: &[SqlValue]) -> SqlValue {
        match self {
            ComputeExpr::Col(i) => row[*i].clone(),
            ComputeExpr::Lit(v) => v.clone(),
            ComputeExpr::Concat { prefix, col } => match &row[*col] {
                SqlValue::Null => SqlValue::Null,
                v => SqlValue::Text(format!("{prefix}{v}")),
            },
        }
    }
}

/// A plan node. Every node produces rows with a fixed arity; output
/// column names live only at the root (in [`PlannedQuery`]).
#[derive(Debug, Clone)]
pub enum Plan {
    /// Table scan with pushed-down predicates (positions are relative to
    /// the table row) and an optional index-equality access path.
    Scan {
        /// Table name.
        table: String,
        /// Pushed single-table predicates.
        pushed: Vec<CompiledCmp>,
        /// `(column position, literal)` equality served by a hash index.
        index_eq: Option<(usize, SqlValue)>,
        /// Table arity (for schema bookkeeping).
        arity: usize,
    },
    /// Index nested-loop join: for each left row, probes `table`'s hash
    /// index on `right_col` with the left row's `left_key` value (a NULL
    /// key never joins); output = left row ++ table row.
    IndexJoin {
        /// Left (outer) input.
        left: Box<Plan>,
        /// Probed table name.
        table: String,
        /// Probe key position in the left output.
        left_key: usize,
        /// Indexed column position in the table row.
        right_col: usize,
        /// Single-table predicates over the fetched table row.
        pushed: Vec<CompiledCmp>,
        /// Residual predicates over the concatenated row.
        residual: Vec<CompiledCmp>,
        /// Table arity (for schema bookkeeping).
        arity: usize,
    },
    /// Hash equi-join; output = left row ++ right row.
    HashJoin {
        /// Left (probe) input.
        left: Box<Plan>,
        /// Right (build) input.
        right: Box<Plan>,
        /// Key positions in the left output.
        left_keys: Vec<usize>,
        /// Key positions in the right output.
        right_keys: Vec<usize>,
        /// Residual predicates over the concatenated row.
        residual: Vec<CompiledCmp>,
    },
    /// Residual filter.
    Filter {
        /// Input.
        input: Box<Plan>,
        /// Conjunctive predicates.
        predicates: Vec<CompiledCmp>,
    },
    /// Projection to the given input positions.
    Project {
        /// Input.
        input: Box<Plan>,
        /// Input positions to keep, in output order.
        cols: Vec<usize>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input.
        input: Box<Plan>,
    },
    /// Set union of equal-arity inputs (`all` keeps duplicates).
    Union {
        /// Inputs.
        inputs: Vec<Plan>,
        /// UNION ALL?
        all: bool,
    },
    /// Sort by `(position, ascending)` keys.
    Sort {
        /// Input.
        input: Box<Plan>,
        /// Sort keys.
        keys: Vec<(usize, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input.
        input: Box<Plan>,
        /// Maximum number of rows.
        n: usize,
    },
    /// CTE-like shared subplan (`WITH v AS (…)`): every `SharedScan`
    /// carrying the same `id` within one statement execution evaluates
    /// its input once and reuses the materialized rows. Callers must
    /// give distinct ids to distinct subplans — the id, not the input
    /// tree, is the cache key.
    SharedScan {
        /// Statement-scoped intermediate id.
        id: usize,
        /// The shared subplan.
        input: Box<Plan>,
    },
    /// Computed projection: one output value per expression.
    Compute {
        /// Input.
        input: Box<Plan>,
        /// Output expressions, in output order.
        exprs: Vec<ComputeExpr>,
    },
}

/// A planned query: the plan tree plus output column names.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// Root plan node.
    pub plan: Plan,
    /// Output column names.
    pub columns: Vec<String>,
}

/// Resolves a column reference against `(alias, column name)` slots.
fn resolve(cols: &[(&str, &str)], c: &ColRef) -> Result<usize, SqlError> {
    let mut found = None;
    for (i, (alias, name)) in cols.iter().enumerate() {
        if *name == c.column && c.qualifier.as_deref().is_none_or(|q| q == *alias) {
            if found.is_some() {
                return Err(SqlError::new(format!("ambiguous column `{c}`")));
            }
            found = Some(i);
        }
    }
    found.ok_or_else(|| SqlError::new(format!("unknown column `{c}`")))
}

fn compile_cmp(cols: &[(&str, &str)], cmp: &Comparison) -> Result<CompiledCmp, SqlError> {
    let side = |o: &Operand| -> Result<Source, SqlError> {
        Ok(match o {
            Operand::Col(c) => Source::Col(resolve(cols, c)?),
            Operand::Lit(v) => Source::Lit(v.clone()),
        })
    };
    Ok(CompiledCmp {
        lhs: side(&cmp.lhs)?,
        op: cmp.op,
        rhs: side(&cmp.rhs)?,
    })
}

/// A comparison with positions shifted through `map`.
fn remap(c: &CompiledCmp, map: impl Fn(usize) -> usize) -> CompiledCmp {
    let side = |s: &Source| match s {
        Source::Col(i) => Source::Col(map(*i)),
        Source::Lit(v) => Source::Lit(v.clone()),
    };
    CompiledCmp {
        lhs: side(&c.lhs),
        op: c.op,
        rhs: side(&c.rhs),
    }
}

/// A pooled condition touching two tables, positions in the written
/// row.
struct JoinCond {
    cmp: CompiledCmp,
    tables: [usize; 2],
}

impl JoinCond {
    /// The `(own column, other table's column)` pair when this is an
    /// equality between a column of `t` and a column of a table in
    /// `joined`.
    fn equi_key(&self, t: usize, joined: &[bool]) -> Option<(usize, usize)> {
        let (Source::Col(a), CmpOp::Eq, Source::Col(b)) =
            (&self.cmp.lhs, self.cmp.op, &self.cmp.rhs)
        else {
            return None;
        };
        match self.tables {
            [x, y] if x == t && joined[y] => Some((*a, *b)),
            [x, y] if y == t && joined[x] => Some((*b, *a)),
            _ => None,
        }
    }
}

fn plan_core(db: &Database, core: &SelectCore) -> Result<(Plan, Vec<String>), SqlError> {
    let refs: Vec<&TableRef> = std::iter::once(&core.from)
        .chain(core.joins.iter().map(|j| &j.table))
        .collect();
    for (i, r) in refs.iter().enumerate() {
        if refs[..i].iter().any(|p| p.alias == r.alias) {
            return Err(SqlError::new(format!("duplicate alias `{}`", r.alias)));
        }
    }
    let tables = refs
        .iter()
        .map(|r| db.table(&r.table))
        .collect::<Result<Vec<_>, _>>()?;
    // The written row `FROM ++ JOIN 1 ++ JOIN 2 …`: every column's
    // `(alias, name)`, and each table's offset in it.
    let mut cols: Vec<(&str, &str)> = Vec::new();
    let mut offsets = Vec::with_capacity(refs.len());
    for (r, t) in refs.iter().zip(&tables) {
        offsets.push(cols.len());
        cols.extend(
            t.columns()
                .iter()
                .map(|c| (r.alias.as_str(), c.name.as_str())),
        );
    }
    let table_of = |p: usize| offsets.partition_point(|&o| o <= p) - 1;
    let n = refs.len();

    // Pool the conditions. Each ON clause resolves in its written scope
    // (the tables up to its own JOIN), so naming a later table fails as
    // written; WHERE sees every table. Positions index the written row.
    let mut pool: Vec<CompiledCmp> = Vec::new();
    for (k, join) in core.joins.iter().enumerate() {
        let scope = &cols[..offsets.get(k + 2).copied().unwrap_or(cols.len())];
        for cmp in &join.on {
            pool.push(compile_cmp(scope, cmp)?);
        }
    }
    for cmp in &core.filter {
        pool.push(compile_cmp(&cols, cmp)?);
    }
    let mut pushed: Vec<Vec<CompiledCmp>> = vec![Vec::new(); n];
    let mut joins: Vec<JoinCond> = Vec::new();
    let mut constant: Vec<CompiledCmp> = Vec::new();
    for cmp in pool {
        let touched = |s: &Source| match s {
            Source::Col(p) => Some(table_of(*p)),
            Source::Lit(_) => None,
        };
        match (touched(&cmp.lhs), touched(&cmp.rhs)) {
            (None, None) => constant.push(cmp),
            (Some(a), Some(b)) if a != b => joins.push(JoinCond {
                cmp,
                tables: [a, b],
            }),
            (Some(t), _) | (_, Some(t)) => {
                let base = offsets[t];
                pushed[t].push(remap(&cmp, |p| p - base));
            }
        }
    }

    // Build a left-deep tree, starting from the most selective scan and
    // then adding a table linked to the joined set by an equi-join, a
    // probe-able one first. `joined_at[p]` is the position of written
    // column `p` in the joined row.
    let index_eq: Vec<Option<usize>> = (0..n)
        .map(|t| index_eq_pos(tables[t], &pushed[t]))
        .collect();
    let rank: Vec<u8> = (0..n)
        .map(|t| match (index_eq[t], pushed[t].is_empty()) {
            (Some(_), _) => 0,
            (None, false) => 1,
            (None, true) => 2,
        })
        .collect();
    let mut joined = vec![false; n];
    let mut joined_at = vec![0usize; cols.len()];
    let mut width = 0usize;
    let mut plan: Option<Plan> = None;
    while let Some(t) = (0..n).filter(|&t| !joined[t]).min_by_key(|&t| {
        let keys = || joins.iter().filter_map(|j| j.equi_key(t, &joined));
        let probe = keys().any(|(own, _)| tables[t].has_index(own - offsets[t]));
        (keys().next().is_none(), !probe, rank[t], t)
    }) {
        let table = tables[t];
        let base = offsets[t];
        let arity = table.columns().len();
        for c in 0..arity {
            joined_at[base + c] = width + c;
        }
        let mut own = std::mem::take(&mut pushed[t]);
        let Some(left) = plan.take() else {
            own.append(&mut constant);
            plan = Some(scan(&refs[t].table, table, own, index_eq[t]));
            joined[t] = true;
            width = arity;
            continue;
        };
        // The conditions whose last table is `t`.
        let (ready, rest): (Vec<JoinCond>, Vec<JoinCond>) = std::mem::take(&mut joins)
            .into_iter()
            .partition(|j| j.tables.iter().all(|&x| x == t || joined[x]));
        joins = rest;
        let mut keys: Vec<(usize, usize)> = Vec::new();
        let mut residual: Vec<CompiledCmp> = Vec::new();
        for j in ready {
            match j.equi_key(t, &joined) {
                Some((inner, outer)) => keys.push((joined_at[outer], inner - base)),
                None => residual.push(remap(&j.cmp, |p| joined_at[p])),
            }
        }
        let probe = keys.iter().position(|&(_, inner)| table.has_index(inner));
        plan = Some(match probe {
            Some(i) => {
                let (left_key, right_col) = keys.remove(i);
                residual.extend(keys.into_iter().map(|(l, r)| CompiledCmp {
                    lhs: Source::Col(l),
                    op: CmpOp::Eq,
                    rhs: Source::Col(width + r),
                }));
                Plan::IndexJoin {
                    left: Box::new(left),
                    table: refs[t].table.clone(),
                    left_key,
                    right_col,
                    pushed: own,
                    residual,
                    arity,
                }
            }
            None => Plan::HashJoin {
                left: Box::new(left),
                right: Box::new(scan(&refs[t].table, table, own, index_eq[t])),
                left_keys: keys.iter().map(|&(l, _)| l).collect(),
                right_keys: keys.iter().map(|&(_, r)| r).collect(),
                residual,
            },
        });
        joined[t] = true;
        width += arity;
    }
    let mut plan = plan.expect("FROM names at least one table");

    // Projection, resolved in the written scope and mapped onto the
    // joined row: `SELECT *` keeps the written column order.
    let (cols_out, names): (Vec<usize>, Vec<String>) = if core.items.is_empty() {
        (
            joined_at.clone(),
            cols.iter().map(|(_, name)| (*name).to_owned()).collect(),
        )
    } else {
        let mut out = Vec::with_capacity(core.items.len());
        let mut names = Vec::with_capacity(core.items.len());
        for item in &core.items {
            out.push(joined_at[resolve(&cols, &item.col)?]);
            names.push(
                item.alias
                    .clone()
                    .unwrap_or_else(|| item.col.column.clone()),
            );
        }
        (out, names)
    };
    plan = Plan::Project {
        input: Box::new(plan),
        cols: cols_out,
    };
    if core.distinct {
        plan = Plan::Distinct {
            input: Box::new(plan),
        };
    }
    Ok((plan, names))
}

/// `(column, literal)` of a `column = literal` comparison.
fn col_eq_lit(c: &CompiledCmp) -> Option<(usize, &SqlValue)> {
    match (&c.lhs, c.op, &c.rhs) {
        (Source::Col(i), CmpOp::Eq, Source::Lit(v))
        | (Source::Lit(v), CmpOp::Eq, Source::Col(i)) => Some((*i, v)),
        _ => None,
    }
}

/// The first pushed `column = literal` that an index of `table` can
/// serve. A NULL literal never qualifies: the index holds NULL keys,
/// but `= NULL` is never true.
fn index_eq_pos(table: &Table, pushed: &[CompiledCmp]) -> Option<usize> {
    pushed
        .iter()
        .position(|c| col_eq_lit(c).is_some_and(|(i, v)| !v.is_null() && table.has_index(i)))
}

/// A scan of `table`, moving the pushed filter at `index_eq` into the
/// index access path.
fn scan(name: &str, table: &Table, mut pushed: Vec<CompiledCmp>, index_eq: Option<usize>) -> Plan {
    let index_eq = index_eq.and_then(|i| {
        let (col, v) = col_eq_lit(&pushed[i])?;
        let access = (col, v.clone());
        pushed.remove(i);
        Some(access)
    });
    Plan::Scan {
        table: name.to_owned(),
        pushed,
        index_eq,
        arity: table.columns().len(),
    }
}

/// Plans a full SELECT query against the database catalog.
pub fn plan_query(db: &Database, q: &SelectQuery) -> Result<PlannedQuery, SqlError> {
    let (mut plan, columns) = plan_core(db, &q.first)?;
    if !q.rest.is_empty() {
        let mut inputs = vec![plan];
        let mut dedup = false;
        for (all, core) in &q.rest {
            let (p, names) = plan_core(db, core)?;
            if names.len() != columns.len() {
                return Err(SqlError::new(format!(
                    "UNION arity mismatch: {} vs {}",
                    columns.len(),
                    names.len()
                )));
            }
            dedup |= !all;
            inputs.push(p);
        }
        plan = Plan::Union {
            inputs,
            all: !dedup,
        };
    }
    if !q.order_by.is_empty() {
        let mut keys = Vec::new();
        for k in &q.order_by {
            let pos = columns
                .iter()
                .position(|c| c == &k.column)
                .ok_or_else(|| SqlError::new(format!("ORDER BY unknown column `{}`", k.column)))?;
            keys.push((pos, k.asc));
        }
        plan = Plan::Sort {
            input: Box::new(plan),
            keys,
        };
    }
    if let Some(n) = q.limit {
        plan = Plan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    Ok(PlannedQuery { plan, columns })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_counted, ExecStats};
    use crate::sql::parser::parse_query;
    use crate::value::ColumnType;
    use obda_genont::Cell;

    /// The university sources at scale 50, each table indexed on its
    /// first column (as the OBDA demo loads them).
    fn university() -> Database {
        let scenario = obda_genont::university_scenario(50, 42);
        let mut db = Database::new();
        for t in &scenario.tables {
            let ty = |i: usize| match t.rows.first().map(|r| &r[i]) {
                Some(Cell::Text(_)) => ColumnType::Text,
                _ => ColumnType::Int,
            };
            let columns = t
                .columns
                .iter()
                .enumerate()
                .map(|(i, c)| (c.clone(), ty(i)));
            db.create_table(&t.name, columns.collect()).unwrap();
            for row in &t.rows {
                let row = row.iter().map(|c| match c {
                    Cell::Int(i) => SqlValue::Int(*i),
                    Cell::Text(s) => SqlValue::Text(s.clone()),
                });
                db.insert(&t.name, row.collect()).unwrap();
            }
            db.create_index(&t.name, &t.columns[0]).unwrap();
        }
        db
    }

    fn plan(db: &Database, sql: &str) -> PlannedQuery {
        plan_query(db, &parse_query(sql).unwrap()).unwrap()
    }

    fn run_counted(db: &Database, pq: &PlannedQuery) -> (usize, u64) {
        let mut stats = ExecStats::default();
        let rs = execute_counted(db, pq, &mut stats).unwrap();
        (rs.rows.len(), stats.rows_scanned)
    }

    /// The unfolded SQL of `q(x) :- Student(x), takesCourse(x, "course/7")`
    /// after PerfectRef and pruning: `takesCourse(x, y), takesCourse(x,
    /// "course/7")`.
    const STUDENT_O: &str = "SELECT m1_TB_ENROLL.sid AS o0 FROM TB_ENROLL m1_TB_ENROLL \
        JOIN TB_ENROLL m2_TB_ENROLL ON m2_TB_ENROLL.cid = 7 AND m1_TB_ENROLL.sid = m2_TB_ENROLL.sid";

    /// The unfolded SQL of `q(y, n) :- takesCourse("person/1", y),
    /// courseTitle(y, n)`.
    const TITLE_JOIN_S: &str = "SELECT m1_TB_ENROLL.cid AS o0, m2_TB_COURSE.title AS o1 \
        FROM TB_ENROLL m1_TB_ENROLL JOIN TB_COURSE m2_TB_COURSE \
        ON m1_TB_ENROLL.cid = m2_TB_COURSE.cid WHERE m1_TB_ENROLL.sid = 1";

    #[test]
    fn student_lookup_filters_one_side_and_probes_the_other() {
        let db = university();
        let pq = plan(&db, STUDENT_O);
        // The ON constant runs inside the m2 scan; m1 joins by its `sid`
        // index. Joined row: m2.sid, m2.cid, m1.sid, m1.cid.
        let Plan::Project { input, cols } = &pq.plan else {
            panic!("{:?}", pq.plan)
        };
        assert_eq!(cols, &[2]);
        let Plan::IndexJoin {
            left,
            table,
            left_key: 0,
            right_col: 0,
            pushed,
            residual,
            ..
        } = &**input
        else {
            panic!("{input:?}")
        };
        assert_eq!(table, "TB_ENROLL");
        assert!(pushed.is_empty() && residual.is_empty());
        let Plan::Scan {
            table,
            pushed,
            index_eq: None,
            ..
        } = &**left
        else {
            panic!("{left:?}")
        };
        assert_eq!(table, "TB_ENROLL");
        assert_eq!(
            pushed,
            &[CompiledCmp {
                lhs: Source::Col(1),
                op: CmpOp::Eq,
                rhs: Source::Lit(SqlValue::Int(7)),
            }]
        );
        // A full scan of TB_ENROLL's 3,972 rows, then 16 rows fetched by
        // the probes, every one of them an answer row.
        assert_eq!(db.table("TB_ENROLL").unwrap().len(), 3_972);
        assert_eq!(run_counted(&db, &pq), (16, 3_988));
    }

    #[test]
    fn title_lookup_starts_at_the_index_and_probes_the_course_index() {
        let db = university();
        let pq = plan(&db, TITLE_JOIN_S);
        // Joined row: m1.sid, m1.cid, m2.cid, m2.title.
        let Plan::Project { input, cols } = &pq.plan else {
            panic!("{:?}", pq.plan)
        };
        assert_eq!(cols, &[1, 3]);
        let Plan::IndexJoin {
            left,
            table,
            left_key: 1,
            right_col: 0,
            ..
        } = &**input
        else {
            panic!("{input:?}")
        };
        assert_eq!(table, "TB_COURSE");
        let Plan::Scan {
            pushed, index_eq, ..
        } = &**left
        else {
            panic!("{left:?}")
        };
        assert!(pushed.is_empty());
        assert_eq!(index_eq, &Some((0, SqlValue::Int(1))));
        // One enrollment through the `sid` index, one course probe.
        assert_eq!(run_counted(&db, &pq), (1, 2));
    }

    /// `t(id, name)` and `u(tid, tag)` with NULL keys on both sides.
    fn small(indexed: bool) -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (NULL, 'n')")
            .unwrap();
        db.execute("CREATE TABLE u (tid INT, tag TEXT)").unwrap();
        db.execute("INSERT INTO u VALUES (2, 'x'), (2, 'y'), (3, 'z'), (NULL, 'n')")
            .unwrap();
        if indexed {
            db.create_index("t", "id").unwrap();
            db.create_index("u", "tid").unwrap();
        }
        db
    }

    fn text(s: &str) -> SqlValue {
        SqlValue::Text(s.into())
    }

    #[test]
    fn index_scan_planned_with_an_index_still_filters_without_it() {
        let pq = plan(&small(true), "SELECT name FROM t WHERE id = 2");
        assert!(matches!(
            &pq.plan,
            Plan::Project { input, .. } if matches!(&**input, Plan::Scan { index_eq: Some(_), .. })
        ));
        let mut stats = ExecStats::default();
        let rs = execute_counted(&small(false), &pq, &mut stats).unwrap();
        assert_eq!(rs.rows, vec![vec![text("b")]]);
        assert_eq!(stats.rows_scanned, 4);
    }

    #[test]
    fn index_join_planned_with_an_index_still_joins_without_it() {
        let sql = "SELECT t.name, u.tag FROM t JOIN u ON t.id = u.tid";
        let pq = plan(&small(true), sql);
        assert!(matches!(
            &pq.plan,
            Plan::Project { input, .. } if matches!(&**input, Plan::IndexJoin { .. })
        ));
        let expected = vec![
            vec![text("b"), text("x")],
            vec![text("b"), text("y")],
            vec![text("c"), text("z")],
        ];
        for db in [small(true), small(false)] {
            let mut rows = crate::exec::execute(&db, &pq).unwrap().rows;
            rows.sort();
            assert_eq!(rows, expected);
        }
    }

    #[test]
    fn equality_with_null_never_matches_through_an_index() {
        let db = small(true);
        let r = db.query("SELECT name FROM t WHERE id = NULL").unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn select_star_keeps_the_written_column_order() {
        let db = small(true);
        let pq = plan(&db, "SELECT * FROM u JOIN t ON u.tid = t.id WHERE t.id = 2");
        // `t` has the index equality, so it is scanned first.
        let Plan::Project { input, .. } = &pq.plan else {
            panic!("{:?}", pq.plan)
        };
        assert!(matches!(
            &**input,
            Plan::IndexJoin { left, table, .. }
                if table == "u" && matches!(&**left, Plan::Scan { table, .. } if table == "t")
        ));
        assert_eq!(pq.columns, vec!["tid", "tag", "id", "name"]);
        let mut rows = crate::exec::execute(&db, &pq).unwrap().rows;
        rows.sort();
        let row = |tag: &str| vec![SqlValue::Int(2), text(tag), SqlValue::Int(2), text("b")];
        assert_eq!(rows, vec![row("x"), row("y")]);
    }

    #[test]
    fn conditions_resolve_in_their_written_scope() {
        let db = small(true);
        // The first ON clause cannot see `v`, joined after it.
        let early = "SELECT t.name FROM t JOIN u ON t.id = v.tid JOIN u v ON v.tid = u.tid";
        let err = db.query(early).unwrap_err();
        assert!(err.message().contains("unknown column `v.tid`"), "{err}");
        let late = "SELECT t.name FROM t JOIN u ON t.id = u.tid JOIN u v ON v.tid = u.tid";
        assert_eq!(db.query(late).unwrap().rows.len(), 5);
        // A qualifier naming no table fails wherever it is written.
        assert!(db.query("SELECT name FROM t WHERE zz.id = 1").is_err());
        assert!(db.query("SELECT name FROM t JOIN u ON zz.id = 1").is_err());
    }
}
