//! Plan execution.

use std::collections::{HashMap, HashSet};

use crate::catalog::Database;
use crate::error::SqlError;
use crate::plan::{Plan, PlannedQuery};
use crate::value::{Row, SqlValue};

/// Rows plus output column names.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Renders a compact ASCII table (for examples and reports).
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &rendered {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Execution counters, filled in by [`execute_counted`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Table rows fetched by a scan or an index probe, before pushed
    /// filters — the "work done" metric the trace reports.
    pub rows_scanned: u64,
    /// `SharedScan` reuses: evaluations served from the statement-scoped
    /// intermediate cache instead of re-running the subplan.
    pub shared_scan_hits: u64,
}

/// Executes a planned query.
pub fn execute(db: &Database, pq: &PlannedQuery) -> Result<ResultSet, SqlError> {
    execute_counted(db, pq, &mut ExecStats::default())
}

/// Executes a planned query, accumulating scan counters into `stats`.
pub fn execute_counted(
    db: &Database,
    pq: &PlannedQuery,
    stats: &mut ExecStats,
) -> Result<ResultSet, SqlError> {
    // Statement-scoped cache of SharedScan intermediates: one
    // materialization per id per execution, WITH-clause style.
    let mut shared: HashMap<usize, Vec<Row>> = HashMap::new();
    Ok(ResultSet {
        columns: pq.columns.clone(),
        rows: run(db, &pq.plan, stats, &mut shared)?,
    })
}

// Process-wide scanned-rows counter, resolved once so the
// per-statement cost is one relaxed atomic add.
obda_obs::counter_handle!(fn rows_scanned_total, "sqlstore.rows_scanned");

/// Executes a planned query under a trace context: bumps the per-query
/// `rows_scanned` / `sql_statements` trace counters and the process-wide
/// `sqlstore.rows_scanned` registry counter.
pub fn execute_traced(
    db: &Database,
    pq: &PlannedQuery,
    ctx: &obda_obs::TraceCtx,
) -> Result<ResultSet, SqlError> {
    let mut stats = ExecStats::default();
    let res = execute_counted(db, pq, &mut stats);
    ctx.count("rows_scanned", stats.rows_scanned);
    ctx.count("sql_statements", 1);
    rows_scanned_total().add(stats.rows_scanned);
    res
}

/// The joined row `left ++ right`.
fn concat(left: &[SqlValue], right: &[SqlValue]) -> Row {
    let mut row = Vec::with_capacity(left.len() + right.len());
    row.extend_from_slice(left);
    row.extend_from_slice(right);
    row
}

fn run(
    db: &Database,
    plan: &Plan,
    stats: &mut ExecStats,
    shared: &mut HashMap<usize, Vec<Row>>,
) -> Result<Vec<Row>, SqlError> {
    match plan {
        Plan::Scan {
            table,
            pushed,
            index_eq,
            arity: _,
        } => {
            let t = db.table(table)?;
            let keep = |r: &Row| pushed.iter().all(|p| p.eval(r));
            let out: Vec<Row> = match index_eq {
                Some((col, value)) => match t.index_lookup(*col, value) {
                    Some(ids) => {
                        stats.rows_scanned += ids.len() as u64;
                        ids.iter()
                            .map(|&id| t.row(id))
                            .filter(|r| keep(r))
                            .cloned()
                            .collect()
                    }
                    // Planned against a catalog that had the index: the
                    // equality still filters.
                    None => {
                        stats.rows_scanned += t.len() as u64;
                        t.rows()
                            .iter()
                            .filter(|r| {
                                r[*col].sql_cmp(value).is_some_and(|o| o.is_eq()) && keep(r)
                            })
                            .cloned()
                            .collect()
                    }
                },
                None => {
                    stats.rows_scanned += t.len() as u64;
                    t.rows().iter().filter(|r| keep(r)).cloned().collect()
                }
            };
            Ok(out)
        }
        Plan::IndexJoin {
            left,
            table,
            left_key,
            right_col,
            pushed,
            residual,
            arity: _,
        } => {
            let left_rows = run(db, left, stats, shared)?;
            let t = db.table(table)?;
            // Planned against a catalog that had the index: hash the
            // column once instead.
            let adhoc: Option<HashMap<&SqlValue, Vec<u32>>> =
                (!t.has_index(*right_col)).then(|| {
                    stats.rows_scanned += t.len() as u64;
                    let mut m: HashMap<&SqlValue, Vec<u32>> = HashMap::new();
                    for (id, r) in t.rows().iter().enumerate() {
                        m.entry(&r[*right_col]).or_default().push(id as u32);
                    }
                    m
                });
            let mut out = Vec::new();
            for l in &left_rows {
                let key = &l[*left_key];
                if key.is_null() {
                    continue; // NULL never joins
                }
                let ids = match &adhoc {
                    Some(m) => m.get(key).map_or(&[][..], Vec::as_slice),
                    None => {
                        let ids = t.index_lookup(*right_col, key).unwrap_or(&[]);
                        stats.rows_scanned += ids.len() as u64;
                        ids
                    }
                };
                for &id in ids {
                    let r = t.row(id);
                    if pushed.iter().all(|p| p.eval(r))
                        && residual.iter().all(|p| p.eval_split(l, r))
                    {
                        out.push(concat(l, r));
                    }
                }
            }
            Ok(out)
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => {
            let left_rows = run(db, left, stats, shared)?;
            let right_rows = run(db, right, stats, shared)?;
            let mut out = Vec::new();
            if left_keys.is_empty() {
                // Cross join (rare; only from joins without equi-keys).
                for l in &left_rows {
                    for r in &right_rows {
                        if residual.iter().all(|p| p.eval_split(l, r)) {
                            out.push(concat(l, r));
                        }
                    }
                }
                return Ok(out);
            }
            // Build on the right side.
            let mut table: HashMap<Vec<&SqlValue>, Vec<&Row>> =
                HashMap::with_capacity(right_rows.len());
            'build: for r in &right_rows {
                let mut key = Vec::with_capacity(right_keys.len());
                for &k in right_keys {
                    if r[k].is_null() {
                        continue 'build; // NULL never joins
                    }
                    key.push(&r[k]);
                }
                table.entry(key).or_default().push(r);
            }
            let mut key = Vec::with_capacity(left_keys.len());
            'probe: for l in &left_rows {
                key.clear();
                for &k in left_keys {
                    if l[k].is_null() {
                        continue 'probe;
                    }
                    key.push(&l[k]);
                }
                if let Some(matches) = table.get(&key) {
                    for r in matches {
                        if residual.iter().all(|p| p.eval_split(l, r)) {
                            out.push(concat(l, r));
                        }
                    }
                }
            }
            Ok(out)
        }
        Plan::Filter { input, predicates } => {
            let mut rows = run(db, input, stats, shared)?;
            rows.retain(|r| predicates.iter().all(|p| p.eval(r)));
            Ok(rows)
        }
        Plan::Project { input, cols } => {
            let rows = run(db, input, stats, shared)?;
            Ok(rows
                .into_iter()
                .map(|r| cols.iter().map(|&i| r[i].clone()).collect())
                .collect())
        }
        Plan::Distinct { input } => {
            let rows = run(db, input, stats, shared)?;
            let mut seen: HashSet<Row> = HashSet::with_capacity(rows.len());
            Ok(rows
                .into_iter()
                .filter(|r| seen.insert(r.clone()))
                .collect())
        }
        Plan::Union { inputs, all } => {
            let mut out = Vec::new();
            for p in inputs {
                out.extend(run(db, p, stats, shared)?);
            }
            if !all {
                let mut seen: HashSet<Row> = HashSet::with_capacity(out.len());
                out.retain(|r| seen.insert(r.clone()));
            }
            Ok(out)
        }
        Plan::Sort { input, keys } => {
            let mut rows = run(db, input, stats, shared)?;
            rows.sort_by(|a, b| {
                for &(pos, asc) in keys {
                    let ord = a[pos].cmp(&b[pos]);
                    let ord = if asc { ord } else { ord.reverse() };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(rows)
        }
        Plan::Limit { input, n } => {
            let mut rows = run(db, input, stats, shared)?;
            rows.truncate(*n);
            Ok(rows)
        }
        Plan::SharedScan { id, input } => {
            if let Some(rows) = shared.get(id) {
                stats.shared_scan_hits += 1;
                return Ok(rows.clone());
            }
            let rows = run(db, input, stats, shared)?;
            shared.insert(*id, rows.clone());
            Ok(rows)
        }
        Plan::Compute { input, exprs } => {
            let rows = run(db, input, stats, shared)?;
            Ok(rows
                .into_iter()
                .map(|r| exprs.iter().map(|e| e.eval(&r)).collect())
                .collect())
        }
    }
}
