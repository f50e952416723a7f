//! Property-based tests of the SQL engine: planner transformations
//! (filter pushdown, index access paths, join reordering, index probes)
//! must never change results, and the algebra must obey its laws against
//! a naive reference evaluation.

use obda_sqlstore::sql::ast::CmpOp;
use obda_sqlstore::{Database, Row, SqlValue};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

prop_compose! {
    fn arb_row()(a in -5i64..5, b in -5i64..5, s in 0..4usize) -> (i64, i64, String) {
        (a, b, format!("s{s}"))
    }
}

fn db_with(rows: &[(i64, i64, String)], rows2: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT, b INT, s TEXT)").unwrap();
    db.execute("CREATE TABLE u (a INT, c INT)").unwrap();
    for (a, b, s) in rows {
        db.insert(
            "t",
            vec![
                SqlValue::Int(*a),
                SqlValue::Int(*b),
                SqlValue::Text(s.clone()),
            ],
        )
        .unwrap();
    }
    for (a, c) in rows2 {
        db.insert("u", vec![SqlValue::Int(*a), SqlValue::Int(*c)])
            .unwrap();
    }
    db
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

proptest! {
    #[test]
    fn where_filter_equals_manual_filter(
        rows in proptest::collection::vec(arb_row(), 0..30),
        threshold in -5i64..5,
    ) {
        let db = db_with(&rows, &[]);
        let filtered = db
            .query(&format!("SELECT a, b FROM t WHERE a >= {threshold}"))
            .unwrap();
        let all = db.query("SELECT a, b FROM t").unwrap();
        let manual: Vec<Row> = all
            .rows
            .into_iter()
            .filter(|r| matches!(r[0], SqlValue::Int(v) if v >= threshold))
            .collect();
        prop_assert_eq!(sorted(filtered.rows), sorted(manual));
    }

    #[test]
    fn index_never_changes_results(
        rows in proptest::collection::vec(arb_row(), 0..30),
        key in -5i64..5,
    ) {
        let mut db = db_with(&rows, &[]);
        let q = format!("SELECT b, s FROM t WHERE a = {key}");
        let plain = db.query(&q).unwrap();
        db.create_index("t", "a").unwrap();
        let indexed = db.query(&q).unwrap();
        prop_assert_eq!(sorted(plain.rows), sorted(indexed.rows));
    }

    #[test]
    fn hash_join_matches_nested_loop_reference(
        rows in proptest::collection::vec(arb_row(), 0..20),
        rows2 in proptest::collection::vec((-5i64..5, -5i64..5), 0..20),
    ) {
        let db = db_with(&rows, &rows2);
        let joined = db
            .query("SELECT t.b, u.c FROM t JOIN u ON t.a = u.a")
            .unwrap();
        // Naive reference.
        let mut reference: Vec<Row> = Vec::new();
        for (a, b, _) in &rows {
            for (a2, c) in &rows2 {
                if a == a2 {
                    reference.push(vec![SqlValue::Int(*b), SqlValue::Int(*c)]);
                }
            }
        }
        prop_assert_eq!(sorted(joined.rows), sorted(reference));
    }

    #[test]
    fn union_is_commutative_and_dedups(
        rows in proptest::collection::vec(arb_row(), 0..25),
        k1 in -5i64..5,
        k2 in -5i64..5,
    ) {
        let db = db_with(&rows, &[]);
        let ab = db
            .query(&format!(
                "SELECT a FROM t WHERE b = {k1} UNION SELECT a FROM t WHERE b = {k2}"
            ))
            .unwrap();
        let ba = db
            .query(&format!(
                "SELECT a FROM t WHERE b = {k2} UNION SELECT a FROM t WHERE b = {k1}"
            ))
            .unwrap();
        prop_assert_eq!(sorted(ab.rows.clone()), sorted(ba.rows));
        // UNION result is duplicate-free.
        let mut dedup = ab.rows.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(sorted(ab.rows), dedup);
    }

    #[test]
    fn union_all_counts_add_up(
        rows in proptest::collection::vec(arb_row(), 0..25),
        k in -5i64..5,
    ) {
        let db = db_with(&rows, &[]);
        let half = db
            .query(&format!("SELECT a FROM t WHERE b = {k}"))
            .unwrap()
            .rows
            .len();
        let both = db
            .query(&format!(
                "SELECT a FROM t WHERE b = {k} UNION ALL SELECT a FROM t WHERE b = {k}"
            ))
            .unwrap()
            .rows
            .len();
        prop_assert_eq!(both, 2 * half);
    }

    #[test]
    fn order_by_sorts_and_limit_prefixes(
        rows in proptest::collection::vec(arb_row(), 0..25),
        limit in 0usize..10,
    ) {
        let db = db_with(&rows, &[]);
        let all = db.query("SELECT a FROM t ORDER BY a").unwrap();
        for w in all.rows.windows(2) {
            prop_assert!(w[0][0] <= w[1][0]);
        }
        let limited = db
            .query(&format!("SELECT a FROM t ORDER BY a LIMIT {limit}"))
            .unwrap();
        prop_assert_eq!(&limited.rows[..], &all.rows[..limit.min(all.rows.len())]);
    }

    #[test]
    fn distinct_removes_exactly_duplicates(
        rows in proptest::collection::vec(arb_row(), 0..25),
    ) {
        let db = db_with(&rows, &[]);
        let distinct = db.query("SELECT DISTINCT a FROM t").unwrap();
        let mut expected: Vec<i64> = rows.iter().map(|(a, _, _)| *a).collect();
        expected.sort_unstable();
        expected.dedup();
        let mut got: Vec<i64> = distinct
            .rows
            .iter()
            .map(|r| match r[0] {
                SqlValue::Int(v) => v,
                _ => unreachable!(),
            })
            .collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}

/// Schemas of the join property: `t.s` and `w.s` are TEXT, so joining
/// either with an INT column is a key-type mismatch that never matches.
const SCHEMAS: [(&str, &[(&str, bool)]); 3] = [
    ("t", &[("a", true), ("b", true), ("s", false)]),
    ("u", &[("a", true), ("c", true)]),
    ("w", &[("s", false), ("a", true)]),
];

/// A small value of a column's type; one in six is NULL.
fn small_value(rng: &mut TestRng, int: bool) -> SqlValue {
    match (rng.gen_below(6), int) {
        (0, _) => SqlValue::Null,
        (_, true) => SqlValue::Int(rng.gen_below(4) as i64 - 1),
        (_, false) => SqlValue::Text(format!("s{}", rng.gen_below(3))),
    }
}

/// A comparison operand: `(table ref, column)` or a literal.
#[derive(Debug, Clone)]
enum Opnd {
    Col(usize, usize),
    Lit(SqlValue),
}

/// One random inner join of 2–3 table refs over random data.
#[derive(Debug, Clone)]
struct JoinCase {
    rows: Vec<Vec<Row>>,
    /// `(table, column)` pairs with a hash index.
    indexed: Vec<(usize, usize)>,
    /// The table of each ref, in written order; aliases are `x0`, `x1`, ….
    refs: Vec<usize>,
    /// Conditions with their placement: `None` for WHERE, `Some(k)` for
    /// the ON clause of JOIN `k` (the ref `k + 1`).
    conds: Vec<(Opnd, CmpOp, Opnd, Option<usize>)>,
    /// Projected `(ref, column)`s; empty means `*`.
    items: Vec<(usize, usize)>,
}

impl JoinCase {
    fn operand(&self, o: &Opnd) -> String {
        match o {
            Opnd::Col(r, c) => format!("x{r}.{}", SCHEMAS[self.refs[*r]].1[*c].0),
            Opnd::Lit(v) => v.literal(),
        }
    }

    fn cond_sql(&self, (l, op, r, _): &(Opnd, CmpOp, Opnd, Option<usize>)) -> String {
        let op = match op {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        format!("{} {op} {}", self.operand(l), self.operand(r))
    }

    fn sql(&self) -> String {
        let items = if self.items.is_empty() {
            "*".to_owned()
        } else {
            let cols: Vec<String> = self
                .items
                .iter()
                .map(|&(r, c)| self.operand(&Opnd::Col(r, c)))
                .collect();
            cols.join(", ")
        };
        let placed = |at: Option<usize>| -> Vec<String> {
            self.conds
                .iter()
                .filter(|c| c.3 == at)
                .map(|c| self.cond_sql(c))
                .collect()
        };
        let mut sql = format!("SELECT {items} FROM {} x0", SCHEMAS[self.refs[0]].0);
        for (k, &t) in self.refs.iter().enumerate().skip(1) {
            let on = placed(Some(k - 1));
            let on = if on.is_empty() {
                "1 = 1".to_owned()
            } else {
                on.join(" AND ")
            };
            sql.push_str(&format!(" JOIN {} x{k} ON {on}", SCHEMAS[t].0));
        }
        let filter = placed(None);
        if !filter.is_empty() {
            sql.push_str(&format!(" WHERE {}", filter.join(" AND ")));
        }
        sql
    }

    /// Cross product of the refs in written order, filtered by every
    /// condition under SQL comparison semantics, then projected.
    fn reference(&self) -> Vec<Row> {
        let mut product: Vec<Vec<&Row>> = vec![Vec::new()];
        for &t in &self.refs {
            product = product
                .into_iter()
                .flat_map(|prefix| {
                    self.rows[t].iter().map(move |r| {
                        let mut p = prefix.clone();
                        p.push(r);
                        p
                    })
                })
                .collect();
        }
        let value = |combo: &[&Row], o: &Opnd| -> SqlValue {
            match o {
                Opnd::Col(r, c) => combo[*r][*c].clone(),
                Opnd::Lit(v) => v.clone(),
            }
        };
        product
            .into_iter()
            .filter(|combo| {
                self.conds.iter().all(|(l, op, r, _)| {
                    match value(combo, l).sql_cmp(&value(combo, r)) {
                        None => false,
                        Some(ord) => match op {
                            CmpOp::Eq => ord.is_eq(),
                            CmpOp::Ne => !ord.is_eq(),
                            CmpOp::Lt => ord.is_lt(),
                            CmpOp::Le => ord.is_le(),
                            CmpOp::Gt => ord.is_gt(),
                            CmpOp::Ge => ord.is_ge(),
                        },
                    }
                })
            })
            .map(|combo| {
                if self.items.is_empty() {
                    combo.iter().flat_map(|r| r.iter().cloned()).collect()
                } else {
                    self.items
                        .iter()
                        .map(|&(r, c)| combo[r][c].clone())
                        .collect()
                }
            })
            .collect()
    }

    fn database(&self) -> Database {
        let mut db = Database::new();
        for (t, (name, cols)) in SCHEMAS.iter().enumerate() {
            let defs: Vec<String> = cols
                .iter()
                .map(|(c, int)| format!("{c} {}", if *int { "INT" } else { "TEXT" }))
                .collect();
            db.execute(&format!("CREATE TABLE {name} ({})", defs.join(", ")))
                .unwrap();
            for row in &self.rows[t] {
                db.insert(name, row.clone()).unwrap();
            }
        }
        for &(t, c) in &self.indexed {
            db.create_index(SCHEMAS[t].0, SCHEMAS[t].1[c].0).unwrap();
        }
        db
    }
}

fn arb_join_case() -> BoxedStrategy<JoinCase> {
    BoxedStrategy::from_fn(|rng| {
        let rows = SCHEMAS
            .iter()
            .map(|(_, cols)| {
                (0..rng.gen_below(7))
                    .map(|_| cols.iter().map(|(_, int)| small_value(rng, *int)).collect())
                    .collect()
            })
            .collect();
        let indexed = SCHEMAS
            .iter()
            .enumerate()
            .flat_map(|(t, (_, cols))| (0..cols.len()).map(move |c| (t, c)))
            .filter(|_| rng.gen_below(2) == 0)
            .collect();
        let refs: Vec<usize> = (0..2 + rng.gen_below(2))
            .map(|_| rng.gen_below(3) as usize)
            .collect();
        let col_of = |rng: &mut TestRng, r: usize| {
            (r, rng.gen_below(SCHEMAS[refs[r]].1.len() as u64) as usize)
        };
        let col = |rng: &mut TestRng| {
            let r = rng.gen_below(refs.len() as u64) as usize;
            col_of(rng, r)
        };
        let opnd = |(r, c)| Opnd::Col(r, c);
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge];
        // Most refs join an earlier one on a column equality: a join key,
        // a self-join key or a key-type mismatch.
        let mut conds: Vec<(Opnd, CmpOp, Opnd)> = Vec::new();
        for r in 1..refs.len() {
            if rng.gen_below(4) > 0 {
                let earlier = rng.gen_below(r as u64) as usize;
                conds.push((opnd(col_of(rng, r)), CmpOp::Eq, opnd(col_of(rng, earlier))));
            }
        }
        for _ in 0..rng.gen_below(4) {
            conds.push(match rng.gen_below(8) {
                // Any two columns, of one ref or two.
                0..=2 => (opnd(col(rng)), CmpOp::Eq, opnd(col(rng))),
                // Column against a constant.
                3..=6 => {
                    let int = rng.gen_below(2) == 0;
                    let op = ops[rng.gen_below(4) as usize];
                    (opnd(col(rng)), op, Opnd::Lit(small_value(rng, int)))
                }
                // Constant against constant.
                _ => (
                    Opnd::Lit(SqlValue::Int(1)),
                    ops[rng.gen_below(4) as usize],
                    Opnd::Lit(SqlValue::Int(rng.gen_below(2) as i64)),
                ),
            });
        }
        // WHERE, or the ON clause of any join whose written scope covers
        // every ref the condition names.
        let joins = refs.len() - 1;
        let conds = conds
            .into_iter()
            .map(|(l, op, r)| {
                let last = [&l, &r]
                    .iter()
                    .filter_map(|o| match o {
                        Opnd::Col(r, _) => Some(*r),
                        Opnd::Lit(_) => None,
                    })
                    .max()
                    .unwrap_or(0);
                let first_join = last.saturating_sub(1);
                let at = match rng.gen_below((joins - first_join) as u64 + 1) as usize {
                    0 => None,
                    k => Some(first_join + k - 1),
                };
                (l, op, r, at)
            })
            .collect();
        let items = if rng.gen_below(3) == 0 {
            Vec::new()
        } else {
            (0..1 + rng.gen_below(3)).map(|_| col(rng)).collect()
        };
        JoinCase {
            rows,
            indexed,
            refs,
            conds,
            items,
        }
    })
}

proptest! {
    #[test]
    fn random_inner_joins_match_the_cross_product_reference(
        cases in proptest::collection::vec(arb_join_case(), 16),
    ) {
        for case in cases {
            let db = case.database();
            let sql = case.sql();
            let got = db.query(&sql).map_err(|e| {
                proptest::test_runner::TestCaseError::fail(format!("{sql}: {e}"))
            })?;
            prop_assert_eq!(sorted(got.rows), sorted(case.reference()), "{}", sql);
        }
    }
}
