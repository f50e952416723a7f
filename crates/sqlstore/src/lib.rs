//! # obda-sqlstore
//!
//! A small in-memory relational engine — the data-source substrate under
//! the OBDA stack. OBDA reduces ontology queries to SQL over the sources
//! (Section 7 of the paper: "directly translatable into SQL"); this crate
//! is the engine those translations run on.
//!
//! Features: typed tables with hash indexes, a SQL subset (CREATE TABLE /
//! INSERT / SELECT with inner joins, WHERE conjunctions, UNION [ALL],
//! DISTINCT, ORDER BY, LIMIT), a planner that pools WHERE and ON
//! conditions, pushes each single-table condition into its scan and
//! orders the joins from the most selective scan, with index lookups,
//! index-probe joins and hash equi-joins as access paths (see [`plan`]),
//! and a row executor.
//!
//! ```
//! use obda_sqlstore::Database;
//! let mut db = Database::new();
//! db.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')").unwrap();
//! let r = db.query("SELECT name FROM t WHERE id = 2").unwrap();
//! assert_eq!(r.rows.len(), 1);
//! ```
//!
//! ## Concurrency
//!
//! [`Database`] is `Send + Sync` and [`Database::query`] takes `&self`:
//! once loaded, a database can be shared behind an `Arc` and queried
//! from many threads at once with no external locking. Mutation
//! (`execute`) needs `&mut self`, so the type system keeps writers
//! exclusive. The `obda-server` serving layer relies on this to run one
//! engine across a pool of worker threads.

pub mod catalog;
pub mod csv;
pub mod error;
pub mod exec;
pub mod plan;
pub mod sql;
pub mod table;
pub mod value;

pub use catalog::Database;
pub use csv::load_csv;
pub use error::SqlError;
pub use exec::{execute, execute_counted, execute_traced, ExecStats, ResultSet};
pub use plan::{plan_query, ComputeExpr, Plan, PlannedQuery};
pub use sql::ast::{SelectQuery, Statement};
pub use sql::parser::{parse_query, parse_statement};
pub use sql::printer::{select_core as print_select_core, select_query as print_select_query};
pub use table::{Column, Table};
pub use value::{ColumnType, Row, SqlValue};
