//! # mastro
//!
//! The OBDA system facade, in the style of the Mastro system the paper's
//! work plugs into: an ontology (TBox) used as "a conceptual view over
//! the underlying data sources", linked to a relational database through
//! GAV mappings, answering conjunctive queries via query rewriting.
//!
//! * [`query`]: CQs/UCQs with a datalog-style concrete syntax;
//! * [`rewrite::perfectref`]: the classic PerfectRef UCQ rewriting,
//!   extended with the qualified-existential pair rule;
//! * [`rewrite::presto`]: Presto-style classification-aware rewriting
//!   into a small view program (this is where the paper's graph-based
//!   classification pays off at query time);
//! * [`rewrite::ndl`]: compilation of the Presto view program into
//!   nonrecursive datalog, evaluated natively over the ABox index with
//!   shared, epoch-memoized view extents (or as one shared-subplan SQL
//!   statement on the virtual path);
//! * [`rewrite::unfold`]: unfolding into flat SQL joins over the mappings
//!   with template-prefix pruning and typed suffix pushdown;
//! * [`answer`]: reference CQ evaluation over a concrete ABox;
//! * [`delta`]: the streaming write path — [`AboxDelta`] batches applied
//!   incrementally to the ABox index and the memoized NDL view extents;
//! * [`consistency`]: NI-violation and unsat-emptiness checking;
//! * [`sparql`]: a SPARQL front-end for the conjunctive fragment (the
//!   endpoint syntax Quest-style systems expose);
//! * [`system`]: the [`ObdaSystem`] facade (rewriting × data-access
//!   modes) and the simpler [`AboxSystem`];
//! * [`engine`]: the unified [`QueryEngine`] trait both systems
//!   implement, plus the typed [`SystemBuilder`];
//! * [`error`]: structured [`ObdaError`] with phase-attributed SQL
//!   failures;
//! * [`demo`]: wiring for the generated university scenario.

pub mod answer;
pub mod config;
pub mod consistency;
pub mod delta;
pub mod demo;
pub mod ebox;
pub mod engine;
pub mod error;
pub mod query;
pub mod rewrite;
pub mod sparql;
pub mod system;

pub use answer::{
    evaluate_cq, evaluate_cq_indexed, evaluate_ucq, evaluate_ucq_indexed, AboxIndex, AnswerTerm,
    Answers,
};
pub use config::{EngineConfig, ENGINE_CONFIG_KEYS};
pub use consistency::{check_consistency, Violation};
pub use delta::{AboxDelta, DeltaObject, DeltaStatement, DeltaSummary};
pub use ebox::{infer_from_index, infer_from_mappings, EboxMode};
pub use engine::{EngineStats, QueryEngine, QueryLang, SystemBuilder};
pub use error::{ErrorPhase, ObdaError};
pub use query::{
    parse_cq, print_cq, Atom, ConjunctiveQuery, QueryParseError, Term, Ucq, ValueTerm,
};
pub use rewrite::ndl::{ndl_compile, DataEpoch, NdlProgram};
pub use rewrite::perfectref::{perfect_ref, perfect_ref_scan, perfect_ref_with_index};
pub use rewrite::presto::{presto_rewrite, PrestoRewriting};
pub use rewrite::subsume::{prune_ucq, subsumes};
pub use sparql::{parse_sparql, SparqlQuery};
pub use system::{
    AboxSystem, DataMode, MaterializedAbox, ObdaSystem, RewriteCacheStats, RewritingMode,
};
