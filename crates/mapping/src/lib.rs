//! # obda-mapping
//!
//! The OBDA mapping layer — "the semantic correspondence between the
//! unified view of the domain and the data stored at the sources"
//! (Section 1 of the paper):
//!
//! * [`assertion`]: GAV mapping assertions (SQL body → ontology-atom
//!   heads with IRI templates), validation against source schemas, and a
//!   design-time lint for unmapped predicates;
//! * [`materialize`]: virtual-ABox materialization ("ABox mode");
//! * [`ebox`]: extensional constraints (inclusion dependencies, empty
//!   and exact extensions) over the asserted data, used to prune
//!   rewritings and unfoldings (Hovland et al., PAPERS.md).
//!
//! Query *unfolding* (the "virtual mode" that never materializes) lives
//! in `mastro::rewrite::unfold`, which combines per-atom sources from
//! [`assertion::MappingSet`] into flat SQL joins.

pub mod assertion;
pub mod ebox;
pub mod materialize;

pub use assertion::{IriTemplate, MappingAssertion, MappingHead, MappingSet, ParsedBody};
pub use ebox::{Ebox, EboxInclusion, EboxPredicate};
pub use materialize::{materialize, materialize_with_stats, MaterializeStats};
