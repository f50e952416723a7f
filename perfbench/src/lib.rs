//! End-to-end and per-layer benchmark of the OBDA serving stack; see
//! README.md for the workloads, the metrics and how to run it.

pub mod drive;
pub mod ops;
pub mod replay;
pub mod spans;
pub mod stats;
