#![warn(missing_docs)]

//! Shared infrastructure for the benchmark harness: experiment tables,
//! CSV output, the paper's deterministic figures, and canonical workload
//! constructions used by both the criterion benches and the `experiments`
//! binary.

pub mod config;
pub mod figures;
pub mod host;
pub mod json;
pub mod report;
pub mod setups;

pub use report::Table;
