//! The concept-rank benchmark of record.
//!
//! Seeded workloads (`rds-1m` and `sds-cohort` in `BENCHMARK.json`, and
//! `mixed-1m` by hand) drive the engine through its public entry points
//! only, time each layer from outside around the calls into it, check
//! every output, and print one JSON result line. See `README.md` in this directory for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod oracle;
pub mod probe;
pub mod report;
pub mod run;
pub mod stats;
pub mod workload;
pub mod writer;
