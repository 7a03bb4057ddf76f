//! `flextm-sweep`: the evaluation matrix as one parallel, cached,
//! incremental batch service.
//!
//! The serial `cargo bench` path regenerates every EXPERIMENTS.md
//! figure one cell at a time in one process. This crate treats the
//! same evaluation as production traffic: a declarative [`spec`]
//! expands into cells, the [`runner`] fans them across host cores as
//! isolated child processes, the [`store`] serves unchanged cells from
//! a content-addressed cache, and [`aggregate`] turns the results into
//! median/CI series, EXPERIMENTS-style tables, and BENCH-style JSON —
//! mechanically, instead of by hand.
//!
//! The `sweep` binary (`src/bin/sweep.rs`) is the entry point; see
//! `EXPERIMENTS.md` ("Regenerating with `sweep`") for usage and
//! DESIGN.md ("Sweep farm") for the isolation and cache-key design.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod runner;
pub mod spec;
pub mod store;

/// The repository's JSON codec (`flextm_trace::json`).
pub use flextm_bench::json;

pub use runner::{run_sweep, Outcome, RunnerConfig, SweepOutcome};
pub use spec::{cell_from_json, MatrixSpec, SpecError};
pub use store::{binary_fingerprint, config_hash, git_rev, Store};
