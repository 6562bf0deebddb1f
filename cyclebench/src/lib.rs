//! # cyclebench — the assimilation-cycle benchmark
//!
//! Runs whole assimilation cycles through the repository's public drivers
//! and reports end-to-end metrics (untraced runs) or per-layer metrics
//! (traced runs, spans recorded around each layer call from this crate).
//! See `README.md` next to this crate for the workloads and metrics.

pub mod report;
pub mod trace;
pub mod workloads;

pub use report::{END_TO_END, PER_LAYER};
pub use workloads::Workload;
