//! Shared experiment plumbing for the experiment binaries.
//!
//! The paper's evaluation comes from three setups, one binary each:
//! `sec61_testbed` (§6.1, Figs 1 and 11), `sec62_packet` (§6.2, Figs
//! 12–14 and Table 4) and `sec63_flow` (§6.3, Figs 15–16). Each simulates
//! every distinct cell of its section once through [`run_cells`] and
//! prints every table of that section. The other binaries cover the
//! remaining figures and tables, the extensions and the tools.
//!
//! Every binary accepts:
//!
//! * `--scale <f>`   — topology scale factor (1.0 = the paper's sizes);
//! * `--seed <n>`    — RNG seed;
//! * `--duration-ms <n>` — simulated time for packet-level runs;
//! * `--runs <n>`    — repetitions where the paper aggregates over runs;
//! * `--threads <n>` — worker threads for sweep cells (0 = one per core).
//!   Results are bit-identical at any thread count (see [`runner`]).
//!
//! Defaults are sized so the full suite completes in minutes on a laptop
//! while preserving oversubscription ratios and workload shapes; pass
//! `--scale 1` for the paper's full dimensions.

pub mod args;
pub mod corpus;
pub mod ns2;
pub mod obsfile;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod verify;

pub use args::{checked, Args};
pub use obsfile::write_observer_outputs;
pub use report::print_cdf;
pub use runner::{auto_threads, run_cells};
pub use scenario::{
    build_ns2_population, testbed_tenants, NsClass, NsTenant, PlacerKind, TestbedReq,
};
pub use verify::{build_verify_population, run_verify, VerifyOutcome, VerifyRow};
