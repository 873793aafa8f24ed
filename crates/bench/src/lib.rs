//! # cachecatalyst-bench
//!
//! The experiment harness: shared runners that drive the page-load
//! engine over the evaluation corpus, plain-text table/series
//! rendering, and every figure/table of the paper as a function under
//! [`experiments`], all behind one binary (`experiments`; see
//! DESIGN.md §4 for the index).

pub mod cli;
pub mod experiments;
pub mod fleet;
pub mod runner;
pub mod table;
pub mod tracefmt;

pub use fleet::{run_fleet, FleetOptions, FleetReport};
pub use runner::{
    visit_pair, visit_pair_traced, ClientKind, ExperimentGrid, GridCell, TracedVisits, VisitPair,
    REVISIT_DELAYS,
};
pub use table::{render_series, render_table};
