//! # matador-bench — evaluation harnesses for every table and figure
//!
//! Shared machinery behind the `table1`, `table2`, `fig3_sharing`,
//! `fig4_packets`, `fig7_timing` and `fig8_dont_touch` binaries: dataset +
//! flow orchestration for the MATADOR side, baseline training + dataflow
//! modeling for the FINN side, and the row formatting that mirrors the
//! paper's Table I layout.
//!
//! Every binary accepts `--quick` (smaller splits/epochs, CI-friendly) and
//! `--seed <n>`. Each run trains its model and generates its design
//! directly; every harness trains from [`eval::train_spec`], so at equal
//! options they serve the model `table1` reports.

pub mod benchjson;
pub mod eval;
pub mod metrics_out;
pub mod table;

pub use benchjson::BenchArtifact;
pub use eval::{
    run_baseline, run_matador, run_matador_with_threads, run_table1, BaselineRow, EvalError,
    EvalOptions, MatadorRow,
};
pub use metrics_out::write_metrics_snapshot;
pub use table::{format_table1, Table1Row};
